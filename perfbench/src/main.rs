//! The repository benchmark. See `README.md` for the workloads, the
//! metrics and how to run it.
//!
//! ```text
//! tally-perfbench --workload <colocate|overload|fleet> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones. The process exits non-zero when an output check fails.

mod host;
mod layers;
mod report;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use host::{CalibratedClock, Stopwatch, Timing};
use report::{json_line, layer_figures, metric, LayerFigures, Metric};
use trace::{Layer, Tracer};
use workloads::{Inputs, References, Workload};

/// Batches of input builds per run; `setup_s` is the median of their
/// mean build times, each in calibrated seconds.
const SETUP_BATCHES: usize = 9;
/// Host time of one batch of builds, at least, ns. A build takes 0.1 ms
/// to a few ms, so one build alone is mostly timer and cache noise.
const SETUP_BATCH_NS: u64 = 60_000_000;
/// Measured repetitions per untraced run, at least.
const MIN_REPS: usize = 5;
/// Traced repetitions per traced run, at least. Each follows an
/// untraced one, so drift in host speed hits both alike.
const MIN_TRACED_REPS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = Workload::parse(&value).ok_or(format!("unknown workload `{value}`"))?;
                workload = Some(w);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 || s > 3600 {
                    return Err("--seconds must be in 1..=3600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// What is kept of a timed repetition: its host time and the fingerprint
/// of its simulated reports. Only the untimed first repetition's reports
/// are kept whole, so peak memory does not grow with the repetition
/// count.
struct Timed {
    time: Timing,
    fingerprint: u64,
}

/// Runs one untraced repetition, timing each of its runs on its own.
fn untraced_rep(clock: &mut CalibratedClock, inputs: &Inputs) -> Timed {
    let mut sw = Stopwatch::timing(clock);
    let fingerprint = workloads::run(inputs, false, &mut sw).fingerprint;
    Timed {
        time: sw.finish(),
        fingerprint,
    }
}

/// Runs one traced repetition, timed whole so that no calibration falls
/// inside its wall span, and derives its per-layer figures net of the
/// recorder's cost, measured just before.
fn traced_rep(clock: &mut CalibratedClock, inputs: &Inputs) -> (Timed, LayerFigures, Tracer) {
    let cost = layers::span_cost();
    trace::install(Tracer::new());
    let (time, rep) = clock.time(|| {
        trace::span(Layer::Wall, "rep", None, None, || {
            workloads::run(inputs, true, &mut Stopwatch::untimed())
        })
    });
    let tracer = trace::uninstall().expect("tracer installed");
    let figures = layer_figures(&tracer, &rep, cost);
    let fingerprint = rep.fingerprint;
    (Timed { time, fingerprint }, figures, tracer)
}

fn write_spans(workload: Workload, t: &Tracer) -> Result<String, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}.csv", workload.name()));
    std::fs::write(&path, t.to_csv()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: tally-perfbench --workload <colocate|overload|fleet> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

fn median_of(ts: &[&Timed], f: impl Fn(&Timing) -> f64) -> f64 {
    stats::median(&ts.iter().map(|t| f(&t.time)).collect::<Vec<_>>())
}

/// Runs the benchmark; `Ok(false)` when an output check failed.
fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let mut clock = CalibratedClock::new();
    let inputs = Inputs::build(w, args.seed);

    // The first repetition runs untimed, before any allocation whose
    // place depends on timing (calibrations inside a repetition, the
    // set-up batches), so the memory peak it sets is the same on every
    // run. Its reports are the ones checked.
    let first = workloads::run(&inputs, false, &mut Stopwatch::untimed());
    let peak_rss_mb = host::peak_rss_mb()?;

    // Set-up: building the inputs the simulation runs consume, in
    // batches, each timed whole and calibrated on its own: the host's
    // speed drifts within the second the batches take.
    let mut setup_cal = Vec::with_capacity(SETUP_BATCHES);
    for _ in 0..SETUP_BATCHES {
        let start = host::host_now();
        let mut builds = 0;
        while builds == 0 || host::host_elapsed_ns(start) < SETUP_BATCH_NS {
            std::hint::black_box(Inputs::build(w, args.seed));
            builds += 1;
        }
        let mean_s = host::host_elapsed_ns(start) as f64 / 1e9 / f64::from(builds);
        setup_cal.push(mean_s * clock.scale_after());
    }

    let budget_ns = args.seconds * 1_000_000_000;
    let loop_start = host::host_now();
    let mut untraced: Vec<Timed> = Vec::new();
    let mut traced: Vec<(Timed, LayerFigures)> = Vec::new();
    let mut last_tracer = None;
    loop {
        untraced.push(untraced_rep(&mut clock, &inputs));
        if args.trace {
            let (t, figures, tracer) = traced_rep(&mut clock, &inputs);
            traced.push((t, figures));
            last_tracer = Some(tracer);
        }
        let enough = if args.trace {
            traced.len() >= MIN_TRACED_REPS
        } else {
            untraced.len() >= MIN_REPS
        };
        if enough && host::host_elapsed_ns(loop_start) >= budget_ns {
            break;
        }
    }

    // Output checks: on the first repetition's reports, and every
    // timed repetition, traced or not, must reproduce them exactly.
    let owned_refs;
    let refs: &References = match &first.refs {
        Some(r) => r,
        None => {
            owned_refs = workloads::references(&inputs, false, &mut Stopwatch::untimed());
            &owned_refs
        }
    };
    let sim = workloads::sim_metrics(&inputs, &first.tally, refs);
    let mut failures = workloads::check(&inputs, &first.tally, refs, &sim);
    let all: Vec<&Timed> = untraced
        .iter()
        .chain(traced.iter().map(|(t, _)| t))
        .collect();
    let failed = all
        .iter()
        .filter(|t| t.fingerprint != first.fingerprint)
        .count();
    if failed > 0 {
        failures.push(format!(
            "{failed} repetitions produced a different simulated report than the first"
        ));
    }
    for (_, f) in &traced {
        failures.extend(f.violations.iter().cloned());
        if f.counts != traced[0].1.counts {
            failures.push("traced repetitions counted different work".to_string());
        }
    }

    let plain: Vec<&Timed> = untraced.iter().collect();
    println!(
        "{}: seed {}: {} untraced repetitions of {} simulated device-seconds, median {:.3} s \
         ({:.3} calibrated s)",
        w.name(),
        args.seed,
        plain.len(),
        inputs.device_seconds(),
        median_of(&plain, |t| t.raw_s),
        median_of(&plain, |t| t.cal_s),
    );
    let list = |f: fn(&Timing) -> f64| {
        plain
            .iter()
            .map(|t| format!("{:.3}", f(&t.time)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("  repetitions, s: {}", list(|t| t.raw_s));
    println!("  repetitions, calibrated s: {}", list(|t| t.cal_s));
    println!(
        "  calibration: median {:.4} s over {} runs (reference {} s)",
        stats::median(&clock.calibrations),
        clock.calibrations.len(),
        host::CAL_REF_S
    );
    println!(
        "  HP: {} samples, p50 {:.3} ms, p99 {:.3} ms (highest percentile with {}+ samples \
         beyond: p{}); {:.5} of offered requests served",
        sim.hp_samples,
        sim.hp_p50_ms,
        sim.hp_p99_ms,
        stats::MIN_BEYOND,
        stats::tail_percentile(sim.hp_samples).unwrap_or(f64::NAN),
        sim.served_frac
    );
    println!(
        "  HP p99 overhead over solo: Tally {:.2}%, TGS {:.2}%; system throughput {:.3}, {:.3}x TGS",
        workloads::pct(sim.hp_p99_vs_solo),
        workloads::pct(sim.tgs_hp_p99_vs_solo),
        sim.system_throughput,
        sim.throughput_vs_tgs
    );
    if w == Workload::Colocate {
        println!(
            "  paper, averaged over the Fig-5 grid on hardware (not comparable to one simulated \
             pairing; the model is unvalidated): Tally 7.2%, TGS 188.9%, Tally >= 0.80x TGS"
        );
    }
    for (claim, met) in workloads::claims(&inputs, &sim) {
        println!(
            "  paper claim {}: {claim}",
            if met { "met" } else { "NOT MET" }
        );
    }
    for f in &failures {
        println!("CHECK FAILED: {f}");
    }

    let metrics: Vec<Metric> = if args.trace {
        let traced_t: Vec<&Timed> = traced.iter().map(|(t, _)| t).collect();
        let overhead = median_of(&traced_t, |t| t.cal_s) / median_of(&plain, |t| t.cal_s) - 1.0;
        if let Some(t) = &last_tracer {
            let path = write_spans(w, t)?;
            println!(
                "  traced: {} repetitions; {} spans written to {path}, {} more counted only",
                traced.len(),
                t.spans().len(),
                t.dropped()
            );
            let (timed, figures) = traced.last().expect("a traced repetition");
            let spans: u64 = Layer::ALL.iter().map(|&l| t.totals(l).spans).sum();
            let cost_s = spans as f64 * figures.cost.per_span_ns() / 1e9;
            println!(
                "  recorder cost: {:.1} ns per span ({:.1} inside, {:.1} around), {:.3} s of the \
                 last traced repetition's {:.3} s; net {:.3} s against {:.3} s untraced (raw s)",
                figures.cost.per_span_ns(),
                figures.cost.inner_ns,
                figures.cost.outer_ns,
                cost_s,
                timed.time.raw_s,
                timed.time.raw_s - cost_s,
                median_of(&plain, |t| t.raw_s)
            );
        }
        // Times are medians over the traced repetitions; counts repeat.
        let mut metrics: Vec<Metric> = traced[0]
            .1
            .metrics
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let values: Vec<f64> = traced.iter().map(|(_, f)| f.metrics[i].value).collect();
                metric(m.name, stats::median(&values), m.unit)
            })
            .collect();
        metrics.push(metric("trace.overhead_pct", 100.0 * overhead, "%"));
        metrics
    } else {
        let rates: Vec<f64> = plain
            .iter()
            .map(|t| inputs.device_seconds() / t.time.cal_s)
            .collect();
        vec![
            metric("sim_rate", stats::median(&rates), "dev-s/s"),
            metric("setup_s", stats::median(&setup_cal), "s"),
            metric("peak_rss_mb", peak_rss_mb, "MiB"),
            metric("hp_p50_ms", sim.hp_p50_ms, "ms"),
            metric("hp_p99_ms", sim.hp_p99_ms, "ms"),
            metric("hp_p99_vs_solo", sim.hp_p99_vs_solo, "ratio"),
            metric("tgs_hp_p99_vs_solo", sim.tgs_hp_p99_vs_solo, "ratio"),
            metric("system_throughput", sim.system_throughput, "ratio"),
            metric("throughput_vs_tgs", sim.throughput_vs_tgs, "ratio"),
            metric("be_throughput", sim.be_throughput, "1/s"),
            metric("served_frac", sim.served_frac, "ratio"),
        ]
    };
    let correct = failures.is_empty();
    println!(
        "{}",
        json_line(
            correct,
            all.len(),
            failed.max(usize::from(!correct)),
            &metrics
        )
    );
    Ok(correct)
}
