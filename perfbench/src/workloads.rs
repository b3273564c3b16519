//! The three workloads: inputs built from the seed, the measured run, the
//! solo and TGS reference runs, the simulated metrics, and the output
//! checks. See `README.md` for why each workload exists.

use std::fmt::Write as _;
use tally_bench::{is_tally_variant, make_system};

use tally_core::admission::QueueCap;
use tally_core::api::Transport;
use tally_core::cluster::{Cluster, ClusterReport, LoadAware};
use tally_core::events::SharedObserver;
use tally_core::harness::{Colocation, HarnessConfig, JobKind, JobSpec, WorkloadOp};
use tally_core::metrics::{ClientReport, HostStats, RunReport};
use tally_core::system::Passthrough;
use tally_core::telemetry::{ChromeTraceWriter, MetricsHub, Timeline};
use tally_core::topology::Topology;
use tally_gpu::{GpuSpec, Priority, SimSpan};
use tally_workloads::openloop::{self, LoadProfile};
use tally_workloads::{mixes, InferModel};

use crate::host::Stopwatch;
use crate::layers;
use crate::stats::{self, Offered};
use crate::trace::{self, Layer};

/// Queue cap of the `overload` admission policy.
const OVERLOAD_QUEUE_CAP: usize = 32;
/// Independent sub-runs of `colocate` and `overload`, each with its own
/// jitter seed. Tally's BE service settles into seed-dependent modes that
/// a longer run does not average out; several shorter runs do.
const COLOCATE_SUBRUNS: usize = 6;
/// See [`COLOCATE_SUBRUNS`].
const OVERLOAD_SUBRUNS: usize = 6;
/// Devices in the `fleet` workload.
const FLEET_DEVICES: usize = 32;
/// Copies of `mixes::phase_shifted` in the `fleet` workload.
const FLEET_COPIES: usize = 16;
/// Clients per copy of `mixes::phase_shifted`.
const FLEET_COPY_CLIENTS: usize = 4;
/// Runs of the `fleet` TGS reference, each with its own engine seed. TGS
/// on the fleet settles into one of two seed-dependent modes (system
/// throughput about 1.32 or 1.39), which one run would pass on whole to
/// `throughput_vs_tgs`.
const FLEET_TGS_RUNS: u64 = 3;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Fig-5 pairing on one A100: solo, Tally and TGS.
    Colocate,
    /// One A100 past the knee under Tally, with admission and observers.
    Overload,
    /// 32 A100s with load-aware placement and rebalancing.
    Fleet,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Colocate, Workload::Overload, Workload::Fleet];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Colocate => "colocate",
            Workload::Overload => "overload",
            Workload::Fleet => "fleet",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything a workload's runs consume, generated from the seed.
pub struct Inputs {
    /// Which workload.
    pub workload: Workload,
    spec: GpuSpec,
    cfg: HarnessConfig,
    /// Engine seeds of the sub-runs, one per run of `jobs`.
    seeds: Vec<u64>,
    jobs: Vec<JobSpec>,
    topology: Option<Topology>,
}

/// The harness parameters shared by a workload's sub-runs; each sub-run
/// sets its own engine seed (see [`Inputs::sub_cfg`]).
fn config(duration: SimSpan, warmup: SimSpan) -> HarnessConfig {
    HarnessConfig {
        duration,
        warmup,
        seed: 0,
        jitter: 0.02,
        record_timelines: false,
    }
}

/// Stirs the benchmark seed into an independent stream seed.
fn stream_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Engine seeds of `n` sub-runs derived from `seed`.
fn sub_seeds(seed: u64, n: usize) -> Vec<u64> {
    (0..n as u64).map(|k| stream_seed(seed, k)).collect()
}

impl Inputs {
    /// Generates the workload's traces, jobs and topology from `seed`.
    pub fn build(workload: Workload, seed: u64) -> Inputs {
        let spec = GpuSpec::a100();
        match workload {
            Workload::Colocate => {
                // `mixes::standard`: BERT on its fixed MAF2 trace at load
                // 0.5 plus a GPT2-Large trainer. The seed drives the
                // engine jitter of each sub-run.
                let cfg = config(SimSpan::from_secs(10), SimSpan::from_secs(1));
                let jobs = mixes::standard(&spec, 0.5, cfg.duration);
                Inputs {
                    workload,
                    spec,
                    cfg,
                    seeds: sub_seeds(seed, COLOCATE_SUBRUNS),
                    jobs,
                    topology: None,
                }
            }
            Workload::Overload => {
                // The arrival streams are fixed; the seed drives the
                // engine jitter of each sub-run.
                let cfg = config(SimSpan::from_millis(2500), SimSpan::from_millis(250));
                let hp_model = InferModel::Bert;
                let hp_qps = 0.6 * openloop::solo_capacity_qps(hp_model);
                let mut jobs = vec![openloop::service(
                    &spec,
                    hp_model,
                    &LoadProfile::Constant { qps: hp_qps },
                    cfg.duration,
                    stream_seed(0, 1),
                )];
                // Six best-effort tenants, each offering a quarter of its
                // model's solo capacity (1.5x together), 5x over the
                // middle third of the run.
                let third = cfg.duration.mul_f64(1.0 / 3.0);
                for i in 0..6u64 {
                    let model = if i % 2 == 0 {
                        InferModel::Bert
                    } else {
                        InferModel::ResNet50
                    };
                    let profile = LoadProfile::FlashCrowd {
                        base_qps: 0.25 * openloop::solo_capacity_qps(model),
                        mult: 5.0,
                        at: third,
                        len: third,
                    };
                    let job = openloop::service(
                        &spec,
                        model,
                        &profile,
                        cfg.duration,
                        stream_seed(0, 2 + i),
                    )
                    .with_priority(Priority::BestEffort)
                    .with_client_key(format!("be{i}-{}", model.name()));
                    jobs.push(job);
                }
                Inputs {
                    workload,
                    spec,
                    cfg,
                    seeds: sub_seeds(seed, OVERLOAD_SUBRUNS),
                    jobs,
                    topology: None,
                }
            }
            Workload::Fleet => {
                // The arrivals are fixed; the seed drives the engine
                // jitter (device `d` uses `seed + d`).
                let cfg = config(SimSpan::from_millis(600), SimSpan::from_millis(100));
                let phase = SimSpan::from_millis(250);
                let mut jobs = Vec::with_capacity(FLEET_COPIES * FLEET_COPY_CLIENTS);
                for copy in 0..FLEET_COPIES {
                    for mut job in mixes::phase_shifted(&spec, phase, cfg.duration, 0.8) {
                        job.client_key = Some(format!("{}/c{copy}", job.key()));
                        jobs.push(job);
                    }
                }
                Inputs {
                    workload,
                    spec,
                    cfg,
                    seeds: vec![seed],
                    jobs,
                    topology: Some(Topology::dgx(FLEET_DEVICES)),
                }
            }
        }
    }

    /// Simulated device-seconds in one measured repetition.
    pub fn device_seconds(&self) -> f64 {
        let d = (self.seeds.len() * self.devices()) as f64 * self.cfg.duration.as_secs_f64();
        match self.workload {
            // Solo HP, solo BE, Tally, TGS.
            Workload::Colocate => 4.0 * d,
            Workload::Overload | Workload::Fleet => d,
        }
    }

    /// Devices one run spans.
    fn devices(&self) -> usize {
        match self.workload {
            Workload::Fleet => FLEET_DEVICES,
            _ => 1,
        }
    }

    /// The harness configuration of sub-run `k`.
    fn sub_cfg(&self, k: usize) -> HarnessConfig {
        HarnessConfig {
            seed: self.seeds[k],
            ..self.cfg.clone()
        }
    }

    /// The job behind client `i` of a run's concatenated client list
    /// (sub-run `i / jobs.len()`).
    fn job(&self, i: usize) -> &JobSpec {
        &self.jobs[i % self.jobs.len()]
    }

    /// Generated arrivals of client `i` (0 for trainers).
    fn arrivals(&self, i: usize) -> u64 {
        match &self.job(i).kind {
            JobKind::Inference { arrivals, .. } => arrivals.len() as u64,
            JobKind::Training { .. } => 0,
        }
    }

    /// Best-effort work per simulated second of client `i`: completed
    /// requests per second after warm-up for a service (the harness's
    /// throughput), and for a trainer its iterations per second over the
    /// whole run, counted in fractions from completed kernels. Whole
    /// iterations would quantize a 1.3 s GPT2-Large iteration to ±13% in
    /// a 10 s run.
    fn be_rate(&self, i: usize, c: &ClientReport) -> f64 {
        match &self.job(i).kind {
            JobKind::Inference { .. } => c.throughput,
            JobKind::Training { iteration } => {
                let kernels = iteration
                    .iter()
                    .filter(|op| matches!(op, WorkloadOp::Kernel(_)))
                    .count();
                c.kernels as f64 / kernels as f64 / self.cfg.duration.as_secs_f64()
            }
        }
    }

    /// Index of the solo run that stands in for client `i`: the fleet's
    /// copies are identical, so copy 0 serves them all.
    fn solo_index(&self, i: usize) -> usize {
        match self.workload {
            Workload::Fleet => i % FLEET_COPY_CLIENTS,
            _ => i,
        }
    }

    fn solo_runs(&self) -> usize {
        match self.workload {
            Workload::Fleet => FLEET_COPY_CLIENTS,
            _ => self.seeds.len() * self.jobs.len(),
        }
    }
}

/// The simulated result of one run of one sharing system.
pub struct RunOutcome {
    /// Per-client reports, in job order.
    pub clients: Vec<ClientReport>,
    /// Hash of the report's `Debug` string (which excludes host timings).
    pub fingerprint: u64,
    /// Fleet host counters (`fleet` only).
    pub host: Option<HostStats>,
    /// Cross-device migrations (`fleet` only).
    pub migrations: u64,
    /// Per-client `(requests, shed)` as the `MetricsHub` observer saw them
    /// (`overload` only).
    pub observed: Option<Vec<(u64, u64)>>,
}

/// Solo and TGS runs on the same inputs.
pub struct References {
    /// Solo report per job (see [`Inputs::solo_index`]).
    pub solo: Vec<ClientReport>,
    /// The TGS run.
    pub tgs: RunOutcome,
}

/// One measured repetition.
pub struct Rep {
    /// Tally's run.
    pub tally: RunOutcome,
    /// References run inside the repetition (`colocate` only).
    pub refs: Option<References>,
    /// Hash over every report of the repetition.
    pub fingerprint: u64,
}

/// FNV-1a over formatted text, fed as it is written: fingerprinting a
/// report never holds its `Debug` string, which runs to megabytes and
/// would otherwise set the peak memory the benchmark reports.
struct Fingerprint(u64);

impl Fingerprint {
    fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    fn add(mut self, value: &dyn std::fmt::Debug) -> Self {
        write!(self, "{value:?}").expect("hashing cannot fail");
        self
    }
}

impl std::fmt::Write for Fingerprint {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        Ok(())
    }
}

fn outcome_of_sessions(reports: &[RunReport]) -> RunOutcome {
    RunOutcome {
        clients: reports.iter().flat_map(|r| r.clients.clone()).collect(),
        fingerprint: reports.iter().fold(Fingerprint::new(), |h, r| h.add(r)).0,
        host: None,
        migrations: 0,
        observed: None,
    }
}

fn outcome_of_cluster(report: &ClusterReport) -> RunOutcome {
    RunOutcome {
        clients: report.clients.iter().map(|c| c.report.clone()).collect(),
        fingerprint: Fingerprint::new().add(report).0,
        host: Some(report.host.clone()),
        migrations: report.migrations,
        observed: None,
    }
}

/// Runs a single-device session to its end, inside one session span
/// when traced.
fn run_session(builder: Colocation<'_>, traced: bool) -> RunReport {
    if traced {
        trace::span(Layer::Session, "run", Some(0), None, || builder.run())
    } else {
        builder.run()
    }
}

/// Builds sub-run `k` of `inputs` under the named system.
fn colocation<'s>(inputs: &Inputs, system: &str, traced: bool, k: usize) -> Colocation<'s> {
    let mut b = Colocation::on(inputs.spec.clone())
        .clients(inputs.jobs.clone())
        .system_boxed(layers::system(make_system(system), 0, traced))
        .config(inputs.sub_cfg(k));
    if is_tally_variant(system) {
        b = b.transport(Transport::SharedMemory);
    }
    b
}

/// Solo run `i`: client `i`'s job alone under `Passthrough` (what
/// `run_solo` runs), with its sub-run's seed.
fn solo(inputs: &Inputs, i: usize, traced: bool) -> ClientReport {
    let b = Colocation::on(inputs.spec.clone())
        .client(inputs.job(i).clone())
        .system_boxed(layers::system(Box::new(Passthrough::new()), 0, traced))
        .config(inputs.sub_cfg(i / inputs.jobs.len()));
    run_session(b, traced)
        .clients
        .into_iter()
        .next()
        .expect("one client")
}

/// Runs every sub-run of a single-device workload under the named
/// system, each one piece of `sw`. On `overload` each session gets the
/// admission policy and, when `observe` is set, the three observers.
fn run_single(
    inputs: &Inputs,
    system: &str,
    traced: bool,
    observe: bool,
    sw: &mut Stopwatch<'_>,
) -> RunOutcome {
    let overload = inputs.workload == Workload::Overload;
    let mut reports = Vec::with_capacity(inputs.seeds.len());
    let mut observed = Vec::new();
    for k in 0..inputs.seeds.len() {
        let mut b = colocation(inputs, system, traced, k);
        if overload {
            b = b.admission(layers::admission(
                Box::new(QueueCap::shedding(OVERLOAD_QUEUE_CAP)),
                0,
                traced,
            ));
        }
        let hub = observe.then(MetricsHub::shared);
        if let Some(hub) = &hub {
            let timeline = Timeline::shared(SimSpan::from_millis(100), inputs.cfg.duration);
            let chrome = ChromeTraceWriter::shared();
            let list: Vec<SharedObserver> = vec![hub.clone(), timeline, chrome];
            for o in layers::observers(list, traced) {
                b = b.observer(o);
            }
        }
        reports.push(sw.piece(|| run_session(b, traced)));
        if let Some(hub) = hub {
            let hub = hub.borrow();
            observed.extend(
                inputs
                    .jobs
                    .iter()
                    .map(|j| hub.client(j.key()).map_or((0, 0), |c| (c.requests, c.shed))),
            );
        }
    }
    RunOutcome {
        observed: observe.then_some(observed),
        ..outcome_of_sessions(&reports)
    }
}

fn run_fleet(
    inputs: &Inputs,
    system: &'static str,
    cfg: HarnessConfig,
    traced: bool,
    observe: bool,
    sw: &mut Stopwatch<'_>,
) -> RunOutcome {
    let mut cluster = Cluster::new()
        .devices(FLEET_DEVICES, inputs.spec.clone())
        .clients(inputs.jobs.clone())
        .policy_boxed(layers::policy(Box::new(LoadAware::default()), traced))
        .rebalance_every(SimSpan::from_millis(10))
        .monitor_window(SimSpan::from_millis(100))
        .migrate_on_detach(false)
        .topology(inputs.topology.clone().expect("fleet topology"))
        .systems_with(move |d| layers::system(make_system(system), d, traced))
        .threads(1)
        .config(cfg);
    if is_tally_variant(system) {
        cluster = cluster.transport(Transport::SharedMemory);
    }
    if observe {
        cluster = cluster.sync_observer(layers::sync_observer(MetricsHub::shared_sync(), traced));
    }
    let report = sw.piece(|| {
        if traced {
            trace::span(Layer::Cluster, "run", None, None, || cluster.run())
        } else {
            cluster.run()
        }
    });
    outcome_of_cluster(&report)
}

/// Solo and TGS runs on `inputs`, each run one piece of `sw`.
pub fn references(inputs: &Inputs, traced: bool, sw: &mut Stopwatch<'_>) -> References {
    let solo = (0..inputs.solo_runs())
        .map(|i| sw.piece(|| self::solo(inputs, i, traced)))
        .collect();
    let tgs = match inputs.workload {
        Workload::Colocate | Workload::Overload => run_single(inputs, "tgs", traced, false, sw),
        Workload::Fleet => {
            let runs: Vec<RunOutcome> = (0..FLEET_TGS_RUNS)
                .map(|k| {
                    let cfg = HarnessConfig {
                        seed: stream_seed(inputs.seeds[0], k),
                        ..inputs.cfg.clone()
                    };
                    run_fleet(inputs, "tgs", cfg, traced, false, sw)
                })
                .collect();
            RunOutcome {
                clients: runs.iter().flat_map(|r| r.clients.clone()).collect(),
                fingerprint: runs
                    .iter()
                    .fold(Fingerprint::new(), |h, r| h.add(&r.fingerprint))
                    .0,
                host: None,
                migrations: runs.iter().map(|r| r.migrations).sum(),
                observed: None,
            }
        }
    };
    References { solo, tgs }
}

/// One measured repetition, each of its runs one piece of `sw`.
/// `colocate` runs its references inside it.
pub fn run(inputs: &Inputs, traced: bool, sw: &mut Stopwatch<'_>) -> Rep {
    let (tally, refs) = match inputs.workload {
        Workload::Colocate => {
            let refs = references(inputs, traced, sw);
            (run_single(inputs, "tally", traced, false, sw), Some(refs))
        }
        Workload::Overload => (run_single(inputs, "tally", traced, true, sw), None),
        Workload::Fleet => {
            let tally = run_fleet(inputs, "tally", inputs.sub_cfg(0), traced, true, sw);
            (tally, None)
        }
    };
    let mut fingerprint = tally.fingerprint;
    if let Some(r) = &refs {
        fingerprint = Fingerprint(fingerprint)
            .add(&r.tgs.fingerprint)
            .add(&r.solo)
            .0;
    }
    Rep {
        tally,
        refs,
        fingerprint,
    }
}

/// The simulated end-to-end metrics of a run.
#[derive(Clone, Debug, PartialEq)]
pub struct SimMetrics {
    /// Pooled high-priority request latencies under Tally.
    pub hp_samples: usize,
    /// Median HP latency, ms.
    pub hp_p50_ms: f64,
    /// 99th-percentile HP latency, ms.
    pub hp_p99_ms: f64,
    /// Tally's HP p99 over the solo runs' (1.072 = 7.2% overhead).
    pub hp_p99_vs_solo: f64,
    /// TGS's HP p99 over the solo runs'.
    pub tgs_hp_p99_vs_solo: f64,
    /// Tally's normalized HP plus BE throughput.
    pub system_throughput: f64,
    /// Tally's `system_throughput` over TGS's.
    pub throughput_vs_tgs: f64,
    /// Best-effort work per simulated second under Tally.
    pub be_throughput: f64,
    /// Share of generated requests completed under Tally: one minus the
    /// share shed or left unfinished.
    pub served_frac: f64,
}

fn hp_latencies_ms<'a>(clients: impl Iterator<Item = &'a ClientReport>) -> Vec<f64> {
    let mut v: Vec<f64> = clients
        .filter(|c| c.high_priority)
        .flat_map(|c| c.latency.samples().iter().map(|l| l.as_millis_f64()))
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

fn p99_ms(sorted: &[f64]) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    stats::percentile(sorted, 99.0)
}

/// Normalized throughput summed over the clients of one device, averaged
/// over the devices and the runs pooled in `run`.
fn system_throughput(inputs: &Inputs, run: &RunOutcome, solo: &[ClientReport]) -> f64 {
    let total: f64 = run
        .clients
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let base = solo[inputs.solo_index(i)].throughput;
            if base > 0.0 {
                c.throughput / base
            } else {
                0.0
            }
        })
        .sum();
    let runs = run.clients.len() / inputs.jobs.len();
    total / (runs * inputs.devices()) as f64
}

/// Offered-versus-served accounting of every request-serving client.
fn offered(inputs: &Inputs, run: &RunOutcome) -> Vec<Offered> {
    run.clients
        .iter()
        .enumerate()
        .filter(|&(i, _)| inputs.arrivals(i) > 0)
        .map(|(i, c)| Offered {
            arrivals: inputs.arrivals(i),
            completed: c.requests,
            shed: c.shed,
        })
        .collect()
}

/// Computes the simulated metrics of a repetition.
pub fn sim_metrics(inputs: &Inputs, tally: &RunOutcome, refs: &References) -> SimMetrics {
    let hp = hp_latencies_ms(tally.clients.iter());
    let solo_hp =
        hp_latencies_ms((0..tally.clients.len()).map(|i| &refs.solo[inputs.solo_index(i)]));
    let tgs_hp = hp_latencies_ms(refs.tgs.clients.iter());
    let solo_p99 = p99_ms(&solo_hp);
    let st = system_throughput(inputs, tally, &refs.solo);
    let st_tgs = system_throughput(inputs, &refs.tgs, &refs.solo);
    SimMetrics {
        hp_samples: hp.len(),
        hp_p50_ms: if hp.is_empty() {
            f64::NAN
        } else {
            stats::percentile(&hp, 50.0)
        },
        hp_p99_ms: p99_ms(&hp),
        hp_p99_vs_solo: p99_ms(&hp) / solo_p99,
        tgs_hp_p99_vs_solo: p99_ms(&tgs_hp) / solo_p99,
        system_throughput: st,
        throughput_vs_tgs: st / st_tgs,
        be_throughput: tally
            .clients
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.high_priority)
            .map(|(i, c)| inputs.be_rate(i, c))
            .sum::<f64>()
            / inputs.seeds.len() as f64,
        served_frac: 1.0 - stats::failed_frac(&offered(inputs, tally)),
    }
}

/// Output checks on one workload's runs. Returns one line per failure.
pub fn check(
    inputs: &Inputs,
    tally: &RunOutcome,
    refs: &References,
    m: &SimMetrics,
) -> Vec<String> {
    let mut failures = Vec::new();
    for (system, run) in [("tally", tally), ("tgs", &refs.tgs)] {
        for (i, c) in run.clients.iter().enumerate() {
            let arrivals = inputs.arrivals(i);
            if arrivals == 0 {
                continue;
            }
            let o = Offered {
                arrivals,
                completed: c.requests,
                shed: c.shed,
            };
            // arrivals = completed + shed + still queued, with a queue
            // that admission bounds where it runs.
            match o.unfinished() {
                None => failures.push(format!(
                    "{system}: client {i} reports {} completed + {} shed of {arrivals} arrivals",
                    c.requests, c.shed
                )),
                Some(q) => {
                    let capped = inputs.workload == Workload::Overload && !c.high_priority;
                    if capped && q > OVERLOAD_QUEUE_CAP as u64 + 1 {
                        failures.push(format!(
                            "{system}: client {i} holds {q} requests past a queue cap of {OVERLOAD_QUEUE_CAP}"
                        ));
                    }
                }
            }
            if c.high_priority && c.shed > 0 {
                failures.push(format!(
                    "{system}: high-priority client {i} shed {} requests",
                    c.shed
                ));
            }
        }
    }
    if let Some(observed) = &tally.observed {
        for (i, (c, &(requests, shed))) in tally.clients.iter().zip(observed).enumerate() {
            if (c.requests, c.shed) != (requests, shed) {
                failures.push(format!(
                    "client {i}: report says {} completed / {} shed, observers saw {requests} / {shed}",
                    c.requests, c.shed
                ));
            }
        }
    }
    if stats::tail_percentile(m.hp_samples).is_none_or(|p| p < 99.0) {
        failures.push(format!(
            "only {} high-priority samples: p99 has fewer than {} beyond it",
            m.hp_samples,
            stats::MIN_BEYOND
        ));
    }
    let finite = [
        m.hp_p50_ms,
        m.hp_p99_ms,
        m.hp_p99_vs_solo,
        m.tgs_hp_p99_vs_solo,
        m.system_throughput,
        m.throughput_vs_tgs,
        m.be_throughput,
        m.served_frac,
    ];
    if finite.iter().any(|v| !v.is_finite()) {
        failures.push(format!("non-finite simulated metric in {m:?}"));
    }
    failures
}

/// A p99 ratio over solo as a percentage overhead.
pub fn pct(ratio: f64) -> f64 {
    100.0 * (ratio - 1.0)
}

/// The paper's claims checked against the simulated `colocate` metrics,
/// as `(claim, met)`. They compare the model with the paper's
/// measurements, not the program with itself, so they are reported
/// beside the output checks rather than gating correctness.
pub fn claims(inputs: &Inputs, m: &SimMetrics) -> Vec<(String, bool)> {
    if inputs.workload != Workload::Colocate {
        return Vec::new();
    }
    vec![
        (
            format!(
                "Tally's HP p99 overhead ({:.2}%) is below TGS's ({:.2}%)",
                pct(m.hp_p99_vs_solo),
                pct(m.tgs_hp_p99_vs_solo)
            ),
            m.hp_p99_vs_solo < m.tgs_hp_p99_vs_solo,
        ),
        (
            format!(
                "Tally keeps at least 0.80x TGS's system throughput ({:.3}x)",
                m.throughput_vs_tgs
            ),
            m.throughput_vs_tgs >= 0.80,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What a seed determines: the sub-runs' engine seeds and every
    /// generated arrival instant.
    fn seeded(inputs: &Inputs) -> String {
        let arrivals: Vec<_> = inputs
            .jobs
            .iter()
            .map(|j| match &j.kind {
                JobKind::Inference { arrivals, .. } => arrivals.clone(),
                JobKind::Training { .. } => Vec::new(),
            })
            .collect();
        format!("{:?} {arrivals:?}", inputs.seeds)
    }

    #[test]
    fn inputs_repeat_per_seed_and_differ_across_seeds() {
        for w in Workload::ALL {
            let a = seeded(&Inputs::build(w, 3));
            assert_eq!(a, seeded(&Inputs::build(w, 3)), "{}", w.name());
            assert_ne!(a, seeded(&Inputs::build(w, 4)), "{}", w.name());
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn fleet_copies_share_their_solo_stand_in() {
        let inputs = Inputs::build(Workload::Fleet, 1);
        assert_eq!(inputs.jobs.len(), FLEET_COPIES * FLEET_COPY_CLIENTS);
        for (i, job) in inputs.jobs.iter().enumerate() {
            let stand_in = &inputs.jobs[inputs.solo_index(i)];
            assert_eq!(job.name, stand_in.name);
            assert_eq!(inputs.arrivals(i), inputs.arrivals(inputs.solo_index(i)));
        }
    }
}
