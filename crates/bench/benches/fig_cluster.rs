//! **Cluster scalability** (beyond the paper): fleet throughput vs GPU
//! count under pluggable placement policies, plus the two placement
//! stories a fleet scheduler must get right:
//!
//! 1. *Linear scaling* — N copies of the paper's standard single-GPU
//!    colocation mix (BERT inference + GPT2-Large training, each device
//!    under Tally) should deliver ≥ 0.9·N× the single-GPU normalized
//!    throughput, for every sensible policy.
//! 2. *Skew sensitivity* — on a demand-skewed all-best-effort mix,
//!    load-aware placement (`LeastLoaded`) must beat `RoundRobin`, which
//!    stacks the heavy trainers onto the same devices.
//! 3. *Migration* — `BestEffortPacking` keeps trainers packed away from
//!    services; when the service retires, detach-triggered migration
//!    spreads the trainers onto the freed device.
//! 4. *Phase shifts* — on an anti-phased bursty mix where both devices
//!    look identical to static demand estimates, `LoadAware` (driven by
//!    the runtime `DeviceLoad` signals) must beat `LeastLoaded` on the
//!    services' tail latency by shuttling trainers away from whichever
//!    service is currently bursting.
//! 5. *Topology-aware migration* — on a heterogeneous two-node fleet
//!    (A100 + V100 across a slow inter-node link), the topology-blind
//!    `LoadAware` variant thrashes a state-heavy best-effort service
//!    across the link at every phase flip, paying the transfer stall each
//!    time; the cost-aware default refuses moves the tail-latency win
//!    cannot amortize and must beat it on both the victim's p99 and total
//!    migration stall. On an NVLink topology the same policy migrates
//!    again — the gate is bandwidth-sensitive, not "never move".
//!
//! Pass `--json PATH` to record the measurements (`BENCH_cluster.json` in
//! the perf trajectory).

use tally_bench::{banner, bench_threads, make_system, ms, with_bench_threads, JsonSink};
use tally_core::cluster::{
    BestEffortPacking, Cluster, ClusterReport, LeastLoaded, LoadAware, PlacementPolicy, RoundRobin,
};
use tally_core::harness::{run_solo, HarnessConfig, JobSpec};
use tally_core::metrics::LatencyRecorder;
use tally_core::topology::{Link, Topology};
use tally_gpu::{GpuSpec, Priority, SimSpan, SimTime};
use tally_workloads::{mixes, InferModel};

/// Host wall-clock sample for the smoke test's wall budget — `host_`
/// scope per the determinism contract (ARCHITECTURE rule D3): wall time
/// here gates only the host-side time budget, never simulated results.
#[allow(clippy::disallowed_methods)] // host-only instrumentation scope
fn host_now() -> std::time::Instant {
    std::time::Instant::now()
}

const LOAD: f64 = 0.5;

fn policy_by_name(name: &str) -> Box<dyn PlacementPolicy> {
    match name {
        "round-robin" => Box::new(RoundRobin::default()),
        "least-loaded" => Box::new(LeastLoaded),
        "best-effort-packing" => Box::new(BestEffortPacking),
        "load-aware" => Box::new(LoadAware::default()),
        other => panic!("unknown policy `{other}`"),
    }
}

/// Solo throughput per model name, for normalization.
struct SoloTable(Vec<(String, f64)>);

impl SoloTable {
    fn build(spec: &GpuSpec, jobs: &[JobSpec], cfg: &HarnessConfig) -> Self {
        let mut table: Vec<(String, f64)> = Vec::new();
        for job in jobs {
            if table.iter().any(|(n, _)| *n == job.name) {
                continue;
            }
            let mut solo_job = job.clone();
            solo_job.windows = vec![tally_core::harness::ActivityWindow::ALWAYS];
            let thr = run_solo(spec, &solo_job, cfg).throughput;
            table.push((job.name.clone(), thr));
        }
        SoloTable(table)
    }

    fn normalized_client(&self, report: &tally_core::metrics::ClientReport) -> f64 {
        let solo = self
            .0
            .iter()
            .find(|(n, _)| *n == report.name)
            .map(|&(_, thr)| thr)
            .unwrap_or(0.0);
        if solo > 0.0 {
            report.throughput / solo
        } else {
            0.0
        }
    }

    fn normalized_fleet(&self, report: &tally_core::cluster::ClusterReport) -> f64 {
        report
            .clients
            .iter()
            .map(|c| self.normalized_client(&c.report))
            .sum()
    }
}

/// `TALLY_FLEET_SMOKE=1`: drive a 128-device fleet through the barrier
/// loop end to end and assert it fits a generous wall-clock budget — a
/// scale canary for the cluster subsystem, not a measurement (so it never
/// touches the JSON trajectory). One best-effort trainer per device plus
/// a retiring one to exercise departure forecasting at scale.
fn fleet_smoke() {
    const DEVICES: usize = 128;
    const BUDGET_SECS: u64 = 60;
    banner("Fleet smoke: 128 devices through the barrier loop");
    let spec = GpuSpec::a100();
    let cfg = HarnessConfig {
        duration: SimSpan::from_millis(500),
        warmup: SimSpan::ZERO,
        seed: 3,
        jitter: 0.0,
        record_timelines: false,
    };
    let mut jobs: Vec<JobSpec> = (0..DEVICES)
        .map(|i| {
            let mut j = mixes::standard(&spec, LOAD, cfg.duration).remove(1);
            j.client_key = Some(format!("t{i}"));
            j
        })
        .collect();
    jobs[0] = jobs[0].clone().active_until(SimTime::from_millis(250));
    let start = host_now();
    let report = with_bench_threads(
        Cluster::new()
            .devices(DEVICES, spec)
            .clients(jobs)
            .rebalance_every(SimSpan::from_millis(100))
            .config(cfg),
    )
    .run();
    let wall = start.elapsed();
    assert_eq!(report.devices.len(), DEVICES);
    // t0 retires at 250ms — before a single GPT2-Large iteration fits —
    // so it only exercises departure forecasting; everyone else must
    // actually make progress.
    assert!(
        report
            .clients
            .iter()
            .filter(|c| c.key != "t0")
            .all(|c| c.report.iterations > 0),
        "every non-retiring trainer must make progress"
    );
    println!(
        "128-device fleet: {} barriers, {} events, {:.2}s wall ({} threads)",
        report.host.barriers,
        report.host.events,
        wall.as_secs_f64(),
        report.host.threads,
    );
    assert!(
        wall.as_secs() < BUDGET_SECS,
        "128-device smoke took {:.1}s, budget {BUDGET_SECS}s",
        wall.as_secs_f64()
    );
}

/// The routed leg of `TALLY_FLEET_SMOKE=1`: 128 devices on a DGX
/// topology under `LoadAware` with 10 ms rebalancing, so every pass
/// prices a transfer from each best-effort client's device to every
/// other device. The cluster keeps one widest-path row per source device
/// for the whole run; recomputing paths per candidate and destination
/// would make each pass cost O(devices³ · links) and blow the budget.
fn routed_fleet_smoke() {
    const DEVICES: usize = 128;
    const BUDGET_SECS: u64 = 60;
    banner("Fleet smoke: 128 routed devices, load-aware, 10 ms rebalancing");
    let spec = GpuSpec::a100();
    let cfg = HarnessConfig {
        duration: SimSpan::from_millis(500),
        warmup: SimSpan::ZERO,
        seed: 3,
        jitter: 0.0,
        record_timelines: false,
    };
    // One phase-shifted pair of services and trainers per two devices.
    let mut jobs = Vec::new();
    for copy in 0..DEVICES / 2 {
        for mut job in mixes::phase_shifted(&spec, SimSpan::from_millis(100), cfg.duration, 0.8) {
            job.client_key = Some(format!("{}/c{copy}", job.key()));
            jobs.push(job);
        }
    }
    let start = host_now();
    let report = with_bench_threads(
        Cluster::new()
            .devices(DEVICES, spec)
            .clients(jobs)
            .policy(LoadAware::default())
            .topology(Topology::dgx(DEVICES))
            .rebalance_every(SimSpan::from_millis(10))
            .migrate_on_detach(false)
            .config(cfg),
    )
    .run();
    let wall = start.elapsed();
    assert_eq!(report.devices.len(), DEVICES);
    // A Whisper-V3 iteration outlasts the run, so only the services'
    // progress is checked; the moves prove the priced path ran.
    assert!(
        report
            .clients
            .iter()
            .filter(|c| c.report.high_priority)
            .all(|c| c.report.requests > 0),
        "every service must complete requests"
    );
    assert!(report.migrations > 0, "load-aware must move someone");
    println!(
        "128-device routed fleet: {} barriers, {} migrations, {} load snapshots, {:.2}s wall ({} threads)",
        report.host.barriers,
        report.migrations,
        report.host.load_snapshots,
        wall.as_secs_f64(),
        report.host.threads,
    );
    assert!(
        wall.as_secs() < BUDGET_SECS,
        "128-device routed smoke took {:.1}s, budget {BUDGET_SECS}s",
        wall.as_secs_f64()
    );
}

fn main() {
    if std::env::var("TALLY_FLEET_SMOKE").as_deref() == Ok("1") {
        fleet_smoke();
        routed_fleet_smoke();
        return;
    }
    let mut sink = JsonSink::from_args("fig_cluster");
    // The pinned worker-thread count (if any), as trajectory metadata.
    sink.record(
        "host_threads",
        bench_threads().map_or(-1.0, |n| n as f64),
        &[],
    );
    let spec = GpuSpec::a100();

    // ---- 1. linear scaling of the replicated standard mix ------------
    let cfg = HarnessConfig {
        duration: SimSpan::from_secs(10),
        warmup: SimSpan::from_secs(1),
        seed: 1,
        jitter: 0.0,
        record_timelines: false,
    };
    let solo = SoloTable::build(&spec, &mixes::standard(&spec, LOAD, cfg.duration), &cfg);

    banner("Cluster scaling: N copies of the standard mix on N GPUs (Tally per device)");
    println!(
        "{:<6}{:<22}{:>12}{:>12}{:>12}",
        "gpus", "policy", "fleet-norm", "scaling", "fleet p99"
    );
    let mut single_gpu_norm = None;
    for n in [1usize, 2, 4, 8] {
        for policy in ["round-robin", "least-loaded", "best-effort-packing"] {
            let jobs = mixes::replicated(&spec, n, LOAD, cfg.duration);
            let report = with_bench_threads(
                Cluster::new()
                    .devices(n, spec.clone())
                    .clients(jobs)
                    .policy_boxed(policy_by_name(policy))
                    .systems_with(|_| make_system("tally"))
                    .transport(tally_core::api::Transport::SharedMemory)
                    .config(cfg.clone()),
            )
            .run();
            let norm = solo.normalized_fleet(&report);
            let single = *single_gpu_norm.get_or_insert(norm);
            let scaling = norm / single;
            let p99 = report
                .fleet_p99()
                .map_or("-".into(), |p| format!("{:.2}ms", p.as_millis_f64()));
            println!("{n:<6}{policy:<22}{norm:>12.2}{scaling:>11.2}x{p99:>12}");
            sink.record(
                "fleet_norm_throughput",
                norm,
                &[
                    ("gpus", &n.to_string()),
                    ("policy", policy),
                    ("mix", "replicated"),
                ],
            );
            sink.record(
                "scaling_x",
                scaling,
                &[("gpus", &n.to_string()), ("policy", policy)],
            );
            // Spreading policies must scale the fleet linearly; packing
            // trades trainer throughput for free devices by design.
            if policy != "best-effort-packing" {
                assert!(
                    scaling >= 0.9 * n as f64,
                    "{policy} on {n} GPUs scaled only {scaling:.2}x"
                );
            }
        }
    }
    println!("\n[expected: round-robin and least-loaded scale >= 0.9*N]");

    // ---- 2. skewed mix: least-loaded vs round-robin ------------------
    let skew_cfg = HarnessConfig {
        duration: SimSpan::from_secs(20),
        warmup: SimSpan::from_secs(2),
        seed: 1,
        jitter: 0.0,
        record_timelines: false,
    };
    let skew_jobs = mixes::skewed(&spec, 2);
    let skew_solo = SoloTable::build(&spec, &skew_jobs, &skew_cfg);

    banner("Skewed trainer mix on 2 GPUs: worst-client normalized throughput");
    let mut worst_norms = Vec::new();
    for policy in ["round-robin", "least-loaded"] {
        let report = with_bench_threads(
            Cluster::new()
                .devices(2, spec.clone())
                .clients(skew_jobs.clone())
                .policy_boxed(policy_by_name(policy))
                .config(skew_cfg.clone()),
        )
        .run();
        let placements: Vec<usize> = report.clients.iter().map(|c| c.initial_device).collect();
        let norms: Vec<f64> = report
            .clients
            .iter()
            .map(|c| skew_solo.normalized_client(&c.report))
            .collect();
        let worst = norms.iter().cloned().fold(f64::INFINITY, f64::min);
        let fleet: f64 = norms.iter().sum();
        println!(
            "{policy:<22}worst-client norm {worst:>5.2}   fleet-norm {fleet:>5.2}   placements {placements:?}"
        );
        sink.record(
            "worst_client_norm",
            worst,
            &[("gpus", "2"), ("policy", policy), ("mix", "skewed")],
        );
        sink.record(
            "fleet_norm_throughput",
            fleet,
            &[("gpus", "2"), ("policy", policy), ("mix", "skewed")],
        );
        worst_norms.push(worst);
    }
    let gain = worst_norms[1] / worst_norms[0];
    println!(
        "least-loaded / round-robin worst-client norm = {gain:.2}   \
         [expected: > 1 — round-robin stacks the heavy trainers, starving them]"
    );
    sink.record("ll_over_rr_worst_client", gain, &[("mix", "skewed")]);
    assert!(
        gain > 1.0,
        "least-loaded (worst norm {:.3}) must beat round-robin (worst norm {:.3}) on the skewed mix",
        worst_norms[1],
        worst_norms[0]
    );

    // ---- 3. migration: packing + a retiring service ------------------
    banner("Migration: packed trainers spread onto the device freed by a retiring service");
    let mig_cfg = HarnessConfig {
        duration: SimSpan::from_secs(10),
        warmup: SimSpan::from_secs(1),
        seed: 1,
        jitter: 0.0,
        record_timelines: false,
    };
    let mut churn_jobs = mixes::standard(&spec, LOAD, mig_cfg.duration);
    churn_jobs.truncate(1); // keep the service
    churn_jobs[0] = churn_jobs[0].clone().active_until(SimTime::from_secs(5));
    for i in 0..4 {
        let mut trainer = mixes::standard(&spec, LOAD, mig_cfg.duration).remove(1);
        trainer.client_key = Some(format!("{}/t{i}", trainer.name));
        churn_jobs.push(trainer);
    }
    for migrate in [false, true] {
        let report = with_bench_threads(
            Cluster::new()
                .devices(2, spec.clone())
                .clients(churn_jobs.clone())
                .policy(BestEffortPacking)
                .migrate_on_detach(migrate)
                .config(mig_cfg.clone()),
        )
        .run();
        let trainer_thr: f64 = report
            .clients
            .iter()
            .filter(|c| !c.report.high_priority)
            .map(|c| c.report.throughput)
            .sum();
        println!(
            "migrate_on_detach={migrate:<6} migrations {:<3} trainer throughput {trainer_thr:.2} it/s",
            report.migrations
        );
        sink.record(
            "migrations",
            report.migrations as f64,
            &[("mix", "churn"), ("migrate", &migrate.to_string())],
        );
        sink.record(
            "trainer_throughput",
            trainer_thr,
            &[("mix", "churn"), ("migrate", &migrate.to_string())],
        );
        if migrate {
            assert!(
                report.migrations > 0,
                "the retiring service must trigger at least one migration"
            );
        } else {
            assert_eq!(report.migrations, 0);
        }
    }

    // ---- 4. phase shifts: load-aware vs least-loaded -----------------
    banner("Phase-shifted bursts on 2 GPUs: runtime load signals vs static demand");
    let phase = SimSpan::from_secs(3);
    let phase_cfg = HarnessConfig {
        duration: SimSpan::from_secs(12),
        warmup: SimSpan::from_secs(1),
        seed: 1,
        jitter: 0.0,
        record_timelines: false,
    };
    let phase_jobs = mixes::phase_shifted(&spec, phase, phase_cfg.duration, 0.8);
    let run_phased = |policy: &str| -> ClusterReport {
        with_bench_threads(
            Cluster::new()
                .devices(2, spec.clone())
                .clients(phase_jobs.clone())
                .policy_boxed(policy_by_name(policy))
                .migrate_on_detach(false)
                .rebalance_every(SimSpan::from_millis(100))
                .monitor_window(SimSpan::from_millis(100))
                .config(phase_cfg.clone()),
        )
        .run()
    };
    let pooled_hp = |report: &ClusterReport| -> LatencyRecorder {
        let mut rec = LatencyRecorder::new();
        for c in &report.clients {
            if c.report.high_priority {
                for &l in c.report.latency.samples() {
                    rec.record(l);
                }
            }
        }
        rec
    };
    println!(
        "{:<14}{:>12}{:>12}{:>12}{:>14}{:>12}",
        "policy", "hp p50", "hp p90", "hp p99", "trainer it/s", "migrations"
    );
    let mut p90s = Vec::new();
    let mut trainer_thrs = Vec::new();
    for policy in ["least-loaded", "load-aware"] {
        let report = run_phased(policy);
        let lat = pooled_hp(&report);
        let p90 = lat.quantile(0.90).expect("requests served");
        let trainer_thr: f64 = report
            .clients
            .iter()
            .filter(|c| !c.report.high_priority)
            .map(|c| c.report.throughput)
            .sum();
        println!(
            "{policy:<14}{:>12}{:>12}{:>12}{trainer_thr:>14.2}{:>12}",
            ms(lat.p50().expect("requests")),
            ms(p90),
            ms(lat.p99().expect("requests")),
            report.migrations
        );
        sink.record(
            "phase_hp_p90_latency_ms",
            p90.as_millis_f64(),
            &[("gpus", "2"), ("policy", policy), ("mix", "phase-shifted")],
        );
        sink.record(
            "phase_trainer_throughput",
            trainer_thr,
            &[("gpus", "2"), ("policy", policy), ("mix", "phase-shifted")],
        );
        sink.record(
            "phase_migrations",
            report.migrations as f64,
            &[("gpus", "2"), ("policy", policy), ("mix", "phase-shifted")],
        );
        if policy == "least-loaded" {
            assert_eq!(
                report.migrations, 0,
                "static demand sees two balanced devices and never moves anyone"
            );
        } else {
            assert!(
                report.migrations >= 2,
                "load-aware must react to the phase flips, got {} migrations",
                report.migrations
            );
        }
        p90s.push(p90);
        trainer_thrs.push(trainer_thr);
    }
    let gain = p90s[0].ratio(p90s[1]);
    println!(
        "least-loaded p90 / load-aware p90 = {gain:.2}   \
         [expected: > 1.3 — evacuating the bursting device protects the tail]"
    );
    sink.record("phase_ll_over_la_p90", gain, &[("mix", "phase-shifted")]);
    assert!(
        gain > 1.3,
        "load-aware (p90 {:?}) must beat least-loaded (p90 {:?}) on the phase-shifted mix",
        p90s[1],
        p90s[0]
    );
    assert!(
        trainer_thrs[1] > 0.5 * trainer_thrs[0],
        "trainers must keep making progress while shuttling ({} vs {} it/s)",
        trainer_thrs[1],
        trainer_thrs[0]
    );

    // ---- 5. topology-aware migration on a heterogeneous fleet --------
    banner("Heterogeneous two-node fleet: topology-blind vs cost-aware LoadAware");
    let hetero_cfg = HarnessConfig {
        duration: SimSpan::from_secs(12),
        warmup: SimSpan::from_secs(1),
        seed: 1,
        jitter: 0.0,
        record_timelines: false,
    };
    // Two anti-phased bursty BERT services, one per node, make whichever
    // device is bursting look evacuation-worthy to LoadAware. The one
    // best-effort client is an MoE-style expert-cache service: BERT-sized
    // per-request compute but 7 GB of resident fp16 state, so one hop
    // over the 12.5 GB/s inter-node link stalls it for 560 ms — far more
    // than any tail-latency win a 2 s quiet phase can repay.
    let hetero_phase = SimSpan::from_secs(2);
    let burst_period = InferModel::Bert.paper_latency().mul_f64(2.0);
    let bursts = |offset: bool| -> Vec<SimTime> {
        let mut reqs = Vec::new();
        let mut k = u64::from(offset);
        loop {
            let start = SimTime::ZERO + hetero_phase * k;
            if start >= SimTime::ZERO + hetero_cfg.duration {
                break;
            }
            let until = (start + hetero_phase).min(SimTime::ZERO + hetero_cfg.duration);
            let mut t = start;
            while t < until {
                reqs.push(t);
                t += burst_period;
            }
            k += 2;
        }
        reqs
    };
    let a100 = GpuSpec::a100();
    let victim_arrivals: Vec<SimTime> = {
        let period = SimSpan::from_millis(12);
        let mut reqs = Vec::new();
        let mut t = SimTime::ZERO;
        while t < SimTime::ZERO + hetero_cfg.duration {
            reqs.push(t);
            t += period;
        }
        reqs
    };
    let hetero_jobs = vec![
        InferModel::Bert
            .job(&a100, bursts(false))
            .with_client_key("bert/even"),
        InferModel::Bert
            .job(&a100, bursts(true))
            .with_client_key("bert/odd"),
        JobSpec::inference(
            "expert-cache",
            InferModel::Bert.request_ops(&a100),
            victim_arrivals,
        )
        .with_priority(Priority::BestEffort)
        .with_state_bytes(7_000_000_000)
        .with_client_key("expert-cache"),
    ];
    let run_hetero = |policy: LoadAware, topology: Topology| -> ClusterReport {
        with_bench_threads(
            Cluster::new()
                .device(GpuSpec::a100())
                .device(GpuSpec::v100())
                .topology(topology)
                .clients(hetero_jobs.clone())
                .policy(policy)
                .migrate_on_detach(false)
                .rebalance_every(SimSpan::from_millis(100))
                .monitor_window(SimSpan::from_millis(100))
                .systems_with(|_| make_system("tally"))
                .transport(tally_core::api::Transport::SharedMemory)
                .config(hetero_cfg.clone()),
        )
        .run()
    };
    let victim_p99 = |report: &ClusterReport| -> SimSpan {
        report
            .clients
            .iter()
            .find(|c| c.key == "expert-cache")
            .and_then(|c| c.report.latency.p99())
            .expect("the expert-cache service must serve requests")
    };
    let cross_node = || Topology::new(2).link(0, 1, Link::node_cross());
    println!(
        "{:<18}{:<12}{:>14}{:>12}{:>14}",
        "policy", "topology", "victim p99", "migrations", "total stall"
    );
    let mut results = Vec::new();
    for (label, policy, topology) in [
        ("blind", LoadAware::topology_blind(), cross_node()),
        ("cost-aware", LoadAware::default(), cross_node()),
        (
            "cost-aware",
            LoadAware::default(),
            Topology::new(2).link(0, 1, Link::nvlink()),
        ),
    ] {
        let topo_label = if matches!(topology.path_bandwidth(0, 1), Some(bw) if bw > 100.0) {
            "nvlink"
        } else {
            "cross-node"
        };
        let report = run_hetero(policy, topology);
        let p99 = victim_p99(&report);
        println!(
            "{label:<18}{topo_label:<12}{:>14}{:>12}{:>14}",
            ms(p99),
            report.migrations,
            ms(report.migration_stall)
        );
        let tags = [("policy", label), ("topology", topo_label), ("gpus", "2")];
        sink.record("hetero_victim_p99_ms", p99.as_millis_f64(), &tags);
        sink.record("hetero_migrations", report.migrations as f64, &tags);
        sink.record(
            "hetero_migration_stall_ms",
            report.migration_stall.as_millis_f64(),
            &tags,
        );
        results.push((label, topo_label, p99, report));
    }
    let (_, _, blind_p99, blind) = &results[0];
    let (_, _, cost_p99, cost) = &results[1];
    let (_, _, _, nvlink) = &results[2];
    assert!(
        blind.migrations >= 2,
        "the blind policy must thrash the expert cache across the slow link, got {} migrations",
        blind.migrations
    );
    assert!(
        cost.migration_stall < blind.migration_stall,
        "cost-aware must pay less total stall ({:?} vs {:?})",
        cost.migration_stall,
        blind.migration_stall
    );
    assert!(
        *cost_p99 < *blind_p99,
        "cost-aware must beat the blind policy on the victim's p99 ({:?} vs {:?})",
        cost_p99,
        blind_p99
    );
    assert!(
        nvlink.migrations >= 2,
        "over NVLink the same transfers amortize, so cost-aware must migrate again (got {})",
        nvlink.migrations
    );
    println!(
        "blind p99 / cost-aware p99 = {:.2}   \
         [expected: > 1 — each thrash stalls the 7 GB cache 560 ms mid-queue]",
        blind_p99.ratio(*cost_p99)
    );
    sink.record(
        "hetero_blind_over_cost_p99",
        blind_p99.ratio(*cost_p99),
        &[("mix", "hetero-nodes")],
    );
    sink.finish();
}
