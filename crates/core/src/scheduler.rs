//! Tally's priority-aware scheduler (paper §4.2, Figure 4).
//!
//! The algorithm is opportunistic and strictly priority-enforcing:
//!
//! * a high-priority kernel is dispatched **immediately** on arrival, in
//!   its original form, after preempting any running best-effort launches
//!   (the engine's priority dispatch then hands freed SM resources to the
//!   high-priority blocks first);
//! * best-effort kernels execute **only while no high-priority kernel is
//!   in the system**, and always in a controlled shape — either slice by
//!   slice or as a preemptible PTB launch — chosen by the transparent
//!   profiler so the estimated turnaround latency stays within the
//!   configured bound;
//! * the first executions of each best-effort kernel double as profiling
//!   runs over the candidate configurations; preempted runs are discarded,
//!   completed ones recorded, and once all candidates are measured the
//!   winner is locked in for the rest of the job.

use std::sync::Arc;

use tally_gpu::{
    ClientId, KernelDesc, LaunchId, LaunchRequest, LaunchShape, Notification, Priority, SimSpan,
    SimTime,
};

use crate::profiler::{
    candidate_configs, LaunchCfg, ProfilerConfig, ProfilerStats, TransparentProfiler,
};
use crate::system::{Ctx, SharingSystem};
use crate::transform::{KernelTransformer, TransformConfig, TransformPlan, TransformStats};

/// Tally's configuration.
///
/// Client→server API forwarding cost is no longer configured here: it is
/// modeled by the session's per-client interception stubs
/// ([`Colocation::transport`](crate::harness::Colocation::transport)).
#[derive(Clone, Debug, Default)]
pub struct TallyConfig {
    /// Profiler / turnaround-threshold settings.
    pub profiler: ProfilerConfig,
    /// Kernel transformer settings.
    pub transform: TransformConfig,
}

impl TallyConfig {
    /// The paper's default configuration (0.0316 ms turnaround bound).
    pub fn paper_default() -> Self {
        Self::default()
    }

    /// Sets the turnaround-latency threshold (the Figure 7c sweep knob).
    pub fn with_turnaround_bound(mut self, bound: SimSpan) -> Self {
        self.profiler.turnaround_bound = bound;
        self
    }
}

#[derive(Clone, Debug)]
struct RunningLaunch {
    id: LaunchId,
    cfg: Option<LaunchCfg>,
    /// Tasks this launch was asked to execute.
    tasks: u64,
    submitted: SimTime,
}

#[derive(Debug)]
struct BeTask {
    plan: TransformPlan,
    total: u64,
    progress: u64,
    running: Option<RunningLaunch>,
}

/// The best-effort task of `client` in the dense table, if it has one.
/// A free function so callers can keep using the scheduler's other fields.
fn be_task(be: &mut [Option<BeTask>], client: ClientId) -> Option<&mut BeTask> {
    be.get_mut(client.0 as usize)?.as_mut()
}

/// The Tally sharing system. Construct with [`TallySystem::new`] and hand
/// to a [`Colocation`](crate::harness::Colocation) session.
///
/// ```
/// use tally_core::scheduler::{TallyConfig, TallySystem};
///
/// let tally = TallySystem::new(TallyConfig::paper_default());
/// assert_eq!(tally.config().profiler.turnaround_bound.as_micros_f64(), 31.6);
/// ```
#[derive(Debug)]
pub struct TallySystem {
    cfg: TallyConfig,
    transformer: KernelTransformer,
    profiler: TransparentProfiler,
    /// In-flight high-priority launches in submission order. Launch ids
    /// are monotone, so pushing keeps the vector sorted by id.
    hp_inflight: Vec<(LaunchId, ClientId)>,
    hp_active: u32,
    /// Best-effort tasks indexed by `ClientId.0`. Client ids are dense
    /// session slot indices, so walking the table visits clients in id
    /// order — which keeps launch order, and so the whole simulation,
    /// deterministic across runs.
    be: Vec<Option<BeTask>>,
    preemptions_issued: u64,
}

impl TallySystem {
    /// A Tally instance with the given configuration.
    pub fn new(cfg: TallyConfig) -> Self {
        let transformer = KernelTransformer::new(cfg.transform.clone());
        TallySystem {
            cfg,
            transformer,
            profiler: TransparentProfiler::new(),
            hp_inflight: Vec::new(),
            hp_active: 0,
            be: Vec::new(),
            preemptions_issued: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &TallyConfig {
        &self.cfg
    }

    /// Profiler counters (for the §5.7 overhead analysis).
    pub fn profiler_stats(&self) -> ProfilerStats {
        self.profiler.stats()
    }

    /// Transformer counters.
    pub fn transform_stats(&self) -> TransformStats {
        self.transformer.stats()
    }

    /// Best-effort preemptions issued so far.
    pub fn preemptions(&self) -> u64 {
        self.preemptions_issued
    }

    fn preempt_best_effort(&mut self, ctx: &mut Ctx<'_>) {
        for task in self.be.iter().flatten() {
            if let Some(run) = &task.running {
                if ctx.engine.preempt(run.id) {
                    self.preemptions_issued += 1;
                }
                // The Preempted notification will clear `running` and
                // roll progress forward.
            }
        }
    }

    /// Retires `client`'s best-effort task, returning it.
    fn remove_be(&mut self, client: ClientId) -> Option<BeTask> {
        self.be.get_mut(client.0 as usize)?.take()
    }

    /// Submits the next launch of an idle best-effort `task`.
    ///
    /// The profiler is consulted first: once a kernel's configuration is
    /// locked in, the launch costs one lookup and no candidate generation.
    /// Only while the kernel is still being profiled are the candidates
    /// built, and then this launch doubles as a profiling run of the next
    /// unmeasured one. Takes the profiler and its settings rather than
    /// `self` so `poll` can walk the task table in place.
    fn launch_be(
        profiler: &mut TransparentProfiler,
        settings: &ProfilerConfig,
        ctx: &mut Ctx<'_>,
        client: ClientId,
        task: &mut BeTask,
    ) {
        if task.progress >= task.total {
            return;
        }
        let kernel = Arc::clone(task.plan.kernel());
        let remaining = task.total - task.progress;

        let (shape, cfg, tasks) = match &task.plan {
            TransformPlan::KernelLevelOnly { .. } => {
                // Cooperative kernels: whole-kernel launches only (§6).
                (LaunchShape::Full, None, remaining)
            }
            TransformPlan::BlockLevel {
                ptb_overhead_ppm, ..
            } => {
                let cfg = profiler.chosen(&kernel).unwrap_or_else(|| {
                    let candidates = candidate_configs(settings, ctx.engine.spec(), &kernel);
                    profiler
                        .finalize(settings, &candidates, &kernel)
                        .or_else(|| profiler.next_unmeasured(settings, &candidates, &kernel))
                        .unwrap_or(candidates[0])
                });
                match cfg {
                    LaunchCfg::Slice { blocks } => {
                        let count = blocks.min(remaining);
                        (
                            LaunchShape::Slice {
                                offset: task.progress,
                                count,
                            },
                            Some(cfg),
                            count,
                        )
                    }
                    LaunchCfg::Ptb { workers } => (
                        LaunchShape::Ptb {
                            workers: (workers as u64).min(remaining) as u32,
                            offset: task.progress,
                            overhead_ppm: *ptb_overhead_ppm,
                        },
                        Some(cfg),
                        remaining,
                    ),
                }
            }
        };

        let submitted = ctx.engine.now();
        let id = ctx.engine.submit(LaunchRequest {
            kernel,
            shape,
            client,
            priority: Priority::BestEffort,
        });
        task.running = Some(RunningLaunch {
            id,
            cfg,
            tasks,
            submitted,
        });
    }
}

impl SharingSystem for TallySystem {
    fn name(&self) -> &str {
        "tally"
    }

    fn on_kernel_ready(&mut self, ctx: &mut Ctx<'_>, client: ClientId, kernel: Arc<KernelDesc>) {
        if ctx.priority(client).is_high() {
            // Figure 4, lines 14–20: preempt best-effort work and dispatch
            // the high-priority kernel at once, untransformed.
            self.preempt_best_effort(ctx);
            let id = ctx
                .engine
                .submit(LaunchRequest::full(kernel, client, Priority::High));
            self.hp_inflight.push((id, client));
            self.hp_active += 1;
        } else {
            let plan = self.transformer.plan(&kernel);
            let total = plan.kernel().grid.count();
            let slot = client.0 as usize;
            if self.be.len() <= slot {
                self.be.resize_with(slot + 1, || None);
            }
            self.be[slot] = Some(BeTask {
                plan,
                total,
                progress: 0,
                running: None,
            });
            // Actual scheduling happens in `poll`, where high-priority
            // activity is known.
        }
    }

    fn on_notification(&mut self, ctx: &mut Ctx<'_>, note: &Notification) {
        match *note {
            Notification::Completed { id, client, at } => {
                if let Ok(i) = self.hp_inflight.binary_search_by_key(&id, |&(id, _)| id) {
                    let (_, c) = self.hp_inflight.remove(i);
                    debug_assert_eq!(c, client);
                    self.hp_active -= 1;
                    ctx.complete_kernel(client);
                    return;
                }
                let Some(task) = be_task(&mut self.be, client) else {
                    return;
                };
                let Some(run) = task.running.take() else {
                    return;
                };
                debug_assert_eq!(run.id, id);
                task.progress += run.tasks;
                if let Some(cfg) = run.cfg {
                    // A completed launch is a valid measurement; record it
                    // whether or not it was launched for profiling, but
                    // only full-size slices (tail slices bias turnaround).
                    let full_size = match cfg {
                        LaunchCfg::Slice { blocks } => run.tasks == blocks,
                        LaunchCfg::Ptb { .. } => true,
                    };
                    if full_size {
                        self.profiler.record(
                            task.plan.kernel(),
                            cfg,
                            run.tasks,
                            at.saturating_since(run.submitted),
                        );
                    }
                }
                if task.progress >= task.total {
                    self.remove_be(client);
                    ctx.complete_kernel(client);
                }
            }
            Notification::Preempted {
                id,
                client,
                done_upto,
                at,
                ..
            } => {
                if let Some(task) = be_task(&mut self.be, client) {
                    if task.running.as_ref().is_some_and(|r| r.id == id) {
                        let run = task.running.take().expect("checked above");
                        let executed = done_upto.saturating_sub(task.progress);
                        // A preempted PTB run that completed at least one
                        // full round is still a valid measurement — without
                        // this, a slow candidate that never fits between
                        // high-priority bursts would be retried forever.
                        if let Some(cfg @ LaunchCfg::Ptb { workers }) = run.cfg {
                            if executed >= workers as u64 {
                                self.profiler.record(
                                    task.plan.kernel(),
                                    cfg,
                                    executed,
                                    at.saturating_since(run.submitted),
                                );
                            }
                        }
                        // `done_upto` is in original-grid task space.
                        task.progress = done_upto.max(task.progress);
                        if task.progress >= task.total {
                            self.remove_be(client);
                            ctx.complete_kernel(client);
                        }
                    }
                }
            }
        }
    }

    fn poll(&mut self, ctx: &mut Ctx<'_>) {
        // Figure 4, lines 21–33: best-effort work runs only while the
        // high-priority side is inactive.
        if self.hp_active > 0 {
            return;
        }
        // Walk the table in place, in client-id order: that order is the
        // submission order, and so the engine's dispatch order.
        for (slot, task) in self.be.iter_mut().enumerate() {
            if let Some(task) = task.as_mut().filter(|t| t.running.is_none()) {
                let client = ClientId(slot as u32);
                Self::launch_be(&mut self.profiler, &self.cfg.profiler, ctx, client, task);
            }
        }
    }

    fn on_client_detach(&mut self, ctx: &mut Ctx<'_>, client: ClientId) {
        // Reclaim the client's best-effort task (and free the GPU of its
        // running launch)…
        if let Some(task) = self.remove_be(client) {
            if let Some(run) = task.running {
                ctx.engine.preempt(run.id);
            }
        }
        // …and any in-flight high-priority kernels it still had.
        self.hp_inflight.retain(|&(id, c)| {
            if c == client {
                self.hp_active -= 1;
                ctx.engine.preempt(id);
                false
            } else {
                true
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{Colocation, HarnessConfig, JobSpec, WorkloadOp};
    use crate::system::{ClientMeta, Passthrough};
    use tally_gpu::{Engine, GpuSpec, SimSpan, SimTime, Step};

    fn run(
        spec: &GpuSpec,
        jobs: &[JobSpec],
        system: &mut dyn crate::system::SharingSystem,
        cfg: &HarnessConfig,
    ) -> crate::metrics::RunReport {
        Colocation::on(spec.clone())
            .clients(jobs.iter().cloned())
            .system(system)
            .config(cfg.clone())
            .run()
    }

    /// An inference service whose requests run `kernels` sequential kernels
    /// of `kernel_us` each — the realistic shape (BERT ≈ 80 kernels over
    /// 3.93 ms), where the one-off turnaround wait amortizes per request.
    fn inference_job(kernel_us: u64, kernels: usize, period_ms: u64, n: u64) -> JobSpec {
        let k = KernelDesc::builder("hp_kernel")
            .grid(432)
            .block(256)
            .block_cost(SimSpan::from_micros(kernel_us))
            .mem_intensity(0.5)
            .build_arc();
        JobSpec::inference(
            "hp",
            vec![WorkloadOp::Kernel(k); kernels],
            (0..n)
                .map(|i| SimTime::from_millis(period_ms * i))
                .collect(),
        )
    }

    /// A long-kernel trainer: 40 waves of 200us blocks per kernel ≈ 8ms.
    fn long_kernel_trainer() -> JobSpec {
        let k = KernelDesc::builder("be_long")
            .grid(864 * 40)
            .block(256)
            .block_cost(SimSpan::from_micros(200))
            .mem_intensity(0.7)
            .build_arc();
        JobSpec::training("be", vec![WorkloadOp::Kernel(k)])
    }

    fn cfg(secs: u64) -> HarnessConfig {
        HarnessConfig {
            duration: SimSpan::from_secs(secs),
            warmup: SimSpan::from_millis(500),
            seed: 0,
            jitter: 0.0,
            record_timelines: false,
        }
    }

    #[test]
    fn tally_isolates_hp_latency_against_long_kernels() {
        let spec = GpuSpec::a100();
        let jobs = [inference_job(50, 20, 5, 1000), long_kernel_trainer()];

        let solo = {
            let job = jobs[0].clone();
            crate::harness::run_solo(&spec, &job, &cfg(5))
        };
        let solo_p99 = solo.p99().expect("solo latencies");

        let mut tally = TallySystem::new(TallyConfig::paper_default());
        let shared = run(&spec, &jobs, &mut tally, &cfg(5));
        let hp = shared.high_priority().expect("hp client");
        let p99 = hp.p99().expect("latencies recorded");
        let overhead = p99.as_secs_f64() / solo_p99.as_secs_f64() - 1.0;
        assert!(
            overhead < 0.40,
            "tally overhead vs ideal too high: p99 {p99} vs solo {solo_p99} ({:.0}%)",
            overhead * 100.0
        );

        // And the trainer still makes progress.
        let be = shared.best_effort().next().expect("be client");
        assert!(be.throughput > 0.0, "best-effort starved completely");
        assert!(tally.preemptions() > 0, "long kernels must get preempted");
    }

    #[test]
    fn tally_throughput_beats_strict_serialization() {
        // With a mostly-idle hp task, the trainer should get a large share.
        let spec = GpuSpec::a100();
        let jobs = [inference_job(50, 20, 50, 100), long_kernel_trainer()];
        let solo_be = crate::harness::run_solo(&spec, &jobs[1], &cfg(5));
        let mut tally = TallySystem::new(TallyConfig::paper_default());
        let shared = run(&spec, &jobs, &mut tally, &cfg(5));
        let be = shared.best_effort().next().expect("be");
        let share = be.throughput / solo_be.throughput;
        assert!(
            share > 0.5,
            "best-effort should keep >50% of solo throughput at ~10% load, got {share:.2}"
        );
    }

    #[test]
    fn no_scheduling_baseline_suffers_queuing() {
        // Sanity that the experimental contrast exists: under Passthrough
        // (eager dispatch), hp latency degrades much more than under Tally.
        let spec = GpuSpec::a100();
        let jobs = [inference_job(50, 20, 5, 1000), long_kernel_trainer()];
        let mut naive = Passthrough::new();
        let naive_rep = run(&spec, &jobs, &mut naive, &cfg(5));
        let mut tally = TallySystem::new(TallyConfig::paper_default());
        let tally_rep = run(&spec, &jobs, &mut tally, &cfg(5));
        let naive_p99 = naive_rep.high_priority().unwrap().p99().unwrap();
        let tally_p99 = tally_rep.high_priority().unwrap().p99().unwrap();
        assert!(
            naive_p99 > tally_p99 * 3,
            "expected >=3x contrast, got naive {naive_p99} vs tally {tally_p99}"
        );
    }

    #[test]
    fn cooperative_kernels_fall_back_to_kernel_level() {
        let spec = GpuSpec::a100();
        let coop = KernelDesc::builder("coop")
            .grid(864)
            .block(256)
            .block_cost(SimSpan::from_micros(100))
            .origin(tally_gpu::KernelOrigin::Cooperative)
            .build_arc();
        let be = JobSpec::training("coop-train", vec![WorkloadOp::Kernel(coop)]);
        let hp = inference_job(50, 10, 10, 300);
        let mut tally = TallySystem::new(TallyConfig::paper_default());
        let rep = run(&spec, &[hp, be], &mut tally, &cfg(4));
        assert!(rep.best_effort().next().unwrap().iterations > 0);
        assert_eq!(tally.transform_stats().kernel_level_only, 1);
    }

    #[test]
    fn turnaround_bound_is_configurable() {
        let cfg = TallyConfig::paper_default().with_turnaround_bound(SimSpan::from_millis(10));
        assert_eq!(cfg.profiler.turnaround_bound, SimSpan::from_millis(10));
    }

    fn best_effort_clients(n: usize) -> Vec<ClientMeta> {
        (0..n)
            .map(|i| ClientMeta {
                name: format!("be{i}"),
                priority: Priority::BestEffort,
                client_key: None,
            })
            .collect()
    }

    /// Runs the engine until it drains, delivering every notification to
    /// `tally`; returns the notifications and the kernel completions.
    fn drain(
        tally: &mut TallySystem,
        engine: &mut Engine,
        clients: &[ClientMeta],
    ) -> (Vec<Notification>, Vec<ClientId>) {
        let mut notes = Vec::new();
        let mut done = Vec::new();
        while let Step::Notified(batch) = engine.advance(SimTime::MAX) {
            let mut ctx = Ctx::new(engine, clients);
            for note in &batch {
                tally.on_notification(&mut ctx, note);
            }
            done.extend(ctx.take_completions());
            notes.extend(batch);
        }
        (notes, done)
    }

    #[test]
    fn poll_launches_best_effort_work_in_client_id_order() {
        let k = KernelDesc::builder("be_small")
            .grid(864)
            .block(256)
            .block_cost(SimSpan::from_micros(20))
            .build_arc();
        // Ids 0, 2 and 3 are best-effort and id 1 stays unused; the
        // kernels become ready out of id order.
        let clients = best_effort_clients(4);
        let mut engine = Engine::new(GpuSpec::a100());
        let mut tally = TallySystem::new(TallyConfig::paper_default());
        let mut ctx = Ctx::new(&mut engine, &clients);
        for c in [3, 0, 2] {
            tally.on_kernel_ready(&mut ctx, ClientId(c), Arc::clone(&k));
        }
        tally.poll(&mut ctx);
        let (notes, _) = drain(&mut tally, &mut engine, &clients);
        let mut launches: Vec<(LaunchId, ClientId)> =
            notes.iter().map(|n| (n.launch(), n.client())).collect();
        launches.sort();
        let order: Vec<ClientId> = launches.iter().map(|&(_, c)| c).collect();
        assert_eq!(order, [ClientId(0), ClientId(2), ClientId(3)]);
    }

    /// One best-effort launch of `k` by client 0: issues the kernel if the
    /// client has none, polls once and runs the launch to completion.
    /// Returns whether it was a full-size launch of a profiled config.
    fn launch_once(
        tally: &mut TallySystem,
        engine: &mut Engine,
        clients: &[ClientMeta],
        k: &Arc<KernelDesc>,
    ) -> bool {
        let mut ctx = Ctx::new(engine, clients);
        if tally.be.first().is_none_or(Option::is_none) {
            tally.on_kernel_ready(&mut ctx, ClientId(0), Arc::clone(k));
        }
        tally.poll(&mut ctx);
        let run = tally.be[0]
            .as_ref()
            .and_then(|t| t.running.clone())
            .expect("poll launched the idle task");
        let (notes, _) = drain(tally, engine, clients);
        assert!(notes
            .iter()
            .any(|n| matches!(*n, Notification::Completed { id, .. } if id == run.id)));
        match run.cfg {
            Some(LaunchCfg::Slice { blocks }) => run.tasks == blocks,
            Some(LaunchCfg::Ptb { .. }) => true,
            None => false,
        }
    }

    #[test]
    fn locked_in_launches_skip_candidate_generation() {
        let k = KernelDesc::builder("be_profiled")
            .grid(864 * 4)
            .block(256)
            .block_cost(SimSpan::from_micros(20))
            .build_arc();
        let clients = best_effort_clients(1);
        let mut engine = Engine::new(GpuSpec::a100());
        let mut tally = TallySystem::new(TallyConfig::paper_default());
        // Profile until the first launch answered from the cache.
        let mut launches = 0;
        while tally.profiler_stats().cache_hits == 0 {
            launch_once(&mut tally, &mut engine, &clients, &k);
            launches += 1;
            assert!(launches < 64, "profiling never locked in");
        }
        let locked = tally.profiler_stats();
        assert_eq!(locked.profiles, 1);

        const N: u64 = 40;
        let mut full_size = 0;
        for _ in 0..N {
            full_size += u64::from(launch_once(&mut tally, &mut engine, &clients, &k));
        }
        let after = tally.profiler_stats();
        assert_eq!(after.cache_hits, locked.cache_hits + N);
        assert_eq!(after.profiles, 1);
        assert_eq!(after.measurements, locked.measurements + full_size);
        assert!(full_size > 0);
    }
}
