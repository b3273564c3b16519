//! Timing decorators over the public layer traits. Each forwards every
//! call unchanged and records a span around it, so a traced run must
//! produce exactly the untraced run's simulated report.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use tally_core::admission::{AdmissionPolicy, AdmissionVerdict};
use tally_core::cluster::{DeviceLoad, PlacementPolicy};
use tally_core::events::{Observation, SessionObserver, SharedObserver, SharedSyncObserver};
use tally_core::harness::JobSpec;
use tally_core::system::{Ctx, SharingSystem};
use tally_gpu::{ClientId, EngineStats, KernelDesc, Notification, SimTime};

use crate::stats;
use crate::trace::{self, EngineSeen, Layer, SpanCost, Tracer};

/// A [`SharingSystem`] that times every hook and reads the engine's
/// counters through [`Ctx`] after each one.
struct TracedSystem {
    inner: Box<dyn SharingSystem>,
    device: u32,
    engine: usize,
}

/// Wraps a sharing system running on `device` when tracing, or passes
/// it through.
pub fn system(
    inner: Box<dyn SharingSystem>,
    device: usize,
    traced: bool,
) -> Box<dyn SharingSystem> {
    if !traced {
        return inner;
    }
    let mut engine = 0;
    trace::count(|c| {
        engine = c.engines.len();
        c.engines.push(EngineSeen::default());
    });
    Box::new(TracedSystem {
        inner,
        device: device as u32,
        engine,
    })
}

impl TracedSystem {
    fn enter(&self, op: &'static str, client: Option<ClientId>) {
        trace::enter(Layer::System, op, Some(self.device), client.map(|c| c.0));
    }

    /// Closes the hook's span, then samples the engine outside it.
    fn exit(&self, ctx: &Ctx<'_>) {
        trace::exit();
        note_engine(self.engine, ctx.engine.stats());
    }
}

/// Records what traced system `engine` last saw of its engine.
fn note_engine(engine: usize, s: EngineStats) {
    trace::count(|c| {
        let e = &mut c.engines[engine];
        e.submitted = s.submitted;
        e.completed = s.completed;
        e.preempted = s.preempted;
        e.groups = s.groups;
        let active = s.submitted - s.completed - s.preempted;
        e.active_max = e.active_max.max(active);
    });
}

/// Empty hook spans per batch of [`span_cost`].
const PROBE_SPANS: u64 = 100_000;
/// Batches of [`span_cost`]; it reports their median.
const PROBE_BATCHES: usize = 5;

/// Measures what the recorder adds to a system hook: empty hook spans,
/// each followed by the engine sample [`TracedSystem`] takes, inside one
/// session span of a throw-away recorder that keeps no span whole, as a
/// long run's recorder soon does. The empty spans' self time is the cost
/// counted inside a span, the session's self time the cost counted in
/// the parent. The other decorators do no more per call. Call it while
/// no recorder is installed.
pub fn span_cost() -> SpanCost {
    let (mut inner, mut outer) = (Vec::new(), Vec::new());
    for _ in 0..PROBE_BATCHES {
        let mut probe = Tracer::keeping(0);
        probe.counts.engines.push(EngineSeen::default());
        trace::install(probe);
        trace::enter(Layer::Session, "probe", Some(0), None);
        for _ in 0..PROBE_SPANS {
            trace::enter(Layer::System, "probe", Some(0), Some(0));
            trace::exit();
            note_engine(0, std::hint::black_box(EngineStats::default()));
        }
        trace::exit();
        let t = trace::uninstall().expect("probe installed");
        let per_span = |l: Layer| t.totals(l).self_ns as f64 / PROBE_SPANS as f64;
        inner.push(per_span(Layer::System));
        outer.push(per_span(Layer::Session));
    }
    SpanCost {
        inner_ns: stats::median(&inner),
        outer_ns: stats::median(&outer),
    }
}

impl SharingSystem for TracedSystem {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_kernel_ready(&mut self, ctx: &mut Ctx<'_>, client: ClientId, kernel: Arc<KernelDesc>) {
        self.enter("on_kernel_ready", Some(client));
        self.inner.on_kernel_ready(ctx, client, kernel);
        self.exit(ctx);
    }

    fn on_notification(&mut self, ctx: &mut Ctx<'_>, note: &Notification) {
        let client = match *note {
            Notification::Completed { client, .. } | Notification::Preempted { client, .. } => {
                Some(client)
            }
        };
        trace::count(|c| c.notifications += 1);
        self.enter("on_notification", client);
        self.inner.on_notification(ctx, note);
        self.exit(ctx);
    }

    fn poll(&mut self, ctx: &mut Ctx<'_>) {
        self.enter("poll", None);
        self.inner.poll(ctx);
        self.exit(ctx);
    }

    fn next_timer(&self) -> Option<SimTime> {
        self.enter("next_timer", None);
        let t = self.inner.next_timer();
        trace::exit();
        t
    }

    fn on_client_attach(&mut self, ctx: &mut Ctx<'_>, client: ClientId) {
        self.enter("on_client_attach", Some(client));
        self.inner.on_client_attach(ctx, client);
        self.exit(ctx);
    }

    fn on_client_detach(&mut self, ctx: &mut Ctx<'_>, client: ClientId) {
        self.enter("on_client_detach", Some(client));
        self.inner.on_client_detach(ctx, client);
        self.exit(ctx);
    }
}

/// An [`AdmissionPolicy`] that times every call and tallies verdicts.
struct TracedAdmission {
    inner: Box<dyn AdmissionPolicy>,
    device: u32,
}

/// Wraps an admission policy installed on `device` when tracing, or
/// passes it through.
pub fn admission(
    inner: Box<dyn AdmissionPolicy>,
    device: usize,
    traced: bool,
) -> Box<dyn AdmissionPolicy> {
    if !traced {
        return inner;
    }
    Box::new(TracedAdmission {
        inner,
        device: device as u32,
    })
}

impl AdmissionPolicy for TracedAdmission {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_event(&mut self, at: SimTime, device: usize, event: &Observation) {
        trace::span(
            Layer::Admission,
            "on_event",
            Some(self.device),
            None,
            || self.inner.on_event(at, device, event),
        );
    }

    fn admit(&mut self, now: SimTime, client: ClientId, queue_depth: usize) -> AdmissionVerdict {
        let verdict = trace::span(
            Layer::Admission,
            "admit",
            Some(self.device),
            Some(client.0),
            || self.inner.admit(now, client, queue_depth),
        );
        let shed = matches!(verdict, AdmissionVerdict::Shed);
        trace::count(|c| {
            c.admits += 1;
            c.sheds += u64::from(shed);
        });
        verdict
    }
}

/// A [`PlacementPolicy`] that times every call.
struct TracedPolicy {
    inner: Box<dyn PlacementPolicy>,
}

/// Wraps a placement policy when tracing, or passes it through.
pub fn policy(inner: Box<dyn PlacementPolicy>, traced: bool) -> Box<dyn PlacementPolicy> {
    if traced {
        Box::new(TracedPolicy { inner })
    } else {
        inner
    }
}

impl PlacementPolicy for TracedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn place(&mut self, job: &JobSpec, devices: &[DeviceLoad]) -> usize {
        trace::count(|c| c.places += 1);
        trace::span(Layer::Policy, "place", None, None, || {
            self.inner.place(job, devices)
        })
    }

    fn migrate(&mut self, job: &JobSpec, from: usize, devices: &[DeviceLoad]) -> Option<usize> {
        trace::count(|c| c.migrate_calls += 1);
        trace::span(Layer::Policy, "migrate", Some(from as u32), None, || {
            self.inner.migrate(job, from, devices)
        })
    }
}

/// Times deliveries to an `Rc`-shared observer. Every observer of a
/// session receives every event, so only the first one counts events.
struct TracedObserver {
    inner: SharedObserver,
    counts_events: bool,
}

impl SessionObserver for TracedObserver {
    fn on_event(&mut self, at: SimTime, device: usize, event: &Observation) {
        if self.counts_events {
            trace::count(|c| c.observations += 1);
        }
        trace::span(
            Layer::Observers,
            "on_event",
            Some(device as u32),
            None,
            || self.inner.borrow_mut().on_event(at, device, event),
        );
    }
}

/// Times deliveries to a thread-safe observer.
struct TracedSyncObserver {
    inner: SharedSyncObserver,
}

impl SessionObserver for TracedSyncObserver {
    fn on_event(&mut self, at: SimTime, device: usize, event: &Observation) {
        trace::count(|c| c.observations += 1);
        trace::span(
            Layer::Observers,
            "on_event",
            Some(device as u32),
            None,
            || {
                self.inner
                    .lock()
                    .expect("observer poisoned")
                    .on_event(at, device, event)
            },
        );
    }
}

/// Wraps a session's `Rc` observers when tracing, or passes them
/// through. The first wrapper counts the events delivered.
pub fn observers(inner: Vec<SharedObserver>, traced: bool) -> Vec<SharedObserver> {
    if !traced {
        return inner;
    }
    inner
        .into_iter()
        .enumerate()
        .map(|(i, inner)| {
            let traced: SharedObserver = Rc::new(RefCell::new(TracedObserver {
                inner,
                counts_events: i == 0,
            }));
            traced
        })
        .collect()
}

/// Wraps a thread-safe observer when tracing, or passes it through.
pub fn sync_observer(inner: SharedSyncObserver, traced: bool) -> SharedSyncObserver {
    if traced {
        Arc::new(Mutex::new(TracedSyncObserver { inner }))
    } else {
        inner
    }
}
