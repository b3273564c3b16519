//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed around the calls the benchmark makes into
//! each layer (see `layers.rs`). The recorder keeps, per layer, the span
//! count and the *self time*: a span's duration minus the durations of
//! the spans nested directly inside it. The first [`SPAN_CAP`] spans are
//! also kept whole (name, start, end, parent, device, client) and written
//! out when the run ends; later spans still count toward the totals.
//!
//! The recorder lives in a thread-local slot. Every workload pins one
//! worker thread, so every hook runs on the thread that installed it.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

use crate::host::{host_elapsed_ns, host_now};

/// Spans kept whole for the written trace (about 40 bytes each).
pub const SPAN_CAP: usize = 200_000;

/// The benchmark's layers, named after the repository's modules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// One whole traced repetition of a workload.
    Wall,
    /// One single-device session run (`Colocation::run`).
    Session,
    /// `tally_core::cluster::Cluster::run`.
    Cluster,
    /// A `SharingSystem` hook.
    System,
    /// An `AdmissionPolicy` call.
    Admission,
    /// A `SessionObserver` delivery.
    Observers,
    /// A `PlacementPolicy` call.
    Policy,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 7] = [
        Layer::Wall,
        Layer::Session,
        Layer::Cluster,
        Layer::System,
        Layer::Admission,
        Layer::Observers,
        Layer::Policy,
    ];

    /// Name used in the written trace.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Wall => "wall",
            Layer::Session => "session",
            Layer::Cluster => "cluster",
            Layer::System => "system",
            Layer::Admission => "admission",
            Layer::Observers => "observers",
            Layer::Policy => "policy",
        }
    }

    fn index(self) -> usize {
        self as usize
    }

    /// Whether a span of this layer may open directly inside `parent`
    /// (`None` = at the root). This is the nesting the accounting relies
    /// on: wall ⊃ session or cluster ⊃ system, admission, observers, and
    /// cluster ⊃ policy.
    pub fn may_nest_in(self, parent: Option<Layer>) -> bool {
        match self {
            Layer::Wall => parent.is_none(),
            Layer::Session | Layer::Cluster => parent == Some(Layer::Wall),
            Layer::System | Layer::Admission | Layer::Observers => {
                matches!(parent, Some(Layer::Session | Layer::Cluster))
            }
            Layer::Policy => parent == Some(Layer::Cluster),
        }
    }
}

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// The layer called.
    pub layer: Layer,
    /// The call, e.g. `poll` or `admit`.
    pub op: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns (0 while open).
    pub end: u64,
    /// Index of the enclosing span in the kept list.
    pub parent: Option<u32>,
    /// Device index, where the call has one.
    pub device: Option<u32>,
    /// Client id, where the call has one.
    pub client: Option<u32>,
}

/// Per-layer totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Spans closed.
    pub spans: u64,
    /// Sum of self times, ns.
    pub self_ns: u64,
}

/// What the recorder adds to the host time of one span, ns. `inner_ns`
/// falls between the span's clock reads and is counted in its own self
/// time; `outer_ns` falls around them and is counted in its parent's.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanCost {
    /// Cost counted inside the span.
    pub inner_ns: f64,
    /// Cost counted in the parent span.
    pub outer_ns: f64,
}

impl SpanCost {
    fn of(spans: u64, ns: f64) -> u64 {
        (spans as f64 * ns).round() as u64
    }

    /// The self time of `spans` spans, less the cost inside them.
    pub fn net_inner(&self, self_ns: u64, spans: u64) -> u64 {
        self_ns.saturating_sub(Self::of(spans, self.inner_ns))
    }

    /// The self time of a parent, less the cost around its `children`.
    pub fn net_outer(&self, self_ns: u64, children: u64) -> u64 {
        self_ns.saturating_sub(Self::of(children, self.outer_ns))
    }

    /// The whole cost of one span.
    pub fn per_span_ns(&self) -> f64 {
        self.inner_ns + self.outer_ns
    }
}

struct Frame {
    layer: Layer,
    start: u64,
    child_ns: u64,
    kept: Option<u32>,
}

/// The span recorder (see the module docs).
pub struct Tracer {
    epoch: Instant,
    keep: usize,
    spans: Vec<Span>,
    dropped: u64,
    stack: Vec<Frame>,
    totals: [LayerTotals; 7],
    /// Spans opened inside a layer they may not nest in.
    pub nesting_errors: u64,
    /// Spans whose children outlasted them (negative self time).
    pub negative_self: u64,
    /// Event counts taken at the same boundaries.
    pub counts: Counts,
}

/// Work counted at the layer boundaries.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// `SharingSystem::on_notification` calls.
    pub notifications: u64,
    /// `AdmissionPolicy::admit` calls.
    pub admits: u64,
    /// `admit` calls answered with a shed.
    pub sheds: u64,
    /// Events delivered to the benchmark's observers, each counted once
    /// however many observers receive it.
    pub observations: u64,
    /// `PlacementPolicy::place` calls.
    pub places: u64,
    /// `PlacementPolicy::migrate` calls.
    pub migrate_calls: u64,
    /// Engine counters last seen by each traced system, by instance.
    pub engines: Vec<EngineSeen>,
}

/// Engine counters as last seen through `Ctx` by one traced system.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineSeen {
    /// Launches submitted.
    pub submitted: u64,
    /// Launches completed.
    pub completed: u64,
    /// Launches preempted.
    pub preempted: u64,
    /// Wave/round events.
    pub groups: u64,
    /// Most launches active at once (submitted, not yet finished).
    pub active_max: u64,
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer::keeping(SPAN_CAP)
    }

    /// A recorder that keeps the first `keep` spans whole.
    pub fn keeping(keep: usize) -> Self {
        Tracer {
            epoch: host_now(),
            keep,
            spans: Vec::new(),
            dropped: 0,
            stack: Vec::new(),
            totals: [LayerTotals::default(); 7],
            nesting_errors: 0,
            negative_self: 0,
            counts: Counts::default(),
        }
    }

    fn now(&self) -> u64 {
        host_elapsed_ns(self.epoch)
    }

    /// Opens a span at `at` ns inside the innermost open one.
    pub fn begin_at(
        &mut self,
        at: u64,
        layer: Layer,
        op: &'static str,
        device: Option<u32>,
        client: Option<u32>,
    ) {
        let parent = self.stack.last();
        if !layer.may_nest_in(parent.map(|f| f.layer)) {
            self.nesting_errors += 1;
        }
        let kept = if self.spans.len() < self.keep {
            self.spans.push(Span {
                layer,
                op,
                start: at,
                end: 0,
                parent: parent.and_then(|f| f.kept),
                device,
                client,
            });
            Some((self.spans.len() - 1) as u32)
        } else {
            self.dropped += 1;
            None
        };
        self.stack.push(Frame {
            layer,
            start: at,
            child_ns: 0,
            kept,
        });
    }

    /// Closes the innermost open span at `at` ns.
    ///
    /// # Panics
    ///
    /// Panics when no span is open.
    pub fn end_at(&mut self, at: u64) {
        let frame = self.stack.pop().expect("a span is open");
        let dur = at.saturating_sub(frame.start);
        let self_ns = match dur.checked_sub(frame.child_ns) {
            Some(s) => s,
            None => {
                self.negative_self += 1;
                0
            }
        };
        let t = &mut self.totals[frame.layer.index()];
        t.spans += 1;
        t.self_ns += self_ns;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(i) = frame.kept {
            self.spans[i as usize].end = at;
        }
    }

    /// Totals of `layer`.
    pub fn totals(&self, layer: Layer) -> LayerTotals {
        self.totals[layer.index()]
    }

    /// Whether every span was closed.
    pub fn balanced(&self) -> bool {
        self.stack.is_empty()
    }

    /// The kept spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans not kept whole because the cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The kept spans as CSV, one per line.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("id,parent,layer,op,start_ns,end_ns,device,client\n");
        let opt = |v: Option<u32>| v.map_or(String::new(), |v| v.to_string());
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{i},{},{},{},{},{},{},{}",
                opt(s.parent),
                s.layer.name(),
                s.op,
                s.start,
                s.end,
                opt(s.device),
                opt(s.client)
            );
        }
        out
    }
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts recording on this thread.
pub fn install(tracer: Tracer) {
    TRACER.with(|t| *t.borrow_mut() = Some(tracer));
}

/// Stops recording on this thread and returns the recorder.
pub fn uninstall() -> Option<Tracer> {
    TRACER.with(|t| t.borrow_mut().take())
}

/// Opens a span on this thread's recorder, if one is installed.
pub fn enter(layer: Layer, op: &'static str, device: Option<u32>, client: Option<u32>) {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            let at = t.now();
            t.begin_at(at, layer, op, device, client);
        }
    });
}

/// Closes the innermost span on this thread's recorder.
pub fn exit() {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            let at = t.now();
            t.end_at(at);
        }
    });
}

/// Runs `f` inside a span.
pub fn span<R>(
    layer: Layer,
    op: &'static str,
    device: Option<u32>,
    client: Option<u32>,
    f: impl FnOnce() -> R,
) -> R {
    enter(layer, op, device, client);
    let r = f();
    exit();
    r
}

/// Updates the counts on this thread's recorder.
pub fn count(f: impl FnOnce(&mut Counts)) {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            f(&mut t.counts);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new();
        // wall 0..100 ⊃ session 10..90 ⊃ system 20..50, observers 60..70.
        t.begin_at(0, Layer::Wall, "rep", None, None);
        t.begin_at(10, Layer::Session, "settle", Some(0), None);
        t.begin_at(20, Layer::System, "poll", Some(0), None);
        t.end_at(50);
        t.begin_at(60, Layer::Observers, "on_event", Some(0), None);
        t.end_at(70);
        t.end_at(90);
        t.end_at(100);
        assert!(t.balanced());
        assert_eq!(t.totals(Layer::System).self_ns, 30);
        assert_eq!(t.totals(Layer::Observers).self_ns, 10);
        // 80 ns of session minus its two children (30 + 10).
        assert_eq!(t.totals(Layer::Session).self_ns, 40);
        // 100 ns of wall minus the 80 ns session span — not minus the
        // grandchildren a second time.
        assert_eq!(t.totals(Layer::Wall).self_ns, 20);
        let sum: u64 = Layer::ALL.iter().map(|&l| t.totals(l).self_ns).sum();
        assert_eq!(sum, 100, "self times partition the wall span");
        assert_eq!(t.nesting_errors, 0);
        assert_eq!(t.negative_self, 0);
    }

    #[test]
    fn net_times_drop_the_tracer_cost_where_it_was_counted() {
        // Two 10 ns hooks inside a session doing 56 ns of its own work, each span costing 2 ns inside and 3 ns around it.
        let mut t = Tracer::new();
        t.begin_at(0, Layer::Session, "run", None, None);
        t.begin_at(28, Layer::System, "poll", None, None);
        t.end_at(40);
        t.begin_at(68, Layer::System, "poll", None, None);
        t.end_at(80);
        t.end_at(86);
        let cost = SpanCost {
            inner_ns: 2.0,
            outer_ns: 3.0,
        };
        let system = t.totals(Layer::System);
        let session = t.totals(Layer::Session);
        assert_eq!(cost.net_inner(system.self_ns, system.spans), 20);
        assert_eq!(cost.net_outer(session.self_ns, system.spans), 56);
        assert_eq!(
            20.0 + 56.0 + system.spans as f64 * cost.per_span_ns(),
            86.0,
            "net times plus the tracer's cost make up the run"
        );
        // An estimate larger than the time measured never goes negative.
        assert_eq!(cost.net_inner(3, 2), 0);
    }

    #[test]
    fn spans_record_parent_device_and_client() {
        let mut t = Tracer::new();
        t.begin_at(0, Layer::Wall, "rep", None, None);
        t.begin_at(1, Layer::Cluster, "run", None, None);
        t.begin_at(2, Layer::Policy, "place", None, None);
        t.end_at(3);
        t.begin_at(4, Layer::System, "on_kernel_ready", Some(7), Some(3));
        t.end_at(6);
        t.end_at(8);
        t.end_at(9);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(s[3].parent, Some(1));
        assert_eq!((s[3].device, s[3].client), (Some(7), Some(3)));
        assert_eq!((s[3].start, s[3].end), (4, 6));
        assert_eq!(t.totals(Layer::Cluster).self_ns, 7 - 1 - 2);
        assert!(t
            .to_csv()
            .lines()
            .nth(4)
            .unwrap()
            .starts_with("3,1,system,on_kernel_ready,4,6,7,3"));
    }

    #[test]
    fn misplaced_spans_are_counted() {
        let mut t = Tracer::new();
        // A system hook straight under the wall, outside any session.
        t.begin_at(0, Layer::Wall, "rep", None, None);
        t.begin_at(1, Layer::System, "poll", None, None);
        t.end_at(2);
        t.end_at(3);
        assert_eq!(t.nesting_errors, 1);
    }

    #[test]
    fn children_outlasting_a_parent_are_flagged() {
        let mut t = Tracer::new();
        t.begin_at(10, Layer::Wall, "rep", None, None);
        t.begin_at(11, Layer::Session, "settle", None, None);
        t.end_at(30);
        // The wall "ends" before its child did: a broken clock.
        t.end_at(20);
        assert_eq!(t.negative_self, 1);
    }

    #[test]
    fn spans_past_the_cap_still_count() {
        let mut t = Tracer::new();
        t.begin_at(0, Layer::Wall, "rep", None, None);
        t.begin_at(0, Layer::Session, "settle", None, None);
        for i in 0..SPAN_CAP as u64 {
            t.begin_at(i, Layer::System, "poll", None, None);
            t.end_at(i + 1);
        }
        t.end_at(SPAN_CAP as u64);
        t.end_at(SPAN_CAP as u64);
        assert_eq!(t.spans().len(), SPAN_CAP);
        assert_eq!(t.dropped(), 2);
        assert_eq!(t.totals(Layer::System).spans, SPAN_CAP as u64);
    }
}
