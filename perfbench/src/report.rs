//! What a run prints: metrics with units, the per-layer figures of a
//! traced repetition with their accounting check, and the JSON result
//! line.

use std::fmt::Write as _;

use crate::trace::{Layer, SpanCost, Tracer};
use crate::workloads::Rep;

/// A metric as printed: value and unit.
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Self times the spans alone cannot separate, ns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Accounting {
    /// Harness stepping, clients, timer wheel, delivery and the engine.
    pub session_self: u64,
    /// The fleet control plane outside advancement and policy calls.
    pub cluster_self: u64,
}

/// Splits host time between the session and cluster layers.
///
/// `self_ns(layer)` is the span self time of each layer. A single-device
/// run times its session spans directly. A fleet run is one
/// `Cluster::run` span; the program itself times the advancement phases
/// (`advance_ns`), which contain the system, observer and admission calls
/// made while sessions advance. So the cluster's self time is the run
/// minus advancement minus policy calls, and the session's is
/// advancement minus the hooks. Both must come out non-negative, or some
/// host time would be counted twice.
pub fn account(
    self_ns: impl Fn(Layer) -> u64,
    advance_ns: Option<u64>,
) -> Result<Accounting, String> {
    let Some(advance) = advance_ns else {
        return Ok(Accounting {
            session_self: self_ns(Layer::Session),
            cluster_self: 0,
        });
    };
    let hooks = self_ns(Layer::System) + self_ns(Layer::Observers) + self_ns(Layer::Admission);
    let policy = self_ns(Layer::Policy);
    let run = self_ns(Layer::Cluster) + hooks + policy;
    let cluster_self = run
        .checked_sub(advance + policy)
        .ok_or(format!("cluster.advance ({advance} ns) plus policy ({policy} ns) exceed the cluster run ({run} ns)"))?;
    let session_self = advance.checked_sub(hooks).ok_or(format!(
        "system, observer and admission calls ({hooks} ns) exceed cluster.advance ({advance} ns)"
    ))?;
    Ok(Accounting {
        session_self,
        cluster_self,
    })
}

/// Per-layer figures of one traced repetition.
pub struct LayerFigures {
    /// The per-layer metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Deterministic counts, compared across traced repetitions.
    pub counts: Vec<u64>,
    /// Accounting violations.
    pub violations: Vec<String>,
    /// The recorder's cost per span the times are net of.
    pub cost: SpanCost,
}

/// Derives the per-layer metrics of a traced repetition and checks the
/// layer accounting. The accounting checks the measured self times; the
/// reported times are net of `cost`, the recorder's own cost per span.
pub fn layer_figures(t: &Tracer, rep: &Rep, cost: SpanCost) -> LayerFigures {
    let raw_ns = |l: Layer| t.totals(l).self_ns;
    let calls = |l: Layer| t.totals(l).spans;
    let ns = |l: Layer| cost.net_inner(raw_ns(l), calls(l));
    let c = &t.counts;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let s = |ns: u64| ns as f64 / 1e9;

    let (mut events, mut launches, mut preempted, mut active_max) = (0u64, 0u64, 0u64, 0u64);
    for e in &c.engines {
        events += e.submitted + e.completed + e.preempted + e.groups;
        launches += e.submitted;
        preempted += e.preempted;
        active_max = active_max.max(e.active_max);
    }

    let mut violations = Vec::new();
    if !t.balanced() {
        violations.push("a span was left open".to_string());
    }
    if t.nesting_errors > 0 {
        violations.push(format!(
            "{} spans opened outside their layer",
            t.nesting_errors
        ));
    }
    if t.negative_self > 0 {
        violations.push(format!("{} spans with negative self time", t.negative_self));
    }
    let host = rep.tally.host.as_ref();
    let acc = account(raw_ns, host.map(|h| h.advance_ns)).unwrap_or_else(|e| {
        violations.push(e);
        Accounting {
            session_self: 0,
            cluster_self: 0,
        }
    });
    // The hooks run inside the session or `cluster.advance`, the policy
    // calls inside the cluster run: their parents carry the cost around
    // them.
    let hook_calls = calls(Layer::System) + calls(Layer::Admission) + calls(Layer::Observers);
    let session_self = cost.net_outer(acc.session_self, hook_calls);
    let cluster_self = cost.net_outer(acc.cluster_self, calls(Layer::Policy));
    let (advance, barriers, scans) =
        host.map_or((0, 0, 0), |h| (h.advance_ns, h.barriers, h.departure_scans));
    let advance = cost.net_outer(cost.net_inner(advance, hook_calls), hook_calls);
    let migrations = rep.tally.migrations;
    let metrics = vec![
        metric("engine.events", events as f64, "count"),
        metric("engine.launches", launches as f64, "count"),
        metric("engine.preempt_ratio", ratio(preempted, launches), "ratio"),
        metric("engine.active_max", active_max as f64, "count"),
        metric("system.calls", calls(Layer::System) as f64, "count"),
        metric("system.busy_s", s(ns(Layer::System)), "s"),
        metric(
            "system.ns_per_call",
            ratio(ns(Layer::System), calls(Layer::System)),
            "ns",
        ),
        metric("session.self_s", s(session_self), "s"),
        metric("session.notifications", c.notifications as f64, "count"),
        metric("session.observations", c.observations as f64, "count"),
        metric("admission.calls", calls(Layer::Admission) as f64, "count"),
        metric("admission.busy_s", s(ns(Layer::Admission)), "s"),
        metric("admission.shed_ratio", ratio(c.sheds, c.admits), "ratio"),
        metric("observers.busy_s", s(ns(Layer::Observers)), "s"),
        metric(
            "observers.ns_per_event",
            ratio(ns(Layer::Observers), c.observations),
            "ns",
        ),
        metric("cluster.self_s", s(cluster_self), "s"),
        metric("cluster.advance_s", s(advance), "s"),
        metric("cluster.barriers", barriers as f64, "count"),
        metric("cluster.departure_scans", scans as f64, "count"),
        metric("cluster.migrations", migrations as f64, "count"),
        metric(
            "cluster.move_ratio",
            ratio(migrations, c.migrate_calls),
            "ratio",
        ),
        metric("policy.calls", calls(Layer::Policy) as f64, "count"),
        metric("policy.busy_s", s(ns(Layer::Policy)), "s"),
        metric("trace.ns_per_span", cost.per_span_ns(), "ns"),
    ];
    let mut counts = vec![
        events,
        launches,
        preempted,
        active_max,
        c.notifications,
        c.observations,
        c.admits,
        c.sheds,
        c.places,
        c.migrate_calls,
        barriers,
        scans,
        migrations,
    ];
    counts.extend(Layer::ALL.iter().map(|&l| calls(l)));
    LayerFigures {
        metrics,
        counts,
        violations,
        cost,
    }
}

/// The result line: `{"correct": .., "attempted": .., "failed": ..,
/// "metrics": {name: {"value": .., "unit": ..}}}`.
pub fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // Non-finite values have no JSON form; a check has failed then.
        let v = if m.value.is_finite() { m.value } else { -1.0 };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layers(values: [(Layer, u64); 7]) -> impl Fn(Layer) -> u64 {
        move |l| values.iter().find(|(k, _)| *k == l).map_or(0, |(_, v)| *v)
    }

    #[test]
    fn single_device_session_self_is_its_span_self_time() {
        let ns = layers([
            (Layer::Wall, 5),
            (Layer::Session, 70),
            (Layer::Cluster, 0),
            (Layer::System, 20),
            (Layer::Admission, 3),
            (Layer::Observers, 2),
            (Layer::Policy, 0),
        ]);
        assert_eq!(
            account(ns, None),
            Ok(Accounting {
                session_self: 70,
                cluster_self: 0
            })
        );
    }

    #[test]
    fn fleet_time_splits_around_the_advancement_phases() {
        // A 100 ns cluster run: 10 ns of policy calls, 60 ns advancing,
        // 25 ns of hooks (all inside advancement), 5 ns of its own.
        let ns = layers([
            (Layer::Wall, 1),
            (Layer::Session, 0),
            (Layer::Cluster, 65),
            (Layer::System, 20),
            (Layer::Admission, 0),
            (Layer::Observers, 5),
            (Layer::Policy, 10),
        ]);
        let acc = account(ns, Some(60)).expect("consistent");
        assert_eq!(acc.session_self, 60 - 25);
        assert_eq!(acc.cluster_self, 100 - 60 - 10);
        // The layers partition the run: nothing counted twice or lost.
        assert_eq!(acc.session_self + acc.cluster_self + 25 + 10, 100);
    }

    #[test]
    fn overlapping_claims_are_rejected() {
        // Hooks longer than the advancement that should contain them.
        let ns = layers([
            (Layer::Wall, 0),
            (Layer::Session, 0),
            (Layer::Cluster, 50),
            (Layer::System, 40),
            (Layer::Admission, 0),
            (Layer::Observers, 0),
            (Layer::Policy, 0),
        ]);
        assert!(account(&ns, Some(30)).is_err());
        // Advancement longer than the whole run.
        assert!(account(&ns, Some(95)).is_err());
    }

    #[test]
    fn json_line_has_the_four_keys() {
        let line = json_line(true, 3, 0, &[metric("sim_rate", 1.5, "dev-s/s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"sim_rate\": {\"value\": 1.5, \"unit\": \"dev-s/s\"}}}"
        );
    }
}
