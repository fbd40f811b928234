//! Scenario outcome reporting.

use std::fmt;

use vw_fsl::{CompiledActionKind, CondId, NodeId, TableSet};
use vw_netsim::{SimDuration, SimTime};
use vw_obs::{CausalChain, Histogram, MetricsRegistry, ObsEvent, ObsKind};

use crate::engine::{EngineStats, StatKind};

/// One protocol violation flagged by a `FLAG_ERR` action (or by the engine
/// itself, e.g. on a runaway rule cascade).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlaggedError {
    /// The node whose FAE flagged the error.
    pub node: NodeId,
    /// Its script name (`node1`, ...).
    pub node_name: String,
    /// The condition that fired, if any.
    pub condition: Option<CondId>,
    /// A human-readable description.
    pub message: String,
    /// When it fired.
    pub time: SimTime,
}

impl fmt::Display for FlaggedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.time, self.node_name, self.message)
    }
}

/// One per-node verdict from checking a protocol conformance model (see
/// `vw-analysis`'s `ProtocolModel`) against a run. The record is plain
/// strings and flags so the campaign layer can digest it without
/// depending on the analysis crate; ordering is `(model, node)` as
/// produced by the checker, which is deterministic for a fixed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConformanceRecord {
    /// The conformance model's name (e.g. `tcp-slow-start-ca`).
    pub model: String,
    /// The script name of the node that was checked.
    pub node: String,
    /// `true` if the node's observed behaviour conformed to the model.
    pub passed: bool,
    /// Violation messages, in detection order (empty when `passed`).
    pub violations: Vec<String>,
}

impl fmt::Display for ConformanceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.passed {
            write!(f, "conformance {} @ {}: ok", self.model, self.node)
        } else {
            write!(
                f,
                "conformance {} @ {}: {}",
                self.model,
                self.node,
                self.violations.join("; ")
            )
        }
    }
}

/// Why a scenario run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StopReason {
    /// A `STOP` action fired — the scripted success path.
    StopAction(String),
    /// No monitored packet matched for the scenario's inactivity timeout —
    /// in the paper's Rether example this is the failure path ("an error
    /// is flagged if the scenario is terminated due to inactivity").
    InactivityTimeout,
    /// The runner's wall-clock cap was reached before anything else ended
    /// the run.
    DeadlineReached,
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StopReason::StopAction(reason) => write!(f, "stopped: {reason}"),
            StopReason::InactivityTimeout => f.write_str("inactivity timeout"),
            StopReason::DeadlineReached => f.write_str("deadline reached"),
        }
    }
}

/// What one engine measured beyond its [`EngineStats`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeDistributions {
    /// Match counts per filter, indexed by `FilterId`.
    pub filter_hits: Vec<u64>,
    /// Evaluation-cascade depths (empty below
    /// [`ObsLevel::Faults`](vw_obs::ObsLevel::Faults)).
    pub cascade_depth: Histogram,
    /// Classify-to-action latency in charged sim nanoseconds (empty below
    /// [`ObsLevel::Faults`](vw_obs::ObsLevel::Faults)).
    pub classify_to_action_ns: Histogram,
}

/// The outcome of one scenario run, assembled by the
/// [`Runner`](crate::Runner).
#[derive(Debug, Clone)]
pub struct Report {
    /// Why the run ended.
    pub stop: StopReason,
    /// Every flagged error, across all nodes, in time order.
    pub errors: Vec<FlaggedError>,
    /// Final counter values per node: `(node_name, counter_name, value)`,
    /// authoritative values only (each counter read at its home node).
    pub counters: Vec<(String, String, i64)>,
    /// How long the run took in simulated time.
    pub duration: SimDuration,
    /// Per-node engine hot-path counters, in node-table order:
    /// `(node_name, stats)`.
    pub stats: Vec<(String, EngineStats)>,
    /// The run's distributed timeline: every engine's flight-recorder
    /// events, non-decreasing in time, each node's in the order its
    /// engine recorded them (empty when engines ran at
    /// [`ObsLevel::Off`](vw_obs::ObsLevel::Off)). It respects
    /// happens-before: a frame takes at least 1 ns to cross a link, so a
    /// control delivery is stamped after the send it answers.
    pub events: Vec<ObsEvent>,
    /// The run's compiled tables (the runner's own handle, not a copy):
    /// where renders read node, filter and counter names and the scenario.
    pub symbols: TableSet,
    /// Per-node filter hit counts and engine histograms, one entry per
    /// entry of `stats` and in its order.
    pub distributions: Vec<NodeDistributions>,
    /// Protocol-conformance verdicts, filled in post-run by the analysis
    /// layer (empty unless a `ProtocolModel` checker ran).
    pub conformance: Vec<ConformanceRecord>,
}

impl Report {
    /// `true` if the scenario completed without flagged errors and without
    /// an inactivity timeout.
    pub fn passed(&self) -> bool {
        self.errors.is_empty() && !matches!(self.stop, StopReason::InactivityTimeout)
    }

    /// The final value of a counter by name, if recorded.
    pub fn counter(&self, name: &str) -> Option<i64> {
        self.counters
            .iter()
            .find(|(_, counter, _)| counter == name)
            .map(|(_, _, value)| *value)
    }

    /// Renders a human-readable summary (same text as the [`fmt::Display`]
    /// impl).
    pub fn render(&self) -> String {
        self.to_string()
    }

    /// Reconstructs the causal chain behind a flagged error from the
    /// recorded event stream: the classification, counter updates, term
    /// flips and condition firing that led to it.
    ///
    /// Condition-less errors (engine diagnostics such as control-plane
    /// staleness degradations) are matched to the nearest recorded
    /// [`ObsKind::PeerDegraded`] at the same node instead.
    ///
    /// Returns `None` when no matching event was recorded (e.g. the run
    /// was at [`ObsLevel::Off`](vw_obs::ObsLevel::Off)).
    pub fn explain(&self, error: &FlaggedError) -> Option<CausalChain> {
        let anchor = self.events.iter().rev().find(|e| {
            e.node == error.node
                && e.time <= error.time
                && match error.condition {
                    Some(cond) => e.kind == ObsKind::ConditionFired { cond },
                    None => matches!(e.kind, ObsKind::PeerDegraded { .. }),
                }
        })?;
        Some(self.explain_seq(anchor.node, anchor.frame_seq))
    }

    /// The causal chain of one classification at one node — every recorded
    /// event tied to that `frame_seq`.
    pub fn explain_seq(&self, node: NodeId, frame_seq: u64) -> CausalChain {
        CausalChain::extract(&self.events, node, frame_seq)
    }

    /// The recorded packet-fault applications (`DROP`/`DUP`/`DELAY`/
    /// `REORDER`/`MODIFY` hitting a concrete packet), in time order.
    pub fn fault_events(&self) -> impl Iterator<Item = &ObsEvent> {
        self.events.iter().filter(|e| {
            matches!(
                e.action_kind(&self.symbols),
                Some(CompiledActionKind::Fault { .. })
            )
        })
    }

    /// Renders the run's numbers as a metrics registry, for export with
    /// [`MetricsRegistry::to_jsonl`] or
    /// [`to_prometheus`](MetricsRegistry::to_prometheus): `<node>.<field>`
    /// for each exported [`EngineStats`] field, `<node>.counter.<name>`
    /// for the authoritative script-counter values,
    /// `<node>.filter_hits.<filter>` for each filter that matched, and
    /// the non-empty `<node>.cascade_depth` and
    /// `<node>.classify_to_action_ns` histograms.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut metrics = MetricsRegistry::new();
        for (node, s) in &self.stats {
            for (name, value, kind) in s.fields() {
                let key = || [node, ".", name].concat();
                match kind {
                    StatKind::Counter => metrics.add_counter(&key(), value),
                    StatKind::Diagnostic if value > 0 => metrics.add_counter(&key(), value),
                    StatKind::HighWater => {
                        metrics.set_gauge(&key(), i64::try_from(value).unwrap_or(i64::MAX));
                    }
                    StatKind::Diagnostic | StatKind::Internal => {}
                }
            }
        }
        for (node, counter, value) in &self.counters {
            metrics.set_gauge(&format!("{node}.counter.{counter}"), *value);
        }
        for ((node, _), d) in self.stats.iter().zip(&self.distributions) {
            for (filter, &hits) in self.symbols.filters.iter().zip(&d.filter_hits) {
                if hits > 0 {
                    metrics.add_counter(&format!("{node}.filter_hits.{}", filter.name), hits);
                }
            }
            if !d.cascade_depth.is_empty() {
                metrics.insert_histogram(&format!("{node}.cascade_depth"), d.cascade_depth.clone());
            }
            if !d.classify_to_action_ns.is_empty() {
                metrics.insert_histogram(
                    &format!("{node}.classify_to_action_ns"),
                    d.classify_to_action_ns.clone(),
                );
            }
        }
        metrics
    }

    /// Folds the per-node engine counters into one aggregate: each field
    /// summed, a [`StatKind::HighWater`] one taken at its maximum.
    pub fn total_stats(&self) -> EngineStats {
        let mut total = [0u64; EngineStats::FIELDS];
        for (_, s) in &self.stats {
            for (t, (_, value, kind)) in total.iter_mut().zip(s.fields()) {
                *t = match kind {
                    StatKind::HighWater => (*t).max(value),
                    _ => *t + value,
                };
            }
        }
        EngineStats::from_values(total.into_iter()).expect("a maximum of field values fits")
    }
}

impl fmt::Display for Report {
    /// Human-readable summary: stop reason and verdict, each error with
    /// its reconstructed causal chain (when the flight recorder was on),
    /// final counters, and a per-node engine stats table.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "scenario {}: {} after {}",
            self.symbols.scenario, self.stop, self.duration
        )?;
        writeln!(
            f,
            "verdict: {}",
            if self.passed() { "PASS" } else { "FAIL" }
        )?;
        for error in &self.errors {
            writeln!(f, "error: {error}")?;
            if let Some(chain) = self.explain(error) {
                if !chain.events.is_empty() {
                    f.write_str(&chain.render(&self.symbols))?;
                }
            }
        }
        for record in &self.conformance {
            writeln!(f, "{record}")?;
        }
        for (node, counter, value) in &self.counters {
            writeln!(f, "counter {counter} @ {node} = {value}")?;
        }
        for (node, s) in &self.stats {
            writeln!(
                f,
                "engine {node}: classified {} matched {} rules-scanned {} \
                 index-hits {} residual {} max-cascade {} \
                 ctrl-sent {}/{}B ctrl-recv {}/{}B \
                 retx {} dup-suppressed {} reorder-buffered {} stale-degradations {}",
                s.classified,
                s.matched,
                s.rules_scanned,
                s.index_hits,
                s.residual_scans,
                s.max_cascade_depth,
                s.control_sent,
                s.control_sent_bytes,
                s.control_received,
                s.control_received_bytes,
                s.control_retransmits,
                s.control_dup_suppressed,
                s.control_reorder_buffered,
                s.control_stale_degradations,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(errors: Vec<FlaggedError>, stop: StopReason) -> Report {
        Report {
            stop,
            errors,
            counters: vec![("node1".into(), "CWND".into(), 5)],
            duration: SimDuration::from_millis(10),
            stats: vec![(
                "node1".into(),
                EngineStats {
                    classified: 7,
                    matched: 5,
                    rules_scanned: 21,
                    index_hits: 4,
                    residual_scans: 3,
                    max_cascade_depth: 2,
                    ..EngineStats::default()
                },
            )],
            events: Vec::new(),
            symbols: vw_fsl::Tables {
                scenario: "t".into(),
                timeout_ns: None,
                vars: Vec::new(),
                filters: Vec::new(),
                nodes: Vec::new(),
                counters: Vec::new(),
                terms: Vec::new(),
                conditions: Vec::new(),
                actions: Vec::new(),
            }
            .into(),
            distributions: Vec::new(),
            conformance: Vec::new(),
        }
    }

    #[test]
    fn pass_fail_logic() {
        assert!(report(vec![], StopReason::StopAction("done".into())).passed());
        assert!(report(vec![], StopReason::DeadlineReached).passed());
        assert!(!report(vec![], StopReason::InactivityTimeout).passed());
        let err = FlaggedError {
            node: NodeId(0),
            node_name: "node1".into(),
            condition: None,
            message: "boom".into(),
            time: SimTime::ZERO,
        };
        assert!(!report(vec![err], StopReason::StopAction("done".into())).passed());
    }

    #[test]
    fn counter_lookup_and_render() {
        let r = report(vec![], StopReason::StopAction("ok".into()));
        assert_eq!(r.counter("CWND"), Some(5));
        assert_eq!(r.counter("missing"), None);
        let text = r.render();
        assert!(text.contains("PASS"));
        assert!(text.contains("CWND @ node1 = 5"));
        assert!(text.contains("engine node1: classified 7 matched 5"));
    }

    #[test]
    fn stats_aggregation() {
        let mut r = report(vec![], StopReason::StopAction("ok".into()));
        r.stats.push((
            "node2".into(),
            EngineStats {
                classified: 3,
                max_cascade_depth: 1,
                modify_oob: 9,
                ..EngineStats::default()
            },
        ));
        let total = r.total_stats();
        assert_eq!(total.classified, 10);
        assert_eq!(total.rules_scanned, 21);
        assert_eq!(total.index_hits, 4);
        assert_eq!(total.residual_scans, 3);
        assert_eq!(total.modify_oob, 9);
        assert_eq!(total.max_cascade_depth, 2, "a high-water mark, not a sum");

        // The field table and its inverse agree; short input and a value
        // too wide for its field are refused.
        let values = total.fields().map(|(_, value, _)| value);
        assert_eq!(EngineStats::from_values(values.into_iter()), Some(total));
        assert_eq!(EngineStats::from_values(values[1..].iter().copied()), None);
        let wide = total.fields().map(|(name, value, _)| match name {
            "max_cascade_depth" => u64::MAX,
            _ => value,
        });
        assert_eq!(EngineStats::from_values(wide.into_iter()), None);
    }

    #[test]
    fn error_display() {
        let err = FlaggedError {
            node: NodeId(1),
            node_name: "node2".into(),
            condition: Some(CondId(3)),
            message: "CanTx went negative".into(),
            time: SimTime::from_nanos(1_000_000),
        };
        let text = err.to_string();
        assert!(text.contains("node2"));
        assert!(text.contains("CanTx went negative"));
    }
}
