//! Outcome digesting, equivalence-class dedup, and the JSONL campaign
//! report.
//!
//! A campaign over hundreds of instances is only useful if its output is
//! smaller than its input: the store boils each [`Report`] down to an
//! [`OutcomeDigest`] (flagged errors + stop kind + terminal counter
//! values + per-node engine stats), groups instances whose digests agree
//! on the configured [`DigestKey`] fields into equivalence classes, and
//! renders the whole campaign as hand-rolled JSON lines (the same
//! dependency-free approach as `vw-obs` metrics export). Everything is
//! keyed and ordered by cross-product index, so the report is
//! byte-identical regardless of how many worker threads produced it.

use std::borrow::Cow;
use std::collections::hash_map::{Entry, HashMap};
use std::fmt::{self, Write as _};
use std::mem;
use std::sync::Arc;

use virtualwire::{EngineStats, NodeDistributions, Report};
use vw_fsl::TableSet;
use vw_obs::Histogram;
use vw_trace::{json_escape, json_string};

use crate::spec::Instance;

/// A compact cross-node fold of one run's numbers: the injected-fault
/// applications and control-plane health signals a campaign sweeps over,
/// summed across nodes, and the engine histograms merged across nodes.
/// High-churn volume counters (`classified`, `rules_scanned`, ...) stay
/// out — they already live in [`EngineStats`]. This is the per-instance
/// input campaign-wide analytics aggregate over.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsDigest {
    /// `(name, summed value)`, ascending by name. A fold borrows its
    /// fixed names; a decoded digest owns the names it read.
    pub counters: Vec<(Cow<'static, str>, u64)>,
    /// `(name, merged histogram)`, ascending by name.
    pub histograms: Vec<(Cow<'static, str>, Histogram)>,
}

impl MetricsDigest {
    /// Folds a report. A report without engines digests to nothing, and
    /// a histogram no engine filled is left out.
    pub fn from_report(report: &Report) -> Self {
        if report.stats.is_empty() {
            return MetricsDigest::default();
        }
        let total = report.total_stats();
        let counters = [
            ("control_retransmits", total.control_retransmits),
            (
                "control_stale_degradations",
                total.control_stale_degradations,
            ),
            ("delays", total.delays),
            ("drops", total.drops),
            ("dups", total.dups),
            ("modifies", total.modifies),
            ("reorders", total.reorders),
        ];
        let mut cascade_depth = Histogram::new();
        let mut classify_to_action_ns = Histogram::new();
        for node in &report.distributions {
            cascade_depth.merge(&node.cascade_depth);
            classify_to_action_ns.merge(&node.classify_to_action_ns);
        }
        let histograms = [
            ("cascade_depth", cascade_depth),
            ("classify_to_action_ns", classify_to_action_ns),
        ];
        MetricsDigest {
            counters: Vec::from(counters.map(|(name, value)| (Cow::Borrowed(name), value))),
            histograms: histograms
                .into_iter()
                .filter(|(_, h)| !h.is_empty())
                .map(|(name, h)| (Cow::Borrowed(name), h))
                .collect(),
        }
    }

    /// A digested counter's value, if present.
    pub fn counter(&self, leaf: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(name, _)| name == leaf)
            .map(|(_, v)| *v)
    }

    /// A digested histogram, if present.
    pub fn histogram(&self, leaf: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(name, _)| name == leaf)
            .map(|(_, h)| h)
    }
}

/// The time-free essence of one scenario run.
///
/// Times are deliberately excluded: two runs that flag the same errors
/// and end with the same counters are the same *outcome* even if their
/// schedules differ, and that is exactly the equivalence a campaign
/// wants to quotient by.
#[derive(Debug, Clone, PartialEq)]
pub struct OutcomeDigest {
    /// `Report::passed()`.
    pub passed: bool,
    /// The stop reason, rendered (`stopped: ...` / `inactivity timeout` /
    /// `deadline reached`).
    pub stop: String,
    /// `(node_name, message)` per flagged error, in report (time) order.
    pub errors: Vec<(String, String)>,
    /// `(node_name, counter_name, value)` terminal counter values.
    pub counters: Vec<(String, String, i64)>,
    /// `(node_name, stats)` per-node engine counters.
    pub stats: Vec<(String, EngineStats)>,
    /// Compact cross-node fold of the run's fault counters and
    /// histograms. Always populated; participates in class membership
    /// only when [`DigestKey::metrics`] is set.
    pub metrics: MetricsDigest,
    /// `(model_name, node_name, verdict)` protocol-conformance verdicts,
    /// in report order. The verdict is `"ok"` for a conforming node or
    /// the semicolon-joined violation list otherwise. Populated by
    /// conformance-aware setups via [`Setup::finish`](crate::Setup);
    /// participates in class membership only when
    /// [`DigestKey::conformance`] is set.
    pub conformance: Vec<(String, String, String)>,
}

impl OutcomeDigest {
    /// Digests a finished report, copying only what the digest keeps.
    pub fn from_report(report: &Report) -> Self {
        let histograms = |d: &NodeDistributions| NodeDistributions {
            filter_hits: Vec::new(),
            cascade_depth: d.cascade_depth.clone(),
            classify_to_action_ns: d.classify_to_action_ns.clone(),
        };
        Self::from_owned_report(Report {
            stop: report.stop.clone(),
            errors: report.errors.clone(),
            counters: report.counters.clone(),
            duration: report.duration,
            stats: report.stats.clone(),
            events: Vec::new(),
            symbols: TableSet::clone(&report.symbols),
            distributions: report.distributions.iter().map(histograms).collect(),
            conformance: report.conformance.clone(),
        })
    }

    /// Digests a finished report the caller is done with, moving the
    /// lists the digest keeps out of it instead of copying them.
    pub fn from_owned_report(mut report: Report) -> Self {
        // Fields initialise in order: the report is read whole first.
        OutcomeDigest {
            passed: report.passed(),
            stop: render_exact(&report.stop),
            metrics: MetricsDigest::from_report(&report),
            errors: mem::take(&mut report.errors)
                .into_iter()
                .map(|e| (e.node_name, e.message))
                .collect(),
            counters: mem::take(&mut report.counters),
            stats: mem::take(&mut report.stats),
            conformance: mem::take(&mut report.conformance)
                .into_iter()
                .map(|c| {
                    let verdict = if c.passed {
                        "ok".to_string()
                    } else {
                        c.violations.join("; ")
                    };
                    (c.model, c.node, verdict)
                })
                .collect(),
        }
    }

    /// `true` if every conformance verdict passed (vacuously `true` when
    /// no model was checked).
    pub fn conformant(&self) -> bool {
        self.conformance.iter().all(|(_, _, v)| v == "ok")
    }

    /// Terminal value of a counter by name, if recorded.
    pub fn counter(&self, name: &str) -> Option<i64> {
        self.counters
            .iter()
            .find(|(_, counter, _)| counter == name)
            .map(|(_, _, v)| *v)
    }

    /// `true` if some flagged error message contains `needle`.
    pub fn has_error_containing(&self, needle: &str) -> bool {
        self.errors.iter().any(|(_, m)| m.contains(needle))
    }

    /// The canonical key string over the selected fields, in one
    /// allocation of its final size.
    pub fn key_string(&self, key: &DigestKey) -> String {
        render_exact(&KeyText(self, key))
    }
}

/// The canonical key text of a digest over a key's fields.
struct KeyText<'a>(&'a OutcomeDigest, &'a DigestKey);

impl fmt::Display for KeyText<'_> {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        let KeyText(d, key) = *self;
        if key.stop {
            write!(out, "stop={}|", d.stop)?;
        }
        write!(out, "passed={}|", d.passed)?;
        if key.errors {
            out.write_str("errors=[")?;
            for (node, message) in &d.errors {
                write!(out, "{node}:{message};")?;
            }
            out.write_str("]|")?;
        }
        if key.counters {
            out.write_str("counters=[")?;
            for (node, counter, value) in &d.counters {
                write!(out, "{node}.{counter}={value};")?;
            }
            out.write_str("]|")?;
        }
        if key.stats {
            out.write_str("stats=[")?;
            for (node, s) in &d.stats {
                write!(
                    out,
                    "{node}:cls{}m{}d{}u{}dl{}ro{}mo{}bh{};",
                    s.classified,
                    s.matched,
                    s.drops,
                    s.dups,
                    s.delays,
                    s.reorders,
                    s.modifies,
                    s.blackholed,
                )?;
            }
            out.write_str("]|")?;
        }
        if key.conformance {
            out.write_str("conformance=[")?;
            for (model, node, verdict) in &d.conformance {
                write!(out, "{model}@{node}:{verdict};")?;
            }
            out.write_str("]|")?;
        }
        if key.metrics {
            out.write_str("metrics=[")?;
            for (name, value) in &d.metrics.counters {
                write!(out, "{name}={value};")?;
            }
            for (name, h) in &d.metrics.histograms {
                write!(out, "{name}:c{}s{}", h.count(), h.sum())?;
                for (floor, n) in h.nonzero_buckets() {
                    write!(out, ",{floor}x{n}")?;
                }
                out.write_char(';')?;
            }
            out.write_str("]|")?;
        }
        Ok(())
    }
}

/// `value.to_string()`, in one allocation of its final size: a first
/// pass only counts the bytes.
fn render_exact(value: &impl fmt::Display) -> String {
    struct Measure(usize);
    impl fmt::Write for Measure {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0 += s.len();
            Ok(())
        }
    }
    let mut len = Measure(0);
    let _ = write!(len, "{value}");
    let mut out = String::with_capacity(len.0);
    let _ = write!(out, "{value}");
    out
}

/// Which digest fields participate in equivalence-class membership.
///
/// The default keys on errors + stop + counters: engine stats (frame
/// counts, control-plane chatter) vary legitimately across swept seeds
/// and impairments, so including them usually shatters classes down to
/// singletons. They stay available in the digest either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DigestKey {
    /// Include flagged errors (node + message).
    pub errors: bool,
    /// Include the stop reason.
    pub stop: bool,
    /// Include terminal counter values.
    pub counters: bool,
    /// Include per-node engine stats.
    pub stats: bool,
    /// Include the compact metrics digest (fault counters and merged
    /// histograms). Off by default for the same reason as `stats`:
    /// distribution shapes vary legitimately across swept seeds.
    pub metrics: bool,
    /// Include protocol-conformance verdicts (model + node + verdict).
    /// Off by default so campaigns without a conformance-checking setup
    /// keep their PR-4 class structure; conformance sweeps turn it on to
    /// fold instances into per-violation-class buckets.
    pub conformance: bool,
    /// Render per-class wall-clock duration aggregates (max/mean over
    /// member instances) in the JSONL report. Unlike every other field,
    /// this only affects *rendering*, never class membership — wall
    /// times are nondeterministic, so hashing them would shatter dedup.
    /// Off by default, which keeps the report byte-identical across
    /// thread counts and runs.
    pub durations: bool,
}

impl Default for DigestKey {
    fn default() -> Self {
        DigestKey {
            errors: true,
            stop: true,
            counters: true,
            stats: false,
            metrics: false,
            conformance: false,
            durations: false,
        }
    }
}

/// How one instance ended, as stored by the campaign.
#[derive(Debug, Clone, PartialEq)]
pub enum InstanceOutcome {
    /// The run finished and was digested.
    Completed(OutcomeDigest),
    /// The mutated program failed to compile.
    Invalid(String),
    /// The setup closure returned an error (e.g.
    /// [`Runner::try_install`](virtualwire::Runner::try_install)).
    SetupFailed(String),
    /// The worker caught a panic while building or driving the testbed.
    Crashed(String),
}

impl InstanceOutcome {
    /// Short kind tag used in the report.
    pub fn kind(&self) -> &'static str {
        match self {
            InstanceOutcome::Completed(_) => "completed",
            InstanceOutcome::Invalid(_) => "invalid",
            InstanceOutcome::SetupFailed(_) => "setup_failed",
            InstanceOutcome::Crashed(_) => "crashed",
        }
    }

    /// The digest, for completed runs.
    pub fn digest(&self) -> Option<&OutcomeDigest> {
        match self {
            InstanceOutcome::Completed(d) => Some(d),
            _ => None,
        }
    }

    /// Canonical equivalence key over the selected fields.
    pub fn key_string(&self, key: &DigestKey) -> String {
        match self {
            InstanceOutcome::Completed(d) => d.key_string(key),
            InstanceOutcome::Invalid(m) => format!("invalid:{m}"),
            InstanceOutcome::SetupFailed(m) => format!("setup_failed:{m}"),
            InstanceOutcome::Crashed(m) => format!("crashed:{m}"),
        }
    }
}

/// One executed instance: where it sat in the sweep and how it ended.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceRecord {
    /// Cross-product index.
    pub index: usize,
    /// `(axis, value)` labels, sharing their strings with the instance's.
    pub labels: Vec<(Arc<str>, Arc<str>)>,
    /// The outcome.
    pub outcome: InstanceOutcome,
    /// Wall-clock duration of the run in nanoseconds, when the executor
    /// measured it. Diagnostic only: never part of the digest key, and
    /// rendered in JSONL only when [`DigestKey::durations`] is set.
    pub wall_ns: Option<u64>,
}

impl InstanceRecord {
    /// One per-instance JSON line (no trailing newline): index, labels,
    /// and the same outcome fields a class line carries, gated by the
    /// same `key` flags. This is the streaming-report shape — `vw-serve`
    /// emits one of these per instance as shards complete, so the shape
    /// depends only on the record and the key, never on scheduling.
    pub fn to_jsonl_line(&self, key: &DigestKey) -> String {
        instance_jsonl_line(self.index, &self.labels, &self.outcome, key)
    }
}

/// [`InstanceRecord::to_jsonl_line`] over borrowed parts, for a caller
/// that holds an instance and its outcome and would build a record only
/// to render it.
pub fn instance_jsonl_line(
    index: usize,
    labels: &[(Arc<str>, Arc<str>)],
    outcome: &InstanceOutcome,
    key: &DigestKey,
) -> String {
    // A line of the default key runs to 200-300 bytes.
    let mut out = String::with_capacity(256);
    let _ = write!(out, "{{\"instance\":{index},\"labels\":");
    write_labels(&mut out, labels);
    write_outcome_fields(&mut out, outcome, key);
    out.push('}');
    out
}

/// Appends the `(axis, value)` labels as one JSON object.
fn write_labels(out: &mut String, labels: &[(Arc<str>, Arc<str>)]) {
    out.push('{');
    for (j, (axis, value)) in labels.iter().enumerate() {
        separate(out, j);
        json_string(out, axis);
        out.push(':');
        json_string(out, value);
    }
    out.push('}');
}

/// Puts a comma before every list item but the first (item `j`).
fn separate(out: &mut String, j: usize) {
    if j > 0 {
        out.push(',');
    }
}

/// Appends `,"kind":...` plus the outcome's variant fields (digest
/// fields for completed runs, `message` otherwise) — the shared tail of
/// class lines and per-instance streaming lines. Conformance and metrics
/// sections appear only when the corresponding `key` flag is set.
fn write_outcome_fields(out: &mut String, outcome: &InstanceOutcome, key: &DigestKey) {
    out.push_str(",\"kind\":");
    json_string(out, outcome.kind());
    match outcome {
        InstanceOutcome::Completed(d) => {
            let _ = write!(out, ",\"passed\":{},\"stop\":", d.passed);
            json_string(out, &d.stop);
            out.push_str(",\"errors\":[");
            for (j, (node, message)) in d.errors.iter().enumerate() {
                separate(out, j);
                out.push_str("{\"node\":");
                json_string(out, node);
                out.push_str(",\"message\":");
                json_string(out, message);
                out.push('}');
            }
            out.push_str("],\"counters\":{");
            for (j, (node, counter, value)) in d.counters.iter().enumerate() {
                separate(out, j);
                out.push('"');
                json_escape(out, node);
                out.push('.');
                json_escape(out, counter);
                let _ = write!(out, "\":{value}");
            }
            out.push('}');
            if key.conformance {
                out.push_str(",\"conformance\":[");
                for (j, (model, node, verdict)) in d.conformance.iter().enumerate() {
                    separate(out, j);
                    out.push_str("{\"model\":");
                    json_string(out, model);
                    out.push_str(",\"node\":");
                    json_string(out, node);
                    out.push_str(",\"verdict\":");
                    json_string(out, verdict);
                    out.push('}');
                }
                out.push(']');
            }
            if key.metrics {
                out.push_str(",\"metrics\":{\"counters\":{");
                for (j, (name, value)) in d.metrics.counters.iter().enumerate() {
                    separate(out, j);
                    json_string(out, name);
                    let _ = write!(out, ":{value}");
                }
                out.push_str("},\"histograms\":{");
                for (j, (name, h)) in d.metrics.histograms.iter().enumerate() {
                    separate(out, j);
                    json_string(out, name);
                    let _ = write!(
                        out,
                        ":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\
                         \"p50\":{},\"p99\":{}}}",
                        h.count(),
                        h.sum(),
                        h.min(),
                        h.max(),
                        h.percentile(50.0),
                        h.percentile(99.0),
                    );
                }
                out.push_str("}}");
            }
        }
        InstanceOutcome::Invalid(m)
        | InstanceOutcome::SetupFailed(m)
        | InstanceOutcome::Crashed(m) => {
            out.push_str(",\"message\":");
            json_string(out, m);
        }
    }
}

/// A set of instances whose outcomes agree on the digest key.
#[derive(Debug, Clone, PartialEq)]
pub struct OutcomeClass {
    /// FNV-1a of the canonical key string (report display).
    pub digest: u64,
    /// Lowest member index (the class's exemplar).
    pub representative: usize,
    /// All member indices, ascending.
    pub members: Vec<usize>,
    /// The representative's outcome.
    pub outcome: InstanceOutcome,
}

/// The aggregated result of a campaign run.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// Campaign name.
    pub name: String,
    /// Digest fields that defined class membership.
    pub key: DigestKey,
    /// Every executed instance, ascending by index.
    pub instances: Vec<InstanceRecord>,
    /// Equivalence classes, in order of first appearance.
    pub classes: Vec<OutcomeClass>,
}

impl CampaignResult {
    /// Groups instances and their `(outcome, wall_ns)` pairs into
    /// classes. `outcomes` must be sorted ascending by instance index
    /// (the executor guarantees this), which makes class order and
    /// membership independent of the thread count that produced them.
    /// Wall-clock durations (nanoseconds) never affect class membership;
    /// they surface in JSONL only behind [`DigestKey::durations`] and feed
    /// campaign analytics (`vw_analysis::CampaignReport::of`).
    pub fn build(
        name: &str,
        instances: &[Instance],
        outcomes: Vec<(InstanceOutcome, u64)>,
        key: DigestKey,
    ) -> Self {
        assert_eq!(instances.len(), outcomes.len(), "one outcome per instance");
        let mut records = Vec::with_capacity(outcomes.len());
        let mut classes: Vec<OutcomeClass> = Vec::new();
        let mut by_key: HashMap<String, usize> = HashMap::new();
        for (instance, (outcome, wall_ns)) in instances.iter().zip(outcomes) {
            match by_key.entry(outcome.key_string(&key)) {
                Entry::Occupied(class) => classes[*class.get()].members.push(instance.index),
                Entry::Vacant(slot) => {
                    classes.push(OutcomeClass {
                        digest: fnv1a64(slot.key().as_bytes()),
                        representative: instance.index,
                        members: vec![instance.index],
                        outcome: outcome.clone(),
                    });
                    slot.insert(classes.len() - 1);
                }
            }
            records.push(InstanceRecord {
                index: instance.index,
                labels: instance.labels.clone(),
                outcome,
                wall_ns: Some(wall_ns),
            });
        }
        CampaignResult {
            name: name.to_string(),
            key,
            instances: records,
            classes,
        }
    }

    /// Completed instances with their digests, ascending by index — the
    /// feed for campaign-wide analytics.
    pub fn completed(&self) -> impl Iterator<Item = (&InstanceRecord, &OutcomeDigest)> {
        self.instances
            .iter()
            .filter_map(|r| r.outcome.digest().map(|d| (r, d)))
    }

    /// Instances whose outcome satisfies `predicate` (completed runs
    /// only), ascending by index — the feed for the shrinker.
    pub fn matching<P: Fn(&OutcomeDigest) -> bool>(&self, predicate: P) -> Vec<&InstanceRecord> {
        self.instances
            .iter()
            .filter(|r| r.outcome.digest().is_some_and(&predicate))
            .collect()
    }

    /// Count of instances by outcome kind: `(completed, invalid,
    /// setup_failed, crashed)`.
    pub fn kind_counts(&self) -> (usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0);
        for r in &self.instances {
            match r.outcome {
                InstanceOutcome::Completed(_) => c.0 += 1,
                InstanceOutcome::Invalid(_) => c.1 += 1,
                InstanceOutcome::SetupFailed(_) => c.2 += 1,
                InstanceOutcome::Crashed(_) => c.3 += 1,
            }
        }
        c
    }

    /// The campaign report as JSON lines: one header object, then one
    /// object per equivalence class (first-appearance order). Keys and
    /// ordering depend only on the instance list, never on scheduling,
    /// so the output is byte-identical at any worker-thread count.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let (completed, invalid, setup_failed, crashed) = self.kind_counts();
        out.push_str("{\"campaign\":");
        json_string(&mut out, &self.name);
        let _ = write!(
            out,
            ",\"instances\":{},\"classes\":{},\"completed\":{completed},\
             \"invalid\":{invalid},\"setup_failed\":{setup_failed},\"crashed\":{crashed}",
            self.instances.len(),
            self.classes.len(),
        );
        if self.key.durations {
            write_wall_ns(&mut out, &self.instances);
        }
        out.push_str("}\n");
        for (i, class) in self.classes.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"class\":{i},\"digest\":\"{:016x}\",\"members\":{},\"representative\":{}",
                class.digest,
                class.members.len(),
                class.representative,
            );
            let rep = self
                .instances
                .iter()
                .find(|r| r.index == class.representative);
            if let Some(rep) = rep {
                out.push_str(",\"labels\":");
                write_labels(&mut out, &rep.labels);
            }
            if self.key.durations {
                // Members are a subset of `instances`, both ascending by
                // index, so one merged walk finds them all.
                let mut records = self.instances.iter();
                let members = class
                    .members
                    .iter()
                    .filter_map(|&member| records.find(|r| r.index == member));
                write_wall_ns(&mut out, members);
            }
            write_outcome_fields(&mut out, &class.outcome, &self.key);
            out.push_str("}\n");
        }
        out
    }
}

/// The `"wall_ns":{max,mean}` field over the `records` that carry a
/// duration — the "is something wedged" signal for long sweeps — or
/// nothing if none do.
fn write_wall_ns<'a>(out: &mut String, records: impl IntoIterator<Item = &'a InstanceRecord>) {
    let (mut max, mut sum, mut n) = (0u64, 0u128, 0u64);
    for ns in records.into_iter().filter_map(|r| r.wall_ns) {
        max = max.max(ns);
        sum += u128::from(ns);
        n += 1;
    }
    if n > 0 {
        let mean = (sum / u128::from(n)) as u64;
        let _ = write!(out, ",\"wall_ns\":{{\"max\":{max},\"mean\":{mean}}}");
    }
}

/// FNV-1a over bytes — a stable, dependency-free 64-bit digest (class
/// display names here, checkpoint file names in `vw-serve`).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::RunConfig;
    use vw_fsl::Program;

    fn digest(passed: bool, rcvd: i64, errors: Vec<(&str, &str)>) -> OutcomeDigest {
        OutcomeDigest {
            passed,
            stop: if passed {
                "stopped: STOP".into()
            } else {
                "inactivity timeout".into()
            },
            errors: errors
                .into_iter()
                .map(|(n, m)| (n.to_string(), m.to_string()))
                .collect(),
            counters: vec![("node2".into(), "Rcvd".into(), rcvd)],
            stats: vec![("node1".into(), EngineStats::default())],
            metrics: MetricsDigest::default(),
            conformance: Vec::new(),
        }
    }

    fn instance(index: usize) -> Instance {
        Instance::new(
            index,
            vec![("seed".into(), index.to_string().into())],
            Program::default(),
            RunConfig::default(),
        )
    }

    /// [`CampaignResult::build`] for tests that do not care about wall
    /// times.
    fn build(
        name: &str,
        instances: &[Instance],
        outcomes: Vec<InstanceOutcome>,
        key: DigestKey,
    ) -> CampaignResult {
        let timed = outcomes.into_iter().map(|o| (o, 0)).collect();
        CampaignResult::build(name, instances, timed, key)
    }

    #[test]
    fn identical_outcomes_collapse_into_one_class() {
        let instances: Vec<Instance> = (0..4).map(instance).collect();
        let outcomes = vec![
            InstanceOutcome::Completed(digest(true, 29, vec![])),
            InstanceOutcome::Completed(digest(true, 29, vec![])),
            InstanceOutcome::Completed(digest(false, 28, vec![("node1", "boom")])),
            InstanceOutcome::Completed(digest(true, 29, vec![])),
        ];
        let result = build("t", &instances, outcomes, DigestKey::default());
        assert_eq!(result.classes.len(), 2);
        assert_eq!(result.classes[0].members, vec![0, 1, 3]);
        assert_eq!(result.classes[1].members, vec![2]);
        assert_eq!(result.classes[1].representative, 2);
        assert_eq!(result.kind_counts(), (4, 0, 0, 0));
        assert_eq!(result.matching(|d| !d.passed).len(), 1);
    }

    #[test]
    fn stats_only_differences_do_not_split_classes_by_default() {
        let instances: Vec<Instance> = (0..2).map(instance).collect();
        let mut noisy = digest(true, 29, vec![]);
        noisy.stats[0].1.classified = 999;
        let outcomes = vec![
            InstanceOutcome::Completed(digest(true, 29, vec![])),
            InstanceOutcome::Completed(noisy.clone()),
        ];
        let result = build("t", &instances, outcomes.clone(), DigestKey::default());
        assert_eq!(result.classes.len(), 1);
        // ... but keying on stats does split them.
        let keyed = build(
            "t",
            &instances,
            outcomes,
            DigestKey {
                stats: true,
                ..DigestKey::default()
            },
        );
        assert_eq!(keyed.classes.len(), 2);
    }

    #[test]
    fn non_completed_outcomes_form_their_own_classes() {
        let instances: Vec<Instance> = (0..3).map(instance).collect();
        let outcomes = vec![
            InstanceOutcome::Invalid("no scenario".into()),
            InstanceOutcome::Crashed("worker panic".into()),
            InstanceOutcome::Invalid("no scenario".into()),
        ];
        let result = build("t", &instances, outcomes, DigestKey::default());
        assert_eq!(result.classes.len(), 2);
        assert_eq!(result.classes[0].members, vec![0, 2]);
        assert_eq!(result.kind_counts(), (0, 2, 0, 1));
    }

    #[test]
    fn jsonl_shape_and_stability() {
        let instances: Vec<Instance> = (0..2).map(instance).collect();
        let outcomes = vec![
            InstanceOutcome::Completed(digest(true, 29, vec![])),
            InstanceOutcome::Completed(digest(false, 28, vec![("node1", "two drops")])),
        ];
        let result = build("demo", &instances, outcomes, DigestKey::default());
        let a = result.to_jsonl();
        let b = result.to_jsonl();
        assert_eq!(a, b);
        let lines: Vec<&str> = a.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"campaign\":\"demo\""));
        assert!(lines[0].contains("\"instances\":2"));
        assert!(lines[0].contains("\"classes\":2"));
        assert!(lines[1].contains("\"class\":0"));
        assert!(lines[2].contains("two drops"));
        assert!(lines[2].contains("\"node2.Rcvd\":28"));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn metrics_key_splits_classes_only_when_enabled() {
        let instances: Vec<Instance> = (0..2).map(instance).collect();
        let mut noisy = digest(true, 29, vec![]);
        noisy.metrics.counters.push(("drops".into(), 7));
        let outcomes = vec![
            InstanceOutcome::Completed(digest(true, 29, vec![])),
            InstanceOutcome::Completed(noisy),
        ];
        let result = build("t", &instances, outcomes.clone(), DigestKey::default());
        assert_eq!(result.classes.len(), 1);
        let keyed = build(
            "t",
            &instances,
            outcomes,
            DigestKey {
                metrics: true,
                ..DigestKey::default()
            },
        );
        assert_eq!(keyed.classes.len(), 2);
        // The keyed report carries the digest in its class lines.
        let jsonl = keyed.to_jsonl();
        assert!(jsonl.contains("\"metrics\":{\"counters\":{"), "{jsonl}");
        assert!(jsonl.contains("\"drops\":7"), "{jsonl}");
        // The unkeyed report stays digest-free (byte-stable with PR-4).
        assert!(!result.to_jsonl().contains("\"metrics\""));
    }

    #[test]
    fn conformance_key_splits_classes_only_when_enabled() {
        let instances: Vec<Instance> = (0..2).map(instance).collect();
        let mut violating = digest(true, 29, vec![]);
        violating.conformance.push((
            "tcp".into(),
            "node1".into(),
            "illegal transition slow-start -> fast-recovery".into(),
        ));
        assert!(!violating.conformant());
        let mut clean = digest(true, 29, vec![]);
        clean
            .conformance
            .push(("tcp".into(), "node1".into(), "ok".into()));
        assert!(clean.conformant());
        let outcomes = vec![
            InstanceOutcome::Completed(clean),
            InstanceOutcome::Completed(violating),
        ];
        let result = build("t", &instances, outcomes.clone(), DigestKey::default());
        assert_eq!(result.classes.len(), 1, "off by default: one class");
        let keyed = build(
            "t",
            &instances,
            outcomes,
            DigestKey {
                conformance: true,
                ..DigestKey::default()
            },
        );
        assert_eq!(keyed.classes.len(), 2);
        // The keyed report carries the verdicts in its class lines.
        let jsonl = keyed.to_jsonl();
        assert!(
            jsonl.contains("\"conformance\":[{\"model\":\"tcp\""),
            "{jsonl}"
        );
        assert!(jsonl.contains("illegal transition"), "{jsonl}");
        // The unkeyed report stays verdict-free (byte-stable with PR-4).
        assert!(!result.to_jsonl().contains("\"conformance\""));
    }

    #[test]
    fn durations_render_only_when_keyed_and_never_split_classes() {
        let instances: Vec<Instance> = (0..3).map(instance).collect();
        let outcomes = vec![
            (InstanceOutcome::Completed(digest(true, 29, vec![])), 100),
            (InstanceOutcome::Completed(digest(true, 29, vec![])), 300),
            (InstanceOutcome::Completed(digest(false, 28, vec![])), 50),
        ];
        // Same digests, wildly different wall times: still one class.
        let plain = CampaignResult::build("t", &instances, outcomes.clone(), DigestKey::default());
        assert_eq!(plain.classes.len(), 2);
        assert!(
            !plain.to_jsonl().contains("wall_ns"),
            "durations are off by default (byte-stable reports)"
        );
        let keyed = CampaignResult::build(
            "t",
            &instances,
            outcomes,
            DigestKey {
                durations: true,
                ..DigestKey::default()
            },
        );
        assert_eq!(keyed.classes.len(), 2, "durations never affect membership");
        let jsonl = keyed.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert!(
            lines[0].contains("\"wall_ns\":{\"max\":300,\"mean\":150}"),
            "{jsonl}"
        );
        // Class 0 holds instances 0 and 1 (100ns, 300ns).
        assert!(
            lines[1].contains("\"wall_ns\":{\"max\":300,\"mean\":200}"),
            "{jsonl}"
        );
        assert!(
            lines[2].contains("\"wall_ns\":{\"max\":50,\"mean\":50}"),
            "{jsonl}"
        );
    }

    #[test]
    fn completed_iterates_digests_in_index_order() {
        let instances: Vec<Instance> = (0..3).map(instance).collect();
        let outcomes = vec![
            InstanceOutcome::Completed(digest(true, 29, vec![])),
            InstanceOutcome::Invalid("no scenario".into()),
            InstanceOutcome::Completed(digest(false, 28, vec![("node1", "boom")])),
        ];
        let result = build("t", &instances, outcomes, DigestKey::default());
        let completed: Vec<usize> = result.completed().map(|(r, _)| r.index).collect();
        assert_eq!(completed, vec![0, 2]);
    }

    #[test]
    fn instance_line_mirrors_class_outcome_fields() {
        let record = InstanceRecord {
            index: 7,
            labels: vec![("seed".into(), "7".into())],
            outcome: InstanceOutcome::Completed(digest(false, 28, vec![("node1", "boom")])),
            wall_ns: Some(123),
        };
        let line = record.to_jsonl_line(&DigestKey::default());
        assert!(line.starts_with("{\"instance\":7,\"labels\":{\"seed\":\"7\"}"));
        assert!(line.contains("\"kind\":\"completed\""));
        assert!(line.contains("\"passed\":false"));
        assert!(line.contains("\"node2.Rcvd\":28"));
        assert!(line.contains("boom"));
        assert!(line.ends_with('}'));
        assert!(!line.contains('\n'));
        // Gated sections follow the key, exactly as class lines do.
        assert!(!line.contains("\"metrics\""));
        let keyed = record.to_jsonl_line(&DigestKey {
            metrics: true,
            ..DigestKey::default()
        });
        assert!(keyed.contains("\"metrics\":{\"counters\":{"));
        // Failure kinds render a message instead of digest fields.
        let crashed = InstanceRecord {
            index: 0,
            labels: vec![],
            outcome: InstanceOutcome::Crashed("worker panic".into()),
            wall_ns: None,
        };
        let line = crashed.to_jsonl_line(&DigestKey::default());
        assert_eq!(
            line,
            "{\"instance\":0,\"labels\":{},\"kind\":\"crashed\",\"message\":\"worker panic\"}"
        );
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a"), fnv1a64(b"a"));
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
    }
}
