//! Campaign-wide analytics: folding per-instance metrics into one
//! aggregate report, per-axis breakdowns, and baseline diffing.
//!
//! A campaign's [`CampaignResult`](vw_campaign::CampaignResult) dedups
//! *outcomes*; this module aggregates *performance*: every completed
//! instance's compact [`MetricsDigest`](vw_campaign::MetricsDigest) is
//! folded into campaign-wide counter totals and merged histograms,
//! broken down along each sweep axis, and two aggregates can be diffed
//! to flag regressions beyond a threshold. Everything is ordered by
//! name (and axes by first-instance label order), so the exports are
//! byte-identical regardless of worker-thread count.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use vw_campaign::CampaignResult;
use vw_obs::{json_string, Histogram};

/// One value-group of an axis breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct AxisGroup {
    /// The axis value.
    pub value: String,
    /// Instances swept at this value.
    pub instances: usize,
    /// How many of them passed.
    pub passed: usize,
    /// Counter totals across the group, ascending by name.
    pub counters: Vec<(String, u64)>,
}

/// Aggregate metrics broken down along one sweep axis.
#[derive(Debug, Clone, PartialEq)]
pub struct AxisBreakdown {
    /// The axis name.
    pub axis: String,
    /// Per-value groups, in first-appearance order (= sweep order).
    pub groups: Vec<AxisGroup>,
}

/// One flagged regression from [`CampaignReport::diff`].
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// The regressed metric (`drops`, `classify_to_action_ns.p99`, ...).
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// `current / baseline`.
    pub ratio: f64,
}

impl Regression {
    /// One-line human rendering.
    pub fn render(&self) -> String {
        format!(
            "{}: {} -> {} ({:.2}x)",
            self.metric, self.baseline, self.current, self.ratio
        )
    }
}

/// The campaign-wide aggregate: totals, merged distributions, and
/// per-axis breakdowns.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignReport {
    /// Instances aggregated.
    pub instances: usize,
    /// How many passed.
    pub passed: usize,
    /// Campaign-wide counter totals, ascending by name.
    pub counters: Vec<(String, u64)>,
    /// Campaign-wide merged histograms, ascending by name.
    pub histograms: Vec<(String, Histogram)>,
    /// One breakdown per sweep axis, in sweep-axis order.
    pub breakdowns: Vec<AxisBreakdown>,
    /// Distribution of per-instance host wall-clock durations, over the
    /// instances that carried one. Empty when the executor did not time
    /// instances. Wall times are profiling data: they vary run to run,
    /// so they live beside — never inside — the deterministic metrics.
    pub wall_ns: Histogram,
}

impl CampaignReport {
    /// Folds every completed instance of a campaign result (the entry
    /// point after [`run_campaign`](vw_campaign::run_campaign)) into the
    /// aggregate report.
    pub fn of(result: &CampaignResult) -> CampaignReport {
        let mut counters: BTreeMap<&str, u64> = BTreeMap::new();
        let mut histograms: BTreeMap<&str, Histogram> = BTreeMap::new();
        let mut report = CampaignReport::default();
        // Axis order follows the first instance's labels; group order is
        // first appearance, which for a cross-product sweep is the axis's
        // declared value order.
        for (record, digest) in result.completed() {
            report.instances += 1;
            report.passed += usize::from(digest.passed);
            if let Some(ns) = record.wall_ns {
                report.wall_ns.observe(ns);
            }
            let metrics = &digest.metrics;
            for (name, v) in &metrics.counters {
                *counters.entry(&**name).or_insert(0) += v;
            }
            for (name, h) in &metrics.histograms {
                histograms.entry(&**name).or_default().merge(h);
            }
            for (axis, value) in &record.labels {
                let axes = &mut report.breakdowns;
                let breakdown = match axes.iter().position(|b| *b.axis == **axis) {
                    Some(b) => &mut axes[b],
                    None => {
                        axes.push(AxisBreakdown {
                            axis: axis.to_string(),
                            groups: Vec::new(),
                        });
                        axes.last_mut().expect("pushed")
                    }
                };
                let groups = &mut breakdown.groups;
                let group = match groups.iter().position(|g| *g.value == **value) {
                    Some(g) => &mut groups[g],
                    None => {
                        groups.push(AxisGroup {
                            value: value.to_string(),
                            instances: 0,
                            passed: 0,
                            counters: Vec::new(),
                        });
                        groups.last_mut().expect("pushed")
                    }
                };
                group.instances += 1;
                group.passed += usize::from(digest.passed);
                for (name, v) in &metrics.counters {
                    match group.counters.binary_search_by(|(n, _)| (**n).cmp(&**name)) {
                        Ok(i) => group.counters[i].1 += v,
                        Err(i) => group.counters.insert(i, (name.to_string(), *v)),
                    }
                }
            }
        }
        report.counters = counters
            .into_iter()
            .map(|(name, v)| (name.to_string(), v))
            .collect();
        report.histograms = histograms
            .into_iter()
            .map(|(name, h)| (name.to_string(), h))
            .collect();
        report
    }

    /// A campaign-wide counter total, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// A campaign-wide merged histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// The breakdown along one axis, if present.
    pub fn breakdown(&self, axis: &str) -> Option<&AxisBreakdown> {
        self.breakdowns.iter().find(|b| b.axis == axis)
    }

    /// `(max, mean)` per-instance wall-clock duration in nanoseconds, or
    /// `None` when no instance carried a duration.
    pub fn wall_ns_aggregates(&self) -> Option<(u64, u64)> {
        if self.wall_ns.is_empty() {
            return None;
        }
        Some((self.wall_ns.max(), self.wall_ns.mean() as u64))
    }

    /// Flags metrics that regressed from `baseline` to `self` by more
    /// than `threshold` (fractional: `0.2` = 20%). Counters compare
    /// totals; histograms compare p99 (the latency convention) and are
    /// skipped when either side is empty. Results are ordered by metric
    /// name — deterministic for fixed inputs.
    pub fn diff(&self, baseline: &CampaignReport, threshold: f64) -> Vec<Regression> {
        let mut regressions = Vec::new();
        for (name, current) in &self.counters {
            let current = *current;
            let Some(base) = baseline.counter(name) else {
                continue;
            };
            if base > 0 && current as f64 > base as f64 * (1.0 + threshold) {
                regressions.push(Regression {
                    metric: name.clone(),
                    baseline: base as f64,
                    current: current as f64,
                    ratio: current as f64 / base as f64,
                });
            }
        }
        for (name, h) in &self.histograms {
            let Some(base) = baseline.histogram(name) else {
                continue;
            };
            if base.is_empty() || h.is_empty() {
                continue;
            }
            let (base_p99, cur_p99) = (base.percentile(99.0), h.percentile(99.0));
            if base_p99 > 0 && cur_p99 as f64 > base_p99 as f64 * (1.0 + threshold) {
                regressions.push(Regression {
                    metric: format!("{name}.p99"),
                    baseline: base_p99 as f64,
                    current: cur_p99 as f64,
                    ratio: cur_p99 as f64 / base_p99 as f64,
                });
            }
        }
        regressions
    }

    /// The aggregate as JSON lines: one header object, one object per
    /// counter and histogram, one per axis group. Byte-identical for a
    /// fixed instance list.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"aggregate\":true,\"instances\":{},\"passed\":{}}}",
            self.instances, self.passed
        );
        for (name, value) in &self.counters {
            out.push_str("{\"counter\":");
            json_string(&mut out, name);
            let _ = writeln!(out, ",\"total\":{value}}}");
        }
        for (name, h) in &self.histograms {
            out.push_str("{\"histogram\":");
            json_string(&mut out, name);
            let _ = writeln!(
                out,
                ",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                h.count(),
                h.sum(),
                h.min(),
                h.max(),
                h.percentile(50.0),
                h.percentile(90.0),
                h.percentile(99.0),
            );
        }
        // Wall-clock aggregates are deliberately absent here: to_jsonl is
        // the deterministic artifact (byte-identical across runs and
        // thread counts), and host wall times are neither. They surface
        // via `wall_ns_aggregates()` and the human `render()` instead.
        for breakdown in &self.breakdowns {
            for group in &breakdown.groups {
                out.push_str("{\"axis\":");
                json_string(&mut out, &breakdown.axis);
                out.push_str(",\"value\":");
                json_string(&mut out, &group.value);
                let _ = write!(
                    out,
                    ",\"instances\":{},\"passed\":{},\"counters\":{{",
                    group.instances, group.passed
                );
                for (j, (name, v)) in group.counters.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    json_string(&mut out, name);
                    let _ = write!(out, ":{v}");
                }
                out.push_str("}}\n");
            }
        }
        out
    }

    /// Human-readable summary of the aggregate.
    pub fn render(&self) -> String {
        let mut out = format!(
            "campaign aggregate: {} instances, {} passed\n",
            self.instances, self.passed
        );
        for (name, value) in &self.counters {
            let _ = writeln!(out, "  {name}: {value}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "  {name}: n={} p50={} p99={} max={}",
                h.count(),
                h.percentile(50.0),
                h.percentile(99.0),
                h.max(),
            );
        }
        if let Some((max, mean)) = self.wall_ns_aggregates() {
            let _ = writeln!(
                out,
                "  instance wall: n={} mean={}ns max={}ns",
                self.wall_ns.count(),
                mean,
                max
            );
        }
        for breakdown in &self.breakdowns {
            let _ = writeln!(out, "  by {}:", breakdown.axis);
            for group in &breakdown.groups {
                let _ = writeln!(
                    out,
                    "    {} = {}: {}/{} passed",
                    breakdown.axis, group.value, group.passed, group.instances
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vw_campaign::{DigestKey, InstanceOutcome, InstanceRecord, MetricsDigest, OutcomeDigest};

    /// A completed instance whose two nodes dropped `drops` and 1.
    fn instance(seed: &str, drops: u64, passed: bool, latencies: &[u64]) -> InstanceRecord {
        let mut latency = Histogram::default();
        for &v in latencies {
            latency.observe(v);
        }
        let histograms = if latency.is_empty() {
            Vec::new()
        } else {
            vec![("classify_to_action_ns".into(), latency)]
        };
        let digest = OutcomeDigest {
            passed,
            stop: "deadline reached".into(),
            errors: Vec::new(),
            counters: Vec::new(),
            stats: Vec::new(),
            metrics: MetricsDigest {
                counters: vec![("drops".into(), drops + 1)],
                histograms,
            },
            conformance: Vec::new(),
        };
        InstanceRecord {
            index: 0,
            labels: vec![
                ("seed".into(), seed.into()),
                ("impairment".into(), "none".into()),
            ],
            outcome: InstanceOutcome::Completed(digest),
            wall_ns: None,
        }
    }

    /// The report of a campaign whose instances are `records`.
    fn report(records: Vec<InstanceRecord>) -> CampaignReport {
        let result = CampaignResult {
            name: "unit".into(),
            key: DigestKey::default(),
            instances: records,
            classes: Vec::new(),
        };
        CampaignReport::of(&result)
    }

    #[test]
    fn aggregate_sums_counters_and_merges_histograms() {
        let report = report(vec![
            instance("1", 2, true, &[100, 200]),
            instance("2", 3, false, &[400]),
        ]);
        assert_eq!(report.instances, 2);
        assert_eq!(report.passed, 1);
        assert_eq!(report.counter("drops"), Some(7)); // 2+1 + 3+1
        let h = report.histogram("classify_to_action_ns").expect("merged");
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), 400);
    }

    #[test]
    fn only_completed_instances_are_folded() {
        let mut crashed = instance("3", 0, true, &[]);
        crashed.outcome = InstanceOutcome::Crashed("boom".into());
        let report = report(vec![instance("1", 2, true, &[]), crashed]);
        assert_eq!(report.instances, 1);
        assert_eq!(report.breakdown("seed").expect("axis").groups.len(), 1);
    }

    #[test]
    fn breakdowns_group_by_axis_value() {
        let report = report(vec![
            instance("1", 2, true, &[]),
            instance("1", 4, true, &[]),
            instance("2", 8, false, &[]),
        ]);
        let by_seed = report.breakdown("seed").expect("axis");
        assert_eq!(by_seed.groups.len(), 2);
        assert_eq!(by_seed.groups[0].value, "1");
        assert_eq!(by_seed.groups[0].instances, 2);
        assert_eq!(by_seed.groups[0].passed, 2);
        let drops: Vec<u64> = by_seed
            .groups
            .iter()
            .map(|g| g.counters.iter().find(|(n, _)| n == "drops").unwrap().1)
            .collect();
        assert_eq!(drops, vec![8, 9]); // (2+1)+(4+1) and (8+1)
        assert_eq!(
            report.breakdown("impairment").expect("axis").groups.len(),
            1
        );
    }

    #[test]
    fn diff_flags_regressions_beyond_threshold() {
        let baseline = report(vec![instance("1", 10, true, &[100, 100, 100])]);
        let current = report(vec![instance("1", 11, true, &[100, 100, 100_000])]);
        let regressions = current.diff(&baseline, 0.2);
        // drops grew 10 -> 12 (20%): not beyond threshold; p99 exploded.
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].metric.ends_with(".p99"), "{regressions:?}");
        assert!(regressions[0].ratio > 100.0);
        assert!(regressions[0].render().contains("p99"));
        // A same-shape aggregate has no regressions.
        assert!(current.diff(&current, 0.2).is_empty());
    }

    #[test]
    fn wall_clock_aggregates_surface_max_and_mean() {
        let mut a = instance("1", 0, true, &[]);
        a.wall_ns = Some(1_000);
        let mut b = instance("2", 0, true, &[]);
        b.wall_ns = Some(3_000);
        let c = instance("3", 0, true, &[]); // untimed: skipped, not zero
        let report = report(vec![a, b, c]);
        assert_eq!(report.wall_ns.count(), 2);
        assert_eq!(report.wall_ns_aggregates(), Some((3_000, 2_000)));
        assert!(report
            .render()
            .contains("instance wall: n=2 mean=2000ns max=3000ns"));
        // The JSONL export stays wall-free: it is the deterministic
        // artifact, and wall times differ on every run.
        assert!(!report.to_jsonl().contains("wall"));
    }

    #[test]
    fn untimed_campaigns_omit_wall_aggregates() {
        let report = report(vec![instance("1", 0, true, &[])]);
        assert_eq!(report.wall_ns_aggregates(), None);
        assert!(!report.render().contains("instance wall"));
    }

    #[test]
    fn exports_are_deterministic() {
        let build = || {
            report(vec![
                instance("1", 2, true, &[100]),
                instance("2", 3, true, &[200]),
            ])
        };
        let (a, b) = (build(), build());
        assert_eq!(a.to_jsonl(), b.to_jsonl());
        assert_eq!(a.render(), b.render());
        let jsonl = a.to_jsonl();
        assert!(jsonl.starts_with("{\"aggregate\":true,\"instances\":2,\"passed\":2}\n"));
        assert!(jsonl.contains("{\"counter\":\"drops\",\"total\":7}"));
        assert!(jsonl.contains("\"axis\":\"seed\""));
        assert!(a.render().contains("by seed:"));
    }
}
