//! Span records, collected traces, and the phase-attribution analyses
//! (self-times, folded stacks, per-category breakdown).

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// Which layer of the stack a span belongs to. Categories are the unit
/// of the [`PhaseBreakdown`]: every span charges its *self* time (own
/// duration minus direct children) to exactly one category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Category {
    /// The root span bracketing a whole measured region. Its self time
    /// is whatever no deeper span accounts for.
    Run,
    /// netsim event loop: `pop_at` batches, timer dispatch, per-device
    /// delivery.
    Event,
    /// Engine filter-table classification (Figure 4(b) step 1).
    Classify,
    /// Engine term-evaluation / condition cascade (steps 2–3).
    Cascade,
    /// Engine fault-action application (step 4).
    Action,
    /// TCP stack segment send/receive.
    Tcp,
    /// Campaign executor per-instance work.
    Campaign,
    /// `vw-serve` daemon work: scheduler dispatch, shard execution,
    /// checkpointing, client emission.
    Serve,
    /// Anything else.
    Other,
}

impl Category {
    /// Every category, in display order.
    pub const ALL: [Category; 9] = [
        Category::Run,
        Category::Event,
        Category::Classify,
        Category::Cascade,
        Category::Action,
        Category::Tcp,
        Category::Campaign,
        Category::Serve,
        Category::Other,
    ];

    /// Stable lowercase name used in exports and metric keys.
    pub fn as_str(self) -> &'static str {
        match self {
            Category::Run => "run",
            Category::Event => "event",
            Category::Classify => "classify",
            Category::Cascade => "cascade",
            Category::Action => "action",
            Category::Tcp => "tcp",
            Category::Campaign => "campaign",
            Category::Serve => "serve",
            Category::Other => "other",
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One completed span. `start_ns` is relative to the collector's enable
/// time on its thread; `seq` is assigned at span *creation*, so sorting
/// by `seq` yields pre-order (parents before children) and `depth` gives
/// the nesting level at creation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    pub name: &'static str,
    pub category: Category,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub depth: u16,
    pub seq: u64,
}

/// A drained collection of spans from one thread, sorted by `seq`
/// (creation order). Produced by [`crate::disable`].
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Completed spans in creation (`seq`) order.
    pub records: Vec<SpanRecord>,
    /// Records evicted because the ring buffer wrapped. When non-zero
    /// the oldest spans are missing and ancestor attribution for the
    /// survivors may be partial.
    pub dropped: u64,
    /// Collector id, unique per `enable()` call process-wide; used as
    /// the `tid` in Chrome exports so merged traces stay separable.
    pub tid: u32,
}

impl Trace {
    /// Number of collected spans.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing was collected.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Wall-clock width of the trace: from the earliest span start to
    /// the latest span end. Zero for an empty trace.
    pub fn wall_ns(&self) -> u64 {
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for r in &self.records {
            lo = lo.min(r.start_ns);
            hi = hi.max(r.start_ns + r.dur_ns);
        }
        hi.saturating_sub(if lo == u64::MAX { 0 } else { lo })
    }

    /// Per-record *self* time: own duration minus the summed durations
    /// of direct children, parallel to `records`. Nesting is
    /// reconstructed from `(seq, depth)`: records are in creation order,
    /// so a record's parent is the nearest preceding record with a
    /// smaller depth that is still open.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child_sum = vec![0u64; self.records.len()];
        let mut stack: Vec<usize> = Vec::new();
        for (i, r) in self.records.iter().enumerate() {
            while let Some(&top) = stack.last() {
                if self.records[top].depth >= r.depth {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&parent) = stack.last() {
                child_sum[parent] += r.dur_ns;
            }
            stack.push(i);
        }
        // Clamp: clock jitter or ring eviction can make children appear
        // to outlast a parent; self time is never negative.
        self.records
            .iter()
            .zip(&child_sum)
            .map(|(r, &c)| r.dur_ns.saturating_sub(c))
            .collect()
    }

    /// Folded-stack text: one `a;b;c <self_ns>` line per distinct stack
    /// path, sorted by path, suitable for `flamegraph.pl` (counts are
    /// nanoseconds of self time).
    pub fn to_folded(&self) -> String {
        let selfs = self.self_times();
        let mut stack: Vec<(u16, &'static str)> = Vec::new();
        let mut agg: BTreeMap<String, u64> = BTreeMap::new();
        for (i, r) in self.records.iter().enumerate() {
            while stack.last().is_some_and(|&(d, _)| d >= r.depth) {
                stack.pop();
            }
            stack.push((r.depth, r.name));
            if selfs[i] == 0 {
                continue;
            }
            let mut path = String::new();
            for (j, &(_, name)) in stack.iter().enumerate() {
                if j > 0 {
                    path.push(';');
                }
                path.push_str(name);
            }
            *agg.entry(path).or_default() += selfs[i];
        }
        let mut out = String::new();
        for (path, ns) in &agg {
            let _ = writeln!(out, "{path} {ns}");
        }
        out
    }

    /// Chrome trace-event JSON for this trace alone. See
    /// [`crate::chrome_json_many`] to merge several threads' traces into
    /// one file.
    pub fn to_chrome_json(&self) -> String {
        crate::export::chrome_json_many(std::slice::from_ref(self))
    }

    /// Aggregates self time by [`Category`].
    pub fn phase_breakdown(&self) -> PhaseBreakdown {
        let selfs = self.self_times();
        let mut stats: BTreeMap<Category, CategoryStats> = BTreeMap::new();
        for (r, &s) in self.records.iter().zip(&selfs) {
            let e = stats.entry(r.category).or_default();
            e.spans += 1;
            e.total_ns += r.dur_ns;
            e.self_ns += s;
        }
        PhaseBreakdown {
            categories: Category::ALL
                .iter()
                .filter_map(|&c| stats.get(&c).map(|&s| (c, s)))
                .collect(),
            wall_ns: self.wall_ns(),
            dropped: self.dropped,
        }
    }
}

/// Aggregate timing for one [`Category`]: how many spans, their summed
/// durations (children included — nested categories overlap here), and
/// their summed *self* time (exclusive — self times partition the wall
/// clock).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CategoryStats {
    pub spans: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Per-category self-time attribution for a trace. When the measured
/// region is bracketed by a single root span (category
/// [`Category::Run`]), the `self_ns` values sum to exactly the root
/// span's duration: every nanosecond of the run is charged to precisely
/// one category.
#[derive(Debug, Clone, Default)]
pub struct PhaseBreakdown {
    /// `(category, stats)` in [`Category::ALL`] order; categories with
    /// no spans are omitted.
    pub categories: Vec<(Category, CategoryStats)>,
    /// Trace width (earliest start to latest end).
    pub wall_ns: u64,
    /// Ring-buffer evictions in the underlying trace.
    pub dropped: u64,
}

impl PhaseBreakdown {
    /// Sum of self time across all categories. With a single root span
    /// this equals the root's duration.
    pub fn total_self_ns(&self) -> u64 {
        self.categories.iter().map(|(_, s)| s.self_ns).sum()
    }

    /// Stats for one category, if any spans were recorded in it.
    pub fn get(&self, cat: Category) -> Option<CategoryStats> {
        self.categories
            .iter()
            .find(|(c, _)| *c == cat)
            .map(|&(_, s)| s)
    }

    /// Human-readable attribution table.
    pub fn to_table(&self) -> String {
        let total = self.total_self_ns().max(1);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<10} {:>10} {:>14} {:>14} {:>7}",
            "phase", "spans", "total_ns", "self_ns", "self%"
        );
        for (cat, s) in &self.categories {
            let _ = writeln!(
                out,
                "{:<10} {:>10} {:>14} {:>14} {:>6.1}%",
                cat.as_str(),
                s.spans,
                s.total_ns,
                s.self_ns,
                100.0 * s.self_ns as f64 / total as f64
            );
        }
        let _ = writeln!(
            out,
            "{:<10} {:>10} {:>14} {:>14} {:>7}",
            "wall",
            "",
            self.wall_ns,
            self.total_self_ns(),
            ""
        );
        if self.dropped > 0 {
            let _ = writeln!(out, "(ring buffer dropped {} records)", self.dropped);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(
        name: &'static str,
        category: Category,
        start_ns: u64,
        dur_ns: u64,
        depth: u16,
        seq: u64,
    ) -> SpanRecord {
        SpanRecord {
            name,
            category,
            start_ns,
            dur_ns,
            depth,
            seq,
        }
    }

    /// run(0..100) { a(10..40) { b(15..25) } c(50..90) }
    fn sample() -> Trace {
        Trace {
            records: vec![
                rec("run", Category::Run, 0, 100, 0, 0),
                rec("a", Category::Event, 10, 30, 1, 1),
                rec("b", Category::Classify, 15, 10, 2, 2),
                rec("c", Category::Tcp, 50, 40, 1, 3),
            ],
            dropped: 0,
            tid: 1,
        }
    }

    #[test]
    fn self_times_subtract_direct_children() {
        let t = sample();
        assert_eq!(t.self_times(), vec![100 - 30 - 40, 30 - 10, 10, 40]);
    }

    #[test]
    fn self_times_partition_the_root() {
        let t = sample();
        let total: u64 = t.self_times().iter().sum();
        assert_eq!(total, 100);
        assert_eq!(t.phase_breakdown().total_self_ns(), 100);
        assert_eq!(t.wall_ns(), 100);
    }

    #[test]
    fn siblings_at_same_depth_do_not_nest() {
        // x(0..10) then y(10..20) at the same depth: y is not x's child.
        let t = Trace {
            records: vec![
                rec("x", Category::Other, 0, 10, 0, 0),
                rec("y", Category::Other, 10, 10, 0, 1),
            ],
            dropped: 0,
            tid: 0,
        };
        assert_eq!(t.self_times(), vec![10, 10]);
    }

    #[test]
    fn folded_paths_follow_nesting() {
        let folded = sample().to_folded();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines, vec!["run 30", "run;a 20", "run;a;b 10", "run;c 40"]);
    }

    #[test]
    fn breakdown_groups_by_category() {
        let pb = sample().phase_breakdown();
        assert_eq!(
            pb.get(Category::Event),
            Some(CategoryStats {
                spans: 1,
                total_ns: 30,
                self_ns: 20
            })
        );
        assert_eq!(pb.get(Category::Campaign), None);
        let table = pb.to_table();
        assert!(table.contains("classify"));
        assert!(table.contains("wall"));
    }

    #[test]
    fn empty_trace_is_harmless() {
        let t = Trace::default();
        assert!(t.is_empty());
        assert_eq!(t.wall_ns(), 0);
        assert_eq!(t.phase_breakdown().total_self_ns(), 0);
        assert_eq!(t.to_folded(), "");
    }
}
