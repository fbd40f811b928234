//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's files, around each call into a
//! layer's public API; nothing inside the crates under test is touched.
//! Records stay in memory and are written as Chrome trace-event JSON when
//! the run ends. A disabled recorder costs one branch per span.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Phase name (`compile`, `build_world`, `run`, …).
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Repetition the span belongs to (shared by all spans of one rep).
    pub rep: u32,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    base: Instant,
    rep: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder that records (`true`) or only runs the closures.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            base: Instant::now(),
            rep: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Sets the repetition id stamped on subsequent spans.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Runs `f` inside a span called `name`; nested calls become children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.base.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every recorded span, in start order.
    #[cfg(test)]
    pub fn records(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: its duration minus its direct children's.
    pub fn self_times(&self) -> Vec<u64> {
        let mut selfs: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                selfs[parent] = selfs[parent].saturating_sub(span.dur_ns());
            }
        }
        selfs
    }

    /// Self time summed by span name within each repetition:
    /// `rep -> name -> ns`. Within one rep the values add up to exactly
    /// the duration of that rep's root span.
    pub fn self_by_rep(&self) -> BTreeMap<u32, BTreeMap<&'static str, u64>> {
        let mut out: BTreeMap<u32, BTreeMap<&'static str, u64>> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times()) {
            *out.entry(span.rep)
                .or_default()
                .entry(span.name)
                .or_default() += self_ns;
        }
        out
    }

    /// Chrome trace-event JSON (load in Perfetto or `chrome://tracing`).
    pub fn to_chrome_json(&self) -> String {
        let mut s = String::from("{\"traceEvents\":[");
        for (id, span) in self.spans.iter().enumerate() {
            if id > 0 {
                s.push(',');
            }
            let parent = span.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                s,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{id},\"parent\":{parent},\"rep\":{}}}}}",
                span.name,
                span.start_ns as f64 / 1e3,
                span.dur_ns() as f64 / 1e3,
                span.rep
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy() {
        std::hint::black_box((0..2000u64).fold(0u64, |a, i| a ^ i.wrapping_mul(31)));
    }

    #[test]
    fn self_times_partition_the_root_span_exactly() {
        let mut spans = Spans::new(true);
        spans.set_rep(7);
        spans.span("rep", |s| {
            busy();
            s.span("setup", |s| {
                s.span("compile", |_| busy());
                busy();
                s.span("install", |_| busy());
            });
            s.span("run", |_| busy());
        });
        let root = spans.records()[0];
        assert_eq!(root.name, "rep");
        assert_eq!(root.parent, None);
        assert_eq!(spans.records()[2].parent, Some(1));
        let by_rep = spans.self_by_rep();
        let total: u64 = by_rep[&7].values().sum();
        assert_eq!(total, root.end_ns - root.start_ns);
        assert_eq!(by_rep[&7].len(), 5);
    }

    #[test]
    fn disabled_recorder_records_nothing_and_still_runs_the_closure() {
        let mut spans = Spans::new(false);
        assert_eq!(spans.span("x", |s| s.span("y", |_| 41) + 1), 42);
        assert!(spans.records().is_empty());
    }

    #[test]
    fn chrome_json_loads_in_the_workspace_parser() {
        let mut spans = Spans::new(true);
        spans.span("rep", |s| s.span("run", |_| busy()));
        let events = vw_trace::validate_chrome_json(&spans.to_chrome_json()).expect("valid");
        assert_eq!(events, 2);
    }
}
