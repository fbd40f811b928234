//! The thread-local span collector.
//!
//! [`span`] stamps a monotone clock and its guard's `Drop` pushes a
//! [`SpanRecord`] into a thread-local ring buffer; when the ring is full
//! the oldest record is evicted and counted. While the collector is not
//! [`enable`]d a span costs one thread-local flag check — [`span`] reads
//! `ENABLED` once, and the guard's `Drop` tests only its own `active`
//! field, inline, so closing a span that never opened touches no
//! thread-local at all; both recording paths are out of line. What
//! enabling the collector adds is `trace.overhead_pct` in `vwbench`.
//!
//! The collector is strictly per-thread: [`enable`]/[`disable`] pair on
//! the calling thread, and traces from several threads merge at export
//! time via [`crate::chrome_json_many`] (each carries a process-unique
//! `tid`).

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

use crate::record::{Category, SpanRecord, Trace};

/// Process-wide collector id counter, so traces gathered on several
/// threads (or sequentially on one) stay separable in merged exports.
static NEXT_TID: AtomicU32 = AtomicU32::new(1);

struct Collector {
    base: Instant,
    depth: u16,
    seq: u64,
    /// Ring storage; grows to `cap` then wraps at `head`.
    ring: Vec<SpanRecord>,
    cap: usize,
    head: usize,
    dropped: u64,
    tid: u32,
}

impl Collector {
    fn push(&mut self, rec: SpanRecord) {
        if self.ring.len() < self.cap {
            self.ring.push(rec);
        } else {
            self.ring[self.head] = rec;
            self.head = (self.head + 1) % self.cap.max(1);
            self.dropped += 1;
        }
    }
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

/// An RAII span handle; its `Drop` records the completed span.
/// Inert (a test of its own `active` field) when opened with the
/// collector disabled.
#[must_use = "a span measures the scope it is bound to; binding to _ drops it immediately"]
pub struct SpanGuard {
    active: bool,
    name: &'static str,
    category: Category,
    start_ns: u64,
    depth: u16,
    seq: u64,
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if self.active {
            self.record();
        }
    }
}

impl SpanGuard {
    /// The enabled path of `Drop`. If the collector was [`disable`]d since
    /// the span opened there is nothing to close it into, and the record
    /// is dropped.
    #[cold]
    #[inline(never)]
    fn record(&self) {
        COLLECTOR.with(|c| {
            let mut slot = c.borrow_mut();
            let Some(col) = slot.as_mut() else { return };
            let end_ns = col.base.elapsed().as_nanos() as u64;
            col.depth = col.depth.saturating_sub(1);
            let rec = SpanRecord {
                name: self.name,
                category: self.category,
                start_ns: self.start_ns,
                dur_ns: end_ns.saturating_sub(self.start_ns),
                depth: self.depth,
                seq: self.seq,
            };
            col.push(rec);
        });
    }
}

/// Opens a span; the returned guard records it when dropped.
#[inline]
pub fn span(name: &'static str, category: Category) -> SpanGuard {
    if ENABLED.with(|e| e.get()) {
        return open(name, category);
    }
    SpanGuard {
        active: false,
        name,
        category,
        start_ns: 0,
        depth: 0,
        seq: 0,
    }
}

/// The enabled path of [`span`].
#[cold]
#[inline(never)]
fn open(name: &'static str, category: Category) -> SpanGuard {
    COLLECTOR.with(|c| {
        let mut slot = c.borrow_mut();
        let col = slot.as_mut().expect("enabled implies collector");
        let start_ns = col.base.elapsed().as_nanos() as u64;
        let depth = col.depth;
        col.depth = col.depth.saturating_add(1);
        let seq = col.seq;
        col.seq += 1;
        SpanGuard {
            active: true,
            name,
            category,
            start_ns,
            depth,
            seq,
        }
    })
}

/// Starts collecting spans on this thread into a fresh ring buffer
/// of at most `capacity` records (~48 bytes each). Any previously
/// collected but undrained records are discarded.
pub fn enable(capacity: usize) {
    COLLECTOR.with(|c| {
        *c.borrow_mut() = Some(Collector {
            base: Instant::now(),
            depth: 0,
            seq: 0,
            ring: Vec::with_capacity(capacity.clamp(1, 1 << 20)),
            cap: capacity.max(1),
            head: 0,
            dropped: 0,
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        });
    });
    ENABLED.with(|e| e.set(true));
}

/// Stops collecting on this thread and drains the collected spans,
/// sorted by creation order. Spans still open when `disable` is
/// called are not recorded.
pub fn disable() -> Trace {
    ENABLED.with(|e| e.set(false));
    COLLECTOR.with(|c| {
        let Some(col) = c.borrow_mut().take() else {
            return Trace::default();
        };
        let mut records = col.ring;
        // Completion order != creation order for nested spans (and
        // the ring may have wrapped); creation order is what the
        // stack-reconstruction analyses need.
        records.sort_unstable_by_key(|r| r.seq);
        Trace {
            records,
            dropped: col.dropped,
            tid: col.tid,
        }
    })
}

/// True while this thread is collecting.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.with(|e| e.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Category;

    #[test]
    fn spans_record_nesting_and_order() {
        enable(1024);
        {
            let _run = span("run", Category::Run);
            for _ in 0..3 {
                let _inner = span("inner", Category::Event);
                let _leaf = span("leaf", Category::Classify);
            }
        }
        let trace = disable();
        assert_eq!(trace.records.len(), 7);
        assert_eq!(trace.dropped, 0);
        // Creation order with correct depths.
        assert_eq!(trace.records[0].name, "run");
        assert_eq!(trace.records[0].depth, 0);
        assert_eq!(trace.records[1].name, "inner");
        assert_eq!(trace.records[1].depth, 1);
        assert_eq!(trace.records[2].name, "leaf");
        assert_eq!(trace.records[2].depth, 2);
        assert!(trace
            .records
            .windows(2)
            .all(|w| w[0].seq < w[1].seq && w[0].start_ns <= w[1].start_ns));
        // The root span covers its children.
        let run = trace.records[0];
        assert!(trace
            .records
            .iter()
            .all(|r| r.start_ns + r.dur_ns <= run.start_ns + run.dur_ns));
    }

    #[test]
    fn disabled_thread_records_nothing() {
        assert!(!is_enabled());
        let _s = span("ignored", Category::Other);
        drop(_s);
        // No enable() happened, so disable() drains nothing.
        assert!(disable().is_empty());
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        enable(4);
        for _ in 0..10 {
            let _s = span("s", Category::Other);
        }
        let trace = disable();
        assert_eq!(trace.records.len(), 4);
        assert_eq!(trace.dropped, 6);
        // Survivors are the newest records, still in seq order.
        let seqs: Vec<u64> = trace.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn re_enable_resets_state() {
        enable(16);
        {
            let _a = span("a", Category::Other);
        }
        enable(16);
        {
            let _b = span("b", Category::Other);
        }
        let trace = disable();
        assert_eq!(trace.records.len(), 1);
        assert_eq!(trace.records[0].name, "b");
        assert_eq!(trace.records[0].seq, 0);
    }

    #[test]
    fn span_open_across_disable_is_dropped_silently() {
        enable(16);
        let open = span("open", Category::Other);
        let trace = disable();
        assert!(trace.is_empty());
        drop(open); // must not panic or pollute a later trace
        enable(16);
        let trace = disable();
        assert!(trace.is_empty());
    }

    #[test]
    fn distinct_enables_get_distinct_tids() {
        enable(4);
        let a = disable();
        enable(4);
        let b = disable();
        assert_ne!(a.tid, b.tid);
    }
}
