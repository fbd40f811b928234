//! Sliding-window time series for live telemetry.
//!
//! A [`RollingWindow`] is a fixed-capacity ring of timestamped samples
//! layered *beside* the [`MetricsRegistry`](crate::MetricsRegistry):
//! counters and histograms answer "how much, ever", a window answers
//! "how fast, lately". The daemon keeps one window per live series
//! (instances completed, frames decoded, bytes in/out, per-instance
//! wall time) and derives rates and short-horizon percentiles from it
//! on every telemetry tick.
//!
//! Windows are deliberately dumb: no interior mutability, no clocks.
//! The caller supplies every timestamp (monotonic nanoseconds from its
//! own `Instant` anchor), which keeps the type trivially testable and
//! keeps wall-clock skew out of the math.

/// One timestamped observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Monotonic timestamp in nanoseconds (caller-defined epoch).
    pub t_ns: u64,
    /// Observed value — a delta for rate series (e.g. "3 instances
    /// finished"), an absolute measurement for latency series.
    pub value: u64,
}

/// A fixed-capacity ring of timestamped samples with windowed rate and
/// percentile queries.
///
/// When full, pushing evicts the sample pushed longest ago; queries only
/// consider samples inside the caller-supplied horizon, so capacity
/// bounds memory while the horizon bounds staleness.
#[derive(Debug, Clone)]
pub struct RollingWindow {
    ring: Vec<Sample>,
    /// The most samples held. Kept here, not read from `ring.capacity()`:
    /// a clone of the `Vec` allocates only its length.
    capacity: usize,
    /// Index of the sample pushed longest ago (ring is used circularly
    /// once full).
    head: usize,
    len: usize,
    /// Total samples ever pushed (not capped by capacity).
    pushed: u64,
}

impl RollingWindow {
    /// A window holding at most `capacity` samples. Capacity is clamped
    /// to at least 1.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RollingWindow {
            ring: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            len: 0,
            pushed: 0,
        }
    }

    /// Number of samples currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no samples are held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total samples ever pushed, including evicted ones.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Records `value` at time `t_ns`, evicting the sample pushed longest
    /// ago when full. Samples may arrive in any time order (a daemon's
    /// shards report when they finish, not when their instances did);
    /// queries read each sample's own timestamp.
    pub fn push(&mut self, t_ns: u64, value: u64) {
        let sample = Sample { t_ns, value };
        if self.ring.len() < self.capacity {
            self.ring.push(sample);
            self.len = self.ring.len();
        } else {
            self.ring[self.head] = sample;
            self.head = (self.head + 1) % self.capacity;
        }
        self.pushed += 1;
    }

    /// Iterates samples in push order.
    fn iter(&self) -> impl Iterator<Item = &Sample> {
        let (tail, head) = self.ring.split_at(self.head.min(self.ring.len()));
        head.iter().chain(tail.iter())
    }

    /// Sum of `value` over samples with `t_ns >= since_ns`.
    pub fn sum_since(&self, since_ns: u64) -> u64 {
        self.iter()
            .filter(|s| s.t_ns >= since_ns)
            .map(|s| s.value)
            .sum()
    }

    /// Events per second over the window `[now_ns - horizon_ns, now_ns]`,
    /// treating each sample's value as a count delta. Returns 0.0 when
    /// the horizon is empty or zero-width.
    pub fn rate_per_sec(&self, now_ns: u64, horizon_ns: u64) -> f64 {
        if horizon_ns == 0 {
            return 0.0;
        }
        let since = now_ns.saturating_sub(horizon_ns);
        let total = self.sum_since(since);
        if total == 0 {
            return 0.0;
        }
        // Scale by the *observed* span when the window hasn't covered a
        // full horizon yet, so early rates aren't under-reported — a
        // campaign 80 ms old shouldn't divide its count by 5 s. A sample
        // older than the horizon proves full coverage; otherwise the
        // span runs from the earliest held timestamp, wherever it sits in
        // push order (floored at 1 ms so a single fresh burst doesn't
        // read as an infinite rate).
        let oldest = self.iter().map(|s| s.t_ns).min().unwrap_or(since);
        let span = if oldest <= since {
            horizon_ns
        } else {
            now_ns
                .saturating_sub(oldest)
                .clamp(1_000_000.min(horizon_ns), horizon_ns)
        };
        total as f64 * 1e9 / span.max(1) as f64
    }

    /// The `p`-th percentile (0–100) of sample values inside the horizon,
    /// or `None` when the horizon holds no samples. Exact over the held
    /// samples (sorts a bounded scratch copy — capacity caps the cost).
    pub fn percentile(&self, now_ns: u64, horizon_ns: u64, p: f64) -> Option<u64> {
        let since = now_ns.saturating_sub(horizon_ns);
        let mut values: Vec<u64> = self
            .iter()
            .filter(|s| s.t_ns >= since)
            .map(|s| s.value)
            .collect();
        if values.is_empty() {
            return None;
        }
        values.sort_unstable();
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0 * values.len() as f64).ceil() as usize).clamp(1, values.len());
        Some(values[rank - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: u64 = 1_000_000_000;

    #[test]
    fn push_and_len_until_capacity() {
        let mut w = RollingWindow::new(3);
        assert!(w.is_empty());
        w.push(1, 10);
        w.push(2, 20);
        assert_eq!(w.len(), 2);
        w.push(3, 30);
        w.push(4, 40); // evicts t=1
        assert_eq!(w.len(), 3);
        assert_eq!(w.pushed(), 4);
        assert_eq!(w.sum_since(0), 90);
    }

    #[test]
    fn eviction_is_oldest_first() {
        let mut w = RollingWindow::new(2);
        w.push(1, 1);
        w.push(2, 2);
        w.push(3, 4);
        // t=1 evicted; survivors are t=2 and t=3.
        assert_eq!(w.sum_since(0), 6);
        assert_eq!(w.sum_since(3), 4);
    }

    #[test]
    fn rate_over_full_horizon() {
        let mut w = RollingWindow::new(16);
        // 10 events per second for 4 seconds.
        for i in 0..4u64 {
            w.push(i * SEC, 10);
        }
        let rate = w.rate_per_sec(4 * SEC, 4 * SEC);
        assert!((rate - 10.0).abs() < 1.5, "rate {rate} not ~10/s");
    }

    #[test]
    fn rate_scales_by_observed_span_when_young() {
        let mut w = RollingWindow::new(16);
        // One burst of 100 events 50 ms ago must not be divided by a
        // 5-second horizon.
        w.push(SEC, 100);
        let rate = w.rate_per_sec(SEC + 50_000_000, 5 * SEC);
        assert!(rate > 1000.0, "young-window rate {rate} under-reported");
    }

    #[test]
    fn a_young_rate_spans_from_the_earliest_sample_not_the_first_pushed() {
        // Two shards on two workers report out of time order: the sample
        // stamped at 2 ms arrives after the one stamped at 10 ms, so the
        // window has covered 2 ms .. 12 ms.
        let mut w = RollingWindow::new(8);
        w.push(10_000_000, 1);
        w.push(2_000_000, 1);
        assert_eq!(w.rate_per_sec(12_000_000, 5 * SEC), 200.0);
    }

    #[test]
    fn rate_ignores_samples_outside_horizon() {
        let mut w = RollingWindow::new(16);
        w.push(0, 1000);
        w.push(10 * SEC, 5);
        let rate = w.rate_per_sec(10 * SEC, SEC);
        // Only the t=10s sample is inside the 1-second horizon.
        assert!(rate < 100.0, "stale sample leaked into rate {rate}");
        assert_eq!(w.rate_per_sec(10 * SEC, 0), 0.0);
        assert_eq!(RollingWindow::new(4).rate_per_sec(SEC, SEC), 0.0);
    }

    #[test]
    fn percentiles_are_exact_over_window() {
        let mut w = RollingWindow::new(128);
        for v in 1..=100u64 {
            w.push(SEC, v);
        }
        assert_eq!(w.percentile(SEC, SEC, 50.0), Some(50));
        assert_eq!(w.percentile(SEC, SEC, 99.0), Some(99));
        assert_eq!(w.percentile(SEC, SEC, 100.0), Some(100));
        assert_eq!(w.percentile(SEC, SEC, 0.0), Some(1));
        assert_eq!(RollingWindow::new(4).percentile(SEC, SEC, 50.0), None);
        // Horizon excludes everything → None.
        assert_eq!(w.percentile(100 * SEC, SEC, 50.0), None);
    }

    #[test]
    fn a_clone_keeps_the_capacity_it_was_built_with() {
        let mut w = RollingWindow::new(8);
        for t in 0..3 {
            w.push(t, 1);
        }
        let mut clone = w.clone();
        for t in 3..11 {
            clone.push(t, 1);
        }
        assert_eq!(clone.len(), 8);
        assert_eq!(clone.sum_since(10), 1, "the newest sample is held");
    }

    #[test]
    fn capacity_is_clamped_to_one() {
        let mut w = RollingWindow::new(0);
        w.push(1, 7);
        w.push(2, 9);
        assert_eq!(w.len(), 1);
        assert_eq!(w.sum_since(0), 9);
    }
}
