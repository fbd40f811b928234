//! Order statistics over per-repetition samples.
//!
//! Host noise on a small shared box is one-sided: a repetition is never
//! faster than the quiet machine allows, only slower. The gated value of
//! a host-time metric is therefore a low quantile (see README.md,
//! "Estimator"), and the median and a high percentile ride along so the
//! shape of the distribution stays visible.

/// Sorted samples.
#[derive(Debug, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Sorts `values`; NaNs are a caller bug.
    pub fn new(mut values: Vec<f64>) -> Self {
        assert!(!values.is_empty(), "at least one sample");
        values.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
        Samples(values)
    }

    /// Sample count.
    pub fn n(&self) -> usize {
        self.0.len()
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between
    /// closest ranks.
    pub fn quantile(&self, q: f64) -> f64 {
        let pos = q.clamp(0.0, 1.0) * (self.0.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        self.0[lo] + (self.0[hi] - self.0[lo]) * (pos - lo as f64)
    }

    /// The quiet decile.
    pub fn p10(&self) -> f64 {
        self.quantile(0.10)
    }

    /// The median.
    pub fn median(&self) -> f64 {
        self.quantile(0.50)
    }

    /// The highest of p50 / p90 / p95 / p99 / p99.9 that still has at
    /// least ten samples beyond it, as `(percentile, value)`. With fewer
    /// than twenty samples only the median qualifies.
    pub fn high_percentile(&self) -> (f64, f64) {
        let mut best = 500;
        for per_mille in [900, 950, 990, 999] {
            if self.0.len() * (1000 - per_mille) / 1000 >= 10 {
                best = per_mille;
            }
        }
        (best as f64 / 10.0, self.quantile(best as f64 / 1000.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = Samples::new((1..=11).map(f64::from).collect());
        assert_eq!(s.p10(), 2.0);
        assert_eq!(s.median(), 6.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 11.0);
        let s = Samples::new(vec![4.0, 2.0]);
        assert_eq!(s.median(), 3.0);
    }

    #[test]
    fn high_percentile_needs_ten_samples_beyond() {
        let of = |n: usize| Samples::new((0..n).map(|i| i as f64).collect()).high_percentile();
        assert_eq!(of(19).0, 50.0);
        assert_eq!(of(100).0, 90.0);
        assert_eq!(of(200).0, 95.0);
        assert_eq!(of(1000).0, 99.0);
        assert_eq!(of(10_000).0, 99.9);
        assert_eq!(
            of(100).1,
            Samples::new((0..100).map(f64::from).collect()).quantile(0.9)
        );
    }
}
