//! Link error models: frame loss and bit corruption.

use rand::rngs::StdRng;
use rand::Rng;

use vw_packet::Frame;

/// What the wire did to a frame in transit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkOutcome {
    /// The frame arrived unchanged.
    Delivered,
    /// The frame was lost entirely.
    Lost,
    /// One or more bits were flipped (the mutated frame is delivered;
    /// integrity checks upstream decide its fate).
    Corrupted {
        /// How many bits were flipped.
        bits_flipped: u32,
    },
}

/// A stochastic model of what a physical link does to frames.
///
/// VirtualWire's *Reliable Link Layer* exists precisely because of this:
/// MAC-level bit errors must never cause a packet loss the fault injection
/// engine is unaware of (Section 3.3). Tests drive the RLL against this
/// model.
///
/// ```
/// use vw_netsim::ErrorModel;
/// let perfect = ErrorModel::perfect();
/// assert_eq!(perfect.loss_probability(), 0.0);
/// let lossy = ErrorModel::lossy(0.1);
/// assert_eq!(lossy.loss_probability(), 0.1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorModel {
    /// Probability that a frame is lost outright.
    loss: f64,
    /// Per-bit flip probability applied to surviving frames.
    bit_error_rate: f64,
}

impl ErrorModel {
    /// A link that never loses or corrupts frames.
    pub const fn perfect() -> Self {
        ErrorModel {
            loss: 0.0,
            bit_error_rate: 0.0,
        }
    }

    /// A link that loses each frame independently with probability `loss`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= loss <= 1.0`.
    pub fn lossy(loss: f64) -> Self {
        assert!((0.0..=1.0).contains(&loss), "loss must be a probability");
        ErrorModel {
            loss,
            bit_error_rate: 0.0,
        }
    }

    /// A link that flips each bit independently with probability `ber`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= ber <= 1.0`.
    pub fn bit_errors(ber: f64) -> Self {
        assert!((0.0..=1.0).contains(&ber), "BER must be a probability");
        ErrorModel {
            loss: 0.0,
            bit_error_rate: ber,
        }
    }

    /// Combines frame loss and bit errors.
    ///
    /// # Panics
    ///
    /// Panics unless both arguments are probabilities.
    pub fn new(loss: f64, bit_error_rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&loss), "loss must be a probability");
        assert!(
            (0.0..=1.0).contains(&bit_error_rate),
            "BER must be a probability"
        );
        ErrorModel {
            loss,
            bit_error_rate,
        }
    }

    /// The configured frame-loss probability.
    pub fn loss_probability(&self) -> f64 {
        self.loss
    }

    /// The configured per-bit error rate.
    pub fn bit_error_rate(&self) -> f64 {
        self.bit_error_rate
    }

    /// Returns `true` for a model that can never touch a frame.
    pub fn is_perfect(&self) -> bool {
        self.loss == 0.0 && self.bit_error_rate == 0.0
    }

    /// Applies the model to a frame in transit, possibly mutating it.
    pub fn apply(&self, frame: &mut Frame, rng: &mut StdRng) -> LinkOutcome {
        if self.loss > 0.0 && rng.random::<f64>() < self.loss {
            return LinkOutcome::Lost;
        }
        if self.bit_error_rate > 0.0 {
            let mut flipped = 0u32;
            // Exact per-bit sampling is O(bits); for the tiny BERs used in
            // practice, sample the number of flips from the expected count
            // cheaply: walk bytes and flip with per-byte probability
            // 1-(1-p)^8 (approximated as 8p for small p, capped at 1).
            let per_byte = (self.bit_error_rate * 8.0).min(1.0);
            for byte in 0..frame.len() {
                if rng.random::<f64>() < per_byte {
                    let bit = rng.random_range(0..8u8);
                    frame.flip_bit(byte, bit);
                    flipped += 1;
                }
            }
            if flipped > 0 {
                return LinkOutcome::Corrupted {
                    bits_flipped: flipped,
                };
            }
        }
        LinkOutcome::Delivered
    }
}

impl Default for ErrorModel {
    fn default() -> Self {
        ErrorModel::perfect()
    }
}

/// Impairment knobs applied to VirtualWire **control** frames (`0x88B5`)
/// only — the fault injector's own signaling plane — leaving the
/// monitored data plane untouched.
///
/// This is how the control-plane reliability layer is tested: the world
/// drops, duplicates, reorders, and delays sequenced control frames while
/// every data frame crosses the wire unharmed, so any divergence in a
/// scenario's final report is the reliability layer's fault.
///
/// Each probability draw is guarded by `p > 0.0`, so a zero-rate
/// impairment consumes no randomness and leaves a seeded run's RNG stream
/// — and therefore its whole schedule — bit-identical to an unimpaired
/// run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlImpairment {
    /// Probability a control frame is dropped outright.
    pub drop: f64,
    /// Probability a control frame is delivered twice (the copy arrives
    /// 1 ns after the original).
    pub dup: f64,
    /// Probability a control frame is reordered: it is held for a
    /// uniformly random extra delay up to
    /// [`reorder_window_ns`](ControlImpairment::reorder_window_ns), letting
    /// later frames overtake it.
    pub reorder: f64,
    /// Probability a control frame is delayed by a fixed
    /// [`delay_ns`](ControlImpairment::delay_ns).
    pub delay: f64,
    /// Fixed extra latency for delayed frames, in nanoseconds.
    pub delay_ns: u64,
    /// Upper bound of the random extra latency for reordered frames, in
    /// nanoseconds.
    pub reorder_window_ns: u64,
}

impl ControlImpairment {
    /// No impairment at all.
    pub const fn none() -> Self {
        ControlImpairment {
            drop: 0.0,
            dup: 0.0,
            reorder: 0.0,
            delay: 0.0,
            delay_ns: 0,
            reorder_window_ns: 0,
        }
    }

    /// Drops each control frame with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn dropping(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "drop must be a probability");
        ControlImpairment {
            drop: p,
            ..Self::none()
        }
    }

    /// Duplicates each control frame with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn duplicating(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "dup must be a probability");
        ControlImpairment {
            dup: p,
            ..Self::none()
        }
    }

    /// `true` for an impairment that can never touch a frame.
    pub fn is_inert(&self) -> bool {
        self.drop == 0.0 && self.dup == 0.0 && self.reorder == 0.0 && self.delay == 0.0
    }

    /// A short, stable label for reports and sweep axes: `none` when
    /// inert, else the non-zero knobs (`drop=0.1,delay=0.05@2000000ns`).
    /// The format is deterministic, so campaign reports that embed it
    /// are byte-stable across runs.
    pub fn summary(&self) -> String {
        if self.is_inert() {
            return "none".to_string();
        }
        let mut parts = Vec::new();
        if self.drop > 0.0 {
            parts.push(format!("drop={}", self.drop));
        }
        if self.dup > 0.0 {
            parts.push(format!("dup={}", self.dup));
        }
        if self.reorder > 0.0 {
            parts.push(format!(
                "reorder={}@{}ns",
                self.reorder, self.reorder_window_ns
            ));
        }
        if self.delay > 0.0 {
            parts.push(format!("delay={}@{}ns", self.delay, self.delay_ns));
        }
        parts.join(",")
    }

    /// Decides one control frame's fate. Every probability draw is
    /// guarded, so an inert (or partially inert) impairment leaves the
    /// RNG stream untouched for the faults it cannot inject.
    pub fn decide(&self, rng: &mut StdRng) -> ControlFate {
        if self.drop > 0.0 && rng.random::<f64>() < self.drop {
            return ControlFate::Drop;
        }
        let duplicate = self.dup > 0.0 && rng.random::<f64>() < self.dup;
        let mut extra_ns = 0u64;
        if self.reorder > 0.0 && rng.random::<f64>() < self.reorder {
            extra_ns = if self.reorder_window_ns > 0 {
                rng.random_range(1..=self.reorder_window_ns)
            } else {
                1
            };
        }
        if self.delay > 0.0 && rng.random::<f64>() < self.delay {
            extra_ns = extra_ns.saturating_add(self.delay_ns);
        }
        ControlFate::Deliver {
            duplicate,
            extra_ns,
        }
    }
}

impl Default for ControlImpairment {
    fn default() -> Self {
        ControlImpairment::none()
    }
}

/// What a [`ControlImpairment`] decided to do with one control frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlFate {
    /// The frame is lost.
    Drop,
    /// The frame is delivered, possibly late and possibly twice.
    Deliver {
        /// Deliver a second copy 1 ns after the first.
        duplicate: bool,
        /// Extra latency on top of link propagation, in nanoseconds
        /// (reorder and delay compose additively).
        extra_ns: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use vw_packet::{EthernetBuilder, MacAddr};

    fn frame() -> Frame {
        EthernetBuilder::new()
            .src(MacAddr::from_index(1))
            .dst(MacAddr::from_index(2))
            .payload(&[0u8; 100])
            .build()
    }

    #[test]
    fn perfect_link_never_touches_frames() {
        let model = ErrorModel::perfect();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let mut f = frame();
            let original = f.clone();
            assert_eq!(model.apply(&mut f, &mut rng), LinkOutcome::Delivered);
            assert_eq!(f, original);
        }
    }

    #[test]
    fn total_loss_drops_everything() {
        let model = ErrorModel::lossy(1.0);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            let mut f = frame();
            assert_eq!(model.apply(&mut f, &mut rng), LinkOutcome::Lost);
        }
    }

    #[test]
    fn loss_rate_is_approximately_honored() {
        let model = ErrorModel::lossy(0.3);
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let lost = (0..n)
            .filter(|_| model.apply(&mut frame(), &mut rng) == LinkOutcome::Lost)
            .count();
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "observed loss rate {rate}");
    }

    #[test]
    fn bit_errors_mutate_the_frame() {
        let model = ErrorModel::bit_errors(0.01);
        let mut rng = StdRng::seed_from_u64(9);
        let mut corrupted = 0;
        for _ in 0..200 {
            let mut f = frame();
            let original = f.clone();
            match model.apply(&mut f, &mut rng) {
                LinkOutcome::Corrupted { bits_flipped } => {
                    assert!(bits_flipped > 0);
                    assert_ne!(f, original);
                    corrupted += 1;
                }
                LinkOutcome::Delivered => assert_eq!(f, original),
                LinkOutcome::Lost => panic!("loss disabled"),
            }
        }
        assert!(
            corrupted > 100,
            "BER 0.01 should corrupt most 114-byte frames"
        );
    }

    #[test]
    fn determinism_under_same_seed() {
        let model = ErrorModel::new(0.2, 0.001);
        let run = || {
            let mut rng = StdRng::seed_from_u64(123);
            (0..500)
                .map(|_| {
                    let mut f = frame();
                    (model.apply(&mut f, &mut rng), f)
                })
                .collect::<Vec<_>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x, y);
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_loss_rejected() {
        let _ = ErrorModel::lossy(1.5);
    }

    #[test]
    fn is_perfect_flag() {
        assert!(ErrorModel::perfect().is_perfect());
        assert!(ErrorModel::default().is_perfect());
        assert!(!ErrorModel::lossy(0.01).is_perfect());
        assert!(!ErrorModel::bit_errors(1e-6).is_perfect());
    }

    #[test]
    fn inert_impairment_consumes_no_randomness() {
        let mut rng = StdRng::seed_from_u64(7);
        let baseline: Vec<f64> = {
            let mut r = rng.clone();
            (0..8).map(|_| r.random::<f64>()).collect()
        };
        let inert = ControlImpairment::none();
        for _ in 0..100 {
            assert_eq!(
                inert.decide(&mut rng),
                ControlFate::Deliver {
                    duplicate: false,
                    extra_ns: 0
                }
            );
        }
        let after: Vec<f64> = (0..8).map(|_| rng.random::<f64>()).collect();
        assert_eq!(baseline, after, "inert decide() must not draw randomness");
        assert!(inert.is_inert());
    }

    #[test]
    fn drop_rate_is_approximately_honored() {
        let imp = ControlImpairment::dropping(0.3);
        let mut rng = StdRng::seed_from_u64(11);
        let n = 20_000;
        let dropped = (0..n)
            .filter(|_| imp.decide(&mut rng) == ControlFate::Drop)
            .count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "observed drop rate {rate}");
    }

    #[test]
    fn dup_reorder_delay_compose() {
        let imp = ControlImpairment {
            dup: 1.0,
            reorder: 1.0,
            delay: 1.0,
            delay_ns: 500,
            reorder_window_ns: 100,
            ..ControlImpairment::none()
        };
        let mut rng = StdRng::seed_from_u64(3);
        match imp.decide(&mut rng) {
            ControlFate::Deliver {
                duplicate,
                extra_ns,
            } => {
                assert!(duplicate);
                assert!((501..=600).contains(&extra_ns), "extra {extra_ns}");
            }
            fate => panic!("expected delivery, got {fate:?}"),
        }
    }

    #[test]
    fn impairment_determinism_under_same_seed() {
        let imp = ControlImpairment {
            drop: 0.2,
            dup: 0.2,
            reorder: 0.2,
            delay: 0.2,
            delay_ns: 1000,
            reorder_window_ns: 2000,
        };
        let run = || {
            let mut rng = StdRng::seed_from_u64(99);
            (0..500).map(|_| imp.decide(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_impairment_rejected() {
        let _ = ControlImpairment::dropping(1.5);
    }
}
