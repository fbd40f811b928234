//! Simulated time: nanosecond-resolution instants and durations.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An instant on the simulated clock, in nanoseconds since the start of the
/// run.
///
/// ```
/// use vw_netsim::{SimDuration, SimTime};
/// let t = SimTime::ZERO + SimDuration::from_millis(10);
/// assert_eq!(t.as_nanos(), 10_000_000);
/// assert_eq!(t - SimTime::ZERO, SimDuration::from_millis(10));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from nanoseconds since the start.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Nanoseconds since the start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the start, as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The instant `d` after `self`, saturating at [`SimTime::MAX`].
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }

    /// The duration since `earlier`, or zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    fn sub(self, other: SimTime) -> SimDuration {
        SimDuration(self.0 - other.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

/// A span of simulated time, in nanoseconds.
///
/// ```
/// use vw_netsim::SimDuration;
/// assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1000));
/// assert_eq!(SimDuration::from_secs(2) / 4, SimDuration::from_millis(500));
/// assert_eq!(SimDuration::from_millis(3) * 2, SimDuration::from_millis(6));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// One "jiffy": the 10 ms software-timer granularity of the Linux 2.4
    /// kernels the paper's prototype ran on. The `DELAY` fault primitive is
    /// quantized to this unit, mirroring Section 5.2.
    pub const JIFFY: SimDuration = SimDuration(10_000_000);

    /// Creates a duration from nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Creates a duration from seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000_000)
    }

    /// Nanoseconds in this duration.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Rounds *up* to a whole number of jiffies (minimum one), the paper's
    /// floor on `DELAY` granularity.
    ///
    /// ```
    /// use vw_netsim::SimDuration;
    /// assert_eq!(SimDuration::from_millis(3).quantize_to_jiffies(), SimDuration::JIFFY);
    /// assert_eq!(SimDuration::from_millis(25).quantize_to_jiffies(), SimDuration::from_millis(30));
    /// ```
    pub fn quantize_to_jiffies(self) -> SimDuration {
        let jiffy = SimDuration::JIFFY.0;
        let n = self.0.div_ceil(jiffy).max(1);
        SimDuration(n * jiffy)
    }

    /// The larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Sum that saturates instead of overflowing.
    pub fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0 + other.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, other: SimDuration) {
        self.0 += other.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    fn sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0 - other.0)
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;

    fn mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0 * factor)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;

    fn div(self, divisor: u64) -> SimDuration {
        SimDuration(self.0 / divisor)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// Computes the serialization time of `bytes` at `bits_per_sec` on the wire.
///
/// ```
/// use vw_netsim::time::serialization_time;
/// // 1250 bytes at 100 Mb/s = 100 microseconds.
/// assert_eq!(serialization_time(1250, 100_000_000).as_nanos(), 100_000);
/// ```
pub fn serialization_time(bytes: usize, bits_per_sec: u64) -> SimDuration {
    assert!(bits_per_sec > 0, "line rate must be positive");
    let bits = bytes as u64 * 8;
    // Frame-sized inputs stay in u64 (128-bit division is an out-of-line
    // libcall on the per-transmission hot path); absurd sizes fall back.
    if let Some(scaled) = bits.checked_mul(1_000_000_000) {
        return SimDuration::from_nanos(scaled.div_ceil(bits_per_sec));
    }
    let nanos = (bits as u128 * 1_000_000_000).div_ceil(bits_per_sec as u128);
    SimDuration::from_nanos(nanos as u64)
}

/// The nanoseconds one byte takes at `bits_per_sec`, where 8·10⁹ is a
/// multiple of the rate (as at every `LinkConfig` preset); 0 where it is
/// not, or where the quotient needs more than 32 bits.
pub(crate) fn ns_per_byte(bits_per_sec: u64) -> u32 {
    match 8_000_000_000u64.checked_rem(bits_per_sec) {
        Some(0) => u32::try_from(8_000_000_000 / bits_per_sec).unwrap_or(0),
        _ => 0,
    }
}

/// [`serialization_time`] at a rate whose [`ns_per_byte`] is `per_byte`,
/// by one multiply; `None` where the rate needs the division.
#[inline(always)]
pub(crate) fn multiplied_serialization_time(bytes: usize, per_byte: u32) -> Option<SimDuration> {
    let nanos = (bytes as u64).checked_mul(u64::from(per_byte))?;
    (per_byte != 0).then_some(SimDuration::from_nanos(nanos))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic() {
        let t = SimTime::from_nanos(5) + SimDuration::from_nanos(7);
        assert_eq!(t.as_nanos(), 12);
        assert_eq!(t - SimTime::from_nanos(2), SimDuration::from_nanos(10));
        let mut u = SimTime::ZERO;
        u += SimDuration::from_secs(1);
        assert_eq!(u.as_secs_f64(), 1.0);
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_secs(1)),
            SimTime::MAX
        );
        assert_eq!(
            SimTime::ZERO.saturating_since(SimTime::from_nanos(5)),
            SimDuration::ZERO
        );
        assert_eq!(
            SimDuration(u64::MAX)
                .saturating_add(SimDuration::from_nanos(1))
                .as_nanos(),
            u64::MAX
        );
    }

    #[test]
    fn duration_conversions() {
        assert_eq!(SimDuration::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(SimDuration::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(SimDuration::from_micros(1).as_nanos(), 1_000);
    }

    #[test]
    fn jiffy_quantization() {
        assert_eq!(SimDuration::ZERO.quantize_to_jiffies(), SimDuration::JIFFY);
        assert_eq!(SimDuration::JIFFY.quantize_to_jiffies(), SimDuration::JIFFY);
        assert_eq!(
            (SimDuration::JIFFY + SimDuration::from_nanos(1)).quantize_to_jiffies(),
            SimDuration::JIFFY * 2
        );
    }

    #[test]
    fn serialization_time_examples() {
        // 100 Mb/s: one byte takes 80 ns.
        assert_eq!(serialization_time(1, 100_000_000).as_nanos(), 80);
        // 1 Gb/s: 1500 bytes take 12 microseconds.
        assert_eq!(serialization_time(1500, 1_000_000_000).as_nanos(), 12_000);
        assert_eq!(serialization_time(0, 100_000_000), SimDuration::ZERO);
    }

    /// The multiply equals the division for every wire size up to 2 KiB
    /// at every preset rate; a rate that does not divide 8·10⁹, or whose
    /// quotient overflows 32 bits, takes the division.
    #[test]
    fn the_multiplied_serialization_time_is_exact() {
        use crate::LinkConfig;
        let presets = [LinkConfig::fast_ethernet(), LinkConfig::ethernet_10m()];
        let presets = presets.map(|config| config.rate_bps);
        let others = [
            1_000_000_000,
            8_000_000_000,
            2,
            1,
            3_000_000,
            7,
            9_000_000_000,
        ];
        for rate in presets.into_iter().chain(others) {
            let per_byte = ns_per_byte(rate);
            let divides = 8_000_000_000 % rate == 0 && rate > 1;
            assert_eq!(per_byte != 0, divides, "rate {rate}");
            for bytes in 0..=2048 {
                let multiplied = multiplied_serialization_time(bytes, per_byte);
                assert_eq!(multiplied.is_some(), divides, "{bytes} bytes at {rate} b/s");
                let time = multiplied.unwrap_or_else(|| serialization_time(bytes, rate));
                assert_eq!(
                    time,
                    serialization_time(bytes, rate),
                    "{bytes} bytes at {rate} b/s"
                );
            }
        }
        assert_eq!(presets.map(ns_per_byte), [80, 800]);
        assert_eq!(ns_per_byte(0), 0);
    }

    #[test]
    #[should_panic(expected = "line rate")]
    fn zero_rate_panics() {
        let _ = serialization_time(100, 0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
        assert_eq!(SimDuration::from_millis(5).to_string(), "5.000ms");
        assert_eq!(SimDuration::from_micros(7).to_string(), "7.000us");
        assert_eq!(SimDuration::from_nanos(9).to_string(), "9ns");
        assert_eq!(SimTime::from_nanos(1_500_000_000).to_string(), "1.500000s");
    }

    #[test]
    fn min_max() {
        let a = SimDuration::from_millis(1);
        let b = SimDuration::from_millis(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }
}
