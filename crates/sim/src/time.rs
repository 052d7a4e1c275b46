//! Virtual time for the discrete-event simulation.
//!
//! Time is kept in integer picoseconds so that every run is deterministic
//! and independent of the host machine. A picosecond granularity leaves
//! headroom for sub-cycle costs at 1.6 GHz mesh clocks while still allowing
//! walkthroughs of several hundred virtual seconds inside a `u64`
//! (`u64::MAX` ps ≈ 213 days).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) virtual time, in picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

pub const PS_PER_NS: u64 = 1_000;
pub const PS_PER_US: u64 = 1_000_000;
pub const PS_PER_MS: u64 = 1_000_000_000;
pub const PS_PER_SEC: u64 = 1_000_000_000_000;

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);
    /// Largest representable instant; used as an "idle forever" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Whole nanoseconds. This and `from_us`, `from_ms` and `from_secs`
    /// saturate at [`SimTime::MAX`], as `+` and `*` do.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns.saturating_mul(PS_PER_NS))
    }

    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us.saturating_mul(PS_PER_US))
    }

    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms.saturating_mul(PS_PER_MS))
    }

    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s.saturating_mul(PS_PER_SEC))
    }

    /// Convert from fractional seconds, saturating at the representable
    /// range and flushing negatives to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if s.is_nan() || s <= 0.0 {
            return SimTime::ZERO;
        }
        let ps = s * PS_PER_SEC as f64;
        if ps >= u64::MAX as f64 {
            SimTime::MAX
        } else {
            SimTime(ps as u64)
        }
    }

    /// Duration of `cycles` clock cycles at `freq_hz`.
    pub fn from_cycles(cycles: u64, freq_hz: u64) -> Self {
        debug_assert!(freq_hz > 0, "zero frequency");
        // cycles / freq seconds -> ps. Use u128 to avoid overflow on
        // multi-second compute bursts.
        let ps = (cycles as u128 * PS_PER_SEC as u128) / freq_hz as u128;
        SimTime(ps.min(u64::MAX as u128) as u64)
    }

    /// Time to move `bytes` over a channel of `bytes_per_sec` bandwidth.
    pub fn from_bytes_at(bytes: u64, bytes_per_sec: u64) -> Self {
        debug_assert!(bytes_per_sec > 0, "zero bandwidth");
        let ps = (bytes as u128 * PS_PER_SEC as u128) / bytes_per_sec as u128;
        SimTime(ps.min(u64::MAX as u128) as u64)
    }

    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }

    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / PS_PER_MS as f64
    }

    #[inline]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    #[inline]
    pub fn min(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.min(rhs.0))
    }

    #[inline]
    pub fn max(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.max(rhs.0))
    }

    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    /// Panics in debug builds if `rhs > self`; use [`SimTime::saturating_sub`]
    /// when an underflow is expected.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        debug_assert!(self.0 >= rhs.0, "SimTime underflow: {self:?} - {rhs:?}");
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.as_secs_f64();
        if s >= 1.0 {
            write!(f, "{s:.3}s")
        } else if self.0 >= PS_PER_MS {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= PS_PER_US {
            write!(f, "{:.3}us", self.0 as f64 / PS_PER_US as f64)
        } else {
            write!(f, "{}ps", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_ms(1000));
        assert_eq!(SimTime::from_ms(1), SimTime::from_us(1000));
        assert_eq!(SimTime::from_us(1), SimTime::from_ns(1000));
        assert_eq!(SimTime::from_ns(1), SimTime::from_ps(1000));
    }

    #[test]
    fn cycles_at_frequency() {
        // 533 cycles at 533 MHz is exactly one microsecond.
        let t = SimTime::from_cycles(533, 533_000_000);
        assert_eq!(t, SimTime::from_us(1));
        // One cycle at 1 GHz is one nanosecond.
        assert_eq!(SimTime::from_cycles(1, 1_000_000_000), SimTime::from_ns(1));
    }

    #[test]
    fn bandwidth_time() {
        // 1 GiB/s moving 1 GiB takes one second.
        let gib = 1u64 << 30;
        assert_eq!(SimTime::from_bytes_at(gib, gib), SimTime::from_secs(1));
    }

    #[test]
    fn from_secs_f64_edges() {
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::INFINITY), SimTime::MAX);
        assert_eq!(SimTime::from_secs_f64(1.5), SimTime::from_ms(1500));
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_ms(3);
        let b = SimTime::from_ms(1);
        assert_eq!(a - b, SimTime::from_ms(2));
        assert_eq!(a + b, SimTime::from_ms(4));
        assert_eq!(b * 3, a);
        assert_eq!(a / 3, b);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        let v = vec![a, b, b];
        assert_eq!(v.into_iter().sum::<SimTime>(), SimTime::from_ms(5));
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", SimTime::from_secs(2)), "2.000s");
        assert_eq!(format!("{}", SimTime::from_ms(2)), "2.000ms");
        assert_eq!(format!("{}", SimTime::from_us(2)), "2.000us");
        assert_eq!(format!("{}", SimTime::from_ps(2)), "2ps");
    }

    #[test]
    fn saturation_not_overflow() {
        let max = SimTime::MAX;
        assert_eq!(max + SimTime::from_secs(1), SimTime::MAX);
        assert_eq!(max * 2, SimTime::MAX);
        // Just past u64::MAX ps in each unit.
        assert_eq!(SimTime::from_ns(u64::MAX / PS_PER_NS + 1), SimTime::MAX);
        assert_eq!(SimTime::from_us(u64::MAX / PS_PER_US + 1), SimTime::MAX);
        assert_eq!(SimTime::from_ms(18_446_744_074), SimTime::MAX);
        assert_eq!(SimTime::from_secs(u64::MAX), SimTime::MAX);
        assert_eq!(
            SimTime::from_ms(18_446_744_073).as_ps(),
            18_446_744_073 * PS_PER_MS
        );
    }
}
