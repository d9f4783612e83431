//! Virtual time for the discrete-event engine.
//!
//! Simulated time is an integer count of nanoseconds. Using an integer (and
//! not `f64`) keeps event ordering exact and the whole simulation bit-for-bit
//! reproducible across runs and platforms.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) virtual time, in nanoseconds.
///
/// `SimTime` is deliberately a thin newtype: all arithmetic is plain integer
/// arithmetic, and overflow panics in debug builds like any other integer
/// overflow. A nanosecond tick gives ~584 years of simulated range, far more
/// than any experiment here needs.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The origin of virtual time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable time; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// A span of `ns` nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> SimTime {
        SimTime(ns)
    }

    /// A span of `us` microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> SimTime {
        SimTime(us * 1_000)
    }

    /// A span of `ms` milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> SimTime {
        SimTime(ms * 1_000_000)
    }

    /// A span of `s` whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> SimTime {
        SimTime(s * 1_000_000_000)
    }

    /// A span of `s` seconds, rounded to the nearest nanosecond.
    ///
    /// Negative and non-finite inputs clamp to zero; callers constructing
    /// service times from rate arithmetic should never produce them, but a
    /// clamp is safer than a panic deep inside an experiment sweep.
    pub fn from_secs_f64(s: f64) -> SimTime {
        if !s.is_finite() || s <= 0.0 {
            return SimTime::ZERO;
        }
        SimTime((s * 1e9).round() as u64)
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// This time expressed in seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// `self - other`, clamping at zero instead of underflowing.
    #[inline]
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// True if this is the zero span.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The larger of two times.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The smaller of two times.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
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

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for SimTime {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_us(1), SimTime::from_ns(1_000));
        assert_eq!(SimTime::from_ms(1), SimTime::from_us(1_000));
        assert_eq!(SimTime::from_secs(1), SimTime::from_ms(1_000));
        assert_eq!(SimTime::from_secs_f64(0.5), SimTime::from_ms(500));
    }

    #[test]
    fn from_secs_f64_clamps_bad_input() {
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::INFINITY), SimTime::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_ms(3);
        let b = SimTime::from_ms(1);
        assert_eq!(a + b, SimTime::from_ms(4));
        assert_eq!(a - b, SimTime::from_ms(2));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a * 2, SimTime::from_ms(6));
        assert_eq!(a / 3, SimTime::from_ms(1));
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn sum_and_display() {
        let total: SimTime = [SimTime::from_ms(1), SimTime::from_ms(2)].into_iter().sum();
        assert_eq!(total, SimTime::from_ms(3));
        assert_eq!(format!("{}", SimTime::from_ns(5)), "5ns");
        assert_eq!(format!("{}", SimTime::from_us(5)), "5.000us");
        assert_eq!(format!("{}", SimTime::from_ms(5)), "5.000ms");
        assert_eq!(format!("{}", SimTime::from_secs(5)), "5.000s");
    }

    #[test]
    fn ordering_is_total() {
        let mut v = vec![SimTime::from_ms(2), SimTime::ZERO, SimTime::from_us(10)];
        v.sort();
        assert_eq!(
            v,
            vec![SimTime::ZERO, SimTime::from_us(10), SimTime::from_ms(2)]
        );
    }
}
