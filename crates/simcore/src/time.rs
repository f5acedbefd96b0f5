//! Virtual time for the discrete-event simulator.
//!
//! All simulated clocks are nanosecond-resolution `u64` wrappers. The paper's
//! quantities of interest span seven orders of magnitude (sub-millisecond
//! functions up to hundreds of seconds, §IV-A), which fits comfortably:
//! `u64` nanoseconds cover ~584 years of virtual time. Simulations stay
//! below [`SimTime::HORIZON`] (2^62 ns, ~146 years), so arithmetic on
//! in-range instants, such as a slice boundary `e + k × period`, cannot
//! wrap; adding a span past it panics in every build.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulated clock, in nanoseconds since the
/// start of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);
    /// The latest instant a simulation may reach: 2^62 ns, about 146
    /// years. Input boundaries (trace rows, generated workloads) reject
    /// anything whose arrival plus demand would cross it, and
    /// `SimTime + SimDuration` past it panics instead of wrapping.
    pub const HORIZON: SimTime = SimTime(1 << 62);

    /// Nanoseconds since the simulation epoch.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional milliseconds since the epoch.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1.0e6
    }

    /// Fractional seconds since the epoch.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1.0e9
    }

    /// Elapsed span since `earlier`, saturating at zero if `earlier` is later.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating add of a duration.
    #[inline]
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// Maximum span; "never" sentinel for timeouts.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from whole nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> SimDuration {
        SimDuration(ns)
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> SimDuration {
        SimDuration(us * 1_000)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> SimDuration {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from fractional milliseconds, rounding to the nearest
    /// nanosecond and flooring negative values at zero.
    #[inline]
    pub fn from_millis_f64(ms: f64) -> SimDuration {
        SimDuration((ms.max(0.0) * 1.0e6).round() as u64)
    }

    /// Construct from fractional seconds, rounding to the nearest nanosecond.
    #[inline]
    pub fn from_secs_f64(s: f64) -> SimDuration {
        SimDuration((s.max(0.0) * 1.0e9).round() as u64)
    }

    /// Whole nanoseconds in this span.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional microseconds in this span.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1.0e3
    }

    /// Fractional milliseconds in this span.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1.0e6
    }

    /// Fractional seconds in this span.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1.0e9
    }

    /// True iff this span is zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction: `self - other`, floored at zero.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }

    /// Scale by a non-negative float, rounding to the nearest nanosecond.
    ///
    /// A span of at most 2^53 ns converts to `f64` exactly, so `k == 1.0`
    /// (every charge and boundary while contention is off) returns it
    /// unchanged without the product and `f64::round`, which is a library
    /// call on x86-64 targets without SSE4.1.
    #[inline]
    pub fn mul_f64(self, k: f64) -> SimDuration {
        if k == 1.0 && self.0 <= 1 << f64::MANTISSA_DIGITS {
            return self;
        }
        SimDuration((self.0 as f64 * k.max(0.0)).round() as u64)
    }

    /// The smaller of two spans.
    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// The larger of two spans.
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

/// `t + d`, or a panic naming both operands if the sum passes
/// [`SimTime::HORIZON`] (checked in every build: release builds would
/// otherwise wrap).
#[inline]
fn add_within_horizon(t: SimTime, d: SimDuration) -> SimTime {
    match t.0.checked_add(d.0) {
        Some(sum) if sum <= SimTime::HORIZON.0 => SimTime(sum),
        _ => horizon_crossed(t, d),
    }
}

#[cold]
#[inline(never)]
fn horizon_crossed(t: SimTime, d: SimDuration) -> ! {
    panic!(
        "simulated time {t} + {d} ({} ns + {} ns) crosses SimTime::HORIZON ({} ns)",
        t.0,
        d.0,
        SimTime::HORIZON.0
    )
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        add_within_horizon(self, rhs)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = add_within_horizon(*self, rhs);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = f64;
    #[inline]
    fn div(self, rhs: SimDuration) -> f64 {
        self.0 as f64 / rhs.0 as f64
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        SimDuration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.1}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimDuration::from_millis(5).as_nanos(), 5_000_000);
        assert_eq!(SimDuration::from_micros(5).as_nanos(), 5_000);
        assert_eq!(SimDuration::from_secs(2).as_millis_f64(), 2000.0);
        assert_eq!(SimDuration::from_millis_f64(1.5).as_nanos(), 1_500_000);
        assert_eq!(SimDuration::from_secs_f64(0.25).as_millis_f64(), 250.0);
    }

    #[test]
    fn negative_float_inputs_floor_at_zero() {
        assert_eq!(SimDuration::from_millis_f64(-3.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(-0.1), SimDuration::ZERO);
        assert_eq!(SimDuration::from_millis(7).mul_f64(-2.0), SimDuration::ZERO);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_millis(10);
        assert_eq!(t.as_millis_f64(), 10.0);
        let u = t + SimDuration::from_millis(5);
        assert_eq!(u - t, SimDuration::from_millis(5));
        // Subtracting a later instant saturates to zero rather than wrapping.
        assert_eq!(t - u, SimDuration::ZERO);
        assert_eq!(u.since(t), SimDuration::from_millis(5));
        assert_eq!(t.since(u), SimDuration::ZERO);
    }

    #[test]
    fn adding_up_to_the_horizon_is_exact() {
        let h = SimTime::HORIZON;
        assert_eq!(SimTime::ZERO + SimDuration(h.0), h);
        let mut t = SimTime(h.0 - 5);
        t += SimDuration(5);
        assert_eq!(t, h);
    }

    #[test]
    #[should_panic(expected = "crosses SimTime::HORIZON")]
    fn adding_past_the_horizon_panics() {
        let _ = SimTime::HORIZON + SimDuration(1);
    }

    #[test]
    #[should_panic(expected = "18446744073709551615 ns + 1 ns")]
    fn wrapping_add_panics_naming_both_operands() {
        let mut t = SimTime::MAX;
        t += SimDuration(1);
    }

    #[test]
    fn duration_arithmetic_saturates() {
        let a = SimDuration::from_millis(3);
        let b = SimDuration::from_millis(8);
        assert_eq!(a - b, SimDuration::ZERO);
        assert_eq!(b - a, SimDuration::from_millis(5));
        let mut c = a;
        c -= b;
        assert_eq!(c, SimDuration::ZERO);
        assert_eq!(SimDuration::MAX.saturating_add(a), SimDuration::MAX);
        assert_eq!(SimTime::MAX.saturating_add(a), SimTime::MAX);
    }

    #[test]
    fn scaling_and_ratio() {
        let d = SimDuration::from_millis(10);
        assert_eq!(d * 3, SimDuration::from_millis(30));
        assert_eq!(d / 2, SimDuration::from_millis(5));
        assert_eq!(d.mul_f64(2.5), SimDuration::from_millis(25));
        assert!((d / SimDuration::from_millis(4) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn min_max_sum() {
        let a = SimDuration::from_millis(1);
        let b = SimDuration::from_millis(2);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        let total: SimDuration = [a, b, b].into_iter().sum();
        assert_eq!(total, SimDuration::from_millis(5));
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", SimDuration::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", SimDuration::from_micros(12)), "12.0us");
        assert_eq!(format!("{}", SimDuration::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(12)), "12.000s");
    }
}
