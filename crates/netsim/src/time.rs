//! Simulation time: integer nanoseconds since simulation start.
//!
//! Integer time makes event ordering exact (no float comparison hazards) and
//! keeps the simulation bit-reproducible.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from whole milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from fractional milliseconds (rounds to nearest ns).
    /// Panics on negative or non-finite input.
    pub fn from_ms_f64(ms: f64) -> Self {
        assert!(
            ms.is_finite() && ms >= 0.0,
            "SimTime::from_ms_f64: time must be finite and non-negative, got {ms}"
        );
        SimTime((ms * 1_000_000.0).round() as u64)
    }

    /// Construct from fractional seconds. Panics on negative or non-finite input.
    pub fn from_secs_f64(s: f64) -> Self {
        Self::from_ms_f64(s * 1_000.0)
    }

    /// Nanoseconds since simulation start.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Milliseconds since simulation start, as `f64`.
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Seconds since simulation start, as `f64`.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating addition: `self + other`, capped at `u64::MAX` ns.
    pub fn saturating_add(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(other.0))
    }

    /// Saturating subtraction: `self - other`, floored at zero.
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// Checked subtraction.
    pub fn checked_sub(self, other: SimTime) -> Option<SimTime> {
        self.0.checked_sub(other.0).map(SimTime)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    /// Panics on underflow (debug and release): simulated time cannot be negative.
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflow"),
        )
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_ms_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_ms(3).as_ns(), 3_000_000);
        assert_eq!(SimTime::from_us(5).as_ns(), 5_000);
        assert_eq!(SimTime::from_ms_f64(1.5).as_ns(), 1_500_000);
        assert_eq!(SimTime::from_secs_f64(0.25).as_ms_f64(), 250.0);
        assert_eq!(SimTime::from_ms(2).as_ms_f64(), 2.0);
        assert!((SimTime::from_ms(1500).as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_ms(5);
        let b = SimTime::from_ms(3);
        assert_eq!(a + b, SimTime::from_ms(8));
        assert_eq!(a - b, SimTime::from_ms(2));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a.saturating_add(b), SimTime::from_ms(8));
        let end = SimTime::from_ns(u64::MAX);
        assert_eq!(end.saturating_add(a), end);
        assert_eq!(a.checked_sub(b), Some(SimTime::from_ms(2)));
        assert_eq!(b.checked_sub(a), None);
        let mut c = a;
        c += b;
        assert_eq!(c, SimTime::from_ms(8));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = SimTime::from_ms(1) - SimTime::from_ms(2);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_ms_rejected() {
        SimTime::from_ms_f64(-1.0);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_ms(1) < SimTime::from_ms(2));
        assert_eq!(SimTime::default(), SimTime::ZERO);
    }

    #[test]
    fn display() {
        assert_eq!(SimTime::from_ms_f64(1.2345).to_string(), "1.234ms");
    }
}
