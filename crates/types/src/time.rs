//! Simulated time.
//!
//! Scalia collects access statistics per *sampling period* (typically one
//! hour, matching public-cloud billing granularity) and makes placement
//! decisions over a *decision period* of several sampling periods. The
//! simulator advances a [`SimTime`] clock in whole seconds; helpers convert
//! between seconds, hours, days and sampling-period counts.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Seconds per hour.
pub(crate) const SECONDS_PER_HOUR: u64 = 3_600;
/// Seconds per day.
pub(crate) const SECONDS_PER_DAY: u64 = 24 * SECONDS_PER_HOUR;
/// Hours per (30-day accounting) month, used to convert per-GB-month storage
/// prices into per-GB-hour prices.
pub const HOURS_PER_MONTH: u64 = 30 * 24;

/// A point in simulated time, in seconds since the start of the simulation.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time, in seconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Duration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from seconds since the epoch.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs)
    }

    /// Creates a time from whole hours since the epoch.
    pub const fn from_hours(hours: u64) -> Self {
        SimTime(hours * SECONDS_PER_HOUR)
    }

    /// Seconds since the epoch.
    pub const fn secs(self) -> u64 {
        self.0
    }

    /// Fractional hours since the epoch.
    pub(crate) fn as_hours(self) -> f64 {
        self.0 as f64 / SECONDS_PER_HOUR as f64
    }

    /// The elapsed duration since an earlier time. Saturates at zero if
    /// `earlier` is in the future.
    pub const fn since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// The index of the sampling period containing this instant, for the
    /// given sampling period length.
    pub fn period_index(self, sampling_period: Duration) -> u64 {
        self.0.checked_div(sampling_period.0).unwrap_or(0)
    }
}

impl Duration {
    /// Zero-length duration.
    pub const ZERO: Duration = Duration(0);
    /// One hour — the paper's default sampling period.
    pub const HOUR: Duration = Duration(SECONDS_PER_HOUR);

    /// Creates a duration from seconds.
    pub const fn from_secs(secs: u64) -> Self {
        Duration(secs)
    }

    /// Creates a duration from whole hours.
    pub const fn from_hours(hours: u64) -> Self {
        Duration(hours * SECONDS_PER_HOUR)
    }

    /// Creates a duration from whole days.
    pub const fn from_days(days: u64) -> Self {
        Duration(days * SECONDS_PER_DAY)
    }

    /// Length in fractional hours.
    pub fn as_hours(self) -> f64 {
        self.0 as f64 / SECONDS_PER_HOUR as f64
    }

    /// Number of whole sampling periods of length `period` that fit in this
    /// duration (at least one if the duration is non-zero).
    pub fn periods(self, period: Duration) -> u64 {
        self.0.checked_div(period.0).unwrap_or(0)
    }

    /// Halves the duration (integer seconds), used by the dichotomic decision
    /// period adjustment (`D/2`).
    pub const fn halved(self) -> Duration {
        Duration(self.0 / 2)
    }

    /// Doubles the duration, used by the decision period adjustment (`2D`).
    pub const fn doubled(self) -> Duration {
        Duration(self.0 * 2)
    }

    /// Multiplies the duration by an integer factor.
    pub const fn times(self, factor: u64) -> Duration {
        Duration(self.0 * factor)
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: Duration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.2}h", self.as_hours())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}h", self.as_hours())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(SimTime::from_hours(2).secs(), 7200);
        assert_eq!(Duration::from_days(7).as_hours(), 168.0);
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_hours(5);
        let b = SimTime::from_hours(3);
        assert_eq!(a.since(b), Duration::from_hours(2));
        assert_eq!(b.since(a), Duration::ZERO);
    }

    #[test]
    fn period_index() {
        let t = SimTime::from_secs(3 * 3600 + 10);
        assert_eq!(t.period_index(Duration::HOUR), 3);
        assert_eq!(t.period_index(Duration::ZERO), 0);
    }

    #[test]
    fn decision_period_helpers() {
        let d = Duration::from_hours(24);
        assert_eq!(d.halved(), Duration::from_hours(12));
        assert_eq!(d.doubled(), Duration::from_hours(48));
        assert_eq!(d.periods(Duration::HOUR), 24);
        assert_eq!(d.min(Duration::from_hours(6)), Duration::from_hours(6));
        assert_eq!(d.max(Duration::from_hours(6)), d);
        assert_eq!(Duration::HOUR.times(3), Duration::from_hours(3));
    }

    #[test]
    fn arithmetic_and_display() {
        let t = SimTime::from_hours(10) + Duration::from_hours(2);
        assert_eq!(t, SimTime::from_hours(12));
        assert_eq!(t - Duration::from_hours(20), SimTime::ZERO);
        assert_eq!(
            Duration::from_hours(5) - Duration::from_hours(2),
            Duration::from_hours(3)
        );
        assert_eq!(SimTime::from_hours(1).to_string(), "t+1.00h");
        assert_eq!(Duration::from_hours(24).to_string(), "24.00h");
    }
}
