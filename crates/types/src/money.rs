//! Fixed-point monetary amounts.
//!
//! All cost accounting in the reproduction uses [`Money`], a signed
//! fixed-point amount stored internally in **nano-dollars** (10⁻⁹ USD).
//! Cloud storage prices are tiny per-unit numbers (e.g. $0.093 per GB-month)
//! multiplied over short sampling periods by small objects, so sub-micro
//! resolution is needed for the per-period accounting of the evaluation
//! while keeping exact reproducibility (no float drift) and ample range
//! (±9.2 × 10⁹ USD).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Number of nano-dollars in one dollar (the internal resolution).
pub(crate) const NANOS_PER_DOLLAR: i64 = 1_000_000_000;

/// A monetary amount, stored in nano-dollars (10⁻⁹ USD).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Money(i64);

impl Money {
    /// Zero dollars.
    pub const ZERO: Money = Money(0);
    /// The largest representable amount. Used as the initial "best price"
    /// sentinel in the placement search (Algorithm 1 line 1).
    pub const MAX: Money = Money(i64::MAX);

    /// Creates an amount from raw nano-dollars.
    pub const fn from_nanos(nanos: i64) -> Self {
        Money(nanos)
    }

    /// Creates an amount from a floating-point dollar value, rounding to the
    /// nearest nano-dollar.
    pub fn from_dollars(dollars: f64) -> Self {
        Money((dollars * NANOS_PER_DOLLAR as f64).round() as i64)
    }

    /// Raw nano-dollar value.
    pub const fn nanos(self) -> i64 {
        self.0
    }

    /// Value in (floating point) dollars.
    pub fn dollars(self) -> f64 {
        self.0 as f64 / NANOS_PER_DOLLAR as f64
    }

    /// Returns `true` if the amount is exactly zero.
    pub(crate) const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Returns `true` if the amount is strictly positive.
    pub const fn is_positive(self) -> bool {
        self.0 > 0
    }

    /// Multiplies the amount by a non-negative floating point factor,
    /// rounding to the nearest micro-dollar. Used when a per-unit price is
    /// applied to a fractional resource quantity (e.g. 0.37 GB).
    pub fn scale(self, factor: f64) -> Money {
        Money((self.0 as f64 * factor).round() as i64)
    }

    /// Relative difference `(self - reference) / reference`, in percent.
    ///
    /// This is the "% over cost" metric the paper reports in Figures 14 and
    /// 16: how much more expensive a placement is than the ideal one.
    pub fn percent_over(self, reference: Money) -> f64 {
        if reference.is_zero() {
            if self.is_zero() {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (self.0 - reference.0) as f64 / reference.0 as f64 * 100.0
        }
    }
}

impl Add for Money {
    type Output = Money;
    fn add(self, rhs: Money) -> Money {
        Money(self.0 + rhs.0)
    }
}

impl AddAssign for Money {
    fn add_assign(&mut self, rhs: Money) {
        self.0 += rhs.0;
    }
}

impl Sub for Money {
    type Output = Money;
    fn sub(self, rhs: Money) -> Money {
        Money(self.0 - rhs.0)
    }
}

impl SubAssign for Money {
    fn sub_assign(&mut self, rhs: Money) {
        self.0 -= rhs.0;
    }
}

impl Neg for Money {
    type Output = Money;
    fn neg(self) -> Money {
        Money(-self.0)
    }
}

impl Mul<i64> for Money {
    type Output = Money;
    fn mul(self, rhs: i64) -> Money {
        Money(self.0 * rhs)
    }
}

impl Div<i64> for Money {
    type Output = Money;
    fn div(self, rhs: i64) -> Money {
        Money(self.0 / rhs)
    }
}

impl Sum for Money {
    fn sum<I: Iterator<Item = Money>>(iter: I) -> Money {
        iter.fold(Money::ZERO, |acc, m| acc + m)
    }
}

impl fmt::Display for Money {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sign = if self.0 < 0 { "-" } else { "" };
        let abs = self.0.unsigned_abs();
        let dollars = abs / NANOS_PER_DOLLAR as u64;
        let micros = (abs % NANOS_PER_DOLLAR as u64) / 1_000;
        write!(f, "{sign}${dollars}.{micros:06}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_dollars_roundtrip() {
        let m = Money::from_dollars(0.093);
        assert_eq!(m.nanos(), 93_000_000);
        assert!((m.dollars() - 0.093).abs() < 1e-9);
    }

    #[test]
    fn arithmetic() {
        let a = Money::from_dollars(1.5);
        let b = Money::from_dollars(0.25);
        assert_eq!((a + b).dollars(), 1.75);
        assert_eq!((a - b).dollars(), 1.25);
        assert_eq!((a * 4).dollars(), 6.0);
        assert_eq!((a / 3).nanos(), 500_000_000);
        assert_eq!(-b, Money::from_dollars(-0.25));
    }

    #[test]
    fn scale_applies_fractional_factor() {
        let per_gb = Money::from_dollars(0.15);
        let cost = per_gb.scale(0.5);
        assert_eq!(cost, Money::from_dollars(0.075));
    }

    #[test]
    fn percent_over_matches_paper_metric() {
        let ideal = Money::from_dollars(100.0);
        let scalia = Money::from_dollars(100.12);
        assert!((scalia.percent_over(ideal) - 0.12).abs() < 1e-9);
        assert_eq!(Money::ZERO.percent_over(Money::ZERO), 0.0);
        assert!(Money::from_dollars(1.0)
            .percent_over(Money::ZERO)
            .is_infinite());
    }

    #[test]
    fn display_formats_micro_dollars() {
        assert_eq!(Money::from_dollars(1.5).to_string(), "$1.500000");
        assert_eq!(Money::from_dollars(-0.25).to_string(), "-$0.250000");
        assert_eq!(Money::ZERO.to_string(), "$0.000000");
    }

    #[test]
    fn sum_and_ordering() {
        let v = [
            Money::from_dollars(0.1),
            Money::from_dollars(0.2),
            Money::from_dollars(0.3),
        ];
        let total: Money = v.iter().copied().sum();
        assert_eq!(total, Money::from_dollars(0.6));
        assert!(Money::from_dollars(0.1) < Money::from_dollars(0.2));
        assert_eq!(
            Money::from_dollars(0.1).min(Money::from_dollars(0.2)),
            Money::from_dollars(0.1)
        );
        assert_eq!(
            Money::from_dollars(0.1).max(Money::from_dollars(0.2)),
            Money::from_dollars(0.2)
        );
    }
}
