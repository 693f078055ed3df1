//! Durability / availability probabilities ("nines").
//!
//! Provider SLAs and per-object rules express durability and availability as
//! percentages such as `99.999999999` (eleven nines). [`Reliability`] wraps a
//! probability in `[0, 1]` with convenient constructors from percentages and
//! nines, and exact ordering semantics.

use std::fmt;

/// A probability of success in `[0, 1]` (e.g. the probability that an object
/// survives a year, or that a request succeeds).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Reliability(f64);

impl Reliability {
    /// Certain failure (0 %).
    pub const ZERO: Reliability = Reliability(0.0);
    /// Certain success (100 %).
    pub const ONE: Reliability = Reliability(1.0);

    /// Creates a reliability from a probability in `[0, 1]`; values are
    /// clamped into the valid range.
    pub fn from_probability(p: f64) -> Self {
        Reliability(p.clamp(0.0, 1.0))
    }

    /// Creates a reliability from a percentage such as `99.99`.
    pub fn from_percent(pct: f64) -> Self {
        Self::from_probability(pct / 100.0)
    }

    /// Creates a reliability with the given number of nines:
    /// `nines(3)` = 99.9 %, `nines(11)` = 99.999999999 %.
    pub fn nines(n: u32) -> Self {
        Self::from_probability(1.0 - 10f64.powi(-(n as i32)))
    }

    /// The success probability in `[0, 1]`.
    pub fn probability(self) -> f64 {
        self.0
    }

    /// The value as a percentage.
    pub(crate) fn percent(self) -> f64 {
        self.0 * 100.0
    }

    /// Returns `true` if this reliability meets (is at least) `requirement`.
    ///
    /// A small epsilon absorbs floating-point noise from multiplying many
    /// probabilities, so that e.g. a computed `0.9999000000000001` still
    /// "meets" a requirement of four nines.
    pub fn meets(self, requirement: Reliability) -> bool {
        self.0 + 1e-12 >= requirement.0
    }
}

impl fmt::Display for Reliability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}%", format_percent(self.percent()))
    }
}

/// Formats a percentage trimming trailing zeros (e.g. `99.9`, `99.999999999`).
fn format_percent(pct: f64) -> String {
    let s = format!("{pct:.9}");
    let s = s.trim_end_matches('0').trim_end_matches('.');
    s.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert!((Reliability::from_percent(99.9).probability() - 0.999).abs() < 1e-12);
        assert!((Reliability::nines(3).probability() - 0.999).abs() < 1e-12);
        assert!((Reliability::nines(11).probability() - 0.99999999999).abs() < 1e-15);
        assert_eq!(Reliability::from_probability(1.5), Reliability::ONE);
        assert_eq!(Reliability::from_probability(-0.5), Reliability::ZERO);
    }

    #[test]
    fn meets_with_epsilon() {
        let computed = Reliability::from_probability(0.9999 - 1e-13);
        assert!(computed.meets(Reliability::from_percent(99.99)));
        assert!(!Reliability::from_percent(99.9).meets(Reliability::from_percent(99.99)));
        assert!(Reliability::ONE.meets(Reliability::nines(11)));
    }

    #[test]
    fn display_trims_zeros() {
        assert_eq!(Reliability::from_percent(99.9).to_string(), "99.9%");
        assert_eq!(Reliability::from_percent(99.99).to_string(), "99.99%");
        assert_eq!(
            Reliability::from_percent(99.999999999).to_string(),
            "99.999999999%"
        );
    }

    #[test]
    fn ordering() {
        assert!(Reliability::nines(4) > Reliability::nines(3));
        assert!(Reliability::from_percent(99.99) < Reliability::nines(11));
    }
}
