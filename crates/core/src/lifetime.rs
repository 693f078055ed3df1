//! Per-class lifetime distributions and time-left-to-live estimation.
//!
//! Scalia records the observed lifetime (time between insertion and
//! deletion) of every object of a class and uses the resulting empirical
//! distribution to answer: *given that an object of this class is already
//! `a` hours old, how much longer is it expected to live?* (Fig. 5). The
//! answer bounds the decision period so placements are not optimised for a
//! horizon the object will not survive.

/// An empirical lifetime distribution built from observed deletion times.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LifetimeDistribution {
    /// Observed lifetimes in hours, kept sorted ascending.
    samples: Vec<f64>,
}

impl LifetimeDistribution {
    /// Creates an empty distribution (no observed deletions yet).
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Builds a distribution from a list of observed lifetimes (hours).
    pub fn from_samples(samples: impl IntoIterator<Item = f64>) -> Self {
        let mut dist = Self::new();
        for s in samples {
            dist.record(s);
        }
        dist
    }

    /// Records one observed lifetime in hours (negative values are clamped
    /// to zero).
    pub(crate) fn record(&mut self, lifetime_hours: f64) {
        let v = lifetime_hours.max(0.0);
        let pos = self.samples.partition_point(|&s| s < v);
        self.samples.insert(pos, v);
    }

    /// Mean lifetime of the class in hours (the expected lifetime of a brand
    /// new object), or `None` if no sample exists.
    pub fn expected_lifetime(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }

    /// Expected remaining lifetime of an object already `age_hours` old:
    /// `E[L − a | L ≥ a]` over the empirical distribution. Returns `None`
    /// when no sample survives to that age (the object has outlived every
    /// precedent; callers fall back to the maximum observed lifetime or to
    /// the history length).
    pub fn expected_remaining(&self, age_hours: f64) -> Option<f64> {
        let survivors: Vec<f64> = self
            .samples
            .iter()
            .copied()
            .filter(|&l| l >= age_hours)
            .collect();
        if survivors.is_empty() {
            return None;
        }
        let mean_remaining =
            survivors.iter().map(|l| l - age_hours).sum::<f64>() / survivors.len() as f64;
        Some(mean_remaining)
    }

    /// The largest observed lifetime, or `None` if empty.
    pub(crate) fn max_lifetime(&self) -> Option<f64> {
        self.samples.last().copied()
    }

    /// A histogram of deletion times with `bins` equal-width bins over
    /// `[0, max_lifetime]` — the left plot of Fig. 5. Returns
    /// `(bin_upper_bounds, counts)`.
    pub fn deletion_histogram(&self, bins: usize) -> (Vec<f64>, Vec<usize>) {
        if self.samples.is_empty() || bins == 0 {
            return (Vec::new(), Vec::new());
        }
        let max = self.max_lifetime().unwrap().max(f64::MIN_POSITIVE);
        let width = max / bins as f64;
        let mut counts = vec![0usize; bins];
        for &s in &self.samples {
            let idx = ((s / width).floor() as usize).min(bins - 1);
            counts[idx] += 1;
        }
        let bounds = (1..=bins).map(|i| i as f64 * width).collect();
        (bounds, counts)
    }

    /// The time-left-to-live curve of Fig. 5 (right): expected remaining
    /// hours for ages `0, step, 2·step, …` up to the maximum lifetime.
    /// Returns `(ages, expected_remaining)`.
    pub fn ttl_curve(&self, step_hours: f64) -> (Vec<f64>, Vec<f64>) {
        let Some(max) = self.max_lifetime() else {
            return (Vec::new(), Vec::new());
        };
        if step_hours <= 0.0 {
            return (Vec::new(), Vec::new());
        }
        let mut ages = Vec::new();
        let mut remaining = Vec::new();
        let mut age = 0.0;
        while age <= max + 1e-9 {
            if let Some(r) = self.expected_remaining(age) {
                ages.push(age);
                remaining.push(r);
            }
            age += step_hours;
        }
        (ages, remaining)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Fig. 5 class: 20 objects with lifetimes spread between 0
    /// and 6 hours.
    fn fig5_distribution() -> LifetimeDistribution {
        // 20 samples uniformly covering (0, 6]: 0.3, 0.6, …, 6.0 hours.
        LifetimeDistribution::from_samples((1..=20).map(|i| i as f64 * 0.3))
    }

    #[test]
    fn expected_lifetime_of_new_object() {
        let d = fig5_distribution();
        assert_eq!(d.samples.len(), 20);
        // Mean of 0.3..6.0 step 0.3 = 3.15, close to the paper's ≈3.25 h
        // reading for a fresh object of that class.
        let expected = d.expected_lifetime().unwrap();
        assert!((expected - 3.15).abs() < 1e-9);
    }

    #[test]
    fn expected_remaining_decreases_with_age_but_less_than_linearly() {
        let d = fig5_distribution();
        let at0 = d.expected_remaining(0.0).unwrap();
        let at2 = d.expected_remaining(2.0).unwrap();
        let at5 = d.expected_remaining(5.0).unwrap();
        // Conditioning on survival: a 2-hour-old object expects *more* than
        // the naive 1.15 h (= 3.15 − 2) because short-lived peers no longer
        // count — the qualitative effect behind the paper's 1.55 h reading
        // (their class is not uniformly distributed, so the exact number
        // differs).
        assert!(at2 < at0);
        assert!(at2 > at0 - 2.0);
        assert!(at2 > 1.0 && at2 < 2.5);
        assert!(at5 < at2);
        assert!(at5 > 0.0);
    }

    #[test]
    fn no_survivors_returns_none() {
        let d = fig5_distribution();
        assert!(d.expected_remaining(6.1).is_none());
        assert_eq!(d.max_lifetime(), Some(6.0));
    }

    #[test]
    fn empty_distribution_behaviour() {
        let d = LifetimeDistribution::new();
        assert!(d.samples.is_empty());
        assert!(d.expected_lifetime().is_none());
        assert!(d.expected_remaining(0.0).is_none());
        assert!(d.max_lifetime().is_none());
        assert_eq!(d.deletion_histogram(5).0.len(), 0);
        assert_eq!(d.ttl_curve(1.0).0.len(), 0);
    }

    #[test]
    fn histogram_covers_all_samples() {
        let d = fig5_distribution();
        let (bounds, counts) = d.deletion_histogram(6);
        assert_eq!(bounds.len(), 6);
        assert_eq!(counts.iter().sum::<usize>(), 20);
        assert!((bounds[5] - 6.0).abs() < 1e-9);
        // Roughly uniform: no bin is empty for this evenly spread class.
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn ttl_curve_is_monotone_decreasing_for_uniform_lifetimes() {
        let d = fig5_distribution();
        let (ages, remaining) = d.ttl_curve(1.0);
        assert!(!ages.is_empty());
        for pair in remaining.windows(2) {
            assert!(pair[1] <= pair[0] + 1e-9);
        }
    }

    #[test]
    fn record_keeps_samples_sorted_and_clamps_negatives() {
        let mut d = LifetimeDistribution::new();
        d.record(5.0);
        d.record(1.0);
        d.record(-2.0);
        d.record(3.0);
        assert_eq!(d.samples, [0.0, 1.0, 3.0, 5.0]);
    }
}
