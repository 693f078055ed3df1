//! Workload generators.
//!
//! A [`Workload`] is a set of objects, each with a size, a storage rule, a
//! creation (and optional deletion) period and a per-sampling-period demand
//! vector, plus a list of provider events (arrivals and outages). Demands
//! are generated deterministically from a seed so experiments are exactly
//! reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scalia_providers::descriptor::ProviderDescriptor;
use scalia_types::rules::StorageRule;
use scalia_types::size::ByteSize;
use scalia_types::time::Duration;

/// The demand an object experiences during one sampling period.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PeriodDemand {
    /// Number of read operations.
    pub reads: u64,
    /// Number of write (update) operations.
    pub writes: u64,
}

/// One object of a workload.
#[derive(Debug, Clone)]
pub struct WorkloadObject {
    /// Stable identifier (used as metadata row key in the simulation).
    pub id: String,
    /// Object size.
    pub size: ByteSize,
    /// Storage rule the object must obey.
    pub rule: StorageRule,
    /// Sampling period at which the object is created.
    pub created_period: u64,
    /// Sampling period at which the object is deleted, if ever.
    pub deleted_period: Option<u64>,
    /// Demand per sampling period, indexed by absolute period number.
    pub demand: Vec<PeriodDemand>,
}

impl WorkloadObject {
    /// The demand of the object during `period` (zero before creation,
    /// after deletion or beyond the demand vector).
    pub(crate) fn demand_at(&self, period: u64) -> PeriodDemand {
        if period < self.created_period {
            return PeriodDemand::default();
        }
        if let Some(deleted) = self.deleted_period {
            if period >= deleted {
                return PeriodDemand::default();
            }
        }
        self.demand
            .get(period as usize)
            .copied()
            .unwrap_or_default()
    }

    /// Returns `true` if the object exists (has been created and not yet
    /// deleted) during `period`.
    pub(crate) fn alive_at(&self, period: u64) -> bool {
        period >= self.created_period && self.deleted_period.map(|d| period < d).unwrap_or(true)
    }
}

/// A change in the provider landscape during the simulation.
#[derive(Debug, Clone)]
pub enum ProviderEvent {
    /// A new provider is registered at the given period.
    Arrival {
        /// Period of arrival.
        period: u64,
        /// The provider being registered.
        descriptor: ProviderDescriptor,
    },
    /// A provider is unreachable during `[from, to)`.
    Outage {
        /// Name of the affected provider (as in the catalog).
        provider_name: String,
        /// First period of the outage.
        from: u64,
        /// First period after recovery.
        to: u64,
    },
}

/// A complete workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Human-readable name of the scenario.
    pub name: String,
    /// The objects.
    pub objects: Vec<WorkloadObject>,
    /// Total number of sampling periods simulated.
    pub periods: u64,
    /// Length of one sampling period.
    pub sampling_period: Duration,
    /// Provider arrivals and outages.
    pub events: Vec<ProviderEvent>,
}

/// The diurnal request-rate profile of the paper's reference website:
/// roughly 2500 visitors per day, 62 % from Europe, 27 % from North America
/// and 6 % from Asia (the remaining 5 % spread uniformly). Each regional
/// population follows a sinusoidal daily cycle peaking in its local
/// afternoon; multiplicative noise makes consecutive days differ.
///
/// Returns the expected number of *visits* during each of `periods` hourly
/// sampling periods.
pub(crate) fn website_hourly_visits(periods: u64, daily_visitors: f64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut visits = Vec::with_capacity(periods as usize);
    // Regional peak hours in simulation (UTC-like) time.
    let regions = [(0.62, 14.0_f64), (0.27, 21.0), (0.06, 7.0), (0.05, 12.0)];
    for p in 0..periods {
        let hour_of_day = (p % 24) as f64;
        let mut rate = 0.0;
        for &(share, peak_hour) in &regions {
            // Scaled cosine bump centred on the regional peak hour; the
            // normalisation keeps the daily integral at `share`.
            let phase = (hour_of_day - peak_hour) * std::f64::consts::TAU / 24.0;
            let diurnal = (1.0 + phase.cos()).max(0.0) / 24.0;
            rate += share * diurnal;
        }
        let noise = rng.gen_range(0.85..1.15);
        visits.push(daily_visitors * rate * noise);
    }
    visits
}

/// Draws `n` popularity weights following a heavy-tailed Pareto distribution
/// (shape 1) truncated at `cap`, normalised to sum to 1 — the paper's
/// "popularity of the pictures follows a Pareto (1, 50)".
pub(crate) fn pareto_popularity(n: usize, cap: f64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut weights: Vec<f64> = (0..n)
        .map(|_| {
            let u: f64 = rng.gen_range(0.0f64..1.0);
            // Inverse-CDF sampling of Pareto(x_m = 1, alpha = 1), truncated.
            (1.0 / (1.0 - u).max(1e-9)).min(cap)
        })
        .collect();
    let total: f64 = weights.iter().sum();
    for w in &mut weights {
        *w /= total;
    }
    weights
}

/// Zipf popularity weights over `n` ranked items with skew exponent `s`
/// (`w_i ∝ 1/(i+1)^s`), normalised to sum to 1. `s = 0` is uniform; around
/// `s ≈ 1` the classic hot-key skew of web object stores appears. Used by
/// the traffic harness to pick which object each request touches.
pub(crate) fn zipf_weights(n: usize, s: f64) -> Vec<f64> {
    let mut weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    for w in &mut weights {
        *w /= total.max(f64::MIN_POSITIVE);
    }
    weights
}

/// Cumulative distribution of a weight vector, for inverse-CDF sampling:
/// `cdf[i]` is the probability of drawing an index ≤ `i`. The last entry is
/// forced to exactly 1 so a uniform draw in `[0, 1)` always lands.
pub(crate) fn cumulative_distribution(weights: &[f64]) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = weights
        .iter()
        .map(|w| {
            acc += w;
            acc
        })
        .collect();
    if let Some(last) = cdf.last_mut() {
        *last = 1.0;
    }
    cdf
}

/// Inverse-CDF sample: the smallest index whose cumulative probability
/// covers `u ∈ [0, 1)`.
pub(crate) fn sample_cdf(cdf: &[f64], u: f64) -> usize {
    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
}

/// Distributes an expected number of requests into an integer count in a
/// deterministic, smoothly rounding way (error diffusion), so that the total
/// over a long run matches the expectation without randomness.
pub(crate) fn diffuse_rounding(expected: &[f64]) -> Vec<u64> {
    let mut carry = 0.0;
    expected
        .iter()
        .map(|&e| {
            let target = e + carry;
            let count = target.floor().max(0.0);
            carry = target - count;
            count as u64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalia_types::reliability::Reliability;
    use scalia_types::zone::ZoneSet;

    fn object(created: u64, deleted: Option<u64>, demand: Vec<PeriodDemand>) -> WorkloadObject {
        WorkloadObject {
            id: "o".into(),
            size: ByteSize::from_mb(1),
            rule: StorageRule::new(
                "r",
                Reliability::from_percent(99.999),
                Reliability::from_percent(99.99),
                ZoneSet::all(),
                1.0,
            ),
            created_period: created,
            deleted_period: deleted,
            demand,
        }
    }

    #[test]
    fn demand_respects_lifetime() {
        let demand = vec![
            PeriodDemand {
                reads: 5,
                writes: 0
            };
            10
        ];
        let o = object(2, Some(6), demand);
        assert_eq!(o.demand_at(0).reads, 0);
        assert_eq!(o.demand_at(2).reads, 5);
        assert_eq!(o.demand_at(5).reads, 5);
        assert_eq!(o.demand_at(6).reads, 0);
        assert_eq!(o.demand_at(100).reads, 0);
        assert!(!o.alive_at(1));
        assert!(o.alive_at(2));
        assert!(!o.alive_at(6));
    }

    #[test]
    fn website_pattern_is_diurnal_and_scaled() {
        let visits = website_hourly_visits(7 * 24, 2500.0, 42);
        assert_eq!(visits.len(), 168);
        let total: f64 = visits.iter().sum();
        // ~2500/day over 7 days, within noise.
        assert!(
            total > 7.0 * 2500.0 * 0.8 && total < 7.0 * 2500.0 * 1.2,
            "total = {total}"
        );
        // Peak hours carry far more traffic than the quietest hours.
        let day: Vec<f64> = visits[..24].to_vec();
        let max = day.iter().cloned().fold(0.0f64, f64::max);
        let min = day.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max > 3.0 * min.max(1e-9));
        // Deterministic for a fixed seed.
        assert_eq!(visits, website_hourly_visits(7 * 24, 2500.0, 42));
    }

    #[test]
    fn pareto_popularity_is_normalised_and_skewed() {
        let weights = pareto_popularity(200, 50.0, 7);
        assert_eq!(weights.len(), 200);
        let total: f64 = weights.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        let mut sorted = weights.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let top10: f64 = sorted[..20].iter().sum();
        // The most popular 10% of pictures draw well over 10% of traffic.
        assert!(top10 > 0.2, "top10 share = {top10}");
        assert_eq!(weights, pareto_popularity(200, 50.0, 7));
    }

    #[test]
    fn zipf_weights_are_normalised_and_skewed() {
        let w = zipf_weights(100, 1.0);
        assert_eq!(w.len(), 100);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(w[0] > w[99] * 50.0, "rank 1 must dwarf rank 100");
        // s = 0 degenerates to uniform.
        let flat = zipf_weights(10, 0.0);
        assert!((flat[0] - flat[9]).abs() < 1e-12);

        let cdf = cumulative_distribution(&w);
        assert_eq!(*cdf.last().unwrap(), 1.0);
        assert_eq!(sample_cdf(&cdf, 0.0), 0);
        assert_eq!(sample_cdf(&cdf, 0.999_999_999), 99);
        // The head of the distribution absorbs most of the mass.
        assert!(sample_cdf(&cdf, 0.5) < 10);
    }

    #[test]
    fn diffuse_rounding_preserves_totals() {
        let expected = vec![0.4; 10];
        let counts = diffuse_rounding(&expected);
        assert_eq!(counts.iter().sum::<u64>(), 4);
        let expected = vec![2.5, 0.25, 1.25, 3.0];
        let counts = diffuse_rounding(&expected);
        assert_eq!(counts.iter().sum::<u64>(), 7);
        assert!(diffuse_rounding(&[]).is_empty());
    }
}
