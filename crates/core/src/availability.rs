//! `getAvailability`: the availability a provider set offers for an object.
//!
//! With threshold `m`, the object can be served as long as at least `m`
//! providers are reachable. The offered availability is therefore the
//! probability that at least `m` of the `n` providers are up simultaneously,
//! using each provider's availability SLA and assuming independent outages
//! (the paper's assumption, §IV-A).
//!
//! Computed as a Poisson-binomial tail with the `O(n²)` dynamic program of
//! [`crate::pbinom`] instead of the seed's combination enumeration (kept in
//! [`crate::reference`] for differential testing).

use crate::pbinom::SurvivalDistribution;
use scalia_providers::descriptor::ProviderDescriptor;
use scalia_types::reliability::Reliability;

/// Builds the reachability distribution of `pset` under its availability
/// SLAs.
pub(crate) fn availability_distribution(pset: &[ProviderDescriptor]) -> SurvivalDistribution {
    SurvivalDistribution::from_probabilities(pset.iter().map(|p| p.sla.availability.probability()))
}

/// Probability that an object with threshold `m` stored on `pset` can be
/// reassembled (at least `m` providers reachable).
pub fn get_availability(pset: &[ProviderDescriptor], m: u32) -> Reliability {
    let n = pset.len();
    if m == 0 {
        return Reliability::ONE;
    }
    if m as usize > n {
        return Reliability::ZERO;
    }
    availability_from_distribution(&availability_distribution(pset), m)
}

/// `getAvailability` on a prebuilt reachability distribution (used by the
/// branch-and-bound search, which folds providers in incrementally).
pub(crate) fn availability_from_distribution(dist: &SurvivalDistribution, m: u32) -> Reliability {
    if m == 0 {
        return Reliability::ONE;
    }
    if m as usize > dist.len() {
        return Reliability::ZERO;
    }
    Reliability::from_probability(dist.tail(m as usize))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalia_providers::catalog::{azure, rackspace, s3_high, s3_low};
    use scalia_types::ids::ProviderId;

    fn two_providers() -> Vec<ProviderDescriptor> {
        vec![s3_high(ProviderId::new(0)), s3_low(ProviderId::new(1))]
    }

    #[test]
    fn single_provider_availability_is_its_sla() {
        let pset = vec![s3_high(ProviderId::new(0))];
        let av = get_availability(&pset, 1);
        assert!((av.probability() - 0.999).abs() < 1e-12);
        // A single 99.9 provider cannot meet the paper's 99.99 requirement…
        assert!(!av.meets(Reliability::from_percent(99.99)));
    }

    #[test]
    fn mirroring_over_two_providers_meets_four_nines() {
        // …but two mirrored 99.9 providers give 1 − 0.001² = 99.9999 ≥ 99.99,
        // exactly the Slashdot-scenario argument.
        let av = get_availability(&two_providers(), 1);
        assert!((av.probability() - (1.0 - 0.001 * 0.001)).abs() < 1e-12);
        assert!(av.meets(Reliability::from_percent(99.99)));
    }

    #[test]
    fn pure_striping_availability_is_product() {
        // m = n: every provider must be up.
        let pset = two_providers();
        let av = get_availability(&pset, 2);
        assert!((av.probability() - 0.999 * 0.999).abs() < 1e-12);
        assert!(!av.meets(Reliability::from_percent(99.9)));
    }

    #[test]
    fn four_providers_m3_meets_four_nines() {
        // The Slashdot pre-peak set [S3(h), S3(l), Azure, RS; m:3]:
        // P(at least 3 of 4 up) with p = 0.999 each.
        let pset = vec![
            s3_high(ProviderId::new(0)),
            s3_low(ProviderId::new(1)),
            azure(ProviderId::new(2)),
            rackspace(ProviderId::new(3)),
        ];
        let av = get_availability(&pset, 3);
        let p: f64 = 0.999;
        let expected = p.powi(4) + 4.0 * p.powi(3) * (1.0 - p);
        assert!((av.probability() - expected).abs() < 1e-12);
        assert!(av.meets(Reliability::from_percent(99.99)));
    }

    #[test]
    fn availability_is_monotone_in_m() {
        let pset = vec![
            s3_high(ProviderId::new(0)),
            s3_low(ProviderId::new(1)),
            azure(ProviderId::new(2)),
            rackspace(ProviderId::new(3)),
        ];
        let mut last = Reliability::ONE;
        for m in 1..=4u32 {
            let av = get_availability(&pset, m);
            assert!(av <= last, "availability must not increase with m");
            last = av;
        }
    }

    #[test]
    fn edge_cases() {
        let pset = two_providers();
        assert_eq!(get_availability(&pset, 0), Reliability::ONE);
        assert_eq!(get_availability(&pset, 3), Reliability::ZERO);
        assert_eq!(get_availability(&[], 1), Reliability::ZERO);
    }

    #[test]
    fn dp_availability_matches_combinatorial_reference() {
        let pset = vec![
            s3_high(ProviderId::new(0)),
            s3_low(ProviderId::new(1)),
            azure(ProviderId::new(2)),
            rackspace(ProviderId::new(3)),
        ];
        for m in 0..=5u32 {
            let dp = get_availability(&pset, m).probability();
            let reference =
                crate::reference::get_availability_combinatorial(&pset, m).probability();
            assert!((dp - reference).abs() < 1e-12, "m={m}");
        }
    }
}
