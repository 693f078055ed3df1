//! Algorithm 2: `getThreshold`.
//!
//! Given a provider set and the object's required durability, compute the
//! **largest** erasure-coding threshold `m` such that the probability that
//! the object survives (i.e. at least `m` providers keep their chunks,
//! according to each provider's durability SLA) meets the requirement.
//!
//! The algorithm counts upwards the number of simultaneous provider losses
//! that must be tolerated: starting from zero tolerated failures, it adds
//! the probability mass of "exactly k providers lose the data" until the
//! accumulated survival probability reaches the requirement. The threshold
//! is then `|pset| − failuresOK`. A threshold of zero means the set cannot
//! satisfy the constraint at all.
//!
//! The "exactly k providers lose the data" masses come from the
//! Poisson-binomial dynamic program of [`crate::pbinom`] (`O(n²)` per set)
//! instead of the seed's k-combination enumeration (`O(2^n)` per set); the
//! original enumeration survives in [`crate::reference`] for differential
//! testing.

use crate::pbinom::SurvivalDistribution;
use scalia_providers::descriptor::ProviderDescriptor;
use scalia_types::reliability::Reliability;

/// Builds the survival distribution of `pset` under its durability SLAs.
pub(crate) fn durability_distribution(pset: &[ProviderDescriptor]) -> SurvivalDistribution {
    SurvivalDistribution::from_probabilities(pset.iter().map(|p| p.sla.durability.probability()))
}

/// Computes the largest threshold `m` for `pset` under durability
/// requirement `required`. Returns `0` if the provider set cannot satisfy
/// the requirement even with full replication (`m = 1` still insufficient …
/// which for independent providers only happens when the requirement
/// exceeds the probability that at least one provider retains the data).
pub fn get_threshold(pset: &[ProviderDescriptor], required: Reliability) -> u32 {
    if pset.is_empty() {
        return 0;
    }
    threshold_from_distribution(&durability_distribution(pset), required)
}

/// The core of Algorithm 2, operating on a prebuilt survival distribution
/// (used by the branch-and-bound search, which folds providers in
/// incrementally). Mirrors the seed's accumulation loop exactly: the mass
/// of "exactly k providers fail" is `P(exactly n − k survive)`.
pub(crate) fn threshold_from_distribution(
    dist: &SurvivalDistribution,
    required: Reliability,
) -> u32 {
    let n = dist.len();
    if n == 0 {
        return 0;
    }
    let dr = required.probability();
    let mut dura = 0.0f64;
    let mut failures_ok: i64 = -1;

    while dura < dr && failures_ok < n as i64 {
        failures_ok += 1;
        dura += dist.exactly(n - failures_ok as usize);
    }

    if dura + 1e-15 < dr {
        return 0;
    }
    (n as i64 - failures_ok).max(0) as u32
}

/// The survival probability of an object stored on `pset` with threshold
/// `m`: the probability that at least `m` providers retain their chunk.
/// Exposed for tests and for the evaluation's reporting.
pub fn survival_probability(pset: &[ProviderDescriptor], m: u32) -> f64 {
    let n = pset.len();
    if m == 0 || m as usize > n {
        return if m == 0 { 1.0 } else { 0.0 };
    }
    durability_distribution(pset).tail(m as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalia_providers::catalog::{azure, google, rackspace, s3_high, s3_low};
    use scalia_types::ids::ProviderId;

    fn catalog() -> Vec<ProviderDescriptor> {
        vec![
            s3_high(ProviderId::new(0)),
            s3_low(ProviderId::new(1)),
            rackspace(ProviderId::new(2)),
            azure(ProviderId::new(3)),
            google(ProviderId::new(4)),
        ]
    }

    #[test]
    fn single_high_durability_provider_meets_modest_requirement() {
        // The Slashdot scenario: durability 99.999 "is easily met by only 1
        // provider" (S3(h) has eleven nines).
        let pset = vec![s3_high(ProviderId::new(0))];
        let th = get_threshold(&pset, Reliability::from_percent(99.999));
        assert_eq!(th, 1);
    }

    #[test]
    fn single_low_durability_provider_fails_high_requirement() {
        // S3(l) alone (99.99) cannot meet 99.999.
        let pset = vec![s3_low(ProviderId::new(1))];
        let th = get_threshold(&pset, Reliability::from_percent(99.999));
        assert_eq!(th, 0);
    }

    #[test]
    fn requirement_already_met_with_zero_failures_gives_full_stripe() {
        // Five providers, all ≥ 99.99 durable; requiring only 99.9 is met
        // even with no tolerated failure, so m = n = 5 (pure striping).
        let pset = catalog();
        let th = get_threshold(&pset, Reliability::from_percent(99.9));
        assert_eq!(th, 5);
    }

    #[test]
    fn stricter_requirement_lowers_threshold() {
        let pset = catalog();
        let lax = get_threshold(&pset, Reliability::from_percent(99.9));
        let strict = get_threshold(&pset, Reliability::from_percent(99.99999));
        let stricter = get_threshold(&pset, Reliability::nines(9));
        assert!(strict <= lax);
        assert!(stricter <= strict);
        assert!(stricter >= 1, "five providers can always mirror");
    }

    #[test]
    fn two_low_durability_providers_can_mirror_to_meet_requirement() {
        // Each S3(l)-like provider has 99.99; requiring 99.999 needs
        // tolerance of one failure → m = 1 (mirroring).
        let pset = vec![s3_low(ProviderId::new(0)), s3_low(ProviderId::new(1))];
        let th = get_threshold(&pset, Reliability::from_percent(99.999));
        assert_eq!(th, 1);
    }

    #[test]
    fn threshold_matches_survival_probability() {
        let pset = catalog();
        for required in [
            Reliability::from_percent(99.9),
            Reliability::from_percent(99.999),
            Reliability::from_percent(99.9999999),
        ] {
            let th = get_threshold(&pset, required);
            if th == 0 {
                continue;
            }
            // The returned threshold must satisfy the requirement…
            let p = survival_probability(&pset, th);
            assert!(
                p + 1e-12 >= required.probability(),
                "threshold {th} does not meet requirement"
            );
            // …and be the largest such m (m+1 must fail, unless m = n).
            if (th as usize) < pset.len() {
                let p_next = survival_probability(&pset, th + 1);
                assert!(
                    p_next < required.probability() + 1e-12,
                    "threshold {th} is not maximal"
                );
            }
        }
    }

    #[test]
    fn survival_probability_edge_cases() {
        let pset = catalog();
        assert_eq!(survival_probability(&pset, 0), 1.0);
        assert_eq!(survival_probability(&pset, 6), 0.0);
        // m = n equals the product of all durabilities.
        let product: f64 = pset
            .iter()
            .map(|p| p.sla.durability.probability())
            .product();
        assert!((survival_probability(&pset, 5) - product).abs() < 1e-12);
    }

    #[test]
    fn empty_set_is_infeasible() {
        assert_eq!(get_threshold(&[], Reliability::from_percent(99.0)), 0);
    }

    #[test]
    fn dp_threshold_matches_combinatorial_reference() {
        let pset = catalog();
        for required in [
            Reliability::from_percent(99.0),
            Reliability::from_percent(99.999),
            Reliability::nines(7),
            Reliability::nines(12),
        ] {
            assert_eq!(
                get_threshold(&pset, required),
                crate::reference::get_threshold_combinatorial(&pset, required),
                "requirement {required:?}"
            );
        }
    }
}
