//! Seed-equivalent reference implementations of the placement math.
//!
//! These are the original combination-enumerating implementations of
//! Algorithm 2 (`getThreshold`), `getAvailability` and the
//! subset-materializing exhaustive search — kept verbatim so that
//!
//! * differential tests can assert the optimized Poisson-binomial /
//!   branch-and-bound code paths produce identical results, and
//! * `benches/placement.rs` can measure the speed-up against the exact
//!   baseline the paper describes.
//!
//! They are exponential-inside-exponential and allocate a clone of every
//! subset; production code must use [`crate::durability`],
//! [`crate::availability`] and [`crate::placement`] instead.

use crate::combinations::{all_subsets, k_combinations};
use crate::cost::{compute_price_weighted, PredictedUsage};
use crate::placement::{Placement, PlacementDecision};
use scalia_providers::descriptor::ProviderDescriptor;
use scalia_types::money::Money;
use scalia_types::reliability::Reliability;
use scalia_types::rules::StorageRule;

/// Combinatorial `getThreshold` (Algorithm 2), exactly as the seed
/// implemented it: enumerates the k-combinations of failed providers.
pub fn get_threshold_combinatorial(pset: &[ProviderDescriptor], required: Reliability) -> u32 {
    if pset.is_empty() {
        return 0;
    }
    let dr = required.probability();
    let n = pset.len();
    let mut dura = 0.0f64;
    let mut failures_ok: i64 = -1;

    while dura < dr && failures_ok < n as i64 {
        failures_ok += 1;
        let k = failures_ok as usize;
        // Probability that exactly `k` specific providers lose the data.
        let mut up_p = 0.0f64;
        for failed in k_combinations(pset, k) {
            let mut up_p_comb = 1.0f64;
            for p in pset {
                let durability = p.sla.durability.probability();
                if failed.iter().any(|f| f.id == p.id) {
                    up_p_comb *= 1.0 - durability;
                } else {
                    up_p_comb *= durability;
                }
            }
            up_p += up_p_comb;
        }
        dura += up_p;
    }

    if dura + 1e-15 < dr {
        return 0;
    }
    (n as i64 - failures_ok).max(0) as u32
}

/// Combinatorial survival probability: P(at least `m` providers keep their
/// chunk), summed over failed-provider combinations as in the seed.
pub fn survival_probability_combinatorial(pset: &[ProviderDescriptor], m: u32) -> f64 {
    let n = pset.len();
    if m == 0 || m as usize > n {
        return if m == 0 { 1.0 } else { 0.0 };
    }
    let mut prob = 0.0;
    for k in 0..=(n - m as usize) {
        for failed in k_combinations(pset, k) {
            let mut p = 1.0;
            for provider in pset {
                let durability = provider.sla.durability.probability();
                if failed.iter().any(|f| f.id == provider.id) {
                    p *= 1.0 - durability;
                } else {
                    p *= durability;
                }
            }
            prob += p;
        }
    }
    prob
}

/// Combinatorial `getAvailability`: P(at least `m` of the providers are
/// reachable), summed over unreachable-provider combinations as in the seed.
pub fn get_availability_combinatorial(pset: &[ProviderDescriptor], m: u32) -> Reliability {
    let n = pset.len();
    if m == 0 {
        return Reliability::ONE;
    }
    if m as usize > n {
        return Reliability::ZERO;
    }
    let mut prob = 0.0f64;
    for down_count in 0..=(n - m as usize) {
        for down in k_combinations(pset, down_count) {
            let mut p = 1.0f64;
            for provider in pset {
                let availability = provider.sla.availability.probability();
                if down.iter().any(|d| d.id == provider.id) {
                    p *= 1.0 - availability;
                } else {
                    p *= availability;
                }
            }
            prob += p;
        }
    }
    Reliability::from_probability(prob)
}

/// Evaluates one candidate set with the combinatorial constraint math,
/// mirroring the seed's `PlacementEngine::evaluate_set` step for step.
pub(crate) fn evaluate_set_combinatorial(
    rule: &StorageRule,
    usage: &PredictedUsage,
    pset: &[ProviderDescriptor],
) -> Option<(u32, Money)> {
    if !rule.lockin_satisfied(pset.len()) {
        return None;
    }
    if pset.iter().any(|p| !p.zones.intersects(rule.zones)) {
        return None;
    }
    let max_threshold = get_threshold_combinatorial(pset, rule.durability);
    if max_threshold == 0 {
        return None;
    }
    let threshold = (1..=max_threshold)
        .rev()
        .find(|&m| get_availability_combinatorial(pset, m).meets(rule.availability))?;
    let chunk = usage.size.div_ceil(threshold as usize);
    if pset.iter().any(|p| !p.accepts_chunk(chunk)) {
        return None;
    }
    // The latency term rides on the same weighted pricer the production
    // search uses; at the default weight 0 this is bit-identical to the
    // seed's `compute_price`, so the reference stays the brute-force oracle
    // for both the latency-blind and the latency-aware search.
    Some((
        threshold,
        compute_price_weighted(pset, threshold, usage, rule.latency_weight),
    ))
}

/// The seed's exhaustive search: materializes every non-empty subset as a
/// cloned `Vec<ProviderDescriptor>` and evaluates each with the
/// combinatorial constraint math. Exact but exponential-inside-exponential.
pub fn exhaustive_search_combinatorial(
    rule: &StorageRule,
    usage: &PredictedUsage,
    providers: &[ProviderDescriptor],
) -> Option<PlacementDecision> {
    let mut best_price = Money::MAX;
    let mut best: Option<Placement> = None;

    for pset in all_subsets(providers) {
        if let Some((threshold, price)) = evaluate_set_combinatorial(rule, usage, &pset) {
            if price < best_price {
                best_price = price;
                best = Some(Placement {
                    providers: pset,
                    m: threshold,
                });
            }
        }
    }

    best.map(|placement| PlacementDecision {
        placement,
        expected_cost: best_price,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalia_providers::catalog::{azure, google, rackspace, s3_high, s3_low};
    use scalia_types::ids::ProviderId;
    use scalia_types::size::ByteSize;
    use scalia_types::zone::ZoneSet;

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
    fn reference_search_finds_the_known_optimum() {
        let rule = StorageRule::new(
            "ref",
            Reliability::from_percent(99.999),
            Reliability::from_percent(99.99),
            ZoneSet::all(),
            1.0,
        );
        let usage = PredictedUsage {
            size: ByteSize::from_mb(1),
            bw_in: ByteSize::ZERO,
            bw_out: ByteSize::from_mb(150 * 24),
            reads: 150 * 24,
            writes: 0,
            duration_hours: 24.0,
        };
        let decision = exhaustive_search_combinatorial(&rule, &usage, &catalog()).unwrap();
        assert_eq!(decision.placement.m, 1, "the Slashdot peak mirrors");
        assert_eq!(decision.placement.providers.len(), 2);
    }
}
