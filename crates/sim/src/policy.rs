//! Placement policies compared by the evaluation.
//!
//! * [`StaticSetPolicy`] — a fixed provider set (one of Fig. 13): the
//!   threshold is recomputed from the set and the object's rule, and during
//!   an outage the set shrinks to its reachable members (as the paper does
//!   in §IV-E for the static baseline).
//! * `IdealPolicy` — the per-period oracle: with perfect knowledge of the
//!   period's demand it picks the cheapest feasible set; it pays no
//!   migration cost (it is a lower bound, exactly as used for the "% over
//!   cost" metric).
//! * [`ScaliaPolicy`] — the adaptive policy: first placement from the
//!   expected storage-only usage, then trend-detection-gated re-placement
//!   over the decision period, a migration cost/benefit gate, and immediate
//!   reaction to provider arrivals and outages. The decision itself is
//!   `scalia_core::decision`'s, the step the engine's optimiser runs too.

use crate::workload::{PeriodDemand, WorkloadObject};
use scalia_core::cost::PredictedUsage;
use scalia_core::decision::{self, rule_fingerprint, DecisionPeriodController};
use scalia_core::placement::{Placement, PlacementDecision, PlacementEngine};
use scalia_core::trend::TrendDetector;
use scalia_providers::descriptor::ProviderDescriptor;
use scalia_types::stats::AccessHistory;
use scalia_types::time::Duration;
use std::collections::HashMap;

/// A placement policy driven period by period by the simulator.
pub trait PlacementPolicy {
    /// Display name of the policy (used in reports).
    fn name(&self) -> String;

    /// Decides where `obj` lives during `period`.
    ///
    /// `history` contains the object's access statistics for every period
    /// **before** `period`; `actual_demand` is the demand of the current
    /// period and may only be used by oracle policies. Returns `None` when
    /// the policy has no feasible placement for this object.
    fn placement_for(
        &mut self,
        obj: &WorkloadObject,
        period: u64,
        available: &[ProviderDescriptor],
        history: &AccessHistory,
        actual_demand: PeriodDemand,
    ) -> Option<Placement>;

    /// Whether placement changes of this policy incur migration costs
    /// (the ideal oracle is exempt — it is a lower bound).
    fn charges_migration(&self) -> bool {
        true
    }

    /// Number of placement subset searches the policy has run so far.
    /// Policies that do not track this report 0.
    fn placement_searches(&self) -> u64 {
        0
    }
}

fn usage_for_period(
    obj: &WorkloadObject,
    demand: PeriodDemand,
    period_hours: f64,
) -> PredictedUsage {
    PredictedUsage {
        size: obj.size,
        bw_in: scalia_types::size::ByteSize::from_bytes(demand.writes * obj.size.bytes()),
        bw_out: scalia_types::size::ByteSize::from_bytes(demand.reads * obj.size.bytes()),
        reads: demand.reads,
        writes: demand.writes,
        duration_hours: period_hours,
    }
}

// ---------------------------------------------------------------------
// Static sets
// ---------------------------------------------------------------------

/// A fixed provider set.
pub struct StaticSetPolicy {
    label: String,
    provider_names: Vec<String>,
}

impl StaticSetPolicy {
    /// Creates a policy pinned to the given providers (identified by name so
    /// outages and re-registrations do not confuse it).
    pub fn new(label: impl Into<String>, providers: &[ProviderDescriptor]) -> Self {
        StaticSetPolicy {
            label: label.into(),
            provider_names: providers.iter().map(|p| p.name.clone()).collect(),
        }
    }
}

impl PlacementPolicy for StaticSetPolicy {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn placement_for(
        &mut self,
        obj: &WorkloadObject,
        _period: u64,
        available: &[ProviderDescriptor],
        _history: &AccessHistory,
        _actual_demand: PeriodDemand,
    ) -> Option<Placement> {
        // The fixed set, restricted to the providers currently reachable.
        let pset: Vec<ProviderDescriptor> = available
            .iter()
            .filter(|p| self.provider_names.contains(&p.name))
            .cloned()
            .collect();
        if pset.is_empty() {
            return None;
        }
        let usage = PredictedUsage::storage_only(obj.size, 1.0);
        let (m, _) = PlacementEngine::evaluate_set(&obj.rule, &usage, &pset)?;
        Some(Placement { providers: pset, m })
    }
}

// ---------------------------------------------------------------------
// Ideal oracle
// ---------------------------------------------------------------------

/// The per-period ideal placement, computed with a-priori knowledge of the
/// period's demand.
#[derive(Default)]
pub(crate) struct IdealPolicy {
    engine: PlacementEngine,
}

impl IdealPolicy {
    /// Creates the oracle.
    pub(crate) fn new() -> Self {
        Self::default()
    }
}

impl PlacementPolicy for IdealPolicy {
    fn name(&self) -> String {
        "Ideal".to_string()
    }

    fn placement_for(
        &mut self,
        obj: &WorkloadObject,
        _period: u64,
        available: &[ProviderDescriptor],
        _history: &AccessHistory,
        actual_demand: PeriodDemand,
    ) -> Option<Placement> {
        let usage = usage_for_period(obj, actual_demand, 1.0);
        self.engine
            .best_placement(&obj.rule, &usage, available)
            .ok()
            .map(|d| d.placement)
    }

    fn charges_migration(&self) -> bool {
        false
    }
}

// ---------------------------------------------------------------------
// Scalia (adaptive)
// ---------------------------------------------------------------------

struct ObjectState {
    placement: Placement,
    controller: DecisionPeriodController,
    known_providers: usize,
    /// Fingerprint of the available providers' observed-latency summaries
    /// at the last evaluation: when observations shift the ranking picture,
    /// the placement is re-evaluated even without a traffic trend change —
    /// the sim-side analogue of the engine's catalog-version invalidation.
    latency_fingerprint: u64,
}

/// FNV-1a over the (name, observed latency) pairs of the available set.
fn latency_fingerprint(available: &[ProviderDescriptor]) -> u64 {
    let mut hash = 0xcbf29ce484222325u64;
    let mut eat = |byte: u8| {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    };
    for provider in available {
        for byte in provider.name.bytes() {
            eat(byte);
        }
        let tag = provider
            .observed_read_latency_us
            .map(|us| us.wrapping_add(1))
            .unwrap_or(0);
        for byte in tag.to_le_bytes() {
            eat(byte);
        }
    }
    hash
}

/// Bit-exact identity of one placement search: the period, the rule's
/// constraint fields, the predicted usage and the available-set
/// fingerprint. Two objects of the same class with the same demand produce
/// the same key, so a many-objects-few-classes workload runs one search
/// per class per re-evaluation instead of one per object — the sim-side
/// mirror of the engine's class-centric optimisation pipeline. Distinct
/// inputs always produce distinct keys, so memoization is behaviour-
/// preserving.
#[derive(Clone, PartialEq, Eq, Hash)]
struct SearchKey {
    period: u64,
    rule_name: String,
    rule_bits: [u64; 5],
    usage_bits: [u64; 6],
    available_fingerprint: u64,
}

impl SearchKey {
    fn of(
        period: u64,
        rule: &scalia_types::rules::StorageRule,
        usage: &PredictedUsage,
        available: &[ProviderDescriptor],
    ) -> Self {
        SearchKey {
            period,
            rule_name: rule.name.clone(),
            rule_bits: rule_fingerprint(rule),
            usage_bits: [
                usage.size.bytes(),
                usage.bw_in.bytes(),
                usage.bw_out.bytes(),
                usage.reads,
                usage.writes,
                usage.duration_hours.to_bits(),
            ],
            available_fingerprint: latency_fingerprint(available),
        }
    }
}

/// The Scalia adaptive placement policy.
pub struct ScaliaPolicy {
    engine: PlacementEngine,
    detector: TrendDetector,
    sampling: Duration,
    default_decision_periods: usize,
    adaptive_decision_period: bool,
    migration_gate: bool,
    state: HashMap<String, ObjectState>,
    /// Per-period memo of exact search inputs → decision: same-class
    /// objects with identical demand share one subset search.
    search_memo: std::cell::RefCell<HashMap<SearchKey, Option<PlacementDecision>>>,
    memo_period: std::cell::Cell<u64>,
    searches: std::cell::Cell<u64>,
}

impl ScaliaPolicy {
    /// Creates the policy with the paper's defaults: trend window 3, limit
    /// 10 %, initial decision period of 24 sampling periods, adaptive
    /// decision period and migration gate enabled.
    pub fn new(period_hours: f64) -> Self {
        ScaliaPolicy {
            engine: PlacementEngine::new(),
            detector: TrendDetector::default(),
            sampling: Duration::from_secs((period_hours * 3600.0) as u64),
            default_decision_periods: 24,
            adaptive_decision_period: true,
            migration_gate: true,
            state: HashMap::new(),
            search_memo: std::cell::RefCell::new(HashMap::new()),
            memo_period: std::cell::Cell::new(u64::MAX),
            searches: std::cell::Cell::new(0),
        }
    }

    /// Runs (or reuses) the subset search for bit-identical inputs within
    /// one period. The memo never crosses periods (the available set and
    /// observations may change), so behaviour is identical to searching
    /// every time — only the duplicate work is gone.
    fn search_cached(
        &self,
        period: u64,
        rule: &scalia_types::rules::StorageRule,
        usage: &PredictedUsage,
        available: &[ProviderDescriptor],
    ) -> Option<PlacementDecision> {
        if self.memo_period.get() != period {
            self.search_memo.borrow_mut().clear();
            self.memo_period.set(period);
        }
        let key = SearchKey::of(period, rule, usage, available);
        if let Some(cached) = self.search_memo.borrow().get(&key) {
            return cached.clone();
        }
        self.searches.set(self.searches.get() + 1);
        let decision = self.engine.best_placement(rule, usage, available).ok();
        self.search_memo.borrow_mut().insert(key, decision.clone());
        decision
    }

    /// Overrides the trend detector (for the Figs. 8/9 parameter studies).
    pub fn with_detector(mut self, detector: TrendDetector) -> Self {
        self.detector = detector;
        self
    }

    /// Overrides the initial decision period, in sampling periods.
    pub fn with_decision_periods(mut self, periods: usize) -> Self {
        self.default_decision_periods = periods.max(1);
        self
    }

    /// Disables the adaptive decision period (ablation).
    pub fn with_fixed_decision_period(mut self) -> Self {
        self.adaptive_decision_period = false;
        self
    }

    /// Disables the migration cost/benefit gate (ablation: always migrate to
    /// the currently cheapest set).
    pub fn without_migration_gate(mut self) -> Self {
        self.migration_gate = false;
        self
    }

    fn first_placement(
        &mut self,
        obj: &WorkloadObject,
        period: u64,
        available: &[ProviderDescriptor],
    ) -> Option<Placement> {
        // No history yet, and the simulator keeps no class statistics:
        // optimise for the expected storage-dominated usage over the
        // default decision period. Same-class objects created in the same
        // period share one search through the memo.
        let usage = decision::first_usage(
            obj.size,
            None,
            self.default_decision_periods,
            self.sampling,
            None,
        );
        self.search_cached(period, &obj.rule, &usage, available)
            .map(|d| d.placement)
    }
}

impl PlacementPolicy for ScaliaPolicy {
    fn name(&self) -> String {
        "Scalia".to_string()
    }

    fn placement_searches(&self) -> u64 {
        self.searches.get()
    }

    fn placement_for(
        &mut self,
        obj: &WorkloadObject,
        period: u64,
        available: &[ProviderDescriptor],
        history: &AccessHistory,
        _actual_demand: PeriodDemand,
    ) -> Option<Placement> {
        let sampling = self.sampling;

        if !self.state.contains_key(&obj.id) {
            let placement = self.first_placement(obj, period, available)?;
            self.state.insert(
                obj.id.clone(),
                ObjectState {
                    placement: placement.clone(),
                    controller: DecisionPeriodController::new(
                        sampling.times(self.default_decision_periods as u64),
                        sampling,
                        4096,
                    ),
                    known_providers: available.len(),
                    latency_fingerprint: latency_fingerprint(available),
                },
            );
            return Some(placement);
        }

        // Work on a detached copy of the state to keep the borrow checker
        // happy while we call helper methods on `self`.
        let (mut placement, mut controller, known_providers, last_fingerprint) = {
            let state = self.state.get(&obj.id).expect("state exists");
            (
                state.placement.clone(),
                state.controller.clone(),
                state.known_providers,
                state.latency_fingerprint,
            )
        };

        // Did the provider landscape change (arrival/outage/recovery), or is
        // a provider of the current placement unreachable?
        let catalog_changed = available.len() != known_providers;
        let placement_broken = placement
            .providers
            .iter()
            .any(|p| !available.iter().any(|a| a.id == p.id || a.name == p.name));
        // Did the observed-latency picture shift? Only matters to rules
        // that actually price latency — latency-blind rules would recompute
        // the same optimum, so skip the churn.
        let latency_shifted =
            obj.rule.latency_weight > 0.0 && latency_fingerprint(available) != last_fingerprint;

        // Did the access pattern change?
        let series = history.ops_series(history.len());
        let trend_changed = self.detector.detect(&series);

        if trend_changed || catalog_changed || placement_broken || latency_shifted {
            // The decision period adapts on a trend change only.
            let adapt_within = (self.adaptive_decision_period && trend_changed).then(|| {
                decision::period_bound(
                    None,
                    None,
                    history.len(),
                    sampling,
                    sampling.times(self.default_decision_periods as u64),
                )
            });
            let decided = decision::decide(
                &mut controller,
                adapt_within,
                obj.size,
                history,
                sampling,
                |usage| self.search_cached(period, &obj.rule, usage, available),
            );
            match decided {
                Some((_, decision)) if placement_broken || !self.migration_gate => {
                    placement = decision.placement;
                }
                Some((usage, decision)) => {
                    // The current placement's providers may carry stale
                    // observed annotations from the period they were
                    // chosen; price them as the catalog sees them now.
                    let current = Placement {
                        providers: placement
                            .providers
                            .iter()
                            .map(|p| {
                                available
                                    .iter()
                                    .find(|a| a.id == p.id || a.name == p.name)
                                    .cloned()
                                    .unwrap_or_else(|| p.clone())
                            })
                            .collect(),
                        m: placement.m,
                    };
                    if let Some(plan) = decision::migration(
                        current,
                        decision.placement,
                        decision.expected_cost,
                        &usage,
                        obj.rule.latency_weight,
                    ) {
                        placement = plan.to;
                    }
                }
                // No feasible placement without the failed provider.
                None if placement_broken => return None,
                None => {}
            }
        }

        let new_state = ObjectState {
            placement: placement.clone(),
            controller,
            known_providers: available.len(),
            latency_fingerprint: latency_fingerprint(available),
        };
        self.state.insert(obj.id.clone(), new_state);
        Some(placement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalia_providers::catalog::ProviderCatalog;
    use scalia_types::reliability::Reliability;
    use scalia_types::rules::StorageRule;
    use scalia_types::size::ByteSize;
    use scalia_types::stats::PeriodStats;
    use scalia_types::zone::ZoneSet;

    fn catalog() -> Vec<ProviderDescriptor> {
        ProviderCatalog::paper_catalog().all()
    }

    fn obj() -> WorkloadObject {
        WorkloadObject {
            id: "obj".into(),
            size: ByteSize::from_mb(1),
            rule: StorageRule::new(
                "r",
                Reliability::from_percent(99.999),
                Reliability::from_percent(99.99),
                ZoneSet::all(),
                1.0,
            ),
            created_period: 0,
            deleted_period: None,
            demand: vec![],
        }
    }

    fn history_with_reads(reads: &[u64]) -> AccessHistory {
        let mut h = AccessHistory::default();
        for (i, &r) in reads.iter().enumerate() {
            h.push(PeriodStats {
                period: i as u64,
                storage: ByteSize::from_mb(1),
                bw_in: ByteSize::ZERO,
                bw_out: ByteSize::from_mb(r),
                reads: r,
                writes: 0,
            });
        }
        h
    }

    #[test]
    fn static_policy_uses_only_its_providers() {
        let all = catalog();
        let mut policy = StaticSetPolicy::new("S3(h)-S3(l)", &all[..2]);
        let placement = policy
            .placement_for(
                &obj(),
                0,
                &all,
                &AccessHistory::default(),
                PeriodDemand::default(),
            )
            .unwrap();
        assert_eq!(placement.providers.len(), 2);
        assert!(placement.providers.iter().all(|p| p.name.starts_with("S3")));
        // During an outage of S3(l) the set shrinks and m is recomputed.
        let without_s3l: Vec<_> = all.iter().filter(|p| p.name != "S3(l)").cloned().collect();
        let shrunk = policy.placement_for(
            &obj(),
            1,
            &without_s3l,
            &AccessHistory::default(),
            PeriodDemand::default(),
        );
        // A single 99.9 provider cannot meet 99.99 availability → infeasible.
        assert!(shrunk.is_none());
    }

    #[test]
    fn ideal_policy_adapts_every_period_without_migration_charges() {
        let all = catalog();
        let mut policy = IdealPolicy::new();
        assert!(!policy.charges_migration());
        let cold = policy
            .placement_for(
                &obj(),
                0,
                &all,
                &AccessHistory::default(),
                PeriodDemand::default(),
            )
            .unwrap();
        let hot = policy
            .placement_for(
                &obj(),
                1,
                &all,
                &AccessHistory::default(),
                PeriodDemand {
                    reads: 200,
                    writes: 0,
                },
            )
            .unwrap();
        // Hot periods push the oracle towards mirroring on cheap-read
        // providers; cold periods towards high-m striping.
        assert!(hot.m <= cold.m);
        assert_eq!(hot.m, 1);
    }

    #[test]
    fn scalia_policy_keeps_placement_for_stable_pattern() {
        let all = catalog();
        let mut policy = ScaliaPolicy::new(1.0);
        let first = policy
            .placement_for(
                &obj(),
                0,
                &all,
                &AccessHistory::default(),
                PeriodDemand::default(),
            )
            .unwrap();
        let steady = history_with_reads(&[3, 3, 3, 3, 3, 3]);
        let later = policy
            .placement_for(
                &obj(),
                6,
                &all,
                &steady,
                PeriodDemand {
                    reads: 3,
                    writes: 0,
                },
            )
            .unwrap();
        assert!(first.same_as(&later), "no trend change → no migration");
    }

    #[test]
    fn scalia_policy_migrates_on_a_spike() {
        let all = catalog();
        let mut policy = ScaliaPolicy::new(1.0);
        let first = policy
            .placement_for(
                &obj(),
                0,
                &all,
                &AccessHistory::default(),
                PeriodDemand::default(),
            )
            .unwrap();
        assert!(first.m > 1, "cold placement is striped");
        // A ramp ending in heavy traffic.
        let spike = history_with_reads(&[0, 0, 0, 0, 0, 20, 80, 150]);
        let hot = policy
            .placement_for(
                &obj(),
                8,
                &all,
                &spike,
                PeriodDemand {
                    reads: 150,
                    writes: 0,
                },
            )
            .unwrap();
        assert_eq!(hot.m, 1, "hot object should be mirrored");
        assert!(!hot.same_as(&first));
    }

    #[test]
    fn scalia_policy_reacts_to_outage_of_a_used_provider() {
        let all = catalog();
        let mut policy = ScaliaPolicy::new(1.0);
        let first = policy
            .placement_for(
                &obj(),
                0,
                &all,
                &AccessHistory::default(),
                PeriodDemand::default(),
            )
            .unwrap();
        let victim = first.providers[0].name.clone();
        let remaining: Vec<_> = all.iter().filter(|p| p.name != victim).cloned().collect();
        let steady = history_with_reads(&[1, 1, 1]);
        let repaired = policy
            .placement_for(
                &obj(),
                3,
                &remaining,
                &steady,
                PeriodDemand {
                    reads: 1,
                    writes: 0,
                },
            )
            .unwrap();
        assert!(repaired.providers.iter().all(|p| p.name != victim));
    }

    #[test]
    fn scalia_policy_adopts_a_new_cheaper_provider() {
        let all = catalog();
        // The catalog change forces a re-evaluation. Without the migration
        // gate the recomputed optimum must include the cheaper provider;
        // with the gate the policy may legitimately decide the chunk
        // movement is not worth it for a single decision period, but the
        // placement must stay feasible.
        let mut ungated = ScaliaPolicy::new(1.0).without_migration_gate();
        let mut gated = ScaliaPolicy::new(1.0);
        let mut backup = obj();
        backup.size = ByteSize::from_mb(40);
        backup.rule = backup.rule.with_lockin(0.5);
        for policy in [&mut ungated, &mut gated] {
            policy
                .placement_for(
                    &backup,
                    0,
                    &all,
                    &AccessHistory::default(),
                    PeriodDemand::default(),
                )
                .unwrap();
        }
        // CheapStor arrives.
        let mut extended = all.clone();
        extended.push(scalia_providers::catalog::cheapstor(
            scalia_types::ids::ProviderId::new(9),
        ));
        let quiet = history_with_reads(&[0, 0, 0, 0]);
        let after_ungated = ungated
            .placement_for(&backup, 800, &extended, &quiet, PeriodDemand::default())
            .unwrap();
        assert!(
            after_ungated
                .providers
                .iter()
                .any(|p| p.name == "CheapStor"),
            "recomputed optimum must adopt the cheaper provider: {}",
            after_ungated.label()
        );
        let after_gated = gated
            .placement_for(&backup, 800, &extended, &quiet, PeriodDemand::default())
            .unwrap();
        assert!(
            after_gated.providers.len() >= 2,
            "gated placement stays feasible"
        );
        // Brand-new objects written after the arrival adopt CheapStor even
        // with the gate (no migration needed for them).
        let mut fresh = obj();
        fresh.id = "fresh".into();
        fresh.size = ByteSize::from_mb(40);
        fresh.rule = fresh.rule.with_lockin(0.5);
        let first = gated
            .placement_for(
                &fresh,
                801,
                &extended,
                &AccessHistory::default(),
                PeriodDemand::default(),
            )
            .unwrap();
        assert!(first.providers.iter().any(|p| p.name == "CheapStor"));
    }

    #[test]
    fn ablation_flags_change_behaviour() {
        let all = catalog();
        let mut always_migrate = ScaliaPolicy::new(1.0).without_migration_gate();
        let mut gated = ScaliaPolicy::new(1.0);
        let spike = history_with_reads(&[0, 0, 0, 5, 6, 7]);
        let a = always_migrate
            .placement_for(
                &obj(),
                0,
                &all,
                &AccessHistory::default(),
                PeriodDemand::default(),
            )
            .unwrap();
        let b = gated
            .placement_for(
                &obj(),
                0,
                &all,
                &AccessHistory::default(),
                PeriodDemand::default(),
            )
            .unwrap();
        assert!(a.same_as(&b), "first placements agree");
        // With a mild trend change the un-gated policy may move while the
        // gated one stays (migration not worth it for a tiny object).
        let a2 = always_migrate
            .placement_for(
                &obj(),
                6,
                &all,
                &spike,
                PeriodDemand {
                    reads: 7,
                    writes: 0,
                },
            )
            .unwrap();
        let b2 = gated
            .placement_for(
                &obj(),
                6,
                &all,
                &spike,
                PeriodDemand {
                    reads: 7,
                    writes: 0,
                },
            )
            .unwrap();
        // Both must still be feasible placements.
        assert!(a2.m >= 1 && b2.m >= 1);
    }
}
