//! The placement decision (§III-A3): one step, shared by the simulator's
//! adaptive policy, the engine's class sweep and the per-object test oracle.
//!
//! The decision period `D_obj` is the window of historical statistics used
//! to predict the next window and choose the placement. The paper adapts it
//! with a dichotomic search: when it is time to adjust, the three candidate
//! windows `D/2`, `D` and `2D` are evaluated in parallel and the one whose
//! best provider set is cheapest becomes the new `D`. The adjustment itself
//! runs every `T` optimisation procedures: `T` starts at 1, doubles whenever
//! `D` is found adequate (unchanged), and resets to 1 otherwise, with an
//! upper bound of a few weeks' worth of procedures. `D` is further bounded
//! above by the object's expected remaining lifetime (TTL) and by the amount
//! of history actually available.
//!
//! The step is five plain functions around [`DecisionPeriodController`]:
//!
//! * [`first_usage`] — the usage a new object is placed for: its class's
//!   mean demand when the class has statistics, storage-only otherwise.
//! * [`period_bound`] — the upper bound on `D`: TTL hint, else expected
//!   remaining lifetime, else the available history.
//! * [`decide`] — the optional `D/2`/`D`/`2D` adjustment, then Algorithm 1
//!   over the decision period. The caller supplies the search (cached or
//!   memoised as it sees fit).
//! * [`migration`] — the migration gate: move only when the plan changes
//!   the placement and its saving covers the migration.
//! * [`rule_fingerprint`] — the bit-exact identity of a rule's constraints,
//!   which every decision memo and cache keys on.
//!
//! What triggers a decision stays with the caller: the simulator reacts to
//! trends, catalog changes, broken sets and latency shifts per object; the
//! engine reacts to class trends, forced cycles and budget deferrals per
//! `(class, rule)` group.

use crate::cost::{compute_price_weighted, PredictedUsage};
use crate::migration::MigrationPlan;
use crate::placement::{Placement, PlacementDecision};
use scalia_types::money::Money;
use scalia_types::rules::StorageRule;
use scalia_types::size::ByteSize;
use scalia_types::stats::AccessHistory;
use scalia_types::time::Duration;
use scalia_types::usage::ResourceUsage;
use serde::{Deserialize, Serialize};

/// Controller for one object's decision period.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionPeriodController {
    current: Duration,
    /// Adjust every `t` optimisation procedures.
    t: u32,
    /// Procedures elapsed since the last adjustment.
    since_adjust: u32,
    /// Upper bound on `t`.
    max_t: u32,
    /// Lower bound on the decision period (one sampling period).
    min_period: Duration,
}

/// The outcome of an adjustment attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdjustOutcome {
    /// It was not yet time to adjust (fewer than `T` procedures elapsed).
    NotDue,
    /// The decision period was evaluated and kept; `T` was doubled.
    Kept,
    /// The decision period changed to a new value; `T` was reset to 1.
    Changed(Duration),
}

impl DecisionPeriodController {
    /// Creates a controller with an initial decision period.
    ///
    /// `min_period` is the sampling period (the decision period never drops
    /// below one sample); `max_t` bounds the doubling schedule (the paper
    /// suggests a period of weeks — with 5-minute optimisation procedures a
    /// `max_t` of 4096 ≈ two weeks).
    pub fn new(initial: Duration, min_period: Duration, max_t: u32) -> Self {
        DecisionPeriodController {
            current: initial.max(min_period),
            t: 1,
            since_adjust: 0,
            max_t: max_t.max(1),
            min_period,
        }
    }

    /// The current decision period.
    pub fn current(&self) -> Duration {
        self.current
    }

    /// Records that an optimisation procedure ran and, if due, adjusts the
    /// decision period by evaluating the candidates `D/2`, `D`, `2D`
    /// (clamped to `[min_period, upper_bound]`).
    ///
    /// `evaluate` must return the expected cost **per hour** of the best
    /// placement found when using the given window of history, so that
    /// windows of different lengths are comparable. `upper_bound` is
    /// `min(TTL_obj, |H_obj|)` — pass the available history length when the
    /// object's lifetime is unknown.
    pub fn on_optimization(
        &mut self,
        upper_bound: Duration,
        mut evaluate: impl FnMut(Duration) -> Money,
    ) -> AdjustOutcome {
        self.since_adjust += 1;
        if self.since_adjust < self.t {
            return AdjustOutcome::NotDue;
        }
        self.since_adjust = 0;

        let upper = upper_bound.max(self.min_period);
        let clamp = |d: Duration| d.max(self.min_period).min(upper);

        let candidates = [
            clamp(self.current.halved()),
            clamp(self.current),
            clamp(self.current.doubled()),
        ];

        let mut best = candidates[1];
        let mut best_cost = Money::MAX;
        for &candidate in &candidates {
            let cost = evaluate(candidate);
            if cost < best_cost {
                best_cost = cost;
                best = candidate;
            }
        }

        if best == self.current {
            self.t = (self.t * 2).min(self.max_t);
            AdjustOutcome::Kept
        } else {
            self.current = best;
            self.t = 1;
            AdjustOutcome::Changed(best)
        }
    }
}

/// The bit-exact fingerprint of a rule's constraint fields: durability,
/// availability, lock-in, latency weight and the zone set. Two rules that
/// share a name but differ in a constraint never share a decision.
pub fn rule_fingerprint(rule: &StorageRule) -> [u64; 5] {
    [
        rule.durability.probability().to_bits(),
        rule.availability.probability().to_bits(),
        rule.lockin.to_bits(),
        rule.latency_weight.to_bits(),
        rule.zones.bits() as u64,
    ]
}

/// The usage a new object is placed for (§III-A1): the class's mean
/// demand per period over `periods` sampling periods when the class has
/// statistics, storage-only otherwise. A TTL hint shortens the horizon,
/// never below one sampling period.
pub fn first_usage(
    size: ByteSize,
    class_mean: Option<&ResourceUsage>,
    periods: usize,
    sampling: Duration,
    ttl_hint_hours: Option<f64>,
) -> PredictedUsage {
    let period_hours = sampling.as_hours();
    let mut usage = match class_mean {
        Some(mean) => PredictedUsage::from_class_usage(size, mean, periods, period_hours),
        None => PredictedUsage::storage_only(size, periods as f64 * period_hours),
    };
    if let Some(ttl) = ttl_hint_hours {
        usage.duration_hours = usage.duration_hours.min(ttl.max(period_hours));
    }
    usage
}

/// Upper bound on the decision period: the writer's TTL hint if there is
/// one, otherwise the expected remaining lifetime (at least one hour),
/// otherwise `history_len` sampling periods but no less than `floor`.
pub fn period_bound(
    ttl_hint_hours: Option<f64>,
    remaining_hours: Option<f64>,
    history_len: usize,
    sampling: Duration,
    floor: Duration,
) -> Duration {
    if let Some(ttl) = ttl_hint_hours {
        return Duration::from_secs((ttl * 3600.0) as u64);
    }
    if let Some(remaining) = remaining_hours {
        return Duration::from_secs((remaining.max(1.0) * 3600.0) as u64);
    }
    sampling.times(history_len.max(1) as u64).max(floor)
}

/// One decision: with `adapt_within: Some(bound)`, first lets the
/// controller adjust the decision period (the `D/2`/`D`/`2D` windows, each
/// searched and priced per hour, within `bound`); then runs `search` over
/// the usage predicted from `history` for the decision period. Returns that
/// usage and the search's decision, `None` when no placement is feasible.
pub fn decide(
    controller: &mut DecisionPeriodController,
    adapt_within: Option<Duration>,
    size: ByteSize,
    history: &AccessHistory,
    sampling: Duration,
    mut search: impl FnMut(&PredictedUsage) -> Option<PlacementDecision>,
) -> Option<(PredictedUsage, PlacementDecision)> {
    let period_hours = sampling.as_hours();
    let usage_over = |window: Duration| {
        let periods = window.periods(sampling).max(1) as usize;
        PredictedUsage::from_history(size, history, periods, period_hours)
    };
    if let Some(bound) = adapt_within {
        controller.on_optimization(bound, |window| {
            let usage = usage_over(window);
            search(&usage)
                .map(|d| d.expected_cost.scale(1.0 / usage.duration_hours.max(1e-9)))
                .unwrap_or(Money::MAX)
        });
    }
    let usage = usage_over(controller.current());
    let decision = search(&usage)?;
    Some((usage, decision))
}

/// The migration gate: prices `current` under `usage` with the rule's
/// latency weight (the search's `to_cost` includes the latency penalty, so
/// like is compared with like; billing never does), builds the plan, and
/// returns it when it changes the placement and its saving covers the
/// migration.
pub fn migration(
    current: Placement,
    to: Placement,
    to_cost: Money,
    usage: &PredictedUsage,
    latency_weight: f64,
) -> Option<MigrationPlan> {
    let current_cost = compute_price_weighted(&current.providers, current.m, usage, latency_weight);
    let plan = MigrationPlan::build(current, to, usage, current_cost, to_cost);
    (plan.changes_placement() && plan.is_beneficial()).then_some(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalia_providers::catalog::{azure, rackspace, s3_high, s3_low};
    use scalia_types::ids::ProviderId;

    fn controller() -> DecisionPeriodController {
        DecisionPeriodController::new(Duration::from_hours(24), Duration::HOUR, 64)
    }

    #[test]
    fn keeps_period_and_doubles_t_when_current_is_best() {
        let mut c = controller();
        // Cost per hour is minimised exactly at 24 h.
        let eval = |d: Duration| Money::from_dollars((d.as_hours() - 24.0).abs() + 1.0);
        assert_eq!(
            c.on_optimization(Duration::from_days(30), eval),
            AdjustOutcome::Kept
        );
        assert_eq!(c.current(), Duration::from_hours(24));
        assert_eq!(c.t, 2);
        // The next adjustment is only due after 2 procedures.
        assert_eq!(
            c.on_optimization(Duration::from_days(30), eval),
            AdjustOutcome::NotDue
        );
        assert_eq!(
            c.on_optimization(Duration::from_days(30), eval),
            AdjustOutcome::Kept
        );
        assert_eq!(c.t, 4);
    }

    #[test]
    fn shrinks_period_when_shorter_window_is_cheaper() {
        let mut c = controller();
        // Cheaper with shorter windows (e.g. bursty, short-lived object).
        let eval = |d: Duration| Money::from_dollars(d.as_hours());
        let outcome = c.on_optimization(Duration::from_days(30), eval);
        assert_eq!(outcome, AdjustOutcome::Changed(Duration::from_hours(12)));
        assert_eq!(c.current(), Duration::from_hours(12));
        assert_eq!(c.t, 1);
        // Keeps shrinking on subsequent adjustments, but never below the
        // sampling period.
        for _ in 0..10 {
            c.on_optimization(Duration::from_days(30), eval);
        }
        assert_eq!(c.current(), Duration::HOUR);
    }

    #[test]
    fn grows_period_when_longer_window_is_cheaper() {
        let mut c = controller();
        let eval = |d: Duration| Money::from_dollars(1000.0 - d.as_hours());
        let outcome = c.on_optimization(Duration::from_days(30), eval);
        assert_eq!(outcome, AdjustOutcome::Changed(Duration::from_hours(48)));
    }

    #[test]
    fn ttl_bounds_the_candidate_windows() {
        let mut c = controller();
        // Longer is always "cheaper", but the object is expected to live
        // only 30 more hours → 2D is clamped to 30 h.
        let eval = |d: Duration| Money::from_dollars(1000.0 - d.as_hours());
        let outcome = c.on_optimization(Duration::from_hours(30), eval);
        assert_eq!(outcome, AdjustOutcome::Changed(Duration::from_hours(30)));
        assert_eq!(c.current(), Duration::from_hours(30));
    }

    #[test]
    fn t_is_capped_and_resets_on_change() {
        let mut c = DecisionPeriodController::new(Duration::from_hours(24), Duration::HOUR, 4);
        let keep = |d: Duration| Money::from_dollars((d.as_hours() - 24.0).abs());
        // Drive T to its cap.
        for _ in 0..20 {
            c.on_optimization(Duration::from_days(30), keep);
        }
        assert_eq!(c.t, 4);
        // A change resets T to 1. Make shorter windows cheaper now; the next
        // due adjustment happens after 4 procedures.
        let shrink = |d: Duration| Money::from_dollars(d.as_hours());
        let mut changed = false;
        for _ in 0..4 {
            if let AdjustOutcome::Changed(_) = c.on_optimization(Duration::from_days(30), shrink) {
                changed = true;
            }
        }
        assert!(changed);
        assert_eq!(c.t, 1);
    }

    #[test]
    fn initial_period_respects_minimum() {
        let c = DecisionPeriodController::new(Duration::from_secs(60), Duration::HOUR, 8);
        assert_eq!(c.current(), Duration::HOUR);
    }

    fn placement(providers: Vec<scalia_providers::descriptor::ProviderDescriptor>) -> Placement {
        Placement { providers, m: 1 }
    }

    fn hot_usage() -> PredictedUsage {
        PredictedUsage {
            size: ByteSize::from_mb(1),
            bw_in: ByteSize::ZERO,
            bw_out: ByteSize::from_mb(100),
            reads: 100,
            writes: 0,
            duration_hours: 24.0,
        }
    }

    #[test]
    fn first_usage_prices_the_class_mean_or_storage_only() {
        let mean = ResourceUsage {
            storage_gb_hours: 0.0,
            bw_in: ByteSize::ZERO,
            bw_out: ByteSize::from_mb(2),
            ops: 3,
        };
        let size = ByteSize::from_mb(1);
        let class = first_usage(size, Some(&mean), 24, Duration::HOUR, None);
        assert_eq!(
            class,
            PredictedUsage::from_class_usage(size, &mean, 24, 1.0)
        );
        assert_eq!(class.reads, 72);
        assert_eq!(class.duration_hours, 24.0);
        let cold = first_usage(size, None, 24, Duration::HOUR, None);
        assert_eq!(cold, PredictedUsage::storage_only(size, 24.0));
    }

    #[test]
    fn first_usage_ttl_clamp_never_goes_below_one_period() {
        let size = ByteSize::from_mb(1);
        let two_hours = Duration::from_hours(2);
        let short = first_usage(size, None, 24, two_hours, Some(5.0));
        assert_eq!(short.duration_hours, 5.0);
        let tiny = first_usage(size, None, 24, two_hours, Some(0.5));
        assert_eq!(tiny.duration_hours, 2.0, "clamped to one sampling period");
        let long = first_usage(size, None, 24, two_hours, Some(1000.0));
        assert_eq!(long.duration_hours, 48.0, "a long TTL never extends it");
    }

    #[test]
    fn period_bound_precedence_is_ttl_then_lifetime_then_history() {
        let day = Duration::from_hours(24);
        let h = Duration::HOUR;
        assert_eq!(
            period_bound(Some(10.0), Some(100.0), 50, h, day),
            Duration::from_hours(10)
        );
        assert_eq!(
            period_bound(None, Some(30.0), 50, h, day),
            Duration::from_hours(30)
        );
        assert_eq!(
            period_bound(None, None, 50, h, day),
            Duration::from_hours(50)
        );
    }

    #[test]
    fn period_bound_floors_only_the_history_branch() {
        let day = Duration::from_hours(24);
        let h = Duration::HOUR;
        // A remaining lifetime counts as at least one hour, and the floor
        // does not lift it.
        assert_eq!(period_bound(None, Some(0.2), 50, h, day), h);
        assert_eq!(
            period_bound(Some(2.0), None, 50, h, day),
            Duration::from_hours(2)
        );
        // Short history: the floor applies; empty history counts as one.
        assert_eq!(period_bound(None, None, 3, h, day), day);
        assert_eq!(period_bound(None, None, 0, h, Duration::ZERO), h);
    }

    #[test]
    fn decide_without_adaptation_leaves_the_controller_and_searches_once() {
        let mut c = controller();
        let before = c.clone();
        let mut windows = Vec::new();
        let chosen = PlacementDecision {
            placement: placement(vec![s3_high(ProviderId::new(0))]),
            expected_cost: Money::from_dollars(1.0),
        };
        let decided = decide(
            &mut c,
            None,
            ByteSize::from_mb(1),
            &AccessHistory::default(),
            Duration::HOUR,
            |usage| {
                windows.push(usage.duration_hours);
                Some(chosen.clone())
            },
        );
        assert_eq!(windows, vec![24.0]);
        assert_eq!((c.t, c.current()), (before.t, before.current()));
        let (usage, decision) = decided.unwrap();
        assert_eq!(usage.duration_hours, 24.0);
        assert_eq!(decision, chosen);
    }

    #[test]
    fn decide_with_adaptation_searches_three_windows_then_the_period() {
        let mut c = controller();
        let mut windows = Vec::new();
        // Per hour, shorter windows are cheaper: the controller halves D.
        let decided = decide(
            &mut c,
            Some(Duration::from_days(30)),
            ByteSize::from_mb(1),
            &AccessHistory::default(),
            Duration::HOUR,
            |usage| {
                windows.push(usage.duration_hours);
                Some(PlacementDecision {
                    placement: placement(vec![s3_high(ProviderId::new(0))]),
                    expected_cost: Money::from_dollars(usage.duration_hours.powi(2)),
                })
            },
        );
        assert_eq!(windows, vec![12.0, 24.0, 48.0, 12.0]);
        assert_eq!(c.current(), Duration::from_hours(12));
        assert_eq!(decided.unwrap().0.duration_hours, 12.0);
        // No feasible placement: no decision.
        assert!(decide(
            &mut c,
            None,
            ByteSize::from_mb(1),
            &AccessHistory::default(),
            Duration::HOUR,
            |_| None,
        )
        .is_none());
    }

    #[test]
    fn migration_gate_needs_a_new_placement_and_a_covered_cost() {
        let usage = hot_usage();
        let from = placement(vec![
            s3_high(ProviderId::new(0)),
            s3_low(ProviderId::new(1)),
        ]);
        let to = placement(vec![
            rackspace(ProviderId::new(2)),
            azure(ProviderId::new(3)),
        ]);
        // The same set never migrates, however cheap it claims to be.
        assert!(migration(from.clone(), from.clone(), Money::ZERO, &usage, 0.5).is_none());

        let current_cost = compute_price_weighted(&from.providers, from.m, &usage, 0.5);
        let moving = crate::cost::migration_cost(usage.size, &from.providers, 1, &to.providers, 1);
        assert!(moving.is_positive());
        // A saving equal to the migration cost does not pay for itself.
        let break_even = current_cost - moving;
        assert!(migration(from.clone(), to.clone(), break_even, &usage, 0.5).is_none());
        let plan = migration(
            from.clone(),
            to.clone(),
            break_even - Money::from_nanos(1),
            &usage,
            0.5,
        )
        .expect("a saving above the migration cost migrates");
        assert_eq!(plan.current_period_cost, current_cost);
        assert_eq!(plan.migration_cost, moving);
        assert!(plan.to.same_as(&to));
    }
}
