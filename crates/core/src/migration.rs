//! Migration planning.
//!
//! When the periodic optimiser finds a cheaper provider set for an object,
//! it only migrates "if the cost of migration is covered by the benefits of
//! migrating to the new provider" (§III-A3). A [`MigrationPlan`] captures
//! the old and new placements, the one-off migration cost, and the expected
//! per-decision-period costs of both placements, and implements that gate.

use crate::cost::{migration_cost, PredictedUsage};
use crate::placement::Placement;
use scalia_types::money::Money;

/// A proposed migration of one object from its current placement to a new
/// one.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationPlan {
    /// The placement the object currently uses.
    pub from: Placement,
    /// The proposed new placement.
    pub to: Placement,
    /// One-off cost of moving the chunks.
    pub migration_cost: Money,
    /// Expected cost of keeping the current placement over the next
    /// decision period.
    pub current_period_cost: Money,
    /// Expected cost of the new placement over the next decision period.
    pub new_period_cost: Money,
}

impl MigrationPlan {
    /// Builds a migration plan, pricing both placements over the decision
    /// period described by `usage` and estimating the chunk-movement cost.
    pub(crate) fn build(
        from: Placement,
        to: Placement,
        usage: &PredictedUsage,
        current_period_cost: Money,
        new_period_cost: Money,
    ) -> Self {
        let cost = migration_cost(usage.size, &from.providers, from.m, &to.providers, to.m);
        MigrationPlan {
            from,
            to,
            migration_cost: cost,
            current_period_cost,
            new_period_cost,
        }
    }

    /// The expected saving over the next decision period if the migration is
    /// executed (may be negative).
    pub(crate) fn expected_saving(&self) -> Money {
        self.current_period_cost - self.new_period_cost - self.migration_cost
    }

    /// The paper's gate: migrate only if the benefit over the next decision
    /// period covers the migration cost.
    pub(crate) fn is_beneficial(&self) -> bool {
        self.expected_saving().is_positive()
    }

    /// Returns `true` if the plan actually changes the placement.
    pub(crate) fn changes_placement(&self) -> bool {
        !self.from.same_as(&self.to)
    }

    /// Bytes this migration uploads to providers: every chunk when the
    /// threshold changes (the object is re-coded), otherwise one chunk per
    /// provider joining the set. The currency of the per-cycle migration
    /// byte budget.
    pub fn bytes_moved(&self, size: scalia_types::size::ByteSize) -> u64 {
        if !self.changes_placement() {
            return 0;
        }
        let chunk = size.bytes().div_ceil(self.to.m.max(1) as u64).max(1);
        if self.from.m != self.to.m {
            return chunk * self.to.providers.len() as u64;
        }
        let added = self
            .to
            .providers
            .iter()
            .filter(|p| !self.from.providers.iter().any(|q| q.id == p.id))
            .count() as u64;
        chunk * added
    }

    /// Expected saving per migrated byte (dollars/byte) — the key the
    /// budgeted optimiser orders candidate migrations by, so a tight budget
    /// spends its bytes where they buy the most. Plans that move nothing
    /// rank by raw saving.
    pub fn savings_per_byte(&self, size: scalia_types::size::ByteSize) -> f64 {
        let bytes = self.bytes_moved(size).max(1);
        self.expected_saving().dollars() / bytes as f64
    }
}

/// A per-optimisation-cycle migration budget: caps on the bytes uploaded
/// and the one-off dollars spent moving chunks. `None` dimensions are
/// unlimited. The optimiser orders candidates by
/// [`MigrationPlan::savings_per_byte`] and *defers* (never drops) the tail
/// once the budget runs out; at least one migration is always admitted per
/// cycle, so a deferred backlog converges to the unbudgeted placement
/// within a bounded number of cycles.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MigrationBudget {
    /// Maximum bytes uploaded per cycle (`None` = unlimited).
    pub max_bytes: Option<u64>,
    /// Maximum one-off migration spend per cycle (`None` = unlimited).
    pub max_cost: Option<Money>,
}

impl MigrationBudget {
    /// No caps: every beneficial migration executes immediately (the
    /// pre-budget behaviour).
    pub const UNLIMITED: MigrationBudget = MigrationBudget {
        max_bytes: None,
        max_cost: None,
    };

    /// Caps the bytes uploaded per cycle.
    pub fn with_max_bytes(mut self, bytes: u64) -> Self {
        self.max_bytes = Some(bytes);
        self
    }

    /// Starts a fresh per-cycle ledger.
    pub fn start(&self) -> BudgetLedger {
        BudgetLedger {
            bytes_left: self.max_bytes,
            cost_left: self.max_cost,
            admitted: 0,
        }
    }
}

/// Running per-cycle budget state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetLedger {
    bytes_left: Option<u64>,
    cost_left: Option<Money>,
    admitted: usize,
}

impl BudgetLedger {
    /// Admits a migration if any budget remains in **both** dimensions,
    /// deducting (saturating) on admission. The **first** candidate of a
    /// cycle is always admitted — even against a zero or smaller budget —
    /// the guarantee that every cycle makes progress and deferral
    /// terminates rather than re-deferring the backlog forever.
    pub fn admit(&mut self, bytes: u64, cost: Money) -> bool {
        let has_bytes = self.bytes_left.is_none_or(|left| left > 0);
        let has_cost = self.cost_left.is_none_or(|left| left > Money::ZERO);
        if self.admitted > 0 && (!has_bytes || !has_cost) {
            return false;
        }
        if let Some(left) = &mut self.bytes_left {
            *left = left.saturating_sub(bytes);
        }
        if let Some(left) = &mut self.cost_left {
            *left = Money::from_nanos(left.nanos().saturating_sub(cost.nanos().max(0)));
        }
        self.admitted += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalia_providers::catalog::{azure, google, rackspace, s3_high, s3_low};
    use scalia_providers::descriptor::ProviderDescriptor;
    use scalia_types::ids::ProviderId;
    use scalia_types::size::ByteSize;

    fn catalog() -> Vec<ProviderDescriptor> {
        vec![
            s3_high(ProviderId::new(0)),
            s3_low(ProviderId::new(1)),
            rackspace(ProviderId::new(2)),
            azure(ProviderId::new(3)),
            google(ProviderId::new(4)),
        ]
    }

    fn placement(indices: &[usize], m: u32) -> Placement {
        let all = catalog();
        Placement {
            providers: indices.iter().map(|&i| all[i].clone()).collect(),
            m,
        }
    }

    fn usage(size_mb: u64) -> PredictedUsage {
        PredictedUsage {
            size: ByteSize::from_mb(size_mb),
            bw_in: ByteSize::ZERO,
            bw_out: ByteSize::from_mb(size_mb * 100),
            reads: 100,
            writes: 0,
            duration_hours: 24.0,
        }
    }

    #[test]
    fn beneficial_when_savings_exceed_migration_cost() {
        let plan = MigrationPlan::build(
            placement(&[0, 1, 2, 3], 3),
            placement(&[0, 1], 1),
            &usage(1),
            Money::from_dollars(0.50),
            Money::from_dollars(0.30),
        );
        assert!(plan.changes_placement());
        assert!(plan.migration_cost.is_positive());
        assert!(plan.is_beneficial());
        assert!(plan.expected_saving().is_positive());
    }

    #[test]
    fn not_beneficial_when_savings_are_marginal() {
        // Saving of a tenth of a cent on a 40 MB object: the chunk movement
        // costs more than the saving.
        let plan = MigrationPlan::build(
            placement(&[0, 1, 2, 3], 3),
            placement(&[0, 1, 3, 4], 3),
            &usage(400),
            Money::from_dollars(0.1000),
            Money::from_dollars(0.0999),
        );
        assert!(!plan.is_beneficial());
    }

    #[test]
    fn identical_placement_has_zero_cost_and_no_benefit() {
        let p = placement(&[0, 1], 1);
        let plan = MigrationPlan::build(
            p.clone(),
            p,
            &usage(1),
            Money::from_dollars(0.2),
            Money::from_dollars(0.2),
        );
        assert!(!plan.changes_placement());
        assert_eq!(plan.migration_cost, Money::ZERO);
        assert!(!plan.is_beneficial());
    }

    #[test]
    fn bytes_moved_counts_only_uploaded_chunks() {
        let usage = usage(8); // 8 MB object
                              // Same m, one provider swapped: one chunk of size/m uploaded.
        let plan = MigrationPlan::build(
            placement(&[0, 1, 2], 2),
            placement(&[0, 1, 3], 2),
            &usage,
            Money::from_dollars(1.0),
            Money::from_dollars(0.5),
        );
        assert_eq!(plan.bytes_moved(usage.size), usage.size.bytes().div_ceil(2));
        // Threshold change: every chunk is re-uploaded.
        let recode = MigrationPlan::build(
            placement(&[0, 1, 2], 2),
            placement(&[0, 1], 1),
            &usage,
            Money::from_dollars(1.0),
            Money::from_dollars(0.5),
        );
        assert_eq!(recode.bytes_moved(usage.size), 2 * usage.size.bytes());
        // No change: nothing moves, and savings/byte falls back to raw
        // saving.
        let noop = MigrationPlan::build(
            placement(&[0, 1], 1),
            placement(&[0, 1], 1),
            &usage,
            Money::from_dollars(1.0),
            Money::from_dollars(1.0),
        );
        assert_eq!(noop.bytes_moved(usage.size), 0);
        assert!(plan.savings_per_byte(usage.size) > recode.savings_per_byte(usage.size));
    }

    #[test]
    fn budget_ledger_admits_at_least_one_and_then_caps() {
        let budget = MigrationBudget::default().with_max_bytes(1000);
        let mut ledger = budget.start();
        // First candidate dwarfs the budget but is admitted anyway —
        // guaranteed progress.
        assert!(ledger.admit(50_000, Money::from_dollars(1.0)));
        assert!(!ledger.admit(10, Money::ZERO), "budget exhausted");
        assert_eq!(ledger.admitted, 1);

        let both = MigrationBudget {
            max_bytes: Some(1000),
            max_cost: Some(Money::from_dollars(0.10)),
        };
        let mut ledger = both.start();
        assert!(ledger.admit(400, Money::from_dollars(0.04)));
        assert!(ledger.admit(400, Money::from_dollars(0.04)));
        // Bytes remain but the dollar cap is gone after the next admit.
        assert!(ledger.admit(100, Money::from_dollars(0.04)));
        assert!(!ledger.admit(1, Money::ZERO));
        assert_eq!(ledger.admitted, 3);

        // Unlimited never refuses.
        let mut unlimited = MigrationBudget::UNLIMITED.start();
        for _ in 0..100 {
            assert!(unlimited.admit(u64::MAX / 2, Money::MAX));
        }

        // Even a zero budget admits exactly one candidate per cycle — the
        // progress guarantee that makes deferral terminate.
        let mut zero = MigrationBudget {
            max_bytes: Some(0),
            max_cost: Some(Money::ZERO),
        }
        .start();
        assert!(zero.admit(100, Money::from_dollars(1.0)));
        assert!(!zero.admit(1, Money::ZERO));
        assert_eq!(zero.admitted, 1);
    }

    #[test]
    fn negative_saving_reported_faithfully() {
        let plan = MigrationPlan::build(
            placement(&[0, 1], 1),
            placement(&[0, 1, 2, 3, 4], 4),
            &usage(1),
            Money::from_dollars(0.10),
            Money::from_dollars(0.25),
        );
        assert!(!plan.is_beneficial());
        assert!(plan.expected_saving() < Money::ZERO);
    }
}
