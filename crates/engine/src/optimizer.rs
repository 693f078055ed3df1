//! The periodic optimisation procedure (§III-A3), class-centric.
//!
//! Every few minutes a new optimisation procedure starts: a *leader* elected
//! among all engines retrieves from the statistics database the set `A` of
//! objects accessed or modified since the previous procedure (a range scan
//! over the dirty-set index — cost proportional to the objects touched, not
//! the rows stored) and groups the members by `(class, storage rule)`.
//! Scalia's scalability argument
//! (§III-A1/A2) is that statistics and re-placement amortise across a
//! class: the optimiser therefore runs the trend detector and Algorithm 1
//! **once per group** — `K` searches for `N` accessed objects in `K`
//! classes — and maps each group decision onto every member. An evaluating
//! class reads each member's metadata record once (`meta`, the one record
//! an object has); a member already on the decided placement is done.
//!
//! Migrations are executed through a per-cycle **budget** (bytes uploaded
//! and one-off dollars): candidates are ordered by expected saving per
//! migrated byte, admitted until the budget runs out, and the tail is
//! *deferred* — never dropped — to the next cycle, which re-evaluates the
//! deferred objects against fresh statistics and catalog state. At least
//! one candidate is admitted per cycle, so a backlog always converges to
//! the unbudgeted placement.
//!
//! A cycle runs on the calling thread: classes in first-seen order, then
//! the admitted migrations in savings order, each on engine `i mod E`. The
//! work is a few searches and metadata reads per class, and running it in
//! a fixed order keeps every migration's `next_version` draw — and so the
//! latency trajectories that follow it — the same on every replay.
//!
//! Each group decides through `scalia_core::decision`, the step the
//! simulator's adaptive policy also runs: the decision-period bound, the
//! `D/2`/`D`/`2D` adjustment and search, and the migration gate.

use crate::engine::{load_class, load_meta, ClassIds, Engine};
use crate::infra::{Infrastructure, SAMPLING_PERIOD};
use parking_lot::Mutex;
use scalia_core::classify::ClassUsage;
use scalia_core::cost::PredictedUsage;
use scalia_core::decision::{self, rule_fingerprint, DecisionPeriodController};
use scalia_core::lifetime::LifetimeDistribution;
use scalia_core::migration::{MigrationBudget, MigrationPlan};
use scalia_core::placement::{Placement, PlacementEngine};
use scalia_core::trend::TrendDetector;
use scalia_metastore::model::Timestamp;
use scalia_metastore::stats::StatisticsStore;
use scalia_types::ids::{EngineId, ProviderId};
use scalia_types::object::{ObjectKey, ObjectMeta};
use scalia_types::size::ByteSize;
use scalia_types::stats::DEFAULT_HISTORY_LEN;
use scalia_types::time::Duration;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Statistics of one optimisation procedure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OptimizationReport {
    /// Engine elected leader for this procedure.
    pub leader: EngineId,
    /// Objects in the accessed/modified set `A` (plus re-queued deferrals).
    pub objects_considered: usize,
    /// Objects whose access pattern changed (every member of a group whose
    /// class-level trend moved).
    pub trend_changes: usize,
    /// Objects whose placement was re-evaluated against a fresh decision.
    pub placements_recomputed: usize,
    /// Objects actually migrated to a new provider set.
    pub migrations_executed: usize,
    /// Placement searches the optimiser initiated for decisions: one per
    /// re-evaluated `(class, rule)` group (≤ number of classes touched).
    pub searches_executed: usize,
    /// Objects covered by the decisions those searches produced.
    pub objects_covered: usize,
    /// Beneficial migrations pushed past the end of the cycle by the
    /// migration budget (re-queued, never dropped).
    pub migrations_deferred: usize,
    /// Bytes uploaded by the executed migrations.
    pub bytes_migrated: u64,
}

impl OptimizationReport {
    /// Merges two partial reports by summing every counter. The `leader`
    /// field is taken from `self` unless `self` is the empty/default report
    /// (the fold's starting value), which makes this an associative
    /// operation with [`OptimizationReport::default`] as its neutral
    /// element: folding per-class partials yields the same total in **any**
    /// order or association.
    pub(crate) fn merged_with(self, other: OptimizationReport) -> OptimizationReport {
        OptimizationReport {
            leader: if self == OptimizationReport::default() {
                other.leader
            } else {
                self.leader
            },
            objects_considered: self.objects_considered + other.objects_considered,
            trend_changes: self.trend_changes + other.trend_changes,
            placements_recomputed: self.placements_recomputed + other.placements_recomputed,
            migrations_executed: self.migrations_executed + other.migrations_executed,
            searches_executed: self.searches_executed + other.searches_executed,
            objects_covered: self.objects_covered + other.objects_covered,
            migrations_deferred: self.migrations_deferred + other.migrations_deferred,
            bytes_migrated: self.bytes_migrated + other.bytes_migrated,
        }
    }
}

/// One beneficial migration awaiting budget admission.
struct MigrationCandidate {
    row_key: String,
    key: ObjectKey,
    size: ByteSize,
    savings_per_byte: f64,
    plan: MigrationPlan,
}

/// One member of an evaluating class: its rule fingerprint, row key and
/// metadata record.
type Member = ([u64; 5], String, ObjectMeta);

/// The periodic optimiser.
pub(crate) struct PeriodicOptimizer {
    detector: TrendDetector,
    placement: PlacementEngine,
    last_run: Mutex<Timestamp>,
    budget: MigrationBudget,
    /// Row keys of beneficial migrations the budget pushed to a later
    /// cycle. Re-queued into the next accessed set and force-re-evaluated,
    /// so a deferral is never dropped.
    deferred: Mutex<BTreeSet<String>>,
    /// The decision-period controller of each `(class, rule)` group, kept
    /// across cycles.
    controllers: Mutex<HashMap<String, DecisionPeriodController>>,
}

impl PeriodicOptimizer {
    /// Creates an optimiser with the given trend detector and placement
    /// engine (and no migration budget: every beneficial migration executes
    /// in the cycle that finds it).
    pub(crate) fn new(detector: TrendDetector, placement: PlacementEngine) -> Self {
        PeriodicOptimizer {
            detector,
            placement,
            last_run: Mutex::new(Timestamp::ZERO),
            budget: MigrationBudget::UNLIMITED,
            deferred: Mutex::new(BTreeSet::new()),
            controllers: Mutex::new(HashMap::new()),
        }
    }

    /// Builder-style override of the per-cycle migration budget.
    pub(crate) fn with_migration_budget(mut self, budget: MigrationBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Row keys currently deferred by the migration budget.
    pub(crate) fn deferred_backlog(&self) -> usize {
        self.deferred.lock().len()
    }

    /// The accessed set since the previous procedure (which advances
    /// `last_run`): a range scan over the dirty-set index, each entry
    /// carrying its class tag, merged with the taken deferred backlog
    /// (untagged).
    fn take_accessed_set(
        &self,
        stats: &StatisticsStore,
        infra: &Arc<Infrastructure>,
    ) -> (Vec<(String, Option<String>)>, BTreeSet<String>) {
        let since = {
            let mut last = self.last_run.lock();
            std::mem::replace(&mut *last, infra.next_timestamp())
        };
        let deferred: BTreeSet<String> = std::mem::take(&mut *self.deferred.lock());
        let (mut accessed, _) = stats.objects_accessed_since_classified(since);
        // Buckets older than `since` can never qualify again: drop them
        // so the index footprint tracks recent traffic, not history.
        stats.prune_dirty_before(since);
        if !deferred.is_empty() {
            // O(A + D): one hash set over the accessed keys, not a linear
            // scan per deferred key (a tight budget can defer thousands).
            let present: std::collections::HashSet<&str> =
                accessed.iter().map(|(key, _)| key.as_str()).collect();
            let missing: Vec<String> = deferred
                .iter()
                .filter(|row_key| !present.contains(row_key.as_str()))
                .cloned()
                .collect();
            drop(present);
            accessed.extend(missing.into_iter().map(|row_key| (row_key, None)));
        }
        (accessed, deferred)
    }

    /// Runs one optimisation procedure over all engines: group the accessed
    /// set by `(class, rule)`, one placement search per group, map
    /// the decision onto the members, then execute the beneficial
    /// migrations best-savings-per-byte-first under the migration budget.
    /// With `force = true` every group is re-evaluated even if its class
    /// trend did not change (used after the provider catalog changes).
    pub(crate) fn run(
        &self,
        engines: &[Arc<Engine>],
        infra: &Arc<Infrastructure>,
        force: bool,
    ) -> OptimizationReport {
        let Some(leader) = engines.iter().min_by_key(|e| e.id().0) else {
            return OptimizationReport::default();
        };

        // 1) + 2) The leader fetches the accessed/modified set from the
        // dirty-set index and merges in the budget-deferred backlog.
        let stats = infra.statistics(leader.datacenter());
        let (accessed, deferred) = self.take_accessed_set(stats, infra);

        // 3) Bucket the accessed keys by their dirty-index class tag — no
        // per-object metadata reads. Untagged entries (re-queued deferrals,
        // marks of objects deleted before a flush) resolve their class from
        // the object's metadata record; an object without one has been
        // deleted and drops out.
        let objects_considered = accessed.len();
        // Hash-indexed first-seen-order grouping: O(1) per entry, no sort
        // of the whole accessed set (each class re-sorts its own members).
        let mut by_class: Vec<(String, Vec<String>)> = Vec::new();
        let mut class_index: std::collections::HashMap<String, usize> =
            std::collections::HashMap::new();
        let mut class_ids = ClassIds::default();
        for (row_key, class) in accessed {
            let class_id = match class {
                Some(class_id) => Some(class_id),
                None => load_class(infra, leader.datacenter(), &row_key, &mut class_ids),
            };
            let Some(class_id) = class_id else { continue };
            match class_index.get(class_id.as_str()) {
                Some(&at) => by_class[at].1.push(row_key),
                None => {
                    class_index.insert(class_id.clone(), by_class.len());
                    by_class.push((class_id, vec![row_key]));
                }
            }
        }

        // 4) One class-level trend detection per class (from the rollup
        // series); only classes that trend — or are forced, or carry a
        // deferral — read member metadata, split by rule and run **one**
        // placement search per `(class, rule)` group.
        let mut report = OptimizationReport {
            leader: leader.id(),
            objects_considered,
            ..OptimizationReport::default()
        };
        let mut candidates: Vec<MigrationCandidate> = Vec::new();
        for (i, (class_id, members)) in by_class.into_iter().enumerate() {
            let engine = &engines[i % engines.len()];
            let (partial, mut class_candidates) =
                self.optimize_class(engine, infra, class_id, members, force, &deferred);
            report = report.merged_with(partial);
            candidates.append(&mut class_candidates);
        }

        // 5) Budgeted batch migration: best saving per migrated byte first,
        // the tail deferred (never dropped) to the next cycle.
        candidates.sort_by(|a, b| {
            b.savings_per_byte
                .partial_cmp(&a.savings_per_byte)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.row_key.cmp(&b.row_key))
        });
        let mut ledger = self.budget.start();
        let mut admitted = 0usize;
        for candidate in candidates {
            let bytes = candidate.plan.bytes_moved(candidate.size);
            if !ledger.admit(bytes, candidate.plan.migration_cost) {
                report.migrations_deferred += 1;
                self.deferred.lock().insert(candidate.row_key);
                continue;
            }
            let engine = &engines[admitted % engines.len()];
            admitted += 1;
            // A migration that loses a race against a client write (or whose
            // provider fails) is reconsidered when the object is next
            // accessed.
            if engine
                .replace_placement(&candidate.key, &candidate.plan.to)
                .is_ok()
            {
                report.migrations_executed += 1;
                report.bytes_migrated += bytes;
            }
        }
        report
    }

    /// One class of the accessed set: trend detection over the rollup
    /// series **before** any member metadata is touched — a class whose
    /// access pattern did not change (and is not forced, and carries no
    /// deferral) costs one rollup read and nothing else. Classes that do
    /// evaluate read each member's metadata record once, split by rule
    /// fingerprint and run [`Self::optimize_group`] once per `(class, rule)`
    /// group.
    fn optimize_class(
        &self,
        engine: &Arc<Engine>,
        infra: &Arc<Infrastructure>,
        class_id: String,
        mut member_keys: Vec<String>,
        force: bool,
        deferred: &BTreeSet<String>,
    ) -> (OptimizationReport, Vec<MigrationCandidate>) {
        let mut partial = OptimizationReport::default();
        let mut candidates: Vec<MigrationCandidate> = Vec::new();
        member_keys.sort_unstable();
        member_keys.dedup();
        if member_keys.is_empty() {
            return (partial, candidates);
        }
        let stats = infra.statistics(engine.datacenter());

        // Class-level trend detection: one detector run per class, fed by
        // the incrementally-maintained rollups instead of per-object
        // history reads.
        let class_usage = ClassUsage::from_records(
            stats
                .class_period_records(&class_id, DEFAULT_HISTORY_LEN)
                .into_iter()
                .map(|(period, record)| (period, record.stats, record.objects)),
        );
        let trend_changed = self
            .detector
            .detect_class(&class_usage, DEFAULT_HISTORY_LEN);
        let has_deferred = member_keys.iter().any(|row_key| deferred.contains(row_key));
        if !trend_changed && !force && !has_deferred {
            return (partial, candidates);
        }

        // The class evaluates: now (and only now) read each member's
        // record, decoded in place, no cell clone. Objects deleted since
        // they were accessed, or whose record does not decode, drop out.
        let mut members: Vec<Member> = member_keys
            .into_iter()
            .filter_map(|row_key| {
                let meta = load_meta(infra, engine.datacenter(), &row_key)?;
                Some((rule_fingerprint(&meta.rule), row_key, meta))
            })
            .collect();
        // Split by rule identity: a stable sort keeps each run of one
        // `(fingerprint, rule name)` sorted by row key.
        let by_rule = |(fa, _, a): &Member, (fb, _, b): &Member| {
            fa.cmp(fb).then_with(|| a.rule.name.cmp(&b.rule.name))
        };
        members.sort_by(by_rule);
        // The class's lifetime samples are fetched — and the deletion-time
        // distribution built — once for the whole class, not once per
        // member, which would re-read the class row (and re-sort the
        // samples) O(members) times.
        let class_lifetimes = infra
            .statistics(scalia_types::ids::DatacenterId::new(0))
            .class_lifetimes(&class_id);
        let lifetime_dist = (!class_lifetimes.is_empty())
            .then(|| LifetimeDistribution::from_samples(class_lifetimes));
        for group in members.chunk_by(|a, b| by_rule(a, b).is_eq()) {
            let (group_partial, mut group_candidates) = self.optimize_group(
                infra,
                &class_id,
                group,
                trend_changed,
                &class_usage,
                lifetime_dist.as_ref(),
            );
            partial = partial.merged_with(group_partial);
            candidates.append(&mut group_candidates);
        }
        (partial, candidates)
    }

    /// One `(class, rule)` group of an evaluating class: **one** decision
    /// through `scalia_core::decision`, and the per-member migration gate
    /// against it. A member already on the decided placement is done (a
    /// plan that moves nothing never passes the gate). Returns the group's
    /// report partial and its beneficial migration candidates.
    fn optimize_group(
        &self,
        infra: &Arc<Infrastructure>,
        class_id: &str,
        members: &[Member],
        trend_changed: bool,
        class_usage: &ClassUsage,
        lifetime_dist: Option<&LifetimeDistribution>,
    ) -> (OptimizationReport, Vec<MigrationCandidate>) {
        let mut partial = OptimizationReport::default();
        let mut candidates: Vec<MigrationCandidate> = Vec::new();
        if trend_changed {
            partial.trend_changes += members.len();
        }

        // The class's mean-member demand: for a singleton class this is the
        // member's own history, record for record.
        let mean_history = class_usage.mean_member_history(DEFAULT_HISTORY_LEN);
        let mean_size = ByteSize::from_bytes(
            (members
                .iter()
                .map(|(_, _, meta)| meta.size.bytes())
                .sum::<u64>() as f64
                / members.len() as f64)
                .round() as u64,
        );
        // Every member of the group shares the rule.
        let rule = &members[0].2.rule;

        // Decision period for the group (adaptive, bounded by the tightest
        // member TTL), amortised across all members on one controller.
        let upper_bound = members
            .iter()
            .map(|(_, _, meta)| {
                let remaining = match (meta.ttl_hint_hours, lifetime_dist) {
                    (None, Some(dist)) => {
                        dist.expected_remaining(infra.now().since(meta.written_at).as_hours())
                    }
                    _ => None,
                };
                decision::period_bound(
                    meta.ttl_hint_hours,
                    remaining,
                    mean_history.len(),
                    SAMPLING_PERIOD,
                    Duration::from_hours(24),
                )
            })
            .min()
            .expect("non-empty group");
        // **One** placement search for the whole group (plus the three
        // windows when the decision period is due for adjustment), on the
        // group's controller, updated in place.
        let decided = decision::decide(
            self.controllers
                .lock()
                .entry(format!("class:{class_id}:{}", rule.name))
                .or_insert_with(|| {
                    DecisionPeriodController::new(Duration::from_hours(24), SAMPLING_PERIOD, 4096)
                }),
            Some(upper_bound),
            mean_size,
            &mean_history,
            SAMPLING_PERIOD,
            |usage| {
                infra
                    .best_placement_cached(&self.placement, rule, class_id, usage)
                    .ok()
            },
        );
        let Some((usage, decision)) = decided else {
            return (partial, candidates);
        };
        partial.searches_executed += 1;
        partial.objects_covered += members.len();
        let mut decision_providers: Vec<ProviderId> =
            decision.placement.providers.iter().map(|p| p.id).collect();
        decision_providers.sort_unstable();

        // Map the decision onto every member: exact per-member pricing (the
        // class rates at the member's exact size), exact migration gate.
        for (_, row_key, meta) in members {
            // The union across stripes (the gate compares sets).
            let providers = meta.striping.provider_set();
            if meta.striping.m() == decision.placement.m && providers == decision_providers {
                // Already on the decided placement: re-evaluated, nothing
                // to move.
                partial.placements_recomputed += 1;
                continue;
            }
            let member_usage = PredictedUsage {
                size: meta.size,
                ..usage
            };
            let Some((m, member_cost)) =
                PlacementEngine::evaluate_set(rule, &member_usage, &decision.placement.providers)
            else {
                continue; // Decision infeasible at this member's exact size.
            };
            partial.placements_recomputed += 1;

            let current = Placement {
                providers: providers
                    .into_iter()
                    .filter_map(|p| infra.catalog().get(p))
                    .collect(),
                m: meta.striping.m(),
            };
            let to = Placement {
                providers: decision.placement.providers.clone(),
                m,
            };
            if let Some(plan) =
                decision::migration(current, to, member_cost, &member_usage, rule.latency_weight)
            {
                candidates.push(MigrationCandidate {
                    savings_per_byte: plan.savings_per_byte(meta.size),
                    row_key: row_key.clone(),
                    key: meta.key.clone(),
                    size: meta.size,
                    plan,
                });
            }
        }
        (partial, candidates)
    }
}

#[cfg(test)]
mod tests {
    #[allow(unused_imports)]
    use super::*;
    use crate::cluster::ScaliaCluster;
    use scalia_core::classify::ObjectClass;
    use scalia_types::object::ObjectKey;
    use scalia_types::reliability::Reliability;
    use scalia_types::rules::StorageRule;
    use scalia_types::time::SimTime;
    use scalia_types::zone::ZoneSet;

    fn rule() -> StorageRule {
        StorageRule::new(
            "opt",
            Reliability::from_percent(99.999),
            Reliability::from_percent(99.99),
            ZoneSet::all(),
            1.0,
        )
    }

    fn simulate_periods(
        cluster: &ScaliaCluster,
        key: &ObjectKey,
        reads_per_hour: &[u64],
        start_hour: u64,
    ) {
        for (i, &reads) in reads_per_hour.iter().enumerate() {
            for _ in 0..reads {
                cluster.get(key).unwrap();
            }
            // Reads must hit the providers to be realistic for billing, but
            // for statistics purposes the log agent records them either way.
            cluster.tick(SimTime::from_hours(start_hour + i as u64 + 1));
        }
    }

    #[test]
    fn report_merge_is_independent_of_shard_interleaving() {
        // Partial reports as four classes of one procedure would produce them.
        let partials = [
            OptimizationReport {
                leader: EngineId::new(2),
                objects_considered: 10,
                trend_changes: 1,
                placements_recomputed: 3,
                migrations_executed: 1,
                searches_executed: 1,
                objects_covered: 3,
                migrations_deferred: 1,
                bytes_migrated: 1000,
            },
            OptimizationReport {
                leader: EngineId::new(2),
                objects_considered: 9,
                ..OptimizationReport::default()
            },
            OptimizationReport {
                leader: EngineId::new(2),
                objects_considered: 10,
                trend_changes: 4,
                placements_recomputed: 4,
                migrations_executed: 2,
                searches_executed: 2,
                objects_covered: 4,
                migrations_deferred: 0,
                bytes_migrated: 5000,
            },
            OptimizationReport {
                leader: EngineId::new(2),
                objects_considered: 7,
                trend_changes: 2,
                placements_recomputed: 2,
                migrations_executed: 0,
                searches_executed: 1,
                objects_covered: 2,
                migrations_deferred: 2,
                bytes_migrated: 0,
            },
        ];

        // Every permutation, and every fold association (identity seeded
        // per sub-fold), must agree.
        let mut orders: Vec<Vec<usize>> = Vec::new();
        for a in 0..4 {
            for b in 0..4 {
                for c in 0..4 {
                    for d in 0..4 {
                        let order = vec![a, b, c, d];
                        let mut sorted = order.clone();
                        sorted.sort_unstable();
                        if sorted == vec![0, 1, 2, 3] {
                            orders.push(order);
                        }
                    }
                }
            }
        }
        assert_eq!(orders.len(), 24);
        let reference = partials
            .iter()
            .fold(OptimizationReport::default(), |acc, p| acc.merged_with(*p));
        for order in orders {
            let merged = order.iter().fold(OptimizationReport::default(), |acc, &i| {
                acc.merged_with(partials[i])
            });
            assert_eq!(merged, reference, "order {order:?}");
            // Split association: (a·b)·(c·d).
            let left = OptimizationReport::default()
                .merged_with(partials[order[0]])
                .merged_with(partials[order[1]]);
            let right = OptimizationReport::default()
                .merged_with(partials[order[2]])
                .merged_with(partials[order[3]]);
            assert_eq!(left.merged_with(right), reference, "split order {order:?}");
        }
        assert_eq!(reference.objects_considered, 36);
        assert_eq!(reference.trend_changes, 7);
        assert_eq!(reference.placements_recomputed, 9);
        assert_eq!(reference.migrations_executed, 3);
        assert_eq!(reference.searches_executed, 4);
        assert_eq!(reference.objects_covered, 9);
        assert_eq!(reference.migrations_deferred, 3);
        assert_eq!(reference.bytes_migrated, 6000);
        assert_eq!(reference.leader, EngineId::new(2));
    }

    #[test]
    fn no_accesses_means_nothing_to_optimize() {
        let cluster = ScaliaCluster::builder().build();
        // Drain the initial state.
        let report = cluster.run_optimization(false);
        assert_eq!(report.objects_considered, 0);
        assert_eq!(report.migrations_executed, 0);
        assert_eq!(report.searches_executed, 0);
    }

    #[test]
    fn stable_access_pattern_triggers_no_recomputation() {
        let cluster = ScaliaCluster::builder().build();
        let key = ObjectKey::new("c", "steady");
        cluster
            .put(&key, vec![1u8; 100_000], "image/png", rule(), None)
            .unwrap();
        cluster.run_optimization(false);
        // A steady 5 reads/hour for 10 hours.
        simulate_periods(&cluster, &key, &[5; 10], 0);
        let report = cluster.run_optimization(false);
        assert_eq!(report.objects_considered, 1);
        assert_eq!(report.trend_changes, 0);
        assert_eq!(report.searches_executed, 0);
        assert_eq!(report.migrations_executed, 0);
    }

    #[test]
    fn slashdot_spike_triggers_migration_to_mirroring() {
        let cluster = ScaliaCluster::builder().build();
        let key = ObjectKey::new("c", "viral");
        cluster
            .put(&key, vec![1u8; 1_000_000], "image/jpeg", rule(), None)
            .unwrap();
        let before = cluster.engine(0).read_metadata(&key).unwrap();
        cluster.run_optimization(false);

        // A quiet stretch first; the optimiser sees no trend change.
        simulate_periods(&cluster, &key, &[0, 0, 0, 0, 1, 1], 0);
        let quiet = cluster.run_optimization(false);
        assert_eq!(quiet.migrations_executed, 0);

        // Then the Slashdot spike: the read volume makes bandwidth dominate
        // and mirroring (m = 1) on the cheap-read providers wins. The
        // optimiser runs while the surge is in progress, like the paper's
        // 5-minute procedure.
        simulate_periods(&cluster, &key, &[10, 80, 150, 150], 6);
        let report = cluster.run_optimization(false);
        assert_eq!(report.objects_considered, 1);
        assert!(report.trend_changes >= 1, "the spike must be detected");
        assert!(report.placements_recomputed >= 1);
        assert_eq!(
            report.searches_executed, 1,
            "one object in one class: exactly one search"
        );

        let after = cluster.engine(0).read_metadata(&key).unwrap();
        if report.migrations_executed > 0 {
            assert!(
                after.striping.provider_set() != before.striping.provider_set()
                    || after.striping.m() != before.striping.m()
            );
            assert_eq!(after.striping.m(), 1, "hot object should be mirrored");
        }
        // Whatever happened, the object must still be readable and intact.
        cluster.caches().iter().for_each(|c| c.clear());
        assert_eq!(cluster.get(&key).unwrap().len(), 1_000_000);
    }

    #[test]
    fn forced_optimization_reacts_to_new_provider() {
        let cluster = ScaliaCluster::builder().build();
        let key = ObjectKey::new("backups", "weekly.tar");
        let lockin_rule = rule().with_lockin(0.5);
        cluster
            .put(
                &key,
                vec![3u8; 2_000_000],
                "application/x-tar",
                lockin_rule,
                None,
            )
            .unwrap();
        cluster.run_optimization(false);

        // A couple of idle periods, then a much cheaper provider appears.
        cluster.tick(SimTime::from_hours(1));
        cluster.get(&key).unwrap();
        cluster.tick(SimTime::from_hours(2));
        let cheap = scalia_providers::descriptor::ProviderDescriptor::public(
            scalia_types::ids::ProviderId::new(0),
            "UltraCheap",
            "practically free storage",
            scalia_providers::sla::ProviderSla::from_percent(99.9999, 99.9),
            scalia_providers::pricing::PricingPolicy::from_dollars(0.001, 0.0, 0.01, 0.0),
            scalia_types::zone::ZoneSet::all(),
        );
        cluster.infra().register_provider(cheap);

        let report = cluster.run_optimization(true);
        assert!(report.placements_recomputed >= 1);
        assert!(
            report.migrations_executed >= 1,
            "the huge saving must justify migration"
        );
        assert!(report.bytes_migrated > 0);
        let meta = cluster.engine(0).read_metadata(&key).unwrap();
        let names: Vec<String> = meta
            .striping
            .provider_set()
            .iter()
            .filter_map(|id| cluster.infra().catalog().get(*id))
            .map(|d| d.name)
            .collect();
        assert!(names.contains(&"UltraCheap".to_string()));
        cluster.caches().iter().for_each(|c| c.clear());
        assert_eq!(cluster.get(&key).unwrap().len(), 2_000_000);
    }

    #[test]
    fn period_controllers_persist_across_cycles() {
        let cluster = ScaliaCluster::builder().build();
        let optimizer = PeriodicOptimizer::new(TrendDetector::default(), PlacementEngine::new());
        let key = ObjectKey::new("c", "kept");
        let meta = cluster
            .put(&key, vec![1u8; 64_000], "image/png", rule(), None)
            .unwrap();
        let group = format!(
            "class:{}:{}",
            ObjectClass::of(&meta.mime, meta.size).id(),
            meta.rule.name
        );
        let controller = || optimizer.controllers.lock().get(&group).cloned();
        assert!(controller().is_none());

        optimizer.run(cluster.engines(), cluster.infra(), true);
        let first = controller().expect("a decision creates its group's controller");
        let fresh = DecisionPeriodController::new(Duration::from_hours(24), SAMPLING_PERIOD, 4096);
        assert_ne!(first, fresh, "the first decision updates the controller");

        cluster.get(&key).unwrap();
        cluster.tick(SimTime::from_hours(1));
        optimizer.run(cluster.engines(), cluster.infra(), true);
        assert_ne!(
            controller().unwrap(),
            first,
            "the second cycle advances the stored controller, not a fresh one"
        );
        assert_eq!(optimizer.controllers.lock().len(), 1);
    }

    #[test]
    fn an_undecodable_member_drops_out_and_the_rest_of_its_group_migrates() {
        let cluster = ScaliaCluster::builder().build();
        let infra = cluster.infra();
        let keys: Vec<ObjectKey> = (0..4)
            .map(|i| ObjectKey::new("backups", format!("part{i}.tar")))
            .collect();
        for key in &keys {
            cluster
                .put(
                    key,
                    vec![3u8; 2_000_000],
                    "application/x-tar",
                    rule().with_lockin(0.5),
                    None,
                )
                .unwrap();
        }
        cluster.run_optimization(false);
        cluster.tick(SimTime::from_hours(1));
        for key in &keys {
            cluster.get(key).unwrap();
        }
        cluster.tick(SimTime::from_hours(2));
        let broken = keys[1].row_key();
        infra
            .database()
            .transaction(vec![scalia_metastore::journal::JournalOp::Put {
                row_key: broken,
                column: "meta".to_string(),
                value: serde_json::Value::Bytes(vec![0xff; 7].into_boxed_slice()),
                timestamp: infra.next_timestamp(),
            }])
            .unwrap();
        let cheap =
            infra.register_provider(scalia_providers::descriptor::ProviderDescriptor::public(
                scalia_types::ids::ProviderId::new(0),
                "UltraCheap",
                "practically free storage",
                scalia_providers::sla::ProviderSla::from_percent(99.9999, 99.9),
                scalia_providers::pricing::PricingPolicy::from_dollars(0.001, 0.0, 0.01, 0.0),
                ZoneSet::all(),
            ));

        let report = cluster.run_optimization(true);
        assert_eq!(report.objects_considered, 4);
        assert_eq!(report.searches_executed, 1);
        assert_eq!(
            report.objects_covered, 3,
            "the undecodable member drops out"
        );
        assert_eq!(report.migrations_executed, 3);
        for key in [&keys[0], &keys[2], &keys[3]] {
            let meta = cluster.engine(0).read_metadata(key).unwrap();
            assert!(meta.striping.provider_set().contains(&cheap));
            cluster.caches().iter().for_each(|c| c.clear());
            assert_eq!(cluster.get(key).unwrap().len(), 2_000_000);
        }
        assert!(cluster.engine(0).read_metadata(&keys[1]).is_err());
    }

    #[test]
    fn one_search_covers_every_member_of_a_class() {
        // 30 objects, all one class (same MIME, same discretised size):
        // a forced cycle runs exactly one placement search and covers all
        // 30 objects with it.
        let cluster = ScaliaCluster::builder().build();
        for i in 0..30 {
            let key = ObjectKey::new("c", format!("member{i}"));
            cluster
                .put(&key, vec![1u8; 64_000], "image/png", rule(), None)
                .unwrap();
            cluster.get(&key).unwrap();
        }
        cluster.tick(SimTime::from_hours(1));
        let report = cluster.run_optimization(true);
        assert_eq!(report.objects_considered, 30);
        assert_eq!(report.searches_executed, 1, "one class ⇒ one search");
        assert_eq!(report.objects_covered, 30);
        assert_eq!(report.placements_recomputed, 30);
    }

    #[test]
    fn searches_are_bounded_by_class_count() {
        // 24 objects in 3 classes (distinct MIME types).
        let cluster = ScaliaCluster::builder().build();
        let mimes = ["image/png", "image/jpeg", "application/pdf"];
        for i in 0..24 {
            let key = ObjectKey::new("c", format!("obj{i}"));
            cluster
                .put(&key, vec![1u8; 64_000], mimes[i % 3], rule(), None)
                .unwrap();
            cluster.get(&key).unwrap();
        }
        cluster.tick(SimTime::from_hours(1));
        let report = cluster.run_optimization(true);
        assert_eq!(report.objects_considered, 24);
        assert_eq!(report.searches_executed, 3, "3 classes ⇒ 3 searches");
        assert_eq!(report.objects_covered, 24);
    }
}
