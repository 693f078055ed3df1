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
//! classes — and maps each group decision onto every member (members whose
//! persisted placement digest already matches the decision are done with
//! zero further reads).
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
//! latency trajectories that follow it — the same at any pool size.
//!
//! The pre-class per-object sweep is preserved as
//! [`PeriodicOptimizer::run_per_object`]: it is the differential baseline —
//! a cycle over singleton classes must reproduce its report and migrations
//! bit for bit — and the benchmark's point of comparison.

use crate::engine::Engine;
use crate::infra::Infrastructure;
use parking_lot::Mutex;
use scalia_core::classify::{ClassUsage, ObjectClass};
use scalia_core::cost::{compute_price_weighted, PredictedUsage};
use scalia_core::decision::{GroupDecision, GroupKey};
use scalia_core::migration::{MigrationBudget, MigrationPlan};
use scalia_core::placement::{Placement, PlacementEngine};
use scalia_core::trend::TrendDetector;
use scalia_metastore::model::Timestamp;
use scalia_metastore::stats::StatisticsStore;
use scalia_types::ids::EngineId;
use scalia_types::money::Money;
use scalia_types::object::{ObjectKey, ObjectMeta};
use scalia_types::size::ByteSize;
use scalia_types::stats::DEFAULT_HISTORY_LEN;
use scalia_types::time::Duration;
use serde::Deserialize;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Statistics of one optimisation procedure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OptimizationReport {
    /// Engine elected leader for this procedure.
    pub leader: EngineId,
    /// Objects in the accessed/modified set `A` (plus re-queued deferrals).
    pub objects_considered: usize,
    /// Objects whose access pattern changed (every member of a group whose
    /// class-level trend moved; per-object mode: objects individually).
    pub trend_changes: usize,
    /// Objects whose placement was re-evaluated against a fresh decision.
    pub placements_recomputed: usize,
    /// Objects actually migrated to a new provider set.
    pub migrations_executed: usize,
    /// Placement searches the optimiser initiated for decisions: one per
    /// re-evaluated group in class mode (≤ number of classes touched), one
    /// per recomputed object in per-object mode.
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
    pub fn merged_with(self, other: OptimizationReport) -> OptimizationReport {
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

/// What happened to a single object during the per-object sweep; the sweep
/// adds it to the cycle's [`OptimizationReport`].
#[derive(Debug, Clone, Copy, Default)]
struct ObjectOutcome {
    trend_changed: bool,
    recomputed: bool,
    migrated: bool,
    bytes_migrated: u64,
}

/// One beneficial migration awaiting budget admission.
struct MigrationCandidate {
    row_key: String,
    key: ObjectKey,
    size: ByteSize,
    savings_per_byte: f64,
    plan: MigrationPlan,
}

/// The compact per-object **optimiser digest** the engine persists next to
/// the metadata (`opt` column) on every commit: exactly the fields the
/// class-centric sweep needs per member — rule identity for subgrouping,
/// current placement for the already-there short-circuit, size and
/// lifetime hints for the group's usage prediction. Reading and decoding it
/// costs a fraction of deserialising full [`ObjectMeta`], so a cycle only
/// pays the metadata read for members that actually diverge from their
/// group's decision.
#[derive(Debug, Clone)]
struct MemberDigest {
    row_key: String,
    rule_name: String,
    rule_fingerprint: [u64; 5],
    size: ByteSize,
    m: u32,
    /// Sorted provider ids of the current placement.
    providers: Vec<u32>,
    written_at: scalia_types::time::SimTime,
    ttl_hint_hours: Option<f64>,
    /// Full metadata, already in hand when the digest was synthesised from
    /// a `meta` read (the missing-digest fallback path).
    meta: Option<ObjectMeta>,
}

/// Serialises the optimiser digest of a metadata version (written by
/// `Engine::commit_metadata` under the same timestamp as the `meta`
/// column). One compact delimited string — a single allocation to read
/// back, where a structured JSON object would clone a whole key/value tree
/// per member per cycle. Layout (the rule name goes last because it is the
/// only field that may contain the delimiter):
///
/// `1|rfp0|rfp1|rfp2|rfp3|rfp4|m|size|written_secs|ttl_bits-or-n|p0,p1,…|rule name`
pub(crate) fn optimizer_digest(meta: &ObjectMeta) -> serde_json::Value {
    // The sorted union across stripes.
    let providers: Vec<u32> = meta.striping.provider_set().iter().map(|p| p.0).collect();
    let rfp = GroupKey::rule_fingerprint(&meta.rule);
    let providers = providers
        .iter()
        .map(|p| p.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let ttl = match meta.ttl_hint_hours {
        Some(ttl) => ttl.to_bits().to_string(),
        None => "n".to_string(),
    };
    serde_json::Value::String(format!(
        "1|{}|{}|{}|{}|{}|{}|{}|{}|{ttl}|{providers}|{}",
        rfp[0],
        rfp[1],
        rfp[2],
        rfp[3],
        rfp[4],
        meta.striping.m(),
        meta.size.bytes(),
        meta.written_at.secs(),
        meta.rule.name,
    ))
}

impl MemberDigest {
    /// Decodes a persisted digest; `None` on any structural mismatch (the
    /// caller falls back to the full metadata read).
    fn decode(row_key: String, value: &serde_json::Value) -> Option<MemberDigest> {
        let mut fields = value.as_str()?.splitn(12, '|');
        if fields.next()? != "1" {
            return None;
        }
        let mut rule_fingerprint = [0u64; 5];
        for slot in rule_fingerprint.iter_mut() {
            *slot = fields.next()?.parse().ok()?;
        }
        let m: u32 = fields.next()?.parse().ok()?;
        let size: u64 = fields.next()?.parse().ok()?;
        let written_secs: u64 = fields.next()?.parse().ok()?;
        let ttl_hint_hours = match fields.next()? {
            "n" => None,
            bits => Some(f64::from_bits(bits.parse().ok()?)),
        };
        let providers_field = fields.next()?;
        let providers = if providers_field.is_empty() {
            Vec::new()
        } else {
            providers_field
                .split(',')
                .map(|p| p.parse().ok())
                .collect::<Option<Vec<u32>>>()?
        };
        Some(MemberDigest {
            row_key,
            rule_name: fields.next()?.to_string(),
            rule_fingerprint,
            size: ByteSize::from_bytes(size),
            m,
            providers,
            written_at: scalia_types::time::SimTime::from_secs(written_secs),
            ttl_hint_hours,
            meta: None,
        })
    }

    /// Synthesises the digest from full metadata (objects written before
    /// the digest column existed), keeping the deserialised metadata for
    /// the gate.
    fn from_meta(row_key: String, meta: ObjectMeta) -> MemberDigest {
        let providers: Vec<u32> = meta.striping.provider_set().iter().map(|p| p.0).collect();
        MemberDigest {
            row_key,
            rule_name: meta.rule.name.clone(),
            rule_fingerprint: GroupKey::rule_fingerprint(&meta.rule),
            size: meta.size,
            m: meta.striping.m(),
            providers,
            written_at: meta.written_at,
            ttl_hint_hours: meta.ttl_hint_hours,
            meta: Some(meta),
        }
    }
}

/// The current metadata of the object at `row_key`, decoded straight out of
/// the stored cell (no copy of the value tree); `None` when the object is
/// gone or its metadata does not parse.
fn load_meta(engine: &Engine, row_key: &str) -> Option<ObjectMeta> {
    engine
        .infra()
        .database()
        .with_latest(engine.datacenter(), row_key, "meta", |cell| {
            ObjectMeta::deserialize(&cell.value).ok()
        })
        .flatten()
}

/// The periodic optimiser.
pub struct PeriodicOptimizer {
    detector: TrendDetector,
    placement: PlacementEngine,
    last_run: Mutex<Timestamp>,
    budget: MigrationBudget,
    /// Row keys of beneficial migrations the budget pushed to a later
    /// cycle. Re-queued into the next accessed set and force-re-evaluated,
    /// so a deferral is never dropped.
    deferred: Mutex<BTreeSet<String>>,
}

impl PeriodicOptimizer {
    /// Creates an optimiser with the given trend detector and placement
    /// engine (and no migration budget: every beneficial migration executes
    /// in the cycle that finds it).
    pub fn new(detector: TrendDetector, placement: PlacementEngine) -> Self {
        PeriodicOptimizer {
            detector,
            placement,
            last_run: Mutex::new(Timestamp::ZERO),
            budget: MigrationBudget::UNLIMITED,
            deferred: Mutex::new(BTreeSet::new()),
        }
    }

    /// Builder-style override of the per-cycle migration budget.
    pub fn with_migration_budget(mut self, budget: MigrationBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Row keys currently deferred by the migration budget.
    pub fn deferred_backlog(&self) -> usize {
        self.deferred.lock().len()
    }

    /// Takes the deferred backlog and advances `last_run`, returning the
    /// fetch window `since` — shared by both sweep flavours.
    fn take_window(&self, infra: &Arc<Infrastructure>) -> (Timestamp, BTreeSet<String>) {
        let since = {
            let mut last = self.last_run.lock();
            let since = *last;
            *last = infra.next_timestamp();
            since
        };
        let deferred: BTreeSet<String> = std::mem::take(&mut *self.deferred.lock());
        (since, deferred)
    }

    /// The per-object baseline's accessed set: the seed's full
    /// `modified_since` scan, merged with the budget-deferred backlog.
    fn take_accessed_set_scan(
        &self,
        stats: &StatisticsStore,
        infra: &Arc<Infrastructure>,
    ) -> (Vec<String>, BTreeSet<String>) {
        let (since, deferred) = self.take_window(infra);
        let mut accessed = stats.objects_accessed_since_scan(since);
        accessed.extend(deferred.iter().cloned());
        accessed.sort_unstable();
        accessed.dedup();
        (accessed, deferred)
    }

    /// The class-centric accessed set: a range scan over the dirty-set
    /// index, each entry carrying its class tag, merged with the deferred
    /// backlog (whose tags are resolved from the objects' recorded classes).
    fn take_accessed_set_classified(
        &self,
        stats: &StatisticsStore,
        infra: &Arc<Infrastructure>,
    ) -> (Vec<(String, Option<String>)>, BTreeSet<String>) {
        let (since, deferred) = self.take_window(infra);
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

    // ------------------------------------------------------------------
    // Class-centric sweep (the default)
    // ------------------------------------------------------------------

    /// Runs one optimisation procedure over all engines: group the accessed
    /// set by `(class, rule)`, one placement search per group, map
    /// the decision onto the members, then execute the beneficial
    /// migrations best-savings-per-byte-first under the migration budget.
    /// With `force = true` every group is re-evaluated even if its class
    /// trend did not change (used after the provider catalog changes).
    pub fn run(
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
        let (accessed, deferred) = self.take_accessed_set_classified(&stats, infra);

        // 3) Bucket the accessed keys by their dirty-index class tag — no
        // per-object metadata reads. Untagged entries (re-queued deferrals,
        // marks written before the class was known) resolve through the
        // class recorded at insertion; objects with neither have been
        // deleted or never finished their first write, and fall through to
        // the metadata read of step 4 if their class ever evaluates.
        let objects_considered = accessed.len();
        // Hash-indexed first-seen-order grouping: O(1) per entry, no sort
        // of the whole accessed set (each class re-sorts its own members).
        let mut by_class: Vec<(String, Vec<String>)> = Vec::new();
        let mut class_index: std::collections::HashMap<String, usize> =
            std::collections::HashMap::new();
        for (row_key, class) in accessed {
            let class_id = match class {
                Some(class_id) => Some(class_id),
                None => stats.object_class(&row_key),
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
            // accessed, exactly like the per-object sweep.
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
    /// evaluate read their members' metadata, split by rule fingerprint and
    /// run [`Self::optimize_group`] once per `(class, rule)` group.
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

        // The class evaluates: now (and only now) read member digests —
        // decoded in place, no cell clone — with a full metadata read only
        // for objects without one. Objects deleted since they were accessed
        // drop out here, exactly like the per-object sweep.
        let mut digests: Vec<MemberDigest> = Vec::with_capacity(member_keys.len());
        for row_key in member_keys {
            let digest = infra
                .database()
                .with_latest(engine.datacenter(), &row_key, "opt", |cell| {
                    MemberDigest::decode(row_key.clone(), &cell.value)
                })
                .flatten();
            let digest = match digest {
                Some(digest) => digest,
                None => {
                    let Some(meta) = load_meta(engine, &row_key) else {
                        continue;
                    };
                    MemberDigest::from_meta(row_key, meta)
                }
            };
            digests.push(digest);
        }
        // Split by rule identity: one sort with borrowed comparators (no
        // per-member key clones), then slice-grouping of the consecutive
        // runs. Members stay sorted by row key inside each group.
        digests.sort_unstable_by(|a, b| {
            a.rule_fingerprint
                .cmp(&b.rule_fingerprint)
                .then_with(|| a.rule_name.cmp(&b.rule_name))
                .then_with(|| a.row_key.cmp(&b.row_key))
        });
        let mut groups: Vec<Vec<MemberDigest>> = Vec::new();
        for digest in digests {
            match groups.last_mut() {
                Some(group)
                    if group[0].rule_fingerprint == digest.rule_fingerprint
                        && group[0].rule_name == digest.rule_name =>
                {
                    group.push(digest)
                }
                _ => groups.push(vec![digest]),
            }
        }
        // The class's lifetime samples are fetched — and the deletion-time
        // distribution built — once for the whole class, not once per
        // member, which would re-read the class row (and re-sort the
        // samples) O(members) times.
        let class_lifetimes = infra
            .statistics(scalia_types::ids::DatacenterId::new(0))
            .class_lifetimes(&class_id);
        let lifetime_dist = (!class_lifetimes.is_empty())
            .then(|| scalia_core::lifetime::LifetimeDistribution::from_samples(class_lifetimes));
        for members in groups {
            let group_key = GroupKey::from_fingerprint(
                class_id.clone(),
                members[0].rule_name.clone(),
                members[0].rule_fingerprint,
            );
            let (group_partial, mut group_candidates) = self.optimize_group(
                engine,
                infra,
                group_key,
                members,
                trend_changed,
                &class_usage,
                lifetime_dist.as_ref(),
            );
            partial = partial.merged_with(group_partial);
            candidates.append(&mut group_candidates);
        }
        (partial, candidates)
    }

    /// One `(class, rule)` group of an evaluating class: **one** placement
    /// search, and the per-member migration gate against the shared
    /// [`GroupDecision`]. Members whose digest already matches the decided
    /// placement are done with zero further reads (a plan that moves
    /// nothing can never be beneficial); only divergent members pay the
    /// full metadata read for the exact gate. Returns the group's report
    /// partial and its beneficial migration candidates.
    #[allow(clippy::too_many_arguments)]
    fn optimize_group(
        &self,
        engine: &Arc<Engine>,
        infra: &Arc<Infrastructure>,
        group_key: GroupKey,
        members: Vec<MemberDigest>,
        trend_changed: bool,
        class_usage: &ClassUsage,
        lifetime_dist: Option<&scalia_core::lifetime::LifetimeDistribution>,
    ) -> (OptimizationReport, Vec<MigrationCandidate>) {
        let mut partial = OptimizationReport::default();
        let mut candidates: Vec<MigrationCandidate> = Vec::new();
        if members.is_empty() {
            return (partial, candidates);
        }
        if trend_changed {
            partial.trend_changes += members.len();
        }

        // The class's mean-member demand: for a singleton class this is the
        // member's own history, record for record.
        let mean_history = class_usage.mean_member_history(DEFAULT_HISTORY_LEN);
        let period_hours = infra.sampling_period().as_hours();
        let mean_size = ByteSize::from_bytes(
            (members.iter().map(|m| m.size.bytes()).sum::<u64>() as f64 / members.len() as f64)
                .round() as u64,
        );
        // The search needs the full rule; one representative member's
        // metadata supplies it (every member of the group shares the rule
        // fingerprint). The fallback path has it in hand already.
        let Some(rule) = members.iter().find_map(|member| match &member.meta {
            Some(meta) => Some(meta.rule.clone()),
            None => load_meta(engine, &member.row_key).map(|meta| meta.rule),
        }) else {
            return (partial, candidates); // Every member vanished mid-cycle.
        };

        // Decision period for the group (adaptive, bounded by the tightest
        // member TTL), amortised across all members on one controller.
        let upper_bound = members
            .iter()
            .map(|member| {
                self.ttl_upper_bound_with(
                    member.ttl_hint_hours,
                    member.written_at,
                    infra,
                    lifetime_dist,
                    &mean_history,
                )
            })
            .min()
            .expect("non-empty group");
        let controller_key = format!("class:{}:{}", group_key.class_id, group_key.rule_name);
        let mut controller = infra.decision_controller(&controller_key, Duration::from_hours(24));
        controller.on_optimization(upper_bound, |window| {
            let periods = window.periods(infra.sampling_period()).max(1) as usize;
            let usage =
                PredictedUsage::from_history(mean_size, &mean_history, periods, period_hours);
            match infra.best_placement_cached(&self.placement, &rule, &group_key.class_id, &usage) {
                Ok(decision) => decision
                    .expected_cost
                    .scale(1.0 / usage.duration_hours.max(1e-9)),
                Err(_) => Money::MAX,
            }
        });
        let decision_period = controller.current();
        infra.store_decision_controller(&controller_key, controller);

        // **One** placement search for the whole group.
        let periods = decision_period.periods(infra.sampling_period()).max(1) as usize;
        let usage = PredictedUsage::from_history(mean_size, &mean_history, periods, period_hours);
        let Ok(decision) =
            infra.best_placement_cached(&self.placement, &rule, &group_key.class_id, &usage)
        else {
            return (partial, candidates);
        };
        partial.searches_executed += 1;
        partial.objects_covered += members.len();
        // One result mapped onto every member — the paper's amortisation
        // made explicit.
        let group_decision = GroupDecision {
            key: group_key,
            catalog_version: infra.catalog().version(),
            usage,
            decision,
            members: members.iter().map(|m| m.row_key.clone()).collect(),
        };
        let usage = group_decision.usage;
        let decision = &group_decision.decision;
        let mut decision_providers: Vec<u32> = decision
            .placement
            .providers
            .iter()
            .map(|p| p.id.0)
            .collect();
        decision_providers.sort_unstable();
        let decision_m = decision.placement.m;

        // Map the decision onto every member: exact per-member pricing (the
        // class rates at the member's exact size), exact migration gate.
        for member in members {
            if member.m == decision_m && member.providers == decision_providers {
                // Already on the decided placement: re-evaluated, nothing
                // to move (a plan whose `from` equals its `to` is never
                // beneficial) — no metadata read needed.
                partial.placements_recomputed += 1;
                continue;
            }
            // Divergent member: now (and only now) deserialise its full
            // metadata for the exact migration gate.
            let meta = match member.meta {
                Some(meta) => meta,
                None => {
                    let Some(meta) = load_meta(engine, &member.row_key) else {
                        continue; // Deleted mid-cycle.
                    };
                    meta
                }
            };
            let row_key = member.row_key;
            let member_usage = PredictedUsage {
                size: meta.size,
                ..usage
            };
            let Some((m, member_cost)) =
                PlacementEngine::evaluate_set(&rule, &member_usage, &decision.placement.providers)
            else {
                continue; // Decision infeasible at this member's exact size.
            };
            partial.placements_recomputed += 1;

            // The union across stripes (`MigrationPlan::changes_placement`
            // compares sets).
            let current_providers: Vec<_> = meta
                .striping
                .provider_set()
                .into_iter()
                .filter_map(|p| infra.catalog().get(p))
                .collect();
            let current = Placement {
                providers: current_providers.clone(),
                m: meta.striping.m(),
            };
            // Priced with the rule's latency weight so the migration gate
            // compares like with like: the candidate's cost already includes
            // the latency penalty (billing itself never does).
            let current_cost = compute_price_weighted(
                &current_providers,
                meta.striping.m(),
                &member_usage,
                rule.latency_weight,
            );
            let to = Placement {
                providers: decision.placement.providers.clone(),
                m,
            };
            let plan = MigrationPlan::build(current, to, &member_usage, current_cost, member_cost);
            if plan.changes_placement() && plan.is_beneficial() {
                candidates.push(MigrationCandidate {
                    savings_per_byte: plan.savings_per_byte(meta.size),
                    row_key,
                    key: meta.key.clone(),
                    size: meta.size,
                    plan,
                });
            }
        }
        (partial, candidates)
    }

    // ------------------------------------------------------------------
    // Per-object sweep (differential baseline)
    // ------------------------------------------------------------------

    /// The pre-class per-object procedure: full-scan accessed-set fetch,
    /// then trend detection, decision-period control and one placement
    /// search **per object**. Kept as the baseline the class-centric sweep
    /// is differential-tested (singleton classes must match bit for bit)
    /// and benchmarked against.
    pub fn run_per_object(
        &self,
        engines: &[Arc<Engine>],
        infra: &Arc<Infrastructure>,
        force: bool,
    ) -> OptimizationReport {
        let Some(leader) = engines.iter().min_by_key(|e| e.id().0) else {
            return OptimizationReport::default();
        };

        let stats = infra.statistics(leader.datacenter());
        let (accessed, _) = self.take_accessed_set_scan(&stats, infra);

        // One contiguous shard of the accessed set per engine.
        let mut report = OptimizationReport {
            leader: leader.id(),
            objects_considered: accessed.len(),
            ..OptimizationReport::default()
        };
        let shard_len = accessed.len().div_ceil(engines.len()).max(1);
        for (i, shard) in accessed.chunks(shard_len).enumerate() {
            let engine = &engines[i % engines.len()];
            for row_key in shard {
                let outcome = self.optimize_object(engine, infra, row_key, force);
                report.trend_changes += outcome.trend_changed as usize;
                report.placements_recomputed += outcome.recomputed as usize;
                report.searches_executed += outcome.recomputed as usize;
                report.objects_covered += outcome.recomputed as usize;
                report.migrations_executed += outcome.migrated as usize;
                report.bytes_migrated += outcome.bytes_migrated;
            }
        }
        report
    }

    /// For one object: detect a trend change and, if needed, recompute the
    /// placement and migrate. Returns what happened so the caller can add
    /// it to the cycle's report.
    fn optimize_object(
        &self,
        engine: &Arc<Engine>,
        infra: &Arc<Infrastructure>,
        row_key: &str,
        force: bool,
    ) -> ObjectOutcome {
        let mut outcome = ObjectOutcome::default();
        let stats = infra.statistics(engine.datacenter());
        let Some(meta) = load_meta(engine, row_key) else {
            return outcome; // Object deleted since it was accessed.
        };
        let class = ObjectClass::of(&meta.mime, meta.size);

        let history = stats.history(row_key, DEFAULT_HISTORY_LEN);
        let series = history.ops_series(history.len());
        outcome.trend_changed = self.detector.detect(&series);
        if !outcome.trend_changed && !force {
            return outcome;
        }

        // Decision period for this object (adaptive, bounded by TTL).
        let period_hours = infra.sampling_period().as_hours();
        let mut controller = infra.decision_controller(row_key, Duration::from_hours(24));
        let upper_bound = self.ttl_upper_bound(&meta, infra, &history);
        let rule = meta.rule.clone();
        let size = meta.size;
        // All searches below go through the shared placement decision cache
        // (rule + class + usage bucket + catalog version): one optimisation
        // cycle re-prices each class once instead of once per object.
        controller.on_optimization(upper_bound, |window| {
            let periods = window.periods(infra.sampling_period()).max(1) as usize;
            let usage = PredictedUsage::from_history(size, &history, periods, period_hours);
            match infra.best_placement_cached(&self.placement, &rule, class.id(), &usage) {
                Ok(decision) => decision
                    .expected_cost
                    .scale(1.0 / usage.duration_hours.max(1e-9)),
                Err(_) => Money::MAX,
            }
        });
        let decision_period = controller.current();
        infra.store_decision_controller(row_key, controller);

        let periods = decision_period.periods(infra.sampling_period()).max(1) as usize;
        let usage = PredictedUsage::from_history(meta.size, &history, periods, period_hours);

        let Ok(decision) =
            infra.best_placement_cached(&self.placement, &meta.rule, class.id(), &usage)
        else {
            return outcome;
        };
        outcome.recomputed = true;

        // Current placement and its expected cost over the same window.
        let current_providers: Vec<_> = meta
            .striping
            .provider_set()
            .into_iter()
            .filter_map(|p| infra.catalog().get(p))
            .collect();
        let current = Placement {
            providers: current_providers.clone(),
            m: meta.striping.m(),
        };
        // Priced with the rule's latency weight so the migration gate
        // compares like with like: the candidate's expected_cost already
        // includes the latency penalty (billing itself never does).
        let current_cost = compute_price_weighted(
            &current_providers,
            meta.striping.m(),
            &usage,
            meta.rule.latency_weight,
        );

        let plan = MigrationPlan::build(
            current,
            decision.placement.clone(),
            &usage,
            current_cost,
            decision.expected_cost,
        );
        if plan.changes_placement() && plan.is_beneficial() {
            let bytes = plan.bytes_moved(meta.size);
            if engine.replace_placement(&meta.key, &plan.to).is_ok() {
                outcome.migrated = true;
                outcome.bytes_migrated = bytes;
            }
        }
        outcome
    }

    /// Upper bound for the decision period: the TTL hint if the writer gave
    /// one, otherwise the expected remaining lifetime of the object's class,
    /// otherwise the length of the available history.
    fn ttl_upper_bound(
        &self,
        meta: &ObjectMeta,
        infra: &Arc<Infrastructure>,
        history: &scalia_types::stats::AccessHistory,
    ) -> Duration {
        // The writer's TTL hint short-circuits before the class row is ever
        // read — no lifetime fetch + sort for hinted objects.
        if meta.ttl_hint_hours.is_some() {
            return self.ttl_upper_bound_with(
                meta.ttl_hint_hours,
                meta.written_at,
                infra,
                None,
                history,
            );
        }
        let stats = infra.statistics(scalia_types::ids::DatacenterId::new(0));
        let class = ObjectClass::of(&meta.mime, meta.size);
        let lifetimes = stats.class_lifetimes(class.id());
        let dist = (!lifetimes.is_empty())
            .then(|| scalia_core::lifetime::LifetimeDistribution::from_samples(lifetimes));
        self.ttl_upper_bound_with(
            meta.ttl_hint_hours,
            meta.written_at,
            infra,
            dist.as_ref(),
            history,
        )
    }

    /// [`Self::ttl_upper_bound`] on the digest fields, with the class's
    /// deletion-time distribution supplied by the caller (the class-centric
    /// sweep builds it once per class).
    fn ttl_upper_bound_with(
        &self,
        ttl_hint_hours: Option<f64>,
        written_at: scalia_types::time::SimTime,
        infra: &Arc<Infrastructure>,
        lifetime_dist: Option<&scalia_core::lifetime::LifetimeDistribution>,
        history: &scalia_types::stats::AccessHistory,
    ) -> Duration {
        if let Some(ttl) = ttl_hint_hours {
            return Duration::from_secs((ttl * 3600.0) as u64);
        }
        if let Some(dist) = lifetime_dist {
            let age = infra.now().since(written_at).as_hours();
            if let Some(remaining) = dist.expected_remaining(age) {
                return Duration::from_secs((remaining.max(1.0) * 3600.0) as u64);
            }
        }
        infra
            .sampling_period()
            .times(history.len().max(1) as u64)
            .max(Duration::from_hours(24))
    }
}

#[cfg(test)]
mod tests {
    #[allow(unused_imports)]
    use super::*;
    use crate::cluster::ScaliaCluster;
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
    fn procedure_report_is_identical_across_pool_sizes() {
        // The same deployment state optimised under different worker counts
        // must produce the same report (the cycle runs on its caller, in a
        // fixed order).
        let run_with_pool = |workers: usize| {
            let pool = rayon::ThreadPool::new(workers);
            let cluster = ScaliaCluster::builder().build();
            for i in 0..12 {
                let key = ObjectKey::new("c", format!("obj{i}"));
                cluster
                    .put(&key, vec![1u8; 50_000], "image/png", rule(), None)
                    .unwrap();
                cluster.get(&key).unwrap();
            }
            cluster.tick(SimTime::from_hours(1));
            pool.install(|| cluster.run_optimization(true))
        };
        let r1 = run_with_pool(1);
        let r4 = run_with_pool(4);
        assert_eq!(r1, r4);
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
