//! Durability repair: a persistent, risk-prioritised repair queue (§IV-E).
//!
//! When a provider suffers a transient outage, Scalia may either wait for it
//! to recover or *actively repair*: move the chunks that lived on the faulty
//! provider to another provider, reconstructing them from the surviving
//! chunks. Repair changes the placement, so the threshold of the most
//! cost-effective set may change too — in that case every chunk is
//! re-written; otherwise only the missing chunk is.
//!
//! # The repair queue
//!
//! Repair work is *persistent*: every object that needs attention has a row
//! `repair:{object_row_key}` in the metastore with a single `item` column
//! holding `{container, key, reason, attempts, not_before_secs, dead}`.
//! Entries are created by [`enqueue`] (provider outages) and by the engine's
//! commit path itself (degraded writes record their durability debt and
//! queue entry in the same journaled transaction as the metadata — a crash
//! can never ack a degraded write without also queueing its backfill).
//!
//! `drain_repair_queue` runs each clock advance under the cluster's
//! [`MigrationBudget`] and processes entries in **durability-risk order**:
//!
//! 1. availability deficit, descending — how far the object's *currently
//!    reachable* chunk subset falls below its rule's availability target
//!    (`target.probability() − get_availability(reachable, m).probability()`);
//! 2. object size, descending — among equally-at-risk objects, repairing the
//!    largest first recovers the most bytes of durability per pass;
//! 3. row key, ascending — a total order, for determinism.
//!
//! Failed attempts back off exponentially (base 60 s doubling to a 1 h cap)
//! with a deterministic per-item jitter, and after
//! `DEAD_LETTER_ATTEMPTS` consecutive failures the entry turns *dead*: it
//! is no longer retried but stays in the metastore and is surfaced in every
//! [`RepairDrainReport`] — dead-lettered work is visible, never dropped.
//! Entries resolve (queue row deleted) when the object is repaired, has
//! become healthy on its own (the provider came back), or was deleted.
//!
//! Repair migrations run through [`Engine::replace_placement`], so their
//! chunk reads and writes use the same parallel chunk-I/O layer
//! ([`crate::chunk_io`]) as the client data path: reconstruction reads are
//! hedged across the surviving providers and the re-written chunks fan out
//! in parallel with rollback on failure. A successful migration commits at
//! full width, which settles any degraded-write debt atomically.

use crate::engine::{decode_meta, Engine};
use crate::infra::{retry_backoff_secs, Infrastructure, SAMPLING_PERIOD};
use scalia_core::availability::get_availability;
use scalia_core::cost::PredictedUsage;
use scalia_core::migration::MigrationBudget;
use scalia_core::placement::PlacementEngine;
use scalia_metastore::journal::JournalOp;
use scalia_metastore::store::{RowView, Rows};
use scalia_types::error::Result;
use scalia_types::ids::{DatacenterId, ProviderId};
use scalia_types::money::Money;
use scalia_types::object::{ObjectKey, ObjectMeta};
use scalia_types::time::SimTime;
use serde_json::{json, Value};
use std::sync::Arc;

/// Row-key prefix of repair-queue entries in the metastore.
pub(crate) const REPAIR_QUEUE_PREFIX: &str = "repair:";

/// Consecutive failed attempts after which an entry is dead-lettered.
pub(crate) const DEAD_LETTER_ATTEMPTS: u32 = 8;

/// The datacenter whose metastore node serves the repair reads while it is
/// up; the replicated store falls back to another node otherwise.
const REPAIR_READS: DatacenterId = DatacenterId::new(0);

/// The queue entry a queue row holds, if it parses.
fn entry_of(row: &RowView) -> Option<RepairQueueEntry> {
    RepairQueueEntry::from_value(&row.latest("item")?.value)
}

/// Outcome of a repair pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RepairReport {
    /// Objects that had a chunk on the failed provider.
    pub objects_affected: usize,
    /// Objects successfully moved to a new provider set.
    pub objects_repaired: usize,
    /// Objects that could not be repaired (e.g. no feasible placement).
    pub objects_failed: usize,
}

/// Outcome of one `drain_repair_queue` pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RepairDrainReport {
    /// Queue entries examined this pass.
    pub scanned: usize,
    /// Entries for which a re-placement migration was attempted.
    pub attempted: usize,
    /// Entries repaired by a successful migration.
    pub repaired: usize,
    /// Entries that resolved without data movement (object healthy again,
    /// or deleted).
    pub resolved: usize,
    /// Entries whose migration attempt failed this pass.
    pub failed: usize,
    /// Entries currently in the dead-letter state (surfaced, not retried).
    pub dead_lettered: usize,
    /// Entries deferred because the migration budget was exhausted.
    pub deferred_budget: usize,
    /// Entries deferred because their retry backoff has not elapsed.
    pub deferred_backoff: usize,
    /// Payload bytes re-encoded by successful repairs.
    pub bytes_moved: u64,
}

/// A parsed repair-queue entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairQueueEntry {
    /// The object needing repair.
    pub key: ObjectKey,
    /// Why it was queued (`"provider-outage"`, `"degraded-write"`, …).
    pub reason: String,
    /// Failed attempts so far.
    pub attempts: u32,
    /// Simulation second before which the entry must not be retried.
    pub not_before_secs: u64,
    /// Dead-lettered: no longer retried, surfaced in every drain report.
    pub dead: bool,
}

impl RepairQueueEntry {
    fn from_value(value: &Value) -> Option<Self> {
        Some(RepairQueueEntry {
            key: ObjectKey::new(
                value.get("container")?.as_str()?,
                value.get("key")?.as_str()?,
            ),
            reason: value.get("reason")?.as_str()?.to_string(),
            attempts: value.get("attempts").and_then(Value::as_u64).unwrap_or(0) as u32,
            not_before_secs: value
                .get("not_before_secs")
                .and_then(Value::as_u64)
                .unwrap_or(0),
            dead: value.get("dead").and_then(Value::as_bool).unwrap_or(false),
        })
    }

    fn to_value(&self) -> Value {
        json!({
            "container": self.key.container,
            "key": self.key.key,
            "reason": self.reason,
            "attempts": self.attempts,
            "not_before_secs": self.not_before_secs,
            "dead": self.dead,
        })
    }
}

/// The repair-queue row key of an object metadata row.
pub(crate) fn queue_row_key(object_row_key: &str) -> String {
    format!("{REPAIR_QUEUE_PREFIX}{object_row_key}")
}

/// A fresh queue-entry value (attempt counter zeroed, immediately due) —
/// also used by the engine's degraded-write commit, which journals the
/// entry in the same transaction as the metadata.
pub(crate) fn queue_item(key: &ObjectKey, reason: &str) -> Value {
    RepairQueueEntry {
        key: key.clone(),
        reason: reason.to_string(),
        attempts: 0,
        not_before_secs: 0,
        dead: false,
    }
    .to_value()
}

/// Queues an object for repair. Keeps an existing live entry untouched (so
/// its backoff state survives re-discovery by a later outage scan); a dead
/// entry is revived with a fresh attempt counter — a new incident earns a
/// new round of retries.
pub fn enqueue(infra: &Infrastructure, key: &ObjectKey, reason: &str) -> Result<()> {
    let queue_row = queue_row_key(&key.row_key());
    let mut live = false;
    infra
        .database()
        .visit(REPAIR_READS, Rows::Key(&queue_row), |row| {
            live = entry_of(&row).is_some_and(|entry| !entry.dead);
        })?;
    if live {
        return Ok(());
    }
    put_item(infra, queue_row, queue_item(key, reason))
}

/// Writes a queue entry's `item` under a fresh timestamp and prunes its
/// older versions, in one transaction.
fn put_item(infra: &Infrastructure, queue_row: String, item: Value) -> Result<()> {
    let prune = JournalOp::Prune {
        row_key: queue_row.clone(),
        column: "item".to_string(),
    };
    let put = JournalOp::Put {
        row_key: queue_row,
        column: "item".to_string(),
        value: item,
        timestamp: infra.next_timestamp(),
    };
    infra.database().transaction(vec![put, prune]).map(drop)
}

/// Retires a queue entry: one transaction that drops its row.
fn delete_entry(infra: &Infrastructure, queue_row: String) {
    let _ = infra
        .database()
        .transaction(vec![JournalOp::DeleteRow { row_key: queue_row }]);
}

/// All current repair-queue entries, keyed by queue row.
pub fn queue_entries(infra: &Infrastructure) -> Result<Vec<(String, RepairQueueEntry)>> {
    let mut entries = Vec::new();
    let queue = Rows::Prefix(REPAIR_QUEUE_PREFIX);
    infra.database().visit(REPAIR_READS, queue, |row| {
        entries.extend(entry_of(&row).map(|entry| (row.key().to_string(), entry)));
    })?;
    Ok(entries)
}

/// Reachability and worst-case availability of a striping. Each stripe is
/// its own `m`-of-`n` code group, so the object's durability is its *worst*
/// stripe's — one degraded stripe degrades the whole object. Returns whether
/// every chunk of every stripe sits on a catalog-available provider, plus
/// the minimum achieved availability probability across stripes.
fn striping_health(
    catalog: &scalia_providers::catalog::ProviderCatalog,
    striping: &scalia_types::object::StripingMeta,
) -> (bool, f64) {
    let mut all_reachable = true;
    let mut worst = f64::INFINITY;
    for stripe in &striping.stripes {
        let reachable: Vec<_> = stripe
            .chunks
            .iter()
            .filter(|c| catalog.is_available(c.provider))
            .filter_map(|c| catalog.get(c.provider))
            .collect();
        all_reachable &= reachable.len() == stripe.chunks.len();
        worst = worst.min(get_availability(&reachable, stripe.m).probability());
    }
    (all_reachable, worst)
}

struct RepairCandidate {
    queue_row: String,
    entry: RepairQueueEntry,
    meta: ObjectMeta,
    /// `target − achieved` availability over the currently reachable chunks:
    /// positive means the object is below its rule's floor right now.
    deficit: f64,
}

/// Drains the repair queue once, in durability-risk order, under `budget`.
///
/// Every entry is either repaired, resolved, deferred (budget or backoff),
/// failed (attempt counter bumped, backoff scheduled, dead-lettered past the
/// attempt cap) or reported dead — never silently dropped.
pub(crate) fn drain_repair_queue(
    engine: &Arc<Engine>,
    infra: &Arc<Infrastructure>,
    placement_engine: &PlacementEngine,
    budget: &MigrationBudget,
    now: SimTime,
) -> Result<RepairDrainReport> {
    let mut report = RepairDrainReport::default();
    let catalog = infra.catalog();

    let mut candidates: Vec<RepairCandidate> = Vec::new();
    for (queue_row, entry) in queue_entries(infra)? {
        report.scanned += 1;
        if entry.dead {
            report.dead_lettered += 1;
            continue;
        }
        if entry.not_before_secs > now.secs() {
            report.deferred_backoff += 1;
            continue;
        }
        let meta = match engine.read_metadata(&entry.key) {
            Ok(meta) => meta,
            Err(_) => {
                // The object is gone; its debt went with it.
                delete_entry(infra, queue_row);
                report.resolved += 1;
                continue;
            }
        };
        let (all_reachable, achieved) = striping_health(catalog, &meta.striping);
        let has_debt = infra
            .database()
            .with_latest(REPAIR_READS, &meta.row_key(), "debt", |c| {
                !c.value.is_null()
            })
            .unwrap_or(false);
        if all_reachable && !has_debt {
            // Healthy again (e.g. the provider recovered before we got to
            // it) at full width: nothing to move.
            delete_entry(infra, queue_row);
            report.resolved += 1;
            continue;
        }
        let deficit = meta.rule.availability.probability() - achieved;
        candidates.push(RepairCandidate {
            queue_row,
            entry,
            meta,
            deficit,
        });
    }

    // Most durability risk first; size breaks ties (most bytes of durability
    // recovered per admitted migration); row key makes the order total.
    candidates.sort_by(|a, b| {
        b.deficit
            .partial_cmp(&a.deficit)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| b.meta.size.bytes().cmp(&a.meta.size.bytes()))
            .then_with(|| a.queue_row.cmp(&b.queue_row))
    });

    let period_hours = SAMPLING_PERIOD.as_hours();
    let mut ledger = budget.start();
    for candidate in candidates {
        let RepairCandidate {
            queue_row,
            mut entry,
            meta,
            ..
        } = candidate;
        // Repair is mandatory work, budgeted by bytes only: the cost
        // dimension guards discretionary cost-optimisation migrations.
        if !ledger.admit(meta.size.bytes(), Money::ZERO) {
            report.deferred_budget += 1;
            continue;
        }
        report.attempted += 1;

        let history = infra.statistics(engine.datacenter()).history(
            &meta.key.row_key(),
            scalia_types::stats::DEFAULT_HISTORY_LEN,
        );
        let periods = 24.max(history.len());
        let usage = PredictedUsage::from_history(meta.size, &history, periods, period_hours);
        // Cached: objects of the same class sharing the failed provider are
        // re-placed with one search (the outage bumped the catalog version,
        // so no pre-outage decision can leak through).
        let class = scalia_core::classify::ObjectClass::of(&meta.mime, meta.size);
        let repaired = infra
            .best_placement_cached(placement_engine, &meta.rule, class.id(), &usage)
            .and_then(|decision| engine.replace_placement(&meta.key, &decision.placement));
        match repaired {
            Ok(_) => {
                // The full-width commit settled any durability debt
                // atomically; retire the queue entry.
                delete_entry(infra, queue_row);
                report.repaired += 1;
                report.bytes_moved += meta.size.bytes();
            }
            Err(_) => {
                report.failed += 1;
                entry.attempts += 1;
                entry.not_before_secs = now.secs() + retry_backoff_secs(&queue_row, entry.attempts);
                if entry.attempts >= DEAD_LETTER_ATTEMPTS {
                    entry.dead = true;
                    report.dead_lettered += 1;
                }
                put_item(infra, queue_row, entry.to_value())?;
            }
        }
    }
    Ok(report)
}

/// Scans the metadata for objects with a chunk on `failed_provider`, queues
/// each for repair and drains the queue immediately with an unlimited
/// budget.
///
/// The provider should already be marked unavailable in the catalog (so the
/// placement search cannot pick it again); this function does not change the
/// catalog state.
pub fn repair_provider(
    engine: &Arc<Engine>,
    infra: &Arc<Infrastructure>,
    failed_provider: ProviderId,
    placement_engine: &PlacementEngine,
) -> Result<RepairReport> {
    // Find every object whose striping references the failed provider,
    // decoding each record where it lies.
    let mut affected: Vec<ObjectMeta> = Vec::new();
    infra
        .database()
        .visit(REPAIR_READS, Rows::Prefix(""), |row| {
            let meta = row.latest("meta").and_then(|c| decode_meta(&c.value).ok());
            affected.extend(meta.filter(|m| m.striping.provider_set().contains(&failed_provider)));
        })?;

    for meta in &affected {
        enqueue(infra, &meta.key, "provider-outage")?;
    }
    let drain = drain_repair_queue(
        engine,
        infra,
        placement_engine,
        &MigrationBudget::UNLIMITED,
        infra.now(),
    )?;
    Ok(RepairReport {
        objects_affected: affected.len(),
        objects_repaired: drain.repaired + drain.resolved,
        objects_failed: drain.failed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ScaliaCluster;
    use scalia_types::object::ObjectKey;
    use scalia_types::reliability::Reliability;
    use scalia_types::rules::StorageRule;
    use scalia_types::zone::ZoneSet;

    fn rule() -> StorageRule {
        StorageRule::new(
            "repair",
            Reliability::from_percent(99.999),
            Reliability::from_percent(99.99),
            ZoneSet::all(),
            0.5,
        )
    }

    #[test]
    fn active_repair_moves_chunks_off_the_failed_provider() {
        let cluster = ScaliaCluster::builder().build();
        let engine = cluster.engine(0).clone();
        let infra = cluster.infra().clone();

        // Store several objects.
        let keys: Vec<ObjectKey> = (0..4)
            .map(|i| ObjectKey::new("backups", format!("obj{i}.tar")))
            .collect();
        for key in &keys {
            cluster
                .put(key, vec![6u8; 500_000], "application/x-tar", rule(), None)
                .unwrap();
        }

        // Fail a provider that actually holds chunks.
        let victim = {
            let meta = engine.read_metadata(&keys[0]).unwrap();
            meta.striping.stripe_view(0).chunks[0].provider
        };
        infra.set_provider_down(victim, true);

        let report = repair_provider(&engine, &infra, victim, &PlacementEngine::new()).unwrap();
        assert!(report.objects_affected >= 1);
        assert_eq!(report.objects_failed, 0);
        assert_eq!(report.objects_repaired, report.objects_affected);

        // The queue drained completely.
        assert!(queue_entries(&infra).unwrap().is_empty());

        // No object references the failed provider any more, and every
        // object is still readable while the provider stays down.
        cluster.caches().iter().for_each(|c| c.clear());
        for key in &keys {
            let meta = engine.read_metadata(key).unwrap();
            assert!(!meta.striping.provider_set().contains(&victim));
            assert_eq!(cluster.get(key).unwrap().len(), 500_000);
        }
    }

    #[test]
    fn provider_flapping_across_period_boundary_never_double_repairs() {
        // A provider flaps down → up → down across a sampling-period
        // boundary (the paper's 1-hour statistics period). The first outage
        // triggers an active repair that moves every affected chunk away;
        // when the provider flaps again, the repair pass must find nothing
        // to do — repairing twice would re-encode (and re-bill) every object
        // for no benefit.
        use scalia_providers::failure::OutageSchedule;
        use scalia_types::time::SimTime;

        let cluster = ScaliaCluster::builder().build();
        let engine = cluster.engine(0).clone();
        let infra = cluster.infra().clone();

        let keys: Vec<ObjectKey> = (0..3)
            .map(|i| ObjectKey::new("flap", format!("obj{i}.bin")))
            .collect();
        for key in &keys {
            cluster
                .put(key, vec![9u8; 300_000], "application/x-tar", rule(), None)
                .unwrap();
        }
        let victim = engine
            .read_metadata(&keys[0])
            .unwrap()
            .striping
            .stripe_view(0)
            .chunks[0]
            .provider;

        // Down during [60, 61) and again during [61, 62): the flap spans the
        // hour-60→61 sampling-period boundary exactly.
        let schedule = OutageSchedule::from_hours(&[(60, 61), (61, 62)]);
        let mut versions_after_first_repair = Vec::new();

        for hour in 59..63u64 {
            let now = SimTime::from_hours(hour);
            cluster.tick(now);
            let down = schedule.is_down(now);
            infra.set_provider_down(victim, down);
            if down {
                let report =
                    repair_provider(&engine, &infra, victim, &PlacementEngine::new()).unwrap();
                match hour {
                    60 => {
                        assert_eq!(report.objects_affected, keys.len());
                        assert_eq!(report.objects_repaired, keys.len());
                        versions_after_first_repair = keys
                            .iter()
                            .map(|k| engine.read_metadata(k).unwrap().version)
                            .collect();
                    }
                    61 => {
                        assert_eq!(
                            report.objects_affected, 0,
                            "second pass of the flap must find nothing to repair"
                        );
                        assert_eq!(report.objects_repaired, 0);
                        let versions_now: Vec<_> = keys
                            .iter()
                            .map(|k| engine.read_metadata(k).unwrap().version)
                            .collect();
                        assert_eq!(
                            versions_now, versions_after_first_repair,
                            "no object may be re-encoded by the second pass"
                        );
                    }
                    _ => unreachable!("provider only down at hours 60 and 61"),
                }
            }
        }

        // After recovery everything is readable and off the victim.
        cluster.caches().iter().for_each(|c| c.clear());
        for key in &keys {
            let meta = engine.read_metadata(key).unwrap();
            assert!(!meta.striping.provider_set().contains(&victim));
            assert_eq!(cluster.get(key).unwrap().len(), 300_000);
        }
    }

    #[test]
    fn healthy_entries_resolve_without_data_movement() {
        let cluster = ScaliaCluster::builder().build();
        let engine = cluster.engine(0).clone();
        let infra = cluster.infra().clone();
        let keys: Vec<ObjectKey> = (0..4)
            .map(|i| ObjectKey::new("healthy", format!("obj{i}.bin")))
            .collect();
        for key in &keys {
            cluster
                .put(key, vec![3u8; 20_000], "application/x-tar", rule(), None)
                .unwrap();
            enqueue(&infra, key, "provider-outage").unwrap();
        }
        let versions = |engine: &Engine| -> Vec<_> {
            let metas = keys.iter().map(|k| engine.read_metadata(k).unwrap());
            metas.map(|meta| meta.version).collect()
        };
        let before = versions(&engine);

        // Every holder is reachable and no object owes a backfill: the whole
        // backlog resolves on the metadata scan alone.
        let report = drain_repair_queue(
            &engine,
            &infra,
            &PlacementEngine::new(),
            &MigrationBudget::UNLIMITED,
            infra.now(),
        )
        .unwrap();
        assert_eq!(report.resolved, keys.len(), "healthy entries all resolve");
        assert_eq!((report.attempted, report.bytes_moved), (0, 0));
        assert!(queue_entries(&infra).unwrap().is_empty());
        assert_eq!(versions(&engine), before, "nothing was re-encoded");
    }

    #[test]
    fn repair_with_no_affected_objects_is_a_noop() {
        let cluster = ScaliaCluster::builder().build();
        let engine = cluster.engine(0).clone();
        let infra = cluster.infra().clone();
        let key = ObjectKey::new("c", "k");
        cluster
            .put(&key, vec![1u8; 10_000], "image/png", rule(), None)
            .unwrap();
        let meta = engine.read_metadata(&key).unwrap();
        // Pick a provider that holds no chunk of this object.
        let unused = infra
            .catalog()
            .all()
            .into_iter()
            .find(|p| !meta.striping.provider_set().contains(&p.id))
            .map(|p| p.id);
        if let Some(unused) = unused {
            infra.set_provider_down(unused, true);
            let report = repair_provider(&engine, &infra, unused, &PlacementEngine::new()).unwrap();
            assert_eq!(report.objects_affected, 0);
            assert_eq!(report.objects_repaired, 0);
        }
    }

    #[test]
    fn failed_repairs_back_off_and_dead_letter_after_the_attempt_cap() {
        let cluster = ScaliaCluster::builder().build();
        let engine = cluster.engine(0).clone();
        let infra = cluster.infra().clone();
        let key = ObjectKey::new("c", "doomed.bin");
        cluster
            .put(&key, vec![3u8; 200_000], "application/x-tar", rule(), None)
            .unwrap();
        let meta = engine.read_metadata(&key).unwrap();

        // Take down every provider but one chunk holder: no feasible
        // replacement placement exists (and the object cannot even be
        // re-read at threshold), so every repair attempt fails.
        let holders: Vec<ProviderId> = meta.striping.stripe_view(0).providers();
        for p in infra.catalog().all() {
            if p.id != holders[1] {
                infra.set_provider_down(p.id, true);
            }
        }
        enqueue(&infra, &key, "provider-outage").unwrap();

        let pe = PlacementEngine::new();
        let mut now_secs = infra.now().secs();
        for attempt in 1..=DEAD_LETTER_ATTEMPTS {
            let report = drain_repair_queue(
                &engine,
                &infra,
                &pe,
                &MigrationBudget::UNLIMITED,
                SimTime::from_secs(now_secs),
            )
            .unwrap();
            assert_eq!(report.failed, 1, "attempt {attempt} must fail");
            let (queue_row, entry) = queue_entries(&infra).unwrap().pop().unwrap();
            assert_eq!(entry.attempts, attempt);
            assert!(
                entry.not_before_secs > now_secs,
                "backoff must be scheduled"
            );
            assert_eq!(entry.dead, attempt == DEAD_LETTER_ATTEMPTS);
            assert!(queue_row.starts_with(REPAIR_QUEUE_PREFIX));
            // An immediate re-drain defers on backoff (or reports the dead
            // letter) without charging an attempt.
            let again = drain_repair_queue(
                &engine,
                &infra,
                &pe,
                &MigrationBudget::UNLIMITED,
                SimTime::from_secs(now_secs),
            )
            .unwrap();
            assert_eq!(again.failed, 0);
            if entry.dead {
                assert_eq!(again.dead_lettered, 1);
            } else {
                assert_eq!(again.deferred_backoff, 1);
            }
            now_secs = entry.not_before_secs;
        }

        // Dead letters persist: still surfaced, never dropped, never retried.
        let report = drain_repair_queue(
            &engine,
            &infra,
            &pe,
            &MigrationBudget::UNLIMITED,
            SimTime::from_secs(now_secs + 100_000),
        )
        .unwrap();
        assert_eq!(report.dead_lettered, 1);
        assert_eq!(report.attempted, 0);
        assert_eq!(queue_entries(&infra).unwrap().len(), 1);

        // Re-enqueueing after a new incident revives the dead entry.
        enqueue(&infra, &key, "provider-outage").unwrap();
        let (_, revived) = queue_entries(&infra).unwrap().pop().unwrap();
        assert!(!revived.dead);
        assert_eq!(revived.attempts, 0);
    }

    #[test]
    fn budget_defers_low_risk_repairs_to_the_next_drain() {
        let cluster = ScaliaCluster::builder().build();
        let engine = cluster.engine(0).clone();
        let infra = cluster.infra().clone();

        let keys: Vec<ObjectKey> = (0..3)
            .map(|i| ObjectKey::new("budget", format!("obj{i}.tar")))
            .collect();
        for key in &keys {
            cluster
                .put(key, vec![5u8; 400_000], "application/x-tar", rule(), None)
                .unwrap();
        }
        let victim = engine
            .read_metadata(&keys[0])
            .unwrap()
            .striping
            .stripe_view(0)
            .chunks[0]
            .provider;
        infra.set_provider_down(victim, true);
        for key in &keys {
            let meta = engine.read_metadata(key).unwrap();
            if meta.striping.provider_set().contains(&victim) {
                enqueue(&infra, key, "provider-outage").unwrap();
            }
        }
        let queued = queue_entries(&infra).unwrap().len();
        assert!(queued >= 1);

        // A 1-byte budget admits exactly one migration per drain (the first
        // candidate is always admitted); the rest defer, not fail.
        let budget = MigrationBudget::UNLIMITED.with_max_bytes(1);
        let pe = PlacementEngine::new();
        let mut total_repaired = 0;
        for _ in 0..queued {
            let report = drain_repair_queue(&engine, &infra, &pe, &budget, infra.now()).unwrap();
            assert!(report.repaired <= 1);
            assert_eq!(report.failed, 0);
            total_repaired += report.repaired;
        }
        assert_eq!(total_repaired, queued);
        assert!(queue_entries(&infra).unwrap().is_empty());
    }
}
