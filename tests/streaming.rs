//! Integration tests of the stripe pipeline: puts that seal stripe by
//! stripe (place k, land k − 1, encode k), range reads that fetch only the
//! covering stripes, the multipart/append API with its single-transaction
//! commit, and the equivalence of the two ways to feed the one write path.
//!
//! The stripe size is shrunk to 1000 bytes so a few-kilobyte payload
//! exercises many stripes.

use scalia::engine::gc;
use scalia::prelude::*;
use scalia::providers::backend::{ObjectStore, StoreOp};
use scalia::providers::failure::FaultPlan;
use scalia::types::checksum::{checksum_hex, object_checksum_hex};
use scalia::types::md5::md5_hex;
use std::sync::Arc;

const STRIPE: u64 = 1000;

/// A flexible rule (lock-in 0.5 ⇒ ≥ 2 providers).
fn flex_rule() -> StorageRule {
    StorageRule::new(
        "stream-flex",
        Reliability::from_percent(99.999),
        Reliability::from_percent(99.99),
        ZoneSet::all(),
        0.5,
    )
}

/// A wide rule: lock-in 0.2 demands all five paper-catalog providers, so a
/// provider loss forces the degraded landing; the 99 % floor lets a
/// four-chunk stripe be acknowledged.
fn wide_rule() -> StorageRule {
    StorageRule::new(
        "stream-wide",
        Reliability::from_percent(99.999),
        Reliability::from_percent(99.0),
        ZoneSet::all(),
        0.2,
    )
}

/// Deterministic payload bytes.
fn payload(tag: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((tag as usize).wrapping_mul(131).wrapping_add(i) % 251) as u8)
        .collect()
}

/// A cluster with test-sized (1000-byte) stripes.
fn striped_cluster() -> ScaliaCluster {
    let cluster = ScaliaCluster::builder()
        .datacenters(1)
        .engines_per_datacenter(1)
        .build();
    cluster.infra().set_stripe_size_bytes(STRIPE);
    cluster
}

fn clear_caches(cluster: &ScaliaCluster) {
    for cache in cluster.caches() {
        cache.clear();
    }
}

/// Chunk-level gets, summed off the per-backend histograms (the infra
/// snapshot counts one entry per hedged fetch, not per chunk).
fn chunk_gets(infra: &Infrastructure) -> u64 {
    infra
        .backends()
        .iter()
        .map(|b| b.latency_snapshot(StoreOp::Get).count)
        .sum()
}

fn latest_meta(infra: &Infrastructure, key: &ObjectKey) -> Option<ObjectMeta> {
    infra
        .database()
        .get_latest(DatacenterId::new(0), &key.row_key(), "meta")
        .and_then(|cell| serde_json::from_value::<ObjectMeta>(cell.value).ok())
}

fn has_debt(infra: &Infrastructure, key: &ObjectKey) -> bool {
    infra
        .database()
        .get_latest(DatacenterId::new(0), &key.row_key(), "debt")
        .is_some()
}

fn stored_at_providers(infra: &Infrastructure) -> u64 {
    infra
        .backends()
        .iter()
        .map(|b| b.stored_bytes().bytes())
        .sum()
}

/// Exact provider footprint of a committed object: per stripe, `n` chunks
/// of `ceil(len / m)` bytes (one byte minimum for empty payloads).
fn expected_footprint(meta: &ObjectMeta) -> u64 {
    let striping = &meta.striping;
    let stripes = striping.stripes.iter().enumerate();
    stripes
        .map(|(i, stripe)| {
            let len = striping.stripe_len(i, meta.size.bytes());
            len.div_ceil(stripe.m as u64).max(1) * stripe.n() as u64
        })
        .sum()
}

fn assert_exact_footprint(infra: &Infrastructure, keys: &[ObjectKey], context: &str) {
    let expected: u64 = keys
        .iter()
        .filter_map(|k| latest_meta(infra, k))
        .map(|m| expected_footprint(&m))
        .sum();
    assert_eq!(
        stored_at_providers(infra),
        expected,
        "{context}: provider bytes must equal the surviving metadata footprint"
    );
}

// ---------------------------------------------------------------------------
// Put: stripe map, round-trip, checksum
// ---------------------------------------------------------------------------

#[test]
fn streamed_put_round_trips_with_whole_object_checksum() {
    let cluster = striped_cluster();
    let key = ObjectKey::new("stream", "big.bin");
    let data = payload(1, 10_240); // 10 full stripes + a 240-byte tail
    let meta = cluster
        .put(&key, data.clone(), "application/x-tar", flex_rule(), None)
        .unwrap();

    assert_eq!(meta.striping.stripe_count(), 11);
    assert_eq!(meta.size.bytes(), 10_240);
    assert_eq!(
        meta.checksum,
        object_checksum_hex(&data, STRIPE as usize),
        "the object checksum is the root over the stripe digests"
    );
    let striping = &meta.striping;
    assert_eq!(striping.stripe_size, STRIPE);
    assert!((0..10).all(|i| striping.stripe_len(i, 10_240) == STRIPE));
    assert_eq!(striping.stripe_len(10, 10_240), 240);
    for (i, stripe) in striping.stripes.iter().enumerate() {
        assert_eq!(
            stripe.checksum,
            checksum_hex(&data[i * 1000..(i * 1000 + 1000).min(10_240)]),
            "stripe {i} digest"
        );
    }

    // Reads reassemble stripe by stripe, cold and cached.
    clear_caches(&cluster);
    assert_eq!(cluster.get(&key).unwrap().as_ref(), &data[..]);
    assert_eq!(cluster.get(&key).unwrap().as_ref(), &data[..]);

    // The stripe boundary is the only size policy: a payload of exactly one
    // stripe is one stripe, one byte more is two.
    let small_key = ObjectKey::new("stream", "small.bin");
    let small = payload(2, STRIPE as usize);
    let small_meta = cluster
        .put(
            &small_key,
            small.clone(),
            "application/x-tar",
            flex_rule(),
            None,
        )
        .unwrap();
    assert_eq!(small_meta.striping.stripe_count(), 1);
    let over = payload(2, STRIPE as usize + 1);
    let over_meta = cluster
        .put(&small_key, over, "application/x-tar", flex_rule(), None)
        .unwrap();
    assert_eq!(over_meta.striping.stripe_count(), 2);
    cluster
        .put(
            &small_key,
            small.clone(),
            "application/x-tar",
            flex_rule(),
            None,
        )
        .unwrap();
    clear_caches(&cluster);
    assert_eq!(cluster.get(&small_key).unwrap().as_ref(), &small[..]);

    // An overwrite of the object reclaims the old stripes' chunks.
    let data2 = payload(3, 4_500);
    cluster
        .put(&key, data2.clone(), "application/x-tar", flex_rule(), None)
        .unwrap();
    clear_caches(&cluster);
    assert_eq!(cluster.get(&key).unwrap().as_ref(), &data2[..]);
    cluster.infra().retry_pending_deletes();
    assert_exact_footprint(cluster.infra(), &[key, small_key], "after overwrite");
}

// ---------------------------------------------------------------------------
// get_range == get()[o..o+l]: property sweep
// ---------------------------------------------------------------------------

/// Every (offset, len) probe compares `get_range` against the full read's
/// slice — cold (provider path) and warm (cache path).
fn assert_range_probes(cluster: &ScaliaCluster, key: &ObjectKey, data: &[u8]) {
    let engine = cluster.engine(0);
    let total = data.len() as u64;
    let offsets = [
        0,
        1,
        STRIPE - 1,
        STRIPE,
        STRIPE + 1,
        total / 2,
        total.saturating_sub(1),
        total,
        total + STRIPE,
    ];
    let lens = [
        0,
        1,
        239,
        STRIPE,
        STRIPE + 1,
        2 * STRIPE + 7,
        total,
        u64::MAX,
    ];
    for &offset in &offsets {
        for &len in &lens {
            let end = offset.saturating_add(len).min(total);
            let expected: &[u8] = if offset >= end {
                &[]
            } else {
                &data[offset as usize..end as usize]
            };
            clear_caches(cluster);
            let cold = engine.get_range(key, offset, len).unwrap();
            assert_eq!(
                cold.as_ref(),
                expected,
                "cold get_range({offset}, {len}) of {total}-byte object"
            );
            engine.get(key).unwrap();
            let warm = engine.get_range(key, offset, len).unwrap();
            assert_eq!(
                warm.as_ref(),
                expected,
                "cached get_range({offset}, {len}) of {total}-byte object"
            );
        }
    }
}

#[test]
fn get_range_equals_full_get_slice() {
    let cluster = striped_cluster();
    // An object of several stripes with a partial tail stripe...
    let striped_key = ObjectKey::new("range", "striped.bin");
    let striped = payload(7, 4_240);
    cluster
        .put(
            &striped_key,
            striped.clone(),
            "application/x-tar",
            flex_rule(),
            None,
        )
        .unwrap();
    assert_range_probes(&cluster, &striped_key, &striped);
    // ...and a one-stripe object go through the same sweep.
    let single_key = ObjectKey::new("range", "single.bin");
    let single = payload(8, 800);
    cluster
        .put(
            &single_key,
            single.clone(),
            "application/x-tar",
            flex_rule(),
            None,
        )
        .unwrap();
    assert_range_probes(&cluster, &single_key, &single);
}

#[test]
fn range_read_fetches_only_the_covering_stripes_chunks() {
    let cluster = striped_cluster();
    let infra = cluster.infra().clone();
    let key = ObjectKey::new("range", "wide.bin");
    let data = payload(9, 20_000); // 20 stripes
    let meta = cluster
        .put(&key, data.clone(), "application/x-tar", flex_rule(), None)
        .unwrap();
    assert_eq!(meta.striping.stripe_count(), 20);
    let width = meta.striping.n() as u64;

    // A 10-byte probe inside stripe 5 touches at most that one stripe's
    // chunk set — not the other 19 stripes'.
    clear_caches(&cluster);
    let before = chunk_gets(&infra);
    let got = cluster
        .engine(0)
        .get_range(&key, 5 * STRIPE + 100, 10)
        .unwrap();
    assert_eq!(got.as_ref(), &data[5_100..5_110]);
    let probe_gets = chunk_gets(&infra) - before;
    assert!(
        probe_gets >= 1 && probe_gets <= width,
        "a one-stripe probe must fetch at most one stripe's chunks ({probe_gets} vs width {width})"
    );

    // The full read, by contrast, visits every stripe.
    clear_caches(&cluster);
    let before = chunk_gets(&infra);
    assert_eq!(cluster.get(&key).unwrap().as_ref(), &data[..]);
    let full_gets = chunk_gets(&infra) - before;
    assert!(
        full_gets >= 20 * meta.striping.m() as u64,
        "the full read reassembles all 20 stripes"
    );
    assert!(probe_gets < full_gets / 10);
}

// ---------------------------------------------------------------------------
// Warm ranges: served from the cache, verifying only the stripes they touch
// ---------------------------------------------------------------------------

#[test]
fn warm_ranges_touch_no_provider_and_verify_only_their_stripes() {
    const STRIPE: usize = 128 * 1024;
    const RANGE: usize = 64 * 1024;
    let cluster = ScaliaCluster::builder()
        .datacenters(1)
        .engines_per_datacenter(1)
        .build();
    let infra = cluster.infra().clone();
    infra.set_stripe_size_bytes(STRIPE as u64);
    let engine = cluster.engine(0);
    let key = ObjectKey::new("warm", "sixteen.bin");
    // 15 full stripes and a short sixteenth.
    let data = payload(11, 15 * STRIPE + 40_000);
    let meta = cluster
        .put(&key, data.clone(), "application/x-tar", flex_rule(), None)
        .unwrap();
    assert_eq!(meta.striping.stripe_count(), 16);

    clear_caches(&cluster);
    let full = engine.get(&key).unwrap(); // cold: populates the cache
    assert_eq!(full.as_ref(), &data[..]);
    let cache = &cluster.caches()[0];
    let after_cold = chunk_gets(&infra);

    // Inside one stripe, straddling two, and clipped by EOF.
    let ranges = [
        3 * STRIPE + 1_000,
        7 * STRIPE - RANGE / 2,
        data.len() - RANGE / 4,
    ];
    let assert_warm = |offset: usize| {
        let end = (offset + RANGE).min(data.len());
        let got = engine.get_range(&key, offset as u64, RANGE as u64).unwrap();
        assert_eq!(got.as_ref(), &full[offset..end], "range at {offset}");
    };
    let (hits_before, _) = cache.stats();
    ranges.iter().for_each(|&offset| assert_warm(offset));
    assert_eq!(chunk_gets(&infra), after_cold, "warm ranges fetch nothing");
    assert_eq!(cache.stats().0, hits_before + 3);

    // Damage stripe 10 in the cache: the ranges above do not touch it, so
    // they still hit — a ranged hit verifies what it returns, not the entry.
    assert!(cache.corrupt_entry_for_test(&key.row_key(), 10 * STRIPE + 5));
    ranges.iter().for_each(|&offset| assert_warm(offset));
    assert_eq!(chunk_gets(&infra), after_cold);
    assert_eq!(cache.corruption_count(), 0);

    // A range inside the damaged stripe fails closed: the entry is dropped
    // and the true bytes come from the providers.
    assert_warm(10 * STRIPE);
    assert_eq!(cache.corruption_count(), 1);
    assert!(cache.is_empty());
    assert!(chunk_gets(&infra) > after_cold);
}

mod warm_range_props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// `get_range` through a warm cache equals the slice of the payload
        /// — full stripes, a short last stripe, and objects of one stripe
        /// alike.
        #[test]
        fn warm_get_range_equals_the_payload_slice(
            size in 1usize..6_500,
            probes in proptest::collection::vec(any::<u64>(), 8..24),
        ) {
            let cluster = striped_cluster();
            let key = ObjectKey::new("warm", "prop.bin");
            let data = payload(size as u64, size);
            cluster
                .put(&key, data.clone(), "application/x-tar", flex_rule(), None)
                .unwrap();
            let engine = cluster.engine(0);
            clear_caches(&cluster);
            engine.get(&key).unwrap();
            let after_cold = chunk_gets(cluster.infra());
            for word in probes {
                // Offsets reach a little past EOF; lengths up to 2.5 stripes.
                let offset = (word >> 32) as usize % (size + 200);
                let len = (word & 0xFFFF_FFFF) as usize % 2_500;
                let end = (offset + len).min(size);
                let expected = if offset >= end { &[][..] } else { &data[offset..end] };
                let got = engine.get_range(&key, offset as u64, len as u64).unwrap();
                prop_assert_eq!(got.as_ref(), expected, "get_range({}, {}) of {}", offset, len, size);
            }
            prop_assert_eq!(chunk_gets(cluster.infra()), after_cold);
            prop_assert_eq!(cluster.caches()[0].corruption_count(), 0);
        }
    }
}

// ---------------------------------------------------------------------------
// Degraded streamed writes: per-stripe debt, backfill, degraded range reads
// ---------------------------------------------------------------------------

#[test]
fn degraded_streamed_put_commits_debt_and_backfills_stripe_by_stripe() {
    let cluster = striped_cluster();
    let infra = cluster.infra().clone();
    let victim = infra.catalog().all()[0].id;
    let key = ObjectKey::new("stream", "degraded.bin");
    let data = payload(11, 5_500); // 6 stripes (tail 500)

    infra.backend(victim).unwrap().set_down(true);
    let meta = cluster
        .put(&key, data.clone(), "application/x-tar", wide_rule(), None)
        .unwrap();
    assert_eq!(meta.striping.stripe_count(), 6);
    for (i, stripe) in meta.striping.stripes.iter().enumerate() {
        assert_eq!(stripe.chunks.len(), 4, "stripe {i} lands degraded 4-of-5");
        assert!(stripe.chunks.iter().all(|c| c.provider != victim));
    }
    assert!(
        has_debt(&infra, &key),
        "a degraded streamed commit must record durability debt"
    );

    // The acked write reads back bit-exactly — full and by range — from the
    // degraded (k < n) stripes.
    clear_caches(&cluster);
    assert_eq!(cluster.get(&key).unwrap().as_ref(), &data[..]);
    clear_caches(&cluster);
    assert_eq!(
        cluster
            .engine(0)
            .get_range(&key, 950, 2_100)
            .unwrap()
            .as_ref(),
        &data[950..3_050],
        "range reads must work on degraded objects"
    );

    // Capacity returns: one repair cycle re-places the whole object, stripe
    // by stripe, back to full width.
    infra.set_provider_down(victim, false);
    cluster.tick(SimTime::from_hours(1));
    assert_eq!(cluster.last_repair_drain().repaired, 1);
    let healed = latest_meta(&infra, &key).unwrap();
    assert!(
        healed.striping.stripes.iter().all(|s| s.n() == 5),
        "every stripe must be back to full width"
    );
    assert!(!has_debt(&infra, &key), "the debt column is settled");
    clear_caches(&cluster);
    assert_eq!(cluster.get(&key).unwrap().as_ref(), &data[..]);
    infra.retry_pending_deletes();
    assert_exact_footprint(&infra, &[key], "after striped backfill");
}

// ---------------------------------------------------------------------------
// Multipart / append API
// ---------------------------------------------------------------------------

#[test]
fn multipart_assembles_odd_sized_parts_and_commits_once() {
    let cluster = striped_cluster();
    let engine = cluster.engine(0);
    let key = ObjectKey::new("parts", "assembled.bin");
    let data = payload(13, 4_734);

    let mut upload = engine.begin_put(&key, "application/x-tar", flex_rule(), None);
    assert_eq!(upload.stripe_size(), STRIPE as usize);
    // Parts deliberately misaligned with the stripe size, incl. an empty one.
    let mut fed = 0usize;
    for part_len in [1usize, 999, 2_500, 0, 1_234] {
        upload.put_part(&data[fed..fed + part_len]).unwrap();
        fed += part_len;
    }
    assert_eq!(fed, data.len());
    assert_eq!(upload.bytes_appended(), 4_734);

    // Nothing is visible before the commit.
    assert!(engine.get(&key).is_err());

    let peak = upload.peak_buffer_bytes();
    let meta = upload.complete_put().unwrap();
    assert_eq!(meta.size.bytes(), 4_734);
    assert_eq!(meta.checksum, object_checksum_hex(&data, STRIPE as usize));
    assert_eq!(meta.striping.stripe_count(), 5, "4 full stripes + 734 tail");
    assert!(
        peak <= 10 * STRIPE as usize,
        "transient buffering must stay O(stripe), got {peak}"
    );
    clear_caches(&cluster);
    assert_eq!(engine.get(&key).unwrap().as_ref(), &data[..]);
    assert_eq!(
        engine.get_range(&key, 3_000, 1_000).unwrap().as_ref(),
        &data[3_000..4_000]
    );
    assert_eq!(engine.list("parts"), vec![key]);
}

#[test]
fn abort_put_reclaims_every_landed_stripe() {
    let cluster = striped_cluster();
    let engine = cluster.engine(0);
    let key = ObjectKey::new("parts", "aborted.bin");
    let data = payload(19, 3_800);

    let mut upload = engine.begin_put(&key, "application/x-tar", flex_rule(), None);
    upload.put_part(&data).unwrap();
    upload.abort_put();
    assert!(engine.get(&key).is_err(), "nothing was ever committed");
    cluster.infra().retry_pending_deletes();
    assert_eq!(
        stored_at_providers(cluster.infra()),
        0,
        "abort must reclaim every landed stripe chunk"
    );
}

// ---------------------------------------------------------------------------
// Chaos: crashes at part boundaries and around the one-transaction commit
// ---------------------------------------------------------------------------

#[test]
fn crash_at_part_boundaries_leaves_old_object_and_no_orphans_after_gc() {
    let cluster = striped_cluster();
    let infra = cluster.infra().clone();
    let db = infra.database();
    let key = ObjectKey::new("crash", "streamed.bin");
    let old = payload(23, 4_100);
    cluster
        .put(&key, old.clone(), "application/x-tar", flex_rule(), None)
        .unwrap();

    // Crash after the 1st, 3rd and 5th landed stripe of a streamed
    // overwrite: the stripes are durable at providers but the stripe map
    // never commits, so recovery + GC must expose exactly the old object
    // and reclaim every orphaned stripe chunk.
    for skip in [0u32, 2, 4] {
        let new = payload(100 + skip as u64, 6_300);
        let checkpoint = db.checkpoint();
        let plan = Arc::new(FaultPlan::new());
        plan.arm_after("put_part::after-stripe", skip);
        infra.set_fault_plan(Some(plan.clone()));
        let result = cluster.put(&key, new, "application/x-tar", flex_rule(), None);
        assert!(result.is_err(), "skip={skip}: the crashed put must not ack");
        assert_eq!(plan.fired(), vec!["put_part::after-stripe".to_string()]);
        infra.set_fault_plan(None);

        assert!(
            stored_at_providers(&infra) > expected_footprint(&latest_meta(&infra, &key).unwrap()),
            "skip={skip}: the crash must strand orphan stripe chunks for GC to find"
        );
        db.recover(&checkpoint);
        clear_caches(&cluster);
        infra.retry_pending_deletes();
        gc::sweep_orphan_chunks(&infra);
        assert_eq!(
            cluster.get(&key).unwrap().as_ref(),
            &old[..],
            "skip={skip}: the old object survives untouched"
        );
        assert_exact_footprint(
            &infra,
            std::slice::from_ref(&key),
            "after part-boundary crash",
        );
    }
}

#[test]
fn crash_around_the_commit_is_old_or_new_never_torn() {
    let cluster = striped_cluster();
    let infra = cluster.infra().clone();
    let db = infra.database();

    // (label, does recovery expose the new object?) — the journaled Begin
    // record decides.
    let matrix = [
        ("put::after-upload", false),
        ("txn::before-log", false),
        ("txn::logged", true),
        ("txn::torn", true),
        ("put::after-commit", true),
    ];
    let mut keys: Vec<ObjectKey> = Vec::new();
    for (i, (label, commits)) in matrix.iter().enumerate() {
        let key = ObjectKey::new("crash", format!("commit-{i}.bin"));
        let old = payload(200 + i as u64, 3_700);
        let new = payload(300 + i as u64, 5_900);
        cluster
            .put(&key, old.clone(), "application/x-tar", flex_rule(), None)
            .unwrap();
        let checkpoint = db.checkpoint();
        let plan = Arc::new(FaultPlan::new());
        plan.arm(*label);
        infra.set_fault_plan(Some(plan.clone()));
        let result = cluster.put(&key, new.clone(), "application/x-tar", flex_rule(), None);
        assert!(result.is_err(), "{label}: the crashed put must not ack");
        assert_eq!(plan.fired(), vec![label.to_string()], "{label} must fire");
        infra.set_fault_plan(None);

        db.recover(&checkpoint);
        clear_caches(&cluster);
        infra.retry_pending_deletes();
        gc::sweep_orphan_chunks(&infra);

        let expected: &[u8] = if *commits { &new } else { &old };
        assert_eq!(
            cluster.get(&key).unwrap().as_ref(),
            expected,
            "{label}: recovery must expose exactly the old or the new object"
        );
        let meta = latest_meta(&infra, &key).unwrap();
        assert_eq!(
            meta.checksum,
            object_checksum_hex(expected, STRIPE as usize),
            "{label}: metadata must match the surviving payload — never torn"
        );
        // The multipart commit is one transaction: a crash that commits
        // commits the *whole* stripe map.
        if *commits {
            assert_eq!(meta.striping.stripe_count(), 6);
            assert_eq!(
                meta.striping.stripe_len(5, meta.size.bytes()),
                900,
                "{label}: the tail stripe commits with the map"
            );
        }
        keys.push(key);
        assert_exact_footprint(&infra, &keys, "after commit-point crash");
    }
}

// ---------------------------------------------------------------------------
// One write path: `put` and multipart commit the same object
// ---------------------------------------------------------------------------

/// The stored bytes of every chunk of a committed object, in stripe then
/// chunk-index order, fetched straight off the provider backends.
fn chunk_digests(infra: &Infrastructure, meta: &ObjectMeta) -> Vec<(usize, u32, String)> {
    let mut out = Vec::new();
    for (i, stripe) in meta.striping.stripes.iter().enumerate() {
        for c in &stripe.chunks {
            let backend = infra.backend(c.provider).unwrap();
            let bytes = backend.get(&stripe.chunk_key(c.index)).unwrap();
            out.push((i, c.index, md5_hex(&bytes)));
        }
    }
    out.sort();
    out
}

/// What two commits of the same bytes must agree on: everything but the
/// version, the chunk keys derived from it, and the clock.
fn layout_of(infra: &Infrastructure, meta: &ObjectMeta) -> String {
    let stripes: Vec<String> = meta
        .striping
        .stripes
        .iter()
        .map(|s| format!("m={} chunks={:?} checksum={}", s.m, s.chunks, s.checksum))
        .collect();
    format!(
        "size={} checksum={} mime={} rule={} stripe_size={} stripes={stripes:?} chunks={:?}",
        meta.size.bytes(),
        meta.checksum,
        meta.mime,
        meta.rule.name,
        meta.striping.stripe_size,
        chunk_digests(infra, meta),
    )
}

#[test]
fn put_and_multipart_commit_the_same_object_at_every_size() {
    let stripe = STRIPE as usize;
    let sizes = [0, 1, stripe - 1, stripe, stripe + 1, 3 * stripe + 417];
    let cluster = striped_cluster();
    let engine = cluster.engine(0);
    let infra = cluster.infra();
    for (case, &size) in sizes.iter().enumerate() {
        let data = payload(31 + case as u64, size);
        let put_key = ObjectKey::new("one-path", format!("put-{size}.bin"));
        let put_meta = cluster
            .put(
                &put_key,
                data.clone(),
                "application/x-tar",
                flex_rule(),
                None,
            )
            .unwrap();

        // The same bytes in odd-sized parts, none aligned with the
        // stripe size; the hint makes both price the same class.
        let mp_key = ObjectKey::new("one-path", format!("multipart-{size}.bin"));
        let hint = Some(ByteSize::from_bytes(size as u64));
        let mut upload =
            engine.begin_put_with_hint(&mp_key, "application/x-tar", flex_rule(), None, hint);
        for part in data.chunks(337) {
            upload.put_part(part).unwrap();
        }
        let mp_meta = upload.complete_put().unwrap();

        assert_eq!(
            put_meta.striping.stripe_count(),
            size.div_ceil(stripe).max(1)
        );
        assert_eq!(
            put_meta.checksum,
            object_checksum_hex(&data, stripe),
            "size {size}"
        );
        assert_ne!(put_meta.version, mp_meta.version);
        assert_eq!(
            layout_of(infra, &put_meta),
            layout_of(infra, &mp_meta),
            "size {size}: put and multipart must commit the same object"
        );
        clear_caches(&cluster);
        assert_eq!(cluster.get(&put_key).unwrap().as_ref(), &data[..]);
        assert_eq!(cluster.get(&mp_key).unwrap().as_ref(), &data[..]);
    }
}

#[test]
fn an_empty_object_is_one_empty_stripe() {
    let cluster = striped_cluster();
    let infra = cluster.infra().clone();
    let key = ObjectKey::new("one-path", "empty.bin");
    let meta = cluster
        .put(&key, Vec::new(), "text/plain", flex_rule(), None)
        .unwrap();
    assert_eq!(meta.striping.stripe_count(), 1);
    assert_eq!(meta.striping.stripe_len(0, 0), 0);
    assert_eq!(meta.checksum, checksum_hex(b""));
    assert_eq!(meta.striping.stripe_view(0).checksum, meta.checksum);
    assert_exact_footprint(&infra, std::slice::from_ref(&key), "one-byte chunks");

    // No range of it needs a provider; a full read fetches the one stripe's
    // `m` chunks and no more.
    clear_caches(&cluster);
    let before = chunk_gets(&infra);
    let engine = cluster.engine(0);
    for (offset, len) in [(0, 0), (0, 10), (5, u64::MAX)] {
        assert!(engine.get_range(&key, offset, len).unwrap().is_empty());
    }
    assert_eq!(chunk_gets(&infra), before, "nothing to fetch");
    assert!(engine.get(&key).unwrap().is_empty());
    assert_eq!(chunk_gets(&infra) - before, meta.striping.m() as u64);
}

#[test]
fn stripe_zero_stores_under_the_objects_key_and_a_retry_never_reuses_it() {
    let cluster = striped_cluster();
    let infra = cluster.infra().clone();
    let engine = cluster.engine(0);
    let keys_at = |prefix: &str| -> usize {
        let backends = infra.backends();
        let listed = backends.iter().map(|b| b.list(prefix).unwrap().len());
        listed.sum()
    };

    // A clean put: stripe 0 under `{skey}.{index}` — the paper's key — and
    // stripe i under `{skey}.s{i}.{index}`.
    let key = ObjectKey::new("keys", "clean.bin");
    let meta = cluster
        .put(
            &key,
            payload(51, 2_300),
            "application/x-tar",
            flex_rule(),
            None,
        )
        .unwrap();
    let skey = StripingMeta::storage_key(&key, meta.version);
    let stripes = &meta.striping.stripes;
    assert_eq!(stripes[0].skey, skey);
    assert_eq!(stripes[0].chunk_key(1), format!("{skey}.1"));
    assert_eq!(stripes[1].skey, format!("{skey}.s1"));
    assert_eq!(stripes[2].skey, format!("{skey}.s2"));

    // A put whose first attempt fails (the cached placement still routes to
    // a dead backend) is re-placed — and its retry stores under the key of a
    // *different* version: the failed attempt's rollback may have postponed
    // deletes under the first key, which must never strike committed chunks.
    let victim = stripes[0].chunks[0].provider;
    infra.backend(victim).unwrap().set_down(true);
    let retried_key = ObjectKey::new("keys", "retried.bin");
    let retried = cluster
        .put(
            &retried_key,
            payload(52, 700),
            "application/x-tar",
            flex_rule(),
            None,
        )
        .unwrap();
    let first_attempt = StripingMeta::storage_key(&retried_key, retried.version);
    let landed = &retried.striping.stripe_view(0).skey;
    assert_ne!(landed, &first_attempt, "the retry must not reuse the key");
    assert_eq!(
        landed.len(),
        first_attempt.len(),
        "a plain storage key, no salt"
    );
    assert!(landed.chars().all(|c| c.is_ascii_hexdigit()));
    assert!(!retried.striping.provider_set().contains(&victim));
    infra.set_provider_down(victim, false);
    infra.retry_pending_deletes();
    assert_eq!(
        keys_at(&first_attempt),
        0,
        "the first attempt was rolled back"
    );
    assert_eq!(keys_at(landed), retried.striping.n() as usize);
    clear_caches(&cluster);
    assert_eq!(
        engine.get(&retried_key).unwrap().as_ref(),
        &payload(52, 700)[..]
    );
}

#[test]
fn a_stripe_re_encoded_for_a_new_geometry_keeps_the_checksums_of_its_seal() {
    let cluster = striped_cluster();
    let infra = cluster.infra().clone();
    let data = payload(61, 3_500); // three stripes and a 500-byte tail
    let put = |name: &str| {
        let key = ObjectKey::new("geometry", name);
        let meta = cluster
            .put(&key, data.clone(), "application/x-tar", flex_rule(), None)
            .unwrap();
        (key, meta)
    };
    let (_, clean) = put("clean.bin");
    let geometry = |view: &StripeMeta| (view.m, view.n());
    let clean_geometry = geometry(clean.striping.stripe_view(0));

    // Every backend but three dies while the catalog still lists them: the
    // first stripe's landing fails until it is re-placed on the survivors,
    // under a narrower code — so the stripe sealed (and hashed) for the
    // first placement is decoded and re-encoded, and nothing of it may be
    // absorbed into the object's checksum a second time.
    let providers = infra.catalog().all();
    for provider in &providers[3..] {
        infra.backend(provider.id).unwrap().set_down(true);
    }
    let (key, meta) = put("retried.bin");
    let first = meta.striping.stripe_view(0);
    assert_ne!(geometry(first), clean_geometry, "the retry must re-encode");
    assert_eq!(meta.checksum, object_checksum_hex(&data, STRIPE as usize));
    assert_eq!(
        meta.checksum, clean.checksum,
        "the root ignores the geometry"
    );
    for (i, stripe) in meta.striping.stripes.iter().enumerate() {
        let window = &data[i * 1000..(i * 1000 + 1000).min(data.len())];
        assert_eq!(stripe.checksum, checksum_hex(window), "stripe {i}");
    }
    clear_caches(&cluster);
    assert_eq!(cluster.get(&key).unwrap().as_ref(), &data[..]);

    // A migration re-encodes every stripe for another geometry (mirroring
    // on the three survivors): the stripe checksums and their root carry
    // over untouched.
    let mirrored = Placement {
        providers: providers[..3].to_vec(),
        m: 1,
    };
    let moved = cluster
        .engine(0)
        .replace_placement(&key, &mirrored)
        .unwrap();
    assert_eq!(moved.striping.stripe_view(0).m, 1);
    assert_eq!(moved.checksum, meta.checksum);
    for (before, after) in meta.striping.stripes.iter().zip(&moved.striping.stripes) {
        assert_eq!(before.checksum, after.checksum);
    }
    clear_caches(&cluster);
    assert_eq!(cluster.get(&key).unwrap().as_ref(), &data[..]);
}

#[test]
fn the_object_checksum_is_the_root_over_its_stripes_for_every_part_size() {
    // At the default stripe size, through `Engine::put` and through
    // multipart parts that are tiny, prime, half a stripe, a stripe and a
    // stripe plus one: every stripe checksum is its window's, the object's
    // is the root over them, and an object of at most one stripe keeps the
    // plain checksum of its bytes.
    let cluster = ScaliaCluster::builder()
        .datacenters(1)
        .engines_per_datacenter(1)
        .build();
    let engine = cluster.engine(0);
    let stripe = cluster.infra().stripe_size_bytes() as usize;
    let sizes = [0, 1, stripe - 1, stripe, stripe + 1, 2 * stripe + 4_093];
    for (case, &size) in sizes.iter().enumerate() {
        let data = payload(70 + case as u64, size);
        let root = object_checksum_hex(&data, stripe);
        let check = |meta: &ObjectMeta, how: &str| {
            assert_eq!(meta.checksum, root, "{how}, size {size}");
            if size <= stripe {
                assert_eq!(meta.checksum, checksum_hex(&data), "{how}, size {size}");
            }
            assert_eq!(meta.striping.stripe_count(), size.div_ceil(stripe).max(1));
            for (i, view) in meta.striping.stripes.iter().enumerate() {
                let window = &data[(i * stripe).min(size)..((i + 1) * stripe).min(size)];
                let what = format!("{how}, size {size}, stripe {i}");
                assert_eq!(view.checksum, checksum_hex(window), "{what}");
            }
        };
        let key = ObjectKey::new("root", format!("put-{size}"));
        let put = cluster
            .put(&key, data.clone(), "application/x-tar", flex_rule(), None)
            .unwrap();
        check(&put, "put");
        for part in [1, 4_093, 256 * 1024, stripe, stripe + 1] {
            let key = ObjectKey::new("root", format!("parts-{part}-{size}"));
            let mut upload = engine.begin_put(&key, "application/x-tar", flex_rule(), None);
            for piece in data.chunks(part) {
                upload.put_part(piece).unwrap();
            }
            check(&upload.complete_put().unwrap(), &format!("parts of {part}"));
        }
        clear_caches(&cluster);
        assert_eq!(cluster.get(&key).unwrap().as_ref(), &data[..]);
    }
}

#[test]
fn a_put_that_cannot_land_its_tail_rolls_back_every_landed_stripe() {
    let cluster = striped_cluster();
    let infra = cluster.infra().clone();
    let engine = cluster.engine(0);
    let key = ObjectKey::new("parts", "stranded.bin");
    let down = |down: bool| {
        for backend in infra.backends() {
            backend.set_down(down);
        }
    };

    // Multipart: three stripes land (the fourth is in hand), then every
    // provider dies and `complete_put` cannot land the tail.
    let mut upload = engine.begin_put(&key, "application/x-tar", flex_rule(), None);
    upload.put_part(&payload(23, 3_800)).unwrap();
    assert!(
        stored_at_providers(&infra) > 0,
        "stripes landed before the outage"
    );
    down(true);
    assert!(upload.complete_put().is_err());
    down(false);
    infra.retry_pending_deletes();
    assert_eq!(
        stored_at_providers(&infra),
        0,
        "a failed complete_put must not leave its landed stripes billed"
    );
    assert!(engine.get(&key).is_err(), "nothing was ever committed");

    // `Engine::put` goes through the same function: a provider set that
    // dies between two stripes leaves nothing behind either.
    for provider in infra.catalog().all() {
        infra.catalog().mark_available(provider.id);
    }
    let plan = Arc::new(FaultPlan::new());
    plan.arm_after("put_part::after-stripe", 1);
    infra.set_fault_plan(Some(plan));
    assert!(cluster
        .put(
            &key,
            payload(24, 3_800),
            "application/x-tar",
            flex_rule(),
            None
        )
        .is_err());
    infra.set_fault_plan(None);
    assert!(
        stored_at_providers(&infra) > 0,
        "an injected crash keeps its debris for the orphan sweep"
    );
    gc::sweep_orphan_chunks(&infra);
    assert_eq!(stored_at_providers(&infra), 0);
}

// ---------------------------------------------------------------------------
// Replays of the whole streamed pipeline
// ---------------------------------------------------------------------------

#[test]
fn streamed_objects_replay_bit_equal() {
    // Committed state — stripe digests, stripe shapes and payload
    // round-trips — is a function of the puts alone: two replays on fresh
    // deployments agree exactly.
    let run = || {
        let cluster = striped_cluster();
        let mut lines = Vec::new();
        for (tag, len) in [(41u64, 3_000usize), (42, 4_240), (43, 9_999)] {
            let key = ObjectKey::new("replays", format!("obj-{tag}"));
            let data = payload(tag, len);
            let meta = cluster
                .put(&key, data.clone(), "application/x-tar", flex_rule(), None)
                .unwrap();
            clear_caches(&cluster);
            assert_eq!(cluster.get(&key).unwrap().as_ref(), &data[..]);
            let stripe_lines: Vec<String> = meta
                .striping
                .stripes
                .iter()
                .map(|s| format!("m={} n={} checksum={}", s.m, s.n(), s.checksum))
                .collect();
            lines.push(format!(
                "{tag}: checksum={} size={} stripes=[{}]",
                meta.checksum,
                meta.size.bytes(),
                stripe_lines.join(", ")
            ));
        }
        lines.join("\n")
    };
    assert_eq!(run(), run(), "two replays diverged");
}

// ---------------------------------------------------------------------------
// Front-end multipart error contract (negative paths)
// ---------------------------------------------------------------------------

fn frontend_over(cluster: ScaliaCluster) -> (FrontendService, TenantId) {
    let mut frontend = FrontendService::new(Arc::new(cluster), FrontendConfig::default());
    let tenant = frontend.register_tenant("mp-tenant", 1, 0, flex_rule());
    (frontend, tenant)
}

#[test]
fn multipart_ops_after_complete_are_no_such_upload() {
    let (mut frontend, tenant) = frontend_over(striped_cluster());
    let key = ObjectKey::new("mp", "after-complete");
    let id = frontend.create_multipart(tenant, &key, "application/x-tar", None);
    frontend.upload_part(id, 1, &payload(1, 3_000)).unwrap();
    frontend.complete_multipart(id).unwrap();

    // The id died with the complete: every later verb must say so, and the
    // second complete must not commit a second version.
    assert!(matches!(
        frontend.upload_part(id, 2, b"late"),
        Err(ScaliaError::NoSuchUpload(_))
    ));
    assert!(matches!(
        frontend.complete_multipart(id),
        Err(ScaliaError::NoSuchUpload(_))
    ));
    assert!(matches!(
        frontend.abort_multipart(id),
        Err(ScaliaError::NoSuchUpload(_))
    ));
    // The committed object is intact.
    assert_eq!(
        frontend.get_object(&key).unwrap().as_ref(),
        &payload(1, 3_000)[..]
    );
}

#[test]
fn multipart_ops_after_abort_are_no_such_upload() {
    let (mut frontend, tenant) = frontend_over(striped_cluster());
    let key = ObjectKey::new("mp", "after-abort");
    let id = frontend.create_multipart(tenant, &key, "application/x-tar", None);
    frontend.upload_part(id, 1, &payload(2, 3_000)).unwrap();
    frontend.abort_multipart(id).unwrap();

    assert!(matches!(
        frontend.upload_part(id, 2, b"late"),
        Err(ScaliaError::NoSuchUpload(_))
    ));
    assert!(matches!(
        frontend.complete_multipart(id),
        Err(ScaliaError::NoSuchUpload(_))
    ));
    // Nothing was committed and nothing leaked at the providers.
    assert!(frontend.get_object(&key).is_err());
    assert_exact_footprint(frontend.cluster().infra(), &[], "after multipart abort");
}

#[test]
fn multipart_rejects_out_of_order_and_duplicate_parts() {
    let (mut frontend, tenant) = frontend_over(striped_cluster());
    let key = ObjectKey::new("mp", "out-of-order");
    let id = frontend.create_multipart(tenant, &key, "application/x-tar", None);

    // Parts are 1-based: part 0 and a skipped-ahead part are both invalid.
    assert!(matches!(
        frontend.upload_part(id, 0, b"zero"),
        Err(ScaliaError::InvalidPart(_))
    ));
    assert!(matches!(
        frontend.upload_part(id, 2, b"skip"),
        Err(ScaliaError::InvalidPart(_))
    ));
    frontend.upload_part(id, 1, &payload(3, 1_000)).unwrap();
    // Replaying part 1 is invalid too — the cursor moved to part 2.
    assert!(matches!(
        frontend.upload_part(id, 1, b"again"),
        Err(ScaliaError::InvalidPart(_))
    ));
    // A rejected part number does not poison the session.
    frontend.upload_part(id, 2, &payload(4, 1_000)).unwrap();
    let meta = frontend.complete_multipart(id).unwrap();
    assert_eq!(meta.size.bytes(), 2_000);
}

#[test]
fn multipart_zero_part_complete_commits_an_empty_object() {
    let (mut frontend, tenant) = frontend_over(striped_cluster());
    let key = ObjectKey::new("mp", "empty");
    let id = frontend.create_multipart(tenant, &key, "text/plain", None);
    let meta = frontend.complete_multipart(id).unwrap();
    assert_eq!(meta.size.bytes(), 0);
    assert_eq!(meta.checksum, checksum_hex(b""));
    assert_eq!(frontend.get_object(&key).unwrap().len(), 0);
    // The empty object lists and deletes like any other.
    assert!(frontend.list_bucket("mp").contains(&key));
    frontend.delete_object(&key).unwrap();
    assert!(frontend.get_object(&key).is_err());
}

// ---------------------------------------------------------------------------
// Degenerate ranges on one-stripe objects
// ---------------------------------------------------------------------------

#[test]
fn degenerate_ranges_on_classic_objects_fetch_no_chunks() {
    let cluster = striped_cluster();
    let key = ObjectKey::new("ranges", "one-stripe");
    let size = (STRIPE / 2) as usize;
    let data = payload(9, size);
    let meta = cluster
        .put(&key, data.clone(), "image/png", flex_rule(), None)
        .unwrap();
    assert_eq!(meta.striping.stripe_count(), 1);
    clear_caches(&cluster);

    let engine = &cluster.engines()[0];
    let infra = cluster.infra();
    let gets_before = infra.io_latency_snapshot(StoreOp::Get).count;
    let size = size as u64;

    // Empty and past-EOF ranges resolve from metadata alone: empty bytes,
    // zero chunk fetches, zero recorded GET makespans.
    for (offset, len) in [(0, 0), (size, 0), (size, 10), (size + 1, 4), (u64::MAX, 1)] {
        let slice = engine.get_range(&key, offset, len).unwrap();
        assert!(
            slice.is_empty(),
            "range [{offset}, +{len}) of a {size}-byte object must be empty"
        );
    }
    assert_eq!(
        infra.io_latency_snapshot(StoreOp::Get).count,
        gets_before,
        "degenerate ranges must not touch providers"
    );

    // A range clipped by EOF still fetches and still agrees with the slice.
    let tail = engine.get_range(&key, size - 100, 1_000).unwrap();
    assert_eq!(tail.as_ref(), &data[size as usize - 100..]);
    assert!(infra.io_latency_snapshot(StoreOp::Get).count > gets_before);
}
