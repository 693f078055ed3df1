//! Integration tests of the unified parallel chunk-I/O layer: hedged
//! m-of-n reads, write re-placement after provider failures, and the
//! failure-detector feedback loop (§III-D of the paper).
//!
//! Everything but the last section runs on *virtual* latency
//! (deterministic microseconds from the per-provider latency models /
//! stall injection), so those tests are exact on every run. The last
//! section makes stores really sleep: there each round-trip runs on a
//! thread of its own, and the tests time the overlap with the wall clock.

use scalia::core::cost::cheapest_read_providers;
use scalia::core::placement::Placement;
use scalia::engine::chunk_io::{fetch_chunks, upload};
use scalia::engine::cluster::ScaliaCluster;
use scalia::erasure::codec::encode_object;
use scalia::prelude::*;
use scalia::providers::backend::{ObjectStore, StoreOp};
use scalia::providers::descriptor::ProviderDescriptor;
use scalia::types::checksum::{checksum_hex, object_checksum_hex};
use std::sync::Arc;
use std::time::{Duration as WallDuration, Instant};

fn rule() -> StorageRule {
    StorageRule::new(
        "chunk-io",
        Reliability::from_percent(99.999),
        Reliability::from_percent(99.99),
        ZoneSet::all(),
        0.5,
    )
}

/// The chunk holders of one stripe (`view`, `size` plaintext bytes) in the
/// order the hedged read contacts them: cheapest read first, computed
/// exactly as the chunk-I/O layer ranks them.
fn ranked_holders(infra: &Infrastructure, view: &StripeMeta, size: ByteSize) -> Vec<ProviderId> {
    let descriptors: Vec<ProviderDescriptor> = view
        .chunks
        .iter()
        .filter_map(|c| infra.catalog().get(c.provider))
        .collect();
    let chunk_gb = size.as_gb() / view.m.max(1) as f64;
    cheapest_read_providers(&descriptors, descriptors.len() as u32, chunk_gb)
        .into_iter()
        .map(|i| view.chunks[i].provider)
        .collect()
}

/// [`ranked_holders`] of a one-stripe object.
fn ranked_chunk_providers(cluster: &ScaliaCluster, meta: &ObjectMeta) -> Vec<ProviderId> {
    ranked_holders(cluster.infra(), meta.striping.stripe_view(0), meta.size)
}

/// Deterministic, position-dependent payload bytes (a constant fill would
/// hide misplaced shards).
fn patterned(tag: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (tag.wrapping_mul(131).wrapping_add(i.wrapping_mul(7)) % 251) as u8)
        .collect()
}

#[test]
fn failed_write_is_replaced_and_retried_on_remaining_providers() {
    let cluster = ScaliaCluster::builder()
        .datacenters(1)
        .engines_per_datacenter(1)
        .build();
    let engine = cluster.engine(0);

    // Prime the placement cache with a clean same-class write so the second
    // put reuses the decision that includes the (about to fail) victim.
    let warm_key = ObjectKey::new("retry", "warm.png");
    let warm_meta = engine
        .put(
            &warm_key,
            vec![1u8; 300_000].into(),
            "image/png",
            rule(),
            None,
        )
        .unwrap();
    let victim = warm_meta.striping.stripe_view(0).chunks[0].provider;

    // The victim's *backend* dies, but the catalog still lists it, so the
    // cached placement will try it first.
    cluster.infra().backend(victim).unwrap().set_down(true);

    let key = ObjectKey::new("retry", "fresh.png");
    let payload = vec![2u8; 300_000];
    let meta = engine
        .put(&key, payload.clone().into(), "image/png", rule(), None)
        .unwrap();

    // The write was re-placed off the failed provider…
    assert!(
        !meta.striping.provider_set().contains(&victim),
        "retried write must avoid the failed provider"
    );
    // …the hard failure marked it unavailable (§III-D3)…
    assert!(!cluster.infra().catalog().is_available(victim));
    // …and the payload is served back intact.
    assert_eq!(engine.get(&key).unwrap(), bytes::Bytes::from(payload));

    // No chunk of the aborted first attempt may survive anywhere: total
    // provider bytes equal exactly the two committed objects' footprints.
    let footprint = |meta: &ObjectMeta| {
        let shard = meta.size.bytes().div_ceil(meta.striping.m() as u64).max(1);
        shard * meta.striping.n() as u64
    };
    let stored: u64 = cluster
        .infra()
        .backends()
        .iter()
        .map(|b| b.stored_bytes().bytes())
        .sum();
    assert_eq!(
        stored,
        footprint(&warm_meta) + footprint(&meta),
        "the rolled-back attempt must leave no chunks behind"
    );
}

#[test]
fn hedged_read_survives_a_ranked_provider_killed_mid_lifecycle() {
    let cluster = ScaliaCluster::builder()
        .datacenters(1)
        .engines_per_datacenter(1)
        .build();
    let engine = cluster.engine(0);
    let key = ObjectKey::new("hedge", "kill.jpg");
    let payload = vec![7u8; 400_000];
    let meta = engine
        .put(&key, payload.clone().into(), "image/jpeg", rule(), None)
        .unwrap();
    assert!(meta.striping.n() > meta.striping.m());

    // Kill the provider the read would contact *first* — only its backend,
    // so the read path (not the placement layer) must discover the failure.
    let victim = ranked_chunk_providers(&cluster, &meta)[0];
    cluster.infra().backend(victim).unwrap().set_down(true);
    cluster.caches().iter().for_each(|c| c.clear());

    let data = engine.get(&key).unwrap();
    assert_eq!(data.len(), payload.len());
    assert_eq!(
        checksum_hex(&data),
        meta.checksum,
        "bytes must be checksum-exact"
    );

    // §III-D3: the read reported the dead provider instead of silently
    // skipping it.
    assert!(
        !cluster.infra().catalog().is_available(victim),
        "the failure detector must mark the dead provider unavailable"
    );
}

#[test]
fn hedged_read_does_not_wait_out_a_stalled_ranked_provider() {
    let cluster = ScaliaCluster::builder()
        .datacenters(1)
        .engines_per_datacenter(1)
        .build();
    let engine = cluster.engine(0);
    let key = ObjectKey::new("hedge", "stall.jpg");
    let payload = vec![9u8; 250_000];
    let meta = engine
        .put(&key, payload.clone().into(), "image/jpeg", rule(), None)
        .unwrap();

    // The first-ranked provider stalls for 30 virtual seconds per request.
    const STALL_US: u64 = 30_000_000;
    let stalled = ranked_chunk_providers(&cluster, &meta)[0];
    cluster
        .infra()
        .backend(stalled)
        .unwrap()
        .set_stall_us(STALL_US);
    cluster.caches().iter().for_each(|c| c.clear());

    let reads_before = cluster.infra().io_latency_snapshot(StoreOp::Get).count;
    let data = engine.get(&key).unwrap();
    assert_eq!(checksum_hex(&data), meta.checksum);

    // The hedge promoted a parity chunk: the recorded virtual makespan beat
    // the stall by an order of magnitude instead of waiting it out.
    let reads = cluster.infra().io_latency_snapshot(StoreOp::Get);
    assert_eq!(reads.count, reads_before + 1);
    assert!(
        reads.max_us < STALL_US / 10,
        "hedged read took {}µs — it waited out the {}µs stall",
        reads.max_us,
        STALL_US
    );
}

#[test]
fn any_m_of_n_survivor_subset_reconstructs_the_object() {
    // (payload length, stripe size): one-stripe objects whose length does
    // and does not divide by m, empty and one byte long; objects of ≥ 2
    // stripes, with and without a short tail.
    let cases: [(usize, Option<u64>); 7] = [
        (400_000, None),
        (400_001, None),
        (0, None),
        (1, None),
        (2_345, Some(1_000)),
        (3_000, Some(1_000)),
        (2_001, Some(1_000)),
    ];
    for (case, (len, stripe)) in cases.into_iter().enumerate() {
        let cluster = ScaliaCluster::builder()
            .datacenters(1)
            .engines_per_datacenter(1)
            .build();
        if let Some(stripe) = stripe {
            cluster.infra().set_stripe_size_bytes(stripe);
        }
        let engine = cluster.engine(0);
        let key = ObjectKey::new("subsets", "all.bin");
        let payload = patterned(case, len);
        let meta = engine
            .put(
                &key,
                payload.clone().into(),
                "application/octet-stream",
                rule(),
                None,
            )
            .unwrap();
        assert_eq!(
            meta.striping.stripe_count() > 1,
            stripe.is_some(),
            "len {len}"
        );
        // The root over the stripe digests — the plain checksum of the
        // bytes for the one-stripe cases.
        let stripe_size = cluster.infra().stripe_size_bytes() as usize;
        assert_eq!(
            object_checksum_hex(&payload, stripe_size),
            meta.checksum,
            "len {len}"
        );
        if stripe.is_none() {
            assert_eq!(checksum_hex(&payload), meta.checksum, "len {len}");
        }
        // Every stripe of an object lands on the same placement (one class,
        // one cached decision), so the first stripe's holders are them all.
        let group = meta.striping.stripe_view(0);
        let providers: Vec<ProviderId> = group.providers();
        let n = providers.len();
        let m = group.m as usize;
        assert!(n > m, "needs parity to make the property non-trivial");
        // A range that starts mid-shard and, when striped, crosses a stripe
        // boundary.
        let (offset, range_len) = (len / 3, len / 2 + 1);
        let range_end = (offset + range_len).min(len);

        // Exhaustive differential: for every way to kill n − m chunk
        // holders — survivors all data, mixed, or as much parity as the code
        // has — the decode-into-buffer read path must return the plaintext
        // byte for byte, for the full object and for a range of it.
        let mut subsets = 0;
        for mask in 0u32..(1 << n) {
            if mask.count_ones() as usize != n - m {
                continue;
            }
            subsets += 1;
            let killed: Vec<ProviderId> = (0..n)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| providers[i])
                .collect();
            for &provider in &killed {
                cluster.infra().backend(provider).unwrap().set_down(true);
            }
            cluster.caches().iter().for_each(|c| c.clear());

            let data = engine
                .get(&key)
                .unwrap_or_else(|e| panic!("len {len} survivor subset {mask:b} failed: {e}"));
            assert_eq!(&data[..], &payload[..], "len {len} subset {mask:b}");
            cluster.caches().iter().for_each(|c| c.clear());
            let range = engine
                .get_range(&key, offset as u64, range_len as u64)
                .unwrap_or_else(|e| panic!("len {len} subset {mask:b} range failed: {e}"));
            assert_eq!(
                &range[..],
                &payload[offset.min(range_end)..range_end],
                "len {len} subset {mask:b} range"
            );

            for &provider in &killed {
                // Restore the backend *and* the catalog entry (reads feed the
                // failure detector, which marks dead providers unavailable).
                cluster.infra().set_provider_down(provider, false);
            }
        }
        assert!(subsets >= n, "expected at least n choose (n-m) ≥ n cases");
    }
}

/// Flips one bit of a *data* chunk the next read of `view` is certain to
/// fetch (a holder among the `m` first-ranked), in place at its backend —
/// a provider that lies. Returns the means to undo it.
fn corrupt_a_fetched_data_chunk(
    cluster: &ScaliaCluster,
    view: &StripeMeta,
    size: ByteSize,
) -> (ProviderId, String, bytes::Bytes) {
    let location = ranked_holders(cluster.infra(), view, size)
        .into_iter()
        .take(view.m as usize)
        .find_map(|provider| {
            view.chunks
                .iter()
                .find(|c| c.provider == provider && c.index < view.m)
        })
        .expect("the m first-ranked holders of an m-of-n code include a data chunk");
    let backend = cluster.infra().backend(location.provider).unwrap();
    let chunk_key = view.chunk_key(location.index);
    let honest = backend.get(&chunk_key).unwrap();
    let mut lie = honest.to_vec();
    let middle = lie.len() / 2;
    lie[middle] ^= 0x10;
    backend.put(&chunk_key, lie.into()).unwrap();
    (location.provider, chunk_key, honest)
}

fn assert_fails_closed(result: Result<bytes::Bytes, ScaliaError>, what: &str) {
    match result {
        Err(ScaliaError::DecodeFailed(_) | ScaliaError::NotEnoughChunks { .. }) => {}
        Err(other) => panic!("{what}: unexpected error {other}"),
        Ok(bytes) => panic!(
            "{what}: served {} bytes that no stored checksum vouches for",
            bytes.len()
        ),
    }
}

#[test]
fn a_lying_provider_fails_reads_closed_and_never_reaches_the_cache() {
    let cluster = ScaliaCluster::builder()
        .datacenters(1)
        .engines_per_datacenter(1)
        .build();
    let engine = cluster.engine(0);
    let caches_empty = || cluster.caches().iter().all(|c| c.is_empty());

    // (a) A one-stripe 4 KiB object.
    let small_key = ObjectKey::new("liar", "small.bin");
    let small = patterned(1, 4096);
    let small_meta = engine
        .put(&small_key, small.clone().into(), "text/plain", rule(), None)
        .unwrap();
    assert_eq!(small_meta.striping.stripe_count(), 1);
    let (provider, chunk_key, honest) = corrupt_a_fetched_data_chunk(
        &cluster,
        small_meta.striping.stripe_view(0),
        small_meta.size,
    );
    assert_fails_closed(engine.get(&small_key), "one-stripe get");
    assert_fails_closed(
        engine.get_range(&small_key, 0, 4096),
        "one-stripe whole range",
    );
    assert_fails_closed(
        engine.get_range(&small_key, 1000, 200),
        "one-stripe partial range",
    );
    assert!(caches_empty(), "a failed read must not populate the cache");
    // The honest bytes back in place, the object reads again.
    let backend = cluster.infra().backend(provider).unwrap();
    backend.put(&chunk_key, honest).unwrap();
    assert_eq!(&engine.get(&small_key).unwrap()[..], &small[..]);

    // (b) Several stripes: 2 MiB + a tail, 512 KiB stripes.
    let stripe = cluster.infra().stripe_size_bytes();
    let big_key = ObjectKey::new("liar", "big.bin");
    let big = patterned(2, (2 << 20) + 100_000);
    let big_meta = engine
        .put(
            &big_key,
            big.clone().into(),
            "application/x-tar",
            rule(),
            None,
        )
        .unwrap();
    assert!(big_meta.striping.stripe_count() >= 4);
    cluster.caches().iter().for_each(|c| c.clear());
    let view = big_meta.striping.stripe_view(1);
    corrupt_a_fetched_data_chunk(&cluster, view, ByteSize::from_bytes(stripe));
    assert_fails_closed(engine.get(&big_key), "striped get");
    assert_fails_closed(
        engine.get_range(&big_key, stripe, stripe),
        "whole-stripe range",
    );
    assert_fails_closed(
        engine.get_range(&big_key, stripe - 10, 20),
        "range crossing into the damaged stripe",
    );
    // Every partial range of the damaged stripe fails, wherever the flipped
    // bit sits in it: the stripe is verified whole before it is cut.
    for offset in (0..stripe).step_by(64 << 10) {
        assert_fails_closed(
            engine.get_range(&big_key, stripe + offset, 4096),
            "partial-stripe range",
        );
    }
    assert!(caches_empty(), "a failed read must not populate the cache");
    // The damage is contained: stripes that verify are still served.
    assert_eq!(
        &engine.get_range(&big_key, 1000, 5000).unwrap()[..],
        &big[1000..6000]
    );
    let last = 3 * stripe as usize;
    assert_eq!(
        &engine.get_range(&big_key, last as u64, u64::MAX).unwrap()[..],
        &big[last..]
    );
}

/// Flips byte `pos` of chunk `index` of `view` at its backend; returns the
/// honest bytes.
fn flip_chunk_byte(
    cluster: &ScaliaCluster,
    view: &StripeMeta,
    index: u32,
    pos: usize,
) -> bytes::Bytes {
    let location = view.chunks.iter().find(|c| c.index == index).unwrap();
    let backend = cluster.infra().backend(location.provider).unwrap();
    let honest = backend.get(&view.chunk_key(index)).unwrap();
    let mut lie = honest.to_vec();
    lie[pos] ^= 0x01;
    backend.put(&view.chunk_key(index), lie.into()).unwrap();
    honest
}

#[test]
fn a_flipped_byte_anywhere_in_a_fetched_chunk_fails_every_read_closed() {
    // A prime stripe length: the last data shard is padded and every shard
    // ends mid-word, so the appended bytes end in a partial block.
    const STRIPE: usize = 4_093;
    let cluster = ScaliaCluster::builder()
        .datacenters(1)
        .engines_per_datacenter(1)
        .build();
    cluster.infra().set_stripe_size_bytes(STRIPE as u64);
    let infra = cluster.infra().clone();
    let engine = cluster.engine(0);
    let key = ObjectKey::new("flip", "two-stripes.bin");
    let data = patterned(9, STRIPE + 1_000);
    let meta = engine
        .put(
            &key,
            data.clone().into(),
            "application/octet-stream",
            rule(),
            None,
        )
        .unwrap();
    let view = meta.striping.stripe_view(0).clone();
    let (m, n) = (view.m as usize, view.n() as usize);
    assert!(m > 1 && n > m, "needs padding and parity: ({m},{n})");
    let shard_len = STRIPE.div_ceil(m);
    let last_row_len = STRIPE - (m - 1) * shard_len;
    assert!(last_row_len < shard_len && !last_row_len.is_multiple_of(8));
    let holder = |index: usize| view.chunks[index].provider;
    let caches_empty = || cluster.caches().iter().all(|c| c.is_empty());
    let chunk_gets = || -> u64 {
        let backends = infra.backends();
        backends
            .iter()
            .map(|b| b.latency_snapshot(StoreOp::Get).count)
            .sum()
    };

    // (chunk to damage, holders to take down so the read fetches exactly
    // the m chunks wanted, positions): the last data shard on the copy path
    // (every data chunk up, parity down) and the first parity chunk on the
    // rebuild path (data chunk 0 down, so row 0 is rebuilt through it). The
    // positions are the first word, a middle word, the last (partial) word
    // of the plaintext the chunk carries, and the first byte of padding.
    let copy_path = (
        m - 1,
        (m..n).collect::<Vec<_>>(),
        [0, last_row_len / 2, last_row_len - 1, last_row_len],
    );
    let rebuild_path = (
        m,
        std::iter::once(0).chain(m + 1..n).collect(),
        [0, shard_len / 2, shard_len - 1, last_row_len],
    );
    for (target, down, positions) in [copy_path, rebuild_path] {
        for pos in positions {
            let what = format!("chunk {target} byte {pos} of a ({m},{n}) stripe");
            for &index in &down {
                infra.backend(holder(index)).unwrap().set_down(true);
            }
            let honest = flip_chunk_byte(&cluster, &view, target as u32, pos);
            cluster.caches().iter().for_each(|c| c.clear());

            // Stripe 1 is untouched and still served.
            let tail = engine.get_range(&key, STRIPE as u64, 1_000).unwrap();
            assert_eq!(&tail[..], &data[STRIPE..], "{what}");
            if target < m && pos >= last_row_len {
                // Padding is never part of the plaintext: the bytes served
                // are the honest ones.
                assert_eq!(&engine.get(&key).unwrap()[..], &data[..], "{what}");
                assert_eq!(&engine.get_range(&key, 0, 100).unwrap()[..], &data[..100]);
            } else {
                let before = chunk_gets();
                assert_fails_closed(engine.get(&key), &what);
                let full_get = chunk_gets() - before;
                assert!(caches_empty(), "{what}: a failed read must not be cached");
                let before = chunk_gets();
                assert_fails_closed(engine.get_range(&key, 0, 100), &what);
                assert_eq!(
                    chunk_gets() - before,
                    full_get,
                    "{what}: stripe 1 must not be fetched once stripe 0 failed"
                );
                assert_fails_closed(engine.get_range(&key, STRIPE as u64 - 5, 10), &what);
                let survivors: Vec<ProviderDescriptor> = (0..n)
                    .filter(|i| !down.contains(i))
                    .filter_map(|i| infra.catalog().get(holder(i)))
                    .collect();
                let placement = Placement {
                    providers: survivors,
                    m: 1,
                };
                assert_fails_closed(
                    engine
                        .replace_placement(&key, &placement)
                        .map(|_| bytes::Bytes::new()),
                    &what,
                );
                assert_eq!(engine.read_metadata(&key).unwrap().version, meta.version);
                assert!(caches_empty(), "{what}: a failed read must not be cached");
            }

            let backend = infra.backend(holder(target)).unwrap();
            backend.put(&view.chunk_key(target as u32), honest).unwrap();
            for &index in &down {
                infra.set_provider_down(holder(index), false);
            }
        }
    }
    cluster.caches().iter().for_each(|c| c.clear());
    assert_eq!(&engine.get(&key).unwrap()[..], &data[..]);
}

#[test]
fn writes_and_hedged_reads_record_object_level_latency() {
    let cluster = ScaliaCluster::builder()
        .datacenters(1)
        .engines_per_datacenter(1)
        .build();
    let engine = cluster.engine(0);
    let key = ObjectKey::new("lat", "obj.png");
    engine
        .put(&key, vec![3u8; 120_000].into(), "image/png", rule(), None)
        .unwrap();
    cluster.caches().iter().for_each(|c| c.clear());
    engine.get(&key).unwrap();
    engine.delete(&key).unwrap();

    let infra = cluster.infra();
    assert_eq!(infra.io_latency_snapshot(StoreOp::Put).count, 1);
    assert_eq!(infra.io_latency_snapshot(StoreOp::Get).count, 1);
    assert!(infra.io_latency_snapshot(StoreOp::Delete).count >= 1);
}

#[test]
fn stalled_upload_is_hedged_and_the_write_replaced_without_the_straggler() {
    // §III-D3 extended to slow-but-alive providers on the WRITE path: an
    // upload that blows its hedge deadline (published PUT p95 × multiplier
    // once a tick has observed the provider, modelled × multiplier until
    // then) is rolled back and the write re-placed on the remaining
    // providers — a provider stalling anomalously on PUTs cannot hold a
    // write hostage.
    use scalia::engine::chunk_io::write_hedge_deadline_us;
    use scalia::providers::latency::LatencyModel;

    let cluster = ScaliaCluster::builder()
        .datacenters(1)
        .engines_per_datacenter(1)
        .build();
    let engine = cluster.engine(0);

    // Prime the class's placement decision with a clean write; the second
    // same-class put reuses the provider set that includes the (about to
    // stall) victim.
    let warm_meta = engine
        .put(
            &ObjectKey::new("wh", "warm.png"),
            vec![1u8; 200_000].into(),
            "image/png",
            rule(),
            None,
        )
        .unwrap();
    let victim = warm_meta.striping.stripe_view(0).chunks[0].provider;

    // Every upload so far fed the observed-write window.
    for location in &warm_meta.striping.stripe_view(0).chunks {
        assert!(
            cluster
                .infra()
                .with_observatory(|o| o.write_samples(&location.provider))
                >= 1,
            "successful uploads must feed the write observation loop"
        );
    }

    // The victim develops a 10-virtual-second stall on every request. The
    // catalog is zero-latency, so the cold write deadline is the 2 ms
    // floor — far below the stall.
    cluster
        .infra()
        .backend(victim)
        .unwrap()
        .set_stall_us(10_000_000);

    let meta = engine
        .put(
            &ObjectKey::new("wh", "during-stall.png"),
            vec![2u8; 200_000].into(),
            "image/png",
            rule(),
            None,
        )
        .unwrap();
    assert!(
        !meta.striping.provider_set().contains(&victim),
        "the stalled provider must be excluded from the re-placed write"
    );
    // The re-placed object is fully readable.
    cluster.caches().iter().for_each(|c| c.clear());
    assert_eq!(
        cluster
            .get(&ObjectKey::new("wh", "during-stall.png"))
            .unwrap()
            .len(),
        200_000
    );
    // No chunk of the failed attempt leaked onto the victim: its footprint
    // is exactly the warm object's single chunk.
    let victim_backend = cluster.infra().backend(victim).unwrap();
    assert_eq!(victim_backend.object_count(), 1, "only the warm chunk");

    // Deadline adaptation: once a tick has published the observed write
    // window, the deadline is grounded in the OBSERVED p95 (× multiplier)
    // instead of the advertised model. A provider advertising 1 ms but
    // actually writing at ~80 ms gets a realistic deadline.
    let infra = cluster.infra();
    let probe = warm_meta.striping.stripe_view(0).chunks[1].provider;
    let advertised = LatencyModel::new(1, 0, 0, 7); // 1 ms, no jitter
    let descriptor = infra.catalog().get(probe).unwrap().with_latency(advertised);
    let deadline =
        || infra.with_observatory(|o| write_hedge_deadline_us(o.published(), &descriptor, 100_000));
    let cold = deadline();
    assert_eq!(cold, 3_000, "cold: modelled 1 ms × 3");
    for _ in 0..64 {
        infra.with_observatory(|o| o.record_write(probe, 80_000));
    }
    // Until the clock advances the observations are recorded, not read.
    assert_eq!(deadline(), cold);
    cluster.tick(SimTime::from_hours(1));
    let warm = deadline();
    assert!(
        warm >= 3 * 80_000,
        "warm deadline {warm}µs must follow the observed p95, not the model"
    );
}

// ---------------------------------------------------------------------------
// Faulted runs in virtual time replay exactly
// ---------------------------------------------------------------------------

/// A deployment over the latency-annotated paper catalog with no cache (every
/// read goes to the providers), every store pinned to virtual latency
/// whatever `SCALIA_LATENCY_REAL_SLEEP` says.
fn latency_cluster(seed: u64) -> ScaliaCluster {
    let catalog = scalia::providers::catalog::ProviderCatalog::shared();
    for descriptor in scalia::sim::scenarios::latency_catalog(seed) {
        catalog.register(descriptor);
    }
    let cluster = ScaliaCluster::builder()
        .datacenters(1)
        .engines_per_datacenter(1)
        .catalog(catalog)
        .cache_capacity(ByteSize::ZERO)
        .build();
    for backend in cluster.infra().backends() {
        backend.set_real_sleep(false);
    }
    cluster
}

/// One seeded run of the three fault shapes the fan-outs must handle — a
/// provider killed mid-write, a stalled first-ranked provider, a
/// transport-error storm — reduced to everything a replay could perturb:
/// stripings, per-backend op counts, the bill and the recorded makespans.
fn faulted_virtual_scenario(seed: u64) -> String {
    let cluster = latency_cluster(seed);
    let engine = cluster.engine(0);
    let infra = cluster.infra();
    let put = |name: &str, tag: usize| {
        engine
            .put(
                &ObjectKey::new("faults", name),
                patterned(tag, 6_000 + tag).into(),
                "image/png",
                rule(),
                None,
            )
            .unwrap()
    };
    let mut lines = Vec::new();

    // Killed mid-write: the cached placement still routes to the dead
    // backend, the upload aborts, rolls back and is re-placed.
    let warm = put("warm.png", 1);
    let victim = warm.striping.stripe_view(0).chunks[0].provider;
    infra.backend(victim).unwrap().set_down(true);
    lines.push(format!("replaced {:?}", put("replaced.png", 2).striping));
    infra.set_provider_down(victim, false);

    // Stalled first-ranked provider: the read hedges past it.
    let stalled = ranked_chunk_providers(&cluster, &warm)[0];
    infra.backend(stalled).unwrap().set_stall_us(5_000_000);
    let data = engine.get(&ObjectKey::new("faults", "warm.png")).unwrap();
    lines.push(format!("hedged read {}", checksum_hex(&data)));
    infra.backend(stalled).unwrap().set_stall_us(0);

    // Transport-error storm on one holder: a write and a read ride it out.
    let stormed = warm.striping.stripe_view(0).chunks[1].provider;
    infra.backend(stormed).unwrap().inject_transport_errors(3);
    lines.push(format!("stormed {:?}", put("stormed.png", 3).striping));
    let data = engine.get(&ObjectKey::new("faults", "warm.png")).unwrap();
    lines.push(format!("stormed read {}", checksum_hex(&data)));
    engine
        .delete(&ObjectKey::new("faults", "replaced.png"))
        .unwrap();

    let mut backends = infra.backends();
    backends.sort_by_key(|backend| backend.descriptor().id);
    for backend in backends {
        let counts: Vec<u64> = [StoreOp::Put, StoreOp::Get, StoreOp::Delete]
            .map(|op| backend.latency_snapshot(op).count)
            .to_vec();
        lines.push(format!("{} ops {counts:?}", backend.descriptor().name));
    }
    lines.push(format!("billed {:?}", infra.total_cost()));
    for op in [StoreOp::Put, StoreOp::Get, StoreOp::Delete] {
        lines.push(format!("{op:?} {:?}", infra.io_latency_snapshot(op)));
    }
    lines.push(format!("pending deletes {}", infra.pending_delete_count()));
    lines.join("\n")
}

#[test]
fn faulted_virtual_runs_replay_identically() {
    for seed in [5u64, 11] {
        assert_eq!(
            faulted_virtual_scenario(seed),
            faulted_virtual_scenario(seed),
            "seed {seed}: two replays diverged"
        );
    }
}

// ---------------------------------------------------------------------------
// Real waiting: one thread per round-trip
// ---------------------------------------------------------------------------

/// Four providers that really sleep a flat `rtt_ms` per request, and the
/// 3-of-4 placement over them.
fn real_sleep_infra(rtt_ms: u64) -> (Arc<Infrastructure>, Placement) {
    use scalia::providers::catalog::{s3_high, ProviderCatalog};
    use scalia::providers::latency::LatencyModel;
    let catalog = ProviderCatalog::shared();
    for i in 0..4u32 {
        let model = LatencyModel::new(rtt_ms, 0, 0, i as u64);
        catalog.register(s3_high(ProviderId::new(i)).with_latency(model));
    }
    let infra = Infrastructure::new(catalog, 1, Duration::HOUR);
    for backend in infra.backends() {
        backend.set_real_sleep(true);
    }
    let placement = Placement {
        providers: infra.catalog().all(),
        m: 3,
    };
    (infra, placement)
}

/// Uploads `data` as one stripe of `placement` under `skey`.
fn upload_stripe(
    infra: &Infrastructure,
    placement: &Placement,
    skey: &str,
    data: &[u8],
) -> StripeMeta {
    let encoded = encode_object(data, placement.erasure_params()).unwrap();
    StripeMeta {
        chunks: upload(infra, placement, skey, &encoded, true).unwrap(),
        m: placement.m,
        checksum: checksum_hex(data),
        skey: skey.to_string(),
    }
}

#[test]
fn real_sleep_round_trips_overlap() {
    const RTT_MS: u64 = 50;
    let (infra, placement) = real_sleep_infra(RTT_MS);
    let data = patterned(4, 30_000);
    let budget = WallDuration::from_millis(2 * RTT_MS);

    // Sleeping threads need no cores: four chunk PUTs cost one round-trip
    // of wall time, not four — and a 3-of-4 read one, not three.
    let started = Instant::now();
    let stripe = upload_stripe(&infra, &placement, "skey-real", &data);
    let put_took = started.elapsed();
    assert_eq!(stripe.chunks.len(), 4);
    assert!(
        put_took < budget,
        "a 4-chunk put took {put_took:?}; its round-trips must overlap (< {budget:?})"
    );

    let started = Instant::now();
    let size = ByteSize::from_bytes(data.len() as u64);
    let chunks = fetch_chunks(&infra, &stripe, size).unwrap();
    let get_took = started.elapsed();
    assert_eq!(chunks.len(), 3);
    assert!(
        get_took < budget,
        "a 3-of-4 get took {get_took:?}; its fetches must overlap (< {budget:?})"
    );
}

#[test]
fn a_stalled_straggler_holds_no_later_read_hostage() {
    const RTT_MS: u64 = 20;
    let (infra, placement) = real_sleep_infra(RTT_MS);
    let data = patterned(6, 30_000);
    let stripe = upload_stripe(&infra, &placement, "skey-stall", &data);
    let size = ByteSize::from_bytes(data.len() as u64);

    // The first-ranked provider now takes 1.5 s a request. Every read
    // hedges past it at its deadline and returns; the straggler it leaves
    // behind sleeps out the stall on its own thread. More reads than there
    // are cores run back to back, so a thread shared between stragglers
    // and later reads would be occupied by the time the last ones start.
    let stalled = ranked_holders(&infra, &stripe, size)[0];
    infra.backend(stalled).unwrap().set_stall_us(1_500_000);
    let reads = std::thread::available_parallelism().map_or(1, |n| n.get()) + 3;
    for read in 0..reads {
        let started = Instant::now();
        let chunks = fetch_chunks(&infra, &stripe, size).unwrap();
        let took = started.elapsed();
        assert_eq!(chunks.len(), 3);
        assert!(
            took < WallDuration::from_millis(400),
            "read {read} of {reads} took {took:?} behind the stalled provider's stragglers"
        );
    }
}
