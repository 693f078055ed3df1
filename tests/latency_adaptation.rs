//! Deterministic end-to-end scenarios for latency-aware placement and
//! adaptive percentile hedging — the full observe → publish → decide loop:
//!
//! * a provider that starts limping sees its observed p95 published into
//!   the catalog, which raises its latency-weighted placement cost, and the
//!   next optimization cycle migrates objects off it;
//! * hedge deadlines tighten from the modelled `3×` fallback to the
//!   observed p95 once a clock advance publishes a warm-up window of
//!   samples, and the hedged read's p99 beats the same run without that
//!   tick (the fixed-deadline baseline) when a ranked provider stalls
//!   mid-run;
//! * a recovered provider is forgiven once its bad observation window
//!   decays out, and it wins its placements back;
//! * within one tick a read sees only the view the last tick published:
//!   what other reads of the tick observed — before it, or concurrently on
//!   another client thread — changes neither its ranking nor its deadlines.
//!
//! Everything runs in *virtual* time (flat, jitter-free latency models and
//! stall injection), so every assertion is exact — and the whole scenario
//! is replayed and must produce a bit-identical outcome. CI additionally
//! runs the suite with `RUST_TEST_THREADS=1`.

use std::sync::Arc;

use scalia::core::cost::{cheapest_read_providers, chunk_bytes_for};
use scalia::engine::chunk_io;
use scalia::engine::cluster::ScaliaCluster;
use scalia::engine::infra::Infrastructure;
use scalia::prelude::*;
use scalia::providers::backend::StoreOp;
use scalia::providers::catalog::ProviderCatalog;
use scalia::providers::descriptor::ProviderDescriptor;
use scalia::providers::latency::LatencyModel;
use scalia::providers::pricing::PricingPolicy;
use scalia::providers::sla::ProviderSla;
use scalia::types::size::ByteSize;

/// Reads driven per sampling period — enough to clear the observed-summary
/// warm-up floor (16 samples) within one period.
const READS_PER_PERIOD: usize = 24;

/// The virtual stall injected into the limping provider (µs).
const STALL_US: u64 = 250_000;

/// Three providers, all advertising the same flat latency profile
/// (30 ms RTT, 80 MB/s, no jitter — virtual time stays exact):
///
/// * `Cheap` — undercuts everyone (cheapest storage *and* read path), so
///   every latency-blind decision lands on it;
/// * `Fast` — pricier across the board;
/// * `Spare` — slightly pricier still (parity variety).
fn scenario_catalog() -> Arc<ProviderCatalog> {
    let catalog = ProviderCatalog::shared();
    for (i, (name, storage, bw_in, bw_out, ops)) in [
        ("Cheap", 0.05, 0.05, 0.08, 0.0),
        ("Fast", 0.15, 0.10, 0.15, 0.01),
        ("Spare", 0.16, 0.10, 0.16, 0.01),
    ]
    .into_iter()
    .enumerate()
    {
        catalog.register(
            ProviderDescriptor::public(
                ProviderId::new(i as u32),
                name,
                format!("{name} (latency-adaptation scenario)"),
                ProviderSla::from_percent(99.99, 99.9),
                PricingPolicy::from_dollars(storage, bw_in, bw_out, ops),
                ZoneSet::all(),
            )
            .with_latency(LatencyModel::new(30, 80, 0, i as u64)),
        );
    }
    catalog
}

/// A rule that *prices* latency: 0.05 $ per read-second of expected read
/// latency, on top of the paper's constraint set (availability relaxed so a
/// single 99.9 provider is feasible — placements have no forced slack and
/// the read path cannot silently dodge a slow member).
fn weighted_rule() -> StorageRule {
    StorageRule::new(
        "latency-aware",
        Reliability::from_percent(99.9),
        Reliability::from_percent(99.0),
        ZoneSet::all(),
        1.0,
    )
    .with_latency_weight(0.05)
    .with_read_sla_us(100_000)
}

/// Provider names currently holding the object's chunks.
fn placement_names(cluster: &ScaliaCluster, key: &ObjectKey) -> Vec<String> {
    let meta = cluster.engine(0).read_metadata(key).unwrap();
    meta.striping
        .provider_set()
        .iter()
        .filter_map(|id| cluster.infra().catalog().get(*id))
        .map(|d| d.name)
        .collect()
}

/// One sampling period: `READS_PER_PERIOD` cache-bypassing reads, then the
/// clock advance that flushes statistics and rotates/publishes the
/// observed-latency windows.
fn drive_period(cluster: &ScaliaCluster, key: &ObjectKey, end_hour: u64) {
    for _ in 0..READS_PER_PERIOD {
        cluster.caches().iter().for_each(|c| c.clear());
        cluster.get(key).unwrap();
    }
    cluster.tick(SimTime::from_hours(end_hour));
}

/// Everything the limping-provider scenario decides, for exact replay
/// comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ScenarioOutcome {
    initial: Vec<String>,
    quiet_cycle_migrations: usize,
    observed_during_stall: Option<u64>,
    cycles_to_migrate: usize,
    after_stall: Vec<String>,
    forgiven: bool,
    cycles_to_return: usize,
    final_placement: Vec<String>,
}

/// The full scenario: place on the cheap provider, limp, migrate off,
/// recover, migrate back.
fn run_limping_scenario() -> ScenarioOutcome {
    let cluster = ScaliaCluster::builder()
        .datacenters(1)
        .engines_per_datacenter(2)
        .catalog(scenario_catalog())
        .build();
    // One stripe holds the whole 1 MB object, so every read is one chunk
    // fetch of the size the placement model prices. (Observed latencies are
    // per chunk fetch: cut into 512 KiB stripes the object would be *read*
    // in two 36.6 ms fetches, each of which looks faster than the 42.5 ms
    // the model expects of a provider it has no observations for.)
    cluster.infra().set_stripe_size_bytes(1 << 20);
    let cheap = cluster.infra().catalog().all()[0].id;
    let key = ObjectKey::new("video", "hot.mp4");
    cluster
        .put(
            &key,
            vec![7u8; 1_000_000],
            "video/mp4",
            weighted_rule(),
            None,
        )
        .unwrap();
    let initial = placement_names(&cluster, &key);

    // Phase 1 — healthy traffic. Observations confirm the advertised
    // latency, so a forced optimization cycle changes nothing.
    let mut hour = 0;
    for _ in 0..2 {
        hour += 1;
        drive_period(&cluster, &key, hour);
    }
    let quiet = cluster.run_optimization(true);

    // Phase 2 — the cheap provider starts limping: +250 ms on every
    // round-trip. One period of reads is enough observed evidence.
    cluster
        .infra()
        .backend(cheap)
        .unwrap()
        .set_stall_us(STALL_US);
    hour += 1;
    drive_period(&cluster, &key, hour);
    let observed_during_stall = cluster.infra().catalog().observed_read_latency(cheap);

    // The next optimization cycles must move the object off the limping
    // provider — bounded at 3 cycles, expected in the first.
    let mut cycles_to_migrate = 0;
    for cycle in 1..=3 {
        cluster.run_optimization(true);
        cycles_to_migrate = cycle;
        if !placement_names(&cluster, &key).contains(&"Cheap".to_string()) {
            break;
        }
        hour += 1;
        drive_period(&cluster, &key, hour);
    }
    let after_stall = placement_names(&cluster, &key);

    // Phase 3 — recovery: the stall clears, traffic keeps flowing to the
    // new placement, and the cheap provider's bad window decays out
    // (nothing reads from it, so two rotations empty its summary).
    cluster.infra().backend(cheap).unwrap().set_stall_us(0);
    for _ in 0..2 {
        hour += 1;
        drive_period(&cluster, &key, hour);
    }
    let forgiven = cluster
        .infra()
        .catalog()
        .observed_read_latency(cheap)
        .is_none();

    // Forgiven ⇒ the advertised model speaks again ⇒ the cheap provider
    // wins the placement back (reads are billed 0.08 vs 0.15 $/GB there,
    // which dwarfs the one-off migration cost).
    let mut cycles_to_return = 0;
    for cycle in 1..=3 {
        cluster.run_optimization(true);
        cycles_to_return = cycle;
        if placement_names(&cluster, &key).contains(&"Cheap".to_string()) {
            break;
        }
        hour += 1;
        drive_period(&cluster, &key, hour);
    }
    let final_placement = placement_names(&cluster, &key);

    ScenarioOutcome {
        initial,
        quiet_cycle_migrations: quiet.migrations_executed,
        observed_during_stall,
        cycles_to_migrate,
        after_stall,
        forgiven,
        cycles_to_return,
        final_placement,
    }
}

#[test]
fn limping_provider_loses_placements_and_regains_them_after_recovery() {
    let outcome = run_limping_scenario();

    // Latency-blind start: everything lands on the cheapest provider.
    assert_eq!(outcome.initial, vec!["Cheap".to_string()]);
    // Healthy observations migrate nothing.
    assert_eq!(outcome.quiet_cycle_migrations, 0);

    // The stall is visible in the published summary: flat 30 ms RTT +
    // 12.5 ms transfer (1 MB at 80 MB/s) + 250 ms stall, exactly.
    assert_eq!(outcome.observed_during_stall, Some(292_500));

    // The very next optimization cycle sheds the limping provider.
    assert_eq!(outcome.cycles_to_migrate, 1, "must migrate in one cycle");
    assert!(
        !outcome.after_stall.contains(&"Cheap".to_string()),
        "placement must leave the limping provider: {:?}",
        outcome.after_stall
    );
    assert!(
        outcome.after_stall.contains(&"Fast".to_string()),
        "the pricier fast provider takes over: {:?}",
        outcome.after_stall
    );

    // Decay forgives, and the first cycle after forgiveness returns the
    // placement to the (cheap, now healthy) provider.
    assert!(outcome.forgiven, "bad window must decay out");
    assert_eq!(outcome.cycles_to_return, 1, "must return in one cycle");
    assert!(
        outcome.final_placement.contains(&"Cheap".to_string()),
        "recovered provider must regain the placement: {:?}",
        outcome.final_placement
    );
}

#[test]
fn limping_scenario_replays_exactly() {
    assert_eq!(
        run_limping_scenario(),
        run_limping_scenario(),
        "the scenario outcome diverged between replays"
    );
}

// ---------------------------------------------------------------------------
// Hedging: deadlines tighten, and the adaptive tail beats the fixed baseline
// ---------------------------------------------------------------------------

/// Two providers with identical flat 30 ms models; `A` is read-ranked first
/// (cheapest bandwidth-out).
fn hedge_infra() -> Arc<Infrastructure> {
    let catalog = ProviderCatalog::shared();
    for (i, (name, bw_out)) in [("A", 0.08), ("B", 0.15)].into_iter().enumerate() {
        catalog.register(
            ProviderDescriptor::public(
                ProviderId::new(i as u32),
                name,
                format!("{name} (hedge scenario)"),
                ProviderSla::from_percent(99.99, 99.9),
                PricingPolicy::from_dollars(0.10, 0.10, bw_out, 0.01),
                ZoneSet::all(),
            )
            .with_latency(LatencyModel::new(30, 0, 0, i as u64)),
        );
    }
    Infrastructure::new(catalog, 1, Duration::HOUR)
}

/// Encodes `payload` for `placement` and uploads it as one stripe.
fn write_stripe(
    infra: &Infrastructure,
    placement: &scalia::core::placement::Placement,
    skey: &str,
    payload: &[u8],
) -> StripeMeta {
    let encoded =
        scalia::erasure::codec::encode_object(payload, placement.erasure_params()).unwrap();
    StripeMeta {
        chunks: chunk_io::upload(infra, placement, skey, &encoded, true).unwrap(),
        m: placement.m,
        checksum: scalia::types::checksum::checksum_hex(payload),
        skey: skey.to_string(),
    }
}

/// Runs the stall-mid-run hedge scenario and returns the read-makespan
/// percentile summary: 20 healthy warm-up reads, then — after the clock
/// advance that publishes them, if `publish` — the ranked provider stalls
/// 300 ms and 30 more reads race it. Without the tick nothing is published
/// and every deadline stays at the modelled 3× fallback: the fixed-deadline
/// baseline.
fn hedged_read_tail(publish: bool) -> scalia::types::latency::LatencySnapshot {
    let infra = hedge_infra();
    let placement = scalia::core::placement::Placement {
        providers: infra.catalog().all(),
        m: 1,
    };
    let payload = vec![3u8; 64 * 1024];
    let size = ByteSize::from_bytes(payload.len() as u64);
    let striping = write_stripe(&infra, &placement, "tail", &payload);

    for _ in 0..20 {
        chunk_io::fetch_chunks(&infra, &striping, size).unwrap();
    }
    if publish {
        infra.advance_clock(SimTime::from_hours(1));
    }
    let a = infra.catalog().all()[0].id;
    infra.backend(a).unwrap().set_stall_us(300_000);
    for _ in 0..30 {
        chunk_io::fetch_chunks(&infra, &striping, size).unwrap();
    }
    infra.io_latency_snapshot(StoreOp::Get)
}

#[test]
fn hedge_deadline_tightens_to_observed_p95_after_warmup() {
    let infra = hedge_infra();
    let placement = scalia::core::placement::Placement {
        providers: infra.catalog().all(),
        m: 1,
    };
    let payload = vec![9u8; 64 * 1024];
    let size = ByteSize::from_bytes(payload.len() as u64);
    let striping = write_stripe(&infra, &placement, "warm", &payload);

    let a = infra.catalog().all()[0].clone();
    let deadline =
        || infra.with_observatory(|o| chunk_io::hedge_deadline_us(o.published(), &a, 64 * 1024));
    let cold = deadline();
    assert_eq!(
        cold,
        3 * 30_000,
        "cold deadline is the 3x modelled fallback"
    );

    // Warm up past the sample floor: flat model, so every read observes
    // exactly 30 ms and the published p95 is exact.
    for _ in 0..20 {
        chunk_io::fetch_chunks(&infra, &striping, size).unwrap();
    }
    // Observations take effect at the next clock advance, not before.
    assert_eq!(deadline(), cold);
    infra.advance_clock(SimTime::from_hours(1));
    let warm = deadline();
    assert_eq!(
        warm, 30_000,
        "warm deadline is the observed p95: 3x tighter"
    );
}

#[test]
fn adaptive_hedging_beats_fixed_deadlines_when_a_ranked_provider_stalls() {
    let adaptive = hedged_read_tail(true);
    let fixed = hedged_read_tail(false);

    assert_eq!(adaptive.count, 50);
    assert_eq!(fixed.count, 50);
    // Fixed baseline: every stalled read waits out the full 3x modelled
    // deadline (90 ms) before parity answers at 120 ms.
    assert_eq!(fixed.max_us, 120_000);
    assert!(fixed.p99_us >= 120_000, "fixed p99 {}", fixed.p99_us);
    // Adaptive: every stalled read of the tick hedges at the published
    // 30 ms deadline (60 ms total); the stalled provider keeps its rank
    // until the next tick publishes what these reads observed.
    assert!(
        adaptive.max_us <= 60_000,
        "adaptive worst case {} must be one tight hedge",
        adaptive.max_us
    );
    assert!(
        adaptive.p99_us < fixed.p99_us,
        "adaptive p99 {} must beat fixed p99 {}",
        adaptive.p99_us,
        fixed.p99_us
    );
}

#[test]
fn hedged_tail_replays_exactly() {
    let run = || (hedged_read_tail(true), hedged_read_tail(false));
    assert_eq!(run(), run(), "the hedged tails diverged between replays");
}

// ---------------------------------------------------------------------------
// One view per tick: a read does not depend on the tick's other reads
// ---------------------------------------------------------------------------

fn io_rule() -> StorageRule {
    StorageRule::new(
        "one-view",
        Reliability::from_percent(99.999),
        Reliability::from_percent(99.99),
        ZoneSet::all(),
        0.5,
    )
}

/// Objects of [`published_cluster`], all of one class.
fn object_keys(count: usize) -> Vec<ObjectKey> {
    (0..count)
        .map(|i| ObjectKey::new("view", format!("obj{i}.png")))
        .collect()
}

/// A one-engine, cache-less cluster in virtual time over the
/// latency-annotated paper catalog (`seed`), holding `objects` objects
/// that every ranked provider has served enough reads of for the first
/// tick to publish a view.
fn published_cluster(seed: u64, objects: usize) -> ScaliaCluster {
    let catalog = ProviderCatalog::shared();
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
    let keys = object_keys(objects);
    for (i, key) in keys.iter().enumerate() {
        let payload = vec![i as u8; 24_000 + 1_000 * i];
        cluster
            .put(key, payload, "image/png", io_rule(), None)
            .unwrap();
    }
    for _ in 0..24usize.div_ceil(objects) {
        for key in &keys {
            cluster.get(key).unwrap();
        }
    }
    cluster.tick(SimTime::from_hours(1));
    cluster
}

/// Chunk GETs served so far, per backend in provider-id order.
fn chunk_gets(cluster: &ScaliaCluster) -> Vec<u64> {
    let mut backends = cluster.infra().backends();
    backends.sort_by_key(|backend| backend.descriptor().id);
    backends
        .iter()
        .map(|backend| backend.latency_snapshot(StoreOp::Get).count)
        .collect()
}

/// The holders of a one-stripe object in the order a hedged read contacts
/// them, ranked exactly as the chunk-I/O layer ranks them.
fn ranked_holders(cluster: &ScaliaCluster, key: &ObjectKey) -> Vec<ProviderId> {
    let meta = cluster.engine(0).read_metadata(key).unwrap();
    let view = meta.striping.stripe_view(0);
    let descriptors: Vec<ProviderDescriptor> = view
        .chunks
        .iter()
        .map(|c| cluster.infra().catalog().get(c.provider).unwrap())
        .collect();
    let chunk_gb = meta.size.as_gb() / view.m.max(1) as f64;
    let chunk_bytes = chunk_bytes_for(meta.size, view.m);
    let mut order = cheapest_read_providers(&descriptors, descriptors.len() as u32, chunk_gb);
    order.sort_by_key(|&i| descriptors[i].read_latency_us(chunk_bytes));
    order.into_iter().map(|i| view.chunks[i].provider).collect()
}

#[test]
fn a_read_sees_the_last_ticks_view_whatever_ran_before_it_in_the_tick() {
    const STALL_US: u64 = 250_000;
    let keys = object_keys(2);
    let (x, y) = (&keys[0], &keys[1]);
    let busy = published_cluster(17, keys.len());
    let fresh = published_cluster(17, keys.len());
    assert_eq!(chunk_gets(&busy), chunk_gets(&fresh), "twins");

    // Within the next tick, one ranked provider of both objects limps.
    let stalled = ranked_holders(&busy, y)[0];
    assert_eq!(ranked_holders(&busy, x)[0], stalled);
    for cluster in [&busy, &fresh] {
        cluster
            .infra()
            .backend(stalled)
            .unwrap()
            .set_stall_us(STALL_US);
    }
    // The busy twin first reads X twenty times: twenty stalled samples,
    // enough to convict the provider — at the next tick.
    for _ in 0..20 {
        busy.get(x).unwrap();
    }

    let read_y = |cluster: &ScaliaCluster| {
        let before = chunk_gets(cluster);
        cluster.infra().take_last_io_latency(StoreOp::Get);
        cluster.get(y).unwrap();
        let gets: Vec<u64> = chunk_gets(cluster)
            .iter()
            .zip(&before)
            .map(|(after, before)| after - before)
            .collect();
        (gets, cluster.infra().take_last_io_latency(StoreOp::Get))
    };
    let (busy_gets, busy_us) = read_y(&busy);
    let (fresh_gets, fresh_us) = read_y(&fresh);
    assert_eq!(busy_gets, fresh_gets, "Y's fetches depend on X's reads");
    assert_eq!(busy_us, fresh_us, "Y's makespan depends on X's reads");
    let stalled_index = stalled.index() as usize;
    assert!(
        busy_gets[stalled_index] == 1 && busy_us.unwrap() < STALL_US,
        "Y still races the stalled provider and hedges past it: {busy_gets:?}, {busy_us:?}"
    );
}

#[test]
fn two_client_threads_read_like_one_within_a_tick() {
    const OBJECTS: usize = 8;
    const ROUNDS: usize = 3;
    let keys = object_keys(OBJECTS);
    for seed in 0..32u64 {
        let serial = published_cluster(seed, OBJECTS);
        for _ in 0..ROUNDS {
            for key in &keys {
                serial.get(key).unwrap();
            }
        }

        let threaded = published_cluster(seed, OBJECTS);
        std::thread::scope(|scope| {
            for half in 0..2 {
                let (cluster, keys) = (&threaded, &keys);
                scope.spawn(move || {
                    for _ in 0..ROUNDS {
                        for key in keys.iter().skip(half).step_by(2) {
                            cluster.get(key).unwrap();
                        }
                    }
                });
            }
        });

        assert_eq!(
            threaded.infra().io_latency_snapshot(StoreOp::Get),
            serial.infra().io_latency_snapshot(StoreOp::Get),
            "seed {seed}: read makespans depend on the client threads"
        );
        assert_eq!(
            chunk_gets(&threaded),
            chunk_gets(&serial),
            "seed {seed}: chunk GETs depend on the client threads"
        );
    }
}
