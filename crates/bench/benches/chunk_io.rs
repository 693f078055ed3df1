//! Chunk-I/O fan-out benchmarks under **real** simulated latency.
//!
//! Every provider here carries a flat latency model and its store is put in
//! real-sleep mode, so wall-clock time measures genuine concurrency: a
//! sequential put/get pays the *sum* of the per-provider round-trips, the
//! parallel chunk-I/O layer pays roughly the *max* (given enough workers).
//! The third group pins the hedged read's reason to exist: with one ranked
//! provider stalled, the read must finish in about a hedge deadline plus
//! one parity round-trip — not the stall.
//!
//! Latencies are sleep-bound, not CPU-bound, so the ≥ 2× parallel win is
//! observable even on a single-core runner as long as the pool has ≥ 4
//! workers (the benches pin their own pools via `ThreadPool::install`).
//!
//! Run with `cargo bench -p scalia-bench --bench chunk_io`; CI runs the
//! `--test` smoke mode.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion};
use scalia_core::placement::Placement;
use scalia_engine::chunk_io::{self, HedgeConfig};
use scalia_engine::infra::Infrastructure;
use scalia_erasure::codec::encode_object;
use scalia_providers::backend::ObjectStore;
use scalia_providers::catalog::{s3_high, ProviderCatalog};
use scalia_providers::latency::LatencyModel;
use scalia_types::ids::ProviderId;
use scalia_types::object::StripingMeta;
use scalia_types::size::ByteSize;
use scalia_types::time::Duration;
use std::sync::Arc;

/// Flat per-request latency of every bench provider (no jitter, no
/// throughput term, so the arithmetic below is exact): 6 ms.
const RTT_MS: u64 = 6;

/// Builds an n-provider deployment whose stores really sleep `RTT_MS` per
/// request.
fn infra_with(n: usize) -> Arc<Infrastructure> {
    let catalog = ProviderCatalog::shared();
    for i in 0..n {
        let descriptor = s3_high(ProviderId::new(i as u32))
            .with_latency(LatencyModel::new(RTT_MS, 0, 0, i as u64));
        catalog.register(descriptor);
    }
    let infra = Infrastructure::new(catalog, 1, Duration::HOUR);
    for backend in infra.backends() {
        backend.set_real_sleep(true);
    }
    infra
}

fn placement_of(infra: &Infrastructure, m: u32) -> Placement {
    Placement {
        providers: infra.catalog().all(),
        m,
    }
}

/// The pre-chunk-I/O write path: encode, then upload one chunk at a time.
fn sequential_put(infra: &Infrastructure, placement: &Placement, skey: &str, data: &Bytes) {
    let encoded = encode_object(data, placement.erasure_params()).unwrap();
    for (chunk, provider) in encoded.chunks.iter().zip(placement.providers.iter()) {
        let backend = infra.backend(provider.id).unwrap();
        backend
            .put(&format!("{skey}.{}", chunk.index), chunk.data.clone())
            .unwrap();
    }
}

/// The pre-chunk-I/O read path: fetch the first m chunks one at a time.
fn sequential_get(infra: &Infrastructure, striping: &StripingMeta) {
    let m = striping.m as usize;
    let mut fetched = 0;
    for location in &striping.chunks {
        if fetched >= m {
            break;
        }
        let backend = infra.backend(location.provider).unwrap();
        if backend.get(&striping.chunk_key(location.index)).is_ok() {
            fetched += 1;
        }
    }
    assert_eq!(fetched, m);
}

fn bench_chunk_io(c: &mut Criterion) {
    let payload = Bytes::from(vec![7u8; 64 * 1024]);
    let size = ByteSize::from_bytes(payload.len() as u64);

    for (m, n) in [(3u32, 5usize), (6, 9)] {
        let mut group = c.benchmark_group(&format!("chunk_io/{m}of{n}"));
        group.sample_size(10);

        // --- put: sum of round-trips vs parallel fan-out ----------------
        group.bench_function("put_sequential", |b| {
            let infra = infra_with(n);
            let placement = placement_of(&infra, m);
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                sequential_put(&infra, &placement, &format!("seq-{i}"), &payload);
            })
        });
        group.bench_function("put_parallel_4workers", |b| {
            let infra = infra_with(n);
            let placement = placement_of(&infra, m);
            let pool = rayon::ThreadPool::new(4);
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                pool.install(|| {
                    chunk_io::write_chunks(&infra, &placement, &format!("par-{i}"), &payload)
                        .unwrap()
                });
            })
        });

        // --- get: sum of m round-trips vs hedged parallel race ----------
        group.bench_function("get_sequential", |b| {
            let infra = infra_with(n);
            let placement = placement_of(&infra, m);
            let striping = chunk_io::write_chunks(&infra, &placement, "get-seq", &payload).unwrap();
            b.iter(|| sequential_get(&infra, &striping))
        });
        group.bench_function("get_hedged_4workers", |b| {
            let infra = infra_with(n);
            let placement = placement_of(&infra, m);
            let striping = chunk_io::write_chunks(&infra, &placement, "get-par", &payload).unwrap();
            let pool = rayon::ThreadPool::new(4);
            b.iter(|| {
                pool.install(|| {
                    chunk_io::fetch_chunks(&infra, &striping, size, &HedgeConfig::default())
                        .unwrap()
                })
            })
        });
        group.finish();
    }

    // --- slow-cheap vs fast-pricey: reads before/after adaptation -------
    // Two providers advertising the same 6 ms profile: "SlowCheap" is
    // read-ranked first (cheapest bandwidth-out) but actually stalls
    // 100 ms per request; "FastPricey" answers as advertised. Before
    // adaptation every read contacts the stalled provider and is rescued
    // only by the hedge (3×6 ms deadline + one 6 ms parity round-trip
    // ≈ 24 ms). After a warm-up of observed samples the fan-out ranking
    // demotes the stalled provider entirely and reads ride the fast one at
    // ≈ 6 ms — the wall-clock gap is the adaptation win.
    let mut group = c.benchmark_group("chunk_io/adaptation");
    group.sample_size(10);
    let adaptation_setup = |skey: &str| {
        let catalog = scalia_providers::catalog::ProviderCatalog::shared();
        let mut cheap = s3_high(ProviderId::new(0));
        cheap.name = "SlowCheap".into();
        cheap.pricing =
            scalia_providers::pricing::PricingPolicy::from_dollars(0.09, 0.10, 0.10, 0.0);
        catalog.register(cheap.with_latency(LatencyModel::new(RTT_MS, 0, 0, 0)));
        let mut pricey = s3_high(ProviderId::new(1));
        pricey.name = "FastPricey".into();
        pricey.pricing =
            scalia_providers::pricing::PricingPolicy::from_dollars(0.17, 0.10, 0.20, 0.01);
        catalog.register(pricey.with_latency(LatencyModel::new(RTT_MS, 0, 0, 1)));
        let infra = Infrastructure::new(catalog, 1, Duration::HOUR);
        for backend in infra.backends() {
            backend.set_real_sleep(true);
        }
        let placement = placement_of(&infra, 1);
        let striping = chunk_io::write_chunks(&infra, &placement, skey, &payload).unwrap();
        // Armed after the set-up write: both benches measure reads, and a
        // stalled PUT would blow its write-hedge deadline and fail the write.
        infra
            .backend(ProviderId::new(0))
            .unwrap()
            .set_stall_us(100_000);
        (infra, striping)
    };
    group.bench_function("get_before_adaptation_slow_ranked_first", |b| {
        let (infra, striping) = adaptation_setup("adapt-cold");
        let pool = rayon::ThreadPool::new(16);
        // No observations ever (fixed-deadline baseline): the price
        // ranking contacts the stalled provider first on every read.
        b.iter(|| {
            pool.install(|| {
                chunk_io::fetch_chunks(&infra, &striping, size, &HedgeConfig::fixed_deadline())
                    .unwrap()
            })
        })
    });
    group.bench_function("get_after_adaptation_fast_ranked_first", |b| {
        let (infra, striping) = adaptation_setup("adapt-warm");
        let pool = rayon::ThreadPool::new(16);
        // Warm the observed windows past the sample floor, so ranking and
        // deadlines run on observations.
        pool.install(|| {
            for _ in 0..20 {
                chunk_io::fetch_chunks(&infra, &striping, size, &HedgeConfig::default()).unwrap();
            }
        });
        b.iter(|| {
            pool.install(|| {
                chunk_io::fetch_chunks(&infra, &striping, size, &HedgeConfig::default()).unwrap()
            })
        })
    });
    group.finish();

    // --- hedged read with one stalled ranked provider -------------------
    // The stall (> 5× the hedge deadline) must NOT show up in the read
    // time: the hedge fires after ~3×RTT and a parity chunk answers in one
    // more RTT, so the read finishes in ≈ 4×RTT ≪ stall. (Each iteration
    // leaves the stalled fetch sleeping detached on the pool; 16 workers
    // absorb the steady-state stragglers.)
    let mut group = c.benchmark_group("chunk_io/stall");
    group.sample_size(10);
    group.bench_function("get_hedged_one_provider_stalled_100ms", |b| {
        let infra = infra_with(5);
        let placement = placement_of(&infra, 3);
        let striping = chunk_io::write_chunks(&infra, &placement, "stall", &payload).unwrap();
        // Stall the first chunk holder (a member of the ranked set).
        let stalled = striping.chunks[0].provider;
        infra.backend(stalled).unwrap().set_stall_us(100_000);
        let pool = rayon::ThreadPool::new(16);
        b.iter(|| {
            pool.install(|| {
                chunk_io::fetch_chunks(&infra, &striping, size, &HedgeConfig::default()).unwrap()
            })
        })
    });
    group.finish();
}

criterion_group!(benches, bench_chunk_io);
criterion_main!(benches);
