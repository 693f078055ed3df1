//! Benchmarks of Algorithm 1 as the number of providers grows (the
//! scalability argument of §III-A2).
//!
//! Two code paths are measured:
//!
//! * `bnb` — the production branch-and-bound search (allocation-free,
//!   Poisson-binomial constraint DP, cost-bound pruning; exact);
//! * `seed_baseline` — the seed's materialize-every-subset search with
//!   combination-enumerating constraint math
//!   (`scalia_core::reference::exhaustive_search_combinatorial`), the
//!   before/after reference. Its constraint math is exponential *inside*
//!   the exponential subset sweep, so it is only run up to 16 providers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use scalia_core::cost::PredictedUsage;
use scalia_core::placement::PlacementEngine;
use scalia_core::reference;
use scalia_providers::catalog::{azure, google, rackspace, s3_high, s3_low};
use scalia_providers::descriptor::ProviderDescriptor;
use scalia_providers::pricing::PricingPolicy;
use scalia_providers::sla::ProviderSla;
use scalia_types::ids::ProviderId;
use scalia_types::reliability::Reliability;
use scalia_types::rules::StorageRule;
use scalia_types::size::ByteSize;
use scalia_types::zone::{Zone, ZoneSet};

fn catalog_of(n: usize) -> Vec<ProviderDescriptor> {
    let mut v = vec![
        s3_high(ProviderId::new(0)),
        s3_low(ProviderId::new(1)),
        rackspace(ProviderId::new(2)),
        azure(ProviderId::new(3)),
        google(ProviderId::new(4)),
    ];
    for i in 5..n as u32 {
        v.push(ProviderDescriptor::public(
            ProviderId::new(i),
            format!("P{i}"),
            "synthetic provider",
            ProviderSla::from_percent(99.9999, 99.9),
            PricingPolicy::from_dollars(
                0.09 + 0.005 * i as f64,
                0.10,
                0.14 + 0.002 * i as f64,
                0.01,
            ),
            ZoneSet::of(&[Zone::US, Zone::EU]),
        ));
    }
    v.truncate(n);
    v
}

fn rule() -> StorageRule {
    StorageRule::new(
        "bench",
        Reliability::from_percent(99.999),
        Reliability::from_percent(99.99),
        ZoneSet::all(),
        0.5,
    )
}

fn usage() -> PredictedUsage {
    PredictedUsage {
        size: ByteSize::from_mb(1),
        bw_in: ByteSize::from_mb(1),
        bw_out: ByteSize::from_mb(500),
        reads: 500,
        writes: 1,
        duration_hours: 24.0,
    }
}

fn bench_placement(c: &mut Criterion) {
    let mut group = c.benchmark_group("placement");
    group.sample_size(20);
    for n in [5usize, 8, 10, 12, 16, 18, 20] {
        let catalog = catalog_of(n);
        let exhaustive = PlacementEngine::new();
        // Sanity: the production search agrees with the baseline wherever
        // the baseline is tractable, so the numbers compare like for like.
        if n <= 12 {
            let fast = exhaustive
                .best_placement(&rule(), &usage(), &catalog)
                .unwrap();
            let slow =
                reference::exhaustive_search_combinatorial(&rule(), &usage(), &catalog).unwrap();
            assert_eq!(fast.expected_cost, slow.expected_cost);
            assert_eq!(fast.placement.provider_ids(), slow.placement.provider_ids());
        }
        group.bench_with_input(BenchmarkId::new("bnb", n), &n, |b, _| {
            b.iter(|| {
                exhaustive
                    .best_placement(&rule(), &usage(), &catalog)
                    .unwrap()
            })
        });
        // The seed baseline's cost explodes as ~3^n; 16 providers already
        // takes seconds per search — skip beyond that.
        if n <= 16 {
            group.bench_with_input(BenchmarkId::new("seed_baseline", n), &n, |b, _| {
                b.iter(|| {
                    reference::exhaustive_search_combinatorial(&rule(), &usage(), &catalog).unwrap()
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_placement);
criterion_main!(benches);
