//! Differential properties of the pool: `par_iter().map(..).reduce(..)`
//! through the real pool must equal the sequential result bit-for-bit —
//! across pool sizes 1, 2 and 8, and for folds that *look* order-sensitive
//! (Money sums with mixed signs, report merges, string concatenation) but
//! are associative.
//!
//! The pool's contract (see the shim's `iter` module) is: chunks fold
//! left-to-right from the identity, chunk results fold left-to-right in
//! chunk order. Associativity of the operation is therefore sufficient for
//! sequential equality — these tests pin that contract so a future scheduler
//! change that reorders *combination* (not just execution) gets caught.
//!
//! And who may use the pool: only chunk I/O against a backend that really
//! waits. The optimizer's cycle and the erasure codec are CPU work and run
//! on their caller, which `ThreadPool::tasks_pushed` pins below.

use rayon::prelude::*;
use rayon::ThreadPool;
use scalia::engine::optimizer::OptimizationReport;
use scalia::erasure::codec::{decode_object_into, encode_object};
use scalia::prelude::*;
use scalia::types::ids::EngineId;
use scalia::types::money::Money;
use scalia::types::ErasureParams;

const POOL_SIZES: [usize; 3] = [1, 2, 8];

/// Deterministic value stream (splitmix64).
fn stream(seed: u64, len: usize) -> Vec<u64> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        })
        .collect()
}

#[test]
fn money_sum_matches_sequential_across_pool_sizes() {
    // Mixed-sign Money values: saturating/rounding pitfalls would make a
    // reassociated fold drift if the implementation combined out of order
    // with a non-associative op. Plain i64-nanos addition is associative,
    // so every pool size must agree exactly with the sequential fold.
    let monies: Vec<Money> = stream(7, 10_001)
        .iter()
        .map(|&v| Money::from_nanos((v % 2_000_003) as i64 - 1_000_001))
        .collect();
    let expected: Money = monies.iter().fold(Money::ZERO, |acc, &m| acc + m);

    for workers in POOL_SIZES {
        let pool = ThreadPool::new(workers);
        let got = pool.install(|| {
            monies
                .clone()
                .into_par_iter()
                .reduce(|| Money::ZERO, |a, b| a + b)
        });
        assert_eq!(got, expected, "workers={workers}");
    }
}

#[test]
fn mapped_money_pipeline_matches_sequential() {
    // The shape the cost accounting uses: map a raw usage number to a price,
    // then fold. Exercises map + reduce through the same pool.
    let raw = stream(99, 4_096);
    let expected: Money = raw
        .iter()
        .map(|&v| Money::from_micros((v % 997) as i64).scale(1.5))
        .fold(Money::ZERO, |acc, m| acc + m);
    for workers in POOL_SIZES {
        let pool = ThreadPool::new(workers);
        let got = pool.install(|| {
            raw.clone()
                .into_par_iter()
                .map(|v| Money::from_micros((v % 997) as i64).scale(1.5))
                .reduce(|| Money::ZERO, |a, b| a + b)
        });
        assert_eq!(got, expected, "workers={workers}");
    }
}

#[test]
fn report_merge_matches_sequential_across_pool_sizes() {
    // The optimiser's report merge, at a scale where every pool size really
    // splits into multiple chunks.
    let partials: Vec<OptimizationReport> = stream(2024, 513)
        .iter()
        .map(|&v| OptimizationReport {
            leader: EngineId::new(3),
            objects_considered: (v % 100) as usize,
            trend_changes: (v % 7) as usize,
            placements_recomputed: (v % 5) as usize,
            migrations_executed: (v % 3) as usize,
            searches_executed: (v % 4) as usize,
            objects_covered: (v % 11) as usize,
            migrations_deferred: (v % 2) as usize,
            bytes_migrated: v % 4096,
        })
        .collect();
    let expected = partials
        .iter()
        .fold(OptimizationReport::default(), |acc, p| acc.merged_with(*p));

    for workers in POOL_SIZES {
        let pool = ThreadPool::new(workers);
        let got = pool.install(|| {
            partials
                .clone()
                .into_par_iter()
                .reduce(OptimizationReport::default, OptimizationReport::merged_with)
        });
        assert_eq!(got, expected, "workers={workers}");
    }
}

#[test]
fn genuinely_noncommutative_fold_preserves_order() {
    // String concatenation is associative but NOT commutative: if the pool
    // ever combined chunk results out of order, this would scramble.
    let words: Vec<String> = (0..1_000).map(|i| format!("w{i};")).collect();
    let expected: String = words.concat();
    for workers in POOL_SIZES {
        let pool = ThreadPool::new(workers);
        let got = pool.install(|| {
            words
                .clone()
                .into_par_iter()
                .reduce(String::new, |a, b| a + &b)
        });
        assert_eq!(got, expected, "workers={workers}");
    }
}

#[test]
fn flat_map_collect_preserves_order_across_pool_sizes() {
    // A map-reduce shape: flat_map_iter emitting a variable number of
    // pairs per row, collected in row order.
    let rows: Vec<(u64, usize)> = stream(5, 300)
        .iter()
        .map(|&v| (v, (v % 4) as usize))
        .collect();
    let expected: Vec<u64> = rows
        .iter()
        .flat_map(|&(v, reps)| std::iter::repeat_n(v, reps))
        .collect();
    for workers in POOL_SIZES {
        let pool = ThreadPool::new(workers);
        let got: Vec<u64> = pool.install(|| {
            rows.par_iter()
                .flat_map_iter(|&(v, reps)| std::iter::repeat_n(v, reps))
                .collect()
        });
        assert_eq!(got, expected, "workers={workers}");
    }
}

#[test]
fn min_like_reduce_matches_sequential() {
    // Money::min-style folds back the placement search's cost comparisons.
    let monies: Vec<Money> = stream(31, 2_000)
        .iter()
        .map(|&v| Money::from_nanos((v % 1_000_000) as i64))
        .collect();
    let expected = monies.iter().fold(Money::MAX, |acc, &m| acc.min(m));
    for workers in POOL_SIZES {
        let pool = ThreadPool::new(workers);
        let got = pool.install(|| {
            monies
                .clone()
                .into_par_iter()
                .reduce(|| Money::MAX, |a, b| a.min(b))
        });
        assert_eq!(got, expected, "workers={workers}");
    }
}

#[test]
fn a_forced_optimization_with_migrations_never_reaches_the_pool() {
    // Six objects in three classes, then a far cheaper provider: a forced
    // cycle sweeps three classes and migrates several objects. Four idle
    // workers are on offer and none of that work is handed to them.
    let cluster = ScaliaCluster::builder().build();
    let rule = StorageRule::new(
        "verdict",
        Reliability::from_percent(99.999),
        Reliability::from_percent(99.99),
        ZoneSet::all(),
        1.0,
    )
    .with_lockin(0.5);
    let mimes = ["application/x-tar", "image/png", "application/pdf"];
    let keys: Vec<ObjectKey> = (0..6)
        .map(|i| ObjectKey::new("verdict", format!("obj{i}")))
        .collect();
    for (i, key) in keys.iter().enumerate() {
        cluster
            .put(
                key,
                vec![i as u8; 1_000_000],
                mimes[i % 3],
                rule.clone(),
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
    cluster
        .infra()
        .register_provider(ProviderDescriptor::public(
            ProviderId::new(0),
            "UltraCheap",
            "practically free storage",
            ProviderSla::from_percent(99.9999, 99.9),
            PricingPolicy::from_dollars(0.001, 0.0, 0.01, 0.0),
            ZoneSet::all(),
        ));

    let pool = ThreadPool::new(4);
    let report = pool.install(|| cluster.run_optimization(true));
    assert_eq!(report.searches_executed, 3, "three classes, three searches");
    assert!(
        report.migrations_executed >= 2,
        "the cycle must migrate several objects: {report:?}"
    );
    assert_eq!(
        pool.tasks_pushed(),
        0,
        "the optimizer's class and migration sweeps run on their caller"
    );
}

#[test]
fn the_erasure_codec_never_reaches_the_pool() {
    // A 300 000-byte stripe, 3-of-6: three parity rows to encode, and a
    // parity-only decode that rebuilds all three data rows.
    let data: Vec<u8> = (0..300_000usize).map(|i| (i * 31 + 7) as u8).collect();
    let params = ErasureParams::new(3, 6).unwrap();
    let pool = ThreadPool::new(4);
    pool.install(|| {
        let encoded = encode_object(&data, params).unwrap();
        let mut out = vec![0u8; data.len()];
        decode_object_into(&encoded.chunks[3..], params, &mut out).unwrap();
        assert!(
            out == data,
            "the parity-only decode must rebuild the stripe"
        );
    });
    assert_eq!(
        pool.tasks_pushed(),
        0,
        "encode and decode run on their caller"
    );
}
