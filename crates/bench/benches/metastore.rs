//! Benchmarks of the metadata/statistics store substrate: versioned writes,
//! replicated reads, anti-entropy and the class-statistics map-reduce job.

use criterion::{criterion_group, criterion_main, Criterion};
use scalia_metastore::mapreduce::class_lifetime_summaries;
use scalia_metastore::model::Timestamp;
use scalia_metastore::replication::ReplicatedStore;
use scalia_types::ids::DatacenterId;
use serde_json::json;

fn bench_metastore(c: &mut Criterion) {
    let mut group = c.benchmark_group("metastore");
    group.sample_size(20);

    group.bench_function("replicated_put_2dc", |b| {
        let store = ReplicatedStore::with_datacenters(2);
        let mut i = 0u64;
        b.iter(|| {
            store
                .put(
                    &format!("row{}", i % 1000),
                    "meta",
                    json!({"v": i}),
                    Timestamp::new(i, 0),
                )
                .unwrap();
            i += 1;
        })
    });

    group.bench_function("replicated_get_latest", |b| {
        let store = ReplicatedStore::with_datacenters(2);
        for i in 0..1000u64 {
            store
                .put(
                    &format!("row{i}"),
                    "meta",
                    json!({"v": i}),
                    Timestamp::new(i, 0),
                )
                .unwrap();
        }
        let mut i = 0u64;
        b.iter(|| {
            let key = format!("row{}", i % 1000);
            i += 1;
            store.get_latest(DatacenterId::new(0), &key, "meta")
        })
    });

    // Both nodes received every write, so this times the in-sync fast path
    // of anti-entropy: two node-digest reads, whatever the row count. The
    // cost of a round that finds divergence is counted, not timed (see the
    // work-count test in `replication.rs`).
    group.bench_function("anti_entropy_1000_rows", |b| {
        let store = ReplicatedStore::with_datacenters(2);
        for i in 0..1000u64 {
            store
                .put(
                    &format!("row{i}"),
                    "meta",
                    json!({"v": i}),
                    Timestamp::new(i, 0),
                )
                .unwrap();
        }
        b.iter(|| store.anti_entropy())
    });

    group.bench_function("class_lifetime_mapreduce_500_classes", |b| {
        let store = ReplicatedStore::with_datacenters(1);
        for class in 0..500u64 {
            for sample in 0..10u64 {
                store
                    .put(
                        &format!("stats:class:{class}"),
                        &format!("lifetime:{sample}:0"),
                        json!(sample as f64 * 1.5),
                        Timestamp::new(sample, class),
                    )
                    .unwrap();
            }
        }
        let node = store.nodes()[0].clone();
        b.iter(|| class_lifetime_summaries(&node))
    });

    group.finish();
}

criterion_group!(benches, bench_metastore);
criterion_main!(benches);
