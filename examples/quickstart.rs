//! Quickstart: stand up a two-datacenter Scalia deployment over the paper's
//! five public providers, store a few objects under different rules, read
//! them back, and watch the billing meters.
//!
//! Run with: `cargo run --example quickstart`

use scalia::prelude::*;

fn main() {
    // A Scalia deployment: 2 datacenters × 2 engines, the Fig. 3 catalog.
    let cluster = ScaliaCluster::builder()
        .datacenters(2)
        .engines_per_datacenter(2)
        .catalog(ProviderCatalog::paper_catalog())
        .build();

    // Rule for precious photos: high durability, 4-nines availability, data
    // spread over at least two providers to avoid vendor lock-in.
    let photo_rule = StorageRule::new(
        "photos",
        Reliability::from_percent(99.9999),
        Reliability::from_percent(99.99),
        ZoneSet::all(),
        0.5,
    );
    // Rule for throw-away scratch data: a single provider is fine.
    let scratch_rule = StorageRule::default_rule();

    // Store a photo and a scratch file.
    let photo = ObjectKey::new("photos", "holiday.jpg");
    let meta = cluster
        .put(
            &photo,
            vec![42u8; 512 * 1024],
            "image/jpeg",
            photo_rule,
            None,
        )
        .expect("store photo");
    println!(
        "stored {} ({}) as {} chunks with threshold m={} (any {} rebuild it)",
        photo,
        meta.size,
        meta.striping.n(),
        meta.striping.m(),
        meta.striping.m(),
    );
    for chunk in &meta.striping.stripe_view(0).chunks {
        let name = cluster
            .infra()
            .catalog()
            .get(chunk.provider)
            .map(|p| p.name)
            .unwrap_or_default();
        println!("  chunk {} -> {}", chunk.index, name);
    }

    let scratch = ObjectKey::new("tmp", "scratch.bin");
    cluster
        .put(
            &scratch,
            vec![7u8; 64 * 1024],
            "application/octet-stream",
            scratch_rule,
            Some(2.0),
        )
        .expect("store scratch");

    // Read the photo back (twice: the second read is served by the cache).
    let data = cluster.get(&photo).expect("read photo");
    assert_eq!(data.len(), 512 * 1024);
    cluster.get(&photo).expect("cached read");
    let (hits, misses) = cluster.caches()[0].stats();
    println!("cache: {hits} hits, {misses} misses");

    // Advance simulated time by a month and look at the bill.
    cluster.tick(SimTime::from_hours(720));
    println!("\nper-provider usage after one month:");
    for backend in cluster.infra().backends() {
        let usage = backend.usage();
        println!(
            "  {:<8} stored {:>10}  in {:>10}  out {:>10}  ops {:>4}  cost {}",
            backend.descriptor().name,
            backend.stored_bytes(),
            usage.bw_in,
            usage.bw_out,
            usage.ops,
            backend.accrued_cost(),
        );
    }
    println!("total bill: {}", cluster.total_cost());

    // List and clean up.
    println!("\nobjects in 'photos': {:?}", cluster.list("photos"));
    cluster.delete(&photo).unwrap();
    cluster.delete(&scratch).unwrap();
    println!("after delete: {:?}", cluster.list("photos"));
}
