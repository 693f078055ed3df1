//! Cross-crate integration tests: the full brokerage stack (placement
//! engine, erasure coding, provider backends, metadata store and caches)
//! driven through the public `ScaliaCluster` API.

use scalia::prelude::*;

fn photo_rule() -> StorageRule {
    StorageRule::new(
        "photos",
        Reliability::from_percent(99.9999),
        Reliability::from_percent(99.99),
        ZoneSet::all(),
        0.5,
    )
}

#[test]
fn objects_survive_the_full_lifecycle_across_datacenters() {
    let cluster = ScaliaCluster::builder()
        .datacenters(2)
        .engines_per_datacenter(2)
        .build();

    // Store a spread of object sizes, including an empty object.
    let sizes = [0usize, 1, 300, 64 * 1024, 1_000_000];
    let keys: Vec<ObjectKey> = sizes
        .iter()
        .map(|s| ObjectKey::new("mixed", format!("obj-{s}")))
        .collect();
    for (key, &size) in keys.iter().zip(sizes.iter()) {
        let payload: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
        let meta = cluster
            .put(key, payload, "application/octet-stream", photo_rule(), None)
            .unwrap();
        assert_eq!(meta.size.bytes(), size as u64);
        assert!(meta.striping.n() >= 2, "lock-in 0.5 demands ≥ 2 providers");
        assert!(meta.striping.m() >= 1);
    }

    // Every engine in every datacenter reads every object back bit-exactly.
    for engine_idx in 0..cluster.engine_count() {
        for (key, &size) in keys.iter().zip(sizes.iter()) {
            let data = cluster.engine(engine_idx).get(key).unwrap();
            assert_eq!(data.len(), size);
            assert!(data.iter().enumerate().all(|(i, &b)| b == (i % 251) as u8));
        }
    }

    // Listing sees them all; deleting removes chunks everywhere.
    assert_eq!(cluster.list("mixed").len(), keys.len());
    for key in &keys {
        cluster.delete(key).unwrap();
    }
    assert!(cluster.list("mixed").is_empty());
    let leftover: u64 = cluster
        .infra()
        .backends()
        .iter()
        .map(|b| b.stored_bytes().bytes())
        .sum();
    assert_eq!(leftover, 0, "no chunk may be left behind after deletes");
}

#[test]
fn placement_respects_every_rule_dimension() {
    let cluster = ScaliaCluster::builder().build();
    let catalog = cluster.infra().catalog();

    // An EU-only rule may only use the two S3 offerings (the only EU
    // providers in the Fig. 3 catalog).
    let eu_rule = StorageRule::new(
        "eu-only",
        Reliability::from_percent(99.999),
        Reliability::from_percent(99.99),
        ZoneSet::of(&[Zone::EU]),
        1.0,
    );
    let key = ObjectKey::new("eu", "doc.pdf");
    let meta = cluster
        .put(&key, vec![1u8; 20_000], "application/pdf", eu_rule, None)
        .unwrap();
    for chunk in &meta.striping.stripe_view(0).chunks {
        let provider = catalog.get(chunk.provider).unwrap();
        assert!(
            provider.zones.contains(Zone::EU),
            "{} is not EU",
            provider.name
        );
    }

    // A strict lock-in rule (0.2) forces all five providers.
    let lockin_rule = StorageRule::rule3().with_availability(Reliability::from_percent(99.9));
    let key5 = ObjectKey::new("spread", "everything.bin");
    let meta5 = cluster
        .put(
            &key5,
            vec![2u8; 50_000],
            "application/octet-stream",
            lockin_rule,
            None,
        )
        .unwrap();
    assert_eq!(meta5.striping.n(), 5);

    // An impossible rule is rejected with a clear error.
    let impossible = StorageRule::new(
        "impossible",
        Reliability::ONE,
        Reliability::ONE,
        ZoneSet::of(&[Zone::APAC]),
        1.0,
    );
    let err = cluster
        .put(
            &ObjectKey::new("x", "y"),
            vec![0u8; 10],
            "text/plain",
            impossible,
            None,
        )
        .unwrap_err();
    assert!(matches!(err, ScaliaError::NoFeasiblePlacement { .. }));
}

#[test]
fn statistics_pipeline_feeds_the_optimizer() {
    let cluster = ScaliaCluster::builder().build();
    let rule = photo_rule();
    let hot = ObjectKey::new("site", "hot.png");
    let cold = ObjectKey::new("site", "cold.png");
    cluster
        .put(&hot, vec![1u8; 100_000], "image/png", rule.clone(), None)
        .unwrap();
    cluster
        .put(&cold, vec![1u8; 100_000], "image/png", rule, None)
        .unwrap();
    cluster.run_optimization(false);

    // Six quiet hours, then the hot object ramps up.
    for hour in 1..=6u64 {
        cluster.get(&hot).unwrap();
        cluster.tick(SimTime::from_hours(hour));
    }
    for hour in 7..=10u64 {
        for _ in 0..(hour - 6) * 40 {
            cluster.get(&hot).unwrap();
        }
        cluster.tick(SimTime::from_hours(hour));
    }

    let hot_history = cluster.engine(0).history(&hot);
    assert!(hot_history.len() >= 9, "hourly statistics must accumulate");
    assert!(hot_history.latest().unwrap().reads >= 100);
    let cold_history = cluster.engine(0).history(&cold);
    assert!(cold_history.is_empty() || cold_history.latest().unwrap().reads == 0);

    let report = cluster.run_optimization(false);
    assert!(report.objects_considered >= 1);
    assert!(
        report.trend_changes >= 1,
        "the ramp on the hot object must be detected"
    );
    // The cold object's placement must not have been touched.
    let cold_meta = cluster.engine(0).read_metadata(&cold).unwrap();
    assert!(cold_meta.striping.n() >= 2);
    // Whatever the optimiser did, both objects stay intact.
    cluster.caches().iter().for_each(|c| c.clear());
    assert_eq!(cluster.get(&hot).unwrap().len(), 100_000);
    assert_eq!(cluster.get(&cold).unwrap().len(), 100_000);
}

#[test]
fn concurrent_clients_through_multiple_engines() {
    use std::sync::Arc;
    let cluster = Arc::new(
        ScaliaCluster::builder()
            .datacenters(2)
            .engines_per_datacenter(2)
            .build(),
    );
    let rule = photo_rule();

    // Several threads write and read disjoint keys concurrently.
    let mut handles = Vec::new();
    for t in 0..4 {
        let cluster = cluster.clone();
        let rule = rule.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..10 {
                let key = ObjectKey::new("concurrent", format!("t{t}-obj{i}"));
                let payload = vec![(t * 10 + i) as u8; 10_000 + i * 100];
                cluster
                    .put(
                        &key,
                        payload.clone(),
                        "application/octet-stream",
                        rule.clone(),
                        None,
                    )
                    .unwrap();
                let read = cluster.get(&key).unwrap();
                assert_eq!(read.len(), payload.len());
                assert_eq!(read[0], payload[0]);
            }
        }));
    }
    for handle in handles {
        handle.join().unwrap();
    }
    assert_eq!(cluster.list("concurrent").len(), 40);
}
