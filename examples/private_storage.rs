//! Mixing private storage resources with public clouds (§III-E): a corporate
//! NAS with spare capacity is registered as a provider with near-zero
//! prices; the placement engine uses it up before spilling to public clouds,
//! and the authenticated web-service front end rejects forged requests.
//!
//! Run with: `cargo run --example private_storage`

use bytes::Bytes;
use scalia::prelude::*;
use scalia::providers::private::{PrivateResource, SignedRequest};

fn main() {
    // --- 1. The standalone authenticated web service of a private NAS -----
    let nas_descriptor = scalia::providers::descriptor::ProviderDescriptor::private(
        scalia::types::ids::ProviderId::new(0),
        "corp-nas",
        ProviderSla::from_percent(99.99, 99.5),
        PricingPolicy::from_dollars(0.005, 0.0, 0.0, 0.0),
        ZoneSet::of(&[scalia::types::zone::Zone::EU]),
        ByteSize::from_mb(64),
    );
    let nas = PrivateResource::new(
        nas_descriptor.clone(),
        b"corp-private-token".to_vec(),
        Duration::from_hours(1),
    );

    let put = SignedRequest::sign(
        b"corp-private-token",
        "PUT",
        "finance/q2.xlsx",
        SimTime::ZERO,
    );
    nas.put(&put, Bytes::from(vec![1u8; 100_000])).unwrap();
    let get = SignedRequest::sign(
        b"corp-private-token",
        "GET",
        "finance/q2.xlsx",
        SimTime::ZERO,
    );
    println!("NAS read back {} bytes", nas.get(&get).unwrap().len());

    let forged = SignedRequest::sign(b"attacker-token", "GET", "finance/q2.xlsx", SimTime::ZERO);
    println!("forged request rejected: {}", nas.get(&forged).is_err());

    // --- 2. The same NAS registered in a Scalia deployment ----------------
    let catalog = ProviderCatalog::paper_catalog();
    catalog.register(nas_descriptor);
    let cluster = ScaliaCluster::builder().catalog(catalog).build();

    let rule = StorageRule::new(
        "archives",
        Reliability::from_percent(99.99),
        Reliability::from_percent(99.9),
        ZoneSet::all(),
        0.5,
    );
    // Cheap private capacity attracts the placement engine until it fills up.
    for i in 0..6 {
        let key = ObjectKey::new("archives", format!("box-{i}.tar"));
        let meta = cluster
            .put(
                &key,
                vec![3u8; 8_000_000],
                "application/x-tar",
                rule.clone(),
                None,
            )
            .unwrap();
        let names: Vec<String> = meta
            .striping
            .provider_set()
            .iter()
            .filter_map(|id| cluster.infra().catalog().get(*id).map(|p| p.name))
            .collect();
        println!(
            "box-{i}: placed on [{}] m={}",
            names.join(", "),
            meta.striping.m()
        );
    }

    cluster.tick(SimTime::from_hours(720));
    println!("\nbill after a month:");
    for backend in cluster.infra().backends() {
        if backend.stored_bytes().bytes() > 0 {
            println!(
                "  {:<9} {:>12} stored, cost {}",
                backend.descriptor().name,
                backend.stored_bytes(),
                backend.accrued_cost()
            );
        }
    }
    println!("total: {}", cluster.total_cost());
}
