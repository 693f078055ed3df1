//! The Slashdot effect, end to end through the brokerage engine: a 1 MB
//! object sits quietly for two days, suddenly becomes popular, and the
//! periodic optimiser migrates it to a read-optimised placement, then back
//! to a storage-optimised one once the flash crowd is over.
//!
//! Run with: `cargo run --release --example slashdot`

use scalia::prelude::*;

fn main() {
    let cluster = ScaliaCluster::builder()
        .datacenters(2)
        .engines_per_datacenter(2)
        .build();

    let rule = StorageRule::new(
        "slashdot",
        Reliability::from_percent(99.999),
        Reliability::from_percent(99.99),
        ZoneSet::all(),
        1.0,
    );
    let key = ObjectKey::new("blog", "front-page-image.png");
    cluster
        .put(&key, vec![1u8; 1_000_000], "image/png", rule, None)
        .unwrap();

    let label_of = |cluster: &ScaliaCluster| {
        let meta = cluster.engine(0).read_metadata(&key).unwrap();
        let names: Vec<String> = meta
            .striping
            .stripe_view(0)
            .providers()
            .iter()
            .filter_map(|id| cluster.infra().catalog().get(*id).map(|p| p.name))
            .collect();
        format!("[{}; m:{}]", names.join(", "), meta.striping.m())
    };
    println!("hour   0: initial placement {}", label_of(&cluster));

    // Hour-by-hour simulation of the access pattern of §IV-B: flat, then a
    // spike to 150 reads/hour, then a slow decay of 2 requests/hour.
    let mut hour = 0u64;
    let mut phase = |cluster: &ScaliaCluster, hours: u64, reads_per_hour: &dyn Fn(u64) -> u64| {
        for _ in 0..hours {
            let reads = reads_per_hour(hour);
            for _ in 0..reads {
                cluster.get(&key).unwrap();
            }
            hour += 1;
            cluster.tick(SimTime::from_hours(hour));
            // The optimisation procedure runs frequently (the paper suggests
            // every 5 minutes); once per simulated hour is plenty here.
            cluster.run_optimization(false);
        }
    };

    phase(&cluster, 48, &|_| 0);
    println!("hour  48: before the spike    {}", label_of(&cluster));
    phase(&cluster, 3, &|h| (h - 47) * 50);
    println!("hour  51: spike at 150 req/h  {}", label_of(&cluster));
    phase(&cluster, 24, &|h| 150u64.saturating_sub(2 * (h - 51)));
    println!("hour  75: decaying traffic    {}", label_of(&cluster));
    phase(&cluster, 60, &|h| 150u64.saturating_sub(2 * (h - 51)));
    println!("hour 135: traffic gone        {}", label_of(&cluster));

    println!(
        "\ntotal bill after {} hours: {}",
        hour,
        cluster.total_cost()
    );
    let report = cluster.run_optimization(false);
    println!(
        "last optimisation procedure: {} object(s) considered, {} migrations",
        report.objects_considered, report.migrations_executed
    );
}
