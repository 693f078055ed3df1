//! # Scalia
//!
//! A from-scratch Rust reproduction of **Scalia: An Adaptive Scheme for
//! Efficient Multi-Cloud Storage** (Papaioannou, Bonvin, Aberer — SC'12).
//!
//! Scalia is a multi-cloud storage brokerage system: objects are erasure-coded
//! into chunks spread across several cloud storage providers (and private
//! resources), and the set of providers holding each object is *continuously
//! re-optimised* based on the object's observed access pattern, subject to
//! per-object rules on durability, availability, geographic zones and vendor
//! lock-in.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`types`] — shared vocabulary (money, sizes, time, rules, statistics).
//! * [`erasure`] — Reed–Solomon `(m, n)` erasure coding over GF(256).
//! * [`providers`] — provider catalog, pricing/SLA models, simulated object
//!   stores, private storage resources.
//! * [`metastore`] — NoSQL-style metadata and statistics store with MVCC and
//!   multi-datacenter replication.
//! * [`core`] — the adaptive placement engine (Algorithms 1 and 2, cost
//!   model, trend detection, object classification, lifetime estimation,
//!   decision-period adaptation, migration planning).
//! * [`engine`] — the brokerage engine (S3-like API, caching layer, periodic
//!   optimisation, active repair, multi-datacenter clusters).
//! * [`frontend`] — the S3-flavored front-end service: admission control
//!   (bounded in-flight ops, queue-depth backpressure, deadline rejection)
//!   and weighted per-tenant fairness over the engine API.
//! * [`sim`] — the evaluation simulator (workloads, static baselines, ideal
//!   oracle, experiment runners for every figure in the paper, and the
//!   deterministic multi-tenant traffic harness).
//!
//! ## Quickstart
//!
//! ```
//! use scalia::prelude::*;
//!
//! // A single-datacenter Scalia deployment over the paper's five providers.
//! let mut cluster = ScaliaCluster::builder()
//!     .datacenters(1)
//!     .engines_per_datacenter(2)
//!     .catalog(ProviderCatalog::paper_catalog())
//!     .build();
//!
//! // Store an object under a storage rule and read it back.
//! let rule = StorageRule::default_rule().with_lockin(0.5);
//! let key = ObjectKey::new("photos", "cat.jpg");
//! cluster
//!     .put(&key, vec![42u8; 64 * 1024], "image/jpeg", rule, None)
//!     .unwrap();
//! let data = cluster.get(&key).unwrap();
//! assert_eq!(data.len(), 64 * 1024);
//! ```

pub use scalia_core as core;
pub use scalia_engine as engine;
pub use scalia_erasure as erasure;
pub use scalia_frontend as frontend;
pub use scalia_metastore as metastore;
pub use scalia_providers as providers;
pub use scalia_sim as sim;
pub use scalia_types as types;

/// Commonly used items from every crate in the workspace.
pub mod prelude {
    pub use scalia_core::prelude::*;
    pub use scalia_engine::prelude::*;
    pub use scalia_frontend::prelude::*;
    pub use scalia_providers::prelude::*;
    pub use scalia_sim::prelude::*;
    pub use scalia_types::prelude::*;
}
