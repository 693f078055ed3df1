//! # scalia-engine
//!
//! The Scalia brokerage system (§III of the paper): the layer a client
//! actually talks to.
//!
//! A deployment ([`cluster::ScaliaCluster`]) consists of one or more
//! *datacenters*, each hosting a set of stateless *engines*, a shared
//! *cache* and a *database node*. Engines expose an S3-like
//! put/get/delete/list API; on a write they choose the best provider set for
//! the object (via `scalia-core`), erasure-code the data and store one chunk
//! per provider; on a read they reassemble the object from the `m` cheapest
//! reachable providers (or serve it straight from the cache). Access
//! statistics flow through per-engine log agents into the statistics tables,
//! and a periodic optimisation procedure — led by an elected engine —
//! re-places only the objects whose access pattern changed.
//!
//! Modules:
//!
//! * [`infra`] — the shared infrastructure handle: provider catalog and
//!   backends, replicated metadata DB, statistics store, simulation clock,
//!   pending-delete queue.
//! * [`cache`] — the per-datacenter LRU cache with cross-datacenter
//!   invalidation.
//! * [`engine`] — the stateless engine: write / read / delete life-cycles
//!   (§III-D), including MVCC conflict cleanup and provider-failure
//!   handling.
//! * [`chunk_io`] — the unified chunk-I/O layer, concurrent in virtual
//!   time: fanned-out uploads that stop at the first hard failure and roll
//!   back, fanned-out deletes, and hedged first-`m`-of-`n` reads — one
//!   discrete-event loop — that promote parity providers past errors and
//!   stragglers.
//! * [`placement_cache`] — deployment-wide memo of placement decisions
//!   (keyed by rule + usage class + catalog version) so the write path,
//!   the optimiser and repair stop recomputing identical searches.
//! * [`optimizer`] — leader election, sharding of the recently-accessed
//!   object set across engines, trend detection and migration execution
//!   (§III-A3).
//! * [`streaming`] — the staged stripe pipeline: streaming writes that
//!   stage each stripe in the buffer its data chunks are cut from, hashing
//!   every byte as it is copied there, and land stripe `k − 1` before
//!   encoding stripe `k`, the
//!   multipart/append API (`begin_put` / `put_part` / `complete_put`) with
//!   a single-transaction commit of the assembled stripe map, and range
//!   reads that fetch only the covering stripes.
//! * [`repair`] — active repair of chunks lost to a provider outage
//!   (§IV-E).
//! * [`cluster`] — the multi-datacenter deployment facade and its builder.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod chunk_io;
pub mod cluster;
pub mod engine;
pub mod gc;
pub mod infra;
pub mod optimizer;
pub mod placement_cache;
pub mod repair;
pub mod streaming;

pub use cache::Cache;
pub use cluster::{ScaliaCluster, ScaliaClusterBuilder};
pub use engine::Engine;
pub use infra::Infrastructure;
pub use optimizer::{OptimizationReport, PeriodicOptimizer};
pub use placement_cache::{PlacementCache, PlacementCacheStats};
pub use streaming::MultipartUpload;

/// Commonly used items.
pub mod prelude {
    pub use crate::cache::Cache;
    pub use crate::cluster::{ScaliaCluster, ScaliaClusterBuilder};
    pub use crate::engine::Engine;
    pub use crate::infra::Infrastructure;
    pub use crate::optimizer::{OptimizationReport, PeriodicOptimizer};
    pub use crate::streaming::MultipartUpload;
}
