//! # scalia-types
//!
//! Shared vocabulary types for the Scalia multi-cloud storage reproduction.
//!
//! This crate is dependency-light on purpose: every other crate in the
//! workspace (erasure coding, provider substrate, metadata store, placement
//! engine, brokerage engine, simulator) builds on these definitions.
//!
//! The main groups of types are:
//!
//! * [`money`] — fixed-point monetary amounts (micro-dollars) used for all
//!   cost accounting, so that simulation results are exactly reproducible.
//! * [`size`] — byte sizes with GB/MB/KB helpers (decimal, as cloud providers
//!   bill per GB = 10^9 bytes).
//! * [`time`] — simulated time expressed in seconds with sampling-period
//!   helpers (the paper samples access statistics every hour).
//! * [`reliability`] — durability/availability probabilities ("nines").
//! * [`zone`] — geographic zones and zone sets.
//! * [`rules`] — per-object storage rules (durability, availability, zones,
//!   lock-in factor), Fig. 2 of the paper.
//! * [`usage`] — resource usage vectors (storage byte-hours, bandwidth in and
//!   out, operations) used both for billing and for access statistics.
//! * [`stats`] — per-sampling-period access statistics and access histories.
//! * [`latency`] — log-bucketed latency histograms and percentile snapshots
//!   for per-operation tail-latency accounting.
//! * [`object`] — object keys, identifiers, metadata and striping metadata.
//! * [`erasure`] — `(m, n)` erasure-coding parameters.
//! * [`md5`] — a from-scratch MD5 implementation, the fingerprint the paper
//!   specifies for names: metadata row keys, chunk storage keys, object
//!   class ids, the private-resource HMAC and trace/outcome digests. Never
//!   run over object bytes.
//! * [`checksum`] — XXH64, the one content hash: per-stripe and per-object
//!   checksums stored at write time and verified on every read, and the
//!   cache's entry digest.
//! * [`ids`] — provider / engine / datacenter identifiers.
//! * [`error`] — the shared error type.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checksum;
pub mod erasure;
pub mod error;
mod hex;
pub mod ids;
pub mod latency;
pub mod md5;
pub mod money;
pub mod object;
pub mod reliability;
pub mod rules;
pub mod size;
pub mod stats;
pub mod time;
pub mod usage;
pub mod zone;

pub use erasure::ErasureParams;
pub use error::ScaliaError;
pub use ids::{DatacenterId, EngineId, ProviderId};
pub use latency::{LatencyHistogram, LatencySnapshot};
pub use money::Money;
pub use object::{ObjectKey, ObjectMeta, ObjectVersionId, StripeMeta, StripingMeta};
pub use reliability::Reliability;
pub use rules::StorageRule;
pub use size::ByteSize;
pub use stats::{AccessHistory, PeriodStats};
pub use time::{Duration, SimTime};
pub use usage::ResourceUsage;
pub use zone::{Zone, ZoneSet};

/// Convenience prelude re-exporting the most commonly used types.
pub mod prelude {
    pub use crate::erasure::ErasureParams;
    pub use crate::error::ScaliaError;
    pub use crate::ids::{DatacenterId, EngineId, ProviderId};
    pub use crate::latency::{LatencyHistogram, LatencySnapshot};
    pub use crate::money::Money;
    pub use crate::object::{ObjectKey, ObjectMeta, ObjectVersionId, StripeMeta, StripingMeta};
    pub use crate::reliability::Reliability;
    pub use crate::rules::StorageRule;
    pub use crate::size::ByteSize;
    pub use crate::stats::{AccessHistory, PeriodStats};
    pub use crate::time::{Duration, SimTime};
    pub use crate::usage::ResourceUsage;
    pub use crate::zone::{Zone, ZoneSet};
}
