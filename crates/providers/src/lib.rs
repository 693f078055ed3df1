//! # scalia-providers
//!
//! The cloud-storage-provider substrate of the Scalia reproduction.
//!
//! The paper evaluates Scalia over five public providers (Amazon S3 high and
//! low durability, Rackspace CloudFiles, Microsoft Azure, Google Storage —
//! its Fig. 3) plus, in §IV-D, a hypothetical cheaper provider "CheapStor",
//! and supports registering corporate *private storage resources* (§III-E).
//!
//! Because the evaluation is entirely cost-driven (and the paper itself uses
//! a simulator), this crate provides:
//!
//! * [`pricing`] — per-GB / per-operation pricing policies.
//! * [`sla`] — durability/availability SLAs.
//! * [`descriptor`] — the full description of a provider (pricing, SLA,
//!   zones, chunk-size constraints, capacity for private resources).
//! * [`catalog`] — the provider catalog, including the exact Fig. 3 catalog.
//! * [`backend`] — an in-memory, metered, failure-injectable object store
//!   per provider implementing an S3-like `put/get/delete/list` interface.
//! * [`billing`] — billing meters translating metered resource usage into
//!   money using a provider's pricing policy.
//! * [`private`] — private storage resources: capacity-limited backends
//!   fronted by an HMAC-signed request check with replay protection,
//!   mirroring the paper's standalone web-service design.
//! * [`failure`] — outage schedules used by the evaluation's transient
//!   failure scenario (§IV-E).
//! * [`latency`] — deterministic per-provider response-time models (seeded
//!   base RTT + throughput + jitter) driving the simulated data path.
//! * [`observatory`] — per-provider observed read/write latency windows and
//!   the view published from them once per tick.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod billing;
pub mod catalog;
pub mod descriptor;
pub mod failure;
pub mod latency;
pub mod observatory;
pub mod pricing;
pub mod private;
pub mod sla;

pub use backend::SimulatedStore;
pub use billing::BillingMeter;
pub use catalog::ProviderCatalog;
pub use descriptor::{ProviderDescriptor, ProviderKind};
pub use failure::{FaultPlan, OutageSchedule};
pub use latency::LatencyModel;
pub use observatory::{LatencyObservatory, LatencyView};
pub use pricing::PricingPolicy;
pub use private::PrivateResource;
pub use sla::ProviderSla;

/// Commonly used items.
pub mod prelude {
    pub use crate::backend::SimulatedStore;
    pub use crate::billing::BillingMeter;
    pub use crate::catalog::ProviderCatalog;
    pub use crate::descriptor::{ProviderDescriptor, ProviderKind};
    pub use crate::failure::OutageSchedule;
    pub use crate::latency::LatencyModel;
    pub use crate::pricing::PricingPolicy;
    pub use crate::private::PrivateResource;
    pub use crate::sla::ProviderSla;
}
