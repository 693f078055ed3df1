//! # scalia-core
//!
//! The adaptive, cost-aware multi-cloud placement engine — the primary
//! contribution of *Scalia: An Adaptive Scheme for Efficient Multi-Cloud
//! Storage* (SC'12).
//!
//! Given a set of storage providers (public clouds and private resources), a
//! per-object storage rule (durability, availability, zones, lock-in) and
//! the object's recent access history, the engine answers: **at which
//! providers should the object's erasure-coded chunks live, and with which
//! threshold `m`, so that the expected cost over the next decision period is
//! minimal while every constraint is met?**
//!
//! Modules:
//!
//! * [`combinations`] — lazy bitmask subset enumeration (plus the
//!   materializing helpers kept for the reference implementations).
//! * [`pbinom`] — Poisson-binomial survival distributions: the `O(n²)`
//!   dynamic program behind the durability and availability constraints.
//! * [`durability`] — Algorithm 2 (`getThreshold`): the largest `m`
//!   satisfying the durability constraint for a provider set.
//! * [`availability`] — `getAvailability`: probability the object can be
//!   reassembled given the providers' availability SLAs.
//! * [`reference`](mod@reference) — the seed's combination-enumerating implementations,
//!   kept for differential testing and benchmarking of the above.
//! * [`cost`] — `computePrice`: the expected cost of a placement over the
//!   next decision period, extrapolated from the access history, plus
//!   migration cost estimation.
//! * [`placement`] — Algorithm 1: the exhaustive search over provider
//!   combinations, and the [`placement::PlacementEngine`] front-end.
//! * [`classify`] — object classification `C(obj) = MD5(mime | size-class)`.
//! * [`lifetime`] — per-class lifetime distributions and time-left-to-live
//!   estimation (Fig. 5).
//! * [`decision`] — the placement decision shared by the simulator and the
//!   engine: the adaptive decision-period controller (dichotomic
//!   `D/2 / D / 2D` coupling with the `T`-doubling schedule), the first
//!   placement's usage, the period bound, the search step and the
//!   migration gate.
//! * [`trend`] — the `detect()` trend-change detector (simple-moving-average
//!   momentum with a relative threshold).
//! * [`migration`] — migration planning and the cost/benefit gate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod availability;
pub mod classify;
pub mod combinations;
pub mod cost;
pub mod decision;
pub mod durability;
pub mod lifetime;
pub mod migration;
pub mod pbinom;
pub mod placement;
pub mod reference;
pub mod trend;

/// Commonly used items.
pub mod prelude {
    pub use crate::classify::ObjectClass;

    pub use crate::lifetime::LifetimeDistribution;
    pub use crate::migration::MigrationBudget;
    pub use crate::placement::{Placement, PlacementEngine};
    pub use crate::trend::TrendDetector;
}
