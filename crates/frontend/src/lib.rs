//! # scalia-frontend
//!
//! The S3-flavored front-end service of the Scalia reproduction: the thin
//! layer between clients and the engine API that decides **which requests
//! run, when, and in what order** — where production traffic meets the
//! brokerage.
//!
//! The engine ([`scalia_engine::engine::Engine`]) executes any request handed to
//! it; under a flash crowd that policy melts down (unbounded queues, tail
//! latencies dominated by queue wait, one hot tenant starving the rest).
//! The front-end adds the two missing control loops:
//!
//! ## Admission control
//!
//! * **Bounded in-flight ops** — at most [`FrontendConfig::lanes`] requests
//!   execute concurrently; everything else queues. A lane models one
//!   engine-worker slot; capacity is `lanes / service_time`.
//! * **Queue-depth backpressure** — a request arriving when its tenant's
//!   queue holds [`FrontendConfig::max_tenant_queue`] ops (or the service
//!   holds [`FrontendConfig::max_queue_depth`] in total) is **rejected**
//!   with [`scalia_types::error::ScaliaError::Overloaded`] at admission.
//!   Memory stays bounded; the client gets an immediate, explicit signal
//!   instead of a timeout. Nothing is ever silently dropped.
//! * **Per-op deadline rejection** — a queued request whose wait exceeds
//!   [`FrontendConfig::deadline_us`] is abandoned at dispatch with
//!   [`scalia_types::error::ScaliaError::DeadlineExceeded`]: the client
//!   timed out long ago, so completing the work would only burn lane time
//!   that on-deadline requests need. This is what bounds the p999 of
//!   *completed* ops under overload: no op completes after waiting more
//!   than the deadline.
//!
//! ## Per-tenant fairness
//!
//! Each tenant has its own FIFO queue and an integer weight; lanes pick the
//! next op by **weighted deficit round-robin** (`fairness::DrrScheduler`):
//! per round a tenant's deficit is replenished by `weight × quantum` and
//! each served op costs one unit, so a backlogged tenant receives lane time
//! proportional to its weight regardless of how hard it floods the queue —
//! fairness error under saturation is bounded by one round.
//!
//! ## Virtual time
//!
//! The service runs in **virtual microseconds**, like the rest of the
//! simulation: ops are submitted with explicit arrival times, service time
//! is the engine's recorded virtual chunk-I/O makespan
//! ([`scalia_engine::infra::Infrastructure::take_last_io_latency`], or
//! [`FrontendConfig::base_service_us`] for cache hits and metadata-only
//! ops), and the queue/lane bookkeeping advances deterministically. One
//! thread drives the whole service, and every engine call completes before
//! the next op dispatches, so a seeded trace replays bit-identically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fairness;
pub mod multipart;
pub mod service;
pub mod stats;

pub use service::{
    FrontendConfig, FrontendService, OpKind, OpOutcome, OpStatus, S3Op, SubmitOutcome, TenantId,
};
pub use stats::FrontendReport;

/// Commonly used items.
pub mod prelude {

    pub use crate::service::{FrontendConfig, FrontendService, OpKind, OpStatus, TenantId};
}
