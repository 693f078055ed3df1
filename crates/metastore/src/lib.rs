//! # scalia-metastore
//!
//! The metadata / statistics database substrate of the Scalia reproduction.
//!
//! The paper's database layer (§III-C) is a multi-master NoSQL store
//! (Cassandra in the prototype) holding (a) object metadata — striping
//! information, policies, provider settings — and (b) per-object access
//! statistics fed by a distributed log-collection pipeline, aggregated with
//! map-reduce jobs. Writes may happen concurrently in several datacenters;
//! conflicts are detected and resolved with multi-version concurrency
//! control (MVCC), keeping the freshest version.
//!
//! This crate rebuilds that substrate in process:
//!
//! * [`model`] — the wide-row data model: rows of columns of timestamped
//!   versioned cells.
//! * [`store`] — a single database node with put/get/scan and an
//!   incrementally maintained content digest.
//! * [`replication`] — a multi-datacenter replicated store with partition
//!   tolerance, hinted handoff and digest-driven anti-entropy.
//! * [`stats`] — the statistics tables: per-object access history,
//!   per-class resource usage and lifetime distributions.
//! * [`logagg`] — the log agent / log aggregator pipeline that moves access
//!   logs from engines into the statistics tables.
//! * [`journal`] — the write-ahead journal and checkpoint format that make
//!   replicated-store mutations (and the engine's multi-op metadata
//!   commits) atomic across a crash.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod journal;
pub mod logagg;
pub mod model;
pub mod replication;
pub mod stats;
pub mod store;

pub use model::Timestamp;

pub use store::NoSqlNode;
