//! The shared error type of the Scalia workspace.

use crate::ids::ProviderId;
use crate::object::ObjectKey;
use std::fmt;

/// Errors surfaced by the Scalia brokerage system and its substrates.
#[derive(Debug, Clone, PartialEq)]
pub enum ScaliaError {
    /// The requested object (or version) does not exist.
    ObjectNotFound(ObjectKey),
    /// A chunk expected at a provider was missing or corrupted.
    ChunkMissing {
        /// Provider that should have held the chunk.
        provider: ProviderId,
        /// Per-provider storage key of the missing chunk.
        chunk_key: String,
    },
    /// A provider is currently unreachable (transient outage).
    ProviderUnavailable(ProviderId),
    /// A private resource rejected a request because its capacity is full.
    CapacityExceeded(ProviderId),
    /// A private resource rejected a request with an invalid signature.
    AuthenticationFailed(ProviderId),
    /// No provider combination satisfies the object's storage rule.
    NoFeasiblePlacement {
        /// Name of the rule that could not be satisfied.
        rule: String,
    },
    /// Too few chunks were retrievable to reconstruct the object.
    NotEnoughChunks {
        /// Chunks successfully retrieved.
        available: usize,
        /// Chunks required (the threshold `m`).
        required: usize,
    },
    /// Erasure decoding failed (corrupt chunk data or inconsistent lengths).
    DecodeFailed(String),
    /// The metadata store detected concurrent conflicting writes that could
    /// not be resolved automatically.
    Conflict(String),
    /// A datacenter or database node is unreachable.
    DatacenterUnavailable(u32),
    /// The front-end refused the request because its queues are full
    /// (admission-control backpressure; the client should retry later).
    Overloaded {
        /// Operations queued when the request was refused.
        queued: usize,
        /// The configured queue-depth bound that was hit.
        limit: usize,
    },
    /// The front-end abandoned the request because it waited in queue past
    /// its deadline (the client has long since timed out; completing the
    /// work would only burn capacity).
    DeadlineExceeded {
        /// Time the request spent queued before being abandoned, in µs.
        waited_us: u64,
    },
    /// A multipart operation referenced an upload id that does not exist —
    /// never created, already completed, or already aborted.
    NoSuchUpload(String),
    /// A multipart part violated the upload's part-numbering contract
    /// (parts are 1-based and strictly consecutive).
    InvalidPart(String),
    /// The operation was cut short at the named crash point (a chaos fault
    /// plan armed it), as if its process had died there. Its outcome is
    /// unknown until the metastore recovers: a transaction whose `Begin`
    /// record was logged is redone by recovery, one that was not never
    /// happened. A caller therefore runs no cleanup for it — a dead
    /// process would not — and what it left behind is recovery's and the
    /// orphan sweep's to settle.
    Crashed(String),
    /// Any other internal error.
    Internal(String),
}

impl fmt::Display for ScaliaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScaliaError::ObjectNotFound(key) => write!(f, "object not found: {key}"),
            ScaliaError::ChunkMissing { provider, chunk_key } => {
                write!(f, "chunk {chunk_key} missing at {provider}")
            }
            ScaliaError::ProviderUnavailable(p) => write!(f, "provider unavailable: {p}"),
            ScaliaError::CapacityExceeded(p) => write!(f, "capacity exceeded at {p}"),
            ScaliaError::AuthenticationFailed(p) => write!(f, "authentication failed at {p}"),
            ScaliaError::NoFeasiblePlacement { rule } => {
                write!(f, "no provider set satisfies rule '{rule}'")
            }
            ScaliaError::NotEnoughChunks { available, required } => write!(
                f,
                "not enough chunks to reconstruct object: {available} available, {required} required"
            ),
            ScaliaError::DecodeFailed(msg) => write!(f, "erasure decode failed: {msg}"),
            ScaliaError::Conflict(msg) => write!(f, "metadata conflict: {msg}"),
            ScaliaError::DatacenterUnavailable(dc) => write!(f, "datacenter dc_{dc} unavailable"),
            ScaliaError::Overloaded { queued, limit } => {
                write!(f, "service overloaded: {queued} ops queued (limit {limit})")
            }
            ScaliaError::DeadlineExceeded { waited_us } => {
                write!(f, "deadline exceeded after {waited_us}µs in queue")
            }
            ScaliaError::NoSuchUpload(id) => write!(f, "no such multipart upload: {id}"),
            ScaliaError::InvalidPart(msg) => write!(f, "invalid multipart part: {msg}"),
            ScaliaError::Crashed(label) => {
                write!(f, "crashed at {label}: the outcome is unknown until recovery")
            }
            ScaliaError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for ScaliaError {}

/// Result alias used across the workspace.
pub type Result<T> = std::result::Result<T, ScaliaError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = ScaliaError::ObjectNotFound(ObjectKey::new("c", "k"));
        assert_eq!(e.to_string(), "object not found: c/k");
        let e = ScaliaError::NotEnoughChunks {
            available: 2,
            required: 3,
        };
        assert!(e.to_string().contains("2 available"));
        let e = ScaliaError::NoFeasiblePlacement {
            rule: "Rule 1".into(),
        };
        assert!(e.to_string().contains("Rule 1"));
        let e = ScaliaError::ProviderUnavailable(ProviderId::new(3));
        assert!(e.to_string().contains("provider_3"));
        let e = ScaliaError::Overloaded {
            queued: 128,
            limit: 128,
        };
        assert!(e.to_string().contains("128 ops queued"));
        let e = ScaliaError::DeadlineExceeded { waited_us: 2500 };
        assert!(e.to_string().contains("2500µs"));
        let e = ScaliaError::NoSuchUpload("mp-7".into());
        assert!(e.to_string().contains("mp-7"));
        let e = ScaliaError::InvalidPart("part 3 after part 1".into());
        assert!(e.to_string().contains("part 3"));
        let e = ScaliaError::Crashed("txn::logged".into());
        assert!(e.to_string().contains("txn::logged"));
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(ScaliaError::Internal("boom".into()));
        assert!(e.to_string().contains("boom"));
    }
}
