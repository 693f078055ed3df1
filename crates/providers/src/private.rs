//! Private storage resources.
//!
//! §III-E of the paper: corporate storage resources (workstations, NAS, SAN,
//! dedicated servers) are registered to Scalia with their capacity and
//! prices, and are accessed through a lightweight standalone web service
//! exposing an authenticated S3-compatible interface. Requests are signed
//! with an HMAC of the request parameters using a private token, and carry a
//! timestamp to prevent replay attacks.
//!
//! [`PrivateResource`] models that web service: it wraps a capacity-limited
//! [`SimulatedStore`] and checks the request signature and timestamp before
//! every operation.

use crate::backend::SimulatedStore;
use crate::descriptor::ProviderDescriptor;
use bytes::Bytes;
use parking_lot::Mutex;
use scalia_types::error::{Result, ScaliaError};
use scalia_types::ids::ProviderId;
use scalia_types::md5::hmac_md5;
use scalia_types::time::{Duration, SimTime};

/// A signed request to a private storage resource.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedRequest {
    /// Operation name (e.g. `"PUT"`, `"GET"`).
    pub operation: String,
    /// Object key.
    pub key: String,
    /// Request timestamp (for replay protection).
    pub timestamp: SimTime,
    /// HMAC-MD5 of `operation|key|timestamp` under the private token.
    pub signature: [u8; 16],
}

impl SignedRequest {
    /// Signs a request with the given private token.
    pub fn sign(token: &[u8], operation: &str, key: &str, timestamp: SimTime) -> Self {
        let message = Self::message(operation, key, timestamp);
        SignedRequest {
            operation: operation.to_string(),
            key: key.to_string(),
            timestamp,
            signature: hmac_md5(token, &message),
        }
    }

    fn message(operation: &str, key: &str, timestamp: SimTime) -> Vec<u8> {
        format!("{operation}|{key}|{}", timestamp.secs()).into_bytes()
    }

    /// Verifies the signature under `token`.
    pub fn verify(&self, token: &[u8]) -> bool {
        let expected = hmac_md5(
            token,
            &Self::message(&self.operation, &self.key, self.timestamp),
        );
        expected == self.signature
    }
}

/// A private storage resource fronted by an authenticating web service.
pub struct PrivateResource {
    store: SimulatedStore,
    token: Vec<u8>,
    /// Maximum accepted clock skew / request age.
    max_skew: Duration,
    /// Current time of the resource (advanced by the simulation clock).
    now: Mutex<SimTime>,
}

impl PrivateResource {
    /// Registers a private resource with its descriptor and private token.
    ///
    /// The descriptor should carry a capacity (see
    /// [`ProviderDescriptor::private`]); requests older than `max_skew` are
    /// rejected as replays.
    pub fn new(
        descriptor: ProviderDescriptor,
        token: impl Into<Vec<u8>>,
        max_skew: Duration,
    ) -> Self {
        PrivateResource {
            store: SimulatedStore::new(descriptor),
            token: token.into(),
            max_skew,
            now: Mutex::new(SimTime::ZERO),
        }
    }

    /// The provider id of the resource.
    pub fn provider_id(&self) -> ProviderId {
        self.store.provider_id()
    }

    /// The underlying metered store (for billing inspection in experiments).
    pub fn store(&self) -> &SimulatedStore {
        &self.store
    }

    /// Advances the resource clock (also charges storage GB-hours).
    pub fn tick(&self, now: SimTime) {
        *self.now.lock() = now;
        self.store.tick(now);
    }

    fn authenticate(&self, request: &SignedRequest, expected_op: &str) -> Result<()> {
        let id = self.store.provider_id();
        if request.operation != expected_op {
            return Err(ScaliaError::AuthenticationFailed(id));
        }
        if !request.verify(&self.token) {
            return Err(ScaliaError::AuthenticationFailed(id));
        }
        let now = *self.now.lock();
        let age = now.since(request.timestamp);
        let future_skew = request.timestamp.since(now);
        if age > self.max_skew || future_skew > self.max_skew {
            return Err(ScaliaError::AuthenticationFailed(id));
        }
        Ok(())
    }

    /// Stores data through a signed PUT request.
    pub fn put(&self, request: &SignedRequest, data: Bytes) -> Result<()> {
        self.authenticate(request, "PUT")?;
        self.store.put(&request.key, data)
    }

    /// Retrieves data through a signed GET request.
    pub fn get(&self, request: &SignedRequest) -> Result<Bytes> {
        self.authenticate(request, "GET")?;
        self.store.get(&request.key)
    }

    /// Deletes data through a signed DELETE request.
    pub fn delete(&self, request: &SignedRequest) -> Result<()> {
        self.authenticate(request, "DELETE")?;
        self.store.delete(&request.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pricing::PricingPolicy;
    use crate::sla::ProviderSla;
    use scalia_types::size::ByteSize;
    use scalia_types::zone::{Zone, ZoneSet};

    fn resource() -> PrivateResource {
        let descriptor = ProviderDescriptor::private(
            ProviderId::new(5),
            "corp-nas",
            ProviderSla::from_percent(99.99, 99.5),
            PricingPolicy::from_dollars(0.01, 0.0, 0.0, 0.0),
            ZoneSet::of(&[Zone::EU]),
            ByteSize::from_mb(1),
        );
        PrivateResource::new(
            descriptor,
            b"secret-token".to_vec(),
            Duration::from_hours(1),
        )
    }

    #[test]
    fn signed_roundtrip() {
        let r = resource();
        r.tick(SimTime::from_hours(10));
        let t = SimTime::from_hours(10);
        let put = SignedRequest::sign(b"secret-token", "PUT", "backup.tar", t);
        r.put(&put, Bytes::from_static(b"data")).unwrap();
        let get = SignedRequest::sign(b"secret-token", "GET", "backup.tar", t);
        assert_eq!(r.get(&get).unwrap(), Bytes::from_static(b"data"));
        let del = SignedRequest::sign(b"secret-token", "DELETE", "backup.tar", t);
        r.delete(&del).unwrap();
        assert!(r.get(&get).is_err());
    }

    #[test]
    fn wrong_token_is_rejected() {
        let r = resource();
        let req = SignedRequest::sign(b"wrong-token", "PUT", "k", SimTime::ZERO);
        assert!(matches!(
            r.put(&req, Bytes::from_static(b"x")).unwrap_err(),
            ScaliaError::AuthenticationFailed(_)
        ));
    }

    #[test]
    fn tampered_request_is_rejected() {
        let r = resource();
        let mut req = SignedRequest::sign(b"secret-token", "PUT", "k", SimTime::ZERO);
        req.key = "other".to_string();
        assert!(matches!(
            r.put(&req, Bytes::from_static(b"x")).unwrap_err(),
            ScaliaError::AuthenticationFailed(_)
        ));
        // Operation mismatch (replaying a GET signature as PUT) is rejected.
        let get = SignedRequest::sign(b"secret-token", "GET", "k", SimTime::ZERO);
        assert!(r.put(&get, Bytes::from_static(b"x")).is_err());
    }

    #[test]
    fn stale_request_is_rejected_as_replay() {
        let r = resource();
        let old = SignedRequest::sign(b"secret-token", "PUT", "k", SimTime::ZERO);
        r.tick(SimTime::from_hours(5));
        assert!(matches!(
            r.put(&old, Bytes::from_static(b"x")).unwrap_err(),
            ScaliaError::AuthenticationFailed(_)
        ));
        // A fresh request at the new time succeeds.
        let fresh = SignedRequest::sign(b"secret-token", "PUT", "k", SimTime::from_hours(5));
        r.put(&fresh, Bytes::from_static(b"x")).unwrap();
    }

    #[test]
    fn capacity_of_private_resource_is_enforced() {
        let r = resource();
        let t = SimTime::ZERO;
        let big = SignedRequest::sign(b"secret-token", "PUT", "big", t);
        r.put(&big, Bytes::from(vec![0u8; 900_000])).unwrap();
        let more = SignedRequest::sign(b"secret-token", "PUT", "more", t);
        assert!(matches!(
            r.put(&more, Bytes::from(vec![0u8; 200_000])).unwrap_err(),
            ScaliaError::CapacityExceeded(_)
        ));
    }

    #[test]
    fn signature_verification_is_symmetric() {
        let req = SignedRequest::sign(b"tok", "GET", "key", SimTime::from_secs(123));
        assert!(req.verify(b"tok"));
        assert!(!req.verify(b"other"));
    }
}
