//! Object keys, identifiers, metadata and striping metadata.
//!
//! Scalia exposes an S3-like key/value model: objects live in a *container*
//! under a *key*. Internally every write produces a new immutable version
//! identified by a UUID; the metadata row for `(container, key)` maps to the
//! current version(s) (MVCC), and the striping metadata records where each
//! erasure-coded chunk lives: the paper's Fig. 11 record, one per stripe
//! ([`StripingMeta`]).

use crate::ids::ProviderId;
use crate::md5;
use crate::rules::StorageRule;
use crate::size::ByteSize;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// The user-visible identity of an object: a container name and a key.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ObjectKey {
    /// Container (bucket) name.
    pub container: String,
    /// Object key within the container.
    pub key: String,
}

impl ObjectKey {
    /// Creates an object key.
    pub fn new(container: impl Into<String>, key: impl Into<String>) -> Self {
        ObjectKey {
            container: container.into(),
            key: key.into(),
        }
    }

    /// The metadata row key, `MD5(container | key)` as in §III-D1.
    pub fn row_key(&self) -> String {
        md5::md5_hex(format!("{}|{}", self.container, self.key).as_bytes())
    }
}

impl fmt::Display for ObjectKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.container, self.key)
    }
}

/// A globally unique identifier for one written version of an object.
///
/// The paper uses a UUID so that concurrent updates never collide on the
/// chunk storage keys. The reproduction generates identifiers from a process
/// wide counter mixed with the object row key, which is unique and
/// deterministic across runs (important for reproducible simulations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectVersionId(pub u128);

impl serde::Serialize for ObjectVersionId {
    fn serialize(&self) -> serde::Value {
        // JSON numbers cannot hold 128 bits; serialise as a hex string.
        serde::Value::String(self.to_hex())
    }
}

impl serde::Deserialize for ObjectVersionId {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        let hex = value
            .as_str()
            .ok_or_else(|| serde::Error::custom("expected hex string version id"))?;
        u128::from_str_radix(hex, 16)
            .map(ObjectVersionId)
            .map_err(serde::Error::custom)
    }
}

static VERSION_COUNTER: AtomicU64 = AtomicU64::new(1);

impl ObjectVersionId {
    /// Generates the next unique version id. The `salt` (typically the row
    /// key hash) is mixed in so ids from different objects differ even when
    /// counters align across processes.
    pub fn next(salt: &str) -> Self {
        Self::with_counter(salt, VERSION_COUNTER.fetch_add(1, Ordering::Relaxed))
    }

    /// Builds a version id from an explicit counter draw instead of the
    /// process-global sequence. Callers that own their own counter (e.g. a
    /// cluster allocating versions from its infrastructure) use this so the
    /// ids they mint — and everything derived from them, such as storage
    /// keys — do not depend on how many versions *other* instances in the
    /// same process have allocated.
    pub fn with_counter(salt: &str, counter: u64) -> Self {
        let digest = md5::md5(salt.as_bytes());
        let mut hi = [0u8; 8];
        hi.copy_from_slice(&digest[..8]);
        ObjectVersionId(((u64::from_le_bytes(hi) as u128) << 64) | counter as u128)
    }

    /// Hex representation used in storage keys.
    pub(crate) fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }
}

impl fmt::Display for ObjectVersionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

/// Location of one erasure-coded chunk: which provider holds which index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ChunkLocation {
    /// Index of the chunk within the erasure coding (0-based).
    pub index: u32,
    /// Provider that stores the chunk.
    pub provider: ProviderId,
}

/// One erasure group — the paper's Fig. 11 record: where each chunk is, the
/// reconstruction threshold `m`, and the storage key the chunks are stored
/// under — plus the checksum every read of the group is verified against.
///
/// Each stripe of an object is erasure-coded independently (its own
/// `m`-of-`n` chunk set, possibly degraded), so the write pipeline can land,
/// repair and range-read stripes without touching the rest of the object.
/// The plaintext length is not stored: it follows from the object's size
/// ([`StripingMeta::stripe_len`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StripeMeta {
    /// Chunk locations of this stripe, one per provider in its chosen set.
    pub chunks: Vec<ChunkLocation>,
    /// Reconstruction threshold: any `m` chunks rebuild the stripe.
    pub m: u32,
    /// Content checksum ([`crate::checksum`]) of the stripe plaintext —
    /// exactly the bytes its data chunks were cut from, without their
    /// padding — verified on every decode of the stripe.
    pub checksum: String,
    /// Storage key shared by this stripe's chunks (each provider key is
    /// suffixed with the chunk index): `MD5(container | key | UUID)` for
    /// stripe 0, `{that}.s{i}` for stripe `i ≥ 1`, the UUID being the one
    /// the landing attempt that succeeded drew.
    pub skey: String,
}

impl StripeMeta {
    /// Total number of chunks (`n` of the erasure code; fewer for a stripe
    /// that landed degraded).
    pub fn n(&self) -> u32 {
        self.chunks.len() as u32
    }

    /// Width of the erasure code the chunks must be decoded under: for a
    /// full stripe this is `n`; for a *degraded* stripe (a write that
    /// landed with k < n chunks) the surviving chunks keep their original
    /// erasure indices, so the width is the highest surviving index + 1.
    /// Decoding under this width is exact — the systematic Reed–Solomon
    /// encode-matrix row of chunk `i` depends only on `(i, m)`, never on the
    /// total width it was encoded with.
    pub fn code_width(&self) -> u32 {
        self.chunks
            .iter()
            .map(|c| c.index + 1)
            .max()
            .unwrap_or(0)
            .max(self.n())
    }

    /// The providers holding chunks, in chunk-index order.
    pub fn providers(&self) -> Vec<ProviderId> {
        self.chunks.iter().map(|c| c.provider).collect()
    }

    /// The per-provider storage key of chunk `index`.
    pub fn chunk_key(&self, index: u32) -> String {
        format!("{}.{}", self.skey, index)
    }

    /// The `(provider, chunk key)` pairs of this stripe's chunks.
    pub fn chunk_refs(&self) -> impl Iterator<Item = (ProviderId, String)> + '_ {
        self.chunks
            .iter()
            .map(|c| (c.provider, self.chunk_key(c.index)))
    }
}

/// Striping metadata of an object version: Fig. 11 generalised from one
/// erasure group to a map of ≥ 1 of them. The object's bytes are cut into
/// stripes of `stripe_size` (the last possibly shorter; an empty object is
/// one empty stripe), each its own [`StripeMeta`]. An object no larger than
/// one stripe is exactly the paper's record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StripingMeta {
    /// Nominal stripe size in bytes; every stripe except possibly the last
    /// has exactly this plaintext length.
    pub stripe_size: u64,
    /// Per-stripe metadata; stripe `i` covers the object's bytes from
    /// `i * stripe_size`.
    pub stripes: Vec<StripeMeta>,
}

impl StripingMeta {
    /// Number of stripes (≥ 1 for any committed object).
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    /// Stripe `i`.
    pub fn stripe_view(&self, i: usize) -> &StripeMeta {
        &self.stripes[i]
    }

    /// Plaintext length of stripe `i` of an object of `size` bytes.
    pub fn stripe_len(&self, i: usize, size: u64) -> u64 {
        size.saturating_sub(self.stripe_offset(i))
            .min(self.stripe_size)
    }

    /// Byte offset at which stripe `i` starts.
    pub fn stripe_offset(&self, i: usize) -> u64 {
        (i as u64).saturating_mul(self.stripe_size)
    }

    /// The half-open range of stripe indices covering the object byte range
    /// `[offset, end)`; the caller clamps `end` to the object's size. Empty
    /// when the byte range is.
    pub fn covering(&self, offset: u64, end: u64) -> std::ops::Range<usize> {
        if offset >= end || self.stripe_size == 0 {
            return 0..0;
        }
        let first = (offset / self.stripe_size) as usize;
        let last = (end.div_ceil(self.stripe_size) as usize).min(self.stripes.len());
        first.min(last)..last
    }

    /// All `(provider, chunk key)` pairs referenced by this striping.
    pub fn all_chunk_refs(&self) -> Vec<(ProviderId, String)> {
        self.stripes
            .iter()
            .flat_map(StripeMeta::chunk_refs)
            .collect()
    }

    /// The distinct providers referenced anywhere in this striping, sorted.
    pub fn provider_set(&self) -> Vec<ProviderId> {
        let mut providers: Vec<ProviderId> = self
            .stripes
            .iter()
            .flat_map(|s| s.chunks.iter().map(|c| c.provider))
            .collect();
        providers.sort();
        providers.dedup();
        providers
    }

    /// Chunk count of the first stripe. Every stripe of a put is placed
    /// with the same rule, class and usage, so short of a degraded or
    /// re-placed landing they all share it.
    pub fn n(&self) -> u32 {
        self.stripes.first().map_or(0, StripeMeta::n)
    }

    /// Reconstruction threshold of the first stripe (see [`Self::n`]).
    pub fn m(&self) -> u32 {
        self.stripes.first().map_or(0, |s| s.m)
    }

    /// Computes the storage key for an object version, as in §III-D1:
    /// `skey = MD5(container | key | UUID)`.
    pub fn storage_key(key: &ObjectKey, version: ObjectVersionId) -> String {
        md5::md5_hex(format!("{}|{}|{}", key.container, key.key, version.to_hex()).as_bytes())
    }
}

/// File-level metadata of an object version (Fig. 11).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObjectMeta {
    /// The user-visible key.
    pub key: ObjectKey,
    /// Version id of this write.
    pub version: ObjectVersionId,
    /// MIME type supplied by the writer (used for classification).
    pub mime: String,
    /// Object size in bytes.
    pub size: ByteSize,
    /// Content checksum of the object — what a client compares against: the
    /// root over the stripe digests ([`crate::checksum::object_checksum`]),
    /// XXH64 of each [`StripeMeta::checksum`] as 8 big-endian bytes in
    /// stripe order. A one-stripe object's (every object up to the stripe
    /// size, and every empty one) is its stripe's, i.e.
    /// [`crate::checksum::checksum_hex`] of its bytes. It follows from the
    /// stripe map without reading a byte; a client recomputes it from the
    /// payload with [`crate::checksum::object_checksum_hex`]`(data,
    /// striping.stripe_size)`. Reads verify each stripe's own checksum.
    pub checksum: String,
    /// Storage rule (policy) applied to the object.
    pub rule: StorageRule,
    /// Time the version was written.
    pub written_at: SimTime,
    /// Optional time-to-live hint provided by the writer (§III-A, lifetime
    /// indication "provided by the end user at write time").
    pub ttl_hint_hours: Option<f64>,
    /// Striping metadata describing where the chunks live.
    pub striping: StripingMeta,
}

impl ObjectMeta {
    /// The metadata row key of the object.
    pub fn row_key(&self) -> String {
        self.key.row_key()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_key_is_md5_of_container_and_key() {
        let k = ObjectKey::new("pictures", "myvacation.gif");
        assert_eq!(k.row_key(), md5::md5_hex(b"pictures|myvacation.gif"));
        assert_eq!(k.row_key().len(), 32);
        // Deterministic.
        assert_eq!(
            k.row_key(),
            ObjectKey::new("pictures", "myvacation.gif").row_key()
        );
        // Different keys yield different rows.
        assert_ne!(
            k.row_key(),
            ObjectKey::new("pictures", "other.gif").row_key()
        );
    }

    #[test]
    fn version_ids_are_unique() {
        let a = ObjectVersionId::next("row");
        let b = ObjectVersionId::next("row");
        let c = ObjectVersionId::next("other-row");
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.to_hex().len(), 32);
    }

    fn loc(index: u32, provider: u32) -> ChunkLocation {
        ChunkLocation {
            index,
            provider: ProviderId::new(provider),
        }
    }

    fn sample_striping() -> StripingMeta {
        StripingMeta {
            stripe_size: 100,
            stripes: vec![
                StripeMeta {
                    chunks: vec![loc(0, 1), loc(1, 2), loc(2, 3)],
                    m: 2,
                    checksum: "c0".to_string(),
                    skey: "abc123".to_string(),
                },
                StripeMeta {
                    // Degraded stripe: chunk 1 missing, original indices
                    // kept; landed on a retry, under another version's key.
                    chunks: vec![loc(0, 4), loc(2, 5)],
                    m: 2,
                    checksum: "c1".to_string(),
                    skey: "def456.s1".to_string(),
                },
            ],
        }
    }

    /// A one-stripe striping is the paper's Fig. 11 record: its chunks sit
    /// under the object's own storage key.
    #[test]
    fn striping_meta_accessors() {
        let key = ObjectKey::new("c", "k");
        let version = ObjectVersionId::next(&key.row_key());
        let skey = StripingMeta::storage_key(&key, version);
        let meta = StripingMeta {
            stripe_size: 1 << 19,
            stripes: vec![StripeMeta {
                chunks: vec![loc(0, 2), loc(1, 5), loc(2, 7)],
                m: 2,
                checksum: "c".to_string(),
                skey: skey.clone(),
            }],
        };
        assert_eq!(meta.stripe_count(), 1);
        assert_eq!((meta.n(), meta.m()), (3, 2));
        assert_eq!(meta.stripe_len(0, 300_000), 300_000);
        assert_eq!(meta.covering(10, 20), 0..1);
        assert_eq!(meta.stripe_view(0).chunk_key(1), format!("{skey}.1"));
        assert_eq!(
            meta.all_chunk_refs(),
            vec![
                (ProviderId::new(2), format!("{skey}.0")),
                (ProviderId::new(5), format!("{skey}.1")),
                (ProviderId::new(7), format!("{skey}.2"))
            ]
        );
        assert_eq!(meta.provider_set(), meta.stripe_view(0).providers());
    }

    #[test]
    fn striped_meta_views_and_keys() {
        let meta = sample_striping();
        assert_eq!(meta.stripe_count(), 2);
        assert_eq!((meta.n(), meta.m()), (3, 2));

        let v0 = meta.stripe_view(0);
        assert_eq!(v0.n(), 3);
        assert_eq!(v0.chunk_key(1), "abc123.1");
        assert_eq!(v0.code_width(), 3);
        assert_eq!(
            v0.providers(),
            vec![ProviderId::new(1), ProviderId::new(2), ProviderId::new(3)]
        );

        let v1 = meta.stripe_view(1);
        assert_eq!(v1.n(), 2);
        // A degraded stripe decodes under the original width, and its chunk
        // keys come from the storage key it landed under.
        assert_eq!(v1.code_width(), 3);
        assert_eq!(v1.chunk_key(2), "def456.s1.2");

        let keys: Vec<String> = meta.all_chunk_refs().into_iter().map(|r| r.1).collect();
        assert_eq!(
            keys,
            vec![
                "abc123.0",
                "abc123.1",
                "abc123.2",
                "def456.s1.0",
                "def456.s1.2"
            ]
        );
        assert_eq!(
            meta.provider_set(),
            (1..=5).map(ProviderId::new).collect::<Vec<_>>()
        );

        // Stripe lengths follow from the object's size (140 bytes here).
        assert_eq!(meta.stripe_len(0, 140), 100);
        assert_eq!(meta.stripe_len(1, 140), 40);
        assert_eq!(meta.stripe_len(0, 0), 0, "an empty object's one stripe");
        assert_eq!(meta.stripe_offset(1), 100);
        assert_eq!(meta.covering(0, 140), 0..2);
        assert_eq!(meta.covering(0, 100), 0..1);
        assert_eq!(meta.covering(99, 101), 0..2);
        assert_eq!(meta.covering(100, 140), 1..2);
        assert_eq!(meta.covering(50, 50), 0..0);
        assert!(meta.covering(500, 600).is_empty());
    }

    #[test]
    fn striped_meta_round_trips() {
        let meta = sample_striping();
        let value = serde::Serialize::serialize(&meta);
        let obj = value.as_object().expect("object");
        assert_eq!(
            obj.keys().collect::<Vec<_>>(),
            vec!["stripe_size", "stripes"]
        );
        let back = <StripingMeta as serde::Deserialize>::deserialize(&value).unwrap();
        assert_eq!(back, meta);
    }

    #[test]
    fn storage_key_depends_on_version() {
        let key = ObjectKey::new("c", "k");
        let v1 = ObjectVersionId::next(&key.row_key());
        let v2 = ObjectVersionId::next(&key.row_key());
        assert_ne!(
            StripingMeta::storage_key(&key, v1),
            StripingMeta::storage_key(&key, v2)
        );
    }

    #[test]
    fn object_key_display() {
        assert_eq!(
            ObjectKey::new("pictures", "a.gif").to_string(),
            "pictures/a.gif"
        );
    }
}
