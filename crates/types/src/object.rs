//! Object keys, identifiers, metadata and striping metadata.
//!
//! Scalia exposes an S3-like key/value model: objects live in a *container*
//! under a *key*. Internally every write produces a new immutable version
//! identified by a UUID; the metadata row for `(container, key)` maps to the
//! current version(s) (MVCC), and the striping metadata records where each
//! erasure-coded chunk lives (Fig. 11 in the paper).

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
    pub fn to_hex(self) -> String {
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

/// Placement and length of one fixed-size stripe of a striped object.
///
/// Each stripe is erasure-coded independently (its own `m`-of-`n` chunk set,
/// possibly degraded), so the streaming pipeline can land, repair and
/// range-read stripes without touching the rest of the object.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StripeMeta {
    /// Chunk locations of this stripe, one per provider in its chosen set.
    pub chunks: Vec<ChunkLocation>,
    /// Reconstruction threshold of this stripe's erasure code.
    pub m: u32,
    /// Plaintext length of the stripe in bytes (only the last stripe may be
    /// shorter than the object's stripe size).
    pub len: u64,
    /// Content checksum ([`crate::checksum`]) of the stripe plaintext,
    /// verified on every decode of the stripe.
    pub checksum: String,
    /// Storage key of this stripe's chunks (`{chunk index}` appended per
    /// chunk). Nominally `{object skey}.s{stripe index}`, but each landing
    /// *attempt* salts it further — a rolled-back attempt may have postponed
    /// chunk deletes on flapping providers, and the retry must never land a
    /// committed chunk where a pending delete will strike.
    pub skey: String,
}

/// The stripe map of a multi-stripe object: uniform stripe size plus the
/// per-stripe placements, in stripe order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StripeMap {
    /// Nominal stripe size in bytes; every stripe except possibly the last
    /// has exactly this plaintext length.
    pub stripe_size: u64,
    /// Per-stripe metadata, index `i` covers bytes
    /// `[i * stripe_size, i * stripe_size + stripes[i].len)`.
    pub stripes: Vec<StripeMeta>,
}

impl StripeMap {
    /// Total plaintext length across all stripes.
    pub fn total_len(&self) -> u64 {
        self.stripes.iter().map(|s| s.len).sum()
    }

    /// Byte offset at which stripe `i` starts.
    pub fn stripe_offset(&self, i: usize) -> u64 {
        (i as u64) * self.stripe_size
    }

    /// The half-open range of stripe indices covering object byte range
    /// `[offset, end)`. Empty when the byte range is empty or out of bounds.
    pub fn covering(&self, offset: u64, end: u64) -> std::ops::Range<usize> {
        let end = end.min(self.total_len());
        if offset >= end || self.stripe_size == 0 {
            return 0..0;
        }
        let first = (offset / self.stripe_size) as usize;
        let last = (end.div_ceil(self.stripe_size) as usize).min(self.stripes.len());
        first..last
    }
}

/// Striping metadata of an object version (Fig. 11): where each chunk is,
/// the reconstruction threshold `m`, and the storage key under which chunks
/// are stored at the providers.
///
/// Versioning: single-stripe objects (the pre-streaming layout) carry
/// `stripes: None` and serialize with exactly the original three fields, so
/// existing metadata deserializes unchanged and new single-stripe metadata
/// stays bit-identical to the pre-streaming layout. Multi-stripe objects
/// written by the streaming pipeline add a `stripes` key; for those the
/// top-level `chunks` is empty and each stripe records its own placement.
#[derive(Debug, Clone, PartialEq)]
pub struct StripingMeta {
    /// Chunk locations, one per provider in the chosen set. Empty for
    /// multi-stripe objects (see [`StripingMeta::stripes`]).
    pub chunks: Vec<ChunkLocation>,
    /// Reconstruction threshold: any `m` chunks rebuild the object.
    pub m: u32,
    /// Storage key `MD5(container | key | UUID)` shared by all chunks
    /// (each provider key is suffixed with the chunk index).
    pub skey: String,
    /// Stripe map for objects written by the streaming pipeline; `None`
    /// for the classic single-stripe layout.
    pub stripes: Option<StripeMap>,
}

// Manual impls rather than derive: the derive shim always emits every field,
// but a `stripes: null` key would change the serialized form of every
// pre-streaming object. Omitting the key when `None` keeps single-stripe
// metadata bit-identical to the pre-PR layout (the `Map` is a `BTreeMap`,
// so insertion order does not affect the output).
impl serde::Serialize for StripingMeta {
    fn serialize(&self) -> serde::Value {
        let mut map = serde::Map::new();
        map.insert("chunks".to_string(), self.chunks.serialize());
        map.insert("m".to_string(), self.m.serialize());
        map.insert("skey".to_string(), self.skey.serialize());
        if let Some(stripes) = &self.stripes {
            map.insert("stripes".to_string(), stripes.serialize());
        }
        serde::Value::Object(map)
    }
}

impl serde::Deserialize for StripingMeta {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        let null = serde::Value::Null;
        let chunks = Vec::<ChunkLocation>::deserialize(value.get("chunks").unwrap_or(&null))?;
        let m = u32::deserialize(value.get("m").unwrap_or(&null))?;
        let skey = String::deserialize(value.get("skey").unwrap_or(&null))?;
        let stripes = match value.get("stripes") {
            None => None,
            Some(v) if v.is_null() => None,
            Some(v) => Some(StripeMap::deserialize(v)?),
        };
        Ok(StripingMeta {
            chunks,
            m,
            skey,
            stripes,
        })
    }
}

impl StripingMeta {
    /// Classic single-stripe striping (the pre-streaming layout).
    pub fn single(chunks: Vec<ChunkLocation>, m: u32, skey: String) -> Self {
        StripingMeta {
            chunks,
            m,
            skey,
            stripes: None,
        }
    }

    /// Multi-stripe striping written by the streaming pipeline. The
    /// top-level chunk list is empty; `m` records the placement threshold
    /// for observability (each stripe carries its own exact `m`).
    pub fn striped(skey: String, m: u32, map: StripeMap) -> Self {
        StripingMeta {
            chunks: Vec::new(),
            m,
            skey,
            stripes: Some(map),
        }
    }

    /// Whether this object uses the multi-stripe layout.
    pub fn is_striped(&self) -> bool {
        self.stripes.is_some()
    }

    /// Number of stripes (1 for the classic layout).
    pub fn stripe_count(&self) -> usize {
        match &self.stripes {
            Some(map) => map.stripes.len(),
            None => 1,
        }
    }

    /// A single-stripe view of stripe `i`, shaped exactly like a classic
    /// striping so the chunk I/O machinery (upload, hedged fetch, delete,
    /// rollback) works per stripe unchanged. Stripe chunk keys are
    /// `{stripe skey}.{index}` (nominally `{skey}.s{i}.{index}`), disjoint
    /// from classic keys `{skey}.{index}`. For a classic striping, stripe 0
    /// is the striping itself.
    pub fn stripe_view(&self, i: usize) -> StripingMeta {
        match &self.stripes {
            Some(map) => StripingMeta {
                chunks: map.stripes[i].chunks.clone(),
                m: map.stripes[i].m,
                skey: map.stripes[i].skey.clone(),
                stripes: None,
            },
            None => {
                debug_assert_eq!(i, 0);
                self.clone()
            }
        }
    }

    /// Every provider storage key referenced by this striping, across all
    /// stripes — the reference set the orphan-chunk GC must preserve.
    pub fn all_chunk_keys(&self) -> Vec<String> {
        match &self.stripes {
            Some(map) => {
                let mut keys = Vec::new();
                for stripe in &map.stripes {
                    for chunk in &stripe.chunks {
                        keys.push(format!("{}.{}", stripe.skey, chunk.index));
                    }
                }
                keys
            }
            None => self
                .chunks
                .iter()
                .map(|c| self.chunk_key(c.index))
                .collect(),
        }
    }

    /// All `(provider, chunk key)` pairs referenced by this striping.
    pub fn all_chunk_refs(&self) -> Vec<(ProviderId, String)> {
        match &self.stripes {
            Some(map) => {
                let mut refs = Vec::new();
                for stripe in &map.stripes {
                    for chunk in &stripe.chunks {
                        refs.push((chunk.provider, format!("{}.{}", stripe.skey, chunk.index)));
                    }
                }
                refs
            }
            None => self
                .chunks
                .iter()
                .map(|c| (c.provider, self.chunk_key(c.index)))
                .collect(),
        }
    }

    /// The distinct providers referenced anywhere in this striping, sorted.
    /// For a classic striping with distinct providers this equals the
    /// sorted chunk-order provider list.
    pub fn provider_set(&self) -> Vec<ProviderId> {
        let mut providers: Vec<ProviderId> = match &self.stripes {
            Some(map) => map
                .stripes
                .iter()
                .flat_map(|s| s.chunks.iter().map(|c| c.provider))
                .collect(),
            None => self.providers(),
        };
        providers.sort();
        providers.dedup();
        providers
    }

    /// Total number of chunks (`n` of the erasure code).
    pub fn n(&self) -> u32 {
        self.chunks.len() as u32
    }

    /// Width of the erasure code the chunks must be decoded under: for a
    /// full striping this is `n`; for a *degraded* striping (a write that
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
            .max(self.chunks.len() as u32)
    }

    /// The providers holding chunks, in chunk-index order.
    pub fn providers(&self) -> Vec<ProviderId> {
        self.chunks.iter().map(|c| c.provider).collect()
    }

    /// The per-provider storage key of chunk `index`.
    pub fn chunk_key(&self, index: u32) -> String {
        format!("{}.{}", self.skey, index)
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
    /// Content checksum ([`crate::checksum`]) of the object's bytes. For a
    /// classic single-stripe object this is what every read verifies; a
    /// striped object's reads verify each stripe's own
    /// [`StripeMeta::checksum`].
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

    #[test]
    fn striping_meta_accessors() {
        let key = ObjectKey::new("c", "k");
        let version = ObjectVersionId::next(&key.row_key());
        let skey = StripingMeta::storage_key(&key, version);
        let meta = StripingMeta::single(
            vec![
                ChunkLocation {
                    index: 0,
                    provider: ProviderId::new(2),
                },
                ChunkLocation {
                    index: 1,
                    provider: ProviderId::new(5),
                },
                ChunkLocation {
                    index: 2,
                    provider: ProviderId::new(7),
                },
            ],
            2,
            skey.clone(),
        );
        assert_eq!(meta.n(), 3);
        assert_eq!(
            meta.providers(),
            vec![ProviderId::new(2), ProviderId::new(5), ProviderId::new(7)]
        );
        assert_eq!(meta.chunk_key(1), format!("{skey}.1"));
        assert!(!meta.is_striped());
        assert_eq!(meta.stripe_count(), 1);
        assert_eq!(meta.stripe_view(0), meta);
        assert_eq!(
            meta.all_chunk_keys(),
            vec![
                format!("{skey}.0"),
                format!("{skey}.1"),
                format!("{skey}.2")
            ]
        );
        assert_eq!(
            meta.provider_set(),
            vec![ProviderId::new(2), ProviderId::new(5), ProviderId::new(7)]
        );
    }

    fn loc(index: u32, provider: u32) -> ChunkLocation {
        ChunkLocation {
            index,
            provider: ProviderId::new(provider),
        }
    }

    fn sample_striped() -> StripingMeta {
        StripingMeta::striped(
            "abc123".to_string(),
            2,
            StripeMap {
                stripe_size: 100,
                stripes: vec![
                    StripeMeta {
                        chunks: vec![loc(0, 1), loc(1, 2), loc(2, 3)],
                        m: 2,
                        len: 100,
                        checksum: "c0".to_string(),
                        skey: "abc123.s0".to_string(),
                    },
                    StripeMeta {
                        // Degraded stripe: chunk 1 missing, original indices
                        // kept; landed on a salted retry skey.
                        chunks: vec![loc(0, 4), loc(2, 5)],
                        m: 2,
                        len: 40,
                        checksum: "c1".to_string(),
                        skey: "abc123.s1.r1".to_string(),
                    },
                ],
            },
        )
    }

    #[test]
    fn striped_meta_views_and_keys() {
        let meta = sample_striped();
        assert!(meta.is_striped());
        assert_eq!(meta.stripe_count(), 2);

        let v0 = meta.stripe_view(0);
        assert_eq!(v0.skey, "abc123.s0");
        assert_eq!(v0.m, 2);
        assert_eq!(v0.chunk_key(1), "abc123.s0.1");
        assert_eq!(v0.code_width(), 3);

        let v1 = meta.stripe_view(1);
        assert_eq!(v1.chunks.len(), 2);
        // Degraded stripe decodes under the original width, and its chunk
        // keys come from the salted per-stripe skey it landed under.
        assert_eq!(v1.code_width(), 3);
        assert_eq!(v1.chunk_key(2), "abc123.s1.r1.2");

        assert_eq!(
            meta.all_chunk_keys(),
            vec![
                "abc123.s0.0",
                "abc123.s0.1",
                "abc123.s0.2",
                "abc123.s1.r1.0",
                "abc123.s1.r1.2"
            ]
        );
        assert_eq!(
            meta.provider_set(),
            (1..=5).map(ProviderId::new).collect::<Vec<_>>()
        );

        let map = meta.stripes.as_ref().unwrap();
        assert_eq!(map.total_len(), 140);
        assert_eq!(map.stripe_offset(1), 100);
        assert_eq!(map.covering(0, 140), 0..2);
        assert_eq!(map.covering(0, 100), 0..1);
        assert_eq!(map.covering(99, 101), 0..2);
        assert_eq!(map.covering(100, 140), 1..2);
        assert_eq!(map.covering(140, 200), 0..0);
        assert_eq!(map.covering(50, 50), 0..0);
    }

    /// Single-stripe metadata serializes with exactly the pre-streaming
    /// three keys — no `stripes` key — and legacy JSON (without the key)
    /// deserializes to `stripes: None`. This is the bit-compatibility
    /// contract for every object written before the streaming pipeline.
    #[test]
    fn single_stripe_serialization_is_legacy_shaped() {
        let meta = StripingMeta::single(vec![loc(0, 2), loc(1, 5)], 2, "deadbeef".to_string());
        let value = serde::Serialize::serialize(&meta);
        let obj = value.as_object().expect("object");
        assert_eq!(
            obj.keys().collect::<Vec<_>>(),
            vec!["chunks", "m", "skey"],
            "single-stripe striping must not grow new keys"
        );

        // Legacy-shaped JSON round-trips to the same struct.
        let back = <StripingMeta as serde::Deserialize>::deserialize(&value).unwrap();
        assert_eq!(back, meta);
        assert!(back.stripes.is_none());

        // An explicit `"stripes": null` (future writers being defensive)
        // also reads back as None.
        let mut with_null = obj.clone();
        with_null.insert("stripes".to_string(), serde::Value::Null);
        let back =
            <StripingMeta as serde::Deserialize>::deserialize(&serde::Value::Object(with_null))
                .unwrap();
        assert_eq!(back, meta);
    }

    #[test]
    fn striped_meta_round_trips() {
        let meta = sample_striped();
        let value = serde::Serialize::serialize(&meta);
        assert!(value.get("stripes").is_some());
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
