//! The per-datacenter caching layer.
//!
//! Upon a read, if the object is present in the cache it is served without
//! touching the remote providers, which both lowers latency and avoids the
//! providers' bandwidth-out and operation charges (§III-B). The cache is a
//! byte-bounded LRU; on every write the object is invalidated in *all*
//! datacenters to keep reads consistent.
//!
//! # Integrity: block digests
//!
//! An entry is its bytes cut into fixed-length **blocks** plus one XXH64
//! digest per block, recorded at insert. A hit re-derives the digests of
//! the blocks that cover the bytes it returns — all of them for a full
//! [`Cache::get`], the one or two around a small `Cache::get_range` — and
//! fails closed on a mismatch, so a hit costs what it returns, not what the
//! entry holds. The engine's populate supplies the digests instead of
//! having them computed (`BlockDigests`): they are the stripe checksums
//! the metadata records, which the read path has just verified the payload
//! against, so caching a freshly read object hashes nothing.
//!
//! # Invalidation epochs
//!
//! A slow reader races writers: it reads metadata, spends a while fetching
//! chunks, and only then wants to populate the cache — by which time a
//! writer may have committed a newer version and invalidated the entry.
//! Inserting the stale payload *after* that invalidation would poison the
//! cache until the next write. Each key therefore carries an
//! **invalidation epoch**: readers snapshot it (`Cache::read_epoch`)
//! *before* reading metadata and populate conditionally
//! (`Cache::put_if_epoch`) — if any invalidation touched the key in
//! between, the insert is skipped. This replaces the previous
//! revalidate-by-re-reading-metadata scheme, eliminating one metadata read
//! per uncached get.
//!
//! The epoch table is bounded: past `EPOCH_CAP` tracked keys it is
//! cleared and a *generation* counter (the epoch's high bits) is bumped,
//! which conservatively invalidates every outstanding snapshot — readers
//! skip their populate, never serve stale data.

use bytes::Bytes;
use parking_lot::Mutex;
use scalia_types::checksum::xxh64;
use scalia_types::size::ByteSize;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// The per-block digests vouching for a payload about to be cached, from
/// whoever verified it: `digests[i]` is the XXH64 of bytes
/// `[i * block_len, (i + 1) * block_len)`, the last block possibly short.
pub(crate) struct BlockDigests {
    /// Length of every block but the last, in bytes.
    pub block_len: usize,
    /// One digest per block, in block order.
    pub digests: Vec<u64>,
}

impl BlockDigests {
    /// One block spanning all of `data`, hashed here.
    fn of(data: &[u8]) -> Self {
        let block_len = data.len().max(1);
        BlockDigests {
            block_len,
            digests: data.chunks(block_len).map(xxh64).collect(),
        }
    }

    /// Whether these digests describe a payload of `len` bytes.
    fn fit(&self, len: usize) -> bool {
        self.block_len > 0 && self.digests.len() == len.div_ceil(self.block_len)
    }
}

/// One cached object plus the integrity digests recorded when it was
/// inserted, one per block of `block_len` bytes. Every hit re-derives the
/// digests of the blocks covering the bytes it returns and fails closed
/// (treats the entry as a miss) on mismatch — a corrupt cache entry must
/// never be served when the providers still hold the true bytes. The digest
/// is the content checksum ([`scalia_types::checksum`]), and what it guards
/// against is *accidental* in-process corruption (a buggy in-place mutation
/// of shared `Bytes`, a torn entry), not an adversary.
#[derive(Clone)]
struct Entry {
    data: Bytes,
    len: usize,
    block_len: usize,
    digests: Arc<[u64]>,
    /// This entry's key in [`CacheInner::recency`].
    tick: u64,
}

impl Entry {
    /// The bytes `[offset, offset + len)` of this entry, clamped to its end
    /// (empty for an empty or past-EOF range), or `None` when the entry's
    /// length or a block the range touches no longer matches what was
    /// recorded at insert. Blocks outside the range are not read.
    fn verified_slice(&self, offset: u64, len: u64) -> Option<Bytes> {
        if self.data.len() != self.len {
            return None;
        }
        let end = offset.saturating_add(len).min(self.len as u64) as usize;
        let start = offset.min(end as u64) as usize;
        if start == end {
            return Some(Bytes::new());
        }
        let first = start / self.block_len;
        let covering = &self.digests[first..end.div_ceil(self.block_len)];
        let blocks = self.data[first * self.block_len..].chunks(self.block_len);
        blocks
            .zip(covering)
            .all(|(block, digest)| xxh64(block) == *digest)
            .then(|| self.data.slice(start..end))
    }
}

/// Bound on per-key invalidation epochs kept; exceeding it clears the table
/// and bumps the generation (safe: outstanding populates are skipped).
pub(crate) const EPOCH_CAP: usize = 65_536;

struct CacheInner {
    map: HashMap<String, Entry>,
    /// Recency index: the tick of each entry's last use (insert or hit) →
    /// its key. Ticks only grow, so the first entry is the least recently
    /// used and every LRU operation is O(log entries).
    recency: BTreeMap<u64, String>,
    next_tick: u64,
    used: u64,
    hits: u64,
    misses: u64,
    /// Entries dropped because their bytes no longer matched the digest
    /// recorded at insert (served as a miss, never as corrupt data).
    corruptions: u64,
    /// Per-key invalidation counters (low 32 bits of the epoch).
    epochs: HashMap<String, u32>,
    /// Epoch high bits; bumped whenever the per-key table is reset.
    generation: u32,
}

impl CacheInner {
    fn epoch_of(&self, key: &str) -> u64 {
        ((self.generation as u64) << 32) | self.epochs.get(key).copied().unwrap_or(0) as u64
    }

    /// Drops `key`'s entry, keeping the byte accounting and the recency
    /// index exact.
    fn remove(&mut self, key: &str) {
        if let Some(old) = self.map.remove(key) {
            self.used -= old.len as u64;
            self.recency.remove(&old.tick);
        }
    }

    fn bump_epoch(&mut self, key: &str) {
        let counter = self.epochs.entry(key.to_string()).or_insert(0);
        *counter = counter.wrapping_add(1);
        if self.epochs.len() > EPOCH_CAP {
            self.epochs.clear();
            self.generation = self.generation.wrapping_add(1);
        }
    }
}

/// A byte-bounded LRU cache for fully reassembled objects.
pub struct Cache {
    capacity: u64,
    inner: Mutex<CacheInner>,
}

impl Cache {
    /// Creates a cache bounded to `capacity` bytes. A zero capacity disables
    /// caching entirely (every lookup misses).
    pub fn new(capacity: ByteSize) -> Self {
        Cache {
            capacity: capacity.bytes(),
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                recency: BTreeMap::new(),
                next_tick: 0,
                used: 0,
                hits: 0,
                misses: 0,
                corruptions: 0,
                epochs: HashMap::new(),
                generation: 0,
            }),
        }
    }

    /// Creates a shared cache.
    pub(crate) fn shared(capacity: ByteSize) -> Arc<Self> {
        Arc::new(Self::new(capacity))
    }

    /// Looks up an object, refreshing its recency on a hit: the full-range
    /// case of `Cache::get_range`, so every block is verified.
    pub fn get(&self, key: &str) -> Option<Bytes> {
        self.get_range(key, 0, u64::MAX).map(|(data, _)| data)
    }

    /// Looks up the bytes `[offset, offset + len)` of an object, clamped to
    /// its end, refreshing its recency on a hit. Returns them with the
    /// object's full size; an empty or past-EOF range of a cached object is
    /// a hit that returns empty bytes.
    ///
    /// Every hit cross-checks the entry's length, and the digest of each
    /// block the range touches, against what was recorded at insert —
    /// **outside** the lock, so hashing a large entry never stalls the other
    /// readers and writers of this datacenter. A mismatch **fails closed**:
    /// the corrupt entry is dropped and the lookup reported as a miss, so
    /// the engine refetches from the providers instead of serving damaged
    /// bytes.
    pub(crate) fn get_range(&self, key: &str, offset: u64, len: u64) -> Option<(Bytes, u64)> {
        let entry = {
            let mut guard = self.inner.lock();
            let inner = &mut *guard;
            let Some(entry) = inner.map.get_mut(key) else {
                inner.misses += 1;
                return None;
            };
            if let Some(indexed_key) = inner.recency.remove(&entry.tick) {
                entry.tick = inner.next_tick;
                inner.recency.insert(entry.tick, indexed_key);
                inner.next_tick += 1;
            }
            inner.hits += 1;
            entry.clone()
        };
        if let Some(slice) = entry.verified_slice(offset, len) {
            return Some((slice, entry.len as u64));
        }
        // Corrupt: evict (unless a writer already replaced the entry — its
        // bytes are not the ones that failed), count, and turn the hit
        // recorded above into a miss.
        let mut inner = self.inner.lock();
        if inner
            .map
            .get(key)
            .is_some_and(|current| current.data.as_ptr() == entry.data.as_ptr())
        {
            inner.remove(key);
        }
        inner.corruptions += 1;
        inner.hits -= 1;
        inner.misses += 1;
        None
    }

    /// Inserts an object, evicting least-recently-used entries as needed.
    /// Objects larger than the whole cache are not cached.
    pub fn put(&self, key: &str, data: Bytes) {
        self.insert(key, data, None, None);
    }

    /// The key's current invalidation epoch. Readers snapshot this *before*
    /// reading the object's metadata, so [`Cache::put_if_epoch`] can tell
    /// whether any write invalidated the key while the payload was being
    /// fetched.
    pub(crate) fn read_epoch(&self, key: &str) -> u64 {
        if self.capacity == 0 {
            return 0; // no populate can follow, so there is nothing to gate
        }
        self.inner.lock().epoch_of(key)
    }

    /// Whether an object of `len` bytes could ever be inserted. When not,
    /// a populate is refused whatever the epoch, and the caller need not
    /// order itself against writers to attempt one.
    pub(crate) fn admits(&self, len: usize) -> bool {
        self.capacity > 0 && len as u64 <= self.capacity
    }

    /// Inserts only if the key's invalidation epoch still equals `epoch`
    /// (snapshotted via [`Cache::read_epoch`] before the metadata read).
    /// Returns whether the insert happened. A concurrent write's
    /// invalidation bumps the epoch, so a payload fetched for a deprecated
    /// version can never land after the invalidation that should have
    /// covered it.
    ///
    /// `digests` are the block digests the caller has **just verified**
    /// `data` against; the entry records them as they are and nothing is
    /// hashed here. Without them — or when they do not fit the payload
    /// (wrong count, zero block length) — the payload is hashed once, as
    /// one block.
    pub(crate) fn put_if_epoch(
        &self,
        key: &str,
        data: Bytes,
        digests: Option<BlockDigests>,
        epoch: u64,
    ) -> bool {
        self.insert(key, data, digests, Some(epoch))
    }

    /// The insert behind [`Cache::put`] and [`Cache::put_if_epoch`]. Any
    /// hashing happens before the lock is taken.
    fn insert(
        &self,
        key: &str,
        data: Bytes,
        digests: Option<BlockDigests>,
        epoch: Option<u64>,
    ) -> bool {
        if !self.admits(data.len()) {
            return false;
        }
        let size = data.len() as u64;
        let BlockDigests { block_len, digests } = digests
            .filter(|recorded| recorded.fit(data.len()))
            .unwrap_or_else(|| BlockDigests::of(&data));

        let mut inner = self.inner.lock();
        if epoch.is_some_and(|epoch| inner.epoch_of(key) != epoch) {
            return false;
        }
        inner.remove(key);
        while inner.used + size > self.capacity {
            let Some((_, victim)) = inner.recency.pop_first() else {
                break;
            };
            inner.remove(&victim);
        }
        let tick = inner.next_tick;
        inner.next_tick += 1;
        inner.recency.insert(tick, key.to_string());
        let entry = Entry {
            len: data.len(),
            block_len,
            digests: digests.into(),
            data,
            tick,
        };
        inner.map.insert(key.to_string(), entry);
        inner.used += size;
        true
    }

    /// Invalidates one object (called on writes and deletes, in every
    /// datacenter) and bumps its invalidation epoch, so in-flight reads of
    /// the deprecated version skip their populate.
    pub fn invalidate(&self, key: &str) {
        if self.capacity == 0 {
            return; // holds nothing, and no snapshot can lead to an insert
        }
        let mut inner = self.inner.lock();
        inner.remove(key);
        inner.bump_epoch(key);
    }

    /// Empties the cache. Bumps the epoch generation so every outstanding
    /// populate snapshot is conservatively stale.
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.map.clear();
        inner.recency.clear();
        inner.used = 0;
        inner.epochs.clear();
        inner.generation = inner.generation.wrapping_add(1);
    }

    /// Number of cached objects.
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Returns `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses)` counters since creation.
    pub fn stats(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.hits, inner.misses)
    }

    /// Entries dropped by the hit-path integrity check since creation.
    pub fn corruption_count(&self) -> u64 {
        self.inner.lock().corruptions
    }

    /// Corrupts the byte at `offset` of a cached entry in place (past the
    /// end: grows the entry by a byte) **without** updating its recorded
    /// digests — a stand-in for in-process memory damage, used by integrity
    /// tests. Returns whether the key was present.
    #[doc(hidden)]
    pub fn corrupt_entry_for_test(&self, key: &str, offset: usize) -> bool {
        let mut inner = self.inner.lock();
        let Some(entry) = inner.map.get_mut(key) else {
            return false;
        };
        let mut bytes = entry.data.to_vec();
        match bytes.get_mut(offset) {
            Some(b) => *b = b.wrapping_add(1),
            None => bytes.push(0xFF),
        }
        entry.data = Bytes::from(bytes);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss_accounting() {
        let cache = Cache::new(ByteSize::from_kb(10));
        assert!(cache.get("a").is_none());
        cache.put("a", Bytes::from_static(b"hello"));
        assert_eq!(cache.get("a").unwrap(), Bytes::from_static(b"hello"));
        let (hits, misses) = cache.stats();
        assert_eq!((hits, misses), (1, 1));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.inner.lock().used, 5);
    }

    #[test]
    fn lru_eviction_order() {
        let cache = Cache::new(ByteSize::from_bytes(30));
        cache.put("a", Bytes::from(vec![0u8; 10]));
        cache.put("b", Bytes::from(vec![0u8; 10]));
        cache.put("c", Bytes::from(vec![0u8; 10]));
        // Touch "a" so "b" becomes the LRU victim.
        cache.get("a");
        cache.put("d", Bytes::from(vec![0u8; 10]));
        assert!(cache.get("a").is_some());
        assert!(cache.get("b").is_none(), "b should have been evicted");
        assert!(cache.get("c").is_some());
        assert!(cache.get("d").is_some());
        assert!(cache.inner.lock().used <= 30);
    }

    #[test]
    fn oversized_objects_are_not_cached() {
        let cache = Cache::new(ByteSize::from_bytes(10));
        cache.put("big", Bytes::from(vec![0u8; 100]));
        assert!(cache.is_empty());
        assert!(cache.get("big").is_none());
    }

    #[test]
    fn invalidate_and_clear() {
        let cache = Cache::new(ByteSize::from_kb(1));
        cache.put("a", Bytes::from_static(b"1"));
        cache.put("b", Bytes::from_static(b"2"));
        cache.invalidate("a");
        assert!(cache.get("a").is_none());
        assert!(cache.get("b").is_some());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.inner.lock().used, 0);
        // Invalidating a missing key is a no-op.
        cache.invalidate("zzz");
    }

    #[test]
    fn overwrite_updates_size_accounting() {
        let cache = Cache::new(ByteSize::from_bytes(100));
        cache.put("a", Bytes::from(vec![0u8; 40]));
        cache.put("a", Bytes::from(vec![0u8; 10]));
        assert_eq!(cache.inner.lock().used, 10);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn epoch_gates_stale_populates() {
        let cache = Cache::new(ByteSize::from_kb(1));
        let epoch = cache.read_epoch("k");
        assert!(cache.put_if_epoch("k", Bytes::from_static(b"v1"), None, epoch));
        assert_eq!(cache.get("k").unwrap(), Bytes::from_static(b"v1"));

        // A write's invalidation bumps the epoch: a reader that snapshotted
        // before the write can no longer insert its (now deprecated) bytes.
        cache.invalidate("k");
        assert!(!cache.put_if_epoch("k", Bytes::from_static(b"stale"), None, epoch));
        assert!(cache.get("k").is_none());

        // A fresh snapshot works again.
        let fresh = cache.read_epoch("k");
        assert_ne!(fresh, epoch);
        assert!(cache.put_if_epoch("k", Bytes::from_static(b"v2"), None, fresh));

        // clear() bumps the generation: every outstanding snapshot — even
        // of keys never individually invalidated — becomes stale.
        let other = cache.read_epoch("other");
        cache.clear();
        assert!(!cache.put_if_epoch("other", Bytes::from_static(b"x"), None, other));
        assert!(cache.is_empty());
    }

    #[test]
    fn corrupt_entry_fails_closed_as_a_miss() {
        let cache = Cache::new(ByteSize::from_kb(10));
        cache.put("a", Bytes::from(vec![7u8; 100]));
        cache.put("b", Bytes::from(vec![8u8; 100]));
        assert!(cache.corrupt_entry_for_test("a", 0));
        assert_eq!(cache.corruption_count(), 0, "detection happens on read");

        // The damaged entry is never served: the hit path drops it and
        // reports a miss, and the byte accounting stays exact.
        assert!(cache.get("a").is_none());
        assert_eq!(cache.corruption_count(), 1);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.inner.lock().used, 100);

        // The healthy entry still verifies, and a re-insert of the damaged
        // key records a fresh digest that verifies again.
        assert_eq!(cache.get("b").unwrap(), Bytes::from(vec![8u8; 100]));
        cache.put("a", Bytes::from(vec![9u8; 50]));
        assert_eq!(cache.get("a").unwrap(), Bytes::from(vec![9u8; 50]));
        assert_eq!(cache.corruption_count(), 1);

        // A zero-length entry corrupts (grows a byte) and is caught by the
        // length cross-check.
        cache.put("empty", Bytes::new());
        assert!(cache.corrupt_entry_for_test("empty", 0));
        assert!(cache.get("empty").is_none());
        assert_eq!(cache.corruption_count(), 2);
    }

    /// 350 bytes in blocks of 100 (the last one short), inserted under
    /// digests the caller computed — the shape of a populate after a cold
    /// striped read.
    fn four_block_entry(cache: &Cache, key: &str) -> Vec<u8> {
        let payload: Vec<u8> = (0..350u32).map(|i| (i * 7 % 251) as u8).collect();
        let digests = BlockDigests {
            block_len: 100,
            digests: payload.chunks(100).map(xxh64).collect(),
        };
        let epoch = cache.read_epoch(key);
        assert!(cache.put_if_epoch(key, Bytes::from(payload.clone()), Some(digests), epoch));
        payload
    }

    #[test]
    fn a_ranged_hit_verifies_only_the_blocks_it_returns() {
        let cache = Cache::new(ByteSize::from_kb(10));
        let payload = four_block_entry(&cache, "k");
        assert_eq!(cache.get("k").unwrap(), Bytes::from(payload.clone()));
        assert!(cache.corrupt_entry_for_test("k", 250));

        // Ranges inside blocks 0–1 or block 3 never read the damaged block.
        for (offset, len) in [(0u64, 200u64), (30, 100), (199, 1), (300, 50), (310, 1_000)] {
            let (slice, size) = cache
                .get_range("k", offset, len)
                .expect("healthy blocks hit");
            let end = (offset + len).min(350) as usize;
            assert_eq!(&slice[..], &payload[offset as usize..end], "{offset}+{len}");
            assert_eq!(size, 350);
        }
        assert_eq!(cache.corruption_count(), 0);
        assert_eq!(cache.stats(), (6, 0));

        // A range touching block 2 misses, evicts and counts the corruption…
        assert!(cache.get_range("k", 150, 100).is_none());
        assert_eq!(cache.corruption_count(), 1);
        assert_eq!(cache.stats(), (6, 1));
        assert!(cache.is_empty());
        assert_eq!(cache.inner.lock().used, 0);

        // …and so does a full get, which covers every block.
        four_block_entry(&cache, "k");
        assert!(cache.corrupt_entry_for_test("k", 250));
        assert!(cache.get("k").is_none());
        assert_eq!(cache.corruption_count(), 2);
        assert!(cache.is_empty());
    }

    #[test]
    fn empty_and_past_eof_ranges_hit_without_verifying() {
        let cache = Cache::new(ByteSize::from_kb(10));
        four_block_entry(&cache, "k");
        // Every block damaged: any verification at all would evict.
        for offset in [0, 100, 200, 300] {
            assert!(cache.corrupt_entry_for_test("k", offset));
        }
        for (offset, len) in [(0u64, 0u64), (120, 0), (350, 10), (9_000, u64::MAX)] {
            let (slice, size) = cache.get_range("k", offset, len).expect("cached");
            assert!(slice.is_empty(), "{offset}+{len}");
            assert_eq!(size, 350);
        }
        assert_eq!(cache.corruption_count(), 0);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn digests_that_do_not_match_the_bytes_never_serve_them() {
        let cache = Cache::new(ByteSize::from_kb(10));
        let payload = Bytes::from(vec![5u8; 300]);
        let mut digests: Vec<u64> = payload.chunks(100).map(xxh64).collect();
        digests[1] ^= 1;
        let recorded = BlockDigests {
            block_len: 100,
            digests,
        };
        let epoch = cache.read_epoch("k");
        assert!(cache.put_if_epoch("k", payload.clone(), Some(recorded), epoch));
        // The vouched-for blocks serve; the one the digests disown does not.
        assert_eq!(
            cache.get_range("k", 0, 100).unwrap().0,
            payload.slice(0..100)
        );
        assert!(cache.get_range("k", 100, 1).is_none());
        assert_eq!(cache.corruption_count(), 1);
        assert!(cache.is_empty());

        // Digests that do not even fit the payload are ignored: the entry
        // is hashed at insert instead, and verifies.
        for (block_len, count) in [(0usize, 3usize), (100, 2), (100, 4)] {
            let unfit = BlockDigests {
                block_len,
                digests: vec![0; count],
            };
            let epoch = cache.read_epoch("k");
            assert!(cache.put_if_epoch("k", payload.clone(), Some(unfit), epoch));
            assert_eq!(cache.get("k").unwrap(), payload);
        }
        assert_eq!(cache.corruption_count(), 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = Cache::new(ByteSize::ZERO);
        cache.put("a", Bytes::from_static(b"x"));
        assert!(cache.get("a").is_none());
        // Not even an empty payload fits "nothing".
        cache.put("empty", Bytes::new());
        assert!(cache.get("empty").is_none());

        // A cache that can hold nothing keeps no books either: invalidations
        // leave no epoch behind, snapshots are constant, populates are
        // refused before the lock — and lookups still count as misses.
        let epoch = cache.read_epoch("a");
        cache.invalidate("a");
        cache.invalidate("a");
        assert_eq!(cache.read_epoch("a"), epoch);
        assert!(!cache.put_if_epoch("a", Bytes::from_static(b"x"), None, epoch));
        assert!(!cache.admits(0));
        assert!(cache.inner.lock().epochs.is_empty());
        assert_eq!(cache.stats(), (0, 2));
    }
}
