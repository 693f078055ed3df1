//! Offline shim for `bytes`.
//!
//! An immutable, cheaply clonable byte buffer — the subset of
//! `bytes::Bytes` this workspace uses. As in the real crate a `Bytes` is a
//! window (`offset`, `len`) onto a reference-counted buffer: converting a
//! `Vec<u8>` takes ownership of its allocation instead of copying it, and
//! [`Bytes::slice`] shares the buffer with its parent. Equality, ordering
//! and hashing look at the window's contents only.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply clonable contiguous slice of memory.
#[derive(Clone)]
pub struct Bytes {
    /// The shared allocation. A boxed slice, so a long-lived buffer (a
    /// stored chunk, a cache entry) never pins unused `Vec` capacity.
    buffer: Arc<Box<[u8]>>,
    offset: usize,
    len: usize,
}

impl Bytes {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Bytes::from(Vec::new())
    }

    /// Copies a static byte slice into a new buffer.
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes::copy_from_slice(bytes)
    }

    /// Copies a slice into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// Number of bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Copies the contents into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// The sub-window `range` of this buffer, sharing its allocation (no
    /// bytes are copied; the parent allocation lives as long as any window
    /// onto it).
    ///
    /// # Panics
    ///
    /// Panics when `range` is decreasing or reaches past `self.len()`.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let start = match range.start_bound() {
            Bound::Included(&start) => start,
            Bound::Excluded(&start) => start + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&end) => end + 1,
            Bound::Excluded(&end) => end,
            Bound::Unbounded => self.len,
        };
        assert!(
            start <= end && end <= self.len,
            "slice {start}..{end} out of range for Bytes of length {}",
            self.len
        );
        Bytes {
            buffer: Arc::clone(&self.buffer),
            offset: self.offset + start,
            len: end - start,
        }
    }

    fn as_slice(&self) -> &[u8] {
        &self.buffer[self.offset..self.offset + self.len]
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::borrow::Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    /// Takes ownership of the vector's allocation. A vector filled to its
    /// capacity moves without copying; spare capacity is given back to the
    /// allocator first.
    fn from(v: Vec<u8>) -> Self {
        let len = v.len();
        Bytes {
            buffer: Arc::new(v.into_boxed_slice()),
            offset: 0,
            len,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl From<String> for Bytes {
    fn from(v: String) -> Self {
        Bytes::from(v.into_bytes())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    // Must agree with `[u8]`'s hash: `Bytes: Borrow<[u8]>`.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes(len={})", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_equality() {
        let a = Bytes::from(vec![1u8, 2, 3]);
        let b = Bytes::copy_from_slice(&[1, 2, 3]);
        assert_eq!(a, b);
        assert_eq!(a[0], 1);
        assert_eq!(a.len(), 3);
        assert_eq!(&a[..], &[1, 2, 3]);
        assert_eq!(Bytes::from_static(b"hi").to_vec(), b"hi".to_vec());
        assert!(Bytes::new().is_empty());
    }

    #[test]
    fn clone_shares_storage() {
        let a = Bytes::from(vec![9u8; 1024]);
        let b = a.clone();
        assert_eq!(a.as_ptr(), b.as_ptr());
    }

    #[test]
    fn from_vec_moves_the_allocation() {
        let v = vec![7u8; 4096];
        let ptr = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), ptr, "a full vector must not be copied");
        assert_eq!(b.len(), 4096);

        // Spare capacity is not retained: the contents survive the shrink.
        let mut slack = Vec::with_capacity(1 << 16);
        slack.extend_from_slice(b"abc");
        assert_eq!(Bytes::from(slack), Bytes::from_static(b"abc"));
    }

    #[test]
    fn slice_shares_storage_and_composes() {
        let a = Bytes::from((0u8..100).collect::<Vec<u8>>());
        let mid = a.slice(10..60);
        assert_eq!(mid.as_ptr(), a[10..].as_ptr(), "slice must not copy");
        assert_eq!(&mid[..], &a[10..60]);

        // A slice of a slice is relative to the inner window.
        let inner = mid.slice(5..=9);
        assert_eq!(inner.as_ptr(), a[15..].as_ptr());
        assert_eq!(&inner[..], &[15, 16, 17, 18, 19]);
        assert_eq!(mid.slice(..).len(), 50);
        assert_eq!(mid.slice(50..), Bytes::new());
        assert_eq!(&mid.slice(..2)[..], &[10, 11]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_past_the_window_panics_even_inside_the_allocation() {
        let a = Bytes::from(vec![0u8; 100]);
        // Byte 60 exists in the allocation but not in the 50-byte window.
        let _ = a.slice(10..60).slice(0..51);
    }

    #[test]
    fn comparisons_look_at_the_window_contents_only() {
        use std::collections::hash_map::DefaultHasher;
        let hash_of = |value: &dyn Fn(&mut DefaultHasher)| {
            let mut hasher = DefaultHasher::new();
            value(&mut hasher);
            hasher.finish()
        };
        let whole = Bytes::from(vec![1u8, 2, 3]);
        let window = Bytes::from(vec![0u8, 1, 2, 3, 4]).slice(1..4);
        assert_ne!(window.as_ptr(), whole.as_ptr());
        assert_eq!(window, whole);
        assert_eq!(window.cmp(&whole), Ordering::Equal);
        let (greater, prefix) = (Bytes::from(vec![1u8, 2, 4]), whole.slice(..2));
        assert!(window < greater && window > prefix);
        assert_eq!(
            hash_of(&|h| window.hash(h)),
            hash_of(&|h| whole.hash(h)),
            "equal contents must hash equally"
        );
        assert_eq!(
            hash_of(&|h| window.hash(h)),
            hash_of(&|h| [1u8, 2, 3][..].hash(h)),
            "Borrow<[u8]> requires the slice's hash"
        );
        assert_eq!(format!("{window:?}"), format!("{whole:?}"));
        assert_eq!(window, vec![1u8, 2, 3]);
        assert_eq!(window, &[1u8, 2, 3][..]);
    }
}
