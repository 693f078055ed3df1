//! Offline shim for `rayon`: only [`current_num_threads`] is left.
//!
//! The workspace runs no thread pool and starts no thread: chunk
//! round-trips are virtual-time events run on their caller (see the
//! engine's `chunk_io`), and so is everything else. This crate exists
//! only because `benchmark/src/sut.rs` still reports the metric
//! `rayon.pool_workers` through this function; it is deleted once that
//! file stops calling it.

#![forbid(unsafe_code)]

/// The worker count rayon's global pool would size itself to:
/// `std::thread::available_parallelism()`, or 1 if that is unknown.
pub fn current_num_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
