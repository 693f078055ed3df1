//! Parallel iterator adaptors on top of the pool.
//!
//! Unlike rayon's lazy splitting, the shim is **eager**: every adaptor
//! materialises its input as a `Vec`, splits it into `~4 × workers` chunks,
//! runs the per-item closure chunk-by-chunk on the pool ([`crate::pool`])
//! and reassembles the results **in input order**. That keeps the types
//! trivial while preserving rayon's observable semantics:
//!
//! * `map`/`flat_map_iter`/`collect` produce exactly the sequential order;
//! * `reduce(identity, op)` folds each chunk left-to-right from `identity()`
//!   and then folds the chunk results left-to-right, so any **associative**
//!   `op` yields the sequential result bit-for-bit (the differential suite
//!   in `tests/pool_differential.rs` at the workspace root pins this across
//!   pool sizes);
//! * a 1-worker pool short-circuits to plain sequential execution — the
//!   "sequential fallback" CI exercises with `SCALIA_POOL_WORKERS=1`.
//!
//! Closures need `Fn + Send + Sync` (they are shared by reference across
//! worker threads) and items/results need `Send`, exactly like rayon.

use crate::pool::{current_pool, scope_execute};
use std::sync::Mutex;

/// An eagerly-evaluated parallel iterator over already-materialised items.
pub struct ParIter<T: Send> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Wraps a materialised item list.
    pub(crate) fn new(items: Vec<T>) -> Self {
        ParIter { items }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` if there are no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Applies `f` to every item in parallel, preserving order.
    pub fn map<U, F>(self, f: F) -> ParIter<U>
    where
        U: Send,
        F: Fn(T) -> U + Send + Sync,
    {
        ParIter::new(run_chunked(self.items, |chunk| {
            chunk.into_iter().map(&f).collect::<Vec<_>>()
        }))
    }

    /// rayon's `flat_map_iter`: flat-map with a serial inner iterator,
    /// parallel across outer items, order-preserving.
    pub fn flat_map_iter<U, F>(self, f: F) -> ParIter<U::Item>
    where
        U: IntoIterator,
        U::Item: Send,
        F: Fn(T) -> U + Send + Sync,
    {
        ParIter::new(run_chunked(self.items, |chunk| {
            chunk.into_iter().flat_map(&f).collect::<Vec<_>>()
        }))
    }

    /// Keeps the items for which `f` returns `true`, in order.
    pub fn filter<F>(self, f: F) -> ParIter<T>
    where
        F: Fn(&T) -> bool + Send + Sync,
    {
        ParIter::new(run_chunked(self.items, |chunk| {
            chunk.into_iter().filter(|item| f(item)).collect::<Vec<_>>()
        }))
    }

    /// Runs `f` on every item in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Send + Sync,
    {
        run_chunked(self.items, |chunk| {
            chunk.into_iter().for_each(&f);
        });
    }

    /// Parallel fold: each chunk folds left-to-right starting from
    /// `identity()`, then the chunk results fold left-to-right. Equals the
    /// sequential fold for any associative `op` with `identity()` as its
    /// neutral element.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> T
    where
        ID: Fn() -> T + Send + Sync,
        OP: Fn(T, T) -> T + Send + Sync,
    {
        if self.items.is_empty() {
            return identity();
        }
        run_chunked(self.items, |chunk| {
            Single(chunk.into_iter().fold(identity(), &op))
        })
        .into_iter()
        .fold(identity(), &op)
    }

    /// Total item count (rayon's `ParallelIterator::count`).
    pub fn count(self) -> usize {
        self.items.len()
    }

    /// Collects into any `FromIterator` collection, in input order.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }
}

/// Splits `items` into chunks, runs `per_chunk` on the current pool and
/// concatenates the per-chunk outputs in chunk order. The workhorse behind
/// every terminal: with one worker (or one chunk) it runs inline.
fn run_chunked<T, R, F>(items: Vec<T>, per_chunk: F) -> Vec<R::Flat>
where
    T: Send,
    R: ChunkOutput,
    F: Fn(Vec<T>) -> R + Send + Sync,
{
    let pool = current_pool();
    let workers = pool.workers();
    let len = items.len();
    if workers <= 1 || len <= 1 {
        return per_chunk(items).into_flat();
    }

    // ~4 chunks per worker: enough slack for idle threads to even out
    // skewed per-item costs without drowning in scheduling overhead.
    let chunk_count = len.min(workers * 4);
    let chunk_size = len.div_ceil(chunk_count);
    let mut chunks: Vec<(usize, Vec<T>)> = Vec::with_capacity(chunk_count);
    let mut iter = items.into_iter();
    let mut index = 0;
    loop {
        let chunk: Vec<T> = iter.by_ref().take(chunk_size).collect();
        if chunk.is_empty() {
            break;
        }
        chunks.push((index, chunk));
        index += 1;
    }

    let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(chunks.len()));
    {
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = chunks
            .into_iter()
            .map(|(chunk_index, chunk)| {
                let per_chunk = &per_chunk;
                let results = &results;
                Box::new(move || {
                    let out = per_chunk(chunk);
                    results.lock().unwrap().push((chunk_index, out));
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        scope_execute(&pool, tasks);
    }

    let mut results = results.into_inner().unwrap();
    results.sort_by_key(|(chunk_index, _)| *chunk_index);
    results
        .into_iter()
        .flat_map(|(_, r)| r.into_flat())
        .collect()
}

/// Unifies the two chunk-output shapes (`Vec<U>` for mapping terminals, a
/// single value for folds, `()` for `for_each`) so `run_chunked` can carry
/// all of them.
trait ChunkOutput: Send {
    type Flat: Send;
    fn into_flat(self) -> Vec<Self::Flat>;
}

impl<U: Send> ChunkOutput for Vec<U> {
    type Flat = U;
    fn into_flat(self) -> Vec<U> {
        self
    }
}

impl ChunkOutput for () {
    type Flat = ();
    fn into_flat(self) -> Vec<()> {
        Vec::new()
    }
}

/// Wrapper marking a per-chunk *scalar* result (folds).
pub(crate) struct Single<T>(pub T);

impl<T: Send> ChunkOutput for Single<T> {
    type Flat = T;
    fn into_flat(self) -> Vec<T> {
        vec![self.0]
    }
}

/// By-value conversion into a parallel iterator, mirroring
/// `rayon::iter::IntoParallelIterator`.
pub trait IntoParallelIterator {
    /// Item type.
    type Item: Send;
    /// Converts `self` into a parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: IntoIterator> IntoParallelIterator for T
where
    T::Item: Send,
{
    type Item = T::Item;
    fn into_par_iter(self) -> ParIter<T::Item> {
        ParIter::new(self.into_iter().collect())
    }
}

/// By-reference conversion into a parallel iterator, mirroring
/// `rayon::iter::IntoParallelRefIterator`.
pub trait IntoParallelRefIterator<'data> {
    /// Item type (a reference).
    type Item: Send;
    /// Iterates over `&self`.
    fn par_iter(&'data self) -> ParIter<Self::Item>;
}

impl<'data, T: 'data + ?Sized> IntoParallelRefIterator<'data> for T
where
    &'data T: IntoIterator,
    <&'data T as IntoIterator>::Item: Send,
{
    type Item = <&'data T as IntoIterator>::Item;
    fn par_iter(&'data self) -> ParIter<Self::Item> {
        ParIter::new(self.into_iter().collect())
    }
}
