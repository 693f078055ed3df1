//! Offline shim for `rayon`, backed by a small scoped thread pool.
//!
//! The workspace hands the pool one kind of work: chunk round-trips against
//! backends that really sleep their latency (the engine's chunk-I/O fan-out
//! and its hedged reads), where overlapping waits is the whole win. CPU
//! work — the optimizer's sweeps, the erasure codec — runs on
//! its caller. The pool is therefore one mutex-guarded queue on
//! `std::thread` workers (see [`pool`] for the blocking and shutdown
//! guarantees, and [`iter`] for the adaptor semantics). The API mirrors the
//! subset of rayon the workspace uses:
//!
//! * `prelude::*` with [`IntoParallelIterator`] / [`IntoParallelRefIterator`]
//!   and the `map` / `flat_map_iter` / `filter` / `for_each` / `reduce` /
//!   `collect` adaptors;
//! * [`current_num_threads`];
//! * [`spawn`] (fire-and-forget tasks, used by the engine's hedged chunk
//!   reads so a straggling fetch cannot block the caller) and [`yield_now`]
//!   (cooperative help: execute one pending task inline), mirroring rayon's
//!   functions of the same names;
//! * [`ThreadPool`] / [`ThreadPoolBuilder`] with `install`, so tests can pin
//!   an exact worker count (`ThreadPool::new(8).install(|| ...)`), and
//!   [`ThreadPool::tasks_pushed`], so they can pin that a code path never
//!   reached the pool.
//!
//! Pool sizing: the implicit global pool reads `SCALIA_POOL_WORKERS` (then
//! `RAYON_NUM_THREADS`), defaulting to `available_parallelism()`. Setting it
//! to `1` short-circuits every adaptor to inline sequential execution.
//!
//! The only `unsafe` is the scope's lifetime erasure in
//! `pool::scope_execute`.

#![deny(unsafe_code)]

mod iter;
mod pool;

pub use iter::{IntoParallelIterator, IntoParallelRefIterator, ParIter};
pub use pool::{
    current_num_threads, spawn, yield_now, ThreadPool, ThreadPoolBuildError, ThreadPoolBuilder,
};

/// `prelude::*` imports, mirroring `rayon::prelude`.
pub mod prelude {
    pub use super::{IntoParallelIterator, IntoParallelRefIterator, ParIter};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn par_iter_pipelines_preserve_order() {
        let v = vec![(1, vec!["a"]), (2, vec!["b", "c"])];
        let flat: Vec<&str> = v
            .par_iter()
            .flat_map_iter(|(_, s)| s.iter().copied())
            .collect();
        assert_eq!(flat, vec!["a", "b", "c"]);

        let mut m = BTreeMap::new();
        m.insert("k", 1);
        let pairs: Vec<(&str, i32)> = m.into_par_iter().map(|(k, v)| (k, v * 2)).collect();
        assert_eq!(pairs, vec![("k", 2)]);

        let sum = AtomicUsize::new(0);
        [1usize, 2, 3].par_iter().for_each(|x| {
            sum.fetch_add(*x, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn map_runs_on_multiple_threads() {
        let pool = ThreadPool::new(4);
        let seen = Mutex::new(std::collections::BTreeSet::new());
        pool.install(|| {
            (0..256u64).into_par_iter().for_each(|_| {
                seen.lock()
                    .unwrap()
                    .insert(format!("{:?}", std::thread::current().id()));
                // Give other workers a chance to grab chunks.
                std::thread::yield_now();
            });
        });
        // At least the caller participated; on any machine more than one
        // thread id shows up with high probability, but the hard guarantee
        // is completion, so only assert the work happened.
        assert!(!seen.lock().unwrap().is_empty());
    }

    #[test]
    fn large_map_matches_sequential() {
        let items: Vec<u64> = (0..10_000).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for workers in [1, 2, 8] {
            let pool = ThreadPool::new(workers);
            let got: Vec<u64> =
                pool.install(|| items.clone().into_par_iter().map(|x| x * x + 1).collect());
            assert_eq!(got, expected, "workers={workers}");
        }
    }

    #[test]
    fn reduce_equals_sequential_fold_for_associative_op() {
        let items: Vec<u64> = (1..=1000).collect();
        let expected: u64 = items.iter().sum();
        for workers in [1, 2, 8] {
            let pool = ThreadPool::new(workers);
            let got = pool.install(|| items.clone().into_par_iter().reduce(|| 0u64, |a, b| a + b));
            assert_eq!(got, expected, "workers={workers}");
        }
    }

    #[test]
    fn filter_preserves_order() {
        let got: Vec<u32> = (0..100u32).into_par_iter().filter(|x| x % 7 == 0).collect();
        let expected: Vec<u32> = (0..100).filter(|x| x % 7 == 0).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn nested_parallelism_completes_on_one_worker() {
        // A 1-worker pool must not deadlock on nested par_iters.
        let pool = ThreadPool::new(1);
        let total: u64 = pool.install(|| {
            (0..8u64)
                .into_par_iter()
                .map(|i| {
                    (0..8u64)
                        .into_par_iter()
                        .map(|j| i * j)
                        .reduce(|| 0, |a, b| a + b)
                })
                .reduce(|| 0, |a, b| a + b)
        });
        let expected: u64 = (0..8).map(|i| (0..8).map(|j| i * j).sum::<u64>()).sum();
        assert_eq!(total, expected);
    }

    #[test]
    fn nested_parallelism_completes_on_many_workers() {
        let pool = ThreadPool::new(4);
        let total: u64 = pool.install(|| {
            (0..64u64)
                .into_par_iter()
                .map(|i| {
                    (0..64u64)
                        .into_par_iter()
                        .map(|j| i.wrapping_mul(j) % 97)
                        .reduce(|| 0, |a, b| a + b)
                })
                .reduce(|| 0, |a, b| a + b)
        });
        let expected: u64 = (0..64u64)
            .map(|i| (0..64u64).map(|j| i.wrapping_mul(j) % 97).sum::<u64>())
            .sum();
        assert_eq!(total, expected);
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let pool = ThreadPool::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| {
                (0..64u32).into_par_iter().for_each(|i| {
                    if i == 33 {
                        panic!("boom at {i}");
                    }
                });
            })
        }));
        assert!(result.is_err(), "the task panic must surface");
        // The pool must stay usable after a panic.
        let sum: u32 = pool.install(|| (0..10u32).into_par_iter().reduce(|| 0, |a, b| a + b));
        assert_eq!(sum, 45);
    }

    #[test]
    fn install_scopes_nest_and_restore() {
        let outer = ThreadPool::new(2);
        let inner = ThreadPool::new(8);
        outer.install(|| {
            assert_eq!(current_num_threads(), 2);
            inner.install(|| assert_eq!(current_num_threads(), 8));
            assert_eq!(current_num_threads(), 2);
        });
    }

    #[test]
    fn drop_joins_workers_after_draining() {
        let counter = std::sync::Arc::new(AtomicUsize::new(0));
        {
            let pool = ThreadPool::new(3);
            let counter = counter.clone();
            pool.install(|| {
                (0..100usize).into_par_iter().for_each(|_| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            });
        } // Drop joins here.
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn spawned_tasks_run_detached() {
        use std::sync::Arc;
        let pool = ThreadPool::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        pool.install(|| {
            for _ in 0..16 {
                let counter = counter.clone();
                spawn(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        // No join handle: wait for the workers to drain (bounded).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while counter.load(Ordering::SeqCst) < 16 {
            assert!(
                std::time::Instant::now() < deadline,
                "spawned tasks must complete"
            );
            std::thread::yield_now();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn yield_now_lets_the_caller_help() {
        use std::sync::Arc;
        // A 1-worker pool whose only worker is kept busy: the caller must be
        // able to drain its own spawned task via yield_now.
        let pool = ThreadPool::new(1);
        let ran = Arc::new(AtomicUsize::new(0));
        pool.install(|| {
            let task_ran = ran.clone();
            spawn(move || {
                task_ran.fetch_add(1, Ordering::SeqCst);
            });
            // Either the worker takes it or we do; helping must not spin
            // forever and must eventually observe completion.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
            while ran.load(Ordering::SeqCst) == 0 {
                assert!(std::time::Instant::now() < deadline);
                yield_now();
            }
        });
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn empty_input_short_circuits() {
        let v: Vec<u32> = Vec::new();
        let out: Vec<u32> = v.into_par_iter().map(|x| x + 1).collect();
        assert!(out.is_empty());
        let folded = Vec::<u32>::new().into_par_iter().reduce(|| 7, |a, b| a + b);
        assert_eq!(folded, 7, "reduce of empty input is the identity");
    }

    /// Four external threads share one pool, each running nested `par_iter`
    /// scopes and then 5 000 fire-and-forget `spawn`s that nobody waits
    /// for. Every task must run exactly once (sum + count), and dropping
    /// the pool must drain whatever is still queued before it joins.
    #[test]
    fn external_threads_nesting_scopes_and_spawning_run_every_task_once() {
        use std::sync::atomic::AtomicU64;
        use std::sync::Arc;
        const THREADS: u64 = 4;
        const SPAWNS: u64 = 5_000;
        let nested_expected: u64 = (0..32u64)
            .map(|i| (0..16u64).map(|j| i * 16 + j).sum::<u64>())
            .sum();
        for workers in [1, 2, 8] {
            let pool = ThreadPool::new(workers);
            let sum = Arc::new(AtomicU64::new(0));
            let count = Arc::new(AtomicU64::new(0));
            std::thread::scope(|s| {
                for thread in 0..THREADS {
                    let (pool, sum, count) = (&pool, &sum, &count);
                    s.spawn(move || {
                        pool.install(|| {
                            let nested: u64 = (0..32u64)
                                .into_par_iter()
                                .map(|i| {
                                    (0..16u64)
                                        .into_par_iter()
                                        .map(|j| i * 16 + j)
                                        .reduce(|| 0, |a, b| a + b)
                                })
                                .reduce(|| 0, |a, b| a + b);
                            assert_eq!(nested, nested_expected, "workers={workers}");
                            for i in 0..SPAWNS {
                                let value = thread * SPAWNS + i + 1;
                                let (sum, count) = (sum.clone(), count.clone());
                                spawn(move || {
                                    sum.fetch_add(value, Ordering::Relaxed);
                                    count.fetch_add(1, Ordering::Relaxed);
                                });
                            }
                        });
                    });
                }
            });
            assert!(pool.tasks_pushed() >= (THREADS * SPAWNS) as usize);
            drop(pool);
            let n = THREADS * SPAWNS;
            assert_eq!(count.load(Ordering::Relaxed), n, "workers={workers}");
            assert_eq!(
                sum.load(Ordering::Relaxed),
                n * (n + 1) / 2,
                "workers={workers}"
            );
        }
    }
}
