//! The scoped thread pool behind the `rayon` shim: one mutex-guarded FIFO
//! queue and a condvar.
//!
//! # Scheduling
//!
//! A pool owns `N` worker threads (`N` from [`ThreadPoolBuilder::num_threads`],
//! the `SCALIA_POOL_WORKERS` / `RAYON_NUM_THREADS` environment variables, or
//! `std::thread::available_parallelism()` for the global pool). Every task —
//! a scope's chunk or a [`spawn`] — is pushed onto the back of one
//! `VecDeque` under the pool's mutex, and one idle worker is notified. A
//! worker pops from the front and, when the queue is empty, waits on the
//! condvar without a timeout: a push enqueues under the mutex the worker
//! checks the queue with, so the worker either sees the task or is already
//! waiting when the notify comes, and no wakeup is lost.
//!
//! The pool's job is to overlap work that really waits (chunk round-trips
//! against backends that sleep their latency, where a sleeping worker needs
//! no core), not to split CPU work finely, so one queue is all the
//! scheduling it needs.
//!
//! # Scopes, blocking and deadlock-freedom
//!
//! All parallel iterator terminals execute through a [`Scope`]: the caller
//! pushes its batch of tasks, then **helps** while it waits — it pops
//! pending tasks (from *any* scope, exactly like rayon), and only when the
//! queue is empty does it park on the scope's completion latch (with a short
//! timeout, so work pushed later still gets its help). A worker that blocks
//! on a nested scope helps the same way, so a 1-worker pool still completes
//! arbitrarily nested parallelism and no configuration can deadlock on an
//! empty queue.
//!
//! Tasks may borrow from the waiting caller's stack: [`scope_execute`] does
//! not return until every pushed task has finished (the pending latch hits
//! zero), which is what makes its one lifetime erasure sound.
//!
//! # Panics
//!
//! A panicking task never takes down a worker: panics are caught, the first
//! payload is stashed in the scope, the remaining tasks still run, and the
//! payload is re-thrown in the caller once the scope completes — the same
//! observable behaviour as rayon.
//!
//! # Shutdown guarantees
//!
//! Dropping an owned [`ThreadPool`] sets the shutdown flag, wakes every
//! worker and **joins** them; a worker exits only once the queue is empty,
//! so no accepted task is dropped. The global pool lives for the whole
//! process and is torn down by process exit (its threads are daemons — they
//! hold no state that needs unwinding).

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// A unit of work. Scoped tasks are lifetime-erased to `'static`; soundness
/// is provided by [`scope_execute`] not returning before they all finish.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// What the pool's mutex guards.
#[derive(Default)]
struct Queue {
    tasks: VecDeque<Task>,
    /// Set when the owning `ThreadPool` is dropped.
    shutdown: bool,
}

/// Shared state of one pool (workers and external callers both hold it).
pub(crate) struct PoolState {
    queue: Mutex<Queue>,
    /// Notified once per push, and for everyone at shutdown.
    ready: Condvar,
    workers: usize,
    /// Tasks ever pushed — a statistic (it publishes nothing, so `Relaxed`)
    /// that lets a test assert a region of code never reached the pool.
    pushed: AtomicUsize,
}

impl PoolState {
    fn new(workers: usize) -> Arc<Self> {
        Arc::new(PoolState {
            queue: Mutex::new(Queue::default()),
            ready: Condvar::new(),
            workers,
            pushed: AtomicUsize::new(0),
        })
    }

    /// Number of worker threads.
    pub(crate) fn workers(&self) -> usize {
        self.workers
    }

    /// Locks the queue. No task runs under this lock, and every update (a
    /// push, a pop, the shutdown flag) leaves the queue valid, so a guard
    /// poisoned by a panic elsewhere is still a good one.
    fn queue(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, task: Task) {
        self.pushed.fetch_add(1, Ordering::Relaxed);
        self.queue().tasks.push_back(task);
        self.ready.notify_one();
    }

    /// The oldest pending task, if any.
    fn pop(&self) -> Option<Task> {
        self.queue().tasks.pop_front()
    }

    /// Waits for the next task; `None` once the pool shuts down with the
    /// queue drained.
    fn next_task(&self) -> Option<Task> {
        let mut queue = self.queue();
        loop {
            if let Some(task) = queue.tasks.pop_front() {
                return Some(task);
            }
            if queue.shutdown {
                return None;
            }
            queue = self
                .ready
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

std::thread_local! {
    /// Set inside worker threads: the pool they serve.
    static WORKER: std::cell::RefCell<Option<Arc<PoolState>>> =
        const { std::cell::RefCell::new(None) };
    /// Pool selected by `ThreadPool::install`, overriding the global pool.
    static INSTALLED: std::cell::RefCell<Vec<Arc<PoolState>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

fn worker_loop(pool: Arc<PoolState>) {
    WORKER.with(|w| *w.borrow_mut() = Some(pool.clone()));
    while let Some(task) = pool.next_task() {
        task();
    }
}

fn spawn_workers(state: &Arc<PoolState>, name: &str) -> Vec<JoinHandle<()>> {
    (0..state.workers)
        .map(|index| {
            let state = state.clone();
            std::thread::Builder::new()
                .name(format!("{name}-{index}"))
                .spawn(move || worker_loop(state))
                .expect("spawn pool worker")
        })
        .collect()
}

/// Completion latch + panic slot for one batch of pushed tasks.
struct Scope {
    pending: AtomicUsize,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Parking spot for the waiter: flipped to `true` (and notified) by the
    /// task that brings `pending` to zero, so the waiter need not spin
    /// through the tail of the slowest task.
    done: Mutex<bool>,
    done_cv: Condvar,
}

impl Scope {
    fn new(tasks: usize) -> Arc<Self> {
        Arc::new(Scope {
            pending: AtomicUsize::new(tasks),
            panic: Mutex::new(None),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        })
    }

    fn task_finished(&self, result: Result<(), Box<dyn std::any::Any + Send>>) {
        if let Err(payload) = result {
            let mut slot = self.panic.lock().unwrap();
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        if self.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            *self.done.lock().unwrap() = true;
            self.done_cv.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        self.pending.load(Ordering::SeqCst) == 0
    }

    /// Parks until the scope completes or the (short) timeout elapses — the
    /// timeout bounds how long work pushed by *other* scopes waits for this
    /// thread's help.
    fn park_waiter(&self) {
        let guard = self.done.lock().unwrap();
        if !*guard {
            let _ = self
                .done_cv
                .wait_timeout(guard, Duration::from_millis(1))
                .unwrap();
        }
    }
}

/// Runs `tasks` on `pool` and returns once every task has finished,
/// re-throwing the first panic. The caller helps execute pending work (its
/// own tasks or anybody else's) while it waits, so nested scopes complete
/// even on a 1-worker pool.
///
/// Tasks may borrow data outliving this call frame — the function does not
/// return until the latch hits zero, which is what makes the internal
/// lifetime erasure sound.
pub(crate) fn scope_execute<'scope>(
    pool: &Arc<PoolState>,
    tasks: Vec<Box<dyn FnOnce() + Send + 'scope>>,
) {
    if tasks.is_empty() {
        return;
    }
    let scope = Scope::new(tasks.len());
    for task in tasks {
        let scope = scope.clone();
        let wrapped: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(task));
            scope.task_finished(result);
        });
        // SAFETY: `wrapped` (and the borrows inside `task`) is only run by
        // pool threads or the helper loop below, and this function does not
        // return until `scope.pending` reaches zero — i.e. until `wrapped`
        // has completed. The borrowed data therefore strictly outlives every
        // use. Panics are caught inside the task, so an unwinding task still
        // decrements the latch.
        #[allow(unsafe_code)]
        let erased: Task =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Task>(wrapped) };
        pool.push(erased);
    }

    // Help while waiting: run any pending task (ours or another scope's);
    // when the queue is empty, park on the scope's completion latch instead
    // of spinning against the workers finishing the tail.
    while !scope.is_done() {
        match pool.pop() {
            Some(task) => task(),
            None => scope.park_waiter(),
        }
    }

    let payload = scope.panic.lock().unwrap().take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

/// An owned thread pool (for tests and explicit sizing); production callers
/// normally use the implicit global pool.
pub struct ThreadPool {
    state: Arc<PoolState>,
    handles: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// A pool with exactly `workers` threads (clamped to ≥ 1).
    pub fn new(workers: usize) -> Self {
        ThreadPoolBuilder::new()
            .num_threads(workers)
            .build()
            .unwrap()
    }

    /// Number of worker threads.
    pub fn current_num_threads(&self) -> usize {
        self.state.workers()
    }

    /// Tasks handed to this pool since it was built (scoped chunks and
    /// `spawn`s alike). Not part of rayon's API: tests use it to pin that a
    /// code path ran entirely on its calling thread.
    pub fn tasks_pushed(&self) -> usize {
        self.state.pushed.load(Ordering::Relaxed)
    }

    /// Runs `f` with this pool as the target of every `par_iter` terminal
    /// (and nested parallel call) on the current thread, mirroring rayon's
    /// `ThreadPool::install`.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        INSTALLED.with(|stack| stack.borrow_mut().push(self.state.clone()));
        struct PopOnDrop;
        impl Drop for PopOnDrop {
            fn drop(&mut self) {
                INSTALLED.with(|stack| {
                    stack.borrow_mut().pop();
                });
            }
        }
        let _pop = PopOnDrop;
        f()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.state.queue().shutdown = true;
        self.state.ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

/// Pool construction error (the shim never actually fails; the type exists
/// for API compatibility).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "failed to build thread pool")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

impl ThreadPoolBuilder {
    /// Starts a builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of worker threads (0 = automatic).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = Some(n);
        self
    }

    /// Builds the pool and spawns its workers.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let workers = match self.num_threads {
            Some(n) if n > 0 => n,
            _ => default_workers(),
        };
        let state = PoolState::new(workers);
        let handles = spawn_workers(&state, "scalia-pool");
        Ok(ThreadPool { state, handles })
    }
}

/// Worker count for implicitly-sized pools: `SCALIA_POOL_WORKERS`, then
/// `RAYON_NUM_THREADS`, then `available_parallelism()`.
fn default_workers() -> usize {
    for var in ["SCALIA_POOL_WORKERS", "RAYON_NUM_THREADS"] {
        if let Some(n) = std::env::var(var)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The process-wide pool used when no [`ThreadPool::install`] is active.
fn global_pool() -> &'static Arc<PoolState> {
    static GLOBAL: OnceLock<Arc<PoolState>> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let state = PoolState::new(default_workers());
        spawn_workers(&state, "scalia-global");
        state
    })
}

/// The pool a parallel terminal on the current thread dispatches to:
/// innermost `install`, else the worker's own pool, else the global pool.
pub(crate) fn current_pool() -> Arc<PoolState> {
    if let Some(pool) = INSTALLED.with(|stack| stack.borrow().last().cloned()) {
        return pool;
    }
    if let Some(pool) = WORKER.with(|w| w.borrow().clone()) {
        return pool;
    }
    global_pool().clone()
}

/// Number of threads the current parallel context would use, mirroring
/// `rayon::current_num_threads`.
pub fn current_num_threads() -> usize {
    current_pool().workers()
}

/// Pushes a fire-and-forget task onto the current pool, mirroring
/// `rayon::spawn`. The task runs asynchronously on a pool worker (or on a
/// thread calling [`yield_now`]); nothing joins it — callers that need
/// completion must arrange their own latch.
///
/// A panicking spawned task is caught and its payload dropped: the queue's
/// executors assume tasks never unwind (a worker's bare `task()` call would
/// kill the worker; a scope help-loop running the task would unwind out of
/// `scope_execute` while its scoped borrows are still live), so the catch
/// happens here, at the only entry point that enqueues un-scoped tasks.
pub fn spawn(f: impl FnOnce() + Send + 'static) {
    current_pool().push(Box::new(move || {
        let _ = catch_unwind(AssertUnwindSafe(f));
    }));
}

/// Cooperatively executes one pending task of the current pool on the
/// calling thread, mirroring `rayon::yield_now`. Returns `true` if a task
/// was executed. This is what lets a caller that blocks on work submitted
/// via [`spawn`] help drain the queue instead of deadlocking a 1-worker
/// pool from inside a worker.
pub fn yield_now() -> bool {
    match current_pool().pop() {
        Some(task) => {
            task();
            true
        }
        None => false,
    }
}
