//! The work-stealing scoped thread pool behind the `rayon` shim.
//!
//! # Scheduling
//!
//! A pool owns `N` worker threads (`N` from [`ThreadPoolBuilder::num_threads`],
//! the `SCALIA_POOL_WORKERS` / `RAYON_NUM_THREADS` environment variables, or
//! `std::thread::available_parallelism()` for the global pool). Tasks live in
//! two kinds of **lock-free** queues (see [`crate::deque`] for the
//! algorithms and memory-ordering arguments):
//!
//! * a shared **injector** — a bounded MPMC ring (Vyukov) with an overflow
//!   spill — that external (non-worker) threads push into, and
//! * one **Chase–Lev deque per worker**. The deque is single-owner: only
//!   worker `i` ever pushes or pops `locals[i]` (enforced by
//!   [`PoolState::home_index`], which identifies the calling thread), and it
//!   does so at the *bottom* (LIFO, keeps the working set hot) with no
//!   atomic RMW on the common path. Any other thread steals from the *top*
//!   (FIFO, takes the oldest — and usually largest — pending task) with one
//!   CAS per steal. Retired grow-buffers are reclaimed only at pool
//!   teardown, after every thread has quiesced — the bounded-tasks
//!   lifecycle that lets the deque skip epochs and hazard pointers.
//!
//! A worker looks for work in this order: own deque (bottom) → injector →
//! steal from the other workers (scanning from its own index so thieves
//! spread out; a lost steal race is retried a bounded number of times).
//! Idle workers park on a condvar with a bounded timeout; every push bumps
//! an atomic pending-task counter *before* the task is enqueued (so the
//! counter never under-counts) and notifies, and the timeout makes the
//! design immune to lost wakeups.
//!
//! # Scopes, blocking and deadlock-freedom
//!
//! All parallel iterator terminals execute through a [`Scope`]: the caller
//! spawns its batch of tasks, then **helps** while it waits — it repeatedly
//! pops/steals pending tasks (from *any* scope, exactly like rayon), and
//! only when nothing is stealable does it park on the scope's completion
//! latch (with a short timeout, so late-arriving stealable work still gets
//! its help). A worker that blocks on a nested scope helps the same way, so
//! a 1-worker pool still completes arbitrarily nested parallelism and no
//! configuration can deadlock on an empty queue.
//!
//! Tasks may borrow from the waiting caller's stack: [`Scope::execute`] does
//! not return until every spawned task has finished (the pending latch hits
//! zero), which is what makes the lifetime transmute below sound.
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
//! Dropping an owned [`ThreadPool`] flips the shutdown flag, wakes every
//! worker and **joins** them; workers drain already-queued tasks before
//! exiting, so no accepted task is dropped. The global pool lives for the
//! whole process and is torn down by process exit (its threads are daemons —
//! they hold no state that needs unwinding).

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::deque::{ChaseLev, Injector, Steal};

/// A unit of work. Scoped tasks are lifetime-erased to `'static`; soundness
/// is provided by [`Scope::execute`] not returning before they all finish.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// How long an idle worker parks before re-checking the queues. The pending
/// counter + notify makes wakeups prompt; the timeout is only a safety net.
const PARK_TIMEOUT: Duration = Duration::from_millis(10);

/// How many times a thief re-attempts one victim after losing a steal race
/// before moving to the next victim. A lost CAS means somebody *else* made
/// progress, so a small bound suffices; callers re-scan or park anyway.
const STEAL_RETRIES: usize = 4;

/// Shared state of one pool (workers and external callers both hold it).
pub(crate) struct PoolState {
    /// Lock-free MPMC queue external threads push into.
    injector: Injector<Task>,
    /// One Chase–Lev deque per worker (owner: bottom; thieves: top).
    locals: Vec<ChaseLev<Task>>,
    /// Tasks pushed but not yet popped, used by sleepers to decide to wake.
    pending: AtomicUsize,
    /// Tasks ever pushed — a statistic (it publishes nothing, so `Relaxed`)
    /// that lets a test assert a region of code never reached the pool.
    pushed: AtomicUsize,
    /// Set when the owning `ThreadPool` is dropped.
    shutdown: AtomicBool,
    /// Sleep support: workers park here when they find no work.
    sleep_lock: Mutex<()>,
    sleep_cv: Condvar,
}

impl PoolState {
    fn new(workers: usize) -> Arc<Self> {
        Arc::new(PoolState {
            injector: Injector::new(),
            locals: (0..workers).map(|_| ChaseLev::new()).collect(),
            pending: AtomicUsize::new(0),
            pushed: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            sleep_lock: Mutex::new(()),
            sleep_cv: Condvar::new(),
        })
    }

    /// Number of worker threads.
    pub(crate) fn workers(&self) -> usize {
        self.locals.len()
    }

    /// Pushes a task, preferring the current worker's own deque.
    fn push(&self, task: Task) {
        // Count first, enqueue second: `pending` then never under-counts,
        // so the shutdown drain check (`pending == 0`) cannot pass while an
        // enqueue is still in flight.
        self.pending.fetch_add(1, Ordering::SeqCst);
        self.pushed.fetch_add(1, Ordering::Relaxed);
        match self.home_index() {
            // Owner push: `home_index` proved the current thread IS worker
            // `index` of this pool, the deque's unique owner.
            Some(index) => self.locals[index].push(Box::new(task)),
            None => self.injector.push(Box::new(task)),
        }
        // Waking everyone is wasteful for one task, but pushes are batched
        // (one per chunk) and correctness beats finesse in a shim.
        let _guard = self.sleep_lock.lock().unwrap();
        self.sleep_cv.notify_all();
    }

    /// Pops or steals one task. `home` is the caller's local deque index
    /// (workers); external helpers pass `None`.
    fn find_task(&self, home: Option<usize>) -> Option<Task> {
        if let Some(index) = home {
            // Owner pop: same single-owner argument as in `push`.
            if let Some(task) = self.locals[index].pop() {
                self.pending.fetch_sub(1, Ordering::SeqCst);
                return Some(*task);
            }
        }
        if let Some(task) = self.injector.pop() {
            self.pending.fetch_sub(1, Ordering::SeqCst);
            return Some(*task);
        }
        let n = self.locals.len();
        let start = home.map(|i| i + 1).unwrap_or(0);
        for offset in 0..n {
            let victim = (start + offset) % n;
            if Some(victim) == home {
                continue;
            }
            for _ in 0..STEAL_RETRIES {
                match self.locals[victim].steal() {
                    Steal::Success(task) => {
                        self.pending.fetch_sub(1, Ordering::SeqCst);
                        return Some(*task);
                    }
                    Steal::Empty => break,
                    Steal::Retry => std::hint::spin_loop(),
                }
            }
        }
        None
    }

    /// Parks until there is (probably) work, a shutdown, or the timeout.
    fn park(&self) {
        let guard = self.sleep_lock.lock().unwrap();
        if self.pending.load(Ordering::SeqCst) > 0 || self.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let _ = self.sleep_cv.wait_timeout(guard, PARK_TIMEOUT).unwrap();
    }

    fn notify_all(&self) {
        let _guard = self.sleep_lock.lock().unwrap();
        self.sleep_cv.notify_all();
    }

    /// The current thread's local deque index, if it is a worker of *this*
    /// pool.
    fn home_index(&self) -> Option<usize> {
        WORKER.with(|w| {
            w.borrow()
                .as_ref()
                .and_then(|(pool, index)| std::ptr::eq(Arc::as_ptr(pool), self).then_some(*index))
        })
    }
}

std::thread_local! {
    /// Set inside worker threads: (their pool, their local deque index).
    static WORKER: std::cell::RefCell<Option<(Arc<PoolState>, usize)>> =
        const { std::cell::RefCell::new(None) };
    /// Pool selected by `ThreadPool::install`, overriding the global pool.
    static INSTALLED: std::cell::RefCell<Vec<Arc<PoolState>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

fn worker_loop(pool: Arc<PoolState>, index: usize) {
    WORKER.with(|w| *w.borrow_mut() = Some((pool.clone(), index)));
    loop {
        if let Some(task) = pool.find_task(Some(index)) {
            task();
            continue;
        }
        if pool.shutdown.load(Ordering::SeqCst) {
            // Drain check: exit only with every queue empty.
            if pool.pending.load(Ordering::SeqCst) == 0 {
                break;
            }
            continue;
        }
        pool.park();
    }
}

/// Completion latch + panic slot for one batch of spawned tasks.
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
    /// timeout bounds how long newly-stealable work of *other* scopes waits
    /// for this thread's help.
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
        let erased: Task =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Task>(wrapped) };
        pool.push(erased);
    }

    // Help while waiting: run any pending task (ours or another scope's);
    // when nothing is stealable, park on the scope's completion latch
    // instead of spinning against the workers finishing the tail.
    let home = pool.home_index();
    while !scope.is_done() {
        if let Some(task) = pool.find_task(home) {
            task();
        } else {
            scope.park_waiter();
        }
    }

    let payload = scope.panic.lock().unwrap().take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

/// An owned work-stealing thread pool (for tests and explicit sizing);
/// production callers normally use the implicit global pool.
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

    /// Tasks handed to this pool since it was built (scoped chunks, `join`
    /// halves and `spawn`s alike). Not part of rayon's API: tests use it to
    /// pin that a code path ran entirely on its calling thread.
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
        self.state.shutdown.store(true, Ordering::SeqCst);
        self.state.notify_all();
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
        let handles = (0..workers)
            .map(|index| {
                let state = state.clone();
                std::thread::Builder::new()
                    .name(format!("scalia-pool-{index}"))
                    .spawn(move || worker_loop(state, index))
                    .expect("spawn pool worker")
            })
            .collect();
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
        let workers = default_workers();
        let state = PoolState::new(workers);
        for index in 0..workers {
            let state = state.clone();
            std::thread::Builder::new()
                .name(format!("scalia-global-{index}"))
                .spawn(move || worker_loop(state, index))
                .expect("spawn global pool worker");
        }
        state
    })
}

/// The pool a parallel terminal on the current thread dispatches to:
/// innermost `install`, else the worker's own pool, else the global pool.
pub(crate) fn current_pool() -> Arc<PoolState> {
    if let Some(pool) = INSTALLED.with(|stack| stack.borrow().last().cloned()) {
        return pool;
    }
    if let Some(pool) = WORKER.with(|w| w.borrow().as_ref().map(|(p, _)| p.clone())) {
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
/// A panicking spawned task is caught and its payload dropped: the queues'
/// executors assume tasks never unwind (a worker's bare `task()` call would
/// kill the worker; a scope help-loop stealing the task would unwind out of
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
/// via [`spawn`] help drain the queues instead of deadlocking a 1-worker
/// pool from inside a worker.
pub fn yield_now() -> bool {
    let pool = current_pool();
    let home = pool.home_index();
    match pool.find_task(home) {
        Some(task) => {
            task();
            true
        }
        None => false,
    }
}

/// Runs `a` and `b`, potentially in parallel, returning both results —
/// mirroring `rayon::join`. `b` is offered to the pool; `a` runs on the
/// calling thread, which then helps until `b` completes.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let pool = current_pool();
    if pool.workers() <= 1 {
        return (a(), b());
    }
    let slot_b: Mutex<Option<RB>> = Mutex::new(None);
    let mut slot_a: Option<RA> = None;
    {
        let task_b: Box<dyn FnOnce() + Send + '_> = Box::new(|| {
            *slot_b.lock().unwrap() = Some(b());
        });
        let task_a: Box<dyn FnOnce() + Send + '_> = Box::new(|| {
            slot_a = Some(a());
        });
        // Two tasks in one scope: the caller immediately steals one of them
        // back in the help loop, so `a` effectively runs inline.
        scope_execute(&pool, vec![task_a, task_b]);
    }
    let result_b = slot_b.lock().unwrap().take();
    (
        slot_a.expect("join: first closure did not run"),
        result_b.expect("join: second closure did not run"),
    )
}
