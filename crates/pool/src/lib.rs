//! A std-only scoped work-stealing thread pool.
//!
//! The parallel checking runtime needs exactly three things from a pool:
//!
//! * **scoped tasks** that may borrow the caller's stack (trajectories,
//!   propagators, output slices), joined before the scope returns;
//! * **work stealing**, because checking workloads are irregular — one
//!   formula of a batch may cost a hundred times the others;
//! * **determinism-friendly dispatch**: the pool never merges results
//!   itself. Tasks write to disjoint, pre-indexed slots, so the caller's
//!   merge order is fixed regardless of execution order and the output is
//!   bitwise independent of the thread count.
//!
//! No external dependencies: the workspace must build offline. The
//! implementation is a classic design — one deque per worker, LIFO pop on
//! the owner, FIFO steal by everyone else, a single condvar for sleep and
//! scope-completion signalling — plus an inline fast path: a pool built
//! with `threads <= 1` executes every task on the calling thread at spawn
//! time, so the serial path runs the *same code* in the same order with no
//! synchronization at all.
//!
//! The scope-owning thread is itself an execution lane: while waiting for
//! its tasks it pops and steals like a worker ("helping"), which is what
//! makes nested scopes (a pool task opening another scope on the same
//! pool) deadlock-free.
//!
//! [`PoolStats`] counts executed tasks per lane and total busy time, which
//! the CLI surfaces behind `--stats`.

pub mod shard;

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A heap task with its lifetime erased; see [`Scope::spawn`] for why this
/// is sound.
type Task = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    /// `(pool id, worker index)` of the pool worker running this thread,
    /// if any. Lets spawns and helpers find their home deque, and keeps
    /// two coexisting pools from pushing into each other's queues.
    static WORKER: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

struct Shared {
    /// One deque per worker thread.
    queues: Vec<Mutex<VecDeque<Task>>>,
    /// Queued-but-not-yet-claimed task count (wakeup hint).
    ready: AtomicUsize,
    /// Round-robin cursor for spawns from non-worker threads.
    next_queue: AtomicUsize,
    /// Guards the shutdown flag; paired with `cv` for sleeping workers and
    /// waiting scope owners.
    sleep: Mutex<bool>,
    cv: Condvar,
    /// Tasks executed per lane: slot 0 is the caller lane (scope owners
    /// helping), slots 1.. are the workers.
    lane_tasks: Vec<AtomicU64>,
    /// Nanoseconds spent executing tasks, per lane (same layout).
    lane_busy_ns: Vec<AtomicU64>,
}

impl Shared {
    fn id(self: &Arc<Self>) -> usize {
        Arc::as_ptr(self) as usize
    }

    /// Queue slot of the current thread if it is a worker of this pool.
    fn home(self: &Arc<Self>) -> Option<usize> {
        WORKER.with(|w| match w.get() {
            Some((pool, idx)) if pool == self.id() => Some(idx),
            _ => None,
        })
    }

    fn push(self: &Arc<Self>, task: Task) {
        let idx = self
            .home()
            .unwrap_or_else(|| self.next_queue.fetch_add(1, Ordering::Relaxed) % self.queues.len());
        self.queues[idx].lock().unwrap().push_back(task);
        self.ready.fetch_add(1, Ordering::SeqCst);
        // Notify under the sleep lock so a worker checking `ready` before
        // waiting cannot miss the signal.
        let _guard = self.sleep.lock().unwrap();
        self.cv.notify_all();
    }

    /// Pops from the home deque (LIFO) or steals from the others (FIFO).
    fn find_task(&self, home: Option<usize>) -> Option<Task> {
        if let Some(h) = home {
            if let Some(task) = self.queues[h].lock().unwrap().pop_back() {
                self.ready.fetch_sub(1, Ordering::SeqCst);
                return Some(task);
            }
        }
        let n = self.queues.len();
        let start = home.map_or(0, |h| h + 1);
        for off in 0..n {
            let q = (start + off) % n;
            if Some(q) == home {
                continue;
            }
            if let Some(task) = self.queues[q].lock().unwrap().pop_front() {
                self.ready.fetch_sub(1, Ordering::SeqCst);
                return Some(task);
            }
        }
        None
    }

    /// Counts one task that ran since `start` on the current thread's lane:
    /// its worker slot, or the caller lane (scope owners helping, inline
    /// spawns).
    fn record(self: &Arc<Self>, start: Instant) {
        let lane = self.home().map_or(0, |h| h + 1);
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.lane_busy_ns[lane].fetch_add(ns, Ordering::Relaxed);
        self.lane_tasks[lane].fetch_add(1, Ordering::Relaxed);
    }
}

fn worker_loop(shared: Arc<Shared>, index: usize) {
    WORKER.with(|w| w.set(Some((shared.id(), index))));
    loop {
        if let Some(task) = shared.find_task(Some(index)) {
            task();
            continue;
        }
        let guard = shared.sleep.lock().unwrap();
        if *guard {
            return;
        }
        if shared.ready.load(Ordering::SeqCst) > 0 {
            continue;
        }
        let guard = shared.cv.wait(guard).unwrap();
        if *guard {
            return;
        }
    }
}

/// Bookkeeping of one [`ThreadPool::scope`] invocation.
struct ScopeState {
    pending: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

impl ScopeState {
    fn store_panic(&self, payload: Box<dyn Any + Send + 'static>) {
        let mut slot = self.panic.lock().unwrap();
        slot.get_or_insert(payload);
    }
}

/// Spawn handle passed to the closure of [`ThreadPool::scope`].
///
/// Mirrors [`std::thread::scope`]: tasks may borrow anything that outlives
/// the scope and are guaranteed to have finished when `scope` returns.
pub struct Scope<'scope, 'env: 'scope> {
    pool: &'scope ThreadPool,
    state: Arc<ScopeState>,
    /// Invariance over 'scope, exactly as in `std::thread::Scope`.
    _scope: PhantomData<&'scope mut &'scope ()>,
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a task on the pool. With no workers (a pool built for one
    /// thread) the task runs inline, immediately, on the calling thread —
    /// the serial reference path.
    ///
    /// A panicking task does not abort its siblings: the first payload is
    /// kept and re-thrown from [`ThreadPool::scope`] after every task of
    /// the scope has finished.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        let state = Arc::clone(&self.state);
        if self.pool.workers == 0 {
            let start = Instant::now();
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                state.store_panic(payload);
            }
            self.pool.shared.record(start);
            return;
        }
        state.pending.fetch_add(1, Ordering::SeqCst);
        let shared = Arc::clone(&self.pool.shared);
        let task: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            let start = Instant::now();
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                state.store_panic(payload);
            }
            // Counted before the scope can see the task finish (the
            // `SeqCst` decrement below publishes it), so stats read after
            // `scope` returns include every task of the scope.
            shared.record(start);
            if state.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
                // Last task of the scope: wake the waiting owner.
                let _guard = shared.sleep.lock().unwrap();
                shared.cv.notify_all();
            }
        });
        // SAFETY: only the lifetime is erased. The task is guaranteed to
        // run before `ThreadPool::scope` returns — the owner waits for
        // `pending == 0` even when its closure panics — so every borrow
        // with lifetime 'scope outlives the task.
        let task: Task =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Task>(task) };
        self.pool.shared.push(task);
    }
}

/// Snapshot of a pool's execution counters; see [`ThreadPool::stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct PoolStats {
    /// Execution lanes: workers plus the scope-owning caller.
    pub threads: usize,
    /// Tasks executed per lane. Slot 0 is the caller lane (inline spawns
    /// and scope owners helping while they wait); slots 1.. are workers.
    pub tasks_per_thread: Vec<u64>,
    /// Total tasks executed.
    pub total_tasks: u64,
    /// Total time lanes spent executing tasks.
    pub busy: Duration,
    /// Wall-clock age of the pool.
    pub elapsed: Duration,
    /// `busy / (threads × elapsed)`: the fraction of the pool's capacity
    /// that actually ran tasks.
    pub utilization: f64,
}

/// A scoped work-stealing thread pool. See the [module docs](self).
///
/// # Example
///
/// ```
/// let pool = mfcsl_pool::ThreadPool::new(4);
/// let mut squares = vec![0u64; 32];
/// pool.scope(|s| {
///     for (i, slot) in squares.iter_mut().enumerate() {
///         s.spawn(move || *slot = (i as u64) * (i as u64));
///     }
/// });
/// assert_eq!(squares[7], 49);
/// ```
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
    created: Instant,
}

impl ThreadPool {
    /// Creates a pool with `threads` execution lanes in total: the calling
    /// thread plus `threads - 1` workers. `threads <= 1` creates no
    /// workers at all — every task then runs inline at its spawn site.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let lanes = threads.max(1);
        let workers = lanes - 1;
        let shared = Arc::new(Shared {
            queues: (0..workers.max(1))
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            ready: AtomicUsize::new(0),
            next_queue: AtomicUsize::new(0),
            sleep: Mutex::new(false),
            cv: Condvar::new(),
            lane_tasks: (0..lanes).map(|_| AtomicU64::new(0)).collect(),
            lane_busy_ns: (0..lanes).map(|_| AtomicU64::new(0)).collect(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mfcsl-pool-{i}"))
                    .spawn(move || worker_loop(shared, i))
                    .expect("spawning pool worker")
            })
            .collect();
        ThreadPool {
            shared,
            handles,
            workers,
            created: Instant::now(),
        }
    }

    /// Creates a pool sized to the machine's available parallelism.
    #[must_use]
    pub fn with_default_parallelism() -> Self {
        ThreadPool::new(default_parallelism())
    }

    /// Total execution lanes (workers + the scope-owning caller); the `N`
    /// of `--threads N`.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.workers + 1
    }

    /// Runs `f` with a [`Scope`] whose tasks may borrow the surrounding
    /// stack, and returns only once every spawned task has finished.
    ///
    /// The calling thread helps execute tasks while it waits. If any task
    /// panicked, the first payload is re-thrown here (after all tasks
    /// completed); a panic in `f` itself is re-thrown likewise.
    pub fn scope<'env, F, T>(&'env self, f: F) -> T
    where
        F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> T,
    {
        let scope = Scope {
            pool: self,
            state: Arc::new(ScopeState {
                pending: AtomicUsize::new(0),
                panic: Mutex::new(None),
            }),
            _scope: PhantomData,
            _env: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        self.wait_scope(&scope.state);
        if let Some(payload) = scope.state.panic.lock().unwrap().take() {
            resume_unwind(payload);
        }
        match result {
            Ok(value) => value,
            Err(payload) => resume_unwind(payload),
        }
    }

    /// Maps `f` over `0..n` on the pool and collects results in index
    /// order. The merge order is fixed by construction, so the output is
    /// identical at any thread count (given `f` is a pure function of its
    /// index).
    pub fn map_indexed<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        self.scope(|s| {
            for (i, slot) in slots.iter_mut().enumerate() {
                let f = &f;
                s.spawn(move || *slot = Some(f(i)));
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("scope joined every task"))
            .collect()
    }

    /// Helps execute tasks until the scope's pending count reaches zero.
    fn wait_scope(&self, state: &ScopeState) {
        let shared = &self.shared;
        let home = shared.home();
        while state.pending.load(Ordering::SeqCst) > 0 {
            if let Some(task) = shared.find_task(home) {
                // A helped task counts on the caller lane, or on the
                // worker's own lane for nested scopes on a worker thread.
                task();
                continue;
            }
            let guard = shared.sleep.lock().unwrap();
            if state.pending.load(Ordering::SeqCst) == 0 {
                break;
            }
            if shared.ready.load(Ordering::SeqCst) > 0 {
                continue;
            }
            // Timed wait as a belt-and-braces guard: completion is
            // signalled by the last task, the timeout only bounds the cost
            // of any spurious miss.
            let _unused = shared
                .cv
                .wait_timeout(guard, Duration::from_millis(1))
                .unwrap();
        }
    }

    /// A snapshot of per-lane task counts and utilization.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        let tasks_per_thread: Vec<u64> = self
            .shared
            .lane_tasks
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let total_tasks = tasks_per_thread.iter().sum();
        let busy_ns: u64 = self
            .shared
            .lane_busy_ns
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum();
        let busy = Duration::from_nanos(busy_ns);
        let elapsed = self.created.elapsed();
        let capacity = self.threads() as f64 * elapsed.as_secs_f64();
        let utilization = if capacity > 0.0 {
            (busy.as_secs_f64() / capacity).min(1.0)
        } else {
            0.0
        };
        PoolStats {
            threads: self.threads(),
            tasks_per_thread,
            total_tasks,
            busy,
            elapsed,
            utilization,
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut guard = self.shared.sleep.lock().unwrap();
            *guard = true;
            self.shared.cv.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _unused = handle.join();
        }
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads())
            .finish_non_exhaustive()
    }
}

/// The machine's available parallelism (1 if it cannot be queried).
#[must_use]
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn empty_scope_returns_immediately() {
        for threads in [1, 2, 8] {
            let pool = ThreadPool::new(threads);
            let out = pool.scope(|_| 42);
            assert_eq!(out, 42);
            assert_eq!(pool.stats().total_tasks, 0);
        }
    }

    #[test]
    fn empty_task_set_helpers() {
        let pool = ThreadPool::new(4);
        let out: Vec<u32> = pool.map_indexed(0, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn tasks_borrow_the_stack() {
        let pool = ThreadPool::new(4);
        let input = vec![3u64, 1, 4, 1, 5, 9, 2, 6];
        let mut doubled = vec![0u64; input.len()];
        pool.scope(|s| {
            for (slot, &x) in doubled.iter_mut().zip(&input) {
                s.spawn(move || *slot = 2 * x);
            }
        });
        assert_eq!(doubled, vec![6, 2, 8, 2, 10, 18, 4, 12]);
    }

    #[test]
    fn map_indexed_is_ordered_at_any_thread_count() {
        let expect: Vec<usize> = (0..100).map(|i| i * i).collect();
        for threads in [1, 2, 8] {
            let pool = ThreadPool::new(threads);
            assert_eq!(pool.map_indexed(100, |i| i * i), expect);
        }
    }

    #[test]
    fn nested_scopes() {
        let pool = ThreadPool::new(4);
        let counter = AtomicU32::new(0);
        pool.scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    // A task opening a scope on the same pool must not
                    // deadlock: the owner helps while it waits.
                    pool.scope(|inner| {
                        for _ in 0..8 {
                            inner.spawn(|| {
                                counter.fetch_add(1, Ordering::SeqCst);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn nested_scopes_inline_pool() {
        let pool = ThreadPool::new(1);
        let counter = AtomicU32::new(0);
        pool.scope(|s| {
            s.spawn(|| {
                pool.scope(|inner| {
                    inner.spawn(|| {
                        counter.fetch_add(1, Ordering::SeqCst);
                    });
                });
            });
        });
        assert_eq!(counter.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn panic_propagates_after_all_tasks_finish() {
        for threads in [1, 2, 8] {
            let pool = ThreadPool::new(threads);
            let done = AtomicU32::new(0);
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.scope(|s| {
                    for i in 0..16 {
                        let done = &done;
                        s.spawn(move || {
                            if i == 3 {
                                panic!("boom {i}");
                            }
                            done.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                });
            }));
            let payload = result.expect_err("scope must rethrow the task panic");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert_eq!(msg, "boom 3");
            // Siblings were not cancelled.
            assert_eq!(done.load(Ordering::SeqCst), 15, "threads = {threads}");
        }
    }

    #[test]
    fn panic_in_scope_closure_propagates() {
        let pool = ThreadPool::new(2);
        let ran = AtomicU32::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| {
                    ran.fetch_add(1, Ordering::SeqCst);
                });
                panic!("owner");
            });
        }));
        assert!(result.is_err());
        // The spawned task still completed before the panic resumed.
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn stats_count_every_task() {
        let pool = ThreadPool::new(3);
        pool.scope(|s| {
            for _ in 0..50 {
                s.spawn(|| {
                    std::hint::black_box(0u64);
                });
            }
        });
        let stats = pool.stats();
        assert_eq!(stats.threads, 3);
        assert_eq!(stats.tasks_per_thread.len(), 3);
        assert_eq!(stats.total_tasks, 50);
        assert_eq!(stats.tasks_per_thread.iter().sum::<u64>(), 50);
        assert!(stats.utilization >= 0.0 && stats.utilization <= 1.0);
    }

    #[test]
    fn inline_pool_runs_on_caller_lane_in_spawn_order() {
        let pool = ThreadPool::new(1);
        let mut slots = vec![0usize; 5];
        pool.scope(|s| {
            for (i, slot) in slots.iter_mut().enumerate() {
                s.spawn(move || *slot = i + 1);
            }
        });
        assert_eq!(slots, vec![1, 2, 3, 4, 5]);
        let stats = pool.stats();
        assert_eq!(stats.tasks_per_thread[0], 5);
        assert_eq!(stats.total_tasks, 5);
    }

    #[test]
    fn two_pools_do_not_cross_feed() {
        let a = ThreadPool::new(4);
        let b = ThreadPool::new(4);
        let counter = AtomicU32::new(0);
        a.scope(|sa| {
            for _ in 0..8 {
                sa.spawn(|| {
                    b.scope(|sb| {
                        for _ in 0..4 {
                            sb.spawn(|| {
                                counter.fetch_add(1, Ordering::SeqCst);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn heavy_fan_out_completes() {
        let pool = ThreadPool::new(8);
        let sum = AtomicU64::new(0);
        pool.scope(|s| {
            for i in 0..10_000u64 {
                let sum = &sum;
                s.spawn(move || {
                    sum.fetch_add(i, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 10_000 * 9_999 / 2);
    }
}
