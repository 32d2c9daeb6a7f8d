//! A persistent work-stealing thread pool: [`ExecPool`].
//!
//! Before this module, every batch call spun up transient
//! `std::thread::scope` workers and [`crate::CoreService`] kept its own
//! dedicated worker threads over one shared queue.  `ExecPool` replaces both
//! with one persistent pool shared by the engines and the serving layer:
//!
//! * **per-worker lanes** — every worker owns a deque of tasks
//!   ([`ExecPool::spawn_on`] targets a lane), which is how the service pins
//!   shard-affine requests to the workers owning those shards' cache
//!   partitions;
//! * **stealing** — a worker that drains its own lane takes tasks from the
//!   shared injector ([`ExecPool::spawn`]) and then steals from the *back*
//!   of other workers' lanes, so affinity is a preference, never a stall;
//! * **nested batches** — [`ExecPool::run_batch`] fans an indexed closure
//!   across the pool with the *calling thread participating*: the caller
//!   claims indexes from the same atomic counter as the helper tasks, so a
//!   batch submitted from inside a pool task (a service request fanning a
//!   `k`-sweep across the same pool) always completes even if every worker
//!   is busy — no thread ever waits on work only other threads can do;
//! * **panic isolation** — a panicking task never kills its worker thread:
//!   the worker catches the unwind and keeps serving its lane, and
//!   `run_batch` re-raises the first payload on the calling thread.
//!
//! The offline build environment has no crates.io access, so there is no
//! rayon or crossbeam here: the deques are `VecDeque`s behind one pool
//! mutex.  Tasks are whole temporal k-core queries or index builds
//! (microseconds to seconds), so the scheduler lock is never the
//! bottleneck; the *scheduling policy* (own lane first, then injector, then
//! steal) is the same as a crossbeam-deque pool and swapping the storage
//! for lock-free deques later is local to this file.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use crate::sync;

/// One unit of work; receives the index of the worker executing it.
type Task = Box<dyn FnOnce(usize) + Send + 'static>;

struct PoolState {
    /// Shared FIFO for tasks without lane affinity (batch helpers).
    injector: VecDeque<Task>,
    /// Per-worker deques: the owner pops the front, thieves pop the back.
    lanes: Vec<VecDeque<Task>>,
    /// `false` once the pool is shutting down; queued tasks still drain.
    open: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    work_ready: Condvar,
}

impl PoolShared {
    /// Locks the scheduler state, recovering from poisoning: a panicking
    /// task cannot take the whole pool down with it.
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        sync::lock(&self.state)
    }
}

/// A persistent work-stealing pool of named OS threads.
///
/// See the [module documentation](self) for the scheduling policy.  Workers
/// live until the pool is dropped; dropping signals shutdown, drains every
/// queued task and joins the threads.
///
/// # Example
///
/// ```
/// use tkcore::exec::ExecPool;
///
/// let pool = ExecPool::new(2);
/// let squares = pool.run_batch(4, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9]);
/// ```
pub struct ExecPool {
    shared: Arc<PoolShared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    workers: usize,
}

impl ExecPool {
    /// Spawns a pool of `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> Arc<Self> {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                injector: VecDeque::new(),
                lanes: (0..workers).map(|_| VecDeque::new()).collect(),
                open: true,
            }),
            work_ready: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|worker| {
                let worker_shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tkcore-exec-{worker}"))
                    .spawn(move || worker_loop(&worker_shared, worker))
                    // tkc-lint: allow(no-panic-api) — failing to spawn pool workers at startup is unrecoverable; no queries are in flight yet
                    .expect("spawn exec pool worker")
            })
            .collect();
        Arc::new(Self {
            shared,
            handles: Mutex::new(handles),
            workers,
        })
    }

    /// Number of worker threads (and lanes) in the pool.
    pub fn num_workers(&self) -> usize {
        self.workers
    }

    /// Enqueues a task on the shared injector; any worker may execute it.
    pub fn spawn(&self, task: impl FnOnce(usize) + Send + 'static) {
        let mut state = self.shared.lock();
        state.injector.push_back(Box::new(task));
        drop(state);
        self.shared.work_ready.notify_one();
    }

    /// Enqueues a task on worker `lane % num_workers()`'s own deque.  The
    /// owning worker prefers it over stolen work, but an idle worker will
    /// steal it — affinity is a locality hint, not a pin.
    pub fn spawn_on(&self, lane: usize, task: impl FnOnce(usize) + Send + 'static) {
        let lane = lane % self.workers;
        let mut state = self.shared.lock();
        state.lanes[lane].push_back(Box::new(task));
        drop(state);
        self.shared.work_ready.notify_one();
    }

    /// Queue depth of every lane, in lane order (the service's least-loaded
    /// routing reads this).
    pub fn lane_lens(&self) -> Vec<usize> {
        let state = self.shared.lock();
        state.lanes.iter().map(VecDeque::len).collect()
    }

    /// Runs `run(i)` for every `i < len` across the pool **and the calling
    /// thread**, returning the results in index order.
    ///
    /// The caller claims indexes from the same shared counter as the helper
    /// tasks, so the batch completes even when every pool worker is busy —
    /// which makes nested batches (a pool task fanning out a sub-batch on
    /// the same pool) deadlock-free by construction.
    ///
    /// # Panics
    /// Re-raises the first panic any task produced, after every in-flight
    /// task of the batch has finished (worker threads survive; see the
    /// module docs).
    pub fn run_batch<R, F>(&self, len: usize, run: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(usize) -> R + Send + Sync + 'static,
    {
        run_batch_inner(Some(self), len, run)
    }

    fn close(&self) {
        let mut state = self.shared.lock();
        state.open = false;
        drop(state);
        self.shared.work_ready.notify_all();
    }
}

impl Drop for ExecPool {
    fn drop(&mut self) {
        self.close();
        let handles = std::mem::take(&mut *sync::lock(&self.handles));
        // The last reference may be dropped inside one of this pool's own
        // tasks (a job holding the engine that holds the pool).  A thread
        // cannot join itself, so that worker's handle is detached instead:
        // the worker drains what is left and exits on its own once the task
        // returns, since the pool is closed.
        let current = std::thread::current().id();
        for handle in handles {
            if handle.thread().id() != current {
                let _ = handle.join();
            }
        }
    }
}

/// Pops the next task for `worker`: own lane front, then the injector, then
/// steal from the back of the other lanes (oldest task of the most local
/// victim first).
fn pop_task(state: &mut PoolState, worker: usize) -> Option<Task> {
    if let Some(task) = state.lanes[worker].pop_front() {
        return Some(task);
    }
    if let Some(task) = state.injector.pop_front() {
        return Some(task);
    }
    let n = state.lanes.len();
    for offset in 1..n {
        if let Some(task) = state.lanes[(worker + offset) % n].pop_back() {
            return Some(task);
        }
    }
    None
}

fn worker_loop(shared: &PoolShared, worker: usize) {
    loop {
        let task = {
            let mut state = shared.lock();
            loop {
                if let Some(task) = pop_task(&mut state, worker) {
                    break task;
                }
                if !state.open {
                    return; // closed and fully drained
                }
                // tkc-lint: allow(no-blocking-in-worker) — the idle wait IS the scheduler loop: it blocks only when no work is queued, and close() wakes every sleeper
                state = sync::wait(&shared.work_ready, state);
            }
        };
        // A panicking task must not kill the worker: lanes pinned to this
        // worker would starve until stolen, and the service's per-worker
        // accounting would lose a lane.  The payload is dropped here; batch
        // tasks re-raise on the calling thread, service tasks convert the
        // panic to a typed error before it reaches this frame.
        let _ = catch_unwind(AssertUnwindSafe(|| task(worker)));
    }
}

/// Shared state of one [`ExecPool::run_batch`] call.
struct BatchState<R> {
    next: AtomicUsize,
    results: Mutex<Vec<Option<std::thread::Result<R>>>>,
    remaining: Mutex<usize>,
    done: Condvar,
}

/// Executes an indexed batch, optionally with pool helpers; the calling
/// thread always participates.  Factored out so `pool = None` gives the
/// inline single-threaded path with identical semantics.
pub(crate) fn run_batch_inner<R, F>(pool: Option<&ExecPool>, len: usize, run: F) -> Vec<R>
where
    R: Send + 'static,
    F: Fn(usize) -> R + Send + Sync + 'static,
{
    if len == 0 {
        return Vec::new();
    }
    let batch = Arc::new(BatchState {
        next: AtomicUsize::new(0),
        results: Mutex::new((0..len).map(|_| None).collect()),
        remaining: Mutex::new(len),
        done: Condvar::new(),
    });
    let run = Arc::new(run);
    if let Some(pool) = pool {
        // The caller claims at least one index itself, so at most len - 1
        // helpers can ever find work.
        let helpers = pool.num_workers().min(len.saturating_sub(1));
        for _ in 0..helpers {
            let helper_batch = Arc::clone(&batch);
            let helper_run = Arc::clone(&run);
            pool.spawn(move |_worker| drain_batch(&helper_batch, helper_run.as_ref(), len));
        }
    }
    drain_batch(&batch, run.as_ref(), len);
    let mut remaining = sync::lock(&batch.remaining);
    while *remaining > 0 {
        // tkc-lint: allow(no-blocking-in-worker) — claim-alongside-helpers: the calling worker drained batch indexes itself above, so every index it can wait on is owned by an already-running thread, never queued behind this one
        remaining = sync::wait(&batch.done, remaining);
    }
    drop(remaining);
    let results = std::mem::take(&mut *sync::lock(&batch.results));
    results
        .into_iter()
        .map(
            // tkc-lint: allow(no-panic-api) — run_batch stores every index exactly once before signalling done
            |slot| match slot.expect("every index was claimed and stored") {
                Ok(result) => result,
                Err(payload) => std::panic::resume_unwind(payload),
            },
        )
        .collect()
}

/// Claims indexes until the batch counter runs dry, recording each result
/// (or the panic payload) and signalling completion of the last one.
fn drain_batch<R, F>(batch: &BatchState<R>, run: &F, len: usize)
where
    R: Send,
    F: Fn(usize) -> R,
{
    loop {
        let i = batch.next.fetch_add(1, Ordering::Relaxed);
        if i >= len {
            return;
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| run(i)));
        {
            let mut results = sync::lock(&batch.results);
            results[i] = Some(outcome);
        }
        let mut remaining = sync::lock(&batch.remaining);
        *remaining -= 1;
        if *remaining == 0 {
            batch.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    #[test]
    fn batch_results_come_back_in_index_order() {
        let pool = ExecPool::new(3);
        let results = pool.run_batch(100, |i| i * 2);
        assert_eq!(results, (0..100).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(pool.num_workers(), 3);
    }

    #[test]
    fn zero_and_one_worker_pools_still_complete_batches() {
        let pool = ExecPool::new(0); // clamped to 1
        assert_eq!(pool.num_workers(), 1);
        assert_eq!(pool.run_batch(5, |i| i + 1), vec![1, 2, 3, 4, 5]);
        assert_eq!(pool.run_batch(0, |i: usize| i), Vec::<usize>::new());
    }

    #[test]
    fn nested_batches_do_not_deadlock() {
        // One worker, and the outer batch occupies it: the inner batches can
        // only complete because their callers participate.
        let pool = ExecPool::new(1);
        let inner_pool = Arc::clone(&pool);
        let results = pool.run_batch(4, move |i| inner_pool.run_batch(3, move |j| i * 10 + j));
        assert_eq!(results[2], vec![20, 21, 22]);
        assert_eq!(results.len(), 4);
    }

    #[test]
    fn spawned_tasks_run_and_report_a_worker_index() {
        let pool = ExecPool::new(2);
        let counter = Arc::new(AtomicU64::new(0));
        let (tx, rx) = std::sync::mpsc::channel();
        for lane in 0..4 {
            let task_counter = Arc::clone(&counter);
            let task_tx = tx.clone();
            pool.spawn_on(lane, move |worker| {
                assert!(worker < 2, "worker index within the pool");
                task_counter.fetch_add(1, Ordering::Relaxed);
                task_tx.send(()).unwrap();
            });
        }
        for _ in 0..4 {
            rx.recv_timeout(Duration::from_secs(10)).expect("task ran");
        }
        assert_eq!(counter.load(Ordering::Relaxed), 4);
        assert_eq!(pool.lane_lens().len(), 2);
    }

    #[test]
    fn a_panicking_task_reaches_the_caller_and_spares_the_workers() {
        let pool = ExecPool::new(2);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_batch(8, |i| {
                if i == 3 {
                    panic!("task 3 exploded");
                }
                i
            })
        }));
        assert!(caught.is_err(), "the panic propagates to the caller");
        // The pool survives and keeps executing new batches.
        assert_eq!(pool.run_batch(4, |i| i), vec![0, 1, 2, 3]);
    }

    #[test]
    fn dropping_the_pool_drains_queued_tasks() {
        let pool = ExecPool::new(1);
        let counter = Arc::new(AtomicU64::new(0));
        for lane in 0..8 {
            let task_counter = Arc::clone(&counter);
            pool.spawn_on(lane, move |_| {
                task_counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(pool);
        assert_eq!(counter.load(Ordering::Relaxed), 8, "drained before join");
    }

    #[test]
    fn dropping_the_last_reference_inside_a_task_does_not_self_join() {
        let pool = ExecPool::new(2);
        let held = Arc::clone(&pool);
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        pool.spawn(move |_| {
            // Wait until the test thread has dropped its own reference, so
            // dropping `held` here runs the pool's `Drop` on this worker.
            release_rx.recv().unwrap();
            drop(held);
            done_tx.send(()).unwrap();
        });
        drop(pool);
        release_tx.send(()).unwrap();
        done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the task survives dropping the pool it runs on");
    }
}
