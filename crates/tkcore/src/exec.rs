//! A persistent thread pool over one shared FIFO and a fixed number of
//! execution slots: [`ExecPool`].
//!
//! A [`crate::CoreService`] owns one and installs it into the engine it
//! serves, so one pool serves both the service's requests and the engine's
//! batches; a [`crate::TkServer`] owns a second, disjoint one for its
//! connections.
//!
//! * **slots, not threads** — a pool of `workers` threads owns `workers`
//!   slots, and every piece of work holds one while it runs.  A pool task
//!   holds the slot its worker took for it; a caller outside the pool may
//!   claim a spare slot (`ExecPool::try_claim`) and run its own work in it
//!   (a service request executing on its connection thread).  So pool tasks
//!   and claiming callers together never run more than `workers` pieces of
//!   work at once;
//! * **one queue** — [`ExecPool::spawn`] appends a task to a single FIFO;
//!   a worker pops the oldest task when a slot is free, so tasks start in
//!   submission order.  A slot a queued task is waiting for is not spare: a
//!   claiming caller never overtakes the queue.  Priority between request
//!   classes is the service's business ([`crate::CoreService`] keeps its
//!   own two-priority queue and spawns one pool task per queued job);
//! * **nested batches** — [`run_batch_inner`] fans an indexed closure
//!   across the pool with the *calling thread participating*: the caller
//!   claims indexes from the same atomic counter as the helper tasks, and
//!   helpers are spawned only into spare slots (none at all for a
//!   one-index batch, or when every slot is busy — the caller then runs the
//!   whole batch itself).  Once the caller finds every index claimed, it
//!   retracts the helpers no worker has started yet, so a finished batch
//!   leaves nothing queued.  A batch submitted from inside a pool task (a
//!   service request fanning a `k`-sweep across the same pool) therefore
//!   always completes, and no thread ever waits on work only other threads
//!   can do;
//! * **panic isolation** — a panicking task never kills its worker thread:
//!   the worker catches the unwind, frees the slot and keeps serving the
//!   queue, and `run_batch_inner` re-raises the first payload on the calling
//!   thread.
//!
//! The queue and the free slots sit behind one pool mutex.  Tasks are whole
//! temporal k-core queries or index builds (microseconds to seconds), so
//! the scheduler lock is never the bottleneck.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use crate::sync;

/// One unit of work; receives the index of the slot it runs in.
type Task = Box<dyn FnOnce(usize) + Send + 'static>;

struct PoolState {
    /// The one FIFO every worker pops from, each task with the tag of the
    /// batch it helps (0 for a task that helps none).
    queue: VecDeque<(usize, Task)>,
    /// Indexes of the slots no running task and no caller holds.
    free: Vec<usize>,
    /// `false` once the pool is shutting down; queued tasks still drain.
    open: bool,
}

impl PoolState {
    /// Free slots no queued task is waiting for.
    fn spare(&self) -> usize {
        self.free.len().saturating_sub(self.queue.len())
    }

    /// Pops the oldest queued task together with a free slot to run it in,
    /// if there are both.
    fn take(&mut self) -> Option<(Task, usize)> {
        if self.free.is_empty() {
            return None;
        }
        let (_, task) = self.queue.pop_front()?;
        let slot = self.free.pop()?;
        Some((task, slot))
    }
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signalled when a task is queued or a claimed slot is returned.
    work_ready: Condvar,
}

impl PoolShared {
    /// Locks the scheduler state, recovering from poisoning: a panicking
    /// task cannot take the whole pool down with it.
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        sync::lock(&self.state)
    }
}

/// A persistent pool of named OS threads over one shared FIFO, running at
/// most `workers` pieces of work at once.
///
/// See the [module documentation](self) for the slot and scheduling policy.
/// Workers live until the pool is dropped; dropping signals shutdown, drains
/// every queued task and joins the threads.
pub(crate) struct ExecPool {
    shared: Arc<PoolShared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    workers: usize,
}

/// A pool slot held by a caller (see `ExecPool::try_claim`); dropping it
/// returns the slot to the pool.
#[must_use = "the slot is returned as soon as the claim is dropped"]
pub(crate) struct SlotClaim<'a> {
    pool: &'a ExecPool,
    index: usize,
}

impl SlotClaim<'_> {
    /// The claimed slot's index, below [`ExecPool::num_workers`]; pool tasks
    /// receive their slot's index the same way.
    pub(crate) fn index(&self) -> usize {
        self.index
    }
}

impl Drop for SlotClaim<'_> {
    fn drop(&mut self) {
        let mut state = self.pool.shared.lock();
        state.free.push(self.index);
        let waiting = !state.queue.is_empty();
        drop(state);
        if waiting {
            // A task queued while this caller held the slot can run now.
            self.pool.shared.work_ready.notify_one();
        }
    }
}

impl ExecPool {
    /// Spawns a pool of `workers` threads and as many slots (clamped to at
    /// least 1).
    pub(crate) fn new(workers: usize) -> Arc<Self> {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                // Popped from the back, so slot 0 is handed out first.
                free: (0..workers).rev().collect(),
                open: true,
            }),
            work_ready: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|worker| {
                let worker_shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tkcore-exec-{worker}"))
                    .spawn(move || worker_loop(&worker_shared))
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

    /// Number of slots in the pool (and of worker threads).
    pub(crate) fn num_workers(&self) -> usize {
        self.workers
    }

    /// Appends a task to the pool's queue; a worker runs it, in the order
    /// of submission, once a slot is free.  The task receives the index of
    /// its slot.
    pub(crate) fn spawn(&self, task: impl FnOnce(usize) + Send + 'static) {
        self.enqueue(0, Box::new(task));
    }

    /// Appends `task`, tagged with `batch`, and wakes a worker.
    fn enqueue(&self, batch: usize, task: Task) {
        self.shared.lock().queue.push_back((batch, task));
        self.shared.work_ready.notify_one();
    }

    /// Drops the queued helpers of `batch`: called once every index of the
    /// batch is claimed, when a helper no worker has started would find no
    /// work, yet keeps a slot from being spare while it waits.
    fn retract(&self, batch: usize) {
        self.shared.lock().queue.retain(|&(tag, _)| tag != batch);
    }

    /// Claims a spare slot for the calling thread, or `None` when every
    /// slot is held or wanted by a queued task.  While the claim lives, the
    /// pool runs one task fewer at a time.
    pub(crate) fn try_claim(&self) -> Option<SlotClaim<'_>> {
        let mut state = self.shared.lock();
        if state.spare() == 0 {
            return None;
        }
        let index = state.free.pop()?;
        Some(SlotClaim { pool: self, index })
    }

    /// Number of free slots no queued task is waiting for: how many helpers
    /// a batch can start now.
    fn spare_slots(&self) -> usize {
        self.shared.lock().spare()
    }

    /// [`run_batch_inner`] on this pool.
    #[cfg(test)]
    fn run_batch<R, F>(&self, len: usize, run: F) -> Vec<R>
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

fn worker_loop(shared: &PoolShared) {
    let mut held = None;
    loop {
        let (task, slot) = {
            let mut state = shared.lock();
            // The slot of the task this worker just ran goes back first, so
            // a queued task it was the last obstacle for runs next, here.
            if let Some(slot) = held.take() {
                state.free.push(slot);
            }
            loop {
                if let Some(claimed) = state.take() {
                    break claimed;
                }
                if !state.open && state.queue.is_empty() {
                    return; // closed and fully drained
                }
                // tkc-lint: allow(no-blocking-in-worker) — the idle wait IS the scheduler loop: it blocks only when no work is queued or every slot is held, and close() or a returned slot wakes it
                state = sync::wait(&shared.work_ready, state);
            }
        };
        // A panicking task must not kill the worker: the pool would shrink
        // by one thread for good.  The payload is dropped here; batch
        // tasks re-raise on the calling thread, service tasks convert the
        // panic to a typed error before it reaches this frame.
        let _ = catch_unwind(AssertUnwindSafe(|| task(slot)));
        held = Some(slot);
    }
}

/// Shared state of one [`run_batch_inner`] call.
struct BatchState<R> {
    next: AtomicUsize,
    results: Mutex<Vec<Option<std::thread::Result<R>>>>,
    remaining: Mutex<usize>,
    done: Condvar,
}

/// Runs `run(i)` for every `i < len` across the spare slots of `pool`
/// **and the calling thread**, returning the results in index order.
///
/// The caller claims indexes from the same shared counter as the helper
/// tasks, so the batch completes even when every slot is busy — which
/// makes nested batches (a pool task fanning out a sub-batch on the same
/// pool) deadlock-free by construction.  When no helper can start
/// (`pool = None`, a single index, or no spare slot) the caller runs the
/// whole batch itself, straight through, with no shared state.
///
/// # Panics
/// Re-raises the first panic any task produced, after every in-flight task
/// of the batch has finished (worker threads survive; see the module
/// docs).  A batch the caller runs alone stops at its first panicking
/// index.
pub(crate) fn run_batch_inner<R, F>(pool: Option<&ExecPool>, len: usize, run: F) -> Vec<R>
where
    R: Send + 'static,
    F: Fn(usize) -> R + Send + Sync + 'static,
{
    // The caller claims at least one index itself, so at most len - 1
    // helpers can ever find work.
    let helpers = match pool {
        Some(pool) if len > 1 => pool.spare_slots().min(len - 1),
        _ => 0,
    };
    let Some(pool) = pool.filter(|_| helpers > 0) else {
        return (0..len).map(run).collect();
    };
    let batch = Arc::new(BatchState {
        next: AtomicUsize::new(0),
        results: Mutex::new((0..len).map(|_| None).collect()),
        remaining: Mutex::new(len),
        done: Condvar::new(),
    });
    let run = Arc::new(run);
    // The batch's address tags its helpers: it is unique among queued
    // tasks, since a queued helper keeps its batch alive.
    let tag = Arc::as_ptr(&batch) as usize;
    for _ in 0..helpers {
        let helper_batch = Arc::clone(&batch);
        let helper_run = Arc::clone(&run);
        let helper = move |_slot| drain_batch(&helper_batch, helper_run.as_ref(), len);
        pool.enqueue(tag, Box::new(helper));
    }
    drain_batch(&batch, run.as_ref(), len);
    pool.retract(tag);
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
        for _ in 0..4 {
            let task_counter = Arc::clone(&counter);
            let task_tx = tx.clone();
            pool.spawn(move |worker| {
                assert!(worker < 2, "worker index within the pool");
                task_counter.fetch_add(1, Ordering::Relaxed);
                task_tx.send(()).unwrap();
            });
        }
        for _ in 0..4 {
            rx.recv_timeout(Duration::from_secs(10)).expect("task ran");
        }
        assert_eq!(counter.load(Ordering::Relaxed), 4);
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
        for _ in 0..8 {
            let task_counter = Arc::clone(&counter);
            pool.spawn(move |_| {
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

    #[test]
    fn a_finished_batch_leaves_no_helper_queued() {
        let pool = ExecPool::new(2);
        for round in 0..1_000 {
            assert_eq!(pool.run_batch(4, |i| i), vec![0, 1, 2, 3]);
            assert!(pool.shared.lock().queue.is_empty(), "round {round}");
        }
        // Nothing queued, so an idle slot is spare for a caller.
        assert!(pool.try_claim().is_some());
    }

    #[test]
    fn claims_and_pool_tasks_share_the_slots() {
        let pool = ExecPool::new(2);
        let claim = pool.try_claim().expect("an idle slot");
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        pool.spawn(move |slot| {
            started_tx.send(slot).unwrap();
            release_rx.recv().unwrap();
        });
        let task_slot = started_rx.recv().unwrap();
        assert_ne!(task_slot, claim.index(), "distinct slots");
        // Both slots are held: no claim, no helper — a batch runs on the
        // calling thread alone.
        assert!(pool.try_claim().is_none());
        let caller = std::thread::current().id();
        let threads = pool.run_batch(4, |_| std::thread::current().id());
        assert!(threads.iter().all(|&thread| thread == caller));
        assert!(pool.shared.lock().queue.is_empty(), "no helper was queued");
        // A task spawned now waits for a slot; returning the claim gives it
        // one, and the queued task's slot is not spare in the meantime.
        let (ran_tx, ran_rx) = std::sync::mpsc::channel();
        pool.spawn(move |slot| ran_tx.send(slot).unwrap());
        assert!(ran_rx.try_recv().is_err(), "no slot for the task yet");
        drop(claim);
        let slot = ran_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the returned slot runs the task");
        assert_ne!(slot, task_slot);
        release_tx.send(()).unwrap();
    }

    /// The threads currently doing slot-held work (a thread nests when a
    /// pool task or a claimant runs its own batch indexes), and the most
    /// ever seen at once.
    #[derive(Default)]
    struct SlotTracker {
        depth: Mutex<std::collections::HashMap<std::thread::ThreadId, usize>>,
        peak: AtomicUsize,
    }

    impl SlotTracker {
        fn enter(self: &Arc<Self>) -> TrackerGuard {
            let mut depth = self.depth.lock().unwrap();
            *depth.entry(std::thread::current().id()).or_default() += 1;
            self.peak.fetch_max(depth.len(), Ordering::SeqCst);
            TrackerGuard(Arc::clone(self))
        }
    }

    struct TrackerGuard(Arc<SlotTracker>);

    impl Drop for TrackerGuard {
        fn drop(&mut self) {
            let mut depth = self.0.depth.lock().unwrap();
            let thread = std::thread::current().id();
            let left = depth.get_mut(&thread).map_or(0, |d| {
                *d -= 1;
                *d
            });
            if left == 0 {
                depth.remove(&thread);
            }
        }
    }

    /// A few microseconds of work inside one tracked batch index.
    fn tracked_unit(tracker: &Arc<SlotTracker>, i: usize) -> u64 {
        let _inside = tracker.enter();
        std::hint::black_box((0..2_000u64).map(|x| x ^ i as u64).sum())
    }

    #[test]
    fn pool_tasks_helpers_and_claims_never_exceed_the_slots() {
        let pool = ExecPool::new(2);
        let tracker = Arc::new(SlotTracker::default());
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        for _ in 0..8 {
            let task_pool = Arc::clone(&pool);
            let task_tracker = Arc::clone(&tracker);
            let task_done = done_tx.clone();
            pool.spawn(move |_| {
                let inside = task_tracker.enter();
                let unit_tracker = Arc::clone(&task_tracker);
                task_pool.run_batch(3, move |i| tracked_unit(&unit_tracker, i));
                drop(inside);
                task_done.send(()).unwrap();
            });
        }
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        let Some(claim) = pool.try_claim() else {
                            std::thread::yield_now();
                            continue;
                        };
                        let inside = tracker.enter();
                        let unit_tracker = Arc::clone(&tracker);
                        pool.run_batch(3, move |i| tracked_unit(&unit_tracker, i));
                        drop(inside);
                        drop(claim);
                    }
                });
            }
        });
        for _ in 0..8 {
            done_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("task done");
        }
        let peak = tracker.peak.load(Ordering::SeqCst);
        assert!((1..=2).contains(&peak), "{peak} threads held slots at once");
    }
}
