//! A pool-backed serving front end: [`CoreService`].
//!
//! `CoreService` is the seam between clients and the query engine: one
//! bounded two-priority queue with admission control, typed rejection, and
//! per-request accounting, in front of a [`ShardedEngine`] (an unsharded
//! service runs a [`ShardPlan::Span`] engine) executed by a persistent
//! [`ExecPool`] of [`ServiceConfig::workers`] threads:
//!
//! * [`CoreService::submit`] **validates synchronously** (malformed requests
//!   never occupy queue capacity) and then applies **admission control**:
//!   when [`ServiceConfig::queue_depth`] requests are already waiting, or
//!   the engine's skyline cache sits above
//!   [`ServiceConfig::admission_memory_bytes`], the request is refused with
//!   [`TkError::BudgetExceeded`] instead of being queued;
//! * an admitted request joins the service's one queue and spawns one pool
//!   task; each task pops the oldest waiting **interactive** request, else
//!   the oldest **batch** one (see [`Lane`]), so whichever worker frees up
//!   first runs the request the priority rule names.  The skyline and
//!   stitch caches are engine-wide, so no worker is a better home for a
//!   request than any other;
//! * every admitted request gets a [`RequestId`] and a [`Ticket`]; the reply
//!   carries queue-wait and execution latency alongside the
//!   [`QueryResponse`], and [`ServiceStats::per_worker`] breaks latency out
//!   per worker, including a [`LatencyHistogram`];
//! * a **panicking request** (typically a panicking user sink in stream
//!   mode) is caught on the worker: the caller's ticket resolves to
//!   [`TkError::WorkerPanicked`], the worker thread survives, and every
//!   statistic — including the per-worker histograms — remains intact;
//! * workers run every request through [`ShardedEngine::execute`]:
//!   multi-`k` count, sample and materialize requests fan their `k`s
//!   across the **same pool** (the executing worker participates, so
//!   nested fan-out cannot deadlock), and a `k`-range sweep still costs at
//!   most one skyline build per `(shard, k)`;
//! * a request may carry a **deadline** ([`CoreService::submit_opts`]): a
//!   request whose deadline expired while it waited is **shed** with
//!   [`TkError::DeadlineExceeded`] instead of executing — overload degrades
//!   batch traffic first and never spends a worker on an answer nobody is
//!   waiting for.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::engine::CacheStats;
use crate::error::TkError;
use crate::exec::ExecPool;
use crate::ingest::{AbsorbStats, IngestEvent};
use crate::query::Algorithm;
use crate::request::{QueryRequest, QueryResponse};
use crate::shard::{ShardPlan, ShardedEngine};
use temporal_graph::TemporalGraph;

/// Priority class of a submitted request (see [`SubmitOptions::lane`]).
///
/// Whichever worker frees up next dequeues the oldest waiting
/// `Interactive` request, and the oldest `Batch` one only when no
/// interactive request waits.  Admission control (queue depth, memory
/// gate) and deadlines apply to both classes alike — priority decides *who
/// runs first*, not *who gets in*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Lane {
    /// Latency-sensitive traffic; always served first.
    #[default]
    Interactive,
    /// Throughput traffic; served when no interactive request is waiting.
    /// Ingest batches ([`CoreService::submit_append`]) account here.
    Batch,
}

impl Lane {
    /// Number of priority lanes (the length of [`ServiceStats::per_lane`]).
    pub const COUNT: usize = 2;

    /// Index of this lane in [`ServiceStats::per_lane`].
    pub fn index(self) -> usize {
        match self {
            Lane::Interactive => 0,
            Lane::Batch => 1,
        }
    }
}

impl std::fmt::Display for Lane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Lane::Interactive => write!(f, "interactive"),
            Lane::Batch => write!(f, "batch"),
        }
    }
}

impl std::str::FromStr for Lane {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "interactive" => Ok(Lane::Interactive),
            "batch" => Ok(Lane::Batch),
            other => Err(format!("`{other}` is not `interactive` or `batch`")),
        }
    }
}

/// Per-request options of [`CoreService::submit_opts`].
#[derive(Debug, Clone, Copy)]
pub struct SubmitOptions {
    /// The algorithm executing the request.
    pub algorithm: Algorithm,
    /// The priority class the request queues in.
    pub lane: Lane,
    /// Relative deadline, measured from submission.  A request still queued
    /// when its deadline expires is shed at dequeue with
    /// [`TkError::DeadlineExceeded`] instead of executing; a zero deadline
    /// is refused at admission.  The deadline does **not** abort a request
    /// already executing — it bounds queueing, not computation.
    pub deadline: Option<Duration>,
}

impl Default for SubmitOptions {
    fn default() -> Self {
        Self {
            algorithm: Algorithm::Enum,
            lane: Lane::Interactive,
            deadline: None,
        }
    }
}

impl SubmitOptions {
    /// Options for a batch-lane request with the default algorithm.
    pub fn batch() -> Self {
        Self {
            lane: Lane::Batch,
            ..Self::default()
        }
    }

    /// Returns these options with `algorithm`.
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Returns these options with `lane`.
    pub fn with_lane(mut self, lane: Lane) -> Self {
        self.lane = lane;
        self
    }

    /// Returns these options with a relative `deadline`.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Tuning knobs of a [`CoreService`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Maximum number of requests waiting in the queue (not counting the
    /// ones currently executing on workers).  Submissions beyond this depth
    /// are refused with [`TkError::BudgetExceeded`].
    pub queue_depth: usize,
    /// Worker threads of the service's persistent pool; `0` is treated as
    /// `1`.  Each worker executes one request at a time, so up to `workers`
    /// requests are in flight concurrently.
    pub workers: usize,
    /// Refuse new requests while the engine's skyline cache holds more than
    /// this many resident bytes (`None` disables the memory gate; the
    /// engine's own LRU budget still bounds the cache itself).
    pub admission_memory_bytes: Option<usize>,
    /// Configuration of the underlying engine.
    pub engine: crate::engine::EngineConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            queue_depth: 64,
            workers: 1,
            admission_memory_bytes: None,
            engine: crate::engine::EngineConfig::default(),
        }
    }
}

/// Identifier of one admitted request, unique per service instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req-{}", self.0)
    }
}

/// The completed reply to an admitted request.
#[derive(Debug)]
pub struct ServiceReply {
    /// The id handed out at submission.
    pub id: RequestId,
    /// The request's results, one outcome per `k`.
    pub response: QueryResponse,
    /// Time the request spent queued before a worker picked it up.
    pub queue_wait: Duration,
    /// Wall-clock execution time on the worker.
    pub execute_time: Duration,
    /// Index of the worker thread that executed the request.
    pub worker: usize,
}

/// Handle to one admitted request; redeem it with [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket {
    /// The id of the admitted request.
    pub id: RequestId,
    rx: mpsc::Receiver<Result<ServiceReply, TkError>>,
}

impl Ticket {
    /// Blocks until the request completes (or the service shuts down, which
    /// yields [`TkError::ServiceStopped`]).
    ///
    /// # Errors
    /// Whatever the execution produced, or [`TkError::ServiceStopped`] if
    /// the worker exited before replying.
    pub fn wait(self) -> Result<ServiceReply, TkError> {
        self.rx.recv().unwrap_or(Err(TkError::ServiceStopped))
    }

    /// Non-blocking probe: `None` while the request is still in flight.
    pub fn try_wait(&self) -> Option<Result<ServiceReply, TkError>> {
        self.rx.try_recv().ok()
    }
}

/// The completed reply to an admitted append batch.
#[derive(Debug)]
pub struct IngestReply {
    /// The id handed out at submission.
    pub id: RequestId,
    /// What the absorb did: events appended, invalidations, seal outcome.
    pub stats: AbsorbStats,
    /// Time the batch spent queued before a worker picked it up.
    pub queue_wait: Duration,
    /// Wall-clock absorb time on the worker (append + publish + purge).
    pub absorb_time: Duration,
    /// Index of the worker thread that absorbed the batch.
    pub worker: usize,
}

/// Handle to one admitted append batch; redeem it with
/// [`IngestTicket::wait`].
#[derive(Debug)]
pub struct IngestTicket {
    /// The id of the admitted batch.
    pub id: RequestId,
    rx: mpsc::Receiver<Result<IngestReply, TkError>>,
}

impl IngestTicket {
    /// Blocks until the batch is absorbed (or the service shuts down, which
    /// yields [`TkError::ServiceStopped`]).
    ///
    /// # Errors
    /// Whatever the absorb produced — a typed append rejection applies to
    /// the whole batch, which changed nothing — or
    /// [`TkError::ServiceStopped`] if the worker exited before replying.
    pub fn wait(self) -> Result<IngestReply, TkError> {
        self.rx.recv().unwrap_or(Err(TkError::ServiceStopped))
    }

    /// Non-blocking probe: `None` while the batch is still in flight.
    pub fn try_wait(&self) -> Option<Result<IngestReply, TkError>> {
        self.rx.try_recv().ok()
    }
}

/// Base-10 histogram of per-request execution latencies.
///
/// Bucket `i` counts requests faster than
/// [`LatencyHistogram::BOUNDS_MICROS`]`[i]` microseconds (and at least the
/// previous bound); the last bucket counts everything slower.  Stored in the
/// shared [`ServiceStats`], not on the worker threads, so a worker panic
/// cannot drop it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// The bucket counts, slowest bucket last.
    pub buckets: [u64; LatencyHistogram::NUM_BUCKETS],
}

impl LatencyHistogram {
    /// Number of buckets (seven bounded decades plus the overflow bucket).
    pub const NUM_BUCKETS: usize = 8;

    /// Upper bounds (exclusive) of the bounded buckets, in microseconds:
    /// 10µs, 100µs, 1ms, 10ms, 100ms, 1s, 10s.
    pub const BOUNDS_MICROS: [u64; 7] = [10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];

    /// Records one observed latency.
    pub fn record(&mut self, latency: Duration) {
        let micros = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        let bucket = Self::BOUNDS_MICROS
            .iter()
            .position(|&bound| micros < bound)
            .unwrap_or(Self::NUM_BUCKETS - 1);
        self.buckets[bucket] += 1;
    }

    /// Total number of recorded latencies over all buckets.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: [0; Self::NUM_BUCKETS],
        }
    }
}

/// Latency counters of one worker thread (see [`ServiceStats::per_worker`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Requests this worker fully executed and replied to (including
    /// panicked ones, which reply with [`TkError::WorkerPanicked`]).
    pub completed: u64,
    /// Requests whose execution panicked on this worker (the worker
    /// survived; see the module docs).
    pub panicked: u64,
    /// Summed execution time of this worker's completed requests.
    pub execute_total: Duration,
    /// Execution-latency histogram of this worker's completed requests.
    pub latency: LatencyHistogram,
}

/// Cumulative request accounting, readable via [`CoreService::stats`].
///
/// All counters — including the per-worker histograms — live in the
/// service's shared state, never on a worker thread, so they survive
/// panicking requests intact (a poisoned lock is recovered, not dropped).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests admitted to the queue.
    pub admitted: u64,
    /// Requests refused by admission control ([`TkError::BudgetExceeded`]).
    pub rejected: u64,
    /// Requests fully executed and replied to (sum of the per-worker
    /// counters; includes panicked requests, which reply with an error).
    pub completed: u64,
    /// Admitted requests shed without executing because their deadline
    /// expired while they waited (plus submissions refused at admission
    /// with an already-expired deadline); each replied with
    /// [`TkError::DeadlineExceeded`].
    pub shed: u64,
    /// Requests whose execution panicked (sum of the per-worker counters).
    pub panicked: u64,
    /// Summed queue wait of completed requests.
    pub queue_wait_total: Duration,
    /// Summed execution time of completed requests (sum of the per-worker
    /// totals).
    pub execute_total: Duration,
    /// High-water mark of the number of waiting requests.
    pub max_queue_depth: usize,
    /// Per-worker latency counters, one entry per pool worker.
    pub per_worker: Vec<WorkerStats>,
    /// Per-priority-lane counters, indexed by [`Lane::index`].  Each of
    /// `admitted`, `completed`, `shed` and `rejected` sums across the lanes
    /// to the service-wide total (ingest batches account under
    /// [`Lane::Batch`]).
    pub per_lane: [LaneStats; Lane::COUNT],
    /// Ingest-lane breakdown ([`CoreService::submit_append`] traffic;
    /// appends also count in the shared `admitted`/`completed` totals).
    pub ingest: IngestLaneStats,
}

impl ServiceStats {
    /// The counters of one priority lane.
    pub fn lane(&self, lane: Lane) -> &LaneStats {
        &self.per_lane[lane.index()]
    }
}

/// Counters of one priority [`Lane`] (see [`ServiceStats::per_lane`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Requests of this lane admitted to the queues.
    pub admitted: u64,
    /// Requests of this lane fully executed and replied to.
    pub completed: u64,
    /// Requests of this lane shed with [`TkError::DeadlineExceeded`].
    pub shed: u64,
    /// Requests of this lane refused by admission control.
    pub rejected: u64,
}

/// Ingest-lane counters of a [`CoreService`] (see [`ServiceStats::ingest`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestLaneStats {
    /// Append batches admitted to the queue.
    pub submitted: u64,
    /// Batches absorbed successfully.
    pub completed: u64,
    /// Batches rejected by the ingest path (out-of-order, duplicate,
    /// malformed) or failed by a worker panic; each changed nothing.
    pub failed: u64,
    /// Events appended by successful batches.
    pub events_appended: u64,
    /// Tail seals triggered by absorbed batches (per the engine's
    /// [`crate::SealPolicy`]).
    pub seals: u64,
    /// Summed worker-side absorb time of completed and failed batches.
    pub absorb_total: Duration,
}

struct Job {
    id: RequestId,
    request: crate::request::ValidatedRequest,
    algorithm: Algorithm,
    lane: Lane,
    /// Relative deadline; checked against `enqueued_at` at dequeue.
    deadline: Option<Duration>,
    enqueued_at: Instant,
    reply: mpsc::Sender<Result<ServiceReply, TkError>>,
}

/// A request that passed [`CoreService::admit`]: its id and reply channel,
/// with the state lock still held so the caller enqueues it atomically with
/// the admitted counters.
struct Admission<'a, T> {
    state: MutexGuard<'a, ServiceState>,
    id: RequestId,
    reply: mpsc::Sender<T>,
    ticket: mpsc::Receiver<T>,
}

/// The service's waiting query jobs, split by priority: dequeue takes
/// interactive jobs first, FIFO within each class.
#[derive(Default)]
struct LaneQueues {
    interactive: VecDeque<Job>,
    batch: VecDeque<Job>,
}

impl LaneQueues {
    fn push(&mut self, job: Job) {
        match job.lane {
            Lane::Interactive => self.interactive.push_back(job),
            Lane::Batch => self.batch.push_back(job),
        }
    }

    fn pop(&mut self) -> Option<Job> {
        self.interactive
            .pop_front()
            .or_else(|| self.batch.pop_front())
    }
}

struct ServiceState {
    open: bool,
    /// Admitted requests not yet picked up by a worker.
    queued: usize,
    /// Requests currently executing.
    in_flight: usize,
    /// Waiting query jobs.  Every push is paired with one pool task that
    /// pops from this queue, so the queue and the pool stay in lockstep.
    queue: LaneQueues,
    stats: ServiceStats,
}

struct ServiceShared {
    state: Mutex<ServiceState>,
    /// Signalled whenever a request finishes (shutdown drains on it).
    drained: Condvar,
}

impl ServiceShared {
    /// Locks the service state, recovering from poisoning so statistics
    /// survive a panic that unwound through the lock.
    fn lock(&self) -> MutexGuard<'_, ServiceState> {
        crate::sync::lock(&self.state)
    }
}

/// A query-serving front end: one bounded two-priority queue + admission
/// control over a [`ShardedEngine`], executed by a persistent pool of
/// [`ServiceConfig::workers`] threads.
///
/// # Example
///
/// ```
/// use tkcore::{paper_example, Algorithm, CoreService, QueryRequest, ServiceConfig, ShardPlan};
///
/// let service = CoreService::start_sharded(
///     paper_example::graph(),
///     ShardPlan::Span,
///     ServiceConfig {
///         workers: 2,
///         ..ServiceConfig::default()
///     },
/// )
/// .unwrap();
/// let ticket = service
///     .submit(QueryRequest::sweep(1..=3, 1, 7))
///     .unwrap();
/// let reply = ticket.wait().unwrap();
/// assert_eq!(reply.response.outcomes.len(), 3); // one outcome per k
/// // Each k of the sweep built its span-wide skyline at most once.
/// assert_eq!(service.cache_stats().misses, 3);
/// assert_eq!(service.stats().per_worker.len(), 2);
/// service.shutdown();
/// ```
pub struct CoreService {
    engine: Arc<ShardedEngine>,
    shared: Arc<ServiceShared>,
    /// `None` only after shutdown; dropping the last reference joins the
    /// pool threads.
    pool: Option<Arc<ExecPool>>,
    config: ServiceConfig,
    next_id: AtomicU64,
}

impl CoreService {
    /// Starts a service owning `graph` on a [`ShardedEngine`] cut by `plan`
    /// ([`ShardPlan::Span`] for an unsharded engine); the engine's batches
    /// share the service's worker pool.
    ///
    /// # Errors
    /// [`TkError::InvalidShardPlan`] when `plan` does not resolve against
    /// the graph.
    pub fn start_sharded(
        graph: TemporalGraph,
        plan: ShardPlan,
        config: ServiceConfig,
    ) -> Result<Self, TkError> {
        let engine = ShardedEngine::with_config(graph, plan, config.engine)?;
        Ok(Self::over_sharded(Arc::new(engine), config))
    }

    /// Starts a service over an existing (possibly shared) engine.  If the
    /// engine has not yet created or been given a pool of its own, it
    /// adopts the service's pool, so one set of threads serves both layers;
    /// otherwise it keeps its existing pool.
    pub fn over_sharded(engine: Arc<ShardedEngine>, config: ServiceConfig) -> Self {
        let pool = ExecPool::new(config.workers.max(1));
        engine.adopt_pool(Arc::clone(&pool));
        let shared = Arc::new(ServiceShared {
            state: Mutex::new(ServiceState {
                open: true,
                queued: 0,
                in_flight: 0,
                queue: LaneQueues::default(),
                stats: ServiceStats {
                    per_worker: vec![WorkerStats::default(); pool.num_workers()],
                    ..ServiceStats::default()
                },
            }),
            drained: Condvar::new(),
        });
        Self {
            engine,
            shared,
            pool: Some(pool),
            config,
            next_id: AtomicU64::new(1),
        }
    }

    /// The engine this service executes on (for cache statistics, warming,
    /// ingest state…).
    pub fn engine(&self) -> &ShardedEngine {
        &self.engine
    }

    /// Skyline-cache counters of the engine, including the per-shard and
    /// boundary-stitch dimensions.
    pub fn cache_stats(&self) -> CacheStats {
        self.engine.cache_stats()
    }

    /// Cumulative admission and latency counters, including per-worker ones.
    pub fn stats(&self) -> ServiceStats {
        self.shared.lock().stats.clone()
    }

    /// Submits a request running the paper's final algorithm (`Enum`).
    ///
    /// # Errors
    /// See [`CoreService::submit_with`].
    pub fn submit(&self, request: QueryRequest) -> Result<Ticket, TkError> {
        self.submit_with(request, Algorithm::Enum)
    }

    /// Validates `request`, applies admission control, and enqueues it for
    /// the chosen algorithm in the default (interactive, no-deadline)
    /// priority class.
    ///
    /// # Errors
    /// See [`CoreService::submit_opts`].
    pub fn submit_with(
        &self,
        request: QueryRequest,
        algorithm: Algorithm,
    ) -> Result<Ticket, TkError> {
        self.submit_opts(
            request,
            SubmitOptions {
                algorithm,
                ..SubmitOptions::default()
            },
        )
    }

    /// Validates `request`, applies admission control, and enqueues it with
    /// the priority lane and deadline in `opts`.
    ///
    /// Deadlines are enforced twice without ever interrupting execution: a
    /// zero deadline is refused here, and a request whose deadline passes
    /// while it waits is shed when a worker would otherwise pick it up —
    /// its ticket resolves to [`TkError::DeadlineExceeded`] and the worker
    /// moves on to the next job.
    ///
    /// # Errors
    /// * the validation errors of [`QueryRequest::validate`] (checked
    ///   synchronously — malformed requests never consume queue capacity);
    /// * [`TkError::BudgetExceeded`] when [`ServiceConfig::queue_depth`]
    ///   requests are already waiting or the skyline cache exceeds
    ///   [`ServiceConfig::admission_memory_bytes`];
    /// * [`TkError::DeadlineExceeded`] when `opts.deadline` is zero (the
    ///   request is expired on arrival);
    /// * [`TkError::ServiceStopped`] after [`CoreService::shutdown`].
    pub fn submit_opts(
        &self,
        request: QueryRequest,
        opts: SubmitOptions,
    ) -> Result<Ticket, TkError> {
        let validated = request.validate(&self.engine.graph())?;
        let pool = self.pool()?;
        // Reading cache statistics takes the engine's cache mutex; doing it
        // before the state lock keeps the two locks unnested.
        let over_budget = self
            .config
            .admission_memory_bytes
            .filter(|&budget| self.engine.cache_stats().resident_bytes > budget);
        let Admission {
            mut state,
            id,
            reply,
            ticket,
        } = self.admit(opts.lane, |stats| {
            if let Some(limit) = over_budget {
                stats.rejected += 1;
                stats.per_lane[opts.lane.index()].rejected += 1;
                return Err(TkError::BudgetExceeded {
                    resource: "cache memory",
                    limit,
                });
            }
            if opts.deadline == Some(Duration::ZERO) {
                // Expired on arrival: shed at admission, never queued.
                stats.shed += 1;
                stats.per_lane[opts.lane.index()].shed += 1;
                return Err(TkError::DeadlineExceeded {
                    deadline: Duration::ZERO,
                    waited: Duration::ZERO,
                });
            }
            Ok(())
        })?;
        state.queue.push(Job {
            id,
            request: validated,
            algorithm: opts.algorithm,
            lane: opts.lane,
            deadline: opts.deadline,
            enqueued_at: Instant::now(),
            reply,
        });
        drop(state);
        let shared = Arc::clone(&self.shared);
        let engine = Arc::clone(&self.engine);
        pool.spawn(move |worker| drain_service_job(&engine, &shared, worker));
        Ok(Ticket { id, rx: ticket })
    }

    /// Submits a batch of ingest events to the service: the batch is
    /// admitted like a batch-lane request (same admission control and
    /// accounting, broken out in [`ServiceStats::ingest`]) and absorbed on
    /// a worker via [`ShardedEngine::absorb`].  Ingestion serializes with
    /// concurrent queries only at the engine's snapshot swap, so queries
    /// keep executing while batches land — and each observes either none of
    /// a batch or all of it.
    ///
    /// Batches absorb in worker order, not submission order; submitters
    /// needing strict event ordering should wait on each
    /// [`IngestTicket`] before submitting the next batch (the engine
    /// refuses out-of-order timestamps with a typed error either way).
    ///
    /// # Errors
    /// * [`TkError::BudgetExceeded`] when [`ServiceConfig::queue_depth`]
    ///   requests are already waiting;
    /// * [`TkError::ServiceStopped`] after [`CoreService::shutdown`].
    pub fn submit_append(&self, events: Vec<IngestEvent>) -> Result<IngestTicket, TkError> {
        let pool = self.pool()?;
        let Admission {
            mut state,
            id,
            reply,
            ticket,
        } = self.admit(Lane::Batch, |_| Ok(()))?;
        state.stats.ingest.submitted += 1;
        drop(state);
        let shared = Arc::clone(&self.shared);
        let engine = Arc::clone(&self.engine);
        let enqueued_at = Instant::now();
        pool.spawn(move |worker| {
            execute_ingest_job(&engine, &shared, id, &events, enqueued_at, &reply, worker);
        });
        Ok(IngestTicket { id, rx: ticket })
    }

    /// The admission step shared by queries and appends, under one state
    /// lock: a stopped service refuses, a full queue refuses, then `gate`
    /// may refuse with its own accounting.  An admitted request gets an id,
    /// a reply channel and the admitted counters; the lock stays held in the
    /// returned [`Admission`] so the caller enqueues atomically with them.
    fn admit<T>(
        &self,
        lane: Lane,
        gate: impl FnOnce(&mut ServiceStats) -> Result<(), TkError>,
    ) -> Result<Admission<'_, T>, TkError> {
        let mut state = self.shared.lock();
        if !state.open {
            // A stopped service is ServiceStopped, never BudgetExceeded.
            return Err(TkError::ServiceStopped);
        }
        if state.queued >= self.config.queue_depth {
            state.stats.rejected += 1;
            state.stats.per_lane[lane.index()].rejected += 1;
            return Err(TkError::BudgetExceeded {
                resource: "request queue",
                limit: self.config.queue_depth,
            });
        }
        gate(&mut state.stats)?;
        let id = RequestId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let (reply, ticket) = mpsc::channel();
        state.queued += 1;
        state.stats.admitted += 1;
        state.stats.per_lane[lane.index()].admitted += 1;
        state.stats.max_queue_depth = state.stats.max_queue_depth.max(state.queued);
        Ok(Admission {
            state,
            id,
            reply,
            ticket,
        })
    }

    /// The worker pool, or [`TkError::ServiceStopped`] once
    /// [`CoreService::shutdown`] released it.
    fn pool(&self) -> Result<&Arc<ExecPool>, TkError> {
        self.pool.as_ref().ok_or(TkError::ServiceStopped)
    }

    /// Stops accepting requests, waits for every admitted request (query
    /// and ingest alike) to finish or shed, and releases the worker pool.
    /// Dropping the service does the same; `shutdown` followed by the
    /// implicit drop is idempotent — the second drain is a no-op.
    pub fn shutdown(mut self) {
        self.close_and_join();
    }

    fn close_and_join(&mut self) {
        if self.pool.is_none() {
            // Already drained: `shutdown(mut self)` ran close_and_join and
            // is now dropping `self`, which calls it again.  The first pass
            // closed admission and waited out every queued and in-flight
            // job, so there is nothing left to wait on.
            return;
        }
        let mut state = self.shared.lock();
        state.open = false;
        while state.queued + state.in_flight > 0 {
            state = crate::sync::wait(&self.shared.drained, state);
        }
        drop(state);
        // Dropping the last pool reference joins the worker threads.  An
        // engine that adopted the pool holds a reference for its own
        // batches; its threads idle until the engine is dropped.
        self.pool = None;
    }
}

impl Drop for CoreService {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

/// Renders a panic payload for [`TkError::WorkerPanicked`].
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Dequeues and runs the service's next waiting job on pool worker
/// `worker`: priority pop (interactive before batch), deadline check, then
/// execution with panic isolation, accounting, reply.
///
/// One such task is spawned per admitted job, so the pop always finds a
/// job — though not necessarily *the* job that spawned this task: a task
/// spawned by a batch submission happily executes an interactive request
/// that arrived later, which is exactly how interactive requests overtake
/// waiting batch ones.
fn drain_service_job(engine: &Arc<ShardedEngine>, shared: &ServiceShared, worker: usize) {
    let (job, queue_wait) = {
        let mut state = shared.lock();
        let Some(job) = state.queue.pop() else {
            // Defensive: pushes and spawns are 1:1, so this cannot happen.
            return;
        };
        state.queued -= 1;
        let waited = job.enqueued_at.elapsed();
        if let Some(deadline) = job.deadline {
            if waited > deadline {
                // Expired while queued: shed instead of executing.
                state.stats.shed += 1;
                state.stats.per_lane[job.lane.index()].shed += 1;
                drop(state);
                shared.drained.notify_all();
                // The submitter may have dropped its ticket; not an error.
                let _ = job
                    .reply
                    .send(Err(TkError::DeadlineExceeded { deadline, waited }));
                return;
            }
        }
        state.in_flight += 1;
        (job, waited)
    };
    let Job {
        id,
        request,
        algorithm,
        lane,
        reply,
        ..
    } = job;
    let (result, execute_time) = complete(
        shared,
        lane,
        worker,
        queue_wait,
        || engine.execute_validated(request, algorithm),
        |_, _, _| {},
    );
    let reply_value = result.map(|response| ServiceReply {
        id,
        response,
        queue_wait,
        execute_time,
        worker,
    });
    // The submitter may have dropped its ticket; that is not an error.
    let _ = reply.send(reply_value);
}

/// Runs one admitted append batch on pool worker `worker`: accounting,
/// absorb with panic isolation, ingest-lane accounting, reply.
fn execute_ingest_job(
    engine: &ShardedEngine,
    shared: &ServiceShared,
    id: RequestId,
    events: &[IngestEvent],
    enqueued_at: Instant,
    reply: &mpsc::Sender<Result<IngestReply, TkError>>,
    worker: usize,
) {
    {
        let mut state = shared.lock();
        state.queued -= 1;
        state.in_flight += 1;
    }
    let queue_wait = enqueued_at.elapsed();
    let (result, absorb_time) = complete(
        shared,
        Lane::Batch,
        worker,
        queue_wait,
        || engine.absorb(events),
        |stats, result, absorb_time| {
            let ingest = &mut stats.ingest;
            ingest.absorb_total += absorb_time;
            match result {
                Ok(absorbed) => {
                    ingest.completed += 1;
                    ingest.events_appended += absorbed.appended as u64;
                    if absorbed.sealed {
                        ingest.seals += 1;
                    }
                }
                Err(_) => ingest.failed += 1,
            }
        },
    );
    let reply_value = result.map(|stats| IngestReply {
        id,
        stats,
        queue_wait,
        absorb_time,
        worker,
    });
    // The submitter may have dropped its ticket; that is not an error.
    let _ = reply.send(reply_value);
}

/// The completion step shared by queries and appends: runs an in-flight
/// job's `work` on pool worker `worker` with panic isolation (a panic
/// becomes [`TkError::WorkerPanicked`]), then books it under one state lock
/// — completed, per-lane, per-worker, latency histogram and panicked
/// counters, plus `book`'s job-specific accounting — and wakes drain
/// waiters.  Returns the result and the execution time.
fn complete<R>(
    shared: &ServiceShared,
    lane: Lane,
    worker: usize,
    queue_wait: Duration,
    work: impl FnOnce() -> Result<R, TkError>,
    book: impl FnOnce(&mut ServiceStats, &Result<R, TkError>, Duration),
) -> (Result<R, TkError>, Duration) {
    let t0 = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(work));
    let elapsed = t0.elapsed();
    let (result, panicked) = match outcome {
        Ok(result) => (result, false),
        Err(payload) => (
            Err(TkError::WorkerPanicked {
                detail: panic_detail(payload.as_ref()),
            }),
            true,
        ),
    };
    {
        let mut state = shared.lock();
        state.in_flight -= 1;
        let stats = &mut state.stats;
        stats.completed += 1;
        stats.per_lane[lane.index()].completed += 1;
        stats.queue_wait_total += queue_wait;
        stats.execute_total += elapsed;
        let per_worker = &mut stats.per_worker[worker];
        per_worker.completed += 1;
        per_worker.execute_total += elapsed;
        per_worker.latency.record(elapsed);
        if panicked {
            per_worker.panicked += 1;
            stats.panicked += 1;
        }
        book(stats, &result, elapsed);
    }
    shared.drained.notify_all();
    (result, elapsed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example;
    use crate::request::KOutput;
    use crate::sink::ResultSink;
    use temporal_graph::TimeWindow;

    /// An unsharded service over the paper example.
    fn span_service(config: ServiceConfig) -> CoreService {
        CoreService::start_sharded(paper_example::graph(), ShardPlan::Span, config).unwrap()
    }

    #[test]
    fn submitted_requests_complete_with_latency_accounting() {
        let service = span_service(ServiceConfig::default());
        let ticket = service.submit(QueryRequest::single(2, 1, 4)).unwrap();
        let id = ticket.id;
        let reply = ticket.wait().unwrap();
        assert_eq!(reply.id, id);
        assert_eq!(reply.response.total_cores(), 2);
        assert!(reply.worker < 1, "single-worker pool");
        let stats = service.stats();
        assert_eq!(stats.admitted, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.panicked, 0);
        assert!(stats.execute_total >= reply.execute_time);
        assert_eq!(stats.per_worker.len(), 1);
        assert_eq!(stats.per_worker[0].completed, 1);
        assert_eq!(stats.per_worker[0].execute_total, stats.execute_total);
        assert_eq!(stats.per_worker[0].latency.count(), 1);
        service.shutdown();
    }

    #[test]
    fn invalid_requests_are_rejected_synchronously() {
        let service = span_service(ServiceConfig::default());
        assert!(matches!(
            service.submit(QueryRequest::single(0, 1, 4)),
            Err(TkError::KOutOfRange { k: 0 })
        ));
        assert!(matches!(
            service.submit(QueryRequest::single(2, 9, 12)),
            Err(TkError::WindowPastTmax { .. })
        ));
        let stats = service.stats();
        assert_eq!(stats.admitted, 0, "invalid requests never hit the queue");
    }

    #[test]
    fn sweep_requests_report_per_k_outcomes() {
        let service = span_service(ServiceConfig::default());
        let reply = service
            .submit(QueryRequest::sweep(1..=3, 1, 7))
            .unwrap()
            .wait()
            .unwrap();
        let ks: Vec<usize> = reply.response.outcomes.iter().map(|o| o.k).collect();
        assert_eq!(ks, vec![1, 2, 3]);
        for outcome in &reply.response.outcomes {
            assert!(matches!(outcome.output, KOutput::Counts(_)));
        }
        assert_eq!(service.cache_stats().misses, 3);
        service.shutdown();
    }

    #[test]
    fn sharded_service_answers_like_span_and_reports_shard_cache() {
        let graph = paper_example::graph();
        let span = span_service(ServiceConfig::default());
        let sharded =
            CoreService::start_sharded(graph, ShardPlan::FixedCount(4), ServiceConfig::default())
                .unwrap();
        assert_eq!(span.engine().num_shards(), 1);
        assert_eq!(sharded.engine().num_shards(), 4);
        for request in [
            || QueryRequest::single(2, 1, 4).materialize(),
            || QueryRequest::sweep(1..=3, 2, 6).materialize(),
        ] {
            let a = span.submit(request()).unwrap().wait().unwrap();
            let b = sharded.submit(request()).unwrap().wait().unwrap();
            assert_eq!(a.response.total_cores(), b.response.total_cores());
            for (oa, ob) in a.response.outcomes.iter().zip(&b.response.outcomes) {
                let (KOutput::Cores(ca), KOutput::Cores(cb)) = (&oa.output, &ob.output) else {
                    panic!("materialized request");
                };
                assert_eq!(ca, cb, "k={}", oa.k);
            }
        }
        assert_eq!(sharded.cache_stats().per_shard.len(), 4);
        span.shutdown();
        sharded.shutdown();
    }

    #[test]
    fn lanes_parse_and_display_round_trip() {
        for lane in [Lane::Interactive, Lane::Batch] {
            let rendered = lane.to_string();
            assert_eq!(rendered.parse::<Lane>(), Ok(lane));
            assert!(lane.index() < Lane::COUNT);
        }
        assert!("express".parse::<Lane>().is_err());
        assert_eq!(Lane::default(), Lane::Interactive);
    }

    #[test]
    fn a_zero_deadline_is_shed_at_admission() {
        let service = span_service(ServiceConfig::default());
        let err = service
            .submit_opts(
                QueryRequest::single(2, 1, 4),
                SubmitOptions::default().with_deadline(Duration::ZERO),
            )
            .unwrap_err();
        assert!(matches!(err, TkError::DeadlineExceeded { .. }), "{err}");
        let stats = service.stats();
        assert_eq!(stats.admitted, 0, "never queued");
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.lane(Lane::Interactive).shed, 1);
        service.shutdown();
    }

    #[test]
    fn per_lane_counters_sum_to_totals_across_both_classes() {
        let service = span_service(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let mut tickets = Vec::new();
        for _ in 0..3 {
            tickets.push(
                service
                    .submit_opts(QueryRequest::single(2, 1, 4), SubmitOptions::default())
                    .unwrap(),
            );
        }
        for _ in 0..2 {
            tickets.push(
                service
                    .submit_opts(
                        QueryRequest::single(2, 1, 4),
                        SubmitOptions::batch().with_deadline(Duration::from_secs(3600)),
                    )
                    .unwrap(),
            );
        }
        for ticket in tickets {
            let reply = ticket.wait().unwrap();
            assert_eq!(reply.response.total_cores(), 2);
        }
        let stats = service.stats();
        assert_eq!(stats.admitted, 5);
        assert_eq!(stats.completed, 5);
        assert_eq!(stats.shed, 0);
        assert_eq!(stats.lane(Lane::Interactive).admitted, 3);
        assert_eq!(stats.lane(Lane::Batch).admitted, 2);
        let lane_admitted: u64 = stats.per_lane.iter().map(|l| l.admitted).sum();
        let lane_completed: u64 = stats.per_lane.iter().map(|l| l.completed).sum();
        assert_eq!(lane_admitted, stats.admitted);
        assert_eq!(lane_completed, stats.completed);
        service.shutdown();
    }

    #[test]
    fn latency_histogram_buckets_by_decade() {
        let mut histogram = LatencyHistogram::default();
        histogram.record(Duration::from_micros(5));
        histogram.record(Duration::from_micros(50));
        histogram.record(Duration::from_millis(5));
        histogram.record(Duration::from_secs(100));
        assert_eq!(histogram.buckets[0], 1);
        assert_eq!(histogram.buckets[1], 1);
        assert_eq!(histogram.buckets[3], 1);
        assert_eq!(histogram.buckets[LatencyHistogram::NUM_BUCKETS - 1], 1);
        assert_eq!(histogram.count(), 4);
    }

    #[test]
    fn submissions_after_shutdown_are_refused() {
        let graph = paper_example::graph();
        let engine = Arc::new(ShardedEngine::new(graph, ShardPlan::Span).unwrap());
        engine.warm(2); // make the memory gate eligible to fire
        let mut service = CoreService::over_sharded(
            Arc::clone(&engine),
            ServiceConfig {
                admission_memory_bytes: Some(0),
                ..ServiceConfig::default()
            },
        );
        service.close_and_join();
        // Stopped beats over-budget: the caller must learn the service is
        // gone, not be told to back off and retry.
        assert!(matches!(
            service.submit(QueryRequest::single(2, 1, 4)),
            Err(TkError::ServiceStopped)
        ));
        assert_eq!(service.stats().rejected, 0);
    }

    #[test]
    fn memory_admission_gate_rejects_when_cache_is_over_budget() {
        let graph = paper_example::graph();
        let engine = Arc::new(ShardedEngine::new(graph, ShardPlan::Span).unwrap());
        engine.warm(2); // make the cache non-empty
        assert!(engine.cache_stats().resident_bytes > 0);
        let service = CoreService::over_sharded(
            Arc::clone(&engine),
            ServiceConfig {
                admission_memory_bytes: Some(0),
                ..ServiceConfig::default()
            },
        );
        let err = service.submit(QueryRequest::single(2, 1, 4)).unwrap_err();
        assert!(matches!(
            err,
            TkError::BudgetExceeded {
                resource: "cache memory",
                ..
            }
        ));
        assert_eq!(service.stats().rejected, 1);
    }

    /// A sink that panics on the first emitted core.
    struct PanickingSink;

    impl ResultSink for PanickingSink {
        fn emit(&mut self, _tti: TimeWindow, _edges: &[temporal_graph::EdgeId]) {
            panic!("sink rejected the core");
        }
    }

    #[test]
    fn a_panicking_sink_fails_only_its_request_and_stats_survive() {
        let service = span_service(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let err = service
            .submit(QueryRequest::single(2, 1, 4).stream(Box::new(PanickingSink)))
            .unwrap()
            .wait()
            .expect_err("the panic surfaces as a typed error");
        assert!(
            matches!(&err, TkError::WorkerPanicked { detail } if detail.contains("rejected")),
            "{err}"
        );
        // The worker survived: later requests complete on a full pool, and
        // the per-worker histograms still include the panicked request.
        for _ in 0..4 {
            let reply = service
                .submit(QueryRequest::single(2, 1, 4))
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(reply.response.total_cores(), 2);
        }
        let stats = service.stats();
        assert_eq!(stats.completed, 5);
        assert_eq!(stats.panicked, 1);
        assert_eq!(stats.per_worker.len(), 2);
        let per_worker_completed: u64 = stats.per_worker.iter().map(|w| w.completed).sum();
        assert_eq!(per_worker_completed, 5);
        let per_worker_panicked: u64 = stats.per_worker.iter().map(|w| w.panicked).sum();
        assert_eq!(per_worker_panicked, 1);
        let histogram_total: u64 = stats.per_worker.iter().map(|w| w.latency.count()).sum();
        assert_eq!(histogram_total, 5, "histograms survive the panic");
        service.shutdown();
    }
}
