//! A pool-backed serving front end: [`CoreService`].
//!
//! `CoreService` is the seam between clients and the query engine: one
//! bounded two-priority queue with admission control, typed rejection, and
//! per-request accounting, in front of a [`ShardedEngine`] (an unsharded
//! service runs a [`ShardPlan::Span`] engine) executed in the
//! [`ServiceConfig::workers`] slots of a persistent [`ExecPool`] — slots
//! shared by the pool's threads and by callers running a request
//! themselves:
//!
//! * [`CoreService::submit`] **validates synchronously** (malformed requests
//!   never occupy queue capacity) and then applies **admission control**:
//!   when [`ServiceConfig::queue_depth`] requests are already waiting, or
//!   the engine's skyline cache sits above
//!   [`ServiceConfig::admission_memory_bytes`], the request is refused with
//!   [`TkError::BudgetExceeded`] instead of being queued;
//! * an admitted request — a query or an append batch
//!   ([`CoreService::submit_append`], always batch-lane) — joins the
//!   service's one queue and spawns one pool task; each task pops the
//!   oldest waiting **interactive** request, else the oldest **batch** one
//!   (see [`Lane`]), so whichever worker frees up first runs the request
//!   the priority rule names.  The skyline and stitch caches are
//!   engine-wide, so no worker is a better home for a request than any
//!   other;
//! * [`CoreService::call`] is the synchronous entry: admitted the same way,
//!   it **runs on the calling thread** when no request waits in either
//!   lane and a pool slot is spare, and otherwise queues like `submit` and
//!   waits for its reply.  A caller-run request never overtakes a waiting
//!   one and saves the two thread hand-offs of a queued request;
//! * every admitted request gets a [`RequestId`]; the reply carries
//!   queue-wait (zero for a caller-run request) and execution latency
//!   alongside the [`QueryResponse`], and [`ServiceStats::per_worker`]
//!   breaks latency out per slot, including a [`LatencyHistogram`];
//! * a **panicking request** (typically a panicking user sink in stream
//!   mode) is caught where it runs: the reply is
//!   [`TkError::WorkerPanicked`], the worker thread (or the caller) and its
//!   slot survive, and every statistic — including the per-slot histograms
//!   — remains intact;
//! * every request runs through [`ShardedEngine::execute`]'s core: a queued
//!   multi-`k` count, sample or materialize request fans its `k`s across
//!   the spare slots of the **same pool** (the executing worker
//!   participates, so nested fan-out cannot deadlock), a caller-run one
//!   keeps them on its own thread, and a `k`-range sweep still costs at
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
use crate::request::{QueryRequest, QueryResponse, ValidatedRequest};
use crate::shard::{ShardPlan, ShardedEngine, Units};
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
    /// Ingest batches ([`CoreService::submit_append`]) queue and account
    /// here.
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
    /// The algorithm executing the request.  A service runs only `Enum`
    /// (the default): [`CoreService::submit_opts`] and
    /// [`CoreService::call`] refuse any other value with
    /// [`TkError::UnsupportedAlgorithm`] before admission.  The baselines
    /// run per query through [`Algorithm::execute`].
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
    /// Options for a batch-lane request.
    pub fn batch() -> Self {
        Self {
            lane: Lane::Batch,
            ..Self::default()
        }
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
    /// Execution slots, shared by pool threads and caller-run requests
    /// ([`CoreService::call`]); `0` is treated as `1`.  The service's pool
    /// has one thread per slot, and each slot runs one request (or one
    /// helper of a request's fan-out) at a time, so up to `workers`
    /// requests execute concurrently.
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
    /// Time the request spent queued before a worker picked it up; zero for
    /// a request [`CoreService::call`] ran on its caller.
    pub queue_wait: Duration,
    /// Wall-clock execution time.
    pub execute_time: Duration,
    /// Index of the pool slot the request executed in (a pool worker's or
    /// its caller's), which indexes [`ServiceStats::per_worker`].
    pub worker: usize,
}

/// Handle to one admitted request; redeem it with [`Ticket::wait`].  A
/// query's ticket yields a [`ServiceReply`], an append batch's
/// ([`IngestTicket`]) an [`IngestReply`].
#[derive(Debug)]
pub struct Ticket<R = ServiceReply> {
    /// The id of the admitted request.
    pub id: RequestId,
    rx: mpsc::Receiver<Result<R, TkError>>,
}

impl<R> Ticket<R> {
    /// Blocks until the request completes (or the service shuts down, which
    /// yields [`TkError::ServiceStopped`]).
    ///
    /// # Errors
    /// Whatever the execution produced — for an append batch, a typed
    /// append rejection applies to the whole batch, which changed nothing —
    /// or [`TkError::ServiceStopped`] if the worker exited before replying.
    pub fn wait(self) -> Result<R, TkError> {
        self.rx.recv().unwrap_or(Err(TkError::ServiceStopped))
    }

    /// Non-blocking probe: `None` while the request is still in flight.
    pub fn try_wait(&self) -> Option<Result<R, TkError>> {
        self.rx.try_recv().ok()
    }
}

/// Handle to one admitted append batch; redeem it with [`Ticket::wait`].
pub type IngestTicket = Ticket<IngestReply>;

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
    /// Index of the pool slot the batch was absorbed in.
    pub worker: usize,
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

/// Latency counters of one pool slot (see [`ServiceStats::per_worker`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Requests fully executed in this slot and replied to (including
    /// panicked ones, which reply with [`TkError::WorkerPanicked`]).
    pub completed: u64,
    /// Requests whose execution panicked in this slot (the thread running
    /// it survived; see the module docs).
    pub panicked: u64,
    /// Summed execution time of this slot's completed requests.
    pub execute_total: Duration,
    /// Execution-latency histogram of this slot's completed requests.
    pub latency: LatencyHistogram,
}

/// Cumulative request accounting, readable via [`CoreService::stats`].
///
/// All counters — including the per-slot histograms — live in the
/// service's shared state, never on a worker thread, so they survive
/// panicking requests intact (a poisoned lock is recovered, not dropped).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests admitted to the queue.
    pub admitted: u64,
    /// Requests refused by admission control ([`TkError::BudgetExceeded`]).
    pub rejected: u64,
    /// Requests fully executed and replied to (sum of the per-slot
    /// counters; includes panicked requests, which reply with an error).
    pub completed: u64,
    /// Admitted requests shed without executing because their deadline
    /// expired while they waited (plus submissions refused at admission
    /// with an already-expired deadline); each replied with
    /// [`TkError::DeadlineExceeded`].
    pub shed: u64,
    /// Requests whose execution panicked (sum of the per-slot counters).
    pub panicked: u64,
    /// Summed queue wait of completed requests.
    pub queue_wait_total: Duration,
    /// Summed execution time of completed requests (sum of the per-slot
    /// totals).
    pub execute_total: Duration,
    /// High-water mark of the number of waiting requests.
    pub max_queue_depth: usize,
    /// Latency counters per pool slot, one entry per
    /// [`ServiceConfig::workers`] slot, indexed by [`ServiceReply::worker`]:
    /// a slot counts the requests its pool worker ran and the caller-run
    /// requests that held it.
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

/// One admitted request waiting in [`LaneQueues`].
struct Job {
    id: RequestId,
    lane: Lane,
    /// Relative deadline; checked against `enqueued_at` at dequeue.
    deadline: Option<Duration>,
    enqueued_at: Instant,
    payload: Payload,
}

/// What a [`Job`] runs, and where its reply goes.
enum Payload {
    Query {
        request: ValidatedRequest,
        reply: mpsc::Sender<Result<ServiceReply, TkError>>,
    },
    Append {
        events: Vec<IngestEvent>,
        reply: mpsc::Sender<Result<IngestReply, TkError>>,
    },
}

impl Payload {
    /// Replies `error` instead of running.  The submitter may have dropped
    /// its ticket; that is not an error.
    fn refuse(self, error: TkError) {
        match self {
            Payload::Query { reply, .. } => drop(reply.send(Err(error))),
            Payload::Append { reply, .. } => drop(reply.send(Err(error))),
        }
    }
}

/// A request that passed [`CoreService::admit`]: the state lock, still held
/// so the caller queues or starts the request atomically with the admitted
/// counters, and the request's id.
type Admission<'a> = (MutexGuard<'a, ServiceState>, RequestId);

/// The service's waiting jobs, queries and appends alike, split by
/// priority: dequeue takes interactive jobs first, FIFO within each class.
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
    /// Requests currently executing, on pool workers or on their callers.
    in_flight: usize,
    /// Waiting jobs.  Every push is paired with one pool task that pops
    /// from this queue, so the queue and the pool stay in lockstep.
    queue: LaneQueues,
    stats: ServiceStats,
}

impl ServiceState {
    /// Books one admitted request as waiting for a worker.
    fn note_queued(&mut self) {
        self.queued += 1;
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.queued);
    }
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
/// control over a [`ShardedEngine`], executed in the
/// [`ServiceConfig::workers`] slots of a persistent pool, by its threads or
/// by callers of [`CoreService::call`].
///
/// # Example
///
/// ```
/// use tkcore::{
///     paper_example, CoreService, QueryRequest, ServiceConfig, ShardPlan, SubmitOptions,
/// };
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
/// // `call` runs an idle service's request on the calling thread.
/// let reply = service
///     .call(QueryRequest::single(2, 1, 4), SubmitOptions::default())
///     .unwrap();
/// assert_eq!(reply.response.total_cores(), 2);
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

    /// Validates `request`, applies admission control, and enqueues it in
    /// the default (interactive, no-deadline) priority class.
    ///
    /// # Errors
    /// See [`CoreService::submit_opts`].
    pub fn submit(&self, request: QueryRequest) -> Result<Ticket, TkError> {
        self.submit_opts(request, SubmitOptions::default())
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
    /// * [`TkError::UnsupportedAlgorithm`] when `opts.algorithm` is not
    ///   `Enum`, and the validation errors of [`QueryRequest::validate`]
    ///   (both checked synchronously, before admission — such requests
    ///   never consume queue capacity or move a counter);
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
        let validated = self.validate(request, &opts)?;
        let pool = self.pool()?;
        let (state, id) = self.admit_query(&opts)?;
        Ok(self.enqueue(pool, state, id, validated, opts))
    }

    /// Runs `request` to completion and returns its reply: the synchronous
    /// form of [`CoreService::submit_opts`], with the same validation,
    /// admission control and accounting.
    ///
    /// When no admitted request waits in either lane and a pool slot is
    /// spare, the request claims that slot and **executes on the calling
    /// thread**, its `k`s one after another — no queue, no hand-off to a
    /// worker, a zero [`ServiceReply::queue_wait`].  Otherwise it queues
    /// exactly as `submit_opts` does, deadline included, and this call
    /// waits for the reply.  Either way at most
    /// [`ServiceConfig::workers`] requests execute at once, and a caller
    /// never overtakes a waiting request.
    ///
    /// # Errors
    /// The admission errors of [`CoreService::submit_opts`], then whatever
    /// the execution produced: a panic while executing becomes
    /// [`TkError::WorkerPanicked`], and a queued request may still be shed
    /// with [`TkError::DeadlineExceeded`].
    pub fn call(
        &self,
        request: QueryRequest,
        opts: SubmitOptions,
    ) -> Result<ServiceReply, TkError> {
        let validated = self.validate(request, &opts)?;
        let pool = self.pool()?;
        // Claimed before the state lock: the pool and service locks stay
        // unnested.  A slot a queued pool task waits for is never spare.
        let slot = pool.try_claim();
        let (mut state, id) = self.admit_query(&opts)?;
        let slot = match slot {
            Some(slot) if state.queued == 0 => slot,
            slot => {
                let ticket = self.enqueue(pool, state, id, validated, opts);
                // Returned before waiting, so the queued job may run in it.
                drop(slot);
                // tkc-lint: allow(no-blocking-in-worker) — a queued call waits on a job of this service's own pool; callers are connection tasks on the server's disjoint pool or plain threads, and no service job ever calls `call`, so this wait cannot starve the workers it waits on
                return ticket.wait();
            }
        };
        state.in_flight += 1;
        drop(state);
        let (result, execute_time) = complete(
            &self.shared,
            opts.lane,
            slot.index(),
            Duration::ZERO,
            || self.engine.execute_validated(validated, Units::OnCaller),
            |_, _, _| {},
        );
        result.map(|response| ServiceReply {
            id,
            response,
            queue_wait: Duration::ZERO,
            execute_time,
            worker: slot.index(),
        })
    }

    /// The checks a query passes before admission: `request` must be valid
    /// for the engine's graph, and the service runs only `Enum`.
    fn validate(
        &self,
        request: QueryRequest,
        opts: &SubmitOptions,
    ) -> Result<ValidatedRequest, TkError> {
        let validated = request.validate(&self.engine.graph())?;
        if opts.algorithm != Algorithm::Enum {
            return Err(TkError::UnsupportedAlgorithm {
                algorithm: opts.algorithm,
            });
        }
        Ok(validated)
    }

    /// Admission for a query: the memory gate and the zero-deadline check
    /// on top of [`CoreService::admit`].
    fn admit_query(&self, opts: &SubmitOptions) -> Result<Admission<'_>, TkError> {
        // Reading cache statistics takes the engine's cache mutex; doing it
        // before the state lock keeps the two locks unnested.
        let over_budget = self
            .config
            .admission_memory_bytes
            .filter(|&budget| self.engine.cache_stats().resident_bytes > budget);
        self.admit(opts.lane, |stats| {
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
        })
    }

    /// Queues an admitted query — `state` is still the admission's lock.
    fn enqueue(
        &self,
        pool: &ExecPool,
        state: MutexGuard<'_, ServiceState>,
        id: RequestId,
        request: ValidatedRequest,
        opts: SubmitOptions,
    ) -> Ticket {
        let (reply, rx) = mpsc::channel();
        let payload = Payload::Query { request, reply };
        self.enqueue_job(pool, state, id, opts.lane, opts.deadline, payload);
        Ticket { id, rx }
    }

    /// Queues an admitted job — `state` is still the admission's lock —
    /// and spawns the pool task that will run the next waiting job.
    fn enqueue_job(
        &self,
        pool: &ExecPool,
        mut state: MutexGuard<'_, ServiceState>,
        id: RequestId,
        lane: Lane,
        deadline: Option<Duration>,
        payload: Payload,
    ) {
        state.note_queued();
        state.queue.push(Job {
            id,
            lane,
            deadline,
            enqueued_at: Instant::now(),
            payload,
        });
        drop(state);
        let shared = Arc::clone(&self.shared);
        let engine = Arc::clone(&self.engine);
        pool.spawn(move |slot| drain_service_job(&engine, &shared, slot));
    }

    /// Submits a batch of ingest events to the service: the batch is
    /// admitted and queued as a batch-lane request (same admission control,
    /// priority and accounting, broken out in [`ServiceStats::ingest`], so
    /// a waiting interactive query runs first) and absorbed on a worker via
    /// [`ShardedEngine::absorb`].  Ingestion serializes with concurrent
    /// queries only at the engine's snapshot swap, so queries keep
    /// executing while batches land — and each observes either none of a
    /// batch or all of it.
    ///
    /// Batches leave the queue in submission order, but two workers may
    /// absorb them concurrently, so the absorb order is not guaranteed;
    /// submitters needing strict event ordering should wait on each
    /// [`IngestTicket`] before submitting the next batch (the engine
    /// refuses out-of-order timestamps with a typed error either way).
    ///
    /// # Errors
    /// * [`TkError::BudgetExceeded`] when [`ServiceConfig::queue_depth`]
    ///   requests are already waiting;
    /// * [`TkError::ServiceStopped`] after [`CoreService::shutdown`].
    pub fn submit_append(&self, events: Vec<IngestEvent>) -> Result<IngestTicket, TkError> {
        let pool = self.pool()?;
        let (mut state, id) = self.admit(Lane::Batch, |_| Ok(()))?;
        state.stats.ingest.submitted += 1;
        let (reply, rx) = mpsc::channel();
        let payload = Payload::Append { events, reply };
        self.enqueue_job(pool, state, id, Lane::Batch, None, payload);
        Ok(Ticket { id, rx })
    }

    /// The admission step shared by queries and appends, under one state
    /// lock: a stopped service refuses, a full queue refuses, then `gate`
    /// may refuse with its own accounting.  An admitted request gets an id
    /// and the admitted counters; the lock stays held in the returned
    /// [`Admission`] so the caller queues or starts it atomically with them.
    fn admit(
        &self,
        lane: Lane,
        gate: impl FnOnce(&mut ServiceStats) -> Result<(), TkError>,
    ) -> Result<Admission<'_>, TkError> {
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
        state.stats.admitted += 1;
        state.stats.per_lane[lane.index()].admitted += 1;
        Ok((state, id))
    }

    /// The worker pool, or [`TkError::ServiceStopped`] once
    /// [`CoreService::shutdown`] released it.
    fn pool(&self) -> Result<&Arc<ExecPool>, TkError> {
        self.pool.as_ref().ok_or(TkError::ServiceStopped)
    }

    /// Stops accepting requests, waits for every admitted request (query
    /// and ingest alike, queued or running on a caller) to finish or shed,
    /// and releases the worker pool.
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
        self.drain();
        // Dropping the last pool reference joins the worker threads.  An
        // engine that adopted the pool holds a reference for its own
        // batches; its threads idle until the engine is dropped.
        self.pool = None;
    }

    /// Closes admission and waits until every admitted request — queued,
    /// on a pool worker or running on its caller — has finished or shed.
    fn drain(&self) {
        let mut state = self.shared.lock();
        state.open = false;
        while state.queued + state.in_flight > 0 {
            state = crate::sync::wait(&self.shared.drained, state);
        }
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

/// Dequeues and runs the service's next waiting job in pool slot `slot`:
/// priority pop (interactive before batch), deadline check, then the
/// query or the absorb with panic isolation, accounting, reply.
///
/// One such task is spawned per admitted job, so the pop always finds a
/// job — though not necessarily *the* job that spawned this task: a task
/// spawned by a batch submission (a batch-lane query or an append) happily
/// executes an interactive request that arrived later, which is exactly
/// how interactive requests overtake waiting batch ones.
fn drain_service_job(engine: &Arc<ShardedEngine>, shared: &ServiceShared, slot: usize) {
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
                job.payload
                    .refuse(TkError::DeadlineExceeded { deadline, waited });
                return;
            }
        }
        state.in_flight += 1;
        (job, waited)
    };
    let Job {
        id, lane, payload, ..
    } = job;
    // The submitter may have dropped its ticket; that is not an error.
    match payload {
        Payload::Query { request, reply } => {
            let (result, execute_time) = complete(
                shared,
                lane,
                slot,
                queue_wait,
                || engine.execute_validated(request, Units::FanOut),
                |_, _, _| {},
            );
            let _ = reply.send(result.map(|response| ServiceReply {
                id,
                response,
                queue_wait,
                execute_time,
                worker: slot,
            }));
        }
        Payload::Append { events, reply } => {
            let (result, absorb_time) = complete(
                shared,
                lane,
                slot,
                queue_wait,
                || engine.absorb(&events),
                book_absorb,
            );
            let _ = reply.send(result.map(|stats| IngestReply {
                id,
                stats,
                queue_wait,
                absorb_time,
                worker: slot,
            }));
        }
    }
}

/// The ingest-lane accounting of one finished absorb.
fn book_absorb(stats: &mut ServiceStats, result: &Result<AbsorbStats, TkError>, took: Duration) {
    let ingest = &mut stats.ingest;
    ingest.absorb_total += took;
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
}

/// The completion step shared by queries and appends, queued or caller-run:
/// runs an in-flight job's `work` in pool slot `slot` with panic isolation
/// (a panic becomes [`TkError::WorkerPanicked`]), then books it under one
/// state lock — completed, per-lane, per-slot, latency histogram and
/// panicked counters, plus `book`'s job-specific accounting — and wakes
/// drain waiters.  Returns the result and the execution time.
fn complete<R>(
    shared: &ServiceShared,
    lane: Lane,
    slot: usize,
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
        let per_worker = &mut stats.per_worker[slot];
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
    use std::sync::atomic::AtomicBool;
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
    fn baseline_algorithms_are_refused_before_admission() {
        let service = span_service(ServiceConfig::default());
        let otcd = SubmitOptions {
            algorithm: Algorithm::Otcd,
            ..SubmitOptions::default()
        };
        let request = || QueryRequest::single(2, 1, 4);
        let refused = |err| matches!(err, Some(TkError::UnsupportedAlgorithm { .. }));
        assert!(refused(service.submit_opts(request(), otcd).err()));
        assert!(refused(service.call(request(), otcd).err()));
        let stats = service.stats();
        assert_eq!((stats.admitted, stats.rejected, stats.shed), (0, 0, 0));
        // The same request with the default algorithm is served.
        let reply = service.call(request(), SubmitOptions::default()).unwrap();
        assert_eq!(reply.response.total_cores(), 2); // Figure 2 of the paper
        assert_eq!(service.stats().admitted, 1);
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

    /// Requests executing right now, and the most ever seen at once.
    #[derive(Default)]
    struct Occupancy {
        now: AtomicU64,
        peak: AtomicU64,
    }

    /// A stream sink that reports its thread when the request's first core
    /// arrives, then blocks until released, counting itself in an
    /// [`Occupancy`] while it blocks.
    struct GatedSink {
        started: mpsc::Sender<std::thread::ThreadId>,
        release: mpsc::Receiver<()>,
        occupancy: Arc<Occupancy>,
        entered: bool,
    }

    impl ResultSink for GatedSink {
        fn emit(&mut self, _tti: TimeWindow, _edges: &[temporal_graph::EdgeId]) {
            if !self.entered {
                self.entered = true;
                let now = self.occupancy.now.fetch_add(1, Ordering::SeqCst) + 1;
                self.occupancy.peak.fetch_max(now, Ordering::SeqCst);
                self.started.send(std::thread::current().id()).unwrap();
                self.release.recv().unwrap();
                self.occupancy.now.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }

    /// A gated stream request over the paper example (two cores), its
    /// start signal and its release.
    fn gated(
        occupancy: &Arc<Occupancy>,
    ) -> (
        QueryRequest,
        mpsc::Receiver<std::thread::ThreadId>,
        mpsc::Sender<()>,
    ) {
        let (started, started_rx) = mpsc::channel();
        let (release_tx, release) = mpsc::channel();
        let sink = GatedSink {
            started,
            release,
            occupancy: Arc::clone(occupancy),
            entered: false,
        };
        (
            QueryRequest::single(2, 1, 4).stream(Box::new(sink)),
            started_rx,
            release_tx,
        )
    }

    #[test]
    fn an_idle_call_runs_on_the_calling_thread() {
        let service = span_service(ServiceConfig::default());
        let occupancy = Arc::new(Occupancy::default());
        let (request, started, release) = gated(&occupancy);
        release.send(()).unwrap();
        let reply = service.call(request, SubmitOptions::default()).unwrap();
        assert_eq!(started.recv().unwrap(), std::thread::current().id());
        assert_eq!(reply.queue_wait, Duration::ZERO);
        assert_eq!(reply.response.total_cores(), 2);
        // A count sweep keeps its k units on the caller too.
        let reply = service
            .call(QueryRequest::sweep(1..=3, 1, 7), SubmitOptions::default())
            .unwrap();
        assert_eq!(reply.response.outcomes.len(), 3);
        let stats = service.stats();
        assert_eq!((stats.admitted, stats.completed), (2, 2));
        assert_eq!(stats.queue_wait_total, Duration::ZERO);
        service.shutdown();
    }

    #[test]
    fn pool_tasks_and_caller_run_requests_share_the_slots() {
        let service = span_service(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let occupancy = Arc::new(Occupancy::default());
        std::thread::scope(|scope| {
            // A runs on its caller, B on a pool worker: both slots held.
            let (a, started_a, release_a) = gated(&occupancy);
            let caller_a = scope.spawn(|| service.call(a, SubmitOptions::default()));
            let thread_a = started_a.recv().unwrap();
            assert_eq!(thread_a, caller_a.thread().id(), "A runs on its caller");
            let (b, started_b, release_b) = gated(&occupancy);
            let ticket_b = service.submit(b).unwrap();
            started_b.recv().unwrap();
            // C finds no spare slot, so it queues even though it was called;
            // a queued count sweep waits behind it.
            let (c, started_c, release_c) = gated(&occupancy);
            let caller_c = scope.spawn(|| service.call(c, SubmitOptions::default()));
            // Admitted under the same lock that queues it.
            while service.stats().admitted < 3 {
                std::thread::yield_now();
            }
            let ticket_d = service.submit(QueryRequest::sweep(1..=3, 1, 7)).unwrap();
            // Freeing A's caller-held slot lets a pool worker start C.
            release_a.send(()).unwrap();
            let reply_a = caller_a.join().unwrap().unwrap();
            let thread_c = started_c.recv().unwrap();
            assert_ne!(thread_c, caller_c.thread().id(), "C ran on a pool worker");
            release_b.send(()).unwrap();
            release_c.send(()).unwrap();
            let reply_b = ticket_b.wait().unwrap();
            let reply_c = caller_c.join().unwrap().unwrap();
            let reply_d = ticket_d.wait().unwrap();
            assert_eq!(reply_a.queue_wait, Duration::ZERO);
            assert_ne!(
                reply_a.worker, reply_b.worker,
                "A and B held distinct slots"
            );
            for reply in [&reply_a, &reply_b, &reply_c, &reply_d] {
                assert!(reply.worker < 2, "slot {} of 2", reply.worker);
            }
            assert_eq!(reply_d.response.outcomes.len(), 3);
        });
        assert_eq!(
            occupancy.peak.load(Ordering::SeqCst),
            2,
            "never more requests executing than slots"
        );
        let stats = service.stats();
        assert_eq!(stats.completed, 4);
        // Per-slot counters: one entry per slot, summing to the totals.
        assert_eq!(stats.per_worker.len(), 2);
        let completed: u64 = stats.per_worker.iter().map(|w| w.completed).sum();
        let execute: Duration = stats.per_worker.iter().map(|w| w.execute_total).sum();
        let histogram: u64 = stats.per_worker.iter().map(|w| w.latency.count()).sum();
        assert_eq!(completed, stats.completed);
        assert_eq!(execute, stats.execute_total);
        assert_eq!(histogram, stats.completed);
        service.shutdown();
    }

    /// A stream sink that appends its label to a shared log on the first
    /// core, recording the order in which requests start executing.
    struct LabelSink {
        order: Arc<Mutex<Vec<&'static str>>>,
        label: &'static str,
        logged: bool,
    }

    impl ResultSink for LabelSink {
        fn emit(&mut self, _tti: TimeWindow, _edges: &[temporal_graph::EdgeId]) {
            if !self.logged {
                self.logged = true;
                self.order.lock().unwrap().push(self.label);
            }
        }
    }

    #[test]
    fn a_call_never_overtakes_a_waiting_request() {
        let service = span_service(ServiceConfig::default());
        let order = Arc::new(Mutex::new(Vec::new()));
        let labelled = |label| {
            QueryRequest::single(2, 1, 4).stream(Box::new(LabelSink {
                order: Arc::clone(&order),
                label,
                logged: false,
            }))
        };
        // Another caller holds the only slot, so B queues for a worker.
        let pool = service.pool().unwrap();
        let held = pool.try_claim().expect("the idle slot");
        let ticket_b = service.submit(labelled("queued")).unwrap();
        // The slot comes back, but B is owed it: C must queue behind B
        // rather than run on this thread first.
        drop(held);
        let reply_c = service
            .call(labelled("called"), SubmitOptions::default())
            .unwrap();
        ticket_b.wait().unwrap();
        assert_eq!(*order.lock().unwrap(), vec!["queued", "called"]);
        assert_eq!(reply_c.response.total_cores(), 2);
        service.shutdown();
    }

    /// A stream sink that reports, at the request's first core, the live
    /// graph's `tmax`: how much the engine had absorbed when it ran.
    struct TmaxProbe {
        engine: Arc<ShardedEngine>,
        seen: mpsc::Sender<temporal_graph::Timestamp>,
        sent: bool,
    }

    impl ResultSink for TmaxProbe {
        fn emit(&mut self, _tti: TimeWindow, _edges: &[temporal_graph::EdgeId]) {
            if !self.sent {
                self.sent = true;
                self.seen.send(self.engine.graph().tmax()).unwrap();
            }
        }
    }

    #[test]
    fn a_queued_append_waits_behind_a_later_interactive_query() {
        let service = span_service(ServiceConfig::default());
        let occupancy = Arc::new(Occupancy::default());
        // A parked stream request holds the only worker, so what follows
        // queues: an append (batch lane), then an interactive query.
        let (parked, started, release) = gated(&occupancy);
        let parked = service.submit(parked).unwrap();
        started.recv().unwrap();
        let tmax = service.engine().graph().tmax();
        let append = service.submit_append(vec![(1, 2, tmax + 1)]).unwrap();
        let (seen, seen_rx) = mpsc::channel();
        let probe = TmaxProbe {
            engine: Arc::clone(&service.engine),
            seen,
            sent: false,
        };
        let query = service
            .submit(QueryRequest::single(2, 1, 4).stream(Box::new(probe)))
            .unwrap();
        release.send(()).unwrap();
        parked.wait().unwrap();
        assert_eq!(query.wait().unwrap().response.total_cores(), 2);
        assert_eq!(
            seen_rx.recv().unwrap(),
            tmax,
            "the interactive query ran before the batch-lane append"
        );
        assert_eq!(append.wait().unwrap().stats.appended, 1);
        assert_eq!(service.engine().graph().tmax(), tmax + 1);
        let stats = service.stats();
        assert_eq!(stats.lane(Lane::Batch).completed, 1);
        assert_eq!(stats.ingest.completed, 1);
        service.shutdown();
    }

    #[test]
    fn a_panicking_caller_run_request_releases_its_slot() {
        let service = span_service(ServiceConfig::default());
        let err = service
            .call(
                QueryRequest::single(2, 1, 4).stream(Box::new(PanickingSink)),
                SubmitOptions::default(),
            )
            .expect_err("the panic surfaces as a typed error");
        assert!(matches!(err, TkError::WorkerPanicked { .. }), "{err}");
        // The only slot is free again: the next call runs on this thread,
        // and a queued request still finds a worker.
        let reply = service
            .call(QueryRequest::single(2, 1, 4), SubmitOptions::default())
            .unwrap();
        assert_eq!(reply.queue_wait, Duration::ZERO);
        assert_eq!(reply.response.total_cores(), 2);
        let reply = service
            .submit(QueryRequest::single(2, 1, 4))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(reply.response.total_cores(), 2);
        let stats = service.stats();
        assert_eq!((stats.completed, stats.panicked), (3, 1));
        assert_eq!(stats.per_worker[0].panicked, 1);
        service.shutdown();
    }

    #[test]
    fn shutdown_waits_for_caller_run_requests() {
        let service = span_service(ServiceConfig::default());
        let occupancy = Arc::new(Occupancy::default());
        let (request, started, release) = gated(&occupancy);
        let drained = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let caller = scope.spawn(|| service.call(request, SubmitOptions::default()));
            started.recv().unwrap();
            let closer = scope.spawn(|| {
                service.drain();
                drained.store(true, Ordering::SeqCst);
            });
            // Admission closes at once (a zero deadline is refused either
            // way, so the probes never queue)...
            let probe = SubmitOptions::default().with_deadline(Duration::ZERO);
            while !matches!(
                service.submit_opts(QueryRequest::single(2, 1, 4), probe),
                Err(TkError::ServiceStopped)
            ) {
                std::thread::yield_now();
            }
            // ...but the drain waits for the request running on its caller
            // (checked after the release, so a failure cannot hang the test).
            let drained_while_running = drained.load(Ordering::SeqCst);
            release.send(()).unwrap();
            let reply = caller.join().unwrap().unwrap();
            assert_eq!(reply.response.total_cores(), 2);
            closer.join().unwrap();
            assert!(!drained_while_running, "the drain returned mid-request");
        });
        assert!(drained.load(Ordering::SeqCst));
        assert_eq!(service.stats().completed, 1);
    }
}
