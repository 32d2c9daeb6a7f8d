//! Time-interval sharding: [`ShardPlan`] and [`ShardedEngine`].
//!
//! [`ShardedEngine`] is the crate's query engine, and
//! [`ShardedEngine::execute`] its one request entry point.  It partitions the
//! timeline into contiguous time-interval shards and keeps **one skyline per
//! `(shard, k)`**, each covering only its shard's interval.
//! [`ShardPlan::Span`] is the unsharded layout: one shard covering the whole
//! timeline, hence one span-wide skyline per `k`.  Finer plans trade the
//! span-wide index — the memory and cold-build bottleneck on big graphs —
//! for per-shard ones:
//!
//! * per-shard skylines are strictly smaller than the span-wide one (they
//!   drop every minimal core window crossing a shard cut), so the resident
//!   cache and the peak cold-build footprint are bounded by the largest
//!   shard, not the span;
//! * cold builds are per shard, so a query touching 2 of 40 shards builds
//!   2 small indexes, never the span-wide one;
//! * shard skylines build independently, so batch workers warm different
//!   shards in parallel.
//!
//! # Cache policy
//!
//! One LRU cache, under one mutex, holds every skyline the engine reuses,
//! keyed by shard range and `k`: a shard skyline is `(s, s, k)`, a stitch
//! entry (below) `(lo, hi, k)` with `lo < hi`.  Each kind has its own
//! budget and evicts only its own least-recently-used entries: shard
//! skylines once their summed [`EdgeCoreSkyline::memory_bytes`] exceeds
//! [`EngineConfig::memory_budget_bytes`], stitch entries once there are
//! more than [`EngineConfig::boundary_cache_entries`] (at least one).  The
//! entry being inserted is never evicted, so a single index larger than the
//! whole budget still serves its own query.  Index *construction* happens
//! outside the lock, so concurrent batch workers build different entries in
//! parallel.  Two threads racing on the same cold entry may both build it;
//! the loser's copy is dropped and the winner's is shared — wasted work
//! bounded by one build, never wrong results.
//!
//! # Exactness at shard boundaries
//!
//! A query over window `W` is answered by one enumeration over the skyline
//! of `W` itself.  Minimality of a core window is a property of the graph
//! alone, so that skyline splits into two disjoint classes of windows:
//!
//! 1. **Intra-shard windows** (`w ⊆ W ∩ I_s` for some shard interval
//!    `I_s`): exactly the windows of shard `s`'s cached skyline contained
//!    in `W ∩ I_s` (containment is exact for sub-ranges; see
//!    [`EdgeCoreSkyline::restrict`]).
//! 2. **Cut-crossing windows** (containing both `c` and `c + 1` for some
//!    shard boundary after timestamp `c`): per-shard builds drop them, so
//!    they come from the boundary-stitch index below.
//!
//! A query reads both classes in place through a [`WindowView`] (a window
//! inside one shard has only the first), so the enumerator runs once over
//! the same skyline a fresh build for `W` would produce: every core is
//! emitted exactly once, in the same order as
//! [`crate::Algorithm::Enum`] over `W` — the result-size bound of the
//! paper's enumeration holds for spanning queries too.  The stack model
//! (`tests/stack_model.rs`) asserts this for random graphs, plans and
//! interleaved appends against the naive oracle and per-query `Enum`.
//!
//! # The boundary-stitch index
//!
//! The cut-crossing windows come from a small LRU-cached **stitch entry**
//! per `(shard range, k)` — for the common case of a window spanning one
//! cut, per adjacent shard pair `(i, i + 1, k)`.  An entry is built once,
//! on the first spanning query of its shard range, by one sweep over the
//! range's merged window that keeps only the cut-crossing windows as they
//! are emitted.  A window starting after the range's last cut `c` crosses
//! no cut, so the sweep stops once it has advanced to `c + 1`, and no full
//! skyline of the merged window is ever held.  Every later spanning query
//! of that range reads the entry's slices through its view: slicing cost,
//! no copy, no sweep.  Stitch entries live in the skyline cache
//! beside the shard skylines; [`CacheStats::boundary`] reports them.
//!
//! # Live ingestion
//!
//! The last shard of the plan doubles as the **live tail**:
//! [`ShardedEngine::absorb`] appends time-ordered events through an
//! [`AppendableGraph`] and publishes each batch as a fresh immutable
//! snapshot (an epoch-tagged [`Arc`]-swap, the only point where ingestion
//! and queries serialize).  Closed shards never change, so their skylines
//! and stitch entries stay resident across every append; an absorb
//! replaces only the tail-touching entries, rebuilt against the new
//! snapshot before it is published ([`CacheStats::publish`] books these
//! builds).  A [`crate::SealPolicy`] (or [`ShardedEngine::seal_tail`]) rolls
//! the tail into a closed shard, making its entries permanent.  Which entry
//! a query at a given snapshot may read, and what a publish or a seal does
//! to the cache, is the epoch protocol of the crate-private `cache` module
//! (`cache.rs`); the engine holds the locks, runs the builds and calls its
//! transitions.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::cache::{EpochView, RangeKey, SkylineCache};
use crate::ecs::{EdgeCoreSkyline, WindowView};
use crate::engine::{batch_pool, CacheStats, EngineConfig};
use crate::enumerate::enumerate;
use crate::error::TkError;
use crate::exec::{run_batch_inner, ExecPool};
use crate::ingest::{AbsorbStats, IngestEvent};
use crate::query::{Algorithm, QueryStats};
use crate::request::{OutcomeSink, QueryRequest, QueryResponse, SinkShape, ValidatedRequest};
use crate::sink::ResultSink;
use crate::sync;
use temporal_graph::{AppendableGraph, TemporalGraph, TimeWindow, Timestamp};

pub use crate::plan::ShardPlan;

/// The query engine: a per-`(shard, k)` skyline cache over time-interval
/// shards, exact boundary stitching through a cached
/// [`CacheStats::boundary`] index, and a request surface
/// ([`ShardedEngine::execute`] / [`ShardedEngine::execute_batch`]) fanning
/// work across a persistent [`ExecPool`].  [`ShardPlan::Span`] gives the
/// unsharded engine (one span-wide skyline per `k`).
///
/// See the [module documentation](self) for the sharding layout and the
/// exactness argument.
///
/// # Example
///
/// ```
/// use tkcore::{paper_example, QueryRequest, ShardPlan, ShardedEngine};
///
/// let engine = ShardedEngine::new(paper_example::graph(), ShardPlan::FixedCount(4)).unwrap();
/// assert_eq!(engine.num_shards(), 4);
/// let response = engine.execute(QueryRequest::single(2, 1, 4)).unwrap();
/// assert_eq!(response.total_cores(), 2); // Figure 2 of the paper, stitched across shards
/// ```
///
/// [`ShardedEngine::execute_batch`] shows the unsharded engine serving a
/// batch from one span-wide skyline.
pub struct ShardedEngine {
    inner: Arc<ShardInner>,
}

/// One published, immutable view of the live engine: a graph snapshot plus
/// the shard layout over it.  Queries clone the `Arc` once at entry and run
/// entirely against that view, so an [`ShardedEngine::absorb`] racing them
/// swaps in a new state without ever exposing a partial batch.
struct LiveState {
    /// This view's epoch, and how many leading shards are closed (immutable
    /// forever); the rest — at most one shard — is the live tail that
    /// appends land in.
    at: EpochView,
    graph: Arc<TemporalGraph>,
    /// Contiguous shard intervals covering `[1, graph.tmax()]`.
    shards: Vec<TimeWindow>,
}

impl LiveState {
    /// Indexes of the shards overlapping `window` (always non-empty for a
    /// validated, span-clamped window).
    fn overlapping(&self, window: TimeWindow) -> std::ops::Range<usize> {
        let lo = self.shards.partition_point(|s| s.end() < window.start());
        let hi = self.shards.partition_point(|s| s.start() <= window.end());
        lo..hi
    }

    /// Builds the cache entry for `key` against this state: shard `lo`'s
    /// skyline, or for a stitch key the cut-crossing minimal core windows
    /// of the range's merged window (a sweep that stops after the last
    /// cut, see [`EdgeCoreSkyline::build_crossing`]).  A stitch entry
    /// covers the range's whole merged window, not just the triggering
    /// query's window, so it serves *every* later spanning window of the
    /// range.
    fn build_entry(&self, (lo, hi, k): RangeKey) -> EdgeCoreSkyline {
        let window = TimeWindow::new(self.shards[lo].start(), self.shards[hi].end());
        if lo == hi {
            return EdgeCoreSkyline::build(&self.graph, k, window);
        }
        let cuts: Vec<Timestamp> = (lo..hi).map(|s| self.shards[s].end()).collect();
        EdgeCoreSkyline::build_crossing(&self.graph, k, window, &cuts)
    }
}

/// The write side of live ingestion: the appendable event buffer plus the
/// running size of the tail shard, guarded by one mutex so absorbs are
/// serialized with each other (queries never take this lock).
struct IngestState {
    appendable: AppendableGraph,
    /// Edge occurrences currently in the tail shard (seeds from the base
    /// graph's tail slice; reset on seal).
    tail_edges: usize,
}

/// Where a request's count, sample and materialize units run (see
/// [`ShardedEngine::execute_validated`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Units {
    /// Across the spare slots of the engine's pool, the calling thread
    /// participating: library batches and queued service jobs.
    FanOut,
    /// On the calling thread alone when every unit's entries are resident:
    /// a service request already running in a pool slot of its own on the
    /// caller, whose warm units each cost less than a helper's wake-up.
    /// Units that must build a skyline fan out as with `FanOut`, since a
    /// build costs far more than the wake-up.
    OnCaller,
}

/// The cache keys a view of `window` for `k` reads, in view order: every
/// overlapping shard's skyline, then, for a window spanning shard cuts,
/// the stitch entry of its shard range.
fn view_keys(live: &LiveState, k: usize, window: TimeWindow) -> Vec<RangeKey> {
    let shards = live.overlapping(window);
    debug_assert!(!shards.is_empty(), "validated window overlaps a shard");
    let mut keys: Vec<RangeKey> = shards.clone().map(|shard| (shard, shard, k)).collect();
    if shards.len() > 1 {
        keys.push((shards.start, shards.end - 1, k));
    }
    keys
}

/// The shared core of a [`ShardedEngine`], behind one `Arc` so batch tasks
/// handed to the persistent pool are `'static`.
///
/// Lock order (enforced by tkc-lint's global lock-order rule): `ingest` →
/// `live` → `cache`.  Queries take `live` alone (one `Arc` clone) and then
/// `cache`; only the ingest path nests.
struct ShardInner {
    config: EngineConfig,
    live: Mutex<Arc<LiveState>>,
    ingest: Mutex<IngestState>,
    /// Every cached shard skyline and stitch entry.
    cache: Mutex<SkylineCache>,
    pool: OnceLock<Arc<ExecPool>>,
    /// Test-only fail point: while non-zero, each absorb decrements it and
    /// panics before touching any state (see
    /// [`ShardedEngine::fail_next_absorbs`]).
    absorb_failpoints: AtomicU64,
}

impl ShardedEngine {
    /// Creates a sharded engine with the default [`EngineConfig`].
    ///
    /// # Errors
    /// [`TkError::InvalidShardPlan`] when `plan` does not resolve against
    /// the graph (see [`ShardPlan::resolve`]).
    pub fn new(graph: TemporalGraph, plan: ShardPlan) -> Result<Self, TkError> {
        Self::with_config(graph, plan, EngineConfig::default())
    }

    /// Creates a sharded engine with an explicit configuration.  The memory
    /// budget bounds the summed resident bytes of **all** shard skylines.
    ///
    /// The last shard of the resolved plan becomes the **live tail**:
    /// [`ShardedEngine::absorb`] appends into it, and every earlier shard
    /// is closed from the start (its skylines are permanently valid).
    ///
    /// # Errors
    /// [`TkError::InvalidShardPlan`] when `plan` does not resolve.
    pub fn with_config(
        graph: TemporalGraph,
        plan: ShardPlan,
        config: EngineConfig,
    ) -> Result<Self, TkError> {
        let shards = plan.resolve(&graph)?;
        let sealed = shards.len() - 1;
        let mut appendable = AppendableGraph::from_graph(graph);
        if sealed > 0 {
            appendable.raise_floor(shards[sealed - 1].end());
        }
        let snapshot = appendable.snapshot();
        let tail_edges = snapshot.num_edges_in(shards[sealed]);
        let at = EpochView { epoch: 0, sealed };
        let live = Arc::new(LiveState {
            at,
            graph: snapshot,
            shards,
        });
        Ok(Self {
            inner: Arc::new(ShardInner {
                live: Mutex::new(live),
                ingest: Mutex::new(IngestState {
                    appendable,
                    tail_edges,
                }),
                cache: Mutex::new(SkylineCache::new(&config, at)),
                config,
                pool: OnceLock::new(),
                absorb_failpoints: AtomicU64::new(0),
            }),
        })
    }

    /// Adopts `pool` for this engine's batches if it has not already
    /// created or been given one; returns whether the pool was installed.
    /// This is how [`crate::CoreService`] shares its worker pool with the
    /// engine it starts or adopts, instead of the engine lazily spawning a
    /// second private pool.
    pub fn adopt_pool(&self, pool: Arc<ExecPool>) -> bool {
        self.inner.pool.set(pool).is_ok()
    }

    /// The graph snapshot this engine currently serves queries against.
    ///
    /// Under live ingestion this is a point-in-time view: a later
    /// [`ShardedEngine::absorb`] publishes a new snapshot without mutating
    /// the returned one, so callers can keep using it (its `EdgeId`s for
    /// sealed timestamps stay valid) while new queries see fresher data.
    pub fn graph(&self) -> Arc<TemporalGraph> {
        Arc::clone(&self.inner.live_now().graph)
    }

    /// The resolved shard intervals, contiguous and covering `[1, tmax]`.
    /// The last one is the live tail while ingestion is open.
    pub fn shards(&self) -> Vec<TimeWindow> {
        self.inner.live_now().shards.clone()
    }

    /// Number of time-interval shards (closed shards plus the live tail).
    pub fn num_shards(&self) -> usize {
        self.inner.live_now().shards.len()
    }

    /// Number of closed (sealed, immutable) shards; the remaining shards —
    /// at most one — form the live tail.
    pub fn sealed_shards(&self) -> usize {
        self.inner.live_now().at.sealed
    }

    /// The smallest timestamp the ingest lane currently accepts: appends
    /// must carry `t >= watermark()`.
    pub fn watermark(&self) -> Timestamp {
        sync::lock(&self.inner.ingest).appendable.watermark()
    }

    /// Appends a batch of time-ordered events and publishes them as a new
    /// immutable snapshot, atomically: concurrent queries observe either
    /// none of the batch or all of it, never a prefix.
    ///
    /// Only the tail-touching entries are replaced (counted in the returned
    /// [`AbsorbStats`] and in [`CacheStats`]); closed-shard skylines stay
    /// resident.  Every tail entry that was resident is rebuilt against the
    /// new snapshot on the engine's [`ExecPool`], outside the locks, and
    /// installed as the snapshot is swapped in, so the first query of the
    /// new epoch hits; [`CacheStats::publish`] books those builds.  The
    /// configured [`crate::SealPolicy`] may then roll the tail into a
    /// closed shard, and the next batch opens a fresh one.
    ///
    /// # Errors
    /// [`TkError::AppendOutOfOrder`], [`TkError::AppendDuplicate`] or
    /// [`TkError::AppendRejected`] when any event is refused — the whole
    /// batch is then rejected and no state changes.
    pub fn absorb(&self, batch: &[IngestEvent]) -> Result<AbsorbStats, TkError> {
        if self
            .inner
            .absorb_failpoints
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_ok()
        {
            // tkc-lint: allow(no-panic-api) — test-only fail point armed by fail_next_absorbs; simulates a worker dying on the absorb path before any state changes
            panic!("injected absorb fail point");
        }
        self.inner.absorb(batch)
    }

    /// Arms a test-only fail point: the next `n` calls to
    /// [`ShardedEngine::absorb`] panic before touching any state, as if the
    /// absorbing worker died mid-batch.  Lets tests prove the service's
    /// ingest lane converts worker death into
    /// [`TkError::WorkerPanicked`] instead of hanging the ticket.  No state
    /// is mutated by the injected panic, so the engine remains fully usable.
    #[doc(hidden)]
    pub fn fail_next_absorbs(&self, n: u64) {
        self.inner.absorb_failpoints.store(n, Ordering::Relaxed);
    }

    /// Poisons the skyline-cache mutex by panicking while holding its guard,
    /// so tests can prove every later caller recovers it instead of
    /// wedging.  Returns whether the mutex ended up poisoned.
    #[cfg(test)]
    pub(crate) fn poison_cache_lock(&self) -> bool {
        let inner = Arc::clone(&self.inner);
        let poisoner = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = inner.cache.lock().expect("not poisoned yet");
            panic!("poison the skyline cache lock");
        }));
        poisoner.is_err() && self.inner.cache.is_poisoned()
    }

    /// Seals the live tail shard manually (independent of the configured
    /// [`crate::SealPolicy`]): its skylines become permanently valid, the
    /// append watermark rises past its end, and the next advancing batch
    /// opens a fresh tail and rebuilds there what the sealed tail had
    /// resident.  A no-op returning `sealed: false` when there is
    /// no open tail.
    pub fn seal_tail(&self) -> AbsorbStats {
        self.inner.seal_tail()
    }

    /// Current cache counters; [`CacheStats::per_shard`] holds one entry per
    /// shard with its build/hit/residency counters and
    /// [`CacheStats::boundary`] the stitch-index counters.
    pub fn cache_stats(&self) -> CacheStats {
        let num_shards = self.num_shards();
        sync::lock(&self.inner.cache).stats(num_shards)
    }

    /// Warms every shard skyline for `k`, fanning the missing builds
    /// across the engine's [`ExecPool`] (shard skylines build
    /// independently, so a cold warm finishes in roughly the time of the
    /// largest shard instead of the sum); returns whether all of them were
    /// already resident.  Each shard counts one hit or miss, as a query's
    /// lookup does, and [`CacheStats::warm`] books the build times.
    pub fn warm(&self, k: usize) -> bool {
        let t0 = Instant::now();
        let live = self.inner.live_now();
        let keys: Vec<RangeKey> = (0..live.shards.len()).map(|s| (s, s, k)).collect();
        let (_, entries_built, build_time) = self.inner.entries(&live, &keys);
        sync::lock(&self.inner.cache).record_warm(entries_built, build_time, t0.elapsed());
        entries_built == 0
    }

    /// Drops every cached shard skyline and stitch entry, keeping the
    /// counters.
    pub fn clear_cache(&self) {
        sync::lock(&self.inner.cache).clear();
    }

    /// Executes a [`QueryRequest`] from the engine's caches: a one-request
    /// [`ShardedEngine::execute_batch`], and the entry point
    /// [`crate::CoreService`] workers, `tkc` and library callers share.
    ///
    /// The request is validated once, against the live view it then runs
    /// on, so a racing [`ShardedEngine::absorb`] is observed for all of its
    /// `k`s or for none.  Each `k` is answered by the paper's enumeration
    /// ([`crate::enumerate`], `Enum`) over the window's [`WindowView`] (see
    /// [`ShardedEngine::with_view`]).  That view reads like a fresh skyline
    /// build for the window, so a stream request sees cores in exactly the
    /// order [`crate::Algorithm::Enum`] emits them per query, whatever the
    /// plan.  The baselines ([`crate::Algorithm`]) are per-query references
    /// and never run here.
    ///
    /// # Errors
    /// The validation errors of [`QueryRequest::validate`].
    ///
    /// # Example
    ///
    /// ```
    /// use tkcore::{paper_example, Algorithm, QueryRequest, ShardPlan, ShardedEngine};
    ///
    /// let engine = ShardedEngine::new(paper_example::graph(), ShardPlan::FixedCount(3)).unwrap();
    /// let response = engine.execute(QueryRequest::sweep(1..=2, 1, 7)).unwrap();
    /// assert_eq!(response.outcomes.len(), 2); // one outcome per k
    /// // Every algorithm, run per query without the engine's caches, agrees:
    /// for algorithm in Algorithm::ALL {
    ///     let reference = QueryRequest::sweep(1..=2, 1, 7)
    ///         .run(&paper_example::graph(), algorithm)
    ///         .unwrap();
    ///     assert_eq!(response.total_cores(), reference.total_cores());
    /// }
    /// ```
    pub fn execute(&self, request: QueryRequest) -> Result<QueryResponse, TkError> {
        let live = self.inner.live_now();
        let request = request.validate(&live.graph)?;
        self.execute_one(live, request, Units::FanOut)
    }

    /// Lends `f` the engine's [`WindowView`] of `[start, end]` (clamped to
    /// the graph span) for `k`: the cached skylines of the overlapped
    /// shards and, for a window spanning shard cuts, the stitch entry of
    /// their cut-crossing windows, each fetched or built exactly as a query
    /// fetches them.  It is what `Enum` reads.
    ///
    /// # Errors
    /// The validation errors of [`QueryRequest::validate`].
    pub fn with_view<R>(
        &self,
        k: usize,
        start: Timestamp,
        end: Timestamp,
        f: impl FnOnce(&WindowView<'_>) -> R,
    ) -> Result<R, TkError> {
        let live = self.inner.live_now();
        let window = QueryRequest::single(k, start, end)
            .validate(&live.graph)?
            .window();
        Ok(self.inner.with_view(&live, k, window, |view| f(&view)))
    }

    /// [`ShardedEngine::execute`] for a request validated earlier, at
    /// [`crate::CoreService`] admission.  Snapshots only grow — appends
    /// extend the timeline and the vertex set — so a request valid for an
    /// earlier snapshot is valid for the current one.  `units` says where
    /// the request's count, sample and materialize units run.
    pub(crate) fn execute_validated(
        &self,
        request: ValidatedRequest,
        units: Units,
    ) -> Result<QueryResponse, TkError> {
        self.execute_one(self.inner.live_now(), request, units)
    }

    /// Executes a batch of requests against one live view, returning one
    /// [`QueryResponse`] per request, in request order.
    ///
    /// Every count, sample and materialize `(request, k)` unit of the batch fans
    /// across the engine's [`ExecPool`] together (the calling thread
    /// participates, so workers warm different shards in parallel and long
    /// and short units balance); stream requests then run their `k`s in
    /// request order on the calling thread, each into its own sink.  Every
    /// unit is answered as [`ShardedEngine::execute`] answers it.
    ///
    /// # Errors
    /// Every request is validated up front; the first invalid one fails the
    /// whole batch before any work starts.
    ///
    /// # Example
    ///
    /// ```
    /// use tkcore::{paper_example, QueryRequest, ShardPlan, ShardedEngine};
    ///
    /// // The unsharded engine: one span-wide skyline serves every window of k = 2.
    /// let engine = ShardedEngine::new(paper_example::graph(), ShardPlan::Span).unwrap();
    /// let batch = vec![QueryRequest::single(2, 1, 4), QueryRequest::single(2, 2, 7)];
    /// let responses = engine.execute_batch(batch).unwrap();
    /// assert_eq!(responses[0].total_cores(), 2); // Figure 2 of the paper
    /// assert_eq!(engine.cache_stats().per_shard[0].builds, 1);
    /// ```
    pub fn execute_batch(
        &self,
        requests: Vec<QueryRequest>,
    ) -> Result<Vec<QueryResponse>, TkError> {
        // The whole batch runs against one live view, so its requests are
        // mutually consistent even while absorbs land concurrently.
        let live = self.inner.live_now();
        let requests = requests
            .into_iter()
            .map(|request| request.validate(&live.graph))
            .collect::<Result<Vec<_>, _>>()?;
        self.execute_on(live, requests, Units::FanOut)
    }

    fn execute_one(
        &self,
        live: Arc<LiveState>,
        request: ValidatedRequest,
        units: Units,
    ) -> Result<QueryResponse, TkError> {
        let mut responses = self.execute_on(live, vec![request], units)?;
        // tkc-lint: allow(no-panic-api) — execute_on returns one response per request, and exactly one went in
        Ok(responses.pop().expect("one response per request"))
    }

    /// The one execution core: runs every count, sample and materialize
    /// `(request, k)` unit as one batch placed by `placement`, runs stream
    /// requests in order on the calling thread, and assembles each response
    /// through [`ValidatedRequest::respond`].
    fn execute_on(
        &self,
        live: Arc<LiveState>,
        requests: Vec<ValidatedRequest>,
        placement: Units,
    ) -> Result<Vec<QueryResponse>, TkError> {
        let units: Vec<(usize, TimeWindow, SinkShape)> = requests
            .iter()
            .filter_map(|request| Some((request, request.mode().shape()?)))
            .flat_map(|(request, shape)| {
                let window = request.window();
                request.ks().iter().map(move |&k| (k, window, shape))
            })
            .collect();
        let mut fanned = self
            .fan_out(Arc::clone(&live), units, placement)
            .into_iter();
        requests
            .into_iter()
            .map(|request| {
                request.respond(
                    |ks, _, _| Ok(fanned.by_ref().take(ks.len()).collect()),
                    |k, window, sink| Ok(self.inner.run_validated(&live, k, window, sink)),
                )
            })
            .collect()
    }

    /// Runs validated `(k, window, shape)` units against one live view, one
    /// fresh [`OutcomeSink`] per unit: across the spare slots of the
    /// engine's pool plus the calling thread (workers claim the next unit
    /// index from a shared counter, so long and short units balance), or,
    /// with [`Units::OnCaller`] and every unit warm, on the calling thread
    /// alone.  Returns the results in unit order.
    fn fan_out(
        &self,
        live: Arc<LiveState>,
        units: Vec<(usize, TimeWindow, SinkShape)>,
        placement: Units,
    ) -> Vec<(OutcomeSink, QueryStats)> {
        let on_caller = placement == Units::OnCaller && self.inner.units_warm(&live, &units);
        let pool = if on_caller {
            None
        } else {
            batch_pool(&self.inner.pool, self.inner.config.num_threads, units.len())
        };
        let inner = Arc::clone(&self.inner);
        run_batch_inner(pool.as_deref(), units.len(), move |i| {
            let (k, window, shape) = units[i];
            let mut sink = OutcomeSink::new(shape);
            let stats = inner.run_validated(&live, k, window, &mut sink);
            (sink, stats)
        })
    }
}

impl ShardInner {
    /// The current live view, cloned out from under a short lock.  Callers
    /// hold the returned `Arc` for the whole query, never the lock.
    fn live_now(&self) -> Arc<LiveState> {
        Arc::clone(&sync::lock(&self.live))
    }

    /// Absorbs one ingest batch: append + publish, recompute the tail
    /// window, apply the seal policy, rebuild the tail entries of the new
    /// epoch, then swap the live state and publish the rebuilt entries to
    /// the cache in one critical section.  See [`ShardedEngine::absorb`].
    fn absorb(&self, batch: &[IngestEvent]) -> Result<AbsorbStats, TkError> {
        let mut ingest = sync::lock(&self.ingest);
        if batch.is_empty() {
            let live = self.live_now();
            return Ok(AbsorbStats {
                tmax: live.graph.tmax(),
                num_shards: live.shards.len(),
                sealed_shards: live.at.sealed,
                ..AbsorbStats::default()
            });
        }
        let appended = ingest.appendable.append_batch(batch)?;
        let snapshot = ingest.appendable.publish();
        let old = self.live_now();
        let new_tmax = snapshot.tmax();
        let mut shards = old.shards.clone();
        if old.at.sealed == shards.len() {
            // The previous absorb (or a manual seal) closed the tail: this
            // batch opens a fresh one right after it.
            let start = shards.last().map_or(1, |s| s.end() + 1);
            shards.push(TimeWindow::new(start, new_tmax));
            ingest.tail_edges = 0;
        } else {
            let tail = shards.len() - 1;
            shards[tail] = TimeWindow::new(shards[tail].start(), new_tmax);
        }
        ingest.tail_edges += appended;
        let tail = shards.len() - 1;
        let did_seal = self
            .config
            .seal_policy
            .should_seal(ingest.tail_edges, shards[tail]);
        let mut sealed = old.at.sealed;
        if did_seal {
            sealed = shards.len();
            ingest.appendable.raise_floor(new_tmax);
            ingest.tail_edges = 0;
        }
        let state = Arc::new(LiveState {
            at: EpochView {
                epoch: old.at.epoch + 1,
                sealed,
            },
            graph: snapshot,
            shards,
        });
        let keys = sync::lock(&self.cache).rebuild_keys(tail);
        // tkc-lint: allow(lock-order-global) — the fan-out only runs the build closure, which takes no lock; the lint links drain_batch's `run(i)` closure call to QueryRequest::run by name, and through it to the ingest lock
        let (rebuilt, build_time, wall_time) = self.build_entries(&state, &keys);
        let mut live = sync::lock(&self.live);
        let mut cache = sync::lock(&self.cache);
        *live = Arc::clone(&state);
        let (tail_invalidations, boundary_invalidations) = cache.publish(
            state.at,
            keys.into_iter().zip(rebuilt).collect(),
            build_time,
            wall_time,
        );
        drop(cache);
        drop(live);
        Ok(AbsorbStats {
            appended,
            tail_invalidations,
            boundary_invalidations,
            sealed: did_seal,
            tmax: new_tmax,
            num_shards: tail + 1,
            sealed_shards: sealed,
        })
    }

    /// Builds the entries `keys` against `live`, fanned across the
    /// engine's [`ExecPool`] (the calling thread participates) while
    /// holding neither the live nor the cache lock: a cold query's shard
    /// skylines and an absorb's rebuilds alike.  Returns them in key order,
    /// with their summed per-entry build time and the wall time of the
    /// whole fan-out.
    fn build_entries(
        &self,
        live: &Arc<LiveState>,
        keys: &[RangeKey],
    ) -> (Vec<Arc<EdgeCoreSkyline>>, Duration, Duration) {
        let t0 = Instant::now();
        let pool = batch_pool(&self.pool, self.config.num_threads, keys.len());
        let task_live = Arc::clone(live);
        let task_keys: Arc<[RangeKey]> = keys.into();
        let built = run_batch_inner(pool.as_deref(), keys.len(), move |i| {
            let t = Instant::now();
            let skyline = task_live.build_entry(task_keys[i]);
            (Arc::new(skyline), t.elapsed())
        });
        let build_time = built.iter().map(|(_, took)| *took).sum();
        let skylines = built.into_iter().map(|(skyline, _)| skyline).collect();
        (skylines, build_time, t0.elapsed())
    }

    /// Manual tail seal with no timeline change: the live swap and the
    /// cache's seal share one critical section, so no query sees the
    /// sealed view before the cache does.  See [`ShardedEngine::seal_tail`].
    fn seal_tail(&self) -> AbsorbStats {
        let mut ingest = sync::lock(&self.ingest);
        let old = self.live_now();
        let num_shards = old.shards.len();
        let stats = AbsorbStats {
            sealed: old.at.sealed < num_shards,
            tmax: old.graph.tmax(),
            num_shards,
            sealed_shards: num_shards,
            ..AbsorbStats::default()
        };
        if !stats.sealed {
            return stats;
        }
        ingest.appendable.raise_floor(old.graph.tmax());
        ingest.tail_edges = 0;
        let state = Arc::new(LiveState {
            at: EpochView {
                epoch: old.at.epoch + 1,
                sealed: num_shards,
            },
            graph: Arc::clone(&old.graph),
            shards: old.shards.clone(),
        });
        let mut live = sync::lock(&self.live);
        let mut cache = sync::lock(&self.cache);
        cache.seal(state.at);
        *live = state;
        stats
    }

    /// Returns the cache entries `keys` (shard skylines and stitch entries
    /// alike, in key order), fanning the builds of the cold ones across the
    /// engine's [`ExecPool`] via `run_batch`, so a cold spanning query pays
    /// roughly the largest build instead of the sum.
    ///
    /// Cache semantics are identical to building serially: one `lookup`
    /// per key (hit/miss accounting), builds outside the cache lock, then
    /// one `adopt` per build — two threads racing on the same cold key may
    /// both build, the loser's copy is dropped.  Nested fan-out is
    /// deadlock-free because `run_batch`'s calling thread claims indexes
    /// itself.
    ///
    /// Also returns the number of entries built here and their summed
    /// per-entry build time (wall time is shorter when builds overlap; see
    /// [`WarmStats`]).
    fn entries(
        &self,
        live: &Arc<LiveState>,
        keys: &[RangeKey],
    ) -> (Vec<Arc<EdgeCoreSkyline>>, u64, Duration) {
        let mut entries: Vec<Option<Arc<EdgeCoreSkyline>>> = Vec::with_capacity(keys.len());
        let mut missing: Vec<usize> = Vec::new();
        {
            let mut cache = sync::lock(&self.cache);
            for (i, &key) in keys.iter().enumerate() {
                let hit = cache.lookup(live.at, key);
                if hit.is_none() {
                    missing.push(i);
                }
                entries.push(hit);
            }
        }
        let mut build_time = Duration::ZERO;
        if !missing.is_empty() {
            let cold: Vec<RangeKey> = missing.iter().map(|&i| keys[i]).collect();
            let (built, took, _) = self.build_entries(live, &cold);
            build_time = took;
            let mut cache = sync::lock(&self.cache);
            for (&i, skyline) in missing.iter().zip(built) {
                entries[i] = Some(cache.adopt(live.at, keys[i], skyline));
            }
        }
        let entries = entries
            .into_iter()
            // tkc-lint: allow(no-panic-api) — every slot is either a cache hit or was adopted just above
            .map(|entry| entry.expect("every requested entry resolved"))
            .collect();
        (entries, missing.len() as u64, build_time)
    }

    /// Lends `f` the view of `window` for `k`: every overlapping shard's
    /// cached skyline and, for a spanning window, the stitch entry of its
    /// shard range, the cold ones built in parallel on the pool (see
    /// `entries`).
    fn with_view<R>(
        &self,
        live: &Arc<LiveState>,
        k: usize,
        window: TimeWindow,
        f: impl FnOnce(WindowView<'_>) -> R,
    ) -> R {
        let keys = view_keys(live, k, window);
        let (mut skylines, _, _) = self.entries(live, &keys);
        let crossing = if keys.len() > 1 { skylines.pop() } else { None };
        let parts = skylines.iter().map(|skyline| &**skyline);
        f(WindowView::new(
            &live.graph,
            k,
            window,
            parts,
            crossing.as_deref(),
        ))
    }

    /// Whether every entry the views of `units` read is resident, so
    /// running them builds nothing.
    fn units_warm(&self, live: &LiveState, units: &[(usize, TimeWindow, SinkShape)]) -> bool {
        let cache = sync::lock(&self.cache);
        units.iter().all(|&(k, window, _)| {
            view_keys(live, k, window)
                .into_iter()
                .all(|key| cache.is_resident(live.at, key))
        })
    }

    /// Enumerates a query whose parameters already passed validation
    /// (`k >= 1`, window inside `live`'s graph span) over its
    /// [`WindowView`] of one consistent live view.  `precompute_time` is
    /// the fetch (or build) of the view's skylines.
    fn run_validated(
        &self,
        live: &Arc<LiveState>,
        k: usize,
        window: TimeWindow,
        sink: &mut dyn ResultSink,
    ) -> QueryStats {
        let t0 = Instant::now();
        let mut stats = QueryStats::zeroed(Algorithm::Enum);
        let run = self.with_view(live, k, window, |view| {
            let t1 = Instant::now();
            stats.precompute_time = t1 - t0;
            let run = enumerate(&live.graph, view, sink);
            stats.enumerate_time = t1.elapsed();
            run
        });
        stats.num_cores = run.num_cores;
        stats.total_result_edges = run.total_edges;
        stats.peak_memory_bytes = run.peak_memory_bytes;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example;
    use crate::sink::{CollectingSink, CountingSink};
    use crate::{KOutput, TemporalKCore, TimeRangeKCoreQuery};
    use std::sync::atomic::AtomicBool;

    /// The cores `engine` answers `query` with, in canonical order.
    fn cores_of(engine: &ShardedEngine, query: TimeRangeKCoreQuery) -> Vec<TemporalKCore> {
        let mut response = engine
            .execute(QueryRequest::from(query).materialize())
            .unwrap();
        let KOutput::Cores(cores) = response.outcomes.remove(0).output else {
            panic!("materialized request");
        };
        cores
    }

    /// Counts `(k, [start, end])` on `engine`.
    fn count(engine: &ShardedEngine, k: usize, start: Timestamp, end: Timestamp) -> u64 {
        engine
            .execute(QueryRequest::single(k, start, end))
            .unwrap()
            .total_cores()
    }

    /// A single-threaded engine over the paper example, with `set` applied
    /// to the default config.
    fn paper_engine(plan: ShardPlan, set: impl FnOnce(&mut EngineConfig)) -> ShardedEngine {
        let mut config = EngineConfig {
            num_threads: 1,
            ..EngineConfig::default()
        };
        set(&mut config);
        ShardedEngine::with_config(paper_example::graph(), plan, config).unwrap()
    }

    /// Shard skylines plus stitch entries `engine` built on the query path.
    fn query_path_builds(engine: &ShardedEngine) -> u64 {
        let stats = engine.cache_stats();
        stats.per_shard.iter().map(|s| s.builds).sum::<u64>() + stats.boundary.builds
    }

    #[test]
    fn plans_resolve_to_contiguous_covers() {
        let g = paper_example::graph(); // tmax = 7
        for plan in [
            ShardPlan::Span,
            ShardPlan::FixedCount(1),
            ShardPlan::FixedCount(3),
            ShardPlan::FixedCount(7),
            ShardPlan::FixedCount(50), // clamped to one shard per timestamp
            ShardPlan::TargetEdgesPerShard(1),
            ShardPlan::TargetEdgesPerShard(4),
            ShardPlan::TargetEdgesPerShard(10_000),
            ShardPlan::ExplicitCuts(vec![]),
            ShardPlan::ExplicitCuts(vec![3]),
            ShardPlan::ExplicitCuts(vec![1, 2, 3, 4, 5, 6]),
        ] {
            let shards = plan.resolve(&g).unwrap_or_else(|e| panic!("{plan:?}: {e}"));
            assert_eq!(shards.first().unwrap().start(), 1, "{plan:?}");
            assert_eq!(shards.last().unwrap().end(), g.tmax(), "{plan:?}");
            for pair in shards.windows(2) {
                assert_eq!(pair[1].start(), pair[0].end() + 1, "{plan:?}");
            }
        }
        assert_eq!(ShardPlan::FixedCount(50).resolve(&g).unwrap().len(), 7);
        assert_eq!(
            ShardPlan::TargetEdgesPerShard(10_000)
                .resolve(&g)
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn malformed_plans_are_typed_errors() {
        let g = paper_example::graph();
        for plan in [
            ShardPlan::FixedCount(0),
            ShardPlan::TargetEdgesPerShard(0),
            ShardPlan::ExplicitCuts(vec![0]),
            ShardPlan::ExplicitCuts(vec![7]), // == tmax: last shard would be empty
            ShardPlan::ExplicitCuts(vec![3, 3]),
            ShardPlan::ExplicitCuts(vec![4, 2]),
        ] {
            assert!(
                matches!(plan.resolve(&g), Err(TkError::InvalidShardPlan { .. })),
                "{plan:?}"
            );
        }
    }

    #[test]
    fn sharded_answers_match_span_wide_on_the_paper_example() {
        let g = paper_example::graph();
        for plan in [
            ShardPlan::Span,
            ShardPlan::FixedCount(1),
            ShardPlan::FixedCount(2),
            ShardPlan::FixedCount(4),
            ShardPlan::FixedCount(7),
            ShardPlan::ExplicitCuts(vec![4]),
        ] {
            let sharded = ShardedEngine::new(g.clone(), plan.clone()).unwrap();
            for k in 1..=3 {
                for window in [
                    g.span(),
                    TimeWindow::new(1, 4),
                    TimeWindow::new(2, 6),
                    TimeWindow::new(4, 4),
                ] {
                    let query = TimeRangeKCoreQuery::new(k, window).unwrap();
                    let cores = cores_of(&sharded, query);
                    for algo in Algorithm::ALL {
                        let mut expected = CollectingSink::default();
                        query.run_with(&g, algo, &mut expected);
                        assert_eq!(
                            cores,
                            expected.into_sorted(),
                            "{plan:?} k={k} window={window} algo={algo}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn single_shard_queries_build_only_their_shard() {
        let g = paper_example::graph();
        let engine = ShardedEngine::new(g, ShardPlan::ExplicitCuts(vec![4])).unwrap();
        count(&engine, 2, 1, 3);
        let stats = engine.cache_stats();
        assert_eq!(stats.per_shard.len(), 2);
        assert_eq!(stats.per_shard[0].builds, 1);
        assert_eq!(stats.per_shard[1].builds, 0);
        assert_eq!(stats.misses, 1);
        assert!(stats.per_shard[0].resident_bytes <= stats.resident_bytes);
        // No boundary was crossed, so no stitch entry was built.
        assert_eq!(stats.boundary.builds, 0);
        assert_eq!(stats.boundary.resident_entries, 0);
    }

    #[test]
    fn overlapping_shards_reports_the_routing_range() {
        let g = paper_example::graph();
        // With cuts after 2 and 4, a query builds exactly the shards its
        // window overlaps, one fresh engine per window.
        for ((start, end), builds) in [
            ((1, 2), [1, 0, 0]),
            ((3, 4), [0, 1, 0]),
            ((2, 5), [1, 1, 1]),
            ((5, 7), [0, 0, 1]),
        ] {
            let engine =
                ShardedEngine::new(g.clone(), ShardPlan::ExplicitCuts(vec![2, 4])).unwrap();
            count(&engine, 2, start, end);
            let stats = engine.cache_stats();
            let got: Vec<u64> = stats.per_shard.iter().map(|s| s.builds).collect();
            assert_eq!(got, builds, "[{start}, {end}]");
        }
    }

    #[test]
    fn spanning_queries_build_one_stitch_entry_and_reuse_it() {
        let g = paper_example::graph();
        let engine = ShardedEngine::new(g.clone(), ShardPlan::ExplicitCuts(vec![4])).unwrap();
        let query = TimeRangeKCoreQuery::new(2, TimeWindow::new(2, 6)).unwrap();
        let first = cores_of(&engine, query);
        let stats = engine.cache_stats();
        assert_eq!(stats.boundary.builds, 1, "{stats:?}");
        assert_eq!(stats.boundary.hits, 0, "{stats:?}");
        assert_eq!(stats.boundary.resident_entries, 1);
        // The second spanning query over the same shard pair hits the entry.
        let second = cores_of(&engine, query);
        let stats = engine.cache_stats();
        assert_eq!(stats.boundary.builds, 1, "{stats:?}");
        assert_eq!(stats.boundary.hits, 1, "{stats:?}");
        assert_eq!(first, second);
        // A different window over the same shard pair reuses the entry too.
        count(&engine, 2, 4, 5);
        let stats = engine.cache_stats();
        assert_eq!(stats.boundary.builds, 1, "{stats:?}");
        assert_eq!(stats.boundary.hits, 2, "{stats:?}");
    }

    #[test]
    fn stitch_cache_lru_respects_the_entry_budget() {
        let engine = paper_engine(ShardPlan::FixedCount(7), |c| c.boundary_cache_entries = 1);
        // Two spanning queries over different shard ranges: the second entry
        // evicts the first.
        count(&engine, 2, 1, 2);
        count(&engine, 2, 5, 7);
        let stats = engine.cache_stats();
        assert_eq!(stats.boundary.builds, 2, "{stats:?}");
        assert_eq!(stats.boundary.resident_entries, 1, "{stats:?}");
        assert!(stats.boundary.evictions >= 1, "{stats:?}");
        // A stitch eviction never evicts a shard skyline.
        assert_eq!(stats.evictions, 0, "{stats:?}");
        for shard in [0, 1, 4, 5, 6] {
            assert_eq!(stats.per_shard[shard].resident_indexes, 1, "{stats:?}");
        }
    }

    /// A zero stitch-entry budget is clamped to one resident entry and
    /// answers exactly like the default budget.
    #[test]
    fn disabled_stitch_cache_matches_the_cached_path() {
        let g = paper_example::graph();
        let cached = ShardedEngine::new(g.clone(), ShardPlan::FixedCount(4)).unwrap();
        let minimal = paper_engine(ShardPlan::FixedCount(4), |c| c.boundary_cache_entries = 0);
        for k in 1..=3 {
            for window in [g.span(), TimeWindow::new(2, 6), TimeWindow::new(3, 5)] {
                let query = TimeRangeKCoreQuery::new(k, window).unwrap();
                assert_eq!(
                    cores_of(&cached, query),
                    cores_of(&minimal, query),
                    "k={k} {window}"
                );
            }
        }
        let stats = minimal.cache_stats();
        assert!(stats.boundary.builds >= 1, "{stats:?}");
        assert_eq!(stats.boundary.resident_entries, 1, "{stats:?}");
        assert!(cached.cache_stats().boundary.builds >= 1);
    }

    #[test]
    fn eviction_respects_the_budget_across_shards() {
        let g = paper_example::graph();
        let shard_bytes = EdgeCoreSkyline::build(&g, 1, TimeWindow::new(1, 4)).memory_bytes();
        // Room for about one shard skyline.
        let engine = paper_engine(ShardPlan::ExplicitCuts(vec![4]), |c| {
            c.memory_budget_bytes = shard_bytes
        });
        for k in 1..=3 {
            count(&engine, k, 1, g.tmax());
        }
        let stats = engine.cache_stats();
        assert!(stats.evictions >= 1, "{stats:?}");
        assert!(stats.resident_indexes >= 1);
        let shard_sum: usize = stats.per_shard.iter().map(|s| s.resident_indexes).sum();
        assert_eq!(shard_sum, stats.resident_indexes, "{stats:?}");
        let byte_sum: usize = stats.per_shard.iter().map(|s| s.resident_bytes).sum();
        assert_eq!(byte_sum, stats.resident_bytes, "{stats:?}");
        // Byte pressure evicts shard skylines only: every stitch entry stays.
        assert_eq!(stats.boundary.evictions, 0, "{stats:?}");
        assert_eq!(stats.boundary.resident_entries, 3, "{stats:?}");
        // Stitch bytes do not count against the byte budget: a budget of
        // exactly the three k = 1 shard skylines holds them beside a stitch
        // entry built before the last shard.
        let shards = [(1, 2), (3, 4), (5, 7)];
        let budget = shards
            .iter()
            .map(|&(start, end)| {
                EdgeCoreSkyline::build(&g, 1, TimeWindow::new(start, end)).memory_bytes()
            })
            .sum();
        let engine = paper_engine(ShardPlan::ExplicitCuts(vec![2, 4]), |c| {
            c.memory_budget_bytes = budget
        });
        count(&engine, 1, 1, 4);
        count(&engine, 1, 5, 7);
        let stats = engine.cache_stats();
        assert_eq!(stats.evictions, 0, "{stats:?}");
        assert_eq!(stats.resident_indexes, 3, "{stats:?}");
        assert_eq!(stats.boundary.resident_entries, 1, "{stats:?}");
    }

    #[test]
    fn execute_composes_with_requests() {
        let g = paper_example::graph();
        let engine = ShardedEngine::new(g.clone(), ShardPlan::FixedCount(4)).unwrap();
        let response = engine
            .execute(QueryRequest::single(2, 1, 4).materialize())
            .unwrap();
        let crate::KOutput::Cores(cores) = &response.outcomes[0].output else {
            panic!("materialized request");
        };
        assert_eq!(
            cores,
            &crate::naive::naive_results(&g, 2, TimeWindow::new(1, 4))
        );
        assert!(matches!(
            engine.execute(QueryRequest::single(0, 1, 4)),
            Err(TkError::KOutOfRange { k: 0 })
        ));
    }

    #[test]
    fn execute_matches_direct_execution_and_caches() {
        let engine = ShardedEngine::new(paper_example::graph(), ShardPlan::Span).unwrap();
        let g = engine.graph();
        for window in [
            paper_example::example_query_range(),
            paper_example::full_range(),
        ] {
            let request = || QueryRequest::single(2, window.start(), window.end()).materialize();
            let cached = engine.execute(request()).unwrap();
            let direct = request().run(&g, Algorithm::Enum).unwrap();
            let (crate::KOutput::Cores(a), crate::KOutput::Cores(b)) =
                (&cached.outcomes[0].output, &direct.outcomes[0].output)
            else {
                panic!("materialized request");
            };
            assert_eq!(a, b, "{window}");
        }
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 1, "one span-wide build for both windows");
        assert!(stats.hits >= 1);
    }

    #[test]
    fn sharded_batch_matches_sequential_and_reports_shard_cache() {
        let g = paper_example::graph();
        let engine = ShardedEngine::new(g.clone(), ShardPlan::FixedCount(3)).unwrap();
        let windows: Vec<TimeWindow> = (1..=g.tmax())
            .flat_map(|s| (s..=g.tmax()).map(move |e| TimeWindow::new(s, e)))
            .collect();
        let requests = windows
            .iter()
            .map(|w| QueryRequest::single(2, w.start(), w.end()))
            .collect();
        let responses = engine.execute_batch(requests).unwrap();
        assert_eq!(responses.len(), windows.len());
        assert_eq!(engine.cache_stats().per_shard.len(), 3);
        for (window, response) in windows.iter().zip(&responses) {
            let mut fresh = CountingSink::default();
            Algorithm::Enum.execute(&g, 2, *window, &mut fresh).unwrap();
            let KOutput::Counts(counts) = &response.outcomes[0].output else {
                panic!("count request");
            };
            assert_eq!(counts, &fresh, "{window}");
        }
        // Every shard was eventually warmed for k = 2; the sum of per-shard
        // hits and builds accounts for every cache access.
        let stats = engine.cache_stats();
        let builds: u64 = stats.per_shard.iter().map(|s| s.builds).sum();
        let hits: u64 = stats.per_shard.iter().map(|s| s.hits).sum();
        assert!(builds >= 3, "{stats:?}");
        assert_eq!(hits, stats.hits, "{stats:?}");
        // Spanning queries in the batch exercised the stitch cache.
        assert!(stats.boundary.builds >= 1, "{stats:?}");
    }

    #[test]
    fn out_of_span_queries_are_refused_before_touching_shards() {
        let g = paper_example::graph();
        let engine = ShardedEngine::new(g.clone(), ShardPlan::FixedCount(4)).unwrap();
        let err = engine
            .execute(QueryRequest::single(2, g.tmax() + 1, g.tmax() + 9))
            .unwrap_err();
        assert!(
            matches!(err, TkError::WindowPastTmax { start, tmax }
                if start == g.tmax() + 1 && tmax == g.tmax()),
            "{err}"
        );
        assert_eq!(engine.cache_stats().misses, 0);
    }

    #[test]
    fn warm_builds_every_shard_once() {
        let g = paper_example::graph();
        let engine = ShardedEngine::new(g, ShardPlan::FixedCount(4)).unwrap();
        assert!(!engine.warm(2), "cold cache");
        assert!(engine.warm(2), "all shards resident after warming");
        let stats = engine.cache_stats();
        assert_eq!(stats.resident_indexes, 4);
        assert!(stats.per_shard.iter().all(|s| s.builds == 1), "{stats:?}");
        engine.clear_cache();
        let stats = engine.cache_stats();
        assert_eq!(stats.resident_indexes, 0);
        assert_eq!(stats.resident_bytes, 0);
        assert!(stats.per_shard.iter().all(|s| s.resident_indexes == 0));
        assert_eq!(stats.boundary.resident_entries, 0);
    }

    #[test]
    fn absorb_invalidates_only_tail_entries_and_keeps_closed_shards_warm() {
        let g = paper_example::graph(); // tmax = 7
        let engine = ShardedEngine::new(g, ShardPlan::ExplicitCuts(vec![4])).unwrap();
        assert_eq!(engine.sealed_shards(), 1, "last shard is the live tail");
        assert_eq!(engine.watermark(), 7, "appends continue from tmax");
        engine.warm(2); // both shard skylines resident
                        // A spanning query also plants a tail-touching stitch entry.
        count(&engine, 2, 2, 6);
        let before = engine.cache_stats();
        assert_eq!(before.resident_indexes, 2);
        assert_eq!(before.boundary.resident_entries, 1);

        let absorbed = engine.absorb(&[(1, 5, 8), (2, 5, 8)]).unwrap();
        assert_eq!(absorbed.appended, 2);
        assert_eq!(absorbed.tmax, 8);
        assert!(!absorbed.sealed, "Manual policy never seals");
        assert_eq!(absorbed.tail_invalidations, 1, "only the tail skyline");
        assert_eq!(
            absorbed.boundary_invalidations, 1,
            "the tail-touching stitch entry"
        );
        assert_eq!(
            engine.shards(),
            vec![TimeWindow::new(1, 4), TimeWindow::new(5, 8)]
        );

        let after = engine.cache_stats();
        assert_eq!(
            after.per_shard[0].resident_indexes, 1,
            "closed shard stays resident"
        );
        assert_eq!(after.tail_invalidations, 1);
        assert_eq!(after.boundary_invalidations, 1);
        assert_eq!(after.seals, 0);
        // The purged tail entries come back rebuilt at the new epoch, each
        // counted once in `publish` and never as a query-path build.
        let at = engine.inner.live_now().at;
        let cache = sync::lock(&engine.inner.cache);
        assert!(cache.is_resident(at, (1, 1, 2)) && cache.is_resident(at, (0, 1, 2)));
        drop(cache);
        assert_eq!(after.per_shard[1].resident_indexes, 1, "{after:?}");
        assert_eq!(after.boundary.resident_entries, 1, "{after:?}");
        assert_eq!((after.publish.warms, after.publish.entries_built), (1, 2));
        let builds = query_path_builds(&engine);
        assert_eq!(builds, 3, "the warm's two shards and the stitch entry");

        // Re-querying the closed shard and the tail is a pure hit.
        count(&engine, 2, 1, 3);
        count(&engine, 2, 5, 8);
        assert_eq!(query_path_builds(&engine), builds, "nothing rebuilt");

        // The new tail contents are queryable and duplicates are refused.
        assert!(matches!(
            engine.absorb(&[(1, 5, 8)]),
            Err(TkError::AppendDuplicate { u: 1, v: 5, t: 8 })
        ));
        assert!(matches!(
            engine.absorb(&[(3, 6, 2)]),
            Err(TkError::AppendOutOfOrder { t: 2, watermark: 8 })
        ));
    }

    #[test]
    fn seal_policy_rolls_the_tail_and_the_next_batch_opens_a_fresh_one() {
        let engine = paper_engine(ShardPlan::ExplicitCuts(vec![4]), |c| {
            c.seal_policy = crate::SealPolicy::SpanWidth(5)
        });
        // Tail [5, 7] spans 3 timestamps; extending it to t = 9 spans 5 and
        // trips the SpanWidth(5) policy.
        let absorbed = engine.absorb(&[(1, 2, 9)]).unwrap();
        assert!(absorbed.sealed);
        assert_eq!(absorbed.sealed_shards, 2);
        assert_eq!(absorbed.num_shards, 2);
        assert_eq!(engine.cache_stats().seals, 1);
        assert_eq!(engine.watermark(), 10, "floor rose past the sealed tail");

        // The next advancing batch opens a new tail [10, 11].
        let absorbed = engine.absorb(&[(1, 3, 11), (2, 3, 11)]).unwrap();
        assert_eq!(absorbed.num_shards, 3);
        assert_eq!(absorbed.sealed_shards, 2);
        assert_eq!(engine.shards()[2], TimeWindow::new(10, 11));
        let stats = engine.cache_stats();
        assert_eq!(stats.per_shard.len(), 3, "counter table grew with the tail");
        // Queries spanning the whole grown timeline still validate & run.
        assert!(count(&engine, 1, 1, 11) > 0);
    }

    #[test]
    fn manual_seal_upgrades_resident_tail_entries_instead_of_dropping_them() {
        let g = paper_example::graph();
        let engine = ShardedEngine::new(g, ShardPlan::ExplicitCuts(vec![4])).unwrap();
        engine.warm(2);
        let sealed = engine.seal_tail();
        assert!(sealed.sealed);
        assert_eq!(sealed.sealed_shards, 2);
        assert_eq!(engine.sealed_shards(), 2);
        let stats = engine.cache_stats();
        assert_eq!(stats.seals, 1);
        assert_eq!(
            stats.resident_indexes, 2,
            "tail entry upgraded, not dropped"
        );
        // Sealing again is a no-op.
        assert!(!engine.seal_tail().sealed);

        // A later absorb opens a fresh tail and leaves the upgraded entries
        // alone: zero tail invalidations.
        let absorbed = engine.absorb(&[(4, 6, 9)]).unwrap();
        assert_eq!(absorbed.num_shards, 3);
        assert_eq!(absorbed.tail_invalidations, 0, "old tail is permanent now");
        let builds = query_path_builds(&engine);
        count(&engine, 2, 5, 7);
        assert_eq!(
            query_path_builds(&engine),
            builds,
            "ex-tail served from cache"
        );
    }

    /// A seal swaps the live view and seals the cache in one critical
    /// section, so tail queries racing it never drop and rebuild the tail
    /// entry.  Each round opens a fresh tail, then seals it under load.  A
    /// query taking the sealed view before the cache seals trips the
    /// cache's "view newer than the cache" debug assertion.
    #[test]
    fn seal_tail_racing_tail_queries_neither_drops_nor_rebuilds() {
        let g = paper_example::graph();
        let engine = ShardedEngine::new(g, ShardPlan::ExplicitCuts(vec![4])).unwrap();
        engine.warm(2);
        let builds = query_path_builds(&engine);
        let stop = AtomicBool::new(false);
        let rounds = std::thread::scope(|scope| {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    // The warm holds the cache lock over every shard's
                    // lookup, so a seal waiting on it races the next query.
                    engine.warm(2);
                    let tail = *engine.shards().last().unwrap();
                    count(&engine, 2, tail.start(), tail.end());
                }
            });
            let rounds: Vec<(u64, u64)> = (0..1000)
                .map(|round| {
                    if round > 0 {
                        let t = engine.watermark();
                        engine.absorb(&[(1, 2, t), (2, 3, t), (1, 3, t)]).unwrap();
                    }
                    assert!(engine.seal_tail().sealed);
                    let stats = engine.cache_stats();
                    (stats.tail_invalidations, query_path_builds(&engine))
                })
                .collect();
            stop.store(true, Ordering::Relaxed);
            rounds
        });
        for (round, &got) in rounds.iter().enumerate() {
            assert_eq!(
                got,
                (0, builds),
                "after seal {round}: (invalidations, builds)"
            );
        }
    }

    #[test]
    fn empty_batches_change_nothing() {
        let g = paper_example::graph();
        let engine = ShardedEngine::new(g, ShardPlan::FixedCount(3)).unwrap();
        let absorbed = engine.absorb(&[]).unwrap();
        assert_eq!(absorbed.appended, 0);
        assert_eq!(absorbed.tmax, 7);
        assert_eq!(absorbed.num_shards, 3);
        assert_eq!(engine.cache_stats().tail_invalidations, 0);
    }

    #[test]
    fn a_poisoned_skyline_cache_lock_recovers_for_spanning_queries() {
        let g = paper_example::graph();
        let engine = ShardedEngine::new(g.clone(), ShardPlan::FixedCount(3)).unwrap();
        engine.warm(2);
        // One mutex guards shard skylines and stitch entries alike; the
        // shared sync helper recovers it instead of panicking on every later
        // cache_stats()/query.
        assert!(engine.poison_cache_lock());
        let stats = engine.cache_stats();
        assert_eq!(stats.resident_indexes, 3, "shard skylines still resident");
        assert!(
            count(&engine, 2, 1, g.tmax()) > 0,
            "spanning query runs after poisoning"
        );
        assert_eq!(engine.cache_stats().boundary.builds, 1);
    }

    /// Warm-publish contract: after a plain absorb, and after a sealing
    /// absorb followed by one that opens a fresh tail, a tail query at
    /// every `k` the tail had resident is a query-path hit — zero builds —
    /// and matches the naive oracle.
    #[test]
    fn absorbs_publish_the_tail_warm_for_every_resident_k() {
        // The paper example's tmax is 7.
        let engine = paper_engine(ShardPlan::ExplicitCuts(vec![4]), |c| {
            c.seal_policy = crate::SealPolicy::EdgeCount(12)
        });
        let ks = [1, 2, 3];
        for &k in &ks {
            engine.warm(k);
        }
        let check_tail = |engine: &ShardedEngine, label: &str| {
            let live = engine.graph();
            let tail = *engine.shards().last().unwrap();
            let before = query_path_builds(engine);
            for &k in &ks {
                let query = TimeRangeKCoreQuery::new(k, tail).unwrap();
                assert_eq!(
                    cores_of(engine, query),
                    crate::naive::naive_results(&live, k, tail),
                    "{label}: k={k} tail={tail}"
                );
            }
            assert_eq!(
                query_path_builds(engine),
                before,
                "{label}: query-path build"
            );
        };

        // A plain absorb: 2 more edges keep the tail [5, 7] under the
        // 12-edge seal threshold.
        let absorbed = engine.absorb(&[(1, 5, 8), (2, 5, 8)]).unwrap();
        assert!(!absorbed.sealed);
        assert_eq!(engine.cache_stats().publish.entries_built, 3);
        check_tail(&engine, "plain");

        // A sealing absorb rebuilds the sealed shard as permanent, and the
        // opening absorb rebuilds the carried keys on the fresh tail.
        let absorbed = engine
            .absorb(&[(1, 2, 9), (2, 6, 9), (1, 6, 9), (5, 6, 9), (2, 3, 9)])
            .unwrap();
        assert!(absorbed.sealed);
        let sealed = engine.cache_stats();
        assert_eq!(sealed.publish.entries_built, 6);
        assert_eq!(sealed.per_shard[1].resident_indexes, 3, "{sealed:?}");
        let absorbed = engine
            .absorb(&[(1, 3, 10), (2, 3, 10), (1, 2, 10)])
            .unwrap();
        assert!(!absorbed.sealed);
        assert_eq!(absorbed.num_shards, 3);
        let opened = engine.cache_stats();
        assert_eq!(opened.publish.entries_built, 9);
        assert_eq!(opened.publish.warms, 3);
        assert_eq!(opened.per_shard[2].resident_indexes, 3, "{opened:?}");
        check_tail(&engine, "opened");
    }
}
