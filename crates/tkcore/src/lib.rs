//! Time-range temporal k-core enumeration.
//!
//! This crate implements the framework of *Accelerating K-Core Computation
//! in Temporal Graphs* (EDBT 2026): given a temporal graph, an integer `k`
//! and a query time range `[Ts, Te]`, enumerate every distinct temporal
//! k-core appearing in the snapshot of any sub-window `[ts, te] ⊆ [Ts, Te]`.
//!
//! # The unified query surface
//!
//! All execution goes through three pieces:
//!
//! * [`QueryRequest`] — a typed, fallible request builder covering the
//!   paper's single-`k` query plus multi-`k` sets and `k`-range sweeps,
//!   crossed with an [`OutputMode`] (materialize / count / capped sample /
//!   stream).
//!   [`QueryRequest::validate`] turns malformed input into a structured
//!   [`TkError`] instead of a panic;
//! * [`ShardedEngine::execute`] (or [`ShardedEngine::execute_batch`] for
//!   many) runs one: every `k` is answered by the paper's `Enum` over the
//!   engine's skyline cache, so repeated and swept queries build each
//!   index at most once.  The engine runs nothing else.  The baselines are
//!   per-query references: [`QueryRequest::run`] executes a request per
//!   query with an [`Algorithm`] (`Enum`, `EnumBase`, `Otcd`, `Naive`),
//!   and the engine is tested against each of them;
//! * [`CoreService`] — a thread-backed serving front end with a bounded
//!   request queue, [`ServiceConfig::workers`] execution slots, admission
//!   control ([`TkError::BudgetExceeded`]), and per-request [`RequestId`] +
//!   latency accounting.  It serves only `Enum`: a request naming a
//!   baseline in [`SubmitOptions::algorithm`] is refused with
//!   [`TkError::UnsupportedAlgorithm`].
//!
//! # Execution model
//!
//! All parallelism runs on one primitive: [`exec::ExecPool`], a
//! **persistent pool** of named OS threads over one shared FIFO, with one
//! execution **slot** per thread.  Pool tasks and callers that claim a
//! slot share those slots, so they never run more pieces of work at once
//! than the pool has threads.  Nothing in the crate spawns transient
//! per-call threads:
//!
//! * [`ShardedEngine::execute_batch`] fans every `(request, k)` unit of a
//!   batch across the spare slots of the engine's pool — created lazily on
//!   the first multi-threaded batch ([`EngineConfig::num_threads`]), or
//!   adopted from a [`CoreService`]; the calling thread counts as one of
//!   them and participates in every batch (alone when no slot is spare),
//!   so nested fan-out never deadlocks;
//! * [`CoreService`] owns a pool of [`ServiceConfig::workers`] slots and
//!   keeps **one two-priority queue** of admitted requests.
//!   [`CoreService::call`] runs a request on the calling thread when no
//!   request waits and a slot is spare — its `k` units stay on that
//!   thread — and queues it otherwise.  Each queued request spawns one
//!   pool task, which runs the oldest waiting interactive request, else
//!   the oldest batch one, on whichever worker gets a slot.  The skyline
//!   cache (shard skylines and stitch entries alike) is engine-wide, so
//!   every slot is an equally good home for every request.  An engine
//!   created by [`CoreService::start_sharded`] (or adopted by
//!   [`CoreService::over_sharded`]) shares the service's pool, so a queued
//!   multi-`k` sweep and a cold build fan out into the same slots that
//!   serve requests;
//! * a panicking request (e.g. a panicking streaming sink) is caught where
//!   it runs: the reply is [`TkError::WorkerPanicked`], the thread and its
//!   slot survive, and [`ServiceStats`] — including the per-slot
//!   [`LatencyHistogram`]s — stays intact;
//! * boundary-spanning queries reuse a small LRU-cached
//!   **boundary-stitch index** (the cut-crossing minimal core windows per
//!   `(shard range, k)`, see [`shard`]) instead of re-sweeping a merged
//!   sub-window skyline per query; its entries share the skyline cache and
//!   its lock, and its counters appear in [`CacheStats::boundary`].
//!
//! # Sharding
//!
//! There is one query engine, [`ShardedEngine`].  It partitions the
//! timeline into contiguous time-interval shards ([`ShardPlan`]) and caches
//! one [`EdgeCoreSkyline`] per `(shard, k)` lazily under one memory budget,
//! in one LRU cache keyed by shard range that also holds the stitch entries
//! below; [`ShardedEngine::execute`] is its request entry point.
//! [`ShardPlan::Span`] is the unsharded layout — one shard, one span-wide
//! skyline per `k` sliced to every query window — and finer plans bound
//! the resident cache and cold builds by the largest shard instead.
//!
//! Answers stay **exact** at shard boundaries.  A query is answered by one
//! enumeration over the skyline of its window `W`.  Minimality of a core
//! window is a property of the graph alone, so that skyline is the disjoint
//! union of the windows fitting inside one shard's slice of `W` — slices
//! of the cached shard skylines — and the windows crossing a shard cut,
//! which per-shard skylines drop and a small cached stitch index supplies.
//! A [`WindowView`] merges both per edge as the enumerator reads it, with
//! no copy, so every core is emitted exactly once, in the order a fresh
//! build for `W` would produce; the stack model (`tests/stack_model.rs`)
//! asserts this for random graphs, plans and interleaved appends against
//! the naive oracle, in process and over TCP.
//!
//! # Live ingestion
//!
//! The sharded stack is **appendable**: the last shard of the plan is a
//! live tail that [`ShardedEngine::absorb`] grows with batches of
//! time-ordered events (through a
//! [`temporal_graph::AppendableGraph`], which rejects out-of-order and
//! duplicate events with typed errors and publishes each batch as one
//! atomic `Arc`-swapped snapshot).  The maintenance is **incremental**:
//!
//! * an absorb replaces only the tail-touching entries (counted in
//!   [`CacheStats::tail_invalidations`] /
//!   [`CacheStats::boundary_invalidations`]), rebuilt against the new
//!   snapshot before it is published, so the first query of the new epoch
//!   hits ([`CacheStats::publish`]); **closed-shard skylines stay resident
//!   and valid**, since appends land strictly past the seal watermark;
//! * a [`SealPolicy`] (`EdgeCount`, `SpanWidth`, or `Manual` via
//!   [`ShardedEngine::seal_tail`]) rolls the live tail into a closed shard
//!   ([`CacheStats::seals`]), and the next batch opens a fresh tail;
//! * queries capture one immutable live view at entry, so a query racing
//!   an absorb observes either none of the batch or all of it — ingestion
//!   and queries serialize only at the snapshot swap;
//! * [`CoreService::submit_append`] queues batches on the service's
//!   **ingest lane** (same admission control as queries, absorbed on the
//!   next free worker, broken out in [`ServiceStats::ingest`]), and the
//!   `tkc ingest` CLI command drives file/stdin event streams through it.
//!
//! # Serving
//!
//! [`server::TkServer`] puts a std-only TCP front end on the service: a
//! line-delimited JSON protocol (one request per line, one reply line per
//! request; see [`wire`] for the field-level spec) decoded into the same
//! [`QueryRequest`] surface and run through [`CoreService::call`] (on the
//! connection's own thread when no request waits and a service slot is
//! spare, else queued).  Three serving policies compose on top of
//! the existing queue-depth and memory admission gates:
//!
//! * **priority lanes** — every request queues in a [`Lane`]
//!   (`interactive` or `batch`); workers always dequeue waiting
//!   interactive requests first, so under pressure batch traffic absorbs
//!   the queueing delay.  [`ServiceStats::per_lane`] breaks
//!   admitted/completed/shed/rejected out per lane, summing to the
//!   service-wide totals (ingest batches account under `batch`);
//! * **deadlines** — a request may carry a relative deadline
//!   ([`SubmitOptions::deadline`], `"deadline_ms"` on the wire).  It is
//!   checked twice and never interrupts execution: an already-expired
//!   (zero) deadline is refused at admission, and a request whose deadline
//!   passes while queued is **shed** at dequeue with
//!   [`TkError::DeadlineExceeded`] — the worker moves on instead of
//!   computing an answer nobody is waiting for.  Shed and refused requests
//!   are error *replies*, not closed connections, so clients can tell
//!   backpressure ([`TkError::BudgetExceeded`]) from timeout shedding;
//! * **graceful drain** — a `{"op": "shutdown"}` line stops the acceptor;
//!   [`server::TkServer::serve`] finishes every in-flight connection
//!   before returning, and dropping the [`CoreService`] afterwards waits
//!   out the request queue ([`CoreService::shutdown`] followed by the
//!   implicit drop is idempotent).
//!
//! # Example
//!
//! ```
//! use tkcore::{paper_example, Algorithm, KOutput, QueryRequest};
//!
//! let graph = paper_example::graph();
//! // The paper's query: all temporal 2-cores in any sub-window of [1, 4].
//! let response = QueryRequest::single(2, 1, 4)
//!     .materialize()
//!     .run(&graph, Algorithm::Enum)
//!     .unwrap();
//! let KOutput::Cores(cores) = &response.outcomes[0].output else { unreachable!() };
//! assert_eq!(cores.len(), 2); // Figure 2 of the paper
//! ```
//!
//! A `k`-range sweep served from the cache, one skyline build per `k`:
//!
//! ```
//! use tkcore::{paper_example, QueryRequest, ShardPlan, ShardedEngine};
//!
//! let engine = ShardedEngine::new(paper_example::graph(), ShardPlan::Span).unwrap();
//! let response = engine.execute(QueryRequest::sweep(1..=3, 1, 7)).unwrap();
//! assert_eq!(response.outcomes.len(), 3);           // per-k stats
//! assert_eq!(engine.cache_stats().misses, 3);       // ≤ 1 build per k
//! ```
//!
//! # Algorithmic components
//!
//! * [`VertexCoreTimeIndex`] / [`CoreTimeSweep`] — vertex core times
//!   (Definition 4) computed with an incremental start-time sweep;
//! * [`EdgeCoreSkyline`] — minimal core windows of every edge (Definition 5,
//!   Algorithm 2), obtained as a byproduct of the sweep;
//! * [`enumerate`] — the paper's final algorithm (Algorithms 4–5), which
//!   enumerates all temporal k-cores in time bounded by the result size;
//! * [`enumerate_base`] — the simpler Algorithm 3 baseline on the same
//!   framework;
//! * [`run_otcd`] — the OTCD state-of-the-art competitor (Algorithm 1);
//! * [`naive_results`] — a brute-force reference used for testing;
//! * [`ShardedEngine`] — the cached query engine underneath
//!   [`CoreService`].
//!
//! The pre-redesign entry points `TimeRangeKCoreQuery::{enumerate, count}`
//! (deprecated since the PR 2 API redesign) have been removed; see
//! `CHANGES.md` for the migration table.
//!
//! # Data layout
//!
//! [`EdgeCoreSkyline`] stores every edge's minimal core windows in one
//! CSR-style pair of arrays: a flat `Vec<TimeWindow>` holding all windows
//! back to back in edge order, and a `Vec<u32>` offset array with one
//! cumulative entry per covered edge (plus a trailing sentinel), so edge
//! `i`'s skyline is the contiguous slice `flat[offsets[i]..offsets[i+1]]`.
//! Two consequences the query path relies on:
//!
//! * **views, not copies** — a query never copies a cached skyline: a
//!   [`WindowView`] borrows the skylines a window reads and slices each
//!   edge's run on demand (two binary searches per slice, merged by start
//!   time), and [`enumerate`] keeps the window records it builds from
//!   the view in flat arrays: one count per end time and a bitset of the
//!   non-empty ones, so counts and samples never list an edge.  Callers that
//!   want a skyline of their own ([`EdgeCoreSkyline::restrict`])
//!   materialise a view into buffers from a [`SkylineScratch`] pool.
//! * **`u32` offsets** — window counts are bounded by `|ECS|`, which the
//!   paper's datasets keep far below `u32::MAX`, and halving the offset
//!   width keeps the entire offset array of a typical shard inside a few
//!   cache lines ([`EdgeCoreSkyline::build_from_sweep`] asserts the bound
//!   rather than silently truncating).
//!
//! # Workspace invariants
//!
//! The concurrency and error-handling guarantees above are invariants of
//! *convention*, so the workspace machine-checks them on every PR with
//! `tkc-lint` (`cargo run -p tkc-lint -- --deny`; see `crates/lint/README.md`
//! for rule rationale and the suppression-pragma syntax):
//!
//! * **no-raw-threads** — all fan-out goes through [`exec::ExecPool`];
//!   `thread::{spawn, scope, Builder}` appears only in `exec.rs`.  This is
//!   what makes panic isolation, nested-batch deadlock freedom and the
//!   service's lane accounting hold everywhere by construction.
//! * **poison-safe-locks** — library code never calls `.lock().unwrap()`;
//!   it recovers poisoned mutexes with [`sync::lock`] /​ [`sync::wait`], so
//!   one contained panic (always possible: sinks are user code) cannot wedge
//!   every later caller of a shared cache or stats lock.
//! * **no-panic-api** — non-test `tkcore` / `temporal-graph` code returns
//!   [`TkError`] on public paths; every intentional `unwrap` / `expect` /
//!   `unreachable!` carries an inline pragma stating why it cannot fire.
//! * **lock-order** — the nested-lock acquisition graph over named lock
//!   sites stays acyclic, ruling out ABBA deadlocks between the engine,
//!   shard and service mutexes.
//! * **no-println** — library crates return data; stdout/stderr belong to
//!   the CLI and bench binaries.
//! * **forbid-unsafe** — every non-compat crate root carries
//!   `#![forbid(unsafe_code)]`, uniformly and enforced.
//!
//! ## Interprocedural invariants
//!
//! Three rules run over a workspace-wide symbol table and call graph
//! (suffix-resolved; `cargo run -p tkc-lint -- --graph` prints the
//! resolution statistics):
//!
//! * **lock-order-global** — held-lock propagation across calls: a fn
//!   holding lock A that calls a fn which (transitively) acquires lock B
//!   contributes the edge A→B, and the combined workspace graph stays
//!   acyclic.  This is what rules out the composed deadlocks no single
//!   function exhibits — e.g. a service path holding a cache lock while
//!   calling into shard code that takes the stats lock, composed with the
//!   reverse order elsewhere.
//! * **no-blocking-in-worker** — no fn reachable from a closure handed to
//!   [`exec::ExecPool::spawn`] / `run_batch` blocks
//!   (`Ticket::wait`, `Condvar::wait`, `JoinHandle::join`,
//!   [`sync::wait`]): a worker waiting on work only another worker can
//!   finish deadlocks the pool.  The two sanctioned waits in `exec.rs`
//!   (the idle scheduler loop; the claim-alongside-helpers batch join)
//!   carry pragmas explaining why they cannot.
//! * **hot-path-alloc** — fns marked `// tkc-lint: hot` (the CoreTime
//!   sweep's [`CoreTimeSweep::advance`], [`EdgeCoreSkyline::windows`], and
//!   the [`WindowView`]'s per-edge slice-and-merge) and everything uniquely
//!   reachable from them within `tkcore` allocate nothing per call: a view
//!   slices borrowed skylines and never copies them (see *Data layout*
//!   above).  Skyline *construction* (`EdgeCoreSkyline::build` /
//!   `build_from_sweep`) is deliberately not seeded: it runs once per
//!   `(k, shard)` and is amortised by the skyline caches, so its
//!   allocations are build-time, not per-query.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod ecs;
pub mod engine;
mod enum_base;
mod enumerate;
mod error;
pub mod exec;
pub mod ingest;
pub mod naive;
mod otcd;
pub mod paper_example;
mod plan;
mod query;
mod request;
mod result;
pub mod server;
pub mod service;
pub mod shard;
mod sink;
mod stats;
pub mod sync;
mod vct;
pub mod wire;

pub use ecs::{EdgeCoreSkyline, SkylineScratch, WindowView};
pub use engine::{BoundaryCacheStats, CacheStats, EngineConfig, ShardCacheStats, WarmStats};
pub use enum_base::{enumerate_base, enumerate_base_from_graph, EnumBaseStats};
pub use enumerate::{enumerate, enumerate_from_graph, EnumStats};
pub use error::TkError;
pub use exec::ExecPool;
pub use ingest::{AbsorbStats, IngestEvent, SealPolicy};
pub use naive::{core_edges_of_window, enumerate_naive, naive_results};
pub use otcd::{run_otcd, OtcdStats};
pub use query::{Algorithm, QueryStats, TimeRangeKCoreQuery};
pub use request::{
    KOutcome, KOutput, KSelection, OutputMode, QueryRequest, QueryResponse, ValidatedRequest,
};
pub use result::TemporalKCore;
pub use server::{ServeSummary, ServerConfig, TkServer};
pub use service::{
    CoreService, IngestLaneStats, IngestReply, IngestTicket, Lane, LaneStats, LatencyHistogram,
    RequestId, ServiceConfig, ServiceReply, ServiceStats, SubmitOptions, Ticket, WorkerStats,
};
pub use shard::{ShardPlan, ShardedEngine};
pub use sink::{CollectingSink, CountingSink, FnSink, ResultSink, SamplingSink, SizeSink};
pub use stats::{FrameworkStats, IngestDelta, ShardProfile};
pub use vct::{CoreTimeSweep, VertexCoreTimeIndex};
