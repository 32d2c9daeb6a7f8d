//! # temporal-kcore
//!
//! A Rust implementation of *time-range temporal k-core enumeration*: given
//! a temporal graph (edges carry timestamps), an integer `k` and a query
//! time range, enumerate **every distinct temporal k-core** that appears in
//! the snapshot of **any** sub-window of the range.
//!
//! The library reproduces the framework of *Accelerating K-Core Computation
//! in Temporal Graphs* (EDBT 2026):
//!
//! 1. **CoreTime** — compute the vertex core time index and, as a byproduct,
//!    the minimal core windows (edge core window skyline) of every edge, in
//!    one sweep over start times that rescans a vertex's neighbours only
//!    when its core time rises;
//! 2. **Enum** — enumerate all temporal k-cores directly from the skylines
//!    in time bounded by the total result size, which is optimal.
//!
//! All execution goes through one typed, fallible surface: a
//! [`prelude::QueryRequest`] (single `k`, multi-`k`, or `k`-range sweep,
//! with materialize / count / sample / stream output) validated against the graph and
//! executed either from a [`prelude::ShardedEngine`]'s skyline cache with
//! [`prelude::ShardedEngine::execute`] ([`prelude::ShardPlan::Span`] for one
//! span-wide skyline per `k`), which always runs `Enum`, or per query with
//! any [`prelude::Algorithm`] ([`prelude::QueryRequest::run`]), the
//! reference the engine is tested against.  [`prelude::CoreService`] adds
//! a bounded request queue with admission control on top.  Malformed input
//! returns a structured [`prelude::TkError`], never a panic.
//!
//! # Quick start
//!
//! ```
//! use temporal_kcore::prelude::*;
//!
//! // A temporal graph: (vertex, vertex, timestamp) triples.
//! let graph = TemporalGraphBuilder::new()
//!     .with_edges([
//!         (1u64, 2u64, 1i64),
//!         (2, 3, 2),
//!         (1, 3, 3),
//!         (3, 4, 4),
//!         (4, 5, 5),
//!         (3, 5, 5),
//!     ])
//!     .build()
//!     .unwrap();
//!
//! // All temporal 2-cores appearing in any sub-window of [1, 5].
//! let response = QueryRequest::single(2, 1, 5)
//!     .materialize()
//!     .run(&graph, Algorithm::Enum)
//!     .unwrap();
//! let KOutput::Cores(cores) = &response.outcomes[0].output else { unreachable!() };
//! assert_eq!(cores.len(), 3); // two triangles and their union
//! for core in cores {
//!     println!("TTI {} with {} edges", core.tti, core.num_edges());
//! }
//!
//! // Bad input is a typed error, not a panic.
//! assert!(QueryRequest::single(0, 1, 5).run(&graph, Algorithm::Enum).is_err());
//! ```
//!
//! # Serving
//!
//! [`prelude::TkServer`] puts a std-only TCP front end over a shared
//! [`prelude::CoreService`]: line-delimited JSON, one request per line, one
//! reply line per request.  Each query line may carry a `deadline_ms` and a
//! `lane` (`"interactive"` or `"batch"`); the service refuses
//! already-expired requests at admission, sheds queued requests whose
//! deadline passes with a typed [`prelude::TkError::DeadlineExceeded`]
//! *reply* (the connection stays open), and always dequeues interactive
//! traffic ahead of batch traffic.  A `{"op": "shutdown"}` line drains
//! gracefully: accepting stops, in-flight requests finish, and
//! [`prelude::TkServer::serve`] returns a [`prelude::ServeSummary`].
//!
//! ```no_run
//! use std::sync::Arc;
//! use temporal_kcore::prelude::*;
//! use temporal_kcore::tkcore::paper_example;
//!
//! let service = Arc::new(CoreService::start_sharded(
//!     paper_example::graph(),
//!     ShardPlan::Span,
//!     ServiceConfig::default(),
//! )?);
//! let server = TkServer::bind(service, "127.0.0.1:7411", ServerConfig::default())?;
//! println!("listening on {}", server.local_addr());
//! let summary = server.serve()?; // blocks until a shutdown op drains it
//! println!("served {} requests", summary.requests);
//! # Ok::<(), TkError>(())
//! ```
//!
//! On the command line the same protocol is `tkc serve` / `tkc client`, and
//! `examples/tcp_serving.rs` is the end-to-end walkthrough.
//!
//! See the `examples/` directory for domain-oriented walkthroughs
//! (transaction-ring detection, contact tracing, misinformation bursts) and
//! `crates/bench` for the experiment harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use static_kcore;
pub use temporal_graph;
pub use tkc_datasets as datasets;
pub use tkcore;

/// Convenient re-exports of the types most applications need.
pub mod prelude {
    pub use static_kcore::{CoreDecomposition, StaticGraph};
    pub use temporal_graph::{
        generator, loader, AppendableGraph, TemporalEdge, TemporalGraph, TemporalGraphBuilder,
        TimeWindow, Timestamp, TimestampMode, VertexId,
    };
    pub use tkc_datasets::{
        ArrivalProfile, DatasetProfile, DatasetStats, EventStream, EventStreamConfig,
        OverloadConfig, OverloadRequest, OverloadWorkload, QueryWorkload, WorkloadConfig,
    };
    pub use tkcore::{
        AbsorbStats, Algorithm, BoundaryCacheStats, CacheStats, CollectingSink, CoreService,
        CountingSink, EdgeCoreSkyline, EngineConfig, FrameworkStats, IngestDelta, IngestEvent,
        IngestLaneStats, IngestReply, IngestTicket, KOutcome, KOutput, KSelection, Lane, LaneStats,
        LatencyHistogram, OutputMode, QueryRequest, QueryResponse, QueryStats, RequestId,
        ResultSink, SamplingSink, SealPolicy, ServeSummary, ServerConfig, ServiceConfig,
        ServiceReply, ServiceStats, ShardCacheStats, ShardPlan, ShardedEngine, SizeSink,
        SubmitOptions, TemporalKCore, Ticket, TimeRangeKCoreQuery, TkError, TkServer,
        ValidatedRequest, VertexCoreTimeIndex, WarmStats, WindowView, WorkerStats,
    };
}
