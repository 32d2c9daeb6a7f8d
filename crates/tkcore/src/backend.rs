//! Pluggable query execution: the [`CoreBackend`] trait.
//!
//! The repository historically exposed parallel entry points — free
//! functions per algorithm, [`crate::TimeRangeKCoreQuery`] methods, and the
//! cached engine — each with its own calling convention.  `CoreBackend`
//! unifies them behind one fallible seam: *something that can execute a
//! validated `(k, window)` query against a graph, streaming cores into a
//! sink*.  Callers and tests select execution by value instead of
//! match-dispatching free functions:
//!
//! * every [`Algorithm`] variant is itself a backend (`Enum`, `EnumBase`,
//!   `Otcd`, `Naive`) that builds whatever per-query state it needs;
//! * [`crate::ShardedBackend`] wraps a shared [`crate::ShardedEngine`] so the
//!   same call shape answers from the engine's per-`(shard, k)` skyline
//!   cache, with exact stitching at shard boundaries (see [`crate::shard`]);
//!   over [`crate::ShardPlan::Span`] that is one span-wide skyline per `k`.
//!
//! [`crate::QueryRequest`] drives a backend for multi-`k` and `k`-range
//! requests; [`crate::CoreService`] puts a queue in front of one.

use crate::error::TkError;
use crate::query::{Algorithm, QueryStats, TimeRangeKCoreQuery};
use crate::sink::ResultSink;
use temporal_graph::{TemporalGraph, TimeWindow};

/// A query executor: runs one `(k, window)` time-range temporal k-core query
/// against a graph, streaming every distinct core into `sink`.
///
/// Implementations validate their inputs and return a typed [`TkError`]
/// instead of panicking: `k == 0` is [`TkError::KOutOfRange`] and a window
/// starting past the graph's last timestamp is [`TkError::WindowPastTmax`].
/// Windows overhanging the end of the span are clamped, matching the
/// semantics of [`crate::QueryRequest::validate`].
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use tkcore::{paper_example, Algorithm, CoreBackend, CountingSink, ShardPlan, ShardedBackend, ShardedEngine};
/// use temporal_graph::TimeWindow;
///
/// let engine = Arc::new(ShardedEngine::new(paper_example::graph(), ShardPlan::Span).unwrap());
/// let graph = engine.graph();
/// let cached = ShardedBackend::new(Arc::clone(&engine));
/// for backend in [&cached as &dyn CoreBackend, &Algorithm::Enum] {
///     let mut sink = CountingSink::default();
///     let stats = backend
///         .execute(&graph, 2, TimeWindow::new(1, 4), &mut sink)
///         .unwrap();
///     assert_eq!(stats.num_cores, 2); // Figure 2 of the paper
/// }
/// // Only the engine-backed backend builds (and keeps) a skyline.
/// assert_eq!(engine.cache_stats().misses, 1);
/// ```
pub trait CoreBackend {
    /// Short human-readable name for reports and error messages.
    fn name(&self) -> &str;

    /// Executes the query, returning per-phase statistics.
    ///
    /// # Errors
    /// [`TkError::KOutOfRange`] for `k == 0`; [`TkError::WindowPastTmax`]
    /// when `window` starts after `graph.tmax()`; backend-specific errors
    /// such as [`TkError::GraphMismatch`] for [`crate::ShardedBackend`].
    fn execute(
        &self,
        graph: &TemporalGraph,
        k: usize,
        window: TimeWindow,
        sink: &mut dyn ResultSink,
    ) -> Result<QueryStats, TkError>;
}

/// Validates `(k, window)` against `graph` and returns the window clamped to
/// the graph span — the shared admission rule of every backend.
pub(crate) fn validate_query(
    graph: &TemporalGraph,
    k: usize,
    window: TimeWindow,
) -> Result<TimeWindow, TkError> {
    if k == 0 {
        return Err(TkError::KOutOfRange { k });
    }
    // A constructed graph always has at least one edge, so tmax() >= 1;
    // the max(1) below only guards the TimeWindow invariant.
    let tmax = graph.tmax();
    if window.start() > tmax.max(1) {
        return Err(TkError::WindowPastTmax {
            start: window.start(),
            tmax,
        });
    }
    Ok(TimeWindow::new(
        window.start(),
        window.end().min(tmax.max(1)),
    ))
}

/// The graph-identity rule of the engine-backed [`crate::ShardedBackend`]:
/// pointer equality is the O(1) fast path, an equal clone is also accepted
/// at O(|E|) comparison cost.
pub(crate) fn graph_matches(own: &TemporalGraph, other: &TemporalGraph) -> bool {
    std::ptr::eq(own, other)
        || (own.num_vertices() == other.num_vertices()
            && own.num_edges() == other.num_edges()
            && own.tmax() == other.tmax()
            && own.edges() == other.edges())
}

impl CoreBackend for Algorithm {
    fn name(&self) -> &str {
        Algorithm::name(self)
    }

    fn execute(
        &self,
        graph: &TemporalGraph,
        k: usize,
        window: TimeWindow,
        sink: &mut dyn ResultSink,
    ) -> Result<QueryStats, TkError> {
        let clamped = validate_query(graph, k, window)?;
        Ok(TimeRangeKCoreQuery::validated(k, clamped).run_with(graph, *self, sink))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example;
    use crate::shard::{ShardPlan, ShardedBackend, ShardedEngine};
    use crate::sink::{CollectingSink, CountingSink};
    use crate::TemporalKCore;
    use std::sync::Arc;

    fn canonical(mut cores: Vec<TemporalKCore>) -> Vec<TemporalKCore> {
        cores.sort_by(|a, b| a.tti.cmp(&b.tti).then_with(|| a.edges.cmp(&b.edges)));
        cores
    }

    #[test]
    fn every_algorithm_backend_matches_naive_on_the_paper_example() {
        let g = paper_example::graph();
        let expected = crate::naive::naive_results(&g, 2, paper_example::full_range());
        for algo in Algorithm::ALL {
            let mut sink = CollectingSink::default();
            let stats = algo
                .execute(&g, 2, paper_example::full_range(), &mut sink)
                .unwrap();
            assert_eq!(stats.num_cores as usize, expected.len(), "{algo}");
            assert_eq!(canonical(sink.cores), expected, "{algo}");
        }
    }

    #[test]
    fn backends_reject_malformed_input_with_typed_errors() {
        let g = paper_example::graph();
        let mut sink = CountingSink::default();
        assert!(matches!(
            Algorithm::Enum.execute(&g, 0, paper_example::full_range(), &mut sink),
            Err(TkError::KOutOfRange { k: 0 })
        ));
        let past = TimeWindow::new(g.tmax() + 1, g.tmax() + 5);
        assert!(matches!(
            Algorithm::Otcd.execute(&g, 2, past, &mut sink),
            Err(TkError::WindowPastTmax { .. })
        ));
    }

    #[test]
    fn overhanging_windows_are_clamped_not_rejected() {
        let g = paper_example::graph();
        let mut overhang = CountingSink::default();
        let stats = Algorithm::Enum
            .execute(&g, 2, TimeWindow::new(1, 500), &mut overhang)
            .unwrap();
        let mut exact = CountingSink::default();
        Algorithm::Enum
            .execute(&g, 2, paper_example::full_range(), &mut exact)
            .unwrap();
        assert_eq!(overhang, exact);
        assert_eq!(stats.num_cores, exact.num_cores);
    }

    #[test]
    fn cached_backend_matches_direct_execution_and_caches() {
        let engine = Arc::new(ShardedEngine::new(paper_example::graph(), ShardPlan::Span).unwrap());
        let g = engine.graph();
        let backend = ShardedBackend::new(Arc::clone(&engine));
        for window in [
            paper_example::example_query_range(),
            paper_example::full_range(),
        ] {
            let mut cached = CollectingSink::default();
            backend.execute(&g, 2, window, &mut cached).unwrap();
            let mut direct = CollectingSink::default();
            Algorithm::Enum.execute(&g, 2, window, &mut direct).unwrap();
            assert_eq!(canonical(cached.cores), canonical(direct.cores), "{window}");
        }
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 1, "one span-wide build for both windows");
        assert!(stats.hits >= 1);
    }

    #[test]
    fn cached_backend_refuses_a_foreign_graph() {
        let engine = Arc::new(ShardedEngine::new(paper_example::graph(), ShardPlan::Span).unwrap());
        let backend = ShardedBackend::new(engine);
        let other = temporal_graph::TemporalGraphBuilder::new()
            .with_edges([(0u64, 1u64, 1i64), (1, 2, 2), (0, 2, 2)])
            .build()
            .unwrap();
        let mut sink = CountingSink::default();
        assert!(matches!(
            backend.execute(&other, 2, TimeWindow::new(1, 2), &mut sink),
            Err(TkError::GraphMismatch)
        ));
    }
}
