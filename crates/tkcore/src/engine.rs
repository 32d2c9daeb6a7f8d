//! Engine configuration, cache counters and the batch fan-out helpers of
//! [`crate::ShardedEngine`] — the crate's one query engine.
//!
//! The paper's framework splits a time-range temporal k-core query into a
//! CoreTime precomputation (the [`crate::EdgeCoreSkyline`], Definitions
//! 4–5) and a result-size-bounded enumeration.  An index built for a range
//! `R` answers *every* query over a sub-range `r ⊆ R` by restriction
//! ([`crate::EdgeCoreSkyline::restrict`]), which is what the engine's
//! skyline caches exploit; an unsharded engine is simply a
//! [`crate::ShardPlan::Span`] engine whose one shard covers the whole
//! timeline.
//!
//! Batching fans across the engine's persistent [`ExecPool`]: workers claim
//! query indexes from a shared counter and the calling thread participates,
//! so nested batches (a service request fanning a sweep on the same pool)
//! never deadlock.  The pool is created lazily on the first multi-threaded
//! batch, or injected by [`crate::CoreService`] so the serving layer and the
//! engine share one set of threads.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use crate::error::TkError;
use crate::exec::{run_batch_inner, ExecPool};
use crate::ingest::SealPolicy;
use crate::query::{QueryStats, TimeRangeKCoreQuery};
use crate::request::QueryRequest;
use crate::sink::ResultSink;
use temporal_graph::TemporalGraph;

/// Tuning knobs of a [`crate::ShardedEngine`].
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Maximum summed [`crate::EdgeCoreSkyline::memory_bytes`] of cached
    /// shard skylines before least-recently-used entries are evicted.  The
    /// entry being inserted is exempt, so one oversized index never
    /// thrashes.
    pub memory_budget_bytes: usize,
    /// Worker threads for [`crate::ShardedEngine::run_batch`] and for
    /// fanning cold shard builds; `0` means one per available CPU.  The
    /// threads live in a persistent [`ExecPool`] created on the first
    /// multi-threaded batch (the calling thread counts as one of them).
    /// When the engine shares an externally provided pool instead
    /// ([`crate::ShardedEngine::with_pool`], or any engine a
    /// [`crate::CoreService`] starts or adopts), that pool's size governs
    /// and this field is ignored.
    pub num_threads: usize,
    /// Maximum number of cached boundary-stitch entries (one entry per
    /// `(shard range, k)` holding the cut-crossing minimal core windows; see
    /// [`crate::shard`]), evicted least-recently-used.  `0` is treated as
    /// `1`.  A one-shard engine has no cuts and never builds an entry.
    pub boundary_cache_entries: usize,
    /// When the live tail shard is rolled into a closed shard during ingest
    /// (see [`crate::ShardedEngine::absorb`]).
    pub seal_policy: SealPolicy,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            memory_budget_bytes: 256 * 1024 * 1024,
            num_threads: 0,
            boundary_cache_entries: 32,
            seal_policy: SealPolicy::Manual,
        }
    }
}

/// Cache effectiveness counters, readable via
/// [`crate::ShardedEngine::cache_stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from an already-resident skyline.
    pub hits: u64,
    /// Queries that had to build a skyline first.
    pub misses: u64,
    /// Skylines evicted to respect the memory budget.
    pub evictions: u64,
    /// Summed memory estimate of the currently resident skylines.
    pub resident_bytes: usize,
    /// Number of currently resident skylines.
    pub resident_indexes: usize,
    /// Per-shard counters, one entry per shard of the engine's plan, in
    /// timeline order (a single entry for [`crate::ShardPlan::Span`]).
    pub per_shard: Vec<ShardCacheStats>,
    /// Counters of the boundary-stitch index cache (always zero for a
    /// one-shard engine, which has no cuts; see [`crate::shard`]).
    pub boundary: BoundaryCacheStats,
    /// Tail-shard `(shard, k)` skylines dropped by ingest
    /// ([`crate::ShardedEngine::absorb`]): closed-shard skylines are never
    /// invalidated, so this counts exactly the rebuilds ingest can cause.
    pub tail_invalidations: u64,
    /// Boundary-stitch entries whose shard range touches the live tail
    /// dropped by ingest.
    pub boundary_invalidations: u64,
    /// Times the live tail shard was rolled into a closed shard (see
    /// [`SealPolicy`] and [`crate::ShardedEngine::seal_tail`]).
    pub seals: u64,
    /// Warm-path timing, with wall-clock and summed per-entry build times
    /// reported separately: warms fan missing builds across the pool, so
    /// the summed build time can exceed wall time by the parallelism
    /// factor — summing alone would make a parallel warm look slower than
    /// it is.
    pub warm: WarmStats,
}

/// Timing counters of the cache-warming path
/// ([`crate::ShardedEngine::warm`]), reported in [`CacheStats::warm`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmStats {
    /// Warm calls observed.
    pub warms: u64,
    /// Skylines actually built by warm calls; already-resident entries
    /// don't count.
    pub entries_built: u64,
    /// Summed per-entry build time across workers.  Exceeds
    /// [`WarmStats::wall_time`] when a warm overlaps builds on the pool —
    /// compare the two to read off the effective build parallelism.
    pub build_time: Duration,
    /// Wall-clock time spent inside warm calls.
    pub wall_time: Duration,
}

/// Counters of the boundary-stitch index cache of a
/// [`crate::ShardedEngine`]: one LRU-cached entry per `(shard range, k)`
/// holding the cut-crossing minimal core windows of that range's merged
/// window, built on the first boundary-spanning query and reused until
/// evicted (see [`EngineConfig::boundary_cache_entries`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BoundaryCacheStats {
    /// Stitch entries built (one merged-window sweep each).
    pub builds: u64,
    /// Boundary-spanning queries answered from a cached stitch entry.
    pub hits: u64,
    /// Stitch entries evicted to respect the entry budget.
    pub evictions: u64,
    /// Summed memory estimate of the resident stitch entries.
    pub resident_bytes: usize,
    /// Number of resident stitch entries.
    pub resident_entries: usize,
}

/// Cache counters of one time-interval shard (see [`CacheStats::per_shard`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardCacheStats {
    /// Index of the shard in the engine's plan (timeline order).
    pub shard: usize,
    /// Skylines built for this shard (cold misses), over all `k`.
    pub builds: u64,
    /// Queries answered from an already-resident skyline of this shard.
    pub hits: u64,
    /// Summed memory estimate of this shard's resident skylines.
    pub resident_bytes: usize,
    /// Number of this shard's resident skylines (distinct `k` values).
    pub resident_indexes: usize,
}

/// Aggregated outcome of one [`crate::ShardedEngine::run_batch`] call.
///
/// # Example
///
/// ```
/// use tkcore::{paper_example, ShardPlan, ShardedEngine, TimeRangeKCoreQuery};
/// use temporal_graph::TimeWindow;
///
/// // The unsharded engine: one span-wide skyline serves every window of k = 2.
/// let engine = ShardedEngine::new(paper_example::graph(), ShardPlan::Span).unwrap();
/// let queries = [
///     TimeRangeKCoreQuery::new(2, TimeWindow::new(1, 4)).unwrap(),
///     TimeRangeKCoreQuery::new(2, TimeWindow::new(2, 7)).unwrap(),
/// ];
/// let (results, batch) = engine.run_batch(&queries).unwrap();
/// assert_eq!(results[0].0.num_cores, 2); // Figure 2 of the paper
/// assert_eq!(batch.num_queries, 2);
/// assert_eq!(engine.cache_stats().per_shard[0].builds, 1);
/// ```
#[derive(Debug, Clone)]
pub struct BatchStats {
    /// Number of queries executed.
    pub num_queries: usize,
    /// Sum of distinct temporal k-cores over all queries.
    pub total_cores: u64,
    /// Sum of result edges (`|R|`) over all queries.
    pub total_result_edges: u64,
    /// Summed per-query precomputation time (cache lookup + any cold build
    /// + restriction).  Summed across workers, so it can exceed wall time.
    pub precompute_time: Duration,
    /// Summed per-query enumeration time.
    pub enumerate_time: Duration,
    /// Wall-clock time of the whole batch.
    pub wall_time: Duration,
    /// Worker threads used.
    pub threads: usize,
    /// Cache counters at the end of the batch (cumulative for the engine).
    pub cache: CacheStats,
}

/// Validates every query of a batch against `graph` (the same rules as
/// [`crate::ShardedEngine::run_with`]); the first invalid query fails the
/// whole batch before any work starts.
pub(crate) fn validate_batch(
    graph: &TemporalGraph,
    queries: &[TimeRangeKCoreQuery],
) -> Result<Vec<(usize, temporal_graph::TimeWindow)>, TkError> {
    queries
        .iter()
        .map(|query| {
            let range = query.range();
            QueryRequest::single(query.k(), range.start(), range.end())
                .validate(graph)
                .map(|v| (query.k(), v.window()))
        })
        .collect()
}

/// Resolves a configured thread count: `0` means one per available CPU.
pub(crate) fn resolve_threads(configured: usize) -> usize {
    if configured == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        configured
    }
}

/// Resolves a configured thread count (`0` = one per available CPU) against
/// the number of queries to run.
pub(crate) fn effective_threads(configured: usize, num_queries: usize) -> usize {
    resolve_threads(configured).clamp(1, num_queries.max(1))
}

/// Picks the executor for a batch of `num_queries`: the engine's persistent
/// pool (created lazily on the first multi-threaded batch, or injected by a
/// service at construction) plus the calling thread, or the inline
/// single-threaded path.  Returns the thread count to report in
/// [`BatchStats::threads`].
pub(crate) fn batch_executor(
    pool: &OnceLock<Arc<ExecPool>>,
    configured_threads: usize,
    num_queries: usize,
) -> (usize, Option<Arc<ExecPool>>) {
    if let Some(pool) = pool.get() {
        let threads = (pool.num_workers() + 1).min(num_queries.max(1));
        return (threads, Some(Arc::clone(pool)));
    }
    let threads = effective_threads(configured_threads, num_queries);
    if threads <= 1 {
        return (threads, None);
    }
    // The calling thread participates in every batch, so the pool provides
    // the remaining threads.
    let pool = pool.get_or_init(|| ExecPool::new(resolve_threads(configured_threads) - 1));
    (threads, Some(Arc::clone(pool)))
}

/// Fans validated `(k, window)` queries across the persistent pool (plus the
/// calling thread), one fresh sink per query, results back in query order.
/// Workers claim the next query index from a shared atomic counter, so long
/// and short queries balance automatically.  `run` executes one
/// already-validated query.  `pool = None` runs inline on the calling
/// thread only.
pub(crate) fn fan_out_batch<S, F, R>(
    pool: Option<Arc<ExecPool>>,
    validated: Arc<Vec<(usize, temporal_graph::TimeWindow)>>,
    make_sink: F,
    run: R,
) -> Vec<(S, QueryStats)>
where
    S: ResultSink + Send + 'static,
    F: Fn(usize) -> S + Send + Sync + 'static,
    R: Fn(usize, temporal_graph::TimeWindow, &mut dyn ResultSink) -> QueryStats
        + Send
        + Sync
        + 'static,
{
    let len = validated.len();
    run_batch_inner(pool.as_deref(), len, move |i| {
        let (k, window) = validated[i];
        let mut sink = make_sink(i);
        let stats = run(k, window, &mut sink);
        (sink, stats)
    })
}

/// Sums per-query statistics into a [`BatchStats`].
pub(crate) fn aggregate_batch<S>(
    per_query: &[(S, QueryStats)],
    wall_time: Duration,
    threads: usize,
    cache: CacheStats,
) -> BatchStats {
    let mut batch = BatchStats {
        num_queries: per_query.len(),
        total_cores: 0,
        total_result_edges: 0,
        precompute_time: Duration::ZERO,
        enumerate_time: Duration::ZERO,
        wall_time,
        threads,
        cache,
    };
    for (_, stats) in per_query {
        batch.total_cores += stats.num_cores;
        batch.total_result_edges += stats.total_result_edges;
        batch.precompute_time += stats.precompute_time;
        batch.enumerate_time += stats.enumerate_time;
    }
    batch
}

#[cfg(test)]
mod tests {
    //! The unsharded ([`ShardPlan::Span`]) configuration of the engine: one
    //! span-wide skyline per `k`, shared by every window.
    use super::*;
    use crate::paper_example;
    use crate::query::Algorithm;
    use crate::shard::{ShardPlan, ShardedEngine};
    use crate::sink::{CollectingSink, CountingSink};
    use crate::{EdgeCoreSkyline, TkError};
    use temporal_graph::{TemporalGraphBuilder, TimeWindow};

    fn span_engine(g: &TemporalGraph) -> ShardedEngine {
        ShardedEngine::new(g.clone(), ShardPlan::Span).unwrap()
    }

    fn span_engine_with(g: &TemporalGraph, config: EngineConfig) -> ShardedEngine {
        ShardedEngine::with_config(g.clone(), ShardPlan::Span, config).unwrap()
    }

    fn graph() -> TemporalGraph {
        TemporalGraphBuilder::new()
            .with_edges([
                (0u64, 1u64, 1i64),
                (1, 2, 2),
                (0, 2, 3),
                (2, 3, 4),
                (3, 4, 5),
                (2, 4, 6),
                (0, 1, 6),
                (1, 2, 7),
                (0, 2, 7),
            ])
            .build()
            .unwrap()
    }

    fn canonical(mut cores: Vec<crate::TemporalKCore>) -> Vec<crate::TemporalKCore> {
        cores.sort_by(|a, b| a.tti.cmp(&b.tti).then_with(|| a.edges.cmp(&b.edges)));
        cores
    }

    #[test]
    fn cached_answers_match_fresh_for_every_algorithm_and_range() {
        let g = graph();
        let engine = span_engine(&g);
        for k in 1..=3 {
            for range in [
                g.span(),
                TimeWindow::new(2, 6),
                TimeWindow::new(3, 5),
                TimeWindow::new(7, 7),
                TimeWindow::new(1, 200),
            ] {
                let query = TimeRangeKCoreQuery::new(k, range).unwrap();
                for algo in Algorithm::ALL {
                    let mut fresh = CollectingSink::default();
                    query.run_with(&g, algo, &mut fresh);
                    let mut cached = CollectingSink::default();
                    engine.run_with(&query, algo, &mut cached).unwrap();
                    assert_eq!(
                        canonical(cached.cores),
                        canonical(fresh.cores),
                        "k={k} range={range} algo={}",
                        algo.name()
                    );
                }
            }
        }
    }

    #[test]
    fn cache_hits_after_first_query_per_k() {
        let g = graph();
        let engine = span_engine(&g);
        let mut sink = CountingSink::default();
        engine
            .run(
                &TimeRangeKCoreQuery::new(2, TimeWindow::new(2, 5)).unwrap(),
                &mut sink,
            )
            .unwrap();
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 1));
        let mut sink = CountingSink::default();
        engine
            .run(
                &TimeRangeKCoreQuery::new(2, TimeWindow::new(3, 6)).unwrap(),
                &mut sink,
            )
            .unwrap();
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.resident_indexes, 1);
        assert!(stats.resident_bytes > 0);
    }

    #[test]
    fn lru_eviction_respects_budget_and_keeps_newest() {
        let g = graph();
        let one_index_bytes = EdgeCoreSkyline::build(&g, 1, g.span()).memory_bytes();
        let engine = span_engine_with(
            &g,
            EngineConfig {
                memory_budget_bytes: one_index_bytes, // room for ~one index
                num_threads: 1,
                ..EngineConfig::default()
            },
        );
        for k in 1..=3 {
            let mut sink = CountingSink::default();
            engine
                .run(&TimeRangeKCoreQuery::new(k, g.span()).unwrap(), &mut sink)
                .unwrap();
        }
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 3);
        assert!(stats.evictions >= 1, "evictions: {stats:?}");
        assert!(stats.resident_indexes >= 1);
        // The most recent k must have survived.
        assert!(engine.warm(3), "k=3 evicted despite being newest");
    }

    #[test]
    fn out_of_span_queries_are_refused_with_a_typed_error() {
        let g = graph();
        let engine = span_engine(&g);
        let past_the_end =
            TimeRangeKCoreQuery::new(2, TimeWindow::new(g.tmax() + 1, g.tmax() + 9)).unwrap();
        for algo in Algorithm::ALL {
            let mut sink = CountingSink::default();
            let err = engine.run_with(&past_the_end, algo, &mut sink).unwrap_err();
            assert!(
                matches!(err, TkError::WindowPastTmax { start, tmax }
                    if start == g.tmax() + 1 && tmax == g.tmax()),
                "{}: {err}",
                algo.name()
            );
            assert_eq!(sink.num_cores, 0, "{}", algo.name());
        }
        assert_eq!(
            engine.cache_stats().misses,
            0,
            "no index built for refused queries"
        );
        // A batch containing one bad query fails up front, executing nothing.
        let queries = [
            TimeRangeKCoreQuery::new(2, TimeWindow::new(1, 3)).unwrap(),
            past_the_end,
        ];
        assert!(matches!(
            engine.run_batch(&queries),
            Err(TkError::WindowPastTmax { .. })
        ));
        assert_eq!(engine.cache_stats().misses, 0);
    }

    #[test]
    fn batch_matches_sequential_and_aggregates() {
        let g = paper_example::graph();
        let engine = span_engine(&g);
        let queries: Vec<TimeRangeKCoreQuery> = (1..=g.tmax())
            .flat_map(|s| {
                (s..=g.tmax())
                    .map(move |e| TimeRangeKCoreQuery::new(2, TimeWindow::new(s, e)).unwrap())
            })
            .collect();
        // Pre-warm so the miss counter below is deterministic even when the
        // batch fans across several workers (concurrent cold queries for one
        // k may otherwise each count a miss — the documented build race).
        engine.warm(2);
        let (results, batch) = engine.run_batch(&queries).unwrap();
        assert_eq!(results.len(), queries.len());
        assert_eq!(batch.num_queries, queries.len());
        let mut expected_cores = 0u64;
        for (query, (sink, stats)) in queries.iter().zip(&results) {
            let mut fresh = CountingSink::default();
            query.run_with(&g, Algorithm::Enum, &mut fresh);
            assert_eq!(sink.num_cores, fresh.num_cores, "{}", query.range());
            assert_eq!(sink.total_edges, fresh.total_edges, "{}", query.range());
            assert_eq!(stats.num_cores, sink.num_cores);
            expected_cores += fresh.num_cores;
        }
        assert_eq!(batch.total_cores, expected_cores);
        assert_eq!(
            engine.cache_stats().misses,
            1,
            "one span-wide build serves the whole batch"
        );
        assert!(batch.threads >= 1);
    }

    /// A sink that panics mid-stream: the engine must treat the panic as
    /// contained (exec-pool isolation) and every lock it might have been
    /// near must stay usable afterwards.
    struct ExplodingSink;

    impl crate::sink::ResultSink for ExplodingSink {
        fn emit(&mut self, _tti: TimeWindow, _edges: &[temporal_graph::EdgeId]) {
            panic!("sink exploded mid-stream");
        }
    }

    #[test]
    fn a_panicking_sink_does_not_wedge_later_cache_stats_calls() {
        let g = paper_example::graph();
        let engine = span_engine(&g);
        let queries = vec![TimeRangeKCoreQuery::new(2, g.span()).unwrap(); 4];
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.run_batch_with(&queries, Algorithm::Enum, |_| ExplodingSink)
        }));
        assert!(panicked.is_err(), "the sink panic reaches the caller");
        // A panic unwinding with a cache guard held poisons the mutex;
        // stats and fresh queries must still work afterwards.
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 1, "the skyline build survived the panic");
        let mut sink = CountingSink::default();
        engine
            .run(&TimeRangeKCoreQuery::new(2, g.span()).unwrap(), &mut sink)
            .unwrap();
        assert!(sink.num_cores > 0);
    }

    #[test]
    fn a_poisoned_cache_lock_recovers_instead_of_wedging() {
        let g = graph();
        let engine = span_engine(&g);
        engine.warm(2);
        assert!(engine.poison_cache_lock());
        // Every later caller recovers the guard instead of propagating.
        assert_eq!(engine.cache_stats().resident_indexes, 1);
        assert!(engine.warm(2), "cached skyline still resident");
        let mut sink = CountingSink::default();
        engine
            .run(&TimeRangeKCoreQuery::new(2, g.span()).unwrap(), &mut sink)
            .unwrap();
        assert!(sink.num_cores > 0);
    }

    #[test]
    fn batch_with_custom_sinks_and_threads() {
        let g = paper_example::graph();
        let engine = span_engine_with(
            &g,
            EngineConfig {
                num_threads: 3,
                ..EngineConfig::default()
            },
        );
        let queries = vec![TimeRangeKCoreQuery::new(2, g.span()).unwrap(); 7];
        let (results, batch) = engine
            .run_batch_with(&queries, Algorithm::Enum, |i| {
                let mut sink = CollectingSink::default();
                sink.cores.reserve(i); // exercise the index argument
                sink
            })
            .unwrap();
        assert_eq!(batch.threads, 3);
        let first = canonical(results[0].0.cores.clone());
        for (sink, _) in &results {
            assert_eq!(canonical(sink.cores.clone()), first);
        }
    }
}
