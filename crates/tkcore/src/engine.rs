//! Engine configuration and cache counters of [`crate::ShardedEngine`] —
//! the crate's one query engine.
//!
//! The paper's framework splits a time-range temporal k-core query into a
//! CoreTime precomputation (the [`crate::EdgeCoreSkyline`], Definitions
//! 4–5) and a result-size-bounded enumeration.  Minimality of a core window
//! is a property of the graph alone, so the engine caches one skyline per
//! shard and `k` and reads any query window's skyline off them in place,
//! through a [`crate::WindowView`]; an unsharded engine is simply a
//! [`crate::ShardPlan::Span`] engine whose one shard covers the whole
//! timeline.
//!
//! An engine owns no threads.  On its own it runs every batch, warm and
//! absorb rebuild on the calling thread; served by a [`crate::CoreService`]
//! it fans them into the service's worker slots, the calling thread
//! participating, so nested batches (a service request fanning a sweep on
//! the same slots) never deadlock.

use std::time::Duration;

use crate::ingest::SealPolicy;

/// Tuning knobs of a [`crate::ShardedEngine`].
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Maximum summed [`crate::EdgeCoreSkyline::memory_bytes`] of cached
    /// shard skylines before least-recently-used shard skylines are
    /// evicted.  Stitch entries do not count against it (see
    /// [`EngineConfig::boundary_cache_entries`]).  The entry being inserted
    /// is exempt, so one oversized index never thrashes.
    pub memory_budget_bytes: usize,
    /// Maximum number of cached boundary-stitch entries (one entry per
    /// `(shard range, k)` holding the cut-crossing minimal core windows; see
    /// [`crate::shard`]), evicted least-recently-used.  They share the
    /// engine's one skyline cache with the shard skylines, but only evict
    /// each other.  `0` is treated as `1`.  A one-shard engine has no cuts
    /// and never builds an entry.
    pub boundary_cache_entries: usize,
    /// When the live tail shard is rolled into a closed shard during ingest
    /// (see [`crate::ShardedEngine::absorb`]).
    pub seal_policy: SealPolicy,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            memory_budget_bytes: 256 * 1024 * 1024,
            boundary_cache_entries: 32,
            seal_policy: SealPolicy::Manual,
        }
    }
}

/// Cache effectiveness counters, readable via
/// [`crate::ShardedEngine::cache_stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Shard-skyline lookups answered from a resident skyline.  A query
    /// looks up one skyline per overlapped shard and `k`, so a query
    /// spanning two shards counts two.
    pub hits: u64,
    /// Shard-skyline lookups that found no valid resident skyline, so the
    /// skyline had to be built (counted like [`CacheStats::hits`]).
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
    /// Tail-shard `(shard, k)` skylines an absorb
    /// ([`crate::ShardedEngine::absorb`]) purged: closed-shard skylines are
    /// never invalidated, so this counts exactly the rebuilds ingest can
    /// cause.  The absorb makes those rebuilds itself and books them in
    /// [`CacheStats::publish`].  A query still building against an older
    /// snapshot when an absorb lands keeps its build, which the cache then
    /// refuses: that counts nothing here and no build.
    pub tail_invalidations: u64,
    /// Boundary-stitch entries whose shard range touches the live tail that
    /// an absorb purged; a refused stale build counts nothing here either.
    pub boundary_invalidations: u64,
    /// Times the live tail shard was rolled into a closed shard (see
    /// [`SealPolicy`] and [`crate::ShardedEngine::seal_tail`]).
    pub seals: u64,
    /// Warm-path timing, with wall-clock and summed per-entry build times
    /// reported separately: a served engine's warms fan missing builds
    /// across the service's slots, so the summed build time can exceed wall
    /// time by the parallelism factor — summing alone would make a parallel
    /// warm look slower than it is.
    pub warm: WarmStats,
    /// Absorb-path builds: the tail skylines and tail-touching stitch
    /// entries each [`crate::ShardedEngine::absorb`] rebuilds against its
    /// new snapshot before publishing it, so no query pays for them.  Here
    /// `warms` counts the absorbs that rebuilt at least one entry, and the
    /// builds are *not* counted in [`ShardCacheStats::builds`] or
    /// [`BoundaryCacheStats::builds`], which stay query-path only.
    pub publish: WarmStats,
}

/// Timing counters of a cache-warming path: explicit warm calls
/// ([`crate::ShardedEngine::warm`], reported in [`CacheStats::warm`]) or
/// the rebuilds an absorb publishes ([`CacheStats::publish`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmStats {
    /// Warm calls (or warm-publishing absorbs) observed.
    pub warms: u64,
    /// Skylines and stitch entries actually built; already-resident
    /// entries don't count.
    pub entries_built: u64,
    /// Summed per-entry build time across workers.  Exceeds
    /// [`WarmStats::wall_time`] when a warm overlaps builds on several
    /// slots — compare the two to read off the effective build parallelism.
    pub build_time: Duration,
    /// Wall-clock time spent building.
    pub wall_time: Duration,
}

/// Counters of the boundary-stitch index cache of a
/// [`crate::ShardedEngine`]: one LRU-cached entry per `(shard range, k)`
/// holding the cut-crossing minimal core windows of that range's merged
/// window, built on the first boundary-spanning query and reused until
/// evicted (see [`EngineConfig::boundary_cache_entries`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BoundaryCacheStats {
    /// Stitch entries built on the query path (one merged-window sweep
    /// each); absorb-path rebuilds are booked in [`CacheStats::publish`].
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
    /// Skylines built for this shard on the query path (cold misses and
    /// [`crate::ShardedEngine::warm`] calls), over all `k`.  The rebuilds
    /// an absorb publishes are booked in [`CacheStats::publish`] instead.
    pub builds: u64,
    /// Queries answered from an already-resident skyline of this shard.
    pub hits: u64,
    /// Summed memory estimate of this shard's resident skylines.
    pub resident_bytes: usize,
    /// Number of this shard's resident skylines (distinct `k` values).
    pub resident_indexes: usize,
}

#[cfg(test)]
mod tests {
    //! The unsharded ([`ShardPlan::Span`]) configuration of the engine: one
    //! span-wide skyline per `k`, shared by every window.
    use super::*;
    use crate::paper_example;
    use crate::query::{Algorithm, TimeRangeKCoreQuery};
    use crate::request::{KOutput, QueryRequest, QueryResponse};
    use crate::shard::{ShardPlan, ShardedEngine};
    use crate::sink::{CollectingSink, CountingSink};
    use crate::{EdgeCoreSkyline, TkError};
    use temporal_graph::{TemporalGraph, TemporalGraphBuilder, TimeWindow};

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

    /// The materialized cores of a single-`k` response, in canonical order.
    fn cores(response: &QueryResponse) -> &[crate::TemporalKCore] {
        let KOutput::Cores(cores) = &response.outcomes[0].output else {
            panic!("materialized request");
        };
        cores
    }

    /// The counts of a single-`k` count response.
    fn counts(response: &QueryResponse) -> CountingSink {
        let KOutput::Counts(counts) = response.outcomes[0].output else {
            panic!("count request");
        };
        counts
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
                let cached = engine
                    .execute(QueryRequest::from(query).materialize())
                    .unwrap();
                for algo in Algorithm::ALL {
                    let mut fresh = CollectingSink::default();
                    query.run_with(&g, algo, &mut fresh);
                    assert_eq!(
                        cores(&cached),
                        fresh.into_sorted(),
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
        engine.execute(QueryRequest::single(2, 2, 5)).unwrap();
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 1));
        engine.execute(QueryRequest::single(2, 3, 6)).unwrap();
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
                ..EngineConfig::default()
            },
        );
        for k in 1..=3 {
            engine
                .execute(QueryRequest::single(k, 1, g.tmax()))
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
        let past_the_end = || QueryRequest::single(2, g.tmax() + 1, g.tmax() + 9);
        let err = engine.execute(past_the_end()).unwrap_err();
        assert!(
            matches!(err, TkError::WindowPastTmax { start, tmax }
                if start == g.tmax() + 1 && tmax == g.tmax()),
            "{err}"
        );
        assert_eq!(
            engine.cache_stats().misses,
            0,
            "no index built for refused queries"
        );
        // A batch containing one bad query fails up front, executing nothing.
        let batch = vec![QueryRequest::single(2, 1, 3), past_the_end()];
        assert!(matches!(
            engine.execute_batch(batch),
            Err(TkError::WindowPastTmax { .. })
        ));
        assert_eq!(engine.cache_stats().misses, 0);
    }

    #[test]
    fn batch_matches_sequential_and_aggregates() {
        let g = paper_example::graph();
        let engine = span_engine(&g);
        let windows: Vec<TimeWindow> = (1..=g.tmax())
            .flat_map(|s| (s..=g.tmax()).map(move |e| TimeWindow::new(s, e)))
            .collect();
        // Pre-warm so the miss counter below is deterministic even when the
        // batch fans across several workers (concurrent cold queries for one
        // k may otherwise each count a miss — the documented build race).
        engine.warm(2);
        let requests = windows
            .iter()
            .map(|w| QueryRequest::single(2, w.start(), w.end()))
            .collect();
        let responses = engine.execute_batch(requests).unwrap();
        assert_eq!(responses.len(), windows.len());
        let mut expected_cores = 0u64;
        for (window, response) in windows.iter().zip(&responses) {
            let mut fresh = CountingSink::default();
            Algorithm::Enum.execute(&g, 2, *window, &mut fresh).unwrap();
            assert_eq!(counts(response), fresh, "{window}");
            assert_eq!(response.total_cores(), fresh.num_cores, "{window}");
            expected_cores += fresh.num_cores;
        }
        let total: u64 = responses.iter().map(QueryResponse::total_cores).sum();
        assert_eq!(total, expected_cores);
        assert_eq!(
            engine.cache_stats().misses,
            1,
            "one span-wide build serves the whole batch"
        );
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
        let requests = (0..4)
            .map(|_| QueryRequest::single(2, 1, g.tmax()).stream(Box::new(ExplodingSink)))
            .collect();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.execute_batch(requests)
        }));
        assert!(panicked.is_err(), "the sink panic reaches the caller");
        // A panic unwinding with a cache guard held poisons the mutex;
        // stats and fresh queries must still work afterwards.
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 1, "the skyline build survived the panic");
        let response = engine
            .execute(QueryRequest::single(2, 1, g.tmax()))
            .unwrap();
        assert!(response.total_cores() > 0);
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
        let response = engine
            .execute(QueryRequest::single(2, 1, g.tmax()))
            .unwrap();
        assert!(response.total_cores() > 0);
    }

    #[test]
    fn batch_with_custom_sinks_and_threads() {
        let g = paper_example::graph();
        let service = crate::CoreService::start_sharded(
            g.clone(),
            ShardPlan::Span,
            crate::ServiceConfig {
                workers: 3,
                ..crate::ServiceConfig::default()
            },
        )
        .unwrap();
        let engine = service.engine();
        // Materialized requests fan across the service's slots; a streamed
        // one runs on the caller into its own sink.
        let mut requests: Vec<QueryRequest> = (0..7)
            .map(|_| QueryRequest::single(2, 1, g.tmax()).materialize())
            .collect();
        requests
            .push(QueryRequest::single(2, 1, g.tmax()).stream(Box::new(CountingSink::default())));
        let responses = engine.execute_batch(requests).unwrap();
        assert_eq!(responses.len(), 8);
        let first = cores(&responses[0]);
        for response in &responses[..7] {
            assert_eq!(cores(response), first);
        }
        let streamed = &responses[7];
        assert!(matches!(streamed.outcomes[0].output, KOutput::Streamed));
        assert!(streamed.sink.is_some());
        assert_eq!(streamed.total_cores(), first.len() as u64);
    }
}
