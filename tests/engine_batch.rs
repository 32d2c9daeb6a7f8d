//! Integration tests for the cached batch-query engine through the public
//! facade, in its unsharded (`ShardPlan::Span`) layout: cached/restricted
//! answers equal fresh per-query runs on realistic workloads, batches
//! aggregate correctly, and the cache behaves.

use temporal_kcore::prelude::*;

/// An unsharded engine: one span-wide skyline per `k`.  It serves no
/// service, so its batches run on the calling thread.
fn span_engine(graph: &TemporalGraph) -> ShardedEngine {
    ShardedEngine::new(graph.clone(), ShardPlan::Span).unwrap()
}

fn workload_queries(
    graph: &TemporalGraph,
    num: usize,
    seed: u64,
) -> (usize, Vec<TimeRangeKCoreQuery>) {
    let stats = DatasetStats::compute(graph);
    let config = WorkloadConfig::paper_default(&stats, num, seed);
    let workload = QueryWorkload::generate(graph, &config);
    (workload.k, workload.queries().collect())
}

/// One single-`k` count request per query.
fn requests(queries: &[TimeRangeKCoreQuery]) -> Vec<QueryRequest> {
    queries.iter().map(|&query| query.into()).collect()
}

/// The counts of a single-`k` count response.
fn counts(response: &QueryResponse) -> CountingSink {
    let KOutput::Counts(counts) = response.outcomes[0].output else {
        panic!("count request");
    };
    counts
}

fn total_cores(responses: &[QueryResponse]) -> u64 {
    responses.iter().map(QueryResponse::total_cores).sum()
}

#[test]
fn warm_batches_match_fresh_per_query_runs_for_every_algorithm() {
    let graph = DatasetProfile::by_name("FB").unwrap().generate();
    let (_, queries) = workload_queries(&graph, 6, 0xE26);
    let engine = span_engine(&graph);
    let responses = engine.execute_batch(requests(&queries)).unwrap();
    assert_eq!(responses.len(), queries.len());
    let total_edges: u64 = responses
        .iter()
        .map(QueryResponse::total_result_edges)
        .sum();
    for algorithm in [Algorithm::Enum, Algorithm::EnumBase, Algorithm::Otcd] {
        let mut expected_cores = 0u64;
        let mut expected_edges = 0u64;
        for (query, response) in queries.iter().zip(&responses) {
            let mut fresh = CountingSink::default();
            query.run_with(&graph, algorithm, &mut fresh);
            assert_eq!(
                counts(response),
                fresh,
                "{} {}",
                algorithm.name(),
                query.range()
            );
            let stats = response.outcomes[0].stats;
            assert_eq!(stats.num_cores, fresh.num_cores);
            assert_eq!(stats.total_result_edges, fresh.total_edges);
            expected_cores += fresh.num_cores;
            expected_edges += fresh.total_edges;
        }
        assert_eq!(
            total_cores(&responses),
            expected_cores,
            "{}",
            algorithm.name()
        );
        assert_eq!(total_edges, expected_edges);
    }
}

#[test]
fn one_span_build_serves_the_whole_batch_and_repeats_hit() {
    let graph = DatasetProfile::by_name("FB").unwrap().generate();
    let (_, queries) = workload_queries(&graph, 5, 0xCAFE);
    // A standalone engine runs a batch in order on the caller; concurrent
    // cold queries for one k could each count a miss (documented build
    // race), so the exact counter assertions rely on that.
    let engine = span_engine(&graph);

    let first = engine.execute_batch(requests(&queries)).unwrap();
    let cache = engine.cache_stats();
    assert_eq!(cache.misses, 1, "all queries share one k");
    assert_eq!(cache.hits as usize, queries.len() - 1);

    let second = engine.execute_batch(requests(&queries)).unwrap();
    let cache = engine.cache_stats();
    assert_eq!(cache.misses, 1, "steady state never rebuilds");
    assert_eq!(cache.hits as usize, 2 * queries.len() - 1);
    assert_eq!(cache.resident_indexes, 1);
    assert_eq!(total_cores(&first), total_cores(&second));
}

#[test]
fn mixed_k_batch_caches_one_index_per_k() {
    let graph = DatasetProfile::by_name("FB").unwrap().generate();
    let stats = DatasetStats::compute(&graph);
    let span = graph.span();
    let queries: Vec<TimeRangeKCoreQuery> = [20u32, 30, 40]
        .iter()
        .flat_map(|&p| {
            let k = stats.k_for_percent(p);
            [
                TimeRangeKCoreQuery::new(k, span).unwrap(),
                TimeRangeKCoreQuery::new(k, TimeWindow::new(1, span.end() / 2)).unwrap(),
            ]
        })
        .collect();
    // Sequential on the caller, so the per-k miss counters are exact (see
    // above).
    let engine = span_engine(&graph);
    let responses = engine.execute_batch(requests(&queries)).unwrap();
    let distinct_k = {
        let mut ks: Vec<usize> = queries.iter().map(|q| q.k()).collect();
        ks.sort_unstable();
        ks.dedup();
        ks.len()
    };
    let cache = engine.cache_stats();
    assert_eq!(cache.misses as usize, distinct_k);
    assert_eq!(cache.resident_indexes, distinct_k);
    for (query, response) in queries.iter().zip(&responses) {
        let mut fresh = CountingSink::default();
        query.run_with(&graph, Algorithm::Enum, &mut fresh);
        assert_eq!(counts(response), fresh, "k={} {}", query.k(), query.range());
    }
}

#[test]
fn out_of_span_and_overhanging_ranges_are_handled() {
    let graph = DatasetProfile::by_name("FB").unwrap().generate();
    let engine = span_engine(&graph);
    let tmax = graph.tmax();

    // Entirely past the end: a typed refusal, no index build.
    let err = engine
        .execute(QueryRequest::single(2, tmax + 1, tmax + 500))
        .unwrap_err();
    assert!(
        matches!(err, TkError::WindowPastTmax { start, tmax: t } if start == tmax + 1 && t == tmax),
        "{err}"
    );
    assert_eq!(engine.cache_stats().misses, 0);

    // Overhanging the end: same answer as the clamped range.
    let overhang = engine
        .execute(QueryRequest::single(2, tmax / 2, tmax + 500))
        .unwrap();
    assert_eq!(overhang.window, TimeWindow::new(tmax / 2, tmax));
    let clamped = TimeRangeKCoreQuery::new(2, TimeWindow::new(tmax / 2, tmax)).unwrap();
    let mut b = CountingSink::default();
    clamped.run_with(&graph, Algorithm::Enum, &mut b);
    assert_eq!(counts(&overhang), b);
}

#[test]
fn collecting_batch_returns_canonical_cores() {
    let graph = DatasetProfile::by_name("BO").unwrap().generate();
    let (_, queries) = workload_queries(&graph, 4, 7);
    let engine = span_engine(&graph);
    let materialized = queries
        .iter()
        .map(|&query| QueryRequest::from(query).materialize())
        .collect();
    let responses = engine.execute_batch(materialized).unwrap();
    for (query, response) in queries.iter().zip(&responses) {
        let KOutput::Cores(cores) = &response.outcomes[0].output else {
            panic!("materialized request");
        };
        let mut fresh = CollectingSink::default();
        query.run_with(&graph, Algorithm::Enum, &mut fresh);
        assert_eq!(cores, &fresh.into_sorted(), "{}", query.range());
    }
}
