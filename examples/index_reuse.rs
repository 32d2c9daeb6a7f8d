//! Index reuse through the cached batch-query engine.
//!
//! The framework of the paper splits a query into a precomputation phase
//! (the CoreTime sweep producing the edge core window skyline) and an
//! enumeration phase whose cost is bounded by the result size.  A skyline
//! built for the whole time span answers *every* sub-range query for the
//! same `k` by slicing it, so a serving workload should build it once and
//! amortise it across the query stream.  That is exactly what a
//! [`ShardedEngine`] over [`ShardPlan::Span`] (one shard, one span-wide
//! skyline per `k`) automates: this example fires a batch of sub-range
//! queries cold (one fresh skyline per query, as the one-shot API does) and
//! then through the engine, and prints the amortisation.
//!
//! Run with: `cargo run --release --example index_reuse`

use std::time::Instant;
use temporal_kcore::prelude::*;

fn main() {
    let profile = DatasetProfile::by_name("EM").expect("profile exists");
    let graph = profile.generate();
    let stats = DatasetStats::compute(&graph);
    let k = stats.k_for_percent(30);
    println!(
        "Dataset {} analogue: {} vertices, {} edges, {} timestamps, k = {}",
        profile.name, stats.num_vertices, stats.num_edges, stats.tmax, k
    );

    // A stream of sliding sub-range queries, the shape a monitoring
    // dashboard would issue (overlapping windows of 10% of the timeline).
    let len = stats.range_len_for_percent(10).max(1);
    let step = (len / 2).max(1);
    let queries: Vec<TimeRangeKCoreQuery> = (1..=graph.tmax().saturating_sub(len - 1))
        .step_by(step as usize)
        .map(|start| {
            TimeRangeKCoreQuery::new(k, TimeWindow::new(start, start + len - 1))
                .expect("k >= 1 by construction")
        })
        .collect();
    println!(
        "Query stream: {} overlapping windows of {} timestamps\n",
        queries.len(),
        len
    );

    // Cold baseline: every query pays its own CoreTime sweep.
    let t0 = Instant::now();
    let mut cold_cores = 0u64;
    for query in &queries {
        let mut sink = CountingSink::default();
        query.run_with(&graph, Algorithm::Enum, &mut sink);
        cold_cores += sink.num_cores;
    }
    let cold_time = t0.elapsed();
    println!("Cold per-query (skyline rebuilt every time): {cold_cores} cores in {cold_time:?}");

    // Engine, first batch: pays the one-time span-wide build for this k,
    // which every later query for the same k reuses.
    let engine = ShardedEngine::new(graph.clone(), ShardPlan::Span).expect("span plan");
    let batch = || -> Vec<QueryRequest> { queries.iter().map(|&query| query.into()).collect() };
    let t1 = Instant::now();
    let first_batch = engine
        .execute_batch(batch(), Algorithm::Enum)
        .expect("valid workload queries");
    let first_time = t1.elapsed();
    let first_cores: u64 = first_batch.iter().map(QueryResponse::total_cores).sum();
    println!("Engine batch 1 (builds the span-wide index):  {first_cores} cores in {first_time:?}");

    // Engine, steady state: the index is resident, so every query is a
    // cache hit read through a view sliced in place — the CoreTime phase is
    // amortised to ~zero.
    let requests = batch();
    let t2 = Instant::now();
    let responses = engine
        .execute_batch(requests, Algorithm::Enum)
        .expect("valid workload queries");
    let warm_time = t2.elapsed();
    let warm_cores: u64 = responses.iter().map(QueryResponse::total_cores).sum();
    println!("Engine batch 2 (warm):                        {warm_cores} cores in {warm_time:?}");
    assert_eq!(
        cold_cores, warm_cores,
        "identical results are non-negotiable"
    );

    let cache = engine.cache_stats();
    println!(
        "\nIndex cache: {} miss (the single span-wide build), {} hits, {:.2} MiB resident",
        cache.misses,
        cache.hits,
        cache.resident_bytes as f64 / (1024.0 * 1024.0)
    );
    let warm_precompute: std::time::Duration = responses
        .iter()
        .map(|response| response.outcomes[0].stats.precompute_time)
        .sum();
    println!(
        "Warm precompute time summed over {} queries: {warm_precompute:?} (cache lookup only)",
        queries.len(),
    );
    println!(
        "Steady-state speedup over cold per-query: {:.1}x on this run",
        cold_time.as_secs_f64() / warm_time.as_secs_f64().max(1e-9)
    );

    // Every request gets its own response, e.g. for the largest window.
    let (busiest, query) = responses
        .iter()
        .zip(&queries)
        .max_by_key(|(response, _)| response.total_cores())
        .expect("at least one query");
    println!(
        "Busiest window {} holds {} distinct {k}-cores (|R| = {} edges)",
        query.range(),
        busiest.total_cores(),
        busiest.total_result_edges()
    );

    // The same cache also serves k-range sweeps through the engine's request
    // entry point: each k of the sweep builds its span-wide index at most
    // once.
    let misses_before = engine.cache_stats().misses;
    let sweep = QueryRequest::sweep(k.saturating_sub(1).max(1)..=k + 1, 1, graph.tmax());
    let sweep = engine.execute(sweep, Algorithm::Enum).expect("valid sweep");
    println!("\nk-range sweep around k = {k} (one skyline build per new k):");
    for outcome in &sweep.outcomes {
        println!(
            "  k = {:>2}: {:>6} cores, |R| = {:>8} edges ({:?})",
            outcome.k,
            outcome.stats.num_cores,
            outcome.stats.total_result_edges,
            outcome.stats.total_time()
        );
    }
    println!(
        "Sweep added {} index builds for {} k values",
        engine.cache_stats().misses - misses_before,
        sweep.outcomes.len()
    );
}
