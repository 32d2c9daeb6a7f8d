//! Sharded, multi-worker query serving.
//!
//! The span-wide engine of `index_reuse.rs` keeps one skyline per `k`
//! covering the whole timeline — on a big graph that single index is the
//! memory bottleneck, and the first query of every `k` pays its full build.
//! This example cuts the timeline into time-interval shards instead
//! (`ShardPlan::FixedCount`), serves a dashboard-style stream of short
//! window queries through a two-worker `CoreService`, and prints what the
//! sharding bought:
//!
//! * each query builds (or reuses) only the shard indexes its window
//!   touches — the per-shard build counters show the untouched timeline
//!   staying cold;
//! * the resident cache holds several small per-shard skylines whose peak
//!   is a fraction of the span-wide index;
//! * answers are exact even when a window crosses a shard cut (the engine
//!   re-verifies boundary-spanning cores against the merged sub-window).
//!
//! Run with: `cargo run --release --example sharded_serving`

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

    // The span-wide index this deployment avoids keeping resident.
    let span_index = EdgeCoreSkyline::build(&graph, k, graph.span());
    let span_mib = span_index.memory_bytes() as f64 / (1024.0 * 1024.0);
    drop(span_index);

    // A sharded service: 8 time-interval shards, 2 worker threads sharing
    // one request queue and one engine-wide skyline cache.
    let shards = 8;
    let service = CoreService::start_sharded(
        graph.clone(),
        ShardPlan::FixedCount(shards),
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
    )
    .expect("fixed-count plan resolves");

    // A dashboard workload: overlapping windows of 10% of the timeline,
    // sliding from the start to the end of the span.
    let len = stats.range_len_for_percent(10).max(1);
    let step = (len / 2).max(1);
    let starts: Vec<u32> = (1..=graph.tmax().saturating_sub(len - 1))
        .step_by(step as usize)
        .collect();
    println!(
        "Serving {} sliding windows of {} timestamps over {} shards with 2 workers\n",
        starts.len(),
        len,
        shards
    );

    let tickets: Vec<Ticket> = starts
        .iter()
        .map(|&start| {
            service
                .submit(QueryRequest::single(k, start, start + len - 1))
                .expect("queue is deep enough for the whole stream")
        })
        .collect();
    let mut total_cores = 0u64;
    for (start, ticket) in starts.iter().zip(tickets) {
        let reply = ticket.wait().expect("request completes");
        total_cores += reply.response.total_cores();
        if reply.response.total_cores() > 0 {
            println!(
                "  window [{start}, {}] -> {} cores (worker {}, {:?})",
                start + len - 1,
                reply.response.total_cores(),
                reply.worker,
                reply.execute_time
            );
        }
    }

    let cache = service.cache_stats();
    let builds: Vec<u64> = cache.per_shard.iter().map(|s| s.builds).collect();
    let peak_shard_mib = cache
        .per_shard
        .iter()
        .map(|s| s.resident_bytes)
        .max()
        .unwrap_or(0) as f64
        / (1024.0 * 1024.0);
    let service_stats = service.stats();
    println!("\n{total_cores} cores over the whole stream");
    println!(
        "shard builds for k = {k}: {builds:?} ({} hits, {} misses)",
        cache.hits, cache.misses
    );
    println!(
        "boundary stitch index: {} builds, {} hits, {} entries ({:.2} MiB) — spanning \
         windows reuse cut-crossing skylines instead of re-sweeping",
        cache.boundary.builds,
        cache.boundary.hits,
        cache.boundary.resident_entries,
        cache.boundary.resident_bytes as f64 / (1024.0 * 1024.0)
    );
    println!("peak resident shard index: {peak_shard_mib:.2} MiB vs span-wide {span_mib:.2} MiB");
    let per_worker: Vec<u64> = service_stats
        .per_worker
        .iter()
        .map(|w| w.completed)
        .collect();
    println!(
        "service: {} completed, per-worker {:?}, queue wait {:?}, execute {:?}",
        service_stats.completed,
        per_worker,
        service_stats.queue_wait_total,
        service_stats.execute_total
    );
    service.shutdown();
}
