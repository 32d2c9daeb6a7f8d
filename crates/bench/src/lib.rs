//! Benchmark harness library: shared reporting utilities and workload
//! builders used by the `experiments` binary, the one engine timer.

#![forbid(unsafe_code)]

pub mod report;

pub use report::{Report, Row};

use tkcore::{QueryRequest, QueryResponse, ShardPlan, TimeRangeKCoreQuery};

/// One single-`k` count request per query: the batch shape the engine
/// experiments hand to `ShardedEngine::execute_batch`.
pub fn count_requests(queries: &[TimeRangeKCoreQuery]) -> Vec<QueryRequest> {
    queries.iter().map(|&query| query.into()).collect()
}

/// Sum of distinct cores over every response of a batch.
pub fn total_cores(responses: &[QueryResponse]) -> u64 {
    responses.iter().map(QueryResponse::total_cores).sum()
}

/// Builds a boundary-spanning workload against a `FixedCount(num_shards)`
/// plan: every window straddles one of the resolved shard cuts, so each
/// query exercises the sharded engine's boundary pass.  Uses the *resolved*
/// shard count (`FixedCount` clamps to one shard per timestamp), so short
/// timelines cannot index past the cut list; a plan that resolves to a
/// single shard has no cuts and yields windows around its midpoint instead.
pub fn spanning_workload(
    graph: &temporal_graph::TemporalGraph,
    k: usize,
    num_shards: usize,
    num_queries: usize,
) -> Vec<TimeRangeKCoreQuery> {
    let shards = ShardPlan::FixedCount(num_shards)
        .resolve(graph)
        .expect("fixed-count plan resolves");
    let cuts: Vec<u32> = shards[..shards.len() - 1].iter().map(|s| s.end()).collect();
    let half = (graph.tmax() / (2 * shards.len() as u32)).max(1);
    (0..num_queries)
        .map(|i| {
            let cut = if cuts.is_empty() {
                graph.tmax() / 2
            } else {
                cuts[i % cuts.len()]
            };
            let start = cut.saturating_sub(half).max(1);
            let end = (cut + half).min(graph.tmax());
            TimeRangeKCoreQuery::new(k, temporal_graph::TimeWindow::new(start, end.max(start)))
                .expect("k >= 1")
        })
        .collect()
}
