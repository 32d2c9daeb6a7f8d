//! Generators and helpers shared by the property harnesses
//! (`shard_equivalence`, `flat_skyline`, `ingest_equivalence`).
//!
//! Each integration test is its own crate and uses a different subset of
//! these helpers, hence the crate-wide `dead_code` allowance.

#![allow(dead_code)]

use proptest::prelude::*;
use temporal_kcore::prelude::*;

/// Label events: `(u, v, t)` triples in label space.
pub type Events = Vec<(u64, u64, Timestamp)>;

/// Strategy: a random temporal graph with up to `max_v` vertices, up to
/// `max_e` edges and up to `max_t` distinct timestamps.
pub fn arb_graph(max_v: u64, max_e: usize, max_t: i64) -> impl Strategy<Value = TemporalGraph> {
    prop::collection::vec((0..max_v, 0..max_v, 1..=max_t), 1..max_e).prop_filter_map(
        "graph must have at least one non-loop edge",
        |edges| {
            let edges: Vec<(u64, u64, i64)> =
                edges.into_iter().filter(|(u, v, _)| u != v).collect();
            if edges.is_empty() {
                return None;
            }
            TemporalGraphBuilder::new().with_edges(edges).build().ok()
        },
    )
}

/// Strategy: base edges over a small label/time space (at least one
/// non-loop edge) plus a time-ordered, duplicate-free append stream whose
/// timestamps start strictly past the base `tmax`, so one `absorb` accepts
/// the whole stream.
pub fn arb_base_and_stream() -> impl Strategy<Value = (Events, Events)> {
    (
        prop::collection::vec((0u64..8, 0u64..8, 1u32..=6), 1..30),
        prop::collection::vec((0u64..10, 0u64..10, 0u32..3), 1..14),
    )
        .prop_filter_map("need a non-loop base edge", |(base, raw_stream)| {
            let base: Events = base.into_iter().filter(|&(u, v, _)| u != v).collect();
            if base.is_empty() {
                return None;
            }
            let base_tmax = base.iter().map(|&(_, _, t)| t).max().unwrap_or(1);
            let mut seen = std::collections::HashSet::new();
            let mut t = base_tmax;
            let mut stream = Vec::new();
            for (u, v, dt) in raw_stream {
                t += dt.max(u32::from(stream.is_empty()));
                if u != v && seen.insert((u.min(v), u.max(v), t)) {
                    stream.push((u, v, t));
                }
            }
            // Make sure the stream advances past the base at least once.
            if stream.is_empty() {
                stream.push((0, 1, base_tmax + 1));
            }
            Some((base, stream))
        })
}

/// Builds a graph from raw `(u, v, t)` label events without timestamp
/// compression, so the rebuilt timeline matches the appended one.
pub fn raw_graph(events: &[(u64, u64, Timestamp)]) -> TemporalGraph {
    TemporalGraphBuilder::new()
        .timestamp_mode(TimestampMode::Raw)
        .with_edges(events.iter().map(|&(u, v, t)| (u, v, i64::from(t))))
        .build()
        .expect("harness events form a valid graph")
}

/// Cores sorted by `(TTI, edges)`, so result sets compare independently of
/// emission order.
pub fn canonical(mut cores: Vec<TemporalKCore>) -> Vec<TemporalKCore> {
    cores.sort_by(|a, b| a.tti.cmp(&b.tti).then_with(|| a.edges.cmp(&b.edges)));
    cores
}

/// Derives a shard plan from two random parameters (`kind` in `0..5`),
/// covering every [`ShardPlan`] variant including the degenerate layouts:
/// the unsharded span and one shard per timestamp.
pub fn plan_for(kind: u8, param: usize, tmax: Timestamp) -> ShardPlan {
    match kind % 5 {
        0 => ShardPlan::Span,
        1 => ShardPlan::FixedCount(2 + param % 5),
        // One shard per timestamp: every inter-timestamp boundary is a cut.
        2 => ShardPlan::FixedCount(tmax as usize),
        3 => ShardPlan::TargetEdgesPerShard(1 + param % 7),
        _ => {
            // An explicit cut roughly mid-span (no cut on a 1-long span).
            let mid = tmax / 2;
            if mid >= 1 && mid < tmax {
                ShardPlan::ExplicitCuts(vec![mid])
            } else {
                ShardPlan::ExplicitCuts(vec![])
            }
        }
    }
}

/// A random sub-window of the graph's span (degenerate single-timestamp
/// windows included via `raw_len = 0`).
pub fn window_in_span(g: &TemporalGraph, raw_start: u32, raw_len: u32) -> TimeWindow {
    let start = raw_start.max(1).min(g.tmax());
    TimeWindow::new(start, (start + raw_len).min(g.tmax()))
}
