//! Measurement helpers for the paper's size/complexity figures.
//!
//! Figure 4 compares `|VCT|`, `|VCT| · deg_avg` and the result size `|R|`;
//! Figures 9–11 report the number of temporal k-cores under varying
//! parameters.  [`FrameworkStats::measure`] computes all of these for one
//! `(graph, k, range)` configuration using the index structures and the
//! result-size-optimal enumerator.
//!
//! [`ShardProfile::measure`] adds the sharding dimension: per-shard skyline
//! sizes under a [`crate::ShardPlan`], used by the `experiments -- engine`
//! harness to show that the peak per-shard index footprint stays strictly
//! below the span-wide one.

use crate::ecs::EdgeCoreSkyline;
use crate::enumerate::enumerate;
use crate::error::TkError;
use crate::shard::ShardPlan;
use crate::sink::CountingSink;
use crate::vct::{CoreTimeSweep, VertexCoreTimeIndex};
use temporal_graph::{TemporalGraph, TimeWindow};

/// Sizes of the framework's intermediate structures and of the result set
/// for one query configuration.
#[derive(Debug, Clone, Copy)]
pub struct FrameworkStats {
    /// Number of entries in the vertex core time index (`|VCT|`).
    pub vct_entries: usize,
    /// Average distinct degree of the projected query-range graph (`deg_avg`).
    pub avg_degree: f64,
    /// `|VCT| * deg_avg`, the precomputation cost term of the paper.
    pub vct_times_avg_degree: f64,
    /// Total number of minimal core windows (`|ECS|`).
    pub ecs_windows: usize,
    /// Number of distinct temporal k-cores.
    pub num_cores: u64,
    /// Total number of edges over all cores (`|R|`).
    pub result_size: u64,
    /// Estimated bytes of the VCT index.
    pub vct_bytes: usize,
    /// Estimated bytes of the ECS structure.
    pub ecs_bytes: usize,
    /// Estimated bytes of the result set (edge ids over all cores).
    pub result_bytes: u64,
}

impl FrameworkStats {
    /// Measures every quantity for the given configuration.
    pub fn measure(graph: &TemporalGraph, k: usize, range: TimeWindow) -> Self {
        let vct = VertexCoreTimeIndex::build(graph, k, range);
        let mut sweep = CoreTimeSweep::new(graph, k, range);
        let ecs = EdgeCoreSkyline::build_from_sweep(graph, &mut sweep);
        let mut counter = CountingSink::default();
        enumerate(graph, &ecs, &mut counter);
        let avg_degree = graph.average_distinct_degree_in(range);
        Self {
            vct_entries: vct.size(),
            avg_degree,
            vct_times_avg_degree: vct.size() as f64 * avg_degree,
            ecs_windows: ecs.total_windows(),
            num_cores: counter.num_cores,
            result_size: counter.total_edges,
            vct_bytes: vct.memory_bytes(),
            ecs_bytes: ecs.memory_bytes(),
            result_bytes: counter.total_edges
                * std::mem::size_of::<temporal_graph::EdgeId>() as u64,
        }
    }
}

/// Size profile of one time-interval shard's skyline for a fixed `k`.
#[derive(Debug, Clone, Copy)]
pub struct ShardProfile {
    /// The shard's timeline interval.
    pub shard: TimeWindow,
    /// Edge occurrences falling inside the shard.
    pub num_edges: usize,
    /// Minimal core windows of the shard's skyline (`|ECS|` restricted to
    /// intra-shard windows).
    pub ecs_windows: usize,
    /// Estimated bytes of the shard's skyline.
    pub ecs_bytes: usize,
}

impl ShardProfile {
    /// Builds the skyline of every shard of `plan` for parameter `k` and
    /// reports their sizes, in timeline order.
    ///
    /// # Errors
    /// [`TkError::InvalidShardPlan`] when `plan` does not resolve against
    /// the graph.
    pub fn measure(
        graph: &TemporalGraph,
        k: usize,
        plan: &ShardPlan,
    ) -> Result<Vec<ShardProfile>, TkError> {
        Ok(plan
            .resolve(graph)?
            .into_iter()
            .map(|shard| {
                let ecs = EdgeCoreSkyline::build(graph, k, shard);
                ShardProfile {
                    shard,
                    num_edges: graph.num_edges_in(shard),
                    ecs_windows: ecs.total_windows(),
                    ecs_bytes: ecs.memory_bytes(),
                }
            })
            .collect())
    }
}

/// Ingest-side movement of the cache counters between two
/// [`crate::CacheStats`] readings — the delta the `tkc ingest --stats`
/// report and the ingest bench print per absorb burst.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestDelta {
    /// Tail-shard skylines dropped by absorbs in the interval.
    pub tail_invalidations: u64,
    /// Tail-touching boundary-stitch entries dropped in the interval.
    pub boundary_invalidations: u64,
    /// Tail seals in the interval.
    pub seals: u64,
    /// Query-path shard skyline builds in the interval (cold misses and
    /// warm calls).
    pub builds: u64,
    /// Skylines and stitch entries the absorbs in the interval rebuilt
    /// before publishing (see [`crate::CacheStats::publish`]): the rebuild
    /// work the invalidations induced.
    pub published: u64,
    /// Net change of resident skyline bytes over the interval (negative
    /// when invalidation freed more than rebuilding re-added).
    pub resident_bytes_delta: i64,
}

impl IngestDelta {
    /// The counter movement from `before` to `after`.  Cumulative counters
    /// only grow, so the subtractions saturate rather than wrap if the
    /// readings are accidentally swapped.
    pub fn between(before: &crate::CacheStats, after: &crate::CacheStats) -> Self {
        let builds =
            |stats: &crate::CacheStats| -> u64 { stats.per_shard.iter().map(|s| s.builds).sum() };
        Self {
            tail_invalidations: after
                .tail_invalidations
                .saturating_sub(before.tail_invalidations),
            boundary_invalidations: after
                .boundary_invalidations
                .saturating_sub(before.boundary_invalidations),
            seals: after.seals.saturating_sub(before.seals),
            builds: builds(after).saturating_sub(builds(before)),
            published: after
                .publish
                .entries_built
                .saturating_sub(before.publish.entries_built),
            resident_bytes_delta: after.resident_bytes as i64 - before.resident_bytes as i64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example;

    #[test]
    fn ingest_delta_reports_counter_movement() {
        let g = paper_example::graph();
        let engine = crate::ShardedEngine::new(g, crate::ShardPlan::ExplicitCuts(vec![4])).unwrap();
        engine.warm(2);
        let before = engine.cache_stats();
        engine.absorb(&[(1, 5, 8)]).unwrap();
        let after = engine.cache_stats();
        let delta = IngestDelta::between(&before, &after);
        assert_eq!(delta.tail_invalidations, 1);
        assert_eq!(delta.seals, 0);
        // The absorb rebuilt the purged tail skyline at publish: booked
        // once there, not as a query-path build, and the one-edge-longer
        // skyline replaced the freed one.
        assert_eq!(delta.published, 1);
        assert_eq!(delta.builds, 0);
        assert!(delta.resident_bytes_delta > 0, "tail skyline was rebuilt");
        // Swapped readings saturate to zero instead of wrapping.
        let swapped = IngestDelta::between(&after, &before);
        assert_eq!(swapped.tail_invalidations, 0);
    }

    #[test]
    fn shard_profiles_cover_the_timeline_and_shrink_the_skyline() {
        let g = paper_example::graph();
        let span = EdgeCoreSkyline::build(&g, 2, g.span());
        let profiles = ShardProfile::measure(&g, 2, &ShardPlan::FixedCount(3)).unwrap();
        assert_eq!(profiles.len(), 3);
        assert_eq!(profiles.first().unwrap().shard.start(), 1);
        assert_eq!(profiles.last().unwrap().shard.end(), g.tmax());
        let total_edges: usize = profiles.iter().map(|p| p.num_edges).sum();
        assert_eq!(total_edges, g.num_edges());
        // Per-shard skylines drop every cut-crossing window, so each shard
        // is strictly smaller than the span-wide index, and so is their sum.
        let total_windows: usize = profiles.iter().map(|p| p.ecs_windows).sum();
        assert!(total_windows <= span.total_windows());
        for profile in &profiles {
            assert!(profile.ecs_bytes < span.memory_bytes(), "{profile:?}");
        }
        assert!(matches!(
            ShardProfile::measure(&g, 2, &ShardPlan::FixedCount(0)),
            Err(TkError::InvalidShardPlan { .. })
        ));
    }

    #[test]
    fn measures_the_running_example() {
        let g = paper_example::graph();
        let stats = FrameworkStats::measure(&g, 2, paper_example::full_range());
        // Corrected Table I has 24 entries; Table II has 18 windows.
        assert_eq!(stats.vct_entries, 24);
        assert_eq!(stats.ecs_windows, 18);
        assert!(stats.num_cores >= 2);
        assert!(stats.result_size >= stats.num_cores);
        assert!(stats.avg_degree > 0.0);
        assert!(stats.vct_times_avg_degree > 0.0);
        assert!(stats.vct_bytes > 0 && stats.ecs_bytes > 0 && stats.result_bytes > 0);
    }

    #[test]
    fn larger_k_shrinks_everything() {
        let g = paper_example::graph();
        let s2 = FrameworkStats::measure(&g, 2, paper_example::full_range());
        let s3 = FrameworkStats::measure(&g, 3, paper_example::full_range());
        assert!(s3.vct_entries <= s2.vct_entries);
        assert!(s3.ecs_windows <= s2.ecs_windows);
        assert!(s3.result_size <= s2.result_size);
    }
}
