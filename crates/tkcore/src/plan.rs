//! [`ShardPlan`]: how a [`crate::ShardedEngine`] cuts the timeline into
//! contiguous time-interval shards (see [`crate::shard`]).

use crate::error::TkError;
use temporal_graph::{TemporalGraph, TimeWindow, Timestamp};

/// How to cut the graph's timeline `[1, tmax]` into contiguous shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardPlan {
    /// One shard covering the whole span (the unsharded layout; useful as a
    /// degenerate baseline in equivalence tests).
    Span,
    /// A fixed number of shards of near-equal timeline length.  Counts
    /// exceeding `tmax` are clamped to one shard per timestamp.
    FixedCount(usize),
    /// Cut so every shard holds roughly this many edge occurrences (the last
    /// shard takes the remainder).  Adapts shard boundaries to bursty
    /// timelines where equal-length intervals would be wildly unbalanced.
    TargetEdgesPerShard(usize),
    /// Explicit cut points: a boundary is placed **after** each listed
    /// timestamp, which must be strictly increasing and inside `[1, tmax)`.
    ExplicitCuts(Vec<Timestamp>),
}

impl ShardPlan {
    /// Resolves the plan against a graph into contiguous shard intervals
    /// covering `[1, tmax]` exactly.
    ///
    /// # Errors
    /// [`TkError::InvalidShardPlan`] for a zero shard count, a zero edge
    /// target, or cut points that are out of range or not strictly
    /// increasing.
    pub fn resolve(&self, graph: &TemporalGraph) -> Result<Vec<TimeWindow>, TkError> {
        let tmax = graph.tmax().max(1);
        let shards = match self {
            ShardPlan::Span => vec![TimeWindow::new(1, tmax)],
            ShardPlan::FixedCount(n) => {
                if *n == 0 {
                    return Err(TkError::InvalidShardPlan {
                        detail: "shard count must be at least 1".into(),
                    });
                }
                let n = (*n as u64).min(u64::from(tmax));
                (0..n)
                    .map(|i| {
                        let start = 1 + (i * u64::from(tmax) / n) as Timestamp;
                        let end = ((i + 1) * u64::from(tmax) / n) as Timestamp;
                        TimeWindow::new(start, end)
                    })
                    .collect()
            }
            ShardPlan::TargetEdgesPerShard(target) => {
                if *target == 0 {
                    return Err(TkError::InvalidShardPlan {
                        detail: "edges-per-shard target must be at least 1".into(),
                    });
                }
                let mut shards = Vec::new();
                let mut start = 1;
                let mut accumulated = 0usize;
                for t in 1..=tmax {
                    accumulated += graph.edges_at(t).len();
                    if accumulated >= *target && t < tmax {
                        shards.push(TimeWindow::new(start, t));
                        start = t + 1;
                        accumulated = 0;
                    }
                }
                shards.push(TimeWindow::new(start, tmax));
                shards
            }
            ShardPlan::ExplicitCuts(cuts) => {
                let mut shards = Vec::new();
                let mut start = 1;
                for &cut in cuts {
                    if cut < start || cut >= tmax {
                        return Err(TkError::InvalidShardPlan {
                            detail: format!(
                                "cut after {cut} is outside [{start}, {}] or not increasing",
                                tmax - 1
                            ),
                        });
                    }
                    shards.push(TimeWindow::new(start, cut));
                    start = cut + 1;
                }
                shards.push(TimeWindow::new(start, tmax));
                shards
            }
        };
        debug_assert_eq!(shards.first().map(|s| s.start()), Some(1));
        debug_assert_eq!(shards.last().map(|s| s.end()), Some(tmax));
        debug_assert!(shards.windows(2).all(|p| p[1].start() == p[0].end() + 1));
        Ok(shards)
    }
}
