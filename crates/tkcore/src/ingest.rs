//! Live-ingestion types: seal policies and per-absorb outcomes.
//!
//! The write path of the stack is documented on [`crate::ShardedEngine`]
//! (see also the "Live ingestion" section of the crate docs): an
//! [`temporal_graph::AppendableGraph`] buffers time-ordered events,
//! [`crate::ShardedEngine::absorb`] publishes them as a fresh snapshot,
//! replacing exactly the tail-shard skylines and tail-touching
//! boundary-stitch entries with ones it rebuilt against that snapshot (so
//! no query pays for the rebuild), and a [`SealPolicy`] decides when the
//! live tail shard is rolled into a closed (immutable) shard.

use temporal_graph::{TimeWindow, Timestamp};

/// One ingest event: external endpoint labels plus a normalised timestamp
/// on the graph's `1..=tmax` timeline.
pub type IngestEvent = (u64, u64, Timestamp);

/// When [`crate::ShardedEngine::absorb`] rolls the live tail shard into a
/// closed shard (whose skylines become permanently valid) and opens a new
/// tail for subsequent appends.
///
/// Evaluated after each absorbed batch; [`SealPolicy::Manual`] (the
/// default) never seals automatically — call
/// [`crate::ShardedEngine::seal_tail`] instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SealPolicy {
    /// Seal once the tail shard holds at least this many edge occurrences.
    EdgeCount(usize),
    /// Seal once the tail shard's window spans at least this many
    /// timestamps.
    SpanWidth(Timestamp),
    /// Seal only on explicit [`crate::ShardedEngine::seal_tail`] calls.
    #[default]
    Manual,
}

impl SealPolicy {
    /// Whether a tail shard with `tail_edges` occurrences over `tail`
    /// should be sealed under this policy.
    pub fn should_seal(&self, tail_edges: usize, tail: TimeWindow) -> bool {
        match *self {
            SealPolicy::EdgeCount(limit) => limit > 0 && tail_edges >= limit,
            SealPolicy::SpanWidth(width) => width > 0 && tail.len() >= u64::from(width),
            SealPolicy::Manual => false,
        }
    }
}

/// Outcome of one [`crate::ShardedEngine::absorb`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AbsorbStats {
    /// Events appended by this batch (the whole batch, or zero: batches
    /// apply atomically).
    pub appended: usize,
    /// Tail-shard `(shard, k)` skylines of the previous epoch dropped by
    /// this absorb (it publishes rebuilt successors in their place).
    pub tail_invalidations: u64,
    /// Boundary-stitch entries whose shard range touches the tail dropped
    /// (and rebuilt) by this absorb.
    pub boundary_invalidations: u64,
    /// Whether this absorb sealed the tail shard (per the configured
    /// [`SealPolicy`]).
    pub sealed: bool,
    /// The graph's last timestamp after the batch.
    pub tmax: Timestamp,
    /// Total shards (closed + tail) after the batch.
    pub num_shards: usize,
    /// Closed (immutable) shards after the batch.
    pub sealed_shards: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_policies_trigger_on_their_own_dimension() {
        let tail = TimeWindow::new(11, 20); // 10 timestamps
        assert!(SealPolicy::EdgeCount(5).should_seal(5, tail));
        assert!(!SealPolicy::EdgeCount(5).should_seal(4, tail));
        assert!(SealPolicy::SpanWidth(10).should_seal(0, tail));
        assert!(!SealPolicy::SpanWidth(11).should_seal(999, tail));
        assert!(!SealPolicy::Manual.should_seal(usize::MAX, tail));
        // Degenerate zero limits never fire instead of always firing.
        assert!(!SealPolicy::EdgeCount(0).should_seal(0, tail));
        assert!(!SealPolicy::SpanWidth(0).should_seal(0, tail));
    }
}
