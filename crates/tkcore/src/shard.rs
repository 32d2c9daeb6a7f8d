//! Time-interval sharding: [`ShardPlan`], [`ShardedEngine`] and
//! [`ShardedBackend`].
//!
//! [`ShardedEngine`] is the crate's query engine.  It partitions the
//! timeline into contiguous time-interval shards and keeps **one skyline per
//! `(shard, k)`**, each covering only its shard's interval.
//! [`ShardPlan::Span`] is the unsharded layout: one shard covering the whole
//! timeline, hence one span-wide skyline per `k`.  Finer plans trade the
//! span-wide index — the memory and cold-build bottleneck on big graphs —
//! for per-shard ones:
//!
//! * per-shard skylines are strictly smaller than the span-wide one (they
//!   drop every minimal core window crossing a shard cut), so the resident
//!   cache and the peak cold-build footprint are bounded by the largest
//!   shard, not the span;
//! * cold builds are per shard, so a query touching 2 of 40 shards builds
//!   2 small indexes, never the span-wide one;
//! * shard skylines build independently, so batch workers warm different
//!   shards in parallel.
//!
//! # Cache policy
//!
//! One entry per `(shard, k)`, evicted least-recently-used when the summed
//! [`EdgeCoreSkyline::memory_bytes`] exceeds
//! [`EngineConfig::memory_budget_bytes`].  The entry being inserted is never
//! evicted, so a single index larger than the whole budget still serves its
//! own query.  Lookups and insertions take a mutex; index *construction*
//! happens outside the lock, so concurrent batch workers build different
//! entries in parallel.  Two threads racing on the same cold entry may both
//! build it; the loser's copy is dropped and the winner's is shared —
//! wasted work bounded by one build, never wrong results.
//!
//! # Exactness at shard boundaries
//!
//! A query over window `W` is answered by one enumeration over the skyline
//! of `W` itself.  Minimality of a core window is a property of the graph
//! alone, so that skyline splits into two disjoint classes of windows:
//!
//! 1. **Intra-shard windows** (`w ⊆ W ∩ I_s` for some shard interval
//!    `I_s`): exactly the restriction of shard `s`'s cached skyline to
//!    `W ∩ I_s` ([`EdgeCoreSkyline::restrict`] is exact for sub-ranges).
//! 2. **Cut-crossing windows** (containing both `c` and `c + 1` for some
//!    shard boundary after timestamp `c`): per-shard builds drop them, so
//!    they come from the boundary-stitch index below.
//!
//! A window inside one shard has no cut-crossing windows, and its restricted
//! shard skyline *is* the skyline of `W`.  A spanning window reassembles its
//! skyline from both classes.  Either way the enumerator runs once over the
//! same skyline a fresh build for `W` would produce, so every core is
//! emitted exactly once, in the same order as
//! [`crate::Algorithm::Enum`] over `W` — the result-size bound of the
//! paper's enumeration holds for spanning queries too.  The
//! `shard_equivalence` harness asserts this for random graphs, random plans
//! and all four algorithms.
//!
//! # The boundary-stitch index
//!
//! * The cut-crossing windows come from a small LRU-cached **stitch entry**
//!   per `(shard range, k)` — for the common case of a window spanning one
//!   cut, per adjacent shard pair `(i, i + 1, k)`.  An entry is built once,
//!   on the first spanning query of its shard range (one merged-window
//!   sweep, filtered down to the cut-crossing windows only), and reused by
//!   every later spanning query of that range.
//! * A per-edge merge of the restricted shard skylines with the entry's
//!   windows reproduces the skyline of `W` in `O(|E_W| + |ECS_W|)` —
//!   restriction cost, not sweep cost.
//!
//! The stitch cache holds at most [`EngineConfig::boundary_cache_entries`]
//! entries (LRU, at least one) and its counters are reported in
//! [`CacheStats::boundary`].
//!
//! # Live ingestion
//!
//! The last shard of the plan doubles as the **live tail**:
//! [`ShardedEngine::absorb`] appends time-ordered events through an
//! [`AppendableGraph`] and publishes each batch as a fresh immutable
//! snapshot (an epoch-tagged [`Arc`]-swap, the only point where ingestion
//! and queries serialize).  Because appends only land past the seal
//! watermark, closed shards' edge slices — and every `EdgeId` inside
//! them — never change, so **closed-shard skylines and stitch entries stay
//! resident and valid across every append**; an absorb purges only the
//! tail-shard skylines and the tail-touching stitch entries (counted in
//! [`CacheStats::tail_invalidations`] / `boundary_invalidations`).  A
//! [`crate::SealPolicy`] (or [`ShardedEngine::seal_tail`]) rolls the tail
//! into a closed shard, making its indexes permanent; the next advancing
//! batch opens a fresh tail.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::{Duration, Instant};

use crate::backend::{validate_query, CoreBackend};
use crate::ecs::{EdgeCoreSkyline, SkylineScratch};
use crate::engine::{
    aggregate_batch, batch_executor, fan_out_batch, validate_batch, BatchStats, BoundaryCacheStats,
    CacheStats, EngineConfig, ShardCacheStats, WarmStats,
};
use crate::error::TkError;
use crate::exec::{run_batch_inner, ExecPool};
use crate::ingest::{AbsorbStats, IngestEvent};
use crate::query::{Algorithm, QueryStats, TimeRangeKCoreQuery};
use crate::request::QueryRequest;
use crate::sink::{CountingSink, ResultSink};
use crate::sync;
use temporal_graph::{AppendableGraph, TemporalGraph, TimeWindow, Timestamp};

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

/// How long a cached skyline or stitch entry stays correct under live
/// ingestion.
///
/// Entries built over **closed** shards are [`Validity::Permanent`]: appends
/// only land past the seal watermark, so a closed shard's edge slice (and
/// every `EdgeId` inside it) never changes again.  Entries touching the live
/// tail are tagged with the [`LiveState::epoch`] they were built at and die
/// on the next absorb, which bumps the epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Validity {
    /// Built over closed shards only; valid for the engine's lifetime.
    Permanent,
    /// Built against the live tail at this epoch; stale once the epoch
    /// moves on.
    Epoch(u64),
}

impl Validity {
    fn is_current(self, epoch: u64) -> bool {
        match self {
            Validity::Permanent => true,
            Validity::Epoch(e) => e == epoch,
        }
    }
}

struct ShardCacheEntry {
    skyline: Arc<EdgeCoreSkyline>,
    last_used: u64,
    validity: Validity,
}

/// LRU cache of per-`(shard, k)` skylines with per-shard counters.
struct ShardCache {
    entries: HashMap<(usize, usize), ShardCacheEntry>,
    clock: u64,
    resident_bytes: usize,
    budget: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    tail_invalidations: u64,
    seals: u64,
    warm: WarmStats,
    per_shard: Vec<ShardCacheStats>,
}

impl ShardCache {
    fn new(budget: usize, num_shards: usize) -> Self {
        Self {
            entries: HashMap::new(),
            clock: 0,
            resident_bytes: 0,
            budget,
            hits: 0,
            misses: 0,
            evictions: 0,
            tail_invalidations: 0,
            seals: 0,
            warm: WarmStats::default(),
            per_shard: (0..num_shards)
                .map(|shard| ShardCacheStats {
                    shard,
                    ..ShardCacheStats::default()
                })
                .collect(),
        }
    }

    /// Grows the per-shard counter table when an absorb opens a new tail
    /// shard (shards are only ever appended, never reordered).
    fn ensure_shards(&mut self, num_shards: usize) {
        while self.per_shard.len() < num_shards {
            self.per_shard.push(ShardCacheStats {
                shard: self.per_shard.len(),
                ..ShardCacheStats::default()
            });
        }
    }

    fn drop_entry(&mut self, key: (usize, usize)) -> bool {
        let Some(removed) = self.entries.remove(&key) else {
            return false;
        };
        let bytes = removed.skyline.memory_bytes();
        self.resident_bytes -= bytes;
        self.per_shard[key.0].resident_bytes -= bytes;
        self.per_shard[key.0].resident_indexes -= 1;
        true
    }

    /// A validity-aware hit requires the entry to be `Permanent` or built at
    /// the caller's `epoch`; a stale tail entry that escaped the absorb-time
    /// purge (an adopt racing the absorb) is dropped here and counted as
    /// both a miss and a tail invalidation.
    fn get(&mut self, shard: usize, k: usize, epoch: u64) -> Option<Arc<EdgeCoreSkyline>> {
        self.clock += 1;
        let clock = self.clock;
        match self.entries.get_mut(&(shard, k)) {
            Some(entry) if entry.validity.is_current(epoch) => {
                entry.last_used = clock;
                self.hits += 1;
                self.per_shard[shard].hits += 1;
                Some(Arc::clone(&entry.skyline))
            }
            Some(_) => {
                self.drop_entry((shard, k));
                self.tail_invalidations += 1;
                self.misses += 1;
                None
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Whether a currently valid entry is resident, without touching the
    /// hit/miss counters (the `warm` probe).
    fn is_resident(&self, shard: usize, k: usize, epoch: u64) -> bool {
        self.entries
            .get(&(shard, k))
            .is_some_and(|e| e.validity.is_current(epoch))
    }

    /// Inserts a freshly built shard skyline unless another thread won the
    /// race, then evicts LRU entries (never the key itself) down to the
    /// budget.  Counts a build only when the insert actually happened.
    fn adopt(
        &mut self,
        shard: usize,
        k: usize,
        built: Arc<EdgeCoreSkyline>,
        validity: Validity,
    ) -> Arc<EdgeCoreSkyline> {
        self.clock += 1;
        let clock = self.clock;
        let key = (shard, k);
        let skyline = match self.entries.get_mut(&key) {
            Some(existing) => {
                existing.last_used = clock;
                Arc::clone(&existing.skyline)
            }
            None => {
                let bytes = built.memory_bytes();
                self.resident_bytes += bytes;
                self.per_shard[shard].builds += 1;
                self.per_shard[shard].resident_bytes += bytes;
                self.per_shard[shard].resident_indexes += 1;
                self.entries.insert(
                    key,
                    ShardCacheEntry {
                        skyline: Arc::clone(&built),
                        last_used: clock,
                        validity,
                    },
                );
                built
            }
        };
        while self.resident_bytes > self.budget && self.entries.len() > 1 {
            let Some((&victim, _)) = self
                .entries
                .iter()
                .filter(|(&other, _)| other != key)
                .min_by_key(|(_, e)| e.last_used)
            else {
                break;
            };
            // tkc-lint: allow(no-panic-api) — the victim key was just yielded by iterating `entries`
            let removed = self.entries.remove(&victim).expect("victim present");
            let bytes = removed.skyline.memory_bytes();
            self.resident_bytes -= bytes;
            self.per_shard[victim.0].resident_bytes -= bytes;
            self.per_shard[victim.0].resident_indexes -= 1;
            self.evictions += 1;
        }
        skyline
    }

    /// Drops every non-permanent entry (the live tail's skylines) after an
    /// absorb changed the tail, counting them into
    /// [`CacheStats::tail_invalidations`].  Closed-shard skylines are
    /// untouched — they stay resident and valid across every append.
    // tkc-lint: hot
    fn invalidate_tail(&mut self) -> u64 {
        let mut dropped = 0u64;
        let mut freed_total = 0usize;
        let per_shard = &mut self.per_shard;
        self.entries.retain(|key, entry| {
            if entry.validity == Validity::Permanent {
                return true;
            }
            let bytes = entry.skyline.memory_bytes();
            freed_total += bytes;
            per_shard[key.0].resident_bytes -= bytes;
            per_shard[key.0].resident_indexes -= 1;
            dropped += 1;
            false
        });
        self.resident_bytes -= freed_total;
        self.tail_invalidations += dropped;
        dropped
    }

    /// Seals shard `tail` without a timeline change: entries built for it at
    /// `epoch` cover exactly the sealed window and are upgraded to
    /// [`Validity::Permanent`]; stale-epoch leftovers are dropped.
    fn seal_shard(&mut self, tail: usize, epoch: u64) {
        let mut freed_total = 0usize;
        let per_shard = &mut self.per_shard;
        self.entries.retain(|key, entry| {
            if entry.validity.is_current(epoch) {
                if entry.validity != Validity::Permanent {
                    debug_assert_eq!(key.0, tail, "only the tail carries epoch validity");
                    entry.validity = Validity::Permanent;
                }
                return true;
            }
            let bytes = entry.skyline.memory_bytes();
            freed_total += bytes;
            per_shard[key.0].resident_bytes -= bytes;
            per_shard[key.0].resident_indexes -= 1;
            false
        });
        self.resident_bytes -= freed_total;
        self.seals += 1;
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            resident_bytes: self.resident_bytes,
            resident_indexes: self.entries.len(),
            tail_invalidations: self.tail_invalidations,
            boundary_invalidations: 0,
            seals: self.seals,
            warm: self.warm,
            per_shard: self.per_shard.clone(),
            boundary: BoundaryCacheStats::default(),
        }
    }
}

struct BoundaryEntry {
    /// Cut-crossing minimal core windows of the merged window of the
    /// entry's shard range (a filtered, **incomplete** skyline — only
    /// usable through [`compose_boundary_skyline`]).
    crossing: Arc<EdgeCoreSkyline>,
    last_used: u64,
    validity: Validity,
}

/// LRU cache of boundary-stitch entries, keyed by `(lo shard, hi shard, k)`.
struct BoundaryCache {
    entries: HashMap<(usize, usize, usize), BoundaryEntry>,
    /// Maximum resident entries (at least one is always kept).
    capacity: usize,
    clock: u64,
    builds: u64,
    hits: u64,
    evictions: u64,
    invalidations: u64,
    resident_bytes: usize,
}

impl BoundaryCache {
    fn new(capacity: usize) -> Self {
        Self {
            entries: HashMap::new(),
            capacity,
            clock: 0,
            builds: 0,
            hits: 0,
            evictions: 0,
            invalidations: 0,
            resident_bytes: 0,
        }
    }

    fn get(&mut self, lo: usize, hi: usize, k: usize, epoch: u64) -> Option<Arc<EdgeCoreSkyline>> {
        self.clock += 1;
        let clock = self.clock;
        let entry = self.entries.get_mut(&(lo, hi, k))?;
        if !entry.validity.is_current(epoch) {
            // A stale tail-touching entry that escaped the absorb purge.
            let removed = self.entries.remove(&(lo, hi, k))?;
            self.resident_bytes -= removed.crossing.memory_bytes();
            self.invalidations += 1;
            return None;
        }
        entry.last_used = clock;
        self.hits += 1;
        Some(Arc::clone(&entry.crossing))
    }

    /// Inserts a freshly built stitch entry unless another thread won the
    /// race, then evicts LRU entries (never the key itself) down to the
    /// entry budget.
    fn adopt(
        &mut self,
        lo: usize,
        hi: usize,
        k: usize,
        built: Arc<EdgeCoreSkyline>,
        validity: Validity,
    ) -> Arc<EdgeCoreSkyline> {
        self.clock += 1;
        let clock = self.clock;
        let key = (lo, hi, k);
        let crossing = match self.entries.get_mut(&key) {
            Some(existing) => {
                existing.last_used = clock;
                Arc::clone(&existing.crossing)
            }
            None => {
                self.builds += 1;
                self.resident_bytes += built.memory_bytes();
                self.entries.insert(
                    key,
                    BoundaryEntry {
                        crossing: Arc::clone(&built),
                        last_used: clock,
                        validity,
                    },
                );
                built
            }
        };
        while self.entries.len() > self.capacity.max(1) {
            let Some((&victim, _)) = self
                .entries
                .iter()
                .filter(|(&other, _)| other != key)
                .min_by_key(|(_, e)| e.last_used)
            else {
                break;
            };
            // tkc-lint: allow(no-panic-api) — the victim key was just yielded by iterating `entries`
            let removed = self.entries.remove(&victim).expect("victim present");
            self.resident_bytes -= removed.crossing.memory_bytes();
            self.evictions += 1;
        }
        crossing
    }

    /// Drops every non-permanent entry (stitch entries whose shard range
    /// touches the live tail) after an absorb changed the tail, counting
    /// them into [`CacheStats::boundary_invalidations`].
    // tkc-lint: hot
    fn invalidate_tail(&mut self) -> u64 {
        let mut dropped = 0u64;
        let mut freed_total = 0usize;
        self.entries.retain(|_, entry| {
            if entry.validity == Validity::Permanent {
                return true;
            }
            freed_total += entry.crossing.memory_bytes();
            dropped += 1;
            false
        });
        self.resident_bytes -= freed_total;
        self.invalidations += dropped;
        dropped
    }

    /// Seals the tail without a timeline change: current-epoch entries are
    /// upgraded to [`Validity::Permanent`], stale-epoch leftovers dropped.
    fn seal_range(&mut self, epoch: u64) {
        let mut freed_total = 0usize;
        self.entries.retain(|_, entry| {
            if entry.validity.is_current(epoch) {
                entry.validity = Validity::Permanent;
                return true;
            }
            freed_total += entry.crossing.memory_bytes();
            false
        });
        self.resident_bytes -= freed_total;
    }

    fn stats(&self) -> BoundaryCacheStats {
        BoundaryCacheStats {
            builds: self.builds,
            hits: self.hits,
            evictions: self.evictions,
            resident_bytes: self.resident_bytes,
            resident_entries: self.entries.len(),
        }
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.resident_bytes = 0;
    }
}

/// Reassembles the exact skyline of `window` from the restricted per-shard
/// skylines (`parts`, in timeline order, jointly covering `window`) and the
/// cached cut-crossing windows (`crossing`, built over a superset range).
///
/// Minimality of a core window is a property of the graph alone, so the
/// skyline of `window` is the disjoint union of the windows fitting inside
/// one shard's slice (found in `parts`) and the cut-crossing ones (a
/// contiguous containment slice of `crossing`, whose per-edge windows keep
/// both endpoints strictly increasing).  A per-edge two-way merge by start
/// time reproduces skyline order.  Cost: `O(|E_W| + |ECS_W|)` — the same as
/// [`EdgeCoreSkyline::restrict`], with no CoreTime sweep.  The merge is
/// emitted straight into CSR buffers taken from `scratch` (edges are walked
/// in increasing id order, so each edge's run lands contiguously at the
/// tail of the flat array), so a warm pool makes composition
/// allocation-free per query.
// tkc-lint: hot
fn compose_boundary_skyline(
    graph: &TemporalGraph,
    k: usize,
    window: TimeWindow,
    parts: &[EdgeCoreSkyline],
    crossing: &EdgeCoreSkyline,
    scratch: &mut SkylineScratch,
) -> EdgeCoreSkyline {
    let edge_range = graph.edge_ids_in(window);
    let first_edge = edge_range.start;
    let num_edges = (edge_range.end - edge_range.start) as usize;
    let (mut offsets, mut flat) = scratch.take();
    offsets.reserve(num_edges + 1);
    offsets.push(0);
    for id in edge_range {
        let cw = crossing.windows(id);
        let lo = cw.partition_point(|w| w.start() < window.start());
        let hi = cw.partition_point(|w| w.end() <= window.end());
        let cross = if lo < hi { &cw[lo..hi] } else { &[] };
        let mut cross_iter = cross.iter().copied().peekable();
        for part in parts {
            for &w in part.windows(id) {
                while let Some(&c) = cross_iter.peek() {
                    if c.start() < w.start() {
                        flat.push(c);
                        cross_iter.next();
                    } else {
                        break;
                    }
                }
                flat.push(w);
            }
        }
        flat.extend(cross_iter);
        offsets.push(flat.len() as u32);
    }
    EdgeCoreSkyline::from_parts(k, window, first_edge, offsets, flat)
}

/// The query engine: a per-`(shard, k)` skyline cache over time-interval
/// shards, exact boundary stitching through a cached
/// [`CacheStats::boundary`] index, and a batch surface fanning queries
/// across a persistent [`ExecPool`].  [`ShardPlan::Span`] gives the
/// unsharded engine (one span-wide skyline per `k`).
///
/// See the [module documentation](self) for the sharding layout and the
/// exactness argument.
///
/// # Example
///
/// ```
/// use tkcore::{paper_example, ShardPlan, ShardedEngine, TimeRangeKCoreQuery, CountingSink};
/// use temporal_graph::TimeWindow;
///
/// let engine = ShardedEngine::new(paper_example::graph(), ShardPlan::FixedCount(4)).unwrap();
/// assert_eq!(engine.num_shards(), 4);
/// let mut sink = CountingSink::default();
/// let query = TimeRangeKCoreQuery::new(2, TimeWindow::new(1, 4)).unwrap();
/// let stats = engine.run(&query, &mut sink).unwrap();
/// assert_eq!(stats.num_cores, 2); // Figure 2 of the paper, stitched across shards
/// ```
///
/// [`BatchStats`] shows the unsharded engine serving a batch from one
/// span-wide skyline.
pub struct ShardedEngine {
    inner: Arc<ShardInner>,
}

/// One published, immutable view of the live engine: a graph snapshot plus
/// the shard layout over it.  Queries clone the `Arc` once at entry and run
/// entirely against that view, so an [`ShardedEngine::absorb`] racing them
/// swaps in a new state without ever exposing a partial batch.
struct LiveState {
    /// Bumped by every absorb and seal; tags tail-touching cache entries.
    epoch: u64,
    graph: Arc<TemporalGraph>,
    /// Contiguous shard intervals covering `[1, graph.tmax()]`.
    shards: Vec<TimeWindow>,
    /// `shards[..sealed]` are closed (immutable forever); the rest — at most
    /// one shard — is the live tail that appends land in.
    sealed: usize,
}

impl LiveState {
    /// Indexes of the shards overlapping `window` (always non-empty for a
    /// validated, span-clamped window).
    fn overlapping(&self, window: TimeWindow) -> std::ops::Range<usize> {
        let lo = self.shards.partition_point(|s| s.end() < window.start());
        let hi = self.shards.partition_point(|s| s.start() <= window.end());
        lo..hi
    }

    /// Validity of a skyline covering exactly shard `shard` of this state.
    fn shard_validity(&self, shard: usize) -> Validity {
        if shard < self.sealed {
            Validity::Permanent
        } else {
            Validity::Epoch(self.epoch)
        }
    }

    /// Validity of a stitch entry over shard range `lo..=hi` of this state.
    fn range_validity(&self, hi: usize) -> Validity {
        if hi < self.sealed {
            Validity::Permanent
        } else {
            Validity::Epoch(self.epoch)
        }
    }
}

/// The write side of live ingestion: the appendable event buffer plus the
/// running size of the tail shard, guarded by one mutex so absorbs are
/// serialized with each other (queries never take this lock).
struct IngestState {
    appendable: AppendableGraph,
    /// Edge occurrences currently in the tail shard (seeds from the base
    /// graph's tail slice; reset on seal).
    tail_edges: usize,
}

/// The shared core of a [`ShardedEngine`], behind one `Arc` so batch tasks
/// handed to the persistent pool are `'static`.
///
/// Lock order (enforced by tkc-lint's global lock-order rule): `ingest` →
/// `live` → `cache` → `boundary`.  Queries take `live` alone (one `Arc`
/// clone) and then `cache`/`boundary`/`scratch` one at a time; only the
/// ingest path nests.
struct ShardInner {
    config: EngineConfig,
    live: Mutex<Arc<LiveState>>,
    ingest: Mutex<IngestState>,
    /// Every graph snapshot this engine has published, weakly.  Lets
    /// [`ShardedBackend::serves`] keep accepting a snapshot captured just
    /// before a racing absorb swapped in a newer one (pruned as readers
    /// drop their `Arc`s).
    lineage: Mutex<Vec<Weak<TemporalGraph>>>,
    cache: Mutex<ShardCache>,
    boundary: Mutex<BoundaryCache>,
    /// Recycled per-edge window tables for restriction / stitch composition
    /// (taken whole per query, handed back via `absorb`; never held across
    /// another lock).
    scratch: Mutex<SkylineScratch>,
    pool: OnceLock<Arc<ExecPool>>,
    /// Test-only fail point: while non-zero, each absorb decrements it and
    /// panics before touching any state (see
    /// [`ShardedEngine::fail_next_absorbs`]).
    absorb_failpoints: AtomicU64,
}

impl ShardedEngine {
    /// Creates a sharded engine with the default [`EngineConfig`].
    ///
    /// # Errors
    /// [`TkError::InvalidShardPlan`] when `plan` does not resolve against
    /// the graph (see [`ShardPlan::resolve`]).
    pub fn new(graph: TemporalGraph, plan: ShardPlan) -> Result<Self, TkError> {
        Self::with_config(graph, plan, EngineConfig::default())
    }

    /// Creates a sharded engine with an explicit configuration.  The memory
    /// budget bounds the summed resident bytes of **all** shard skylines.
    ///
    /// The last shard of the resolved plan becomes the **live tail**:
    /// [`ShardedEngine::absorb`] appends into it, and every earlier shard
    /// is closed from the start (its skylines are permanently valid).
    ///
    /// # Errors
    /// [`TkError::InvalidShardPlan`] when `plan` does not resolve.
    pub fn with_config(
        graph: TemporalGraph,
        plan: ShardPlan,
        config: EngineConfig,
    ) -> Result<Self, TkError> {
        let shards = plan.resolve(&graph)?;
        let cache = Mutex::new(ShardCache::new(config.memory_budget_bytes, shards.len()));
        let boundary = Mutex::new(BoundaryCache::new(config.boundary_cache_entries));
        let sealed = shards.len() - 1;
        let mut appendable = AppendableGraph::from_graph(graph);
        if sealed > 0 {
            appendable.raise_floor(shards[sealed - 1].end());
        }
        let snapshot = appendable.snapshot();
        let tail_edges = snapshot.num_edges_in(shards[sealed]);
        let live = Arc::new(LiveState {
            epoch: 0,
            graph: Arc::clone(&snapshot),
            shards,
            sealed,
        });
        Ok(Self {
            inner: Arc::new(ShardInner {
                config,
                live: Mutex::new(live),
                ingest: Mutex::new(IngestState {
                    appendable,
                    tail_edges,
                }),
                lineage: Mutex::new(vec![Arc::downgrade(&snapshot)]),
                cache,
                boundary,
                scratch: Mutex::new(SkylineScratch::default()),
                pool: OnceLock::new(),
                absorb_failpoints: AtomicU64::new(0),
            }),
        })
    }

    /// Creates a sharded engine whose batches execute on an existing
    /// persistent `pool` (typically shared with the [`crate::CoreService`]
    /// that owns the engine) instead of a lazily created private one.
    ///
    /// # Errors
    /// [`TkError::InvalidShardPlan`] when `plan` does not resolve.
    pub fn with_pool(
        graph: TemporalGraph,
        plan: ShardPlan,
        config: EngineConfig,
        pool: Arc<ExecPool>,
    ) -> Result<Self, TkError> {
        let engine = Self::with_config(graph, plan, config)?;
        engine
            .inner
            .pool
            .set(pool)
            .ok()
            // tkc-lint: allow(no-panic-api) — the OnceLock is set exactly once, on a freshly constructed engine
            .expect("fresh engine has no pool yet");
        Ok(engine)
    }

    /// Adopts `pool` for this engine's batches if it has not already
    /// created or been given one; returns whether the pool was installed.
    /// Lets [`crate::CoreService::over_sharded`] share its worker pool with
    /// a caller-constructed engine instead of the engine lazily spawning a
    /// second private pool.
    pub fn adopt_pool(&self, pool: Arc<ExecPool>) -> bool {
        self.inner.pool.set(pool).is_ok()
    }

    /// The graph snapshot this engine currently serves queries against.
    ///
    /// Under live ingestion this is a point-in-time view: a later
    /// [`ShardedEngine::absorb`] publishes a new snapshot without mutating
    /// the returned one, so callers can keep using it (its `EdgeId`s for
    /// sealed timestamps stay valid) while new queries see fresher data.
    pub fn graph(&self) -> Arc<TemporalGraph> {
        Arc::clone(&self.inner.live_now().graph)
    }

    /// The resolved shard intervals, contiguous and covering `[1, tmax]`.
    /// The last one is the live tail while ingestion is open.
    pub fn shards(&self) -> Vec<TimeWindow> {
        self.inner.live_now().shards.clone()
    }

    /// Number of time-interval shards (closed shards plus the live tail).
    pub fn num_shards(&self) -> usize {
        self.inner.live_now().shards.len()
    }

    /// Number of closed (sealed, immutable) shards; the remaining shards —
    /// at most one — form the live tail.
    pub fn sealed_shards(&self) -> usize {
        self.inner.live_now().sealed
    }

    /// The smallest timestamp the ingest lane currently accepts: appends
    /// must carry `t >= watermark()`.
    pub fn watermark(&self) -> Timestamp {
        sync::lock(&self.inner.ingest).appendable.watermark()
    }

    /// Appends a batch of time-ordered events and publishes them as a new
    /// immutable snapshot, atomically: concurrent queries observe either
    /// none of the batch or all of it, never a prefix.
    ///
    /// Only tail-shard skylines and tail-touching boundary-stitch entries
    /// are invalidated (counted in the returned [`AbsorbStats`] and in
    /// [`CacheStats`]); closed-shard skylines stay resident and valid.
    /// After the batch, the configured [`crate::SealPolicy`] may roll the
    /// tail into a closed shard; the next advancing batch then opens a
    /// fresh tail shard.
    ///
    /// # Errors
    /// [`TkError::AppendOutOfOrder`], [`TkError::AppendDuplicate`] or
    /// [`TkError::AppendRejected`] when any event is refused — the whole
    /// batch is then rejected and no state changes.
    pub fn absorb(&self, batch: &[IngestEvent]) -> Result<AbsorbStats, TkError> {
        if self
            .inner
            .absorb_failpoints
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_ok()
        {
            // tkc-lint: allow(no-panic-api) — test-only fail point armed by fail_next_absorbs; simulates a worker dying on the absorb path before any state changes
            panic!("injected absorb fail point");
        }
        self.inner.absorb(batch)
    }

    /// Arms a test-only fail point: the next `n` calls to
    /// [`ShardedEngine::absorb`] panic before touching any state, as if the
    /// absorbing worker died mid-batch.  Lets tests prove the service's
    /// ingest lane converts worker death into
    /// [`TkError::WorkerPanicked`] instead of hanging the ticket.  No state
    /// is mutated by the injected panic, so the engine remains fully usable.
    #[doc(hidden)]
    pub fn fail_next_absorbs(&self, n: u64) {
        self.inner.absorb_failpoints.store(n, Ordering::Relaxed);
    }

    /// Poisons the skyline-cache mutex by panicking while holding its guard,
    /// so tests can prove every later caller recovers it instead of
    /// wedging.  Returns whether the mutex ended up poisoned.
    #[cfg(test)]
    pub(crate) fn poison_cache_lock(&self) -> bool {
        let inner = Arc::clone(&self.inner);
        let poisoner = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = inner.cache.lock().expect("not poisoned yet");
            panic!("poison the shard cache lock");
        }));
        poisoner.is_err() && self.inner.cache.is_poisoned()
    }

    /// Seals the live tail shard manually (independent of the configured
    /// [`crate::SealPolicy`]): its skylines become permanently valid, the
    /// append watermark rises past its end, and the next advancing batch
    /// opens a fresh tail.  A no-op returning `sealed: false` when there is
    /// no open tail.
    pub fn seal_tail(&self) -> AbsorbStats {
        self.inner.seal_tail()
    }

    /// Whether `graph` is a snapshot this engine published (the current one
    /// or an earlier one still held alive by a reader).
    pub(crate) fn is_snapshot(&self, graph: &TemporalGraph) -> bool {
        sync::lock(&self.inner.lineage)
            .iter()
            .any(|w| w.upgrade().is_some_and(|g| std::ptr::eq(&*g, graph)))
    }

    /// Current cache counters; [`CacheStats::per_shard`] holds one entry per
    /// shard with its build/hit/residency counters and
    /// [`CacheStats::boundary`] the stitch-index counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.cache_stats()
    }

    /// Indexes of the shards overlapping `window`, in timeline order
    /// (always non-empty for a validated, span-clamped window).  This is
    /// the routing key of [`crate::CoreService`]'s shard-affine scheduling.
    pub fn overlapping_shards(&self, window: TimeWindow) -> std::ops::Range<usize> {
        self.inner.live_now().overlapping(window)
    }

    /// Warms every shard skyline for `k`, fanning the missing builds
    /// across the engine's [`ExecPool`] (shard skylines build
    /// independently, so a cold warm finishes in roughly the time of the
    /// largest shard instead of the sum); returns whether all of them were
    /// already resident.
    ///
    /// Cache accounting matches the serial warm exactly — one hit or miss
    /// per shard, single-flight adoption, live-tail epoch tagging — and the
    /// warm's wall-clock vs summed per-entry build times land in
    /// [`CacheStats::warm`].
    pub fn warm(&self, k: usize) -> bool {
        let t0 = Instant::now();
        let live = self.inner.live_now();
        let num_shards = live.shards.len();
        let all_resident = {
            let cache = sync::lock(&self.inner.cache);
            (0..num_shards).all(|shard| cache.is_resident(shard, k, live.epoch))
        };
        let (_, entries_built, build_time) = self.inner.shard_skylines(&live, 0..num_shards, k);
        let mut cache = sync::lock(&self.inner.cache);
        cache.warm.warms += 1;
        cache.warm.entries_built += entries_built;
        cache.warm.build_time += build_time;
        cache.warm.wall_time += t0.elapsed();
        all_resident
    }

    /// Drops every cached shard skyline and stitch entry, keeping the
    /// counters.
    pub fn clear_cache(&self) {
        let mut cache = sync::lock(&self.inner.cache);
        cache.entries.clear();
        cache.resident_bytes = 0;
        for shard in cache.per_shard.iter_mut() {
            shard.resident_bytes = 0;
            shard.resident_indexes = 0;
        }
        drop(cache);
        sync::lock(&self.inner.boundary).clear();
    }

    /// Runs one query with the paper's final algorithm, streaming results
    /// into `sink`.
    ///
    /// # Errors
    /// See [`ShardedEngine::run_with`].
    pub fn run(
        &self,
        query: &TimeRangeKCoreQuery,
        sink: &mut dyn ResultSink,
    ) -> Result<QueryStats, TkError> {
        self.run_with(query, Algorithm::Enum, sink)
    }

    /// Runs one query with the chosen algorithm.
    ///
    /// `Enum` and `EnumBase` answer from the window's skyline — a restricted
    /// shard skyline, or for a window spanning shard cuts the restricted
    /// shard skylines stitched with the cached cut-crossing windows; `Otcd`
    /// and `Naive` have no reusable index and run exactly as
    /// [`TimeRangeKCoreQuery::run_with`] does.
    ///
    /// The enumerator runs once over a skyline identical to a fresh build
    /// for the window, so cores stream in exactly the order
    /// [`TimeRangeKCoreQuery::run_with`] emits them, whatever the plan.
    ///
    /// # Errors
    /// The validation errors of [`QueryRequest::validate`].
    pub fn run_with(
        &self,
        query: &TimeRangeKCoreQuery,
        algorithm: Algorithm,
        sink: &mut dyn ResultSink,
    ) -> Result<QueryStats, TkError> {
        // One consistent live view for validation and execution: a racing
        // absorb cannot swap the graph between the two.
        let live = self.inner.live_now();
        let range = query.range();
        let validated =
            QueryRequest::single(query.k(), range.start(), range.end()).validate(&live.graph)?;
        Ok(self
            .inner
            .run_validated(&live, query.k(), validated.window(), algorithm, sink))
    }

    /// Runs a batch of queries with `Enum`, counting results per query.
    ///
    /// # Errors
    /// See [`ShardedEngine::run_batch_with`].
    pub fn run_batch(
        &self,
        queries: &[TimeRangeKCoreQuery],
    ) -> Result<(Vec<(CountingSink, QueryStats)>, BatchStats), TkError> {
        self.run_batch_with(queries, Algorithm::Enum, |_| CountingSink::default())
    }

    /// Fans `queries` across the persistent pool (plus the calling thread),
    /// one fresh sink per query, with workers warming different shards in
    /// parallel.  `make_sink(i)` builds the sink for `queries[i]`; results
    /// come back in query order together with per-query [`QueryStats`] and
    /// aggregated [`BatchStats`].
    ///
    /// # Errors
    /// Every query is validated up front; the first invalid query fails the
    /// whole batch before any work starts.
    pub fn run_batch_with<S, F>(
        &self,
        queries: &[TimeRangeKCoreQuery],
        algorithm: Algorithm,
        make_sink: F,
    ) -> Result<(Vec<(S, QueryStats)>, BatchStats), TkError>
    where
        S: ResultSink + Send + 'static,
        F: Fn(usize) -> S + Send + Sync + 'static,
    {
        let t0 = Instant::now();
        // The whole batch runs against one live view, so its queries are
        // mutually consistent even while absorbs land concurrently.
        let live = self.inner.live_now();
        let validated = Arc::new(validate_batch(&live.graph, queries)?);
        let (threads, pool) = batch_executor(
            &self.inner.pool,
            self.inner.config.num_threads,
            validated.len(),
        );
        let inner = Arc::clone(&self.inner);
        let per_query = fan_out_batch(pool, validated, make_sink, move |k, window, sink| {
            inner.run_validated(&live, k, window, algorithm, sink)
        });
        let batch = aggregate_batch(&per_query, t0.elapsed(), threads, self.cache_stats());
        Ok((per_query, batch))
    }
}

impl ShardInner {
    /// The current live view, cloned out from under a short lock.  Callers
    /// hold the returned `Arc` for the whole query, never the lock.
    fn live_now(&self) -> Arc<LiveState> {
        Arc::clone(&sync::lock(&self.live))
    }

    fn cache_stats(&self) -> CacheStats {
        let mut stats = sync::lock(&self.cache).stats();
        let boundary = sync::lock(&self.boundary);
        stats.boundary_invalidations = boundary.invalidations;
        stats.boundary = boundary.stats();
        stats
    }

    /// Absorbs one ingest batch: append + publish, recompute the tail
    /// window, apply the seal policy, swap the live state and purge exactly
    /// the tail-dependent cache entries.  See [`ShardedEngine::absorb`].
    fn absorb(&self, batch: &[IngestEvent]) -> Result<AbsorbStats, TkError> {
        let mut ingest = sync::lock(&self.ingest);
        if batch.is_empty() {
            let live = self.live_now();
            return Ok(AbsorbStats {
                tmax: live.graph.tmax(),
                num_shards: live.shards.len(),
                sealed_shards: live.sealed,
                ..AbsorbStats::default()
            });
        }
        let appended = ingest.appendable.append_batch(batch)?;
        let snapshot = ingest.appendable.publish();
        let old = self.live_now();
        let new_tmax = snapshot.tmax();
        let mut shards = old.shards.clone();
        let mut sealed = old.sealed;
        if sealed == shards.len() {
            // The previous absorb (or a manual seal) closed the tail: this
            // batch opens a fresh one right after it.
            let start = shards.last().map_or(1, |s| s.end() + 1);
            shards.push(TimeWindow::new(start, new_tmax));
            ingest.tail_edges = 0;
        } else {
            let tail = shards.len() - 1;
            shards[tail] = TimeWindow::new(shards[tail].start(), new_tmax);
        }
        ingest.tail_edges += appended;
        let tail_idx = shards.len() - 1;
        let mut did_seal = false;
        if self
            .config
            .seal_policy
            .should_seal(ingest.tail_edges, shards[tail_idx])
        {
            sealed = shards.len();
            ingest.appendable.raise_floor(new_tmax);
            ingest.tail_edges = 0;
            did_seal = true;
        }
        let state = Arc::new(LiveState {
            epoch: old.epoch + 1,
            graph: Arc::clone(&snapshot),
            shards,
            sealed,
        });
        {
            let mut lineage = sync::lock(&self.lineage);
            lineage.retain(|w| w.strong_count() > 0);
            lineage.push(Arc::downgrade(&snapshot));
        }
        let num_shards = state.shards.len();
        *sync::lock(&self.live) = Arc::clone(&state);
        // The batch extended the tail window, so even on a sealing absorb
        // the pre-batch tail entries describe a narrower window: purge every
        // non-permanent entry.  Closed-shard skylines are untouched.
        let mut cache = sync::lock(&self.cache);
        cache.ensure_shards(num_shards);
        let tail_invalidations = cache.invalidate_tail();
        if did_seal {
            cache.seals += 1;
        }
        drop(cache);
        let boundary_invalidations = sync::lock(&self.boundary).invalidate_tail();
        Ok(AbsorbStats {
            appended,
            tail_invalidations,
            boundary_invalidations,
            sealed: did_seal,
            tmax: new_tmax,
            num_shards,
            sealed_shards: sealed,
        })
    }

    /// Manual tail seal with no timeline change: current tail entries cover
    /// exactly the sealed window, so they are upgraded to permanent rather
    /// than purged.  See [`ShardedEngine::seal_tail`].
    fn seal_tail(&self) -> AbsorbStats {
        let mut ingest = sync::lock(&self.ingest);
        let old = self.live_now();
        let num_shards = old.shards.len();
        if old.sealed == num_shards {
            return AbsorbStats {
                tmax: old.graph.tmax(),
                num_shards,
                sealed_shards: old.sealed,
                ..AbsorbStats::default()
            };
        }
        ingest.appendable.raise_floor(old.graph.tmax());
        ingest.tail_edges = 0;
        let state = Arc::new(LiveState {
            epoch: old.epoch + 1,
            graph: Arc::clone(&old.graph),
            shards: old.shards.clone(),
            sealed: num_shards,
        });
        *sync::lock(&self.live) = state;
        let mut cache = sync::lock(&self.cache);
        cache.seal_shard(num_shards - 1, old.epoch);
        drop(cache);
        sync::lock(&self.boundary).seal_range(old.epoch);
        AbsorbStats {
            sealed: true,
            tmax: old.graph.tmax(),
            num_shards,
            sealed_shards: num_shards,
            ..AbsorbStats::default()
        }
    }

    /// Returns the skylines of every shard in `shards` for `k` (in shard
    /// order), fanning the builds of the cold ones across the engine's
    /// [`ExecPool`] via `run_batch` — shard skylines build independently, so
    /// a cold spanning query pays roughly the largest overlapped shard's
    /// build instead of the sum (the serial per-shard loop this replaces was
    /// the dominant cold-query latency term).
    ///
    /// Cache semantics are identical to building serially: one `get` per
    /// shard (hit/miss accounting), builds outside the cache lock with
    /// single-flight adoption — two threads racing on the same cold
    /// `(shard, k)` may both build, the loser's copy is dropped — and
    /// live-tail entries tagged with [`LiveState::shard_validity`]'s epoch.
    /// Nested fan-out is deadlock-free because `run_batch`'s calling thread
    /// claims indexes itself.
    ///
    /// Also returns the number of skylines built here and their summed
    /// per-entry build time (wall time is shorter when builds overlap; see
    /// [`WarmStats`]).
    fn shard_skylines(
        &self,
        live: &Arc<LiveState>,
        shards: std::ops::Range<usize>,
        k: usize,
    ) -> (Vec<Arc<EdgeCoreSkyline>>, u64, Duration) {
        let first = shards.start;
        let mut skylines: Vec<Option<Arc<EdgeCoreSkyline>>> = Vec::with_capacity(shards.len());
        let mut missing: Vec<usize> = Vec::new();
        {
            let mut cache = sync::lock(&self.cache);
            for shard in shards {
                let hit = cache.get(shard, k, live.epoch);
                if hit.is_none() {
                    missing.push(shard);
                }
                skylines.push(hit);
            }
        }
        let mut entries_built = 0u64;
        let mut build_time = Duration::ZERO;
        if !missing.is_empty() {
            let (_, pool) = batch_executor(&self.pool, self.config.num_threads, missing.len());
            let task_live = Arc::clone(live);
            let task_shards: Arc<[usize]> = missing.as_slice().into();
            let built = run_batch_inner(pool.as_deref(), missing.len(), move |i| {
                let t = Instant::now();
                let shard = task_shards[i];
                let skyline = Arc::new(EdgeCoreSkyline::build(
                    &task_live.graph,
                    k,
                    task_live.shards[shard],
                ));
                (skyline, t.elapsed())
            });
            let mut cache = sync::lock(&self.cache);
            for (&shard, (skyline, took)) in missing.iter().zip(built) {
                entries_built += 1;
                build_time += took;
                skylines[shard - first] =
                    Some(cache.adopt(shard, k, skyline, live.shard_validity(shard)));
            }
        }
        let skylines = skylines
            .into_iter()
            // tkc-lint: allow(no-panic-api) — every slot is either a cache hit or was adopted just above
            .map(|skyline| skyline.expect("every requested shard skyline resolved"))
            .collect();
        (skylines, entries_built, build_time)
    }

    /// Returns the stitch entry for shard range `lo..=hi` and parameter
    /// `k` — the cut-crossing minimal core windows of the merged window —
    /// building and caching it on a miss (one merged-window sweep, like the
    /// shard skylines built outside the cache lock).  The second component
    /// is the transient peak of that build (the full merged skyline held
    /// while filtering), `0` on a cache hit.
    ///
    /// The build covers the shard range's whole merged window, not just the
    /// triggering query's window, so the entry serves *every* later
    /// spanning window of the range.
    fn stitch_entry(
        &self,
        live: &LiveState,
        lo: usize,
        hi: usize,
        k: usize,
    ) -> (Arc<EdgeCoreSkyline>, usize) {
        if let Some(hit) = sync::lock(&self.boundary).get(lo, hi, k, live.epoch) {
            return (hit, 0);
        }
        let merged_window = TimeWindow::new(live.shards[lo].start(), live.shards[hi].end());
        let cuts: Vec<Timestamp> = (lo..hi).map(|s| live.shards[s].end()).collect();
        let merged = EdgeCoreSkyline::build(&live.graph, k, merged_window);
        let build_peak = merged.memory_bytes();
        let crossing =
            Arc::new(merged.filtered(|w| cuts.iter().any(|&c| w.start() <= c && c < w.end())));
        let adopted =
            sync::lock(&self.boundary).adopt(lo, hi, k, crossing, live.range_validity(hi));
        (adopted, build_peak)
    }

    /// Executes a query whose parameters already passed validation (`k >= 1`,
    /// window inside `live`'s graph span) against one consistent live view.
    fn run_validated(
        &self,
        live: &Arc<LiveState>,
        k: usize,
        window: TimeWindow,
        algorithm: Algorithm,
        sink: &mut dyn ResultSink,
    ) -> QueryStats {
        let query = TimeRangeKCoreQuery::validated(k, window);
        if matches!(algorithm, Algorithm::Otcd | Algorithm::Naive) {
            return query.run_with(&live.graph, algorithm, sink);
        }
        let shards = live.overlapping(window);
        debug_assert!(!shards.is_empty(), "validated window overlaps a shard");
        let t0 = Instant::now();
        // Take the whole scratch pool for this query (short lock, guard
        // dropped immediately); retired skylines are recycled into it and
        // the pool is merged back at the end.
        let mut scratch = std::mem::take(&mut *sync::lock(&self.scratch));
        // Prefetch every overlapping shard's skyline, building the cold ones
        // in parallel on the pool (see `shard_skylines`), and restrict each
        // to its part of the window: the intra-shard windows of the window's
        // skyline.
        let (skylines, _, _) = self.shard_skylines(live, shards.clone(), k);
        let mut parts: Vec<EdgeCoreSkyline> = shards
            .clone()
            .zip(&skylines)
            .map(|(shard, skyline)| {
                let part = live.shards[shard]
                    .intersect(&window)
                    // tkc-lint: allow(no-panic-api) — `shards` only lists shards overlapping `window`, so the intersection is non-empty
                    .expect("overlapping shard intersects the window");
                skyline.restrict_with(&live.graph, part, &mut scratch)
            })
            .collect();
        let mut build_peak = 0;
        let skyline = if parts.len() == 1 {
            // tkc-lint: allow(no-panic-api) — the length was checked just above
            parts.pop().expect("one restricted part")
        } else {
            // A spanning window: merge the cached cut-crossing windows into
            // the restricted parts to reassemble the window's skyline.
            let (crossing, peak) = self.stitch_entry(live, shards.start, shards.end - 1, k);
            build_peak = peak;
            let stitched =
                compose_boundary_skyline(&live.graph, k, window, &parts, &crossing, &mut scratch);
            for part in parts {
                scratch.recycle(part);
            }
            stitched
        };
        let precompute_time = t0.elapsed();
        let mut stats = query
            .run_with_skyline(&live.graph, &skyline, algorithm, sink)
            // tkc-lint: allow(no-panic-api) — the skyline covers exactly the validated window, so validation cannot reject it
            .expect("the window's skyline matches the validated query by construction");
        stats.precompute_time = precompute_time;
        stats.peak_memory_bytes = stats.peak_memory_bytes.max(build_peak);
        scratch.recycle(skyline);
        sync::lock(&self.scratch).absorb(scratch);
        stats
    }
}

/// A [`CoreBackend`] answering from a shared [`ShardedEngine`]'s skyline
/// cache, so engine execution composes with [`QueryRequest`] multi-`k` sets
/// and sweeps and with [`crate::CoreService`].
///
/// Because cached skylines are graph-specific, `execute` refuses a graph
/// other than [`ShardedEngine::graph`] with [`TkError::GraphMismatch`].
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use tkcore::{paper_example, QueryRequest, ShardPlan, ShardedBackend, ShardedEngine};
///
/// let engine = Arc::new(
///     ShardedEngine::new(paper_example::graph(), ShardPlan::FixedCount(3)).unwrap(),
/// );
/// let backend = ShardedBackend::new(Arc::clone(&engine));
/// let response = QueryRequest::sweep(1..=2, 1, 7)
///     .run(&engine.graph(), &backend)
///     .unwrap();
/// assert_eq!(response.outcomes.len(), 2); // one outcome per k
/// ```
#[derive(Clone)]
pub struct ShardedBackend {
    engine: Arc<ShardedEngine>,
    algorithm: Algorithm,
}

impl ShardedBackend {
    /// A sharded backend running the paper's final algorithm (`Enum`).
    pub fn new(engine: Arc<ShardedEngine>) -> Self {
        Self::with_algorithm(engine, Algorithm::Enum)
    }

    /// A sharded backend running the chosen algorithm.
    pub fn with_algorithm(engine: Arc<ShardedEngine>, algorithm: Algorithm) -> Self {
        Self { engine, algorithm }
    }

    /// The engine this backend answers from.
    pub fn engine(&self) -> &ShardedEngine {
        &self.engine
    }

    /// The algorithm this backend runs.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// Pointer equality is the O(1) fast path and an equal clone is
    /// accepted at O(|E|) cost (pass [`ShardedEngine::graph`] on hot
    /// paths).  For live ingestion, any snapshot this engine published is
    /// served, so a query that captured [`ShardedEngine::graph`] just
    /// before a racing [`ShardedEngine::absorb`] still executes (against
    /// the current state) instead of failing with a spurious mismatch.
    fn serves(&self, graph: &TemporalGraph) -> bool {
        self.engine.is_snapshot(graph) || crate::backend::graph_matches(&self.engine.graph(), graph)
    }
}

impl CoreBackend for ShardedBackend {
    fn name(&self) -> &str {
        match self.algorithm {
            Algorithm::Enum => "Sharded(Enum)",
            Algorithm::EnumBase => "Sharded(EnumBase)",
            Algorithm::Otcd => "Sharded(OTCD)",
            Algorithm::Naive => "Sharded(Naive)",
        }
    }

    fn execute(
        &self,
        graph: &TemporalGraph,
        k: usize,
        window: TimeWindow,
        sink: &mut dyn ResultSink,
    ) -> Result<QueryStats, TkError> {
        if !self.serves(graph) {
            return Err(TkError::GraphMismatch);
        }
        let clamped = validate_query(graph, k, window)?;
        self.engine.run_with(
            &TimeRangeKCoreQuery::validated(k, clamped),
            self.algorithm,
            sink,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example;
    use crate::sink::CollectingSink;
    use crate::TemporalKCore;

    fn canonical(mut cores: Vec<TemporalKCore>) -> Vec<TemporalKCore> {
        cores.sort_by(|a, b| a.tti.cmp(&b.tti).then_with(|| a.edges.cmp(&b.edges)));
        cores
    }

    #[test]
    fn plans_resolve_to_contiguous_covers() {
        let g = paper_example::graph(); // tmax = 7
        for plan in [
            ShardPlan::Span,
            ShardPlan::FixedCount(1),
            ShardPlan::FixedCount(3),
            ShardPlan::FixedCount(7),
            ShardPlan::FixedCount(50), // clamped to one shard per timestamp
            ShardPlan::TargetEdgesPerShard(1),
            ShardPlan::TargetEdgesPerShard(4),
            ShardPlan::TargetEdgesPerShard(10_000),
            ShardPlan::ExplicitCuts(vec![]),
            ShardPlan::ExplicitCuts(vec![3]),
            ShardPlan::ExplicitCuts(vec![1, 2, 3, 4, 5, 6]),
        ] {
            let shards = plan.resolve(&g).unwrap_or_else(|e| panic!("{plan:?}: {e}"));
            assert_eq!(shards.first().unwrap().start(), 1, "{plan:?}");
            assert_eq!(shards.last().unwrap().end(), g.tmax(), "{plan:?}");
            for pair in shards.windows(2) {
                assert_eq!(pair[1].start(), pair[0].end() + 1, "{plan:?}");
            }
        }
        assert_eq!(ShardPlan::FixedCount(50).resolve(&g).unwrap().len(), 7);
        assert_eq!(
            ShardPlan::TargetEdgesPerShard(10_000)
                .resolve(&g)
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn malformed_plans_are_typed_errors() {
        let g = paper_example::graph();
        for plan in [
            ShardPlan::FixedCount(0),
            ShardPlan::TargetEdgesPerShard(0),
            ShardPlan::ExplicitCuts(vec![0]),
            ShardPlan::ExplicitCuts(vec![7]), // == tmax: last shard would be empty
            ShardPlan::ExplicitCuts(vec![3, 3]),
            ShardPlan::ExplicitCuts(vec![4, 2]),
        ] {
            assert!(
                matches!(plan.resolve(&g), Err(TkError::InvalidShardPlan { .. })),
                "{plan:?}"
            );
        }
    }

    #[test]
    fn sharded_answers_match_span_wide_on_the_paper_example() {
        let g = paper_example::graph();
        for plan in [
            ShardPlan::Span,
            ShardPlan::FixedCount(1),
            ShardPlan::FixedCount(2),
            ShardPlan::FixedCount(4),
            ShardPlan::FixedCount(7),
            ShardPlan::ExplicitCuts(vec![4]),
        ] {
            let sharded = ShardedEngine::new(g.clone(), plan.clone()).unwrap();
            for k in 1..=3 {
                for window in [
                    g.span(),
                    TimeWindow::new(1, 4),
                    TimeWindow::new(2, 6),
                    TimeWindow::new(4, 4),
                ] {
                    let query = TimeRangeKCoreQuery::new(k, window).unwrap();
                    for algo in Algorithm::ALL {
                        let mut expected = CollectingSink::default();
                        query.run_with(&g, algo, &mut expected);
                        let mut got = CollectingSink::default();
                        sharded.run_with(&query, algo, &mut got).unwrap();
                        assert_eq!(
                            canonical(got.cores),
                            canonical(expected.cores),
                            "{plan:?} k={k} window={window} algo={algo}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn single_shard_queries_build_only_their_shard() {
        let g = paper_example::graph();
        let engine = ShardedEngine::new(g.clone(), ShardPlan::ExplicitCuts(vec![4])).unwrap();
        let mut sink = CountingSink::default();
        engine
            .run(
                &TimeRangeKCoreQuery::new(2, TimeWindow::new(1, 3)).unwrap(),
                &mut sink,
            )
            .unwrap();
        let stats = engine.cache_stats();
        assert_eq!(stats.per_shard.len(), 2);
        assert_eq!(stats.per_shard[0].builds, 1);
        assert_eq!(stats.per_shard[1].builds, 0);
        assert_eq!(stats.misses, 1);
        assert!(stats.per_shard[0].resident_bytes <= stats.resident_bytes);
        // No boundary was crossed, so no stitch entry was built.
        assert_eq!(stats.boundary.builds, 0);
        assert_eq!(stats.boundary.resident_entries, 0);
    }

    #[test]
    fn spanning_queries_build_one_stitch_entry_and_reuse_it() {
        let g = paper_example::graph();
        let engine = ShardedEngine::new(g.clone(), ShardPlan::ExplicitCuts(vec![4])).unwrap();
        let query = TimeRangeKCoreQuery::new(2, TimeWindow::new(2, 6)).unwrap();
        let mut first = CollectingSink::default();
        engine.run(&query, &mut first).unwrap();
        let stats = engine.cache_stats();
        assert_eq!(stats.boundary.builds, 1, "{stats:?}");
        assert_eq!(stats.boundary.hits, 0, "{stats:?}");
        assert_eq!(stats.boundary.resident_entries, 1);
        // The second spanning query over the same shard pair hits the entry.
        let mut second = CollectingSink::default();
        engine.run(&query, &mut second).unwrap();
        let stats = engine.cache_stats();
        assert_eq!(stats.boundary.builds, 1, "{stats:?}");
        assert_eq!(stats.boundary.hits, 1, "{stats:?}");
        assert_eq!(canonical(first.cores), canonical(second.cores));
        // A different window over the same shard pair reuses the entry too.
        let other = TimeRangeKCoreQuery::new(2, TimeWindow::new(4, 5)).unwrap();
        let mut third = CollectingSink::default();
        engine.run(&other, &mut third).unwrap();
        let stats = engine.cache_stats();
        assert_eq!(stats.boundary.builds, 1, "{stats:?}");
        assert_eq!(stats.boundary.hits, 2, "{stats:?}");
    }

    #[test]
    fn stitch_cache_lru_respects_the_entry_budget() {
        let g = paper_example::graph();
        let engine = ShardedEngine::with_config(
            g.clone(),
            ShardPlan::FixedCount(7),
            EngineConfig {
                boundary_cache_entries: 1,
                num_threads: 1,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        // Two spanning queries over different shard ranges: the second entry
        // evicts the first.
        let mut sink = CountingSink::default();
        engine
            .run(
                &TimeRangeKCoreQuery::new(2, TimeWindow::new(1, 2)).unwrap(),
                &mut sink,
            )
            .unwrap();
        engine
            .run(
                &TimeRangeKCoreQuery::new(2, TimeWindow::new(5, 7)).unwrap(),
                &mut sink,
            )
            .unwrap();
        let stats = engine.cache_stats();
        assert_eq!(stats.boundary.builds, 2, "{stats:?}");
        assert_eq!(stats.boundary.resident_entries, 1, "{stats:?}");
        assert!(stats.boundary.evictions >= 1, "{stats:?}");
    }

    /// A zero stitch-entry budget is clamped to one resident entry and
    /// answers exactly like the default budget.
    #[test]
    fn disabled_stitch_cache_matches_the_cached_path() {
        let g = paper_example::graph();
        let cached = ShardedEngine::new(g.clone(), ShardPlan::FixedCount(4)).unwrap();
        let minimal = ShardedEngine::with_config(
            g.clone(),
            ShardPlan::FixedCount(4),
            EngineConfig {
                boundary_cache_entries: 0,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        for k in 1..=3 {
            for window in [g.span(), TimeWindow::new(2, 6), TimeWindow::new(3, 5)] {
                let query = TimeRangeKCoreQuery::new(k, window).unwrap();
                let mut a = CollectingSink::default();
                cached.run(&query, &mut a).unwrap();
                let mut b = CollectingSink::default();
                minimal.run(&query, &mut b).unwrap();
                assert_eq!(canonical(a.cores), canonical(b.cores), "k={k} {window}");
            }
        }
        let stats = minimal.cache_stats();
        assert!(stats.boundary.builds >= 1, "{stats:?}");
        assert_eq!(stats.boundary.resident_entries, 1, "{stats:?}");
        assert!(cached.cache_stats().boundary.builds >= 1);
    }

    #[test]
    fn eviction_respects_the_budget_across_shards() {
        let g = paper_example::graph();
        let shard_bytes = EdgeCoreSkyline::build(&g, 1, TimeWindow::new(1, 4)).memory_bytes();
        let engine = ShardedEngine::with_config(
            g.clone(),
            ShardPlan::ExplicitCuts(vec![4]),
            EngineConfig {
                memory_budget_bytes: shard_bytes, // room for ~one shard index
                num_threads: 1,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        for k in 1..=3 {
            let mut sink = CountingSink::default();
            engine
                .run(&TimeRangeKCoreQuery::new(k, g.span()).unwrap(), &mut sink)
                .unwrap();
        }
        let stats = engine.cache_stats();
        assert!(stats.evictions >= 1, "{stats:?}");
        assert!(stats.resident_indexes >= 1);
        let shard_sum: usize = stats.per_shard.iter().map(|s| s.resident_indexes).sum();
        assert_eq!(shard_sum, stats.resident_indexes, "{stats:?}");
        let byte_sum: usize = stats.per_shard.iter().map(|s| s.resident_bytes).sum();
        assert_eq!(byte_sum, stats.resident_bytes, "{stats:?}");
    }

    #[test]
    fn sharded_backend_composes_with_requests_and_refuses_foreign_graphs() {
        let g = paper_example::graph();
        let engine = Arc::new(ShardedEngine::new(g.clone(), ShardPlan::FixedCount(4)).unwrap());
        let backend = ShardedBackend::new(Arc::clone(&engine));
        assert_eq!(backend.algorithm(), Algorithm::Enum);
        assert_eq!(backend.name(), "Sharded(Enum)");
        let response = QueryRequest::single(2, 1, 4)
            .materialize()
            .run(&engine.graph(), &backend)
            .unwrap();
        let crate::KOutput::Cores(cores) = &response.outcomes[0].output else {
            panic!("materialized request");
        };
        assert_eq!(
            canonical(cores.clone()),
            crate::naive::naive_results(&g, 2, TimeWindow::new(1, 4))
        );

        let other = temporal_graph::TemporalGraphBuilder::new()
            .with_edges([(0u64, 1u64, 1i64), (1, 2, 2), (0, 2, 2)])
            .build()
            .unwrap();
        let mut sink = CountingSink::default();
        assert!(matches!(
            backend.execute(&other, 2, TimeWindow::new(1, 2), &mut sink),
            Err(TkError::GraphMismatch)
        ));
    }

    #[test]
    fn sharded_batch_matches_sequential_and_reports_shard_cache() {
        let g = paper_example::graph();
        let engine = ShardedEngine::new(g.clone(), ShardPlan::FixedCount(3)).unwrap();
        let queries: Vec<TimeRangeKCoreQuery> = (1..=g.tmax())
            .flat_map(|s| {
                (s..=g.tmax())
                    .map(move |e| TimeRangeKCoreQuery::new(2, TimeWindow::new(s, e)).unwrap())
            })
            .collect();
        let (results, batch) = engine.run_batch(&queries).unwrap();
        assert_eq!(batch.num_queries, queries.len());
        assert_eq!(batch.cache.per_shard.len(), 3);
        for (query, (sink, _)) in queries.iter().zip(&results) {
            let mut fresh = CountingSink::default();
            query.run_with(&g, Algorithm::Enum, &mut fresh);
            assert_eq!(sink, &fresh, "{}", query.range());
        }
        // Every shard was eventually warmed for k = 2; the sum of per-shard
        // hits and builds accounts for every cache access.
        let stats = engine.cache_stats();
        let builds: u64 = stats.per_shard.iter().map(|s| s.builds).sum();
        let hits: u64 = stats.per_shard.iter().map(|s| s.hits).sum();
        assert!(builds >= 3, "{stats:?}");
        assert_eq!(hits, stats.hits, "{stats:?}");
        // Spanning queries in the batch exercised the stitch cache.
        assert!(stats.boundary.builds >= 1, "{stats:?}");
    }

    #[test]
    fn out_of_span_queries_are_refused_before_touching_shards() {
        let g = paper_example::graph();
        let engine = ShardedEngine::new(g.clone(), ShardPlan::FixedCount(4)).unwrap();
        let past =
            TimeRangeKCoreQuery::new(2, TimeWindow::new(g.tmax() + 1, g.tmax() + 9)).unwrap();
        for algo in Algorithm::ALL {
            let mut sink = CountingSink::default();
            let err = engine.run_with(&past, algo, &mut sink).unwrap_err();
            assert!(
                matches!(err, TkError::WindowPastTmax { start, tmax }
                    if start == g.tmax() + 1 && tmax == g.tmax()),
                "{algo}: {err}"
            );
        }
        assert_eq!(engine.cache_stats().misses, 0);
    }

    #[test]
    fn warm_builds_every_shard_once() {
        let g = paper_example::graph();
        let engine = ShardedEngine::new(g, ShardPlan::FixedCount(4)).unwrap();
        assert!(!engine.warm(2), "cold cache");
        assert!(engine.warm(2), "all shards resident after warming");
        let stats = engine.cache_stats();
        assert_eq!(stats.resident_indexes, 4);
        assert!(stats.per_shard.iter().all(|s| s.builds == 1), "{stats:?}");
        engine.clear_cache();
        let stats = engine.cache_stats();
        assert_eq!(stats.resident_indexes, 0);
        assert_eq!(stats.resident_bytes, 0);
        assert!(stats.per_shard.iter().all(|s| s.resident_indexes == 0));
        assert_eq!(stats.boundary.resident_entries, 0);
    }

    #[test]
    fn overlapping_shards_reports_the_routing_range() {
        let g = paper_example::graph();
        let engine = ShardedEngine::new(g, ShardPlan::ExplicitCuts(vec![2, 4])).unwrap();
        assert_eq!(engine.overlapping_shards(TimeWindow::new(1, 2)), 0..1);
        assert_eq!(engine.overlapping_shards(TimeWindow::new(3, 4)), 1..2);
        assert_eq!(engine.overlapping_shards(TimeWindow::new(2, 5)), 0..3);
        assert_eq!(engine.overlapping_shards(TimeWindow::new(5, 7)), 2..3);
    }

    #[test]
    fn absorb_invalidates_only_tail_entries_and_keeps_closed_shards_warm() {
        let g = paper_example::graph(); // tmax = 7
        let engine = ShardedEngine::new(g, ShardPlan::ExplicitCuts(vec![4])).unwrap();
        assert_eq!(engine.sealed_shards(), 1, "last shard is the live tail");
        assert_eq!(engine.watermark(), 7, "appends continue from tmax");
        engine.warm(2); // both shard skylines resident
                        // A spanning query also plants a tail-touching stitch entry.
        let mut sink = CountingSink::default();
        engine
            .run(
                &TimeRangeKCoreQuery::new(2, TimeWindow::new(2, 6)).unwrap(),
                &mut sink,
            )
            .unwrap();
        let before = engine.cache_stats();
        assert_eq!(before.resident_indexes, 2);
        assert_eq!(before.boundary.resident_entries, 1);

        let absorbed = engine.absorb(&[(1, 5, 8), (2, 5, 8)]).unwrap();
        assert_eq!(absorbed.appended, 2);
        assert_eq!(absorbed.tmax, 8);
        assert!(!absorbed.sealed, "Manual policy never seals");
        assert_eq!(absorbed.tail_invalidations, 1, "only the tail skyline");
        assert_eq!(
            absorbed.boundary_invalidations, 1,
            "the tail-touching stitch entry"
        );
        assert_eq!(
            engine.shards(),
            vec![TimeWindow::new(1, 4), TimeWindow::new(5, 8)]
        );

        let after = engine.cache_stats();
        assert_eq!(after.resident_indexes, 1, "closed shard stays resident");
        assert_eq!(after.tail_invalidations, 1);
        assert_eq!(after.boundary_invalidations, 1);
        assert_eq!(after.seals, 0);

        // Re-querying the closed shard is a pure hit: zero new builds.
        let builds_before: u64 = after.per_shard.iter().map(|s| s.builds).sum();
        let mut sink = CountingSink::default();
        engine
            .run(
                &TimeRangeKCoreQuery::new(2, TimeWindow::new(1, 3)).unwrap(),
                &mut sink,
            )
            .unwrap();
        let stats = engine.cache_stats();
        let builds_after: u64 = stats.per_shard.iter().map(|s| s.builds).sum();
        assert_eq!(builds_after, builds_before, "closed shard not rebuilt");

        // The new tail contents are queryable and duplicates are refused.
        assert!(matches!(
            engine.absorb(&[(1, 5, 8)]),
            Err(TkError::AppendDuplicate { u: 1, v: 5, t: 8 })
        ));
        assert!(matches!(
            engine.absorb(&[(3, 6, 2)]),
            Err(TkError::AppendOutOfOrder { t: 2, watermark: 8 })
        ));
    }

    #[test]
    fn seal_policy_rolls_the_tail_and_the_next_batch_opens_a_fresh_one() {
        let g = paper_example::graph();
        let engine = ShardedEngine::with_config(
            g,
            ShardPlan::ExplicitCuts(vec![4]),
            EngineConfig {
                seal_policy: crate::SealPolicy::SpanWidth(5),
                num_threads: 1,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        // Tail [5, 7] spans 3 timestamps; extending it to t = 9 spans 5 and
        // trips the SpanWidth(5) policy.
        let absorbed = engine.absorb(&[(1, 2, 9)]).unwrap();
        assert!(absorbed.sealed);
        assert_eq!(absorbed.sealed_shards, 2);
        assert_eq!(absorbed.num_shards, 2);
        assert_eq!(engine.cache_stats().seals, 1);
        assert_eq!(engine.watermark(), 10, "floor rose past the sealed tail");

        // The next advancing batch opens a new tail [10, 11].
        let absorbed = engine.absorb(&[(1, 3, 11), (2, 3, 11)]).unwrap();
        assert_eq!(absorbed.num_shards, 3);
        assert_eq!(absorbed.sealed_shards, 2);
        assert_eq!(engine.shards()[2], TimeWindow::new(10, 11));
        let stats = engine.cache_stats();
        assert_eq!(stats.per_shard.len(), 3, "counter table grew with the tail");
        // Queries spanning the whole grown timeline still validate & run.
        let mut sink = CountingSink::default();
        engine
            .run(
                &TimeRangeKCoreQuery::new(1, TimeWindow::new(1, 11)).unwrap(),
                &mut sink,
            )
            .unwrap();
        assert!(sink.num_cores > 0);
    }

    #[test]
    fn manual_seal_upgrades_resident_tail_entries_instead_of_dropping_them() {
        let g = paper_example::graph();
        let engine = ShardedEngine::new(g, ShardPlan::ExplicitCuts(vec![4])).unwrap();
        engine.warm(2);
        let sealed = engine.seal_tail();
        assert!(sealed.sealed);
        assert_eq!(sealed.sealed_shards, 2);
        assert_eq!(engine.sealed_shards(), 2);
        let stats = engine.cache_stats();
        assert_eq!(stats.seals, 1);
        assert_eq!(
            stats.resident_indexes, 2,
            "tail entry upgraded, not dropped"
        );
        // Sealing again is a no-op.
        assert!(!engine.seal_tail().sealed);

        // A later absorb opens a fresh tail and leaves the upgraded entries
        // alone: zero tail invalidations.
        let absorbed = engine.absorb(&[(4, 6, 9)]).unwrap();
        assert_eq!(absorbed.num_shards, 3);
        assert_eq!(absorbed.tail_invalidations, 0, "old tail is permanent now");
        let builds_before: u64 = engine
            .cache_stats()
            .per_shard
            .iter()
            .map(|s| s.builds)
            .sum();
        let mut sink = CountingSink::default();
        engine
            .run(
                &TimeRangeKCoreQuery::new(2, TimeWindow::new(5, 7)).unwrap(),
                &mut sink,
            )
            .unwrap();
        let builds_after: u64 = engine
            .cache_stats()
            .per_shard
            .iter()
            .map(|s| s.builds)
            .sum();
        assert_eq!(
            builds_after, builds_before,
            "sealed ex-tail served from cache"
        );
    }

    #[test]
    fn empty_batches_change_nothing() {
        let g = paper_example::graph();
        let engine = ShardedEngine::new(g, ShardPlan::FixedCount(3)).unwrap();
        let absorbed = engine.absorb(&[]).unwrap();
        assert_eq!(absorbed.appended, 0);
        assert_eq!(absorbed.tmax, 7);
        assert_eq!(absorbed.num_shards, 3);
        assert_eq!(engine.cache_stats().tail_invalidations, 0);
    }

    #[test]
    fn stale_snapshots_are_still_served_by_the_backend() {
        let g = paper_example::graph();
        let engine = Arc::new(ShardedEngine::new(g, ShardPlan::FixedCount(2)).unwrap());
        let backend = ShardedBackend::new(Arc::clone(&engine));
        let old_snapshot = engine.graph();
        engine.absorb(&[(1, 2, 8)]).unwrap();
        assert!(!std::ptr::eq(&*old_snapshot, &*engine.graph()));
        // A request that captured the pre-absorb snapshot executes instead
        // of failing with GraphMismatch (it runs on the current state).
        let mut sink = CountingSink::default();
        backend
            .execute(&old_snapshot, 2, TimeWindow::new(1, 4), &mut sink)
            .unwrap();
        assert!(sink.num_cores > 0);
    }

    #[test]
    fn poisoned_shard_and_boundary_locks_recover_instead_of_wedging() {
        let g = paper_example::graph();
        let engine = ShardedEngine::new(g.clone(), ShardPlan::FixedCount(3)).unwrap();
        engine.warm(2);
        // Poison both cache mutexes: panic while holding each guard.  The
        // old `.lock().expect("shard cache lock")` sites turned this into a
        // panic on every later cache_stats()/query; the shared sync helper
        // recovers the guards instead.
        let inner = Arc::clone(&engine.inner);
        for poisoner in [
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _guard = inner.cache.lock().expect("not poisoned yet");
                panic!("poison the shard cache lock");
            })),
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _guard = inner.boundary.lock().expect("not poisoned yet");
                panic!("poison the boundary cache lock");
            })),
        ] {
            assert!(poisoner.is_err());
        }
        assert!(inner.cache.is_poisoned() && inner.boundary.is_poisoned());
        let stats = engine.cache_stats();
        assert_eq!(stats.resident_indexes, 3, "shard skylines still resident");
        let mut sink = CountingSink::default();
        engine
            .run(&TimeRangeKCoreQuery::new(2, g.span()).unwrap(), &mut sink)
            .unwrap();
        assert!(sink.num_cores > 0, "spanning query runs after poisoning");
    }
}
