//! Time-interval sharding: [`ShardPlan`] and [`ShardedEngine`].
//!
//! [`ShardedEngine`] is the crate's query engine, and
//! [`ShardedEngine::execute`] its one request entry point.  It partitions the
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
//! One LRU cache, under one mutex, holds every skyline the engine reuses,
//! keyed by shard range and `k`: a shard skyline is `(s, s, k)`, a stitch
//! entry (below) `(lo, hi, k)` with `lo < hi`.  Each kind has its own
//! budget and evicts only its own least-recently-used entries: shard
//! skylines once their summed [`EdgeCoreSkyline::memory_bytes`] exceeds
//! [`EngineConfig::memory_budget_bytes`], stitch entries once there are
//! more than [`EngineConfig::boundary_cache_entries`] (at least one).  The
//! entry being inserted is never evicted, so a single index larger than the
//! whole budget still serves its own query.  Index *construction* happens
//! outside the lock, so concurrent batch workers build different entries in
//! parallel.  Two threads racing on the same cold entry may both build it;
//! the loser's copy is dropped and the winner's is shared — wasted work
//! bounded by one build, never wrong results.
//!
//! # Exactness at shard boundaries
//!
//! A query over window `W` is answered by one enumeration over the skyline
//! of `W` itself.  Minimality of a core window is a property of the graph
//! alone, so that skyline splits into two disjoint classes of windows:
//!
//! 1. **Intra-shard windows** (`w ⊆ W ∩ I_s` for some shard interval
//!    `I_s`): exactly the windows of shard `s`'s cached skyline contained
//!    in `W ∩ I_s` (containment is exact for sub-ranges; see
//!    [`EdgeCoreSkyline::restrict`]).
//! 2. **Cut-crossing windows** (containing both `c` and `c + 1` for some
//!    shard boundary after timestamp `c`): per-shard builds drop them, so
//!    they come from the boundary-stitch index below.
//!
//! A query reads both classes in place through a [`WindowView`] (a window
//! inside one shard has only the first), so the enumerator runs once over
//! the same skyline a fresh build for `W` would produce: every core is
//! emitted exactly once, in the same order as
//! [`crate::Algorithm::Enum`] over `W` — the result-size bound of the
//! paper's enumeration holds for spanning queries too.  The
//! `shard_equivalence` harness asserts this for random graphs, random plans
//! and all four algorithms.
//!
//! # The boundary-stitch index
//!
//! The cut-crossing windows come from a small LRU-cached **stitch entry**
//! per `(shard range, k)` — for the common case of a window spanning one
//! cut, per adjacent shard pair `(i, i + 1, k)`.  An entry is built once,
//! on the first spanning query of its shard range (one merged-window sweep,
//! filtered down to the cut-crossing windows only), and every later
//! spanning query of that range reads its slices through its view: slicing
//! cost, no copy, no sweep.  Stitch entries live in the skyline cache
//! beside the shard skylines; [`CacheStats::boundary`] reports them.
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
//! resident and valid across every append**; an absorb replaces only the
//! tail-shard skylines and the tail-touching stitch entries (counted in
//! [`CacheStats::tail_invalidations`] / `boundary_invalidations`).  It
//! rebuilds each of them against the new snapshot on the pool before
//! publishing, and installs them in the critical section that swaps the
//! snapshot in, so the new epoch starts warm and no query rebuilds a tail
//! ([`CacheStats::publish`] books these builds).  A
//! [`crate::SealPolicy`] (or [`ShardedEngine::seal_tail`]) rolls the tail
//! into a closed shard, making its indexes permanent; the next advancing
//! batch opens a fresh tail and rebuilds there what the sealed tail had
//! resident.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::ecs::{EdgeCoreSkyline, WindowView};
use crate::engine::{batch_pool, CacheStats, EngineConfig, ShardCacheStats, WarmStats};
use crate::error::TkError;
use crate::exec::{run_batch_inner, ExecPool};
use crate::ingest::{AbsorbStats, IngestEvent};
use crate::query::{Algorithm, QueryStats, TimeRangeKCoreQuery};
use crate::request::{OutcomeSink, QueryRequest, QueryResponse, SinkShape, ValidatedRequest};
use crate::sink::ResultSink;
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
/// tail are tagged with the [`LiveState::epoch`] they were built at.  The
/// absorb that bumps the epoch replaces them with entries it rebuilt
/// against the new snapshot (see [`ShardedEngine::absorb`]), so queries of
/// the new epoch find them warm.
///
/// A query only ever uses an entry whose validity equals the one its own
/// live view assigns the key ([`LiveState::validity`]): a query still
/// running on an older snapshot must not restrict a newer epoch's skyline
/// against its older graph, whose edge ids at the old `tmax` may differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Validity {
    /// Built over closed shards only; valid for the engine's lifetime.
    Permanent,
    /// Built against the live tail at this epoch; stale once the epoch
    /// moves on.
    Epoch(u64),
}

impl Validity {
    /// Whether an entry of this validity replaces one of `other`'s: a later
    /// epoch replaces an earlier one, and a sealed (permanent) entry
    /// replaces every epoch, since a shard never reopens.
    fn supersedes(self, other: Validity) -> bool {
        match (self, other) {
            (Validity::Permanent, Validity::Epoch(_)) => true,
            (Validity::Epoch(a), Validity::Epoch(b)) => a > b,
            _ => false,
        }
    }
}

/// A cache key: shard range `lo..=hi` and `k`.  A shard skyline is keyed
/// `(s, s, k)`; a stitch entry (the cut-crossing windows of the range's
/// merged window) has `lo < hi`.
type RangeKey = (usize, usize, usize);

fn is_stitch(key: RangeKey) -> bool {
    key.0 < key.1
}

struct CacheEntry {
    /// A shard's skyline, or for a stitch key the cut-crossing minimal core
    /// windows of the merged window (a filtered, **incomplete** skyline —
    /// only usable as a [`WindowView`]'s crossing entry).
    skyline: Arc<EdgeCoreSkyline>,
    last_used: u64,
    validity: Validity,
}

/// Lookup counters of one shard range `(lo, hi)`, over all `k`.
#[derive(Default)]
struct RangeCounters {
    hits: u64,
    misses: u64,
    builds: u64,
    evictions: u64,
    invalidations: u64,
}

/// The engine's one LRU cache of skylines, keyed by shard range and `k`
/// (see [`RangeKey`]).  Shard skylines share the byte budget and stitch
/// entries the entry budget; each kind evicts only its own entries.
struct SkylineCache {
    entries: HashMap<RangeKey, CacheEntry>,
    counters: HashMap<(usize, usize), RangeCounters>,
    clock: u64,
    /// Maximum summed bytes of resident shard skylines.
    budget_bytes: usize,
    /// Maximum resident stitch entries (at least one is always kept).
    stitch_capacity: usize,
    seals: u64,
    warm: WarmStats,
    publish: WarmStats,
}

impl SkylineCache {
    fn new(config: &EngineConfig) -> Self {
        Self {
            entries: HashMap::new(),
            counters: HashMap::new(),
            clock: 0,
            budget_bytes: config.memory_budget_bytes,
            stitch_capacity: config.boundary_cache_entries.max(1),
            seals: 0,
            warm: WarmStats::default(),
            publish: WarmStats::default(),
        }
    }

    fn counters(&mut self, key: RangeKey) -> &mut RangeCounters {
        self.counters.entry((key.0, key.1)).or_default()
    }

    /// A validity-aware hit requires the entry's validity to equal the
    /// caller's.  An entry the caller's validity supersedes — a stale tail
    /// entry that escaped the absorb-time purge (an adopt racing the
    /// absorb) — is dropped here and counted as both a miss and an
    /// invalidation.  A newer entry than the caller's (the caller is a
    /// straggler on an older snapshot) is a miss that leaves the entry in
    /// place for the queries of its own epoch.
    fn get(&mut self, key: RangeKey, validity: Validity) -> Option<Arc<EdgeCoreSkyline>> {
        self.clock += 1;
        let clock = self.clock;
        let hit = match self.entries.get_mut(&key) {
            Some(entry) if entry.validity == validity => {
                entry.last_used = clock;
                Some(Arc::clone(&entry.skyline))
            }
            Some(entry) if validity.supersedes(entry.validity) => {
                self.entries.remove(&key);
                self.counters(key).invalidations += 1;
                None
            }
            _ => None,
        };
        let counters = self.counters(key);
        if hit.is_some() {
            counters.hits += 1;
        } else {
            counters.misses += 1;
        }
        hit
    }

    /// Whether an entry of the caller's validity is resident, without
    /// touching the counters (the `warm` probe).
    fn is_resident(&self, key: RangeKey, validity: Validity) -> bool {
        self.entries
            .get(&key)
            .is_some_and(|e| e.validity == validity)
    }

    /// Adopts a skyline built on the query path.  When another thread won
    /// the race with an entry of the same validity, the resident entry is
    /// shared and the caller's copy dropped.  Otherwise the caller gets its
    /// own build back, and it is inserted only over a vacant slot or an
    /// entry its validity supersedes; a newer resident entry (the caller
    /// is a straggler on an older snapshot) stays.  Counts a build only
    /// when the insert actually happened.
    fn adopt(
        &mut self,
        key: RangeKey,
        built: Arc<EdgeCoreSkyline>,
        validity: Validity,
    ) -> Arc<EdgeCoreSkyline> {
        self.clock += 1;
        let clock = self.clock;
        match self.entries.get_mut(&key) {
            Some(existing) if existing.validity == validity => {
                existing.last_used = clock;
                return Arc::clone(&existing.skyline);
            }
            Some(existing) if !validity.supersedes(existing.validity) => return built,
            Some(_) => self.counters(key).invalidations += 1,
            None => {}
        }
        self.counters(key).builds += 1;
        self.install(key, Arc::clone(&built), validity);
        built
    }

    /// Inserts (or replaces) `key`'s entry as the most recently used one,
    /// then evicts least-recently-used entries of the same kind (never the
    /// key itself) down to that kind's budget.  Counts no build: an absorb
    /// installs its rebuilt entries through here directly (booked in
    /// [`CacheStats::publish`]), and [`SkylineCache::adopt`] counts its own.
    fn install(&mut self, key: RangeKey, skyline: Arc<EdgeCoreSkyline>, validity: Validity) {
        self.clock += 1;
        self.entries.insert(
            key,
            CacheEntry {
                skyline,
                last_used: self.clock,
                validity,
            },
        );
        let stitch = is_stitch(key);
        let (limit, weight): (usize, fn(&CacheEntry) -> usize) = if stitch {
            (self.stitch_capacity, |_| 1)
        } else {
            (self.budget_bytes, |e| e.skyline.memory_bytes())
        };
        let mut load: usize = self
            .entries
            .iter()
            .filter(|(&other, _)| is_stitch(other) == stitch)
            .map(|(_, e)| weight(e))
            .sum();
        while load > limit {
            let Some(victim) = self
                .entries
                .iter()
                .filter(|(&other, _)| other != key && is_stitch(other) == stitch)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&victim, _)| victim)
            else {
                break;
            };
            let Some(removed) = self.entries.remove(&victim) else {
                break;
            };
            load -= weight(&removed);
            self.counters(victim).evictions += 1;
        }
    }

    /// The keys of the resident entries built at `epoch`: what the live
    /// tail of that epoch had resident, and so what the next publish
    /// rebuilds.
    fn tail_keys(&self, epoch: u64) -> Vec<RangeKey> {
        self.entries
            .iter()
            .filter(|(_, entry)| entry.validity == Validity::Epoch(epoch))
            .map(|(&key, _)| key)
            .collect()
    }

    /// Drops every non-permanent entry — the live tail's skylines and the
    /// stitch entries whose shard range touches it — after an absorb
    /// changed the tail, counting each as an invalidation of its range
    /// (the absorb then installs their rebuilt successors).  Closed-shard
    /// entries are untouched: they stay resident and valid across every
    /// append.  Returns the shard skylines and stitch entries dropped.
    // tkc-lint: hot
    fn invalidate_tail(&mut self) -> (u64, u64) {
        let (mut skylines, mut stitches) = (0u64, 0u64);
        let counters = &mut self.counters;
        self.entries.retain(|&key, entry| {
            if entry.validity == Validity::Permanent {
                return true;
            }
            counters.entry((key.0, key.1)).or_default().invalidations += 1;
            if is_stitch(key) {
                stitches += 1;
            } else {
                skylines += 1;
            }
            false
        });
        (skylines, stitches)
    }

    /// Seals shard `tail` without a timeline change: entries built at
    /// `epoch` cover exactly the sealed window and are upgraded to
    /// [`Validity::Permanent`]; stale-epoch leftovers are dropped.
    fn seal(&mut self, tail: usize, epoch: u64) {
        self.entries.retain(|key, entry| match entry.validity {
            Validity::Permanent => true,
            Validity::Epoch(e) if e == epoch => {
                debug_assert_eq!(key.1, tail, "only tail-touching entries carry an epoch");
                entry.validity = Validity::Permanent;
                true
            }
            Validity::Epoch(_) => false,
        });
        self.seals += 1;
    }

    /// Drops every entry, keeping the counters.
    fn clear(&mut self) {
        self.entries.clear();
    }

    /// Folds the per-range counters and the resident entries into the
    /// public counters, with one [`ShardCacheStats`] per shard of an
    /// engine with `num_shards` shards — more if a counter names a shard
    /// an absorb opened after the caller read the shard count.
    fn stats(&self, num_shards: usize) -> CacheStats {
        let named = self.counters.keys().map(|&(_, hi)| hi + 1);
        let mut stats = CacheStats {
            per_shard: (0..named.fold(num_shards, usize::max))
                .map(|shard| ShardCacheStats {
                    shard,
                    ..ShardCacheStats::default()
                })
                .collect(),
            seals: self.seals,
            warm: self.warm,
            publish: self.publish,
            ..CacheStats::default()
        };
        for (&(lo, hi), c) in &self.counters {
            if lo < hi {
                stats.boundary.hits += c.hits;
                stats.boundary.builds += c.builds;
                stats.boundary.evictions += c.evictions;
                stats.boundary_invalidations += c.invalidations;
            } else {
                stats.hits += c.hits;
                stats.misses += c.misses;
                stats.evictions += c.evictions;
                stats.tail_invalidations += c.invalidations;
                stats.per_shard[lo].hits += c.hits;
                stats.per_shard[lo].builds += c.builds;
            }
        }
        for (&key, entry) in &self.entries {
            let bytes = entry.skyline.memory_bytes();
            if is_stitch(key) {
                stats.boundary.resident_bytes += bytes;
                stats.boundary.resident_entries += 1;
            } else {
                stats.resident_bytes += bytes;
                stats.resident_indexes += 1;
                stats.per_shard[key.0].resident_bytes += bytes;
                stats.per_shard[key.0].resident_indexes += 1;
            }
        }
        stats
    }
}

/// The query engine: a per-`(shard, k)` skyline cache over time-interval
/// shards, exact boundary stitching through a cached
/// [`CacheStats::boundary`] index, and a request surface
/// ([`ShardedEngine::execute`] / [`ShardedEngine::execute_batch`]) fanning
/// work across a persistent [`ExecPool`].  [`ShardPlan::Span`] gives the
/// unsharded engine (one span-wide skyline per `k`).
///
/// See the [module documentation](self) for the sharding layout and the
/// exactness argument.
///
/// # Example
///
/// ```
/// use tkcore::{paper_example, Algorithm, QueryRequest, ShardPlan, ShardedEngine};
///
/// let engine = ShardedEngine::new(paper_example::graph(), ShardPlan::FixedCount(4)).unwrap();
/// assert_eq!(engine.num_shards(), 4);
/// let response = engine
///     .execute(QueryRequest::single(2, 1, 4), Algorithm::Enum)
///     .unwrap();
/// assert_eq!(response.total_cores(), 2); // Figure 2 of the paper, stitched across shards
/// ```
///
/// [`ShardedEngine::execute_batch`] shows the unsharded engine serving a
/// batch from one span-wide skyline.
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

    /// Validity of a cache entry over shard range `lo..=hi` of this state
    /// (a shard skyline has `lo == hi`).
    fn validity(&self, hi: usize) -> Validity {
        if hi < self.sealed {
            Validity::Permanent
        } else {
            Validity::Epoch(self.epoch)
        }
    }

    /// Builds the cache entry for `key` against this state: shard `lo`'s
    /// skyline, or for a stitch key the cut-crossing minimal core windows
    /// of the range's merged window.  A stitch entry covers the range's
    /// whole merged window, not just the triggering query's window, so it
    /// serves *every* later spanning window of the range.
    fn build_entry(&self, (lo, hi, k): RangeKey) -> EdgeCoreSkyline {
        let window = TimeWindow::new(self.shards[lo].start(), self.shards[hi].end());
        let skyline = EdgeCoreSkyline::build(&self.graph, k, window);
        if lo == hi {
            return skyline;
        }
        let cuts: Vec<Timestamp> = (lo..hi).map(|s| self.shards[s].end()).collect();
        skyline.filtered(|w| cuts.iter().any(|&c| w.start() <= c && c < w.end()))
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
    /// The keys the sealed tail had resident, carried by a seal to the
    /// next absorb, which opens a fresh tail and rebuilds them there.
    carried: Vec<RangeKey>,
}

/// The shared core of a [`ShardedEngine`], behind one `Arc` so batch tasks
/// handed to the persistent pool are `'static`.
///
/// Lock order (enforced by tkc-lint's global lock-order rule): `ingest` →
/// `live` → `cache`.  Queries take `live` alone (one `Arc` clone) and then
/// `cache`; only the ingest path nests.
struct ShardInner {
    config: EngineConfig,
    live: Mutex<Arc<LiveState>>,
    ingest: Mutex<IngestState>,
    /// Every cached shard skyline and stitch entry.
    cache: Mutex<SkylineCache>,
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
        let cache = Mutex::new(SkylineCache::new(&config));
        let sealed = shards.len() - 1;
        let mut appendable = AppendableGraph::from_graph(graph);
        if sealed > 0 {
            appendable.raise_floor(shards[sealed - 1].end());
        }
        let snapshot = appendable.snapshot();
        let tail_edges = snapshot.num_edges_in(shards[sealed]);
        let live = Arc::new(LiveState {
            epoch: 0,
            graph: snapshot,
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
                    carried: Vec::new(),
                }),
                cache,
                pool: OnceLock::new(),
                absorb_failpoints: AtomicU64::new(0),
            }),
        })
    }

    /// Adopts `pool` for this engine's batches if it has not already
    /// created or been given one; returns whether the pool was installed.
    /// This is how [`crate::CoreService`] shares its worker pool with the
    /// engine it starts or adopts, instead of the engine lazily spawning a
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
    /// The tail entries are rebuilt at publish, not purged for queries to
    /// rebuild: every key the old tail had resident is rebuilt against the
    /// new snapshot on the engine's [`ExecPool`], outside the live and
    /// cache locks, and installed in the same critical section that swaps
    /// the snapshot in — so the first query of the new epoch hits.  The
    /// rebuild set is exactly what was resident, so the cache budgets bound
    /// it; the builds are booked in [`CacheStats::publish`], not in the
    /// query-path build counters.
    ///
    /// After the batch, the configured [`crate::SealPolicy`] may roll the
    /// tail into a closed shard (its rebuilt entries are then permanent);
    /// the next advancing batch opens a fresh tail shard and rebuilds there
    /// the keys the sealed tail had resident.
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
            panic!("poison the skyline cache lock");
        }));
        poisoner.is_err() && self.inner.cache.is_poisoned()
    }

    /// Seals the live tail shard manually (independent of the configured
    /// [`crate::SealPolicy`]): its skylines become permanently valid, the
    /// append watermark rises past its end, and the next advancing batch
    /// opens a fresh tail and rebuilds there what the sealed tail had
    /// resident.  A no-op returning `sealed: false` when there is
    /// no open tail.
    pub fn seal_tail(&self) -> AbsorbStats {
        self.inner.seal_tail()
    }

    /// Current cache counters; [`CacheStats::per_shard`] holds one entry per
    /// shard with its build/hit/residency counters and
    /// [`CacheStats::boundary`] the stitch-index counters.
    pub fn cache_stats(&self) -> CacheStats {
        let num_shards = self.num_shards();
        sync::lock(&self.inner.cache).stats(num_shards)
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
            (0..num_shards).all(|shard| cache.is_resident((shard, shard, k), live.validity(shard)))
        };
        let keys: Vec<RangeKey> = (0..num_shards).map(|shard| (shard, shard, k)).collect();
        let (_, entries_built, build_time) = self.inner.entries(&live, &keys);
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
        sync::lock(&self.inner.cache).clear();
    }

    /// Executes a [`QueryRequest`] with `algorithm` from the engine's caches:
    /// a one-request [`ShardedEngine::execute_batch`], and the entry point
    /// [`crate::CoreService`] workers, `tkc` and library callers share.
    ///
    /// The request is validated once, against the live view it then runs
    /// on, so a racing [`ShardedEngine::absorb`] is observed for all of its
    /// `k`s or for none.  `Enum` answers each `k` from the window's
    /// [`WindowView`] (see [`ShardedEngine::with_view`]) and `EnumBase` from
    /// that view materialised; `Otcd` and `Naive` have no reusable index
    /// and run exactly as [`Algorithm::execute`] does.  The enumerator runs
    /// once over a skyline identical to a fresh build for the window, so a
    /// stream request sees cores in exactly the order
    /// [`TimeRangeKCoreQuery::run_with`] emits them, whatever the plan.
    ///
    /// # Errors
    /// The validation errors of [`QueryRequest::validate`].
    ///
    /// # Example
    ///
    /// ```
    /// use tkcore::{paper_example, Algorithm, QueryRequest, ShardPlan, ShardedEngine};
    ///
    /// let engine = ShardedEngine::new(paper_example::graph(), ShardPlan::FixedCount(3)).unwrap();
    /// let response = engine
    ///     .execute(QueryRequest::sweep(1..=2, 1, 7), Algorithm::Enum)
    ///     .unwrap();
    /// assert_eq!(response.outcomes.len(), 2); // one outcome per k
    /// // The same request run per query, without the engine's caches:
    /// let reference = QueryRequest::sweep(1..=2, 1, 7)
    ///     .run(&paper_example::graph(), Algorithm::Enum)
    ///     .unwrap();
    /// assert_eq!(response.total_cores(), reference.total_cores());
    /// ```
    pub fn execute(
        &self,
        request: QueryRequest,
        algorithm: Algorithm,
    ) -> Result<QueryResponse, TkError> {
        let live = self.inner.live_now();
        let request = request.validate(&live.graph)?;
        self.execute_one(live, request, algorithm)
    }

    /// Lends `f` the engine's [`WindowView`] of `[start, end]` (clamped to
    /// the graph span) for `k`: the cached skylines of the overlapped
    /// shards and, for a window spanning shard cuts, the stitch entry of
    /// their cut-crossing windows, each fetched or built exactly as a query
    /// fetches them.  It is what `Enum` reads.
    ///
    /// # Errors
    /// The validation errors of [`QueryRequest::validate`].
    pub fn with_view<R>(
        &self,
        k: usize,
        start: Timestamp,
        end: Timestamp,
        f: impl FnOnce(&WindowView<'_>) -> R,
    ) -> Result<R, TkError> {
        let live = self.inner.live_now();
        let window = QueryRequest::single(k, start, end)
            .validate(&live.graph)?
            .window();
        Ok(self.inner.with_view(&live, k, window, |view| f(&view)))
    }

    /// [`ShardedEngine::execute`] for a request validated earlier, at
    /// [`crate::CoreService`] admission.  Snapshots only grow — appends
    /// extend the timeline and the vertex set — so a request valid for an
    /// earlier snapshot is valid for the current one.
    pub(crate) fn execute_validated(
        &self,
        request: ValidatedRequest,
        algorithm: Algorithm,
    ) -> Result<QueryResponse, TkError> {
        self.execute_one(self.inner.live_now(), request, algorithm)
    }

    /// Executes a batch of requests with `algorithm` against one live view,
    /// returning one [`QueryResponse`] per request, in request order.
    ///
    /// Every count, sample and materialize `(request, k)` unit of the batch fans
    /// across the engine's [`ExecPool`] together (the calling thread
    /// participates, so workers warm different shards in parallel and long
    /// and short units balance); stream requests then run their `k`s in
    /// request order on the calling thread, each into its own sink.  Every
    /// unit is answered as [`ShardedEngine::execute`] answers it.
    ///
    /// # Errors
    /// Every request is validated up front; the first invalid one fails the
    /// whole batch before any work starts.
    ///
    /// # Example
    ///
    /// ```
    /// use tkcore::{paper_example, Algorithm, QueryRequest, ShardPlan, ShardedEngine};
    ///
    /// // The unsharded engine: one span-wide skyline serves every window of k = 2.
    /// let engine = ShardedEngine::new(paper_example::graph(), ShardPlan::Span).unwrap();
    /// let batch = vec![QueryRequest::single(2, 1, 4), QueryRequest::single(2, 2, 7)];
    /// let responses = engine.execute_batch(batch, Algorithm::Enum).unwrap();
    /// assert_eq!(responses[0].total_cores(), 2); // Figure 2 of the paper
    /// assert_eq!(engine.cache_stats().per_shard[0].builds, 1);
    /// ```
    pub fn execute_batch(
        &self,
        requests: Vec<QueryRequest>,
        algorithm: Algorithm,
    ) -> Result<Vec<QueryResponse>, TkError> {
        // The whole batch runs against one live view, so its requests are
        // mutually consistent even while absorbs land concurrently.
        let live = self.inner.live_now();
        let requests = requests
            .into_iter()
            .map(|request| request.validate(&live.graph))
            .collect::<Result<Vec<_>, _>>()?;
        self.execute_on(live, requests, algorithm)
    }

    fn execute_one(
        &self,
        live: Arc<LiveState>,
        request: ValidatedRequest,
        algorithm: Algorithm,
    ) -> Result<QueryResponse, TkError> {
        let mut responses = self.execute_on(live, vec![request], algorithm)?;
        // tkc-lint: allow(no-panic-api) — execute_on returns one response per request, and exactly one went in
        Ok(responses.pop().expect("one response per request"))
    }

    /// The one execution core: fans every count, sample and materialize
    /// `(request, k)` unit across the pool in one batch, runs stream
    /// requests in order on the calling thread, and assembles each response
    /// through [`ValidatedRequest::respond`].
    fn execute_on(
        &self,
        live: Arc<LiveState>,
        requests: Vec<ValidatedRequest>,
        algorithm: Algorithm,
    ) -> Result<Vec<QueryResponse>, TkError> {
        let units: Vec<(usize, TimeWindow, SinkShape)> = requests
            .iter()
            .filter_map(|request| Some((request, request.mode().shape()?)))
            .flat_map(|(request, shape)| {
                let window = request.window();
                request.ks().iter().map(move |&k| (k, window, shape))
            })
            .collect();
        let mut fanned = self
            .fan_out(Arc::clone(&live), units, algorithm)
            .into_iter();
        requests
            .into_iter()
            .map(|request| {
                request.respond(
                    |ks, _, _| Ok(fanned.by_ref().take(ks.len()).collect()),
                    |k, window, sink| {
                        Ok(self.inner.run_validated(&live, k, window, algorithm, sink))
                    },
                )
            })
            .collect()
    }

    /// Fans validated `(k, window, shape)` units across the engine's
    /// pool (plus the calling thread) against one live view, one fresh
    /// [`OutcomeSink`] per unit.  Workers claim the next unit index from a
    /// shared counter, so long and short units balance.  Returns the
    /// results in unit order.
    fn fan_out(
        &self,
        live: Arc<LiveState>,
        units: Vec<(usize, TimeWindow, SinkShape)>,
        algorithm: Algorithm,
    ) -> Vec<(OutcomeSink, QueryStats)> {
        let pool = batch_pool(&self.inner.pool, self.inner.config.num_threads, units.len());
        let inner = Arc::clone(&self.inner);
        run_batch_inner(pool.as_deref(), units.len(), move |i| {
            let (k, window, shape) = units[i];
            let mut sink = OutcomeSink::new(shape);
            let stats = inner.run_validated(&live, k, window, algorithm, &mut sink);
            (sink, stats)
        })
    }
}

impl ShardInner {
    /// The current live view, cloned out from under a short lock.  Callers
    /// hold the returned `Arc` for the whole query, never the lock.
    fn live_now(&self) -> Arc<LiveState> {
        Arc::clone(&sync::lock(&self.live))
    }

    /// Absorbs one ingest batch: append + publish, recompute the tail
    /// window, apply the seal policy, rebuild the tail entries of the new
    /// epoch, then swap the live state, purge the old epoch and install
    /// the rebuilt entries in one critical section.  See
    /// [`ShardedEngine::absorb`].
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
        // What the new epoch rebuilds: the entries the old tail had
        // resident or, when a seal closed it, the keys that seal carried.
        let resident = if sealed == shards.len() {
            // The previous absorb (or a manual seal) closed the tail: this
            // batch opens a fresh one right after it.
            let start = shards.last().map_or(1, |s| s.end() + 1);
            shards.push(TimeWindow::new(start, new_tmax));
            ingest.tail_edges = 0;
            std::mem::take(&mut ingest.carried)
        } else {
            let tail = shards.len() - 1;
            shards[tail] = TimeWindow::new(shards[tail].start(), new_tmax);
            sync::lock(&self.cache).tail_keys(old.epoch)
        };
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
            graph: snapshot,
            shards,
            sealed,
        });
        let num_shards = state.shards.len();
        // Every key keeps its `k` and (for a stitch entry) its `lo`; its
        // `hi` becomes the new last shard — the extended tail, the shard
        // this batch sealed, or a freshly opened tail.
        let keys: Vec<RangeKey> = resident
            .iter()
            .map(|&(lo, hi, k)| {
                let lo = if lo == hi { tail_idx } else { lo };
                (lo, tail_idx, k)
            })
            .collect();
        // tkc-lint: allow(lock-order-global) — the fan-out only runs the build closure, which takes no lock; the lint links drain_batch's `run(i)` closure call to QueryRequest::run by name, and through it to the ingest lock
        let (rebuilt, build_time, wall_time) = self.build_entries(&state, &keys);
        if did_seal {
            ingest.carried = resident;
        }
        // The batch extended the tail window, so even on a sealing absorb
        // the pre-batch tail entries describe a narrower window: purge every
        // non-permanent entry and install the rebuilt ones in the same
        // critical section that publishes the state, so the first query of
        // the new epoch already hits.  Closed-shard skylines are untouched.
        let mut live = sync::lock(&self.live);
        let mut cache = sync::lock(&self.cache);
        *live = Arc::clone(&state);
        let (tail_invalidations, boundary_invalidations) = cache.invalidate_tail();
        for (&key, skyline) in keys.iter().zip(rebuilt) {
            cache.install(key, skyline, state.validity(key.1));
        }
        if !keys.is_empty() {
            cache.publish.warms += 1;
            cache.publish.entries_built += keys.len() as u64;
            cache.publish.build_time += build_time;
            cache.publish.wall_time += wall_time;
        }
        if did_seal {
            cache.seals += 1;
        }
        drop(cache);
        drop(live);
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

    /// Builds the entries `keys` against `live`, fanned across the
    /// engine's [`ExecPool`] (the calling thread participates) while
    /// holding neither the live nor the cache lock: a cold query's shard
    /// skylines and an absorb's rebuilds alike.  Returns them in key order,
    /// with their summed per-entry build time and the wall time of the
    /// whole fan-out.
    fn build_entries(
        &self,
        live: &Arc<LiveState>,
        keys: &[RangeKey],
    ) -> (Vec<Arc<EdgeCoreSkyline>>, Duration, Duration) {
        let t0 = Instant::now();
        let pool = batch_pool(&self.pool, self.config.num_threads, keys.len());
        let task_live = Arc::clone(live);
        let task_keys: Arc<[RangeKey]> = keys.into();
        let built = run_batch_inner(pool.as_deref(), keys.len(), move |i| {
            let t = Instant::now();
            let skyline = task_live.build_entry(task_keys[i]);
            (Arc::new(skyline), t.elapsed())
        });
        let build_time = built.iter().map(|(_, took)| *took).sum();
        let skylines = built.into_iter().map(|(skyline, _)| skyline).collect();
        (skylines, build_time, t0.elapsed())
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
        ingest.carried = sync::lock(&self.cache).tail_keys(old.epoch);
        let state = Arc::new(LiveState {
            epoch: old.epoch + 1,
            graph: Arc::clone(&old.graph),
            shards: old.shards.clone(),
            sealed: num_shards,
        });
        *sync::lock(&self.live) = state;
        sync::lock(&self.cache).seal(num_shards - 1, old.epoch);
        AbsorbStats {
            sealed: true,
            tmax: old.graph.tmax(),
            num_shards,
            sealed_shards: num_shards,
            ..AbsorbStats::default()
        }
    }

    /// Returns the cache entries `keys` (shard skylines and stitch entries
    /// alike, in key order), fanning the builds of the cold ones across the
    /// engine's [`ExecPool`] via `run_batch` — entries build independently,
    /// so a cold spanning query pays roughly the largest build instead of
    /// the sum (the serial per-shard loop this replaces was the dominant
    /// cold-query latency term).
    ///
    /// Cache semantics are identical to building serially: one `get` per
    /// key (hit/miss accounting), builds outside the cache lock with
    /// single-flight adoption — two threads racing on the same cold key may
    /// both build, the loser's copy is dropped — and live-tail entries
    /// tagged with [`LiveState::validity`]'s epoch.  Nested fan-out is
    /// deadlock-free because `run_batch`'s calling thread claims indexes
    /// itself.
    ///
    /// Also returns the number of entries built here and their summed
    /// per-entry build time (wall time is shorter when builds overlap; see
    /// [`WarmStats`]).
    fn entries(
        &self,
        live: &Arc<LiveState>,
        keys: &[RangeKey],
    ) -> (Vec<Arc<EdgeCoreSkyline>>, u64, Duration) {
        let mut entries: Vec<Option<Arc<EdgeCoreSkyline>>> = Vec::with_capacity(keys.len());
        let mut missing: Vec<usize> = Vec::new();
        {
            let mut cache = sync::lock(&self.cache);
            for (i, &key) in keys.iter().enumerate() {
                let hit = cache.get(key, live.validity(key.1));
                if hit.is_none() {
                    missing.push(i);
                }
                entries.push(hit);
            }
        }
        let mut build_time = Duration::ZERO;
        if !missing.is_empty() {
            let cold: Vec<RangeKey> = missing.iter().map(|&i| keys[i]).collect();
            let (built, took, _) = self.build_entries(live, &cold);
            build_time = took;
            let mut cache = sync::lock(&self.cache);
            for (&i, skyline) in missing.iter().zip(built) {
                entries[i] = Some(cache.adopt(keys[i], skyline, live.validity(keys[i].1)));
            }
        }
        let entries = entries
            .into_iter()
            // tkc-lint: allow(no-panic-api) — every slot is either a cache hit or was adopted just above
            .map(|entry| entry.expect("every requested entry resolved"))
            .collect();
        (entries, missing.len() as u64, build_time)
    }

    /// Lends `f` the view of `window` for `k`: every overlapping shard's
    /// cached skyline and, for a spanning window, the stitch entry of its
    /// shard range, the cold ones built in parallel on the pool (see
    /// `entries`).
    fn with_view<R>(
        &self,
        live: &Arc<LiveState>,
        k: usize,
        window: TimeWindow,
        f: impl FnOnce(WindowView<'_>) -> R,
    ) -> R {
        let shards = live.overlapping(window);
        debug_assert!(!shards.is_empty(), "validated window overlaps a shard");
        let mut keys: Vec<RangeKey> = shards.clone().map(|shard| (shard, shard, k)).collect();
        if shards.len() > 1 {
            keys.push((shards.start, shards.end - 1, k));
        }
        let (mut skylines, _, _) = self.entries(live, &keys);
        let crossing = if shards.len() > 1 {
            skylines.pop()
        } else {
            None
        };
        let parts = skylines.iter().map(|skyline| &**skyline);
        f(WindowView::new(
            &live.graph,
            k,
            window,
            parts,
            crossing.as_deref(),
        ))
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
        let t0 = Instant::now();
        let mut precompute_time = Duration::ZERO;
        let run = self.with_view(live, k, window, |view| {
            precompute_time = t0.elapsed();
            query.run_with_skyline(&live.graph, view, algorithm, sink)
        });
        // tkc-lint: allow(no-panic-api) — the view covers exactly the validated window, so validation cannot reject it
        let mut stats = run.expect("the window's view matches the validated query by construction");
        stats.precompute_time = precompute_time;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example;
    use crate::sink::{CollectingSink, CountingSink};
    use crate::{KOutput, TemporalKCore};

    /// The cores `engine` answers `query` with under `algorithm`, in
    /// canonical order.
    fn cores_of(
        engine: &ShardedEngine,
        query: TimeRangeKCoreQuery,
        algorithm: Algorithm,
    ) -> Vec<TemporalKCore> {
        let mut response = engine
            .execute(QueryRequest::from(query).materialize(), algorithm)
            .unwrap();
        let KOutput::Cores(cores) = response.outcomes.remove(0).output else {
            panic!("materialized request");
        };
        cores
    }

    /// Counts `(k, [start, end])` on `engine` with `Enum`.
    fn count(engine: &ShardedEngine, k: usize, start: Timestamp, end: Timestamp) -> u64 {
        engine
            .execute(QueryRequest::single(k, start, end), Algorithm::Enum)
            .unwrap()
            .total_cores()
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
                        assert_eq!(
                            cores_of(&sharded, query, algo),
                            expected.into_sorted(),
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
        let engine = ShardedEngine::new(g, ShardPlan::ExplicitCuts(vec![4])).unwrap();
        count(&engine, 2, 1, 3);
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
    fn overlapping_shards_reports_the_routing_range() {
        let g = paper_example::graph();
        // With cuts after 2 and 4, a query builds exactly the shards its
        // window overlaps, one fresh engine per window.
        for ((start, end), builds) in [
            ((1, 2), [1, 0, 0]),
            ((3, 4), [0, 1, 0]),
            ((2, 5), [1, 1, 1]),
            ((5, 7), [0, 0, 1]),
        ] {
            let engine =
                ShardedEngine::new(g.clone(), ShardPlan::ExplicitCuts(vec![2, 4])).unwrap();
            count(&engine, 2, start, end);
            let stats = engine.cache_stats();
            let got: Vec<u64> = stats.per_shard.iter().map(|s| s.builds).collect();
            assert_eq!(got, builds, "[{start}, {end}]");
        }
    }

    #[test]
    fn spanning_queries_build_one_stitch_entry_and_reuse_it() {
        let g = paper_example::graph();
        let engine = ShardedEngine::new(g.clone(), ShardPlan::ExplicitCuts(vec![4])).unwrap();
        let query = TimeRangeKCoreQuery::new(2, TimeWindow::new(2, 6)).unwrap();
        let first = cores_of(&engine, query, Algorithm::Enum);
        let stats = engine.cache_stats();
        assert_eq!(stats.boundary.builds, 1, "{stats:?}");
        assert_eq!(stats.boundary.hits, 0, "{stats:?}");
        assert_eq!(stats.boundary.resident_entries, 1);
        // The second spanning query over the same shard pair hits the entry.
        let second = cores_of(&engine, query, Algorithm::Enum);
        let stats = engine.cache_stats();
        assert_eq!(stats.boundary.builds, 1, "{stats:?}");
        assert_eq!(stats.boundary.hits, 1, "{stats:?}");
        assert_eq!(first, second);
        // A different window over the same shard pair reuses the entry too.
        count(&engine, 2, 4, 5);
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
        count(&engine, 2, 1, 2);
        count(&engine, 2, 5, 7);
        let stats = engine.cache_stats();
        assert_eq!(stats.boundary.builds, 2, "{stats:?}");
        assert_eq!(stats.boundary.resident_entries, 1, "{stats:?}");
        assert!(stats.boundary.evictions >= 1, "{stats:?}");
        // A stitch eviction never evicts a shard skyline.
        assert_eq!(stats.evictions, 0, "{stats:?}");
        for shard in [0, 1, 4, 5, 6] {
            assert_eq!(stats.per_shard[shard].resident_indexes, 1, "{stats:?}");
        }
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
                assert_eq!(
                    cores_of(&cached, query, Algorithm::Enum),
                    cores_of(&minimal, query, Algorithm::Enum),
                    "k={k} {window}"
                );
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
            count(&engine, k, 1, g.tmax());
        }
        let stats = engine.cache_stats();
        assert!(stats.evictions >= 1, "{stats:?}");
        assert!(stats.resident_indexes >= 1);
        let shard_sum: usize = stats.per_shard.iter().map(|s| s.resident_indexes).sum();
        assert_eq!(shard_sum, stats.resident_indexes, "{stats:?}");
        let byte_sum: usize = stats.per_shard.iter().map(|s| s.resident_bytes).sum();
        assert_eq!(byte_sum, stats.resident_bytes, "{stats:?}");
        // Byte pressure evicts shard skylines only: every stitch entry stays.
        assert_eq!(stats.boundary.evictions, 0, "{stats:?}");
        assert_eq!(stats.boundary.resident_entries, 3, "{stats:?}");
        // Stitch bytes do not count against the byte budget: a budget of
        // exactly the three k = 1 shard skylines holds them beside a stitch
        // entry built before the last shard.
        let shards = [(1, 2), (3, 4), (5, 7)];
        let budget = shards
            .iter()
            .map(|&(start, end)| {
                EdgeCoreSkyline::build(&g, 1, TimeWindow::new(start, end)).memory_bytes()
            })
            .sum();
        let engine = ShardedEngine::with_config(
            g.clone(),
            ShardPlan::ExplicitCuts(vec![2, 4]),
            EngineConfig {
                memory_budget_bytes: budget,
                num_threads: 1,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        count(&engine, 1, 1, 4);
        count(&engine, 1, 5, 7);
        let stats = engine.cache_stats();
        assert_eq!(stats.evictions, 0, "{stats:?}");
        assert_eq!(stats.resident_indexes, 3, "{stats:?}");
        assert_eq!(stats.boundary.resident_entries, 1, "{stats:?}");
    }

    #[test]
    fn execute_composes_with_requests() {
        let g = paper_example::graph();
        let engine = ShardedEngine::new(g.clone(), ShardPlan::FixedCount(4)).unwrap();
        let response = engine
            .execute(QueryRequest::single(2, 1, 4).materialize(), Algorithm::Enum)
            .unwrap();
        let crate::KOutput::Cores(cores) = &response.outcomes[0].output else {
            panic!("materialized request");
        };
        assert_eq!(
            cores,
            &crate::naive::naive_results(&g, 2, TimeWindow::new(1, 4))
        );
        assert!(matches!(
            engine.execute(QueryRequest::single(0, 1, 4), Algorithm::Enum),
            Err(TkError::KOutOfRange { k: 0 })
        ));
    }

    #[test]
    fn execute_matches_direct_execution_and_caches() {
        let engine = ShardedEngine::new(paper_example::graph(), ShardPlan::Span).unwrap();
        let g = engine.graph();
        for window in [
            paper_example::example_query_range(),
            paper_example::full_range(),
        ] {
            let request = || QueryRequest::single(2, window.start(), window.end()).materialize();
            let cached = engine.execute(request(), Algorithm::Enum).unwrap();
            let direct = request().run(&g, Algorithm::Enum).unwrap();
            let (crate::KOutput::Cores(a), crate::KOutput::Cores(b)) =
                (&cached.outcomes[0].output, &direct.outcomes[0].output)
            else {
                panic!("materialized request");
            };
            assert_eq!(a, b, "{window}");
        }
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 1, "one span-wide build for both windows");
        assert!(stats.hits >= 1);
    }

    #[test]
    fn sharded_batch_matches_sequential_and_reports_shard_cache() {
        let g = paper_example::graph();
        let engine = ShardedEngine::new(g.clone(), ShardPlan::FixedCount(3)).unwrap();
        let windows: Vec<TimeWindow> = (1..=g.tmax())
            .flat_map(|s| (s..=g.tmax()).map(move |e| TimeWindow::new(s, e)))
            .collect();
        let requests = windows
            .iter()
            .map(|w| QueryRequest::single(2, w.start(), w.end()))
            .collect();
        let responses = engine.execute_batch(requests, Algorithm::Enum).unwrap();
        assert_eq!(responses.len(), windows.len());
        assert_eq!(engine.cache_stats().per_shard.len(), 3);
        for (window, response) in windows.iter().zip(&responses) {
            let mut fresh = CountingSink::default();
            Algorithm::Enum.execute(&g, 2, *window, &mut fresh).unwrap();
            let KOutput::Counts(counts) = &response.outcomes[0].output else {
                panic!("count request");
            };
            assert_eq!(counts, &fresh, "{window}");
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
        for algo in Algorithm::ALL {
            let err = engine
                .execute(QueryRequest::single(2, g.tmax() + 1, g.tmax() + 9), algo)
                .unwrap_err();
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
    fn absorb_invalidates_only_tail_entries_and_keeps_closed_shards_warm() {
        let g = paper_example::graph(); // tmax = 7
        let engine = ShardedEngine::new(g, ShardPlan::ExplicitCuts(vec![4])).unwrap();
        assert_eq!(engine.sealed_shards(), 1, "last shard is the live tail");
        assert_eq!(engine.watermark(), 7, "appends continue from tmax");
        engine.warm(2); // both shard skylines resident
                        // A spanning query also plants a tail-touching stitch entry.
        count(&engine, 2, 2, 6);
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
        assert_eq!(
            after.per_shard[0].resident_indexes, 1,
            "closed shard stays resident"
        );
        assert_eq!(after.tail_invalidations, 1);
        assert_eq!(after.boundary_invalidations, 1);
        assert_eq!(after.seals, 0);
        // The purged tail entries come back rebuilt at the new epoch, each
        // counted once in `publish` and never as a query-path build.
        {
            let cache = sync::lock(&engine.inner.cache);
            assert!(cache.is_resident((1, 1, 2), Validity::Epoch(1)));
            assert!(cache.is_resident((0, 1, 2), Validity::Epoch(1)));
        }
        assert_eq!(after.per_shard[1].resident_indexes, 1, "{after:?}");
        assert_eq!(after.boundary.resident_entries, 1, "{after:?}");
        assert_eq!((after.publish.warms, after.publish.entries_built), (1, 2));
        assert_eq!(after.per_shard[1].builds, before.per_shard[1].builds);
        assert_eq!(after.boundary.builds, before.boundary.builds);

        // Re-querying the closed shard is a pure hit: zero new builds.
        let builds_before: u64 = after.per_shard.iter().map(|s| s.builds).sum();
        count(&engine, 2, 1, 3);
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
        assert!(count(&engine, 1, 1, 11) > 0);
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
        count(&engine, 2, 5, 7);
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
    fn a_poisoned_skyline_cache_lock_recovers_for_spanning_queries() {
        let g = paper_example::graph();
        let engine = ShardedEngine::new(g.clone(), ShardPlan::FixedCount(3)).unwrap();
        engine.warm(2);
        // One mutex guards shard skylines and stitch entries alike; the
        // shared sync helper recovers it instead of panicking on every later
        // cache_stats()/query.
        assert!(engine.poison_cache_lock());
        let stats = engine.cache_stats();
        assert_eq!(stats.resident_indexes, 3, "shard skylines still resident");
        assert!(
            count(&engine, 2, 1, g.tmax()) > 0,
            "spanning query runs after poisoning"
        );
        assert_eq!(engine.cache_stats().boundary.builds, 1);
    }

    #[test]
    fn get_refuses_an_entry_adopted_at_a_stale_epoch() {
        let g = paper_example::graph();
        let skyline = Arc::new(EdgeCoreSkyline::build(&g, 2, TimeWindow::new(5, 7)));
        let mut cache = SkylineCache::new(&EngineConfig::default());
        // An adopt racing an absorb lands after the purge, tagged with the
        // epoch its build started at; the next lookup runs at the new epoch.
        cache.adopt((1, 1, 2), Arc::clone(&skyline), Validity::Epoch(0));
        cache.adopt((0, 1, 2), skyline, Validity::Epoch(0));
        assert!(cache.get((1, 1, 2), Validity::Epoch(1)).is_none());
        assert!(cache.get((0, 1, 2), Validity::Epoch(1)).is_none());
        let stats = cache.stats(2);
        assert_eq!((stats.hits, stats.misses), (0, 1), "{stats:?}");
        assert_eq!(stats.tail_invalidations, 1, "{stats:?}");
        assert_eq!(stats.boundary_invalidations, 1, "{stats:?}");
        assert_eq!(stats.boundary.hits, 0, "{stats:?}");
        assert_eq!(stats.resident_indexes, 0, "{stats:?}");
        assert_eq!(stats.boundary.resident_entries, 0, "{stats:?}");
        // A caller that read the shard count before an absorb opened shard 1
        // still gets a row for every shard the counters name.
        assert_eq!(cache.stats(1).per_shard.len(), 2);
    }

    #[test]
    fn adopt_shares_only_an_entry_of_the_callers_validity() {
        let g = paper_example::graph();
        let build = || Arc::new(EdgeCoreSkyline::build(&g, 2, TimeWindow::new(5, 7)));
        let mut cache = SkylineCache::new(&EngineConfig::default());
        let key = (1, 1, 2);
        let published = build();
        cache.install(key, Arc::clone(&published), Validity::Epoch(1));
        // A straggler of epoch 0 loses the adopt race to the published
        // epoch-1 entry: it gets its own build back, and the newer entry
        // stays resident.
        let straggler = build();
        let got = cache.adopt(key, Arc::clone(&straggler), Validity::Epoch(0));
        assert!(Arc::ptr_eq(&got, &straggler));
        assert!(cache.is_resident(key, Validity::Epoch(1)));
        // A racer of the same epoch shares the resident entry.
        let got = cache.adopt(key, build(), Validity::Epoch(1));
        assert!(Arc::ptr_eq(&got, &published));
        // A later epoch replaces the older entry.
        let newer = build();
        let got = cache.adopt(key, Arc::clone(&newer), Validity::Epoch(2));
        assert!(Arc::ptr_eq(&got, &newer));
        assert!(cache.is_resident(key, Validity::Epoch(2)));
        // A sealed (permanent) entry is newer than every epoch.
        let sealed = build();
        cache.adopt(key, Arc::clone(&sealed), Validity::Permanent);
        let got = cache.adopt(key, build(), Validity::Epoch(3));
        assert!(!Arc::ptr_eq(&got, &sealed));
        assert!(cache.is_resident(key, Validity::Permanent));
        let stats = cache.stats(2);
        // Inserts only: the epoch-2 replacement and the sealed entry.
        assert_eq!(stats.per_shard[1].builds, 2, "{stats:?}");
        assert_eq!(stats.publish, WarmStats::default(), "install books nothing");
        assert_eq!(stats.resident_indexes, 1, "{stats:?}");
    }

    #[test]
    fn get_from_an_older_epoch_leaves_a_newer_entry_resident() {
        let g = paper_example::graph();
        let skyline = Arc::new(EdgeCoreSkyline::build(&g, 2, TimeWindow::new(5, 7)));
        let mut cache = SkylineCache::new(&EngineConfig::default());
        cache.install((1, 1, 2), Arc::clone(&skyline), Validity::Epoch(1));
        cache.install((0, 1, 2), skyline, Validity::Epoch(1));
        // Stragglers of epoch 0 miss without evicting.
        assert!(cache.get((1, 1, 2), Validity::Epoch(0)).is_none());
        assert!(cache.get((0, 1, 2), Validity::Epoch(0)).is_none());
        assert!(cache.is_resident((1, 1, 2), Validity::Epoch(1)));
        assert!(cache.is_resident((0, 1, 2), Validity::Epoch(1)));
        let stats = cache.stats(2);
        assert_eq!(stats.tail_invalidations, 0, "{stats:?}");
        assert_eq!(stats.boundary_invalidations, 0, "{stats:?}");
        // Queries of the entries' own epoch hit them.
        assert!(cache.get((1, 1, 2), Validity::Epoch(1)).is_some());
        assert!(cache.get((0, 1, 2), Validity::Epoch(1)).is_some());
        // A straggler of a sealed shard's old tail epoch misses the
        // permanent entry too, without evicting it.
        cache.seal(1, 1);
        assert!(cache.get((1, 1, 2), Validity::Epoch(1)).is_none());
        assert!(cache.is_resident((1, 1, 2), Validity::Permanent));
        let stats = cache.stats(2);
        assert_eq!((stats.hits, stats.misses), (1, 2), "{stats:?}");
        assert_eq!(stats.resident_indexes, 1, "{stats:?}");
    }

    /// Warm-publish contract: after a plain absorb, and after a sealing
    /// absorb followed by one that opens a fresh tail, a tail query at
    /// every `k` the tail had resident is a query-path hit — zero builds —
    /// and matches the naive oracle.
    #[test]
    fn absorbs_publish_the_tail_warm_for_every_resident_k() {
        let g = paper_example::graph(); // tmax = 7
        let engine = ShardedEngine::with_config(
            g,
            ShardPlan::ExplicitCuts(vec![4]),
            EngineConfig {
                seal_policy: crate::SealPolicy::EdgeCount(12),
                num_threads: 1,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let ks = [1, 2, 3];
        for &k in &ks {
            engine.warm(k);
        }
        let query_path_builds = |engine: &ShardedEngine| -> u64 {
            let stats = engine.cache_stats();
            stats.per_shard.iter().map(|s| s.builds).sum::<u64>() + stats.boundary.builds
        };
        let check_tail = |engine: &ShardedEngine, label: &str| {
            let live = engine.graph();
            let tail = *engine.shards().last().unwrap();
            let before = query_path_builds(engine);
            for &k in &ks {
                let query = TimeRangeKCoreQuery::new(k, tail).unwrap();
                assert_eq!(
                    cores_of(engine, query, Algorithm::Enum),
                    crate::naive::naive_results(&live, k, tail),
                    "{label}: k={k} tail={tail}"
                );
            }
            assert_eq!(
                query_path_builds(engine),
                before,
                "{label}: query-path build"
            );
        };

        // A plain absorb: 2 more edges keep the tail [5, 7] under the
        // 12-edge seal threshold.
        let absorbed = engine.absorb(&[(1, 5, 8), (2, 5, 8)]).unwrap();
        assert!(!absorbed.sealed);
        assert_eq!(engine.cache_stats().publish.entries_built, 3);
        check_tail(&engine, "plain");

        // A sealing absorb rebuilds the sealed shard as permanent, and the
        // opening absorb rebuilds the carried keys on the fresh tail.
        let absorbed = engine
            .absorb(&[(1, 2, 9), (2, 6, 9), (1, 6, 9), (5, 6, 9), (2, 3, 9)])
            .unwrap();
        assert!(absorbed.sealed);
        let sealed = engine.cache_stats();
        assert_eq!(sealed.publish.entries_built, 6);
        assert_eq!(sealed.per_shard[1].resident_indexes, 3, "{sealed:?}");
        let absorbed = engine
            .absorb(&[(1, 3, 10), (2, 3, 10), (1, 2, 10)])
            .unwrap();
        assert!(!absorbed.sealed);
        assert_eq!(absorbed.num_shards, 3);
        let opened = engine.cache_stats();
        assert_eq!(opened.publish.entries_built, 9);
        assert_eq!(opened.publish.warms, 3);
        assert_eq!(opened.per_shard[2].resident_indexes, 3, "{opened:?}");
        check_tail(&engine, "opened");
    }
}
