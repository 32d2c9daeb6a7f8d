//! The engine's skyline cache and the epoch rule that decides which cached
//! entry a query may read.
//!
//! [`SkylineCache`] is a plain value: the LRU map of shard skylines and
//! stitch entries keyed by [`RangeKey`], under the budgets of
//! [`crate::shard`]'s cache policy, plus the counters [`CacheStats`]
//! reports.  [`crate::ShardedEngine`] holds it under a mutex, builds entries
//! outside that lock, and changes it only through the transitions below.
//!
//! # The epoch invariant
//!
//! Each published live view carries an [`EpochView`]: its epoch, bumped by
//! every absorb and seal, and its number of sealed shards.  Appends land
//! only past the seal watermark, so an entry whose shard range ends in a
//! sealed shard is *permanent*; an entry touching the live tail is valid
//! only at the epoch it was built at.  A caller passes its view to every
//! transition and reads only an entry of the validity its view gives the
//! key: a query on an older snapshot must not read a skyline built against
//! a newer graph, whose edge ids at the old `tmax` may differ.
//!
//! The cache keeps the newest published view, the *current* one, and with
//! it one invariant, debug-asserted after every transition: **every
//! resident entry is permanent or of the current epoch**.  The engine swaps
//! each new view in under the cache lock, in the critical section of the
//! transition that publishes it, so no caller's view is newer than the
//! cache's.
//!
//! # Protocol
//!
//! * A query [`lookup`](SkylineCache::lookup)s its keys, builds the misses
//!   outside the lock and [`adopt`](SkylineCache::adopt)s each build: it
//!   shares an entry a racing thread inserted first, else inserts its own.
//!   A build of an older epoch than the current one is refused, and its
//!   straggler answers from its own copy.
//! * An absorb rebuilds the [`rebuild_keys`](SkylineCache::rebuild_keys)
//!   against its new snapshot outside the locks, then
//!   [`publish`](SkylineCache::publish)es them as it swaps the snapshot in:
//!   every non-permanent entry is purged and the rebuilt ones installed, so
//!   the first query of the new epoch hits.
//! * A [`seal`](SkylineCache::seal) closes the tail without changing the
//!   timeline, so it upgrades the current epoch's entries to permanent.
//! * A transition that seals carries the keys it made permanent to the
//!   next publish, which opens a fresh tail and rebuilds them there.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use crate::ecs::EdgeCoreSkyline;
use crate::engine::{CacheStats, EngineConfig, ShardCacheStats, WarmStats};

/// A cache key: shard range `lo..=hi` and `k`.  A shard skyline is keyed
/// `(s, s, k)`; a stitch entry has `lo < hi`.
pub(crate) type RangeKey = (usize, usize, usize);

fn is_stitch(key: RangeKey) -> bool {
    key.0 < key.1
}

/// An entry's resident bytes, charged to the byte budget.
pub(crate) trait Weigh {
    fn weight_bytes(&self) -> usize;
}

impl Weigh for EdgeCoreSkyline {
    fn weight_bytes(&self) -> usize {
        self.memory_bytes()
    }
}

/// A live view's epoch and its number of sealed shards (the rest, at most
/// one, is the live tail).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EpochView {
    pub(crate) epoch: u64,
    pub(crate) sealed: usize,
}

impl EpochView {
    /// The validity this view gives `key`'s entry.
    fn validity(self, key: RangeKey) -> Validity {
        if key.1 < self.sealed {
            Validity::Permanent
        } else {
            Validity::Epoch(self.epoch)
        }
    }
}

/// How long a cached entry stays correct under live ingestion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Validity {
    /// Built over closed shards only; valid for the engine's lifetime.
    Permanent,
    /// Built against the live tail at this epoch.
    Epoch(u64),
}

struct CacheEntry<E> {
    /// A shard's skyline, or for a stitch key the cut-crossing minimal core
    /// windows of the merged window (an **incomplete** skyline,
    /// only usable as a `WindowView`'s crossing entry).
    entry: Arc<E>,
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

/// The engine's one LRU cache of skylines and stitch entries, with the
/// epoch rule of the [module docs](self).
pub(crate) struct SkylineCache<E = EdgeCoreSkyline> {
    entries: HashMap<RangeKey, CacheEntry<E>>,
    counters: HashMap<(usize, usize), RangeCounters>,
    clock: u64,
    /// Maximum summed bytes of resident shard skylines.
    budget_bytes: usize,
    /// Maximum resident stitch entries (at least one is always kept).
    stitch_capacity: usize,
    /// The newest published view.
    current: EpochView,
    /// The keys the last sealing transition made permanent; cleared by
    /// every publish.
    carried: Vec<RangeKey>,
    seals: u64,
    warm: WarmStats,
    publish: WarmStats,
}

fn book(stats: &mut WarmStats, built: u64, build_time: Duration, wall_time: Duration) {
    stats.warms += 1;
    stats.entries_built += built;
    stats.build_time += build_time;
    stats.wall_time += wall_time;
}

impl<E: Weigh> SkylineCache<E> {
    /// An empty cache whose current view is `at`.
    pub(crate) fn new(config: &EngineConfig, at: EpochView) -> Self {
        Self {
            entries: HashMap::new(),
            counters: HashMap::new(),
            clock: 0,
            budget_bytes: config.memory_budget_bytes,
            stitch_capacity: config.boundary_cache_entries.max(1),
            current: at,
            carried: Vec::new(),
            seals: 0,
            warm: WarmStats::default(),
            publish: WarmStats::default(),
        }
    }

    fn counters(&mut self, key: RangeKey) -> &mut RangeCounters {
        self.counters.entry((key.0, key.1)).or_default()
    }

    /// The resident entry of `key` if `at` may read it, counted as a hit,
    /// else a miss.  A straggler on an older view misses a newer entry and
    /// leaves it resident.
    pub(crate) fn lookup(&mut self, at: EpochView, key: RangeKey) -> Option<Arc<E>> {
        debug_assert!(at.epoch <= self.current.epoch, "view newer than cache");
        self.clock += 1;
        let clock = self.clock;
        let hit = self
            .entries
            .get_mut(&key)
            .filter(|e| e.validity == at.validity(key))
            .map(|e| {
                e.last_used = clock;
                Arc::clone(&e.entry)
            });
        let counters = self.counters(key);
        if hit.is_some() {
            counters.hits += 1;
        } else {
            counters.misses += 1;
        }
        hit
    }

    /// Whether `at` would hit `key`, without touching counters or LRU order.
    pub(crate) fn is_resident(&self, at: EpochView, key: RangeKey) -> bool {
        self.entries
            .get(&key)
            .is_some_and(|e| e.validity == at.validity(key))
    }

    /// Adopts `built`, an entry `at` built on the query path, and returns
    /// the entry to answer from: `built` itself when its epoch is older
    /// than the current one (refused, nothing inserted), an entry a racing
    /// thread inserted first, or `built` inserted and counted as a build.
    pub(crate) fn adopt(&mut self, at: EpochView, key: RangeKey, built: Arc<E>) -> Arc<E> {
        debug_assert!(at.epoch <= self.current.epoch, "view newer than cache");
        let validity = at.validity(key);
        if validity != self.current.validity(key) {
            return built;
        }
        self.clock += 1;
        if let Some(existing) = self.entries.get_mut(&key) {
            existing.last_used = self.clock;
            return Arc::clone(&existing.entry);
        }
        self.counters(key).builds += 1;
        self.install(key, Arc::clone(&built), validity);
        self.debug_check();
        built
    }

    /// The keys the next publish rebuilds, moved onto the tail shard
    /// `tail`: those the last seal carried, else the current epoch's
    /// resident entries.  A key keeps its `k` and, for a stitch entry, its
    /// `lo`.
    pub(crate) fn rebuild_keys(&self, tail: usize) -> Vec<RangeKey> {
        let live = self
            .entries
            .iter()
            .filter(|(_, e)| e.validity != Validity::Permanent);
        self.carried
            .iter()
            .copied()
            .chain(live.map(|(&key, _)| key))
            .map(|(lo, hi, k)| (if lo == hi { tail } else { lo }, tail, k))
            .collect()
    }

    /// Makes `at` current after an absorb: purges every non-permanent
    /// entry (an invalidation of its range), installs `rebuilt` and books
    /// it in [`CacheStats::publish`].  A publish that seals carries the
    /// rebuilt keys.  Returns the shard skylines and stitch entries purged.
    pub(crate) fn publish(
        &mut self,
        at: EpochView,
        rebuilt: Vec<(RangeKey, Arc<E>)>,
        build_time: Duration,
        wall_time: Duration,
    ) -> (u64, u64) {
        debug_assert!(at.epoch > self.current.epoch && at.sealed >= self.current.sealed);
        let (mut skylines, mut stitches) = (0, 0);
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
        let seals = at.sealed > self.current.sealed;
        self.seals += u64::from(seals);
        self.current = at;
        self.carried = if seals {
            rebuilt.iter().map(|&(key, _)| key).collect()
        } else {
            Vec::new()
        };
        if !rebuilt.is_empty() {
            book(
                &mut self.publish,
                rebuilt.len() as u64,
                build_time,
                wall_time,
            );
        }
        for (key, entry) in rebuilt {
            self.install(key, entry, at.validity(key));
        }
        self.debug_check();
        (skylines, stitches)
    }

    /// Makes `at` current after a seal that left the timeline unchanged:
    /// the current epoch's entries cover exactly the sealed window, so they
    /// become permanent, and their keys are carried.
    pub(crate) fn seal(&mut self, at: EpochView) {
        debug_assert!(at.epoch > self.current.epoch && at.sealed > self.current.sealed);
        let live = self
            .entries
            .iter_mut()
            .filter(|(_, e)| e.validity != Validity::Permanent);
        self.carried = live
            .map(|(&key, e)| {
                e.validity = Validity::Permanent;
                key
            })
            .collect();
        self.current = at;
        self.seals += 1;
        self.debug_check();
    }

    /// Books one [`crate::ShardedEngine::warm`] in [`CacheStats::warm`].
    pub(crate) fn record_warm(&mut self, built: u64, build_time: Duration, wall_time: Duration) {
        book(&mut self.warm, built, build_time, wall_time);
    }

    /// Drops every entry, keeping the counters.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }

    /// Inserts `key`'s entry as the most recently used one, then evicts
    /// least-recently-used entries of its kind (never `key` itself) down to
    /// that kind's budget.
    fn install(&mut self, key: RangeKey, entry: Arc<E>, validity: Validity) {
        self.clock += 1;
        self.entries.insert(
            key,
            CacheEntry {
                entry,
                last_used: self.clock,
                validity,
            },
        );
        let stitch = is_stitch(key);
        let (limit, weight): (usize, fn(&CacheEntry<E>) -> usize) = if stitch {
            (self.stitch_capacity, |_| 1)
        } else {
            (self.budget_bytes, |e| e.entry.weight_bytes())
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

    /// The epoch invariant: every resident entry is permanent or of the
    /// current epoch, exactly as the current view tags its key.
    fn debug_check(&self) {
        let tagged =
            |(&key, e): (&RangeKey, &CacheEntry<E>)| e.validity == self.current.validity(key);
        debug_assert!(
            self.entries.iter().all(tagged),
            "an entry outside the current epoch"
        );
    }

    /// Folds the per-range counters and the resident entries into the
    /// public counters, with one [`ShardCacheStats`] per shard of an
    /// engine with `num_shards` shards, or more if a counter names a shard
    /// an absorb opened after the caller read the shard count.
    pub(crate) fn stats(&self, num_shards: usize) -> CacheStats {
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
        for (&key, e) in &self.entries {
            let bytes = e.entry.weight_bytes();
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A stand-in entry: an id that tells builds apart, and a byte weight.
    struct Fake(u64, usize);

    impl Weigh for Fake {
        fn weight_bytes(&self) -> usize {
            self.1
        }
    }

    fn at(epoch: u64, sealed: usize) -> EpochView {
        EpochView { epoch, sealed }
    }

    fn fake(id: u64) -> Arc<Fake> {
        Arc::new(Fake(id, 1))
    }

    /// Publishes `keys` at `view`, each rebuilt as entry 0.
    fn publish(cache: &mut SkylineCache<Fake>, view: EpochView, keys: &[RangeKey]) -> (u64, u64) {
        let rebuilt = keys.iter().map(|&key| (key, fake(0))).collect();
        cache.publish(view, rebuilt, Duration::ZERO, Duration::ZERO)
    }

    /// A cache at epoch 0 with shard 0 sealed, after a publish of `keys`
    /// at epoch 1.
    fn published(keys: &[RangeKey]) -> SkylineCache<Fake> {
        let mut cache = SkylineCache::new(&EngineConfig::default(), at(0, 1));
        publish(&mut cache, at(1, 1), keys);
        cache
    }

    #[test]
    fn adopt_refuses_a_build_of_a_stale_epoch() {
        // An adopt racing an absorb lands after the publish, tagged with
        // the epoch its build started at: the straggler keeps its build.
        let mut cache = published(&[]);
        for key in [(1, 1, 2), (0, 1, 2)] {
            assert_eq!(cache.adopt(at(0, 1), key, fake(1)).0, 1);
            assert!(cache.lookup(at(1, 1), key).is_none());
        }
        let stats = cache.stats(2);
        assert_eq!((stats.hits, stats.misses, stats.boundary.hits), (0, 1, 0));
        assert_eq!((stats.per_shard[1].builds, stats.boundary.builds), (0, 0));
        let invalidations = (stats.tail_invalidations, stats.boundary_invalidations);
        assert_eq!(invalidations, (0, 0), "a refused build drops nothing");
        let resident = (stats.resident_indexes, stats.boundary.resident_entries);
        assert_eq!(resident, (0, 0));
        // A caller that read the shard count before an absorb opened shard 1
        // still gets a row for every shard the counters name.
        assert_eq!(cache.stats(1).per_shard.len(), 2);
    }

    #[test]
    fn adopt_shares_only_an_entry_of_the_callers_validity() {
        let key = (1, 1, 2);
        let mut cache = published(&[key]);
        // A straggler of epoch 0 gets its own build back, and the published
        // entry stays resident; a racer of epoch 1 shares it.
        assert_eq!(cache.adopt(at(0, 1), key, fake(1)).0, 1);
        assert!(cache.is_resident(at(1, 1), key));
        assert_eq!(cache.adopt(at(1, 1), key, fake(2)).0, 0);
        // A later epoch's publish purges it, and that epoch's first adopt
        // inserts.
        publish(&mut cache, at(2, 1), &[]);
        assert_eq!(cache.adopt(at(2, 1), key, fake(3)).0, 3);
        assert_eq!(cache.adopt(at(2, 1), key, fake(4)).0, 3);
        // A seal makes the entry permanent, newer than every epoch's build.
        cache.seal(at(3, 2));
        assert_eq!(cache.adopt(at(2, 1), key, fake(5)).0, 5);
        assert_eq!(cache.adopt(at(3, 2), key, fake(6)).0, 3);
        let stats = cache.stats(2);
        // One insert, the epoch-2 build; the publish is booked apart.
        assert_eq!(stats.per_shard[1].builds, 1, "{stats:?}");
        assert_eq!((stats.publish.warms, stats.publish.entries_built), (1, 1));
        assert_eq!(stats.resident_indexes, 1, "{stats:?}");
    }

    #[test]
    fn get_from_an_older_epoch_leaves_a_newer_entry_resident() {
        let keys = [(1, 1, 2), (0, 1, 2)];
        let mut cache = published(&keys);
        for key in keys {
            // A straggler of epoch 0 misses without evicting; a query of the
            // entry's own epoch hits it.
            assert!(cache.lookup(at(0, 1), key).is_none());
            assert!(cache.lookup(at(1, 1), key).is_some());
        }
        // A straggler of a sealed shard's old tail epoch misses the
        // permanent entry too, without evicting it.
        cache.seal(at(2, 2));
        assert!(cache.lookup(at(1, 1), keys[0]).is_none());
        assert!(cache.is_resident(at(2, 2), keys[0]));
        let stats = cache.stats(2);
        assert_eq!((stats.hits, stats.misses), (1, 2), "{stats:?}");
        let invalidations = (stats.tail_invalidations, stats.boundary_invalidations);
        assert_eq!(invalidations, (0, 0));
        assert_eq!(stats.resident_indexes, 1, "{stats:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random lookups and adopts at the current view and at stale ones,
        /// interleaved with publishes, seals and clears under tiny budgets,
        /// checked against a `HashMap` of what may be resident.
        #[test]
        fn transitions_match_a_hash_map_model(
            steps in prop::collection::vec((0u8..8, 0usize..60, 0usize..3, 1usize..4), 1..60),
            stitch_capacity in 1usize..3,
            budget_bytes in 0usize..6,
        ) {
            let config = EngineConfig {
                memory_budget_bytes: budget_bytes,
                boundary_cache_entries: stitch_capacity,
                ..EngineConfig::default()
            };
            // Every published view with its shard count, oldest first.
            let mut views = vec![(at(0, 1), 2)];
            let mut cache = SkylineCache::<Fake>::new(&config, at(0, 1));
            // Key → (entry id, epoch), `None` for a permanent entry.
            let mut model: HashMap<RangeKey, (u64, Option<u64>)> = HashMap::new();
            let tag = |view: EpochView, key: RangeKey| {
                (key.1 >= view.sealed).then_some(view.epoch)
            };
            let (mut builds, mut published, mut evictions) = (0, 0, 0);
            for (id, (op, pick, back, bytes)) in (1..).zip(steps) {
                let (now, shards) = *views.last().unwrap();
                let (view, view_shards) = views[views.len().saturating_sub(1 + back)];
                let hi = pick % view_shards;
                let lo = if pick % 3 == 0 { pick / 3 % (hi + 1) } else { hi };
                let key = (lo, hi, 1 + pick % 2);
                let readable = model.get(&key).filter(|e| e.1 == tag(view, key)).map(|e| e.0);
                match op {
                    0 | 1 => prop_assert_eq!(cache.lookup(view, key).map(|e| e.0), readable),
                    2..=4 => {
                        let got = cache.adopt(view, key, Arc::new(Fake(id, bytes))).0;
                        if tag(view, key) != tag(now, key) {
                            prop_assert_eq!(got, id, "a stale build is refused");
                        } else if let Some(resident) = readable {
                            prop_assert_eq!(got, resident, "a racer shares the entry");
                        } else {
                            prop_assert_eq!(got, id);
                            prop_assert!(cache.entries.contains_key(&key), "insert survives");
                            model.insert(key, (id, tag(now, key)));
                            builds += 1;
                        }
                    }
                    5 => {
                        // An absorb: it opens a tail if the last one is
                        // sealed, and seals on an even pick.
                        let shards = shards + usize::from(now.sealed == shards);
                        let sealed = if pick % 2 == 0 { shards } else { now.sealed };
                        let next = at(now.epoch + 1, sealed);
                        let keys = cache.rebuild_keys(shards - 1);
                        prop_assert!(keys.iter().all(|key| key.1 == shards - 1));
                        let purged: Vec<RangeKey> =
                            model.iter().filter(|(_, e)| e.1.is_some()).map(|(&k, _)| k).collect();
                        let stitches = purged.iter().filter(|&&key| is_stitch(key)).count() as u64;
                        model.retain(|_, e| e.1.is_none());
                        let purges = publish(&mut cache, next, &keys);
                        prop_assert_eq!(purges, (purged.len() as u64 - stitches, stitches));
                        model.extend(keys.iter().map(|&key| (key, (0, tag(next, key)))));
                        published += keys.len() as u64;
                        views.push((next, shards));
                    }
                    6 => if now.sealed < shards {
                        cache.seal(at(now.epoch + 1, shards));
                        model.values_mut().for_each(|e| e.1 = None);
                        views.push((at(now.epoch + 1, shards), shards));
                    }
                    _ => {
                        cache.clear();
                        model.clear();
                    }
                }
                // Every resident entry is permanent or of the current epoch,
                // and the model holds it; what the model holds beyond the
                // cache was evicted.
                for (key, e) in &cache.entries {
                    let current = Validity::Epoch(cache.current.epoch);
                    prop_assert!(e.validity == Validity::Permanent || e.validity == current);
                    prop_assert_eq!(Some(&(e.entry.0, tag(cache.current, *key))), model.get(key));
                }
                let before = model.len();
                model.retain(|key, _| cache.entries.contains_key(key));
                evictions += (before - model.len()) as u64;
                let shard_entries = cache.entries.iter().filter(|(&key, _)| !is_stitch(key));
                let shard_bytes: usize = shard_entries.clone().map(|(_, e)| e.entry.1).sum();
                prop_assert!(shard_bytes <= budget_bytes || shard_entries.count() == 1);
                let stitches = cache.entries.keys().filter(|&&key| is_stitch(key)).count();
                prop_assert!(stitches <= stitch_capacity);
                // Query-path builds count only the adopts that inserted.
                let stats = cache.stats(views.last().unwrap().1);
                let shard_builds: u64 = stats.per_shard.iter().map(|s| s.builds).sum();
                prop_assert_eq!(shard_builds + stats.boundary.builds, builds);
                prop_assert_eq!(stats.publish.entries_built, published);
                prop_assert_eq!(stats.evictions + stats.boundary.evictions, evictions);
            }
        }
    }
}
