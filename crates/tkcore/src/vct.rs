//! Vertex core times (Definition 4) and the Vertex Core Time index (VCT).
//!
//! The *core time* `CT_ts(u)` of vertex `u` for a start time `ts` is the
//! earliest end time `te` such that `u` belongs to the temporal k-core of the
//! window `[ts, te]`.  The VCT index stores, for every vertex, the distinct
//! core times over all start times of the query range together with the
//! earliest start time at which each value holds (the paper's Table I).
//!
//! # Computation
//!
//! [`CoreTimeSweep`] computes core times for every start time of the range
//! in one sweep over increasing start times, through a *least-fixpoint*
//! characterisation maintained with per-vertex support counts (the
//! technique of count-based k-core maintenance: Sariyüce et al.,
//! "Streaming Algorithms for k-core Decomposition", VLDB 2013; Zhang et
//! al., "A Fast Order-Based Approach for Core Maintenance", ICDE 2017).
//!
//! The least-fixpoint argument, the support invariant and the cost are in
//! the [`CoreTimeSweep`] documentation.

use std::collections::VecDeque;
use temporal_graph::{EdgeId, TemporalGraph, TimeWindow, Timestamp, VertexId, T_INFINITY};

/// One group of a vertex in the sweep: a distinct neighbour and its
/// in-range occurrence times `occ[ptr..occ_end]` still in the window.
#[derive(Debug, Clone)]
struct SweepGroup {
    neighbor: VertexId,
    occ_end: u32,
    /// Index of the first occurrence with timestamp `>=` the current start
    /// time, moved eagerly as each occurrence leaves the window.
    ptr: u32,
}

/// Largest group count on which [`CoreTimeSweep`] re-checks its support
/// invariant after every step in debug builds (the check rescans every
/// group).
const DEBUG_CHECK_MAX_GROUPS: usize = 4096;

/// Incremental computation of vertex core times over increasing start times.
///
/// After construction the sweep holds the core times for `ts = range.start()`;
/// each call to [`CoreTimeSweep::advance`] moves to the next start time and
/// reports which vertices changed.  Both the [`VertexCoreTimeIndex`] and the
/// edge core window skyline (`crate::EdgeCoreSkyline`) are built by driving
/// this sweep.
///
/// # The fixpoint
///
/// Fix a start time `ts`.  A *group* of `u` is a distinct neighbour `v`
/// together with every edge occurrence between `u` and `v` in the range;
/// `t_uv(ts)` is its earliest occurrence `>= ts` (`∞` once none is left).
/// For a vector `c` of per-vertex times let
///
/// ```text
/// F(c)(u) = k-th smallest over the groups v of u of max(t_uv(ts), c(v))
/// ```
///
/// (`∞` with fewer than `k` groups).  Every finite value is an occurrence
/// time or a finite `c(v)`, so it lies inside the range.  `F` is monotone,
/// and `CT_ts` is its least fixpoint:
///
/// * *Every pre-fixpoint bounds `CT_ts` from above.*  Let `F(c) <= c` and
///   pick any `te`.  Every `u` with `c(u) <= te` has `k` groups with
///   `t_uv <= te` and `c(v) <= te`, so the set `{u : c(u) <= te}` with the
///   edges of `[ts, te]` between its members has minimum degree `k`.  It
///   lies inside the k-core of `[ts, te]` (the maximal such set), hence
///   `CT_ts(u) <= c(u)`.
/// * *`CT_ts` is a fixpoint.*  At `te = CT_ts(u)`, `u` has `k` core
///   neighbours in `[ts, te]`, each with `t_uv <= te` and `CT_ts(v) <= te`,
///   so `F(CT_ts)(u) <= CT_ts(u)`.  Conversely at `te = F(CT_ts)(u)`, `u`
///   has `k` neighbours `v` with `t_uv <= te` inside the k-core of
///   `[ts, te]` (k-cores grow with `te`), so adding `u` to that core keeps
///   its minimum degree `k`: `CT_ts(u) <= F(CT_ts)(u)`.
///
/// So iterating `c(u) ← F(c)(u)` from any `c` with `c <= CT_ts` and
/// `c <= F(c)` keeps both bounds (by monotonicity, `F(c) <= F(CT_ts) =
/// CT_ts`) and stops exactly at `CT_ts`.  The first start time begins from
/// the lower bound "k-th smallest `t_uv`".  Each later start time begins
/// from the previous core times: leaving occurrences only raise `t_uv`, so
/// `F_{ts+1} >= F_ts` and `CT_ts <= F_{ts+1}(CT_ts)`; and the k-core of
/// `[ts + 1, te]` lies inside that of `[ts, te]`, so `CT_ts <= CT_{ts+1}`.
/// Core times therefore only rise along the sweep.
///
/// # The support invariant
///
/// Let the *value* of a group be `max(t_uv, c(v))`, and `support(u)` the
/// number of `u`'s groups whose value is at most `c(u)`.  Because
/// `c <= F(c)` always holds, a finite `c(u)` equals `F(c)(u)` exactly when
/// `support(u) >= k`.  The sweep
/// keeps every finite vertex's support exact and queues a vertex only when
/// its support falls below `k`.  A value rises in two ways only: an
/// occurrence leaves the window (the sweep walks the edges at the leaving
/// timestamp and moves both of their groups' occurrence pointers), or a
/// neighbour's `c(v)` rises (the raise walks the raised vertex's groups;
/// the mirror group's value is `max(t_uv, c(u))` with the same `t_uv`).
/// Either is an O(1) test of whether the value crossed `c(u)`.  A
/// re-evaluation therefore always *raises* `c(u)` strictly, and recounts
/// its support in the same scan.
///
/// # Cost
///
/// One O(1) update per occurrence leaving the window and per group of a
/// raised vertex, plus one `O(deg(u))` scan per raise.  No scan is spent
/// on a vertex whose core time stays: the work is
/// `O(|E_range| + Σ raises(u) · deg(u))`, where a raise is a strict
/// increase of a core time.  Every VCT entry is at least one raise; a
/// vertex can also pass through intermediate values within one start time,
/// so the number of raises is at least `|VCT|`, not bounded by it.
pub struct CoreTimeSweep<'g> {
    graph: &'g TemporalGraph,
    k: usize,
    range: TimeWindow,
    current_ts: Timestamp,
    ct: Vec<Timestamp>,
    /// Groups whose value is at most the vertex's core time; exact for
    /// every vertex with a finite core time.
    support: Vec<u32>,
    group_offsets: Vec<u32>,
    groups: Vec<SweepGroup>,
    occ: Vec<Timestamp>,
    /// Per in-range edge (`id - first_edge`): the index of its group on
    /// the `u` side and on the `v` side.
    edge_groups: Vec<[u32; 2]>,
    first_edge: EdgeId,
    queue: VecDeque<VertexId>,
    in_queue: Vec<bool>,
    changed: Vec<VertexId>,
    changed_mark: Vec<bool>,
    scratch: Vec<Timestamp>,
}

impl<'g> CoreTimeSweep<'g> {
    /// Builds the sweep and computes core times for the first start time
    /// (`range.start()`).
    ///
    /// # Range clamping contract
    ///
    /// The stored range (reported by [`CoreTimeSweep::range`]) is
    /// `range.end()` clamped to the graph's last timestamp: windows beyond
    /// `tmax` contain no additional edges, so results are unchanged and the
    /// start-time sweep does not iterate over empty timestamps.  A range
    /// **starting** past `tmax` degenerates to the single-start sweep
    /// `[start, start]` over an empty projection — every core time is
    /// [`T_INFINITY`] and [`CoreTimeSweep::advance`] immediately returns
    /// `None`.  This is the sweep-level counterpart of
    /// [`crate::EdgeCoreSkyline::build`]'s contract, which maps the same
    /// degenerate case to an empty skyline that reports the *requested*
    /// (unclamped) range back; the two layers agree that "past `tmax`"
    /// means "no cores", they only differ in which range they echo.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(graph: &'g TemporalGraph, k: usize, range: TimeWindow) -> Self {
        assert!(k >= 1, "temporal k-core queries require k >= 1");
        // Clamp the range end to the graph's last timestamp (and never below
        // the start, so a past-tmax range degenerates to [start, start]
        // instead of an invalid window) — see the contract above.
        let range = TimeWindow::new(
            range.start(),
            range.end().min(graph.tmax()).max(range.start()),
        );
        let n = graph.num_vertices();
        let edge_ids = graph.edge_ids_in(range);
        let mut edge_groups = vec![[0u32; 2]; (edge_ids.end - edge_ids.start) as usize];
        let mut group_offsets = vec![0u32; n + 1];
        let mut groups = Vec::new();
        let mut occ = Vec::new();
        for u in 0..n as VertexId {
            for g in graph.neighbors(u) {
                let occs = g.occurrences_in(range);
                if occs.is_empty() {
                    continue;
                }
                let gi = groups.len() as u32;
                // Edges store `u < v`, so `u`'s side of each edge is 0 when
                // its neighbour is the larger endpoint.
                let side = usize::from(u > g.neighbor);
                for &(t, id) in occs {
                    occ.push(t);
                    edge_groups[(id - edge_ids.start) as usize][side] = gi;
                }
                groups.push(SweepGroup {
                    neighbor: g.neighbor,
                    occ_end: occ.len() as u32,
                    ptr: occ.len() as u32 - occs.len() as u32,
                });
            }
            group_offsets[u as usize + 1] = groups.len() as u32;
        }

        let mut sweep = Self {
            graph,
            k,
            range,
            current_ts: range.start(),
            ct: vec![T_INFINITY; n],
            support: vec![0; n],
            group_offsets,
            groups,
            occ,
            edge_groups,
            first_edge: edge_ids.start,
            queue: VecDeque::new(),
            in_queue: vec![false; n],
            changed: Vec::new(),
            changed_mark: vec![false; n],
            scratch: Vec::new(),
        };

        // Lower bound: k-th smallest earliest occurrence time per vertex.
        for u in 0..n {
            let groups = sweep.group_range(u as VertexId);
            if groups.len() < k {
                continue;
            }
            sweep.scratch.clear();
            for g in &sweep.groups[groups] {
                sweep.scratch.push(sweep.occ[g.ptr as usize]);
            }
            sweep.ct[u] = *sweep.scratch.select_nth_unstable(k - 1).1;
        }
        // Count each vertex's support under the lower bound; the vertices
        // short of `k` are exactly those below their fixpoint value.
        for u in 0..n as VertexId {
            let ct_u = sweep.ct[u as usize];
            if ct_u == T_INFINITY {
                continue;
            }
            let support = sweep
                .group_range(u)
                .filter(|&gi| sweep.value(gi) <= ct_u)
                .count();
            sweep.support[u as usize] = support as u32;
            if support < k {
                sweep.in_queue[u as usize] = true;
                sweep.queue.push_back(u);
            }
        }
        sweep.run_worklist();
        sweep.debug_check_support();

        // Report every vertex with a finite core time as "changed" so that
        // index builders can record the initial entries.
        sweep.changed.clear();
        for u in 0..n as VertexId {
            if sweep.ct[u as usize] != T_INFINITY {
                sweep.changed.push(u);
            }
        }
        sweep
    }

    /// The query parameter `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The query time range.
    #[inline]
    pub fn range(&self) -> TimeWindow {
        self.range
    }

    /// Start time the current core times refer to.
    #[inline]
    pub fn current_start_time(&self) -> Timestamp {
        self.current_ts
    }

    /// Core time of every vertex for the current start time
    /// ([`T_INFINITY`] if the vertex is in no temporal k-core).
    #[inline]
    pub fn core_times(&self) -> &[Timestamp] {
        &self.ct
    }

    /// Vertices whose core time changed in the most recent step: after
    /// construction, every vertex with a finite core time; after
    /// [`Self::advance`], the vertices whose value differs from the previous
    /// start time.
    #[inline]
    pub fn changed_vertices(&self) -> &[VertexId] {
        &self.changed
    }

    /// Advances to the next start time, returning it, or `None` when the end
    /// of the query range has been reached.
    // tkc-lint: hot
    pub fn advance(&mut self) -> Option<Timestamp> {
        if self.current_ts >= self.range.end() {
            return None;
        }
        let leaving = self.current_ts;
        self.current_ts += 1;
        for &u in &self.changed {
            self.changed_mark[u as usize] = false;
        }
        self.changed.clear();

        // Move both groups of every occurrence leaving the window past it;
        // a value that rises above its owner's core time costs the owner
        // one support.
        let graph = self.graph;
        for (id, e) in graph.edge_ids_at(leaving).zip(graph.edges_at(leaving)) {
            let [gu, gv] = self.edge_groups[(id - self.first_edge) as usize];
            self.pass_occurrence(e.u, gu as usize);
            self.pass_occurrence(e.v, gv as usize);
        }
        self.run_worklist();
        self.debug_check_support();
        Some(self.current_ts)
    }

    /// The group indexes of `u`.
    #[inline]
    fn group_range(&self, u: VertexId) -> std::ops::Range<usize> {
        self.group_offsets[u as usize] as usize..self.group_offsets[u as usize + 1] as usize
    }

    /// The value `max(t_uv, CT(v))` of group `gi` (`∞` once no occurrence
    /// is left in the window).
    #[inline]
    fn value(&self, gi: usize) -> Timestamp {
        let g = &self.groups[gi];
        if g.ptr < g.occ_end {
            self.occ[g.ptr as usize].max(self.ct[g.neighbor as usize])
        } else {
            T_INFINITY
        }
    }

    /// Moves group `gi` of `u` past its earliest occurrence, which is
    /// leaving the window.
    #[inline]
    fn pass_occurrence(&mut self, u: VertexId, gi: usize) {
        let g = &mut self.groups[gi];
        debug_assert!(g.ptr < g.occ_end && self.occ[g.ptr as usize] < self.current_ts);
        let ct_v = self.ct[g.neighbor as usize];
        let old = self.occ[g.ptr as usize].max(ct_v);
        g.ptr += 1;
        let new = if g.ptr < g.occ_end {
            self.occ[g.ptr as usize].max(ct_v)
        } else {
            T_INFINITY
        };
        self.value_rose(u, old, new);
    }

    /// One of `u`'s group values rose from `old` to `new`: if it crossed
    /// `CT(u)`, `u` loses that support, and is queued once it is short of
    /// `k`.
    #[inline]
    fn value_rose(&mut self, u: VertexId, old: Timestamp, new: Timestamp) {
        let ct_u = self.ct[u as usize];
        if ct_u == T_INFINITY || old > ct_u || new <= ct_u {
            return;
        }
        let support = &mut self.support[u as usize];
        *support -= 1;
        if (*support as usize) < self.k && !self.in_queue[u as usize] {
            self.in_queue[u as usize] = true;
            self.queue.push_back(u);
        }
    }

    /// Raises every queued vertex to its fixpoint value, propagating each
    /// raise to the supports of its neighbours.
    fn run_worklist(&mut self) {
        while let Some(u) = self.queue.pop_front() {
            self.in_queue[u as usize] = false;
            let old = self.ct[u as usize];
            // Only a finite vertex is queued, and its support only falls
            // until its own re-evaluation.
            debug_assert!(old != T_INFINITY && (self.support[u as usize] as usize) < self.k);
            let new = self.reevaluate(u);
            debug_assert!(new > old, "a re-evaluation must raise the core time");
            self.ct[u as usize] = new;
            if !self.changed_mark[u as usize] {
                self.changed_mark[u as usize] = true;
                self.changed.push(u);
            }
            // The mirror group (v → u) shares this group's earliest
            // occurrence, so its value rises from max(t, old) to max(t, new).
            for gi in self.group_range(u) {
                let g = &self.groups[gi];
                if g.ptr < g.occ_end {
                    let t = self.occ[g.ptr as usize];
                    self.value_rose(g.neighbor, t.max(old), t.max(new));
                }
            }
        }
    }

    /// Applies the fixpoint operator at `u` — the k-th smallest group value
    /// — and recounts `support(u)` for the result.
    fn reevaluate(&mut self, u: VertexId) -> Timestamp {
        self.scratch.clear();
        for gi in self.group_range(u) {
            let value = self.value(gi);
            self.scratch.push(value);
        }
        if self.scratch.len() < self.k {
            return T_INFINITY;
        }
        let (_, &mut kth, above) = self.scratch.select_nth_unstable(self.k - 1);
        let ties = above.iter().filter(|&&value| value == kth).count();
        self.support[u as usize] = (self.k + ties) as u32;
        kth
    }

    /// Debug builds re-check, on small sweeps, that every finite core time
    /// is the k-th smallest value of its groups and that its support count
    /// is exact: `support(u)` values are at most `CT(u)`, at least `k` of
    /// them, and fewer than `k` values lie below it.
    fn debug_check_support(&self) {
        if !cfg!(debug_assertions) || self.groups.len() > DEBUG_CHECK_MAX_GROUPS {
            return;
        }
        for u in 0..self.ct.len() as VertexId {
            let ct_u = self.ct[u as usize];
            if ct_u == T_INFINITY {
                continue;
            }
            let (mut at_most, mut below) = (0usize, 0usize);
            for gi in self.group_range(u) {
                let g = &self.groups[gi];
                debug_assert!(
                    g.ptr == g.occ_end || self.occ[g.ptr as usize] >= self.current_ts,
                    "an occurrence pointer lags the start time"
                );
                let value = self.value(gi);
                at_most += usize::from(value <= ct_u);
                below += usize::from(value < ct_u);
            }
            debug_assert_eq!(self.support[u as usize] as usize, at_most, "support of {u}");
            debug_assert!(
                at_most >= self.k && below < self.k,
                "CT({u}) is no fixpoint"
            );
        }
    }
}

/// The Vertex Core Time index: for every vertex, the list of
/// `(start time, core time)` pairs at which the core time changes
/// (the paper's Table I; `∞` entries are represented by [`T_INFINITY`]).
#[derive(Debug, Clone)]
pub struct VertexCoreTimeIndex {
    k: usize,
    range: TimeWindow,
    entries: Vec<Vec<(Timestamp, Timestamp)>>,
}

impl VertexCoreTimeIndex {
    /// Builds the index for the given `k` and query range.
    pub fn build(graph: &TemporalGraph, k: usize, range: TimeWindow) -> Self {
        let mut sweep = CoreTimeSweep::new(graph, k, range);
        let mut entries = vec![Vec::new(); graph.num_vertices()];
        loop {
            let ts = sweep.current_start_time();
            for &u in sweep.changed_vertices() {
                entries[u as usize].push((ts, sweep.core_times()[u as usize]));
            }
            if sweep.advance().is_none() {
                break;
            }
        }
        Self { k, range, entries }
    }

    /// The query parameter `k` the index was built for.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The query range the index was built for.
    #[inline]
    pub fn range(&self) -> TimeWindow {
        self.range
    }

    /// The `(start time, core time)` entries of vertex `u` (possibly empty).
    #[inline]
    pub fn entries(&self, u: VertexId) -> &[(Timestamp, Timestamp)] {
        &self.entries[u as usize]
    }

    /// Core time of vertex `u` for start time `ts`, or [`T_INFINITY`] if `u`
    /// is in no temporal k-core of a window starting at `ts`.
    pub fn core_time(&self, u: VertexId, ts: Timestamp) -> Timestamp {
        if ts < self.range.start() || ts > self.range.end() {
            return T_INFINITY;
        }
        let entries = &self.entries[u as usize];
        let idx = entries.partition_point(|&(start, _)| start <= ts);
        if idx == 0 {
            T_INFINITY
        } else {
            entries[idx - 1].1
        }
    }

    /// Total number of index entries — the paper's `|VCT|`.
    pub fn size(&self) -> usize {
        self.entries.iter().map(|e| e.len()).sum()
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.size() * std::mem::size_of::<(Timestamp, Timestamp)>()
            + self.entries.len() * std::mem::size_of::<Vec<(Timestamp, Timestamp)>>()
    }
}

/// The sweep before support counting, kept as the reference the property
/// test holds [`CoreTimeSweep`] to: on every leaving occurrence it queues
/// both endpoints, on every raise it queues every neighbour, and each
/// re-evaluation rescans the vertex's groups whether or not its core time
/// moves.
#[cfg(test)]
mod reference {
    use std::collections::VecDeque;
    use temporal_graph::{TemporalGraph, TimeWindow, Timestamp, VertexId, T_INFINITY};

    struct Group {
        neighbor: VertexId,
        occ_end: u32,
        ptr: u32,
    }

    pub(super) struct ReferenceSweep<'g> {
        graph: &'g TemporalGraph,
        k: usize,
        range: TimeWindow,
        current_ts: Timestamp,
        ct: Vec<Timestamp>,
        group_offsets: Vec<u32>,
        groups: Vec<Group>,
        occ: Vec<Timestamp>,
        queue: VecDeque<VertexId>,
        in_queue: Vec<bool>,
        scratch: Vec<Timestamp>,
    }

    impl<'g> ReferenceSweep<'g> {
        pub(super) fn new(graph: &'g TemporalGraph, k: usize, range: TimeWindow) -> Self {
            let range = TimeWindow::new(
                range.start(),
                range.end().min(graph.tmax()).max(range.start()),
            );
            let n = graph.num_vertices();
            let mut group_offsets = vec![0u32; n + 1];
            let mut groups = Vec::new();
            let mut occ = Vec::new();
            for u in 0..n as VertexId {
                for g in graph.neighbors(u) {
                    let occs = g.occurrences_in(range);
                    if occs.is_empty() {
                        continue;
                    }
                    let ptr = occ.len() as u32;
                    occ.extend(occs.iter().map(|&(t, _)| t));
                    groups.push(Group {
                        neighbor: g.neighbor,
                        occ_end: occ.len() as u32,
                        ptr,
                    });
                }
                group_offsets[u as usize + 1] = groups.len() as u32;
            }
            let mut sweep = Self {
                graph,
                k,
                range,
                current_ts: range.start(),
                ct: vec![T_INFINITY; n],
                group_offsets,
                groups,
                occ,
                queue: VecDeque::new(),
                in_queue: vec![false; n],
                scratch: Vec::new(),
            };
            for u in 0..n {
                let (lo, hi) = (
                    sweep.group_offsets[u] as usize,
                    sweep.group_offsets[u + 1] as usize,
                );
                if hi - lo < k {
                    continue;
                }
                sweep.scratch.clear();
                for g in &sweep.groups[lo..hi] {
                    sweep.scratch.push(sweep.occ[g.ptr as usize]);
                }
                let kth = *sweep.scratch.select_nth_unstable(k - 1).1;
                if kth <= range.end() {
                    sweep.ct[u] = kth;
                    sweep.in_queue[u] = true;
                    sweep.queue.push_back(u as VertexId);
                }
            }
            sweep.run_worklist();
            sweep
        }

        pub(super) fn core_times(&self) -> &[Timestamp] {
            &self.ct
        }

        pub(super) fn advance(&mut self) -> Option<Timestamp> {
            if self.current_ts >= self.range.end() {
                return None;
            }
            let leaving = self.current_ts;
            self.current_ts += 1;
            for e in self.graph.edges_at(leaving) {
                for u in [e.u, e.v] {
                    self.enqueue(u);
                }
            }
            self.run_worklist();
            Some(self.current_ts)
        }

        fn enqueue(&mut self, u: VertexId) {
            if self.ct[u as usize] != T_INFINITY && !self.in_queue[u as usize] {
                self.in_queue[u as usize] = true;
                self.queue.push_back(u);
            }
        }

        fn run_worklist(&mut self) {
            while let Some(u) = self.queue.pop_front() {
                self.in_queue[u as usize] = false;
                let new = self.reevaluate(u);
                assert!(new >= self.ct[u as usize], "core times must not decrease");
                if new > self.ct[u as usize] {
                    self.ct[u as usize] = new;
                    let (lo, hi) = (
                        self.group_offsets[u as usize] as usize,
                        self.group_offsets[u as usize + 1] as usize,
                    );
                    for gi in lo..hi {
                        self.enqueue(self.groups[gi].neighbor);
                    }
                }
            }
        }

        fn reevaluate(&mut self, u: VertexId) -> Timestamp {
            let (lo, hi) = (
                self.group_offsets[u as usize] as usize,
                self.group_offsets[u as usize + 1] as usize,
            );
            self.scratch.clear();
            for g in &mut self.groups[lo..hi] {
                while g.ptr < g.occ_end && self.occ[g.ptr as usize] < self.current_ts {
                    g.ptr += 1;
                }
                if g.ptr < g.occ_end {
                    let t_uv = self.occ[g.ptr as usize];
                    self.scratch.push(t_uv.max(self.ct[g.neighbor as usize]));
                }
            }
            if self.scratch.len() < self.k {
                return T_INFINITY;
            }
            let kth = *self.scratch.select_nth_unstable(self.k - 1).1;
            if kth > self.range.end() {
                T_INFINITY
            } else {
                kth
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::ReferenceSweep;
    use super::*;
    use crate::naive::core_edges_of_window;
    use proptest::prelude::*;
    use temporal_graph::TemporalGraphBuilder;

    /// Brute-force core time for cross-checking: the earliest `te` such that
    /// `u` has an incident edge in the k-core of `[ts, te]`.
    fn naive_core_time(
        graph: &TemporalGraph,
        k: usize,
        range: TimeWindow,
        u: VertexId,
        ts: Timestamp,
    ) -> Timestamp {
        for te in ts..=range.end() {
            let edges = core_edges_of_window(graph, k, TimeWindow::new(ts, te));
            let in_core = edges.iter().any(|&e| {
                let edge = graph.edge(e);
                edge.u == u || edge.v == u
            });
            if in_core {
                return te;
            }
        }
        T_INFINITY
    }

    fn small_graph() -> TemporalGraph {
        TemporalGraphBuilder::new()
            .with_edges([
                (0u64, 1u64, 1i64),
                (1, 2, 2),
                (0, 2, 3),
                (2, 3, 4),
                (3, 4, 5),
                (2, 4, 6),
                (0, 1, 6),
                (1, 2, 7),
                (0, 2, 7),
            ])
            .build()
            .unwrap()
    }

    #[test]
    fn matches_naive_core_times_everywhere() {
        let g = small_graph();
        let range = g.span();
        for k in 1..=3 {
            let vct = VertexCoreTimeIndex::build(&g, k, range);
            for u in 0..g.num_vertices() as VertexId {
                for ts in range.start()..=range.end() {
                    assert_eq!(
                        vct.core_time(u, ts),
                        naive_core_time(&g, k, range, u, ts),
                        "k={k} u={u} ts={ts}"
                    );
                }
            }
        }
    }

    #[test]
    fn sub_range_queries_are_respected() {
        let g = small_graph();
        let range = TimeWindow::new(2, 6);
        let vct = VertexCoreTimeIndex::build(&g, 2, range);
        for u in 0..g.num_vertices() as VertexId {
            for ts in 2..=6 {
                assert_eq!(vct.core_time(u, ts), naive_core_time(&g, 2, range, u, ts));
            }
            // Outside the query range the index answers "infinity".
            assert_eq!(vct.core_time(u, 1), T_INFINITY);
            assert_eq!(vct.core_time(u, 7), T_INFINITY);
        }
    }

    #[test]
    fn entries_are_strictly_increasing() {
        let g = small_graph();
        let vct = VertexCoreTimeIndex::build(&g, 2, g.span());
        assert!(vct.size() > 0);
        for u in 0..g.num_vertices() as VertexId {
            let entries = vct.entries(u);
            for pair in entries.windows(2) {
                assert!(pair[0].0 < pair[1].0, "start times strictly increase");
                assert!(pair[0].1 < pair[1].1, "core times strictly increase");
            }
        }
    }

    #[test]
    fn isolated_and_low_degree_vertices_have_no_entries() {
        let g = TemporalGraphBuilder::new()
            .with_edges([(0u64, 1u64, 1i64), (1, 2, 2), (0, 2, 3), (3, 4, 2)])
            .build()
            .unwrap();
        let vct = VertexCoreTimeIndex::build(&g, 2, g.span());
        // Vertices 3 and 4 have a single neighbour, so they are never in a 2-core.
        let v3 = g.labels().iter().position(|&l| l == 3).unwrap() as VertexId;
        let v4 = g.labels().iter().position(|&l| l == 4).unwrap() as VertexId;
        assert!(vct.entries(v3).is_empty());
        assert!(vct.entries(v4).is_empty());
        assert_eq!(vct.core_time(v3, 1), T_INFINITY);
    }

    #[test]
    fn sweep_reports_changes() {
        let g = small_graph();
        let mut sweep = CoreTimeSweep::new(&g, 2, g.span());
        assert_eq!(sweep.current_start_time(), 1);
        assert!(!sweep.changed_vertices().is_empty());
        let mut steps = 0;
        while sweep.advance().is_some() {
            steps += 1;
            // changed vertices always carry a value different from infinity
            // only when they remain in some core; either way the list is
            // consistent with the ct array.
            for &u in sweep.changed_vertices() {
                let _ = sweep.core_times()[u as usize];
            }
        }
        assert_eq!(steps, g.tmax() - 1);
        assert_eq!(sweep.current_start_time(), g.tmax());
    }

    #[test]
    fn a_range_starting_past_tmax_degenerates_to_an_empty_sweep() {
        // Regression test for the clamping contract: `CoreTimeSweep::new`
        // clamps a past-tmax range to the degenerate `[start, start]` and
        // must report "no cores" (all core times infinite, no start times to
        // advance to) — the sweep-level mirror of
        // `EdgeCoreSkyline::build`'s documented empty skyline.
        let g = small_graph(); // tmax = 7
        let past = TimeWindow::new(g.tmax() + 1, g.tmax() + 9);
        let mut sweep = CoreTimeSweep::new(&g, 2, past);
        assert_eq!(
            sweep.range(),
            TimeWindow::new(g.tmax() + 1, g.tmax() + 1),
            "the clamped degenerate range is reported"
        );
        assert_eq!(sweep.current_start_time(), g.tmax() + 1);
        assert!(sweep.changed_vertices().is_empty());
        assert!(sweep.core_times().iter().all(|&ct| ct == T_INFINITY));
        assert_eq!(sweep.advance(), None, "nothing to sweep past tmax");
        // The index built through the same sweep is empty too.
        let vct = VertexCoreTimeIndex::build(&g, 2, past);
        assert_eq!(vct.size(), 0);
        // And the skyline layer maps the same case to an empty skyline that
        // echoes the *requested* range (see EdgeCoreSkyline::build).
        let ecs = crate::EdgeCoreSkyline::build(&g, 2, past);
        assert_eq!(ecs.total_windows(), 0);
        assert_eq!(ecs.range(), past);
    }

    #[test]
    #[should_panic]
    fn k_zero_is_rejected() {
        let g = small_graph();
        let _ = CoreTimeSweep::new(&g, 0, g.span());
    }

    /// Drives both sweeps over `range` and asserts equal core times at
    /// every start time, and that the new sweep reports exactly the
    /// vertices whose core time moved.
    fn assert_sweeps_agree(g: &TemporalGraph, k: usize, range: TimeWindow) {
        let mut sweep = CoreTimeSweep::new(g, k, range);
        let mut reference = ReferenceSweep::new(g, k, range);
        loop {
            let ts = sweep.current_start_time();
            assert_eq!(
                sweep.core_times(),
                reference.core_times(),
                "k={k} range={range} ts={ts}"
            );
            let before = sweep.core_times().to_vec();
            let (next, reference_next) = (sweep.advance(), reference.advance());
            assert_eq!(next, reference_next, "k={k} range={range} ts={ts}");
            if next.is_none() {
                return;
            }
            let mut moved: Vec<VertexId> = (0..before.len() as VertexId)
                .filter(|&u| before[u as usize] != sweep.core_times()[u as usize])
                .collect();
            let mut changed = sweep.changed_vertices().to_vec();
            changed.sort_unstable();
            moved.sort_unstable();
            assert_eq!(changed, moved, "k={k} range={range} ts={ts}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The support-counted sweep equals the reference sweep at every
        /// start time: random graphs with duplicate `(u, v, t)` edges,
        /// every `k` from 1 to the largest distinct degree + 1, the whole
        /// span and a random sub-range (which may start past `tmax`).
        #[test]
        fn support_counted_sweep_matches_the_reference_sweep(
            edges in prop::collection::vec((0u64..10, 0u64..10, 1i64..=9), 1..45),
            duplicated in prop::collection::vec(0usize..45, 0..10),
            raw_lo in 1u32..14,
            raw_len in 0u32..10,
        ) {
            let mut edges: Vec<(u64, u64, i64)> =
                edges.into_iter().filter(|(u, v, _)| u != v).collect();
            if edges.is_empty() {
                return Ok(());
            }
            for i in duplicated {
                edges.push(edges[i % edges.len()]);
            }
            let g = TemporalGraphBuilder::new()
                .timestamp_mode(temporal_graph::TimestampMode::Raw)
                .with_edges(edges)
                .build()
                .unwrap();
            let max_degree = (0..g.num_vertices() as VertexId)
                .map(|u| g.distinct_degree(u))
                .max()
                .unwrap_or(0);
            let sub_range = TimeWindow::new(raw_lo, raw_lo + raw_len);
            for k in 1..=max_degree + 1 {
                assert_sweeps_agree(&g, k, g.span());
                assert_sweeps_agree(&g, k, sub_range);
            }
        }
    }
}
