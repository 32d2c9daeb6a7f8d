//! Edge core window skylines (Definition 5, Algorithm 2).
//!
//! The *minimal core windows* of a temporal edge `e` are the windows
//! `[ts, te]` such that `e` belongs to the temporal k-core of `[ts, te]` but
//! of no proper sub-window.  The set of minimal core windows of an edge is
//! its *edge core window skyline* (ECS): both start and end times strictly
//! increase along the skyline, and the skyline compresses the relationship
//! between the edge and the k-cores of *all* windows (Lemma 3: `e` is in the
//! core of `[ts, te]` iff some skyline window is contained in `[ts, te]`).
//!
//! The skyline of every edge is derived as a byproduct of the vertex core
//! time sweep ([`crate::CoreTimeSweep`]), exactly as in Algorithm 2 of the
//! paper: the core time of an edge `(u, v, t)` for start time `ts` is
//! `max(CT_ts(u), CT_ts(v), t)` (Lemma 1), and whenever it changes between
//! consecutive start times a minimal core window is emitted (Lemma 2); a
//! final window is emitted when the edge leaves the shrinking query window.
//!
//! # Data layout
//!
//! A skyline is stored CSR-style: one flat, contiguous `Vec<TimeWindow>`
//! holding every edge's windows back to back (per-edge runs in skyline
//! order), plus a `Vec<u32>` offset array with `num_edges + 1` entries —
//! edge `first_edge + i` owns `flat[offsets[i]..offsets[i + 1]]`.  The hot
//! paths ([`EdgeCoreSkyline::restrict_with`] and the boundary-stitch
//! composition in [`crate::shard`]) walk edges in increasing id order and
//! append to the tail of `flat`, so they touch two contiguous arrays and
//! never allocate per edge.  Offsets are `u32` rather than `usize` because
//! edge ids are `u32` and every window emission is tied to a distinct
//! `(edge, start time)` pair with `u32` start times, so per-range window
//! totals fit comfortably (asserted at build time); halving the offset
//! width keeps the array inside fewer cache lines.

use crate::vct::CoreTimeSweep;
use temporal_graph::{EdgeId, TemporalGraph, TimeWindow, Timestamp, T_INFINITY};

/// Recycled CSR buffers for the query hot path.
///
/// [`EdgeCoreSkyline::restrict_with`] and the boundary-stitch composition
/// (see [`crate::shard`]) run once per query; allocating a fresh flat window
/// vector and offset array there dominated their cost on cache hits.  A
/// scratch pool keeps the `(offsets, flat)` buffer pairs of retired skylines
/// and hands them back with their capacity intact, so steady-state queries
/// allocate nothing (machine-checked by `tkc-lint`'s `hot-path-alloc` rule).
///
/// The recycling contract: take a pair with `SkylineScratch::take`, hand a
/// retired skyline's storage back with [`SkylineScratch::recycle`], and merge
/// a thread-local pool into a shared one with [`SkylineScratch::absorb`].
/// Buffers come back cleared but with capacity preserved.
#[derive(Debug, Default)]
pub struct SkylineScratch {
    buffers: Vec<(Vec<u32>, Vec<TimeWindow>)>,
}

impl SkylineScratch {
    /// Takes a cleared `(offsets, flat)` buffer pair, reusing the capacity
    /// of recycled skylines when one is pooled.
    pub(crate) fn take(&mut self) -> (Vec<u32>, Vec<TimeWindow>) {
        let (mut offsets, mut flat) = self.buffers.pop().unwrap_or_default();
        offsets.clear();
        flat.clear();
        (offsets, flat)
    }

    /// Returns a retired skyline's storage to the pool so later queries can
    /// reuse its capacity.
    pub fn recycle(&mut self, skyline: EdgeCoreSkyline) {
        self.buffers.push((skyline.offsets, skyline.flat));
    }

    /// Moves every pooled buffer pair of `other` into `self` (used to hand a
    /// thread-local scratch back to a shared pool).
    pub fn absorb(&mut self, mut other: SkylineScratch) {
        self.buffers.append(&mut other.buffers);
    }
}

/// The edge core window skylines of every temporal edge in the query range,
/// stored CSR-style: one flat window vector holding every edge's windows
/// back to back, plus a `u32` offset array with one entry per covered edge.
#[derive(Debug, Clone)]
pub struct EdgeCoreSkyline {
    k: usize,
    range: TimeWindow,
    /// CSR offsets: `num_edges + 1` entries (empty for an edge-less
    /// skyline); edge `first_edge + i` owns `flat[offsets[i]..offsets[i+1]]`.
    offsets: Vec<u32>,
    /// Every edge's skyline windows back to back, per-edge runs in skyline
    /// order (both endpoints strictly increasing).
    flat: Vec<TimeWindow>,
    /// First edge id of the query range (edge ids in a range are contiguous).
    first_edge: EdgeId,
}

impl EdgeCoreSkyline {
    /// Builds the skylines of all edges in `range` for parameter `k`
    /// (Algorithm 2: vertex core time sweep with edge core times maintained
    /// as a byproduct).
    ///
    /// A `range` starting past the graph's last timestamp projects to an
    /// empty graph and yields an **empty skyline reporting the requested
    /// range back** — the same contract [`CoreTimeSweep::new`] documents for
    /// its degenerate-range clamp, unified so both layers agree on what
    /// "past `tmax`" means.
    pub fn build(graph: &TemporalGraph, k: usize, range: TimeWindow) -> Self {
        // A range lying entirely past the graph's last timestamp projects to
        // an empty graph: no edges, no minimal core windows.  Return an
        // empty skyline instead of running a degenerate sweep (which used to
        // clamp the range to `[start, start]` and walk per-vertex state for
        // nothing).
        if range.start() > graph.tmax() || graph.num_edges() == 0 {
            return Self {
                k,
                range,
                offsets: Vec::new(),
                flat: Vec::new(),
                first_edge: 0,
            };
        }
        let mut sweep = CoreTimeSweep::new(graph, k, range);
        Self::build_from_sweep(graph, &mut sweep)
    }

    /// Restricts the skylines to a sub-range of the range they were built
    /// for, producing exactly the skyline that [`EdgeCoreSkyline::build`]
    /// would compute for `range` — without re-running the CoreTime sweep.
    ///
    /// Minimality of a core window is a property of the graph alone
    /// (Definition 5), so the skyline for a sub-range is the containment
    /// filter `{ w ∈ skyline : w ⊆ range }`; and because both endpoints
    /// strictly increase along an edge's skyline (Lemma 2), that filter is a
    /// contiguous slice found by two binary searches per edge.  Cost:
    /// `O(|E_range| + |ECS_range|)`.
    ///
    /// This is the primitive behind the query engine's index reuse (see
    /// [`crate::ShardedEngine`]).
    ///
    /// # Panics
    /// Panics if `range` is not contained in [`EdgeCoreSkyline::range`].
    // tkc-lint: hot
    pub fn restrict(&self, graph: &TemporalGraph, range: TimeWindow) -> Self {
        self.restrict_with(graph, range, &mut SkylineScratch::default())
    }

    /// [`EdgeCoreSkyline::restrict`] writing into a caller-provided scratch
    /// pool: the CSR buffers are taken from (and their storage later
    /// returned to, via [`SkylineScratch::recycle`]) `scratch`, so a warm
    /// pool makes restriction allocation-free per query — the result is
    /// emitted straight into one flat window vector and one offset array,
    /// with no per-edge tables at all.
    ///
    /// # Panics
    /// Panics if `range` is not contained in [`EdgeCoreSkyline::range`].
    // tkc-lint: hot
    pub fn restrict_with(
        &self,
        graph: &TemporalGraph,
        range: TimeWindow,
        scratch: &mut SkylineScratch,
    ) -> Self {
        assert!(
            self.range.contains_window(&range),
            "cannot restrict a skyline built for {} to the non-sub-range {}",
            self.range,
            range
        );
        let edge_range = graph.edge_ids_in(range);
        let first_edge = edge_range.start;
        let num_edges = (edge_range.end - edge_range.start) as usize;
        let (mut offsets, mut flat) = scratch.take();
        offsets.reserve(num_edges + 1);
        offsets.push(0);
        for id in edge_range {
            let full = self.windows(id);
            // Windows with start >= range.start() form a suffix, windows
            // with end <= range.end() a prefix; their overlap is the slice
            // of windows contained in `range`.
            let lo = full.partition_point(|w| w.start() < range.start());
            let hi = full.partition_point(|w| w.end() <= range.end());
            if lo < hi {
                flat.extend_from_slice(&full[lo..hi]);
            }
            offsets.push(flat.len() as u32);
        }
        Self {
            k: self.k,
            range,
            offsets,
            flat,
            first_edge,
        }
    }

    /// Builds the skylines by driving an already-constructed sweep (useful
    /// when the caller also wants the VCT index or phase timings).
    pub fn build_from_sweep(graph: &TemporalGraph, sweep: &mut CoreTimeSweep<'_>) -> Self {
        let k = sweep.k();
        let range = sweep.range();
        let edge_range = graph.edge_ids_in(range);
        let first_edge = edge_range.start;
        let num_edges = (edge_range.end - edge_range.start) as usize;

        // Windows are emitted interleaved across edges but in skyline order
        // *per edge*, so they are collected as `(local edge, window)` pairs
        // and scattered into the CSR arrays by a stable counting sort below —
        // a constant number of allocations, never one per edge.
        let mut emitted: Vec<(u32, TimeWindow)> = Vec::new();
        // Current core time of every in-range edge for the sweep's start time.
        let mut edge_ct: Vec<Timestamp> = vec![T_INFINITY; num_edges];

        // Incident in-range edges per vertex, sorted by timestamp, with a
        // pointer to the first edge whose timestamp is >= the current start
        // time (edges below it have left the window).
        let n = graph.num_vertices();
        let mut inc_offsets = vec![0u32; n + 1];
        for id in edge_range.clone() {
            let e = graph.edge(id);
            inc_offsets[e.u as usize + 1] += 1;
            inc_offsets[e.v as usize + 1] += 1;
        }
        for i in 1..inc_offsets.len() {
            inc_offsets[i] += inc_offsets[i - 1];
        }
        let mut incident: Vec<EdgeId> = vec![0; inc_offsets[n] as usize];
        let mut cursor = inc_offsets.clone();
        // Edge ids are sorted by timestamp, so pushing in id order keeps each
        // vertex's incident list sorted by timestamp.
        for id in edge_range.clone() {
            let e = graph.edge(id);
            for v in [e.u, e.v] {
                incident[cursor[v as usize] as usize] = id;
                cursor[v as usize] += 1;
            }
        }
        let mut inc_ptr: Vec<u32> = inc_offsets[..n].to_vec();

        // Initial edge core times for ts = range.start() (Algorithm 2, line 3).
        let ct = sweep.core_times();
        for id in edge_range.clone() {
            let e = graph.edge(id);
            let local = (id - first_edge) as usize;
            edge_ct[local] = edge_core_time(ct[e.u as usize], ct[e.v as usize], e.t);
        }

        // Sweep start times (Algorithm 2, lines 5-11).
        loop {
            let prev_ts = sweep.current_start_time();
            if sweep.advance().is_none() {
                // Flush edges that never leave before the range ends
                // (timestamp == range end).
                for id in graph.edge_ids_at(prev_ts) {
                    if id < edge_range.start || id >= edge_range.end {
                        continue;
                    }
                    let local = (id - first_edge) as usize;
                    if edge_ct[local] != T_INFINITY {
                        emitted.push((local as u32, TimeWindow::new(prev_ts, edge_ct[local])));
                    }
                }
                break;
            }
            let ts = sweep.current_start_time();

            // Edges with timestamp `prev_ts` leave the window: their last
            // minimal core window (if any) starts at `prev_ts`.
            for id in graph.edge_ids_at(prev_ts) {
                if id < edge_range.start || id >= edge_range.end {
                    continue;
                }
                let local = (id - first_edge) as usize;
                if edge_ct[local] != T_INFINITY {
                    emitted.push((local as u32, TimeWindow::new(prev_ts, edge_ct[local])));
                }
            }

            // Update the core times of edges incident to changed vertices
            // (Algorithm 2, lines 6-11).
            let ct = sweep.core_times();
            for &u in sweep.changed_vertices() {
                let mut ptr = inc_ptr[u as usize] as usize;
                let end = inc_offsets[u as usize + 1] as usize;
                while ptr < end && graph.edge(incident[ptr]).t < ts {
                    ptr += 1;
                }
                inc_ptr[u as usize] = ptr as u32;
                for &id in &incident[ptr..end] {
                    let e = graph.edge(id);
                    let local = (id - first_edge) as usize;
                    let new_ct = edge_core_time(ct[e.u as usize], ct[e.v as usize], e.t);
                    if new_ct > edge_ct[local] {
                        if edge_ct[local] != T_INFINITY {
                            // The previous value was the edge's core time for
                            // start times up to ts - 1, so [ts - 1, old] is a
                            // minimal core window (Lemma 2).
                            emitted.push((local as u32, TimeWindow::new(ts - 1, edge_ct[local])));
                        }
                        edge_ct[local] = new_ct;
                    }
                }
            }
        }

        // Stable counting-sort scatter into the CSR layout: per-edge counts,
        // prefix sums into offsets, then one pass placing each window at its
        // edge's cursor.  Emission order per edge equals skyline order, and
        // the scatter preserves it.
        assert!(
            emitted.len() < u32::MAX as usize,
            "skyline window count exceeds u32 offset space"
        );
        let mut offsets = vec![0u32; num_edges + 1];
        for &(local, _) in &emitted {
            offsets[local as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut write_cursor: Vec<u32> = offsets[..num_edges].to_vec();
        let mut flat: Vec<TimeWindow> = vec![TimeWindow::new(1, 1); emitted.len()];
        for &(local, w) in &emitted {
            flat[write_cursor[local as usize] as usize] = w;
            write_cursor[local as usize] += 1;
        }

        Self {
            k,
            range,
            offsets,
            flat,
            first_edge,
        }
    }

    /// Crate-internal constructor assembling a skyline from CSR buffers the
    /// caller guarantees to be consistent (`offsets` non-decreasing with
    /// `num_edges + 1` entries ending at `flat.len()`), with per-edge runs
    /// in skyline order (both endpoints strictly increasing) and contained
    /// in `range`.  Used by the boundary stitch composition (see
    /// [`crate::shard`]), which merges cached per-shard slices with
    /// cut-crossing windows instead of re-sweeping.
    pub(crate) fn from_parts(
        k: usize,
        range: TimeWindow,
        first_edge: EdgeId,
        offsets: Vec<u32>,
        flat: Vec<TimeWindow>,
    ) -> Self {
        debug_assert!(offsets.first() == Some(&0));
        debug_assert!(offsets.last().copied().unwrap_or(0) as usize == flat.len());
        debug_assert!(offsets.windows(2).all(|p| p[0] <= p[1]));
        debug_assert!((0..offsets.len().saturating_sub(1)).all(|local| {
            let per_edge = &flat[offsets[local] as usize..offsets[local + 1] as usize];
            per_edge
                .windows(2)
                .all(|p| p[0].start() < p[1].start() && p[0].end() < p[1].end())
                && per_edge.iter().all(|w| range.contains_window(w))
        }));
        Self {
            k,
            range,
            offsets,
            flat,
            first_edge,
        }
    }

    /// Returns a copy keeping only the windows satisfying `keep`, preserving
    /// per-edge order.  A filtered subsequence keeps both endpoints strictly
    /// increasing, so binary-search containment slicing stays valid on the
    /// result (it is **not** a complete skyline: feeding it to an enumerator
    /// yields cores with incomplete edge sets — the boundary index only uses
    /// it as a store of cut-crossing windows to merge back later).
    pub(crate) fn filtered(&self, keep: impl Fn(&TimeWindow) -> bool) -> Self {
        let mut offsets = Vec::with_capacity(self.offsets.len().max(1));
        let mut flat = Vec::new();
        offsets.push(0);
        for local in 0..self.num_local_edges() {
            let (lo, hi) = (
                self.offsets[local] as usize,
                self.offsets[local + 1] as usize,
            );
            for w in &self.flat[lo..hi] {
                if keep(w) {
                    flat.push(*w);
                }
            }
            offsets.push(flat.len() as u32);
        }
        Self {
            k: self.k,
            range: self.range,
            offsets,
            flat,
            first_edge: self.first_edge,
        }
    }

    /// Number of local (in-range) edge slots in the CSR arrays.
    #[inline]
    fn num_local_edges(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// The query parameter `k` the skylines were built for.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The query range the skylines were built for.
    #[inline]
    pub fn range(&self) -> TimeWindow {
        self.range
    }

    /// The minimal core windows of a temporal edge, ordered by increasing
    /// start (and end) time.  Empty when the edge is outside the query range
    /// or never belongs to a temporal k-core.
    // tkc-lint: hot
    pub fn windows(&self, edge: EdgeId) -> &[TimeWindow] {
        let Some(local) = edge.checked_sub(self.first_edge) else {
            return &[];
        };
        let local = local as usize;
        if local + 1 >= self.offsets.len() {
            return &[];
        }
        &self.flat[self.offsets[local] as usize..self.offsets[local + 1] as usize]
    }

    /// Iterates `(edge id, skyline)` for every edge with a non-empty skyline.
    pub fn iter(&self) -> impl Iterator<Item = (EdgeId, &[TimeWindow])> + '_ {
        (0..self.num_local_edges()).filter_map(move |local| {
            let lo = self.offsets[local] as usize;
            let hi = self.offsets[local + 1] as usize;
            (lo < hi).then(|| (self.first_edge + local as EdgeId, &self.flat[lo..hi]))
        })
    }

    /// Total number of minimal core windows over all edges — the paper's `|ECS|`.
    #[inline]
    pub fn total_windows(&self) -> usize {
        self.flat.len()
    }

    /// Number of edges with at least one minimal core window.
    pub fn num_edges_with_windows(&self) -> usize {
        self.offsets.windows(2).filter(|p| p[0] < p[1]).count()
    }

    /// Approximate heap footprint in bytes (the flat window array plus the
    /// `u32` offset array).
    pub fn memory_bytes(&self) -> usize {
        self.flat.len() * std::mem::size_of::<TimeWindow>()
            + self.offsets.len() * std::mem::size_of::<u32>()
    }
}

#[inline]
fn edge_core_time(ct_u: Timestamp, ct_v: Timestamp, t: Timestamp) -> Timestamp {
    if ct_u == T_INFINITY || ct_v == T_INFINITY {
        T_INFINITY
    } else {
        ct_u.max(ct_v).max(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::edge_in_core_of_window;
    use temporal_graph::TemporalGraphBuilder;

    fn graph() -> TemporalGraph {
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

    /// Brute-force skyline: all windows in which the edge is in the core and
    /// no proper sub-window has that property.
    fn naive_skyline(
        g: &TemporalGraph,
        k: usize,
        range: TimeWindow,
        edge: EdgeId,
    ) -> Vec<TimeWindow> {
        let core_windows: Vec<TimeWindow> = range
            .sub_windows()
            .filter(|&w| edge_in_core_of_window(g, k, w, edge))
            .collect();
        let mut minimal: Vec<TimeWindow> = core_windows
            .iter()
            .copied()
            .filter(|w| !core_windows.iter().any(|other| w.properly_contains(other)))
            .collect();
        minimal.sort();
        minimal
    }

    #[test]
    fn skylines_match_naive_definition() {
        let g = graph();
        for k in 1..=3 {
            for range in [g.span(), TimeWindow::new(2, 6), TimeWindow::new(3, 7)] {
                let ecs = EdgeCoreSkyline::build(&g, k, range);
                for id in 0..g.num_edges() as EdgeId {
                    let mut got = ecs.windows(id).to_vec();
                    got.sort();
                    assert_eq!(
                        got,
                        naive_skyline(&g, k, range, id),
                        "k={k} range={range} edge={id}"
                    );
                }
            }
        }
    }

    #[test]
    fn skyline_windows_strictly_increase() {
        let g = graph();
        let ecs = EdgeCoreSkyline::build(&g, 2, g.span());
        for (_, windows) in ecs.iter() {
            for pair in windows.windows(2) {
                assert!(pair[0].start() < pair[1].start());
                assert!(pair[0].end() < pair[1].end());
            }
        }
        assert_eq!(
            ecs.total_windows(),
            ecs.iter().map(|(_, w)| w.len()).sum::<usize>()
        );
        assert!(ecs.num_edges_with_windows() <= g.num_edges());
        assert!(ecs.memory_bytes() > 0);
    }

    #[test]
    fn csr_offsets_are_consistent() {
        let g = graph();
        for k in 1..=3 {
            let ecs = EdgeCoreSkyline::build(&g, k, g.span());
            assert_eq!(ecs.offsets.len(), g.num_edges() + 1);
            assert_eq!(ecs.offsets.first(), Some(&0));
            assert_eq!(
                ecs.offsets.last().copied().unwrap_or(0) as usize,
                ecs.flat.len()
            );
            assert!(ecs.offsets.windows(2).all(|p| p[0] <= p[1]));
            // windows() and the raw CSR slices agree.
            for id in 0..g.num_edges() as EdgeId {
                let local = id as usize;
                let lo = ecs.offsets[local] as usize;
                let hi = ecs.offsets[local + 1] as usize;
                assert_eq!(ecs.windows(id), &ecs.flat[lo..hi]);
            }
        }
    }

    #[test]
    fn edges_outside_range_have_no_windows() {
        let g = graph();
        let range = TimeWindow::new(3, 6);
        let ecs = EdgeCoreSkyline::build(&g, 2, range);
        for id in 0..g.num_edges() as EdgeId {
            let t = g.edge(id).t;
            if !range.contains(t) {
                assert!(ecs.windows(id).is_empty(), "edge {id} at t={t}");
            }
            for w in ecs.windows(id) {
                assert!(range.contains_window(w));
                assert!(w.contains(t));
            }
        }
    }

    #[test]
    fn out_of_span_range_yields_an_empty_skyline() {
        // Regression test: a query range lying entirely past tmax used to be
        // clamped to the degenerate window [start, start] and swept anyway.
        let g = graph(); // tmax = 7
        let empty_tail = TimeWindow::new(8, 42);
        let ecs = EdgeCoreSkyline::build(&g, 2, empty_tail);
        assert_eq!(ecs.total_windows(), 0);
        assert_eq!(ecs.num_edges_with_windows(), 0);
        assert_eq!(ecs.range(), empty_tail, "requested range is reported back");
        for id in 0..g.num_edges() as EdgeId {
            assert!(ecs.windows(id).is_empty());
        }
        assert_eq!(ecs.iter().count(), 0);
        // The enumerators agree: no cores in an empty tail.
        let mut sink = crate::sink::CountingSink::default();
        let stats = crate::enumerate(&g, &ecs, &mut sink);
        assert_eq!(stats.num_cores, 0);
    }

    #[test]
    fn restrict_matches_fresh_build_on_every_sub_range() {
        let g = graph();
        for k in 1..=3 {
            let span = EdgeCoreSkyline::build(&g, k, g.span());
            for sub in g.span().sub_windows() {
                let restricted = span.restrict(&g, sub);
                let fresh = EdgeCoreSkyline::build(&g, k, sub);
                assert_eq!(restricted.k(), fresh.k());
                assert_eq!(restricted.range(), sub);
                assert_eq!(
                    restricted.total_windows(),
                    fresh.total_windows(),
                    "k={k} sub={sub}"
                );
                for id in 0..g.num_edges() as EdgeId {
                    assert_eq!(
                        restricted.windows(id),
                        fresh.windows(id),
                        "k={k} sub={sub} edge={id}"
                    );
                }
            }
        }
    }

    #[test]
    fn scratch_recycling_preserves_results_and_reuses_capacity() {
        let g = graph();
        let span = EdgeCoreSkyline::build(&g, 2, g.span());
        let mut scratch = SkylineScratch::default();
        let first = span.restrict_with(&g, TimeWindow::new(2, 6), &mut scratch);
        let flat_ptr = first.flat.as_ptr();
        let expected = first.total_windows();
        scratch.recycle(first);
        // The second restriction reuses the recycled buffers (same backing
        // allocation) and produces identical results.
        let second = span.restrict_with(&g, TimeWindow::new(2, 6), &mut scratch);
        assert_eq!(second.total_windows(), expected);
        assert_eq!(second.flat.as_ptr(), flat_ptr, "capacity was recycled");
        let fresh = EdgeCoreSkyline::build(&g, 2, TimeWindow::new(2, 6));
        for id in 0..g.num_edges() as EdgeId {
            assert_eq!(second.windows(id), fresh.windows(id));
        }
    }

    #[test]
    #[should_panic(expected = "non-sub-range")]
    fn restrict_rejects_non_sub_ranges() {
        let g = graph();
        let ecs = EdgeCoreSkyline::build(&g, 2, TimeWindow::new(2, 5));
        let _ = ecs.restrict(&g, TimeWindow::new(1, 5));
    }

    #[test]
    fn accessors_report_parameters() {
        let g = graph();
        let range = TimeWindow::new(2, 7);
        let ecs = EdgeCoreSkyline::build(&g, 2, range);
        assert_eq!(ecs.k(), 2);
        assert_eq!(ecs.range(), range);
    }
}
