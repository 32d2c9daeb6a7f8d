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
//! edge `first_edge + i` owns `flat[offsets[i]..offsets[i + 1]]`.  Offsets
//! are `u32` rather than `usize` because edge ids are `u32` and every
//! window emission is tied to a distinct `(edge, start time)` pair with
//! `u32` start times, so per-range window totals fit comfortably (asserted
//! at build time); halving the offset width keeps the array inside fewer
//! cache lines.
//!
//! # Window views
//!
//! A query never copies a cached skyline.  A [`WindowView`] borrows the
//! skylines a window reads — one part per overlapped shard, each with its
//! sub-window and edge-id range, plus the cut-crossing stitch entry of a
//! spanning window — and yields each edge's run on demand: the
//! two-binary-search containment slice of the edge's own part, merged by
//! start time with that of its crossing windows.  That run is exactly the
//! edge's skyline for the window (see [`crate::shard`]), so
//! [`crate::enumerate`] reads it in place; `WindowView::materialize`
//! copies it for callers that want a skyline of their own.

use std::ops::Range;

use crate::vct::CoreTimeSweep;
use temporal_graph::{EdgeId, TemporalGraph, TimeWindow, Timestamp, T_INFINITY};

/// Recycled CSR buffers for [`EdgeCoreSkyline::restrict_with`].
///
/// A scratch pool keeps the CSR buffers of retired skylines and hands them
/// back with their capacity intact, so repeated restrictions through one
/// pool allocate no skyline storage: take buffers with
/// `SkylineScratch::take` and hand a retired skyline's storage back with
/// [`SkylineScratch::recycle`].  Buffers come back cleared but with
/// capacity preserved.
#[derive(Debug, Default)]
pub struct SkylineScratch {
    buffers: Vec<Csr<TimeWindow>>,
}

impl SkylineScratch {
    /// Takes cleared CSR buffers, reusing the capacity of recycled
    /// skylines when one is pooled.
    fn take(&mut self) -> Csr<TimeWindow> {
        let mut runs = self.buffers.pop().unwrap_or_else(Csr::empty);
        runs.offsets.clear();
        runs.items.clear();
        runs
    }

    /// Returns a retired skyline's storage to the pool so later
    /// restrictions can reuse its capacity.
    pub fn recycle(&mut self, skyline: EdgeCoreSkyline) {
        self.buffers.push(skyline.runs);
    }
}

/// The edge core window skylines of every temporal edge in the query range,
/// stored CSR-style: one flat window vector holding every edge's windows
/// back to back, plus a `u32` offset array with one entry per covered edge.
#[derive(Debug, Clone)]
pub struct EdgeCoreSkyline {
    k: usize,
    range: TimeWindow,
    /// Bucket `i` (`num_edges` buckets, none for an edge-less skyline) is
    /// the run of edge `first_edge + i`, in skyline order (both endpoints
    /// strictly increasing).
    runs: Csr<TimeWindow>,
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
                runs: Csr::empty(),
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
    /// `O(|E_range| + |ECS_range|)`.  This copies a [`WindowView`] of the
    /// sub-range.
    ///
    /// # Panics
    /// Panics if `range` is not contained in [`EdgeCoreSkyline::range`].
    pub fn restrict(&self, graph: &TemporalGraph, range: TimeWindow) -> Self {
        self.restrict_with(graph, range, &mut SkylineScratch::default())
    }

    /// [`EdgeCoreSkyline::restrict`] writing into a caller-provided scratch
    /// pool: the CSR buffers are taken from (and their storage later
    /// returned to, via [`SkylineScratch::recycle`]) `scratch`, so a warm
    /// pool allocates no skyline storage.
    ///
    /// # Panics
    /// Panics if `range` is not contained in [`EdgeCoreSkyline::range`].
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
        WindowView::new(graph, self.k, range, [self], None).materialize(scratch)
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
        // and bucketed into the CSR arrays by a stable counting sort below —
        // a constant number of allocations, never one per edge.
        let mut emitted: Vec<(u32, TimeWindow)> = Vec::new();
        // Current core time of every in-range edge for the sweep's start time.
        let mut edge_ct: Vec<Timestamp> = vec![T_INFINITY; num_edges];

        // Incident in-range edges per vertex, sorted by timestamp, with a
        // pointer to the first edge whose timestamp is >= the current start
        // time (edges below it have left the window).
        // Edge ids are sorted by timestamp, so a stable sort in id order
        // keeps each vertex's incident list sorted by timestamp.
        let n = graph.num_vertices();
        let incidence = Csr::sort(
            n,
            0,
            edge_range.clone().flat_map(|id| {
                let e = graph.edge(id);
                [(e.u as usize, id), (e.v as usize, id)]
            }),
        );
        let mut inc_ptr: Vec<u32> = incidence.offsets[..n].to_vec();

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
                let end = incidence.offsets[u as usize + 1] as usize;
                while ptr < end && graph.edge(incidence.items[ptr]).t < ts {
                    ptr += 1;
                }
                inc_ptr[u as usize] = ptr as u32;
                for &id in &incidence.items[ptr..end] {
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

        // Emission order per edge equals skyline order, and the stable
        // counting sort into the CSR layout preserves it.
        assert!(
            emitted.len() < u32::MAX as usize,
            "skyline window count exceeds u32 offset space"
        );
        let runs = Csr::sort(
            num_edges,
            TimeWindow::new(1, 1),
            emitted.iter().map(|&(local, w)| (local as usize, w)),
        );
        Self {
            k,
            range,
            runs,
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
        // Collected once, so `keep` runs once per window, not per pass.
        let kept: Vec<(usize, TimeWindow)> = (0..self.num_local_edges())
            .flat_map(|local| {
                let windows = self.runs.bucket(local).iter();
                windows.filter(|w| keep(w)).map(move |&w| (local, w))
            })
            .collect();
        let runs = Csr::sort(
            self.num_local_edges(),
            TimeWindow::new(1, 1),
            kept.iter().copied(),
        );
        Self { runs, ..*self }
    }

    /// Number of local (in-range) edge slots in the CSR arrays.
    #[inline]
    fn num_local_edges(&self) -> usize {
        self.runs.offsets.len().saturating_sub(1)
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
        if local >= self.num_local_edges() {
            return &[];
        }
        self.runs.bucket(local)
    }

    /// Iterates `(edge id, skyline)` for every edge with a non-empty skyline.
    pub fn iter(&self) -> impl Iterator<Item = (EdgeId, &[TimeWindow])> + '_ {
        (0..self.num_local_edges()).filter_map(move |local| {
            let run = self.runs.bucket(local);
            (!run.is_empty()).then(|| (self.first_edge + local as EdgeId, run))
        })
    }

    /// Total number of minimal core windows over all edges — the paper's `|ECS|`.
    #[inline]
    pub fn total_windows(&self) -> usize {
        self.runs.items.len()
    }

    /// Number of edges with at least one minimal core window.
    pub fn num_edges_with_windows(&self) -> usize {
        self.runs.offsets.windows(2).filter(|p| p[0] < p[1]).count()
    }

    /// Approximate heap footprint in bytes (the flat window array plus the
    /// `u32` offset array).
    pub fn memory_bytes(&self) -> usize {
        self.runs.memory_bytes()
    }
}

/// Values grouped into buckets `0..width`, CSR-style: bucket `b` is
/// `items[offsets[b]..offsets[b + 1]]`.
#[derive(Debug, Clone)]
pub(crate) struct Csr<V> {
    pub(crate) offsets: Vec<u32>,
    pub(crate) items: Vec<V>,
}

impl<V: Copy> Csr<V> {
    /// No buckets at all.
    pub(crate) fn empty() -> Self {
        Self {
            offsets: Vec::new(),
            items: Vec::new(),
        }
    }

    /// Stable counting sort of `(bucket, value)` pairs into `width`
    /// buckets: one counting pass, one scatter, and within a bucket the
    /// values keep their order in `pairs`.
    pub(crate) fn sort(
        width: usize,
        fill: V,
        pairs: impl Iterator<Item = (usize, V)> + Clone,
    ) -> Self {
        let mut offsets = vec![0u32; width + 1];
        for (bucket, _) in pairs.clone() {
            offsets[bucket + 1] += 1;
        }
        for b in 1..=width {
            offsets[b] += offsets[b - 1];
        }
        let mut items = vec![fill; offsets[width] as usize];
        // Scatter with `offsets[b]` as bucket `b`'s cursor; afterwards it
        // holds bucket `b + 1`'s start, so shifting right by one restores
        // the bucket starts.
        for (bucket, value) in pairs {
            let cursor = &mut offsets[bucket];
            items[*cursor as usize] = value;
            *cursor += 1;
        }
        offsets.copy_within(..width.saturating_sub(1), 1);
        offsets[0] = 0;
        Self { offsets, items }
    }

    /// The values of bucket `b`, in sort order.
    #[inline]
    pub(crate) fn bucket(&self, b: usize) -> &[V] {
        &self.items[self.offsets[b] as usize..self.offsets[b + 1] as usize]
    }

    /// Heap footprint in bytes.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u32>()
            + self.items.len() * std::mem::size_of::<V>()
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

/// One skyline of a [`WindowView`], read through its sub-window.  Only
/// this part can hold intra-shard windows of the edges in `edges`, whose
/// timestamps fall inside `window`.
#[derive(Debug)]
struct ViewPart<'a> {
    skyline: &'a EdgeCoreSkyline,
    window: TimeWindow,
    edges: Range<EdgeId>,
}

/// A borrowed view of a query window's skyline over cached skylines, with
/// no copy: one part per overlapped skyline, read through its sub-window,
/// plus the stitch entry of a window spanning shard cuts.  An edge's run
/// ([`WindowView::windows`]) is the containment slice of its own part
/// merged by start time with its slice of cut-crossing windows: exactly
/// its skyline for the window.
#[derive(Debug)]
pub struct WindowView<'a> {
    k: usize,
    window: TimeWindow,
    parts: Vec<ViewPart<'a>>,
    crossing: Option<&'a EdgeCoreSkyline>,
}

impl<'a> From<&'a EdgeCoreSkyline> for WindowView<'a> {
    /// The whole skyline, read through its own range.
    fn from(skyline: &'a EdgeCoreSkyline) -> Self {
        Self {
            k: skyline.k,
            window: skyline.range,
            parts: vec![ViewPart {
                skyline,
                window: skyline.range,
                edges: skyline.first_edge..skyline.first_edge + skyline.num_local_edges() as EdgeId,
            }],
            crossing: None,
        }
    }
}

impl<'a> WindowView<'a> {
    /// The view of `window` over `skylines` (in timeline order, ranges
    /// tiling a superset of `window`) and the cut-crossing windows of
    /// `crossing`.
    pub(crate) fn new(
        graph: &TemporalGraph,
        k: usize,
        window: TimeWindow,
        skylines: impl IntoIterator<Item = &'a EdgeCoreSkyline>,
        crossing: Option<&'a EdgeCoreSkyline>,
    ) -> Self {
        let parts = skylines
            .into_iter()
            .filter_map(|skyline| {
                let part = skyline.range.intersect(&window)?;
                let edges = graph.edge_ids_in(part);
                Some(ViewPart {
                    skyline,
                    window: part,
                    edges,
                })
            })
            .collect();
        Self {
            k,
            window,
            parts,
            crossing,
        }
    }

    /// The query parameter `k` of the skylines read.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The window viewed.
    pub fn window(&self) -> TimeWindow {
        self.window
    }

    /// The minimal core windows of `edge` inside the window, ordered by
    /// increasing start (and end) time: the same windows
    /// [`EdgeCoreSkyline::build`] over the window gives the edge.
    pub fn windows(&self, edge: EdgeId) -> Vec<TimeWindow> {
        let mut windows = Vec::new();
        if let Some(part) = self.parts.iter().find(|p| p.edges.contains(&edge)) {
            self.run(part, edge).for_each(|w| windows.push(w));
        }
        windows
    }

    /// Number of edges of the window.
    pub(crate) fn num_edges(&self) -> usize {
        self.parts.iter().map(|p| p.edges.len()).sum()
    }

    /// Calls `f` with every edge of the window, in id order, and its run.
    // tkc-lint: hot
    pub(crate) fn for_each_run(&self, mut f: impl FnMut(EdgeId, MergedRun<'a>)) {
        for part in &self.parts {
            for edge in part.edges.start..part.edges.end {
                f(edge, self.run(part, edge));
            }
        }
    }

    /// The run of `edge`, whose timestamp falls inside `part`: containment
    /// slices of the part's skyline and of the crossing entry, no copy.
    // tkc-lint: hot
    fn run(&self, part: &ViewPart<'a>, edge: EdgeId) -> MergedRun<'a> {
        let own = contained(part.skyline.windows(edge), part.window);
        let cross = match self.crossing {
            Some(crossing) => contained(crossing.windows(edge), self.window),
            None => &[],
        };
        MergedRun { own, cross }
    }

    /// Copies the view into a CSR skyline for the window, with buffers
    /// taken from `scratch`.
    pub(crate) fn materialize(&self, scratch: &mut SkylineScratch) -> EdgeCoreSkyline {
        let mut runs = scratch.take();
        runs.offsets.push(0);
        self.for_each_run(|_, run| {
            run.for_each(|w| runs.items.push(w));
            runs.offsets.push(runs.items.len() as u32);
        });
        EdgeCoreSkyline {
            k: self.k,
            range: self.window,
            runs,
            first_edge: self.parts.first().map_or(0, |p| p.edges.start),
        }
    }
}

/// The windows of a skyline run contained in `window`: those with
/// `start >= window.start()` form a suffix and those with
/// `end <= window.end()` a prefix, so their overlap is one slice.
// tkc-lint: hot
fn contained(run: &[TimeWindow], window: TimeWindow) -> &[TimeWindow] {
    match (run.first(), run.last()) {
        (Some(first), Some(last))
            if first.end() <= window.end() && last.start() >= window.start() =>
        {
            let lo = run.partition_point(|w| w.start() < window.start());
            let hi = run.partition_point(|w| w.end() <= window.end());
            run.get(lo..hi).unwrap_or(&[])
        }
        _ => &[],
    }
}

/// One edge's run in a [`WindowView`]: its intra-shard windows merged by
/// start time (never shared) with its cut-crossing ones, in skyline order.
pub(crate) struct MergedRun<'a> {
    own: &'a [TimeWindow],
    cross: &'a [TimeWindow],
}

impl MergedRun<'_> {
    /// Calls `f` with every window of the run, in skyline order.
    // tkc-lint: hot
    pub(crate) fn for_each(self, mut f: impl FnMut(TimeWindow)) {
        let mut own = self.own;
        for &c in self.cross {
            while let Some((&w, rest)) = own.split_first() {
                if w.start() > c.start() {
                    break;
                }
                f(w);
                own = rest;
            }
            f(c);
        }
        own.iter().for_each(|&w| f(w));
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
            let (offsets, flat) = (&ecs.runs.offsets, &ecs.runs.items);
            assert_eq!(offsets.len(), g.num_edges() + 1);
            assert_eq!(offsets.first(), Some(&0));
            assert_eq!(offsets.last().copied().unwrap_or(0) as usize, flat.len());
            assert!(offsets.windows(2).all(|p| p[0] <= p[1]));
            // windows() and the raw CSR slices agree.
            for id in 0..g.num_edges() as EdgeId {
                let local = id as usize;
                let lo = offsets[local] as usize;
                let hi = offsets[local + 1] as usize;
                assert_eq!(ecs.windows(id), &flat[lo..hi]);
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
        let flat_ptr = first.runs.items.as_ptr();
        let expected = first.total_windows();
        scratch.recycle(first);
        // The second restriction reuses the recycled buffers (same backing
        // allocation) and produces identical results.
        let second = span.restrict_with(&g, TimeWindow::new(2, 6), &mut scratch);
        assert_eq!(second.total_windows(), expected);
        assert_eq!(
            second.runs.items.as_ptr(),
            flat_ptr,
            "capacity was recycled"
        );
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
