//! The OTCD baseline (Algorithm 1): Optimized Temporal Core Decomposition
//! of Yang et al. (VLDB 2023), the state of the art the paper compares
//! against.
//!
//! OTCD anchors a start time `ts` and shrinks the end time from `Te` down to
//! `ts`, maintaining the temporal k-core decrementally: truncating the
//! previous window's core and re-peeling.  Our implementation applies the
//! dominant pruning rule of the original (*Pruning-on-the-Right*): after
//! computing the core of `[ts, te]` with tightest time interval
//! `[ts', te']`, every window `[ts, x]` with `te' <= x < te` has the same
//! core, so the scan jumps directly to `te' - 1`.  A core is output exactly
//! when the current window equals its TTI, which yields each distinct
//! temporal k-core exactly once without a dedup table (see the module tests
//! for the cross-check against the reference enumerator).  The remaining
//! PoU/PoL rules of the original prune additional duplicate windows but do
//! not change the `O(tmax² · B)` worst case; their omission is recorded in
//! DESIGN.md.

use crate::ecs::Csr;
use crate::sink::ResultSink;
use std::collections::{HashMap, VecDeque};
use temporal_graph::{EdgeId, TemporalGraph, TimeWindow, Timestamp, VertexId};

/// Statistics of one OTCD run.
#[derive(Debug, Clone, Copy, Default)]
pub struct OtcdStats {
    /// Number of distinct temporal k-cores emitted.
    pub num_cores: u64,
    /// Total number of edges over all emitted cores (`|R|`).
    pub total_edges: u64,
    /// Number of (start, end) windows whose core was materialised.
    pub windows_scanned: u64,
    /// Estimated peak heap footprint in bytes (two working subgraphs).
    pub peak_memory_bytes: usize,
}

/// A decrementally-maintained temporal k-core: the projected window shrinks
/// (from either side) and vertices below degree `k` are peeled away.
#[derive(Clone)]
struct CoreSubgraph<'g> {
    graph: &'g TemporalGraph,
    k: usize,
    first_edge: EdgeId,
    /// Aliveness per local edge index (edge id - first_edge).
    alive_edge: Vec<bool>,
    /// Multiplicity of alive edges per vertex pair (u < v).
    pair_mult: HashMap<(VertexId, VertexId), u32>,
    /// Distinct alive neighbours per vertex.
    distinct_deg: Vec<u32>,
    /// Vertex currently in the core candidate set.
    in_core: Vec<bool>,
    /// Incident local edges per vertex (built once, shared via Arc-like clone).
    incidence: Csr<u32>,
    num_alive_edges: usize,
    /// Number of alive edges per timestamp offset (t - range.start()).
    alive_per_time: Vec<u32>,
    range: TimeWindow,
    /// Current (not yet truncated) window bounds; edges outside have already
    /// been removed, so truncations never revisit them.
    cur_start: Timestamp,
    cur_end: Timestamp,
    min_ptr: usize,
    max_ptr: usize,
}

impl<'g> CoreSubgraph<'g> {
    /// Builds the k-core of the full query range.
    fn new(graph: &'g TemporalGraph, k: usize, range: TimeWindow) -> Self {
        let edge_range = graph.edge_ids_in(range);
        let first_edge = edge_range.start;
        let num_local = (edge_range.end - edge_range.start) as usize;
        let n = graph.num_vertices();
        let width = range.len() as usize;

        let incidence = Csr::sort(
            n,
            0,
            edge_range.clone().flat_map(|id| {
                let e = graph.edge(id);
                let local = id - first_edge;
                [(e.u as usize, local), (e.v as usize, local)]
            }),
        );

        let mut pair_mult: HashMap<(VertexId, VertexId), u32> = HashMap::new();
        let mut distinct_deg = vec![0u32; n];
        let mut alive_per_time = vec![0u32; width];
        for id in edge_range.clone() {
            let e = graph.edge(id);
            let entry = pair_mult.entry((e.u, e.v)).or_insert(0);
            if *entry == 0 {
                distinct_deg[e.u as usize] += 1;
                distinct_deg[e.v as usize] += 1;
            }
            *entry += 1;
            alive_per_time[(e.t - range.start()) as usize] += 1;
        }

        let mut sub = Self {
            graph,
            k,
            first_edge,
            alive_edge: vec![true; num_local],
            pair_mult,
            distinct_deg,
            in_core: vec![true; n],
            incidence,
            num_alive_edges: num_local,
            alive_per_time,
            range,
            cur_start: range.start(),
            cur_end: range.end(),
            min_ptr: 0,
            max_ptr: width.saturating_sub(1),
        };
        // Vertices with no incident edge in the range are not part of the
        // candidate set at all.
        for u in 0..n {
            if sub.distinct_deg[u] == 0 {
                sub.in_core[u] = false;
            }
        }
        let seeds: Vec<VertexId> = (0..n as VertexId)
            .filter(|&u| sub.in_core[u as usize] && sub.distinct_deg[u as usize] < k as u32)
            .collect();
        sub.peel(seeds);
        sub
    }

    fn is_empty(&self) -> bool {
        self.num_alive_edges == 0
    }

    /// Removes an alive edge and updates degrees; returns the endpoints that
    /// dropped below `k` as a consequence.
    fn remove_edge(&mut self, local: u32, below_k: &mut Vec<VertexId>) {
        if !self.alive_edge[local as usize] {
            return;
        }
        self.alive_edge[local as usize] = false;
        self.num_alive_edges -= 1;
        let e = self.graph.edge(self.first_edge + local);
        self.alive_per_time[(e.t - self.range.start()) as usize] -= 1;
        let mult = self
            .pair_mult
            .get_mut(&(e.u, e.v))
            // tkc-lint: allow(no-panic-api) — the pair entry was inserted when this edge became alive and `mult > 0` keeps it
            .expect("alive edge has a pair entry");
        *mult -= 1;
        if *mult == 0 {
            for v in [e.u, e.v] {
                self.distinct_deg[v as usize] -= 1;
                if self.in_core[v as usize] && self.distinct_deg[v as usize] < self.k as u32 {
                    below_k.push(v);
                }
            }
        }
    }

    /// Cascading peel starting from the given vertices.
    fn peel(&mut self, seeds: Vec<VertexId>) {
        let mut queue: VecDeque<VertexId> = seeds.into();
        let mut below_k: Vec<VertexId> = Vec::new();
        while let Some(u) = queue.pop_front() {
            if !self.in_core[u as usize] || self.distinct_deg[u as usize] >= self.k as u32 {
                continue;
            }
            self.in_core[u as usize] = false;
            below_k.clear();
            let locals: Vec<u32> = self
                .incidence
                .bucket(u as usize)
                .iter()
                .copied()
                .filter(|&l| self.alive_edge[l as usize])
                .collect();
            for local in locals {
                self.remove_edge(local, &mut below_k);
            }
            for &v in &below_k {
                queue.push_back(v);
            }
        }
    }

    /// Shrinks the window end: removes edges with timestamp `> new_end` and
    /// re-peels.
    fn truncate_end(&mut self, new_end: Timestamp) {
        if new_end >= self.cur_end {
            return;
        }
        let remove_from = self.graph.edge_ids_in(TimeWindow::new(
            (new_end + 1).max(self.cur_start),
            self.cur_end,
        ));
        self.cur_end = new_end;
        let mut below_k: Vec<VertexId> = Vec::new();
        for id in remove_from {
            if id < self.first_edge {
                continue;
            }
            self.remove_edge(id - self.first_edge, &mut below_k);
        }
        let seeds = std::mem::take(&mut below_k);
        self.peel(seeds);
    }

    /// Shrinks the window start: removes edges with timestamp `< new_start`
    /// and re-peels.
    fn truncate_start(&mut self, new_start: Timestamp) {
        if new_start <= self.cur_start {
            return;
        }
        let remove_range = self.graph.edge_ids_in(TimeWindow::new(
            self.cur_start,
            (new_start - 1).min(self.cur_end),
        ));
        self.cur_start = new_start;
        let mut below_k: Vec<VertexId> = Vec::new();
        for id in remove_range {
            if id < self.first_edge {
                continue;
            }
            self.remove_edge(id - self.first_edge, &mut below_k);
        }
        let seeds = std::mem::take(&mut below_k);
        self.peel(seeds);
    }

    /// Tightest time interval of the currently alive edges.
    /// Must not be called on an empty subgraph.
    fn tti(&mut self) -> TimeWindow {
        debug_assert!(!self.is_empty());
        while self.alive_per_time[self.min_ptr] == 0 {
            self.min_ptr += 1;
        }
        while self.alive_per_time[self.max_ptr] == 0 {
            self.max_ptr -= 1;
        }
        TimeWindow::new(
            self.range.start() + self.min_ptr as Timestamp,
            self.range.start() + self.max_ptr as Timestamp,
        )
    }

    /// Ids of the currently alive edges.
    fn alive_edges(&self) -> Vec<EdgeId> {
        self.alive_edge
            .iter()
            .enumerate()
            .filter_map(|(local, &alive)| alive.then_some(self.first_edge + local as EdgeId))
            .collect()
    }

    /// Approximate heap footprint in bytes.
    fn memory_bytes(&self) -> usize {
        self.alive_edge.len()
            + self.pair_mult.len() * (std::mem::size_of::<(VertexId, VertexId)>() + 4 + 16)
            + self.distinct_deg.len() * 4
            + self.in_core.len()
            + self.incidence.memory_bytes()
            + self.alive_per_time.len() * 4
    }
}

/// Runs the OTCD baseline, streaming every distinct temporal k-core of the
/// query range into `sink`.
pub fn run_otcd(
    graph: &TemporalGraph,
    k: usize,
    range: TimeWindow,
    sink: &mut dyn ResultSink,
) -> OtcdStats {
    assert!(k >= 1, "temporal k-core queries require k >= 1");
    let mut stats = OtcdStats::default();
    if graph.num_edges_in(range) == 0 {
        return stats;
    }
    // Clamp to the graph's time span so per-timestamp bookkeeping stays
    // proportional to the data (results are unaffected: windows beyond the
    // last timestamp contain no extra edges).
    let range = TimeWindow::new(
        range.start(),
        range.end().min(graph.tmax()).max(range.start()),
    );
    let mut row = CoreSubgraph::new(graph, k, range);
    stats.peak_memory_bytes = 2 * row.memory_bytes();

    for ts in range.start()..=range.end() {
        if row.is_empty() {
            break;
        }
        let mut scan = row.clone();
        loop {
            if scan.is_empty() {
                break;
            }
            stats.windows_scanned += 1;
            let tti = scan.tti();
            if tti.start() == ts {
                let edges = scan.alive_edges();
                sink.emit(tti, &edges);
                stats.num_cores += 1;
                stats.total_edges += edges.len() as u64;
            }
            if tti.end() <= ts {
                break;
            }
            scan.truncate_end(tti.end() - 1);
        }
        // Advance to the next start time: drop the edges at `ts` from the
        // row core and re-peel (the truncation argument in the module docs).
        row.truncate_start(ts + 1);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_results;
    use crate::sink::CollectingSink;
    use temporal_graph::{generator, TemporalGraphBuilder};

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

    #[test]
    fn matches_naive_enumeration() {
        let g = graph();
        for k in 1..=3 {
            for range in [g.span(), TimeWindow::new(2, 6), TimeWindow::new(4, 7)] {
                let mut sink = CollectingSink::default();
                run_otcd(&g, k, range, &mut sink);
                let got = sink.into_sorted();
                let expected = naive_results(&g, k, range);
                assert_eq!(got, expected, "k={k} range={range}");
            }
        }
    }

    #[test]
    fn randomized_graphs_match_naive() {
        for seed in 0..6 {
            let g = generator::uniform_random(14, 60, 12, seed + 100);
            for k in 2..=3 {
                let mut sink = CollectingSink::default();
                run_otcd(&g, k, g.span(), &mut sink);
                let got = sink.into_sorted();
                let expected = naive_results(&g, k, g.span());
                assert_eq!(got, expected, "seed={seed} k={k}");
            }
        }
    }

    #[test]
    fn outputs_have_tight_ttis() {
        let g = graph();
        let mut sink = CollectingSink::default();
        let stats = run_otcd(&g, 2, g.span(), &mut sink);
        assert_eq!(stats.num_cores as usize, sink.cores.len());
        for core in &sink.cores {
            assert!(core.tti_is_tight(&g));
            assert!(core.is_valid_k_core(&g, 2));
        }
        assert!(stats.windows_scanned >= stats.num_cores);
        assert!(stats.peak_memory_bytes > 0);
    }

    #[test]
    fn empty_range_and_large_k() {
        let g = graph();
        let mut sink = CollectingSink::default();
        // Range beyond the graph's timestamps.
        let stats = run_otcd(&g, 2, TimeWindow::new(20, 30), &mut sink);
        assert_eq!(stats.num_cores, 0);
        // k larger than any core.
        let stats = run_otcd(&g, 10, g.span(), &mut sink);
        assert_eq!(stats.num_cores, 0);
    }
}
