//! The optimal-time enumerator (`Enum`, Algorithms 4 and 5 of the paper).
//!
//! Given the edge core window skylines, all distinct temporal k-cores are
//! enumerated in time proportional to the total result size `|R|`:
//!
//! * every minimal core window is given an *active time* (Definition 6): the
//!   earliest start time for which it is the relevant window of its edge;
//! * for each start time `ts`, a doubly linked list `L_ts` holds exactly the
//!   windows with `active <= ts <= start`, ordered by ascending end time;
//!   the list is maintained incrementally (windows are inserted when their
//!   active time is reached and removed once the start time passes their own
//!   start time), so at most one window per edge is ever present;
//! * `AS-Output` (Algorithm 4) scans `L_ts` once, accumulating edges and
//!   emitting a distinct temporal k-core — whose TTI is `[ts, end]` — at the
//!   boundary of every run of equal end times once a window starting exactly
//!   at `ts` has been seen (Theorem 2: those end times are exactly the valid
//!   TTI end times for start time `ts`).
//!
//! The records are read straight from a [`WindowView`] and bucketed by a
//! stable counting sort into flat CSR arrays.

use crate::ecs::{Csr, EdgeCoreSkyline, WindowView};
use crate::sink::ResultSink;
use temporal_graph::{EdgeId, TemporalGraph, TimeWindow, Timestamp};

/// Statistics of one `Enum` run.
#[derive(Debug, Clone, Copy, Default)]
pub struct EnumStats {
    /// Number of distinct temporal k-cores emitted.
    pub num_cores: u64,
    /// Total number of edges over all emitted cores (`|R|`).
    pub total_edges: u64,
    /// Number of minimal core windows processed (`|ECS|`).
    pub skyline_windows: u64,
    /// Estimated peak heap footprint in bytes of the enumeration's own
    /// structures: the window records, the linked list and the two CSR
    /// bucket arrays.  The skylines it reads are borrowed, not counted.
    pub peak_memory_bytes: usize,
}

/// One minimal core window record used by the enumeration structure.
#[derive(Debug, Clone, Copy)]
struct WindowRecord {
    start: Timestamp,
    end: Timestamp,
    active: Timestamp,
    edge: EdgeId,
}

/// Doubly linked list over window records, ordered by ascending end time.
/// Node 0 is a dummy head; record `i` is node `i + 1`.
struct WindowList {
    next: Vec<u32>,
    prev: Vec<u32>,
}

const NIL: u32 = u32::MAX;

impl WindowList {
    fn new(num_records: usize) -> Self {
        let mut next = vec![NIL; num_records + 1];
        let prev = vec![NIL; num_records + 1];
        next[0] = NIL;
        Self { next, prev }
    }

    #[inline]
    fn head(&self) -> u32 {
        0
    }

    #[inline]
    fn first(&self) -> u32 {
        self.next[0]
    }

    /// Inserts node `node` after node `after`.
    fn insert_after(&mut self, node: u32, after: u32) {
        let b = self.next[after as usize];
        self.next[node as usize] = b;
        self.prev[node as usize] = after;
        self.next[after as usize] = node;
        if b != NIL {
            self.prev[b as usize] = node;
        }
    }

    /// Unlinks node `node` (which must currently be linked).
    fn delete(&mut self, node: u32) {
        let p = self.prev[node as usize];
        let n = self.next[node as usize];
        debug_assert_ne!(p, NIL, "deleting a node that is not linked");
        self.next[p as usize] = n;
        if n != NIL {
            self.prev[n as usize] = p;
        }
        self.prev[node as usize] = NIL;
        self.next[node as usize] = NIL;
    }

    fn memory_bytes(&self) -> usize {
        (self.next.len() + self.prev.len()) * std::mem::size_of::<u32>()
    }
}

/// Runs the `Enum` algorithm over a skyline — an [`EdgeCoreSkyline`]
/// or a [`WindowView`] of cached ones — streaming every distinct temporal
/// k-core of its range into `sink`.
pub fn enumerate<'a>(
    graph: &TemporalGraph,
    skyline: impl Into<WindowView<'a>>,
    sink: &mut dyn ResultSink,
) -> EnumStats {
    let _ = graph; // parameter kept for API symmetry with the other algorithms
    let view = skyline.into();
    let range = view.window();
    let (ts_lo, ts_hi) = (range.start(), range.end());
    let width = (ts_hi - ts_lo + 1) as usize;
    let mut stats = EnumStats::default();

    // Collect window records and compute active times (Algorithm 5, lines 1-4):
    // the first window of an edge activates at the range start; every later
    // window activates right after the previous window's start time.  The
    // buffer is sized by the window's edges, not by the cached runs the
    // view slices (those hold many windows outside the window).
    let mut records: Vec<WindowRecord> = Vec::with_capacity(view.num_edges());
    view.for_each_run(|edge, run| {
        let mut active = ts_lo;
        run.for_each(|w| {
            records.push(WindowRecord {
                start: w.start(),
                end: w.end(),
                active,
                edge,
            });
            active = w.start() + 1;
        });
    });
    stats.skyline_windows = records.len() as u64;
    if records.is_empty() {
        // No minimal core window, so no core (Lemma 3); skip the buckets.
        return stats;
    }

    // Bucket records by active time (Ba), each bucket ordered by ascending
    // end time (Algorithm 5, lines 5-11): a stable counting sort by end,
    // then a stable one by active time.  The start-time buckets (Bs) are
    // only unlinked and tested for emptiness, so their order is free.
    let n = records.len() as u32;
    let bucket = |i: u32, at: Timestamp| ((at - ts_lo) as usize, i);
    let by_end = Csr::sort(width, 0, (0..n).map(|i| bucket(i, records[i as usize].end)));
    let order = by_end.items.iter();
    let ba = Csr::sort(
        width,
        0,
        order.map(|&i| bucket(i, records[i as usize].active)),
    );
    drop(by_end);
    let bs = Csr::sort(
        width,
        0,
        (0..n).map(|i| bucket(i, records[i as usize].start)),
    );

    let mut list = WindowList::new(records.len());
    let mut result_edges: Vec<EdgeId> = Vec::new();

    // Main loop over start times (Algorithm 5, lines 13-24).
    for ts in ts_lo..=ts_hi {
        let idx = (ts - ts_lo) as usize;
        // Remove windows whose own start time has passed.
        if ts > ts_lo {
            for &i in bs.bucket(idx - 1) {
                list.delete(i + 1);
            }
        }
        // Insert windows that become active at ts, keeping end-time order.
        let mut h = list.head();
        for &i in ba.bucket(idx) {
            let end = records[i as usize].end;
            loop {
                let nxt = list.next[h as usize];
                if nxt == NIL || records[(nxt - 1) as usize].end >= end {
                    break;
                }
                h = nxt;
            }
            list.insert_after(i + 1, h);
            h = i + 1;
        }
        // No minimal core window starts at ts => no temporal k-core has a
        // TTI starting at ts (Lemma 4).
        if bs.bucket(idx).is_empty() {
            continue;
        }

        // AS-Output (Algorithm 4): single scan of the list.
        result_edges.clear();
        let mut valid = false;
        let mut node = list.first();
        while node != NIL {
            let r = &records[(node - 1) as usize];
            result_edges.push(r.edge);
            if r.start == ts {
                valid = true;
            }
            let next = list.next[node as usize];
            let last_of_group = next == NIL || records[(next - 1) as usize].end != r.end;
            if valid && last_of_group {
                sink.emit(TimeWindow::new(ts, r.end), &result_edges);
                stats.num_cores += 1;
                stats.total_edges += result_edges.len() as u64;
            }
            node = next;
        }
    }

    // `by_end` is freed before `bs` and the list are allocated.
    stats.peak_memory_bytes = records.capacity() * std::mem::size_of::<WindowRecord>()
        + ba.memory_bytes()
        + bs.memory_bytes()
        + list.memory_bytes();
    stats
}

/// Convenience wrapper: builds the skyline (Algorithm 2) and enumerates
/// (Algorithm 5) in one call.
pub fn enumerate_from_graph(
    graph: &TemporalGraph,
    k: usize,
    range: TimeWindow,
    sink: &mut dyn ResultSink,
) -> EnumStats {
    let ecs = EdgeCoreSkyline::build(graph, k, range);
    enumerate(graph, &ecs, sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_results;
    use crate::sink::{CollectingSink, CountingSink};
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
            for range in [g.span(), TimeWindow::new(2, 6), TimeWindow::new(3, 5)] {
                let mut sink = CollectingSink::default();
                enumerate_from_graph(&g, k, range, &mut sink);
                let got = sink.into_sorted();
                let expected = naive_results(&g, k, range);
                assert_eq!(got, expected, "k={k} range={range}");
            }
        }
    }

    #[test]
    fn emitted_ttis_are_tight_and_cores_valid() {
        let g = graph();
        let mut sink = CollectingSink::default();
        enumerate_from_graph(&g, 2, g.span(), &mut sink);
        for core in &sink.cores {
            assert!(core.is_valid_k_core(&g, 2));
            assert!(core.tti_is_tight(&g), "TTI {:?} not tight", core.tti);
        }
    }

    #[test]
    fn no_duplicate_results() {
        let g = graph();
        let mut sink = CollectingSink::default();
        enumerate_from_graph(&g, 2, g.span(), &mut sink);
        let mut sets: Vec<Vec<EdgeId>> = sink.cores.iter().map(|c| c.edges.clone()).collect();
        let before = sets.len();
        sets.sort();
        sets.dedup();
        assert_eq!(before, sets.len());
    }

    #[test]
    fn randomized_graphs_match_naive() {
        for seed in 0..6 {
            let g = generator::uniform_random(14, 60, 12, seed);
            for k in 2..=3 {
                let mut sink = CollectingSink::default();
                enumerate_from_graph(&g, k, g.span(), &mut sink);
                let got = sink.into_sorted();
                let expected = naive_results(&g, k, g.span());
                assert_eq!(got, expected, "seed={seed} k={k}");
            }
        }
    }

    #[test]
    fn counting_matches_collecting() {
        let g = generator::uniform_random(20, 120, 15, 42);
        let mut counting = CountingSink::default();
        let stats = enumerate_from_graph(&g, 2, g.span(), &mut counting);
        let mut collecting = CollectingSink::default();
        enumerate_from_graph(&g, 2, g.span(), &mut collecting);
        assert_eq!(counting.num_cores as usize, collecting.cores.len());
        assert_eq!(stats.num_cores, counting.num_cores);
        assert_eq!(stats.total_edges, counting.total_edges);
        assert!(stats.peak_memory_bytes > 0);
    }

    #[test]
    fn empty_when_no_core_exists() {
        let g = TemporalGraphBuilder::new()
            .with_edges([(0u64, 1u64, 1i64), (1, 2, 2), (2, 3, 3)])
            .build()
            .unwrap();
        let mut sink = CollectingSink::default();
        let stats = enumerate_from_graph(&g, 2, g.span(), &mut sink);
        assert_eq!(stats.num_cores, 0);
        assert!(sink.cores.is_empty());
    }
}
