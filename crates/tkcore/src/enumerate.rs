//! The optimal-time enumerator (`Enum`, Algorithms 4 and 5 of the paper).
//!
//! Given the edge core window skylines, all distinct temporal k-cores are
//! enumerated in time proportional to the total result size `|R|`.
//!
//! For a start time `ts`, the paper's list `L_ts` holds each edge's
//! *relevant* window: the first of its minimal core windows that starts at
//! or after `ts`.  A window is therefore in `L_ts` from its *active time*
//! (Definition 6: the range start for an edge's first window, else one past
//! the previous window's start) until its own start time.  Theorem 2 reads
//! the cores off `L_ts` in ascending end order: with `e0` the least end
//! among the windows starting exactly at `ts` (none start there ⇒ no core,
//! Lemma 4), every distinct end `e >= e0` in `L_ts` is the TTI `[ts, e]` of
//! one distinct core, made of the windows of `L_ts` ending at or before `e`.
//!
//! Only the *multiset of end times* of `L_ts` matters for that, so `L_ts`
//! is kept as end-time bins, not as a list of windows:
//!
//! * one count per end time of the range, plus a bitset of the non-empty
//!   end times;
//! * the records stay per edge in run order, as
//!   [`WindowView::for_each_run`] yields them.  Each edge's first window
//!   enters its bin at the range start; when a window expires at its start
//!   `+ 1`, it leaves its bin and the next window of its edge's run enters.
//!   That is Algorithm 5's activation, driven by the one counting sort of
//!   the records by start time;
//! * at a start time `ts` where some window starts, one ascending walk of
//!   the set bits keeps a running prefix count and emits the core
//!   `[ts, e]` of size `prefix` at every bin `e >= e0` (`AS-Output`,
//!   Algorithm 4).
//!
//! A sink that reads only each core's TTI and size
//! ([`ResultSink::as_size_sink`]: counts and samples) gets exactly that, so
//! the cost per start time is `O(⌈W/64⌉ + distinct end times in L_ts)`,
//! where `W` is the window width.  A sink that needs edge ids gets them
//! from per-bin intrusive record lists that the same walk reads, at
//! `O(⌈W/64⌉ + |L_ts|)` per start time, which the core it emits bounds.
//! A record that expired stays in its bin's list until the next walk of
//! that bin unlinks it.

use crate::ecs::{Csr, EdgeCoreSkyline, WindowView};
use crate::sink::{ResultSink, SizeSink};
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
    /// structures: the window records, their buckets by start time, the
    /// end-time bins (counts and bitset) and, for a sink that needs edge
    /// ids, the per-bin record lists and the edge buffer of one core.  The
    /// skylines it reads are borrowed, not counted.
    pub peak_memory_bytes: usize,
}

/// One minimal core window of the range, its times as offsets from the
/// range start.
#[derive(Debug, Clone, Copy)]
struct Record {
    start: u32,
    end: u32,
    edge: EdgeId,
}

/// `L_ts` as end-time bins: how many windows of `L_ts` end at each time,
/// and a bitset of the non-empty bins.
struct EndBins {
    counts: Vec<u32>,
    occupied: Vec<u64>,
}

impl EndBins {
    fn new(width: usize) -> Self {
        Self {
            counts: vec![0; width],
            occupied: vec![0; width.div_ceil(64)],
        }
    }

    /// A window ending at `bin` enters `L_ts`.
    #[inline]
    fn enter(&mut self, bin: usize) {
        self.counts[bin] += 1;
        self.occupied[bin / 64] |= 1 << (bin % 64);
    }

    /// A window ending at `bin` leaves `L_ts`.
    #[inline]
    fn leave(&mut self, bin: usize) {
        self.counts[bin] -= 1;
        if self.counts[bin] == 0 {
            self.occupied[bin / 64] &= !(1 << (bin % 64));
        }
    }

    /// Calls `f` with every non-empty bin from the word holding `from` on,
    /// in ascending order.
    #[inline]
    fn for_each_bin(&self, from: usize, mut f: impl FnMut(usize, u32)) {
        for (w, &word) in self.occupied.iter().enumerate().skip(from / 64) {
            let mut bits = word;
            while bits != 0 {
                let bin = w * 64 + bits.trailing_zeros() as usize;
                f(bin, self.counts[bin]);
                bits &= bits - 1;
            }
        }
    }

    fn memory_bytes(&self) -> usize {
        self.counts.len() * std::mem::size_of::<u32>()
            + self.occupied.len() * std::mem::size_of::<u64>()
    }
}

/// End of a bin's record list.
const NIL: u32 = u32::MAX;

/// The records of each end-time bin, for sinks that need edge ids: one
/// intrusive singly linked list per bin, newest first.  A record that
/// left `L_ts` is unlinked by the next walk of its bin.
struct BinLists {
    heads: Vec<u32>,
    next: Vec<u32>,
}

impl BinLists {
    fn new(width: usize, records: usize) -> Self {
        Self {
            heads: vec![NIL; width],
            next: vec![NIL; records],
        }
    }

    /// Record `i` enters the list of `bin`.
    #[inline]
    fn push(&mut self, i: u32, bin: usize) {
        self.next[i as usize] = self.heads[bin];
        self.heads[bin] = i;
    }

    /// Appends the edges of `bin`'s records still in `L_ts` (those starting
    /// at or after `ts`) to `edges`, unlinking the expired ones it passes.
    fn list(&mut self, bin: usize, ts: u32, records: &[Record], edges: &mut Vec<EdgeId>) {
        let mut prev = NIL;
        let mut i = self.heads[bin];
        while i != NIL {
            let next = self.next[i as usize];
            let record = &records[i as usize];
            if record.start < ts {
                match prev {
                    NIL => self.heads[bin] = next,
                    p => self.next[p as usize] = next,
                }
            } else {
                edges.push(record.edge);
                prev = i;
            }
            i = next;
        }
    }

    fn memory_bytes(&self) -> usize {
        (self.heads.len() + self.next.len()) * std::mem::size_of::<u32>()
    }
}

/// Where the cores go: sizes only, or edge lists read from the bins'
/// record lists into one reused buffer.
enum Output<'s> {
    Sizes(&'s mut dyn SizeSink),
    Edges {
        sink: &'s mut dyn ResultSink,
        lists: BinLists,
        edges: Vec<EdgeId>,
    },
}

impl Output<'_> {
    /// Record `i`, ending at `end`, enters `L_ts`.
    #[inline]
    fn enter(&mut self, bins: &mut EndBins, i: usize, end: u32) {
        bins.enter(end as usize);
        if let Output::Edges { lists, .. } = self {
            lists.push(i as u32, end as usize);
        }
    }
}

/// Runs the `Enum` algorithm over a skyline — an [`EdgeCoreSkyline`]
/// or a [`WindowView`] of cached ones — streaming every distinct temporal
/// k-core of its range into `sink`, in ascending TTI order.  A sink that
/// declares itself size-only through [`ResultSink::as_size_sink`] receives
/// `(tti, size)` and no edge list is built for it.
pub fn enumerate<'a>(
    graph: &TemporalGraph,
    skyline: impl Into<WindowView<'a>>,
    sink: &mut dyn ResultSink,
) -> EnumStats {
    let _ = graph; // parameter kept for API symmetry with the other algorithms
    let view = skyline.into();
    let range = view.window();
    let ts_lo = range.start();
    let width = (range.end() - ts_lo + 1) as usize;
    let mut stats = EnumStats::default();

    // The records, per edge in run order.  The buffer is sized by the
    // window's edges, not by the cached runs the view slices (those hold
    // many windows outside the window).
    let mut records: Vec<Record> = Vec::with_capacity(view.num_edges());
    view.for_each_run(|edge, run| {
        run.for_each(|w| {
            records.push(Record {
                start: w.start() - ts_lo,
                end: w.end() - ts_lo,
                edge,
            });
        });
    });
    stats.skyline_windows = records.len() as u64;
    let Some(last_start) = records.iter().map(|r| r.start).max() else {
        // No minimal core window, so no core (Lemma 3); skip the bins.
        return stats;
    };

    // The records starting at each time: where windows expire, and the
    // windows whose least end is `e0`.
    let n = records.len() as u32;
    let by_start = Csr::sort(
        width,
        0,
        (0..n).map(|i| (records[i as usize].start as usize, i)),
    );
    let mut out = match sink.as_size_sink() {
        Some(sizes) => Output::Sizes(sizes),
        None => Output::Edges {
            sink,
            lists: BinLists::new(width, records.len()),
            edges: Vec::new(),
        },
    };
    let mut bins = EndBins::new(width);
    // Every edge's first window is active from the range start.
    for (i, r) in records.iter().enumerate() {
        if i == 0 || records[i - 1].edge != r.edge {
            out.enter(&mut bins, i, r.end);
        }
    }

    // Main loop over start times (Algorithm 5, lines 13-24); no core starts
    // after the last window does.
    for ts in 0..=last_start {
        if ts > 0 {
            // Windows starting at `ts - 1` expire; each one's successor in
            // its edge's run becomes active.
            for &i in by_start.bucket(ts as usize - 1) {
                let i = i as usize;
                bins.leave(records[i].end as usize);
                if let Some(next) = records.get(i + 1).filter(|r| r.edge == records[i].edge) {
                    out.enter(&mut bins, i + 1, next.end);
                }
            }
        }
        // No minimal core window starts at ts => no temporal k-core has a
        // TTI starting at ts (Lemma 4).
        let starting = by_start.bucket(ts as usize);
        let Some(e0) = starting.iter().map(|&i| records[i as usize].end).min() else {
            continue;
        };

        // AS-Output (Algorithm 4): one ascending walk of the bins, keeping
        // a running prefix count; every window of `L_ts` ends at or after
        // `ts`, so the walk starts there.
        let e0 = e0 as usize;
        let tti = |bin: usize| TimeWindow::new(ts + ts_lo, bin as Timestamp + ts_lo);
        let mut prefix = 0u64;
        match &mut out {
            Output::Sizes(sizes) => bins.for_each_bin(ts as usize, |bin, count| {
                prefix += u64::from(count);
                if bin >= e0 {
                    sizes.emit_size(tti(bin), prefix);
                    stats.num_cores += 1;
                    stats.total_edges += prefix;
                }
            }),
            Output::Edges { sink, lists, edges } => {
                edges.clear();
                bins.for_each_bin(ts as usize, |bin, count| {
                    lists.list(bin, ts, &records, edges);
                    prefix += u64::from(count);
                    debug_assert_eq!(edges.len() as u64, prefix, "bin {bin} lists its count");
                    if bin >= e0 {
                        sink.emit(tti(bin), edges);
                        stats.num_cores += 1;
                        stats.total_edges += prefix;
                    }
                });
            }
        }
    }

    let listing = match &out {
        Output::Sizes(_) => 0,
        Output::Edges { lists, edges, .. } => {
            lists.memory_bytes() + edges.capacity() * std::mem::size_of::<EdgeId>()
        }
    };
    stats.peak_memory_bytes = records.capacity() * std::mem::size_of::<Record>()
        + by_start.memory_bytes()
        + bins.memory_bytes()
        + listing;
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
