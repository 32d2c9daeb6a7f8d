use crate::result::TemporalKCore;
use temporal_graph::{EdgeId, TimeWindow};

/// Receiver for enumerated temporal k-cores.
///
/// The enumeration algorithms stream their results through a sink so that
/// callers can choose between materialising every core ([`CollectingSink`]),
/// merely counting them ([`CountingSink`] — what the paper's experiments do,
/// since `|R|` routinely exceeds memory), or any custom processing.
///
/// A sink that reads only each core's TTI and size says so through
/// [`ResultSink::as_size_sink`]; [`crate::enumerate`] then hands it
/// `(tti, size)` and never lists an edge for it.
pub trait ResultSink {
    /// Called once per distinct temporal k-core, with its tightest time
    /// interval and the ids of its temporal edges (unsorted, possibly with
    /// an algorithm-specific order).
    fn emit(&mut self, tti: TimeWindow, edges: &[EdgeId]);

    /// This sink as a [`SizeSink`] if it never reads edge ids, else `None`
    /// (the default).  An enumerator that can produce sizes without edge
    /// lists calls [`SizeSink::emit_size`] on it in place of
    /// [`ResultSink::emit`]; every other algorithm keeps calling `emit`,
    /// which a size-only sink must answer the same way.
    fn as_size_sink(&mut self) -> Option<&mut dyn SizeSink> {
        None
    }
}

/// Receiver of each core's tightest time interval and size (its number of
/// temporal edges), for sinks that never read edge ids.
pub trait SizeSink {
    /// Called once per distinct temporal k-core in place of
    /// [`ResultSink::emit`].
    fn emit_size(&mut self, tti: TimeWindow, size: u64);
}

/// Collects every result as an owned [`TemporalKCore`].
#[derive(Debug, Default)]
pub struct CollectingSink {
    /// The collected cores, in emission order.
    pub cores: Vec<TemporalKCore>,
}

impl ResultSink for CollectingSink {
    fn emit(&mut self, tti: TimeWindow, edges: &[EdgeId]) {
        self.cores.push(TemporalKCore::new(tti, edges.to_vec()));
    }
}

impl CollectingSink {
    /// Consumes the sink and returns the cores sorted by (TTI, edge set),
    /// which gives a canonical order independent of the producing algorithm.
    pub fn into_sorted(mut self) -> Vec<TemporalKCore> {
        self.cores
            .sort_by(|a, b| a.tti.cmp(&b.tti).then_with(|| a.edges.cmp(&b.edges)));
        self.cores
    }
}

/// Counts results without storing them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CountingSink {
    /// Number of distinct temporal k-cores.
    pub num_cores: u64,
    /// Total number of edges over all cores — the paper's result size `|R|`.
    pub total_edges: u64,
    /// Number of edges in the largest core seen.
    pub max_core_edges: u64,
}

impl SizeSink for CountingSink {
    fn emit_size(&mut self, _tti: TimeWindow, size: u64) {
        self.num_cores += 1;
        self.total_edges += size;
        self.max_core_edges = self.max_core_edges.max(size);
    }
}

impl ResultSink for CountingSink {
    fn emit(&mut self, tti: TimeWindow, edges: &[EdgeId]) {
        self.emit_size(tti, edges.len() as u64);
    }

    fn as_size_sink(&mut self) -> Option<&mut dyn SizeSink> {
        Some(self)
    }
}

/// Counts every result like [`CountingSink`] and keeps the `(tti, size)`
/// of the `cap` cores with the smallest TTIs, in ascending TTI order.
///
/// Within one `k` every core has its own TTI, so TTI order is the canonical
/// `(TTI, edge set)` order of [`CollectingSink::into_sorted`]: the sample
/// equals the first `cap` materialised cores, whatever order the algorithm
/// emits in.  The sink is size-only ([`ResultSink::as_size_sink`]), so
/// [`crate::enumerate`] builds no edge list for it at all.  Once the sample
/// is full, a core whose TTI is not smaller than the largest kept one costs
/// one comparison (always the case for the ascending order of
/// [`crate::enumerate`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SamplingSink {
    counts: CountingSink,
    cap: usize,
    sample: Vec<(TimeWindow, u64)>,
}

impl SamplingSink {
    /// An empty sink keeping at most `cap` sampled cores.
    pub fn new(cap: usize) -> Self {
        Self {
            cap,
            ..Self::default()
        }
    }

    /// Consumes the sink into its counts over every emitted core and its
    /// kept `(tti, size)` pairs, in ascending TTI order.
    pub fn into_parts(self) -> (CountingSink, Vec<(TimeWindow, u64)>) {
        (self.counts, self.sample)
    }
}

impl SizeSink for SamplingSink {
    fn emit_size(&mut self, tti: TimeWindow, size: u64) {
        self.counts.emit_size(tti, size);
        let full = self.sample.len() == self.cap;
        if full && self.sample.last().is_none_or(|&(last, _)| tti >= last) {
            return;
        }
        if full {
            self.sample.pop();
        }
        let at = self.sample.partition_point(|&(kept, _)| kept < tti);
        self.sample.insert(at, (tti, size));
    }
}

impl ResultSink for SamplingSink {
    fn emit(&mut self, tti: TimeWindow, edges: &[EdgeId]) {
        self.emit_size(tti, edges.len() as u64);
    }

    fn as_size_sink(&mut self) -> Option<&mut dyn SizeSink> {
        Some(self)
    }
}

/// Adapter that forwards to a closure; convenient in tests and examples.
pub struct FnSink<F: FnMut(TimeWindow, &[EdgeId])>(pub F);

impl<F: FnMut(TimeWindow, &[EdgeId])> ResultSink for FnSink<F> {
    fn emit(&mut self, tti: TimeWindow, edges: &[EdgeId]) {
        (self.0)(tti, edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_sink_accumulates() {
        let mut sink = CountingSink::default();
        sink.emit(TimeWindow::new(1, 2), &[0, 1, 2]);
        sink.emit(TimeWindow::new(2, 5), &[3, 4]);
        assert_eq!(sink.num_cores, 2);
        assert_eq!(sink.total_edges, 5);
        assert_eq!(sink.max_core_edges, 3);
    }

    #[test]
    fn collecting_sink_sorts_canonically() {
        let mut sink = CollectingSink::default();
        sink.emit(TimeWindow::new(3, 4), &[7, 5]);
        sink.emit(TimeWindow::new(1, 2), &[9]);
        let sorted = sink.into_sorted();
        assert_eq!(sorted[0].tti, TimeWindow::new(1, 2));
        assert_eq!(sorted[1].edges, vec![5, 7]);
    }

    #[test]
    fn sampling_sink_keeps_the_cap_smallest_ttis_in_order() {
        let emitted = [(4, 6), (1, 3), (5, 5), (2, 2), (1, 1), (3, 7), (2, 5)];
        for cap in 0..=emitted.len() + 1 {
            let mut sink = SamplingSink::new(cap);
            let mut collected = CollectingSink::default();
            for (i, &(start, end)) in emitted.iter().enumerate() {
                let edges: Vec<EdgeId> = (0..=i as EdgeId).collect();
                sink.emit(TimeWindow::new(start, end), &edges);
                collected.emit(TimeWindow::new(start, end), &edges);
            }
            let expected: Vec<(TimeWindow, u64)> = collected
                .into_sorted()
                .iter()
                .take(cap)
                .map(|core| (core.tti, core.num_edges() as u64))
                .collect();
            assert_eq!(sink.sample, expected, "cap {cap}");
            assert_eq!(sink.counts.num_cores, emitted.len() as u64);
            assert_eq!(sink.counts.total_edges, 28);
            assert_eq!(sink.counts.max_core_edges, 7);
        }
    }

    #[test]
    fn sampling_sink_memory_is_bounded_by_the_cap() {
        // Descending TTIs: every core displaces the largest kept one.
        let edges: Vec<EdgeId> = (0..100).collect();
        for cap in [0, 1, 3, 64] {
            let mut sink = SamplingSink::new(cap);
            for start in (1..=10_000).rev() {
                sink.emit(TimeWindow::new(start, start + 1), &edges);
            }
            assert_eq!(sink.counts.num_cores, 10_000);
            assert_eq!(sink.counts.total_edges, 1_000_000);
            assert_eq!(sink.sample.len(), cap);
            assert!(sink.sample.capacity() <= (2 * cap).max(4), "cap {cap}");
            let starts: Vec<u32> = sink.sample.iter().map(|(tti, _)| tti.start()).collect();
            assert_eq!(starts, (1..=cap as u32).collect::<Vec<_>>());
        }
    }

    #[test]
    fn fn_sink_forwards() {
        let mut seen = Vec::new();
        {
            let mut sink = FnSink(|tti: TimeWindow, edges: &[EdgeId]| {
                seen.push((tti, edges.len()));
            });
            sink.emit(TimeWindow::new(1, 1), &[0]);
        }
        assert_eq!(seen, vec![(TimeWindow::new(1, 1), 1)]);
    }
}
