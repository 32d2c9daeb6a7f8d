//! Query parameters and per-execution statistics.
//!
//! [`TimeRangeKCoreQuery`] bundles the two query parameters of the paper's
//! problem statement — the integer `k` and the time range `[Ts, Te]` — and
//! runs any of the implemented algorithms against a [`TemporalGraph`],
//! reporting per-phase timings and memory estimates.  It is the low-level
//! carrier used by [`crate::ShardedEngine`]; application code should prefer the
//! richer, fallible [`crate::QueryRequest`] front end.

use crate::ecs::{EdgeCoreSkyline, SkylineScratch, WindowView};
use crate::enum_base::enumerate_base;
use crate::enumerate::enumerate;
use crate::error::TkError;
use crate::naive::enumerate_naive;
use crate::otcd::run_otcd;
use crate::request::validate_query;
use crate::sink::ResultSink;
use std::fmt;
use std::str::FromStr;
use std::time::{Duration, Instant};
use temporal_graph::{TemporalGraph, TimeWindow};

/// The algorithms available for time-range temporal k-core enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// The paper's final algorithm: core-time precomputation (Algorithm 2)
    /// followed by result-size-optimal enumeration (Algorithms 4–5).
    Enum,
    /// The paper's baseline on the same framework: skyline precomputation
    /// followed by the window-scanning enumeration of Algorithm 3.
    EnumBase,
    /// The state-of-the-art competitor OTCD (Algorithm 1).
    Otcd,
    /// Brute-force reference (per-window peeling); only for small inputs.
    Naive,
}

impl Algorithm {
    /// All algorithms, in the order the paper's figures report them.
    pub const ALL: [Algorithm; 4] = [
        Algorithm::Otcd,
        Algorithm::EnumBase,
        Algorithm::Enum,
        Algorithm::Naive,
    ];

    /// Short display name used by the benchmark harness.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Enum => "Enum",
            Algorithm::EnumBase => "EnumBase",
            Algorithm::Otcd => "OTCD",
            Algorithm::Naive => "Naive",
        }
    }

    /// Runs one `(k, window)` query against `graph` with this algorithm,
    /// building whatever per-query state it needs and streaming every
    /// distinct core into `sink`.  This is per-query execution, the
    /// reference the cached [`crate::ShardedEngine`] is checked against.
    ///
    /// A window overhanging the end of the span is clamped, matching
    /// [`crate::QueryRequest::validate`].
    ///
    /// # Errors
    /// [`TkError::KOutOfRange`] for `k == 0`; [`TkError::WindowPastTmax`]
    /// when `window` starts after `graph.tmax()`.
    ///
    /// # Example
    ///
    /// ```
    /// use tkcore::{paper_example, Algorithm, CountingSink};
    /// use temporal_graph::TimeWindow;
    ///
    /// let graph = paper_example::graph();
    /// for algorithm in Algorithm::ALL {
    ///     let mut sink = CountingSink::default();
    ///     let stats = algorithm
    ///         .execute(&graph, 2, TimeWindow::new(1, 4), &mut sink)
    ///         .unwrap();
    ///     assert_eq!(stats.num_cores, 2); // Figure 2 of the paper
    /// }
    /// ```
    pub fn execute(
        self,
        graph: &TemporalGraph,
        k: usize,
        window: TimeWindow,
        sink: &mut dyn ResultSink,
    ) -> Result<QueryStats, TkError> {
        let clamped = validate_query(graph, k, window)?;
        Ok(TimeRangeKCoreQuery::validated(k, clamped).run_with(graph, self, sink))
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Algorithm {
    type Err = TkError;

    /// Parses an algorithm name case-insensitively, ignoring `-` and `_`
    /// separators: `enum`, `Enum-Base`, `enumbase`, `OTCD`, `naive` all work,
    /// so every [`Algorithm::name`] round-trips.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let folded: String = s
            .chars()
            .filter(|c| *c != '-' && *c != '_')
            .map(|c| c.to_ascii_lowercase())
            .collect();
        match folded.as_str() {
            "enum" => Ok(Algorithm::Enum),
            "enumbase" => Ok(Algorithm::EnumBase),
            "otcd" => Ok(Algorithm::Otcd),
            "naive" => Ok(Algorithm::Naive),
            _ => Err(TkError::UnknownAlgorithm { name: s.into() }),
        }
    }
}

/// Timings, counts and memory estimates of one query execution.
#[derive(Debug, Clone, Copy)]
pub struct QueryStats {
    /// The algorithm that produced these statistics.
    pub algorithm: Algorithm,
    /// Number of distinct temporal k-cores.
    pub num_cores: u64,
    /// Total number of edges over all cores (the paper's `|R|`).
    pub total_result_edges: u64,
    /// Time spent in precomputation: the CoreTime phase building the edge
    /// core window skyline, or on [`crate::ShardedEngine`] fetching (or
    /// building) the cached shard skylines and looking up the stitch entry;
    /// zero for OTCD and the naive reference.
    pub precompute_time: Duration,
    /// Time spent enumerating results; on [`crate::ShardedEngine`] this
    /// includes slicing the cached skylines to the window.
    pub enumerate_time: Duration,
    /// Estimated peak heap footprint of the algorithm's working structures.
    pub peak_memory_bytes: usize,
}

impl QueryStats {
    /// Total wall-clock time (precomputation plus enumeration).
    pub fn total_time(&self) -> Duration {
        self.precompute_time + self.enumerate_time
    }

    pub(crate) fn zeroed(algorithm: Algorithm) -> Self {
        QueryStats {
            algorithm,
            num_cores: 0,
            total_result_edges: 0,
            precompute_time: Duration::ZERO,
            enumerate_time: Duration::ZERO,
            peak_memory_bytes: 0,
        }
    }
}

/// A time-range temporal k-core query: all distinct temporal k-cores of any
/// sub-window of `range`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeRangeKCoreQuery {
    k: usize,
    range: TimeWindow,
}

impl TimeRangeKCoreQuery {
    /// Creates a query for parameter `k` over the given time range.
    ///
    /// # Errors
    /// Returns [`TkError::KOutOfRange`] if `k == 0` (a 0-core is the whole
    /// projected graph and is not a meaningful cohesive-subgraph query).
    pub fn new(k: usize, range: TimeWindow) -> Result<Self, TkError> {
        if k == 0 {
            return Err(TkError::KOutOfRange { k });
        }
        Ok(Self { k, range })
    }

    /// Internal constructor for parameters already validated elsewhere
    /// (`k >= 1` guaranteed by the caller).
    pub(crate) fn validated(k: usize, range: TimeWindow) -> Self {
        debug_assert!(k >= 1);
        Self { k, range }
    }

    /// The query parameter `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The query time range.
    pub fn range(&self) -> TimeWindow {
        self.range
    }

    /// Runs a skyline-based algorithm (`Enum` or `EnumBase`) over an
    /// already-built [`EdgeCoreSkyline`] — or a [`WindowView`] of cached
    /// ones — for this query's `(k, range)`, streaming results into `sink`.
    /// `Enum` reads the view in place; `EnumBase` materialises it first.
    ///
    /// The reported `precompute_time` is zero — the index was paid for
    /// elsewhere (built directly, or cached by [`crate::ShardedEngine`]).
    ///
    /// # Errors
    /// Returns [`TkError::SkylineMismatch`] if the skyline's parameters do
    /// not match the query, and [`TkError::UnsupportedAlgorithm`] if
    /// `algorithm` is not skyline-based (`Otcd` and `Naive` have no
    /// precomputed index to run from).
    pub fn run_with_skyline<'a>(
        &self,
        graph: &TemporalGraph,
        skyline: impl Into<WindowView<'a>>,
        algorithm: Algorithm,
        sink: &mut dyn ResultSink,
    ) -> Result<QueryStats, TkError> {
        let view = skyline.into();
        if view.k() != self.k {
            return Err(TkError::SkylineMismatch {
                detail: format!(
                    "skyline built for k = {}, query has k = {}",
                    view.k(),
                    self.k
                ),
            });
        }
        if view.window() != self.range {
            return Err(TkError::SkylineMismatch {
                detail: format!(
                    "skyline built for range {}, query has range {}",
                    view.window(),
                    self.range
                ),
            });
        }
        let mut stats = QueryStats::zeroed(algorithm);
        let t0 = Instant::now();
        let run = match algorithm {
            Algorithm::Enum => enumerate(graph, view, sink),
            Algorithm::EnumBase => {
                let skyline = view.materialize(&mut SkylineScratch::default());
                let base = enumerate_base(graph, &skyline, sink);
                crate::enumerate::EnumStats {
                    num_cores: base.num_cores,
                    total_edges: base.total_edges,
                    skyline_windows: skyline.total_windows() as u64,
                    peak_memory_bytes: base.peak_memory_bytes,
                }
            }
            other => {
                return Err(TkError::UnsupportedAlgorithm {
                    algorithm: other,
                    operation: "execution from a precomputed skyline",
                })
            }
        };
        stats.enumerate_time = t0.elapsed();
        stats.num_cores = run.num_cores;
        stats.total_result_edges = run.total_edges;
        stats.peak_memory_bytes = run.peak_memory_bytes;
        Ok(stats)
    }

    /// Runs the chosen algorithm, streaming results into `sink`.
    ///
    /// This never panics: the constructor guarantees `k >= 1`, and ranges
    /// reaching past the graph's last timestamp simply yield no results (the
    /// skyline build returns an empty index for them).  For typed rejection
    /// of degenerate windows, go through [`crate::QueryRequest`] instead.
    pub fn run_with(
        &self,
        graph: &TemporalGraph,
        algorithm: Algorithm,
        sink: &mut dyn ResultSink,
    ) -> QueryStats {
        let mut stats = QueryStats::zeroed(algorithm);
        match algorithm {
            Algorithm::Enum => {
                let t0 = Instant::now();
                let ecs = EdgeCoreSkyline::build(graph, self.k, self.range);
                stats.precompute_time = t0.elapsed();
                let t1 = Instant::now();
                let run = enumerate(graph, &ecs, sink);
                stats.enumerate_time = t1.elapsed();
                stats.num_cores = run.num_cores;
                stats.total_result_edges = run.total_edges;
                // The skyline built for this query is held throughout.
                stats.peak_memory_bytes = run.peak_memory_bytes + ecs.memory_bytes();
            }
            Algorithm::EnumBase => {
                let t0 = Instant::now();
                let ecs = EdgeCoreSkyline::build(graph, self.k, self.range);
                stats.precompute_time = t0.elapsed();
                let t1 = Instant::now();
                let run = enumerate_base(graph, &ecs, sink);
                stats.enumerate_time = t1.elapsed();
                stats.num_cores = run.num_cores;
                stats.total_result_edges = run.total_edges;
                stats.peak_memory_bytes = run.peak_memory_bytes;
            }
            Algorithm::Otcd => {
                let t1 = Instant::now();
                let run = run_otcd(graph, self.k, self.range, sink);
                stats.enumerate_time = t1.elapsed();
                stats.num_cores = run.num_cores;
                stats.total_result_edges = run.total_edges;
                stats.peak_memory_bytes = run.peak_memory_bytes;
            }
            Algorithm::Naive => {
                let t1 = Instant::now();
                let mut counter = CountingForwarder {
                    inner: sink,
                    cores: 0,
                    edges: 0,
                };
                enumerate_naive(graph, self.k, self.range, &mut counter);
                stats.enumerate_time = t1.elapsed();
                stats.num_cores = counter.cores;
                stats.total_result_edges = counter.edges;
                stats.peak_memory_bytes = 0;
            }
        }
        stats
    }
}

/// Wraps a sink while counting what flows through it (used for the naive
/// reference, whose entry point does not report statistics itself).
struct CountingForwarder<'a> {
    inner: &'a mut dyn ResultSink,
    cores: u64,
    edges: u64,
}

impl ResultSink for CountingForwarder<'_> {
    fn emit(&mut self, tti: TimeWindow, edges: &[temporal_graph::EdgeId]) {
        self.cores += 1;
        self.edges += edges.len() as u64;
        self.inner.emit(tti, edges);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example;
    use crate::sink::{CollectingSink, CountingSink};

    #[test]
    fn accessors_and_counts_match_figure_2() {
        let g = paper_example::graph();
        let query = TimeRangeKCoreQuery::new(2, paper_example::example_query_range()).unwrap();
        assert_eq!(query.k(), 2);
        assert_eq!(query.range(), paper_example::example_query_range());
        let mut sink = CountingSink::default();
        query.run_with(&g, Algorithm::Enum, &mut sink);
        assert_eq!(sink.num_cores, 2);
        assert_eq!(sink.total_edges, 9); // 6 + 3 edges (Figure 2)
    }

    #[test]
    fn all_algorithms_produce_identical_counts() {
        let g = paper_example::graph();
        let query = TimeRangeKCoreQuery::new(2, paper_example::full_range()).unwrap();
        let mut counts = Vec::new();
        for algo in Algorithm::ALL {
            let mut sink = CountingSink::default();
            let stats = query.run_with(&g, algo, &mut sink);
            assert_eq!(stats.num_cores, sink.num_cores, "{}", algo.name());
            assert_eq!(stats.total_result_edges, sink.total_edges);
            assert!(stats.total_time() >= stats.enumerate_time);
            counts.push((sink.num_cores, sink.total_edges));
        }
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "counts: {counts:?}"
        );
    }

    #[test]
    fn zero_k_is_a_typed_error() {
        let err = TimeRangeKCoreQuery::new(0, TimeWindow::new(1, 5)).unwrap_err();
        assert_eq!(err, TkError::KOutOfRange { k: 0 });
    }

    #[test]
    fn every_algorithm_matches_naive_on_the_paper_example() {
        let g = paper_example::graph();
        let expected = crate::naive::naive_results(&g, 2, paper_example::full_range());
        for algo in Algorithm::ALL {
            let mut sink = CollectingSink::default();
            let stats = algo
                .execute(&g, 2, paper_example::full_range(), &mut sink)
                .unwrap();
            assert_eq!(stats.num_cores as usize, expected.len(), "{algo}");
            let mut cores = sink.cores;
            cores.sort_by(|a, b| a.tti.cmp(&b.tti).then_with(|| a.edges.cmp(&b.edges)));
            assert_eq!(cores, expected, "{algo}");
        }
    }

    #[test]
    fn backends_reject_malformed_input_with_typed_errors() {
        let g = paper_example::graph();
        let mut sink = CountingSink::default();
        assert!(matches!(
            Algorithm::Enum.execute(&g, 0, paper_example::full_range(), &mut sink),
            Err(TkError::KOutOfRange { k: 0 })
        ));
        let past = TimeWindow::new(g.tmax() + 1, g.tmax() + 5);
        assert!(matches!(
            Algorithm::Otcd.execute(&g, 2, past, &mut sink),
            Err(TkError::WindowPastTmax { .. })
        ));
    }

    #[test]
    fn overhanging_windows_are_clamped_not_rejected() {
        let g = paper_example::graph();
        let mut overhang = CountingSink::default();
        let stats = Algorithm::Enum
            .execute(&g, 2, TimeWindow::new(1, 500), &mut overhang)
            .unwrap();
        let mut exact = CountingSink::default();
        Algorithm::Enum
            .execute(&g, 2, paper_example::full_range(), &mut exact)
            .unwrap();
        assert_eq!(overhang, exact);
        assert_eq!(stats.num_cores, exact.num_cores);
    }

    #[test]
    fn run_with_skyline_rejects_mismatches_and_indexless_algorithms() {
        let g = paper_example::graph();
        let skyline = EdgeCoreSkyline::build(&g, 2, paper_example::full_range());
        let wrong_k = TimeRangeKCoreQuery::new(3, paper_example::full_range()).unwrap();
        let mut sink = CountingSink::default();
        assert!(matches!(
            wrong_k.run_with_skyline(&g, &skyline, Algorithm::Enum, &mut sink),
            Err(TkError::SkylineMismatch { .. })
        ));
        let wrong_range =
            TimeRangeKCoreQuery::new(2, paper_example::example_query_range()).unwrap();
        assert!(matches!(
            wrong_range.run_with_skyline(&g, &skyline, Algorithm::Enum, &mut sink),
            Err(TkError::SkylineMismatch { .. })
        ));
        let matching = TimeRangeKCoreQuery::new(2, paper_example::full_range()).unwrap();
        assert!(matches!(
            matching.run_with_skyline(&g, &skyline, Algorithm::Otcd, &mut sink),
            Err(TkError::UnsupportedAlgorithm { .. })
        ));
        assert!(matching
            .run_with_skyline(&g, &skyline, Algorithm::Enum, &mut sink)
            .is_ok());
    }

    #[test]
    fn algorithm_names_are_stable() {
        assert_eq!(Algorithm::Enum.name(), "Enum");
        assert_eq!(Algorithm::EnumBase.name(), "EnumBase");
        assert_eq!(Algorithm::Otcd.name(), "OTCD");
        assert_eq!(Algorithm::Naive.name(), "Naive");
        assert_eq!(Algorithm::ALL.len(), 4);
    }

    #[test]
    fn algorithm_display_round_trips_through_from_str() {
        for algo in Algorithm::ALL {
            let rendered = algo.to_string();
            assert_eq!(rendered, algo.name());
            assert_eq!(rendered.parse::<Algorithm>().unwrap(), algo, "{rendered}");
        }
    }

    #[test]
    fn algorithm_parsing_is_case_and_separator_insensitive() {
        for (input, expected) in [
            ("enum", Algorithm::Enum),
            ("ENUM", Algorithm::Enum),
            ("enum-base", Algorithm::EnumBase),
            ("enum_base", Algorithm::EnumBase),
            ("EnumBase", Algorithm::EnumBase),
            ("otcd", Algorithm::Otcd),
            ("OTCD", Algorithm::Otcd),
            ("Naive", Algorithm::Naive),
        ] {
            assert_eq!(input.parse::<Algorithm>().unwrap(), expected, "{input}");
        }
        assert!(matches!(
            "magic".parse::<Algorithm>(),
            Err(TkError::UnknownAlgorithm { name }) if name == "magic"
        ));
    }
}
