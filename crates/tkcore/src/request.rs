//! The typed, fallible request front end: [`QueryRequest`] →
//! [`ValidatedRequest`] → [`QueryResponse`].
//!
//! A request generalises the paper's `(k, [Ts, Te])` problem statement to
//! the shapes a serving layer meets in practice:
//!
//! * a **single `k`** (the paper's query),
//! * a **multi-`k` set** (`{2, 5, 9}` for one dashboard panel each),
//! * a **`k`-range sweep** (`k_min..=k_max`, e.g. to find the largest `k`
//!   with a non-empty answer) — through [`crate::ShardedEngine::execute`]
//!   each `k` reuses the engine's cached shard skylines, so a sweep costs at
//!   most one index build per `(shard, k)` touched by the window (one per
//!   `k` over [`crate::ShardPlan::Span`]);
//!
//! crossed with an [`OutputMode`]: materialise every core, count them,
//! count them and keep a capped `(tti, edges)` sample (what a wire reply
//! shows), or stream them into a caller-supplied sink.
//!
//! Construction is infallible and graph-independent; [`QueryRequest::validate`]
//! checks the request against a concrete graph and returns a typed
//! [`TkError`] for malformed input (`k == 0`, a sweep past the vertex
//! count, empty windows, windows past the last timestamp) instead of
//! panicking.  A request runs from an engine's skyline caches with
//! [`crate::ShardedEngine::execute`], which always runs `Enum`, or per
//! query with any [`Algorithm`] ([`QueryRequest::run`], the reference
//! execution the engine is tested against).

use std::fmt;
use std::ops::RangeInclusive;

use crate::error::TkError;
use crate::query::{Algorithm, QueryStats, TimeRangeKCoreQuery};
use crate::result::TemporalKCore;
use crate::sink::{CollectingSink, CountingSink, ResultSink, SamplingSink, SizeSink};
use temporal_graph::{EdgeId, TemporalGraph, TimeWindow, Timestamp};

/// Which `k` values a request covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KSelection {
    /// The paper's single-`k` query.
    Single(usize),
    /// An explicit set of `k` values, executed in the given order
    /// (duplicates are collapsed).
    Set(Vec<usize>),
    /// An inclusive sweep `min..=max`, executed in increasing order.
    Range {
        /// Smallest `k` of the sweep (inclusive).
        min: usize,
        /// Largest `k` of the sweep (inclusive).
        max: usize,
    },
}

impl KSelection {
    /// The distinct `k` values in execution order.  A sweep whose `max`
    /// exceeds `max_k`, or that spans more than `max_ks` values, is refused
    /// before it is expanded, so a huge `max` can never allocate one slot
    /// per `k`.
    fn expand(&self, max_k: usize, max_ks: usize) -> Result<Vec<usize>, TkError> {
        let too_many = TkError::BudgetExceeded {
            resource: "k values per request",
            limit: max_ks,
        };
        let ks: Vec<usize> = match self {
            KSelection::Single(k) => vec![*k],
            KSelection::Set(ks) => {
                let mut seen = Vec::with_capacity(ks.len());
                for &k in ks {
                    if !seen.contains(&k) {
                        seen.push(k);
                    }
                }
                seen
            }
            KSelection::Range { min, max } => {
                if min > max {
                    return Err(TkError::EmptyKSelection);
                }
                if *max > max_k {
                    return Err(TkError::KOutOfRange { k: *max });
                }
                if max - min >= max_ks {
                    return Err(too_many);
                }
                (*min..=*max).collect()
            }
        };
        if ks.is_empty() {
            return Err(TkError::EmptyKSelection);
        }
        if let Some(&k) = ks.iter().find(|&&k| k == 0) {
            return Err(TkError::KOutOfRange { k });
        }
        if ks.len() > max_ks {
            return Err(too_many);
        }
        Ok(ks)
    }
}

/// What a request does with the cores it finds.
#[derive(Default)]
pub enum OutputMode {
    /// Collect every core, returned per `k` in canonical order.
    Materialize,
    /// Count cores and result edges without materialising them (what the
    /// paper's experiments do, since `|R|` routinely exceeds memory).
    #[default]
    Count,
    /// Count like [`OutputMode::Count`] and keep the `(tti, edges)` of at
    /// most this many cores per `k`: the first ones in canonical order,
    /// returned in [`KOutcome::sample`].  No edge list is built, so a `k`
    /// holds O(cap) memory however many cores its window has.
    Sample(usize),
    /// Stream every core into the supplied sink; for multi-`k` requests the
    /// same sink sees all `k` values in execution order.  The sink is handed
    /// back in [`QueryResponse::sink`].
    Stream(Box<dyn ResultSink + Send>),
}

impl OutputMode {
    /// The per-`k` sink this mode fills, or `None` for a stream.
    pub(crate) fn shape(&self) -> Option<SinkShape> {
        match self {
            OutputMode::Materialize => Some(SinkShape::Collect),
            OutputMode::Count => Some(SinkShape::Count),
            OutputMode::Sample(cap) => Some(SinkShape::Sample(*cap)),
            OutputMode::Stream(_) => None,
        }
    }
}

impl fmt::Debug for OutputMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OutputMode::Materialize => f.write_str("Materialize"),
            OutputMode::Count => f.write_str("Count"),
            OutputMode::Sample(cap) => write!(f, "Sample({cap})"),
            OutputMode::Stream(_) => f.write_str("Stream(..)"),
        }
    }
}

/// A not-yet-validated time-range temporal k-core request.
///
/// Built from raw parameters (so malformed input is representable and
/// rejected with a typed error at [`QueryRequest::validate`] time), then
/// executed per query with [`QueryRequest::run`] or from an engine's caches
/// with [`crate::ShardedEngine::execute`].
///
/// # Example
///
/// ```
/// use tkcore::{paper_example, Algorithm, KOutput, QueryRequest};
///
/// let graph = paper_example::graph();
/// let response = QueryRequest::single(2, 1, 4)
///     .materialize()
///     .run(&graph, Algorithm::Enum)
///     .unwrap();
/// let KOutput::Cores(cores) = &response.outcomes[0].output else {
///     panic!("materialized request");
/// };
/// assert_eq!(cores.len(), 2); // Figure 2 of the paper
/// ```
#[derive(Debug)]
pub struct QueryRequest {
    ks: KSelection,
    start: Timestamp,
    end: Timestamp,
    mode: OutputMode,
    max_ks: usize,
}

impl QueryRequest {
    /// A single-`k` request over the raw window `[start, end]` (the paper's
    /// problem statement).  An `end` past the graph's last timestamp is
    /// clamped at validation, so `QueryRequest::single(k, 1, Timestamp::MAX)`
    /// queries the whole span.
    pub fn single(k: usize, start: Timestamp, end: Timestamp) -> Self {
        Self::with_selection(KSelection::Single(k), start, end)
    }

    /// A multi-`k` request: one execution per distinct `k`, same window.
    pub fn multi(ks: impl Into<Vec<usize>>, start: Timestamp, end: Timestamp) -> Self {
        Self::with_selection(KSelection::Set(ks.into()), start, end)
    }

    /// A `k`-range sweep `ks.start()..=ks.end()` over `[start, end]`.
    pub fn sweep(ks: RangeInclusive<usize>, start: Timestamp, end: Timestamp) -> Self {
        Self::with_selection(
            KSelection::Range {
                min: *ks.start(),
                max: *ks.end(),
            },
            start,
            end,
        )
    }

    /// A request with an explicit [`KSelection`].
    pub fn with_selection(ks: KSelection, start: Timestamp, end: Timestamp) -> Self {
        Self {
            ks,
            start,
            end,
            mode: OutputMode::Count,
            max_ks: usize::MAX,
        }
    }

    /// Caps the distinct `k` values the request may select (unbounded by
    /// default): validation refuses more with [`TkError::BudgetExceeded`],
    /// checking a sweep before it is expanded.  The wire sets it from
    /// [`crate::wire::WireConfig::max_ks_per_request`].
    pub(crate) fn max_ks(mut self, cap: usize) -> Self {
        self.max_ks = cap;
        self
    }

    /// Sets the output mode (the default is [`OutputMode::Count`]).
    pub fn output(mut self, mode: OutputMode) -> Self {
        self.mode = mode;
        self
    }

    /// Shorthand for `.output(OutputMode::Materialize)`.
    pub fn materialize(self) -> Self {
        self.output(OutputMode::Materialize)
    }

    /// Shorthand for `.output(OutputMode::Count)`.
    pub fn count(self) -> Self {
        self.output(OutputMode::Count)
    }

    /// Shorthand for `.output(OutputMode::Sample(cap))`.
    pub fn sample(self, cap: usize) -> Self {
        self.output(OutputMode::Sample(cap))
    }

    /// Shorthand for `.output(OutputMode::Stream(sink))`.
    pub fn stream(self, sink: Box<dyn ResultSink + Send>) -> Self {
        self.output(OutputMode::Stream(sink))
    }

    /// The requested `k` selection.
    pub fn selection(&self) -> &KSelection {
        &self.ks
    }

    /// The raw (unvalidated) requested window as `(start, end)`.
    pub fn window_bounds(&self) -> (Timestamp, Timestamp) {
        (self.start, self.end)
    }

    /// Checks the request against a concrete graph.
    ///
    /// The window's `end` is clamped to the graph's last timestamp (an
    /// overhanging query is a valid question with a smaller answer); all
    /// other defects are typed errors.
    ///
    /// # Errors
    /// * [`TkError::KOutOfRange`] — some selected `k` is `0`, or a `k`-range
    ///   sweep's `max` exceeds `graph.num_vertices()` (a k-core needs more
    ///   than `k` vertices, so such `k`s could only return empty answers);
    /// * [`TkError::EmptyKSelection`] — the selection contains no `k`;
    /// * [`TkError::BudgetExceeded`] — it selects more `k` values than a
    ///   wire request may ([`crate::wire::WireConfig::max_ks_per_request`]);
    /// * [`TkError::EmptyWindow`] — `start == 0` or `start > end`;
    /// * [`TkError::WindowPastTmax`] — `start` exceeds `graph.tmax()`.
    pub fn validate(self, graph: &TemporalGraph) -> Result<ValidatedRequest, TkError> {
        let ks = self.ks.expand(graph.num_vertices(), self.max_ks)?;
        let Some(window) = TimeWindow::try_new(self.start, self.end) else {
            return Err(TkError::EmptyWindow {
                start: self.start,
                end: self.end,
            });
        };
        let window = validate_query(graph, ks[0], window)?;
        Ok(ValidatedRequest {
            ks,
            window,
            mode: self.mode,
        })
    }

    /// Validates against `graph` and executes per query with `algorithm`
    /// in one step.
    ///
    /// # Errors
    /// Everything [`QueryRequest::validate`] rejects.
    pub fn run(
        self,
        graph: &TemporalGraph,
        algorithm: Algorithm,
    ) -> Result<QueryResponse, TkError> {
        self.validate(graph)?.execute(graph, algorithm)
    }
}

impl From<TimeRangeKCoreQuery> for QueryRequest {
    /// The paper's `(k, [Ts, Te])` query as a single-`k` count request.
    fn from(query: TimeRangeKCoreQuery) -> Self {
        let range = query.range();
        Self::single(query.k(), range.start(), range.end())
    }
}

/// Validates `(k, window)` against `graph` and returns the window clamped to
/// the graph span: the admission rule every execution path shares.
pub(crate) fn validate_query(
    graph: &TemporalGraph,
    k: usize,
    window: TimeWindow,
) -> Result<TimeWindow, TkError> {
    if k == 0 {
        return Err(TkError::KOutOfRange { k });
    }
    // A constructed graph always has at least one edge, so tmax() >= 1;
    // the max(1) below only guards the TimeWindow invariant.
    let tmax = graph.tmax();
    if window.start() > tmax.max(1) {
        return Err(TkError::WindowPastTmax {
            start: window.start(),
            tmax,
        });
    }
    Ok(TimeWindow::new(
        window.start(),
        window.end().min(tmax.max(1)),
    ))
}

/// A request that passed [`QueryRequest::validate`]: every `k` is `>= 1`,
/// and the window is non-empty, within the graph span, and clamped.
#[derive(Debug)]
pub struct ValidatedRequest {
    ks: Vec<usize>,
    window: TimeWindow,
    mode: OutputMode,
}

impl ValidatedRequest {
    /// The distinct `k` values, in execution order.
    pub fn ks(&self) -> &[usize] {
        &self.ks
    }

    /// The validated, span-clamped query window.
    pub fn window(&self) -> TimeWindow {
        self.window
    }

    /// The output mode the request was built with.
    pub fn mode(&self) -> &OutputMode {
        &self.mode
    }

    /// Executes every `(k, window)` pair per query with `algorithm`,
    /// consuming the request.
    ///
    /// # Errors
    /// The input errors of [`Algorithm::execute`], which cannot occur when
    /// `graph` is the graph the request was validated against.
    pub fn execute(
        self,
        graph: &TemporalGraph,
        algorithm: Algorithm,
    ) -> Result<QueryResponse, TkError> {
        self.respond(
            |ks, window, shape| {
                ks.iter()
                    .map(|&k| {
                        let mut sink = OutcomeSink::new(shape);
                        let stats = algorithm.execute(graph, k, window, &mut sink)?;
                        Ok((sink, stats))
                    })
                    .collect()
            },
            |k, window, sink| algorithm.execute(graph, k, window, sink),
        )
    }

    /// Runs the request and assembles its response: the one place per-`k`
    /// outcomes are built, for per-query execution and for
    /// [`crate::ShardedEngine::execute`] alike.
    ///
    /// Stream mode runs the `k`s in order into the caller's one sink through
    /// `stream`.  Every other mode hands every `k` to `batch` together with
    /// its [`SinkShape`]; it returns one [`OutcomeSink::new`] sink and its
    /// stats per `k`, in `k` order, and may run them concurrently.
    pub(crate) fn respond<B, S>(self, batch: B, mut stream: S) -> Result<QueryResponse, TkError>
    where
        B: FnOnce(
            &[usize],
            TimeWindow,
            SinkShape,
        ) -> Result<Vec<(OutcomeSink, QueryStats)>, TkError>,
        S: FnMut(usize, TimeWindow, &mut dyn ResultSink) -> Result<QueryStats, TkError>,
    {
        let ValidatedRequest { ks, window, mode } = self;
        let shape = match mode {
            OutputMode::Stream(mut sink) => {
                let mut outcomes = Vec::with_capacity(ks.len());
                for k in ks {
                    let stats = stream(k, window, sink.as_mut())?;
                    outcomes.push(KOutcome {
                        k,
                        stats,
                        output: KOutput::Streamed,
                        sample: None,
                    });
                }
                return Ok(QueryResponse {
                    window,
                    outcomes,
                    sink: Some(sink),
                });
            }
            OutputMode::Materialize => SinkShape::Collect,
            OutputMode::Count => SinkShape::Count,
            OutputMode::Sample(cap) => SinkShape::Sample(cap),
        };
        let outcomes = ks
            .iter()
            .zip(batch(&ks, window, shape)?)
            .map(|(&k, (sink, stats))| {
                let (output, sample) = sink.into_output();
                KOutcome {
                    k,
                    stats,
                    output,
                    sample,
                }
            })
            .collect();
        Ok(QueryResponse {
            window,
            outcomes,
            sink: None,
        })
    }
}

/// Which per-`k` sink a non-stream [`OutputMode`] fills.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SinkShape {
    /// [`OutputMode::Count`].
    Count,
    /// [`OutputMode::Sample`], with its cap.
    Sample(usize),
    /// [`OutputMode::Materialize`].
    Collect,
}

/// The per-`k` sink of a count, sample or materialize request.
pub(crate) enum OutcomeSink {
    /// [`OutputMode::Count`].
    Count(CountingSink),
    /// [`OutputMode::Sample`].
    Sample(SamplingSink),
    /// [`OutputMode::Materialize`].
    Collect(CollectingSink),
}

impl OutcomeSink {
    /// A fresh sink of the given shape for one `k`.
    pub(crate) fn new(shape: SinkShape) -> Self {
        match shape {
            SinkShape::Count => OutcomeSink::Count(CountingSink::default()),
            SinkShape::Sample(cap) => OutcomeSink::Sample(SamplingSink::new(cap)),
            SinkShape::Collect => OutcomeSink::Collect(CollectingSink::default()),
        }
    }

    /// The outcome's payload and, for a sample, its kept pairs.
    fn into_output(self) -> (KOutput, Option<Vec<(TimeWindow, u64)>>) {
        match self {
            OutcomeSink::Count(counts) => (KOutput::Counts(counts), None),
            OutcomeSink::Sample(sampled) => {
                let (counts, sample) = sampled.into_parts();
                (KOutput::Counts(counts), Some(sample))
            }
            OutcomeSink::Collect(cores) => (KOutput::Cores(cores.into_sorted()), None),
        }
    }
}

impl ResultSink for OutcomeSink {
    fn emit(&mut self, tti: TimeWindow, edges: &[EdgeId]) {
        match self {
            OutcomeSink::Count(counts) => counts.emit(tti, edges),
            OutcomeSink::Sample(sampled) => sampled.emit(tti, edges),
            OutcomeSink::Collect(cores) => cores.emit(tti, edges),
        }
    }

    fn as_size_sink(&mut self) -> Option<&mut dyn SizeSink> {
        match self {
            OutcomeSink::Count(counts) => Some(counts),
            OutcomeSink::Sample(sampled) => Some(sampled),
            OutcomeSink::Collect(_) => None,
        }
    }
}

/// Per-`k` result payload of a [`QueryResponse`].
#[derive(Debug)]
pub enum KOutput {
    /// All distinct cores of this `k`, in canonical order
    /// ([`OutputMode::Materialize`]).
    Cores(Vec<TemporalKCore>),
    /// Core and result-edge counts ([`OutputMode::Count`] and
    /// [`OutputMode::Sample`]).
    Counts(CountingSink),
    /// Results went to the caller's sink ([`OutputMode::Stream`]); counts
    /// are still available in the accompanying [`QueryStats`].
    Streamed,
}

/// Outcome of one `k` of a request: per-phase statistics plus the output in
/// the requested mode.
#[derive(Debug)]
pub struct KOutcome {
    /// The query parameter this outcome belongs to.
    pub k: usize,
    /// Per-phase timings and counts of this `k`'s execution.
    pub stats: QueryStats,
    /// The result payload in the requested [`OutputMode`].
    pub output: KOutput,
    /// For [`OutputMode::Sample`], the `(tti, edges)` of the first cores in
    /// canonical order, at most the requested cap of them; `None` in every
    /// other mode.
    pub sample: Option<Vec<(TimeWindow, u64)>>,
}

/// Everything a request produced: one [`KOutcome`] per `k`, in execution
/// order, plus the streaming sink handed back to the caller.
pub struct QueryResponse {
    /// The validated window the request actually ran over (end clamped to
    /// the graph's last timestamp).
    pub window: TimeWindow,
    /// Per-`k` outcomes, in execution order.
    pub outcomes: Vec<KOutcome>,
    /// For [`OutputMode::Stream`] requests, the sink that received every
    /// core; `None` otherwise.
    pub sink: Option<Box<dyn ResultSink + Send>>,
}

impl fmt::Debug for QueryResponse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueryResponse")
            .field("window", &self.window)
            .field("outcomes", &self.outcomes)
            .field("sink", &self.sink.as_ref().map(|_| "Box<dyn ResultSink>"))
            .finish()
    }
}

impl QueryResponse {
    /// Sum of distinct cores over all `k` values.
    pub fn total_cores(&self) -> u64 {
        self.outcomes.iter().map(|o| o.stats.num_cores).sum()
    }

    /// Sum of result edges (`|R|`) over all `k` values.
    pub fn total_result_edges(&self) -> u64 {
        self.outcomes
            .iter()
            .map(|o| o.stats.total_result_edges)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example;
    use crate::sink::FnSink;

    #[test]
    fn single_request_counts_figure_2() {
        let g = paper_example::graph();
        let response = QueryRequest::single(2, 1, 4)
            .run(&g, Algorithm::Enum)
            .unwrap();
        assert_eq!(response.outcomes.len(), 1);
        assert_eq!(response.outcomes[0].k, 2);
        assert_eq!(response.total_cores(), 2);
        assert_eq!(response.total_result_edges(), 9);
        let KOutput::Counts(counts) = &response.outcomes[0].output else {
            panic!("count is the default mode");
        };
        assert_eq!(counts.num_cores, 2);
    }

    #[test]
    fn multi_k_collapses_duplicates_and_keeps_order() {
        let g = paper_example::graph();
        let response = QueryRequest::multi(vec![3, 2, 3], 1, 7)
            .run(&g, Algorithm::Enum)
            .unwrap();
        let ks: Vec<usize> = response.outcomes.iter().map(|o| o.k).collect();
        assert_eq!(ks, vec![3, 2]);
    }

    #[test]
    fn sweep_reports_per_k_stats() {
        let g = paper_example::graph();
        let response = QueryRequest::sweep(1..=3, 1, 7)
            .run(&g, Algorithm::Enum)
            .unwrap();
        let ks: Vec<usize> = response.outcomes.iter().map(|o| o.k).collect();
        assert_eq!(ks, vec![1, 2, 3]);
        for outcome in &response.outcomes {
            assert_eq!(outcome.stats.algorithm, Algorithm::Enum);
        }
        // More cohesion constraints, fewer (or equal) results.
        let cores: Vec<u64> = response
            .outcomes
            .iter()
            .map(|o| o.stats.num_cores)
            .collect();
        assert!(cores.windows(2).all(|w| w[0] >= w[1]), "{cores:?}");
    }

    #[test]
    fn stream_mode_hands_the_sink_back() {
        let g = paper_example::graph();
        let seen = std::sync::Arc::new(std::sync::Mutex::new(0u64));
        let seen_in_sink = std::sync::Arc::clone(&seen);
        let sink = FnSink(move |_tti: TimeWindow, _edges: &[EdgeId]| {
            *seen_in_sink.lock().unwrap() += 1;
        });
        let response = QueryRequest::single(2, 1, 4)
            .stream(Box::new(sink))
            .run(&g, Algorithm::Enum)
            .unwrap();
        assert!(matches!(response.outcomes[0].output, KOutput::Streamed));
        assert!(response.sink.is_some());
        assert_eq!(*seen.lock().unwrap(), 2);
        assert_eq!(response.total_cores(), 2);
    }

    #[test]
    fn validation_rejects_each_defect_with_its_own_error() {
        let g = paper_example::graph();
        assert!(matches!(
            QueryRequest::single(0, 1, 4).validate(&g),
            Err(TkError::KOutOfRange { k: 0 })
        ));
        assert!(matches!(
            QueryRequest::multi(Vec::<usize>::new(), 1, 4).validate(&g),
            Err(TkError::EmptyKSelection)
        ));
        assert!(matches!(
            QueryRequest::with_selection(KSelection::Range { min: 4, max: 2 }, 1, 4).validate(&g),
            Err(TkError::EmptyKSelection)
        ));
        assert!(matches!(
            QueryRequest::single(2, 0, 4).validate(&g),
            Err(TkError::EmptyWindow { start: 0, end: 4 })
        ));
        assert!(matches!(
            QueryRequest::single(2, 5, 4).validate(&g),
            Err(TkError::EmptyWindow { start: 5, end: 4 })
        ));
        assert!(matches!(
            QueryRequest::single(2, 8, 20).validate(&g),
            Err(TkError::WindowPastTmax { start: 8, tmax: 7 })
        ));
    }

    #[test]
    fn sweeps_past_the_vertex_count_are_refused_before_expansion() {
        let g = paper_example::graph();
        let n = g.num_vertices();
        let validated = QueryRequest::sweep(1..=n, 1, 7).validate(&g).unwrap();
        assert_eq!(validated.ks().len(), n);
        assert_eq!(
            QueryRequest::sweep(1..=n + 1, 1, 7)
                .validate(&g)
                .unwrap_err(),
            TkError::KOutOfRange { k: n + 1 }
        );
        // Expanding this sweep would need ~2^66 bytes: it must be refused
        // before any `k` is materialized.
        let huge = usize::MAX / 2;
        assert_eq!(
            QueryRequest::sweep(1..=huge, 1, 7)
                .validate(&g)
                .unwrap_err(),
            TkError::KOutOfRange { k: huge }
        );
        // Single and set selections are not capped.
        assert!(QueryRequest::single(n + 1, 1, 7).validate(&g).is_ok());
        assert!(QueryRequest::multi(vec![2, huge], 1, 7)
            .validate(&g)
            .is_ok());
    }

    #[test]
    fn validation_clamps_overhanging_windows() {
        let g = paper_example::graph();
        let validated = QueryRequest::single(2, 3, 500).validate(&g).unwrap();
        assert_eq!(validated.window(), TimeWindow::new(3, 7));
        assert_eq!(validated.ks(), &[2]);
        assert!(matches!(validated.mode(), OutputMode::Count));
    }

    #[test]
    fn materialized_outputs_are_canonical() {
        let g = paper_example::graph();
        let response = QueryRequest::single(2, 1, 4)
            .materialize()
            .run(&g, Algorithm::Naive)
            .unwrap();
        let KOutput::Cores(cores) = &response.outcomes[0].output else {
            panic!("materialized");
        };
        assert_eq!(
            cores.as_slice(),
            crate::naive::naive_results(&g, 2, paper_example::example_query_range()).as_slice()
        );
    }
}
