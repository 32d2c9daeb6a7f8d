//! Acceptance tests for the unified request API through the public facade:
//! `ShardedEngine::execute` and `execute_batch` answer every request shape,
//! output mode and algorithm exactly like per-query `QueryRequest::run` (a
//! batch with an invalid request fails whole, building nothing), a k-range
//! sweep over the paper example builds at most one skyline per k (asserted
//! via `CacheStats`) and answers like the naive oracle, and malformed input
//! yields typed errors on every entry point, never panics.  On random
//! sharded graphs, a capped-sample request counts exactly what a
//! materialising one returns and samples its first cores.

mod common;

use common::arb_graph;
use proptest::prelude::*;
use std::sync::{Arc, Mutex};
use temporal_kcore::prelude::*;
use temporal_kcore::temporal_graph::EdgeId;
use temporal_kcore::tkcore::{paper_example, FnSink};

#[test]
fn k_range_sweep_reuses_one_skyline_build_per_k() {
    let engine = ShardedEngine::new(paper_example::graph(), ShardPlan::Span).unwrap();
    let graph = engine.graph();

    let response = engine.execute(QueryRequest::sweep(1..=3, 1, 7)).unwrap();

    // Per-k stats, in sweep order.
    let ks: Vec<usize> = response.outcomes.iter().map(|o| o.k).collect();
    assert_eq!(ks, vec![1, 2, 3]);
    for outcome in &response.outcomes {
        assert_eq!(outcome.stats.algorithm, Algorithm::Enum);
        let KOutput::Counts(counts) = &outcome.output else {
            panic!("count is the default output mode");
        };
        assert_eq!(counts.num_cores, outcome.stats.num_cores);
        // Each k agrees with the brute-force reference.
        let expected = temporal_kcore::tkcore::naive_results(&graph, outcome.k, graph.span());
        assert_eq!(
            outcome.stats.num_cores as usize,
            expected.len(),
            "k = {}",
            outcome.k
        );
    }

    // At most one span-wide skyline build per k of the sweep.
    let cache = engine.cache_stats();
    assert_eq!(cache.misses, 3, "{cache:?}");

    // Re-running the sweep is pure cache hits: still one build per k.
    let again = engine.execute(QueryRequest::sweep(1..=3, 1, 7)).unwrap();
    assert_eq!(again.total_cores(), response.total_cores());
    let cache = engine.cache_stats();
    assert_eq!(cache.misses, 3, "no rebuild on the second sweep: {cache:?}");
    assert!(cache.hits >= 3);
}

#[test]
fn sharded_sweep_builds_only_the_touched_shards_per_k() {
    let graph = paper_example::graph(); // tmax = 7
    let engine = ShardedEngine::new(graph.clone(), ShardPlan::FixedCount(4)).unwrap();
    // FixedCount(4) over [1, 7] resolves to [1,1] [2,3] [4,5] [6,7].
    assert_eq!(engine.num_shards(), 4);

    // The window [4, 7] touches shards 2 and 3 only.
    let response = engine.execute(QueryRequest::sweep(1..=3, 4, 7)).unwrap();
    assert_eq!(response.outcomes.len(), 3);
    for outcome in &response.outcomes {
        let expected =
            temporal_kcore::tkcore::naive_results(&graph, outcome.k, TimeWindow::new(4, 7));
        assert_eq!(
            outcome.stats.num_cores as usize,
            expected.len(),
            "k = {}",
            outcome.k
        );
    }

    // A window touching 2 of 4 shards builds exactly 2 shard skylines per
    // k of the sweep — the untouched shards stay cold.
    let cache = engine.cache_stats();
    let builds: Vec<u64> = cache.per_shard.iter().map(|s| s.builds).collect();
    assert_eq!(builds, vec![0, 0, 3, 3], "{cache:?}");
    assert_eq!(cache.misses, 6, "2 shard misses per k: {cache:?}");

    // Re-running the sweep is pure cache hits: no shard is rebuilt.
    let again = engine.execute(QueryRequest::sweep(1..=3, 4, 7)).unwrap();
    assert_eq!(again.total_cores(), response.total_cores());
    let cache = engine.cache_stats();
    let builds: Vec<u64> = cache.per_shard.iter().map(|s| s.builds).collect();
    assert_eq!(builds, vec![0, 0, 3, 3], "no rebuild: {cache:?}");
    assert!(cache.hits >= 6, "{cache:?}");
}

#[test]
fn all_backends_answer_the_paper_query_identically() {
    let graph = paper_example::graph();
    let span = ShardedEngine::new(graph.clone(), ShardPlan::Span).unwrap();
    let three = ShardedEngine::new(graph.clone(), ShardPlan::FixedCount(3)).unwrap();
    let cuts = ShardedEngine::new(graph.clone(), ShardPlan::ExplicitCuts(vec![2, 4])).unwrap();
    let request = || QueryRequest::single(2, 1, 4).materialize();
    // The naive oracle runs first and becomes the reference.
    let mut answers: Vec<(String, QueryResponse)> = Algorithm::ALL
        .iter()
        .rev()
        .map(|&algo| (algo.to_string(), request().run(&graph, algo).unwrap()))
        .collect();
    for (name, engine) in [
        ("Span", &span),
        ("FixedCount(3)", &three),
        ("ExplicitCuts([2, 4])", &cuts),
    ] {
        let response = engine.execute(request()).unwrap();
        answers.push((format!("{name} engine"), response));
    }
    assert_eq!(answers[0].0, "Naive");
    let KOutput::Cores(reference) = &answers[0].1.outcomes[0].output else {
        panic!("materialized request");
    };
    assert_eq!(reference.len(), 2);
    for (name, response) in &answers {
        let KOutput::Cores(cores) = &response.outcomes[0].output else {
            panic!("materialized request");
        };
        assert_eq!(cores, reference, "{name}");
    }
}

/// How a comparison request hands back its cores.
#[derive(Debug, Clone, Copy)]
enum Mode {
    Count,
    /// Counts plus the first two cores of each `k`.
    Sample,
    Materialize,
    Stream,
}

/// Every core a streaming request emitted, in emission order.
type Recorded = Arc<Mutex<Vec<(TimeWindow, Vec<EdgeId>)>>>;

/// Request shape `shape` — one `k`, a set with a duplicate `k`, or a sweep —
/// over `window` in `mode`; a stream request records into `recorded`.
fn comparison_request(
    shape: usize,
    mode: Mode,
    window: TimeWindow,
    recorded: &Recorded,
) -> QueryRequest {
    let (start, end) = (window.start(), window.end());
    let request = match shape {
        0 => QueryRequest::single(2, start, end),
        1 => QueryRequest::multi(vec![3, 1, 3], start, end),
        _ => QueryRequest::sweep(1..=3, start, end),
    };
    match mode {
        Mode::Count => request.count(),
        Mode::Sample => request.sample(2),
        Mode::Materialize => request.materialize(),
        Mode::Stream => {
            let recorded = Arc::clone(recorded);
            request.stream(Box::new(FnSink(move |tti, edges: &[EdgeId]| {
                recorded.lock().unwrap().push((tti, edges.to_vec()));
            })))
        }
    }
}

/// Asserts that an engine response equals the per-query reference of
/// `algo`; a stream request's sink saw the same cores, in the same order as
/// the `Enum` reference emits them.
fn assert_same_response(
    got: &QueryResponse,
    expected: &QueryResponse,
    (got_stream, expected_stream): (&Recorded, &Recorded),
    algo: Algorithm,
    ctx: &str,
) {
    assert_eq!(got.window, expected.window, "{ctx}");
    assert_eq!(got.sink.is_some(), expected.sink.is_some(), "{ctx}");
    let ks: Vec<usize> = got.outcomes.iter().map(|o| o.k).collect();
    let expected_ks: Vec<usize> = expected.outcomes.iter().map(|o| o.k).collect();
    assert_eq!(ks, expected_ks, "{ctx}");
    for (g, e) in got.outcomes.iter().zip(&expected.outcomes) {
        assert_eq!(g.stats.algorithm, Algorithm::Enum, "{ctx}");
        assert_eq!(e.stats.algorithm, algo, "{ctx}");
        assert_eq!(g.stats.num_cores, e.stats.num_cores, "{ctx}");
        assert_eq!(
            g.stats.total_result_edges, e.stats.total_result_edges,
            "{ctx}"
        );
        match (&g.output, &e.output) {
            (KOutput::Counts(a), KOutput::Counts(b)) => assert_eq!(a, b, "{ctx}"),
            (KOutput::Cores(a), KOutput::Cores(b)) => assert_eq!(a, b, "{ctx}"),
            (KOutput::Streamed, KOutput::Streamed) => {}
            (a, b) => panic!("{ctx}: {a:?} vs {b:?}"),
        }
        assert_eq!(g.sample, e.sample, "{ctx}");
    }
    let mut got_stream = got_stream.lock().unwrap().clone();
    let mut expected_stream = expected_stream.lock().unwrap().clone();
    if algo != Algorithm::Enum {
        // The baselines list a core's edges and the cores in orders of
        // their own: compare as sets.
        for stream in [&mut got_stream, &mut expected_stream] {
            stream
                .iter_mut()
                .for_each(|(_, edges)| edges.sort_unstable());
            stream.sort();
        }
    }
    assert_eq!(got_stream, expected_stream, "{ctx}: streamed cores");
}

#[test]
fn engine_execute_matches_per_query_run() {
    let graph = paper_example::graph();
    // The whole span, a window spanning every FixedCount(3) cut, and one
    // inside a single shard.
    let windows = [
        TimeWindow::new(1, 7),
        TimeWindow::new(2, 6),
        TimeWindow::new(3, 4),
    ];
    let modes = [Mode::Count, Mode::Sample, Mode::Materialize, Mode::Stream];
    for plan in [ShardPlan::Span, ShardPlan::FixedCount(3)] {
        let engine = ShardedEngine::new(graph.clone(), plan.clone()).unwrap();
        for window in windows {
            for shape in 0..3 {
                for mode in modes {
                    let got_stream = Recorded::default();
                    let got = engine
                        .execute(comparison_request(shape, mode, window, &got_stream))
                        .unwrap();
                    for algo in Algorithm::ALL {
                        let ctx = format!("{plan:?} {window} shape {shape} {mode:?} {algo}");
                        let expected_stream = Recorded::default();
                        let expected = comparison_request(shape, mode, window, &expected_stream)
                            .run(&graph, algo)
                            .unwrap();
                        let streams = (&got_stream, &expected_stream);
                        assert_same_response(&got, &expected, streams, algo, &ctx);
                    }
                }
            }
        }

        // The batch axis: every window × shape × mode in one mixed batch
        // answers each request exactly as per-request execution does.
        let cases: Vec<(TimeWindow, usize, Mode)> = windows
            .iter()
            .flat_map(|&w| (0..3).flat_map(move |shape| modes.map(|mode| (w, shape, mode))))
            .collect();
        let got_streams: Vec<Recorded> = cases.iter().map(|_| Default::default()).collect();
        let batch = cases
            .iter()
            .zip(&got_streams)
            .map(|(&(w, shape, mode), got)| comparison_request(shape, mode, w, got))
            .collect();
        let responses = engine.execute_batch(batch).unwrap();
        assert_eq!(responses.len(), cases.len());
        for algo in Algorithm::ALL {
            for ((&(w, shape, mode), got_stream), got) in
                cases.iter().zip(&got_streams).zip(&responses)
            {
                let ctx = format!("batch {plan:?} {w} shape {shape} {mode:?} {algo}");
                let expected_stream = Recorded::default();
                let expected = comparison_request(shape, mode, w, &expected_stream)
                    .run(&graph, algo)
                    .unwrap();
                assert_same_response(got, &expected, (got_stream, &expected_stream), algo, &ctx);
            }
        }

        // An invalid request anywhere in a batch fails the whole batch
        // before any skyline is built.
        let fresh = ShardedEngine::new(graph.clone(), plan.clone()).unwrap();
        let recorded = Recorded::default();
        // First, middle and last position of a four-request batch.
        for bad_at in [0, 2, 3] {
            let mut batch: Vec<QueryRequest> = modes
                .iter()
                .map(|&mode| comparison_request(2, mode, TimeWindow::new(2, 6), &recorded))
                .collect();
            batch.insert(bad_at, QueryRequest::single(2, 8, 9));
            assert!(
                matches!(
                    fresh.execute_batch(batch),
                    Err(TkError::WindowPastTmax { start: 8, tmax: 7 })
                ),
                "{plan:?} bad request at {bad_at}"
            );
        }
        assert_eq!(fresh.cache_stats().misses, 0, "{plan:?}");
        assert!(
            recorded.lock().unwrap().is_empty(),
            "{plan:?}: nothing streamed"
        );
    }
}

#[test]
fn malformed_requests_are_typed_errors_on_every_entry_point() {
    let graph = paper_example::graph();
    let engine = ShardedEngine::new(graph.clone(), ShardPlan::Span).unwrap();
    type EntryPoint<'a> = &'a dyn Fn(QueryRequest) -> Result<QueryResponse, TkError>;
    let entry_points: [(&str, EntryPoint); 3] = [
        ("Enum", &|r| r.run(&graph, Algorithm::Enum)),
        ("Naive", &|r| r.run(&graph, Algorithm::Naive)),
        ("engine", &|r| engine.execute(r)),
    ];
    for (name, run) in entry_points {
        assert!(
            matches!(
                run(QueryRequest::single(0, 1, 4)),
                Err(TkError::KOutOfRange { k: 0 })
            ),
            "{name}"
        );
        assert!(
            matches!(
                run(QueryRequest::single(2, 0, 4)),
                Err(TkError::EmptyWindow { .. })
            ),
            "{name}"
        );
        assert!(
            matches!(
                run(QueryRequest::single(2, 6, 3)),
                Err(TkError::EmptyWindow { .. })
            ),
            "{name}"
        );
        assert!(
            matches!(
                run(QueryRequest::single(2, 8, 9)),
                Err(TkError::WindowPastTmax { start: 8, tmax: 7 })
            ),
            "{name}"
        );
        assert!(
            matches!(
                run(QueryRequest::with_selection(
                    KSelection::Range { min: 5, max: 2 },
                    1,
                    4
                )),
                Err(TkError::EmptyKSelection)
            ),
            "{name}"
        );
        // A sweep reaching past the vertex count is refused before its ks
        // are expanded (expanding this one would abort the process).
        assert!(
            matches!(
                run(QueryRequest::sweep(1..=9_000_000_000_000_000, 1, 4)),
                Err(TkError::KOutOfRange {
                    k: 9_000_000_000_000_000
                })
            ),
            "{name}"
        );
    }
    // The whole-span shorthand: an overhanging end is clamped, not refused.
    let response = QueryRequest::single(2, 1, Timestamp::MAX)
        .run(&graph, Algorithm::Enum)
        .unwrap();
    assert_eq!(response.window, TimeWindow::new(1, 7));
}

/// A window starting inside `shards[first]` and ending inside
/// `shards[first + cuts]`, so it crosses exactly `cuts` shard cuts;
/// `offset` moves both ends inward.
fn window_across(shards: &[TimeWindow], first: usize, cuts: usize, offset: u32) -> TimeWindow {
    let (a, b) = (shards[first], shards[first + cuts]);
    let start = a.start() + offset % (a.end() - a.start() + 1);
    let end = b.end() - offset % (b.end() - b.start() + 1);
    TimeWindow::new(start, end.max(start))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On random graphs cut into four shards, a sample request over an
    /// in-shard, a one-cut and a two-cut window counts exactly the cores
    /// and result edges a materialising request returns, and samples the
    /// first `cap` of them in canonical order — for `Enum` and `Otcd`,
    /// through the engine and per query alike.
    #[test]
    fn sample_mode_keeps_the_first_materialised_cores(
        g in arb_graph(10, 60, 12),
        (first, offset) in (0usize..4, 0u32..6),
    ) {
        let engine = ShardedEngine::new(g.clone(), ShardPlan::FixedCount(4))
            .expect("a valid plan");
        let shards = engine.shards();
        let windows: Vec<TimeWindow> = (0..=2)
            .filter(|&cuts| cuts < shards.len())
            .map(|cuts| window_across(&shards, first % (shards.len() - cuts), cuts, offset))
            .collect();
        for window in windows {
            let request = || QueryRequest::sweep(1..=3, window.start(), window.end());
            let materialized = engine
                .execute(request().materialize())
                .expect("window is inside the span");
            for cap in [0, 1, 3, 64] {
                let sampled = engine
                    .execute(request().sample(cap))
                    .expect("window is inside the span");
                for algo in [Algorithm::Enum, Algorithm::Otcd] {
                    let ctx = format!("{window} {algo} cap {cap}");
                    let per_query = request().sample(cap).run(&g, algo).expect("valid request");
                    for ((s, q), m) in sampled
                        .outcomes
                        .iter()
                        .zip(&per_query.outcomes)
                        .zip(&materialized.outcomes)
                    {
                        let KOutput::Cores(cores) = &m.output else {
                            panic!("{ctx}: materialized request");
                        };
                        let KOutput::Counts(counts) = &s.output else {
                            panic!("{ctx}: a sample request counts");
                        };
                        prop_assert_eq!(counts.num_cores, cores.len() as u64, "{}", &ctx);
                        let edges: u64 = cores.iter().map(|c| c.num_edges() as u64).sum();
                        prop_assert_eq!(counts.total_edges, edges, "{}", &ctx);
                        let first_cores: Vec<(TimeWindow, u64)> = cores
                            .iter()
                            .take(cap)
                            .map(|c| (c.tti, c.num_edges() as u64))
                            .collect();
                        prop_assert_eq!(s.sample.as_ref(), Some(&first_cores), "{}", &ctx);
                        prop_assert_eq!(&q.sample, &s.sample, "per query {}", &ctx);
                        prop_assert!(matches!(&q.output, KOutput::Counts(c) if c == counts), "{}", &ctx);
                    }
                }
            }
        }
    }
}

#[test]
fn the_default_wire_k_cap_accepts_its_cap_and_refuses_one_more() {
    use temporal_kcore::tkcore::wire::{self, WireConfig, WireRequest};
    let g = generator::uniform_random(100, 400, 20, 7);
    let cap = WireConfig::default().max_ks_per_request;
    assert_eq!(cap, 64);
    assert!(
        g.num_vertices() > cap + 1,
        "the sweep must not be KOutOfRange"
    );
    let sweep = |k_max: usize| {
        let line = format!(r#"{{"k_min":1,"k_max":{k_max},"start":1,"end":5}}"#);
        match wire::parse_request(&line).expect("well-formed line") {
            WireRequest::Query(query) => query.request,
            _ => panic!("a query line"),
        }
    };
    assert_eq!(sweep(cap).validate(&g).unwrap().ks().len(), cap);
    let refused = TkError::BudgetExceeded {
        resource: "k values per request",
        limit: cap,
    };
    assert_eq!(sweep(cap + 1).validate(&g).unwrap_err(), refused);
    // Library requests are uncapped.
    assert!(QueryRequest::sweep(1..=cap + 1, 1, 5).validate(&g).is_ok());
}
