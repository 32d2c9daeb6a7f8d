//! The stack model: one property over operation sequences on the whole
//! serving stack, and named deterministic examples run through it.
//!
//! A case is a random base graph, a [`plan_for`] plan, a seal policy, a
//! service width and up to 12 operations on one [`CoreService`]: `Query`
//! (a single `k`, a set or a sweep; a random, cut-aligned, cut-crossing or
//! past-`tmax` window; count, sample, materialize or stream), `Append`,
//! `Seal`, `Warm` and `Clear`.  Every answer is checked in label space
//! against [`naive_results`] on a graph rebuilt from the events absorbed so
//! far (minimality is a property of the graph alone: the paper's
//! Definition 5 and Lemma 3), and a stream's order against per-query
//! `Enum`.  After each operation the model also checks that `with_view`
//! runs equal a fresh [`EdgeCoreSkyline::build`], that a past-`tmax`
//! window is refused before any build, that an append adds no builds to a
//! sealed shard and that a replayed query builds nothing.
//!
//! `over_tcp::stack_model` shares its name, hence its seed, with
//! `in_process::stack_model`: it replays the first cases with each query
//! sent to a [`TkServer`] over loopback.  Appends stay on `submit_append`,
//! as the wire has no append op.  `PROPTEST_SEED_OFFSET` explores other
//! sequences.

mod common;

use common::{
    connect, error_code, label_cores, parse_outcomes, plan_for, raw_graph, round_trip, serve, stop,
    Events, LabelCore, SharedSink,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use temporal_kcore::prelude::*;
use temporal_kcore::temporal_graph::EdgeId;
use temporal_kcore::tkcore::{naive_results, paper_example, wire};

#[derive(Debug, Clone, Copy, PartialEq)]
enum Output {
    Count,
    Sample(usize),
    Materialize,
    Stream,
}

#[derive(Debug, Clone)]
enum Op {
    /// `place` is `(kind, a, b)`, resolved by [`resolve`] when it runs.
    Query(KSelection, (u32, u32, u32), Output, Lane),
    /// `(u, v, dt)`: placed from the watermark on, `dt` after the last.
    Append(Vec<(u64, u64, u32)>),
    Seal,
    Warm(usize),
    Clear,
}

#[derive(Debug)]
struct Scenario {
    base: Events,
    plan: ShardPlan,
    seal: SealPolicy,
    workers: usize,
    /// `max_cores_per_reply` of the TCP run's server.
    wire_cap: usize,
    ops: Vec<Op>,
}

const CAPS: [usize; 4] = [0, 1, 3, 64];

fn arb_op() -> impl Strategy<Value = Op> {
    let ks = (0u8..3, 1usize..=3, 0usize..4).prop_map(|(sel, k, more)| match sel {
        0 => KSelection::Single(k),
        1 => KSelection::Set(vec![k, 1 + more]),
        _ => KSelection::Range {
            min: k,
            max: k + more,
        },
    });
    let output = (0usize..4, 0usize..4).prop_map(|(out, cap)| match out {
        0 => Output::Count,
        1 => Output::Sample(CAPS[cap]),
        2 => Output::Materialize,
        _ => Output::Stream,
    });
    let batch = prop::collection::vec((0u64..10, 0u64..10, 0u32..3), 1..5);
    let query = (ks, (0u32..4, 0u32..64, 0u32..12), output, 0u8..2);
    (0u8..16, query, batch).prop_map(|(kind, (ks, place, output, lane), batch)| {
        let lane = [Lane::Interactive, Lane::Batch][usize::from(lane)];
        match kind {
            0..=8 => Op::Query(ks, place, output, lane),
            9..=11 => Op::Append(batch),
            12 => Op::Seal,
            13 | 14 => Op::Warm(1 + place.0 as usize % 3),
            _ => Op::Clear,
        }
    })
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    let base = prop::collection::vec((0u64..8, 0u64..8, 1u32..=8), 1..30);
    let layout = ((0u8..5, 0usize..16), 0u8..3, 1usize..=2, 0usize..4);
    let ops = prop::collection::vec(arb_op(), 1..=12);
    (base, layout, ops).prop_filter_map("need a non-loop base edge", |(base, layout, ops)| {
        let ((kind, param), seal, workers, cap) = layout;
        let base: Events = base.into_iter().filter(|&(u, v, _)| u != v).collect();
        let plan = plan_for(kind, param, base.iter().map(|e| e.2).max()?);
        let seal = match seal {
            0 => SealPolicy::Manual,
            1 => SealPolicy::EdgeCount(4),
            _ => SealPolicy::SpanWidth(3),
        };
        let wire_cap = CAPS[cap];
        let scenario = Scenario {
            base,
            plan,
            seal,
            workers,
            wire_cap,
            ops,
        };
        Some(scenario)
    })
}

/// Raw `(start, end)` bounds on the live shards: random (the end may
/// overhang `tmax`), one shard's start to a later shard's end, up to two
/// ticks either side of a cut, past `tmax`, or (kind 4) exactly `[a, b]`.
fn resolve((kind, a, b): (u32, u32, u32), shards: &[TimeWindow], tmax: u32) -> (u32, u32) {
    let n = shards.len();
    match kind {
        0 => (1 + a % tmax, 1 + a % tmax + b),
        1 => {
            let (first, more) = (a as usize % n, b as usize);
            (
                shards[first].start(),
                shards[first + more % (n - first)].end(),
            )
        }
        2 if n == 1 => (1, tmax + b % 3),
        2 => {
            let (cut, reach) = (a as usize % (n - 1), b % 3);
            let start = shards[cut].end().saturating_sub(reach).max(1);
            (start, shards[cut + 1].start() + reach)
        }
        3 => (tmax + 1 + b % 3, tmax + 3 + b % 3),
        _ => (a, b),
    }
}

type Sample = Option<Vec<(TimeWindow, u64)>>;

/// One `k`'s answer: `k`, cores, result edges, the sample, and the
/// materialised or streamed cores in label space.
type Answer = (usize, u64, u64, Sample, Option<Vec<LabelCore>>);

/// A query's window, answers and (an in-process stream's) emitted cores,
/// or its error code.
type Asked = Result<(TimeWindow, Vec<Answer>, Vec<TemporalKCore>), String>;

/// On the TCP run: the connection to the server and the server's cap.
type Wire = (TcpStream, BufReader<TcpStream>, usize);

fn fail(err: impl std::fmt::Display) -> TestCaseError {
    TestCaseError::fail(err.to_string())
}

fn ask_in_process(service: &CoreService, request: QueryRequest, q: (Output, Lane)) -> Asked {
    let sink = Arc::new(Mutex::new(CollectingSink::default()));
    let request = match q.0 {
        Output::Count => request.count(),
        Output::Sample(cap) => request.sample(cap),
        Output::Materialize => request.materialize(),
        Output::Stream => request.stream(Box::new(SharedSink(Arc::clone(&sink)))),
    };
    let reply = match q.1 {
        Lane::Interactive => service.call(request, SubmitOptions::default()),
        Lane::Batch => {
            (service.submit_opts(request, SubmitOptions::batch())).and_then(Ticket::wait)
        }
    };
    let response = reply.map_err(|err| err.code().to_string())?.response;
    let graph = service.engine().graph();
    let labels = |cores: &[TemporalKCore]| {
        let label = |core| label_cores(&graph, std::slice::from_ref(core));
        Some(cores.iter().flat_map(label).collect())
    };
    let streamed = std::mem::take(&mut sink.lock().unwrap().cores);
    let mut rest = streamed.as_slice();
    let mut answers = Vec::new();
    for outcome in response.outcomes {
        let stats = outcome.stats;
        let cores = match outcome.output {
            KOutput::Cores(cores) => labels(&cores),
            KOutput::Counts(_) => None,
            KOutput::Streamed => {
                let (mine, later) = rest.split_at(stats.num_cores as usize);
                rest = later;
                labels(mine)
            }
        };
        let (k, sample) = (outcome.k, outcome.sample);
        answers.push((k, stats.num_cores, stats.total_result_edges, sample, cores));
    }
    Ok((response.window, answers, streamed))
}

fn ask_over_tcp(wire: &mut Wire, ks: &KSelection, bounds: (u32, u32), q: (Output, Lane)) -> Asked {
    let ks = match ks {
        KSelection::Single(k) => format!(r#""k":{k}"#),
        KSelection::Range { min, max } => format!(r#""k_min":{min},"k_max":{max}"#),
        KSelection::Set(_) => unreachable!("sets go over the wire as sweeps"),
    };
    let output = ["cores", "count"][usize::from(q.0 == Output::Count)];
    let (start, end, lane) = (bounds.0, bounds.1, q.1);
    let line =
        format!(r#"{{{ks},"start":{start},"end":{end},"lane":"{lane}","output":"{output}"}}"#);
    let reply = round_trip(&mut wire.0, &mut wire.1, &line);
    if let Some(code) = error_code(&reply) {
        return Err(code);
    }
    let json = wire::parse_json(&reply).expect("replies are JSON");
    let Some(wire::JsonValue::Array(window)) = json.get("window") else {
        panic!("an ok reply without a window: {reply}");
    };
    let at = |i: usize| window[i].as_u64().expect("integer bound") as u32;
    let tti = |(s, e, n): (u64, u64, u64)| (TimeWindow::new(s as u32, e as u32), n);
    let answers = parse_outcomes(&reply)
        .into_iter()
        .map(|(k, cores, edges, sample)| {
            let sample = sample.map(|entries| entries.into_iter().map(tti).collect());
            (k as usize, cores, edges, sample, None)
        });
    Ok((TimeWindow::new(at(0), at(1)), answers.collect(), Vec::new()))
}

/// Query-path builds so far: shard skylines and stitch entries.
fn builds(engine: &ShardedEngine) -> u64 {
    let stats = engine.cache_stats();
    stats.per_shard.iter().map(|s| s.builds).sum::<u64>() + stats.boundary.builds
}

/// The engine's view of `[start, end]` for `k` gives every edge the run a
/// fresh build for the clamped window gives it.
fn check_view(engine: &ShardedEngine, k: usize, bounds: (u32, u32)) -> Result<(), TestCaseError> {
    let live = engine.graph();
    let window = TimeWindow::new(bounds.0, bounds.1.min(live.tmax()));
    let built = EdgeCoreSkyline::build(&live, k, window);
    let same = |view: &WindowView<'_>| {
        let mut edges = 0..live.num_edges() as EdgeId;
        view.window() == window && edges.all(|id| view.windows(id) == built.windows(id))
    };
    let runs_match = engine
        .with_view(k, bounds.0, bounds.1, same)
        .map_err(fail)?;
    prop_assert!(
        runs_match,
        "with_view runs differ from a fresh build: k={} {}",
        k,
        window
    );
    Ok(())
}

/// Runs one query through the case's transport and checks it.
fn check_query(
    service: &CoreService,
    wire: &mut Option<Wire>,
    events: &Events,
    (ks, place, output, lane): (&KSelection, (u32, u32, u32), Output, Lane),
) -> Result<(), TestCaseError> {
    let engine = service.engine();
    let (live, reference) = (engine.graph(), raw_graph(events));
    prop_assert_eq!(live.tmax(), reference.tmax());
    let tmax = live.tmax();
    let (start, end) = resolve(place, &engine.shards(), tmax);
    // The wire has no `k` sets: a set goes as the sweep between its extremes.
    let ks = match (ks, &wire) {
        (KSelection::Set(set), Some(_)) => {
            let (min, max) = (*set.iter().min().unwrap(), *set.iter().max().unwrap());
            KSelection::Range { min, max }
        }
        (ks, _) => ks.clone(),
    };
    let (builds_before, misses_before) = (builds(engine), engine.cache_stats().misses);
    let asked = match wire {
        None => {
            let request = QueryRequest::with_selection(ks.clone(), start, end);
            ask_in_process(service, request, (output, lane))
        }
        Some(wire) => ask_over_tcp(wire, &ks, (start, end), (output, lane)),
    };
    let code = asked.as_ref().err().cloned();
    let mut want = match &ks {
        KSelection::Range { max, .. } if *max > live.num_vertices() => {
            prop_assert_eq!(code.as_deref(), Some("KOutOfRange"));
            return Ok(());
        }
        KSelection::Single(k) => vec![*k],
        KSelection::Set(set) => set.clone(),
        KSelection::Range { min, max } => (*min..=*max).collect(),
    };
    if start > tmax {
        prop_assert_eq!(code.as_deref(), Some("WindowPastTmax"));
        let refused = engine.with_view(1, start, end, |_| ());
        let past = matches!(refused, Err(TkError::WindowPastTmax { .. }));
        prop_assert!(past, "with_view answered a past-tmax window");
        let after = (builds(engine), engine.cache_stats().misses);
        prop_assert_eq!(
            after,
            (builds_before, misses_before),
            "a refused window built"
        );
        return Ok(());
    }
    let (window, answers, stream) = asked.map_err(fail)?;
    prop_assert_eq!(window, TimeWindow::new(start, end.min(tmax)));
    want.dedup(); // a set draws two `k`s, and runs a repeat once
    let got: Vec<usize> = answers.iter().map(|answer| answer.0).collect();
    prop_assert_eq!(&got, &want);
    let cap = match (output, &wire) {
        (Output::Count, _) => None,
        (_, Some(wire)) => Some(wire.2),
        (Output::Sample(cap), None) => Some(cap),
        _ => None,
    };
    for (k, cores, edges, sample, labelled) in answers {
        let expected = naive_results(&reference, k, window);
        let size = |core: &TemporalKCore| core.num_edges() as u64;
        let total = expected.iter().map(size).sum::<u64>();
        prop_assert_eq!(
            (cores, edges),
            (expected.len() as u64, total),
            "k={} {}",
            k,
            window
        );
        let first = |cap| {
            expected
                .iter()
                .take(cap)
                .map(|c| (c.tti, size(c)))
                .collect()
        };
        prop_assert_eq!(sample, cap.map(first), "k={} {}", k, window);
        if let Some(mut labelled) = labelled {
            if output == Output::Stream {
                labelled.sort();
            }
            let expected = label_cores(&reference, &expected);
            prop_assert_eq!(labelled, expected, "k={} {}", k, window);
        }
    }
    if output == Output::Stream && wire.is_none() {
        let mut per_query = CollectingSink::default();
        for &k in &want {
            let query = TimeRangeKCoreQuery::new(k, window).expect("k >= 1");
            query.run_with(&live, Algorithm::Enum, &mut per_query);
        }
        prop_assert_eq!(stream, per_query.cores, "stream order {}", window);
    }
    let before = builds(engine);
    let replay = QueryRequest::with_selection(ks, start, end);
    service
        .call(replay, SubmitOptions::default())
        .map_err(fail)?;
    prop_assert_eq!(builds(engine), before, "a replayed query built");
    want.iter()
        .try_for_each(|&k| check_view(engine, k, (start, end)))
}

fn apply(
    service: &CoreService,
    wire: &mut Option<Wire>,
    events: &mut Events,
    op: &Op,
) -> Result<(), TestCaseError> {
    let engine = service.engine();
    match op {
        Op::Query(ks, place, output, lane) => {
            return check_query(service, wire, events, (ks, *place, *output, *lane));
        }
        Op::Append(raw) => {
            let (mut t, mut batch) = (engine.watermark(), Vec::new());
            let key = |&(u, v, t): &IngestEvent| (u.min(v), u.max(v), t);
            for &(u, v, dt) in raw {
                t += dt;
                let taken = |e: &IngestEvent| key(e) == key(&(u, v, t));
                if u != v && !events.iter().chain(&batch).any(taken) {
                    batch.push((u, v, t));
                }
            }
            let sealed = engine.sealed_shards();
            let sealed_builds = || -> Vec<u64> {
                let per_shard = engine.cache_stats().per_shard;
                per_shard[..sealed].iter().map(|s| s.builds).collect()
            };
            let before = sealed_builds();
            let ticket = service.submit_append(batch.clone()).map_err(fail)?;
            let absorbed = ticket.wait().map_err(fail)?;
            prop_assert_eq!(absorbed.stats.appended, batch.len());
            events.extend(batch);
            prop_assert_eq!(sealed_builds(), before, "an append built on a sealed shard");
        }
        Op::Seal => {
            engine.seal_tail();
        }
        Op::Warm(k) => {
            engine.warm(*k);
            let before = builds(engine);
            prop_assert!(engine.warm(*k), "a second warm of k={} built", k);
            prop_assert_eq!(builds(engine), before, "a replayed warm built");
        }
        Op::Clear => {
            engine.clear_cache();
            let stats = engine.cache_stats();
            prop_assert_eq!(stats.resident_indexes + stats.boundary.resident_entries, 0);
        }
    }
    check_view(engine, 2, (1, engine.graph().tmax()))
}

/// Runs `scenario` on a fresh stack, its queries in process or over TCP.
fn run(scenario: &Scenario, over_tcp: bool) -> Result<(), TestCaseError> {
    let config = ServiceConfig {
        workers: scenario.workers,
        engine: EngineConfig {
            seal_policy: scenario.seal,
            ..EngineConfig::default()
        },
        ..ServiceConfig::default()
    };
    let graph = raw_graph(&scenario.base);
    let service = CoreService::start_sharded(graph, scenario.plan.clone(), config);
    let service = Arc::new(service.expect("derived plans are valid"));
    let server = over_tcp.then(|| {
        let config = ServerConfig {
            connection_workers: 1,
            wire: wire::WireConfig {
                max_cores_per_reply: scenario.wire_cap,
                ..wire::WireConfig::default()
            },
            ..ServerConfig::default()
        };
        serve(Arc::clone(&service), config)
    });
    let mut wire = server.as_ref().map(|(server, _)| {
        let (stream, reader) = connect(server.local_addr());
        (stream, reader, scenario.wire_cap)
    });
    let mut events = scenario.base.clone();
    let result = scenario.ops.iter().enumerate().try_for_each(|(i, op)| {
        let checked = apply(&service, &mut wire, &mut events, op);
        checked.map_err(|err| TestCaseError::fail(format!("op {i} {op:?}: {err}\n{scenario:?}")))
    });
    drop(wire);
    if let Some((server, acceptor)) = server {
        stop(&server, acceptor);
    }
    result
}

mod in_process {
    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        /// Every answer of the in-process stack matches the model.
        #[test]
        fn stack_model(scenario in arb_scenario()) {
            run(&scenario, false)?;
        }
    }
}

mod over_tcp {
    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// The first cases of `in_process::stack_model`, queried over TCP.
        #[test]
        fn stack_model(scenario in arb_scenario()) {
            run(&scenario, true)?;
        }
    }
}

/// The paper's running example (`tmax = 7`) under `plan`, running `ops`
/// on a 2-worker service with the wire's default sample cap.
fn paper_case(plan: ShardPlan, ops: Vec<Op>) -> Scenario {
    let g = paper_example::graph();
    let label = |id| (g.label(g.edge(id).u), g.label(g.edge(id).v), g.edge(id).t);
    let base = (0..g.num_edges() as EdgeId).map(label).collect();
    let (seal, workers, wire_cap) = (SealPolicy::Manual, 2, CAPS[3]);
    Scenario {
        base,
        plan,
        seal,
        workers,
        wire_cap,
        ops,
    }
}

/// Streams `k` 1 to 3 over exactly `[start, end]`.
fn stream_ks(start: u32, end: u32) -> Op {
    let ks = KSelection::Range { min: 1, max: 3 };
    Op::Query(ks, (4, start, end), Output::Stream, Lane::Interactive)
}

/// The paper example cut after timestamps 2 and 4: shards `[1,2] [3,4]
/// [5,7]`.
fn cut_engine() -> ShardedEngine {
    let cuts = ShardPlan::ExplicitCuts(vec![2, 4]);
    ShardedEngine::new(paper_example::graph(), cuts).unwrap()
}

/// Counts `(k, [start, end])` on `engine`.
fn count(engine: &ShardedEngine, k: usize, start: Timestamp, end: Timestamp) -> u64 {
    let request = QueryRequest::single(k, start, end);
    engine.execute(request).unwrap().total_cores()
}

#[test]
fn window_coinciding_with_a_shard_cut_needs_no_stitching() {
    let ops = vec![stream_ks(1, 2), stream_ks(3, 4)];
    let plan = ShardPlan::ExplicitCuts(vec![2, 4]);
    run(&paper_case(plan, ops), false).unwrap();
    // A window ending exactly at a cut never touches the following shard.
    let engine = cut_engine();
    count(&engine, 2, 3, 4);
    let stats = engine.cache_stats();
    let shard_builds: Vec<u64> = stats.per_shard.iter().map(|s| s.builds).collect();
    assert_eq!(shard_builds, [0, 1, 0]);
    assert_eq!(stats.boundary.builds, 0, "no cut crossed, no stitch entry");
}

#[test]
fn single_timestamp_shards_still_answer_spanning_windows() {
    let ops = vec![stream_ks(1, 7), stream_ks(4, 4), stream_ks(2, 6)];
    let case = paper_case(ShardPlan::FixedCount(7), ops);
    run(&case, false).unwrap();
    run(&case, true).unwrap();
}

#[test]
fn spanning_queries_stream_in_the_order_of_a_fresh_window_build() {
    // A spanning query enumerates its composed window skyline once, so the
    // unsorted stream equals `Enum` over a skyline built for the window.
    let ops = vec![stream_ks(1, 7), stream_ks(2, 6), stream_ks(1, 4)];
    run(&paper_case(ShardPlan::ExplicitCuts(vec![2, 4]), ops), false).unwrap();
}

#[test]
fn adjacent_pair_entries_are_keyed_per_shard_range() {
    let engine = cut_engine();
    // Spans the first cut only: entry (0, 1, k); the second cut only:
    // entry (1, 2, k); both cuts: entry (0, 2, k).
    for (start, end) in [(2, 3), (4, 5), (1, 7)] {
        count(&engine, 2, start, end);
    }
    let stats = engine.cache_stats();
    assert_eq!(stats.boundary.builds, 3, "{:?}", stats.boundary);
    assert_eq!(stats.boundary.resident_entries, 3, "{:?}", stats.boundary);
    // Each range reuses its own entry on repetition.
    count(&engine, 2, 2, 3);
    let stats = engine.cache_stats();
    assert_eq!(stats.boundary.builds, 3, "{:?}", stats.boundary);
    assert_eq!(stats.boundary.hits, 1, "{:?}", stats.boundary);
}

#[test]
fn stitch_entries_are_smaller_than_the_merged_skyline() {
    // The stitch entry stores only cut-crossing windows, so it must be no
    // larger than the merged-window skyline they belong to.
    let engine = cut_engine();
    count(&engine, 2, 1, 7);
    let merged = EdgeCoreSkyline::build(&paper_example::graph(), 2, TimeWindow::new(1, 7));
    let stats = engine.cache_stats();
    assert!(stats.boundary.resident_bytes <= merged.memory_bytes());
    assert!(stats.boundary.resident_bytes > 0, "{:?}", stats.boundary);
}

/// One concurrent-ingest batch: two vertex-disjoint triangles on
/// consecutive timestamps.  A `k = 2` query over the batch's two-timestamp
/// window can only legally observe the empty prefix or the whole batch.
fn triangle_batch(i: u64, t: Timestamp) -> Vec<IngestEvent> {
    let a = 100 + 10 * i;
    let b = a + 5;
    vec![
        (a, a + 1, t),
        (a + 1, a + 2, t),
        (a, a + 2, t),
        (b, b + 1, t + 1),
        (b + 1, b + 2, t + 1),
        (b, b + 2, t + 1),
    ]
}

/// Queries racing `submit_append` on a live service never observe a
/// partial batch: every reply over a batch's window is either the
/// pre-batch answer (empty, or a typed past-`tmax` refusal) or the
/// complete post-batch answer — never a strict subset of the batch.
#[test]
fn racing_queries_never_observe_a_partial_batch() {
    let base = paper_example::graph();
    let base_tmax = base.tmax();
    let num_batches = 6u64;

    let service = CoreService::start_sharded(
        base.clone(),
        ShardPlan::FixedCount(2),
        ServiceConfig {
            workers: 3,
            queue_depth: 256,
            ..ServiceConfig::default()
        },
    )
    .unwrap();

    // Per batch: the full-batch reference answer over its window, computed
    // on an offline rebuild (base + that batch; other batches are vertex-
    // and time-disjoint, so the window restriction excludes them).
    let mut expected_full = Vec::new();
    let mut batches = Vec::new();
    for i in 0..num_batches {
        let t = base_tmax + 1 + 2 * (i as u32);
        let batch = triangle_batch(i, t);
        let mut with_batch: Vec<(u64, u64, Timestamp)> = (0..base.num_edges())
            .map(|id| {
                let e = base.edge(id as temporal_graph::EdgeId);
                (base.label(e.u), base.label(e.v), e.t)
            })
            .collect();
        with_batch.extend_from_slice(&batch);
        let reference = TemporalGraphBuilder::new()
            .timestamp_mode(TimestampMode::Raw)
            .with_edges(with_batch.iter().map(|&(u, v, tt)| (u, v, i64::from(tt))))
            .build()
            .unwrap();
        let query = TimeRangeKCoreQuery::new(2, TimeWindow::new(t, t + 1)).unwrap();
        let mut sink = CollectingSink::default();
        query.run_with(&reference, Algorithm::Enum, &mut sink);
        let full = label_cores(&reference, &sink.cores);
        assert!(!full.is_empty(), "each batch must be visible to k = 2");
        expected_full.push((TimeWindow::new(t, t + 1), full));
        batches.push(batch);
    }

    // Race: enqueue each append, then immediately fire queries over every
    // batch window submitted so far — they execute on other workers while
    // the absorb runs.  Each ingest ticket is awaited before the next batch
    // goes in (the documented ordering contract: two workers could
    // otherwise absorb batches out of submission order and reject the
    // regressed ones).
    let mut appended = 0;
    let mut query_tickets = Vec::new();
    for (i, batch) in batches.iter().enumerate() {
        let ingest_ticket = service.submit_append(batch.clone()).unwrap();
        for (j, (window, _)) in expected_full.iter().enumerate().take(i + 1) {
            match service
                .submit(QueryRequest::single(2, window.start(), window.end()).materialize())
            {
                Ok(ticket) => query_tickets.push((j, ticket)),
                // The batch has not been absorbed yet, so the window is
                // past the live tmax: a typed refusal, i.e. the "none"
                // observation.
                Err(TkError::WindowPastTmax { .. }) => {}
                Err(other) => panic!("unexpected admission error: {other}"),
            }
        }
        let reply = ingest_ticket
            .wait()
            .expect("in-order batches absorb cleanly");
        appended += reply.stats.appended;
    }
    assert_eq!(appended, batches.iter().map(Vec::len).sum::<usize>());

    // Atomicity: every racing reply saw none of its batch or all of it.
    let live_graph = service.engine().graph();
    for (j, ticket) in query_tickets {
        match ticket.wait() {
            Ok(reply) => {
                let KOutput::Cores(cores) = &reply.response.outcomes[0].output else {
                    panic!("materialized request");
                };
                let got = label_cores(&live_graph, cores);
                assert!(
                    got.is_empty() || got == expected_full[j].1,
                    "partial batch observed for window {}: {got:?}",
                    expected_full[j].0
                );
            }
            // Validated against a pre-batch snapshot on the worker: still
            // the "none" observation.
            Err(TkError::WindowPastTmax { .. }) => {}
            Err(other) => panic!("unexpected query error: {other}"),
        }
    }

    // After the stream drains, every batch window serves its full answer.
    for (window, full) in &expected_full {
        let reply = service
            .submit(QueryRequest::single(2, window.start(), window.end()).materialize())
            .unwrap()
            .wait()
            .unwrap();
        let KOutput::Cores(cores) = &reply.response.outcomes[0].output else {
            panic!("materialized request");
        };
        assert_eq!(&label_cores(&live_graph, cores), full, "window {window}");
    }

    let stats = service.stats();
    assert_eq!(stats.ingest.submitted, num_batches);
    assert_eq!(stats.ingest.completed, num_batches);
    assert_eq!(stats.ingest.failed, 0);
    assert_eq!(stats.ingest.events_appended, appended as u64);
    service.shutdown();
}
