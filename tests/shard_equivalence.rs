//! The cross-shard correctness harness: a `ShardedEngine` under any shard
//! plan — the unsharded `ShardPlan::Span` included — must answer every query
//! exactly like per-query execution of the algorithms themselves.
//!
//! Layers of evidence:
//!
//! * `sharded_matches_unsharded` — random graphs, random shard plans
//!   (including the span and one-shard-per-timestamp layouts) and all four
//!   algorithms: every `(k, window)` query returns the naive oracle's cores,
//!   and the skyline-based algorithms stream exactly the sequence a fresh
//!   per-query build emits.  The `ShardedBackend` surface agrees too;
//! * `stitched_equals_the_naive_oracle_and_replays_from_cache` — boundary
//!   stitching specifically: random plans biased toward many cuts, and a
//!   warm replay answered from the stitch cache without new builds;
//! * `affine_service_matches_unsharded` — the same answers through a
//!   shard-affinity multi-worker `CoreService` (per-shard lanes, stealing);
//! * deterministic cases on the paper's running example: windows that
//!   coincide with a cut, span one cut, span every cut, start past `tmax`
//!   (a typed `WindowPastTmax` refusal, never a partial answer), the
//!   stitch-cache keying and reuse, and the emission order of a spanning
//!   query.

mod common;

use common::{arb_graph, canonical, plan_for, window_in_span};
use proptest::prelude::*;
use std::sync::Arc;
use temporal_kcore::prelude::*;
use temporal_kcore::temporal_graph::EdgeId;
use temporal_kcore::tkcore::{naive_results, paper_example};

/// The full span plus a random sub-window of it (deduplicated).
fn windows_for(g: &TemporalGraph, raw_start: u32, raw_len: u32) -> Vec<TimeWindow> {
    let random = window_in_span(g, raw_start, raw_len);
    let mut windows = vec![g.span()];
    if random != g.span() {
        windows.push(random);
    }
    windows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For random graphs, random shard plans and every algorithm, every
    /// `(k, window)` query through the `ShardedEngine` returns the naive
    /// oracle's cores, and `Enum`/`EnumBase` emit them in exactly the order
    /// a skyline freshly built for the window does.
    #[test]
    fn sharded_matches_unsharded(
        g in arb_graph(10, 40, 8),
        k in 1usize..4,
        (kind, param) in (0u8..5, 0usize..16),
        (raw_start, raw_len) in (1u32..=8, 0u32..8),
    ) {
        let plan = plan_for(kind, param, g.tmax());
        let sharded = ShardedEngine::new(g.clone(), plan.clone())
            .expect("derived plans are valid");

        for window in windows_for(&g, raw_start, raw_len) {
            let query = TimeRangeKCoreQuery::new(k, window).expect("k >= 1");
            let oracle = naive_results(&g, k, window);
            for algo in Algorithm::ALL {
                let mut fresh = CollectingSink::default();
                query.run_with(&g, algo, &mut fresh);
                let mut got = CollectingSink::default();
                sharded.run_with(&query, algo, &mut got)
                    .expect("window is inside the span");
                if matches!(algo, Algorithm::Enum | Algorithm::EnumBase) {
                    prop_assert_eq!(
                        &got.cores, &fresh.cores,
                        "emission order: {:?} k={} window={} algo={}",
                        plan, k, window, algo
                    );
                }
                prop_assert_eq!(
                    canonical(got.cores),
                    oracle.clone(),
                    "{:?} k={} window={} algo={}",
                    plan, k, window, algo
                );
            }
        }

        // The backend wrapper (the surface the request/serving layers
        // drive) agrees with per-query execution as well.
        let sharded = Arc::new(sharded);
        let backend = ShardedBackend::new(Arc::clone(&sharded));
        let mut a = CollectingSink::default();
        let stats_a = Algorithm::Enum
            .execute(&g, k, g.span(), &mut a)
            .expect("span query is valid");
        let mut b = CollectingSink::default();
        let stats_b = backend
            .execute(&sharded.graph(), k, g.span(), &mut b)
            .expect("span query is valid");
        prop_assert_eq!(canonical(a.cores), canonical(b.cores), "{:?} k={}", plan, k);
        prop_assert_eq!(stats_a.num_cores, stats_b.num_cores);
        prop_assert_eq!(stats_a.total_result_edges, stats_b.total_result_edges);
    }

    /// Boundary stitching under plans with cuts (the span plan has none):
    /// cached cut-crossing windows composed with restricted shard skylines
    /// reproduce the naive oracle for every algorithm, and replaying a
    /// spanning query answers from the stitch cache without new builds.
    #[test]
    fn stitched_equals_the_naive_oracle_and_replays_from_cache(
        g in arb_graph(10, 40, 8),
        k in 1usize..4,
        (kind, param) in (1u8..5, 0usize..16),
        (raw_start, raw_len) in (1u32..=8, 0u32..8),
    ) {
        let plan = plan_for(kind, param, g.tmax());
        let stitched = ShardedEngine::new(g.clone(), plan.clone())
            .expect("derived plans are valid");
        for window in windows_for(&g, raw_start, raw_len) {
            let query = TimeRangeKCoreQuery::new(k, window).expect("k >= 1");
            let oracle = naive_results(&g, k, window);
            for algo in Algorithm::ALL {
                let mut via_stitch = CollectingSink::default();
                stitched.run_with(&query, algo, &mut via_stitch)
                    .expect("window is inside the span");
                prop_assert_eq!(
                    canonical(via_stitch.cores),
                    oracle.clone(),
                    "{:?} k={} window={} algo={}",
                    plan, k, window, algo
                );
            }
        }

        // Replaying the span query must be pure cache reuse.
        let builds_after_first_pass = stitched.cache_stats().boundary.builds;
        let query = TimeRangeKCoreQuery::new(k, g.span()).expect("k >= 1");
        let mut replay = CollectingSink::default();
        stitched.run(&query, &mut replay).expect("span query is valid");
        let stats = stitched.cache_stats();
        prop_assert_eq!(
            stats.boundary.builds, builds_after_first_pass,
            "warm replay must not rebuild stitch entries: {:?}", stats.boundary
        );
    }

    /// The shard-affinity scheduler (per-shard lanes + work stealing) never
    /// changes answers: a 2-worker `Affinity::Shard` service returns the
    /// same cores as per-query execution for random graphs, plans and
    /// windows.
    #[test]
    fn affine_service_matches_unsharded(
        g in arb_graph(10, 40, 8),
        k in 1usize..4,
        (kind, param) in (0u8..5, 0usize..16),
        (raw_start, raw_len) in (1u32..=8, 0u32..8),
    ) {
        let plan = plan_for(kind, param, g.tmax());
        let sharded = Arc::new(
            ShardedEngine::new(g.clone(), plan.clone()).expect("derived plans are valid"),
        );
        let service = CoreService::over_sharded(
            Arc::clone(&sharded),
            ServiceConfig {
                workers: 2,
                affinity: Affinity::Shard,
                ..ServiceConfig::default()
            },
        );

        for window in [g.span(), window_in_span(&g, raw_start, raw_len)] {
            let query = TimeRangeKCoreQuery::new(k, window).expect("k >= 1");
            let mut expected = CollectingSink::default();
            query.run_with(&g, Algorithm::Enum, &mut expected);
            let reply = service
                .submit(
                    QueryRequest::single(k, window.start(), window.end()).materialize(),
                )
                .expect("valid request is admitted")
                .wait()
                .expect("request completes");
            let KOutput::Cores(cores) = &reply.response.outcomes[0].output else {
                panic!("materialized request");
            };
            prop_assert_eq!(
                canonical(cores.clone()),
                canonical(expected.cores),
                "{:?} k={} window={}",
                plan, k, window
            );
        }
        service.shutdown();
    }
}

/// The boundary fixture: paper-example graph (`tmax = 7`) cut after
/// timestamps 2 and 4, giving shards `[1,2] [3,4] [5,7]`.
fn boundary_fixture() -> (TemporalGraph, ShardedEngine) {
    let g = paper_example::graph();
    let engine = ShardedEngine::new(g.clone(), ShardPlan::ExplicitCuts(vec![2, 4]))
        .expect("cuts are inside the span");
    assert_eq!(
        engine.shards(),
        &[
            TimeWindow::new(1, 2),
            TimeWindow::new(3, 4),
            TimeWindow::new(5, 7)
        ]
    );
    (g, engine)
}

fn assert_window_matches_span_wide(g: &TemporalGraph, engine: &ShardedEngine, window: TimeWindow) {
    for k in 1..=3 {
        let query = TimeRangeKCoreQuery::new(k, window).unwrap();
        for algo in Algorithm::ALL {
            let mut expected = CollectingSink::default();
            query.run_with(g, algo, &mut expected);
            let mut got = CollectingSink::default();
            let stats = engine.run_with(&query, algo, &mut got).unwrap();
            assert_eq!(
                canonical(got.cores.clone()),
                canonical(expected.cores.clone()),
                "k={k} window={window} algo={algo}"
            );
            assert_eq!(stats.num_cores as usize, expected.cores.len());
        }
    }
}

#[test]
fn window_coinciding_with_a_shard_cut_needs_no_stitching() {
    let (g, engine) = boundary_fixture();
    // Both windows align exactly with shard boundaries.
    assert_window_matches_span_wide(&g, &engine, TimeWindow::new(1, 2));
    assert_window_matches_span_wide(&g, &engine, TimeWindow::new(3, 4));
    // A window ending exactly at a cut never touches the following shard
    // (fresh engine: build counters are cumulative).
    let (_, engine) = boundary_fixture();
    let mut sink = CountingSink::default();
    engine
        .run(
            &TimeRangeKCoreQuery::new(2, TimeWindow::new(3, 4)).unwrap(),
            &mut sink,
        )
        .unwrap();
    let stats = engine.cache_stats();
    assert_eq!(stats.per_shard[0].builds + stats.per_shard[2].builds, 0);
    assert_eq!(stats.per_shard[1].builds, 1);
    assert_eq!(stats.boundary.builds, 0, "no cut crossed, no stitch entry");
}

#[test]
fn window_spanning_one_cut_is_stitched_exactly() {
    let (g, engine) = boundary_fixture();
    // [2, 4] crosses only the cut after 2; [4, 6] only the cut after 4.
    assert_window_matches_span_wide(&g, &engine, TimeWindow::new(2, 4));
    assert_window_matches_span_wide(&g, &engine, TimeWindow::new(4, 6));
}

#[test]
fn window_spanning_all_cuts_is_stitched_exactly() {
    let (g, engine) = boundary_fixture();
    assert_window_matches_span_wide(&g, &engine, g.span());
    assert_window_matches_span_wide(&g, &engine, TimeWindow::new(2, 6));
}

#[test]
fn window_past_tmax_is_refused_not_answered_from_the_last_shard() {
    let (g, engine) = boundary_fixture();
    let past = TimeRangeKCoreQuery::new(2, TimeWindow::new(g.tmax() + 1, g.tmax() + 5)).unwrap();
    for algo in Algorithm::ALL {
        let mut sink = CountingSink::default();
        let err = engine.run_with(&past, algo, &mut sink).unwrap_err();
        assert!(
            matches!(err, TkError::WindowPastTmax { start, tmax }
                if start == g.tmax() + 1 && tmax == g.tmax()),
            "{algo}: {err}"
        );
        assert_eq!(sink.num_cores, 0, "{algo}: no partial answer");
    }
    // The refusal happened before any shard skyline was built.
    assert_eq!(engine.cache_stats().misses, 0);

    // Same refusal through the backend/request surface.
    let backend = ShardedBackend::new(Arc::new(engine));
    assert!(matches!(
        QueryRequest::single(2, g.tmax() + 1, g.tmax() + 5).run(&g, &backend),
        Err(TkError::WindowPastTmax { .. })
    ));
}

#[test]
fn single_timestamp_shards_still_answer_spanning_windows() {
    let g = paper_example::graph();
    let engine = ShardedEngine::new(g.clone(), ShardPlan::FixedCount(g.tmax() as usize)).unwrap();
    assert_eq!(engine.num_shards(), g.tmax() as usize);
    assert_window_matches_span_wide(&g, &engine, g.span());
    assert_window_matches_span_wide(&g, &engine, TimeWindow::new(4, 4));
}

/// Records every emitted core in emission order.
#[derive(Default)]
struct Recorder(Vec<(TimeWindow, Vec<EdgeId>)>);

impl ResultSink for Recorder {
    fn emit(&mut self, tti: TimeWindow, edges: &[EdgeId]) {
        self.0.push((tti, edges.to_vec()));
    }
}

#[test]
fn spanning_queries_stream_in_the_order_of_a_fresh_window_build() {
    // A spanning query enumerates its composed window skyline once, so the
    // unsorted stream equals `Enum` over a skyline built for the window.
    let (g, engine) = boundary_fixture();
    for window in [g.span(), TimeWindow::new(2, 6), TimeWindow::new(1, 4)] {
        assert!(engine.overlapping_shards(window).len() > 1, "{window}");
        for k in 1..=3 {
            let mut expected = Recorder::default();
            let expected_stats = Algorithm::Enum
                .execute(&g, k, window, &mut expected)
                .unwrap();
            let mut got = Recorder::default();
            let stats = engine
                .run_with(
                    &TimeRangeKCoreQuery::new(k, window).unwrap(),
                    Algorithm::Enum,
                    &mut got,
                )
                .unwrap();
            assert_eq!(got.0, expected.0, "k={k} window={window}");
            assert_eq!(stats.num_cores, expected_stats.num_cores);
            assert_eq!(stats.total_result_edges, expected_stats.total_result_edges);
        }
    }
}

#[test]
fn adjacent_pair_entries_are_keyed_per_shard_range() {
    let (_, engine) = boundary_fixture();
    let mut sink = CountingSink::default();
    // Spans the first cut only: entry (0, 1, k); the second cut only:
    // entry (1, 2, k); both cuts: entry (0, 2, k).
    for (start, end) in [(2, 3), (4, 5), (1, 7)] {
        engine
            .run(
                &TimeRangeKCoreQuery::new(2, TimeWindow::new(start, end)).unwrap(),
                &mut sink,
            )
            .unwrap();
    }
    let stats = engine.cache_stats();
    assert_eq!(stats.boundary.builds, 3, "{:?}", stats.boundary);
    assert_eq!(stats.boundary.resident_entries, 3, "{:?}", stats.boundary);
    // Each range reuses its own entry on repetition.
    engine
        .run(
            &TimeRangeKCoreQuery::new(2, TimeWindow::new(2, 3)).unwrap(),
            &mut sink,
        )
        .unwrap();
    let stats = engine.cache_stats();
    assert_eq!(stats.boundary.builds, 3, "{:?}", stats.boundary);
    assert_eq!(stats.boundary.hits, 1, "{:?}", stats.boundary);
}

#[test]
fn stitch_entries_are_smaller_than_the_merged_skyline() {
    // The stitch entry stores only cut-crossing windows, so it must be no
    // larger than the merged-window skyline it was filtered from.
    let (g, engine) = boundary_fixture();
    let mut sink = CountingSink::default();
    engine
        .run(&TimeRangeKCoreQuery::new(2, g.span()).unwrap(), &mut sink)
        .unwrap();
    let merged = EdgeCoreSkyline::build(&g, 2, g.span());
    let stats = engine.cache_stats();
    assert!(stats.boundary.resident_bytes <= merged.memory_bytes());
    assert!(stats.boundary.resident_bytes > 0, "{:?}", stats.boundary);
}

#[test]
fn warm_spanning_queries_skip_the_merged_sweep_entirely() {
    // After warming shards and the stitch entry, a spanning query touches
    // only caches: shard hits grow, builds and stitch builds do not.
    let (_, engine) = boundary_fixture();
    let query = TimeRangeKCoreQuery::new(2, TimeWindow::new(2, 6)).unwrap();
    let mut sink = CountingSink::default();
    engine.run(&query, &mut sink).unwrap();
    let cold = engine.cache_stats();
    let mut sink = CountingSink::default();
    engine.run(&query, &mut sink).unwrap();
    let warm = engine.cache_stats();
    assert_eq!(warm.boundary.builds, cold.boundary.builds);
    assert_eq!(warm.boundary.hits, cold.boundary.hits + 1);
    let cold_builds: u64 = cold.per_shard.iter().map(|s| s.builds).sum();
    let warm_builds: u64 = warm.per_shard.iter().map(|s| s.builds).sum();
    assert_eq!(warm_builds, cold_builds, "no shard rebuilt on the warm run");
    assert!(warm.hits > cold.hits, "shard skylines answered from cache");
}
