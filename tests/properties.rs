//! Property-based tests: the three enumeration algorithms agree with the
//! brute-force reference on randomized temporal graphs, and the framework's
//! structural invariants hold.

mod common;

use common::{arb_graph, canonical};
use proptest::prelude::*;
use temporal_kcore::temporal_graph::{EdgeId, TimeWindow};
use temporal_kcore::tkcore::{
    self, enumerate_base_from_graph, enumerate_from_graph, naive_results, run_otcd, Algorithm,
    CollectingSink, EdgeCoreSkyline, KOutput, QueryRequest, ShardPlan, ShardedEngine,
    TimeRangeKCoreQuery, VertexCoreTimeIndex,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The final algorithm, the skyline baseline and OTCD all produce exactly
    /// the naive reference's result set, for several values of k (`k = 1`,
    /// where every edge is its own core, included).
    #[test]
    fn all_algorithms_agree_with_naive(g in arb_graph(12, 50, 10), k in 1usize..4) {
        let range = g.span();
        let expected = naive_results(&g, k, range);

        let mut s1 = CollectingSink::default();
        enumerate_from_graph(&g, k, range, &mut s1);
        prop_assert_eq!(&canonical(s1.cores), &expected);

        let mut s2 = CollectingSink::default();
        enumerate_base_from_graph(&g, k, range, &mut s2);
        prop_assert_eq!(&canonical(s2.cores), &expected);

        let mut s3 = CollectingSink::default();
        run_otcd(&g, k, range, &mut s3);
        prop_assert_eq!(&canonical(s3.cores), &expected);
    }

    /// Results from sub-ranges of the span are also identical across
    /// algorithms (exercises range clamping and active-time bookkeeping).
    #[test]
    fn sub_range_queries_agree(g in arb_graph(10, 40, 8), k in 2usize..3, lo in 1u32..4, len in 0u32..6) {
        let start = lo.min(g.tmax());
        let end = (start + len).min(g.tmax()).max(start);
        let range = TimeWindow::new(start, end);
        let expected = naive_results(&g, k, range);

        let mut s1 = CollectingSink::default();
        enumerate_from_graph(&g, k, range, &mut s1);
        prop_assert_eq!(&canonical(s1.cores), &expected);

        let mut s3 = CollectingSink::default();
        run_otcd(&g, k, range, &mut s3);
        prop_assert_eq!(&canonical(s3.cores), &expected);
    }

    /// Per-query `Algorithm::execute` agrees with the naive reference for
    /// all four algorithms on random graphs and sub-ranges, and refuses
    /// malformed inputs with typed errors.  (The engine's answers are
    /// checked by the stack model, `tests/stack_model.rs`.)
    #[test]
    fn core_backends_agree_with_naive(
        g in arb_graph(12, 50, 10),
        k in 2usize..4,
        raw_lo in 1u32..10,
        raw_len in 0u32..10,
    ) {
        let lo = raw_lo.min(g.tmax());
        let range = TimeWindow::new(lo, (lo + raw_len).min(g.tmax()).max(lo));
        let expected = naive_results(&g, k, range);
        let past = TimeWindow::new(g.tmax() + 1, g.tmax() + 3);
        for algorithm in Algorithm::ALL {
            let mut sink = CollectingSink::default();
            let stats = algorithm
                .execute(&g, k, range, &mut sink)
                .expect("validated inputs execute");
            prop_assert_eq!(stats.num_cores as usize, expected.len(), "{}", algorithm);
            prop_assert_eq!(&canonical(sink.cores), &expected, "{}", algorithm);

            let mut sink = CollectingSink::default();
            let zero_k = matches!(
                algorithm.execute(&g, 0, range, &mut sink),
                Err(tkcore::TkError::KOutOfRange { k: 0 })
            );
            prop_assert!(zero_k, "k = 0 must be KOutOfRange");
            let past_tmax = matches!(
                algorithm.execute(&g, k, past, &mut sink),
                Err(tkcore::TkError::WindowPastTmax { .. })
            );
            prop_assert!(past_tmax, "past-tmax window must be WindowPastTmax");
        }
    }

    /// Every emitted core is a valid k-core, has a tight TTI contained in the
    /// query range, and no two cores share the same edge set.
    #[test]
    fn result_invariants(g in arb_graph(14, 60, 12), k in 2usize..4) {
        let range = g.span();
        let mut sink = CollectingSink::default();
        enumerate_from_graph(&g, k, range, &mut sink);
        let mut seen = std::collections::HashSet::new();
        for core in &sink.cores {
            prop_assert!(core.is_valid_k_core(&g, k));
            prop_assert!(core.tti_is_tight(&g));
            prop_assert!(range.contains_window(&core.tti));
            prop_assert!(seen.insert(core.edges.clone()), "duplicate edge set");
        }
    }

    /// Skyline invariants: windows of an edge strictly increase in both
    /// endpoints, contain the edge's timestamp, and lie within the range;
    /// moreover the edge really is in the k-core of each minimal window but
    /// not in the k-core of the two windows obtained by shrinking it.
    #[test]
    fn skyline_invariants(g in arb_graph(10, 40, 8), k in 2usize..3) {
        let range = g.span();
        let ecs = EdgeCoreSkyline::build(&g, k, range);
        for (edge, windows) in ecs.iter() {
            let t = g.edge(edge).t;
            for pair in windows.windows(2) {
                prop_assert!(pair[0].start() < pair[1].start());
                prop_assert!(pair[0].end() < pair[1].end());
            }
            for w in windows {
                prop_assert!(range.contains_window(w));
                prop_assert!(w.contains(t));
                prop_assert!(tkcore::naive::edge_in_core_of_window(&g, k, *w, edge));
                if w.start() < w.end() {
                    let shrunk_left = TimeWindow::new(w.start() + 1, w.end());
                    let shrunk_right = TimeWindow::new(w.start(), w.end() - 1);
                    prop_assert!(!tkcore::naive::edge_in_core_of_window(&g, k, shrunk_left, edge));
                    prop_assert!(!tkcore::naive::edge_in_core_of_window(&g, k, shrunk_right, edge));
                }
            }
        }
    }

    /// VCT invariant: the level sets of the index reproduce per-window core
    /// membership (vertex u is in the k-core of [ts, te] iff its core time
    /// for ts is at most te).
    #[test]
    fn vct_membership_matches_peeling(g in arb_graph(10, 36, 7), k in 1usize..5) {
        let range = g.span();
        let vct = VertexCoreTimeIndex::build(&g, k, range);
        for ts in range.start()..=range.end() {
            for te in ts..=range.end() {
                let window = TimeWindow::new(ts, te);
                let core_edges = tkcore::core_edges_of_window(&g, k, window);
                let mut in_core = vec![false; g.num_vertices()];
                for &e in &core_edges {
                    let edge = g.edge(e);
                    in_core[edge.u as usize] = true;
                    in_core[edge.v as usize] = true;
                }
                for u in 0..g.num_vertices() as u32 {
                    let predicted = vct.core_time(u, ts) <= te;
                    prop_assert_eq!(predicted, in_core[u as usize],
                        "u={} window={}", u, window);
                }
            }
        }
    }

    /// The total result size reported by the counting path equals the sum of
    /// the collected cores' edge counts.
    #[test]
    fn counting_equals_collecting(g in arb_graph(12, 50, 10), k in 2usize..3) {
        let range = g.span();
        let mut collecting = CollectingSink::default();
        let stats = enumerate_from_graph(&g, k, range, &mut collecting);
        let total: usize = collecting.cores.iter().map(|c| c.num_edges()).sum();
        prop_assert_eq!(stats.total_edges as usize, total);
        prop_assert_eq!(stats.num_cores as usize, collecting.cores.len());
        let edge_ids: Vec<EdgeId> = collecting.cores.iter().flat_map(|c| c.edges.clone()).collect();
        prop_assert!(edge_ids.iter().all(|&e| (e as usize) < g.num_edges()));
    }
}

/// Strategy: a random graph over 10 vertices whose raw timestamps run
/// `1..=tmax` with `tmax` in `150..=300` (an edge at `tmax` pins it), so its
/// windows are wider than one 64-bit word of `Enum`'s end-time bitset.  Its
/// 150 to 250 edges give 4-cores in windows of 64 timestamps while keeping
/// the whole span's result small enough for the baselines.
fn arb_wide_graph() -> impl Strategy<Value = temporal_kcore::temporal_graph::TemporalGraph> {
    (
        150u32..=300,
        prop::collection::vec((0u64..10, 0u64..10, 0u32..1_000), 150..250),
    )
        .prop_map(|(tmax, raw)| {
            let mut events: Vec<(u64, u64, u32)> = raw
                .into_iter()
                .filter(|&(u, v, _)| u != v)
                .map(|(u, v, t)| (u, v, 1 + t % tmax))
                .collect();
            events.push((0, 1, tmax));
            common::raw_graph(&events)
        })
}

/// Widths around the bitset's word boundaries, placed anywhere in the span.
const WIDE_WINDOW_WIDTHS: [u32; 5] = [63, 64, 65, 128, 129];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// On windows of 63 to 129 timestamps and the whole span, `Enum`'s
    /// cores equal `EnumBase`'s and `OTCD`'s, and one request's `Count`,
    /// `Sample(cap)` and `Materialize` outcomes agree through a sharded
    /// engine: the same counts, and the sample is the first `cap`
    /// materialised cores with their sizes.
    #[test]
    fn enum_agrees_on_windows_wider_than_one_bitset_word(
        g in arb_wide_graph(),
        offsets in prop::collection::vec(0u32..1_000, 5),
        cap in 0usize..40,
    ) {
        let mut windows: Vec<TimeWindow> = WIDE_WINDOW_WIDTHS
            .iter()
            .zip(&offsets)
            .map(|(&width, &offset)| {
                let start = 1 + offset % (g.tmax() - width + 1);
                TimeWindow::new(start, start + width - 1)
            })
            .collect();
        windows.push(g.span());
        let engine = ShardedEngine::new(g.clone(), ShardPlan::FixedCount(3)).expect("3 shards");
        for window in windows {
            for k in 2..=4 {
                let query = TimeRangeKCoreQuery::new(k, window).expect("k >= 2");
                let cores_of = |algorithm| {
                    let mut sink = CollectingSink::default();
                    query.run_with(&g, algorithm, &mut sink);
                    sink.into_sorted()
                };
                let expected = cores_of(Algorithm::Enum);
                prop_assert_eq!(&cores_of(Algorithm::EnumBase), &expected, "k={} {}", k, window);
                prop_assert_eq!(&cores_of(Algorithm::Otcd), &expected, "k={} {}", k, window);

                let run = |request: QueryRequest| {
                    engine
                        .execute(request)
                        .expect("in-span request")
                        .outcomes
                        .remove(0)
                };
                let request = || QueryRequest::single(k, window.start(), window.end());
                let KOutput::Cores(materialized) = run(request().materialize()).output else {
                    panic!("materialized request");
                };
                prop_assert_eq!(&materialized, &expected, "k={} {}", k, window);
                let KOutput::Counts(counts) = run(request().count()).output else {
                    panic!("count request");
                };
                let sampled = run(request().sample(cap));
                let KOutput::Counts(sample_counts) = sampled.output else {
                    panic!("sample request");
                };
                prop_assert_eq!(counts, sample_counts, "k={} {}", k, window);
                prop_assert_eq!(counts.num_cores, expected.len() as u64);
                let sizes = expected.iter().map(|core| core.num_edges() as u64);
                prop_assert_eq!(counts.total_edges, sizes.clone().sum::<u64>());
                prop_assert_eq!(counts.max_core_edges, sizes.max().unwrap_or(0));
                let first: Vec<(TimeWindow, u64)> = expected
                    .iter()
                    .take(cap)
                    .map(|core| (core.tti, core.num_edges() as u64))
                    .collect();
                prop_assert_eq!(sampled.sample, Some(first), "k={} {} cap={}", k, window, cap);
            }
        }
    }
}
