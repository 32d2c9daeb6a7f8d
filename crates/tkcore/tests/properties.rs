//! Property-based tests: the three enumeration algorithms agree with the
//! brute-force reference on randomized temporal graphs, and the framework's
//! structural invariants hold.

use proptest::prelude::*;
use std::sync::Arc;
use temporal_graph::{EdgeId, TemporalGraph, TemporalGraphBuilder, TimeWindow};
use tkcore::{
    enumerate_base_from_graph, enumerate_from_graph, naive_results, run_otcd, Algorithm,
    CollectingSink, CoreBackend, EdgeCoreSkyline, ShardPlan, ShardedBackend, ShardedEngine,
    TemporalKCore, TimeRangeKCoreQuery, VertexCoreTimeIndex,
};

/// Strategy: a random temporal graph with up to `max_v` vertices, up to
/// `max_e` edges and up to `max_t` distinct timestamps.
fn arb_graph(max_v: u64, max_e: usize, max_t: i64) -> impl Strategy<Value = TemporalGraph> {
    prop::collection::vec((0..max_v, 0..max_v, 1..=max_t), 1..max_e).prop_filter_map(
        "graph must have at least one non-loop edge",
        |edges| {
            let edges: Vec<(u64, u64, i64)> =
                edges.into_iter().filter(|(u, v, _)| u != v).collect();
            if edges.is_empty() {
                return None;
            }
            TemporalGraphBuilder::new().with_edges(edges).build().ok()
        },
    )
}

fn canonical(mut cores: Vec<TemporalKCore>) -> Vec<TemporalKCore> {
    cores.sort_by(|a, b| a.tti.cmp(&b.tti).then_with(|| a.edges.cmp(&b.edges)));
    cores
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The final algorithm, the skyline baseline and OTCD all produce exactly
    /// the naive reference's result set, for several values of k.
    #[test]
    fn all_algorithms_agree_with_naive(g in arb_graph(12, 50, 10), k in 2usize..4) {
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

    /// The unified `CoreBackend` surface agrees with the naive reference for
    /// all four algorithm backends plus the engine-cached backend (an
    /// unsharded `ShardedBackend`), on random graphs and sub-ranges.
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
        let engine = Arc::new(ShardedEngine::new(g.clone(), ShardPlan::Span).expect("span plan"));
        let backends: Vec<Box<dyn CoreBackend>> = vec![
            Box::new(Algorithm::Enum),
            Box::new(Algorithm::EnumBase),
            Box::new(Algorithm::Otcd),
            Box::new(Algorithm::Naive),
            Box::new(ShardedBackend::new(Arc::clone(&engine))),
        ];
        for backend in &backends {
            let mut sink = CollectingSink::default();
            let stats = backend
                .execute(&g, k, range, &mut sink)
                .expect("validated inputs execute");
            prop_assert_eq!(stats.num_cores as usize, expected.len(), "{}", backend.name());
            prop_assert_eq!(&canonical(sink.cores), &expected, "{}", backend.name());
        }
        // Malformed inputs are typed errors on every backend, never panics.
        for backend in &backends {
            let mut sink = CollectingSink::default();
            let zero_k = matches!(
                backend.execute(&g, 0, range, &mut sink),
                Err(tkcore::TkError::KOutOfRange { k: 0 })
            );
            prop_assert!(zero_k, "k = 0 must be KOutOfRange");
            let past = TimeWindow::new(g.tmax() + 1, g.tmax() + 3);
            let past_tmax = matches!(
                backend.execute(&g, k, past, &mut sink),
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
    fn vct_membership_matches_peeling(g in arb_graph(10, 36, 7), k in 2usize..3) {
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

    /// Query-engine equivalence: for random `(k, sub-range)` pairs and every
    /// algorithm, answers served from an unsharded engine's cached span-wide
    /// skyline (restricted to the sub-range) are identical — same cores, same
    /// `|R|`, same canonical order — to per-query execution, whose skyline is
    /// freshly built for that sub-range.
    #[test]
    fn engine_restriction_matches_fresh_build(
        g in arb_graph(12, 50, 10),
        k in 2usize..4,
        raw_lo in 1u32..12,
        raw_len in 0u32..12,
    ) {
        let lo = raw_lo.min(g.tmax());
        let range = TimeWindow::new(lo, (lo + raw_len).min(g.tmax()).max(lo));
        let engine = ShardedEngine::new(g.clone(), ShardPlan::Span).expect("span plan");
        let query = TimeRangeKCoreQuery::new(k, range).expect("k >= 2");
        for algorithm in Algorithm::ALL {
            let mut fresh = CollectingSink::default();
            let fresh_stats = query.run_with(&g, algorithm, &mut fresh);
            let mut cached = CollectingSink::default();
            let cached_stats = engine
                .run_with(&query, algorithm, &mut cached)
                .expect("in-span query");
            prop_assert_eq!(cached_stats.num_cores, fresh_stats.num_cores,
                "{} k={} range={}", algorithm.name(), k, range);
            prop_assert_eq!(cached_stats.total_result_edges, fresh_stats.total_result_edges,
                "{} k={} range={}", algorithm.name(), k, range);
            prop_assert_eq!(&canonical(cached.cores), &canonical(fresh.cores),
                "{} k={} range={}", algorithm.name(), k, range);
        }
        // The skyline-based algorithms shared one span-wide index.
        let stats = engine.cache_stats();
        prop_assert_eq!(stats.misses, 1, "cache misses: {:?}", stats);
        prop_assert!(stats.hits >= 1, "cache hits: {:?}", stats);
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
