//! Correctness harness for the flat (CSR) skyline storage: every result
//! obtainable from the contiguous `offsets`/`flat` layout must be identical
//! to one computed through a naive nested-`Vec` reference implementation
//! that knows nothing about the flat encoding.
//!
//! Four layers of evidence:
//!
//! * `csr_build_matches_the_nested_reference` — `EdgeCoreSkyline::build`'s
//!   `iter()`/`windows()` output equals a brute-force per-edge minimal-window
//!   table (`NestedSkyline`) derived from the `naive` peeling oracle, over
//!   random graphs, random `k` and random query ranges;
//! * `csr_restrict_matches_the_nested_reference` — `restrict` /
//!   `restrict_with` (including repeated calls through one recycled
//!   `SkylineScratch`, the zero-alloc hot path) equals the reference's
//!   containment filter *and* a from-scratch rebuild on the sub-range;
//! * `window_views_match_fresh_builds_and_the_oracle_on_every_plan` — under
//!   every shard plan, the engine's `WindowView` of a window inside one
//!   shard, across one cut, across two or more cuts, ending on a cut or
//!   overhanging `tmax` gives every edge exactly the run a fresh build for
//!   the window does, and the engine answers those windows exactly as the
//!   brute-force enumeration for all four algorithms (and `Enum` in the
//!   order of a per-query run);
//! * `absorb_plus_tail_rebuild_yields_identical_flat_skylines` — after
//!   absorbing an append stream, the flat skylines built over the live
//!   snapshot equal (in label space) those built over a from-scratch graph
//!   of the same events, per shard range and over the full span.

mod common;

use std::collections::BTreeMap;

use common::{
    arb_base_and_stream, arb_graph, canonical, plan_for, raw_graph, streamed, window_in_span,
};
use proptest::prelude::*;
use temporal_kcore::prelude::*;
use temporal_kcore::temporal_graph::EdgeId;
use temporal_kcore::tkcore::naive;
use temporal_kcore::tkcore::SkylineScratch;

/// The naive reference: per-edge minimal core windows held in a plain
/// nested map, built by brute force against the peeling oracle.  No offsets,
/// no flat array — only containment logic.
#[derive(Debug, Clone, PartialEq, Eq)]
struct NestedSkyline {
    range: TimeWindow,
    per_edge: BTreeMap<EdgeId, Vec<TimeWindow>>,
}

impl NestedSkyline {
    /// Brute force: for every edge and every window start in `range`, find
    /// the smallest end whose window's k-core contains the edge, then drop
    /// every window that strictly contains another kept window.  Minimality
    /// by containment is exactly Definition 5, computed with no knowledge of
    /// the sweep or the CSR layout.
    fn build(graph: &TemporalGraph, k: usize, range: TimeWindow) -> Self {
        let mut per_edge = BTreeMap::new();
        for id in 0..graph.num_edges() as EdgeId {
            let mut candidates: Vec<TimeWindow> = Vec::new();
            for ts in range.start()..=range.end() {
                let found = (ts..=range.end()).find(|&te| {
                    naive::edge_in_core_of_window(graph, k, TimeWindow::new(ts, te), id)
                });
                if let Some(te) = found {
                    candidates.push(TimeWindow::new(ts, te));
                }
            }
            let minimal: Vec<TimeWindow> = candidates
                .iter()
                .copied()
                .filter(|w| !candidates.iter().any(|o| o != w && w.contains_window(o)))
                .collect();
            if !minimal.is_empty() {
                per_edge.insert(id, minimal);
            }
        }
        Self { range, per_edge }
    }

    /// The reference restriction: the containment filter `{ w : w ⊆ range }`
    /// applied per edge, dropping edges left without windows.
    fn restrict(&self, range: TimeWindow) -> Self {
        assert!(self.range.contains_window(&range));
        let per_edge = self
            .per_edge
            .iter()
            .filter_map(|(&id, windows)| {
                let kept: Vec<TimeWindow> = windows
                    .iter()
                    .copied()
                    .filter(|w| range.contains_window(w))
                    .collect();
                (!kept.is_empty()).then_some((id, kept))
            })
            .collect();
        Self { range, per_edge }
    }
}

/// Flattens a CSR skyline back into the nested shape for comparison, and
/// cross-checks `iter()` against `windows()` plus the summary accessors
/// while doing so.
fn nested_view(skyline: &EdgeCoreSkyline) -> BTreeMap<EdgeId, Vec<TimeWindow>> {
    let mut out = BTreeMap::new();
    let mut total = 0usize;
    for (id, windows) in skyline.iter() {
        assert!(!windows.is_empty(), "iter() must skip window-less edges");
        assert_eq!(
            windows,
            skyline.windows(id),
            "iter() and windows() disagree for edge {id}"
        );
        total += windows.len();
        out.insert(id, windows.to_vec());
    }
    assert_eq!(skyline.total_windows(), total);
    assert_eq!(skyline.num_edges_with_windows(), out.len());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The CSR build equals the brute-force nested reference, over the full
    /// span and a random sub-range.
    #[test]
    fn csr_build_matches_the_nested_reference(
        g in arb_graph(8, 24, 6),
        k in 1usize..4,
        (raw_start, raw_len) in (1u32..=6, 0u32..6),
    ) {
        for range in [g.span(), window_in_span(&g, raw_start, raw_len)] {
            let skyline = EdgeCoreSkyline::build(&g, k, range);
            prop_assert_eq!(skyline.range(), range);
            prop_assert_eq!(skyline.k(), k);
            let reference = NestedSkyline::build(&g, k, range);
            prop_assert_eq!(
                nested_view(&skyline),
                reference.per_edge,
                "k={} range={}",
                k,
                range
            );
        }
    }

    /// `restrict` / `restrict_with` equal the reference containment filter
    /// and a from-scratch rebuild — including repeated restrictions drawing
    /// their buffers from one recycled scratch pool, the allocation-free
    /// path the engines use per query.
    #[test]
    fn csr_restrict_matches_the_nested_reference(
        g in arb_graph(8, 24, 6),
        k in 1usize..4,
        (raw_start, raw_len) in (1u32..=6, 0u32..6),
        (raw_start2, raw_len2) in (1u32..=6, 0u32..6),
    ) {
        let full = EdgeCoreSkyline::build(&g, k, g.span());
        let reference = NestedSkyline::build(&g, k, g.span());
        let mut scratch = SkylineScratch::default();
        for range in [
            window_in_span(&g, raw_start, raw_len),
            window_in_span(&g, raw_start2, raw_len2),
            g.span(),
        ] {
            let restricted = full.restrict(&g, range);
            let via_scratch = full.restrict_with(&g, range, &mut scratch);
            let expected = reference.restrict(range).per_edge;
            prop_assert_eq!(&nested_view(&restricted), &expected, "restrict {}", range);
            prop_assert_eq!(&nested_view(&via_scratch), &expected, "restrict_with {}", range);
            prop_assert_eq!(
                nested_view(&EdgeCoreSkyline::build(&g, k, range)),
                expected,
                "rebuild {}",
                range
            );
            scratch.recycle(via_scratch);
        }
    }

    /// Under every plan `plan_for` derives, the engine's view of each
    /// window of `windows_over` holds, for every edge, the run a fresh
    /// build for the window gives it, and every algorithm on the engine
    /// matches the naive oracle.  A window starting past `tmax` is refused.
    #[test]
    fn window_views_match_fresh_builds_and_the_oracle_on_every_plan(
        g in arb_graph(8, 24, 6),
        k in 1usize..4,
        param in 0usize..16,
        (raw_start, raw_len) in (1u32..=6, 0u32..6),
    ) {
        let tmax = g.tmax();
        for kind in 0..5 {
            let plan = plan_for(kind, param, tmax);
            let engine = ShardedEngine::new(g.clone(), plan.clone())
                .expect("derived plans are valid");
            let random = window_in_span(&g, raw_start, raw_len);
            for (start, end) in windows_over(&engine.shards(), tmax, random) {
                let window = TimeWindow::new(start, end.min(tmax));
                let built = EdgeCoreSkyline::build(&g, k, window);
                let runs_match = engine
                    .with_view(k, start, end, |view| {
                        view.window() == window
                            && (0..g.num_edges() as EdgeId)
                                .all(|id| view.windows(id) == built.windows(id))
                    })
                    .expect("window starts inside the span");
                prop_assert!(runs_match, "plan={:?} k={} window={}", plan, k, window);

                let query = TimeRangeKCoreQuery::new(k, window).expect("k >= 1");
                let mut per_query = CollectingSink::default();
                query.run_with(&g, Algorithm::Enum, &mut per_query);
                let (streamed_enum, _) = streamed(&engine, query, Algorithm::Enum)
                    .expect("window is inside the span");
                prop_assert_eq!(streamed_enum, per_query.cores, "stream order, window={}", window);
                let expected = canonical(naive::naive_results(&g, k, window));
                for algo in Algorithm::ALL {
                    let (got, _) = streamed(&engine, query, algo)
                        .expect("window is inside the span");
                    prop_assert_eq!(
                        canonical(got),
                        expected.clone(),
                        "plan={:?} k={} window={} algo={}",
                        plan, k, window, algo
                    );
                }
            }
            let past = engine.with_view(k, tmax + 1, tmax + 2, |_| ());
            prop_assert!(
                matches!(past, Err(TkError::WindowPastTmax { .. })),
                "plan={:?}: {:?}",
                plan,
                past
            );
        }
    }
}

/// Windows placed every way a query window can sit on `shards` (in
/// timeline order, covering `[1, tmax]`), as raw `(start, end)` bounds:
/// `random`, the whole span overhanging `tmax`, one tick inside the first
/// shard, the first shard exactly (ending on a cut, or on `tmax` when
/// there is no cut), the ticks on either side of the first cut, from just
/// after that cut to past `tmax`, and across the first two cuts.
fn windows_over(
    shards: &[TimeWindow],
    tmax: Timestamp,
    random: TimeWindow,
) -> Vec<(Timestamp, Timestamp)> {
    let first = shards[0];
    let mut out = vec![
        (random.start(), random.end()),
        (1, tmax + 3),
        (first.start(), first.start()),
        (first.start(), first.end()),
    ];
    if let [a, b, rest @ ..] = shards {
        out.push((a.end(), b.start()));
        out.push((b.start(), tmax + 1));
        if let Some(c) = rest.first() {
            out.push((a.end(), c.start()));
        }
    }
    out
}

/// Projects a skyline into label space: vertex ids differ between an
/// appended graph (first-seen order) and a from-scratch rebuild (sorted
/// label order), but `(labels, timestamp) → windows` must agree exactly.
fn label_windows(
    g: &TemporalGraph,
    skyline: &EdgeCoreSkyline,
) -> Vec<((u64, u64, Timestamp), Vec<TimeWindow>)> {
    let mut out: Vec<((u64, u64, Timestamp), Vec<TimeWindow>)> = skyline
        .iter()
        .map(|(id, windows)| {
            let e = g.edge(id);
            let (a, b) = (g.label(e.u), g.label(e.v));
            ((a.min(b), a.max(b), e.t), windows.to_vec())
        })
        .collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Absorbing an append stream and rebuilding the tail must leave the
    /// engine's snapshot with flat skylines identical (in label space) to
    /// those of a from-scratch graph over the same events — per shard range
    /// and over the full live span.
    #[test]
    fn absorb_plus_tail_rebuild_yields_identical_flat_skylines(
        (base, stream) in arb_base_and_stream(),
        k in 1usize..4,
        shards in 1usize..4,
    ) {
        let live = ShardedEngine::new(raw_graph(&base), ShardPlan::FixedCount(shards))
            .expect("fixed-count plans are valid");
        // Warm the caches first so the absorb exercises the tail
        // purge-and-rebuild path rather than a cold build.
        live.warm(k);
        let stats = live.absorb(&stream).expect("stream is strictly ordered");
        prop_assert_eq!(stats.appended, stream.len());

        let mut all = base.clone();
        all.extend_from_slice(&stream);
        let snapshot = live.graph();
        let reference = raw_graph(&all);
        prop_assert_eq!(snapshot.tmax(), reference.tmax());

        let mut ranges = live.shards();
        ranges.push(snapshot.span());
        for range in ranges {
            let via_live = EdgeCoreSkyline::build(&snapshot, k, range);
            let via_scratch_rebuild = EdgeCoreSkyline::build(&reference, k, range);
            prop_assert_eq!(
                label_windows(&snapshot, &via_live),
                label_windows(&reference, &via_scratch_rebuild),
                "k={} range={} shards={}",
                k, range, shards
            );
        }

        // And the live query path (which serves the rebuilt tail skyline
        // from its cache) agrees with the naive oracle on the full span.
        let query = TimeRangeKCoreQuery::new(k, snapshot.span()).expect("k >= 1");
        let got = live
            .execute(query.into(), Algorithm::Enum)
            .expect("span query is valid");
        let mut expected = CollectingSink::default();
        query.run_with(&reference, Algorithm::Enum, &mut expected);
        prop_assert_eq!(got.total_cores(), expected.cores.len() as u64);
    }
}

/// Deterministic spot-check on the paper-example graph: the CSR build
/// matches the nested reference exactly, including the degenerate
/// empty-projection case past `tmax`.
#[test]
fn paper_example_matches_reference_and_past_tmax_is_empty() {
    let g = temporal_kcore::tkcore::paper_example::graph();
    let skyline = EdgeCoreSkyline::build(&g, 2, g.span());
    let reference = NestedSkyline::build(&g, 2, g.span());
    assert_eq!(nested_view(&skyline), reference.per_edge);
    assert!(skyline.total_windows() > 0, "paper example has 2-cores");

    let past = TimeWindow::new(g.tmax() + 1, g.tmax() + 3);
    let empty = EdgeCoreSkyline::build(&g, 2, past);
    assert_eq!(
        empty.range(),
        past,
        "empty skyline echoes the requested range"
    );
    assert_eq!(empty.total_windows(), 0);
    assert_eq!(empty.iter().count(), 0);
    assert_eq!(empty.memory_bytes(), 0);
}

/// An edge left of a cut with both an intra-shard window (`[1, 2]`, a
/// triangle before the cut) and a cut-crossing one (`[2, 4]`, a triangle
/// closed after it): its run interleaves the shard slice with the stitch
/// slice, and the engine's stream keeps the per-query order.
#[test]
fn a_run_mixing_intra_shard_and_crossing_windows_stays_in_skyline_order() {
    let g = raw_graph(&[(0, 2, 1), (1, 2, 1), (0, 1, 2), (0, 3, 4), (1, 3, 4)]);
    let engine = ShardedEngine::new(g.clone(), ShardPlan::ExplicitCuts(vec![3])).unwrap();
    let e = (0..g.num_edges() as EdgeId)
        .find(|&id| g.edge(id).t == 2)
        .unwrap();
    let expected = vec![TimeWindow::new(1, 2), TimeWindow::new(2, 4)];
    assert_eq!(EdgeCoreSkyline::build(&g, 2, g.span()).windows(e), expected);
    assert_eq!(
        engine.with_view(2, 1, 4, |view| view.windows(e)).unwrap(),
        expected
    );
    let query = TimeRangeKCoreQuery::new(2, g.span()).unwrap();
    let mut per_query = CollectingSink::default();
    query.run_with(&g, Algorithm::Enum, &mut per_query);
    let (streamed_enum, _) = streamed(&engine, query, Algorithm::Enum).unwrap();
    assert_eq!(streamed_enum, per_query.cores);
}
