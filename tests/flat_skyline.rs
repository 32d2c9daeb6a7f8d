//! Correctness harness for the flat (CSR) skyline storage: every result
//! obtainable from the contiguous `offsets`/`flat` layout must be identical
//! to one computed through a naive nested-`Vec` reference implementation
//! that knows nothing about the flat encoding.
//!
//! Layers of evidence:
//!
//! * `csr_build_matches_the_nested_reference` — `EdgeCoreSkyline::build`'s
//!   `iter()`/`windows()` output equals a brute-force per-edge minimal-window
//!   table (`NestedSkyline`) derived from the `naive` peeling oracle, over
//!   random graphs, random `k` and random query ranges;
//! * `csr_restrict_matches_the_nested_reference` — `restrict` /
//!   `restrict_with` (including repeated calls through one recycled
//!   `SkylineScratch`, the zero-alloc hot path) equals the reference's
//!   containment filter *and* a from-scratch rebuild on the sub-range;
//! * `a_run_mixing_intra_shard_and_crossing_windows_stays_in_skyline_order`
//!   — an engine `WindowView` run that interleaves a shard slice with a
//!   stitch slice keeps skyline order.
//!
//! The engine's views under every shard plan and under appends are checked
//! against fresh builds by the stack model (`tests/stack_model.rs`).

mod common;

use std::collections::BTreeMap;

use common::{arb_graph, raw_graph, streamed, window_in_span};
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
    let (streamed_enum, _) = streamed(&engine, query).unwrap();
    assert_eq!(streamed_enum, per_query.cores);
}
