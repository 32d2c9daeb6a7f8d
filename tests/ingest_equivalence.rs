//! The live-ingestion correctness harness: an appendable `ShardedEngine`
//! must be indistinguishable from an engine rebuilt from scratch over the
//! same events, at **every prefix** of the stream.
//!
//! Three layers of evidence:
//!
//! * `interleaved_appends_match_rebuild_from_scratch` — the property test
//!   of the ingestion PR: random base graphs, random shard plans, random
//!   seal policies and a random time-ordered event stream; after every
//!   absorbed batch, every `(k, window)` query through the live engine
//!   returns the same cores (compared in label space, since the appendable
//!   graph assigns vertex ids first-seen while the builder sorts labels)
//!   as a fresh engine built from the base edges plus the prefix, for all
//!   four algorithms;
//! * `closed_shard_skylines_survive_an_append_burst` — the incremental
//!   maintenance contract, asserted through `CacheStats`: across an append
//!   burst the closed shards register **zero** new skyline builds (their
//!   cached indexes keep serving), while the tail counters show the purge;
//! * `racing_queries_never_observe_a_partial_batch` — atomicity through
//!   the serving layer: queries racing `submit_append` batches on a live
//!   multi-worker `CoreService` observe either none of a batch's edges or
//!   all of them, never a strict subset.

mod common;

use common::{arb_base_and_stream, raw_graph};
use proptest::prelude::*;
use temporal_kcore::prelude::*;
use temporal_kcore::tkcore::paper_example;

/// A core in label space: its TTI plus `(min_label, max_label, t)` per
/// edge.  Vertex *ids* differ between an appended graph (first-seen label
/// order) and a from-scratch rebuild (sorted label order), so equivalence
/// must be asserted on labels, which both sides preserve.
type LabelCore = (TimeWindow, Vec<(u64, u64, Timestamp)>);

fn label_cores(graph: &TemporalGraph, cores: &[TemporalKCore]) -> Vec<LabelCore> {
    let mut out: Vec<LabelCore> = cores
        .iter()
        .map(|core| {
            let mut edges: Vec<(u64, u64, Timestamp)> = core
                .edges
                .iter()
                .map(|&id| {
                    let e = graph.edge(id);
                    let (a, b) = (graph.label(e.u), graph.label(e.v));
                    (a.min(b), a.max(b), e.t)
                })
                .collect();
            edges.sort_unstable();
            (core.tti, edges)
        })
        .collect();
    out.sort();
    out
}

fn seal_policy_for(kind: u8) -> SealPolicy {
    match kind % 3 {
        0 => SealPolicy::Manual,
        1 => SealPolicy::EdgeCount(4),
        _ => SealPolicy::SpanWidth(3),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Interleaved append/query equals rebuild-from-scratch on every
    /// prefix of the stream, for every algorithm, under random shard
    /// plans and seal policies.
    #[test]
    fn interleaved_appends_match_rebuild_from_scratch(
        (base, stream) in arb_base_and_stream(),
        k in 1usize..4,
        shards in 1usize..4,
        seal_kind in 0u8..3,
        batch_len in 1usize..4,
    ) {
        let config = EngineConfig {
            seal_policy: seal_policy_for(seal_kind),
            ..EngineConfig::default()
        };
        let live = ShardedEngine::with_config(
            raw_graph(&base),
            ShardPlan::FixedCount(shards),
            config,
        ).expect("fixed-count plans are valid");

        let mut absorbed = base.clone();
        let mut taken: std::collections::HashSet<(u64, u64, Timestamp)> = absorbed
            .iter()
            .map(|&(u, v, t)| (u.min(v), u.max(v), t))
            .collect();
        for batch in stream.chunks(batch_len) {
            // A seal raises the append floor past the sealed end, so a
            // batch starting at the old tail timestamp must shift forward
            // (uniformly, preserving its internal tie structure) — and a
            // shift may land on an already-absorbed `(u, v, t)`, in which
            // case it keeps shifting.  The reference is rebuilt from the
            // *shifted* events, so equivalence is unaffected.
            let mut delta = live.watermark().saturating_sub(batch[0].2);
            let batch: Vec<(u64, u64, Timestamp)> = loop {
                let shifted: Vec<(u64, u64, Timestamp)> = batch
                    .iter()
                    .map(|&(u, v, t)| (u, v, t + delta))
                    .collect();
                if shifted
                    .iter()
                    .all(|&(u, v, t)| !taken.contains(&(u.min(v), u.max(v), t)))
                {
                    break shifted;
                }
                delta += 1;
            };
            let stats = live.absorb(&batch).expect("shifted batches are in order");
            prop_assert_eq!(stats.appended, batch.len());
            taken.extend(batch.iter().map(|&(u, v, t)| (u.min(v), u.max(v), t)));
            absorbed.extend_from_slice(&batch);

            // Rebuild the same prefix from scratch and compare answers on
            // the full live span plus a window straddling the base/tail
            // boundary.
            let reference = raw_graph(&absorbed);
            let live_tmax = live.graph().tmax();
            prop_assert_eq!(reference.tmax(), live_tmax);
            let base_tmax = base.iter().map(|&(_, _, t)| t).max().unwrap();
            let windows = [
                TimeWindow::new(1, live_tmax),
                TimeWindow::new(base_tmax.min(live_tmax), live_tmax),
            ];
            for window in windows {
                let query = TimeRangeKCoreQuery::new(k, window).expect("k >= 1");
                for algo in Algorithm::ALL {
                    let mut expected = CollectingSink::default();
                    query.run_with(&reference, algo, &mut expected);
                    let mut got = CollectingSink::default();
                    live.run_with(&query, algo, &mut got)
                        .expect("window is inside the live span");
                    prop_assert_eq!(
                        label_cores(&live.graph(), &got.cores),
                        label_cores(&reference, &expected.cores),
                        "prefix={} k={} window={} algo={} shards={} seal={:?}",
                        absorbed.len() - base.len(), k, window, algo,
                        shards, seal_policy_for(seal_kind)
                    );
                }
            }
        }
        prop_assert_eq!(
            live.graph().tmax(),
            absorbed.iter().map(|&(_, _, t)| t).max().unwrap()
        );
    }
}

/// The incremental-maintenance contract: an append burst leaves every
/// closed shard's cached skyline untouched — zero new builds — while the
/// tail counters record the purge-and-rebuild cycle.
#[test]
fn closed_shard_skylines_survive_an_append_burst() {
    let g = paper_example::graph(); // tmax = 7
    let engine = ShardedEngine::new(g, ShardPlan::ExplicitCuts(vec![2, 4])).unwrap();
    assert_eq!(engine.num_shards(), 3);
    assert_eq!(engine.sealed_shards(), 2);

    // Warm every shard, then answer a spanning query so the boundary
    // stitch index is resident too.
    engine.warm(2);
    let mut sink = CountingSink::default();
    engine
        .run(
            &TimeRangeKCoreQuery::new(2, TimeWindow::new(1, 7)).unwrap(),
            &mut sink,
        )
        .unwrap();
    let before = engine.cache_stats();
    let closed_builds_before: u64 = before.per_shard[..2].iter().map(|s| s.builds).sum();
    assert!(closed_builds_before >= 2, "warm built the closed shards");

    // The burst: several tail-extending batches.
    for batch in [
        vec![(1u64, 5u64, 8u32), (2, 5, 8)],
        vec![(1, 2, 9), (2, 6, 9)],
        vec![(1, 6, 10), (5, 6, 10)],
    ] {
        engine.absorb(&batch).unwrap();
    }

    // Spanning re-queries touch every shard again.
    for _ in 0..2 {
        let mut sink = CountingSink::default();
        engine
            .run(
                &TimeRangeKCoreQuery::new(2, TimeWindow::new(1, engine.watermark())).unwrap(),
                &mut sink,
            )
            .unwrap();
    }

    let after = engine.cache_stats();
    let closed_builds_after: u64 = after.per_shard[..2].iter().map(|s| s.builds).sum();
    assert_eq!(
        closed_builds_after, closed_builds_before,
        "closed-shard skylines must register zero rebuilds across the burst"
    );
    let delta = IngestDelta::between(&before, &after);
    assert!(delta.tail_invalidations > 0, "the tail was purged");
    assert!(
        after.per_shard[2].builds > before.per_shard[2].builds,
        "the tail skyline was rebuilt after the purge"
    );
    // Closed shards kept *serving* during the burst, not just resident.
    let closed_hits_before: u64 = before.per_shard[..2].iter().map(|s| s.hits).sum();
    let closed_hits_after: u64 = after.per_shard[..2].iter().map(|s| s.hits).sum();
    assert!(closed_hits_after > closed_hits_before);
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
            affinity: Affinity::Shard,
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
    // the absorb drains on the tail lane.  Each ingest ticket is awaited
    // before the next batch goes in (the documented ordering contract:
    // work stealing would otherwise absorb batches out of submission
    // order and reject the regressed ones).
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
