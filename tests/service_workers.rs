//! Deterministic multi-worker `CoreService` test (no sleeps): with
//! `workers = 2` and a 1-deep queue, two requests execute concurrently —
//! one per worker, both provably in flight at the same time — while
//! admission control still bounds the queue and rejects the overflow
//! request with `TkError::BudgetExceeded`.
//!
//! Determinism: the two pinned requests use `OutputMode::Stream` with sinks
//! that signal on their first core and then block until released, exactly
//! like `service_admission.rs`.  A worker blocked inside `emit` holds its
//! request in flight, so once both gates have fired, both workers are
//! occupied and the queue alone decides admission.

use std::sync::mpsc;
use temporal_kcore::prelude::*;
use temporal_kcore::tkcore::paper_example;

/// A sink that reports when the first core arrives and then blocks until
/// released, pinning the executing worker inside the request.
struct GatedSink {
    started: mpsc::Sender<()>,
    release: mpsc::Receiver<()>,
    blocked_once: bool,
}

impl ResultSink for GatedSink {
    fn emit(&mut self, _tti: TimeWindow, _edges: &[temporal_graph::EdgeId]) {
        if !self.blocked_once {
            self.blocked_once = true;
            self.started.send(()).expect("test is listening");
            self.release.recv().expect("test releases the sink");
        }
    }
}

fn gated() -> (GatedSink, mpsc::Receiver<()>, mpsc::Sender<()>) {
    let (started_tx, started_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    (
        GatedSink {
            started: started_tx,
            release: release_rx,
            blocked_once: false,
        },
        started_rx,
        release_tx,
    )
}

#[test]
fn two_workers_run_concurrently_and_admission_still_bounds_the_queue() {
    let service = CoreService::start_sharded(
        paper_example::graph(),
        ShardPlan::Span,
        ServiceConfig {
            queue_depth: 1,
            workers: 2,
            ..ServiceConfig::default()
        },
    )
    .unwrap();

    // Requests A and B: each is picked up by a worker and pinned inside its
    // gated sink.  B can only start while A is still blocked, so receiving
    // both `started` signals proves two requests are in flight concurrently.
    let (sink_a, started_a, release_a) = gated();
    let ticket_a = service
        .submit(QueryRequest::single(2, 1, 4).stream(Box::new(sink_a)))
        .expect("A is admitted");
    started_a.recv().expect("a worker is inside A");

    let (sink_b, started_b, release_b) = gated();
    let ticket_b = service
        .submit(QueryRequest::single(2, 1, 4).stream(Box::new(sink_b)))
        .expect("B is admitted");
    started_b.recv().expect("the second worker is inside B");

    // Both workers are pinned; request C fills the 1-deep queue...
    let ticket_c = service
        .submit(QueryRequest::single(2, 1, 4))
        .expect("C fits in the queue");

    // ...and the next submission is refused with a typed budget error.
    let err = service
        .submit(QueryRequest::single(2, 1, 4))
        .expect_err("the queue is full while both workers are pinned");
    assert!(
        matches!(
            err,
            TkError::BudgetExceeded {
                resource: "request queue",
                limit: 1,
            }
        ),
        "{err}"
    );

    // Release both workers; every admitted request completes.
    release_a.send(()).expect("worker A is waiting");
    release_b.send(()).expect("worker B is waiting");
    let reply_a = ticket_a.wait().expect("A completes");
    let reply_b = ticket_b.wait().expect("B completes");
    let reply_c = ticket_c.wait().expect("C completes");
    assert_eq!(reply_a.response.total_cores(), 2);
    assert_eq!(reply_b.response.total_cores(), 2);
    assert_eq!(reply_c.response.total_cores(), 2);
    // A and B were concurrently in flight, so they ran on distinct workers.
    assert_ne!(reply_a.worker, reply_b.worker);

    let stats = service.stats();
    assert_eq!(stats.admitted, 3);
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.max_queue_depth, 1);
    // Per-worker latency accounting aggregates into the shared counters.
    assert_eq!(stats.per_worker.len(), 2);
    let per_worker_completed: u64 = stats.per_worker.iter().map(|w| w.completed).sum();
    assert_eq!(per_worker_completed, stats.completed);
    let per_worker_execute: std::time::Duration =
        stats.per_worker.iter().map(|w| w.execute_total).sum();
    assert_eq!(per_worker_execute, stats.execute_total);
    assert!(stats.per_worker.iter().all(|w| w.completed >= 1));
    service.shutdown();
}

#[test]
fn sharded_multi_worker_service_matches_span_wide_answers() {
    let graph = paper_example::graph();
    let sharded = CoreService::start_sharded(
        graph.clone(),
        ShardPlan::FixedCount(4),
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
    )
    .unwrap();

    let requests = [(2, 1, 4), (2, 2, 6), (1, 1, 7), (3, 1, 7)];
    let tickets: Vec<Ticket> = requests
        .iter()
        .map(|&(k, s, e)| sharded.submit(QueryRequest::single(k, s, e)).unwrap())
        .collect();
    for (ticket, (k, s, e)) in tickets.into_iter().zip(requests) {
        // The reference: a span-wide skyline freshly built for the window.
        let expected = QueryRequest::single(k, s, e)
            .run(&graph, Algorithm::Enum)
            .unwrap();
        let got = ticket.wait().unwrap().response;
        assert_eq!(
            got.total_cores(),
            expected.total_cores(),
            "k={k} [{s}, {e}]"
        );
        assert_eq!(
            got.total_result_edges(),
            expected.total_result_edges(),
            "k={k} [{s}, {e}]"
        );
    }
    assert_eq!(sharded.cache_stats().per_shard.len(), 4);
    sharded.shutdown();
}
