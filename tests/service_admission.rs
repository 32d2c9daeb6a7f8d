//! Integration test for `CoreService` admission control: under a 1-deep
//! queue, the overflow request is rejected with `TkError::BudgetExceeded`
//! while the admitted ones complete.
//!
//! Determinism: the first request uses `OutputMode::Stream` with a sink
//! that blocks inside `emit` until the test releases it, pinning the worker
//! mid-execution.  While the worker is pinned, the queue (depth 1) holds
//! exactly one more admitted request, so a third submission must be refused
//! — no sleeps or timing assumptions involved.

use std::sync::mpsc;
use temporal_kcore::prelude::*;
use temporal_kcore::tkcore::paper_example;

/// A sink that reports when the first core arrives and then blocks until
/// released, holding the service worker inside the request.
struct GatedSink {
    started: mpsc::Sender<()>,
    release: mpsc::Receiver<()>,
    blocked_once: bool,
    emitted: u64,
}

impl ResultSink for GatedSink {
    fn emit(&mut self, _tti: TimeWindow, _edges: &[temporal_graph::EdgeId]) {
        self.emitted += 1;
        if !self.blocked_once {
            self.blocked_once = true;
            self.started.send(()).expect("test is listening");
            self.release.recv().expect("test releases the sink");
        }
    }
}

#[test]
fn one_deep_queue_rejects_overflow_with_budget_exceeded() {
    let service = CoreService::start_sharded(
        paper_example::graph(),
        ShardPlan::Span,
        ServiceConfig {
            queue_depth: 1,
            ..ServiceConfig::default()
        },
    )
    .unwrap();

    let (started_tx, started_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    let gated = GatedSink {
        started: started_tx,
        release: release_rx,
        blocked_once: false,
        emitted: 0,
    };

    // Request A: admitted; the paper query emits cores, so the gated sink
    // will pin the worker on the first emit.
    let ticket_a = service
        .submit(QueryRequest::single(2, 1, 4).stream(Box::new(gated)))
        .expect("A is admitted");
    // Wait until the worker is provably inside A's execution.
    started_rx.recv().expect("A reached its first core");

    // Request B: admitted into the (now empty) 1-deep queue.
    let ticket_b = service
        .submit(QueryRequest::single(2, 1, 4))
        .expect("B fits in the queue");

    // Request C: the queue is full — refused with a typed budget error.
    let err = service
        .submit(QueryRequest::single(2, 1, 4))
        .expect_err("C overflows the 1-deep queue");
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

    // Release the worker; both admitted requests complete normally.
    release_tx.send(()).expect("worker is waiting");
    let reply_a = ticket_a.wait().expect("A completes");
    assert_eq!(reply_a.response.total_cores(), 2);
    let sink = reply_a.response.sink.expect("stream sink is handed back");
    // The sink is returned as the trait object it went in as; its counters
    // are still observable through QueryStats above.
    drop(sink);
    let reply_b = ticket_b.wait().expect("B completes");
    assert_eq!(reply_b.response.total_cores(), 2);

    let stats = service.stats();
    assert_eq!(stats.admitted, 2);
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.max_queue_depth, 1);
    service.shutdown();
}

#[test]
fn service_replies_carry_request_ids_and_latencies() {
    let service = CoreService::start_sharded(
        paper_example::graph(),
        ShardPlan::Span,
        ServiceConfig::default(),
    )
    .unwrap();
    let t1 = service.submit(QueryRequest::sweep(1..=2, 1, 7)).unwrap();
    let t2 = service.submit(QueryRequest::single(2, 2, 5)).unwrap();
    assert_ne!(t1.id, t2.id, "ids are unique per request");
    let r1 = t1.wait().unwrap();
    let r2 = t2.wait().unwrap();
    assert_eq!(r1.response.outcomes.len(), 2);
    assert_eq!(r2.response.outcomes.len(), 1);
    let stats = service.stats();
    assert_eq!(stats.completed, 2);
    assert!(stats.execute_total >= r1.execute_time);
    service.shutdown();
}
