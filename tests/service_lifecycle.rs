//! Regression tests for the service's shutdown lifecycle:
//!
//! * `CoreService::shutdown(self)` runs the drain once and the `Drop`
//!   that immediately follows it must be a no-op — the double-drain used
//!   to re-join an already-torn-down pool;
//! * stopping a service with an in-flight ingest append must wait the
//!   append out (the ticket resolves, never hangs, never reports
//!   `ServiceStopped` for work that was admitted);
//! * a worker panicking mid-absorb resolves the `IngestTicket` with a
//!   typed `TkError::WorkerPanicked` instead of hanging the caller, and
//!   leaves the engine fully usable.
//!
//! Determinism: worker pinning uses a gated stream sink that blocks inside
//! `emit` until released — no sleeps or timing assumptions.

use std::sync::mpsc;
use temporal_kcore::prelude::*;
use temporal_kcore::tkcore::paper_example;

/// Blocks the executing worker inside the request's first `emit` until the
/// test sends the release signal.
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

#[test]
fn shutdown_then_drop_drains_exactly_once() {
    let service = CoreService::start_sharded(
        paper_example::graph(),
        ShardPlan::Span,
        ServiceConfig::default(),
    )
    .unwrap();
    let ticket = service.submit(QueryRequest::single(2, 1, 4)).unwrap();
    // `shutdown(self)` drains and then drops `self`, whose `Drop` calls the
    // drain again; the second pass must return immediately instead of
    // re-joining dead workers.  Hanging or panicking here fails the test.
    service.shutdown();
    // Admitted work was waited out, not abandoned.
    let reply = ticket
        .wait()
        .expect("admitted requests complete during the drain");
    assert_eq!(reply.response.total_cores(), 2);
}

#[test]
fn dropping_with_in_flight_ingest_waits_the_append_out() {
    let service = CoreService::start_sharded(
        paper_example::graph(), // tmax = 7
        ShardPlan::FixedCount(2),
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    )
    .unwrap();

    // Pin the single worker inside a streamed query...
    let (started_tx, started_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    let pin = service
        .submit(QueryRequest::single(2, 1, 4).stream(Box::new(GatedSink {
            started: started_tx,
            release: release_rx,
            blocked_once: false,
        })))
        .unwrap();
    started_rx.recv().expect("worker is pinned");

    // ...so this append is provably still queued when the drain begins.
    let ingest = service
        .submit_append(vec![(10, 11, 8), (11, 12, 9)])
        .unwrap();

    release_tx.send(()).expect("worker is waiting");
    service.shutdown();

    // The drain executed the queued append before tearing down: the ticket
    // resolves with the absorb result rather than hanging or reporting
    // `ServiceStopped`.
    let reply = ingest
        .wait()
        .expect("queued appends complete during the drain");
    assert_eq!(reply.stats.appended, 2);
    assert!(pin.wait().is_ok());
}

#[test]
fn a_panicking_absorb_resolves_the_ticket_with_worker_panicked() {
    let service = CoreService::start_sharded(
        paper_example::graph(),
        ShardPlan::FixedCount(2),
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    )
    .unwrap();

    // Arm the fail point: the next absorb panics on the worker before
    // touching any engine state.
    service.engine().fail_next_absorbs(1);
    let err = service
        .submit_append(vec![(10, 11, 8)])
        .unwrap()
        .wait()
        .expect_err("the injected panic surfaces as a typed error");
    assert!(
        matches!(&err, TkError::WorkerPanicked { detail } if detail.contains("fail point")),
        "{err}"
    );

    let stats = service.stats();
    assert_eq!(stats.ingest.submitted, 1);
    assert_eq!(stats.ingest.failed, 1);
    assert_eq!(stats.ingest.events_appended, 0);
    assert_eq!(
        stats.per_worker.iter().map(|w| w.panicked).sum::<u64>(),
        1,
        "the panic is accounted to the worker that absorbed it"
    );

    // The worker survived and the engine is untouched: the same append now
    // lands, and queries keep working.
    let reply = service
        .submit_append(vec![(10, 11, 8)])
        .unwrap()
        .wait()
        .expect("the engine is intact after the injected panic");
    assert_eq!(reply.stats.appended, 1);
    let query = service
        .submit(QueryRequest::single(2, 1, 4))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(query.response.total_cores(), 2);
    service.shutdown();
}
