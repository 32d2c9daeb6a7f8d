//! Deterministic overload soak for the priority-lane, deadline-aware
//! service: with the single worker pinned by a gated sink, a saturating
//! request mix (from the datasets crate's [`OverloadWorkload`] generator)
//! fills the queue; when the worker is released, every admitted
//! interactive request completes within its deadline while every
//! deadline-carrying batch request is shed at dequeue with a typed
//! `TkError::DeadlineExceeded`, and the per-lane counters sum to the
//! service totals.
//!
//! Determinism: no sleeps.  The worker is pinned by a sink blocking in
//! `emit`, and batch deadlines are *proven* expired by spinning on
//! `Instant` past the deadline before the worker is released — shedding is
//! then a certainty, not a race.  Set `TKC_OVERLOAD_QUICK=1` for a smaller
//! mix (the CI quick mode).

use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};
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

/// Records the order in which requests start executing.
struct LabelSink {
    order: Arc<Mutex<Vec<&'static str>>>,
    label: &'static str,
    logged: bool,
}

impl ResultSink for LabelSink {
    fn emit(&mut self, _tti: TimeWindow, _edges: &[temporal_graph::EdgeId]) {
        if !self.logged {
            self.logged = true;
            self.order.lock().unwrap().push(self.label);
        }
    }
}

fn mix_size() -> usize {
    if std::env::var("TKC_OVERLOAD_QUICK").is_ok() {
        12
    } else {
        48
    }
}

/// Pins the service's single worker; returns the pinned ticket and the
/// release sender.
fn pin_worker(service: &CoreService) -> (Ticket, mpsc::Sender<()>) {
    let (started_tx, started_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    let ticket = service
        .submit(QueryRequest::single(2, 1, 4).stream(Box::new(GatedSink {
            started: started_tx,
            release: release_rx,
            blocked_once: false,
        })))
        .expect("the pin is admitted");
    started_rx.recv().expect("worker is pinned");
    (ticket, release_tx)
}

#[test]
fn saturation_serves_interactive_in_deadline_and_sheds_batch() {
    let n = mix_size();
    let batch_deadline = Duration::from_millis(5);
    let interactive_deadline = Duration::from_secs(3600);
    let mix = OverloadWorkload::generate(
        7, // the paper example's tmax
        &OverloadConfig {
            num_requests: n,
            interactive_percent: 25,
            k: 2,
            range_len: 4,
            interactive_deadline_ms: interactive_deadline.as_millis() as u64,
            batch_deadline_ms: Some(batch_deadline.as_millis() as u64),
            seed: 9,
        },
    );
    let service = CoreService::start_sharded(
        paper_example::graph(),
        ShardPlan::Span,
        ServiceConfig {
            workers: 1,
            queue_depth: n,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let (pin, release) = pin_worker(&service);

    // A zero deadline is already expired: shed at admission (the queue has
    // room — this is the deadline gate, not the depth gate).
    let err = service
        .submit_opts(
            QueryRequest::single(2, 1, 4).count(),
            SubmitOptions::default().with_deadline(Duration::ZERO),
        )
        .expect_err("a zero deadline can never be met");
    assert!(matches!(err, TkError::DeadlineExceeded { .. }), "{err}");

    // Saturate: the mix exactly fills the queue behind the pinned worker.
    let submitted_at = Instant::now();
    let tickets: Vec<(bool, Ticket)> = mix
        .requests
        .iter()
        .map(|r| {
            let opts = SubmitOptions::default()
                .with_lane(if r.interactive {
                    Lane::Interactive
                } else {
                    Lane::Batch
                })
                .with_deadline(Duration::from_millis(r.deadline_ms.unwrap()));
            let request = QueryRequest::single(r.k, r.range.start(), r.range.end()).count();
            (r.interactive, service.submit_opts(request, opts).unwrap())
        })
        .collect();

    // One more request overflows the depth gate with a typed budget error.
    let err = service
        .submit_opts(
            QueryRequest::single(2, 1, 4).count(),
            SubmitOptions::batch(),
        )
        .expect_err("the queue is full");
    assert!(
        matches!(
            err,
            TkError::BudgetExceeded {
                resource: "request queue",
                ..
            }
        ),
        "{err}"
    );

    // Prove every batch deadline has expired before any queued request can
    // run, then release the worker.
    while submitted_at.elapsed() <= batch_deadline * 4 {
        std::hint::spin_loop();
    }
    release.send(()).expect("worker is waiting");
    assert!(pin.wait().is_ok());

    let mut interactive_latencies = Vec::new();
    let mut batch_shed = 0u64;
    for (interactive, ticket) in tickets {
        if interactive {
            let reply = ticket.wait().expect("interactive requests are served");
            interactive_latencies.push(reply.queue_wait + reply.execute_time);
        } else {
            let err = ticket.wait().expect_err("expired batch requests are shed");
            let TkError::DeadlineExceeded { deadline, waited } = err else {
                panic!("expected DeadlineExceeded, got {err}");
            };
            assert_eq!(deadline, batch_deadline);
            assert!(waited > deadline, "shed only after the deadline passed");
            batch_shed += 1;
        }
    }
    assert_eq!(interactive_latencies.len(), n / 4);
    assert_eq!(batch_shed as usize, n - n / 4);

    // Every admitted interactive request completed within its deadline —
    // in particular the p99 (here the max) is bounded by it.
    interactive_latencies.sort();
    let p99 = interactive_latencies[(interactive_latencies.len() * 99).div_ceil(100) - 1];
    assert!(
        p99 < interactive_deadline,
        "interactive p99 {p99:?} must stay within the {interactive_deadline:?} deadline"
    );

    // Per-lane counters sum to the service totals across every class.
    let stats = service.stats();
    let sum =
        |f: fn(&LaneStats) -> u64| f(stats.lane(Lane::Interactive)) + f(stats.lane(Lane::Batch));
    assert_eq!(sum(|l| l.admitted), stats.admitted);
    assert_eq!(sum(|l| l.completed), stats.completed);
    assert_eq!(sum(|l| l.shed), stats.shed);
    assert_eq!(sum(|l| l.rejected), stats.rejected);
    // And the headline movement is exactly what the scenario dictates: the
    // pin and the mix admitted (the zero-deadline request never was); the
    // batch mix shed at dequeue plus the one admission shed; one overflow
    // rejected.
    assert_eq!(stats.admitted, 1 + n as u64);
    assert_eq!(stats.shed, 1 + batch_shed);
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.lane(Lane::Batch).shed, batch_shed);
    service.shutdown();
}

#[test]
fn interactive_requests_dequeue_ahead_of_earlier_batch_requests() {
    let service = CoreService::start_sharded(
        paper_example::graph(),
        ShardPlan::Span,
        ServiceConfig {
            workers: 1,
            queue_depth: 8,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let (pin, release) = pin_worker(&service);

    // Batch requests are queued FIRST...
    let order = Arc::new(Mutex::new(Vec::new()));
    let mut tickets = Vec::new();
    for _ in 0..3 {
        let sink = LabelSink {
            order: Arc::clone(&order),
            label: "batch",
            logged: false,
        };
        tickets.push(
            service
                .submit_opts(
                    QueryRequest::single(2, 1, 4).stream(Box::new(sink)),
                    SubmitOptions::batch(),
                )
                .unwrap(),
        );
    }
    // ...and interactive ones after them.
    for _ in 0..2 {
        let sink = LabelSink {
            order: Arc::clone(&order),
            label: "interactive",
            logged: false,
        };
        tickets.push(
            service
                .submit(QueryRequest::single(2, 1, 4).stream(Box::new(sink)))
                .unwrap(),
        );
    }

    release.send(()).expect("worker is waiting");
    assert!(pin.wait().is_ok());
    for ticket in tickets {
        ticket.wait().expect("no deadlines: everything executes");
    }

    // Despite arriving later, every interactive request ran first.
    let order = order.lock().unwrap();
    assert_eq!(
        *order,
        vec!["interactive", "interactive", "batch", "batch", "batch"],
        "the worker drains the interactive lane before the batch lane"
    );
    service.shutdown();
}
