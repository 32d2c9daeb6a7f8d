//! Timed phases: closed-loop client connections against a warmed stack
//! and, for `ingest-tail`, an append thread awaiting each ticket.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use tkcore::{CacheStats, CoreService, ServiceStats};

use crate::client::{self, ConnLog};
use crate::gen::{IngestPlan, Plan};
use crate::stack::Stack;
use crate::stats;

/// Upper bound on one `ingest-tail` round, in seconds.
const ROUND_LIMIT_S: u64 = 30;

/// One acknowledged append batch.
#[derive(Debug, Clone, Copy)]
pub struct Batch {
    /// `submit_append` to `IngestTicket::wait` returning.
    pub latency: Duration,
    pub events: usize,
    pub absorb: Duration,
    pub queue_wait: Duration,
    pub tail_invalidations: u64,
    pub sealed: bool,
}

/// Counter movement across a timed phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct Deltas {
    pub hits: u64,
    pub misses: u64,
    pub builds: u64,
    pub stitch_hits: u64,
    pub stitch_builds: u64,
    pub rejected: u64,
    pub shed: u64,
}

impl Deltas {
    fn between(cache: (&CacheStats, &CacheStats), service: (&ServiceStats, &ServiceStats)) -> Self {
        let builds = |c: &CacheStats| c.per_shard.iter().map(|s| s.builds).sum::<u64>();
        let (c0, c1) = cache;
        let (s0, s1) = service;
        Self {
            hits: c1.hits - c0.hits,
            misses: c1.misses - c0.misses,
            builds: builds(c1) - builds(c0),
            stitch_hits: c1.boundary.hits - c0.boundary.hits,
            stitch_builds: c1.boundary.builds - c0.boundary.builds,
            rejected: s1.rejected - s0.rejected,
            shed: s1.shed - s0.shed,
        }
    }

    fn add(&mut self, other: Deltas) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.builds += other.builds;
        self.stitch_hits += other.stitch_hits;
        self.stitch_builds += other.stitch_builds;
        self.rejected += other.rejected;
        self.shed += other.shed;
    }
}

/// Everything one timed phase observed.
#[derive(Debug, Default)]
pub struct PhaseLog {
    pub conn: ConnLog,
    /// Time clients were sending, summed over `ingest-tail` rounds.
    pub active: Duration,
    /// Set-up times of the stacks the phase ran on.
    pub setups: Vec<Duration>,
    pub batches: Vec<Batch>,
    pub batches_attempted: u64,
    /// Rejected append batches by error code.
    pub batch_errors: BTreeMap<String, u64>,
    pub deltas: Deltas,
    /// Shard-skyline warm cost of each stack's set-up: (build time, entries).
    pub warm_builds: Vec<(Duration, u64)>,
    /// Peak resident memory (MiB) once the first stack was set up, before
    /// any traffic.
    pub setup_rss: Option<f64>,
}

impl PhaseLog {
    pub fn merge(&mut self, other: PhaseLog) {
        self.conn.merge(other.conn);
        self.active += other.active;
        self.setups.extend(other.setups);
        self.batches.extend(other.batches);
        self.batches_attempted += other.batches_attempted;
        for (code, n) in other.batch_errors {
            *self.batch_errors.entry(code).or_default() += n;
        }
        self.deltas.add(other.deltas);
        self.warm_builds.extend(other.warm_builds);
        self.setup_rss = self.setup_rss.or(other.setup_rss);
    }

    pub fn rejected_batches(&self) -> u64 {
        self.batch_errors.values().sum()
    }
}

fn snapshot(stack: &Stack) -> (CacheStats, ServiceStats) {
    (stack.service.cache_stats(), stack.service.stats())
}

/// Drives `plan.workload.connections()` closed-loop connections against a
/// warmed stack for `seconds`, each cycling through the request pool from
/// its own offset.
pub fn queries(
    stack: &Stack,
    plan: &Plan,
    lines: &[String],
    seconds: f64,
    traced: bool,
    epoch: Instant,
) -> PhaseLog {
    let conns = plan.workload.connections();
    let pool = plan.requests.len();
    let (cache0, service0) = snapshot(stack);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let mut log = PhaseLog::default();
    // tkc-lint: allow(no-raw-threads) — closed-loop client connections are the load generator outside the served stack; the scope joins them
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let mut i = c * pool / conns;
                scope.spawn(move || {
                    client::run(stack.addr, lines, epoch, c as u64, traced, || {
                        (Instant::now() < deadline).then(|| {
                            i += 1;
                            (i - 1) % pool
                        })
                    })
                })
            })
            .collect();
        for handle in handles {
            log.conn.merge(handle.join().unwrap_or_default());
        }
    });
    log.active = t0.elapsed();
    let (cache1, service1) = snapshot(stack);
    log.deltas = Deltas::between((&cache0, &cache1), (&service0, &service1));
    log
}

/// `ingest-tail`: rounds of {fresh stack, the whole append stream against
/// one query connection}, started until `seconds` are spent; the last
/// round runs to its end.  Each round restarts from the base graph and
/// queries every epoch, so every round does the same work: append cost
/// grows with the graph, and an open-ended or cut stream would drift.
pub fn ingest(
    plan: &Plan,
    lines: &[String],
    seconds: f64,
    traced: bool,
    epoch: Instant,
) -> Result<PhaseLog, String> {
    let ingest = plan.ingest.as_ref().ok_or("ingest-tail has no stream")?;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    // Rounds run whole; this only guards against a stalled round.
    let round_limit = Duration::from_secs(ROUND_LIMIT_S);
    let mut log = PhaseLog::default();
    let mut round = 0u64;
    while Instant::now() < deadline {
        let round_deadline = Instant::now() + round_limit;
        let (stack, setup) = Stack::start(plan)?;
        log.setups.push(setup);
        log.warm_builds.push(warm_builds(&stack));
        log.setup_rss = log.setup_rss.or_else(|| Some(stats::peak_rss_mib()));
        let (cache0, service0) = snapshot(&stack);
        let acked = AtomicUsize::new(0);
        let done = AtomicBool::new(false);
        let (served_tx, served_rx) = mpsc::channel();
        let t0 = Instant::now();
        let mut round_log = PhaseLog::default();
        // tkc-lint: allow(no-raw-threads) — the append thread and the query connection are the load generator outside the served stack; the scope joins them
        std::thread::scope(|scope| {
            let (stack, acked, done) = (&stack, &acked, &done);
            let appender = scope.spawn(move || {
                let out = append_stream(&stack.service, ingest, round_deadline, acked, &served_rx);
                done.store(true, Ordering::SeqCst);
                out
            });
            let querier = scope.spawn(move || {
                let mut at = (usize::MAX, 0usize);
                let mut previous: Option<usize> = None;
                let log = client::run(stack.addr, lines, epoch, round, traced, || {
                    // Choose the next window before reporting the previous
                    // query, which may release the next append: the choice
                    // then never races the append.
                    let next = next_tail_window(ingest, round_deadline, acked, done, &mut at);
                    if let Some(epoch) = previous.take() {
                        let _ = served_tx.send(epoch);
                    }
                    let (epoch, idx) = next?;
                    previous = Some(epoch);
                    Some(idx)
                });
                drop(served_tx);
                log
            });
            round_log.conn = querier.join().unwrap_or_default();
            if let Ok(appended) = appender.join() {
                round_log.merge(appended);
            }
        });
        round_log.active = t0.elapsed();
        let (cache1, service1) = snapshot(&stack);
        round_log.deltas = Deltas::between((&cache0, &cache1), (&service0, &service1));
        stack.stop()?;
        log.merge(round_log);
        round += 1;
    }
    Ok(log)
}

/// The current epoch and its next `ingest-tail` window: each of the
/// epoch's windows once, then its freshest window once more, which is in
/// flight while the appender lands the next batch; then nothing until the
/// next epoch.  A fixed count per epoch keeps every round's work the same.
/// `at` is (epoch, queries sent in it).  Also waits out the gap after a
/// seal, when there is no live tail to query.
fn next_tail_window(
    ingest: &IngestPlan,
    deadline: Instant,
    acked: &AtomicUsize,
    done: &AtomicBool,
    at: &mut (usize, usize),
) -> Option<(usize, usize)> {
    loop {
        if done.load(Ordering::SeqCst) || Instant::now() >= deadline {
            return None;
        }
        let epoch = acked.load(Ordering::SeqCst);
        if at.0 != epoch {
            *at = (epoch, 0);
        }
        let windows = &ingest.epochs[epoch];
        if !windows.is_empty() && at.1 <= windows.len() {
            let idx = windows[at.1 % windows.len()];
            at.1 += 1;
            return Some((epoch, idx));
        }
        std::thread::sleep(Duration::from_micros(50));
    }
}

/// Appends every batch through `CoreService::submit_append`, awaiting each
/// ticket before the next (batches must land in order).  Before each
/// batch it waits until the query connection has completed one query per
/// window of the current epoch (`served` carries the epochs of completed
/// queries), so every round queries every window of every epoch, whatever
/// the relative speed of appends and queries.
fn append_stream(
    service: &CoreService,
    ingest: &IngestPlan,
    deadline: Instant,
    acked: &AtomicUsize,
    served: &mpsc::Receiver<usize>,
) -> PhaseLog {
    let mut log = PhaseLog::default();
    for (j, batch) in ingest.batches.iter().enumerate() {
        let mut pending = ingest.epochs[j].len();
        while pending > 0 {
            let left = deadline.saturating_duration_since(Instant::now());
            match served.recv_timeout(left) {
                Ok(epoch) if epoch == j => pending -= 1,
                Ok(_) => {}
                // Deadline, or the query connection is gone.
                Err(_) => break,
            }
        }
        if Instant::now() >= deadline {
            break;
        }
        let events = batch.clone();
        log.batches_attempted += 1;
        let t0 = Instant::now();
        // tkc-lint: allow(no-blocking-in-worker) — the appender is a scoped benchmark thread, not an ExecPool worker
        let outcome = service.submit_append(events).and_then(|t| t.wait());
        match outcome {
            Ok(reply) => {
                log.batches.push(Batch {
                    latency: t0.elapsed(),
                    events: reply.stats.appended,
                    absorb: reply.absorb_time,
                    queue_wait: reply.queue_wait,
                    tail_invalidations: reply.stats.tail_invalidations,
                    sealed: reply.stats.sealed,
                });
                acked.store(j + 1, Ordering::SeqCst);
            }
            Err(e) => {
                *log.batch_errors.entry(e.code().to_string()).or_default() += 1;
            }
        }
    }
    log
}

/// The set-up warm's summed shard-skyline build time and entry count.
pub fn warm_builds(stack: &Stack) -> (Duration, u64) {
    let warm = stack.service.cache_stats().warm;
    (warm.build_time, warm.entries_built)
}

/// Absorbs the whole stream (untimed), for the traced replay.
pub fn absorb_all(stack: &Stack, ingest: &IngestPlan) -> Result<(), String> {
    for batch in &ingest.batches {
        stack
            .service
            .submit_append(batch.clone())
            .and_then(|ticket| ticket.wait())
            .map_err(|e| format!("append: {e}"))?;
    }
    Ok(())
}
