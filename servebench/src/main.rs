//! `servebench`: the repository's end-to-end benchmark.
//!
//! A single process generates the EM dataset analogue and a seeded
//! workload, starts the stack `tkc serve --shards 4 --workers 2` builds
//! (`CoreService::start_sharded` behind an in-process `TkServer` on
//! `127.0.0.1:0`), and drives it from closed-loop client connections over
//! loopback TCP.  Every reply is checked against an oracle computed
//! directly on the graph.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload inshard-count --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` the last stdout line reports the end-to-end metrics;
//! with `--trace 1` it reports the per-layer metrics of a traced run and
//! writes the run's spans to `servebench/out/`.  The line before it is a
//! host and input block.  A mismatch against the oracle, an unparseable
//! reply or a failed self-check exits nonzero.

#![forbid(unsafe_code)]

mod client;
mod gen;
mod oracle;
mod phase;
mod replay;
mod stack;
mod stats;

use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use temporal_graph::{AppendableGraph, TemporalGraph};

use crate::gen::{Dataset, Plan, Workload};
use crate::phase::PhaseLog;
use crate::stack::Stack;
use crate::stats::{median, quantile, ratio, us};

/// Set-ups per run of a query workload; `setup_s` is their median.
const SETUP_REPS: usize = 11;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut workload = None;
        let mut seed = 1u64;
        let mut seconds = 10.0f64;
        let mut trace = false;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(&value).ok_or(format!(
                        "unknown workload `{value}` (inshard-count, spanning-cores, ingest-tail)"
                    ))?)
                }
                "--seed" => seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
                "--seconds" => {
                    seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| *s > 0.0)
                        .ok_or(format!("bad --seconds `{value}`"))?
                }
                "--trace" => trace = value == "1",
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// A metric as it goes into the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// The host and input block.
    block: String,
}

fn main() {
    let outcome = Args::parse().and_then(|args| run(&args));
    let mut out = std::io::stdout().lock();
    match outcome {
        Ok(outcome) => {
            let metrics: Vec<String> = outcome
                .metrics
                .iter()
                .map(|m| {
                    format!(
                        "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                        m.name,
                        stats::num(m.value),
                        m.unit
                    )
                })
                .collect();
            let result = format!(
                "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
                outcome.correct,
                outcome.attempted,
                outcome.failed,
                metrics.join(",")
            );
            let _ = writeln!(out, "{}\n{result}", outcome.block);
            let _ = out.flush();
            std::process::exit(if outcome.correct { 0 } else { 1 });
        }
        Err(e) => {
            let _ = writeln!(std::io::stderr(), "servebench: {e}");
            std::process::exit(2);
        }
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let data = Dataset::em();
    let plan = Plan::generate(args.workload, &data, args.seed);
    gen::self_check(&plan, &data, args.seed).map_err(|e| format!("self-check: {e}"))?;
    let lines: Vec<String> = plan
        .requests
        .iter()
        .enumerate()
        .map(|(i, r)| r.line(i) + "\n")
        .collect();
    let epoch = Instant::now();
    // The traced run splits its time between an untraced and a traced
    // phase, so `trace.overhead_ratio` compares like with like.
    let untraced_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };

    let (stack, untraced) = match plan.ingest {
        None => {
            let (stack, setup) = Stack::start(&plan)?;
            let setup_rss = stats::peak_rss_mib();
            let mut log = phase::queries(&stack, &plan, &lines, untraced_s, false, epoch);
            log.setups.push(setup);
            log.setup_rss = Some(setup_rss);
            log.warm_builds.push(phase::warm_builds(&stack));
            (Some(stack), log)
        }
        Some(_) => (
            None,
            phase::ingest(&plan, &lines, untraced_s, false, epoch)?,
        ),
    };
    let traced = if args.trace {
        Some(match &stack {
            Some(stack) => phase::queries(stack, &plan, &lines, args.seconds / 2.0, true, epoch),
            None => phase::ingest(&plan, &lines, args.seconds / 2.0, true, epoch)?,
        })
    } else {
        None
    };
    let peak_rss = stats::peak_rss_mib();

    // The oracle, outside every timed region.  `ingest-tail` windows end
    // below the watermark at send time, so the final snapshot answers them.
    let graph = match &plan.ingest {
        None => data.graph.clone(),
        Some(ingest) => final_snapshot(&data.graph, &ingest.batches)?,
    };
    let expected = oracle::answers(&graph, &plan.requests);
    let mut mismatches = oracle::check_bodies(&untraced.conn.outcomes, &plan.requests, &expected);
    if let Some(traced) = &traced {
        mismatches.extend(oracle::check_bodies(
            &traced.conn.outcomes,
            &plan.requests,
            &expected,
        ));
    }

    let replay = if args.trace {
        let replay_stack = match stack {
            Some(stack) => stack,
            None => {
                let (stack, _) = Stack::start(&plan)?;
                if let Some(ingest) = &plan.ingest {
                    phase::absorb_all(&stack, ingest)?;
                }
                stack
            }
        };
        let replay = replay::run(&replay_stack, &plan, &lines, &expected);
        replay_stack.stop()?;
        mismatches.extend(replay.mismatches.iter().cloned());
        Some(replay)
    } else {
        if let Some(stack) = stack {
            stack.stop()?;
        }
        None
    };

    let untraced_p50 = quantile(&us(&untraced.conn.rtt_ns), 0.5);
    let untraced_ingest = ingest_summary(&untraced);
    let untraced_queries = untraced.conn.rtt_ns.len();
    let mut e2e = end_to_end(&untraced, &expected);
    let mut all = PhaseLog::default();
    all.merge(untraced);
    let layers = match (traced, &replay) {
        (Some(traced), Some(replay)) => {
            let mut layers = per_layer(&traced, replay, untraced_p50, untraced_ingest);
            layers.push(metric("process.peak_rss_mib", peak_rss, "MiB"));
            all.merge(traced);
            Some(layers)
        }
        _ => None,
    };
    // More set-ups for a steady `setup_s`, after the memory readings so
    // they cannot raise them; each is stopped before the next starts.
    while all.setups.len() < SETUP_REPS {
        let (stack, setup) = Stack::start(&plan)?;
        all.setups.push(setup);
        all.warm_builds.push(phase::warm_builds(&stack));
        stack.stop()?;
    }
    let setup_s: Vec<f64> = all.setups.iter().map(Duration::as_secs_f64).collect();
    e2e.insert(0, metric("setup_s", median(&setup_s), "s"));
    let layers = layers.map(|mut layers| {
        let (build_time, built) = all
            .warm_builds
            .iter()
            .fold((Duration::ZERO, 0), |(t, n), &(bt, bn)| (t + bt, n + bn));
        layers.push(metric(
            "ecs.build_ms",
            ratio(build_time.as_secs_f64() * 1e3, built as f64),
            "ms",
        ));
        layers
    });

    // Failure accounting: error replies by code, dropped connections and
    // rejected batches, cross-checked against the service's own ledger.
    let mut errors = all.conn.errors.clone();
    for (code, n) in &all.batch_errors {
        *errors.entry(code.clone()).or_default() += n;
    }
    let refused = errors.get("BudgetExceeded").copied().unwrap_or(0)
        + errors.get("DeadlineExceeded").copied().unwrap_or(0);
    let ledger = all.deltas.rejected + all.deltas.shed;
    if refused != ledger {
        mismatches.push(format!(
            "client saw {refused} refused/shed replies, the service counted {ledger}"
        ));
    }
    for line in all.conn.malformed.iter().take(3) {
        mismatches.push(format!("unparseable reply `{line}`"));
    }
    if !all.conn.malformed.is_empty() {
        mismatches.push(format!("{} unparseable replies", all.conn.malformed.len()));
    }
    let attempted = all.conn.attempted + all.batches_attempted;
    let failed = all.conn.error_replies() + all.conn.dropped + all.rejected_batches();

    let block = host_block(
        args,
        &data,
        &plan,
        &e2e,
        &all,
        &errors,
        untraced_queries,
        layers.as_ref(),
    );
    let mut log = std::io::stderr().lock();
    for m in e2e.iter().chain(layers.iter().flatten()) {
        let _ = writeln!(log, "{:>28} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for mismatch in &mismatches {
        let _ = writeln!(log, "MISMATCH: {mismatch}");
    }
    if args.trace {
        write_trace(args, &block, &all)?;
    }
    Ok(Outcome {
        correct: mismatches.is_empty(),
        attempted: attempted.max(1),
        failed,
        metrics: layers.unwrap_or(e2e),
        block,
    })
}

/// The base graph with the whole append stream applied.
fn final_snapshot(
    base: &TemporalGraph,
    batches: &[Vec<tkcore::IngestEvent>],
) -> Result<TemporalGraph, String> {
    let mut appendable = AppendableGraph::from_graph(base.clone());
    for batch in batches {
        appendable
            .append_batch(batch)
            .map_err(|e| format!("oracle append: {e}"))?;
    }
    Ok((*appendable.publish()).clone())
}

/// The end-to-end metrics of an untraced phase (`setup_s` aside).
fn end_to_end(log: &PhaseLog, expected: &[oracle::Answer]) -> Vec<Metric> {
    let rtt = us(&log.conn.rtt_ns);
    let active = log.active.as_secs_f64();
    let result_edges: u64 = log
        .conn
        .ok
        .iter()
        .map(|&i| oracle::result_edges(&expected[i as usize]))
        .sum();
    let attempted = (log.conn.attempted + log.batches_attempted) as f64;
    let failed = (log.conn.error_replies() + log.conn.dropped + log.rejected_batches()) as f64;
    vec![
        metric("query_p50_us", quantile(&rtt, 0.5), "us"),
        metric("query_p99_us", quantile(&rtt, 0.99), "us"),
        metric(
            "queries_per_s",
            ratio(log.conn.ok.len() as f64, active),
            "1/s",
        ),
        metric(
            "result_edges_per_s",
            ratio(result_edges as f64, active),
            "1/s",
        ),
        metric("ok_ratio", ratio(attempted - failed, attempted), "ratio"),
        metric("setup_rss_mib", log.setup_rss.unwrap_or(0.0), "MiB"),
    ]
}

/// `(events/s, batch p50 µs, batch p99 µs)` of a phase's appends.
fn ingest_summary(log: &PhaseLog) -> (f64, f64, f64) {
    let latency: Vec<f64> = log
        .batches
        .iter()
        .map(|b| b.latency.as_secs_f64() * 1e6)
        .collect();
    let events: usize = log.batches.iter().map(|b| b.events).sum();
    let busy: f64 = latency.iter().sum::<f64>() / 1e6;
    (
        ratio(events as f64, busy),
        quantile(&latency, 0.5),
        quantile(&latency, 0.99),
    )
}

fn per_layer(
    log: &PhaseLog,
    replay: &replay::Replay,
    untraced_p50: f64,
    ingest: (f64, f64, f64),
) -> Vec<Metric> {
    let rtt = us(&log.conn.rtt_ns);
    let query_p50 = quantile(&rtt, 0.5);
    let frontend: Vec<f64> = log
        .conn
        .rtt_ns
        .iter()
        .zip(&log.conn.server_us)
        .map(|(&rtt, &(q, e))| rtt as f64 / 1e3 - (q + e) as f64)
        .collect();
    let queue: Vec<f64> = log.conn.server_us.iter().map(|&(q, _)| q as f64).collect();
    let exec: Vec<f64> = log.conn.server_us.iter().map(|&(_, e)| e as f64).collect();
    let bytes: Vec<f64> = log.conn.reply_bytes.iter().map(|&b| b as f64).collect();
    let d = log.deltas;
    let absorb: Vec<f64> = log
        .batches
        .iter()
        .map(|b| b.absorb.as_secs_f64() * 1e6)
        .collect();
    let ingest_queue: Vec<f64> = log
        .batches
        .iter()
        .map(|b| b.queue_wait.as_secs_f64() * 1e6)
        .collect();
    let frontend_p50 = median(&frontend);
    vec![
        metric("server.ping_p50_us", median(&us(&log.conn.ping_ns)), "us"),
        metric("server.frontend_p50_us", frontend_p50, "us"),
        metric(
            "server.frontend_share",
            ratio(frontend_p50, query_p50),
            "ratio",
        ),
        metric("wire.parse_p50_us", median(&replay.parse_us), "us"),
        metric("wire.render_p50_us", median(&replay.render_us), "us"),
        metric("wire.reply_bytes", median(&bytes), "bytes"),
        metric("service.submit_p50_us", median(&replay.submit_us), "us"),
        metric("service.handoff_p50_us", median(&replay.handoff_us), "us"),
        metric("service.queue_wait_p50_us", median(&queue), "us"),
        metric("service.queue_wait_p99_us", quantile(&queue, 0.99), "us"),
        metric("service.execute_p50_us", median(&exec), "us"),
        metric("service.execute_p99_us", quantile(&exec, 0.99), "us"),
        metric("service.rejected", d.rejected as f64, "count"),
        metric("service.shed", d.shed as f64, "count"),
        metric(
            "shard.precompute_p50_us",
            median(&replay.precompute_us),
            "us",
        ),
        metric("shard.enumerate_p50_us", median(&replay.enumerate_us), "us"),
        metric(
            "shard.cache_hit_ratio",
            ratio(d.hits as f64, (d.hits + d.misses) as f64),
            "ratio",
        ),
        metric("shard.builds", d.builds as f64, "count"),
        metric(
            "shard.stitch_hit_ratio",
            ratio(
                d.stitch_hits as f64,
                (d.stitch_hits + d.stitch_builds) as f64,
            ),
            "ratio",
        ),
        metric("ecs.restrict_p50_us", median(&replay.restrict_us), "us"),
        metric(
            "enumerate.ns_per_result_edge",
            ratio(
                replay.enumerate_total.as_secs_f64() * 1e9,
                replay.result_edges_total as f64,
            ),
            "ns",
        ),
        metric("ingest.events_per_s", ingest.0, "1/s"),
        metric("ingest.batch_p50_us", ingest.1, "us"),
        metric("ingest.batch_p99_us", ingest.2, "us"),
        metric("ingest.absorb_p50_us", median(&absorb), "us"),
        metric("ingest.absorb_p99_us", quantile(&absorb, 0.99), "us"),
        metric("ingest.queue_wait_p50_us", median(&ingest_queue), "us"),
        metric(
            "ingest.tail_invalidations",
            log.batches
                .iter()
                .map(|b| b.tail_invalidations)
                .sum::<u64>() as f64,
            "count",
        ),
        metric(
            "ingest.seals",
            log.batches.iter().filter(|b| b.sealed).count() as f64,
            "count",
        ),
        metric(
            "trace.overhead_ratio",
            ratio(query_p50, untraced_p50),
            "ratio",
        ),
    ]
}

/// The host and input block printed with every result.
#[allow(clippy::too_many_arguments)]
fn host_block(
    args: &Args,
    data: &Dataset,
    plan: &Plan,
    e2e: &[Metric],
    all: &PhaseLog,
    errors: &BTreeMap<String, u64>,
    untraced_queries: usize,
    layers: Option<&Vec<Metric>>,
) -> String {
    let ks: Vec<String> = plan.ks().iter().map(usize::to_string).collect();
    let errors: Vec<String> = errors.iter().map(|(c, n)| format!("\"{c}\":{n}")).collect();
    let stream_events: usize = plan
        .ingest
        .as_ref()
        .map_or(0, |i| i.batches.iter().map(Vec::len).sum());
    let e2e_values: Vec<String> = e2e
        .iter()
        .map(|m| format!("\"{}\":{}", m.name, stats::num(m.value)))
        .collect();
    let samples = format!(
        "\"query_rtt\":{untraced_queries},\"setups\":{},\"traced_query_rtt\":{},\"pings\":{},\
         \"append_batches\":{},\"replay_requests\":{}",
        all.setups.len(),
        all.conn.server_us.len(),
        all.conn.ping_ns.len(),
        all.batches.len(),
        layers.map_or(0, |_| plan.requests.len()),
    );
    format!(
        "{{\"host\":{{\"cpus\":{},\"profile\":\"{}\",\"os\":\"{}\",\"arch\":\"{}\"}},\
         \"input\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"dataset\":\"EM\",\
         \"vertices\":{},\"edges\":{},\"tmax\":{},\"kmax\":{},\"k\":[{}],\"window_len\":{},\"shards\":{},\
         \"service_workers\":{},\"connections\":{},\"distinct_requests\":{},\"stream_events\":{},\
         \"seal_edges\":{}}},\"samples\":{{{samples}}},\"errors\":{{{}}},\"dropped\":{},\
         \"rejected_batches\":{},\"end_to_end\":{{{}}}}}",
        stats::cpus(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        std::env::consts::OS,
        std::env::consts::ARCH,
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        data.stats.num_vertices,
        data.stats.num_edges,
        data.stats.tmax,
        data.stats.kmax,
        ks.join(","),
        data.window_len,
        gen::SHARDS,
        stack::WORKERS,
        args.workload.connections(),
        plan.requests.len(),
        stream_events,
        gen::SEAL_EDGES,
        errors.join(","),
        all.conn.dropped,
        all.rejected_batches(),
        e2e_values.join(","),
    )
}

/// Writes the traced run's spans, one JSON object per line, after the
/// host block.
fn write_trace(args: &Args, block: &str, all: &PhaseLog) -> Result<(), String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("trace dir: {e}"))?;
    let path = dir.join(format!(
        "trace-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    let write = |out: &mut std::io::BufWriter<std::fs::File>| -> std::io::Result<()> {
        writeln!(out, "{block}")?;
        for s in &all.conn.spans {
            writeln!(
                out,
                "{{\"trace\":{},\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.trace, s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    };
    write(&mut out).map_err(|e| format!("{}: {e}", path.display()))
}
