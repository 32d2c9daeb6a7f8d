//! The traced run's in-process replay: each distinct request line goes
//! through `wire::parse_request` → `CoreService::submit_opts` →
//! `Ticket::wait` → `wire::render_reply` on the warmed service, with every
//! call timed from outside and the per-`k` `QueryStats` read back.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use temporal_graph::TimeWindow;
use tkcore::wire::{self, WireConfig, WireRequest};
use tkcore::{EdgeCoreSkyline, SkylineScratch, SubmitOptions};

use crate::gen::Plan;
use crate::oracle::{self, Answer};
use crate::stack::Stack;

/// Timed samples to aim for per metric.
const TARGET_SAMPLES: usize = 400;

#[derive(Debug, Default)]
pub struct Replay {
    pub parse_us: Vec<f64>,
    pub submit_us: Vec<f64>,
    pub handoff_us: Vec<f64>,
    pub render_us: Vec<f64>,
    /// Per request, summed over its `k` values.
    pub precompute_us: Vec<f64>,
    pub enumerate_us: Vec<f64>,
    pub restrict_us: Vec<f64>,
    pub enumerate_total: Duration,
    pub result_edges_total: u64,
    pub mismatches: Vec<String>,
}

fn elapsed_us(t0: Instant, t1: Instant) -> f64 {
    (t1 - t0).as_secs_f64() * 1e6
}

/// Replays every request of the plan on `stack` (one untimed warm pass,
/// then enough timed passes for [`TARGET_SAMPLES`]), checking each reply
/// against `expected`.
pub fn run(stack: &Stack, plan: &Plan, lines: &[String], expected: &[Answer]) -> Replay {
    let mut out = Replay::default();
    let passes = 1 + TARGET_SAMPLES.div_ceil(lines.len().max(1));
    for pass in 0..passes {
        for (idx, line) in lines.iter().enumerate() {
            let timed = pass > 0;
            if let Err(e) = replay_one(stack, plan, idx, line.trim_end(), expected, timed, &mut out)
            {
                out.mismatches
                    .push(format!("replay of `{}`: {e}", line.trim_end()));
            }
        }
    }
    restrict(stack, plan, passes - 1, &mut out);
    out
}

fn replay_one(
    stack: &Stack,
    plan: &Plan,
    idx: usize,
    line: &str,
    expected: &[Answer],
    timed: bool,
    out: &mut Replay,
) -> Result<(), String> {
    let t0 = Instant::now();
    let parsed = wire::parse_request(black_box(line));
    let t1 = Instant::now();
    let Ok(WireRequest::Query(query)) = parsed else {
        return Err("not a query line".into());
    };
    let opts = SubmitOptions {
        algorithm: query.algorithm,
        lane: query.lane,
        deadline: query.deadline,
    };
    let t2 = Instant::now();
    let ticket = stack.service.submit_opts(query.request, opts);
    let t3 = Instant::now();
    let reply = ticket.and_then(|t| t.wait()).map_err(|e| e.to_string())?;
    let t4 = Instant::now();
    let rendered = wire::render_reply(query.client_id, &reply, &WireConfig::default());
    let t5 = Instant::now();
    black_box(rendered.len());
    let request = &plan.requests[idx];
    let answer = &expected[idx];
    if !oracle::check_response(&reply.response, request, answer) {
        return Err(format!("reply disagrees with the oracle {answer:?}"));
    }
    if timed {
        out.parse_us.push(elapsed_us(t0, t1));
        out.submit_us.push(elapsed_us(t2, t3));
        let inside = (reply.queue_wait + reply.execute_time).as_secs_f64() * 1e6;
        out.handoff_us.push((elapsed_us(t3, t4) - inside).max(0.0));
        out.render_us.push(elapsed_us(t4, t5));
        let outcomes = &reply.response.outcomes;
        let precompute: Duration = outcomes.iter().map(|o| o.stats.precompute_time).sum();
        let enumerate: Duration = outcomes.iter().map(|o| o.stats.enumerate_time).sum();
        out.precompute_us.push(precompute.as_secs_f64() * 1e6);
        out.enumerate_us.push(enumerate.as_secs_f64() * 1e6);
        out.enumerate_total += enumerate;
        out.result_edges_total += reply.response.total_result_edges();
    }
    Ok(())
}

/// `EdgeCoreSkyline::restrict_with` called directly on the benchmark's own
/// copy of each shard skyline, for every part of every request's window.
fn restrict(stack: &Stack, plan: &Plan, passes: usize, out: &mut Replay) {
    let graph = stack.engine().graph();
    let shards = stack.engine().shards();
    let mut skylines: HashMap<(usize, usize), EdgeCoreSkyline> = HashMap::new();
    let mut scratch = SkylineScratch::default();
    for _ in 0..passes {
        for request in &plan.requests {
            let window = request.window();
            let parts: Vec<(usize, TimeWindow)> = shards
                .iter()
                .enumerate()
                .filter_map(|(s, shard)| shard.intersect(&window).map(|part| (s, part)))
                .collect();
            for &(s, _) in &parts {
                for k in request.ks() {
                    skylines
                        .entry((s, k))
                        .or_insert_with(|| EdgeCoreSkyline::build(&graph, k, shards[s]));
                }
            }
            let t0 = Instant::now();
            for &(s, part) in &parts {
                for k in request.ks() {
                    let restricted = skylines[&(s, k)].restrict_with(&graph, part, &mut scratch);
                    scratch.recycle(black_box(restricted));
                }
            }
            out.restrict_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
}
