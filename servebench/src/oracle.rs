//! The oracle: per-`k` core counts and result sizes computed directly on
//! the graph with `TimeRangeKCoreQuery::run_with(.., Algorithm::Enum, ..)`,
//! never through the engine, the service or the wire.

use std::collections::HashMap;

use temporal_graph::TemporalGraph;
use tkcore::wire::{parse_json, JsonValue, WireConfig};
use tkcore::{Algorithm, CountingSink, QueryResponse, TimeRangeKCoreQuery};

use crate::gen::Request;

/// `(k, cores, result_edges)` per `k` of one request.
pub type Answer = Vec<(usize, u64, u64)>;

pub fn answer(graph: &TemporalGraph, request: &Request) -> Answer {
    request
        .ks()
        .map(|k| {
            let mut sink = CountingSink::default();
            TimeRangeKCoreQuery::new(k, request.window())
                .expect("generated k is at least 1")
                .run_with(graph, Algorithm::Enum, &mut sink);
            (k, sink.num_cores, sink.total_edges)
        })
        .collect()
}

/// Answers for every request, indexed like `requests`.
pub fn answers(graph: &TemporalGraph, requests: &[Request]) -> Vec<Answer> {
    requests.iter().map(|r| answer(graph, r)).collect()
}

/// Total result edges of an answer.
pub fn result_edges(answer: &Answer) -> u64 {
    answer.iter().map(|&(_, _, edges)| edges).sum()
}

/// Checks every distinct reply `"outcomes"` body against the oracle;
/// returns one description per mismatch.
pub fn check_bodies(
    bodies: &HashMap<u32, Vec<String>>,
    requests: &[Request],
    expected: &[Answer],
) -> Vec<String> {
    let mut mismatches = Vec::new();
    for (idx, variants) in bodies {
        let (request, answer) = (&requests[*idx as usize], &expected[*idx as usize]);
        for body in variants {
            match parse_body(body, request.cores) {
                Ok(got) if got == *answer => {}
                Ok(got) => mismatches.push(format!(
                    "request {} k={}..={}: got {got:?}, oracle {answer:?}",
                    request.window(),
                    request.k_min,
                    request.k_max,
                )),
                Err(e) => mismatches.push(format!("unparseable outcomes `{body}`: {e}")),
            }
        }
    }
    mismatches
}

/// Checks an in-process reply against the oracle.
pub fn check_response(response: &QueryResponse, request: &Request, expected: &Answer) -> bool {
    let got: Answer = response
        .outcomes
        .iter()
        .map(|o| match &o.output {
            tkcore::KOutput::Cores(cores) => (
                o.k,
                cores.len() as u64,
                cores.iter().map(|c| c.num_edges() as u64).sum(),
            ),
            tkcore::KOutput::Counts(counts) => (o.k, counts.num_cores, counts.total_edges),
            tkcore::KOutput::Streamed => (o.k, o.stats.num_cores, o.stats.total_result_edges),
        })
        .collect();
    got == *expected && request.ks().count() == got.len()
}

fn parse_body(body: &str, cores: bool) -> Result<Answer, String> {
    let JsonValue::Array(items) = parse_json(&format!("[{body}]"))? else {
        return Err("not an array".into());
    };
    let cap = WireConfig::default().max_cores_per_reply as u64;
    items
        .iter()
        .map(|item| {
            let get = |key: &str| {
                item.get(key)
                    .and_then(JsonValue::as_u64)
                    .ok_or(format!("missing `{key}`"))
            };
            let (k, n, edges) = (get("k")?, get("cores")?, get("result_edges")?);
            if cores {
                let Some(JsonValue::Array(sample)) = item.get("sample") else {
                    return Err("a cores reply without a sample".into());
                };
                if sample.len() as u64 != n.min(cap) {
                    return Err(format!("{} sampled cores of {n}", sample.len()));
                }
            }
            Ok((k as usize, n, edges))
        })
        .collect()
}
