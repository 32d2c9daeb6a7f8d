//! Generators and helpers shared by the integration tests: the property
//! harnesses (`properties`, `flat_skyline`, `query_request`), the stack
//! model (`stack_model`), and the one blocking TCP client and reply reader
//! that `stack_model` and `tcp_serving` speak the wire protocol through.
//!
//! Each integration test is its own crate and uses a different subset of
//! these helpers, hence the crate-wide `dead_code` allowance.

#![allow(dead_code)]

use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use temporal_kcore::prelude::*;
use temporal_kcore::temporal_graph::EdgeId;
use temporal_kcore::tkcore::paper_example;
use temporal_kcore::tkcore::wire;

/// Label events: `(u, v, t)` triples in label space.
pub type Events = Vec<(u64, u64, Timestamp)>;

/// Strategy: a random temporal graph with up to `max_v` vertices, up to
/// `max_e` edges and up to `max_t` distinct timestamps.
pub fn arb_graph(max_v: u64, max_e: usize, max_t: i64) -> impl Strategy<Value = TemporalGraph> {
    prop::collection::vec((0..max_v, 0..max_v, 1..=max_t), 1..max_e).prop_filter_map(
        "graph must have at least one non-loop edge",
        |edges| {
            let edges: Vec<(u64, u64, i64)> =
                edges.into_iter().filter(|(u, v, _)| u != v).collect();
            if edges.is_empty() {
                return None;
            }
            TemporalGraphBuilder::new().with_edges(edges).build().ok()
        },
    )
}

/// Builds a graph from raw `(u, v, t)` label events without timestamp
/// compression, so the rebuilt timeline matches the appended one.
pub fn raw_graph(events: &[(u64, u64, Timestamp)]) -> TemporalGraph {
    TemporalGraphBuilder::new()
        .timestamp_mode(TimestampMode::Raw)
        .with_edges(events.iter().map(|&(u, v, t)| (u, v, i64::from(t))))
        .build()
        .expect("harness events form a valid graph")
}

/// Cores sorted by `(TTI, edges)`, so result sets compare independently of
/// emission order.
pub fn canonical(mut cores: Vec<TemporalKCore>) -> Vec<TemporalKCore> {
    cores.sort_by(|a, b| a.tti.cmp(&b.tti).then_with(|| a.edges.cmp(&b.edges)));
    cores
}

/// A core in label space: its TTI plus `(min_label, max_label, t)` per
/// edge.  Vertex *ids* differ between an appended graph (first-seen label
/// order) and a from-scratch rebuild (sorted label order), so answers of
/// the two are compared on labels, which both sides preserve.
pub type LabelCore = (TimeWindow, Vec<(u64, u64, Timestamp)>);

/// `cores` of `graph` in label space, sorted.
pub fn label_cores(graph: &TemporalGraph, cores: &[TemporalKCore]) -> Vec<LabelCore> {
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

/// A stream sink recording into a collector the caller keeps a handle to.
pub struct SharedSink(pub Arc<Mutex<CollectingSink>>);

impl ResultSink for SharedSink {
    fn emit(&mut self, tti: TimeWindow, edges: &[EdgeId]) {
        self.0.lock().unwrap().emit(tti, edges);
    }
}

/// Streams `query` through `engine`: the cores in emission order, plus the
/// query's stats.
pub fn streamed(
    engine: &ShardedEngine,
    query: TimeRangeKCoreQuery,
) -> Result<(Vec<TemporalKCore>, QueryStats), TkError> {
    let collected = Arc::new(Mutex::new(CollectingSink::default()));
    let request = QueryRequest::from(query).stream(Box::new(SharedSink(Arc::clone(&collected))));
    let stats = engine.execute(request)?.outcomes[0].stats;
    let cores = std::mem::take(&mut collected.lock().unwrap().cores);
    Ok((cores, stats))
}

/// Derives a shard plan from two random parameters (`kind` in `0..5`),
/// covering every [`ShardPlan`] variant including the degenerate layouts:
/// the unsharded span and one shard per timestamp.
pub fn plan_for(kind: u8, param: usize, tmax: Timestamp) -> ShardPlan {
    match kind % 5 {
        0 => ShardPlan::Span,
        1 => ShardPlan::FixedCount(2 + param % 5),
        // One shard per timestamp: every inter-timestamp boundary is a cut.
        2 => ShardPlan::FixedCount(tmax as usize),
        3 => ShardPlan::TargetEdgesPerShard(1 + param % 7),
        _ => {
            // An explicit cut roughly mid-span (no cut on a 1-long span).
            let mid = tmax / 2;
            if mid >= 1 && mid < tmax {
                ShardPlan::ExplicitCuts(vec![mid])
            } else {
                ShardPlan::ExplicitCuts(vec![])
            }
        }
    }
}

/// A random sub-window of the graph's span (degenerate single-timestamp
/// windows included via `raw_len = 0`).
pub fn window_in_span(g: &TemporalGraph, raw_start: u32, raw_len: u32) -> TimeWindow {
    let start = raw_start.max(1).min(g.tmax());
    TimeWindow::new(start, (start + raw_len).min(g.tmax()))
}

/// A server's accept loop, running on its own thread.
pub type Acceptor = JoinHandle<Result<ServeSummary, TkError>>;

/// A `TkServer` with `config` over `service` on an ephemeral loopback port,
/// its accept loop on its own thread (integration tests are exempt from
/// the no-raw-threads rule; everything else rides the server's pools).
pub fn serve(service: Arc<CoreService>, config: ServerConfig) -> (Arc<TkServer>, Acceptor) {
    let server = Arc::new(TkServer::bind(service, "127.0.0.1:0", config).unwrap());
    let acceptor = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve())
    };
    (server, acceptor)
}

/// A default service over the paper example behind a `TkServer` with
/// `config`.
pub fn start_server_with(config: ServerConfig) -> (Arc<CoreService>, Arc<TkServer>, Acceptor) {
    let service = Arc::new(
        CoreService::start_sharded(
            paper_example::graph(),
            ShardPlan::Span,
            ServiceConfig::default(),
        )
        .unwrap(),
    );
    let (server, acceptor) = serve(Arc::clone(&service), config);
    (service, server, acceptor)
}

/// Stops `server` and joins its accept loop, which must return `Ok`.
pub fn stop(server: &TkServer, acceptor: Acceptor) {
    server.stop();
    acceptor
        .join()
        .expect("acceptor thread exits cleanly")
        .expect("serve returns Ok on stop");
}

/// Connects to `addr` with `TCP_NODELAY` set, so a request line the test
/// sends leaves at once and only the server can stall a round trip; the
/// reader reads the replies.
pub fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

/// Sends `line` and its newline in one write on `stream` and reads the
/// single reply line.
pub fn round_trip(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("send");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("reply");
    assert!(
        reply.ends_with('\n'),
        "replies are line-delimited: {reply:?}"
    );
    reply.trim_end().to_string()
}

/// The per-`k` `(k, cores, result_edges, sample)` of a parsed ok reply
/// line, each sample entry as `(tti start, tti end, edges)`; the sample is
/// `None` in a `"count"` reply.
pub type ParsedOutcome = (u64, u64, u64, Option<Vec<(u64, u64, u64)>>);

/// The outcomes of an ok reply line, read through `wire::parse_json`.
pub fn parse_outcomes(reply: &str) -> Vec<ParsedOutcome> {
    let value = wire::parse_json(reply).expect("replies are JSON");
    let Some(wire::JsonValue::Array(outcomes)) = value.get("outcomes") else {
        panic!("no outcomes in {reply}");
    };
    let number = |v: &wire::JsonValue, key: &str| {
        v.get(key)
            .and_then(wire::JsonValue::as_u64)
            .unwrap_or_else(|| panic!("no `{key}` in {reply}"))
    };
    outcomes
        .iter()
        .map(|outcome| {
            let sample = outcome.get("sample").map(|sample| {
                let wire::JsonValue::Array(sample) = sample else {
                    panic!("a sample that is not an array: {reply}");
                };
                sample
                    .iter()
                    .map(|entry| {
                        let Some(wire::JsonValue::Array(tti)) = entry.get("tti") else {
                            panic!("a sample entry without a tti: {reply}");
                        };
                        let bound = |i: usize| tti[i].as_u64().expect("integer tti bound");
                        (bound(0), bound(1), number(entry, "edges"))
                    })
                    .collect()
            });
            (
                number(outcome, "k"),
                number(outcome, "cores"),
                number(outcome, "result_edges"),
                sample,
            )
        })
        .collect()
}

/// The `"error"` code of a reply line, or `None` for an ok reply.
pub fn error_code(reply: &str) -> Option<String> {
    let value = wire::parse_json(reply).expect("replies are JSON");
    match value.get("status").and_then(wire::JsonValue::as_str) {
        Some("ok") => None,
        Some("error") => Some(
            value
                .get("error")
                .and_then(wire::JsonValue::as_str)
                .unwrap_or_else(|| panic!("an error reply without a code: {reply}"))
                .to_string(),
        ),
        _ => panic!("a reply without a status: {reply}"),
    }
}
