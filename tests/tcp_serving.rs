//! In-process round trip through the TCP front end: a `TkServer` on an
//! ephemeral loopback port serves pings, queries (including a
//! deadline-expired one, which is an error *reply*, not a dropped
//! connection), stats and malformed lines, then drains gracefully on the
//! `shutdown` op.  Hostile input — cut, deeply nested, over-long and
//! non-UTF-8 lines — gets a typed `BadRequest` reply at each limit's
//! boundary.
//!
//! The server's accept loop runs on a plain test thread (integration tests
//! are exempt from the no-raw-threads rule); everything else rides the
//! server's own pools.

mod common;

use common::{connect, parse_outcomes, round_trip, start_server_with, stop, Acceptor};
use std::io::{BufRead, Write};
use std::sync::Arc;
use temporal_kcore::prelude::*;
use temporal_kcore::tkcore::wire::{self, WireConfig};
use temporal_kcore::tkcore::{naive_results, paper_example};

/// A default service over the paper example behind a default `TkServer`
/// on an ephemeral loopback port, its accept loop on its own thread.
fn start_server() -> (Arc<CoreService>, Arc<TkServer>, Acceptor) {
    start_server_with(ServerConfig::default())
}

#[test]
fn tcp_round_trip_serves_queries_deadlines_and_drains() {
    let (service, server, acceptor) = start_server();
    let addr = server.local_addr();

    let (mut stream, mut reader) = connect(addr);

    // Liveness.
    let reply = round_trip(&mut stream, &mut reader, r#"{"op": "ping"}"#);
    assert_eq!(reply, r#"{"status":"ok","op":"ping"}"#);

    // A served query echoes the client id and counts the paper's 2-cores.
    let reply = round_trip(
        &mut stream,
        &mut reader,
        r#"{"id": 5, "k": 2, "start": 1, "end": 4}"#,
    );
    assert!(reply.starts_with(r#"{"status":"ok","id":5"#), "{reply}");
    assert!(reply.contains(r#""outcomes":[{"k":2,"cores":2"#), "{reply}");

    // A materialized batch-lane sweep embeds core samples.
    let reply = round_trip(
        &mut stream,
        &mut reader,
        r#"{"k_min": 1, "k_max": 2, "start": 1, "end": 4, "lane": "batch", "output": "cores"}"#,
    );
    assert!(reply.contains(r#""sample":[{"tti":"#), "{reply}");

    // An expired deadline is shed with a typed error reply on a live
    // connection — shedding is data, not a transport failure.
    let reply = round_trip(
        &mut stream,
        &mut reader,
        r#"{"id": 6, "k": 2, "start": 1, "end": 4, "deadline_ms": 0}"#,
    );
    assert!(reply.starts_with(r#"{"status":"error","id":6"#), "{reply}");
    assert!(reply.contains(r#""error":"DeadlineExceeded""#), "{reply}");

    // Malformed lines reply BadRequest and keep the connection open.
    let reply = round_trip(&mut stream, &mut reader, r#"{"k": 2, "start": 1}"#);
    assert!(reply.contains(r#""error":"BadRequest""#), "{reply}");
    let reply = round_trip(&mut stream, &mut reader, "not json at all");
    assert!(reply.contains(r#""error":"BadRequest""#), "{reply}");

    // The stats op reports the movement so far, broken out per lane: one
    // served interactive query (the shed zero-deadline one was never
    // admitted) and one served batch sweep.
    let reply = round_trip(&mut stream, &mut reader, r#"{"op": "stats"}"#);
    assert!(
        reply.contains(r#""lanes":{"interactive":{"admitted":1,"completed":1,"shed":1"#),
        "{reply}"
    );
    assert!(
        reply.contains(r#""batch":{"admitted":1,"completed":1"#),
        "{reply}"
    );

    // Graceful drain: the shutdown op is acked, then the server stops
    // accepting and `serve` returns once in-flight connections finish.
    let reply = round_trip(&mut stream, &mut reader, r#"{"op": "shutdown"}"#);
    assert_eq!(reply, r#"{"status":"ok","op":"shutdown"}"#);
    let summary = acceptor
        .join()
        .expect("acceptor thread exits cleanly")
        .expect("serve returns Ok on drain");
    assert_eq!(summary.connections, 1);
    assert_eq!(summary.requests, 8);

    // The service survives the server and still answers directly.
    let reply = service
        .submit(QueryRequest::single(2, 1, 4))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(reply.response.total_cores(), 2);
}

#[test]
fn a_cut_connection_gets_a_truncated_line_reply() {
    let (_service, server, acceptor) = start_server();
    let addr = server.local_addr();

    // Write half a request and hang up the sending side: the server must
    // name the truncation instead of silently dropping the fragment.
    let (mut stream, mut reader) = connect(addr);
    stream
        .write_all(br#"{"op": "ping""#)
        .expect("partial write");
    stream.flush().expect("flush");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("cut the sending half");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("reply");
    assert!(reply.contains(r#""error":"BadRequest""#), "{reply}");
    assert!(reply.contains("truncated final request line"), "{reply}");

    stop(&server, acceptor);
}

#[test]
fn a_huge_k_max_gets_a_typed_reply_and_the_connection_survives() {
    let (_service, server, acceptor) = start_server();
    let addr = server.local_addr();

    // Expanding this sweep would allocate one slot per k and abort the
    // whole server; it must be refused with a typed reply instead.
    let (mut stream, mut reader) = connect(addr);
    let reply = round_trip(
        &mut stream,
        &mut reader,
        r#"{"id": 9, "k_min": 1, "k_max": 9000000000000000, "start": 1, "end": 7}"#,
    );
    assert!(reply.starts_with(r#"{"status":"error","id":9"#), "{reply}");
    assert!(reply.contains(r#""error":"KOutOfRange""#), "{reply}");

    // The same connection still answers.
    let reply = round_trip(&mut stream, &mut reader, r#"{"op": "ping"}"#);
    assert_eq!(reply, r#"{"status":"ok","op":"ping"}"#);

    stop(&server, acceptor);
}

#[test]
fn a_baseline_algo_gets_a_typed_reply_and_the_connection_survives() {
    let (service, server, acceptor) = start_server();
    let (mut stream, mut reader) = connect(server.local_addr());

    // The server runs only Enum: a whole-span naive request is refused
    // before admission, without running the cubic oracle.
    let naive = r#"{"id": 4, "k": 2, "start": 1, "end": 7, "algo": "naive"}"#;
    let reply = round_trip(&mut stream, &mut reader, naive);
    assert!(reply.starts_with(r#"{"status":"error","id":4"#), "{reply}");
    assert!(
        reply.contains(r#""error":"UnsupportedAlgorithm""#),
        "{reply}"
    );
    assert_eq!(service.stats().admitted, 0, "refused before admission");

    // The same connection still answers.
    let reply = round_trip(&mut stream, &mut reader, r#"{"op": "ping"}"#);
    assert_eq!(reply, r#"{"status":"ok","op":"ping"}"#);

    stop(&server, acceptor);
}

#[test]
fn max_ks_per_request_accepts_its_cap_and_refuses_one_more() {
    let config = ServerConfig {
        wire: WireConfig {
            max_ks_per_request: 2,
            ..WireConfig::default()
        },
        ..ServerConfig::default()
    };
    let (_service, server, acceptor) = start_server_with(config);
    let (mut stream, mut reader) = connect(server.local_addr());

    let at_cap = r#"{"id":1,"k_min":1,"k_max":2,"start":1,"end":7,"output":"cores"}"#;
    let reply = round_trip(&mut stream, &mut reader, at_cap);
    assert!(reply.starts_with(r#"{"status":"ok","id":1"#), "{reply}");
    assert_eq!(parse_outcomes(&reply).len(), 2, "{reply}");
    for past_cap in [
        r#"{"id":2,"k_min":1,"k_max":3,"start":1,"end":7}"#,
        r#"{"id":2,"k_min":2,"k_max":4,"start":1,"end":7,"algo":"naive"}"#,
    ] {
        let reply = round_trip(&mut stream, &mut reader, past_cap);
        assert!(reply.starts_with(r#"{"status":"error","id":2"#), "{reply}");
        assert!(reply.contains(r#""error":"BudgetExceeded""#), "{reply}");
        assert!(reply.contains("k values per request"), "{reply}");
    }
    // A sweep past the vertex count is still refused as out of range.
    let huge = r#"{"id":3,"k_min":1,"k_max":9000000000000000,"start":1,"end":7}"#;
    let reply = round_trip(&mut stream, &mut reader, huge);
    assert!(reply.contains(r#""error":"KOutOfRange""#), "{reply}");
    let reply = round_trip(&mut stream, &mut reader, r#"{"op": "ping"}"#);
    assert_eq!(reply, r#"{"status":"ok","op":"ping"}"#);

    stop(&server, acceptor);
}

#[test]
fn a_deeply_nested_line_gets_a_bad_request_and_the_connection_survives() {
    let (_service, server, acceptor) = start_server();
    let (mut stream, mut reader) = connect(server.local_addr());

    // Recursing once per bracket would overflow the connection worker's
    // stack and abort the whole server.
    let deep = "[".repeat(200_000);
    let reply = round_trip(&mut stream, &mut reader, &deep);
    assert!(reply.contains(r#""error":"BadRequest""#), "{reply}");
    assert!(reply.contains("nesting deeper than"), "{reply}");

    // Nesting at the cap is still well-formed JSON (just not a request).
    let at_cap = format!(
        "{}{}",
        "[".repeat(wire::MAX_JSON_DEPTH),
        "]".repeat(wire::MAX_JSON_DEPTH)
    );
    let reply = round_trip(&mut stream, &mut reader, &at_cap);
    assert!(reply.contains(r#""error":"BadRequest""#), "{reply}");
    assert!(!reply.contains("nesting deeper than"), "{reply}");

    // The same connection still answers.
    let reply = round_trip(&mut stream, &mut reader, r#"{"op": "ping"}"#);
    assert_eq!(reply, r#"{"status":"ok","op":"ping"}"#);

    stop(&server, acceptor);
}

#[test]
fn a_line_exactly_at_max_line_bytes_gets_a_typed_reply() {
    let (_service, server, acceptor) = start_server();
    let (mut stream, mut reader) = connect(server.local_addr());

    // A query padded with JSON whitespace to exactly the cap, not counting
    // the newline.
    let head = r#"{"id": 7, "k": 2, "start": 1, "end": 4"#;
    let padding = wire::MAX_LINE_BYTES - head.len() - 1;
    let at_cap = format!("{head}{}}}", " ".repeat(padding));
    assert_eq!(at_cap.len(), wire::MAX_LINE_BYTES);
    let reply = round_trip(&mut stream, &mut reader, &at_cap);
    assert!(reply.starts_with(r#"{"status":"ok","id":7"#), "{reply}");

    // A line that is not UTF-8 is a malformed request, not a dropped
    // connection.
    stream.write_all(b"\xff\xfe\n").expect("send");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("reply");
    assert!(reply.contains(r#""error":"BadRequest""#), "{reply}");

    // The same connection still answers.
    let reply = round_trip(&mut stream, &mut reader, r#"{"op": "ping"}"#);
    assert_eq!(reply, r#"{"status":"ok","op":"ping"}"#);

    stop(&server, acceptor);
}

#[test]
fn a_line_past_max_line_bytes_gets_a_bad_request_and_then_eof() {
    let (_service, server, acceptor) = start_server();
    let (mut stream, mut reader) = connect(server.local_addr());
    // A server that keeps waiting for the newline fails the test here
    // instead of hanging it (the reader shares the stream's socket).
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .expect("read timeout");

    // One byte past the cap and no newline: the server must stop buffering
    // and answer instead of growing the line without bound.
    stream
        .write_all(&vec![b' '; wire::MAX_LINE_BYTES + 1])
        .expect("send");
    stream.flush().expect("flush");
    let mut reply = String::new();
    reader
        .read_line(&mut reply)
        .expect("reply before the timeout");
    assert!(reply.contains(r#""error":"BadRequest""#), "{reply}");
    assert!(
        reply.contains(&format!("longer than {} bytes", wire::MAX_LINE_BYTES)),
        "{reply}"
    );
    let mut rest = String::new();
    assert_eq!(
        reader.read_line(&mut rest).expect("clean close"),
        0,
        "the connection closes after the reply: {rest:?}"
    );

    // Other connections are unaffected.
    let (mut stream, mut reader) = connect(server.local_addr());
    let reply = round_trip(&mut stream, &mut reader, r#"{"op": "ping"}"#);
    assert_eq!(reply, r#"{"status":"ok","op":"ping"}"#);

    stop(&server, acceptor);
}

#[test]
fn a_hundred_sequential_round_trips_on_one_connection_do_not_stall() {
    let (_service, server, acceptor) = start_server();
    let (mut stream, mut reader) = connect(server.local_addr());

    // A reply split into a body and a lone newline waits on the client's
    // delayed ACK, ~40 ms per round trip, so 100 stalled round trips take
    // seconds; unstalled, they take a few milliseconds.
    let started = std::time::Instant::now();
    for _ in 0..50 {
        let reply = round_trip(&mut stream, &mut reader, r#"{"op": "ping"}"#);
        assert_eq!(reply, r#"{"status":"ok","op":"ping"}"#);
    }
    for _ in 0..50 {
        let reply = round_trip(
            &mut stream,
            &mut reader,
            r#"{"k": 2, "start": 1, "end": 4, "output": "count"}"#,
        );
        assert!(reply.contains(r#""outcomes":[{"k":2,"cores":2"#), "{reply}");
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(1),
        "100 sequential round trips took {elapsed:?}"
    );

    stop(&server, acceptor);
}

/// `reply` without the fields that vary from run to run: the
/// service-assigned `request` id and the `queue_wait_us` / `execute_us` /
/// `worker` accounting.
fn strip_volatile(reply: &str) -> String {
    let mut out = reply.to_string();
    for key in ["request", "queue_wait_us", "execute_us", "worker"] {
        let field = format!(",\"{key}\":");
        let start = out
            .find(&field)
            .unwrap_or_else(|| panic!("no `{key}` in {reply}"));
        let value = start + field.len();
        let len = out[value..]
            .find([',', '}'])
            .unwrap_or_else(|| panic!("unterminated `{key}` in {reply}"));
        out.replace_range(start..value + len, "");
    }
    out
}

#[test]
fn cores_replies_match_their_golden_lines() {
    let (_service, server, acceptor) = start_server();
    let (mut stream, mut reader) = connect(server.local_addr());

    // Lines recorded from the materialising reply path: the sampling path
    // must render the same bytes, sample order included.
    for (line, golden) in [
        (
            r#"{"id":1,"k_min":1,"k_max":2,"start":1,"end":4,"output":"cores"}"#,
            r#"{"status":"ok","id":1,"window":[1,4],"outcomes":[{"k":1,"cores":10,"result_edges":36,"sample":[{"tti":[1,1],"edges":1},{"tti":[1,2],"edges":3},{"tti":[1,3],"edges":5},{"tti":[1,4],"edges":7},{"tti":[2,2],"edges":2},{"tti":[2,3],"edges":4},{"tti":[2,4],"edges":6},{"tti":[3,3],"edges":2},{"tti":[3,4],"edges":4},{"tti":[4,4],"edges":2}]},{"k":2,"cores":2,"result_edges":9,"sample":[{"tti":[1,4],"edges":6},{"tti":[2,3],"edges":3}]}]}"#,
        ),
        // No 3-core in [1, 4]: the reply still carries an empty sample.
        (
            r#"{"id":2,"k":3,"start":1,"end":4,"output":"cores"}"#,
            r#"{"status":"ok","id":2,"window":[1,4],"outcomes":[{"k":3,"cores":0,"result_edges":0,"sample":[]}]}"#,
        ),
    ] {
        let reply = round_trip(&mut stream, &mut reader, line);
        assert_eq!(strip_volatile(&reply), golden, "{reply}");
    }

    stop(&server, acceptor);
}

#[test]
fn max_cores_per_reply_caps_the_sample_at_its_boundary() {
    for cap in [0, 1] {
        let config = ServerConfig {
            wire: WireConfig {
                max_cores_per_reply: cap,
                ..WireConfig::default()
            },
            ..ServerConfig::default()
        };
        let (_service, server, acceptor) = start_server_with(config);
        let (mut stream, mut reader) = connect(server.local_addr());
        let g = paper_example::graph();

        for (start, end) in [(1, 4), (1, 7), (3, 6)] {
            let line =
                format!(r#"{{"k_min":1,"k_max":3,"start":{start},"end":{end},"output":"cores"}}"#);
            let reply = round_trip(&mut stream, &mut reader, &line);
            if cap == 0 {
                assert_eq!(reply.matches(r#""sample":[]"#).count(), 3, "{reply}");
            }
            let outcomes = parse_outcomes(&reply);
            let window = TimeWindow::new(start, end);
            let reference: Vec<_> = (1..=3).map(|k| naive_results(&g, k, window)).collect();
            assert_eq!(outcomes.len(), reference.len(), "{reply}");
            for ((k, cores, edges, sample), expected) in outcomes.iter().zip(&reference) {
                assert_eq!(*cores, expected.len() as u64, "k={k}: {reply}");
                let expected_edges: u64 = expected.iter().map(|c| c.num_edges() as u64).sum();
                assert_eq!(*edges, expected_edges, "k={k}: {reply}");
                let canonical_first: Vec<(u64, u64, u64)> = expected
                    .iter()
                    .take(cap)
                    .map(|c| {
                        (
                            u64::from(c.tti.start()),
                            u64::from(c.tti.end()),
                            c.num_edges() as u64,
                        )
                    })
                    .collect();
                let sample = sample.as_ref().expect("a cores reply carries a sample");
                assert_eq!(sample.len(), expected.len().min(cap), "k={k}: {reply}");
                assert_eq!(*sample, canonical_first, "k={k}: {reply}");
            }
        }

        stop(&server, acceptor);
    }
}
