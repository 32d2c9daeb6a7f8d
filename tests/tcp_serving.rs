//! In-process round trip through the TCP front end: a `TkServer` on an
//! ephemeral loopback port serves pings, queries (including a
//! deadline-expired one, which is an error *reply*, not a dropped
//! connection), stats and malformed lines, then drains gracefully on the
//! `shutdown` op.
//!
//! The server's accept loop runs on a plain test thread (integration tests
//! are exempt from the no-raw-threads rule); everything else rides the
//! server's own pools.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use temporal_kcore::prelude::*;
use temporal_kcore::tkcore::paper_example;

/// Sends `line` on `stream` and reads the single reply line.
fn round_trip(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    writeln!(stream, "{line}").expect("send");
    stream.flush().expect("flush");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("reply");
    assert!(
        reply.ends_with('\n'),
        "replies are line-delimited: {reply:?}"
    );
    reply.trim_end().to_string()
}

#[test]
fn tcp_round_trip_serves_queries_deadlines_and_drains() {
    let service = Arc::new(
        CoreService::start_sharded(
            paper_example::graph(),
            ShardPlan::Span,
            ServiceConfig::default(),
        )
        .unwrap(),
    );
    let server = Arc::new(
        TkServer::bind(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default()).unwrap(),
    );
    let addr = server.local_addr();
    let acceptor = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve())
    };

    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

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
    let service = Arc::new(
        CoreService::start_sharded(
            paper_example::graph(),
            ShardPlan::Span,
            ServiceConfig::default(),
        )
        .unwrap(),
    );
    let server = Arc::new(
        TkServer::bind(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default()).unwrap(),
    );
    let addr = server.local_addr();
    let acceptor = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve())
    };

    // Write half a request and hang up the sending side: the server must
    // name the truncation instead of silently dropping the fragment.
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
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

    server.stop();
    acceptor
        .join()
        .expect("acceptor thread exits cleanly")
        .expect("serve returns Ok on stop");
}
