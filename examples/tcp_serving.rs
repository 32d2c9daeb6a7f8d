//! Serving temporal k-core queries over TCP with priority lanes and
//! deadlines.
//!
//! A monitoring dashboard (interactive lane, generous deadline) shares one
//! `CoreService` with a nightly report generator (batch lane).  The TCP
//! front end keeps them on one socket protocol — line-delimited JSON, one
//! request per line — while the service guarantees that interactive
//! requests dequeue first and that requests whose deadline expired while
//! queued are shed with a typed error instead of wasting a worker.
//!
//! Everything runs in this one process: the example binds an ephemeral
//! loopback port, serves itself a handful of requests, then drains
//! gracefully via the `shutdown` op.
//!
//! Run with: `cargo run --release --example tcp_serving`

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use temporal_kcore::prelude::*;
use temporal_kcore::tkcore::paper_example;

fn main() {
    // The service: one worker so the priority inversion below is visible.
    let service = Arc::new(
        CoreService::start_sharded(
            paper_example::graph(),
            ShardPlan::Span,
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
        )
        .expect("span plan resolves"),
    );
    let server = Arc::new(
        TkServer::bind(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default())
            .expect("bind a loopback listener"),
    );
    let addr = server.local_addr();
    println!("serving the paper example on {addr}");

    // The accept loop blocks, so it gets its own thread; a real deployment
    // would let `tkc serve` own the main thread instead.
    let acceptor = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve())
    };

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut replies = BufReader::new(stream.try_clone().expect("clone"));
    // One write per line, newline included: a line split across two writes
    // can wait on a delayed ACK for its trailing newline.
    let mut ask = |line: &str| -> String {
        stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        let mut reply = String::new();
        replies.read_line(&mut reply).expect("reply");
        reply.trim_end().to_string()
    };

    // The dashboard refreshes a count with a 2-second deadline.
    println!("\ninteractive count with a 2s deadline:");
    println!(
        "  {}",
        ask(r#"{"id": 1, "k": 2, "start": 1, "end": 4, "deadline_ms": 2000}"#)
    );

    // The report generator asks for core samples on the batch lane; it
    // only runs once no interactive request is waiting.
    println!("\nbatch sweep, with core samples:");
    println!(
        "  {}",
        ask(
            r#"{"id": 2, "k_min": 1, "k_max": 3, "start": 1, "end": 7, "lane": "batch", "output": "cores"}"#
        )
    );

    // An already-expired deadline is shed with a typed error reply — the
    // connection stays open, and no worker ever ran the query.
    println!("\nan expired deadline is shed, not executed:");
    println!(
        "  {}",
        ask(r#"{"id": 3, "k": 2, "start": 1, "end": 4, "deadline_ms": 0}"#)
    );

    // The per-lane ledger: admissions, completions, sheds, rejections.
    println!("\nservice stats:");
    println!("  {}", ask(r#"{"op": "stats"}"#));

    // Graceful drain: stop accepting, finish in-flight work, return.
    println!("\ndraining:");
    println!("  {}", ask(r#"{"op": "shutdown"}"#));
    let summary = acceptor
        .join()
        .expect("acceptor exits")
        .expect("drain succeeds");
    println!(
        "served {} connections, {} requests",
        summary.connections, summary.requests
    );
}
