//! A std-only TCP front end over [`CoreService`]: [`TkServer`].
//!
//! The server speaks the line-delimited JSON protocol of [`crate::wire`]
//! (one request per line, one reply line per request, in order) and adds
//! the network-side half of the serving contract:
//!
//! * **deadline-aware admission** — each query line may carry
//!   `"deadline_ms"` and a `"lane"`; both are handed to
//!   [`CoreService::call`], so expired requests are refused at
//!   admission, queued requests that outlive their deadline are shed with
//!   [`TkError::DeadlineExceeded`], and interactive traffic dequeues ahead
//!   of batch traffic.  A shed or refused request is an **error reply**,
//!   never a closed connection;
//! * **bounded input** — a request line longer than
//!   [`wire::MAX_LINE_BYTES`] gets a `BadRequest` reply and the connection
//!   closes, so a connection's line buffer never grows past that bound;
//! * **bounded concurrency** — connections are handled by a dedicated
//!   [`ExecPool`] of [`ServerConfig::connection_workers`] tasks, disjoint
//!   from the service's worker pool, so at most `connection_workers`
//!   connections are served concurrently and the pending ones queue in the
//!   listener backlog.  A connection task hands each query to
//!   [`CoreService::call`]: it executes the query itself in a spare
//!   service slot when no request waits, and otherwise blocks on the
//!   queued request's ticket while a service worker computes.  Either way
//!   at most [`crate::ServiceConfig::workers`] queries execute at once;
//! * **a reply to every line** — a panic while handling one line is caught
//!   on the connection task: the client gets an `Internal` error reply,
//!   the connection stays open, and [`ServeSummary::panicked`] counts it;
//! * **graceful drain** — a `{"op": "shutdown"}` line (or
//!   [`TkServer::stop`]) makes the acceptor stop taking connections;
//!   [`TkServer::serve`] then waits for every in-flight connection task to
//!   finish before returning, and dropping the service afterwards drains
//!   the request queue.  Idle connections notice the drain within
//!   [`ServerConfig::poll_interval`] and close.
//! * **one unstalled write per reply** — accepted streams set
//!   `TCP_NODELAY`, and every reply line, newline included, leaves in a
//!   single `write_all`.  Writing the body and the newline separately
//!   lets Nagle's algorithm hold the lone newline until the client ACKs
//!   the body, and a delayed ACK makes that ~40 ms on every round trip.
//!
//! The accept loop runs on the caller's thread (it is the only blocking
//! loop outside the pool), so `TkServer` spawns no raw threads.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::error::TkError;
use crate::exec::ExecPool;
use crate::service::{CoreService, SubmitOptions};
use crate::wire::{self, WireConfig, WireRequest};

/// Tuning knobs of a [`TkServer`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Connection-handler tasks (and therefore concurrently served
    /// connections); `0` is treated as `1`.
    pub connection_workers: usize,
    /// How often an idle connection wakes to check for a server drain.
    pub poll_interval: Duration,
    /// Wire-level options: how many cores a `"cores"` reply samples per
    /// `k`.
    pub wire: WireConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            connection_workers: 4,
            poll_interval: Duration::from_millis(200),
            wire: WireConfig::default(),
        }
    }
}

/// What a completed [`TkServer::serve`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Connections accepted and fully handled.
    pub connections: u64,
    /// Request lines handled across all connections (including malformed
    /// ones, which replied `BadRequest`).
    pub requests: u64,
    /// Request lines whose handling panicked; each replied with an
    /// `Internal` error and its connection stayed open.
    pub panicked: u64,
}

/// Connection bookkeeping shared between the acceptor and the handlers.
struct ServerShared {
    service: Arc<CoreService>,
    config: ServerConfig,
    local_addr: SocketAddr,
    /// Set by a `shutdown` op or [`TkServer::stop`]; the acceptor checks it
    /// after every accept and handlers after every idle poll.
    draining: AtomicBool,
    /// In-flight connection tasks; `serve` waits for zero under `idle`.
    active: Mutex<usize>,
    idle: Condvar,
    requests: AtomicU64,
    panicked: AtomicU64,
}

impl ServerShared {
    fn begin_connection(&self) {
        *crate::sync::lock(&self.active) += 1;
    }

    fn end_connection(&self) {
        let mut active = crate::sync::lock(&self.active);
        *active -= 1;
        if *active == 0 {
            self.idle.notify_all();
        }
    }
}

/// One in-flight connection task: ends the connection when dropped, so a
/// task that panics (and is caught by its [`ExecPool`]) still brings
/// `active` back to zero and cannot hang the next drain.
struct ConnectionGuard(Arc<ServerShared>);

impl ConnectionGuard {
    fn begin(shared: Arc<ServerShared>) -> Self {
        shared.begin_connection();
        Self(shared)
    }
}

impl Drop for ConnectionGuard {
    fn drop(&mut self) {
        self.0.end_connection();
    }
}

/// A TCP front end serving one [`CoreService`] on one listener.
///
/// Bind with [`TkServer::bind`], then block in [`TkServer::serve`]; see the
/// [module docs](self) for the protocol and the drain contract.
pub struct TkServer {
    listener: TcpListener,
    pool: Arc<ExecPool>,
    shared: Arc<ServerShared>,
}

impl TkServer {
    /// Binds a listener on `addr` (use port `0` for an ephemeral port, then
    /// read [`TkServer::local_addr`]) serving `service`.
    ///
    /// # Errors
    /// [`TkError::Io`] when the address cannot be bound.
    pub fn bind(
        service: Arc<CoreService>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> Result<Self, TkError> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            service,
            config,
            local_addr,
            draining: AtomicBool::new(false),
            active: Mutex::new(0),
            idle: Condvar::new(),
            requests: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
        });
        Ok(Self {
            listener,
            pool: ExecPool::new(config.connection_workers.max(1)),
            shared,
        })
    }

    /// The bound address (resolves port `0` to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Asks a server blocked in [`TkServer::serve`] — typically on another
    /// thread — to drain: stop accepting, finish in-flight connections,
    /// return.  Equivalent to a client sending `{"op": "shutdown"}`.
    pub fn stop(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        wake_acceptor(&self.shared);
    }

    /// Accepts and serves connections until a drain is requested, then
    /// waits for every in-flight connection to finish and returns.
    ///
    /// # Errors
    /// [`TkError::Io`] when the listener itself fails (individual
    /// connection errors only drop that connection).
    pub fn serve(&self) -> Result<ServeSummary, TkError> {
        let mut connections = 0u64;
        loop {
            if self.shared.draining.load(Ordering::SeqCst) {
                break;
            }
            let (stream, _peer) = match self.listener.accept() {
                Ok(accepted) => accepted,
                Err(_) if self.shared.draining.load(Ordering::SeqCst) => break,
                Err(e) => return Err(e.into()),
            };
            if self.shared.draining.load(Ordering::SeqCst) {
                // The drain wake-up connection (or a client racing it).
                break;
            }
            connections += 1;
            let guard = ConnectionGuard::begin(Arc::clone(&self.shared));
            self.pool
                .spawn(move |_worker| handle_connection(&guard.0, stream));
        }
        let mut active = crate::sync::lock(&self.shared.active);
        while *active > 0 {
            active = crate::sync::wait(&self.shared.idle, active);
        }
        drop(active);
        Ok(ServeSummary {
            connections,
            requests: self.shared.requests.load(Ordering::Relaxed),
            panicked: self.shared.panicked.load(Ordering::Relaxed),
        })
    }
}

/// Unblocks an acceptor sitting in `accept()` by connecting to it; the
/// acceptor re-checks the drain flag on wake-up.
fn wake_acceptor(shared: &ServerShared) {
    let _ = TcpStream::connect(shared.local_addr);
}

/// Serves one connection: read a line, handle it, write one reply line,
/// repeat until EOF, an over-long line, a write failure, or a server drain.
fn handle_connection(shared: &ServerShared, stream: TcpStream) {
    // A finite read timeout turns an idle blocked read into a periodic
    // drain check, so lingering idle clients cannot stall a graceful drain
    // forever.
    let _ = stream.set_read_timeout(Some(shared.config.poll_interval));
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        line.clear();
        // Retry loop for idle-poll timeouts; `read_until` keeps partially
        // read bytes in `line`, so retrying never drops data.  Each read may
        // take only what is left of the cap plus one byte, which is how an
        // over-long line is told apart from one exactly at the cap.
        let complete = loop {
            let budget = (wire::MAX_LINE_BYTES + 1).saturating_sub(line.len()) as u64;
            match (&mut reader).take(budget).read_until(b'\n', &mut line) {
                // Without a newline, the read stopped at the cap or at EOF.
                Ok(_) => break line.ends_with(b"\n"),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if shared.draining.load(Ordering::SeqCst) {
                        return;
                    }
                }
                Err(_) => return,
            }
        };
        if !complete {
            // An over-long line, or a stream cut mid-line: tell the client
            // rather than silently dropping the bytes, then close.
            let defect = if line.len() > wire::MAX_LINE_BYTES {
                format!("request line longer than {} bytes", wire::MAX_LINE_BYTES)
            } else if line.trim_ascii().is_empty() {
                return;
            } else {
                "truncated final request line".to_string()
            };
            let reply = wire::render_error_code(None, "BadRequest", &defect);
            let _ = write_reply(reader.get_ref(), reply);
            return;
        }
        let line = line.trim_ascii();
        if line.is_empty() {
            continue;
        }
        shared.requests.fetch_add(1, Ordering::Relaxed);
        let handled = catch_unwind(AssertUnwindSafe(|| {
            #[cfg(test)]
            tests::panic_on_hook_line(line);
            match std::str::from_utf8(line) {
                Ok(line) => handle_line(shared, line),
                Err(_) => wire::render_error_code(None, "BadRequest", "request line is not UTF-8"),
            }
        }));
        let reply = handled.unwrap_or_else(|_| {
            shared.panicked.fetch_add(1, Ordering::Relaxed);
            wire::render_error_code(None, "Internal", "the server panicked handling this line")
        });
        if write_reply(reader.get_ref(), reply).is_err() {
            return;
        }
        if shared.draining.load(Ordering::SeqCst) {
            // This connection asked for the shutdown (or raced one); close
            // so the drain can complete.
            return;
        }
    }
}

/// Sends `reply` and its newline in one `write_all`, so the whole line
/// leaves as one segment instead of a body that Nagle's algorithm makes
/// the trailing newline wait behind (see the [module docs](self)).
fn write_reply(mut stream: &TcpStream, mut reply: String) -> std::io::Result<()> {
    reply.push('\n');
    stream.write_all(reply.as_bytes())
}

/// Handles one request line and renders its reply line.
fn handle_line(shared: &ServerShared, line: &str) -> String {
    match wire::parse_request_with(line, &shared.config.wire) {
        Err(defect) => wire::render_error_code(None, "BadRequest", &defect),
        Ok(WireRequest::Ping) => wire::render_ack("ping"),
        Ok(WireRequest::Stats) => wire::render_stats(&shared.service.stats()),
        Ok(WireRequest::Shutdown) => {
            shared.draining.store(true, Ordering::SeqCst);
            wake_acceptor(shared);
            wire::render_ack("shutdown")
        }
        Ok(WireRequest::Query(query)) => {
            let opts = SubmitOptions {
                algorithm: query.algorithm,
                lane: query.lane,
                deadline: query.deadline,
            };
            match shared.service.call(query.request, opts) {
                Ok(reply) => wire::render_reply(query.client_id, &reply, &shared.config.wire),
                Err(err) => wire::render_error(query.client_id, &err),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example;
    use crate::service::ServiceConfig;
    use crate::shard::ShardPlan;
    use std::sync::mpsc;

    /// A request line that panics its connection task.
    const PANIC_LINE: &[u8] = b"panic-this-connection";

    /// The test-only hook in `handle_connection`.
    pub(super) fn panic_on_hook_line(line: &[u8]) {
        if line == PANIC_LINE {
            panic!("connection task panicked by the test hook");
        }
    }

    #[test]
    fn a_panicking_connection_task_does_not_hang_the_drain() {
        let service = Arc::new(
            CoreService::start_sharded(
                paper_example::graph(),
                ShardPlan::Span,
                ServiceConfig::default(),
            )
            .unwrap(),
        );
        let server =
            Arc::new(TkServer::bind(service, "127.0.0.1:0", ServerConfig::default()).unwrap());
        let (done, served) = mpsc::channel();
        let acceptor = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || done.send(server.serve()).unwrap())
        };

        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut replies = BufReader::new(stream.try_clone().unwrap());
        stream.write_all(&[PANIC_LINE, b"\n"].concat()).unwrap();
        let mut reply = String::new();
        replies.read_line(&mut reply).unwrap();
        assert!(
            reply.contains("\"error\":\"Internal\""),
            "the panicked line gets a typed reply: {reply:?}"
        );
        // The same connection stays open and serves the next line.
        stream.write_all(b"{\"op\":\"ping\"}\n").unwrap();
        let mut reply = String::new();
        replies.read_line(&mut reply).unwrap();
        assert!(reply.contains("ping"), "{reply}");
        drop(replies);
        drop(stream);

        server.stop();
        let summary = served
            .recv_timeout(Duration::from_secs(10))
            .expect("serve returns after stop() despite the panicked line")
            .unwrap();
        assert_eq!(summary.connections, 1);
        assert_eq!(summary.requests, 2);
        assert_eq!(summary.panicked, 1);
        acceptor.join().unwrap();
    }
}
