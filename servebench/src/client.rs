//! One closed-loop client connection: write a request line, read its reply
//! line, record the round trip, repeat.
//!
//! Replies are checked cheaply inside the loop, outside the timed round
//! trip: the status and echoed id are matched in place, and the per-`k`
//! `"outcomes"` body is kept once per distinct (request, body) pair so the
//! oracle can verify every reply after the timed phase.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// With tracing on, every `PING_EVERY`-th line of a connection is a ping.
pub const PING_EVERY: u64 = 8;
const PING: &[u8] = b"{\"op\":\"ping\"}\n";

/// One recorded span; times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub trace: u64,
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// What a connection observed.
#[derive(Debug, Default)]
pub struct ConnLog {
    /// Query round trips, in send order (error replies included).
    pub rtt_ns: Vec<u64>,
    /// Pool index of each ok reply.
    pub ok: Vec<u32>,
    /// `(queue_wait_us, execute_us)` of each ok reply (traced runs).
    pub server_us: Vec<(u64, u64)>,
    /// Reply line lengths of ok replies (traced runs).
    pub reply_bytes: Vec<u64>,
    pub ping_ns: Vec<u64>,
    pub spans: Vec<Span>,
    /// Distinct `"outcomes"` bodies seen per pool index.
    pub outcomes: HashMap<u32, Vec<String>>,
    /// Error replies by their `"error"` code.
    pub errors: BTreeMap<String, u64>,
    /// Replies that were neither a well-formed ok reply nor an error reply.
    pub malformed: Vec<String>,
    pub dropped: u64,
    /// Lines written (queries and pings).
    pub attempted: u64,
}

impl ConnLog {
    pub fn merge(&mut self, other: ConnLog) {
        self.rtt_ns.extend(other.rtt_ns);
        self.ok.extend(other.ok);
        self.server_us.extend(other.server_us);
        self.reply_bytes.extend(other.reply_bytes);
        self.ping_ns.extend(other.ping_ns);
        self.spans.extend(other.spans);
        for (idx, bodies) in other.outcomes {
            let mine = self.outcomes.entry(idx).or_default();
            for body in bodies {
                if !mine.contains(&body) {
                    mine.push(body);
                }
            }
        }
        for (code, n) in other.errors {
            *self.errors.entry(code).or_default() += n;
        }
        self.malformed.extend(other.malformed);
        self.dropped += other.dropped;
        self.attempted += other.attempted;
    }

    pub fn error_replies(&self) -> u64 {
        self.errors.values().sum()
    }
}

/// Runs one connection until `next` returns `None`.  `lines[i]` is pool
/// request `i`'s wire line, newline included; `conn` tags trace ids.
pub fn run(
    addr: SocketAddr,
    lines: &[String],
    epoch: Instant,
    conn: u64,
    traced: bool,
    mut next: impl FnMut() -> Option<usize>,
) -> ConnLog {
    let mut log = ConnLog::default();
    let Ok(stream) = TcpStream::connect(addr) else {
        log.dropped += 1;
        return log;
    };
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        log.dropped += 1;
        return log;
    };
    let mut writer = stream;
    let mut reader = BufReader::new(read_half);
    let mut reply = String::new();
    let heads: Vec<String> = (0..lines.len())
        .map(|i| format!("{{\"status\":\"ok\",\"id\":{i},"))
        .collect();
    let mut seq = 0u64;
    while let Some(idx) = next() {
        if traced && seq.is_multiple_of(PING_EVERY) {
            seq += 1;
            log.attempted += 1;
            let t0 = Instant::now();
            if !round_trip(&mut writer, &mut reader, PING, &mut reply) {
                log.dropped += 1;
                break;
            }
            log.ping_ns.push(t0.elapsed().as_nanos() as u64);
            if !reply.starts_with("{\"status\":\"ok\",\"op\":\"ping\"}") {
                log.malformed.push(reply.trim_end().to_string());
            }
        }
        seq += 1;
        log.attempted += 1;
        let t0 = Instant::now();
        if !round_trip(&mut writer, &mut reader, lines[idx].as_bytes(), &mut reply) {
            log.dropped += 1;
            break;
        }
        let t1 = Instant::now();
        let rtt = (t1 - t0).as_nanos() as u64;
        log.rtt_ns.push(rtt);
        let line = reply.trim_end();
        if line.starts_with(heads[idx].as_str()) {
            let Some(body) = outcomes_body(line) else {
                log.malformed.push(line.to_string());
                continue;
            };
            log.ok.push(idx as u32);
            let seen = log.outcomes.entry(idx as u32).or_default();
            if !seen.iter().any(|b| b == body) {
                seen.push(body.to_string());
            }
            if traced {
                let (queue_us, exec_us) = server_times(line).unwrap_or((0, 0));
                log.server_us.push((queue_us, exec_us));
                log.reply_bytes.push(reply.len() as u64);
                push_spans(&mut log.spans, epoch, t0, rtt, conn, seq, queue_us, exec_us);
            }
        } else if line.starts_with("{\"status\":\"error\"") {
            let code = field(line, "\"error\":\"", '"').unwrap_or("unknown");
            *log.errors.entry(code.to_string()).or_default() += 1;
        } else {
            log.malformed.push(line.to_string());
        }
    }
    log
}

/// Writes one line and reads one reply line; false on a dropped
/// connection.
fn round_trip(
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    line: &[u8],
    reply: &mut String,
) -> bool {
    reply.clear();
    if writer.write_all(line).is_err() {
        return false;
    }
    matches!(reader.read_line(reply), Ok(n) if n > 0 && reply.ends_with('\n'))
}

/// The `"outcomes"` array body of an ok query reply.
fn outcomes_body(line: &str) -> Option<&str> {
    let start = line.find("\"outcomes\":[")? + "\"outcomes\":[".len();
    let end = line.rfind("],\"queue_wait_us\":")?;
    (start <= end).then(|| &line[start..end])
}

fn field<'a>(line: &'a str, key: &str, stop: char) -> Option<&'a str> {
    let start = line.rfind(key)? + key.len();
    let len = line[start..].find(stop)?;
    Some(&line[start..start + len])
}

fn server_times(line: &str) -> Option<(u64, u64)> {
    let queue = field(line, "\"queue_wait_us\":", ',')?.parse().ok()?;
    let exec = field(line, "\"execute_us\":", ',')?.parse().ok()?;
    Some((queue, exec))
}

/// A query's root span is its client round trip.  The reply reports only
/// the durations of the service-side queue wait and execution, so their
/// child spans are placed back to back, centred in the root; the root's
/// self time (round trip minus both) is the front end's share.
#[allow(clippy::too_many_arguments)]
fn push_spans(
    spans: &mut Vec<Span>,
    epoch: Instant,
    t0: Instant,
    rtt: u64,
    conn: u64,
    seq: u64,
    queue_us: u64,
    exec_us: u64,
) {
    let start = (t0 - epoch).as_nanos() as u64;
    let trace = (conn << 40) | seq;
    let inner = ((queue_us + exec_us) * 1000).min(rtt);
    let q_start = start + (rtt - inner) / 2;
    let q_end = q_start + (queue_us * 1000).min(inner);
    spans.push(Span {
        trace,
        id: 1,
        parent: 0,
        name: "client.rtt",
        start_ns: start,
        end_ns: start + rtt,
    });
    spans.push(Span {
        trace,
        id: 2,
        parent: 1,
        name: "service.queue_wait",
        start_ns: q_start,
        end_ns: q_end,
    });
    spans.push(Span {
        trace,
        id: 3,
        parent: 1,
        name: "service.execute",
        start_ns: q_end,
        end_ns: q_start + inner,
    });
}
