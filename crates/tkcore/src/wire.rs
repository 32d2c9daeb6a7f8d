//! The line-delimited JSON wire protocol of `tkc serve`.
//!
//! The offline build environment has no serde, so this module hand-rolls
//! the small JSON subset the protocol needs: a recursive-descent parser
//! into [`JsonValue`] for inbound request lines, and direct string
//! rendering for outbound reply lines (replies are built with integer
//! formatting, never through `f64`, so counters round-trip exactly).
//!
//! # Protocol
//!
//! One request per line, one reply line per request, in order.  A request
//! is a JSON object with an `"op"` field (default `"query"`):
//!
//! | op           | fields                                                    |
//! |--------------|-----------------------------------------------------------|
//! | `"query"`    | `"k"` *or* `"k_min"`/`"k_max"`, `"start"`, `"end"`, and optionally `"id"`, `"lane"` (`"interactive"` \| `"batch"`), `"deadline_ms"`, `"algo"`, `"output"` (`"count"` \| `"cores"`) |
//! | `"ping"`     | none                                                      |
//! | `"stats"`    | none                                                      |
//! | `"shutdown"` | none                                                      |
//!
//! A query reply carries `"status": "ok"`, the echoed client `"id"` (when
//! one was sent), the service-assigned `"request"` id, the executed
//! `"window"`, per-`k` `"outcomes"` (`k`, `cores`, `result_edges`, plus for
//! `"output": "cores"` a `"sample"` of the `{"tti", "edges"}` of the first
//! [`WireConfig::max_cores_per_reply`] cores in canonical order), and the
//! `"queue_wait_us"` / `"execute_us"` / `"worker"` accounting of the
//! [`ServiceReply`].
//!
//! A `"cores"` (or `"full"`) query runs in [`crate::OutputMode::Sample`]:
//! every core is counted, only the sampled `(tti, edges)` pairs are kept,
//! and no core's edge list is ever built, so a reply holds O(cap) memory
//! however many cores its window has.
//!
//! A refused or failed request replies `"status": "error"` with the stable
//! [`TkError::code`] in `"error"` and the human rendering in `"detail"` —
//! shedding is data, not a connection failure, so the connection stays
//! open.  Malformed lines reply with `"error": "BadRequest"`.

use std::fmt::Write;
use std::time::Duration;

use crate::error::TkError;
use crate::query::Algorithm;
use crate::request::{KOutput, QueryRequest};
use crate::service::{Lane, ServiceReply, ServiceStats};
use temporal_graph::Timestamp;

/// Per-connection wire options of the server.
#[derive(Debug, Clone, Copy)]
pub struct WireConfig {
    /// `"output": "cores"` replies sample at most this many cores per `k`;
    /// the `cores` count still reports all of them.
    pub max_cores_per_reply: usize,
    /// A query may select at most this many `k` values; more are refused
    /// with `BudgetExceeded` before a sweep is expanded (a sweep past the
    /// graph's vertex count is still `KOutOfRange`).
    pub max_ks_per_request: usize,
}

impl Default for WireConfig {
    fn default() -> Self {
        Self {
            max_cores_per_reply: 64,
            max_ks_per_request: 64,
        }
    }
}

/// A parsed JSON value (the subset the protocol needs; numbers are `f64`).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member `key` of an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find_map(|(k, v)| (k == key).then_some(v)),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number as a `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9e15 => Some(*n as u64),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse_json`] accepts.  The parser
/// recurses once per level, so the cap keeps a hostile line of nested
/// brackets from overflowing a connection worker's stack; the protocol
/// itself never nests deeper than two.
pub const MAX_JSON_DEPTH: usize = 64;

/// Longest request line the server reads, in bytes before the terminating
/// newline.  A longer line gets a `BadRequest` reply and the connection
/// closes, so a client streaming bytes without a newline cannot grow the
/// server's memory past this bound.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Parses one JSON document, requiring it to span the whole input.
///
/// # Errors
/// A human-readable description of the first syntax error, including
/// nesting deeper than [`MAX_JSON_DEPTH`].
pub fn parse_json(input: &str) -> Result<JsonValue, String> {
    let mut pos = 0;
    let value = parse_value(input, &mut pos, 0)?;
    skip_ws(input.as_bytes(), &mut pos);
    if pos != input.len() {
        return Err(format!("trailing input at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses the value at `pos`, nested inside `depth` arrays and objects.
fn parse_value(input: &str, pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    let bytes = input.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_JSON_DEPTH => Err(format!(
            "nesting deeper than {MAX_JSON_DEPTH} levels at byte {pos}",
            pos = *pos
        )),
        Some(b'{') => parse_object(input, pos, depth + 1),
        Some(b'[') => parse_array(input, pos, depth + 1),
        Some(b'"') => parse_string(input, pos).map(JsonValue::String),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("expected `{literal}` at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(JsonValue::Number)
        .map_err(|_| format!("invalid number `{text}` at byte {start}"))
}

/// Parses the string literal at `pos` in one pass over the input.
fn parse_string(input: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = input.as_bytes();
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1; // opening quote
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote or backslash as one slice.
        // Both are ASCII, so the run ends on a char boundary and multi-byte
        // UTF-8 passes through unchanged.
        let run = bytes[*pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .ok_or("unterminated string")?;
        out.push_str(&input[*pos..*pos + run]);
        *pos += run;
        if bytes[*pos] == b'"' {
            *pos += 1;
            return Ok(out);
        }
        *pos += 1; // backslash
        match bytes.get(*pos) {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'b') => out.push('\u{8}'),
            Some(b'f') => out.push('\u{c}'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'u') => {
                let hex = bytes
                    .get(*pos + 1..*pos + 5)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .ok_or("truncated \\u escape")?;
                let code = u32::from_str_radix(hex, 16).map_err(|_| "invalid \\u escape")?;
                // Surrogate pairs are not needed by the protocol; map lone
                // surrogates to the replacement character.
                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                *pos += 4;
            }
            _ => return Err("invalid escape".into()),
        }
        *pos += 1;
    }
}

fn parse_array(input: &str, pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    let bytes = input.as_bytes();
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Array(items));
    }
    loop {
        items.push(parse_value(input, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_object(input: &str, pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    let bytes = input.as_bytes();
    *pos += 1; // '{'
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Object(members));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(input, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {pos}", pos = *pos));
        }
        *pos += 1;
        members.push((key, parse_value(input, pos, depth)?));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Object(members));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
        }
    }
}

/// Escapes `text` as the body of a JSON string literal.
pub fn escape_json(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    push_escaped(&mut out, text);
    out
}

/// Appends `text`, escaped as the body of a JSON string literal, to `out`.
fn push_escaped(out: &mut String, text: &str) {
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// One decoded request line.
#[derive(Debug)]
pub enum WireRequest {
    /// Liveness probe; replies immediately without touching the service.
    Ping,
    /// Snapshot of the service's [`ServiceStats`].
    Stats,
    /// Ask the server to drain and stop accepting connections.
    Shutdown,
    /// A query to submit to the service.
    Query(WireQuery),
}

/// The payload of a `"query"` request line.
#[derive(Debug)]
pub struct WireQuery {
    /// Client-chosen correlation id, echoed in the reply.
    pub client_id: Option<u64>,
    /// The decoded request (window, `k` selection, output mode).
    pub request: QueryRequest,
    /// The algorithm to execute with.
    pub algorithm: Algorithm,
    /// The priority lane the request queues in.
    pub lane: Lane,
    /// Relative deadline decoded from `"deadline_ms"`.
    pub deadline: Option<Duration>,
}

/// Decodes one request line under the default [`WireConfig`].
///
/// # Errors
/// A human-readable description of why the line is malformed; the server
/// renders it as a `"BadRequest"` error reply.
pub fn parse_request(line: &str) -> Result<WireRequest, String> {
    parse_request_with(line, &WireConfig::default())
}

/// Decodes one request line; a `"cores"` query samples at most
/// `config.max_cores_per_reply` cores per `k` ([`crate::OutputMode::Sample`]),
/// and a query selects at most `config.max_ks_per_request` values of `k`.
///
/// # Errors
/// As [`parse_request`].
pub fn parse_request_with(line: &str, config: &WireConfig) -> Result<WireRequest, String> {
    let value = parse_json(line)?;
    if !matches!(value, JsonValue::Object(_)) {
        return Err("a request must be a JSON object".into());
    }
    match value.get("op").and_then(JsonValue::as_str) {
        Some("ping") => return Ok(WireRequest::Ping),
        Some("stats") => return Ok(WireRequest::Stats),
        Some("shutdown") => return Ok(WireRequest::Shutdown),
        Some("query") | None => {}
        Some(other) => return Err(format!("unknown op `{other}`")),
    }
    let client_id = value.get("id").and_then(JsonValue::as_u64);
    let timestamp = |key: &str| -> Result<Timestamp, String> {
        value
            .get(key)
            .and_then(JsonValue::as_u64)
            .and_then(|t| Timestamp::try_from(t).ok())
            .ok_or_else(|| format!("query needs an integer `{key}` timestamp"))
    };
    let start = timestamp("start")?;
    let end = timestamp("end")?;
    let mut request = match (
        value.get("k").and_then(JsonValue::as_u64),
        value.get("k_min").and_then(JsonValue::as_u64),
        value.get("k_max").and_then(JsonValue::as_u64),
    ) {
        (Some(k), None, None) => QueryRequest::single(k as usize, start, end),
        (None, Some(lo), Some(hi)) => QueryRequest::sweep(lo as usize..=hi as usize, start, end),
        (None, None, None) => return Err("query needs `k` or `k_min`/`k_max`".into()),
        _ => return Err("give either `k` or both `k_min` and `k_max`".into()),
    };
    request = request.max_ks(config.max_ks_per_request);
    request = match value.get("output").and_then(JsonValue::as_str) {
        None | Some("count") => request.count(),
        Some("cores") | Some("full") => request.sample(config.max_cores_per_reply),
        Some(other) => return Err(format!("unknown output `{other}` (count or cores)")),
    };
    let algorithm = match value.get("algo").and_then(JsonValue::as_str) {
        None => Algorithm::Enum,
        Some(name) => name
            .parse::<Algorithm>()
            .map_err(|_| format!("unknown algorithm `{name}`"))?,
    };
    let lane = match value.get("lane").and_then(JsonValue::as_str) {
        None => Lane::Interactive,
        Some(name) => name.parse::<Lane>()?,
    };
    let deadline = match value.get("deadline_ms") {
        None | Some(JsonValue::Null) => None,
        Some(v) => Some(Duration::from_millis(v.as_u64().ok_or(
            "`deadline_ms` must be a non-negative integer of milliseconds",
        )?)),
    };
    Ok(WireRequest::Query(WireQuery {
        client_id,
        request,
        algorithm,
        lane,
        deadline,
    }))
}

/// Bytes reserved per reply line before its outcomes, per outcome, and
/// per sampled core: enough that a typical reply renders without growing
/// its buffer.
const REPLY_HEAD_BYTES: usize = 160;
const OUTCOME_BYTES: usize = 64;
const SAMPLE_ENTRY_BYTES: usize = 40;

/// Appends the leading `{"status":…` + optional client id of a reply.
fn push_head(out: &mut String, status: &str, client_id: Option<u64>) {
    let _ = write!(out, "{{\"status\":\"{status}\"");
    if let Some(id) = client_id {
        let _ = write!(out, ",\"id\":{id}");
    }
}

/// Renders one completed [`ServiceReply`] as a reply line (no trailing
/// newline).  An outcome with a [`crate::KOutcome::sample`] renders its
/// first `config.max_cores_per_reply` pairs as `"sample"`.
pub fn render_reply(client_id: Option<u64>, reply: &ServiceReply, config: &WireConfig) -> String {
    let outcomes = &reply.response.outcomes;
    let sampled: usize = outcomes
        .iter()
        .filter_map(|o| o.sample.as_ref())
        .map(|sample| sample.len().min(config.max_cores_per_reply))
        .sum();
    let mut out = String::with_capacity(
        REPLY_HEAD_BYTES + OUTCOME_BYTES * outcomes.len() + SAMPLE_ENTRY_BYTES * sampled,
    );
    push_head(&mut out, "ok", client_id);
    let window = reply.response.window;
    let _ = write!(
        out,
        ",\"request\":\"{}\",\"window\":[{},{}],\"outcomes\":[",
        reply.id,
        window.start(),
        window.end()
    );
    for (i, outcome) in outcomes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let (cores, result_edges) = match &outcome.output {
            KOutput::Cores(cores) => (
                cores.len() as u64,
                cores.iter().map(|c| c.num_edges() as u64).sum(),
            ),
            KOutput::Counts(counts) => (counts.num_cores, counts.total_edges),
            KOutput::Streamed => (outcome.stats.num_cores, outcome.stats.total_result_edges),
        };
        let _ = write!(
            out,
            "{{\"k\":{},\"cores\":{cores},\"result_edges\":{result_edges}",
            outcome.k
        );
        if let Some(sample) = &outcome.sample {
            out.push_str(",\"sample\":[");
            for (j, (tti, edges)) in sample.iter().take(config.max_cores_per_reply).enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"tti\":[{},{}],\"edges\":{edges}}}",
                    tti.start(),
                    tti.end()
                );
            }
            out.push(']');
        }
        out.push('}');
    }
    let _ = write!(
        out,
        "],\"queue_wait_us\":{},\"execute_us\":{},\"worker\":{}}}",
        reply.queue_wait.as_micros(),
        reply.execute_time.as_micros(),
        reply.worker
    );
    out
}

/// Renders a typed error as a reply line (no trailing newline).
pub fn render_error(client_id: Option<u64>, error: &TkError) -> String {
    render_error_code(client_id, error.code(), &error.to_string())
}

/// Renders an error reply from a raw code + detail (used for `BadRequest`,
/// which has no [`TkError`] variant — it never reached the service).
pub fn render_error_code(client_id: Option<u64>, code: &str, detail: &str) -> String {
    let mut out = String::with_capacity(REPLY_HEAD_BYTES + code.len() + detail.len());
    push_head(&mut out, "error", client_id);
    out.push_str(",\"error\":\"");
    push_escaped(&mut out, code);
    out.push_str("\",\"detail\":\"");
    push_escaped(&mut out, detail);
    out.push_str("\"}");
    out
}

/// Renders the reply to a `"ping"` or `"shutdown"` op.
pub fn render_ack(op: &str) -> String {
    format!("{{\"status\":\"ok\",\"op\":\"{}\"}}", escape_json(op))
}

/// Renders a [`ServiceStats`] snapshot as the reply to a `"stats"` op.
pub fn render_stats(stats: &ServiceStats) -> String {
    let mut out = String::with_capacity(4 * REPLY_HEAD_BYTES);
    let _ = write!(
        out,
        "{{\"status\":\"ok\",\"op\":\"stats\",\"admitted\":{},\"completed\":{},\"shed\":{},\
         \"rejected\":{},\"panicked\":{},\"max_queue_depth\":{},\"lanes\":{{",
        stats.admitted,
        stats.completed,
        stats.shed,
        stats.rejected,
        stats.panicked,
        stats.max_queue_depth,
    );
    for (sep, lane) in [("", Lane::Interactive), (",", Lane::Batch)] {
        let l = stats.lane(lane);
        let _ = write!(
            out,
            "{sep}\"{lane}\":{{\"admitted\":{},\"completed\":{},\"shed\":{},\"rejected\":{}}}",
            l.admitted, l.completed, l.shed, l.rejected
        );
    }
    let _ = write!(
        out,
        "}},\"ingest\":{{\"submitted\":{},\"completed\":{},\"failed\":{},\
         \"events_appended\":{},\"seals\":{}}}}}",
        stats.ingest.submitted,
        stats.ingest.completed,
        stats.ingest.failed,
        stats.ingest.events_appended,
        stats.ingest.seals,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_arrays_and_nested_objects() {
        let value =
            parse_json(r#"{"k": 2, "ok": true, "name": "a\"b\nA", "xs": [1, 2.5, null], "o": {}}"#)
                .unwrap();
        assert_eq!(value.get("k").and_then(JsonValue::as_u64), Some(2));
        assert_eq!(value.get("ok"), Some(&JsonValue::Bool(true)));
        assert_eq!(
            value.get("name").and_then(JsonValue::as_str),
            Some("a\"b\nA")
        );
        let JsonValue::Array(xs) = value.get("xs").unwrap() else {
            panic!("array");
        };
        assert_eq!(xs.len(), 3);
        assert_eq!(xs[2], JsonValue::Null);
    }

    #[test]
    fn rejects_malformed_documents() {
        for line in [
            "",
            "{",
            "{\"a\": }",
            "{\"a\": 1,}",
            "[1, 2",
            "\"unterminated",
            "{\"a\": 1} trailing",
            "nope",
        ] {
            assert!(parse_json(line).is_err(), "{line:?} should not parse");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_json_depth() {
        let arrays = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let objects = |depth: usize| format!("{}1{}", r#"{"a":"#.repeat(depth), "}".repeat(depth));
        for nested in [arrays, objects] {
            assert!(parse_json(&nested(MAX_JSON_DEPTH)).is_ok());
            let err = parse_json(&nested(MAX_JSON_DEPTH + 1)).unwrap_err();
            assert!(err.contains("nesting deeper than"), "{err}");
        }
        // A hostile line is refused with an error, not a stack overflow.
        let err = parse_json(&"[".repeat(200_000)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        let value = parse_json(r#"["a\"b\\c\/dé\n", "été 🦀 \t ü"]"#).unwrap();
        assert_eq!(
            value,
            JsonValue::Array(vec![
                JsonValue::String("a\"b\\c/dé\n".into()),
                JsonValue::String("été 🦀 \t ü".into()),
            ])
        );
        // A multi-MiB string mixing multibyte and escaped characters: a
        // parse that rescans the rest of the input per character takes
        // minutes here.
        let unit = "é🦀x";
        let body = unit.repeat(400_000); // 2.8 MiB
        let doc = format!(r#"{{"s": "{body}\n{body}"}}"#);
        let started = std::time::Instant::now();
        let value = parse_json(&doc).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(
            value.get("s").and_then(JsonValue::as_str),
            Some(format!("{body}\n{body}").as_str())
        );
        assert!(elapsed.as_secs_f64() < 0.5, "took {elapsed:?}");
    }

    #[test]
    fn escape_round_trips_through_the_parser() {
        let nasty = "quote \" backslash \\ newline \n tab \t control \u{1}";
        let doc = format!("{{\"s\":\"{}\"}}", escape_json(nasty));
        let value = parse_json(&doc).unwrap();
        assert_eq!(value.get("s").and_then(JsonValue::as_str), Some(nasty));
        assert_eq!(escape_json("a\u{1}\u{1f}b"), "a\\u0001\\u001fb");
    }

    #[test]
    fn parses_a_full_query_line() {
        let line = r#"{"id": 7, "k": 2, "start": 1, "end": 4, "lane": "batch",
                       "deadline_ms": 250, "algo": "enum", "output": "cores"}"#;
        let WireRequest::Query(query) = parse_request(line).unwrap() else {
            panic!("query");
        };
        assert_eq!(query.client_id, Some(7));
        assert_eq!(query.lane, Lane::Batch);
        assert_eq!(query.deadline, Some(Duration::from_millis(250)));
        assert_eq!(query.algorithm, Algorithm::Enum);
    }

    #[test]
    fn parses_ops_and_defaults() {
        assert!(matches!(
            parse_request(r#"{"op": "ping"}"#).unwrap(),
            WireRequest::Ping
        ));
        assert!(matches!(
            parse_request(r#"{"op": "stats"}"#).unwrap(),
            WireRequest::Stats
        ));
        assert!(matches!(
            parse_request(r#"{"op": "shutdown"}"#).unwrap(),
            WireRequest::Shutdown
        ));
        let WireRequest::Query(query) = parse_request(r#"{"k": 1, "start": 1, "end": 3}"#).unwrap()
        else {
            panic!("query");
        };
        assert_eq!(query.lane, Lane::Interactive);
        assert_eq!(query.deadline, None);
        assert_eq!(query.client_id, None);
    }

    #[test]
    fn malformed_requests_name_the_defect() {
        for (line, needle) in [
            ("{}", "start"),
            (r#"{"start": 1, "end": 4}"#, "k"),
            (
                r#"{"k": 1, "k_min": 1, "k_max": 2, "start": 1, "end": 4}"#,
                "either",
            ),
            (
                r#"{"k": 1, "start": 1, "end": 4, "lane": "express"}"#,
                "express",
            ),
            (r#"{"k": 1, "start": 1, "end": 4, "output": "xml"}"#, "xml"),
            (r#"{"op": "teleport"}"#, "teleport"),
            (
                r#"{"k": 1, "start": 1, "end": 4, "deadline_ms": -5}"#,
                "deadline_ms",
            ),
            ("[1]", "object"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn error_replies_carry_the_stable_code() {
        let line = render_error(
            Some(3),
            &TkError::DeadlineExceeded {
                deadline: Duration::from_millis(5),
                waited: Duration::from_millis(8),
            },
        );
        let value = parse_json(&line).unwrap();
        assert_eq!(
            value.get("status").and_then(JsonValue::as_str),
            Some("error")
        );
        assert_eq!(value.get("id").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(
            value.get("error").and_then(JsonValue::as_str),
            Some("DeadlineExceeded")
        );
        let bad = render_error_code(None, "BadRequest", "no \"op\"");
        assert!(parse_json(&bad).is_ok(), "{bad}");
    }

    #[test]
    fn stats_replies_parse_and_sum() {
        let mut stats = ServiceStats {
            admitted: 5,
            ..ServiceStats::default()
        };
        stats.per_lane[Lane::Interactive.index()].admitted = 3;
        stats.per_lane[Lane::Batch.index()].admitted = 2;
        let value = parse_json(&render_stats(&stats)).unwrap();
        assert_eq!(value.get("admitted").and_then(JsonValue::as_u64), Some(5));
        let lanes = value.get("lanes").unwrap();
        assert_eq!(
            lanes
                .get("interactive")
                .and_then(|l| l.get("admitted"))
                .and_then(JsonValue::as_u64),
            Some(3)
        );
    }
}
