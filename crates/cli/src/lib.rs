//! Implementation of the `tkc` command-line tool.
//!
//! The binary is a thin wrapper around [`run`]; keeping the logic in a
//! library makes the argument parsing and command dispatch unit-testable.
//! [`parse_args`] reads every command through one argument walker and
//! parses each number into its field's own type: a value out of that type's
//! range (a `--end` past `u32::MAX`, say) is refused, never wrapped.
//! Every query-running command (`query`, `batch`, `ingest`, `serve`) goes
//! through one path: [`tkcore::QueryRequest`]s submitted to a
//! [`tkcore::CoreService`] over a [`tkcore::ShardedEngine`], so malformed
//! input surfaces as a rendered [`tkcore::TkError`] and a nonzero exit code,
//! never a panic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::num::{IntErrorKind, ParseIntError};
use std::str::FromStr;
use std::sync::Arc;
use tkc_datasets::{ArrivalProfile, DatasetProfile, DatasetStats, EventStream, EventStreamConfig};
use tkcore::{
    Algorithm, CacheStats, CoreService, IngestDelta, IngestEvent, KOutput, Lane, QueryRequest,
    SealPolicy, ServerConfig, ServiceConfig, ShardPlan, TimeRangeKCoreQuery, TkError, TkServer,
};

/// Errors reported to the CLI user.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<temporal_graph::TemporalGraphError> for CliError {
    fn from(e: temporal_graph::TemporalGraphError) -> Self {
        CliError(e.to_string())
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        CliError(message.into())
    }
}

impl From<TkError> for CliError {
    fn from(e: TkError) -> Self {
        CliError(e.to_string())
    }
}

/// Usage text printed by `tkc help` and on argument errors.
pub const USAGE: &str = "\
tkc — time-range temporal k-core queries

USAGE:
  tkc stats <edge-list>
      Print |V|, |E|, tmax and kmax of a temporal edge-list file (`u v t` per line).

  tkc query <edge-list> (--k <K> | --k-range <MIN>..=<MAX>)
            [--start <TS>] [--end <TE>] [--algo enum|enum-base|otcd|naive]
            [--output count|full] [--limit <N>] [--shards <S>] [--workers <W>]
      Enumerate all distinct temporal k-cores in the range [TS, TE]
      (default: the whole time span).  `--k-range` sweeps every k in the
      inclusive range through one cached engine, building at most one
      core-window index per k.  `--shards S` cuts the timeline into S
      time-interval shards (one index per touched shard and k, exact
      stitching at shard cuts via the cached boundary index); the default
      `--shards 0` keeps one span-wide shard, the unsharded engine.
      The request runs through a CoreService backed by a persistent
      W-thread pool (`--workers W`; the default 0 is one worker per CPU).
      `--output count` reports counts only; `--output full` (default)
      prints each core's tightest time interval, vertex count and edge
      count.

  tkc batch <edge-list> <queries-csv> [--algo enum|enum-base|otcd|naive]
            [--threads <N>] [--budget-mb <M>] [--shards <S>] [--workers <W>]
      Run a batch of queries through the cached query engine: one core-window
      index per k (per shard and k with `--shards S`; `--shards 0`, the
      default, is one span-wide shard), sliced per query.  Every query
      is submitted to a CoreService of W workers (`--workers W`, or its
      alias `--threads W`; the default 0 is one worker per CPU), which
      reports per-worker latency.  The CSV has one query per line,
      `k,start,end` (or just `k` for the whole time span; `#` starts a
      comment).  Prints per-query counts plus batch timing and cache
      statistics.

  tkc ingest <edge-list> <events|-> [--shards <S>] [--workers <W>]
            [--batch <B>] [--seal-edges <N> | --seal-span <T>]
            [--queries <csv>] [--stats]
      Append a live event stream (`u v t` per line; `-` reads stdin) onto
      the sharded engine built from the edge-list.  Events are absorbed in
      batches of B (default 64) into the live tail shard; closed-shard
      skylines stay resident, only tail entries are invalidated.
      `--seal-edges N` / `--seal-span T` roll the tail into a closed shard
      once it holds N edges / spans T timestamps (default: manual, a final
      seal at end of stream).  The stream goes through the ingest lane of
      a CoreService of W workers (`--workers W`; the default 0 is one
      worker per CPU).  A rejected batch (out-of-order or duplicate
      event) is retried event by event and the rejects counted.
      `--queries <csv>` runs a `k,start,end` batch against the live engine
      after the stream drains; `--stats` prints the ingest-side cache and
      service counters.

  tkc serve <edge-list> [--addr <HOST:PORT>] [--shards <S>] [--workers <W>]
            [--conn-workers <C>] [--queue-depth <D>]
      Serve the edge-list over TCP speaking line-delimited JSON (one request
      per line, one reply line back — the protocol is documented on
      `tkcore::wire`).  Each query may carry a priority lane (`interactive`
      requests dequeue ahead of `batch`) and a relative `deadline_ms`;
      requests that outlive their deadline while queued are shed with a
      typed `DeadlineExceeded` error reply instead of executing.  Prints
      `listening on <addr>` once the listener is ready (default --addr
      127.0.0.1:7411; port 0 picks an ephemeral port).  A
      `{\"op\": \"shutdown\"}` line (see `tkc client --shutdown`) drains
      gracefully: accepted connections finish, the queue empties, exit 0.

  tkc client <addr> (--k <K> | --k-range <MIN>..=<MAX>) --start <TS> --end <TE>
            [--lane interactive|batch] [--deadline-ms <MS>]
            [--algo enum|enum-base|otcd|naive] [--output count|cores]
  tkc client <addr> (--ping | --stats | --shutdown)
      Send one request line to a running `tkc serve` and print the reply
      line.  A `status: error` reply (shed, refused, failed) is data and
      still exits 0; only transport failures exit nonzero.

  tkc gen-events <count> <output|-> [--vertices <V>] [--start-after <T>]
            [--profile steady|bursty|jitter] [--seed <S>]
      Write a deterministic live event stream (`u v t` per line; `-` prints
      to stdout) whose timestamps start strictly after T — pipe it into
      `tkc ingest`.  Profiles: steady (fixed rate), bursty (dense bursts
      with quiet gaps), jitter (steady with out-of-order timestamps).

  tkc generate <profile> <output-file>
      Write the scaled synthetic analogue of one of the paper's datasets
      (FB BO CM EM MC MO AU LR EN SU WT WK PL YT) as an edge-list file.

  tkc profiles
      List the available dataset profiles.
";

/// What `tkc query` prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputKind {
    /// Counts only (cores and `|R|`), no materialisation.
    Count,
    /// Materialise and print each core (up to `--limit`).
    Full,
}

/// Which `k` values a `tkc query` covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KSpec {
    /// `--k K`
    Single(usize),
    /// `--k-range MIN..=MAX` (inclusive).
    Range(usize, usize),
}

/// What a `tkc client` invocation sends to the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientAction {
    /// `--ping`: liveness check.
    Ping,
    /// `--stats`: the service's lane/queue counters.
    Stats,
    /// `--shutdown`: ask the server to drain gracefully.
    Shutdown,
    /// A query line (the default).
    Query {
        /// One `k` or an inclusive sweep.
        ks: KSpec,
        /// Query range start.
        start: u32,
        /// Query range end.
        end: u32,
        /// Priority lane the request queues in.
        lane: Lane,
        /// Relative deadline in milliseconds (shed when exceeded in queue).
        deadline_ms: Option<u64>,
        /// Algorithm override (the server defaults to `enum`).
        algorithm: Option<Algorithm>,
        /// Reply shape: counts, or counts plus a capped sample of cores.
        output: OutputKind,
    },
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `tkc stats <file>`
    Stats {
        /// Path of the edge-list file.
        path: String,
    },
    /// `tkc query <file> --k K ...`
    Query {
        /// Path of the edge-list file.
        path: String,
        /// Query parameter(s): one `k` or an inclusive sweep.
        ks: KSpec,
        /// Query range start (defaults to 1).
        start: Option<u32>,
        /// Query range end (defaults to the last timestamp).
        end: Option<u32>,
        /// Algorithm to run.
        algorithm: Algorithm,
        /// What to print.
        output: OutputKind,
        /// Print at most this many cores per `k`.
        limit: usize,
        /// Time-interval shards (0 = one span-wide shard, the unsharded engine).
        shards: usize,
        /// Service worker threads (0 = one per CPU).
        workers: usize,
    },
    /// `tkc batch <file> <queries.csv> ...`
    Batch {
        /// Path of the edge-list file.
        path: String,
        /// Path of the query CSV (`k,start,end` per line).
        queries: String,
        /// Algorithm to run for every query.
        algorithm: Algorithm,
        /// Skyline-cache memory budget in MiB.
        budget_mb: usize,
        /// Time-interval shards (0 = one span-wide shard, the unsharded engine).
        shards: usize,
        /// Service worker threads, set by `--workers` or its alias
        /// `--threads` (0 = one per CPU).
        workers: usize,
    },
    /// `tkc ingest <file> <events|-> ...`
    Ingest {
        /// Path of the base edge-list file.
        path: String,
        /// Path of the event stream (`u v t` per line), `-` for stdin.
        events: String,
        /// Time-interval shards of the base plan (the last is the live tail).
        shards: usize,
        /// Service worker threads driving the ingest lane (0 = one per CPU).
        workers: usize,
        /// Events per absorb batch.
        batch: usize,
        /// Seal the tail once it holds this many edges (0 = off).
        seal_edges: usize,
        /// Seal the tail once it spans this many timestamps (0 = off).
        seal_span: u32,
        /// Run this `k,start,end` query CSV against the live engine after
        /// the stream drains.
        queries: Option<String>,
        /// Print ingest-side cache/service counters.
        stats: bool,
    },
    /// `tkc serve <file> ...`
    Serve {
        /// Path of the edge-list file.
        path: String,
        /// Listen address (`HOST:PORT`; port 0 picks an ephemeral port).
        addr: String,
        /// Time-interval shards (0 = one span-wide shard, the unsharded engine).
        shards: usize,
        /// Service worker threads (0 = one per CPU).
        workers: usize,
        /// Concurrently served connections (dedicated handler pool).
        conn_workers: usize,
        /// Bounded request-queue depth (0 = the service default).
        queue_depth: usize,
    },
    /// `tkc client <addr> ...`
    Client {
        /// Address of a running `tkc serve`.
        addr: String,
        /// The single request to send.
        action: ClientAction,
    },
    /// `tkc gen-events <count> <out|-> ...`
    GenEvents {
        /// Number of events to generate.
        count: usize,
        /// Output path, `-` for stdout.
        output: String,
        /// Vertex labels are drawn from `1..=vertices`.
        vertices: u64,
        /// Timestamps start strictly after this.
        start_after: u32,
        /// Arrival profile: `steady`, `bursty` or `jitter`.
        profile: String,
        /// RNG seed.
        seed: u64,
    },
    /// `tkc generate <profile> <out>`
    Generate {
        /// Profile name (e.g. `CM`).
        profile: String,
        /// Output edge-list path.
        output: String,
    },
    /// `tkc profiles`
    Profiles,
    /// `tkc help`
    Help,
}

/// Parses the command line (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    let mut args = ArgWalker(rest.iter());
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "profiles" => Ok(Command::Profiles),
        "stats" => Ok(Command::Stats {
            path: args.positional("stats requires an edge-list path")?,
        }),
        "generate" => Ok(Command::Generate {
            profile: args.positional("generate requires a profile name")?,
            output: args.positional("generate requires an output path")?,
        }),
        "ingest" => {
            let path = args.positional("ingest requires an edge-list path")?;
            let events = args.positional("ingest requires an event stream path (or `-`)")?;
            let mut shards = 2;
            let mut workers = 0;
            let mut batch = 64;
            let mut seal_edges = 0;
            let mut seal_span = 0;
            let mut queries = None;
            let mut stats = false;
            args.flags(|flag, value| {
                match flag {
                    "--shards" => shards = num(flag, value()?)?,
                    "--workers" => workers = num(flag, value()?)?,
                    "--batch" => batch = num::<usize>(flag, value()?)?.max(1),
                    "--seal-edges" => seal_edges = num(flag, value()?)?,
                    "--seal-span" => seal_span = num(flag, value()?)?,
                    "--queries" => queries = Some(value()?.to_string()),
                    "--stats" => stats = true,
                    _ => return Ok(false),
                }
                Ok(true)
            })?;
            if shards == 0 {
                return Err("--shards: live ingestion needs at least 1 shard".into());
            }
            if seal_edges > 0 && seal_span > 0 {
                return Err("--seal-edges and --seal-span are mutually exclusive".into());
            }
            Ok(Command::Ingest {
                path,
                events,
                shards,
                workers,
                batch,
                seal_edges,
                seal_span,
                queries,
                stats,
            })
        }
        "serve" => {
            let path = args.positional("serve requires an edge-list path")?;
            let mut addr = String::from("127.0.0.1:7411");
            let mut shards = 0;
            let mut workers = 0;
            let mut conn_workers = 4;
            let mut queue_depth = 0;
            args.flags(|flag, value| {
                match flag {
                    "--addr" => addr = value()?.to_string(),
                    "--shards" => shards = num(flag, value()?)?,
                    "--workers" => workers = num(flag, value()?)?,
                    "--conn-workers" => conn_workers = num(flag, value()?)?,
                    "--queue-depth" => queue_depth = num(flag, value()?)?,
                    _ => return Ok(false),
                }
                Ok(true)
            })?;
            if conn_workers == 0 {
                return Err("--conn-workers: serving needs at least 1 connection handler".into());
            }
            Ok(Command::Serve {
                path,
                addr,
                shards,
                workers,
                conn_workers,
                queue_depth,
            })
        }
        "client" => {
            let addr = args.positional("client requires a server address (HOST:PORT)")?;
            let mut k = None;
            let mut k_range = None;
            let mut start = None;
            let mut end = None;
            let mut lane = Lane::Interactive;
            let mut deadline_ms = None;
            let mut algorithm = None;
            let mut output = OutputKind::Count;
            let mut op = None;
            args.flags(|flag, value| {
                match flag {
                    "--ping" => op = Some(ClientAction::Ping),
                    "--stats" => op = Some(ClientAction::Stats),
                    "--shutdown" => op = Some(ClientAction::Shutdown),
                    "--k" => k = Some(num(flag, value()?)?),
                    "--k-range" => k_range = Some(parse_k_range(value()?)?),
                    "--start" => start = Some(num(flag, value()?)?),
                    "--end" => end = Some(num(flag, value()?)?),
                    "--lane" => {
                        lane = value()?
                            .parse()
                            .map_err(|e| CliError(format!("--lane: {e}")))?;
                    }
                    "--deadline-ms" => deadline_ms = Some(num(flag, value()?)?),
                    "--algo" | "--algorithm" => algorithm = Some(value()?.parse()?),
                    "--output" => output = output_kind(value()?, &["cores", "full"])?,
                    _ => return Ok(false),
                }
                Ok(true)
            })?;
            let action = match op {
                Some(_)
                    if k.is_some()
                        || k_range.is_some()
                        || start.is_some()
                        || end.is_some()
                        || deadline_ms.is_some() =>
                {
                    return Err("--ping/--stats/--shutdown do not take query flags".into());
                }
                Some(op) => op,
                None => ClientAction::Query {
                    ks: k_spec(
                        k,
                        k_range,
                        "client requires --k <K> or --k-range <MIN>..=<MAX> \
                         (or one of --ping, --stats, --shutdown)",
                    )?,
                    start: start.ok_or("client queries require --start <TS>")?,
                    end: end.ok_or("client queries require --end <TE>")?,
                    lane,
                    deadline_ms,
                    algorithm,
                    output,
                },
            };
            Ok(Command::Client { addr, action })
        }
        "gen-events" => {
            let count = args.positional("gen-events requires an event count")?;
            let count = num("gen-events count", &count)?;
            let output = args.positional("gen-events requires an output path (or `-`)")?;
            let mut vertices = 100;
            let mut start_after = 0;
            let mut profile = String::from("steady");
            let mut seed = 42;
            args.flags(|flag, value| {
                match flag {
                    "--vertices" => vertices = num(flag, value()?)?,
                    "--start-after" => start_after = num(flag, value()?)?,
                    "--profile" => profile = value()?.to_string(),
                    "--seed" => seed = num(flag, value()?)?,
                    _ => return Ok(false),
                }
                Ok(true)
            })?;
            if vertices < 2 {
                return Err("--vertices: a stream over 1 vertex holds only self loops".into());
            }
            Ok(Command::GenEvents {
                count,
                output,
                vertices,
                start_after,
                profile,
                seed,
            })
        }
        "batch" => {
            let path = args.positional("batch requires an edge-list path")?;
            let queries = args.positional("batch requires a query CSV path")?;
            let mut algorithm = Algorithm::Enum;
            let mut budget_mb = 256;
            let mut shards = 0;
            let mut workers = 0;
            args.flags(|flag, value| {
                match flag {
                    "--algo" | "--algorithm" => algorithm = value()?.parse()?,
                    "--budget-mb" => budget_mb = num(flag, value()?)?,
                    "--shards" => shards = num(flag, value()?)?,
                    "--workers" | "--threads" => workers = num(flag, value()?)?,
                    _ => return Ok(false),
                }
                Ok(true)
            })?;
            // The budget is handed on in bytes, which must fit in a usize.
            if budget_mb == 0 || budget_mb > usize::MAX >> 20 {
                return Err(CliError(format!(
                    "--budget-mb must be between 1 and {}",
                    usize::MAX >> 20
                )));
            }
            Ok(Command::Batch {
                path,
                queries,
                algorithm,
                budget_mb,
                shards,
                workers,
            })
        }
        "query" => {
            let path = args.positional("query requires an edge-list path")?;
            let mut k = None;
            let mut k_range = None;
            let mut start = None;
            let mut end = None;
            let mut algorithm = Algorithm::Enum;
            let mut output = OutputKind::Full;
            let mut limit = 20;
            let mut shards = 0;
            let mut workers = 0;
            args.flags(|flag, value| {
                match flag {
                    "--k" => k = Some(num(flag, value()?)?),
                    "--k-range" => k_range = Some(parse_k_range(value()?)?),
                    "--start" => start = Some(num(flag, value()?)?),
                    "--end" => end = Some(num(flag, value()?)?),
                    "--limit" => limit = num(flag, value()?)?,
                    "--shards" => shards = num(flag, value()?)?,
                    "--workers" => workers = num(flag, value()?)?,
                    "--algo" | "--algorithm" => algorithm = value()?.parse()?,
                    "--output" => output = output_kind(value()?, &["full"])?,
                    "--count-only" => output = OutputKind::Count,
                    _ => return Ok(false),
                }
                Ok(true)
            })?;
            Ok(Command::Query {
                path,
                ks: k_spec(
                    k,
                    k_range,
                    "query requires --k <K> or --k-range <MIN>..=<MAX>",
                )?,
                start,
                end,
                algorithm,
                output,
                limit,
                shards,
                workers,
            })
        }
        other => Err(CliError(format!("unknown command `{other}`\n\n{USAGE}"))),
    }
}

/// The arguments after a command name: its positional arguments, then its
/// flags.
struct ArgWalker<'a>(std::slice::Iter<'a, String>);

impl<'a> ArgWalker<'a> {
    /// The next positional argument; `missing` is the error when there is
    /// none.
    fn positional(&mut self, missing: &str) -> Result<String, CliError> {
        self.0.next().cloned().ok_or_else(|| missing.into())
    }

    /// Hands every remaining flag to `on`, which returns whether it knows
    /// the flag and calls `value` to take the argument after it.
    fn flags(
        mut self,
        mut on: impl FnMut(
            &'a str,
            &mut dyn FnMut() -> Result<&'a str, CliError>,
        ) -> Result<bool, CliError>,
    ) -> Result<(), CliError> {
        while let Some(flag) = self.0.next() {
            let mut value = || {
                self.0
                    .next()
                    .map(String::as_str)
                    .ok_or_else(|| CliError(format!("{flag} requires a value")))
            };
            if !on(flag, &mut value)? {
                return Err(CliError(format!("unknown flag `{flag}`")));
            }
        }
        Ok(())
    }
}

/// Parses `text`, the value of `flag`, as a number of the type it is stored
/// in: a value out of that type's range is refused, never wrapped.
fn num<T: FromStr<Err = ParseIntError>>(flag: &str, text: &str) -> Result<T, CliError> {
    text.parse().map_err(|e: ParseIntError| match e.kind() {
        IntErrorKind::PosOverflow => CliError(format!(
            "{flag}: `{text}` is out of range for {}",
            std::any::type_name::<T>()
        )),
        _ => CliError(format!("{flag}: `{text}` is not a number")),
    })
}

/// The `k` values a query covers, from its `--k` and `--k-range` flags;
/// `missing` is the error when neither is given.
fn k_spec(
    k: Option<usize>,
    k_range: Option<(usize, usize)>,
    missing: &str,
) -> Result<KSpec, CliError> {
    match (k, k_range) {
        (Some(_), Some(_)) => Err("--k and --k-range are mutually exclusive".into()),
        (Some(k), None) => Ok(KSpec::Single(k)),
        (None, Some((lo, hi))) => Ok(KSpec::Range(lo, hi)),
        (None, None) => Err(missing.into()),
    }
}

/// Parses an `--output` value: `count`, or one of the spellings the command
/// accepts for its cores output.
fn output_kind(text: &str, full: &[&str]) -> Result<OutputKind, CliError> {
    match text {
        "count" => Ok(OutputKind::Count),
        _ if full.contains(&text) => Ok(OutputKind::Full),
        _ => Err(CliError(format!(
            "--output: `{text}` is not count or {}",
            full[0]
        ))),
    }
}

/// Parses an inclusive `k` range: `2..=5`, `2..5` or `2-5` all mean
/// `{2, 3, 4, 5}`.
fn parse_k_range(s: &str) -> Result<(usize, usize), CliError> {
    let (lo, hi) = s
        .split_once("..=")
        .or_else(|| s.split_once(".."))
        .or_else(|| s.split_once('-'))
        .ok_or_else(|| {
            CliError(format!(
                "--k-range: `{s}` is not of the form MIN..=MAX (e.g. 2..=5)"
            ))
        })?;
    let lo = num("--k-range min", lo.trim())?;
    let hi = num("--k-range max", hi.trim())?;
    if lo == 0 || lo > hi {
        return Err(CliError(format!(
            "--k-range: [{lo}, {hi}] is not a non-empty range of k >= 1"
        )));
    }
    Ok((lo, hi))
}

/// Parses a batch query CSV: one `k[,start,end]` query per line, blank lines
/// and `#` comments ignored.  `path` labels parse errors.
fn parse_query_csv(
    path: &str,
    content: &str,
    tmax: u32,
) -> Result<Vec<TimeRangeKCoreQuery>, CliError> {
    let mut queries = Vec::new();
    for (lineno, raw) in content.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        let err = |msg: String| CliError(format!("{path}, line {}: {msg}", lineno + 1));
        let k: usize = fields[0]
            .parse()
            .map_err(|_| err(format!("`{}` is not a valid k", fields[0])))?;
        let range = match fields.len() {
            1 => temporal_graph::TimeWindow::new(1, tmax.max(1)),
            3 => {
                let start: u32 = fields[1]
                    .parse()
                    .map_err(|_| err(format!("`{}` is not a valid start", fields[1])))?;
                let end: u32 = fields[2]
                    .parse()
                    .map_err(|_| err(format!("`{}` is not a valid end", fields[2])))?;
                if start > tmax {
                    return Err(err(format!(
                        "range starts at {start}, past the graph's last timestamp {tmax}"
                    )));
                }
                temporal_graph::TimeWindow::try_new(start, end)
                    .ok_or_else(|| err(format!("invalid range [{start}, {end}]")))?
            }
            n => {
                return Err(err(format!(
                    "expected `k` or `k,start,end`, got {n} fields"
                )))
            }
        };
        queries.push(TimeRangeKCoreQuery::new(k, range).map_err(|e| err(e.to_string()))?);
    }
    if queries.is_empty() {
        return Err(CliError("query CSV contains no queries".into()));
    }
    Ok(queries)
}

/// Parses an event stream: one `u v t` triple per whitespace-separated line,
/// blank lines and `#` comments ignored.  `path` labels parse errors.
fn parse_event_lines(path: &str, content: &str) -> Result<Vec<IngestEvent>, CliError> {
    // A stream cut mid-line (a pipe hung up, a partial file write) ends
    // without a newline; when that final fragment is not a complete triple,
    // name the truncation — the caller must know events were lost in
    // transit, not merely mistyped.  A complete final triple without a
    // trailing newline is ordinary and still accepted.
    let truncated = !content.is_empty() && !content.ends_with('\n');
    let last_line = content.lines().count();
    let mut events = Vec::new();
    for (lineno, raw) in content.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let err = |msg: String| {
            if truncated && lineno + 1 == last_line {
                CliError(format!(
                    "{path}, line {}: truncated final event line ({msg}); the stream was \
                     cut mid-line, so no events were ingested",
                    lineno + 1
                ))
            } else {
                CliError(format!("{path}, line {}: {msg}", lineno + 1))
            }
        };
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != 3 {
            return Err(err(format!(
                "expected `u v t`, got {} fields",
                fields.len()
            )));
        }
        let u: u64 = fields[0]
            .parse()
            .map_err(|_| err(format!("`{}` is not a vertex label", fields[0])))?;
        let v: u64 = fields[1]
            .parse()
            .map_err(|_| err(format!("`{}` is not a vertex label", fields[1])))?;
        let t: u32 = fields[2]
            .parse()
            .map_err(|_| err(format!("`{}` is not a timestamp", fields[2])))?;
        events.push((u, v, t));
    }
    if events.is_empty() {
        return Err(CliError(format!("{path} contains no events")));
    }
    Ok(events)
}

/// Renders a [`ClientAction`] as one request line of the wire protocol
/// spoken by `tkc serve` (see `tkcore::wire`).
pub fn render_client_line(action: &ClientAction) -> String {
    match action {
        ClientAction::Ping => r#"{"op": "ping"}"#.to_string(),
        ClientAction::Stats => r#"{"op": "stats"}"#.to_string(),
        ClientAction::Shutdown => r#"{"op": "shutdown"}"#.to_string(),
        ClientAction::Query {
            ks,
            start,
            end,
            lane,
            deadline_ms,
            algorithm,
            output,
        } => {
            let mut line = String::from(r#"{"op": "query", "id": 1"#);
            match ks {
                KSpec::Single(k) => {
                    let _ = write!(line, r#", "k": {k}"#);
                }
                KSpec::Range(lo, hi) => {
                    let _ = write!(line, r#", "k_min": {lo}, "k_max": {hi}"#);
                }
            }
            let _ = write!(
                line,
                r#", "start": {start}, "end": {end}, "lane": "{lane}""#
            );
            if let Some(ms) = deadline_ms {
                let _ = write!(line, r#", "deadline_ms": {ms}"#);
            }
            if let Some(algo) = algorithm {
                // The server's parser folds case and separators either way.
                let _ = write!(
                    line,
                    r#", "algo": "{}""#,
                    algo.to_string().to_ascii_lowercase()
                );
            }
            let output = match output {
                OutputKind::Count => "count",
                OutputKind::Full => "cores",
            };
            let _ = write!(line, r#", "output": "{output}""#);
            line.push('}');
            line
        }
    }
}

/// Writes the per-query result table of `tkc batch`.
fn write_batch_rows(out: &mut String, queries: &[TimeRangeKCoreQuery], rows: &[(u64, u64)]) {
    let _ = writeln!(
        out,
        "{:<6} {:<14} {:>10} {:>12}",
        "k", "range", "cores", "|R| (edges)"
    );
    for (query, (cores, edges)) in queries.iter().zip(rows) {
        let _ = writeln!(
            out,
            "{:<6} {:<14} {:>10} {:>12}",
            query.k(),
            query.range().to_string(),
            cores,
            edges
        );
    }
}

/// Submits every query to `service` as one count request, then waits for
/// all of them: the `(cores, |R|)` row of each, in query order.
fn run_queries(
    service: &CoreService,
    queries: &[TimeRangeKCoreQuery],
    algorithm: Algorithm,
) -> Result<Vec<(u64, u64)>, TkError> {
    let tickets = queries
        .iter()
        .map(|&query| service.submit_with(query.into(), algorithm))
        .collect::<Result<Vec<_>, _>>()?;
    tickets
        .into_iter()
        .map(|ticket| {
            let response = ticket.wait()?.response;
            Ok((response.total_cores(), response.total_result_edges()))
        })
        .collect()
}

/// The service worker count for a `--workers` value: `0` means one worker
/// per available CPU.
fn service_workers(workers: usize) -> usize {
    if workers == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        workers
    }
}

/// The engine layout for a `--shards` value: `0` is one span-wide shard
/// (the unsharded engine), `S > 0` cuts the timeline into `S` shards.
fn shard_plan(shards: usize) -> ShardPlan {
    if shards == 0 {
        ShardPlan::Span
    } else {
        ShardPlan::FixedCount(shards)
    }
}

/// Writes the skyline-cache counters, with the per-shard build breakdown
/// when the engine is sharded.
fn write_cache_summary(out: &mut String, cache: &CacheStats) {
    let _ = writeln!(
        out,
        "index cache: {} hits, {} misses, {} evictions, {} indexes resident ({:.2} MiB)",
        cache.hits,
        cache.misses,
        cache.evictions,
        cache.resident_indexes,
        cache.resident_bytes as f64 / (1024.0 * 1024.0)
    );
    write_shard_builds(out, cache);
}

/// Writes the per-shard build breakdown of a sharded engine's cache; a no-op
/// for the unsharded (one-shard) engine.
fn write_shard_builds(out: &mut String, cache: &CacheStats) {
    if cache.per_shard.len() > 1 {
        let builds: Vec<u64> = cache.per_shard.iter().map(|s| s.builds).collect();
        let _ = writeln!(
            out,
            "shard builds over {} shards: {:?}",
            cache.per_shard.len(),
            builds
        );
        let boundary = &cache.boundary;
        if boundary.builds + boundary.hits > 0 {
            let _ = writeln!(
                out,
                "boundary stitch index: {} builds, {} hits, {} entries resident ({:.2} MiB)",
                boundary.builds,
                boundary.hits,
                boundary.resident_entries,
                boundary.resident_bytes as f64 / (1024.0 * 1024.0)
            );
        }
    }
}

/// Writes the headline of a `tkc ingest` run.
#[allow(clippy::too_many_arguments)]
fn write_ingest_summary(
    out: &mut String,
    total: usize,
    appended: u64,
    rejected: u64,
    seals: u64,
    elapsed: std::time::Duration,
    watermark: u32,
    num_shards: usize,
    sealed_shards: usize,
) {
    let rate = appended as f64 / elapsed.as_secs_f64().max(1e-9);
    let _ = writeln!(
        out,
        "ingested {appended}/{total} events in {elapsed:?} ({rate:.0} events/s): \
         {rejected} rejected, {seals} seals"
    );
    let _ = writeln!(
        out,
        "timeline: watermark {watermark}, {num_shards} shards ({sealed_shards} sealed)"
    );
}

/// Writes the ingest-side counter movement plus the resulting cache state
/// and the service's ingest-lane breakdown.
fn write_ingest_stats(
    out: &mut String,
    before: &CacheStats,
    after: &CacheStats,
    service: &tkcore::ServiceStats,
) {
    let delta = IngestDelta::between(before, after);
    let _ = writeln!(
        out,
        "ingest invalidations: {} tail skylines, {} boundary entries, {} seals, \
         {} rebuilt at publish, {} query-path builds, {:+} resident bytes",
        delta.tail_invalidations,
        delta.boundary_invalidations,
        delta.seals,
        delta.published,
        delta.builds,
        delta.resident_bytes_delta
    );
    write_cache_summary(out, after);
    let lane = &service.ingest;
    let _ = writeln!(
        out,
        "ingest lane: {} submitted, {} completed, {} failed, {} events, {} seals, \
         absorb {:?}",
        lane.submitted,
        lane.completed,
        lane.failed,
        lane.events_appended,
        lane.seals,
        lane.absorb_total
    );
}

/// Executes a parsed command, returning the text to print on stdout.
pub fn run(command: Command) -> Result<String, CliError> {
    let mut out = String::new();
    match command {
        Command::Help => out.push_str(USAGE),
        Command::Profiles => {
            let _ = writeln!(
                out,
                "{:<6} {:<14} {:>8} {:>8} {:>6}",
                "name", "paper dataset", "|V|", "|E|", "tmax"
            );
            for p in tkc_datasets::ALL_PROFILES {
                let _ = writeln!(
                    out,
                    "{:<6} {:<14} {:>8} {:>8} {:>6}",
                    p.name, p.paper_dataset, p.num_vertices, p.num_edges, p.num_timestamps
                );
            }
        }
        Command::Stats { path } => {
            let graph = temporal_graph::loader::read_edge_list(&path)?;
            let stats = DatasetStats::compute(&graph);
            let _ = writeln!(out, "file:      {path}");
            let _ = writeln!(out, "|V|:       {}", stats.num_vertices);
            let _ = writeln!(out, "|E|:       {}", stats.num_edges);
            let _ = writeln!(out, "tmax:      {}", stats.tmax);
            let _ = writeln!(out, "kmax:      {}", stats.kmax);
            let _ = writeln!(
                out,
                "avg deg:   {:.2}",
                graph.average_distinct_degree_in(graph.span())
            );
        }
        Command::Batch {
            path,
            queries,
            algorithm,
            budget_mb,
            shards,
            workers,
        } => {
            let graph = temporal_graph::loader::read_edge_list(&path)?;
            let content = std::fs::read_to_string(&queries)
                .map_err(|e| CliError(format!("cannot read {queries}: {e}")))?;
            let parsed = parse_query_csv(&queries, &content, graph.tmax())?;
            // Every query is one request; the queue is sized to hold the
            // whole batch.
            let config = ServiceConfig {
                queue_depth: parsed.len(),
                workers: service_workers(workers),
                admission_memory_bytes: None,
                engine: tkcore::EngineConfig {
                    memory_budget_bytes: budget_mb * 1024 * 1024,
                    ..tkcore::EngineConfig::default()
                },
            };
            let service = CoreService::start_sharded(graph, shard_plan(shards), config)?;
            let rows = run_queries(&service, &parsed, algorithm)?;
            write_batch_rows(&mut out, &parsed, &rows);
            let stats = service.stats();
            let _ = writeln!(
                out,
                "\n{}: {} queries via {} service workers ({} cores, |R| = {} edges)",
                algorithm,
                parsed.len(),
                stats.per_worker.len(),
                rows.iter().map(|&(cores, _)| cores).sum::<u64>(),
                rows.iter().map(|&(_, edges)| edges).sum::<u64>()
            );
            let per_worker: Vec<u64> = stats.per_worker.iter().map(|w| w.completed).collect();
            let _ = writeln!(
                out,
                "queue wait {:?} + execute {:?} summed; per-worker completed: {:?}",
                stats.queue_wait_total, stats.execute_total, per_worker
            );
            write_cache_summary(&mut out, &service.cache_stats());
            service.shutdown();
        }
        Command::Ingest {
            path,
            events,
            shards,
            workers,
            batch,
            seal_edges,
            seal_span,
            queries,
            stats,
        } => {
            let graph = temporal_graph::loader::read_edge_list(&path)?;
            let label = if events == "-" {
                "<stdin>".to_string()
            } else {
                events.clone()
            };
            let text = if events == "-" {
                use std::io::Read as _;
                let mut buf = String::new();
                std::io::stdin()
                    .read_to_string(&mut buf)
                    .map_err(|e| CliError(format!("cannot read stdin: {e}")))?;
                buf
            } else {
                std::fs::read_to_string(&events)
                    .map_err(|e| CliError(format!("cannot read {events}: {e}")))?
            };
            let stream = parse_event_lines(&label, &text)?;
            let query_csv = queries
                .map(|qpath| {
                    std::fs::read_to_string(&qpath)
                        .map_err(|e| CliError(format!("cannot read {qpath}: {e}")))
                        .map(|content| (qpath, content))
                })
                .transpose()?;
            let seal_policy = if seal_edges > 0 {
                SealPolicy::EdgeCount(seal_edges)
            } else if seal_span > 0 {
                SealPolicy::SpanWidth(seal_span)
            } else {
                SealPolicy::Manual
            };
            let config = ServiceConfig {
                queue_depth: query_csv
                    .as_ref()
                    .map_or(0, |(_, content)| content.lines().count())
                    .max(8),
                workers: service_workers(workers),
                admission_memory_bytes: None,
                engine: tkcore::EngineConfig {
                    seal_policy,
                    ..tkcore::EngineConfig::default()
                },
            };
            let service = CoreService::start_sharded(graph, ShardPlan::FixedCount(shards), config)?;
            let engine = service.engine();
            let before = service.cache_stats();
            let started = std::time::Instant::now();
            let mut appended = 0u64;
            let mut rejected = 0u64;
            let mut seals = 0u64;
            for chunk in stream.chunks(batch) {
                match service.submit_append(chunk.to_vec()).and_then(|t| t.wait()) {
                    Ok(reply) => {
                        appended += reply.stats.appended as u64;
                        seals += u64::from(reply.stats.sealed);
                    }
                    Err(_) => {
                        // The batch was rejected wholesale (it contains an
                        // out-of-order or duplicate event); retry one event
                        // at a time so the good ones still land.
                        for &event in chunk {
                            match service.submit_append(vec![event]).and_then(|t| t.wait()) {
                                Ok(reply) => {
                                    appended += reply.stats.appended as u64;
                                    seals += u64::from(reply.stats.sealed);
                                }
                                Err(_) => rejected += 1,
                            }
                        }
                    }
                }
            }
            if matches!(seal_policy, SealPolicy::Manual) {
                seals += u64::from(engine.seal_tail().sealed);
            }
            let elapsed = started.elapsed();
            write_ingest_summary(
                &mut out,
                stream.len(),
                appended,
                rejected,
                seals,
                elapsed,
                engine.watermark(),
                engine.num_shards(),
                engine.sealed_shards(),
            );
            if stats {
                write_ingest_stats(&mut out, &before, &service.cache_stats(), &service.stats());
            }
            if let Some((qpath, content)) = query_csv {
                let parsed = parse_query_csv(&qpath, &content, engine.watermark())?;
                let rows = run_queries(&service, &parsed, Algorithm::Enum)?;
                let _ = writeln!(out, "\nlive queries over the ingested timeline:");
                write_batch_rows(&mut out, &parsed, &rows);
            }
            service.shutdown();
        }
        Command::Serve {
            path,
            addr,
            shards,
            workers,
            conn_workers,
            queue_depth,
        } => {
            let graph = temporal_graph::loader::read_edge_list(&path)?;
            let mut config = ServiceConfig {
                workers: service_workers(workers),
                ..ServiceConfig::default()
            };
            if queue_depth > 0 {
                config.queue_depth = queue_depth;
            }
            let service = Arc::new(CoreService::start_sharded(
                graph,
                shard_plan(shards),
                config,
            )?);
            let server = TkServer::bind(
                Arc::clone(&service),
                addr.as_str(),
                ServerConfig {
                    connection_workers: conn_workers,
                    ..ServerConfig::default()
                },
            )?;
            // Announce readiness on stdout *before* blocking in the accept
            // loop, so scripts (and the CI smoke test) can synchronise on
            // this line instead of sleeping.
            println!("listening on {}", server.local_addr());
            let _ = std::io::Write::flush(&mut std::io::stdout());
            let summary = server.serve()?;
            let stats = service.stats();
            drop(server);
            // Dropping the service drains the queue; a second drain via an
            // explicit shutdown elsewhere would be a no-op.
            drop(service);
            let _ = writeln!(
                out,
                "drained after {} connections, {} request lines",
                summary.connections, summary.requests
            );
            for lane in [Lane::Interactive, Lane::Batch] {
                let counters = stats.lane(lane);
                let _ = writeln!(
                    out,
                    "{lane}: {} admitted, {} completed, {} shed, {} rejected",
                    counters.admitted, counters.completed, counters.shed, counters.rejected
                );
            }
        }
        Command::Client { addr, action } => {
            use std::io::{BufRead as _, Write as _};
            let line = render_client_line(&action);
            let stream = std::net::TcpStream::connect(&addr)
                .map_err(|e| CliError(format!("cannot connect to {addr}: {e}")))?;
            // The whole line, newline included, goes out as one segment.
            stream
                .set_nodelay(true)
                .and_then(|()| (&stream).write_all(format!("{line}\n").as_bytes()))
                .map_err(|e| CliError(format!("cannot send to {addr}: {e}")))?;
            let mut reply = String::new();
            std::io::BufReader::new(stream)
                .read_line(&mut reply)
                .map_err(|e| CliError(format!("cannot read the reply from {addr}: {e}")))?;
            if reply.trim().is_empty() {
                return Err(CliError(format!(
                    "{addr} closed the connection without a reply"
                )));
            }
            // An error reply (shed, refused, failed) is data, not a
            // transport failure; print it and exit 0 either way.
            let _ = writeln!(out, "{}", reply.trim_end());
        }
        Command::GenEvents {
            count,
            output,
            vertices,
            start_after,
            profile,
            seed,
        } => {
            let profile = match profile.as_str() {
                "steady" => ArrivalProfile::Steady { events_per_tick: 4 },
                "bursty" => ArrivalProfile::Bursty {
                    burst: 16,
                    quiet_ticks: 3,
                },
                "jitter" => ArrivalProfile::OutOfOrderJitter {
                    events_per_tick: 4,
                    jitter: 3,
                },
                other => {
                    return Err(CliError(format!(
                        "--profile: `{other}` is not steady, bursty or jitter"
                    )))
                }
            };
            let events = EventStream::generate(&EventStreamConfig {
                num_events: count,
                num_vertices: vertices,
                start_after,
                profile,
                seed,
            });
            let mut text = String::with_capacity(events.len() * 12);
            for (u, v, t) in &events {
                let _ = writeln!(text, "{u} {v} {t}");
            }
            if output == "-" {
                out.push_str(&text);
            } else {
                std::fs::write(&output, &text)
                    .map_err(|e| CliError(format!("cannot write {output}: {e}")))?;
                let _ = writeln!(
                    out,
                    "wrote {} events after t={start_after} to {output}",
                    events.len()
                );
            }
        }
        Command::Generate { profile, output } => {
            let profile = DatasetProfile::by_name(&profile).ok_or_else(|| {
                CliError(format!("unknown profile `{profile}` (see `tkc profiles`)"))
            })?;
            let graph = profile.generate();
            temporal_graph::loader::write_edge_list(&graph, &output)?;
            let _ = writeln!(
                out,
                "wrote {} edges over {} vertices ({} timestamps) to {output}",
                graph.num_edges(),
                graph.num_vertices(),
                graph.tmax()
            );
        }
        Command::Query {
            path,
            ks,
            start,
            end,
            algorithm,
            output,
            limit,
            shards,
            workers,
        } => {
            let graph = temporal_graph::loader::read_edge_list(&path)?;
            let start = start.unwrap_or(1);
            let end = end.unwrap_or_else(|| graph.tmax());
            let request = match ks {
                KSpec::Single(k) => QueryRequest::single(k, start, end),
                KSpec::Range(lo, hi) => QueryRequest::sweep(lo..=hi, start, end),
            };
            let request = match output {
                OutputKind::Count => request.count(),
                OutputKind::Full => request.materialize(),
            };
            // The request runs on a service; a k-range sweep or a sharded
            // query reuses one cached index per (shard and) k.
            let workers = service_workers(workers);
            let config = ServiceConfig {
                workers,
                ..ServiceConfig::default()
            };
            let service = CoreService::start_sharded(graph, shard_plan(shards), config)?;
            let reply = service.submit_with(request, algorithm)?.wait()?;
            let graph = service.engine().graph();
            let cache = service.cache_stats();
            service.shutdown();
            let response = reply.response;
            for outcome in &response.outcomes {
                let k = outcome.k;
                match &outcome.output {
                    KOutput::Counts(counts) => {
                        let _ = writeln!(
                            out,
                            "{}: {} distinct temporal {}-cores in {}, |R| = {} edges ({:?})",
                            algorithm,
                            counts.num_cores,
                            k,
                            response.window,
                            counts.total_edges,
                            outcome.stats.total_time()
                        );
                    }
                    KOutput::Cores(cores) => {
                        let _ = writeln!(
                            out,
                            "{}: {} distinct temporal {}-cores in {} ({:?})",
                            algorithm,
                            cores.len(),
                            k,
                            response.window,
                            outcome.stats.total_time()
                        );
                        for core in cores.iter().take(limit) {
                            let _ = writeln!(
                                out,
                                "  TTI {:<12} {:>5} vertices {:>6} edges",
                                core.tti.to_string(),
                                core.vertices(&graph).len(),
                                core.num_edges()
                            );
                        }
                        if cores.len() > limit {
                            let _ = writeln!(
                                out,
                                "  ... and {} more (use --limit)",
                                cores.len() - limit
                            );
                        }
                    }
                    KOutput::Streamed => unreachable!("the CLI never requests streaming"),
                }
            }
            let _ = writeln!(
                out,
                "service: {workers} workers, request {} queued {:?}, \
                 executed {:?} on worker {}",
                reply.id, reply.queue_wait, reply.execute_time, reply.worker
            );
            let _ = writeln!(
                out,
                "index cache: {} misses over {} k values ({} hits)",
                cache.misses,
                response.outcomes.len(),
                cache.hits
            );
            write_shard_builds(&mut out, &cache);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// Asserts that `args` is refused with an error naming `flag`.
    fn refuses(args: &[&str], flag: &str) {
        let err = parse_args(&strings(args)).unwrap_err();
        assert!(err.0.contains(flag), "{args:?}: {err}");
    }

    #[test]
    fn parses_help_and_profiles() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(parse_args(&strings(&["help"])).unwrap(), Command::Help);
        assert_eq!(
            parse_args(&strings(&["profiles"])).unwrap(),
            Command::Profiles
        );
        assert!(run(Command::Help).unwrap().contains("USAGE"));
        assert!(run(Command::Profiles).unwrap().contains("CollegeMsg"));
    }

    #[test]
    fn parses_query_flags() {
        let cmd = parse_args(&strings(&[
            "query", "g.txt", "--k", "3", "--start", "2", "--end", "9", "--algo", "otcd",
            "--output", "count", "--limit", "5",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Query {
                path: "g.txt".into(),
                ks: KSpec::Single(3),
                start: Some(2),
                end: Some(9),
                algorithm: Algorithm::Otcd,
                output: OutputKind::Count,
                limit: 5,
                shards: 0,
                workers: 0,
            }
        );
        // --algorithm and --count-only remain as aliases.
        let legacy = parse_args(&strings(&[
            "query",
            "g.txt",
            "--k",
            "3",
            "--algorithm",
            "enum-base",
            "--count-only",
        ]))
        .unwrap();
        assert_eq!(
            legacy,
            Command::Query {
                path: "g.txt".into(),
                ks: KSpec::Single(3),
                start: None,
                end: None,
                algorithm: Algorithm::EnumBase,
                output: OutputKind::Count,
                limit: 20,
                shards: 0,
                workers: 0,
            }
        );
        // Sharded, service-backed execution.
        let sharded = parse_args(&strings(&[
            "query",
            "g.txt",
            "--k",
            "3",
            "--shards",
            "4",
            "--workers",
            "2",
        ]))
        .unwrap();
        assert_eq!(
            sharded,
            Command::Query {
                path: "g.txt".into(),
                ks: KSpec::Single(3),
                start: None,
                end: None,
                algorithm: Algorithm::Enum,
                output: OutputKind::Full,
                limit: 20,
                shards: 4,
                workers: 2,
            }
        );
    }

    #[test]
    fn parses_k_range_flag() {
        for spelled in ["2..=5", "2..5", "2-5", " 2 ..= 5 "] {
            let cmd = parse_args(&strings(&["query", "g.txt", "--k-range", spelled])).unwrap();
            assert_eq!(
                cmd,
                Command::Query {
                    path: "g.txt".into(),
                    ks: KSpec::Range(2, 5),
                    start: None,
                    end: None,
                    algorithm: Algorithm::Enum,
                    output: OutputKind::Full,
                    limit: 20,
                    shards: 0,
                    workers: 0,
                },
                "{spelled}"
            );
        }
        assert!(parse_args(&strings(&["query", "g.txt", "--k-range", "5..=2"])).is_err());
        assert!(parse_args(&strings(&["query", "g.txt", "--k-range", "0..=2"])).is_err());
        assert!(parse_args(&strings(&["query", "g.txt", "--k-range", "7"])).is_err());
        assert!(parse_args(&strings(&[
            "query",
            "g.txt",
            "--k",
            "2",
            "--k-range",
            "2..=3"
        ]))
        .is_err());
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse_args(&strings(&["query", "g.txt"])).is_err()); // missing --k
        assert!(parse_args(&strings(&["query", "g.txt", "--k", "x"])).is_err());
        assert!(parse_args(&strings(&["query", "g.txt", "--k", "2", "--algo", "magic"])).is_err());
        assert!(parse_args(&strings(&["query", "g.txt", "--k", "2", "--output", "wat"])).is_err());
        assert!(parse_args(&strings(&["frobnicate"])).is_err());
        assert!(parse_args(&strings(&["stats"])).is_err());
        assert!(parse_args(&strings(&["generate", "CM"])).is_err());
        // Timestamps past u32 are refused, not wrapped into a small window.
        refuses(
            &["query", "g.txt", "--k", "2", "--start", "4294967297"],
            "--start",
        );
        refuses(
            &["query", "g.txt", "--k", "2", "--end", "4294967300"],
            "--end",
        );
    }

    #[test]
    fn zero_k_is_a_rendered_tk_error_not_a_panic() {
        let dir = std::env::temp_dir().join("tkc-cli-zero-k");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fb.txt");
        let path_str = path.to_string_lossy().to_string();
        run(Command::Generate {
            profile: "FB".into(),
            output: path_str.clone(),
        })
        .unwrap();
        let err = run(Command::Query {
            path: path_str,
            ks: KSpec::Single(0),
            start: None,
            end: None,
            algorithm: Algorithm::Enum,
            output: OutputKind::Count,
            limit: 10,
            shards: 0,
            workers: 0,
        })
        .unwrap_err();
        assert!(err.0.contains("k = 0"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generate_stats_query_round_trip() {
        let dir = std::env::temp_dir().join("tkc-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fb.txt");
        let path_str = path.to_string_lossy().to_string();

        let out = run(Command::Generate {
            profile: "FB".into(),
            output: path_str.clone(),
        })
        .unwrap();
        assert!(out.contains("wrote"));

        let out = run(Command::Stats {
            path: path_str.clone(),
        })
        .unwrap();
        assert!(out.contains("kmax"));

        let out = run(Command::Query {
            path: path_str.clone(),
            ks: KSpec::Single(3),
            start: None,
            end: None,
            algorithm: Algorithm::Enum,
            output: OutputKind::Count,
            limit: 10,
            shards: 0,
            workers: 0,
        })
        .unwrap();
        assert!(out.contains("distinct temporal 3-cores"));

        // A k-range sweep prints one line per k plus the cache summary, and
        // builds each index exactly once.
        let out = run(Command::Query {
            path: path_str.clone(),
            ks: KSpec::Range(2, 4),
            start: None,
            end: None,
            algorithm: Algorithm::Enum,
            output: OutputKind::Count,
            limit: 10,
            shards: 0,
            workers: 0,
        })
        .unwrap();
        for k in 2..=4 {
            assert!(
                out.contains(&format!("distinct temporal {k}-cores")),
                "{out}"
            );
        }
        assert!(
            out.contains("index cache: 3 misses over 3 k values"),
            "{out}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sharded_and_service_query_match_direct_execution() {
        let dir = std::env::temp_dir().join("tkc-cli-sharded-query");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fb.txt");
        let path_str = path.to_string_lossy().to_string();
        run(Command::Generate {
            profile: "FB".into(),
            output: path_str.clone(),
        })
        .unwrap();
        let query = |shards: usize, workers: usize| {
            run(Command::Query {
                path: path_str.clone(),
                ks: KSpec::Single(3),
                start: None,
                end: None,
                algorithm: Algorithm::Enum,
                output: OutputKind::Count,
                limit: 10,
                shards,
                workers,
            })
            .unwrap()
        };
        // The counts line of direct per-query execution, without the
        // per-run timing suffix.
        let graph = temporal_graph::loader::read_edge_list(&path_str).unwrap();
        let direct = QueryRequest::single(3, 1, graph.tmax())
            .run(&graph, Algorithm::Enum)
            .unwrap();
        let direct_counts = format!(
            "Enum: {} distinct temporal 3-cores in {}, |R| = {} edges",
            direct.total_cores(),
            direct.window,
            direct.total_result_edges()
        );
        // The default, sharded, multi-worker, and combined runs all report
        // the same counts line; the serving detail rides below it.
        let default = query(0, 0);
        assert!(
            default.contains(&direct_counts),
            "{default}\n{direct_counts}"
        );
        assert!(
            default.contains(&format!("service: {} workers", cpus())),
            "{default}"
        );
        let sharded = query(4, 0);
        assert!(sharded.contains(&direct_counts), "{sharded}");
        assert!(sharded.contains("shard builds over 4 shards"), "{sharded}");
        let served = query(0, 2);
        assert!(served.contains(&direct_counts), "{served}");
        assert!(served.contains("service: 2 workers"), "{served}");
        let both = query(4, 2);
        assert!(both.contains(&direct_counts), "{both}");
        assert!(both.contains("shard builds over 4 shards"), "{both}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The host's CPU count, which `--workers 0` resolves to.
    fn cpus() -> usize {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }

    #[test]
    fn parses_batch_flags() {
        let cmd = parse_args(&strings(&[
            "batch",
            "g.txt",
            "q.csv",
            "--algo",
            "enum-base",
            "--threads",
            "4",
            "--budget-mb",
            "64",
        ]))
        .unwrap();
        // `--threads` stays accepted as an alias that sets the worker count.
        assert_eq!(
            cmd,
            Command::Batch {
                path: "g.txt".into(),
                queries: "q.csv".into(),
                algorithm: Algorithm::EnumBase,
                budget_mb: 64,
                shards: 0,
                workers: 4,
            }
        );
        let sharded = parse_args(&strings(&[
            "batch",
            "g.txt",
            "q.csv",
            "--shards",
            "4",
            "--workers",
            "2",
        ]))
        .unwrap();
        assert_eq!(
            sharded,
            Command::Batch {
                path: "g.txt".into(),
                queries: "q.csv".into(),
                algorithm: Algorithm::Enum,
                budget_mb: 256,
                shards: 4,
                workers: 2,
            }
        );
        // Without either flag the batch fans across one worker per CPU.
        let Command::Batch { workers, .. } =
            parse_args(&strings(&["batch", "g.txt", "q.csv"])).unwrap()
        else {
            panic!("batch command");
        };
        assert_eq!(workers, 0);
        assert_eq!(service_workers(workers), cpus());
        assert_eq!(service_workers(3), 3);
        assert!(parse_args(&strings(&["batch", "g.txt"])).is_err());
        assert!(parse_args(&strings(&["batch", "g.txt", "q.csv", "--budget-mb", "0"])).is_err());
        assert!(parse_args(&strings(&["batch", "g.txt", "q.csv", "--wat"])).is_err());
        // 2^44 MiB is 2^64 bytes: the byte budget would wrap to 0.
        refuses(
            &["batch", "g.txt", "q.csv", "--budget-mb", "17592186044416"],
            "--budget-mb",
        );
    }

    #[test]
    fn parse_query_csv_accepts_comments_and_span_queries() {
        let parsed =
            parse_query_csv("q.csv", "# header\n2,1,5\n\n3  # whole span\n2, 2, 2\n", 9).unwrap();
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[0].k(), 2);
        assert_eq!(parsed[0].range().to_string(), "[1, 5]");
        assert_eq!(parsed[1].range().to_string(), "[1, 9]");
        assert_eq!(parsed[2].range().to_string(), "[2, 2]");

        assert!(parse_query_csv("q.csv", "", 9).is_err());
        assert!(parse_query_csv("q.csv", "0,1,5", 9).is_err());
        assert!(parse_query_csv("q.csv", "2,5,1", 9).is_err());
        assert!(parse_query_csv("q.csv", "2,1", 9).is_err());
        assert!(parse_query_csv("q.csv", "x,1,5", 9).is_err());

        // A past-tmax row is caught at parse time with the offending line,
        // instead of failing the whole batch later without context.
        let err = parse_query_csv("q.csv", "2,1,5\n2,50,60\n", 9).unwrap_err();
        assert!(err.0.contains("line 2"), "{err}");
        assert!(err.0.contains("past the graph"), "{err}");
    }

    #[test]
    fn batch_round_trip_matches_per_query_runs() {
        let dir = std::env::temp_dir().join("tkc-cli-batch-test");
        std::fs::create_dir_all(&dir).unwrap();
        let graph_path = dir.join("fb.txt");
        let graph_str = graph_path.to_string_lossy().to_string();
        run(Command::Generate {
            profile: "FB".into(),
            output: graph_str.clone(),
        })
        .unwrap();

        let csv_path = dir.join("queries.csv");
        std::fs::write(&csv_path, "3,1,120\n3,40,200\n2\n").unwrap();
        let out = run(Command::Batch {
            path: graph_str.clone(),
            queries: csv_path.to_string_lossy().to_string(),
            algorithm: Algorithm::Enum,
            budget_mb: 32,
            shards: 0,
            workers: 0,
        })
        .unwrap();
        assert!(out.contains("3 queries"), "{out}");
        assert!(out.contains("index cache:"), "{out}");

        // Cross-check one query against the one-shot path.
        let graph = temporal_graph::loader::read_edge_list(&graph_str).unwrap();
        let mut sink = tkcore::CountingSink::default();
        TimeRangeKCoreQuery::new(3, temporal_graph::TimeWindow::new(1, 120))
            .unwrap()
            .run_with(&graph, Algorithm::Enum, &mut sink);
        let expected_row = format!(
            "{:<6} {:<14} {:>10} {:>12}",
            3, "[1, 120]", sink.num_cores, sink.total_edges
        );
        assert!(
            out.contains(expected_row.trim_end()),
            "missing `{expected_row}` in:\n{out}"
        );

        // The same batch through a 4-shard engine and through a 2-worker
        // service reports identical per-query rows.
        let sharded = run(Command::Batch {
            path: graph_str.clone(),
            queries: csv_path.to_string_lossy().to_string(),
            algorithm: Algorithm::Enum,
            budget_mb: 32,
            shards: 4,
            workers: 0,
        })
        .unwrap();
        assert!(sharded.contains(expected_row.trim_end()), "{sharded}");
        assert!(sharded.contains("shard builds over 4 shards"), "{sharded}");

        let served = run(Command::Batch {
            path: graph_str.clone(),
            queries: csv_path.to_string_lossy().to_string(),
            algorithm: Algorithm::Enum,
            budget_mb: 32,
            shards: 4,
            workers: 2,
        })
        .unwrap();
        assert!(served.contains(expected_row.trim_end()), "{served}");
        assert!(served.contains("via 2 service workers"), "{served}");
        assert!(served.contains("per-worker completed"), "{served}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ingest_parses_flags_and_rejects_conflicting_seal_policies() {
        assert_eq!(
            parse_args(&strings(&[
                "ingest",
                "g.txt",
                "-",
                "--shards",
                "4",
                "--workers",
                "2",
                "--batch",
                "32",
                "--seal-edges",
                "100",
                "--stats",
            ]))
            .unwrap(),
            Command::Ingest {
                path: "g.txt".into(),
                events: "-".into(),
                shards: 4,
                workers: 2,
                batch: 32,
                seal_edges: 100,
                seal_span: 0,
                queries: None,
                stats: true,
            }
        );
        assert!(parse_args(&strings(&[
            "ingest",
            "g.txt",
            "ev.txt",
            "--seal-edges",
            "10",
            "--seal-span",
            "5",
        ]))
        .is_err());
        assert!(parse_args(&strings(&["ingest", "g.txt", "ev.txt", "--shards", "0"])).is_err());
        assert!(parse_args(&strings(&["ingest", "g.txt"])).is_err());
        assert!(parse_args(&strings(&["gen-events", "ten", "-"])).is_err());
        refuses(
            &["ingest", "g.txt", "ev.txt", "--seal-span", "4294967296"],
            "--seal-span",
        );
        refuses(
            &[
                "ingest",
                "g.txt",
                "ev.txt",
                "--seal-span",
                "4294967296",
                "--seal-edges",
                "5",
            ],
            "--seal-span",
        );
        refuses(
            &["gen-events", "10", "-", "--start-after", "4294967297"],
            "--start-after",
        );
        // One vertex allows only self loops, which ingest rejects.
        refuses(&["gen-events", "10", "-", "--vertices", "1"], "--vertices");
    }

    #[test]
    fn gen_events_streams_into_ingest_and_live_queries_see_the_appends() {
        let dir = std::env::temp_dir().join("tkc-cli-ingest-test");
        std::fs::create_dir_all(&dir).unwrap();
        let graph_path = dir.join("fb.txt").to_string_lossy().to_string();
        run(Command::Generate {
            profile: "FB".into(),
            output: graph_path.clone(),
        })
        .unwrap();
        let base = temporal_graph::loader::read_edge_list(&graph_path).unwrap();

        // Generate a steady stream past the base graph's watermark.
        let events_path = dir.join("events.txt").to_string_lossy().to_string();
        let written = run(Command::GenEvents {
            count: 120,
            output: events_path.clone(),
            vertices: 60,
            start_after: base.tmax(),
            profile: "steady".into(),
            seed: 9,
        })
        .unwrap();
        assert!(written.contains("wrote 120 events"), "{written}");

        // `-` prints the stream instead; it must parse back.
        let stdout = run(Command::GenEvents {
            count: 10,
            output: "-".into(),
            vertices: 20,
            start_after: 5,
            profile: "bursty".into(),
            seed: 9,
        })
        .unwrap();
        assert_eq!(parse_event_lines("<stdout>", &stdout).unwrap().len(), 10);

        let queries_path = dir.join("queries.csv");
        std::fs::write(&queries_path, "2\n").unwrap();

        // One worker per CPU, with an edge-count seal policy.
        let out = run(Command::Ingest {
            path: graph_path.clone(),
            events: events_path.clone(),
            shards: 3,
            workers: 0,
            batch: 16,
            seal_edges: 50,
            seal_span: 0,
            queries: Some(queries_path.to_string_lossy().to_string()),
            stats: true,
        })
        .unwrap();
        assert!(out.contains("ingested 120/120 events"), "{out}");
        assert!(out.contains("0 rejected"), "{out}");
        assert!(out.contains("seals"), "{out}");
        assert!(out.contains("ingest invalidations:"), "{out}");
        assert!(
            out.contains("live queries over the ingested timeline:"),
            "{out}"
        );

        // The same stream through a service's ingest lane, manual seal.
        let served = run(Command::Ingest {
            path: graph_path.clone(),
            events: events_path.clone(),
            shards: 3,
            workers: 2,
            batch: 16,
            seal_edges: 0,
            seal_span: 0,
            queries: Some(queries_path.to_string_lossy().to_string()),
            stats: true,
        })
        .unwrap();
        assert!(served.contains("ingested 120/120 events"), "{served}");
        assert!(served.contains("ingest lane:"), "{served}");
        assert!(served.contains("1 seals"), "{served}");

        // A jittered stream contains out-of-order events: they are rejected
        // one by one while the in-order remainder still lands.
        let jitter_path = dir.join("jitter.txt").to_string_lossy().to_string();
        run(Command::GenEvents {
            count: 100,
            output: jitter_path.clone(),
            vertices: 40,
            start_after: base.tmax(),
            profile: "jitter".into(),
            seed: 4,
        })
        .unwrap();
        let jittered = run(Command::Ingest {
            path: graph_path.clone(),
            events: jitter_path,
            shards: 3,
            workers: 0,
            batch: 16,
            seal_edges: 0,
            seal_span: 0,
            queries: None,
            stats: false,
        })
        .unwrap();
        let rejected: u64 = jittered
            .split(" rejected")
            .next()
            .and_then(|s| s.rsplit(' ').next())
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        assert!(rejected > 0, "{jittered}");
        assert!(!jittered.contains("ingested 0/"), "{jittered}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parses_serve_with_defaults_and_flags() {
        assert_eq!(
            parse_args(&strings(&["serve", "g.txt"])).unwrap(),
            Command::Serve {
                path: "g.txt".into(),
                addr: "127.0.0.1:7411".into(),
                shards: 0,
                workers: 0,
                conn_workers: 4,
                queue_depth: 0,
            }
        );
        assert_eq!(
            parse_args(&strings(&[
                "serve",
                "g.txt",
                "--addr",
                "127.0.0.1:0",
                "--shards",
                "3",
                "--workers",
                "2",
                "--conn-workers",
                "8",
                "--queue-depth",
                "16",
            ]))
            .unwrap(),
            Command::Serve {
                path: "g.txt".into(),
                addr: "127.0.0.1:0".into(),
                shards: 3,
                workers: 2,
                conn_workers: 8,
                queue_depth: 16,
            }
        );
        // The default `--workers 0` serves with one worker per CPU, not one.
        assert_eq!(service_workers(0), cpus());
        assert_eq!(service_workers(2), 2);
        assert!(parse_args(&strings(&["serve", "g.txt", "--conn-workers", "0"])).is_err());
    }

    #[test]
    fn parses_client_queries_and_ops() {
        assert_eq!(
            parse_args(&strings(&[
                "client",
                "127.0.0.1:7411",
                "--k",
                "2",
                "--start",
                "1",
                "--end",
                "9",
                "--lane",
                "batch",
                "--deadline-ms",
                "250",
            ]))
            .unwrap(),
            Command::Client {
                addr: "127.0.0.1:7411".into(),
                action: ClientAction::Query {
                    ks: KSpec::Single(2),
                    start: 1,
                    end: 9,
                    lane: Lane::Batch,
                    deadline_ms: Some(250),
                    algorithm: None,
                    output: OutputKind::Count,
                },
            }
        );
        assert_eq!(
            parse_args(&strings(&["client", "localhost:7411", "--shutdown"])).unwrap(),
            Command::Client {
                addr: "localhost:7411".into(),
                action: ClientAction::Shutdown,
            }
        );
        // A query needs k and an explicit range; ops reject query flags.
        assert!(parse_args(&strings(&["client", "h:1", "--k", "2"])).is_err());
        assert!(parse_args(&strings(&["client", "h:1"])).is_err());
        assert!(parse_args(&strings(&["client", "h:1", "--ping", "--k", "2"])).is_err());
        assert!(parse_args(&strings(&["client", "h:1", "--lane", "express"])).is_err());
        refuses(
            &[
                "client",
                "h:1",
                "--k",
                "2",
                "--start",
                "1",
                "--end",
                "4294967296",
            ],
            "--end",
        );
    }

    #[test]
    fn client_lines_follow_the_wire_protocol() {
        assert_eq!(render_client_line(&ClientAction::Ping), r#"{"op": "ping"}"#);
        let line = render_client_line(&ClientAction::Query {
            ks: KSpec::Range(2, 4),
            start: 1,
            end: 9,
            lane: Lane::Batch,
            deadline_ms: Some(250),
            algorithm: Some(Algorithm::Enum),
            output: OutputKind::Full,
        });
        assert_eq!(
            line,
            r#"{"op": "query", "id": 1, "k_min": 2, "k_max": 4, "start": 1, "end": 9, "lane": "batch", "deadline_ms": 250, "algo": "enum", "output": "cores"}"#
        );
    }

    #[test]
    fn a_truncated_final_event_line_is_a_typed_error() {
        let err = parse_event_lines("<stdin>", "1 2 101\n3 4").unwrap_err();
        assert!(err.0.contains("truncated final event line"), "{}", err.0);
        assert!(err.0.contains("line 2"), "{}", err.0);
        // The same defect mid-stream is an ordinary parse error...
        let err = parse_event_lines("<stdin>", "1 2\n3 4 102\n").unwrap_err();
        assert!(!err.0.contains("truncated"), "{}", err.0);
        // ...and a complete final triple without a trailing newline is fine.
        let events = parse_event_lines("<stdin>", "1 2 101\n3 4 102").unwrap();
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn unknown_profile_and_missing_file_are_errors() {
        assert!(run(Command::Generate {
            profile: "NOPE".into(),
            output: "/tmp/x.txt".into()
        })
        .is_err());
        assert!(run(Command::Stats {
            path: "/definitely/missing.txt".into()
        })
        .is_err());
    }
}
