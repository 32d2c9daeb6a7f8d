//! Structured errors for the fallible query API.
//!
//! Every public entry point of the unified query surface —
//! [`crate::QueryRequest::validate`], [`crate::Algorithm::execute`],
//! [`crate::ShardedEngine::execute`], [`crate::CoreService::submit`] — returns
//! `Result<_, TkError>` instead of panicking or silently clamping degenerate
//! input.  The variants mirror the ways a `(k, [Ts, Te])` query can be
//! malformed or refused, so callers (the CLI, a serving layer) can render or
//! route them without string matching.

use crate::query::Algorithm;
use std::fmt;
use std::time::Duration;
use temporal_graph::Timestamp;

/// Error type of the unified time-range temporal k-core query API.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TkError {
    /// The query parameter `k` is outside the meaningful range: `k >= 1` (a
    /// 0-core is the whole projected graph, not a cohesive-subgraph query),
    /// and a `k`-range sweep may not reach past the graph's vertex count (a
    /// k-core needs more than `k` vertices).
    KOutOfRange {
        /// The rejected value.
        k: usize,
    },
    /// A multi-`k` request selected no `k` at all (an empty set, or an
    /// inverted `k` range such as `4..=2`).
    EmptyKSelection,
    /// The requested window `[start, end]` covers no timestamp: `start`
    /// is zero (timestamps are 1-based) or exceeds `end`.
    EmptyWindow {
        /// Requested window start.
        start: Timestamp,
        /// Requested window end.
        end: Timestamp,
    },
    /// The requested window starts after the graph's last timestamp, so no
    /// edge occurrence can fall inside it.
    WindowPastTmax {
        /// Requested window start.
        start: Timestamp,
        /// The graph's last timestamp.
        tmax: Timestamp,
    },
    /// An admission-control budget was hit; the request was refused rather
    /// than queued or executed.
    BudgetExceeded {
        /// The exhausted resource (`"request queue"`, `"cache memory"`).
        resource: &'static str,
        /// The configured limit in the resource's natural unit.
        limit: usize,
    },
    /// The request's deadline expired before a worker could execute it: it
    /// was shed from the queue (or refused at admission when it arrived
    /// already expired) without running.  Nothing was computed.
    DeadlineExceeded {
        /// The deadline the request carried at submission.
        deadline: Duration,
        /// How long the request had waited when it was shed.
        waited: Duration,
    },
    /// A [`crate::CoreService`] serves only `Enum`, so a request whose
    /// [`crate::SubmitOptions::algorithm`] names a baseline is refused
    /// before admission; the baselines run per query through
    /// [`Algorithm::execute`].
    UnsupportedAlgorithm {
        /// The algorithm the request named.
        algorithm: Algorithm,
    },
    /// An algorithm name did not parse (see [`Algorithm`]'s `FromStr`).
    UnknownAlgorithm {
        /// The unparseable input.
        name: String,
    },
    /// A [`crate::ShardPlan`] could not be resolved against the graph's
    /// timeline (zero shard count, out-of-range or non-increasing cut
    /// points, zero edge target).
    InvalidShardPlan {
        /// Human-readable description of the defect.
        detail: String,
    },
    /// The [`crate::CoreService`] worker has shut down; the request cannot
    /// be accepted or its reply was dropped.
    ServiceStopped,
    /// A service worker caught a panic while executing the request
    /// (typically a panicking user sink).  The worker survived, its
    /// statistics are intact, and only this request failed.
    WorkerPanicked {
        /// The rendered panic payload.
        detail: String,
    },
    /// An I/O error while loading inputs or persisting outputs.
    Io {
        /// The rendered underlying error.
        detail: String,
    },
    /// An ingest event arrived out of time order: live appends must carry
    /// non-decreasing timestamps strictly past the sealed watermark.
    AppendOutOfOrder {
        /// The rejected event timestamp.
        t: Timestamp,
        /// The smallest timestamp the ingest lane currently accepts.
        watermark: Timestamp,
    },
    /// An ingest event duplicates an edge occurrence already present at the
    /// same timestamp.
    AppendDuplicate {
        /// First endpoint label of the rejected event.
        u: u64,
        /// Second endpoint label of the rejected event.
        v: u64,
        /// Timestamp of the rejected event.
        t: Timestamp,
    },
    /// An ingest batch was refused before any event was applied (a self
    /// loop or malformed event, or the target engine does not ingest).
    AppendRejected {
        /// Human-readable description of the rejection.
        detail: String,
    },
}

impl TkError {
    /// Stable machine-readable name of this error's variant.
    ///
    /// The `tkc serve` wire protocol puts this in every error reply's
    /// `"error"` field so clients can route on it (retry `BudgetExceeded`,
    /// drop `DeadlineExceeded`, surface the rest) without parsing the
    /// human-readable [`fmt::Display`] rendering.
    pub fn code(&self) -> &'static str {
        match self {
            TkError::KOutOfRange { .. } => "KOutOfRange",
            TkError::EmptyKSelection => "EmptyKSelection",
            TkError::EmptyWindow { .. } => "EmptyWindow",
            TkError::WindowPastTmax { .. } => "WindowPastTmax",
            TkError::BudgetExceeded { .. } => "BudgetExceeded",
            TkError::DeadlineExceeded { .. } => "DeadlineExceeded",
            TkError::UnsupportedAlgorithm { .. } => "UnsupportedAlgorithm",
            TkError::UnknownAlgorithm { .. } => "UnknownAlgorithm",
            TkError::InvalidShardPlan { .. } => "InvalidShardPlan",
            TkError::ServiceStopped => "ServiceStopped",
            TkError::WorkerPanicked { .. } => "WorkerPanicked",
            TkError::Io { .. } => "Io",
            TkError::AppendOutOfOrder { .. } => "AppendOutOfOrder",
            TkError::AppendDuplicate { .. } => "AppendDuplicate",
            TkError::AppendRejected { .. } => "AppendRejected",
        }
    }
}

impl fmt::Display for TkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TkError::KOutOfRange { k } => {
                write!(
                    f,
                    "k = {k} is out of range (temporal k-core queries require k >= 1, and a \
                     k-range sweep may not exceed the graph's vertex count)"
                )
            }
            TkError::EmptyKSelection => write!(f, "the request selects no k at all"),
            TkError::EmptyWindow { start, end } => write!(
                f,
                "window [{start}, {end}] is empty (timestamps are 1-based and start <= end)"
            ),
            TkError::WindowPastTmax { start, tmax } => write!(
                f,
                "window starts at {start}, past the graph's last timestamp {tmax}"
            ),
            TkError::BudgetExceeded { resource, limit } => {
                write!(
                    f,
                    "{resource} budget exceeded (limit {limit}); request rejected"
                )
            }
            TkError::DeadlineExceeded { deadline, waited } => write!(
                f,
                "deadline of {deadline:?} exceeded after waiting {waited:?}; request shed \
                 without executing"
            ),
            TkError::UnsupportedAlgorithm { algorithm } => write!(
                f,
                "algorithm {algorithm} runs only per query; a service serves only Enum"
            ),
            TkError::UnknownAlgorithm { name } => write!(
                f,
                "unknown algorithm `{name}` (expected enum, enum-base, otcd or naive)"
            ),
            TkError::InvalidShardPlan { detail } => {
                write!(f, "invalid shard plan: {detail}")
            }
            TkError::ServiceStopped => write!(f, "the query service has shut down"),
            TkError::WorkerPanicked { detail } => {
                write!(f, "a service worker panicked while executing: {detail}")
            }
            TkError::Io { detail } => write!(f, "I/O error: {detail}"),
            TkError::AppendOutOfOrder { t, watermark } => write!(
                f,
                "out-of-order append at t = {t}: the ingest lane accepts t >= {watermark}"
            ),
            TkError::AppendDuplicate { u, v, t } => write!(
                f,
                "duplicate append: edge ({u}, {v}) already occurs at t = {t}"
            ),
            TkError::AppendRejected { detail } => {
                write!(f, "append rejected: {detail}")
            }
        }
    }
}

impl std::error::Error for TkError {}

impl From<std::io::Error> for TkError {
    fn from(e: std::io::Error) -> Self {
        TkError::Io {
            detail: e.to_string(),
        }
    }
}

impl From<temporal_graph::TemporalGraphError> for TkError {
    fn from(e: temporal_graph::TemporalGraphError) -> Self {
        use temporal_graph::TemporalGraphError as G;
        match e {
            G::OutOfOrder { t, watermark } => TkError::AppendOutOfOrder { t, watermark },
            G::DuplicateEvent { u, v, t } => TkError::AppendDuplicate { u, v, t },
            G::Io(io) => TkError::Io {
                detail: io.to_string(),
            },
            other => TkError::AppendRejected {
                detail: other.to_string(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_human_readable() {
        let cases: Vec<(TkError, &str)> = vec![
            (TkError::KOutOfRange { k: 0 }, "k = 0"),
            (TkError::KOutOfRange { k: 99 }, "vertex count"),
            (TkError::EmptyKSelection, "no k"),
            (TkError::EmptyWindow { start: 5, end: 2 }, "[5, 2]"),
            (
                TkError::WindowPastTmax { start: 9, tmax: 7 },
                "past the graph",
            ),
            (
                TkError::BudgetExceeded {
                    resource: "request queue",
                    limit: 1,
                },
                "request queue",
            ),
            (
                TkError::DeadlineExceeded {
                    deadline: Duration::from_millis(5),
                    waited: Duration::from_millis(9),
                },
                "deadline",
            ),
            (
                TkError::UnsupportedAlgorithm {
                    algorithm: Algorithm::Otcd,
                },
                "OTCD",
            ),
            (
                TkError::UnknownAlgorithm {
                    name: "magic".into(),
                },
                "`magic`",
            ),
            (
                TkError::InvalidShardPlan {
                    detail: "zero shards".into(),
                },
                "shard plan",
            ),
            (TkError::ServiceStopped, "shut down"),
            (
                TkError::WorkerPanicked {
                    detail: "sink exploded".into(),
                },
                "sink exploded",
            ),
            (
                TkError::Io {
                    detail: "gone".into(),
                },
                "gone",
            ),
            (
                TkError::AppendOutOfOrder { t: 3, watermark: 5 },
                "out-of-order",
            ),
            (TkError::AppendDuplicate { u: 1, v: 2, t: 9 }, "(1, 2)"),
            (
                TkError::AppendRejected {
                    detail: "self loop".into(),
                },
                "self loop",
            ),
        ];
        for (err, needle) in cases {
            let rendered = err.to_string();
            assert!(rendered.contains(needle), "{rendered:?} vs {needle:?}");
            assert!(!err.code().is_empty(), "every variant has a wire code");
        }
    }

    #[test]
    fn codes_name_the_variant() {
        assert_eq!(TkError::ServiceStopped.code(), "ServiceStopped");
        assert_eq!(
            TkError::DeadlineExceeded {
                deadline: Duration::from_millis(1),
                waited: Duration::from_millis(2),
            }
            .code(),
            "DeadlineExceeded"
        );
        assert_eq!(
            TkError::BudgetExceeded {
                resource: "request queue",
                limit: 4,
            }
            .code(),
            "BudgetExceeded"
        );
    }

    #[test]
    fn graph_append_errors_convert() {
        use temporal_graph::TemporalGraphError as G;
        assert!(matches!(
            TkError::from(G::OutOfOrder { t: 2, watermark: 4 }),
            TkError::AppendOutOfOrder { t: 2, watermark: 4 }
        ));
        assert!(matches!(
            TkError::from(G::DuplicateEvent { u: 1, v: 2, t: 3 }),
            TkError::AppendDuplicate { u: 1, v: 2, t: 3 }
        ));
        assert!(matches!(
            TkError::from(G::EmptyGraph),
            TkError::AppendRejected { .. }
        ));
    }

    #[test]
    fn io_errors_convert() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "missing");
        let err: TkError = io.into();
        assert!(matches!(err, TkError::Io { .. }));
        assert!(err.to_string().contains("missing"));
    }
}
