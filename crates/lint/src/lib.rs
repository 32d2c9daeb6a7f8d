//! `tkc-lint`: a std-only concurrency/error-invariant linter for this
//! workspace.
//!
//! The serving stack rests on hand-rolled concurrency — the
//! [`ExecPool`](../tkcore/exec/index.html) thread pool, the service's
//! two-priority queue, LRU caches behind mutexes — whose safety claims (panic
//! isolation, poison recovery, deadlock-free nested fan-out) are invariants
//! of *convention*, not of the type system.  This crate machine-checks them
//! on every PR:
//!
//! * a small Rust [`lexer`] that correctly handles raw strings, byte
//!   strings, nested block comments, char literals vs. lifetimes and doc
//!   comments;
//! * an item [`scan`]ner that tracks `fn` boundaries, `#[cfg(test)]` /
//!   `mod tests` regions and per-crate scope;
//! * an analysis stage — a workspace [`symtab`] (every `fn` with crate,
//!   module path and impl self type) and a conservative [`callgraph`]
//!   resolved by suffix match — feeding the [`interproc`] rules
//!   (`lock-order-global`, `no-blocking-in-worker`, `hot-path-alloc`);
//! * a [`rules`] engine with inline suppression pragmas
//!   (`// tkc-lint: allow(<rule>) — <justification>`) and machine-readable
//!   JSON output ([`report`]).
//!
//! Run it locally with `cargo run -p tkc-lint -- --deny`; see
//! `crates/lint/README.md` for each rule's rationale and the pragma syntax.
//!
//! No dependencies beyond `std` — the workspace builds offline.

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod interproc;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod scan;
pub mod symtab;
pub mod workspace;

pub use callgraph::{CallGraph, GraphStats, Resolution};
pub use report::{graph_text, parse_baseline, to_json, to_text, Summary};
pub use rules::{check, Finding, RULES};
pub use scan::{CrateKind, FileModel};
pub use symtab::{FnInfo, SymbolTable};
pub use workspace::{classify_and_scan, scan_workspace};

/// Builds the analysis-stage artifacts (symbol table + call graph) for
/// `files`: what `--graph` dumps and the JSON report embeds.
pub fn analyze(files: &[FileModel]) -> (SymbolTable, CallGraph) {
    let symtab = SymbolTable::build(files);
    let graph = CallGraph::build(files, &symtab);
    (symtab, graph)
}

/// Lints one source string as if it were at `rel_path` in the workspace
/// (classification follows the path).  Test-suite entry point.
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Finding> {
    let model = classify_and_scan(std::path::PathBuf::from(rel_path), src);
    check(std::slice::from_ref(&model))
}
