//! The rule set and the engine that applies it.
//!
//! Every rule is grounded in a real invariant of the serving stack (see the
//! "Workspace invariants" section of `tkcore`'s crate docs and
//! `crates/lint/README.md` for the rationale):
//!
//! | rule | invariant |
//! |---|---|
//! | `no-raw-threads` | all fan-out goes through tkcore's `ExecPool` (a `CoreService`'s slots); `thread::{spawn, scope, Builder}` only in `exec.rs` |
//! | `poison-safe-locks` | library code never `.lock().unwrap()`s; it recovers poison via `tkcore::sync::lock` |
//! | `no-panic-api` | non-test `tkcore`/`temporal-graph` code returns `TkError`, it does not `unwrap`/`panic!` |
//! | `lock-order` | the intraprocedural nested-lock graph over named lock sites is acyclic (no ABBA deadlocks) |
//! | `lock-order-global` | the same graph extended with held-lock propagation across calls stays acyclic (see [`crate::interproc`]) |
//! | `no-blocking-in-worker` | nothing reachable from an `ExecPool` task closure blocks (`Ticket::wait`, `Condvar::wait`, `JoinHandle::join`, `sync::wait`) |
//! | `hot-path-alloc` | `// tkc-lint: hot` functions and everything reachable from them allocate nothing per call |
//! | `no-println` | library crates never write to stdout/stderr; reporting belongs to the CLI |
//! | `forbid-unsafe` | every non-compat crate root carries `#![forbid(unsafe_code)]` |
//!
//! A finding on a line covered by a matching
//! `// tkc-lint: allow(<rule>) — <justification>` pragma is *suppressed*
//! (still reported, not counted as a failure); a pragma without a
//! justification is itself a finding (`pragma` rule).

use crate::scan::{CrateKind, FileModel};
use std::collections::{BTreeMap, BTreeSet};

/// Names of every rule the engine knows, in report order.
pub const RULES: &[&str] = &[
    "no-raw-threads",
    "poison-safe-locks",
    "no-panic-api",
    "lock-order",
    "lock-order-global",
    "no-blocking-in-worker",
    "hot-path-alloc",
    "no-println",
    "forbid-unsafe",
    "pragma",
];

/// One diagnostic produced by a rule.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule name (one of [`RULES`]).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
    /// `Some(justification)` when a pragma suppresses the finding.
    pub suppressed: Option<String>,
}

/// Runs every rule over `files` (one workspace), returning findings sorted
/// by path, line, rule.
pub fn check(files: &[FileModel]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut lock_graph = LockGraph::default();
    for file in files {
        if file.kind == CrateKind::Compat {
            continue;
        }
        check_raw_threads(file, &mut findings);
        check_poison_safe_locks(file, &mut findings);
        check_panic_api(file, &mut findings);
        check_println(file, &mut findings);
        check_forbid_unsafe(file, &mut findings);
        check_pragmas(file, &mut findings);
        lock_graph.collect(file);
    }
    lock_graph.report(files, &mut findings);
    // The interprocedural stage: symbol table → call graph → the three
    // cross-function rules (see `crate::interproc`).
    let symtab = crate::symtab::SymbolTable::build(files);
    let graph = crate::callgraph::CallGraph::build(files, &symtab);
    crate::interproc::check_interprocedural(files, &symtab, &graph, &mut findings);
    findings.sort_by(|a, b| {
        (&a.path, a.line, a.rule)
            .partial_cmp(&(&b.path, b.line, b.rule))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    findings
}

/// Emits `finding` unless a pragma on its line suppresses it.
fn emit(
    file: &FileModel,
    findings: &mut Vec<Finding>,
    rule: &'static str,
    line: u32,
    message: String,
) {
    let suppressed = file.pragma_for(line, rule).map(|p| p.justification.clone());
    findings.push(Finding {
        rule,
        path: file.path.display().to_string(),
        line,
        message,
        suppressed,
    });
}

/// Is code token `i` production code for rule purposes?
fn is_production(file: &FileModel, i: usize) -> bool {
    !file.is_test_file && !file.in_test[i]
}

/// `no-raw-threads`: `thread::spawn` / `thread::scope` / `thread::Builder`
/// anywhere outside `tkcore/src/exec.rs` — all fan-out goes through the
/// shared `ExecPool`, so panic isolation, nested-batch deadlock freedom and
/// the service's lane accounting hold everywhere by construction.
fn check_raw_threads(file: &FileModel, findings: &mut Vec<Finding>) {
    if file.path.ends_with("tkcore/src/exec.rs") {
        return; // the one place allowed to own OS threads
    }
    let code = &file.code;
    for i in 0..code.len().saturating_sub(3) {
        if !is_production(file, i) {
            continue;
        }
        if code[i].text == "thread"
            && code[i + 1].text == ":"
            && code[i + 2].text == ":"
            && matches!(code[i + 3].text.as_str(), "spawn" | "scope" | "Builder")
        {
            emit(
                file,
                findings,
                "no-raw-threads",
                code[i].line,
                format!(
                    "raw `thread::{}` outside tkcore/src/exec.rs: run the work on a \
                     `tkcore::CoreService`, whose pool fans out its engine's batches \
                     (panic isolation + deadlock-free nesting)",
                    code[i + 3].text
                ),
            );
        }
    }
}

/// `poison-safe-locks`: `.lock().unwrap()` / `.lock().expect(..)` in library
/// crates.  A panicking task can unwind while holding any internal mutex;
/// unwrapping the lock result turns that one contained panic into a
/// permanently poisoned lock for every later caller.
fn check_poison_safe_locks(file: &FileModel, findings: &mut Vec<Finding>) {
    if file.kind != CrateKind::Library {
        return;
    }
    let code = &file.code;
    for i in 0..code.len().saturating_sub(5) {
        if !is_production(file, i) {
            continue;
        }
        if code[i].text == "."
            && code[i + 1].text == "lock"
            && code[i + 2].text == "("
            && code[i + 3].text == ")"
            && code[i + 4].text == "."
            && matches!(code[i + 5].text.as_str(), "unwrap" | "expect")
        {
            emit(
                file,
                findings,
                "poison-safe-locks",
                code[i + 1].line,
                format!(
                    "bare `.lock().{}(..)` poisons forever after one panic: use \
                     `tkcore::sync::lock(&mutex)` (recovers the guard)",
                    code[i + 5].text
                ),
            );
        }
    }
}

/// `no-panic-api`: `unwrap` / `expect` / `panic!` / `unreachable!` /
/// `todo!` / `unimplemented!` in non-test `tkcore` / `temporal-graph` code.
/// Public paths return `TkError`; an intentional invariant needs a pragma
/// stating why it cannot fire.
fn check_panic_api(file: &FileModel, findings: &mut Vec<Finding>) {
    if !matches!(file.crate_name.as_str(), "tkcore" | "temporal-graph") {
        return;
    }
    let code = &file.code;
    for i in 0..code.len() {
        if !is_production(file, i) {
            continue;
        }
        // .unwrap( / .expect( method calls.
        if i + 2 < code.len()
            && code[i].text == "."
            && matches!(code[i + 1].text.as_str(), "unwrap" | "expect")
            && code[i + 2].text == "("
        {
            emit(
                file,
                findings,
                "no-panic-api",
                code[i + 1].line,
                format!(
                    "`.{}(..)` in library code: return `TkError` on public paths, or add \
                     `// tkc-lint: allow(no-panic-api) — <why this cannot fire>`",
                    code[i + 1].text
                ),
            );
        }
        // panic-family macros.
        if i + 1 < code.len()
            && matches!(
                code[i].text.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            )
            && code[i + 1].text == "!"
            && (i == 0 || code[i - 1].text != ".")
        {
            emit(
                file,
                findings,
                "no-panic-api",
                code[i].line,
                format!(
                    "`{}!` in library code: return `TkError` on public paths, or add \
                     `// tkc-lint: allow(no-panic-api) — <why this cannot fire>`",
                    code[i].text
                ),
            );
        }
    }
}

/// `no-println`: stdout/stderr macros in library crates — reporting belongs
/// to the CLI and the bench harness, not to code running inside the service.
fn check_println(file: &FileModel, findings: &mut Vec<Finding>) {
    if file.kind != CrateKind::Library {
        return;
    }
    let code = &file.code;
    for i in 0..code.len().saturating_sub(1) {
        if !is_production(file, i) {
            continue;
        }
        if matches!(
            code[i].text.as_str(),
            "println" | "print" | "eprintln" | "eprint" | "dbg"
        ) && code[i + 1].text == "!"
            && (i == 0 || code[i - 1].text != ".")
        {
            emit(
                file,
                findings,
                "no-println",
                code[i].line,
                format!(
                    "`{}!` in a library crate: return data and let the CLI render it",
                    code[i].text
                ),
            );
        }
    }
}

/// `forbid-unsafe`: every non-compat crate root must carry
/// `#![forbid(unsafe_code)]`.
fn check_forbid_unsafe(file: &FileModel, findings: &mut Vec<Finding>) {
    if file.is_crate_root && !file.has_forbid_unsafe {
        emit(
            file,
            findings,
            "forbid-unsafe",
            1,
            "crate root missing `#![forbid(unsafe_code)]` (workspace-uniform policy)".to_string(),
        );
    }
}

/// `pragma`: a suppression without a justification is itself a violation —
/// the pragma syntax *is* the audit trail.
fn check_pragmas(file: &FileModel, findings: &mut Vec<Finding>) {
    for pragmas in file.pragmas.values() {
        for pragma in pragmas {
            if pragma.justification.is_empty() {
                findings.push(Finding {
                    rule: "pragma",
                    path: file.path.display().to_string(),
                    line: pragma.comment_line,
                    message: format!(
                        "pragma `allow({})` has no justification: write \
                         `// tkc-lint: allow(rule) — <reason>`",
                        pragma.rules.join(", ")
                    ),
                    suppressed: None,
                });
            }
            for rule in &pragma.rules {
                if !RULES.contains(&rule.as_str()) {
                    findings.push(Finding {
                        rule: "pragma",
                        path: file.path.display().to_string(),
                        line: pragma.comment_line,
                        message: format!("pragma names unknown rule `{rule}`"),
                        suppressed: None,
                    });
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// lock-order
// ---------------------------------------------------------------------------

/// One acquisition of a named lock observed while other guards were held.
#[derive(Debug, Clone)]
struct LockEdge {
    from: String,
    to: String,
    path: String,
    line: u32,
    function: String,
}

/// The global nested-acquisition graph: nodes are named lock sites
/// (`file-stem.field`), edges mean "acquired `to` while holding `from`"
/// somewhere in one function.  A cycle is a potential ABBA deadlock.
#[derive(Default)]
struct LockGraph {
    edges: Vec<LockEdge>,
}

impl LockGraph {
    /// Scans every function of `file` for nested lock acquisitions.
    ///
    /// Heuristics (documented in the README): an acquisition is
    /// `<recv>.lock()` or `sync::lock(&<recv>)` (any path ending in
    /// `lock`); it is *held* beyond its statement only when bound by
    /// `let [mut] name = <acquisition>[.unwrap()|.expect(..)|.unwrap_or_else(..)];`
    /// and released at the end of its enclosing block or at `drop(name)`.
    /// Chained calls past the recovery adapters (`.lock().stats()`) are
    /// statement-temporaries and hold only within the statement.
    fn collect(&mut self, file: &FileModel) {
        let stem = file
            .path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        for span in &file.fns {
            if file.is_test_file || file.in_test[span.body_start] {
                continue;
            }
            self.collect_fn(
                file,
                &stem,
                span.name.clone(),
                span.body_start,
                span.body_end,
            );
        }
    }

    fn collect_fn(
        &mut self,
        file: &FileModel,
        stem: &str,
        function: String,
        start: usize,
        end: usize,
    ) {
        let code = &file.code;
        // Held guards: (variable name, lock node, brace depth at binding).
        let mut held: Vec<(String, String, i32)> = Vec::new();
        let mut depth = 0i32;
        let mut i = start;
        while i <= end {
            match code[i].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    held.retain(|(_, _, d)| *d <= depth);
                }
                "drop" if i + 3 <= end && code[i + 1].text == "(" && code[i + 3].text == ")" => {
                    let var = code[i + 2].text.clone();
                    held.retain(|(name, _, _)| *name != var);
                }
                _ => {}
            }
            if let Some(acq) = acquisition_at(code, i, end) {
                let node = format!("{stem}.{}", acq.lock_name);
                for (_, from, _) in &held {
                    self.edges.push(LockEdge {
                        from: from.clone(),
                        to: node.clone(),
                        path: file.path.display().to_string(),
                        line: code[i].line,
                        function: function.clone(),
                    });
                }
                if let Some(var) = acq.bound_to {
                    held.push((var, node, depth));
                }
                i = acq.next;
                continue;
            }
            i += 1;
        }
    }

    /// Detects cycles (including self-loops) and reports every edge that
    /// participates in one.
    fn report(self, files: &[FileModel], findings: &mut Vec<Finding>) {
        let mut adjacency: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for edge in &self.edges {
            adjacency
                .entry(edge.from.as_str())
                .or_default()
                .insert(edge.to.as_str());
        }
        // An edge is cyclic if its head can reach its tail.
        let reaches = |from: &str, to: &str| -> bool {
            let mut stack = vec![from];
            let mut seen = BTreeSet::new();
            while let Some(node) = stack.pop() {
                if node == to {
                    return true;
                }
                if seen.insert(node) {
                    if let Some(next) = adjacency.get(node) {
                        stack.extend(next.iter().copied());
                    }
                }
            }
            false
        };
        for edge in &self.edges {
            if edge.from == edge.to || reaches(&edge.to, &edge.from) {
                let file = files
                    .iter()
                    .find(|f| f.path.display().to_string() == edge.path);
                let suppressed = file
                    .and_then(|f| f.pragma_for(edge.line, "lock-order"))
                    .map(|p| p.justification.clone());
                let message = if edge.from == edge.to {
                    format!(
                        "fn `{}` re-acquires `{}` while already holding it \
                         (std mutexes are not reentrant: guaranteed deadlock)",
                        edge.function, edge.from
                    )
                } else {
                    format!(
                        "fn `{}` acquires `{}` while holding `{}`, and another path \
                         acquires them in the opposite order (potential ABBA deadlock)",
                        edge.function, edge.to, edge.from
                    )
                };
                findings.push(Finding {
                    rule: "lock-order",
                    path: edge.path.clone(),
                    line: edge.line,
                    message,
                    suppressed,
                });
            }
        }
    }
}

/// One recognised lock acquisition starting at token `i`.
pub(crate) struct Acquisition {
    /// Final identifier of the locked path (`cache` in `self.inner.cache`).
    pub(crate) lock_name: String,
    /// `Some(variable)` when the guard is bound by a `let` and survives the
    /// statement.
    pub(crate) bound_to: Option<String>,
    /// First token index after the acquisition expression.
    pub(crate) next: usize,
}

/// Recognises `<recv>.lock()` and `lock(&<recv>)`-style calls at `i`.
pub(crate) fn acquisition_at(
    code: &[crate::lexer::Token],
    i: usize,
    end: usize,
) -> Option<Acquisition> {
    if code[i].text != "lock" {
        return None;
    }
    // Method form: `<recv>.lock()` — previous token is `.`.
    if i > 0 && code[i - 1].text == "." {
        if code.get(i + 1)?.text != "(" || code.get(i + 2)?.text != ")" {
            return None;
        }
        let lock_name = receiver_name_before(code, i - 1)?;
        let after = skip_recovery_adapters(code, i + 3, end);
        return Some(Acquisition {
            lock_name,
            bound_to: binding_of(code, i, after),
            next: after,
        });
    }
    // Function form: `[sync::|crate::sync::]lock(&<recv>)`.
    if code.get(i + 1)?.text != "(" {
        return None;
    }
    let close = matching_paren(code, i + 1, end)?;
    let mut j = i + 2;
    if code.get(j)?.text == "&" {
        j += 1;
    }
    // The receiver is the path up to the closing paren; take its last ident.
    let lock_name = code[j..close]
        .iter()
        .rev()
        .find(|t| t.kind == crate::lexer::TokenKind::Ident)?
        .text
        .clone();
    let after = skip_recovery_adapters(code, close + 1, end);
    Some(Acquisition {
        lock_name,
        bound_to: binding_of(code, i, after),
        next: after,
    })
}

/// Walks back over `a.b.c` / `a::b` to name the locked field: the last
/// identifier before `.lock`.
fn receiver_name_before(code: &[crate::lexer::Token], dot: usize) -> Option<String> {
    let prev = code.get(dot.checked_sub(1)?)?;
    if prev.kind == crate::lexer::TokenKind::Ident {
        Some(prev.text.clone())
    } else if prev.text == ")" {
        // `self.shared().lock()` — method-call receiver; name the method.
        None
    } else {
        None
    }
}

/// Skips `.unwrap() | .expect(..) | .unwrap_or_else(..)` chains after a lock
/// call: these recover or assert on the guard without consuming it.
fn skip_recovery_adapters(code: &[crate::lexer::Token], mut i: usize, end: usize) -> usize {
    loop {
        if i + 1 > end || code.get(i).map(|t| t.text.as_str()) != Some(".") {
            return i;
        }
        let name = match code.get(i + 1) {
            Some(t) if matches!(t.text.as_str(), "unwrap" | "expect" | "unwrap_or_else") => &t.text,
            _ => return i,
        };
        let _ = name;
        let open = i + 2;
        if code.get(open).map(|t| t.text.as_str()) != Some("(") {
            return i;
        }
        match matching_paren(code, open, end) {
            Some(close) => i = close + 1,
            None => return i,
        }
    }
}

/// `Some(var)` when the tokens around the acquisition form
/// `let [mut] var = <acquisition>;` — i.e. the guard is bound and held.
fn binding_of(code: &[crate::lexer::Token], lock_ident: usize, after: usize) -> Option<String> {
    // The statement must end right after the (adapted) acquisition.
    if code.get(after).map(|t| t.text.as_str()) != Some(";") {
        return None;
    }
    // Walk back from the lock ident to the start of the expression, then
    // expect `let [mut] var =`.
    let mut j = lock_ident;
    while j > 0 {
        let t = &code[j - 1];
        let expr_ident =
            t.kind == crate::lexer::TokenKind::Ident && !matches!(t.text.as_str(), "let" | "mut");
        if expr_ident || matches!(t.text.as_str(), "." | ":" | "&" | "*" | "(" | ")") {
            j -= 1;
        } else {
            break;
        }
    }
    if j >= 3
        && code[j - 1].text == "="
        && code[j - 2].kind == crate::lexer::TokenKind::Ident
        && (code[j - 3].text == "let"
            || (code[j - 3].text == "mut" && code.get(j.checked_sub(4)?)?.text == "let"))
    {
        Some(code[j - 2].text.clone())
    } else {
        None
    }
}

/// Index of the `)` matching the `(` at `open`, bounded by `end`.
pub(crate) fn matching_paren(
    code: &[crate::lexer::Token],
    open: usize,
    end: usize,
) -> Option<usize> {
    let mut depth = 0usize;
    for (j, token) in code.iter().enumerate().skip(open).take(end + 2 - open) {
        if token.text == "(" {
            depth += 1;
        } else if token.text == ")" {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}
