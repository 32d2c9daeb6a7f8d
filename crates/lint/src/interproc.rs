//! Interprocedural rules over the symbol table and call graph.
//!
//! Three rules run here (rationale in `crates/lint/README.md`):
//!
//! * `lock-order-global` — the intraprocedural nested-lock graph of
//!   [`crate::rules`] is extended with *held-lock propagation across
//!   calls*: a fn holding lock A that calls a fn which (transitively)
//!   acquires lock B contributes the edge A→B.  The combined workspace
//!   graph must stay acyclic; only cycles that need at least one
//!   cross-function edge are reported here (purely local cycles stay with
//!   `lock-order`).
//! * `no-blocking-in-worker` — no function reachable from a closure handed
//!   to `ExecPool::spawn`/`run_batch` may block (`Ticket::wait`,
//!   `Condvar::wait`, `JoinHandle::join`, `sync::wait`): a worker that
//!   blocks on work only another worker can finish deadlocks the pool.
//!   Reachability runs over *all* resolved edges (sound over-approximation).
//! * `hot-path-alloc` — functions annotated `// tkc-lint: hot` and
//!   everything reachable from them within their crate must not allocate
//!   per call (`clone`/`to_vec`/`collect`/`format!`/`Box::new`/`vec!`/
//!   `Vec::new`-in-loop).  Reachability follows *uniquely* resolved edges
//!   only: an ambiguous method name (`.get(`) must not drag unrelated
//!   impls into the hot set (under-approximation, disclosed in `--graph`).

use crate::callgraph::CallGraph;
use crate::rules::{acquisition_at, Finding};
use crate::scan::{FileModel, FnSpan};
use crate::symtab::{FnInfo, SymbolTable};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Runs the three interprocedural rules, appending to `findings`.
pub(crate) fn check_interprocedural(
    files: &[FileModel],
    symtab: &SymbolTable,
    graph: &CallGraph,
    findings: &mut Vec<Finding>,
) {
    let facts: Vec<FnFacts> = (0..symtab.fns.len())
        .map(|id| collect_fn_facts(files, symtab, graph, id))
        .collect();
    check_lock_order_global(files, symtab, graph, &facts, findings);
    check_no_blocking_in_worker(files, symtab, graph, findings);
    check_hot_path_alloc(files, symtab, graph, findings);
}

/// Emits with pragma lookup in the right file.
fn emit(
    files: &[FileModel],
    file: usize,
    findings: &mut Vec<Finding>,
    rule: &'static str,
    line: u32,
    message: String,
) {
    let file = &files[file];
    let suppressed = file.pragma_for(line, rule).map(|p| p.justification.clone());
    findings.push(Finding {
        rule,
        path: file.path.display().to_string(),
        line,
        message,
        suppressed,
    });
}

// ---------------------------------------------------------------------------
// lock-order-global
// ---------------------------------------------------------------------------

/// Lock behaviour of one function: what it acquires directly, and which
/// guards are held at each of its call sites.
#[derive(Debug, Default)]
struct FnFacts {
    /// Named lock nodes this fn acquires (bound *or* statement-temporary:
    /// a temporary still blocks while it is taken).
    direct: Vec<String>,
    /// Intra-fn nested edges `held → acquired` (already policed by
    /// `lock-order`; needed here so composed cycles close).
    intra_edges: Vec<(String, String)>,
    /// Per call site of this fn: `(site index, nodes held at the call)`.
    calls_with_held: Vec<(usize, Vec<String>)>,
}

/// Replays the `lock-order` held-guard walk over one fn, additionally
/// snapshotting the held set at every resolved call site.
fn collect_fn_facts(
    files: &[FileModel],
    symtab: &SymbolTable,
    graph: &CallGraph,
    id: usize,
) -> FnFacts {
    let info = &symtab.fns[id];
    let file = &files[info.file];
    let span = &file.fns[info.span];
    let stem = file
        .path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default();
    let site_at: BTreeMap<usize, usize> = graph.sites_by_fn[id]
        .iter()
        .map(|&s| (graph.sites[s].token, s))
        .collect();
    let mut facts = FnFacts::default();
    let code = &file.code;
    let (start, end) = (span.body_start, span.body_end);
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
        // Snapshot the held set *before* the acquisition at this token (a
        // `.lock()` call site acquires after the call is issued).
        if let Some(&site) = site_at.get(&i) {
            if !graph.sites[site].targets.is_empty() && !held.is_empty() {
                facts
                    .calls_with_held
                    .push((site, held.iter().map(|(_, node, _)| node.clone()).collect()));
            }
        }
        if let Some(acq) = acquisition_at(code, i, end) {
            let node = format!("{stem}.{}", acq.lock_name);
            for (_, from, _) in &held {
                facts.intra_edges.push((from.clone(), node.clone()));
            }
            facts.direct.push(node.clone());
            if let Some(var) = acq.bound_to {
                held.push((var, node, depth));
            }
            i = acq.next;
            continue;
        }
        i += 1;
    }
    facts
}

fn check_lock_order_global(
    files: &[FileModel],
    symtab: &SymbolTable,
    graph: &CallGraph,
    facts: &[FnFacts],
    findings: &mut Vec<Finding>,
) {
    // Transitive lock sets: locks a call into `id` may take, to fixpoint.
    let mut lock_sets: Vec<BTreeSet<String>> = facts
        .iter()
        .map(|f| f.direct.iter().cloned().collect())
        .collect();
    loop {
        let mut changed = false;
        for id in 0..lock_sets.len() {
            for &callee in &graph.callees[id] {
                if callee == id {
                    continue;
                }
                let add: Vec<String> = lock_sets[callee]
                    .iter()
                    .filter(|l| !lock_sets[id].contains(*l))
                    .cloned()
                    .collect();
                if !add.is_empty() {
                    lock_sets[id].extend(add);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    // Cross-function edges: held at a call → anything the callee may take.
    struct CrossEdge {
        from: String,
        to: String,
        caller: usize,
        callee: usize,
        file: usize,
        line: u32,
    }
    let mut cross: Vec<CrossEdge> = Vec::new();
    let mut seen: BTreeSet<(String, String, usize, u32)> = BTreeSet::new();
    for (id, fact) in facts.iter().enumerate() {
        for (site_idx, held) in &fact.calls_with_held {
            let site = &graph.sites[*site_idx];
            for &callee in &site.targets {
                for from in held {
                    for to in lock_sets[callee].iter() {
                        if seen.insert((from.clone(), to.clone(), site.file, site.line)) {
                            cross.push(CrossEdge {
                                from: from.clone(),
                                to: to.clone(),
                                caller: id,
                                callee,
                                file: site.file,
                                line: site.line,
                            });
                        }
                    }
                }
            }
        }
    }
    // Combined adjacency: intra edges + cross edges.
    let mut adjacency: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for fact in facts {
        for (from, to) in &fact.intra_edges {
            adjacency.entry(from).or_default().insert(to);
        }
    }
    for edge in &cross {
        adjacency
            .entry(edge.from.as_str())
            .or_default()
            .insert(edge.to.as_str());
    }
    let reaches = |from: &str, to: &str| -> bool {
        let mut stack = vec![from];
        let mut visited = BTreeSet::new();
        while let Some(node) = stack.pop() {
            if node == to {
                return true;
            }
            if visited.insert(node) {
                if let Some(next) = adjacency.get(node) {
                    stack.extend(next.iter().copied());
                }
            }
        }
        false
    };
    // Only cross edges are reported here: a cycle with no cross edge is a
    // purely intraprocedural problem and already belongs to `lock-order`.
    for edge in &cross {
        if edge.from == edge.to || reaches(&edge.to, &edge.from) {
            let caller = &symtab.fns[edge.caller];
            let callee = &symtab.fns[edge.callee];
            let message = if edge.from == edge.to {
                format!(
                    "fn `{}` calls `{}` while holding `{}`, and the callee \
                     (transitively) re-acquires it — std mutexes are not \
                     reentrant: guaranteed deadlock",
                    caller.name,
                    callee.qualified(),
                    edge.from
                )
            } else {
                format!(
                    "fn `{}` calls `{}` while holding `{}`; the callee \
                     (transitively) acquires `{}`, closing a cross-function \
                     lock-order cycle (potential ABBA deadlock)",
                    caller.name,
                    callee.qualified(),
                    edge.from,
                    edge.to
                )
            };
            emit(
                files,
                edge.file,
                findings,
                "lock-order-global",
                edge.line,
                message,
            );
        }
    }
}

// ---------------------------------------------------------------------------
// no-blocking-in-worker
// ---------------------------------------------------------------------------

/// Is `info` an entry point whose closure argument runs on pool workers?
fn is_spawn_entry(info: &FnInfo) -> bool {
    (info.self_type.as_deref() == Some("ExecPool")
        && matches!(info.name.as_str(), "spawn" | "run_batch"))
        || info.name == "run_batch_inner"
}

/// One blocking call recognised inside a token range.
struct BlockingCall {
    line: u32,
    what: String,
}

/// Scans `[start, end]` of `code` for blocking primitives: `.wait(`,
/// `.join(`, and path calls ending in `wait(` (`sync::wait`).
fn blocking_calls(code: &[crate::lexer::Token], start: usize, end: usize) -> Vec<BlockingCall> {
    let mut out = Vec::new();
    for i in start..=end.min(code.len().saturating_sub(1)) {
        if code.get(i + 1).map(|t| t.text.as_str()) != Some("(") {
            continue;
        }
        let name = code[i].text.as_str();
        let prev = i
            .checked_sub(1)
            .and_then(|p| code.get(p))
            .map(|t| t.text.as_str());
        if prev == Some("fn") {
            continue;
        }
        let is_method = prev == Some(".");
        if is_method && matches!(name, "wait" | "join") {
            out.push(BlockingCall {
                line: code[i].line,
                what: format!(".{name}(..)"),
            });
        } else if !is_method && name == "wait" {
            out.push(BlockingCall {
                line: code[i].line,
                what: "sync::wait(..)".to_string(),
            });
        }
    }
    out
}

fn check_no_blocking_in_worker(
    files: &[FileModel],
    symtab: &SymbolTable,
    graph: &CallGraph,
    findings: &mut Vec<Finding>,
) {
    // Roots: every call target inside a closure handed to a spawn entry —
    // plus the closure bodies themselves, scanned directly.
    let mut roots: Vec<(usize, String)> = Vec::new(); // (fn id, origin label)
    for site in &graph.sites {
        if !site.targets.iter().any(|&t| is_spawn_entry(&symtab.fns[t])) {
            continue;
        }
        let file = &files[site.file];
        let code = &file.code;
        let caller_span = &file.fns[symtab.fns[site.caller].span];
        let Some(close) = crate::rules::matching_paren(code, site.token + 1, caller_span.body_end)
        else {
            continue;
        };
        let origin = format!(
            "closure handed to `{}` at {}:{}",
            site.name,
            file.path.display(),
            site.line
        );
        for range in closure_ranges(code, site.token + 1, close) {
            // Direct blocking calls in the closure body itself.
            for call in blocking_calls(code, range.0, range.1) {
                emit(
                    files,
                    site.file,
                    findings,
                    "no-blocking-in-worker",
                    call.line,
                    format!(
                        "worker task blocks on `{}` ({origin}): an ExecPool \
                         task must never wait — nested fan-out goes through \
                         the pool's claim-alongside-helpers batch path",
                        call.what
                    ),
                );
            }
            // Calls made by the closure are worker-reachable roots.
            for other in &graph.sites {
                if other.file == site.file && other.token >= range.0 && other.token <= range.1 {
                    for &target in &other.targets {
                        roots.push((target, origin.clone()));
                    }
                }
            }
        }
    }
    // BFS over all resolved edges; remember one origin chain per fn.
    let mut parent: BTreeMap<usize, Option<usize>> = BTreeMap::new();
    let mut origin_of: BTreeMap<usize, String> = BTreeMap::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    for (id, origin) in roots {
        if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(id) {
            e.insert(None);
            origin_of.insert(id, origin);
            queue.push_back(id);
        }
    }
    while let Some(id) = queue.pop_front() {
        for &callee in &graph.callees[id] {
            if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(callee) {
                e.insert(Some(id));
                if let Some(origin) = origin_of.get(&id).cloned() {
                    origin_of.insert(callee, origin);
                }
                queue.push_back(callee);
            }
        }
    }
    let chain_of = |mut id: usize| -> String {
        let mut names = vec![symtab.fns[id].name.clone()];
        while let Some(Some(p)) = parent.get(&id) {
            names.push(symtab.fns[*p].name.clone());
            id = *p;
        }
        names.reverse();
        names.join(" → ")
    };
    for &id in parent.keys() {
        let info = &symtab.fns[id];
        let file = &files[info.file];
        // The poison-recovering primitives in tkcore/src/sync.rs *are* the
        // sanctioned wait implementation; their callers are what we police.
        if file.path.ends_with("tkcore/src/sync.rs") {
            continue;
        }
        let span = &file.fns[info.span];
        for call in blocking_calls(&file.code, span.body_start, span.body_end) {
            let origin = origin_of.get(&id).cloned().unwrap_or_default();
            emit(
                files,
                info.file,
                findings,
                "no-blocking-in-worker",
                call.line,
                format!(
                    "fn `{}` blocks on `{}` but runs on an ExecPool worker \
                     ({origin}; path {}) — a blocked worker can deadlock the \
                     pool; nested fan-out goes through the \
                     claim-alongside-helpers batch path",
                    info.name,
                    call.what,
                    chain_of(id)
                ),
            );
        }
    }
}

/// Token ranges of the closure bodies between `open` and `close` (the
/// argument span of a spawn-entry call).
fn closure_ranges(code: &[crate::lexer::Token], open: usize, close: usize) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut u = open + 1;
    while u < close {
        let prev = code[u - 1].text.as_str();
        let starts_closure =
            code[u].text == "|" && matches!(prev, "(" | "," | "move" | "=" | "{" | "&");
        if !starts_closure {
            u += 1;
            continue;
        }
        // Parameter list: `||` or `|...|`.
        let body = if code.get(u + 1).map(|t| t.text.as_str()) == Some("|") {
            u + 2
        } else {
            let mut v = u + 1;
            while v < close && code[v].text != "|" {
                v += 1;
            }
            v + 1
        };
        if body >= close {
            break;
        }
        let end = if code[body].text == "{" {
            matching_brace_bounded(code, body, close).unwrap_or(close - 1)
        } else {
            // Expression body: to the `,` or `)` closing the argument.
            let mut depth = 0i32;
            let mut v = body;
            let mut end = close - 1;
            while v < close {
                match code[v].text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "," if depth == 0 => {
                        end = v - 1;
                        break;
                    }
                    _ => {}
                }
                v += 1;
            }
            end
        };
        ranges.push((body, end));
        u = body;
    }
    ranges
}

/// `}` matching the `{` at `from`, bounded by `close`.
fn matching_brace_bounded(
    code: &[crate::lexer::Token],
    from: usize,
    close: usize,
) -> Option<usize> {
    let mut depth = 0i32;
    for (j, token) in code.iter().enumerate().skip(from).take(close + 1 - from) {
        if token.text == "{" {
            depth += 1;
        } else if token.text == "}" {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// hot-path-alloc
// ---------------------------------------------------------------------------

/// One banned allocation found in a hot function body.
struct HotAlloc {
    line: u32,
    what: String,
}

/// Scans one fn body for per-call allocations: `.clone(`, `.to_vec(`,
/// `.collect(`, `format!`, `vec!`, `Box::new(`, and `Vec::new(` /
/// `Vec::with_capacity(` inside a loop.
fn hot_allocs(code: &[crate::lexer::Token], span: &FnSpan) -> Vec<HotAlloc> {
    let mut out = Vec::new();
    // Loop-body tracking: which brace depths opened a `for`/`while`/`loop`.
    let mut loop_braces: Vec<bool> = Vec::new();
    let mut pending_loop = false;
    for i in span.body_start..=span.body_end {
        let text = code[i].text.as_str();
        match text {
            "for" | "while" | "loop" => pending_loop = true,
            "{" => {
                loop_braces.push(pending_loop);
                pending_loop = false;
            }
            "}" => {
                loop_braces.pop();
            }
            _ => {}
        }
        let next = code.get(i + 1).map(|t| t.text.as_str());
        let prev = i
            .checked_sub(1)
            .and_then(|p| code.get(p))
            .map(|t| t.text.as_str());
        if next == Some("(") && prev == Some(".") && matches!(text, "clone" | "to_vec" | "collect")
        {
            out.push(HotAlloc {
                line: code[i].line,
                what: format!(".{text}(..)"),
            });
        }
        if next == Some("!") && matches!(text, "format" | "vec") && prev != Some(".") {
            out.push(HotAlloc {
                line: code[i].line,
                what: format!("{text}!"),
            });
        }
        if matches!(text, "Box" | "Vec")
            && next == Some(":")
            && code.get(i + 2).map(|t| t.text.as_str()) == Some(":")
            && code.get(i + 4).map(|t| t.text.as_str()) == Some("(")
        {
            let method = code[i + 3].text.as_str();
            let in_loop = loop_braces.iter().any(|&l| l);
            let banned = (text == "Box" && method == "new")
                || (text == "Vec" && matches!(method, "new" | "with_capacity") && in_loop);
            if banned {
                let suffix = if text == "Vec" { " in a loop" } else { "" };
                out.push(HotAlloc {
                    line: code[i + 3].line,
                    what: format!("{text}::{method}(..){suffix}"),
                });
            }
        }
    }
    out
}

fn check_hot_path_alloc(
    files: &[FileModel],
    symtab: &SymbolTable,
    graph: &CallGraph,
    findings: &mut Vec<Finding>,
) {
    // Seeds: `// tkc-lint: hot`-annotated fns.  Reachability follows
    // uniquely resolved edges and stays inside the seed's crate.
    let mut seed_of: BTreeMap<usize, usize> = BTreeMap::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    for (id, info) in symtab.fns.iter().enumerate() {
        if info.is_hot && !info.is_test {
            seed_of.insert(id, id);
            queue.push_back(id);
        }
    }
    while let Some(id) = queue.pop_front() {
        let seed = seed_of[&id];
        let crate_name = symtab.fns[seed].crate_name.clone();
        for &callee in &graph.callees_unique[id] {
            if symtab.fns[callee].crate_name != crate_name || symtab.fns[callee].is_test {
                continue;
            }
            if let std::collections::btree_map::Entry::Vacant(e) = seed_of.entry(callee) {
                e.insert(seed);
                queue.push_back(callee);
            }
        }
    }
    for (&id, &seed) in &seed_of {
        let info = &symtab.fns[id];
        let file = &files[info.file];
        let span = &file.fns[info.span];
        for alloc in hot_allocs(&file.code, span) {
            let via = if id == seed {
                String::new()
            } else {
                format!(
                    " (reachable from hot seed `{}`)",
                    symtab.fns[seed].qualified()
                )
            };
            emit(
                files,
                info.file,
                findings,
                "hot-path-alloc",
                alloc.line,
                format!(
                    "hot path: `{}` allocates per call in fn `{}`{via} — reuse \
                     a caller-provided scratch buffer, or justify with \
                     `// tkc-lint: allow(hot-path-alloc) — <why>`",
                    alloc.what, info.name
                ),
            );
        }
    }
}
