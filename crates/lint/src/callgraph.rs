//! Conservative workspace call graph over the symbol table.
//!
//! Call sites are recognised syntactically (`name(` for path calls,
//! `.name(` for method calls; macros are excluded by the trailing `!`) and
//! resolved by *suffix match*: candidates are every workspace `fn` with the
//! same bare name, narrowed by callable-ness (method syntax only reaches
//! `self`-taking fns), by an explicit path qualifier (`Type::name`,
//! `module::name`, `Self::name`, `crate::name`), by a `self.` receiver
//! (prefer the enclosing impl's own method), and finally by preferring
//! same-crate candidates over cross-crate ones.  A site that still has
//! several candidates is linked to *all* of them — the graph over- rather
//! than under-approximates, and every such site is counted and reported so
//! the imprecision stays visible (`tkc-lint --graph`).
//!
//! A bare, unqualified call whose name is a parameter of the enclosing fn
//! (`run(i)` in `fn drain<F: Fn(usize)>(run: &F)`) calls that closure or
//! fn pointer, not a workspace fn, and resolves as external.  Method calls
//! on any receiver other than `self` have no such escape: with no type
//! information, `v.push(x)` on a `Vec` still links to every workspace
//! method named `push`.

use crate::lexer::{Token, TokenKind};
use crate::scan::FileModel;
use crate::symtab::{FnInfo, SymbolTable};
use std::collections::BTreeSet;

/// Bare calls that always mean the std prelude, even when a workspace fn
/// shares the name (`drop(guard)` is `std::mem::drop`, not a `Drop` impl).
const BUILTIN_FNS: &[&str] = &["drop"];

/// Keywords that can directly precede `(` without being a call.
const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "in", "as", "move", "ref", "else", "let",
    "mut", "pub", "use", "mod", "impl", "struct", "enum", "union", "trait", "type", "where",
    "unsafe", "async", "await", "dyn", "const", "static", "crate", "super", "self", "Self",
    "break", "continue", "fn", "extern", "yield", "box",
];

/// How a call site was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Exactly one workspace candidate survived.
    Unique,
    /// Several candidates survived; the site links to all of them.
    Ambiguous,
    /// No workspace fn shares the name (or a path qualifier pointed outside
    /// the workspace): std / compat / closure parameter.
    External,
    /// The name matches workspace fns, but none is callable at this site
    /// (e.g. method syntax over free fns only).  Recorded so the gap in the
    /// over-approximation stays visible.
    Unresolved,
}

/// One recognised call site.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Index of the file in the scanned slice.
    pub file: usize,
    /// Symbol id of the enclosing (innermost) function.
    pub caller: usize,
    /// Token index of the callee name in `files[file].code`.
    pub token: usize,
    /// Source line of the callee name.
    pub line: u32,
    /// Bare callee name.
    pub name: String,
    /// Path segment right before `::name`, when the call is qualified.
    pub qualifier: Option<String>,
    /// Whether the site uses method syntax (`recv.name(..)`).
    pub is_method: bool,
    /// Whether the method receiver is literally `self`.
    pub receiver_is_self: bool,
    /// Symbol ids the site resolved to (empty for external/unresolved).
    pub targets: Vec<usize>,
    /// Resolution class of the site.
    pub resolution: Resolution,
}

/// Aggregate resolution statistics for `--graph` and the JSON report.
#[derive(Debug, Clone, Copy, Default)]
pub struct GraphStats {
    /// Workspace functions in the symbol table.
    pub functions: usize,
    /// Call sites recognised in production code.
    pub call_sites: usize,
    /// Sites resolved to exactly one candidate.
    pub unique: usize,
    /// Sites linked to several candidates.
    pub ambiguous: usize,
    /// Sites pointing outside the workspace.
    pub external: usize,
    /// Workspace-named sites with no callable candidate.
    pub unresolved: usize,
}

impl GraphStats {
    /// Sites whose name matches at least one workspace fn.
    pub fn internal(&self) -> usize {
        self.unique + self.ambiguous + self.unresolved
    }

    /// Fraction of workspace-internal sites with at least one callee edge.
    pub fn resolution_rate(&self) -> f64 {
        if self.internal() == 0 {
            1.0
        } else {
            (self.unique + self.ambiguous) as f64 / self.internal() as f64
        }
    }
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Every recognised call site, in (file, token) order.
    pub sites: Vec<CallSite>,
    /// Per symbol id: deduplicated resolved callee ids (all edges,
    /// including ambiguous ones — the sound over-approximation).
    pub callees: Vec<Vec<usize>>,
    /// Per symbol id: callees through *uniquely* resolved sites only (the
    /// precise under-approximation `hot-path-alloc` traverses; see README).
    pub callees_unique: Vec<Vec<usize>>,
    /// Per symbol id: indexes into `sites` originating in that fn.
    pub sites_by_fn: Vec<Vec<usize>>,
}

impl CallGraph {
    /// Extracts and resolves every call site in production functions.
    pub fn build(files: &[FileModel], symtab: &SymbolTable) -> Self {
        let mut graph = Self {
            sites: Vec::new(),
            callees: vec![Vec::new(); symtab.fns.len()],
            callees_unique: vec![Vec::new(); symtab.fns.len()],
            sites_by_fn: vec![Vec::new(); symtab.fns.len()],
        };
        // Innermost enclosing symbol per token, per file.
        for (file_idx, file) in files.iter().enumerate() {
            let mut owner: Vec<Option<usize>> = vec![None; file.code.len()];
            for (id, info) in symtab.fns.iter().enumerate() {
                if info.file != file_idx {
                    continue;
                }
                let span = &file.fns[info.span];
                for slot in &mut owner[span.decl_index..=span.body_end] {
                    *slot = Some(id);
                }
            }
            graph.extract_file(file_idx, file, &owner, symtab);
        }
        let mut callee_sets: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); symtab.fns.len()];
        let mut unique_sets: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); symtab.fns.len()];
        for (idx, site) in graph.sites.iter().enumerate() {
            graph.sites_by_fn[site.caller].push(idx);
            callee_sets[site.caller].extend(site.targets.iter().copied());
            if site.resolution == Resolution::Unique {
                unique_sets[site.caller].extend(site.targets.iter().copied());
            }
        }
        graph.callees = callee_sets.into_iter().map(Vec::from_iter).collect();
        graph.callees_unique = unique_sets.into_iter().map(Vec::from_iter).collect();
        graph
    }

    /// Aggregates the per-site resolution classes.
    pub fn stats(&self, symtab: &SymbolTable) -> GraphStats {
        let mut stats = GraphStats {
            functions: symtab.fns.len(),
            call_sites: self.sites.len(),
            ..GraphStats::default()
        };
        for site in &self.sites {
            match site.resolution {
                Resolution::Unique => stats.unique += 1,
                Resolution::Ambiguous => stats.ambiguous += 1,
                Resolution::External => stats.external += 1,
                Resolution::Unresolved => stats.unresolved += 1,
            }
        }
        stats
    }

    fn extract_file(
        &mut self,
        file_idx: usize,
        file: &FileModel,
        owner: &[Option<usize>],
        symtab: &SymbolTable,
    ) {
        let code = &file.code;
        for t in 0..code.len() {
            if code[t].kind != TokenKind::Ident
                || code.get(t + 1).map(|n| n.text.as_str()) != Some("(")
            {
                continue;
            }
            let name = code[t].text.as_str();
            if KEYWORDS.contains(&name) {
                continue;
            }
            let Some(caller) = owner[t] else {
                continue; // not inside any fn body (const init, type decl)
            };
            let caller_info = &symtab.fns[caller];
            if caller_info.is_test {
                continue; // rules only look at production code
            }
            let span = &file.fns[caller_info.span];
            if t <= span.body_start || t >= span.body_end {
                continue; // in the signature, not the body
            }
            let prev = code.get(t.wrapping_sub(1)).map(|p| p.text.as_str());
            if prev == Some("fn") {
                continue; // a declaration, not a call
            }
            let is_method = prev == Some(".");
            let mut qualifier = None;
            let mut receiver_is_self = false;
            if is_method {
                receiver_is_self =
                    t >= 2 && code[t - 2].text == "self" && (t < 3 || code[t - 3].text != ".");
            } else if t >= 3 && code[t - 1].text == ":" && code[t - 2].text == ":" {
                let q = &code[t - 3];
                if q.kind == TokenKind::Ident {
                    qualifier = Some(q.text.clone());
                }
            }
            let calls_param = !is_method
                && qualifier.is_none()
                && param_names(code, span.decl_index, span.body_start).contains(&name);
            let (targets, resolution) = if calls_param {
                (Vec::new(), Resolution::External)
            } else {
                resolve(
                    symtab,
                    caller_info,
                    name,
                    qualifier.as_deref(),
                    is_method,
                    receiver_is_self,
                )
            };
            self.sites.push(CallSite {
                file: file_idx,
                caller,
                token: t,
                line: code[t].line,
                name: name.to_string(),
                qualifier,
                is_method,
                receiver_is_self,
                targets,
                resolution,
            });
        }
    }
}

/// The parameter names of the fn declared at token `decl` (its `fn`
/// keyword), whose body opens at `body_start`: every identifier directly
/// inside the parameter list's parentheses that is followed by a lone `:`.
/// Patterns that bind without a type annotation (`(a, b): (u32, u32)`)
/// are missed, which only keeps their calls name-linked.
fn param_names(code: &[Token], decl: usize, body_start: usize) -> Vec<&str> {
    let text = |i: usize| code.get(i).map_or("", |t| t.text.as_str());
    // Skip `fn name` and any generics; `->` inside them (`F: Fn() -> R`)
    // closes no angle bracket.
    let mut i = decl + 2;
    let mut angle = 0usize;
    while i < body_start && (angle > 0 || text(i) != "(") {
        match text(i) {
            "<" => angle += 1,
            ">" if text(i - 1) != "-" => angle = angle.saturating_sub(1),
            _ => {}
        }
        i += 1;
    }
    let mut names = Vec::new();
    let mut depth = 0usize;
    while i < body_start {
        match text(i) {
            "(" | "[" | "<" => depth += 1,
            ")" | "]" => depth = depth.saturating_sub(1),
            ">" if text(i - 1) != "-" => depth = depth.saturating_sub(1),
            _ => {}
        }
        if depth == 0 {
            break;
        }
        if depth == 1
            && code[i].kind == TokenKind::Ident
            && text(i + 1) == ":"
            && text(i + 2) != ":"
        {
            names.push(code[i].text.as_str());
        }
        i += 1;
    }
    names
}

/// Applies the suffix-resolution strategy for one site (module docs).
fn resolve(
    symtab: &SymbolTable,
    caller: &FnInfo,
    name: &str,
    qualifier: Option<&str>,
    is_method: bool,
    receiver_is_self: bool,
) -> (Vec<usize>, Resolution) {
    if !is_method && qualifier.is_none() && BUILTIN_FNS.contains(&name) {
        return (Vec::new(), Resolution::External);
    }
    let mut cands: Vec<usize> = symtab
        .candidates(name)
        .iter()
        .copied()
        .filter(|&id| !symtab.fns[id].is_test)
        .collect();
    if cands.is_empty() {
        return (Vec::new(), Resolution::External);
    }
    if is_method {
        cands.retain(|&id| symtab.fns[id].has_self);
        if cands.is_empty() {
            // Method syntax cannot reach a free fn: the receiver's type is
            // external, even though the name exists in the workspace.
            return (Vec::new(), Resolution::Unresolved);
        }
    }
    if let Some(q) = qualifier {
        match q {
            "crate" | "self" => {
                cands.retain(|&id| symtab.fns[id].crate_name == caller.crate_name);
            }
            "Self" => {
                cands.retain(|&id| {
                    symtab.fns[id].self_type.is_some()
                        && symtab.fns[id].self_type == caller.self_type
                });
            }
            _ => {
                cands.retain(|&id| {
                    let info = &symtab.fns[id];
                    info.self_type.as_deref() == Some(q)
                        || info.module_path.last().map(String::as_str) == Some(q)
                        || info.crate_name == q
                        || info.crate_name.replace('-', "_") == q
                });
            }
        }
        if cands.is_empty() {
            // The qualifier names something outside the workspace
            // (`std::mem::take`, `Arc::clone`, compat types).
            return (Vec::new(), Resolution::External);
        }
    }
    if is_method && receiver_is_self && caller.self_type.is_some() {
        let own: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&id| symtab.fns[id].self_type == caller.self_type)
            .collect();
        if !own.is_empty() {
            cands = own;
        }
    }
    if cands.len() > 1 {
        let same_crate: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&id| symtab.fns[id].crate_name == caller.crate_name)
            .collect();
        if !same_crate.is_empty() {
            cands = same_crate;
        }
    }
    let resolution = if cands.len() == 1 {
        Resolution::Unique
    } else {
        Resolution::Ambiguous
    };
    (cands, resolution)
}
