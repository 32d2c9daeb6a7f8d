//! End-to-end rule tests: each fixture under `tests/fixtures/` seeds known
//! violations (one positive and one pragma-suppressed case per rule) plus
//! decoys that must not fire.  Fixtures are linted under synthetic workspace
//! paths so crate classification follows the path, exactly as in a real run.
//! The `fixtures/` directory itself is skipped by the workspace walk, so the
//! seeded violations never pollute `cargo run -p tkc-lint`.

use tkc_lint::{lint_source, Finding};

/// Active (non-suppressed) findings for `rule`, as (line, message) pairs.
fn active(findings: &[Finding], rule: &str) -> Vec<u32> {
    findings
        .iter()
        .filter(|f| f.rule == rule && f.suppressed.is_none())
        .map(|f| f.line)
        .collect()
}

/// Suppressed findings for `rule`, as lines.
fn suppressed(findings: &[Finding], rule: &str) -> Vec<u32> {
    findings
        .iter()
        .filter(|f| f.rule == rule && f.suppressed.is_some())
        .map(|f| f.line)
        .collect()
}

#[test]
fn the_lexer_torture_fixture_is_clean() {
    // Raw strings, nested block comments, char-vs-lifetime, raw identifiers:
    // every decoy must be recognised as data, even under the strictest
    // classification (tkcore library code, where no-panic-api applies).
    let findings = lint_source(
        "crates/tkcore/src/torture.rs",
        include_str!("fixtures/lexer_torture.rs"),
    );
    assert!(
        findings.is_empty(),
        "expected zero findings, got: {findings:?}"
    );
}

#[test]
fn no_raw_threads_detects_spawn_and_honours_pragma_and_tests() {
    let findings = lint_source(
        "crates/tkcore/src/fixture.rs",
        include_str!("fixtures/rule_no_raw_threads.rs"),
    );
    assert_eq!(active(&findings, "no-raw-threads"), vec![7]);
    assert_eq!(suppressed(&findings, "no-raw-threads"), vec![13]);
    // The #[cfg(test)] module uses thread::spawn and .unwrap() freely:
    // neither no-raw-threads nor no-panic-api may fire there.
    assert!(findings.iter().all(|f| f.line < 17), "{findings:?}");
}

#[test]
fn no_raw_threads_exempts_the_exec_module() {
    let findings = lint_source(
        "crates/tkcore/src/exec.rs",
        "pub fn pool() { let h = std::thread::spawn(|| ()); let _ = h.join(); }\n",
    );
    assert!(
        active(&findings, "no-raw-threads").is_empty(),
        "{findings:?}"
    );
}

#[test]
fn poison_safe_locks_detects_unwrap_and_expect() {
    // A library crate outside tkcore so no-panic-api stays out of the way.
    let findings = lint_source(
        "crates/skyline/src/fixture.rs",
        include_str!("fixtures/rule_poison_safe_locks.rs"),
    );
    assert_eq!(active(&findings, "poison-safe-locks"), vec![12, 16]);
    assert_eq!(suppressed(&findings, "poison-safe-locks"), vec![21]);
    // The `.lock().unwrap_or_else(PoisonError::into_inner)` helper form is
    // the sanctioned idiom and must not match.
    assert_eq!(findings.len(), 3, "{findings:?}");
}

#[test]
fn poison_safe_locks_ignores_tool_crates() {
    let findings = lint_source(
        "crates/cli/src/fixture.rs",
        "pub fn f(m: &std::sync::Mutex<u32>) -> u32 { *m.lock().unwrap() }\n",
    );
    assert!(
        active(&findings, "poison-safe-locks").is_empty(),
        "{findings:?}"
    );
}

#[test]
fn no_panic_api_detects_the_panic_family() {
    let findings = lint_source(
        "crates/tkcore/src/fixture.rs",
        include_str!("fixtures/rule_no_panic_api.rs"),
    );
    assert_eq!(active(&findings, "no-panic-api"), vec![5, 9, 14, 21]);
    assert_eq!(suppressed(&findings, "no-panic-api"), vec![27]);
    // Nothing fires inside the #[cfg(test)] module (lines 30..).
    assert!(findings.iter().all(|f| f.line < 30), "{findings:?}");
}

#[test]
fn no_panic_api_only_applies_to_core_crates() {
    let src = "pub fn f(v: &[u32]) -> u32 { *v.first().unwrap() }\n";
    let core = lint_source("crates/temporal-graph/src/fixture.rs", src);
    assert_eq!(active(&core, "no-panic-api"), vec![1]);
    let other = lint_source("crates/skyline/src/fixture.rs", src);
    assert!(active(&other, "no-panic-api").is_empty(), "{other:?}");
}

#[test]
fn lock_order_flags_abba_reentrancy_and_honours_pragma() {
    let findings = lint_source(
        "crates/skyline/src/locks.rs",
        include_str!("fixtures/rule_lock_order.rs"),
    );
    // ABBA pair (cache->stats at 21, stats->cache at 28) plus the
    // re-entrant self-loop on `stats` at 35.
    assert_eq!(active(&findings, "lock-order"), vec![21, 28, 35]);
    // The a/b pair is a cycle too, but both edges carry pragmas.
    assert_eq!(suppressed(&findings, "lock-order"), vec![75, 82]);
    // `ordered`, `scoped` and `dropped` (acyclic or non-overlapping
    // guards) must not be flagged.
    assert!(
        !findings.iter().any(|f| (40..=63).contains(&f.line)),
        "{findings:?}"
    );
}

#[test]
fn lock_order_global_flags_composed_abba_and_cross_fn_reentrancy() {
    let findings = lint_source(
        "crates/skyline/src/global_locks.rs",
        include_str!("fixtures/rule_lock_order_global.rs"),
    );
    // The composed ABBA pair (a_then_b at 35, b_then_a at 42) plus the
    // helper-mediated re-entrant self-loop at 49.  Each function is clean
    // in isolation — the intra rule must stay silent.
    assert_eq!(active(&findings, "lock-order-global"), vec![35, 42, 49]);
    assert!(active(&findings, "lock-order").is_empty(), "{findings:?}");
    // The x/y pair cycles too, but both call sites carry pragmas.
    assert_eq!(suppressed(&findings, "lock-order-global"), vec![77, 83]);
    // `ordered` (a held across a call that only takes c) is acyclic.
    assert!(
        !findings.iter().any(|f| f.line == 56),
        "acyclic composition must not fire: {findings:?}"
    );
}

#[test]
fn a_call_through_a_closure_parameter_links_to_no_workspace_fn() {
    let findings = lint_source(
        "crates/skyline/src/closures.rs",
        include_str!("fixtures/callgraph_closure_param.rs"),
    );
    // `run(*held)` at 26 calls the `run` parameter, so holding `ingest`
    // across it is no re-entry of `Engine::run`; `other.run()` at 33 is a
    // method call on a non-`self` receiver and stays linked by name.
    assert_eq!(active(&findings, "lock-order-global"), vec![33]);
}

#[test]
fn no_blocking_in_worker_follows_calls_from_spawned_closures() {
    let findings = lint_source(
        "crates/skyline/src/worker.rs",
        include_str!("fixtures/rule_no_blocking_in_worker.rs"),
    );
    // `drain` (reached through a closure handed to ExecPool::spawn) waits
    // at 22; the second closure waits inline at 27.
    assert_eq!(active(&findings, "no-blocking-in-worker"), vec![22, 27]);
    assert_eq!(suppressed(&findings, "no-blocking-in-worker"), vec![33]);
    // `block_on` waits on the main thread: out of worker reach.
    assert!(
        !findings.iter().any(|f| f.line == 42),
        "main-thread wait must not fire: {findings:?}"
    );
}

#[test]
fn hot_path_alloc_covers_seeds_and_their_unique_callees() {
    let findings = lint_source(
        "crates/skyline/src/hot.rs",
        include_str!("fixtures/rule_hot_path_alloc.rs"),
    );
    // `.clone(` in the seed (13), `.to_vec(` in a fn only reachable from
    // the seed (19), `Vec::new` inside a loop (33).
    assert_eq!(active(&findings, "hot-path-alloc"), vec![13, 19, 33]);
    assert_eq!(suppressed(&findings, "hot-path-alloc"), vec![26]);
    // The reachable finding names its seed.
    assert!(
        findings
            .iter()
            .any(|f| f.line == 19 && f.message.contains("reachable from hot seed")),
        "{findings:?}"
    );
    // `Vec::new` outside a loop (36) and the cold `.clone(` (42) are fine.
    assert!(
        !findings.iter().any(|f| f.line == 36 || f.line == 42),
        "{findings:?}"
    );
}

#[test]
fn no_println_detects_output_macros_and_skips_decoys() {
    let findings = lint_source(
        "crates/skyline/src/out.rs",
        include_str!("fixtures/rule_no_println.rs"),
    );
    assert_eq!(active(&findings, "no-println"), vec![5, 6, 7]);
    assert_eq!(suppressed(&findings, "no-println"), vec![13]);
    // Doc-comment and string decoys (lines 16..) must not fire.
    assert_eq!(findings.len(), 4, "{findings:?}");
}

#[test]
fn no_println_allows_tool_crates() {
    let findings = lint_source(
        "crates/cli/src/fixture.rs",
        "pub fn banner() { println!(\"tkc\"); }\n",
    );
    assert!(active(&findings, "no-println").is_empty(), "{findings:?}");
}

#[test]
fn forbid_unsafe_fires_on_crate_roots_only() {
    let missing = lint_source(
        "crates/skyline/src/lib.rs",
        include_str!("fixtures/rule_forbid_unsafe_missing.rs"),
    );
    assert_eq!(active(&missing, "forbid-unsafe"), vec![1]);

    let present = lint_source(
        "crates/skyline/src/lib.rs",
        "#![forbid(unsafe_code)]\npub fn answer() -> u32 { 42 }\n",
    );
    assert!(active(&present, "forbid-unsafe").is_empty(), "{present:?}");

    // Non-root modules never need the attribute.
    let module = lint_source(
        "crates/skyline/src/helpers.rs",
        include_str!("fixtures/rule_forbid_unsafe_missing.rs"),
    );
    assert!(active(&module, "forbid-unsafe").is_empty(), "{module:?}");
}

#[test]
fn unjustified_or_unknown_pragmas_are_findings() {
    let findings = lint_source(
        "crates/skyline/src/fixture.rs",
        include_str!("fixtures/rule_pragma.rs"),
    );
    assert_eq!(active(&findings, "pragma"), vec![5, 10]);
    assert_eq!(findings.len(), 2, "{findings:?}");
}

#[test]
fn compat_crates_are_exempt_entirely() {
    let findings = lint_source(
        "crates/compat/rand/src/lib.rs",
        "pub fn f() { println!(\"x\"); let _ = std::thread::spawn(|| ()); }\n",
    );
    assert!(findings.is_empty(), "{findings:?}");
}
