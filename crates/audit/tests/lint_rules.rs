//! One test per lint rule: each committed fixture must trip exactly its
//! rule, and the escape-hatch fixture must scan clean. The workspace's own
//! scan is `workspace_clean.rs`.

use parcom_audit::{scan_source, Rule};
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path:?}: {e}"))
}

/// Scans a fixture under a synthetic workspace-relative path and returns
/// the rules that fired (with multiplicity).
fn rules_fired(path: &str, source: &str) -> Vec<Rule> {
    scan_source(path, source)
        .into_iter()
        .map(|v| v.rule)
        .collect()
}

#[test]
fn detects_atomic_ordering_outside_allowlist() {
    let fired = rules_fired("crates/core/src/sneaky.rs", &fixture("bad_ordering.rs"));
    assert_eq!(fired, vec![Rule::AtomicOrdering; 2], "{fired:?}");
}

#[test]
fn permits_atomic_ordering_in_allowlisted_module() {
    // the allowlist admits the *module*; the SeqCst in the fixture still
    // trips the strength rule there (see ordering-escalation tests)
    let fired = rules_fired("crates/graph/src/atomicf64.rs", &fixture("bad_ordering.rs"));
    assert_eq!(fired, vec![Rule::OrderingEscalation], "{fired:?}");
}

#[test]
fn detects_static_mut() {
    let fired = rules_fired("crates/core/src/sneaky.rs", &fixture("bad_static_mut.rs"));
    assert_eq!(fired, vec![Rule::StaticMut], "{fired:?}");
}

#[test]
fn detects_unsafe_code() {
    let fired = rules_fired("crates/graph/src/sneaky.rs", &fixture("bad_unsafe.rs"));
    assert_eq!(fired, vec![Rule::UnsafeCode], "{fired:?}");
}

#[test]
fn detects_partial_cmp_unwrap_comparators() {
    let fired = rules_fired("crates/core/src/sneaky.rs", &fixture("bad_partial_cmp.rs"));
    // one single-line unwrap, one multi-line expect
    assert_eq!(fired, vec![Rule::PartialCmpUnwrap; 2], "{fired:?}");
}

#[test]
fn detects_lossy_casts() {
    let fired = rules_fired("crates/graph/src/sneaky.rs", &fixture("bad_lossy_cast.rs"));
    assert_eq!(fired, vec![Rule::LossyCast; 3], "{fired:?}");
}

#[test]
fn detects_unguarded_heavy_loops_in_budget_functions() {
    let fired = rules_fired(
        "crates/core/src/sneaky.rs",
        &fixture("bad_unguarded_loop.rs"),
    );
    // the nested-loop body and the par_ body each fire once; the checked,
    // bookkeeping, and unbudgeted shapes stay silent
    assert_eq!(fired, vec![Rule::BudgetCheck; 2], "{fired:?}");
}

#[test]
fn budget_check_fires_at_the_outermost_loop_header() {
    let violations = scan_source(
        "crates/core/src/sneaky.rs",
        &fixture("bad_unguarded_loop.rs"),
    );
    let budget: Vec<_> = violations
        .iter()
        .filter(|v| v.rule == Rule::BudgetCheck)
        .collect();
    assert!(
        budget[0].excerpt.starts_with("for _sweep"),
        "{:?}",
        budget[0]
    );
    assert!(budget[1].excerpt.starts_with("loop {"), "{:?}", budget[1]);
}

#[test]
fn audit_allow_markers_suppress_diagnostics() {
    let fired = rules_fired("crates/core/src/sneaky.rs", &fixture("allowed_escapes.rs"));
    assert!(fired.is_empty(), "{fired:?}");
}

#[test]
fn detects_budget_propagation_with_call_chain() {
    let violations = scan_source(
        "crates/core/src/sneaky.rs",
        &fixture("bad_budget_propagation.rs"),
    );
    assert_eq!(violations.len(), 1, "{violations:?}");
    let v = &violations[0];
    assert_eq!(v.rule, Rule::BudgetPropagation);
    assert!(v.excerpt.starts_with("fn heavy_sweeps"), "{v:?}");
    let chain: Vec<&str> = v
        .call_chain
        .iter()
        .map(|link| link.function.as_str())
        .collect();
    assert_eq!(
        chain,
        vec!["run_guarded", "wrapper", "heavy_sweeps"],
        "{v:?}"
    );
}

#[test]
fn budget_propagation_accepts_threaded_and_allow_marked_helpers() {
    let fired = rules_fired(
        "crates/core/src/sneaky.rs",
        &fixture("good_budget_propagation.rs"),
    );
    assert!(fired.is_empty(), "{fired:?}");
}

#[test]
fn unreachable_pub_is_silent_without_a_root_file() {
    // a scan with no CLI, daemon, example or benchmark file (here: one
    // library file) has nothing to measure reachability from
    let fired = rules_fired("crates/core/src/sneaky.rs", "pub fn nobody_calls_me() {}\n");
    assert!(fired.is_empty(), "{fired:?}");
}

#[test]
fn detects_lock_guard_live_across_parallel_region() {
    let violations = scan_source(
        "crates/core/src/sneaky.rs",
        &fixture("bad_lock_across_parallel.rs"),
    );
    // only the bound-guard shape fires; temporary, dropped and scoped
    // guards are fine
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert_eq!(violations[0].rule, Rule::LockAcrossParallel);
    assert!(
        violations[0].excerpt.contains("let guard = m.lock()"),
        "{:?}",
        violations[0]
    );
}

#[test]
fn detects_panics_inside_parallel_closures() {
    let violations = scan_source(
        "crates/core/src/sneaky.rs",
        &fixture("bad_panic_in_parallel.rs"),
    );
    // the par-closure unwrap and the panic! in rayon::join; the
    // sequential unwrap and the test-module unwrap stay silent
    let fired: Vec<Rule> = violations.iter().map(|v| v.rule).collect();
    assert_eq!(fired, vec![Rule::PanicInParallel; 2], "{violations:?}");
}

#[test]
fn detects_ordering_escalation_in_allowlisted_module() {
    let violations = scan_source(
        "crates/graph/src/atomicf64.rs",
        &fixture("bad_ordering_escalation.rs"),
    );
    // Release, AcqRel, SeqCst escalate; Relaxed and Acquire are the
    // documented protocol
    let fired: Vec<Rule> = violations.iter().map(|v| v.rule).collect();
    assert_eq!(fired, vec![Rule::OrderingEscalation; 3], "{violations:?}");
}

#[test]
fn ordering_escalation_defers_to_atomic_ordering_outside_allowlist() {
    let fired = rules_fired(
        "crates/core/src/sneaky.rs",
        &fixture("bad_ordering_escalation.rs"),
    );
    // outside the allowlist every variant is an atomic-ordering hit
    // (5 sites) and escalation stays quiet — no double report
    assert_eq!(fired, vec![Rule::AtomicOrdering; 5], "{fired:?}");
}

#[test]
fn allow_markers_cover_attributed_items_and_multiline_statements() {
    let fired = rules_fired(
        "crates/core/src/sneaky.rs",
        &fixture("allow_above_attribute.rs"),
    );
    assert!(fired.is_empty(), "{fired:?}");
}
