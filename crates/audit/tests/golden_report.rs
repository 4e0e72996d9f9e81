//! Golden test of a whole-workspace scan: the `golden_ws` fixture's
//! report, asserted on the [`AuditReport`](parcom_audit::report::AuditReport)
//! the binary prints. Timings and the thread count vary run to run and
//! are not compared; every finding, its evidence and the marker
//! accounting are.

use parcom_audit::{scan_workspace_report, Rule};
use std::path::Path;

#[test]
fn golden_workspace_report_pins_findings_evidence_and_markers() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_ws");
    let report = scan_workspace_report(&root).expect("scan golden workspace");
    assert_eq!(report.files_scanned, 2);

    // per rule: (fired, suppressed)
    let counts: Vec<(&str, usize, usize)> = Rule::ALL
        .iter()
        .zip(&report.stats)
        .filter(|(_, s)| s.fired + s.suppressed > 0)
        .map(|(rule, s)| (rule.name(), s.fired, s.suppressed))
        .collect();
    assert_eq!(
        counts,
        [
            ("static-mut", 1, 0),
            ("lossy-cast", 0, 1),
            ("budget-propagation", 1, 0),
            ("panic-in-parallel", 1, 0),
            // `reference` is marker-kept; `as_pointer` is reached as a fn
            // pointer from examples/demo.rs and does not fire
            ("unreachable-pub", 2, 1),
        ]
    );

    // every finding with its column, note and call chain (root first)
    let findings: Vec<(usize, String)> = report
        .violations
        .iter()
        .map(|v| (v.column, v.to_string()))
        .collect();
    let want = [
        (1, "src/lib.rs:5: [static-mut] static mut COUNTER: u64 = 0;"),
        (
            1,
            "src/lib.rs:11: [budget-propagation] fn helper(g: &Graph) {\n    \
             note: heavy function `helper` is reachable from a budgeted root but takes no budget\n    \
             via: src/lib.rs:7 run_guarded\n    \
             via: src/lib.rs:11 helper",
        ),
        (
            47,
            "src/lib.rs:12: [panic-in-parallel] g.nodes().par_iter().for_each(|u| work(u).unwrap());\n    \
             note: .unwrap(..) inside a parallel closure tears down the worker pool on failure",
        ),
        (
            5,
            "src/lib.rs:23: [unreachable-pub] pub fn orphan() {}\n    \
             note: `orphan` is reached from no root file (REACH_ROOTS)",
        ),
        // a `use` re-export reaches nothing
        (
            9,
            "src/lib.rs:35: [unreachable-pub] pub fn reexported_only() {}\n    \
             note: `reexported_only` is reached from no root file (REACH_ROOTS)",
        ),
    ];
    let want: Vec<(usize, String)> = want.iter().map(|&(c, s)| (c, s.to_string())).collect();
    assert_eq!(findings, want);

    // unused-marker accounting is part of the report, not the gate
    let unused: Vec<(&str, u32, &str)> = report
        .unused_allows
        .iter()
        .map(|u| (u.file.as_str(), u.line, u.rule.as_str()))
        .collect();
    assert_eq!(unused, [("src/lib.rs", 19, "static-mut")]);
}
