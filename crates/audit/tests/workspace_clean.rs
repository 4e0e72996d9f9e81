//! The workspace gates on its own audit: every rule, `unreachable-pub`
//! included, finds nothing, and every `audit:allow` marker still
//! suppresses something (a stale marker is a silent hole in the gate).

use parcom_audit::scan_workspace_report;
use std::path::Path;

#[test]
fn workspace_has_no_violations_and_no_unused_markers() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = scan_workspace_report(&root).expect("workspace scan");
    let lines = |items: Vec<String>| items.join("\n");
    assert!(
        report.violations.is_empty(),
        "workspace has audit violations:\n{}",
        lines(report.violations.iter().map(|v| v.to_string()).collect())
    );
    assert!(
        report.unused_allows.is_empty(),
        "workspace has audit:allow markers that suppress nothing:\n{}",
        lines(
            report
                .unused_allows
                .iter()
                .map(|u| format!("{}:{}: audit:allow({})", u.file, u.line, u.rule))
                .collect()
        )
    );
}
