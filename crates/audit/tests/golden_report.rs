//! Golden test pinning the `parcom-audit-report/v1` JSON schema.
//!
//! CI archives the report and downstream tooling parses it, so the exact
//! serialized shape is a contract: any field rename, reorder or addition
//! must fail here and force a deliberate schema bump. Volatile values
//! (timings, thread count, absolute root path) are scrubbed to zero /
//! empty before comparison; everything else is byte-for-byte.

use parcom_audit::{scan_workspace_report, Rule};
use std::path::Path;

/// Zeroes the run-dependent values while leaving structure intact.
fn scrub(json: &str) -> String {
    let mut out = json.to_string();
    for key in ["\"micros\":", "\"elapsed_micros\":", "\"threads\":"] {
        let mut from = 0;
        while let Some(pos) = out[from..].find(key) {
            let start = from + pos + key.len();
            let end = start
                + out[start..]
                    .find(|c: char| !c.is_ascii_digit())
                    .unwrap_or(out.len() - start);
            out.replace_range(start..end, "0");
            from = start;
        }
    }
    if let Some(pos) = out.find("\"root\":\"") {
        let start = pos + "\"root\":\"".len();
        if let Some(len) = out[start..].find('"') {
            out.replace_range(start..start + len, "");
        }
    }
    out
}

#[test]
fn report_json_matches_pinned_schema() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_ws");
    let report = scan_workspace_report(&root).expect("scan golden workspace");
    let got = scrub(&report.to_json());
    let golden_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_report.json");
    let want = std::fs::read_to_string(&golden_path).expect("read golden_report.json");
    assert_eq!(
        got,
        want.trim_end(),
        "parcom-audit-report/v1 drifted from the pinned golden.\n\
         If the change is deliberate, bump the schema version and \
         regenerate tests/fixtures/golden_report.json."
    );
}

#[test]
fn golden_workspace_evidence_survives_the_json_round() {
    // the acceptance shape: a budget-less helper called from run_guarded
    // is flagged and its call chain is in the JSON evidence
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_ws");
    let report = scan_workspace_report(&root).expect("scan golden workspace");
    let json = report.to_json();
    assert!(json.contains("\"rule\":\"budget-propagation\""));
    assert!(json.contains(
        "\"call_chain\":[{\"file\":\"src/lib.rs\",\"line\":7,\"function\":\"run_guarded\"},\
{\"file\":\"src/lib.rs\",\"line\":11,\"function\":\"helper\"}]"
    ));
    // unused-marker accounting is part of the report, not the gate
    assert!(json.contains(
        "\"unused_allows\":[{\"file\":\"src/lib.rs\",\"line\":19,\"rule\":\"static-mut\"}]"
    ));
    // the census from examples/demo.rs: `as_pointer` is reached as a fn
    // pointer, `reference` is marker-kept, a `use` re-export reaches nothing
    let census: Vec<&str> = report
        .violations
        .iter()
        .filter(|v| v.rule == Rule::UnreachablePub)
        .map(|v| v.excerpt.as_str())
        .collect();
    assert_eq!(
        census,
        ["pub fn orphan() {}", "pub fn reexported_only() {}"]
    );
    assert_eq!(report.stats[Rule::UnreachablePub.idx()].suppressed, 1);
}
