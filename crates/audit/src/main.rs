#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! `parcom-audit` — run the workspace concurrency-discipline lint.
//!
//! Usage: `cargo run -p parcom-audit [root]`. Without a root the
//! workspace is located by walking up from the current directory to the
//! first `Cargo.toml` declaring `[workspace]`. Exits nonzero when any
//! rule fires; diagnostics are `file:line: [rule] offending-line` with
//! notes and call-chain evidence indented below. Unused `audit:allow`
//! markers print as warnings and do not affect the exit status.

use std::path::PathBuf;
use std::process::ExitCode;

fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    for arg in std::env::args_os().skip(1) {
        match arg.to_str() {
            Some("--help" | "-h") => {
                eprintln!("usage: parcom-audit [root]");
                return ExitCode::SUCCESS;
            }
            Some(flag) if flag.starts_with("--") => {
                eprintln!("parcom-audit: unknown flag `{flag}`");
                return ExitCode::FAILURE;
            }
            _ => root = Some(PathBuf::from(arg)),
        }
    }
    let root = match root.or_else(find_workspace_root) {
        Some(root) => root,
        None => {
            eprintln!("parcom-audit: no workspace root found above the current directory");
            return ExitCode::FAILURE;
        }
    };

    let report = match parcom_audit::scan_workspace_report(&root) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("parcom-audit: scanning {} failed: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };

    for v in &report.violations {
        println!("{v}");
    }
    for u in &report.unused_allows {
        eprintln!(
            "{}:{}: warning: unused audit:allow({}) — it suppresses nothing; stale marker or typo'd rule name",
            u.file, u.line, u.rule
        );
    }

    println!(
        "parcom-audit: {} files on {} threads in {:.1} ms",
        report.files_scanned,
        report.threads,
        report.elapsed_micros as f64 / 1000.0
    );
    for (rule, stat) in parcom_audit::Rule::ALL.iter().zip(&report.stats) {
        println!(
            "  {:22} fired {:3}  suppressed {:3}  {:9.2} ms",
            rule.name(),
            stat.fired,
            stat.suppressed,
            stat.micros as f64 / 1000.0
        );
    }

    if report.violations.is_empty() {
        println!("parcom-audit: clean ({})", root.display());
        ExitCode::SUCCESS
    } else {
        eprintln!("parcom-audit: {} violation(s)", report.violations.len());
        ExitCode::FAILURE
    }
}
