//! End-to-end smoke test of `parcom detect --report json`: the binary must
//! emit exactly one syntactically valid JSON object on stdout, carrying the
//! pinned report schema with per-level PLM phase timings.

use std::process::Command;

fn parcom() -> Command {
    Command::new(env!("CARGO_BIN_EXE_parcom"))
}

fn temp_graph(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("parcom_cli_report_smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let (g, _) = parcom_generators::ring_of_cliques(16, 8);
    parcom_io::write_metis(&g, &path).unwrap();
    path
}

#[test]
fn detect_report_json_emits_a_valid_run_report() {
    let graph = temp_graph("report.metis");
    let out = parcom()
        .args(["detect", "--algo", "plm", "--report", "json"])
        .arg("--input")
        .arg(&graph)
        .env_remove("PARCOM_OBS")
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // stdout is exactly one JSON object (one line), pipeable as-is
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(
        stdout.lines().count(),
        1,
        "stdout not a single line: {stdout}"
    );
    parcom_obs::json::validate(stdout.trim()).expect("stdout is valid JSON");
    assert!(stdout.contains(&format!("\"schema\":\"{}\"", parcom_obs::SCHEMA)));
    assert!(stdout.contains("\"algorithm\":\"PLM\""));
    // the acceptance bar: per-level phases with move/coarsen timings present
    assert!(stdout.contains("\"name\":\"level-0\""), "{stdout}");
    assert!(stdout.contains("\"name\":\"move-phase\""), "{stdout}");
    assert!(stdout.contains("\"name\":\"coarsen\""), "{stdout}");
    // graph ingest phases lead the report
    assert!(stdout.contains("\"name\":\"ingest/parse\""), "{stdout}");
    assert!(stdout.contains("\"name\":\"ingest/build\""), "{stdout}");
    // no budget flag: the run converges and the report says so (what CI's
    // run-report smoke asserts)
    assert!(stdout.contains("\"termination\":\"converged\""), "{stdout}");
    assert!(stdout.contains("\"cut_phase\":null"), "{stdout}");

    // the human summary moved to stderr
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("communities"), "{stderr}");
}

#[test]
fn detect_with_max_sweeps_reports_termination() {
    let graph = temp_graph("budget.metis");
    let out = parcom()
        .args([
            "detect",
            "--algo",
            "louvain",
            "--max-sweeps",
            "1",
            "--report",
            "json",
        ])
        .arg("--input")
        .arg(&graph)
        .env_remove("PARCOM_OBS")
        .output()
        .expect("binary runs");
    // a budget expiry degrades gracefully: exit 0, valid JSON, cause named
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    parcom_obs::json::validate(stdout.trim()).expect("stdout is valid JSON");
    assert!(
        stdout.contains("\"termination\":\"iteration-cap\""),
        "{stdout}"
    );
    assert!(stdout.contains("\"cut_phase\":"), "{stdout}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("terminated early"), "{stderr}");
}

#[test]
fn detect_with_generous_timeout_converges() {
    let graph = temp_graph("deadline.metis");
    let out = parcom()
        .args([
            "detect",
            "--algo",
            "plm",
            "--timeout",
            "300",
            "--report",
            "json",
        ])
        .arg("--input")
        .arg(&graph)
        .env_remove("PARCOM_OBS")
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    // far-away deadline: the run converges and says so in the report
    assert!(stdout.contains("\"termination\":\"converged\""), "{stdout}");
    assert!(stdout.contains("\"cut_phase\":null"), "{stdout}");
}

#[test]
fn detect_rejects_input_beyond_ingest_limit() {
    let graph = temp_graph("toolarge.metis");
    let out = parcom()
        .args(["detect", "--algo", "plm", "--max-nodes", "10"])
        .arg("--input")
        .arg(&graph)
        .output()
        .expect("binary runs");
    // the 128-node fixture exceeds the 10-node limit: hard error, context
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("ingest limit"), "{stderr}");
    assert!(stderr.contains("toolarge.metis"), "{stderr}");
}

#[test]
fn detect_without_report_keeps_stdout_human() {
    let graph = temp_graph("plain.metis");
    let out = parcom()
        .args(["detect", "--algo", "plp", "--seed", "7"])
        .arg("--input")
        .arg(&graph)
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("communities"), "{stdout}");
    assert!(!stdout.contains("\"schema\""), "{stdout}");
}

#[test]
fn detect_rejects_unknown_report_format() {
    let graph = temp_graph("badfmt.metis");
    let out = parcom()
        .args(["detect", "--algo", "plm", "--report", "xml"])
        .arg("--input")
        .arg(&graph)
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown report format"), "{stderr}");
}

#[test]
fn closed_stdout_ends_the_output_not_the_command() {
    // `parcom detect … | head -1`: the reader is gone before the command
    // prints. The pipe's read end is dropped before the child starts, so
    // every write to stdout meets a closed pipe.
    let graph = temp_graph("pipe.metis");
    let partition = graph.with_extension("part");
    let _ = std::fs::remove_file(&partition);
    for report in [None, Some("json")] {
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let mut cmd = parcom();
        cmd.args(["detect", "--algo", "plm", "--input"]).arg(&graph);
        cmd.arg("--out").arg(&partition);
        if let Some(format) = report {
            cmd.args(["--report", format]);
        }
        let out = cmd.stdout(writer).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{:?}: {stderr}", out.status);
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert!(!stderr.contains("Broken pipe"), "{stderr}");
        // the work itself was not cut short
        assert!(partition.exists(), "--out not written");
        std::fs::remove_file(&partition).unwrap();
    }
}
