//! Golden test pinning the `parcom-run-report/v2` JSON schema.
//!
//! Downstream tooling (CI smoke step, plotting scripts) parses this
//! format; any change to field names, nesting or value encoding must be
//! deliberate and bump the schema tag. v2 added the always-present
//! `termination`/`cut_phase` keys (`null` for unguarded runs). New counter
//! and series *names* are additive: the PLM move phases' `active` series
//! and `evaluations` counter (the frontier ledger) joined without a bump.

use parcom_obs::{json, PhaseReport, Recorder, RunReport, SCHEMA};

/// A fully deterministic report exercising every field of the schema.
fn sample_report() -> RunReport {
    RunReport {
        algorithm: "PLM".into(),
        counters: vec![("nodes".into(), 100), ("edges".into(), 250)],
        series: vec![("updated".into(), vec![42.0, 7.0, 0.0])],
        metrics: vec![("modularity".into(), 0.5)],
        phases: vec![PhaseReport {
            name: "level-0".into(),
            wall_seconds: 0.25,
            counters: vec![("merges".into(), 60)],
            series: vec![],
            children: vec![PhaseReport {
                name: "move-phase".into(),
                wall_seconds: 0.125,
                counters: vec![("evaluations".into(), 135), ("moves".into(), 40)],
                series: vec![
                    ("active".into(), vec![100.0, 30.0, 5.0]),
                    ("moves".into(), vec![35.0, 5.0, 0.0]),
                ],
                children: vec![],
            }],
        }],
        sub_reports: vec![RunReport {
            algorithm: "PLP".into(),
            metrics: vec![("modularity".into(), 0.375)],
            ..RunReport::default()
        }],
        termination: Some("deadline".into()),
        cut_phase: Some("move-phase".into()),
    }
}

#[test]
fn golden_json_is_pinned() {
    let expected = concat!(
        "{\"schema\":\"parcom-run-report/v2\",",
        "\"algorithm\":\"PLM\",",
        "\"counters\":{\"nodes\":100,\"edges\":250},",
        "\"series\":{\"updated\":[42,7,0]},",
        "\"metrics\":{\"modularity\":0.5},",
        "\"phases\":[",
        "{\"name\":\"level-0\",\"wall_seconds\":0.25,",
        "\"counters\":{\"merges\":60},\"series\":{},",
        "\"children\":[",
        "{\"name\":\"move-phase\",\"wall_seconds\":0.125,",
        "\"counters\":{\"evaluations\":135,\"moves\":40},",
        "\"series\":{\"active\":[100,30,5],\"moves\":[35,5,0]},\"children\":[]}",
        "]}",
        "],",
        "\"sub_reports\":[",
        "{\"schema\":\"parcom-run-report/v2\",\"algorithm\":\"PLP\",",
        "\"counters\":{},\"series\":{},\"metrics\":{\"modularity\":0.375},",
        "\"phases\":[],\"sub_reports\":[],",
        "\"termination\":null,\"cut_phase\":null}",
        "],",
        "\"termination\":\"deadline\",\"cut_phase\":\"move-phase\"}",
    );
    let got = sample_report().to_json();
    assert_eq!(got, expected, "RunReport JSON schema drifted");
    json::validate(&got).expect("pinned JSON must be well-formed");
    assert!(got.contains(SCHEMA));
}

#[test]
fn empty_report_still_emits_every_field() {
    let got = RunReport::empty("PLP").to_json();
    assert_eq!(
        got,
        "{\"schema\":\"parcom-run-report/v2\",\"algorithm\":\"PLP\",\
         \"counters\":{},\"series\":{},\"metrics\":{},\"phases\":[],\
         \"sub_reports\":[],\"termination\":null,\"cut_phase\":null}"
    );
    json::validate(&got).unwrap();
}

#[test]
fn recorder_output_matches_schema_shape() {
    let rec = Recorder::enabled();
    {
        let _outer = rec.span("outer");
        rec.counter("moves", 3);
        let _inner = rec.span("inner");
    }
    rec.metric("modularity", 0.25);
    let json = rec.finish("X").to_json();
    json::validate(&json).unwrap();
    assert!(json.starts_with("{\"schema\":\"parcom-run-report/v2\""));
    assert!(json.contains("\"name\":\"inner\""));
    assert!(json.contains("\"termination\":null"));
}

#[test]
fn disabled_recorder_emits_the_empty_shape() {
    let rec = Recorder::disabled();
    let _span = rec.span("ignored");
    rec.counter("ignored", 1);
    let report = rec.finish("PLM");
    assert!(report.is_empty());
    assert!(report.to_json().contains("\"phases\":[]"));
}
