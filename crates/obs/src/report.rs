//! The structured result of an observed run.
//!
//! A [`RunReport`] is a tree: run-level counters/series/metrics plus one
//! [`PhaseReport`] per top-level span, each with nested children. EPP-style
//! ensemble algorithms attach one whole `RunReport` per member under
//! `sub_reports`.
//!
//! The JSON schema (`parcom-run-report/v2`) is pinned by a golden test in
//! `tests/report_schema.rs`; downstream tooling may rely on the field
//! names and nesting emitted here. v2 added the always-present
//! `termination` and `cut_phase` keys (JSON `null` when the run was not
//! guarded) recording how a budgeted run ended and which phase was cut.

use crate::json;

/// Schema identifier emitted in every serialized report.
pub const SCHEMA: &str = "parcom-run-report/v2";

/// One timed phase (span) of a run: wall time, counters, iteration series
/// and nested sub-phases.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseReport {
    /// Phase name, e.g. `"level-0"` or `"move-phase"`.
    pub name: String,
    /// Wall-clock time spent between span open and close.
    pub wall_seconds: f64,
    /// Event totals attached to this phase, in insertion order.
    pub counters: Vec<(String, u64)>,
    /// Per-iteration series attached to this phase, in insertion order.
    pub series: Vec<(String, Vec<f64>)>,
    /// Nested phases, in open order.
    pub children: Vec<PhaseReport>,
}

impl PhaseReport {
    /// The first direct child with the given name.
    pub fn child(&self, name: &str) -> Option<&PhaseReport> {
        self.children.iter().find(|c| c.name == name)
    }

    /// The value of a counter on this phase.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// A series attached to this phase.
    pub fn series(&self, name: &str) -> Option<&[f64]> {
        self.series
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_slice())
    }

    /// Summed wall time of the direct children. Nesting discipline means
    /// this never exceeds `wall_seconds` (children run inside the parent).
    // audit:allow(unreachable-pub): the nesting invariant the timer, report and PLM report tests assert
    pub fn children_wall_seconds(&self) -> f64 {
        self.children.iter().map(|c| c.wall_seconds).sum()
    }

    fn write_json(&self, out: &mut String) {
        out.push_str("{\"name\":");
        json::write_str(out, &self.name);
        out.push_str(",\"wall_seconds\":");
        json::write_f64(out, self.wall_seconds);
        out.push_str(",\"counters\":");
        write_counter_map(out, &self.counters);
        out.push_str(",\"series\":");
        write_series_map(out, &self.series);
        out.push_str(",\"children\":[");
        for (i, c) in self.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            c.write_json(out);
        }
        out.push_str("]}");
    }
}

/// The full structured record of one algorithm run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunReport {
    /// Algorithm label as used in the paper's figures (e.g. `"PLM"`).
    pub algorithm: String,
    /// Run-level event totals (e.g. input `nodes`/`edges`).
    pub counters: Vec<(String, u64)>,
    /// Run-level iteration series (e.g. PLP's Fig. 1 update counts).
    pub series: Vec<(String, Vec<f64>)>,
    /// Final scalar metrics (e.g. `modularity`).
    pub metrics: Vec<(String, f64)>,
    /// Top-level phases, in open order.
    pub phases: Vec<PhaseReport>,
    /// Reports of constituent runs (EPP ensemble members, final algorithm).
    pub sub_reports: Vec<RunReport>,
    /// How a guarded run ended (`"converged"`, `"deadline"`, ...), set by
    /// `detect_guarded`. `None` for unguarded runs; serialized as `null`.
    pub termination: Option<String>,
    /// The phase that was executing when the budget expired, when a guarded
    /// run was cut short. `None` otherwise; serialized as `null`.
    pub cut_phase: Option<String>,
}

impl RunReport {
    /// An empty report carrying only the algorithm name (what a disabled
    /// recorder produces).
    pub fn empty(algorithm: impl Into<String>) -> Self {
        Self {
            algorithm: algorithm.into(),
            ..Self::default()
        }
    }

    /// True when nothing was recorded (disabled instrumentation).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.series.is_empty()
            && self.metrics.is_empty()
            && self.phases.is_empty()
            && self.sub_reports.is_empty()
    }

    /// The first top-level phase with the given name.
    pub fn phase(&self, name: &str) -> Option<&PhaseReport> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// The value of a run-level counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// A run-level series.
    pub fn series(&self, name: &str) -> Option<&[f64]> {
        self.series
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_slice())
    }

    /// A final metric.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Serializes the report as one JSON object (schema
    /// [`SCHEMA`](crate::SCHEMA)).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) {
        out.push_str("{\"schema\":");
        json::write_str(out, SCHEMA);
        out.push_str(",\"algorithm\":");
        json::write_str(out, &self.algorithm);
        out.push_str(",\"counters\":");
        write_counter_map(out, &self.counters);
        out.push_str(",\"series\":");
        write_series_map(out, &self.series);
        out.push_str(",\"metrics\":{");
        for (i, (name, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(out, name);
            out.push(':');
            json::write_f64(out, *v);
        }
        out.push_str("},\"phases\":[");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            p.write_json(out);
        }
        out.push_str("],\"sub_reports\":[");
        for (i, r) in self.sub_reports.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            r.write_json(out);
        }
        out.push_str("],\"termination\":");
        write_opt_str(out, self.termination.as_deref());
        out.push_str(",\"cut_phase\":");
        write_opt_str(out, self.cut_phase.as_deref());
        out.push('}');
    }
}

fn write_opt_str(out: &mut String, s: Option<&str>) {
    match s {
        Some(s) => json::write_str(out, s),
        None => out.push_str("null"),
    }
}

fn write_counter_map(out: &mut String, counters: &[(String, u64)]) {
    out.push('{');
    for (i, (name, v)) in counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_str(out, name);
        out.push(':');
        out.push_str(&v.to_string());
    }
    out.push('}');
}

fn write_series_map(out: &mut String, series: &[(String, Vec<f64>)]) {
    out.push('{');
    for (i, (name, values)) in series.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_str(out, name);
        out.push_str(":[");
        for (j, v) in values.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            json::write_f64(out, *v);
        }
        out.push(']');
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_find_by_name() {
        let r = RunReport {
            algorithm: "X".into(),
            counters: vec![("nodes".into(), 10)],
            series: vec![("updated".into(), vec![3.0, 1.0])],
            metrics: vec![("modularity".into(), 0.5)],
            phases: vec![PhaseReport {
                name: "outer".into(),
                wall_seconds: 2.0,
                children: vec![PhaseReport {
                    name: "inner".into(),
                    wall_seconds: 1.5,
                    ..PhaseReport::default()
                }],
                ..PhaseReport::default()
            }],
            ..RunReport::default()
        };
        assert_eq!(r.counter("nodes"), Some(10));
        assert_eq!(r.series("updated"), Some(&[3.0, 1.0][..]));
        assert_eq!(r.metric("modularity"), Some(0.5));
        let outer = r.phase("outer").unwrap();
        assert_eq!(outer.child("inner").unwrap().wall_seconds, 1.5);
        assert!(outer.children_wall_seconds() <= outer.wall_seconds);
        assert!(!r.is_empty());
        assert!(RunReport::empty("Y").is_empty());
    }

    #[test]
    fn json_is_wellformed() {
        let r = RunReport {
            algorithm: "A\"B".into(),
            counters: vec![("c".into(), 1)],
            series: vec![("s".into(), vec![1.0, f64::NAN])],
            metrics: vec![("m".into(), 0.25)],
            phases: vec![PhaseReport {
                name: "p".into(),
                wall_seconds: 0.125,
                ..PhaseReport::default()
            }],
            sub_reports: vec![RunReport::empty("member")],
            termination: Some("deadline".into()),
            cut_phase: Some("move-phase".into()),
        };
        crate::json::validate(&r.to_json()).unwrap();
        assert!(r.to_json().contains("\"termination\":\"deadline\""));
        assert!(r.to_json().contains("\"cut_phase\":\"move-phase\""));
    }
}
