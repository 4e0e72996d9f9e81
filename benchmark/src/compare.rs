//! `parbench compare A.json B.json` — the A/A and A/B comparator over two
//! suite results, one row per (end-to-end metric, workload): parent median,
//! change median, their ratio with its base, and a verdict. A cell whose
//! run-to-run spread is wider than its bound is *unresolved*, never "ok".

use crate::stats::{median, quartile_spread};
use crate::workloads::WORKLOADS;
use crate::END_TO_END;
use parcom_obs::json::{self, Value};

/// The untraced (`trace` 0) or traced runs of one workload in a suite file.
fn runs_of<'a>(doc: &'a Value, workload: &str, trace: u64) -> Vec<&'a Value> {
    let runs = doc.get("runs").and_then(Value::as_array).unwrap_or(&[]);
    runs.iter()
        .filter(|r| {
            r.get("workload").and_then(Value::as_str) == Some(workload)
                && r.get("trace").and_then(Value::as_u64) == Some(trace)
        })
        .collect()
}

fn metric(run: &Value, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn values(runs: &[&Value], name: &str) -> Vec<f64> {
    runs.iter().filter_map(|r| metric(r, name)).collect()
}

fn any_noisy(runs: &[&Value]) -> bool {
    runs.iter()
        .any(|r| r.get("noisy").and_then(Value::as_bool) == Some(true))
}

#[derive(Debug, PartialEq)]
enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// `worse` is the change's median relative to the parent's, signed so that
/// positive means worse. The spread is the wider of the two sides'
/// interquartile distances as a share of the median; with fewer than two
/// runs a side has none, and only noise flags can leave the cell open.
fn verdict(worse: f64, spread: Option<f64>, noisy: bool, bound: f64) -> Verdict {
    if noisy || spread.is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema").and_then(Value::as_str) != Some("parbench/v1") {
        return Err(format!("{path} is not a parbench/v1 result"));
    }
    if doc.get("comparable").and_then(Value::as_bool) != Some(true) {
        return Err(format!(
            "{path} is a --quick result; its numbers are not comparable"
        ));
    }
    Ok(doc)
}

/// Prints the table; `Ok(false)` when any cell regressed.
pub fn compare_files(parent_path: &str, change_path: &str) -> Result<bool, String> {
    let (parent, change) = (load(parent_path)?, load(change_path)?);
    println!("parent = {parent_path}, change = {change_path}; ratio = change / parent");
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
        "metric", "workload", "parent", "change", "ratio", "spread", "bound"
    );
    let mut regressed = 0;
    for (name, _unit, better, bound) in END_TO_END {
        for w in &WORKLOADS {
            let (p_runs, c_runs) = (runs_of(&parent, w.name, 0), runs_of(&change, w.name, 0));
            let (p, c) = (values(&p_runs, name), values(&c_runs, name));
            if p.is_empty() || c.is_empty() {
                println!("{name:<16} {:<20} missing on one side", w.name);
                continue;
            }
            let (p50, c50) = (median(&p), median(&c));
            let ratio = c50 / p50;
            let worse = if better == "lower" {
                ratio - 1.0
            } else {
                1.0 - ratio
            };
            let spread = [quartile_spread(&p), quartile_spread(&c)]
                .into_iter()
                .flatten()
                .reduce(f64::max);
            let noisy = any_noisy(&p_runs) || any_noisy(&c_runs);
            let v = verdict(worse, spread, noisy, bound);
            regressed += usize::from(v == Verdict::Regressed);
            println!(
                "{name:<16} {:<20} {p50:>14.4} {c50:>14.4} {ratio:>8.4} {:>8} {bound:>6.3}  {}",
                w.name,
                spread.map_or("n/a".into(), |s| format!("{s:.4}")),
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    println!("{regressed} cell(s) regressed");
    Ok(regressed == 0)
}

/// The repo's strong-scaling numbers side by side, with no claim attached:
/// the three PLM workloads' median operation time (speed-normalised, from
/// the untraced runs), and from the traced runs, raw: the same median, the
/// in-process detect time and its 1-thread ÷ T-thread speed-up on one graph.
pub fn print_scaling(document: &str) -> Result<(), String> {
    let doc = json::parse(document)?;
    println!(
        "strong scaling (T = {} threads):",
        crate::workloads::thread_count()
    );
    for name in ["plm-lfr-t1", "plm-lfr-tN", "plm-rmat-tN"] {
        let traced = runs_of(&doc, name, 1);
        let of = |runs: &[&Value], metric: &str| median(&values(runs, metric));
        println!(
            "  {name:<12} op_p50_ms {:>8.2} | traced, raw: op p50 {:>8.2}  core.detect_ms {:>8.2}  core.speedup_tN {:>6.3}",
            of(&runs_of(&doc, name, 0), "op_p50_ms"),
            of(&traced, "check.raw_op_p50_ms"),
            of(&traced, "core.detect_ms"),
            of(&traced, "core.speedup_tN"),
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        assert_eq!(verdict(0.05, Some(0.02), false, 0.1), Verdict::Ok);
        assert_eq!(verdict(-0.30, Some(0.02), false, 0.1), Verdict::Ok);
        assert_eq!(verdict(0.11, Some(0.02), false, 0.1), Verdict::Regressed);
        assert_eq!(verdict(0.11, None, false, 0.1), Verdict::Regressed);
        assert_eq!(verdict(0.11, Some(0.2), false, 0.1), Verdict::Unresolved);
        assert_eq!(verdict(0.0, Some(0.02), true, 0.1), Verdict::Unresolved);
    }

    #[test]
    fn reads_runs_out_of_a_suite_document() {
        let run = |w: &str, trace: u8, v: f64| {
            format!("{{\"workload\":\"{w}\",\"trace\":{trace},\"noisy\":false,\"metrics\":{{\"op_p50_ms\":{{\"value\":{v},\"unit\":\"ms\"}}}}}}")
        };
        let doc = format!(
            "{{\"schema\":\"parbench/v1\",\"runs\":[{},{},{}]}}",
            run("plm-lfr-t1", 0, 10.0),
            run("plm-lfr-t1", 0, 30.0),
            run("plm-lfr-t1", 1, 99.0)
        );
        let doc = json::parse(&doc).unwrap();
        let runs = runs_of(&doc, "plm-lfr-t1", 0);
        assert_eq!(values(&runs, "op_p50_ms"), vec![10.0, 30.0]);
        assert_eq!(values(&runs, "absent"), Vec::<f64>::new());
        assert!(runs_of(&doc, "serve-detect", 0).is_empty());
        assert!(!any_noisy(&runs));
    }
}
