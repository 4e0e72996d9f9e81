//! Timing, scoring and table-formatting utilities shared by the bench
//! targets.

use parcom_core::quality::modularity;
use parcom_core::CommunityDetector;
use parcom_graph::{Graph, Partition};
use parcom_obs::RunReport;
use std::time::{Duration, Instant};

/// One algorithm run on one instance.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Algorithm label.
    pub algorithm: String,
    /// Instance name.
    pub instance: String,
    /// Wall-clock running time.
    pub time: Duration,
    /// Modularity of the solution.
    pub modularity: f64,
    /// Number of detected communities.
    pub communities: usize,
    /// Structured phase report from the run.
    pub report: RunReport,
}

/// Times a closure.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

/// Runs `algo` on `g` and records time, modularity and community count.
pub fn run_measured(
    algo: &mut dyn CommunityDetector,
    g: &Graph,
    instance: &str,
) -> (Partition, Measurement) {
    let name = algo.name();
    let ((zeta, report), elapsed) = time(|| algo.detect_with_report(g));
    let q = modularity(g, &zeta);
    let m = Measurement {
        algorithm: name,
        instance: instance.to_string(),
        time: elapsed,
        modularity: q,
        communities: zeta.number_of_subsets(),
        report,
    };
    (zeta, m)
}

/// Geometric mean of strictly positive values (the paper's time score,
/// §V-F). Returns NaN on empty input.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geometric mean needs positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean. Returns NaN on empty input.
pub fn arithmetic_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Edges per second of a run.
pub fn edges_per_second(edges: usize, t: Duration) -> f64 {
    edges as f64 / t.as_secs_f64().max(1e-12)
}

/// Formats a duration as seconds with millisecond resolution.
pub fn fmt_secs(t: Duration) -> String {
    format!("{:.3}", t.as_secs_f64())
}

/// Prints a row-aligned table: `header` then `rows`, column widths derived
/// from content. Also prints a machine-readable TSV block prefixed with
/// `#tsv` so EXPERIMENTS.md numbers can be regenerated mechanically.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
    // machine-readable block
    println!("#tsv {}", header.join("\t"));
    for row in rows {
        println!("#tsv {}", row.join("\t"));
    }
}

/// The paper's five "our algorithms" (Figs. 6, 9): PLP, PLM, PLMR,
/// EPP(4,PLP,PLM), EPP(4,PLP,PLMR).
pub fn our_algorithms() -> Vec<Box<dyn CommunityDetector + Send>> {
    use parcom_core::{Epp, Plm, Plp};
    vec![
        Box::new(Plp::new()),
        Box::new(Plm::new()),
        Box::new(Plm::with_refinement()),
        Box::new(Epp::plp_plm(4)),
        Box::new(Epp::plp_plmr(4)),
    ]
}

/// The competitor reimplementations (Fig. 7): Louvain, PAM (CLU_TBB-like),
/// CEL, RG, CGGC, CGGCi — the paper's §V-E set. CNM is implemented
/// (`parcom_core::Cnm`) but appears only in related work in the paper, and
/// its globally greedy heap degrades badly on scale-free hubs, so it is not
/// part of the figure registry.
pub fn competitor_algorithms() -> Vec<Box<dyn CommunityDetector + Send>> {
    use parcom_core::{Cggc, Louvain, Pam, Rg};
    vec![
        Box::new(Louvain::new()),
        Box::new(Pam::new()),
        Box::new(Pam::cel()),
        Box::new(Rg::new()),
        Box::new(Cggc::new(4)),
        Box::new(Cggc::iterated(4)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcom_core::Plp;
    use parcom_generators::ring_of_cliques;

    #[test]
    fn geometric_mean_of_ratios() {
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!(geometric_mean(&[]).is_nan());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geometric_mean_rejects_zero() {
        geometric_mean(&[1.0, 0.0]);
    }

    #[test]
    fn arithmetic_mean_basic() {
        assert_eq!(arithmetic_mean(&[1.0, 3.0]), 2.0);
    }

    #[test]
    fn run_measured_records_everything() {
        let (g, _) = ring_of_cliques(4, 5);
        let mut plp = Plp::new();
        let (zeta, m) = run_measured(&mut plp, &g, "ring");
        assert_eq!(m.algorithm, "PLP");
        assert_eq!(m.instance, "ring");
        assert_eq!(m.communities, zeta.number_of_subsets());
        assert!(m.modularity > 0.5);
        assert!(m.time.as_nanos() > 0);
        // the measurement carries the structured report of the same run
        assert_eq!(m.report.algorithm, "PLP");
        assert!(m.report.counter("communities").is_some());
    }

    #[test]
    fn registries_are_populated() {
        assert_eq!(our_algorithms().len(), 5);
        assert_eq!(competitor_algorithms().len(), 6);
    }

    #[test]
    fn edges_per_second_sane() {
        let eps = edges_per_second(1000, Duration::from_millis(100));
        assert!((eps - 10_000.0).abs() < 1.0);
    }
}
