//! Table I — overview of the benchmark instances (n, m, max degree,
//! connected components, average local clustering coefficient), plus the
//! Table II platform substitution note.

use parcom_bench::harness::print_table;
use parcom_bench::standard_suite;
use parcom_graph::assortativity::degree_assortativity;
use parcom_graph::stats::summarize;

fn main() {
    println!("Table II (platform substitution): paper used 2x8-core Xeon E5-2680, 256 GB RAM.");
    println!(
        "This run: {} hardware threads available (see DESIGN.md §2.2).",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    let mut rows = Vec::new();
    for inst in standard_suite() {
        let (g, truth) = inst.build();
        let s = summarize(&g);
        rows.push(vec![
            inst.name.to_string(),
            inst.paper_counterpart.to_string(),
            s.nodes.to_string(),
            s.edges.to_string(),
            s.max_degree.to_string(),
            s.components.to_string(),
            format!("{:.3}", s.avg_lcc),
            degree_assortativity(&g).map_or("-".into(), |r| format!("{r:+.2}")),
            truth.map_or("-".into(), |t| t.number_of_subsets().to_string()),
        ]);
    }
    print_table(
        "Table I: instance overview (stand-ins for the paper's corpus)",
        &[
            "network",
            "stands for",
            "n",
            "m",
            "max.d.",
            "comp.",
            "LCC",
            "assort.",
            "truth-k",
        ],
        &rows,
    );
}
