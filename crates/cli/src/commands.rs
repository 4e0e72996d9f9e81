//! Implementations of the CLI subcommands.

use crate::args::Args;
use parcom_core::{compare, quality, Budget, CommunityDetector, CommunityGraph, DetectorSpec};
use parcom_graph::stats::summarize;
use parcom_graph::{Graph, Partition};
use std::error::Error;

type CmdResult = Result<(), Box<dyn Error>>;

/// Writes one line of command output to stdout. `println!` panics when
/// stdout is a pipe whose reader has left (`parcom detect … | head -1`);
/// here a closed pipe only ends the output — the command still finishes
/// its work (e.g. writes `--out`) and exits 0.
fn say_line(line: std::fmt::Arguments<'_>) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::stdout().lock();
    match out.write_fmt(line).and_then(|()| out.write_all(b"\n")) {
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
        other => other,
    }
}

/// `println!` for command output, through [`say_line`].
macro_rules! say {
    ($($arg:tt)*) => {
        say_line(format_args!($($arg)*))?
    };
}

/// Reads a graph through [`parcom_io::load_graph_auto`], the loader shared
/// with `parcom-serve`: magic first (`.pcg` binary), extension second
/// (`.metis`/`.graph`/`.pcg` = METIS text, everything else = edge list).
fn load_graph(path: &str) -> Result<Graph, parcom_io::IoError> {
    let recorder = parcom_obs::Recorder::disabled();
    Ok(parcom_io::load_graph_auto(path, &recorder, &Budget::unlimited())?.graph)
}

/// The flags `parcom detect` reads itself; every other flag is a knob.
const DETECT_FLAGS: &[&str] = &[
    "input",
    "algo",
    "out",
    "threads",
    "report",
    "timeout",
    "max-sweeps",
    "max-nodes",
    "max-edges",
];

/// Builds the requested algorithm through the [`DetectorSpec`] registry —
/// the single construction path shared with `parcom-serve`. Every flag
/// outside [`DETECT_FLAGS`] goes to [`DetectorSpec::set_knob`], the parser
/// of the string and JSON wire forms: an unknown `--algo` errors with the
/// full list of registered names, and a flag the algorithm does not accept
/// (e.g. `--gamma` on `plp`, or a retired knob) errors with the knobs it
/// does. `--seed` defaults to 1 and is applied uniformly through
/// [`CommunityDetector::set_seed`]; algorithms without randomized state
/// ignore it.
fn make_algorithm(args: &Args) -> Result<Box<dyn CommunityDetector + Send>, Box<dyn Error>> {
    let mut spec = DetectorSpec::new(args.require("algo")?)?;
    spec.set_knob("seed", "1")?;
    for (key, raw) in args.flags().filter(|(key, _)| !DETECT_FLAGS.contains(key)) {
        spec.set_knob(key, raw)?;
    }
    Ok(spec.build()?)
}

/// `parcom generate`: each model accepts `--model`, `--out`, `--truth`
/// and the flags it reads.
pub fn generate(args: &Args) -> CmdResult {
    use parcom_generators as gen;
    let model = args.require("model")?;
    let model_flags: &[&str] = match model {
        "lfr" => &["seed", "n", "mu"],
        "rmat" => &["seed", "scale", "edge-factor"],
        "ba" => &["seed", "n", "attach"],
        "ws" => &["seed", "n", "k", "beta"],
        "er" => &["seed", "n", "p"],
        "grid" => &["width", "height"],
        "planted" => &["seed", "n", "k", "p-in", "p-out"],
        "cliques" => &["k", "size"],
        other => return Err(format!("unknown model `{other}`").into()),
    };
    args.only(&[&["model", "out", "truth"], model_flags].concat())?;
    let out = args.require("out")?;
    let seed: u64 = args.get_or("seed", 1)?;
    let n: usize = args.get_or("n", 10_000)?;
    let (g, truth): (Graph, Option<Partition>) = match model {
        "lfr" => {
            let mu: f64 = args.get_or("mu", 0.3)?;
            let (g, t) = gen::lfr(gen::LfrParams::benchmark(n, mu), seed);
            (g, Some(t))
        }
        "rmat" => {
            let scale: u32 = args.get_or("scale", 14)?;
            let ef: usize = args.get_or("edge-factor", 16)?;
            (
                gen::rmat(gen::RmatParams::paper_with_edge_factor(scale, ef), seed),
                None,
            )
        }
        "ba" => {
            let attach: usize = args.get_or("attach", 2)?;
            (gen::barabasi_albert(n, attach, seed), None)
        }
        "ws" => {
            let k: usize = args.get_or("k", 2)?;
            let beta: f64 = args.get_or("beta", 0.05)?;
            (gen::watts_strogatz(n, k, beta, seed), None)
        }
        "er" => {
            let p: f64 = args.get_or("p", 0.001)?;
            (gen::erdos_renyi(n, p, seed), None)
        }
        "grid" => {
            let w: usize = args.get_or("width", 100)?;
            let h: usize = args.get_or("height", 100)?;
            (gen::grid2d(w, h), None)
        }
        "planted" => {
            let k: usize = args.get_or("k", 10)?;
            let p_in: f64 = args.get_or("p-in", 0.05)?;
            let p_out: f64 = args.get_or("p-out", 0.002)?;
            let (g, t) =
                gen::planted_partition(gen::PlantedPartitionParams { n, k, p_in, p_out }, seed);
            (g, Some(t))
        }
        "cliques" => {
            let k: usize = args.get_or("k", 10)?;
            let s: usize = args.get_or("size", 10)?;
            let (g, t) = gen::ring_of_cliques(k, s);
            (g, Some(t))
        }
        _ => unreachable!("the model was matched above"),
    };
    parcom_io::write_metis(&g, out)?;
    say!("wrote {out}: n={}, m={}", g.node_count(), g.edge_count());
    if let Some(truth_path) = args.get("truth") {
        match truth {
            Some(t) => {
                parcom_io::write_partition(&t, truth_path)?;
                say!(
                    "wrote ground truth ({} communities) to {truth_path}",
                    t.number_of_subsets()
                );
            }
            None => eprintln!("note: model has no ground truth; --truth ignored"),
        }
    }
    Ok(())
}

/// `parcom detect`
pub fn detect(args: &Args) -> CmdResult {
    let input = args.require("input")?;
    let report_json = match args.get("report") {
        None => false,
        Some("json") => true,
        Some(other) => {
            return Err(format!("unknown report format `{other}` (supported: json)").into())
        }
    };
    // ingest limits apply while loading (METIS headers are rejected
    // before allocation); the run budget is assembled after the load so a
    // `--timeout` deadline covers detection only
    let max_nodes: usize = args.get_or("max-nodes", 0)?;
    let max_edges: usize = args.get_or("max-edges", 0)?;
    let limited = max_nodes > 0 || max_edges > 0;
    let make_limits = || {
        if limited {
            Budget::unlimited().with_input_limits(
                if max_nodes > 0 { max_nodes } else { usize::MAX },
                if max_edges > 0 { max_edges } else { usize::MAX },
            )
        } else {
            Budget::unlimited()
        }
    };

    // with --report, graph ingest is instrumented too: its phases
    // (`ingest/read`, `ingest/parse`, `ingest/build`) are prepended to the
    // run report
    let ingest_rec = if report_json {
        parcom_obs::Recorder::enabled()
    } else {
        parcom_obs::Recorder::disabled()
    };
    let g = parcom_io::load_graph_auto(input, &ingest_rec, &make_limits())?.graph;
    let mut algo = make_algorithm(args)?;
    let threads: usize = args.get_or("threads", 0)?;

    let timeout: f64 = args.get_or("timeout", 0.0)?;
    let max_sweeps: u64 = args.get_or("max-sweeps", 0)?;
    let reported = timeout > 0.0 || max_sweeps > 0 || report_json;
    let mut budget = make_limits();
    if timeout > 0.0 {
        budget = budget.with_deadline(std::time::Duration::from_secs_f64(timeout));
    }
    if max_sweeps > 0 {
        budget = budget.with_max_sweeps(max_sweeps);
    }

    // with --timeout/--max-sweeps/--report the run is guarded and reported
    // (an unlimited budget converges); without any, detect() keeps the
    // zero-overhead path
    let run = |algo: &mut Box<dyn CommunityDetector + Send>| {
        let start = std::time::Instant::now();
        let (zeta, report, termination, aggregates) = if reported {
            let r = algo.detect_guarded(&g, &budget);
            let zeta = std::sync::Arc::unwrap_or_clone(r.partition);
            (zeta, r.report, Some(r.termination), r.aggregates)
        } else {
            (
                algo.detect(&g),
                parcom_obs::RunReport::default(),
                None,
                None,
            )
        };
        (zeta, report, termination, aggregates, start.elapsed())
    };
    let (zeta, mut report, termination, aggregates, elapsed) = if threads > 0 {
        parcom_graph::parallel::with_threads(threads, || run(&mut algo))
    } else {
        run(&mut algo)
    };
    if report_json {
        let ingest = ingest_rec.finish("ingest");
        report.phases.splice(0..0, ingest.phases);
    }

    let termination_note = match termination {
        Some(t) if t.interrupted() => match report.cut_phase.as_deref() {
            Some(phase) => format!(", terminated early ({t}, in {phase})"),
            None => format!(", terminated early ({t})"),
        },
        _ => String::new(),
    };
    // A reported run hands out the aggregates its report read Q off (they
    // do not depend on γ): the summary's γ = 1 figures cost O(k), not a
    // second scan. The plain path scans once.
    let (modularity, coverage, communities) = match &aggregates {
        Some(agg) => {
            let total = g.total_edge_weight();
            (agg.modularity(total, 1.0), agg.coverage(total), agg.len())
        }
        None => {
            let (modularity, coverage) = quality::modularity_and_coverage(&g, &zeta);
            (modularity, coverage, zeta.number_of_subsets())
        }
    };
    let summary = format!(
        "{} on {input}: n={} m={} -> {communities} communities, modularity {:.4}, coverage {:.4}, {:.3}s ({:.1}M edges/s){termination_note}",
        algo.name(),
        g.node_count(),
        g.edge_count(),
        modularity,
        coverage,
        elapsed.as_secs_f64(),
        g.edge_count() as f64 / elapsed.as_secs_f64().max(1e-12) / 1e6,
    );
    if report_json {
        // stdout carries exactly one JSON object; the human summary moves
        // to stderr so the output stays pipeable
        eprintln!("{summary}");
        say!("{}", report.to_json());
    } else {
        say!("{summary}");
    }
    if let Some(out) = args.get("out") {
        parcom_io::write_partition(&zeta, out)?;
        if report_json {
            eprintln!("wrote partition to {out}");
        } else {
            say!("wrote partition to {out}");
        }
    }
    Ok(())
}

/// `parcom convert` — write a graph in the `parcom-graph-bin/v1` binary
/// format (`.pcg`). Reopening the output skips parsing and CSR assembly
/// entirely (DESIGN.md §15).
pub fn convert(args: &Args) -> CmdResult {
    args.only(&["input", "out"])?;
    let input = args.require("input")?;
    let out = args.require("out")?;
    let g = load_graph(input)?;
    parcom_io::write_pcg(&g, None, out)?;
    let bytes = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
    say!(
        "wrote {out}: n={} m={} ({bytes} bytes)",
        g.node_count(),
        g.edge_count()
    );
    Ok(())
}

/// `parcom stats`
pub fn stats(args: &Args) -> CmdResult {
    args.only(&["input"])?;
    let input = args.require("input")?;
    let g = load_graph(input)?;
    let s = summarize(&g);
    say!("graph {input}");
    say!("  nodes:       {}", s.nodes);
    say!("  edges:       {}", s.edges);
    say!("  max degree:  {}", s.max_degree);
    say!("  components:  {}", s.components);
    say!("  avg LCC:     {:.4}", s.avg_lcc);
    say!(
        "  avg degree:  {:.2}",
        parcom_graph::stats::average_degree(&g)
    );
    match parcom_graph::assortativity::degree_assortativity(&g) {
        Some(r) => say!("  assortativity: {r:+.3}"),
        None => say!("  assortativity: undefined"),
    }
    Ok(())
}

/// `parcom compare`
pub fn compare(args: &Args) -> CmdResult {
    args.only(&["a", "b"])?;
    let a = parcom_io::read_partition(args.require("a")?)?;
    let b = parcom_io::read_partition(args.require("b")?)?;
    if a.len() != b.len() {
        return Err(format!(
            "partitions cover different node sets ({} vs {})",
            a.len(),
            b.len()
        )
        .into());
    }
    say!("jaccard index:  {:.4}", compare::jaccard_index(&a, &b));
    say!("rand index:     {:.4}", compare::rand_index(&a, &b));
    say!(
        "adjusted rand:  {:.4}",
        compare::adjusted_rand_index(&a, &b)
    );
    say!("NMI:            {:.4}", compare::nmi(&a, &b));
    Ok(())
}

/// `parcom serve` — run the resident clustering daemon (parcom-serve).
///
/// Listens on `--socket PATH` (Unix domain) and/or `--listen ADDR` (TCP),
/// holding loaded graphs in memory across requests; `--max-nodes` /
/// `--max-edges` bound what `PUT /graphs/{name}` will admit. Runs until
/// killed.
pub fn serve(args: &Args) -> CmdResult {
    args.only(&[
        "socket",
        "listen",
        "max-nodes",
        "max-edges",
        "state-dir",
        "fsync",
        "max-detects",
    ])?;
    let max_nodes: usize = args.get_or("max-nodes", 0)?;
    let max_edges: usize = args.get_or("max-edges", 0)?;
    let fsync = match args.get("fsync") {
        Some(value) => parcom_serve::wal::FsyncPolicy::from_flag(value)?,
        None => parcom_serve::wal::FsyncPolicy::Always,
    };
    let config = parcom_serve::ServeConfig {
        socket: args.get("socket").map(std::path::PathBuf::from),
        addr: args.get("listen").map(String::from),
        max_nodes: if max_nodes > 0 { max_nodes } else { usize::MAX },
        max_edges: if max_edges > 0 { max_edges } else { usize::MAX },
        state_dir: args.get("state-dir").map(std::path::PathBuf::from),
        fsync,
        max_detects: args.get_or("max-detects", parcom_serve::DEFAULT_MAX_DETECTS)?,
    };
    let server = parcom_serve::Server::bind(config)?;
    match (args.get("socket"), args.get("listen")) {
        (Some(path), Some(addr)) => eprintln!("parcom-serve listening on {path} and {addr}"),
        (Some(path), None) => eprintln!("parcom-serve listening on {path}"),
        (None, Some(addr)) => eprintln!("parcom-serve listening on {addr}"),
        (None, None) => {}
    }
    if let Some(dir) = args.get("state-dir") {
        eprintln!(
            "parcom-serve durable state in {dir} (fsync {})",
            fsync.as_str()
        );
    }
    server.run()?;
    Ok(())
}

/// `parcom cg` — export the community graph as DOT.
pub fn community_graph(args: &Args) -> CmdResult {
    args.only(&["input", "partition", "out"])?;
    let g = load_graph(args.require("input")?)?;
    let zeta = parcom_io::read_partition(args.require("partition")?)?;
    if zeta.len() != g.node_count() {
        return Err("partition does not cover the graph".into());
    }
    let out = args.require("out")?;
    let cg = CommunityGraph::build(&g, &zeta);
    parcom_io::write_community_graph_dot(&cg, "communities", out)?;
    say!(
        "wrote community graph ({} communities, largest {}) to {out}",
        cg.community_count(),
        cg.max_community_size()
    );
    Ok(())
}
