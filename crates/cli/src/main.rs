//! `parcom` — command-line front-end for the library.
//!
//! The paper ships its algorithms inside NetworKit, whose Python layer
//! supports interactive analysis workflows; this binary is the equivalent
//! scriptable entry point:
//!
//! ```text
//! parcom generate --model lfr --n 10000 --mu 0.3 --out g.metis [--truth t.part]
//! parcom detect   --input g.metis --algo plm [--out z.part] [--threads 4] [--seed 1] [--report json]
//! parcom stats    --input g.metis
//! parcom compare  --a z.part --b t.part
//! parcom cg       --input g.metis --partition z.part --out communities.dot
//! ```

use parcom_cli::{args::Args, commands};
use parcom_core::spec::{Knob, REGISTRY};
use parcom_core::MoveStrategy;

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() || raw[0] == "--help" || raw[0] == "help" {
        print_usage();
        return;
    }
    let parsed = match Args::parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            print_usage();
            std::process::exit(2);
        }
    };
    let result = match parsed.command.as_str() {
        "generate" => commands::generate(&parsed),
        "detect" => commands::detect(&parsed),
        "stats" => commands::stats(&parsed),
        "compare" => commands::compare(&parsed),
        "convert" => commands::convert(&parsed),
        "cg" => commands::community_graph(&parsed),
        "serve" => commands::serve(&parsed),
        other => {
            eprintln!("error: unknown command `{other}`");
            print_usage();
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

/// `[--flag VALUE]` for every knob some registered algorithm accepts, in
/// registry order. The `match` is exhaustive, so a new [`Knob`] or move
/// strategy shows up here or fails to compile.
fn knob_flags() -> String {
    let mut knobs: Vec<Knob> = Vec::new();
    for &knob in REGISTRY.iter().flat_map(|info| info.knobs) {
        if !knobs.contains(&knob) {
            knobs.push(knob);
        }
    }
    let flags: Vec<String> = knobs
        .iter()
        .map(|knob| match knob {
            Knob::Ensemble => format!("[--{} B]", knob.name()),
            Knob::Gamma => format!("[--{} X]", knob.name()),
            Knob::Move => format!("[--{} {}]", knob.name(), MoveStrategy::wire_list()),
        })
        .collect();
    flags.join(" ")
}

fn print_usage() {
    // the algorithm list and the knob flags come from the DetectorSpec
    // registry, so the help text can never drift from what `detect` accepts
    eprintln!(
        "parcom — parallel community detection\n\
         \n\
         commands:\n\
         \x20 generate --model <lfr|rmat|ba|ws|er|grid|planted|cliques> --out FILE [model flags] [--truth FILE]\n\
         \x20 detect   --input FILE --algo <{algos}>\n\
         \x20          [--out FILE] [--threads N] [--seed S] [--report json]\n\
         \x20          {knobs}\n\
         \x20          [--timeout SECS] [--max-sweeps N] [--max-nodes N] [--max-edges M]\n\
         \x20 convert  --input FILE --out FILE.pcg\n\
         \x20 stats    --input FILE\n\
         \x20 compare  --a PARTITION --b PARTITION\n\
         \x20 cg       --input FILE --partition FILE --out FILE.dot\n\
         \x20 serve    [--socket PATH] [--listen ADDR] [--max-nodes N] [--max-edges M]\n\
         \x20          [--state-dir DIR] [--fsync always|never] [--max-detects N]\n\
         \n\
         graph files: .pcg (parcom binary, sniffed by magic), .metis/.graph (METIS),\n\
         anything else (edge list). `convert` writes .pcg for instant reopen.\n\
         A command refuses a flag it does not read, naming the ones it does.",
        algos = parcom_core::spec::algorithm_list(),
        knobs = knob_flags(),
    );
}
