//! Integration tests of the CLI subcommands, exercising the full
//! generate → detect → compare → community-graph workflow through
//! temporary files.

use parcom_cli::args::Args;
use parcom_cli::commands;

fn args(words: &[&str]) -> Args {
    Args::parse(&words.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("parcom_cli_test_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn generate_then_detect_then_compare() {
    let dir = tmp_dir("full");
    let graph = dir.join("g.metis");
    let truth = dir.join("truth.part");
    let detected = dir.join("plm.part");

    commands::generate(&args(&[
        "generate",
        "--model",
        "cliques",
        "--k",
        "8",
        "--size",
        "10",
        "--out",
        graph.to_str().unwrap(),
        "--truth",
        truth.to_str().unwrap(),
    ]))
    .unwrap();
    assert!(graph.exists() && truth.exists());

    commands::detect(&args(&[
        "detect",
        "--input",
        graph.to_str().unwrap(),
        "--algo",
        "plm",
        "--out",
        detected.to_str().unwrap(),
    ]))
    .unwrap();
    assert!(detected.exists());

    commands::compare(&args(&[
        "compare",
        "--a",
        detected.to_str().unwrap(),
        "--b",
        truth.to_str().unwrap(),
    ]))
    .unwrap();

    // the detected partition should match the planted cliques exactly
    let a = parcom_io::read_partition(&detected).unwrap();
    let b = parcom_io::read_partition(&truth).unwrap();
    assert_eq!(
        parcom_core::compare::jaccard_index(&a, &b),
        1.0,
        "PLM failed to recover planted cliques via CLI"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_and_community_graph() {
    let dir = tmp_dir("stats");
    let graph = dir.join("g.metis");
    let part = dir.join("z.part");
    let dot = dir.join("cg.dot");

    commands::generate(&args(&[
        "generate",
        "--model",
        "lfr",
        "--n",
        "500",
        "--mu",
        "0.2",
        "--out",
        graph.to_str().unwrap(),
    ]))
    .unwrap();
    commands::stats(&args(&["stats", "--input", graph.to_str().unwrap()])).unwrap();
    commands::detect(&args(&[
        "detect",
        "--input",
        graph.to_str().unwrap(),
        "--algo",
        "plp",
        "--out",
        part.to_str().unwrap(),
    ]))
    .unwrap();
    commands::community_graph(&args(&[
        "cg",
        "--input",
        graph.to_str().unwrap(),
        "--partition",
        part.to_str().unwrap(),
        "--out",
        dot.to_str().unwrap(),
    ]))
    .unwrap();
    let dot_text = std::fs::read_to_string(&dot).unwrap();
    assert!(dot_text.starts_with("graph"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_algorithm_flag_resolves() {
    let dir = tmp_dir("algos");
    let graph = dir.join("g.metis");
    commands::generate(&args(&[
        "generate",
        "--model",
        "cliques",
        "--k",
        "4",
        "--size",
        "6",
        "--out",
        graph.to_str().unwrap(),
    ]))
    .unwrap();
    // drive the sweep off the registry so new algorithms are covered
    // automatically, passing each algorithm exactly the knobs its spec
    // accepts (inapplicable knobs are a validation error now)
    for info in parcom_core::spec::REGISTRY {
        let mut argv = vec![
            "detect".to_string(),
            "--input".into(),
            graph.to_str().unwrap().into(),
            "--algo".into(),
            info.name.into(),
        ];
        if info.accepts(parcom_core::spec::Knob::Ensemble) {
            argv.extend(["--ensemble".to_string(), "2".into()]);
        }
        if info.accepts(parcom_core::spec::Knob::Gamma) {
            argv.extend(["--gamma".to_string(), "1.0".into()]);
        }
        let argv: Vec<&str> = argv.iter().map(String::as_str).collect();
        commands::detect(&args(&argv)).unwrap_or_else(|e| panic!("algo {} failed: {e}", info.name));
    }
    // an inapplicable knob is rejected with a message naming the accepted ones
    let err = commands::detect(&args(&[
        "detect",
        "--input",
        graph.to_str().unwrap(),
        "--algo",
        "plp",
        "--ensemble",
        "2",
    ]))
    .unwrap_err();
    assert!(err.to_string().contains("accepts no knob"), "{err}");
    // an unknown algorithm enumerates the registry
    let err = commands::detect(&args(&[
        "detect",
        "--input",
        graph.to_str().unwrap(),
        "--algo",
        "florp",
    ]))
    .unwrap_err();
    for info in parcom_core::spec::REGISTRY {
        assert!(err.to_string().contains(info.name), "{err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn errors_are_reported_not_panics() {
    assert!(commands::detect(&args(&[
        "detect",
        "--input",
        "/nonexistent",
        "--algo",
        "plm"
    ]))
    .is_err());
    assert!(commands::detect(&args(&["detect"])).is_err());
    let dir = tmp_dir("err");
    let graph = dir.join("g.metis");
    commands::generate(&args(&[
        "generate",
        "--model",
        "cliques",
        "--k",
        "2",
        "--size",
        "3",
        "--out",
        graph.to_str().unwrap(),
    ]))
    .unwrap();
    assert!(commands::detect(&args(&[
        "detect",
        "--input",
        graph.to_str().unwrap(),
        "--algo",
        "bogus"
    ]))
    .is_err());
    assert!(
        commands::generate(&args(&["generate", "--model", "bogus", "--out", "/tmp/x"])).is_err()
    );
    // node 3's line omits node 1: refused at node 1's line, never built
    let asymmetric = dir.join("asym.metis");
    std::fs::write(&asymmetric, "3 2\n2 3\n1\n\n").unwrap();
    let err = commands::detect(&args(&[
        "detect",
        "--input",
        asymmetric.to_str().unwrap(),
        "--algo",
        "plp",
    ]))
    .unwrap_err()
    .to_string();
    assert!(
        err.ends_with("asym.metis:2: asymmetric edge {1, 3}: 1 → 3 has weight 1, 3 → 1 is missing"),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A flag a command does not read is an error naming the ones it does,
/// raised before the command writes, loads or binds anything.
#[test]
fn every_command_refuses_a_flag_it_does_not_read() {
    let dir = tmp_dir("unknown_flags");
    let graph = dir.join("g.metis");
    let (graph, part) = (graph.to_str().unwrap(), dir.join("z.part"));
    let out = dir.join("out");
    let out = out.to_str().unwrap();
    commands::generate(&args(&[
        "generate",
        "--model",
        "cliques",
        "--k",
        "2",
        "--size",
        "3",
        "--out",
        graph,
        "--truth",
        part.to_str().unwrap(),
    ]))
    .unwrap();
    let part = part.to_str().unwrap();
    type Command = fn(&Args) -> Result<(), Box<dyn std::error::Error>>;
    let cases: [(&[&str], Command, &str); 7] = [
        (
            &["generate", "--model", "grid", "--seed", "3", "--out", out],
            commands::generate,
            "`generate` accepts no flag `--seed` (accepted: --model, --out, --truth, --width, --height)",
        ),
        (
            &["detect", "--input", graph, "--algo", "plm", "--relabel"],
            commands::detect,
            "algorithm `plm` accepts no knob `relabel`",
        ),
        (
            &["convert", "--input", graph, "--out", out, "--relabel"],
            commands::convert,
            "`convert` accepts no flag `--relabel` (accepted: --input, --out)",
        ),
        (
            &["stats", "--input", graph, "--threads", "2"],
            commands::stats,
            "`stats` accepts no flag `--threads` (accepted: --input)",
        ),
        (
            &["compare", "--a", part, "--b", part, "--out", out],
            commands::compare,
            "`compare` accepts no flag `--out` (accepted: --a, --b)",
        ),
        (
            &["cg", "--input", graph, "--partition", part, "--out", out, "--seed", "1"],
            commands::community_graph,
            "`cg` accepts no flag `--seed` (accepted: --input, --partition, --out)",
        ),
        (
            &["serve", "--socket", out, "--threads", "2"],
            commands::serve,
            "`serve` accepts no flag `--threads` (accepted: --socket, --listen, --max-nodes, \
             --max-edges, --state-dir, --fsync, --max-detects)",
        ),
    ];
    for (words, command, message) in cases {
        let err = command(&args(words)).unwrap_err().to_string();
        assert!(err.contains(message), "{words:?}: {err}");
        assert!(!std::path::Path::new(out).exists(), "{words:?} wrote {out}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn generate_all_models() {
    let dir = tmp_dir("models");
    for (model, extra) in [
        ("lfr", vec!["--n", "300", "--mu", "0.2"]),
        ("rmat", vec!["--scale", "8", "--edge-factor", "4"]),
        ("ba", vec!["--n", "300", "--attach", "2"]),
        ("ws", vec!["--n", "300", "--k", "2", "--beta", "0.1"]),
        ("er", vec!["--n", "300", "--p", "0.02"]),
        ("grid", vec!["--width", "10", "--height", "12"]),
        ("planted", vec!["--n", "300", "--k", "5"]),
        ("cliques", vec!["--k", "5", "--size", "5"]),
    ] {
        let out = dir.join(format!("{model}.metis"));
        let mut words = vec!["generate", "--model", model, "--out", out.to_str().unwrap()];
        words.extend(extra.iter());
        commands::generate(&args(&words)).unwrap_or_else(|e| panic!("{model} failed: {e}"));
        assert!(out.exists(), "{model}: no output written");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn usage_lists_the_knob_flags_and_a_retired_move_value_exits_1() {
    let parcom = |argv: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_parcom"))
            .args(argv)
            .output()
            .unwrap()
    };
    let usage = String::from_utf8(parcom(&["help"]).stderr).unwrap();
    assert!(usage.contains("[--move racy|coloring]"), "{usage}");
    assert!(!usage.contains("randomized"), "{usage}");

    let dir = tmp_dir("move");
    let graph = dir.join("g.metis");
    commands::generate(&args(&[
        "generate",
        "--model",
        "cliques",
        "--k",
        "2",
        "--size",
        "3",
        "--out",
        graph.to_str().unwrap(),
    ]))
    .unwrap();
    let input = graph.to_str().unwrap();
    let out = parcom(&[
        "detect", "--input", input, "--algo", "plm", "--move", "sync",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("bad value for `move`: expected one of racy|coloring, got `sync`"),
        "{stderr}"
    );
    // a retired knob flag is an unknown knob, not a silently ignored flag
    let out = parcom(&["detect", "--input", input, "--algo", "plp", "--randomized"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("algorithm `plp` accepts no knob `randomized` (accepted: seed)"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_reported_summary_reads_gamma_one_figures_off_the_runs_aggregates() {
    let dir = tmp_dir("summary");
    let (graph, part) = (dir.join("g.metis"), dir.join("z.part"));
    commands::generate(&args(&[
        "generate",
        "--model",
        "lfr",
        "--n",
        "400",
        "--out",
        graph.to_str().unwrap(),
    ]))
    .unwrap();
    // a budget makes the run guarded and reported; γ = 0.5 is what the
    // detector optimises, the summary still speaks of γ = 1
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_parcom"))
        .args([
            "detect",
            "--input",
            graph.to_str().unwrap(),
            "--algo",
            "plm",
        ])
        .args(["--gamma", "0.5", "--max-sweeps", "1000", "--threads", "1"])
        .args(["--out", part.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let summary = stdout.lines().next().unwrap();

    let g = parcom_io::load_graph_auto(
        graph.to_str().unwrap(),
        &parcom_obs::Recorder::disabled(),
        &parcom_core::Budget::unlimited(),
    )
    .unwrap()
    .graph;
    let zeta = parcom_io::read_partition(part.to_str().unwrap()).unwrap();
    let (q, cov) = parcom_core::quality::modularity_and_coverage(&g, &zeta);
    let want = format!(
        "-> {} communities, modularity {q:.4}, coverage {cov:.4},",
        zeta.number_of_subsets()
    );
    assert!(summary.contains(&want), "{summary} vs {want}");
    let at_half = parcom_core::quality::modularity_gamma(&g, &zeta, 0.5);
    assert!(
        !summary.contains(&format!("modularity {at_half:.4}")),
        "{summary}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
