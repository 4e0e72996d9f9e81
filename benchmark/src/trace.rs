//! The traced half: the same workload, re-run with a stopwatch span around
//! each call into a layer's public functions (layers = this repo's
//! crates). Spans live here, in the benchmark's own files; tracing inside
//! the program is a later change. README.md lists every symbol bound here
//! — later changes keep those source-compatible or leave a forwarding fn.
//!
//! A layer metric is the layer's time (or count) *on this workload*; a
//! layer the workload never enters reads 0. Times here are raw wall time,
//! not speed-normalised: they are compared with each other within one run.

use crate::e2e::{self, Env, Instance, Plan};
use crate::stats::median;
use crate::verify::Shadow;
use crate::workloads::{Kind, Model, Workload};
use parcom_core::{quality, Budget, CommunityDetector, DetectorSpec};
use parcom_graph::parallel::with_threads;
use parcom_graph::{coarsen, Coloring, Graph, GraphBuilder, Partition, Relabeling};
use parcom_io::{load_graph_auto, write_partition, write_pcg};
use parcom_obs::json::{self, Value};
use parcom_obs::{Recorder, RunReport};
use parcom_serve::store::{EdgeOp, GraphEntry};
use parcom_serve::wal::{FsyncPolicy, WalWriter};
use rayon::prelude::*;
use std::hint::black_box;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
pub const LAYER_METRICS: [(&str, &str); 54] = [
    ("generators.gen_ms", "ms"),
    ("cli.spawn_floor_ms", "ms"),
    ("cli.residual_ms", "ms"),
    ("io.load_ms", "ms"),
    ("io.metis_mb_per_s", "MB/s"),
    ("io.pcg_reopen_ms", "ms"),
    ("io.pcg_write_ms", "ms"),
    ("io.pcg_bytes", "count"),
    ("io.partition_write_ms", "ms"),
    ("graph.csr_build_ms", "ms"),
    ("graph.coarsen_ms", "ms"),
    ("graph.csr_bytes", "count"),
    ("graph.relabel_ms", "ms"),
    ("graph.coloring_ms", "ms"),
    ("core.detect_ms", "ms"),
    ("core.detect_relabeled_ms", "ms"),
    ("core.move_ms", "ms"),
    ("core.coarsen_ms", "ms"),
    ("core.plp_iter_ms", "ms"),
    ("core.sweeps", "count"),
    ("core.sweeps_min", "count"),
    ("core.sweeps_max", "count"),
    ("core.levels", "count"),
    ("core.moves", "count"),
    ("core.quality_ms", "ms"),
    ("core.speedup_tN", "x"),
    ("rayon.region_us", "us"),
    ("rayon.skew_efficiency", "ratio"),
    ("guard.check_ns", "ns"),
    ("obs.report_json_us", "us"),
    ("obs.json_parse_us", "us"),
    ("serve.http_floor_us", "us"),
    ("serve.put_ms", "ms"),
    ("serve.detect_rtt_ms", "ms"),
    ("serve.detect_report_ms", "ms"),
    ("serve.detect_overhead_ms", "ms"),
    ("serve.response_bytes", "count"),
    ("serve.edit_rtt_ms", "ms"),
    ("serve.fold_ms", "ms"),
    ("serve.rebuild_ms", "ms"),
    ("serve.wal_append_ms", "ms"),
    ("serve.wal_append_nosync_ms", "ms"),
    ("serve.wal_bytes_per_batch", "count"),
    ("serve.checkpoint_ms", "ms"),
    ("serve.recover_ms", "ms"),
    ("serve.recovered_ok", "count"),
    ("serve.shed_count", "count"),
    ("noise.steal_share", "ratio"),
    ("noise.disturbed_share", "ratio"),
    ("noise.trace_overhead_pct", "%"),
    ("noise.machine_speed", "ratio"),
    ("check.raw_op_p50_ms", "ms"),
    ("check.layer_sum_ms", "ms"),
    ("check.unattributed_pct", "%"),
];

/// The per-layer results of one traced run.
pub struct Layers(Vec<(&'static str, f64, &'static str)>);

impl Layers {
    fn new() -> Self {
        Self(
            LAYER_METRICS
                .iter()
                .map(|&(name, unit)| (name, 0.0, unit))
                .collect(),
        )
    }

    fn set(&mut self, name: &str, value: f64) {
        let slot = self.0.iter_mut().find(|m| m.0 == name);
        slot.unwrap_or_else(|| panic!("`{name}` is not in LAYER_METRICS"))
            .1 = value;
    }

    pub fn into_vec(self) -> Vec<(&'static str, f64, &'static str)> {
        self.0
    }
}

pub struct Traced {
    pub layers: Layers,
    pub attempted: usize,
    pub failures: Vec<String>,
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Times `f` once, in ms.
fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let r = f();
    (ms_since(start), r)
}

/// Median ms of `reps` runs of `f`.
fn median_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    median(&(0..reps).map(|_| timed(&mut f).0).collect::<Vec<_>>())
}

/// What the phase tree of a run report says about the core layer. Read
/// from the JSON form, which the in-process report and the daemon's
/// embedded one share.
#[derive(Default)]
struct ReportLayers {
    move_ms: f64,
    coarsen_ms: f64,
    plp_iter_ms: f64,
    sweeps: f64,
    levels: f64,
    moves: f64,
}

fn report_layers(report: &Value) -> ReportLayers {
    fn walk(phase: &Value, out: &mut ReportLayers) {
        let ms = phase
            .get("wall_seconds")
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
            * 1e3;
        let counter = |k: &str| {
            let counters = phase.get("counters");
            counters
                .and_then(|c| c.get(k))
                .and_then(Value::as_f64)
                .unwrap_or(0.0)
        };
        match phase.get("name").and_then(Value::as_str) {
            Some("move-phase") => {
                out.move_ms += ms;
                out.moves += counter("moves");
                let series = phase.get("series").and_then(|s| s.get("moves"));
                out.sweeps += series.and_then(Value::as_array).map_or(0, <[Value]>::len) as f64;
            }
            Some("coarsen") => out.coarsen_ms += ms,
            Some("label-propagation") => {
                let iterations = counter("iterations");
                out.plp_iter_ms = ms / iterations.max(1.0);
                out.sweeps += iterations;
                out.moves += counter("label-updates");
            }
            _ => {}
        }
        for child in phase
            .get("children")
            .and_then(Value::as_array)
            .unwrap_or(&[])
        {
            walk(child, out);
        }
    }
    let mut out = ReportLayers::default();
    for phase in report
        .get("phases")
        .and_then(Value::as_array)
        .unwrap_or(&[])
    {
        walk(phase, &mut out);
    }
    let levels = report.get("counters").and_then(|c| c.get("levels"));
    out.levels = levels.and_then(Value::as_f64).unwrap_or(0.0);
    out
}

/// Medians of the per-operation core-layer readings of the traced loop.
fn record_core(layers: &mut Layers, reports: &[ReportLayers]) {
    let series = |f: fn(&ReportLayers) -> f64| reports.iter().map(f).collect::<Vec<_>>();
    layers.set("core.move_ms", median(&series(|r| r.move_ms)));
    layers.set("core.coarsen_ms", median(&series(|r| r.coarsen_ms)));
    layers.set("core.plp_iter_ms", median(&series(|r| r.plp_iter_ms)));
    // the move phases race, so the sweep count is a distribution
    let sweeps = crate::stats::sorted(&series(|r| r.sweeps));
    layers.set("core.sweeps", median(&sweeps));
    layers.set("core.sweeps_min", sweeps.first().copied().unwrap_or(0.0));
    layers.set("core.sweeps_max", sweeps.last().copied().unwrap_or(0.0));
    layers.set("core.levels", median(&series(|r| r.levels)));
    layers.set("core.moves", median(&series(|r| r.moves)));
}

fn build_detector(spec: &str) -> Result<Box<dyn CommunityDetector + Send>, String> {
    let spec = DetectorSpec::parse(spec).map_err(|e| e.to_string())?;
    spec.build().map_err(|e| e.to_string())
}

/// One in-process replay of `parcom detect`: the calls `commands::detect`
/// makes, in its order. `traced` puts a stopwatch around each and takes the
/// run report; bare runs the same calls under one stopwatch.
struct Replay {
    load_ms: f64,
    detect_ms: f64,
    quality_ms: f64,
    write_ms: f64,
    total_ms: f64,
    report: Option<RunReport>,
    graph: Graph,
    zeta: Partition,
}

fn replay(
    input: &Path,
    spec: &str,
    threads: usize,
    out: &Path,
    traced: bool,
) -> Result<Replay, String> {
    let start = Instant::now();
    let (load_ms, loaded) =
        timed(|| load_graph_auto(input, &Recorder::disabled(), &Budget::unlimited()));
    let graph = loaded.map_err(|e| e.to_string())?.graph;
    let (detect_ms, detected) = timed(|| {
        let mut detector = build_detector(spec)?;
        Ok::<_, String>(with_threads(threads, || {
            if traced {
                let (zeta, report) = detector.detect_with_report(&graph);
                (zeta, Some(report))
            } else {
                (detector.detect(&graph), None)
            }
        }))
    });
    let (zeta, report) = detected?;
    let (quality_ms, _) = timed(|| {
        black_box((
            zeta.number_of_subsets(),
            quality::modularity(&graph, &zeta),
            quality::coverage(&graph, &zeta),
        ))
    });
    let (write_ms, written) = timed(|| write_partition(&zeta, out));
    written.map_err(|e| e.to_string())?;
    Ok(Replay {
        load_ms,
        detect_ms,
        quality_ms,
        write_ms,
        total_ms: ms_since(start),
        report,
        graph,
        zeta,
    })
}

fn generate_in_process(model: Model, seed: u64) -> Graph {
    use parcom_generators::{lfr, rmat, LfrParams, RmatParams};
    match model {
        Model::Lfr { n } => lfr(LfrParams::benchmark(n, 0.3), seed).0,
        Model::Rmat { scale } => rmat(RmatParams::paper_with_edge_factor(scale, 16), seed),
    }
}

fn csr_bytes(g: &Graph) -> usize {
    let v = g.csr_view();
    std::mem::size_of_val(v.offsets)
        + std::mem::size_of_val(v.targets)
        + std::mem::size_of_val(v.weights)
        + std::mem::size_of_val(v.weighted_degrees)
        + std::mem::size_of_val(v.self_loops)
}

/// Layer probes that need only the workload's graph, not its pipeline.
fn graph_probes(layers: &mut Layers, g: &Graph, threads: usize, dir: &Path) -> Result<(), String> {
    layers.set("graph.csr_bytes", csr_bytes(g) as f64);
    let edges = g.par_collect_edges();
    layers.set(
        "graph.csr_build_ms",
        median_ms(3, || {
            let mut builder = GraphBuilder::with_capacity(g.node_count(), edges.len());
            builder.extend_edges(edges.clone());
            black_box(builder.build())
        }),
    );

    let pcg = dir.join("probe.pcg");
    let mut write_ms = Vec::new();
    let mut reopen_ms = Vec::new();
    for _ in 0..3 {
        let (ms, written) = timed(|| write_pcg(g, None, &pcg));
        written.map_err(|e| e.to_string())?;
        write_ms.push(ms);
        let (ms, loaded) =
            timed(|| load_graph_auto(&pcg, &Recorder::disabled(), &Budget::unlimited()));
        loaded.map_err(|e| e.to_string())?;
        reopen_ms.push(ms);
    }
    layers.set("io.pcg_write_ms", median(&write_ms));
    layers.set("io.pcg_reopen_ms", median(&reopen_ms));
    let bytes = std::fs::metadata(&pcg).map_err(|e| e.to_string())?.len();
    layers.set("io.pcg_bytes", bytes as f64);

    // an empty parallel region: what entering the executor costs
    const REGIONS: usize = 10_000;
    let (ms, ()) = timed(|| {
        with_threads(threads, || {
            for _ in 0..REGIONS {
                (0..threads).into_par_iter().for_each(|i| {
                    black_box(i);
                });
            }
        })
    });
    layers.set("rayon.region_us", ms * 1e3 / REGIONS as f64);

    // degree-proportional work over the nodes: how well the executor's
    // splitting balances this graph's skew (1.0 = perfect)
    let spin = |u: u32| {
        let mut x = u64::from(u);
        for _ in 0..g.degree(u) * 32 {
            x = black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        black_box(x);
    };
    let serial = median_ms(3, || g.nodes().for_each(spin));
    let parallel = median_ms(3, || {
        with_threads(threads, || g.nodes().into_par_iter().for_each(spin))
    });
    layers.set(
        "rayon.skew_efficiency",
        serial / (threads as f64 * parallel.max(1e-9)),
    );

    const CHECKS: usize = 1_000_000;
    let budget = Budget::unlimited().with_deadline(Duration::from_secs(3600));
    let (ms, ()) = timed(|| {
        for _ in 0..CHECKS {
            black_box(black_box(&budget).check()).ok();
        }
    });
    layers.set("guard.check_ns", ms * 1e6 / CHECKS as f64);
    Ok(())
}

/// The paths ROADMAP item 5 must keep or delete: relabeling, detection on
/// the relabeled view, colouring. Not on any default path.
fn optional_path_probes(
    layers: &mut Layers,
    g: &Graph,
    spec: &str,
    threads: usize,
) -> Result<(), String> {
    let mut relabel_ms = Vec::new();
    let mut detect_ms = Vec::new();
    for _ in 0..3 {
        let (ms, relabeled) = timed(|| Relabeling::degree_ordered(g).apply(g));
        relabel_ms.push(ms);
        let mut detector = build_detector(spec)?;
        detect_ms
            .push(timed(|| with_threads(threads, || black_box(detector.detect(&relabeled)))).0);
    }
    layers.set("graph.relabel_ms", median(&relabel_ms));
    layers.set("core.detect_relabeled_ms", median(&detect_ms));
    layers.set(
        "graph.coloring_ms",
        median_ms(3, || {
            with_threads(threads, || black_box(Coloring::compute(g)))
        }),
    );
    Ok(())
}

/// Plain end-to-end operations, exactly as the untraced run makes them;
/// the traced spans are held against their median.
fn plain_block(
    env: &Env,
    w: &Workload,
    instance: &mut Instance,
    seconds: f64,
    traced: &mut Traced,
) -> f64 {
    let plan = Plan::new(seconds, env.quick);
    let window = e2e::measure(env, w, std::slice::from_mut(instance), &plan);
    let q = e2e::quiet(&window.samples);
    traced.attempted += window.samples.len();
    traced
        .failures
        .extend(window.samples.iter().filter_map(|s| s.failure.clone()));
    let total = window.samples.len().max(1) as f64;
    traced.layers.set("noise.steal_share", window.steal_share);
    traced
        .layers
        .set("noise.disturbed_share", q.disturbed as f64 / total);
    let speeds: Vec<f64> = window.samples.iter().map(|s| s.speed).collect();
    traced.layers.set("noise.machine_speed", median(&speeds));
    // raw wall time, like every span below: one run's layers are compared
    // with each other, inside one state of the machine
    let p50 = median(&q.used.iter().map(|s| s.ms).collect::<Vec<_>>());
    traced.layers.set("check.raw_op_p50_ms", p50);
    p50
}

/// What one traced run's parts share.
struct Run<'a> {
    env: &'a Env,
    w: &'a Workload,
    /// Instance 0's seed: the untraced run's first instance, so both halves
    /// see one graph.
    seed: u64,
    /// The instance's graph, generated in-process.
    graph: Graph,
    /// Median of the plain block, raw.
    plain_p50: f64,
    /// How long the traced loop runs (at least five iterations).
    loop_for: Duration,
}

/// `seconds` is split between the plain block and the traced loop; the
/// fixed-size probes come on top.
pub fn run(env: &Env, w: &Workload, seed: u64, seconds: f64) -> Result<Traced, String> {
    let mut traced = Traced {
        layers: Layers::new(),
        attempted: 0,
        failures: Vec::new(),
    };
    let seed = e2e::instance_seed(seed, 0);
    let mut instance = Instance::set_up(env, w, seed, "i0".into())?;
    let (gen_ms, graph) = timed(|| generate_in_process(w.model(env.quick), seed));
    traced.layers.set("generators.gen_ms", gen_ms);
    let run = Run {
        env,
        w,
        seed,
        graph,
        plain_p50: plain_block(env, w, &mut instance, seconds * 0.4, &mut traced),
        loop_for: Duration::from_secs_f64(if env.quick { 0.0 } else { seconds * 0.4 }),
    };
    match w.kind {
        Kind::Batch { algo, .. } => trace_batch(&run, &instance, algo == "plm", &mut traced)?,
        Kind::Serve { edits } => trace_serve(&run, &mut instance, edits, &mut traced)?,
    }
    graph_probes(&mut traced.layers, &run.graph, w.threads(), &instance.dir)?;
    Ok(traced)
}

fn trace_batch(
    run: &Run<'_>,
    instance: &Instance,
    plm: bool,
    traced: &mut Traced,
) -> Result<(), String> {
    let Run {
        env,
        w,
        seed,
        plain_p50,
        loop_for,
        ..
    } = *run;
    let generated = &run.graph;
    let Traced {
        layers, attempted, ..
    } = traced;
    let input = instance.pcg.as_ref().unwrap_or(&instance.metis);
    let out = instance.dir.join("replay.part");
    let spec = w.spec(seed);
    let threads = w.threads();
    // the other end of the t1-vs-tN pair, on the same graph
    let other_threads = if threads == 1 {
        crate::workloads::thread_count()
    } else {
        1
    };

    // `help` prints the usage text to stderr and exits 0: process start,
    // argument parse, exit
    let spawns: Vec<f64> = (0..20)
        .filter_map(|_| {
            let mut help = Command::new(&env.parcom);
            crate::spawn::run_timed(help.arg("help").stderr(Stdio::null())).ok()
        })
        .map(|done| done.wall_ms)
        .collect();
    let spawn_floor = median(&spawns);
    layers.set("cli.spawn_floor_ms", spawn_floor);

    let (mut load, mut detect, mut quality_ms, mut write, mut total) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut bare, mut other, mut coarsen_ms, mut to_json_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut core = Vec::new();
    let start = Instant::now();
    while total.len() < 5 || start.elapsed() < loop_for {
        let r = replay(input, &spec, threads, &out, true)?;
        load.push(r.load_ms);
        detect.push(r.detect_ms);
        quality_ms.push(r.quality_ms);
        write.push(r.write_ms);
        total.push(r.load_ms + r.detect_ms + r.quality_ms + r.write_ms);
        let report = r.report.expect("traced replays carry a report");
        let (ms, text) = timed(|| report.to_json());
        to_json_us.push(ms * 1e3);
        core.push(report_layers(&json::parse(&text)?));
        if plm {
            coarsen_ms.push(timed(|| black_box(coarsen(&r.graph, &r.zeta))).0);
        }
        let mut detector = build_detector(&spec)?;
        other
            .push(timed(|| with_threads(other_threads, || black_box(detector.detect(&r.graph)))).0);
        bare.push(replay(input, &spec, threads, &out, false)?.total_ms);
    }
    *attempted += total.len();

    layers.set("io.load_ms", median(&load));
    layers.set("core.detect_ms", median(&detect));
    layers.set("core.quality_ms", median(&quality_ms));
    layers.set("io.partition_write_ms", median(&write));
    layers.set("graph.coarsen_ms", median(&coarsen_ms));
    layers.set("obs.report_json_us", median(&to_json_us));
    record_core(layers, &core);
    if instance.pcg.is_none() {
        let bytes = std::fs::metadata(input).map_err(|e| e.to_string())?.len();
        layers.set(
            "io.metis_mb_per_s",
            bytes as f64 / 1e6 / (median(&load) / 1e3),
        );
    }
    let (t1, tn) = if threads == 1 {
        (median(&detect), median(&other))
    } else {
        (median(&other), median(&detect))
    };
    layers.set("core.speedup_tN", t1 / tn.max(1e-9));

    let spans = median(&total);
    layers.set("cli.residual_ms", plain_p50 - spans);
    let sum = spans + spawn_floor;
    layers.set("check.layer_sum_ms", sum);
    layers.set(
        "check.unattributed_pct",
        100.0 * (plain_p50 - sum).abs() / plain_p50.max(1e-9),
    );
    layers.set(
        "noise.trace_overhead_pct",
        100.0 * (spans - median(&bare)) / median(&bare).max(1e-9),
    );
    if plm {
        optional_path_probes(layers, generated, &spec, threads)?;
    }
    Ok(())
}

fn trace_serve(
    run: &Run<'_>,
    instance: &mut Instance,
    edits: bool,
    traced: &mut Traced,
) -> Result<(), String> {
    let Run {
        env,
        seed,
        plain_p50,
        loop_for,
        ..
    } = *run;
    let generated = &run.graph;
    let put_ms = instance.put_ms;
    let dir = instance.dir.clone();
    let metis = instance.metis.clone();
    let serve = instance.serve().expect("a serve workload");
    let Traced {
        layers,
        attempted,
        failures,
    } = traced;
    layers.set("serve.put_ms", put_ms);

    let floor: Vec<f64> = (0..200)
        .map(|_| serve.healthz())
        .collect::<Result<_, _>>()?;
    let floor_ms = median(&floor) / 1e3;
    layers.set("serve.http_floor_us", median(&floor));

    let (mut edit_rtt, mut after_edit_rtt, mut rtt, mut report_ms, mut bytes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut core = Vec::new();
    let start = Instant::now();
    while rtt.len() < 5 || start.elapsed() < loop_for {
        if edits {
            edit_rtt.push(serve.edit()?);
            let (ms, reply) = serve.detect()?;
            after_edit_rtt.push(ms);
            if let Err(why) = serve.check(&reply, false) {
                failures.push(why);
            }
        }
        // nothing pending now: the read path alone
        let (ms, reply) = serve.detect()?;
        rtt.push(ms);
        report_ms.push(reply.report_ms());
        bytes.push(reply.bytes as f64);
        core.push(report_layers(
            reply.report().ok_or("detect reply has no report")?,
        ));
        if let Err(why) = serve.check(&reply, true) {
            failures.push(why);
        }
    }
    *attempted += rtt.len() + after_edit_rtt.len();

    let (rtt_ms, report) = (median(&rtt), median(&report_ms));
    layers.set("serve.detect_rtt_ms", rtt_ms);
    layers.set("serve.detect_report_ms", report);
    layers.set("core.detect_ms", report);
    layers.set("serve.detect_overhead_ms", rtt_ms - report - floor_ms);
    layers.set("serve.response_bytes", median(&bytes));
    record_core(layers, &core);
    let fold = if edits {
        median(&after_edit_rtt) - rtt_ms
    } else {
        0.0
    };
    layers.set("serve.edit_rtt_ms", median(&edit_rtt));
    layers.set("serve.fold_ms", fold);
    // by construction: floor + overhead + report = rtt, and edit + fold +
    // rtt = the edit-then-detect pair; what is checked is that the traced
    // loop's operation costs what the plain block's did
    let sum = median(&edit_rtt) + fold + rtt_ms;
    layers.set("check.layer_sum_ms", sum);
    layers.set(
        "check.unattributed_pct",
        100.0 * (plain_p50 - sum).abs() / plain_p50.max(1e-9),
    );
    layers.set(
        "noise.trace_overhead_pct",
        100.0 * (sum - plain_p50) / plain_p50.max(1e-9),
    );

    // the same PLP in-process, for a RunReport to serialize
    let (_, report) = build_detector(&format!("plp:seed={seed}"))?.detect_with_report(generated);
    let to_json_us: Vec<f64> = (0..50)
        .map(|_| timed(|| black_box(report.to_json())).0 * 1e3)
        .collect();
    layers.set("obs.report_json_us", median(&to_json_us));
    if edits {
        store_probes(layers, generated, &metis, seed, &dir)?;
    }

    *attempted += 1;
    match serve.crash_and_recover(env) {
        Ok(recovery) => {
            layers.set("serve.recover_ms", recovery.recover_ms);
            layers.set("serve.checkpoint_ms", recovery.checkpoint_ms);
            layers.set("serve.recovered_ok", 1.0);
        }
        Err(why) => failures.push(why),
    }
    layers.set("serve.shed_count", serve.shed_count() as f64);
    Ok(())
}

/// Direct calls into the store and the WAL with the workload's own edit
/// batches: the parts of `serve.edit_rtt_ms` and `serve.fold_ms`.
fn store_probes(
    layers: &mut Layers,
    g: &Graph,
    metis: &Path,
    seed: u64,
    dir: &Path,
) -> Result<(), String> {
    let text = std::fs::read_to_string(metis).map_err(|e| e.to_string())?;
    let mut shadow = Shadow::new(crate::verify::parse_metis(&text)?, seed);
    let mut batches = Vec::new();
    let mut parse_us = Vec::new();
    for _ in 0..20 {
        let batch = shadow.next_batch();
        let body = batch.to_json();
        let (ms, parsed) = timed(|| json::parse(&body));
        parsed?;
        parse_us.push(ms * 1e3);
        let inserts = batch.insert.iter().map(|&(u, v)| EdgeOp::Insert(u, v, 1.0));
        let removes = batch.remove.iter().map(|&(u, v)| EdgeOp::Remove(u, v));
        batches.push(inserts.chain(removes).collect::<Vec<_>>());
    }
    layers.set("obs.json_parse_us", median(&parse_us));

    let mut entry = GraphEntry::new(g.clone(), None);
    let mut rebuild_ms = Vec::new();
    for batch in batches.iter().take(5) {
        entry.buffer_ops(batch.iter().copied());
        rebuild_ms.push(timed(|| entry.rebuild()).0);
    }
    layers.set("serve.rebuild_ms", median(&rebuild_ms));

    for (policy, metric) in [
        (FsyncPolicy::Always, "serve.wal_append_ms"),
        (FsyncPolicy::Never, "serve.wal_append_nosync_ms"),
    ] {
        let path = dir.join(format!("probe-{}.wal", policy.as_str()));
        let mut wal = WalWriter::create(&path, 0, policy).map_err(|e| e.to_string())?;
        let empty = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
        let mut append_ms = Vec::new();
        for batch in &batches {
            let (ms, appended) = timed(|| wal.append(batch));
            appended.map_err(|e| e.to_string())?;
            append_ms.push(ms);
        }
        layers.set(metric, median(&append_ms));
        let grown = std::fs::metadata(&path).map_err(|e| e.to_string())?.len() - empty;
        layers.set(
            "serve.wal_bytes_per_batch",
            grown as f64 / batches.len() as f64,
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_core_layers_from_a_plm_report() {
        let (g, _) = parcom_generators::karate_club();
        let (_, report) = build_detector("plm:seed=1").unwrap().detect_with_report(&g);
        let layers = report_layers(&json::parse(&report.to_json()).unwrap());
        assert!(layers.levels >= 1.0 && layers.sweeps >= 1.0 && layers.moves >= 1.0);
        assert!(layers.move_ms > 0.0);
        assert_eq!(layers.plp_iter_ms, 0.0);

        let (_, report) = build_detector("plp:seed=1").unwrap().detect_with_report(&g);
        let layers = report_layers(&json::parse(&report.to_json()).unwrap());
        assert!(layers.plp_iter_ms > 0.0 && layers.sweeps >= 1.0);
        assert_eq!((layers.move_ms, layers.levels), (0.0, 0.0));
    }

    #[test]
    fn layer_metric_names_are_unique() {
        let mut names: Vec<&str> = LAYER_METRICS.iter().map(|m| m.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), LAYER_METRICS.len());
    }
}
