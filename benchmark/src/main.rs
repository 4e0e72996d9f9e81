//! `parbench` — the repo's end-to-end + per-layer benchmark. README.md has
//! the design; `run.sh` builds everything and hands its arguments here.
//!
//! ```text
//! parbench --workload W --seed S --seconds X --trace 0|1 [--quick]                one run
//! parbench [--seed S] [--seconds X] [--runs R] [--out FILE] [--quick]             the suite
//! parbench compare A.json B.json                                                  A/A, A/B
//! ```

mod calib;
mod compare;
mod e2e;
mod http;
mod procstat;
mod spawn;
mod stats;
mod trace;
mod verify;
mod workloads;

use e2e::{quoted, Env, Instance, Plan, Sample, INSTANCES};
use parcom_obs::json::{self, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::{Workload, WORKLOADS};

/// Every end-to-end metric: name, unit, which way is better, and the share
/// of the parent's median by which it may worsen. `BENCHMARK.json` carries
/// the same table for the driver; a self-test holds the two together.
pub const END_TO_END: [(&str, &str, &str, f64); 7] = [
    ("setup_s", "s", "lower", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p90_ms", "ms", "lower", 0.25),
    ("edges_per_s", "edges/s", "higher", 0.25),
    ("cpu_ms_per_op", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
    ("modularity_p50", "1", "higher", 0.03),
];

/// Seconds one run measures when the caller does not say (`run_seconds` of
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 15.0;

type Metric = (&'static str, f64, &'static str);

/// Everything one run found, for the contract line and the raw record.
struct RunRecord {
    workload: &'static str,
    seed: u64,
    trace: bool,
    quick: bool,
    attempted: usize,
    failed: usize,
    disturbed: usize,
    noisy: bool,
    metrics: Vec<Metric>,
    failures: Vec<String>,
    samples: Vec<Sample>,
}

fn metrics_json(metrics: &[Metric]) -> String {
    let cells: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    format!("{{{}}}", cells.join(","))
}

impl RunRecord {
    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The one line the driver reads.
    fn contract_line(&self) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics_json(&self.metrics)
        )
    }

    /// The full record, raw samples included.
    fn to_json(&self) -> String {
        let mut failures = String::new();
        for (i, why) in self.failures.iter().take(10).enumerate() {
            failures.push_str(if i > 0 { "," } else { "" });
            json::write_str(&mut failures, why);
        }
        let samples: Vec<String> = self
            .samples
            .iter()
            .map(|s| {
                format!(
                    "{{\"ms\":{},\"speed\":{},\"steal\":{},\"cpu_ms\":{},\"rss_kb\":{},\"modularity\":{},\"ok\":{}}}",
                    s.ms,
                    s.speed,
                    s.steal,
                    s.cpu_ms,
                    s.rss_kb,
                    s.modularity.map_or("null".into(), |q| q.to_string()),
                    s.failure.is_none()
                )
            })
            .collect();
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"quick\":{},\"nproc\":{},\"threads\":{},\
             \"instances\":{INSTANCES},\"correct\":{},\"attempted\":{},\"failed\":{},\"clean\":{},\
             \"disturbed\":{},\"noisy\":{},\"metrics\":{},\"failures\":[{failures}],\"samples\":[{}]}}",
            self.workload,
            self.seed,
            u8::from(self.trace),
            self.quick,
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            workloads::thread_count(),
            self.correct(),
            self.attempted,
            self.failed,
            self.attempted - self.failed - self.disturbed,
            self.disturbed,
            self.noisy,
            metrics_json(&self.metrics),
            samples.join(",")
        )
    }

    fn print(&self) {
        println!(
            "# {} seed={} trace={} T={}{}",
            self.workload,
            self.seed,
            u8::from(self.trace),
            workloads::thread_count(),
            if self.quick {
                " QUICK: numbers are not comparable"
            } else {
                ""
            }
        );
        if let Some(w) = Workload::find(self.workload) {
            println!("# why: {}", w.why);
        }
        println!(
            "# ops: attempted {} failed {} disturbed {}{}",
            self.attempted,
            self.failed,
            self.disturbed,
            if self.noisy {
                " NOISY: statistics taken from disturbed samples too"
            } else {
                ""
            }
        );
        if !self.samples.is_empty() {
            let ok = self.samples.iter().filter(|s| s.failure.is_none());
            let (raw, speed): (Vec<f64>, Vec<f64>) = ok.map(|s| (s.ms, s.speed)).unzip();
            println!(
                "# machine speed p50 {:.3} of nominal; raw op p50 {:.2} ms (times below are speed-normalised)",
                stats::median(&speed),
                stats::median(&raw)
            );
        }
        for why in self.failures.iter().take(10) {
            println!("# FAILED: {why}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{name:<28} {value:>16.4} {unit}");
        }
    }
}

/// A per-process scratch directory inside the build directory (so inside
/// the checkout, and ignored by git). The process changes into it: every
/// path handed to `parcom` is then short and relative, which keeps the
/// daemon's socket path below the 108-byte `sun_path` limit wherever the
/// checkout lives.
struct WorkDir(PathBuf);

impl WorkDir {
    fn enter(exe_dir: &Path) -> Result<Self, String> {
        let dir = exe_dir.join(format!("../parbench-work/{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        std::env::set_current_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn exe_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    Ok(exe
        .parent()
        .ok_or("executable has no directory")?
        .to_path_buf())
}

/// The untraced run: the end-to-end metrics of one workload.
fn run_end_to_end(
    env: &Env,
    w: &'static Workload,
    seed: u64,
    seconds: f64,
) -> Result<RunRecord, String> {
    let mut instances = Vec::new();
    for k in 0..INSTANCES {
        let dir = PathBuf::from(format!("i{k}"));
        instances.push(Instance::set_up(env, w, e2e::instance_seed(seed, k), dir)?);
    }
    let setup: Vec<f64> = instances.iter().map(|i| i.setup_s).collect();
    let edges = instances.iter().map(Instance::edges).sum::<usize>() / INSTANCES;

    let window = e2e::measure(env, w, &mut instances, &Plan::new(seconds, env.quick));
    let q = e2e::quiet(&window.samples);
    // names and units come from the table, so what a run prints cannot
    // drift from what `BENCHMARK.json` declares
    let values = [stats::median(&setup)]
        .into_iter()
        .chain(e2e::end_to_end(&window, &q, edges));
    let metrics = (END_TO_END.iter().zip(values))
        .map(|(&(name, unit, ..), value)| (name, value, unit))
        .collect();
    let mut record = RunRecord {
        workload: w.name,
        seed,
        trace: false,
        quick: env.quick,
        attempted: window.samples.len(),
        failed: q.failed,
        disturbed: q.disturbed,
        noisy: q.noisy,
        metrics,
        failures: window
            .samples
            .iter()
            .filter_map(|s| s.failure.clone())
            .collect(),
        samples: Vec::new(),
    };
    // recovery after kill -9, outside the window; a failure counts
    if let Some(serve) = instances[0].serve() {
        record.attempted += 1;
        if let Err(why) = serve.crash_and_recover(env) {
            record.failed += 1;
            record.failures.push(why);
        }
    }
    record.samples = window.samples;
    Ok(record)
}

fn run_traced(
    env: &Env,
    w: &'static Workload,
    seed: u64,
    seconds: f64,
) -> Result<RunRecord, String> {
    let traced = trace::run(env, w, seed, seconds)?;
    Ok(RunRecord {
        workload: w.name,
        seed,
        trace: true,
        quick: env.quick,
        attempted: traced.attempted,
        failed: traced.failures.len(),
        disturbed: 0,
        noisy: false,
        metrics: traced.layers.into_vec(),
        failures: traced.failures,
        samples: Vec::new(),
    })
}

/// `--key value` pairs and bare `--switch`es.
struct Args(Vec<String>);

impl Args {
    fn value(&self, key: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == key)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("bad value `{raw}` for {key}")),
        }
    }

    fn switch(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }
}

fn single_run(args: &Args, name: &str) -> Result<bool, String> {
    let w = Workload::find(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (one of: {})", names.join(", "))
    })?;
    let seed: u64 = args.parsed("--seed", 42)?;
    let seconds: f64 = args.parsed("--seconds", DEFAULT_SECONDS)?;
    let trace = match args.value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    let raw = args.value("--raw").map(PathBuf::from);
    let exe_dir = exe_dir()?;
    let env = Env {
        parcom: exe_dir.join("parcom"),
        quick: args.switch("--quick"),
    };
    if !env.parcom.is_file() {
        return Err(format!(
            "{} is not built (run benchmark/run.sh)",
            env.parcom.display()
        ));
    }
    let _work = WorkDir::enter(&exe_dir)?;
    let record = if trace {
        run_traced(&env, w, seed, seconds)?
    } else {
        run_end_to_end(&env, w, seed, seconds)?
    };
    record.print();
    match raw {
        // the suite's children leave the full record in a file instead
        Some(raw) => {
            std::fs::write(&raw, record.to_json()).map_err(|e| format!("{}: {e}", raw.display()))?
        }
        None => println!("{}", record.contract_line()),
    }
    // a run that printed its result succeeded as a *run*: failed operations
    // are in the result (`correct`, `failed`), not in the exit status
    Ok(true)
}

fn tool_line(program: &str, args: &[&str]) -> String {
    let out = Command::new(program).args(args).output();
    let text = out.ok().filter(|o| o.status.success()).map(|o| o.stdout);
    text.map_or("unknown".into(), |t| {
        String::from_utf8_lossy(&t).trim().to_string()
    })
}

/// All six workloads untraced (`--runs` times, a fresh seed and a fresh
/// child process each), then each once traced; one JSON file out.
fn suite(args: &Args) -> Result<bool, String> {
    let seed: u64 = args.parsed("--seed", 42)?;
    let seconds: f64 = args.parsed("--seconds", DEFAULT_SECONDS)?;
    let runs: u64 = args.parsed("--runs", 1)?;
    let quick = args.switch("--quick");
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let scratch = exe_dir()?.join(format!("../parbench-work/suite-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;
    let raw = scratch.join("run.json");

    let mut plan: Vec<(&Workload, u64, bool)> = Vec::new();
    for r in 0..runs {
        plan.extend(WORKLOADS.iter().map(|w| (w, seed + r, false)));
    }
    plan.extend(WORKLOADS.iter().map(|w| (w, seed, true)));

    let mut records = Vec::new();
    let mut all_correct = true;
    for (w, seed, trace) in plan {
        let mut child = Command::new(&exe);
        child.args(["--workload", w.name, "--seed", &seed.to_string()]);
        child.args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ]);
        child.arg("--raw").arg(&raw);
        if quick {
            child.arg("--quick");
        }
        let status = child.status().map_err(|e| e.to_string())?;
        match std::fs::read_to_string(&raw) {
            Ok(record) => {
                let parsed = json::parse(&record).ok();
                let correct = parsed.and_then(|v| v.get("correct").and_then(Value::as_bool));
                all_correct &= status.success() && correct == Some(true);
                records.push(record);
            }
            Err(_) => {
                all_correct = false;
                eprintln!("parbench: {} (trace {trace}) left no record", w.name);
            }
        }
        let _ = std::fs::remove_file(&raw);
        println!();
    }
    let _ = std::fs::remove_dir_all(&scratch);

    let document = format!(
        "{{\"schema\":\"parbench/v1\",\"comparable\":{},\"seed\":{seed},\"seconds\":{seconds},\
         \"runs_per_workload\":{runs},\"nproc\":{},\"threads\":{},\"commit\":{},\"rustc\":{},\"runs\":[\n{}\n]}}\n",
        !quick,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        workloads::thread_count(),
        quoted(&tool_line("git", &["rev-parse", "HEAD"])),
        quoted(&tool_line("rustc", &["--version"])),
        records.join(",\n")
    );
    compare::print_scaling(&document)?;
    if let Some(out) = args.value("--out") {
        std::fs::write(out, &document).map_err(|e| format!("{out}: {e}"))?;
        println!("wrote {out}");
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    let outcome = match (args.0.first().map(String::as_str), args.value("--workload")) {
        (Some("compare"), _) => match &args.0[1..] {
            [a, b] => compare::compare_files(a, b),
            _ => Err("usage: parbench compare A.json B.json".into()),
        },
        (_, Some(name)) => single_run(&args, name),
        _ => suite(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("parbench: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver believes; the tables in this
    /// crate are what the runs print. They must not drift apart.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str, field: &str| -> Vec<String> {
            let list = doc.get(key).and_then(Value::as_array).unwrap();
            list.iter()
                .map(|m| m.get(field).and_then(Value::as_str).unwrap().to_string())
                .collect()
        };
        let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names("workloads", "name"), workloads);
        let whys: Vec<&str> = WORKLOADS.iter().map(|w| w.why).collect();
        assert_eq!(names("workloads", "why"), whys);
        assert_eq!(names("end_to_end", "name"), END_TO_END.map(|m| m.0));
        assert_eq!(names("end_to_end", "unit"), END_TO_END.map(|m| m.1));
        assert_eq!(names("end_to_end", "better"), END_TO_END.map(|m| m.2));
        let bounds: Vec<f64> = doc
            .get("end_to_end")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|m| m.get("bound").and_then(Value::as_f64).unwrap())
            .collect();
        assert_eq!(bounds, END_TO_END.map(|m| m.3));
        assert_eq!(
            names("per_layer", "name"),
            trace::LAYER_METRICS.map(|m| m.0)
        );
        assert_eq!(
            names("per_layer", "unit"),
            trace::LAYER_METRICS.map(|m| m.1)
        );
        let seconds = doc.get("run_seconds").and_then(Value::as_f64);
        assert_eq!(seconds, Some(DEFAULT_SECONDS));
    }
}
