//! The end-to-end half: set-up, operations and output checks that touch
//! nothing but the release `parcom` binary — `generate`, `convert`,
//! `detect`, `serve` — exactly as a user would, so this half survives any
//! refactor of the Rust API.

use crate::calib;
use crate::http::{Client, Response};
use crate::procstat;
use crate::spawn::{run_checked, run_timed};
use crate::stats;
use crate::verify::{self, EdgeList, Shadow};
use crate::workloads::{Kind, Model, Workload};
use parcom_obs::json::{self, Value};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Instances set up per run. Operations cycle over them, so one run's
/// statistics do not hang on one seed's graph, and `setup_s` is the median
/// of as many set-ups.
pub const INSTANCES: usize = 3;

/// Untimed operations before the window opens (two per instance: the first
/// request to a fresh daemon pays lazy set-up no later one does).
const WARM_UPS: usize = 2 * INSTANCES;

/// Below this many undisturbed operations the window reports from every
/// operation and calls itself noisy.
const MIN_CLEAN: usize = 20;

/// Edit batches one daemon may receive in a run, warm-ups included: 127 ×
/// 256 operations stay below the daemon's `CHECKPOINT_OPS` (32 768), so no
/// automatic checkpoint lands inside the window.
const MAX_EDIT_BATCHES: usize = 120;

/// Reported-versus-recomputed modularity tolerance: the daemon's report
/// carries the full f64, the CLI summary line four decimals.
const TOLERANCE_SERVE: f64 = 1e-6;
const TOLERANCE_CLI: f64 = 5.1e-5;

pub struct Env {
    /// The release `parcom` binary, absolute.
    pub parcom: PathBuf,
    pub quick: bool,
}

/// How long the window stays open.
pub struct Plan {
    pub seconds: f64,
    pub min_ops: usize,
    pub max_ops: usize,
}

impl Plan {
    pub fn new(seconds: f64, quick: bool) -> Self {
        if quick {
            // smoke mode: a fixed handful of operations, whatever they take
            Self {
                seconds: 0.0,
                min_ops: 5,
                max_ops: 5,
            }
        } else {
            Self {
                seconds,
                min_ops: 10,
                max_ops: usize::MAX,
            }
        }
    }
}

/// One measured operation.
#[derive(Clone, Debug, Default)]
pub struct Sample {
    /// Wall time as measured.
    pub ms: f64,
    /// [`calib::machine_speed`] just before the operation; the end-to-end
    /// statistics are taken over `ms × speed`.
    pub speed: f64,
    /// Steal ticks of `/proc/stat` across the operation; above zero the
    /// sample is *disturbed*.
    pub steal: u64,
    /// Child CPU time (as measured) and peak RSS (`wait4`); zero for daemon
    /// requests, which are accounted over the whole window instead.
    pub cpu_ms: f64,
    pub rss_kb: u64,
    /// Recomputed by `verify`, on the operations that recompute it.
    pub modularity: Option<f64>,
    /// Why the operation failed; `None` when every check passed.
    pub failure: Option<String>,
}

struct Batch {
    graph: EdgeList,
    command: Vec<String>,
    out: PathBuf,
    floor: f64,
}

/// A running `parcom serve` with one keep-alive client connection.
struct Daemon {
    child: Child,
    client: Client,
    args: Vec<String>,
    socket: PathBuf,
    log: PathBuf,
}

/// A daemon, its client connection, and the graph it must be holding.
pub struct Serve {
    daemon: Daemon,
    shadow: Shadow,
    edits: bool,
    detect_body: String,
    floor: f64,
    ops: usize,
    /// Under edits, modularity is recomputed on every this-many-th
    /// operation; the edge-count check carries the others.
    recompute_every: usize,
    /// 429/503 replies seen.
    shed: usize,
}

enum Target {
    Batch(Batch),
    Serve(Box<Serve>),
}

/// One generated input plus whatever serves it.
pub struct Instance {
    target: Target,
    pub dir: PathBuf,
    pub metis: PathBuf,
    pub pcg: Option<PathBuf>,
    pub setup_s: f64,
    pub put_ms: f64,
}

/// Generator and detector seed of instance `k` of a run: distinct for
/// every (run seed, instance) pair the driver can produce.
pub fn instance_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(k as u64)
}

fn parcom(env: &Env) -> Command {
    Command::new(&env.parcom)
}

fn path_str(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

fn generate(env: &Env, model: Model, seed: u64, out: &Path) -> Result<(), String> {
    let mut cmd = parcom(env);
    cmd.args([
        "generate",
        "--seed",
        &seed.to_string(),
        "--out",
        &path_str(out),
    ]);
    match model {
        Model::Lfr { n } => cmd.args(["--model", "lfr", "--mu", "0.3", "--n", &n.to_string()]),
        Model::Rmat { scale } => cmd.args([
            "--model",
            "rmat",
            "--edge-factor",
            "16",
            "--scale",
            &scale.to_string(),
        ]),
    };
    run_checked(&mut cmd)
}

impl Daemon {
    /// Boots the daemon and waits for `/readyz` to answer 200.
    fn boot(env: &Env, dir: &Path) -> Result<Self, String> {
        let socket = dir.join("s.sock");
        let args: Vec<String> = [
            "serve",
            "--socket",
            &path_str(&socket),
            "--state-dir",
            &path_str(&dir.join("state")),
            "--fsync",
            "always",
        ]
        .map(String::from)
        .into();
        let log = dir.join("daemon.log");
        Self::spawn(env, args, socket, log)
    }

    fn spawn(env: &Env, args: Vec<String>, socket: PathBuf, log: PathBuf) -> Result<Self, String> {
        let stderr = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&log)
            .map_err(|e| format!("cannot open {}: {e}", log.display()))?;
        let mut child = parcom(env)
            .args(&args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot start the daemon: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(mut client) = Client::connect(&socket) {
                if matches!(client.request("GET", "/readyz", b""), Ok(r) if r.status == 200) {
                    return Ok(Self {
                        child,
                        client,
                        args,
                        socket,
                        log,
                    });
                }
            }
            if Instant::now() > deadline || !matches!(child.try_wait(), Ok(None)) {
                let _ = child.kill();
                let _ = child.wait();
                let said = std::fs::read_to_string(&log).unwrap_or_default();
                return Err(format!("daemon never became ready: {}", said.trim()));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// `kill -9`, then a restart on the same state directory; returns the
    /// time from spawn to `/readyz` 200, which covers checkpoint reopen,
    /// WAL replay and the rebuild.
    fn crash_and_restart(&mut self, env: &Env) -> Result<f64, String> {
        self.stop();
        let start = Instant::now();
        let fresh = Self::spawn(
            env,
            self.args.clone(),
            self.socket.clone(),
            self.log.clone(),
        )?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        *self = fresh;
        Ok(ms)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The daemon's parsed `/detect` reply, as far as the checks need it.
pub struct DetectReply {
    pub value: Value,
    pub bytes: usize,
}

impl DetectReply {
    pub fn report(&self) -> Option<&Value> {
        self.value.get("report")
    }

    /// Σ top-level phase seconds of the embedded run report, in ms.
    pub fn report_ms(&self) -> f64 {
        let phases = self
            .report()
            .and_then(|r| r.get("phases"))
            .and_then(Value::as_array);
        phases.map_or(0.0, |ps| {
            ps.iter()
                .filter_map(|p| p.get("wall_seconds").and_then(Value::as_f64))
                .sum::<f64>()
                * 1e3
        })
    }
}

impl Serve {
    fn request(&mut self, method: &str, path: &str, body: &[u8]) -> Result<Response, String> {
        let reply = self
            .daemon
            .client
            .request(method, path, body)
            .map_err(|e| format!("{method} {path}: {e}"))?;
        if matches!(reply.status, 429 | 503) {
            self.shed += 1;
        }
        if reply.status / 100 != 2 {
            return Err(format!(
                "{method} {path}: {} {}",
                reply.status,
                reply.text()
            ));
        }
        Ok(reply)
    }

    /// Timed `POST /detect`, request → last byte.
    pub fn detect(&mut self) -> Result<(f64, DetectReply), String> {
        let body = self.detect_body.clone();
        let start = Instant::now();
        let reply = self.request("POST", "/detect", body.as_bytes())?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let value = json::parse(reply.text()).map_err(|e| format!("detect reply: {e}"))?;
        Ok((
            ms,
            DetectReply {
                value,
                bytes: reply.body.len(),
            },
        ))
    }

    /// Timed `POST /graphs/g/edges` with the next seeded batch; the shadow
    /// set has applied it by the time this returns.
    pub fn edit(&mut self) -> Result<f64, String> {
        let batch = self.shadow.next_batch();
        let body = batch.to_json();
        let start = Instant::now();
        let reply = self.request("POST", "/graphs/g/edges", body.as_bytes())?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let value = json::parse(reply.text()).map_err(|e| format!("edit reply: {e}"))?;
        let accepted = value.get("accepted").and_then(Value::as_u64);
        let sent = (batch.insert.len() + batch.remove.len()) as u64;
        if accepted != Some(sent) {
            return Err(format!("edit accepted {accepted:?} of {sent} operations"));
        }
        Ok(ms)
    }

    /// Checks a detect reply against the shadow graph; recomputes
    /// modularity when `recompute` (always on the static graph, every tenth
    /// operation under edits).
    pub fn check(&self, reply: &DetectReply, recompute: bool) -> Result<Option<f64>, String> {
        let v = &reply.value;
        let field = |k: &str| v.get(k).and_then(Value::as_u64).map(|x| x as usize);
        if v.get("termination").and_then(Value::as_str) != Some("converged") {
            return Err(format!(
                "termination {:?}",
                v.get("termination").and_then(Value::as_str)
            ));
        }
        if field("nodes") != Some(self.shadow.node_count()) {
            return Err(format!(
                "{:?} nodes, expected {}",
                field("nodes"),
                self.shadow.node_count()
            ));
        }
        if field("edges") != Some(self.shadow.edge_count()) {
            return Err(format!(
                "{:?} edges, expected {}",
                field("edges"),
                self.shadow.edge_count()
            ));
        }
        let labels: Option<Vec<u32>> = v.get("partition").and_then(Value::as_array).and_then(|a| {
            a.iter()
                .map(|x| x.as_u64().and_then(|c| u32::try_from(c).ok()))
                .collect()
        });
        let labels = labels.filter(|l| l.len() == self.shadow.node_count());
        let labels = labels.ok_or("partition is not exactly n valid labels")?;
        if !recompute {
            return Ok(None);
        }
        let reported = reply
            .report()
            .and_then(|r| r.get("metrics"))
            .and_then(|m| m.get("modularity"))
            .and_then(Value::as_f64)
            .ok_or("report carries no modularity")?;
        let own = verify::modularity(self.shadow.edges(), &labels);
        check_modularity(own, reported, TOLERANCE_SERVE, self.floor).map(Some)
    }

    fn op(&mut self) -> Sample {
        self.ops += 1;
        let steal = procstat::steal_ticks();
        let timed = (|| {
            let edit_ms = if self.edits { self.edit()? } else { 0.0 };
            let (detect_ms, reply) = self.detect()?;
            Ok::<_, String>((edit_ms + detect_ms, reply))
        })();
        let steal = procstat::steal_ticks() - steal;
        match timed {
            Ok((ms, reply)) => {
                let recompute = !self.edits || self.ops.is_multiple_of(self.recompute_every);
                let (modularity, failure) = match self.check(&reply, recompute) {
                    Ok(q) => (q, None),
                    Err(why) => (None, Some(why)),
                };
                Sample {
                    ms,
                    steal,
                    modularity,
                    failure,
                    ..Sample::default()
                }
            }
            Err(why) => Sample {
                steal,
                failure: Some(why),
                ..Sample::default()
            },
        }
    }
}

fn check_modularity(own: f64, reported: f64, tolerance: f64, floor: f64) -> Result<f64, String> {
    if (own - reported).abs() > tolerance {
        return Err(format!(
            "reported modularity {reported} but recomputed {own}"
        ));
    }
    if own < floor {
        return Err(format!("modularity {own} below the floor {floor}"));
    }
    Ok(own)
}

impl Batch {
    fn op(&mut self, env: &Env) -> Sample {
        // a stale partition from the previous operation must not pass
        let _ = std::fs::remove_file(&self.out);
        let steal = procstat::steal_ticks();
        let done = run_timed(parcom(env).args(&self.command));
        let steal = procstat::steal_ticks() - steal;
        let done = match done {
            Ok(done) => done,
            Err(e) => {
                return Sample {
                    steal,
                    failure: Some(e.to_string()),
                    ..Sample::default()
                }
            }
        };
        let (modularity, failure) = match self.check(done.ok, &done.stdout) {
            Ok(q) => (Some(q), None),
            Err(why) => (None, Some(why)),
        };
        Sample {
            ms: done.wall_ms,
            steal,
            cpu_ms: done.cpu_ms,
            rss_kb: done.max_rss_kb,
            modularity,
            failure,
            ..Sample::default()
        }
    }

    fn check(&self, exited_ok: bool, stdout: &str) -> Result<f64, String> {
        if !exited_ok {
            return Err(format!("non-zero exit: {}", stdout.trim()));
        }
        // "PLM on g.pcg: n=50000 m=435961 -> 248 communities, modularity 0.6993, ..."
        let after = |key: &str| {
            let rest = &stdout[stdout.find(key)? + key.len()..];
            let end = rest.find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'));
            rest[..end.unwrap_or(rest.len())].parse::<f64>().ok()
        };
        let (n, m) = (after(" n="), after(" m="));
        if n != Some(self.graph.n as f64) || m != Some(self.graph.edges.len() as f64) {
            return Err(format!("summary says n={n:?} m={m:?}"));
        }
        let reported = after("modularity ").ok_or("summary carries no modularity")?;
        let text = std::fs::read_to_string(&self.out).map_err(|e| format!("no partition: {e}"))?;
        let labels = verify::parse_partition(&text, self.graph.n)
            .ok_or("partition is not exactly n valid labels")?;
        let own = verify::modularity(&self.graph.edges, &labels);
        check_modularity(own, reported, TOLERANCE_CLI, self.floor)
    }
}

impl Instance {
    /// Generates (and converts) the input under `dir` and, for the serve
    /// workloads, boots a daemon and loads the graph — all timed as
    /// `setup_s`. Parsing the text for the verifier is the benchmark's own
    /// cost and stays outside.
    pub fn set_up(env: &Env, w: &Workload, seed: u64, dir: PathBuf) -> Result<Self, String> {
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let metis = dir.join("g.metis");
        let text_input = matches!(
            w.kind,
            Kind::Batch {
                text_input: true,
                ..
            }
        );
        let speed = calib::machine_speed();
        let start = Instant::now();
        generate(env, w.model(env.quick), seed, &metis)?;
        let pcg = if text_input {
            None
        } else {
            let pcg = dir.join("g.pcg");
            run_checked(parcom(env).args([
                "convert",
                "--input",
                &path_str(&metis),
                "--out",
                &path_str(&pcg),
            ]))?;
            Some(pcg)
        };
        let mut put_ms = 0.0;
        let served = match (w.kind, &pcg) {
            (Kind::Serve { edits }, Some(pcg)) => {
                let mut daemon = Daemon::boot(env, &dir)?;
                let body = format!("{{\"path\":{}}}", quoted(&path_str(pcg)));
                let put = Instant::now();
                let reply = daemon.client.request("PUT", "/graphs/g", body.as_bytes());
                put_ms = put.elapsed().as_secs_f64() * 1e3;
                match reply {
                    Ok(r) if r.status == 201 => Some((daemon, edits)),
                    Ok(r) => return Err(format!("PUT /graphs/g: {} {}", r.status, r.text())),
                    Err(e) => return Err(format!("PUT /graphs/g: {e}")),
                }
            }
            _ => None,
        };
        let setup_s = start.elapsed().as_secs_f64() * speed;

        let text = std::fs::read_to_string(&metis).map_err(|e| e.to_string())?;
        let graph = verify::parse_metis(&text)?;
        let floor = w.modularity_floor(env.quick);
        let target = match served {
            Some((daemon, edits)) => Target::Serve(Box::new(Serve {
                daemon,
                shadow: Shadow::new(graph, seed),
                edits,
                detect_body: format!(
                    "{{\"graph\":\"g\",\"spec\":{},\"include_partition\":true}}",
                    quoted(&w.spec(seed))
                ),
                floor,
                ops: 0,
                recompute_every: if env.quick { 1 } else { 10 },
                shed: 0,
            })),
            None => {
                let out = dir.join("out.part");
                let input = pcg.as_ref().unwrap_or(&metis);
                let command = [
                    "detect",
                    "--input",
                    &path_str(input),
                    "--algo",
                    w.algo(),
                    "--threads",
                    &w.threads().to_string(),
                    "--seed",
                    &seed.to_string(),
                    "--out",
                    &path_str(&out),
                ]
                .map(String::from)
                .into();
                Target::Batch(Batch {
                    graph,
                    command,
                    out,
                    floor,
                })
            }
        };
        Ok(Self {
            target,
            dir,
            metis,
            pcg,
            setup_s,
            put_ms,
        })
    }

    pub fn op(&mut self, env: &Env) -> Sample {
        let speed = calib::machine_speed();
        let sample = match &mut self.target {
            Target::Batch(b) => b.op(env),
            Target::Serve(s) => s.op(),
        };
        Sample { speed, ..sample }
    }

    /// Edges of the graph as generated (edits add 128 per batch; the
    /// processing rate is stated against the generated size).
    pub fn edges(&self) -> usize {
        match &self.target {
            Target::Batch(b) => b.graph.edges.len(),
            Target::Serve(s) => s.shadow.edge_count(),
        }
    }

    pub fn serve(&mut self) -> Option<&mut Serve> {
        match &mut self.target {
            Target::Serve(s) => Some(s),
            Target::Batch(_) => None,
        }
    }
}

/// `s` as a JSON string literal.
pub fn quoted(s: &str) -> String {
    let mut out = String::new();
    json::write_str(&mut out, s);
    out
}

/// What recovery after `kill -9` looked like.
pub struct Recovery {
    pub recover_ms: f64,
    pub checkpoint_ms: f64,
}

impl Serve {
    fn daemon_pid(&self) -> u32 {
        self.daemon.child.id()
    }

    pub fn shed_count(&self) -> usize {
        self.shed
    }

    pub fn healthz(&mut self) -> Result<f64, String> {
        let start = Instant::now();
        self.request("GET", "/healthz", b"")?;
        Ok(start.elapsed().as_secs_f64() * 1e6)
    }

    /// The operator's bad day, checked after the window: `kill -9` with
    /// every acknowledged batch only in the WAL, restart on the same state
    /// directory, and the recovered graph must have exactly the expected
    /// node and edge counts and still cluster; then an explicit checkpoint.
    pub fn crash_and_recover(&mut self, env: &Env) -> Result<Recovery, String> {
        let recover_ms = self.daemon.crash_and_restart(env)?;
        let (_, reply) = self.detect()?;
        self.check(&reply, true)
            .map_err(|why| format!("after recovery: {why}"))?;
        let start = Instant::now();
        let reply = self.request("POST", "/graphs/g/checkpoint", b"")?;
        let checkpoint_ms = start.elapsed().as_secs_f64() * 1e3;
        let value = json::parse(reply.text()).map_err(|e| format!("checkpoint reply: {e}"))?;
        let edges = value.get("edges").and_then(Value::as_u64);
        if edges != Some(self.shadow.edge_count() as u64) {
            return Err(format!("checkpoint holds {edges:?} edges"));
        }
        Ok(Recovery {
            recover_ms,
            checkpoint_ms,
        })
    }
}

/// A measured window: every sample, and how the machine behaved meanwhile.
pub struct Window {
    pub samples: Vec<Sample>,
    /// Steal ticks / total ticks of `/proc/stat` across the window.
    pub steal_share: f64,
    /// CPU the daemons used across the window; `None` for batch workloads,
    /// whose children report their own.
    pub daemon_cpu_ms: Option<f64>,
    /// Each instance's peak resident set (largest `ru_maxrss` of its
    /// children, or its daemon's `VmHWM`), then the *smallest* of those:
    /// allocator luck only ever adds — a daemon's rebuild buffers land in
    /// whichever arena the thread happens to own, and peaks of one commit
    /// range over 140–205 MB — so the floor is what the workload needs.
    pub peak_rss_kb: u64,
}

/// Warm-ups, then operations cycling over the instances until the plan's
/// time is up. One operation in flight, always: a closed loop of one
/// client that waits for its reply.
pub fn measure(env: &Env, w: &Workload, instances: &mut [Instance], plan: &Plan) -> Window {
    let edits = matches!(w.kind, Kind::Serve { edits: true });
    let max_ops = if edits {
        plan.max_ops
            .min(instances.len() * MAX_EDIT_BATCHES - WARM_UPS)
    } else {
        plan.max_ops
    };
    let count = instances.len();
    for i in 0..WARM_UPS {
        instances[i % count].op(env);
    }
    let serve = matches!(w.kind, Kind::Serve { .. });
    let daemon_cpu = |instances: &mut [Instance]| -> f64 {
        instances
            .iter_mut()
            .filter_map(|i| i.serve().and_then(|s| procstat::pid_cpu_ms(s.daemon_pid())))
            .sum()
    };
    let cpu_before = daemon_cpu(instances);
    let ticks_before = procstat::read_cpu();
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut peak_rss_kb = vec![0u64; count];
    while samples.len() < max_ops
        && (samples.len() < plan.min_ops || start.elapsed().as_secs_f64() < plan.seconds)
    {
        let k = samples.len() % count;
        let sample = instances[k].op(env);
        peak_rss_kb[k] = peak_rss_kb[k].max(sample.rss_kb);
        samples.push(sample);
    }
    let steal_share = match (ticks_before, procstat::read_cpu()) {
        (Some(a), Some(b)) if b.total > a.total => {
            (b.steal.unwrap_or(0) - a.steal.unwrap_or(0)) as f64 / (b.total - a.total) as f64
        }
        _ => 0.0,
    };
    for (peak, instance) in peak_rss_kb.iter_mut().zip(instances.iter_mut()) {
        if let Some(s) = instance.serve() {
            *peak = procstat::pid_vm_hwm_kb(s.daemon_pid()).unwrap_or(0);
        }
    }
    Window {
        samples,
        steal_share,
        daemon_cpu_ms: serve.then(|| daemon_cpu(instances) - cpu_before),
        peak_rss_kb: peak_rss_kb.into_iter().min().unwrap_or(0),
    }
}

/// The samples statistics are taken from, by the quiet-sample rule:
/// successful and undisturbed ones — or, when fewer than [`MIN_CLEAN`] of
/// those exist, every successful one, with `noisy` set. Noise alone never
/// fails a run.
pub struct Quiet<'a> {
    pub used: Vec<&'a Sample>,
    pub noisy: bool,
    pub disturbed: usize,
    pub failed: usize,
}

pub fn quiet(samples: &[Sample]) -> Quiet<'_> {
    let ok: Vec<&Sample> = samples.iter().filter(|s| s.failure.is_none()).collect();
    let clean: Vec<&Sample> = ok.iter().copied().filter(|s| s.steal == 0).collect();
    let disturbed = ok.len() - clean.len();
    let failed = samples.len() - ok.len();
    let noisy = clean.len() < MIN_CLEAN.min(ok.len());
    Quiet {
        used: if noisy { ok } else { clean },
        noisy,
        disturbed,
        failed,
    }
}

/// The end-to-end metrics of one window after `setup_s`, in the order of
/// the `END_TO_END` table. Every time is speed-normalised: each sample's
/// wall and CPU time scaled by the machine speed measured just before it,
/// the daemons' window total by the window's median speed.
pub fn end_to_end(window: &Window, q: &Quiet<'_>, edges: usize) -> [f64; 6] {
    let ms: Vec<f64> = q.used.iter().map(|s| s.ms * s.speed).collect();
    let total_ms: f64 = ms.iter().sum();
    let attempted = window.samples.len().max(1) as f64;
    let cpu_ms = match window.daemon_cpu_ms {
        Some(total) => {
            let speeds: Vec<f64> = window.samples.iter().map(|s| s.speed).collect();
            total / attempted * stats::median(&speeds)
        }
        None => stats::mean(&(q.used.iter().map(|s| s.cpu_ms * s.speed)).collect::<Vec<_>>()),
    };
    let modularity: Vec<f64> = q.used.iter().filter_map(|s| s.modularity).collect();
    [
        stats::median(&ms),
        stats::percentile(&stats::sorted(&ms), 0.9),
        edges as f64 * ms.len() as f64 / (total_ms / 1e3).max(1e-9),
        cpu_ms,
        window.peak_rss_kb as f64 / 1024.0,
        stats::median(&modularity),
    ]
}
