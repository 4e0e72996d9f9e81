// The workspace-wide no-unsafe rule, with one audited exception:
// `src/signal.rs` declares the C `signal(2)` entry point for
// graceful-shutdown capture (DESIGN.md §16). `forbid` cannot be lifted
// even by that one module, so the crate denies unsafe code and lets
// `signal.rs` alone lift it; `parcom-audit` flags any unsafe outside the
// allowlisted file.
#![deny(unsafe_code)]
#![warn(missing_docs)]

//! # parcom-serve — the resident clustering daemon
//!
//! Loading a corpus graph dominates end-to-end latency for every CLI run:
//! parsing PGPgiantcompo takes longer than clustering it. This crate keeps
//! graphs *resident* — parsed once into CSR, held in memory under a name —
//! and answers detection requests against them over a hand-rolled HTTP/1.1
//! API (TCP and/or Unix domain socket; no external dependencies, the build
//! environment is offline).
//!
//! The request surface (DESIGN.md §13):
//!
//! * `PUT /graphs/{name}` — budgeted ingest (header admission *before*
//!   allocation) from a server-side path or inline METIS content.
//! * `POST /detect` — any registered algorithm via
//!   [`DetectorSpec`](parcom_core::DetectorSpec), run under a per-request
//!   [`Budget`]: deadline, sweep cap, and cancellation the moment the
//!   client disconnects (the detection runs on a compute thread while the
//!   connection thread keeps reading the socket). The response streams
//!   back chunked JSON embedding the full `parcom-run-report/v2`.
//! * `POST /graphs/{name}/edges` — buffered edge inserts/removes, folded
//!   into the CSR by a row merge every [`store::REBUILD_BATCH`] operations;
//!   detection snapshots always flush first, so results reflect every
//!   acknowledged edit.
//!
//! With `--state-dir` the daemon is **crash-safe** (DESIGN.md §16): every
//! accepted batch is appended to a per-graph write-ahead log ([`wal`])
//! before it is acknowledged, graphs are periodically checkpointed to
//! `.pcg` snapshots ([`persist`]), and boot-time recovery replays the log
//! tail against the last checkpoint — bit-identical to having applied
//! every batch synchronously. Overload and lifecycle are governed by the
//! admission [`gate`]: bounded detect concurrency (`429`), bounded
//! per-graph mutation queues (`429`), `503` until recovery completes and
//! while draining for shutdown, `GET /healthz` / `GET /readyz` probes.
//!
//! Threading model: one acceptor per listener, one thread per connection
//! (the socket's only reader), plus one scoped compute thread per in-flight
//! detection, which writes its own response. The store
//! itself is two-level locked (map lock for lookup, per-entry mutex for
//! mutation) so a rebuild of one graph never blocks requests to another.

pub mod conn;
pub mod gate;
pub mod http;
pub mod persist;
pub mod store;
pub mod wal;

pub mod handlers;

pub mod signal;

use conn::Conn;
use gate::{DetectPermit, Gate, RequestPermit};
use http::{error_body, respond_json, ReadError, Request, RequestReader};
use parcom_guard::{Budget, CancelToken};
use persist::Durability;
use std::io;
use std::net::TcpListener;
#[cfg(unix)]
use std::os::unix::net::UnixListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{Scope, ScopedJoinHandle};
use std::time::Duration;
use wal::FsyncPolicy;

use store::GraphStore;

/// Idle keep-alive timeout between requests on one connection.
const KEEP_ALIVE: Duration = Duration::from_secs(60);

/// Default cap on concurrent detections. Detections are internally
/// parallel; more than a few running at once thrash the same cores, so
/// excess requests are shed with `429` instead of queued.
pub const DEFAULT_MAX_DETECTS: usize = 4;

/// How long a graceful shutdown waits for in-flight requests to finish
/// before flushing and exiting anyway.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// Daemon configuration: where to listen, how much graph to admit, and
/// whether (and how durably) to persist state.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Unix-domain socket path to listen on (removed and re-bound at
    /// startup if it exists).
    pub socket: Option<PathBuf>,
    /// TCP address to listen on, e.g. `127.0.0.1:7071`.
    pub addr: Option<String>,
    /// Ingest admission cap on node count (`usize::MAX` = unlimited).
    pub max_nodes: usize,
    /// Ingest admission cap on edge count (`usize::MAX` = unlimited).
    pub max_edges: usize,
    /// State directory for WALs and checkpoints; `None` runs volatile.
    pub state_dir: Option<PathBuf>,
    /// When WAL appends reach stable storage (only meaningful with a
    /// state dir).
    pub fsync: FsyncPolicy,
    /// Cap on concurrent detections (`0` = unlimited).
    pub max_detects: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            socket: None,
            addr: None,
            max_nodes: usize::MAX,
            max_edges: usize::MAX,
            state_dir: None,
            fsync: FsyncPolicy::Always,
            max_detects: DEFAULT_MAX_DETECTS,
        }
    }
}

impl ServeConfig {
    /// The ingest admission budget: input limits only, checked against the
    /// METIS header before any allocation happens.
    pub fn ingest_budget(&self) -> Budget {
        if self.max_nodes == usize::MAX && self.max_edges == usize::MAX {
            Budget::unlimited()
        } else {
            Budget::unlimited().with_input_limits(self.max_nodes, self.max_edges)
        }
    }
}

/// Everything a request handler can reach: the store, the configuration,
/// the admission gate, and (with `--state-dir`) the durability layer.
pub struct ServerCtx {
    /// The resident graph registry.
    pub store: Arc<GraphStore>,
    /// The daemon configuration.
    pub config: ServeConfig,
    /// Admission gate: readiness, draining, concurrency caps.
    pub gate: Arc<Gate>,
    /// WAL + checkpoint layer; `None` without `--state-dir`.
    pub durability: Option<Arc<Durability>>,
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

/// A bound (but not yet serving) daemon.
pub struct Server {
    ctx: Arc<ServerCtx>,
    listeners: Vec<Listener>,
}

impl Server {
    /// Binds every listener named by `config` and opens the state
    /// directory when one is configured. At least one of `socket` / `addr`
    /// must be set. A stale socket file from a previous run is removed
    /// before binding. Recovery does *not* run here — it runs (in the
    /// background) inside [`Server::run`], and the gate answers `503`
    /// until it completes.
    pub fn bind(config: ServeConfig) -> io::Result<Self> {
        let mut listeners = Vec::new();
        if let Some(addr) = &config.addr {
            listeners.push(Listener::Tcp(TcpListener::bind(addr.as_str())?));
        }
        #[cfg(unix)]
        if let Some(path) = &config.socket {
            if path.exists() {
                std::fs::remove_file(path)?;
            }
            listeners.push(Listener::Unix(UnixListener::bind(path)?));
        }
        #[cfg(not(unix))]
        if config.socket.is_some() {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix sockets are not available on this platform",
            ));
        }
        if listeners.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "serve needs a socket path or a TCP address to listen on",
            ));
        }
        let durability = match &config.state_dir {
            Some(dir) => Some(Arc::new(Durability::open(dir, config.fsync)?)),
            None => None,
        };
        let gate = Arc::new(Gate::new(config.max_detects));
        Ok(Self {
            ctx: Arc::new(ServerCtx {
                store: Arc::new(GraphStore::new()),
                config,
                gate,
                durability,
            }),
            listeners,
        })
    }

    /// The shared store — exposed so embedders (tests, benches) can
    /// pre-load graphs without going through the API.
    pub fn store(&self) -> Arc<GraphStore> {
        Arc::clone(&self.ctx.store)
    }

    /// The shared request context.
    pub fn ctx(&self) -> Arc<ServerCtx> {
        Arc::clone(&self.ctx)
    }

    /// Serves forever: accepts on every bound listener, one thread per
    /// connection, with recovery running in the background until the gate
    /// turns ready. Only returns if *all* accept loops fail. On SIGTERM or
    /// SIGINT the process's one shutdown watcher drains and checkpoints
    /// this server together with every other one the process runs, then
    /// exits.
    pub fn run(self) -> io::Result<()> {
        let Server { ctx, listeners } = self;

        // Recovery runs concurrently with accepting: probes get answered
        // immediately (`/readyz` is 503 until the store is rebuilt), and
        // the moment recovery finishes the gate flips and requests flow.
        // Without a state dir there is nothing to recover — turn ready
        // before the first accept so no request can ever see a 503.
        if ctx.durability.is_some() {
            let ctx = Arc::clone(&ctx);
            std::thread::Builder::new()
                .name("parcom-serve-recover".into())
                .spawn(move || {
                    if let Some(durability) = &ctx.durability {
                        let started = std::time::Instant::now();
                        match durability.recover(&ctx.store) {
                            Ok(report) => eprintln!(
                                "parcom-serve: recovered {} graph(s), {} record(s) replayed \
                                 ({} warm, {} torn, {} fallback) in {:.1} ms",
                                report.graphs,
                                report.records_replayed,
                                report.warm,
                                report.torn_tails,
                                report.fallbacks,
                                started.elapsed().as_secs_f64() * 1e3
                            ),
                            Err(e) => eprintln!("parcom-serve: recovery failed: {e}"),
                        }
                    }
                    ctx.gate.set_ready();
                })?;
        } else {
            ctx.gate.set_ready();
        }

        register_for_shutdown(&ctx)?;

        let mut handles = Vec::new();
        for listener in listeners {
            let ctx = Arc::clone(&ctx);
            handles.push(
                std::thread::Builder::new()
                    .name("parcom-serve-accept".into())
                    .spawn(move || match listener {
                        // request/response turnarounds are small writes; Nagle
                        // + delayed-ACK stalls would add tens of ms per request
                        Listener::Tcp(l) => accept_loop(
                            l.incoming().map(|s| {
                                s.inspect(|s| {
                                    let _ = s.set_nodelay(true);
                                })
                            }),
                            ctx,
                        ),
                        #[cfg(unix)]
                        Listener::Unix(l) => accept_loop(l.incoming(), ctx),
                    })?,
            );
        }
        for handle in handles {
            let _ = handle.join();
        }
        Ok(())
    }
}

/// Every server this process runs, in the order they started serving.
/// The one shutdown watcher ([`register_for_shutdown`]) drains and
/// checkpoints them all.
static SERVERS: Mutex<Vec<Arc<ServerCtx>>> = Mutex::new(Vec::new());

/// Starts the process's one shutdown watcher on the first call, and
/// registers `ctx` with it. A process that hosts several servers installs
/// the signal handler once and exits once, after every server has
/// checkpointed.
fn register_for_shutdown(ctx: &Arc<ServerCtx>) -> io::Result<()> {
    static WATCHER: OnceLock<()> = OnceLock::new();
    lock_servers().push(Arc::clone(ctx));
    if WATCHER.set(()).is_ok() {
        signal::install();
        std::thread::Builder::new()
            .name("parcom-serve-shutdown".into())
            .spawn(|| loop {
                if signal::requested() {
                    shutdown();
                }
                std::thread::sleep(Duration::from_millis(50));
            })?;
    }
    Ok(())
}

fn lock_servers() -> MutexGuard<'static, Vec<Arc<ServerCtx>>> {
    SERVERS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The graceful-shutdown sequence (SIGTERM/SIGINT, DESIGN.md §16), over
/// every registered server: stop admitting, drain in-flight requests
/// (bounded by [`DRAIN_TIMEOUT`]), flush every WAL, checkpoint every dirty
/// graph, exit. The registry stays locked, so a server that starts during
/// the shutdown never serves.
fn shutdown() -> ! {
    let servers = lock_servers();
    eprintln!("parcom-serve: shutdown requested, draining");
    for ctx in servers.iter() {
        ctx.gate.start_drain();
    }
    let deadline = std::time::Instant::now() + DRAIN_TIMEOUT;
    while servers.iter().any(|ctx| ctx.gate.inflight() > 0) && std::time::Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(10));
    }
    for ctx in servers.iter() {
        if let Some(durability) = &ctx.durability {
            let done = durability.checkpoint_all(&ctx.store);
            eprintln!("parcom-serve: flushed WALs, checkpointed {done} graph(s)");
        }
        if let Some(path) = &ctx.config.socket {
            let _ = std::fs::remove_file(path);
        }
    }
    std::process::exit(0);
}

fn accept_loop<S, I>(incoming: I, ctx: Arc<ServerCtx>)
where
    S: Conn + 'static,
    I: Iterator<Item = io::Result<S>>,
{
    for stream in incoming {
        let Ok(stream) = stream else { continue };
        let ctx = Arc::clone(&ctx);
        let _ = std::thread::Builder::new()
            .name("parcom-serve-conn".into())
            .spawn(move || {
                let mut boxed: Box<dyn Conn> = Box::new(stream);
                serve_connection(&mut boxed, &ctx);
            });
    }
}

/// A `POST /detect` running on its own compute thread. The thread owns
/// the request, both admission permits and a writer handle to the socket,
/// and writes the chunked response itself the moment it is computed; the
/// permits are released by it, not by the connection.
struct DetectJob<'scope> {
    token: CancelToken,
    handle: ScopedJoinHandle<'scope, bool>,
}

impl<'scope> DetectJob<'scope> {
    fn spawn<'env>(
        scope: &'scope Scope<'scope, 'env>,
        conn: &dyn Conn,
        store: &'env GraphStore,
        request: Request,
        permits: (Option<RequestPermit>, DetectPermit),
    ) -> io::Result<Self> {
        let mut writer = conn.try_clone_conn()?;
        // the connection loop closes the socket after this reply when the
        // client asked it to, and the reply must say so
        let keep_alive = !request.wants_close();
        let token = CancelToken::new();
        let job_token = token.clone();
        let handle = std::thread::Builder::new()
            .name("parcom-serve-detect".into())
            .spawn_scoped(scope, move || {
                let (_request_permit, detect_permit) = permits;
                // A panicking detection (the store tolerates one: see
                // `store::lock_entry`) must still answer, or the client
                // would wait on a connection its reader keeps open.
                let reply = catch_unwind(AssertUnwindSafe(|| {
                    handlers::detect_reply(store, &request.body, job_token)
                }))
                .unwrap_or_else(|_| (500, error_body("detection panicked")).into());
                // The detect slot bounds compute, and is free again before
                // the client can have read the answer and sent its next.
                drop(detect_permit);
                reply.write(&mut *writer, keep_alive).is_ok()
            })?;
        Ok(Self { token, handle })
    }

    /// Waits until the response is on the wire; `false` when writing it
    /// failed and the connection is done for.
    fn join(self) -> bool {
        self.handle.join().unwrap_or(false)
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Runs the keep-alive request loop of one connection until the client
/// closes, asks to close, or errors.
///
/// This thread is the socket's only reader. A `POST /detect` is handed to
/// a scoped [`DetectJob`] and the loop goes straight back to reading, so a
/// hang-up (EOF, I/O error) is seen the moment it happens and cancels the
/// job's token, while bytes a client pipelines during the detection simply
/// land in the request buffer. A complete next request joins the pending
/// job before it is handled, which keeps responses in request order.
fn serve_connection(conn: &mut Box<dyn Conn>, ctx: &ServerCtx) {
    std::thread::scope(|scope| {
        let mut reader = RequestReader::new();
        let mut job: Option<DetectJob<'_>> = None;
        loop {
            if conn.set_read_timeout_conn(Some(KEEP_ALIVE)).is_err() {
                break;
            }
            let request = match reader.read_request(&mut **conn) {
                Ok(request) => request,
                // An idle timeout while a detection runs just re-arms; one
                // that finds the job finished forgets it and starts the idle
                // clock from there.
                Err(ReadError::Io(e)) if is_timeout(&e) && job.is_some() => {
                    job.take_if(|j| j.handle.is_finished());
                    continue;
                }
                Err(ReadError::Closed) | Err(ReadError::Io(_)) => break,
                Err(ReadError::Bad(status, message)) => {
                    if job.take().is_none_or(DetectJob::join) {
                        let _ = respond_json(&mut **conn, status, &error_body(&message), false);
                    }
                    break;
                }
            };
            if job.take().is_some_and(|j| !j.join()) {
                break;
            }
            let close = request.wants_close();

            // Health probes bypass admission entirely; everything else is
            // refused while recovery runs or a drain is in progress.
            let probe =
                request.method == "GET" && matches!(request.path.as_str(), "/healthz" | "/readyz");
            let permit = if probe {
                None
            } else {
                if !ctx.gate.is_ready() {
                    let ok = respond_json(
                        &mut **conn,
                        503,
                        &error_body("recovery in progress; retry shortly"),
                        !close,
                    )
                    .is_ok();
                    if !ok || close {
                        break;
                    }
                    continue;
                }
                match ctx.gate.enter_request() {
                    Some(permit) => Some(permit),
                    None => {
                        let _ = respond_json(
                            &mut **conn,
                            503,
                            &error_body("daemon is draining for shutdown"),
                            false,
                        );
                        break;
                    }
                }
            };

            let ok = if request.method == "POST" && request.path == "/detect" {
                match ctx.gate.enter_detect() {
                    None => {
                        let body = error_body(&format!(
                            "detect concurrency cap ({}) reached; retry shortly",
                            ctx.gate.max_detects()
                        ));
                        respond_json(&mut **conn, 429, &body, !close).is_ok()
                    }
                    Some(detect_permit) => {
                        let permits = (permit, detect_permit);
                        match DetectJob::spawn(scope, &**conn, &ctx.store, request, permits) {
                            Ok(spawned) if close => spawned.join(),
                            Ok(spawned) => {
                                job = Some(spawned);
                                true
                            }
                            Err(e) => {
                                let body = error_body(&format!("could not start detection: {e}"));
                                respond_json(&mut **conn, 500, &body, !close).is_ok()
                            }
                        }
                    }
                }
            } else {
                let (status, body) = handlers::handle(ctx, &request);
                respond_json(&mut **conn, status, &body, !close).is_ok()
            };
            if !ok || close {
                break;
            }
        }
        // Every exit that leaves a job behind means the client is gone.
        if let Some(job) = job {
            job.token.cancel();
        }
    })
}
