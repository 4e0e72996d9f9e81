//! Tier-1 durability integration test — no fault-injection features
//! required. Exercises the durable daemon lifecycle end-to-end over a
//! Unix socket: readiness probes, WAL-before-ack acknowledgements, the
//! explicit checkpoint endpoint, bounded-queue overload shedding, and a
//! warm restart against the same state directory that must answer a
//! deterministic detection identically to the pre-restart daemon, and a
//! SIGTERM that drains, checkpoints and exits cleanly, once for every
//! server in the process.

#![cfg(unix)]

mod util;

use parcom_obs::json::Value;
use parcom_serve::store::MAX_PENDING_OPS;
use parcom_serve::wal;
use parcom_serve::{ServeConfig, Server};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;
use util::{get_bool, get_u64, wait_ready, Client, Daemon};

/// Boots an in-process daemon on `socket`, optionally durable.
fn boot(socket: &Path, state_dir: Option<&Path>) -> Client {
    let server = Server::bind(ServeConfig {
        socket: Some(socket.to_path_buf()),
        state_dir: state_dir.map(Path::to_path_buf),
        ..ServeConfig::default()
    })
    .unwrap();
    std::thread::spawn(move || server.run());
    wait_ready(socket, Duration::from_secs(10))
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("parcom_durab_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn durable_lifecycle_probes_shedding_and_warm_restart() {
    let dir = scratch("lifecycle");
    let state_dir = dir.join("state");
    let mut client = boot(&dir.join("a.sock"), Some(&state_dir));

    // Probes: alive, ready, durable.
    let (status, v) = client.request("GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(get_bool(&v, "ready") && get_bool(&v, "durable"));
    assert!(!get_bool(&v, "draining"));
    let (status, v) = client.request("GET", "/readyz", "");
    assert_eq!(status, 200);
    assert!(get_bool(&v, "ready"));

    // Loading a graph persists its first checkpoint + empty log.
    let (g, _) = parcom_generators::ring_of_cliques(4, 5);
    let (status, v) = client.request("PUT", "/graphs/ring", &util::metis_body(&g));
    assert_eq!(status, 201, "{v:?}");
    assert!(get_bool(&v, "durable"));
    let paths = parcom_io::state_paths(&state_dir, "ring");
    assert!(paths.pcg.exists() && paths.wal.exists());

    // A batch is WAL-appended before it is acknowledged: the ack carries
    // the record's sequence number.
    let (status, v) = client.request(
        "POST",
        "/graphs/ring/edges",
        "{\"insert\":[[0,7,2.5],[3,12,1.5]]}",
    );
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(get_u64(&v, "accepted"), 2);
    assert_eq!(get_u64(&v, "seq"), 1);
    assert!(get_bool(&v, "durable"));
    assert!(!get_bool(&v, "checkpointed"));

    // Overload shedding: one batch that would overflow the bounded
    // mutation queue is refused with 429 (Retry-After asserted by the
    // client) and leaves no trace — the sequence number does not move.
    let rows: Vec<String> = (0..=MAX_PENDING_OPS)
        .map(|i| format!("[{},{}]", i % 50, 50 + i % 50))
        .collect();
    let huge = format!("{{\"insert\":[{}]}}", rows.join(","));
    let (status, v) = client.request("POST", "/graphs/ring/edges", &huge);
    assert_eq!(status, 429, "{v:?}");
    let (status, v) = client.request("GET", "/graphs", "");
    assert_eq!(status, 200);
    let listed = v.get("graphs").and_then(Value::as_array).unwrap();
    assert_eq!(get_u64(&listed[0], "seq"), 1);
    assert!(get_bool(&listed[0], "durable"));

    // Explicit checkpoint: folds the pending tail and rotates the log.
    let (status, v) = client.request("POST", "/graphs/ring/checkpoint", "");
    assert_eq!(status, 200, "{v:?}");
    assert!(get_bool(&v, "checkpointed"));
    assert_eq!(get_u64(&v, "seq"), 1);
    let (status, _) = client.request("POST", "/graphs/nope/checkpoint", "");
    assert_eq!(status, 404);

    // Deterministic detection answer before the restart.
    let detect_body =
        "{\"graph\":\"ring\",\"spec\":\"plm:move=coloring,seed=1\",\"include_partition\":true}";
    let (status, before) = client.request("POST", "/detect", detect_body);
    assert_eq!(status, 200, "{before:?}");

    // Warm restart: a second daemon over the same state directory
    // recovers the graph and answers bit-identically. (The first daemon
    // stays idle; recovery only reads its files.)
    let mut client2 = boot(&dir.join("b.sock"), Some(&state_dir));
    let (status, v) = client2.request("GET", "/graphs", "");
    assert_eq!(status, 200);
    let listed = v.get("graphs").and_then(Value::as_array).unwrap();
    assert_eq!(listed.len(), 1, "{v:?}");
    assert_eq!(get_u64(&listed[0], "seq"), 1);
    let (status, after) = client2.request("POST", "/detect", detect_body);
    assert_eq!(status, 200, "{after:?}");
    for key in ["nodes", "edges", "communities"] {
        assert_eq!(get_u64(&before, key), get_u64(&after, key), "{key}");
    }
    assert_eq!(
        before.get("partition").and_then(Value::as_array),
        after.get("partition").and_then(Value::as_array)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn volatile_daemon_reports_not_durable_and_refuses_checkpoints() {
    let dir = scratch("volatile");
    let mut client = boot(&dir.join("v.sock"), None);
    let (status, v) = client.request("GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(!get_bool(&v, "durable"));

    let (g, _) = parcom_generators::ring_of_cliques(2, 4);
    let (status, v) = client.request("PUT", "/graphs/tiny", &util::metis_body(&g));
    assert_eq!(status, 201);
    assert!(!get_bool(&v, "durable"));
    let (status, v) = client.request("POST", "/graphs/tiny/checkpoint", "");
    assert_eq!(status, 409, "{v:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sigterm_checkpoints_exits_cleanly_and_restarts_at_the_acked_seq() {
    let dir = scratch("sigterm");
    let state_dir = dir.join("state");
    let socket = dir.join("t.sock");
    let mut daemon = Daemon::spawn(&state_dir, &socket, None);
    let mut client = daemon.wait_ready();

    let (g, _) = parcom_generators::ring_of_cliques(4, 5);
    let (status, v) = client.request("PUT", "/graphs/ring", &util::metis_body(&g));
    assert_eq!(status, 201, "{v:?}");
    let (status, v) = client.request(
        "POST",
        "/graphs/ring/edges",
        "{\"insert\":[[0,7,2.5],[3,12,1.5]],\"remove\":[[0,1]]}",
    );
    assert_eq!(status, 200, "{v:?}");
    let acked = get_u64(&v, "seq");
    assert_eq!(acked, 1);
    let detect_body =
        "{\"graph\":\"ring\",\"spec\":\"plm:move=coloring,seed=1\",\"include_partition\":true}";
    let (status, before) = client.request("POST", "/detect", detect_body);
    assert_eq!(status, 200, "{before:?}");
    drop(client);

    // SIGTERM drains, checkpoints every graph with logged ops, removes
    // the socket and exits 0.
    let status = daemon.terminate();
    assert!(status.success(), "SIGTERM exit: {status}");
    assert!(!socket.exists(), "socket left behind after SIGTERM");
    // The shutdown checkpoint started a fresh log era above the acked seq.
    let replay = wal::replay(&parcom_io::state_paths(&state_dir, "ring").wal).unwrap();
    assert!(replay.records.is_empty(), "{:?}", replay.records);
    assert_eq!(replay.base_seq, acked);

    // A restart on the same state dir recovers the graph at the acked seq
    // and answers the deterministic detect as before the shutdown.
    let daemon = Daemon::spawn(&state_dir, &socket, None);
    let mut client = daemon.wait_ready();
    let (status, v) = client.request("GET", "/graphs", "");
    assert_eq!(status, 200);
    let listed = v.get("graphs").and_then(Value::as_array).unwrap();
    assert_eq!(listed.len(), 1, "{v:?}");
    assert_eq!(get_u64(&listed[0], "seq"), acked);
    let (status, after) = client.request("POST", "/detect", detect_body);
    assert_eq!(status, 200, "{after:?}");
    for key in ["nodes", "edges", "communities"] {
        assert_eq!(get_u64(&before, key), get_u64(&after, key), "{key}");
    }
    assert_eq!(before.get("partition"), after.get("partition"));
    let modularity = |v: &Value| {
        let metrics = v.get("report").and_then(|r| r.get("metrics"));
        let q = metrics.and_then(|m| m.get("modularity"));
        q.and_then(Value::as_f64).unwrap().to_bits()
    };
    assert_eq!(modularity(&before), modularity(&after));
    drop(daemon);
    std::fs::remove_dir_all(&dir).ok();
}

/// Set only in the child process of
/// `one_sigterm_checkpoints_every_server_in_the_process`: the directory
/// its two servers keep their sockets and state in.
const TWO_SERVERS_DIR: &str = "PARCOM_TEST_TWO_SERVERS_DIR";

#[test]
fn one_sigterm_checkpoints_every_server_in_the_process() {
    const NAMES: [&str; 2] = ["a", "b"];
    if let Some(dir) = std::env::var_os(TWO_SERVERS_DIR) {
        // The child: this test binary again, running two durable servers
        // until the signal's shutdown ends the process.
        let dir = PathBuf::from(dir);
        for name in NAMES {
            let server = Server::bind(ServeConfig {
                socket: Some(dir.join(format!("{name}.sock"))),
                state_dir: Some(dir.join(name)),
                ..ServeConfig::default()
            })
            .unwrap();
            std::thread::spawn(move || server.run());
        }
        loop {
            std::thread::park();
        }
    }

    let dir = scratch("two_servers");
    let mut cmd = Command::new(std::env::current_exe().unwrap());
    cmd.args([
        "--exact",
        "one_sigterm_checkpoints_every_server_in_the_process",
    ])
    .env(TWO_SERVERS_DIR, &dir);
    let sockets = NAMES.map(|name| dir.join(format!("{name}.sock")));
    let mut daemon = Daemon::start(cmd, &sockets[0]);
    let (g, _) = parcom_generators::ring_of_cliques(4, 5);
    for socket in &sockets {
        let mut client = wait_ready(socket, Duration::from_secs(20));
        let (status, v) = client.request("PUT", "/graphs/ring", &util::metis_body(&g));
        assert_eq!(status, 201, "{v:?}");
        let (status, v) = client.request("POST", "/graphs/ring/edges", "{\"insert\":[[0,7,2.5]]}");
        assert_eq!(status, 200, "{v:?}");
        assert_eq!(get_u64(&v, "seq"), 1);
    }

    // One SIGTERM: both servers drain, both checkpoint above their acked
    // seq, both sockets go, and the process exits 0 once.
    let status = daemon.terminate();
    assert!(status.success(), "SIGTERM exit: {status}");
    for (name, socket) in NAMES.iter().zip(&sockets) {
        assert!(!socket.exists(), "{name}: socket left behind after SIGTERM");
        let replay = wal::replay(&parcom_io::state_paths(&dir.join(name), "ring").wal).unwrap();
        assert!(replay.records.is_empty(), "{name}: {:?}", replay.records);
        assert_eq!(replay.base_seq, 1, "{name}: not checkpointed at shutdown");
    }
    drop(daemon);
    std::fs::remove_dir_all(&dir).ok();
}
