//! End-to-end daemon test over a Unix domain socket: boot the server, load
//! an inline METIS graph, detect, exhaust a deadline, mutate edges, and
//! detect again on the rebuilt CSR — all through the HTTP API with a
//! hand-rolled client on one keep-alive connection.

#![cfg(unix)]

mod util;

use parcom_obs::json::{self, Value};
use parcom_serve::{ServeConfig, Server, ServerCtx};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use util::{get_str, get_u64, Client};

/// A PLM run on [`slow_graph`] takes long enough that whatever the test
/// does next happens while it is still running.
const SLOW_DETECT: &str = "{\"graph\":\"slow\",\"spec\":\"plm:seed=1\"}";

/// A detection that is over at once, on the 20-node ring.
const QUICK_DETECT: &str = "{\"graph\":\"ring\",\"spec\":\"plp\"}";

fn slow_graph() -> parcom_graph::Graph {
    parcom_generators::barabasi_albert(100_000, 12, 5)
}

/// Boots a daemon admitting one detection at a time, with [`slow_graph`]
/// and a tiny ring resident.
fn boot(tag: &str) -> (Arc<ServerCtx>, PathBuf) {
    let dir = std::env::temp_dir().join(format!("parcom_serve_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("daemon.sock");
    let server = Server::bind(ServeConfig {
        socket: Some(socket.clone()),
        max_detects: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let ctx = server.ctx();
    ctx.store.insert("slow", slow_graph(), None);
    ctx.store
        .insert("ring", parcom_generators::ring_of_cliques(4, 5).0, None);
    std::thread::spawn(move || server.run());
    (ctx, socket)
}

/// Polls an observable daemon state instead of sleeping a fixed time.
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn hang_up_mid_detect_cancels_the_run_and_returns_the_permit() {
    let (ctx, socket) = boot("hangup");
    let idle = || ctx.gate.detects() == 0 && ctx.gate.inflight() == 0;

    // A half-close is a hang-up the client can still observe the outcome
    // of: the run degrades to `cancelled` instead of finishing.
    let mut client = Client::connect(&socket);
    client.send(&[("POST", "/detect", SLOW_DETECT)]).unwrap();
    wait_until("the detect is running", || ctx.gate.detects() == 1);
    client.half_close();
    let (status, v) = client.read_response().unwrap();
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(get_str(&v, "termination"), "cancelled");
    wait_until("the permits return", idle);

    // A full hang-up: nobody reads the answer, the permit still returns.
    let mut client = Client::connect(&socket);
    client.send(&[("POST", "/detect", SLOW_DETECT)]).unwrap();
    wait_until("the detect is running", || ctx.gate.detects() == 1);
    drop(client);
    wait_until("the permits return", idle);

    // The daemon keeps serving, and the single detect slot is free.
    let mut client = Client::connect(&socket);
    let (status, _) = client.request("GET", "/healthz", "");
    assert_eq!(status, 200);
    let (status, v) = client.request("POST", "/detect", QUICK_DETECT);
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(get_str(&v, "termination"), "converged");
}

#[test]
fn request_pipelined_behind_a_running_detect_is_answered_after_it() {
    let (ctx, socket) = boot("pipeline");
    let mut client = Client::connect(&socket);
    // One write: the GET is already buffered while the detect runs.
    client
        .send(&[("POST", "/detect", SLOW_DETECT), ("GET", "/graphs", "")])
        .unwrap();
    let (status, v) = client.read_response().unwrap();
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(get_str(&v, "schema"), "parcom-serve-detect/v1");
    assert_eq!(get_str(&v, "termination"), "converged");
    let (status, v) = client.read_response().unwrap();
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(get_str(&v, "schema"), "parcom-serve/v1");
    assert_eq!(v.get("graphs").and_then(Value::as_array).unwrap().len(), 2);

    // The same, but with the second request arriving mid-run.
    client.send(&[("POST", "/detect", SLOW_DETECT)]).unwrap();
    wait_until("the detect is running", || ctx.gate.detects() == 1);
    client.send(&[("GET", "/healthz", "")]).unwrap();
    let (_, v) = client.read_response().unwrap();
    assert_eq!(get_str(&v, "schema"), "parcom-serve-detect/v1");
    let (_, v) = client.read_response().unwrap();
    assert_eq!(get_str(&v, "status"), "ok");
}

#[test]
fn idle_keep_alive_connection_holds_no_detect_permit() {
    let (ctx, socket) = boot("idle");
    let mut idler = Client::connect(&socket);
    let (status, _) = idler.request("POST", "/detect", QUICK_DETECT);
    assert_eq!(status, 200);
    wait_until("the permits return", || {
        ctx.gate.detects() == 0 && ctx.gate.inflight() == 0
    });
    // With one slot in total, another connection's detect is admitted
    // while the first connection stays open.
    let mut other = Client::connect(&socket);
    let (status, v) = other.request("POST", "/detect", QUICK_DETECT);
    assert_eq!(status, 200, "{v:?}");
    let (status, _) = idler.request("GET", "/healthz", "");
    assert_eq!(status, 200, "the idle connection is still served");
}

#[test]
fn full_lifecycle_over_unix_socket() {
    let dir = std::env::temp_dir().join(format!("parcom_serve_it_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("daemon.sock");
    let server = Server::bind(ServeConfig {
        socket: Some(socket.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    std::thread::spawn(move || server.run());
    let mut client = Client::connect(&socket);

    // liveness
    let (status, v) = client.request("GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(get_str(&v, "status"), "ok");
    assert_eq!(get_u64(&v, "graphs"), 0);

    // load an inline METIS graph: 4 cliques of 5 in a ring
    let (g, _) = parcom_generators::ring_of_cliques(4, 5);
    let mut metis = Vec::new();
    parcom_io::write_metis_to(&g, &mut metis).unwrap();
    let mut body = String::from("{\"content\":");
    json::write_str(&mut body, std::str::from_utf8(&metis).unwrap());
    body.push('}');
    let (status, v) = client.request("PUT", "/graphs/ring", &body);
    assert_eq!(status, 201, "{v:?}");
    assert_eq!(get_u64(&v, "nodes"), 20);
    assert_eq!(get_u64(&v, "edges"), g.edge_count() as u64);

    // a clean detection recovers the 4 cliques and embeds a v2 run report
    let (status, v) = client.request(
        "POST",
        "/detect",
        "{\"graph\":\"ring\",\"spec\":\"plm:seed=3\",\"include_partition\":true}",
    );
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(get_str(&v, "schema"), "parcom-serve-detect/v1");
    assert_eq!(get_str(&v, "termination"), "converged");
    assert_eq!(get_u64(&v, "communities"), 4);
    assert_eq!(get_u64(&v, "generation"), 0);
    let report = v.get("report").expect("embedded report");
    assert_eq!(get_str(report, "schema"), "parcom-run-report/v2");
    assert_eq!(get_str(report, "algorithm"), "PLM");
    let partition = v.get("partition").and_then(Value::as_array).unwrap();
    assert_eq!(partition.len(), 20);
    // golden: the envelope's keys, in emission order
    let keys: Vec<&str> = v
        .entries()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "schema",
            "graph",
            "spec",
            "generation",
            "nodes",
            "edges",
            "termination",
            "communities",
            "snapshot",
            "report",
            "partition"
        ]
    );
    let snapshot = v.get("snapshot").unwrap();
    assert_eq!(get_u64(snapshot, "folded_ops"), 0);
    assert_eq!(snapshot.get("fold_ms").and_then(Value::as_f64), Some(0.0));

    // an already-expired deadline terminates with "deadline" but still
    // returns a valid (degraded) result
    let (status, v) = client.request(
        "POST",
        "/detect",
        "{\"graph\":\"ring\",\"spec\":\"plm\",\"budget\":{\"timeout_ms\":0}}",
    );
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(get_str(&v, "termination"), "deadline");

    // spec errors surface with the registry enumerated
    let (status, v) = client.request("POST", "/detect", "{\"graph\":\"ring\",\"spec\":\"florp\"}");
    assert_eq!(status, 422);
    assert!(get_str(&v, "error").contains("plmr"), "{v:?}");

    // merge cliques 0 and 1 by inserting the missing pairs, forcing a
    // rebuild; the next detection sees 3 communities at generation 1
    let mut inserts = Vec::new();
    for u in 0..5u32 {
        for w in 5..10u32 {
            inserts.push(format!("[{u},{w}]"));
        }
    }
    let body = format!("{{\"insert\":[{}],\"rebuild\":true}}", inserts.join(","));
    let (status, v) = client.request("POST", "/graphs/ring/edges", &body);
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(get_str(&v, "schema"), "parcom-serve/v1");
    assert_eq!(get_u64(&v, "generation"), 1);
    assert_eq!(v.get("rebuilt").and_then(Value::as_bool), Some(true));
    assert_eq!(get_u64(&v, "pending"), 0);

    let (status, v) = client.request(
        "POST",
        "/detect",
        "{\"graph\":\"ring\",\"spec\":{\"algo\":\"plm\",\"seed\":3}}",
    );
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(get_u64(&v, "communities"), 3);
    assert_eq!(get_u64(&v, "generation"), 1);

    // a batch left pending is folded by the next detection, which says so
    let (status, v) = client.request("POST", "/graphs/ring/edges", "{\"remove\":[[0,5],[0,6]]}");
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(get_u64(&v, "pending"), 2);
    let (status, v) = client.request("POST", "/detect", QUICK_DETECT);
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(get_u64(&v, "generation"), 2);
    assert_eq!(get_u64(v.get("snapshot").unwrap(), "folded_ops"), 2);

    // listing reflects the rebuilt graph; eviction empties the store
    let (status, v) = client.request("GET", "/graphs", "");
    assert_eq!(status, 200);
    let graphs = v.get("graphs").and_then(Value::as_array).unwrap();
    assert_eq!(graphs.len(), 1);
    assert_eq!(get_str(&graphs[0], "name"), "ring");
    assert_eq!(get_u64(&graphs[0], "rebuilds"), 2);

    let (status, _) = client.request("DELETE", "/graphs/ring", "");
    assert_eq!(status, 200);
    let (status, v) = client.request("POST", "/detect", QUICK_DETECT);
    assert_eq!(status, 404, "{v:?}");

    std::fs::remove_dir_all(&dir).ok();
}
