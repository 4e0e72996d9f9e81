//! End-to-end daemon test over a Unix domain socket: boot the server, load
//! an inline METIS graph, detect, exhaust a deadline, mutate edges, and
//! detect again on the rebuilt CSR — all through the HTTP API with a
//! hand-rolled client on one keep-alive connection. The second half holds
//! the warm-start cache to its edges: what makes a detection warm, what
//! refreshes a slot, and everything that must drop or bypass one.

#![cfg(unix)]

mod util;

use parcom_core::{CommunityDetector, DetectorSpec};
use parcom_graph::relabel::Relabeling;
use parcom_obs::json::{self, Value};
use parcom_serve::store::{EdgeOp, GraphEntry, WARM_SLOTS};
use parcom_serve::{ServeConfig, Server, ServerCtx};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use util::{get_bool, get_str, get_u64, Client, Daemon};

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
fn a_detect_asking_to_close_is_answered_with_connection_close() {
    use std::io::{Read, Write};
    let (_ctx, socket) = boot("close");
    let mut stream = std::os::unix::net::UnixStream::connect(&socket).unwrap();
    write!(
        stream,
        "POST /detect HTTP/1.1\r\nHost: parcom\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{QUICK_DETECT}",
        QUICK_DETECT.len()
    )
    .unwrap();
    // the daemon closes the socket after the reply, so this ends
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    let head = &reply[..reply.find("\r\n\r\n").expect("a complete head")];
    assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
    assert!(head.contains("\r\nConnection: close"), "{head}");
    assert!(!head.contains("keep-alive"), "{head}");
}

#[test]
fn an_edge_naming_node_u32_max_is_refused_and_the_graph_keeps_answering() {
    // a graph holding node 4294967295 would have 2^32 nodes: the batch is
    // refused up front instead of wedging every later fold of the graph
    let (_ctx, socket) = boot("max_id");
    let mut client = Client::connect(&socket);
    let (status, v) = client.request(
        "POST",
        "/graphs/ring/edges",
        "{\"insert\":[[0,4294967295]]}",
    );
    assert_eq!(status, 400, "{v:?}");
    let (status, v) = client.request("POST", "/detect", QUICK_DETECT);
    assert_eq!(status, 200, "{v:?}");
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
    // an unweighted graph holds offsets, targets and two per-node caches,
    // and no weights: 8(n + 1) + 4·2m + 16n bytes (no self-loops)
    let csr_bytes = |n: u64, m: u64| 8 * (n + 1) + 4 * 2 * m + 16 * n;
    let (status, v) = client.request("GET", "/graphs", "");
    assert_eq!(status, 200);
    let listed = &v.get("graphs").and_then(Value::as_array).unwrap()[0];
    let m = g.edge_count() as u64;
    assert_eq!(get_u64(listed, "resident_bytes"), csr_bytes(20, m));
    assert_eq!(get_u64(listed, "spare_bytes"), 0);

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
            "warm",
            "base_generation",
            "report",
            "partition"
        ]
    );
    let snapshot = v.get("snapshot").unwrap();
    assert_eq!(get_u64(snapshot, "folded_ops"), 0);
    assert_eq!(snapshot.get("fold_ms").and_then(Value::as_f64), Some(0.0));
    assert_eq!(
        snapshot.get("recycled").and_then(Value::as_bool),
        Some(false)
    );
    let keys: Vec<&str> = (snapshot.entries().unwrap().iter())
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["folded_ops", "fold_ms", "recycled"]);

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
    // a retired knob value is a spec error like any other, and the
    // connection answers the next well-formed detect
    let (status, v) = client.request(
        "POST",
        "/detect",
        "{\"graph\":\"ring\",\"spec\":\"plm:move=sync\"}",
    );
    assert_eq!(status, 422);
    let error = get_str(&v, "error");
    assert!(
        error.contains("expected one of racy|coloring, got `sync`"),
        "{error}"
    );
    // so is a retired knob
    let (status, v) = client.request(
        "POST",
        "/detect",
        "{\"graph\":\"ring\",\"spec\":\"plp:randomized=true\"}",
    );
    assert_eq!(status, 422);
    let error = get_str(&v, "error");
    assert!(
        error.contains("algorithm `plp` accepts no knob `randomized` (accepted: seed)"),
        "{error}"
    );
    let (status, v) = client.request(
        "POST",
        "/detect",
        "{\"graph\":\"ring\",\"spec\":\"plm:move=coloring\"}",
    );
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(get_u64(&v, "communities"), 4);

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
    // an edited graph holds its CSR and the one the last fold retired,
    // both still unit: every insert had weight 1 (the spare has the two
    // edges the last batch removed)
    let m = get_u64(&graphs[0], "edges");
    assert_eq!(get_u64(&graphs[0], "resident_bytes"), csr_bytes(20, m));
    assert_eq!(get_u64(&graphs[0], "spare_bytes"), csr_bytes(20, m + 2));

    let (status, _) = client.request("DELETE", "/graphs/ring", "");
    assert_eq!(status, 200);
    let (status, v) = client.request("POST", "/detect", QUICK_DETECT);
    assert_eq!(status, 404, "{v:?}");

    std::fs::remove_dir_all(&dir).ok();
}

/// An inline-content `PUT` goes through the same loader as a path: it is
/// measured like one, and its status comes from the error's kind — too
/// big is 413, malformed is 422, whatever words the body contains.
#[test]
fn inline_content_is_measured_and_rejected_by_kind() {
    let dir = std::env::temp_dir().join(format!("parcom_serve_inline_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("daemon.sock");
    let server = Server::bind(ServeConfig {
        socket: Some(socket.clone()),
        max_edges: 2000,
        ..ServeConfig::default()
    })
    .unwrap();
    std::thread::spawn(move || server.run());
    let mut client = Client::connect(&socket);
    let put = |client: &mut Client, name: &str, content: &str| {
        let mut body = String::from("{\"content\":");
        json::write_str(&mut body, content);
        body.push('}');
        client.request("PUT", &format!("/graphs/{name}"), &body)
    };
    let metis = |g: &parcom_graph::Graph| {
        let mut text = Vec::new();
        parcom_io::write_metis_to(g, &mut text).unwrap();
        String::from_utf8(text).unwrap()
    };

    // 1840 edges, inside the limit: a real load time and byte count
    let text = metis(&parcom_generators::ring_of_cliques(40, 10).0);
    let (status, v) = put(&mut client, "in", &text);
    assert_eq!(status, 201, "{v:?}");
    assert_eq!(get_str(&v, "format"), "metis");
    assert_eq!(get_u64(&v, "load_bytes"), text.len() as u64, "{v:?}");
    let load_ms = v.get("load_ms").and_then(Value::as_f64).unwrap();
    assert!(load_ms > 0.0, "{v:?}");

    // malformed, and the message happens to say "exceed": still 422
    let (status, v) = put(&mut client, "bad", "2 1\nexceed\n1\n");
    assert_eq!(status, 422, "{v:?}");
    assert!(get_str(&v, "error").contains("bad neighbor id"), "{v:?}");

    // line 1 lists node 2, line 2 is empty: an asymmetric file is malformed
    let (status, v) = put(&mut client, "asymmetric", "2 1\n2\n\n");
    assert_eq!(status, 422, "{v:?}");
    assert!(
        get_str(&v, "error").contains("asymmetric edge {1, 2}"),
        "{v:?}"
    );

    // 2300 edges, over --max-edges: refused at the header with 413
    let text = metis(&parcom_generators::ring_of_cliques(50, 10).0);
    let (status, v) = put(&mut client, "big", &text);
    assert_eq!(status, 413, "{v:?}");
    assert!(get_str(&v, "error").contains("ingest limit"), "{v:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A `.pcg` whose checksums hold but whose header overstates m is refused
/// as malformed, and a refused `PUT` by path leaves the store as it was —
/// the graph it would have replaced included.
#[test]
fn a_pcg_lying_about_its_edge_count_is_refused_without_touching_the_store() {
    let dir = std::env::temp_dir().join(format!("parcom_serve_liar_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("daemon.sock");
    let server = Server::bind(ServeConfig {
        socket: Some(socket.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let ctx = server.ctx();
    ctx.store
        .insert("ring", parcom_generators::ring_of_cliques(4, 5).0, None);
    std::thread::spawn(move || server.run());

    // m sits at header bytes 32..40; the header checksum follows the
    // section table
    let path = dir.join("liar.pcg");
    let (g, _) = parcom_generators::ring_of_cliques(6, 5);
    parcom_io::write_pcg(&g, None, &path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[32..40].copy_from_slice(&1_000_000u64.to_le_bytes());
    let sum_at = 64 + 24 * u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let sum = parcom_io::binfmt::checksum64(&bytes[..sum_at]);
    bytes[sum_at..sum_at + 8].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();

    let mut client = Client::connect(&socket);
    let (_, before) = client.request("GET", "/graphs", "");
    let body = format!("{{\"path\":\"{}\"}}", path.display());
    for name in ["ring", "liar"] {
        let (status, v) = client.request("PUT", &format!("/graphs/{name}"), &body);
        assert_eq!(status, 422, "{v:?}");
        assert!(
            get_str(&v, "error").contains("header claims 1000000 edges"),
            "{v:?}"
        );
    }
    let (_, after) = client.request("GET", "/graphs", "");
    assert_eq!(after, before);
    std::fs::remove_dir_all(&dir).ok();
}

/// The spec every warm-start test detects with (PLP is the detector that
/// can start from a base).
const PLP: &str = "plp:seed=1";

fn detect_body(graph: &str, spec: &str, extra: &str) -> String {
    format!("{{\"graph\":\"{graph}\",\"spec\":\"{spec}\",\"include_partition\":true{extra}}}")
}

/// A `/detect` that must succeed; returns the reply.
fn detect(client: &mut Client, graph: &str, spec: &str, extra: &str) -> Value {
    let (status, v) = client.request("POST", "/detect", &detect_body(graph, spec, extra));
    assert_eq!(status, 200, "{v:?}");
    v
}

/// `Some(base_generation)` of a warm reply, `None` of a cold one; checks
/// that the envelope and the embedded report tell the same story.
fn base_of(v: &Value) -> Option<u64> {
    let base = v.get("base_generation").unwrap();
    let warm = get_bool(v, "warm");
    assert_eq!(warm, *base != Value::Null, "{v:?}");
    let counters = v.get("report").and_then(|r| r.get("counters")).unwrap();
    assert_eq!(get_u64(counters, "warm"), warm as u64, "{v:?}");
    if !warm {
        assert_eq!(get_u64(counters, "frontier"), get_u64(v, "nodes"));
    }
    base.as_u64()
}

fn label_propagation(v: &Value, counter: &str) -> u64 {
    let phases = v.get("report").and_then(|r| r.get("phases")).unwrap();
    let phase = (phases.as_array().unwrap().iter())
        .find(|p| get_str(p, "name") == "label-propagation")
        .expect("PLP reports its phase even at zero sweeps");
    get_u64(phase.get("counters").unwrap(), counter)
}

/// The `cached_specs` of graph `name` as `(spec, base_generation, dirty)`,
/// sorted by spec.
fn cached_specs(client: &mut Client, name: &str) -> Vec<(String, u64, u64)> {
    let (status, v) = client.request("GET", "/graphs", "");
    assert_eq!(status, 200);
    let rows = v.get("graphs").and_then(Value::as_array).unwrap();
    let row = rows.iter().find(|r| get_str(r, "name") == name).unwrap();
    let slots = row.get("cached_specs").and_then(Value::as_array).unwrap();
    let mut slots: Vec<_> = (slots.iter())
        .map(|s| {
            let spec = get_str(s, "spec").to_string();
            (spec, get_u64(s, "base_generation"), get_u64(s, "dirty"))
        })
        .collect();
    slots.sort();
    slots
}

/// An edit batch folded at once; returns the generation it produced.
fn edit(client: &mut Client, graph: &str, body: &str) -> u64 {
    let body = format!("{{{body},\"rebuild\":true}}");
    let (status, v) = client.request("POST", &format!("/graphs/{graph}/edges"), &body);
    assert_eq!(status, 200, "{v:?}");
    get_u64(&v, "generation")
}

fn lfr(n: usize) -> parcom_graph::Graph {
    parcom_generators::lfr(parcom_generators::LfrParams::benchmark(n, 0.3), 17).0
}

#[test]
fn detects_start_from_the_cached_result_until_something_invalidates_it() {
    let (ctx, socket) = boot("warm");
    ctx.store.insert("g", lfr(2_000), None);
    let mut client = Client::connect(&socket);

    // nothing cached: cold, and the converged result becomes the base
    let first = detect(&mut client, "g", PLP, "");
    assert_eq!(base_of(&first), None);
    assert_eq!(cached_specs(&mut client, "g"), [(PLP.to_string(), 0, 0)]);

    // a repeat at the same generation is the empty-frontier warm start:
    // zero sweeps, the stored partition
    let repeat = detect(&mut client, "g", PLP, "");
    assert_eq!(base_of(&repeat), Some(0));
    assert_eq!(label_propagation(&repeat, "iterations"), 0);
    assert_eq!(repeat.get("partition"), first.get("partition"));
    assert_eq!(
        get_u64(&repeat, "communities"),
        get_u64(&first, "communities")
    );

    // an edit left pending is folded by the detect that follows, which
    // starts from generation 0's result and the edit's five endpoints
    let (status, _) = client.request(
        "POST",
        "/graphs/g/edges",
        "{\"insert\":[[0,1000],[1,1001]],\"remove\":[[0,2]]}",
    );
    assert_eq!(status, 200);
    let after_edit = detect(&mut client, "g", PLP, "");
    assert_eq!(base_of(&after_edit), Some(0));
    assert_eq!(get_u64(&after_edit, "generation"), 1);
    assert_eq!(
        get_u64(after_edit.get("snapshot").unwrap(), "folded_ops"),
        3
    );
    let counters = after_edit.get("report").unwrap().get("counters").unwrap();
    assert_eq!(get_u64(counters, "frontier"), 5);
    assert!(label_propagation(&after_edit, "iterations") <= 3);
    assert_eq!(get_str(&after_edit, "termination"), "converged");
    assert_eq!(cached_specs(&mut client, "g"), [(PLP.to_string(), 1, 0)]);

    // folds the slot has not been used since show up as dirty endpoints
    assert_eq!(edit(&mut client, "g", "\"insert\":[[5,1500],[5,1501]]"), 2);
    assert_eq!(cached_specs(&mut client, "g"), [(PLP.to_string(), 1, 3)]);

    // "cold" bypasses the slot and still refreshes it
    let cold = detect(&mut client, "g", PLP, ",\"cold\":true");
    assert_eq!(base_of(&cold), None);
    assert!(label_propagation(&cold, "iterations") >= 2);
    assert_eq!(cached_specs(&mut client, "g"), [(PLP.to_string(), 2, 0)]);

    // a run its budget cut short is no base: the slot stays as it was
    assert_eq!(edit(&mut client, "g", "\"remove\":[[5,1500]]"), 3);
    let cut = detect(
        &mut client,
        "g",
        PLP,
        ",\"cold\":true,\"budget\":{\"max_sweeps\":1}",
    );
    assert_eq!(get_str(&cut, "termination"), "iteration-cap");
    assert_eq!(cached_specs(&mut client, "g"), [(PLP.to_string(), 2, 2)]);
    assert_eq!(base_of(&detect(&mut client, "g", PLP, "")), Some(2));

    // a detector that cannot start from a base is never cached
    let plm = detect(&mut client, "g", "plm:seed=1", "");
    assert_eq!(base_of(&plm), None);
    assert_eq!(base_of(&detect(&mut client, "g", "plm:seed=1", "")), None);
    assert_eq!(cached_specs(&mut client, "g").len(), 1);

    // a PUT under the same name is a different graph: cold again
    let (status, _) = client.request("PUT", "/graphs/g", &util::metis_body(&lfr(300)));
    assert_eq!(status, 200);
    assert!(cached_specs(&mut client, "g").is_empty());
    let replaced = detect(&mut client, "g", PLP, "");
    assert_eq!(base_of(&replaced), None);
    assert_eq!(get_u64(&replaced, "nodes"), 300);
}

#[test]
fn specs_keep_their_own_slots_up_to_the_fixed_bound() {
    let (ctx, socket) = boot("slots");
    ctx.store.insert("g", lfr(600), None);
    let mut client = Client::connect(&socket);
    let specs: Vec<String> = (1..=WARM_SLOTS + 1)
        .map(|s| format!("plp:seed={s}"))
        .collect();
    let (within, extra) = specs.split_at(WARM_SLOTS);

    // alternating specs do not evict each other ...
    for spec in within {
        assert_eq!(base_of(&detect(&mut client, "g", spec, "")), None, "{spec}");
    }
    assert_eq!(edit(&mut client, "g", "\"insert\":[[0,300]]"), 1);
    for spec in within {
        assert_eq!(
            base_of(&detect(&mut client, "g", spec, "")),
            Some(0),
            "{spec}"
        );
    }
    // ... and each carries its own staleness
    assert_eq!(edit(&mut client, "g", "\"insert\":[[1,301]]"), 2);
    assert_eq!(base_of(&detect(&mut client, "g", &within[1], "")), Some(1));
    let slots = cached_specs(&mut client, "g");
    assert_eq!(slots.len(), WARM_SLOTS);
    assert_eq!(slots[0], (within[0].clone(), 1, 2));
    assert_eq!(slots[1], (within[1].clone(), 2, 0));

    // one spec more than the bound takes the place of a stalest base
    assert_eq!(base_of(&detect(&mut client, "g", &extra[0], "")), None);
    let slots = cached_specs(&mut client, "g");
    assert_eq!(slots.len(), WARM_SLOTS);
    assert!(slots
        .iter()
        .any(|(spec, base, _)| *spec == extra[0] && *base == 2));
    assert!(
        slots.iter().any(|(spec, ..)| *spec == within[1]),
        "{slots:?}"
    );
}

#[test]
fn dropping_the_relabeling_drops_the_slots_with_it() {
    let (ctx, socket) = boot("relabel");
    let g = lfr(600);
    let r = Relabeling::degree_ordered(&g);
    ctx.store.insert("r", r.apply(&g), Some(r));
    let mut client = Client::connect(&socket);

    // on the relabeled view the cache works in the view's ids, and the
    // reply still speaks original ids
    let first = detect(&mut client, "r", PLP, "");
    let repeat = detect(&mut client, "r", PLP, "");
    assert_eq!((base_of(&first), base_of(&repeat)), (None, Some(0)));
    assert_eq!(repeat.get("partition"), first.get("partition"));

    // the first mutation un-relabels the CSR: node ids change under the
    // cached partition, so the next detect is cold — once
    assert_eq!(edit(&mut client, "r", "\"insert\":[[0,300]]"), 1);
    assert!(cached_specs(&mut client, "r").is_empty());
    assert_eq!(base_of(&detect(&mut client, "r", PLP, "")), None);
    assert_eq!(edit(&mut client, "r", "\"insert\":[[1,301]]"), 2);
    assert_eq!(base_of(&detect(&mut client, "r", PLP, "")), Some(1));
}

/// The reply's `partition` array is the stored result in original ids,
/// byte for byte what `core::fmt` makes of it.
#[test]
fn a_relabeled_entry_answers_its_partition_in_original_ids_as_core_fmt_renders_it() {
    let (ctx, socket) = boot("render");
    let path = std::env::temp_dir().join(format!("parcom_serve_render_{}.pcg", std::process::id()));
    let g = lfr(600);
    let r = Relabeling::degree_ordered(&g);
    parcom_io::write_pcg(&r.apply(&g), Some(&r), &path).unwrap();
    let mut client = Client::connect(&socket);
    let body = format!("{{\"path\":\"{}\"}}", path.display());
    let (status, v) = client.request("PUT", "/graphs/pcg", &body);
    assert_eq!(status, 201, "{v:?}");
    assert!(get_bool(&v, "relabeled"), "{v:?}");

    let (status, text) = client.request_text("POST", "/detect", &detect_body("pcg", PLP, ""));
    assert_eq!(status, 200, "{text}");
    let entry = ctx.store.get("pcg").unwrap();
    let (stored, relabeling) = {
        let entry = parcom_serve::store::lock_entry(&entry);
        let (_, relabeling, _) = entry.current();
        (entry.warm_start(PLP).unwrap().1.base, relabeling.unwrap())
    };
    let original = relabeling.to_original(&stored);
    assert_ne!(original.as_slice(), stored.as_slice(), "the ids must move");
    let labels: Vec<String> = original.as_slice().iter().map(|c| format!("{c}")).collect();
    let array = format!(",\"partition\":[{}]}}", labels.join(","));
    assert!(text.ends_with(&array), "{text}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_hung_up_detect_leaves_the_previous_slot_intact() {
    let (ctx, socket) = boot("warmhangup");
    let mut client = Client::connect(&socket);
    assert_eq!(base_of(&detect(&mut client, "slow", PLP, "")), None);
    assert_eq!(edit(&mut client, "slow", "\"insert\":[[0,50000]]"), 1);
    let before = cached_specs(&mut client, "slow");
    assert_eq!(before, [(PLP.to_string(), 0, 2)]);

    // a cold run on the big graph is still sweeping when the client goes
    let mut doomed = Client::connect(&socket);
    let body = detect_body("slow", PLP, ",\"cold\":true");
    doomed.send(&[("POST", "/detect", &body)]).unwrap();
    wait_until("the detect is running", || ctx.gate.detects() == 1);
    doomed.half_close();
    let (status, v) = doomed.read_response().unwrap();
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(get_str(&v, "termination"), "cancelled");

    assert_eq!(cached_specs(&mut client, "slow"), before);
    assert_eq!(base_of(&detect(&mut client, "slow", PLP, "")), Some(0));
}

/// The interleaving the cache must survive, step by step on one entry: a
/// detect takes its snapshot, a rebuild lands, the detect stores.
#[test]
fn a_result_older_than_the_graph_is_never_stored_as_current() {
    let mut entry = GraphEntry::new(lfr(600), None);
    let plp = || DetectorSpec::parse(PLP).unwrap().build().unwrap();
    let frontier = |entry: &GraphEntry| entry.warm_start(PLP).map(|(g, s)| (g, s.frontier));

    // with a slot in place: the late result is refused, and the slot
    // keeps its base and learns the new endpoints
    let snapshot = entry.snapshot();
    let zeta = plp().detect(&snapshot.graph);
    assert!(entry.store_result(PLP, snapshot.generation, &zeta, None));
    let held = entry.snapshot();
    entry.buffer_ops([EdgeOp::Insert(7, 400, 1.0), EdgeOp::Remove(9, 8)]);
    entry.rebuild();
    assert!(!entry.store_result(PLP, held.generation, &zeta, None));
    assert_eq!(frontier(&entry), Some((0, vec![7, 8, 9, 400])));

    // a result of the current generation replaces it, dirty list and all
    let current = entry.snapshot();
    let zeta = plp().detect(&current.graph);
    assert!(entry.store_result(PLP, current.generation, &zeta, None));
    assert_eq!(frontier(&entry), Some((1, vec![])));

    // without a slot (a first, cold detect): nothing is stored at all
    let mut fresh = GraphEntry::new(lfr(600), None);
    let held = fresh.snapshot();
    fresh.buffer_ops([EdgeOp::Insert(7, 400, 1.0)]);
    fresh.rebuild();
    assert!(!fresh.store_result(PLP, held.generation, &zeta, None));
    assert!(fresh.warm_start(PLP).is_none());

    // a fold that dirties more than the fixed share of the graph drops
    // the slot: a warm start from it would no longer pay
    let star = (1..=200).map(|leaf| EdgeOp::Insert(0, leaf, 1.0));
    entry.buffer_ops(star);
    entry.rebuild();
    assert!(entry.warm_start(PLP).is_none());
}

#[test]
fn a_recovered_daemon_answers_cold_like_a_fresh_one_at_the_same_wal_position() {
    let dir = std::env::temp_dir().join(format!("parcom_serve_warmkill_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let graph = util::metis_body(&lfr(300));
    let batches = [
        "\"insert\":[[0,150],[1,151]]",
        "\"remove\":[[0,150]],\"insert\":[[2,152]]",
    ];
    // PLP on two threads is a race, so the bit-for-bit comparison rides on
    // a deterministic spec; PLP says whether a slot survived.
    let exact = "plm:move=coloring,seed=1";
    let history = |client: &mut Client| {
        let (status, v) = client.request("PUT", "/graphs/g", &graph);
        assert_eq!(status, 201, "{v:?}");
        for batch in batches {
            edit(client, "g", batch);
        }
    };

    let mut daemon = Daemon::spawn(&dir.join("state"), &dir.join("a.sock"), None);
    let mut client = daemon.wait_ready();
    history(&mut client);
    assert_eq!(base_of(&detect(&mut client, "g", PLP, "")), None);
    assert_eq!(base_of(&detect(&mut client, "g", PLP, "")), Some(2));
    daemon.kill9(); // nothing gets to flush or say goodbye

    // the cache was memory only: recovery rebuilds the graph, not the slots
    let recovered_daemon = Daemon::spawn(&dir.join("state"), &dir.join("b.sock"), None);
    let mut client = recovered_daemon.wait_ready();
    assert!(cached_specs(&mut client, "g").is_empty());
    let after = detect(&mut client, "g", PLP, "");
    assert_eq!(base_of(&after), None);
    let base = get_u64(&after, "generation");
    assert_eq!(base_of(&detect(&mut client, "g", PLP, "")), Some(base));
    let recovered = detect(&mut client, "g", exact, "");

    let fresh_daemon = Daemon::spawn(&dir.join("other"), &dir.join("c.sock"), None);
    let mut client = fresh_daemon.wait_ready();
    history(&mut client);
    let fresh_plp = detect(&mut client, "g", PLP, "");
    assert_eq!(base_of(&fresh_plp), None);
    let fresh = detect(&mut client, "g", exact, "");
    for key in ["nodes", "edges", "communities", "partition"] {
        assert_eq!(recovered.get(key), fresh.get(key), "{key}");
        assert!(fresh.get(key).is_some());
    }
    for key in ["nodes", "edges"] {
        assert_eq!(after.get(key), fresh_plp.get(key), "{key}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
