//! Process-level crash-recovery kill matrix.
//!
//! Each case spawns the `crash_harness` binary — a real durable daemon
//! whose panic hook is `process::abort()` — arms one durability fault
//! site at a seeded crossing, drives it over HTTP until the process dies
//! mid-operation, then restarts a clean daemon against the same state
//! directory and asserts the recovered CSR is **bit-identical** to a
//! synchronous in-process reference built from the acknowledged history.
//!
//! The matrix covers, per ISSUE durability contract:
//!
//! * `kill -9` between batches (baseline: everything acknowledged
//!   survives, detection answers are identical across the crash);
//! * `serve/wal-append` — torn final record: the interrupted batch was
//!   never acknowledged and is discarded on replay;
//! * `serve/store-rebuild` — crash after the WAL append but before the
//!   fold: the batch is unacknowledged yet durable, and recovery keeps it
//!   (the documented acked+1 case);
//! * `serve/checkpoint-write` — crash during checkpoint staging: the
//!   previous era stays live and nothing acknowledged is lost;
//! * corrupt current checkpoint — recovery falls back to `pcg.prev` and
//!   replays the full log chain.
//!
//! Run with `cargo test -p parcom-serve --features fault-inject`.

#![cfg(all(unix, feature = "fault-inject"))]

mod util;

use parcom_graph::Graph;
use parcom_guard::fault::FaultPlan;
use parcom_guard::Budget;
use parcom_obs::json::Value;
use parcom_obs::Recorder;
use parcom_serve::persist::csr_bit_identical;
use parcom_serve::store::{EdgeOp, GraphEntry};
use parcom_serve::wal;
use std::path::{Path, PathBuf};
use util::{get_bool, get_u64, Client, Daemon};

/// Per-case scratch directory (state dir + socket), clean at entry.
fn scratch(name: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("parcom_crash_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    (dir.join("state"), dir.join("daemon.sock"))
}

fn seed_graph() -> Graph {
    parcom_generators::ring_of_cliques(4, 5).0
}

/// Batch `i` as both the HTTP body sent to the daemon and the in-process
/// ops for the reference — the same edits through both paths.
fn batch(i: u64) -> (String, Vec<EdgeOp>) {
    let u = (i % 5) as u32;
    let v = 5 + ((u64::from(u) + i) % 15) as u32;
    let w1 = 1.0 + i as f64;
    let w2 = 2.0 + i as f64;
    let (u2, v2) = (u + 15, (i % 10) as u32);
    let body = format!("{{\"insert\":[[{u},{v},{w1}],[{u2},{v2},{w2}]]}}");
    let ops = vec![EdgeOp::Insert(u, v, w1), EdgeOp::Insert(u2, v2, w2)];
    (body, ops)
}

/// The synchronous reference: the seed graph loaded through the same
/// METIS round-trip the daemon uses, with `batches` applied and folded.
fn reference_csr(batches: &[Vec<EdgeOp>]) -> Graph {
    reference_csr_of(&seed_graph(), batches)
}

/// [`reference_csr`] from another seed graph, compacted.
fn reference_csr_of(seed: &Graph, batches: &[Vec<EdgeOp>]) -> Graph {
    let mut metis = Vec::new();
    parcom_io::write_metis_to(seed, &mut metis).unwrap();
    let g = parcom_io::load_graph_bytes(
        &metis,
        parcom_io::GraphFormat::Metis,
        &Recorder::disabled(),
        &Budget::unlimited(),
    )
    .unwrap()
    .graph;
    let mut entry = GraphEntry::new(g, None);
    for ops in batches {
        entry.buffer_ops(ops.iter().copied());
    }
    entry.rebuild();
    entry.compact();
    let (csr, _) = entry.current();
    Graph::clone(&csr)
}

/// Boots a recovery daemon on `socket`, asserts `/readyz` turns green,
/// checkpoints the recovered graph (folding any replayed tail), and reads
/// the resulting `.pcg` back for bit-exact comparison. Returns the CSR
/// and the recovered sequence number.
fn recover_and_read(state_dir: &Path, socket: &Path) -> (Graph, u64) {
    recover_and_read_graph(state_dir, socket, "ring")
}

/// [`recover_and_read`] for the graph `name`.
fn recover_and_read_graph(state_dir: &Path, socket: &Path, name: &str) -> (Graph, u64) {
    let daemon = Daemon::spawn(state_dir, socket, None);
    let mut client = daemon.wait_ready();
    let (status, v) = client.request("GET", "/graphs", "");
    assert_eq!(status, 200);
    let rows = v.get("graphs").and_then(Value::as_array).unwrap();
    assert_eq!(rows.len(), 1, "{v:?}");
    let seq = get_u64(&rows[0], "seq");
    assert!(get_bool(&rows[0], "durable"));
    let checkpoint = format!("/graphs/{name}/checkpoint");
    let (status, v) = client.request("POST", &checkpoint, "");
    assert_eq!(status, 200, "{v:?}");
    drop(daemon);
    let snapshot = parcom_io::load_graph_auto(
        parcom_io::state_paths(state_dir, name).pcg,
        &Recorder::enabled(),
        &Budget::unlimited(),
    )
    .unwrap();
    (snapshot.graph, seq)
}

/// Load the seed graph into a freshly spawned daemon.
fn put_ring(client: &mut Client) {
    let body = util::metis_body(&seed_graph());
    let (status, v) = client.request("PUT", "/graphs/ring", &body);
    assert_eq!(status, 201, "{v:?}");
    assert!(get_bool(&v, "durable"), "{v:?}");
}

/// Baseline: `kill -9` between acknowledged batches. Everything acked
/// must survive, and a deterministic detection must give the exact same
/// answer before and after the crash.
#[test]
fn kill9_between_batches_preserves_every_acked_record_and_detections() {
    let (state_dir, socket) = scratch("kill9");
    let mut daemon = Daemon::spawn(&state_dir, &socket, None);
    let mut client = daemon.wait_ready();
    put_ring(&mut client);

    let mut acked = Vec::new();
    for i in 0..3u64 {
        let (body, ops) = batch(i);
        let (status, v) = client.request("POST", "/graphs/ring/edges", &body);
        assert_eq!(status, 200, "{v:?}");
        assert_eq!(get_u64(&v, "seq"), i + 1);
        assert!(get_bool(&v, "durable"));
        acked.push(ops);
    }
    // Fold via a checkpoint, then capture a deterministic detection
    // answer pre-crash.
    let (status, _) = client.request("POST", "/graphs/ring/checkpoint", "");
    assert_eq!(status, 200);
    let detect_body =
        "{\"graph\":\"ring\",\"spec\":\"plm:move=coloring,seed=1\",\"include_partition\":true}";
    let (status, before) = client.request("POST", "/detect", detect_body);
    assert_eq!(status, 200, "{before:?}");

    daemon.kill9();

    // Restart against the same state dir: ready, same seq, same answer.
    let daemon = Daemon::spawn(&state_dir, &socket, None);
    let mut client = daemon.wait_ready();
    let (status, v) = client.request("GET", "/graphs", "");
    assert_eq!(status, 200);
    let rows = v.get("graphs").and_then(Value::as_array).unwrap();
    assert_eq!(get_u64(&rows[0], "seq"), 3);
    let (status, after) = client.request("POST", "/detect", detect_body);
    assert_eq!(status, 200, "{after:?}");
    for key in ["nodes", "edges", "communities"] {
        assert_eq!(get_u64(&before, key), get_u64(&after, key), "{key}");
    }
    assert_eq!(
        before.get("partition").and_then(Value::as_array),
        after.get("partition").and_then(Value::as_array),
        "partition must be bit-identical across the crash"
    );
    drop(daemon);

    let (recovered, _) = recover_and_read(&state_dir, &socket);
    assert!(csr_bit_identical(&recovered, &reference_csr(&acked)));
}

/// `kill -9` while the resident graph is an overlay no checkpoint has
/// compacted: the log replays onto the last checkpoint, a deterministic
/// detection answers the same across the crash, and the recovered graph,
/// compacted by the next checkpoint, is the reference bit for bit.
#[test]
fn kill9_with_an_overlay_resident_recovers_its_compaction() {
    let (state_dir, socket) = scratch("kill9_overlay");
    let seed = parcom_generators::lfr(parcom_generators::LfrParams::benchmark(1000, 0.3), 4).0;
    let mut daemon = Daemon::spawn(&state_dir, &socket, None);
    let mut client = daemon.wait_ready();
    let (status, v) = client.request("PUT", "/graphs/lfr", &util::metis_body(&seed));
    assert_eq!(status, 201, "{v:?}");
    let mut acked = Vec::new();
    for i in 0..3u64 {
        let (body, ops) = batch(i);
        let (status, v) = client.request("POST", "/graphs/lfr/edges", &body);
        assert_eq!(status, 200, "{v:?}");
        acked.push(ops);
    }
    let detect_body =
        "{\"graph\":\"lfr\",\"spec\":\"plm:move=coloring,seed=1\",\"include_partition\":true}";
    let (status, before) = client.request("POST", "/detect", detect_body);
    assert_eq!(status, 200, "{before:?}");
    let snapshot = before.get("snapshot").unwrap();
    assert_eq!(get_u64(snapshot, "folded_ops"), 6);
    assert!(!get_bool(snapshot, "compacted"));
    let (status, v) = client.request("GET", "/graphs", "");
    assert_eq!(status, 200);
    let rows = v.get("graphs").and_then(Value::as_array).unwrap();
    let overlay_rows = get_u64(&rows[0], "overlay_rows");
    assert!(overlay_rows > 0 && overlay_rows == get_u64(snapshot, "overlay_rows"));

    daemon.kill9();

    let daemon = Daemon::spawn(&state_dir, &socket, None);
    let mut client = daemon.wait_ready();
    let (status, after) = client.request("POST", "/detect", detect_body);
    assert_eq!(status, 200, "{after:?}");
    assert_eq!(
        get_u64(after.get("snapshot").unwrap(), "overlay_rows"),
        overlay_rows
    );
    assert_eq!(
        before.get("partition").and_then(Value::as_array),
        after.get("partition").and_then(Value::as_array),
        "partition must be bit-identical across the crash"
    );
    drop(daemon);

    let (recovered, seq) = recover_and_read_graph(&state_dir, &socket, "lfr");
    assert_eq!(seq, 3);
    assert!(csr_bit_identical(
        &recovered,
        &reference_csr_of(&seed, &acked)
    ));
}

/// Torn final record, seeded: the daemon aborts between a WAL record's
/// head and payload on the `k`-th append. The interrupted batch was never
/// acknowledged; recovery must discard the torn tail and reproduce
/// exactly the acknowledged prefix.
#[test]
fn wal_append_kill_matrix_recovers_exactly_the_acked_prefix() {
    for seed in [1u64, 2, 3] {
        let total = 4u64;
        let k = FaultPlan::derive_k(seed, "serve/wal-append", total);
        let (state_dir, socket) = scratch(&format!("append_{seed}"));
        let mut daemon = Daemon::spawn(&state_dir, &socket, Some(&format!("serve/wal-append:{k}")));
        let mut client = daemon.wait_ready();
        put_ring(&mut client);

        let mut acked = Vec::new();
        for i in 0..total {
            let (body, ops) = batch(i);
            match client.try_request("POST", "/graphs/ring/edges", &body) {
                Ok((200, _)) => acked.push(ops),
                Ok((status, v)) => panic!("seed {seed} batch {i}: unexpected {status} {v:?}"),
                Err(_) => {
                    // The daemon aborted mid-append, exactly at the armed
                    // crossing; nothing after it can be delivered.
                    assert_eq!(i + 1, k, "seed {seed}: died at the wrong batch");
                    break;
                }
            }
        }
        daemon.wait_dead();
        assert_eq!(acked.len() as u64, k - 1, "seed {seed}");

        // On disk right now: an intact prefix and a genuinely torn tail.
        let replay = wal::replay(&parcom_io::state_paths(&state_dir, "ring").wal).unwrap();
        assert!(replay.torn, "seed {seed}: tail should be torn");
        assert_eq!(replay.records.len() as u64, k - 1, "seed {seed}");

        let (recovered, seq) = recover_and_read(&state_dir, &socket);
        assert_eq!(seq, k - 1, "seed {seed}");
        assert!(
            csr_bit_identical(&recovered, &reference_csr(&acked)),
            "seed {seed}: recovery must equal the acked history"
        );
    }
}

/// Crash between the WAL append and the fold: the batch that triggered
/// the armed rebuild is durable but unacknowledged. Recovery keeps it —
/// the documented "acked + 1 in-flight" outcome — and the result equals
/// the synchronous reference over all durable records.
#[test]
fn store_rebuild_kill_keeps_the_durable_but_unacked_batch() {
    for seed in [5u64, 6] {
        // Vary how many batches precede the fatal forced-rebuild one.
        let quiet = 1 + FaultPlan::derive_k(seed, "serve/store-rebuild", 3);
        let (state_dir, socket) = scratch(&format!("rebuild_{seed}"));
        let mut daemon = Daemon::spawn(&state_dir, &socket, Some("serve/store-rebuild:1"));
        let mut client = daemon.wait_ready();
        put_ring(&mut client);

        let mut durable = Vec::new();
        for i in 0..quiet {
            let (body, ops) = batch(i);
            let (status, v) = client.request("POST", "/graphs/ring/edges", &body);
            assert_eq!(status, 200, "{v:?}");
            durable.push(ops);
        }
        // The fatal batch forces a rebuild: its WAL record lands (the
        // append precedes the fold), then the armed fold aborts the
        // process before the 200 can be written.
        let (body, ops) = batch(quiet);
        let fatal = format!("{{\"rebuild\":true,{}", &body[1..]);
        assert!(
            client
                .try_request("POST", "/graphs/ring/edges", &fatal)
                .is_err(),
            "seed {seed}: the forced-rebuild batch should kill the daemon"
        );
        durable.push(ops);
        daemon.wait_dead();

        // The log is intact (not torn): the crash hit after the append.
        let replay = wal::replay(&parcom_io::state_paths(&state_dir, "ring").wal).unwrap();
        assert!(!replay.torn, "seed {seed}");
        assert_eq!(replay.records.len() as u64, quiet + 1, "seed {seed}");

        let (recovered, seq) = recover_and_read(&state_dir, &socket);
        assert_eq!(seq, quiet + 1, "seed {seed}");
        assert!(
            csr_bit_identical(&recovered, &reference_csr(&durable)),
            "seed {seed}: durable history must survive a mid-fold crash"
        );
    }
}

/// Crash during checkpoint staging: the `.tmp` files are written but no
/// rename has happened. The previous era must stay live — every
/// acknowledged batch survives via the old checkpoint + old log.
#[test]
fn checkpoint_write_kill_leaves_the_previous_era_authoritative() {
    for seed in [11u64, 12] {
        let batches = 1 + FaultPlan::derive_k(seed, "serve/checkpoint-write", 3);
        let (state_dir, socket) = scratch(&format!("ckpt_{seed}"));
        let mut daemon = Daemon::spawn(&state_dir, &socket, Some("serve/checkpoint-write:1"));
        let mut client = daemon.wait_ready();
        put_ring(&mut client);

        let mut acked = Vec::new();
        for i in 0..batches {
            let (body, ops) = batch(i);
            let (status, v) = client.request("POST", "/graphs/ring/edges", &body);
            assert_eq!(status, 200, "{v:?}");
            acked.push(ops);
        }
        assert!(
            client
                .try_request("POST", "/graphs/ring/checkpoint", "")
                .is_err(),
            "seed {seed}: the armed checkpoint should kill the daemon"
        );
        daemon.wait_dead();

        // Staging artifacts exist; the old era files are untouched.
        let paths = parcom_io::state_paths(&state_dir, "ring");
        assert!(
            paths.pcg_tmp.exists() || paths.wal_tmp.exists(),
            "seed {seed}"
        );

        let (recovered, seq) = recover_and_read(&state_dir, &socket);
        assert_eq!(seq, batches, "seed {seed}");
        assert!(
            csr_bit_identical(&recovered, &reference_csr(&acked)),
            "seed {seed}: no acked record may be lost to a checkpoint crash"
        );
    }
}

/// Corrupt current checkpoint: flip one byte in `ring.pcg` while the
/// daemon is down. Recovery must fall back to the previous-generation
/// checkpoint and replay the full log chain to the identical state.
#[test]
fn corrupt_checkpoint_falls_back_to_previous_generation_end_to_end() {
    let (state_dir, socket) = scratch("corrupt");
    let mut daemon = Daemon::spawn(&state_dir, &socket, None);
    let mut client = daemon.wait_ready();
    put_ring(&mut client);

    // Two batches, a checkpoint (rotating both generations), two more.
    let mut acked = Vec::new();
    for i in 0..2u64 {
        let (body, ops) = batch(i);
        let (status, _) = client.request("POST", "/graphs/ring/edges", &body);
        assert_eq!(status, 200);
        acked.push(ops);
    }
    let (status, _) = client.request("POST", "/graphs/ring/checkpoint", "");
    assert_eq!(status, 200);
    for i in 2..4u64 {
        let (body, ops) = batch(i);
        let (status, _) = client.request("POST", "/graphs/ring/edges", &body);
        assert_eq!(status, 200);
        acked.push(ops);
    }
    daemon.kill9();

    // Damage the current checkpoint body.
    let paths = parcom_io::state_paths(&state_dir, "ring");
    let mut bytes = std::fs::read(&paths.pcg).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&paths.pcg, &bytes).unwrap();

    let (recovered, seq) = recover_and_read(&state_dir, &socket);
    assert_eq!(seq, 4);
    assert!(
        csr_bit_identical(&recovered, &reference_csr(&acked)),
        "fallback recovery must replay the full chain over pcg.prev"
    );
}
