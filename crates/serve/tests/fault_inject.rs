//! In-process abort-path tests for the daemon's durability fault sites
//! (`serve/store-rebuild`, `serve/wal-append`, `serve/checkpoint-write`).
//!
//! Each test arms a seeded [`FaultPlan`] action — `Panic` to poison a
//! mutation mid-flight, `Cancel` to fire a cooperative token — and then
//! proves the invariant the WAL design promises: *no armed abort ever
//! corrupts the resident graph or its log*. Acknowledged batches stay
//! replayable; unacknowledged ones vanish atomically; a poisoned lock or
//! wedged writer degrades to explicit errors, never to silent damage.
//!
//! Run with `cargo test -p parcom-serve --features fault-inject`.

#![cfg(all(unix, feature = "fault-inject"))]

use parcom_graph::Graph;
use parcom_guard::fault::{serial_guard, FaultAction, FaultPlan};
use parcom_guard::CancelToken;
use parcom_obs::json::{self, Value};
use parcom_serve::persist::{csr_bit_identical, Durability};
use parcom_serve::store::{lock_entry, EdgeOp, GraphEntry, GraphStore};
use parcom_serve::wal::{self, FsyncPolicy};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Per-test scratch directory, clean at entry.
fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("parcom_fault_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn seed_graph() -> Graph {
    parcom_generators::ring_of_cliques(4, 5).0
}

/// Deterministic distinct edits: batch `i` inserts two edges that do not
/// exist in the 4×5 ring-of-cliques seed graph.
fn batch(i: u64) -> Vec<EdgeOp> {
    let u = (i % 5) as u32;
    let v = 5 + ((u64::from(u) + i) % 15) as u32;
    vec![
        EdgeOp::Insert(u, v, 1.0 + i as f64),
        EdgeOp::Insert(u + 15, (i % 10) as u32, 2.0 + i as f64),
    ]
}

/// The synchronous reference: apply `batches` to a fresh seed graph with
/// no WAL or checkpointing involved, fold, and return the CSR.
fn reference_csr(batches: &[Vec<EdgeOp>]) -> Graph {
    let mut entry = GraphEntry::new(seed_graph(), None);
    for ops in batches {
        entry.buffer_ops(ops.iter().copied());
    }
    entry.rebuild();
    let (csr, _, _) = entry.current();
    Graph::clone(&csr)
}

/// Recovers `dir` into a fresh store, folds the replayed tail, and
/// returns the resulting CSR plus the number of records replayed.
fn recovered_csr(dir: &std::path::Path) -> (Graph, usize) {
    let durability = Durability::open(dir, FsyncPolicy::Always).unwrap();
    let store = GraphStore::new();
    let report = durability.recover(&store).unwrap();
    assert_eq!(report.graphs, 1, "exactly one graph in {}", dir.display());
    assert!(report.unrecovered.is_empty(), "{:?}", report.unrecovered);
    let entry = store.get("g").unwrap();
    let mut entry = lock_entry(&entry);
    entry.rebuild();
    let (csr, _, _) = entry.current();
    (Graph::clone(&csr), report.records_replayed)
}

/// A panic injected inside the CSR fold — after the un-relabeled builder
/// is populated but before the commit point — must leave the resident
/// graph, the pending buffer, and the WAL exactly as they were, even
/// though the entry's mutex is now poisoned.
#[test]
fn panicked_rebuild_never_corrupts_the_resident_graph_or_wal() {
    let _serial = serial_guard();
    FaultPlan::clear();
    let dir = scratch("rebuild");
    let durability = Durability::open(&dir, FsyncPolicy::Always).unwrap();

    let mut entry = GraphEntry::new(seed_graph(), None);
    durability.persist_new("g", &mut entry).unwrap();
    let first = batch(0);
    entry.commit_ops(first.clone()).unwrap();
    let store = GraphStore::new();
    store.insert_entry("g", entry);
    let entry = store.get("g").unwrap();

    FaultPlan::arm("serve/store-rebuild", 1, FaultAction::Panic);
    let poisoner = std::thread::spawn({
        let entry = entry.clone();
        move || lock_entry(&entry).rebuild()
    });
    assert!(poisoner.join().is_err(), "armed rebuild should panic");
    FaultPlan::clear();

    // The poisoned lock is tolerated and nothing moved: generation,
    // buffer, sequence, and the resident CSR are untouched.
    let mut locked = lock_entry(&entry);
    let stats = locked.stats();
    assert_eq!(stats.generation, 0);
    assert_eq!(stats.pending, first.len());
    assert_eq!(locked.seq(), 1);
    let (resident, _, _) = locked.current();
    assert!(csr_bit_identical(&resident, &seed_graph()));

    // With the fault gone the same entry folds cleanly...
    locked.rebuild();
    assert_eq!(locked.stats().generation, 1);
    let (rebuilt, _, _) = locked.current();
    drop(locked);

    // ...and the WAL it wrote before the poisoning still replays to the
    // bit-identical state on a cold recovery.
    let (recovered, replayed) = recovered_csr(&dir);
    assert_eq!(replayed, 1);
    assert!(csr_bit_identical(&recovered, &rebuilt));
    assert!(csr_bit_identical(&recovered, &reference_csr(&[first])));
    std::fs::remove_dir_all(&dir).ok();
}

/// The same panic on an entry that has been folded before, so that a
/// spare CSR sits beside the resident one: the aborted fold must leave the
/// graph, the pending buffer, the generation and the warm slots as they
/// were, and the retry must produce the CSR an undisturbed entry does.
#[test]
fn panicked_rebuild_with_a_spare_present_changes_nothing_and_the_retry_is_bit_identical() {
    let _serial = serial_guard();
    FaultPlan::clear();
    let mut entry = GraphEntry::new(seed_graph(), None);
    for i in 0..2 {
        entry.buffer_ops(batch(i));
        entry.rebuild();
    }
    let partition = parcom_graph::Partition::singleton(seed_graph().node_count());
    assert!(entry.store_result("plp:seed=1", 2, &partition));
    entry.buffer_ops(batch(2));
    let warm = |e: &GraphEntry| {
        let slots = e.stats().warm;
        (slots.iter())
            .map(|s| (s.spec.clone(), s.base_generation, s.dirty))
            .collect::<Vec<_>>()
    };
    let (before, slots) = (Graph::clone(&entry.current().0), warm(&entry));
    assert!(entry.stats().spare_bytes > 0, "two folds leave a spare");

    FaultPlan::arm("serve/store-rebuild", 1, FaultAction::Panic);
    let aborted = catch_unwind(AssertUnwindSafe(|| entry.rebuild()));
    assert!(aborted.is_err(), "armed rebuild should panic");
    FaultPlan::clear();

    let stats = entry.stats();
    assert_eq!((stats.generation, stats.pending), (2, batch(2).len()));
    assert_eq!(warm(&entry), slots);
    assert!(csr_bit_identical(&entry.current().0, &before));

    entry.rebuild();
    assert_eq!(entry.stats().generation, 3);
    let want = reference_csr(&[batch(0), batch(1), batch(2)]);
    assert!(csr_bit_identical(&entry.current().0, &want));
    let caches = |g: &Graph| {
        let v = g.csr_view();
        let floats = [v.weighted_degrees, v.self_loops, &[v.total_weight]];
        (
            floats.map(|ws| ws.iter().map(|w| w.to_bits()).collect::<Vec<_>>()),
            v.num_edges,
        )
    };
    assert_eq!(caches(&entry.current().0), caches(&want));
    // The slot learned the retried fold's endpoints (2, 9, 17), once.
    assert_eq!(warm(&entry), [("plp:seed=1".to_string(), 2, 3)]);
}

/// A panic between the WAL record head and its payload (a genuinely torn
/// tail) must wedge the writer fail-stop: the interrupted batch is never
/// acknowledged and never recovered, later appends are refused rather
/// than corrupting the log, and a checkpoint installs a fresh era that
/// writes again. Seeded: the crashing append index is derived per seed.
#[test]
fn torn_wal_append_wedges_the_writer_and_loses_only_the_unacked_batch() {
    let _serial = serial_guard();
    for seed in [1u64, 2, 3] {
        FaultPlan::clear();
        let dir = scratch(&format!("append_{seed}"));
        let durability = Durability::open(&dir, FsyncPolicy::Always).unwrap();
        let mut entry = GraphEntry::new(seed_graph(), None);
        durability.persist_new("g", &mut entry).unwrap();

        let total = 4u64;
        let k = FaultPlan::derive_k(seed, "serve/wal-append", total);
        FaultPlan::arm("serve/wal-append", k, FaultAction::Panic);

        let mut acked: Vec<Vec<EdgeOp>> = Vec::new();
        let mut refused = 0usize;
        for i in 0..total {
            let ops = batch(i);
            match catch_unwind(AssertUnwindSafe(|| entry.commit_ops(ops.clone()))) {
                Ok(Ok(_)) => acked.push(ops),
                // Fail-stop: every append after the torn one is refused
                // with an error, not silently dropped or half-written.
                Ok(Err(e)) => {
                    assert!(e.to_string().contains("wedged"), "{e}");
                    refused += 1;
                }
                Err(_) => assert_eq!(i + 1, k, "panic must fire at the armed crossing"),
            }
        }
        FaultPlan::clear();
        assert_eq!(acked.len() as u64, k - 1);
        assert_eq!(refused as u64, total - k);

        // On disk: an intact prefix of k-1 records, then a torn tail.
        let replayed = wal::replay(&parcom_io::state_paths(&dir, "g").wal).unwrap();
        assert!(replayed.torn, "seed {seed}: tail should be torn");
        assert_eq!(replayed.records.len() as u64, k - 1);

        // Only the acknowledged prefix was buffered in memory.
        assert_eq!(
            entry.stats().pending,
            acked.iter().map(Vec::len).sum::<usize>()
        );

        // A checkpoint heals the wedge: fresh log era, appends work again.
        durability.checkpoint("g", &mut entry).unwrap();
        let healed = batch(99);
        entry.commit_ops(healed.clone()).unwrap();
        drop(entry);

        let (recovered, _) = recovered_csr(&dir);
        acked.push(healed);
        assert!(
            csr_bit_identical(&recovered, &reference_csr(&acked)),
            "seed {seed}: recovery must equal the acknowledged history"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A panic during checkpoint staging — after the new `.pcg` and log are
/// written to `.tmp` names but before any rename — must leave the
/// previous era fully live: the old WAL keeps accepting appends and a
/// cold recovery replays every acknowledged record against the old
/// checkpoint.
#[test]
fn panicked_checkpoint_leaves_the_previous_era_live() {
    let _serial = serial_guard();
    FaultPlan::clear();
    let dir = scratch("checkpoint");
    let durability = Durability::open(&dir, FsyncPolicy::Always).unwrap();
    let mut entry = GraphEntry::new(seed_graph(), None);
    durability.persist_new("g", &mut entry).unwrap();
    let batches = vec![batch(0), batch(1)];
    for ops in &batches {
        entry.commit_ops(ops.clone()).unwrap();
    }

    FaultPlan::arm("serve/checkpoint-write", 1, FaultAction::Panic);
    let aborted = catch_unwind(AssertUnwindSafe(|| durability.checkpoint("g", &mut entry)));
    assert!(aborted.is_err(), "armed checkpoint should panic");
    FaultPlan::clear();

    // The old era is still the live one: its writer appends record 3.
    let mut tail = batches.clone();
    tail.push(batch(7));
    entry.commit_ops(tail.last().unwrap().clone()).unwrap();
    assert_eq!(entry.seq(), 3);
    drop(entry);

    // Stale .tmp staging files must not confuse recovery.
    let paths = parcom_io::state_paths(&dir, "g");
    assert!(paths.pcg_tmp.exists() || paths.wal_tmp.exists());
    let (recovered, replayed) = recovered_csr(&dir);
    assert_eq!(replayed, 3);
    assert!(csr_bit_identical(&recovered, &reference_csr(&tail)));
    std::fs::remove_dir_all(&dir).ok();
}

/// The `Cancel` action: an armed token at the rebuild site fires during
/// the fold, degrading any detection that shares the token to a graceful
/// `cancelled` termination — while the fold itself still commits a
/// consistent CSR.
#[test]
fn cancel_at_rebuild_site_degrades_detection_without_corrupting_the_fold() {
    let _serial = serial_guard();
    FaultPlan::clear();
    let token = CancelToken::new();
    FaultPlan::arm("serve/store-rebuild", 1, FaultAction::Cancel(token.clone()));

    let store = GraphStore::new();
    store.insert("g", seed_graph(), None);
    let entry = store.get("g").unwrap();
    let first = batch(0);
    {
        let mut locked = lock_entry(&entry);
        locked.buffer_ops(first.iter().copied());
        assert!(!token.is_cancelled());
        locked.rebuild();
    }
    FaultPlan::clear();
    assert!(
        token.is_cancelled(),
        "crossing the site must fire the token"
    );

    // The fold committed a consistent CSR despite the cancellation.
    let (csr, _, _) = lock_entry(&entry).current();
    assert!(csr_bit_identical(&csr, &reference_csr(&[first])));

    // A detection holding the fired token degrades gracefully instead of
    // running: 200 with an explicit `cancelled` termination.
    let (status, body) =
        parcom_serve::handlers::detect(&store, br#"{"graph":"g","spec":"plm:seed=1"}"#, token);
    assert_eq!(status, 200, "{body}");
    let v = json::parse(&body).unwrap();
    assert_eq!(
        v.get("termination").and_then(Value::as_str),
        Some("cancelled"),
        "{body}"
    );
}
