//! The durability layer: `.pcg` checkpoints + WAL rotation + boot-time
//! recovery over a state directory (DESIGN.md §16).
//!
//! Two checkpoint generations are retained per graph. A checkpoint era is
//! installed by a six-step rotation whose every crash window recovers:
//!
//! 1. fold the pending buffer (`rebuild`), giving the state at WAL seq `S`
//! 2. stage `<name>.pcg.tmp` — a binfmt snapshot whose `wal-seq` section
//!    records `S`
//! 3. stage `<name>.wal.tmp` — a fresh, empty log with base sequence `S`
//! 4. rename `pcg → pcg.prev` and `wal → wal.prev`
//! 5. rename `pcg.tmp → pcg` and `wal.tmp → wal`
//! 6. fsync the directory
//!
//! Recovery reads `pcg` (falling back to `pcg.prev` if it is missing or
//! fails its checksums) and replays the `[wal.prev, wal]` chain filtered
//! to records with sequence **greater than** the checkpoint's embedded
//! `wal-seq`, requiring contiguity — so whichever side of each rename the
//! crash landed on, exactly the acknowledged suffix is reapplied. Because
//! the CSR builder is bit-deterministic for a given edge multiset, the
//! recovered graph is bit-identical to one that applied every batch
//! synchronously.

use crate::store::{lock_entry, GraphEntry, GraphStore};
use crate::wal::{self, FsyncPolicy, WalWriter};
use parcom_graph::Graph;
use parcom_guard::Budget;
use parcom_io::binfmt::write_pcg_to;
use parcom_io::corpus::{fsync_dir, scan_corpus, state_paths, StatePaths};
use parcom_io::{load_graph_bytes, GraphFormat, IoError, LoadedGraph};
use parcom_obs::Recorder;
use std::io;
use std::path::{Path, PathBuf};

/// Fold-count between automatic checkpoints: once a graph has accumulated
/// this many operations since its last checkpoint, the next edge batch
/// triggers one. A multiple of [`crate::store::REBUILD_BATCH`] so the
/// checkpoint usually rides on an already-due rebuild.
pub const CHECKPOINT_OPS: usize = 8 * crate::store::REBUILD_BATCH;

/// Handle on a state directory: owns naming, checkpoint rotation, and
/// recovery. Cheap to share (`Arc`); all per-graph mutual exclusion comes
/// from the entry locks of the store.
pub struct Durability {
    dir: PathBuf,
    policy: FsyncPolicy,
}

/// What boot-time recovery found and did.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Graphs restored into the store.
    pub graphs: usize,
    /// WAL records replayed across all graphs.
    pub records_replayed: usize,
    /// Graphs whose current-era log ended in a torn record (the crash
    /// interrupted an append that was never acknowledged).
    pub torn_tails: usize,
    /// Graphs restored from `pcg.prev` because `pcg` was missing or
    /// corrupt.
    pub fallbacks: usize,
    /// Graphs whose state was reopened in place (clean log, no new
    /// checkpoint era written) — the warm-restart fast path.
    pub warm: usize,
    /// Graphs that could not be restored (both checkpoint generations
    /// unreadable); their files are left untouched for inspection.
    pub unrecovered: Vec<String>,
}

impl Durability {
    /// Opens (creating if needed) a state directory.
    pub fn open(dir: &Path, policy: FsyncPolicy) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        Ok(Self {
            dir: dir.to_path_buf(),
            policy,
        })
    }

    /// The state directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The fsync policy WALs are written under.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    fn paths(&self, name: &str) -> StatePaths {
        state_paths(&self.dir, name)
    }

    /// Persists a freshly loaded graph *before* it becomes visible in the
    /// store: any previous state set of the name is deleted, a checkpoint
    /// is written, and a fresh WAL is created and attached to the entry.
    /// The replace is not atomic — a crash inside it can lose the name
    /// entirely (the client never got its `2xx`) but can never mix old and
    /// new state, because the old set is fully removed first.
    pub fn persist_new(&self, name: &str, entry: &mut GraphEntry) -> io::Result<()> {
        let paths = self.paths(name);
        for path in paths.all() {
            remove_if_exists(path)?;
        }
        stage(&paths.pcg_tmp, &entry.current().0, entry.seq())?;
        std::fs::rename(&paths.pcg_tmp, &paths.pcg)?;
        let wal = WalWriter::create(&paths.wal, entry.seq(), self.policy)?;
        fsync_dir(&self.dir)?;
        entry.attach_wal(wal);
        Ok(())
    }

    /// Installs a new checkpoint era for `entry` (the rotation in the
    /// module docs). On error or unwind the entry keeps its previous WAL
    /// and stays fully consistent — the fold performed by the embedded
    /// `rebuild` is covered by the old log, so nothing acknowledged is
    /// lost; the checkpoint is simply retried later.
    pub fn checkpoint(&self, name: &str, entry: &mut GraphEntry) -> io::Result<()> {
        entry.rebuild();
        // A checkpoint puts the graph at rest: one compact CSR, which the
        // `.pcg` write reads whole anyway.
        entry.compact();
        let seq = entry.seq();
        let paths = self.paths(name);
        stage(&paths.pcg_tmp, &entry.current().0, seq)?;
        let wal = WalWriter::create(&paths.wal_tmp, seq, self.policy)?;
        parcom_guard::faultpoint!("serve/checkpoint-write");
        rename_if_exists(&paths.pcg, &paths.pcg_prev)?;
        rename_if_exists(&paths.wal, &paths.wal_prev)?;
        std::fs::rename(&paths.pcg_tmp, &paths.pcg)?;
        std::fs::rename(&paths.wal_tmp, &paths.wal)?;
        fsync_dir(&self.dir)?;
        // The writer's fd follows the rename: it now appends to `.wal`.
        entry.attach_wal(wal);
        Ok(())
    }

    /// Deletes every state file of `name` (the eviction path).
    pub fn remove(&self, name: &str) -> io::Result<()> {
        for path in self.paths(name).all() {
            remove_if_exists(path)?;
        }
        fsync_dir(&self.dir)
    }

    /// Scans the state directory and restores every recoverable graph
    /// into `store`. Individually damaged graphs are skipped (listed in
    /// [`RecoveryReport::unrecovered`]) rather than failing the boot.
    pub fn recover(&self, store: &GraphStore) -> Result<RecoveryReport, String> {
        let mut report = RecoveryReport::default();
        let entries = scan_corpus(&self.dir).map_err(|e| e.to_string())?;
        for corpus_entry in entries {
            match self.recover_one(&corpus_entry.name, &corpus_entry.paths, &mut report) {
                Ok(entry) => {
                    store.insert_entry(&corpus_entry.name, entry);
                    report.graphs += 1;
                }
                Err(message) => {
                    eprintln!(
                        "parcom-serve: recovery skipped `{}`: {message}",
                        corpus_entry.name
                    );
                    report.unrecovered.push(corpus_entry.name);
                }
            }
        }
        Ok(report)
    }

    fn recover_one(
        &self,
        name: &str,
        paths: &StatePaths,
        report: &mut RecoveryReport,
    ) -> Result<GraphEntry, String> {
        let (snapshot, fallback) = match read_checkpoint(&paths.pcg) {
            Ok(snapshot) => (snapshot, false),
            Err(primary) => match read_checkpoint(&paths.pcg_prev) {
                Ok(snapshot) => (snapshot, true),
                Err(secondary) => {
                    return Err(format!(
                        "checkpoint unreadable ({primary}) and fallback unreadable ({secondary})"
                    ));
                }
            },
        };
        if fallback {
            report.fallbacks += 1;
        }
        let base = snapshot.wal_seq.unwrap_or(0);
        // a legacy relabeled checkpoint was mapped back to original ids
        // by the reader, so the log's ids apply as written
        let mut entry = GraphEntry::new(snapshot.graph, None);
        entry.set_seq(base);

        // Replay the log chain, keeping only records past the checkpoint
        // and requiring contiguous sequences. `wal.prev` usually holds
        // nothing newer (its era ended at the checkpoint) but after a
        // mid-rotation crash it can carry the whole acknowledged tail.
        let mut last = base;
        let mut current_torn = false;
        let mut current_clean_end = None;
        for (is_current, path) in [(false, &paths.wal_prev), (true, &paths.wal)] {
            if !path.exists() {
                continue;
            }
            match wal::replay(path) {
                Ok(replayed) => {
                    for (seq, ops) in replayed.records {
                        if seq == last + 1 {
                            entry.buffer_ops(ops);
                            last = seq;
                            report.records_replayed += 1;
                        }
                        // seq <= last: already covered by the checkpoint
                        // or the previous file; a gap beyond last+1 cannot
                        // arise from contiguous per-file sequences.
                    }
                    if is_current {
                        current_torn = replayed.torn;
                        if !replayed.torn && replayed.base_seq <= last {
                            current_clean_end = Some(last);
                        }
                    }
                }
                Err(e) => {
                    if is_current {
                        current_torn = true;
                        eprintln!("parcom-serve: `{name}` log unreadable, re-checkpointing: {e}");
                    }
                }
            }
        }
        entry.set_seq(last);
        if current_torn {
            report.torn_tails += 1;
        }

        match current_clean_end {
            Some(end) if !fallback => {
                // Warm path: the current log is intact and continues the
                // checkpoint on disk — reopen it and keep appending.
                // Replayed ops stay buffered; the next rebuild folds them.
                let wal = WalWriter::append_to(&paths.wal, end, self.policy)
                    .map_err(|e| e.to_string())?;
                entry.attach_wal(wal);
                report.warm += 1;
            }
            _ => {
                // Dirty path (torn tail, fallback restore, or missing
                // log): fold everything and install a fresh era, which
                // also rotates the damaged log out of the way.
                self.checkpoint(name, &mut entry)
                    .map_err(|e| e.to_string())?;
            }
        }
        Ok(entry)
    }

    /// Flushes and checkpoints every resident graph — the graceful
    /// shutdown path. Returns the number of graphs checkpointed.
    pub fn checkpoint_all(&self, store: &GraphStore) -> usize {
        let mut done = 0;
        for (name, _) in store.list() {
            let Some(entry) = store.get(&name) else {
                continue;
            };
            let mut entry = lock_entry(&entry);
            if let Err(e) = entry.sync_wal() {
                eprintln!("parcom-serve: `{name}` WAL flush failed at shutdown: {e}");
            }
            if entry.ops_since_checkpoint() > 0 {
                match self.checkpoint(&name, &mut entry) {
                    Ok(()) => done += 1,
                    Err(e) => {
                        eprintln!("parcom-serve: `{name}` checkpoint failed at shutdown: {e}")
                    }
                }
            }
        }
        done
    }
}

/// Reads a checkpoint through the one loader. The fallback format is
/// binary, so a damaged magic is the typed "bad magic" error and never a
/// text parse; the budget is unlimited because resident graphs may
/// legitimately have grown past the ingest limits via acknowledged
/// mutations.
fn read_checkpoint(path: &Path) -> Result<LoadedGraph, IoError> {
    std::fs::read(path)
        .map_err(IoError::from)
        .and_then(|bytes| {
            load_graph_bytes(
                &bytes,
                GraphFormat::PcgBinary,
                &Recorder::disabled(),
                &Budget::unlimited(),
            )
        })
        .map_err(|e| e.with_path(path))
}

/// Stages the checkpoint of `graph` at WAL sequence `seq` at `tmp`,
/// streamed from the CSR's arrays a piece at a time (no image of it is
/// assembled in memory) and always fsynced: checkpoints are rare and a
/// checkpoint that may vanish in a power cut is worthless, whatever the
/// per-record WAL policy says.
fn stage(tmp: &Path, graph: &Graph, seq: u64) -> io::Result<()> {
    let mut file = std::fs::File::create(tmp)?;
    write_pcg_to(graph, Some(seq), &mut file).map_err(io_err)?;
    file.sync_data()
}

fn remove_if_exists(path: &Path) -> io::Result<()> {
    match std::fs::remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e),
    }
}

fn rename_if_exists(from: &Path, to: &Path) -> io::Result<()> {
    match std::fs::rename(from, to) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e),
    }
}

fn io_err(e: parcom_io::IoError) -> io::Error {
    io::Error::other(e.to_string())
}

/// A reference graph check used by tests and the recovery docs: whether
/// two graphs are bit-identical as CSRs (offsets, targets, weight bits).
// audit:allow(unreachable-pub): the bit-identity check of the crash_recovery and fault_inject tests
pub fn csr_bit_identical(a: &Graph, b: &Graph) -> bool {
    let (av, bv) = (a.csr_view(), b.csr_view());
    av.offsets == bv.offsets
        && av.targets == bv.targets
        && av.weights.len() == bv.weights.len()
        && av
            .weights
            .iter()
            .zip(bv.weights.iter())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::EdgeOp;
    use parcom_graph::GraphBuilder;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("parcom-persist-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn seed_graph() -> Graph {
        GraphBuilder::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
    }

    #[test]
    fn persist_commit_restart_is_bit_identical() {
        let dir = temp_dir("roundtrip");
        let durability = Durability::open(&dir, FsyncPolicy::Never).unwrap();
        let mut entry = GraphEntry::new(seed_graph(), None);
        durability.persist_new("g", &mut entry).unwrap();
        entry
            .commit_ops(vec![EdgeOp::Insert(0, 3, 2.0), EdgeOp::Remove(1, 2)])
            .unwrap();
        entry.commit_ops(vec![EdgeOp::Insert(2, 5, 0.5)]).unwrap();
        // Reference: the same ops applied synchronously.
        let mut reference = GraphEntry::new(seed_graph(), None);
        reference.buffer_ops([
            EdgeOp::Insert(0, 3, 2.0),
            EdgeOp::Remove(1, 2),
            EdgeOp::Insert(2, 5, 0.5),
        ]);
        reference.rebuild();
        // Simulated crash: drop the entry (WAL already has both records).
        drop(entry);
        let store = GraphStore::new();
        let report = durability.recover(&store).unwrap();
        assert_eq!(report.graphs, 1);
        assert_eq!(report.records_replayed, 2);
        assert_eq!(report.warm, 1, "intact log reopens in place");
        assert!(report.unrecovered.is_empty());
        let recovered = store.snapshot("g").unwrap().graph;
        let (expected, _) = reference.current();
        assert!(csr_bit_identical(&recovered, &expected));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_rotates_and_truncates_the_log() {
        let dir = temp_dir("rotate");
        let durability = Durability::open(&dir, FsyncPolicy::Never).unwrap();
        let mut entry = GraphEntry::new(seed_graph(), None);
        durability.persist_new("g", &mut entry).unwrap();
        entry.commit_ops(vec![EdgeOp::Insert(0, 2, 1.0)]).unwrap();
        durability.checkpoint("g", &mut entry).unwrap();
        let paths = state_paths(&dir, "g");
        assert!(paths.pcg.exists() && paths.pcg_prev.exists());
        assert!(paths.wal.exists() && paths.wal_prev.exists());
        let fresh = wal::replay(&paths.wal).unwrap();
        assert_eq!(fresh.base_seq, 1, "new era starts at the checkpoint seq");
        assert!(fresh.records.is_empty(), "log truncated by rotation");
        // The attached writer appends to the *renamed* current log.
        entry.commit_ops(vec![EdgeOp::Insert(1, 3, 1.0)]).unwrap();
        assert_eq!(wal::replay(&paths.wal).unwrap().records.len(), 1);
        // Restart picks up checkpoint@1 + one record.
        let store = GraphStore::new();
        let report = durability.recover(&store).unwrap();
        assert_eq!(report.records_replayed, 1);
        let stats = lock_entry(&store.get("g").unwrap()).stats();
        assert_eq!(stats.seq, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_checkpoint_falls_back_to_previous_generation() {
        let dir = temp_dir("fallback");
        let durability = Durability::open(&dir, FsyncPolicy::Never).unwrap();
        let mut entry = GraphEntry::new(seed_graph(), None);
        durability.persist_new("g", &mut entry).unwrap();
        entry.commit_ops(vec![EdgeOp::Insert(0, 2, 1.0)]).unwrap();
        durability.checkpoint("g", &mut entry).unwrap();
        entry.commit_ops(vec![EdgeOp::Insert(1, 4, 1.0)]).unwrap();
        let mut reference = GraphEntry::new(seed_graph(), None);
        reference.buffer_ops([EdgeOp::Insert(0, 2, 1.0), EdgeOp::Insert(1, 4, 1.0)]);
        reference.rebuild();
        drop(entry);
        // Flip a byte in the current checkpoint's body.
        let paths = state_paths(&dir, "g");
        let mut bytes = std::fs::read(&paths.pcg).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&paths.pcg, &bytes).unwrap();
        let store = GraphStore::new();
        let report = durability.recover(&store).unwrap();
        assert_eq!(report.graphs, 1);
        assert_eq!(report.fallbacks, 1);
        // prev checkpoint is seq 0; both acknowledged records replay.
        assert_eq!(report.records_replayed, 2);
        let recovered = store.snapshot("g").unwrap().graph;
        let (expected, _) = reference.current();
        assert!(csr_bit_identical(&recovered, &expected));
        // The dirty path re-checkpointed: a fresh intact era is on disk.
        let fresh = wal::replay(&paths.wal).unwrap();
        assert_eq!(fresh.base_seq, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn remove_deletes_the_whole_state_set() {
        let dir = temp_dir("remove");
        let durability = Durability::open(&dir, FsyncPolicy::Never).unwrap();
        let mut entry = GraphEntry::new(seed_graph(), None);
        durability.persist_new("g", &mut entry).unwrap();
        durability.checkpoint("g", &mut entry).unwrap();
        durability.remove("g").unwrap();
        assert!(scan_corpus(&dir).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
