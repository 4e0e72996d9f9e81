//! The resident graph registry: named graphs held in memory across
//! requests, with buffered edge mutations folded into the CSR in batches.
//!
//! The CSR representation is immutable by design (that is what makes the
//! detection kernels fast), so mutation is write-behind: edge inserts and
//! deletes accumulate in an order-preserving buffer and are folded into a
//! fresh CSR either when the buffer reaches [`REBUILD_BATCH`] operations,
//! when a client forces it, or — always — before a detection snapshot, so
//! every detection sees all acknowledged edits. The fold writes only the
//! rows the edits touch ([`Graph::overlaid`]): an edited graph is its last
//! compact CSR, shared through an `Arc`, plus an overlay of the rows that
//! differ from it, merged anew by every fold — O(Σ touched degree +
//! |overlay|), whatever the size of the graph. Once the overlay holds
//! more than 1/[`COMPACT_SHARE`] of the base's entries, and at every
//! checkpoint, the fold *compacts*: it writes the whole graph as one fresh
//! CSR and drops the base, so an edited graph is one CSR plus its overlay.
//!
//! Beside the CSR an entry keeps a few *warm slots*: per detector spec,
//! the last partition a detection converged to, its community aggregates
//! (ω(C), vol(C)) on the current CSR, the generation it was computed at
//! and the endpoints of every edit folded in since. The next detection
//! with that spec starts from there ([`StartState`]), re-evaluates only
//! those endpoints and reads its modularity off the aggregates instead of
//! scanning every edge; a reply that carries the partition streams the
//! text the slot rendered once. Slots are derived, memory-only state:
//! nothing of them is logged or checkpointed, and a restarted daemon
//! starts with none.

use crate::wal::WalWriter;
use parcom_core::quality::CommunityAggregates;
use parcom_core::StartState;
use parcom_graph::relabel::Relabeling;
use parcom_graph::{Graph, Node, Partition};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::Instant;

/// Pending-operation count that triggers an automatic rebuild at the end of
/// an edge-batch request. A fold costs what the edits touch plus a copy
/// of the overlay, so batching saves little beyond the per-fold row mask
/// (and, on a weighted graph, the ω(E) sum); the constant bounds the
/// memory a graph's unfolded edits hold and the fold a detection may have
/// to wait for.
pub const REBUILD_BATCH: usize = 4096;

/// A fold compacts the graph once its overlay holds more than
/// 1/`COMPACT_SHARE` of the base's adjacency entries. Each fold copies the
/// overlay, so its cost and the memory beside the base grow with it, while
/// a compaction's O(n + m) is spread over the folds between two of them. At
/// the benchmark's 256-op batches on n = 120 000 a sixteenth compacts once
/// in about fifteen folds, and its fold's p50 and p90 both beat an eighth's
/// (EXPERIMENTS.md, "A fold that writes only the touched rows").
pub const COMPACT_SHARE: usize = 16;

/// Hard cap on one entry's buffered operations: a request that would push
/// the buffer past this is shed with `429` instead of queued (the bounded
/// admission half of DESIGN.md §16). Since rebuilds fire at
/// [`REBUILD_BATCH`], only a single oversized batch can approach the cap.
pub const MAX_PENDING_OPS: usize = 4 * REBUILD_BATCH;

/// How many warm slots — distinct detector specs — one entry keeps. A
/// slot costs 4 bytes per node; past this many the stalest base goes.
pub const WARM_SLOTS: usize = 4;

/// A warm slot is dropped once its dirty endpoints exceed `n` over this.
/// A quarter of the nodes is the largest share at which one sweep still
/// absorbed the edits (EXPERIMENTS.md, "Warm starts": 22 % dirty → 1
/// sweep, 39 % → 5); past it a warm run is still cheaper than a cold one,
/// but no longer costs what the edit cost, the base describes ever less of
/// the graph, and the list itself approaches the partition's size.
pub const WARM_DIRTY_SHARE: usize = 4;

/// Locks an entry, tolerating poisoning. Every [`GraphEntry`] mutator
/// either commits no state on unwind ([`GraphEntry::rebuild`] builds the
/// new CSR before touching any field) or fails stop (a WAL append wedges
/// its writer), so a panicking request thread leaves the entry consistent
/// and later requests may keep serving it.
pub fn lock_entry(entry: &Mutex<GraphEntry>) -> MutexGuard<'_, GraphEntry> {
    entry.lock().unwrap_or_else(|e| e.into_inner())
}

/// One buffered mutation. Operations are kept in arrival order so that
/// within a window, later operations on an edge override earlier ones
/// (insert-then-delete deletes; delete-then-insert re-inserts).
#[derive(Clone, Copy, Debug)]
pub enum EdgeOp {
    /// Insert the edge, or overwrite its weight if it already exists.
    Insert(Node, Node, f64),
    /// Remove the edge if present (a no-op otherwise).
    Remove(Node, Node),
}

/// The last converged result of one detector spec on one resident graph.
struct WarmSlot {
    /// Canonical spec string ([`DetectorSpec`](parcom_core::DetectorSpec)'s
    /// `Display`), the slot's key.
    spec: String,
    /// Generation of the graph `partition` was computed on.
    generation: u64,
    /// Never changed once stored, so runs and replies share it instead of
    /// copying it.
    partition: Arc<Partition>,
    /// ω(C) and vol(C) of `partition` on the *current* CSR — nodes added
    /// since in their singletons, as a run started from it labels them —
    /// patched by every fold. `None` when the result came without them.
    aggregates: Option<CommunityAggregates>,
    /// Endpoints of every edit folded in after `generation`, sorted, each
    /// once: the frontier of the next warm start.
    dirty: Vec<Node>,
    /// `partition` as a reply's `partition` array holds it —
    /// comma-separated, without the brackets — once a detect has asked
    /// for it; shared by every later reply of this partition.
    text: Option<Arc<[u8]>>,
}

impl WarmSlot {
    /// What the slot holds: 4 bytes per node of the partition, 16 per
    /// community of the aggregates, 4 per dirty endpoint, and the text.
    fn bytes(&self) -> usize {
        4 * self.partition.len()
            + 16 * self.aggregates.as_ref().map_or(0, CommunityAggregates::len)
            + 4 * self.dirty.len()
            + self.text.as_ref().map_or(0, |text| text.len())
    }
}

/// Listing summary of one warm slot.
pub struct WarmStats {
    /// Canonical spec string.
    pub spec: String,
    /// Generation the cached partition was computed at.
    pub base_generation: u64,
    /// Endpoints waiting for the next warm start.
    pub dirty: usize,
    /// Bytes the slot holds: its partition, aggregates, dirty list and
    /// reply text.
    pub bytes: usize,
}

/// A named resident graph plus its mutation buffer.
pub struct GraphEntry {
    /// The resident graph: a plain CSR, or an overlay over the CSR the
    /// last compaction wrote.
    graph: Arc<Graph>,
    pending: Vec<EdgeOp>,
    /// Bumped on every rebuild; lets clients correlate detection results
    /// with the graph version they ran against.
    generation: u64,
    /// Sequence number of the last acknowledged batch: the WAL record
    /// sequence when durable, a plain batch counter otherwise.
    seq: u64,
    /// The write-ahead log this entry appends to before acknowledging a
    /// batch; `None` when the daemon runs without `--state-dir`.
    wal: Option<WalWriter>,
    /// Operations folded in since the last checkpoint; drives the
    /// automatic checkpoint cadence.
    ops_since_checkpoint: usize,
    /// At most [`WARM_SLOTS`] cached results, one per spec.
    warm: Vec<WarmSlot>,
}

/// A point-in-time summary of one entry, for listings.
pub struct EntryStats {
    /// Node count of the current CSR.
    pub nodes: usize,
    /// Edge count of the current CSR.
    pub edges: usize,
    /// Buffered operations not yet folded in.
    pub pending: usize,
    /// Current generation: the number of rebuilds since load.
    pub generation: u64,
    /// Sequence of the last acknowledged batch (WAL record when durable).
    pub seq: u64,
    /// Whether the entry appends to a write-ahead log.
    pub durable: bool,
    /// The warm slots: which specs have a cached result, and how stale.
    pub warm: Vec<WarmStats>,
    /// Bytes of the resident graph: its base CSR's five arrays plus its
    /// overlay, counted without compacting.
    pub resident_bytes: usize,
    /// Rows the overlay replaces (0 for a compact graph).
    pub overlay_rows: usize,
    /// The overlay's share of `resident_bytes`.
    pub overlay_bytes: usize,
}

/// What a detection runs against: the CSR with every acknowledged edit
/// folded in, and what that fold cost this request.
pub struct Snapshot {
    /// The resident CSR, shared.
    pub graph: Arc<Graph>,
    /// Generation of `graph`.
    pub generation: u64,
    /// Buffered operations this snapshot folded in first (0 = none pending).
    pub folded_ops: usize,
    /// Wall time of that fold in milliseconds (0.0 when nothing was pending).
    pub fold_ms: f64,
    /// Whether that fold compacted the graph into one CSR.
    pub compacted: bool,
    /// Rows `graph`'s overlay replaces (0 for a compact graph).
    pub overlay_rows: usize,
}

/// Canonicalizes one operation's endpoint order so fold keys match the
/// CSR's `u <= v` edge orientation — applied before WAL append, so the log
/// stores exactly what the buffer holds.
fn canonical(op: EdgeOp) -> EdgeOp {
    match op {
        EdgeOp::Insert(u, v, w) => EdgeOp::Insert(u.min(v), u.max(v), w),
        EdgeOp::Remove(u, v) => EdgeOp::Remove(u.min(v), u.max(v)),
    }
}

impl GraphEntry {
    /// A fresh entry at sequence 0 with no log attached. Public so the
    /// durability layer can persist an entry *before* it becomes visible
    /// in the store.
    ///
    /// `relabeling` is there for the benchmark, which binds
    /// `GraphEntry::new(g, None)`; parcom itself always passes `None`.
    /// `Some(r)` takes `graph` as a view relabeled by `r` and maps it back
    /// to original ids as the `.pcg` reader does, so no entry ever holds a
    /// permuted view.
    pub fn new(graph: Graph, relabeling: Option<Relabeling>) -> Self {
        let graph = match relabeling {
            Some(r) => r.inverse().apply(&graph),
            None => graph,
        };
        Self {
            graph: Arc::new(graph),
            pending: Vec::new(),
            generation: 0,
            seq: 0,
            wal: None,
            ops_since_checkpoint: 0,
            warm: Vec::new(),
        }
    }

    /// Appends a batch of operations, canonicalizing endpoint order so the
    /// fold's keys match the CSR's `u <= v` edge orientation. Returns the
    /// pending count after the append. Low-level: does *not* touch the WAL
    /// or the sequence — recovery replay and tests use it directly; the
    /// request path goes through [`GraphEntry::commit_ops`].
    pub fn buffer_ops(&mut self, ops: impl IntoIterator<Item = EdgeOp>) -> usize {
        for op in ops {
            self.pending.push(canonical(op));
        }
        self.pending.len()
    }

    /// The durable batch path: canonicalizes, appends one WAL record (when
    /// a log is attached) and only then buffers — so by the time the batch
    /// is acknowledged it is already on disk. On a WAL error *nothing* is
    /// buffered and the error propagates (the writer wedges itself;
    /// DESIGN.md §16).
    pub fn commit_ops(&mut self, ops: Vec<EdgeOp>) -> std::io::Result<usize> {
        let ops: Vec<EdgeOp> = ops.into_iter().map(canonical).collect();
        match &mut self.wal {
            Some(wal) => self.seq = wal.append(&ops)?,
            None => self.seq += 1,
        }
        self.ops_since_checkpoint += ops.len();
        self.pending.extend(ops);
        Ok(self.pending.len())
    }

    /// Attaches the write-ahead log this entry will append to. The log's
    /// last sequence must equal the entry's (a fresh log is created at the
    /// entry's checkpoint sequence).
    pub fn attach_wal(&mut self, wal: WalWriter) {
        debug_assert_eq!(wal.last_seq(), self.seq);
        self.wal = Some(wal);
        self.ops_since_checkpoint = 0;
    }

    /// Sequence of the last acknowledged batch.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Overrides the sequence counter — recovery replay only, where the
    /// sequence comes from the checkpoint header and the replayed records.
    pub fn set_seq(&mut self, seq: u64) {
        self.seq = seq;
    }

    /// Operations folded in since the last checkpoint (drives the
    /// automatic checkpoint cadence).
    pub fn ops_since_checkpoint(&self) -> usize {
        self.ops_since_checkpoint
    }

    /// Flushes the attached log to disk regardless of fsync policy — the
    /// graceful-shutdown path.
    pub fn sync_wal(&mut self) -> std::io::Result<()> {
        match &mut self.wal {
            Some(wal) => wal.sync(),
            None => Ok(()),
        }
    }

    /// Buffered operations not yet folded in.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Writes an overlay graph out as one fresh CSR and drops the base
    /// (a snapshot that still reads it keeps it alive). Returns whether it
    /// compacted: `false` when the graph is compact already. Unwind-safe
    /// like [`Self::rebuild`]: nothing is replaced before the new CSR is
    /// complete.
    pub fn compact(&mut self) -> bool {
        if !self.graph.is_overlaid() {
            return false;
        }
        self.graph = Arc::new(self.graph.compacted());
        true
    }

    /// Whether the buffer has reached the automatic rebuild threshold.
    pub fn rebuild_due(&self) -> bool {
        self.pending.len() >= REBUILD_BATCH
    }

    /// Folds the pending buffer into the graph by a row merge
    /// ([`Graph::overlaid`]): the final state of each touched edge is
    /// resolved in arrival order (last operation wins), then merged into
    /// the ≤ 2·|buffer| rows it touches, which join the overlay's earlier
    /// rows over the shared base; no other row is read or written. Past
    /// 1/[`COMPACT_SHARE`] of the base's entries the overlay is compacted
    /// ([`Self::compact`]). Node ids beyond the current range grow the
    /// graph — `n` becomes `1 + max endpoint` over *every* buffered insert,
    /// even one a later remove cancels. No-op when the buffer is empty.
    ///
    /// Unwind-safe: every field mutation happens *after* the new CSR is
    /// fully built, so a panic mid-rebuild (allocation failure, injected
    /// fault at `serve/store-rebuild`) leaves the resident graph, the
    /// pending buffer and the WAL exactly as they were — the rebuild can
    /// simply be retried. The rebuilt graph reads — and compacts to —
    /// bit-identical arrays for a given (graph, buffered-op-sequence) pair
    /// regardless of thread count, rebuild batching or when it compacted:
    /// each fold leaves rows sorted by neighbor with the surviving weights
    /// verbatim, and the caches are summed row by row from the arrays
    /// alone. Recovery replay relies on this.
    ///
    /// Every fold, checkpoint and replay comes through here, so this is
    /// also where the warm slots learn what changed: each keeps the folded
    /// edits' endpoints and patches its aggregates by them
    /// ([`CommunityAggregates::apply_edits`], O(|edits| · log d)), or is
    /// dropped when too much of the graph is dirty ([`WARM_DIRTY_SHARE`]).
    pub fn rebuild(&mut self) {
        self.fold();
    }

    /// [`Self::rebuild`]; says whether the fold compacted.
    fn fold(&mut self) -> bool {
        if self.pending.is_empty() {
            return false;
        }
        let n_old = self.graph.node_count();
        let mut n_new = n_old;
        // Arrival-order resolution: the stable sort keeps each edge's
        // operations in arrival order, so the last of a run wins.
        let mut edits: Vec<(Node, Node, Option<f64>)> = Vec::with_capacity(self.pending.len());
        for op in &self.pending {
            edits.push(match *op {
                EdgeOp::Insert(u, v, w) => {
                    n_new = n_new.max(v as usize + 1);
                    (u, v, Some(w))
                }
                EdgeOp::Remove(u, v) => (u, v, None),
            });
        }
        edits.sort_by_key(|&(u, v, _)| (u, v));
        edits.dedup_by(|later, kept| {
            let same_edge = (later.0, later.1) == (kept.0, kept.1);
            if same_edge {
                kept.2 = later.2;
            }
            same_edge
        });
        // A remove that wins on an out-of-range edge has nothing to remove.
        edits.retain(|&(_, v, w)| w.is_some() || (v as usize) < n_old);
        parcom_guard::faultpoint!("serve/store-rebuild");
        let rebuilt = Graph::overlaid(&self.graph, n_new, &edits);
        // Commit point: nothing above mutated the entry.
        let dirty_cap = n_new / WARM_DIRTY_SHARE;
        let touched: Vec<Node> = edits.iter().flat_map(|&(u, v, _)| [u, v]).collect();
        self.warm.retain_mut(|slot| {
            slot.dirty.extend_from_slice(&touched);
            slot.dirty.sort_unstable();
            slot.dirty.dedup();
            let keep = slot.dirty.len() <= dirty_cap;
            if let Some(agg) = slot.aggregates.as_mut().filter(|_| keep) {
                // `self.graph` is still the retiring CSR: weights before
                // the edit
                agg.apply_edits(&slot.partition, &self.graph, n_new, &edits);
            }
            keep
        });
        self.pending.clear();
        self.graph = Arc::new(rebuilt);
        self.generation += 1;
        let footprint = self.graph.footprint();
        footprint.overlay_entries * COMPACT_SHARE > footprint.base_entries && self.compact()
    }

    /// The resident CSR (pending operations excluded) and its generation.
    pub fn current(&self) -> (Arc<Graph>, u64) {
        (Arc::clone(&self.graph), self.generation)
    }

    /// Folds the pending buffer and returns what a detection runs against.
    pub fn snapshot(&mut self) -> Snapshot {
        let folded_ops = self.pending.len();
        let started = Instant::now();
        let compacted = self.fold();
        let fold_ms = if folded_ops == 0 {
            0.0
        } else {
            started.elapsed().as_secs_f64() * 1e3
        };
        let (graph, generation) = self.current();
        Snapshot {
            overlay_rows: graph.footprint().overlay_rows,
            graph,
            generation,
            folded_ops,
            fold_ms,
            compacted,
        }
    }

    /// Where a detection with `spec` on the current CSR can start: the
    /// slot's generation and its partition with the endpoints dirtied
    /// since and its aggregates. `None` when nothing is cached for `spec`.
    /// The partition is shared, never written; the slot keeps its own copy
    /// of the aggregates — 16 bytes per community, patched in place by
    /// every fold — so a run that is cut short, or one running beside it,
    /// leaves it whole.
    pub fn warm_start(&self, spec: &str) -> Option<(u64, StartState)> {
        let slot = self.warm.iter().find(|slot| slot.spec == spec)?;
        let start = StartState {
            base: Arc::clone(&slot.partition),
            frontier: slot.dirty.clone(),
            aggregates: slot.aggregates.clone(),
        };
        Some((slot.generation, start))
    }

    /// Caches `partition` — a *converged* result of `spec` on the CSR of
    /// `generation` — and its `aggregates` on that CSR as the base of the
    /// next detection with that spec. A result of an older generation is
    /// discarded (`false`): the endpoints folded in meanwhile are not
    /// known to it, and storing it as current would hide them from every
    /// later warm start. The slot already there, if any, stays and keeps
    /// counting. A result that is the slot's own partition keeps the
    /// slot's reply text.
    pub fn store_result(
        &mut self,
        spec: &str,
        generation: u64,
        partition: Arc<Partition>,
        aggregates: Option<CommunityAggregates>,
    ) -> bool {
        if generation != self.generation {
            return false;
        }
        // Takes the place of the same spec's slot, else a free one, else
        // that of the stalest base.
        let same = self.warm.iter().position(|slot| slot.spec == spec);
        let evicted = match same {
            Some(same) => Some(same),
            None if self.warm.len() < WARM_SLOTS => None,
            None => (0..WARM_SLOTS).min_by_key(|&i| self.warm[i].generation),
        };
        let text = same
            .map(|at| &mut self.warm[at])
            .filter(|slot| Arc::ptr_eq(&slot.partition, &partition))
            .and_then(|slot| slot.text.take());
        if let Some(at) = evicted {
            self.warm.swap_remove(at);
        }
        self.warm.push(WarmSlot {
            spec: spec.to_string(),
            generation,
            partition,
            aggregates,
            dirty: Vec::new(),
            text,
        });
        true
    }

    /// The reply text kept beside `spec`'s slot, when the slot holds
    /// `partition` itself and a detect has rendered it.
    pub(crate) fn partition_text(
        &self,
        spec: &str,
        partition: &Arc<Partition>,
    ) -> Option<Arc<[u8]>> {
        let holds = |slot: &&WarmSlot| slot.spec == spec && Arc::ptr_eq(&slot.partition, partition);
        self.warm.iter().find(holds)?.text.clone()
    }

    /// Keeps `text`, the reply text of `partition`, beside `spec`'s slot
    /// if the slot still holds `partition` itself; otherwise drops it.
    pub(crate) fn keep_partition_text(
        &mut self,
        spec: &str,
        partition: &Arc<Partition>,
        text: Arc<[u8]>,
    ) {
        let holds =
            |slot: &&mut WarmSlot| slot.spec == spec && Arc::ptr_eq(&slot.partition, partition);
        if let Some(slot) = self.warm.iter_mut().find(holds) {
            slot.text = Some(text);
        }
    }

    /// Listing summary.
    pub fn stats(&self) -> EntryStats {
        let footprint = self.graph.footprint();
        EntryStats {
            nodes: self.graph.node_count(),
            edges: self.graph.edge_count(),
            pending: self.pending.len(),
            generation: self.generation,
            seq: self.seq,
            durable: self.wal.is_some(),
            warm: (self.warm.iter())
                .map(|slot| WarmStats {
                    spec: slot.spec.clone(),
                    base_generation: slot.generation,
                    dirty: slot.dirty.len(),
                    bytes: slot.bytes(),
                })
                .collect(),
            resident_bytes: footprint.base_bytes + footprint.overlay_bytes,
            overlay_rows: footprint.overlay_rows,
            overlay_bytes: footprint.overlay_bytes,
        }
    }
}

/// The store: graph name → entry. The outer map lock is held only for
/// lookup/insert/remove; per-entry work (buffering, rebuilds) runs under the
/// entry's own mutex, so a long rebuild of one graph never blocks requests
/// against another.
#[derive(Default)]
pub struct GraphStore {
    inner: RwLock<HashMap<String, Arc<Mutex<GraphEntry>>>>,
}

impl GraphStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (or replaces) a named graph. Returns whether a previous
    /// graph of that name was replaced.
    pub fn insert(&self, name: &str, graph: Graph) -> bool {
        self.insert_entry(name, GraphEntry::new(graph, None))
    }

    /// Inserts (or replaces) a pre-built entry — the durability layer
    /// persists an entry (checkpoint + fresh WAL) *before* handing it over,
    /// so a graph is never visible in the store without its on-disk state.
    pub fn insert_entry(&self, name: &str, entry: GraphEntry) -> bool {
        self.inner
            .write()
            .unwrap()
            .insert(name.to_string(), Arc::new(Mutex::new(entry)))
            .is_some()
    }

    /// Evicts a named graph; `false` if it was not resident. In-flight
    /// detections keep their `Arc<Graph>` snapshot alive until they finish.
    pub fn remove(&self, name: &str) -> bool {
        self.inner.write().unwrap().remove(name).is_some()
    }

    /// The entry for `name`, if resident.
    pub fn get(&self, name: &str) -> Option<Arc<Mutex<GraphEntry>>> {
        self.inner.read().unwrap().get(name).cloned()
    }

    /// A consistent detection snapshot: flushes the entry's pending buffer
    /// (so the detection sees all acknowledged edits) and returns the CSR
    /// as a cheap `Arc` clone plus its generation. The entry lock is released before
    /// detection starts — concurrent mutations build new CSRs while old
    /// snapshots keep running.
    pub fn snapshot(&self, name: &str) -> Option<Snapshot> {
        let entry = self.get(name)?;
        let snapshot = lock_entry(&entry).snapshot();
        Some(snapshot)
    }

    /// Sorted names with per-entry stats.
    pub fn list(&self) -> Vec<(String, EntryStats)> {
        let mut rows: Vec<(String, EntryStats)> = self
            .inner
            .read()
            .unwrap()
            .iter()
            .map(|(name, entry)| (name.clone(), lock_entry(entry).stats()))
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows
    }

    /// Number of resident graphs.
    pub fn len(&self) -> usize {
        self.inner.read().unwrap().len()
    }

    /// Whether no graphs are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcom_graph::GraphBuilder;

    fn path_graph(n: usize) -> Graph {
        let edges: Vec<(Node, Node)> = (0..n as Node - 1).map(|u| (u, u + 1)).collect();
        GraphBuilder::from_edges(n, &edges)
    }

    #[test]
    fn ops_apply_in_arrival_order() {
        let store = GraphStore::new();
        store.insert("p", path_graph(4));
        let entry = store.get("p").unwrap();
        {
            let mut e = entry.lock().unwrap();
            // insert-then-remove cancels; remove-then-insert survives
            e.buffer_ops([
                EdgeOp::Insert(0, 3, 1.0),
                EdgeOp::Remove(3, 0),
                EdgeOp::Remove(1, 2),
                EdgeOp::Insert(2, 1, 5.0),
            ]);
            e.rebuild();
        }
        let Snapshot {
            graph: g,
            generation,
            ..
        } = store.snapshot("p").unwrap();
        assert_eq!(generation, 1);
        assert!(!g.has_edge(0, 3));
        assert_eq!(g.edge_weight(1, 2), Some(5.0));
    }

    #[test]
    fn inserts_grow_the_node_range() {
        let store = GraphStore::new();
        store.insert("p", path_graph(3));
        let entry = store.get("p").unwrap();
        entry
            .lock()
            .unwrap()
            .buffer_ops([EdgeOp::Insert(2, 9, 2.0)]);
        let g = store.snapshot("p").unwrap().graph;
        assert_eq!(g.node_count(), 10);
        assert_eq!(g.edge_weight(2, 9), Some(2.0));
        assert!(g.has_edge(0, 1));
    }

    #[test]
    fn snapshot_flushes_and_eviction_keeps_snapshots_alive() {
        let store = GraphStore::new();
        store.insert("p", path_graph(5));
        let entry = store.get("p").unwrap();
        entry.lock().unwrap().buffer_ops([EdgeOp::Remove(0, 1)]);
        let snapshot = store.snapshot("p").unwrap();
        assert_eq!((snapshot.generation, snapshot.folded_ops), (1, 1));
        let g = snapshot.graph;
        assert!(!g.has_edge(0, 1));
        assert!(store.remove("p"));
        assert!(!store.remove("p"));
        // the snapshot outlives the eviction
        assert_eq!(g.node_count(), 5);
    }

    #[test]
    fn a_held_snapshot_is_never_written_into() {
        let bits = |g: &Graph| {
            let v = g.csr_view();
            let floats = [
                v.weights,
                v.weighted_degrees,
                v.self_loops,
                &[v.total_weight],
            ];
            let floats = floats.map(|ws| ws.iter().map(|w| w.to_bits()).collect::<Vec<_>>());
            (v.offsets.to_vec(), v.targets.to_vec(), floats, v.num_edges)
        };
        // Each fold adds one edge and an overlay of two rows, far less
        // than a compaction's share.
        let mut entry = GraphEntry::new(path_graph(1000), None);
        let fold = |entry: &mut GraphEntry| {
            let k = entry.stats().generation as Node;
            entry.buffer_ops([EdgeOp::Insert(k, k + 500, 2.5)]);
            entry.snapshot()
        };
        let held = fold(&mut entry);
        assert!(!held.compacted && held.graph.is_overlaid());
        assert_eq!(held.overlay_rows, 2);
        let copy = bits(&held.graph);
        // The held overlay pins the generation-0 base through two
        // compactions, neither of which writes into it.
        assert!(entry.compact());
        assert!(!entry.compact(), "compact already");
        fold(&mut entry);
        assert!(entry.compact());
        assert_eq!(bits(&held.graph), copy);
        assert_eq!(entry.current().0.edge_count(), 999 + 2);
    }

    #[test]
    fn a_relabeled_view_enters_in_original_ids() {
        // A star so the degree order is not the identity: hub 3 gets new id 0.
        let g = GraphBuilder::from_edges(5, &[(3, 0), (3, 1), (3, 2), (3, 4), (0, 1)]);
        let r = Relabeling::degree_ordered(&g);
        let mut entry = GraphEntry::new(r.apply(&g), Some(r));
        let (resident, _) = entry.current();
        assert_eq!(resident.csr_view().targets, g.csr_view().targets);

        // Ops arrive in original ids: connect 2-4 and drop the 0-1 chord.
        entry.buffer_ops([EdgeOp::Insert(2, 4, 2.0), EdgeOp::Remove(0, 1)]);
        let Snapshot {
            graph: g2,
            generation,
            ..
        } = entry.snapshot();
        assert_eq!(generation, 1);
        assert_eq!(g2.edge_weight(2, 4), Some(2.0));
        assert!(!g2.has_edge(0, 1));
        assert!(g2.has_edge(3, 0));
        assert_eq!(g2.degree(3), 4);
    }

    #[test]
    fn a_stale_result_and_a_cut_run_leave_the_slot_aggregates_alone() {
        use parcom_guard::CancelToken;
        let spec = parcom_core::DetectorSpec::parse("plp:seed=1")
            .unwrap()
            .to_string();
        let store = GraphStore::new();
        store.insert(
            "g",
            parcom_generators::lfr(parcom_generators::LfrParams::benchmark(600, 0.3), 3).0,
        );
        let detect = |extra: &str| {
            let body = format!("{{\"graph\":\"g\",\"spec\":\"{spec}\"{extra}}}");
            crate::handlers::detect(&store, body.as_bytes(), CancelToken::new())
        };
        let entry = store.get("g").unwrap();
        let aggregates = || {
            let (_, start) = lock_entry(&entry).warm_start(&spec).expect("a slot");
            start.aggregates.expect("aggregates")
        };
        assert_eq!(detect("").0, 200);
        let stored = aggregates();

        // a result computed before a fold is refused, aggregates and all
        {
            let mut e = lock_entry(&entry);
            let held = e.snapshot();
            e.buffer_ops([EdgeOp::Insert(0, 300, 1.0), EdgeOp::Insert(1, 600, 2.0)]);
            e.rebuild();
            let late = CommunityAggregates {
                intra_weight: vec![1.0],
                volume: vec![2.0],
            };
            let zeta = Partition::all_in_one(600);
            assert!(!e.store_result(&spec, held.generation, Arc::new(zeta), Some(late)));
        }
        let patched = aggregates();
        assert_ne!(patched, stored, "the fold patched them");
        assert_eq!(patched.len(), stored.len() + 1, "node 600 in a singleton");

        // a run denied its first sweep stores nothing
        let (status, reply) = detect(",\"budget\":{\"max_sweeps\":0}");
        assert_eq!(status, 200);
        assert!(
            reply.contains("\"termination\":\"iteration-cap\""),
            "{reply}"
        );
        assert_eq!(aggregates(), patched);
        assert_eq!(lock_entry(&entry).warm_start(&spec).unwrap().0, 0);
    }

    #[test]
    fn weight_overwrite_replaces_instead_of_accumulating() {
        let store = GraphStore::new();
        store.insert("p", path_graph(3));
        let entry = store.get("p").unwrap();
        entry
            .lock()
            .unwrap()
            .buffer_ops([EdgeOp::Insert(0, 1, 7.5)]);
        let g = store.snapshot("p").unwrap().graph;
        assert_eq!(g.edge_weight(0, 1), Some(7.5));
        assert_eq!(g.edge_count(), 2);
    }
}
