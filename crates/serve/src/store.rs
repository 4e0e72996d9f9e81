//! The resident graph registry: named graphs held in memory across
//! requests, with buffered edge mutations folded into the CSR in batches.
//!
//! The CSR representation is immutable by design (that is what makes the
//! detection kernels fast), so mutation is write-behind: edge inserts and
//! deletes accumulate in an order-preserving buffer and are folded into a
//! fresh CSR either when the buffer reaches [`REBUILD_BATCH`] operations,
//! when a client forces it, or — always — before a detection snapshot, so
//! every detection sees all acknowledged edits. The fold is a row merge
//! ([`Graph::patched_into`]): untouched rows are copied, touched rows
//! merged, into the buffers of the CSR the previous fold retired — the
//! *spare* an edited graph keeps, so that a fold allocates nothing.
//!
//! Beside the CSR an entry keeps a few *warm slots*: per detector spec,
//! the last partition a detection converged to, the generation it was
//! computed at and the endpoints of every edit folded in since. The next
//! detection with that spec starts from there ([`StartState`]) and
//! re-evaluates only those endpoints. Slots are derived, memory-only
//! state: nothing of them is logged or checkpointed, and a restarted
//! daemon starts with none.

use crate::wal::WalWriter;
use parcom_core::StartState;
use parcom_graph::relabel::Relabeling;
use parcom_graph::{Graph, Node, Partition};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::Instant;

/// Pending-operation count that triggers an automatic rebuild at the end of
/// an edge-batch request. A fold copies the whole CSR once (a memcpy)
/// whatever the batch size, so this is large enough to
/// amortize that copy over many small batches, and small enough that the
/// sort-and-merge of the touched rows stays a fraction of it.
pub const REBUILD_BATCH: usize = 4096;

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
    /// In the ids of the resident view (relabeled or not).
    partition: Partition,
    /// Endpoints of every edit folded in after `generation`, sorted, each
    /// once: the frontier of the next warm start.
    dirty: Vec<Node>,
}

/// Listing summary of one warm slot.
pub struct WarmStats {
    /// Canonical spec string.
    pub spec: String,
    /// Generation the cached partition was computed at.
    pub base_generation: u64,
    /// Endpoints waiting for the next warm start.
    pub dirty: usize,
}

/// A named resident graph plus its mutation buffer.
pub struct GraphEntry {
    graph: Arc<Graph>,
    /// The CSR the last fold retired, if no snapshot still held it; the
    /// next fold writes into its buffers. Owned, not shared: that is what
    /// makes overwriting it safe. Checkpoint and eviction drop it.
    spare: Option<Graph>,
    /// When the resident CSR is a relabeled view (loaded from a `.pcg`
    /// written with `--relabel`, or relabeled at load), the permutation
    /// back to original ids. Detection handlers map partitions through it
    /// before emission, so clients always see original ids.
    relabeling: Option<Arc<Relabeling>>,
    pending: Vec<EdgeOp>,
    /// Bumped on every rebuild; lets clients correlate detection results
    /// with the graph version they ran against.
    generation: u64,
    rebuilds: u64,
    /// Sequence number of the last acknowledged batch: the WAL record
    /// sequence when durable, a plain batch counter otherwise.
    seq: u64,
    /// The write-ahead log this entry appends to before acknowledging a
    /// batch; `None` when the daemon runs without `--state-dir`.
    wal: Option<WalWriter>,
    /// Sticky flag: a rebuild dropped the relabeling permutation (the
    /// mutated CSR no longer matches its degree order). Reported in batch
    /// responses and stats so the 1.1–1.3× relabel win never vanishes
    /// silently.
    relabel_dropped: bool,
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
    /// Current generation (rebuild counter of the resident CSR).
    pub generation: u64,
    /// Total rebuilds since load.
    pub rebuilds: u64,
    /// Whether the resident CSR is a relabeled (cache-ordered) view.
    pub relabeled: bool,
    /// Whether a rebuild dropped a relabeling this entry once had.
    pub relabel_dropped: bool,
    /// Sequence of the last acknowledged batch (WAL record when durable).
    pub seq: u64,
    /// Whether the entry appends to a write-ahead log.
    pub durable: bool,
    /// The warm slots: which specs have a cached result, and how stale.
    pub warm: Vec<WarmStats>,
    /// Bytes of the resident CSR's five arrays.
    pub resident_bytes: usize,
    /// The same for the spare CSR kept for the next fold (0 without one).
    pub spare_bytes: usize,
}

/// What a detection runs against: the CSR with every acknowledged edit
/// folded in, and what that fold cost this request.
pub struct Snapshot {
    /// The resident CSR, shared.
    pub graph: Arc<Graph>,
    /// The permutation back to original ids while the view is relabeled.
    pub relabeling: Option<Arc<Relabeling>>,
    /// Generation of `graph`.
    pub generation: u64,
    /// Buffered operations this snapshot folded in first (0 = none pending).
    pub folded_ops: usize,
    /// Wall time of that fold in milliseconds (0.0 when nothing was pending).
    pub fold_ms: f64,
    /// Whether that fold wrote into the spare's buffers, allocating nothing.
    pub recycled: bool,
}

/// Bytes of the five arrays of `g`.
fn csr_bytes(g: &Graph) -> usize {
    let v = g.csr_view();
    std::mem::size_of_val(v.offsets)
        + std::mem::size_of_val(v.targets)
        + std::mem::size_of_val(v.weights)
        + std::mem::size_of_val(v.weighted_degrees)
        + std::mem::size_of_val(v.self_loops)
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
    pub fn new(graph: Graph, relabeling: Option<Relabeling>) -> Self {
        Self {
            graph: Arc::new(graph),
            spare: None,
            relabeling: relabeling.map(Arc::new),
            pending: Vec::new(),
            generation: 0,
            rebuilds: 0,
            seq: 0,
            wal: None,
            relabel_dropped: false,
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

    /// Frees the spare CSR: a checkpoint puts the graph at rest, an eviction ends it.
    pub fn drop_spare(&mut self) {
        self.spare = None;
    }

    /// Whether the buffer has reached the automatic rebuild threshold.
    pub fn rebuild_due(&self) -> bool {
        self.pending.len() >= REBUILD_BATCH
    }

    /// Folds the pending buffer into a fresh CSR by a row merge
    /// ([`Graph::patched_into`]): the final state of each touched edge is
    /// resolved in arrival order (last operation wins), then merged into
    /// the ≤ 2·|buffer| rows it touches while every other row is copied
    /// verbatim. Node ids beyond the current range grow the graph — `n`
    /// becomes `1 + max endpoint` over *every* buffered insert, even one a
    /// later remove cancels. No-op when the buffer is empty.
    ///
    /// Unwind-safe: every field mutation happens *after* the new CSR is
    /// fully built, so a panic mid-rebuild (allocation failure, injected
    /// fault at `serve/store-rebuild`) leaves the resident graph, the
    /// pending buffer and the WAL exactly as they were — the rebuild can
    /// simply be retried; at worst the spare is gone, and the retry
    /// allocates. The rebuilt CSR is bit-identical for a given
    /// (graph, buffered-op-sequence) pair regardless of thread count or
    /// rebuild batching: each fold leaves rows sorted by neighbor with the
    /// surviving weights verbatim, and the caches are summed row by row
    /// from the arrays alone, whatever buffers they were written into.
    /// Recovery replay relies on this.
    ///
    /// Every fold, checkpoint and replay comes through here, so this is
    /// also where the warm slots learn what changed: each keeps the folded
    /// edits' endpoints, or is dropped — when the relabeling is (node ids
    /// change under the cached partition) or when too much of the graph is
    /// dirty ([`WARM_DIRTY_SHARE`]).
    pub fn rebuild(&mut self) {
        self.fold();
    }

    /// [`Self::rebuild`]; says whether the fold recycled the spare, allocating nothing.
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
        // Edge operations arrive in *original* ids, so a relabeled CSR is
        // un-relabeled before the fold and the relabeling dropped: the
        // permutation is a load-time read optimization, and a mutated graph
        // no longer matches the degree order it was converted under.
        let unrelabeled = self.relabeling.as_ref().map(|r| {
            Relabeling::from_new_of_old(r.old_of_new().to_vec())
                .expect("the inverse of a permutation is a permutation")
                .apply(&self.graph)
        });
        let base = unrelabeled.as_ref().unwrap_or(&self.graph);
        let (rebuilt, recycled) = base.patched_into(n_new, &edits, self.spare.take());
        // Commit point: nothing above mutated the entry but for the spare.
        if self.relabeling.take().is_some() {
            self.relabel_dropped = true;
            self.warm.clear();
        }
        let dirty_cap = n_new / WARM_DIRTY_SHARE;
        let touched: Vec<Node> = edits.iter().flat_map(|&(u, v, _)| [u, v]).collect();
        self.warm.retain_mut(|slot| {
            slot.dirty.extend_from_slice(&touched);
            slot.dirty.sort_unstable();
            slot.dirty.dedup();
            slot.dirty.len() <= dirty_cap
        });
        self.pending.clear();
        // The next fold's buffers, unless a snapshot still reads them.
        let retired = std::mem::replace(&mut self.graph, Arc::new(rebuilt));
        self.spare = Arc::try_unwrap(retired).ok();
        self.generation += 1;
        self.rebuilds += 1;
        recycled
    }

    /// The resident CSR (pending operations excluded), its relabeling (if
    /// still valid), and its generation.
    pub fn current(&self) -> (Arc<Graph>, Option<Arc<Relabeling>>, u64) {
        (
            Arc::clone(&self.graph),
            self.relabeling.clone(),
            self.generation,
        )
    }

    /// Folds the pending buffer and returns what a detection runs against.
    pub fn snapshot(&mut self) -> Snapshot {
        let folded_ops = self.pending.len();
        let started = Instant::now();
        let recycled = self.fold();
        let fold_ms = if folded_ops == 0 {
            0.0
        } else {
            started.elapsed().as_secs_f64() * 1e3
        };
        let (graph, relabeling, generation) = self.current();
        Snapshot {
            graph,
            relabeling,
            generation,
            folded_ops,
            fold_ms,
            recycled,
        }
    }

    /// Where a detection with `spec` on the current CSR can start: the
    /// slot's generation and its partition with the endpoints dirtied
    /// since. `None` when nothing is cached for `spec`.
    pub fn warm_start(&self, spec: &str) -> Option<(u64, StartState)> {
        let slot = self.warm.iter().find(|slot| slot.spec == spec)?;
        let start = StartState {
            base: slot.partition.clone(),
            frontier: slot.dirty.clone(),
        };
        Some((slot.generation, start))
    }

    /// Caches `partition` — a *converged* result of `spec` on the CSR of
    /// `generation` — as the base of the next detection with that spec.
    /// A result of an older generation is discarded (`false`): the
    /// endpoints folded in meanwhile are not known to it, and storing it
    /// as current would hide them from every later warm start. The slot
    /// already there, if any, stays and keeps counting.
    pub fn store_result(&mut self, spec: &str, generation: u64, partition: &Partition) -> bool {
        if generation != self.generation {
            return false;
        }
        // Takes the place of the same spec's slot, else a free one, else
        // that of the stalest base.
        let evicted = match self.warm.iter().position(|slot| slot.spec == spec) {
            Some(same) => Some(same),
            None if self.warm.len() < WARM_SLOTS => None,
            None => (0..WARM_SLOTS).min_by_key(|&i| self.warm[i].generation),
        };
        if let Some(at) = evicted {
            self.warm.swap_remove(at);
        }
        self.warm.push(WarmSlot {
            spec: spec.to_string(),
            generation,
            partition: partition.clone(),
            dirty: Vec::new(),
        });
        true
    }

    /// Listing summary.
    pub fn stats(&self) -> EntryStats {
        EntryStats {
            nodes: self.graph.node_count(),
            edges: self.graph.edge_count(),
            pending: self.pending.len(),
            generation: self.generation,
            rebuilds: self.rebuilds,
            relabeled: self.relabeling.is_some(),
            relabel_dropped: self.relabel_dropped,
            seq: self.seq,
            durable: self.wal.is_some(),
            warm: (self.warm.iter())
                .map(|slot| WarmStats {
                    spec: slot.spec.clone(),
                    base_generation: slot.generation,
                    dirty: slot.dirty.len(),
                })
                .collect(),
            resident_bytes: csr_bytes(&self.graph),
            spare_bytes: self.spare.as_ref().map_or(0, csr_bytes),
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

    /// Inserts (or replaces) a named graph, with the relabeling stored
    /// alongside it when the graph is a relabeled view. Returns whether a
    /// previous graph of that name was replaced.
    pub fn insert(&self, name: &str, graph: Graph, relabeling: Option<Relabeling>) -> bool {
        self.insert_entry(name, GraphEntry::new(graph, relabeling))
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
        let removed = self.inner.write().unwrap().remove(name);
        // A detection in flight keeps the entry alive, not its spare.
        removed.inspect(|e| lock_entry(e).drop_spare()).is_some()
    }

    /// The entry for `name`, if resident.
    pub fn get(&self, name: &str) -> Option<Arc<Mutex<GraphEntry>>> {
        self.inner.read().unwrap().get(name).cloned()
    }

    /// A consistent detection snapshot: flushes the entry's pending buffer
    /// (so the detection sees all acknowledged edits) and returns the CSR
    /// as a cheap `Arc` clone plus its relabeling (when the view is still
    /// relabeled) and generation. The entry lock is released before
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
        store.insert("p", path_graph(4), None);
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
        store.insert("p", path_graph(3), None);
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
        store.insert("p", path_graph(5), None);
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
    fn a_held_snapshot_is_never_written_into_and_a_released_one_is_recycled() {
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
        // Each fold adds one edge, far less than a fresh CSR's headroom.
        let mut entry = GraphEntry::new(path_graph(1000), None);
        let fold = |entry: &mut GraphEntry| {
            let k = entry.stats().generation as Node;
            entry.buffer_ops([EdgeOp::Insert(k, k + 500, 2.5)]);
            entry.snapshot()
        };
        let held = fold(&mut entry);
        assert!(!held.recycled && entry.stats().spare_bytes > 0);
        let copy = bits(&held.graph);
        // The spare (generation 0, capacity exact) is too small for the
        // first fold, and the held CSR cannot become the second one's.
        assert!(!fold(&mut entry).recycled);
        assert_eq!(entry.stats().spare_bytes, 0);
        assert!(!fold(&mut entry).recycled);
        assert_eq!(bits(&held.graph), copy);
        drop(held);

        // With no reader left, a generation is retired by the next fold
        // and written into by the one after it: same allocation, new
        // contents.
        let retired = fold(&mut entry).graph;
        assert_eq!(retired.edge_count(), 999 + 4);
        let address = retired.csr_view().targets.as_ptr();
        drop(retired);
        assert!(fold(&mut entry).recycled);
        let reused = fold(&mut entry);
        assert!(reused.recycled);
        assert_eq!(reused.graph.csr_view().targets.as_ptr(), address);
        assert_eq!(reused.graph.edge_count(), 999 + 6);
        assert!(entry.stats().spare_bytes > 0);
    }

    #[test]
    fn mutation_unrelabels_and_drops_the_relabeling() {
        // A star so the degree order is not the identity: hub 3 gets new id 0.
        let g = GraphBuilder::from_edges(5, &[(3, 0), (3, 1), (3, 2), (3, 4), (0, 1)]);
        let r = Relabeling::degree_ordered(&g);
        let relabeled = r.apply(&g);
        let store = GraphStore::new();
        store.insert("s", relabeled, Some(r));
        let unmutated = store.snapshot("s").unwrap();
        assert!(
            unmutated.relabeling.is_some(),
            "unmutated snapshot keeps the relabeling"
        );
        assert_eq!((unmutated.folded_ops, unmutated.fold_ms), (0, 0.0));
        assert!(store.get("s").unwrap().lock().unwrap().stats().relabeled);

        // Ops arrive in original ids: connect 2-4 and drop the 0-1 chord.
        let entry = store.get("s").unwrap();
        entry
            .lock()
            .unwrap()
            .buffer_ops([EdgeOp::Insert(2, 4, 2.0), EdgeOp::Remove(0, 1)]);
        let Snapshot {
            graph: g2,
            relabeling: rel,
            generation,
            ..
        } = store.snapshot("s").unwrap();
        assert_eq!(generation, 1);
        assert!(rel.is_none(), "mutation invalidates the relabeling");
        // The rebuilt CSR is back in original ids.
        assert_eq!(g2.edge_weight(2, 4), Some(2.0));
        assert!(!g2.has_edge(0, 1));
        assert!(g2.has_edge(3, 0));
        assert_eq!(g2.degree(3), 4);
    }

    #[test]
    fn weight_overwrite_replaces_instead_of_accumulating() {
        let store = GraphStore::new();
        store.insert("p", path_graph(3), None);
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
