//! Route handlers: the JSON API over the resident [`GraphStore`].
//!
//! | method | path                        | action                              |
//! |--------|-----------------------------|-------------------------------------|
//! | GET    | `/healthz`                  | liveness + resident-graph count     |
//! | GET    | `/readyz`                   | `200` once recovery is complete     |
//! | GET    | `/graphs`                   | list resident graphs                |
//! | PUT    | `/graphs/{name}`            | load a graph (by path or inline)    |
//! | DELETE | `/graphs/{name}`            | evict a graph                       |
//! | POST   | `/graphs/{name}/edges`      | WAL-append + buffer edge mutations  |
//! | POST   | `/graphs/{name}/checkpoint` | force a checkpoint era              |
//! | POST   | `/detect`                   | run a [`DetectorSpec`] under budget |
//!
//! Every handler returns `(status, body)`; the connection layer decides the
//! framing (plain for the small responses, chunked for `/detect`).

use crate::http::{error_body, Request};
use crate::persist::CHECKPOINT_OPS;
use crate::store::{lock_entry, EdgeOp, GraphStore, MAX_PENDING_OPS};
use crate::ServerCtx;
use parcom_core::DetectorSpec;
use parcom_graph::Node;
use parcom_guard::{Budget, CancelToken, Termination};
use parcom_io::partition_io::render_partition;
use parcom_io::{load_graph_auto, load_graph_bytes, GraphFormat, IoErrorKind};
use parcom_obs::json::{self, Value};
use parcom_obs::Recorder;
use std::sync::Arc;
use std::time::Duration;

/// Schema tag of every non-detect response body.
pub const SCHEMA: &str = "parcom-serve/v1";

/// Schema tag of the `/detect` response body. Keys, in order: `schema`,
/// `graph`, `spec`, `generation`, `nodes`, `edges`, `termination`,
/// `communities`, `snapshot` (`{"folded_ops", "fold_ms", "compacted",
/// "overlay_rows"}`: the buffered edits this request folded in before
/// detecting, what that cost and whether it compacted the graph into one
/// CSR; `0` / `0.0` / `false` when none were pending; then the rows the
/// detected graph's overlay replaces), `warm` (whether the run started
/// from the graph's cached result for this spec), `base_generation` (the
/// generation that result was computed at; `null` for a cold run), `report`
/// (a full `parcom-run-report/v2`) and, on request, `partition`.
pub const DETECT_SCHEMA: &str = "parcom-serve-detect/v1";

/// A handler's verdict: HTTP status plus JSON body.
pub type Reply = (u16, String);

fn err(status: u16, message: impl AsRef<str>) -> Reply {
    (status, error_body(message.as_ref()))
}

/// Graph names are path segments and file-name material; keep them tame.
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
}

/// Dispatches every route except `/detect` (which the connection layer
/// routes separately, onto a compute thread of its own).
pub fn handle(ctx: &ServerCtx, req: &Request) -> Reply {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => healthz(ctx),
        ("GET", ["readyz"]) => readyz(ctx),
        ("GET", ["graphs"]) => list_graphs(&ctx.store),
        ("PUT", ["graphs", name]) => load_graph(ctx, name, &req.body),
        ("DELETE", ["graphs", name]) => evict_graph(ctx, name),
        ("POST", ["graphs", name, "edges"]) => edge_batch(ctx, name, &req.body),
        ("POST", ["graphs", name, "checkpoint"]) => checkpoint_graph(ctx, name),
        ("POST", ["detect"]) => err(400, "POST /detect must go through the streaming path"),
        (_, ["healthz" | "readyz" | "graphs" | "detect", ..]) => err(405, "method not allowed"),
        _ => err(404, format!("no route for {} {}", req.method, req.path)),
    }
}

/// Liveness: always `200` while the process can answer at all, even
/// during recovery or drain — orchestration uses `/readyz` for routing.
fn healthz(ctx: &ServerCtx) -> Reply {
    let mut out = String::new();
    out.push_str("{\"schema\":");
    json::write_str(&mut out, SCHEMA);
    out.push_str(&format!(
        ",\"status\":\"ok\",\"graphs\":{},\"ready\":{},\"draining\":{},\"durable\":{}}}",
        ctx.store.len(),
        ctx.gate.is_ready(),
        ctx.gate.is_draining(),
        ctx.durability.is_some()
    ));
    (200, out)
}

/// Readiness: `200` once crash recovery has finished (and the daemon is
/// not draining), `503` otherwise — the gate the durability smoke test
/// and load balancers poll after a restart.
fn readyz(ctx: &ServerCtx) -> Reply {
    let ready = ctx.gate.is_ready() && !ctx.gate.is_draining();
    let mut out = String::new();
    out.push_str("{\"schema\":");
    json::write_str(&mut out, SCHEMA);
    out.push_str(&format!(
        ",\"ready\":{ready},\"draining\":{},\"graphs\":{}}}",
        ctx.gate.is_draining(),
        ctx.store.len()
    ));
    (if ready { 200 } else { 503 }, out)
}

fn list_graphs(store: &GraphStore) -> Reply {
    let mut out = String::new();
    out.push_str("{\"schema\":");
    json::write_str(&mut out, SCHEMA);
    out.push_str(",\"graphs\":[");
    for (i, (name, stats)) in store.list().into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        json::write_str(&mut out, &name);
        out.push_str(&format!(
            ",\"nodes\":{},\"edges\":{},\"pending\":{},\"generation\":{},\"seq\":{},\"durable\":{}",
            stats.nodes, stats.edges, stats.pending, stats.generation, stats.seq, stats.durable
        ));
        // What the graph holds in memory: its CSR and overlay.
        json::write_key(&mut out, "resident_bytes");
        json::write_u64(&mut out, stats.resident_bytes as u64);
        // The rows an edited graph holds beside its compact CSR.
        json::write_key(&mut out, "overlay_rows");
        json::write_u64(&mut out, stats.overlay_rows as u64);
        json::write_key(&mut out, "overlay_bytes");
        json::write_u64(&mut out, stats.overlay_bytes as u64);
        // How stale each cached answer is: `generation - base_generation`
        // folds behind, `dirty` endpoints to re-evaluate (plus `pending`
        // operations not folded yet); and what it costs to keep.
        json::write_key(&mut out, "cached_specs");
        out.push('[');
        for (j, slot) in stats.warm.iter().enumerate() {
            out.push_str(if j > 0 { ",{" } else { "{" });
            json::write_key(&mut out, "spec");
            json::write_str(&mut out, &slot.spec);
            json::write_key(&mut out, "base_generation");
            json::write_u64(&mut out, slot.base_generation);
            json::write_key(&mut out, "dirty");
            json::write_u64(&mut out, slot.dirty as u64);
            // What the slot holds in memory (`WarmStats::bytes`).
            json::write_key(&mut out, "bytes");
            json::write_u64(&mut out, slot.bytes as u64);
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    (200, out)
}

fn parse_body(body: &[u8]) -> Result<Value, Reply> {
    let text = std::str::from_utf8(body).map_err(|_| err(400, "body is not UTF-8"))?;
    json::parse(text).map_err(|e| err(400, format!("bad JSON body: {e}")))
}

/// `PUT /graphs/{name}`. Body: exactly one of `{"path": file}` or
/// `{"content": METIS text}`; any other key is ignored, the retired
/// `"relabel"` among them. A legacy relabeled `.pcg` loads in original
/// ids. Reply keys: `schema`, `name`, `nodes`, `edges`, `replaced`,
/// `format`, `load_ms`, `load_bytes`, `durable`.
fn load_graph(ctx: &ServerCtx, name: &str, body: &[u8]) -> Reply {
    if !valid_name(name) {
        return err(400, "graph names are 1-64 chars of [A-Za-z0-9._-]");
    }
    let v = match parse_body(body) {
        Ok(v) => v,
        Err(reply) => return reply,
    };
    // Both bodies go through the one loader: header admission happens
    // there, before the graph is allocated — an oversized corpus is
    // refused at a few bytes of cost, not after filling memory.
    let budget = ctx.config.ingest_budget();
    let recorder = Recorder::enabled();
    let loaded = match (v.get("path"), v.get("content")) {
        (Some(path), None) => match path.as_str() {
            Some(path) => load_graph_auto(path, &recorder, &budget),
            None => return err(400, "\"path\" must be a string"),
        },
        (None, Some(content)) => match content.as_str() {
            Some(text) => load_graph_bytes(text.as_bytes(), GraphFormat::Metis, &recorder, &budget),
            None => return err(400, "\"content\" must be a METIS string"),
        },
        _ => return err(400, "body must have exactly one of \"path\" or \"content\""),
    };
    let loaded = match loaded {
        Ok(l) => l,
        Err(e) => {
            // Too big is 413, anything else the loader refuses is 422.
            let status = match e.kind() {
                IoErrorKind::Limit(_) => 413,
                _ => 422,
            };
            return err(status, format!("load failed: {e}"));
        }
    };
    // Ingest observability, surfaced to clients and asserted by CI's
    // serve-smoke: wall time across the ingest phases (`ingest/read` for a
    // path, then `ingest/load` for binary or `ingest/parse` +
    // `ingest/build` for text) and bytes read.
    let report = recorder.finish("ingest");
    let load_ms: f64 = report.phases.iter().map(|p| p.wall_seconds).sum::<f64>() * 1e3;
    let load_bytes: u64 = report
        .phases
        .iter()
        .filter_map(|p| p.counter("bytes"))
        .sum();

    let (nodes, edges) = (loaded.graph.node_count(), loaded.graph.edge_count());
    let format = loaded.format.as_str();
    // Durable mode persists the entry (checkpoint + fresh WAL) *before*
    // it becomes visible in the store, so no acknowledged graph can exist
    // in memory without its on-disk state set.
    let mut entry = crate::store::GraphEntry::new(loaded.graph, None);
    let durable = if let Some(durability) = &ctx.durability {
        if let Err(e) = durability.persist_new(name, &mut entry) {
            return err(500, format!("could not persist `{name}`: {e}"));
        }
        true
    } else {
        false
    };
    let replaced = ctx.store.insert_entry(name, entry);
    let mut out = String::new();
    out.push_str("{\"schema\":");
    json::write_str(&mut out, SCHEMA);
    out.push_str(",\"name\":");
    json::write_str(&mut out, name);
    out.push_str(&format!(
        ",\"nodes\":{nodes},\"edges\":{edges},\"replaced\":{replaced},\"format\":\"{format}\",\"load_ms\":{load_ms:.3},\"load_bytes\":{load_bytes},\"durable\":{durable}}}"
    ));
    (if replaced { 200 } else { 201 }, out)
}

fn evict_graph(ctx: &ServerCtx, name: &str) -> Reply {
    if ctx.store.remove(name) {
        if let Some(durability) = &ctx.durability {
            if let Err(e) = durability.remove(name) {
                return err(
                    500,
                    format!("evicted `{name}` but state removal failed: {e}"),
                );
            }
        }
        (200, format!("{{\"schema\":\"{SCHEMA}\",\"evicted\":true}}"))
    } else {
        err(404, format!("no graph named `{name}`"))
    }
}

/// Forces a checkpoint era for one graph: folds the pending buffer,
/// snapshots to `.pcg`, truncates the WAL. `409` without `--state-dir`.
fn checkpoint_graph(ctx: &ServerCtx, name: &str) -> Reply {
    let Some(durability) = &ctx.durability else {
        return err(
            409,
            "daemon runs without --state-dir; nothing to checkpoint",
        );
    };
    let Some(entry) = ctx.store.get(name) else {
        return err(404, format!("no graph named `{name}`"));
    };
    let mut entry = lock_entry(&entry);
    if let Err(e) = durability.checkpoint(name, &mut entry) {
        return err(500, format!("checkpoint of `{name}` failed: {e}"));
    }
    let stats = entry.stats();
    drop(entry);
    let mut out = String::new();
    out.push_str("{\"schema\":");
    json::write_str(&mut out, SCHEMA);
    out.push_str(&format!(
        ",\"checkpointed\":true,\"seq\":{},\"generation\":{},\"nodes\":{},\"edges\":{}}}",
        stats.seq, stats.generation, stats.nodes, stats.edges
    ));
    (200, out)
}

/// A node id from a batch. `u32::MAX` is refused with the ids past it:
/// a graph holding it would have 2³² nodes, one more than `Node` counts.
fn node_id(v: &Value) -> Result<Node, Reply> {
    v.as_u64()
        .filter(|&id| id < u32::MAX as u64)
        .map(|id| id as Node)
        .ok_or_else(|| err(400, "node ids must be integers below 4294967295"))
}

/// Buffers a batch of edge mutations; within one request the `insert` array
/// applies before the `remove` array. The rebuild is deferred until the
/// buffer reaches [`crate::store::REBUILD_BATCH`] operations, the client
/// passes `"rebuild":true`, or the next detection snapshot flushes it.
///
/// Durable mode appends the batch to the graph's WAL (and, under
/// `--fsync always`, syncs it) *before* this function returns `200` — an
/// acknowledged batch survives `kill -9`. A batch that would push the
/// pending buffer past [`MAX_PENDING_OPS`] is shed with `429` instead of
/// queued unboundedly.
fn edge_batch(ctx: &ServerCtx, name: &str, body: &[u8]) -> Reply {
    let Some(entry) = ctx.store.get(name) else {
        return err(404, format!("no graph named `{name}`"));
    };
    let v = match parse_body(body) {
        Ok(v) => v,
        Err(reply) => return reply,
    };
    let mut ops: Vec<EdgeOp> = Vec::new();
    if let Some(inserts) = v.get("insert") {
        let Some(rows) = inserts.as_array() else {
            return err(400, "\"insert\" must be an array of [u, v] or [u, v, w]");
        };
        for row in rows {
            let Some(cells) = row.as_array() else {
                return err(400, "\"insert\" rows must be arrays");
            };
            let (u, v, w) = match cells {
                [u, v] => (u, v, 1.0),
                [u, v, w] => match w.as_f64().filter(|w| w.is_finite() && *w > 0.0) {
                    Some(w) => (u, v, w),
                    None => return err(400, "edge weights must be finite and positive"),
                },
                _ => return err(400, "\"insert\" rows must be [u, v] or [u, v, w]"),
            };
            match (node_id(u), node_id(v)) {
                (Ok(u), Ok(v)) => ops.push(EdgeOp::Insert(u, v, w)),
                (Err(reply), _) | (_, Err(reply)) => return reply,
            }
        }
    }
    if let Some(removes) = v.get("remove") {
        let Some(rows) = removes.as_array() else {
            return err(400, "\"remove\" must be an array of [u, v]");
        };
        for row in rows {
            let Some([u, v]) = row.as_array() else {
                return err(400, "\"remove\" rows must be [u, v]");
            };
            match (node_id(u), node_id(v)) {
                (Ok(u), Ok(v)) => ops.push(EdgeOp::Remove(u, v)),
                (Err(reply), _) | (_, Err(reply)) => return reply,
            }
        }
    }
    if ops.is_empty() {
        return err(400, "batch has no operations");
    }
    let force = v.get("rebuild").and_then(Value::as_bool).unwrap_or(false);
    let batch = ops.len();
    let mut entry = lock_entry(&entry);
    // Bounded admission: shed before the WAL append so a refused batch
    // leaves no trace anywhere.
    if entry.pending() + batch > MAX_PENDING_OPS {
        return err(
            429,
            format!(
                "mutation queue for `{name}` is full ({MAX_PENDING_OPS} ops); retry after a rebuild"
            ),
        );
    }
    // WAL-before-acknowledge: an error here means the batch is *not*
    // accepted (nothing was buffered) and the writer is wedged until the
    // next checkpoint installs a fresh log.
    if let Err(e) = entry.commit_ops(ops) {
        return err(500, format!("write-ahead log append failed: {e}"));
    }
    let rebuilt = force || entry.rebuild_due();
    if rebuilt {
        entry.rebuild();
    }
    // Automatic checkpoint cadence: once enough operations have been
    // acknowledged since the last era, fold and snapshot. Failure is not
    // fatal to the batch — the WAL still covers it — but is reported.
    let mut checkpointed = false;
    if let Some(durability) = &ctx.durability {
        if entry.ops_since_checkpoint() >= CHECKPOINT_OPS {
            match durability.checkpoint(name, &mut entry) {
                Ok(()) => checkpointed = true,
                Err(e) => eprintln!("parcom-serve: auto-checkpoint of `{name}` failed: {e}"),
            }
        }
    }
    let stats = entry.stats();
    drop(entry);
    let mut out = String::new();
    out.push_str("{\"schema\":");
    json::write_str(&mut out, SCHEMA);
    out.push_str(&format!(
        ",\"accepted\":{batch},\"rebuilt\":{rebuilt},\"pending\":{},\"generation\":{},\"nodes\":{},\"edges\":{},\"seq\":{},\"durable\":{},\"checkpointed\":{checkpointed}}}",
        stats.pending, stats.generation, stats.nodes, stats.edges, stats.seq, stats.durable
    ));
    (200, out)
}

/// A `/detect` reply. `body` is the whole JSON body, or — when `partition`
/// is there — the envelope up to and including `"partition":[`, which the
/// partition text and `]}` complete. The text is shared with the warm slot
/// that keeps it, so an answer the slot already gave goes out as the slot
/// rendered it, never copied into a buffer of its own.
pub(crate) struct DetectReply {
    status: u16,
    body: String,
    partition: Option<Arc<[u8]>>,
}

impl From<Reply> for DetectReply {
    fn from((status, body): Reply) -> Self {
        Self {
            status,
            body,
            partition: None,
        }
    }
}

impl DetectReply {
    /// The body's pieces, in order.
    fn parts(&self) -> Vec<&[u8]> {
        match &self.partition {
            Some(text) => vec![self.body.as_bytes(), text, b"]}"],
            None => vec![self.body.as_bytes()],
        }
    }

    /// Streams the reply to `w` as chunked JSON (the pieces are never
    /// joined).
    pub(crate) fn write(
        &self,
        w: &mut dyn std::io::Write,
        keep_alive: bool,
    ) -> std::io::Result<()> {
        crate::http::write_chunked_json(w, self.status, &self.parts(), keep_alive)
    }
}

/// [`detect_reply`] with the body joined into one string.
pub fn detect(store: &GraphStore, body: &[u8], token: CancelToken) -> Reply {
    let reply = detect_reply(store, body, token);
    let text = String::from_utf8(reply.parts().concat()).expect("detect replies are ASCII JSON");
    (reply.status, text)
}

/// Runs a detection request. The connection layer cancels `token` when
/// the client hangs up; the body's `"budget"` adds a deadline and/or sweep
/// cap on top.
///
/// Body: `{"graph": name, "spec": <string or object>, "budget":
/// {"timeout_ms", "max_sweeps"}, "include_partition": bool, "cold": bool}`.
///
/// The run starts from the entry's warm slot for the spec when there is
/// one and the detector can use it, re-evaluating only the endpoints
/// edited since — none at an unchanged generation, which returns the
/// cached partition after zero sweeps. `"cold": true` starts from
/// scratch regardless. Either way a converged result becomes the slot's
/// new base; a run cut short by its budget or a hang-up leaves the slot
/// as it was. The `partition` array of a result the slot holds is
/// rendered once, by the first reply that asks for it, and kept beside
/// the slot for every later one.
pub(crate) fn detect_reply(store: &GraphStore, body: &[u8], token: CancelToken) -> DetectReply {
    let v = match parse_body(body) {
        Ok(v) => v,
        Err(reply) => return reply.into(),
    };
    let Some(name) = v.get("graph").and_then(Value::as_str) else {
        return err(400, "body must name a resident \"graph\"").into();
    };
    let Some(spec_value) = v.get("spec") else {
        return err(400, "body must carry a \"spec\"").into();
    };
    let spec = match DetectorSpec::from_json(spec_value) {
        Ok(spec) => spec,
        Err(e) => return err(422, format!("bad spec: {e}")).into(),
    };
    let mut detector = match spec.build() {
        Ok(d) => d,
        Err(e) => return err(422, format!("bad spec: {e}")).into(),
    };

    let mut budget = Budget::unlimited().with_token(token);
    if let Some(b) = v.get("budget") {
        if b.entries().is_none() {
            return err(400, "\"budget\" must be an object").into();
        }
        match b.get("timeout_ms").map(|t| t.as_u64()) {
            Some(Some(ms)) => budget = budget.with_deadline(Duration::from_millis(ms)),
            Some(None) => return err(400, "\"timeout_ms\" must be a non-negative integer").into(),
            None => {}
        }
        match b.get("max_sweeps").map(|t| t.as_u64()) {
            Some(Some(cap)) => budget = budget.with_max_sweeps(cap),
            Some(None) => return err(400, "\"max_sweeps\" must be a non-negative integer").into(),
            None => {}
        }
    }
    let flag = |key| v.get(key).and_then(Value::as_bool).unwrap_or(false);
    let (include_partition, cold) = (flag("include_partition"), flag("cold"));

    // The entry is held across the run, not looked up again by name: a
    // result must go back to the graph it was computed on, not to one a
    // `PUT` put in its place meanwhile.
    let Some(entry) = store.get(name) else {
        return err(404, format!("no graph named `{name}`")).into();
    };
    let spec_key = spec.to_string();
    let (snapshot, start) = {
        let mut entry = lock_entry(&entry);
        let snapshot = entry.snapshot();
        let start = if cold {
            None
        } else {
            entry.warm_start(&spec_key)
        };
        (snapshot, start)
    };
    let base_generation =
        start.and_then(|(generation, start)| detector.start_from(start).then_some(generation));
    let graph = &snapshot.graph;
    let mut result = detector.detect_guarded(graph, &budget);
    // Only a finished run is a base worth starting from, and only for a
    // detector that can start from one.
    let stored = result.termination == Termination::Converged && detector.start_slot().is_some();
    let kept_text = {
        let mut entry = lock_entry(&entry);
        if stored {
            let aggregates = result.aggregates.take();
            entry.store_result(
                &spec_key,
                snapshot.generation,
                Arc::clone(&result.partition),
                aggregates,
            );
        }
        include_partition
            .then(|| entry.partition_text(&spec_key, &result.partition))
            .flatten()
    };

    let mut out = String::with_capacity(4096);
    out.push_str("{\"schema\":");
    json::write_str(&mut out, DETECT_SCHEMA);
    out.push_str(",\"graph\":");
    json::write_str(&mut out, name);
    out.push_str(",\"spec\":");
    json::write_str(&mut out, &spec_key);
    out.push_str(&format!(
        ",\"generation\":{},\"nodes\":{},\"edges\":{},\"termination\":",
        snapshot.generation,
        graph.node_count(),
        graph.edge_count()
    ));
    json::write_str(&mut out, result.termination.as_str());
    // the report counted them already; it is empty only when recording is
    // off or the input was refused
    let communities = (result.report.counter("communities"))
        .unwrap_or_else(|| result.partition.number_of_subsets() as u64);
    out.push_str(&format!(
        ",\"communities\":{communities},\"snapshot\":{{\"folded_ops\":{},\"fold_ms\":{:.3},\"compacted\":{},\"overlay_rows\":{}}},\"warm\":{},\"base_generation\":",
        snapshot.folded_ops,
        snapshot.fold_ms,
        snapshot.compacted,
        snapshot.overlay_rows,
        base_generation.is_some()
    ));
    match base_generation {
        Some(generation) => json::write_u64(&mut out, generation),
        None => out.push_str("null"),
    }
    // splice the already-serialized run report in as raw JSON
    out.push_str(",\"report\":");
    out.push_str(&result.report.to_json());
    let partition = include_partition.then(|| {
        kept_text.unwrap_or_else(|| {
            // Every label ends in a comma; the last one's goes.
            let mut text = Vec::new();
            render_partition(&result.partition, b',', &mut text);
            text.pop();
            let text: Arc<[u8]> = text.into();
            if stored {
                lock_entry(&entry).keep_partition_text(
                    &spec_key,
                    &result.partition,
                    Arc::clone(&text),
                );
            }
            text
        })
    });
    match partition {
        Some(_) => out.push_str(",\"partition\":["),
        None => out.push('}'),
    }
    let status = if result.termination == Termination::InputRejected {
        413
    } else {
        200
    };
    DetectReply {
        status,
        body: out,
        partition,
    }
}
