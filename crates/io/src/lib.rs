#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Readers parse untrusted input and must return `IoError`, never panic;
// test code may unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! # parcom-io — graph and partition I/O
//!
//! The formats the paper's corpus ships in, plus the export format of the
//! Fig. 11 visualization pipeline:
//!
//! * [`metis`] — the METIS/Chaco adjacency format used by the DIMACS
//!   collection (reader and writer, weighted and unweighted).
//! * [`edgelist`] — whitespace-separated edge lists (SNAP style), with
//!   comment handling and automatic node-id compaction.
//! * [`binfmt`] — the `parcom-graph-bin/v1` binary graph format (`.pcg`):
//!   checksummed, section-tabled CSR arrays, so reopening a converted
//!   graph is a contiguous read plus word-wise conversion and one pass
//!   deriving the caches — no parsing, no CSR assembly (DESIGN.md §15).
//! * [`partition_io`] — one community id per line, aligned with node ids.
//! * [`dot`] — Graphviz export of community graphs (node size proportional
//!   to community size, like the paper's PGPgiantcompo drawings).
//!
//! Every graph is decoded in one place, [`load_graph_bytes`]: it sniffs
//! the `.pcg` magic, admits the input against the [`Budget`], and records
//! the `ingest/*` spans. [`load_graph_auto`] is a file read plus the
//! extension hint over it; a METIS file's body is read by the threads that
//! tokenize it, never whole. The text decoders are a parallel byte-chunked
//! pipeline (DESIGN.md §10); the pre-parallel readers are retained as
//! [`metis::read_metis_seq`] / [`edgelist::read_edge_list_seq`] and pinned
//! bit-identical by differential proptests.

pub mod binfmt;
pub(crate) mod chunk;
pub mod corpus;
pub mod dot;
pub mod edgelist;
pub mod metis;
pub mod partition_io;

pub use binfmt::write_pcg;
pub use corpus::{scan_corpus, state_paths, CorpusEntry, StatePaths};
pub use dot::write_community_graph_dot;
pub use metis::{write_metis, write_metis_to};
pub use partition_io::{read_partition, write_partition};

use parcom_graph::Graph;
use parcom_guard::Budget;
use parcom_obs::Recorder;
use std::path::{Path, PathBuf};

/// The on-disk format of a graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphFormat {
    /// `parcom-graph-bin/v1` binary ([`binfmt`]), detected by magic.
    PcgBinary,
    /// METIS/Chaco adjacency text.
    Metis,
    /// Whitespace-separated edge list.
    EdgeList,
}

impl GraphFormat {
    /// Stable lowercase name, used in reports and daemon responses.
    pub fn as_str(self) -> &'static str {
        match self {
            GraphFormat::PcgBinary => "pcg",
            GraphFormat::Metis => "metis",
            GraphFormat::EdgeList => "edgelist",
        }
    }
}

/// What the loader returns: the graph, what the file stored beside it,
/// and the format it was decoded as.
#[derive(Debug)]
pub struct LoadedGraph {
    /// The graph, in the ids it was written in (a legacy relabeled
    /// `.pcg` is mapped back to them at load).
    pub graph: Graph,
    /// The format the input was decoded as.
    pub format: GraphFormat,
    /// For daemon checkpoints: the last WAL sequence number folded into
    /// the snapshot (recovery replays records strictly after it). `None`
    /// for everything else, `parcom convert` output included.
    pub wal_seq: Option<u64>,
}

impl LoadedGraph {
    /// A graph decoded from text: no WAL position.
    fn text(graph: Graph, format: GraphFormat) -> Self {
        Self {
            graph,
            format,
            wal_seq: None,
        }
    }
}

/// Reads the graph at `path`: [`load_graph_bytes`] over the file's bytes,
/// with the extension as the fallback format (`.metis`/`.graph`/`.pcg`
/// parse as METIS, so a text graph renamed `.pcg` still loads; everything
/// else as an edge list) and the path attached to every error. The ingest
/// entry point of the CLI and of the daemon's `PUT {"path"}`.
///
/// Opening and reading the file is the `ingest/read` span, before the
/// decoder's; it counts no bytes (the decoder's span does). A METIS text
/// in a regular file is never held whole (on Unix): `ingest/read` opens
/// it and checks it is not a `.pcg`, and the threads that tokenize the
/// body read it, in blocks, inside `ingest/parse` ([`metis::parse_file`]).
pub fn load_graph_auto(
    path: impl AsRef<Path>,
    recorder: &Recorder,
    budget: &Budget,
) -> Result<LoadedGraph, IoError> {
    let path = path.as_ref();
    let fallback = match path.extension().and_then(|e| e.to_str()) {
        Some("metis" | "graph" | "pcg") => GraphFormat::Metis,
        _ => GraphFormat::EdgeList,
    };
    at_path(path, load_file(path, fallback, recorder, budget))
}

/// [`load_graph_auto`] before the path is attached to its errors.
fn load_file(
    path: &Path,
    fallback: GraphFormat,
    recorder: &Recorder,
    budget: &Budget,
) -> Result<LoadedGraph, IoError> {
    use std::io::Read;
    let span = recorder.span("ingest/read");
    let mut file = std::fs::File::open(path)?;
    #[cfg(unix)]
    if fallback == GraphFormat::Metis {
        use std::os::unix::fs::FileExt;
        let meta = file.metadata()?;
        let len = usize::try_from(meta.len())
            .map_err(|_| std::io::Error::other("the file does not fit in memory"))?;
        let mut magic = [0u8; binfmt::MAGIC.len()];
        // positioned reads need a regular file: a pipe is read whole
        let read = if meta.is_file() {
            file.read_at(&mut magic, 0)?
        } else {
            0
        };
        if meta.is_file() && !binfmt::is_pcg_magic(&magic[..read]) {
            span.close();
            let parts = chunk::auto_parts(len);
            let graph = metis_graph(recorder, len, || {
                metis::parse_file(&file, len, parts, budget)
            })?;
            return Ok(LoadedGraph::text(graph, GraphFormat::Metis));
        }
    }
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    span.close();
    load_graph_bytes(&bytes, fallback, recorder, budget)
}

/// Decodes a graph from `bytes` — the one place any graph is decoded.
///
/// Bytes starting with the `.pcg` magic are binary whatever `fallback`
/// says; anything else decodes as `fallback`, so a caller that passes
/// [`GraphFormat::PcgBinary`] gets the typed "bad magic" error for a
/// damaged binary, never a text parse of it. The budget's input limits
/// are enforced per format: METIS and binary headers are admitted
/// *before* allocation, edge lists (no header) after their build. Spans on
/// `recorder`: `ingest/load` (counter `bytes`) for binary, `ingest/parse`
/// then `ingest/build` (`edges`) for text. The parse span counts `bytes`
/// and what was read: a METIS file's adjacency `entries` (both directions
/// of every edge, repeats included), an edge list's `pending_edges`. A
/// METIS build also counts its `unsorted_rows`: the rows the file lists
/// out of order, which the build sorts (and merges) before its check.
pub fn load_graph_bytes(
    bytes: &[u8],
    fallback: GraphFormat,
    recorder: &Recorder,
    budget: &Budget,
) -> Result<LoadedGraph, IoError> {
    let format = if binfmt::is_pcg_magic(bytes) {
        GraphFormat::PcgBinary
    } else {
        fallback
    };
    let parts = chunk::auto_parts(bytes.len());
    let graph = match format {
        GraphFormat::PcgBinary => {
            let span = recorder.span("ingest/load");
            let loaded = binfmt::decode(bytes, budget)?;
            span.counter("bytes", bytes.len() as u64);
            return Ok(loaded);
        }
        GraphFormat::Metis => {
            metis_graph(recorder, bytes.len(), || metis::parse(bytes, parts, budget))?
        }
        GraphFormat::EdgeList => {
            let span = recorder.span("ingest/parse");
            let (builder, _labels) = edgelist::tokenize_and_intern(bytes, parts)?;
            span.counter("bytes", bytes.len() as u64);
            span.counter("pending_edges", builder.pending_edges() as u64);
            span.close();
            let span = recorder.span("ingest/build");
            let graph = builder.build();
            span.counter("edges", graph.edge_count() as u64);
            let (n, m) = (graph.node_count(), graph.edge_count());
            if budget.admits(n, m).is_err() {
                return Err(limit_error(
                    0,
                    format!("graph has {n} nodes / {m} edges, exceeding the ingest limit"),
                ));
            }
            graph
        }
    };
    Ok(LoadedGraph::text(graph, format))
}

/// A METIS decode's two spans: `parse` tokenizes the text (of `len`
/// bytes) into rows, and `build` assembles and checks the CSR, after the
/// text is gone.
fn metis_graph(
    recorder: &Recorder,
    len: usize,
    parse: impl FnOnce() -> Result<metis::Rows, IoError>,
) -> Result<Graph, IoError> {
    let span = recorder.span("ingest/parse");
    let rows = parse()?;
    span.counter("bytes", len as u64);
    span.counter("entries", rows.entries() as u64);
    span.close();
    let span = recorder.span("ingest/build");
    span.counter("unsorted_rows", rows.unsorted_rows() as u64);
    let graph = metis::finish(rows)?;
    span.counter("edges", graph.edge_count() as u64);
    Ok(graph)
}

/// The error of every reader and writer in this crate: one uniform shape
/// carrying *what* went wrong ([`kind`](Self::kind)) and *where* — the
/// file path (attached by the path-based entry points such as
/// [`load_graph_auto`]) and the 1-based line number (attached by the
/// parsers when the offending line is known).
///
/// `Display` leads with the location in the conventional
/// `path:line: message` form, so errors surface directly usable context:
///
/// ```text
/// corpus/web.graph:17: bad neighbor id `x`
/// ```
#[derive(Debug)]
pub struct IoError {
    path: Option<PathBuf>,
    line: Option<usize>,
    kind: IoErrorKind,
}

/// What went wrong, independent of location.
#[derive(Debug)]
pub enum IoErrorKind {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The input violates the expected format.
    Parse(String),
    /// The input is larger than the ingest budget admits or than the u32
    /// node id space holds — too big, not malformed (the daemon's `413`).
    Limit(String),
}

impl IoError {
    /// A parse error with no location yet.
    pub fn parse(message: impl Into<String>) -> Self {
        Self {
            path: None,
            line: None,
            kind: IoErrorKind::Parse(message.into()),
        }
    }

    /// Attaches the file the error occurred in. Called by the path-based
    /// entry points; an already-attached path is kept (innermost wins).
    pub fn with_path(mut self, path: impl Into<PathBuf>) -> Self {
        if self.path.is_none() {
            self.path = Some(path.into());
        }
        self
    }

    /// The file the error occurred in, when known.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// The 1-based line number of the offending line, when known.
    pub fn line(&self) -> Option<usize> {
        self.line
    }

    /// What went wrong.
    pub fn kind(&self) -> &IoErrorKind {
        &self.kind
    }

    /// Moves a line number counted from the start of a piece of the text
    /// to the whole text's count, `lines` being the lines before the piece.
    pub(crate) fn after_lines(mut self, lines: usize) -> Self {
        self.line = self.line.map(|l| l + lines);
        self
    }
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (&self.path, self.line) {
            (Some(p), Some(l)) => write!(f, "{}:{l}: ", p.display())?,
            (Some(p), None) => write!(f, "{}: ", p.display())?,
            (None, Some(l)) => write!(f, "line {l}: ")?,
            (None, None) => {}
        }
        match &self.kind {
            IoErrorKind::Io(e) => write!(f, "i/o error: {e}"),
            IoErrorKind::Parse(message) | IoErrorKind::Limit(message) => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.kind {
            IoErrorKind::Io(e) => Some(e),
            IoErrorKind::Parse(_) | IoErrorKind::Limit(_) => None,
        }
    }
}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        Self {
            path: None,
            line: None,
            kind: IoErrorKind::Io(e),
        }
    }
}

/// An error of `kind` at a known line; `line == 0` means "no meaningful
/// line" (e.g. whole-file consistency checks, binary headers).
fn located(line: usize, kind: IoErrorKind) -> IoError {
    IoError {
        path: None,
        line: (line > 0).then_some(line),
        kind,
    }
}

/// A parse error at a known line (see [`located`]).
pub(crate) fn parse_error(line: usize, message: impl Into<String>) -> IoError {
    located(line, IoErrorKind::Parse(message.into()))
}

/// A budget or id-space rejection at a known line (see [`located`]).
pub(crate) fn limit_error(line: usize, message: impl Into<String>) -> IoError {
    located(line, IoErrorKind::Limit(message.into()))
}

/// Attaches a path to the error of a fallible I/O operation — the common
/// pattern of every path-based entry point in this crate.
pub(crate) fn at_path<T>(path: &Path, result: Result<T, IoError>) -> Result<T, IoError> {
    result.map_err(|e| e.with_path(path))
}
