// The workspace-wide no-unsafe rule, with one audited exception: the
// `mmap` feature compiles `src/mmap.rs` (see DESIGN.md §15). `forbid`
// cannot be overridden even by that one module, so the feature swaps it
// for `deny`, which `mmap.rs` alone is allowed to lift; every other
// module stays unsafe-free under both lints, and `parcom-audit` flags any
// unsafe outside the allowlisted file.
#![cfg_attr(not(feature = "mmap"), forbid(unsafe_code))]
#![cfg_attr(feature = "mmap", deny(unsafe_code))]
#![warn(missing_docs)]

//! # parcom-io — graph and partition I/O
//!
//! The formats the paper's corpus ships in, plus the export format of the
//! Fig. 11 visualization pipeline:
//!
//! * [`metis`] — the METIS/Chaco adjacency format used by the DIMACS
//!   collection (reader and writer, weighted and unweighted).
//! * [`edgelist`] — whitespace-separated edge lists (SNAP style), with
//!   comment handling and automatic node-id compaction.
//!
//! Both graph readers use a parallel byte-chunked ingest pipeline
//! (DESIGN.md §10): the file is read into one buffer, split on line
//! boundaries into per-core chunks, parsed with zero per-line allocation,
//! and assembled by the parallel CSR builder. The `*_recorded` entry
//! points expose `ingest/parse` / `ingest/build` phase timings through
//! `parcom-obs`. The pre-parallel readers are retained as
//! [`metis::read_metis_seq`] / [`edgelist::read_edge_list_seq`] and pinned
//! bit-identical by differential proptests.
//! * [`binfmt`] — the `parcom-graph-bin/v1` binary graph format (`.pcg`):
//!   checksummed, section-tabled CSR with the derived caches stored, so
//!   reopening a converted graph is a contiguous read plus word-wise
//!   conversion — no parsing, no CSR assembly (DESIGN.md §15). The `mmap`
//!   feature maps instead of reading ([`mmap`]), the workspace's one
//!   audited `unsafe` module.
//! * [`partition_io`] — one community id per line, aligned with node ids.
//! * [`dot`] — Graphviz export of community graphs (node size proportional
//!   to community size, like the paper's PGPgiantcompo drawings).

pub mod binfmt;
pub(crate) mod chunk;
pub mod corpus;
pub mod dot;
pub mod edgelist;
pub mod metis;
#[cfg(feature = "mmap")]
pub mod mmap;
pub mod partition_io;

pub use binfmt::{read_pcg_budgeted, write_pcg, PcgGraph};
pub use corpus::{scan_corpus, state_paths, CorpusEntry, StatePaths};
pub use dot::write_community_graph_dot;
pub use edgelist::{read_edge_list, read_edge_list_recorded, write_edge_list};
pub use metis::{
    read_metis, read_metis_budgeted, read_metis_bytes_budgeted, read_metis_recorded, write_metis,
    write_metis_to,
};
pub use partition_io::{read_partition, write_partition};

use parcom_graph::relabel::Relabeling;
use parcom_graph::Graph;
use parcom_guard::Budget;
use parcom_obs::Recorder;
use std::io::Read;
use std::path::{Path, PathBuf};

/// Which on-disk format [`load_graph_auto`] found.
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

/// What [`load_graph_auto`] returns: the graph, the relabeling stored
/// with it (binary files written with `parcom convert --relabel`), and
/// the detected format.
#[derive(Debug)]
pub struct LoadedGraph {
    /// The graph, in the file's (possibly relabeled) id space.
    pub graph: Graph,
    /// Permutation mapping original ids to the graph's ids, if any.
    /// Callers that emit partitions must map them back through
    /// [`Relabeling::to_original`].
    pub relabeling: Option<Relabeling>,
    /// The format the file was detected as.
    pub format: GraphFormat,
}

/// Reads a graph from `path`, sniffing the format by content first and
/// extension second: a file starting with the `.pcg` magic bytes is
/// binary *whatever its name*; otherwise `.metis`/`.graph`/`.pcg` parse
/// as METIS (a text graph renamed `.pcg` still loads) and everything else
/// as an edge list. Ingest spans (`ingest/load` or
/// `ingest/parse`/`ingest/build`) are recorded on `recorder`, and the
/// budget's input limits are enforced: METIS and binary headers are
/// rejected *before* allocation, edge lists (which have no header to
/// admit against) after their parse. The single ingest entry point shared
/// by the CLI and `parcom-serve`, so both front ends admit and instrument
/// identically.
pub fn load_graph_auto(
    path: impl AsRef<Path>,
    recorder: &Recorder,
    budget: &Budget,
) -> Result<LoadedGraph, IoError> {
    let path = path.as_ref();
    if at_path(path, sniff_pcg(path))? {
        let loaded = binfmt::read_pcg_budgeted(path, recorder, budget)?;
        return Ok(LoadedGraph {
            graph: loaded.graph,
            relabeling: loaded.relabeling,
            format: GraphFormat::PcgBinary,
        });
    }
    let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
    if matches!(ext, "metis" | "graph" | "pcg") {
        let graph = read_metis_budgeted(path, recorder, budget)?;
        Ok(LoadedGraph {
            graph,
            relabeling: None,
            format: GraphFormat::Metis,
        })
    } else {
        let graph = read_edge_list_recorded(path, recorder)?.graph;
        if budget
            .admits(graph.node_count(), graph.edge_count())
            .is_err()
        {
            return Err(IoError::parse(format!(
                "graph has {} nodes / {} edges, exceeding the ingest limit",
                graph.node_count(),
                graph.edge_count()
            ))
            .with_path(path));
        }
        Ok(LoadedGraph {
            graph,
            relabeling: None,
            format: GraphFormat::EdgeList,
        })
    }
}

/// Reads just enough of `path` to test for the binary magic. A file
/// shorter than the magic is simply not binary, not an error.
fn sniff_pcg(path: &Path) -> Result<bool, IoError> {
    let mut file = std::fs::File::open(path).map_err(IoError::from)?;
    let mut head = [0u8; 8];
    let mut filled = 0;
    while filled < head.len() {
        let got = file.read(&mut head[filled..]).map_err(IoError::from)?;
        if got == 0 {
            return Ok(false);
        }
        filled += got;
    }
    Ok(binfmt::is_pcg_magic(&head))
}

/// The error of every reader and writer in this crate: one uniform shape
/// carrying *what* went wrong ([`kind`](Self::kind)) and *where* — the
/// file path (attached by the path-based entry points such as
/// [`read_metis`]) and the 1-based line number (attached by the parsers
/// when the offending line is known).
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

    /// Attaches the 1-based line number of the offending line.
    pub fn with_line(mut self, line: usize) -> Self {
        self.line = Some(line);
        self
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
            IoErrorKind::Parse(message) => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.kind {
            IoErrorKind::Io(e) => Some(e),
            IoErrorKind::Parse(_) => None,
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

/// A parse error at a known line; `line == 0` means "no meaningful line"
/// (e.g. whole-file consistency checks).
pub(crate) fn parse_error(line: usize, message: impl Into<String>) -> IoError {
    let e = IoError::parse(message);
    if line > 0 {
        e.with_line(line)
    } else {
        e
    }
}

/// Attaches a path to the error of a fallible I/O operation — the common
/// pattern of every path-based entry point in this crate.
pub(crate) fn at_path<T>(path: &Path, result: Result<T, IoError>) -> Result<T, IoError> {
    result.map_err(|e| e.with_path(path))
}
