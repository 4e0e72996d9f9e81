//! Whitespace-separated edge lists (SNAP style).
//!
//! Each non-comment line is `u v [w]`. Node ids may be arbitrary
//! non-negative integers; they are compacted to `0..n` in first-seen order
//! (SNAP files routinely have gaps). Comment lines start with `#` or `%`.
//!
//! Reading follows the same parallel byte-chunked pipeline as the METIS
//! reader (DESIGN.md §10): chunks tokenize in parallel with zero per-line
//! allocation into raw `(line, u, v, w)` records; a short sequential pass
//! then interns node labels in chunk order, which reproduces the
//! first-seen label numbering of the sequential reader exactly. The
//! pre-parallel line-by-line reader is retained as
//! [`read_edge_list_seq`], the differential-test reference.

use crate::chunk::{self, Chunk};
use crate::{at_path, parse_error, IoError};
use parcom_graph::hashing::FxHashMap;
use parcom_graph::{Graph, GraphBuilder, Node};
use parcom_obs::Recorder;
use rayon::prelude::*;
use std::io::{BufRead, BufWriter, Read, Write};
use std::path::Path;

/// Result of reading an edge list: the graph plus the original node labels
/// (indexed by compact node id).
#[derive(Debug)]
pub struct EdgeListGraph {
    /// The parsed graph with compact node ids.
    pub graph: Graph,
    /// `labels[v]` is the id node `v` had in the file.
    pub labels: Vec<u64>,
}

/// One tokenized edge before label interning: line number, endpoints as
/// written in the file, weight.
type RawEdge = (usize, u64, u64, f64);

fn parse_chunk(c: Chunk<'_>) -> Result<Vec<RawEdge>, IoError> {
    // one record per data line; lines are rarely shorter than 4 bytes
    let mut out = Vec::with_capacity(c.bytes.len() / 8);
    for (current, line) in (c.first_line..).zip(chunk::lines(c.bytes)) {
        let t = line.trim_ascii();
        if t.is_empty() || t.starts_with(b"#") || t.starts_with(b"%") {
            continue;
        }
        let mut tok = chunk::tokens(t);
        let u = tok
            .next()
            .ok_or_else(|| parse_error(current, "missing source id"))
            .and_then(|s| {
                chunk::parse_u64(s).ok_or_else(|| parse_error(current, "bad source id"))
            })?;
        let v = tok
            .next()
            .ok_or_else(|| parse_error(current, "missing target id"))
            .and_then(|s| {
                chunk::parse_u64(s).ok_or_else(|| parse_error(current, "bad target id"))
            })?;
        let w = match tok.next() {
            Some(s) => {
                let w =
                    chunk::parse_f64(s).ok_or_else(|| parse_error(current, "bad edge weight"))?;
                if !f64::is_finite(w) || w <= 0.0 {
                    return Err(parse_error(
                        current,
                        format!(
                            "edge weight `{}` must be positive and finite",
                            String::from_utf8_lossy(s)
                        ),
                    ));
                }
                w
            }
            None => 1.0,
        };
        out.push((current, u, v, w));
    }
    Ok(out)
}

/// Everything known after parsing, before CSR assembly.
struct ParsedEdgeList {
    builder: GraphBuilder,
    labels: Vec<u64>,
}

/// Tokenizes in parallel (up to `parts` chunks), then interns labels
/// sequentially in chunk = line order, preserving the first-seen
/// numbering of the sequential reader.
// audit:allow(budget-propagation): one bounded parallel tokenize per input file; the driver checks the budget between pipeline phases
fn parse_edge_list(bytes: &[u8], parts: usize) -> Result<ParsedEdgeList, IoError> {
    let chunks = chunk::chunk_lines(bytes, parts, 1);
    let per_chunk =
        chunk::first_error(chunks.into_par_iter().map(parse_chunk).collect::<Vec<_>>())?;

    let total: usize = per_chunk.iter().map(Vec::len).sum();
    let mut ids: FxHashMap<u64, Node> = FxHashMap::default();
    let mut labels: Vec<u64> = Vec::new();
    let mut edges: Vec<(Node, Node, f64)> = Vec::with_capacity(total);
    for (lineno, u, v, w) in per_chunk.into_iter().flatten() {
        let mut intern = |raw: u64| -> Node {
            *ids.entry(raw).or_insert_with(|| {
                // truncation is caught right after interning: we error out
                // once labels.len() exceeds the u32 id space
                let id = labels.len() as Node; // audit:allow(lossy-cast)
                labels.push(raw);
                id
            })
        };
        let cu = intern(u);
        let cv = intern(v);
        if labels.len() > u32::MAX as usize {
            return Err(parse_error(lineno, "more than u32::MAX distinct node ids"));
        }
        edges.push((cu, cv, w));
    }

    // Zero-copy handover: the interned edge vector moves into the builder;
    // validation and canonicalization run in place.
    let mut builder = GraphBuilder::new(labels.len());
    builder.extend_edges(edges);
    Ok(ParsedEdgeList { builder, labels })
}

/// Reads an edge list from a byte buffer with an explicit chunk count.
/// Exposed for the differential tests; [`read_edge_list_from`] picks the
/// chunk count automatically.
pub fn read_edge_list_chunked(bytes: &[u8], parts: usize) -> Result<EdgeListGraph, IoError> {
    let parsed = parse_edge_list(bytes, parts)?;
    Ok(EdgeListGraph {
        graph: parsed.builder.build(),
        labels: parsed.labels,
    })
}

/// Reads an edge list from an in-memory buffer with an automatically
/// chosen chunk count — the zero-copy core of [`read_edge_list_from`]
/// and [`read_edge_list`].
pub fn read_edge_list_bytes(bytes: &[u8]) -> Result<EdgeListGraph, IoError> {
    read_edge_list_chunked(bytes, chunk::auto_parts(bytes.len()))
}

/// Reads an edge list from a reader (buffer + chunked parse; see the
/// module docs).
pub fn read_edge_list_from(mut reader: impl Read) -> Result<EdgeListGraph, IoError> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    read_edge_list_bytes(&bytes)
}

/// The retained pre-parallel reader: line-by-line with a `String` per
/// line, sequential counting-sort assembly. The differential proptests
/// pin the chunked parser against this.
pub fn read_edge_list_seq(bytes: &[u8]) -> Result<EdgeListGraph, IoError> {
    let mut ids: FxHashMap<u64, Node> = FxHashMap::default();
    let mut labels: Vec<u64> = Vec::new();
    let mut edges: Vec<(Node, Node, f64)> = Vec::new();

    let intern = |raw: u64, ids: &mut FxHashMap<u64, Node>, labels: &mut Vec<u64>| -> Node {
        *ids.entry(raw).or_insert_with(|| {
            // truncation is caught right after interning: the caller errors
            // out once labels.len() exceeds the u32 id space
            let id = labels.len() as Node; // audit:allow(lossy-cast)
            labels.push(raw);
            id
        })
    };

    for (i, line) in bytes.lines().enumerate() {
        let lineno = i + 1;
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let mut tok = t.split_whitespace();
        let u: u64 = tok
            .next()
            .ok_or_else(|| parse_error(lineno, "missing source id"))?
            .parse()
            .map_err(|_| parse_error(lineno, "bad source id"))?;
        let v: u64 = tok
            .next()
            .ok_or_else(|| parse_error(lineno, "missing target id"))?
            .parse()
            .map_err(|_| parse_error(lineno, "bad target id"))?;
        let w: f64 = match tok.next() {
            Some(s) => {
                let w = s
                    .parse()
                    .map_err(|_| parse_error(lineno, "bad edge weight"))?;
                if !f64::is_finite(w) || w <= 0.0 {
                    return Err(parse_error(
                        lineno,
                        format!("edge weight `{s}` must be positive and finite"),
                    ));
                }
                w
            }
            None => 1.0,
        };
        let cu = intern(u, &mut ids, &mut labels);
        let cv = intern(v, &mut ids, &mut labels);
        if labels.len() > u32::MAX as usize {
            return Err(parse_error(lineno, "more than u32::MAX distinct node ids"));
        }
        edges.push((cu, cv, w));
    }

    let mut b = GraphBuilder::with_capacity(labels.len(), edges.len());
    for (u, v, w) in edges {
        b.add_edge(u, v, w);
    }
    Ok(EdgeListGraph {
        graph: b.build_reference(),
        labels,
    })
}

/// Reads an edge list from a file path. Errors carry the path (and line).
pub fn read_edge_list(path: impl AsRef<Path>) -> Result<EdgeListGraph, IoError> {
    read_edge_list_recorded(path, &Recorder::disabled())
}

/// Reads an edge list from a file path, recording `ingest/parse` and
/// `ingest/build` phase spans (with byte/edge counters) on `recorder`.
/// With a disabled recorder this is exactly [`read_edge_list`].
pub fn read_edge_list_recorded(
    path: impl AsRef<Path>,
    recorder: &Recorder,
) -> Result<EdgeListGraph, IoError> {
    let path = path.as_ref();
    at_path(path, {
        (|| {
            let parse_span = recorder.span("ingest/parse");
            let bytes = std::fs::read(path).map_err(IoError::from)?;
            let parsed = parse_edge_list(&bytes, chunk::auto_parts(bytes.len()))?;
            parse_span.counter("bytes", bytes.len() as u64);
            parse_span.counter("pending_edges", parsed.builder.pending_edges() as u64);
            parse_span.close();

            let build_span = recorder.span("ingest/build");
            let graph = parsed.builder.build();
            build_span.counter("edges", graph.edge_count() as u64);
            build_span.close();
            Ok(EdgeListGraph {
                graph,
                labels: parsed.labels,
            })
        })()
    })
}

/// Writes a graph as an edge list (each undirected edge once, weights
/// emitted unless all are 1).
pub fn write_edge_list_to(g: &Graph, writer: impl Write) -> Result<(), IoError> {
    let mut w = BufWriter::new(writer);
    let weighted = g.nodes().any(|u| g.edges_of(u).any(|(_, wt)| wt != 1.0));
    writeln!(
        w,
        "# parcom edge list: {} nodes, {} edges",
        g.node_count(),
        g.edge_count()
    )?;
    let mut result = Ok(());
    g.for_edges(|u, v, wt| {
        if result.is_err() {
            return;
        }
        result = if weighted {
            writeln!(w, "{u} {v} {wt}")
        } else {
            writeln!(w, "{u} {v}")
        };
    });
    result?;
    Ok(())
}

/// Writes an edge list to a file path. Errors carry the path.
pub fn write_edge_list(g: &Graph, path: impl AsRef<Path>) -> Result<(), IoError> {
    let path = path.as_ref();
    at_path(
        path,
        std::fs::File::create(path)
            .map_err(IoError::from)
            .and_then(|f| write_edge_list_to(g, f)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_with_comments_and_gaps() {
        let input = "# SNAP-style\n10 20\n20 30\n% other comment\n10 30\n";
        let el = read_edge_list_from(input.as_bytes()).unwrap();
        assert_eq!(el.graph.node_count(), 3);
        assert_eq!(el.graph.edge_count(), 3);
        assert_eq!(el.labels, vec![10, 20, 30]);
    }

    #[test]
    fn parses_weights() {
        let el = read_edge_list_from("0 1 2.5\n1 2 0.5\n".as_bytes()).unwrap();
        assert_eq!(el.graph.edge_weight(0, 1), Some(2.5));
    }

    #[test]
    fn duplicate_edges_merge() {
        let el = read_edge_list_from("0 1\n1 0\n".as_bytes()).unwrap();
        assert_eq!(el.graph.edge_count(), 1);
        assert_eq!(el.graph.edge_weight(0, 1), Some(2.0));
    }

    #[test]
    fn chunked_matches_sequential_on_fixture() {
        let input = "# header\n10 20 1.5\n20 30\n% mid comment\n30 10 0.25\n\n40 10\n10 40\n";
        let reference = read_edge_list_seq(input.as_bytes()).unwrap();
        for parts in [1usize, 2, 3, 8] {
            let el = read_edge_list_chunked(input.as_bytes(), parts).unwrap();
            assert_eq!(el.labels, reference.labels, "parts={parts}");
            assert_eq!(el.graph.node_count(), reference.graph.node_count());
            for u in reference.graph.nodes() {
                let (t1, w1) = reference.graph.neighbors_and_weights(u);
                let (t2, w2) = el.graph.neighbors_and_weights(u);
                assert_eq!(t1, t2, "parts={parts}");
                assert_eq!(w1, w2, "parts={parts}");
            }
        }
    }

    #[test]
    fn error_lines_match_between_parsers() {
        let input = "# c\n0 1\n2 x\n1 2\n";
        let seq = read_edge_list_seq(input.as_bytes()).unwrap_err();
        for parts in [1usize, 2, 4] {
            let par = read_edge_list_chunked(input.as_bytes(), parts).unwrap_err();
            assert_eq!(par.line(), seq.line(), "parts={parts}");
            assert_eq!(par.to_string(), seq.to_string(), "parts={parts}");
        }
        assert_eq!(seq.line(), Some(3));
    }

    #[test]
    fn roundtrip() {
        let (g, _) = parcom_generators::ring_of_cliques(3, 4);
        let mut buf = Vec::new();
        write_edge_list_to(&g, &mut buf).unwrap();
        let el = read_edge_list_from(buf.as_slice()).unwrap();
        assert_eq!(el.graph.node_count(), g.node_count());
        assert_eq!(el.graph.edge_count(), g.edge_count());
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(read_edge_list_from("0\n".as_bytes()).is_err());
        assert!(read_edge_list_from("a b\n".as_bytes()).is_err());
        assert!(read_edge_list_from("0 1 x\n".as_bytes()).is_err());
    }

    #[test]
    fn empty_input_is_empty_graph() {
        let el = read_edge_list_from("# nothing\n".as_bytes()).unwrap();
        assert_eq!(el.graph.node_count(), 0);
    }

    #[test]
    fn recorded_read_captures_ingest_phases() {
        let dir = std::env::temp_dir().join("parcom_edgelist_recorded_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.txt");
        std::fs::write(&path, "0 1\n1 2\n2 0\n").unwrap();
        let rec = Recorder::enabled();
        let el = read_edge_list_recorded(&path, &rec).unwrap();
        assert_eq!(el.graph.edge_count(), 3);
        let report = rec.finish("ingest");
        assert!(report.phase("ingest/parse").is_some());
        let build = report.phase("ingest/build").expect("build phase");
        assert_eq!(build.counter("edges"), Some(3));
        std::fs::remove_dir_all(&dir).ok();
    }
}
