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
//! first-seen label numbering of the sequential reader exactly. Graphs
//! are read through [`crate::load_graph_bytes`]; [`read_edge_list_chunked`]
//! fixes the chunk count (and keeps the labels) for the differential
//! tests, and the pre-parallel line-by-line reader is retained as
//! [`read_edge_list_seq`], their reference.

use crate::chunk;
use crate::{limit_error, parse_error, IoError};
use parcom_graph::hashing::FxHashMap;
use parcom_graph::{Graph, GraphBuilder, Node};
use rayon::prelude::*;
use std::io::BufRead;

/// Result of reading an edge list: the graph plus the original node labels
/// (indexed by compact node id).
#[derive(Debug)]
pub struct EdgeListGraph {
    /// The parsed graph with compact node ids.
    pub graph: Graph,
    /// `labels[v]` is the id node `v` had in the file.
    pub labels: Vec<u64>,
}

/// One tokenized edge before label interning: line number within its
/// piece, endpoints as written in the file, weight.
type RawEdge = (usize, u64, u64, f64);

/// One piece's edges and its line count; lines are counted from the
/// piece's first.
fn parse_chunk(piece: &[u8]) -> Result<(Vec<RawEdge>, usize), IoError> {
    // one record per data line; lines are rarely shorter than 4 bytes
    let mut out = Vec::with_capacity(piece.len() / 8);
    let mut lines = 0;
    for (current, line) in (1..).zip(chunk::lines(piece)) {
        lines = current;
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
    Ok((out, lines))
}

/// Tokenizes in parallel (up to `parts` chunks), then interns labels
/// sequentially in chunk = line order, preserving the first-seen
/// numbering of the sequential reader. Returns the loaded builder and the
/// original labels by compact id.
// audit:allow(budget-propagation): one bounded parallel tokenize per input file; the driver checks the budget between pipeline phases
pub(crate) fn tokenize_and_intern(
    bytes: &[u8],
    parts: usize,
) -> Result<(GraphBuilder, Vec<u64>), IoError> {
    let pieces = chunk::split_lines(bytes, parts);
    let per_chunk =
        chunk::in_line_order(pieces.into_par_iter().map(parse_chunk).collect::<Vec<_>>())?;

    let total: usize = per_chunk.iter().map(|(_, edges)| edges.len()).sum();
    let mut ids: FxHashMap<u64, Node> = FxHashMap::default();
    let mut labels: Vec<u64> = Vec::new();
    let mut edges: Vec<(Node, Node, f64)> = Vec::with_capacity(total);
    let records = (per_chunk.into_iter())
        .flat_map(|(before, edges)| edges.into_iter().map(move |e| (before + e.0, e)));
    for (lineno, (_, u, v, w)) in records {
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
            return Err(limit_error(lineno, "more than u32::MAX distinct node ids"));
        }
        edges.push((cu, cv, w));
    }

    // Zero-copy handover: the interned edge vector moves into the builder;
    // validation and canonicalization run in place.
    let mut builder = GraphBuilder::new(labels.len());
    builder.extend_edges(edges);
    Ok((builder, labels))
}

/// Reads an edge list from a byte buffer with an explicit chunk count,
/// keeping the labels, for the differential tests; everything else reads
/// through [`crate::load_graph_bytes`], which picks the chunk count itself.
// audit:allow(unreachable-pub): the explicit-chunk-count side of ingest_differential.rs
pub fn read_edge_list_chunked(bytes: &[u8], parts: usize) -> Result<EdgeListGraph, IoError> {
    let (builder, labels) = tokenize_and_intern(bytes, parts)?;
    Ok(EdgeListGraph {
        graph: builder.build(),
        labels,
    })
}

/// The retained pre-parallel reader: line-by-line with a `String` per
/// line, sequential counting-sort assembly. The differential proptests
/// pin the chunked parser against this.
// audit:allow(unreachable-pub): the sequential reference reader of ingest_differential.rs
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
        // ASCII whitespace only, as the chunked reader splits
        let t = line.trim_ascii();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let mut tok = t.split_ascii_whitespace();
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
            return Err(limit_error(lineno, "more than u32::MAX distinct node ids"));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{load_graph_auto, load_graph_bytes, GraphFormat, LoadedGraph};
    use parcom_guard::Budget;
    use parcom_obs::Recorder;

    /// An edge list through the one decoder.
    fn read(bytes: &[u8]) -> Result<LoadedGraph, IoError> {
        load_graph_bytes(
            bytes,
            GraphFormat::EdgeList,
            &Recorder::disabled(),
            &Budget::unlimited(),
        )
    }

    #[test]
    fn parses_with_comments_and_gaps() {
        let input = "# SNAP-style\n10 20\n20 30\n% other comment\n10 30\n";
        let el = read_edge_list_chunked(input.as_bytes(), 1).unwrap();
        assert_eq!(el.graph.node_count(), 3);
        assert_eq!(el.graph.edge_count(), 3);
        assert_eq!(el.labels, vec![10, 20, 30]);
    }

    #[test]
    fn parses_weights() {
        let el = read("0 1 2.5\n1 2 0.5\n".as_bytes()).unwrap();
        assert_eq!(el.graph.edge_weight(0, 1), Some(2.5));
    }

    #[test]
    fn duplicate_edges_merge() {
        let el = read("0 1\n1 0\n".as_bytes()).unwrap();
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
        let mut text = String::from("# ring of cliques\n");
        g.for_edges(|u, v, _| text.push_str(&format!("{u} {v}\n")));
        let el = read(text.as_bytes()).unwrap();
        assert_eq!(el.graph.node_count(), g.node_count());
        assert_eq!(el.graph.edge_count(), g.edge_count());
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(read("0\n".as_bytes()).is_err());
        assert!(read("a b\n".as_bytes()).is_err());
        assert!(read("0 1 x\n".as_bytes()).is_err());
    }

    #[test]
    fn empty_input_is_empty_graph() {
        let el = read("# nothing\n".as_bytes()).unwrap();
        assert_eq!(el.graph.node_count(), 0);
    }

    #[test]
    fn recorded_read_captures_ingest_phases() {
        let dir = std::env::temp_dir().join("parcom_edgelist_recorded_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.txt");
        std::fs::write(&path, "0 1\n1 2\n2 0\n").unwrap();
        let rec = Recorder::enabled();
        let el = load_graph_auto(&path, &rec, &Budget::unlimited()).unwrap();
        assert_eq!(el.graph.edge_count(), 3);
        let report = rec.finish("ingest");
        assert!(report.phase("ingest/parse").is_some());
        let build = report.phase("ingest/build").expect("build phase");
        assert_eq!(build.counter("edges"), Some(3));
        std::fs::remove_dir_all(&dir).ok();
    }
}
