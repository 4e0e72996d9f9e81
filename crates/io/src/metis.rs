//! METIS/Chaco graph format (the DIMACS collection's format).
//!
//! Header: `n m [fmt]` where `fmt` is `1` when edge weights are present.
//! Line `i` (1-based) lists the neighbors of node `i`; with weights,
//! neighbors alternate with their edge weight. Comment lines start with `%`.
//!
//! Reading is a parallel byte-chunked pipeline (DESIGN.md §10): the file is
//! read into one buffer, split on line boundaries into per-core chunks, and
//! each chunk parses with zero per-line allocation. A first cheap pass
//! counts adjacency lines per chunk so a prefix sum can assign every chunk
//! its absolute starting node id and line number; the second pass parses.
//! Small inputs (or a single-thread pool) fall back to one chunk, which
//! runs the same parser inline. The pre-parallel line-by-line reader is
//! retained as [`read_metis_seq`], the differential-test reference.

use crate::chunk::{self, Chunk};
use crate::{at_path, parse_error, IoError};
use parcom_graph::{Graph, GraphBuilder, Node};
use parcom_guard::Budget;
use parcom_obs::Recorder;
use rayon::prelude::*;
use std::io::{BufRead, BufWriter, Read, Write};
use std::path::Path;

/// Rejects implausible or budget-exceeding header claims *before* any
/// proportional allocation happens. `lineno` is the header's line.
fn admit_header(n: usize, m: usize, lineno: usize, budget: &Budget) -> Result<(), IoError> {
    // A simple undirected graph with self-loops has at most n(n+1)/2
    // edges; a header claiming more is corrupt, whatever the limits.
    if (m as u128) > (n as u128) * (n as u128 + 1) / 2 {
        return Err(parse_error(
            lineno,
            format!("header claims {m} edges, more than a complete graph on {n} nodes"),
        ));
    }
    if budget.admits(n, m).is_err() {
        return Err(parse_error(
            lineno,
            format!("header claims {n} nodes / {m} edges, exceeding the ingest limit"),
        ));
    }
    Ok(())
}

/// Parsed header plus where the adjacency body starts.
struct Header {
    n: usize,
    m: usize,
    weighted: bool,
    /// Byte offset of the first body line.
    body_start: usize,
    /// 1-based line number of the first body line.
    body_first_line: usize,
}

fn parse_header(bytes: &[u8]) -> Result<Header, IoError> {
    let mut offset = 0usize;
    let mut lineno = 0usize;
    while offset < bytes.len() {
        let (line_end, next) = match bytes[offset..].iter().position(|&b| b == b'\n') {
            Some(i) => (offset + i, offset + i + 1),
            None => (bytes.len(), bytes.len()),
        };
        lineno += 1;
        let t = bytes[offset..line_end].trim_ascii();
        if t.is_empty() || t.starts_with(b"%") {
            offset = next;
            continue;
        }

        let fields: Vec<&[u8]> = chunk::tokens(t).collect();
        if fields.len() < 2 {
            return Err(parse_error(lineno, "header needs `n m [fmt]`"));
        }
        let n =
            chunk::parse_usize(fields[0]).ok_or_else(|| parse_error(lineno, "bad node count"))?;
        let m =
            chunk::parse_usize(fields[1]).ok_or_else(|| parse_error(lineno, "bad edge count"))?;
        let weighted = match fields.get(2).copied().unwrap_or(b"0") {
            b"0" | b"00" => false,
            b"1" | b"01" => true,
            other => {
                return Err(parse_error(
                    lineno,
                    format!(
                        "unsupported fmt field `{}` (node weights not supported)",
                        String::from_utf8_lossy(other)
                    ),
                ))
            }
        };
        if n > u32::MAX as usize {
            return Err(parse_error(
                lineno,
                format!("node count {n} exceeds the u32 id space"),
            ));
        }
        return Ok(Header {
            n,
            m,
            weighted,
            body_start: next,
            body_first_line: lineno + 1,
        });
    }
    Err(parse_error(0, "missing header line"))
}

/// True when the line is an adjacency (non-comment) line; one forward
/// scan, no trailing trim.
fn is_data_line(line: &[u8]) -> bool {
    match line.iter().position(|b| !b.is_ascii_whitespace()) {
        Some(i) => line[i] != b'%',
        None => true, // blank lines are isolated-node rows
    }
}

/// Out-of-line fallback for neighbor tokens the fused cursor cannot accept
/// (more than 18 digits, a stray sign, embedded garbage): re-scans the
/// token extent and delegates to the general parser so the error message —
/// and the accept set, e.g. 19-digit ids that still fit a `u64` — match
/// the sequential reference exactly. Returns the value and the cursor
/// position after the token.
#[cold]
fn neighbor_token_slow(
    bytes: &[u8],
    tok_start: usize,
    lineno: usize,
) -> Result<(usize, usize), IoError> {
    // tokens never span lines: `\n` (and `\r`) are ASCII whitespace
    let end = bytes[tok_start..]
        .iter()
        .position(|b| b.is_ascii_whitespace())
        .map_or(bytes.len(), |i| tok_start + i);
    let tok = &bytes[tok_start..end];
    match chunk::parse_usize(tok) {
        Some(v) => Ok((v, end)),
        None => Err(parse_error(
            lineno,
            format!("bad neighbor id `{}`", String::from_utf8_lossy(tok)),
        )),
    }
}

/// Parses one body chunk whose first adjacency line belongs to node
/// `start_node`, returning the kept (canonical `v >= u`) edges and the
/// number of adjacency lines seen.
///
/// The loop is a single fused byte cursor: line splitting, whitespace
/// skipping, comment classification, and decimal accumulation all happen
/// in one pass over the chunk — no line or token slices materialize on
/// the happy path. Up to 18 digits cannot overflow the `u64`
/// accumulator, so the hot loop runs unchecked; anything else drops to
/// [`neighbor_token_slow`]. `\n` and `\r` are ASCII whitespace, so the
/// token boundary checks double as line-end checks.
#[allow(clippy::type_complexity)] // (edges, data-line count) — a one-use pair
                                  // audit:allow(budget-propagation): linear scan bounded by the chunk; the driver checks the budget between pipeline phases
fn parse_body_chunk(
    c: Chunk<'_>,
    start_node: usize,
    n: usize,
    weighted: bool,
) -> Result<(Vec<(Node, Node, f64)>, usize), IoError> {
    parcom_guard::faultpoint!("io/chunk-parse");
    let b = c.bytes;
    let len = b.len();
    // Each kept edge costs well over 8 input bytes on average (two id
    // tokens per undirected edge, one kept); the estimate over-reserves
    // mildly and stays proportional to the chunk size.
    let mut edges = Vec::with_capacity(len / 8);
    let mut node = start_node;
    let mut data_lines = 0usize;
    let mut lineno = c.first_line;
    let mut i = 0usize;
    while i < len {
        // one outer iteration consumes exactly one line, `\n` included
        let current_line = lineno;
        lineno += 1;
        while i < len && b[i] != b'\n' && b[i].is_ascii_whitespace() {
            i += 1;
        }
        if i < len && b[i] == b'%' {
            while i < len && b[i] != b'\n' {
                i += 1;
            }
            i += 1;
            continue; // comment line
        }
        data_lines += 1;
        let blank = i >= len || b[i] == b'\n';
        if node >= n {
            if blank {
                i += 1; // trailing blank lines are tolerated
                continue;
            }
            return Err(parse_error(current_line, "more adjacency lines than nodes"));
        }
        let u = node as Node;
        node += 1;
        if blank {
            i += 1; // blank line: isolated node
            continue;
        }
        loop {
            // cursor is at the first byte of a neighbor token
            let tok_start = i;
            if b[i] == b'+' {
                i += 1;
            }
            let mut acc = 0u64;
            let mut digits = 0usize;
            while i < len {
                let d = b[i].wrapping_sub(b'0');
                if d > 9 {
                    break;
                }
                acc = acc.wrapping_mul(10).wrapping_add(d as u64);
                digits += 1;
                i += 1;
            }
            let at_boundary = i >= len || b[i].is_ascii_whitespace();
            let v = if digits > 0 && digits <= 18 && at_boundary {
                acc as usize
            } else {
                let (v, end) = neighbor_token_slow(b, tok_start, current_line)?;
                i = end;
                v
            };
            if v < 1 || v > n {
                return Err(parse_error(
                    current_line,
                    format!("neighbor id {v} out of range 1..={n}"),
                ));
            }
            let v = (v - 1) as Node;
            let w = if weighted {
                while i < len && b[i] != b'\n' && b[i].is_ascii_whitespace() {
                    i += 1;
                }
                if i >= len || b[i] == b'\n' {
                    return Err(parse_error(current_line, "missing edge weight"));
                }
                let wt_start = i;
                while i < len && !b[i].is_ascii_whitespace() {
                    i += 1;
                }
                let wt = &b[wt_start..i];
                let w = chunk::parse_f64(wt).ok_or_else(|| {
                    parse_error(
                        current_line,
                        format!("bad edge weight `{}`", String::from_utf8_lossy(wt)),
                    )
                })?;
                if !w.is_finite() || w <= 0.0 {
                    return Err(parse_error(
                        current_line,
                        format!(
                            "edge weight `{}` must be positive and finite",
                            String::from_utf8_lossy(wt)
                        ),
                    ));
                }
                w
            } else {
                1.0
            };
            // each undirected edge appears in both endpoint lines; keep one
            if v >= u {
                edges.push((u, v, w));
            }
            while i < len && b[i] != b'\n' && b[i].is_ascii_whitespace() {
                i += 1;
            }
            if i >= len {
                break;
            }
            if b[i] == b'\n' {
                i += 1;
                break;
            }
        }
    }
    Ok((edges, data_lines))
}

/// Everything known after parsing, before CSR assembly.
struct ParsedMetis {
    builder: GraphBuilder,
    claimed_edges: usize,
}

/// Parses header and body into a loaded [`GraphBuilder`] using up to
/// `parts` chunks.
fn parse_metis(bytes: &[u8], parts: usize, budget: &Budget) -> Result<ParsedMetis, IoError> {
    let header = parse_header(bytes)?;
    let (n, m) = (header.n, header.m);
    admit_header(n, m, header.body_first_line - 1, budget)?;
    let body = &bytes[header.body_start..];
    let chunks = chunk::chunk_lines(body, parts, header.body_first_line);
    let weighted = header.weighted;

    let (per_chunk, total_data) = if chunks.len() == 1 {
        // single chunk (small file or single-thread pool): no counting
        // pre-pass needed, node ids start at 0
        let (edges, data) = parse_body_chunk(chunks[0], 0, n, weighted)?;
        (vec![edges], data)
    } else {
        // Pass 1: adjacency (non-comment) lines per chunk, so a prefix
        // sum can hand every chunk the node id of its first adjacency
        // line.
        let data_counts: Vec<usize> = chunks
            .par_iter()
            .map(|c| chunk::lines(c.bytes).filter(|l| is_data_line(l)).count())
            .collect();
        let mut start_nodes = Vec::with_capacity(chunks.len());
        let mut total_data = 0usize;
        for &d in &data_counts {
            start_nodes.push(total_data);
            total_data += d;
        }

        // Pass 2: parse every chunk; the earliest chunk's error wins
        // (chunks are in line order, so that is the earliest line,
        // matching the sequential reader's first-error behavior).
        let tasks: Vec<(Chunk<'_>, usize)> = chunks.into_iter().zip(start_nodes).collect();
        let per_chunk = chunk::first_error(
            tasks
                .into_par_iter()
                .map(|(c, start)| parse_body_chunk(c, start, n, weighted).map(|(e, _)| e))
                .collect::<Vec<_>>(),
        )?;
        (per_chunk, total_data)
    };

    let consumed = total_data.min(n);
    if consumed != n {
        // cold: only now is the whole-file line count needed
        let last_line = header.body_first_line - 1 + chunk::line_count(body);
        return Err(parse_error(
            last_line,
            format!("expected {n} adjacency lines, got {consumed}"),
        ));
    }
    // Zero-copy handover: the first chunk's vector moves into the builder,
    // later chunks append (in chunk = line order, so the pending-edge
    // sequence matches the sequential reader's exactly). The parse loop
    // already range-checked every neighbor and kept only `v >= u`, so the
    // canonical fast path skips the validation pass.
    let mut builder = GraphBuilder::new(n);
    for v in per_chunk {
        builder.extend_canonical(v);
    }
    Ok(ParsedMetis {
        builder,
        claimed_edges: m,
    })
}

/// Assembles the graph and applies the whole-file consistency check.
/// `last_line` is consulted only on the (cold) mismatch path, so callers
/// pass it lazily and the happy path never counts lines.
fn finish_metis(parsed: ParsedMetis, last_line: impl FnOnce() -> usize) -> Result<Graph, IoError> {
    let g = parsed.builder.build();
    if g.edge_count() != parsed.claimed_edges {
        return Err(parse_error(
            last_line(),
            format!(
                "header claims {} edges, file defines {}",
                parsed.claimed_edges,
                g.edge_count()
            ),
        ));
    }
    Ok(g)
}

/// Reads a METIS graph from a byte buffer with an explicit chunk count.
/// Exposed for the differential tests; [`read_metis_from`] picks the
/// chunk count automatically.
pub fn read_metis_chunked(bytes: &[u8], parts: usize) -> Result<Graph, IoError> {
    finish_metis(parse_metis(bytes, parts, &Budget::unlimited())?, || {
        chunk::line_count(bytes)
    })
}

/// Reads a METIS graph from a byte buffer under a [`Budget`]: header
/// claims exceeding the budget's input limits are rejected *before* any
/// allocation proportional to them happens.
pub fn read_metis_bytes_budgeted(bytes: &[u8], budget: &Budget) -> Result<Graph, IoError> {
    finish_metis(
        parse_metis(bytes, chunk::auto_parts(bytes.len()), budget)?,
        || chunk::line_count(bytes),
    )
}

/// Reads a METIS graph from an in-memory buffer with an automatically
/// chosen chunk count — the zero-copy core of [`read_metis_from`] and
/// [`read_metis`].
pub fn read_metis_bytes(bytes: &[u8]) -> Result<Graph, IoError> {
    read_metis_chunked(bytes, chunk::auto_parts(bytes.len()))
}

/// Reads a graph in METIS format from a reader (buffer + chunked parse;
/// see the module docs).
pub fn read_metis_from(mut reader: impl Read) -> Result<Graph, IoError> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    read_metis_bytes(&bytes)
}

/// The retained pre-parallel reader: line-by-line with a `String` per
/// line, sequential counting-sort assembly. The differential proptests
/// pin the chunked parser against this.
pub fn read_metis_seq(bytes: &[u8]) -> Result<Graph, IoError> {
    let mut lines = bytes.lines().enumerate();

    // header (skipping comments)
    let (header_lineno, header) = loop {
        match lines.next() {
            Some((i, line)) => {
                let line = line?;
                let t = line.trim();
                if t.is_empty() || t.starts_with('%') {
                    continue;
                }
                break (i + 1, t.to_string());
            }
            None => return Err(parse_error(0, "missing header line")),
        }
    };
    let fields: Vec<&str> = header.split_whitespace().collect();
    if fields.len() < 2 {
        return Err(parse_error(header_lineno, "header needs `n m [fmt]`"));
    }
    let n: usize = fields[0]
        .parse()
        .map_err(|_| parse_error(header_lineno, "bad node count"))?;
    let m: usize = fields[1]
        .parse()
        .map_err(|_| parse_error(header_lineno, "bad edge count"))?;
    let fmt = fields.get(2).copied().unwrap_or("0");
    let weighted = match fmt {
        "0" | "00" => false,
        "1" | "01" => true,
        other => {
            return Err(parse_error(
                header_lineno,
                format!("unsupported fmt field `{other}` (node weights not supported)"),
            ))
        }
    };

    if n > u32::MAX as usize {
        return Err(parse_error(
            header_lineno,
            format!("node count {n} exceeds the u32 id space"),
        ));
    }
    admit_header(n, m, header_lineno, &Budget::unlimited())?;
    let mut b = GraphBuilder::with_capacity(n, m.min(1 << 24));
    let mut node: usize = 0;
    let mut last_line = header_lineno;
    for (i, line) in lines {
        let lineno = i + 1;
        last_line = lineno;
        let line = line?;
        let t = line.trim();
        if t.starts_with('%') {
            continue;
        }
        if node >= n {
            if t.is_empty() {
                continue;
            }
            return Err(parse_error(lineno, "more adjacency lines than nodes"));
        }
        let u = node as Node;
        let mut tokens = t.split_whitespace();
        while let Some(tok) = tokens.next() {
            let v: usize = tok
                .parse()
                .map_err(|_| parse_error(lineno, format!("bad neighbor id `{tok}`")))?;
            if v < 1 || v > n {
                return Err(parse_error(
                    lineno,
                    format!("neighbor id {v} out of range 1..={n}"),
                ));
            }
            let v = (v - 1) as Node;
            let w = if weighted {
                let Some(wt) = tokens.next() else {
                    return Err(parse_error(lineno, "missing edge weight"));
                };
                let w = wt
                    .parse::<f64>()
                    .map_err(|_| parse_error(lineno, format!("bad edge weight `{wt}`")))?;
                if !w.is_finite() || w <= 0.0 {
                    return Err(parse_error(
                        lineno,
                        format!("edge weight `{wt}` must be positive and finite"),
                    ));
                }
                w
            } else {
                1.0
            };
            // each undirected edge appears in both endpoint lines; keep one
            if v >= u {
                b.add_edge(u, v, w);
            }
        }
        node += 1;
    }
    if node != n {
        return Err(parse_error(
            last_line,
            format!("expected {n} adjacency lines, got {node}"),
        ));
    }
    let g = b.build_reference();
    if g.edge_count() != m {
        return Err(parse_error(
            last_line,
            format!("header claims {m} edges, file defines {}", g.edge_count()),
        ));
    }
    Ok(g)
}

/// Reads a METIS graph from a file path. Errors carry the path (and line).
pub fn read_metis(path: impl AsRef<Path>) -> Result<Graph, IoError> {
    read_metis_recorded(path, &Recorder::disabled())
}

/// Reads a METIS graph from a file path, recording `ingest/parse` and
/// `ingest/build` phase spans (with byte/edge counters) on `recorder`.
/// With a disabled recorder this is exactly [`read_metis`].
pub fn read_metis_recorded(path: impl AsRef<Path>, recorder: &Recorder) -> Result<Graph, IoError> {
    read_metis_budgeted(path, recorder, &Budget::unlimited())
}

/// Reads a METIS graph from a file path under a [`Budget`], recording
/// ingest phase spans on `recorder`. Header claims exceeding the budget's
/// input limits are rejected before allocation, with `path:line` context.
pub fn read_metis_budgeted(
    path: impl AsRef<Path>,
    recorder: &Recorder,
    budget: &Budget,
) -> Result<Graph, IoError> {
    let path = path.as_ref();
    at_path(path, {
        (|| {
            let parse_span = recorder.span("ingest/parse");
            let bytes = std::fs::read(path).map_err(IoError::from)?;
            let parsed = parse_metis(&bytes, chunk::auto_parts(bytes.len()), budget)?;
            parse_span.counter("bytes", bytes.len() as u64);
            parse_span.counter("pending_edges", parsed.builder.pending_edges() as u64);
            parse_span.close();

            let build_span = recorder.span("ingest/build");
            let g = finish_metis(parsed, || chunk::line_count(&bytes))?;
            build_span.counter("edges", g.edge_count() as u64);
            build_span.close();
            Ok(g)
        })()
    })
}

/// Writes a graph in METIS format to a writer. Weights are emitted unless
/// every edge weight is exactly 1.
pub fn write_metis_to(g: &Graph, writer: impl Write) -> Result<(), IoError> {
    let mut w = BufWriter::new(writer);
    let weighted = g.nodes().any(|u| g.edges_of(u).any(|(_, wt)| wt != 1.0));
    writeln!(
        w,
        "{} {}{}",
        g.node_count(),
        g.edge_count(),
        if weighted { " 1" } else { "" }
    )?;
    for u in g.nodes() {
        let mut first = true;
        for (v, wt) in g.edges_of(u) {
            if !first {
                write!(w, " ")?;
            }
            if weighted {
                write!(w, "{} {}", v + 1, wt)?;
            } else {
                write!(w, "{}", v + 1)?;
            }
            first = false;
        }
        writeln!(w)?;
    }
    Ok(())
}

/// Writes a METIS graph to a file path. Errors carry the path.
pub fn write_metis(g: &Graph, path: impl AsRef<Path>) -> Result<(), IoError> {
    let path = path.as_ref();
    at_path(
        path,
        std::fs::File::create(path)
            .map_err(IoError::from)
            .and_then(|f| write_metis_to(g, f)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcom_generators::ring_of_cliques;

    #[test]
    fn parses_simple_file() {
        let input = "% a triangle plus pendant\n4 4\n2 3\n1 3\n1 2 4\n3\n";
        let g = read_metis_from(input.as_bytes()).unwrap();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert!(g.has_edge(0, 1) && g.has_edge(2, 3));
    }

    #[test]
    fn parses_weighted_file() {
        let input = "3 2 1\n2 5.5\n1 5.5 3 2\n2 2\n";
        let g = read_metis_from(input.as_bytes()).unwrap();
        assert_eq!(g.edge_weight(0, 1), Some(5.5));
        assert_eq!(g.edge_weight(1, 2), Some(2.0));
    }

    #[test]
    fn chunked_matches_sequential_on_fixture() {
        let input = "% comment\n6 3 1\n2 1.5\n1 1.5 3 2.5\n2 2.5\n% tail\n5 0.5\n4 0.5\n\n";
        let reference = read_metis_seq(input.as_bytes()).unwrap();
        for parts in [1usize, 2, 3, 8] {
            let g = read_metis_chunked(input.as_bytes(), parts).unwrap();
            assert_eq!(g.node_count(), reference.node_count());
            for u in reference.nodes() {
                let (t1, w1) = reference.neighbors_and_weights(u);
                let (t2, w2) = g.neighbors_and_weights(u);
                assert_eq!(t1, t2, "parts={parts}");
                assert_eq!(w1, w2, "parts={parts}");
            }
        }
    }

    #[test]
    fn roundtrip_unweighted() {
        let (g, _) = ring_of_cliques(4, 5);
        let mut buf = Vec::new();
        write_metis_to(&g, &mut buf).unwrap();
        let g2 = read_metis_from(buf.as_slice()).unwrap();
        assert_eq!(g.node_count(), g2.node_count());
        assert_eq!(g.edge_count(), g2.edge_count());
        for u in g.nodes() {
            assert_eq!(g.neighbors(u), g2.neighbors(u));
        }
    }

    #[test]
    fn roundtrip_weighted() {
        let mut b = parcom_graph::GraphBuilder::new(3);
        b.add_edge(0, 1, 2.5);
        b.add_edge(1, 2, 0.5);
        let g = b.build();
        let mut buf = Vec::new();
        write_metis_to(&g, &mut buf).unwrap();
        let g2 = read_metis_from(buf.as_slice()).unwrap();
        assert_eq!(g2.edge_weight(0, 1), Some(2.5));
        assert_eq!(g2.edge_weight(1, 2), Some(0.5));
    }

    #[test]
    fn rejects_bad_header() {
        assert!(read_metis_from("5\n".as_bytes()).is_err());
        assert!(read_metis_from("".as_bytes()).is_err());
    }

    #[test]
    fn rejects_out_of_range_neighbor() {
        let err = read_metis_from("2 1\n3\n1\n".as_bytes()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("out of range"), "{msg}");
    }

    #[test]
    fn rejects_edge_count_mismatch() {
        // 2 claimed edges are plausible on 3 nodes, so the header is
        // admitted and the whole-file consistency check catches it
        let err = read_metis_from("3 2\n2\n1\n\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("header claims"), "{err}");
        assert!(err.to_string().contains("file defines"), "{err}");
        // the whole-file check carries the last line's number (satellite
        // fix: no more naked `line 0` / missing-location errors)
        assert_eq!(err.line(), Some(4), "{err}");
    }

    #[test]
    fn missing_adjacency_lines_carry_last_line() {
        let err = read_metis_from("4 2\n2\n1\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("expected 4 adjacency"), "{err}");
        assert_eq!(err.line(), Some(3), "{err}");
        let err = read_metis_seq("4 2\n2\n1\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("expected 4 adjacency"), "{err}");
        assert_eq!(err.line(), Some(3), "{err}");
    }

    #[test]
    fn rejects_more_edges_than_complete_graph() {
        // 3 nodes admit at most 6 edges (self-loops included)
        let err = read_metis_from("3 7\n2\n1\n\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("complete graph"), "{err}");
        assert_eq!(err.line(), Some(1), "{err}");
        let err = read_metis_seq("3 7\n2\n1\n\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("complete graph"), "{err}");
        assert_eq!(err.line(), Some(1), "{err}");
    }

    #[test]
    fn budget_rejects_oversized_header_before_parsing() {
        let budget = Budget::unlimited().with_input_limits(100, 1000);
        // body is deliberately garbage: rejection must happen on the
        // header alone, before any body parsing or allocation
        let bytes = b"101 50\nthis is not a valid body\n";
        let err = read_metis_bytes_budgeted(bytes, &budget).unwrap_err();
        assert!(err.to_string().contains("ingest limit"), "{err}");
        assert_eq!(err.line(), Some(1), "{err}");
        // within limits, the same reader accepts a well-formed file
        let g = read_metis_bytes_budgeted(b"2 1\n2\n1\n", &budget).unwrap();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn rejects_node_weight_formats() {
        assert!(read_metis_from("2 1 11\n2\n1\n".as_bytes()).is_err());
    }

    #[test]
    fn empty_lines_are_isolated_nodes() {
        let g = read_metis_from("3 1\n2\n1\n\n".as_bytes()).unwrap();
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn error_lines_match_between_parsers() {
        // malformed neighbor on line 4, visible to chunked and sequential
        let input = "% c\n3 2\n2\n1 x\n2\n";
        let seq = read_metis_seq(input.as_bytes()).unwrap_err();
        for parts in [1usize, 2, 4] {
            let par = read_metis_chunked(input.as_bytes(), parts).unwrap_err();
            assert_eq!(par.line(), seq.line(), "parts={parts}");
            assert_eq!(par.to_string(), seq.to_string(), "parts={parts}");
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("parcom_metis_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.metis");
        let (g, _) = ring_of_cliques(3, 4);
        write_metis(&g, &path).unwrap();
        let g2 = read_metis(&path).unwrap();
        assert_eq!(g.edge_count(), g2.edge_count());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recorded_read_captures_ingest_phases() {
        let dir = std::env::temp_dir().join("parcom_metis_recorded_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.metis");
        let (g, _) = ring_of_cliques(3, 4);
        write_metis(&g, &path).unwrap();
        let rec = Recorder::enabled();
        let g2 = read_metis_recorded(&path, &rec).unwrap();
        assert_eq!(g.edge_count(), g2.edge_count());
        let report = rec.finish("ingest");
        let parse = report.phase("ingest/parse").expect("parse phase");
        assert!(parse.counter("bytes").unwrap() > 0);
        let build = report.phase("ingest/build").expect("build phase");
        assert_eq!(build.counter("edges"), Some(g.edge_count() as u64));
        std::fs::remove_dir_all(&dir).ok();
    }
}
