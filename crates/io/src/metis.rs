//! METIS/Chaco graph format (the DIMACS collection's format).
//!
//! Header: `n m [fmt]` where `fmt` is `1` when edge weights are present.
//! Line `i` (1-based) lists the neighbors of node `i`; with weights,
//! neighbors alternate with their edge weight. Comment lines start with `%`.
//!
//! A METIS body is a CSR written as text, so it is read straight into the
//! graph's arrays (DESIGN.md §10): the file is read into one buffer and
//! split on line boundaries into per-core chunks. A first cheap pass counts
//! the entries on every adjacency line, and a prefix sum over those row
//! lengths gives every row its offset; the second pass parses each chunk's
//! rows, with zero per-line allocation, into the rows' slots of the final
//! `targets` and `weights`. [`Graph::from_adjacency_rows`] sorts and merges
//! the rows and checks that every edge is listed alike by both endpoints:
//! an asymmetric file is a parse error at the line of the edge's smaller
//! endpoint. Small inputs (or a single-thread pool) are one chunk, which
//! runs the same parser inline. Graphs are read through
//! [`crate::load_graph_bytes`]; [`read_metis_chunked`] fixes the chunk
//! count for the differential tests, and the pre-parallel line-by-line
//! reader is retained as [`read_metis_seq`], their reference.

use crate::chunk::{self, Chunk};
use crate::{at_path, limit_error, parse_error, IoError};
use parcom_graph::parallel::{exclusive_prefix_sum, split_by_ranges};
use parcom_graph::{Asymmetry, Graph, GraphBuilder, Node};
use parcom_guard::Budget;
use rayon::prelude::*;
use std::io::{BufRead, BufWriter, Write};
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
        return Err(limit_error(
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
            return Err(limit_error(
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

/// Pass 1 over a body chunk: the number of adjacency entries on each of
/// its adjacency lines, in line order — the line's tokens (maximal runs of
/// non-whitespace, the units pass 2 reads), halved when the file is
/// weighted. A weighted line with an odd token count undercounts by one
/// and then fails in pass 2 with "missing edge weight" before its last
/// entry is written.
// audit:allow(budget-propagation): linear scan bounded by the chunk; the driver checks the budget between pipeline phases
fn row_lengths(c: Chunk<'_>, weighted: bool) -> Result<Vec<u32>, IoError> {
    let b = c.bytes;
    let len = b.len();
    let mut rows = Vec::new();
    let mut lineno = c.first_line;
    let mut i = 0usize;
    while i < len {
        // one outer iteration consumes exactly one line, `\n` included
        while i < len && b[i] != b'\n' && b[i].is_ascii_whitespace() {
            i += 1;
        }
        if i < len && b[i] == b'%' {
            while i < len && b[i] != b'\n' {
                i += 1;
            }
        } else {
            let mut tokens = 0usize;
            while i < len && b[i] != b'\n' {
                if b[i].is_ascii_whitespace() {
                    i += 1;
                } else {
                    tokens += 1;
                    while i < len && !b[i].is_ascii_whitespace() {
                        i += 1;
                    }
                }
            }
            let entries = if weighted { tokens / 2 } else { tokens };
            rows.push(u32::try_from(entries).map_err(|_| {
                limit_error(lineno, "more than u32::MAX entries on one adjacency line")
            })?);
        }
        i += 1;
        lineno += 1;
    }
    Ok(rows)
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

/// Pass 2 over one body chunk whose first adjacency line belongs to node
/// `start_node`: writes every row's entries, in file order, into the
/// chunk's region of the arrays (`targets`/`weights`, which begin at row
/// `start_node`'s offset; `offsets` is the whole array). An unweighted
/// file writes no weights: `weights` is empty.
///
/// The loop is a single fused byte cursor: line splitting, whitespace
/// skipping, comment classification, and decimal accumulation all happen
/// in one pass over the chunk — no line or token slices materialize on
/// the happy path. Up to 18 digits cannot overflow the `u64`
/// accumulator, so the hot loop runs unchecked; anything else drops to
/// [`neighbor_token_slow`]. `\n` and `\r` are ASCII whitespace, so the
/// token boundary checks double as line-end checks. Every entry is
/// range-checked and its weight validated before it is written, and pass
/// 1 sized each row for the entries its line holds.
// audit:allow(budget-propagation): linear scan bounded by the chunk; the driver checks the budget between pipeline phases
fn parse_body_chunk(
    c: Chunk<'_>,
    start_node: usize,
    n: usize,
    weighted: bool,
    offsets: &[usize],
    targets: &mut [Node],
    weights: &mut [f64],
) -> Result<(), IoError> {
    parcom_guard::faultpoint!("io/chunk-parse");
    let b = c.bytes;
    let len = b.len();
    let base = offsets[start_node.min(n)];
    let mut node = start_node;
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
        let blank = i >= len || b[i] == b'\n';
        if node >= n {
            if blank {
                i += 1; // trailing blank lines are tolerated
                continue;
            }
            return Err(parse_error(current_line, "more adjacency lines than nodes"));
        }
        let mut at = offsets[node] - base;
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
            if weighted {
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
                weights[at] = w;
            }
            targets[at] = (v - 1) as Node;
            at += 1;
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
    Ok(())
}

/// A METIS body parsed into its rows, before they are sorted, merged and
/// checked for symmetry.
pub(crate) struct Rows {
    offsets: Vec<usize>,
    targets: Vec<Node>,
    weights: Vec<f64>,
    /// The header's edge count, which [`finish`] checks the graph against.
    claimed_edges: usize,
    /// Where the body starts, and its first line's number: the cold error
    /// path finds a node's line again from them.
    body_start: usize,
    body_first_line: usize,
}

impl Rows {
    /// The adjacency entries written: every line's neighbors, both
    /// directions of an edge, repeats included.
    pub(crate) fn entries(&self) -> usize {
        self.targets.len()
    }
}

/// Parses header and body into per-node rows using up to `parts` chunks:
/// pass 1 sizes the rows, a prefix sum places them, pass 2 fills them.
pub(crate) fn parse(bytes: &[u8], parts: usize, budget: &Budget) -> Result<Rows, IoError> {
    let header = parse_header(bytes)?;
    let (n, weighted) = (header.n, header.weighted);
    admit_header(n, header.m, header.body_first_line - 1, budget)?;
    let body = &bytes[header.body_start..];
    let chunks = chunk::chunk_lines(body, parts, header.body_first_line);

    // Pass 1: the entries per adjacency line, per chunk, concatenated in
    // line order into the first n rows' lengths; a chunk's line count is
    // the node id of the next chunk's first line.
    let lengths = chunk::first_error(
        chunks
            .par_iter()
            .map(|&c| row_lengths(c, weighted))
            .collect::<Vec<_>>(),
    )?;
    let mut start_nodes = Vec::with_capacity(chunks.len());
    let mut degree = Vec::with_capacity(n);
    let mut total_data = 0usize;
    for rows in &lengths {
        start_nodes.push(total_data);
        total_data += rows.len();
        let take = rows.len().min(n - degree.len());
        degree.extend_from_slice(&rows[..take]);
    }
    drop(lengths);
    degree.resize(n, 0);
    let offsets = exclusive_prefix_sum(&degree, parts);
    drop(degree);

    // Pass 2: every chunk parses its rows into its own region of the
    // arrays; the earliest chunk's error wins (chunks are in line order,
    // so that is the earliest line, matching the sequential reader).
    let entries = offsets[n];
    // An unweighted file's graph is unit: it gets no weights array.
    let mut targets = vec![0 as Node; entries];
    let mut weights = vec![0.0f64; if weighted { entries } else { 0 }];
    {
        let regions: Vec<std::ops::Range<usize>> = (start_nodes.iter())
            .zip(start_nodes.iter().skip(1).chain([&total_data]))
            .map(|(&first, &end)| offsets[first.min(n)]..offsets[end.min(n)])
            .collect();
        let t_regions = split_by_ranges(&mut targets, &regions);
        let w_regions = match weighted {
            true => split_by_ranges(&mut weights, &regions),
            false => regions.iter().map(|_| &mut [][..]).collect(),
        };
        let offsets = &offsets;
        chunk::first_error(
            (chunks.into_iter().zip(start_nodes))
                .zip(t_regions.into_iter().zip(w_regions))
                .collect::<Vec<_>>()
                .into_par_iter()
                .map(|((c, start), (t_reg, w_reg))| {
                    parse_body_chunk(c, start, n, weighted, offsets, t_reg, w_reg)
                })
                .collect::<Vec<_>>(),
        )?;
    }

    let consumed = total_data.min(n);
    if consumed != n {
        // cold: only now is the whole-file line count needed
        let last_line = header.body_first_line - 1 + chunk::line_count(body);
        return Err(parse_error(
            last_line,
            format!("expected {n} adjacency lines, got {consumed}"),
        ));
    }
    Ok(Rows {
        offsets,
        targets,
        weights,
        claimed_edges: header.m,
        body_start: header.body_start,
        body_first_line: header.body_first_line,
    })
}

/// The error for an edge `a` whose endpoints' lines disagree, at `line`
/// (the line of its smaller endpoint); node ids are the file's, 1-based.
fn asymmetry_error(line: usize, a: &Asymmetry) -> IoError {
    let side = |from: Node, to: Node, w: Option<f64>| match w {
        Some(w) => format!("{} → {} has weight {w}", from + 1, to + 1),
        None => format!("{} → {} is missing", from + 1, to + 1),
    };
    parse_error(
        line,
        format!(
            "asymmetric edge {{{}, {}}}: {}, {}",
            a.u + 1,
            a.v + 1,
            side(a.u, a.v, a.forward),
            side(a.v, a.u, a.backward)
        ),
    )
}

/// Assembles the graph — rows sorted and merged, symmetry checked — and
/// applies the whole-file consistency check. The line numbers an error
/// needs are counted from `bytes` on the (cold) error path only.
pub(crate) fn finish(rows: Rows, bytes: &[u8]) -> Result<Graph, IoError> {
    let body = &bytes[rows.body_start..];
    let g = Graph::from_adjacency_rows(rows.offsets, rows.targets, rows.weights).map_err(|a| {
        // the line of node u: the (u + 1)-th adjacency line of the body
        let line = (rows.body_first_line..)
            .zip(chunk::lines(body))
            .filter(|(_, l)| is_data_line(l))
            .nth(a.u as usize)
            .map_or(0, |(line, _)| line);
        asymmetry_error(line, &a)
    })?;
    if g.edge_count() != rows.claimed_edges {
        return Err(parse_error(
            chunk::line_count(bytes),
            format!(
                "header claims {} edges, file defines {}",
                rows.claimed_edges,
                g.edge_count()
            ),
        ));
    }
    Ok(g)
}

/// Reads a METIS graph from a byte buffer with an explicit chunk count and
/// no budget, for the differential tests; everything else reads through
/// [`crate::load_graph_bytes`], which picks the chunk count itself.
// audit:allow(unreachable-pub): the explicit-chunk-count side of ingest_differential.rs
pub fn read_metis_chunked(bytes: &[u8], parts: usize) -> Result<Graph, IoError> {
    finish(parse(bytes, parts, &Budget::unlimited())?, bytes)
}

/// The retained pre-parallel reader: line-by-line with a `String` per
/// line, sequential counting-sort assembly. The differential proptests
/// pin the chunked parser against this.
///
/// It keeps its own symmetry rule: the entries `u → v` with `v >= u`
/// build one graph, those with `v <= u` another, and a file is symmetric
/// exactly when the two are equal — then either is the graph.
// audit:allow(unreachable-pub): the sequential reference reader of ingest_differential.rs
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
        return Err(limit_error(
            header_lineno,
            format!("node count {n} exceeds the u32 id space"),
        ));
    }
    admit_header(n, m, header_lineno, &Budget::unlimited())?;
    let mut upper = GraphBuilder::with_capacity(n, m.min(1 << 24));
    let mut lower = GraphBuilder::with_capacity(n, m.min(1 << 24));
    let mut node_lines = Vec::with_capacity(n);
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
        node_lines.push(lineno);
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
            // each undirected edge appears in both endpoint lines
            if v >= u {
                upper.add_edge(u, v, w);
            }
            if v <= u {
                lower.add_edge(u, v, w);
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
    let g = upper.build_reference();
    let mirrored = lower.build_reference();
    // The first pair u < v whose two accounts differ: u's row gives the
    // edge `g`'s weight, v's row gives it `mirrored`'s.
    for u in g.nodes() {
        let above =
            |h: &Graph| -> Vec<(Node, f64)> { h.edges_of(u).filter(|&(v, _)| v > u).collect() };
        let (forward, backward) = (above(&g), above(&mirrored));
        let weight = |row: &[(Node, f64)], v: Node| {
            (row.binary_search_by_key(&v, |e| e.0).ok()).map(|i| row[i].1)
        };
        let bits = |row: &[(Node, f64)], v: Node| weight(row, v).map(f64::to_bits);
        let first = (forward.iter().chain(&backward))
            .map(|e| e.0)
            .filter(|&v| bits(&forward, v) != bits(&backward, v))
            .min();
        if let Some(v) = first {
            let a = Asymmetry {
                u,
                v,
                forward: weight(&forward, v),
                backward: weight(&backward, v),
            };
            return Err(asymmetry_error(node_lines[u as usize], &a));
        }
    }
    if g.edge_count() != m {
        return Err(parse_error(
            last_line,
            format!("header claims {m} edges, file defines {}", g.edge_count()),
        ));
    }
    Ok(g)
}

/// Writes a graph in METIS format to a writer. Weights are emitted unless
/// every edge weight is exactly 1.
pub fn write_metis_to(g: &Graph, writer: impl Write) -> Result<(), IoError> {
    let mut w = BufWriter::new(writer);
    // a unit graph stores no weights: every one is 1
    let weighted = !g.csr_view().weights.is_empty();
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
    use crate::{load_graph_auto, load_graph_bytes, GraphFormat};
    use parcom_generators::ring_of_cliques;
    use parcom_obs::Recorder;

    /// METIS text through the one decoder, under `budget`.
    fn read_budgeted(bytes: &[u8], budget: &Budget) -> Result<Graph, IoError> {
        load_graph_bytes(bytes, GraphFormat::Metis, &Recorder::disabled(), budget).map(|l| l.graph)
    }

    fn read(bytes: &[u8]) -> Result<Graph, IoError> {
        read_budgeted(bytes, &Budget::unlimited())
    }

    #[test]
    fn parses_simple_file() {
        let input = "% a triangle plus pendant\n4 4\n2 3\n1 3\n1 2 4\n3\n";
        let g = read(input.as_bytes()).unwrap();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert!(g.has_edge(0, 1) && g.has_edge(2, 3));
    }

    #[test]
    fn parses_weighted_file() {
        let input = "3 2 1\n2 5.5\n1 5.5 3 2\n2 2\n";
        let g = read(input.as_bytes()).unwrap();
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
        let g2 = read(&buf).unwrap();
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
        let g2 = read(&buf).unwrap();
        assert_eq!(g2.edge_weight(0, 1), Some(2.5));
        assert_eq!(g2.edge_weight(1, 2), Some(0.5));
    }

    #[test]
    fn rejects_bad_header() {
        assert!(read("5\n".as_bytes()).is_err());
        assert!(read("".as_bytes()).is_err());
    }

    #[test]
    fn rejects_out_of_range_neighbor() {
        let err = read("2 1\n3\n1\n".as_bytes()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("out of range"), "{msg}");
    }

    #[test]
    fn rejects_edge_count_mismatch() {
        // 2 claimed edges are plausible on 3 nodes, so the header is
        // admitted and the whole-file consistency check catches it
        let err = read("3 2\n2\n1\n\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("header claims"), "{err}");
        assert!(err.to_string().contains("file defines"), "{err}");
        // the whole-file check carries the last line's number (satellite
        // fix: no more naked `line 0` / missing-location errors)
        assert_eq!(err.line(), Some(4), "{err}");
    }

    #[test]
    fn missing_adjacency_lines_carry_last_line() {
        let err = read("4 2\n2\n1\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("expected 4 adjacency"), "{err}");
        assert_eq!(err.line(), Some(3), "{err}");
        let err = read_metis_seq("4 2\n2\n1\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("expected 4 adjacency"), "{err}");
        assert_eq!(err.line(), Some(3), "{err}");
    }

    #[test]
    fn rejects_more_edges_than_complete_graph() {
        // 3 nodes admit at most 6 edges (self-loops included)
        let err = read("3 7\n2\n1\n\n".as_bytes()).unwrap_err();
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
        let err = read_budgeted(bytes, &budget).unwrap_err();
        assert!(err.to_string().contains("ingest limit"), "{err}");
        assert_eq!(err.line(), Some(1), "{err}");
        assert!(matches!(err.kind(), crate::IoErrorKind::Limit(_)), "{err}");
        // a node count past the u32 id space is the same kind of rejection
        let err = read(b"4294967296 0\n").unwrap_err();
        assert!(matches!(err.kind(), crate::IoErrorKind::Limit(_)), "{err}");
        // within limits, the same reader accepts a well-formed file
        let g = read_budgeted(b"2 1\n2\n1\n", &budget).unwrap();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn rejects_node_weight_formats() {
        assert!(read("2 1 11\n2\n1\n".as_bytes()).is_err());
    }

    #[test]
    fn empty_lines_are_isolated_nodes() {
        let g = read("3 1\n2\n1\n\n".as_bytes()).unwrap();
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

    /// One file per way two lines can disagree about an edge, with the
    /// error every reader must give: the line of the smaller endpoint and
    /// both directions' weights.
    const ASYMMETRIC: [(&str, usize, &str); 5] = [
        // a dropped mirror token: 3 does not list 1
        (
            "3 2\n2 3\n1\n\n",
            2,
            "asymmetric edge {1, 3}: 1 → 3 has weight 1, 3 → 1 is missing",
        ),
        // only the larger endpoint lists the edge; the smaller one's line
        (
            "3 1\n\n\n2\n",
            3,
            "asymmetric edge {2, 3}: 2 → 3 is missing, 3 → 2 has weight 1",
        ),
        // a mirror with other weight bits
        (
            "% w\n2 1 1\n2 1.5\n1 2.5\n",
            3,
            "asymmetric edge {1, 2}: 1 → 2 has weight 1.5, 2 → 1 has weight 2.5",
        ),
        // a duplicate on one side only: the repeats merge to weight 2
        (
            "2 1\n2 2\n1\n",
            2,
            "asymmetric edge {1, 2}: 1 → 2 has weight 2, 2 → 1 has weight 1",
        ),
        // row 1 lists 2, row 2 is empty
        (
            "2 1\n2\n\n",
            2,
            "asymmetric edge {1, 2}: 1 → 2 has weight 1, 2 → 1 is missing",
        ),
    ];

    #[test]
    fn asymmetric_files_are_parse_errors_at_the_smaller_endpoint() {
        for (input, line, message) in ASYMMETRIC {
            let seq = read_metis_seq(input.as_bytes()).unwrap_err();
            let chunked = (1..=4).map(|parts| read_metis_chunked(input.as_bytes(), parts));
            for err in std::iter::once(read(input.as_bytes())).chain(chunked) {
                let err = err.unwrap_err();
                assert!(matches!(err.kind(), crate::IoErrorKind::Parse(_)), "{err}");
                assert_eq!(err.line(), Some(line), "{input:?}: {err}");
                assert_eq!(err.to_string(), format!("line {line}: {message}"));
                assert_eq!(err.to_string(), seq.to_string());
            }
        }
    }

    #[test]
    fn repeats_listed_alike_by_both_lines_merge() {
        // {1, 2} twice on both lines and a self-loop twice: the repeats sum,
        // in any order the lines list them
        let input = "2 2 1\n2 0.5 1 1 2 0.25 1 1\n1 0.25 1 0.5\n";
        let g = read(input.as_bytes()).unwrap();
        assert_eq!(g.edge_weight(0, 1), Some(0.75));
        assert_eq!(g.self_loop_weight(0), 2.0);
        let seq = read_metis_seq(input.as_bytes()).unwrap();
        assert_eq!(seq.csr_view().weights, g.csr_view().weights);
    }

    #[test]
    fn an_unweighted_file_is_unit_unless_a_neighbor_repeats() {
        let unit = read(b"3 2\n2\n1 3\n2\n").unwrap();
        assert!(unit.csr_view().weights.is_empty());
        // {1, 2} twice on both lines and a self-loop twice, out of order:
        // the repeats sum to 2.0, as the builder merges parallel edges
        let input = "3 3\n2 3 2 1 1\n1 1\n1\n";
        let mut b = GraphBuilder::new(3);
        for (u, v) in [(0, 1), (0, 1), (0, 2), (0, 0), (0, 0)] {
            b.add_unweighted_edge(u, v);
        }
        let want = b.build();
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
        assert_eq!(want.csr_view().weights, &[2.0, 2.0, 1.0, 2.0, 1.0]);
        let seq = read_metis_seq(input.as_bytes()).unwrap();
        let chunked = (1..=4).map(|parts| read_metis_chunked(input.as_bytes(), parts).unwrap());
        for g in [read(input.as_bytes()).unwrap(), seq]
            .into_iter()
            .chain(chunked)
        {
            assert_eq!(bits(&g), bits(&want));
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("parcom_metis_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.metis");
        let (g, _) = ring_of_cliques(3, 4);
        write_metis(&g, &path).unwrap();
        let g2 = load_graph_auto(&path, &Recorder::disabled(), &Budget::unlimited())
            .unwrap()
            .graph;
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
        let g2 = load_graph_auto(&path, &rec, &Budget::unlimited())
            .unwrap()
            .graph;
        assert_eq!(g.edge_count(), g2.edge_count());
        let report = rec.finish("ingest");
        let parse = report.phase("ingest/parse").expect("parse phase");
        assert!(parse.counter("bytes").unwrap() > 0);
        // both directions of every edge, read straight into the rows
        assert_eq!(parse.counter("entries"), Some(2 * g.edge_count() as u64));
        assert_eq!(parse.counter("pending_edges"), None);
        let build = report.phase("ingest/build").expect("build phase");
        assert_eq!(build.counter("edges"), Some(g.edge_count() as u64));
        std::fs::remove_dir_all(&dir).ok();
    }
}
