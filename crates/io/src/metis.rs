//! METIS/Chaco graph format (the DIMACS collection's format).
//!
//! Header: `n m [fmt]` where `fmt` is `1` when edge weights are present.
//! Line `i` (1-based) lists the neighbors of node `i`; with weights,
//! neighbors alternate with their edge weight. Comment lines start with `%`.
//!
//! A METIS body is a CSR written as text, so it is read straight into the
//! graph's arrays (DESIGN.md §10): the text is split on line boundaries
//! into per-core pieces, and one pass tokenizes every byte once, appending
//! each piece's rows to the piece's own arrays (an 8-byte SWAR step for
//! each token's digits, the byte loop for the rest). A file is never held
//! whole: each thread reads its piece in blocks and tokenizes them as they
//! arrive ([`parse_file`]); a buffer is split the same way ([`parse`]).
//! The pieces are then placed in line order — a prefix sum over their row
//! ends gives every row its offset — and copied into one CSR.
//! [`Graph::from_adjacency_rows`] sorts and merges the rows only if the
//! pass saw one out of order, and checks that every edge is listed alike
//! by both endpoints: an asymmetric file is a parse error at the line of
//! the edge's smaller endpoint, found again from the line counts and
//! comment lines the pass recorded. Small inputs (or a single-thread pool)
//! are one piece, which runs the same pass inline. Graphs are read through
//! [`crate::load_graph_auto`] and [`crate::load_graph_bytes`];
//! [`read_metis_chunked`] fixes the piece count for the differential
//! tests, and the pre-parallel line-by-line reader is retained as
//! [`read_metis_seq`], their reference.

use crate::chunk;
use crate::{at_path, limit_error, parse_error, IoError};
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

/// The header of the lines in `bytes`, with where the body starts; `None`
/// when they hold no header line.
fn parse_header(bytes: &[u8]) -> Result<Option<Header>, IoError> {
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
        return Ok(Some(Header {
            n,
            m,
            weighted,
            body_start: next,
            body_first_line: lineno + 1,
        }));
    }
    Ok(None)
}

fn missing_header() -> IoError {
    parse_error(0, "missing header line")
}

/// What the tokenizing pass read from one piece of the body. A piece does
/// not know its first node id or its first line's number (nothing is
/// counted before the pass), so rows and lines are counted from the
/// piece's start; [`place`] places the pieces one after another.
struct Piece {
    /// Every row's neighbors (0-based), the rows one after another.
    targets: Vec<Node>,
    /// The entries' weights; empty for an unweighted file.
    weights: Vec<f64>,
    /// Per adjacency line (row), where its entries end in `targets`.
    ends: Vec<usize>,
    /// The piece's comment lines, counted from its first line, ascending.
    comments: Vec<usize>,
    /// The number of lines in the piece.
    lines: usize,
    /// Rows not listed in strictly increasing neighbor order.
    unsorted_rows: usize,
    /// The first malformed line's error, at its piece-relative line: the
    /// pass stops there, after `ends.len()` whole rows.
    error: Option<IoError>,
    /// Set by [`place`]: the node id of the piece's first row and the
    /// lines before the piece, which the cold error path finds a row's
    /// line from, with the text already gone.
    first_node: usize,
    lines_before: usize,
}

impl Piece {
    /// An empty piece for about `bytes` bytes of text.
    fn new(bytes: usize, weighted: bool) -> Self {
        parcom_guard::faultpoint!("io/chunk-parse");
        // a neighbor and its separator take two bytes or more
        let entries = bytes / if weighted { 16 } else { 8 };
        Piece {
            targets: Vec::with_capacity(entries),
            weights: Vec::with_capacity(if weighted { entries } else { 0 }),
            ends: Vec::new(),
            comments: Vec::new(),
            lines: 0,
            unsorted_rows: 0,
            error: None,
            first_node: 0,
            lines_before: 0,
        }
    }

    /// The one pass over the piece's text, which may come in several
    /// slices that each end on a line boundary: every byte is tokenized
    /// once, and every row's entries are appended, in file order, to the
    /// piece's own arrays, with the row ends, the line count, the comment
    /// lines and the rows that are not strictly increasing. A malformed
    /// line stops the piece with that line's error: false from then on.
    fn read(&mut self, lines: &[u8], n: usize, weighted: bool) -> bool {
        if let Err(e) = tokenize_rows(lines, n, weighted, self) {
            self.error = Some(e);
        }
        self.error.is_none()
    }

    /// The piece-relative line of row `r`: every comment line before it
    /// pushes it one line down.
    fn line_of(&self, r: usize) -> usize {
        let mut line = r + 1;
        for &c in &self.comments {
            if c > line {
                break;
            }
            line += 1;
        }
        line
    }

    fn row_len(&self, r: usize) -> usize {
        self.ends[r] - r.checked_sub(1).map_or(0, |before| self.ends[before])
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

/// [`Piece::read`]'s loop: a single fused byte cursor — line splitting,
/// whitespace skipping, comment classification and decimal accumulation
/// in one pass, no line or token slices on the happy path. Each token
/// first takes one 8-byte SWAR step ([`chunk::leading_digits`]), which
/// reads the common token whole: 1 to 7 digits and a separator. Anything
/// else (a sign, 8 or more digits, a non-digit, a token in the last 7
/// bytes of the piece) takes the byte step from the token's start: up to
/// 18 digits cannot overflow the `u64` accumulator, so it runs unchecked,
/// and what it cannot accept drops to [`neighbor_token_slow`], so every
/// error keeps its message. `\n` and `\r` are ASCII whitespace, so the
/// token boundary checks double as line-end checks. Every entry is
/// range-checked and its weight validated before it is written.
// audit:allow(budget-propagation): linear scan bounded by the piece; the driver checks the budget between pipeline phases
fn tokenize_rows(b: &[u8], n: usize, weighted: bool, p: &mut Piece) -> Result<(), IoError> {
    let len = b.len();
    let mut i = 0usize;
    while i < len {
        // one outer iteration consumes exactly one line, `\n` included
        p.lines += 1;
        let current_line = p.lines;
        while i < len && b[i] != b'\n' && b[i].is_ascii_whitespace() {
            i += 1;
        }
        if i < len && b[i] == b'%' {
            p.comments.push(current_line);
            while i < len && b[i] != b'\n' {
                i += 1;
            }
            i += 1;
            continue;
        }
        if i >= len || b[i] == b'\n' {
            // blank line: an isolated node, or a tolerated trailing line
            p.ends.push(p.targets.len());
            i += 1;
            continue;
        }
        // ids are 1-based, so a row's first entry is always above `last`
        let (mut last, mut sorted) = (0usize, true);
        loop {
            // cursor is at the first byte of a neighbor token
            let tok_start = i;
            let (swar, count) = chunk::leading_digits(b, i);
            let v = if count > 0 && count < 8 && b[i + count].is_ascii_whitespace() {
                // the common token: up to 7 digits, then a separator
                i += count;
                swar as usize
            } else {
                if b[i] == b'+' {
                    i += 1;
                }
                let (mut acc, mut digits) = (0u64, 0usize);
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
                if digits > 0 && digits <= 18 && at_boundary {
                    acc as usize
                } else {
                    let (v, end) = neighbor_token_slow(b, tok_start, current_line)?;
                    i = end;
                    v
                }
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
                p.weights.push(w);
            }
            sorted &= v > last;
            last = v;
            p.targets.push((v - 1) as Node);
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
        p.unsorted_rows += usize::from(!sorted);
        p.ends.push(p.targets.len());
    }
    Ok(())
}

/// A METIS body tokenized into per-piece rows, placed in line order but
/// not yet copied into one CSR, sorted, merged or checked for symmetry.
pub(crate) struct Rows {
    n: usize,
    weighted: bool,
    pieces: Vec<Piece>,
    /// The file's line count, where whole-file errors point.
    last_line: usize,
    /// The header's edge count, which [`finish`] checks the graph against.
    claimed_edges: usize,
}

impl Rows {
    /// The adjacency entries read: every line's neighbors, both
    /// directions of an edge, repeats included.
    pub(crate) fn entries(&self) -> usize {
        self.pieces.iter().map(|p| p.targets.len()).sum()
    }

    /// The rows not listed in strictly increasing order, which the build
    /// has to sort (and merge, where they repeat a neighbor).
    pub(crate) fn unsorted_rows(&self) -> usize {
        self.pieces.iter().map(|p| p.unsorted_rows).sum()
    }

    /// The 1-based line of node `u`'s row.
    fn line_of(&self, u: usize) -> usize {
        // the last piece starting at or before `u` holds its row
        let p = &self.pieces[self.pieces.partition_point(|p| p.first_node <= u) - 1];
        p.lines_before + p.line_of(u - p.first_node)
    }
}

/// Parses header and body into per-piece rows using up to `parts` pieces,
/// in one tokenizing pass, then places them (see [`place`]).
pub(crate) fn parse(bytes: &[u8], parts: usize, budget: &Budget) -> Result<Rows, IoError> {
    let header = parse_header(bytes)?.ok_or_else(missing_header)?;
    admit_header(header.n, header.m, header.body_first_line - 1, budget)?;
    let (n, weighted) = (header.n, header.weighted);
    let pieces = chunk::split_lines(&bytes[header.body_start..], parts)
        .into_par_iter()
        .map(|text| {
            let mut piece = Piece::new(text.len(), weighted);
            piece.read(text, n, weighted);
            piece
        })
        .collect();
    place(&header, pieces)
}

/// [`parse`] over the `len` bytes of `file`, which is never held whole:
/// the header is read from the front, then each of `parts` threads reads
/// its share of the body in blocks and tokenizes each block's whole lines
/// as it arrives (see [`read_piece`]). A file that shrinks or grows while
/// it is read is an error, not a partial graph.
#[cfg(unix)]
pub(crate) fn parse_file(
    file: &std::fs::File,
    len: usize,
    parts: usize,
    budget: &Budget,
) -> Result<Rows, IoError> {
    use std::os::unix::fs::FileExt;
    let header = read_header(file, len)?;
    admit_header(header.n, header.m, header.body_first_line - 1, budget)?;
    let (n, weighted) = (header.n, header.weighted);
    let body = header.body_start..len;
    let bound = |k: usize| body.start + (body.len() as u128 * k as u128 / parts as u128) as usize;
    let pieces: Vec<std::io::Result<Piece>> = (0..parts)
        .into_par_iter()
        .map(|k| {
            let ends = (k > 0).then(|| bound(k))..(k + 1 < parts).then(|| bound(k + 1));
            read_piece(file, body.start, ends, len, n, weighted)
        })
        .collect();
    let pieces = pieces.into_iter().collect::<std::io::Result<Vec<_>>>()?;
    if file.read_at(&mut [0u8], len as u64)? > 0 {
        return Err(std::io::Error::other("the file grew while it was read").into());
    }
    place(&header, pieces)
}

/// Bytes a piece reads at a time: a few hundred KiB stay in the cache
/// between the read and the tokenizer.
#[cfg(unix)]
const READ_BLOCK: usize = 1 << 18;

/// The header at the front of `file`: read in growing prefixes of whole
/// lines until one holds a header line.
#[cfg(unix)]
fn read_header(file: &std::fs::File, len: usize) -> Result<Header, IoError> {
    use std::os::unix::fs::FileExt;
    let mut size = READ_BLOCK;
    loop {
        let mut prefix = vec![0u8; size.min(len)];
        file.read_exact_at(&mut prefix, 0)?;
        if prefix.len() == len {
            return parse_header(&prefix)?.ok_or_else(missing_header);
        }
        let whole = prefix
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i + 1);
        if let Some(header) = parse_header(&prefix[..whole])? {
            return Ok(header);
        }
        size *= 2;
    }
}

/// One piece of the body of `file`, read in blocks of [`READ_BLOCK`]
/// bytes into one buffer and tokenized as they arrive; a line cut by a
/// block's end waits at the buffer's front for the next read, and one
/// longer than the buffer doubles it.
///
/// The piece is the lines starting in the part of the body that `ends`
/// bounds, a line belonging to the part that holds its first byte: it
/// starts after the first newline at or past `ends.start - 1` (the body's
/// start, `body_start`, when `None`), and ends after the first newline at
/// or past `ends.end - 1` (the end of the file, `len`, when `None`). The
/// pieces of consecutive parts thus tile the body whatever the lines'
/// lengths, and a part inside one long line reads as an empty piece.
#[cfg(unix)]
fn read_piece(
    file: &std::fs::File,
    body_start: usize,
    ends: std::ops::Range<Option<usize>>,
    len: usize,
    n: usize,
    weighted: bool,
) -> std::io::Result<Piece> {
    use std::os::unix::fs::FileExt;
    let from = ends.start.map_or(body_start, |b| b - 1);
    let mut p = Piece::new(ends.end.unwrap_or(len).saturating_sub(from), weighted);
    if from >= len {
        return Ok(p);
    }
    let mut buf = vec![0u8; READ_BLOCK.min(len - from)];
    // `buf[..filled]` holds the file's bytes from `pos` on; `start` is
    // where the piece begins, once the newline before it is found
    let (mut pos, mut filled) = (from, 0usize);
    let mut start = ends.start.is_none().then_some(body_start);
    loop {
        if filled == buf.len() {
            buf.resize(2 * buf.len(), 0);
        }
        let want = (buf.len() - filled).min(len - pos - filled);
        if want > 0 {
            let got = file.read_at(&mut buf[filled..filled + want], (pos + filled) as u64)?;
            if got == 0 {
                return Err(std::io::Error::other("the file shrank while it was read"));
            }
            filled += got;
        }
        let eof = pos + filled == len;
        let data = &buf[..filled];
        let begin = match start {
            Some(s) => s,
            None => match data.iter().position(|&b| b == b'\n') {
                Some(i) => *start.insert(pos + i + 1),
                None if eof => return Ok(p),
                None => {
                    (pos, filled) = (pos + filled, 0);
                    continue;
                }
            },
        };
        // The newline that ends the piece: the first at or past `end - 1`.
        let last = match ends.end {
            Some(end) if begin >= end => return Ok(p), // the part lies in one line
            Some(end) if end - 1 < pos + filled => {
                let at = end - 1 - pos;
                data[at..].iter().position(|&b| b == b'\n').map(|i| at + i)
            }
            _ => None,
        };
        let (upto, done) = match last {
            Some(i) => (i + 1, true),
            None if eof => (filled, true),
            None => {
                let whole = data.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
                (whole.max(begin - pos), false)
            }
        };
        if !p.read(&data[begin - pos..upto], n, weighted) || done {
            return Ok(p);
        }
        // keep the cut line; the piece goes on from the buffer's front
        buf.copy_within(upto..filled, 0);
        (pos, filled) = (pos + upto, filled - upto);
        start = Some(pos);
    }
}

/// Places the tokenized pieces in line order: each starts at the node
/// after the rows, and the line after the lines, of those before it. The
/// earliest error in line order wins, as in the sequential reader; a row
/// past the n-th that lists anything is "more adjacency lines than
/// nodes", whatever else is wrong with it.
fn place(header: &Header, mut pieces: Vec<Piece>) -> Result<Rows, IoError> {
    let n = header.n;
    let (mut node, mut before) = (0usize, header.body_first_line - 1);
    for p in &mut pieces {
        let surplus = (n.saturating_sub(node)..p.ends.len()).find(|&r| p.row_len(r) > 0);
        if let Some(r) = surplus {
            let line = before + p.line_of(r);
            return Err(parse_error(line, "more adjacency lines than nodes"));
        }
        if let Some(e) = p.error.take() {
            let e = e.after_lines(before);
            return Err(match node + p.ends.len() >= n {
                true => parse_error(e.line().unwrap_or(0), "more adjacency lines than nodes"),
                false => e,
            });
        }
        (p.first_node, p.lines_before) = (node, before);
        node += p.ends.len();
        before += p.lines;
    }
    let consumed = node.min(n);
    if consumed != n {
        return Err(parse_error(
            before,
            format!("expected {n} adjacency lines, got {consumed}"),
        ));
    }
    Ok(Rows {
        n,
        weighted: header.weighted,
        pieces,
        last_line: before,
        claimed_edges: header.m,
    })
}

/// The pieces' arrays as one: the first piece's array grows to hold the
/// rest (a move of its pages, not a copy), and each of the others is
/// freed once it is copied.
fn concat<T: Copy>(mut parts: impl Iterator<Item = Vec<T>>, total: usize) -> Vec<T> {
    let mut out = parts.next().unwrap_or_default();
    out.reserve_exact(total - out.len());
    for part in parts {
        out.extend_from_slice(&part);
    }
    out
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

/// Assembles the graph — the pieces copied into one CSR after a prefix
/// sum over their row ends; rows sorted and merged only if the pass saw
/// one out of order; symmetry checked — and applies the whole-file
/// consistency check. Error lines come from what the pass recorded.
pub(crate) fn finish(mut rows: Rows) -> Result<Graph, IoError> {
    let n = rows.n;
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0);
    let mut base = 0;
    for p in &rows.pieces {
        // rows past the n-th are blank (parse checked), so they hold nothing
        let take = p.ends.len().min(n + 1 - offsets.len());
        offsets.extend(p.ends[..take].iter().map(|&end| base + end));
        base += p.targets.len();
    }
    let sorted = rows.unsorted_rows() == 0;
    let pieces = &mut rows.pieces;
    let targets = concat(
        pieces.iter_mut().map(|p| std::mem::take(&mut p.targets)),
        base,
    );
    let total = if rows.weighted { base } else { 0 };
    let weights = concat(
        pieces.iter_mut().map(|p| std::mem::take(&mut p.weights)),
        total,
    );
    let g = Graph::from_adjacency_rows(offsets, targets, weights, sorted)
        .map_err(|a| asymmetry_error(rows.line_of(a.u as usize), &a))?;
    if g.edge_count() != rows.claimed_edges {
        return Err(parse_error(
            rows.last_line,
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
    finish(parse(bytes, parts, &Budget::unlimited())?)
}

/// The retained pre-parallel reader: line-by-line with a `String` per
/// line, sequential counting-sort assembly. The differential proptests
/// pin the chunked parser against this. Separators are ASCII whitespace,
/// as in the chunked parser: a vertical tab (`\x0b`) or any other
/// Unicode space is part of a token.
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
                let t = line.trim_ascii();
                if t.is_empty() || t.starts_with('%') {
                    continue;
                }
                break (i + 1, t.to_string());
            }
            None => return Err(parse_error(0, "missing header line")),
        }
    };
    let fields: Vec<&str> = header.split_ascii_whitespace().collect();
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
        let t = line.trim_ascii();
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
        let mut tokens = t.split_ascii_whitespace();
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
        // the file read is its own span, first, and counts no bytes (the
        // daemon sums `bytes` over the phases)
        let names: Vec<&str> = report.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["ingest/read", "ingest/parse", "ingest/build"]);
        assert!(report.phase("ingest/read").unwrap().counters.is_empty());
        let parse = report.phase("ingest/parse").expect("parse phase");
        assert!(parse.counter("bytes").unwrap() > 0);
        // both directions of every edge, read straight into the rows
        assert_eq!(parse.counter("entries"), Some(2 * g.edge_count() as u64));
        assert_eq!(parse.counter("pending_edges"), None);
        let build = report.phase("ingest/build").expect("build phase");
        assert_eq!(build.counter("edges"), Some(g.edge_count() as u64));
        assert_eq!(build.counter("unsorted_rows"), Some(0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[cfg(unix)]
    #[test]
    fn a_pipe_is_read_whole() {
        // a named pipe takes no positioned reads; skip where no mkfifo runs
        let dir = std::env::temp_dir().join(format!("parcom_metis_pipe_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("p.metis");
        let made = std::process::Command::new("mkfifo").arg(&path).status();
        if made.is_ok_and(|s| s.success()) {
            let writer = {
                let path = path.clone();
                std::thread::spawn(move || std::fs::write(path, "3 2\n2\n1 3\n2\n").unwrap())
            };
            let g = load_graph_auto(&path, &Recorder::disabled(), &Budget::unlimited());
            writer.join().unwrap();
            assert_eq!(g.unwrap().graph.edge_count(), 2);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn positioned_reads_load_what_one_read_does() {
        let dir = std::env::temp_dir().join("parcom_metis_pread_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.metis");
        let (g, _) = ring_of_cliques(300, 12);
        write_metis(&g, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert!(
            bytes.len() >= crate::chunk::MIN_PARALLEL_BYTES,
            "{}",
            bytes.len()
        );
        let want = read(&bytes).unwrap();
        for threads in [1, 2, 3] {
            let got = parcom_graph::parallel::with_threads(threads, || {
                load_graph_auto(&path, &Recorder::disabled(), &Budget::unlimited())
            })
            .unwrap()
            .graph;
            assert_eq!(got.csr_view().offsets, want.csr_view().offsets);
            assert_eq!(got.csr_view().targets, want.csr_view().targets);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
