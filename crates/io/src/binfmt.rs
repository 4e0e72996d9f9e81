//! `parcom-graph-bin/v1` — the versioned binary graph format (`.pcg`).
//!
//! Text ingest (METIS, edge lists) pays a parse on every open; the binary
//! format is the resident daemon's restart path and the bench harness's
//! reopen path, so it stores the CSR arrays [`parcom_graph::Graph`] holds
//! in memory, and loading is a single contiguous read followed by
//! word-wise conversion into section-sliced buffers. No tokenizing and no
//! CSR assembly. The derived values — weighted degrees, self-loop weights,
//! ω(E) and m — are recomputed from the arrays by
//! [`Graph::try_from_csr`], the graph's own constructor, in one O(m) pass:
//! a file can carry them, but it is never trusted for them.
//!
//! ## Layout
//!
//! ```text
//! [ 0.. 8]  magic  89 50 43 47 0d 0a 1a 0a   ("\x89PCG\r\n\x1a\n")
//! [ 8..12]  version            u32 le        (this module reads 1)
//! [12..16]  section count      u32 le
//! [16..24]  flags              u64 le        (bit 0: graph is relabeled)
//! [24..32]  n  (nodes)         u64 le
//! [32..40]  m  (edges)         u64 le        (must match the adjacency)
//! [40..48]  adjacency length   u64 le        (Σ row lengths)
//! [48..56]  total edge weight  f64 le bits   (informational; never read)
//! [56..64]  body checksum      u64 le        (fold of per-section sums)
//! [64..64+24c]  section table: {id u32, reserved u32, offset u64, len u64}
//! [..+8]    header checksum    u64 le        (over all bytes before it)
//! then each section's payload, 8-byte aligned, zero-padded between
//! ```
//!
//! Sections (little-endian payloads): `1` row offsets `u64×(n+1)`, `2`
//! targets `u32×adj`, `3` edge weights `f64×adj` (omitted when every
//! weight is 1), `6` relabeling permutation `u32×n` (`new_of_old`; present iff
//! flag bit 0 is set — see [`parcom_graph::relabel`]), `7` WAL sequence
//! `u64` (daemon checkpoints only: the last write-ahead-log record folded
//! into this snapshot, so recovery knows where replay resumes; absent in
//! files written by `parcom convert`). Ids `4` and `5` are retired: older
//! writers stored the weighted degrees and self-loop weights there
//! (`f64×n` each). Unknown section ids — 4 and 5 among them — are carried
//! in the table and checksummed but otherwise ignored, so every v1 file
//! ever written still loads, and readers of this version skip sections a
//! future writer might add.
//!
//! The magic follows the PNG convention: a high bit to catch 7-bit
//! transmission damage, `\r\n` to catch newline translation, `\x1a` to
//! stop accidental terminal dumps. Header claims are admitted against the
//! ingest [`Budget`] *before* any proportional allocation, mirroring the
//! METIS header admission; both checksums are verified before the graph is
//! handed to callers. The checksums catch damage, not lies — the algorithm
//! is public — so a header whose m disagrees with the adjacency it
//! describes is rejected as a typed error.

use crate::{at_path, limit_error, GraphFormat, IoError, LoadedGraph};
use parcom_graph::relabel::Relabeling;
use parcom_graph::{Graph, Node};
use parcom_guard::Budget;
use std::io::Write;
use std::path::Path;

/// First eight bytes of every `.pcg` file.
pub const MAGIC: [u8; 8] = *b"\x89PCG\r\n\x1a\n";
/// Format version this module writes and reads.
pub const VERSION: u32 = 1;
/// Schema identifier, for reports and docs.
pub const SCHEMA: &str = "parcom-graph-bin/v1";

/// Flag bit 0: the stored graph is a relabeled view; section 6 holds the
/// permutation mapping original ids to stored ids.
const FLAG_RELABELED: u64 = 1;

const SEC_OFFSETS: u32 = 1;
const SEC_TARGETS: u32 = 2;
const SEC_WEIGHTS: u32 = 3;
const SEC_PERM: u32 = 6;
const SEC_WALSEQ: u32 = 7;

/// Size of the fixed header head, before the section table.
const HEAD_LEN: usize = 64;
/// Size of one section-table entry.
const ENTRY_LEN: usize = 24;
/// More sections than any v1 file can have — a corrupt count, whatever
/// the limits.
const MAX_SECTIONS: u32 = 64;

/// True if `bytes` starts with the `.pcg` magic — the sniff
/// [`crate::load_graph_bytes`] dispatches on.
pub fn is_pcg_magic(bytes: &[u8]) -> bool {
    bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] == MAGIC
}

// ---------------------------------------------------------------------------
// Checksum: 4 independent multiply-xor lanes over 64-bit words. Lane
// independence keeps the multiply chains off the critical path (a single
// FNV-style chain caps out well below memory bandwidth); this is a
// corruption check, not a cryptographic hash.

const LANE_KEYS: [u64; 4] = [
    0x9e37_79b9_7f4a_7c15,
    0xc2b2_ae3d_27d4_eb4f,
    0x1656_67b1_9e37_79f9,
    0x27d4_eb2f_1656_67c5,
];

/// The format's corruption checksum, exported for the daemon's write-ahead
/// log so `.pcg` checkpoints and WAL records are verified by one reviewed
/// routine (DESIGN.md §16).
pub fn checksum64(bytes: &[u8]) -> u64 {
    checksum(bytes)
}

fn checksum(bytes: &[u8]) -> u64 {
    let mut sum = Checksum::new();
    sum.update(bytes);
    sum.finish()
}

/// [`checksum`] of bytes that arrive a piece at a time; every piece but
/// the last must be a multiple of 8 bytes long.
struct Checksum {
    lanes: [u64; 4],
    len: usize,
}

impl Checksum {
    fn new() -> Self {
        Self {
            lanes: LANE_KEYS,
            len: 0,
        }
    }

    fn update(&mut self, bytes: &[u8]) {
        debug_assert_eq!(self.len % 8, 0, "only the last piece may be ragged");
        let mut lanes = self.lanes;
        let first = self.len / 8;
        let chunks = bytes.chunks_exact(8);
        let rem = chunks.remainder();
        for (i, c) in chunks.enumerate() {
            let w = u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
            let l = (first + i) & 3;
            lanes[l] = (lanes[l] ^ w).wrapping_mul(LANE_KEYS[l] | 1);
        }
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            lanes[0] = (lanes[0] ^ u64::from_le_bytes(tail)).wrapping_mul(LANE_KEYS[0] | 1);
        }
        self.lanes = lanes;
        self.len += bytes.len();
    }

    fn finish(self) -> u64 {
        let mut acc = self.len as u64;
        for (j, l) in self.lanes.iter().enumerate() {
            acc = acc.rotate_left(13) ^ l.wrapping_mul(LANE_KEYS[j] | 1);
        }
        acc
    }
}

/// Folds one section's checksum into the running body checksum; order
/// sensitive, so section payloads can't be swapped undetected.
fn fold_body(acc: u64, section_sum: u64) -> u64 {
    acc.rotate_left(17) ^ section_sum.wrapping_mul(LANE_KEYS[0] | 1)
}

// ---------------------------------------------------------------------------
// Little-endian slice conversions.

/// Bytes a section is converted and handed on in at a time: a multiple of
/// 8, as [`Checksum::update`] asks of every piece but the last.
const PIECE_LEN: usize = 1 << 16;

/// One section's payload, still in the array it is written from.
enum Payload<'a> {
    U64s(&'a [usize]),
    U32s(&'a [u32]),
    F64s(&'a [f64]),
    Word(u64),
}

impl Payload<'_> {
    /// Length of the little-endian image in bytes.
    fn len(&self) -> usize {
        match self {
            Self::U64s(xs) => xs.len() * 8,
            Self::U32s(xs) => xs.len() * 4,
            Self::F64s(xs) => xs.len() * 8,
            Self::Word(_) => 8,
        }
    }

    /// Hands the little-endian image to `sink` in pieces of [`PIECE_LEN`]
    /// bytes (the last one shorter), each converted in `piece`.
    fn pieces(
        &self,
        piece: &mut Vec<u8>,
        mut sink: impl FnMut(&[u8]) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        fn run<T: Copy, const W: usize>(
            xs: &[T],
            le: impl Fn(T) -> [u8; W],
            piece: &mut Vec<u8>,
            sink: &mut impl FnMut(&[u8]) -> std::io::Result<()>,
        ) -> std::io::Result<()> {
            for part in xs.chunks(PIECE_LEN / W) {
                piece.clear();
                for &x in part {
                    piece.extend_from_slice(&le(x));
                }
                sink(piece)?;
            }
            Ok(())
        }
        match *self {
            Self::U64s(xs) => run(xs, |x| (x as u64).to_le_bytes(), piece, &mut sink),
            Self::U32s(xs) => run(xs, u32::to_le_bytes, piece, &mut sink),
            Self::F64s(xs) => run(xs, |x| x.to_bits().to_le_bytes(), piece, &mut sink),
            Self::Word(w) => sink(&w.to_le_bytes()),
        }
    }
}

fn from_le_u64s(bytes: &[u8]) -> Vec<usize> {
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]) as usize)
        .collect()
}

fn from_le_u32s(bytes: &[u8]) -> Vec<u32> {
    bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

fn from_le_f64s(bytes: &[u8]) -> Vec<f64> {
    bytes
        .chunks_exact(8)
        .map(|c| {
            f64::from_bits(u64::from_le_bytes([
                c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7],
            ]))
        })
        .collect()
}

fn rd_u32(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes([b[off], b[off + 1], b[off + 2], b[off + 3]])
}

fn rd_u64(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes([
        b[off],
        b[off + 1],
        b[off + 2],
        b[off + 3],
        b[off + 4],
        b[off + 5],
        b[off + 6],
        b[off + 7],
    ])
}

// ---------------------------------------------------------------------------
// Writing.

/// Writes `g` (and its relabeling, if it is a relabeled view) in
/// `parcom-graph-bin/v1` form to a writer. `wal_seq` adds the WAL sequence
/// section — the daemon checkpoint writer records the last log record the
/// snapshot covers, so recovery replays exactly the tail written after it;
/// `None` writes the plain file `parcom convert` does.
pub fn write_pcg_to(
    g: &Graph,
    relabeling: Option<&Relabeling>,
    wal_seq: Option<u64>,
    writer: impl Write,
) -> Result<(), IoError> {
    let n = g.node_count();
    if let Some(r) = relabeling {
        if r.len() != n {
            return Err(IoError::parse(format!(
                "relabeling covers {} nodes, graph has {n}",
                r.len()
            )));
        }
    }
    write_sections(g, &sections(g, relabeling, wal_seq), writer)
}

/// The sections [`write_pcg_to`] writes, in file order.
fn sections<'a>(
    g: &'a Graph,
    relabeling: Option<&'a Relabeling>,
    wal_seq: Option<u64>,
) -> Vec<(u32, Payload<'a>)> {
    let view = g.csr_view();
    let mut sections = Vec::with_capacity(5);
    sections.push((SEC_OFFSETS, Payload::U64s(view.offsets)));
    sections.push((SEC_TARGETS, Payload::U32s(view.targets)));
    // a unit graph stores no weights, and its file carries none
    if !view.weights.is_empty() {
        sections.push((SEC_WEIGHTS, Payload::F64s(view.weights)));
    }
    if let Some(r) = relabeling {
        sections.push((SEC_PERM, Payload::U32s(r.new_of_old())));
    }
    if let Some(seq) = wal_seq {
        sections.push((SEC_WALSEQ, Payload::Word(seq)));
    }
    sections
}

/// Streams the image of `g` with `sections` to `writer`. The image is
/// never assembled in memory: each section is converted `PIECE_LEN` bytes
/// at a time straight from the graph's arrays, once for the checksums the
/// header carries and once for the writer, so a checkpoint costs one piece
/// beside the graph, not two more copies of it.
fn write_sections(
    g: &Graph,
    sections: &[(u32, Payload<'_>)],
    mut writer: impl Write,
) -> Result<(), IoError> {
    let count = sections.len();
    let header_len = HEAD_LEN + ENTRY_LEN * count + 8;
    let mut flags = 0u64;
    if sections.iter().any(|(id, _)| *id == SEC_PERM) {
        flags |= FLAG_RELABELED;
    }

    // Section layout and body checksum.
    let mut piece = Vec::with_capacity(PIECE_LEN);
    let mut table = Vec::with_capacity(count);
    let mut cursor = header_len;
    let mut body_sum = 0u64;
    for (id, payload) in sections {
        table.push((*id, cursor as u64, payload.len() as u64));
        let mut sum = Checksum::new();
        payload.pieces(&mut piece, |bytes| {
            sum.update(bytes);
            Ok(())
        })?;
        body_sum = fold_body(body_sum, sum.finish());
        cursor += payload.len().div_ceil(8) * 8;
    }

    let mut head = Vec::with_capacity(header_len);
    head.extend_from_slice(&MAGIC);
    head.extend_from_slice(&VERSION.to_le_bytes());
    head.extend_from_slice(&(count as u32).to_le_bytes());
    head.extend_from_slice(&flags.to_le_bytes());
    head.extend_from_slice(&(g.node_count() as u64).to_le_bytes());
    head.extend_from_slice(&(g.edge_count() as u64).to_le_bytes());
    head.extend_from_slice(&(g.csr_view().targets.len() as u64).to_le_bytes());
    head.extend_from_slice(&g.total_edge_weight().to_bits().to_le_bytes());
    head.extend_from_slice(&body_sum.to_le_bytes());
    for (id, offset, len) in &table {
        head.extend_from_slice(&id.to_le_bytes());
        head.extend_from_slice(&0u32.to_le_bytes());
        head.extend_from_slice(&offset.to_le_bytes());
        head.extend_from_slice(&len.to_le_bytes());
    }
    let header_sum = checksum(&head);
    head.extend_from_slice(&header_sum.to_le_bytes());
    debug_assert_eq!(head.len(), header_len);
    writer.write_all(&head)?;
    for (_, payload) in sections {
        payload.pieces(&mut piece, |bytes| writer.write_all(bytes))?;
        let padding = payload.len().div_ceil(8) * 8 - payload.len();
        writer.write_all(&[0u8; 8][..padding])?;
    }
    Ok(())
}

/// Writes `g` in binary form to `path` (conventionally `.pcg`).
pub fn write_pcg(
    g: &Graph,
    relabeling: Option<&Relabeling>,
    path: impl AsRef<Path>,
) -> Result<(), IoError> {
    let path = path.as_ref();
    at_path(path, {
        (|| {
            let file = std::fs::File::create(path).map_err(IoError::from)?;
            write_pcg_to(g, relabeling, None, std::io::BufWriter::new(file))
        })()
    })
}

// ---------------------------------------------------------------------------
// Reading.

struct SectionEntry {
    id: u32,
    offset: usize,
    len: usize,
}

/// Decodes a `parcom-graph-bin/v1` image — [`crate::load_graph_bytes`]'s
/// binary branch. Header claims are admitted against `budget` before any
/// allocation proportional to them; both checksums are verified; the
/// arrays go through [`Graph::try_from_csr`], which derives every cache
/// from them, and the header's m must equal the one they define.
pub(crate) fn decode(bytes: &[u8], budget: &Budget) -> Result<LoadedGraph, IoError> {
    if bytes.len() < HEAD_LEN + 8 {
        return Err(IoError::parse(format!(
            "file truncated: {} bytes, shorter than the {}-byte fixed header",
            bytes.len(),
            HEAD_LEN + 8
        )));
    }
    if !is_pcg_magic(bytes) {
        return Err(IoError::parse(
            "not a parcom binary graph (bad magic)".to_string(),
        ));
    }
    let version = rd_u32(bytes, 8);
    if version != VERSION {
        return Err(IoError::parse(format!(
            "unsupported binary graph version {version} (this build reads {SCHEMA})"
        )));
    }
    let count = rd_u32(bytes, 12);
    if count > MAX_SECTIONS {
        return Err(IoError::parse(format!(
            "header claims {count} sections, more than the format allows ({MAX_SECTIONS})"
        )));
    }
    let count = count as usize;
    let header_len = HEAD_LEN + ENTRY_LEN * count + 8;
    if bytes.len() < header_len {
        return Err(IoError::parse(format!(
            "file truncated: header with {count} sections needs {header_len} bytes, file has {}",
            bytes.len()
        )));
    }
    let stored_header_sum = rd_u64(bytes, header_len - 8);
    if checksum(&bytes[..header_len - 8]) != stored_header_sum {
        return Err(IoError::parse(
            "header checksum mismatch (file corrupt)".to_string(),
        ));
    }

    let flags = rd_u64(bytes, 16);
    let n = usize::try_from(rd_u64(bytes, 24))
        .map_err(|_| IoError::parse("node count does not fit this platform"))?;
    let m = usize::try_from(rd_u64(bytes, 32))
        .map_err(|_| IoError::parse("edge count does not fit this platform"))?;
    let adj = usize::try_from(rd_u64(bytes, 40))
        .map_err(|_| IoError::parse("adjacency length does not fit this platform"))?;
    let body_sum_stored = rd_u64(bytes, 56);

    if n > Node::MAX as usize {
        return Err(limit_error(
            0,
            format!("header claims {n} nodes, more than the u32 id space"),
        ));
    }
    if m.checked_mul(2).is_some_and(|entries| adj > entries) {
        return Err(IoError::parse(format!(
            "header claims adjacency length {adj}, inconsistent with {m} edges"
        )));
    }
    // The same pre-allocation admission gate as the METIS header path.
    if budget.admits(n, m).is_err() {
        return Err(limit_error(
            0,
            format!("header claims {n} nodes / {m} edges, exceeding the ingest limit"),
        ));
    }

    // Section table: every payload must lie fully inside the file, past the
    // header, with no arithmetic overflow.
    let mut entries = Vec::with_capacity(count);
    for i in 0..count {
        let base = HEAD_LEN + ENTRY_LEN * i;
        let id = rd_u32(bytes, base);
        let offset = usize::try_from(rd_u64(bytes, base + 8)).map_err(|_| {
            IoError::parse(format!("section {id}: offset does not fit this platform"))
        })?;
        let len = usize::try_from(rd_u64(bytes, base + 16)).map_err(|_| {
            IoError::parse(format!("section {id}: length does not fit this platform"))
        })?;
        let end = offset.checked_add(len).ok_or_else(|| {
            IoError::parse(format!(
                "section {id}: length overflows ({len} bytes at offset {offset})"
            ))
        })?;
        if offset < header_len || end > bytes.len() {
            return Err(IoError::parse(format!(
                "section {id}: {len} bytes at offset {offset} overflows the file ({} bytes)",
                bytes.len()
            )));
        }
        entries.push(SectionEntry { id, offset, len });
    }

    // Body checksum over the payloads, in table order.
    let mut body_sum = 0u64;
    for e in &entries {
        body_sum = fold_body(body_sum, checksum(&bytes[e.offset..e.offset + e.len]));
    }
    if body_sum != body_sum_stored {
        return Err(IoError::parse(
            "data checksum mismatch (file corrupt)".to_string(),
        ));
    }

    let section = |id: u32| entries.iter().find(|e| e.id == id);
    let sized = |id: u32, name: &str, want: usize| -> Result<&[u8], IoError> {
        let e = section(id)
            .ok_or_else(|| IoError::parse(format!("missing required section {name} (id {id})")))?;
        if e.len != want {
            return Err(IoError::parse(format!(
                "section {name} has {} bytes, want {want} for this header",
                e.len
            )));
        }
        Ok(&bytes[e.offset..e.offset + e.len])
    };

    // Section sizes in bytes; a header count that overflows one describes
    // no file.
    let bytes_of = |count: Option<usize>, width: usize| {
        count
            .and_then(|c| c.checked_mul(width))
            .ok_or_else(|| IoError::parse("header counts overflow the section sizes"))
    };
    let offsets = from_le_u64s(sized(
        SEC_OFFSETS,
        "offsets",
        bytes_of(n.checked_add(1), 8)?,
    )?);
    let targets = from_le_u32s(sized(SEC_TARGETS, "targets", bytes_of(Some(adj), 4)?)?);
    let weights = match section(SEC_WEIGHTS) {
        Some(_) => from_le_f64s(sized(SEC_WEIGHTS, "weights", bytes_of(Some(adj), 8)?)?),
        // Unweighted graphs omit the section: every weight is 1, which
        // the graph stores as no weights at all.
        None => Vec::new(),
    };

    let relabeling = if flags & FLAG_RELABELED != 0 {
        let perm = from_le_u32s(sized(SEC_PERM, "relabeling", bytes_of(Some(n), 4)?)?);
        Some(
            Relabeling::from_new_of_old(perm)
                .map_err(|e| IoError::parse(format!("stored relabeling is invalid: {e}")))?,
        )
    } else {
        None
    };

    let wal_seq = match section(SEC_WALSEQ) {
        Some(_) => Some(rd_u64(sized(SEC_WALSEQ, "wal-seq", 8)?, 0)),
        None => None,
    };

    let graph = Graph::try_from_csr(offsets, targets, weights)
        .map_err(|e| IoError::parse(format!("inconsistent graph data: {e}")))?;
    if graph.edge_count() != m {
        return Err(IoError::parse(format!(
            "header claims {m} edges, the adjacency defines {}",
            graph.edge_count()
        )));
    }

    Ok(LoadedGraph {
        graph,
        relabeling,
        format: GraphFormat::PcgBinary,
        wal_seq,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{load_graph_auto, load_graph_bytes};
    use parcom_graph::GraphBuilder;
    use parcom_obs::Recorder;

    /// The file image `write_pcg_to` streams.
    fn image(g: &Graph, relabeling: Option<&Relabeling>, wal_seq: Option<u64>) -> Vec<u8> {
        let mut out = Vec::new();
        write_pcg_to(g, relabeling, wal_seq, &mut out).unwrap();
        out
    }

    /// An image through the one decoder, as recovery reads checkpoints.
    fn load(bytes: &[u8], budget: &Budget) -> Result<LoadedGraph, IoError> {
        load_graph_bytes(bytes, GraphFormat::PcgBinary, &Recorder::disabled(), budget)
    }

    fn sample(weighted: bool) -> Graph {
        let mut b = GraphBuilder::new(6);
        b.add_unweighted_edge(0, 1);
        b.add_unweighted_edge(1, 2);
        b.add_unweighted_edge(2, 3);
        b.add_unweighted_edge(3, 4);
        b.add_unweighted_edge(4, 5);
        b.add_unweighted_edge(5, 0);
        b.add_unweighted_edge(0, 3);
        if weighted {
            b.add_edge(1, 4, 2.5);
            b.add_edge(2, 2, 0.5);
        }
        b.build()
    }

    fn assert_same_graph(a: &Graph, b: &Graph) {
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
        assert_eq!(a.total_edge_weight(), b.total_edge_weight());
        // audit:allow(lossy-cast): bounded by the u32 node id space
        for u in 0..a.node_count() as Node {
            assert_eq!(a.neighbors(u), b.neighbors(u));
            assert_eq!(a.neighbors_and_weights(u).1, b.neighbors_and_weights(u).1);
            assert_eq!(a.weighted_degree(u), b.weighted_degree(u));
            assert_eq!(a.self_loop_weight(u), b.self_loop_weight(u));
        }
    }

    #[test]
    fn roundtrip_unweighted() {
        let g = sample(false);
        let bytes = image(&g, None, None);
        assert!(is_pcg_magic(&bytes));
        let loaded = load(&bytes, &Budget::unlimited()).unwrap();
        assert_same_graph(&g, &loaded.graph);
        assert!(loaded.relabeling.is_none());
        // a unit graph reopens unit: no weights array
        assert!(g.csr_view().weights.is_empty() && loaded.graph.csr_view().weights.is_empty());
    }

    #[test]
    fn roundtrip_weighted_and_self_loops() {
        let g = sample(true);
        let bytes = image(&g, None, None);
        let loaded = load(&bytes, &Budget::unlimited()).unwrap();
        assert_same_graph(&g, &loaded.graph);
    }

    #[test]
    fn checksum_of_pieces_is_the_checksum_of_the_whole() {
        let bytes: Vec<u8> = (0..1000u32).map(|i| (i * 37 % 251) as u8).collect();
        for len in [0, 5, 8, 31, 32, 999, 1000] {
            for piece_len in [8, 24, 64] {
                let mut sum = Checksum::new();
                bytes[..len].chunks(piece_len).for_each(|p| sum.update(p));
                assert_eq!(
                    sum.finish(),
                    checksum(&bytes[..len]),
                    "{len} by {piece_len}"
                );
            }
        }
    }

    #[test]
    fn sections_longer_than_a_piece_roundtrip_with_their_padding() {
        // A weighted path plus one loop: an odd adjacency length, so the
        // targets section ends in padding, and every section but the
        // WAL sequence spans several pieces.
        let n = 3 * PIECE_LEN / 8 + 5;
        let mut b = GraphBuilder::new(n);
        for u in 1..n as Node {
            b.add_edge(u - 1, u, 0.5 + f64::from(u % 7));
        }
        b.add_edge(3, 3, 2.0);
        let g = b.build();
        assert_eq!(g.csr_view().targets.len() % 2, 1);
        let bytes = image(&g, None, Some(9));
        assert_eq!(bytes.len() % 8, 0);
        let loaded = load(&bytes, &Budget::unlimited()).unwrap();
        assert_same_graph(&g, &loaded.graph);
        assert_eq!(loaded.wal_seq, Some(9));
    }

    /// The image an older writer produced: today's sections plus the
    /// retired weighted degrees (4) and self-loop weights (5) after the
    /// weights, holding `caches`.
    fn legacy_image(g: &Graph, relabeling: Option<&Relabeling>, caches: [&[f64]; 2]) -> Vec<u8> {
        let mut s = sections(g, relabeling, None);
        let at = (s.iter().position(|(id, _)| *id > SEC_WEIGHTS)).unwrap_or(s.len());
        let retired = [(4, Payload::F64s(caches[0])), (5, Payload::F64s(caches[1]))];
        s.splice(at..at, retired);
        let mut out = Vec::new();
        write_sections(g, &s, &mut out).unwrap();
        out
    }

    /// All seven `csr_view` parts, floats compared by their bits.
    fn assert_bit_identical(a: &Graph, b: &Graph) {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (a, b) = (a.csr_view(), b.csr_view());
        assert_eq!(a.offsets, b.offsets);
        assert_eq!(a.targets, b.targets);
        assert_eq!(bits(a.weights), bits(b.weights));
        assert_eq!(bits(a.weighted_degrees), bits(b.weighted_degrees));
        assert_eq!(bits(a.self_loops), bits(b.self_loops));
        assert_eq!(a.total_weight.to_bits(), b.total_weight.to_bits());
        assert_eq!(a.num_edges, b.num_edges);
    }

    #[test]
    fn files_with_the_retired_cache_sections_still_load() {
        // Weights whose sums round, so only the same arithmetic in the
        // same order reproduces the caches.
        let mut b = GraphBuilder::new(7);
        for (u, v, w) in [
            (0, 1, 0.1),
            (1, 2, 0.2),
            (2, 0, 0.7),
            (2, 3, 0.3),
            (3, 4, 1.1),
        ] {
            b.add_edge(u, v, w);
        }
        b.add_edge(4, 4, 0.6);
        b.add_edge(5, 6, 1.0 / 3.0);
        let g = b.build();
        let r = Relabeling::degree_ordered(&g);
        let h = r.apply(&g);
        for (graph, relabeling) in [(&g, None), (&h, Some(&r))] {
            let v = graph.csr_view();
            let legacy = legacy_image(graph, relabeling, [v.weighted_degrees, v.self_loops]);
            let current = image(graph, relabeling, None);
            assert_eq!(legacy.len(), current.len() + 16 * 7 + 2 * ENTRY_LEN);
            // Stale contents change nothing: the sections are never read.
            let zeros = vec![0.0; 7];
            let stale = legacy_image(graph, relabeling, [&zeros, &zeros]);
            for bytes in [&legacy, &stale, &current] {
                let loaded = load(bytes, &Budget::unlimited()).unwrap();
                assert_bit_identical(graph, &loaded.graph);
                assert_eq!(
                    loaded.relabeling.map(|l| l.new_of_old().to_vec()),
                    relabeling.map(|r| r.new_of_old().to_vec())
                );
            }
        }
    }

    #[test]
    fn unweighted_graphs_omit_the_weights_section() {
        let unweighted = image(&sample(false), None, None);
        let weighted = image(&sample(true), None, None);
        // Section counts differ by exactly the weights section.
        assert_eq!(rd_u32(&unweighted, 12) + 1, rd_u32(&weighted, 12));
    }

    #[test]
    fn a_section_of_unit_weights_reopens_unit_and_is_rewritten_without_it() {
        let g = sample(false);
        let with_weights = |weights: &[f64]| {
            let mut s = sections(&g, None, None);
            s.insert(2, (SEC_WEIGHTS, Payload::F64s(weights)));
            let mut out = Vec::new();
            write_sections(&g, &s, &mut out).unwrap();
            out
        };
        let adj = g.csr_view().targets.len();
        let explicit = with_weights(&vec![1.0; adj]);
        assert_eq!(
            rd_u32(&explicit, 12),
            rd_u32(&image(&g, None, None), 12) + 1
        );
        let loaded = load(&explicit, &Budget::unlimited()).unwrap();
        assert!(loaded.graph.csr_view().weights.is_empty());
        assert_bit_identical(&g, &loaded.graph);
        assert_eq!(image(&loaded.graph, None, None), image(&g, None, None));
        // a weights section of the wrong length is still a typed error
        let err = load(&with_weights(&vec![1.0; adj - 1]), &Budget::unlimited()).unwrap_err();
        assert!(matches!(err.kind(), crate::IoErrorKind::Parse(_)), "{err}");
        assert!(err.to_string().contains("section weights has"), "{err}");
    }

    #[test]
    fn roundtrip_relabeled() {
        let g = sample(true);
        let r = Relabeling::degree_ordered(&g);
        let h = r.apply(&g);
        let bytes = image(&h, Some(&r), None);
        let loaded = load(&bytes, &Budget::unlimited()).unwrap();
        assert_same_graph(&h, &loaded.graph);
        let lr = loaded.relabeling.unwrap();
        assert_eq!(lr.new_of_old(), r.new_of_old());
        assert_eq!(lr.old_of_new(), r.old_of_new());
    }

    #[test]
    fn roundtrip_wal_seq_section() {
        let g = sample(true);
        let bytes = image(&g, None, Some(417));
        let loaded = load(&bytes, &Budget::unlimited()).unwrap();
        assert_same_graph(&g, &loaded.graph);
        assert_eq!(loaded.wal_seq, Some(417));
        // Files written without a WAL context read back as None.
        let plain = image(&g, None, None);
        let loaded = load(&plain, &Budget::unlimited()).unwrap();
        assert_eq!(loaded.wal_seq, None);
    }

    #[test]
    fn roundtrip_empty_graph() {
        let g = GraphBuilder::new(0).build();
        let bytes = image(&g, None, None);
        let loaded = load(&bytes, &Budget::unlimited()).unwrap();
        assert_eq!(loaded.graph.node_count(), 0);
        assert_eq!(loaded.graph.edge_count(), 0);
    }

    #[test]
    fn file_roundtrip_records_load_span() {
        let dir = std::env::temp_dir().join(format!("parcom-binfmt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.pcg");
        let g = sample(true);
        write_pcg(&g, None, &path).unwrap();

        let rec = Recorder::enabled();
        let loaded = load_graph_auto(&path, &rec, &Budget::unlimited()).unwrap();
        assert_same_graph(&g, &loaded.graph);
        let report = rec.finish("ingest");
        let load = report.phase("ingest/load").unwrap();
        assert_eq!(
            load.counter("bytes"),
            Some(std::fs::metadata(&path).unwrap().len())
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn budget_rejects_oversized_header_before_loading() {
        let g = sample(false);
        let bytes = image(&g, None, None);
        let budget = Budget::unlimited().with_input_limits(2, 1000);
        let err = load(&bytes, &budget).unwrap_err();
        assert!(err.to_string().contains("exceeding the ingest limit"));
        assert!(matches!(err.kind(), crate::IoErrorKind::Limit(_)), "{err}");
    }

    #[test]
    fn checksum_is_order_and_length_sensitive() {
        assert_ne!(checksum(b"abcdefgh12345678"), checksum(b"12345678abcdefgh"));
        assert_ne!(checksum(b"abc"), checksum(b"abc\0"));
        assert_ne!(fold_body(0, 1), fold_body(1, 0));
    }
}
