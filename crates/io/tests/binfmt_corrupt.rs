//! The corrupt-input matrix for the binary graph loader, mirroring the
//! METIS `error_context` contract: every failure mode is a typed
//! [`IoError`] whose `Display` leads with the file path, and no corruption
//! reaches [`parcom_graph::Graph`] construction. Plus the format-sniffing
//! contract of [`load_graph_auto`]: dispatch is by magic bytes first, so
//! misnamed files load as what they *are*.

use parcom_graph::GraphBuilder;
use parcom_guard::Budget;
use parcom_io::binfmt;
use parcom_io::{
    load_graph_auto, load_graph_bytes, write_pcg, GraphFormat, IoError, IoErrorKind, LoadedGraph,
};
use parcom_obs::Recorder;
use std::path::{Path, PathBuf};

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("parcom_binfmt_corrupt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small weighted graph with a self-loop, serialized to `name` under the
/// temp dir, returning the path and the pristine bytes.
fn valid_pcg(name: &str) -> (PathBuf, Vec<u8>) {
    let mut b = GraphBuilder::new(8);
    for u in 0..7u32 {
        b.add_unweighted_edge(u, u + 1);
    }
    b.add_edge(0, 4, 2.5);
    b.add_edge(3, 3, 0.5);
    let g = b.build();
    let path = temp_dir().join(name);
    write_pcg(&g, None, &path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    (path, bytes)
}

/// Reads `path` the way daemon recovery reads a checkpoint: binary or a
/// typed error, never a text parse of a damaged file.
fn load_budgeted(path: &Path, budget: &Budget) -> Result<LoadedGraph, IoError> {
    let bytes = std::fs::read(path).unwrap();
    load_graph_bytes(
        &bytes,
        GraphFormat::PcgBinary,
        &Recorder::disabled(),
        budget,
    )
    .map_err(|e| e.with_path(path))
}

fn load(path: &Path) -> Result<LoadedGraph, IoError> {
    load_budgeted(path, &Budget::unlimited())
}

/// The error must be a parse error carrying the path, displayed as
/// `path: message`, with `message` containing `needle`.
fn assert_corrupt(err: &IoError, path: &Path, needle: &str) {
    assert!(
        matches!(err.kind(), IoErrorKind::Parse(_)),
        "wrong kind: {err}"
    );
    assert_rejected(err, path, needle);
}

/// The error carries the path, displayed as `path: message`, with
/// `message` containing `needle`.
fn assert_rejected(err: &IoError, path: &Path, needle: &str) {
    assert_eq!(err.path(), Some(path), "missing path context: {err}");
    let display = err.to_string();
    let prefix = format!("{}: ", path.display());
    assert!(
        display.starts_with(&prefix),
        "`{display}` does not start with `{prefix}`"
    );
    assert!(
        display.contains(needle),
        "`{display}` does not mention `{needle}`"
    );
}

#[test]
fn truncated_below_the_fixed_header() {
    let (path, bytes) = valid_pcg("trunc_head.pcg");
    std::fs::write(&path, &bytes[..40]).unwrap();
    assert_corrupt(&load(&path).unwrap_err(), &path, "truncated");
}

#[test]
fn truncated_inside_the_section_table() {
    let (path, bytes) = valid_pcg("trunc_table.pcg");
    std::fs::write(&path, &bytes[..binfmt::MAGIC.len() + 60]).unwrap();
    assert_corrupt(&load(&path).unwrap_err(), &path, "truncated");
}

#[test]
fn wrong_magic() {
    let (path, mut bytes) = valid_pcg("magic.pcg");
    bytes[0] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();
    assert_corrupt(&load(&path).unwrap_err(), &path, "bad magic");
}

#[test]
fn unsupported_version() {
    let (path, mut bytes) = valid_pcg("version.pcg");
    bytes[8] = 99; // version field, checked before the header checksum
    std::fs::write(&path, &bytes).unwrap();
    let err = load(&path).unwrap_err();
    assert_corrupt(&err, &path, "unsupported binary graph version 99");
    assert!(err.to_string().contains(binfmt::SCHEMA));
}

#[test]
fn implausible_section_count() {
    let (path, mut bytes) = valid_pcg("seccount.pcg");
    bytes[12] = 0xff; // section count, checked before the header checksum
    std::fs::write(&path, &bytes).unwrap();
    assert_corrupt(&load(&path).unwrap_err(), &path, "sections");
}

#[test]
fn header_corruption_fails_the_header_checksum() {
    let (path, mut bytes) = valid_pcg("headsum.pcg");
    bytes[24] ^= 0x01; // node count inside the checksummed header
    std::fs::write(&path, &bytes).unwrap();
    assert_corrupt(&load(&path).unwrap_err(), &path, "header checksum mismatch");
}

#[test]
fn payload_corruption_fails_the_data_checksum() {
    let (path, mut bytes) = valid_pcg("bodysum.pcg");
    let len = bytes.len();
    bytes[len / 2] ^= 0x10; // some section payload byte
    std::fs::write(&path, &bytes).unwrap();
    assert_corrupt(&load(&path).unwrap_err(), &path, "checksum mismatch");
}

#[test]
fn section_overflowing_the_file_is_rejected() {
    let (path, bytes) = valid_pcg("overflow.pcg");
    // Cut the body short: the header (its checksum covers only itself)
    // stays valid, so the table now points past the end of the file.
    std::fs::write(&path, &bytes[..bytes.len() - 24]).unwrap();
    assert_corrupt(&load(&path).unwrap_err(), &path, "overflows the file");
}

#[test]
fn ingest_limit_rejects_the_header_with_path_context() {
    let (path, _) = valid_pcg("limit.pcg");
    let tight = Budget::unlimited().with_input_limits(2, 1);
    let err = load_budgeted(&path, &tight).unwrap_err();
    assert_rejected(&err, &path, "exceeding the ingest limit");
    // too big, not corrupt: the typed kind the daemon answers 413 for
    assert!(matches!(err.kind(), IoErrorKind::Limit(_)), "{err}");
}

// ---------------------------------------------------------------------------
// Lies: well-formed files whose header claims what the arrays deny. The
// checksums are a public algorithm, so they are recomputed; what the
// loader believes must come from the arrays, or the load must fail typed.

/// `bytes` with the u64 header field at `at` set to `value` and the header
/// checksum, which follows the section table, recomputed.
fn lying(bytes: &[u8], at: usize, value: u64) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[at..at + 8].copy_from_slice(&value.to_le_bytes());
    let sections = u32::from_le_bytes(out[12..16].try_into().unwrap()) as usize;
    let sum_at = 64 + 24 * sections;
    let sum = binfmt::checksum64(&out[..sum_at]);
    out[sum_at..sum_at + 8].copy_from_slice(&sum.to_le_bytes());
    out
}

/// Header offsets of m and of ω(E).
const EDGES_AT: usize = 32;
const TOTAL_WEIGHT_AT: usize = 48;

#[test]
fn header_overstating_m_is_a_typed_error() {
    let (path, bytes) = valid_pcg("lie_m.pcg");
    let m = load(&path).unwrap().graph.edge_count() as u64;
    // 2^63 and up overflow `2 * m`
    for claim in [m + 1, 1_000_000, 1 << 63, u64::MAX] {
        std::fs::write(&path, lying(&bytes, EDGES_AT, claim)).unwrap();
        let err = load(&path).unwrap_err();
        assert_corrupt(&err, &path, &format!("header claims {claim} edges"));
    }
}

#[test]
fn header_total_weight_is_never_trusted() {
    let (path, bytes) = valid_pcg("lie_weight.pcg");
    let want = load(&path).unwrap().graph;
    // seven unit edges, 2.5 and the 0.5 loop
    assert_eq!(want.total_edge_weight(), 10.0);
    for claim in [0.5, 0.0, -1.0, f64::NAN, 1e300] {
        std::fs::write(&path, lying(&bytes, TOTAL_WEIGHT_AT, f64::to_bits(claim))).unwrap();
        let got = load(&path).unwrap().graph;
        assert_eq!(
            got.total_edge_weight().to_bits(),
            want.total_edge_weight().to_bits(),
            "header claimed {claim}"
        );
        assert_eq!(got.edge_count(), want.edge_count());
    }
}

// ---------------------------------------------------------------------------
// Format sniffing: magic bytes first, extension second.

#[test]
fn pcg_named_metis_text_loads_as_metis() {
    let path = temp_dir().join("actually_text.pcg");
    std::fs::write(&path, "3 2\n2\n1 3\n2\n").unwrap();
    let loaded = load_graph_auto(&path, &Recorder::disabled(), &Budget::unlimited()).unwrap();
    assert_eq!(loaded.format, GraphFormat::Metis);
    assert_eq!(loaded.graph.node_count(), 3);
    assert_eq!(loaded.graph.edge_count(), 2);
}

#[test]
fn metis_named_binary_loads_as_binary() {
    let (pcg_path, bytes) = valid_pcg("real_binary.pcg");
    let disguised = temp_dir().join("disguised.metis");
    std::fs::write(&disguised, &bytes).unwrap();
    let loaded = load_graph_auto(&disguised, &Recorder::disabled(), &Budget::unlimited()).unwrap();
    assert_eq!(loaded.format, GraphFormat::PcgBinary);
    let direct = load(&pcg_path).unwrap();
    assert_eq!(loaded.graph.node_count(), direct.graph.node_count());
    assert_eq!(loaded.graph.edge_count(), direct.graph.edge_count());
}

#[test]
fn unknown_extension_without_magic_is_an_edge_list() {
    let path = temp_dir().join("plain.edges");
    std::fs::write(&path, "0 1\n1 2\n").unwrap();
    let loaded = load_graph_auto(&path, &Recorder::disabled(), &Budget::unlimited()).unwrap();
    assert_eq!(loaded.format, GraphFormat::EdgeList);
    assert_eq!(loaded.graph.edge_count(), 2);
}

#[test]
fn short_file_sniffs_as_text_not_an_error() {
    // Shorter than the magic: sniffing must not fail, just fall through.
    let path = temp_dir().join("tiny.pcg");
    std::fs::write(&path, "1 0\n\n").unwrap();
    let loaded = load_graph_auto(&path, &Recorder::disabled(), &Budget::unlimited()).unwrap();
    assert_eq!(loaded.format, GraphFormat::Metis);
    assert_eq!(loaded.graph.node_count(), 1);
}

/// A `.pcg` in the legacy relabeled layout — the graph stored hub-first,
/// the permutation in section 6 — loads through both doors as the graph
/// it was written from, bit for bit. Past 4096 nodes, so undoing the
/// permutation takes `Relabeling::apply`'s parallel path.
#[test]
fn relabeled_file_roundtrips_through_auto_loading() {
    use parcom_generators::{lfr, LfrParams};
    use parcom_graph::Relabeling;
    let unit = lfr(LfrParams::benchmark(5000, 0.3), 7).0;
    let mut b = GraphBuilder::with_capacity(unit.node_count(), unit.edge_count() + 1);
    let mut edges = unit.par_collect_edges();
    for (i, edge) in edges.iter_mut().enumerate() {
        edge.2 = 0.1 + (i % 7) as f64 / 3.0;
    }
    b.extend_edges(edges);
    b.add_edge(9, 9, 0.7);
    let g = b.build();
    let r = Relabeling::degree_ordered(&g);
    assert_ne!(r.apply(&g).csr_view().targets, g.csr_view().targets);
    let path = temp_dir().join("relabeled_auto.pcg");
    write_pcg(&g, Some(&r), &path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(bytes[16] & 1, 1, "flag bit 0: stored relabeled");

    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let by_path = load_graph_auto(&path, &Recorder::disabled(), &Budget::unlimited()).unwrap();
    let by_bytes = load(&path).unwrap();
    for loaded in [by_path, by_bytes] {
        assert_eq!(loaded.format, GraphFormat::PcgBinary);
        let (got, want) = (loaded.graph.csr_view(), g.csr_view());
        assert_eq!(got.offsets, want.offsets);
        assert_eq!(got.targets, want.targets);
        assert_eq!(bits(got.weights), bits(want.weights));
        assert_eq!(bits(got.weighted_degrees), bits(want.weighted_degrees));
    }

    // a permutation of another graph's size is refused at write
    let other = Relabeling::degree_ordered(&GraphBuilder::new(3).build());
    assert!(write_pcg(&g, Some(&other), &path).is_err());
}

/// `bytes` with the payload of section `id` rewritten by `edit` and both
/// checksums recomputed — the body checksum folds each section's
/// checksum in table order (`acc.rotate_left(17) ^ sum · K`) — so only
/// the loader's own checks can catch the damage.
fn rewritten(bytes: &[u8], id: u32, edit: impl FnOnce(&mut [u8])) -> Vec<u8> {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut out = bytes.to_vec();
    let count = u32::from_le_bytes(out[12..16].try_into().unwrap()) as usize;
    let word = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
    let table: Vec<(u32, usize, usize)> = (0..count)
        .map(|i| {
            let at = 64 + 24 * i;
            let sid = u32::from_le_bytes(out[at..at + 4].try_into().unwrap());
            (
                sid,
                word(&out, at + 8) as usize,
                word(&out, at + 16) as usize,
            )
        })
        .collect();
    let (_, offset, len) = *table.iter().find(|(sid, ..)| *sid == id).unwrap();
    edit(&mut out[offset..offset + len]);
    let body = table.iter().fold(0u64, |acc, &(_, offset, len)| {
        acc.rotate_left(17) ^ binfmt::checksum64(&out[offset..offset + len]).wrapping_mul(K)
    });
    lying(&out, 56, body)
}

/// Section 6 damage the checksums cannot see is still a typed error: a
/// permutation that is none, or a flag that promises a missing section.
#[test]
fn a_stored_relabeling_that_is_no_permutation_is_a_typed_error() {
    use parcom_graph::Relabeling;
    let (plain_path, plain) = valid_pcg("plain_for_perm.pcg");
    let g = load(&plain_path).unwrap().graph;
    let path = temp_dir().join("bad_perm.pcg");
    write_pcg(&g, Some(&Relabeling::degree_ordered(&g)), &path).unwrap();
    let legacy = std::fs::read(&path).unwrap();
    assert_eq!(
        load(&path).unwrap().graph.csr_view().targets,
        g.csr_view().targets
    );

    let duplicate = rewritten(&legacy, 6, |perm| {
        let first: [u8; 4] = perm[..4].try_into().unwrap();
        perm[4..8].copy_from_slice(&first);
    });
    let out_of_range = rewritten(&legacy, 6, |perm| {
        perm[..4].copy_from_slice(&99u32.to_le_bytes());
    });
    let flag_without_section = lying(&plain, 16, 1);
    for (bytes, needle) in [
        (
            duplicate,
            "stored relabeling is invalid: relabeling is not a permutation",
        ),
        (
            out_of_range,
            "stored relabeling is invalid: relabeling maps node 0 to 99",
        ),
        (
            flag_without_section,
            "missing required section relabeling (id 6)",
        ),
    ] {
        std::fs::write(&path, bytes).unwrap();
        assert_corrupt(&load(&path).unwrap_err(), &path, needle);
    }
}
