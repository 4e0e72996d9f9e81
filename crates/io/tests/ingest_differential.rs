//! Differential property tests for the ingest pipeline. On any input —
//! valid or corrupted — the chunked parsers must behave *identically* to
//! the retained sequential references for every chunk count: same graph
//! bit-for-bit (offsets, targets, weight bit patterns, label order) on
//! success, same error line and message on failure. And the two doors
//! into the one decoder — `load_graph_auto(path)` and
//! `load_graph_bytes(bytes)` — must agree on every format: the same CSR
//! by bits and WAL sequence, or the same error kind, line and message
//! apart from the path prefix.

use parcom_graph::{Graph, GraphBuilder};
use parcom_guard::Budget;
use parcom_io::binfmt::{write_pcg, write_pcg_to};
use parcom_io::edgelist::{read_edge_list_chunked, read_edge_list_seq};
use parcom_io::metis::{read_metis_chunked, read_metis_seq};
use parcom_io::{
    load_graph_auto, load_graph_bytes, GraphFormat, IoError, IoErrorKind, LoadedGraph,
};
use parcom_obs::Recorder;
use proptest::prelude::*;
use std::path::{Path, PathBuf};

const PARTS: [usize; 4] = [1, 2, 3, 8];

/// Exact CSR equality: same adjacency structure and same weight bits.
fn assert_bit_identical(a: &Graph, b: &Graph, ctx: &str) {
    assert_eq!(a.node_count(), b.node_count(), "{ctx}: node count");
    assert_eq!(a.edge_count(), b.edge_count(), "{ctx}: edge count");
    for u in a.nodes() {
        let (ta, wa) = a.neighbors_and_weights(u);
        let (tb, wb) = b.neighbors_and_weights(u);
        assert_eq!(ta, tb, "{ctx}: row {u} targets differ");
        let bits = |ws: &[f64]| ws.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(wa), bits(wb), "{ctx}: row {u} weight bits differ");
    }
}

/// Same outcome: both Ok with the same CSR in all seven parts, or both
/// Err with the same line and message.
fn assert_same_outcome(seq: &Result<Graph, IoError>, par: &Result<Graph, IoError>, ctx: &str) {
    match (seq, par) {
        (Ok(a), Ok(b)) => assert_same_csr(a, b, ctx),
        (Err(a), Err(b)) => {
            assert_eq!(a.line(), b.line(), "{ctx}: error lines differ");
            assert_eq!(a.to_string(), b.to_string(), "{ctx}: error messages differ");
        }
        (a, b) => panic!(
            "{ctx}: outcomes diverge: seq={:?} par={:?}",
            a.as_ref().map(|g| g.edge_count()),
            b.as_ref().map(|g| g.edge_count())
        ),
    }
}

/// A weight grid coarse enough to render/reparse exactly yet including
/// magnitudes where duplicate-summation order shows in the mantissa.
fn arb_weight() -> impl Strategy<Value = f64> {
    (0u32..102u32).prop_map(|w| match w {
        100 => 1e-17,
        101 => 0.1,
        w => (w + 1) as f64 / 10.0,
    })
}

/// `(n, edges, weighted, comment_every)` for a well-formed METIS file:
/// duplicates and self-loops allowed (they exercise the merge path), with
/// comment lines sprinkled through the adjacency body.
fn arb_metis() -> impl Strategy<Value = (usize, Vec<(u32, u32, f64)>, bool, usize)> {
    (1usize..30).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32, arb_weight());
        (
            proptest::collection::vec(edge, 0..(4 * n)),
            0u32..2,
            0usize..4,
        )
            .prop_map(move |(edges, w, ce)| (n, edges, w == 1, ce))
    })
}

/// Renders a METIS file whose header edge count matches what the parsers
/// will produce after duplicate merging. Empty rows (isolated nodes) come
/// out as blank lines, so blank-line handling is covered for free.
fn render_metis(
    n: usize,
    edges: &[(u32, u32, f64)],
    weighted: bool,
    comment_every: usize,
) -> String {
    let mut adj: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
    for &(u, v, w) in edges {
        let w = if weighted { w } else { 1.0 };
        adj[u as usize].push((v, w));
        if u != v {
            adj[v as usize].push((u, w));
        }
    }
    let mut b = GraphBuilder::new(n);
    for &(u, v, w) in edges {
        b.add_edge(u, v, if weighted { w } else { 1.0 });
    }
    render_rows(&adj, b.build().edge_count(), weighted, comment_every)
}

/// Renders adjacency rows as they are, under a header claiming `m` edges.
fn render_rows(adj: &[Vec<(u32, f64)>], m: usize, weighted: bool, comment_every: usize) -> String {
    let mut s = String::new();
    s.push_str("% generated\n");
    s.push_str(&format!(
        "{} {m}{}\n",
        adj.len(),
        if weighted { " 1" } else { "" }
    ));
    for (i, row) in adj.iter().enumerate() {
        if comment_every > 0 && i % comment_every == 0 {
            s.push_str("% interleaved comment\n");
        }
        let toks: Vec<String> = row
            .iter()
            .map(|&(v, w)| {
                if weighted {
                    format!("{} {}", v + 1, w)
                } else {
                    format!("{}", v + 1)
                }
            })
            .collect();
        s.push_str(&toks.join(" "));
        s.push('\n');
    }
    s
}

/// A well-formed file in which exactly the pair `{a, b}` is listed
/// differently by its two lines, in one of three shapes: 0 drops the
/// mirror token, 1 gives the mirror other weight bits, 2 repeats the
/// entry on one side only. Every other occurrence of the pair is removed
/// first, so `{a, b}` is the one asymmetric pair.
fn render_asymmetric(
    n: usize,
    edges: &[(u32, u32, f64)],
    weighted: bool,
    comment_every: usize,
    (a, b): (u32, u32),
    shape: usize,
) -> String {
    let weighted = weighted || shape == 1;
    let same_pair = |&(u, v, _): &(u32, u32, f64)| (u.min(v), u.max(v)) == (a.min(b), a.max(b));
    let kept: Vec<(u32, u32, f64)> = edges.iter().copied().filter(|e| !same_pair(e)).collect();
    let mut adj: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
    for &(u, v, w) in &kept {
        let w = if weighted { w } else { 1.0 };
        adj[u as usize].push((v, w));
        if u != v {
            adj[v as usize].push((u, w));
        }
    }
    let w = if weighted { 2.5 } else { 1.0 };
    adj[a as usize].push((b, w));
    match shape {
        0 => {}
        1 => adj[b as usize].push((a, 0.5)),
        _ => {
            adj[a as usize].push((b, w));
            adj[b as usize].push((a, w));
        }
    }
    let m = GraphBuilder::from_weighted_edges(n, &kept).edge_count() + 1;
    render_rows(&adj, m, weighted, comment_every)
}

/// `(edges-with-optional-weight, comment_style)` for an edge-list file
/// with gappy labels, comments, and blank lines.
fn arb_edgelist() -> impl Strategy<Value = (Vec<(u64, u64, Option<f64>)>, usize)> {
    let edge = (0u64..40, 0u64..40, (0u32..3, arb_weight()))
        .prop_map(|(u, v, (k, w))| (u, v, if k == 0 { None } else { Some(w) }));
    (proptest::collection::vec(edge, 0..80), 0usize..4)
}

fn render_edgelist(edges: &[(u64, u64, Option<f64>)], comment_every: usize) -> String {
    let mut s = String::from("# generated edge list\n");
    for (i, &(u, v, w)) in edges.iter().enumerate() {
        if comment_every > 0 && i % comment_every == 0 {
            s.push_str(if i % 2 == 0 { "% comment\n" } else { "\n" });
        }
        // sparse labels: gaps force the id-compaction path
        let (u, v) = (u * 7, v * 7 + 3);
        match w {
            Some(w) => s.push_str(&format!("{u} {v} {w}\n")),
            None => s.push_str(&format!("{u} {v}\n")),
        }
    }
    s
}

/// Corrupts one line of a rendered file so the error paths get compared
/// too.
fn corrupt(text: &str, line_pick: usize, kind: usize) -> String {
    let lines: Vec<&str> = text.lines().collect();
    if lines.is_empty() {
        return "x x".to_string();
    }
    let at = line_pick % lines.len();
    let mut out = Vec::new();
    for (i, l) in lines.iter().enumerate() {
        if i == at {
            match kind {
                0 => out.push("x x"),
                1 => out.push("1 nope"),
                2 => continue, // drop the line entirely
                _ => out.push("999999999"),
            }
        } else {
            out.push(l);
        }
    }
    out.join("\n") + "\n"
}

/// All seven parts of the CSR, floats by bit pattern.
fn assert_same_csr(a: &Graph, b: &Graph, ctx: &str) {
    let (a, b) = (a.csr_view(), b.csr_view());
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(a.offsets, b.offsets, "{ctx}: offsets");
    assert_eq!(a.targets, b.targets, "{ctx}: targets");
    assert_eq!(bits(a.weights), bits(b.weights), "{ctx}: weights");
    assert_eq!(
        bits(a.weighted_degrees),
        bits(b.weighted_degrees),
        "{ctx}: weighted degrees"
    );
    assert_eq!(bits(a.self_loops), bits(b.self_loops), "{ctx}: self-loops");
    assert_eq!(
        a.total_weight.to_bits(),
        b.total_weight.to_bits(),
        "{ctx}: total weight"
    );
    assert_eq!(a.num_edges, b.num_edges, "{ctx}: edge count");
}

/// Writes `bytes` to `file` in a per-thread temp dir (tests run in
/// parallel and reuse file names), then loads it through both doors — the
/// path door, and the bytes door with the fallback the path door derives
/// from the extension — and asserts they agree.
fn assert_doors_agree(file: &str, bytes: &[u8], fallback: GraphFormat, budget: &Budget) {
    let thread = std::thread::current().id();
    let dir = std::env::temp_dir().join(format!("parcom_doors_{}_{thread:?}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path: PathBuf = dir.join(file);
    std::fs::write(&path, bytes).unwrap();
    let by_path = load_graph_auto(&path, &Recorder::disabled(), budget);
    let by_bytes = load_graph_bytes(bytes, fallback, &Recorder::disabled(), budget);
    same_load(&path, by_path, by_bytes);
}

fn same_load(
    path: &Path,
    by_path: Result<LoadedGraph, IoError>,
    by_bytes: Result<LoadedGraph, IoError>,
) {
    let ctx = path.display().to_string();
    match (by_path, by_bytes) {
        (Ok(a), Ok(b)) => {
            assert_same_csr(&a.graph, &b.graph, &ctx);
            assert_eq!(a.format, b.format, "{ctx}: format");
            assert_eq!(a.wal_seq, b.wal_seq, "{ctx}: wal seq");
        }
        (Err(a), Err(b)) => {
            assert_eq!(
                std::mem::discriminant(a.kind()),
                std::mem::discriminant(b.kind()),
                "{ctx}: error kinds differ: {a} / {b}"
            );
            assert_eq!(a.line(), b.line(), "{ctx}: error lines differ");
            assert_eq!(a.path(), Some(path), "{ctx}: path door must name the file");
            assert_eq!(b.path(), None, "{ctx}: bytes door has no file");
            assert_eq!(
                a.to_string(),
                b.with_path(path).to_string(),
                "{ctx}: messages differ apart from the path prefix"
            );
        }
        (a, b) => panic!(
            "{ctx}: doors diverge: path={:?} bytes={:?}",
            a.map(|l| l.graph.edge_count()),
            b.map(|l| l.graph.edge_count())
        ),
    }
}

/// The `.pcg` image of `g`: with a WAL sequence (a daemon checkpoint's
/// shape), or in the legacy degree-relabeled layout, written through a
/// per-thread temp file.
fn render_pcg(g: &Graph, relabeled: bool) -> Vec<u8> {
    if !relabeled {
        let mut out = Vec::new();
        write_pcg_to(g, Some(7), &mut out).unwrap();
        return out;
    }
    let thread = std::thread::current().id();
    let dir = std::env::temp_dir().join(format!("parcom_legacy_{}_{thread:?}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("relabeled.pcg");
    let r = parcom_graph::Relabeling::degree_ordered(g);
    write_pcg(g, Some(&r), &path).unwrap();
    std::fs::read(&path).unwrap()
}

/// Damages a binary image: `kind` 0 flips a byte at `at`, 1 truncates
/// there, 2 leaves it intact.
fn damage(mut bytes: Vec<u8>, at: usize, kind: usize) -> Vec<u8> {
    let at = at % bytes.len();
    match kind {
        0 => bytes[at] ^= 0x5a,
        1 => bytes.truncate(at),
        _ => {}
    }
    bytes
}

/// Unlimited, or input limits about half the graph's size, so admission
/// rejections are compared too.
fn pick_budget(n: usize, tight: bool) -> Budget {
    if tight {
        Budget::unlimited().with_input_limits(n / 2 + 1, usize::MAX)
    } else {
        Budget::unlimited()
    }
}

proptest! {
    #[test]
    fn metis_chunked_matches_sequential((n, edges, weighted, ce) in arb_metis()) {
        let text = render_metis(n, &edges, weighted, ce);
        let seq = read_metis_seq(text.as_bytes());
        prop_assert!(seq.is_ok(), "generator must render valid files: {:?}", seq.err().map(|e| e.to_string()));
        for parts in PARTS {
            let par = read_metis_chunked(text.as_bytes(), parts);
            assert_same_outcome(&seq, &par, &format!("parts={parts}"));
        }
    }

    #[test]
    fn metis_errors_match_sequential(
        (n, edges, weighted, ce) in arb_metis(),
        line_pick in 0usize..100,
        kind in 0usize..4,
    ) {
        let text = corrupt(&render_metis(n, &edges, weighted, ce), line_pick, kind);
        let seq = read_metis_seq(text.as_bytes());
        for parts in PARTS {
            let par = read_metis_chunked(text.as_bytes(), parts);
            assert_same_outcome(&seq, &par, &format!("parts={parts} corrupted"));
        }
    }

    /// A pair its two lines list differently is a parse error at the line
    /// of its smaller endpoint, alike from the sequential reference, every
    /// chunk count and both doors.
    #[test]
    fn asymmetric_metis_is_one_error_everywhere(
        (n, edges, weighted, ce) in arb_metis(),
        (pick_a, pick_b) in (0usize..30, 1usize..30),
        shape in 0usize..3,
    ) {
        if n < 2 {
            return Ok(()); // no pair of distinct nodes
        }
        let a = (pick_a % n) as u32;
        let b = ((pick_a + 1 + pick_b % (n - 1)) % n) as u32;
        let text = render_asymmetric(n, &edges, weighted, ce, (a, b), shape);
        let seq = read_metis_seq(text.as_bytes());
        let Err(err) = &seq else { panic!("asymmetric file accepted:\n{text}") };
        prop_assert!(matches!(err.kind(), IoErrorKind::Parse(_)), "{err}");
        let pair = format!("asymmetric edge {{{}, {}}}", a.min(b) + 1, a.max(b) + 1);
        prop_assert!(err.to_string().contains(&pair), "{err} / {pair}");
        for parts in PARTS {
            let par = read_metis_chunked(text.as_bytes(), parts);
            assert_same_outcome(&seq, &par, &format!("parts={parts} asymmetric"));
        }
        let by_bytes = load_graph_bytes(
            text.as_bytes(),
            GraphFormat::Metis,
            &Recorder::disabled(),
            &Budget::unlimited(),
        );
        assert_same_outcome(&seq, &by_bytes.map(|l| l.graph), "bytes door");
        assert_doors_agree("g.metis", text.as_bytes(), GraphFormat::Metis, &Budget::unlimited());
    }

    #[test]
    fn edgelist_chunked_matches_sequential((edges, ce) in arb_edgelist()) {
        let text = render_edgelist(&edges, ce);
        let seq = read_edge_list_seq(text.as_bytes()).expect("valid render");
        for parts in PARTS {
            let par = read_edge_list_chunked(text.as_bytes(), parts).expect("valid render");
            assert_eq!(seq.labels, par.labels, "parts={parts} label order");
            assert_bit_identical(&seq.graph, &par.graph, &format!("parts={parts}"));
        }
    }

    #[test]
    fn edgelist_errors_match_sequential(
        (edges, ce) in arb_edgelist(),
        line_pick in 0usize..100,
        kind in 0usize..2,
    ) {
        // kinds that are invalid for edge lists: lone token, bad target
        let bad = if kind == 0 { "77" } else { "3 notanid" };
        let mut text = render_edgelist(&edges, ce);
        let insert_at = line_pick % (text.lines().count() + 1);
        let mut lines: Vec<&str> = text.lines().collect();
        lines.insert(insert_at.min(lines.len()), bad);
        text = lines.join("\n") + "\n";

        let seq = read_edge_list_seq(text.as_bytes());
        prop_assert!(seq.is_err());
        for parts in PARTS {
            let par = read_edge_list_chunked(text.as_bytes(), parts);
            let (e1, e2) = (seq.as_ref().unwrap_err(), par.as_ref().unwrap_err());
            assert_eq!(e1.line(), e2.line(), "parts={parts}");
            assert_eq!(e1.to_string(), e2.to_string(), "parts={parts}");
        }
    }

    #[test]
    fn text_doors_agree(
        (n, edges, weighted, ce) in arb_metis(),
        (el_edges, el_ce) in arb_edgelist(),
        line_pick in 0usize..100,
        kind in 0usize..5,
        tight in 0u32..2,
    ) {
        // kind 4 keeps the files valid; the rest corrupt one line
        let metis = render_metis(n, &edges, weighted, ce);
        let edge_list = render_edgelist(&el_edges, el_ce);
        let (metis, edge_list) = if kind == 4 {
            (metis, edge_list)
        } else {
            (corrupt(&metis, line_pick, kind), corrupt(&edge_list, line_pick, kind))
        };
        let budget = pick_budget(n, tight == 1);
        assert_doors_agree("g.metis", metis.as_bytes(), GraphFormat::Metis, &budget);
        assert_doors_agree("g.edges", edge_list.as_bytes(), GraphFormat::EdgeList, &budget);
    }

    #[test]
    fn binary_doors_agree(
        (n, edges, weighted, ce) in arb_metis(),
        relabeled in 0u32..2,
        at in 0usize..4096,
        kind in 0usize..3,
        tight in 0u32..2,
    ) {
        let g = read_metis_seq(render_metis(n, &edges, weighted, ce).as_bytes()).unwrap();
        let bytes = damage(render_pcg(&g, relabeled == 1), at, kind);
        let budget = pick_budget(n, tight == 1);
        // `.pcg` falls back to METIS, so a damaged magic parses as text
        // through both doors alike
        assert_doors_agree("g.pcg", &bytes, GraphFormat::Metis, &budget);
        // and one named otherwise as an edge list
        assert_doors_agree("g.bin", &bytes, GraphFormat::EdgeList, &budget);
    }

    /// Inputs far below `MIN_PARALLEL_BYTES` still honor explicit chunk
    /// counts larger than the line count.
    #[test]
    fn tiny_inputs_with_many_chunks(n in 1usize..4) {
        let text = render_metis(n, &[], false, 0);
        let seq = read_metis_seq(text.as_bytes());
        for parts in [2usize, 16, 64] {
            let par = read_metis_chunked(text.as_bytes(), parts);
            assert_same_outcome(&seq, &par, &format!("tiny parts={parts}"));
        }
    }
}

/// `text` through the sequential reference and the chunked reader at 1
/// to 64 pieces, so the cuts land on every line: the same graph by bits,
/// or the same error line and message. Returns the reference's outcome.
fn held_to_seq(text: &[u8], ctx: &str) -> Result<Graph, IoError> {
    let seq = read_metis_seq(text);
    for parts in 1..=64 {
        let par = read_metis_chunked(text, parts);
        assert_same_outcome(&seq, &par, &format!("{ctx}: parts={parts}"));
    }
    seq
}

/// A triangle plus a pendant whose every neighbor id is written `width`
/// digits wide (leading zeros), optionally `+`-signed, after `pad`
/// separators: tokens start at every offset of an 8-byte word and end on
/// and across word boundaries.
fn padded_file(width: usize, pad: usize, sign: bool) -> String {
    let id = |v: usize| format!("{}{v:0width$}", if sign { "+" } else { "" });
    let sep = " ".repeat(pad.max(1));
    let rows = [vec![2, 3], vec![1, 3], vec![1, 2, 4], vec![3]];
    let mut s = String::from("4 4\n");
    for row in rows {
        s.push_str(&" ".repeat(pad));
        s.push_str(&row.iter().map(|&v| id(v)).collect::<Vec<_>>().join(&sep));
        s.push('\n');
    }
    s
}

#[test]
fn swar_tokens_of_every_width_and_offset_match_sequential() {
    for width in 1..=20 {
        for pad in 0..9 {
            for sign in [false, true] {
                let text = padded_file(width, pad, sign);
                let ctx = format!("width={width} pad={pad} sign={sign}");
                let g = held_to_seq(text.as_bytes(), &ctx).expect(&ctx);
                assert_eq!(g.edge_count(), 4, "{ctx}");
            }
        }
    }
}

#[test]
fn swar_errors_of_every_digit_count_match_sequential() {
    // ids of 1..=20 digits with no leading zero: out of range up to 19
    // digits (u64 holds them), unparseable at 20; each after a valid
    // token and at a different offset of the word
    let mut id = String::new();
    for digits in 1..=20 {
        id.push(char::from(b'1' + (digits % 9) as u8));
        for pad in 0..8 {
            let text = format!("3 1\n{}2 {id}\n1\n\n", " ".repeat(pad));
            let err = held_to_seq(text.as_bytes(), &format!("digits={digits}")).unwrap_err();
            assert_eq!(err.line(), Some(2), "{err}");
        }
    }
    // a non-digit right after up to 7 digits, or after exactly 8, inside
    // one word and across two
    for bad in [
        "1234567x",
        "12345678x",
        "1x",
        "12/3",
        "9:",
        "+",
        "++1",
        "1+",
        "-1",
        "1.0",
    ] {
        let text = format!("2 1\n2 {bad} 2\n1\n");
        let err = held_to_seq(text.as_bytes(), bad).unwrap_err();
        assert!(err.to_string().contains("bad neighbor id"), "{bad}: {err}");
        assert_eq!(err.line(), Some(2), "{bad}: {err}");
    }
}

#[test]
fn separators_are_ascii_whitespace_and_not_the_vertical_tab() {
    let valid = [
        "3 3\r\n2 3\r\n1 3\r\n1 2\r\n",
        "3 3\n2\t3\n\t1\t3\t\n1 \x0c2\n",
        "3\t3\x0c\n2 3 \r\n1\x0c3\n1 2",
    ];
    for text in valid {
        let g = held_to_seq(text.as_bytes(), &format!("{text:?}")).unwrap();
        assert_eq!(g.edge_count(), 3, "{text:?}");
    }
    // `\x0b` is not ASCII whitespace: it stays inside the token
    for (text, token) in [
        ("3 3\n2\x0b3\n1 3\n1 2\n", "2\x0b3"),
        ("3 3\n2 3\n\x0b\n1 2\n", "\x0b"),
        ("3 3\n2 3\n1 3\n1 2\x0b", "2\x0b"),
    ] {
        let err = held_to_seq(text.as_bytes(), &format!("{text:?}")).unwrap_err();
        assert!(
            err.to_string()
                .contains(&format!("bad neighbor id `{token}`")),
            "{err}"
        );
    }
    // edge lists split the same way: `\x0b` and U+00A0 stay inside the
    // token, whichever reader reads the row
    for (text, line, what) in [
        ("0 1\n1\t2\x0c\n", None, ""),
        ("1\x0b2\n", Some(1), "bad source id"),
        ("0 1\n1\u{a0}2\n", Some(2), "bad source id"),
        ("0 1\n1 2\u{a0}\n", Some(2), "bad target id"),
    ] {
        let seq = read_edge_list_seq(text.as_bytes());
        for parts in 1..=4 {
            let par = read_edge_list_chunked(text.as_bytes(), parts);
            let (seq, par) = (
                seq.as_ref().map(|l| &l.graph),
                par.as_ref().map(|l| &l.graph),
            );
            match (seq, par) {
                (Ok(a), Ok(b)) => assert_same_csr(a, b, &format!("{text:?}")),
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{text:?}"),
                (a, b) => panic!(
                    "{text:?}: readers diverge: seq={:?} par={:?}",
                    a.map(Graph::edge_count),
                    b.map(Graph::edge_count)
                ),
            }
        }
        match seq {
            Ok(_) => assert_eq!(line, None, "{text:?}"),
            Err(err) => {
                assert_eq!(err.line(), line, "{text:?}");
                assert!(err.to_string().contains(what), "{err}");
            }
        }
    }
}

#[test]
fn last_lines_without_a_newline_and_tokens_cut_at_the_end() {
    for tail in ["1 2", "1 000000000002", "+1 +2", "1 2 ", "1 2\r"] {
        let text = format!("3 3\n2 3\n1 3\n{tail}");
        let g = held_to_seq(text.as_bytes(), tail).unwrap();
        assert_eq!(g.edge_count(), 3, "{tail:?}");
    }
    // the cut token is the error, at the last line
    let err = held_to_seq(b"3 3\n2 3\n1 3\n1 2x", "cut").unwrap_err();
    assert_eq!(err.line(), Some(4), "{err}");
}

#[test]
fn comment_and_blank_lines_at_every_cut() {
    // a path 1-2-...-12 with comment lines before, between and after the
    // rows and isolated nodes as blank lines; 64 pieces cut every line
    let mut text = String::from("% lead\n%\n14 11\n");
    for v in 1..=14usize {
        if v % 3 == 0 {
            text.push_str("% between\n  %indented\n");
        }
        let row: Vec<String> = [v.wrapping_sub(1), v + 1]
            .into_iter()
            .filter(|&u| (1..=12).contains(&u) && v <= 12)
            .map(|u| u.to_string())
            .collect();
        text.push_str(&row.join(" "));
        text.push('\n');
    }
    text.push_str("% tail\n\n   \n");
    let g = held_to_seq(text.as_bytes(), "comments").unwrap();
    assert_eq!((g.node_count(), g.edge_count()), (14, 11));
    // one adjacency line too many after the comments is the same error
    let err = held_to_seq(format!("{text}1\n").as_bytes(), "surplus").unwrap_err();
    assert!(
        err.to_string().contains("more adjacency lines than nodes"),
        "{err}"
    );
}

#[test]
fn weighted_files_match_sequential() {
    let text = "% w\n3 3 1\n2 0.5   3 1e-3\n1 0.5\t3 2\n% c\n1 1e-3 2 2\n";
    let g = held_to_seq(text.as_bytes(), "weighted").unwrap();
    assert_eq!(g.edge_weight(0, 2), Some(1e-3));
    for bad in ["2 0.5 3", "2 0 3 1e-3", "2 x 3 1e-3", "2 0.5 3 inf"] {
        let text = format!("3 3 1\n{bad}\n1 0.5 3 2\n1 1e-3 2 2\n");
        held_to_seq(text.as_bytes(), bad).unwrap_err();
    }
}

/// The `ingest/build` span's count of rows the build had to sort.
fn unsorted_rows(text: &[u8]) -> Option<u64> {
    let rec = Recorder::enabled();
    load_graph_bytes(text, GraphFormat::Metis, &rec, &Budget::unlimited()).unwrap();
    rec.finish("ingest")
        .phase("ingest/build")
        .and_then(|p| p.counter("unsorted_rows"))
}

#[test]
fn unsorted_rows_and_repeats_take_the_merge_path() {
    let sorted = "3 3\n2 3\n1 3\n1 2\n";
    assert_eq!(unsorted_rows(sorted.as_bytes()), Some(0));
    // row 1 out of order; rows 2 and 3 repeat each other (a parallel
    // edge both rows list twice): all three are sorted and merged, as the
    // reference does, and row 1 alone is the same path
    let text = "3 3\n3 2\n1 3 3\n1 2 2\n";
    let g = held_to_seq(text.as_bytes(), "unsorted").unwrap();
    assert_eq!(g.edge_weight(1, 2), Some(2.0));
    assert_eq!(unsorted_rows(text.as_bytes()), Some(3));
    let text = "3 3\n3 2\n1 3\n1 2\n";
    let g = held_to_seq(text.as_bytes(), "one unsorted row").unwrap();
    assert!(g.csr_view().weights.is_empty());
    assert_eq!(unsorted_rows(text.as_bytes()), Some(1));
}

#[test]
fn asymmetry_after_a_comment_points_at_the_recorded_line() {
    // node 3's row lists 4, node 4's row (after two comments) does not
    let text = "% c\n4 2\n2\n% mid\n1\n% again\n%\n4\n\n";
    let err = held_to_seq(text.as_bytes(), "asymmetric").unwrap_err();
    assert_eq!(err.line(), Some(8), "{err}");
    assert_eq!(
        err.to_string(),
        "line 8: asymmetric edge {3, 4}: 3 → 4 has weight 1, 4 → 3 is missing"
    );
    // and past a long run of comments at the cut points
    let comments = "% filler\n".repeat(40);
    let text = format!("3 2\n2 3\n{comments}1\n{comments}\n");
    let err = held_to_seq(text.as_bytes(), "asymmetric, many comments").unwrap_err();
    assert_eq!(err.line(), Some(2), "{err}");
}

/// `text` as a file through the path door on pools of 2 to 7 threads —
/// the body read in blocks by the threads that tokenize it, one piece per
/// thread at 64 KiB or more — against the sequential reference: the same
/// graph by bits, or the same error line and message apart from the path.
fn streamed_held_to_seq(text: &[u8], ctx: &str) {
    assert!(
        text.len() >= 1 << 16,
        "{ctx}: {} bytes read whole",
        text.len()
    );
    let dir = std::env::temp_dir().join(format!("parcom_streamed_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{}.metis", ctx.replace(' ', "_")));
    std::fs::write(&path, text).unwrap();
    for threads in [2, 3, 4, 7] {
        let ctx = format!("{ctx}: threads={threads}");
        let by_path = parcom_graph::parallel::with_threads(threads, || {
            load_graph_auto(&path, &Recorder::disabled(), &Budget::unlimited())
        });
        match (read_metis_seq(text), by_path) {
            (Ok(a), Ok(b)) => assert_same_csr(&a, &b.graph, &ctx),
            (Err(a), Err(b)) => {
                assert_eq!(a.line(), b.line(), "{ctx}: {b}");
                assert_eq!(a.with_path(&path).to_string(), b.to_string(), "{ctx}");
            }
            (a, b) => panic!("{ctx}: seq ok={} streamed ok={}", a.is_ok(), b.is_ok()),
        }
    }
    std::fs::remove_file(&path).ok();
}

/// A path 1-2-…-n as METIS text, with a line of `comment` bytes after
/// row `at`, lines ending in `eol`.
fn path_text(n: usize, at: usize, comment: usize, eol: &str) -> String {
    let mut s = format!("% a path\n{n} {}{eol}", n - 1);
    for v in 1..=n {
        let row: Vec<String> = [v - 1, v + 1]
            .into_iter()
            .filter(|&u| (1..=n).contains(&u))
            .map(|u| u.to_string())
            .collect();
        s.push_str(&row.join(" "));
        s.push_str(eol);
        if v == at {
            s.push('%');
            s.push_str(&"c".repeat(comment));
            s.push_str(eol);
        }
    }
    s
}

#[test]
fn streamed_reads_match_sequential() {
    // plain, CRLF, and no newline after the last row
    streamed_held_to_seq(path_text(20_000, 0, 0, "\n").as_bytes(), "plain");
    streamed_held_to_seq(path_text(20_000, 0, 0, "\r\n").as_bytes(), "crlf");
    let text = path_text(20_000, 0, 0, "\n");
    streamed_held_to_seq(text.trim_end().as_bytes(), "no last newline");
    // a comment line longer than several read blocks, so parts fall
    // inside it and the buffer grows, near the front and in the middle
    for at in [1, 9_000] {
        let text = path_text(20_000, at, 700_000, "\n");
        streamed_held_to_seq(text.as_bytes(), &format!("long comment after {at}"));
    }
    // a hub whose one row is longer than a read block
    let n = 50_000;
    let mut text = format!("{n} {}\n", n - 1);
    text.push_str(&(2..=n).map(|v| v.to_string()).collect::<Vec<_>>().join(" "));
    text.push('\n');
    text.push_str(&"1\n".repeat(n - 1));
    streamed_held_to_seq(text.as_bytes(), "hub");
}

#[test]
fn streamed_errors_match_sequential() {
    let text = path_text(20_000, 0, 0, "\n");
    let lines: Vec<&str> = text.lines().collect();
    for at in [2, 3, 7_001, 10_002, 13_333, 19_999, 20_001] {
        for (kind, bad) in [(0, "x x"), (1, "1 nope"), (2, ""), (3, "999999999")] {
            let mut broken = lines.clone();
            match kind {
                2 => drop(broken.remove(at)),
                _ => broken[at] = bad,
            }
            let broken = broken.join("\n") + "\n";
            streamed_held_to_seq(broken.as_bytes(), &format!("line {at} kind {kind}"));
        }
    }
    // one surplus row, an asymmetric pair, a wrong edge count
    streamed_held_to_seq(format!("{text}1\n").as_bytes(), "surplus");
    streamed_held_to_seq(
        text.replacen("\n1 3\n", "\n1\n", 1).as_bytes(),
        "asymmetric",
    );
    streamed_held_to_seq(
        text.replacen(" 19999\n", " 19998\n", 1).as_bytes(),
        "edge count",
    );
}
