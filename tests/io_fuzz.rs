//! Failure-injection tests: the readers must return errors — never panic,
//! hang or produce inconsistent graphs — on arbitrary and adversarial
//! input.

use parcom::graph::Graph;
use parcom::io::{load_graph_bytes, partition_io, GraphFormat, IoError};
use parcom_guard::Budget;
use parcom_obs::Recorder;
use proptest::prelude::*;

/// Text of `format` through the one decoder.
fn decode(input: &str, format: GraphFormat) -> Result<Graph, IoError> {
    load_graph_bytes(
        input.as_bytes(),
        format,
        &Recorder::disabled(),
        &Budget::unlimited(),
    )
    .map(|l| l.graph)
}

/// Whether the numeric soup is a valid METIS file: one line per node,
/// every id in `1..=n`, each pair listed as often by one endpoint's line
/// as by the other's (unit weights merge to the count), and `m` the number
/// of distinct pairs, self-loops included.
fn soup_is_valid(n: u32, m: u32, rows: &[&[u32]]) -> bool {
    let listed = |u: u32, v: u32| rows[u as usize - 1].iter().filter(|&&x| x == v).count();
    let in_range = rows
        .iter()
        .flat_map(|r| r.iter())
        .all(|&v| (1..=n).contains(&v));
    if rows.len() != n as usize || !in_range {
        return false;
    }
    let mut pairs = std::collections::BTreeSet::new();
    for (u, row) in (1..).zip(rows) {
        for &v in row.iter() {
            if listed(u, v) != listed(v, u) {
                return false;
            }
            pairs.insert((u.min(v), u.max(v)));
        }
    }
    pairs.len() == m as usize
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn metis_reader_never_panics(input in ".{0,400}") {
        if let Ok(g) = decode(&input, GraphFormat::Metis) {
            prop_assert_eq!(g.validate(), Ok(()));
        }
    }

    #[test]
    fn metis_reader_never_panics_on_numeric_soup(
        nums in proptest::collection::vec(0u32..2000, 0..120),
        n in 0u32..50,
        m in 0u32..100,
    ) {
        let rows: Vec<&[u32]> = nums.chunks(7).collect();
        let mut input = format!("{n} {m}\n");
        for row in &rows {
            let line: Vec<String> = row.iter().map(u32::to_string).collect();
            input.push_str(&line.join(" "));
            input.push('\n');
        }
        let decoded = decode(&input, GraphFormat::Metis);
        if let Ok(g) = &decoded {
            prop_assert_eq!(g.validate(), Ok(()));
        }
        let valid = soup_is_valid(n, m, &rows);
        prop_assert!(decoded.is_ok() == valid, "valid = {valid}: {input}");
    }

    #[test]
    fn edge_list_reader_never_panics(input in ".{0,400}") {
        if let Ok(g) = decode(&input, GraphFormat::EdgeList) {
            prop_assert_eq!(g.validate(), Ok(()));
        }
    }

    #[test]
    fn edge_list_accepts_all_valid_pairs(
        pairs in proptest::collection::vec((0u64..1000, 0u64..1000), 1..60)
    ) {
        let input: String = pairs
            .iter()
            .map(|(u, v)| format!("{u} {v}\n"))
            .collect();
        let g = decode(&input, GraphFormat::EdgeList).unwrap();
        prop_assert_eq!(g.validate(), Ok(()));
        prop_assert!(g.node_count() <= 2 * pairs.len());
    }

    #[test]
    fn partition_reader_never_panics(input in ".{0,400}") {
        let _ = partition_io::read_partition_from(input.as_bytes());
    }

    #[test]
    fn partition_roundtrip_arbitrary_ids(
        ids in proptest::collection::vec(0u32..u32::MAX / 2, 0..200)
    ) {
        let p = parcom::graph::Partition::from_vec(ids);
        let mut buf = Vec::new();
        partition_io::write_partition_to(&p, &mut buf).unwrap();
        let q = partition_io::read_partition_from(buf.as_slice()).unwrap();
        prop_assert_eq!(p.as_slice(), q.as_slice());
    }
}

#[test]
fn metis_truncated_inputs_error_cleanly() {
    for input in [
        "3",             // header only, no counts
        "3 2\n1",        // fewer lines than nodes... (line is node 1's adjacency)
        "2 1 1\n2\n1\n", // weighted flag but missing weights
        "1 0\n2\n",      // neighbor beyond n
        "abc def\n",     // garbage header
    ] {
        let r = decode(input, GraphFormat::Metis);
        assert!(r.is_err(), "input {input:?} should fail");
    }
}

#[test]
fn io_error_messages_carry_line_numbers() {
    let err = decode("2 1\nxyz\n1\n", GraphFormat::Metis).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("line 2"), "unhelpful error: {msg}");
}
