//! The uniform `IoError` contract: every reader's error carries the file
//! path (when entered through a path) and the offending line number (when
//! the parser knows it), and `Display` leads with `path:line:`.

use parcom_core::Budget;
use parcom_io::{
    load_graph_auto, load_graph_bytes, read_partition, GraphFormat, IoError, IoErrorKind,
    LoadedGraph,
};
use parcom_obs::Recorder;
use std::path::{Path, PathBuf};

fn write_temp(name: &str, contents: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("parcom_io_error_context");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap();
    path
}

/// A graph file through the path door, unlimited.
fn load(path: &Path) -> Result<LoadedGraph, IoError> {
    load_graph_auto(path, &Recorder::disabled(), &Budget::unlimited())
}

/// The error must name the path and the 1-based line, in `path:line:` form.
fn assert_located(err: &IoError, path: &Path, line: usize) {
    assert_eq!(err.path(), Some(path), "missing path context: {err}");
    assert_eq!(err.line(), Some(line), "wrong line context: {err}");
    let display = err.to_string();
    let expected_prefix = format!("{}:{line}: ", path.display());
    assert!(
        display.starts_with(&expected_prefix),
        "`{display}` does not start with `{expected_prefix}`"
    );
}

/// [`assert_located`], and the error is a parse error.
fn assert_context(err: &IoError, path: &Path, line: usize) {
    assert_located(err, path, line);
    assert!(matches!(err.kind(), IoErrorKind::Parse(_)));
}

#[test]
fn edgelist_errors_carry_path_and_line() {
    let path = write_temp("bad.edges", "# fine\n0 1\nnot numbers\n");
    let err = load(&path).unwrap_err();
    assert_context(&err, &path, 3);
}

#[test]
fn metis_errors_carry_path_and_line() {
    let path = write_temp("bad.metis", "2 1\n2\nbogus\n");
    let err = load(&path).unwrap_err();
    assert_context(&err, &path, 3);
}

#[test]
fn metis_header_errors_point_at_the_header() {
    let path = write_temp("bad_header.metis", "% comment\nonly-one-field\n");
    let err = load(&path).unwrap_err();
    assert_context(&err, &path, 2);
}

#[test]
fn partition_errors_carry_path_and_line() {
    let path = write_temp("bad.ptn", "0\n1\nx\n");
    let err = read_partition(&path).unwrap_err();
    assert_context(&err, &path, 3);
}

#[test]
fn missing_file_carries_path_but_no_line() {
    let path = std::env::temp_dir().join("parcom_io_error_context/does_not_exist.graph");
    let err = load(&path).unwrap_err();
    assert_eq!(err.path(), Some(path.as_path()));
    assert_eq!(err.line(), None);
    assert!(matches!(err.kind(), IoErrorKind::Io(_)));
    let display = err.to_string();
    assert!(
        display.starts_with(&format!("{}: ", path.display())),
        "`{display}` lacks path prefix"
    );
}

#[test]
fn whole_file_checks_carry_the_last_line() {
    // edge-count mismatch is only detectable after the whole file is
    // read; the error still anchors at the last line read so the message
    // keeps the `path:line:` shape
    let path = write_temp("mismatch.metis", "3 2\n2\n1\n\n");
    let err = load(&path).unwrap_err();
    assert!(err.to_string().contains("header claims"));
    assert_context(&err, &path, 4);

    let path = write_temp("short.metis", "4 2\n2\n1\n");
    let err = load(&path).unwrap_err();
    assert!(err.to_string().contains("expected 4 adjacency lines"));
    assert_context(&err, &path, 3);
}

#[test]
fn ingest_limit_rejections_carry_path_and_line() {
    // the header claims more nodes than the budget admits; the reader
    // must reject before parsing the (bogus) body, with full context
    let path = write_temp("huge.metis", "% big\n5000 10\nnot a body\n");
    let budget = Budget::unlimited().with_input_limits(1000, 100_000);
    let err = load_graph_auto(&path, &Recorder::disabled(), &budget).unwrap_err();
    assert!(err.to_string().contains("ingest limit"), "{err}");
    // too big, not malformed: the typed kind the daemon answers 413 for
    assert_located(&err, &path, 2);
    assert!(matches!(err.kind(), IoErrorKind::Limit(_)), "{err}");

    // an edge list has no header: it is admitted after its build, with
    // the path but no line
    let path = write_temp("huge.edges", "0 1\n1 2\n2 3\n");
    let budget = Budget::unlimited().with_input_limits(2, 100);
    let err = load_graph_auto(&path, &Recorder::disabled(), &budget).unwrap_err();
    assert!(err.to_string().contains("ingest limit"), "{err}");
    assert!(matches!(err.kind(), IoErrorKind::Limit(_)), "{err}");
    assert_eq!(err.path(), Some(path.as_path()));
    assert_eq!(err.line(), None);
}

#[test]
fn implausible_edge_claims_carry_path_and_line() {
    let path = write_temp("corrupt.metis", "2 9\n2\n1\n");
    let err = load(&path).unwrap_err();
    assert!(err.to_string().contains("complete graph"), "{err}");
    assert_context(&err, &path, 1);
}

#[test]
fn reader_entry_points_have_line_but_no_path() {
    let err = load_graph_bytes(
        b"2 1\n2\nbogus\n",
        GraphFormat::Metis,
        &Recorder::disabled(),
        &Budget::unlimited(),
    )
    .unwrap_err();
    assert_eq!(err.path(), None);
    assert_eq!(err.line(), Some(3));
    assert!(err.to_string().starts_with("line 3: "), "{err}");
}

#[test]
fn good_files_round_trip_through_paths() {
    let (g, _) = parcom_generators::ring_of_cliques(3, 4);
    let path = std::env::temp_dir().join("parcom_io_error_context/ok.metis");
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    parcom_io::write_metis(&g, &path).unwrap();
    let g2 = load(&path).unwrap().graph;
    assert_eq!(g.edge_count(), g2.edge_count());
}
