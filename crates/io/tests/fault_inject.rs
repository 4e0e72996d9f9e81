//! Abort-path tests for the `io/chunk-parse` fault-injection site: a panic
//! mid-parse unwinds without wedging the reader, and a cooperative cancel
//! planted during ingest aborts the guarded detection that follows.
//!
//! Compiled only under `--features fault-inject`.
#![cfg(feature = "fault-inject")]

use parcom_core::{Budget, CancelToken, CommunityDetector, Plm, Termination};
use parcom_graph::Graph;
use parcom_guard::fault::{serial_guard, FaultAction, FaultPlan};
use parcom_io::{load_graph_bytes, GraphFormat, IoError};
use parcom_obs::Recorder;
use std::panic::catch_unwind;

const FILE: &str = "4 4\n2 3\n1 3\n1 2 4\n3\n";

fn read_metis(text: &str) -> Result<Graph, IoError> {
    load_graph_bytes(
        text.as_bytes(),
        GraphFormat::Metis,
        &Recorder::disabled(),
        &Budget::unlimited(),
    )
    .map(|l| l.graph)
}

#[test]
fn chunk_parse_panic_unwinds_and_reader_recovers() {
    let _g = serial_guard();
    FaultPlan::clear();
    FaultPlan::arm("io/chunk-parse", 1, FaultAction::Panic);
    assert!(catch_unwind(|| read_metis(FILE)).is_err());
    FaultPlan::clear();
    // the unwind left nothing poisoned: the same parse succeeds
    let g = read_metis(FILE).unwrap();
    assert_eq!(g.node_count(), 4);
    assert_eq!(g.edge_count(), 4);
}

#[test]
fn chunk_parse_cancel_aborts_the_downstream_run() {
    let _g = serial_guard();
    FaultPlan::clear();
    let token = CancelToken::new();
    FaultPlan::arm("io/chunk-parse", 1, FaultAction::Cancel(token.clone()));
    // the cancel is cooperative: ingest itself completes...
    let g = read_metis(FILE).unwrap();
    assert!(token.is_cancelled());
    assert_eq!(FaultPlan::crossings("io/chunk-parse"), 1);
    // ...and the guarded detection sharing the token aborts at preflight
    // with a well-formed degraded result
    let budget = Budget::unlimited().with_token(token);
    let r = Plm::new().detect_guarded(&g, &budget);
    assert_eq!(r.termination, Termination::Cancelled);
    assert_eq!(r.partition.len(), g.node_count());
    assert_eq!(r.report.termination.as_deref(), Some("cancelled"));
    FaultPlan::clear();
}

#[test]
fn derived_k_matrix_is_deterministic_across_sites() {
    // the seeded K derivation used by the fault matrix stays stable and in
    // range for every planted site
    for seed in 0..8u64 {
        for site in [
            "io/chunk-parse",
            "graph/csr-assembly",
            "graph/coarsen-merge",
            "core/epp-member",
        ] {
            let k = FaultPlan::derive_k(seed, site, 5);
            assert_eq!(k, FaultPlan::derive_k(seed, site, 5));
            assert!((1..=5).contains(&k));
        }
    }
}
