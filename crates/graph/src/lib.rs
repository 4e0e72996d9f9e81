#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # parcom-graph — parallel graph substrate
//!
//! This crate provides the data-structure layer that the community detection
//! algorithms in `parcom-core` are built on, mirroring the role the NetworKit
//! graph class plays in the paper *Engineering Parallel Algorithms for
//! Community Detection in Massive Networks* (Staudt & Meyerhenke):
//!
//! * [`Graph`] — an immutable, undirected, weighted graph in CSR layout with
//!   cache-friendly neighbor scans and rayon-based parallel iteration.
//! * [`GraphBuilder`] — incremental construction with parallel-edge merging.
//! * [`Partition`] / [`AtomicPartition`] — community assignments, the latter a
//!   lock-free label array shared between threads (the paper's benign-race
//!   label updates, made data-race-free with relaxed atomics).
//! * [`coarsening`] — the parallel coarsening scheme of §III-B: contract a
//!   graph according to a partition, folding intra-community weight into
//!   self-loops.
//! * [`coloring`] — deterministic parallel greedy distance-1 coloring with
//!   degree-1 vertex following, driving the conflict-free PLM move phase.
//! * [`scratch`] — generation-stamped flat scratch maps ([`SparseWeightMap`])
//!   replacing hash maps in the label/move kernels' neighborhood
//!   aggregation, with a pool ([`ScratchPool`]) for per-thread reuse.
//! * Analytics used by the experiments: connected components, local
//!   clustering coefficients, degree statistics and degree assortativity
//!   (Table I columns and companions).
//!
//! Node identifiers are `u32` ([`Node`]); edge weights are `f64`.

pub mod assortativity;
pub mod atomicf64;
pub mod builder;
pub mod clustering;
pub mod coarsening;
pub mod coloring;
pub mod components;
pub mod graph;
pub mod hashing;
pub mod parallel;
pub mod partition;
pub mod relabel;
pub mod scratch;
pub mod stats;
pub mod traversal;

pub use assortativity::degree_assortativity;
pub use atomicf64::AtomicF64;
pub use builder::GraphBuilder;
pub use coarsening::{coarsen, coarsen_with, Coarsening};
pub use coloring::Coloring;
pub use graph::{CsrView, Graph, Node};
pub use partition::{AtomicPartition, Partition};
pub use relabel::Relabeling;
pub use scratch::{ScratchPool, SparseWeightMap};

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::builder::GraphBuilder;
    pub use crate::coarsening::{coarsen, coarsen_with, Coarsening};
    pub use crate::graph::{Graph, Node};
    pub use crate::partition::{AtomicPartition, Partition};
    pub use crate::scratch::{ScratchPool, SparseWeightMap};
}
