#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # parcom — parallel community detection in massive networks
//!
//! A Rust reproduction of Staudt & Meyerhenke, *Engineering Parallel
//! Algorithms for Community Detection in Massive Networks*: the parallel
//! label propagation (PLP), parallel Louvain (PLM/PLMR) and ensemble
//! preprocessing (EPP) community detection algorithms, the substrate they
//! run on, every competitor the paper evaluates against, and a benchmark
//! harness regenerating the paper's tables and figures.
//!
//! This facade re-exports the workspace crates under stable module names:
//!
//! * [`graph`] — CSR graphs, partitions, parallel coarsening, analytics
//!   (components, clustering coefficients, assortativity).
//! * [`generators`] — LFR, R-MAT/Kronecker, planted partition,
//!   Barabási–Albert, Watts–Strogatz, grids, cliques.
//! * [`community`] — the detection algorithms and quality/similarity
//!   measures.
//! * [`io`] — METIS, edge-list, `.pcg` binary, partition and DOT formats.
//!
//! # Quickstart
//!
//! ```
//! use parcom::community::{quality::modularity, CommunityDetector, Plm};
//! use parcom::graph::GraphBuilder;
//!
//! // two triangles joined by one edge
//! let mut b = GraphBuilder::new(6);
//! for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)] {
//!     b.add_unweighted_edge(u, v);
//! }
//! let g = b.build();
//!
//! let communities = Plm::new().detect(&g);
//! assert_eq!(communities.number_of_subsets(), 2);
//! assert!(modularity(&g, &communities) > 0.3);
//! ```

pub use parcom_core as community;
pub use parcom_generators as generators;
pub use parcom_graph as graph;
pub use parcom_io as io;

/// The most commonly used items across all crates.
pub mod prelude {
    pub use parcom_core::prelude::*;
    pub use parcom_generators::{lfr, LfrParams};
    pub use parcom_graph::prelude::*;
}
