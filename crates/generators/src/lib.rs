#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # parcom-generators — synthetic network generators
//!
//! The paper evaluates on a corpus of real-world graphs (DIMACS / SNAP) plus
//! synthetic instances. The real data sets are not redistributable here, so
//! this crate provides generators whose outputs mirror the *structural
//! categories* of the corpus (see DESIGN.md §2):
//!
//! * [`rmat`] — R-MAT / Kronecker graphs (web graphs, `kron_g500`); the weak
//!   scaling series of Fig. 10 uses the paper's exact parameters.
//! * [`lfr`] — the LFR community-detection benchmark of Fig. 8 (power-law
//!   degrees and community sizes, ground-truth communities, mixing μ).
//! * [`planted_partition`] — the `G(n, p_in, p_out)` model behind the
//!   `G_n_pin_pout` instance.
//! * [`barabasi_albert`] — heavy-tailed internet-topology-like graphs.
//! * [`watts_strogatz`] — small-world / power-grid-like graphs.
//! * [`grid`] — near-planar street-network-like meshes (europe-osm).
//! * [`cliques`] — ring-of-cliques toys with unambiguous ground truth.
//! * [`erdos_renyi`] — the unstructured null model.
//!
//! All generators are deterministic in their `seed` argument.

pub mod barabasi_albert;
pub mod cliques;
pub mod config_model;
pub mod erdos_renyi;
pub mod grid;
pub mod karate;
pub mod lfr;
pub mod planted_partition;
pub mod powerlaw;
pub mod rmat;
pub mod watts_strogatz;

pub use barabasi_albert::barabasi_albert;
pub use cliques::ring_of_cliques;
pub use erdos_renyi::erdos_renyi;
pub use grid::grid2d;
pub use karate::karate_club;
pub use lfr::{lfr, LfrParams};
pub use planted_partition::{planted_partition, PlantedPartitionParams};
pub use rmat::{rmat, RmatParams};
pub use watts_strogatz::watts_strogatz;
