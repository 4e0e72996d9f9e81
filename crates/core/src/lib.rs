#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # parcom-core — parallel community detection algorithms
//!
//! The paper's contribution (Staudt & Meyerhenke, *Engineering Parallel
//! Algorithms for Community Detection in Massive Networks*) and every
//! competitor it evaluates against:
//!
//! | Algorithm | Paper role | Type |
//! |---|---|---|
//! | [`Plp`] | §III-A | parallel label propagation (ours) |
//! | [`Plm`] | §III-B | parallel Louvain method (ours) |
//! | [`Plm::with_refinement`] (PLMR) | §III-C | PLM + per-level refinement (ours) |
//! | [`Epp`] | §III-D | ensemble preprocessing over PLP + PLM/PLMR (ours) |
//! | [`EppIterated`] (EML) | §III-D | the same scheme, iterated |
//! | [`Louvain`] | §V-E a | original sequential Louvain |
//! | [`Pam`] | §V-E b | CLU_TBB-like parallel matching agglomeration |
//! | [`Pam::cel`] | §V-E b | CEL-like plain matching agglomeration |
//! | [`Cnm`] | §II | globally greedy agglomeration |
//! | [`Rg`] | §V-E c | randomized greedy agglomeration |
//! | [`Cggc`] / [`Cggc::iterated`] | §V-E c | the ensemble scheme of [`epp`] over RG |
//!
//! Plus the measurement layer: modularity/coverage ([`quality`]), partition
//! similarity ([`compare`]; Jaccard for Fig. 8), consensus combination
//! ([`combine`]) and community graphs ([`community_graph`]; Fig. 11).

pub mod agglomeration;
pub mod algorithm;
pub mod cggc;
pub mod cnm;
pub mod combine;
pub mod community_graph;
pub mod community_stats;
pub mod compare;
pub mod epp;
pub mod louvain;
pub mod moves;
pub mod pam;
pub mod plm;
pub mod plp;
pub mod quality;
pub mod rg;
pub mod spec;

pub use algorithm::{CommunityDetector, GuardedResult, StartState};
pub use cggc::Cggc;
pub use cnm::Cnm;
pub use community_graph::CommunityGraph;
pub use community_stats::{community_stats, partition_summary, CommunityStat, PartitionSummary};
pub use epp::{Epp, EppIterated};
pub use louvain::Louvain;
pub use moves::MoveStrategy;
pub use pam::Pam;
pub use plm::{move_phase, Plm};
pub use plp::{Plp, SeedPerturbation};
pub use rg::Rg;
pub use spec::{DetectorSpec, SpecError};

// The observability layer the detectors report through, re-exported so
// downstream users of `detect_with_report` need no direct obs dependency.
pub use parcom_obs::{PhaseReport, Recorder, RunReport};

// The guard layer `detect_guarded` is driven by, re-exported for the same
// reason: budgets and termination causes are part of the detector API.
pub use parcom_guard::{Budget, CancelToken, Termination};

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::algorithm::{CommunityDetector, GuardedResult, StartState};
    pub use crate::compare::{adjusted_rand_index, jaccard_index, nmi};
    pub use crate::quality::{coverage, modularity, modularity_gamma};
    pub use crate::spec::DetectorSpec;
    pub use crate::{Cggc, Cnm, Epp, Louvain, Pam, Plm, Plp, Rg};
    pub use parcom_guard::{Budget, CancelToken, Termination};
    pub use parcom_obs::{Recorder, RunReport};
}
