#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # parcom-bench — the experiment harness
//!
//! One `cargo bench` target per table/figure of the paper (see DESIGN.md §3
//! for the index). This library holds what the targets share: the instance
//! suite standing in for the paper's graph corpus, the algorithm registry,
//! and timing/score utilities (including the Pareto scores of §V-F).

pub mod harness;
pub mod suite;

pub use harness::{geometric_mean, time, Measurement};
pub use suite::{
    massive_graph, massive_quality_graph, standard_suite, weak_scaling_series, Instance,
};
