#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # parcom-obs — phase-level observability for the parcom workspace
//!
//! The paper's entire evaluation is built on *phase-level* measurements:
//! PLP iteration series (Fig. 1), PLM move-phase vs. coarsening vs.
//! refinement time (Figs. 1/3), per-ensemble-member cost in EPP (Fig. 4).
//! This crate is the measurement substrate those breakdowns are recorded
//! on. It is deliberately dependency-free — it sits below every other
//! workspace crate.
//!
//! Three layers:
//!
//! * [`Recorder`] / [`Span`] ([`timer`]) — scoped, nestable phase timers.
//!   A recorder builds a tree of phases as spans open and close; counters
//!   and series attach to the innermost open span.
//! * [`CounterCell`] / [`LocalCount`] ([`counters`]) — sharded event
//!   counters for parallel hot loops: each worker accumulates into a
//!   plain thread-local integer and merges it into the shared atomic cell
//!   exactly once, when the worker's local state drops at span close.
//! * [`RunReport`] / [`PhaseReport`] ([`report`]) — the structured result:
//!   algorithm name, per-phase wall time, counters, iteration series,
//!   final quality metrics and nested sub-reports (EPP ensemble members),
//!   with hand-rolled JSON serialization ([`json`], schema
//!   `parcom-run-report/v2`).
//!
//! ## Kill switches
//!
//! Instrumentation must never tax a production run that does not want it:
//!
//! * **Code:** [`Recorder::disabled`] is the no-op recorder every
//!   un-instrumented entry point (`detect`) runs under.
//! * **Env:** `PARCOM_OBS=0` (also `off`/`false`/`no`) makes
//!   [`Recorder::from_env`] return the disabled recorder.
//!
//! A disabled recorder records nothing: spans are no-op guards, counters
//! and series are discarded, and [`Recorder::finish`] returns an empty
//! report carrying only the algorithm name.

pub mod counters;
pub mod json;
pub mod report;
pub mod timer;

pub use counters::{CounterCell, LocalCount};
pub use report::{PhaseReport, RunReport, SCHEMA};
pub use timer::{Recorder, Span};
