//! The result of a workspace scan: violations, marker accounting and
//! per-rule timing, printed by the `parcom-audit` binary and asserted on
//! by the tests.

use crate::Violation;

/// Per-rule accounting: how often it fired, how often a marker suppressed
/// it, and how long it ran (summed across files).
#[derive(Clone, Debug, Default)]
pub struct RuleStat {
    /// Unsuppressed findings.
    pub fired: usize,
    /// Findings suppressed by an `audit:allow` marker.
    pub suppressed: usize,
    /// Wall time spent in the rule, microseconds, summed across files.
    pub micros: u64,
}

/// An `audit:allow` marker that suppressed nothing — stale after a fix,
/// or naming a rule that does not exist. Reported as a warning, not a
/// violation: it must not gate CI, but it should not rot in the tree.
#[derive(Clone, Debug)]
pub struct UnusedAllow {
    /// File containing the marker.
    pub file: String,
    /// 1-based line of the marker.
    pub line: u32,
    /// The rule name the marker claims to suppress.
    pub rule: String,
}

/// A full workspace scan: violations, marker accounting and per-rule
/// timing.
#[derive(Debug)]
pub struct AuditReport {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Worker threads the parallel scan used.
    pub threads: usize,
    /// Unsuppressed violations, sorted by (file, line, rule).
    pub violations: Vec<Violation>,
    /// Markers that suppressed nothing.
    pub unused_allows: Vec<UnusedAllow>,
    /// One entry per [`crate::Rule::ALL`] member, same order.
    pub stats: Vec<RuleStat>,
    /// Wall time of the whole scan, microseconds.
    pub elapsed_micros: u64,
}
