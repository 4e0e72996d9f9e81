//! The rule implementations, split by concern.
//!
//! Every intra-file rule is a pure function `&FileModel -> Vec<RawViolation>`
//! registered in [`FILE_RULES`]; the framework in `lib.rs` owns
//! allow-marker filtering, per-line dedup, excerpts, per-rule timing and
//! marker-usage accounting, so a rule only states *where it fires*. The
//! two workspace rules (`budget-propagation`, `unreachable-pub`) run over
//! all file models at once and are registered in [`WORKSPACE_RULES`].
//!
//! To add a rule: add a variant to [`crate::Rule`] (name + doc), write
//! the `fn(&FileModel) -> Vec<RawViolation>` here, register it in
//! [`FILE_RULES`], add one tripping and one clean fixture under
//! `tests/fixtures/`, and document it in DESIGN.md §12.

pub mod basic;
pub mod budget;
pub mod orderings;
pub mod parallel;
pub mod reach;

use crate::callgraph::ChainLink;
use crate::model::FileModel;
use crate::Rule;

/// A rule firing before the framework applies allow-markers, dedup and
/// excerpts.
#[derive(Clone, Debug)]
pub struct RawViolation {
    /// 1-based line of the finding.
    pub line: u32,
    /// 1-based column of the finding's first token.
    pub col: u32,
    /// Extra human-readable evidence (e.g. the par-call site a lock guard
    /// is still live at).
    pub note: Option<String>,
    /// Call-chain evidence for interprocedural findings (root first).
    pub chain: Vec<ChainLink>,
}

impl RawViolation {
    /// A finding at a position, no extra evidence.
    pub fn at(line: u32, col: u32) -> Self {
        Self {
            line,
            col,
            note: None,
            chain: Vec::new(),
        }
    }

    /// Attaches a note.
    pub fn with_note(mut self, note: String) -> Self {
        self.note = Some(note);
        self
    }
}

/// Signature of an intra-file rule.
pub type FileRuleFn = fn(&FileModel) -> Vec<RawViolation>;

/// Signature of a rule over every file at once: `(file index, finding)`
/// pairs.
pub type WorkspaceRuleFn = fn(&[FileModel]) -> Vec<(usize, RawViolation)>;

/// The rules that need the workspace call graph.
pub const WORKSPACE_RULES: &[(Rule, WorkspaceRuleFn)] = &[
    (Rule::BudgetPropagation, budget::propagation),
    (Rule::UnreachablePub, reach::unreachable_pub),
];

/// Every intra-file rule with its [`Rule`] tag, in reporting order.
pub const FILE_RULES: &[(Rule, FileRuleFn)] = &[
    (Rule::AtomicOrdering, orderings::atomic_ordering),
    (Rule::StaticMut, basic::static_mut),
    (Rule::UnsafeCode, basic::unsafe_code),
    (Rule::PartialCmpUnwrap, basic::partial_cmp_unwrap),
    (Rule::LossyCast, basic::lossy_cast),
    (Rule::BudgetCheck, budget::budget_check),
    (Rule::LockAcrossParallel, parallel::lock_across_parallel),
    (Rule::PanicInParallel, parallel::panic_in_parallel),
    (Rule::OrderingEscalation, orderings::ordering_escalation),
];
