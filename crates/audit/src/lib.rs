#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # parcom-audit — concurrency-discipline lint for the parcom workspace
//!
//! A dependency-free static-analysis pass enforcing the workspace's
//! concurrency and robustness rules. It is deliberately *syntactic*, not
//! a compiler plugin: source is lexed into a token stream ([`lexer`]),
//! braces become a scope tree ([`scopes`]), `fn` items with their loops,
//! call sites and `budget: &Budget` parameters become a per-file model
//! ([`model`]), and a workspace-level name-based call graph
//! ([`callgraph`]) supports two workspace rules. That is enough for
//! discipline rules — and it keeps the audit dependency-free and fast
//! enough to run on every push.
//!
//! ## Rules
//!
//! | rule | meaning |
//! |------|---------|
//! | `atomic-ordering` | atomic `Ordering::*` variants only in allowlisted modules |
//! | `static-mut` | no `static mut` anywhere |
//! | `unsafe-code` | no `unsafe` outside the two allowlisted modules ([`UNSAFE_ALLOWED`]) |
//! | `partial-cmp-unwrap` | no `partial_cmp(..).unwrap()/expect(..)` comparators — use `total_cmp` |
//! | `lossy-cast` | no truncating `as u32`/`as Node` casts of counts outside annotated sites |
//! | `budget-check` | outermost heavy loops in `budget: &Budget` functions must call `budget.check*` |
//! | `budget-propagation` | heavy helpers reachable from a budgeted function must take the budget |
//! | `lock-across-parallel` | no `.lock()`/`.borrow_mut()` guard live across a parallel call |
//! | `panic-in-parallel` | no `unwrap`/`expect`/`panic!` inside rayon closures outside tests |
//! | `ordering-escalation` | allowlisted atomics stay at the documented `Relaxed`/`Acquire` strength |
//! | `unreachable-pub` | every `pub fn` is reached from a [`REACH_ROOTS`] file, or says why it exists |
//!
//! ## Allow markers
//!
//! Any finding can be suppressed with `// audit:allow(<rule>): <why>` —
//! trailing the offending line, trailing the first line of the enclosing
//! statement, or on the run of comment lines directly above it (which is
//! how a marker covers an item behind `#[…]` attributes). The marker
//! doubles as in-tree documentation that the site is deliberate, so the
//! justification after the colon is expected. Markers that suppress
//! nothing are reported as warnings (not violations): a stale marker
//! after a fix should be deleted, and a typo'd rule name should not
//! silently disable nothing.

use std::fmt;
use std::path::Path;
use std::time::Instant;

pub mod callgraph;
pub mod lexer;
pub mod model;
pub mod report;
pub mod rules;
pub mod scopes;

use callgraph::ChainLink;
use model::FileModel;
use report::{AuditReport, RuleStat, UnusedAllow};
use rules::RawViolation;

/// The lint rules the audit enforces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Atomic memory-`Ordering` variants outside allowlisted modules.
    /// Concentrating every `Relaxed`/`Acquire`/… decision in a handful of
    /// reviewed files is what keeps the paper's "benign race" arguments
    /// auditable.
    AtomicOrdering,
    /// `static mut` is never acceptable: it is unsynchronized shared
    /// mutable state with no owner.
    StaticMut,
    /// `unsafe` code outside the [`UNSAFE_ALLOWED`] modules (every other
    /// file builds under `forbid`/`deny(unsafe_code)`).
    UnsafeCode,
    /// `partial_cmp(..).unwrap()` (or `.expect(..)`) in comparator
    /// position: panics on NaN mid-sort; `f64::total_cmp` is the total
    /// order that cannot fail.
    PartialCmpUnwrap,
    /// Truncating casts of node/edge counts (`.len() as u32`,
    /// `node_count() as u32`, …) outside annotated sites. A graph with
    /// more than `u32::MAX` nodes silently wraps ids.
    LossyCast,
    /// A function that accepts `budget: &Budget` promises cooperative
    /// cancellation. Its *outermost* loops that do real work (contain a
    /// nested loop or a `par_*` call) must check the budget somewhere in
    /// the body; otherwise a deadline or cancel can go unnoticed for an
    /// entire run. Single-level bookkeeping loops are exempt — budget
    /// checks are amortized at sweep/merge granularity by design, never
    /// per element.
    BudgetCheck,
    /// The interprocedural closure of `budget-check`: a *heavy* function
    /// (parallel region or multi-level loop) reachable through the call
    /// graph from a `budget: &Budget` function must itself take the
    /// budget — otherwise the cancellation promise silently ends at the
    /// first helper call. Evidence carries the call chain from the
    /// budgeted root to the offender.
    BudgetPropagation,
    /// A `.lock()`/`.borrow_mut()` guard still live where a parallel
    /// region is issued: workers contending for the held lock serialize
    /// the "parallel" section (or deadlock on a re-entrant borrow). Drop
    /// the guard — scoped or explicit `drop()` — before fanning out.
    LockAcrossParallel,
    /// `unwrap()`/`expect(..)`/`panic!`-family inside a closure fed to a
    /// rayon call chain, outside tests. One panicking worker tears down
    /// the whole pool mid-run; parallel closures must stay total.
    PanicInParallel,
    /// Inside the `ORDERING_ALLOWED` modules, any ordering stronger than
    /// the documented `Relaxed`/`Acquire` protocol (`Release`, `AcqRel`,
    /// `SeqCst`). The allowlist says *where* atomics may live; this rule
    /// pins *how strong* they may be without a fresh review.
    OrderingEscalation,
    /// A non-test `pub fn` that no root ([`REACH_ROOTS`]) reaches through
    /// the name-based walk: dead surface, or a reference implementation or
    /// test fixture that must say so with a marker naming what it serves.
    /// Below `pub`, rustc's `dead_code` lint already does this job.
    UnreachablePub,
}

impl Rule {
    /// Every rule, in reporting order.
    pub const ALL: [Rule; 11] = [
        Rule::AtomicOrdering,
        Rule::StaticMut,
        Rule::UnsafeCode,
        Rule::PartialCmpUnwrap,
        Rule::LossyCast,
        Rule::BudgetCheck,
        Rule::BudgetPropagation,
        Rule::LockAcrossParallel,
        Rule::PanicInParallel,
        Rule::OrderingEscalation,
        Rule::UnreachablePub,
    ];

    /// The kebab-case name used in diagnostics and `audit:allow(..)`.
    pub fn name(self) -> &'static str {
        match self {
            Rule::AtomicOrdering => "atomic-ordering",
            Rule::StaticMut => "static-mut",
            Rule::UnsafeCode => "unsafe-code",
            Rule::PartialCmpUnwrap => "partial-cmp-unwrap",
            Rule::LossyCast => "lossy-cast",
            Rule::BudgetCheck => "budget-check",
            Rule::BudgetPropagation => "budget-propagation",
            Rule::LockAcrossParallel => "lock-across-parallel",
            Rule::PanicInParallel => "panic-in-parallel",
            Rule::OrderingEscalation => "ordering-escalation",
            Rule::UnreachablePub => "unreachable-pub",
        }
    }

    /// Stable index into [`Rule::ALL`]-ordered tables.
    pub fn idx(self) -> usize {
        self as usize
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One diagnostic: a rule fired at a `file:line` site.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Path of the offending file (as passed to the scanner).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column of the finding's first token.
    pub column: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// The offending source line, trimmed.
    pub excerpt: String,
    /// Extra human-readable evidence, when the rule has any.
    pub note: Option<String>,
    /// Call-chain evidence (budget-propagation), root first.
    pub call_chain: Vec<ChainLink>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.excerpt
        )?;
        if let Some(note) = &self.note {
            write!(f, "\n    note: {note}")?;
        }
        for link in &self.call_chain {
            write!(f, "\n    via: {link}")?;
        }
        Ok(())
    }
}

/// Files in which atomic `Ordering::*` variants are permitted. Every entry
/// is a workspace-relative path suffix; the set is the reviewed core of the
/// shared-memory design (the atomics themselves plus the two algorithms
/// whose benign-race protocols the paper describes) and the stress tests
/// that exercise those protocols.
pub const ORDERING_ALLOWED: &[&str] = &[
    "crates/graph/src/atomicf64.rs",
    "crates/graph/src/partition.rs",
    "crates/graph/src/coarsening.rs",
    "crates/graph/tests/stress_interleaving.rs",
    "crates/core/src/plp.rs",
    "crates/core/src/plm.rs",
    // sharded observability counters: one Relaxed fetch_add per worker
    "crates/obs/src/counters.rs",
    // cancellation token flag and the shared sweep counter: single-word
    // monotonic flags, Relaxed is sufficient and reviewed
    "crates/guard/src/lib.rs",
    // the executor: a Relaxed chunk cursor, two Relaxed poll hints whose
    // truth is re-read under the pool's mutex, and the Acquire/Release
    // gate that hands the pool from one caller to the next
    "shims/rayon/src/pool.rs",
];

/// Files in which `unsafe` is permitted. parcom-serve and the rayon shim
/// deny `unsafe_code` and lift it in one module-scoped `allow` each, every
/// other library crate forbids it, and this lint keeps the list of
/// exceptions in one reviewable place.
pub const UNSAFE_ALLOWED: &[&str] = &[
    // the daemon's signal-capture shim for graceful shutdown (DESIGN.md §16)
    "crates/serve/src/signal.rs",
    // the executor lends a region's stack-borrowing job to persistent
    // worker threads: one lifetime erasure, argued in place (DESIGN.md §17)
    "shims/rayon/src/pool.rs",
];

/// Where the `unreachable-pub` walk starts: every identifier in a file
/// under one of these workspace-relative prefixes is a root, test code
/// included — the consumers that define what the libraries are *for*.
/// `benchmark/` is the frozen-symbol consumer (its self-tests are what
/// keep `karate_club` reached); `crates/bench/` counts until its figure
/// targets are ported.
pub const REACH_ROOTS: &[&str] = &[
    "crates/cli/",
    "crates/serve/src/bin/",
    "crates/audit/src/main.rs",
    "examples/",
    "benchmark/",
    "crates/bench/",
];

/// True when a path (normalized to `/` separators) ends in one of the
/// allowlisted suffixes — or when an allowlist entry ends in the path,
/// which happens when the scan is rooted inside the crate (auditing
/// `crates/serve` reports `src/signal.rs`, a suffix of the workspace
/// entry `crates/serve/src/signal.rs`).
pub fn path_allowed(path: &str, allowlist: &[&str]) -> bool {
    let normalized = path.replace('\\', "/");
    allowlist
        .iter()
        .any(|suffix| normalized.ends_with(suffix) || suffix.ends_with(normalized.as_str()))
}

/// The per-file slice of a scan: violations, marker usage, per-rule
/// accounting.
#[derive(Debug, Default)]
struct FileScan {
    violations: Vec<Violation>,
    /// Indices into the file's `allows` that suppressed something.
    used_markers: Vec<usize>,
    /// Per-rule (fired, suppressed, micros), [`Rule::ALL`] order.
    stats: Vec<RuleStat>,
}

fn make_violation(model: &FileModel, rule: Rule, raw: RawViolation) -> Violation {
    Violation {
        file: model.path.clone(),
        line: raw.line as usize,
        column: raw.col as usize,
        rule,
        excerpt: model.excerpt(raw.line),
        note: raw.note,
        call_chain: raw.chain,
    }
}

/// Runs every intra-file rule over one model, applying allow-markers and
/// per-(rule, line) dedup (two findings of one rule on one line — say two
/// `unwrap()`s — report once, like the line-oriented scanner did).
fn apply_file_rules(model: &FileModel) -> FileScan {
    let mut scan = FileScan {
        stats: vec![RuleStat::default(); Rule::ALL.len()],
        ..FileScan::default()
    };
    for &(rule, run) in rules::FILE_RULES {
        let t0 = Instant::now();
        let mut seen_lines: Vec<u32> = Vec::new();
        for raw in run(model) {
            if seen_lines.contains(&raw.line) {
                continue;
            }
            seen_lines.push(raw.line);
            match model.find_allow(rule.name(), raw.line) {
                Some(marker) => {
                    scan.used_markers.push(marker);
                    scan.stats[rule.idx()].suppressed += 1;
                }
                None => {
                    scan.stats[rule.idx()].fired += 1;
                    scan.violations.push(make_violation(model, rule, raw));
                }
            }
        }
        scan.stats[rule.idx()].micros += t0.elapsed().as_micros() as u64;
    }
    scan
}

/// Runs the [`rules::WORKSPACE_RULES`] over a set of models and folds
/// their findings into the per-file scans (marker accounting included).
fn apply_workspace_rules(models: &[FileModel], scans: &mut [FileScan]) {
    for &(rule, run) in rules::WORKSPACE_RULES {
        let t0 = Instant::now();
        let idx = rule.idx();
        for (fi, raw) in run(models) {
            let model = &models[fi];
            match model.find_allow(rule.name(), raw.line) {
                Some(marker) => {
                    scans[fi].used_markers.push(marker);
                    scans[fi].stats[idx].suppressed += 1;
                }
                None => {
                    scans[fi].stats[idx].fired += 1;
                    scans[fi].violations.push(make_violation(model, rule, raw));
                }
            }
        }
        if let Some(first) = scans.first_mut() {
            first.stats[idx].micros += t0.elapsed().as_micros() as u64;
        }
    }
}

fn sort_violations(violations: &mut [Violation]) {
    violations
        .sort_by(|a, b| (&a.file, a.line, a.rule.idx()).cmp(&(&b.file, b.line, b.rule.idx())));
}

/// Scans one file's source text. `path` selects path-dependent rules (the
/// `Ordering` and `unsafe` allowlists) and is echoed into diagnostics;
/// the file is not re-read from disk. The workspace rules run over this
/// single file's call graph.
// audit:allow(unreachable-pub): the single-file harness of the per-rule fixture tests (tests/lint_rules.rs)
pub fn scan_source(path: &str, source: &str) -> Vec<Violation> {
    let models = [FileModel::build(path, source)];
    let mut scans = [apply_file_rules(&models[0])];
    apply_workspace_rules(&models, &mut scans);
    let [scan] = scans;
    let mut violations = scan.violations;
    sort_violations(&mut violations);
    violations
}

/// Directories never scanned: build output, VCS metadata, and the lint's
/// own intentionally-violating fixtures.
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures"];

/// Recursively scans every `.rs` file under `root`, returning the full
/// report: violations sorted by path and line, unused-marker warnings and
/// per-rule timing. File models are built and checked in parallel (one
/// rayon task per file); the call-graph pass is sequential.
pub fn scan_workspace_report(root: &Path) -> std::io::Result<AuditReport> {
    use rayon::prelude::*;
    let t0 = Instant::now();

    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    files.sort();
    let sources: Vec<(String, String)> = files
        .iter()
        .map(|file| {
            let rel = file
                .strip_prefix(root)
                .unwrap_or(file)
                .to_string_lossy()
                .into_owned();
            std::fs::read_to_string(file).map(|src| (rel, src))
        })
        .collect::<std::io::Result<_>>()?;

    let models: Vec<FileModel> = sources
        .par_iter()
        .map(|(rel, src)| FileModel::build(rel, src))
        .collect();
    let mut scans: Vec<FileScan> = models.par_iter().map(apply_file_rules).collect();
    apply_workspace_rules(&models, &mut scans);

    // A tree with no root file runs no census (a crate-rooted sub-scan),
    // so its `unreachable-pub` markers are neither used nor unused there.
    let census = models.iter().any(|m| callgraph::is_reach_root(&m.path));
    let mut violations = Vec::new();
    let mut unused_allows = Vec::new();
    let mut stats = vec![RuleStat::default(); Rule::ALL.len()];
    for (model, scan) in models.iter().zip(scans) {
        violations.extend(scan.violations);
        for (i, s) in scan.stats.into_iter().enumerate() {
            stats[i].fired += s.fired;
            stats[i].suppressed += s.suppressed;
            stats[i].micros += s.micros;
        }
        for (mi, marker) in model.allows.iter().enumerate() {
            let judged = census || marker.rule != Rule::UnreachablePub.name();
            if judged && !scan.used_markers.contains(&mi) {
                unused_allows.push(UnusedAllow {
                    file: model.path.clone(),
                    line: marker.line,
                    rule: marker.rule.clone(),
                });
            }
        }
    }
    sort_violations(&mut violations);

    Ok(AuditReport {
        files_scanned: models.len(),
        threads: rayon::current_num_threads(),
        violations,
        unused_allows,
        stats,
        elapsed_micros: t0.elapsed().as_micros() as u64,
    })
}

fn collect_rs_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_allowlist_matches_workspace_and_crate_rooted_scans() {
        // Scanned from the workspace root: the full relative path.
        assert!(path_allowed("crates/serve/src/signal.rs", UNSAFE_ALLOWED));
        // Scanned from inside the crate (`parcom-audit -- crates/serve`):
        // the path is relative to the crate, a suffix of the entry.
        assert!(path_allowed("src/signal.rs", UNSAFE_ALLOWED));
        assert!(path_allowed("src/pool.rs", UNSAFE_ALLOWED));
        // Unrelated files stay disallowed either way.
        assert!(!path_allowed("crates/serve/src/wal.rs", UNSAFE_ALLOWED));
        assert!(!path_allowed("src/lib.rs", UNSAFE_ALLOWED));
    }

    #[test]
    fn budget_check_tracks_fn_signatures_and_loop_shape() {
        // outermost loop with a nested loop and no check: fires once
        let bad = "fn run(g: &G, budget: &Budget) {\n    for s in 0..9 {\n        for u in g.nodes() {\n            work(u);\n        }\n    }\n}\n";
        let v = scan_source("x.rs", bad);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::BudgetCheck);
        assert_eq!(v[0].line, 2);

        // same shape with an amortized check: clean
        let good = bad.replace("for u in", "budget.check()?;\n        for u in");
        assert!(scan_source("x.rs", &good).is_empty());

        // same shape without the budget parameter: not our business
        let unbudgeted = bad.replace("budget: &Budget", "limit: usize");
        assert!(scan_source("x.rs", &unbudgeted).is_empty());

        // a single-level loop in a budget fn is exempt bookkeeping
        let flat = "fn run(g: &G, budget: &Budget) {\n    for u in g.nodes() {\n        work(u);\n    }\n}\n";
        assert!(scan_source("x.rs", flat).is_empty());

        // a par_ call inside the loop also counts as heavy
        let par = "fn run(g: &G, budget: &Budget) {\n    while improved {\n        xs.par_iter().for_each(work);\n    }\n}\n";
        let v = scan_source("x.rs", par);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::BudgetCheck);
    }

    #[test]
    fn allow_marker_suppresses_on_same_and_previous_line() {
        let src = "// audit:allow(static-mut)\nstatic mut A: u32 = 0;\nstatic mut B: u32 = 0; // audit:allow(static-mut)\nstatic mut C: u32 = 0;\n";
        let v = scan_source("x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 4);
    }

    #[test]
    fn propagation_runs_in_single_file_scans() {
        let src = "\
fn run_guarded(g: &Graph, budget: &Budget) {\n    helper(g);\n}\n\
fn helper(g: &Graph) {\n    for s in 0..10 {\n        for u in g.nodes() {\n            work(u);\n        }\n    }\n}\n";
        let v = scan_source("crates/x/src/lib.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::BudgetPropagation);
        assert_eq!(v[0].line, 4);
        assert_eq!(v[0].call_chain.len(), 2);
        assert_eq!(v[0].call_chain[0].function, "run_guarded");
    }

    #[test]
    fn rule_indices_match_all_order() {
        for (i, rule) in Rule::ALL.iter().enumerate() {
            assert_eq!(rule.idx(), i, "{rule}");
        }
    }
}
