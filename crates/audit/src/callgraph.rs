//! Workspace-level, name-based call graph and its two walks:
//! `budget-propagation` and the `unreachable-pub` census.
//!
//! The two walks resolve names in opposite directions, each toward the
//! side that cannot produce a false finding:
//! - `budget-propagation` resolves a call site `name(…)` to the workspace
//!   function of that name **iff the name has exactly one definition**
//!   across the scanned files. Ambiguous names (`new`, `run`, trait methods
//!   implemented many times) are skipped rather than guessed — a lint must
//!   not hallucinate edges. That still closes the hole the intra-function
//!   `budget-check` rule cannot see: helpers extracted from a detector's
//!   `run` body have workspace-unique names in practice, and the walk
//!   follows them transitively.
//! - `unreachable-pub` lets every identifier reach *every* definition of
//!   that name, so it can miss dead code but never calls live code dead.

use crate::lexer::{Token, TokenKind};
use crate::model::{FileModel, FnItem};
use std::collections::{HashMap, HashSet};

/// A function definition: (file index, fn index within the file).
pub type DefId = (usize, usize);

/// One hop of the call-chain evidence attached to an interprocedural
/// finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainLink {
    /// Workspace-relative file of the function.
    pub file: String,
    /// 1-based line of its `fn` keyword.
    pub line: u32,
    /// The function's name.
    pub function: String,
}

impl std::fmt::Display for ChainLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{} {}", self.file, self.line, self.function)
    }
}

/// The name-based call graph over a set of file models.
pub struct CallGraph<'a> {
    models: &'a [FileModel],
    /// name -> all definitions of that name (non-test code only).
    by_name: HashMap<&'a str, Vec<DefId>>,
}

impl<'a> CallGraph<'a> {
    /// Indexes every non-test function definition.
    pub fn build(models: &'a [FileModel]) -> Self {
        let mut by_name: HashMap<&'a str, Vec<DefId>> = HashMap::new();
        for (fi, m) in models.iter().enumerate() {
            for (gi, f) in m.fns.iter().enumerate() {
                if f.is_test || m.is_test_file() {
                    continue;
                }
                by_name.entry(f.name.as_str()).or_default().push((fi, gi));
            }
        }
        Self { models, by_name }
    }

    /// The unique definition of `name`, if exactly one exists.
    pub fn resolve_unique(&self, name: &str) -> Option<DefId> {
        match self.by_name.get(name).map(Vec::as_slice) {
            Some([one]) => Some(*one),
            _ => None,
        }
    }

    /// The function item behind a [`DefId`].
    pub fn item(&self, id: DefId) -> &FnItem {
        &self.models[id.0].fns[id.1]
    }

    /// The file model behind a [`DefId`].
    pub fn file(&self, id: DefId) -> &FileModel {
        &self.models[id.0]
    }

    /// All non-test functions taking `budget: &Budget` — the roots of the
    /// propagation walk, in deterministic (file, fn) order.
    pub fn budget_roots(&self) -> Vec<DefId> {
        let mut roots = Vec::new();
        for (fi, m) in self.models.iter().enumerate() {
            if m.is_test_file() {
                continue;
            }
            for (gi, f) in m.fns.iter().enumerate() {
                if f.takes_budget && !f.is_test {
                    roots.push((fi, gi));
                }
            }
        }
        roots
    }

    /// One [`ChainLink`] describing a definition.
    pub fn link(&self, id: DefId) -> ChainLink {
        let f = self.item(id);
        ChainLink {
            file: self.file(id).path.clone(),
            line: f.line,
            function: f.name.clone(),
        }
    }
}

/// A `budget-propagation` finding before allow-filtering: a heavy,
/// budget-less function reachable from a budgeted one, with the shortest
/// call chain as evidence (root first, offender last).
#[derive(Clone, Debug)]
pub struct PropagationFinding {
    /// The offending definition.
    pub def: DefId,
    /// Call chain from a budgeted root to the offender.
    pub chain: Vec<ChainLink>,
}

/// Walks the call graph breadth-first from every budgeted root and
/// returns each heavy, budget-less function reachable from one, with its
/// shortest call chain. The walk does not descend through functions that
/// take a budget themselves (they are roots of their own walks and are
/// covered by the intra-function `budget-check` rule) nor through
/// functions carrying an `audit:allow(budget-propagation)` marker (the
/// reviewer accepted that subtree); light functions are traversed so a
/// thin wrapper cannot hide a heavy helper.
pub fn propagate_budgets(graph: &CallGraph<'_>) -> Vec<PropagationFinding> {
    use std::collections::VecDeque;
    let mut visited: HashMap<DefId, ()> = HashMap::new();
    let mut findings = Vec::new();
    // queue of (def, chain up to and including def)
    let mut queue: VecDeque<(DefId, Vec<ChainLink>)> = VecDeque::new();

    for root in graph.budget_roots() {
        if visited.insert(root, ()).is_some() {
            continue;
        }
        queue.push_back((root, vec![graph.link(root)]));
    }

    while let Some((id, chain)) = queue.pop_front() {
        for call in &graph.item(id).calls {
            let Some(callee) = graph.resolve_unique(&call.name) else {
                continue;
            };
            if visited.contains_key(&callee) {
                continue;
            }
            visited.insert(callee, ());
            let f = graph.item(callee);
            if f.takes_budget {
                continue; // its own root; budget-check audits its body
            }
            let m = graph.file(callee);
            let allowed = m.find_allow("budget-propagation", f.line).is_some();
            let mut next_chain = chain.clone();
            next_chain.push(graph.link(callee));
            if f.is_heavy() {
                // emitted even when allow-marked: the rule layer suppresses
                // the finding and accounts the marker as used
                findings.push(PropagationFinding {
                    def: callee,
                    chain: next_chain,
                });
            } else if !allowed {
                // a marker on a light wrapper stops the walk (the reviewer
                // accepted the subtree); otherwise keep descending
                queue.push_back((callee, next_chain));
            }
        }
    }

    findings.sort_by(|a, b| {
        let fa = (&graph.file(a.def).path, graph.item(a.def).line);
        let fb = (&graph.file(b.def).path, graph.item(b.def).line);
        fa.cmp(&fb)
    });
    findings
}

/// True when a (scan-root-relative) path lies under one of the
/// [`crate::REACH_ROOTS`] prefixes. A prefix match, not a suffix one: a
/// scan rooted inside one crate sees no root file at all.
pub fn is_reach_root(path: &str) -> bool {
    crate::REACH_ROOTS.iter().any(|p| path.starts_with(p))
}

/// True when the `fn` keyword at `fn_tok` is declared bare `pub` (through
/// `const`/`async`/`unsafe`/`extern "C"` qualifiers); `pub(crate)` and
/// narrower are not.
fn is_bare_pub(toks: &[Token], fn_tok: usize) -> bool {
    toks[..fn_tok]
        .iter()
        .rev()
        .find(|t| {
            t.kind != TokenKind::Str
                && !["const", "async", "unsafe", "extern"].contains(&t.text.as_str())
        })
        .is_some_and(|t| t.is_ident("pub"))
}

/// True when the item whose `{` opens scope `s` is a trait impl
/// (`impl … for … {`): its methods are called through the trait (`{}`
/// formatting calls `fmt`), so their names need not appear anywhere.
fn is_trait_impl_scope(model: &FileModel, s: usize) -> bool {
    let open = model.scopes.scopes[s].open;
    if s == 0 || open == usize::MAX {
        return false;
    }
    let toks = &model.lex.tokens;
    let start = toks[..open]
        .iter()
        .rposition(|t| t.is_punct(";") || t.is_open('{') || t.is_close('}'))
        .map_or(0, |j| j + 1);
    let header = &toks[start..open];
    header.iter().any(|t| t.is_ident("impl")) && header.iter().any(|t| t.is_ident("for"))
}

/// The names a root contributes before the walk starts. A root file
/// contributes every identifier in it, test code included. A library file
/// contributes the identifiers of its non-test items outside any `fn`
/// (a `static` registry's build closures, a `const` initializer) — but not
/// of `use` items, so a re-export alone reaches nothing — plus the names of
/// its trait-impl methods.
fn seed_names<'a>(model: &'a FileModel, out: &mut Vec<&'a str>) {
    let toks = &model.lex.tokens;
    if is_reach_root(&model.path) {
        out.extend(
            toks.iter()
                .filter(|t| t.kind == TokenKind::Ident)
                .map(|t| t.text.as_str()),
        );
        return;
    }
    let mut in_fn = vec![false; toks.len()];
    for f in &model.fns {
        let end = f.body_close.min(toks.len() - 1);
        in_fn[f.fn_tok..=end].fill(true);
        if !f.is_test && is_trait_impl_scope(model, model.scopes.at(f.fn_tok)) {
            out.push(&f.name);
        }
    }
    let mut k = 0;
    while k < toks.len() {
        let t = &toks[k];
        if in_fn[k] || model.scopes.in_test(k) {
            k += 1;
        } else if t.is_ident("use") {
            k += toks[k..]
                .iter()
                .position(|t| t.is_punct(";"))
                .unwrap_or(toks.len() - k);
        } else {
            if t.kind == TokenKind::Ident {
                out.push(&t.text);
            }
            k += 1;
        }
    }
}

/// The `unreachable-pub` census: every non-test `pub fn` outside a root
/// file whose name no root reaches, in (file, line) order. The walk starts
/// from [`seed_names`] and lets each reached name reach every non-test
/// definition of that name, whose bodies' identifiers are reached in turn
/// — calls, paths and fn-pointer uses (`map(Value::as_bool)`) alike. The
/// over-approximation only ever keeps code alive. Empty when the scanned
/// tree holds no root file (a scan rooted inside one library crate).
pub fn unreachable_pubs(graph: &CallGraph<'_>) -> Vec<DefId> {
    if !graph.models.iter().any(|m| is_reach_root(&m.path)) {
        return Vec::new();
    }
    let mut queue = Vec::new();
    for m in graph
        .models
        .iter()
        .filter(|m| is_reach_root(&m.path) || !m.is_test_file())
    {
        seed_names(m, &mut queue);
    }
    let mut reached: HashSet<&str> = queue.iter().copied().collect();
    while let Some(name) = queue.pop() {
        for &id in graph.by_name.get(name).into_iter().flatten() {
            let f = graph.item(id);
            let Some(open) = f.body_open else { continue };
            for t in &graph.file(id).lex.tokens[open..f.body_close] {
                if t.kind == TokenKind::Ident && reached.insert(&t.text) {
                    queue.push(&t.text);
                }
            }
        }
    }

    let mut out = Vec::new();
    for (fi, m) in graph.models.iter().enumerate() {
        if m.is_test_file() || is_reach_root(&m.path) {
            continue;
        }
        for (gi, f) in m.fns.iter().enumerate() {
            if !f.is_test
                && !reached.contains(f.name.as_str())
                && is_bare_pub(&m.lex.tokens, f.fn_tok)
            {
                out.push((fi, gi));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FileModel;

    fn model(src: &str) -> Vec<FileModel> {
        vec![FileModel::build("crates/x/src/lib.rs", src)]
    }

    #[test]
    fn flags_heavy_helper_reachable_from_budget_fn() {
        let src = "\
fn run_guarded(g: &Graph, budget: &Budget) {\n    helper(g);\n}\n\
fn helper(g: &Graph) {\n    for s in 0..10 {\n        for u in g.nodes() {\n            work(u);\n        }\n    }\n}\n";
        let models = model(src);
        let graph = CallGraph::build(&models);
        let findings = propagate_budgets(&graph);
        assert_eq!(findings.len(), 1);
        let chain: Vec<String> = findings[0].chain.iter().map(|c| c.to_string()).collect();
        assert_eq!(
            chain,
            vec![
                "crates/x/src/lib.rs:1 run_guarded",
                "crates/x/src/lib.rs:4 helper"
            ]
        );
    }

    #[test]
    fn walks_through_thin_wrappers() {
        let src = "\
fn run_guarded(g: &Graph, budget: &Budget) {\n    wrapper(g);\n}\n\
fn wrapper(g: &Graph) {\n    deep(g)\n}\n\
fn deep(g: &Graph) {\n    g.nodes().par_iter().for_each(work);\n}\n";
        let models = model(src);
        let graph = CallGraph::build(&models);
        let findings = propagate_budgets(&graph);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].chain.len(), 3);
        assert_eq!(findings[0].chain[2].function, "deep");
    }

    #[test]
    fn budgeted_callees_and_ambiguous_names_stop_the_walk() {
        let src = "\
fn run_guarded(g: &Graph, budget: &Budget) {\n    checked(g, budget);\n    twin(g);\n}\n\
fn checked(g: &Graph, budget: &Budget) {\n    for s in 0..10 { for u in g.nodes() { budget.check(); } }\n}\n\
mod a { fn twin(g: &Graph) { for s in 0..10 { for u in g.nodes() { work(u); } } } }\n\
mod b { fn twin(g: &Graph) { g.nodes().par_iter().sum(); } }\n";
        let models = model(src);
        let graph = CallGraph::build(&models);
        assert!(graph.resolve_unique("twin").is_none(), "two defs: skipped");
        assert!(propagate_budgets(&graph).is_empty());
    }

    #[test]
    fn allow_marked_helper_still_surfaces_for_marker_accounting() {
        let src = "\
fn run_guarded(g: &Graph, budget: &Budget) {\n    helper(g);\n}\n\
// audit:allow(budget-propagation): one amortized unit of work per call\n\
fn helper(g: &Graph) {\n    g.nodes().par_iter().for_each(work);\n}\n";
        let models = model(src);
        let graph = CallGraph::build(&models);
        // the graph layer reports it; the rule layer suppresses it and
        // marks the marker used (covered by the lib-level tests)
        let findings = propagate_budgets(&graph);
        assert_eq!(findings.len(), 1);
        assert!(models[0]
            .find_allow("budget-propagation", graph.item(findings[0].def).line)
            .is_some());
    }

    #[test]
    fn light_leaves_are_quietly_fine() {
        let src = "\
fn run_guarded(g: &Graph, budget: &Budget) {\n    bookkeeping(g);\n}\n\
fn bookkeeping(g: &Graph) -> usize {\n    let mut t = 0;\n    for u in g.nodes() { t += 1; }\n    t\n}\n";
        let models = model(src);
        let graph = CallGraph::build(&models);
        assert!(propagate_budgets(&graph).is_empty());
    }
}
