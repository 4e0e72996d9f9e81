//! The dead-surface census: `unreachable-pub`.

use super::RawViolation;
use crate::callgraph::{unreachable_pubs, CallGraph};
use crate::model::FileModel;

/// `unreachable-pub` over a whole set of file models: each non-test
/// `pub fn` that no root reaches (see [`unreachable_pubs`]). Returns
/// `(file index, finding)` pairs; the marker that keeps a reference
/// implementation or test fixture sits on or directly above its `fn` line.
pub fn unreachable_pub(models: &[FileModel]) -> Vec<(usize, RawViolation)> {
    let graph = CallGraph::build(models);
    unreachable_pubs(&graph)
        .into_iter()
        .map(|def| {
            let item = graph.item(def);
            let col = graph.file(def).lex.tokens[item.fn_tok].col;
            let v = RawViolation::at(item.line, col).with_note(format!(
                "`{}` is reached from no root file (REACH_ROOTS)",
                item.name
            ));
            (def.0, v)
        })
        .collect()
}
