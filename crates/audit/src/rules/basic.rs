//! The single-construct hygiene rules: `static-mut`, `unsafe-code`,
//! `lossy-cast`, `partial-cmp-unwrap`.

use super::RawViolation;
use crate::lexer::TokenKind;
use crate::model::{match_forward, FileModel};
use crate::{path_allowed, UNSAFE_ALLOWED};

/// `static-mut`: `static mut` anywhere.
pub fn static_mut(model: &FileModel) -> Vec<RawViolation> {
    let toks = &model.lex.tokens;
    (0..toks.len())
        .filter(|&k| {
            toks[k].is_ident("static") && toks.get(k + 1).is_some_and(|t| t.is_ident("mut"))
        })
        .map(|k| RawViolation::at(toks[k].line, toks[k].col))
        .collect()
}

/// `unsafe-code`: the `unsafe` keyword outside the allowlist. Tokens give
/// word boundaries for free: `unsafe_code` in a `forbid` attribute is a
/// different identifier and cannot match.
pub fn unsafe_code(model: &FileModel) -> Vec<RawViolation> {
    if path_allowed(&model.path, UNSAFE_ALLOWED) {
        return Vec::new();
    }
    let toks = &model.lex.tokens;
    (0..toks.len())
        .filter(|&k| toks[k].is_ident("unsafe"))
        .map(|k| RawViolation::at(toks[k].line, toks[k].col))
        .collect()
}

/// Count-returning methods whose value must not be truncated.
const COUNT_METHODS: &[&str] = &["len", "count", "node_count", "edge_count"];
/// Narrow targets a count must not be cast to.
const NARROW_TARGETS: &[&str] = &["u32", "Node"];

/// `lossy-cast`: `<count-method>() as u32` / `as Node`.
pub fn lossy_cast(model: &FileModel) -> Vec<RawViolation> {
    let toks = &model.lex.tokens;
    let mut out = Vec::new();
    for k in 0..toks.len() {
        let t = &toks[k];
        if t.kind != TokenKind::Ident || !COUNT_METHODS.contains(&t.text.as_str()) {
            continue;
        }
        // `.len()`/`.count()` only as method calls; the graph accessors
        // also match unqualified
        if matches!(t.text.as_str(), "len" | "count") && !(k > 0 && toks[k - 1].is_punct(".")) {
            continue;
        }
        if toks.get(k + 1).is_some_and(|t| t.is_open('('))
            && toks.get(k + 2).is_some_and(|t| t.is_close(')'))
            && toks.get(k + 3).is_some_and(|t| t.is_ident("as"))
            && toks
                .get(k + 4)
                .is_some_and(|t| NARROW_TARGETS.iter().any(|n| t.is_ident(n)))
        {
            out.push(RawViolation::at(t.line, t.col));
        }
    }
    out
}

/// Methods that consume an `Option<cmp::Ordering>` by panicking.
const PANICKY_UNWRAPS: &[&str] = &["unwrap", "expect"];

/// `partial-cmp-unwrap`: `partial_cmp(..)` whose result is fed through a
/// method chain ending in `unwrap()`/`expect(..)` — a comparator that
/// panics on NaN mid-sort. The chain is followed across lines, so the
/// split form `partial_cmp(b)\n    .expect("NaN")` is caught too.
pub fn partial_cmp_unwrap(model: &FileModel) -> Vec<RawViolation> {
    let toks = &model.lex.tokens;
    let mut out = Vec::new();
    for k in 0..toks.len() {
        if !toks[k].is_ident("partial_cmp") || !toks.get(k + 1).is_some_and(|t| t.is_open('(')) {
            continue;
        }
        let mut j = match_forward(toks, k + 1) + 1;
        // follow the method chain on the returned Option
        while j < toks.len() {
            if toks[j].is_punct("?") {
                j += 1;
                continue;
            }
            if toks[j].is_punct(".")
                && toks.get(j + 1).is_some_and(|t| t.kind == TokenKind::Ident)
                && toks.get(j + 2).is_some_and(|t| t.is_open('('))
            {
                if PANICKY_UNWRAPS.contains(&toks[j + 1].text.as_str()) {
                    out.push(RawViolation::at(toks[k].line, toks[k].col));
                    break;
                }
                j = match_forward(toks, j + 2) + 1;
                continue;
            }
            break;
        }
    }
    out
}
