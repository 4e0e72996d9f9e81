//! Per-file syntactic model: function items, loops, call sites and
//! `audit:allow` markers, built once per file and shared by every rule.
//!
//! The model deliberately stops below type checking: functions are
//! recognized by the `fn` keyword, calls by `ident (` token pairs,
//! budgets by the literal parameter pattern `budget: &Budget`. That is
//! enough for discipline rules — and it is what keeps the audit
//! dependency-free and fast enough to run on every push.

use crate::lexer::{lex, LexedFile, Token, TokenKind};
use crate::scopes::ScopeTree;

/// An `audit:allow(<rule>)` marker found in a comment.
#[derive(Clone, Debug)]
pub struct AllowMarker {
    /// 1-based line the marker's comment is on.
    pub line: u32,
    /// The rule name between the parentheses (not validated here; the
    /// report warns about names that match no rule).
    pub rule: String,
}

/// A call site `name(…)` inside a function body.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Callee name (last path segment / method name).
    pub name: String,
    /// 1-based line of the callee token.
    pub line: u32,
}

/// One `for` / `while` / `loop` in a function body.
#[derive(Clone, Debug)]
pub struct LoopItem {
    /// Token index of the loop keyword.
    pub kw_tok: usize,
    /// 1-based line of the loop keyword.
    pub header_line: u32,
    /// Token index of the body `{` (usize::MAX if not found).
    pub body_open: usize,
    /// Token index of the body's matching `}`.
    pub body_close: usize,
    /// True when no enclosing loop of the same function contains this one.
    pub outermost: bool,
}

/// One `fn` item.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index of the `fn` keyword.
    pub fn_tok: usize,
    /// Token index of the body `{` (`None` for bodyless trait methods).
    pub body_open: Option<usize>,
    /// Token index of the body's matching `}`.
    pub body_close: usize,
    /// True when the parameter list contains `budget: &Budget`.
    pub takes_budget: bool,
    /// True when the function lives in test code.
    pub is_test: bool,
    /// Loops directly in the body (closure bodies included — a loop in a
    /// closure still runs under the function's budget obligations).
    pub loops: Vec<LoopItem>,
    /// Lowercase-initial `name(` call sites in the body.
    pub calls: Vec<CallSite>,
    /// True when the body contains a parallel call site (`.par_*`,
    /// `.into_par_iter`, `rayon::join/scope/spawn`).
    pub has_par: bool,
    /// True when the body contains a loop nested inside another loop.
    pub has_nested_loop: bool,
}

impl FnItem {
    /// A function is *heavy* when interrupting it late matters: it runs a
    /// parallel region or a multi-level loop.
    pub fn is_heavy(&self) -> bool {
        self.has_par || self.has_nested_loop
    }
}

/// Everything the rules need to know about one file.
#[derive(Debug)]
pub struct FileModel {
    /// Workspace-relative path, `/`-normalized.
    pub path: String,
    /// Raw source lines (for diagnostics' excerpts).
    pub lines: Vec<String>,
    /// The token stream.
    pub lex: LexedFile,
    /// The brace scope tree.
    pub scopes: ScopeTree,
    /// All `fn` items in source order.
    pub fns: Vec<FnItem>,
    /// All `audit:allow` markers in source order.
    pub allows: Vec<AllowMarker>,
}

/// Rust keywords that can precede `(` without being calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "fn", "move", "in", "as", "let", "else",
    "unsafe", "where", "impl", "ref", "box", "await", "dyn", "use", "pub", "mod", "static",
    "const", "struct", "enum", "union", "trait", "type", "break", "continue", "yield",
];

impl FileModel {
    /// Lexes and models one file. `path` is echoed into diagnostics and
    /// selects path-dependent rules; the file is not re-read from disk.
    pub fn build(path: &str, source: &str) -> Self {
        let lex = lex(source);
        let scopes = ScopeTree::build(&lex);
        let fns = extract_fns(&lex, &scopes);
        let allows = extract_allows(&lex);
        FileModel {
            path: path.replace('\\', "/"),
            lines: source.lines().map(str::to_string).collect(),
            lex,
            scopes,
            fns,
            allows,
        }
    }

    /// The trimmed source text of 1-based `line` (for excerpts).
    pub fn excerpt(&self, line: u32) -> String {
        self.lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }

    /// Index of the first token on 1-based `line`, if any.
    pub fn first_token_on_line(&self, line: u32) -> Option<usize> {
        let toks = &self.lex.tokens;
        let mut idx = toks.partition_point(|t| t.line < line);
        if idx < toks.len() && toks[idx].line == line {
            // partition_point gives the first token with t.line >= line
            while idx > 0 && toks[idx - 1].line == line {
                idx -= 1;
            }
            Some(idx)
        } else {
            None
        }
    }

    /// The 1-based line of the first token of the *statement* containing
    /// `line` — walking back over the tokens since the previous `;`, `{`
    /// or `}`, attributes included. For a diagnostic on the third line of
    /// a multi-line statement, this is where a reviewer would put the
    /// suppression.
    pub fn statement_first_line(&self, line: u32) -> u32 {
        let Some(tok) = self.first_token_on_line(line) else {
            return line;
        };
        let toks = &self.lex.tokens;
        let mut start = 0usize;
        for j in (0..tok).rev() {
            let t = &toks[j];
            if t.is_punct(";") || t.is_open('{') || t.is_close('}') || t.is_punct(",") {
                start = j + 1;
                break;
            }
        }
        if start >= toks.len() {
            return line;
        }
        toks[start].line.min(line)
    }

    /// Finds an `audit:allow(rule)` marker covering 1-based `line`:
    /// trailing on the line itself, trailing on the first line of the
    /// enclosing statement, or in the contiguous run of comment-only
    /// lines directly above the statement's first token line (which is
    /// how a marker sits above `#[…]` attributes or a doc comment).
    /// Returns the marker's index into [`Self::allows`].
    pub fn find_allow(&self, rule: &str, line: u32) -> Option<usize> {
        let marker_on = |l: u32| {
            self.allows
                .iter()
                .position(|m| m.line == l && m.rule == rule)
        };
        if let Some(i) = marker_on(line) {
            return Some(i);
        }
        let first = self.statement_first_line(line);
        if first != line {
            if let Some(i) = marker_on(first) {
                return Some(i);
            }
        }
        // comment-only lines inside the statement's extent — e.g. a
        // marker between a `#[…]` attribute and the `fn` line it covers
        for l in first..line {
            if self.lex.is_comment_only_line(l) {
                if let Some(i) = marker_on(l) {
                    return Some(i);
                }
            }
        }
        // contiguous comment-only run above the statement start
        let mut l = first;
        while l > 1 && self.lex.is_comment_only_line(l - 1) {
            l -= 1;
            if let Some(i) = marker_on(l) {
                return Some(i);
            }
        }
        None
    }

    /// True when the token at `tok` lies in test code or the whole file
    /// is a test/bench source (integration tests, benches).
    pub fn in_test(&self, tok: usize) -> bool {
        self.is_test_file() || self.scopes.in_test(tok)
    }

    /// Integration tests and benches are test code wholesale, the
    /// scan root's own `tests/` included.
    pub fn is_test_file(&self) -> bool {
        let under = |dir: &str| self.path.starts_with(&dir[1..]) || self.path.contains(dir);
        under("/tests/") || under("/benches/")
    }
}

/// Extracts `audit:allow(<rule>)` markers from comment text. A marker
/// must *lead* its comment (after the `//`/`/*` sigils): that is the
/// written convention, and it keeps prose that merely *mentions*
/// `audit:allow(..)` — like this lint's own documentation — from being
/// mistaken for a suppression.
fn extract_allows(lex: &LexedFile) -> Vec<AllowMarker> {
    let mut out = Vec::new();
    for (idx, comment) in lex.comments.iter().enumerate() {
        let head = comment.trim_start_matches(['/', '!', '*', ' ', '\t']);
        if let Some(rest) = head.strip_prefix("audit:allow(") {
            if let Some(end) = rest.find(')') {
                out.push(AllowMarker {
                    line: idx as u32 + 1,
                    rule: rest[..end].trim().to_string(),
                });
            }
        }
    }
    out
}

/// True when the ident token at `k` is a parallel call site: a `.par_*`
/// or `.into_par_iter` method, or `rayon::{join,scope,spawn}`.
pub fn is_par_site(tokens: &[Token], k: usize) -> bool {
    let t = &tokens[k];
    if t.kind != TokenKind::Ident {
        return false;
    }
    let after_dot = k > 0 && tokens[k - 1].is_punct(".");
    if after_dot && (t.text.starts_with("par_") || t.text == "into_par_iter") {
        return true;
    }
    if matches!(
        t.text.as_str(),
        "join" | "scope" | "spawn" | "spawn_broadcast"
    ) && k >= 2
        && tokens[k - 1].is_punct("::")
        && tokens[k - 2].is_ident("rayon")
    {
        return true;
    }
    false
}

/// True when `tokens[k..]` starts the call `budget.check*(`.
fn is_budget_check(tokens: &[Token], k: usize) -> bool {
    tokens[k].is_ident("budget")
        && tokens.get(k + 1).is_some_and(|t| t.is_punct("."))
        && tokens
            .get(k + 2)
            .is_some_and(|t| t.kind == TokenKind::Ident && t.text.starts_with("check"))
}

/// True when `tokens[lo..hi]` contains a `budget.check*` call.
pub fn range_has_budget_check(tokens: &[Token], lo: usize, hi: usize) -> bool {
    (lo..hi.min(tokens.len())).any(|k| is_budget_check(tokens, k))
}

/// Scans all `fn` items out of the token stream.
fn extract_fns(lex: &LexedFile, scopes: &ScopeTree) -> Vec<FnItem> {
    let toks = &lex.tokens;
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is_ident("fn") {
            i += 1;
            continue;
        }
        // `fn(` is a function-pointer type, not an item
        let Some(name_tok) = toks.get(i + 1) else {
            break;
        };
        if name_tok.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        let name = name_tok.text.clone();

        // skip generics to the parameter list: first `(` at angle-depth 0
        let mut j = i + 2;
        let mut angle: i64 = 0;
        let params_open = loop {
            let Some(t) = toks.get(j) else {
                break None;
            };
            if angle == 0 && t.is_open('(') {
                break Some(j);
            }
            match t.text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                "<<" => angle += 2,
                ">>" => angle -= 2,
                "{" | ";" => break None, // malformed / not a normal fn
                _ => {}
            }
            j += 1;
        };
        let Some(params_open) = params_open else {
            i += 1;
            continue;
        };
        let params_close = match_forward(toks, params_open);
        let takes_budget = param_range_takes_budget(toks, params_open + 1, params_close);

        // body: first `{` at delimiter depth 0 before a `;`
        let mut k = params_close + 1;
        let mut depth: i64 = 0;
        let body_open = loop {
            let Some(t) = toks.get(k) else {
                break None;
            };
            match t.kind {
                TokenKind::Open if depth == 0 && t.is_open('{') => break Some(k),
                TokenKind::Open => depth += 1,
                TokenKind::Close => depth -= 1,
                TokenKind::Punct if depth == 0 && t.text == ";" => break None,
                _ => {}
            }
            k += 1;
        };
        let body_close = body_open.map(|b| match_forward(toks, b)).unwrap_or(k);

        let (loops, calls, has_par, has_nested_loop) = match body_open {
            Some(open) => analyze_body(toks, open, body_close),
            None => (Vec::new(), Vec::new(), false, false),
        };

        out.push(FnItem {
            name,
            line: toks[i].line,
            fn_tok: i,
            body_open,
            body_close,
            takes_budget,
            // the token after the body `{` sits in the body scope, which
            // carries the #[test]/#[cfg(test)] attribution of the header
            is_test: scopes.in_test(i)
                || body_open.is_some_and(|b| {
                    let s = scopes.at(b + 1);
                    scopes.scopes[s].is_test
                }),
            loops,
            calls,
            has_par,
            has_nested_loop,
        });
        // continue after the signature; nested fns inside the body are
        // found because the scan is linear over all tokens
        i = params_close + 1;
    }
    out
}

/// True when the parameter tokens contain `budget: &Budget` (an optional
/// lifetime between `&` and the type is accepted).
fn param_range_takes_budget(toks: &[Token], lo: usize, hi: usize) -> bool {
    let hi = hi.min(toks.len());
    (lo..hi).any(|k| {
        toks[k].is_ident("budget")
            && toks.get(k + 1).is_some_and(|t| t.is_punct(":"))
            && toks.get(k + 2).is_some_and(|t| t.is_punct("&"))
            && (toks.get(k + 3).is_some_and(|t| t.is_ident("Budget"))
                || (toks
                    .get(k + 3)
                    .is_some_and(|t| t.kind == TokenKind::Lifetime)
                    && toks.get(k + 4).is_some_and(|t| t.is_ident("Budget"))))
    })
}

/// Token index of the delimiter matching the opener at `open` (or
/// `toks.len()` when unclosed).
pub fn match_forward(toks: &[Token], open: usize) -> usize {
    let mut depth: i64 = 0;
    for (off, t) in toks[open..].iter().enumerate() {
        match t.kind {
            TokenKind::Open => depth += 1,
            TokenKind::Close => {
                depth -= 1;
                if depth == 0 {
                    return open + off;
                }
            }
            _ => {}
        }
    }
    toks.len()
}

/// Walks a function body once, collecting loops, call sites and parallel
/// markers.
fn analyze_body(
    toks: &[Token],
    open: usize,
    close: usize,
) -> (Vec<LoopItem>, Vec<CallSite>, bool, bool) {
    let mut loops: Vec<LoopItem> = Vec::new();
    let mut calls = Vec::new();
    let mut has_par = false;
    let close = close.min(toks.len());

    for k in (open + 1)..close {
        let t = &toks[k];
        if t.kind != TokenKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "for" | "while" | "loop" => {
                // `loop` only as a keyword: never directly after `.` or `::`
                if k > 0 && (toks[k - 1].is_punct(".") || toks[k - 1].is_punct("::")) {
                    continue;
                }
                // body = first `{` at paren/bracket depth 0 after the header
                let mut depth: i64 = 0;
                let mut body_open = usize::MAX;
                for (j, tok) in toks.iter().enumerate().take(close).skip(k + 1) {
                    match tok.kind {
                        TokenKind::Open if depth == 0 && tok.is_open('{') => {
                            body_open = j;
                            break;
                        }
                        TokenKind::Open => depth += 1,
                        TokenKind::Close => depth -= 1,
                        _ => {}
                    }
                }
                let body_close = if body_open != usize::MAX {
                    match_forward(toks, body_open)
                } else {
                    close
                };
                loops.push(LoopItem {
                    kw_tok: k,
                    header_line: t.line,
                    body_open,
                    body_close,
                    outermost: true, // fixed up below
                });
            }
            _ => {
                if is_par_site(toks, k) {
                    has_par = true;
                }
                // call site: lowercase-initial ident directly before `(`
                if toks.get(k + 1).is_some_and(|n| n.is_open('('))
                    && !NON_CALL_KEYWORDS.contains(&t.text.as_str())
                    && t.text.chars().next().is_some_and(|c| c.is_lowercase())
                    && !(k > 0 && toks[k - 1].is_ident("fn"))
                {
                    calls.push(CallSite {
                        name: t.text.clone(),
                        line: t.line,
                    });
                }
            }
        }
    }

    // outermost = not inside any other loop's body range
    let ranges: Vec<(usize, usize)> = loops.iter().map(|l| (l.kw_tok, l.body_close)).collect();
    let mut has_nested_loop = false;
    for l in loops.iter_mut() {
        let nested = ranges
            .iter()
            .any(|&(kw, end)| kw != l.kw_tok && l.kw_tok > kw && l.kw_tok < end);
        l.outermost = !nested;
        if nested {
            has_nested_loop = true;
        }
    }
    (loops, calls, has_par, has_nested_loop)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_items_with_budget_params() {
        let src = "fn plain(x: u32) -> u32 { x }\n\
                   fn guarded(g: &Graph, budget: &Budget) { run(g); }\n\
                   fn generic<T: Ord>(xs: Vec<T>, budget: &'a Budget) {}\n";
        let m = FileModel::build("crates/x/src/lib.rs", src);
        assert_eq!(m.fns.len(), 3);
        assert!(!m.fns[0].takes_budget);
        assert!(m.fns[1].takes_budget);
        assert!(m.fns[2].takes_budget, "lifetime between & and Budget");
        assert_eq!(m.fns[1].calls.len(), 1);
        assert_eq!(m.fns[1].calls[0].name, "run");
    }

    #[test]
    fn loops_and_nesting() {
        let src = "fn f() {\n  for a in xs {\n    while b {\n      work();\n    }\n  }\n  loop { break; }\n}\n";
        let m = FileModel::build("x.rs", src);
        let f = &m.fns[0];
        assert_eq!(f.loops.len(), 3);
        assert!(f.loops[0].outermost);
        assert!(!f.loops[1].outermost);
        assert!(f.loops[2].outermost);
        assert!(f.has_nested_loop);
        assert!(!f.has_par);
    }

    #[test]
    fn par_sites_are_seen() {
        let m = FileModel::build("x.rs", "fn f(xs: &[u32]) { xs.par_iter().sum(); }\n");
        assert!(m.fns[0].has_par);
        let m = FileModel::build("x.rs", "fn f() { rayon::join(|| a(), || b()); }\n");
        assert!(m.fns[0].has_par);
        let m = FileModel::build("x.rs", "fn f(p: &Path) { p.join(\"x\"); }\n");
        assert!(!m.fns[0].has_par, "Path::join is not rayon::join");
    }

    #[test]
    fn statement_first_line_spans_multiline_statements() {
        let src = "fn f(v: &[u32]) -> u32 {\n    let x = v\n        .len() as u32;\n    x\n}\n";
        let m = FileModel::build("x.rs", src);
        assert_eq!(m.statement_first_line(3), 2);
        assert_eq!(m.statement_first_line(2), 2);
    }

    #[test]
    fn allow_markers_found_with_justifications() {
        let src = "// audit:allow(lossy-cast): bounded by construction\nlet x = v.len() as u32;\n";
        let m = FileModel::build("x.rs", src);
        assert_eq!(m.allows.len(), 1);
        assert_eq!(m.allows[0].rule, "lossy-cast");
        assert_eq!(m.allows[0].line, 1);
        assert!(m.find_allow("lossy-cast", 2).is_some());
        assert!(m.find_allow("static-mut", 2).is_none());
    }

    #[test]
    fn allow_marker_between_attribute_and_item_reaches_it() {
        let src = "#[inline]\n// audit:allow(budget-propagation): reviewed\npub fn helper() {}\n";
        let m = FileModel::build("x.rs", src);
        assert!(
            m.find_allow("budget-propagation", 3).is_some(),
            "marker between the attribute and the fn line must cover it"
        );
    }

    #[test]
    fn prose_mentions_of_allow_are_not_markers() {
        let src = "/// Suppress with `audit:allow(lossy-cast)` when reviewed.\nfn doc_about_allows() {}\n// audit:allow(lossy-cast): a real marker\nlet x = v.len() as u32;\n";
        let m = FileModel::build("x.rs", src);
        assert_eq!(m.allows.len(), 1, "{:?}", m.allows);
        assert_eq!(m.allows[0].line, 3);
    }

    #[test]
    fn allow_marker_above_attribute_reaches_the_item() {
        let src =
            "// audit:allow(budget-propagation): reviewed\n#[inline]\n#[cold]\nfn helper() {}\n";
        let m = FileModel::build("x.rs", src);
        assert!(
            m.find_allow("budget-propagation", 4).is_some(),
            "marker above the attribute stack must cover the fn line"
        );
    }

    #[test]
    fn trailing_marker_does_not_leak_to_the_next_statement() {
        let src = "let a = v.len() as u32; // audit:allow(lossy-cast)\nlet b = v.len() as u32;\n";
        let m = FileModel::build("x.rs", src);
        assert!(m.find_allow("lossy-cast", 1).is_some());
        assert!(m.find_allow("lossy-cast", 2).is_none());
    }
}
