//! Brace-matched scope tree over a token stream.
//!
//! Every `{ … }` pair becomes a scope node; the tree records nesting,
//! spans (token-index ranges) and whether a scope is *test code* — the
//! body introduced by a `#[cfg(test)]` or `#[test]` attribute, which
//! several rules exempt. A virtual root scope covers the whole file so
//! every token has an innermost scope.

use crate::lexer::{LexedFile, Token, TokenKind};

/// One brace scope: the token range between a `{` and its matching `}`.
#[derive(Clone, Debug)]
pub struct Scope {
    /// Parent scope index (the root scope is its own parent).
    pub parent: usize,
    /// Token index of the opening `{` (`usize::MAX` for the root).
    pub open: usize,
    /// Token index of the matching `}` (`tokens.len()` when unclosed —
    /// truncated input must not crash the lint).
    pub close: usize,
    /// Nesting depth; the root is 0.
    pub depth: usize,
    /// True when this scope (or an ancestor) is introduced by a
    /// `#[cfg(test)]` / `#[test]` attribute — test code.
    pub is_test: bool,
}

/// The scope tree of one file plus a token→innermost-scope map.
#[derive(Debug, Default)]
pub struct ScopeTree {
    /// All scopes; index 0 is the virtual whole-file root.
    pub scopes: Vec<Scope>,
    /// For each token index, the innermost scope containing it.
    pub scope_of: Vec<usize>,
}

impl ScopeTree {
    /// Builds the tree for a lexed file.
    pub fn build(lex: &LexedFile) -> Self {
        let tokens = &lex.tokens;
        let mut scopes = vec![Scope {
            parent: 0,
            open: usize::MAX,
            close: tokens.len(),
            depth: 0,
            is_test: false,
        }];
        let mut scope_of = vec![0usize; tokens.len()];
        let mut stack = vec![0usize];

        for (i, t) in tokens.iter().enumerate() {
            let current = *stack.last().unwrap();
            scope_of[i] = current;
            if t.is_open('{') {
                let parent = current;
                let is_test = scopes[parent].is_test || header_marks_test(tokens, i);
                scopes.push(Scope {
                    parent,
                    open: i,
                    close: tokens.len(),
                    depth: scopes[parent].depth + 1,
                    is_test,
                });
                stack.push(scopes.len() - 1);
            } else if t.is_close('}') && stack.len() > 1 {
                let s = stack.pop().unwrap();
                scopes[s].close = i;
                scope_of[i] = s; // the `}` belongs to the scope it closes
            }
        }
        Self { scopes, scope_of }
    }

    /// True when token `tok` lies in test code.
    pub fn in_test(&self, tok: usize) -> bool {
        self.scope_of
            .get(tok)
            .map(|&s| self.scopes[s].is_test)
            .unwrap_or(false)
    }

    /// Innermost scope of token `tok` (root for out-of-range indices).
    pub fn at(&self, tok: usize) -> usize {
        self.scope_of.get(tok).copied().unwrap_or(0)
    }
}

/// Decides whether the item header introducing the `{` at token `open`
/// carries a test attribute. The header is the token run since the last
/// `;`, `{` or `}` — i.e. since the end of the previous item/statement.
fn header_marks_test(tokens: &[Token], open: usize) -> bool {
    let mut start = 0;
    for (j, t) in tokens[..open].iter().enumerate().rev() {
        if t.is_punct(";") || t.is_open('{') || t.is_close('}') {
            start = j + 1;
            break;
        }
    }
    // look for `# [ … test … ]` attribute groups in the header
    let header = &tokens[start..open];
    let mut k = 0;
    while k < header.len() {
        if header[k].is_punct("#") {
            // optional `!`, then `[`
            let mut j = k + 1;
            if j < header.len() && header[j].is_punct("!") {
                j += 1;
            }
            if j < header.len() && header[j].is_open('[') {
                let mut depth = 0usize;
                for (off, t) in header[j..].iter().enumerate() {
                    if t.kind == TokenKind::Open {
                        depth += 1;
                    } else if t.kind == TokenKind::Close {
                        depth -= 1;
                        if depth == 0 {
                            k = j + off;
                            break;
                        }
                    } else if t.is_ident("test") {
                        return true;
                    }
                }
            }
        }
        k += 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn nesting_and_spans() {
        let l = lex("fn a() { if x { y(); } }\nfn b() {}\n");
        let t = ScopeTree::build(&l);
        // root + fn a body + if body + fn b body
        assert_eq!(t.scopes.len(), 4);
        assert_eq!(t.scopes[1].depth, 1);
        assert_eq!(t.scopes[2].depth, 2);
        assert_eq!(t.scopes[2].parent, 1);
        assert_eq!(t.scopes[3].parent, 0);
    }

    #[test]
    fn cfg_test_marks_module_bodies() {
        let src = "fn prod() { work(); }\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { helper(); }\n}\n";
        let l = lex(src);
        let t = ScopeTree::build(&l);
        let helper = l
            .tokens
            .iter()
            .position(|tok| tok.is_ident("helper"))
            .unwrap();
        let work = l
            .tokens
            .iter()
            .position(|tok| tok.is_ident("work"))
            .unwrap();
        assert!(t.in_test(helper));
        assert!(!t.in_test(work));
    }

    #[test]
    fn cfg_feature_strings_do_not_mark_test() {
        // "test" inside a *string* must not count — only the ident form
        let src = "#[cfg(feature = \"test-utils\")]\nmod m { fn f() { x(); } }\n";
        let l = lex(src);
        let t = ScopeTree::build(&l);
        let x = l.tokens.iter().position(|tok| tok.is_ident("x")).unwrap();
        assert!(!t.in_test(x));
    }

    #[test]
    fn unclosed_scope_does_not_panic() {
        let l = lex("fn a() { if x { y();\n");
        let t = ScopeTree::build(&l);
        assert!(t.scopes.len() >= 2);
        assert_eq!(t.scopes.last().unwrap().close, l.tokens.len());
    }
}
