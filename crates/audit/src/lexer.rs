//! A minimal, dependency-free Rust lexer producing a token stream with
//! line/column spans.
//!
//! The audit's rules are discipline rules about where certain constructs
//! may appear; deciding them reliably needs exactly the token forms that
//! can hide or fake a pattern handled for real: line comments, nested
//! block comments, string literals with escapes, raw strings `r#".."#`,
//! byte strings, char literals, and lifetimes (so `'a` is not mistaken
//! for an unterminated char literal). Literal *contents* are blanked —
//! a string containing `"unsafe"` yields an empty [`TokenKind::Str`]
//! token — and comment text is collected per line so `audit:allow`
//! markers can be found without ever confusing them with code.
//!
//! This is a lexer, not a parser: no precedence, no types. The scope
//! tree ([`crate::scopes`]) and file model ([`crate::model`]) layer the
//! structure the rules need on top of this stream.

/// Classification of one token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `budget`, `Ordering`, …).
    Ident,
    /// Lifetime such as `'a` (distinguished from char literals).
    Lifetime,
    /// Numeric literal (`0`, `1e-5`, `0xff`, `1_000u64`).
    Number,
    /// String-ish literal (`"…"`, `r#"…"#`, `b"…"`); content blanked.
    Str,
    /// Char or byte literal (`'x'`, `b'\n'`); content blanked.
    Char,
    /// Operator or punctuation; multi-char operators (`::`, `->`, `=>`,
    /// `..`, `&&`, …) are single tokens.
    Punct,
    /// Opening delimiter: `(`, `[` or `{` (which one is in `text`).
    Open,
    /// Closing delimiter: `)`, `]` or `}` (which one is in `text`).
    Close,
}

/// One token with its source position.
#[derive(Clone, Debug)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// The token's text (literal contents blanked: `""`, `''`).
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// 1-based column (in chars) of the token's first character.
    pub col: u32,
}

impl Token {
    /// True for an identifier token with exactly this text.
    #[inline]
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == text
    }

    /// True for a punctuation token with exactly this text.
    #[inline]
    pub fn is_punct(&self, text: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == text
    }

    /// True for the opening delimiter `d`.
    #[inline]
    pub fn is_open(&self, d: char) -> bool {
        self.kind == TokenKind::Open && self.text.starts_with(d)
    }

    /// True for the closing delimiter `d`.
    #[inline]
    pub fn is_close(&self, d: char) -> bool {
        self.kind == TokenKind::Close && self.text.starts_with(d)
    }
}

/// A lexed source file: the token stream plus per-line comment text.
#[derive(Debug, Default)]
pub struct LexedFile {
    /// All tokens in source order.
    pub tokens: Vec<Token>,
    /// Comment text per line (0-indexed; all comments on a line
    /// concatenated, including doc comments and block-comment interiors).
    pub comments: Vec<String>,
    /// Number of source lines.
    pub line_count: usize,
}

impl LexedFile {
    /// True when line `line` (1-based) holds no code tokens — only
    /// whitespace and/or comments.
    pub fn is_comment_only_line(&self, line: u32) -> bool {
        self.tokens.binary_search_by(|t| t.line.cmp(&line)).is_err()
    }
}

/// Two- and three-char operators joined into single [`TokenKind::Punct`]
/// tokens (longest match first).
const JOINED_PUNCT: &[&str] = &[
    "..=", "<<=", ">>=", "...", "::", "->", "=>", "..", "==", "!=", "<=", ">=", "&&", "||", "<<",
    ">>", "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=",
];

/// Lexes Rust source into a [`LexedFile`]. Never fails: malformed input
/// (unterminated literals, stray bytes) degrades to best-effort tokens,
/// which is the right behavior for a lint that must not crash on the
/// code it audits.
pub fn lex(source: &str) -> LexedFile {
    let chars: Vec<char> = source.chars().collect();
    let mut tokens = Vec::new();
    let mut comments = vec![String::new()];
    let mut line: u32 = 1;
    let mut col: u32 = 1;
    let mut i = 0;

    // advances over chars[i..i+n], updating line/col bookkeeping
    macro_rules! advance {
        ($n:expr) => {{
            let n: usize = $n;
            for _ in 0..n {
                if i < chars.len() {
                    if chars[i] == '\n' {
                        line += 1;
                        col = 1;
                        comments.push(String::new());
                    } else {
                        col += 1;
                    }
                    i += 1;
                }
            }
        }};
    }
    // consumes a quoted literal body through the closing `q`, honoring \escapes
    macro_rules! consume_quoted {
        ($q:expr) => {{
            while i < chars.len() {
                if chars[i] == '\\' {
                    advance!(2);
                } else if chars[i] == $q {
                    advance!(1);
                    break;
                } else {
                    advance!(1);
                }
            }
        }};
    }

    while i < chars.len() {
        let c = chars[i];
        let (tok_line, tok_col) = (line, col);

        if c.is_whitespace() {
            advance!(1);
            continue;
        }

        // comments
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            while i < chars.len() && chars[i] != '\n' {
                comments.last_mut().unwrap().push(chars[i]);
                advance!(1);
            }
            continue;
        }
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            advance!(2);
            let mut depth = 1u32;
            while i < chars.len() && depth > 0 {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    advance!(2);
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    advance!(2);
                } else {
                    if chars[i] != '\n' {
                        comments.last_mut().unwrap().push(chars[i]);
                    }
                    advance!(1);
                }
            }
            continue;
        }

        // raw / byte strings: r"..", r#".."#, b"..", br#".."#, b'x'
        if c == 'r' || c == 'b' {
            let mut j = i + 1;
            if c == 'b' && chars.get(j) == Some(&'r') {
                j += 1;
            }
            let raw = c == 'r' || chars.get(i + 1) == Some(&'r');
            let mut hashes = 0usize;
            while raw && chars.get(j) == Some(&'#') {
                hashes += 1;
                j += 1;
            }
            if chars.get(j) == Some(&'"') && (raw || hashes == 0) {
                advance!(j + 1 - i); // prefix, hashes, opening quote
                if raw {
                    // ends at '"' followed by `hashes` hashes; no escapes
                    while i < chars.len() {
                        if chars[i] == '"'
                            && (0..hashes).all(|k| chars.get(i + 1 + k) == Some(&'#'))
                        {
                            advance!(1 + hashes);
                            break;
                        }
                        advance!(1);
                    }
                } else {
                    consume_quoted!('"');
                }
                tokens.push(Token {
                    kind: TokenKind::Str,
                    text: "\"\"".to_string(),
                    line: tok_line,
                    col: tok_col,
                });
                continue;
            }
            if c == 'b' && chars.get(i + 1) == Some(&'\'') {
                advance!(2);
                consume_quoted!('\'');
                tokens.push(Token {
                    kind: TokenKind::Char,
                    text: "''".to_string(),
                    line: tok_line,
                    col: tok_col,
                });
                continue;
            }
            // a plain identifier starting with r/b falls through
        }

        if c == '"' {
            advance!(1);
            consume_quoted!('"');
            tokens.push(Token {
                kind: TokenKind::Str,
                text: "\"\"".to_string(),
                line: tok_line,
                col: tok_col,
            });
            continue;
        }

        if c == '\'' {
            let n1 = chars.get(i + 1).copied();
            let n2 = chars.get(i + 2).copied();
            let is_char = n1 == Some('\\') || (n1.is_some() && n2 == Some('\''));
            if is_char {
                advance!(1);
                consume_quoted!('\'');
                tokens.push(Token {
                    kind: TokenKind::Char,
                    text: "''".to_string(),
                    line: tok_line,
                    col: tok_col,
                });
            } else {
                // lifetime: ' + identifier chars
                let mut text = String::from("'");
                advance!(1);
                while i < chars.len() && is_word_char(chars[i]) {
                    text.push(chars[i]);
                    advance!(1);
                }
                tokens.push(Token {
                    kind: TokenKind::Lifetime,
                    text,
                    line: tok_line,
                    col: tok_col,
                });
            }
            continue;
        }

        if c.is_ascii_digit() {
            let mut text = String::new();
            while i < chars.len() && is_word_char(chars[i]) {
                text.push(chars[i]);
                advance!(1);
                // decimal exponent sign: 1e-5, 2.5E+8 (not hex digits)
                if matches!(text.chars().last(), Some('e' | 'E'))
                    && !text.starts_with("0x")
                    && !text.starts_with("0X")
                    && matches!(chars.get(i), Some('+' | '-'))
                    && chars.get(i + 1).is_some_and(|d| d.is_ascii_digit())
                {
                    text.push(chars[i]);
                    advance!(1);
                }
            }
            // fractional part — but not the `..` of a range
            if chars.get(i) == Some(&'.') && chars.get(i + 1).is_some_and(|d| d.is_ascii_digit()) {
                text.push('.');
                advance!(1);
                while i < chars.len() && is_word_char(chars[i]) {
                    text.push(chars[i]);
                    advance!(1);
                    // exponent sign after the fraction: 1.5e-3
                    if matches!(text.chars().last(), Some('e' | 'E'))
                        && matches!(chars.get(i), Some('+' | '-'))
                        && chars.get(i + 1).is_some_and(|d| d.is_ascii_digit())
                    {
                        text.push(chars[i]);
                        advance!(1);
                    }
                }
            }
            tokens.push(Token {
                kind: TokenKind::Number,
                text,
                line: tok_line,
                col: tok_col,
            });
            continue;
        }

        if c.is_alphabetic() || c == '_' {
            let mut text = String::new();
            while i < chars.len() && is_word_char(chars[i]) {
                text.push(chars[i]);
                advance!(1);
            }
            tokens.push(Token {
                kind: TokenKind::Ident,
                text,
                line: tok_line,
                col: tok_col,
            });
            continue;
        }

        match c {
            '(' | '[' | '{' => {
                tokens.push(Token {
                    kind: TokenKind::Open,
                    text: c.to_string(),
                    line: tok_line,
                    col: tok_col,
                });
                advance!(1);
            }
            ')' | ']' | '}' => {
                tokens.push(Token {
                    kind: TokenKind::Close,
                    text: c.to_string(),
                    line: tok_line,
                    col: tok_col,
                });
                advance!(1);
            }
            _ => {
                // punctuation, longest operator first
                let mut matched = None;
                for op in JOINED_PUNCT {
                    if chars[i..]
                        .iter()
                        .zip(op.chars())
                        .filter(|(a, b)| **a == *b)
                        .count()
                        == op.chars().count()
                    {
                        matched = Some(*op);
                        break;
                    }
                }
                let text = match matched {
                    Some(op) => {
                        advance!(op.chars().count());
                        op.to_string()
                    }
                    None => {
                        advance!(1);
                        c.to_string()
                    }
                };
                tokens.push(Token {
                    kind: TokenKind::Punct,
                    text,
                    line: tok_line,
                    col: tok_col,
                });
            }
        }
    }

    let line_count = line as usize;
    comments.resize(line_count.max(1), String::new());
    LexedFile {
        tokens,
        comments,
        line_count,
    }
}

#[inline]
fn is_word_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src)
            .tokens
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn strings_and_comments_are_stripped() {
        let l = lex("let x = \"static mut\"; // static mut here\n/* unsafe */ let y = 1;\n");
        assert!(l.tokens.iter().all(|t| t.text != "static"));
        assert!(l.comments[0].contains("static mut"));
        assert!(l.comments[1].contains("unsafe"));
        assert!(l.tokens.iter().any(|t| t.is_ident("y") && t.line == 2));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = kinds("fn f<'a>(q: &'a str) -> char { 'x' }");
        assert!(toks.contains(&(TokenKind::Lifetime, "'a".into())));
        assert!(toks.contains(&(TokenKind::Char, "''".into())));
    }

    #[test]
    fn raw_strings_are_single_blank_tokens() {
        let toks = kinds("let p = r#\"unsafe { }\"#; let q = br##\"x\"##;");
        let strs: Vec<_> = toks.iter().filter(|(k, _)| *k == TokenKind::Str).collect();
        assert_eq!(strs.len(), 2);
        assert!(!toks.iter().any(|(_, t)| t == "unsafe"));
        assert!(toks.iter().any(|(_, t)| t == "q"));
    }

    #[test]
    fn spans_survive_multiline_raw_strings() {
        // the token after a 3-line raw string must land on line 4
        let src = "let a = r#\"l1\nl2\nl3\"#;\nlet b = 1;\n";
        let l = lex(src);
        let b = l.tokens.iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!((b.line, b.col), (4, 5));
        let a = l.tokens.iter().find(|t| t.is_ident("a")).unwrap();
        assert_eq!((a.line, a.col), (1, 5));
    }

    #[test]
    fn spans_survive_nested_block_comments() {
        let src = "/* outer /* inner\nstill */ comment */ let a = 1;\nlet b = 2;\n";
        let l = lex(src);
        let a = l.tokens.iter().find(|t| t.is_ident("a")).unwrap();
        assert_eq!(a.line, 2, "token after the nested comment stays on line 2");
        let b = l.tokens.iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!((b.line, b.col), (3, 5));
        assert!(l.comments[0].contains("inner"));
        assert!(!l.tokens.iter().any(|t| t.text == "still"));
    }

    #[test]
    fn multichar_operators_join() {
        let toks = kinds("a::b -> c => d .. e ..= f && g");
        let puncts: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Punct)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(puncts, vec!["::", "->", "=>", "..", "..=", "&&"]);
    }

    #[test]
    fn ranges_do_not_eat_numbers() {
        let toks = kinds("for i in 0..10_000 {}");
        assert!(toks.contains(&(TokenKind::Number, "0".into())));
        assert!(toks.contains(&(TokenKind::Punct, "..".into())));
        assert!(toks.contains(&(TokenKind::Number, "10_000".into())));
        let toks = kinds("let x = 1.5e-3f64;");
        assert!(toks.contains(&(TokenKind::Number, "1.5e-3f64".into())));
    }

    #[test]
    fn comment_only_lines_are_detected() {
        let l = lex("// just a comment\nlet x = 1; // trailing\n\n");
        assert!(l.is_comment_only_line(1));
        assert!(!l.is_comment_only_line(2));
        assert!(l.is_comment_only_line(3));
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        let toks = kinds("let a = b\"unsafe\"; let c = b'\\n'; let r = rng();");
        assert!(toks.contains(&(TokenKind::Str, "\"\"".into())));
        assert!(toks.contains(&(TokenKind::Char, "''".into())));
        assert!(toks.contains(&(TokenKind::Ident, "rng".into())));
        assert!(!toks.iter().any(|(_, t)| t == "unsafe"));
    }
}
