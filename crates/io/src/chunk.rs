//! Byte-level parsing substrate for the parallel readers.
//!
//! The chunked parsers ([`crate::metis`], [`crate::edgelist`]) split the
//! text on line boundaries into roughly per-core pieces and parse each
//! piece independently with zero per-line allocation: lines and tokens are
//! `&[u8]` sub-slices of the buffer, and numbers parse straight from those
//! slices. This module holds the shared machinery — splitting, line
//! iteration, token scanning, numeric parsing (with one 8-byte SWAR step
//! for the leading digits of a token).
//!
//! Error context discipline: a piece does not know the line it starts on.
//! It counts its own lines and reports errors at piece-relative lines; the
//! caller walks the pieces in order and shifts each error by the lines of
//! the pieces before it ([`crate::IoError::after_lines`]), so every parse
//! error still carries the exact 1-based line number and the
//! `path:line: msg` format is preserved bit-for-bit against the
//! sequential reference parsers.

use crate::IoError;

/// Inputs smaller than this are read and parsed in one piece: the
/// bookkeeping and the parallel region would cost more than they save.
pub(crate) const MIN_PARALLEL_BYTES: usize = 1 << 16;

/// Picks the piece count for an input buffer: one piece (which parses
/// inline, no parallel region) for small buffers or single-thread pools,
/// otherwise one piece per pool thread.
pub(crate) fn auto_parts(len: usize) -> usize {
    let threads = rayon::current_num_threads().max(1);
    if len < MIN_PARALLEL_BYTES || threads == 1 {
        1
    } else {
        threads
    }
}

/// Splits `bytes` into at most `parts` pieces, each ending on a line
/// boundary (after a `\n`, or at the end of the input). Every byte lands
/// in exactly one piece and concatenating the pieces in order reproduces
/// the input, so parsing piece by piece in order is equivalent to parsing
/// the whole buffer. Nothing is counted: the cut is a forward search for
/// the next newline from each tentative boundary.
pub(crate) fn split_lines(bytes: &[u8], parts: usize) -> Vec<&[u8]> {
    let parts = parts.max(1);
    let mut pieces: Vec<&[u8]> = Vec::with_capacity(parts);
    let target = bytes.len().div_ceil(parts).max(1);
    let mut start = 0usize;
    while start < bytes.len() {
        let tentative = (start + target).min(bytes.len());
        // extend to the next newline so the cut lands on a line boundary
        let end = match bytes[tentative..].iter().position(|&b| b == b'\n') {
            Some(i) => tentative + i + 1,
            None => bytes.len(),
        };
        pieces.push(&bytes[start..end]);
        start = end;
    }
    if pieces.is_empty() {
        pieces.push(&bytes[0..0]);
    }
    pieces
}

/// Iterator over the lines of a byte buffer, mirroring
/// `BufRead::lines`: terminators are stripped (`\n`, and a trailing `\r`
/// for CRLF files) and a final newline does not produce an empty
/// trailing line.
pub(crate) struct Lines<'a> {
    rest: Option<&'a [u8]>,
}

impl<'a> Iterator for Lines<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let rest = self.rest.take()?;
        let (mut line, tail) = match rest.iter().position(|&b| b == b'\n') {
            Some(i) => (&rest[..i], &rest[i + 1..]),
            None => (rest, &rest[rest.len()..]),
        };
        if !tail.is_empty() {
            self.rest = Some(tail);
        }
        if line.last() == Some(&b'\r') {
            line = &line[..line.len() - 1];
        }
        Some(line)
    }
}

/// Lines of `bytes` (see [`Lines`]).
pub(crate) fn lines(bytes: &[u8]) -> Lines<'_> {
    Lines {
        rest: if bytes.is_empty() { None } else { Some(bytes) },
    }
}

/// Iterator over the ASCII-whitespace-separated tokens of a line.
pub(crate) struct Tokens<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for Tokens<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let start = self.rest.iter().position(|b| !b.is_ascii_whitespace())?;
        let rest = &self.rest[start..];
        let end = rest
            .iter()
            .position(|b| b.is_ascii_whitespace())
            .unwrap_or(rest.len());
        self.rest = &rest[end..];
        Some(&rest[..end])
    }
}

/// Tokens of `line` (see [`Tokens`]).
pub(crate) fn tokens(line: &[u8]) -> Tokens<'_> {
    Tokens { rest: line }
}

/// Parses an unsigned decimal integer (optionally `+`-prefixed, like
/// `str::parse`) without allocating. `None` on empty, non-digit, or
/// overflowing input.
pub(crate) fn parse_u64(tok: &[u8]) -> Option<u64> {
    let digits = match tok.first() {
        Some(b'+') => &tok[1..],
        _ => tok,
    };
    if digits.is_empty() {
        return None;
    }
    if digits.len() <= 18 {
        // up to 18 digits cannot overflow a u64: skip the checked ops in
        // the hot path (every METIS/edgelist token lands here)
        let mut acc: u64 = 0;
        for &b in digits {
            let d = b.wrapping_sub(b'0');
            if d > 9 {
                return None;
            }
            acc = acc * 10 + d as u64;
        }
        return Some(acc);
    }
    let mut acc: u64 = 0;
    for &b in digits {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        acc = acc.checked_mul(10)?.checked_add(d as u64)?;
    }
    Some(acc)
}

/// [`parse_u64`] narrowed to `usize`.
pub(crate) fn parse_usize(tok: &[u8]) -> Option<usize> {
    parse_u64(tok)?.try_into().ok()
}

/// Bytes of `word` that are not ASCII digits, as each byte's high bit. No
/// step carries across a byte: the high-nibble test is a xor, the
/// low-nibble test adds at most 15 + 6 inside the byte, and the nonzero
/// test adds at most 0x7F + 0x7F.
fn non_digits(word: u64) -> u64 {
    const ONES: u64 = 0x0101_0101_0101_0101;
    let high = (word & (0xF0 * ONES)) ^ (0x30 * ONES);
    let low = ((word & (0x0F * ONES)) + 0x06 * ONES) & (0xF0 * ONES);
    let bad = high | low;
    (((bad & (0x7F * ONES)) + 0x7F * ONES) | bad) & (0x80 * ONES)
}

/// One word-at-a-time step over the token at `bytes[at..]`: the count of
/// its leading ASCII digits, at most 8, and their value; `(0, 0)` when
/// fewer than 8 bytes remain. A count below 8 ends on the byte after the
/// digits, which the caller checks is a separator.
#[inline]
pub(crate) fn leading_digits(bytes: &[u8], at: usize) -> (u64, usize) {
    let Some(word) = bytes.get(at..at.saturating_add(8)) else {
        return (0, 0);
    };
    let Ok(word) = <[u8; 8]>::try_from(word) else {
        return (0, 0);
    };
    let word = u64::from_le_bytes(word);
    let count = (non_digits(word).trailing_zeros() / 8) as usize;
    if count == 0 {
        return (0, 0);
    }
    // The digits' values, first digit in the low byte, moved to the top
    // of the word: the bytes below become leading zeros. A borrow out of
    // a non-digit byte runs upward, into bytes the shift drops.
    let mut v = (word.wrapping_sub(0x3030_3030_3030_3030)) << (8 * (8 - count));
    v = (v.wrapping_mul(10 * 256 + 1) >> 8) & 0x00FF_00FF_00FF_00FF;
    v = (v.wrapping_mul(100 * 65_536 + 1) >> 16) & 0x0000_FFFF_0000_FFFF;
    v = v.wrapping_mul(10_000 * (1 << 32) + 1) >> 32;
    (v, count)
}

/// Parses an `f64` from a byte token (UTF-8 check on the short token,
/// then `str::parse` — no heap allocation).
pub(crate) fn parse_f64(tok: &[u8]) -> Option<f64> {
    std::str::from_utf8(tok).ok()?.parse().ok()
}

/// Per-piece results, each with the number of lines its piece holds,
/// in piece order: the values paired with the number of lines before
/// their piece, or the earliest piece's error with its piece-relative
/// line shifted the same way — the earliest line, since pieces are in
/// line order.
pub(crate) fn in_line_order<T>(
    results: Vec<Result<(T, usize), IoError>>,
) -> Result<Vec<(usize, T)>, IoError> {
    let mut out = Vec::with_capacity(results.len());
    let mut before = 0;
    for r in results {
        let (value, lines) = r.map_err(|e| e.after_lines(before))?;
        out.push((before, value));
        before += lines;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_match_bufread_semantics() {
        let cases: [(&[u8], Vec<&[u8]>); 6] = [
            (b"", vec![]),
            (b"a", vec![b"a"]),
            (b"a\n", vec![b"a"]),
            (b"a\n\nb", vec![b"a", b"", b"b"]),
            (b"a\r\nb\n", vec![b"a", b"b"]),
            (b"\n\n", vec![b"", b""]),
        ];
        for (input, expect) in cases {
            let got: Vec<&[u8]> = lines(input).collect();
            assert_eq!(got, expect, "input {input:?}");
        }
    }

    #[test]
    fn tokens_split_on_ascii_whitespace() {
        let got: Vec<&[u8]> = tokens(b"  12\t 3.5  x ").collect();
        assert_eq!(got, vec![&b"12"[..], b"3.5", b"x"]);
        assert_eq!(tokens(b"   ").count(), 0);
        assert_eq!(tokens(b"").count(), 0);
    }

    #[test]
    fn chunks_tile_the_input_and_number_lines() {
        let text = b"one\ntwo\nthree\nfour\nfive\nsix\n";
        for parts in [1usize, 2, 3, 5, 20] {
            let chunks = split_lines(text, parts);
            assert!(!chunks.is_empty() && chunks.len() <= parts);
            assert_eq!(chunks.concat(), text.to_vec(), "parts={parts}");
            // chunks start at line boundaries: counting each chunk's lines
            // on from the lines before it numbers every line
            let mut all_lines = Vec::new();
            let mut before = 0;
            for c in &chunks {
                let count = lines(c).count();
                all_lines.extend((1..).zip(lines(c)).map(|(i, l)| (before + i, l.to_vec())));
                before += count;
            }
            let expect: Vec<(usize, Vec<u8>)> = lines(text)
                .enumerate()
                .map(|(i, l)| (i + 1, l.to_vec()))
                .collect();
            assert_eq!(all_lines, expect, "parts={parts}");
        }
    }

    #[test]
    fn chunking_handles_missing_trailing_newline() {
        for text in [&b"a\nb\nc"[..], b""] {
            let chunks = split_lines(text, 2);
            assert_eq!(chunks.concat(), text.to_vec());
            // every chunk but the last ends a line
            for c in &chunks[..chunks.len() - 1] {
                assert_eq!(c.last(), Some(&b'\n'));
            }
        }
    }

    #[test]
    fn leading_digits_match_a_byte_loop() {
        let scalar = |bytes: &[u8], at: usize| {
            let run = bytes[at..]
                .iter()
                .take(8)
                .take_while(|b| b.is_ascii_digit());
            let count = run.clone().count();
            let value = run.fold(0u64, |acc, &b| acc * 10 + u64::from(b - b'0'));
            (value, count)
        };
        let words: [&[u8]; 10] = [
            b"12345678 ",
            b"1 2 3 4 5",
            b"00000042\n",
            b"9999999999",
            b"120000\r\n1",
            b"7\x0b8 9 10 11",
            b"+1234567 ",
            b"1234/567 ",
            b"123:4567 ",
            b"55\x0c66 77 8",
        ];
        for bytes in words {
            for at in 0..bytes.len() {
                let got = leading_digits(bytes, at);
                if bytes.len() - at < 8 {
                    assert_eq!(got, (0, 0), "{bytes:?} at {at}");
                } else {
                    assert_eq!(got, scalar(bytes, at), "{bytes:?} at {at}");
                }
            }
        }
        // every byte value next to a digit: only '0'..='9' count
        for b in 0..=255u8 {
            let mut word = *b"1_345678";
            word[1] = b;
            assert_eq!(leading_digits(&word, 0), scalar(&word, 0), "byte {b:#x}");
        }
    }

    #[test]
    fn numeric_parsers() {
        assert_eq!(parse_u64(b"0"), Some(0));
        assert_eq!(parse_u64(b"+42"), Some(42));
        assert_eq!(parse_u64(b"18446744073709551615"), Some(u64::MAX));
        assert_eq!(parse_u64(b"18446744073709551616"), None);
        assert_eq!(parse_u64(b""), None);
        assert_eq!(parse_u64(b"-1"), None);
        assert_eq!(parse_u64(b"1x"), None);
        assert_eq!(parse_f64(b"2.5"), Some(2.5));
        assert_eq!(parse_f64(b"1e-3"), Some(1e-3));
        assert_eq!(parse_f64(b"nope"), None);
    }
}
