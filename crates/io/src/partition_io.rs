//! Partition files: one community id per line, line `i` holding ζ(i).
//! This is the format used by the DIMACS clustering tools.

use crate::{at_path, parse_error, IoError};
use parcom_graph::Partition;
use parcom_obs::json::u64_digits;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Reads a partition from a reader.
pub fn read_partition_from(reader: impl Read) -> Result<Partition, IoError> {
    let reader = BufReader::new(reader);
    let mut data = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let c: u32 = t
            .parse()
            .map_err(|_| parse_error(i + 1, format!("bad community id `{t}`")))?;
        data.push(c);
    }
    Ok(Partition::from_vec(data))
}

/// Reads a partition from a file path. Errors carry the path (and line).
pub fn read_partition(path: impl AsRef<Path>) -> Result<Partition, IoError> {
    let path = path.as_ref();
    at_path(
        path,
        std::fs::File::open(path)
            .map_err(IoError::from)
            .and_then(read_partition_from),
    )
}

/// Bytes per entry of a [`LabelText`] table: a `u32` has at most 10
/// digits, then the separator, then the entry's length in the last byte.
const ENTRY: usize = 12;

/// Labels [`write_partition_to`] renders per write, so its buffer stays
/// under 48 KiB whatever the partition's length.
const PIECE: usize = 4096;

/// The decimal text of a partition's labels, each followed by one
/// separator byte.
///
/// Labels are community ids, and every detector's result is compact, so
/// the text of each id in `0..upper_bound()` is built once into a table of
/// fixed-width entries, and a node costs one copy of its entry's text.
/// The table holds [`ENTRY`] × `upper_bound()` bytes while the render
/// runs: at most 12n, for singletons. A partition whose ids run above its
/// length (a file with sparse ids) renders label by label instead, as
/// `Partition::compact` hashes there rather than build a flat table.
struct LabelText {
    /// `None` for the label-by-label fallback.
    table: Option<Vec<[u8; ENTRY]>>,
    sep: u8,
    /// The longest entry: the digits of the largest id plus the separator.
    width: usize,
}

/// Id 0's table entry: the digit, `sep`, padding, and the length of the
/// two in the last byte.
fn zero_entry(sep: u8) -> [u8; ENTRY] {
    let mut entry = [0; ENTRY];
    entry[..2].copy_from_slice(&[b'0', sep]);
    entry[ENTRY - 1] = 2;
    entry
}

/// Turns the entry of id `c` into that of `c + 1` by a decimal carry: a
/// table of k entries costs O(k) steps, not k digit loops.
fn increment(entry: &mut [u8; ENTRY], sep: u8) {
    let digits = usize::from(entry[ENTRY - 1]) - 1;
    for d in entry[..digits].iter_mut().rev() {
        if *d < b'9' {
            *d += 1;
            return;
        }
        *d = b'0';
    }
    // all nines: a one in front and a zero more
    entry[0] = b'1';
    entry[digits] = b'0';
    entry[digits + 1] = sep;
    entry[ENTRY - 1] += 1;
}

impl LabelText {
    fn new(p: &Partition, sep: u8) -> Self {
        let upper = p.upper_bound();
        let table = (upper as usize <= p.len()).then(|| {
            let mut table = Vec::with_capacity(upper as usize);
            let mut next = zero_entry(sep);
            for _ in 0..upper {
                table.push(next);
                increment(&mut next, sep);
            }
            table
        });
        let largest = u64::from(upper.saturating_sub(1));
        let width = u64_digits(largest, &mut [0; 20]).len() + 1;
        Self { table, sep, width }
    }

    /// Appends the text of `labels`, all ids of the partition this was
    /// built from, to `out`, reserving no more than `labels.len()` times
    /// the widest entry.
    fn render(&self, labels: &[u32], out: &mut Vec<u8>) {
        out.reserve_exact(labels.len() * self.width);
        match &self.table {
            Some(table) => {
                // A whole-entry copy cut back to the entry's length beats a
                // copy of variable length (EXPERIMENTS.md); where the
                // reserve has no room for a whole entry, only the text is
                // copied, so the reserve never grows.
                for &c in labels {
                    let entry = &table[c as usize];
                    let len = usize::from(entry[ENTRY - 1]);
                    if out.capacity() - out.len() >= ENTRY {
                        out.extend_from_slice(entry);
                        out.truncate(out.len() - ENTRY + len);
                    } else {
                        out.extend_from_slice(&entry[..len]);
                    }
                }
            }
            None => {
                let mut digits = [0; 20];
                for &c in labels {
                    out.extend_from_slice(u64_digits(u64::from(c), &mut digits));
                    out.push(self.sep);
                }
            }
        }
    }
}

/// Appends every label of `p` in decimal, each followed by `sep`, to
/// `out`: `[0, 9, 10]` with `b','` appends `0,9,10,`. The output is the
/// same bytes `format!("{c}{sep}")` per label would give.
pub fn render_partition(p: &Partition, sep: u8, out: &mut Vec<u8>) {
    LabelText::new(p, sep).render(p.as_slice(), out);
}

/// Writes a partition to a writer.
pub fn write_partition_to(p: &Partition, mut writer: impl Write) -> Result<(), IoError> {
    let text = LabelText::new(p, b'\n');
    let mut piece = Vec::new();
    for labels in p.as_slice().chunks(PIECE) {
        piece.clear();
        text.render(labels, &mut piece);
        writer.write_all(&piece)?;
    }
    writer.flush()?;
    Ok(())
}

/// Writes a partition to a file path. Errors carry the path.
pub fn write_partition(p: &Partition, path: impl AsRef<Path>) -> Result<(), IoError> {
    let path = path.as_ref();
    at_path(
        path,
        std::fs::File::create(path)
            .map_err(IoError::from)
            .and_then(|f| write_partition_to(p, f)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let p = Partition::from_vec(vec![0, 0, 2, 1, 2]);
        let mut buf = Vec::new();
        write_partition_to(&p, &mut buf).unwrap();
        let q = read_partition_from(buf.as_slice()).unwrap();
        assert_eq!(p.as_slice(), q.as_slice());
    }

    #[test]
    fn writes_one_decimal_id_per_line() {
        let p = Partition::from_vec(vec![0, 9, 10, 4_294_967_294, 7]);
        let mut buf = Vec::new();
        write_partition_to(&p, &mut buf).unwrap();
        assert_eq!(buf, b"0\n9\n10\n4294967294\n7\n");
    }

    /// What `core::fmt` makes of `labels`, one `sep` after each.
    fn formatted(labels: &[u32], sep: u8) -> Vec<u8> {
        let sep = char::from(sep);
        labels
            .iter()
            .map(|c| format!("{c}{sep}"))
            .collect::<String>()
            .into_bytes()
    }

    /// Id `c`'s text, then its length in the entry's last byte.
    fn entry_text(entry: &[u8; ENTRY]) -> (&[u8], u8) {
        (&entry[..usize::from(entry[ENTRY - 1])], entry[ENTRY - 1])
    }

    #[test]
    fn increments_carry_up_to_the_widest_id() {
        let mut e = zero_entry(b',');
        for c in 0..1_100u32 {
            let want = format!("{c},");
            assert_eq!(entry_text(&e), (want.as_bytes(), want.len() as u8));
            increment(&mut e, b',');
        }
        for c in [999_999_999, u32::MAX - 1] {
            let mut e = [0; ENTRY];
            let text = format!("{c}\n");
            e[..text.len()].copy_from_slice(text.as_bytes());
            e[ENTRY - 1] = text.len() as u8;
            increment(&mut e, b'\n');
            let want = format!("{}\n", c + 1);
            assert_eq!(entry_text(&e), (want.as_bytes(), want.len() as u8));
        }
    }

    #[test]
    fn pieces_join_without_seams() {
        let labels: Vec<u32> = (0..3 * PIECE as u32 + 5).map(|i| i % 1013 * 7).collect();
        let p = Partition::from_vec(labels);
        let mut buf = Vec::new();
        write_partition_to(&p, &mut buf).unwrap();
        assert_eq!(buf, formatted(p.as_slice(), b'\n'));
    }

    proptest::proptest! {
        /// Both separators, both paths: dense ids, singletons, ids far
        /// above n (the label-by-label fallback), the widest id a
        /// `Partition` holds, one label, and none.
        #[test]
        fn renders_what_core_fmt_renders(
            shape in 0u8..6,
            raw in proptest::collection::vec(0u32..u32::MAX, 1..700),
        ) {
            let n = u32::try_from(raw.len()).unwrap();
            let labels: Vec<u32> = match shape {
                0 => raw.iter().map(|r| r % n).collect(),
                1 => (0..n).rev().collect(),
                2 => raw.iter().map(|r| n + r % (u32::MAX - 1 - n)).collect(),
                3 => raw.iter().map(|r| if r % 3 == 0 { u32::MAX - 1 } else { r % n }).collect(),
                4 => vec![if raw[0] % 2 == 0 { 0 } else { raw[0] }],
                _ => Vec::new(),
            };
            let p = Partition::from_vec(labels);
            // the daemon's bound: one buffer, grown by n × (digits + 1)
            let width = format!("{}", p.upper_bound().saturating_sub(1)).len() + 1;
            for sep in [b',', b'\n'] {
                let mut out = b"head".to_vec();
                render_partition(&p, sep, &mut out);
                proptest::prop_assert_eq!(&out[4..], &formatted(p.as_slice(), sep)[..]);
                proptest::prop_assert!(out.capacity() <= 4 + p.len() * width);
            }
            let mut file = Vec::new();
            write_partition_to(&p, &mut file).unwrap();
            proptest::prop_assert_eq!(file, formatted(p.as_slice(), b'\n'));
        }
    }

    #[test]
    fn skips_comments() {
        let q = read_partition_from("# truth\n0\n1\n\n1\n".as_bytes()).unwrap();
        assert_eq!(q.as_slice(), &[0, 1, 1]);
    }

    #[test]
    fn rejects_garbage() {
        assert!(read_partition_from("x\n".as_bytes()).is_err());
        assert!(read_partition_from("-1\n".as_bytes()).is_err());
    }

    #[test]
    fn empty_file_is_empty_partition() {
        let q = read_partition_from("".as_bytes()).unwrap();
        assert_eq!(q.len(), 0);
    }
}
