//! Partition files: one community id per line, line `i` holding ζ(i).
//! This is the format used by the DIMACS clustering tools.

use crate::{at_path, parse_error, IoError};
use parcom_graph::Partition;
use parcom_obs::json::u64_digits;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
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

/// Writes a partition to a writer.
pub fn write_partition_to(p: &Partition, writer: impl Write) -> Result<(), IoError> {
    let mut w = BufWriter::new(writer);
    let mut digits = [0; 20];
    for &c in p.as_slice() {
        w.write_all(u64_digits(u64::from(c), &mut digits))?;
        w.write_all(b"\n")?;
    }
    w.flush()?;
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
