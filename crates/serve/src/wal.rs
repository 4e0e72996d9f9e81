//! The per-graph append-only write-ahead log (DESIGN.md §16).
//!
//! Every accepted edge batch becomes exactly one record, written (and,
//! under [`FsyncPolicy::Always`], fsynced) *before* the mutation is
//! acknowledged — so an acknowledged batch survives `kill -9` and is
//! replayed against the last checkpoint on the next boot. The format
//! follows the `binfmt` conventions: a PNG-style magic, an explicit
//! version, and the same [`checksum64`] the `.pcg` checkpoints use.
//!
//! ## Layout
//!
//! ```text
//! header (32 bytes):
//! [ 0.. 8]  magic  89 50 57 4c 0d 0a 1a 0a   ("\x89PWL\r\n\x1a\n")
//! [ 8..12]  version            u32 le        (this module reads 1)
//! [12..16]  reserved           u32 le        (0)
//! [16..24]  base sequence      u64 le        (checkpoint this log follows)
//! [24..32]  header checksum    u64 le        (checksum64 of bytes 0..24)
//!
//! record (one per accepted batch):
//! [ 0.. 4]  payload length     u32 le
//! [ 4..12]  sequence           u64 le        (base+1, base+2, … contiguous)
//! [12..20]  payload checksum   u64 le        (checksum64 of the payload)
//! [20.. ]   payload: op count u32 le, then per op
//!           tag u8 (1 insert / 2 remove), u u32 le, v u32 le,
//!           weight f64-bits u64 le (insert only)
//! ```
//!
//! Replay verifies magic, version, both checksums, and sequence
//! contiguity. A trailing record that is short, checksum-mismatched, or
//! out of sequence is a *torn tail* — the crash interrupted the append
//! before the acknowledgement, so the record was never promised to any
//! client — and replay stops there instead of failing ([`WalReplay::torn`]
//! reports it). Appends are fail-stop: once a write errors (or a fault
//! unwinds mid-record) the writer is *wedged* and refuses further
//! appends, because bytes after a torn record would be unreachable to
//! replay anyway.

use crate::store::EdgeOp;
use parcom_io::binfmt::checksum64;
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// First eight bytes of every WAL file.
pub const WAL_MAGIC: [u8; 8] = *b"\x89PWL\r\n\x1a\n";
/// Format version this module writes and reads.
pub const WAL_VERSION: u32 = 1;
/// Schema identifier, for reports and docs.
pub const WAL_SCHEMA: &str = "parcom-serve-wal/v1";

/// Fixed header size.
const HEADER_LEN: usize = 32;
/// Per-record head: length + sequence + payload checksum.
const RECORD_HEAD: usize = 20;
/// Sanity cap on one record's payload — far above what the HTTP body cap
/// allows a single batch to produce, so a corrupt length field cannot
/// drive a huge allocation.
const MAX_RECORD_PAYLOAD: usize = 256 * 1024 * 1024;

const TAG_INSERT: u8 = 1;
const TAG_REMOVE: u8 = 2;

/// When the log is flushed to stable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every appended record (and every checkpoint file),
    /// before the batch is acknowledged: acknowledged writes survive power
    /// loss, at the cost of one device sync per batch. The default.
    Always,
    /// Never `fsync`; writes still reach the OS page cache, so they
    /// survive a process crash (`kill -9`) but not a host power cut.
    Never,
}

impl FsyncPolicy {
    /// Parses the `--fsync` flag value.
    pub fn from_flag(value: &str) -> Result<Self, String> {
        match value {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            other => Err(format!("unknown fsync policy `{other}` (always|never)")),
        }
    }

    /// Stable lowercase name, for reports and logs.
    pub fn as_str(self) -> &'static str {
        match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::Never => "never",
        }
    }
}

/// Largest batch a single record can carry without its `u32` length
/// fields overflowing (op count, and payload bytes at ≤17 bytes/op).
/// Far above the daemon's admission cap; [`WalWriter::append`] refuses
/// larger batches before writing anything.
pub const MAX_RECORD_OPS: usize = (u32::MAX as usize - 4) / 17;

fn encode_ops(ops: &[EdgeOp]) -> Vec<u8> {
    debug_assert!(ops.len() <= MAX_RECORD_OPS);
    let mut out = Vec::with_capacity(4 + ops.len() * 17);
    out.extend_from_slice(&(ops.len() as u32).to_le_bytes()); // audit:allow(lossy-cast): append() bounds batches to MAX_RECORD_OPS
    for op in ops {
        match *op {
            EdgeOp::Insert(u, v, w) => {
                out.push(TAG_INSERT);
                out.extend_from_slice(&u.to_le_bytes());
                out.extend_from_slice(&v.to_le_bytes());
                out.extend_from_slice(&w.to_bits().to_le_bytes());
            }
            EdgeOp::Remove(u, v) => {
                out.push(TAG_REMOVE);
                out.extend_from_slice(&u.to_le_bytes());
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
    }
    out
}

fn decode_ops(payload: &[u8]) -> Option<Vec<EdgeOp>> {
    let count = u32::from_le_bytes(payload.get(0..4)?.try_into().ok()?) as usize;
    let mut ops = Vec::with_capacity(count.min(1 << 20));
    let mut pos = 4;
    for _ in 0..count {
        let tag = *payload.get(pos)?;
        pos += 1;
        let u = u32::from_le_bytes(payload.get(pos..pos + 4)?.try_into().ok()?);
        let v = u32::from_le_bytes(payload.get(pos + 4..pos + 8)?.try_into().ok()?);
        pos += 8;
        match tag {
            TAG_INSERT => {
                let bits = u64::from_le_bytes(payload.get(pos..pos + 8)?.try_into().ok()?);
                pos += 8;
                ops.push(EdgeOp::Insert(u, v, f64::from_bits(bits)));
            }
            TAG_REMOVE => ops.push(EdgeOp::Remove(u, v)),
            _ => return None,
        }
    }
    // trailing bytes inside a checksummed payload are corruption
    if pos != payload.len() {
        return None;
    }
    Some(ops)
}

fn header_bytes(base_seq: u64) -> [u8; HEADER_LEN] {
    let mut head = [0u8; HEADER_LEN];
    head[0..8].copy_from_slice(&WAL_MAGIC);
    head[8..12].copy_from_slice(&WAL_VERSION.to_le_bytes());
    head[12..16].copy_from_slice(&0u32.to_le_bytes());
    head[16..24].copy_from_slice(&base_seq.to_le_bytes());
    let sum = checksum64(&head[0..24]);
    head[24..32].copy_from_slice(&sum.to_le_bytes());
    head
}

/// The append handle a [`crate::store::GraphEntry`] holds while durable.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    policy: FsyncPolicy,
    last_seq: u64,
    wedged: bool,
}

impl WalWriter {
    /// Creates (truncating) a fresh log whose records continue from
    /// `base_seq` — the WAL-seq of the checkpoint it follows. The header
    /// is flushed (per policy) before this returns, so an existing header
    /// can always be trusted.
    pub fn create(path: &Path, base_seq: u64, policy: FsyncPolicy) -> io::Result<Self> {
        let mut file = File::create(path)?;
        file.write_all(&header_bytes(base_seq))?;
        if policy == FsyncPolicy::Always {
            file.sync_data()?;
        }
        Ok(Self {
            file,
            path: path.to_path_buf(),
            policy,
            last_seq: base_seq,
            wedged: false,
        })
    }

    /// Reopens an intact log for appending after a clean replay —
    /// `last_seq` is the sequence of its final valid record. The file must
    /// not have a torn tail (replay reports that; torn logs are replaced
    /// by a fresh checkpoint era instead of reopened).
    pub fn append_to(path: &Path, last_seq: u64, policy: FsyncPolicy) -> io::Result<Self> {
        let file = std::fs::OpenOptions::new().append(true).open(path)?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            policy,
            last_seq,
            wedged: false,
        })
    }

    /// Appends one batch as one record and (per policy) fsyncs, returning
    /// the record's sequence number. Call *before* acknowledging the
    /// batch. Errors are fail-stop: after any failure the writer refuses
    /// further appends until the next checkpoint installs a fresh log.
    pub fn append(&mut self, ops: &[EdgeOp]) -> io::Result<u64> {
        if self.wedged {
            return Err(io::Error::other(format!(
                "write-ahead log {} is wedged by an earlier failed append; checkpoint to recover",
                self.path.display()
            )));
        }
        if ops.len() > MAX_RECORD_OPS {
            // Refused before any write: the record's u32 length fields
            // cannot represent the batch, and a truncated count would
            // corrupt the log shape. Not a wedge — nothing was written.
            return Err(io::Error::other(format!(
                "batch of {} operations exceeds the per-record limit of {MAX_RECORD_OPS}",
                ops.len()
            )));
        }
        let payload = encode_ops(ops);
        let seq = self.last_seq + 1;
        let mut record = Vec::with_capacity(RECORD_HEAD + payload.len());
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes()); // audit:allow(lossy-cast): bounded by the MAX_RECORD_OPS check above
        record.extend_from_slice(&seq.to_le_bytes());
        record.extend_from_slice(&checksum64(&payload).to_le_bytes());
        record.extend_from_slice(&payload);
        self.wedged = true;
        // The record goes out in two writes with the fault site between
        // them, so the abort-path tests exercise a genuinely torn tail
        // (record head on disk, payload missing).
        self.file.write_all(&record[..RECORD_HEAD])?;
        parcom_guard::faultpoint!("serve/wal-append");
        self.file.write_all(&record[RECORD_HEAD..])?;
        if self.policy == FsyncPolicy::Always {
            self.file.sync_data()?;
        }
        self.wedged = false;
        self.last_seq = seq;
        Ok(seq)
    }

    /// Flushes buffered file data to disk regardless of policy — the
    /// graceful-shutdown path.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    /// Sequence of the last successfully appended record (or the base
    /// sequence if none).
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }
}

/// The outcome of replaying one log file.
#[derive(Debug)]
pub struct WalReplay {
    /// Checkpoint sequence this log continues from.
    pub base_seq: u64,
    /// Valid records in order: contiguous sequences starting at
    /// `base_seq + 1`.
    pub records: Vec<(u64, Vec<EdgeOp>)>,
    /// Whether a torn/corrupt tail was discarded after the last valid
    /// record.
    pub torn: bool,
    /// Byte length of the valid prefix (header + intact records).
    pub valid_len: u64,
}

/// Reads and verifies a log file. A damaged *tail* is tolerated (see
/// module docs); a damaged *header* is not — headers are flushed before
/// any record is acknowledged, so a bad one means the file is not a log.
pub fn replay(path: &Path) -> io::Result<WalReplay> {
    let bytes = std::fs::read(path)?;
    if bytes.len() < HEADER_LEN || bytes[0..8] != WAL_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: not a {WAL_SCHEMA} log (bad magic)", path.display()),
        ));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != WAL_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: unsupported log version {version}", path.display()),
        ));
    }
    let stored = u64::from_le_bytes(bytes[24..32].try_into().unwrap());
    if checksum64(&bytes[0..24]) != stored {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: log header checksum mismatch", path.display()),
        ));
    }
    let base_seq = u64::from_le_bytes(bytes[16..24].try_into().unwrap());

    let mut records = Vec::new();
    let mut pos = HEADER_LEN;
    let mut expect = base_seq + 1;
    let mut torn = false;
    while pos < bytes.len() {
        if pos + RECORD_HEAD > bytes.len() {
            torn = true;
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let seq = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap());
        let sum = u64::from_le_bytes(bytes[pos + 12..pos + 20].try_into().unwrap());
        let body = pos + RECORD_HEAD;
        if len > MAX_RECORD_PAYLOAD || body + len > bytes.len() {
            torn = true;
            break;
        }
        let payload = &bytes[body..body + len];
        if checksum64(payload) != sum || seq != expect {
            torn = true;
            break;
        }
        let Some(ops) = decode_ops(payload) else {
            torn = true;
            break;
        };
        records.push((seq, ops));
        expect += 1;
        pos = body + len;
    }
    Ok(WalReplay {
        base_seq,
        records,
        torn,
        valid_len: pos as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_wal(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("parcom-wal-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("g.wal")
    }

    fn ops_a() -> Vec<EdgeOp> {
        vec![EdgeOp::Insert(0, 1, 1.0), EdgeOp::Remove(2, 3)]
    }

    fn assert_ops_eq(a: &[EdgeOp], b: &[EdgeOp]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            match (x, y) {
                (EdgeOp::Insert(u1, v1, w1), EdgeOp::Insert(u2, v2, w2)) => {
                    assert_eq!((u1, v1), (u2, v2));
                    assert_eq!(w1.to_bits(), w2.to_bits());
                }
                (EdgeOp::Remove(u1, v1), EdgeOp::Remove(u2, v2)) => {
                    assert_eq!((u1, v1), (u2, v2));
                }
                _ => panic!("op kinds differ"),
            }
        }
    }

    #[test]
    fn append_and_replay_roundtrip() {
        let path = temp_wal("roundtrip");
        let mut w = WalWriter::create(&path, 7, FsyncPolicy::Always).unwrap();
        assert_eq!(w.append(&ops_a()).unwrap(), 8);
        assert_eq!(w.append(&[EdgeOp::Insert(5, 6, 2.5)]).unwrap(), 9);
        let rep = replay(&path).unwrap();
        assert_eq!(rep.base_seq, 7);
        assert!(!rep.torn);
        assert_eq!(rep.records.len(), 2);
        assert_eq!(rep.records[0].0, 8);
        assert_ops_eq(&rep.records[0].1, &ops_a());
        assert_eq!(rep.valid_len, std::fs::metadata(&path).unwrap().len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let path = temp_wal("torn");
        let mut w = WalWriter::create(&path, 0, FsyncPolicy::Never).unwrap();
        w.append(&ops_a()).unwrap();
        let intact = std::fs::metadata(&path).unwrap().len();
        // a record head with no payload: exactly the shape a mid-append
        // crash leaves behind
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&9999u32.to_le_bytes());
        bytes.extend_from_slice(&2u64.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let rep = replay(&path).unwrap();
        assert!(rep.torn);
        assert_eq!(rep.records.len(), 1);
        assert_eq!(rep.valid_len, intact);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_payload_stops_replay_at_the_last_valid_record() {
        let path = temp_wal("corrupt");
        let mut w = WalWriter::create(&path, 0, FsyncPolicy::Never).unwrap();
        w.append(&ops_a()).unwrap();
        w.append(&ops_a()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let rep = replay(&path).unwrap();
        assert!(rep.torn);
        assert_eq!(rep.records.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_header_is_an_error() {
        let path = temp_wal("header");
        std::fs::write(&path, b"not a log at all").unwrap();
        assert!(replay(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_to_continues_the_sequence() {
        let path = temp_wal("reopen");
        let mut w = WalWriter::create(&path, 0, FsyncPolicy::Never).unwrap();
        w.append(&ops_a()).unwrap();
        drop(w);
        let rep = replay(&path).unwrap();
        let mut w =
            WalWriter::append_to(&path, rep.records.last().unwrap().0, FsyncPolicy::Never).unwrap();
        assert_eq!(w.append(&ops_a()).unwrap(), 2);
        let rep = replay(&path).unwrap();
        assert!(!rep.torn);
        assert_eq!(rep.records.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn weight_bits_roundtrip_exactly() {
        let path = temp_wal("bits");
        let w0 = f64::from_bits(0x3ff0_0000_0000_0001); // 1.0 + 1 ulp
        let mut w = WalWriter::create(&path, 0, FsyncPolicy::Never).unwrap();
        w.append(&[EdgeOp::Insert(1, 2, w0)]).unwrap();
        let rep = replay(&path).unwrap();
        match rep.records[0].1[0] {
            EdgeOp::Insert(_, _, got) => assert_eq!(got.to_bits(), w0.to_bits()),
            _ => panic!("wrong op"),
        }
        std::fs::remove_file(&path).ok();
    }
}
