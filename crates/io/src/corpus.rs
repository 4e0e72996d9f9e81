//! State-directory ("corpus") layout for the daemon's durability layer.
//!
//! `parcom serve --state-dir DIR` keeps, per resident graph `<name>`:
//!
//! ```text
//! <name>.pcg        current checkpoint (binfmt snapshot, WAL-seq tagged)
//! <name>.pcg.prev   previous checkpoint generation
//! <name>.wal        write-ahead log since the current checkpoint
//! <name>.wal.prev   log of the previous checkpoint era
//! <name>.pcg.tmp    checkpoint in flight (ignored by recovery)
//! <name>.wal.tmp    fresh log in flight (ignored by recovery)
//! ```
//!
//! Two generations are retained so a corrupt current checkpoint falls back
//! to the previous one plus the full log chain (`.wal.prev` then `.wal`);
//! see DESIGN.md §16 for the rotation protocol and its crash windows. This
//! module owns only the *layout* — naming, scanning, and the atomic-write
//! primitive — so the daemon and offline tooling agree on what a state
//! directory means.

use crate::IoError;
use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};

/// The per-graph file set inside a state directory.
#[derive(Clone, Debug)]
pub struct StatePaths {
    /// Current checkpoint.
    pub pcg: PathBuf,
    /// Previous-generation checkpoint.
    pub pcg_prev: PathBuf,
    /// Checkpoint write staging file.
    pub pcg_tmp: PathBuf,
    /// Current write-ahead log.
    pub wal: PathBuf,
    /// Previous-era write-ahead log.
    pub wal_prev: PathBuf,
    /// Fresh-log staging file.
    pub wal_tmp: PathBuf,
}

impl StatePaths {
    /// Every path of the set, for removal loops.
    pub fn all(&self) -> [&Path; 6] {
        [
            &self.pcg,
            &self.pcg_prev,
            &self.pcg_tmp,
            &self.wal,
            &self.wal_prev,
            &self.wal_tmp,
        ]
    }
}

/// The file set of graph `name` under `dir`. Performs no I/O.
pub fn state_paths(dir: &Path, name: &str) -> StatePaths {
    StatePaths {
        pcg: dir.join(format!("{name}.pcg")),
        pcg_prev: dir.join(format!("{name}.pcg.prev")),
        pcg_tmp: dir.join(format!("{name}.pcg.tmp")),
        wal: dir.join(format!("{name}.wal")),
        wal_prev: dir.join(format!("{name}.wal.prev")),
        wal_tmp: dir.join(format!("{name}.wal.tmp")),
    }
}

/// One graph discovered in a state directory.
#[derive(Clone, Debug)]
pub struct CorpusEntry {
    /// The graph name (file stem with the state suffix stripped).
    pub name: String,
    /// Its full file set (any member may be absent on disk).
    pub paths: StatePaths,
}

/// Suffixes that mark a file as belonging to a graph's state set, longest
/// first so `x.pcg.prev` strips to `x`, not `x.pcg`. `.tmp` files count as
/// name evidence (a crash may leave *only* staging files) but recovery
/// ignores their contents.
const STATE_SUFFIXES: &[&str] = &[
    ".pcg.prev",
    ".pcg.tmp",
    ".wal.prev",
    ".wal.tmp",
    ".pcg",
    ".wal",
];

/// Scans a state directory and returns one entry per graph name found, in
/// sorted (deterministic) order. A name is listed if *any* member of its
/// file set exists — mid-rotation crash windows can leave a graph with only
/// a `.pcg.prev`, and recovery must still find it. Files that match no
/// state suffix are ignored, so a corpus directory tolerates stray files.
pub fn scan_corpus(dir: &Path) -> Result<Vec<CorpusEntry>, IoError> {
    let mut names: Vec<String> = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| IoError::from(e).with_path(dir))?;
    for entry in entries {
        let entry = entry.map_err(|e| IoError::from(e).with_path(dir))?;
        let file_name = entry.file_name();
        let Some(file_name) = file_name.to_str() else {
            continue;
        };
        if let Some(name) = strip_state_suffix(file_name) {
            if !name.is_empty() && !names.iter().any(|n| n == name) {
                names.push(name.to_string());
            }
        }
    }
    names.sort();
    Ok(names
        .into_iter()
        .map(|name| CorpusEntry {
            paths: state_paths(dir, &name),
            name,
        })
        .collect())
}

fn strip_state_suffix(file_name: &str) -> Option<&str> {
    STATE_SUFFIXES
        .iter()
        .find_map(|suffix| file_name.strip_suffix(suffix))
}

/// Flushes directory metadata (the rename journal) to disk — the final
/// step of a durable rotation. Best-effort on platforms where directories
/// cannot be opened for sync.
pub fn fsync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("parcom-corpus-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn scan_finds_names_from_any_state_file() {
        let dir = temp_dir("scan");
        // A full set, a mid-rotation survivor, dotted names, and noise.
        std::fs::write(dir.join("alpha.pcg"), b"x").unwrap();
        std::fs::write(dir.join("alpha.wal"), b"x").unwrap();
        std::fs::write(dir.join("beta.pcg.prev"), b"x").unwrap();
        std::fs::write(dir.join("web.2026.pcg"), b"x").unwrap();
        std::fs::write(dir.join("README.txt"), b"x").unwrap();
        let entries = scan_corpus(&dir).unwrap();
        let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["alpha", "beta", "web.2026"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dotted_names_strip_the_longest_suffix() {
        assert_eq!(strip_state_suffix("a.b.pcg.prev"), Some("a.b"));
        assert_eq!(strip_state_suffix("a.pcg.tmp"), Some("a"));
        assert_eq!(strip_state_suffix("a.wal"), Some("a"));
        assert_eq!(strip_state_suffix("a.txt"), None);
    }
}
