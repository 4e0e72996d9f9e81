//! Minimal command-line argument parsing (no external dependencies).
//!
//! Grammar: `parcom <command> [--flag value]... [--switch]...`. Flags may be
//! given as `--name value` or `--name=value`; a `--name` not followed by a
//! value is a boolean switch. Positional arguments beyond the command word
//! are rejected.
//!
//! Flags shared across subcommands:
//!
//! | flag | commands | meaning |
//! |------|----------|---------|
//! | `--input FILE` | detect, stats, cg, convert | graph file (`.pcg` magic = parcom binary, `.metis`/`.graph` = METIS, else edge list; format sniffed by content first) |
//! | `--algo NAME` | detect | a name from the `parcom_core::spec` registry (`parcom detect` with a bad name prints the current list); knob applicability is validated there too |
//! | `--threads N` | detect | run inside a pool of `N` workers (0 = the default pool) |
//! | `--seed S` | generate, detect | seed applied uniformly via `CommunityDetector::set_seed` (default 1) |
//! | `--report json` | detect | emit the structured `RunReport` as JSON on stdout; the human summary moves to stderr. The report's leading phases are `ingest/parse` and `ingest/build` (graph file ingest timings, with `bytes`/`edges` counters), followed by the algorithm's own phases |
//! | `--gamma X` | detect | resolution parameter, for algorithms whose spec accepts the `gamma` knob |
//! | `--ensemble B` | detect | ensemble size, for algorithms whose spec accepts the `ensemble` knob |
//! | `--move racy\|coloring` | detect | PLM move-phase strategy, for algorithms whose spec accepts the `move` knob (`plm`, `plmr`, `epp`, `eppr`); `coloring` produces bit-identical partitions at any `--threads` (DESIGN.md §14) |
//! | `--timeout SECS` | detect | cooperative wall-clock budget: the run stops at the next sweep/level boundary after `SECS` seconds and returns the best valid partition so far; the termination cause lands in the summary and in `--report json` |
//! | `--max-sweeps N` | detect | cap on total sweeps/levels across the run, with the same graceful degradation |
//! | `--max-nodes N` / `--max-edges M` | detect, serve | ingest limits: reject input whose header claims more, before allocating |
//! | `--relabel` | detect, convert | degree-ordered (hub-first) node relabeling for cache locality (DESIGN.md §15): `convert` stores the reordered view plus its permutation in the `.pcg`; `detect` reorders at load. Per-node output is always mapped back to original ids |
//! | `--out FILE` | generate, detect, cg, convert | output file (`convert` writes `parcom-graph-bin/v1`) |
//! | `--socket PATH` / `--listen ADDR` | serve | where the resident daemon listens (Unix socket path / TCP address) |
//! | `--state-dir DIR` | serve | crash-safe state directory (DESIGN.md §16): per-graph write-ahead logs + `.pcg` checkpoints, replayed on boot; omit to run volatile |
//! | `--fsync always\|never` | serve | WAL durability: `always` (default) fsyncs each record before acknowledging, surviving power loss; `never` rides the page cache, surviving only process crashes |
//! | `--max-detects N` | serve | cap concurrent detections; excess requests are shed with `429 Retry-After` (0 = unlimited, default 4) |

use std::collections::BTreeMap;

/// Parsed arguments: the command word plus flag/value pairs.
#[derive(Clone, Debug, Default)]
pub struct Args {
    /// The leading subcommand (e.g. `detect`).
    pub command: String,
    flags: BTreeMap<String, String>,
}

/// A parse failure with a user-facing message.
#[derive(Debug, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses a raw argument list (without the binary name).
    pub fn parse(raw: &[String]) -> Result<Self, ArgError> {
        let mut it = raw.iter();
        let command = it
            .next()
            .ok_or_else(|| ArgError("missing command".into()))?
            .clone();
        if command.starts_with('-') {
            return Err(ArgError(format!(
                "expected a command, got flag `{command}`"
            )));
        }
        let mut flags = BTreeMap::new();
        let rest: Vec<&String> = it.collect();
        let mut i = 0;
        while i < rest.len() {
            let tok = rest[i];
            let Some(name) = tok.strip_prefix("--") else {
                return Err(ArgError(format!("expected `--flag`, got `{tok}`")));
            };
            if let Some((k, v)) = name.split_once('=') {
                flags.insert(k.to_string(), v.to_string());
                i += 1;
            } else if i + 1 < rest.len() && !rest[i + 1].starts_with("--") {
                flags.insert(name.to_string(), rest[i + 1].clone());
                i += 2;
            } else {
                // boolean switch
                flags.insert(name.to_string(), "true".to_string());
                i += 1;
            }
        }
        Ok(Self { command, flags })
    }

    /// A string flag, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// The names of all flags given, in name order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.flags.keys().map(String::as_str)
    }

    /// A required string flag.
    pub fn require(&self, name: &str) -> Result<&str, ArgError> {
        self.get(name)
            .ok_or_else(|| ArgError(format!("missing required flag --{name}")))
    }

    /// A typed flag with a default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| ArgError(format!("bad value `{raw}` for --{name}"))),
        }
    }

    /// Whether a boolean switch was given.
    pub fn switch(&self, name: &str) -> bool {
        matches!(self.get(name), Some("true") | Some("1") | Some("yes"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, ArgError> {
        Args::parse(&words.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_command_and_flags() {
        let a = parse(&["detect", "--input", "g.metis", "--algo", "plm"]).unwrap();
        assert_eq!(a.command, "detect");
        assert_eq!(a.get("input"), Some("g.metis"));
        assert_eq!(a.require("algo").unwrap(), "plm");
    }

    #[test]
    fn parses_equals_form() {
        let a = parse(&["generate", "--model=lfr", "--n=1000"]).unwrap();
        assert_eq!(a.get("model"), Some("lfr"));
        assert_eq!(a.get_or::<usize>("n", 0).unwrap(), 1000);
    }

    #[test]
    fn boolean_switches() {
        let a = parse(&["detect", "--verbose", "--input", "x"]).unwrap();
        assert!(a.switch("verbose"));
        assert!(!a.switch("quiet"));
    }

    #[test]
    fn typed_defaults() {
        let a = parse(&["detect"]).unwrap();
        assert_eq!(a.get_or("threads", 4usize).unwrap(), 4);
        assert_eq!(a.get_or("gamma", 1.0f64).unwrap(), 1.0);
    }

    #[test]
    fn rejects_missing_command() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--input", "x"]).is_err());
    }

    #[test]
    fn rejects_bad_values_and_positional_garbage() {
        let a = parse(&["detect", "--threads", "abc"]).unwrap();
        assert!(a.get_or::<usize>("threads", 1).is_err());
        assert!(parse(&["detect", "stray"]).is_err());
    }

    #[test]
    fn missing_required_flag() {
        let a = parse(&["detect"]).unwrap();
        assert!(a.require("input").is_err());
    }
}
