//! `BENCH_trajectory.json` keeps its shape.
//!
//! `scripts/bench_pairs.sh` appends one entry per recorded claim
//! (`PAIRS_RECORD=1`): the parent commit, the workload, `nproc`, the
//! seeds, each side's median machine speed and, per end-to-end metric of
//! `BENCHMARK.json`, both sides' median and quartiles, the pairs the change
//! won and the verdict. This test reads the shape only. The numbers are a
//! record of past sessions on other box states, so nothing here compares
//! them with each other or with a fresh run.

use parcom_obs::json::{self, Value};
use std::path::PathBuf;

fn read(name: &str) -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
    json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn field<'a>(v: &'a Value, key: &str, ctx: &str) -> &'a Value {
    v.get(key).unwrap_or_else(|| panic!("{ctx}: no `{key}`"))
}

fn number(v: &Value, key: &str, ctx: &str) -> f64 {
    let x = field(v, key, ctx).as_f64();
    x.unwrap_or_else(|| panic!("{ctx}: `{key}` is not a number"))
}

#[test]
fn every_entry_has_the_recorded_shape() {
    let bench = read("BENCHMARK.json");
    let names = |list: &str| -> Vec<String> {
        let items = field(&bench, list, "BENCHMARK.json").as_array().unwrap();
        (items.iter())
            .map(|m| field(m, "name", list).as_str().unwrap().to_string())
            .collect()
    };
    let (workloads, metrics) = (names("workloads"), names("end_to_end"));
    let trajectory = read("BENCH_trajectory.json");
    let entries = trajectory.as_array().expect("an array of entries");
    assert!(!entries.is_empty(), "the first entry is the ingest claim's");
    for (i, e) in entries.iter().enumerate() {
        let ctx = format!("entry {i}");
        let parent = field(e, "parent", &ctx).as_str().expect("parent commit");
        assert!(
            (7..=40).contains(&parent.len()) && parent.chars().all(|c| c.is_ascii_hexdigit()),
            "{ctx}: parent `{parent}`"
        );
        let workload = field(e, "workload", &ctx).as_str().unwrap();
        assert!(workloads.iter().any(|w| w == workload), "{ctx}: {workload}");
        assert!(field(e, "nproc", &ctx).as_u64().is_some_and(|n| n >= 1));
        let seeds = field(e, "seeds", &ctx).as_array().expect("seeds");
        assert!(!seeds.is_empty() && seeds.iter().all(|s| s.as_u64().is_some()));
        let speed = field(e, "machine_speed", &ctx);
        for side in ["parent", "change"] {
            assert!(number(speed, side, &ctx) > 0.0, "{ctx}: {side} speed");
        }
        let recorded = field(e, "metrics", &ctx).entries().expect("metrics object");
        assert!(!recorded.is_empty(), "{ctx}: no metric");
        for (name, m) in recorded {
            let ctx = format!("{ctx}, {name}");
            assert!(metrics.contains(name), "{ctx}: not an end-to-end metric");
            for side in ["parent", "change"] {
                let q = field(m, side, &ctx);
                let (q1, median, q3) = (
                    number(q, "q1", &ctx),
                    number(q, "median", &ctx),
                    number(q, "q3", &ctx),
                );
                assert!(q1 <= median && median <= q3, "{ctx}: {side} quartiles");
            }
            let wins = field(m, "wins", &ctx).as_u64().expect("wins");
            assert!(wins <= seeds.len() as u64, "{ctx}: {wins} wins");
            let verdict = field(m, "verdict", &ctx).as_str().unwrap();
            assert!(
                ["ok", "REGRESSED", "unresolved"].contains(&verdict),
                "{ctx}: {verdict}"
            );
        }
    }
}
