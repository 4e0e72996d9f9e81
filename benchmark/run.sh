#!/usr/bin/env bash
# parbench — build, then run. One command for everything:
#
#   benchmark/run.sh [--seed S] [--out FILE] [--runs R] [--quick]
#       all six workloads untraced, then traced; prints every metric by
#       name with its unit, checks every output, writes one JSON result
#   benchmark/run.sh --workload W --seed S --seconds X --trace 0|1
#       one run of one workload (what BENCHMARK.json's command invokes);
#       the last line of stdout is the result object
#   benchmark/run.sh compare A.json B.json
#
# Builds the release `parcom` binary from the root workspace, exactly the
# artefact users run, and `parbench` from the nested one, both into
# $CARGO_TARGET_DIR (default .bench_build, which .gitignore names).
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"
# build output goes to stderr: stdout belongs to the result
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p parcom-cli 1>&2
cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml" 1>&2
exec "$CARGO_TARGET_DIR/release/parbench" "$@"
