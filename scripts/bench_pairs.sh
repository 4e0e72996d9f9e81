#!/usr/bin/env bash
# Parent/change pairs of one parbench workload: the evidence a performance
# claim needs (CONTRIBUTING.md), measured and tabulated in one command.
#
#   scripts/bench_pairs.sh PARENT_REV WORKLOAD SEED...
#
# PARENT_REV is exported with `git archive` into its own directory and
# built into its own target directory; the change is the working tree,
# built where benchmark/run.sh builds by default. Each seed is one pair:
# both sides run
#   benchmark/run.sh --workload WORKLOAD --seed SEED --seconds 15 --trace 0
# the parent first on odd pairs and the change first on even ones, so a
# drift in the box's speed lands on both sides alike. Every one-line result
# is kept as $PAIRS_DIR/<commit>/<workload>/{parent,change}-<seed>.json.
# The table at the end gives, per end-to-end metric, both medians with
# their quartiles, the pairs the change won, "apart" where the medians
# differ by more than the parent's quartile distance, the change/parent
# median ratio, and the verdict `parbench compare` (benchmark/src/compare.rs)
# would give against the metric's BENCHMARK.json bound: "unresolved" when a
# run is flagged noisy or either side's interquartile spread, as a share of
# its median, exceeds the bound; else "REGRESSED" when the change is worse
# than the parent by more than the bound; else "ok".
#
# Environment: PAIRS_DIR (default .bench_pairs at the root), PAIRS_TRACE
# (default 0; 1 runs traced and tabulates the per-layer metrics instead),
# PAIRS_RECORD (default 0; 1 appends the untraced table as one entry to
# BENCH_trajectory.json at the root: the parent commit, the workload,
# nproc, the seeds, each side's median machine speed and, per end-to-end
# metric, both sides' median and quartiles, the wins and the verdict).
set -euo pipefail
if [ $# -lt 3 ]; then
  sed -n '2,29p' "$0" >&2
  exit 2
fi
root="$(cd "$(dirname "$0")/.." && pwd)"
rev="$1" workload="$2"
shift 2
trace="${PAIRS_TRACE:-0}"
pairs="${PAIRS_DIR:-$root/.bench_pairs}"
commit="$(git -C "$root" rev-parse --short "$rev^{commit}")"
tree="$pairs/$commit/tree"
if [ ! -d "$tree" ]; then
  mkdir -p "$tree.partial"
  git -C "$root" archive "$commit" | tar -x -C "$tree.partial"
  mv "$tree.partial" "$tree"
fi
out="$pairs/$commit/$workload"
mkdir -p "$out"
suffix=""
[ "$trace" = 1 ] && suffix="-traced"

run() { # side seed
  local dir="$root" target="${CARGO_TARGET_DIR:-$root/.bench_build}"
  if [ "$1" = parent ]; then
    dir="$tree" target="$pairs/$commit/target"
  fi
  # the whole output is kept: its comment lines carry the machine speed
  CARGO_TARGET_DIR="$target" "$dir/benchmark/run.sh" --workload "$workload" \
    --seed "$2" --seconds 15 --trace "$trace" > "$out/$1-$2$suffix.txt"
  tail -n 1 "$out/$1-$2$suffix.txt" > "$out/$1-$2$suffix.json"
}

i=0
for seed in "$@"; do
  i=$((i + 1))
  if [ $((i % 2)) = 1 ]; then order="parent change"; else order="change parent"; fi
  echo "pair $i/$#: $workload seed $seed, $order" >&2
  for side in $order; do run "$side" "$seed"; done
done

record="${PAIRS_RECORD:-0}"
if [ "$record" = 1 ] && [ "$trace" = 1 ]; then
  echo "PAIRS_RECORD records untraced pairs only; nothing recorded" >&2
  record=0
fi
python3 - "$root" "$commit" "$workload" "$record" "$out" "$suffix" "$@" <<'EOF'
import json, os, re, statistics, sys

root, commit, workload, record, out, suffix = sys.argv[1:7]
seeds = sys.argv[7:]
bench_path = f"{root}/BENCHMARK.json"
bench = json.load(open(bench_path))
better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
bound = {m["name"]: m["bound"] for m in bench["end_to_end"]}
table = bench["per_layer"] if suffix else bench["end_to_end"]
runs = {side: [json.load(open(f"{out}/{side}-{s}{suffix}.json")) for s in seeds]
        for side in ("parent", "change")}

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4, method="inclusive"))

def spread(xs):
    # compare.rs: interquartile distance (exclusive method) over the median
    if len(xs) < 2 or statistics.median(xs) == 0:
        return None
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / abs(statistics.median(xs))

def verdict(name, worse, p, c):
    if name not in bound:
        return ""
    spreads = [s for s in (spread(p), spread(c)) if s is not None]
    if noisy or any(s > bound[name] for s in spreads):
        return "unresolved"
    return "REGRESSED" if worse > bound[name] else "ok"

noisy = any(r.get("noisy") for rs in runs.values() for r in rs)
recorded = {}
for side, rs in runs.items():
    print(f"{side}: {sum(r['failed'] for r in rs)} of "
          f"{sum(r['attempted'] for r in rs)} operations failed")
print(f"{'metric':30} {'parent median [q1, q3]':>33} {'change median [q1, q3]':>33}  "
      f"{'wins':>5} {'apart':>5} {'ratio':>7}  verdict")
for name in (m["name"] for m in table):
    values = {side: [(r["metrics"].get(name) or {}).get("value") for r in rs]
              for side, rs in runs.items()}
    if any(v is None for vs in values.values() for v in vs):
        continue
    p, c = values["parent"], values["change"]
    lower = better[name] == "lower"
    wins = sum((cv < pv) if lower else (cv > pv) for pv, cv in zip(p, c))
    (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
    apart = "apart" if abs(cm - pm) > p3 - p1 else ""
    ratio = cm / pm if pm else float("nan")
    worse = ratio - 1 if lower else 1 - ratio
    print(f"{name:30} {pm:>12.4g} [{p1:>8.4g}, {p3:>8.4g}] "
          f"{cm:>12.4g} [{c1:>8.4g}, {c3:>8.4g}]  {f'{wins}/{len(p)}':>5} {apart:>5} "
          f"{ratio:>7.4f}  {verdict(name, worse, p, c)}")
    recorded[name] = {
        "parent": {"median": pm, "q1": p1, "q3": p3},
        "change": {"median": cm, "q1": c1, "q3": c3},
        "wins": wins,
        "verdict": verdict(name, worse, p, c),
    }

if record == "1":
    def speed(side, seed):
        # the run's comment line: "# machine speed p50 0.659 of nominal; ..."
        text = open(f"{out}/{side}-{seed}{suffix}.txt").read()
        found = re.search(r"machine speed p50 ([0-9.]+)", text)
        return float(found.group(1)) if found else None
    speeds = {side: [speed(side, s) for s in seeds] for side in runs}
    entry = {
        "parent": commit,
        "workload": workload,
        "nproc": len(os.sched_getaffinity(0)),
        "seeds": [int(s) for s in seeds],
        "machine_speed": {side: statistics.median(v) if None not in v else None
                          for side, v in speeds.items()},
        "metrics": recorded,
    }
    path = f"{root}/BENCH_trajectory.json"
    entries = json.load(open(path)) if os.path.exists(path) else []
    entries.append(entry)
    with open(path, "w") as f:
        json.dump(entries, f, indent=1)
        f.write("\n")
    print(f"appended entry {len(entries)} to {path}")
EOF
