#!/usr/bin/env bash
# Paired benchmark of the working tree against a parent commit.
#
# Usage: scripts/bench-pair.sh <parent-ref> <workload> [pairs=10]
#
# Exports <parent-ref> under the git-ignored .bench_build/, builds the
# benchmark of each side into its own CARGO_TARGET_DIR, then runs
#   bench/run.sh --workload <workload> --seed i --trace 0      i = 1..pairs
# on both sides alternately (parent first on odd i, change first on even
# i) and reads the final JSON line of each run. For every end-to-end
# metric of BENCHMARK.json it prints both medians and quartiles, the
# pairs the change won (ties count for neither side), and whether a gain
# may be claimed under /opt/skills/guides/choosing-metrics section 8: the
# change wins at least nine tenths of the pairs AND the medians differ by
# more than the parent's interquartile range. Nothing is written outside
# .bench_build/pair/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
  sed -n '2,5p' "$0" >&2
  exit 2
fi
parent_ref=$1
workload=$2
pairs=${3:-10}
case "$pairs" in
  '' | *[!0-9]* | 0) echo "pairs must be a positive integer, got '$pairs'" >&2; exit 2 ;;
esac

root=$PWD
work=$root/.bench_build/pair
parent_sha=$(git rev-parse --verify "$parent_ref^{commit}")
parent_src=$work/src-$parent_sha
runs=$work/runs
rm -rf "$runs"
mkdir -p "$runs"

# A plain export rather than `git worktree add`: it leaves nothing behind
# in .git, and the benchmark only needs the files.
if [ ! -d "$parent_src" ]; then
  mkdir -p "$parent_src.tmp"
  git archive "$parent_sha" | tar -x -C "$parent_src.tmp"
  mv "$parent_src.tmp" "$parent_src"
fi

declare -A src=([parent]=$parent_src [change]=$root)

# run_side <parent|change> <run.sh arguments...>: runs that side's own
# bench/run.sh (which builds before it runs) against that side's target
# directory.
run_side() {
  local side=$1
  shift
  CARGO_TARGET_DIR=$work/target-$side bash "${src[$side]}/bench/run.sh" "$@"
}

echo "== building both sides (parent $parent_sha) =="
for side in parent change; do
  run_side "$side" --list > /dev/null
done

for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) -eq 1 ]; then
    order="parent change"
  else
    order="change parent"
  fi
  for side in $order; do
    log=$runs/$side-$i.log
    if ! run_side "$side" --workload "$workload" --seed "$i" --trace 0 \
      --out "$work/out-$side" > "$log" 2>&1; then
      echo "$side run (seed $i) failed; see $log" >&2
      exit 1
    fi
    tail -n 1 "$log" >> "$runs/$side.jsonl"
  done
  echo "pair $i/$pairs done ($order)"
done

python3 - "$root/BENCHMARK.json" "$runs/parent.jsonl" "$runs/change.jsonl" "$workload" <<'PY'
import json, statistics, sys

spec_path, parent_path, change_path, workload = sys.argv[1:5]
spec = json.load(open(spec_path))
load = lambda path: [json.loads(line) for line in open(path) if line.strip()]
parent, change = load(parent_path), load(change_path)
pairs = len(parent)
assert pairs == len(change) and pairs > 0, "unequal or empty run lists"

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3

def failed(runs):
    return sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)

(pf, pa), (cf, ca) = failed(parent), failed(change)
print(f"\n== {workload}: {pairs} pairs, untraced ==")
print(f"failed operations: parent {pf}/{pa}, change {cf}/{ca}")
header = f"{'metric':<26}{'parent med [q1..q3]':>36}{'change med [q1..q3]':>36}{'ratio':>8}{'won':>7}  verdict"
print(header)
for metric in spec["end_to_end"]:
    name, higher = metric["name"], metric["better"] == "higher"
    p = [r["metrics"][name]["value"] for r in parent]
    c = [r["metrics"][name]["value"] for r in change]
    better = (lambda a, b: a > b) if higher else (lambda a, b: a < b)
    won = sum(better(ci, pi) for pi, ci in zip(p, c))
    lost = sum(better(pi, ci) for pi, ci in zip(p, c))
    pq1, pmed, pq3 = quartiles(p)
    cq1, cmed, cq3 = quartiles(c)
    iqr = pq3 - pq1
    claimable = pairs >= 10  # section 8: at least ten pairs before any claim
    if all(pi == ci for pi, ci in zip(p, c)):
        verdict = "identical"
    elif claimable and won * 10 >= pairs * 9 and better(cmed, pmed) and abs(cmed - pmed) > iqr:
        verdict = "GAIN (won >=9/10 of pairs, medians apart by more than parent IQR)"
    elif claimable and lost * 10 >= pairs * 9 and better(pmed, cmed) and abs(cmed - pmed) > iqr:
        verdict = "LOSS (lost >=9/10 of pairs, medians apart by more than parent IQR)"
    else:
        worse = (pmed - cmed if higher else cmed - pmed) / pmed if pmed else 0.0
        within = "within" if worse <= metric["bound"] else "OUTSIDE"
        few = "" if claimable else " (fewer than 10 pairs)"
        verdict = f"no claim{few}; change median {within} the {metric['bound']} bound"
    ratio = cmed / pmed if pmed else float("nan")
    fmt = lambda med, q1, q3: f"{med:.4f} [{q1:.4f}..{q3:.4f}]"
    print(f"{name:<26}{fmt(pmed, pq1, pq3):>36}{fmt(cmed, cq1, cq3):>36}{ratio:>8.3f}{won:>4}/{pairs:<2}  {verdict}")
PY
