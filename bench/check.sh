#!/usr/bin/env bash
# Repeatability self-check: the whole benchmark twice on one build.
#
#   bench/check.sh [--seed N] [--seconds S] [--quick]
#
# Every timed end-to-end metric must agree between the two runs within
# its bound from BENCHMARK.json, and every exact metric (simulated
# state only) must be identical; the two-run table is printed either
# way. Exits non-zero on a disagreement or a wrong output. With
# --quick only the exact metrics are asserted: one Test-scale sweep is
# too short for a time to repeat.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

out="bench/out/check-$$"
rm -rf "$out"
mkdir -p "$out"
status=0
bash bench/run.sh --out "$out/a" "$@" > "$out/a.log" 2>&1 || status=1
bash bench/run.sh --out "$out/b" "$@" > "$out/b.log" 2>&1 || status=1

timed=assert
for arg in "$@"; do
    [ "$arg" = "--quick" ] && timed=print
done

python3 - "$out/a/results.jsonl" "$out/b/results.jsonl" BENCHMARK.json "$timed" <<'PY' || status=1
import json, sys

def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            r = json.loads(line)
            runs[(r["workload"], r["trace"])] = r
    return runs

a, b = load(sys.argv[1]), load(sys.argv[2])
spec = json.load(open(sys.argv[3]))
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]} if sys.argv[4] == "assert" else {}
bad = 0
print(f"{'workload':<18} {'metric':<34} {'run A':>16} {'run B':>16} {'differ':>9}  verdict")
for key in sorted(a):
    if key not in b:
        print(f"{key[0]}: missing from run B"); bad += 1; continue
    ra, rb = a[key], b[key]
    if not (ra["correct"] and rb["correct"]):
        print(f"{key[0]} trace={key[1]}: a run was not correct"); bad += 1
    exact = set(ra["exact"])
    for name, ma in ra["metrics"].items():
        va, vb = ma["value"], rb["metrics"][name]["value"]
        differ = abs(va - vb) / min(abs(va), abs(vb)) if min(abs(va), abs(vb)) > 0 else (0.0 if va == vb else float("inf"))
        if name in exact:
            ok = va == vb
            verdict = "exact" if ok else "EXACT METRIC DIFFERS"
        elif name in bounds:
            ok = differ <= bounds[name]
            verdict = f"within {bounds[name]:.2f}" if ok else f"OUTSIDE {bounds[name]:.2f}"
        else:
            ok, verdict = True, ""
        bad += not ok
        print(f"{key[0]:<18} {name:<34} {va:>16.4f} {vb:>16.4f} {100 * differ:>8.2f}%  {verdict}")
print("repeatable" if bad == 0 else f"{bad} disagreement(s)")
sys.exit(1 if bad else 0)
PY
if [ "$status" -eq 0 ]; then
    rm -rf "$out"
else
    echo "kept $out (a.log, b.log and both results.jsonl)" >&2
fi
exit "$status"
