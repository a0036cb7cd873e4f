#!/usr/bin/env bash
# Builds the benchmark from source and runs it.
#
#   bench/run.sh --workload NAME --seed N --seconds S --trace 0|1   one run (what BENCHMARK.json's command does)
#   bench/run.sh [--seed N] [--seconds S] [--quick] [--out DIR]     every workload, untraced then traced
#   bench/run.sh --list | --spec                                    workload names | the text of BENCHMARK.json
#
# Each run prints its metrics by name with their units and ends with one
# JSON line; runs are also appended to <out>/results.jsonl (default
# bench/out). Exits non-zero if the build fails or any output is wrong.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

target="${CARGO_TARGET_DIR:-bench/target}"
cargo build --release --offline --quiet --manifest-path bench/Cargo.toml --target-dir "$target"
bin="$target/release/qr-e2e"

for arg in "$@"; do
    case "$arg" in
        --workload | --list | --spec) exec "$bin" "$@" ;;
    esac
done

status=0
for workload in $("$bin" --list); do
    for trace in 0 1; do
        "$bin" --workload "$workload" --trace "$trace" "$@" || status=1
    done
done
exit "$status"
