#!/usr/bin/env bash
# Writes `repro all`'s stdout into <dir>, one file per experiment: <id>.txt
# holds the table from its `=== ID: ... ===` header through the blank line
# before the next header. `scripts/verify.sh` diffs a fresh copy against
# the pin in tests/golden/repro/, so a diff names the table that moved. A
# change that moves a table on purpose regenerates the pin with
# `scripts/repro-pin.sh tests/golden/repro` and shows the rows in its diff.
#
# Usage: scripts/repro-pin.sh <dir>   (after `cargo build --release --workspace`)
set -euo pipefail
cd "$(dirname "$0")/.."
dir=${1:?usage: scripts/repro-pin.sh <dir>}
mkdir -p "$dir"
rm -f "$dir"/*.txt
out=$(mktemp)
trap 'rm -f "$out"' EXIT
# Two workers print the bytes `--serial` does: the executor's contract.
./target/release/repro all --jobs 2 > "$out"
awk -v dir="$dir" '
  /^=== [A-Z0-9]+: / { f = dir "/" tolower(substr($2, 1, length($2) - 1)) ".txt" }
  f { print > f }
' "$out"
