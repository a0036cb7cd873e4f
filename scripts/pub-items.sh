#!/usr/bin/env bash
# Lists every `pub` item in crates/*/src that no non-test code outside
# its own file names: candidates to delete, or to demote to private.
# Non-test code is every .rs file under crates/*/src, src/, bench/src and
# examples/, up to its first `#[cfg(test)]`; tests/ directories do not
# count. A name is matched as a whole word, so a common name used
# elsewhere for something else hides a candidate (the list errs short).
#
# Usage: scripts/pub-items.sh
set -euo pipefail
cd "$(dirname "$0")/.."

corpus=$(mktemp)
trap 'rm -f "$corpus"' EXIT
find crates/*/src src bench/src examples -name '*.rs' | sort | while read -r f; do
  awk -v f="$f" '/#\[cfg\(test\)\]/ { exit } { print f "\t" $0 }' "$f"
done > "$corpus"

grep -P '^crates/[^/]+/src/\S+\t\s*pub (const |unsafe )?(fn|struct|enum|trait|type|const|static) [A-Za-z_]' "$corpus" |
  sed -E 's/^(\S+)\t\s*pub (const |unsafe )?(fn|struct|enum|trait|type|const|static) ([A-Za-z_][A-Za-z0-9_]*).*/\1 \3 \4/' |
  while read -r file kind name; do
    if ! grep -P "^(?!\Q$file\E\t).*\b\Q$name\E\b" "$corpus" > /dev/null; then
      printf '%-40s %-6s %s\n' "$file" "$kind" "$name"
    fi
  done
