#!/usr/bin/env bash
# Line counts of the production sources (crates/*/src and src/) at a
# git ref and in the working tree: for every file that changed, the whole
# file and its non-test part — the lines before the first `#[cfg(test)]`
# — before -> after, then totals over all of them.
#
# Usage: scripts/line-delta.sh <parent-ref>
set -euo pipefail
cd "$(dirname "$0")/.."
parent=${1:?usage: scripts/line-delta.sh <parent-ref>}
git rev-parse --verify --quiet "$parent^{commit}" > /dev/null || {
  echo "not a commit: $parent" >&2
  exit 2
}

# "whole non-test" line counts of stdin.
count() {
  awk '/#\[cfg\(test\)\]/ && !seen { nontest = NR - 1; seen = 1 }
       END { print NR, (seen ? nontest : NR) }'
}

files=$(
  { git ls-tree -r --name-only "$parent" -- crates src
    git ls-files --cached --others --exclude-standard -- crates src
  } | grep -E '^(crates/[^/]+/src|src)/.*\.rs$' | sort -u
)

printf '%-42s %-19s %s\n' file whole non-test
totals=(0 0 0 0)
for f in $files; do
  read -r wb nb < <(git show "$parent:$f" 2> /dev/null | count)
  if [ -f "$f" ]; then read -r wa na < <(count < "$f"); else wa=0 na=0; fi
  totals=($((totals[0] + wb)) $((totals[1] + wa)) $((totals[2] + nb)) $((totals[3] + na)))
  if [ "$wb $nb" != "$wa $na" ]; then
    printf '%-42s %5d → %-5d %+5d %5d → %-5d %+5d\n' "$f" \
      "$wb" "$wa" $((wa - wb)) "$nb" "$na" $((na - nb))
  fi
done
printf '%-42s %5d → %-5d %+5d %5d → %-5d %+5d\n' total \
  "${totals[0]}" "${totals[1]}" $((totals[1] - totals[0])) \
  "${totals[2]}" "${totals[3]}" $((totals[3] - totals[2]))
