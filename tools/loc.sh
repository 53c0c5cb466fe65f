#!/usr/bin/env bash
# Non-test source lines per crate: every line of a .rs file before its
# first `#[cfg(test)]`, the rule tools/check_panics.sh applies to find
# library code. Comments and blank lines count. Prints one line per
# directory and a total; there is no threshold.
#
#   tools/loc.sh             # every crates/*/src
#   tools/loc.sh DIR...      # the named directories (relative to the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -eq 0 ]; then
    set -- crates/*/src
fi
total=0
for dir in "$@"; do
    count=$(find "$dir" -name "*.rs" -exec awk \
        'FNR == 1 { lib = 1 } /^#\[cfg\(test\)\]/ { lib = 0 } lib { n++ } END { print n + 0 }' {} + \
        | awk '{ s += $1 } END { print s + 0 }')
    printf '%6d  %s\n' "$count" "$dir"
    total=$((total + count))
done
printf '%6d  total\n' "$total"
