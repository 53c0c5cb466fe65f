#!/usr/bin/env bash
# Panic-regression gate: library code must not grow new panic sites.
#
# Counts `panic!(` / `.unwrap()` / `.expect(` / `todo!(` /
# `unimplemented!(` occurrences in every crates/*/src/**/*.rs, looking
# only at the library portion of each file (everything before the first
# `#[cfg(test)]`) and ignoring comment-only lines. Each file's count must
# stay within its budget in tools/panic_allowlist.txt (absent file =
# budget 0), and each budget must equal its file's count, so a budget
# shrinks with the code it covers. Tests, examples, and binaries are
# exempt by construction.
#
#   tools/check_panics.sh          # exits non-zero on any regression
set -euo pipefail
cd "$(dirname "$0")/.."

allowlist="tools/panic_allowlist.txt"
pattern='panic!\(|\.unwrap\(\)|\.expect\(|todo!\(|unimplemented!\('
fail=0

budget_for() {
    awk -v f="$1" '$0 !~ /^#/ && $2 == f { print $1; exit }' "$allowlist"
}

count_for() {
    awk '/^#\[cfg\(test\)\]/{exit} {print}' "$1" \
        | grep -v '^[[:space:]]*//' \
        | grep -c -E "$pattern" || true
}

while IFS= read -r file; do
    count=$(count_for "$file")
    budget=$(budget_for "$file")
    budget=${budget:-0}
    if [ "$count" -gt "$budget" ]; then
        echo "FAIL $file: $count panic site(s), budget $budget" >&2
        echo "     (library code returns Result — see DESIGN.md; vetted" >&2
        echo "      exceptions go in $allowlist)" >&2
        fail=1
    fi
done < <(find crates -name "*.rs" -path "*/src/*" | sort)

# Stale allowlist entries (file removed, or a budget above the file's
# count, down to zero) are an error too, so budgets only ever shrink
# deliberately.
while read -r budget file; do
    case "$budget" in ''|\#*) continue ;; esac
    if [ ! -f "$file" ]; then
        echo "FAIL $allowlist lists missing file: $file" >&2
        fail=1
        continue
    fi
    count=$(count_for "$file")
    if [ "$budget" -gt "$count" ]; then
        echo "FAIL $allowlist budgets $budget for $file, which has $count;" >&2
        echo "     lower the budget to the count (drop the entry at zero)" >&2
        fail=1
    fi
done < "$allowlist"

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "panic gate passed ($(grep -cv '^#' "$allowlist") budgeted files)."
