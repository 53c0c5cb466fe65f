#!/usr/bin/env bash
# Paired A/B run of the repository benchmark: two revisions, alternating
# pairs, one verdict per end-to-end metric against the BENCHMARK.json
# bounds.
#
#   tools/ab.sh [-n PAIRS] [-s SECONDS] [-w WORKLOAD]... BASE [HEAD]
#
#   BASE, HEAD  git revisions; HEAD defaults to the working tree. With
#               BASE = HEAD both sides run one binary: an A/A run, whose
#               spread is this host's noise floor.
#   -n PAIRS    pairs per workload (default 10)
#   -s SECONDS  seconds per run (default BENCHMARK.json's run_seconds)
#   -w WORKLOAD a workload to run; repeatable (default: all of them)
#
# A revision is exported with `git archive` into target/ab/<sha>/ and its
# benchmark built there; the working tree builds in place. Pair i runs
# both sides at seed i, `--trace 0`, BASE first on odd pairs and HEAD
# first on even ones, one benchmark process at a time. Raw figures go to
# target/ab/<stamp>/runs.tsv. Per metric the report gives both medians,
# the change, HEAD's wins out of N, BASE's interquartile range relative
# to its median, and a verdict: "unresolved" when that spread is wider
# than the bound, "WORSE" when HEAD is worse by more than the bound, else
# "within". Each workload also reports its failed operations and in how
# many pairs both sides' verdict digests (a hash of the first answers at
# that seed) are equal. A Markdown copy of the table (for EXPERIMENTS.md)
# follows.
# Needs only bash, git, cargo, awk and sed.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD

pairs=10
seconds=
workloads=()
while getopts "n:s:w:" opt; do
    case $opt in
        n) pairs=$OPTARG ;;
        s) seconds=$OPTARG ;;
        w) workloads+=("$OPTARG") ;;
        *) sed -n '6,13p' "$0" >&2; exit 2 ;;
    esac
done
shift $((OPTIND - 1))
if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    sed -n '6,13p' "$0" >&2
    exit 2
fi

spec="$root/BENCHMARK.json"
# BENCHMARK.json keeps one workload or metric per line; read the fields
# of one section's lines.
section() {
    awk -v s="\"$1\"" 'index($0, s ":") { on = 1; next } on && /^ *\]/ { exit } on' "$spec"
}
field() {
    sed -n "s/.*\"$1\": *\"\{0,1\}\([^\",}]*\).*/\1/p"
}
[ -n "$seconds" ] || seconds=$(field run_seconds < "$spec")
[ ${#workloads[@]} -gt 0 ] || mapfile -t workloads < <(section workloads | field name)
metrics=$(section end_to_end | awk '{
    n = b = d = ""
    if (match($0, /"name": *"[^"]*"/)) { n = substr($0, RSTART, RLENGTH); sub(/.*: *"/, "", n); sub(/"$/, "", n) }
    if (match($0, /"better": *"[^"]*"/)) { d = substr($0, RSTART, RLENGTH); sub(/.*: *"/, "", d); sub(/"$/, "", d) }
    if (match($0, /"bound": *[0-9.]+/)) { b = substr($0, RSTART, RLENGTH); sub(/.*: */, "", b) }
    if (n != "") print n, d, b
}')

mkdir -p target/ab
# Exports a revision into target/ab/<sha> once and prints that directory.
export_rev() {
    local sha dir
    sha=$(git rev-parse --verify "$1^{commit}")
    dir="$root/target/ab/$sha"
    if [ ! -f "$dir/benchmark/Cargo.toml" ]; then
        rm -rf "$dir"
        mkdir -p "$dir"
        git archive "$sha" | tar -x -C "$dir"
    fi
    echo "$dir"
}
build() {
    echo "building the benchmark in ${1#"$root"/}" >&2
    cargo build --release --offline --quiet --manifest-path "$1/benchmark/Cargo.toml" >&2
    echo "$1/benchmark/target/release/qisim-benchmark"
}

base_dir=$(export_rev "$1")
if [ $# -eq 2 ]; then head_dir=$(export_rev "$2"); else head_dir=$root; fi
base_bin=$(build "$base_dir")
if [ "$head_dir" = "$base_dir" ]; then head_bin=$base_bin; else head_bin=$(build "$head_dir"); fi

out="$root/target/ab/$(date -u +%Y%m%dT%H%M%SZ)"
mkdir -p "$out"
runs="$out/runs.tsv"
: > "$runs"
cores=

# Runs one side once and appends `workload pair side metric value` rows;
# failed and attempted operations and the verdict digest are recorded as
# pseudo-metrics.
run_side() {
    local side=$1 w=$2 pair=$3 dir bin log
    if [ "$side" = base ]; then dir=$base_dir bin=$base_bin; else dir=$head_dir bin=$head_bin; fi
    log="$out/$w.$pair.$side.txt"
    (cd "$dir" && "$bin" --workload "$w" --seed "$pair" --seconds "$seconds" --trace 0) > "$log"
    [ -n "$cores" ] || cores=$(field host.cores < "$log" | head -n 1)
    tail -n 1 "$log" | sed 's/}, /}\n/g' | awk -v w="$w" -v p="$pair" -v s="$side" '
        match($0, /"[a-z0-9_.]+": *\{"value": *[-0-9.e+]+/) {
            m = substr($0, RSTART, RLENGTH)
            name = m; sub(/^"/, "", name); sub(/".*/, "", name)
            v = m; sub(/.*"value": */, "", v)
            print w, p, s, name, v
        }
        match($0, /"attempted": *[0-9]+/) { v = substr($0, RSTART, RLENGTH); sub(/.*: */, "", v); print w, p, s, "ops.attempted", v }
        match($0, /"failed": *[0-9]+/) { v = substr($0, RSTART, RLENGTH); sub(/.*: */, "", v); print w, p, s, "ops.failed", v }
    ' >> "$runs"
    echo "$w $pair $side digest $(field verdict_digest < "$log")" >> "$runs"
}

for w in "${workloads[@]}"; do
    for pair in $(seq 1 "$pairs"); do
        echo "$w: pair $pair/$pairs" >&2
        if [ $((pair % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi
        for side in $order; do run_side "$side" "$w" "$pair"; done
    done
done

echo "base $(git rev-parse --short "$1^{commit}")  head ${2:-working tree}  host.cores $cores  pairs $pairs  seconds $seconds"
echo "raw figures: ${runs#"$root"/}"
echo "$metrics" | awk -v runs="$runs" '
    function sort(a, n,    i, j, t) {
        for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
    }
    # Linear-interpolation quantile of the sorted a[1..n].
    function q(a, n, p,    h, i) {
        h = 1 + (n - 1) * p; i = int(h)
        return i >= n ? a[n] : a[i] + (h - i) * (a[i + 1] - a[i])
    }
    function pct(x) { return sprintf("%+.1f%%", 100 * x) }
    { better[$1] = $2; bound[$1] = $3; order[++nm] = $1 }
    END {
        while ((getline line < runs) > 0) {
            split(line, f, " ")
            key = f[1] SUBSEP f[4]
            if (f[3] == "base") base[key, f[2]] = +f[5]; else head[key, f[2]] = +f[5]
            if (f[4] == "digest") digest[f[1], f[2], f[3]] = f[5]
            if (!(f[1] in seen)) { seen[f[1]] = 1; wl[++nw] = f[1] }
            if (f[2] > np) np = f[2]
            if (f[4] ~ /^ops\./) ops[f[1], f[3], f[4]] += f[5]
        }
        hdr = sprintf("%-20s %-17s %11s %11s %8s %5s %9s %6s  %s", "workload", "metric", "base", "head", "change", "wins", "base IQR", "bound", "verdict")
        print hdr
        md = "| workload | metric | base median | head median | change | wins | base IQR | bound | verdict |\n|---|---|---:|---:|---:|---:|---:|---:|---|"
        for (i = 1; i <= nw; i++) {
            w = wl[i]
            for (k = 1; k <= nm; k++) {
                m = order[k]; key = w SUBSEP m; n = 0; wins = 0
                for (p = 1; p <= np; p++) {
                    if (!((key, p) in base) || !((key, p) in head)) continue
                    b[++n] = base[key, p]; h[n] = head[key, p]
                    if (better[m] == "lower" ? h[n] < b[n] : h[n] > b[n]) wins++
                }
                if (n == 0) continue
                sort(b, n); sort(h, n)
                bm = q(b, n, 0.5); hm = q(h, n, 0.5)
                change = bm != 0 ? (hm - bm) / bm : 0
                worse = better[m] == "lower" ? change : -change
                iqr = bm != 0 ? (q(b, n, 0.75) - q(b, n, 0.25)) / bm : 0
                verdict = iqr > bound[m] ? "unresolved" : worse > bound[m] ? "WORSE" : "within"
                printf "%-20s %-17s %11.4g %11.4g %8s %2d/%-2d %9s %6s  %s\n", w, m, bm, hm, pct(change), wins, n, sprintf("%.1f%%", 100 * iqr), sprintf("%.0f%%", 100 * bound[m]), verdict
                md = md sprintf("\n| %s | %s | %.4g | %.4g | %s | %d/%d | %.1f%% | %.0f%% | %s |", w, m, bm, hm, pct(change), wins, n, 100 * iqr, 100 * bound[m], verdict)
            }
            same = 0
            for (p = 1; p <= np; p++) same += digest[w, p, "base"] == digest[w, p, "head"]
            printf "%-20s failed ops: base %d of %d, head %d of %d; verdict digests equal in %d/%d pairs\n", w, ops[w, "base", "ops.failed"], ops[w, "base", "ops.attempted"], ops[w, "head", "ops.failed"], ops[w, "head", "ops.attempted"], same, np
        }
        print ""
        print md
    }' | tee "$out/report.txt"
