#!/usr/bin/env bash
# Tier-1 gate for qisim-rs. Fully offline: every dependency is in-tree,
# so this script must pass on a machine with no registry access.
#
#   tools/ci.sh          # the whole gate
#
# Steps:
#   1. release build + full test suite (the tier-1 contract), run with
#      --no-fail-fast so one red test binary cannot hide the others
#   2. the same test suite pinned to QISIM_THREADS=2: every parallel
#      engine must be bit-identical at any thread count
#   3. the qisim-surface and qisim-power suites and the qisim engine unit
#      tests in the test profile (opt-level 2, debug assertions on): the
#      Monte-Carlo kernels' debug_assert! checks — every decoded verdict
#      also peels and checks that the correction leaves no syndrome and
#      that a free-row verdict equals the full peel's, every trial that
#      skipped a decode is re-decoded whole on a fresh arena (an isolated
#      trial of any weight asserted not to fail; a split one asserted
#      to match its remainder's verdict), every
#      rare-ladder trial lighter than ceil(d/2) errors, which skips its
#      decode because the decoder corrects every error of weight <=
#      (d-1)/2, is decoded and asserted not to fail, and the slice sizes
#      are checked — and the power landing search's bracket
#      invariants (every probe lies strictly inside the bracket, `lo`
#      fits and `hi` does not), over the suite's 10,000 seeded landings
#      against the bisection oracle; none of these run in the release
#      builds of steps 1, 2 and 7; the engine tests put the sliced
#      estimate and the stage builds of the served d = 23 rare ladder
#      through those checks (the pinned-rare test builds its stages on
#      a fresh ladder, and a warm rare request builds nothing)
#   4. rustfmt check (config in rustfmt.toml)
#   5. clippy across the whole workspace, warnings are errors
#   6. rustdoc: the whole workspace must document cleanly (warnings are
#      errors; qisim-par and qisim-obs additionally warn(missing_docs))
#   7. the serial path: the already-built suite again at QISIM_THREADS=1,
#      where every parallel map runs its plain loop; then the qisim-power
#      suite at --test-threads=8, where a test that drops the memo test
#      lock races its siblings on the process-wide cache, and the
#      qisim-surface suite at --test-threads=8, where tests that set the
#      pool's thread count run beside tests that estimate, so a result
#      that depends on the thread count shows; then the one-build
#      guard: no workspace manifest may declare a [features] table or a
#      default-features entry, and no source under crates/, tests/ or
#      examples/ may test cfg(feature ...) (the serial path and the obs
#      kill switch are runtime switches, not builds)
#   8. observability smoke run: the observe example must emit a valid
#      observe_registry.json with span timings and per-stage watt
#      attribution (including a literal-name histogram recorded by the
#      pool workers), and (run under QISIM_TRACE at QISIM_THREADS=2) a
#      Chrome trace_event timeline that self-validates via
#      trace_is_well_formed, carries balanced begin/end events, worker
#      lanes, and folded stacks; bench_obs --smoke then gates the
#      enabled-but-disarmed instrumentation overhead at <= 2% over the
#      kill switch and asserts results stay bit-identical with
#      QISIM_LOG armed
#   9. telemetry exporter smoke run: the observe example's --watch mode
#      under QISIM_METRICS + QISIM_THREADS=2 must self-validate its
#      OpenMetrics exposition (openmetrics_is_well_formed) and leave a
#      file with TYPE headers, histogram _bucket series, and the memo
#      cache counters; the determinism suite then re-runs with the
#      exporter armed to prove scraping never perturbs results
#  10. panic-regression gate: library code must not grow panic!/unwrap/
#      expect sites beyond the per-file budgets in
#      tools/panic_allowlist.txt (DESIGN.md error-handling policy); then
#      tools/loc.sh prints the non-test lines per crate, with no
#      threshold
#  11. paper-suite run: all 19 experiment drivers must run, and the
#      headline scalability drivers (Fig. 12/13/17 + Table 2) must replay
#      their paper numbers through the staged engine
#  12. serve smoke run: the release binary serves one request over
#      /dev/tcp, answers it with the expected response line, answers a
#      malformed line (a duplicate knob) with the exact typed decode
#      error, and exits 0 via the stop file with every request accounted
#      for (docs/SERVING.md); concurrency, bit-identity and the overload
#      drill are tested in tests/integration_serve.rs
#  13. admin-plane smoke run: the release binary with --admin and
#      QISIM_LOG armed at debug answers /healthz and /readyz over
#      /dev/tcp, its /metrics scrape mid-burst validates via --check-om
#      and carries live serve_requests_total and serve_request_ns series,
#      the wire response echoes a request_id that also stamps the JSONL
#      start/finish records and the request's engine.stage records, and
#      the stop file shuts everything down
#  14. repo benchmark --check: every workload runs in both orders with
#      zero failed operations (`check: ok`), and each workload's seed-1
#      verdict digest matches the pinned value, so a change that moves
#      any served answer fails here; then a 3 s untraced design_sweep_cold
#      run must peak at <= 12 MB RSS (the power memo holds one landing
#      per design, not one report per search probe)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== [1/14] release build + tests =="
cargo build --release
cargo test -q --release --no-fail-fast

echo "== [2/14] tests at QISIM_THREADS=2 =="
QISIM_THREADS=2 cargo test -q --release --no-fail-fast

echo "== [3/14] qisim-surface, qisim-power and engine tests with debug assertions =="
cargo test -q -p qisim-surface -p qisim-power
cargo test -q -p qisim --lib engine::tests

echo "== [4/14] rustfmt =="
cargo fmt --check

echo "== [5/14] clippy (deny warnings) =="
cargo clippy --workspace --all-targets --quiet -- -D warnings

echo "== [6/14] rustdoc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== [7/14] serial path (QISIM_THREADS=1) + one-build guard =="
QISIM_THREADS=1 cargo test -q --release --no-fail-fast
cargo test -q --release -p qisim-power -- --test-threads=8
cargo test -q --release -p qisim-surface -- --test-threads=8
if grep -nE '^\[features\]|default-features' Cargo.toml crates/*/Cargo.toml; then
    echo "cargo features are not allowed: the workspace has one build" >&2
    exit 1
fi
if grep -rnE 'cfg(!|_attr)?\(.*\bfeature *=' crates tests examples; then
    echo "cfg(feature ...) is not allowed: the workspace has one build" >&2
    exit 1
fi

echo "== [8/14] observe + trace smoke run =="
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
(cd "$out" && QISIM_TRACE="$out/trace.json" QISIM_THREADS=2 cargo run --release --quiet \
    --manifest-path "$OLDPWD/Cargo.toml" --example observe > observe.txt)
grep -q "power-limited" "$out/observe.txt"
grep -q "power.max_qubits" "$out/observe_registry.json"
grep -q "scalability.analyze" "$out/observe_registry.json"
grep -q "p99_ns" "$out/observe_registry.json"
grep -q "power.stage.4K.device_dynamic_w" "$out/observe_registry.json"
grep -q "par.chunk.wait_ns" "$out/observe_registry.json"
python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$out/observe_registry.json" \
    2>/dev/null || echo "note: python3 unavailable, skipped strict JSON parse"
# The example asserts trace_is_well_formed on its own export before
# writing; the artifacts and balanced/labeled events must be on disk.
grep -q "trace export: well-formed" "$out/observe.txt"
grep -q "traceEvents" "$out/trace.json"
grep -q "thread_name" "$out/trace.json"
grep -q "engine.stage.power" "$out/trace.json"
test -s "$out/trace.json.folded"
begins=$(grep -o '"ph":"B"' "$out/trace.json" | wc -l)
ends=$(grep -o '"ph":"E"' "$out/trace.json" | wc -l)
test "$begins" -gt 0
test "$begins" -eq "$ends" || { echo "unbalanced trace: $begins B vs $ends E" >&2; exit 1; }
python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$out/trace.json" \
    2>/dev/null || echo "note: python3 unavailable, skipped strict JSON parse"
# The disarmed-overhead gate (<= 2% over the kill switch) plus the
# QISIM_LOG bit-identity acceptance check; the committed BENCH_obs.json
# comes from the full (non-smoke) run of the same example.
(cd "$out" && cargo run --release --quiet \
    --manifest-path "$OLDPWD/Cargo.toml" --example bench_obs -- --smoke > bench_obs.txt)
grep -q "bench_obs smoke gate passed." "$out/bench_obs.txt"
grep -q "bit_identical_with_log_armed: true" "$out/bench_obs.txt"

echo "== [9/14] telemetry exporter smoke run =="
(cd "$out" && QISIM_METRICS="$out/metrics.om:50" QISIM_THREADS=2 cargo run --release --quiet \
    --manifest-path "$OLDPWD/Cargo.toml" --example observe -- --watch > watch.txt)
# The example validates its own exposition via openmetrics_is_well_formed
# before printing this line, and reports per-stage interval latencies.
grep -q "openmetrics export: well-formed" "$out/watch.txt"
grep -q "engine.stage.power: p50" "$out/watch.txt"
# The file on disk carries typed families, histogram series, and the
# memo-cache counters the bounded power memo publishes.
grep -q "# TYPE" "$out/metrics.om"
grep -q "_bucket" "$out/metrics.om"
grep -q "power_cache_hits" "$out/metrics.om"
grep -q "# EOF" "$out/metrics.om"
# Determinism with the exporter armed: scraping must never perturb the
# science.
QISIM_METRICS="$out/metrics_det.om:50" cargo test -q --release -p qisim \
    --test integration_par

echo "== [10/14] panic-regression gate + non-test line count =="
tools/check_panics.sh
tools/loc.sh

echo "== [11/14] paper-suite run =="
# Every driver, the ablations and what-ifs included: the whole suite
# takes about 2.2 s serially on a 2-core x86 host.
suite_out="$(cargo run --release --quiet --example paper_suite)"
echo "$suite_out" | grep -q "running 19 experiment"
for id in "Fig. 12" "Fig. 13" "Fig. 17" "Table 2"; do
    echo "$suite_out" | grep -q "$id" || { echo "missing $id" >&2; exit 1; }
done
# The headline scalability numbers must replay exactly through the
# staged engine (zero relative error renders as "-").
echo "$suite_out" | grep -q "max |rel err|"

echo "== [12/14] serve smoke run =="
# The binary end to end: answer one request over TCP with a well-formed
# response line and a malformed one with its exact decode error, then
# shut down gracefully when the stop file appears (exit code 0 and a
# final tally of one ok request and one error, or the gate fails).
./target/release/qisim-serve --tcp 127.0.0.1:0 --stop-file "$out/stop" \
    > "$out/serve_bin.txt" 2> "$out/serve_bin.err" &
serve_pid=$!
for _ in $(seq 1 100); do
    grep -q "listening" "$out/serve_bin.txt" 2>/dev/null && break
    sleep 0.1
done
port="$(sed -n 's/.*listening = [^ ]*:\([0-9][0-9]*\)$/\1/p' "$out/serve_bin.txt")"
test -n "$port" || { echo "qisim-serve never reported its port" >&2; exit 1; }
exec 3<>"/dev/tcp/127.0.0.1/$port"
printf 'id = ci; preset = cmos_baseline\n' >&3
IFS= read -r response <&3
case "$response" in
    "ok = 1; request_id = "*"; id = ci; qisim scalability v1"*) ;;
    *) echo "malformed serve response: $response" >&2; exit 1;;
esac
printf 'id = ci2; preset = cmos_baseline; drive_bits = 6; drive_bits = 7\n' >&3
IFS= read -r response <&3
exec 3<&- 3>&-
expected='error = decode; request_id = 2; id = ci2; line = 4; reason = decode error: line 4: duplicate key `drive_bits`'
test "$response" = "$expected" \
    || { echo "unexpected decode-error response: $response" >&2; exit 1; }
touch "$out/stop"
wait "$serve_pid"
grep -q "done requests = 2 ok = 1 errors = 1" "$out/serve_bin.err"

echo "== [13/14] admin-plane smoke run =="
# The binary with the HTTP plane and structured logging armed: probe
# liveness/readiness, scrape /metrics during a request burst and
# validate the exposition with the binary's own --check-om, and chase
# one request_id from the wire response into the JSONL records.
QISIM_LOG="$out/admin.log.jsonl:debug" ./target/release/qisim-serve \
    --tcp 127.0.0.1:0 --admin 127.0.0.1:0 --stop-file "$out/admin_stop" \
    > "$out/admin_bin.txt" 2> "$out/admin_bin.err" &
admin_pid=$!
for _ in $(seq 1 100); do
    grep -q "admin = " "$out/admin_bin.txt" 2>/dev/null && break
    sleep 0.1
done
service_port="$(sed -n 's/.*listening = [^ ]*:\([0-9][0-9]*\)$/\1/p' "$out/admin_bin.txt")"
admin_port="$(sed -n 's/.*admin = [^ ]*:\([0-9][0-9]*\)$/\1/p' "$out/admin_bin.txt")"
test -n "$service_port" || { echo "qisim-serve never reported its port" >&2; exit 1; }
test -n "$admin_port" || { echo "qisim-serve never reported its admin port" >&2; exit 1; }
admin_get() { # PATH OUTFILE: one HTTP GET over /dev/tcp (server closes)
    exec 4<>"/dev/tcp/127.0.0.1/$admin_port"
    printf 'GET %s HTTP/1.1\r\nHost: ci\r\n\r\n' "$1" >&4
    cat <&4 > "$2"
    exec 4<&- 4>&-
}
admin_get /healthz "$out/healthz.txt"
grep -q "HTTP/1.1 200" "$out/healthz.txt"
grep -q "^ok" "$out/healthz.txt"
admin_get /readyz "$out/readyz.txt"
grep -q "HTTP/1.1 200" "$out/readyz.txt"
grep -q "^ready" "$out/readyz.txt"
# Burst requests on the service socket, scraping /metrics in between so
# the exposition is captured while the registry is hot.
exec 3<>"/dev/tcp/127.0.0.1/$service_port"
for i in $(seq 1 8); do
    printf 'id = ci%s; preset = cmos_baseline\n' "$i" >&3
    IFS= read -r admin_response <&3
    test "$i" -eq 4 && admin_get /metrics "$out/admin_metrics.txt"
done
exec 3<&- 3>&-
case "$admin_response" in
    "ok = 1; request_id = "*"; id = ci8; qisim scalability v1"*) ;;
    *) echo "malformed serve response: $admin_response" >&2; exit 1;;
esac
rid="${admin_response#ok = 1; request_id = }"
rid="${rid%%;*}"
grep -q "application/openmetrics-text" "$out/admin_metrics.txt"
# Strip the HTTP head; the body must be a well-formed exposition with
# live serve counters in it.
sed -e '1,/^\r*$/d' "$out/admin_metrics.txt" > "$out/admin_metrics.om"
./target/release/qisim-serve --check-om "$out/admin_metrics.om"
grep -Eq "^serve_requests_total [1-9]" "$out/admin_metrics.om"
grep -q "serve_request_ns" "$out/admin_metrics.om"
touch "$out/admin_stop"
wait "$admin_pid"
# The id echoed on the wire stamps the structured start/finish records
# and the engine.stage records of its analysis.
grep -q "\"event\":\"serve.request.start\"" "$out/admin.log.jsonl"
grep -q "\"event\":\"serve.request.finish\".*\"request_id\":$rid" "$out/admin.log.jsonl" \
    || grep -q "\"request_id\":$rid.*\"event\":\"serve.request.finish\"" "$out/admin.log.jsonl" \
    || { echo "request_id $rid missing from serve.request.finish records" >&2; exit 1; }
grep -q "\"event\":\"engine.stage\".*\"request_id\":$rid" "$out/admin.log.jsonl" \
    || grep -q "\"request_id\":$rid.*\"event\":\"engine.stage\"" "$out/admin.log.jsonl" \
    || { echo "request_id $rid missing from engine.stage records" >&2; exit 1; }
grep -q "\"outcome\":\"ok\"" "$out/admin.log.jsonl"

echo "== [14/14] repo benchmark --check =="
bench_out="$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --check)"
echo "$bench_out" | grep -qx "check: ok" || { echo "benchmark --check failed" >&2; exit 1; }
for pinned in serve_paper_mix:099ff2656a55f98a design_sweep_cold:029e603d2c53d709 \
    serve_mc_estimator:34f7446ab4fd6bfb; do
    workload="${pinned%%:*}"
    runs=$(echo "$bench_out" | grep -c "\"workload\": \"$workload\", \"attempted\"" || true)
    matching=$(echo "$bench_out" \
        | grep -c "\"workload\": \"$workload\", .*\"verdict_digest\": \"${pinned#*:}\"" || true)
    test "$runs" -gt 0 && test "$runs" -eq "$matching" \
        || { echo "$workload: verdict digest is not ${pinned#*:}" >&2; exit 1; }
done
sweep_line="$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload design_sweep_cold --seed 1 --seconds 3 --trace 0 | tail -n 1)"
rss="$(echo "$sweep_line" | sed -n 's/.*"peak_rss_mb": {"value": \([0-9.eE+-]*\).*/\1/p')"
test -n "$rss" || { echo "design_sweep_cold printed no peak_rss_mb: $sweep_line" >&2; exit 1; }
awk -v rss="$rss" 'BEGIN { exit !(rss <= 12) }' \
    || { echo "design_sweep_cold peak_rss_mb $rss exceeds 12 MB" >&2; exit 1; }

echo "CI gate passed."
