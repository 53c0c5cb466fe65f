//! Observability overhead benchmark: what does instrumentation cost when
//! it is off, and what does it cost when everything is on?
//!
//! Three configurations run the same fixed sweep (a
//! `qisim::try_sweep` utilization curve of the paper baseline over a fixed
//! qubit-count grid, single-threaded, min-of-reps):
//!
//! 1. **off** — `qisim::obs::set_enabled(false)`: the runtime kill
//!    switch; every macro short-circuits on one relaxed atomic load.
//! 2. **disarmed** — recording enabled, but no log sink, no metrics
//!    exporter, no flight recorder armed. This is the production
//!    default, and the **gate**: it must cost ≤ 2% over `off`.
//! 3. **armed** — `QISIM_LOG`-style JSONL logging at debug level, the
//!    flight recorder, and the telemetry exporter all live at once
//!    (informational — armed overhead is a choice, not a regression).
//!
//! The bench also pins the acceptance criterion that arming the logger
//! cannot perturb results: the verdict (and its codec encoding) is
//! bit-identical with and without `QISIM_LOG` armed.
//!
//! Run with `cargo run --release --example bench_obs` to (re)write
//! `BENCH_obs.json` — the gate numbers plus a full registry dump from an
//! armed paper sweep — or with `-- --smoke` for the CI gate (tiny reps,
//! no artifact rewrite).

use qisim::engine;
use qisim::obs::log::Level;
use qisim::spec::{DesignSpec, Preset};
use qisim::surface::target::Target;
use qisim::QciDesign;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One timed batch of `f` in milliseconds.
fn batch_ms(iters: usize, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    for _ in 0..iters {
        f();
    }
    started.elapsed().as_secs_f64() * 1e3
}

/// The fixed qubit-count grid every configuration sweeps (Fig. 12/13
/// x-axis flavor: powers of two through the paper's long-term scale).
const SWEEP_COUNTS: [u64; 9] = [64, 128, 256, 512, 1024, 2048, 4096, 16384, 65536];

/// One iteration of the fixed sweep: a full utilization curve through
/// the (warm) power memo — the steady-state production workload whose
/// overhead budget the gate protects.
fn sweep_once(design: &QciDesign) {
    std::hint::black_box(qisim::try_sweep(design, &SWEEP_COUNTS)).expect("valid sweep");
}

/// Min-of-reps timing of the fixed sweep under whatever observability
/// configuration the caller armed.
fn measure_ms(reps: usize, iters: usize) -> f64 {
    let design = QciDesign::cmos_baseline();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        best = best.min(batch_ms(iters, || sweep_once(&design)));
    }
    best
}

/// off vs disarmed, alternating batch-by-batch so clock drift and
/// scheduler noise hit both symmetrically.
fn measure_disarmed_overhead(reps: usize, iters: usize) -> (f64, f64, f64) {
    let design = QciDesign::cmos_baseline();
    let mut off_ms = f64::INFINITY;
    let mut disarmed_ms = f64::INFINITY;
    for _ in 0..reps {
        qisim::obs::set_enabled(false);
        off_ms = off_ms.min(batch_ms(iters, || sweep_once(&design)));
        qisim::obs::set_enabled(true);
        disarmed_ms = disarmed_ms.min(batch_ms(iters, || sweep_once(&design)));
    }
    (off_ms, disarmed_ms, (disarmed_ms / off_ms - 1.0) * 100.0)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let parallelism = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    println!(
        "bench_obs: disarmed-overhead gate + fully-armed cost, {parallelism} core(s){}",
        if smoke { " (smoke)" } else { "" }
    );

    // Fixed single-threaded footing: measure the instrumentation
    // against the real analysis, without thread-pool noise.
    qisim::par::set_threads(Some(1));
    qisim::obs::reset();
    let design = QciDesign::cmos_baseline();
    let target = Target::near_term();
    let baseline_verdict = qisim::analyze(&design, &target);
    sweep_once(&design); // warm the power memo before any timing

    // 1. The gate: recording enabled but nothing armed must be free
    //    (<= 2% over the kill switch). Re-measure once before failing so
    //    one scheduler hiccup cannot fail the build.
    let (reps, iters) = if smoke { (8, 128) } else { (24, 512) };
    let (mut off_ms, mut disarmed_ms, mut disarmed_pct) = measure_disarmed_overhead(reps, iters);
    if disarmed_pct > 2.0 {
        let retry = measure_disarmed_overhead(reps, iters);
        if retry.2 < disarmed_pct {
            (off_ms, disarmed_ms, disarmed_pct) = retry;
        }
    }
    println!(
        "  disarmed: off {off_ms:.3} ms vs enabled-disarmed {disarmed_ms:.3} ms per {iters} \
         sweeps -> {disarmed_pct:+.2}%"
    );
    assert!(
        disarmed_pct <= 2.0,
        "acceptance: disarmed observability must cost <= 2% over the kill switch, \
         got {disarmed_pct:+.2}%"
    );

    // 2. Everything on at once: JSONL debug logging, the flight
    //    recorder, and the telemetry exporter. Informational.
    let log_path = std::env::temp_dir().join(format!("bench_obs_{}.log.jsonl", std::process::id()));
    let om_path = std::env::temp_dir().join(format!("bench_obs_{}.om", std::process::id()));
    qisim::obs::set_enabled(true);
    assert!(
        qisim::obs::log::start(&log_path.to_string_lossy(), Level::Debug),
        "arm the JSONL logger"
    );
    qisim::obs::trace::arm();
    qisim::obs::telemetry::start(&om_path, Duration::from_millis(100));
    let armed_ms = measure_ms(reps, iters);
    let armed_verdict = qisim::analyze(&design, &target);

    // The registry dump for the artifact: one armed pass over every
    // paper preset and both targets, so the committed BENCH_obs.json
    // carries the full span/counter/gauge trajectory.
    for target in [Target::near_term(), Target::long_term()] {
        for preset in Preset::ALL {
            let _ = engine::try_analyze_spec(&DesignSpec::new(preset), &target);
        }
    }
    let registry_json = qisim::obs::report_json();

    qisim::obs::trace::disarm();
    qisim::obs::telemetry::shutdown();
    qisim::obs::log::shutdown();
    let log_bytes = std::fs::metadata(&log_path).map(|m| m.len()).unwrap_or(0);
    let log_records = std::fs::read_to_string(&log_path).map(|s| s.lines().count()).unwrap_or(0);
    let _ = std::fs::remove_file(&log_path);
    let _ = std::fs::remove_file(&om_path);
    let armed_pct = (armed_ms / off_ms - 1.0) * 100.0;
    println!(
        "  armed (log+trace+metrics): {armed_ms:.3} ms -> {armed_pct:+.2}% over off; \
         {log_records} log records, {log_bytes} bytes JSONL"
    );

    // 3. Arming the logger observes; it must not perturb. Same verdict,
    //    same encoded bytes.
    let identical = baseline_verdict == armed_verdict
        && qisim::codec::encode_scalability(&baseline_verdict)
            == qisim::codec::encode_scalability(&armed_verdict);
    println!("  bit_identical_with_log_armed: {identical}");
    assert!(identical, "analysis results must be bit-identical with QISIM_LOG armed");
    qisim::par::set_threads(None);

    if smoke {
        println!("bench_obs smoke gate passed.");
        return;
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"workload\": \"single-threaded qisim::try_sweep of the paper baseline over a fixed 9-point qubit grid, \
         {iters} iterations x {reps} reps min-of-reps, under three observability \
         configurations (kill switch / enabled-disarmed / log+trace+metrics armed); \
         registry dump from an armed full paper sweep\",",
    );
    let _ = writeln!(json, "  \"available_parallelism\": {parallelism},");
    json.push_str("  \"overhead\": {\n");
    let _ = writeln!(json, "    \"off_batch_ms\": {off_ms:.4},");
    let _ = writeln!(json, "    \"disarmed_batch_ms\": {disarmed_ms:.4},");
    let _ = writeln!(json, "    \"disarmed_overhead_pct\": {disarmed_pct:.3},");
    let _ = writeln!(json, "    \"gate_pct\": 2.0,");
    let _ = writeln!(json, "    \"armed_batch_ms\": {armed_ms:.4},");
    let _ = writeln!(json, "    \"armed_overhead_pct\": {armed_pct:.3},");
    let _ = writeln!(json, "    \"armed_log_records\": {log_records},");
    let _ = writeln!(json, "    \"armed_log_bytes\": {log_bytes}");
    json.push_str("  },\n");
    let _ = writeln!(json, "  \"bit_identical_with_log_armed\": {identical},");
    let _ = writeln!(json, "  \"registry\": {}", registry_json.trim_end());
    json.push_str("}\n");
    std::fs::write("BENCH_obs.json", &json).expect("write BENCH_obs.json");
    println!("wrote BENCH_obs.json ({} bytes)", json.len());
}
