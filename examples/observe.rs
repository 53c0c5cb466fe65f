//! Observability demo: analyze the 4 K CMOS baseline and the optimized
//! near-term RSFQ design with full instrumentation, print each design's
//! `explain()` report and the global metrics table, and write a
//! machine-readable `observe_registry.json` dump (per-stage watt
//! attribution plus p50/p99 span timings for `power.max_qubits` and
//! `scalability.analyze`). The committed `BENCH_obs.json` artifact —
//! overhead gate numbers plus the same registry dump — is written by
//! `examples/bench_obs.rs` instead.
//!
//! The run also demonstrates the flight recorder: with
//! `QISIM_TRACE=trace.json` set (or via the programmatic `trace::arm()`
//! fallback below), the drained `TraceSession` is exported as a Chrome
//! `trace_event` timeline — open it in `chrome://tracing` or
//! <https://ui.perfetto.dev> — plus folded flamegraph stacks.
//!
//! Run with `cargo run --release --example observe`, or traced:
//! `QISIM_TRACE=trace.json cargo run --release --example observe`.
//!
//! Pass `--watch` to also demo the periodic telemetry exporter: two
//! flush-bounded intervals over an analysis batch, then the p50/p99 of
//! every `engine.stage.*` span computed from the second interval's
//! delta snapshot. With `QISIM_METRICS=<path>[:interval_ms]` set the
//! exporter uses that spec; otherwise `--watch` starts it
//! programmatically on `metrics.om`.

use qisim::obs::{self, telemetry, trace, trace_export};
use qisim::par::par_map;
use qisim::surface::target::Target;
use qisim::{analyze, try_sweep, QciDesign};
use std::time::Duration;

fn main() {
    let watch = std::env::args().any(|a| a == "--watch");
    obs::reset();
    // Arm the recorder even without QISIM_TRACE so the demo always has a
    // timeline to summarize; with the env var set, finish() below also
    // writes the artifacts to disk.
    trace::arm();
    let target = Target::near_term();

    // One pool task per design: traced, the analyses land on the
    // qisim-par worker lanes and the pool records its queue-wait
    // histogram.
    let designs = [QciDesign::cmos_baseline(), QciDesign::rsfq_near_term()];
    for verdict in par_map(&designs, |design| analyze(design, &target)) {
        print!("{}", verdict.explain());
        println!(
            "  manageable scale: {} qubits (target provisions {})\n",
            verdict.manageable_qubits(),
            target.physical_qubits()
        );
    }

    // A utilization sweep adds its point counter on top of the spans the
    // analyses recorded — and, traced, one instant per point.
    let _ = try_sweep(&QciDesign::cmos_baseline(), &[64, 128, 256, 512, 1024]);

    println!("{}", obs::report_text());

    let json = obs::report_json();
    std::fs::write("observe_registry.json", &json).expect("write observe_registry.json");
    println!("wrote observe_registry.json ({} bytes)", json.len());

    // Drain the flight recorder and exercise both exporters.
    let session = trace::TraceSession::drain();
    let chrome = trace_export::chrome_trace_json(&session);
    let folded = trace_export::folded_stacks(&session);
    println!(
        "trace: {} events on {} lane(s), {} dropped; chrome export {} bytes, {} folded stacks",
        session.event_count(),
        session.threads.len(),
        session.dropped_events,
        chrome.len(),
        folded.lines().count()
    );
    assert!(trace_export::trace_is_well_formed(&chrome), "chrome export must validate");
    println!("trace export: well-formed");
    // With QISIM_TRACE=<path> set this writes <path> and <path>.folded;
    // without it, it's a no-op returning None.
    match session.finish() {
        Ok(Some(path)) => println!("wrote {} (+ .folded)", path.display()),
        Ok(None) => println!("QISIM_TRACE unset; trace artifacts not written"),
        Err(e) => panic!("trace dump failed: {e}"),
    }

    if watch {
        watch_intervals(&target);
    }

    // Stop the exporter (whether QISIM_METRICS armed it or --watch
    // started it) and validate the final exposition it left behind.
    match telemetry::shutdown() {
        Some(path) => {
            let text = std::fs::read_to_string(&path).expect("read metrics exposition");
            assert!(obs::openmetrics_is_well_formed(&text), "metrics exposition must validate");
            println!("openmetrics export: well-formed ({}, {} bytes)", path.display(), text.len());
        }
        None => println!("QISIM_METRICS unset; telemetry exporter not started"),
    }
}

/// The `--watch` demo: two exporter intervals bounded by `flush_now`,
/// each covering one analysis batch, then per-stage p50/p99 latencies
/// read out of the *second* interval's delta snapshot — the live-rate
/// view a scraper would see, not the lifetime aggregate.
fn watch_intervals(target: &Target) {
    if !telemetry::armed() {
        // QISIM_METRICS did not arm the exporter; start it ourselves so
        // the demo always has a file to scrape.
        telemetry::start("metrics.om", Duration::from_millis(200));
    }
    // A batch of every preset, repeated so both intervals exercise the
    // full engine pipeline (and the power memo cache) many times.
    let presets = [
        QciDesign::room_coax(),
        QciDesign::room_microstrip(),
        QciDesign::room_photonic(),
        QciDesign::cmos_baseline(),
        QciDesign::cmos_long_term(),
        QciDesign::rsfq_baseline(),
        QciDesign::rsfq_near_term(),
        QciDesign::ersfq_long_term(),
    ];
    let designs: Vec<QciDesign> = presets.iter().cycle().take(32).cloned().collect();

    // Interval 1: first batch, then force an export and mark the
    // interval boundary with a snapshot.
    let _ = par_map(&designs, |design| analyze(design, target));
    telemetry::flush_now();
    let mid = obs::snapshot();

    // Interval 2: second batch; its delta against `mid` holds only this
    // interval's samples.
    let _ = par_map(&designs, |design| analyze(design, target));
    telemetry::flush_now();
    let delta = obs::snapshot().delta_since(&mid);

    println!("watch: engine.stage.* latency over the second interval");
    for (name, stats) in &delta.spans {
        if !name.starts_with("engine.stage.") || stats.count == 0 {
            continue;
        }
        println!(
            "  {name}: p50 {:.0} ns / p99 {:.0} ns over {} calls",
            stats.durations.quantile(0.5),
            stats.durations.quantile(0.99),
            stats.count
        );
    }
}
