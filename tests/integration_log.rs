//! Integration tests for the structured JSONL logger: leveled
//! filtering, typed fields, rate limiting with a suppression summary,
//! request-id stamping through `RequestScope`, per-stage engine records
//! at debug level — and the hard acceptance criterion that arming the
//! logger never perturbs analysis results.

use qisim::obs::log::{self, Level};
use qisim::obs::{self, RequestScope};
use qisim::surface::target::Target;
use qisim::{analyze, QciDesign};
use std::path::PathBuf;

mod common;

fn temp_log(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("qisim_log_{tag}_{}.jsonl", std::process::id()))
}

/// Arm the logger at `level`, run `f`, disarm, and return the emitted
/// JSONL lines.
fn capture(tag: &str, level: Level, f: impl FnOnce()) -> Vec<String> {
    let path = temp_log(tag);
    assert!(log::start(&path.to_string_lossy(), level), "start() must arm a fresh sink");
    f();
    assert!(log::shutdown(), "shutdown must report an armed sink was closed");
    let text = std::fs::read_to_string(&path).expect("read log file");
    let _ = std::fs::remove_file(&path);
    text.lines().map(str::to_owned).collect()
}

#[test]
fn levels_below_the_threshold_are_filtered() {
    let _l = common::isolate();
    let lines = capture("levels", Level::Warn, || {
        assert!(!log::armed(Level::Debug));
        assert!(!log::armed(Level::Info));
        assert!(log::armed(Level::Warn));
        assert!(log::armed(Level::Error));
        log::record(Level::Debug, "test.debug").emit();
        log::record(Level::Info, "test.info").emit();
        log::record(Level::Warn, "test.warn").emit();
        log::record(Level::Error, "test.error").emit();
    });
    assert_eq!(lines.len(), 2, "only warn and error survive a warn threshold: {lines:?}");
    assert!(
        lines[0].contains("\"level\":\"warn\"") && lines[0].contains("\"event\":\"test.warn\"")
    );
    assert!(
        lines[1].contains("\"level\":\"error\"") && lines[1].contains("\"event\":\"test.error\"")
    );
    for line in &lines {
        assert!(obs::json_is_well_formed(line), "log line is not valid JSON: {line}");
    }
}

#[test]
fn typed_fields_round_trip_as_json() {
    let _l = common::isolate();
    let lines = capture("fields", Level::Debug, || {
        log::record(Level::Info, "test.fields")
            .str("name", "tab\there \"quoted\"")
            .u64("answer", 42)
            .i64("delta", -7)
            .f64("ratio", 0.5)
            .f64("nan", f64::NAN)
            .bool("flag", true)
            .emit();
    });
    assert_eq!(lines.len(), 1);
    let line = &lines[0];
    assert!(obs::json_is_well_formed(line), "log line is not valid JSON: {line}");
    for want in [
        "\"ts_ns\":",
        "\"level\":\"info\"",
        "\"event\":\"test.fields\"",
        "\"thread\":",
        "\"name\":\"tab\\there \\\"quoted\\\"\"",
        "\"answer\":42",
        "\"delta\":-7",
        "\"ratio\":0.5",
        "\"nan\":null",
        "\"flag\":true",
    ] {
        assert!(line.contains(want), "missing {want} in {line}");
    }
}

#[test]
fn rate_cap_suppresses_and_shutdown_flushes_the_summary() {
    let _l = common::isolate();
    let lines = capture("ratecap", Level::Info, || {
        log::set_rate_cap(5);
        for i in 0..20u64 {
            log::record(Level::Info, "test.burst").u64("i", i).emit();
        }
    });
    log::set_rate_cap(log::DEFAULT_RATE_CAP);
    // 5 records make it through the one-second window; shutdown flushes
    // the deterministic suppression summary for the other 15.
    let burst: Vec<&String> = lines.iter().filter(|l| l.contains("test.burst")).collect();
    assert_eq!(burst.len(), 5, "rate cap of 5 must pass exactly 5 records: {lines:?}");
    let summary: Vec<&String> = lines.iter().filter(|l| l.contains("log.suppressed")).collect();
    assert_eq!(summary.len(), 1, "expected one suppression summary: {lines:?}");
    assert!(
        summary[0].contains("\"level\":\"warn\"") && summary[0].contains("\"dropped\":15"),
        "summary must report the 15 dropped records: {}",
        summary[0]
    );
}

#[test]
fn request_scope_stamps_request_ids() {
    let _l = common::isolate();
    let lines = capture("reqid", Level::Info, || {
        {
            let _outer = RequestScope::enter(42);
            log::record(Level::Info, "test.outer").emit();
            {
                let _inner = RequestScope::enter(7);
                log::record(Level::Info, "test.inner").emit();
            }
            // Dropping the inner scope restores the outer id.
            log::record(Level::Info, "test.restored").emit();
        }
        log::record(Level::Info, "test.unscoped").emit();
    });
    assert_eq!(lines.len(), 4);
    assert!(lines[0].contains("\"request_id\":42"), "outer scope: {}", lines[0]);
    assert!(lines[1].contains("\"request_id\":7"), "inner scope: {}", lines[1]);
    assert!(lines[2].contains("\"request_id\":42"), "restored scope: {}", lines[2]);
    assert!(!lines[3].contains("\"request_id\":"), "no open scope: {}", lines[3]);
}

#[test]
fn engine_emits_per_stage_records_at_debug() {
    let _l = common::isolate();
    let design = QciDesign::cmos_baseline();
    let target = Target::near_term();
    let lines = capture("engine", Level::Debug, || {
        analyze(&design, &target);
    });
    let stages: Vec<&String> =
        lines.iter().filter(|l| l.contains("\"event\":\"engine.stage\"")).collect();
    assert!(
        stages.len() >= 5,
        "a full analysis runs five plan stages, saw {}: {lines:?}",
        stages.len()
    );
    for label in ["inventory", "schedule", "power", "logical_error", "verdict"] {
        assert!(
            stages.iter().any(|l| l.contains(&format!("\"stage\":\"{label}\""))),
            "missing stage record for {label}"
        );
    }
    for line in &stages {
        assert!(line.contains("\"elapsed_ms\":"), "stage record lacks timing: {line}");
        assert!(obs::json_is_well_formed(line), "stage record is not valid JSON: {line}");
    }
}

#[test]
fn results_are_bit_identical_with_the_log_armed() {
    let _l = common::isolate();
    let design = QciDesign::rsfq_near_term();
    let target = Target::long_term();
    let disarmed = analyze(&design, &target);
    let mut armed = None;
    capture("identity", Level::Debug, || {
        armed = Some(analyze(&design, &target));
    });
    let armed = armed.expect("the armed run completed");
    assert_eq!(disarmed, armed, "arming QISIM_LOG changed the verdict");
    assert_eq!(
        qisim::codec::encode_scalability(&disarmed),
        qisim::codec::encode_scalability(&armed),
        "arming QISIM_LOG changed the encoded bytes"
    );
}

#[test]
fn start_refuses_a_second_sink_and_shutdown_is_idempotent() {
    let _l = common::isolate();
    let path = temp_log("exclusive");
    assert!(log::start(&path.to_string_lossy(), Level::Info), "the first start() must arm");
    let other = temp_log("exclusive_other");
    assert!(
        !log::start(&other.to_string_lossy(), Level::Info),
        "a second start() must refuse while a sink is armed"
    );
    assert!(!other.exists() || std::fs::metadata(&other).map(|m| m.len()).unwrap_or(0) == 0);
    assert!(log::shutdown());
    assert!(!log::shutdown(), "second shutdown must report nothing was armed");
    assert!(!log::armed(Level::Error));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&other);
}
