//! Integration tests for the live-telemetry layer at the facade level:
//! delta snapshots over real workloads, the OpenMetrics exposition, the
//! periodic exporter round trip, and the bounded power memo cache's
//! bit-identity contract under thrash.

use qisim::hal::fridge::{Fridge, Stage};
use qisim::obs::{self, telemetry};
use qisim::scalability::analyze_on;
use qisim::surface::target::Target;
use qisim::{analyze, try_sweep, QciDesign};

mod common;

#[test]
fn delta_snapshots_isolate_the_second_interval() {
    let _l = common::isolate();
    let _ = try_sweep(&QciDesign::cmos_baseline(), &[64, 128, 256]).expect("valid sweep");
    let first = obs::snapshot();
    let _ = try_sweep(&QciDesign::cmos_baseline(), &[512, 1024]).expect("valid sweep");
    let second = obs::snapshot();

    let delta = second.delta_since(&first);
    // Lifetime counter says 5 points; the interval delta says 2.
    assert_eq!(second.counter("scalability.sweep.points"), Some(5));
    assert_eq!(delta.counter("scalability.sweep.points"), Some(2));
    // Interval timestamps are monotone and the delta carries the
    // interval's end stamp.
    assert!(second.at_ns >= first.at_ns);
    assert_eq!(delta.at_ns, second.at_ns);
    // Delta of identical snapshots is all-zero for every series.
    let idle = second.delta_since(&second);
    assert_eq!(idle.counter("scalability.sweep.points"), Some(0));
    obs::reset();
}

#[test]
fn openmetrics_export_of_a_live_run_validates() {
    let _l = common::isolate();
    let verdict = analyze(&QciDesign::cmos_baseline(), &Target::near_term());
    assert!(verdict.power_limited_qubits > 0);
    let snap = obs::snapshot();
    let text = obs::openmetrics(&snap);
    assert!(obs::openmetrics_is_well_formed(&text), "{text}");
    assert!(text.ends_with("# EOF\n"));
    // Counter, histogram, and span families all made it out, with
    // sanitized names.
    assert!(text.contains("# TYPE power_cache_misses counter"));
    assert!(text.contains("power_landing_steps_total"));
    assert!(text.contains("scalability_analyze_duration_ns_bucket"));
    assert!(text.contains("le=\"+Inf\""));
    obs::reset();
}

#[test]
fn programmatic_exporter_round_trip_writes_interval_deltas() {
    let _l = common::isolate();
    let path = std::env::temp_dir().join(format!("qisim_it_metrics_{}.om", std::process::id()));
    // A huge interval so every write on disk is flush- or
    // shutdown-driven — no timing dependence.
    let started = telemetry::start(&path, std::time::Duration::from_secs(3600));
    assert!(started, "exporter failed to start");
    assert!(telemetry::armed());

    let _ = analyze(&QciDesign::rsfq_near_term(), &Target::near_term());
    assert!(telemetry::flush_now());
    let text = std::fs::read_to_string(&path).expect("exposition after flush");
    assert!(obs::openmetrics_is_well_formed(&text), "{text}");
    assert!(text.contains("telemetry_ticks_total"));
    assert!(text.contains("power_cache_misses_total"));

    let returned = telemetry::shutdown().expect("shutdown returns the path");
    assert_eq!(returned, path);
    assert!(!telemetry::armed());
    // The final (shutdown-driven) write is still well-formed, and the
    // atomic-rename protocol left no temp file behind.
    let final_text = std::fs::read_to_string(&path).expect("exposition after shutdown");
    assert!(obs::openmetrics_is_well_formed(&final_text), "{final_text}");
    assert!(!path.with_extension("om.tmp").exists());
    let _ = std::fs::remove_file(&path);
    obs::reset();
}

#[test]
fn delta_across_a_registry_reset_reports_the_full_current_values() {
    let _l = common::isolate();
    // A big first interval, then a reset, then a smaller second one: the
    // current counter is *lower* than the previous snapshot's, which an
    // exporter must read as "everything restarted — the whole current
    // value is new", never as a negative (or wrapped) increment.
    for counts in [[64u64, 128], [256, 512], [1024, 2048]] {
        obs::span!("it.telemetry.interval");
        let _ = try_sweep(&QciDesign::cmos_baseline(), &counts).expect("valid sweep");
    }
    let before_reset = obs::snapshot();
    let tall = before_reset.counter("scalability.sweep.points").expect("first interval counted");
    assert_eq!(tall, 6);
    obs::reset();
    for counts in [[96u64, 192], [384, 768]] {
        obs::span!("it.telemetry.interval");
        let _ = try_sweep(&QciDesign::cmos_baseline(), &counts).expect("valid sweep");
    }
    let after_reset = obs::snapshot();

    let delta = after_reset.delta_since(&before_reset);
    assert_eq!(after_reset.counter("scalability.sweep.points"), Some(4));
    assert_eq!(
        delta.counter("scalability.sweep.points"),
        Some(4),
        "a shrunken counter means a reset: the delta is the full current value"
    );
    // Three interval spans before the reset, two after: the shrunken
    // count routes the span diff through the same everything-is-new rule.
    let spans = delta.span("it.telemetry.interval").expect("interval span survives the diff");
    assert_eq!(spans.count, 2, "span stats follow the same reset rule");
    // And the delta still exports cleanly.
    assert!(obs::openmetrics_is_well_formed(&obs::openmetrics(&delta)));
    obs::reset();
}

#[test]
fn exporter_shutdown_flushes_the_final_partial_interval() {
    let _l = common::isolate();
    let path = std::env::temp_dir().join(format!("qisim_it_final_{}.om", std::process::id()));
    let _ = std::fs::remove_file(&path);
    // Interval far beyond the test's lifetime: nothing lands on disk on
    // a timer tick, so whatever the file holds after shutdown() came
    // from the final flush of the still-open partial interval.
    let started = telemetry::start(&path, std::time::Duration::from_secs(3600));
    assert!(started, "exporter failed to start");
    let _ = try_sweep(&QciDesign::cmos_baseline(), &[64, 128]).expect("valid sweep");
    let returned = telemetry::shutdown().expect("shutdown returns the path");
    assert_eq!(returned, path);

    let text = std::fs::read_to_string(&path).expect("shutdown must leave a final exposition");
    assert!(obs::openmetrics_is_well_formed(&text), "{text}");
    // The sweep ran entirely inside the never-flushed interval, so its
    // series can only be present if shutdown exported the partial delta.
    assert!(
        text.contains("scalability_sweep_points_total 2"),
        "final flush must carry the partial interval's work:\n{text}"
    );
    assert!(!path.with_extension("om.tmp").exists(), "atomic-rename left a temp file");
    let _ = std::fs::remove_file(&path);
    obs::reset();
}

/// At a landing cap of 8 (the runtime override), 40 distinct designs
/// must evict, stay within bounds, and produce bit-identical verdicts to
/// the default-capacity cache.
#[test]
fn bounded_memo_cache_thrash_is_bit_identical() {
    let _l = common::isolate();
    let target = Target::near_term();
    let design = QciDesign::cmos_baseline();
    let fridges: Vec<Fridge> = (1..=40u32)
        .map(|i| Fridge::standard().with_budget(Stage::K4, 0.25 * f64::from(i)))
        .collect();
    let analyze_all =
        || -> Vec<_> { fridges.iter().map(|f| analyze_on(&design, &target, f)).collect() };

    qisim::power::set_cache_cap(Some(8));
    qisim::power::clear_cache();
    let bounded = analyze_all();
    let stats = qisim::power::cache_stats();
    assert!(stats.evictions > 0, "40 distinct designs at cap 8 must evict: {stats:?}");
    assert!(stats.len <= 8, "cache exceeded its cap");

    qisim::power::set_cache_cap(None);
    qisim::power::clear_cache();
    let unbounded = analyze_all();
    assert_eq!(bounded, unbounded, "cache bounding changed the science");
    qisim::power::clear_cache();
}
