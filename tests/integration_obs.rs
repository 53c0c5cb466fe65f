//! Integration tests for the observability layer: instrumentation must
//! never perturb the science, and an instrumented run must actually
//! record the metrics the `BENCH_obs.json` artifact promises.

use qisim::obs;
use qisim::surface::target::Target;
use qisim::{analyze, sweep, QciDesign};
use std::sync::Mutex;

/// The metrics registry is process-global; tests that reset or toggle it
/// must not interleave.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn results_are_bit_identical_with_obs_on_and_off() {
    let _l = lock();
    let target = Target::near_term();
    for design in [QciDesign::cmos_baseline(), QciDesign::rsfq_near_term()] {
        obs::set_enabled(true);
        obs::reset();
        let on = analyze(&design, &target);
        obs::set_enabled(false);
        let off = analyze(&design, &target);
        obs::set_enabled(true);
        // `Scalability` is all plain numbers; PartialEq compares every
        // field (including the per-stage watt attribution) exactly.
        assert_eq!(on, off, "instrumentation changed the verdict");
    }
    obs::reset();
}

#[test]
fn sweep_is_bit_identical_with_obs_on_and_off() {
    let _l = lock();
    let counts = [64u64, 256, 1024];
    obs::set_enabled(true);
    let on = sweep(&QciDesign::cmos_baseline(), &counts);
    obs::set_enabled(false);
    let off = sweep(&QciDesign::cmos_baseline(), &counts);
    obs::set_enabled(true);
    assert_eq!(on, off);
    obs::reset();
}

#[test]
fn instrumented_analysis_records_spans_counters_and_gauges() {
    let _l = lock();
    // Earlier tests warm the process-global power memo; a warm memo
    // would replay every probe and the `power.evaluate` span never fires.
    qisim::power::clear_cache();
    obs::set_enabled(true);
    obs::reset();
    let verdict = analyze(&QciDesign::cmos_baseline(), &Target::near_term());
    assert!(verdict.power_limited_qubits > 0);
    let snap = obs::snapshot();
    if !obs::enabled() {
        // Compiled with --no-default-features: the registry must stay
        // empty and the exporters must degrade gracefully.
        assert!(snap.is_empty());
        assert!(obs::json_is_well_formed(&obs::report_json()));
        return;
    }
    // Spans from every instrumented layer of the Fig. 6 pipeline.
    for name in ["scalability.analyze", "power.max_qubits", "power.evaluate", "microarch.build"] {
        let s = snap.span(name).unwrap_or_else(|| panic!("span {name} missing"));
        assert!(s.count > 0, "span {name} never fired");
    }
    // The bisection did real work.
    let iters = snap.counter("power.bisection.iters").expect("bisection counter");
    assert!(iters >= 10, "bisection iterations {iters}");
    // Per-stage watt attribution gauges for the binding 4 K stage.
    for g in ["power.stage.4K.device_dynamic_w", "power.stage.4K.utilization"] {
        assert!(snap.gauge(g).is_some(), "gauge {g} missing");
    }
    // The export formats agree with the snapshot and are well-formed.
    let json = obs::report_json();
    assert!(obs::json_is_well_formed(&json), "{json}");
    assert!(json.contains("power.max_qubits"));
    assert!(json.contains("p99_ns"));
    assert!(obs::report_text().contains("scalability.analyze"));
    obs::reset();
}

#[test]
fn scale_out_analysis_publishes_topology_gauges() {
    let _l = lock();
    obs::set_enabled(true);
    obs::reset();
    let spec = qisim::spec::DesignSpec::new(qisim::spec::Preset::CmosBaseline)
        .fridges(4)
        .link(qisim::hal::topology::LinkKind::CryoCoax);
    let verdict =
        qisim::engine::try_analyze_spec(&spec, &Target::near_term()).expect("scale-out analysis");
    assert!(verdict.scale_out.is_some());
    let snap = obs::snapshot();
    if !obs::enabled() {
        assert!(snap.is_empty());
        return;
    }
    // Fleet shape gauges, the covered-fridges counter, and per-stage
    // interconnect heat attribution.
    assert_eq!(snap.gauge("topology.fridges"), Some(4.0));
    assert_eq!(snap.gauge("topology.links_per_fridge"), Some(2.0));
    assert_eq!(snap.gauge("topology.shared_controllers"), Some(1.0));
    let per_fridge = snap.gauge("engine.fridge.qubits").expect("per-fridge gauge");
    assert_eq!(per_fridge as u64, verdict.scale_out.as_ref().unwrap().per_fridge_qubits);
    assert_eq!(snap.counter("engine.fridge.shards"), Some(4));
    let heat_4k = snap.gauge("topology.interconnect.4K_w").expect("4K interconnect gauge");
    assert!(heat_4k > 0.0, "cryo coax must dissipate at 4 K: {heat_4k}");
    // A classic single-fridge run leaves the topology gauges untouched.
    obs::reset();
    let _ = analyze(&QciDesign::cmos_baseline(), &Target::near_term());
    assert!(obs::snapshot().gauge("topology.fridges").is_none());
    obs::reset();
}

#[test]
fn runtime_disable_stops_recording_mid_process() {
    let _l = lock();
    obs::set_enabled(true);
    obs::reset();
    obs::set_enabled(false);
    let _ = analyze(&QciDesign::cmos_baseline(), &Target::near_term());
    obs::set_enabled(true);
    assert!(obs::snapshot().is_empty(), "disabled run must record nothing");
    obs::reset();
}
