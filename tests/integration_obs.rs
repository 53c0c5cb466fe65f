//! Integration tests for the observability layer: instrumentation must
//! never perturb the science, and an instrumented run must actually
//! record the metrics the `BENCH_obs.json` artifact promises.

use qisim::hal::fridge::Stage;
use qisim::obs;
use qisim::surface::analytic::CALIBRATION;
use qisim::surface::target::Target;
use qisim::{analyze, try_sweep, QciDesign};

mod common;

#[test]
fn results_are_bit_identical_with_obs_on_and_off() {
    let _l = common::isolate();
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
    let _l = common::isolate();
    let counts = [64u64, 256, 1024];
    obs::set_enabled(true);
    let on = try_sweep(&QciDesign::cmos_baseline(), &counts).expect("valid sweep");
    obs::set_enabled(false);
    let off = try_sweep(&QciDesign::cmos_baseline(), &counts).expect("valid sweep");
    obs::set_enabled(true);
    assert_eq!(on, off);
    obs::reset();
}

#[test]
fn instrumented_analysis_records_spans_counters_and_gauges() {
    let _l = common::isolate();
    let verdict = analyze(&QciDesign::cmos_baseline(), &Target::near_term());
    assert!(verdict.power_limited_qubits > 0);
    let snap = obs::snapshot();
    // Every instrumented layer of the Fig. 6 pipeline: spans around the
    // analysis and the landing search, call counters on the sub-µs leaves
    // (a span's two clock reads would cost ~20 % of a power evaluation).
    for name in ["scalability.analyze", "power.max_qubits"] {
        let s = snap.span(name).unwrap_or_else(|| panic!("span {name} missing"));
        assert!(s.count > 0, "span {name} never fired");
    }
    for name in ["power.evaluate.calls", "microarch.builds"] {
        let n = snap.counter(name).unwrap_or_else(|| panic!("counter {name} missing"));
        assert!(n > 0, "counter {name} never moved");
    }
    // The cold landing searched inside its bracket, in few probes.
    let steps = snap.counter("power.landing.steps").expect("landing counter");
    assert!(steps >= 1, "landing steps {steps}");
    let landings = snap.counter("power.cache.misses").expect("memo miss counter");
    let calls = snap.counter("power.evaluate.calls").expect("evaluate counter");
    assert!(landings >= 1 && calls <= 8 * landings, "{calls} evaluations for {landings} landings");
    // Per-stage watt attribution gauges: every field of every stage.
    let fields = [
        "device_static_w",
        "device_dynamic_w",
        "wire_w",
        "instr_link_w",
        "total_w",
        "budget_w",
        "utilization",
    ];
    for stage in Stage::ALL {
        for field in fields {
            let g = format!("power.stage.{}.{field}", stage.label());
            assert!(snap.gauge(&g).is_some(), "gauge {g} missing");
        }
    }
    let k4 = verdict.stages.iter().find(|s| s.stage == Stage::K4).expect("4 K stage");
    assert_eq!(snap.gauge("power.stage.4K.budget_w"), Some(k4.budget_w));
    assert_eq!(snap.gauge("power.stage.4K.wire_w"), Some(k4.wire_w));
    // The export formats agree with the snapshot and are well-formed.
    let json = obs::report_json();
    assert!(obs::json_is_well_formed(&json), "{json}");
    assert!(json.contains("power.max_qubits"));
    assert!(json.contains("p99_ns"));
    assert!(obs::report_text().contains("scalability.analyze"));
    obs::reset();
}

#[test]
fn explain_reads_memo_counts_from_the_cache_not_the_metric_store() {
    let _l = common::isolate();
    let design = QciDesign::cmos_baseline();
    let target = Target::near_term();
    let _ = analyze(&design, &target);
    // Zeroing the metric store must not split the memo line across two
    // counter windows: the repeat run is all hits, but the lifetime
    // misses of the first run still belong in the printed totals.
    obs::reset();
    let text = analyze(&design, &target).explain();
    let stats = qisim::power::cache_stats();
    assert!(stats.misses > 0 && stats.hits > 0, "{stats:?}");
    let want = format!("power memo cache: {} hits / {} misses", stats.hits, stats.misses);
    assert!(text.contains(&want), "expected {want:?} in:\n{text}");
    obs::reset();
}

#[test]
fn scale_out_analysis_publishes_topology_gauges() {
    let _l = common::isolate();
    let spec = qisim::spec::DesignSpec::new(qisim::spec::Preset::CmosBaseline)
        .fridges(4)
        .link(qisim::hal::topology::LinkKind::CryoCoax);
    let verdict =
        qisim::engine::try_analyze_spec(&spec, &Target::near_term()).expect("scale-out analysis");
    assert!(verdict.scale_out.is_some());
    let snap = obs::snapshot();
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
    let interconnect_w = verdict.scale_out.as_ref().unwrap().interconnect_w;
    for (stage, watts) in Stage::ALL.into_iter().zip(interconnect_w) {
        let g = format!("topology.interconnect.{}_w", stage.label());
        assert_eq!(snap.gauge(&g), Some(watts), "gauge {g}");
    }
    // A classic single-fridge run leaves the topology gauges untouched.
    obs::reset();
    let _ = analyze(&QciDesign::cmos_baseline(), &Target::near_term());
    assert!(obs::snapshot().gauge("topology.fridges").is_none());
    obs::reset();
}

#[test]
fn rare_only_analysis_moves_the_decoder_counters() {
    // A fresh rare ladder with the engine's parameters builds the stages
    // its first estimate combines and decodes their trials, so the
    // union-find work counters move with no sliced work in the window. A
    // repeat estimate answers from the kept stages: it samples and
    // decodes nothing, moves no decoder counter, and returns the same
    // estimate to the last bit.
    use qisim::surface::montecarlo::{rare::RareLadder, McContext, RareEstimate};
    use qisim::surface::Lattice;
    let _l = common::isolate();
    let spec = qisim::spec::DesignSpec::new(qisim::spec::Preset::CmosBaseline);
    let p = spec.build().expect("preset").physical_budget().effective_error(&CALIBRATION);
    let context = McContext::new(&Lattice::new(23));
    let ladder = RareLadder::new(&context, 2_000, 0x51_C0DE);
    let first = ladder.estimate(p);
    assert!(first.logical_error > 0.0, "{first:?}");
    let snap = obs::snapshot();
    assert_eq!(snap.counter("surface.sliced.trials"), None, "no sliced work in this window");
    let rounds = snap.counter("surface.decoder.rounds").unwrap_or(0);
    let edges = snap.counter("surface.decoder.frontier_edges").unwrap_or(0);
    assert!(rounds > 0 && edges >= rounds, "rounds {rounds}, frontier edges {edges}");
    assert!(snap.counter("surface.rare.light_trials").unwrap_or(0) > 0);
    obs::reset();
    let again = ladder.estimate(p);
    let bits = |e: &RareEstimate| {
        (e.logical_error.to_bits(), e.ci_low.to_bits(), e.ci_high.to_bits(), e.stages, e.trials)
    };
    assert_eq!(bits(&again), bits(&first), "a warm estimate moved");
    let snap = obs::snapshot();
    for name in [
        "surface.decoder.rounds",
        "surface.decoder.frontier_edges",
        "surface.decoder.peels_skipped",
        "surface.rare.light_trials",
        "par.tasks",
    ] {
        assert_eq!(snap.counter(name).unwrap_or(0), 0, "{name} moved on a warm estimate");
    }
    assert_eq!(snap.counter("surface.rare.trials"), Some(first.trials as u64));
    obs::reset();
}

#[test]
fn runtime_disable_stops_recording_mid_process() {
    let _l = common::isolate();
    obs::set_enabled(false);
    let _ = analyze(&QciDesign::cmos_baseline(), &Target::near_term());
    obs::set_enabled(true);
    assert!(obs::snapshot().is_empty(), "disabled run must record nothing");
    obs::reset();
}
