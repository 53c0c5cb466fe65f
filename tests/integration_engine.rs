//! Integration tests of the fallible staged engine: its entry points
//! must be **bit-identical** to the legacy one-shot pipeline for every
//! paper design, and every malformed input must come back as the right
//! typed [`QisimError`] variant instead of a panic.

use qisim::engine::{self, AnalysisPlan, PlanStage};
use qisim::error::{ConfigError, QisimError, TargetError};
use qisim::hal::fridge::{Fridge, Stage};
use qisim::hal::topology::FridgeTopology;
use qisim::hal::wire::InstructionLink;
use qisim::microarch::cryo_cmos::CryoCmosConfig;
use qisim::microarch::sfq::SfqConfig;
use qisim::power::{PowerError, StagePower};
use qisim::quantum::rng::{Rng, Xorshift64Star};
use qisim::spec::{DesignSpec, Estimator, Preset};
use qisim::surface::analytic::CALIBRATION;
use qisim::surface::target::{Target, CODE_DISTANCE};
use qisim::{scalability, QciDesign, Scalability};

/// A verbatim copy of the pre-refactor `scalability::analyze_on` body,
/// kept as the bit-identity oracle for the staged path.
fn legacy_analyze_on(design: &QciDesign, target: &Target, fridge: &Fridge) -> Scalability {
    let arch = design.arch();
    let (power_limited_qubits, binding_stage) = qisim::power::max_qubits(&arch, fridge);
    let link = InstructionLink::standard();
    let stages =
        qisim::power::try_evaluate_with_link(&arch, fridge, power_limited_qubits.max(1), &link)
            .unwrap()
            .stages;
    let logical_error = design.physical_budget().logical_error(CODE_DISTANCE, &CALIBRATION);
    let target_error = target.logical_error_target();
    Scalability {
        design: design.name(),
        power_limited_qubits,
        binding_stage,
        stages,
        logical_error,
        target_error,
        error_ok: logical_error <= target_error,
        esm_cycle_ns: design.esm_cycle_ns(),
        scale_out: None,
    }
}

/// A fallible analysis on the standard refrigerator.
fn try_standard(design: &QciDesign, target: &Target) -> Result<Scalability, QisimError> {
    engine::try_analyze_topology(design, target, &FridgeTopology::standard(), Estimator::Packed)
}

/// A staged plan on the standard refrigerator.
fn standard_plan(design: &QciDesign, target: &Target) -> Result<AnalysisPlan, QisimError> {
    AnalysisPlan::with_topology(design, target, &FridgeTopology::standard(), Estimator::Packed)
}

/// A verbatim copy of the historical sharded power stage, kept as the
/// bit-identity oracle for cluster analyses: land the design on the
/// effective fridge (or on zero qubits with the worst link stage binding
/// when the interconnect eats a stage whole), then attribute per-stage
/// watts at the per-fridge yield against the real fridge's budgets.
fn legacy_cluster_power(
    design: &QciDesign,
    topology: &qisim::hal::topology::FridgeTopology,
) -> (u64, Option<Stage>, Vec<StagePower>) {
    let arch = design.arch();
    let (per_fridge, binding) = match topology.effective_fridge() {
        Some(eff) => qisim::power::max_qubits(&arch, &eff),
        None => (0, topology.worst_link_stage()),
    };
    let link = InstructionLink::standard();
    let stages =
        qisim::power::try_evaluate_with_link(&arch, topology.fridge(), per_fridge.max(1), &link)
            .unwrap()
            .stages;
    (per_fridge, binding, stages)
}

/// Every paper design point the experiment drivers touch: the nine
/// presets plus the optimized/degraded variants of Figs. 13–17.
fn paper_designs() -> Vec<QciDesign> {
    let mut designs: Vec<QciDesign> = Preset::ALL.iter().map(|p| p.design()).collect();
    designs.push(QciDesign::Sfq(SfqConfig {
        sharing: qisim::microarch::sfq::JpmSharing::SharedNaive,
        ..SfqConfig::baseline_rsfq()
    }));
    designs.push(QciDesign::CryoCmos(CryoCmosConfig {
        drive_fdm: 32,
        readout_ns: qisim::microarch::cryo_cmos::READOUT_NS,
        ..CryoCmosConfig::long_term()
    }));
    designs.push(QciDesign::CryoCmos(CryoCmosConfig {
        masked_isa: true,
        ..CryoCmosConfig::baseline()
    }));
    designs
}

#[test]
fn staged_path_is_bit_identical_to_the_legacy_pipeline() {
    for target in [Target::near_term(), Target::long_term()] {
        for design in paper_designs() {
            let legacy = legacy_analyze_on(&design, &target, &Fridge::standard());
            let staged = try_standard(&design, &target).expect("paper design");
            assert_eq!(staged, legacy, "{} vs {}", staged.design, target.name);
            // The infallible wrapper is the same staged path.
            assert_eq!(scalability::analyze(&design, &target), legacy);
        }
    }
}

#[test]
fn staged_path_matches_legacy_on_custom_fridges() {
    let fridges = [
        Fridge::standard().with_budget(Stage::K4, 6.0),
        Fridge::standard().with_budget(Stage::Mk20, 1e-2),
    ];
    let t = Target::near_term();
    for fridge in &fridges {
        for design in [QciDesign::cmos_baseline(), QciDesign::rsfq_baseline()] {
            let legacy = legacy_analyze_on(&design, &t, fridge);
            let one_fridge = FridgeTopology::standard().with_fridge(fridge.clone());
            let staged = engine::try_analyze_topology(&design, &t, &one_fridge, Estimator::Packed)
                .expect("paper design");
            assert_eq!(staged, legacy);
            // The infallible custom-fridge wrapper is the same staged path.
            assert_eq!(scalability::analyze_on(&design, &t, fridge), legacy);
        }
    }
}

#[test]
fn plan_exposes_every_intermediate_artifact() {
    let mut plan = standard_plan(&QciDesign::cmos_baseline(), &Target::near_term()).expect("valid");
    assert_eq!(plan.next_stage(), Some(PlanStage::Inventory));
    let mut ran = Vec::new();
    while let Some(stage) = plan.run_next().expect("paper design") {
        ran.push(stage);
    }
    assert_eq!(ran, PlanStage::ALL);
    let arch = plan.inventory().expect("inventory artifact");
    assert!(!arch.components.is_empty());
    let schedule = plan.schedule().expect("schedule artifact");
    assert!(schedule.cycle_ns > 0.0);
    let power = plan.stage_powers().expect("power artifact");
    assert_eq!(power.stages.len(), Stage::ALL.len());
    let verdict = plan.verdict().expect("verdict").clone();
    assert_eq!(
        verdict,
        legacy_analyze_on(&QciDesign::cmos_baseline(), &Target::near_term(), &Fridge::standard())
    );
}

/// Every invalid spec knob yields its documented [`QisimError`] variant
/// — never a panic, never a wrong variant.
#[test]
fn invalid_spec_knobs_map_to_their_variants() {
    let t = Target::near_term();
    let config = |spec: &DesignSpec| match engine::try_analyze_spec(spec, &t) {
        Err(QisimError::Config(e)) => e,
        other => panic!("expected a config error, got {other:?}"),
    };
    // FDM degree 0 (would divide by zero in the ESM profile).
    let e = config(&DesignSpec::new(Preset::CmosBaseline).drive_fdm(0));
    assert!(matches!(e, ConfigError::OutOfRange { knob: "drive_fdm", value: 0, .. }), "{e:?}");
    // DAC precision past the calibrated sweep.
    let e = config(&DesignSpec::new(Preset::CmosBaseline).drive_bits(17));
    assert!(matches!(e, ConfigError::OutOfRange { knob: "drive_bits", value: 17, .. }), "{e:?}");
    // SFQ broadcast parallelism out of range.
    let e = config(&DesignSpec::new(Preset::RsfqBaseline).bs(0));
    assert!(matches!(e, ConfigError::OutOfRange { knob: "bs", .. }), "{e:?}");
    // Negative fridge budget.
    let e = config(&DesignSpec::new(Preset::CmosBaseline).budget(Stage::K4, -2.5));
    assert!(matches!(e, ConfigError::Budget { stage: Stage::K4, .. }), "{e:?}");
    // Empty design name.
    let e = config(&DesignSpec::new(Preset::CmosBaseline).name(""));
    assert!(matches!(e, ConfigError::EmptyName), "{e:?}");
    // Technology mismatch: an SFQ knob on a CMOS preset.
    let e = config(&DesignSpec::new(Preset::CmosBaseline).bs(1));
    assert!(matches!(e, ConfigError::KnobMismatch { knob: "bs", .. }), "{e:?}");
    // Non-finite analog knob.
    let e = config(&DesignSpec::new(Preset::CmosBaseline).readout_ns(f64::NAN));
    assert!(matches!(e, ConfigError::NotPositive { knob: "readout_ns", .. }), "{e:?}");
}

#[test]
fn invalid_raw_designs_and_targets_are_typed() {
    let t = Target::near_term();
    let bad = QciDesign::CryoCmos(CryoCmosConfig { drive_fdm: 0, ..CryoCmosConfig::baseline() });
    assert!(matches!(
        try_standard(&bad, &t),
        Err(QisimError::Config(ConfigError::OutOfRange { knob: "drive_fdm", .. }))
    ));
    assert!(matches!(
        engine::try_sweep(&bad, &[64]),
        Err(QisimError::Config(ConfigError::OutOfRange { .. }))
    ));
    // A zero qubit count is the power model's typed refusal.
    assert!(matches!(
        engine::try_sweep(&QciDesign::cmos_baseline(), &[0]),
        Err(QisimError::Power(PowerError::NoQubits))
    ));
    // Malformed targets.
    let mut t0 = Target::near_term();
    t0.logical_ops = f64::INFINITY;
    assert!(matches!(
        try_standard(&QciDesign::cmos_baseline(), &t0),
        Err(QisimError::Target(TargetError::InvalidOps { .. }))
    ));
    let mut t0 = Target::near_term();
    t0.logical_qubits = 0;
    assert!(matches!(
        try_standard(&QciDesign::cmos_baseline(), &t0),
        Err(QisimError::Target(TargetError::NoLogicalQubits))
    ));
}

#[test]
fn errors_render_and_chain_like_std_errors() {
    use std::error::Error as _;
    let err = engine::try_sweep(&QciDesign::cmos_baseline(), &[0]).expect_err("zero count");
    assert_eq!(err.to_string(), "power model: need at least one qubit");
    let source = err.source().expect("source-chained to qisim-power");
    assert_eq!(source.to_string(), "need at least one qubit");
}

/// A seeded randomized grid of near-valid knob combinations: every
/// `try_analyze_spec` call must return `Ok` or a typed error — this test
/// would abort on any panic escaping the engine. (`qisim`'s
/// `proptests_engine.rs` checks the same property on drawn specs.)
#[test]
fn randomized_near_valid_knob_grid_never_panics() {
    let mut rng = Xorshift64Star::seed_from_u64(0x5157_5349_4d21);
    let t = Target::near_term();
    let mut oks = 0usize;
    let mut errs = 0usize;
    for _ in 0..200 {
        let preset = Preset::ALL[(rng.next_u64() % 9) as usize];
        let mut spec = DesignSpec::new(preset);
        // Knob values straddle the validated boundaries (0..=2 around
        // each limit), mixed across technologies to exercise mismatches.
        if rng.gen_f64() < 0.5 {
            spec = spec.drive_fdm((rng.next_u64() % 68) as u32);
        }
        if rng.gen_f64() < 0.5 {
            spec = spec.drive_bits((rng.next_u64() % 19) as u32);
        }
        if rng.gen_f64() < 0.3 {
            spec = spec.bs((rng.next_u64() % 10) as u32);
        }
        if rng.gen_f64() < 0.3 {
            spec = spec.readout_ns((rng.gen_f64() - 0.25) * 4000.0);
        }
        if rng.gen_f64() < 0.3 {
            spec = spec.analog_scale(rng.gen_f64() * 2.0 - 0.5);
        }
        if rng.gen_f64() < 0.3 {
            let stage = Stage::ALL[(rng.next_u64() % 5) as usize];
            spec = spec.budget(stage, rng.gen_f64() * 4.0 - 1.0);
        }
        match engine::try_analyze_spec(&spec, &t) {
            Ok(s) => {
                oks += 1;
                assert!(s.power_limited_qubits >= 1 || !s.error_ok || s.stages.is_empty());
            }
            Err(e) => {
                errs += 1;
                // Every diagnostic renders.
                assert!(!e.to_string().is_empty());
            }
        }
    }
    assert!(oks > 0, "the grid must hit some valid points ({oks} ok / {errs} err)");
    assert!(errs > 0, "the grid must hit some invalid points ({oks} ok / {errs} err)");
}

/// N=1 identity gate (the scale-out analogue of the legacy-vs-staged
/// gate above): a single-fridge topology must be **bit-identical** to
/// the classic pipeline for every preset and target — both through
/// `with_topology` directly and through a spec carrying `fridges = 1`.
#[test]
fn single_fridge_topology_is_bit_identical_for_every_preset_and_target() {
    use qisim::hal::topology::LinkKind;
    for target in [Target::near_term(), Target::long_term()] {
        for design in paper_designs() {
            let classic = legacy_analyze_on(&design, &target, &Fridge::standard());
            // Even with link knobs configured, one fridge has no peers:
            // the classic path runs verbatim.
            for topology in [
                FridgeTopology::standard(),
                FridgeTopology::standard().with_link(LinkKind::Photonic).with_links_per_fridge(64),
            ] {
                let topo =
                    engine::try_analyze_topology(&design, &target, &topology, Estimator::Packed)
                        .expect("paper design");
                assert_eq!(topo, classic, "{} vs {}", classic.design, target.name);
                assert_eq!(topo.scale_out, None);
            }
        }
    }
    // Spec route: `fridges = 1` (with or without link knobs) is the
    // classic verdict for every preset.
    for preset in Preset::ALL {
        let t = Target::near_term();
        let classic = engine::try_analyze_spec(&DesignSpec::new(preset), &t).expect("preset");
        let via_spec = engine::try_analyze_spec(
            &DesignSpec::new(preset).fridges(1).link(LinkKind::CryoCoax),
            &t,
        )
        .expect("preset");
        assert_eq!(via_spec, classic, "{preset:?}");
    }
}

/// N>1 semantics: the cluster total is fridges x per-fridge yield, the
/// verdict carries a fully-populated scale-out block, and explain()
/// names the binding constraint end to end.
#[test]
fn multi_fridge_analysis_aggregates_and_attributes() {
    use qisim::hal::topology::LinkKind;
    use qisim::scalability::ScaleOutBinding;
    let t = Target::near_term();
    let design = QciDesign::cmos_baseline();
    let single = try_standard(&design, &t).expect("paper design");
    let topology = FridgeTopology::standard().with_fridges(4).with_link(LinkKind::CryoCoax);
    let clustered =
        engine::try_analyze_topology(&design, &t, &topology, Estimator::Packed).expect("cluster");
    let so = clustered.scale_out.as_ref().expect("multi-fridge verdicts carry scale-out");
    assert_eq!(so.fridges, 4);
    assert_eq!(so.link, LinkKind::CryoCoax);
    assert_eq!(clustered.power_limited_qubits, 4 * so.per_fridge_qubits);
    // Interconnect heat derates each fridge below the solo yield, but a
    // 4-fridge cluster still beats one fridge overall.
    assert!(so.per_fridge_qubits <= single.power_limited_qubits);
    assert!(so.per_fridge_qubits > 0, "cryo-coax links must leave budget");
    assert!(clustered.power_limited_qubits > single.power_limited_qubits);
    // The cryo-coax bundle leaks at 4K (and only where Table 2 says).
    assert!(so.interconnect_w[1] > 0.0, "4K interconnect heat");
    assert_eq!(so.interconnect_w[0], 0.0, "superconducting coax is free at 50K");
    // Fridges-to-target is the ceiling division of the target scale.
    let tq = so.target_qubits;
    assert_eq!(tq, qisim::surface::target::Target::near_term().physical_qubits() as u64);
    assert_eq!(so.fridges_to_target, Some(tq.div_ceil(so.per_fridge_qubits).max(1)));
    // The binding constraint names a stage either way...
    let binding = so.binding.expect("a binding constraint");
    // ...and for a CMOS design over light cryo links it is the design's
    // own 4K dissipation, not the interconnect.
    assert_eq!(binding, ScaleOutBinding::StageBudget(Stage::K4));
    assert_eq!(clustered.binding_stage, Some(binding.stage()));
    let text = clustered.explain();
    assert!(text.contains("scale-out: 4 fridges"), "{text}");
    assert!(text.contains("qubits/fridge"), "{text}");
    assert!(text.contains("binding constraint"), "{text}");
    assert!(text.contains("fridges to reach"), "{text}");
}

/// A link bundle that eats a stage whole: zero qubits per fridge, the
/// interconnect link is the named binding constraint, and no fridge
/// count reaches the target.
#[test]
fn interconnect_can_bind_a_starved_stage() {
    use qisim::scalability::ScaleOutBinding;
    let t = Target::near_term();
    // 64 photonic links against a 1 uW mixing-chamber budget: the
    // photodetectors alone (~790 nW each) bury the stage.
    let spec = DesignSpec::new(Preset::CmosBaseline)
        .fridges(4)
        .link(qisim::hal::topology::LinkKind::Photonic)
        .links_per_fridge(64)
        .budget(Stage::Mk20, 1e-6);
    let design = spec.build().expect("valid design");
    let topology = spec.topology().expect("valid topology");
    let verdict =
        engine::try_analyze_topology(&design, &t, &topology, Estimator::Packed).expect("cluster");
    let so = verdict.scale_out.as_ref().expect("scale-out block");
    assert_eq!(so.per_fridge_qubits, 0);
    assert_eq!(verdict.power_limited_qubits, 0);
    assert_eq!(so.fridges_to_target, None);
    assert_eq!(so.binding, Some(ScaleOutBinding::Link(Stage::Mk20)));
    let text = verdict.explain();
    assert!(text.contains("interconnect link heat at the 20mK stage"), "{text}");
    assert!(text.contains("unreachable at any fridge count"), "{text}");
}

/// Cluster identity gate: over every preset and a grid of fridge counts,
/// link kinds, link counts, controller sharing and budget overrides
/// (including a starved mixing chamber the links can bury), the power
/// stage matches [`legacy_cluster_power`] bit for bit.
#[test]
fn cluster_power_stage_is_bit_identical_to_the_sharded_oracle() {
    use qisim::hal::topology::LinkKind;
    let t = Target::near_term();
    let budgets = [
        Fridge::standard(),
        Fridge::standard().with_budget(Stage::Mk20, 1e-6),
        Fridge::standard().with_budget(Stage::K4, 0.3),
    ];
    let mut cases = 0;
    for preset in Preset::ALL {
        let design = preset.design();
        for fridges in [1u32, 2, 3, 8, 16] {
            for link in LinkKind::ALL {
                for links in [1u32, 2, 64] {
                    for shared in [true, false] {
                        for fridge in &budgets {
                            let topology = FridgeTopology::standard()
                                .with_fridge(fridge.clone())
                                .with_fridges(fridges)
                                .with_link(link)
                                .with_links_per_fridge(links)
                                .with_shared_controllers(shared);
                            let (per_fridge, binding, stages) =
                                legacy_cluster_power(&design, &topology);
                            let v = engine::try_analyze_topology(
                                &design,
                                &t,
                                &topology,
                                Estimator::Packed,
                            )
                            .expect("valid cluster");
                            let case = format!("{preset:?} {topology}");
                            assert_eq!(v.stages, stages, "{case}");
                            assert_eq!(
                                v.power_limited_qubits,
                                per_fridge * fridges as u64,
                                "{case}"
                            );
                            assert_eq!(v.binding_stage, binding, "{case}");
                            cases += 1;
                        }
                    }
                }
            }
        }
    }
    assert_eq!(cases, 9 * 5 * 3 * 3 * 2 * 3);
}

/// Sharded aggregation is deterministic: the verdict is bit-identical
/// at every thread count, and bigger clusters scale linearly.
#[test]
fn sharded_power_stage_is_thread_count_independent() {
    let t = Target::near_term();
    let design = QciDesign::rsfq_near_term();
    let topology = FridgeTopology::standard().with_fridges(6);
    let baseline =
        engine::try_analyze_topology(&design, &t, &topology, Estimator::Packed).expect("cluster");
    for threads in [1usize, 2, 4] {
        qisim::par::set_threads(Some(threads));
        let v = engine::try_analyze_topology(&design, &t, &topology, Estimator::Packed)
            .expect("cluster");
        assert_eq!(v, baseline, "{threads} threads");
    }
    qisim::par::set_threads(None);
    // Linear tiling: 12 fridges carry exactly twice the 6-fridge total.
    let doubled = engine::try_analyze_topology(
        &design,
        &t,
        &topology.clone().with_fridges(12),
        Estimator::Packed,
    )
    .expect("cluster");
    assert_eq!(doubled.power_limited_qubits, 2 * baseline.power_limited_qubits);
}

/// Seeded randomized topologies round-trip the codec losslessly and
/// never panic the engine (the engine-level sibling of the codec
/// round-trip property in `qisim`'s `proptests.rs`).
#[test]
fn randomized_topologies_round_trip_and_never_panic() {
    use qisim::hal::topology::LinkKind;
    let mut rng = Xorshift64Star::seed_from_u64(0x70_0b_01_09);
    let t = Target::near_term();
    for i in 0..120 {
        let preset = Preset::ALL[(rng.next_u64() % 9) as usize];
        let mut spec = DesignSpec::new(preset);
        if rng.gen_f64() < 0.9 {
            spec = spec.fridges((rng.next_u64() % 9 + 1) as u32);
        }
        if rng.gen_f64() < 0.7 {
            spec = spec.link(LinkKind::ALL[(rng.next_u64() % 3) as usize]);
        }
        if rng.gen_f64() < 0.7 {
            spec = spec.links_per_fridge((rng.next_u64() % 64 + 1) as u32);
        }
        if rng.gen_f64() < 0.5 {
            spec = spec.shared_controllers(rng.next_u64().is_multiple_of(2));
        }
        if rng.gen_f64() < 0.3 {
            let stage = Stage::ALL[(rng.next_u64() % 5) as usize];
            spec = spec.budget(stage, rng.gen_f64() * 2.0 + 1e-7);
        }
        // Codec round-trip is lossless for every valid topology spec.
        let text = qisim::codec::encode_spec(&spec);
        assert_eq!(qisim::codec::parse_spec(&text).expect("round-trip"), spec, "case {i}");
        // The verdict itself round-trips with its scale-out block.
        match engine::try_analyze_spec(&spec, &t) {
            Ok(v) => {
                assert_eq!(v.scale_out.is_some(), spec.has_scale_out(), "case {i}");
                let doc = qisim::codec::encode_scalability(&v);
                assert_eq!(qisim::codec::parse_scalability(&doc).expect("verdict"), v, "case {i}");
            }
            Err(e) => assert!(!e.to_string().is_empty(), "case {i}"),
        }
    }
}

/// The per-stage watt attribution exposed by the plan equals the
/// verdict's (same memoized probe, not a recomputation).
#[test]
fn plan_power_artifact_backs_the_verdict() {
    let mut plan =
        standard_plan(&QciDesign::rsfq_near_term(), &Target::near_term()).expect("valid");
    let verdict = plan.run().expect("paper design");
    let power = plan.stage_powers().expect("power artifact");
    assert_eq!(power.power_limited_qubits, verdict.power_limited_qubits);
    assert_eq!(power.binding_stage, verdict.binding_stage);
    assert_eq!(power.stages, verdict.stages);
    let total: f64 = verdict.stages.iter().map(StagePower::total_w).sum();
    assert!(total > 0.0);
}

/// Every preset's power landing on the standard fridge, and one
/// multi-fridge spec whose photonic links shift the binding stage, pinned
/// exactly; a warm (memoized) analysis equals the cold one.
#[test]
fn power_landings_are_pinned_cold_and_warm() {
    use qisim::hal::topology::LinkKind;
    use Preset::*;
    let mut cases: Vec<(DesignSpec, u64, Stage)> = [
        (RoomCoax, 386, Stage::Mk100),
        (RoomMicrostrip, 735, Stage::Mk100),
        (RoomPhotonic, 67, Stage::Mk20),
        (CmosBaseline, 704, Stage::K4),
        (CmosNearTerm, 1472, Stage::K4),
        (CmosLongTerm, 78_880, Stage::K4),
        (RsfqBaseline, 186, Stage::Mk20),
        (RsfqNearTerm, 1204, Stage::K4),
        (ErsfqLongTerm, 73_046, Stage::K4),
    ]
    .into_iter()
    .map(|(preset, n, stage)| (DesignSpec::new(preset), n, stage))
    .collect();
    let cluster =
        DesignSpec::new(RsfqNearTerm).fridges(4).link(LinkKind::Photonic).links_per_fridge(16);
    cases.push((cluster, 4 * 824, Stage::Mk20));
    let t = Target::near_term();
    for (spec, n, stage) in cases {
        let name = spec.display_name();
        qisim::power::clear_cache();
        let cold = engine::try_analyze_spec(&spec, &t).expect("valid spec");
        assert_eq!((cold.power_limited_qubits, cold.binding_stage), (n, Some(stage)), "{name}");
        let warm = engine::try_analyze_spec(&spec, &t).expect("valid spec");
        assert_eq!(warm, cold, "{name}");
    }
}
