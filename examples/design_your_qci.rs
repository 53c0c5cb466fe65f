//! Design-space exploration: build a custom QCI, apply optimizations one
//! at a time, and watch the scalability verdict move — the workflow the
//! paper's §6 walks through. The second half shows the fallible engine:
//! validated [`qisim::spec::DesignSpec`]s, the staged
//! [`qisim::engine::AnalysisPlan`], typed diagnostics, and the lossless
//! text codec.
//!
//! Run with `cargo run --example design_your_qci`.

use qisim::engine::{self, AnalysisPlan};
use qisim::hal::fridge::Stage;
use qisim::spec::{DesignSpec, Preset};
use qisim::{analyze, apply, codec, Opt, QciDesign};
use qisim_surface::target::Target;

fn report(step: &str, design: &QciDesign, target: &Target) {
    let s = analyze(design, target);
    println!(
        "{step:<38} -> {:>8} qubits (binds {:?}), p_L {:.2e}, target met: {}",
        s.power_limited_qubits,
        s.binding_stage,
        s.logical_error,
        s.reaches(target)
    );
}

fn main() {
    let near = Target::near_term();
    println!("== Near-term 4K CMOS chain (Fig. 13a) ==");
    let mut d = QciDesign::cmos_baseline();
    report("baseline (bin-counting, 14-bit)", &d, &near);
    d = apply(&d, Opt::MemorylessDecision).expect("opt-1 applies to CMOS");
    report("+ Opt-1 memoryless decision", &d, &near);
    d = apply(&d, Opt::LowPrecisionDrive).expect("opt-2 applies to CMOS");
    report("+ Opt-2 6-bit drive", &d, &near);

    println!("\n== Near-term RSFQ chain (Fig. 13b) ==");
    let mut s = QciDesign::rsfq_baseline();
    report("baseline (unshared, 256-SR bitgen)", &s, &near);
    s = apply(&s, Opt::SharedPipelinedReadout).expect("opt-3 applies to SFQ");
    report("+ Opt-3 shared+pipelined readout", &s, &near);
    s = apply(&s, Opt::LowPowerBitgen).expect("opt-4 applies to SFQ");
    report("+ Opt-4 low-power bitgen", &s, &near);
    s = apply(&s, Opt::SingleBroadcast).expect("opt-5 applies to SFQ");
    report("+ Opt-5 #BS=1", &s, &near);

    println!("\n== Long-term chains (Fig. 17) ==");
    let long = Target::long_term();
    report("advanced CMOS + Opt-6,7", &QciDesign::cmos_long_term(), &long);
    report("ERSFQ + Opt-8", &QciDesign::ersfq_long_term(), &long);

    println!("\nMis-applied optimizations are rejected:");
    let err = apply(&QciDesign::cmos_baseline(), Opt::LowPowerBitgen).unwrap_err();
    println!("  {err}");

    println!("\n== The fallible engine: specs, plans, and the codec ==");
    // A validated spec: the Fig. 13a optimized design on a doubled 4 K
    // budget, built without any panic risk.
    let spec = DesignSpec::new(Preset::CmosBaseline)
        .name("opt12 on a big fridge")
        .apply(Opt::MemorylessDecision)
        .apply(Opt::LowPrecisionDrive)
        .budget(Stage::K4, 3.0);
    let text = codec::encode_spec(&spec);
    println!("spec file ({} bytes, round-trips losslessly):\n{text}", text.len());
    assert_eq!(codec::parse_spec(&text).expect("own encoding"), spec);

    // Stage-by-stage execution: stop after Power for a watts-only
    // question, then finish for the verdict.
    let design = spec.build().expect("validated spec");
    let topology = spec.topology().expect("validated budgets");
    let mut plan = AnalysisPlan::with_topology(&design, &near, &topology, spec.chosen_estimator())
        .expect("validated inputs");
    while plan.stage_powers().is_none() {
        plan.run_next().expect("paper design");
    }
    let power = plan.stage_powers().expect("power stage ran");
    println!(
        "after the Power stage: {} qubits, binds {:?}",
        power.power_limited_qubits, power.binding_stage
    );
    let verdict = plan.run().expect("paper design");
    println!(
        "verdict: {} qubits, target met: {}",
        verdict.power_limited_qubits,
        verdict.reaches(&near)
    );

    // Invalid knobs are typed diagnostics, not panics.
    for bad in [
        DesignSpec::new(Preset::CmosBaseline).drive_fdm(0),
        DesignSpec::new(Preset::CmosBaseline).drive_bits(40),
        DesignSpec::new(Preset::RsfqBaseline).drive_bits(6),
        DesignSpec::new(Preset::CmosBaseline).budget(Stage::K4, -1.0),
    ] {
        let err = engine::try_analyze_spec(&bad, &near).unwrap_err();
        println!("  rejected: {err}");
    }

    // Verdicts round-trip through the same codec for replay/diffing.
    let report = codec::encode_scalability(&verdict);
    assert_eq!(codec::parse_scalability(&report).expect("own encoding"), verdict);
    println!("verdict report round-trips through {} bytes of text", report.len());
}
