//! Cross-crate pipeline integration: QASM → cycle-accurate timing →
//! workload fidelity, and microarchitecture → power report — the full
//! Fig. 6 flow exercised end to end.

use qisim::cyclesim::{qasm, simulate, workloads, TimingModel};
use qisim::errormodel::workload::{seeded_rng, ErrorRates, WorkloadSim};
use qisim::hal::fridge::{Fridge, Stage};
use qisim::hal::wire::InstructionLink;
use qisim::microarch::sfq::ReadoutSchedule;
use qisim::power::try_evaluate_with_link;
use qisim::QciDesign;

#[test]
fn qasm_to_fidelity_pipeline() {
    let source = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[4];\ncreg c[4];\n\
                  h q[0];\ncx q[0],q[1];\ncx q[1],q[2];\ncx q[2],q[3];\n\
                  rz(pi/4) q[3];\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[1];\n\
                  measure q[2] -> c[2];\nmeasure q[3] -> c[3];";
    let circuit = qasm::parse(source).expect("valid qasm");
    let timeline = simulate(&circuit, &TimingModel::cmos_baseline());
    assert!(timeline.makespan_ns() > 517.0);

    let sim = WorkloadSim { rates: ErrorRates::cmos_table2(), trajectories: 150 };
    let f = sim.fidelity(&circuit, &timeline, &mut seeded_rng(5));
    assert!(f > 0.9 && f <= 1.0, "pipeline fidelity {f}");
}

#[test]
fn esm_timing_feeds_the_power_model_consistently() {
    // The microarch duty profile and the cycle-accurate simulation must
    // tell the same story about the ESM round.
    let design = QciDesign::cmos_baseline();
    let profile_cycle = design.esm_cycle_ns();
    let patch = workloads::Patch::new(23);
    let timeline = simulate(&patch.esm_circuit(1), &TimingModel::cmos_baseline());
    // The simulated round is shorter (boundary ancillas thin out the FDM
    // groups) but within 2x of the profile's nominal peak.
    assert!(
        timeline.makespan_ns() <= profile_cycle * 1.05,
        "sim {} vs profile {}",
        timeline.makespan_ns(),
        profile_cycle
    );
    assert!(timeline.makespan_ns() >= profile_cycle * 0.5);

    // Activity factors land in the same regime the inventory assumes.
    let act = timeline.activity();
    let esm = design.esm_profile();
    assert!((act.readout_duty - esm.readout_bank_duty()).abs() < 0.25);
    assert!(act.cz_duty < 2.0 * esm.cz_duty());
}

#[test]
fn sfq_readout_schedules_propagate_to_cycle_times() {
    let patch = workloads::Patch::new(5);
    let circuit = patch.esm_circuit(1);
    let base = simulate(&circuit, &TimingModel::sfq(1, ReadoutSchedule::baseline()));
    let opt3 = simulate(&circuit, &TimingModel::sfq(1, ReadoutSchedule::opt3()));
    let opt8 = simulate(&circuit, &TimingModel::sfq(1, ReadoutSchedule::opt8()));
    assert!(opt8.makespan_ns() < base.makespan_ns());
    assert!(base.makespan_ns() < opt3.makespan_ns());
}

#[test]
fn power_reports_are_complete_for_every_design() {
    let fridge = Fridge::standard();
    let link = InstructionLink::standard();
    for design in [
        QciDesign::room_coax(),
        QciDesign::room_photonic(),
        QciDesign::cmos_baseline(),
        QciDesign::rsfq_baseline(),
        QciDesign::ersfq_long_term(),
    ] {
        let report = try_evaluate_with_link(&design.arch(), &fridge, 256, &link).unwrap();
        assert_eq!(report.stages.len(), 5, "{}", design.name());
        let total: f64 = report.stages.iter().map(|s| s.total_w()).sum();
        assert!(total > 0.0, "{} reports zero power", design.name());
        // The mK stages never see instruction-link heat.
        assert_eq!(report.stage(Stage::Mk20).unwrap().instr_link_w, 0.0);
    }
}
