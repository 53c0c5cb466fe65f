//! Long-term scalability experiments (§6.4): Figs. 17–20.

use super::{Experiment, Row};
use crate::config::QciDesign;
use crate::paperdata::{logical, power_cuts, readout, scalability};
use crate::scalability::analyze;
use qisim_error::readout_cmos::{CmosReadoutModel, MultiRound};
use qisim_error::readout_sfq::SfqReadoutModel;
use qisim_error::workload::seeded_rng;
use qisim_hal::fridge::{Fridge, Stage};
use qisim_hal::wire::InstructionLink;
use qisim_microarch::cryo_cmos::{CryoCmosConfig, READOUT_NS};
use qisim_microarch::sfq::{ReadoutSchedule, SfqConfig};
use qisim_microarch::DecisionKind;
use qisim_power::{max_qubits, try_evaluate_with_link};
use qisim_surface::target::{Target, CODE_DISTANCE};

/// Fig. 17 — long-term scalability: advanced 4 K CMOS (63,883 qubits)
/// and ERSFQ (82,413 qubits), step by step.
pub fn fig17() -> Experiment {
    let t = Target::long_term();
    // CMOS chain: 14 nm optimized → advanced tech/voltage → Opt-6 → Opt-7.
    let near = CryoCmosConfig {
        decision: DecisionKind::Memoryless,
        drive_bits: 6,
        wire: qisim_hal::wire::WireKind::SuperconductingMicrostrip,
        ..CryoCmosConfig::baseline()
    };
    let advanced = CryoCmosConfig {
        tech: qisim_hal::cmos::CmosTech::advanced_4k(),
        analog_scale: 1.0 / (4.15 * 16.0),
        ..near
    };
    let masked = CryoCmosConfig { masked_isa: true, ..advanced };
    let full = CryoCmosConfig::long_term();
    let fridge = Fridge::standard();
    let pl = |cfg: CryoCmosConfig| max_qubits(&cfg.build(), &fridge).0;

    let cmos_final = analyze(&QciDesign::CryoCmos(full), &t);
    let cmos_pre_opt7 = analyze(&QciDesign::CryoCmos(masked), &t);

    // ERSFQ chain.
    let ersfq_shared = SfqConfig {
        family: qisim_hal::sfq::SfqFamily::Ersfq,
        wire: qisim_hal::wire::WireKind::SuperconductingMicrostrip,
        ..SfqConfig::near_term_optimized()
    };
    let ersfq_full = SfqConfig::long_term_ersfq();
    let sfq_shared = analyze(&QciDesign::Sfq(ersfq_shared), &t);
    let sfq_final = analyze(&QciDesign::Sfq(ersfq_full), &t);

    Experiment {
        id: "Fig. 17",
        title: "long-term scalability: advanced 4K CMOS and ERSFQ",
        rows: vec![
            Row::new(
                "advanced CMOS + Opt-6,7: max qubits",
                scalability::CMOS_LONG_TERM as f64,
                cmos_final.power_limited_qubits as f64,
                "qubits",
            ),
            Row::new(
                "ERSFQ + Opt-8: max qubits",
                scalability::ERSFQ_LONG_TERM as f64,
                sfq_final.power_limited_qubits as f64,
                "qubits",
            ),
            Row::new(
                "pre-Opt-7 logical error / target (must be > 1)",
                43.0,
                cmos_pre_opt7.logical_error / t.logical_error_target(),
                "x",
            ),
            Row::new(
                "Opt-8 logical-error improvement",
                logical::OPT8_IMPROVEMENT,
                sfq_shared.logical_error / sfq_final.logical_error,
                "x",
            ),
        ],
        notes: vec![
            format!("14nm optimized (no advanced scaling) power limit: {} qubits", pl(near)),
            format!("advanced (7nm + V-scaled) before Opt-6: {} qubits", pl(advanced)),
            format!("+ Opt-6 masked ISA: {} qubits", pl(masked)),
            format!("CMOS final meets 1.69e-17 target: {}", cmos_final.reaches(&t)),
            format!("ERSFQ final meets target: {}", sfq_final.reaches(&t)),
        ],
    }
}

/// Fig. 18 — Opt-6: advanced-CMOS 4 K power breakdown (wire-dominated)
/// and the instruction-masking bandwidth cut.
pub fn fig18() -> Experiment {
    let unmasked = CryoCmosConfig { masked_isa: false, ..CryoCmosConfig::long_term() };
    let masked = CryoCmosConfig::long_term();
    let n = scalability::LONG_TERM_QUBITS;
    let fridge = Fridge::standard();
    let k4 = try_evaluate_with_link(&unmasked.build(), &fridge, n, &InstructionLink::standard())
        .ok()
        .and_then(|report| report.stage(Stage::K4).copied())
        .expect("4K row");
    let wire_share = k4.instr_link_w / k4.total_w();
    let bw_cut = 1.0
        - masked.build().instr_bandwidth_bps_per_qubit
            / unmasked.build().instr_bandwidth_bps_per_qubit;
    Experiment {
        id: "Fig. 18",
        title: "Opt-6: FTQC-friendly instruction masking",
        rows: vec![
            Row::new(
                "wire share of advanced-CMOS 4K power",
                power_cuts::FIG18_WIRE_SHARE,
                wire_share,
                "",
            ),
            Row::new("instruction-bandwidth cut", power_cuts::OPT6_BANDWIDTH, bw_cut, ""),
        ],
        notes: vec![format!(
            "at {} qubits: link {:.3} W of {:.3} W total 4K",
            n,
            k4.instr_link_w,
            k4.total_w()
        )],
    }
}

/// Fig. 19 — Opt-7: error and latency of the decision methods, including
/// the fast multi-round readout.
pub fn fig19() -> Experiment {
    let model = CmosReadoutModel::baseline();
    let mr = MultiRound::standard();
    let mut rng = seeded_rng(23);
    let shots = 8000;
    let bin = model.error_rate(DecisionKind::BinCounting, shots, &mut rng);
    let single = model.error_rate(DecisionKind::SinglePoint, shots, &mut rng);
    let memless = model.error_rate(DecisionKind::Memoryless, shots, &mut rng);
    let (mr_err, mr_lat) = mr.error_and_latency(&model, shots, &mut rng);
    // Fraction decided within 267 ns.
    let mut within = 0usize;
    for s in 0..shots {
        let (_, lat) = mr.shot(&model, s % 2 == 1, &mut rng);
        if lat <= 267.0 {
            within += 1;
        }
    }
    Experiment {
        id: "Fig. 19",
        title: "Opt-7: multi-round readout vs. single-shot decision methods",
        rows: vec![
            Row::new("bin-counting error", 1.0e-3, bin, ""),
            Row::new("single-point error", 1.2e-3, single, ""),
            Row::new("memoryless (Opt-1) error", 1.0e-3, memless, ""),
            Row::new("multi-round error", 1.0e-3, mr_err, ""),
            Row::new(
                "multi-round speedup",
                readout::MULTIROUND_SPEEDUP,
                1.0 - mr_lat / READOUT_NS,
                "",
            ),
            Row::new(
                "fraction decided within 267 ns",
                readout::SHORT_ACCURACY,
                within as f64 / shots as f64,
                "",
            ),
        ],
        notes: vec![format!("mean multi-round latency: {mr_lat:.1} ns (baseline 517 ns)")],
    }
}

/// Fig. 20 — Opt-8: fast resonator driving and unsharing.
pub fn fig20() -> Experiment {
    let base = SfqReadoutModel::baseline();
    let fast = SfqReadoutModel::fast_driving();
    let sched_piped = ReadoutSchedule::opt3();
    let sched_fast = ReadoutSchedule::opt8();
    let breakdown = base.latency_breakdown(&sched_piped);
    let total: f64 = breakdown.iter().sum();
    // Logical errors before/after on ERSFQ.
    let before = analyze(
        &QciDesign::Sfq(SfqConfig {
            family: qisim_hal::sfq::SfqFamily::Ersfq,
            wire: qisim_hal::wire::WireKind::SuperconductingMicrostrip,
            ..SfqConfig::near_term_optimized()
        }),
        &Target::long_term(),
    );
    let after = analyze(&QciDesign::ersfq_long_term(), &Target::long_term());
    let _ = CODE_DISTANCE;
    Experiment {
        id: "Fig. 20",
        title: "Opt-8: fast resonator driving and unshared JPM readout",
        rows: vec![
            Row::new(
                "fast resonator-driving time",
                readout::FAST_DRIVING_NS,
                fast.driving_ns(),
                "ns",
            ),
            Row::new(
                "driving share of shared readout",
                readout::DRIVING_SHARE,
                breakdown[0] / total,
                "",
            ),
            Row::new(
                "pipeline-serialization share",
                readout::PIPELINE_SHARE,
                breakdown[2] / total,
                "",
            ),
            Row::new(
                "unshared fast readout latency",
                230.9 + 12.8 + 4.0 + 70.0,
                fast.latency_ns(&sched_fast),
                "ns",
            ),
            Row::new(
                "logical-error improvement",
                logical::OPT8_IMPROVEMENT,
                before.logical_error / after.logical_error,
                "x",
            ),
        ],
        notes: vec![
            "our energy-limited driving model gives 289.1 ns (2x clock) vs. the paper's 230.9 ns"
                .into(),
            format!(
                "same-error check: baseline {:?} vs fast {:?}",
                base.errors().total(),
                fast.errors().total()
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig17_reaches_long_term_scales() {
        let e = fig17();
        assert!((0.6..1.7).contains(&e.rows[0].ratio()), "CMOS long-term: {e}");
        assert!((0.5..2.0).contains(&e.rows[1].ratio()), "ERSFQ long-term: {e}");
        // Pre-Opt-7 design must miss the target.
        assert!(e.rows[2].measured > 1.0, "pre-Opt-7 must be error-limited: {e}");
    }

    #[test]
    fn fig18_wire_dominates_before_masking() {
        let e = fig18();
        assert!(e.rows[0].measured > 0.45, "wire share {}", e.rows[0].measured);
        assert!(e.rows[1].measured > 0.80, "bandwidth cut {}", e.rows[1].measured);
    }

    #[test]
    fn fig20_fast_driving_and_gain() {
        let e = fig20();
        // Driving time within 30 % of the paper.
        assert!((e.rows[0].ratio() - 1.0).abs() < 0.30, "{e}");
        // Opt-8 gains orders of magnitude.
        assert!(e.rows[4].measured > 1e3, "Opt-8 gain {}", e.rows[4].measured);
    }
}
