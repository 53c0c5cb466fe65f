//! The eight architectural optimizations (§6.3–6.4) as typed design
//! transforms.
//!
//! | Opt | Applies to | Lever |
//! |-----|-----------|-------|
//! | 1 | 4K CMOS | memoryless RX decision unit (−88.4 % RX power) |
//! | 2 | 4K CMOS | 6-bit drive precision (−30.9 % drive power) |
//! | 3 | RSFQ | shared + pipelined JPM readout (−8× mK power) |
//! | 4 | SFQ | splitter-shared bitstream generator (−98.2 % bitgen) |
//! | 5 | SFQ | #BS 8 → 1 (−43.8 % 4K power) |
//! | 6 | 4K CMOS | FTQC-masked ISA (−93 % instruction bandwidth) |
//! | 7 | 4K CMOS | FDM 32 → 20 + fast multi-round readout |
//! | 8 | ERSFQ | 48 GHz fast resonator driving + unsharing |

use crate::config::QciDesign;
use qisim_microarch::cryo_cmos::{CryoCmosConfig, MULTI_ROUND_READOUT_NS};
use qisim_microarch::sfq::{BitgenKind, JpmSharing, SfqConfig};
use qisim_microarch::DecisionKind;
use std::fmt;

/// One of the paper's eight optimizations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opt {
    /// Opt-1: decision unit without bin-counter memory.
    MemorylessDecision,
    /// Opt-2: 6-bit drive precision.
    LowPrecisionDrive,
    /// Opt-3: shared and pipelined JPM readout.
    SharedPipelinedReadout,
    /// Opt-4: low-power bitstream generator.
    LowPowerBitgen,
    /// Opt-5: low-power controllers (#BS = 1).
    SingleBroadcast,
    /// Opt-6: FTQC-friendly instruction masking.
    MaskedIsa,
    /// Opt-7: FDM 20 + fast multi-round readout.
    FastMultiRoundReadout,
    /// Opt-8: fast resonator driving + unsharing.
    FastDrivingUnshared,
}

impl Opt {
    /// All eight, in paper order.
    pub const ALL: [Opt; 8] = [
        Opt::MemorylessDecision,
        Opt::LowPrecisionDrive,
        Opt::SharedPipelinedReadout,
        Opt::LowPowerBitgen,
        Opt::SingleBroadcast,
        Opt::MaskedIsa,
        Opt::FastMultiRoundReadout,
        Opt::FastDrivingUnshared,
    ];

    /// Paper numbering (1-based).
    pub fn number(self) -> u8 {
        match self {
            Opt::MemorylessDecision => 1,
            Opt::LowPrecisionDrive => 2,
            Opt::SharedPipelinedReadout => 3,
            Opt::LowPowerBitgen => 4,
            Opt::SingleBroadcast => 5,
            Opt::MaskedIsa => 6,
            Opt::FastMultiRoundReadout => 7,
            Opt::FastDrivingUnshared => 8,
        }
    }
}

impl fmt::Display for Opt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Opt-#{}", self.number())
    }
}

/// Error returned when an optimization does not apply to a design's
/// technology (e.g. a JPM-readout optimization on a CMOS QCI).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApplyOptError {
    /// The rejected optimization.
    pub opt: Opt,
    /// The design it was applied to.
    pub design: String,
}

impl fmt::Display for ApplyOptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} does not apply to `{}`", self.opt, self.design)
    }
}

impl std::error::Error for ApplyOptError {}

/// Applies one optimization to a design.
///
/// # Errors
///
/// Returns [`ApplyOptError`] when the optimization targets a different
/// technology (300 K designs accept none — §6.2.1: "little room for
/// architectural innovations").
pub fn apply(design: &QciDesign, opt: Opt) -> Result<QciDesign, ApplyOptError> {
    let reject = || ApplyOptError { opt, design: design.name() };
    match (design, opt) {
        (QciDesign::CryoCmos(cfg), Opt::MemorylessDecision) => {
            Ok(QciDesign::CryoCmos(CryoCmosConfig { decision: DecisionKind::Memoryless, ..*cfg }))
        }
        (QciDesign::CryoCmos(cfg), Opt::LowPrecisionDrive) => {
            Ok(QciDesign::CryoCmos(CryoCmosConfig { drive_bits: 6, ..*cfg }))
        }
        (QciDesign::CryoCmos(cfg), Opt::MaskedIsa) => {
            Ok(QciDesign::CryoCmos(CryoCmosConfig { masked_isa: true, ..*cfg }))
        }
        (QciDesign::CryoCmos(cfg), Opt::FastMultiRoundReadout) => {
            Ok(QciDesign::CryoCmos(CryoCmosConfig {
                drive_fdm: 20,
                readout_ns: MULTI_ROUND_READOUT_NS,
                ..*cfg
            }))
        }
        (QciDesign::Sfq(cfg), Opt::SharedPipelinedReadout) => {
            Ok(QciDesign::Sfq(SfqConfig { sharing: JpmSharing::SharedPipelined, ..*cfg }))
        }
        (QciDesign::Sfq(cfg), Opt::LowPowerBitgen) => {
            Ok(QciDesign::Sfq(SfqConfig { bitgen: BitgenKind::SplitterShared, ..*cfg }))
        }
        (QciDesign::Sfq(cfg), Opt::SingleBroadcast) => {
            Ok(QciDesign::Sfq(SfqConfig { bs: 1, ..*cfg }))
        }
        (QciDesign::Sfq(cfg), Opt::FastDrivingUnshared) => Ok(QciDesign::Sfq(SfqConfig {
            fast_driving: true,
            sharing: JpmSharing::Unshared,
            ..*cfg
        })),
        _ => Err(reject()),
    }
}

/// Applies a sequence of optimizations, failing on the first mismatch.
///
/// # Errors
///
/// Propagates the first [`ApplyOptError`].
pub fn apply_all(design: &QciDesign, opts: &[Opt]) -> Result<QciDesign, ApplyOptError> {
    let mut d = *design;
    for &o in opts {
        d = apply(&d, o)?;
    }
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qisim_hal::fridge::{Fridge, Stage};
    use qisim_hal::wire::InstructionLink;
    use qisim_power::max_qubits;

    #[test]
    fn opt_numbers_are_one_through_eight() {
        let nums: Vec<u8> = Opt::ALL.iter().map(|o| o.number()).collect();
        assert_eq!(nums, vec![1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(Opt::MaskedIsa.to_string(), "Opt-#6");
    }

    #[test]
    fn cmos_opts_raise_the_power_limit() {
        let base = QciDesign::cmos_baseline();
        let opt = apply_all(&base, &[Opt::MemorylessDecision, Opt::LowPrecisionDrive]).unwrap();
        let f = Fridge::standard();
        let before = max_qubits(&base.arch(), &f).0;
        let after = max_qubits(&opt.arch(), &f).0;
        assert!(after as f64 > 1.7 * before as f64, "before {before} after {after}");
    }

    #[test]
    fn sfq_opts_raise_the_power_limit() {
        let base = QciDesign::rsfq_baseline();
        let opt = apply_all(
            &base,
            &[Opt::SharedPipelinedReadout, Opt::LowPowerBitgen, Opt::SingleBroadcast],
        )
        .unwrap();
        assert_eq!(opt, QciDesign::rsfq_near_term());
        let f = Fridge::standard();
        let before = max_qubits(&base.arch(), &f).0;
        let after = max_qubits(&opt.arch(), &f).0;
        assert!(after as f64 > 5.0 * before as f64, "before {before} after {after}");
    }

    #[test]
    fn opt7_shortens_the_cycle() {
        let base = QciDesign::cmos_baseline();
        let opt = apply(&base, Opt::FastMultiRoundReadout).unwrap();
        assert!(opt.esm_cycle_ns() < base.esm_cycle_ns() - 300.0);
    }

    #[test]
    fn opt8_shortens_the_sfq_cycle() {
        let base = QciDesign::rsfq_near_term();
        let opt = apply(&base, Opt::FastDrivingUnshared).unwrap();
        assert!(opt.esm_cycle_ns() < base.esm_cycle_ns());
    }

    #[test]
    fn mismatched_opts_are_rejected() {
        assert!(apply(&QciDesign::cmos_baseline(), Opt::LowPowerBitgen).is_err());
        assert!(apply(&QciDesign::rsfq_baseline(), Opt::MemorylessDecision).is_err());
        let err = apply(&QciDesign::room_coax(), Opt::MaskedIsa).unwrap_err();
        assert!(err.to_string().contains("does not apply"));
    }

    #[test]
    fn masked_isa_cuts_link_power() {
        let base = QciDesign::cmos_long_term();
        let unmasked = QciDesign::CryoCmos(qisim_microarch::cryo_cmos::CryoCmosConfig {
            masked_isa: false,
            ..qisim_microarch::cryo_cmos::CryoCmosConfig::long_term()
        });
        let n = 62_208;
        let f = Fridge::standard();
        let link = InstructionLink::standard();
        let with = qisim_power::try_evaluate_with_link(&base.arch(), &f, n, &link).unwrap();
        let without = qisim_power::try_evaluate_with_link(&unmasked.arch(), &f, n, &link).unwrap();
        let w_link = with.stage(Stage::K4).unwrap().instr_link_w;
        let wo_link = without.stage(Stage::K4).unwrap().instr_link_w;
        assert!(w_link < 0.2 * wo_link, "masked {w_link} vs unmasked {wo_link}");
    }
}
