//! The full 4 K SFQ QCI (§3.4): DigiQ-style drive with the paper's
//! re-designed control-data buffer and bitstream generator, the new SFQDC
//! AWG pulse circuit, and the new full-SFQ JPM readout chain.

pub mod drive;
pub mod pulse;
pub mod readout;

use crate::cryo_cmos::{EsmProfile, ONE_Q_NS, TWO_Q_NS};
use crate::inventory::{Component, QciArch, Resource, WirePlan};
use crate::isa::{EsmTraffic, IsaFormat};
use qisim_hal::sfq::{SfqCell, SfqFamily, SfqStage, SfqTech, SFQ_CLOCK_HZ};
use qisim_hal::wire::WireKind;

pub use drive::BitgenKind;
pub use readout::{JpmSharing, ReadoutSchedule};

/// Qubits sharing one bitstream generator / controller group.
pub const DRIVE_GROUP: u32 = 8;

/// Configuration of a 4 K SFQ QCI design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SfqConfig {
    /// Logic family (RSFQ near-term, ERSFQ long-term).
    pub family: SfqFamily,
    /// Bitstream-generator flavour (Opt-4 switches to `SplitterShared`).
    pub bitgen: BitgenKind,
    /// Broadcast parallelism #BS (Opt-5 reduces 8 → 1).
    pub bs: u32,
    /// JPM readout organization (Opt-3 / Opt-8).
    pub sharing: JpmSharing,
    /// Opt-8 fast resonator driving (48 GHz burst).
    pub fast_driving: bool,
    /// 4K–mK interconnect.
    pub wire: WireKind,
}

impl SfqConfig {
    /// The paper's RSFQ baseline (Fig. 13b leftmost bars).
    pub fn baseline_rsfq() -> Self {
        SfqConfig {
            family: SfqFamily::Rsfq,
            bitgen: BitgenKind::PerPhiShiftRegisters,
            bs: 8,
            sharing: JpmSharing::Unshared,
            fast_driving: false,
            wire: WireKind::SuperconductingCoax,
        }
    }

    /// RSFQ with Opt-3/4/5 applied (the 1,248-qubit design).
    pub fn near_term_optimized() -> Self {
        SfqConfig {
            bitgen: BitgenKind::SplitterShared,
            bs: 1,
            sharing: JpmSharing::SharedPipelined,
            ..SfqConfig::baseline_rsfq()
        }
    }

    /// ERSFQ with Opt-8 (the 82,413-qubit long-term design).
    pub fn long_term_ersfq() -> Self {
        SfqConfig {
            family: SfqFamily::Ersfq,
            bitgen: BitgenKind::SplitterShared,
            bs: 1,
            sharing: JpmSharing::Unshared,
            fast_driving: true,
            wire: WireKind::SuperconductingMicrostrip,
        }
    }

    /// The readout schedule implied by this configuration.
    pub fn readout_schedule(&self) -> ReadoutSchedule {
        ReadoutSchedule {
            driving_ns: if self.fast_driving {
                readout::FAST_DRIVING_NS
            } else {
                readout::DRIVING_NS
            },
            sharing: self.sharing,
        }
    }

    /// ESM timing profile.
    ///
    /// All ancillas receive the *same* basis gate each layer, so SFQ
    /// broadcasting never serializes single-qubit layers regardless of #BS
    /// (this is exactly the Opt-5 observation).
    pub fn esm_profile(&self) -> EsmProfile {
        EsmProfile {
            h_layer_ns: ONE_Q_NS,
            cz_phase_ns: 4.0 * TWO_Q_NS,
            readout_ns: self.readout_schedule().group_latency_ns(),
        }
    }

    /// Assembles the full component/wire inventory.
    pub fn build(&self) -> QciArch {
        qisim_obs::counter!("microarch.builds");
        let tech_4k = SfqTech::new(self.family, SfqStage::Cryo4K);
        let tech_mk = SfqTech::new(self.family, SfqStage::MilliKelvin);
        let esm = self.esm_profile();
        let cycle = esm.cycle_ns();
        let gate_duty = 2.0 * esm.h_layer_ns / cycle;
        let cz_duty = 0.5 * esm.cz_phase_ns / cycle;
        let readout_duty = esm.readout_ns / cycle;

        let mut components = Vec::new();
        components.extend(drive::components(tech_4k, self.bitgen, self.bs, DRIVE_GROUP, gate_duty));
        components.extend(pulse::components(tech_4k, cz_duty));
        components.extend(readout::four_k_components(tech_4k, readout_duty));
        components.extend(readout::mk_components(tech_mk, self.sharing));
        // Clock distribution and inter-block JTL interconnect — the silent
        // majority of any SFQ chip's junction count.
        components.push(Component {
            name: "SFQ clock/interconnect JTL".into(),
            stage: qisim_hal::fridge::Stage::K4,
            resource: Resource::SfqCells {
                tech: tech_4k,
                cells: vec![(SfqCell::Jtl, 2000), (SfqCell::Splitter, 100)],
                activity: 0.5,
            },
            qubits_per_instance: 1.0,
            duty: 1.0,
        });

        // SFQ lines carry attojoule flux quanta, not attenuated
        // microwaves: their signal dissipation is already counted as the
        // devices' switching energy, so the cables contribute passive heat
        // only (duty 0 disables the microwave-attenuator active load).
        let readout_share = match self.sharing {
            JpmSharing::Unshared => 1.0,
            _ => readout::SHARING_DEGREE as f64,
        };
        let wires = vec![
            WirePlan {
                name: "drive pulse lines",
                kind: self.wire,
                qubits_per_cable: 1.0,
                duty: 0.0,
            },
            WirePlan {
                name: "flux/pulse lines",
                kind: self.wire,
                qubits_per_cable: 1.0,
                duty: 0.0,
            },
            WirePlan {
                name: "readout send lines",
                kind: self.wire,
                qubits_per_cable: readout_share,
                duty: 0.0,
            },
            WirePlan {
                name: "readout return lines",
                kind: self.wire,
                qubits_per_cable: readout_share,
                duty: 0.0,
            },
        ];
        let _ = readout_duty;

        let traffic = EsmTraffic::standard_esm();
        let bw = traffic.bandwidth_bps_per_qubit(
            &IsaFormat::sfq_drive(self.bs),
            &IsaFormat::pulse_masked(),
            &IsaFormat::readout(),
            DRIVE_GROUP,
            cycle,
        );

        QciArch {
            name: format!(
                "4K SFQ ({:?}, {:?}, #BS={}, {:?}{})",
                self.family,
                self.bitgen,
                self.bs,
                self.sharing,
                if self.fast_driving { ", fast driving" } else { "" }
            ),
            clock_hz: SFQ_CLOCK_HZ,
            components,
            wires,
            instr_bandwidth_bps_per_qubit: bw,
        }
    }
}

impl Default for SfqConfig {
    fn default() -> Self {
        SfqConfig::baseline_rsfq()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qisim_hal::fridge::Stage;

    fn power_per_qubit(arch: &QciArch, stage: Stage, n: u64) -> f64 {
        (arch.device_static_w(stage, n)
            + arch.device_dynamic_w(stage, n)
            + arch.wire_load_w(stage, n))
            / n as f64
    }

    #[test]
    fn baseline_rsfq_is_mk_limited_near_160() {
        let arch = SfqConfig::baseline_rsfq().build();
        let per_mk = power_per_qubit(&arch, Stage::Mk20, 1024);
        let max_mk = Stage::Mk20.cooling_capacity_w() / per_mk;
        assert!(max_mk > 110.0 && max_mk < 220.0, "mK-limited scale {max_mk}");
    }

    #[test]
    fn baseline_rsfq_4k_power_is_milliwatts_per_qubit() {
        let arch = SfqConfig::baseline_rsfq().build();
        let per_4k = power_per_qubit(&arch, Stage::K4, 1024);
        // Calibration: ~2.8 mW/qubit → 4K-limited scale ~540.
        assert!(per_4k > 2.0e-3 && per_4k < 3.6e-3, "4K per-qubit {per_4k}");
    }

    #[test]
    fn drive_is_roughly_70pct_of_rsfq_4k_power() {
        let arch = SfqConfig::baseline_rsfq().build();
        let n = 1024;
        let total = arch.device_static_w(Stage::K4, n) + arch.device_dynamic_w(Stage::K4, n);
        let drive: f64 = arch
            .components
            .iter()
            .filter(|c| c.name.starts_with("SFQ drive"))
            .map(|c| c.instances(n) * c.power_w(arch.clock_hz))
            .sum();
        let frac = drive / total;
        assert!((frac - 0.717).abs() < 0.08, "drive fraction {frac}");
    }

    #[test]
    fn near_term_opts_unlock_1k_qubits() {
        let arch = SfqConfig::near_term_optimized().build();
        let n = 1248;
        let p4k = power_per_qubit(&arch, Stage::K4, n) * n as f64;
        let pmk = power_per_qubit(&arch, Stage::Mk20, n) * n as f64;
        assert!(p4k < Stage::K4.cooling_capacity_w() * 1.15, "4K at 1248 = {p4k}");
        assert!(pmk < Stage::Mk20.cooling_capacity_w() * 1.15, "mK at 1248 = {pmk}");
    }

    #[test]
    fn ersfq_removes_static_power_entirely() {
        let arch = SfqConfig::long_term_ersfq().build();
        assert_eq!(arch.device_static_w(Stage::K4, 1024), 0.0);
        assert_eq!(arch.device_static_w(Stage::Mk20, 1024), 0.0);
    }

    #[test]
    fn ersfq_supports_60k_qubits_on_power() {
        let arch = SfqConfig::long_term_ersfq().build();
        let n = 82_413;
        let p4k = arch.device_dynamic_w(Stage::K4, n) + arch.wire_load_w(Stage::K4, n);
        let pmk = arch.device_dynamic_w(Stage::Mk20, n) + arch.wire_load_w(Stage::Mk20, n);
        assert!(p4k < Stage::K4.cooling_capacity_w(), "4K at 82k = {p4k}");
        assert!(pmk < Stage::Mk20.cooling_capacity_w(), "mK at 82k = {pmk}");
    }

    #[test]
    fn esm_cycle_reflects_readout_schedule() {
        let base = SfqConfig::baseline_rsfq().esm_profile();
        assert!((base.cycle_ns() - (50.0 + 200.0 + 665.0)).abs() < 1e-9);
        let naive = SfqConfig { sharing: JpmSharing::SharedNaive, ..SfqConfig::baseline_rsfq() };
        assert!(naive.esm_profile().cycle_ns() > 5000.0);
        let opt8 = SfqConfig::long_term_ersfq().esm_profile();
        assert!(opt8.cycle_ns() < base.cycle_ns());
    }

    #[test]
    fn sfq_never_serializes_1q_layers() {
        for bs in [1, 8] {
            let cfg = SfqConfig { bs, ..SfqConfig::baseline_rsfq() };
            assert_eq!(cfg.esm_profile().h_layer_ns, ONE_Q_NS);
        }
        let _ = TWO_Q_NS;
    }
}
