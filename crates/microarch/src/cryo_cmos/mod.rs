//! The full 4 K CMOS QCI (§3.3): our reproduction of Horse Ridge I & II
//! plus the paper's newly-designed virtual-Rz/Z-correction NCO and
//! arbitrary-ramp pulse circuit.

pub mod drive;
pub mod pulse;
pub mod rx;
pub mod tx;

use crate::inventory::{QciArch, WirePlan};
use crate::isa::{EsmTraffic, IsaFormat};
use qisim_hal::cmos::CmosTech;
use qisim_hal::wire::WireKind;

pub use rx::DecisionKind;

/// Per-operation latencies of the CMOS QCI (Table 2).
pub const ONE_Q_NS: f64 = 25.0;
/// CZ gate latency in ns (Table 2).
pub const TWO_Q_NS: f64 = 50.0;
/// Baseline dispersive readout latency in ns (Table 2).
pub const READOUT_NS: f64 = 517.0;
/// CMOS digital clock (Table 2).
pub const CMOS_CLOCK_HZ: f64 = 2.5e9;
/// Mean latency of the Opt-7 multi-round readout in ns (Fig. 19b:
/// 40.9 % faster than the 517 ns baseline).
pub const MULTI_ROUND_READOUT_NS: f64 = 305.6;

/// Steady-state ESM timing profile used to derive power duty cycles. The
/// cycle-accurate simulator (`qisim-cyclesim`) computes the same structure
/// from the instruction stream; a cross-crate test asserts they agree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EsmProfile {
    /// Duration of one serialized single-qubit (H) layer in ns.
    pub h_layer_ns: f64,
    /// Total CZ phase (four lattice-surgery CZ layers) in ns.
    pub cz_phase_ns: f64,
    /// Readout duration in ns.
    pub readout_ns: f64,
}

impl EsmProfile {
    /// Profile for a CMOS QCI with drive FDM degree `fdm`.
    ///
    /// Within one drive line's FDM group (half of whose members are
    /// ancillas needing a Hadamard each layer), two gates play at a time
    /// (Horse Ridge I's two banks), so one H layer takes
    /// `(fdm/2)/2 × 25 ns`.
    ///
    /// # Panics
    ///
    /// Panics if `fdm == 0`.
    pub fn for_cmos(fdm: u32, readout_ns: f64) -> Self {
        assert!(fdm > 0, "FDM degree must be positive");
        let ancillas_per_line = (fdm as f64 / 2.0).ceil();
        let serial_slots = (ancillas_per_line / 2.0).ceil().max(1.0);
        EsmProfile { h_layer_ns: serial_slots * ONE_Q_NS, cz_phase_ns: 4.0 * TWO_Q_NS, readout_ns }
    }

    /// Total ESM round time in ns (two H layers + CZ phase + readout).
    pub fn cycle_ns(&self) -> f64 {
        2.0 * self.h_layer_ns + self.cz_phase_ns + self.readout_ns
    }

    /// Duty of the shared drive bank (active through both H layers).
    pub fn drive_bank_duty(&self) -> f64 {
        2.0 * self.h_layer_ns / self.cycle_ns()
    }

    /// Average duty of one qubit's envelope memory (ancillas see two 25 ns
    /// gates per round; data qubits none).
    pub fn per_qubit_gate_duty(&self) -> f64 {
        0.5 * 2.0 * ONE_Q_NS / self.cycle_ns()
    }

    /// Average duty of the per-qubit pulse circuit (each CZ pulses one of
    /// the pair, so a qubit is pulsed in about half of the four layers).
    pub fn cz_duty(&self) -> f64 {
        0.5 * self.cz_phase_ns / self.cycle_ns()
    }

    /// Duty of shared readout lines (active through the readout window).
    pub fn readout_line_duty(&self) -> f64 {
        self.readout_ns / self.cycle_ns()
    }

    /// Average duty of a per-qubit RX bank (ancillas only).
    pub fn readout_bank_duty(&self) -> f64 {
        0.5 * self.readout_line_duty()
    }
}

/// Configuration of a 4 K CMOS QCI design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CryoCmosConfig {
    /// CMOS operating point (baseline: 14 nm at 4 K; long-term: 7 nm
    /// voltage-scaled).
    pub tech: CmosTech,
    /// Drive DAC precision in bits (baseline 14; Opt-2 uses 6).
    pub drive_bits: u32,
    /// Drive FDM degree (baseline 32; Opt-7 reduces to 20).
    pub drive_fdm: u32,
    /// RX state-decision unit (baseline bin counting; Opt-1 memoryless).
    pub decision: DecisionKind,
    /// 4K–mK interconnect (near-term superconducting coax; long-term
    /// superconducting microstrip).
    pub wire: WireKind,
    /// Opt-6 FTQC-friendly instruction masking.
    pub masked_isa: bool,
    /// Readout duration in ns (baseline 517; Opt-7 multi-round averages
    /// ~305.6).
    pub readout_ns: f64,
    /// Power scale applied to the analog chains. The paper's long-term
    /// technology + voltage scaling (4.15× and 16×, §6.4.1) is quoted
    /// against the whole 4 K power (Fig. 17a), so the advanced design
    /// scales its analog blocks by the same combined 1/66.4.
    pub analog_scale: f64,
}

impl CryoCmosConfig {
    /// The paper's near-term 4 K CMOS baseline (Fig. 13a, leftmost bars).
    pub fn baseline() -> Self {
        CryoCmosConfig {
            tech: CmosTech::baseline_4k(),
            drive_bits: 14,
            drive_fdm: 32,
            decision: DecisionKind::BinCounting,
            wire: WireKind::SuperconductingCoax,
            masked_isa: false,
            readout_ns: READOUT_NS,
            analog_scale: 1.0,
        }
    }

    /// The paper's long-term "advanced 4K CMOS" design (Fig. 17a): 7 nm,
    /// voltage-scaled, Opt-1/2/6/7 applied, superconducting microstrip.
    pub fn long_term() -> Self {
        CryoCmosConfig {
            tech: CmosTech::advanced_4k(),
            drive_bits: 6,
            drive_fdm: 20,
            decision: DecisionKind::Memoryless,
            wire: WireKind::SuperconductingMicrostrip,
            masked_isa: true,
            readout_ns: MULTI_ROUND_READOUT_NS,
            analog_scale: 1.0 / (4.15 * 16.0),
        }
    }

    /// The ESM timing profile of this configuration.
    pub fn esm_profile(&self) -> EsmProfile {
        EsmProfile::for_cmos(self.drive_fdm, self.readout_ns)
    }

    /// Assembles the full component/wire inventory.
    pub fn build(&self) -> QciArch {
        qisim_obs::counter!("microarch.builds");
        assert!(self.analog_scale > 0.0, "analog scale must be positive");
        let esm = self.esm_profile();
        let mut components = Vec::new();
        components.extend(drive::components(
            self.tech,
            self.drive_bits,
            self.drive_fdm,
            esm.drive_bank_duty(),
            esm.per_qubit_gate_duty(),
        ));
        components.extend(pulse::components(self.tech, esm.cz_duty()));
        components.extend(tx::components(self.tech, esm.readout_line_duty()));
        components.extend(rx::components(
            self.tech,
            self.decision,
            esm.readout_bank_duty(),
            esm.readout_line_duty(),
        ));
        if self.analog_scale != 1.0 {
            for c in &mut components {
                if let crate::inventory::Resource::Analog(block) = &mut c.resource {
                    block.active_power_w *= self.analog_scale;
                    block.idle_power_w *= self.analog_scale;
                }
            }
        }

        let wires = vec![
            WirePlan {
                name: "drive lines",
                kind: self.wire,
                qubits_per_cable: self.drive_fdm as f64,
                duty: esm.drive_bank_duty(),
            },
            WirePlan {
                name: "TX lines",
                kind: self.wire,
                qubits_per_cable: 8.0,
                duty: esm.readout_line_duty(),
            },
            WirePlan {
                name: "RX lines",
                kind: self.wire,
                qubits_per_cable: 8.0,
                duty: esm.readout_line_duty(),
            },
            WirePlan {
                name: "flux/pulse lines",
                kind: self.wire,
                qubits_per_cable: 1.0,
                duty: esm.cz_duty(),
            },
        ];

        let traffic = if self.masked_isa {
            // Opt-6: H·Rz pairs fuse into single Ry(π/2)·Rz instructions.
            let t = EsmTraffic::standard_esm();
            EsmTraffic { one_q_per_qubit: t.one_q_per_qubit / 2.0, ..t }
        } else {
            EsmTraffic::standard_esm()
        };
        let drive_isa = if self.masked_isa {
            IsaFormat::masked_drive()
        } else {
            IsaFormat::horse_ridge_drive()
        };
        let bw = traffic.bandwidth_bps_per_qubit(
            &drive_isa,
            &IsaFormat::pulse_masked(),
            &IsaFormat::readout(),
            self.drive_fdm,
            esm.cycle_ns(),
        );

        QciArch {
            name: format!(
                "4K CMOS ({:?} nm, {}-bit drive, FDM {}, {:?}{})",
                self.tech.node,
                self.drive_bits,
                self.drive_fdm,
                self.decision,
                if self.masked_isa { ", masked ISA" } else { "" }
            ),
            clock_hz: CMOS_CLOCK_HZ,
            components,
            wires,
            instr_bandwidth_bps_per_qubit: bw,
        }
    }
}

impl Default for CryoCmosConfig {
    fn default() -> Self {
        CryoCmosConfig::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qisim_hal::fridge::Stage;

    #[test]
    fn baseline_cycle_matches_paper_structure() {
        let esm = CryoCmosConfig::baseline().esm_profile();
        // FDM 32 → 16 ancillas per line, 2 at a time → 8 slots × 25 ns.
        assert_eq!(esm.h_layer_ns, 200.0);
        assert_eq!(esm.cz_phase_ns, 200.0);
        assert_eq!(esm.cycle_ns(), 2.0 * 200.0 + 200.0 + 517.0);
    }

    #[test]
    fn lower_fdm_shortens_the_cycle() {
        let e32 = EsmProfile::for_cmos(32, READOUT_NS);
        let e20 = EsmProfile::for_cmos(20, READOUT_NS);
        assert!(e20.cycle_ns() < e32.cycle_ns());
        assert_eq!(e20.h_layer_ns, 125.0);
    }

    #[test]
    fn duties_are_fractions() {
        let esm = CryoCmosConfig::baseline().esm_profile();
        for d in [
            esm.drive_bank_duty(),
            esm.per_qubit_gate_duty(),
            esm.cz_duty(),
            esm.readout_line_duty(),
            esm.readout_bank_duty(),
        ] {
            assert!(d > 0.0 && d < 1.0, "duty {d}");
        }
    }

    #[test]
    fn baseline_4k_power_per_qubit_near_calibration() {
        // Fig. 13a anchor: the baseline supports <700 qubits on the 1.5 W
        // 4 K budget, i.e. ≈2.1–2.3 mW/qubit.
        let arch = CryoCmosConfig::baseline().build();
        let n = 1024;
        let device = arch.device_static_w(Stage::K4, n) + arch.device_dynamic_w(Stage::K4, n);
        let per_qubit = device / n as f64;
        assert!(per_qubit > 1.8e-3 && per_qubit < 2.6e-3, "4K device power per qubit {per_qubit}");
    }

    #[test]
    fn rx_digital_dominates_baseline() {
        // §6.3.1: RX digital 54.7 %, drive digital 13.3 % of 4 K power.
        let arch = CryoCmosConfig::baseline().build();
        let n = 1024;
        let total =
            (arch.device_static_w(Stage::K4, n) + arch.device_dynamic_w(Stage::K4, n)) / n as f64;
        let rx_digital = arch.group_power_per_qubit_w("RX NCO", n)
            + arch.group_power_per_qubit_w("RX decision", n);
        let drive_digital = arch.group_power_per_qubit_w("drive NCO", n)
            + arch.group_power_per_qubit_w("drive Z", n)
            + arch.group_power_per_qubit_w("drive envelope", n)
            + arch.group_power_per_qubit_w("drive bank", n);
        let rx_frac = rx_digital / total;
        let drive_frac = drive_digital / total;
        assert!((rx_frac - 0.547).abs() < 0.08, "RX fraction {rx_frac}");
        assert!((drive_frac - 0.133).abs() < 0.04, "drive fraction {drive_frac}");
    }

    #[test]
    fn opt1_cuts_total_4k_power_by_about_half() {
        let base = CryoCmosConfig::baseline().build();
        let opt =
            CryoCmosConfig { decision: DecisionKind::Memoryless, ..CryoCmosConfig::baseline() }
                .build();
        let n = 1024;
        let p = |a: &QciArch| a.device_static_w(Stage::K4, n) + a.device_dynamic_w(Stage::K4, n);
        let cut = 1.0 - p(&opt) / p(&base);
        assert!((cut - 0.483).abs() < 0.07, "Opt-1 total cut {cut}");
    }

    #[test]
    fn opt2_cuts_total_by_about_4pct() {
        let base =
            CryoCmosConfig { decision: DecisionKind::Memoryless, ..CryoCmosConfig::baseline() };
        let opt = CryoCmosConfig { drive_bits: 6, ..base };
        let n = 1024;
        let p = |c: &CryoCmosConfig| {
            let a = c.build();
            a.device_static_w(Stage::K4, n) + a.device_dynamic_w(Stage::K4, n)
        };
        let cut = 1.0 - p(&opt) / p(&base);
        assert!(cut > 0.02 && cut < 0.09, "Opt-2 total cut {cut}");
    }

    #[test]
    fn masked_isa_slashes_bandwidth() {
        let base = CryoCmosConfig::baseline().build();
        let masked = CryoCmosConfig { masked_isa: true, ..CryoCmosConfig::baseline() }.build();
        let cut = 1.0 - masked.instr_bandwidth_bps_per_qubit / base.instr_bandwidth_bps_per_qubit;
        assert!(cut > 0.80, "Opt-6 bandwidth cut {cut}");
    }

    #[test]
    fn superconducting_wires_leave_mk_unbound() {
        // Fig. 13a: with superconducting coax the mK power does not limit
        // the 4 K CMOS QCI at the 1,152-qubit near-term scale.
        let arch = CryoCmosConfig::baseline().build();
        let n = 1152;
        let mk100 = arch.wire_load_w(Stage::Mk100, n)
            + arch.device_static_w(Stage::Mk100, n)
            + arch.device_dynamic_w(Stage::Mk100, n);
        let mk20 = arch.wire_load_w(Stage::Mk20, n);
        assert!(mk100 < Stage::Mk100.cooling_capacity_w(), "100mK {mk100}");
        assert!(mk20 < Stage::Mk20.cooling_capacity_w(), "20mK {mk20}");
    }
}
