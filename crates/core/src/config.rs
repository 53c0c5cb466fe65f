//! Unified QCI design description — the knob set QIsim evaluates.

use qisim_microarch::cryo_cmos::{CryoCmosConfig, EsmProfile};
use qisim_microarch::room_cmos::{self, RoomInterconnect};
use qisim_microarch::sfq::SfqConfig;
use qisim_microarch::QciArch;
use qisim_surface::analytic::{cmos_budget, sfq_budget, PhysicalBudget};

/// Growth of the CMOS single-qubit gate error as the drive DAC precision
/// drops below saturation (Fig. 14b): `p = p_floor + 0.25·4^(−bits)`.
/// Matches the Hamiltonian-simulated precision sweep of
/// `qisim_error::cmos_1q` within its Monte-Carlo scatter.
pub fn cmos_1q_error_for_bits(bits: u32) -> f64 {
    8.17e-7 + 0.25 * 4.0f64.powi(-(bits as i32))
}

/// A complete QCI design: temperature × technology × wire ×
/// microarchitecture.
///
/// # Examples
///
/// ```
/// use qisim::config::QciDesign;
///
/// let base = QciDesign::cmos_baseline();
/// assert!(base.esm_cycle_ns() > 1000.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QciDesign {
    /// 300 K rack electronics over an interconnect (§3.1–3.2).
    Room(RoomInterconnect),
    /// 4 K CMOS QCI (§3.3).
    CryoCmos(CryoCmosConfig),
    /// 4 K SFQ QCI (§3.4).
    Sfq(SfqConfig),
}

impl QciDesign {
    /// The 300 K coax design of Fig. 12a.
    pub fn room_coax() -> Self {
        QciDesign::Room(RoomInterconnect::Coax)
    }

    /// The 300 K microstrip design of Fig. 12b.
    pub fn room_microstrip() -> Self {
        QciDesign::Room(RoomInterconnect::Microstrip)
    }

    /// The 300 K photonic-link design of Fig. 12c.
    pub fn room_photonic() -> Self {
        QciDesign::Room(RoomInterconnect::Photonic)
    }

    /// The near-term 4 K CMOS baseline of Fig. 13a.
    pub fn cmos_baseline() -> Self {
        QciDesign::CryoCmos(CryoCmosConfig::baseline())
    }

    /// The long-term advanced 4 K CMOS design of Fig. 17a (63,883 qubits).
    pub fn cmos_long_term() -> Self {
        QciDesign::CryoCmos(CryoCmosConfig::long_term())
    }

    /// The near-term RSFQ baseline of Fig. 13b.
    pub fn rsfq_baseline() -> Self {
        QciDesign::Sfq(SfqConfig::baseline_rsfq())
    }

    /// The Opt-3/4/5 RSFQ design of Fig. 13b (1,248 qubits).
    pub fn rsfq_near_term() -> Self {
        QciDesign::Sfq(SfqConfig::near_term_optimized())
    }

    /// The long-term ERSFQ design of Fig. 17b (82,413 qubits).
    pub fn ersfq_long_term() -> Self {
        QciDesign::Sfq(SfqConfig::long_term_ersfq())
    }

    /// Builds the hardware inventory.
    pub fn arch(&self) -> QciArch {
        match self {
            QciDesign::Room(kind) => room_cmos::build(*kind),
            QciDesign::CryoCmos(cfg) => cfg.build(),
            QciDesign::Sfq(cfg) => cfg.build(),
        }
    }

    /// The steady-state ESM timing profile.
    pub fn esm_profile(&self) -> EsmProfile {
        match self {
            QciDesign::Room(kind) => room_cmos::esm_profile(*kind),
            QciDesign::CryoCmos(cfg) => cfg.esm_profile(),
            QciDesign::Sfq(cfg) => cfg.esm_profile(),
        }
    }

    /// ESM round time in ns.
    pub fn esm_cycle_ns(&self) -> f64 {
        self.esm_profile().cycle_ns()
    }

    /// The per-round physical error budget (Table 2 rates at this
    /// design's cycle time, with precision-degraded 1Q error for
    /// low-bit CMOS drives).
    pub fn physical_budget(&self) -> PhysicalBudget {
        let cycle = self.esm_cycle_ns();
        match self {
            QciDesign::Room(_) => cmos_budget(cycle),
            QciDesign::CryoCmos(cfg) => PhysicalBudget {
                p_1q: cmos_1q_error_for_bits(cfg.drive_bits),
                ..cmos_budget(cycle)
            },
            QciDesign::Sfq(_) => sfq_budget(cycle),
        }
    }

    /// Display name: the name its architecture is built with.
    pub fn name(&self) -> String {
        self.arch().name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_error_model_saturates_like_fig14() {
        // Gate error saturates around 9 bits, and 6-bit precision is
        // within 10 % on the logical-error axis (w₁·Δp ≪ p_eff).
        let e6 = cmos_1q_error_for_bits(6);
        let e9 = cmos_1q_error_for_bits(9);
        let e14 = cmos_1q_error_for_bits(14);
        assert!(e6 > 5.0 * e9, "6-bit {e6} vs 9-bit {e9}");
        assert!((e9 - e14) / e14 < 2.0, "9-bit is near saturation");
        assert!(e6 < 1e-4, "6-bit error {e6} stays logically negligible");
    }

    #[test]
    fn cycle_times_match_microarch_profiles() {
        assert!((QciDesign::cmos_baseline().esm_cycle_ns() - 1117.0).abs() < 1e-9);
        assert!((QciDesign::rsfq_baseline().esm_cycle_ns() - 915.0).abs() < 1e-9);
        assert!(QciDesign::room_photonic().esm_cycle_ns() < 800.0);
    }

    #[test]
    fn budgets_pick_the_right_technology_rates() {
        let cmos = QciDesign::cmos_baseline().physical_budget();
        let sfq = QciDesign::rsfq_baseline().physical_budget();
        assert!(cmos.p_1q < 1e-5);
        assert!((sfq.p_ro - 1.48e-2).abs() < 1e-12);
    }

    #[test]
    fn names_are_distinct() {
        let designs = [
            QciDesign::room_coax(),
            QciDesign::room_microstrip(),
            QciDesign::cmos_baseline(),
            QciDesign::rsfq_baseline(),
            QciDesign::ersfq_long_term(),
        ];
        let mut names: Vec<String> = designs.iter().map(QciDesign::name).collect();
        names.dedup();
        assert_eq!(names.len(), designs.len());
    }
}
