//! Generic hardware-inventory abstraction.
//!
//! The paper's circuit model (Fig. 6) consumes, for every QCI block, a
//! per-unit static power, a per-access dynamic energy, and a count of units
//! as a function of the managed qubit number. This module provides the
//! [`Component`] type that carries exactly that information, with the
//! technology-specific numbers delegated to `qisim-hal`.
//!
//! A full QCI microarchitecture is a [`Vec<Component>`] plus a wiring plan
//! ([`WirePlan`]) and an instruction-bandwidth figure — see [`QciArch`].

use qisim_hal::analog::AnalogBlock;
use qisim_hal::cmos::CmosTech;
use qisim_hal::fridge::Stage;
use qisim_hal::sfq::{SfqCell, SfqTech};
use qisim_hal::wire::WireKind;

/// The physical substance of a component, delegating power math to the HAL.
#[derive(Debug, Clone, PartialEq)]
pub enum Resource {
    /// Synthesized CMOS logic measured in gate equivalents (GE).
    CmosLogic {
        /// Technology operating point.
        tech: CmosTech,
        /// Gate-equivalent count of one instance.
        ge: f64,
        /// Fraction of gates toggling per clock cycle while the unit is
        /// active (synthesis-style switching activity).
        activity: f64,
    },
    /// An SRAM macro.
    CmosSram {
        /// Technology operating point.
        tech: CmosTech,
        /// Macro capacity in kilobytes.
        kb: f64,
        /// Average accesses per clock cycle while the unit is active.
        accesses_per_cycle: f64,
    },
    /// SFQ logic described as a library-cell mix.
    SfqCells {
        /// Technology operating point (family × stage).
        tech: SfqTech,
        /// `(cell, count)` pairs of one instance.
        cells: Vec<(SfqCell, u64)>,
        /// Fraction of JJs switching per clock cycle while active.
        activity: f64,
    },
    /// A published analog block (fixed active/idle powers).
    Analog(AnalogBlock),
}

/// One microarchitectural unit of a QCI, replicated with qubit count.
///
/// # Examples
///
/// ```
/// use qisim_microarch::inventory::{Component, Resource};
/// use qisim_hal::{cmos::CmosTech, fridge::Stage};
///
/// let nco = Component {
///     name: "drive NCO".into(),
///     stage: Stage::K4,
///     resource: Resource::CmosLogic { tech: CmosTech::baseline_4k(), ge: 9000.0, activity: 0.2 },
///     qubits_per_instance: 1.0,
///     duty: 0.13,
/// };
/// assert_eq!(nco.instances(1152), 1152.0);
/// assert!(nco.dynamic_power_w(2.5e9) > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Component {
    /// Human-readable unit name (used as the activity-map key).
    pub name: String,
    /// Temperature stage where the unit dissipates.
    pub stage: Stage,
    /// What the unit is made of.
    pub resource: Resource,
    /// How many qubits share one instance (1 = per-qubit, 32 = one per 32
    /// qubits as in FDM drive). Fractional values are allowed for blocks
    /// amortized over large groups.
    pub qubits_per_instance: f64,
    /// Fraction of the steady-state workload (ESM) during which the unit is
    /// actively clocked; the cycle-accurate simulator can override this.
    pub duty: f64,
}

impl Component {
    /// Number of instances needed for `n_qubits` (ceiling division).
    ///
    /// # Panics
    ///
    /// Panics if `qubits_per_instance` is not positive.
    pub fn instances(&self, n_qubits: u64) -> f64 {
        assert!(self.qubits_per_instance > 0.0, "sharing must be positive");
        (n_qubits as f64 / self.qubits_per_instance).ceil()
    }

    /// Static power of **one instance**, in watts.
    pub fn static_power_w(&self) -> f64 {
        match &self.resource {
            Resource::CmosLogic { tech, ge, .. } => tech.logic_static_power_w() * ge,
            Resource::CmosSram { tech, kb, .. } => tech.sram_static_power_w(*kb),
            Resource::SfqCells { tech, cells, .. } => tech.static_power_w(cells),
            Resource::Analog(block) => block.idle_power_w,
        }
    }

    /// Dynamic power of **one instance** at its duty cycle, in watts.
    ///
    /// For digital resources this is `energy/access × clock × activity ×
    /// duty`; for analog blocks it is the active-idle power gap times duty
    /// (the idle part is accounted as static).
    pub fn dynamic_power_w(&self, clock_hz: f64) -> f64 {
        match &self.resource {
            Resource::CmosLogic { tech, ge, activity } => {
                tech.logic_dynamic_power_w(*ge, clock_hz, *activity) * self.duty
            }
            Resource::CmosSram { tech, kb, accesses_per_cycle } => {
                tech.sram_access_energy_j(*kb) * accesses_per_cycle * clock_hz * self.duty
            }
            Resource::SfqCells { tech, cells, activity } => {
                tech.dynamic_power_w(cells, clock_hz, *activity) * self.duty
            }
            Resource::Analog(block) => (block.active_power_w - block.idle_power_w) * self.duty,
        }
    }

    /// Total power of one instance (static + dynamic), in watts.
    pub fn power_w(&self, clock_hz: f64) -> f64 {
        self.static_power_w() + self.dynamic_power_w(clock_hz)
    }

    /// Returns a copy with a different duty cycle.
    ///
    /// # Panics
    ///
    /// Panics if `duty` is outside `[0, 1]`.
    pub fn with_duty(mut self, duty: f64) -> Self {
        assert!((0.0..=1.0).contains(&duty), "duty must be in [0,1]");
        self.duty = duty;
        self
    }

    /// Scales the dynamic cost of the component by scaling its activity
    /// (CMOS logic / SFQ) or accesses-per-cycle (SRAM). Analog blocks are
    /// unaffected. Used by optimizations that thin out datapath switching.
    pub fn with_activity_scale(mut self, k: f64) -> Self {
        assert!(k >= 0.0, "activity scale must be non-negative");
        match &mut self.resource {
            Resource::CmosLogic { activity, .. } => *activity = (*activity * k).min(1.0),
            Resource::CmosSram { accesses_per_cycle, .. } => *accesses_per_cycle *= k,
            Resource::SfqCells { activity, .. } => *activity = (*activity * k).min(1.0),
            Resource::Analog(_) => {}
        }
        self
    }
}

/// A group of analog cables of one kind serving the QCI.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WirePlan {
    /// Descriptive name ("drive lines", "TX lines"...).
    pub name: &'static str,
    /// Cable technology.
    pub kind: WireKind,
    /// Qubits served per cable (FDM degree for drive/readout lines).
    pub qubits_per_cable: f64,
    /// Fraction of time the cable carries signal during ESM.
    pub duty: f64,
}

impl WirePlan {
    /// Cables needed for `n_qubits`.
    pub fn cables(&self, n_qubits: u64) -> f64 {
        assert!(self.qubits_per_cable > 0.0, "sharing must be positive");
        (n_qubits as f64 / self.qubits_per_cable).ceil()
    }

    /// Total heat load of the group at one stage for `n_qubits`, in watts.
    ///
    /// Wires that cannot span room temperature (the superconducting 4K–mK
    /// interconnects) originate at the 4 K stage: they load only the
    /// stages *below* their anchor (100 mK and 20 mK), never 4 K itself.
    pub fn load_w(&self, stage: Stage, n_qubits: u64) -> f64 {
        if !self.kind.spans_room_to_mk() && !matches!(stage, Stage::Mk100 | Stage::Mk20) {
            return 0.0;
        }
        self.cables(n_qubits) * self.kind.load_w(stage, self.duty)
    }
}

/// A complete QCI microarchitecture: components + wires + ISA bandwidth.
#[derive(Debug, Clone, PartialEq)]
pub struct QciArch {
    /// Design name for reports.
    pub name: String,
    /// Digital clock in Hz (2.5 GHz CMOS, 24 GHz SFQ).
    pub clock_hz: f64,
    /// Hardware units.
    pub components: Vec<Component>,
    /// Analog cable groups.
    pub wires: Vec<WirePlan>,
    /// Average 300K→4K instruction bandwidth per qubit in bits/s during
    /// ESM (zero for 300 K QCIs, whose "instructions" stay in the rack).
    pub instr_bandwidth_bps_per_qubit: f64,
}

impl QciArch {
    /// Sum of `f(component)` weighted by instance count for `n_qubits`.
    fn sum_over<F: Fn(&Component) -> f64>(&self, n_qubits: u64, f: F) -> f64 {
        self.components.iter().map(|c| c.instances(n_qubits) * f(c)).sum()
    }

    /// Total device static power at one stage, in watts.
    pub fn device_static_w(&self, stage: Stage, n_qubits: u64) -> f64 {
        self.sum_over(n_qubits, |c| if c.stage == stage { c.static_power_w() } else { 0.0 })
    }

    /// Total device dynamic power at one stage, in watts.
    pub fn device_dynamic_w(&self, stage: Stage, n_qubits: u64) -> f64 {
        self.sum_over(n_qubits, |c| {
            if c.stage == stage {
                c.dynamic_power_w(self.clock_hz)
            } else {
                0.0
            }
        })
    }

    /// Total wire heat load at one stage, in watts (analog cables only).
    pub fn wire_load_w(&self, stage: Stage, n_qubits: u64) -> f64 {
        self.wires.iter().map(|w| w.load_w(stage, n_qubits)).sum()
    }

    /// Instruction-link bandwidth for `n_qubits`, in bits/s.
    pub fn instr_bandwidth_bps(&self, n_qubits: u64) -> f64 {
        self.instr_bandwidth_bps_per_qubit * n_qubits as f64
    }

    /// Power of the named component group per qubit, in watts (for
    /// breakdown reports; name matching is by prefix so "RX" covers
    /// "RX NCO bank", "RX decision"...).
    pub fn group_power_per_qubit_w(&self, prefix: &str, n_qubits: u64) -> f64 {
        let total: f64 = self
            .components
            .iter()
            .filter(|c| c.name.starts_with(prefix))
            .map(|c| c.instances(n_qubits) * c.power_w(self.clock_hz))
            .sum();
        total / n_qubits as f64
    }

    /// Replaces a component by name; returns whether a match was found.
    pub fn replace_component(&mut self, name: &str, new: Component) -> bool {
        if let Some(slot) = self.components.iter_mut().find(|c| c.name == name) {
            *slot = new;
            true
        } else {
            false
        }
    }

    /// Removes components whose name starts with `prefix`; returns how many
    /// were removed.
    pub fn remove_components(&mut self, prefix: &str) -> usize {
        let before = self.components.len();
        self.components.retain(|c| !c.name.starts_with(prefix));
        before - self.components.len()
    }

    /// Finds a component by exact name.
    pub fn component(&self, name: &str) -> Option<&Component> {
        self.components.iter().find(|c| c.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qisim_hal::cmos::CmosTech;
    use qisim_hal::sfq::{SfqFamily, SfqStage};

    fn logic(name: &str, ge: f64, share: f64, duty: f64) -> Component {
        Component {
            name: name.into(),
            stage: Stage::K4,
            resource: Resource::CmosLogic { tech: CmosTech::baseline_4k(), ge, activity: 0.2 },
            qubits_per_instance: share,
            duty,
        }
    }

    #[test]
    fn instance_count_uses_ceiling() {
        let c = logic("x", 100.0, 32.0, 1.0);
        assert_eq!(c.instances(32), 1.0);
        assert_eq!(c.instances(33), 2.0);
        assert_eq!(c.instances(1), 1.0);
    }

    #[test]
    fn duty_scales_dynamic_not_static() {
        let full = logic("x", 1000.0, 1.0, 1.0);
        let half = full.clone().with_duty(0.5);
        assert_eq!(full.static_power_w(), half.static_power_w());
        let ratio = full.dynamic_power_w(2.5e9) / half.dynamic_power_w(2.5e9);
        assert!((ratio - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sram_dynamic_counts_accesses() {
        let tech = CmosTech::baseline_4k();
        let c = Component {
            name: "bin counter".into(),
            stage: Stage::K4,
            resource: Resource::CmosSram { tech, kb: 32.0, accesses_per_cycle: 2.0 },
            qubits_per_instance: 1.0,
            duty: 1.0,
        };
        let p = c.dynamic_power_w(2.5e9);
        let expect = tech.sram_access_energy_j(32.0) * 2.0 * 2.5e9;
        assert!((p - expect).abs() < 1e-15);
    }

    #[test]
    fn sfq_component_power() {
        let tech = SfqTech::new(SfqFamily::Rsfq, SfqStage::Cryo4K);
        let c = Component {
            name: "per-qubit controller".into(),
            stage: Stage::K4,
            resource: Resource::SfqCells {
                tech,
                cells: vec![(SfqCell::Dff, 21), (SfqCell::Mux2, 7)],
                activity: 0.3,
            },
            qubits_per_instance: 1.0,
            duty: 0.5,
        };
        assert!(c.static_power_w() > 0.0);
        assert!(c.dynamic_power_w(24e9) > 0.0);
        // Static dominates for RSFQ at these activities.
        assert!(c.static_power_w() > c.dynamic_power_w(24e9));
    }

    #[test]
    fn activity_scale_touches_dynamic_only() {
        let c = logic("x", 1000.0, 1.0, 1.0);
        let thinned = c.clone().with_activity_scale(0.25);
        assert_eq!(c.static_power_w(), thinned.static_power_w());
        let ratio = c.dynamic_power_w(2.5e9) / thinned.dynamic_power_w(2.5e9);
        assert!((ratio - 4.0).abs() < 1e-12);
    }

    #[test]
    fn wire_plan_counts_cables() {
        let w = WirePlan { name: "drive", kind: WireKind::Coax, qubits_per_cable: 32.0, duty: 0.2 };
        assert_eq!(w.cables(64), 2.0);
        assert_eq!(w.cables(65), 3.0);
        let load = w.load_w(Stage::Mk100, 64);
        let per = WireKind::Coax.load_w(Stage::Mk100, 0.2);
        assert!((load - 2.0 * per).abs() < 1e-18);
    }

    #[test]
    fn arch_aggregation_and_edit() {
        let mut arch = QciArch {
            name: "test".into(),
            clock_hz: 2.5e9,
            components: vec![
                logic("RX bank", 1000.0, 1.0, 0.5),
                logic("drive NCO", 500.0, 1.0, 0.2),
            ],
            wires: vec![WirePlan {
                name: "drive",
                kind: WireKind::Coax,
                qubits_per_cable: 32.0,
                duty: 0.2,
            }],
            instr_bandwidth_bps_per_qubit: 1e8,
        };
        assert!(arch.device_dynamic_w(Stage::K4, 100) > 0.0);
        assert_eq!(arch.device_dynamic_w(Stage::Mk20, 100), 0.0);
        assert!(arch.wire_load_w(Stage::Mk100, 100) > 0.0);
        assert_eq!(arch.instr_bandwidth_bps(10), 1e9);
        assert!(arch.group_power_per_qubit_w("RX", 100) > 0.0);

        assert!(arch.replace_component("RX bank", logic("RX bank", 100.0, 1.0, 0.5)));
        assert!(!arch.replace_component("missing", logic("y", 1.0, 1.0, 0.1)));
        assert_eq!(arch.remove_components("drive"), 1);
        assert_eq!(arch.components.len(), 1);
    }
}
