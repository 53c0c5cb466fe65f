//! Multi-fridge scale-out topology: composable refrigerator clusters
//! with typed inter-fridge links.
//!
//! The paper's endgame — 10K+ qubits toward quantum supremacy — does not
//! fit one dilution refrigerator: §2.4.1's cooling budgets cap a single
//! fridge regardless of QCI technology, so datacenter-scale machines tile
//! N fridges and pay for the privilege in interconnect heat (every
//! inter-fridge cable terminates inside two fridges and leaks into the
//! stages it crosses, exactly like the Table 2 intra-fridge wires). A
//! [`FridgeTopology`] captures that trade: N identical fridges, a typed
//! [`LinkKind`] with per-stage heat loads, the link count per fridge,
//! and whether room-temperature controllers are shared across the
//! cluster.
//!
//! This module holds a **zero panic budget** (tools/panic_allowlist.txt):
//! every builder is total and validation stays with `qisim::spec`.
//!
//! # Examples
//!
//! ```
//! use qisim_hal::fridge::Stage;
//! use qisim_hal::topology::{FridgeTopology, LinkKind};
//!
//! // One fridge has no peers: no interconnect heat anywhere.
//! let single = FridgeTopology::standard();
//! assert_eq!(single.interconnect_w(Stage::K4), 0.0);
//!
//! // Four fridges over photonic links pay at the mixing chamber.
//! let four = FridgeTopology::standard().with_fridges(4).with_link(LinkKind::Photonic);
//! assert!(four.interconnect_w(Stage::Mk20) > 0.0);
//! assert!(four.effective_budget_w(Stage::Mk20) < four.fridge().budget_w(Stage::Mk20));
//! ```

use crate::fridge::{Fridge, Stage};
use crate::wire::WireKind;

/// Coordination duty cycle of the inter-fridge links when a shared
/// room-temperature controller arbitrates half the traffic centrally
/// (dedicated per-fridge controllers push everything over the cryo
/// links at full duty).
const SHARED_CONTROLLER_LINK_DUTY: f64 = 0.5;

/// Inter-fridge interconnect technology.
///
/// Each kind reuses the Table 2 per-cable heat model of the matching
/// [`WireKind`]: an inter-fridge cable terminates inside the fridge the
/// same way an intra-fridge one does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkKind {
    /// Fridge-to-fridge via room temperature over stainless coax: no new
    /// cryogenics, but the full 300 K cable heat at every stage crossed.
    RoomCoax,
    /// Direct cryogenic NbTi coax between 4 K plates (the paper's
    /// superconducting-coax class): 7.4× lighter passive load.
    CryoCoax,
    /// Optical fiber with a millikelvin photodetector (the Table 2
    /// photonic class): near-zero passive load, the detector pays at
    /// 20 mK.
    Photonic,
}

impl LinkKind {
    /// All link kinds, default first.
    pub const ALL: [LinkKind; 3] = [LinkKind::RoomCoax, LinkKind::CryoCoax, LinkKind::Photonic];

    /// The Table 2 wire class whose per-cable heat model this link
    /// reuses.
    pub fn wire(self) -> WireKind {
        match self {
            LinkKind::RoomCoax => WireKind::Coax,
            LinkKind::CryoCoax => WireKind::SuperconductingCoax,
            LinkKind::Photonic => WireKind::PhotonicLink,
        }
    }

    /// Passive heat load of one link at a stage, in watts.
    pub fn passive_load_w(self, stage: Stage) -> f64 {
        self.wire().passive_load_w(stage)
    }

    /// Active (signal-dissipation) load of one link at a stage under
    /// 100 % coordination duty, in watts.
    pub fn active_load_w(self, stage: Stage) -> f64 {
        self.wire().active_load_w(stage)
    }

    /// Stable text-codec identifier.
    pub fn label(self) -> &'static str {
        match self {
            LinkKind::RoomCoax => "room_coax",
            LinkKind::CryoCoax => "cryo_coax",
            LinkKind::Photonic => "photonic",
        }
    }

    /// Inverse of [`LinkKind::label`]; `None` for unknown identifiers.
    pub fn from_label(label: &str) -> Option<LinkKind> {
        LinkKind::ALL.into_iter().find(|k| k.label() == label)
    }
}

impl std::fmt::Display for LinkKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A cluster of N identical dilution refrigerators joined by typed
/// inter-fridge links, with optionally shared room-temperature
/// controllers.
///
/// The single-fridge topology ([`FridgeTopology::standard`]) is the
/// degenerate case: no peers, no interconnect heat, bit-identical to
/// analyzing the bare [`Fridge`]. Builders are total — out-of-range
/// values are clamped to the nearest meaningful one here and rejected
/// with typed diagnostics by `qisim::spec`.
#[derive(Debug, Clone, PartialEq)]
pub struct FridgeTopology {
    fridges: u32,
    fridge: Fridge,
    link: LinkKind,
    links_per_fridge: u32,
    shared_controllers: bool,
}

impl FridgeTopology {
    /// The degenerate single-fridge topology on the Table 2
    /// refrigerator: cryo-coax links are configured but carry no heat
    /// (one fridge has no peers).
    pub fn standard() -> Self {
        FridgeTopology {
            fridges: 1,
            fridge: Fridge::standard(),
            link: LinkKind::CryoCoax,
            links_per_fridge: 2,
            shared_controllers: true,
        }
    }

    /// Sets the fridge count (clamped to at least 1).
    pub fn with_fridges(mut self, fridges: u32) -> Self {
        self.fridges = fridges.max(1);
        self
    }

    /// Sets the per-fridge refrigerator (every fridge in the cluster is
    /// identical).
    pub fn with_fridge(mut self, fridge: Fridge) -> Self {
        self.fridge = fridge;
        self
    }

    /// Sets the inter-fridge link technology.
    pub fn with_link(mut self, link: LinkKind) -> Self {
        self.link = link;
        self
    }

    /// Sets how many inter-fridge links terminate in each fridge.
    pub fn with_links_per_fridge(mut self, links: u32) -> Self {
        self.links_per_fridge = links;
        self
    }

    /// Sets whether one room-temperature controller rack is shared
    /// across the cluster (halving the cryo-link coordination duty) or
    /// every fridge brings its own.
    pub fn with_shared_controllers(mut self, shared: bool) -> Self {
        self.shared_controllers = shared;
        self
    }

    /// Fridge count.
    pub fn fridges(&self) -> u32 {
        self.fridges
    }

    /// The per-fridge refrigerator.
    pub fn fridge(&self) -> &Fridge {
        &self.fridge
    }

    /// Inter-fridge link technology.
    pub fn link(&self) -> LinkKind {
        self.link
    }

    /// Inter-fridge links terminating in each fridge.
    pub fn links_per_fridge(&self) -> u32 {
        self.links_per_fridge
    }

    /// Whether room-temperature controllers are shared across the
    /// cluster.
    pub fn shared_controllers(&self) -> bool {
        self.shared_controllers
    }

    /// Whether this is the degenerate single-fridge case (no peers, no
    /// interconnect heat).
    pub fn is_single(&self) -> bool {
        self.fridges <= 1
    }

    /// Coordination duty cycle of the inter-fridge links: shared
    /// room-temperature controllers arbitrate half the traffic
    /// centrally; dedicated controllers push it all over the cryo links.
    pub fn link_duty(&self) -> f64 {
        if self.shared_controllers {
            SHARED_CONTROLLER_LINK_DUTY
        } else {
            1.0
        }
    }

    /// Interconnect heat folded into one fridge's stage, in watts: every
    /// terminating link leaks its passive load plus its duty-weighted
    /// active load. Exactly zero for a single fridge — the degenerate
    /// topology stays bit-identical to the bare [`Fridge`].
    pub fn interconnect_w(&self, stage: Stage) -> f64 {
        if self.is_single() {
            return 0.0;
        }
        let per_link =
            self.link.passive_load_w(stage) + self.link.active_load_w(stage) * self.link_duty();
        self.links_per_fridge as f64 * per_link
    }

    /// One fridge's cooling budget left for the QCI after interconnect
    /// heat, in watts (floored at zero: a link bundle can eat a stage
    /// whole).
    pub fn effective_budget_w(&self, stage: Stage) -> f64 {
        (self.fridge.budget_w(stage) - self.interconnect_w(stage)).max(0.0)
    }

    /// The per-fridge refrigerator with interconnect heat already
    /// subtracted from every stage budget — what each fridge's power
    /// landing search runs against. `None` when the interconnect consumes
    /// some stage's entire budget (the cluster supports zero qubits and
    /// the link is the binding constraint).
    pub fn effective_fridge(&self) -> Option<Fridge> {
        if self.is_single() {
            return Some(self.fridge.clone());
        }
        let mut budgets = [0.0; 5];
        for (i, &stage) in Stage::ALL.iter().enumerate() {
            budgets[i] = self.effective_budget_w(stage);
        }
        Fridge::from_budgets(budgets)
    }

    /// The stage whose interconnect load consumes the largest fraction
    /// of its budget — the link-binding candidate ([`f64::total_cmp`]
    /// ordering, so NaN-free and deterministic). `None` for a single
    /// fridge.
    pub fn worst_link_stage(&self) -> Option<Stage> {
        if self.is_single() {
            return None;
        }
        Stage::ALL
            .into_iter()
            .max_by(|&a, &b| self.link_utilization(a).total_cmp(&self.link_utilization(b)))
    }

    /// Fraction of one stage's budget the interconnect consumes
    /// (infinite for a zero-budget stage, mirroring
    /// [`Fridge::utilization`]).
    pub fn link_utilization(&self, stage: Stage) -> f64 {
        self.fridge.utilization(stage, self.interconnect_w(stage))
    }
}

impl Default for FridgeTopology {
    fn default() -> Self {
        FridgeTopology::standard()
    }
}

impl std::fmt::Display for FridgeTopology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} fridge(s) x {} {} link(s), controllers {}",
            self.fridges,
            self.links_per_fridge,
            self.link,
            if self.shared_controllers { "shared" } else { "dedicated" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_labels_round_trip() {
        for k in LinkKind::ALL {
            assert_eq!(LinkKind::from_label(k.label()), Some(k));
        }
        assert_eq!(LinkKind::from_label("carrier_pigeon"), None);
    }

    #[test]
    fn link_heat_reuses_the_table2_wire_classes() {
        for k in LinkKind::ALL {
            for s in Stage::ALL {
                assert_eq!(k.passive_load_w(s), k.wire().passive_load_w(s));
                assert_eq!(k.active_load_w(s), k.wire().active_load_w(s));
            }
        }
        // Cryo coax is the 7.4x-lighter superconducting class.
        let ratio = LinkKind::RoomCoax.passive_load_w(Stage::K4)
            / LinkKind::CryoCoax.passive_load_w(Stage::K4);
        assert!((ratio - 7.4).abs() < 1e-9);
    }

    #[test]
    fn single_fridge_has_no_interconnect_anywhere() {
        for link in LinkKind::ALL {
            let t = FridgeTopology::standard().with_link(link).with_links_per_fridge(64);
            for s in Stage::ALL {
                assert_eq!(t.interconnect_w(s), 0.0);
                assert_eq!(t.effective_budget_w(s), t.fridge().budget_w(s));
            }
            assert_eq!(t.effective_fridge(), Some(Fridge::standard()));
            assert_eq!(t.worst_link_stage(), None);
        }
    }

    #[test]
    fn interconnect_scales_with_links_and_duty() {
        let base = FridgeTopology::standard().with_fridges(2).with_link(LinkKind::CryoCoax);
        let one = base.clone().with_links_per_fridge(1);
        let four = base.clone().with_links_per_fridge(4);
        assert!(
            (four.interconnect_w(Stage::K4) - 4.0 * one.interconnect_w(Stage::K4)).abs() < 1e-15
        );
        // Dedicated controllers run the links at full duty: never less
        // heat than the shared-controller arbitration.
        let dedicated = base.clone().with_shared_controllers(false);
        assert!(dedicated.interconnect_w(Stage::K4) > base.interconnect_w(Stage::K4));
        assert_eq!(base.link_duty(), 0.5);
        assert_eq!(dedicated.link_duty(), 1.0);
    }

    #[test]
    fn effective_fridge_derates_and_can_vanish() {
        let t = FridgeTopology::standard().with_fridges(4).with_link(LinkKind::Photonic);
        let eff = t.effective_fridge().expect("photonic links leave budget");
        assert!(eff.budget_w(Stage::Mk20) < Fridge::standard().budget_w(Stage::Mk20));
        // A starved stage kills the whole effective fridge.
        let starved = FridgeTopology::standard()
            .with_fridges(2)
            .with_link(LinkKind::Photonic)
            .with_links_per_fridge(64)
            .with_fridge(Fridge::standard().with_budget(Stage::Mk20, 1e-9));
        assert_eq!(starved.effective_fridge(), None);
        assert_eq!(starved.worst_link_stage(), Some(Stage::Mk20));
        assert!(starved.link_utilization(Stage::Mk20) > 1.0);
    }

    #[test]
    fn builders_are_total_and_clamp() {
        let t = FridgeTopology::standard().with_fridges(0);
        assert_eq!(t.fridges(), 1);
        assert!(t.is_single());
        let t = FridgeTopology::standard().with_fridges(3).with_links_per_fridge(0);
        for s in Stage::ALL {
            assert_eq!(t.interconnect_w(s), 0.0, "zero links carry zero heat");
        }
    }

    #[test]
    fn display_names_the_shape() {
        let t = FridgeTopology::standard().with_fridges(4).with_shared_controllers(false);
        let text = t.to_string();
        assert!(text.contains("4 fridge(s)"), "{text}");
        assert!(text.contains("cryo_coax"), "{text}");
        assert!(text.contains("dedicated"), "{text}");
    }
}
