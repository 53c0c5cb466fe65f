//! Validated design specifications: the typed, serializable front door
//! to [`QciDesign`].
//!
//! `QciDesign` and its configuration structs are plain-old-data — any
//! knob combination is *constructible*, including ones the models reject
//! at run time (an FDM degree of 0 divides by zero inside the ESM
//! profile; a 40-bit DAC is outside the calibrated precision sweep). A
//! [`DesignSpec`] is the validated counterpart: it names a paper
//! [`Preset`] as the starting point, records knob overrides without
//! judging them, and [`DesignSpec::build`] turns the whole combination
//! into a [`QciDesign`] or a typed [`QisimError`] diagnostic.
//!
//! Specs are value types (`PartialEq`) and round-trip losslessly through
//! the text codec ([`crate::codec`]), which is what makes the analysis
//! pipeline batch-friendly: a design-space search can generate, ship,
//! and replay spec files without ever risking a panic in the library.
//!
//! # Examples
//!
//! ```
//! use qisim::spec::{DesignSpec, Preset};
//! use qisim::error::QisimError;
//!
//! // The Fig. 13a optimized design, built safely:
//! let design = DesignSpec::new(Preset::CmosBaseline)
//!     .drive_bits(6)
//!     .decision(qisim::microarch::DecisionKind::Memoryless)
//!     .build()
//!     .unwrap();
//! assert!(design.esm_cycle_ns() > 1000.0);
//!
//! // An invalid knob is a diagnostic, not a panic:
//! let err = DesignSpec::new(Preset::CmosBaseline).drive_fdm(0).build().unwrap_err();
//! assert!(matches!(err, QisimError::Config(_)));
//! ```

use crate::codec::KnobValue;
use crate::config::QciDesign;
use crate::error::{ConfigError, DecodeError, QisimError};
use crate::opts::Opt;
use qisim_hal::fridge::{Fridge, Stage};
use qisim_hal::topology::{FridgeTopology, LinkKind};
use qisim_microarch::cryo_cmos::{CryoCmosConfig, MULTI_ROUND_READOUT_NS};
use qisim_microarch::sfq::{BitgenKind, JpmSharing, SfqConfig};
use qisim_microarch::DecisionKind;
use std::fmt::Write as _;

/// Validated range of the CMOS drive FDM degree (`drive_fdm`). The
/// paper's designs use 20–32; one cable cannot multiplex more than 64
/// qubits within the drive band.
pub const FDM_RANGE: (u32, u32) = (1, 64);
/// Validated range of the drive DAC precision in bits (`drive_bits`).
/// The precision sweep of Fig. 14b is calibrated up to 16 bits.
pub const DAC_BITS_RANGE: (u32, u32) = (1, 16);
/// Validated range of the SFQ broadcast parallelism (`bs`). The paper
/// explores 8 (baseline) down to 1 (Opt-5).
pub const BS_RANGE: (u32, u32) = (1, 8);
/// Validated range of the scale-out fridge count (`fridges`). A kilofridge
/// datacenter is far beyond any published floor plan.
pub const FRIDGES_RANGE: (u32, u32) = (1, 1024);
/// Validated range of inter-fridge links terminating in each fridge
/// (`links_per_fridge`). 64 cables is already a full feedthrough flange.
pub const LINKS_RANGE: (u32, u32) = (1, 64);

/// The nine paper preset designs (Figs. 12, 13, 17): every spec starts
/// from one of these and applies knob overrides on top.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Preset {
    /// 300 K rack over stainless coax (Fig. 12a).
    RoomCoax,
    /// 300 K rack over flexible microstrip (Fig. 12b).
    RoomMicrostrip,
    /// 300 K rack over a photonic link (Fig. 12c).
    RoomPhotonic,
    /// Near-term 4 K CMOS baseline (Fig. 13a).
    CmosBaseline,
    /// Near-term 4 K CMOS with Opt-1 + Opt-2 (the 1,399-qubit design).
    CmosNearTerm,
    /// Long-term advanced 4 K CMOS (Fig. 17a).
    CmosLongTerm,
    /// Near-term RSFQ baseline (Fig. 13b).
    RsfqBaseline,
    /// RSFQ with Opt-3/4/5 (the 1,248-qubit design).
    RsfqNearTerm,
    /// Long-term ERSFQ with Opt-8 (Fig. 17b).
    ErsfqLongTerm,
}

impl Preset {
    /// All nine presets, in paper order.
    pub const ALL: [Preset; 9] = [
        Preset::RoomCoax,
        Preset::RoomMicrostrip,
        Preset::RoomPhotonic,
        Preset::CmosBaseline,
        Preset::CmosNearTerm,
        Preset::CmosLongTerm,
        Preset::RsfqBaseline,
        Preset::RsfqNearTerm,
        Preset::ErsfqLongTerm,
    ];

    /// Stable text-codec identifier.
    pub fn id(self) -> &'static str {
        match self {
            Preset::RoomCoax => "room_coax",
            Preset::RoomMicrostrip => "room_microstrip",
            Preset::RoomPhotonic => "room_photonic",
            Preset::CmosBaseline => "cmos_baseline",
            Preset::CmosNearTerm => "cmos_near_term",
            Preset::CmosLongTerm => "cmos_long_term",
            Preset::RsfqBaseline => "rsfq_baseline",
            Preset::RsfqNearTerm => "rsfq_near_term",
            Preset::ErsfqLongTerm => "ersfq_long_term",
        }
    }

    /// Inverse of [`Preset::id`]; `None` for unknown identifiers.
    pub fn from_id(id: &str) -> Option<Preset> {
        Preset::ALL.into_iter().find(|p| p.id() == id)
    }

    /// The preset's design point.
    pub fn design(self) -> QciDesign {
        match self {
            Preset::RoomCoax => QciDesign::room_coax(),
            Preset::RoomMicrostrip => QciDesign::room_microstrip(),
            Preset::RoomPhotonic => QciDesign::room_photonic(),
            Preset::CmosBaseline => QciDesign::cmos_baseline(),
            Preset::CmosNearTerm => QciDesign::CryoCmos(CryoCmosConfig {
                decision: DecisionKind::Memoryless,
                drive_bits: 6,
                ..CryoCmosConfig::baseline()
            }),
            Preset::CmosLongTerm => QciDesign::cmos_long_term(),
            Preset::RsfqBaseline => QciDesign::rsfq_baseline(),
            Preset::RsfqNearTerm => QciDesign::rsfq_near_term(),
            Preset::ErsfqLongTerm => QciDesign::ersfq_long_term(),
        }
    }
}

/// How the engine's logical-error stage evaluates a design point.
///
/// The estimator is an *analysis* knob, not a technology knob: it is
/// valid on every preset, defaults to [`Estimator::Packed`], and never
/// changes the built [`QciDesign`] — only which error model the
/// pipeline's `LogicalError` stage runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Estimator {
    /// The calibrated analytic model (the paper's Eq. 1 fit) — the
    /// historical default, bit-identical to every pre-knob verdict.
    ///
    /// The name is historical: this variant runs no Monte-Carlo
    /// sampling, and no packed Monte-Carlo estimator exists. The wire
    /// label stays `packed`.
    Packed,
    /// The bit-sliced Monte-Carlo engine
    /// (`qisim_surface::montecarlo::sliced`): an empirical estimate from
    /// a fixed-seed trial batch, 64 trials per machine word.
    Sliced,
    /// The multilevel-splitting rare-event sampler
    /// (`qisim_surface::montecarlo::rare`): importance-sampled trials
    /// reweighted down to the operating point, for deep-tail rates.
    Rare,
}

impl Estimator {
    /// All estimators, default first.
    pub const ALL: [Estimator; 3] = [Estimator::Packed, Estimator::Sliced, Estimator::Rare];

    /// Stable text-codec identifier.
    pub fn label(self) -> &'static str {
        match self {
            Estimator::Packed => "packed",
            Estimator::Sliced => "sliced",
            Estimator::Rare => "rare",
        }
    }

    /// Inverse of [`Estimator::label`]; `None` for unknown identifiers.
    pub fn from_label(label: &str) -> Option<Estimator> {
        Estimator::ALL.into_iter().find(|e| e.label() == label)
    }
}

/// A validated, serializable design specification: a [`Preset`] plus
/// knob overrides plus optional refrigerator-budget overrides.
///
/// Setters record values without judging them; [`DesignSpec::build`]
/// validates the whole combination at once and returns every problem as
/// a typed [`QisimError::Config`] diagnostic.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSpec {
    pub(crate) preset: Preset,
    pub(crate) name: Option<String>,
    pub(crate) estimator: Option<Estimator>,
    // CMOS knobs.
    pub(crate) drive_fdm: Option<u32>,
    pub(crate) drive_bits: Option<u32>,
    pub(crate) decision: Option<DecisionKind>,
    pub(crate) masked_isa: Option<bool>,
    pub(crate) readout_ns: Option<f64>,
    pub(crate) analog_scale: Option<f64>,
    // SFQ knobs.
    pub(crate) bs: Option<u32>,
    pub(crate) bitgen: Option<BitgenKind>,
    pub(crate) sharing: Option<JpmSharing>,
    pub(crate) fast_driving: Option<bool>,
    // Refrigerator budget overrides, indexed like `Stage::ALL`.
    pub(crate) budgets_w: [Option<f64>; 5],
    // Scale-out topology knobs (None = the single-fridge default).
    pub(crate) fridges: Option<u32>,
    pub(crate) link: Option<LinkKind>,
    pub(crate) links_per_fridge: Option<u32>,
    pub(crate) shared_controllers: Option<bool>,
}

/// The technology a spec knob exists on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tech {
    /// Valid on every preset.
    Any,
    /// Cryo-CMOS presets only.
    Cmos,
    /// SFQ presets only.
    Sfq,
}

/// One spec override key: the single declaration the codec's encoder and
/// reader and [`DesignSpec::build`]'s technology check all read.
pub(crate) struct Knob {
    /// The document key; `budget.<stage>` stands for one key per stage.
    pub(crate) key: &'static str,
    /// The technology the knob exists on.
    pub(crate) tech: Tech,
    /// Whether the spec sets the override.
    pub(crate) is_set: fn(&DesignSpec) -> bool,
    /// Appends the override's `key = value` line(s), if set.
    pub(crate) encode: fn(&DesignSpec, &mut String),
    /// Records the value of `key` read at `line`.
    pub(crate) decode: fn(&mut DesignSpec, usize, &str, &str) -> Result<(), DecodeError>,
}

/// The table row of an `Option` field named like its key.
macro_rules! knob {
    ($tech:ident, $field:ident) => {
        Knob {
            key: stringify!($field),
            tech: Tech::$tech,
            is_set: |spec| spec.$field.is_some(),
            encode: |spec, out| {
                if let Some(v) = &spec.$field {
                    v.write_pair(stringify!($field), out);
                }
            },
            decode: |spec, line, key, value| {
                spec.$field = Some(KnobValue::read(line, key, value)?);
                Ok(())
            },
        }
    };
}

/// Every spec override key, in encode order (`preset` heads every
/// document and is not an override). The CMOS knobs precede the SFQ
/// knobs, so a room-temperature preset reports a CMOS mismatch first.
pub(crate) static KNOBS: [Knob; 17] = [
    knob!(Any, name),
    knob!(Any, estimator),
    knob!(Cmos, drive_fdm),
    knob!(Cmos, drive_bits),
    knob!(Cmos, decision),
    knob!(Cmos, masked_isa),
    knob!(Cmos, readout_ns),
    knob!(Cmos, analog_scale),
    knob!(Sfq, bs),
    knob!(Sfq, bitgen),
    knob!(Sfq, sharing),
    knob!(Sfq, fast_driving),
    Knob {
        key: "budget.<stage>",
        tech: Tech::Any,
        is_set: |spec| spec.budgets_w.iter().any(Option::is_some),
        encode: |spec, out| {
            for (stage, w) in Stage::ALL.iter().zip(spec.budgets_w) {
                if let Some(w) = w {
                    let _ = writeln!(out, "budget.{stage} = {w}");
                }
            }
        },
        decode: |spec, line, key, value| {
            spec.budgets_w[budget_stage(line, key)?] = Some(KnobValue::read(line, key, value)?);
            Ok(())
        },
    },
    knob!(Any, fridges),
    knob!(Any, link),
    knob!(Any, links_per_fridge),
    knob!(Any, shared_controllers),
];

/// The table row declaring a spec key (`None` for an unknown key; an
/// unknown stage label in a `budget.` key is its own diagnostic).
pub(crate) fn knob_for(line: usize, key: &str) -> Result<Option<&'static Knob>, DecodeError> {
    if key.starts_with("budget.") {
        budget_stage(line, key)?;
        return Ok(KNOBS.iter().find(|k| k.key == "budget.<stage>"));
    }
    Ok(KNOBS.iter().find(|k| k.key == key))
}

/// The [`Stage::ALL`] index a `budget.<stage>` key names.
fn budget_stage(line: usize, key: &str) -> Result<usize, DecodeError> {
    let label = key.strip_prefix("budget.").unwrap_or(key);
    Stage::ALL
        .iter()
        .position(|s| s.label() == label)
        .ok_or_else(|| DecodeError::new(line, format!("unknown fridge stage `{label}`")))
}

impl DesignSpec {
    /// A spec with no overrides: exactly the preset design on the
    /// standard refrigerator.
    pub fn new(preset: Preset) -> Self {
        DesignSpec {
            preset,
            name: None,
            estimator: None,
            drive_fdm: None,
            drive_bits: None,
            decision: None,
            masked_isa: None,
            readout_ns: None,
            analog_scale: None,
            bs: None,
            bitgen: None,
            sharing: None,
            fast_driving: None,
            budgets_w: [None; 5],
            fridges: None,
            link: None,
            links_per_fridge: None,
            shared_controllers: None,
        }
    }

    /// The preset this spec starts from.
    pub fn preset(&self) -> Preset {
        self.preset
    }

    /// Overrides the display name (must be non-empty at build time).
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Selects the logical-error estimator (valid on every preset; the
    /// default is [`Estimator::Packed`], the analytic model).
    pub fn estimator(mut self, estimator: Estimator) -> Self {
        self.estimator = Some(estimator);
        self
    }

    /// The logical-error estimator this spec analyzes with:
    /// [`Estimator::Packed`] unless overridden.
    pub fn chosen_estimator(&self) -> Estimator {
        self.estimator.unwrap_or(Estimator::Packed)
    }

    /// Overrides the CMOS drive FDM degree (validated against
    /// [`FDM_RANGE`]).
    pub fn drive_fdm(mut self, fdm: u32) -> Self {
        self.drive_fdm = Some(fdm);
        self
    }

    /// Overrides the drive DAC precision in bits (validated against
    /// [`DAC_BITS_RANGE`]).
    pub fn drive_bits(mut self, bits: u32) -> Self {
        self.drive_bits = Some(bits);
        self
    }

    /// Overrides the RX decision unit.
    pub fn decision(mut self, kind: DecisionKind) -> Self {
        self.decision = Some(kind);
        self
    }

    /// Enables/disables the Opt-6 masked ISA.
    pub fn masked_isa(mut self, masked: bool) -> Self {
        self.masked_isa = Some(masked);
        self
    }

    /// Overrides the readout duration in ns (must be positive and
    /// finite).
    pub fn readout_ns(mut self, ns: f64) -> Self {
        self.readout_ns = Some(ns);
        self
    }

    /// Overrides the analog power scale (must be positive and finite).
    pub fn analog_scale(mut self, scale: f64) -> Self {
        self.analog_scale = Some(scale);
        self
    }

    /// Overrides the SFQ broadcast parallelism #BS (validated against
    /// [`BS_RANGE`]).
    pub fn bs(mut self, bs: u32) -> Self {
        self.bs = Some(bs);
        self
    }

    /// Overrides the SFQ bitstream-generator flavour.
    pub fn bitgen(mut self, kind: BitgenKind) -> Self {
        self.bitgen = Some(kind);
        self
    }

    /// Overrides the JPM readout sharing.
    pub fn sharing(mut self, sharing: JpmSharing) -> Self {
        self.sharing = Some(sharing);
        self
    }

    /// Enables/disables Opt-8 fast resonator driving.
    pub fn fast_driving(mut self, fast: bool) -> Self {
        self.fast_driving = Some(fast);
        self
    }

    /// Overrides one refrigerator stage's cooling budget in watts (must
    /// be positive and finite).
    pub fn budget(mut self, stage: Stage, watts: f64) -> Self {
        self.budgets_w[stage_index(stage)] = Some(watts);
        self
    }

    /// Overrides the scale-out fridge count (validated against
    /// [`FRIDGES_RANGE`]; 1 is the classic single-fridge pipeline).
    pub fn fridges(mut self, fridges: u32) -> Self {
        self.fridges = Some(fridges);
        self
    }

    /// Overrides the inter-fridge link technology.
    pub fn link(mut self, link: LinkKind) -> Self {
        self.link = Some(link);
        self
    }

    /// Overrides how many inter-fridge links terminate in each fridge
    /// (validated against [`LINKS_RANGE`]).
    pub fn links_per_fridge(mut self, links: u32) -> Self {
        self.links_per_fridge = Some(links);
        self
    }

    /// Overrides whether one room-temperature controller rack is shared
    /// across the cluster.
    pub fn shared_controllers(mut self, shared: bool) -> Self {
        self.shared_controllers = Some(shared);
        self
    }

    /// Records the knob overrides of one paper optimization (the spec
    /// counterpart of [`crate::opts::apply`]). Technology mismatches —
    /// an SFQ optimization on a CMOS preset — surface at
    /// [`DesignSpec::build`] as [`ConfigError::KnobMismatch`].
    pub fn apply(self, opt: Opt) -> Self {
        match opt {
            Opt::MemorylessDecision => self.decision(DecisionKind::Memoryless),
            Opt::LowPrecisionDrive => self.drive_bits(6),
            Opt::SharedPipelinedReadout => self.sharing(JpmSharing::SharedPipelined),
            Opt::LowPowerBitgen => self.bitgen(BitgenKind::SplitterShared),
            Opt::SingleBroadcast => self.bs(1),
            Opt::MaskedIsa => self.masked_isa(true),
            Opt::FastMultiRoundReadout => self.drive_fdm(20).readout_ns(MULTI_ROUND_READOUT_NS),
            Opt::FastDrivingUnshared => self.fast_driving(true).sharing(JpmSharing::Unshared),
        }
    }

    /// The display name: the override if set, else the built design's
    /// derived name (falls back to the preset id for unbuildable specs).
    pub fn display_name(&self) -> String {
        match (&self.name, self.build()) {
            (Some(n), _) => n.clone(),
            (None, Ok(design)) => design.name(),
            (None, Err(_)) => self.preset.id().to_string(),
        }
    }

    /// Validates every knob and assembles the design point.
    ///
    /// # Errors
    ///
    /// Returns [`QisimError::Config`] naming the first offending knob:
    /// out-of-range values ([`ConfigError::OutOfRange`] /
    /// [`ConfigError::NotPositive`]), overrides that do not exist on the
    /// preset's technology ([`ConfigError::KnobMismatch`]), an empty
    /// name ([`ConfigError::EmptyName`]), or an invalid budget override
    /// ([`ConfigError::Budget`]).
    pub fn build(&self) -> Result<QciDesign, QisimError> {
        if let Some(name) = &self.name {
            if name.trim().is_empty() {
                return Err(ConfigError::EmptyName.into());
            }
        }
        for (i, &stage) in Stage::ALL.iter().enumerate() {
            if let Some(w) = self.budgets_w[i] {
                if !(w.is_finite() && w > 0.0) {
                    return Err(ConfigError::Budget { stage, value: w }.into());
                }
            }
        }
        if let Some(n) = self.fridges {
            check_range("fridges", n, FRIDGES_RANGE)?;
        }
        if let Some(links) = self.links_per_fridge {
            check_range("links_per_fridge", links, LINKS_RANGE)?;
        }
        let base = self.preset.design();
        let tech = match base {
            QciDesign::Room(_) => Tech::Any,
            QciDesign::CryoCmos(_) => Tech::Cmos,
            QciDesign::Sfq(_) => Tech::Sfq,
        };
        if let Some(knob) =
            KNOBS.iter().find(|k| k.tech != Tech::Any && k.tech != tech && (k.is_set)(self))
        {
            return Err(ConfigError::KnobMismatch { knob: knob.key, design: base.name() }.into());
        }
        let design = match base {
            QciDesign::Room(_) => base,
            QciDesign::CryoCmos(cfg) => QciDesign::CryoCmos(CryoCmosConfig {
                drive_fdm: self.drive_fdm.unwrap_or(cfg.drive_fdm),
                drive_bits: self.drive_bits.unwrap_or(cfg.drive_bits),
                decision: self.decision.unwrap_or(cfg.decision),
                masked_isa: self.masked_isa.unwrap_or(cfg.masked_isa),
                readout_ns: self.readout_ns.unwrap_or(cfg.readout_ns),
                analog_scale: self.analog_scale.unwrap_or(cfg.analog_scale),
                ..cfg
            }),
            QciDesign::Sfq(cfg) => QciDesign::Sfq(SfqConfig {
                bs: self.bs.unwrap_or(cfg.bs),
                bitgen: self.bitgen.unwrap_or(cfg.bitgen),
                sharing: self.sharing.unwrap_or(cfg.sharing),
                fast_driving: self.fast_driving.unwrap_or(cfg.fast_driving),
                ..cfg
            }),
        };
        validate_design(&design)?;
        Ok(design)
    }

    /// The refrigerator this spec analyzes on: the standard fridge with
    /// the recorded budget overrides applied.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Budget`] for a non-positive or non-finite
    /// override.
    pub fn fridge(&self) -> Result<Fridge, QisimError> {
        let mut fridge = Fridge::standard();
        for (i, &stage) in Stage::ALL.iter().enumerate() {
            if let Some(w) = self.budgets_w[i] {
                if !(w.is_finite() && w > 0.0) {
                    return Err(ConfigError::Budget { stage, value: w }.into());
                }
                fridge = fridge.with_budget(stage, w);
            }
        }
        Ok(fridge)
    }

    /// The scale-out topology this spec analyzes on: the standard
    /// single-fridge topology with the recorded fridge-count / link /
    /// controller overrides applied, around the (possibly
    /// budget-overridden) refrigerator of [`DesignSpec::fridge`].
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::OutOfRange`] for a fridge or link count
    /// outside [`FRIDGES_RANGE`] / [`LINKS_RANGE`], or
    /// [`ConfigError::Budget`] for an invalid budget override.
    pub fn topology(&self) -> Result<FridgeTopology, QisimError> {
        if let Some(n) = self.fridges {
            check_range("fridges", n, FRIDGES_RANGE)?;
        }
        if let Some(links) = self.links_per_fridge {
            check_range("links_per_fridge", links, LINKS_RANGE)?;
        }
        let mut topology = FridgeTopology::standard().with_fridge(self.fridge()?);
        if let Some(n) = self.fridges {
            topology = topology.with_fridges(n);
        }
        if let Some(link) = self.link {
            topology = topology.with_link(link);
        }
        if let Some(links) = self.links_per_fridge {
            topology = topology.with_links_per_fridge(links);
        }
        if let Some(shared) = self.shared_controllers {
            topology = topology.with_shared_controllers(shared);
        }
        Ok(topology)
    }

    /// Whether this spec asks for a genuine multi-fridge analysis
    /// (`fridges > 1`). Single-fridge specs — even ones that set link
    /// knobs — take the classic pipeline bit-for-bit and carry no
    /// scale-out block in their verdict.
    pub fn has_scale_out(&self) -> bool {
        self.fridges.is_some_and(|n| n > 1)
    }
}

fn stage_index(stage: Stage) -> usize {
    Stage::ALL.iter().position(|s| *s == stage).unwrap_or(0)
}

/// Validates a raw [`QciDesign`]'s knobs against the same ranges
/// [`DesignSpec::build`] enforces. The fallible engine entry points call
/// this before touching the models, so a free-form design with e.g.
/// `drive_fdm: 0` is a typed diagnostic instead of a downstream panic.
///
/// # Errors
///
/// Returns the first offending knob as a [`ConfigError`].
pub fn validate_design(design: &QciDesign) -> Result<(), ConfigError> {
    match design {
        QciDesign::Room(_) => Ok(()),
        QciDesign::CryoCmos(cfg) => {
            check_range("drive_fdm", cfg.drive_fdm, FDM_RANGE)?;
            check_range("drive_bits", cfg.drive_bits, DAC_BITS_RANGE)?;
            check_positive("readout_ns", cfg.readout_ns)?;
            check_positive("analog_scale", cfg.analog_scale)?;
            Ok(())
        }
        QciDesign::Sfq(cfg) => check_range("bs", cfg.bs, BS_RANGE),
    }
}

fn check_range(knob: &'static str, value: u32, (min, max): (u32, u32)) -> Result<(), ConfigError> {
    if value < min || value > max {
        return Err(ConfigError::OutOfRange {
            knob,
            value: value as u64,
            min: min as u64,
            max: max as u64,
        });
    }
    Ok(())
}

fn check_positive(knob: &'static str, value: f64) -> Result<(), ConfigError> {
    if !(value.is_finite() && value > 0.0) {
        return Err(ConfigError::NotPositive { knob, value });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opts;

    #[test]
    fn presets_build_their_paper_designs() {
        assert_eq!(
            DesignSpec::new(Preset::CmosBaseline).build().unwrap(),
            QciDesign::cmos_baseline()
        );
        assert_eq!(
            DesignSpec::new(Preset::RsfqNearTerm).build().unwrap(),
            QciDesign::rsfq_near_term()
        );
        assert_eq!(
            DesignSpec::new(Preset::ErsfqLongTerm).build().unwrap(),
            QciDesign::ersfq_long_term()
        );
        // The ninth preset is the Fig. 13a Opt-1+2 design.
        let via_opts = opts::apply_all(
            &QciDesign::cmos_baseline(),
            &[Opt::MemorylessDecision, Opt::LowPrecisionDrive],
        )
        .unwrap();
        assert_eq!(DesignSpec::new(Preset::CmosNearTerm).build().unwrap(), via_opts);
    }

    #[test]
    fn preset_ids_round_trip() {
        for p in Preset::ALL {
            assert_eq!(Preset::from_id(p.id()), Some(p));
        }
        assert_eq!(Preset::from_id("warp_drive"), None);
    }

    #[test]
    fn overrides_change_only_their_knob() {
        let d = DesignSpec::new(Preset::CmosBaseline).drive_fdm(20).build().unwrap();
        match d {
            QciDesign::CryoCmos(cfg) => {
                assert_eq!(cfg.drive_fdm, 20);
                assert_eq!(cfg.drive_bits, CryoCmosConfig::baseline().drive_bits);
            }
            _ => panic!("preset must stay CMOS"),
        }
    }

    #[test]
    fn out_of_range_knobs_are_typed_diagnostics() {
        let fdm0 = DesignSpec::new(Preset::CmosBaseline).drive_fdm(0).build().unwrap_err();
        assert!(
            matches!(
                fdm0,
                QisimError::Config(ConfigError::OutOfRange { knob: "drive_fdm", value: 0, .. })
            ),
            "{fdm0:?}"
        );
        let bits = DesignSpec::new(Preset::CmosBaseline).drive_bits(17).build().unwrap_err();
        assert!(
            matches!(bits, QisimError::Config(ConfigError::OutOfRange { knob: "drive_bits", .. })),
            "{bits:?}"
        );
        let bs = DesignSpec::new(Preset::RsfqBaseline).bs(9).build().unwrap_err();
        assert!(
            matches!(bs, QisimError::Config(ConfigError::OutOfRange { knob: "bs", .. })),
            "{bs:?}"
        );
    }

    #[test]
    fn knob_mismatches_name_the_design() {
        let err = DesignSpec::new(Preset::RsfqBaseline).drive_bits(6).build().unwrap_err();
        match err {
            QisimError::Config(ConfigError::KnobMismatch { knob, design }) => {
                assert_eq!(knob, "drive_bits");
                assert!(design.contains("SFQ"), "{design}");
            }
            other => panic!("wrong variant: {other:?}"),
        }
        assert!(DesignSpec::new(Preset::RoomCoax).bs(1).build().is_err());
        // A room-temperature preset reports its CMOS knobs before its SFQ
        // knobs, each group in table order.
        let err = DesignSpec::new(Preset::RoomCoax).bs(1).readout_ns(1.0).masked_isa(true).build();
        assert!(
            matches!(
                &err,
                Err(QisimError::Config(ConfigError::KnobMismatch { knob: "masked_isa", .. }))
            ),
            "{err:?}"
        );
    }

    #[test]
    fn every_knob_has_a_row_in_the_serving_manual() {
        let manual = include_str!("../../../docs/SERVING.md");
        for knob in &KNOBS {
            assert!(
                manual.contains(&format!("\n| `{}` ", knob.key)),
                "docs/SERVING.md's request-key table lacks `{}`",
                knob.key
            );
        }
    }

    #[test]
    fn budgets_and_names_are_validated() {
        let err =
            DesignSpec::new(Preset::CmosBaseline).budget(Stage::K4, -1.0).build().unwrap_err();
        assert!(
            matches!(err, QisimError::Config(ConfigError::Budget { stage: Stage::K4, .. })),
            "{err:?}"
        );
        let err = DesignSpec::new(Preset::CmosBaseline).name("  ").build().unwrap_err();
        assert!(matches!(err, QisimError::Config(ConfigError::EmptyName)), "{err:?}");
        let fridge = DesignSpec::new(Preset::CmosBaseline).budget(Stage::K4, 6.0).fridge().unwrap();
        assert_eq!(fridge.budget_w(Stage::K4), 6.0);
    }

    #[test]
    fn apply_records_the_paper_opts() {
        let spec = DesignSpec::new(Preset::RsfqBaseline)
            .apply(Opt::SharedPipelinedReadout)
            .apply(Opt::LowPowerBitgen)
            .apply(Opt::SingleBroadcast);
        assert_eq!(spec.build().unwrap(), QciDesign::rsfq_near_term());
        // A mismatched opt is recorded, then rejected at build time.
        let err = DesignSpec::new(Preset::CmosBaseline).apply(Opt::SingleBroadcast).build();
        assert!(matches!(err, Err(QisimError::Config(ConfigError::KnobMismatch { .. }))));
    }

    #[test]
    fn validate_design_catches_free_form_poison() {
        let bad =
            QciDesign::CryoCmos(CryoCmosConfig { drive_fdm: 0, ..CryoCmosConfig::baseline() });
        assert!(validate_design(&bad).is_err());
        let bad = QciDesign::CryoCmos(CryoCmosConfig {
            readout_ns: f64::NAN,
            ..CryoCmosConfig::baseline()
        });
        assert!(validate_design(&bad).is_err());
        assert!(validate_design(&QciDesign::rsfq_baseline()).is_ok());
        assert!(validate_design(&QciDesign::room_photonic()).is_ok());
    }

    #[test]
    fn estimator_labels_round_trip_and_default_to_packed() {
        for e in Estimator::ALL {
            assert_eq!(Estimator::from_label(e.label()), Some(e));
        }
        assert_eq!(Estimator::from_label("oracle"), None);
        assert_eq!(DesignSpec::new(Preset::CmosBaseline).chosen_estimator(), Estimator::Packed);
        let spec = DesignSpec::new(Preset::CmosBaseline).estimator(Estimator::Rare);
        assert_eq!(spec.chosen_estimator(), Estimator::Rare);
    }

    #[test]
    fn estimator_is_valid_on_every_preset() {
        // The estimator is an analysis knob: unlike drive_bits or bs it
        // must never trip the technology-mismatch checks.
        for preset in Preset::ALL {
            for e in Estimator::ALL {
                let spec = DesignSpec::new(preset).estimator(e);
                assert!(spec.build().is_ok(), "{preset:?} + {e:?}");
                // ...and it never changes the built design itself.
                assert_eq!(spec.build().unwrap(), DesignSpec::new(preset).build().unwrap());
            }
        }
    }

    #[test]
    fn topology_knobs_validate_and_compose_with_budgets() {
        let spec = DesignSpec::new(Preset::CmosBaseline)
            .fridges(4)
            .link(LinkKind::Photonic)
            .links_per_fridge(8)
            .shared_controllers(false)
            .budget(Stage::K4, 3.0);
        let t = spec.topology().unwrap();
        assert_eq!(t.fridges(), 4);
        assert_eq!(t.link(), LinkKind::Photonic);
        assert_eq!(t.links_per_fridge(), 8);
        assert!(!t.shared_controllers());
        // Budget overrides ride along on every fridge in the cluster.
        assert_eq!(t.fridge().budget_w(Stage::K4), 3.0);
        assert!(spec.has_scale_out());
        assert!(spec.build().is_ok(), "topology knobs are technology-neutral");

        // Defaults: the degenerate single-fridge topology.
        let plain = DesignSpec::new(Preset::CmosBaseline);
        assert_eq!(plain.topology().unwrap(), FridgeTopology::standard());
        assert!(!plain.has_scale_out());
        assert!(!DesignSpec::new(Preset::CmosBaseline).fridges(1).has_scale_out());

        // Out-of-range counts are typed diagnostics at build and topology.
        for bad in [
            DesignSpec::new(Preset::CmosBaseline).fridges(0),
            DesignSpec::new(Preset::CmosBaseline).fridges(1025),
            DesignSpec::new(Preset::CmosBaseline).links_per_fridge(0),
            DesignSpec::new(Preset::CmosBaseline).links_per_fridge(65),
        ] {
            assert!(matches!(
                bad.topology().unwrap_err(),
                QisimError::Config(ConfigError::OutOfRange { .. })
            ));
            assert!(bad.build().is_err());
        }
    }

    #[test]
    fn topology_knobs_are_valid_on_every_preset() {
        for preset in Preset::ALL {
            let spec = DesignSpec::new(preset).fridges(4).link(LinkKind::CryoCoax);
            assert!(spec.build().is_ok(), "{preset:?}");
            // Topology never changes the built design itself.
            assert_eq!(spec.build().unwrap(), DesignSpec::new(preset).build().unwrap());
        }
    }

    #[test]
    fn display_name_prefers_the_override() {
        let spec = DesignSpec::new(Preset::CmosBaseline).name("my qci");
        assert_eq!(spec.display_name(), "my qci");
        let spec = DesignSpec::new(Preset::CmosBaseline);
        assert_eq!(spec.display_name(), QciDesign::cmos_baseline().name());
        // Unbuildable specs fall back to the preset id.
        assert_eq!(
            DesignSpec::new(Preset::CmosBaseline).drive_fdm(0).display_name(),
            "cmos_baseline"
        );
    }
}
