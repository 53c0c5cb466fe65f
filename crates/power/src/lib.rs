//! # qisim-power
//!
//! Runtime-power model for the QIsim scalability framework (reproduction
//! of Min et al., *QIsim*, ISCA 2023 — §4.3): aggregates a QCI
//! microarchitecture's device static/dynamic power, analog-cable heat
//! loads, and 300K→4K instruction-link heat per refrigerator stage, and
//! checks the totals against the dilution refrigerator's cooling budgets.
//!
//! # Examples
//!
//! ```
//! use qisim_power::{evaluate, max_qubits};
//! use qisim_microarch::CryoCmosConfig;
//! use qisim_hal::fridge::{Fridge, Stage};
//!
//! let arch = CryoCmosConfig::baseline().build();
//! let fridge = Fridge::standard();
//! let report = evaluate(&arch, &fridge, 1024);
//! assert!(!report.fits()); // the baseline dies before 1,024 qubits...
//! let (max, binding) = max_qubits(&arch, &fridge);
//! assert!(max < 1024);     // ...at the 4 K stage (Fig. 13a)
//! assert_eq!(binding, Some(Stage::K4));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod memo;

pub use memo::{cache_stats, clear_cache, set_cache_cap, CacheStats, MemoKey, DEFAULT_CACHE_CAP};

use qisim_hal::fridge::{Fridge, Stage};
use qisim_hal::wire::InstructionLink;
use qisim_microarch::QciArch;
use qisim_obs::{counter, span, FastGauge};
use std::fmt;

/// Typed failure of the runtime-power model.
///
/// Library entry points return this through the `try_*` functions; the
/// infallible wrappers ([`evaluate`], [`max_qubits`], …) keep their
/// historical panic behavior for the paper drivers. `qisim`'s
/// `QisimError::Power` variant wraps this error and exposes it through
/// [`std::error::Error::source`], so callers can match on the concrete
/// power failure across the crate boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum PowerError {
    /// A power evaluation was requested at zero qubits. The model's
    /// per-qubit amortizations (shared banks, FDM groups) are undefined
    /// there, and the bisection never probes it.
    NoQubits,
}

impl fmt::Display for PowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Exactly the historical `assert!` message, so the
            // infallible wrappers panic with the same text as before.
            PowerError::NoQubits => f.write_str("need at least one qubit"),
        }
    }
}

impl std::error::Error for PowerError {}

/// Power accounting of one refrigerator stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StagePower {
    /// The stage.
    pub stage: Stage,
    /// Device static power in watts.
    pub device_static_w: f64,
    /// Device dynamic power in watts.
    pub device_dynamic_w: f64,
    /// Analog-cable heat load in watts.
    pub wire_w: f64,
    /// 300K→4K digital instruction-link heat in watts (4 K stage only).
    pub instr_link_w: f64,
    /// Stage cooling budget in watts.
    pub budget_w: f64,
}

impl StagePower {
    /// Total dissipation at the stage.
    pub fn total_w(&self) -> f64 {
        self.device_static_w + self.device_dynamic_w + self.wire_w + self.instr_link_w
    }

    /// Fraction of the stage budget consumed.
    pub fn utilization(&self) -> f64 {
        self.total_w() / self.budget_w
    }

    /// Whether the stage is within budget.
    pub fn fits(&self) -> bool {
        self.total_w() <= self.budget_w
    }
}

/// A full per-stage power report for one design at one qubit count.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerReport {
    /// Evaluated qubit count.
    pub n_qubits: u64,
    /// Per-stage accounting (warm → cold).
    pub stages: Vec<StagePower>,
}

impl PowerReport {
    /// Whether every stage is within budget.
    pub fn fits(&self) -> bool {
        self.stages.iter().all(StagePower::fits)
    }

    /// The most-loaded stage (by utilization).
    ///
    /// Uses [`f64::total_cmp`], so a degenerate report (a zero-budget
    /// stage yielding a NaN utilization) still returns a stage instead
    /// of panicking mid-pipeline; NaN orders above every finite
    /// utilization and therefore surfaces as the binding stage.
    pub fn binding_stage(&self) -> Option<Stage> {
        self.stages
            .iter()
            .max_by(|a, b| a.utilization().total_cmp(&b.utilization()))
            .map(|s| s.stage)
    }

    /// The accounting row for one stage.
    pub fn stage(&self, stage: Stage) -> Option<&StagePower> {
        self.stages.iter().find(|s| s.stage == stage)
    }
}

/// Evaluates a design's per-stage power at `n_qubits` using the standard
/// 6 Gb/s instruction link.
///
/// # Panics
///
/// Panics if `n_qubits == 0`; use [`try_evaluate`] for a typed error.
pub fn evaluate(arch: &QciArch, fridge: &Fridge, n_qubits: u64) -> PowerReport {
    evaluate_with_link(arch, fridge, n_qubits, &InstructionLink::standard())
}

/// Fallible [`evaluate`]: zero qubits is a [`PowerError::NoQubits`]
/// diagnostic instead of a process abort.
///
/// # Errors
///
/// Returns [`PowerError::NoQubits`] when `n_qubits == 0`.
pub fn try_evaluate(
    arch: &QciArch,
    fridge: &Fridge,
    n_qubits: u64,
) -> Result<PowerReport, PowerError> {
    try_evaluate_with_link(arch, fridge, n_qubits, &InstructionLink::standard())
}

/// Evaluates with a custom instruction link (future-technology what-ifs).
///
/// # Panics
///
/// Panics if `n_qubits == 0`; use [`try_evaluate_with_link`] for a typed
/// error.
pub fn evaluate_with_link(
    arch: &QciArch,
    fridge: &Fridge,
    n_qubits: u64,
    link: &InstructionLink,
) -> PowerReport {
    // Allowlisted panic (tools/panic_allowlist.txt): the infallible
    // wrapper keeps the historical abort-with-message behavior.
    try_evaluate_with_link(arch, fridge, n_qubits, link).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`evaluate_with_link`].
///
/// # Errors
///
/// Returns [`PowerError::NoQubits`] when `n_qubits == 0`.
pub fn try_evaluate_with_link(
    arch: &QciArch,
    fridge: &Fridge,
    n_qubits: u64,
    link: &InstructionLink,
) -> Result<PowerReport, PowerError> {
    if n_qubits == 0 {
        return Err(PowerError::NoQubits);
    }
    // Counted, not timed: a span's two clock reads would add ~20 % to
    // this sub-µs call.
    counter!("power.evaluate.calls");
    let stages = Stage::ALL
        .iter()
        .map(|&stage| StagePower {
            stage,
            device_static_w: arch.device_static_w(stage, n_qubits),
            device_dynamic_w: arch.device_dynamic_w(stage, n_qubits),
            wire_w: arch.wire_load_w(stage, n_qubits),
            instr_link_w: if stage == Stage::K4 {
                link.power_4k_w(arch.instr_bandwidth_bps(n_qubits))
            } else {
                0.0
            },
            budget_w: fridge.budget_w(stage),
        })
        .collect();
    Ok(PowerReport { n_qubits, stages })
}

/// The maximum qubit count the refrigerator can power for this design,
/// and the stage that binds at that scale (§4.3 → Fig. 12/13/17).
///
/// Binary search over qubit count (power is monotone in `n`). The
/// result is cached per design in the [`memo`] cache, so re-analyzing a
/// design — the experiment suite does this constantly — costs one
/// lookup.
pub fn max_qubits(arch: &QciArch, fridge: &Fridge) -> (u64, Option<Stage>) {
    max_qubits_with_link(arch, fridge, &InstructionLink::standard())
}

/// Fallible [`max_qubits`]. The bisection itself only ever probes
/// `n ≥ 1`, so this currently cannot fail on any constructible input;
/// the `Result` keeps the signature honest as the model grows fallible
/// inputs (custom fridges, link models).
///
/// # Errors
///
/// Propagates any [`PowerError`] raised by a bisection probe.
pub fn try_max_qubits(arch: &QciArch, fridge: &Fridge) -> Result<(u64, Option<Stage>), PowerError> {
    let (n, binding, _) = try_max_qubits_with_link(arch, fridge, &InstructionLink::standard())?;
    Ok((n, binding))
}

/// [`max_qubits`] with a custom instruction link.
pub fn max_qubits_with_link(
    arch: &QciArch,
    fridge: &Fridge,
    link: &InstructionLink,
) -> (u64, Option<Stage>) {
    // Allowlisted panic (tools/panic_allowlist.txt): infallible wrapper.
    let (n, binding, _) =
        try_max_qubits_with_link(arch, fridge, link).unwrap_or_else(|e| panic!("{e}"));
    (n, binding)
}

/// Fallible [`max_qubits_with_link`] that also hands back the landing
/// report: the probe at `max(n, 1)` qubits, whose per-stage watts are
/// the design's attribution at its power-limited scale.
///
/// A repeat call is one [`memo`] lookup; either way the landing
/// publishes the `power.stage.*` attribution gauges.
///
/// # Errors
///
/// Propagates any [`PowerError`] raised by a bisection probe.
pub fn try_max_qubits_with_link(
    arch: &QciArch,
    fridge: &Fridge,
    link: &InstructionLink,
) -> Result<(u64, Option<Stage>, PowerReport), PowerError> {
    span!("power.max_qubits");
    let key = MemoKey::new(arch, fridge, link);
    let landing = match memo::lookup(key) {
        Some(landing) => landing,
        None => {
            let landing = bisect(arch, fridge, link)?;
            memo::store(key, landing.clone());
            landing
        }
    };
    record_stage_gauges(&landing.2);
    Ok(landing)
}

/// The uncached bisection behind [`try_max_qubits_with_link`].
fn bisect(
    arch: &QciArch,
    fridge: &Fridge,
    link: &InstructionLink,
) -> Result<memo::Landing, PowerError> {
    let probe = |n: u64| try_evaluate_with_link(arch, fridge, n, link);
    let first = probe(1)?;
    if !first.fits() {
        let binding = first.binding_stage();
        return Ok((0, binding, first));
    }
    let mut lo = 1u64; // fits
    let mut hi = 2u64;
    while probe(hi)?.fits() {
        counter!("power.bisection.iters");
        if qisim_obs::trace::armed() {
            qisim_obs::trace::instant("power.bisection.probe", &[("qubits", hi as f64)]);
        }
        lo = hi;
        hi *= 2;
        if hi > 1 << 40 {
            return Ok((lo, None, probe(lo)?)); // effectively unbounded by power
        }
    }
    while hi - lo > 1 {
        counter!("power.bisection.iters");
        let mid = lo + (hi - lo) / 2;
        if qisim_obs::trace::armed() {
            qisim_obs::trace::instant("power.bisection.probe", &[("qubits", mid as f64)]);
        }
        if probe(mid)?.fits() {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let binding = probe(hi)?.binding_stage();
    Ok((lo, binding, probe(lo)?))
}

/// One row of `power.stage.<label>.*` gauge handles per stage label.
macro_rules! stage_gauge_rows {
    ($($label:literal),*) => {
        [$([
            FastGauge::new(concat!("power.stage.", $label, ".device_static_w")),
            FastGauge::new(concat!("power.stage.", $label, ".device_dynamic_w")),
            FastGauge::new(concat!("power.stage.", $label, ".wire_w")),
            FastGauge::new(concat!("power.stage.", $label, ".instr_link_w")),
            FastGauge::new(concat!("power.stage.", $label, ".total_w")),
            FastGauge::new(concat!("power.stage.", $label, ".budget_w")),
            FastGauge::new(concat!("power.stage.", $label, ".utilization")),
        ]),*]
    };
}

/// The per-stage attribution gauges, one row per stage in [`Stage::ALL`]
/// order, so a landing sets them without formatting or looking up a
/// name.
static STAGE_GAUGES: [[FastGauge; 7]; 5] = stage_gauge_rows!["50K", "4K", "1K", "100mK", "20mK"];

/// Publishes per-stage watt attribution and utilization gauges for a
/// report (called with every bisection landing, cached or fresh, so the
/// gauges show where every watt goes at the design's maximum scale).
fn record_stage_gauges(report: &PowerReport) {
    if !qisim_obs::enabled() {
        return;
    }
    for s in &report.stages {
        let Some(row) = Stage::ALL.iter().position(|&stage| stage == s.stage) else {
            continue;
        };
        let [static_w, dynamic_w, wire_w, link_w, total_w, budget_w, utilization] =
            &STAGE_GAUGES[row];
        static_w.set(s.device_static_w);
        dynamic_w.set(s.device_dynamic_w);
        wire_w.set(s.wire_w);
        link_w.set(s.instr_link_w);
        total_w.set(s.total_w());
        budget_w.set(s.budget_w);
        utilization.set(s.utilization());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qisim_microarch::{CryoCmosConfig, DecisionKind, RoomInterconnect, SfqConfig};

    #[test]
    fn report_structure() {
        let _l = memo::global_test_lock();
        let arch = CryoCmosConfig::baseline().build();
        let r = evaluate(&arch, &Fridge::standard(), 128);
        assert_eq!(r.stages.len(), 5);
        assert!(r.stage(Stage::K4).unwrap().device_dynamic_w > 0.0);
        assert_eq!(r.stage(Stage::Mk20).unwrap().instr_link_w, 0.0);
        assert!(r.stage(Stage::K4).unwrap().instr_link_w > 0.0);
    }

    #[test]
    fn cmos_baseline_binds_at_4k_near_700() {
        let _l = memo::global_test_lock();
        // Fig. 13a: "the 4K CMOS QCI cannot support more than 700 qubits".
        let arch = CryoCmosConfig::baseline().build();
        let (max, binding) = max_qubits(&arch, &Fridge::standard());
        assert!(max > 450 && max < 900, "baseline 4K CMOS max {max}");
        assert_eq!(binding, Some(Stage::K4));
    }

    #[test]
    fn opt1_opt2_reach_the_near_term_scale() {
        let _l = memo::global_test_lock();
        // Fig. 13a: Opt-1 + Opt-2 lift the design to 1,399 qubits.
        let cfg = CryoCmosConfig {
            decision: DecisionKind::Memoryless,
            drive_bits: 6,
            ..CryoCmosConfig::baseline()
        };
        let (max, _) = max_qubits(&cfg.build(), &Fridge::standard());
        assert!(max >= 1152, "optimized 4K CMOS max {max}");
        assert!(max < 2200, "optimized 4K CMOS max {max}");
    }

    #[test]
    fn room_temperature_designs_bind_at_mk_stages() {
        let _l = memo::global_test_lock();
        for (kind, lo, hi, stage) in [
            (RoomInterconnect::Coax, 250u64, 550u64, Stage::Mk100),
            (RoomInterconnect::Microstrip, 500, 900, Stage::Mk100),
            (RoomInterconnect::Photonic, 30, 120, Stage::Mk20),
        ] {
            let arch = qisim_microarch::room_cmos::build(kind);
            let (max, binding) = max_qubits(&arch, &Fridge::standard());
            assert!(max >= lo && max <= hi, "{kind:?}: max {max}");
            assert_eq!(binding, Some(stage), "{kind:?}");
        }
    }

    #[test]
    fn rsfq_baseline_binds_at_mk20_near_160() {
        let _l = memo::global_test_lock();
        let arch = SfqConfig::baseline_rsfq().build();
        let (max, binding) = max_qubits(&arch, &Fridge::standard());
        assert!(max > 100 && max < 230, "RSFQ baseline max {max}");
        assert_eq!(binding, Some(Stage::Mk20));
    }

    #[test]
    fn optimized_rsfq_reaches_1248_scale() {
        let _l = memo::global_test_lock();
        let arch = SfqConfig::near_term_optimized().build();
        let (max, _) = max_qubits(&arch, &Fridge::standard());
        assert!(max > 1000 && max < 1600, "optimized RSFQ max {max}");
    }

    #[test]
    fn ersfq_supports_the_long_term_scale() {
        let _l = memo::global_test_lock();
        let arch = SfqConfig::long_term_ersfq().build();
        let (max, _) = max_qubits(&arch, &Fridge::standard());
        assert!(max > 62_208, "ERSFQ max {max}");
    }

    #[test]
    fn bigger_budget_means_more_qubits() {
        let _l = memo::global_test_lock();
        let arch = CryoCmosConfig::baseline().build();
        let std = max_qubits(&arch, &Fridge::standard()).0;
        let big = max_qubits(&arch, &Fridge::standard().with_budget(Stage::K4, 3.0)).0;
        assert!(big as f64 > 1.8 * std as f64, "std {std} big {big}");
    }

    #[test]
    fn warm_landing_is_one_hit_with_no_evaluation() {
        let _l = memo::global_test_lock();
        let arch = CryoCmosConfig::baseline().build();
        let fridge = Fridge::standard();
        let link = InstructionLink::standard();
        clear_cache();
        // Every evaluating test in this crate holds the global test lock,
        // so `power.evaluate.calls` moves only for this test's work.
        let evaluate_calls = || qisim_obs::snapshot().counter("power.evaluate.calls");
        let cold = try_max_qubits_with_link(&arch, &fridge, &link).unwrap();
        let (before, calls_before) = (cache_stats(), evaluate_calls());
        let warm = try_max_qubits_with_link(&arch, &fridge, &link).unwrap();
        let (after, calls_after) = (cache_stats(), evaluate_calls());
        assert_eq!(warm, cold, "a cached landing equals the bisection that stored it");
        assert_eq!(after.hits - before.hits, 1, "{after:?}");
        assert_eq!(after.misses, before.misses, "{after:?}");
        assert_eq!(calls_after, calls_before, "a warm analysis evaluates nothing");
    }

    #[test]
    fn warm_landing_hit_still_publishes_stage_gauges() {
        let _l = memo::global_test_lock();
        let arch = SfqConfig::near_term_optimized().build();
        let fridge = Fridge::standard();
        let link = InstructionLink::standard();
        let _ = try_max_qubits_with_link(&arch, &fridge, &link).unwrap();
        qisim_obs::reset();
        let hits = cache_stats().hits;
        let (_, _, landing) = try_max_qubits_with_link(&arch, &fridge, &link).unwrap();
        assert_eq!(cache_stats().hits, hits + 1, "the second analysis is a hit");
        // Every attribution gauge (seven per stage) is back after the reset.
        let snap = qisim_obs::snapshot();
        let published = snap.gauges.iter().filter(|(g, _)| g.starts_with("power.stage.")).count();
        assert_eq!(published, 7 * Stage::ALL.len(), "{:?}", snap.gauges);
        let k4 = landing.stage(Stage::K4).unwrap();
        assert_eq!(snap.gauge("power.stage.4K.total_w"), Some(k4.total_w()));
    }

    #[test]
    fn repeated_bisections_replay_from_cache() {
        let _l = memo::global_test_lock();
        let arch = SfqConfig::baseline_rsfq().build();
        let fridge = Fridge::standard();
        let cold = max_qubits(&arch, &fridge);
        let warm = max_qubits(&arch, &fridge);
        assert_eq!(cold, warm);
        assert!(cache_stats().len > 0, "a bisection must populate the cache");
    }

    #[test]
    fn bisection_hands_back_its_landing_report() {
        let _l = memo::global_test_lock();
        let arch = CryoCmosConfig::baseline().build();
        let link = InstructionLink::standard();
        // A fitting design and one whose 4 K stage is starved at n = 1.
        for fridge in [Fridge::standard(), Fridge::standard().with_budget(Stage::K4, 1e-9)] {
            let (n, binding, landing) = try_max_qubits_with_link(&arch, &fridge, &link).unwrap();
            assert_eq!((n, binding), max_qubits(&arch, &fridge));
            assert_eq!(landing, evaluate_with_link(&arch, &fridge, n.max(1), &link));
        }
    }

    #[test]
    fn zero_qubits_is_a_typed_error() {
        let _l = memo::global_test_lock();
        let arch = CryoCmosConfig::baseline().build();
        let fridge = Fridge::standard();
        let link = InstructionLink::standard();
        let err = try_evaluate(&arch, &fridge, 0).unwrap_err();
        assert_eq!(err, PowerError::NoQubits);
        assert_eq!(err.to_string(), "need at least one qubit");
        assert_eq!(try_evaluate_with_link(&arch, &fridge, 0, &link), Err(PowerError::NoQubits));
    }

    #[test]
    fn try_paths_match_infallible_paths() {
        let _l = memo::global_test_lock();
        let arch = SfqConfig::baseline_rsfq().build();
        let fridge = Fridge::standard();
        assert_eq!(try_evaluate(&arch, &fridge, 512).unwrap(), evaluate(&arch, &fridge, 512));
        assert_eq!(try_max_qubits(&arch, &fridge).unwrap(), max_qubits(&arch, &fridge));
    }

    #[test]
    fn binding_stage_survives_nan_utilization() {
        // A zero-budget stage makes utilization NaN when its total is
        // also zero; `total_cmp` ranks NaN above every finite value, so
        // the degenerate stage is reported instead of panicking.
        let nan_stage = StagePower {
            stage: Stage::Mk20,
            device_static_w: 0.0,
            device_dynamic_w: 0.0,
            wire_w: 0.0,
            instr_link_w: 0.0,
            budget_w: 0.0,
        };
        let fine_stage = StagePower { budget_w: 1.5, device_static_w: 1.0, ..nan_stage };
        let report = PowerReport {
            n_qubits: 1,
            stages: vec![StagePower { stage: Stage::K4, ..fine_stage }, nan_stage],
        };
        assert!(report.stages[1].utilization().is_nan());
        assert_eq!(report.binding_stage(), Some(Stage::Mk20));
    }

    #[test]
    fn utilization_is_monotone_in_qubits() {
        let _l = memo::global_test_lock();
        let arch = CryoCmosConfig::baseline().build();
        let f = Fridge::standard();
        let u1 = evaluate(&arch, &f, 100).stage(Stage::K4).unwrap().utilization();
        let u2 = evaluate(&arch, &f, 200).stage(Stage::K4).unwrap().utilization();
        assert!(u2 > u1);
    }
}
