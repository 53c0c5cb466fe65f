//! The headline scalability analysis (Fig. 6 right-hand side): combine
//! the runtime-power model and the logical-error model into the
//! *manageable qubit scale* of a QCI design.
//!
//! A design supports `n` qubits iff (1) its total dissipation fits every
//! refrigerator stage at scale `n`, and (2) its logical error at `d = 23`
//! meets the roadmap target. The paper reports the power-limited count
//! when the error target is met; a design failing the error target is
//! "error-limited" regardless of its power headroom (like the
//! naively-shared RSFQ readout, Fig. 13b).

use crate::config::QciDesign;
use crate::engine;
use crate::spec::Estimator;
use qisim_hal::fridge::{Fridge, Stage};
use qisim_hal::topology::{FridgeTopology, LinkKind};
use qisim_power::StagePower;
use qisim_surface::target::Target;
use std::fmt::Write as _;

/// The scalability verdict of one design against one roadmap target.
#[derive(Debug, Clone, PartialEq)]
pub struct Scalability {
    /// Design name.
    pub design: String,
    /// Maximum qubit count the refrigerator budgets allow.
    pub power_limited_qubits: u64,
    /// The stage that binds at that scale.
    pub binding_stage: Option<Stage>,
    /// Per-stage power accounting at the power-limited scale (warm →
    /// cold) — where every watt goes when the design tops out.
    pub stages: Vec<StagePower>,
    /// Logical error per round at `d = 23`.
    pub logical_error: f64,
    /// The target analyzed against.
    pub target_error: f64,
    /// Whether the error target is met.
    pub error_ok: bool,
    /// ESM round time in ns.
    pub esm_cycle_ns: f64,
    /// Multi-fridge scale-out verdict: `None` for the classic
    /// single-fridge analysis (every pre-scale-out report stays
    /// byte-identical), `Some` when the topology has more than one
    /// fridge.
    pub scale_out: Option<ScaleOut>,
}

/// What binds a multi-fridge cluster first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScaleOutBinding {
    /// A refrigerator stage's budget binds on the design's own
    /// dissipation — more interconnect won't help, the fridge itself is
    /// full.
    StageBudget(Stage),
    /// The inter-fridge links' heat at this stage is what crowds out the
    /// design — a lighter link technology or fewer links buys scale.
    Link(Stage),
}

impl ScaleOutBinding {
    /// Stable text-codec identifier (`stage:<label>` / `link:<label>`).
    pub fn label(self) -> String {
        match self {
            ScaleOutBinding::StageBudget(s) => format!("stage:{}", s.label()),
            ScaleOutBinding::Link(s) => format!("link:{}", s.label()),
        }
    }

    /// Inverse of [`ScaleOutBinding::label`]; `None` for unknown text.
    pub fn from_label(label: &str) -> Option<ScaleOutBinding> {
        let (kind, stage) = label.split_once(':')?;
        let stage = Stage::from_label(stage)?;
        match kind {
            "stage" => Some(ScaleOutBinding::StageBudget(stage)),
            "link" => Some(ScaleOutBinding::Link(stage)),
            _ => None,
        }
    }

    /// The refrigerator stage where the constraint lives.
    pub fn stage(self) -> Stage {
        match self {
            ScaleOutBinding::StageBudget(s) | ScaleOutBinding::Link(s) => s,
        }
    }
}

/// The datacenter-scale half of a [`Scalability`] verdict: how a design
/// tiles across N fridges, what the interconnect costs, and how many
/// fridges the requested target takes.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleOut {
    /// Fridge count analyzed.
    pub fridges: u32,
    /// Inter-fridge link technology.
    pub link: LinkKind,
    /// Inter-fridge links terminating in each fridge.
    pub links_per_fridge: u32,
    /// Whether one room-temperature controller rack serves the cluster.
    pub shared_controllers: bool,
    /// Qubits each fridge supports after interconnect heat is folded
    /// into its stage budgets.
    pub per_fridge_qubits: u64,
    /// Interconnect heat folded into each fridge's stages, in watts
    /// (warm → cold, indexed like [`Stage::ALL`]).
    pub interconnect_w: [f64; 5],
    /// The target's provisioned physical-qubit count.
    pub target_qubits: u64,
    /// Fridges needed to reach `target_qubits` at this per-fridge yield;
    /// `None` when the interconnect eats a stage whole and the
    /// per-fridge yield is zero (no fridge count reaches the target).
    pub fridges_to_target: Option<u64>,
    /// What binds first at the per-fridge scale.
    pub binding: Option<ScaleOutBinding>,
}

impl Scalability {
    /// The manageable qubit scale: power-limited if the error target is
    /// met, zero otherwise (the design cannot run the workload at any
    /// scale).
    pub fn manageable_qubits(&self) -> u64 {
        if self.error_ok {
            self.power_limited_qubits
        } else {
            0
        }
    }

    /// Whether the design reaches the target's provisioned scale.
    pub fn reaches(&self, target: &Target) -> bool {
        self.error_ok && self.power_limited_qubits >= target.physical_qubits() as u64
    }

    /// A human-readable report of *why* the design tops out where it
    /// does: error-limited designs name the failing error target,
    /// power-limited designs name the binding refrigerator stage, and
    /// every stage's utilization and watt attribution is itemized.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}:", self.design);
        if !self.error_ok {
            let _ = writeln!(
                out,
                "  error-limited: logical error {:.3e} misses the {:.3e} target \
                 (manageable scale 0; power alone would allow {} qubits)",
                self.logical_error, self.target_error, self.power_limited_qubits
            );
        } else {
            match self.binding_stage {
                Some(stage) => {
                    let util = self
                        .stages
                        .iter()
                        .find(|s| s.stage == stage)
                        .map_or(f64::NAN, StagePower::utilization);
                    let _ = writeln!(
                        out,
                        "  power-limited at {} qubits by the {} stage ({:.1}% of budget)",
                        self.power_limited_qubits,
                        stage,
                        100.0 * util
                    );
                }
                None => {
                    let _ = writeln!(
                        out,
                        "  power-limited at {} qubits (no single binding stage)",
                        self.power_limited_qubits
                    );
                }
            }
            let _ = writeln!(
                out,
                "  logical error {:.3e} meets the {:.3e} target (ESM round {:.1} ns)",
                self.logical_error, self.target_error, self.esm_cycle_ns
            );
        }
        if let Some(so) = &self.scale_out {
            let _ = writeln!(
                out,
                "  scale-out: {} fridges x {} qubits/fridge over {} {} link(s)/fridge \
                 (controllers {})",
                so.fridges,
                so.per_fridge_qubits,
                so.links_per_fridge,
                so.link,
                if so.shared_controllers { "shared" } else { "dedicated" },
            );
            match so.binding {
                Some(ScaleOutBinding::StageBudget(stage)) => {
                    let _ = writeln!(
                        out,
                        "    binding constraint: the {stage} stage budget (the design's own \
                         dissipation tops out each fridge)",
                    );
                }
                Some(ScaleOutBinding::Link(stage)) => {
                    let _ = writeln!(
                        out,
                        "    binding constraint: interconnect link heat at the {stage} stage \
                         (lighter links or fewer of them buy scale)",
                    );
                }
                None => {
                    let _ = writeln!(out, "    binding constraint: none identified");
                }
            }
            let interconnect: Vec<String> = Stage::ALL
                .iter()
                .zip(so.interconnect_w.iter())
                .filter(|(_, w)| **w > 0.0)
                .map(|(s, w)| format!("{} {:.2e} W", s.label(), w))
                .collect();
            if !interconnect.is_empty() {
                let _ =
                    writeln!(out, "    interconnect heat per fridge: {}", interconnect.join(", "));
            }
            match so.fridges_to_target {
                Some(n) => {
                    let _ = writeln!(
                        out,
                        "    fridges to reach the {}-qubit target: {n}",
                        so.target_qubits
                    );
                }
                None => {
                    let _ = writeln!(
                        out,
                        "    the {}-qubit target is unreachable at any fridge count \
                         (interconnect heat consumes a stage budget)",
                        so.target_qubits
                    );
                }
            }
        }
        if !self.stages.is_empty() {
            // Multi-fridge verdicts attribute watts per fridge at the
            // per-fridge yield; classic verdicts at the machine scale.
            let (scope, n) = match &self.scale_out {
                Some(so) => (" (per fridge)", so.per_fridge_qubits.max(1)),
                None => ("", self.power_limited_qubits.max(1)),
            };
            let _ = writeln!(out, "  per-stage power{scope} at n = {n}:");
            for s in &self.stages {
                let _ = writeln!(
                    out,
                    "    {:>5}: {:>10.4e} W of {:>9.3e} W budget ({:>6.1}%) \
                     [static {:.2e}, dynamic {:.2e}, wire {:.2e}, link {:.2e}]",
                    s.stage.label(),
                    s.total_w(),
                    s.budget_w,
                    100.0 * s.utilization(),
                    s.device_static_w,
                    s.device_dynamic_w,
                    s.wire_w,
                    s.instr_link_w,
                );
            }
        }
        // The power memo cache holds the power landing behind this
        // verdict; its process-wide hit rate says how many analyses were
        // answered without re-running the landing search. All five
        // numbers come from one read of the cache's own lifetime
        // counters, so `obs::reset()` and a disabled metric store cannot
        // split them across two windows.
        let stats = qisim_power::cache_stats();
        if stats.hits + stats.misses > 0 {
            let _ = writeln!(
                out,
                "  power memo cache: {} hits / {} misses ({:.1}% hit rate, \
                 process-wide); {} entries resident of {} cap, {} evicted",
                stats.hits,
                stats.misses,
                100.0 * stats.hit_rate(),
                stats.len,
                stats.cap,
                stats.evictions,
            );
        }
        let snap = qisim_obs::snapshot();
        // Monte-Carlo estimator counters (process-wide): present only
        // after a sliced or rare-event estimation ran, mirroring the
        // conditional cache block above.
        if let Some(trials) = snap.counter("surface.sliced.trials") {
            let fallback = snap.counter("surface.sliced.fallback_trials").unwrap_or(0);
            let isolated = snap.counter("surface.montecarlo.fastpath.isolated").unwrap_or(0);
            let singles = snap.counter("surface.montecarlo.singles_settled").unwrap_or(0);
            let split_fallbacks = snap.counter("surface.montecarlo.split_fallbacks").unwrap_or(0);
            if trials > 0 {
                let share = |n: u64| 100.0 * n as f64 / trials as f64;
                let _ = writeln!(
                    out,
                    "  sliced MC engine: {trials} trials, {fallback} decoder fallbacks \
                     ({:.1}% settled without a decode, {:.1}% isolated trials that cannot \
                     fail, process-wide); decoded trials of both estimators split \
                     {singles} single errors off a decoded remainder, with \
                     {split_fallbacks} split fallbacks",
                    share(trials.saturating_sub(fallback).saturating_sub(isolated)),
                    share(isolated),
                );
            }
        }
        if let Some(trials) = snap.counter("surface.rare.trials") {
            let weights = snap.counter("surface.rare.stage_weights").unwrap_or(0);
            if trials > 0 {
                let _ = writeln!(
                    out,
                    "  rare-event sampler: {trials} trials in the kept ladder stages \
                     the estimates combined, {weights} ladder stages carrying weight \
                     (process-wide)",
                );
            }
        }
        out
    }
}

/// Analyzes a design against a roadmap target on the standard fridge.
///
/// Infallible: panics with the typed diagnostic's text on a malformed
/// design or target (DESIGN.md error-handling policy — batch callers
/// should use [`engine::try_analyze_topology`] or
/// [`engine::try_analyze_spec`]).
pub fn analyze(design: &QciDesign, target: &Target) -> Scalability {
    analyze_on(design, target, &Fridge::standard())
}

/// [`analyze`] with a custom refrigerator (future-capacity what-ifs,
/// §7.1): a one-fridge [`engine::try_analyze_topology`] with the
/// analytic [`Estimator::Packed`] logical-error stage.
pub fn analyze_on(design: &QciDesign, target: &Target, fridge: &Fridge) -> Scalability {
    let topology = FridgeTopology::standard().with_fridge(fridge.clone());
    // Allowlisted panic (tools/panic_allowlist.txt): infallible wrapper.
    engine::try_analyze_topology(design, target, &topology, Estimator::Packed)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// One row of a scalability utilization curve (the Fig. 12/13/17 plot
/// data that [`engine::try_sweep`] returns): a design evaluated at one
/// qubit count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Evaluated qubit count.
    pub qubits: u64,
    /// Total dissipation summed over every refrigerator stage, in watts.
    pub power_w: f64,
    /// 4 K stage utilization (fraction of the stage budget).
    pub util_4k: f64,
    /// Worst mK-stage utilization (100 mK vs. 20 mK).
    pub util_mk: f64,
    /// Logical error per round at `d = 23` (scale-independent for a
    /// fixed design, so constant along a sweep).
    pub logical_error: f64,
}

impl SweepPoint {
    /// The binding utilization: the worst of the tracked stages.
    pub fn utilization(&self) -> f64 {
        self.util_4k.max(self.util_mk)
    }

    /// Whether every tracked stage is within its cooling budget here.
    pub fn fits(&self) -> bool {
        self.utilization() <= 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opts::{apply_all, Opt};

    #[test]
    fn near_term_verdicts_match_fig13() {
        let t = Target::near_term();
        // CMOS baseline: error fine, power-limited under 1,152.
        let base = analyze(&QciDesign::cmos_baseline(), &t);
        assert!(base.error_ok);
        assert!(!base.reaches(&t), "baseline should miss 1,152: {base:?}");
        // Opt-1 + Opt-2 reach it.
        let opt = apply_all(
            &QciDesign::cmos_baseline(),
            &[Opt::MemorylessDecision, Opt::LowPrecisionDrive],
        )
        .unwrap();
        assert!(analyze(&opt, &t).reaches(&t));
        // RSFQ baseline misses on power; the optimized design reaches.
        assert!(!analyze(&QciDesign::rsfq_baseline(), &t).reaches(&t));
        assert!(analyze(&QciDesign::rsfq_near_term(), &t).reaches(&t));
    }

    #[test]
    fn naive_sharing_is_error_limited() {
        // Fig. 15: naive sharing solves the power problem but the
        // serialized readout wrecks the logical error.
        let naive = QciDesign::Sfq(qisim_microarch::SfqConfig {
            sharing: qisim_microarch::sfq::JpmSharing::SharedNaive,
            ..qisim_microarch::SfqConfig::baseline_rsfq()
        });
        let s = analyze(&naive, &Target::near_term());
        assert!(!s.error_ok, "naive sharing must be error-limited: {s:?}");
        assert_eq!(s.manageable_qubits(), 0);
        assert!(s.power_limited_qubits > 500, "power alone would allow scale");
    }

    #[test]
    fn long_term_verdicts_match_fig17() {
        let t = Target::long_term();
        let cmos = analyze(&QciDesign::cmos_long_term(), &t);
        assert!(cmos.reaches(&t), "advanced CMOS should reach 62,208: {cmos:?}");
        let ersfq = analyze(&QciDesign::ersfq_long_term(), &t);
        assert!(ersfq.reaches(&t), "ERSFQ should reach 62,208: {ersfq:?}");
        // Without Opt-7 the advanced CMOS is error-limited.
        let no_opt7 = QciDesign::CryoCmos(qisim_microarch::CryoCmosConfig {
            drive_fdm: 32,
            readout_ns: qisim_microarch::cryo_cmos::READOUT_NS,
            ..qisim_microarch::CryoCmosConfig::long_term()
        });
        let s = analyze(&no_opt7, &t);
        assert!(!s.error_ok, "pre-Opt-7 advanced CMOS should be error-limited: {s:?}");
    }

    #[test]
    fn room_designs_are_wire_limited() {
        let t = Target::near_term();
        for d in [QciDesign::room_coax(), QciDesign::room_microstrip(), QciDesign::room_photonic()]
        {
            let s = analyze(&d, &t);
            assert!(s.error_ok, "{}: 300K error should be fine", s.design);
            assert!(!s.reaches(&t), "{}: must miss 1,152 qubits", s.design);
            assert!(
                matches!(s.binding_stage, Some(Stage::Mk100) | Some(Stage::Mk20)),
                "{}: binding {:?}",
                s.design,
                s.binding_stage
            );
        }
    }

    #[test]
    fn explain_names_the_binding_stage() {
        let s = analyze(&QciDesign::cmos_baseline(), &Target::near_term());
        let text = s.explain();
        assert!(text.contains("power-limited"), "{text}");
        assert!(text.contains("4K"), "{text}");
        assert!(text.contains("per-stage power"), "{text}");
        assert_eq!(s.stages.len(), Stage::ALL.len());
    }

    #[test]
    fn explain_reports_the_memo_cache_hit_rate() {
        // The power stage behind analyze() always looks its landing up in
        // the memo cache, so the counters exist by the time explain()
        // renders.
        let s = analyze(&QciDesign::cmos_baseline(), &Target::near_term());
        let text = s.explain();
        assert!(text.contains("power memo cache"), "{text}");
        assert!(text.contains("hit rate"), "{text}");
    }

    #[test]
    fn explain_reports_the_estimator_counters_once_they_exist() {
        use crate::engine::try_analyze_topology;
        let t = Target::near_term();
        let d = QciDesign::cmos_baseline();
        let standard = FridgeTopology::standard();
        // Run both estimators so their process-wide counters exist
        // before explain() renders.
        try_analyze_topology(&d, &t, &standard, Estimator::Sliced).unwrap();
        let rare = try_analyze_topology(&d, &t, &standard, Estimator::Rare).unwrap();
        let text = rare.explain();
        assert!(text.contains("sliced MC engine"), "{text}");
        assert!(text.contains("settled without a decode"), "{text}");
        assert!(text.contains("isolated trials that cannot fail"), "{text}");
        assert!(text.contains("single errors off a decoded remainder"), "{text}");
        assert!(text.contains("split fallbacks"), "{text}");
        assert!(text.contains("rare-event sampler"), "{text}");
        assert!(text.contains("ladder stages carrying weight"), "{text}");
    }

    #[test]
    fn explain_reports_error_limited_designs() {
        let naive = QciDesign::Sfq(qisim_microarch::SfqConfig {
            sharing: qisim_microarch::sfq::JpmSharing::SharedNaive,
            ..qisim_microarch::SfqConfig::baseline_rsfq()
        });
        let text = analyze(&naive, &Target::near_term()).explain();
        assert!(text.contains("error-limited"), "{text}");
        assert!(text.contains("misses"), "{text}");
    }

    #[test]
    fn sweep_produces_monotone_utilizations() {
        let rows = engine::try_sweep(&QciDesign::cmos_baseline(), &[64, 128, 256, 512]).unwrap();
        assert_eq!(rows.len(), 4);
        for (row, &n) in rows.iter().zip(&[64u64, 128, 256, 512]) {
            assert_eq!(row.qubits, n, "rows must stay in input order");
        }
        for w in rows.windows(2) {
            assert!(w[1].util_4k > w[0].util_4k, "4K utilization must grow");
            assert!(w[1].power_w > w[0].power_w, "total power must grow");
        }
        let last = rows.last().unwrap();
        assert_eq!(last.utilization(), last.util_4k.max(last.util_mk));
        assert!(rows[0].fits(), "64 qubits must fit the baseline budgets");
    }

    #[test]
    fn analyze_many_matches_serial_analysis_at_any_thread_count() {
        let t = Target::near_term();
        let designs =
            [QciDesign::cmos_baseline(), QciDesign::rsfq_baseline(), QciDesign::room_coax()];
        let serial: Vec<Scalability> = designs.iter().map(|d| analyze(d, &t)).collect();
        for threads in [1usize, 3] {
            qisim_par::set_threads(Some(threads));
            let pooled = qisim_par::par_map(&designs, |d| analyze(d, &t));
            assert_eq!(pooled, serial, "{threads} threads");
        }
        qisim_par::set_threads(None);
    }

    #[test]
    fn bigger_fridge_extends_scale() {
        let t = Target::near_term();
        let d = QciDesign::cmos_baseline();
        let std = analyze(&d, &t).power_limited_qubits;
        let big = analyze_on(&d, &t, &Fridge::standard().with_budget(Stage::K4, 6.0))
            .power_limited_qubits;
        assert!(big as f64 > 3.0 * std as f64);
    }
}
