//! # qisim-power
//!
//! Runtime-power model for the QIsim scalability framework (reproduction
//! of Min et al., *QIsim*, ISCA 2023 — §4.3): aggregates a QCI
//! microarchitecture's device static/dynamic power, analog-cable heat
//! loads, and 300K→4K instruction-link heat per refrigerator stage, and
//! checks the totals against the dilution refrigerator's cooling budgets.
//!
//! Two questions, three doors: [`try_evaluate_with_link`] accounts one
//! design at `n` qubits, and [`max_qubits`] (or
//! [`try_max_qubits_with_link`], which also hands back the landing
//! report) searches for the largest `n` the stage budgets allow.
//!
//! # Examples
//!
//! ```
//! use qisim_power::{max_qubits, try_evaluate_with_link};
//! use qisim_microarch::CryoCmosConfig;
//! use qisim_hal::fridge::{Fridge, Stage};
//! use qisim_hal::wire::InstructionLink;
//!
//! let arch = CryoCmosConfig::baseline().build();
//! let fridge = Fridge::standard();
//! let report = try_evaluate_with_link(&arch, &fridge, 1024, &InstructionLink::standard())?;
//! assert!(!report.fits()); // the baseline dies before 1,024 qubits...
//! let (max, binding) = max_qubits(&arch, &fridge);
//! assert!(max < 1024);     // ...at the 4 K stage (Fig. 13a)
//! assert_eq!(binding, Some(Stage::K4));
//! # Ok::<(), qisim_power::PowerError>(())
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
/// [`try_evaluate_with_link`] returns it for a zero qubit count. `qisim`'s
/// `QisimError::Power` variant wraps this error and exposes it through
/// [`std::error::Error::source`], so callers can match on the concrete
/// power failure across the crate boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum PowerError {
    /// A power evaluation was requested at zero qubits. The model's
    /// per-qubit amortizations (shared banks, FDM groups) are undefined
    /// there, and the landing search never probes it.
    NoQubits,
}

impl fmt::Display for PowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
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

/// Evaluates a design's per-stage power at `n_qubits` over an
/// instruction link (§4.3; `InstructionLink::standard()` is the paper's
/// 6 Gb/s link).
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
    Ok(stage_powers(arch, fridge, n_qubits, link))
}

/// The per-stage accounting at `n_qubits ≥ 1`.
fn stage_powers(
    arch: &QciArch,
    fridge: &Fridge,
    n_qubits: u64,
    link: &InstructionLink,
) -> PowerReport {
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
    PowerReport { n_qubits, stages }
}

/// The maximum qubit count the refrigerator can power for this design
/// over the standard instruction link, and the stage that binds at that
/// scale (§4.3 → Fig. 12/13/17).
///
/// A guarded secant search over qubit count (power is monotone and close
/// to affine in `n`), about six power evaluations per design. The result
/// is cached per design in the [`memo`] cache, so re-analyzing a design —
/// the experiment suite does this constantly — costs one lookup.
pub fn max_qubits(arch: &QciArch, fridge: &Fridge) -> (u64, Option<Stage>) {
    let (n, binding, _) = landing(arch, fridge, &InstructionLink::standard());
    (n, binding)
}

/// [`max_qubits`] over any instruction link, also handing back the
/// landing report: the probe at `max(n, 1)` qubits, whose per-stage
/// watts are the design's attribution at its power-limited scale.
///
/// # Errors
///
/// Never: every probe of the landing search is at `n ≥ 1`. The
/// `Result` stays because the repository benchmark
/// (`benchmark/src/layers.rs`) calls this signature.
pub fn try_max_qubits_with_link(
    arch: &QciArch,
    fridge: &Fridge,
    link: &InstructionLink,
) -> Result<(u64, Option<Stage>, PowerReport), PowerError> {
    Ok(landing(arch, fridge, link))
}

/// The memoized landing. A repeat call is one [`memo`] lookup; either
/// way the landing publishes the `power.stage.*` attribution gauges.
fn landing(arch: &QciArch, fridge: &Fridge, link: &InstructionLink) -> memo::Landing {
    span!("power.max_qubits");
    let key = MemoKey::new(arch, fridge, link);
    let landing = memo::get_or_search(key, || search(arch, fridge, link));
    record_stage_gauges(&landing.2);
    landing
}

/// The largest qubit count a landing search probes: a design that still
/// fits there is unbounded by power.
const MAX_LANDING_QUBITS: u64 = 1 << 40;

/// One probe as the secant model sees it: the qubit count and each
/// stage's total watts, in [`Stage::ALL`] order.
#[derive(Clone, Copy)]
struct Point {
    n: f64,
    total_w: [f64; 5],
}

impl Point {
    fn of(report: &PowerReport) -> Self {
        let mut total_w = [0.0; 5];
        for (w, stage) in total_w.iter_mut().zip(&report.stages) {
            *w = stage.total_w();
        }
        Point { n: report.n_qubits as f64, total_w }
    }
}

/// Where the model that takes every stage's `total_w` as affine in `n`
/// through `a` and `b` first reaches a stage budget: the smallest root
/// over the stages whose power grows between the two probes. `None`
/// when no stage grows.
fn secant_root(a: Point, b: Point, budgets_w: &[f64; 5]) -> Option<f64> {
    (0..budgets_w.len())
        .filter_map(|i| {
            let slope = (b.total_w[i] - a.total_w[i]) / (b.n - a.n);
            let root = b.n + (budgets_w[i] - b.total_w[i]) / slope;
            (slope > 0.0 && root.is_finite()).then_some(root)
        })
        .min_by(f64::total_cmp)
}

/// The uncached landing search behind [`landing`]: the largest `n` whose
/// report fits, the stage that binds one qubit later, and the report at
/// `max(n, 1)`.
///
/// A guarded secant search. After the probes at 1 and at
/// [`MAX_LANDING_QUBITS`] it keeps a bracket — `lo` fits, `hi` does not
/// — and probes `floor` of the affine model's root through the two
/// latest probes, clamped into `(lo, hi)`. When two steps in a row fail
/// to halve the bracket, it halves instead; the first step does not
/// count, because its bracket ends at the cap rather than near the root.
/// It stops at `hi = lo + 1`. Stage power is close to affine in `n`, so
/// a landing takes about six probes; because `fits(n)` is monotone, any
/// bracket search lands where a bisection does. Every probe is at
/// `n ≥ 1`.
fn search(arch: &QciArch, fridge: &Fridge, link: &InstructionLink) -> memo::Landing {
    let probe = |n: u64| stage_powers(arch, fridge, n, link);
    let first = probe(1);
    if !first.fits() {
        return landed(0, 1, (0, first.binding_stage(), first));
    }
    let top = probe(MAX_LANDING_QUBITS);
    if top.fits() {
        return landed(0, 2, (MAX_LANDING_QUBITS, None, top));
    }
    let budgets_w = fridge.budgets_w();
    let mut model = [Point::of(&first), Point::of(&top)];
    let (mut lo, mut hi) = (first, top);
    let (mut steps, mut slow_steps) = (0u64, 0u32);
    while hi.n_qubits - lo.n_qubits > 1 {
        let (lo_n, hi_n) = (lo.n_qubits, hi.n_qubits);
        let root = secant_root(model[0], model[1], &budgets_w).filter(|_| slow_steps < 2);
        let n = match root.map(f64::floor) {
            None => lo_n + (hi_n - lo_n) / 2,
            Some(guess) if guess <= lo_n as f64 => lo_n + 1,
            Some(guess) if guess >= hi_n as f64 => hi_n - 1,
            Some(guess) => guess as u64,
        };
        debug_assert!(lo_n < n && n < hi_n, "probe {n} outside the bracket ({lo_n}, {hi_n})");
        let report = probe(n);
        model = [model[1], Point::of(&report)];
        if report.fits() {
            lo = report;
        } else {
            hi = report;
        }
        debug_assert!(lo.fits() && !hi.fits(), "the bracket lost its invariant at {n}");
        let halved = 2 * (hi.n_qubits - lo.n_qubits) <= hi_n - lo_n;
        slow_steps = if root.is_none() || halved || steps == 0 { 0 } else { slow_steps + 1 };
        steps += 1;
    }
    let binding = hi.binding_stage();
    landed(steps, steps + 2, (lo.n_qubits, binding, lo))
}

/// Publishes one cold landing: its probes inside the bracket on the
/// `power.landing.steps` counter and, when tracing is armed, one
/// `power.landing` instant with its probe count and landing.
fn landed(steps: u64, probes: u64, landing: memo::Landing) -> memo::Landing {
    counter!("power.landing.steps", steps);
    qisim_obs::trace::instant(
        "power.landing",
        &[("probes", probes as f64), ("max_qubits", landing.0 as f64)],
    );
    landing
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
/// report (called with every landing, cached or fresh, so the
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
    use qisim_hal::analog::AnalogBlock;
    use qisim_hal::topology::{FridgeTopology, LinkKind};
    use qisim_microarch::sfq::{BitgenKind, JpmSharing};
    use qisim_microarch::{
        room_cmos, Component, CryoCmosConfig, DecisionKind, Resource, RoomInterconnect, SfqConfig,
    };

    /// One evaluation over the standard link.
    fn evaluate(arch: &QciArch, fridge: &Fridge, n_qubits: u64) -> PowerReport {
        try_evaluate_with_link(arch, fridge, n_qubits, &InstructionLink::standard()).unwrap()
    }

    /// The doubling-then-halving bisection the landing search replaced,
    /// kept as its oracle: over a monotone `fits(n)` every correct
    /// bracket search lands where this one does.
    fn bisect(arch: &QciArch, fridge: &Fridge, link: &InstructionLink) -> memo::Landing {
        let probe = |n: u64| stage_powers(arch, fridge, n, link);
        let first = probe(1);
        if !first.fits() {
            let binding = first.binding_stage();
            return (0, binding, first);
        }
        let mut lo = 1u64; // fits
        let mut hi = 2u64;
        while probe(hi).fits() {
            lo = hi;
            hi *= 2;
            if hi > MAX_LANDING_QUBITS {
                return (lo, None, probe(lo)); // effectively unbounded by power
            }
        }
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if probe(mid).fits() {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let binding = probe(hi).binding_stage();
        (lo, binding, probe(lo))
    }

    /// The search's uncached landing, asserted equal to the oracle's.
    fn lands_like_bisection(arch: &QciArch, fridge: &Fridge, case: &str) -> memo::Landing {
        let link = InstructionLink::standard();
        let landing = search(arch, fridge, &link);
        assert_eq!(landing, bisect(arch, fridge, &link), "{case}");
        landing
    }

    /// The nine preset designs (`qisim::spec::Preset`, whose landings
    /// `qisim::paperdata::max_qubits` quotes) and the single-optimization
    /// steps of Figs. 13 and 17 between them.
    fn paper_designs() -> Vec<QciArch> {
        let cmos = CryoCmosConfig::baseline();
        let opt1 = CryoCmosConfig { decision: DecisionKind::Memoryless, ..cmos };
        let advanced = CryoCmosConfig::long_term();
        let rsfq = SfqConfig::baseline_rsfq();
        let opt4 = SfqConfig { bitgen: BitgenKind::SplitterShared, ..rsfq };
        let ersfq = SfqConfig::long_term_ersfq();
        let mut designs: Vec<QciArch> =
            [RoomInterconnect::Coax, RoomInterconnect::Microstrip, RoomInterconnect::Photonic]
                .map(room_cmos::build)
                .into();
        designs.extend(
            [
                cmos,
                opt1,
                CryoCmosConfig { drive_bits: 6, ..cmos },
                CryoCmosConfig { drive_bits: 6, ..opt1 },
                advanced,
                CryoCmosConfig { masked_isa: false, ..advanced },
            ]
            .map(|cfg| cfg.build()),
        );
        designs.extend(
            [
                rsfq,
                SfqConfig { sharing: JpmSharing::SharedPipelined, ..rsfq },
                opt4,
                SfqConfig { bs: 1, ..opt4 },
                SfqConfig::near_term_optimized(),
                ersfq,
                SfqConfig { sharing: JpmSharing::SharedPipelined, ..ersfq },
            ]
            .map(|cfg| cfg.build()),
        );
        designs
    }

    /// A tiny seeded generator (SplitMix64) for the seeded cases.
    struct SplitMix64(u64);

    impl SplitMix64 {
        /// Uniform in `[0, 1)`.
        fn unit(&mut self) -> f64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        }

        /// Uniform in `0..n`.
        fn pick(&mut self, n: u64) -> u64 {
            (self.unit() * n as f64) as u64
        }
    }

    /// The `i`-th seeded case: a CMOS or SFQ preset with its knobs drawn
    /// over the spec ranges, on a fridge whose five stage budgets are
    /// each scaled by a log-uniform factor in 0.05–10×. One case in four
    /// is a 2..=16 fridge cluster over a drawn link, landed on the fridge
    /// its interconnect heat derates (`None` when the links eat a stage).
    fn seeded_case(i: u64) -> (QciArch, Option<Fridge>) {
        let mut rng = SplitMix64(0x51CA_7E5E_ED00_0000 ^ i.wrapping_mul(0xD1B5_4A32_D192_ED03));
        let arch = if rng.pick(2) == 0 {
            let base =
                [CryoCmosConfig::baseline(), CryoCmosConfig::long_term()][rng.pick(2) as usize];
            CryoCmosConfig {
                drive_fdm: 1 + rng.pick(64) as u32,
                drive_bits: 1 + rng.pick(16) as u32,
                decision: [
                    DecisionKind::BinCounting,
                    DecisionKind::SinglePoint,
                    DecisionKind::Memoryless,
                ][rng.pick(3) as usize],
                masked_isa: rng.pick(2) == 0,
                readout_ns: 100.0 + 1900.0 * rng.unit(),
                analog_scale: base.analog_scale * (0.25 + 3.75 * rng.unit()),
                ..base
            }
            .build()
        } else {
            let base =
                [SfqConfig::baseline_rsfq(), SfqConfig::long_term_ersfq()][rng.pick(2) as usize];
            SfqConfig {
                bs: 1 + rng.pick(8) as u32,
                bitgen: [BitgenKind::PerPhiShiftRegisters, BitgenKind::SplitterShared]
                    [rng.pick(2) as usize],
                sharing: [
                    JpmSharing::Unshared,
                    JpmSharing::SharedNaive,
                    JpmSharing::SharedPipelined,
                ][rng.pick(3) as usize],
                fast_driving: rng.pick(2) == 0,
                ..base
            }
            .build()
        };
        let mut budgets_w = Fridge::standard().budgets_w();
        for w in &mut budgets_w {
            *w *= (0.05f64.ln() + (10.0f64 / 0.05).ln() * rng.unit()).exp();
        }
        let fridge = Fridge::from_budgets(budgets_w).unwrap();
        let fridge = if rng.pick(4) == 0 {
            FridgeTopology::standard()
                .with_fridge(fridge)
                .with_fridges(2 + rng.pick(15) as u32)
                .with_link(LinkKind::ALL[rng.pick(3) as usize])
                .effective_fridge()
        } else {
            Some(fridge)
        };
        (arch, fridge)
    }

    const SEEDED_CASES: u64 = 10_000;

    #[test]
    fn search_lands_like_bisection_on_every_paper_design() {
        let _l = memo::global_test_lock();
        for (i, arch) in paper_designs().iter().enumerate() {
            lands_like_bisection(arch, &Fridge::standard(), &format!("{}: {}", i, arch.name));
        }
    }

    #[test]
    fn search_lands_like_bisection_on_seeded_specs_and_budgets() {
        let _l = memo::global_test_lock();
        let mut landed = 0;
        for i in 0..SEEDED_CASES {
            if let (arch, Some(fridge)) = seeded_case(i) {
                lands_like_bisection(&arch, &fridge, &format!("seeded case {i}: {}", arch.name));
                landed += 1;
            }
        }
        assert!(landed >= SEEDED_CASES * 9 / 10, "only {landed} seeded cases landed");
    }

    #[test]
    fn search_lands_like_bisection_on_every_cluster_topology() {
        let _l = memo::global_test_lock();
        for arch in paper_designs() {
            for link in LinkKind::ALL {
                for fridges in 2..=16 {
                    for (links, shared) in [(1, false), (4, true), (16, false)] {
                        let topology = FridgeTopology::standard()
                            .with_fridges(fridges)
                            .with_link(link)
                            .with_links_per_fridge(links)
                            .with_shared_controllers(shared);
                        if let Some(fridge) = topology.effective_fridge() {
                            lands_like_bisection(
                                &arch,
                                &fridge,
                                &format!("{} on {topology}", arch.name),
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn cold_landings_average_at_most_eight_probes() {
        let _l = memo::global_test_lock();
        let link = InstructionLink::standard();
        let calls = || qisim_obs::snapshot().counter("power.evaluate.calls").unwrap_or(0);
        let (mut landings, before) = (0, calls());
        for i in 0..SEEDED_CASES {
            if let (arch, Some(fridge)) = seeded_case(i) {
                search(&arch, &fridge, &link);
                landings += 1;
            }
        }
        let mean = (calls() - before) as f64 / landings as f64;
        assert!(mean <= 8.0, "{mean:.2} probes per cold landing over {landings} landings");
    }

    #[test]
    fn search_lands_like_bisection_at_zero_and_at_the_cap() {
        let _l = memo::global_test_lock();
        let arch = CryoCmosConfig::baseline().build();
        // One qubit is over the 4 K budget.
        let starved = Fridge::standard().with_budget(Stage::K4, 1e-9);
        let (n, binding, report) = lands_like_bisection(&arch, &starved, "starved 4 K stage");
        assert_eq!((n, binding), (0, Some(Stage::K4)));
        assert_eq!(report, evaluate(&arch, &starved, 1));
        // Every stage still fits at the largest probe.
        let boundless = Fridge::from_budgets([1e30; 5]).unwrap();
        let (n, binding, report) = lands_like_bisection(&arch, &boundless, "boundless fridge");
        assert_eq!((n, binding), (MAX_LANDING_QUBITS, None));
        assert_eq!(report, evaluate(&arch, &boundless, MAX_LANDING_QUBITS));
    }

    /// A design of analog blocks, one per `(stage, watts per instance,
    /// qubits per instance)`: `n` qubits draw `watts · ceil(n / share)`.
    fn blocks(name: &str, parts: &[(Stage, f64, f64)]) -> QciArch {
        let components = parts
            .iter()
            .map(|&(stage, watts, share)| Component {
                name: format!("{watts} W per {share} qubits"),
                stage,
                resource: Resource::Analog(AnalogBlock {
                    name: "test block",
                    stage,
                    active_power_w: watts,
                    idle_power_w: watts,
                }),
                qubits_per_instance: share,
                duty: 1.0,
            })
            .collect();
        QciArch {
            name: name.into(),
            clock_hz: 1e9,
            components,
            wires: Vec::new(),
            instr_bandwidth_bps_per_qubit: 0.0,
        }
    }

    #[test]
    fn search_handles_stages_whose_power_does_not_grow() {
        let _l = memo::global_test_lock();
        let budgets = |k4: f64, mk20: f64| Fridge::from_budgets([1.0, k4, 1.0, 1.0, mk20]).unwrap();
        // A flat 1 W bias at 4 K (one instance up to 10^15 qubits) and a
        // 20 mK staircase of 1 µW per `share` qubits, whose treads the
        // secant model sees as flat.
        for share in [1.0, 7.0, 1000.0, 65_536.0, 1e9] {
            let arch = blocks("flat 4 K", &[(Stage::K4, 1.0, 1e15), (Stage::Mk20, 1e-6, share)]);
            // The flat stage fits and outweighs the staircase until
            // 20 mK binds.
            let case = format!("staircase of {share}");
            let (n, binding, _) = lands_like_bisection(&arch, &budgets(1.5, 1e-3), &case);
            assert_eq!((n, binding), ((1000.0 * share) as u64, Some(Stage::Mk20)), "{case}");
            // The flat stage alone is over budget: zero qubits.
            let (n, binding, _) = lands_like_bisection(&arch, &budgets(0.5, 1e-3), &case);
            assert_eq!((n, binding), (0, Some(Stage::K4)), "{case}");
        }
        // Nothing grows at all: the flat stage fits everywhere.
        let flat = blocks("all flat", &[(Stage::K4, 1.0, 1e15)]);
        let (n, binding, _) = lands_like_bisection(&flat, &budgets(1.5, 1e-3), "all flat");
        assert_eq!((n, binding), (MAX_LANDING_QUBITS, None));
    }

    #[test]
    fn halving_bounds_the_probes_where_the_affine_model_misleads() {
        let _l = memo::global_test_lock();
        // Two 20 mK staircases on a faint ramp. Between risers the model
        // through the two latest probes sees only the ramp, so unguarded
        // secant steps creep toward the landing (1,377 probes here). The
        // guard halves the bracket, which starts under 2^40 wide, at
        // least every third step after the first, so at most 2 + 1 + 3·40
        // probes land it.
        let arch = blocks(
            "two staircases on a ramp",
            &[
                (Stage::Mk20, 7.104_416_075_180_687e-11, 1.0),
                (Stage::Mk20, 1.669_145_136_599_235e-4, 196_830.0),
                (Stage::Mk20, 2.085_238_416_015_301_6e-6, 41_659.0),
            ],
        );
        let fridge = Fridge::from_budgets([1.0, 1.0, 1.0, 1.0, 4.388_151_753_792_679e-3]).unwrap();
        let calls = || qisim_obs::snapshot().counter("power.evaluate.calls").unwrap_or(0);
        let before = calls();
        let (n, _, _) = search(&arch, &fridge, &InstructionLink::standard());
        let probes = calls() - before;
        assert_eq!(n, bisect(&arch, &fridge, &InstructionLink::standard()).0);
        assert!(probes <= 2 + 1 + 3 * 40, "{probes} probes to land at {n}");
    }

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
        assert_eq!(warm, cold, "a cached landing equals the search that stored it");
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
        assert!(cache_stats().len > 0, "a cold landing must populate the cache");
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
            assert_eq!(landing, evaluate(&arch, &fridge, n.max(1)));
        }
    }

    #[test]
    fn zero_qubits_is_a_typed_error() {
        let _l = memo::global_test_lock();
        let arch = CryoCmosConfig::baseline().build();
        let fridge = Fridge::standard();
        let link = InstructionLink::standard();
        let err = try_evaluate_with_link(&arch, &fridge, 0, &link).unwrap_err();
        assert_eq!(err, PowerError::NoQubits);
        assert_eq!(err.to_string(), "need at least one qubit");
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
