//! The fallible, staged analysis engine: the Fig. 6 pipeline as an
//! explicit [`AnalysisPlan`] with typed errors and named per-stage
//! artifacts.
//!
//! The plan names the five artifacts of a scalability verdict —
//! **inventory** (the component/wire netlist) → **schedule** (the ESM
//! timing profile) → **stage powers** (the landing search's per-stage
//! watt accounting) → **logical error** (the `d = 23` error-model landing) →
//! **verdict** (the assembled [`Scalability`]) — and lets callers run
//! them one at a time, inspect intermediate artifacts, and reuse the
//! `qisim-power` memo cache between stages. Every stage is wrapped in an
//! `engine.stage.*` observability span.
//!
//! [`try_analyze_topology`] (a design on any fridge topology),
//! [`try_analyze_spec`] (a validated [`DesignSpec`]) and [`try_sweep`]
//! (a plot curve) are the batch-friendly entry points: malformed design
//! points come back as [`QisimError`] diagnostics instead of aborting the
//! process, which is what a design-space-search service needs. The
//! infallible [`crate::scalability::analyze`] and
//! [`crate::scalability::analyze_on`] wrap [`try_analyze_topology`] for
//! the one-shot paper drivers.
//!
//! # Examples
//!
//! Run the pipeline stage by stage and inspect the artifacts:
//!
//! ```
//! use qisim::engine::{AnalysisPlan, PlanStage};
//! use qisim::hal::topology::FridgeTopology;
//! use qisim::spec::Estimator;
//! use qisim::QciDesign;
//! use qisim_surface::target::Target;
//!
//! # fn main() -> Result<(), qisim::error::QisimError> {
//! let mut plan = AnalysisPlan::with_topology(
//!     &QciDesign::cmos_baseline(),
//!     &Target::near_term(),
//!     &FridgeTopology::standard(),
//!     Estimator::Packed,
//! )?;
//! assert_eq!(plan.next_stage(), Some(PlanStage::Inventory));
//! plan.run_next()?; // inventory
//! assert!(plan.inventory().is_some());
//! let verdict = plan.run()?; // remaining stages
//! assert!(verdict.power_limited_qubits > 0);
//! # Ok(())
//! # }
//! ```

use crate::config::QciDesign;
use crate::error::{QisimError, TargetError};
use crate::scalability::{Scalability, ScaleOut, ScaleOutBinding, SweepPoint};
use crate::spec::{validate_design, DesignSpec, Estimator};
use qisim_hal::fridge::{Fridge, Stage};
use qisim_hal::topology::FridgeTopology;
use qisim_hal::wire::InstructionLink;
use qisim_microarch::cryo_cmos::EsmProfile;
use qisim_microarch::QciArch;
use qisim_obs::{counter, gauge, span, FastGauge};
use qisim_power::{PowerError, StagePower};
use qisim_surface::analytic::CALIBRATION;
use qisim_surface::montecarlo::rare::RareLadder;
use qisim_surface::montecarlo::McContext;
use qisim_surface::target::{Target, CODE_DISTANCE};
use qisim_surface::Lattice;
use std::sync::OnceLock;

/// Trial count of the [`Estimator::Sliced`] logical-error stage: 512
/// whole 64-trial lane words, enough that the empirical rate resolves
/// error-limited designs while keeping a service request interactive.
const SLICED_ESTIMATOR_TRIALS: usize = 32_768;
/// Per-stage trial count of the [`Estimator::Rare`] splitting ladder.
const RARE_ESTIMATOR_TRIALS: usize = 2_000;
/// Fixed RNG seed for both Monte-Carlo estimators: verdicts must be
/// reproducible across calls, batches, and thread counts.
const ESTIMATOR_SEED: u64 = 0x51_C0DE;

/// The `d = 23` Monte-Carlo context both estimators share: the decoding
/// graph, packed lattice and lone-error guards, built on the
/// first Monte-Carlo request. It is fixed by `CODE_DISTANCE`, and every
/// estimate on it equals one on a fresh context bit for bit, so
/// [`crate::reset_process_state`] leaves it in place.
fn monte_carlo_context() -> &'static McContext {
    static CONTEXT: OnceLock<McContext> = OnceLock::new();
    CONTEXT.get_or_init(|| McContext::new(&Lattice::new(CODE_DISTANCE as usize)))
}

/// The [`Estimator::Rare`] ladder on [`monte_carlo_context`], with the
/// `p`-independent anchor stage that the first rare request samples and
/// every later one reuses. It is fixed by `RARE_ESTIMATOR_TRIALS` and
/// `ESTIMATOR_SEED`, and every estimate equals a fresh
/// `logical_error_rate_rare` bit for bit, so
/// [`crate::reset_process_state`] leaves it in place too.
fn rare_ladder() -> &'static RareLadder<'static> {
    static LADDER: OnceLock<RareLadder<'static>> = OnceLock::new();
    LADDER.get_or_init(|| {
        RareLadder::new(monte_carlo_context(), RARE_ESTIMATOR_TRIALS, ESTIMATOR_SEED)
    })
}

/// The per-stage interconnect heat gauges, in [`Stage::ALL`] order.
static INTERCONNECT_GAUGES: [FastGauge; 5] = [
    FastGauge::new("topology.interconnect.50K_w"),
    FastGauge::new("topology.interconnect.4K_w"),
    FastGauge::new("topology.interconnect.1K_w"),
    FastGauge::new("topology.interconnect.100mK_w"),
    FastGauge::new("topology.interconnect.20mK_w"),
];

/// One named stage of the Fig. 6 analysis pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanStage {
    /// Build the component/wire inventory (`hal` + `microarch`).
    Inventory,
    /// Derive the steady-state ESM schedule (`cyclesim`'s steady-state
    /// profile).
    Schedule,
    /// Search for the power-limited scale and account per-stage watts
    /// (`power`).
    Power,
    /// Evaluate the logical error rate at `d = 23` (`errormodel` +
    /// `surface`).
    LogicalError,
    /// Assemble the [`Scalability`] verdict.
    Verdict,
}

impl PlanStage {
    /// All stages, in execution order.
    pub const ALL: [PlanStage; 5] = [
        PlanStage::Inventory,
        PlanStage::Schedule,
        PlanStage::Power,
        PlanStage::LogicalError,
        PlanStage::Verdict,
    ];

    /// Stable lower-case label (observability span suffix).
    pub fn label(self) -> &'static str {
        match self {
            PlanStage::Inventory => "inventory",
            PlanStage::Schedule => "schedule",
            PlanStage::Power => "power",
            PlanStage::LogicalError => "logical_error",
            PlanStage::Verdict => "verdict",
        }
    }
}

/// The schedule artifact: the steady-state ESM timing profile the power
/// duty cycles and the decoherence error model both consume.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EsmSchedule {
    /// Per-phase timing profile.
    pub profile: EsmProfile,
    /// Total ESM round time in ns.
    pub cycle_ns: f64,
}

/// The stage-powers artifact: where the power landing search lands.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerArtifact {
    /// Maximum qubit count the refrigerator budgets allow.
    pub power_limited_qubits: u64,
    /// The stage that binds at that scale.
    pub binding_stage: Option<Stage>,
    /// Per-stage watt accounting at the power-limited scale.
    pub stages: Vec<StagePower>,
}

/// The logical-error artifact: the error model evaluated against the
/// roadmap target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogicalArtifact {
    /// Logical error per round at `d = 23`.
    pub logical_error: f64,
    /// The target's required logical error.
    pub target_error: f64,
    /// Whether the target is met.
    pub error_ok: bool,
}

/// A staged run of the scalability pipeline for one design point.
///
/// Construction validates the design and target up front (typed
/// [`QisimError`] diagnostics); afterwards each [`AnalysisPlan::run_next`]
/// call executes exactly one stage and stores its artifact.
#[derive(Debug, Clone)]
pub struct AnalysisPlan {
    design: QciDesign,
    target: Target,
    topology: FridgeTopology,
    estimator: Estimator,
    inventory: Option<QciArch>,
    schedule: Option<EsmSchedule>,
    power: Option<PowerArtifact>,
    scale_out: Option<ScaleOut>,
    logical: Option<LogicalArtifact>,
    verdict: Option<Scalability>,
}

impl AnalysisPlan {
    /// Plans an analysis across a whole [`FridgeTopology`], with the
    /// logical-error stage run by the chosen [`Estimator`]. A
    /// single-fridge topology runs the classic pipeline
    /// ([`FridgeTopology::standard`] is the standard refrigerator, and
    /// [`Estimator::Packed`] the calibrated analytic fit); with N > 1
    /// fridges the power stage folds interconnect heat into the stage
    /// budgets, lands once for every (identical) fridge, and the
    /// verdict gains a [`crate::scalability::ScaleOut`] block.
    ///
    /// # Errors
    ///
    /// Returns [`QisimError::Config`] for an invalid design knob or
    /// [`QisimError::Target`] for a malformed target.
    pub fn with_topology(
        design: &QciDesign,
        target: &Target,
        topology: &FridgeTopology,
        estimator: Estimator,
    ) -> Result<Self, QisimError> {
        validate_design(design)?;
        validate_target(target)?;
        Ok(AnalysisPlan {
            design: *design,
            target: *target,
            topology: topology.clone(),
            estimator,
            inventory: None,
            schedule: None,
            power: None,
            scale_out: None,
            logical: None,
            verdict: None,
        })
    }

    /// The design under analysis.
    pub fn design(&self) -> &QciDesign {
        &self.design
    }

    /// The fridge topology under analysis.
    pub fn topology(&self) -> &FridgeTopology {
        &self.topology
    }

    /// The target analyzed against.
    pub fn target(&self) -> &Target {
        &self.target
    }

    /// The next stage [`AnalysisPlan::run_next`] would execute (`None`
    /// when the plan is complete).
    pub fn next_stage(&self) -> Option<PlanStage> {
        if self.inventory.is_none() {
            Some(PlanStage::Inventory)
        } else if self.schedule.is_none() {
            Some(PlanStage::Schedule)
        } else if self.power.is_none() {
            Some(PlanStage::Power)
        } else if self.logical.is_none() {
            Some(PlanStage::LogicalError)
        } else if self.verdict.is_none() {
            Some(PlanStage::Verdict)
        } else {
            None
        }
    }

    /// Executes the next pending stage and returns which one ran
    /// (`Ok(None)` when the plan was already complete). Each stage
    /// records an `engine.stage.<label>` observability span and, when
    /// `QISIM_LOG` is armed at debug level, an `engine.stage` log record
    /// with the stage label and elapsed time (carrying the serving
    /// request id when one is in scope).
    ///
    /// # Errors
    ///
    /// Propagates the stage's typed failure; the plan stays resumable
    /// (already-computed artifacts are kept).
    pub fn run_next(&mut self) -> Result<Option<PlanStage>, QisimError> {
        let Some(stage) = self.next_stage() else {
            return Ok(None);
        };
        counter!("engine.plan.stages");
        let log_stages = qisim_obs::log::armed(qisim_obs::log::Level::Debug);
        let t0 = log_stages.then(std::time::Instant::now);
        match stage {
            PlanStage::Inventory => {
                span!("engine.stage.inventory");
                self.inventory = Some(self.design.arch());
            }
            PlanStage::Schedule => {
                span!("engine.stage.schedule");
                let profile = self.design.esm_profile();
                self.schedule = Some(EsmSchedule { profile, cycle_ns: profile.cycle_ns() });
            }
            PlanStage::Power => {
                span!("engine.stage.power");
                self.run_power()?;
            }
            PlanStage::LogicalError => {
                span!("engine.stage.logical_error");
                let logical_error = self.estimate_logical_error();
                let target_error = self.target.logical_error_target();
                self.logical = Some(LogicalArtifact {
                    logical_error,
                    target_error,
                    error_ok: logical_error <= target_error,
                });
            }
            PlanStage::Verdict => {
                span!("engine.stage.verdict");
                if let (Some(inventory), Some(power), Some(logical), Some(schedule)) =
                    (&self.inventory, &self.power, &self.logical, &self.schedule)
                {
                    gauge!("scalability.power_limited_qubits", power.power_limited_qubits as f64);
                    gauge!("scalability.logical_error", logical.logical_error);
                    self.verdict = Some(Scalability {
                        design: inventory.name.clone(),
                        power_limited_qubits: power.power_limited_qubits,
                        binding_stage: power.binding_stage,
                        stages: power.stages.clone(),
                        logical_error: logical.logical_error,
                        target_error: logical.target_error,
                        error_ok: logical.error_ok,
                        esm_cycle_ns: schedule.cycle_ns,
                        scale_out: self.scale_out.clone(),
                    });
                } else {
                    // next_stage() only yields Verdict once every
                    // upstream artifact exists.
                    debug_assert!(false, "verdict scheduled before its artifacts");
                }
            }
        }
        if let Some(t0) = t0 {
            qisim_obs::log::record(qisim_obs::log::Level::Debug, "engine.stage")
                .str("stage", stage.label())
                .f64("elapsed_ms", t0.elapsed().as_secs_f64() * 1e3)
                .emit();
        }
        if qisim_obs::trace::armed() {
            self.trace_stage_artifact(stage);
        }
        Ok(Some(stage))
    }

    /// The power stage, for one fridge or many: search for the
    /// per-fridge scale once against the fridge derated by interconnect
    /// heat (the bare fridge when N = 1, so the classic pipeline runs
    /// verbatim) and take the per-stage attribution from the landing
    /// report. With N > 1 fridges the cluster tiles the per-fridge yield
    /// and the verdict gains its [`ScaleOut`] attribution.
    fn run_power(&mut self) -> Result<(), QisimError> {
        let design = self.design;
        let arch: &QciArch = self.inventory.get_or_insert_with(|| design.arch());
        let fridge = self.topology.fridge();
        let link = InstructionLink::standard();
        let (per_fridge, binding, mut stages) = match self.topology.effective_fridge() {
            Some(eff) => {
                let (n, binding, landing) =
                    qisim_power::try_max_qubits_with_link(arch, &eff, &link)?;
                (n, binding, landing.stages)
            }
            // The interconnect eats some stage's budget whole: zero
            // qubits per fridge, and the worst-loaded stage (total_cmp
            // ordering inside worst_link_stage) names the culprit.
            None => {
                let one = qisim_power::try_evaluate_with_link(arch, fridge, 1, &link)?;
                (0, self.topology.worst_link_stage(), one.stages)
            }
        };
        // Attribute against the *real* budgets (`budget_w` is the only
        // field that reads the fridge); the interconnect share is
        // itemized separately in the ScaleOut block.
        for s in &mut stages {
            s.budget_w = fridge.budget_w(s.stage);
        }
        if self.topology.is_single() {
            self.power = Some(PowerArtifact {
                power_limited_qubits: per_fridge,
                binding_stage: binding,
                stages,
            });
            return Ok(());
        }
        let fridges = self.topology.fridges();
        // Counts the fridges cluster analyses cover: the one landing
        // above answers for all N identical fridges.
        counter!("engine.fridge.shards", fridges as u64);
        let mut interconnect_w = [0.0; 5];
        for (i, &stage) in Stage::ALL.iter().enumerate() {
            interconnect_w[i] = self.topology.interconnect_w(stage);
        }
        let binding = binding.map(|stage| {
            // At the binding stage: if the links leak at least as much
            // heat as the design itself dissipates there, the link is
            // what crowds out scale; otherwise the stage budget binds on
            // the design's own footprint. total_cmp keeps the
            // classification NaN-safe.
            let own_w = stages.iter().find(|s| s.stage == stage).map_or(0.0, StagePower::total_w);
            let idx = Stage::ALL.iter().position(|s| *s == stage).unwrap_or(0);
            if interconnect_w[idx].total_cmp(&own_w).is_ge() {
                ScaleOutBinding::Link(stage)
            } else {
                ScaleOutBinding::StageBudget(stage)
            }
        });
        let target_qubits = self.target.physical_qubits() as u64;
        let fridges_to_target =
            (per_fridge > 0).then(|| target_qubits.div_ceil(per_fridge)).map(|n| n.max(1));
        self.publish_topology_gauges(per_fridge, &interconnect_w);
        self.scale_out = Some(ScaleOut {
            fridges,
            link: self.topology.link(),
            links_per_fridge: self.topology.links_per_fridge(),
            shared_controllers: self.topology.shared_controllers(),
            per_fridge_qubits: per_fridge,
            interconnect_w,
            target_qubits,
            fridges_to_target,
            binding,
        });
        self.power = Some(PowerArtifact {
            power_limited_qubits: per_fridge * fridges as u64,
            binding_stage: binding.map(ScaleOutBinding::stage),
            stages,
        });
        Ok(())
    }

    /// Publishes the `topology.*` / `engine.fridge.*` gauges for a
    /// cluster power stage (telemetry exporter and flight recorder both
    /// read these).
    fn publish_topology_gauges(&self, per_fridge: u64, interconnect_w: &[f64; 5]) {
        if !qisim_obs::enabled() {
            return;
        }
        gauge!("topology.fridges", self.topology.fridges() as f64);
        gauge!("topology.links_per_fridge", self.topology.links_per_fridge() as f64);
        gauge!(
            "topology.shared_controllers",
            if self.topology.shared_controllers() { 1.0 } else { 0.0 }
        );
        gauge!("engine.fridge.qubits", per_fridge as f64);
        for (gauge, &watts) in INTERCONNECT_GAUGES.iter().zip(interconnect_w) {
            gauge.set(watts);
        }
    }

    /// Evaluates the logical error per round at `d = 23` with the plan's
    /// [`Estimator`].
    ///
    /// `Packed` is the calibrated analytic Eq. 1 fit (bit-identical to
    /// the historical pipeline); despite its label it samples nothing —
    /// no packed Monte-Carlo estimator exists. `Sliced` and `Rare` run
    /// the design's effective physical error through the fixed-seed
    /// Monte-Carlo engines; the rate is clamped into each kernel's domain
    /// so a validated design can never panic the stage.
    fn estimate_logical_error(&self) -> f64 {
        let budget = self.design.physical_budget();
        match self.estimator {
            Estimator::Packed => budget.logical_error(CODE_DISTANCE, &CALIBRATION),
            Estimator::Sliced => {
                counter!("engine.estimator.sliced");
                let p = budget.effective_error(&CALIBRATION).clamp(0.0, 1.0);
                monte_carlo_context()
                    .sliced_estimate(p, SLICED_ESTIMATOR_TRIALS, ESTIMATOR_SEED)
                    .logical_error
            }
            Estimator::Rare => {
                counter!("engine.estimator.rare");
                let p = budget.effective_error(&CALIBRATION).clamp(f64::MIN_POSITIVE, 1.0 - 1e-12);
                rare_ladder().estimate(p).logical_error
            }
        }
    }

    /// Emits a flight-recorder instant sizing the artifact a stage just
    /// produced (approximate in-memory bytes), so timeline views show
    /// what each `engine.stage.*` span handed downstream.
    fn trace_stage_artifact(&self, stage: PlanStage) {
        use std::mem::{size_of, size_of_val};
        let stage_power_bytes = |stages: &[StagePower]| size_of_val(stages);
        let (name, bytes) = match stage {
            PlanStage::Inventory => ("engine.stage.inventory.artifact", size_of::<QciArch>()),
            PlanStage::Schedule => ("engine.stage.schedule.artifact", size_of::<EsmSchedule>()),
            PlanStage::Power => (
                "engine.stage.power.artifact",
                self.power
                    .as_ref()
                    .map_or(0, |p| size_of::<PowerArtifact>() + stage_power_bytes(&p.stages)),
            ),
            PlanStage::LogicalError => {
                ("engine.stage.logical_error.artifact", size_of::<LogicalArtifact>())
            }
            PlanStage::Verdict => (
                "engine.stage.verdict.artifact",
                self.verdict.as_ref().map_or(0, |v| {
                    size_of::<Scalability>() + stage_power_bytes(&v.stages) + v.design.len()
                }),
            ),
        };
        qisim_obs::trace::instant(name, &[("bytes", bytes as f64)]);
    }

    /// Runs every remaining stage and returns the verdict.
    ///
    /// # Errors
    ///
    /// Propagates the first stage failure.
    pub fn run(&mut self) -> Result<Scalability, QisimError> {
        loop {
            if let Some(v) = &self.verdict {
                return Ok(v.clone());
            }
            self.run_next()?;
        }
    }

    /// The inventory artifact, if that stage has run.
    pub fn inventory(&self) -> Option<&QciArch> {
        self.inventory.as_ref()
    }

    /// The schedule artifact, if that stage has run.
    pub fn schedule(&self) -> Option<&EsmSchedule> {
        self.schedule.as_ref()
    }

    /// The stage-powers artifact, if that stage has run.
    pub fn stage_powers(&self) -> Option<&PowerArtifact> {
        self.power.as_ref()
    }

    /// The logical-error artifact, if that stage has run.
    pub fn logical(&self) -> Option<&LogicalArtifact> {
        self.logical.as_ref()
    }

    /// The verdict, if the plan is complete.
    pub fn verdict(&self) -> Option<&Scalability> {
        self.verdict.as_ref()
    }
}

/// Validates a [`Target`]'s fields (it is plain-old-data, so the engine
/// checks it on entry).
///
/// # Errors
///
/// Returns a [`TargetError`] for non-positive/non-finite `logical_ops`
/// or zero `logical_qubits`.
pub fn validate_target(target: &Target) -> Result<(), TargetError> {
    if !(target.logical_ops.is_finite() && target.logical_ops > 0.0) {
        return Err(TargetError::InvalidOps { value: target.logical_ops });
    }
    if target.logical_qubits == 0 {
        return Err(TargetError::NoLogicalQubits);
    }
    Ok(())
}

/// Analyzes a design across a whole [`FridgeTopology`] with the chosen
/// logical-error [`Estimator`]: validates the design point, then runs
/// every stage of an [`AnalysisPlan`]. A single-fridge topology gives
/// the classic verdict on its fridge; with N > 1 fridges the verdict
/// carries a [`crate::scalability::ScaleOut`] block and
/// `power_limited_qubits` is the cluster total.
///
/// # Errors
///
/// Returns [`QisimError::Config`] / [`QisimError::Target`] for invalid
/// inputs and propagates any stage failure.
pub fn try_analyze_topology(
    design: &QciDesign,
    target: &Target,
    topology: &FridgeTopology,
    estimator: Estimator,
) -> Result<Scalability, QisimError> {
    span!("scalability.analyze");
    counter!("scalability.analyze.calls");
    AnalysisPlan::with_topology(design, target, topology, estimator)?.run()
}

/// Analyzes a validated [`DesignSpec`]: builds the design and the
/// (possibly budget-overridden, possibly multi-fridge) topology, runs
/// the staged pipeline with the spec's chosen [`Estimator`], and names
/// the verdict after the spec's `name` override when it sets one (the
/// verdict otherwise carries the built design's name, which is the
/// spec's display name).
///
/// # Errors
///
/// Returns the spec's validation diagnostics or any stage failure.
pub fn try_analyze_spec(spec: &DesignSpec, target: &Target) -> Result<Scalability, QisimError> {
    let design = spec.build()?;
    let topology = spec.topology()?;
    let mut verdict = try_analyze_topology(&design, target, &topology, spec.chosen_estimator())?;
    if let Some(name) = &spec.name {
        verdict.design.clone_from(name);
    }
    Ok(verdict)
}

/// Per-stage utilization curve for scalability plots (Fig. 12/13/17),
/// one [`SweepPoint`] per requested qubit count, in `qubit_counts`
/// order. Validates the design and the qubit counts, then evaluates the
/// points in a plain serial loop, one direct power evaluation per point
/// (cheaper than fingerprinting the design for the memo cache, which
/// holds power landings only). A warm point costs well under a
/// microsecond, far less than spawning pool threads for it.
///
/// A stage absent from a report (a custom fridge or architecture that
/// doesn't model it) contributes utilization 0.
///
/// # Errors
///
/// Returns [`QisimError::Config`] for an invalid design and
/// [`QisimError::Power`] ([`PowerError::NoQubits`]) when a requested
/// count is zero.
pub fn try_sweep(design: &QciDesign, qubit_counts: &[u64]) -> Result<Vec<SweepPoint>, QisimError> {
    validate_design(design)?;
    if qubit_counts.contains(&0) {
        return Err(PowerError::NoQubits.into());
    }
    // Counted, not timed: a warm sweep is a few µs, where a span would
    // be most of the disarmed-overhead budget.
    counter!("scalability.sweep.points", qubit_counts.len() as u64);
    let arch = design.arch();
    let fridge = Fridge::standard();
    let link = InstructionLink::standard();
    let p_l = design.physical_budget().logical_error(CODE_DISTANCE, &CALIBRATION);
    let util = |r: &qisim_power::PowerReport, stage: Stage| {
        r.stage(stage).map_or(0.0, StagePower::utilization)
    };
    qubit_counts
        .iter()
        .map(|&n| {
            if qisim_obs::trace::armed() {
                qisim_obs::trace::instant("scalability.sweep.point", &[("qubits", n as f64)]);
            }
            let r = qisim_power::try_evaluate_with_link(&arch, &fridge, n, &link)?;
            Ok(SweepPoint {
                qubits: n,
                power_w: r.stages.iter().map(StagePower::total_w).sum(),
                util_4k: util(&r, Stage::K4),
                util_mk: util(&r, Stage::Mk100).max(util(&r, Stage::Mk20)),
                logical_error: p_l,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ConfigError;
    use qisim_microarch::CryoCmosConfig;

    /// A plan on the standard refrigerator with the analytic estimator.
    fn standard_plan(design: &QciDesign, target: &Target) -> Result<AnalysisPlan, QisimError> {
        AnalysisPlan::with_topology(design, target, &FridgeTopology::standard(), Estimator::Packed)
    }

    /// One analysis on the standard refrigerator.
    fn analyze_standard(
        design: &QciDesign,
        target: &Target,
        estimator: Estimator,
    ) -> Result<Scalability, QisimError> {
        try_analyze_topology(design, target, &FridgeTopology::standard(), estimator)
    }

    #[test]
    fn plan_runs_stages_in_order() {
        let mut plan = standard_plan(&QciDesign::cmos_baseline(), &Target::near_term()).unwrap();
        let mut ran = Vec::new();
        while let Some(stage) = plan.run_next().unwrap() {
            ran.push(stage);
        }
        assert_eq!(ran, PlanStage::ALL);
        assert!(plan.inventory().is_some());
        assert!(plan.schedule().is_some());
        assert!(plan.stage_powers().is_some());
        assert!(plan.logical().is_some());
        let verdict = plan.verdict().unwrap();
        assert!(verdict.power_limited_qubits > 0);
        // A completed plan is a no-op.
        assert_eq!(plan.run_next().unwrap(), None);
    }

    #[test]
    fn plan_artifacts_feed_the_verdict() {
        let mut plan = standard_plan(&QciDesign::rsfq_baseline(), &Target::near_term()).unwrap();
        let verdict = plan.run().unwrap();
        let power = plan.stage_powers().unwrap();
        assert_eq!(power.power_limited_qubits, verdict.power_limited_qubits);
        assert_eq!(power.stages, verdict.stages);
        let schedule = plan.schedule().unwrap();
        assert_eq!(schedule.cycle_ns, verdict.esm_cycle_ns);
        let logical = plan.logical().unwrap();
        assert_eq!(logical.error_ok, verdict.error_ok);
    }

    #[test]
    fn invalid_designs_are_rejected_at_plan_time() {
        let bad =
            QciDesign::CryoCmos(CryoCmosConfig { drive_fdm: 0, ..CryoCmosConfig::baseline() });
        let err = standard_plan(&bad, &Target::near_term()).unwrap_err();
        assert!(matches!(err, QisimError::Config(ConfigError::OutOfRange { .. })), "{err:?}");
        assert!(analyze_standard(&bad, &Target::near_term(), Estimator::Packed).is_err());
    }

    #[test]
    fn invalid_targets_are_typed() {
        let mut t = Target::near_term();
        t.logical_ops = 0.0;
        assert!(matches!(
            analyze_standard(&QciDesign::cmos_baseline(), &t, Estimator::Packed),
            Err(QisimError::Target(TargetError::InvalidOps { .. }))
        ));
        let mut t = Target::near_term();
        t.logical_qubits = 0;
        assert!(matches!(validate_target(&t), Err(TargetError::NoLogicalQubits)));
    }

    #[test]
    fn try_sweep_rejects_zero_counts() {
        let err = try_sweep(&QciDesign::cmos_baseline(), &[64, 0, 128]).unwrap_err();
        assert!(matches!(err, QisimError::Power(PowerError::NoQubits)), "{err:?}");
    }

    #[test]
    fn estimators_route_the_logical_error_stage() {
        let design = QciDesign::cmos_baseline();
        let t = Target::near_term();
        // Packed is the default and stays bit-identical to the
        // infallible entry point.
        let packed = analyze_standard(&design, &t, Estimator::Packed).unwrap();
        assert_eq!(packed, crate::scalability::analyze(&design, &t));
        // The Monte-Carlo estimators replace only the logical-error
        // number; the power side of the verdict is untouched.
        for est in [Estimator::Sliced, Estimator::Rare] {
            let mc = analyze_standard(&design, &t, est).unwrap();
            assert_eq!(mc.power_limited_qubits, packed.power_limited_qubits);
            assert_eq!(mc.stages, packed.stages);
            assert!((0.0..=1.0).contains(&mc.logical_error), "{est:?}: {}", mc.logical_error);
            // Fixed seed: the verdict is reproducible call to call.
            assert_eq!(mc, analyze_standard(&design, &t, est).unwrap(), "{est:?}");
        }
        // The baseline's operating point is deep below threshold, so the
        // finite sliced batch sees no failures while the splitting
        // ladder still resolves a nonzero tail estimate.
        let sliced = analyze_standard(&design, &t, Estimator::Sliced).unwrap();
        assert_eq!(sliced.logical_error, 0.0);
        let rare = analyze_standard(&design, &t, Estimator::Rare).unwrap();
        assert!(rare.logical_error > 0.0 && rare.logical_error < 1e-6, "{}", rare.logical_error);
        assert!(rare.error_ok);
    }

    #[test]
    fn rare_estimates_of_the_monte_carlo_mix_are_pinned() {
        // The four rare-estimator designs of the benchmark's Monte-Carlo
        // mix, pinned to the last bit (x86-64 libm; another libm may
        // differ in the last bit). The shared ladder must also agree with
        // a fresh standalone estimate that samples its own anchor.
        use crate::spec::Preset;
        use qisim_surface::montecarlo::logical_error_rate_rare;
        let cases = [
            (Preset::CmosBaseline, Target::near_term(), 2.504763415432796e-47),
            (Preset::RsfqNearTerm, Target::near_term(), 1.1331224364835942e-41),
            (Preset::CmosLongTerm, Target::long_term(), 4.377775806302891e-53),
            (Preset::ErsfqLongTerm, Target::long_term(), 1.3783026825739451e-54),
        ];
        for (preset, target, want) in cases {
            let spec = DesignSpec::new(preset).estimator(Estimator::Rare);
            let verdict = try_analyze_spec(&spec, &target).unwrap();
            assert_eq!(verdict.logical_error.to_bits(), f64::to_bits(want), "{preset:?}");
            let p = spec.build().unwrap().physical_budget().effective_error(&CALIBRATION);
            let lattice = Lattice::new(CODE_DISTANCE as usize);
            let fresh = logical_error_rate_rare(&lattice, p, RARE_ESTIMATOR_TRIALS, ESTIMATOR_SEED);
            assert_eq!(fresh.logical_error.to_bits(), f64::to_bits(want), "{preset:?} standalone");
        }
    }

    #[test]
    fn spec_estimator_threads_through_try_analyze_spec() {
        use crate::spec::Preset;
        let t = Target::near_term();
        let spec = DesignSpec::new(Preset::CmosBaseline).estimator(Estimator::Sliced);
        let via_spec = try_analyze_spec(&spec, &t).unwrap();
        let direct = analyze_standard(&QciDesign::cmos_baseline(), &t, Estimator::Sliced).unwrap();
        assert_eq!(via_spec.logical_error, direct.logical_error);
        assert_eq!(via_spec.power_limited_qubits, direct.power_limited_qubits);
    }

    #[test]
    fn spec_analysis_stamps_the_display_name() {
        use crate::spec::Preset;
        let spec = DesignSpec::new(Preset::CmosBaseline).name("svc-design-7");
        let verdict = try_analyze_spec(&spec, &Target::near_term()).unwrap();
        assert_eq!(verdict.design, "svc-design-7");
        let plain =
            analyze_standard(&QciDesign::cmos_baseline(), &Target::near_term(), Estimator::Packed)
                .unwrap();
        assert_eq!(verdict.power_limited_qubits, plain.power_limited_qubits);
    }
}
