//! # QIsim-rs
//!
//! A from-scratch Rust reproduction of **QIsim** (Min et al., *QIsim:
//! Architecting 10+K Qubit QC Interfaces Toward Quantum Supremacy*,
//! ISCA 2023): a quantum–classical interface (QCI) scalability-analysis
//! framework, plus the paper's eight architectural optimizations and its
//! 60,000+-qubit QCI designs.
//!
//! The analysis pipeline mirrors the paper's Fig. 6:
//!
//! 1. **circuit model** — `qisim-hal` + `qisim-microarch` turn a design
//!    point (temperature × technology × wire × microarchitecture) into
//!    per-component frequencies and static/dynamic powers;
//! 2. **cycle-accurate simulation** — `qisim-cyclesim` schedules the
//!    surface-code ESM round and produces gate timings and activity
//!    factors;
//! 3. **runtime power** — `qisim-power` aggregates per-stage dissipation
//!    against the dilution refrigerator's budgets;
//! 4. **error** — `qisim-error` + `qisim-surface` turn gate/readout
//!    errors and the ESM cycle time into a logical error rate;
//! 5. **scalability** — [`scalability::analyze`] combines (3) and (4)
//!    into the manageable qubit scale.
//!
//! The pipeline has two kinds of front door. The infallible
//! [`scalability::analyze`] and [`scalability::analyze_on`] panic on
//! malformed inputs and suit one-shot paper drivers. The **fallible engine** ([`engine`])
//! returns typed [`error::QisimError`] diagnostics, exposes the pipeline
//! as a staged [`engine::AnalysisPlan`], and pairs with validated,
//! serializable [`spec::DesignSpec`]s and the [`codec`] text format —
//! the API a batch design-space search should use.
//!
//! # Examples
//!
//! Reproduce the headline Fig. 13a result — the 4 K CMOS baseline stalls
//! below 700 qubits, and Opt-1 + Opt-2 lift it past the 1,152-qubit
//! near-term target:
//!
//! ```
//! use qisim::{config::QciDesign, opts::{self, Opt}, scalability::analyze};
//! use qisim_surface::target::Target;
//!
//! # fn main() -> Result<(), qisim::opts::ApplyOptError> {
//! let target = Target::near_term();
//! let baseline = analyze(&QciDesign::cmos_baseline(), &target);
//! assert!(!baseline.reaches(&target));
//!
//! let optimized = opts::apply_all(
//!     &QciDesign::cmos_baseline(),
//!     &[Opt::MemorylessDecision, Opt::LowPrecisionDrive],
//! )?;
//! assert!(analyze(&optimized, &target).reaches(&target));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codec;
pub mod config;
pub mod engine;
pub mod error;
pub mod experiments;
pub mod opts;
pub mod paperdata;
pub mod scalability;
pub mod spec;

pub use config::QciDesign;
pub use engine::{try_sweep, AnalysisPlan};
pub use error::QisimError;
pub use opts::{apply, apply_all, Opt};
pub use scalability::{analyze, analyze_on, Scalability};
pub use spec::{DesignSpec, Preset};

// Re-export the component crates so downstream users need only `qisim`.
// (`qisim-error` is the physical gate/readout *error model*; the typed
// failure hierarchy lives in [`error`].)
pub use qisim_cyclesim as cyclesim;
pub use qisim_error as errormodel;
pub use qisim_hal as hal;
pub use qisim_microarch as microarch;
pub use qisim_obs as obs;
pub use qisim_par as par;
pub use qisim_power as power;
pub use qisim_quantum as quantum;
pub use qisim_surface as surface;

/// Puts every process-global into a known state: power memo cache empty
/// at the default cap, metric store empty and recording, flight recorder
/// disarmed and empty, log sink and telemetry exporter shut down. The
/// `armed()` probes first consume any environment-driven arming
/// (`QISIM_LOG`, `QISIM_TRACE`, `QISIM_METRICS`) so it cannot re-arm
/// later. Callers that run concurrently must serialize around it.
///
/// The engine's `d = 23` Monte-Carlo context is not reset: the decoding
/// graph, packed lattice and lone-error guards both estimators
/// share, and the rare-event ladder's sampled anchor stage. It is
/// immutable once built and every estimate it gives is bit-identical to
/// one on a fresh context, so no result can depend on whether it exists.
pub fn reset_process_state() {
    qisim_power::clear_cache();
    qisim_power::set_cache_cap(Some(qisim_power::DEFAULT_CACHE_CAP));
    let _ = qisim_obs::log::armed(qisim_obs::Level::Error);
    qisim_obs::log::shutdown();
    qisim_obs::log::set_rate_cap(qisim_obs::log::DEFAULT_RATE_CAP);
    let _ = qisim_obs::trace::armed();
    qisim_obs::trace::disarm();
    qisim_obs::trace::clear();
    let _ = qisim_obs::telemetry::armed();
    qisim_obs::telemetry::shutdown();
    qisim_obs::set_enabled(true);
    qisim_obs::reset();
}
