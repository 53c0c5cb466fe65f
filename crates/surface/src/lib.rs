//! # qisim-surface
//!
//! Surface-code substrate for the QIsim scalability framework
//! (reproduction of Min et al., *QIsim*, ISCA 2023 — §2.1 and §6.1):
//!
//! * [`lattice`] — rotated surface-code patches (data/ancilla layout,
//!   stabilizer supports, logical operators) plus the bit-packed
//!   [`PackedLattice`] view the Monte-Carlo hot loop runs on;
//! * [`decoder`] — a union-find decoder with peeling: an allocation-free
//!   scratch-arena engine with an active-frontier growth stage, and the
//!   original implementation kept as its verification oracle;
//! * [`montecarlo`] — sampled logical-error rates validating the model
//!   (a naive per-trial sampler and a rare-event importance sampler);
//! * [`analytic`] — the calibrated `p_L = A·(p_eff/p_th)^((d+1)/2)` model
//!   the scalability engine evaluates;
//! * [`target`] — the Jellium quantum-supremacy error/scale targets
//!   (1,152 qubits at 1.11e-11; 62,208 qubits at 1.69e-17).
//!
//! # Examples
//!
//! ```
//! use qisim_surface::{analytic::{cmos_budget, CALIBRATION}, target::Target};
//!
//! let p_l = cmos_budget(1117.0).logical_error(23, &CALIBRATION);
//! assert!(Target::near_term().met_by(p_l));   // near-term: fine
//! assert!(!Target::long_term().met_by(p_l));  // long-term: needs Opt-7
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analytic;
pub mod decoder;
pub mod lattice;
pub mod montecarlo;
pub mod target;

pub use analytic::{Calibration, PhysicalBudget, CALIBRATION};
pub use lattice::{Lattice, PackedLattice};
pub use target::Target;
