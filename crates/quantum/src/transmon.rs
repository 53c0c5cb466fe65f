//! Transmon qubit Hamiltonians.
//!
//! Unit convention for this module: **time in nanoseconds, frequencies in
//! GHz**, so angular frequencies (`2π·f`) are in rad/ns and integrators can
//! take O(0.001–0.01 ns) steps with well-conditioned numbers.
//!
//! Two models are provided:
//!
//! * a single flux-tunable transmon truncated to `levels` states, driven
//!   through its charge line by an I/Q-modulated microwave (single-qubit
//!   gates, Section 4.4.1/4.4.2 of the paper), and
//! * a pair of capacitively-coupled transmons in the 3⊗3 product space used
//!   for flux-pulsed CZ gates (Section 4.4.3).

use crate::complex::C64;
use crate::matrix::CMatrix;
use std::f64::consts::PI;

/// Converts a frequency in GHz to an angular frequency in rad/ns.
#[inline]
pub fn ghz_to_rad(f_ghz: f64) -> f64 {
    2.0 * PI * f_ghz
}

/// A single superconducting transmon qubit.
///
/// # Examples
///
/// ```
/// use qisim_quantum::transmon::Transmon;
///
/// let q = Transmon::standard();
/// assert_eq!(q.levels, 3);
/// let h = q.rotating_hamiltonian(0.0);
/// assert!(h.is_hermitian(1e-12));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transmon {
    /// Qubit (0↔1) transition frequency in GHz.
    pub freq_ghz: f64,
    /// Anharmonicity `α = ω12 − ω01` in GHz (negative for transmons).
    pub anharmonicity_ghz: f64,
    /// Number of retained energy levels (≥ 2; 3 captures leakage).
    pub levels: usize,
}

impl Transmon {
    /// Creates a transmon with the given frequency and anharmonicity.
    ///
    /// # Panics
    ///
    /// Panics if `levels < 2`.
    pub fn new(freq_ghz: f64, anharmonicity_ghz: f64, levels: usize) -> Self {
        assert!(levels >= 2, "a qubit needs at least two levels");
        Transmon { freq_ghz, anharmonicity_ghz, levels }
    }

    /// A typical flux-tunable transmon: 5 GHz, −330 MHz anharmonicity,
    /// three retained levels.
    pub fn standard() -> Self {
        Transmon::new(5.0, -0.33, 3)
    }

    /// Hamiltonian in the frame rotating at `freq_ghz + detuning_ghz`:
    /// `−Δ·n + (α/2)·n(n−1)` where `Δ = 2π·detuning_ghz`.
    pub fn rotating_hamiltonian(&self, detuning_ghz: f64) -> CMatrix {
        let delta = ghz_to_rad(detuning_ghz);
        let alpha = ghz_to_rad(self.anharmonicity_ghz);
        let entries: Vec<C64> = (0..self.levels)
            .map(|k| {
                let n = k as f64;
                C64::from(-delta * n + alpha / 2.0 * n * (n - 1.0))
            })
            .collect();
        CMatrix::diag(&entries)
    }

    /// Rotating-wave-approximation drive term for in-phase amplitude `i_amp`
    /// and quadrature amplitude `q_amp` (both in rad/ns of Rabi rate):
    /// `H_d = (I/2)(a+a†) + (Q/2)·i(a†−a)`.
    pub fn drive_hamiltonian(&self, i_amp: f64, q_amp: f64) -> CMatrix {
        let a = CMatrix::annihilation(self.levels);
        let adag = CMatrix::creation(self.levels);
        let x = &a + &adag;
        let y = (&adag - &a).scaled(C64::I);
        &x.scaled(C64::from(i_amp / 2.0)) + &y.scaled(C64::from(q_amp / 2.0))
    }

    /// Full rotating-frame Hamiltonian for a drive detuned by
    /// `detuning_ghz` with the given instantaneous I/Q amplitudes.
    pub fn driven_hamiltonian(&self, detuning_ghz: f64, i_amp: f64, q_amp: f64) -> CMatrix {
        &self.rotating_hamiltonian(detuning_ghz) + &self.drive_hamiltonian(i_amp, q_amp)
    }
}

/// Two capacitively-coupled flux-tunable transmons for CZ-gate simulation.
///
/// The Hilbert space is the product of two `levels`-level transmons; the
/// frame rotates at the *static* qubit's frequency so only the tuned qubit's
/// time-dependent detuning appears.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoupledTransmons {
    /// Flux-tunable qubit whose frequency the pulse circuit moves.
    pub tuned: Transmon,
    /// Static partner qubit.
    pub fixed: Transmon,
    /// Exchange coupling strength `g` in GHz.
    pub coupling_ghz: f64,
}

impl CoupledTransmons {
    /// Creates a coupled pair.
    ///
    /// # Panics
    ///
    /// Panics if the two transmons retain a different number of levels.
    pub fn new(tuned: Transmon, fixed: Transmon, coupling_ghz: f64) -> Self {
        assert_eq!(tuned.levels, fixed.levels, "level truncation must match");
        CoupledTransmons { tuned, fixed, coupling_ghz }
    }

    /// A standard CZ pair: 5.8 GHz tunable and 5.0 GHz fixed transmons with
    /// −330 MHz anharmonicities and 20 MHz coupling, three levels each.
    pub fn standard() -> Self {
        CoupledTransmons::new(Transmon::new(5.8, -0.33, 3), Transmon::new(5.0, -0.33, 3), 0.020)
    }

    /// Product-space dimension.
    pub fn dim(&self) -> usize {
        self.tuned.levels * self.fixed.levels
    }

    /// Rotating-frame Hamiltonian (rad/ns) with the tuned qubit detuned from
    /// the fixed qubit by `delta_ghz` (its instantaneous frequency minus the
    /// fixed qubit's frequency).
    ///
    /// `H = Δ·n₁ + (α₁/2)n₁(n₁−1) + (α₂/2)n₂(n₂−1) + g(a₁†a₂ + a₁a₂†)`.
    pub fn hamiltonian(&self, delta_ghz: f64) -> CMatrix {
        let n = self.tuned.levels;
        let id = CMatrix::identity(n);
        let num = CMatrix::number(n);
        let a = CMatrix::annihilation(n);
        let adag = CMatrix::creation(n);

        let delta = ghz_to_rad(delta_ghz);
        let alpha1 = ghz_to_rad(self.tuned.anharmonicity_ghz);
        let alpha2 = ghz_to_rad(self.fixed.anharmonicity_ghz);
        let g = ghz_to_rad(self.coupling_ghz);

        // Anharmonic part (α/2)·n(n−1) as a diagonal.
        let anharm = |alpha: f64| -> CMatrix {
            CMatrix::diag(
                &(0..n)
                    .map(|k| {
                        let kf = k as f64;
                        C64::from(alpha / 2.0 * kf * (kf - 1.0))
                    })
                    .collect::<Vec<_>>(),
            )
        };

        let h1 = &num.scaled(C64::from(delta)) + &anharm(alpha1);
        let h2 = anharm(alpha2);
        let local = &h1.kron(&id) + &id.kron(&h2);
        let exch = &adag.kron(&a) + &a.kron(&adag);
        &local + &exch.scaled(C64::from(g))
    }

    /// Index of the product basis state `|n1 n2>`.
    pub fn basis_index(&self, n1: usize, n2: usize) -> usize {
        assert!(n1 < self.tuned.levels && n2 < self.fixed.levels, "level out of range");
        n1 * self.fixed.levels + n2
    }

    /// The detuning (GHz) at which `|11>` and `|02>` become resonant, i.e.
    /// where the CZ interaction is strongest: `Δ = −α₂`.
    pub fn cz_resonance_detuning_ghz(&self) -> f64 {
        -self.fixed.anharmonicity_ghz
    }

    /// Idle detuning in GHz (difference of the bare qubit frequencies).
    pub fn idle_detuning_ghz(&self) -> f64 {
        self.tuned.freq_ghz - self.fixed.freq_ghz
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrate::propagator;

    #[test]
    fn rotating_frame_resonant_drive_is_detuning_free() {
        let q = Transmon::standard();
        let h = q.rotating_hamiltonian(0.0);
        assert_eq!(h[(0, 0)], C64::ZERO);
        assert_eq!(h[(1, 1)], C64::ZERO);
        // Second level carries the anharmonicity.
        assert!((h[(2, 2)].re - ghz_to_rad(-0.33)).abs() < 1e-9);
    }

    #[test]
    fn drive_hamiltonian_is_hermitian() {
        let q = Transmon::standard();
        for (i, qq) in [(0.1, 0.0), (0.0, 0.2), (0.05, -0.07)] {
            assert!(q.drive_hamiltonian(i, qq).is_hermitian(1e-12));
        }
    }

    #[test]
    fn two_level_resonant_pi_pulse_flips_qubit() {
        let q = Transmon::new(5.0, -0.33, 2);
        // Constant drive Ω for t = π/Ω.
        let rabi = ghz_to_rad(0.02); // 20 MHz
        let t = PI / rabi;
        let u = propagator(2, |_| q.driven_hamiltonian(0.0, rabi, 0.0), 0.0, t, 2000);
        // |<1|U|0>| = 1.
        assert!((u[(1, 0)].abs() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn three_level_pi_pulse_leaks_slightly() {
        let q = Transmon::standard();
        let rabi = ghz_to_rad(0.04); // fast pulse -> visible leakage
        let t = PI / rabi;
        let u = propagator(3, |_| q.driven_hamiltonian(0.0, rabi, 0.0), 0.0, t, 4000);
        let leak = u[(2, 0)].norm_sqr();
        assert!(leak > 1e-6, "expected visible leakage, got {leak}");
        assert!(leak < 0.1, "leakage unreasonably large: {leak}");
    }

    #[test]
    fn coupled_hamiltonian_is_hermitian_and_block_structured() {
        let pair = CoupledTransmons::standard();
        let h = pair.hamiltonian(0.4);
        assert!(h.is_hermitian(1e-12));
        // The exchange term couples |11> and |02> (same total excitation).
        let i11 = pair.basis_index(1, 1);
        let i02 = pair.basis_index(0, 2);
        assert!(h[(i11, i02)].abs() > 0.0);
        // But not |00> and |11> (different excitation number).
        let i00 = pair.basis_index(0, 0);
        assert_eq!(h[(i00, i11)], C64::ZERO);
    }

    #[test]
    fn cz_resonance_matches_anharmonicity() {
        let pair = CoupledTransmons::standard();
        assert!((pair.cz_resonance_detuning_ghz() - 0.33).abs() < 1e-12);
        assert!((pair.idle_detuning_ghz() - 0.8).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least two levels")]
    fn one_level_transmon_panics() {
        let _ = Transmon::new(5.0, -0.3, 1);
    }
}
