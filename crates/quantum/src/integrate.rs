//! Numerical integration of Schrödinger and Lindblad dynamics.
//!
//! All QIsim error models reduce to integrating either
//! `dψ/dt = -i H(t) ψ` (closed-system gate dynamics) or the Lindblad master
//! equation `dρ/dt = -i[H,ρ] + Σ_k D[L_k]ρ` (readout chains with decay and
//! measurement back-action). Hilbert spaces are tiny (dim ≤ ~64), so a fixed
//! step classic Runge–Kutta 4 integrator is accurate and fast; we renormalize
//! the state between steps to suppress drift over long pulses.

use crate::complex::C64;
use crate::matrix::CMatrix;

/// Integrates `dψ/dt = -i H(t) ψ` from `t0` over `duration` with `steps`
/// fixed RK4 steps, renormalizing after every step.
///
/// `hamiltonian` returns `H(t)` in angular-frequency units (rad/s when `t`
/// is in seconds; any consistent unit system works).
///
/// # Panics
///
/// Panics if `steps == 0` or the Hamiltonian dimension does not match `psi`.
///
/// # Examples
///
/// ```
/// use qisim_quantum::{C64, CMatrix, integrate::schrodinger_evolve};
/// use std::f64::consts::PI;
///
/// // Resonant Rabi drive: H = (Ω/2)·σx for time t = π/Ω flips |0> to |1>.
/// let omega = 2.0 * PI * 10.0e6;
/// let h = CMatrix::pauli_x().scaled(C64::from(omega / 2.0));
/// let psi0 = vec![C64::ONE, C64::ZERO];
/// let t = PI / omega;
/// let psi = schrodinger_evolve(&psi0, |_| h.clone(), 0.0, t, 400);
/// assert!(psi[1].abs() > 0.999);
/// ```
pub fn schrodinger_evolve<H>(
    psi0: &[C64],
    mut hamiltonian: H,
    t0: f64,
    duration: f64,
    steps: usize,
) -> Vec<C64>
where
    H: FnMut(f64) -> CMatrix,
{
    assert!(steps > 0, "steps must be positive");
    let dim = psi0.len();
    let dt = duration / steps as f64;
    let mut psi = psi0.to_vec();

    let deriv = |h: &CMatrix, v: &[C64]| -> Vec<C64> {
        let hv = h.mul_vec(v);
        hv.into_iter().map(|z| -C64::I * z).collect()
    };

    for n in 0..steps {
        let t = t0 + n as f64 * dt;
        let h1 = hamiltonian(t);
        assert_eq!(h1.dim(), dim, "Hamiltonian dimension mismatch");
        let h2 = hamiltonian(t + dt / 2.0);
        let h3 = hamiltonian(t + dt);

        let k1 = deriv(&h1, &psi);
        let y2: Vec<C64> = psi.iter().zip(&k1).map(|(y, k)| *y + *k * (dt / 2.0)).collect();
        let k2 = deriv(&h2, &y2);
        let y3: Vec<C64> = psi.iter().zip(&k2).map(|(y, k)| *y + *k * (dt / 2.0)).collect();
        let k3 = deriv(&h2, &y3);
        let y4: Vec<C64> = psi.iter().zip(&k3).map(|(y, k)| *y + *k * dt).collect();
        let k4 = deriv(&h3, &y4);

        for i in 0..dim {
            psi[i] += (k1[i] + k2[i] * 2.0 + k3[i] * 2.0 + k4[i]) * (dt / 6.0);
        }
        normalize(&mut psi);
    }
    psi
}

/// Integrates the full propagator `dU/dt = -i H(t) U` and returns the final
/// unitary, starting from the identity.
///
/// This is how the gate error models extract a *noisy unitary* to compare
/// against the ideal gate (Fig. 7 of the paper).
///
/// # Panics
///
/// Panics if `steps == 0`.
pub fn propagator<H>(
    dim: usize,
    mut hamiltonian: H,
    t0: f64,
    duration: f64,
    steps: usize,
) -> CMatrix
where
    H: FnMut(f64) -> CMatrix,
{
    assert!(steps > 0, "steps must be positive");
    let dt = duration / steps as f64;
    let mut u = CMatrix::identity(dim);

    let deriv = |h: &CMatrix, m: &CMatrix| -> CMatrix { (h * m).scaled(-C64::I) };

    for n in 0..steps {
        let t = t0 + n as f64 * dt;
        let h1 = hamiltonian(t);
        assert_eq!(h1.dim(), dim, "Hamiltonian dimension mismatch");
        let h2 = hamiltonian(t + dt / 2.0);
        let h3 = hamiltonian(t + dt);

        let k1 = deriv(&h1, &u);
        let k2 = deriv(&h2, &(&u + &k1.scaled(C64::from(dt / 2.0))));
        let k3 = deriv(&h2, &(&u + &k2.scaled(C64::from(dt / 2.0))));
        let k4 = deriv(&h3, &(&u + &k3.scaled(C64::from(dt))));

        let incr = &(&k1 + &k4) + &(&k2 + &k3).scaled(C64::from(2.0));
        u = &u + &incr.scaled(C64::from(dt / 6.0));
    }
    u
}

/// A Lindblad collapse operator with its rate already folded in
/// (i.e. `L = sqrt(rate) * op`).
#[derive(Debug, Clone)]
pub struct Collapse {
    operator: CMatrix,
    /// `L† L`, precomputed because it appears twice in the dissipator.
    ldag_l: CMatrix,
}

impl Collapse {
    /// Wraps `sqrt(rate) * op` as a collapse operator.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is negative or `op` is not square.
    pub fn new(op: CMatrix, rate: f64) -> Self {
        assert!(rate >= 0.0, "collapse rate must be non-negative");
        let operator = op.scaled(C64::from(rate.sqrt()));
        let ldag_l = &operator.adjoint() * &operator;
        Collapse { operator, ldag_l }
    }

    /// The scaled operator `L`.
    pub fn operator(&self) -> &CMatrix {
        &self.operator
    }
}

/// Integrates the Lindblad master equation
/// `dρ/dt = -i[H(t),ρ] + Σ_k (L_k ρ L_k† − ½{L_k†L_k, ρ})`
/// with fixed-step RK4, returning the final density matrix.
///
/// # Panics
///
/// Panics if `steps == 0` or dimensions are inconsistent.
pub fn lindblad_evolve<H>(
    rho0: &CMatrix,
    mut hamiltonian: H,
    collapses: &[Collapse],
    t0: f64,
    duration: f64,
    steps: usize,
) -> CMatrix
where
    H: FnMut(f64) -> CMatrix,
{
    assert!(steps > 0, "steps must be positive");
    let dim = rho0.dim();
    let dt = duration / steps as f64;
    let mut rho = rho0.clone();

    let rhs = |h: &CMatrix, r: &CMatrix| -> CMatrix {
        let mut d = h.commutator(r).scaled(-C64::I);
        for c in collapses {
            let l = &c.operator;
            let jump = &(l * r) * &l.adjoint();
            let anti = &(&c.ldag_l * r) + &(r * &c.ldag_l);
            d = &d + &(&jump - &anti.scaled(C64::from(0.5)));
        }
        d
    };

    for n in 0..steps {
        let t = t0 + n as f64 * dt;
        let h1 = hamiltonian(t);
        assert_eq!(h1.dim(), dim, "Hamiltonian dimension mismatch");
        let h2 = hamiltonian(t + dt / 2.0);
        let h3 = hamiltonian(t + dt);

        let k1 = rhs(&h1, &rho);
        let k2 = rhs(&h2, &(&rho + &k1.scaled(C64::from(dt / 2.0))));
        let k3 = rhs(&h2, &(&rho + &k2.scaled(C64::from(dt / 2.0))));
        let k4 = rhs(&h3, &(&rho + &k3.scaled(C64::from(dt))));

        let incr = &(&k1 + &k4) + &(&k2 + &k3).scaled(C64::from(2.0));
        rho = &rho + &incr.scaled(C64::from(dt / 6.0));
    }
    rho
}

/// Normalizes a state vector in place. No-op on the zero vector.
pub fn normalize(psi: &mut [C64]) {
    let norm = psi.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
    if norm > 0.0 {
        for z in psi.iter_mut() {
            *z = *z / norm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn free_precession_accumulates_phase() {
        // H = (ω/2)σz: |+> precesses about z at rate ω.
        let omega = 2.0 * PI * 5.0e6;
        let h = CMatrix::pauli_z().scaled(C64::from(omega / 2.0));
        let s = std::f64::consts::FRAC_1_SQRT_2;
        let psi0 = vec![C64::from(s), C64::from(s)];
        let t = PI / omega; // half turn: |+> -> |->
        let psi = schrodinger_evolve(&psi0, |_| h.clone(), 0.0, t, 200);
        let rel_phase = (psi[1] / psi[0]).arg();
        assert!((rel_phase.abs() - PI).abs() < 1e-6, "rel phase {rel_phase}");
    }

    #[test]
    fn propagator_matches_analytic_rotation() {
        // H = (Ω/2)σx for time t gives Rx(Ω t).
        let omega = 2.0 * PI * 20.0e6;
        let h = CMatrix::pauli_x().scaled(C64::from(omega / 2.0));
        let t = 12.5e-9;
        let u = propagator(2, |_| h.clone(), 0.0, t, 400);
        let ideal = CMatrix::rx(omega * t);
        assert!(u.approx_eq(&ideal, 1e-7), "diff {}", u.max_abs_diff(&ideal));
    }

    #[test]
    fn propagator_is_unitary() {
        let omega = 2.0 * PI * 15.0e6;
        let u = propagator(
            2,
            |t| {
                let envelope = (PI * t / 20e-9).sin().powi(2);
                CMatrix::pauli_y().scaled(C64::from(envelope * omega))
            },
            0.0,
            20e-9,
            400,
        );
        assert!(u.is_unitary(1e-7));
    }

    #[test]
    fn lindblad_decay_matches_exponential() {
        // Pure T1 decay of |1>: population decays as exp(-Γ t).
        let gamma = 1.0 / 30e-6;
        let sm = CMatrix::annihilation(2);
        let collapse = Collapse::new(sm, gamma);
        let mut rho0 = CMatrix::zeros(2, 2);
        rho0[(1, 1)] = C64::ONE;
        let t = 10e-6;
        let rho = lindblad_evolve(&rho0, |_| CMatrix::zeros(2, 2), &[collapse], 0.0, t, 500);
        let expected = (-gamma * t).exp();
        assert!((rho[(1, 1)].re - expected).abs() < 1e-6);
        // Trace is preserved.
        assert!((rho.trace().re - 1.0).abs() < 1e-9);
    }

    #[test]
    fn lindblad_dephasing_kills_coherence() {
        let gamma_phi = 1.0 / 5e-6;
        let collapse = Collapse::new(CMatrix::pauli_z(), gamma_phi / 2.0);
        let s = C64::from(0.5);
        let rho0 = CMatrix::from_flat(&[s, s, s, s]); // |+><+|
        let t = 5e-6;
        let rho = lindblad_evolve(&rho0, |_| CMatrix::zeros(2, 2), &[collapse], 0.0, t, 500);
        // For L = sqrt(g/2)*sigma_z, the dissipator sends rho01 -> -g*rho01,
        // so the coherence decays as exp(-g t).
        let expected = (-gamma_phi * t).exp() * 0.5;
        assert!(
            (rho[(0, 1)].abs() - expected).abs() < 1e-4,
            "coh {} vs {}",
            rho[(0, 1)].abs(),
            expected
        );
        // Populations untouched by pure dephasing.
        assert!((rho[(0, 0)].re - 0.5).abs() < 1e-9);
    }

    #[test]
    fn normalize_handles_zero() {
        let mut v = vec![C64::ZERO; 3];
        normalize(&mut v);
        assert!(v.iter().all(|z| *z == C64::ZERO));
    }

    #[test]
    #[should_panic(expected = "steps must be positive")]
    fn zero_steps_panics() {
        let _ = propagator(2, |_| CMatrix::identity(2), 0.0, 1.0, 0);
    }
}
