//! Dispersive qubit–resonator readout dynamics.
//!
//! In the dispersive regime the readout resonator's coherent amplitude obeys
//! the classical-looking equation
//!
//! `dα/dt = −i(Δr ± χ)·α − (κ/2)·α − i·ε(t)`
//!
//! where the sign of the dispersive pull `χ` depends on the qubit state.
//! QIsim uses the two trajectories `α₀(t)` / `α₁(t)` to synthesize the
//! reflected microwave the RX circuit digitizes (CMOS readout, Section
//! 4.4.4) and to determine the photon population that drives JPM tunneling
//! (SFQ readout, Section 4.4.5).
//!
//! Units: time in ns, frequencies in GHz (rates `κ, χ, ε` in rad/ns).

use crate::complex::C64;
use crate::transmon::ghz_to_rad;

/// A readout resonator dispersively coupled to a qubit.
///
/// # Examples
///
/// ```
/// use qisim_quantum::resonator::DispersiveResonator;
///
/// let r = DispersiveResonator::standard();
/// let traj = r.ring_up(false, r.steady_drive_rad(), 500.0, 500);
/// // After many 1/κ the amplitude has settled near steady state.
/// let steady = r.steady_state(false, r.steady_drive_rad());
/// assert!((traj.last_amplitude() - steady).abs() < 0.05 * steady.abs());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DispersiveResonator {
    /// Resonator frequency in GHz.
    pub freq_ghz: f64,
    /// Resonator linewidth κ in GHz (energy decay rate / 2π).
    pub kappa_ghz: f64,
    /// Dispersive shift χ in GHz: qubit |1> pulls the resonator by −2χ
    /// relative to |0> in this convention (±χ about the mean).
    pub chi_ghz: f64,
    /// Drive detuning from the bare resonator frequency in GHz.
    pub drive_detuning_ghz: f64,
}

impl DispersiveResonator {
    /// Typical readout resonator: 7 GHz, κ/2π = 5 MHz, χ/2π = 2.5 MHz,
    /// driven at the mean of the two pulled frequencies.
    pub fn standard() -> Self {
        DispersiveResonator {
            freq_ghz: 7.0,
            kappa_ghz: 0.005,
            chi_ghz: 0.0025,
            drive_detuning_ghz: 0.0,
        }
    }

    /// κ in rad/ns.
    pub fn kappa_rad(&self) -> f64 {
        ghz_to_rad(self.kappa_ghz)
    }

    /// χ in rad/ns.
    pub fn chi_rad(&self) -> f64 {
        ghz_to_rad(self.chi_ghz)
    }

    /// A drive strength (rad/ns) that produces ~10 steady-state photons for
    /// the standard parameters: `ε = sqrt(n̄)·sqrt(χ² + κ²/4)` with n̄ = 10.
    pub fn steady_drive_rad(&self) -> f64 {
        let detune = self.chi_rad().hypot(self.kappa_rad() / 2.0);
        10.0f64.sqrt() * detune
    }

    /// Qubit-state-dependent detuning (rad/ns) seen by the drive frame.
    fn pulled_detuning_rad(&self, excited: bool) -> f64 {
        let base = ghz_to_rad(self.drive_detuning_ghz);
        if excited {
            base - self.chi_rad()
        } else {
            base + self.chi_rad()
        }
    }

    /// Steady-state coherent amplitude for a constant drive `eps` (rad/ns):
    /// `α_ss = −i·ε / (i·Δ± + κ/2)`.
    pub fn steady_state(&self, excited: bool, eps: f64) -> C64 {
        let delta = self.pulled_detuning_rad(excited);
        let denom = C64::new(self.kappa_rad() / 2.0, delta);
        -C64::I * eps / denom
    }

    /// Integrates the coherent amplitude from vacuum under a constant drive
    /// for `duration_ns`, sampling `samples` points.
    pub fn ring_up(&self, excited: bool, eps: f64, duration_ns: f64, samples: usize) -> Trajectory {
        self.evolve(excited, |_| eps, duration_ns, samples)
    }

    /// Integrates `dα/dt = −iΔ±·α − (κ/2)·α − i·ε(t)` with RK4 from vacuum.
    ///
    /// # Panics
    ///
    /// Panics if `samples == 0`.
    pub fn evolve<E>(
        &self,
        excited: bool,
        mut eps: E,
        duration_ns: f64,
        samples: usize,
    ) -> Trajectory
    where
        E: FnMut(f64) -> f64,
    {
        assert!(samples > 0, "need at least one sample");
        let delta = self.pulled_detuning_rad(excited);
        let kappa = self.kappa_rad();
        let coeff = C64::new(-kappa / 2.0, -delta);
        let dt = duration_ns / samples as f64;

        let mut alpha = C64::ZERO;
        let mut times = Vec::with_capacity(samples + 1);
        let mut amps = Vec::with_capacity(samples + 1);
        times.push(0.0);
        amps.push(alpha);

        let rhs = |a: C64, e: f64| coeff * a - C64::I * e;
        for n in 0..samples {
            let t = n as f64 * dt;
            let e1 = eps(t);
            let e2 = eps(t + dt / 2.0);
            let e3 = eps(t + dt);
            let k1 = rhs(alpha, e1);
            let k2 = rhs(alpha + k1 * (dt / 2.0), e2);
            let k3 = rhs(alpha + k2 * (dt / 2.0), e2);
            let k4 = rhs(alpha + k3 * dt, e3);
            alpha += (k1 + k2 * 2.0 + k3 * 2.0 + k4) * (dt / 6.0);
            times.push(t + dt);
            amps.push(alpha);
        }
        Trajectory { times, amplitudes: amps }
    }

    /// Time for the ring-up transient to settle to within `tol` of steady
    /// state (analytic: the transient decays as `exp(−κt/2)`).
    pub fn settle_time_ns(&self, tol: f64) -> f64 {
        assert!(tol > 0.0 && tol < 1.0, "tol must be in (0,1)");
        -2.0 * tol.ln() / self.kappa_rad()
    }

    /// Separation of the two pointer states under constant drive `eps`
    /// at steady state, `|α₀ − α₁|`.
    pub fn pointer_separation(&self, eps: f64) -> f64 {
        (self.steady_state(false, eps) - self.steady_state(true, eps)).abs()
    }
}

/// A sampled coherent-amplitude trajectory `α(t)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    times: Vec<f64>,
    amplitudes: Vec<C64>,
}

impl Trajectory {
    /// Sample times in ns.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Coherent amplitudes at each sample time.
    pub fn amplitudes(&self) -> &[C64] {
        &self.amplitudes
    }

    /// Final amplitude.
    pub fn last_amplitude(&self) -> C64 {
        *self.amplitudes.last().expect("trajectory is never empty")
    }

    /// Photon number `|α(t)|²` at each sample.
    pub fn photon_numbers(&self) -> Vec<f64> {
        self.amplitudes.iter().map(|a| a.norm_sqr()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_up_approaches_steady_state() {
        let r = DispersiveResonator::standard();
        let eps = r.steady_drive_rad();
        for excited in [false, true] {
            let traj = r.ring_up(excited, eps, 800.0, 1600);
            let ss = r.steady_state(excited, eps);
            assert!(
                (traj.last_amplitude() - ss).abs() < 1e-2 * ss.abs().max(1.0),
                "did not settle (excited={excited})"
            );
        }
    }

    #[test]
    fn steady_photon_number_matches_target() {
        let r = DispersiveResonator::standard();
        let eps = r.steady_drive_rad();
        let n0 = r.steady_state(false, eps).norm_sqr();
        assert!((n0 - 10.0).abs() < 0.5, "n = {n0}");
    }

    #[test]
    fn pointer_states_differ() {
        let r = DispersiveResonator::standard();
        let eps = r.steady_drive_rad();
        let sep = r.pointer_separation(eps);
        assert!(sep > 1.0, "pointer separation too small: {sep}");
    }

    #[test]
    fn no_drive_stays_in_vacuum() {
        let r = DispersiveResonator::standard();
        let traj = r.ring_up(false, 0.0, 100.0, 100);
        assert!(traj.last_amplitude().abs() < 1e-12);
        assert_eq!(traj.times().len(), 101);
    }

    #[test]
    fn settle_time_is_inverse_kappa_scale() {
        let r = DispersiveResonator::standard();
        let t = r.settle_time_ns(0.01);
        // κ/2π = 5 MHz -> 1/κ ≈ 31.8 ns; settling to 1% takes ~9.2/κ/2... ≈ 293 ns
        assert!(t > 100.0 && t < 1000.0, "settle time {t}");
    }

    #[test]
    fn decay_after_drive_off() {
        let r = DispersiveResonator::standard();
        let eps = r.steady_drive_rad();
        // Drive for 400 ns then free decay for 400 ns.
        let traj = r.evolve(false, |t| if t < 400.0 { eps } else { 0.0 }, 800.0, 1600);
        let n = traj.photon_numbers();
        let peak = n[800];
        let end = *n.last().unwrap();
        assert!(end < 0.01 * peak, "photons did not decay: {end} vs peak {peak}");
    }
}
