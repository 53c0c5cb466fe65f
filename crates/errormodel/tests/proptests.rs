//! Property-based tests of the error models' invariants.
//!
//! Each property runs [`CASES`] inputs drawn from a fixed-seed
//! [`Xorshift64Star`], so every run checks the same inputs; a failure
//! message names the input that broke the property.

use qisim_error::readout_sfq::{ljj_failure, SfqReadoutModel};
use qisim_error::sfq_1q::Sfq1qModel;
use qisim_error::workload::ErrorRates;
use qisim_quantum::rng::{Rng, Xorshift64Star};
use std::collections::BTreeSet;

const CASES: usize = 64;
const SEED: u64 = 0x5157_0005;

/// Uniform draw in `[lo, hi)`.
fn uniform(rng: &mut Xorshift64Star, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.gen_f64()
}

/// Idle Pauli probabilities are a sub-distribution, monotone in time,
/// and vanish at t = 0.
#[test]
fn idle_paulis_are_a_subdistribution() {
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for _ in 0..CASES {
        let t1 = uniform(&mut rng, 1.0, 1000.0);
        let t2_frac = uniform(&mut rng, 0.1, 2.0);
        let t = uniform(&mut rng, 0.0, 1e6);
        let case = format!("t1 {t1}, t2_frac {t2_frac}, t {t}");
        let rates =
            ErrorRates { one_q: 0.0, two_q: 0.0, readout: 0.0, t1_us: t1, t2_us: t1 * t2_frac };
        let (px, py, pz) = rates.idle_paulis(t);
        assert!(px >= 0.0 && py >= 0.0 && pz >= 0.0, "{case}");
        assert!(px + py + pz <= 1.0 + 1e-12, "total {} ({case})", px + py + pz);
        let (x0, y0, z0) = rates.idle_paulis(0.0);
        assert!(x0.abs() < 1e-15 && y0.abs() < 1e-15 && z0.abs() < 1e-15, "{case}");
        let (x2, y2, z2) = rates.idle_paulis(t + 100.0);
        assert!(x2 >= px && y2 >= py && z2 >= pz, "{case}");
    }
}

/// The LJJ comparator failure rate is a probability, monotone in the
/// jitter and anti-monotone in the designed delay.
#[test]
fn ljj_failure_is_well_behaved() {
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for _ in 0..CASES {
        let delay = uniform(&mut rng, 0.1, 50.0);
        let jitter = uniform(&mut rng, 0.1, 20.0);
        let p = ljj_failure(delay, jitter);
        assert!((0.0..=0.5).contains(&p), "failure {p} (delay {delay}, jitter {jitter})");
        assert!(ljj_failure(delay * 2.0, jitter) <= p + 1e-15, "delay {delay}, jitter {jitter}");
        assert!(ljj_failure(delay, jitter * 2.0) >= p - 1e-15, "delay {delay}, jitter {jitter}");
    }
}

/// SFQ Rz-table error is bounded by the worst quantization gap and is
/// zero at realizable angles.
#[test]
fn rz_error_bounds() {
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for _ in 0..CASES {
        let phi = uniform(&mut rng, 0.0, std::f64::consts::TAU);
        let m = Sfq1qModel::baseline();
        let e = m.rz_error(phi);
        assert!((0.0..=1.0).contains(&e), "phi {phi}: {e}");
        assert!(e < 2e-4, "table density violated at {phi}: {e}");
        // A realized angle has zero error.
        let realized = m.phase_per_cycle() * 17.0 % std::f64::consts::TAU;
        assert!(m.rz_error(realized) < 1e-20);
    }
}

/// Any pulse train's Ry error is a valid infidelity, and doubling the
/// tip of an aligned train moves the result (sanity of the unitary
/// composition).
#[test]
fn train_error_is_bounded() {
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for _ in 0..CASES {
        // 1..8 distinct pulse slots in 0..21, ascending.
        let len = 1 + rng.gen_below(7) as usize;
        let mut slots = BTreeSet::new();
        while slots.len() < len {
            slots.insert(rng.gen_below(21) as usize);
        }
        let tip = uniform(&mut rng, 0.01, 1.5);
        let m = Sfq1qModel::baseline();
        let pulses: Vec<usize> = slots.into_iter().collect();
        let e = m.ry_pi2_error(&pulses, tip);
        assert!((0.0..=1.0).contains(&e), "error {e} (pulses {pulses:?}, tip {tip})");
        let u = m.train_unitary(&pulses, tip);
        assert!(u.is_unitary(1e-9), "pulses {pulses:?}, tip {tip}");
    }
}

/// SFQ readout errors decompose consistently for any boost and target
/// photon number.
#[test]
fn sfq_readout_error_decomposition() {
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for _ in 0..CASES {
        let boost = uniform(&mut rng, 1.0, 4.0);
        let n_target = uniform(&mut rng, 2.0, 40.0);
        let case = format!("boost {boost}, n_target {n_target}");
        let m = SfqReadoutModel { boost, n_target, ..SfqReadoutModel::baseline() };
        let e = m.errors();
        assert!((e.total() - e.assignment() - e.reset).abs() < 1e-15, "{case}");
        assert!(e.driving_tunneling >= 0.0 && e.driving_tunneling <= 1.0, "{case}");
        // Driving time scales exactly inversely with the boost.
        assert!((m.driving_ns() * boost - 578.2).abs() < 1e-9, "{case}");
    }
}

/// More photons at fixed suppression never increase the miss
/// probability side of the assignment error beyond the dark floor.
#[test]
fn more_photons_help_until_dark_counts() {
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for _ in 0..CASES {
        let n = uniform(&mut rng, 2.0, 30.0);
        let low = SfqReadoutModel { n_target: n, ..SfqReadoutModel::baseline() };
        let high = SfqReadoutModel { n_target: n * 1.5, ..SfqReadoutModel::baseline() };
        // Not strictly monotone once false clicks dominate, but within
        // the operating range brighter is never catastrophically worse.
        assert!(
            high.errors().assignment() < 2.0 * low.errors().assignment() + 1e-3,
            "n_target {n}"
        );
    }
}
