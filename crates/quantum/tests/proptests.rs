//! Property tests of the quantum substrate's invariants.
//!
//! Each property runs [`CASES`] inputs drawn from a fixed-seed
//! [`Xorshift64Star`], so every run checks the same inputs; a failure
//! message names the input that broke the property.

use qisim_quantum::fidelity::{average_gate_fidelity, gate_error, state_fidelity};
use qisim_quantum::integrate::{normalize, propagator, schrodinger_evolve};
use qisim_quantum::rng::{Geometric, Rng, Xorshift64Star};
use qisim_quantum::transmon::{CoupledTransmons, Transmon};
use qisim_quantum::{CMatrix, Statevector, C64};

const CASES: usize = 48;
const SEED: u64 = 0x5157_0001;

/// Uniform draw in `[lo, hi)`.
fn uniform(rng: &mut Xorshift64Star, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.gen_f64()
}

/// Uniform draw in `lo..hi`.
fn below(rng: &mut Xorshift64Star, lo: usize, hi: usize) -> usize {
    lo + rng.gen_below((hi - lo) as u64) as usize
}

fn small_angle(rng: &mut Xorshift64Star) -> f64 {
    uniform(rng, -3.2, 3.2)
}

/// Every standard rotation gate is unitary.
#[test]
fn rotation_gates_are_unitary() {
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for _ in 0..CASES {
        let theta = small_angle(&mut rng);
        assert!(CMatrix::rx(theta).is_unitary(1e-12), "theta {theta}");
        assert!(CMatrix::ry(theta).is_unitary(1e-12), "theta {theta}");
        assert!(CMatrix::rz(theta).is_unitary(1e-12), "theta {theta}");
    }
}

/// `Rz(a)·Rz(b) = Rz(a+b)` up to numerical tolerance.
#[test]
fn rz_composes_additively() {
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for _ in 0..CASES {
        let (a, b) = (small_angle(&mut rng), small_angle(&mut rng));
        let lhs = &CMatrix::rz(a) * &CMatrix::rz(b);
        let rhs = CMatrix::rz(a + b);
        assert!(lhs.approx_eq(&rhs, 1e-12), "a {a}, b {b}");
    }
}

/// The propagator of any driven-transmon Hamiltonian is unitary.
#[test]
fn propagators_stay_unitary() {
    let check = |i_amp: f64, q_amp: f64, detune: f64, duration: f64| {
        let q = Transmon::standard();
        let steps = (duration * 400.0) as usize;
        let u = propagator(3, |_| q.driven_hamiltonian(detune, i_amp, q_amp), 0.0, duration, steps);
        assert!(
            u.is_unitary(1e-7),
            "norm drift too large (i {i_amp}, q {q_amp}, detune {detune}, duration {duration})"
        );
    };
    // Pinned input: a long undriven run recorded as a past failure.
    check(0.0, 0.0, 0.0, 28.90970697457068);
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for _ in 0..CASES {
        let i_amp = uniform(&mut rng, -0.3, 0.3);
        let q_amp = uniform(&mut rng, -0.3, 0.3);
        let detune = uniform(&mut rng, -0.2, 0.2);
        let duration = uniform(&mut rng, 1.0, 30.0);
        check(i_amp, q_amp, detune, duration);
    }
}

/// Schrödinger evolution preserves the state norm.
#[test]
fn schrodinger_preserves_norm() {
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for _ in 0..CASES {
        let rabi = uniform(&mut rng, 0.0, 0.3);
        let duration = uniform(&mut rng, 1.0, 20.0);
        let q = Transmon::standard();
        let mut psi = vec![C64::ONE, C64::ZERO, C64::ZERO];
        normalize(&mut psi);
        let out =
            schrodinger_evolve(&psi, |_| q.driven_hamiltonian(0.0, rabi, 0.0), 0.0, duration, 800);
        let norm: f64 = out.iter().map(|a| a.norm_sqr()).sum();
        assert!((norm - 1.0).abs() < 1e-6, "norm {norm} (rabi {rabi}, duration {duration})");
    }
}

/// Average gate fidelity lies in [0, 1] and equals 1 for identical
/// unitaries.
#[test]
fn fidelity_is_bounded() {
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for _ in 0..CASES {
        let (theta, phi) = (small_angle(&mut rng), small_angle(&mut rng));
        let a = CMatrix::rx(theta);
        let b = CMatrix::ry(phi);
        let f = average_gate_fidelity(&a, &b);
        assert!((0.0..=1.0 + 1e-12).contains(&f), "fidelity {f}");
        assert!(gate_error(&a, &a) < 1e-12, "theta {theta}");
    }
}

/// `gate_error` is symmetric for unitaries.
#[test]
fn gate_error_is_symmetric() {
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for _ in 0..CASES {
        let (theta, phi) = (small_angle(&mut rng), small_angle(&mut rng));
        let a = CMatrix::rx(theta);
        let b = CMatrix::rz(phi);
        let e_ab = gate_error(&a, &b);
        let e_ba = gate_error(&b, &a);
        assert!((e_ab - e_ba).abs() < 1e-12, "theta {theta}, phi {phi}");
    }
}

/// Statevector gate application preserves normalization and
/// probabilities stay a distribution.
#[test]
fn statevector_stays_normalized() {
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for _ in 0..CASES {
        let qubits = below(&mut rng, 2, 7);
        let gates: Vec<(usize, usize, f64)> = (0..below(&mut rng, 1, 24))
            .map(|_| (below(&mut rng, 0, 6), below(&mut rng, 0, 6), uniform(&mut rng, -3.0, 3.0)))
            .collect();
        let mut s = Statevector::zero_state(qubits);
        for &(kind, q, theta) in &gates {
            let q = q % qubits;
            match kind {
                0 => s.apply_1q(&CMatrix::hadamard(), q),
                1 => s.apply_1q(&CMatrix::rx(theta), q),
                2 => s.apply_1q(&CMatrix::rz(theta), q),
                3 => s.apply_pauli('X', q),
                4 => s.apply_pauli('Y', q),
                _ => {
                    let other = (q + 1) % qubits;
                    s.apply_2q(&CMatrix::cz(), q, other);
                }
            }
        }
        let total: f64 = s.probabilities().iter().sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "probability mass {total} ({qubits} qubits, {gates:?})"
        );
    }
}

/// Measurement collapse leaves a valid, consistent state.
#[test]
fn collapse_is_consistent() {
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for _ in 0..CASES {
        let qubits = below(&mut rng, 2, 6);
        let target = below(&mut rng, 0, 6) % qubits;
        let mut s = Statevector::zero_state(qubits);
        for q in 0..qubits {
            s.apply_1q(&CMatrix::hadamard(), q);
        }
        s.collapse(target, true);
        assert!((s.prob_one(target) - 1.0).abs() < 1e-9, "{qubits} qubits, target {target}");
        let total: f64 = s.probabilities().iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "{qubits} qubits, target {target}");
    }
}

/// State fidelity is symmetric, bounded, and 1 on identical states.
#[test]
fn state_fidelity_properties() {
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for _ in 0..CASES {
        let qubits = below(&mut rng, 1, 5);
        let seed = rng.gen_below(1000);
        let mut s = Statevector::zero_state(qubits);
        // Deterministic pseudo-random circuit from the seed.
        let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        for _ in 0..6 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let q = (x >> 32) as usize % qubits;
            let theta = ((x >> 16) & 0xFFFF) as f64 / 65536.0 * std::f64::consts::TAU;
            s.apply_1q(&CMatrix::ry(theta), q);
        }
        let f_self = state_fidelity(s.amplitudes(), s.amplitudes());
        assert!((f_self - 1.0).abs() < 1e-9, "{qubits} qubits, seed {seed}");
        let zero = Statevector::zero_state(qubits);
        let f_ab = state_fidelity(s.amplitudes(), zero.amplitudes());
        let f_ba = state_fidelity(zero.amplitudes(), s.amplitudes());
        assert!((f_ab - f_ba).abs() < 1e-12, "{qubits} qubits, seed {seed}");
        assert!((0.0..=1.0 + 1e-9).contains(&f_ab), "{qubits} qubits, seed {seed}");
    }
}

/// Kronecker products preserve unitarity and multiply dimensions.
#[test]
fn kron_preserves_unitarity() {
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for _ in 0..CASES {
        let (a, b) = (small_angle(&mut rng), small_angle(&mut rng));
        let u = CMatrix::rx(a).kron(&CMatrix::rz(b));
        assert_eq!(u.dim(), 4);
        assert!(u.is_unitary(1e-12), "a {a}, b {b}");
    }
}

/// The coupled-transmon Hamiltonian is Hermitian for any detuning.
#[test]
fn coupled_hamiltonian_hermitian() {
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for _ in 0..CASES {
        let delta = uniform(&mut rng, -1.0, 1.0);
        let pair = CoupledTransmons::standard();
        assert!(pair.hamiltonian(delta).is_hermitian(1e-12), "delta {delta}");
    }
}

/// Geometric-skip placement matches per-qubit Bernoulli placement in
/// distribution: over many runs, the two samplers' mean placed-count
/// per run must agree within combined Monte-Carlo error, and every
/// placed position must be in range and strictly ascending.
#[test]
fn geometric_skip_matches_bernoulli_scan() {
    let mut draws = Xorshift64Star::seed_from_u64(SEED);
    for _ in 0..CASES {
        let p = uniform(&mut draws, 0.005, 0.4);
        let n = below(&mut draws, 10, 200);
        let seed = draws.gen_below(1_000);
        let geo = Geometric::new(p);
        let runs = 600usize;
        let mut skip_total = 0usize;
        let mut rng = Xorshift64Star::stream(seed, 1);
        for _ in 0..runs {
            let mut placed = Vec::new();
            let any = geo.positions(n, &mut rng, |q| placed.push(q));
            assert!(placed.iter().all(|&q| q < n), "{placed:?} out of range {n}");
            assert!(placed.windows(2).all(|w| w[0] < w[1]), "must strictly ascend");
            assert_eq!(any, !placed.is_empty());
            skip_total += placed.len();
        }
        let mut scan_total = 0usize;
        let mut rng = Xorshift64Star::stream(seed, 2);
        for _ in 0..runs {
            scan_total += (0..n).filter(|_| rng.gen_f64() < p).count();
        }
        let mean_skip = skip_total as f64 / runs as f64;
        let mean_scan = scan_total as f64 / runs as f64;
        // Var of one run's count is n·p·(1−p); both estimators carry it.
        let sigma = (2.0 * n as f64 * p * (1.0 - p) / runs as f64).sqrt();
        assert!(
            (mean_skip - mean_scan).abs() < 6.0 * sigma.max(1e-6),
            "skip mean {mean_skip} vs scan mean {mean_scan} (n={n}, p={p}, seed={seed})"
        );
    }
}
