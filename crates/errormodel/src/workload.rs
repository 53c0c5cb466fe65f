//! Workload-level error simulator (§4.5): Monte-Carlo Pauli-channel
//! trajectories over the statevector engine, with decoherence injected
//! from the cycle-accurate simulator's gate timings.
//!
//! The paper argues (citing Geller & Zhou) that Pauli channels suffice in
//! the FTQC regime; a trajectory Monte-Carlo over the same channels
//! converges to the same fidelities as Qiskit's density-matrix
//! simulation while scaling to 20+ qubits.

use qisim_cyclesim::{Circuit, OpKind, Timeline};
use qisim_quantum::rng::Rng;
use qisim_quantum::{CMatrix, Statevector};
use std::f64::consts::PI;

/// Physical error rates driving the Pauli channels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorRates {
    /// Single-qubit (drive) gate error.
    pub one_q: f64,
    /// Two-qubit gate error.
    pub two_q: f64,
    /// Readout assignment error.
    pub readout: f64,
    /// Relaxation time in µs.
    pub t1_us: f64,
    /// Dephasing time in µs.
    pub t2_us: f64,
}

impl ErrorRates {
    /// Table 2's CMOS operating point with the `ibm_mumbai` coherence
    /// times.
    pub fn cmos_table2() -> Self {
        ErrorRates { one_q: 8.17e-7, two_q: 7.8e-4, readout: 1.0e-3, t1_us: 122.0, t2_us: 118.0 }
    }

    /// Pauli-twirled idle-decoherence probabilities `(p_x, p_y, p_z)` for
    /// an idle window of `t_ns`.
    pub fn idle_paulis(&self, t_ns: f64) -> (f64, f64, f64) {
        let t1 = self.t1_us * 1e3;
        let t2 = self.t2_us * 1e3;
        let p_relax = 1.0 - (-t_ns / t1).exp();
        // Pure-dephasing rate 1/Tφ = 1/T2 − 1/(2T1).
        let inv_tphi = (1.0 / t2 - 0.5 / t1).max(0.0);
        let p_phi = 1.0 - (-t_ns * inv_tphi).exp();
        let px = p_relax / 4.0;
        let py = p_relax / 4.0;
        let pz = (p_phi / 2.0 + p_relax / 4.0).min(0.5);
        (px, py, pz)
    }
}

fn gate_matrix(kind: OpKind) -> Option<CMatrix> {
    Some(match kind {
        OpKind::H => CMatrix::hadamard(),
        OpKind::X => CMatrix::pauli_x(),
        OpKind::Y => CMatrix::pauli_y(),
        OpKind::Z => CMatrix::pauli_z(),
        OpKind::S => CMatrix::rz(PI / 2.0),
        OpKind::Sdg => CMatrix::rz(-PI / 2.0),
        OpKind::T => CMatrix::rz(PI / 4.0),
        OpKind::Tdg => CMatrix::rz(-PI / 4.0),
        OpKind::Rx(t) => CMatrix::rx(t),
        OpKind::Ry(t) => CMatrix::ry(t),
        OpKind::Rz(t) => CMatrix::rz(t),
        OpKind::RyPi2Rz(phi) => &CMatrix::ry(PI / 2.0) * &CMatrix::rz(phi),
        _ => return None,
    })
}

fn apply_ideal(state: &mut Statevector, kind: OpKind, qubit: u32, other: Option<u32>) {
    match kind {
        OpKind::Cz => {
            state.apply_2q(&CMatrix::cz(), qubit as usize, other.expect("cz partner") as usize);
        }
        OpKind::Cx => {
            // CX = (I⊗H)·CZ·(I⊗H) on the target.
            let t = other.expect("cx target") as usize;
            state.apply_1q(&CMatrix::hadamard(), t);
            state.apply_2q(&CMatrix::cz(), qubit as usize, t);
            state.apply_1q(&CMatrix::hadamard(), t);
        }
        OpKind::Measure | OpKind::Barrier => {}
        k => {
            let m = gate_matrix(k).expect("single-qubit kind");
            state.apply_1q(&m, qubit as usize);
        }
    }
}

fn random_pauli<R: Rng>(state: &mut Statevector, qubit: u32, rng: &mut R) {
    let p = ['X', 'Y', 'Z'][rng.gen_below(3) as usize];
    state.apply_pauli(p, qubit as usize);
}

/// Runs the ideal (error-free) circuit and returns the pre-measurement
/// state.
///
/// # Panics
///
/// Panics if the circuit exceeds the statevector engine's qubit capacity.
pub fn ideal_state(circuit: &Circuit) -> Statevector {
    let mut state = Statevector::zero_state(circuit.qubits() as usize);
    for op in circuit.ops() {
        apply_ideal(&mut state, op.kind, op.qubit, op.other);
    }
    state
}

/// Workload-level fidelity estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSim {
    /// Physical error rates.
    pub rates: ErrorRates,
    /// Monte-Carlo trajectories.
    pub trajectories: usize,
}

impl WorkloadSim {
    /// A simulator with the given rates and 200 trajectories.
    pub fn new(rates: ErrorRates) -> Self {
        WorkloadSim { rates, trajectories: 200 }
    }

    /// Estimates the workload fidelity: mean squared overlap of noisy
    /// trajectories with the ideal pre-measurement state, multiplied by
    /// the probability that every measurement reads out correctly.
    ///
    /// Decoherence uses the `timeline`'s per-qubit idle gaps (the §4.5
    /// identity-gate injection, at exact gap granularity).
    pub fn fidelity<R: Rng>(&self, circuit: &Circuit, timeline: &Timeline, rng: &mut R) -> f64 {
        let ideal = ideal_state(circuit);
        let nq = circuit.qubits() as usize;
        let mut total = 0.0;
        for _ in 0..self.trajectories {
            let mut state = Statevector::zero_state(nq);
            let mut last_t = vec![0.0f64; nq];
            // Events sorted by start time (stable for equal starts).
            let mut order: Vec<usize> = (0..timeline.events().len()).collect();
            order.sort_by(|&a, &b| {
                timeline.events()[a]
                    .start_ns
                    .partial_cmp(&timeline.events()[b].start_ns)
                    .expect("finite times")
                    .then(a.cmp(&b))
            });
            for &ei in &order {
                let e = timeline.events()[ei];
                // Idle decoherence on the involved qubits since their
                // last activity.
                for q in std::iter::once(e.qubit).chain(e.other) {
                    let gap = e.start_ns - last_t[q as usize];
                    if gap > 0.0 {
                        let (px, py, pz) = self.rates.idle_paulis(gap);
                        let u = rng.gen_f64();
                        if u < px {
                            state.apply_pauli('X', q as usize);
                        } else if u < px + py {
                            state.apply_pauli('Y', q as usize);
                        } else if u < px + py + pz {
                            state.apply_pauli('Z', q as usize);
                        }
                    }
                    last_t[q as usize] = e.end_ns;
                }
                apply_ideal(&mut state, e.kind, e.qubit, e.other);
                // Gate-error Pauli channel.
                match e.kind {
                    OpKind::Measure | OpKind::Barrier => {}
                    k if k.is_two_qubit() => {
                        if rng.gen_f64() < self.rates.two_q {
                            random_pauli(&mut state, e.qubit, rng);
                            if rng.gen_bool() {
                                random_pauli(&mut state, e.other.expect("2q partner"), rng);
                            }
                        }
                    }
                    _ => {
                        if rng.gen_f64() < self.rates.one_q {
                            random_pauli(&mut state, e.qubit, rng);
                        }
                    }
                }
            }
            total += ideal
                .amplitudes()
                .iter()
                .zip(state.amplitudes())
                .map(|(a, b)| a.conj() * *b)
                .fold(qisim_quantum::C64::ZERO, |acc, x| acc + x)
                .norm_sqr();
        }
        let state_fid = total / self.trajectories as f64;
        let ro_success = (1.0 - self.rates.readout).powi(circuit.measure_count() as i32);
        state_fid * ro_success
    }

    /// First-order analytic fidelity estimate: `Π(1−p)` over every gate,
    /// idle window, and measurement — the cheap cross-check the
    /// Monte-Carlo must agree with for small error rates.
    pub fn analytic_fidelity(&self, circuit: &Circuit, timeline: &Timeline) -> f64 {
        let mut log_f = 0.0f64;
        for e in timeline.events() {
            match e.kind {
                OpKind::Measure => log_f += (1.0 - self.rates.readout).ln(),
                OpKind::Barrier => {}
                k if k.is_two_qubit() => log_f += (1.0 - self.rates.two_q).ln(),
                _ => log_f += (1.0 - self.rates.one_q).ln(),
            }
        }
        // Idle decoherence: every qubit decoheres over its idle time.
        for q in 0..circuit.qubits() {
            let idle = timeline.qubit_idle_ns(q);
            let (px, py, pz) = self.rates.idle_paulis(idle);
            log_f += (1.0 - (px + py + pz)).ln();
        }
        log_f.exp()
    }
}

/// Convenience: a deterministic seeded RNG for reproducible experiments.
pub fn seeded_rng(seed: u64) -> impl Rng {
    qisim_quantum::rng::Xorshift64Star::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qisim_cyclesim::{simulate, workloads, TimingModel};

    fn run(circuit: &Circuit, rates: ErrorRates, traj: usize, seed: u64) -> f64 {
        let timeline = simulate(circuit, &TimingModel::cmos_baseline());
        let sim = WorkloadSim { rates, trajectories: traj };
        sim.fidelity(circuit, &timeline, &mut seeded_rng(seed))
    }

    #[test]
    fn zero_error_gives_unit_fidelity() {
        let rates = ErrorRates {
            one_q: 0.0,
            two_q: 0.0,
            readout: 0.0,
            t1_us: f64::INFINITY,
            t2_us: f64::INFINITY,
        };
        let f = run(&workloads::ghz(4), rates, 20, 1);
        assert!((f - 1.0).abs() < 1e-9, "fidelity {f}");
    }

    #[test]
    fn fidelity_decreases_with_error_rate() {
        let base = ErrorRates::cmos_table2();
        let worse = ErrorRates { two_q: 0.05, readout: 0.05, ..base };
        let f_good = run(&workloads::ghz(6), base, 120, 2);
        let f_bad = run(&workloads::ghz(6), worse, 120, 2);
        assert!(f_bad < f_good, "bad {f_bad} vs good {f_good}");
    }

    #[test]
    fn mc_matches_analytic_for_small_errors() {
        let circuit = workloads::qaoa_ring(5, 0.6, 0.3);
        let timeline = simulate(&circuit, &TimingModel::cmos_baseline());
        let sim = WorkloadSim { rates: ErrorRates::cmos_table2(), trajectories: 400 };
        let mc = sim.fidelity(&circuit, &timeline, &mut seeded_rng(7));
        let analytic = sim.analytic_fidelity(&circuit, &timeline);
        assert!(
            (mc - analytic).abs() < 0.05,
            "MC {mc} vs analytic {analytic} (Fig. 11-style 5% agreement)"
        );
    }

    #[test]
    fn decoherence_hits_idle_heavy_circuits_harder() {
        // Identical gate counts, but a slower readout leaves the waiting
        // qubit idle (decohering) far longer — the mechanism behind the
        // Opt-7 logical-error gains.
        use qisim_cyclesim::{Op, OpKind};
        let rates = ErrorRates { one_q: 0.0, two_q: 0.0, readout: 0.0, t1_us: 10.0, t2_us: 10.0 };
        let mut c = Circuit::new(2, 2);
        c.push(Op::one_q(OpKind::H, 0));
        c.push(Op::two_q(OpKind::Cz, 0, 1));
        c.push(Op::measure(0, 0));
        c.push(Op { kind: OpKind::Barrier, qubit: 0, other: None, cbit: None });
        c.push(Op::one_q(OpKind::X, 1));
        c.push(Op::measure(1, 1));
        let fast = simulate(&c, &TimingModel::cmos(8, 300.0));
        let slow = simulate(&c, &TimingModel::cmos(8, 4000.0));
        assert!(slow.qubit_idle_ns(1) > fast.qubit_idle_ns(1));
        let sim = WorkloadSim { rates, trajectories: 400 };
        let f_fast = sim.fidelity(&c, &fast, &mut seeded_rng(3));
        let f_slow = sim.fidelity(&c, &slow, &mut seeded_rng(3));
        assert!(f_slow < f_fast, "slow {f_slow} vs fast {f_fast}");
    }

    #[test]
    fn idle_paulis_grow_with_time_and_saturate() {
        let r = ErrorRates::cmos_table2();
        let (x1, _, z1) = r.idle_paulis(100.0);
        let (x2, _, z2) = r.idle_paulis(10_000.0);
        assert!(x2 > x1);
        assert!(z2 > z1);
        let (x3, y3, z3) = r.idle_paulis(1e12);
        assert!(x3 <= 0.25 + 1e-9 && y3 <= 0.25 + 1e-9 && z3 <= 0.5 + 1e-9);
    }

    #[test]
    fn validation_suite_fidelities_are_physical() {
        for c in workloads::validation_suite() {
            if c.qubits() > 9 {
                continue; // keep the unit test fast
            }
            let f = run(&c, ErrorRates::cmos_table2(), 60, 11);
            assert!((0.0..=1.0 + 1e-9).contains(&f), "{}: fidelity {f}", c.name);
            assert!(f > 0.5, "{}: fidelity {f} implausibly low", c.name);
        }
    }
}
