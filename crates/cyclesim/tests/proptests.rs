//! Property-based tests of the cycle-accurate scheduler's invariants.
//!
//! Each property runs [`CASES`] random circuits drawn from a fixed-seed
//! [`Xorshift64Star`], so every run checks the same inputs; a failure
//! message names the case index and circuit.

use qisim_cyclesim::{simulate, Circuit, Op, OpKind, TimingModel};
use qisim_microarch::sfq::ReadoutSchedule;
use qisim_quantum::rng::{Rng, Xorshift64Star};

const CASES: usize = 40;
const SEED: u64 = 0x5157_0004;

/// A random circuit over a small gate alphabet: a qubit count in
/// `2..max_qubits` and 1..60 ops, each a gate kind in `0..6` on qubit
/// indices drawn from `0..16` (reduced mod the qubit count).
fn random_circuit(rng: &mut Xorshift64Star, max_qubits: u32) -> (u32, Circuit) {
    let qubits = 2 + rng.gen_below(u64::from(max_qubits - 2)) as u32;
    let mut c = Circuit::new(qubits, qubits);
    for _ in 0..1 + rng.gen_below(59) {
        let kind = rng.gen_below(6);
        let a = rng.gen_below(16) as u32 % qubits;
        let b = rng.gen_below(16) as u32 % qubits;
        match kind {
            0 => c.push(Op::one_q(OpKind::H, a)),
            1 => c.push(Op::one_q(OpKind::X, a)),
            2 => c.push(Op::one_q(OpKind::Rz(0.5), a)),
            3 => {
                if a != b {
                    c.push(Op::two_q(OpKind::Cz, a, b));
                }
            }
            4 => c.push(Op::measure(a, a)),
            _ => c.push(Op::one_q(OpKind::Ry(1.0), a)),
        }
    }
    (qubits, c)
}

/// Per-qubit program order is preserved: no two events on the same
/// qubit overlap, and they run in issue order.
#[test]
fn per_qubit_events_never_overlap() {
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for case in 0..CASES {
        let (qubits, c) = random_circuit(&mut rng, 9);
        let t = simulate(&c, &TimingModel::cmos_baseline());
        for q in 0..qubits {
            let mut events: Vec<_> =
                t.events().iter().filter(|e| e.qubit == q || e.other == Some(q)).collect();
            events.sort_by(|a, b| a.start_ns.partial_cmp(&b.start_ns).unwrap());
            for w in events.windows(2) {
                assert!(
                    w[1].start_ns >= w[0].end_ns - 1e-9,
                    "case {case}, qubit {q}: {:?} overlaps {:?} in {c:?}",
                    w[0],
                    w[1]
                );
            }
        }
    }
}

/// Program order per qubit is respected (op indices increase).
#[test]
fn program_order_is_respected() {
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for case in 0..CASES {
        let (qubits, c) = random_circuit(&mut rng, 9);
        let t = simulate(&c, &TimingModel::cmos_baseline());
        for q in 0..qubits {
            let mut last_end = 0.0f64;
            for e in t.events().iter().filter(|e| e.qubit == q || e.other == Some(q)) {
                // Events stored in commit order; for one qubit the start
                // must be at least the previous end.
                assert!(e.start_ns >= last_end - 1e-9, "case {case}, qubit {q} in {c:?}");
                last_end = e.end_ns;
            }
        }
    }
}

/// Every op is scheduled exactly once and the makespan covers all.
#[test]
fn schedule_is_complete() {
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for case in 0..CASES {
        let (_, c) = random_circuit(&mut rng, 9);
        let t = simulate(&c, &TimingModel::cmos_baseline());
        assert_eq!(t.events().len(), c.ops().len(), "case {case}: {c:?}");
        let max_end = t.events().iter().map(|e| e.end_ns).fold(0.0f64, f64::max);
        assert!((t.makespan_ns() - max_end).abs() < 1e-9, "case {case}: {c:?}");
        // Each op index appears exactly once.
        let mut seen = vec![false; c.ops().len()];
        for e in t.events() {
            assert!(!seen[e.op_index], "op {} scheduled twice in case {case}", e.op_index);
            seen[e.op_index] = true;
        }
    }
}

/// Relaxing a structural hazard never lengthens the schedule: more
/// FDM banks or per-qubit AWGs are at least as fast.
#[test]
fn fewer_hazards_never_hurt() {
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for case in 0..CASES {
        let (_, c) = random_circuit(&mut rng, 9);
        let tight = simulate(&c, &TimingModel::cmos_baseline());
        let loose = simulate(
            &c,
            &TimingModel {
                drive: qisim_cyclesim::sim::DriveModel::PerQubit,
                ..TimingModel::cmos_baseline()
            },
        );
        assert!(loose.makespan_ns() <= tight.makespan_ns() + 1e-9, "case {case}: {c:?}");
    }
}

/// Raising #BS never lengthens an SFQ schedule.
#[test]
fn more_broadcast_lanes_never_hurt() {
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for case in 0..CASES {
        let (_, c) = random_circuit(&mut rng, 9);
        let bs1 = simulate(&c, &TimingModel::sfq(1, ReadoutSchedule::baseline()));
        let bs8 = simulate(&c, &TimingModel::sfq(8, ReadoutSchedule::baseline()));
        assert!(bs8.makespan_ns() <= bs1.makespan_ns() + 1e-9, "case {case}: {c:?}");
    }
}

/// Activity factors are well-formed fractions.
#[test]
fn activity_factors_are_fractions() {
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for case in 0..CASES {
        let (_, c) = random_circuit(&mut rng, 9);
        let t = simulate(&c, &TimingModel::cmos_baseline());
        let a = t.activity();
        for v in [a.drive_duty, a.per_qubit_gate_duty, a.cz_duty, a.readout_duty] {
            assert!((0.0..=1.0).contains(&v), "activity {v} in case {case}: {c:?}");
        }
    }
}

/// Busy + idle always partitions the makespan.
#[test]
fn busy_idle_partition() {
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for case in 0..CASES {
        let (qubits, c) = random_circuit(&mut rng, 7);
        let t = simulate(&c, &TimingModel::cmos_baseline());
        for q in 0..qubits {
            let sum = t.qubit_busy_ns(q) + t.qubit_idle_ns(q);
            assert!((sum - t.makespan_ns()).abs() < 1e-6, "case {case}, qubit {q}: {c:?}");
        }
    }
}
