//! Property tests of the microarchitecture models.
//!
//! Each property runs [`CASES`] inputs drawn from a fixed-seed
//! [`Xorshift64Star`], so every run checks the same inputs; a failure
//! message names the input that broke the property.

use qisim_hal::fridge::Stage;
use qisim_microarch::cryo_cmos::drive::{hann_envelope, iq_samples, Nco};
use qisim_microarch::cryo_cmos::pulse::{ramped_pulse, CzTarget, PulseSequencer};
use qisim_microarch::cryo_cmos::rx::{memoryless, single_point, DiscriminatingLine};
use qisim_microarch::cryo_cmos::{CryoCmosConfig, EsmProfile};
use qisim_microarch::isa::{EsmTraffic, IsaFormat};
use qisim_microarch::sfq::drive::BitstreamGenerator;
use qisim_microarch::sfq::readout::{JpmSharing, ReadoutSchedule, SHARING_DEGREE};
use qisim_quantum::rng::{Rng, Xorshift64Star};
use std::f64::consts::TAU;

const CASES: usize = 64;
const SEED: u64 = 0x5157_0002;

/// Uniform draw in `[lo, hi)`.
fn uniform(rng: &mut Xorshift64Star, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.gen_f64()
}

/// Uniform draw in `lo..hi`.
fn below(rng: &mut Xorshift64Star, lo: u64, hi: u64) -> u64 {
    lo + rng.gen_below(hi - lo)
}

/// NCO phase arithmetic: `n` ticks then `virtual_rz(φ)` equals the
/// accumulated value mod 2π (up to the 24-bit quantization).
#[test]
fn nco_accumulates_mod_2pi() {
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for _ in 0..CASES {
        let omega = uniform(&mut rng, 0.0, 1.0);
        let n = below(&mut rng, 1, 10_000);
        let phi = uniform(&mut rng, -10.0, 10.0);
        let mut nco = Nco::new(omega);
        nco.tick_n(n);
        nco.virtual_rz(phi);
        let quantum = TAU / (1u64 << 24) as f64;
        let q = |x: f64| ((x / quantum).round() * quantum).rem_euclid(TAU);
        let expected = (q(omega) * n as f64 + q(phi)).rem_euclid(TAU);
        let mut diff = (nco.phase() - expected).abs();
        if diff > TAU / 2.0 {
            diff = TAU - diff;
        }
        assert!(
            diff < n as f64 * quantum + 1e-9,
            "phase drift {diff} (omega {omega}, n {n}, phi {phi})"
        );
    }
}

/// Quantized I/Q samples never exceed the DAC full scale.
#[test]
fn iq_samples_respect_full_scale() {
    let check = |amp: f64, phase: f64, omega: f64, bits: u32| {
        let env = hann_envelope(32, amp, phase);
        for (i, q) in iq_samples(&env, 0.0, omega, bits) {
            assert!(i.abs() <= 1.0 + 1e-12, "amp {amp}, phase {phase}, omega {omega}, bits {bits}");
            assert!(q.abs() <= 1.0 + 1e-12, "amp {amp}, phase {phase}, omega {omega}, bits {bits}");
        }
    };
    // Pinned input from a past failure: a silent pulse at one bit. One
    // bit is outside the DAC's domain and must be rejected, not
    // quantized; the same pulse at the lowest legal precision passes.
    let env = hann_envelope(32, 0.0, 0.0);
    assert!(std::panic::catch_unwind(|| iq_samples(&env, 0.0, 0.0, 1)).is_err());
    check(0.0, 0.0, 0.0, 2);
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for _ in 0..CASES {
        let amp = uniform(&mut rng, 0.0, 1.0);
        let phase = uniform(&mut rng, -3.2, 3.2);
        let omega = uniform(&mut rng, 0.0, 0.5);
        let bits = below(&mut rng, 2, 17) as u32;
        check(amp, phase, omega, bits);
    }
}

/// The pulse sequencer plays exactly the programmed length and stays
/// within [-1, 1].
#[test]
fn pulse_sequencer_length_and_range() {
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for _ in 0..CASES {
        let peak = uniform(&mut rng, 0.05, 1.0);
        let ramp_runs = below(&mut rng, 1, 12) as u32;
        let ramp_cycles = below(&mut rng, 1, 6) as u32;
        let plateau = below(&mut rng, 1, 80) as u32;
        let bits = below(&mut rng, 2, 16) as u32;
        let case =
            format!("peak {peak}, ramp {ramp_runs}x{ramp_cycles}, plateau {plateau}, bits {bits}");
        let mut seq = PulseSequencer::new(bits);
        let runs = ramped_pulse(peak, ramp_runs, ramp_cycles, plateau);
        seq.load(CzTarget::North, runs);
        let samples = seq.play(CzTarget::North);
        assert_eq!(samples.len() as u64, seq.pulse_cycles(CzTarget::North), "{case}");
        assert_eq!(samples.len() as u32, 2 * ramp_runs * ramp_cycles + plateau, "{case}");
        for s in samples {
            assert!((-1.0..=1.0).contains(&s), "{case}");
        }
    }
}

/// Memoryless and bin-counting decisions agree with the sign of the
/// projection for far-away clouds, and single-point agrees too.
#[test]
fn decision_units_agree_on_clear_signals() {
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for _ in 0..CASES {
        // Only clouds clearly off the discriminating line count as cases.
        let cx = loop {
            let cx = uniform(&mut rng, -0.9, 0.9);
            if cx.abs() > 0.2 {
                break cx;
            }
        };
        let cy = uniform(&mut rng, -0.9, 0.9);
        let line = DiscriminatingLine::between((-1.0, 0.0), (1.0, 0.0));
        let samples: Vec<(f64, f64)> =
            (0..64).map(|k| (cx + 0.01 * (k % 5) as f64, cy + 0.01 * (k % 3) as f64)).collect();
        let expect = cx > 0.0;
        assert_eq!(memoryless(&samples, &line, 2.0).excited, expect, "cloud ({cx}, {cy})");
        assert_eq!(single_point(&samples, &line).excited, expect, "cloud ({cx}, {cy})");
    }
}

/// The bitstream generator's delayed outputs preserve pulse count and
/// shift the first pulse by exactly the φ index.
#[test]
fn bitgen_outputs_are_delays() {
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for _ in 0..CASES {
        let idx = below(&mut rng, 0, 256) as usize;
        let g = BitstreamGenerator::standard();
        let out = g.output(idx);
        assert_eq!(out.first_pulse(), Some(idx));
        assert_eq!(out.pulse_count(), 5, "index {idx}");
    }
}

/// The ESM profile's duties are fractions and the cycle decomposes.
#[test]
fn esm_profile_is_consistent() {
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for _ in 0..CASES {
        let fdm = below(&mut rng, 1, 64) as u32;
        let readout = uniform(&mut rng, 100.0, 2000.0);
        let p = EsmProfile::for_cmos(fdm, readout);
        let cycle = p.cycle_ns();
        assert!(
            (cycle - (2.0 * p.h_layer_ns + p.cz_phase_ns + p.readout_ns)).abs() < 1e-9,
            "fdm {fdm}, readout {readout}"
        );
        for duty in [
            p.drive_bank_duty(),
            p.per_qubit_gate_duty(),
            p.cz_duty(),
            p.readout_line_duty(),
            p.readout_bank_duty(),
        ] {
            assert!((0.0..=1.0).contains(&duty), "fdm {fdm}, readout {readout}: duty {duty}");
        }
    }
}

/// Device power grows monotonically with qubit count at every stage.
#[test]
fn power_is_monotone_in_qubits() {
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for _ in 0..CASES {
        let n1 = below(&mut rng, 1, 5000);
        let extra = below(&mut rng, 1, 5000);
        let arch = CryoCmosConfig::baseline().build();
        let n2 = n1 + extra;
        for stage in [Stage::K4, Stage::Mk100, Stage::Mk20] {
            let p1 = arch.device_static_w(stage, n1)
                + arch.device_dynamic_w(stage, n1)
                + arch.wire_load_w(stage, n1);
            let p2 = arch.device_static_w(stage, n2)
                + arch.device_dynamic_w(stage, n2)
                + arch.wire_load_w(stage, n2);
            assert!(p2 >= p1, "{stage}: {p1} -> {p2} ({n1} -> {n2} qubits)");
        }
    }
}

/// Masked ISA bandwidth is always below the unmasked encoding, for
/// any group size and cycle time.
#[test]
fn masked_isa_always_wins() {
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for _ in 0..CASES {
        let group = below(&mut rng, 2, 64) as u32;
        let cycle = uniform(&mut rng, 300.0, 3000.0);
        let t = EsmTraffic::standard_esm();
        let pulse = IsaFormat::pulse_masked();
        let ro = IsaFormat::readout();
        let base =
            t.bandwidth_bps_per_qubit(&IsaFormat::horse_ridge_drive(), &pulse, &ro, group, cycle);
        let masked =
            t.bandwidth_bps_per_qubit(&IsaFormat::masked_drive(), &pulse, &ro, group, cycle);
        assert!(masked < base, "group {group}, cycle {cycle}");
    }
}

/// Readout-schedule latencies: unshared ≤ pipelined ≤ naive for any
/// driving time, and per-qubit latencies never exceed the group's
/// completion plus the trailing reset.
#[test]
fn readout_schedule_ordering() {
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for _ in 0..CASES {
        let driving = uniform(&mut rng, 50.0, 1000.0);
        let mk = |sharing| ReadoutSchedule { driving_ns: driving, sharing };
        let unshared = mk(JpmSharing::Unshared).group_latency_ns();
        let piped = mk(JpmSharing::SharedPipelined).group_latency_ns();
        let naive = mk(JpmSharing::SharedNaive).group_latency_ns();
        assert!(unshared <= piped, "driving {driving}");
        assert!(piped <= naive, "driving {driving}");
        for i in 0..SHARING_DEGREE {
            for sched in [mk(JpmSharing::Unshared), mk(JpmSharing::SharedPipelined)] {
                assert!(sched.qubit_latency_ns(i) <= sched.group_latency_ns(), "driving {driving}");
            }
        }
    }
}
