//! Property-based tests of the surface-code substrate.
//!
//! Each property runs [`CASES`] inputs drawn from a fixed-seed
//! [`Xorshift64Star`], so every run checks the same inputs; a failure
//! message names the input that broke the property.

use qisim_quantum::rng::{Rng, Xorshift64Star};
use qisim_surface::analytic::{cmos_budget, sfq_budget, CALIBRATION};
use qisim_surface::decoder::{decode_into, decode_reference, DecoderScratch, DecodingGraph};
use qisim_surface::montecarlo::sliced::{run_trials_sliced, SlicedScratch};
use qisim_surface::montecarlo::{run_trials_reference, McContext};
use qisim_surface::{Lattice, PackedLattice};

const CASES: usize = 64;
const SEED: u64 = 0x5157_0006;

/// Uniform draw in `[lo, hi)`.
fn uniform(rng: &mut Xorshift64Star, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.gen_f64()
}

/// Uniform draw in `lo..hi`.
fn below(rng: &mut Xorshift64Star, lo: usize, hi: usize) -> usize {
    lo + rng.gen_below((hi - lo) as u64) as usize
}

/// A `d × d` error pattern, each qubit flipped with probability 0.08.
fn random_errors(rng: &mut Xorshift64Star, d: usize) -> Vec<bool> {
    (0..d * d).map(|_| rng.gen_f64() < 0.08).collect()
}

/// The union-find decoder always returns the state to the codespace:
/// after applying its correction the syndrome is empty, for any error
/// pattern.
#[test]
fn decoder_always_clears_the_syndrome() {
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for _ in 0..CASES {
        let d = below(&mut rng, 3, 9);
        let seed_errors = random_errors(&mut rng, 8);
        let lattice = Lattice::new(d);
        let n = lattice.data_qubits();
        let mut errs = vec![false; n];
        for (i, e) in seed_errors.iter().enumerate() {
            errs[i % n] ^= e;
        }
        let graph = DecodingGraph::new(&lattice);
        let syndrome = PackedLattice::pack(&lattice.z_syndrome(&errs));
        for &q in decode_into(&graph, &syndrome, &mut DecoderScratch::new(&graph)) {
            errs[q] ^= true;
        }
        let residual = lattice.z_syndrome(&errs);
        assert!(residual.iter().all(|b| !b), "residual syndrome at d={d} for {seed_errors:?}");
    }
}

/// The allocation-free frontier engine returns exactly the oracle's
/// correction for any syndrome, and both clear every syndrome they
/// are handed.
#[test]
fn arena_decoder_matches_oracle_and_clears_syndromes() {
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for _ in 0..CASES {
        let d = below(&mut rng, 3, 10);
        let seed_errors = random_errors(&mut rng, 9);
        let lattice = Lattice::new(d);
        let n = lattice.data_qubits();
        let mut errs = vec![false; n];
        for (i, e) in seed_errors.iter().enumerate() {
            errs[i % n] ^= e;
        }
        let graph = DecodingGraph::new(&lattice);
        let syndrome = lattice.z_syndrome(&errs);
        let oracle = decode_reference(&graph, &syndrome);
        let mut scratch = DecoderScratch::new(&graph);
        let fast = decode_into(&graph, &PackedLattice::pack(&syndrome), &mut scratch).to_vec();
        assert_eq!(&fast, &oracle, "corrections diverge at d={d} for {seed_errors:?}");
        for q in fast {
            errs[q] ^= true;
        }
        assert!(
            lattice.z_syndrome(&errs).iter().all(|b| !b),
            "residual syndrome at d={d} for {seed_errors:?}"
        );
    }
}

/// The sliced Monte-Carlo kernel and per-trial runs of the bool-vec
/// reference see the same RNG streams and must count the same
/// failures, bit for bit.
#[test]
fn sliced_kernel_failure_counts_match_reference() {
    let mut draws = Xorshift64Star::seed_from_u64(SEED);
    for _ in 0..CASES {
        let d = [3usize, 5, 7][below(&mut draws, 0, 3)];
        let p = [0.001f64, 0.01, 0.1][below(&mut draws, 0, 3)];
        let seed = draws.next_u64();
        let lattice = Lattice::new(d);
        let graph = DecodingGraph::new(&lattice);
        let context = McContext::new(&lattice);
        let mut scratch = SlicedScratch::new(&context);
        let fast = run_trials_sliced(&context, p, 200, seed, 0, &mut scratch);
        let oracle: usize = (0..200u64)
            .map(|t| {
                let mut rng = Xorshift64Star::stream(seed, t);
                run_trials_reference(&lattice, &graph, p, 1, &mut rng)
            })
            .sum();
        assert_eq!(fast, oracle, "failure counts diverge at d={d} p={p} seed={seed}");
    }
}

/// Syndromes are linear: syndrome(a ⊕ b) = syndrome(a) ⊕ syndrome(b).
#[test]
fn syndromes_are_linear() {
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for _ in 0..CASES {
        let (a, b) = (random_errors(&mut rng, 5), random_errors(&mut rng, 5));
        let lattice = Lattice::new(5);
        let xor: Vec<bool> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
        let sa = lattice.z_syndrome(&a);
        let sb = lattice.z_syndrome(&b);
        let sx = lattice.z_syndrome(&xor);
        for i in 0..sa.len() {
            assert_eq!(sx[i], sa[i] ^ sb[i], "check {i} for {a:?} ⊕ {b:?}");
        }
    }
}

/// Stabilizers commute with the logical operators at every distance.
#[test]
fn stabilizer_logical_commutation() {
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for _ in 0..CASES {
        let d = below(&mut rng, 2, 12);
        let l = Lattice::new(d);
        let lz = l.logical_z();
        for chk in &l.x_checks {
            let overlap = chk.support.iter().filter(|q| lz.contains(q)).count();
            assert_eq!(overlap % 2, 0, "d={d}");
        }
        let lx = l.logical_x();
        for chk in &l.z_checks {
            let overlap = chk.support.iter().filter(|q| lx.contains(q)).count();
            assert_eq!(overlap % 2, 0, "d={d}");
        }
    }
}

/// Check counts follow `d² − 1` with balanced X/Z families.
#[test]
fn check_count_formula() {
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for _ in 0..CASES {
        let d = below(&mut rng, 2, 16);
        let l = Lattice::new(d);
        assert_eq!(l.x_checks.len() + l.z_checks.len(), d * d - 1, "d={d}");
        let diff = l.x_checks.len() as i64 - l.z_checks.len() as i64;
        assert!(diff.abs() <= 1, "d={d}");
    }
}

/// The analytic logical error is monotone in every physical error
/// contribution and in the cycle time.
#[test]
fn logical_error_is_monotone() {
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for _ in 0..CASES {
        let base_cycle = uniform(&mut rng, 500.0, 3000.0);
        let extra = uniform(&mut rng, 1.0, 3000.0);
        let d = 2 * below(&mut rng, 2, 12) as u32 + 1; // odd distances
        let case = format!("base_cycle {base_cycle}, extra {extra}, d {d}");
        let slow = cmos_budget(base_cycle + extra).logical_error(d, &CALIBRATION);
        let fast = cmos_budget(base_cycle).logical_error(d, &CALIBRATION);
        assert!(slow >= fast, "slower cycle must not reduce p_L ({case})");
        // SFQ (worse readout) never beats CMOS at the same cycle.
        let sfq = sfq_budget(base_cycle).logical_error(d, &CALIBRATION);
        assert!(sfq >= fast, "{case}");
    }
}

/// Larger distances help (below threshold) and p_L is a probability.
#[test]
fn distance_scaling() {
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for _ in 0..CASES {
        let cycle = uniform(&mut rng, 500.0, 2000.0);
        let mut last = 1.0f64;
        for d in [3u32, 7, 11, 15, 23] {
            let p = cmos_budget(cycle).logical_error(d, &CALIBRATION);
            assert!((0.0..=1.0).contains(&p), "cycle {cycle}, d={d}: {p}");
            assert!(p <= last + 1e-30, "d={d}: {p} vs previous {last} (cycle {cycle})");
            last = p;
        }
    }
}
