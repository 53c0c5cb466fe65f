//! Property-based tests of the surface-code substrate.
//!
//! Requires the `proptest` crate, which the offline reference build
//! cannot fetch; enable with `cargo test --features proptest` on a
//! machine with registry access (and add the dev-dependency back).

#![cfg(feature = "proptest")]

use proptest::prelude::*;
use qisim_surface::analytic::{cmos_budget, sfq_budget, CALIBRATION};
use qisim_surface::decoder::{
    decode, decode_into, decode_reference, DecoderScratch, DecodingGraph,
};
use qisim_surface::montecarlo::run_trials_reference;
use qisim_surface::montecarlo::sliced::{run_trials_sliced, SlicedScratch};
use qisim_surface::{Lattice, PackedLattice};

fn errors_strategy(d: usize) -> impl Strategy<Value = Vec<bool>> {
    proptest::collection::vec(proptest::bool::weighted(0.08), d * d)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The union-find decoder always returns the state to the codespace:
    /// after applying its correction the syndrome is empty, for any error
    /// pattern.
    #[test]
    fn decoder_always_clears_the_syndrome(d in 3usize..9, seed_errors in errors_strategy(8)) {
        let lattice = Lattice::new(d);
        let n = lattice.data_qubits();
        let mut errs = vec![false; n];
        for (i, e) in seed_errors.iter().enumerate() {
            errs[i % n] ^= e;
        }
        let graph = DecodingGraph::new(&lattice, false);
        let syndrome = lattice.z_syndrome(&errs);
        for q in decode(&graph, &syndrome) {
            errs[q] ^= true;
        }
        let residual = lattice.z_syndrome(&errs);
        prop_assert!(residual.iter().all(|b| !b), "residual syndrome at d={d}");
    }

    /// The allocation-free frontier engine returns exactly the oracle's
    /// correction for any syndrome, and both clear every syndrome they
    /// are handed.
    #[test]
    fn arena_decoder_matches_oracle_and_clears_syndromes(
        d in 3usize..10,
        seed_errors in errors_strategy(9),
    ) {
        let lattice = Lattice::new(d);
        let n = lattice.data_qubits();
        let mut errs = vec![false; n];
        for (i, e) in seed_errors.iter().enumerate() {
            errs[i % n] ^= e;
        }
        let graph = DecodingGraph::new(&lattice, false);
        let syndrome = lattice.z_syndrome(&errs);
        let oracle = decode_reference(&graph, &syndrome);
        let mut scratch = DecoderScratch::new(&graph);
        let fast = decode_into(&graph, &PackedLattice::pack(&syndrome), &mut scratch).to_vec();
        prop_assert_eq!(&fast, &oracle, "corrections diverge at d={}", d);
        for q in fast {
            errs[q] ^= true;
        }
        prop_assert!(lattice.z_syndrome(&errs).iter().all(|b| !b), "residual syndrome at d={d}");
    }

    /// The bit-sliced Monte-Carlo kernel and per-lane runs of the
    /// bool-vec reference see the same RNG streams and must count the
    /// same failures, bit for bit.
    #[test]
    fn sliced_kernel_failure_counts_match_reference(
        d_idx in 0usize..3,
        p_idx in 0usize..3,
        seed in any::<u64>(),
    ) {
        use qisim_quantum::rng::Xorshift64Star;
        let d = [3usize, 5, 7][d_idx];
        let p = [0.001f64, 0.01, 0.1][p_idx];
        let lattice = Lattice::new(d);
        let graph = DecodingGraph::new(&lattice, false);
        let packed = PackedLattice::new(&lattice);
        let mut scratch = SlicedScratch::new(&packed, &graph);
        let fast = run_trials_sliced(&packed, &graph, p, 200, seed, 0, &mut scratch);
        let oracle: usize = (0..200u64)
            .map(|t| {
                let mut rng = Xorshift64Star::stream(seed, t);
                run_trials_reference(&lattice, &graph, p, 1, &mut rng)
            })
            .sum();
        prop_assert_eq!(fast, oracle, "failure counts diverge at d={} p={}", d, p);
    }

    /// The trial-transpose adapters are exact inverses: scattering 64
    /// arbitrary packed error patterns into a sliced block and gathering
    /// each lane back reproduces every pattern bit for bit, and the
    /// sliced word-wide syndrome/logical verdicts match the per-trial
    /// packed ones on every lane.
    #[test]
    fn scatter_gather_roundtrips_64_packed_lattices(
        d_idx in 0usize..3,
        patterns in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 1),
            64,
        ),
    ) {
        let d = [3usize, 5, 9][d_idx];
        let lattice = Lattice::new(d);
        let packed = PackedLattice::new(&lattice);
        // Expand each arbitrary u64 seed into an arbitrary packed trial.
        let trials: Vec<Vec<u64>> = patterns
            .iter()
            .map(|seed| {
                let mut state = seed[0] | 1;
                let mut errs = vec![0u64; packed.qubit_words()];
                for q in 0..packed.data_qubits() {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    if state >> 63 != 0 {
                        PackedLattice::set_bit(&mut errs, q);
                    }
                }
                errs
            })
            .collect();
        let mut sliced = vec![0u64; packed.sliced_words()];
        for (lane, errs) in trials.iter().enumerate() {
            packed.scatter_lane(errs, lane, &mut sliced);
        }
        let mut sliced_syn = vec![0u64; packed.sliced_syndrome_words()];
        let any_mask = packed.z_syndrome_sliced(&sliced, &mut sliced_syn);
        let logical_mask = packed.logical_x_lanes(&sliced);
        let mut back = vec![0u64; packed.qubit_words()];
        let mut syn = vec![0u64; packed.syndrome_words()];
        for (lane, errs) in trials.iter().enumerate() {
            packed.gather_lane(&sliced, lane, &mut back);
            prop_assert_eq!(&back, errs, "round-trip diverged at d={} lane={}", d, lane);
            let any = packed.z_syndrome_into(errs, &mut syn);
            prop_assert_eq!(any_mask >> lane & 1 != 0, any);
            prop_assert_eq!(logical_mask >> lane & 1 != 0, packed.is_logical_x(errs));
        }
    }

    /// Syndromes are linear: syndrome(a ⊕ b) = syndrome(a) ⊕ syndrome(b).
    #[test]
    fn syndromes_are_linear(a in errors_strategy(5), b in errors_strategy(5)) {
        let lattice = Lattice::new(5);
        let xor: Vec<bool> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
        let sa = lattice.z_syndrome(&a);
        let sb = lattice.z_syndrome(&b);
        let sx = lattice.z_syndrome(&xor);
        for i in 0..sa.len() {
            prop_assert_eq!(sx[i], sa[i] ^ sb[i]);
        }
    }

    /// Stabilizers commute with the logical operators at every distance.
    #[test]
    fn stabilizer_logical_commutation(d in 2usize..12) {
        let l = Lattice::new(d);
        let lz = l.logical_z();
        for chk in &l.x_checks {
            let overlap = chk.support.iter().filter(|q| lz.contains(q)).count();
            prop_assert_eq!(overlap % 2, 0);
        }
        let lx = l.logical_x();
        for chk in &l.z_checks {
            let overlap = chk.support.iter().filter(|q| lx.contains(q)).count();
            prop_assert_eq!(overlap % 2, 0);
        }
    }

    /// Check counts follow `d² − 1` with balanced X/Z families.
    #[test]
    fn check_count_formula(d in 2usize..16) {
        let l = Lattice::new(d);
        prop_assert_eq!(l.x_checks.len() + l.z_checks.len(), d * d - 1);
        let diff = l.x_checks.len() as i64 - l.z_checks.len() as i64;
        prop_assert!(diff.abs() <= 1);
    }

    /// The analytic logical error is monotone in every physical error
    /// contribution and in the cycle time.
    #[test]
    fn logical_error_is_monotone(
        base_cycle in 500.0f64..3000.0,
        extra in 1.0f64..3000.0,
        d in 2u32..12,
    ) {
        let d = 2 * d + 1; // odd distances
        let slow = cmos_budget(base_cycle + extra).logical_error(d, &CALIBRATION);
        let fast = cmos_budget(base_cycle).logical_error(d, &CALIBRATION);
        prop_assert!(slow >= fast, "slower cycle must not reduce p_L");
        // SFQ (worse readout) never beats CMOS at the same cycle.
        let sfq = sfq_budget(base_cycle).logical_error(d, &CALIBRATION);
        prop_assert!(sfq >= fast);
    }

    /// Larger distances help (below threshold) and p_L is a probability.
    #[test]
    fn distance_scaling(cycle in 500.0f64..2000.0) {
        let mut last = 1.0f64;
        for d in [3u32, 7, 11, 15, 23] {
            let p = cmos_budget(cycle).logical_error(d, &CALIBRATION);
            prop_assert!((0.0..=1.0).contains(&p));
            prop_assert!(p <= last + 1e-30, "d={d}: {p} vs previous {last}");
            last = p;
        }
    }
}
