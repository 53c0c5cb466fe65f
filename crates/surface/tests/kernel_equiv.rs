//! Always-on equivalence suite for the Monte-Carlo engine (the
//! feature-gated `proptests.rs` twin needs a registry for the
//! `proptest` crate; this file runs in the offline tier-1 gate).
//!
//! Pins the acceptance grid: for every `(d, p)` in
//! `{3, 5, 7} × {0.001, 0.01, 0.1}` and a battery of seeds, the
//! bit-sliced kernel and per-lane runs of the bool-vec reference must
//! count **identical** failures from the same RNG streams, and the arena
//! decoder must clear every syndrome it is handed while matching the
//! oracle's correction.

use qisim_quantum::rng::{Rng, Xorshift64Star};
use qisim_surface::decoder::{decode_into, decode_reference, DecoderScratch, DecodingGraph};
use qisim_surface::montecarlo::run_trials_reference;
use qisim_surface::montecarlo::sliced::{run_trials_sliced, SlicedScratch};
use qisim_surface::{Lattice, PackedLattice};

#[test]
fn sliced_and_reference_kernels_agree_across_the_acceptance_grid() {
    for d in [3usize, 5, 7] {
        let lattice = Lattice::new(d);
        let graph = DecodingGraph::new(&lattice, false);
        let packed = PackedLattice::new(&lattice);
        // One scratch across the whole grid: a stale verdict-memo entry
        // would surface as a divergence.
        let mut scratch = SlicedScratch::new(&packed, &graph);
        for p in [0.001f64, 0.01, 0.1] {
            for seed in 0u64..8 {
                let seed = seed.wrapping_mul(0x9E37_79B9) ^ p.to_bits() ^ (d as u64) << 48;
                let fast = run_trials_sliced(&packed, &graph, p, 250, seed, 0, &mut scratch);
                // Trial t of the sliced kernel runs on stream(seed, t).
                let oracle: usize = (0..250u64)
                    .map(|t| {
                        let mut rng = Xorshift64Star::stream(seed, t);
                        run_trials_reference(&lattice, &graph, p, 1, &mut rng)
                    })
                    .sum();
                assert_eq!(fast, oracle, "d={d} p={p} seed={seed:#x}");
            }
        }
    }
}

#[test]
fn arena_decoder_clears_every_syndrome_and_matches_the_oracle() {
    // Dense random error patterns (well above threshold) stress multi-
    // cluster growth, merging, and boundary pairing; the arena is reused
    // across every call so stale state would surface as a divergence.
    for d in [3usize, 5, 7, 9] {
        let lattice = Lattice::new(d);
        let graph = DecodingGraph::new(&lattice, false);
        let mut scratch = DecoderScratch::new(&graph);
        let mut rng = Xorshift64Star::seed_from_u64(0xACCE55 ^ d as u64);
        for _ in 0..150 {
            let mut errs = vec![false; lattice.data_qubits()];
            for e in errs.iter_mut() {
                *e = rng.gen_f64() < 0.15;
            }
            let syndrome = lattice.z_syndrome(&errs);
            let oracle = decode_reference(&graph, &syndrome);
            let fast = decode_into(&graph, &PackedLattice::pack(&syndrome), &mut scratch).to_vec();
            assert_eq!(fast, oracle, "d={d}: corrections diverge");
            for q in fast {
                errs[q] ^= true;
            }
            assert!(
                lattice.z_syndrome(&errs).iter().all(|b| !b),
                "d={d}: residual syndrome after correction"
            );
        }
    }
}

#[test]
fn packed_syndrome_words_agree_with_graph_layout() {
    for d in [2usize, 3, 8, 9, 11, 13] {
        let lattice = Lattice::new(d);
        let graph = DecodingGraph::new(&lattice, false);
        let packed = PackedLattice::new(&lattice);
        assert_eq!(graph.syndrome_words(), packed.syndrome_words(), "d={d}");
        assert_eq!(graph.check_count(), packed.z_check_count(), "d={d}");
    }
}
