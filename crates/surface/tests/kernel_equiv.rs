//! Equivalence suite for the Monte-Carlo engine over a fixed grid (its
//! `proptests.rs` sibling checks the same contracts on drawn inputs).
//!
//! Pins the acceptance grid: for every `(d, p)` in
//! `{3, 5, 7} × {0.001, 0.01, 0.1}` and a battery of seeds, plus the
//! production distance `d = 23` at `p ∈ {0.002, 0.05}`, the bit-sliced
//! kernel and per-lane runs of the bool-vec reference must count
//! **identical** failures from the same RNG streams; and the arena decoder
//! must clear every syndrome it is handed while matching the oracle's
//! correction up to `d = 23`.

use qisim_quantum::rng::{Rng, Xorshift64Star};
use qisim_surface::decoder::{decode_into, decode_reference, DecoderScratch, DecodingGraph};
use qisim_surface::montecarlo::sliced::{run_trials_sliced, SlicedScratch};
use qisim_surface::montecarlo::{run_trials_reference, McContext};
use qisim_surface::{Lattice, PackedLattice};

/// Failures of one-trial reference runs on `stream(seed, t)` for every
/// `t < trials`: what the sliced kernel must count exactly.
fn reference_failures(
    lattice: &Lattice,
    graph: &DecodingGraph,
    p: f64,
    trials: u64,
    seed: u64,
) -> usize {
    (0..trials)
        .map(|t| {
            let mut rng = Xorshift64Star::stream(seed, t);
            run_trials_reference(lattice, graph, p, 1, &mut rng)
        })
        .sum()
}

#[test]
fn sliced_and_reference_kernels_agree_across_the_acceptance_grid() {
    for d in [3usize, 5, 7] {
        let lattice = Lattice::new(d);
        let graph = DecodingGraph::new(&lattice);
        let context = McContext::new(&lattice);
        // One scratch across the whole grid: state left over from an
        // earlier call would surface as a divergence.
        let mut scratch = SlicedScratch::new(&context);
        for p in [0.001f64, 0.01, 0.1] {
            for seed in 0u64..8 {
                let seed = seed.wrapping_mul(0x9E37_79B9) ^ p.to_bits() ^ (d as u64) << 48;
                let fast = run_trials_sliced(&context, p, 250, seed, 0, &mut scratch);
                // Trial t of the sliced kernel runs on stream(seed, t).
                let oracle = reference_failures(&lattice, &graph, p, 250, seed);
                assert_eq!(fast, oracle, "d={d} p={p} seed={seed:#x}");
            }
        }
    }
}

#[test]
fn sliced_and_reference_kernels_agree_at_the_production_distance() {
    // d = 23: at p = 0.002 most lanes carry one or two errors (the
    // served regime, where every failure count is 0); at p = 0.05 the
    // clusters are large and failures occur. Both trial counts end in a
    // ragged 64-lane word, and the error and syndrome blocks (529
    // qubits, 264 checks) both end in a ragged 64-row block.
    let lattice = Lattice::new(23);
    let graph = DecodingGraph::new(&lattice);
    let context = McContext::new(&lattice);
    let mut scratch = SlicedScratch::new(&context);
    for (p, trials) in [(0.002f64, 2000u64), (0.05, 300)] {
        let seed = 0x23_5EED ^ p.to_bits();
        let fast = run_trials_sliced(&context, p, trials as usize, seed, 0, &mut scratch);
        assert_eq!(fast, reference_failures(&lattice, &graph, p, trials, seed), "p={p}");
        assert_eq!(fast > 0, p > 0.01, "p={p}: {fast} failures");
    }
}

#[test]
fn arena_decoder_clears_every_syndrome_and_matches_the_oracle() {
    // Dense random error patterns (well above threshold) stress multi-
    // cluster growth, merging, and boundary pairing; the arena is reused
    // across every call so stale state would surface as a divergence.
    for d in [3usize, 5, 7, 9, 13, 23] {
        let lattice = Lattice::new(d);
        let graph = DecodingGraph::new(&lattice);
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
        let graph = DecodingGraph::new(&lattice);
        let packed = PackedLattice::new(&lattice);
        assert_eq!(graph.syndrome_words(), packed.syndrome_words(), "d={d}");
        assert_eq!(graph.check_count(), packed.z_check_count(), "d={d}");
    }
}
