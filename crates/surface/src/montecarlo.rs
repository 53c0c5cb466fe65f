//! Monte-Carlo logical-error sampling (code-capacity noise).
//!
//! Samples i.i.d. X errors on the data qubits, decodes with the
//! union-find decoder, and counts logical failures — the numerical
//! ground truth the analytic model of [`crate::analytic`] is validated
//! against at small distances.
//!
//! Two estimators, one per regime:
//!
//! * [`logical_error_rate_sliced_par`] — the naive sampler: the
//!   bit-sliced kernel ([`sliced`]) runs 64 trials per `u64` word op on
//!   the [`qisim_par`] pool, with geometric-skip error placement and a
//!   word-wide zero-syndrome early exit;
//! * [`logical_error_rate_rare`] — multilevel importance sampling
//!   ([`rare`]) for deep-tail rates no naive sampler can reach, checked
//!   against the exact [`rare::small_p_expansion`].
//!
//! [`run_trials_reference`] is the test oracle: bool-vec storage, the
//! naive syndrome, and the allocate-per-call [`decode_reference`], on
//! the same geometric-skip draw sequence. Fed the sliced kernel's
//! per-trial streams it counts the same failures **bit for bit**.

pub mod rare;
pub mod sliced;

pub use rare::{logical_error_rate_rare, RareEstimate};
pub use sliced::{logical_error_rate_sliced_par, SlicedStats};

use crate::decoder::{decode_reference, DecodeStats, DecoderScratch, DecodingGraph};
use crate::lattice::{Lattice, PackedLattice};
use qisim_quantum::rng::{Geometric, Rng};

/// Result of a logical-error-rate estimation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McEstimate {
    /// Estimated logical error probability per round.
    pub logical_error: f64,
    /// Trials run.
    pub trials: usize,
    /// Failures observed.
    pub failures: usize,
}

/// How one trial's X errors are placed. Built once per batch so the
/// per-trial cost is a branch, not a float comparison cascade.
#[derive(Debug, Clone, Copy)]
enum ErrorSampler {
    /// `p = 0`: nothing flips, no RNG draws.
    None,
    /// `p = 1`: everything flips, no RNG draws.
    All,
    /// `0 < p < 1`: geometric gaps between flipped qubits.
    Skip(Geometric),
}

impl ErrorSampler {
    fn new(p: f64) -> Self {
        if p <= 0.0 {
            ErrorSampler::None
        } else if p >= 1.0 {
            ErrorSampler::All
        } else {
            ErrorSampler::Skip(Geometric::new(p))
        }
    }

    /// Feeds every error position (ascending) to `place`; returns whether
    /// anything was placed. Every sampler — sliced, rare and the
    /// reference oracle — calls this, so their RNG draw sequences are
    /// identical by construction.
    #[inline]
    fn sample<R: Rng, F: FnMut(usize)>(&self, n: usize, rng: &mut R, mut place: F) -> bool {
        match self {
            ErrorSampler::None => false,
            ErrorSampler::All => {
                for q in 0..n {
                    place(q);
                }
                n > 0
            }
            // One draw per flipped qubit; the saturating walk in
            // `Geometric::positions` can neither overflow nor spin.
            ErrorSampler::Skip(geo) => geo.positions(n, rng, place),
        }
    }
}

/// Reusable buffers for decoding one packed trial at a time: the error
/// and syndrome bitsets plus the decoder arena. The rare-event stages
/// and the small-`p` expansion allocate one per call, zero per trial.
#[derive(Debug, Clone)]
struct McScratch {
    errs: Vec<u64>,
    syndrome: Vec<u64>,
    decoder: DecoderScratch,
}

impl McScratch {
    /// Allocates scratch sized for `packed` and `graph`.
    fn new(packed: &PackedLattice, graph: &DecodingGraph) -> Self {
        McScratch {
            errs: vec![0; packed.qubit_words()],
            syndrome: vec![0; graph.syndrome_words()],
            decoder: DecoderScratch::new(graph),
        }
    }
}

/// Flushes the decoder work counters of one estimate to `qisim-obs`:
/// both estimators call this once per estimate, never per trial.
fn flush_decode_stats(dec: DecodeStats) {
    qisim_obs::counter!("surface.decoder.rounds", dec.rounds);
    qisim_obs::counter!("surface.decoder.frontier_edges", dec.edges_grown);
}

/// Bool-vec oracle for the samplers: the shared geometric-skip RNG draw
/// sequence, but per-qubit `Vec<bool>` storage, the naive
/// [`Lattice::z_syndrome`], and the allocate-per-call
/// [`decode_reference`]. One-trial runs on `Xorshift64Star::stream(seed,
/// t)` reproduce [`sliced::run_trials_sliced`]'s failure count **bit for
/// bit** — the sliced unit tests and `tests/kernel_equiv.rs` pin this.
pub fn run_trials_reference<R: Rng>(
    lattice: &Lattice,
    graph: &DecodingGraph,
    p: f64,
    trials: usize,
    rng: &mut R,
) -> usize {
    let n = lattice.data_qubits();
    let sampler = ErrorSampler::new(p);
    let mut failures = 0usize;
    for _ in 0..trials {
        let mut errs = vec![false; n];
        let any = sampler.sample(n, rng, |q| errs[q] = true);
        if any {
            let syn = lattice.z_syndrome(&errs);
            for q in decode_reference(graph, &syn) {
                errs[q] ^= true;
            }
        }
        debug_assert!(lattice.z_syndrome(&errs).iter().all(|b| !b));
        if lattice.is_logical_x(&errs) {
            failures += 1;
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::sliced::{run_trials_sliced, SlicedScratch, SLICED_CHUNK_TRIALS};
    use super::*;
    use qisim_quantum::rng::Xorshift64Star;

    #[test]
    fn zero_physical_error_never_fails() {
        let l = Lattice::new(5);
        let graph = DecodingGraph::new(&l, false);
        let mut rng = Xorshift64Star::seed_from_u64(1);
        assert_eq!(run_trials_reference(&l, &graph, 0.0, 50, &mut rng), 0);
    }

    #[test]
    fn certain_physical_error_flips_everything() {
        // p = 1 exercises the ErrorSampler::All branch: every qubit
        // flips, deterministically, with zero RNG draws.
        let l = Lattice::new(5);
        let graph = DecodingGraph::new(&l, false);
        let mut rng = Xorshift64Star::seed_from_u64(1);
        let before = rng.clone();
        let failures = run_trials_reference(&l, &graph, 1.0, 10, &mut rng);
        assert_eq!(rng, before, "p = 1 must consume no randomness");
        // The all-ones pattern has zero syndrome; its logical parity is
        // the row length d = 5, which is odd → always a failure.
        assert_eq!(failures, 10);
    }

    #[test]
    fn below_threshold_larger_d_wins() {
        // Code-capacity threshold of union-find is ≈ 9.9 %; at p = 2 %
        // larger distance must suppress the logical error.
        let p = 0.02;
        let e3 = logical_error_rate_sliced_par(&Lattice::new(3), p, 4000, 2).logical_error;
        let e7 = logical_error_rate_sliced_par(&Lattice::new(7), p, 4000, 2).logical_error;
        assert!(
            e7 < e3 || (e3 == 0.0 && e7 == 0.0),
            "d=7 ({e7}) should beat d=3 ({e3}) below threshold"
        );
    }

    #[test]
    fn above_threshold_code_fails_badly() {
        let est = logical_error_rate_sliced_par(&Lattice::new(5), 0.25, 1000, 3);
        assert!(est.logical_error > 0.1, "p=0.25 logical error {}", est.logical_error);
    }

    #[test]
    fn packed_kernel_matches_bool_vec_reference_bit_for_bit() {
        // At p ≥ 0.08 the rare-event ladder is a single stage at q = p:
        // the packed per-trial kernel with unit weights on stream 0. Its
        // draw sequence is the oracle's, so the counts match exactly.
        let trials = 600usize;
        for d in [3usize, 5, 7] {
            let l = Lattice::new(d);
            let graph = DecodingGraph::new(&l, false);
            for p in [0.08f64, 0.1, 0.2] {
                let seed = 0xC0FFEE ^ (d as u64) << 8 ^ p.to_bits();
                let packed = logical_error_rate_rare(&l, p, trials, seed);
                assert_eq!(packed.trials, trials, "d={d} p={p}: one stage");
                let fast = (packed.logical_error * trials as f64).round() as usize;
                let mut rng = Xorshift64Star::stream(seed, 0);
                let reference = run_trials_reference(&l, &graph, p, trials, &mut rng);
                assert_eq!(fast, reference, "d={d} p={p}");
            }
        }
    }

    #[test]
    fn par_estimate_is_thread_count_independent() {
        let l = Lattice::new(5);
        let reference = logical_error_rate_sliced_par(&l, 0.03, 2000, 99);
        for threads in [1usize, 2, 8] {
            qisim_par::set_threads(Some(threads));
            let est = logical_error_rate_sliced_par(&l, 0.03, 2000, 99);
            assert_eq!(est, reference, "{threads} threads");
        }
        qisim_par::set_threads(None);
    }

    /// Serial replay of the fixed chunk grid: what the parallel estimate
    /// must equal by construction at any thread count.
    fn chunked_serial_failures(l: &Lattice, p: f64, trials: usize, seed: u64) -> usize {
        let graph = DecodingGraph::new(l, false);
        let packed = PackedLattice::new(l);
        let mut scratch = SlicedScratch::new(&packed, &graph);
        let mut failures = 0usize;
        let mut start = 0usize;
        while start < trials {
            let len = SLICED_CHUNK_TRIALS.min(trials - start);
            failures += run_trials_sliced(&packed, &graph, p, len, seed, start, &mut scratch);
            start += len;
        }
        failures
    }

    #[test]
    fn par_estimate_matches_the_chunked_serial_reference() {
        let l = Lattice::new(5);
        let (p, trials, seed) = (0.04, 1100usize, 7u64);
        let est = logical_error_rate_sliced_par(&l, p, trials, seed);
        assert_eq!(est.failures, chunked_serial_failures(&l, p, trials, seed));
        assert_eq!(est.trials, trials);
    }

    #[test]
    fn remainder_chunks_are_neither_dropped_nor_double_counted() {
        // trials = 1000 = 3·256 + 232 and trials = 257 = 256 + 1: the
        // tail chunk must run exactly the remainder, at any thread count.
        let l = Lattice::new(5);
        for (trials, seed) in [(1000usize, 41u64), (257, 42)] {
            let serial = chunked_serial_failures(&l, 0.05, trials, seed);
            for threads in [1usize, 2, 3] {
                qisim_par::set_threads(Some(threads));
                let est = logical_error_rate_sliced_par(&l, 0.05, trials, seed);
                assert_eq!(est.failures, serial, "trials={trials} threads={threads}");
                assert_eq!(est.trials, trials);
            }
            qisim_par::set_threads(None);
        }
    }

    #[test]
    fn fast_path_counters_partition_the_trials() {
        // Classify each trial with the bool-vec oracle on its own stream:
        // the kernel's three fast-path counters must match class by class.
        let l = Lattice::new(7);
        let graph = DecodingGraph::new(&l, false);
        let packed = PackedLattice::new(&l);
        let mut scratch = SlicedScratch::new(&packed, &graph);
        let (p, trials, seed) = (0.002, 2000usize, 8u64);
        let _ = run_trials_sliced(&packed, &graph, p, trials, seed, 0, &mut scratch);
        let (stats, dec) = scratch.take_stats();
        let sampler = ErrorSampler::new(p);
        let n = l.data_qubits();
        let (mut empty, mut zero_syndrome, mut decoded) = (0u64, 0u64, 0u64);
        for t in 0..trials {
            let mut rng = Xorshift64Star::stream(seed, t as u64);
            let mut errs = vec![false; n];
            if !sampler.sample(n, &mut rng, |q| errs[q] = true) {
                empty += 1;
            } else if l.z_syndrome(&errs).iter().all(|b| !b) {
                zero_syndrome += 1;
            } else {
                decoded += 1;
            }
        }
        assert_eq!(empty + zero_syndrome + decoded, trials as u64);
        assert_eq!(
            (stats.empty_lanes, stats.zero_syndrome_lanes, stats.fallback_trials),
            (empty, zero_syndrome, decoded),
            "{stats:?}"
        );
        assert!(empty > decoded, "p=0.002 is dominated by empty trials");
        assert_eq!(
            dec.decodes, stats.fallback_trials,
            "decoder ran exactly on the slow-path trials"
        );
        // Second batch accumulates from zero after take_stats.
        let _ = run_trials_sliced(&packed, &graph, 0.5, 10, seed, 0, &mut scratch);
        let second = scratch.stats();
        assert_eq!(second.empty_lanes + second.zero_syndrome_lanes + second.fallback_trials, 10);
    }

    #[test]
    fn error_rate_is_monotone_in_p() {
        let l = Lattice::new(5);
        let lo = logical_error_rate_sliced_par(&l, 0.01, 3000, 4).logical_error;
        let hi = logical_error_rate_sliced_par(&l, 0.08, 3000, 4).logical_error;
        assert!(hi >= lo, "p=0.08 ({hi}) vs p=0.01 ({lo})");
    }
}
