//! Bit-sliced SIMD-within-a-register Monte-Carlo kernel: 64 trials per
//! `u64` word operation.
//!
//! A per-trial [`PackedLattice`] bitset puts data qubit `q` at bit `q`
//! of a per-trial word array. This kernel transposes that layout: a
//! **64-trial block** stores one word
//! per data qubit, and bit `l` of word `q` is qubit `q`'s error flag in
//! *lane* `l`. Error placement, Z-syndrome extraction (2–4 word XORs per
//! check), the zero-syndrome early exit (one OR-fold), and the
//! logical-membrane parity check all run for 64 independent trials per
//! word op. Only lanes whose syndrome is nonzero fall back to the scalar
//! packed decoder, one gathered lane at a time — at `p = 10⁻³` that is a
//! few percent of trials, so the per-trial cost collapses to the
//! word-wide sampling and extraction.
//!
//! Two further fast paths carry the speedup without disturbing a single
//! random draw or verdict:
//!
//! * **fast-empty sampling** — a lane with no error resolves its one
//!   geometric draw against a precomputed mantissa gate
//!   ([`qisim_quantum::rng::Geometric::empty_run_gate`], with
//!   [`qisim_quantum::rng::Geometric::positions_from_first`] walking the
//!   rest), so the ~`(1−p)ⁿ` majority of lanes never pays a logarithm;
//! * **a decoder-verdict memo** — the scalar decoder is a pure function
//!   of the syndrome, so each fallback lane first looks its gathered
//!   syndrome up in a hash memo of the correction's logical parity
//!   (`failure ⟺ parity(error) ⊕ parity(correction)`, and the error
//!   parity is already word-wide in the logical-lane mask). Low-weight
//!   syndromes dominate at small `p`, so warm lanes skip the decode and
//!   even the error-lane gather entirely.
//!
//! # Reference equivalence
//!
//! Global trial `t` always samples from `Xorshift64Star::stream(seed, t)`
//! through the same [`qisim_quantum::rng::Geometric::positions`] walk
//! the reference oracle uses, so the sliced failure count **exactly
//! equals** 64 independent [`super::run_trials_reference`] runs fed the
//! same per-lane streams — the unit tests and `tests/kernel_equiv.rs`
//! pin this on the acceptance grid. The lane→stream map depends only on
//! `(seed, t)`, never on the thread count, so
//! [`logical_error_rate_sliced_par`] is bit-identical at any
//! parallelism.

use super::{ErrorSampler, McEstimate};
use crate::decoder::{decode_into, DecodeStats, DecoderScratch, DecodingGraph};
use crate::lattice::{Lattice, PackedLattice};
use qisim_quantum::rng::{open01_from_mantissa53, Rng, Xorshift64Star};

/// Slot count of the direct-mapped decoder-verdict cache (a power of
/// two; the hash's low bits index it). Low-weight syndromes dominate at
/// supremacy-regime `p`, so the working set is far smaller than this; at
/// depolarizing-strength `p` syndromes rarely repeat and conflict
/// evictions just degrade gracefully to decoding every fallback lane.
const MEMO_SLOTS: usize = 1 << 12;

/// Multiply-xor mix of packed syndrome words into a cache slot index
/// (SplitMix64-style finalizer). A slot conflict only costs a full-key
/// mismatch and a re-decode — never a wrong verdict.
#[inline]
fn syndrome_slot(syndrome: &[u64]) -> usize {
    let mut z = 0u64;
    for &word in syndrome {
        z = (z ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
    }
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) as usize & (MEMO_SLOTS - 1)
}

/// Per-call accounting of the sliced kernel, flushed to the `qisim-obs`
/// registry as the `surface.sliced.*` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlicedStats {
    /// 64-trial lane words (blocks) processed.
    pub words: u64,
    /// Lanes where no error was sampled at all.
    pub empty_lanes: u64,
    /// Lanes with errors but an all-zero syndrome: decode skipped, only
    /// the word-wide logical parity check ran.
    pub zero_syndrome_lanes: u64,
    /// Lanes gathered back to the packed layout and sent through the
    /// scalar decoder (the fallback path).
    pub fallback_trials: u64,
    /// Fallback lanes resolved by replaying the decoder's memoized
    /// verdict for their syndrome instead of re-decoding.
    pub memo_hits: u64,
}

impl SlicedStats {
    fn merge(&mut self, other: SlicedStats) {
        self.words += other.words;
        self.empty_lanes += other.empty_lanes;
        self.zero_syndrome_lanes += other.zero_syndrome_lanes;
        self.fallback_trials += other.fallback_trials;
        self.memo_hits += other.memo_hits;
    }
}

/// Reusable buffers of the sliced kernel: the transposed error/syndrome
/// blocks plus one packed trial's worth of scratch for the fallback
/// decoder. One allocation per batch (or parallel chunk), zero per trial.
#[derive(Debug, Clone)]
pub struct SlicedScratch {
    /// Transposed errors: one word per data qubit.
    sliced_errs: Vec<u64>,
    /// Transposed syndromes: one word per Z-check.
    sliced_syn: Vec<u64>,
    /// One gathered lane in the packed per-trial layout.
    packed_errs: Vec<u64>,
    /// One gathered lane's syndrome in the packed layout.
    syndrome: Vec<u64>,
    /// Scalar decoder arena for the fallback lanes.
    decoder: DecoderScratch,
    /// Direct-mapped decoder-verdict cache, [`MEMO_SLOTS`] slots of
    /// `syndrome_words` keys each: packed syndrome → logical parity of
    /// the correction [`decode_into`] returns for it. The decoder is a
    /// pure function of the syndrome, so a repeat syndrome replays its
    /// verdict — `outcome(lane) = parity(error) ⊕ memo[syndrome]` — with
    /// no gather of the error lane and no decode. Conflicts overwrite;
    /// the cache persists across batches.
    memo_keys: Vec<u64>,
    /// Slot-validity bitset of the verdict cache.
    memo_valid: Vec<u64>,
    /// Slot-verdict bitset (logical parity of the slot's correction).
    memo_verdict: Vec<u64>,
    stats: SlicedStats,
}

impl SlicedScratch {
    /// Allocates scratch sized for `packed` and `graph`.
    pub fn new(packed: &PackedLattice, graph: &DecodingGraph) -> Self {
        SlicedScratch {
            sliced_errs: vec![0; packed.sliced_words()],
            sliced_syn: vec![0; packed.sliced_syndrome_words()],
            packed_errs: vec![0; packed.qubit_words()],
            syndrome: vec![0; graph.syndrome_words()],
            decoder: DecoderScratch::new(graph),
            memo_keys: vec![0; MEMO_SLOTS * graph.syndrome_words()],
            memo_valid: vec![0; MEMO_SLOTS / 64],
            memo_verdict: vec![0; MEMO_SLOTS / 64],
            stats: SlicedStats::default(),
        }
    }

    /// Sliced-path counters accumulated since construction (or the last
    /// [`Self::take_stats`]).
    pub fn stats(&self) -> SlicedStats {
        self.stats
    }

    /// Returns and resets the accumulated counters (decoder work
    /// counters travel separately via the inner arena).
    pub fn take_stats(&mut self) -> (SlicedStats, DecodeStats) {
        (std::mem::take(&mut self.stats), self.decoder.take_stats())
    }
}

/// The bit-sliced sample-extract-check kernel: returns the number of
/// logical failures in `trials` rounds, where global trial `first_trial
/// + i` samples from `Xorshift64Star::stream(seed, first_trial + i)`.
///
/// Public so the equivalence suite can drive it directly against 64
/// per-lane reference runs.
pub fn run_trials_sliced(
    packed: &PackedLattice,
    graph: &DecodingGraph,
    p: f64,
    trials: usize,
    seed: u64,
    first_trial: usize,
    scratch: &mut SlicedScratch,
) -> usize {
    let n = packed.data_qubits();
    let sampler = ErrorSampler::new(p);
    // One integer comparison on the raw mantissa decides "no error
    // anywhere in this lane" without even a float conversion — the
    // overwhelming case at supremacy-regime p. Gray-zone and error-
    // bearing draws go down the exact walk, draw for draw.
    let (empty_gate, empty_threshold) = match &sampler {
        ErrorSampler::Skip(geo) => (geo.empty_run_gate(n), geo.empty_run_threshold(n)),
        _ => (0, 0.0),
    };
    let mut failures = 0usize;
    let mut start = 0usize;
    while start < trials {
        let active = 64.min(trials - start);
        let active_mask = if active == 64 { !0u64 } else { (1u64 << active) - 1 };
        scratch.stats.words += 1;
        scratch.sliced_errs.fill(0);
        // Sample errors lane by lane, straight into the transposed
        // layout: lane l of word q is qubit q in trial start + l.
        let mut any_err_mask = 0u64;
        let base = (first_trial + start) as u64;
        if let ErrorSampler::Skip(geo) = &sampler {
            // Pass 1: one raw draw per lane against the integer gate —
            // a branchless screen that retires ~(1−p)ⁿ of the lanes.
            let mut live = 0u64;
            let mut first = [0u64; 64];
            for (l, m) in first.iter_mut().take(active).enumerate() {
                *m = Xorshift64Star::stream(seed, base.wrapping_add(l as u64)).gen_mantissa53();
                live |= ((*m < empty_gate) as u64) << l;
            }
            // Pass 2: walk only the lanes whose draw missed the gate,
            // resuming each lane's stream past its consumed first draw.
            while live != 0 {
                let l = live.trailing_zeros() as usize;
                live &= live - 1;
                let mut rng = Xorshift64Star::stream(seed, base.wrapping_add(l as u64));
                let _ = rng.next_u64(); // pass 1 consumed this draw
                let bit = 1u64 << l;
                let errs = &mut scratch.sliced_errs;
                let u = open01_from_mantissa53(first[l]);
                if geo.positions_from_first(n, u, empty_threshold, &mut rng, |q| errs[q] |= bit) {
                    any_err_mask |= bit;
                }
            }
        } else {
            // Degenerate p = 0 / p = 1: no draws, no gate.
            let mut lanes = Xorshift64Star::streams64(seed, base);
            for (l, rng) in lanes.iter_mut().take(active).enumerate() {
                let bit = 1u64 << l;
                let errs = &mut scratch.sliced_errs;
                if sampler.sample(n, rng, |q| errs[q] |= bit) {
                    any_err_mask |= bit;
                }
            }
        }
        scratch.stats.empty_lanes += (active_mask & !any_err_mask).count_ones() as u64;
        if any_err_mask == 0 {
            // Fast path 1, word-wide: no lane flipped anything.
            start += active;
            continue;
        }
        // Word-wide syndrome extraction + logical parity for all lanes.
        let any_syn_mask = packed.z_syndrome_sliced(&scratch.sliced_errs, &mut scratch.sliced_syn);
        let logical_mask = packed.logical_x_lanes(&scratch.sliced_errs);
        // Fast path 2, word-wide: lanes with errors but zero syndrome
        // need only the logical-membrane parity bit.
        let zero_syn = any_err_mask & !any_syn_mask;
        scratch.stats.zero_syndrome_lanes += zero_syn.count_ones() as u64;
        failures += (zero_syn & logical_mask).count_ones() as usize;
        // Fallback: gather each nonzero-syndrome lane's syndrome and
        // either replay the decoder's cached verdict for it or run the
        // scalar decoder on the gathered lane (and cache the verdict).
        let words = scratch.syndrome.len();
        let mut fallback = any_syn_mask;
        while fallback != 0 {
            let lane = fallback.trailing_zeros() as usize;
            fallback &= fallback - 1;
            scratch.stats.fallback_trials += 1;
            packed.gather_syndrome_lane(&scratch.sliced_syn, lane, &mut scratch.syndrome);
            let err_parity = logical_mask >> lane & 1 == 1;
            // The decoder is a pure function of the syndrome, so the
            // logical parity of its correction replays from the cache:
            // failure ⟺ parity(error) ⊕ parity(correction).
            let slot = syndrome_slot(&scratch.syndrome);
            let key = &scratch.memo_keys[slot * words..(slot + 1) * words];
            if scratch.memo_valid[slot >> 6] >> (slot & 63) & 1 == 1 && key == &*scratch.syndrome {
                scratch.stats.memo_hits += 1;
                let corr_parity = scratch.memo_verdict[slot >> 6] >> (slot & 63) & 1 == 1;
                failures += (err_parity ^ corr_parity) as usize;
                continue;
            }
            // Claim the slot before decoding: the debug residual check
            // below overwrites `scratch.syndrome` in debug builds.
            scratch.memo_keys[slot * words..(slot + 1) * words].copy_from_slice(&scratch.syndrome);
            packed.gather_lane(&scratch.sliced_errs, lane, &mut scratch.packed_errs);
            for &q in decode_into(graph, &scratch.syndrome, &mut scratch.decoder) {
                PackedLattice::flip_bit(&mut scratch.packed_errs, q);
            }
            debug_assert!(
                !packed.z_syndrome_into(&scratch.packed_errs, &mut scratch.syndrome),
                "decoder left residual syndrome"
            );
            let failed = packed.is_logical_x(&scratch.packed_errs);
            failures += failed as usize;
            scratch.memo_valid[slot >> 6] |= 1 << (slot & 63);
            let verdict_bit = 1u64 << (slot & 63);
            if failed ^ err_parity {
                scratch.memo_verdict[slot >> 6] |= verdict_bit;
            } else {
                scratch.memo_verdict[slot >> 6] &= !verdict_bit;
            }
        }
        start += active;
    }
    failures
}

/// Flushes sliced-kernel counters to the `qisim-obs` registry.
fn flush_sliced_obs(trials: usize, failures: usize, stats: SlicedStats, dec: DecodeStats) {
    qisim_obs::counter!("surface.sliced.trials", trials as u64);
    qisim_obs::counter!("surface.sliced.words", stats.words);
    qisim_obs::counter!("surface.sliced.fallback_trials", stats.fallback_trials);
    qisim_obs::counter!("surface.sliced.memo_hits", stats.memo_hits);
    // The Monte-Carlo series: the three fast-path counters partition the
    // trials.
    qisim_obs::counter!("surface.montecarlo.failures", failures as u64);
    qisim_obs::counter!("surface.montecarlo.fastpath.empty", stats.empty_lanes);
    qisim_obs::counter!("surface.montecarlo.fastpath.zero_syndrome", stats.zero_syndrome_lanes);
    qisim_obs::counter!("surface.montecarlo.decoded", stats.fallback_trials);
    qisim_obs::counter!("surface.decoder.rounds", dec.rounds);
    qisim_obs::counter!("surface.decoder.frontier_edges", dec.edges_grown);
}

/// Trials per parallel chunk of [`logical_error_rate_sliced_par`]: four
/// whole 64-trial lane words.
pub const SLICED_CHUNK_TRIALS: usize = 256;

/// Estimates the logical-X error rate with the bit-sliced kernel,
/// running [`SLICED_CHUNK_TRIALS`]-trial chunks (whole 64-trial lane
/// words) on the [`qisim_par`] pool.
///
/// Global trial `t` samples from `Xorshift64Star::stream(seed, t)`, so
/// the estimate is bit-identical at any thread count (including the
/// serial `QISIM_THREADS=1` loop), and the failure count exactly equals
/// independent one-trial [`super::run_trials_reference`] runs on the
/// same streams.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]` or `trials == 0`.
///
/// # Examples
///
/// ```
/// use qisim_surface::{montecarlo, Lattice};
///
/// let lattice = Lattice::new(3);
/// let a = montecarlo::logical_error_rate_sliced_par(&lattice, 0.02, 1000, 23);
/// let b = montecarlo::logical_error_rate_sliced_par(&lattice, 0.02, 1000, 23);
/// assert_eq!(a, b); // same seed, same trial→stream map, same estimate
/// ```
pub fn logical_error_rate_sliced_par(
    lattice: &Lattice,
    p: f64,
    trials: usize,
    seed: u64,
) -> McEstimate {
    assert!((0.0..=1.0).contains(&p), "physical error rate must be a probability");
    assert!(trials > 0, "need at least one trial");
    qisim_obs::span!("surface.montecarlo.sliced.par");
    let graph = DecodingGraph::new(lattice, false);
    let packed = PackedLattice::new(lattice);
    let per_chunk: Vec<(usize, SlicedStats, DecodeStats)> =
        qisim_par::par_map_chunked(trials, SLICED_CHUNK_TRIALS, |_, start, len| {
            let mut scratch = SlicedScratch::new(&packed, &graph);
            let t0 = qisim_obs::enabled().then(std::time::Instant::now);
            let failures = run_trials_sliced(&packed, &graph, p, len, seed, start, &mut scratch);
            if let Some(t0) = t0 {
                qisim_obs::observe!(
                    "surface.montecarlo.trial_batch_ns",
                    t0.elapsed().as_nanos() as f64
                );
            }
            let (stats, dec) = scratch.take_stats();
            (failures, stats, dec)
        });
    let mut failures = 0usize;
    let mut stats = SlicedStats::default();
    let mut dec = DecodeStats::default();
    for (f, s, d) in per_chunk {
        failures += f;
        stats.merge(s);
        dec.decodes += d.decodes;
        dec.rounds += d.rounds;
        dec.edges_grown += d.edges_grown;
    }
    flush_sliced_obs(trials, failures, stats, dec);
    McEstimate { logical_error: failures as f64 / trials as f64, trials, failures }
}

#[cfg(test)]
mod tests {
    use super::super::{logical_error_rate_rare, run_trials_reference};
    use super::*;

    /// 64-independent-reference-runs oracle: trial `t` of the sliced
    /// kernel must behave exactly like a one-trial reference run on
    /// `stream(seed, t)`.
    fn reference_failures(lattice: &Lattice, p: f64, trials: usize, seed: u64) -> usize {
        let graph = DecodingGraph::new(lattice, false);
        (0..trials)
            .map(|t| {
                let mut rng = Xorshift64Star::stream(seed, t as u64);
                run_trials_reference(lattice, &graph, p, 1, &mut rng)
            })
            .sum()
    }

    #[test]
    fn sliced_failures_match_64_reference_runs_bit_for_bit() {
        // The tentpole acceptance grid: d 3/5/7 × p .001/.01/.1.
        for d in [3usize, 5, 7] {
            let l = Lattice::new(d);
            for p in [0.001f64, 0.01, 0.1] {
                let seed = 0x511CED ^ ((d as u64) << 8) ^ p.to_bits();
                let trials = 640;
                let est = logical_error_rate_sliced_par(&l, p, trials, seed);
                assert_eq!(est.failures, reference_failures(&l, p, trials, seed), "d={d} p={p}");
                assert_eq!(est.trials, trials);
            }
        }
    }

    #[test]
    fn sliced_serial_and_par_are_bit_identical_at_any_thread_count() {
        // One serial kernel call over the whole trial range must equal
        // the chunked pool run: the lane→stream map ignores chunking.
        let l = Lattice::new(5);
        let (p, trials, seed) = (0.05, 1500usize, 17u64);
        let graph = DecodingGraph::new(&l, false);
        let packed = PackedLattice::new(&l);
        let mut scratch = SlicedScratch::new(&packed, &graph);
        let serial = run_trials_sliced(&packed, &graph, p, trials, seed, 0, &mut scratch);
        for threads in [1usize, 2, 8] {
            qisim_par::set_threads(Some(threads));
            let par = logical_error_rate_sliced_par(&l, p, trials, seed);
            assert_eq!(par.failures, serial, "{threads} threads");
            assert_eq!(par.trials, trials);
        }
        qisim_par::set_threads(None);
    }

    #[test]
    fn sliced_agrees_statistically_with_the_packed_estimator() {
        // At p ≥ 0.08 the rare-event ladder is one unbiased stage: a
        // plain packed-layout sampler on a single serial stream. It
        // draws different streams, so only the estimates must agree.
        let l = Lattice::new(5);
        let (p, trials) = (0.1, 4000usize);
        let sliced = logical_error_rate_sliced_par(&l, p, trials, 11).logical_error;
        let packed = logical_error_rate_rare(&l, p, trials, 11);
        assert_eq!(packed.trials, trials, "one stage at p = {p}: {packed:?}");
        assert_eq!(packed.stages, 1, "{packed:?}");
        let sigma = (sliced * (1.0 - sliced) / trials as f64).sqrt().max(1e-3);
        assert!(
            (packed.logical_error - sliced).abs() < 6.0 * sigma,
            "sliced {sliced} vs packed {}",
            packed.logical_error
        );
    }

    #[test]
    fn sliced_par_matches_the_reference_at_any_thread_count() {
        let l = Lattice::new(5);
        let expect = reference_failures(&l, 0.03, 2000, 99);
        for threads in [1usize, 2, 8] {
            qisim_par::set_threads(Some(threads));
            let est = logical_error_rate_sliced_par(&l, 0.03, 2000, 99);
            assert_eq!(est.failures, expect, "{threads} threads");
            assert_eq!(est.trials, 2000);
        }
        qisim_par::set_threads(None);
    }

    #[test]
    fn remainder_blocks_are_neither_dropped_nor_double_counted() {
        // 63, 64, 65 straddle one lane word; 257 straddles the parallel
        // chunk boundary (256 = 4 words) with a one-trial tail.
        let l = Lattice::new(5);
        for trials in [63usize, 64, 65, 257] {
            let seed = 0xB10C ^ trials as u64;
            let expect = reference_failures(&l, 0.08, trials, seed);
            for threads in [1usize, 2, 3] {
                qisim_par::set_threads(Some(threads));
                let par = logical_error_rate_sliced_par(&l, 0.08, trials, seed);
                assert_eq!(par.failures, expect, "trials={trials} threads={threads}");
                assert_eq!(par.trials, trials);
            }
            qisim_par::set_threads(None);
        }
    }

    #[test]
    fn degenerate_rates_take_the_word_wide_paths() {
        let l = Lattice::new(5);
        let zero = logical_error_rate_sliced_par(&l, 0.0, 130, 7);
        assert_eq!(zero.failures, 0);
        // p = 1 flips all 25 qubits per lane: zero syndrome, odd logical
        // row (d = 5) → every lane fails, with zero RNG influence.
        let one = logical_error_rate_sliced_par(&l, 1.0, 130, 7);
        assert_eq!(one.failures, 130);
    }

    #[test]
    fn sliced_stats_partition_the_trials() {
        let l = Lattice::new(7);
        let graph = DecodingGraph::new(&l, false);
        let packed = PackedLattice::new(&l);
        let mut scratch = SlicedScratch::new(&packed, &graph);
        let trials = 2048usize;
        let _ = run_trials_sliced(&packed, &graph, 0.002, trials, 3, 0, &mut scratch);
        let (stats, dec) = scratch.take_stats();
        assert_eq!(stats.words, (trials as u64).div_ceil(64));
        assert_eq!(
            stats.empty_lanes + stats.zero_syndrome_lanes + stats.fallback_trials,
            trials as u64,
            "{stats:?}"
        );
        assert!(stats.empty_lanes > stats.fallback_trials, "p=0.002 is mostly empty lanes");
        assert_eq!(
            dec.decodes + stats.memo_hits,
            stats.fallback_trials,
            "every fallback lane is either decoded or replayed from the memo: {stats:?}"
        );
        assert!(stats.memo_hits > 0, "repeat low-weight syndromes must hit the memo: {stats:?}");
        // Second batch accumulates from zero after take_stats.
        let _ = run_trials_sliced(&packed, &graph, 0.5, 10, 3, 0, &mut scratch);
        assert_eq!(scratch.stats().words, 1);
    }
}
