//! Bit-sliced SIMD-within-a-register Monte-Carlo kernel: 64 trials per
//! `u64` word operation.
//!
//! A per-trial [`PackedLattice`](crate::lattice::PackedLattice) bitset puts data qubit `q` at bit `q`
//! of a per-trial word array. This kernel transposes that layout: a
//! **64-trial block** stores one word
//! per data qubit, and bit `l` of word `q` is qubit `q`'s error flag in
//! *lane* `l`. Error placement, Z-syndrome extraction (2–4 word XORs per
//! check), the zero-syndrome early exit (one OR-fold), and the
//! logical-membrane parity check all run for 64 independent trials per
//! word op. Only lanes whose syndrome is nonzero leave the word-wide
//! path.
//!
//! **Every nonzero-syndrome lane settles from its positions.** The pass
//! that places a lane's errors also appends their positions to one flat
//! list per 64-lane word, and the lane keeps its range of that list.
//! Each lane whose syndrome is nonzero then settles through the verdict
//! function both estimators share (`McScratch::settle`, see [`super`]):
//! a lane whose errors are all singles is *isolated* and cannot fail,
//! and any other lane decodes — only its remainder when it has singles.
//! At `d = 23` and `p ≈ 1.3–2.8·10⁻³` most nonzero-syndrome lanes carry
//! one or two far-apart errors, so only ~4 % of the lanes decode, and
//! 1,146 singles settle inside the 1,286 decoded lanes of a served
//! request at `p = 1.99·10⁻³`. Most decodes skip the spanning-tree peel,
//! because some row of the data grid stays outside every cluster. 32,768
//! trials on a kept [`McContext`], one [`SlicedScratch`] per pool
//! worker, take a median 2.2–2.5 ms at 2 threads on a shared 2-core x86
//! host (runs of 150 estimates at `p ∈ {1.3, 1.99, 2.8}·10⁻³`; 2.4–3.5
//! ms before the remainder-only decodes, the compact decoder arena and
//! the per-worker scratch).
//!
//! **Fast-empty sampling** carries the rest of the speedup without
//! disturbing a single random draw: a lane with no error resolves its one
//! geometric draw against a precomputed mantissa gate
//! ([`qisim_quantum::rng::Geometric::empty_run_gate`], with
//! [`qisim_quantum::rng::Geometric::positions_from_first`] walking the
//! rest), so the ~`(1−p)ⁿ` majority of lanes never pays a logarithm.
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

use super::{flush_decode_stats, ErrorSampler, McContext, McEstimate, McScratch, Settled};
use crate::decoder::DecodeStats;
use crate::lattice::Lattice;
use qisim_quantum::rng::{open01_from_mantissa53, Rng, Xorshift64Star};

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
    /// Lanes with a nonzero syndrome whose errors are all singles: no
    /// failure, decode skipped.
    pub isolated_lanes: u64,
    /// Lanes with a nonzero syndrome sent through the scalar decoder,
    /// whole or their remainder only (the fallback path).
    pub fallback_trials: u64,
}

impl SlicedStats {
    fn merge(&mut self, other: SlicedStats) {
        self.words += other.words;
        self.empty_lanes += other.empty_lanes;
        self.zero_syndrome_lanes += other.zero_syndrome_lanes;
        self.isolated_lanes += other.isolated_lanes;
        self.fallback_trials += other.fallback_trials;
    }
}

/// Reusable buffers of the sliced kernel: the transposed error/syndrome
/// blocks, the error positions of the current word's lanes, and the
/// scalar verdict scratch the lanes settle on. One allocation per batch
/// (or pool worker), zero per trial.
#[derive(Debug, Clone)]
pub struct SlicedScratch {
    /// Transposed errors: one word per data qubit.
    sliced_errs: Vec<u64>,
    /// Transposed syndromes: one word per Z-check.
    sliced_syn: Vec<u64>,
    /// The error positions of the current word, lane after lane, each
    /// lane's in sampling (ascending) order (`u16` by the [`McContext`]
    /// size check).
    lane_pos: Vec<u16>,
    /// Lane `l`'s positions are `lane_pos[lane_range[l].0 as
    /// usize..lane_range[l].1 as usize]`.
    lane_range: [(u32, u32); 64],
    /// Packed buffers and decoder arena the lanes settle on.
    mc: McScratch,
    stats: SlicedStats,
}

impl SlicedScratch {
    /// Allocates scratch sized for `context`'s lattice.
    pub fn new(context: &McContext) -> Self {
        let packed = &context.packed;
        SlicedScratch {
            sliced_errs: vec![0; packed.sliced_words()],
            sliced_syn: vec![0; packed.sliced_syndrome_words()],
            lane_pos: Vec::new(),
            lane_range: [(0, 0); 64],
            mc: McScratch::new(packed, &context.graph),
            stats: SlicedStats::default(),
        }
    }

    /// Sliced-path counters accumulated since construction (or the last
    /// [`Self::take_stats`]).
    pub fn stats(&self) -> SlicedStats {
        self.stats
    }

    /// Returns and resets the accumulated counters (decoder work
    /// counters travel separately via the decoder arena).
    pub fn take_stats(&mut self) -> (SlicedStats, DecodeStats) {
        (std::mem::take(&mut self.stats), self.mc.decoder.take_stats())
    }
}

/// The bit-sliced sample-extract-check kernel: returns the number of
/// logical failures in `trials` rounds, where global trial `first_trial
/// + i` samples from `Xorshift64Star::stream(seed, first_trial + i)`.
/// `scratch` must come from the same `context`'s lattice.
///
/// Public so the equivalence suite can drive it directly against 64
/// per-lane reference runs.
pub fn run_trials_sliced(
    context: &McContext,
    p: f64,
    trials: usize,
    seed: u64,
    first_trial: usize,
    scratch: &mut SlicedScratch,
) -> usize {
    let packed = &context.packed;
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
        scratch.lane_pos.clear();
        scratch.lane_range = [(0, 0); 64];
        // Sample errors lane by lane, straight into the transposed
        // layout: lane l of word q is qubit q in trial start + l. Each
        // lane also records its positions for the settle path.
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
                let (errs, pos) = (&mut scratch.sliced_errs, &mut scratch.lane_pos);
                let from = pos.len() as u32;
                let u = open01_from_mantissa53(first[l]);
                if geo.positions_from_first(n, u, empty_threshold, &mut rng, |q| {
                    errs[q] |= bit;
                    pos.push(q as u16);
                }) {
                    any_err_mask |= bit;
                }
                scratch.lane_range[l] = (from, pos.len() as u32);
            }
        } else {
            // Degenerate p = 0 / p = 1: no draws, no gate.
            let mut lanes = Xorshift64Star::streams64(seed, base);
            for (l, rng) in lanes.iter_mut().take(active).enumerate() {
                let bit = 1u64 << l;
                let (errs, pos) = (&mut scratch.sliced_errs, &mut scratch.lane_pos);
                let from = pos.len() as u32;
                if sampler.sample(n, rng, |q| {
                    errs[q] |= bit;
                    pos.push(q as u16);
                }) {
                    any_err_mask |= bit;
                }
                scratch.lane_range[l] = (from, pos.len() as u32);
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
        // Every lane with a nonzero syndrome settles from its positions:
        // an isolated lane cannot fail, any other decodes.
        let mut syn_lanes = any_syn_mask;
        while syn_lanes != 0 {
            let lane = syn_lanes.trailing_zeros() as usize;
            syn_lanes &= syn_lanes - 1;
            let (from, to) = scratch.lane_range[lane];
            let positions = &scratch.lane_pos[from as usize..to as usize];
            match scratch.mc.settle(context, positions) {
                Settled::Isolated => scratch.stats.isolated_lanes += 1,
                Settled::Decoded(fails) => {
                    scratch.stats.fallback_trials += 1;
                    failures += fails as usize;
                }
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
    // The Monte-Carlo series: the three fast-path counters and the
    // decoded count partition the trials.
    qisim_obs::counter!("surface.montecarlo.failures", failures as u64);
    qisim_obs::counter!("surface.montecarlo.fastpath.empty", stats.empty_lanes);
    qisim_obs::counter!("surface.montecarlo.fastpath.zero_syndrome", stats.zero_syndrome_lanes);
    qisim_obs::counter!("surface.montecarlo.fastpath.isolated", stats.isolated_lanes);
    qisim_obs::counter!("surface.montecarlo.decoded", stats.fallback_trials);
    flush_decode_stats(dec);
}

/// Trials per parallel chunk of [`logical_error_rate_sliced_par`]: four
/// whole 64-trial lane words.
pub const SLICED_CHUNK_TRIALS: usize = 256;

/// Estimates the logical-X error rate with the bit-sliced kernel: one
/// [`McContext::sliced_estimate`] on a context built for this call.
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
    McContext::new(lattice).sliced_estimate(p, trials, seed)
}

impl McContext {
    /// Estimates the logical-X error rate with the bit-sliced kernel,
    /// running [`SLICED_CHUNK_TRIALS`]-trial chunks (whole 64-trial lane
    /// words) on the [`qisim_par`] pool, one [`SlicedScratch`] per pool
    /// worker; see [`logical_error_rate_sliced_par`].
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]` or `trials == 0`.
    pub fn sliced_estimate(&self, p: f64, trials: usize, seed: u64) -> McEstimate {
        assert!((0.0..=1.0).contains(&p), "physical error rate must be a probability");
        assert!(trials > 0, "need at least one trial");
        qisim_obs::span!("surface.montecarlo.sliced.par");
        let per_chunk: Vec<(usize, SlicedStats, DecodeStats)> = qisim_par::par_map_chunked(
            trials,
            SLICED_CHUNK_TRIALS,
            || SlicedScratch::new(self),
            |scratch, _, start, len| {
                let t0 = qisim_obs::enabled().then(std::time::Instant::now);
                let failures = run_trials_sliced(self, p, len, seed, start, scratch);
                if let Some(t0) = t0 {
                    qisim_obs::observe!(
                        "surface.montecarlo.trial_batch_ns",
                        t0.elapsed().as_nanos() as f64
                    );
                }
                let (stats, dec) = scratch.take_stats();
                (failures, stats, dec)
            },
        );
        let mut failures = 0usize;
        let mut stats = SlicedStats::default();
        let mut dec = DecodeStats::default();
        for (f, s, d) in per_chunk {
            failures += f;
            stats.merge(s);
            dec.merge(d);
        }
        flush_sliced_obs(trials, failures, stats, dec);
        McEstimate { logical_error: failures as f64 / trials as f64, trials, failures }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{logical_error_rate_rare, run_trials_reference};
    use super::*;
    use crate::decoder::DecodingGraph;

    /// 64-independent-reference-runs oracle: trial `t` of the sliced
    /// kernel must behave exactly like a one-trial reference run on
    /// `stream(seed, t)`.
    fn reference_failures(lattice: &Lattice, p: f64, trials: usize, seed: u64) -> usize {
        let graph = DecodingGraph::new(lattice);
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
        let context = McContext::new(&l);
        let mut scratch = SlicedScratch::new(&context);
        let serial = run_trials_sliced(&context, p, trials, seed, 0, &mut scratch);
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
        let context = McContext::new(&l);
        let mut scratch = SlicedScratch::new(&context);
        let trials = 2048usize;
        let _ = run_trials_sliced(&context, 0.002, trials, 3, 0, &mut scratch);
        let (stats, dec) = scratch.take_stats();
        assert_eq!(stats.words, (trials as u64).div_ceil(64));
        assert_eq!(
            stats.empty_lanes
                + stats.zero_syndrome_lanes
                + stats.isolated_lanes
                + stats.fallback_trials,
            trials as u64,
            "{stats:?}"
        );
        assert!(stats.empty_lanes > stats.fallback_trials, "p=0.002 is mostly empty lanes");
        assert!(stats.isolated_lanes > stats.fallback_trials, "most error lanes are isolated");
        assert_eq!(
            dec.decodes,
            stats.fallback_trials + dec.split_fallbacks,
            "every fallback lane is decoded, twice where a guard rejected its split: {stats:?}"
        );
        // Second batch accumulates from zero after take_stats.
        let _ = run_trials_sliced(&context, 0.5, 10, 3, 0, &mut scratch);
        assert_eq!(scratch.stats().words, 1);
    }
}
