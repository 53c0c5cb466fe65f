//! The naive Monte-Carlo estimator: trial after trial, each on its own
//! random stream.
//!
//! The name "sliced" is kept from the bit-sliced kernel that once ran
//! 64 trials per `u64` word here: the repository benchmark and the wire
//! protocol pin [`logical_error_rate_sliced_par`], the `sliced` label of
//! the engine's estimator and the `surface.sliced.*` counters. Renaming
//! them waits for a change to the benchmark itself (ROADMAP item 14).
//!
//! Trial `t` draws from `Xorshift64Star::stream(seed, t)`. Its first
//! uniform is screened against a precomputed mantissa gate
//! ([`qisim_quantum::rng::Geometric::empty_run_gate`]): a draw at or
//! above the gate leaves the trial without an error, and that
//! `~(1−p)ⁿ` majority never pays a logarithm. Any other draw continues
//! the geometric walk
//! ([`qisim_quantum::rng::Geometric::positions_from_first`]) into the
//! trial's ascending error positions. A trial whose errors are all
//! singles (see [`super`]) is *isolated*: it cannot fail, and since from
//! `d = 3` on every data qubit flips a Z check and two singles share
//! none, its syndrome is nonzero, so it settles before anything is
//! placed. Placing the other trials' positions builds the error bitset
//! and the syndrome at ≤ 2 check flips per error. A trial whose syndrome
//! is zero needs no decode: its verdict is the logical-membrane parity.
//! Every other trial settles through the verdict function both
//! estimators share (`McScratch::settle`), which decodes it, only its
//! remainder when it has singles. At `d = 23` and `p ≈ 1.3–2.8·10⁻³` most nonzero-syndrome
//! trials carry one or two far-apart errors, so only ~4 % of them
//! decode, and 1,146 singles settle inside the 1,286 decoded trials of a
//! served request at `p = 1.99·10⁻³`. Most decodes skip the
//! spanning-tree peel, because some row of the data grid stays outside
//! every cluster.
//!
//! # Reference equivalence
//!
//! The draws are exactly those of the
//! [`qisim_quantum::rng::Geometric::positions`] walk the reference
//! oracle takes, so the failure count **exactly equals** one-trial
//! [`super::run_trials_reference`] runs fed the same streams; the unit
//! tests and `tests/kernel_equiv.rs` pin this on the acceptance grid.
//! The trial→stream map depends only on `(seed, t)`, never on the
//! thread count, so [`logical_error_rate_sliced_par`] is bit-identical
//! at any parallelism.

use super::{decoded_verdict, flush_decode_stats, ErrorSampler, McContext, McEstimate, McScratch};
use crate::decoder::DecodeStats;
use crate::lattice::Lattice;
use qisim_quantum::rng::{open01_from_mantissa53, Rng, Xorshift64Star};

/// Per-call accounting of the sliced kernel, flushed to the `qisim-obs`
/// registry as the `surface.sliced.*` and `surface.montecarlo.*`
/// counters. The four counts partition the trials.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlicedStats {
    /// Trials where no error was sampled at all.
    pub empty_trials: u64,
    /// Trials with errors but an all-zero syndrome: decode skipped, the
    /// logical parity is the verdict.
    pub zero_syndrome_trials: u64,
    /// Trials with a nonzero syndrome whose errors are all singles: no
    /// failure, decode skipped.
    pub isolated_trials: u64,
    /// Trials with a nonzero syndrome sent through the decoder, whole or
    /// their remainder only (the fallback path).
    pub fallback_trials: u64,
}

impl SlicedStats {
    fn merge(&mut self, other: SlicedStats) {
        self.empty_trials += other.empty_trials;
        self.zero_syndrome_trials += other.zero_syndrome_trials;
        self.isolated_trials += other.isolated_trials;
        self.fallback_trials += other.fallback_trials;
    }
}

/// Reusable buffers of the sliced kernel: the current trial's error
/// positions and the verdict scratch it settles on. One allocation per
/// batch (or pool worker), zero per trial.
#[derive(Debug, Clone)]
pub struct SlicedScratch {
    /// The current trial's error positions, ascending (`u16` by the
    /// [`McContext`] size check).
    positions: Vec<u16>,
    /// Packed buffers and decoder arena the trials settle on.
    mc: McScratch,
    stats: SlicedStats,
}

impl SlicedScratch {
    /// Allocates scratch sized for `context`'s lattice.
    pub fn new(context: &McContext) -> Self {
        SlicedScratch {
            positions: Vec::new(),
            mc: McScratch::new(&context.packed, &context.graph),
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

/// The sample-and-settle kernel: returns the number of logical failures
/// in `trials` rounds, where global trial `first_trial + i` samples from
/// `Xorshift64Star::stream(seed, first_trial + i)`. `scratch` must come
/// from the same `context`'s lattice.
///
/// Public so the equivalence suite can drive it directly against
/// one-trial reference runs.
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
    // One integer comparison on the raw mantissa decides "no error in
    // this trial" without even a float conversion — the overwhelming
    // case at supremacy-regime p. Gray-zone and error-bearing draws go
    // down the exact walk, draw for draw.
    let (empty_gate, empty_threshold) = match &sampler {
        ErrorSampler::Skip(geo) => (geo.empty_run_gate(n), geo.empty_run_threshold(n)),
        _ => (0, 0.0),
    };
    let SlicedScratch { positions, mc, stats } = scratch;
    let mut failures = 0usize;
    for t in first_trial..first_trial + trials {
        let mut rng = Xorshift64Star::stream(seed, t as u64);
        positions.clear();
        let mut record = |q: usize| positions.push(q as u16);
        let any = match &sampler {
            ErrorSampler::Skip(geo) => {
                let first = rng.gen_mantissa53();
                first < empty_gate
                    && geo.positions_from_first(
                        n,
                        open01_from_mantissa53(first),
                        empty_threshold,
                        &mut rng,
                        &mut record,
                    )
            }
            // Degenerate p = 0 / p = 1: no draws.
            _ => sampler.sample(n, &mut rng, &mut record),
        };
        if !any {
            stats.empty_trials += 1;
            continue;
        }
        let singles = mc.mark_singles(packed, positions);
        if singles == positions.len() {
            // From d = 3 on every data qubit flips a Z check and two
            // singles share none, so the syndrome of an isolated trial is
            // nonzero: it settles without being placed.
            debug_assert!(
                mc.place(packed, positions) && !decoded_verdict(packed, &context.graph, positions),
                "an isolated trial has a zero syndrome or decodes into a failure: {positions:?}"
            );
            stats.isolated_trials += 1;
        } else if !mc.place(packed, positions) {
            stats.zero_syndrome_trials += 1;
            failures += usize::from(packed.is_logical_x(&mc.errs));
        } else {
            stats.fallback_trials += 1;
            failures += usize::from(mc.settle(context, positions, singles).fails());
        }
    }
    failures
}

/// Flushes sliced-kernel counters to the `qisim-obs` registry.
fn flush_sliced_obs(trials: usize, failures: usize, stats: SlicedStats, dec: DecodeStats) {
    qisim_obs::counter!("surface.sliced.trials", trials as u64);
    qisim_obs::counter!("surface.sliced.fallback_trials", stats.fallback_trials);
    // The Monte-Carlo series: the three fast-path counters and the
    // decoded count partition the trials.
    qisim_obs::counter!("surface.montecarlo.failures", failures as u64);
    qisim_obs::counter!("surface.montecarlo.fastpath.empty", stats.empty_trials);
    qisim_obs::counter!("surface.montecarlo.fastpath.zero_syndrome", stats.zero_syndrome_trials);
    qisim_obs::counter!("surface.montecarlo.fastpath.isolated", stats.isolated_trials);
    qisim_obs::counter!("surface.montecarlo.decoded", stats.fallback_trials);
    flush_decode_stats(dec);
}

/// Trials per parallel chunk of [`logical_error_rate_sliced_par`].
pub const SLICED_CHUNK_TRIALS: usize = 256;

/// Estimates the logical-X error rate with the sliced kernel: one
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
    /// Estimates the logical-X error rate with the sliced kernel,
    /// running [`SLICED_CHUNK_TRIALS`]-trial chunks on the [`qisim_par`]
    /// pool, one [`SlicedScratch`] per pool worker; see
    /// [`logical_error_rate_sliced_par`].
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]` or `trials == 0`.
    pub fn sliced_estimate(&self, p: f64, trials: usize, seed: u64) -> McEstimate {
        assert!((0.0..=1.0).contains(&p), "physical error rate must be a probability");
        assert!(trials > 0, "need at least one trial");
        qisim_obs::span!("surface.montecarlo.sliced.par");
        // The chunk grid depends only on `trials`, never on the thread
        // count, and no result depends on what a worker's scratch held.
        let per_chunk: Vec<(usize, SlicedStats, DecodeStats)> = qisim_par::par_map_indices_with(
            trials.div_ceil(SLICED_CHUNK_TRIALS),
            || SlicedScratch::new(self),
            |scratch, chunk| {
                let start = chunk * SLICED_CHUNK_TRIALS;
                let len = SLICED_CHUNK_TRIALS.min(trials - start);
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

    /// Independent-reference-runs oracle: trial `t` of the sliced kernel
    /// must behave exactly like a one-trial reference run on
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
        // the chunked pool run: the trial→stream map ignores chunking.
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
        // 257 straddles the parallel chunk boundary (256 trials) with a
        // one-trial tail; 63, 64 and 65 fit in one chunk.
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
    fn degenerate_rates_take_the_error_sampler_branch() {
        let l = Lattice::new(5);
        let zero = logical_error_rate_sliced_par(&l, 0.0, 130, 7);
        assert_eq!(zero.failures, 0);
        // p = 1 flips all 25 qubits per trial: zero syndrome, odd
        // logical row (d = 5) → every trial fails, with zero RNG
        // influence.
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
        assert_eq!(
            stats.empty_trials
                + stats.zero_syndrome_trials
                + stats.isolated_trials
                + stats.fallback_trials,
            trials as u64,
            "{stats:?}"
        );
        assert!(stats.empty_trials > stats.fallback_trials, "p=0.002 is mostly empty trials");
        assert!(stats.isolated_trials > stats.fallback_trials, "most error trials are isolated");
        assert_eq!(
            dec.decodes,
            stats.fallback_trials + dec.split_fallbacks,
            "every fallback trial is decoded, twice where a guard rejected its split: {stats:?}"
        );
        // Second batch accumulates from zero after take_stats.
        let _ = run_trials_sliced(&context, 0.5, 10, 3, 0, &mut scratch);
        let second = scratch.stats();
        assert_eq!(
            second.empty_trials
                + second.zero_syndrome_trials
                + second.isolated_trials
                + second.fallback_trials,
            10,
            "{second:?}"
        );
    }
}
