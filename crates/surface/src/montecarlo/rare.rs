//! Multilevel-splitting / importance-sampling estimator for rare logical
//! errors.
//!
//! Naive Monte-Carlo needs `≥ 1/p_L` trials to see one failure; at the
//! paper's operating points (`p_L ≈ 5·10⁻¹⁴`, BENCH_obs.json) that is
//! `10¹³+` trials — unreachable even for the sliced estimator. This
//! module gets real statistics there by **biasing the physical error
//! rate upward in stages** and reweighting each observed failure by its
//! exact likelihood ratio:
//!
//! * a fixed grid of stage rates `qⱼ = Q_TOP / 4ʲ` (0.08, 0.02, 0.005,
//!   …, ≈ 1.9·10⁻⁸; twelve stages) runs down from a failure-rich stage 0
//!   (`q₀ = 0.08`, just below the union-find code-capacity threshold,
//!   ≈ 0.095 on this lattice); an estimate at `p < Q_TOP` combines
//!   stages `0..=J`, where stage `J` is the first at or below `p` (the
//!   last stage when none is);
//! * stage `j` samples i.i.d. X errors at rate `qⱼ` and weights every
//!   *failing* trial with `k` flipped qubits by
//!   `w = (p/qⱼ)ᵏ · ((1−p)/(1−qⱼ))^(n−k)` — the exact density ratio, so
//!   every stage is an **unbiased** estimator of the true `p_L(p)` at
//!   any bias;
//! * stages that observed at least one failure are combined by
//!   inverse-variance weighting, yielding a point estimate and a 95 %
//!   normal-approximation confidence interval.
//!
//! No stage rate depends on `p`, which enters only through the weights.
//! So a [`RareLadder`] builds each stage once, the first time an
//! estimate needs it, and keeps the flip counts `k` of its failing
//! trials; an estimate that needs no new stage samples and decodes
//! nothing. A build runs in two phases on the [`qisim_par`] pool:
//!
//! 1. **Sample.** Each new stage draws its trials serially from its own
//!    `Xorshift64Star::stream(seed, j)`, one task per stage, and stores
//!    their error positions compactly (`u16` positions, `u32` offsets).
//! 2. **Decode.** Every sampled trial is settled in fixed
//!    `RARE_CHUNK_TRIALS`-trial (250) chunks, so the densest stage does
//!    not set the wall time alone; each pool worker settles its chunks
//!    on one scratch. A trial with fewer than `⌈d/2⌉` errors is *light*:
//!    the decoder corrects every error of weight ≤ `(d − 1)/2` (see
//!    [`crate::decoder`]), so it cannot fail and takes no decode
//!    (`surface.rare.light_trials`; the debug builds decode it anyway and
//!    assert that it does not fail). Heavier trials decode only their
//!    errors that may interact (see [`super`]): isolated trials cannot
//!    fail and skip the decoder, and a trial with singles decodes only
//!    its remainder. A chunk returns the flip count `k` of every failing
//!    trial, and a stage's failure list is its chunk lists concatenated
//!    in trial order.
//!
//! An estimate then weighs the kept lists in stage and trial order — the
//! same float operations as a serial loop, so the estimate is
//! bit-identical at any thread count and whichever estimate built a
//! stage. Each trial's syndrome is built from its positions (≤ 2 check
//! flips per error), not by a pass over every check. At `d = 23` with
//! 2,000 trials per stage (the engine's rare estimator, stages 0–3 at
//! the paper's `p ≈ 1.27–2.83·10⁻³`) only stage 0 sees failures; a
//! warm estimate there takes about a microsecond, and a cold one,
//! which builds the four stages, about as long as the per-request
//! ladder it replaced.
//!
//! The estimate is cross-checkable against [`small_p_expansion`]: the
//! **exact** leading-order expansion `p_L(p) = Σ_k N_k·pᵏ(1−p)^(n−k)`
//! obtained by enumerating every error pattern up to a weight cutoff and
//! decoding it — deterministic ground truth in the deep-tail regime
//! where the lowest miscorrected weight, `⌈d/2⌉`, dominates — and
//! [`exact_bounds`] adds the probability of every heavier pattern to
//! make it a two-sided interval. The unit tests gate the d = 5
//! estimate's 95 % CI against the expansion over 40 seeds at `p = 10⁻⁷`
//! and `10⁻⁵` (`p_L ≈ N₃·p³ ≈ 4.6·10⁻¹⁹` at `10⁻⁷`, where naive MC would
//! need over 10¹⁸ trials per expected failure), and the engine-parameter
//! estimate against the exact interval at d = 5 and 7.

use super::{decoded_verdict, flush_decode_stats, ErrorSampler, McContext, McScratch};
use crate::decoder::DecodeStats;
use crate::lattice::Lattice;
use qisim_quantum::rng::Xorshift64Star;
use std::ops::Range;
use std::sync::OnceLock;

/// Result of a rare-event importance-sampling estimation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RareEstimate {
    /// Inverse-variance-combined logical error probability per round.
    pub logical_error: f64,
    /// Lower edge of the 95 % confidence interval (clamped at 0).
    pub ci_low: f64,
    /// Upper edge of the 95 % confidence interval (clamped at 1).
    pub ci_high: f64,
    /// Stages that observed at least one failure and therefore carry
    /// weight in the combination (the `surface.rare.stage_weights`
    /// counter).
    pub stages: usize,
    /// Total trials across the stages the estimate combined.
    pub trials: usize,
}

/// The rate of stage 0: close enough to the union-find code-capacity
/// threshold that failures are plentiful at every distance, far enough
/// below it that the decoder still suppresses with distance. Delfosse
/// and Nickerson report a threshold of 0.099; 40,000 sliced trials per
/// point put the crossing of the `d = 7` and `d = 19` curves of this
/// lattice at ≈ 0.095, and at 0.08 the logical rate falls from 0.088
/// (`d = 7`) to 0.061 (`d = 19`).
const Q_TOP: f64 = 0.08;

/// Rate ratio between adjacent stages of the grid.
const STAGE_STEP: f64 = 4.0;

/// Stages of the grid: the last samples `Q_TOP / 4¹¹ ≈ 1.9·10⁻⁸`.
const MAX_STAGES: usize = 12;

/// The rate of grid stage `j`, `Q_TOP / STAGE_STEP^j` (exact: the step
/// is a power of two).
fn grid_rate(j: usize) -> f64 {
    Q_TOP / STAGE_STEP.powi(j as i32)
}

/// The stage rates an estimate at target rate `p` combines: the prefix
/// `Q_TOP, Q_TOP/4, …` of the fixed grid that ends at the first stage at
/// or below `p`, or at the grid's last stage (`MAX_STAGES` = 12 stages)
/// when `p` lies below that. For `p ≥ Q_TOP` the single plain stage
/// `[p]`. Exposed so tests and docs can show the splitting schedule.
pub fn stage_rates(p: f64) -> Vec<f64> {
    if p >= Q_TOP {
        return vec![p];
    }
    let last = (1..MAX_STAGES).find(|&j| grid_rate(j) <= p).unwrap_or(MAX_STAGES - 1);
    (0..=last).map(grid_rate).collect()
}

/// One stage's accumulators: the weighted failure mean and the variance
/// of that mean.
struct StageEstimate {
    mean: f64,
    var: f64,
    failures: usize,
}

/// Trials per decode task of a stage build's second phase.
const RARE_CHUNK_TRIALS: usize = 250;

/// One stage's sampled trials, stored compactly: trial `t`'s error
/// positions, ascending, are `positions[offsets[t]..offsets[t + 1]]`.
struct StageSamples {
    positions: Vec<u16>,
    offsets: Vec<u32>,
}

impl StageSamples {
    /// The error positions of trial `t`.
    fn trial(&self, t: usize) -> &[u16] {
        &self.positions[self.offsets[t] as usize..self.offsets[t + 1] as usize]
    }
}

/// Samples `trials` trials at biased rate `q` over `n` data qubits from
/// `rng`, storing only their error positions. The draws depend only on
/// `(n, q, trials, rng)` — never on the target rate `p` — which is what
/// lets [`RareLadder`] keep every stage's failure list for every `p`.
/// `n ≤ 2¹⁶` by the [`McContext`] size check.
fn sample_stage(n: usize, q: f64, trials: usize, rng: &mut Xorshift64Star) -> StageSamples {
    let sampler = ErrorSampler::new(q);
    let expected = q * n as f64 * trials as f64;
    let mut positions = Vec::with_capacity((expected * 1.05) as usize + 64);
    let mut offsets = Vec::with_capacity(trials + 1);
    offsets.push(0u32);
    for _ in 0..trials {
        sampler.sample(n, rng, |qubit| positions.push(qubit as u16));
        assert!(positions.len() <= u32::MAX as usize, "a ladder stage holds < 2^32 errors");
        offsets.push(positions.len() as u32);
    }
    StageSamples { positions, offsets }
}

/// Settles the sampled trials `trials` of one stage on `scratch`:
/// returns the flip count `k` of each failing trial, in trial order, and
/// the decoder work counters of this chunk. A trial with fewer than
/// `⌈d/2⌉` errors cannot fail, since the decoder corrects every error of
/// weight ≤ `(d − 1)/2`, so it takes no decode (debug builds decode it
/// anyway and check); the rest decode only their interacting errors
/// (see [`super`]).
fn decode_chunk(
    context: &McContext,
    samples: &StageSamples,
    trials: Range<usize>,
    scratch: &mut McScratch,
) -> (Vec<usize>, DecodeStats) {
    let (packed, graph) = (&context.packed, &context.graph);
    let light = packed.distance().div_ceil(2);
    let mut failing = Vec::new();
    for t in trials {
        let positions = samples.trial(t);
        if positions.is_empty() {
            continue; // no errors → no failure → zero weight
        }
        if positions.len() < light {
            scratch.decoder.stats.light_trials += 1;
            debug_assert!(
                !decoded_verdict(packed, graph, positions),
                "a trial lighter than ⌈d/2⌉ decodes into a failure: {positions:?}"
            );
            continue;
        }
        let singles = scratch.mark_singles(packed, positions);
        if scratch.settle(context, positions, singles).fails() {
            failing.push(positions.len());
        }
    }
    (failing, scratch.decoder.take_stats())
}

/// Weighs one stage for target rate `p`: sums the likelihood ratio `w`
/// and `w²` of every failing trial in trial order and turns the sums
/// into the stage's mean and variance of the mean.
fn weigh_stage(failing: &[usize], n: usize, p: f64, q: f64, trials: usize) -> StageEstimate {
    let lr_hit = (p / q).ln();
    let lr_miss = ((1.0 - p) / (1.0 - q)).ln();
    let mut sum_w = 0.0f64;
    let mut sum_w2 = 0.0f64;
    for &k in failing {
        // Exact likelihood ratio of this pattern under p vs q, computed
        // in log space so deep-tail weights stay finite.
        let w = (k as f64 * lr_hit + (n - k) as f64 * lr_miss).exp();
        sum_w += w;
        sum_w2 += w * w;
    }
    let nt = trials as f64;
    let mean = sum_w / nt;
    // Sample variance of the mean of w·fail; clamped at a Poisson-ish
    // floor for the degenerate all-identical-weight case.
    let raw = (sum_w2 / nt - mean * mean) / (nt - 1.0).max(1.0);
    let var = if raw > 0.0 { raw } else { (mean * mean / nt).max(f64::MIN_POSITIVE) };
    StageEstimate { mean, var, failures: failing.len() }
}

/// The splitting ladder for one [`McContext`], trial count and seed.
///
/// Grid stage `j` samples rate `Q_TOP / 4ʲ` on
/// `Xorshift64Star::stream(seed, j)` whatever the target rate, so its
/// failing trials — and their flip counts `k` — are the same for every
/// `p < Q_TOP`; `p` only enters through the weights. The ladder builds a
/// stage the first time an estimate needs it and keeps its failure list,
/// so a repeat estimate whose stages are all kept samples nothing and
/// decodes nothing: it weighs the kept lists and combines them. An
/// estimate at `p ≥ Q_TOP` samples its single plain stage every time.
/// Two estimates that build the same stage at once build identical
/// lists, and reuse changes no result: every estimate equals a fresh
/// [`logical_error_rate_rare`] bit for bit.
///
/// # Examples
///
/// ```
/// use qisim_surface::{montecarlo, Lattice};
/// use qisim_surface::montecarlo::{rare::RareLadder, McContext};
///
/// let lattice = Lattice::new(3);
/// let context = McContext::new(&lattice);
/// let ladder = RareLadder::new(&context, 2000, 7);
/// let _ = ladder.estimate(1e-3); // builds and keeps stages 0–5
/// let fresh = montecarlo::logical_error_rate_rare(&lattice, 1e-4, 2000, 7);
/// assert_eq!(ladder.estimate(1e-4), fresh); // builds stage 6 only
/// ```
#[derive(Debug)]
pub struct RareLadder<'a> {
    context: &'a McContext,
    trials_per_stage: usize,
    seed: u64,
    /// `k` of every failing trial of grid stage `j`, in trial order; set
    /// by the first estimate that needs the stage.
    kept: [OnceLock<Vec<usize>>; MAX_STAGES],
}

impl<'a> RareLadder<'a> {
    /// A ladder over `context`'s lattice; samples nothing.
    ///
    /// # Panics
    ///
    /// Panics if `trials_per_stage < 2`.
    pub fn new(context: &'a McContext, trials_per_stage: usize, seed: u64) -> Self {
        assert!(trials_per_stage >= 2, "need at least two trials per stage");
        let kept = std::array::from_fn(|_| OnceLock::new());
        RareLadder { context, trials_per_stage, seed, kept }
    }

    /// Estimates the logical-X error rate at `p` from the stages of
    /// [`stage_rates`]`(p)`, building the ones not kept yet, then weighs
    /// and combines them in ladder order. See
    /// [`logical_error_rate_rare`] for the estimate itself.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p < 1`.
    pub fn estimate(&self, p: f64) -> RareEstimate {
        assert!(p > 0.0 && p < 1.0, "rare-event estimation needs 0 < p < 1, got {p}");
        qisim_obs::span!("surface.montecarlo.rare");
        let rates = stage_rates(p);
        let (n, trials) = (self.context.packed.data_qubits(), self.trials_per_stage);
        let plain;
        let stages: Vec<&[usize]> = if p >= Q_TOP {
            plain = self.build(&[(0, p)]);
            plain.iter().map(Vec::as_slice).collect()
        } else {
            let missing: Vec<(usize, f64)> = (0..rates.len())
                .filter(|&j| self.kept[j].get().is_none())
                .map(|j| (j, rates[j]))
                .collect();
            for ((j, _), failing) in missing.iter().zip(self.build(&missing)) {
                // A stage another estimate kept meanwhile holds this list.
                let _ = self.kept[*j].set(failing);
            }
            let kept = self.kept[..rates.len()].iter();
            kept.map(|kept| kept.get().map_or(&[][..], Vec::as_slice)).collect()
        };
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        let mut contributing = 0usize;
        for (&q, failing) in rates.iter().zip(stages) {
            let stage = weigh_stage(failing, n, p, q, trials);
            if stage.failures == 0 {
                continue;
            }
            num += stage.mean / stage.var;
            den += 1.0 / stage.var;
            contributing += 1;
        }
        let trials = trials * rates.len();
        qisim_obs::counter!("surface.rare.trials", trials as u64);
        qisim_obs::counter!("surface.rare.stage_weights", contributing as u64);
        if den == 0.0 {
            return RareEstimate {
                logical_error: 0.0,
                ci_low: 0.0,
                ci_high: 0.0,
                stages: 0,
                trials,
            };
        }
        let est = num / den;
        let sd = (1.0 / den).sqrt();
        RareEstimate {
            logical_error: est,
            ci_low: (est - 1.96 * sd).max(0.0),
            ci_high: (est + 1.96 * sd).min(1.0),
            stages: contributing,
            trials,
        }
    }

    /// Builds the stages `(j, q)`: samples each at rate `q` on
    /// `Xorshift64Star::stream(seed, j)` as one [`qisim_par`] task,
    /// settles their trials in 250-trial tasks on one scratch per pool
    /// worker, and returns each stage's failure list in the order given.
    /// Flushes the decoder counters of the build; an empty build
    /// touches no pool task and no counter.
    fn build(&self, stages: &[(usize, f64)]) -> Vec<Vec<usize>> {
        if stages.is_empty() {
            return Vec::new();
        }
        let (n, trials) = (self.context.packed.data_qubits(), self.trials_per_stage);
        let samples = qisim_par::par_map_indices(stages.len(), |i| {
            let (j, q) = stages[i];
            sample_stage(n, q, trials, &mut Xorshift64Star::stream(self.seed, j as u64))
        });
        let per_stage = trials.div_ceil(RARE_CHUNK_TRIALS);
        let (packed, graph) = (&self.context.packed, &self.context.graph);
        let chunks = qisim_par::par_map_indices_with(
            samples.len() * per_stage,
            || McScratch::new(packed, graph),
            |scratch, c| {
                let start = c % per_stage * RARE_CHUNK_TRIALS;
                let end = trials.min(start + RARE_CHUNK_TRIALS);
                decode_chunk(self.context, &samples[c / per_stage], start..end, scratch)
            },
        );
        let mut dec = DecodeStats::default();
        let mut built = Vec::with_capacity(stages.len());
        for stage in chunks.chunks(per_stage) {
            let mut failing = Vec::new();
            for (chunk, stats) in stage {
                failing.extend_from_slice(chunk);
                dec.merge(*stats);
            }
            built.push(failing);
        }
        flush_decode_stats(dec);
        qisim_obs::counter!("surface.rare.light_trials", dec.light_trials);
        built
    }
}

/// Estimates the logical-X error rate at physical error probability `p`
/// by multilevel importance sampling, with a real 95 % confidence
/// interval even where naive Monte-Carlo would need `≥ 10¹²` trials.
///
/// Runs the [`stage_rates`]`(p).len()` stages of `trials_per_stage`
/// trials each (grid stage `j` on `Xorshift64Star::stream(seed, j)` —
/// deterministic for a given `(p, trials_per_stage, seed)` at any thread
/// count) on the [`qisim_par`] pool, then combines the contributing
/// stages by inverse variance. When **no** stage observes a failure the
/// estimate is 0 with a degenerate interval `[0, 0]` and `stages == 0` —
/// the caller can widen `trials_per_stage` or read `stages` to detect
/// it. This is one estimate on a fresh [`McContext`] and [`RareLadder`];
/// repeat estimates on one lattice should keep both: the ladder builds
/// each `p`-independent stage once.
///
/// # Panics
///
/// Panics unless `0 < p < 1` (a rare-event estimate of a degenerate rate
/// is meaningless) or if `trials_per_stage < 2`.
///
/// # Examples
///
/// ```
/// use qisim_surface::{montecarlo, Lattice};
///
/// let lattice = Lattice::new(3);
/// let est = montecarlo::logical_error_rate_rare(&lattice, 1e-4, 2000, 7);
/// assert!(est.ci_low <= est.logical_error && est.logical_error <= est.ci_high);
/// ```
pub fn logical_error_rate_rare(
    lattice: &Lattice,
    p: f64,
    trials_per_stage: usize,
    seed: u64,
) -> RareEstimate {
    assert!(p > 0.0 && p < 1.0, "rare-event estimation needs 0 < p < 1, got {p}");
    RareLadder::new(&McContext::new(lattice), trials_per_stage, seed).estimate(p)
}

/// Visits every `k`-combination of `0..n` in lexicographic order.
fn each_combination<F: FnMut(&[usize])>(n: usize, k: usize, mut f: F) {
    if k == 0 || k > n {
        return;
    }
    let mut idx: Vec<usize> = (0..k).collect();
    'outer: loop {
        f(&idx);
        let mut i = k - 1;
        loop {
            if idx[i] < i + n - k {
                idx[i] += 1;
                for j in i + 1..k {
                    idx[j] = idx[j - 1] + 1;
                }
                continue 'outer;
            }
            if i == 0 {
                break 'outer;
            }
            i -= 1;
        }
    }
}

/// The failing count `N_w` of every error weight `w ≤ max_weight`
/// (index `w`; `N_0 = 0`): enumerates every X-error pattern of weight
/// `1..=max_weight` and decodes it. One enumeration answers every `p`.
fn failing_counts(lattice: &Lattice, max_weight: usize) -> Vec<u64> {
    let context = McContext::new(lattice);
    let (packed, graph) = (&context.packed, &context.graph);
    let mut scratch = McScratch::new(packed, graph);
    let mut positions = Vec::with_capacity(max_weight);
    let n = lattice.data_qubits();
    let mut counts = vec![0u64; max_weight.min(n) + 1];
    for (k, failing) in counts.iter_mut().enumerate().skip(1) {
        each_combination(n, k, |pattern| {
            positions.clear();
            positions.extend(pattern.iter().map(|&q| q as u16));
            *failing += u64::from(scratch.decoded_verdict(packed, graph, &positions));
        });
    }
    counts
}

/// The exact interval `[lo, hi]` of [`exact_bounds`] from the failing
/// counts of [`failing_counts`] over `n` data qubits.
fn bounds_from_counts(counts: &[u64], n: usize, p: f64) -> (f64, f64) {
    let mut lo = 0.0f64;
    for (k, &failing) in counts.iter().enumerate().skip(1) {
        lo += failing as f64 * p.powi(k as i32) * (1.0 - p).powi((n - k) as i32);
    }
    // P(weight > W), summed term by term in log space: `1 − P(weight ≤
    // W)` would cancel to noise exactly where the tail is small.
    let (ln_p, ln_q) = (p.ln(), (1.0 - p).ln());
    let mut ln_binomial = 0.0f64; // ln C(n, w), carried up from w = 0
    let mut heavier = 0.0f64;
    for w in 1..=n {
        ln_binomial += ((n - w + 1) as f64 / w as f64).ln();
        if w >= counts.len() {
            heavier += (ln_binomial + w as f64 * ln_p + (n - w) as f64 * ln_q).exp();
        }
    }
    (lo, lo + heavier)
}

/// The **exact** small-`p` expansion of the logical error rate up to
/// error weight `max_weight`: enumerates every X-error pattern of weight
/// `1..=max_weight`, decodes it, and sums
/// `N_k · pᵏ · (1−p)^(n−k)` over the failing counts `N_k`.
///
/// For `p` deep below threshold the `k = ⌈d/2⌉` term dominates and the
/// truncation error is `O((np)^{max_weight+1−⌈d/2⌉})` relative — at the
/// rare-event operating points this is ground truth to many digits,
/// which is what the importance-sampling CI is gated against. Cost is
/// `Σ_k C(n, k)` decodes (≈ 15 k for `d = 5`, `max_weight = 4`), done
/// once, allocation-free. It is the lower edge of [`exact_bounds`].
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1)`.
pub fn small_p_expansion(lattice: &Lattice, max_weight: usize, p: f64) -> f64 {
    exact_bounds(lattice, max_weight, p).0
}

/// Rigorous two-sided bounds `(lo, hi)` on the code-capacity logical
/// error rate at `p`: `lo` is [`small_p_expansion`] (every failing
/// pattern of weight ≤ `max_weight`, each decoded), and `hi` adds
/// `P(weight > max_weight)`, counting every heavier pattern as a
/// failure. The enumeration costs what the expansion's does.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1)`.
///
/// # Examples
///
/// ```
/// use qisim_surface::{montecarlo::rare, Lattice};
///
/// let lattice = Lattice::new(3);
/// let (lo, hi) = rare::exact_bounds(&lattice, 4, 1e-2);
/// assert!(0.0 < lo && lo < hi && hi - lo < 1e-5);
/// assert_eq!(lo, rare::small_p_expansion(&lattice, 4, 1e-2));
/// ```
pub fn exact_bounds(lattice: &Lattice, max_weight: usize, p: f64) -> (f64, f64) {
    assert!((0.0..1.0).contains(&p), "expansion rate must be in [0, 1)");
    bounds_from_counts(&failing_counts(lattice, max_weight), lattice.data_qubits(), p)
}

#[cfg(test)]
mod tests {
    use super::super::logical_error_rate_sliced_par;
    use super::*;
    use crate::decoder::{decode_into, DecodingGraph};
    use crate::lattice::PackedLattice;

    #[test]
    fn ladder_is_descending_and_anchored() {
        // Every ladder is a prefix of the fixed ×4 grid from Q_TOP: it
        // ends at the first stage at or below p (its other stages lie
        // above p), or at the grid's last stage when p lies below it.
        let grid = stage_rates(1e-15);
        assert_eq!(grid.len(), MAX_STAGES, "{grid:?}");
        for (j, &q) in grid.iter().enumerate() {
            assert_eq!(q * STAGE_STEP.powi(j as i32), Q_TOP, "stage {j} of {grid:?}");
        }
        for p in [0.079, 0.05, 0.02, 2e-3, 1.27e-3, 1e-3, 1e-5, 1e-8, 1e-12] {
            let rates = stage_rates(p);
            assert!((2..=MAX_STAGES).contains(&rates.len()), "p={p}: {rates:?}");
            assert_eq!(rates[..], grid[..rates.len()], "p={p}: not a grid prefix");
            let (last, above) = rates.split_last().expect("a ladder has stages");
            assert!(above.iter().all(|&q| q > p), "p={p}: {rates:?}");
            assert!(*last <= p || rates.len() == MAX_STAGES, "p={p}: ends above p, {rates:?}");
            assert!(rates.windows(2).all(|w| w[0] > w[1]), "p={p}: not descending {rates:?}");
        }
        assert_eq!(stage_rates(2e-3).len(), 4, "the paper's operating points combine four stages");
        assert_eq!(stage_rates(Q_TOP), vec![Q_TOP], "p = Q_TOP is a single plain-MC stage");
        assert_eq!(stage_rates(0.2), vec![0.2], "above-anchor p is a single plain-MC stage");
    }

    #[test]
    fn position_built_syndromes_equal_the_full_extraction() {
        // d = 2 is the smallest lattice; d = 23 is the production
        // lattice. Every trial of every ladder rate (and a
        // dense q = 0.5) must store strictly ascending in-range positions
        // and carry exactly the syndrome a full extraction of its
        // finished error pattern gives.
        for d in [2usize, 3, 5, 23] {
            let l = Lattice::new(d);
            let graph = DecodingGraph::new(&l);
            let packed = PackedLattice::new(&l);
            let mut scratch = McScratch::new(&packed, &graph);
            let mut full = vec![0u64; packed.syndrome_words()];
            let rates = stage_rates(1e-3).into_iter().chain([0.5]);
            for (j, q) in rates.enumerate() {
                let mut rng = Xorshift64Star::stream(0x5_1D ^ d as u64, j as u64);
                let samples = sample_stage(packed.data_qubits(), q, 300, &mut rng);
                for t in 0..300 {
                    let positions = samples.trial(t);
                    assert!(positions.windows(2).all(|w| w[0] < w[1]), "d={d} q={q} trial={t}");
                    assert!(positions.iter().all(|&q| usize::from(q) < l.data_qubits()));
                    let nonzero = scratch.place(&packed, positions);
                    let weight: u32 = scratch.errs.iter().map(|w| w.count_ones()).sum();
                    assert_eq!(positions.len(), weight as usize, "d={d} q={q} trial={t}");
                    let any = packed.z_syndrome_into(&scratch.errs, &mut full);
                    assert_eq!(scratch.syndrome, full, "d={d} q={q} trial={t}");
                    assert_eq!(nonzero, any, "d={d} q={q} trial={t}");
                }
            }
        }
    }

    /// The serial ladder: one scratch, the grid stages of [`stage_rates`]
    /// sampled, decoded trial by trial — isolated or not — and weighed in
    /// order in one loop, nothing kept. The bit-identity oracle for
    /// [`RareLadder::estimate`].
    fn run_stage(
        packed: &PackedLattice,
        graph: &DecodingGraph,
        p: f64,
        q: f64,
        trials: usize,
        rng: &mut Xorshift64Star,
        scratch: &mut McScratch,
    ) -> StageEstimate {
        let n = packed.data_qubits();
        let sampler = ErrorSampler::new(q);
        let lr_hit = (p / q).ln();
        let lr_miss = ((1.0 - p) / (1.0 - q)).ln();
        let mut sum_w = 0.0f64;
        let mut sum_w2 = 0.0f64;
        let mut failures = 0usize;
        for _ in 0..trials {
            scratch.errs.fill(0);
            let mut k = 0usize;
            let errs = &mut scratch.errs;
            let any = sampler.sample(n, rng, |bit| {
                PackedLattice::set_bit(errs, bit);
                k += 1;
            });
            if !any {
                continue;
            }
            if packed.z_syndrome_into(&scratch.errs, &mut scratch.syndrome) {
                for &qubit in decode_into(graph, &scratch.syndrome, &mut scratch.decoder) {
                    PackedLattice::flip_bit(&mut scratch.errs, qubit);
                }
            }
            if packed.is_logical_x(&scratch.errs) {
                let w = (k as f64 * lr_hit + (n - k) as f64 * lr_miss).exp();
                sum_w += w;
                sum_w2 += w * w;
                failures += 1;
            }
        }
        let nt = trials as f64;
        let mean = sum_w / nt;
        let raw = (sum_w2 / nt - mean * mean) / (nt - 1.0).max(1.0);
        let var = if raw > 0.0 { raw } else { (mean * mean / nt).max(f64::MIN_POSITIVE) };
        StageEstimate { mean, var, failures }
    }

    fn serial_oracle(
        lattice: &Lattice,
        p: f64,
        trials_per_stage: usize,
        seed: u64,
    ) -> RareEstimate {
        let graph = DecodingGraph::new(lattice);
        let packed = PackedLattice::new(lattice);
        let mut scratch = McScratch::new(&packed, &graph);
        let rates = stage_rates(p);
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        let mut contributing = 0usize;
        for (j, &q) in rates.iter().enumerate() {
            let mut rng = Xorshift64Star::stream(seed, j as u64);
            let stage = run_stage(&packed, &graph, p, q, trials_per_stage, &mut rng, &mut scratch);
            if stage.failures == 0 {
                continue;
            }
            num += stage.mean / stage.var;
            den += 1.0 / stage.var;
            contributing += 1;
        }
        let trials = trials_per_stage * rates.len();
        if den == 0.0 {
            return RareEstimate {
                logical_error: 0.0,
                ci_low: 0.0,
                ci_high: 0.0,
                stages: 0,
                trials,
            };
        }
        let est = num / den;
        let sd = (1.0 / den).sqrt();
        RareEstimate {
            logical_error: est,
            ci_low: (est - 1.96 * sd).max(0.0),
            ci_high: (est + 1.96 * sd).min(1.0),
            stages: contributing,
            trials,
        }
    }

    fn bits(e: &RareEstimate) -> (u64, u64, u64, usize, usize) {
        (e.logical_error.to_bits(), e.ci_low.to_bits(), e.ci_high.to_bits(), e.stages, e.trials)
    }

    #[test]
    fn parallel_ladder_matches_the_serial_oracle_bit_for_bit() {
        // Cold: a fresh ladder builds every stage it combines. Warm: a
        // ladder that kept stages 0 and 1 from an earlier estimate and
        // builds the rest as the test walks down in p. p = 0.2 is the
        // single plain stage, sampled on every estimate. 300 trials make
        // a full and a ragged decode chunk per stage; at d = 23 most
        // erroneous trials below stage 0 are isolated.
        let trials = 300;
        for d in [3usize, 5, 7, 23] {
            let l = Lattice::new(d);
            let context = McContext::new(&l);
            for seed in [1u64, 0x51_C0DE, 0xDEAD_BEEF] {
                let warm = RareLadder::new(&context, trials, seed);
                let _ = warm.estimate(0.05);
                let kept = warm.kept.iter().take_while(|s| s.get().is_some()).count();
                assert_eq!(kept, 2, "d={d} seed={seed}: stages 0 and 1 not kept");
                for p in [0.2, 0.02, 1e-3, 1e-5, 1e-8] {
                    let want = bits(&serial_oracle(&l, p, trials, seed));
                    for threads in [1usize, 2, 8] {
                        qisim_par::set_threads(Some(threads));
                        let cold = RareLadder::new(&context, trials, seed).estimate(p);
                        let fresh = logical_error_rate_rare(&l, p, trials, seed);
                        let reused = warm.estimate(p);
                        qisim_par::set_threads(None);
                        let case = format!("d={d} seed={seed} p={p} threads={threads}");
                        assert_eq!(bits(&cold), want, "cold stages, {case}");
                        assert_eq!(bits(&fresh), want, "standalone, {case}");
                        assert_eq!(bits(&reused), want, "kept stages, {case}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_warm_estimate_builds_no_stage() {
        // The engine's ladder at d = 23 and the four operating points of
        // the paper presets: the first estimate keeps stages 0–3, and no
        // repeat estimate at any of them builds a stage again — every
        // kept list stays where it is — or moves a bit of its answer.
        let context = McContext::new(&Lattice::new(23));
        let ladder = RareLadder::new(&context, 2000, 0x51_C0DE);
        let presets = [1.27e-3, 1.39e-3, 1.99e-3, 2.83e-3];
        let first: Vec<RareEstimate> = presets.iter().map(|&p| ladder.estimate(p)).collect();
        let kept = |ladder: &RareLadder| -> Vec<Option<*const usize>> {
            ladder.kept.iter().map(|s| s.get().map(|f| f.as_ptr())).collect()
        };
        let before = kept(&ladder);
        assert!(before[..4].iter().all(Option::is_some) && before[4..].iter().all(Option::is_none));
        for (&p, first) in presets.iter().zip(&first) {
            let again = ladder.estimate(p);
            assert_eq!(bits(&again), bits(first), "p={p}");
            assert_eq!(again.stages, 1, "p={p}: only stage 0 sees failures: {again:?}");
        }
        assert_eq!(kept(&ladder), before, "a warm estimate rebuilt a stage");
    }

    #[test]
    fn light_trials_skip_the_decoder() {
        // d = 7 at q = 0.05: most trials carry 1–3 errors. Each is
        // counted light and none reaches the decoder (a heavier trial
        // decodes once, or twice after a split fallback), and no failing
        // trial is lighter than ⌈7/2⌉ = 4.
        let l = Lattice::new(7);
        let context = McContext::new(&l);
        let mut rng = Xorshift64Star::stream(3, 0);
        let samples = sample_stage(l.data_qubits(), 0.05, 500, &mut rng);
        let mut scratch = McScratch::new(&context.packed, &context.graph);
        let (failing, stats) = decode_chunk(&context, &samples, 0..500, &mut scratch);
        let weights: Vec<usize> = (0..500).map(|t| samples.trial(t).len()).collect();
        let light = weights.iter().filter(|&&k| (1..4).contains(&k)).count() as u64;
        assert!(light > 100, "{light} light trials");
        assert_eq!(stats.light_trials, light, "{stats:?}");
        let heavy = weights.iter().filter(|&&k| k >= 4).count() as u64;
        assert!(stats.decodes - stats.split_fallbacks <= heavy, "{stats:?}");
        assert!(!failing.is_empty() && failing.iter().all(|&k| k >= 4), "{failing:?}");
    }

    #[test]
    fn estimate_is_deterministic() {
        let l = Lattice::new(3);
        let a = logical_error_rate_rare(&l, 1e-4, 1000, 42);
        let b = logical_error_rate_rare(&l, 1e-4, 1000, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn ci_covers_direct_monte_carlo_at_a_feasible_rate() {
        // Where naive MC still works, the IS estimate must agree with it.
        let l = Lattice::new(3);
        let p = 0.02;
        let direct = logical_error_rate_sliced_par(&l, p, 200_000, 5);
        let sigma = (direct.logical_error * (1.0 - direct.logical_error) / 200_000.0).sqrt();
        let rare = logical_error_rate_rare(&l, p, 20_000, 5);
        assert!(rare.stages >= 1, "{rare:?}");
        assert!(
            rare.ci_low - 4.0 * sigma <= direct.logical_error
                && direct.logical_error <= rare.ci_high + 4.0 * sigma,
            "IS {rare:?} vs direct {direct:?} (σ = {sigma})"
        );
    }

    #[test]
    fn ci_is_finite_and_covers_the_exact_expansion_deep_in_the_tail() {
        // d = 5 at p = 10⁻⁷ and 10⁻⁵. Union-find corrects every weight-2
        // error at d = 5, so p_L ≈ N₃·p³ (≈ 4.6·10⁻¹⁹ at 10⁻⁷) — naive MC
        // would need ≥ 10¹⁸ trials for a single expected failure. A 95 %
        // interval misses now and then, so the gate is coverage over 40
        // seeds: 37 of them cover at each rate.
        let l = Lattice::new(5);
        let context = McContext::new(&l);
        for p in [1e-7, 1e-5] {
            let exact = small_p_expansion(&l, 4, p);
            assert!(exact > 0.0 && exact < 1e-12, "naive MC must be infeasible here, got {exact}");
            let mut covered = 0;
            for seed in 1..=40u64 {
                let rare = RareLadder::new(&context, 20_000, seed).estimate(p);
                assert!(rare.stages >= 1, "p={p} seed={seed}: {rare:?}");
                assert!(
                    rare.ci_high.is_finite() && rare.ci_high > rare.ci_low,
                    "p={p} seed={seed}: {rare:?}"
                );
                covered += usize::from(rare.ci_low <= exact && exact <= rare.ci_high);
            }
            assert!(
                covered >= 34,
                "p={p}: the 95% CI covers the exact {exact:.3e} in only {covered} of 40 seeds"
            );
        }
    }

    #[test]
    fn exact_bounds_extend_the_expansion_by_the_heavier_patterns() {
        // lo is the expansion bit for bit; hi − lo is P(weight > W),
        // here against the complement of the binomial sum at rates where
        // the complement still holds its digits.
        for (d, w) in [(3usize, 4usize), (5, 4)] {
            let l = Lattice::new(d);
            let n = l.data_qubits();
            for p in [0.05, 0.2, 0.5] {
                let (lo, hi) = exact_bounds(&l, w, p);
                assert_eq!(lo.to_bits(), small_p_expansion(&l, w, p).to_bits(), "d={d} p={p}");
                let mut binomial = 1.0f64;
                let mut light = 0.0f64;
                for k in 0..=w {
                    light += binomial * p.powi(k as i32) * (1.0 - p).powi((n - k) as i32);
                    binomial *= (n - k) as f64 / (k + 1) as f64;
                }
                let heavier = 1.0 - light;
                assert!(((hi - lo) / heavier - 1.0).abs() < 1e-9, "d={d} p={p}: {lo} {hi}");
            }
        }
    }

    /// The Wilson score 95 % interval of `failures` in `trials`.
    fn wilson_interval(failures: usize, trials: usize) -> (f64, f64) {
        let (z, n) = (1.96f64, trials as f64);
        let phat = failures as f64 / n;
        let denom = 1.0 + z * z / n;
        let center = (phat + z * z / (2.0 * n)) / denom;
        let half = z * (phat * (1.0 - phat) / n + z * z / (4.0 * n * n)).sqrt() / denom;
        ((center - half).max(0.0), (center + half).min(1.0))
    }

    #[test]
    fn estimates_overlap_the_exact_bounds_at_d_5_and_7() {
        // One enumeration per lattice answers every p. The engine's rare
        // estimator (2,000 trials per stage, seed 0x51C0DE) must put its
        // 95 % interval across [lo, hi] at every point, and so must a
        // 32,768-trial sliced estimate wherever it counts a failure.
        for (d, w) in [(5usize, 6usize), (7, 5)] {
            let l = Lattice::new(d);
            let counts = failing_counts(&l, w);
            let context = McContext::new(&l);
            let ladder = RareLadder::new(&context, 2000, 0x51_C0DE);
            for p in [1e-3, 3e-3, 1e-2] {
                let (lo, hi) = bounds_from_counts(&counts, l.data_qubits(), p);
                assert!(0.0 < lo && lo <= hi, "d={d} p={p}: [{lo:e}, {hi:e}]");
                let rare = ladder.estimate(p);
                assert!(
                    rare.ci_low <= hi && lo <= rare.ci_high,
                    "d={d} p={p}: rare {rare:?} misses [{lo:e}, {hi:e}]"
                );
                let sliced = context.sliced_estimate(p, 32_768, 0x51_C0DE);
                if sliced.failures > 0 {
                    let (ci_low, ci_high) = wilson_interval(sliced.failures, sliced.trials);
                    assert!(
                        ci_low <= hi && lo <= ci_high,
                        "d={d} p={p}: sliced {sliced:?} [{ci_low:e}, {ci_high:e}] misses \
                         [{lo:e}, {hi:e}]"
                    );
                }
            }
        }
    }

    #[test]
    fn every_error_lighter_than_half_the_distance_is_corrected() {
        // Delfosse and Nickerson (Quantum 5, 595, 2021): growing each
        // edge by one half per live cluster on it corrects every error of
        // weight ≤ (d − 1)/2. Exhaustive: no pattern up to that weight
        // fails, and some pattern one heavier does, so the bound is
        // tight.
        for d in [3usize, 5, 7] {
            let l = Lattice::new(d);
            let t = (d - 1) / 2;
            assert_eq!(small_p_expansion(&l, t, 1e-3), 0.0, "d={d}: a weight-≤{t} error fails");
            assert!(small_p_expansion(&l, t + 1, 1e-3) > 0.0, "d={d}: no weight-{} failure", t + 1);
        }
    }

    #[test]
    fn d9_corrects_every_weight_4_error_and_fails_a_weight_5_column() {
        // The exhaustive weight-≤4 check takes ~1.6 s in the test
        // profile; the 25.6 M weight-5 patterns would take ~15× that, so
        // one named weight-5 failure shows the bound is tight here.
        let l = Lattice::new(9);
        assert_eq!(small_p_expansion(&l, 4, 1e-3), 0.0, "d=9: a weight-≤4 error fails");
        let context = McContext::new(&l);
        let (packed, graph) = (&context.packed, &context.graph);
        let column: Vec<u16> = (0..5).map(|row| row * 9).collect();
        assert!(
            McScratch::new(packed, graph).decoded_verdict(packed, graph, &column),
            "rows 0–4 of column 0 must decode into a logical failure"
        );
    }

    #[test]
    fn expansion_matches_a_hand_countable_case() {
        // d = 2: 4 data qubits, logical-Z̄ row {0, 1}, one Z-check. The
        // minimal failing patterns are weight-1 errors on the row that
        // the single check cannot localize — the expansion must be
        // Θ(p¹) and monotone in p.
        let l = Lattice::new(2);
        let lo = small_p_expansion(&l, 2, 1e-6);
        let hi = small_p_expansion(&l, 2, 1e-3);
        assert!(lo > 0.0 && hi > lo, "lo={lo} hi={hi}");
        assert!((lo / 1e-6).round() >= 1.0, "leading term must be linear in p");
    }

    #[test]
    fn expansion_agrees_with_direct_mc_at_moderate_p() {
        let l = Lattice::new(3);
        let p = 0.01;
        // d = 3, n = 9: enumerate everything up to weight 4 (255
        // patterns). The lowest failing weight is 2, so the truncation
        // error is O((np)³) ≈ 0.1 % relative.
        let exact = small_p_expansion(&l, 4, p);
        let direct = logical_error_rate_sliced_par(&l, p, 400_000, 9);
        let sigma = (direct.logical_error / 400_000.0).sqrt();
        assert!(
            (exact - direct.logical_error).abs() < 0.15 * exact + 6.0 * sigma,
            "expansion {exact} vs direct {}",
            direct.logical_error
        );
    }

    #[test]
    fn combinations_visit_the_binomial_count() {
        let mut count = 0u64;
        each_combination(6, 3, |idx| {
            assert_eq!(idx.len(), 3);
            assert!(idx.windows(2).all(|w| w[0] < w[1]));
            count += 1;
        });
        assert_eq!(count, 20);
        let mut none = 0;
        each_combination(3, 4, |_| none += 1);
        assert_eq!(none, 0);
    }

    #[test]
    #[should_panic(expected = "0 < p < 1")]
    fn degenerate_rates_are_rejected() {
        let _ = logical_error_rate_rare(&Lattice::new(3), 0.0, 100, 1);
    }
}
