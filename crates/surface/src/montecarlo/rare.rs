//! Multilevel-splitting / importance-sampling estimator for rare logical
//! errors.
//!
//! Naive Monte-Carlo needs `≥ 1/p_L` trials to see one failure; at the
//! paper's operating points (`p_L ≈ 5·10⁻¹⁴`, BENCH_obs.json) that is
//! `10¹³+` trials — unreachable even for the bit-sliced kernel. This
//! module gets real statistics there by **biasing the physical error
//! rate upward in stages** and reweighting each observed failure by its
//! exact likelihood ratio:
//!
//! * a geometric ladder of stage rates `q₀ > q₁ > … > q_{m−1} = p` runs
//!   from a failure-rich anchor (`q₀ = 0.08`, just below the union-find
//!   code-capacity threshold ≈ 0.099) down to the target rate;
//! * stage `j` samples i.i.d. X errors at rate `qⱼ` and weights every
//!   *failing* trial with `k` flipped qubits by
//!   `w = (p/qⱼ)ᵏ · ((1−p)/(1−qⱼ))^(n−k)` — the exact density ratio, so
//!   every stage is an **unbiased** estimator of the true `p_L(p)` at
//!   any bias;
//! * stages that observed at least one failure are combined by
//!   inverse-variance weighting, yielding a point estimate and a 95 %
//!   normal-approximation confidence interval.
//!
//! Each stage draws from its own `Xorshift64Star::stream(seed, j)`, so
//! the stages are independent [`qisim_par`] tasks: sampling returns the
//! flip count `k` of every failing trial, and the weights are summed
//! afterwards in stage and trial order — the same float operations as a
//! serial loop, so the estimate is bit-identical at any thread count.
//! Stage 0 sits at `Q_TOP` for every `p < Q_TOP`; its failure list does
//! not depend on `p`, so a [`RareLadder`] samples it once and reuses it.
//! At `d = 23` with 2,000 trials per stage (the engine's rare estimator,
//! four ladder stages at `p ≈ 1.3–2.8·10⁻³`) an estimate on a 2-core
//! x86 host takes 25–44 ms with the anchor kept and 82–87 ms for the
//! first one, which samples it.
//!
//! The estimate is cross-checkable against [`small_p_expansion`]: the
//! **exact** leading-order expansion `p_L(p) = Σ_k N_k·pᵏ(1−p)^(n−k)`
//! obtained by enumerating every error pattern up to a weight cutoff and
//! decoding it — deterministic ground truth in the deep-tail regime
//! where the lowest miscorrected weight dominates. The unit tests gate
//! the d = 5 estimate's 95 % CI against it at `p = 10⁻⁷` (`p_L ≈
//! 4·10⁻¹³`, where naive MC would need over 10¹² trials per expected
//! failure).

use super::{ErrorSampler, McScratch};
use crate::decoder::{decode_into, DecodingGraph};
use crate::lattice::{Lattice, PackedLattice};
use qisim_quantum::rng::Xorshift64Star;
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
    /// Total trials across all stages of the ladder.
    pub trials: usize,
}

/// The failure-rich anchor rate of the splitting ladder: close enough to
/// the union-find code-capacity threshold (≈ 0.099) that failures are
/// plentiful at every distance, far enough below it that the decoder
/// still suppresses with distance.
const Q_TOP: f64 = 0.08;

/// Rate ratio between adjacent ladder stages (≈ ×4 per step).
const STAGE_STEP: f64 = 4.0;

/// Ladder bounds: at least top + target, at most 12 stages.
const MAX_STAGES: usize = 12;

/// The geometric ladder of biased stage rates for target rate `p`:
/// `q₀ = Q_TOP` down to `q_{m−1} = p` in roughly ×`STAGE_STEP` (= 4)
/// steps (single stage `[p]` when `p ≥ Q_TOP`). Exposed so tests and
/// docs can show the splitting schedule.
pub fn stage_rates(p: f64) -> Vec<f64> {
    if p >= Q_TOP {
        return vec![p];
    }
    let steps = (Q_TOP / p).ln() / STAGE_STEP.ln();
    let m = (steps.ceil() as usize + 1).clamp(2, MAX_STAGES);
    (0..m).map(|j| Q_TOP * (p / Q_TOP).powf(j as f64 / (m - 1) as f64)).collect()
}

/// One stage's accumulators: the weighted failure mean and the variance
/// of that mean.
struct StageEstimate {
    mean: f64,
    var: f64,
    failures: usize,
}

/// Samples one ladder stage at biased rate `q` and decodes every trial;
/// returns the flipped-qubit count `k` of each failing trial, in trial
/// order. The list depends only on `(lattice, q, trials, rng)` — never
/// on the target rate `p` — which is what lets [`RareLadder`] keep the
/// anchor stage's list for every `p`.
fn sample_stage(
    packed: &PackedLattice,
    graph: &DecodingGraph,
    q: f64,
    trials: usize,
    rng: &mut Xorshift64Star,
    scratch: &mut McScratch,
) -> Vec<usize> {
    let n = packed.data_qubits();
    let sampler = ErrorSampler::new(q);
    let mut failing = Vec::new();
    for _ in 0..trials {
        scratch.errs.fill(0);
        let mut k = 0usize;
        let errs = &mut scratch.errs;
        let any = sampler.sample(n, rng, |bit| {
            PackedLattice::set_bit(errs, bit);
            k += 1;
        });
        if !any {
            continue; // no errors → no failure → zero weight
        }
        if packed.z_syndrome_into(&scratch.errs, &mut scratch.syndrome) {
            for &qubit in decode_into(graph, &scratch.syndrome, &mut scratch.decoder) {
                PackedLattice::flip_bit(&mut scratch.errs, qubit);
            }
        }
        if packed.is_logical_x(&scratch.errs) {
            failing.push(k);
        }
    }
    failing
}

/// Weighs one sampled stage for target rate `p`: sums the likelihood
/// ratio `w` and `w²` of every failing trial in trial order and turns
/// the sums into the stage's mean and variance of the mean.
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

/// The splitting ladder for one lattice, trial count and seed.
///
/// Stage 0 samples at `q₀ = Q_TOP` on `Xorshift64Star::stream(seed, 0)`
/// whatever the target rate, so its failing trials — and their flip
/// counts `k` — are the same for every `p ≤ Q_TOP`; `p` only enters
/// through the weights. The first [`RareLadder::estimate`] whose ladder
/// starts at `Q_TOP` keeps that stage's failure list (the *anchor*), and
/// later estimates reuse it, so a repeat estimate on the same lattice
/// samples only the `p`-dependent stages. Reuse changes no result: every
/// estimate equals a fresh [`logical_error_rate_rare`] bit for bit.
///
/// # Examples
///
/// ```
/// use qisim_surface::{montecarlo, Lattice};
/// use qisim_surface::montecarlo::rare::RareLadder;
///
/// let lattice = Lattice::new(3);
/// let ladder = RareLadder::new(&lattice, 2000, 7);
/// let _ = ladder.estimate(1e-3); // samples and keeps the anchor
/// let fresh = montecarlo::logical_error_rate_rare(&lattice, 1e-4, 2000, 7);
/// assert_eq!(ladder.estimate(1e-4), fresh);
/// ```
#[derive(Debug)]
pub struct RareLadder {
    graph: DecodingGraph,
    packed: PackedLattice,
    trials_per_stage: usize,
    seed: u64,
    /// `k` of every failing stage-0 trial, in trial order; set by the
    /// first estimate that samples stage 0 at `Q_TOP`.
    anchor: OnceLock<Vec<usize>>,
}

impl RareLadder {
    /// Builds the decoding graph and packed lattice; samples nothing.
    ///
    /// # Panics
    ///
    /// Panics if `trials_per_stage < 2`.
    pub fn new(lattice: &Lattice, trials_per_stage: usize, seed: u64) -> Self {
        assert!(trials_per_stage >= 2, "need at least two trials per stage");
        RareLadder {
            graph: DecodingGraph::new(lattice, false),
            packed: PackedLattice::new(lattice),
            trials_per_stage,
            seed,
            anchor: OnceLock::new(),
        }
    }

    /// Estimates the logical-X error rate at `p`: samples every stage
    /// the kept anchor does not cover as one [`qisim_par`] task (stage
    /// `j` on `Xorshift64Star::stream(seed, j)`, with its own scratch),
    /// then weighs and combines the stages in ladder order. See
    /// [`logical_error_rate_rare`] for the estimate itself.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p < 1`.
    pub fn estimate(&self, p: f64) -> RareEstimate {
        assert!(p > 0.0 && p < 1.0, "rare-event estimation needs 0 < p < 1, got {p}");
        qisim_obs::span!("surface.montecarlo.rare");
        let rates = stage_rates(p);
        let anchored = rates[0] == Q_TOP;
        let anchor = self.anchor.get().filter(|_| anchored);
        let first = usize::from(anchor.is_some());
        let (packed, graph) = (&self.packed, &self.graph);
        let sampled = qisim_par::par_map_indices(rates.len() - first, |i| {
            let j = first + i;
            let mut scratch = McScratch::new(packed, graph);
            let mut rng = Xorshift64Star::stream(self.seed, j as u64);
            sample_stage(packed, graph, rates[j], self.trials_per_stage, &mut rng, &mut scratch)
        });
        let n = packed.data_qubits();
        let stages = anchor.into_iter().chain(&sampled);
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        let mut contributing = 0usize;
        for (&q, failing) in rates.iter().zip(stages) {
            let stage = weigh_stage(failing, n, p, q, self.trials_per_stage);
            if stage.failures == 0 {
                continue;
            }
            num += stage.mean / stage.var;
            den += 1.0 / stage.var;
            contributing += 1;
        }
        if anchored && anchor.is_none() {
            // This run sampled stage 0 itself; keep it for the next one.
            if let Some(stage0) = sampled.into_iter().next() {
                let _ = self.anchor.set(stage0);
            }
        }
        let trials = self.trials_per_stage * rates.len();
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
}

/// Estimates the logical-X error rate at physical error probability `p`
/// by multilevel importance sampling, with a real 95 % confidence
/// interval even where naive Monte-Carlo would need `≥ 10¹²` trials.
///
/// Runs [`stage_rates`]`(p).len()` stages of `trials_per_stage` trials
/// each (stage `j` on `Xorshift64Star::stream(seed, j)` — deterministic
/// for a given `(p, trials_per_stage, seed)` at any thread count), one
/// [`qisim_par`] task per stage, then combines the contributing stages
/// by inverse variance. When **no** stage observes a failure the
/// estimate is 0 with a degenerate interval `[0, 0]` and `stages == 0` —
/// the caller can widen `trials_per_stage` or read `stages` to detect
/// it. This is one estimate on a fresh [`RareLadder`]; repeat estimates
/// on one lattice should keep the ladder, which samples the
/// `p`-independent anchor stage once.
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
    RareLadder::new(lattice, trials_per_stage, seed).estimate(p)
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
/// once, allocation-free.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1)`.
pub fn small_p_expansion(lattice: &Lattice, max_weight: usize, p: f64) -> f64 {
    assert!((0.0..1.0).contains(&p), "expansion rate must be in [0, 1)");
    let graph = DecodingGraph::new(lattice, false);
    let packed = PackedLattice::new(lattice);
    let mut scratch = McScratch::new(&packed, &graph);
    let n = lattice.data_qubits();
    let mut total = 0.0f64;
    for k in 1..=max_weight.min(n) {
        let mut failing = 0u64;
        each_combination(n, k, |pattern| {
            scratch.errs.fill(0);
            for &q in pattern {
                PackedLattice::set_bit(&mut scratch.errs, q);
            }
            if packed.z_syndrome_into(&scratch.errs, &mut scratch.syndrome) {
                for &q in decode_into(&graph, &scratch.syndrome, &mut scratch.decoder) {
                    PackedLattice::flip_bit(&mut scratch.errs, q);
                }
            }
            if packed.is_logical_x(&scratch.errs) {
                failing += 1;
            }
        });
        total += failing as f64 * p.powi(k as i32) * (1.0 - p).powi((n - k) as i32);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::super::logical_error_rate_sliced_par;
    use super::*;

    #[test]
    fn ladder_is_descending_and_anchored() {
        for p in [1e-3, 1e-5, 1e-8, 1e-12] {
            let rates = stage_rates(p);
            assert!((2..=MAX_STAGES).contains(&rates.len()), "p={p}: {rates:?}");
            assert_eq!(rates[0], Q_TOP);
            let last = *rates.last().unwrap_or(&0.0);
            assert!((last / p - 1.0).abs() < 1e-9, "p={p}: ladder ends at {last}");
            assert!(rates.windows(2).all(|w| w[0] > w[1]), "p={p}: not descending {rates:?}");
        }
        assert_eq!(stage_rates(0.2), vec![0.2], "above-anchor p is a single plain-MC stage");
    }

    /// The serial ladder as it stood before the stages ran in parallel:
    /// one scratch, stages sampled and weighed in order in one loop. The
    /// bit-identity oracle for [`RareLadder::estimate`].
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
        let graph = DecodingGraph::new(lattice, false);
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
        // Cold: a fresh ladder samples the anchor as one more task.
        // Warm: a ladder that kept the anchor from an earlier estimate.
        // p = 0.2 is the single-stage ladder that never uses the anchor.
        let trials = 300;
        for d in [3usize, 5, 7] {
            let l = Lattice::new(d);
            for seed in [1u64, 0x51_C0DE, 0xDEAD_BEEF] {
                let warm = RareLadder::new(&l, trials, seed);
                let _ = warm.estimate(0.05);
                assert!(warm.anchor.get().is_some(), "d={d} seed={seed}: anchor not kept");
                for p in [0.2, 0.02, 1e-3, 1e-5, 1e-8] {
                    let want = bits(&serial_oracle(&l, p, trials, seed));
                    for threads in [1usize, 2, 8] {
                        qisim_par::set_threads(Some(threads));
                        let cold = RareLadder::new(&l, trials, seed).estimate(p);
                        let fresh = logical_error_rate_rare(&l, p, trials, seed);
                        let reused = warm.estimate(p);
                        qisim_par::set_threads(None);
                        let case = format!("d={d} seed={seed} p={p} threads={threads}");
                        assert_eq!(bits(&cold), want, "cold anchor, {case}");
                        assert_eq!(bits(&fresh), want, "standalone, {case}");
                        assert_eq!(bits(&reused), want, "warm anchor, {case}");
                    }
                }
            }
        }
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
        // The acceptance operating point: d = 5 at p = 10⁻⁷. Union-find
        // miscorrects a handful of weight-2 patterns at d = 5, so
        // p_L ≈ N₂·p² ≈ 4·10⁻¹³ — naive MC would need ≥ 10¹² trials
        // for a single expected failure.
        let l = Lattice::new(5);
        let p = 1e-7;
        let exact = small_p_expansion(&l, 4, p);
        assert!(exact > 0.0 && exact < 1e-12, "naive MC must be infeasible here, got {exact}");
        let rare = logical_error_rate_rare(&l, p, 20_000, 11);
        assert!(rare.stages >= 1, "{rare:?}");
        assert!(rare.ci_high.is_finite() && rare.ci_high > rare.ci_low, "{rare:?}");
        assert!(
            rare.ci_low <= exact && exact <= rare.ci_high,
            "95% CI [{:.3e}, {:.3e}] must cover exact {exact:.3e}",
            rare.ci_low,
            rare.ci_high
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
        // patterns); truncation error is O((np)¹) ≈ 10 % relative.
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
