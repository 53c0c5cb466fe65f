//! A small deterministic PRNG, replacing the `rand` crate (the build
//! environment is offline, and the Monte-Carlo estimators only need a
//! fast, seedable, statistically decent generator — not cryptography).
//!
//! The generator is Vigna's **xorshift64\*** (a 64-bit xorshift scrambled
//! by a multiplicative constant; period 2⁶⁴−1, passes BigCrush except
//! MatrixRank). Seeding runs the seed through one SplitMix64 step so that
//! small consecutive seeds (0, 1, 2, …) still start in well-mixed states.

/// Minimal random-number interface used across the QIsim crates.
///
/// The API is deliberately explicit (`gen_f64`, `gen_bool`, …) rather
/// than generic over output types; every call site knows exactly what it
/// is sampling.
pub trait Rng {
    /// The next raw 64-bit output.
    fn next_u64(&mut self) -> u64;

    /// Uniform in `[0, 1)` with 53-bit resolution.
    #[inline]
    fn gen_f64(&mut self) -> f64 {
        // Top 53 bits -> [0, 1). 2^-53 spacing, never returns 1.0.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `(0, 1]` — safe to pass to `ln()`.
    #[inline]
    fn gen_open01(&mut self) -> f64 {
        1.0 - self.gen_f64()
    }

    /// The raw 53-bit mantissa behind one uniform draw: [`Self::gen_f64`]
    /// is exactly `mantissa · 2⁻⁵³` and [`Self::gen_open01`] exactly
    /// `1 − mantissa · 2⁻⁵³` (both exact in `f64`), so integer
    /// comparisons on the mantissa can stand in for float comparisons on
    /// the uniform, draw for draw. Consumes one `u64`, like `gen_f64`.
    #[inline]
    fn gen_mantissa53(&mut self) -> u64 {
        self.next_u64() >> 11
    }

    /// A uniform bool.
    #[inline]
    fn gen_bool(&mut self) -> bool {
        // Use a high bit; the low bits of some generators are weaker.
        self.next_u64() >> 63 != 0
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    fn gen_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "gen_below needs a positive bound");
        // Debiased multiply-shift (Lemire): rejection only in the tiny
        // biased zone, so the common path is one multiply.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut lo = m as u64;
        if lo < n {
            let t = n.wrapping_neg() % n;
            while lo < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// The SplitMix64 "gamma" increment (the golden ratio in 64-bit fixed
/// point; odd, so the state walk covers the full 2⁶⁴ cycle).
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Vigna/Steele's **SplitMix64**: a counter-based generator whose state
/// simply steps by the golden-ratio gamma (`0x9E37_79B9_7F4A_7C15`) and
/// whose output is a strong 64-bit mix of the counter. Two jobs here:
///
/// 1. seeding — one SplitMix64 output turns any seed (even 0, 1, 2, …)
///    into a well-mixed [`Xorshift64Star`] state;
/// 2. **stream splitting** — because the state advances additively,
///    stream `i` of a base seed is just `seed + i·gamma`, giving O(1)
///    access to any number of decorrelated substreams. The parallel
///    Monte-Carlo engine derives one stream per trial chunk this way, so
///    results are reproducible at any thread count.
///
/// # Examples
///
/// ```
/// use qisim_quantum::rng::{Rng, SplitMix64};
///
/// let mut sm = SplitMix64::new(0);
/// let (a, b) = (sm.next_u64(), sm.next_u64());
/// assert_ne!(a, b); // consecutive counters mix to unrelated outputs
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator whose first output mixes `seed + gamma`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }
}

impl Rng for SplitMix64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The xorshift64\* generator.
///
/// # Examples
///
/// ```
/// use qisim_quantum::rng::{Rng, Xorshift64Star};
///
/// let mut a = Xorshift64Star::seed_from_u64(7);
/// let mut b = Xorshift64Star::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
/// let u = a.gen_f64();
/// assert!((0.0..1.0).contains(&u));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xorshift64Star {
    state: u64,
}

impl Xorshift64Star {
    /// Creates a generator from a seed; any seed (including 0) is valid.
    pub fn seed_from_u64(seed: u64) -> Self {
        // One SplitMix64 step decorrelates consecutive seeds and maps the
        // forbidden all-zeros state away.
        let z = SplitMix64::new(seed).next_u64();
        Xorshift64Star { state: if z == 0 { GOLDEN_GAMMA } else { z } }
    }

    /// The `stream`-th independent generator derived from `seed`: stream
    /// splitting à la SplitMix64, where substream `i` seeds from the state
    /// `seed + i·gamma` in O(1). Distinct streams of one seed are as
    /// decorrelated as distinct seeds.
    ///
    /// This is the reproducibility primitive of the parallel Monte-Carlo
    /// estimators: trial `t` of the sliced estimator always samples from
    /// `stream(seed, t)` (stage `j` of the rare ladder from `stream(seed,
    /// j)`), and the aggregate is therefore identical whether 1 or 64
    /// threads ran the work.
    ///
    /// # Examples
    ///
    /// ```
    /// use qisim_quantum::rng::{Rng, Xorshift64Star};
    ///
    /// let mut s0 = Xorshift64Star::stream(42, 0);
    /// let mut s1 = Xorshift64Star::stream(42, 1);
    /// assert_ne!(s0.next_u64(), s1.next_u64());
    /// assert_eq!(
    ///     Xorshift64Star::stream(42, 1),
    ///     { s1 = Xorshift64Star::stream(42, 1); s1 } // reproducible
    /// );
    /// ```
    pub fn stream(seed: u64, stream: u64) -> Self {
        Self::seed_from_u64(seed.wrapping_add(stream.wrapping_mul(GOLDEN_GAMMA)))
    }
}

impl Rng for Xorshift64Star {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// A geometric gap sampler: how many i.i.d. Bernoulli(`p`) trials fail
/// before the next success.
///
/// Sampling a run of `n` Bernoulli flags one uniform draw at a time
/// costs `n` draws; inverting the geometric CDF costs one draw **per
/// success** instead (`gap = ⌊ln U / ln(1−p)⌋`, `U` uniform in `(0, 1]`).
/// At the physical error rates the surface-code Monte-Carlo engine cares
/// about (`p ≈ 10⁻³`), that is a ~1000× reduction in RNG traffic. The
/// inversion is the exact geometric law — not a Poisson or other
/// small-`p` approximation — so it is valid at any `p` in `(0, 1)`.
///
/// Degenerate rates are the *caller's* fast path (`p = 0`: no successes,
/// sample nothing; `p = 1`: every trial succeeds, no randomness needed),
/// so the constructor rejects them.
///
/// # Examples
///
/// ```
/// use qisim_quantum::rng::{Geometric, Xorshift64Star};
///
/// let geo = Geometric::new(0.25);
/// let mut rng = Xorshift64Star::seed_from_u64(9);
/// let gap = geo.sample(&mut rng); // failures before the next success
/// let again = {
///     let mut rng = Xorshift64Star::seed_from_u64(9);
///     geo.sample(&mut rng)
/// };
/// assert_eq!(gap, again); // one draw, deterministic
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geometric {
    /// `1 / ln(1 − p)` (negative), precomputed so sampling is one draw,
    /// one `ln`, one multiply.
    inv_ln_q: f64,
}

impl Geometric {
    /// Builds a sampler for success probability `p`.
    ///
    /// Valid at **any** `p` strictly between 0 and 1, including subnormal
    /// `p`: when `p` is so small that `1 − p` rounds to `1.0` (so the
    /// naive `ln(1 − p)` would collapse to zero and every gap to 0), the
    /// slope is recomputed through [`f64::ln_1p`], and [`Self::sample`]
    /// saturates at `u64::MAX` — "past the end of any run" — instead of
    /// overflowing or flipping everything. For every `p` where the naive
    /// logarithm is nonzero the stored slope (and therefore the sampled
    /// gap sequence) is bit-identical to what it has always been.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p < 1` (the degenerate rates `p = 0` — nothing
    /// ever succeeds — and `p = 1` — everything succeeds — need no
    /// sampler and are the caller's fast path). NaN fails the range check
    /// and panics too.
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p < 1.0, "geometric sampler needs 0 < p < 1, got {p}");
        let ln_q = (1.0 - p).ln();
        // Subnormal/tiny p underflows `1 - p` to exactly 1.0; ln_1p keeps
        // the slope finite (≈ −1/p) so gaps saturate instead of zeroing.
        let inv_ln_q = if ln_q == 0.0 { 1.0 / (-p).ln_1p() } else { 1.0 / ln_q };
        Geometric { inv_ln_q }
    }

    /// The number of failures before the next success (possibly 0).
    ///
    /// Consumes exactly one `u64` from `rng`. The result saturates at
    /// `u64::MAX` for astronomically long gaps (`as`-casts from `f64`
    /// saturate), which callers treat as "past the end of the run".
    #[inline]
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        // U in (0, 1] keeps ln finite; U = 1 maps to gap 0.
        (rng.gen_open01().ln() * self.inv_ln_q) as u64
    }

    /// Batched skip over a run of `n` Bernoulli trials: feeds every
    /// success position (strictly ascending, in `0..n`) to `place` and
    /// returns whether anything was placed.
    ///
    /// One [`Self::sample`] draw per success plus one terminating draw —
    /// never one per trial — and the saturating position arithmetic means
    /// the walk can neither overflow nor spin, even at subnormal `p`
    /// where every gap is `u64::MAX`. Every Monte-Carlo sampler and the
    /// reference oracle place errors through this one loop, so their RNG
    /// draw sequences agree by construction.
    #[inline]
    pub fn positions<R: Rng, F: FnMut(usize)>(&self, n: usize, rng: &mut R, mut place: F) -> bool {
        let mut pos = self.sample(rng);
        let any = pos < n as u64;
        while pos < n as u64 {
            place(pos as usize);
            // Saturating: a gap of u64::MAX means "past the end".
            pos = pos.saturating_add(1).saturating_add(self.sample(rng));
        }
        any
    }

    /// A conservative first-draw threshold for
    /// [`Self::positions_from_first`] over a run of `n` trials: every
    /// uniform draw `U` at or below it provably makes the first gap
    /// `≥ n`, so an all-survive run needs no logarithm at all.
    pub fn empty_run_threshold(&self, n: usize) -> f64 {
        // The first gap ln(U)·inv_ln_q is decreasing in U and crosses n
        // at U = qⁿ = exp(n·ln q). The relative margin of 1e-6 dwarfs
        // the few-ulp rounding of recip/exp/ln (≲ n·2⁻⁵⁰), so the
        // shortcut can never disagree with the exact walk — draws inside
        // the margin merely take the exact path.
        ((n as f64) * self.inv_ln_q.recip()).exp() * (1.0 - 1e-6)
    }

    /// [`Self::empty_run_threshold`] in raw-mantissa space: a draw whose
    /// [`Rng::gen_mantissa53`] value is **at least** this gate provably
    /// survives all `n` trials. `gen_open01` is exactly `1 − m·2⁻⁵³`, so
    /// `m ≥ gate ⟹ U ≤ threshold`; the trailing `+1` eats the `ceil`
    /// rounding, erring — like the threshold's margin — toward sending
    /// borderline draws down the exact path. A gate above `2⁵³ − 1`
    /// (unreachable by any mantissa) simply disables the shortcut.
    pub fn empty_run_gate(&self, n: usize) -> u64 {
        let scale = (1u64 << 53) as f64;
        (((1.0 - self.empty_run_threshold(n)) * scale).ceil() as u64).saturating_add(1)
    }

    /// [`Self::positions`] once the first uniform is already in hand
    /// (say, drawn via [`Rng::gen_mantissa53`] and screened against
    /// [`Self::empty_run_gate`]), with a fast path for gap-clears-the-run
    /// draws: any continuation draw at or below `empty_threshold`
    /// provably has gap `≥ n` and resolves "past the end of the run"
    /// without a `ln` (the bound is loose — `n` exceeds whatever remains
    /// of the run — but loose in the direction that only sends borderline
    /// draws down the exact path).
    ///
    /// Draw-for-draw identical to `positions` from here on — it consumes
    /// the same uniforms from `rng` and feeds `place` the same positions
    /// — which is what lets the sliced Monte-Carlo estimator use it
    /// while staying bit-equal to the reference oracle. `first_u` must be
    /// the exact `gen_open01` value of the consumed draw — see
    /// [`open01_from_mantissa53`] — and `empty_threshold` must come from
    /// [`Self::empty_run_threshold`] for the same `n`.
    #[inline]
    pub fn positions_from_first<R: Rng, F: FnMut(usize)>(
        &self,
        n: usize,
        first_u: f64,
        empty_threshold: f64,
        rng: &mut R,
        mut place: F,
    ) -> bool {
        let mut pos = (first_u.ln() * self.inv_ln_q) as u64;
        let any = pos < n as u64;
        while pos < n as u64 {
            place(pos as usize);
            let next = rng.gen_open01();
            if next <= empty_threshold {
                // Gap ≥ n ⇒ past the end of whatever remains.
                break;
            }
            pos = pos.saturating_add(1).saturating_add((next.ln() * self.inv_ln_q) as u64);
        }
        any
    }
}

/// Reconstructs, bit for bit, the `(0, 1]` uniform [`Rng::gen_open01`]
/// would have produced for the draw behind a [`Rng::gen_mantissa53`]
/// value (both arms of the identity are exact in `f64`).
#[inline]
pub fn open01_from_mantissa53(mantissa: u64) -> f64 {
    1.0 - mantissa as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds_distinct_for_different() {
        let a: Vec<u64> = {
            let mut r = Xorshift64Star::seed_from_u64(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Xorshift64Star::seed_from_u64(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Xorshift64Star::seed_from_u64(43);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = Xorshift64Star::seed_from_u64(0);
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn f64_stays_in_unit_interval_with_sane_mean() {
        let mut r = Xorshift64Star::seed_from_u64(1);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let u = r.gen_f64();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn open01_never_returns_zero() {
        let mut r = Xorshift64Star::seed_from_u64(2);
        for _ in 0..100_000 {
            let u = r.gen_open01();
            assert!(u > 0.0 && u <= 1.0);
        }
    }

    #[test]
    fn gen_below_is_unbiased_enough() {
        let mut r = Xorshift64Star::seed_from_u64(3);
        let mut counts = [0u32; 3];
        let n = 90_000;
        for _ in 0..n {
            counts[r.gen_below(3) as usize] += 1;
        }
        for &c in &counts {
            let expected = n as f64 / 3.0;
            assert!((c as f64 - expected).abs() < 5.0 * expected.sqrt(), "{counts:?}");
        }
    }

    #[test]
    fn gen_bool_is_roughly_fair() {
        let mut r = Xorshift64Star::seed_from_u64(4);
        let trues = (0..10_000).filter(|_| r.gen_bool()).count();
        assert!((4600..5400).contains(&trues), "trues {trues}");
    }

    #[test]
    fn trait_object_and_reborrow_work() {
        fn take_dyn(r: &mut dyn Rng) -> u64 {
            r.next_u64()
        }
        fn take_generic<R: Rng>(mut r: R) -> f64 {
            r.gen_f64()
        }
        let mut r = Xorshift64Star::seed_from_u64(5);
        let _ = take_dyn(&mut r);
        let _ = take_generic(&mut r); // &mut impl passes by reborrow
    }

    #[test]
    #[should_panic(expected = "positive bound")]
    fn gen_below_zero_panics() {
        let mut r = Xorshift64Star::seed_from_u64(6);
        let _ = r.gen_below(0);
    }

    #[test]
    fn splitmix_is_deterministic_and_well_mixed() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(0);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(0);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        // Consecutive outputs differ in roughly half their bits.
        for w in a.windows(2) {
            let flips = (w[0] ^ w[1]).count_ones();
            assert!((16..=48).contains(&flips), "flips {flips}");
        }
    }

    #[test]
    fn positions_fast_empty_stays_in_draw_lockstep_with_positions() {
        // Same placements, same return, same RNG state after every run —
        // across rates where the fast path almost always fires (tiny p),
        // sometimes fires, and almost never fires (large p).
        for p in [1e-9, 1e-3, 0.02, 0.3, 0.9] {
            let geo = Geometric::new(p);
            for n in [1usize, 13, 85, 1000] {
                let threshold = geo.empty_run_threshold(n);
                let gate = geo.empty_run_gate(n);
                assert!((0.0..1.0).contains(&threshold), "p={p} n={n}: {threshold}");
                let mut slow = Xorshift64Star::seed_from_u64(0xFA57 ^ n as u64);
                let mut gated = slow.clone();
                for round in 0..500 {
                    let mut placed_slow = Vec::new();
                    let mut placed_gated = Vec::new();
                    let any_slow = geo.positions(n, &mut slow, |q| placed_slow.push(q));
                    // The raw-mantissa route the sliced estimator takes.
                    let m = gated.gen_mantissa53();
                    let any_gated = m < gate
                        && geo.positions_from_first(
                            n,
                            open01_from_mantissa53(m),
                            threshold,
                            &mut gated,
                            |q| placed_gated.push(q),
                        );
                    assert_eq!(any_slow, any_gated, "p={p} n={n} round={round}");
                    assert_eq!(placed_slow, placed_gated, "p={p} n={n} round={round}");
                    assert_eq!(slow, gated, "gated rng diverged at p={p} n={n} round={round}");
                }
            }
        }
    }

    #[test]
    fn geometric_matches_bernoulli_scan_in_distribution() {
        // Inverting the geometric CDF must reproduce the per-trial
        // Bernoulli law: compare the mean gap against (1-p)/p.
        for p in [0.01f64, 0.1, 0.5] {
            let geo = Geometric::new(p);
            let mut rng = Xorshift64Star::seed_from_u64(0xBEEF);
            let n = 200_000;
            let mut sum = 0.0;
            for _ in 0..n {
                sum += geo.sample(&mut rng) as f64;
            }
            let mean = sum / n as f64;
            let expect = (1.0 - p) / p;
            let sigma = ((1.0 - p) / (p * p) / n as f64).sqrt();
            assert!((mean - expect).abs() < 6.0 * sigma, "p={p}: mean {mean} vs {expect}");
        }
    }

    #[test]
    fn geometric_is_deterministic_and_one_draw() {
        let geo = Geometric::new(0.03);
        let mut a = Xorshift64Star::seed_from_u64(5);
        let mut b = Xorshift64Star::seed_from_u64(5);
        let gap = geo.sample(&mut a);
        assert_eq!(gap, geo.sample(&mut b));
        // Exactly one u64 consumed: the generators stay in lock step.
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    #[should_panic(expected = "0 < p < 1")]
    fn geometric_rejects_degenerate_rates() {
        let _ = Geometric::new(0.0);
    }

    #[test]
    #[should_panic(expected = "0 < p < 1")]
    fn geometric_rejects_certain_success() {
        let _ = Geometric::new(1.0);
    }

    #[test]
    #[should_panic(expected = "0 < p < 1")]
    fn geometric_rejects_nan() {
        let _ = Geometric::new(f64::NAN);
    }

    #[test]
    fn geometric_subnormal_p_saturates_instead_of_zeroing() {
        // 1 − p rounds to exactly 1.0 for these, so the naive ln would be
        // 0 and every gap would collapse to 0 (flipping *every* trial).
        // The hardened slope must instead make gaps astronomically long.
        for p in [f64::MIN_POSITIVE * 0.5, f64::MIN_POSITIVE, 1e-300, 1e-20, 2f64.powi(-54)] {
            let geo = Geometric::new(p);
            let mut rng = Xorshift64Star::seed_from_u64(13);
            for _ in 0..1000 {
                let gap = geo.sample(&mut rng);
                // Mean gap is 1/p ≥ 1e20; seeing anything below 2^40 in a
                // thousand draws would be a ~1e-8 fluke per draw.
                assert!(gap > 1 << 40, "p={p:e}: gap {gap} is absurdly short");
            }
        }
    }

    #[test]
    fn geometric_positions_never_spin_at_subnormal_p() {
        // The batched walk must terminate promptly (one or two draws)
        // even when every gap saturates at u64::MAX.
        let geo = Geometric::new(f64::MIN_POSITIVE);
        let mut rng = Xorshift64Star::seed_from_u64(17);
        for _ in 0..100 {
            let mut placed = Vec::new();
            let any = geo.positions(usize::MAX, &mut rng, |q| placed.push(q));
            assert!(!any && placed.is_empty(), "subnormal p placed {placed:?}");
        }
    }

    #[test]
    fn geometric_positions_matches_the_manual_skip_loop() {
        // `positions` must reproduce the historical inline loop draw for
        // draw — the scalar kernels' bit-identity depends on it.
        for (p, n) in [(0.01f64, 500usize), (0.3, 64), (0.9, 10)] {
            let geo = Geometric::new(p);
            let mut a = Xorshift64Star::seed_from_u64(p.to_bits() ^ n as u64);
            let mut b = a.clone();
            let mut got = Vec::new();
            let any = geo.positions(n, &mut a, |q| got.push(q));
            let mut want = Vec::new();
            let mut pos = geo.sample(&mut b);
            let want_any = pos < n as u64;
            while pos < n as u64 {
                want.push(pos as usize);
                pos = pos.saturating_add(1).saturating_add(geo.sample(&mut b));
            }
            assert_eq!(got, want, "p={p} n={n}");
            assert_eq!(any, want_any);
            assert_eq!(a.next_u64(), b.next_u64(), "draw counts diverged");
            assert!(got.windows(2).all(|w| w[0] < w[1]), "positions must ascend");
        }
    }

    #[test]
    fn geometric_slope_is_unchanged_for_normal_rates() {
        // The ln_1p fallback must only engage where the naive logarithm
        // degenerates; everywhere else the sampler is bit-identical to
        // the original formula.
        for p in [1e-10, 1e-3, 0.01, 0.1, 0.5, 0.999] {
            assert_eq!(Geometric::new(p), Geometric { inv_ln_q: 1.0 / (1.0 - p).ln() }, "p={p}");
        }
    }

    #[test]
    fn stream_zero_matches_plain_seeding() {
        assert_eq!(Xorshift64Star::stream(42, 0), Xorshift64Star::seed_from_u64(42));
    }

    #[test]
    fn streams_are_reproducible_and_decorrelated() {
        let outputs: Vec<Vec<u64>> = (0..16)
            .map(|i| {
                let mut r = Xorshift64Star::stream(7, i);
                (0..4).map(|_| r.next_u64()).collect()
            })
            .collect();
        for (i, a) in outputs.iter().enumerate() {
            assert_eq!(*a, {
                let mut r = Xorshift64Star::stream(7, i as u64);
                (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
            });
            for b in &outputs[i + 1..] {
                assert_ne!(a, b, "streams must not collide");
            }
        }
        // Stream mean still looks uniform.
        let mut sum = 0.0;
        let mut r = Xorshift64Star::stream(7, 3);
        for _ in 0..10_000 {
            sum += r.gen_f64();
        }
        assert!((sum / 10_000.0 - 0.5).abs() < 0.02);
    }
}
