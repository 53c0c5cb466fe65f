//! Property tests of the histogram quantile estimator and the
//! delta-snapshot algebra.
//!
//! Each property runs [`CASES`] inputs drawn from a fixed-seed
//! [`Xorshift64Star`], so every run checks the same inputs; a failure
//! message names the input that broke the property.

use qisim_obs::{Histogram, Snapshot};
use qisim_quantum::rng::{Rng, Xorshift64Star};

const CASES: usize = 64;
const SEED: u64 = 0x5157_0003;

/// Uniform draw in the closed interval `[0, 1]`.
fn unit_closed(rng: &mut Xorshift64Star) -> f64 {
    const SCALE: u64 = 1 << 53;
    rng.gen_below(SCALE + 1) as f64 / SCALE as f64
}

/// A histogram of 1..200 samples uniform in `[0, 1e12)`.
fn histogram(rng: &mut Xorshift64Star) -> Histogram {
    let mut h = Histogram::new();
    for _ in 0..1 + rng.gen_below(199) {
        h.observe(1e12 * rng.gen_f64());
    }
    h
}

/// `quantile` is monotone non-decreasing in `q`.
#[test]
fn quantile_is_monotone_in_q() {
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for _ in 0..CASES {
        let h = histogram(&mut rng);
        let (a, b) = (unit_closed(&mut rng), unit_closed(&mut rng));
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(h.quantile(lo) <= h.quantile(hi), "q{lo} > q{hi}");
    }
}

/// The endpoints are exact: `q=0` is the recorded minimum and `q=1`
/// the recorded maximum, not bucket midpoints.
#[test]
fn quantile_endpoints_are_exact() {
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for _ in 0..CASES {
        let h = histogram(&mut rng);
        assert_eq!(h.quantile(0.0), h.min());
        assert_eq!(h.quantile(1.0), h.max());
    }
}

/// Every quantile of a non-empty histogram lies within [min, max].
#[test]
fn quantiles_stay_within_range() {
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for _ in 0..CASES {
        let h = histogram(&mut rng);
        let q = unit_closed(&mut rng);
        let v = h.quantile(q);
        assert!(v >= h.min() && v <= h.max(), "q{q} = {v} outside range");
    }
}

/// Delta-of-delta is zero: once an interval has been differenced
/// against itself, differencing again changes nothing.
#[test]
fn delta_of_delta_is_zero() {
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for _ in 0..CASES {
        // 1..8 names of 1..=8 lowercase letters each.
        let names: Vec<String> = (0..1 + rng.gen_below(7))
            .map(|_| {
                (0..1 + rng.gen_below(8))
                    .map(|_| (b'a' + rng.gen_below(26) as u8) as char)
                    .collect()
            })
            .collect();
        let base = rng.gen_below(1_000_000);
        let mut snap = Snapshot::default();
        for (i, n) in names.iter().enumerate() {
            snap.counters.push((format!("{n}{i}"), base + i as u64));
        }
        let zero = snap.delta_since(&snap);
        for (_, v) in &zero.counters {
            assert_eq!(*v, 0, "names {names:?}, base {base}");
        }
        let still_zero = zero.delta_since(&zero);
        for (_, v) in &still_zero.counters {
            assert_eq!(*v, 0, "names {names:?}, base {base}");
        }
    }
}

/// Counter deltas never go negative, even when the current value is
/// below the previous one (a `reset()` happened mid-interval): the
/// delta falls back to the post-reset count.
#[test]
fn counter_deltas_are_never_negative() {
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for _ in 0..CASES {
        let (prev, cur) = (rng.gen_below(1_000_000), rng.gen_below(1_000_000));
        let mut a = Snapshot::default();
        a.counters.push(("c".into(), prev));
        let mut b = Snapshot::default();
        b.counters.push(("c".into(), cur));
        let d = b.delta_since(&a).counter("c").unwrap();
        let expect = if cur >= prev { cur - prev } else { cur };
        assert_eq!(d, expect, "prev {prev}, cur {cur}");
    }
}
