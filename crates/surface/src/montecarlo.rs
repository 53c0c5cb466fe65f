//! Monte-Carlo logical-error sampling (code-capacity noise).
//!
//! Samples i.i.d. X errors on the data qubits, decodes with the
//! union-find decoder, and counts logical failures — the numerical
//! ground truth the analytic model of [`crate::analytic`] is validated
//! against at small distances.
//!
//! Two estimators, one per regime:
//!
//! * [`logical_error_rate_sliced_par`] — the naive sampler ([`sliced`]):
//!   trial after trial on the [`qisim_par`] pool, each on its own random
//!   stream, with geometric-skip error placement and a one-comparison
//!   screen that retires the error-free trials;
//! * [`logical_error_rate_rare`] — multilevel importance sampling
//!   ([`rare`]) for deep-tail rates no naive sampler can reach, checked
//!   against the exact [`rare::small_p_expansion`]. Its trials with
//!   fewer than `⌈d/2⌉` errors cannot fail (the decoder corrects every
//!   error of weight ≤ `(d − 1)/2`, see [`crate::decoder`]) and take no
//!   decode. The sliced estimator keeps settling such trials below: at
//!   the served rates nearly every trial is that light, so the rule would
//!   take its decoded-trial share (`surface.sliced.fallback_ratio`, which
//!   the repository benchmark's `--check` requires to be nonzero) to 0.
//!
//! Both run on an [`McContext`]: the decoding graph, the packed lattice
//! and the lone-error guards of one lattice, built once. A caller that
//! estimates repeatedly on one lattice keeps the context; the two free
//! functions build a fresh one per call.
//!
//! # Settling a trial
//!
//! Qubit `q` sits at row `q / d`, column `q % d` of the `d × d` data
//! grid. An error of a trial is a *single* when no other error of the
//! trial lies within Chebyshev distance < 4 of it; the trial's other
//! errors are its *remainder*. Every trial with a nonzero syndrome, in
//! both estimators, gets its verdict from one function
//! (`McScratch::settle`), which reads the trial's error positions:
//!
//! * **All singles** (the trial is *isolated*): no failure, and nothing
//!   decodes. The union-find correction is the symmetric difference of
//!   the errors' lone corrections, and from `d = 3` on the decoder
//!   corrects every lone error, so the corrected pattern is a sum of
//!   stabilizers.
//! * **Singles and a remainder**: only the remainder decodes. Each
//!   qubit's *guard* is the footprint of its lone-error growth — the
//!   cluster vertices (boundary excluded), the endpoints of the grown
//!   edges, the grown edges and every edge incident to the cluster.
//!   When the remainder's growth absorbs no guard vertex of any single
//!   and grows no guard edge, the verdict is the remainder's; otherwise
//!   the trial decodes whole.
//! * **No single**: the trial decodes whole.
//!
//! At `d = 2` a lone error can decode into a failure, so no error counts
//! as a single there and every trial decodes whole.
//!
//! Why a clear guard makes the split exact: with disjoint footprints the
//! joint growth is, round by round, the disjoint union of the separate
//! growths — no edge grows from both sides, no cluster merges across,
//! and a cluster that touches the boundary freezes either way. The
//! peeling forest splits the same way: the boundary-rooted depth-first
//! search visits each group's vertices in the same order, and peeling a
//! tree yields the same correction in any order. The correction is the
//! disjoint union of the two, so the verdict, a parity, is the
//! remainder's: the singles' part is a sum of stabilizers. The debug
//! builds re-decode every trial that skipped a decode on a fresh arena
//! and assert the verdicts agree.
//!
//! # Free-row verdicts
//!
//! Every row of the data grid meets each X check in 0 or 2 qubits and
//! the logical-`X̄` column in one, so it is a logical-`Z̄` representative:
//! a zero-syndrome pattern has the same parity on every row. Peeling
//! flips only qubits of fully grown edges. So once a decoded trial's
//! clusters have grown, a row no fully grown edge touches gives its
//! verdict as the parity of the *uncorrected* errors there, and the
//! peel is skipped. At `d = 23` that holds for ≥ 99.9 % of the decoded
//! trials at `q ≤ 0.02`, ~96 % at `q = 0.05` and ~56 % at `q = 0.08`.
//! The debug builds peel anyway and assert that no syndrome is left and
//! that both verdicts agree.
//!
//! [`run_trials_reference`] is the test oracle: bool-vec storage, the
//! naive syndrome, and the allocate-per-call [`decode_reference`], on
//! the same geometric-skip draw sequence. Fed the sliced kernel's
//! per-trial streams it counts the same failures **bit for bit**.

pub mod rare;
pub mod sliced;

pub use rare::{logical_error_rate_rare, RareEstimate};
pub use sliced::{logical_error_rate_sliced_par, SlicedStats};

use crate::decoder::{decode_reference, grow, peel, DecodeStats, DecoderScratch, DecodingGraph};
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

/// Chebyshev distance on the data grid at and beyond which X errors
/// decode independently. At 3 the pairs still do (none of the 5,160
/// distance-3 pairs at `d = 23` decodes differently from its lone
/// corrections), but a lone error's growth reaches the guard of a qubit
/// three away (at `d = 5`), so singles could no longer skip guarding
/// each other.
const ISOLATION_DISTANCE: usize = 4;

/// A lattice prepared once for both Monte-Carlo estimators: its decoding
/// graph, its packed layout and its lone-error guards (one growth per
/// data qubit). [`McContext::sliced_estimate`] and
/// [`rare::RareLadder`] read it; neither rebuilds it.
///
/// # Panics
///
/// [`McContext::new`] panics if the lattice has more than 2¹⁶ data
/// qubits: error positions and decoder ids are stored as `u16`.
///
/// # Examples
///
/// ```
/// use qisim_surface::{montecarlo, Lattice};
/// use qisim_surface::montecarlo::McContext;
///
/// let lattice = Lattice::new(5);
/// let context = McContext::new(&lattice);
/// let kept = context.sliced_estimate(0.02, 1000, 23);
/// assert_eq!(kept, montecarlo::logical_error_rate_sliced_par(&lattice, 0.02, 1000, 23));
/// ```
#[derive(Debug, Clone)]
pub struct McContext {
    graph: DecodingGraph,
    packed: PackedLattice,
    guards: LoneGuards,
}

impl McContext {
    /// Builds the graph and packed lattice of `lattice` and grows each
    /// lone error once.
    pub fn new(lattice: &Lattice) -> Self {
        let graph = DecodingGraph::new(lattice);
        let packed = PackedLattice::new(lattice);
        let guards = LoneGuards::new(&packed, &graph);
        McContext { graph, packed, guards }
    }
}

/// The guard of every lone X error (see the module docs): what a
/// remainder's growth must stay clear of for a trial to settle its
/// singles without decoding them.
#[derive(Debug, Clone)]
struct LoneGuards {
    /// Qubit `q`'s guard vertices are `verts[vert_off[q] as
    /// usize..vert_off[q + 1] as usize]`.
    vert_off: Vec<u32>,
    verts: Vec<u16>,
    /// Qubit `q`'s guard edges, laid out like its vertices.
    edge_off: Vec<u32>,
    edges: Vec<u16>,
}

impl LoneGuards {
    /// Grows a lone error on every data qubit, on an arena of its own so
    /// no estimator's decoder counters move, and records the footprint of
    /// its growth.
    fn new(packed: &PackedLattice, graph: &DecodingGraph) -> Self {
        let n = packed.data_qubits();
        assert!(n <= 1 << 16, "error positions are u16: at most 2^16 data qubits, got {n}");
        let mut guards = LoneGuards {
            vert_off: vec![0],
            verts: Vec::new(),
            edge_off: vec![0],
            edges: Vec::new(),
        };
        let mut decoder = DecoderScratch::new(graph);
        let mut syndrome = vec![0; graph.syndrome_words()];
        for q in 0..n {
            syndrome.fill(0);
            packed.flip_z_checks_of(q, &mut syndrome);
            // A d = 2 corner qubit flips no check: nothing grows, and its
            // guard is empty.
            grow(graph, &syndrome, &mut decoder);
            decoder.footprint(graph, &mut guards.verts, &mut guards.edges);
            guards.vert_off.push(guards.verts.len() as u32);
            guards.edge_off.push(guards.edges.len() as u32);
        }
        guards
    }

    /// Whether the growth in `decoder` reaches qubit `q`'s guard, so a
    /// single at `q` may interact with it.
    #[inline]
    fn reached(&self, q: u16, decoder: &DecoderScratch) -> bool {
        let q = usize::from(q);
        let verts = self.vert_off[q] as usize..self.vert_off[q + 1] as usize;
        let edges = self.edge_off[q] as usize..self.edge_off[q + 1] as usize;
        decoder.reaches(&self.verts[verts], &self.edges[edges])
    }
}

/// How [`McScratch::settle`] reached a trial's failure verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Settled {
    /// Every error is a single: no failure, no decode.
    Isolated,
    /// Through the decoder: the whole trial, or its remainder alone.
    Decoded(bool),
}

impl Settled {
    /// The failure verdict, however it was reached.
    fn fails(self) -> bool {
        self == Settled::Decoded(true)
    }
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
    /// reference oracle — places errors through this walk (the sliced
    /// estimator enters it past its fast-empty gate, through
    /// [`Geometric::positions_from_first`]), so their RNG draw sequences
    /// are identical by construction.
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
/// and syndrome bitsets, the rows the clusters reach, which errors of a
/// trial are singles, and the decoder arena. Every nonzero-syndrome
/// trial of both estimators gets its verdict from [`McScratch::settle`];
/// each pool worker allocates one per estimate, zero per trial.
#[derive(Debug, Clone)]
struct McScratch {
    errs: Vec<u64>,
    syndrome: Vec<u64>,
    /// Bit `r` set: a fully grown edge of the last growth is on row `r`.
    grown_rows: Vec<u64>,
    /// `near[i]`: error `i` of the trial being settled has another error
    /// within Chebyshev distance < [`ISOLATION_DISTANCE`] (it belongs to
    /// the remainder).
    near: Vec<bool>,
    decoder: DecoderScratch,
}

impl McScratch {
    /// Allocates scratch sized for `packed` and `graph`.
    fn new(packed: &PackedLattice, graph: &DecodingGraph) -> Self {
        McScratch {
            errs: vec![0; packed.qubit_words()],
            syndrome: vec![0; graph.syndrome_words()],
            grown_rows: vec![0; packed.distance().div_ceil(64)],
            near: Vec::new(),
            decoder: DecoderScratch::new(graph),
        }
    }

    /// Places X errors at `positions` into the error bitset and builds
    /// their Z syndrome alongside — each qubit flips its ≤ 2 checks
    /// ([`PackedLattice::flip_z_checks_of`]), which equals
    /// [`PackedLattice::z_syndrome_into`] of the finished pattern.
    /// Returns whether the syndrome is nonzero.
    fn place(&mut self, packed: &PackedLattice, positions: &[u16]) -> bool {
        self.errs.fill(0);
        self.syndrome.fill(0);
        for &q in positions {
            PackedLattice::set_bit(&mut self.errs, usize::from(q));
            packed.flip_z_checks_of(usize::from(q), &mut self.syndrome);
        }
        self.syndrome.iter().any(|&w| w != 0)
    }

    /// The failure verdict of the trial with X errors at `positions`
    /// (ascending, with a nonzero syndrome), decoding only the errors
    /// that may interact (see the module docs). `self` must be sized for
    /// `context`'s lattice.
    fn settle(&mut self, context: &McContext, positions: &[u16]) -> Settled {
        let (packed, graph) = (&context.packed, &context.graph);
        let singles = self.mark_singles(packed, positions);
        if singles == positions.len() {
            debug_assert!(
                !decoded_verdict(packed, graph, positions),
                "isolated errors decode into a failure: {positions:?}"
            );
            return Settled::Isolated;
        }
        if singles == 0 {
            return Settled::Decoded(self.decoded_verdict(packed, graph, positions));
        }
        // Place the remainder alone (as `place` would).
        self.errs.fill(0);
        self.syndrome.fill(0);
        for (&q, _) in positions.iter().zip(&self.near).filter(|(_, &near)| near) {
            PackedLattice::set_bit(&mut self.errs, usize::from(q));
            packed.flip_z_checks_of(usize::from(q), &mut self.syndrome);
        }
        // A remainder with no syndrome (a boundary stabilizer) grows
        // nothing; such trials are rare enough to decode whole.
        if !grow(graph, &self.syndrome, &mut self.decoder) {
            return Settled::Decoded(self.decoded_verdict(packed, graph, positions));
        }
        let mut singles_at = positions.iter().zip(&self.near).filter(|(_, &near)| !near);
        if singles_at.any(|(&q, _)| context.guards.reached(q, &self.decoder)) {
            self.decoder.stats.split_fallbacks += 1;
            return Settled::Decoded(self.decoded_verdict(packed, graph, positions));
        }
        self.decoder.stats.singles_settled += singles as u64;
        let fails = self.grown_verdict(packed, graph);
        debug_assert_eq!(
            fails,
            decoded_verdict(packed, graph, positions),
            "split verdict disagrees with the decoder: {positions:?}"
        );
        Settled::Decoded(fails)
    }

    /// Flags in `near` the errors at `positions` (ascending) that have
    /// another error within Chebyshev distance < [`ISOLATION_DISTANCE`],
    /// and returns how many are singles (unflagged). Below `d = 3` a lone
    /// error can decode into a failure, so every error is flagged.
    fn mark_singles(&mut self, packed: &PackedLattice, positions: &[u16]) -> usize {
        self.near.clear();
        self.near.resize(positions.len(), packed.distance() < 3);
        for (i, &a) in positions.iter().enumerate() {
            let (row_a, col_a) = packed.row_col(usize::from(a));
            // Ascending positions have non-decreasing rows: once a later
            // error is ISOLATION_DISTANCE rows down, so are the rest.
            for (j, &b) in positions.iter().enumerate().skip(i + 1) {
                let (row_b, col_b) = packed.row_col(usize::from(b));
                if row_b - row_a >= ISOLATION_DISTANCE {
                    break;
                }
                if col_a.abs_diff(col_b) < ISOLATION_DISTANCE {
                    self.near[i] = true;
                    self.near[j] = true;
                }
            }
        }
        self.near.iter().filter(|&&near| !near).count()
    }

    /// The failure verdict of the trial with X errors at `positions`,
    /// decoded whole.
    fn decoded_verdict(
        &mut self,
        packed: &PackedLattice,
        graph: &DecodingGraph,
        positions: &[u16],
    ) -> bool {
        self.place(packed, positions);
        if !grow(graph, &self.syndrome, &mut self.decoder) {
            return packed.is_logical_x(&self.errs);
        }
        self.grown_verdict(packed, graph)
    }

    /// The failure verdict of `errs` once [`grow`] has run on its
    /// nonzero syndrome: read off a row no fully grown edge touches, or,
    /// when the clusters reach every row, off the peeled correction (see
    /// the module docs).
    fn grown_verdict(&mut self, packed: &PackedLattice, graph: &DecodingGraph) -> bool {
        let d = packed.distance();
        self.grown_rows.fill(0);
        for q in self.decoder.fully_grown_qubits(graph) {
            PackedLattice::set_bit(&mut self.grown_rows, packed.row_col(q).0);
        }
        match (0..d).find(|&r| !PackedLattice::get_bit(&self.grown_rows, r)) {
            Some(row) => {
                self.decoder.stats.peels_skipped += 1;
                let fails = packed.row_parity(&self.errs, row);
                debug_assert_eq!(
                    fails,
                    self.peeled_verdict(packed, graph),
                    "free-row verdict disagrees with the full peel"
                );
                fails
            }
            None => self.peeled_verdict(packed, graph),
        }
    }

    /// Peels the grown clusters into `errs` and reads the logical-`Z̄`
    /// row; debug builds check that no syndrome is left.
    fn peeled_verdict(&mut self, packed: &PackedLattice, graph: &DecodingGraph) -> bool {
        for &q in peel(graph, &mut self.decoder) {
            PackedLattice::flip_bit(&mut self.errs, q);
        }
        debug_assert!(
            !packed.z_syndrome_into(&self.errs, &mut self.syndrome),
            "decoder left residual syndrome"
        );
        packed.is_logical_x(&self.errs)
    }
}

/// [`McScratch::decoded_verdict`] on freshly allocated buffers, so the
/// decoder counters the estimators flush never move: the debug builds
/// check every verdict that skipped a decode against it.
fn decoded_verdict(packed: &PackedLattice, graph: &DecodingGraph, positions: &[u16]) -> bool {
    McScratch::new(packed, graph).decoded_verdict(packed, graph, positions)
}

/// Flushes the decoder work counters of one estimate to `qisim-obs`:
/// both estimators call this once per estimate, never per trial.
fn flush_decode_stats(dec: DecodeStats) {
    qisim_obs::counter!("surface.decoder.rounds", dec.rounds);
    qisim_obs::counter!("surface.decoder.frontier_edges", dec.edges_grown);
    qisim_obs::counter!("surface.decoder.peels_skipped", dec.peels_skipped);
    qisim_obs::counter!("surface.montecarlo.singles_settled", dec.singles_settled);
    qisim_obs::counter!("surface.montecarlo.split_fallbacks", dec.split_fallbacks);
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
    use crate::decoder::decode_into;
    use qisim_quantum::rng::{Rng, Xorshift64Star};

    #[test]
    fn zero_physical_error_never_fails() {
        let l = Lattice::new(5);
        let graph = DecodingGraph::new(&l);
        let mut rng = Xorshift64Star::seed_from_u64(1);
        assert_eq!(run_trials_reference(&l, &graph, 0.0, 50, &mut rng), 0);
    }

    #[test]
    fn certain_physical_error_flips_everything() {
        // p = 1 exercises the ErrorSampler::All branch: every qubit
        // flips, deterministically, with zero RNG draws.
        let l = Lattice::new(5);
        let graph = DecodingGraph::new(&l);
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
            let graph = DecodingGraph::new(&l);
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
        let context = McContext::new(l);
        let mut scratch = SlicedScratch::new(&context);
        let mut failures = 0usize;
        let mut start = 0usize;
        while start < trials {
            let len = SLICED_CHUNK_TRIALS.min(trials - start);
            failures += run_trials_sliced(&context, p, len, seed, start, &mut scratch);
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

    /// Whether the flagged errors make an isolated trial of the sliced
    /// kernel: every pair at Chebyshev distance ≥ [`ISOLATION_DISTANCE`]
    /// on the `d × d` grid, however many there are.
    fn is_isolated(d: usize, errs: &[bool]) -> bool {
        let at: Vec<(usize, usize)> =
            (0..errs.len()).filter(|&q| errs[q]).map(|q| (q / d, q % d)).collect();
        at.iter().enumerate().all(|(i, a)| {
            at[i + 1..]
                .iter()
                .all(|b| a.0.abs_diff(b.0).max(a.1.abs_diff(b.1)) >= ISOLATION_DISTANCE)
        })
    }

    #[test]
    fn fast_path_counters_partition_the_trials() {
        // Classify each trial with the bool-vec oracle on its own stream:
        // the kernel's three fast-path counters and its decoded count
        // must match class by class. At d = 23 and p = 0.01 some isolated
        // trials carry more than 8 errors, and they settle like any other.
        // At d = 3 and p = 0.3 some trials' errors leave a zero syndrome.
        for (d, p, trials) in [(7usize, 0.002, 2000usize), (23, 0.01, 20_000), (3, 0.3, 4000)] {
            let l = Lattice::new(d);
            let context = McContext::new(&l);
            let mut scratch = SlicedScratch::new(&context);
            let seed = 8u64;
            let _ = run_trials_sliced(&context, p, trials, seed, 0, &mut scratch);
            let (stats, dec) = scratch.take_stats();
            let sampler = ErrorSampler::new(p);
            let n = l.data_qubits();
            let (mut empty, mut zero_syndrome, mut isolated, mut decoded) =
                (0u64, 0u64, 0u64, 0u64);
            let mut heavy_isolated = 0u64;
            for t in 0..trials {
                let mut rng = Xorshift64Star::stream(seed, t as u64);
                let mut errs = vec![false; n];
                if !sampler.sample(n, &mut rng, |q| errs[q] = true) {
                    empty += 1;
                } else if l.z_syndrome(&errs).iter().all(|b| !b) {
                    zero_syndrome += 1;
                } else if is_isolated(d, &errs) {
                    isolated += 1;
                    heavy_isolated += u64::from(errs.iter().filter(|&&e| e).count() > 8);
                } else {
                    decoded += 1;
                }
            }
            let case = format!("d={d} p={p}: {stats:?}");
            assert_eq!(empty + zero_syndrome + isolated + decoded, trials as u64);
            assert_eq!(
                (
                    stats.empty_trials,
                    stats.zero_syndrome_trials,
                    stats.isolated_trials,
                    stats.fallback_trials
                ),
                (empty, zero_syndrome, isolated, decoded),
                "{case}"
            );
            assert_eq!(
                dec.decodes,
                stats.fallback_trials + dec.split_fallbacks,
                "decoder ran exactly on the slow-path trials, twice where a guard rejected a \
                 split: {case}"
            );
            match d {
                7 => {
                    assert!(empty > decoded, "p=0.002 is dominated by empty trials: {case}");
                    assert!(
                        isolated > decoded && decoded > 0,
                        "most error trials are isolated: {case}"
                    );
                }
                23 => {
                    assert!(heavy_isolated > 0, "no isolated trial has more than 8 errors: {case}")
                }
                _ => assert!(zero_syndrome > 0, "no trial has a zero syndrome: {case}"),
            }
            // A second batch accumulates from zero after take_stats.
            let _ = run_trials_sliced(&context, 0.5, 10, seed, 0, &mut scratch);
            let second = scratch.stats();
            let classified = second.empty_trials
                + second.zero_syndrome_trials
                + second.isolated_trials
                + second.fallback_trials;
            assert_eq!(classified, 10, "d={d}: {second:?}");
        }
    }

    /// The decoder's correction of X errors at `positions`, as a sorted
    /// set.
    fn correction(
        packed: &PackedLattice,
        graph: &DecodingGraph,
        decoder: &mut DecoderScratch,
        positions: &[usize],
    ) -> Vec<usize> {
        let mut syndrome = vec![0u64; packed.syndrome_words()];
        for &q in positions {
            packed.flip_z_checks_of(q, &mut syndrome);
        }
        let mut fix = decode_into(graph, &syndrome, decoder).to_vec();
        fix.sort_unstable();
        fix
    }

    /// The symmetric difference of sorted sets, sorted.
    fn symmetric_difference<'a>(sets: impl IntoIterator<Item = &'a Vec<usize>>) -> Vec<usize> {
        let mut odd = std::collections::BTreeSet::new();
        for &q in sets.into_iter().flatten() {
            if !odd.insert(q) {
                odd.remove(&q);
            }
        }
        odd.into_iter().collect()
    }

    fn chebyshev(d: usize, a: usize, b: usize) -> usize {
        (a / d).abs_diff(b / d).max((a % d).abs_diff(b % d))
    }

    #[test]
    fn isolated_pairs_decode_as_the_symmetric_difference_of_lone_corrections() {
        // Exhaustive over every pair at Chebyshev distance ≥ 4: the
        // premise of the isolated-error shortcut.
        for d in [5usize, 9, 13, 23] {
            let l = Lattice::new(d);
            let graph = DecodingGraph::new(&l);
            let packed = PackedLattice::new(&l);
            let mut decoder = DecoderScratch::new(&graph);
            let n = l.data_qubits();
            let lone: Vec<Vec<usize>> =
                (0..n).map(|q| correction(&packed, &graph, &mut decoder, &[q])).collect();
            let mut pairs = 0usize;
            for a in 0..n {
                for b in a + 1..n {
                    if chebyshev(d, a, b) < ISOLATION_DISTANCE {
                        continue;
                    }
                    pairs += 1;
                    assert_eq!(
                        correction(&packed, &graph, &mut decoder, &[a, b]),
                        symmetric_difference([&lone[a], &lone[b]]),
                        "d={d}: errors {a} and {b}"
                    );
                }
            }
            assert!(pairs > n, "d={d}: only {pairs} isolated pairs");
        }
    }

    #[test]
    fn isolated_error_sets_take_the_lone_verdicts() {
        // Seeded isolated sets of 3–8 errors: the correction is the
        // symmetric difference of the lone corrections, and the shortcut
        // verdict equals the full decode's.
        for d in [13usize, 17, 23] {
            let l = Lattice::new(d);
            let context = McContext::new(&l);
            let (packed, graph) = (&context.packed, &context.graph);
            let mut decoder = DecoderScratch::new(graph);
            let n = l.data_qubits();
            let lone: Vec<Vec<usize>> =
                (0..n).map(|q| correction(packed, graph, &mut decoder, &[q])).collect();
            let mut rng = Xorshift64Star::seed_from_u64(0x150_1A7E ^ d as u64);
            let mut sets = 0usize;
            while sets < 2000 {
                let k = 3 + rng.gen_below(6) as usize;
                let mut set: Vec<usize> = Vec::with_capacity(k);
                for _ in 0..64 {
                    let q = rng.gen_below(n as u64) as usize;
                    if set.iter().all(|&s| chebyshev(d, s, q) >= ISOLATION_DISTANCE) {
                        set.push(q);
                        if set.len() == k {
                            break;
                        }
                    }
                }
                if set.len() < k {
                    continue;
                }
                set.sort_unstable();
                sets += 1;
                assert_eq!(
                    correction(packed, graph, &mut decoder, &set),
                    symmetric_difference(set.iter().map(|&q| &lone[q])),
                    "d={d}: errors {set:?}"
                );
                let positions: Vec<u16> = set.iter().map(|&q| q as u16).collect();
                assert_eq!(
                    settle(&context, &positions),
                    Settled::Isolated,
                    "d={d}: errors {set:?}"
                );
                assert!(!decoded_verdict(packed, graph, &positions), "d={d}: errors {set:?}");
            }
        }
    }

    /// The error positions of `trials` seeded trials at rate `q` on a
    /// `d × d` grid.
    fn sampled_trials(d: usize, q: f64, trials: usize, seed: u64) -> Vec<Vec<u16>> {
        let sampler = ErrorSampler::new(q);
        let mut rng = Xorshift64Star::seed_from_u64(seed ^ (d as u64) << 32 ^ q.to_bits());
        (0..trials)
            .map(|_| {
                let mut positions = Vec::new();
                sampler.sample(d * d, &mut rng, |q| positions.push(q as u16));
                positions
            })
            .collect()
    }

    /// The verdict of the trial with errors at `positions` through the
    /// full decode: correction applied, logical row read.
    fn full_peel_verdict(
        packed: &PackedLattice,
        graph: &DecodingGraph,
        decoder: &mut DecoderScratch,
        positions: &[u16],
    ) -> bool {
        let positions: Vec<usize> = positions.iter().map(|&q| usize::from(q)).collect();
        let mut errs = vec![0u64; packed.qubit_words()];
        for &q in positions.iter().chain(&correction(packed, graph, decoder, &positions)) {
            PackedLattice::flip_bit(&mut errs, q);
        }
        packed.is_logical_x(&errs)
    }

    #[test]
    fn free_row_verdicts_equal_the_full_peel() {
        // A seeded differential run over distances and rates from the
        // isolated-error regime to far above threshold: the shared
        // verdict path must equal the full peel on every trial, and from
        // d = 5 on both of its branches must be taken.
        for d in [3usize, 5, 7, 9, 13, 23, 25] {
            let l = Lattice::new(d);
            let context = McContext::new(&l);
            let (packed, graph) = (&context.packed, &context.graph);
            let mut scratch = McScratch::new(packed, graph);
            let mut decoder = DecoderScratch::new(graph);
            for q in [0.001, 0.005, 0.02, 0.05, 0.08, 0.15, 0.4] {
                for positions in sampled_trials(d, q, 200, 0xF2EE_2047) {
                    assert_eq!(
                        scratch.decoded_verdict(packed, graph, &positions),
                        full_peel_verdict(packed, graph, &mut decoder, &positions),
                        "d={d} q={q}: errors {positions:?}"
                    );
                }
            }
            let stats = scratch.decoder.take_stats();
            if d >= 5 {
                assert!(
                    stats.peels_skipped > 0 && stats.peels_skipped < stats.decodes,
                    "d={d}: both branches must be taken: {stats:?}"
                );
            }
        }
    }

    #[test]
    fn decodes_equal_skipped_plus_peeled_trials() {
        // Classify every trial independently: nonzero syndrome by the
        // bool-vec extraction, and a free row by growing the clusters on
        // a second arena and listing the rows their full edges reach. At
        // d = 23 every decode skips the peel up to q ≈ 0.04, so the rate
        // there is 0.06, where both paths occur.
        for (d, q) in [(5usize, 0.05), (9, 0.08), (23, 0.06)] {
            let l = Lattice::new(d);
            let context = McContext::new(&l);
            let (packed, graph) = (&context.packed, &context.graph);
            let mut scratch = McScratch::new(packed, graph);
            let mut decoder = DecoderScratch::new(graph);
            let (mut skipped, mut peeled) = (0u64, 0u64);
            for positions in sampled_trials(d, q, 400, 0x5_0175) {
                let _ = scratch.decoded_verdict(packed, graph, &positions);
                let mut errs = vec![false; l.data_qubits()];
                positions.iter().for_each(|&q| errs[usize::from(q)] = true);
                let syndrome = l.z_syndrome(&errs);
                if syndrome.iter().all(|&b| !b) {
                    continue;
                }
                assert!(grow(graph, &PackedLattice::pack(&syndrome), &mut decoder));
                let mut reached = vec![false; d];
                decoder.fully_grown_qubits(graph).for_each(|q| reached[q / d] = true);
                if reached.contains(&false) {
                    skipped += 1;
                } else {
                    peeled += 1;
                }
            }
            let stats = scratch.decoder.take_stats();
            assert_eq!(stats.peels_skipped, skipped, "d={d} q={q}: {stats:?}");
            assert_eq!(stats.decodes, skipped + peeled, "d={d} q={q}: {stats:?}");
            assert!(skipped > 0 && peeled > 0, "d={d} q={q}: {stats:?}");
        }
    }

    /// `context`'s settled verdict of the trial with errors at
    /// `positions`, on fresh scratch.
    fn settle(context: &McContext, positions: &[u16]) -> Settled {
        McScratch::new(&context.packed, &context.graph).settle(context, positions)
    }

    #[test]
    fn isolation_test_rejects_close_trials_at_any_weight() {
        let context = McContext::new(&Lattice::new(23));
        let decoded = |positions: &[u16]| {
            Settled::Decoded(decoded_verdict(&context.packed, &context.graph, positions))
        };
        assert_eq!(settle(&context, &[0, 4]), Settled::Isolated, "four columns apart");
        assert_eq!(settle(&context, &[0, 3]), decoded(&[0, 3]), "three columns apart");
        assert_eq!(settle(&context, &[3, 23 * 3]), decoded(&[3, 23 * 3]), "diagonal, distance 3");
        assert_eq!(settle(&context, &[3, 23 * 4]), Settled::Isolated, "four rows apart");
        // Nine spread errors: no cap on the weight of an isolated trial.
        let spread: Vec<u16> = (0..9).map(|i| (i % 3 * 8 + i / 3 * 8 * 23) as u16).collect();
        assert_eq!(settle(&context, &spread[..8]), Settled::Isolated);
        assert_eq!(settle(&context, &spread), Settled::Isolated);
        // One close pair among the nine: only it decodes.
        let mut close = spread.clone();
        close.push(spread[4] + 1);
        close.sort_unstable();
        assert_eq!(settle(&context, &close), decoded(&close));
    }

    #[test]
    fn lone_verdicts_match_a_direct_decode_of_every_qubit() {
        // A lone error on every qubit against the bool-vec reference
        // decoder. d = 2 detects no lone error reliably: there no error
        // is a single, so a lone error decodes and takes the reference
        // verdict, which fails on some qubits. From d = 3 on the decoder
        // corrects every error of weight ≤ (d − 1)/2: a lone error settles
        // isolated, and the reference verdict is no failure.
        for d in [2usize, 3, 5, 7, 23] {
            let l = Lattice::new(d);
            let context = McContext::new(&l);
            let mut failing = 0usize;
            for q in 0..l.data_qubits() {
                let mut errs = vec![false; l.data_qubits()];
                errs[q] = true;
                for c in decode_reference(&context.graph, &l.z_syndrome(&errs)) {
                    errs[c] ^= true;
                }
                let fails = l.is_logical_x(&errs);
                let want = if d < 3 { Settled::Decoded(fails) } else { Settled::Isolated };
                assert_eq!(settle(&context, &[q as u16]), want, "d={d} q={q}");
                failing += fails as usize;
            }
            assert_eq!(failing > 0, d == 2, "d={d}: {failing} failing lone errors");
        }
    }

    #[test]
    fn error_rate_is_monotone_in_p() {
        let l = Lattice::new(5);
        let lo = logical_error_rate_sliced_par(&l, 0.01, 3000, 4).logical_error;
        let hi = logical_error_rate_sliced_par(&l, 0.08, 3000, 4).logical_error;
        assert!(hi >= lo, "p=0.08 ({hi}) vs p=0.01 ({lo})");
    }

    #[test]
    fn split_verdicts_equal_a_full_decode_across_distances_and_rates() {
        // Seeded trials from sparse singles to dense clusters: every
        // settled verdict — isolated, split or whole — must equal the
        // full decode of the trial on a fresh arena, and across the
        // table the guard must both pass and reject.
        let mut total = DecodeStats::default();
        for d in [5usize, 7, 13, 23] {
            let l = Lattice::new(d);
            let context = McContext::new(&l);
            let (packed, graph) = (&context.packed, &context.graph);
            let mut scratch = McScratch::new(packed, graph);
            for q in [0.002, 0.007, 0.023, 0.08] {
                for positions in sampled_trials(d, q, 500, 0x5917_5E70) {
                    let settled = scratch.settle(&context, &positions);
                    let mut fresh = DecoderScratch::new(graph);
                    assert_eq!(
                        settled.fails(),
                        full_peel_verdict(packed, graph, &mut fresh, &positions),
                        "d={d} q={q}: errors {positions:?}"
                    );
                }
            }
            total.merge(scratch.decoder.take_stats());
        }
        assert!(total.singles_settled > 0, "no trial split: {total:?}");
        assert!(total.split_fallbacks > 0, "no guard rejected a split: {total:?}");
    }

    #[test]
    fn a_single_inside_the_remainders_reach_decodes_whole() {
        // Row 11 of d = 23. A four-error chain at columns 5–8 grows for
        // four rounds and reaches the guard of a single four columns on
        // (column 12): the trial must decode whole. A three-error chain
        // four columns from its single stops short of the guard, and
        // the trial splits.
        let l = Lattice::new(23);
        let context = McContext::new(&l);
        let (packed, graph) = (&context.packed, &context.graph);
        let row = 11 * 23;
        for (chain, single, fallbacks) in [(5..9, 12, 1), (5..8, 11, 0)] {
            let mut positions: Vec<u16> = chain.map(|c| (row + c) as u16).collect();
            positions.push((row + single) as u16);
            let mut scratch = McScratch::new(packed, graph);
            let settled = scratch.settle(&context, &positions);
            let mut fresh = DecoderScratch::new(graph);
            let want = full_peel_verdict(packed, graph, &mut fresh, &positions);
            assert_eq!(settled, Settled::Decoded(want), "errors {positions:?}");
            let stats = scratch.decoder.take_stats();
            assert_eq!(stats.split_fallbacks, fallbacks, "errors {positions:?}: {stats:?}");
            assert_eq!(stats.singles_settled, 1 - fallbacks, "errors {positions:?}: {stats:?}");
            assert_eq!(stats.decodes, 1 + fallbacks, "errors {positions:?}: {stats:?}");
        }
    }

    #[test]
    fn lone_growths_at_isolation_distance_never_reach_each_others_guards() {
        // Why singles need no guard against each other: the growth of a
        // lone error reaches the guard of no qubit at Chebyshev distance
        // ≥ ISOLATION_DISTANCE, so any number of singles grow apart.
        for d in [5usize, 9, 23] {
            let context = McContext::new(&Lattice::new(d));
            let (packed, graph) = (&context.packed, &context.graph);
            let mut scratch = McScratch::new(packed, graph);
            for a in 0..d * d {
                let _ = scratch.decoded_verdict(packed, graph, &[a as u16]);
                for b in (0..d * d).filter(|&b| chebyshev(d, a, b) >= ISOLATION_DISTANCE) {
                    assert!(
                        !context.guards.reached(b as u16, &scratch.decoder),
                        "d={d}: lone error {a} reaches the guard of {b}"
                    );
                }
            }
        }
    }
}
