//! Rotated surface-code lattice geometry (Fig. 1a).
//!
//! Distance-`d` rotated code: `d²` data qubits on a square grid, `d²−1`
//! stabilizers (weight-4 checkerboard in the interior, weight-2 on the
//! boundaries: X-type on top/bottom, Z-type on left/right). The logical
//! `X̄` runs along the top row (crossing the Z-boundaries), the logical
//! `Z̄` down the left column.

/// A stabilizer generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    /// `true` for X-type (detects Z errors), `false` for Z-type.
    pub is_x: bool,
    /// Data-qubit support (2 or 4 qubits).
    pub support: Vec<usize>,
    /// Plaquette coordinates (row, col) in the cell grid, for decoder
    /// distance computations; boundary half-plaquettes sit at `−1`/`d−1`.
    pub pos: (i32, i32),
}

/// The rotated lattice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lattice {
    /// Code distance.
    pub d: usize,
    /// X-type checks.
    pub x_checks: Vec<Check>,
    /// Z-type checks.
    pub z_checks: Vec<Check>,
}

impl Lattice {
    /// Builds the distance-`d` rotated lattice.
    ///
    /// # Panics
    ///
    /// Panics if `d < 2`.
    pub fn new(d: usize) -> Self {
        assert!(d >= 2, "code distance must be at least 2");
        let di = d as i32;
        let data = |r: i32, c: i32| -> Option<usize> {
            if (0..di).contains(&r) && (0..di).contains(&c) {
                Some((r * di + c) as usize)
            } else {
                None
            }
        };
        let mut x_checks = Vec::new();
        let mut z_checks = Vec::new();
        for r in -1..di {
            for c in -1..di {
                let is_x = (r + c).rem_euclid(2) == 0;
                let corners = [data(r, c), data(r, c + 1), data(r + 1, c), data(r + 1, c + 1)];
                let support: Vec<usize> = corners.iter().flatten().copied().collect();
                let keep = match support.len() {
                    4 => true,
                    2 => {
                        let tb = r == -1 || r == di - 1;
                        let lr = c == -1 || c == di - 1;
                        (tb && is_x && !lr) || (lr && !is_x && !tb)
                    }
                    _ => false,
                };
                if !keep {
                    continue;
                }
                let check = Check { is_x, support, pos: (r, c) };
                if is_x {
                    x_checks.push(check);
                } else {
                    z_checks.push(check);
                }
            }
        }
        Lattice { d, x_checks, z_checks }
    }

    /// Number of data qubits (`d²`).
    pub fn data_qubits(&self) -> usize {
        self.d * self.d
    }

    /// Logical `Z̄` support: the top row. Z-strings terminate
    /// undetectably on the left/right (Z-check) boundaries, so the
    /// logical Z runs horizontally.
    pub fn logical_z(&self) -> Vec<usize> {
        (0..self.d).collect()
    }

    /// Logical `X̄` support: the left column (X-strings terminate on the
    /// top/bottom X-check boundaries).
    pub fn logical_x(&self) -> Vec<usize> {
        (0..self.d).map(|r| r * self.d).collect()
    }

    /// Syndrome of an X-error pattern: which Z-checks flip.
    pub fn z_syndrome(&self, x_errors: &[bool]) -> Vec<bool> {
        assert_eq!(x_errors.len(), self.data_qubits(), "one flag per data qubit");
        self.z_checks
            .iter()
            .map(|chk| chk.support.iter().filter(|&&q| x_errors[q]).count() % 2 == 1)
            .collect()
    }

    /// Whether an X-error pattern (after correction) implements logical
    /// `X̄`: odd overlap (anticommutation) with the logical-Z̄ row.
    pub fn is_logical_x(&self, x_errors: &[bool]) -> bool {
        self.logical_z().iter().filter(|&&q| x_errors[q]).count() % 2 == 1
    }

    /// The paper's per-logical-qubit physical-qubit count `2(d+1)²`
    /// (§2.1.3 — includes the interface ancilla rows lattice surgery
    /// needs, which is what the scalability analysis provisions).
    pub fn provisioned_qubits(&self) -> usize {
        2 * (self.d + 1) * (self.d + 1)
    }
}

/// Bit-packed view of a [`Lattice`] for the Monte-Carlo hot loop: one
/// trial's data qubits live in `u64` bitset words. Each data qubit lists
/// the Z checks it touches, so a sampler builds a trial's syndrome at
/// ≤ 2 bit flips per error; each Z check also carries a support mask for
/// the word-wise full extraction, the residual-syndrome check and the
/// test oracle.
///
/// The packing covers the Z-check family (which detects the X errors the
/// Monte-Carlo estimators sample) plus the logical-`Z̄` membrane used for
/// the failure check; it is built once per lattice and shared read-only
/// across trials and threads.
///
/// # Examples
///
/// ```
/// use qisim_surface::{Lattice, PackedLattice};
///
/// let lattice = Lattice::new(5);
/// let packed = PackedLattice::new(&lattice);
/// let mut errs = vec![0u64; packed.qubit_words()];
/// let mut syn = vec![0u64; packed.syndrome_words()];
/// PackedLattice::set_bit(&mut errs, 12); // interior X error
/// assert!(packed.z_syndrome_into(&errs, &mut syn));
/// assert_eq!(syn.iter().map(|w| w.count_ones()).sum::<u32>(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedLattice {
    /// Code distance `d`: data qubit `q` sits at row `q / d`, column
    /// `q % d` of the data grid.
    d: usize,
    /// Data-qubit count (`d²`).
    n_qubits: usize,
    /// `u64` words per qubit bitset.
    qubit_words: usize,
    /// Number of Z-checks (syndrome bits).
    n_z_checks: usize,
    /// `u64` words per syndrome bitset.
    syndrome_words: usize,
    /// Flattened per-check support masks: check `i` owns
    /// `z_support[i·qubit_words .. (i+1)·qubit_words]`.
    z_support: Vec<u64>,
    /// The inverse table: data qubit `q`'s Z checks (1 or 2 of them from
    /// `d = 2` on) are `qubit_z_checks[
    /// qubit_z_checks_off[q] .. qubit_z_checks_off[q+1]]`, ascending.
    qubit_z_checks: Vec<usize>,
    /// Per-qubit offsets into `qubit_z_checks` (`n_qubits + 1` entries).
    qubit_z_checks_off: Vec<usize>,
    /// Logical-`Z̄` support mask (the top row).
    logical_z_mask: Vec<u64>,
    /// `grid[q] = [q / d, q % d]`: the row and column of each data
    /// qubit, so the Monte-Carlo hot paths read them instead of dividing.
    grid: Vec<[u16; 2]>,
}

impl PackedLattice {
    /// Packs the Z-check family and logical-`Z̄` membrane of `lattice`.
    pub fn new(lattice: &Lattice) -> Self {
        let n_qubits = lattice.data_qubits();
        let qubit_words = n_qubits.div_ceil(64);
        let n_z_checks = lattice.z_checks.len();
        let syndrome_words = n_z_checks.div_ceil(64).max(1);
        let mut z_support = vec![0u64; n_z_checks * qubit_words];
        // The inverse table by counting sort; checks are visited in
        // ascending order, so each qubit's list comes out ascending.
        let mut qubit_z_checks_off = vec![0usize; n_qubits + 1];
        for (i, chk) in lattice.z_checks.iter().enumerate() {
            let mask = &mut z_support[i * qubit_words..(i + 1) * qubit_words];
            for &q in &chk.support {
                Self::set_bit(mask, q);
                qubit_z_checks_off[q + 1] += 1;
            }
        }
        for q in 0..n_qubits {
            qubit_z_checks_off[q + 1] += qubit_z_checks_off[q];
        }
        let mut cursor = qubit_z_checks_off.clone();
        let mut qubit_z_checks = vec![0usize; qubit_z_checks_off[n_qubits]];
        for (i, chk) in lattice.z_checks.iter().enumerate() {
            for &q in &chk.support {
                qubit_z_checks[cursor[q]] = i;
                cursor[q] += 1;
            }
        }
        let mut logical_z_mask = vec![0u64; qubit_words];
        for q in lattice.logical_z() {
            Self::set_bit(&mut logical_z_mask, q);
        }
        PackedLattice {
            d: lattice.d,
            n_qubits,
            qubit_words,
            n_z_checks,
            syndrome_words,
            z_support,
            qubit_z_checks,
            qubit_z_checks_off,
            logical_z_mask,
            grid: (0..n_qubits).map(|q| [(q / lattice.d) as u16, (q % lattice.d) as u16]).collect(),
        }
    }

    /// Code distance `d`.
    pub(crate) fn distance(&self) -> usize {
        self.d
    }

    /// The row and column of data qubit `q` on the `d × d` grid.
    #[inline]
    pub(crate) fn row_col(&self, q: usize) -> (usize, usize) {
        let [row, col] = self.grid[q];
        (usize::from(row), usize::from(col))
    }

    /// Data-qubit count (`d²`).
    pub fn data_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Words in a data-qubit bitset (`⌈d²/64⌉`).
    pub fn qubit_words(&self) -> usize {
        self.qubit_words
    }

    /// Words in a Z-syndrome bitset.
    pub fn syndrome_words(&self) -> usize {
        self.syndrome_words
    }

    /// Number of Z-checks (valid bits in a syndrome bitset).
    pub fn z_check_count(&self) -> usize {
        self.n_z_checks
    }

    /// Sets bit `i` in a bitset.
    #[inline]
    pub fn set_bit(words: &mut [u64], i: usize) {
        words[i >> 6] |= 1u64 << (i & 63);
    }

    /// Flips bit `i` in a bitset.
    #[inline]
    pub fn flip_bit(words: &mut [u64], i: usize) {
        words[i >> 6] ^= 1u64 << (i & 63);
    }

    /// Reads bit `i` of a bitset.
    #[inline]
    pub fn get_bit(words: &[u64], i: usize) -> bool {
        words[i >> 6] >> (i & 63) & 1 != 0
    }

    /// Packs a per-qubit flag slice into bitset words (test/oracle glue).
    pub fn pack(flags: &[bool]) -> Vec<u64> {
        let mut words = vec![0u64; flags.len().div_ceil(64).max(1)];
        for (i, &f) in flags.iter().enumerate() {
            if f {
                Self::set_bit(&mut words, i);
            }
        }
        words
    }

    /// Word-wise Z-syndrome of a packed X-error pattern: check `i`'s bit
    /// is the parity of `errs ∧ support(i)`. Returns `true` iff any
    /// syndrome bit is set (the caller's zero-syndrome fast-path test).
    /// A pass over every check: the samplers build their syndromes one
    /// error at a time instead (`flip_z_checks_of`), and this full
    /// extraction is the residual-syndrome check and the test oracle.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the slices are mis-sized.
    #[inline]
    pub fn z_syndrome_into(&self, errs: &[u64], syndrome: &mut [u64]) -> bool {
        debug_assert_eq!(errs.len(), self.qubit_words);
        debug_assert_eq!(syndrome.len(), self.syndrome_words);
        syndrome.fill(0);
        let mut any = 0u64;
        for (i, mask) in self.z_support.chunks_exact(self.qubit_words).enumerate() {
            // parity(popcount(a₀)+popcount(a₁)+…) = popcount(a₀⊕a₁⊕…)&1:
            // XOR of distinct words preserves total bit-count parity.
            let mut acc = 0u64;
            for (w, m) in errs.iter().zip(mask) {
                acc ^= w & m;
            }
            let bit = (acc.count_ones() & 1) as u64;
            syndrome[i >> 6] |= bit << (i & 63);
            any |= bit;
        }
        any != 0
    }

    /// Flips the Z checks data qubit `q` touches in a packed syndrome.
    /// Placing X errors one qubit at a time through this builds the same
    /// syndrome [`Self::z_syndrome_into`] computes from the finished
    /// pattern, at ≤ 2 bit flips per error instead of a pass over every
    /// check.
    #[inline]
    pub(crate) fn flip_z_checks_of(&self, q: usize, syndrome: &mut [u64]) {
        debug_assert_eq!(syndrome.len(), self.syndrome_words);
        let checks =
            &self.qubit_z_checks[self.qubit_z_checks_off[q]..self.qubit_z_checks_off[q + 1]];
        for &c in checks {
            Self::flip_bit(syndrome, c);
        }
    }

    /// Parity of a packed X-error pattern on row `row` of the data grid.
    /// Every row is a logical-`Z̄` representative, so on a zero-syndrome
    /// pattern this equals [`Self::is_logical_x`].
    #[inline]
    pub(crate) fn row_parity(&self, errs: &[u64], row: usize) -> bool {
        (row * self.d..(row + 1) * self.d).fold(false, |acc, q| acc ^ Self::get_bit(errs, q))
    }

    /// Whether a packed X-error pattern anticommutes with the logical
    /// `Z̄` membrane (odd overlap with the top row): the failure verdict.
    #[inline]
    pub fn is_logical_x(&self, errs: &[u64]) -> bool {
        debug_assert_eq!(errs.len(), self.qubit_words);
        let mut acc = 0u64;
        for (w, m) in errs.iter().zip(&self.logical_z_mask) {
            acc ^= w & m;
        }
        acc.count_ones() & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_counts() {
        for d in [3usize, 5, 7, 9] {
            let l = Lattice::new(d);
            assert_eq!(l.x_checks.len() + l.z_checks.len(), d * d - 1, "d={d}");
            assert_eq!(l.x_checks.len(), l.z_checks.len());
        }
    }

    #[test]
    fn stabilizers_commute_with_logicals() {
        let l = Lattice::new(5);
        let lz = l.logical_z();
        for chk in &l.x_checks {
            let overlap = chk.support.iter().filter(|q| lz.contains(q)).count();
            assert_eq!(overlap % 2, 0, "X-check at {:?} anticommutes with Z̄", chk.pos);
        }
        let lx = l.logical_x();
        for chk in &l.z_checks {
            let overlap = chk.support.iter().filter(|q| lx.contains(q)).count();
            assert_eq!(overlap % 2, 0, "Z-check at {:?} anticommutes with X̄", chk.pos);
        }
    }

    #[test]
    fn single_error_flips_its_checks() {
        let l = Lattice::new(5);
        let mut errs = vec![false; l.data_qubits()];
        errs[12] = true; // interior qubit
        let syn = l.z_syndrome(&errs);
        let flips = syn.iter().filter(|b| **b).count();
        assert_eq!(flips, 2, "interior X error touches two Z-checks");
    }

    #[test]
    fn logical_chain_is_syndrome_free() {
        let l = Lattice::new(5);
        let mut errs = vec![false; l.data_qubits()];
        for q in l.logical_x() {
            errs[q] = true;
        }
        let syn = l.z_syndrome(&errs);
        assert!(syn.iter().all(|b| !b), "logical X chain must be undetectable");
        assert!(l.is_logical_x(&errs));
    }

    #[test]
    fn provisioned_count_matches_paper() {
        assert_eq!(Lattice::new(23).provisioned_qubits(), 1152);
    }

    #[test]
    fn packed_syndrome_matches_bool_path_on_dense_patterns() {
        // Deterministic pseudo-random patterns across several distances
        // (d = 9 and 11 cross the one-word boundary of the qubit bitset).
        for d in [3usize, 5, 7, 9, 11] {
            let l = Lattice::new(d);
            let packed = PackedLattice::new(&l);
            assert_eq!(packed.data_qubits(), l.data_qubits());
            assert_eq!(packed.z_check_count(), l.z_checks.len());
            let mut state = 0x0123_4567_89AB_CDEFu64 ^ d as u64;
            let mut syn_words = vec![0u64; packed.syndrome_words()];
            for _ in 0..50 {
                let mut errs = vec![false; l.data_qubits()];
                for e in errs.iter_mut() {
                    state =
                        state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    *e = state >> 62 == 0; // p = 1/4
                }
                let words = PackedLattice::pack(&errs);
                let any = packed.z_syndrome_into(&words, &mut syn_words);
                let reference = l.z_syndrome(&errs);
                assert_eq!(any, reference.iter().any(|&b| b), "d={d}");
                for (i, &bit) in reference.iter().enumerate() {
                    assert_eq!(PackedLattice::get_bit(&syn_words, i), bit, "d={d} check {i}");
                }
                assert_eq!(packed.is_logical_x(&words), l.is_logical_x(&errs), "d={d}");
            }
        }
    }

    #[test]
    fn packed_bit_ops_roundtrip() {
        let mut w = vec![0u64; 2];
        PackedLattice::set_bit(&mut w, 70);
        assert!(PackedLattice::get_bit(&w, 70));
        PackedLattice::flip_bit(&mut w, 70);
        assert!(!PackedLattice::get_bit(&w, 70));
        assert_eq!(PackedLattice::pack(&[false, true, false]), vec![0b10]);
    }

    #[test]
    fn boundary_checks_have_weight_two() {
        let l = Lattice::new(7);
        let w2: usize =
            l.x_checks.iter().chain(&l.z_checks).filter(|c| c.support.len() == 2).count();
        assert_eq!(w2, 2 * (7 - 1));
    }

    #[test]
    fn every_row_is_a_logical_z_representative() {
        // The premise of the Monte-Carlo free-row verdicts: a Z string
        // along any row commutes with every X check and anticommutes
        // with logical X̄, so it reads the same logical parity as the top
        // row on any zero-syndrome pattern.
        for d in [2usize, 3, 5, 23] {
            let l = Lattice::new(d);
            let lx = l.logical_x();
            for row in 0..d {
                let on_row = |q: &&usize| *q / d == row;
                for chk in &l.x_checks {
                    let overlap = chk.support.iter().filter(on_row).count();
                    assert_eq!(overlap % 2, 0, "d={d} row={row}: X check at {:?}", chk.pos);
                }
                assert_eq!(lx.iter().filter(on_row).count() % 2, 1, "d={d} row={row}");
            }
        }
    }
}
