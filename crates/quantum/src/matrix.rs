//! Dense complex matrices and standard quantum gate constructors.
//!
//! [`CMatrix`] is a row-major, dynamically-sized dense matrix over [`C64`].
//! Everything QIsim integrates — transmon drives, coupled-qubit flux pulses,
//! resonator–JPM master equations — lives in Hilbert spaces of dimension
//! ≤ ~64, so a straightforward dense representation is both simple and fast.

use crate::complex::C64;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense, row-major complex matrix.
///
/// # Examples
///
/// ```
/// use qisim_quantum::{C64, CMatrix};
///
/// let x = CMatrix::pauli_x();
/// let y = CMatrix::pauli_y();
/// let z = CMatrix::pauli_z();
/// // XY = iZ
/// let xy = &x * &y;
/// let iz = z.scaled(C64::I);
/// assert!(xy.approx_eq(&iz, 1e-12));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<C64>,
}

impl CMatrix {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMatrix { rows, cols, data: vec![C64::ZERO; rows * cols] }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = CMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = C64::ONE;
        }
        m
    }

    /// Builds a square matrix from a flat row-major slice.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a perfect square.
    pub fn from_flat(data: &[C64]) -> Self {
        let n = (data.len() as f64).sqrt().round() as usize;
        assert_eq!(n * n, data.len(), "flat slice is not square");
        CMatrix { rows: n, cols: n, data: data.to_vec() }
    }

    /// Builds a diagonal matrix from the given diagonal entries.
    pub fn diag(entries: &[C64]) -> Self {
        let mut m = CMatrix::zeros(entries.len(), entries.len());
        for (i, &e) in entries.iter().enumerate() {
            m[(i, i)] = e;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Dimension of a square matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn dim(&self) -> usize {
        assert_eq!(self.rows, self.cols, "dim() requires a square matrix");
        self.rows
    }

    /// Conjugate transpose (dagger).
    pub fn adjoint(&self) -> CMatrix {
        let mut out = CMatrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)].conj();
            }
        }
        out
    }

    /// Transpose without conjugation.
    pub fn transpose(&self) -> CMatrix {
        let mut out = CMatrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// Trace of a square matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> C64 {
        let n = self.dim();
        (0..n).map(|i| self[(i, i)]).sum()
    }

    /// Elementwise scaling by a complex factor.
    pub fn scaled(&self, k: C64) -> CMatrix {
        let data = self.data.iter().map(|&z| z * k).collect();
        CMatrix { rows: self.rows, cols: self.cols, data }
    }

    /// Kronecker (tensor) product `self ⊗ other`.
    pub fn kron(&self, other: &CMatrix) -> CMatrix {
        let mut out = CMatrix::zeros(self.rows * other.rows, self.cols * other.cols);
        for r1 in 0..self.rows {
            for c1 in 0..self.cols {
                let a = self[(r1, c1)];
                if a == C64::ZERO {
                    continue;
                }
                for r2 in 0..other.rows {
                    for c2 in 0..other.cols {
                        out[(r1 * other.rows + r2, c1 * other.cols + c2)] = a * other[(r2, c2)];
                    }
                }
            }
        }
        out
    }

    /// Matrix–vector product `self * v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &[C64]) -> Vec<C64> {
        assert_eq!(v.len(), self.cols, "dimension mismatch in mul_vec");
        let mut out = vec![C64::ZERO; self.rows];
        for (r, slot) in out.iter_mut().enumerate() {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            let mut acc = C64::ZERO;
            for (a, b) in row.iter().zip(v.iter()) {
                acc = a.mul_add(*b, acc);
            }
            *slot = acc;
        }
        out
    }

    /// Maximum elementwise absolute difference to `other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &CMatrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "shape mismatch");
        self.data.iter().zip(other.data.iter()).map(|(a, b)| (*a - *b).abs()).fold(0.0, f64::max)
    }

    /// True when every element is within `tol` of `other`.
    pub fn approx_eq(&self, other: &CMatrix, tol: f64) -> bool {
        (self.rows, self.cols) == (other.rows, other.cols) && self.max_abs_diff(other) <= tol
    }

    /// True when `self * self.adjoint()` is within `tol` of the identity.
    pub fn is_unitary(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        (self * &self.adjoint()).approx_eq(&CMatrix::identity(self.rows), tol)
    }

    /// True when the matrix equals its own adjoint within `tol`.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        self.rows == self.cols && self.approx_eq(&self.adjoint(), tol)
    }

    /// Commutator `[self, other] = self*other - other*self`.
    pub fn commutator(&self, other: &CMatrix) -> CMatrix {
        &(self * other) - &(other * self)
    }

    // ---- standard gates ---------------------------------------------------

    /// Pauli X.
    pub fn pauli_x() -> CMatrix {
        CMatrix::from_flat(&[C64::ZERO, C64::ONE, C64::ONE, C64::ZERO])
    }

    /// Pauli Y.
    pub fn pauli_y() -> CMatrix {
        CMatrix::from_flat(&[C64::ZERO, -C64::I, C64::I, C64::ZERO])
    }

    /// Pauli Z.
    pub fn pauli_z() -> CMatrix {
        CMatrix::from_flat(&[C64::ONE, C64::ZERO, C64::ZERO, -C64::ONE])
    }

    /// Hadamard gate.
    pub fn hadamard() -> CMatrix {
        let s = C64::from(std::f64::consts::FRAC_1_SQRT_2);
        CMatrix::from_flat(&[s, s, s, -s])
    }

    /// Rotation about the x axis by `theta`.
    pub fn rx(theta: f64) -> CMatrix {
        let c = C64::from((theta / 2.0).cos());
        let s = -C64::I * (theta / 2.0).sin();
        CMatrix::from_flat(&[c, s, s, c])
    }

    /// Rotation about the y axis by `theta`.
    pub fn ry(theta: f64) -> CMatrix {
        let c = (theta / 2.0).cos();
        let s = (theta / 2.0).sin();
        CMatrix::from_flat(&[C64::from(c), C64::from(-s), C64::from(s), C64::from(c)])
    }

    /// Rotation about the z axis by `theta`.
    pub fn rz(theta: f64) -> CMatrix {
        CMatrix::diag(&[C64::cis(-theta / 2.0), C64::cis(theta / 2.0)])
    }

    /// Controlled-Z on two qubits (4 x 4).
    pub fn cz() -> CMatrix {
        CMatrix::diag(&[C64::ONE, C64::ONE, C64::ONE, -C64::ONE])
    }

    /// Controlled-X (CNOT) with gate qubit 0 — the *low* bit of the 2-bit
    /// basis index — as control (little-endian convention, 4 x 4).
    pub fn cnot() -> CMatrix {
        let mut m = CMatrix::identity(4);
        m[(1, 1)] = C64::ZERO;
        m[(3, 3)] = C64::ZERO;
        m[(1, 3)] = C64::ONE;
        m[(3, 1)] = C64::ONE;
        m
    }

    /// Annihilation operator truncated to `n` levels.
    pub fn annihilation(n: usize) -> CMatrix {
        let mut a = CMatrix::zeros(n, n);
        for k in 1..n {
            a[(k - 1, k)] = C64::from((k as f64).sqrt());
        }
        a
    }

    /// Creation operator truncated to `n` levels.
    pub fn creation(n: usize) -> CMatrix {
        CMatrix::annihilation(n).adjoint()
    }

    /// Number operator truncated to `n` levels.
    pub fn number(n: usize) -> CMatrix {
        CMatrix::diag(&(0..n).map(|k| C64::from(k as f64)).collect::<Vec<_>>())
    }
}

impl Index<(usize, usize)> for CMatrix {
    type Output = C64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &C64 {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for CMatrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut C64 {
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &CMatrix {
    type Output = CMatrix;
    fn add(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "shape mismatch in add");
        let data = self.data.iter().zip(rhs.data.iter()).map(|(a, b)| *a + *b).collect();
        CMatrix { rows: self.rows, cols: self.cols, data }
    }
}

impl Sub for &CMatrix {
    type Output = CMatrix;
    fn sub(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "shape mismatch in sub");
        let data = self.data.iter().zip(rhs.data.iter()).map(|(a, b)| *a - *b).collect();
        CMatrix { rows: self.rows, cols: self.cols, data }
    }
}

impl Mul for &CMatrix {
    type Output = CMatrix;
    fn mul(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.cols, rhs.rows, "shape mismatch in mul");
        let mut out = CMatrix::zeros(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a == C64::ZERO {
                    continue;
                }
                for c in 0..rhs.cols {
                    out[(r, c)] = a.mul_add(rhs[(k, c)], out[(r, c)]);
                }
            }
        }
        out
    }
}

impl fmt::Display for CMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            write!(f, "[")?;
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", self[(r, c)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn identity_is_multiplicative_identity() {
        let h = CMatrix::hadamard();
        let i = CMatrix::identity(2);
        assert!((&h * &i).approx_eq(&h, 1e-14));
        assert!((&i * &h).approx_eq(&h, 1e-14));
    }

    #[test]
    fn paulis_are_unitary_and_hermitian() {
        for m in [CMatrix::pauli_x(), CMatrix::pauli_y(), CMatrix::pauli_z()] {
            assert!(m.is_unitary(1e-12));
            assert!(m.is_hermitian(1e-12));
            assert!((m.trace()).abs() < 1e-12);
        }
    }

    #[test]
    fn hadamard_squares_to_identity() {
        let h = CMatrix::hadamard();
        assert!((&h * &h).approx_eq(&CMatrix::identity(2), 1e-12));
    }

    #[test]
    fn rotation_composition() {
        // Rz(a) * Rz(b) = Rz(a + b)
        let a = 0.3;
        let b = 1.1;
        let lhs = &CMatrix::rz(a) * &CMatrix::rz(b);
        assert!(lhs.approx_eq(&CMatrix::rz(a + b), 1e-12));
    }

    #[test]
    fn rx_pi_is_x_up_to_phase() {
        let rx = CMatrix::rx(PI);
        let x = CMatrix::pauli_x().scaled(-C64::I);
        assert!(rx.approx_eq(&x, 1e-12));
    }

    #[test]
    fn ry_half_pi_moves_zero_to_plus() {
        let ry = CMatrix::ry(PI / 2.0);
        let v = ry.mul_vec(&[C64::ONE, C64::ZERO]);
        let s = std::f64::consts::FRAC_1_SQRT_2;
        assert!((v[0] - C64::from(s)).abs() < 1e-12);
        assert!((v[1] - C64::from(s)).abs() < 1e-12);
    }

    #[test]
    fn kron_shapes_and_values() {
        let z = CMatrix::pauli_z();
        let i = CMatrix::identity(2);
        let zi = z.kron(&i);
        assert_eq!(zi.rows(), 4);
        assert_eq!(zi[(0, 0)], C64::ONE);
        assert_eq!(zi[(3, 3)], -C64::ONE);
    }

    #[test]
    fn cnot_flips_high_bit_when_control_set() {
        let c = CMatrix::cnot();
        let mut v = vec![C64::ZERO; 4];
        v[1] = C64::ONE; // control (low bit) = 1
        let out = c.mul_vec(&v);
        assert!((out[3] - C64::ONE).abs() < 1e-12);
        // Control clear: nothing happens.
        let mut v = vec![C64::ZERO; 4];
        v[2] = C64::ONE;
        let out = c.mul_vec(&v);
        assert!((out[2] - C64::ONE).abs() < 1e-12);
    }

    #[test]
    fn ladder_operator_commutator() {
        // [a, a†] = 1 on the untruncated part of the space.
        let n = 8;
        let a = CMatrix::annihilation(n);
        let adag = CMatrix::creation(n);
        let comm = a.commutator(&adag);
        for k in 0..n - 1 {
            assert!((comm[(k, k)] - C64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn number_operator_from_ladders() {
        let n = 6;
        let a = CMatrix::annihilation(n);
        let num = &CMatrix::creation(n) * &a;
        assert!(num.approx_eq(&CMatrix::number(n), 1e-12));
    }

    #[test]
    fn trace_of_product_cyclic() {
        let a = CMatrix::rx(0.3);
        let b = CMatrix::ry(0.8);
        let t1 = (&a * &b).trace();
        let t2 = (&b * &a).trace();
        assert!((t1 - t2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn mismatched_add_panics() {
        let _ = &CMatrix::zeros(2, 2) + &CMatrix::zeros(3, 3);
    }
}
