//! Dense unitary matrices.
//!
//! Dense matrices serve as the *reference semantics* for small circuits: the
//! QMDD package and every circuit transformation in the compiler are
//! cross-checked against them in tests. They are practical up to roughly ten
//! qubits; the decision-diagram representation takes over beyond that.

use crate::complex::{C64, EPSILON};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense square complex matrix in row-major order.
///
/// # Examples
///
/// ```
/// use qsyn_gate::{Matrix, C64};
/// let x = Matrix::from_rows(&[[C64::ZERO, C64::ONE], [C64::ONE, C64::ZERO]]);
/// assert!(x.mul(&x).approx_eq(&Matrix::identity(2)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    dim: usize,
    data: Vec<C64>,
}

impl Matrix {
    /// Creates a `dim x dim` zero matrix.
    pub fn zeros(dim: usize) -> Self {
        Matrix {
            dim,
            data: vec![C64::ZERO; dim * dim],
        }
    }

    /// Creates the `dim x dim` identity matrix.
    pub fn identity(dim: usize) -> Self {
        let mut m = Matrix::zeros(dim);
        for i in 0..dim {
            m[(i, i)] = C64::ONE;
        }
        m
    }

    /// Builds a matrix from an array of rows (fixed 2x2 and similar uses).
    pub fn from_rows<const N: usize>(rows: &[[C64; N]; N]) -> Self {
        let mut m = Matrix::zeros(N);
        for (i, row) in rows.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                m[(i, j)] = v;
            }
        }
        m
    }

    /// Matrix dimension (number of rows).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn mul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.dim, rhs.dim, "matrix dimension mismatch");
        let n = self.dim;
        let mut out = Matrix::zeros(n);
        for i in 0..n {
            for k in 0..n {
                let a = self[(i, k)];
                if a.is_zero() {
                    continue;
                }
                for j in 0..n {
                    let b = rhs[(k, j)];
                    if !b.is_zero() {
                        out[(i, j)] += a * b;
                    }
                }
            }
        }
        out
    }

    /// Kronecker (tensor) product `self (x) rhs`.
    pub fn kron(&self, rhs: &Matrix) -> Matrix {
        let n = self.dim;
        let m = rhs.dim;
        let mut out = Matrix::zeros(n * m);
        for i in 0..n {
            for j in 0..n {
                let a = self[(i, j)];
                if a.is_zero() {
                    continue;
                }
                for k in 0..m {
                    for l in 0..m {
                        out[(i * m + k, j * m + l)] = a * rhs[(k, l)];
                    }
                }
            }
        }
        out
    }

    /// Conjugate transpose.
    pub fn adjoint(&self) -> Matrix {
        let n = self.dim;
        let mut out = Matrix::zeros(n);
        for i in 0..n {
            for j in 0..n {
                out[(j, i)] = self[(i, j)].conj();
            }
        }
        out
    }

    /// Entry-wise approximate equality with tolerance [`EPSILON`].
    pub fn approx_eq(&self, other: &Matrix) -> bool {
        self.dim == other.dim
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| a.approx_eq(*b))
    }

    /// Whether `self * self^dagger` is the identity.
    pub fn is_unitary(&self) -> bool {
        self.mul(&self.adjoint())
            .approx_eq(&Matrix::identity(self.dim))
    }

    /// Whether the matrix is a 0/1 permutation matrix (the signature of a
    /// purely classical reversible circuit).
    pub fn is_permutation(&self) -> bool {
        for i in 0..self.dim {
            let mut ones = 0usize;
            for j in 0..self.dim {
                let v = self[(i, j)];
                if v.is_one() {
                    ones += 1;
                } else if !v.is_zero() {
                    return false;
                }
            }
            if ones != 1 {
                return false;
            }
        }
        true
    }

    /// Applies the matrix to a state vector, returning the new state.
    ///
    /// # Panics
    ///
    /// Panics if `state.len()` differs from the matrix dimension.
    pub fn apply(&self, state: &[C64]) -> Vec<C64> {
        assert_eq!(state.len(), self.dim, "state dimension mismatch");
        let mut out = vec![C64::ZERO; self.dim];
        for i in 0..self.dim {
            let mut acc = C64::ZERO;
            for j in 0..self.dim {
                let a = self[(i, j)];
                if !a.is_zero() {
                    acc += a * state[j];
                }
            }
            out[i] = acc;
        }
        out
    }

    /// Maximum absolute entry-wise difference from another matrix.
    pub fn max_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.dim, other.dim);
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = C64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &C64 {
        &self.data[i * self.dim + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut C64 {
        &mut self.data[i * self.dim + j]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.dim {
            for j in 0..self.dim {
                if j > 0 {
                    write!(f, "  ")?;
                }
                let v = self[(i, j)];
                if v.is_zero() {
                    write!(f, "0")?;
                } else {
                    write!(f, "{v}")?;
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Returns true when two matrices are equal up to a global phase factor.
///
/// Used by tests that compare decompositions which are only phase-equivalent;
/// the compiler itself insists on exact equality.
pub fn equal_up_to_phase(a: &Matrix, b: &Matrix) -> bool {
    if a.dim() != b.dim() {
        return false;
    }
    // Find the first entry of b with significant magnitude and derive the
    // candidate phase from it.
    for i in 0..a.dim() {
        for j in 0..a.dim() {
            let bv = b[(i, j)];
            if bv.abs() > EPSILON {
                let av = a[(i, j)];
                if av.abs() < EPSILON {
                    return false;
                }
                let phase = av / bv;
                if (phase.abs() - 1.0).abs() > 1e-8 {
                    return false;
                }
                // Check the rest with this phase.
                for k in 0..a.dim() {
                    for l in 0..a.dim() {
                        if !a[(k, l)].approx_eq(b[(k, l)] * phase) {
                            return false;
                        }
                    }
                }
                return true;
            }
        }
    }
    // b is the zero matrix; equality demands a is too.
    a.data.iter().all(|v| v.is_zero())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pauli_x() -> Matrix {
        Matrix::from_rows(&[[C64::ZERO, C64::ONE], [C64::ONE, C64::ZERO]])
    }

    fn hadamard() -> Matrix {
        let h = C64::FRAC_1_SQRT_2;
        Matrix::from_rows(&[[h, h], [h, -h]])
    }

    #[test]
    fn identity_is_multiplicative_unit() {
        let x = pauli_x();
        let id = Matrix::identity(2);
        assert!(x.mul(&id).approx_eq(&x));
        assert!(id.mul(&x).approx_eq(&x));
    }

    #[test]
    fn x_squared_is_identity() {
        let x = pauli_x();
        assert!(x.mul(&x).approx_eq(&Matrix::identity(2)));
    }

    #[test]
    fn hadamard_is_unitary_not_permutation() {
        assert!(hadamard().is_unitary());
        assert!(!hadamard().is_permutation());
        assert!(pauli_x().is_permutation());
    }

    #[test]
    fn kron_dimensions_and_values() {
        let x = pauli_x();
        let id = Matrix::identity(2);
        let xi = x.kron(&id);
        assert_eq!(xi.dim(), 4);
        // X (x) I swaps the upper and lower halves of the basis.
        assert!(xi[(0, 2)].is_one());
        assert!(xi[(1, 3)].is_one());
        assert!(xi[(2, 0)].is_one());
        assert!(xi[(3, 1)].is_one());
        assert!(xi.is_permutation());
    }

    #[test]
    fn adjoint_of_unitary_is_inverse() {
        let h = hadamard();
        assert!(h.mul(&h.adjoint()).approx_eq(&Matrix::identity(2)));
    }

    #[test]
    fn apply_maps_basis_states() {
        let x = pauli_x();
        let out = x.apply(&[C64::ONE, C64::ZERO]);
        assert!(out[0].is_zero());
        assert!(out[1].is_one());
    }

    #[test]
    fn phase_equality() {
        let h = hadamard();
        let mut ih = h.clone();
        for i in 0..2 {
            for j in 0..2 {
                ih[(i, j)] *= C64::I;
            }
        }
        assert!(equal_up_to_phase(&h, &ih));
        assert!(!h.approx_eq(&ih));
        assert!(!equal_up_to_phase(&h, &pauli_x()));
    }

    #[test]
    fn max_diff_is_zero_for_equal() {
        let h = hadamard();
        assert!(h.max_diff(&h) < EPSILON);
        assert!(h.max_diff(&Matrix::identity(2)) > 0.1);
    }
}
