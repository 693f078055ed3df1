//! Dense matrices over GF(256).
//!
//! Small matrices (at most `n × n` where `n` is the number of providers, in
//! practice well under 30) used to build and invert Reed–Solomon encode
//! matrices.

use crate::gf256;

/// A dense row-major matrix over GF(256).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<u8>,
}

impl Matrix {
    /// Creates a zero matrix of the given shape.
    pub(crate) fn zero(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// Creates an identity matrix of size `n`.
    pub(crate) fn identity(n: usize) -> Self {
        let mut m = Matrix::zero(n, n);
        for i in 0..n {
            m.set(i, i, 1);
        }
        m
    }

    /// Creates a Vandermonde matrix with `rows × cols` entries:
    /// `V[r][c] = r^c` over GF(256). Any `cols` distinct rows of such a
    /// matrix form an invertible square matrix (for `rows ≤ 255`).
    pub(crate) fn vandermonde(rows: usize, cols: usize) -> Self {
        let mut m = Matrix::zero(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.set(r, c, gf256::pow(r as u8, c as u32));
            }
        }
        m
    }

    /// Element at `(row, col)`.
    #[inline]
    pub(crate) fn get(&self, row: usize, col: usize) -> u8 {
        self.data[row * self.cols + col]
    }

    /// Sets the element at `(row, col)`.
    #[inline]
    pub(crate) fn set(&mut self, row: usize, col: usize, value: u8) {
        self.data[row * self.cols + col] = value;
    }

    /// Matrix multiplication `self × rhs`.
    ///
    /// # Panics
    /// Panics if the shapes are incompatible.
    pub(crate) fn mul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "matrix shape mismatch");
        let mut out = Matrix::zero(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    let prod = gf256::mul(a, rhs.get(k, j));
                    out.set(i, j, gf256::add(out.get(i, j), prod));
                }
            }
        }
        out
    }

    /// Builds a new matrix from the given subset of row indices of `self`.
    pub(crate) fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zero(indices.len(), self.cols);
        for (new_r, &r) in indices.iter().enumerate() {
            for c in 0..self.cols {
                out.set(new_r, c, self.get(r, c));
            }
        }
        out
    }

    /// Gauss–Jordan inversion. Returns `None` if the matrix is singular or
    /// not square.
    pub(crate) fn invert(&self) -> Option<Matrix> {
        if self.rows != self.cols {
            return None;
        }
        let n = self.rows;
        let mut work = self.clone();
        let mut inv = Matrix::identity(n);

        for col in 0..n {
            // Find a pivot row with a non-zero entry in this column.
            let pivot = (col..n).find(|&r| work.get(r, col) != 0)?;
            if pivot != col {
                work.swap_rows(pivot, col);
                inv.swap_rows(pivot, col);
            }
            // Scale the pivot row so the pivot becomes 1.
            let pivot_val = work.get(col, col);
            let pivot_inv = gf256::inv(pivot_val);
            for c in 0..n {
                work.set(col, c, gf256::mul(work.get(col, c), pivot_inv));
                inv.set(col, c, gf256::mul(inv.get(col, c), pivot_inv));
            }
            // Eliminate the column from every other row.
            for r in 0..n {
                if r == col {
                    continue;
                }
                let factor = work.get(r, col);
                if factor == 0 {
                    continue;
                }
                for c in 0..n {
                    let w = gf256::sub(work.get(r, c), gf256::mul(factor, work.get(col, c)));
                    work.set(r, c, w);
                    let iv = gf256::sub(inv.get(r, c), gf256::mul(factor, inv.get(col, c)));
                    inv.set(r, c, iv);
                }
            }
        }
        Some(inv)
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for c in 0..self.cols {
            let tmp = self.get(a, c);
            self.set(a, c, self.get(b, c));
            self.set(b, c, tmp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_multiplicative_neutral() {
        let id = Matrix::identity(4);
        let v = Matrix::vandermonde(4, 4);
        assert_eq!(id.mul(&v), v);
        assert_eq!(v.mul(&id), v);
    }

    #[test]
    fn vandermonde_shape_and_first_column() {
        let v = Matrix::vandermonde(5, 3);
        assert_eq!(v.rows, 5);
        assert_eq!(v.cols, 3);
        // Column 0 is r^0 = 1 for every row.
        for r in 0..5 {
            assert_eq!(v.get(r, 0), 1);
        }
        // Column 1 is the row index.
        for r in 0..5 {
            assert_eq!(v.get(r, 1), r as u8);
        }
    }

    #[test]
    fn inversion_roundtrip() {
        for n in 1..=6 {
            let v = Matrix::vandermonde(n, n);
            let inv = v.invert().expect("vandermonde is invertible");
            assert_eq!(v.mul(&inv), Matrix::identity(n));
            assert_eq!(inv.mul(&v), Matrix::identity(n));
        }
    }

    #[test]
    fn singular_matrix_has_no_inverse() {
        let mut m = Matrix::zero(3, 3);
        // Two identical rows → singular.
        for c in 0..3 {
            m.set(0, c, c as u8 + 1);
            m.set(1, c, c as u8 + 1);
            m.set(2, c, 7);
        }
        assert!(m.invert().is_none());
        // Non-square matrices cannot be inverted.
        assert!(Matrix::zero(2, 3).invert().is_none());
    }

    #[test]
    fn select_rows_extracts_submatrix() {
        let v = Matrix::vandermonde(5, 3);
        let sub = v.select_rows(&[0, 2, 4]);
        assert_eq!(sub.rows, 3);
        for c in 0..3 {
            assert_eq!(sub.get(1, c), v.get(2, c));
            assert_eq!(sub.get(2, c), v.get(4, c));
        }
    }

    #[test]
    fn any_square_subset_of_vandermonde_rows_is_invertible() {
        let v = Matrix::vandermonde(8, 4);
        // Try several 4-row subsets.
        let subsets = [
            vec![0, 1, 2, 3],
            vec![4, 5, 6, 7],
            vec![0, 2, 4, 6],
            vec![1, 3, 5, 7],
            vec![0, 3, 5, 6],
        ];
        for subset in &subsets {
            let sub = v.select_rows(subset);
            assert!(
                sub.invert().is_some(),
                "subset {subset:?} should be invertible"
            );
        }
    }

    #[test]
    #[should_panic(expected = "matrix shape mismatch")]
    fn mul_shape_mismatch_panics() {
        let a = Matrix::zero(2, 3);
        let b = Matrix::zero(2, 3);
        let _ = a.mul(&b);
    }
}
