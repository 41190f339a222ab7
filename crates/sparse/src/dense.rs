//! Small dense matrices.
//!
//! FE codes spend much of their time in *small dense* element-level kernels
//! (e.g. the 24x24 stiffness block of a hexahedral element) before scattering
//! into the global sparse matrix. This module provides a straightforward
//! row-major dense matrix with the handful of operations those kernels need:
//! mat-mat / mat-vec products, LU solve with partial pivoting, determinant
//! and inverse for the 3x3 Jacobians of isoparametric mapping.

use crate::error::SparseError;
use crate::Result;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// Row-major dense matrix of `f64`.
///
/// # Examples
///
/// ```
/// use belenos_sparse::DenseMatrix;
/// let a = DenseMatrix::identity(3);
/// let b = DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 10.0]]);
/// let c = a.matmul(&b).unwrap();
/// assert_eq!(c[(1, 2)], 6.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a zero-filled `nrows x ncols` matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        DenseMatrix {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in rows {
            assert_eq!(r.len(), ncols, "inconsistent row lengths");
            data.extend_from_slice(r);
        }
        DenseMatrix { nrows, ncols, data }
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `data.len() != nrows * ncols`.
    pub fn from_vec(nrows: usize, ncols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != nrows * ncols {
            return Err(SparseError::DimensionMismatch(format!(
                "buffer of {} elements cannot form {}x{} matrix",
                data.len(),
                nrows,
                ncols
            )));
        }
        Ok(DenseMatrix { nrows, ncols, data })
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Flat row-major view of the entries.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> DenseMatrix {
        let mut t = DenseMatrix::zeros(self.ncols, self.nrows);
        for i in 0..self.nrows {
            for j in 0..self.ncols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix-matrix product `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if the inner dimensions differ.
    pub fn matmul(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        if self.ncols != rhs.nrows {
            return Err(SparseError::DimensionMismatch(format!(
                "{}x{} * {}x{}",
                self.nrows, self.ncols, rhs.nrows, rhs.ncols
            )));
        }
        let mut out = DenseMatrix::zeros(self.nrows, rhs.ncols);
        for i in 0..self.nrows {
            for k in 0..self.ncols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..rhs.ncols {
                    out[(i, j)] += aik * rhs[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product `self * x`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `x.len() != ncols`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.ncols {
            return Err(SparseError::DimensionMismatch(format!(
                "matrix has {} columns, vector has {} entries",
                self.ncols,
                x.len()
            )));
        }
        let mut y = vec![0.0; self.nrows];
        for i in 0..self.nrows {
            let row = &self.data[i * self.ncols..(i + 1) * self.ncols];
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x) {
                acc += a * b;
            }
            y[i] = acc;
        }
        Ok(y)
    }

    /// `self += alpha * other`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if shapes differ.
    pub fn axpy(&mut self, alpha: f64, other: &DenseMatrix) -> Result<()> {
        if self.nrows != other.nrows || self.ncols != other.ncols {
            return Err(SparseError::DimensionMismatch(format!(
                "{}x{} vs {}x{}",
                self.nrows, self.ncols, other.nrows, other.ncols
            )));
        }
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Scales all entries in place.
    pub fn scale(&mut self, alpha: f64) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Determinant via LU with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::NotSquare`] for non-square matrices.
    pub fn det(&self) -> Result<f64> {
        if self.nrows != self.ncols {
            return Err(SparseError::NotSquare {
                nrows: self.nrows,
                ncols: self.ncols,
            });
        }
        let n = self.nrows;
        match n {
            0 => return Ok(1.0),
            1 => return Ok(self[(0, 0)]),
            2 => return Ok(self[(0, 0)] * self[(1, 1)] - self[(0, 1)] * self[(1, 0)]),
            3 => return Ok(det3(self)),
            _ => {}
        }
        let mut lu = self.clone();
        let mut sign = 1.0;
        for k in 0..n {
            let mut p = k;
            let mut max = lu[(k, k)].abs();
            for i in k + 1..n {
                if lu[(i, k)].abs() > max {
                    max = lu[(i, k)].abs();
                    p = i;
                }
            }
            if max == 0.0 {
                return Ok(0.0);
            }
            if p != k {
                lu.swap_rows(p, k);
                sign = -sign;
            }
            let pivot = lu[(k, k)];
            for i in k + 1..n {
                let f = lu[(i, k)] / pivot;
                lu[(i, k)] = f;
                for j in k + 1..n {
                    let v = lu[(k, j)];
                    lu[(i, j)] -= f * v;
                }
            }
        }
        let mut d = sign;
        for k in 0..n {
            d *= lu[(k, k)];
        }
        Ok(d)
    }

    /// Inverse via Gauss-Jordan with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::NotSquare`] for non-square input and
    /// [`SparseError::SingularPivot`] if the matrix is singular.
    pub fn inverse(&self) -> Result<DenseMatrix> {
        if self.nrows != self.ncols {
            return Err(SparseError::NotSquare {
                nrows: self.nrows,
                ncols: self.ncols,
            });
        }
        let n = self.nrows;
        let mut a = self.clone();
        let mut inv = DenseMatrix::identity(n);
        for k in 0..n {
            let mut p = k;
            let mut max = a[(k, k)].abs();
            for i in k + 1..n {
                if a[(i, k)].abs() > max {
                    max = a[(i, k)].abs();
                    p = i;
                }
            }
            if max < 1e-300 {
                return Err(SparseError::SingularPivot {
                    index: k,
                    value: a[(k, k)],
                });
            }
            if p != k {
                a.swap_rows(p, k);
                inv.swap_rows(p, k);
            }
            let pivot = a[(k, k)];
            for j in 0..n {
                a[(k, j)] /= pivot;
                inv[(k, j)] /= pivot;
            }
            for i in 0..n {
                if i == k {
                    continue;
                }
                let f = a[(i, k)];
                if f == 0.0 {
                    continue;
                }
                for j in 0..n {
                    let av = a[(k, j)];
                    let iv = inv[(k, j)];
                    a[(i, j)] -= f * av;
                    inv[(i, j)] -= f * iv;
                }
            }
        }
        Ok(inv)
    }

    /// Solves `self * x = b` by LU with partial pivoting.
    ///
    /// # Errors
    ///
    /// [`SparseError::NotSquare`], [`SparseError::DimensionMismatch`] or
    /// [`SparseError::SingularPivot`].
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        if self.nrows != self.ncols {
            return Err(SparseError::NotSquare {
                nrows: self.nrows,
                ncols: self.ncols,
            });
        }
        if b.len() != self.nrows {
            return Err(SparseError::DimensionMismatch(format!(
                "matrix is {}x{}, rhs has {} entries",
                self.nrows,
                self.ncols,
                b.len()
            )));
        }
        let n = self.nrows;
        let mut lu = self.clone();
        let mut x = b.to_vec();
        // Forward elimination with partial pivoting.
        for k in 0..n {
            let mut p = k;
            let mut max = lu[(k, k)].abs();
            for i in k + 1..n {
                if lu[(i, k)].abs() > max {
                    max = lu[(i, k)].abs();
                    p = i;
                }
            }
            if max < 1e-300 {
                return Err(SparseError::SingularPivot {
                    index: k,
                    value: lu[(k, k)],
                });
            }
            if p != k {
                lu.swap_rows(p, k);
                x.swap(p, k);
            }
            let pivot = lu[(k, k)];
            for i in k + 1..n {
                let f = lu[(i, k)] / pivot;
                if f == 0.0 {
                    continue;
                }
                for j in k + 1..n {
                    let v = lu[(k, j)];
                    lu[(i, j)] -= f * v;
                }
                x[i] -= f * x[k];
            }
        }
        // Back substitution.
        for k in (0..n).rev() {
            let mut acc = x[k];
            for j in k + 1..n {
                acc -= lu[(k, j)] * x[j];
            }
            x[k] = acc / lu[(k, k)];
        }
        Ok(x)
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let n = self.ncols;
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let (head, tail) = self.data.split_at_mut(hi * n);
        head[lo * n..lo * n + n].swap_with_slice(&mut tail[..n]);
    }
}

fn det3(m: &DenseMatrix) -> f64 {
    m[(0, 0)] * (m[(1, 1)] * m[(2, 2)] - m[(1, 2)] * m[(2, 1)])
        - m[(0, 1)] * (m[(1, 0)] * m[(2, 2)] - m[(1, 2)] * m[(2, 0)])
        + m[(0, 2)] * (m[(1, 0)] * m[(2, 1)] - m[(1, 1)] * m[(2, 0)])
}

impl Index<(usize, usize)> for DenseMatrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.ncols + j]
    }
}

impl IndexMut<(usize, usize)> for DenseMatrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.ncols + j]
    }
}

impl Add for &DenseMatrix {
    type Output = DenseMatrix;

    fn add(self, rhs: &DenseMatrix) -> DenseMatrix {
        let mut out = self.clone();
        out.axpy(1.0, rhs).expect("shape mismatch in +");
        out
    }
}

impl Sub for &DenseMatrix {
    type Output = DenseMatrix;

    fn sub(self, rhs: &DenseMatrix) -> DenseMatrix {
        let mut out = self.clone();
        out.axpy(-1.0, rhs).expect("shape mismatch in -");
        out
    }
}

impl Mul for &DenseMatrix {
    type Output = DenseMatrix;

    fn mul(self, rhs: &DenseMatrix) -> DenseMatrix {
        self.matmul(rhs).expect("shape mismatch in *")
    }
}

impl fmt::Display for DenseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.nrows {
            for j in 0..self.ncols {
                write!(f, "{:>12.5e} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matmul_is_noop() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = DenseMatrix::identity(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matvec_matches_hand_computation() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let y = a.matvec(&[1.0, 0.0, -1.0]).unwrap();
        assert_eq!(y, vec![-2.0, -2.0]);
    }

    #[test]
    fn matvec_rejects_bad_shape() {
        let a = DenseMatrix::zeros(2, 3);
        assert!(a.matvec(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn det_of_known_matrices() {
        assert_eq!(DenseMatrix::identity(4).det().unwrap(), 1.0);
        let a = DenseMatrix::from_rows(&[&[2.0, 0.0], &[0.0, 3.0]]);
        assert_eq!(a.det().unwrap(), 6.0);
        let s = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert_eq!(s.det().unwrap(), 0.0);
    }

    #[test]
    fn det3_and_lu_det_agree() {
        let a = DenseMatrix::from_rows(&[&[3.0, 1.0, 2.0], &[-1.0, 4.0, 0.5], &[2.5, -2.0, 1.0]]);
        // Expand to 4x4 with a unit row/col so the LU path is taken.
        let mut b = DenseMatrix::identity(4);
        for i in 0..3 {
            for j in 0..3 {
                b[(i, j)] = a[(i, j)];
            }
        }
        assert!((a.det().unwrap() - b.det().unwrap()).abs() < 1e-12);
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let a = DenseMatrix::from_rows(&[&[4.0, 2.0, 0.5], &[2.0, 5.0, 1.0], &[0.5, 1.0, 3.0]]);
        let inv = a.inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        let err = (&prod - &DenseMatrix::identity(3)).norm();
        assert!(err < 1e-12, "error {err}");
    }

    #[test]
    fn inverse_of_singular_fails() {
        let s = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(
            s.inverse(),
            Err(SparseError::SingularPivot { .. })
        ));
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = DenseMatrix::from_rows(&[&[10.0, 1.0, 0.0], &[1.0, 8.0, 2.0], &[0.0, 2.0, 6.0]]);
        let x_true = vec![1.0, -2.0, 3.0];
        let b = a.matvec(&x_true).unwrap();
        let x = a.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-12);
        }
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero on the diagonal forces a row swap.
        let a = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = a.solve(&[5.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-15);
        assert!((x[1] - 5.0).abs() < 1e-15);
    }

    #[test]
    fn transpose_round_trips() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().nrows(), 3);
    }

    #[test]
    fn operators_work() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = DenseMatrix::identity(2);
        let sum = &a + &b;
        assert_eq!(sum[(0, 0)], 2.0);
        let diff = &sum - &b;
        assert_eq!(diff, a);
        let prod = &a * &b;
        assert_eq!(prod, a);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }
}
