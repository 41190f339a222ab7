//! Compressed sparse row matrices and the SpMV kernel.
//!
//! SpMV over CSR is the central irregular kernel of the Belenos study: the
//! gather `x[col_idx[k]]` has data-dependent locality governed by the mesh
//! connectivity, and the paper attributes FEBio's backend-bound stalls
//! largely to exactly this access pattern.

use crate::error::SparseError;
use crate::pattern::CsrPattern;
use crate::Result;
use std::sync::Arc;

/// Compressed sparse row matrix of `f64` with a shareable pattern.
///
/// The pattern is kept behind an [`Arc`] so the Belenos trace layer can hold
/// onto the exact index arrays a solve used without copying them.
///
/// # Examples
///
/// ```
/// use belenos_sparse::CooMatrix;
/// let mut coo = CooMatrix::new(2, 2);
/// coo.push(0, 0, 2.0);
/// coo.push(1, 1, 3.0);
/// let a = coo.to_csr();
/// let y = a.spmv(&[1.0, 1.0]).unwrap();
/// assert_eq!(y, vec![2.0, 3.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    pattern: Arc<CsrPattern>,
    vals: Vec<f64>,
}

impl CsrMatrix {
    /// Builds from parts that are already known to be valid (used by
    /// [`crate::CooMatrix::to_csr`], which constructs sorted unique rows).
    pub(crate) fn from_parts_unchecked(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        vals: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(row_ptr.len(), nrows + 1);
        debug_assert_eq!(*row_ptr.last().unwrap(), vals.len());
        let pattern =
            CsrPattern::new(nrows, ncols, row_ptr, col_idx).expect("internal CSR invariant");
        CsrMatrix {
            pattern: Arc::new(pattern),
            vals,
        }
    }

    /// A matrix sharing an existing pattern with fresh values.
    ///
    /// # Errors
    ///
    /// [`SparseError::InvalidInput`] if `vals.len() != pattern.nnz()`.
    pub fn with_pattern(pattern: Arc<CsrPattern>, vals: Vec<f64>) -> Result<Self> {
        if vals.len() != pattern.nnz() {
            return Err(SparseError::InvalidInput(format!(
                "vals length {} != pattern nnz {}",
                vals.len(),
                pattern.nnz()
            )));
        }
        Ok(CsrMatrix { pattern, vals })
    }

    /// The `n x n` identity.
    pub fn identity(n: usize) -> Self {
        let row_ptr = (0..=n).collect();
        let col_idx = (0..n as u32).collect();
        let vals = vec![1.0; n];
        Self::from_parts_unchecked(n, n, row_ptr, col_idx, vals)
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.pattern.nrows()
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.pattern.ncols()
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.pattern.nnz()
    }

    /// Shared handle to the sparsity pattern.
    pub fn pattern_arc(&self) -> Arc<CsrPattern> {
        Arc::clone(&self.pattern)
    }

    /// The sparsity pattern.
    pub fn pattern(&self) -> &CsrPattern {
        &self.pattern
    }

    /// Stored values in row-major CSR order.
    pub fn values(&self) -> &[f64] {
        &self.vals
    }

    /// Mutable stored values (pattern is immutable by construction).
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.vals
    }

    /// The pattern together with the mutable values, for loops that walk
    /// the structure while they rewrite entries.
    pub fn parts_mut(&mut self) -> (&CsrPattern, &mut [f64]) {
        (&self.pattern, &mut self.vals)
    }

    /// Value at `(r, c)`, `0.0` when the position is not stored.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        if r >= self.nrows() || c >= self.ncols() {
            return 0.0;
        }
        let start = self.pattern.row_ptr()[r];
        match self.pattern.row(r).binary_search(&(c as u32)) {
            Ok(k) => self.vals[start + k],
            Err(_) => 0.0,
        }
    }

    /// Sets the stored entry at `(r, c)`.
    ///
    /// # Errors
    ///
    /// [`SparseError::IndexOutOfBounds`] if `(r, c)` is not a stored position.
    pub fn set(&mut self, r: usize, c: usize, v: f64) -> Result<()> {
        if r >= self.nrows() || c >= self.ncols() {
            return Err(SparseError::IndexOutOfBounds {
                row: r,
                col: c,
                nrows: self.nrows(),
                ncols: self.ncols(),
            });
        }
        let start = self.pattern.row_ptr()[r];
        match self.pattern.row(r).binary_search(&(c as u32)) {
            Ok(k) => {
                self.vals[start + k] = v;
                Ok(())
            }
            Err(_) => Err(SparseError::IndexOutOfBounds {
                row: r,
                col: c,
                nrows: self.nrows(),
                ncols: self.ncols(),
            }),
        }
    }

    /// Sparse matrix-vector product `y = A x`.
    ///
    /// # Errors
    ///
    /// [`SparseError::DimensionMismatch`] if `x.len() != ncols`.
    pub fn spmv(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.ncols() {
            return Err(SparseError::DimensionMismatch(format!(
                "matrix has {} columns, vector has {}",
                self.ncols(),
                x.len()
            )));
        }
        let mut y = vec![0.0; self.nrows()];
        self.spmv_into(x, &mut y)?;
        Ok(y)
    }

    /// SpMV writing into a caller-provided buffer (`y` is overwritten).
    ///
    /// # Errors
    ///
    /// [`SparseError::DimensionMismatch`] on shape mismatch.
    pub fn spmv_into(&self, x: &[f64], y: &mut [f64]) -> Result<()> {
        if x.len() != self.ncols() || y.len() != self.nrows() {
            return Err(SparseError::DimensionMismatch(format!(
                "spmv: A is {}x{}, x has {}, y has {}",
                self.nrows(),
                self.ncols(),
                x.len(),
                y.len()
            )));
        }
        let rp = self.pattern.row_ptr();
        let ci = self.pattern.col_idx();
        for (r, yr) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for k in rp[r]..rp[r + 1] {
                acc += self.vals[k] * x[ci[k] as usize];
            }
            *yr = acc;
        }
        Ok(())
    }

    /// Returns the explicit transpose.
    pub fn transpose(&self) -> CsrMatrix {
        let nr = self.nrows();
        let nc = self.ncols();
        let rp = self.pattern.row_ptr();
        let ci = self.pattern.col_idx();
        let mut counts = vec![0usize; nc + 1];
        for &c in ci {
            counts[c as usize + 1] += 1;
        }
        for i in 0..nc {
            counts[i + 1] += counts[i];
        }
        let mut col_idx = vec![0u32; self.nnz()];
        let mut vals = vec![0.0; self.nnz()];
        let mut cursor = counts.clone();
        for r in 0..nr {
            for k in rp[r]..rp[r + 1] {
                let c = ci[k] as usize;
                let dst = cursor[c];
                col_idx[dst] = r as u32;
                vals[dst] = self.vals[k];
                cursor[c] += 1;
            }
        }
        CsrMatrix::from_parts_unchecked(nc, nr, counts, col_idx, vals)
    }

    /// Extracts the diagonal (missing entries are `0.0`).
    pub fn diagonal(&self) -> Vec<f64> {
        let n = self.nrows().min(self.ncols());
        (0..n).map(|i| self.get(i, i)).collect()
    }

    /// Scales all values in place.
    pub fn scale(&mut self, alpha: f64) {
        for v in &mut self.vals {
            *v *= alpha;
        }
    }
}

/// Dot product of two equal-length vectors.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product of mismatched lengths");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `y += alpha * x` (BLAS axpy).
///
/// # Panics
///
/// Panics if lengths differ.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy of mismatched lengths");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Euclidean norm.
pub fn norm2(v: &[f64]) -> f64 {
    dot(v, v).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    fn lap1d(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0);
            if i > 0 {
                coo.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                coo.push(i, i + 1, -1.0);
            }
        }
        coo.to_csr()
    }

    /// Row-major dense copy, read entry by entry through `get`.
    fn dense(a: &CsrMatrix) -> Vec<f64> {
        (0..a.nrows())
            .flat_map(|r| (0..a.ncols()).map(move |c| a.get(r, c)))
            .collect()
    }

    #[test]
    fn spmv_matches_dense() {
        let a = lap1d(8);
        let x: Vec<f64> = (0..8).map(|i| (i as f64 * 0.7).sin()).collect();
        let y = a.spmv(&x).unwrap();
        for (u, row) in y.iter().zip(dense(&a).chunks(8)) {
            let v: f64 = row.iter().zip(&x).map(|(a, x)| a * x).sum();
            assert!((u - v).abs() < 1e-14);
        }
    }

    #[test]
    fn spmv_rejects_wrong_length() {
        let a = lap1d(4);
        assert!(a.spmv(&[1.0; 3]).is_err());
    }

    #[test]
    fn transpose_twice_is_identity_op() {
        let mut coo = CooMatrix::new(3, 4);
        coo.push(0, 1, 1.0);
        coo.push(2, 3, -2.0);
        coo.push(1, 0, 5.0);
        let a = coo.to_csr();
        let att = a.transpose().transpose();
        assert_eq!(dense(&a), dense(&att));
        assert_eq!(a.transpose().nrows(), 4);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut a = lap1d(5);
        assert_eq!(a.get(2, 2), 2.0);
        assert_eq!(a.get(0, 4), 0.0);
        a.set(2, 2, 9.0).unwrap();
        assert_eq!(a.get(2, 2), 9.0);
        assert!(a.set(0, 4, 1.0).is_err());
    }

    #[test]
    fn identity_spmv_is_copy() {
        let i = CsrMatrix::identity(6);
        let x: Vec<f64> = (0..6).map(|k| k as f64).collect();
        assert_eq!(i.spmv(&x).unwrap(), x);
    }

    #[test]
    fn diagonal_extraction() {
        let a = lap1d(4);
        assert_eq!(a.diagonal(), vec![2.0; 4]);
    }

    #[test]
    fn blas_helpers() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, -1.0], &mut y);
        assert_eq!(y, vec![3.0, -1.0]);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn with_pattern_shares_structure() {
        let a = lap1d(4);
        let p = a.pattern_arc();
        let b = CsrMatrix::with_pattern(p.clone(), vec![1.0; a.nnz()]).unwrap();
        assert_eq!(b.nnz(), a.nnz());
        assert!(CsrMatrix::with_pattern(p, vec![0.0; 3]).is_err());
    }
}
