//! Skyline (profile) direct solver — FEBio's built-in `Skyline` option.
//!
//! The skyline format stores, per column, all entries from the first
//! nonzero row down to the diagonal. Factorization sweeps whole columns,
//! creating long strided accesses; its footprint is governed by the matrix
//! *profile*, which is why bandwidth-reducing orderings matter so much for
//! this solver class.

use crate::csr::CsrMatrix;
use crate::{Result, SparseError};

/// Symmetric skyline matrix in column-compressed "active column" storage.
///
/// Only the upper triangle (equivalently lower, by symmetry) is stored: for
/// each column `j`, entries `a[first_row(j) ..= j][j]`.
#[derive(Debug, Clone)]
pub struct SkylineMatrix {
    n: usize,
    /// `col_ptr[j]` is the offset of the *diagonal* entry of column `j`;
    /// entries run upward from the diagonal: `data[col_ptr[j] + k]` holds
    /// `a[j - k][j]`.
    col_ptr: Vec<usize>,
    /// Column height (number of stored entries) per column, `>= 1`.
    heights: Vec<usize>,
    data: Vec<f64>,
}

impl SkylineMatrix {
    /// Builds a skyline envelope from the upper triangle of a symmetric CSR
    /// matrix.
    ///
    /// # Errors
    ///
    /// [`SparseError::NotSquare`] for rectangular input.
    pub fn from_csr(a: &CsrMatrix) -> Result<Self> {
        if a.nrows() != a.ncols() {
            return Err(SparseError::NotSquare {
                nrows: a.nrows(),
                ncols: a.ncols(),
            });
        }
        let n = a.nrows();
        // Column height = j - min_row(j) + 1 over stored upper-triangle entries.
        let mut first_row: Vec<usize> = (0..n).collect();
        let rp = a.pattern().row_ptr();
        let ci = a.pattern().col_idx();
        for r in 0..n {
            for k in rp[r]..rp[r + 1] {
                let c = ci[k] as usize;
                if c >= r {
                    first_row[c] = first_row[c].min(r);
                }
            }
        }
        let heights: Vec<usize> = (0..n).map(|j| j - first_row[j] + 1).collect();
        let mut col_ptr = vec![0usize; n];
        let mut total = 0usize;
        for j in 0..n {
            col_ptr[j] = total;
            total += heights[j];
        }
        let mut data = vec![0.0f64; total];
        for r in 0..n {
            for k in rp[r]..rp[r + 1] {
                let c = ci[k] as usize;
                if c >= r {
                    // a[r][c] sits k' = c - r above the diagonal of column c.
                    data[col_ptr[c] + (c - r)] = a.values()[k];
                }
            }
        }
        Ok(SkylineMatrix {
            n,
            col_ptr,
            heights,
            data,
        })
    }

    /// Problem dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Column heights (diagonal inclusive) — the trace layer uses these to
    /// replay the factorization's exact access extents.
    pub fn heights(&self) -> &[usize] {
        &self.heights
    }

    /// Entry `a[i][j]` for `i <= j` within the envelope, else `0.0`.
    pub fn get_upper(&self, i: usize, j: usize) -> f64 {
        if i > j || j >= self.n {
            return 0.0;
        }
        let k = j - i;
        if k < self.heights[j] {
            self.data[self.col_ptr[j] + k]
        } else {
            0.0
        }
    }

    /// In-place LDLᵀ factorization (column version of the classic skyline
    /// reduction).
    ///
    /// # Errors
    ///
    /// [`SparseError::SingularPivot`] on a (near-)zero pivot.
    pub fn factorize(mut self) -> Result<SkylineFactor> {
        let n = self.n;
        for j in 0..n {
            let hj = self.heights[j];
            let first_j = j + 1 - hj;
            // Update column j using all previous columns that overlap it.
            // Work on u[i] = a[i][j] for i in first_j..=j.
            for i in first_j..j {
                let hi = self.heights[i];
                let first_i = i + 1 - hi;
                let lo = first_j.max(first_i);
                // a[i][j] -= sum_{r=lo..i} l[r][i]*d[r]*l[r][j]  (here stored
                // values above the diagonal are still "u" values: u[r][c] =
                // l[r][c]*d[r] during this sweep).
                let mut acc = 0.0;
                for r in lo..i {
                    acc += self.get_fact(r, i) * self.get_fact(r, j);
                }
                let v = self.get_fact(i, j) - acc;
                self.set_fact(i, j, v);
            }
            // Diagonal: d[j] = a[j][j] - sum u[r][j]^2 / d[r]; convert column
            // to l values u -> l = u / d[r].
            let mut djj = self.get_fact(j, j);
            for r in first_j..j {
                let urj = self.get_fact(r, j);
                let drr = self.get_fact(r, r);
                let lrj = urj / drr;
                djj -= urj * lrj;
                self.set_fact(r, j, lrj);
            }
            if djj.abs() < 1e-300 {
                return Err(SparseError::SingularPivot {
                    index: j,
                    value: djj,
                });
            }
            self.set_fact(j, j, djj);
        }
        Ok(SkylineFactor { sky: self })
    }

    #[inline]
    fn get_fact(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i <= j);
        self.data[self.col_ptr[j] + (j - i)]
    }

    #[inline]
    fn set_fact(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i <= j);
        let idx = self.col_ptr[j] + (j - i);
        self.data[idx] = v;
    }
}

/// Factorized skyline system ready for repeated solves.
#[derive(Debug, Clone)]
pub struct SkylineFactor {
    sky: SkylineMatrix,
}

impl SkylineFactor {
    /// Solves `A x = b` using the stored LDLᵀ factors.
    ///
    /// # Errors
    ///
    /// [`SparseError::DimensionMismatch`] if `b.len() != n`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.sky.n;
        if b.len() != n {
            return Err(SparseError::DimensionMismatch(format!(
                "factor is {n}-dimensional, rhs has {}",
                b.len()
            )));
        }
        let mut x = b.to_vec();
        // Forward solve Lᵀ-stored-as-upper: x[j] -= l[r][j] * x[r].
        for j in 0..n {
            let hj = self.sky.heights[j];
            let first_j = j + 1 - hj;
            let mut acc = x[j];
            for r in first_j..j {
                acc -= self.sky.get_fact(r, j) * x[r];
            }
            x[j] = acc;
        }
        // Diagonal scale.
        for j in 0..n {
            x[j] /= self.sky.get_fact(j, j);
        }
        // Backward solve.
        for j in (0..n).rev() {
            let hj = self.sky.heights[j];
            let first_j = j + 1 - hj;
            let xj = x[j];
            for r in first_j..j {
                x[r] -= self.sky.get_fact(r, j) * xj;
            }
        }
        Ok(x)
    }

    /// Problem dimension.
    pub fn dim(&self) -> usize {
        self.sky.n
    }

    /// Column heights of the factor (== original envelope; skyline does not
    /// grow the envelope during factorization).
    pub fn heights(&self) -> &[usize] {
        &self.sky.heights
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    fn spd_band(n: usize, half_bw: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0 * (half_bw as f64) + 2.0);
            for d in 1..=half_bw {
                if i + d < n {
                    coo.push(i, i + d, -1.0);
                    coo.push(i + d, i, -1.0);
                }
            }
        }
        coo.to_csr()
    }

    #[test]
    fn envelope_construction() {
        let a = spd_band(6, 2);
        let sky = SkylineMatrix::from_csr(&a).unwrap();
        assert_eq!(sky.dim(), 6);
        assert_eq!(sky.heights()[0], 1);
        assert_eq!(sky.heights()[3], 3);
        assert_eq!(sky.get_upper(1, 3), -1.0);
        assert_eq!(sky.get_upper(0, 3), 0.0);
    }

    #[test]
    fn factor_solve_recovers_solution() {
        let a = spd_band(20, 3);
        let x_true: Vec<f64> = (0..20).map(|i| (i as f64 * 0.37).cos()).collect();
        let b = a.spmv(&x_true).unwrap();
        let f = SkylineMatrix::from_csr(&a).unwrap().factorize().unwrap();
        let x = f.solve(&b).unwrap();
        for (u, v) in x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-10, "{u} vs {v}");
        }
    }

    #[test]
    fn repeated_solves_share_factor() {
        let a = spd_band(10, 1);
        let f = SkylineMatrix::from_csr(&a).unwrap().factorize().unwrap();
        for scale in [1.0, -2.0, 0.5] {
            let x_true: Vec<f64> = (0..10).map(|i| scale * (i as f64 + 1.0)).collect();
            let b = a.spmv(&x_true).unwrap();
            let x = f.solve(&b).unwrap();
            for (u, v) in x.iter().zip(&x_true) {
                assert!((u - v).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn singular_matrix_rejected() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 1.0);
        coo.push(1, 1, 1.0);
        let a = coo.to_csr();
        let r = SkylineMatrix::from_csr(&a).unwrap().factorize();
        assert!(matches!(r, Err(SparseError::SingularPivot { .. })));
    }

    #[test]
    fn nonsquare_rejected() {
        let mut coo = CooMatrix::new(2, 3);
        coo.push(0, 0, 1.0);
        assert!(SkylineMatrix::from_csr(&coo.to_csr()).is_err());
    }

    #[test]
    fn rhs_shape_checked() {
        let a = spd_band(4, 1);
        let f = SkylineMatrix::from_csr(&a).unwrap().factorize().unwrap();
        assert!(f.solve(&[1.0; 3]).is_err());
    }

    #[test]
    fn dense_spd_matches_lu_solution() {
        // Fully dense SPD matrix exercises maximal column heights.
        let n = 8;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            for j in 0..n {
                let v = if i == j {
                    n as f64
                } else {
                    1.0 / (1.0 + (i as f64 - j as f64).abs())
                };
                coo.push(i, j, v);
            }
        }
        let a = coo.to_csr();
        let b: Vec<f64> = (0..n).map(|i| (i as f64) - 3.0).collect();
        let x_sky = SkylineMatrix::from_csr(&a)
            .unwrap()
            .factorize()
            .unwrap()
            .solve(&b)
            .unwrap();
        let x_lu = a.to_dense().solve(&b).unwrap();
        for (u, v) in x_sky.iter().zip(&x_lu) {
            assert!((u - v).abs() < 1e-9, "{u} vs {v}");
        }
    }
}
