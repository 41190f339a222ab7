//! Preconditioners for the iterative solvers.
//!
//! FEBio's iterative paths use diagonal (Jacobi) and incomplete-factorization
//! preconditioning; ILU(0)'s triangular solves contribute the long dependent
//! chains that show up as core-bound backend stalls in the paper's profiles.

use crate::csr::CsrMatrix;
use crate::{Result, SparseError};

/// A left preconditioner: applies `z = M⁻¹ r`.
pub trait Preconditioner {
    /// Applies the preconditioner to `r`, returning `z = M⁻¹ r`.
    ///
    /// # Errors
    ///
    /// Implementations return [`SparseError::DimensionMismatch`] when `r`
    /// has the wrong length.
    fn apply(&self, r: &[f64]) -> Result<Vec<f64>>;
}

/// Jacobi (diagonal) preconditioner.
#[derive(Debug, Clone)]
pub struct JacobiPrecond {
    inv_diag: Vec<f64>,
}

impl JacobiPrecond {
    /// Builds from the matrix diagonal.
    ///
    /// # Errors
    ///
    /// [`SparseError::SingularPivot`] if any diagonal entry is zero.
    pub fn new(a: &CsrMatrix) -> Result<Self> {
        let diag = a.diagonal();
        let mut inv = Vec::with_capacity(diag.len());
        for (i, d) in diag.iter().enumerate() {
            if d.abs() < 1e-300 {
                return Err(SparseError::SingularPivot {
                    index: i,
                    value: *d,
                });
            }
            inv.push(1.0 / d);
        }
        Ok(JacobiPrecond { inv_diag: inv })
    }
}

impl Preconditioner for JacobiPrecond {
    fn apply(&self, r: &[f64]) -> Result<Vec<f64>> {
        if r.len() != self.inv_diag.len() {
            return Err(SparseError::DimensionMismatch(format!(
                "jacobi preconditioner dim {} applied to vector of {}",
                self.inv_diag.len(),
                r.len()
            )));
        }
        Ok(r.iter()
            .zip(&self.inv_diag)
            .map(|(ri, di)| ri * di)
            .collect())
    }
}

/// Zero-fill incomplete LU factorization, `A ≈ L U` on the pattern of `A`.
///
/// Applies via forward/backward triangular sweeps — the classic dependent
/// chain that limits ILP in sparse solver phases.
#[derive(Debug, Clone)]
pub struct Ilu0Precond {
    // LU factors stored together on A's pattern: strictly-lower entries hold
    // L (unit diagonal implied), diagonal + upper hold U.
    lu: CsrMatrix,
}

impl Ilu0Precond {
    /// Computes ILU(0) of a square matrix.
    ///
    /// # Errors
    ///
    /// [`SparseError::NotSquare`] or [`SparseError::SingularPivot`] when a
    /// zero pivot appears during elimination.
    pub fn new(a: &CsrMatrix) -> Result<Self> {
        if a.nrows() != a.ncols() {
            return Err(SparseError::NotSquare {
                nrows: a.nrows(),
                ncols: a.ncols(),
            });
        }
        let n = a.nrows();
        let mut lu = a.clone();
        let pattern = lu.pattern_arc();
        let rp = pattern.row_ptr().to_vec();
        let ci = pattern.col_idx().to_vec();
        // Position of the diagonal within each row.
        let mut diag_pos = vec![usize::MAX; n];
        for i in 0..n {
            for k in rp[i]..rp[i + 1] {
                if ci[k] as usize == i {
                    diag_pos[i] = k;
                }
            }
            if diag_pos[i] == usize::MAX {
                return Err(SparseError::SingularPivot {
                    index: i,
                    value: 0.0,
                });
            }
        }
        // IKJ Gaussian elimination restricted to the pattern.
        let mut colmap = vec![usize::MAX; n]; // column -> position in row i
        for i in 0..n {
            for k in rp[i]..rp[i + 1] {
                colmap[ci[k] as usize] = k;
            }
            // Eliminate using rows k < i present in row i's lower part.
            for kk in rp[i]..rp[i + 1] {
                let k = ci[kk] as usize;
                if k >= i {
                    break;
                }
                let pivot = lu.values()[diag_pos[k]];
                if pivot.abs() < 1e-300 {
                    return Err(SparseError::SingularPivot {
                        index: k,
                        value: pivot,
                    });
                }
                let factor = lu.values()[kk] / pivot;
                lu.values_mut()[kk] = factor;
                // Subtract factor * U(k, j) for j > k, only where (i, j) exists.
                for jj in diag_pos[k] + 1..rp[k + 1] {
                    let j = ci[jj] as usize;
                    let pos = colmap[j];
                    if pos != usize::MAX {
                        let ukj = lu.values()[jj];
                        lu.values_mut()[pos] -= factor * ukj;
                    }
                }
            }
            for k in rp[i]..rp[i + 1] {
                colmap[ci[k] as usize] = usize::MAX;
            }
            let d = lu.values()[diag_pos[i]];
            if d.abs() < 1e-300 {
                return Err(SparseError::SingularPivot { index: i, value: d });
            }
        }
        Ok(Ilu0Precond { lu })
    }

    /// Shared factor matrix (for tracing / inspection).
    pub fn factors(&self) -> &CsrMatrix {
        &self.lu
    }
}

impl Preconditioner for Ilu0Precond {
    fn apply(&self, r: &[f64]) -> Result<Vec<f64>> {
        let n = self.lu.nrows();
        if r.len() != n {
            return Err(SparseError::DimensionMismatch(format!(
                "ilu0 preconditioner dim {n} applied to vector of {}",
                r.len()
            )));
        }
        let rp = self.lu.pattern().row_ptr();
        let ci = self.lu.pattern().col_idx();
        let v = self.lu.values();
        // Forward solve L y = r (unit diagonal).
        let mut y = r.to_vec();
        for i in 0..n {
            let mut acc = y[i];
            for k in rp[i]..rp[i + 1] {
                let j = ci[k] as usize;
                if j >= i {
                    break;
                }
                acc -= v[k] * y[j];
            }
            y[i] = acc;
        }
        // Backward solve U z = y.
        let mut z = y;
        for i in (0..n).rev() {
            let mut acc = z[i];
            let mut diag = 0.0;
            for k in rp[i]..rp[i + 1] {
                let j = ci[k] as usize;
                if j < i {
                    continue;
                }
                if j == i {
                    diag = v[k];
                } else {
                    acc -= v[k] * z[j];
                }
            }
            z[i] = acc / diag;
        }
        Ok(z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    fn spd(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0);
            if i > 0 {
                coo.push(i, i - 1, -1.0);
                coo.push(i - 1, i, -1.0);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn jacobi_divides_by_diagonal() {
        let a = spd(4);
        let p = JacobiPrecond::new(&a).unwrap();
        let z = p.apply(&[4.0, 8.0, 4.0, 8.0]).unwrap();
        assert_eq!(z, vec![1.0, 2.0, 1.0, 2.0]);
    }

    #[test]
    fn jacobi_rejects_zero_diagonal() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(1, 0, 1.0);
        coo.push(1, 1, 0.0);
        let a = coo.to_csr();
        assert!(matches!(
            JacobiPrecond::new(&a),
            Err(SparseError::SingularPivot { .. })
        ));
    }

    #[test]
    fn ilu0_on_tridiagonal_is_exact() {
        // For tridiagonal matrices ILU(0) == full LU, so M⁻¹ A = I.
        let a = spd(8);
        let m = Ilu0Precond::new(&a).unwrap();
        let x_true: Vec<f64> = (0..8).map(|i| (i as f64).cos()).collect();
        let b = a.spmv(&x_true).unwrap();
        let x = m.apply(&b).unwrap();
        for (u, v) in x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-12, "{u} vs {v}");
        }
    }

    #[test]
    fn ilu0_apply_reduces_residual_on_general_pattern() {
        // 2D 5-point Laplacian (pattern has fill, so ILU(0) is inexact but
        // must still be a contraction-quality preconditioner).
        let nx = 5;
        let n = nx * nx;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..nx {
            for j in 0..nx {
                let p = i * nx + j;
                coo.push(p, p, 4.0);
                if i > 0 {
                    coo.push(p, p - nx, -1.0);
                }
                if i + 1 < nx {
                    coo.push(p, p + nx, -1.0);
                }
                if j > 0 {
                    coo.push(p, p - 1, -1.0);
                }
                if j + 1 < nx {
                    coo.push(p, p + 1, -1.0);
                }
            }
        }
        let a = coo.to_csr();
        let m = Ilu0Precond::new(&a).unwrap();
        let x_true = vec![1.0; n];
        let b = a.spmv(&x_true).unwrap();
        let z = m.apply(&b).unwrap();
        // One preconditioned Richardson step must shrink the residual:
        // ‖b - A M⁻¹ b‖ < ‖b‖ (spectral radius of I - A M⁻¹ below 1).
        let az = a.spmv(&z).unwrap();
        let res1: f64 = b
            .iter()
            .zip(&az)
            .map(|(bi, ai)| (bi - ai) * (bi - ai))
            .sum::<f64>()
            .sqrt();
        let res0: f64 = b.iter().map(|bi| bi * bi).sum::<f64>().sqrt();
        assert!(res1 < 0.6 * res0, "ilu0 not contracting: {res1} vs {res0}");
    }

    #[test]
    fn ilu0_rejects_nonsquare() {
        let mut coo = CooMatrix::new(2, 3);
        coo.push(0, 0, 1.0);
        let a = coo.to_csr();
        assert!(matches!(
            Ilu0Precond::new(&a),
            Err(SparseError::NotSquare { .. })
        ));
    }

    #[test]
    fn ilu0_rejects_missing_diagonal() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 1.0);
        let a = coo.to_csr();
        assert!(Ilu0Precond::new(&a).is_err());
    }
}
