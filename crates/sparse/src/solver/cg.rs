//! Preconditioned conjugate gradient (FEBio's `RCICG` analogue).
//!
//! CG's per-iteration profile — one SpMV, two dot products, three axpys —
//! is the memory-bandwidth-bound inner loop that dominates the iterative
//! solver phases the Belenos paper profiles.

use super::precond::Preconditioner;
use super::IterativeSolution;
use crate::csr::{axpy, dot, CsrMatrix};
use crate::{Result, SparseError};

/// Options controlling a CG solve.
#[derive(Debug, Clone, PartialEq)]
pub struct CgOptions {
    /// Relative residual tolerance (‖r‖/‖b‖).
    pub tol: f64,
    /// Maximum number of iterations.
    pub max_iter: usize,
}

impl Default for CgOptions {
    fn default() -> Self {
        CgOptions {
            tol: 1e-10,
            max_iter: 2000,
        }
    }
}

/// Solves `A x = b` with left-preconditioned CG.
///
/// # Errors
///
/// [`SparseError::NotSquare`] / [`SparseError::DimensionMismatch`] for shape
/// problems; preconditioner failures propagate. A non-converged run
/// returns `Ok` with `converged == false` so callers can inspect the
/// partial solution (FEBio logs and continues).
pub fn solve_preconditioned(
    a: &CsrMatrix,
    b: &[f64],
    m: &dyn Preconditioner,
    opts: &CgOptions,
) -> Result<IterativeSolution> {
    if a.nrows() != a.ncols() {
        return Err(SparseError::NotSquare {
            nrows: a.nrows(),
            ncols: a.ncols(),
        });
    }
    if b.len() != a.nrows() {
        return Err(SparseError::DimensionMismatch(format!(
            "matrix is {}x{}, rhs has {} entries",
            a.nrows(),
            a.ncols(),
            b.len()
        )));
    }
    let n = a.nrows();
    let norm_b = dot(b, b).sqrt();
    if norm_b == 0.0 {
        return Ok(IterativeSolution {
            x: vec![0.0; n],
            iterations: 0,
            residual: 0.0,
            converged: true,
        });
    }
    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let mut z = m.apply(&r)?;
    let mut p = z.clone();
    let mut rz = dot(&r, &z);
    let mut ap = vec![0.0; n];
    for it in 0..opts.max_iter {
        a.spmv_into(&p, &mut ap)?;
        let pap = dot(&p, &ap);
        if pap <= 0.0 {
            // Matrix is not SPD along p; report the current state honestly.
            let res = dot(&r, &r).sqrt() / norm_b;
            return Ok(IterativeSolution {
                x,
                iterations: it,
                residual: res,
                converged: false,
            });
        }
        let alpha = rz / pap;
        axpy(alpha, &p, &mut x);
        axpy(-alpha, &ap, &mut r);
        let res = dot(&r, &r).sqrt() / norm_b;
        if res < opts.tol {
            return Ok(IterativeSolution {
                x,
                iterations: it + 1,
                residual: res,
                converged: true,
            });
        }
        z = m.apply(&r)?;
        let rz_new = dot(&r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        for (pi, zi) in p.iter_mut().zip(&z) {
            *pi = zi + beta * *pi;
        }
    }
    let res = dot(&r, &r).sqrt() / norm_b;
    Ok(IterativeSolution {
        x,
        iterations: opts.max_iter,
        residual: res,
        converged: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::precond::{Ilu0Precond, JacobiPrecond};
    use crate::solver::Plain;
    use crate::CooMatrix;

    /// The unpreconditioned solve, through an identity `M`.
    fn solve(a: &CsrMatrix, b: &[f64], opts: &CgOptions) -> Result<IterativeSolution> {
        solve_preconditioned(a, b, &Plain, opts)
    }

    fn lap2d(nx: usize) -> CsrMatrix {
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
        coo.to_csr()
    }

    #[test]
    fn cg_solves_laplacian() {
        let a = lap2d(10);
        let x_true: Vec<f64> = (0..100).map(|i| ((i % 7) as f64) - 3.0).collect();
        let b = a.spmv(&x_true).unwrap();
        let sol = solve(&a, &b, &CgOptions::default()).unwrap();
        assert!(sol.converged, "residual {}", sol.residual);
        for (u, v) in sol.x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-6);
        }
    }

    #[test]
    fn zero_rhs_returns_zero_immediately() {
        let a = lap2d(4);
        let sol = solve(&a, &[0.0; 16], &CgOptions::default()).unwrap();
        assert!(sol.converged);
        assert_eq!(sol.iterations, 0);
        assert!(sol.x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn preconditioning_reduces_iterations() {
        let a = lap2d(16);
        let b = vec![1.0; 256];
        let plain = solve(&a, &b, &CgOptions::default()).unwrap();
        let ilu = Ilu0Precond::new(&a).unwrap();
        let pre = solve_preconditioned(&a, &b, &ilu, &CgOptions::default()).unwrap();
        assert!(pre.converged && plain.converged);
        assert!(
            pre.iterations < plain.iterations,
            "ilu {} vs plain {}",
            pre.iterations,
            plain.iterations
        );
    }

    #[test]
    fn jacobi_preconditioned_cg_converges() {
        let a = lap2d(8);
        let b = vec![1.0; 64];
        let jac = JacobiPrecond::new(&a).unwrap();
        let sol = solve_preconditioned(&a, &b, &jac, &CgOptions::default()).unwrap();
        assert!(sol.converged);
        let ax = a.spmv(&sol.x).unwrap();
        let residual = ax
            .iter()
            .zip(&b)
            .map(|(r, bi)| (bi - r).abs())
            .fold(0.0, f64::max);
        assert!(residual < 1e-7, "residual {residual}");
    }

    #[test]
    fn non_spd_matrix_reports_not_converged() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, -1.0); // indefinite
        let a = coo.to_csr();
        let sol = solve(&a, &[1.0, 1.0], &CgOptions::default()).unwrap();
        assert!(!sol.converged);
    }

    #[test]
    fn iteration_budget_respected() {
        let a = lap2d(16);
        let b = vec![1.0; 256];
        let sol = solve(
            &a,
            &b,
            &CgOptions {
                tol: 1e-14,
                max_iter: 3,
            },
        )
        .unwrap();
        assert!(!sol.converged);
        assert_eq!(sol.iterations, 3);
    }

    #[test]
    fn shape_errors() {
        let a = lap2d(3);
        assert!(solve(&a, &[1.0; 5], &CgOptions::default()).is_err());
    }
}
