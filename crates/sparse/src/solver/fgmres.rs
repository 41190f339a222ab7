//! Flexible GMRES with restarts — FEBio's `FGMRES` solver analogue.
//!
//! The Arnoldi process layers dense orthogonalization (BLAS-1/2) on top of
//! the sparse SpMV, producing the mixed dense/sparse hotspot profile the
//! paper's Figure 4 attributes to "MKL BLAS" in fluid and biphasic models.

use super::precond::Preconditioner;
use super::IterativeSolution;
use crate::csr::{dot, norm2, CsrMatrix};
use crate::{Result, SparseError};

/// Options controlling an FGMRES solve.
#[derive(Debug, Clone, PartialEq)]
pub struct FgmresOptions {
    /// Relative residual tolerance (‖r‖/‖b‖).
    pub tol: f64,
    /// Krylov subspace dimension between restarts.
    pub restart: usize,
    /// Maximum number of outer (restart) cycles.
    pub max_outer: usize,
}

impl Default for FgmresOptions {
    fn default() -> Self {
        FgmresOptions {
            tol: 1e-10,
            restart: 30,
            max_outer: 100,
        }
    }
}

/// Solves `A x = b` with restarted, right-preconditioned flexible GMRES.
///
/// Flexible means the preconditioner may change between iterations (here it
/// is fixed, but the algorithm stores the preconditioned vectors `Z` as
/// FGMRES requires, reproducing its memory footprint).
///
/// # Errors
///
/// [`SparseError::NotSquare`] or [`SparseError::DimensionMismatch`]; a
/// non-converged run returns `Ok` with `converged == false`.
pub fn solve_preconditioned(
    a: &CsrMatrix,
    b: &[f64],
    m: &dyn Preconditioner,
    opts: &FgmresOptions,
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
    if opts.restart == 0 {
        return Err(SparseError::InvalidInput(
            "restart dimension must be > 0".into(),
        ));
    }
    let n = a.nrows();
    let norm_b = norm2(b);
    if norm_b == 0.0 {
        return Ok(IterativeSolution {
            x: vec![0.0; n],
            iterations: 0,
            residual: 0.0,
            converged: true,
        });
    }
    let mrestart = opts.restart;
    let mut x = vec![0.0; n];
    let mut total_iters = 0usize;

    for _outer in 0..opts.max_outer {
        // r = b - A x
        let ax = a.spmv(&x)?;
        let mut r: Vec<f64> = b.iter().zip(&ax).map(|(bi, ai)| bi - ai).collect();
        let beta = norm2(&r);
        if beta / norm_b < opts.tol {
            return Ok(IterativeSolution {
                x,
                iterations: total_iters,
                residual: beta / norm_b,
                converged: true,
            });
        }
        for ri in &mut r {
            *ri /= beta;
        }
        // Krylov basis V (m+1 vectors) and preconditioned basis Z (m vectors).
        let mut v: Vec<Vec<f64>> = Vec::with_capacity(mrestart + 1);
        v.push(r);
        let mut z: Vec<Vec<f64>> = Vec::with_capacity(mrestart);
        // Hessenberg in column-major: h[j] has j+2 entries.
        let mut h: Vec<Vec<f64>> = Vec::with_capacity(mrestart);
        // Givens rotations.
        let mut cs = vec![0.0f64; mrestart];
        let mut sn = vec![0.0f64; mrestart];
        let mut g = vec![0.0f64; mrestart + 1];
        g[0] = beta;
        let mut converged_at: Option<usize> = None;

        for j in 0..mrestart {
            total_iters += 1;
            let zj = m.apply(&v[j])?;
            let mut w = a.spmv(&zj)?;
            z.push(zj);
            // Modified Gram-Schmidt.
            let mut hj = vec![0.0f64; j + 2];
            for (i, vi) in v.iter().enumerate().take(j + 1) {
                let hij = dot(&w, vi);
                hj[i] = hij;
                for (wk, vk) in w.iter_mut().zip(vi) {
                    *wk -= hij * vk;
                }
            }
            let hlast = norm2(&w);
            hj[j + 1] = hlast;
            // Apply previous Givens rotations to the new column.
            for i in 0..j {
                let t = cs[i] * hj[i] + sn[i] * hj[i + 1];
                hj[i + 1] = -sn[i] * hj[i] + cs[i] * hj[i + 1];
                hj[i] = t;
            }
            // New rotation to zero hj[j+1].
            let denom = (hj[j] * hj[j] + hj[j + 1] * hj[j + 1]).sqrt();
            if denom == 0.0 {
                cs[j] = 1.0;
                sn[j] = 0.0;
            } else {
                cs[j] = hj[j] / denom;
                sn[j] = hj[j + 1] / denom;
            }
            hj[j] = cs[j] * hj[j] + sn[j] * hj[j + 1];
            hj[j + 1] = 0.0;
            g[j + 1] = -sn[j] * g[j];
            g[j] *= cs[j];
            h.push(hj);
            let res = g[j + 1].abs() / norm_b;
            if hlast > 1e-300 {
                let mut vnext = w;
                for vk in &mut vnext {
                    *vk /= hlast;
                }
                v.push(vnext);
            }
            if res < opts.tol || hlast <= 1e-300 {
                converged_at = Some(j + 1);
                break;
            }
        }

        // Solve the small triangular system and update x with Z y.
        let k = converged_at.unwrap_or(mrestart);
        let mut y = vec![0.0f64; k];
        for i in (0..k).rev() {
            let mut acc = g[i];
            for jj in i + 1..k {
                acc -= h[jj][i] * y[jj];
            }
            y[i] = acc / h[i][i];
        }
        for (jj, yj) in y.iter().enumerate() {
            for (xi, zi) in x.iter_mut().zip(&z[jj]) {
                *xi += yj * zi;
            }
        }
        if converged_at.is_some() {
            let res = a
                .spmv(&x)?
                .iter()
                .zip(b)
                .map(|(ai, bi)| (bi - ai) * (bi - ai))
                .sum::<f64>()
                .sqrt()
                / norm_b;
            if res < opts.tol * 10.0 {
                return Ok(IterativeSolution {
                    x,
                    iterations: total_iters,
                    residual: res,
                    converged: true,
                });
            }
        }
    }
    let res = {
        let ax = a.spmv(&x)?;
        ax.iter()
            .zip(b)
            .map(|(ai, bi)| (bi - ai) * (bi - ai))
            .sum::<f64>()
            .sqrt()
            / norm_b
    };
    Ok(IterativeSolution {
        x,
        iterations: total_iters,
        residual: res,
        converged: res < opts.tol,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::precond::Ilu0Precond;
    use crate::solver::Plain;
    use crate::CooMatrix;

    /// The unpreconditioned solve, through an identity `M`.
    fn solve(a: &CsrMatrix, b: &[f64], opts: &FgmresOptions) -> Result<IterativeSolution> {
        solve_preconditioned(a, b, &Plain, opts)
    }

    fn convection_diffusion(nx: usize, wind: f64) -> CsrMatrix {
        // Unsymmetric 1D convection-diffusion: tests GMRES where CG fails.
        let n = nx;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0 + wind.abs() * 0.5);
            if i > 0 {
                coo.push(i, i - 1, -1.0 - wind);
            }
            if i + 1 < n {
                coo.push(i, i + 1, -1.0 + wind);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn fgmres_solves_unsymmetric_system() {
        let a = convection_diffusion(50, 0.3);
        let x_true: Vec<f64> = (0..50).map(|i| (i as f64 * 0.1).sin()).collect();
        let b = a.spmv(&x_true).unwrap();
        let sol = solve(&a, &b, &FgmresOptions::default()).unwrap();
        assert!(sol.converged, "residual {}", sol.residual);
        for (u, v) in sol.x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-6, "{u} vs {v}");
        }
    }

    #[test]
    fn restart_smaller_than_dim_still_converges() {
        let a = convection_diffusion(40, 0.2);
        let b = vec![1.0; 40];
        let sol = solve(
            &a,
            &b,
            &FgmresOptions {
                tol: 1e-9,
                restart: 5,
                max_outer: 200,
            },
        )
        .unwrap();
        assert!(sol.converged, "residual {}", sol.residual);
        let ax = a.spmv(&sol.x).unwrap();
        let residual = ax
            .iter()
            .zip(&b)
            .map(|(r, bi)| (bi - r).abs())
            .fold(0.0, f64::max);
        assert!(residual < 1e-6, "residual {residual}");
    }

    #[test]
    fn ilu_preconditioning_cuts_iterations() {
        let a = convection_diffusion(80, 0.4);
        let b = vec![1.0; 80];
        let plain = solve(&a, &b, &FgmresOptions::default()).unwrap();
        let ilu = Ilu0Precond::new(&a).unwrap();
        let pre = solve_preconditioned(&a, &b, &ilu, &FgmresOptions::default()).unwrap();
        assert!(pre.converged && plain.converged);
        assert!(
            pre.iterations <= plain.iterations,
            "ilu {} vs plain {}",
            pre.iterations,
            plain.iterations
        );
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let a = convection_diffusion(10, 0.1);
        let sol = solve(&a, &[0.0; 10], &FgmresOptions::default()).unwrap();
        assert!(sol.converged);
        assert_eq!(sol.iterations, 0);
    }

    #[test]
    fn invalid_restart_rejected() {
        let a = convection_diffusion(4, 0.0);
        let err = solve(
            &a,
            &[1.0; 4],
            &FgmresOptions {
                tol: 1e-8,
                restart: 0,
                max_outer: 1,
            },
        );
        assert!(err.is_err());
    }

    #[test]
    fn identity_system_converges_in_one_iteration() {
        let a = CsrMatrix::identity(12);
        let b: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let sol = solve(&a, &b, &FgmresOptions::default()).unwrap();
        assert!(sol.converged);
        assert!(sol.iterations <= 1);
        for (u, v) in sol.x.iter().zip(&b) {
            assert!((u - v).abs() < 1e-10);
        }
    }
}
