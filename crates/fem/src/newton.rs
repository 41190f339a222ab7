//! Linear-solver dispatch for the Newton loop, with phase-log recording.
//!
//! FEBio selects among PARDISO (sparse LDLᵀ), CG and FGMRES; so does this
//! module, each iterative solver with the one preconditioner the workloads
//! run it with. Every solve records the kernels it ran so the trace layer
//! can replay them.

use belenos_sparse::reorder::rcm;
use belenos_sparse::solver::cg::{self, CgOptions};
use belenos_sparse::solver::fgmres::{self, FgmresOptions};
use belenos_sparse::solver::ldl::LdlFactor;
use belenos_sparse::solver::precond::{Ilu0Precond, JacobiPrecond};
use belenos_sparse::CsrMatrix;
use belenos_trace::{KernelCall, PhaseLog, PrecondClass};
use std::sync::Arc;

use crate::Result;

/// Linear solver selection (FEBio's solver keyword).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinearSolver {
    /// Sparse LDLᵀ with symbolic reuse (the PARDISO analogue).
    Ldl,
    /// Jacobi-preconditioned conjugate gradient (SPD systems).
    Cg,
    /// ILU(0)-preconditioned restarted flexible GMRES (unsymmetric
    /// systems).
    Fgmres,
}

/// Cached symbolic/structure data reused across Newton iterations, and
/// the last numeric factor while its matrix is unchanged.
#[derive(Debug, Default)]
pub struct SolverCache {
    /// The LDLᵀ factor of the last pattern solved. It owns everything
    /// that depends on the pattern alone — the fill-reducing ordering
    /// (PARDISO computes one internally; so do we, via reverse
    /// Cuthill-McKee), L's structure and the visit plan — and reads the
    /// stiffness through that ordering where it lies, so no permuted copy
    /// of it exists.
    ldl: Option<LdlFactor>,
    factorizations: usize,
}

impl SolverCache {
    /// Fresh, empty cache.
    pub fn new() -> Self {
        SolverCache::default()
    }

    /// Numeric LDLᵀ factorizations run through this cache.
    pub(crate) fn factorizations(&self) -> usize {
        self.factorizations
    }
}

/// Solves `K du = r`, recording the kernels into `log`.
///
/// `changed` says whether some write may have changed `matrix` since the
/// last solve through `cache` (the [`crate::assembly::Assembler`] tracks
/// its writes). LDLᵀ refactors only then, or on the first solve over a
/// pattern; otherwise the factor it holds is of exactly this matrix. The
/// log records a factorization either way, as FEBio's iteration runs one.
/// A failed factorization drops the cached factor, so no later solve
/// reuses a half-written one. The iterative solvers ignore `changed`.
///
/// # Errors
///
/// Propagates factorization/convergence failures from the sparse substrate
/// (non-converged iterative solves are tolerated and return the best
/// iterate, matching FEBio's behaviour of continuing the Newton loop).
pub fn solve_linear(
    solver: LinearSolver,
    matrix: &CsrMatrix,
    changed: bool,
    rhs: &[f64],
    cache: &mut SolverCache,
    log: &mut PhaseLog,
) -> Result<Vec<f64>> {
    match solver {
        LinearSolver::Ldl => {
            let factor = match &mut cache.ldl {
                Some(factor) if factor.symbolic().is_for(matrix.pattern()) => {
                    if changed {
                        if let Err(e) = factor.refactorize(matrix) {
                            cache.ldl = None;
                            return Err(e.into());
                        }
                        cache.factorizations += 1;
                    }
                    factor
                }
                // First solve over this pattern: order, analyse, factor.
                slot => {
                    let factor = LdlFactor::with_ordering(matrix, rcm(matrix.pattern()))?;
                    cache.factorizations += 1;
                    slot.insert(factor)
                }
            };
            let sym = factor.symbolic();
            log.record(KernelCall::LdlFactor {
                col_ptr: Arc::clone(sym.l_col_ptr()),
                row_idx: Arc::clone(sym.l_row_idx()),
            });
            let x = factor.solve(rhs)?;
            log.record(KernelCall::LdlSolve {
                col_ptr: Arc::clone(sym.l_col_ptr()),
                row_idx: Arc::clone(sym.l_row_idx()),
            });
            Ok(x)
        }
        LinearSolver::Cg => {
            let opts = CgOptions {
                tol: 1e-9,
                max_iter: 4 * matrix.nrows().max(100),
            };
            let m = JacobiPrecond::new(matrix)?;
            let sol = cg::solve_preconditioned(matrix, rhs, &m, &opts)?;
            log.record(KernelCall::CgSolve {
                pattern: matrix.pattern_arc(),
                iterations: sol.iterations.max(1),
                precond: PrecondClass::Jacobi,
            });
            Ok(sol.x)
        }
        LinearSolver::Fgmres => {
            let opts = FgmresOptions {
                tol: 1e-9,
                restart: 30,
                max_outer: 60,
            };
            let m = Ilu0Precond::new(matrix)?;
            let sol = fgmres::solve_preconditioned(matrix, rhs, &m, &opts)?;
            log.record(KernelCall::FgmresSolve {
                pattern: matrix.pattern_arc(),
                iterations: sol.iterations.max(1),
                restart: opts.restart,
                precond: PrecondClass::Ilu0,
            });
            Ok(sol.x)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use belenos_sparse::{CooMatrix, SparseError};

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
    fn all_solvers_agree() {
        let a = spd(24);
        let x_true: Vec<f64> = (0..24).map(|i| ((i as f64) * 0.3).sin()).collect();
        let b = a.spmv(&x_true).unwrap();
        for solver in [LinearSolver::Ldl, LinearSolver::Cg, LinearSolver::Fgmres] {
            let mut cache = SolverCache::new();
            let mut log = PhaseLog::new();
            let x = solve_linear(solver, &a, true, &b, &mut cache, &mut log).unwrap();
            for (u, v) in x.iter().zip(&x_true) {
                assert!((u - v).abs() < 1e-6, "{solver:?}: {u} vs {v}");
            }
            assert!(!log.is_empty(), "{solver:?} recorded nothing");
        }
    }

    #[test]
    fn ldl_cache_reuses_symbolic() {
        let a = spd(16);
        let b = vec![1.0; 16];
        let mut cache = SolverCache::new();
        let mut log = PhaseLog::new();
        let structure = |cache: &SolverCache| {
            let sym = cache.ldl.as_ref().expect("ldl factor").symbolic();
            Arc::as_ptr(sym.l_col_ptr())
        };
        let first = solve_linear(LinearSolver::Ldl, &a, true, &b, &mut cache, &mut log).unwrap();
        let before = structure(&cache);
        let again = solve_linear(LinearSolver::Ldl, &a, false, &b, &mut cache, &mut log).unwrap();
        assert_eq!(before, structure(&cache), "factor structure must be cached");
        assert_eq!(log.len(), 4); // factor + solve, twice

        // The unchanged matrix reuses its numeric factor too; a changed
        // one is refactored, with the structure kept.
        assert_eq!(cache.factorizations(), 1);
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&first), bits(&again));
        let mut scaled = a.clone();
        scaled.values_mut()[0] *= 2.0;
        let x = solve_linear(LinearSolver::Ldl, &scaled, true, &b, &mut cache, &mut log).unwrap();
        assert_eq!(cache.factorizations(), 2);
        assert_eq!(before, structure(&cache));
        let fresh = solve_linear(
            LinearSolver::Ldl,
            &scaled,
            true,
            &b,
            &mut SolverCache::new(),
            &mut log,
        );
        assert_eq!(
            bits(&x),
            bits(&fresh.unwrap()),
            "a refactor is a fresh factor"
        );
    }

    #[test]
    fn a_failed_refactorization_is_not_reused() {
        // Over `spd`'s pattern: row and column 9 all zero, so elimination
        // writes part of the factor and then meets an exactly zero pivot.
        let a = spd(16);
        let b = vec![1.0; 16];
        let mut singular = a.clone();
        let pattern = a.pattern();
        for r in 0..16 {
            for k in pattern.row_ptr()[r]..pattern.row_ptr()[r + 1] {
                if r == 9 || pattern.col_idx()[k] == 9 {
                    singular.values_mut()[k] = 0.0;
                }
            }
        }
        let mut cache = SolverCache::new();
        let mut log = PhaseLog::new();
        solve_linear(LinearSolver::Ldl, &a, true, &b, &mut cache, &mut log).unwrap();
        for attempt in 0..2 {
            let result = solve_linear(LinearSolver::Ldl, &singular, true, &b, &mut cache, &mut log);
            assert!(
                matches!(
                    result,
                    Err(crate::FemError::Linear(SparseError::SingularPivot { .. }))
                ),
                "attempt {attempt}: {result:?}"
            );
        }
        let x = solve_linear(LinearSolver::Ldl, &a, true, &b, &mut cache, &mut log).unwrap();
        let r = a.spmv(&x).unwrap();
        assert!(r.iter().zip(&b).all(|(ri, bi)| (ri - bi).abs() < 1e-12));
    }

    /// Each solver records its own kernels, with the one preconditioner
    /// it always runs.
    #[test]
    fn recorded_kernels_match_solver() {
        let a = spd(8);
        let b = vec![1.0; 8];
        for solver in [LinearSolver::Ldl, LinearSolver::Cg, LinearSolver::Fgmres] {
            let mut cache = SolverCache::new();
            let mut log = PhaseLog::new();
            solve_linear(solver, &a, true, &b, &mut cache, &mut log).unwrap();
            let calls = log.calls();
            let expected = match solver {
                LinearSolver::Ldl => matches!(
                    calls,
                    [KernelCall::LdlFactor { .. }, KernelCall::LdlSolve { .. }]
                ),
                LinearSolver::Cg => matches!(
                    calls,
                    [KernelCall::CgSolve {
                        precond: PrecondClass::Jacobi,
                        ..
                    }]
                ),
                LinearSolver::Fgmres => matches!(
                    calls,
                    [KernelCall::FgmresSolve {
                        restart: 30,
                        precond: PrecondClass::Ilu0,
                        ..
                    }]
                ),
            };
            assert!(expected, "{solver:?} recorded {calls:?}");
        }
    }
}
