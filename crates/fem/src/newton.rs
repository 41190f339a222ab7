//! Linear-solver dispatch for the Newton loop, with phase-log recording.
//!
//! FEBio selects among PARDISO (sparse LDLᵀ), Skyline, CG and FGMRES; the
//! same choice exists here, and every solve records the kernels it ran so
//! the trace layer can replay them.

use belenos_sparse::reorder::{rcm, MatrixGather, Permutation};
use belenos_sparse::solver::cg::{self, CgOptions};
use belenos_sparse::solver::fgmres::{self, FgmresOptions};
use belenos_sparse::solver::ldl::LdlFactor;
use belenos_sparse::solver::precond::{Ilu0Precond, JacobiPrecond};
use belenos_sparse::solver::skyline::SkylineMatrix;
use belenos_sparse::CsrMatrix;
use belenos_trace::{KernelCall, PhaseLog, PrecondClass};
use std::sync::Arc;

use crate::Result;

/// Preconditioner selection for iterative solvers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrecondKind {
    /// Unpreconditioned.
    None,
    /// Diagonal (Jacobi).
    Jacobi,
    /// Incomplete LU with zero fill.
    Ilu0,
}

impl PrecondKind {
    fn to_trace(self) -> PrecondClass {
        match self {
            PrecondKind::None => PrecondClass::None,
            PrecondKind::Jacobi => PrecondClass::Jacobi,
            PrecondKind::Ilu0 => PrecondClass::Ilu0,
        }
    }
}

/// Linear solver selection (FEBio's solver keyword).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinearSolver {
    /// Sparse LDLᵀ with symbolic reuse (the PARDISO analogue).
    Ldl,
    /// Skyline (profile) direct solver.
    Skyline,
    /// Conjugate gradient (SPD systems).
    Cg(PrecondKind),
    /// Restarted flexible GMRES (unsymmetric systems).
    Fgmres(PrecondKind),
}

/// Everything about an LDLᵀ solve that depends on the pattern alone: how
/// the permuted matrix is filled, and the factor whose structure and work
/// vectors each refactorization reuses.
#[derive(Debug)]
struct LdlState {
    gather: MatrixGather,
    factor: LdlFactor,
}

/// Cached symbolic/structure data reused across Newton iterations.
#[derive(Debug, Default)]
pub struct SolverCache {
    ldl: Option<LdlState>,
    skyline_heights: Option<Arc<Vec<usize>>>,
    /// Fill-reducing permutation (PARDISO computes one internally; so do
    /// we, via reverse Cuthill-McKee).
    perm: Option<Permutation>,
}

impl SolverCache {
    /// Fresh, empty cache.
    pub fn new() -> Self {
        SolverCache::default()
    }
}

/// Solves `K du = r`, recording the kernels into `log`.
///
/// # Errors
///
/// Propagates factorization/convergence failures from the sparse substrate
/// (non-converged iterative solves are tolerated and return the best
/// iterate, matching FEBio's behaviour of continuing the Newton loop).
pub fn solve_linear(
    solver: LinearSolver,
    matrix: &CsrMatrix,
    rhs: &[f64],
    cache: &mut SolverCache,
    log: &mut PhaseLog,
) -> Result<Vec<f64>> {
    match solver {
        LinearSolver::Ldl => {
            let state = match &mut cache.ldl {
                Some(state) if state.gather.is_for(matrix.pattern()) => {
                    let pm = state.gather.apply(matrix);
                    state.factor.refactorize(pm)?;
                    state
                }
                // First solve over this pattern: order, plan, analyse.
                slot => {
                    let perm = cache.perm.insert(rcm(matrix.pattern()));
                    let mut gather = perm.gather_for(&matrix.pattern_arc())?;
                    let factor = LdlFactor::new(gather.apply(matrix))?;
                    slot.insert(LdlState { gather, factor })
                }
            };
            let perm = cache.perm.as_ref().expect("set with the state");
            let pb = perm.apply_vec(rhs);
            let sym = state.factor.symbolic();
            log.record(KernelCall::LdlFactor {
                col_ptr: Arc::clone(sym.l_col_ptr()),
                row_idx: Arc::clone(sym.l_row_idx()),
            });
            let y = state.factor.solve(&pb)?;
            log.record(KernelCall::LdlSolve {
                col_ptr: Arc::clone(sym.l_col_ptr()),
                row_idx: Arc::clone(sym.l_row_idx()),
            });
            Ok(perm.apply_inv_vec(&y))
        }
        LinearSolver::Skyline => {
            if cache.perm.is_none() {
                cache.perm = Some(rcm(matrix.pattern()));
            }
            let perm = cache.perm.as_ref().expect("just set");
            let pm = perm.apply_matrix(matrix)?;
            let pb = perm.apply_vec(rhs);
            let sky = SkylineMatrix::from_csr(&pm)?;
            if cache.skyline_heights.is_none() {
                cache.skyline_heights = Some(Arc::new(sky.heights().to_vec()));
            }
            let h = cache.skyline_heights.as_ref().expect("just set");
            log.record(KernelCall::SkylineFactor {
                heights: Arc::clone(h),
            });
            let factor = sky.factorize()?;
            let y = factor.solve(&pb)?;
            log.record(KernelCall::SkylineSolve {
                heights: Arc::clone(h),
            });
            Ok(perm.apply_inv_vec(&y))
        }
        LinearSolver::Cg(pk) => {
            let opts = CgOptions {
                tol: 1e-9,
                max_iter: 4 * matrix.nrows().max(100),
            };
            let sol = match pk {
                PrecondKind::None => cg::solve(matrix, rhs, &opts)?,
                PrecondKind::Jacobi => {
                    let m = JacobiPrecond::new(matrix)?;
                    cg::solve_preconditioned(matrix, rhs, &m, &opts)?
                }
                PrecondKind::Ilu0 => {
                    let m = Ilu0Precond::new(matrix)?;
                    cg::solve_preconditioned(matrix, rhs, &m, &opts)?
                }
            };
            log.record(KernelCall::CgSolve {
                pattern: matrix.pattern_arc(),
                iterations: sol.iterations.max(1),
                precond: pk.to_trace(),
            });
            Ok(sol.x)
        }
        LinearSolver::Fgmres(pk) => {
            let opts = FgmresOptions {
                tol: 1e-9,
                restart: 30,
                max_outer: 60,
            };
            let sol = match pk {
                PrecondKind::None => fgmres::solve(matrix, rhs, &opts)?,
                PrecondKind::Jacobi => {
                    let m = JacobiPrecond::new(matrix)?;
                    fgmres::solve_preconditioned(matrix, rhs, &m, &opts)?
                }
                PrecondKind::Ilu0 => {
                    let m = Ilu0Precond::new(matrix)?;
                    fgmres::solve_preconditioned(matrix, rhs, &m, &opts)?
                }
            };
            log.record(KernelCall::FgmresSolve {
                pattern: matrix.pattern_arc(),
                iterations: sol.iterations.max(1),
                restart: 30,
                precond: pk.to_trace(),
            });
            Ok(sol.x)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use belenos_sparse::CooMatrix;

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
        for solver in [
            LinearSolver::Ldl,
            LinearSolver::Skyline,
            LinearSolver::Cg(PrecondKind::Jacobi),
            LinearSolver::Cg(PrecondKind::Ilu0),
            LinearSolver::Fgmres(PrecondKind::Ilu0),
        ] {
            let mut cache = SolverCache::new();
            let mut log = PhaseLog::new();
            let x = solve_linear(solver, &a, &b, &mut cache, &mut log).unwrap();
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
            let sym = cache.ldl.as_ref().expect("ldl state").factor.symbolic();
            Arc::as_ptr(sym.l_col_ptr())
        };
        solve_linear(LinearSolver::Ldl, &a, &b, &mut cache, &mut log).unwrap();
        let before = structure(&cache);
        solve_linear(LinearSolver::Ldl, &a, &b, &mut cache, &mut log).unwrap();
        assert_eq!(before, structure(&cache), "factor structure must be cached");
        assert_eq!(log.len(), 4); // factor + solve, twice
    }

    #[test]
    fn recorded_kernels_match_solver() {
        let a = spd(8);
        let b = vec![1.0; 8];
        let mut cache = SolverCache::new();
        let mut log = PhaseLog::new();
        solve_linear(
            LinearSolver::Cg(PrecondKind::None),
            &a,
            &b,
            &mut cache,
            &mut log,
        )
        .unwrap();
        assert!(matches!(log.calls()[0], KernelCall::CgSolve { .. }));
    }
}
