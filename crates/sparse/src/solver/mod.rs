//! Linear solvers: the MKL PARDISO / FGMRES / CG substitutes.
//!
//! The workloads run FEBio's direct PARDISO solver and its iterative
//! FGMRES and conjugate-gradient solvers — Belenos profiles them as the
//! dominant consumers of Stage-2 runtime. Each submodule implements one
//! solver class with the same algorithmic structure (and therefore the same
//! memory-access and dependency-chain shape) as the original.

pub mod cg;
pub mod fgmres;
pub mod ldl;
pub mod precond;

/// Outcome of an iterative solve.
#[derive(Debug, Clone, PartialEq)]
pub struct IterativeSolution {
    /// The computed solution vector.
    pub x: Vec<f64>,
    /// Number of iterations performed.
    pub iterations: usize,
    /// Final (preconditioned, where applicable) residual norm.
    pub residual: f64,
    /// Whether the tolerance was met within the iteration budget.
    pub converged: bool,
}

/// `M = I`: the plain solve the solvers' tests compare against.
#[cfg(test)]
pub(crate) struct Plain;

#[cfg(test)]
impl precond::Preconditioner for Plain {
    fn apply(&self, r: &[f64]) -> crate::Result<Vec<f64>> {
        Ok(r.to_vec())
    }
}
