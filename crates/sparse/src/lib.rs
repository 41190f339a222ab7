//! # belenos-sparse
//!
//! Sparse linear-algebra substrate for the Belenos workload study.
//!
//! FEBio (the biomechanics simulator characterized by the Belenos paper)
//! delegates its linear algebra to Intel MKL: the PARDISO direct solver
//! and FGMRES / conjugate-gradient iterative solvers over large sparse
//! stiffness matrices. This crate is the from-scratch substitute: it
//! provides the same algorithm classes with the same data-structure
//! shapes, so the memory-access patterns that the paper profiles
//! (irregular gathers through CSR index arrays, triangular-solve
//! dependency chains) are reproduced faithfully.
//!
//! The iterative solvers run only as the FE driver calls them,
//! preconditioned: CG with Jacobi and FGMRES with ILU(0), each through its
//! `solve_preconditioned`. The direct solver's symbolic analysis
//! (`solver::ldl::SymbolicLdl`) exposes the structure of L as column
//! pointers and row indices, which the trace layer replays.
//!
//! ## Quick example
//!
//! ```
//! use belenos_sparse::CooMatrix;
//! use belenos_sparse::solver::cg::{self, CgOptions};
//! use belenos_sparse::solver::precond::JacobiPrecond;
//!
//! # fn main() -> Result<(), belenos_sparse::SparseError> {
//! // Assemble a small SPD system in triplet form, as FE assembly does.
//! let mut coo = CooMatrix::new(3, 3);
//! coo.push(0, 0, 4.0); coo.push(1, 1, 4.0); coo.push(2, 2, 4.0);
//! coo.push(0, 1, 1.0); coo.push(1, 0, 1.0);
//! let a = coo.to_csr();
//! let b = vec![1.0, 2.0, 3.0];
//! // The FE driver's CG path: Jacobi-preconditioned.
//! let m = JacobiPrecond::new(&a)?;
//! let sol = cg::solve_preconditioned(&a, &b, &m, &CgOptions::default())?;
//! assert!(sol.converged);
//! # Ok(())
//! # }
//! ```

// Index-based loops over CSR/row-pointer structures are the idiomatic
// form for these numeric kernels; iterator rewrites obscure the math.
#![allow(clippy::needless_range_loop)]

pub mod coo;
pub mod csr;
pub mod error;
pub mod graph;
pub mod pattern;
pub mod reorder;
pub mod solver;

pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use error::SparseError;
pub use pattern::CsrPattern;

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, SparseError>;
