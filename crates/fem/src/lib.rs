//! # belenos-fem
//!
//! Finite-element biomechanics solver — the FEBio substitute for the
//! Belenos workload study.
//!
//! FEBio's Stage 2 (the phase the paper profiles) reads a model, assembles
//! large sparse stiffness systems from element-level kernels, and iterates
//! Newton solves through the direct PARDISO or the iterative CG/FGMRES
//! linear solvers. This crate implements that pipeline from scratch:
//!
//! * [`mesh`] — hexahedral/tetrahedral meshes with structured generators
//!   and anatomical-irregularity relabeling;
//! * [`quadrature`] / [`shape`] — Gauss rules and isoparametric shape
//!   functions;
//! * [`material`] — a library of constitutive models covering the paper's
//!   workload categories (elastic, hyperelastic, fiber-reinforced,
//!   viscoelastic, damage, plasticity, active muscle, growth, ...);
//! * [`element`] — element stiffness / internal-force kernels for solid,
//!   poroelastic (biphasic/multiphasic) and fluid formulations;
//! * [`assembly`] — scatter into global CSR systems;
//! * [`bc`] — load curves, Dirichlet/pressure boundary conditions and
//!   penalty contact;
//! * [`model`] / [`newton`] — time stepping and Newton iteration, with
//!   every kernel recorded into a [`belenos_trace::PhaseLog`] for the
//!   microarchitecture simulator.
//!
//! ## One Newton iteration
//!
//! Each iteration of [`model::FeModel::solve`] runs residual first:
//!
//! 1. the **residual pass** evaluates geometry, strain, stress and the
//!    Gauss-point history and assembles the internal force;
//! 2. external loads, contact forces and the Dirichlet increments complete
//!    the right-hand side, and the **convergence check** decides;
//! 3. only an iteration that goes on to a linear solve runs the
//!    **stiffness pass** (tangent, `Bᵀ D B`, scatter), then adds the
//!    contact penalties and the Dirichlet rows;
//! 4. the **linear solve** updates the iterate.
//!
//! Two results are reused because they are already known. When every
//! material is linear in strain, history-free and time-independent
//! ([`material::Material::is_linear`]), the stiffness pass runs once per
//! solve and later iterations restore a copy of its values. And LDLᵀ
//! refactors only a matrix that differs in some bit from the one it last
//! factored. The fluid's residual is its Picard operator times the
//! iterate, so its residual pass assembles that operator too. The phase
//! log records FEBio's full iteration either way: stiffness assembly
//! before the check, a factorization with every direct solve. Operands
//! and operation order are those of one combined pass, so every solution
//! bit is the same.
//!
//! ## Quick example
//!
//! ```
//! use belenos_fem::model::FeModel;
//! use belenos_fem::mesh::Mesh;
//! use belenos_fem::material::LinearElastic;
//!
//! # fn main() -> Result<(), belenos_fem::FemError> {
//! let mesh = Mesh::box_hex(2, 2, 2, 1.0, 1.0, 1.0);
//! let mut model = FeModel::solid(mesh, Box::new(LinearElastic::new(1e4, 0.3)));
//! model.fix_face("z0");
//! model.prescribe_face("z1", 2, 0.05); // stretch 5 % in z
//! let report = model.solve()?;
//! assert!(report.converged);
//! # Ok(())
//! # }
//! ```

// Index-based loops over CSR/row-pointer structures are the idiomatic
// form for these numeric kernels; iterator rewrites obscure the math.
#![allow(clippy::needless_range_loop)]

pub mod assembly;
pub mod bc;
pub mod dof;
pub mod element;
pub mod error;
pub mod material;
pub mod mesh;
pub mod model;
pub mod newton;
pub mod quadrature;
pub mod shape;

pub use error::FemError;

/// Result alias for solver operations.
pub type Result<T> = std::result::Result<T, FemError>;
