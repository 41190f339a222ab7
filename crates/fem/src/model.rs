//! The model container and time-stepping driver — FEBio Stage 2.
//!
//! A [`FeModel`] owns the mesh, materials, boundary conditions and solver
//! selection; [`FeModel::solve`] runs load steps of Newton (or Picard)
//! iterations, recording every computational kernel into a
//! [`belenos_trace::PhaseLog`] for the microarchitecture simulator.

use crate::assembly::{Assembler, ScatterPlan};
use crate::bc::{LoadCurve, NodalLoad, PrescribedBc, RigidPlaneContact};
use crate::element::{geometry, FluidKernel, PoroKernel, SolidKernel, MAX_NODES};
use crate::error::FemError;
use crate::material::Material;
use crate::mesh::Mesh;
use crate::newton::{solve_linear, LinearSolver, SolverCache};
use crate::quadrature::{rule_for, GaussPoint};
use crate::shape::{eval, ShapeEval};
use crate::Result;
use belenos_trace::{KernelCall, PhaseLog};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Physics formulation of a model.
#[derive(Debug, Clone)]
pub enum Formulation {
    /// Displacement-only solid mechanics (3 dofs/node).
    Solid,
    /// Biphasic poroelasticity, u-p monolithic (4 dofs/node).
    Poro {
        /// Principal hydraulic permeabilities.
        permeability: [f64; 3],
        /// Specific storage coefficient.
        storage: f64,
    },
    /// Multiphasic: biphasic plus one solute concentration (5 dofs/node).
    Multiphasic {
        /// Principal hydraulic permeabilities.
        permeability: [f64; 3],
        /// Specific storage coefficient.
        storage: f64,
        /// Solute diffusivity.
        diffusivity: f64,
    },
    /// Incompressible viscous flow, velocity penalty form (3 dofs/node).
    Fluid {
        /// Dynamic viscosity.
        viscosity: f64,
        /// Grad-div penalty parameter.
        penalty: f64,
        /// Mass density.
        density: f64,
        /// Steady-state (`fl33`) vs transient (`fl34`).
        steady: bool,
    },
}

impl Formulation {
    /// Unknowns per node for this formulation.
    pub fn dofs_per_node(&self) -> usize {
        match self {
            Formulation::Solid | Formulation::Fluid { .. } => 3,
            Formulation::Poro { .. } => 4,
            Formulation::Multiphasic { .. } => 5,
        }
    }
}

/// Outcome of a full multi-step solve.
#[derive(Debug)]
pub struct SolveReport {
    /// True when every step met the Newton tolerance.
    pub converged: bool,
    /// Load steps completed.
    pub steps_completed: usize,
    /// Total Newton/Picard iterations across all steps.
    pub total_iterations: usize,
    /// Final residual norm of the last iteration.
    pub final_residual: f64,
    /// Wall-clock time of the numeric solve.
    pub wall_time: Duration,
    /// Part of `wall_time` spent in element assembly: every iteration's
    /// residual pass (constitutive update, internal force) and, in each
    /// iteration that goes on to a linear solve, the stiffness pass or the
    /// restore of its checkpoint.
    pub assemble_time: Duration,
    /// Part of `wall_time` spent in linear solves: the Dirichlet rows and,
    /// for LDLᵀ, numeric factorization (when the matrix changed) and the
    /// permuted triangular solves.
    pub linear_time: Duration,
    /// Element stiffness assemblies run: one per iteration that solves,
    /// but one per solve when every material is linear (later iterations
    /// restore it), and one per iteration for the fluid, whose residual
    /// pass assembles its operator.
    pub stiffness_assemblies: usize,
    /// Numeric LDLᵀ factorizations run: a solve whose matrix no write
    /// changed since the last factorization (the assembler tracks its
    /// writes) reuses that factor (0 for the iterative solvers).
    pub factorizations: usize,
    /// Total dof count.
    pub n_dofs: usize,
    /// The recorded kernel log (input to trace expansion).
    pub log: PhaseLog,
    /// Final solution vector (node-major).
    pub solution: Vec<f64>,
}

/// A complete FE model: mesh + physics + boundary conditions + solver.
#[derive(Debug)]
pub struct FeModel {
    mesh: Mesh,
    /// One material per region id (region ids index into this).
    materials: Vec<Box<dyn Material>>,
    formulation: Formulation,
    solver: LinearSolver,
    steps: usize,
    dt: f64,
    max_iterations: usize,
    tolerance: f64,
    dirichlet: Vec<PrescribedBc>,
    loads: Vec<NodalLoad>,
    contact: Option<RigidPlaneContact>,
    rigid_bodies: usize,
    rigid_joints: usize,
    spin_scale: f64,
    strict: bool,
    name: String,
    /// Worker threads for element assembly (`None` = host parallelism,
    /// `Some(1)` = serial). Results are bit-identical at any setting.
    assembly_threads: Option<usize>,
}

impl FeModel {
    /// Solid-mechanics model with a single material.
    pub fn solid(mesh: Mesh, material: Box<dyn Material>) -> Self {
        Self::with_formulation(mesh, vec![material], Formulation::Solid)
    }

    /// Biphasic poroelastic model.
    pub fn poro(
        mesh: Mesh,
        material: Box<dyn Material>,
        permeability: [f64; 3],
        storage: f64,
    ) -> Self {
        Self::with_formulation(
            mesh,
            vec![material],
            Formulation::Poro {
                permeability,
                storage,
            },
        )
    }

    /// Multiphasic model (biphasic + solute transport).
    pub fn multiphasic(
        mesh: Mesh,
        material: Box<dyn Material>,
        permeability: [f64; 3],
        storage: f64,
        diffusivity: f64,
    ) -> Self {
        Self::with_formulation(
            mesh,
            vec![material],
            Formulation::Multiphasic {
                permeability,
                storage,
                diffusivity,
            },
        )
    }

    /// Fluid-dynamics model (no solid material required).
    pub fn fluid(mesh: Mesh, viscosity: f64, penalty: f64, density: f64, steady: bool) -> Self {
        let mat: Box<dyn Material> = Box::new(crate::material::LinearElastic::new(1.0, 0.0));
        Self::with_formulation(
            mesh,
            vec![mat],
            Formulation::Fluid {
                viscosity,
                penalty,
                density,
                steady,
            },
        )
    }

    /// General constructor with one material per mesh region.
    pub fn with_formulation(
        mesh: Mesh,
        materials: Vec<Box<dyn Material>>,
        formulation: Formulation,
    ) -> Self {
        let solver = match formulation {
            Formulation::Fluid { .. } => LinearSolver::Fgmres,
            _ => LinearSolver::Ldl,
        };
        FeModel {
            mesh,
            materials,
            formulation,
            solver,
            steps: 1,
            dt: 1.0,
            max_iterations: 25,
            tolerance: 1e-8,
            dirichlet: Vec::new(),
            loads: Vec::new(),
            contact: None,
            rigid_bodies: 0,
            rigid_joints: 0,
            spin_scale: 1.0,
            strict: false,
            name: String::from("unnamed"),
            assembly_threads: None,
        }
    }

    /// Pins the element-assembly worker count. `None` (the default) uses
    /// the host's available parallelism; `Some(1)` forces the serial
    /// path. Element matrices are scattered in deterministic element
    /// order regardless, so the assembled matrix — and every downstream
    /// digest — is bit-identical at any setting.
    pub fn set_assembly_threads(&mut self, threads: Option<usize>) -> &mut Self {
        self.assembly_threads = threads;
        self
    }

    /// Sets the model name (reports / catalogs).
    pub fn set_name(&mut self, name: &str) -> &mut Self {
        self.name = name.to_string();
        self
    }

    /// Model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying mesh.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// The formulation.
    pub fn formulation(&self) -> &Formulation {
        &self.formulation
    }

    /// Chooses the linear solver.
    pub fn set_solver(&mut self, solver: LinearSolver) -> &mut Self {
        self.solver = solver;
        self
    }

    /// Sets the number of load steps and step size.
    pub fn set_stepping(&mut self, steps: usize, dt: f64) -> &mut Self {
        assert!(steps > 0 && dt > 0.0, "invalid stepping");
        self.steps = steps;
        self.dt = dt;
        self
    }

    /// Sets the Newton iteration budget and tolerance.
    pub fn set_newton(&mut self, max_iterations: usize, tolerance: f64) -> &mut Self {
        self.max_iterations = max_iterations;
        self.tolerance = tolerance;
        self
    }

    /// Makes non-convergence a hard error instead of a flagged report.
    pub fn set_strict(&mut self, strict: bool) -> &mut Self {
        self.strict = strict;
        self
    }

    /// Scales recorded OpenMP spin-barrier iterations.
    pub fn set_spin_scale(&mut self, scale: f64) -> &mut Self {
        self.spin_scale = scale;
        self
    }

    /// Declares rigid bodies / joints (multibody bookkeeping kernels).
    pub fn set_rigid(&mut self, bodies: usize, joints: usize) -> &mut Self {
        self.rigid_bodies = bodies;
        self.rigid_joints = joints;
        self
    }

    /// Fixes all dofs of a face node set to zero.
    pub fn fix_face(&mut self, set: &str) -> &mut Self {
        for comp in 0..self.formulation.dofs_per_node().min(3) {
            self.dirichlet.push(PrescribedBc {
                set: set.into(),
                comp,
                value: 0.0,
                curve: LoadCurve::Step,
            });
        }
        self
    }

    /// Prescribes a ramped dof value over a node set.
    pub fn prescribe_face(&mut self, set: &str, comp: usize, value: f64) -> &mut Self {
        self.dirichlet.push(PrescribedBc {
            set: set.into(),
            comp,
            value,
            curve: LoadCurve::Ramp {
                t_end: self.steps as f64 * self.dt,
            },
        });
        self
    }

    /// Adds a ramped nodal load over a set.
    pub fn add_load(&mut self, set: &str, comp: usize, value: f64) -> &mut Self {
        self.loads.push(NodalLoad {
            set: set.into(),
            comp,
            value,
            curve: LoadCurve::Ramp {
                t_end: self.steps as f64 * self.dt,
            },
        });
        self
    }

    /// Installs rigid-plane penalty contact.
    pub fn set_contact(&mut self, contact: RigidPlaneContact) -> &mut Self {
        self.contact = Some(contact);
        self
    }

    /// Estimated `.feb` input size in kB (Table-I surrogate).
    pub fn input_size_kb(&self) -> f64 {
        self.mesh.input_size_kb()
    }

    /// Total dof count.
    pub fn n_dofs(&self) -> usize {
        self.mesh.num_nodes() * self.formulation.dofs_per_node()
    }

    fn material_for(&self, elem: usize) -> &dyn Material {
        let r = self.mesh.region(elem) as usize;
        self.materials[r.min(self.materials.len() - 1)].as_ref()
    }

    /// Runs the full load schedule.
    ///
    /// # Errors
    ///
    /// [`FemError::InvalidModel`] for malformed setups,
    /// [`FemError::InvertedElement`] / linear-solver failures from the
    /// substrate, and [`FemError::NewtonDiverged`] in strict mode.
    pub fn solve(&mut self) -> Result<SolveReport> {
        self.solve_observing(|_| {})
    }

    /// [`FeModel::solve`], handing `observe` the stiffness of every
    /// iteration that goes on to a linear solve, as assembled or restored
    /// — before contact penalties and Dirichlet rows are written into it.
    /// This is the seam a constant stiffness's restore is tested through.
    ///
    /// # Errors
    ///
    /// As in [`FeModel::solve`].
    pub fn solve_observing(
        &mut self,
        mut observe: impl FnMut(&belenos_sparse::CsrMatrix),
    ) -> Result<SolveReport> {
        let start = Instant::now();
        let dpn = self.formulation.dofs_per_node();
        if self.materials.is_empty() {
            return Err(FemError::InvalidModel("no materials defined".into()));
        }
        let n_dofs = self.n_dofs();
        let mut asm = Assembly::new(&self.mesh, dpn);
        let pattern = asm.assembler.pattern();
        let conn = Arc::clone(asm.plan.connectivity());
        let mut cache = SolverCache::new();
        let mut log = PhaseLog::new();

        let gp_count = rule_for(self.mesh.kind()).len();
        let (state_offsets, mut states_old) = self.virgin_states(gp_count);
        let mut states_new = vec![0.0f64; states_old.len()];

        let mut u = vec![0.0f64; n_dofs];
        let mut u_old = vec![0.0f64; n_dofs];
        let mut rhs = vec![0.0f64; n_dofs];
        let dominant_class = self.materials[0].class();
        let spin_base = ((self.mesh.num_elems() / 4 + 16) as f64
            * self
                .materials
                .iter()
                .map(|m| m.spin_imbalance())
                .fold(0.0, f64::max)
            * self.spin_scale)
            .round() as usize;

        // Which dofs are prescribed, and by which condition, is fixed for
        // the whole solve; only the increments change per iteration.
        let dirichlet_dofs = self.prescribed_dofs()?;
        let mut constrained = vec![false; n_dofs];
        let mut constraints: Vec<(usize, f64)> = Vec::with_capacity(dirichlet_dofs.len());
        for &(d, _) in &dirichlet_dofs {
            constrained[d] = true;
            constraints.push((d, 0.0));
        }
        let mut targets = vec![0.0f64; self.dirichlet.len()];

        let mut total_iters = 0usize;
        let mut final_res = f64::INFINITY;
        let mut all_converged = true;
        let mut assemble_time = Duration::ZERO;
        let mut linear_time = Duration::ZERO;
        let mut stiffness_assemblies = 0usize;
        // The fluid's residual is `A(v̄)·v`: its residual pass assembles
        // the operator too. Every other formulation assembles its
        // stiffness in a pass of its own, only when an iteration solves;
        // with every material linear in strain, history-free and
        // time-independent, that stiffness is the same at every iterate,
        // so the pass runs once, the assembler checkpoints it, and later
        // iterations restore it.
        let stiffness_in_residual = self.stiffness_in_residual();
        let stiffness_is_constant =
            !stiffness_in_residual && self.materials.iter().all(|m| m.is_linear());

        for step in 1..=self.steps {
            let t = step as f64 * self.dt;
            for (target, bc) in targets.iter_mut().zip(&self.dirichlet) {
                *target = bc.value * bc.curve.factor(t);
            }
            let mut converged = false;
            for _it in 0..self.max_iterations {
                total_iters += 1;
                // --- residual pass (constitutive update + internal force) ---
                let assemble_start = Instant::now();
                self.assemble(
                    &mut asm,
                    Pass::Residual,
                    &u,
                    &u_old,
                    &states_old,
                    &mut states_new,
                    &state_offsets,
                    gp_count,
                    t,
                )?;
                assemble_time += assemble_start.elapsed();
                if stiffness_in_residual {
                    stiffness_assemblies += 1;
                }
                // The log records FEBio's full iteration, which assembles
                // the stiffness before it checks convergence.
                log.record(KernelCall::ConstitutiveUpdate {
                    gauss_points: self.mesh.num_elems() * gp_count,
                    material: dominant_class,
                });
                log.record(KernelCall::AssembleStiffness {
                    conn: Arc::clone(&conn),
                    nodes_per_elem: self.mesh.kind().nodes(),
                    dofs_per_node: dpn,
                    gauss_points: gp_count,
                    material: dominant_class,
                    pattern: Arc::clone(&pattern),
                });
                log.record(KernelCall::OmpBarrier {
                    spin_iters: spin_base,
                });
                log.record(KernelCall::AssembleResidual {
                    conn: Arc::clone(&conn),
                    nodes_per_elem: self.mesh.kind().nodes(),
                    dofs_per_node: dpn,
                    gauss_points: gp_count,
                    material: dominant_class,
                });
                log.record(KernelCall::OmpBarrier {
                    spin_iters: spin_base / 2 + 1,
                });

                // --- external forces ---
                rhs.fill(0.0);
                let mut f_ext_norm = 0.0f64;
                for load in &self.loads {
                    let factor = load.curve.factor(t);
                    for &n in self.mesh.node_set(&load.set)? {
                        let d = n as usize * dpn + load.comp;
                        rhs[d] += load.value * factor;
                        f_ext_norm += (load.value * factor).abs();
                    }
                }
                for (r, f) in rhs.iter_mut().zip(&asm.f_int) {
                    *r -= f;
                }

                // --- contact (its penalty stiffness waits for a solve) ---
                let mut penalties = Vec::new();
                if let Some(contact) = &self.contact {
                    let res = contact.evaluate(&self.mesh, &u, dpn, t)?;
                    for &(d, f) in &res.forces {
                        rhs[d] += f;
                    }
                    penalties = res.stiffness;
                    log.record(KernelCall::ContactSearch {
                        outcomes: Arc::new(res.outcomes),
                    });
                }

                // --- Dirichlet increments ---
                for (c, &(d, b)) in constraints.iter_mut().zip(&dirichlet_dofs) {
                    c.1 = targets[b] - u[d];
                }
                log.record(KernelCall::BcApply {
                    n: constraints.len(),
                });

                // --- convergence check on free dofs ---
                let rnorm = rhs
                    .iter()
                    .zip(&constrained)
                    .filter(|(_, &fixed)| !fixed)
                    .map(|(r, _)| r * r)
                    .sum::<f64>()
                    .sqrt();
                let du_pending = constraints
                    .iter()
                    .map(|&(_, v)| v.abs())
                    .fold(0.0, f64::max);
                log.record(KernelCall::ConvergenceCheck { n: n_dofs });
                final_res = rnorm;
                let scale = 1.0 + f_ext_norm;
                if rnorm < self.tolerance * scale && du_pending < 1e-12 {
                    converged = true;
                    break;
                }

                // --- stiffness pass, for the iterate the residual saw ---
                if !stiffness_in_residual {
                    let assemble_start = Instant::now();
                    if asm.assembler.has_checkpoint() {
                        asm.assembler.restore();
                    } else {
                        self.assemble(
                            &mut asm,
                            Pass::Stiffness,
                            &u,
                            &u_old,
                            &states_old,
                            &mut states_new,
                            &state_offsets,
                            gp_count,
                            t,
                        )?;
                        stiffness_assemblies += 1;
                        if stiffness_is_constant {
                            asm.assembler.checkpoint();
                        }
                    }
                    assemble_time += assemble_start.elapsed();
                }
                observe(asm.assembler.matrix());
                // Penalty stiffness on the diagonal.
                for &(d, k) in &penalties {
                    asm.assembler.scatter(&[d], &[k]);
                }

                // --- linear solve ---
                let linear_start = Instant::now();
                asm.assembler.apply_dirichlet(&mut rhs, &constraints);
                let changed = asm.assembler.take_changed();
                let du = solve_linear(
                    self.solver,
                    asm.assembler.matrix(),
                    changed,
                    &rhs,
                    &mut cache,
                    &mut log,
                )?;
                linear_time += linear_start.elapsed();
                for (ui, di) in u.iter_mut().zip(&du) {
                    *ui += di;
                }
                log.record(KernelCall::MeshUpdate {
                    n_nodes: self.mesh.num_nodes(),
                });
            }
            if !converged {
                all_converged = false;
                if self.strict {
                    return Err(FemError::NewtonDiverged {
                        step,
                        iterations: self.max_iterations,
                        residual: final_res,
                    });
                }
            }
            // Commit history and previous-step solution.
            states_old.copy_from_slice(&states_new);
            u_old.copy_from_slice(&u);
            if self.rigid_bodies > 0 || self.rigid_joints > 0 {
                log.record(KernelCall::RigidUpdate {
                    n_bodies: self.rigid_bodies,
                    n_joints: self.rigid_joints,
                });
            }
        }

        Ok(SolveReport {
            converged: all_converged,
            steps_completed: self.steps,
            total_iterations: total_iters,
            final_residual: final_res,
            wall_time: start.elapsed(),
            assemble_time,
            linear_time,
            stiffness_assemblies,
            factorizations: cache.factorizations(),
            n_dofs,
            log,
            solution: u,
        })
    }

    /// Every prescribed dof, ascending, with the index of the condition
    /// that owns it. Where conditions overlap on a dof, the owner is the
    /// one this unstable sort + dedup keeps — which one that is depends on
    /// the dof sequence alone, so it is the same for every iteration.
    fn prescribed_dofs(&self) -> Result<Vec<(usize, usize)>> {
        let dpn = self.formulation.dofs_per_node();
        let mut dofs: Vec<(usize, usize)> = Vec::new();
        for (b, bc) in self.dirichlet.iter().enumerate() {
            for &n in self.mesh.node_set(&bc.set)? {
                dofs.push((n as usize * dpn + bc.comp, b));
            }
        }
        dofs.sort_unstable_by_key(|&(d, _)| d);
        dofs.dedup_by_key(|&mut (d, _)| d);
        Ok(dofs)
    }

    /// Per-element offsets into the Gauss-point history and the history
    /// itself in its virgin state.
    fn virgin_states(&self, gp_count: usize) -> (Vec<usize>, Vec<f64>) {
        let mut state_offsets = Vec::with_capacity(self.mesh.num_elems());
        let mut total_state = 0usize;
        for e in 0..self.mesh.num_elems() {
            state_offsets.push(total_state);
            total_state += gp_count * self.material_for(e).state_size();
        }
        let mut states = vec![0.0f64; total_state];
        for e in 0..self.mesh.num_elems() {
            let m = self.material_for(e);
            let ssz = m.state_size();
            for g in 0..gp_count {
                let off = state_offsets[e] + g * ssz;
                m.init_state(&mut states[off..off + ssz]);
            }
        }
        (state_offsets, states)
    }

    /// True when the residual pass also assembles the stiffness: the
    /// fluid's residual is its Picard operator times the iterate.
    fn stiffness_in_residual(&self) -> bool {
        matches!(self.formulation, Formulation::Fluid { .. })
    }

    /// Runs one assembly pass over every element for the current iterate:
    /// [`Pass::Residual`] into `asm.f_int` (and the history into
    /// `states_new`), [`Pass::Stiffness`] into `asm.assembler`, each
    /// zeroed first.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        &self,
        asm: &mut Assembly,
        pass: Pass,
        u: &[f64],
        u_old: &[f64],
        states_old: &[f64],
        states_new: &mut [f64],
        state_offsets: &[usize],
        gp_count: usize,
        t: f64,
    ) -> Result<()> {
        let dpn = self.formulation.dofs_per_node();
        let kind = self.mesh.kind();
        let npe = kind.nodes();
        let states_of = |e: usize| {
            let ssz = self.material_for(e).state_size();
            &states_old[state_offsets[e]..state_offsets[e] + gp_count * ssz]
        };
        let layout = |comps: usize, extra: bool| ElemLayout {
            npe,
            comps,
            extra,
            stiffness: pass == Pass::Stiffness || self.stiffness_in_residual(),
            residual: pass == Pass::Residual,
        };
        match &self.formulation {
            Formulation::Solid => {
                let kernel = SolidKernel::new(kind);
                let layout = layout(3, false);
                self.assemble_with(asm, states_new, state_offsets, layout, |e, sn, out| {
                    let nodes = self.mesh.element(e);
                    let coords = &self.elem_coords(nodes)[..npe];
                    let u_e = &gather_dofs(nodes, u, dpn, 3)[..3 * npe];
                    let (mat, so) = (self.material_for(e), states_of(e));
                    match pass {
                        Pass::Residual => {
                            kernel.residual_into(e, coords, u_e, mat, so, sn, self.dt, t, out.f)
                        }
                        Pass::Stiffness => {
                            kernel.stiffness_into(e, coords, u_e, mat, so, self.dt, t, out.k)
                        }
                    }
                })
            }
            Formulation::Poro {
                permeability,
                storage,
            }
            | Formulation::Multiphasic {
                permeability,
                storage,
                ..
            } => {
                let kernel = PoroKernel::new(kind, *permeability, *storage);
                // Solute diffusion block on dof 4 (c): backward Euler with
                // unit storage, plus a weak pressure coupling so the
                // matrix stays fully coupled. Scattered directly after the
                // element's u-p block.
                let solute = match &self.formulation {
                    Formulation::Multiphasic { diffusivity, .. } => {
                        let quadrature: Vec<(GaussPoint, ShapeEval)> = rule_for(kind)
                            .into_iter()
                            .map(|gp| (gp, eval(kind, gp.xi)))
                            .collect();
                        Some((*diffusivity, quadrature))
                    }
                    _ => None,
                };
                let layout = layout(4, solute.is_some());
                self.assemble_with(asm, states_new, state_offsets, layout, |e, sn, out| {
                    let nodes = self.mesh.element(e);
                    let coords = &self.elem_coords(nodes)[..npe];
                    // The u-p subset of the element vector.
                    let u_e = &gather_dofs(nodes, u, dpn, 4)[..4 * npe];
                    let (mat, so) = (self.material_for(e), states_of(e));
                    match pass {
                        Pass::Residual => {
                            let uo_e = &gather_dofs(nodes, u_old, dpn, 4)[..4 * npe];
                            kernel.residual_into(
                                e, coords, u_e, uo_e, mat, so, sn, self.dt, t, out.f,
                            )?
                        }
                        Pass::Stiffness => {
                            kernel.stiffness_into(e, coords, u_e, mat, so, self.dt, t, out.k)?
                        }
                    }
                    if let Some((diffusivity, quadrature)) = &solute {
                        self.scalar_diffusion(
                            pass,
                            u,
                            u_old,
                            e,
                            coords,
                            quadrature,
                            *diffusivity,
                            out.extra_k,
                            out.extra_f,
                        )?;
                    }
                    Ok(())
                })
            }
            Formulation::Fluid {
                viscosity,
                penalty,
                density,
                steady,
            } => {
                if pass == Pass::Stiffness {
                    // Assembled by the residual pass.
                    return Ok(());
                }
                let kernel = FluidKernel::new(kind, *viscosity, *penalty, *density, *steady);
                let layout = layout(3, false);
                self.assemble_with(asm, states_new, state_offsets, layout, |e, _sn, out| {
                    let nodes = self.mesh.element(e);
                    let coords = self.elem_coords(nodes);
                    let v_e = &gather_dofs(nodes, u, dpn, 3)[..3 * npe];
                    let v_old = &gather_dofs(nodes, u_old, dpn, 3)[..3 * npe];
                    // Picard: advect with the current iterate.
                    kernel.integrate_into(e, &coords[..npe], v_e, v_e, v_old, self.dt, out.k, out.f)
                })
            }
        }
    }

    /// Node coordinates of one element, on the stack.
    fn elem_coords(&self, nodes: &[u32]) -> [[f64; 3]; MAX_NODES] {
        let mut coords = [[0.0; 3]; MAX_NODES];
        for (c, &n) in coords.iter_mut().zip(nodes) {
            *c = self.mesh.coords()[n as usize];
        }
        coords
    }

    /// Element-assembly driver: zeroes the accumulators `layout` names,
    /// runs `compute` over every element and scatters the results into
    /// `asm.assembler`/`asm.f_int` in ascending element order.
    ///
    /// With more than one worker, elements are computed in parallel over
    /// fixed-size blocks (bounding buffered element matrices): the block
    /// is cut into one contiguous chunk per worker, the calling thread
    /// computes the first and `workers - 1` spawned threads the rest, each
    /// owning the matching disjoint slices of `states_new` and of the
    /// block buffer — then every block is scattered *serially, in element
    /// order*. Floating-point accumulation order is therefore exactly the
    /// serial order, making the assembled matrix, internal forces, and
    /// Gauss states bit-identical at any thread count (the
    /// `parallel_assembly` property tests and every digest pin downstream
    /// enforce this). Errors surface as the lowest failing element index,
    /// matching serial semantics.
    fn assemble_with<F>(
        &self,
        asm: &mut Assembly,
        states_new: &mut [f64],
        state_offsets: &[usize],
        layout: ElemLayout,
        compute: F,
    ) -> Result<()>
    where
        F: Fn(usize, &mut [f64], ElemOut<'_>) -> Result<()> + Sync,
    {
        let Assembly {
            plan,
            assembler,
            f_int,
            elem_buf,
        } = asm;
        if layout.stiffness {
            assembler.reset();
        }
        if layout.residual {
            f_int.fill(0.0);
        }
        let n = self.mesh.num_elems();
        let stride = layout.stride();
        let dpn = self.formulation.dofs_per_node();
        let mut scatter = |e: usize, out: ElemOut<'_>| {
            let nodes = self.mesh.element(e);
            let mut add = |first_comp: usize, comps: usize, k: &[f64], f: &[f64]| {
                if layout.stiffness {
                    assembler.scatter_planned(plan, e, first_comp, comps, k);
                }
                if layout.residual {
                    for (a, &node) in nodes.iter().enumerate() {
                        let d = node as usize * dpn + first_comp;
                        for c in 0..comps {
                            f_int[d + c] += f[a * comps + c];
                        }
                    }
                }
            };
            add(0, layout.comps, out.k, out.f);
            if layout.extra {
                add(SOLUTE_COMP, 1, out.extra_k, out.extra_f);
            }
        };
        let total_state = states_new.len();
        let state_end = move |e: usize| -> usize {
            if e + 1 < n {
                state_offsets[e + 1]
            } else {
                total_state
            }
        };
        let threads = self.effective_assembly_threads();
        if threads <= 1 || n < PAR_MIN_ELEMS {
            elem_buf.resize(stride, 0.0);
            for e in 0..n {
                let sn = &mut states_new[state_offsets[e]..state_end(e)];
                compute(e, sn, layout.split(elem_buf))?;
                scatter(e, layout.split(elem_buf));
            }
            return Ok(());
        }
        elem_buf.resize(n.min(PAR_BLOCK_ELEMS) * stride, 0.0);
        // Computes elements `lo..hi` into their slots of `out`; `states`
        // starts at `state_offsets[lo]`. Stops at the first failure.
        let run = |lo: usize, hi: usize, states: &mut [f64], out: &mut [f64]| {
            let base = state_offsets[lo];
            for (e, slot) in (lo..hi).zip(out.chunks_exact_mut(stride)) {
                let sn = &mut states[state_offsets[e] - base..state_end(e) - base];
                compute(e, sn, layout.split(slot)).map_err(|err| (e, err))?;
            }
            Ok(())
        };
        for block_start in (0..n).step_by(PAR_BLOCK_ELEMS) {
            let block_end = (block_start + PAR_BLOCK_ELEMS).min(n);
            let block_len = block_end - block_start;
            let block_out = &mut elem_buf[..block_len * stride];
            let workers = threads.min(block_len);
            let per = block_len.div_ceil(workers);
            let first_failure = std::thread::scope(|scope| {
                let mut out_rest = &mut *block_out;
                let mut state_rest =
                    &mut states_new[state_offsets[block_start]..state_end(block_end - 1)];
                let mut own = None;
                let mut helpers = Vec::with_capacity(workers - 1);
                for lo in (block_start..block_end).step_by(per) {
                    let hi = (lo + per).min(block_end);
                    let (out, rest) = out_rest.split_at_mut((hi - lo) * stride);
                    out_rest = rest;
                    let (states, rest) =
                        state_rest.split_at_mut(state_end(hi - 1) - state_offsets[lo]);
                    state_rest = rest;
                    if lo == block_start {
                        own = Some((hi, states, out));
                    } else {
                        let run = &run;
                        helpers.push(scope.spawn(move || run(lo, hi, states, out)));
                    }
                }
                let (hi, states, out) = own.expect("a block has a first chunk");
                let mut failure = run(block_start, hi, states, out).err();
                for helper in helpers {
                    let result = helper
                        .join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                    // Chunks are joined in ascending element order.
                    failure = failure.or(result.err());
                }
                failure
            });
            let computed = first_failure.as_ref().map_or(block_end, |&(e, _)| e);
            for (e, slot) in (block_start..computed).zip(block_out.chunks_exact_mut(stride)) {
                scatter(e, layout.split(slot));
            }
            if let Some((_, err)) = first_failure {
                return Err(err);
            }
        }
        Ok(())
    }

    /// Worker count for element assembly (see
    /// [`FeModel::set_assembly_threads`]).
    fn effective_assembly_threads(&self) -> usize {
        self.assembly_threads
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
            .max(1)
    }

    /// Assembles the stiffness matrix and internal-force vector at the
    /// iterate `u` (previous iterate taken as zero, virgin material
    /// state) without running the solve loop.
    ///
    /// This is the seam the parallel-vs-serial equality tests compare
    /// bit for bit; it is also useful for inspecting a model's linear
    /// system directly.
    ///
    /// # Errors
    ///
    /// [`FemError::InvalidModel`] when `u` has the wrong length or no
    /// material is defined, plus any element-integration failure.
    pub fn assemble_at(&self, u: &[f64]) -> Result<(belenos_sparse::CsrMatrix, Vec<f64>)> {
        if self.materials.is_empty() {
            return Err(FemError::InvalidModel("no materials defined".into()));
        }
        let n_dofs = self.n_dofs();
        if u.len() != n_dofs {
            return Err(FemError::InvalidModel(format!(
                "assemble_at: iterate has {} dofs, model has {n_dofs}",
                u.len()
            )));
        }
        let mut asm = Assembly::new(&self.mesh, self.formulation.dofs_per_node());
        let gp_count = rule_for(self.mesh.kind()).len();
        let (state_offsets, states_old) = self.virgin_states(gp_count);
        let mut states_new = vec![0.0f64; states_old.len()];
        let u_old = vec![0.0f64; n_dofs];
        for pass in [Pass::Residual, Pass::Stiffness] {
            self.assemble(
                &mut asm,
                pass,
                u,
                &u_old,
                &states_old,
                &mut states_new,
                &state_offsets,
                gp_count,
                self.dt,
            )?;
        }
        Ok((asm.assembler.into_matrix(), asm.f_int))
    }

    /// Scalar diffusion block for the multiphasic concentration field:
    /// the element's residual `r` in the residual pass, its stiffness `k`
    /// (`npe x npe`) in the stiffness pass, on dof [`SOLUTE_COMP`],
    /// scattered by the assembly driver immediately after the element's
    /// u-p block.
    #[allow(clippy::too_many_arguments)]
    fn scalar_diffusion(
        &self,
        pass: Pass,
        u: &[f64],
        u_old: &[f64],
        e: usize,
        coords: &[[f64; 3]],
        quadrature: &[(GaussPoint, ShapeEval)],
        diffusivity: f64,
        k: &mut [f64],
        r: &mut [f64],
    ) -> Result<()> {
        let dpn = self.formulation.dofs_per_node();
        let nodes = self.mesh.element(e);
        let npe = nodes.len();
        k.fill(0.0);
        r.fill(0.0);
        for (gp, shape) in quadrature {
            let geom = geometry(coords, shape, e)?;
            let grad = geom.grad();
            let w = gp.w * geom.detj;
            if pass == Pass::Stiffness {
                for a in 0..npe {
                    let ga = grad[a];
                    for b in 0..npe {
                        let gb = grad[b];
                        let mut perm = 0.0;
                        for i in 0..3 {
                            perm += ga[i] * gb[i];
                        }
                        k[a * npe + b] +=
                            (geom.n[a] * geom.n[b] + self.dt * diffusivity * perm) * w;
                    }
                }
                continue;
            }
            let mut c_val = 0.0;
            let mut c_old = 0.0;
            let mut dc = [0.0; 3];
            for (a, &n) in nodes.iter().enumerate() {
                let cn = u[n as usize * dpn + SOLUTE_COMP];
                c_val += geom.n[a] * cn;
                c_old += geom.n[a] * u_old[n as usize * dpn + SOLUTE_COMP];
                for i in 0..3 {
                    dc[i] += grad[a][i] * cn;
                }
            }
            for a in 0..npe {
                let ga = grad[a];
                let mut res = geom.n[a] * (c_val - c_old);
                for i in 0..3 {
                    res += self.dt * diffusivity * ga[i] * dc[i];
                }
                r[a] += res * w;
            }
        }
        Ok(())
    }
}

/// Minimum element count for parallel assembly; below it, thread spawn
/// overhead outweighs the element work and the serial path runs instead.
const PAR_MIN_ELEMS: usize = 64;

/// Elements computed in flight per parallel assembly block: bounds peak
/// buffered element matrices (hex u-p blocks ≈ 8 KiB each → ≤ ~32 MiB)
/// while keeping per-block thread-spawn cost negligible.
const PAR_BLOCK_ELEMS: usize = 4096;

/// The multiphasic solute concentration's component within a node.
const SOLUTE_COMP: usize = 4;

/// What assembly keeps for the length of a solve, because it depends on
/// the mesh and formulation only: where element blocks land, the global
/// accumulators, and the buffer element blocks are computed into (one
/// element's worth on the serial path, one block's on the parallel one).
struct Assembly {
    plan: ScatterPlan,
    assembler: Assembler,
    f_int: Vec<f64>,
    elem_buf: Vec<f64>,
}

impl Assembly {
    fn new(mesh: &Mesh, dofs_per_node: usize) -> Self {
        let plan = ScatterPlan::build(mesh, dofs_per_node);
        Assembly {
            assembler: Assembler::new(Arc::clone(plan.pattern())),
            f_int: vec![0.0; mesh.num_nodes() * dofs_per_node],
            elem_buf: Vec::new(),
            plan,
        }
    }
}

/// Which element terms an assembly pass computes and accumulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    /// Stress, trial history and internal force, for the convergence
    /// check. The fluid's operator is assembled here too.
    Residual,
    /// The stiffness at the iterate the residual pass saw, for a linear
    /// solve: tangent, `Bᵀ D B`, scatter. It reads the converged history
    /// and evaluates no stress.
    Stiffness,
}

/// Shape of one element's assembly contribution inside a flat `f64`
/// buffer: the dense stiffness block over `comps` leading components of
/// each node (row-major, node-major dofs) when the pass assembles
/// stiffness, its internal-force block when it assembles the residual,
/// and for the multiphasic formulation the trailing solute blocks.
#[derive(Debug, Clone, Copy)]
struct ElemLayout {
    npe: usize,
    comps: usize,
    extra: bool,
    stiffness: bool,
    residual: bool,
}

/// One element's slot of the buffer, cut up by [`ElemLayout::split`];
/// the parts the pass does not assemble are empty.
struct ElemOut<'a> {
    k: &'a mut [f64],
    f: &'a mut [f64],
    extra_k: &'a mut [f64],
    extra_f: &'a mut [f64],
}

impl ElemLayout {
    /// Lengths of the stiffness and force parts of a `width`-dof block.
    fn parts(&self, width: usize) -> (usize, usize) {
        (
            if self.stiffness { width * width } else { 0 },
            if self.residual { width } else { 0 },
        )
    }

    /// `f64`s per element.
    fn stride(&self) -> usize {
        let (k, f) = self.parts(self.npe * self.comps);
        let (extra_k, extra_f) = self.parts(if self.extra { self.npe } else { 0 });
        k + f + extra_k + extra_f
    }

    fn split<'a>(&self, slot: &'a mut [f64]) -> ElemOut<'a> {
        debug_assert_eq!(slot.len(), self.stride());
        let (k_len, f_len) = self.parts(self.npe * self.comps);
        let (extra_k_len, _) = self.parts(if self.extra { self.npe } else { 0 });
        let (k, rest) = slot.split_at_mut(k_len);
        let (f, rest) = rest.split_at_mut(f_len);
        let (extra_k, extra_f) = rest.split_at_mut(extra_k_len);
        ElemOut {
            k,
            f,
            extra_k,
            extra_f,
        }
    }
}

/// The leading `comps` components of each of an element's nodes out of a
/// global node-major vector, node-major, on the stack.
fn gather_dofs(nodes: &[u32], global: &[f64], dpn: usize, comps: usize) -> [f64; 4 * MAX_NODES] {
    let mut local = [0.0; 4 * MAX_NODES];
    for (a, &n) in nodes.iter().enumerate() {
        for c in 0..comps {
            local[a * comps + c] = global[n as usize * dpn + c];
        }
    }
    local
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::material::{LinearElastic, NeoHookeanSmall};

    #[test]
    fn patch_test_uniform_extension() {
        // Classic patch test: prescribed uniform stretch must reproduce a
        // homogeneous strain field exactly (linear elements, any mesh).
        let mesh = Mesh::box_hex(2, 2, 2, 1.0, 1.0, 1.0);
        let mut model = FeModel::solid(mesh, Box::new(LinearElastic::new(1e3, 0.3)));
        // Kinematic constraints on every face normal displacement:
        model.dirichlet.push(PrescribedBc {
            set: "z0".into(),
            comp: 2,
            value: 0.0,
            curve: LoadCurve::Step,
        });
        model.dirichlet.push(PrescribedBc {
            set: "x0".into(),
            comp: 0,
            value: 0.0,
            curve: LoadCurve::Step,
        });
        model.dirichlet.push(PrescribedBc {
            set: "y0".into(),
            comp: 1,
            value: 0.0,
            curve: LoadCurve::Step,
        });
        model.prescribe_face("z1", 2, 0.1);
        model.set_strict(true);
        let report = model.solve().unwrap();
        assert!(report.converged);
        // Every node displaces linearly in z: u_z = 0.1 * z.
        let mesh = model.mesh();
        for (n, c) in mesh.coords().iter().enumerate() {
            let uz = report.solution[n * 3 + 2];
            assert!(
                (uz - 0.1 * c[2]).abs() < 1e-8,
                "node {n}: uz {uz} vs {}",
                0.1 * c[2]
            );
        }
    }

    #[test]
    fn overlapping_conditions_keep_the_owner_the_per_iteration_list_chose() {
        // Faces that share edges and corners, prescribing the same
        // component to different values: the hoisted owner list must pick,
        // for every contested dof, the condition the old per-iteration
        // `(dof, increment)` sort + dedup picked.
        let mesh = Mesh::box_hex(6, 5, 4, 1.0, 1.0, 1.0);
        let mut model = FeModel::solid(mesh, Box::new(LinearElastic::new(1e3, 0.3)));
        model.fix_face("z0");
        model.fix_face("x0");
        model.prescribe_face("x1", 2, 0.3);
        model.prescribe_face("y0", 2, -0.2);
        model.prescribe_face("y1", 0, 0.1);
        model.prescribe_face("z1", 2, 0.05);
        model.prescribe_face("z1", 0, -0.07);
        let dpn = 3;
        let t = 0.6;
        let u: Vec<f64> = (0..model.n_dofs())
            .map(|d| 1e-3 * (d % 17) as f64)
            .collect();

        let mut want: Vec<(usize, f64)> = Vec::new();
        for bc in &model.dirichlet {
            let target = bc.value * bc.curve.factor(t);
            for &n in model.mesh.node_set(&bc.set).unwrap() {
                let d = n as usize * dpn + bc.comp;
                want.push((d, target - u[d]));
            }
        }
        let pushed = want.len();
        want.sort_unstable_by_key(|&(d, _)| d);
        want.dedup_by_key(|&mut (d, _)| d);
        assert!(want.len() < pushed, "premise: faces overlap");

        let got: Vec<(usize, f64)> = model
            .prescribed_dofs()
            .unwrap()
            .into_iter()
            .map(|(d, b)| {
                let bc = &model.dirichlet[b];
                (d, bc.value * bc.curve.factor(t) - u[d])
            })
            .collect();
        let bits = |v: &[(usize, f64)]| -> Vec<(usize, u64)> {
            v.iter().map(|&(d, x)| (d, x.to_bits())).collect()
        };
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn nonlinear_material_needs_multiple_iterations() {
        let mesh = Mesh::box_hex(2, 2, 2, 1.0, 1.0, 1.0);
        let mut model =
            FeModel::solid(mesh, Box::new(NeoHookeanSmall::from_young(1e3, 0.3, 200.0)));
        model.fix_face("z0");
        model.prescribe_face("z1", 2, 0.08);
        model.set_strict(true);
        let report = model.solve().unwrap();
        assert!(report.converged);
        assert!(
            report.total_iterations >= 3,
            "nonlinear solve took only {} iterations",
            report.total_iterations
        );
    }

    #[test]
    fn phase_log_is_populated() {
        let mesh = Mesh::box_hex(2, 2, 2, 1.0, 1.0, 1.0);
        let mut model = FeModel::solid(mesh, Box::new(LinearElastic::new(1e3, 0.3)));
        model.fix_face("z0");
        model.prescribe_face("z1", 2, 0.01);
        let report = model.solve().unwrap();
        let has = |f: &dyn Fn(&KernelCall) -> bool| report.log.calls().iter().any(f);
        assert!(has(&|c| matches!(c, KernelCall::AssembleStiffness { .. })));
        assert!(has(&|c| matches!(c, KernelCall::LdlFactor { .. })));
        let factor_calls = report
            .log
            .calls()
            .iter()
            .filter(|c| matches!(c, KernelCall::LdlFactor { .. }))
            .count();
        assert_eq!(report.factorizations, factor_calls);
        assert!(report.assemble_time + report.linear_time <= report.wall_time);
        assert!(has(&|c| matches!(c, KernelCall::OmpBarrier { .. })));
        assert!(has(&|c| matches!(c, KernelCall::ConvergenceCheck { .. })));
    }

    #[test]
    fn poro_consolidation_pressure_decays() {
        // Terzaghi-style trend: loaded, draining column's pore pressure
        // must decay monotonically over time.
        let mesh = Mesh::box_hex(1, 1, 4, 0.2, 0.2, 1.0);
        let mut model = FeModel::poro(
            mesh,
            Box::new(LinearElastic::new(1e4, 0.2)),
            [1e-2, 1e-2, 1e-2],
            1e-6,
        );
        model.fix_face("z0");
        // Drained top surface: p = 0.
        model.dirichlet.push(PrescribedBc {
            set: "z1".into(),
            comp: 3,
            value: 0.0,
            curve: LoadCurve::Step,
        });
        // Compressive load on top.
        model.add_load("z1", 2, -10.0);
        model.set_stepping(6, 0.05);
        model.set_newton(20, 1e-8);
        let report = model.solve().unwrap();
        assert!(report.converged, "residual {}", report.final_residual);
        // Pressure at the sealed bottom should be positive (load carried by
        // fluid) early on; by construction we only check the final state is
        // bounded and the solve ran the coupled path.
        let n_bottom = model.mesh().node_set("z0").unwrap()[0] as usize;
        let p = report.solution[n_bottom * 4 + 3];
        assert!(p.is_finite());
        assert!(report.log.calls().len() > 10);
    }

    #[test]
    fn fluid_channel_flow_converges() {
        let mesh = Mesh::box_hex(4, 2, 2, 2.0, 1.0, 1.0);
        let mut model = FeModel::fluid(mesh, 0.1, 50.0, 1.0, true);
        // No-slip walls.
        model.fix_face("y0");
        model.fix_face("y1");
        // Inlet velocity in +x.
        model.prescribe_face("x0", 0, 1.0);
        model.set_newton(40, 1e-6);
        let report = model.solve().unwrap();
        assert!(report.converged, "residual {}", report.final_residual);
        // Flow must be moving in +x somewhere in the interior.
        let max_vx = (0..model.mesh().num_nodes())
            .map(|n| report.solution[n * 3])
            .fold(0.0f64, f64::max);
        assert!(max_vx > 0.5, "max vx {max_vx}");
        assert!(report
            .log
            .calls()
            .iter()
            .any(|c| matches!(c, KernelCall::FgmresSolve { .. })));
    }

    #[test]
    fn contact_limits_penetration() {
        let mesh = Mesh::box_hex(2, 2, 2, 1.0, 1.0, 1.0);
        let mut model = FeModel::solid(mesh, Box::new(LinearElastic::new(1e3, 0.3)));
        model.fix_face("z0");
        model.set_contact(RigidPlaneContact {
            set: "z1".into(),
            axis: 2,
            start: 1.2,
            speed: -0.3,
            penalty: 1e5,
            from_above: true,
        });
        model.set_stepping(4, 0.5);
        model.set_newton(30, 1e-6);
        let report = model.solve().unwrap();
        // At t = 2 the plane is at z = 0.6: the top surface must be pushed
        // down close to it (penalty allows slight penetration).
        let mesh = model.mesh();
        for &n in mesh.node_set("z1").unwrap() {
            let z = 1.0 + report.solution[n as usize * 3 + 2];
            assert!(z < 0.66, "top node at {z} not pushed below plane");
        }
        assert!(report
            .log
            .calls()
            .iter()
            .any(|c| matches!(c, KernelCall::ContactSearch { .. })));
    }

    #[test]
    fn multiphasic_assembles_and_solves() {
        let mesh = Mesh::box_hex(2, 2, 2, 1.0, 1.0, 1.0);
        let mut model = FeModel::multiphasic(
            mesh,
            Box::new(LinearElastic::new(1e4, 0.2)),
            [1e-2; 3],
            1e-5,
            2.0,
        );
        model.fix_face("z0");
        model.dirichlet.push(PrescribedBc {
            set: "z1".into(),
            comp: 3,
            value: 0.0,
            curve: LoadCurve::Step,
        });
        // Concentration source on one face.
        model.dirichlet.push(PrescribedBc {
            set: "x0".into(),
            comp: 4,
            value: 1.0,
            curve: LoadCurve::Step,
        });
        model.add_load("z1", 2, -5.0);
        model.set_stepping(5, 0.1);
        let report = model.solve().unwrap();
        assert!(report.converged, "residual {}", report.final_residual);
        // Concentration must spread into the interior (positive somewhere
        // away from the source face).
        let interior = model
            .mesh()
            .coords()
            .iter()
            .enumerate()
            .find(|(_, c)| c[0] > 0.4 && c[0] < 0.6)
            .map(|(n, _)| n)
            .unwrap();
        let c = report.solution[interior * 5 + 4];
        assert!(c > 1e-6, "no diffusion happened: c = {c}");
    }

    #[test]
    fn strict_mode_reports_divergence() {
        // One Newton iteration cannot converge a strongly nonlinear model.
        let mesh = Mesh::box_hex(2, 2, 2, 1.0, 1.0, 1.0);
        let mut model =
            FeModel::solid(mesh, Box::new(NeoHookeanSmall::from_young(1e3, 0.3, 500.0)));
        model.fix_face("z0");
        model.prescribe_face("z1", 2, 0.2);
        model.set_newton(1, 1e-12);
        model.set_strict(true);
        assert!(matches!(
            model.solve(),
            Err(FemError::NewtonDiverged { .. })
        ));
    }

    #[test]
    fn every_solver_works_end_to_end() {
        for solver in [LinearSolver::Ldl, LinearSolver::Cg, LinearSolver::Fgmres] {
            let mesh = Mesh::box_hex(2, 2, 2, 1.0, 1.0, 1.0);
            let mut model = FeModel::solid(mesh, Box::new(LinearElastic::new(1e3, 0.3)));
            model.fix_face("z0");
            model.prescribe_face("z1", 2, 0.02);
            model.set_solver(solver);
            model.set_strict(true);
            let report = model.solve().unwrap();
            assert!(report.converged, "{solver:?}");
        }
    }
}
