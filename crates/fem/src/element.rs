//! Element-level kernels: the dense inner loops of FE assembly.
//!
//! These are the "internal functions" the Belenos paper finds dominating
//! FEBio's hotspot profile: isoparametric geometry, B-matrices, and the
//! Gauss-loop accumulation of stiffness blocks and internal forces.

use crate::error::FemError;
use crate::material::{Material, Voigt};
use crate::mesh::ElementKind;
use crate::quadrature::{rule_for, GaussPoint};
use crate::shape::{eval, ShapeEval};
use crate::Result;

/// Most nodes any supported element has (Hex8): element-local arrays are
/// sized by it so the Gauss loop never touches the heap.
pub const MAX_NODES: usize = 8;

/// Geometry evaluated at one quadrature point: physical shape-function
/// gradients and the Jacobian determinant.
#[derive(Debug, Clone)]
pub struct GeomEval<'a> {
    grad: [[f64; 3]; MAX_NODES],
    /// Shape-function values.
    pub n: &'a [f64],
    /// Jacobian determinant (volume scale).
    pub detj: f64,
}

impl GeomEval<'_> {
    /// dN_a/dx (physical gradients) per node.
    pub fn grad(&self) -> &[[f64; 3]] {
        &self.grad[..self.n.len()]
    }
}

/// Evaluates physical gradients at a quadrature point.
///
/// # Errors
///
/// [`FemError::InvertedElement`] if the Jacobian determinant is
/// non-positive.
///
/// # Panics
///
/// Panics if the shape has more than [`MAX_NODES`] nodes.
pub fn geometry<'a>(
    coords: &[[f64; 3]],
    shape: &'a ShapeEval,
    element: usize,
) -> Result<GeomEval<'a>> {
    // J_ij = Σ_a x_a[i] dN_a/dξ_j
    let mut j = [[0.0f64; 3]; 3];
    for (a, x) in coords.iter().enumerate() {
        for i in 0..3 {
            for jj in 0..3 {
                j[i][jj] += x[i] * shape.dn[a][jj];
            }
        }
    }
    let detj = j[0][0] * (j[1][1] * j[2][2] - j[1][2] * j[2][1])
        - j[0][1] * (j[1][0] * j[2][2] - j[1][2] * j[2][0])
        + j[0][2] * (j[1][0] * j[2][1] - j[1][1] * j[2][0]);
    if detj <= 0.0 {
        return Err(FemError::InvertedElement { element, detj });
    }
    // Inverse of J.
    let inv = [
        [
            (j[1][1] * j[2][2] - j[1][2] * j[2][1]) / detj,
            (j[0][2] * j[2][1] - j[0][1] * j[2][2]) / detj,
            (j[0][1] * j[1][2] - j[0][2] * j[1][1]) / detj,
        ],
        [
            (j[1][2] * j[2][0] - j[1][0] * j[2][2]) / detj,
            (j[0][0] * j[2][2] - j[0][2] * j[2][0]) / detj,
            (j[0][2] * j[1][0] - j[0][0] * j[1][2]) / detj,
        ],
        [
            (j[1][0] * j[2][1] - j[1][1] * j[2][0]) / detj,
            (j[0][1] * j[2][0] - j[0][0] * j[2][1]) / detj,
            (j[0][0] * j[1][1] - j[0][1] * j[1][0]) / detj,
        ],
    ];
    // dN/dx = J^{-T} dN/dξ.
    assert!(shape.dn.len() <= MAX_NODES, "element has too many nodes");
    let mut grad = [[0.0; 3]; MAX_NODES];
    for (g, dn) in grad.iter_mut().zip(&shape.dn) {
        *g = [
            inv[0][0] * dn[0] + inv[1][0] * dn[1] + inv[2][0] * dn[2],
            inv[0][1] * dn[0] + inv[1][1] * dn[1] + inv[2][1] * dn[2],
            inv[0][2] * dn[0] + inv[1][2] * dn[1] + inv[2][2] * dn[2],
        ];
    }
    Ok(GeomEval {
        grad,
        n: &shape.n,
        detj,
    })
}

/// Small strain at a quadrature point from element displacements
/// (node-major `[u0x, u0y, u0z, u1x, ...]`).
pub fn strain_at(geom: &GeomEval, u_e: &[f64]) -> Voigt {
    let mut e = [0.0; 6];
    for (a, g) in geom.grad().iter().enumerate() {
        let ux = u_e[3 * a];
        let uy = u_e[3 * a + 1];
        let uz = u_e[3 * a + 2];
        e[0] += g[0] * ux;
        e[1] += g[1] * uy;
        e[2] += g[2] * uz;
        e[3] += g[1] * ux + g[0] * uy; // γ12
        e[4] += g[2] * uy + g[1] * uz; // γ23
        e[5] += g[2] * ux + g[0] * uz; // γ13
    }
    e
}

/// Result of one element integration: stiffness block (row-major
/// `dofs x dofs`) and internal-force vector.
#[derive(Debug, Clone)]
pub struct ElementMatrices {
    /// Row-major square stiffness block.
    pub k: Vec<f64>,
    /// Internal force (same dof ordering).
    pub f_int: Vec<f64>,
}

impl ElementMatrices {
    fn zeroed(ndof: usize) -> Self {
        ElementMatrices {
            k: vec![0.0; ndof * ndof],
            f_int: vec![0.0; ndof],
        }
    }
}

/// Displacement-formulation solid element (3 dofs/node).
#[derive(Debug)]
pub struct SolidKernel {
    kind: ElementKind,
    rule: Vec<GaussPoint>,
    shapes: Vec<ShapeEval>,
}

impl SolidKernel {
    /// Kernel for the given topology with its standard quadrature.
    pub fn new(kind: ElementKind) -> Self {
        let rule = rule_for(kind);
        let shapes = rule.iter().map(|g| eval(kind, g.xi)).collect();
        SolidKernel { kind, rule, shapes }
    }

    /// Quadrature points per element.
    pub fn gauss_points(&self) -> usize {
        self.rule.len()
    }

    /// Integrates stiffness + internal force for one element.
    ///
    /// `states_old` / `states_new` are the per-Gauss-point history slices
    /// (length `gauss_points * material.state_size()`).
    ///
    /// # Errors
    ///
    /// [`FemError::InvertedElement`] on a non-positive Jacobian.
    #[allow(clippy::too_many_arguments)]
    pub fn integrate(
        &self,
        element: usize,
        coords: &[[f64; 3]],
        u_e: &[f64],
        material: &dyn Material,
        states_old: &[f64],
        states_new: &mut [f64],
        dt: f64,
        t: f64,
    ) -> Result<ElementMatrices> {
        let ndof = 3 * self.kind.nodes();
        let mut em = ElementMatrices::zeroed(ndof);
        self.integrate_into(
            element,
            coords,
            u_e,
            material,
            states_old,
            states_new,
            dt,
            t,
            &mut em.k,
            &mut em.f_int,
        )?;
        Ok(em)
    }

    /// [`SolidKernel::integrate`] into caller-owned storage: `k` (row-major
    /// `ndof x ndof`) and `f` (`ndof`) are overwritten, nothing is
    /// allocated.
    ///
    /// # Errors
    ///
    /// [`FemError::InvertedElement`] on a non-positive Jacobian.
    #[allow(clippy::too_many_arguments)]
    pub fn integrate_into(
        &self,
        element: usize,
        coords: &[[f64; 3]],
        u_e: &[f64],
        material: &dyn Material,
        states_old: &[f64],
        states_new: &mut [f64],
        dt: f64,
        t: f64,
        k: &mut [f64],
        f: &mut [f64],
    ) -> Result<()> {
        let npe = self.kind.nodes();
        let ndof = 3 * npe;
        let ssz = material.state_size();
        assert_eq!((k.len(), f.len()), (ndof * ndof, ndof));
        k.fill(0.0);
        f.fill(0.0);
        for (g, (gp, shape)) in self.rule.iter().zip(&self.shapes).enumerate() {
            let geom = geometry(coords, shape, element)?;
            let grad = geom.grad();
            let w = gp.w * geom.detj;
            let eps = strain_at(&geom, u_e);
            let so = &states_old[g * ssz..(g + 1) * ssz];
            let sn = &mut states_new[g * ssz..(g + 1) * ssz];
            let sigma = material.stress(&eps, so, sn, dt, t);
            let d = material.tangent(&eps, so, dt, t);
            // f_int += Bᵀ σ w ; K += Bᵀ D B w, with B in gradient form.
            for a in 0..npe {
                // Rows of Bᵀ for node a: the three dof rows.
                // dof (a,0): [ga0, 0, 0, ga1, 0, ga2] against Voigt.
                let rows = b_rows(grad[a]);
                for i in 0..3 {
                    let mut acc = 0.0;
                    for v in 0..6 {
                        acc += rows[i][v] * sigma[v];
                    }
                    f[3 * a + i] += acc * w;
                }
                let bd = bt_d(&rows, &d);
                for b in 0..npe {
                    let rows_b = b_rows(grad[b]);
                    for i in 0..3 {
                        for jj in 0..3 {
                            let mut acc = 0.0;
                            for v in 0..6 {
                                acc += bd[i][v] * rows_b[jj][v];
                            }
                            k[(3 * a + i) * ndof + (3 * b + jj)] += acc * w;
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// The three B-matrix rows (Voigt, engineering shear) for one node's
/// gradient `g`: row `i` maps strain components to dof `(node, i)`.
fn b_rows(g: [f64; 3]) -> [[f64; 6]; 3] {
    [
        [g[0], 0.0, 0.0, g[1], 0.0, g[2]],
        [0.0, g[1], 0.0, g[0], g[2], 0.0],
        [0.0, 0.0, g[2], 0.0, g[1], g[0]],
    ]
}

/// The three `(Bᵀ D)` rows of one node: they depend on the node and the
/// tangent only, so the stiffness loops compute them once per node `a`
/// and contract them with every node `b`.
fn bt_d(rows: &[[f64; 6]; 3], d: &[[f64; 6]; 6]) -> [[f64; 6]; 3] {
    let mut bd = [[0.0; 6]; 3];
    for i in 0..3 {
        for v in 0..6 {
            let mut acc = 0.0;
            for u in 0..6 {
                acc += rows[i][u] * d[u][v];
            }
            bd[i][v] = acc;
        }
    }
    bd
}

/// Coupled u-p (biphasic) element: 4 dofs/node, backward-Euler Biot.
#[derive(Debug)]
pub struct PoroKernel {
    solid: SolidKernel,
    /// Principal hydraulic permeabilities (the `bp07–bp09` anisotropy axis).
    permeability: [f64; 3],
    /// Specific storage coefficient.
    storage: f64,
}

impl PoroKernel {
    /// Biphasic kernel with anisotropic permeability and storage.
    ///
    /// # Panics
    ///
    /// Panics if any permeability is negative or storage is negative.
    pub fn new(kind: ElementKind, permeability: [f64; 3], storage: f64) -> Self {
        assert!(
            permeability.iter().all(|&k| k >= 0.0),
            "negative permeability"
        );
        assert!(storage >= 0.0, "negative storage");
        PoroKernel {
            solid: SolidKernel::new(kind),
            permeability,
            storage,
        }
    }

    /// Quadrature points per element.
    pub fn gauss_points(&self) -> usize {
        self.solid.gauss_points()
    }

    /// Integrates the coupled block system for one element.
    ///
    /// Element dofs are node-major `[ux, uy, uz, p]`. `u_e`/`u_old` hold
    /// current and previous-step element solution in the same ordering.
    ///
    /// # Errors
    ///
    /// [`FemError::InvertedElement`] on a non-positive Jacobian.
    #[allow(clippy::too_many_arguments)]
    pub fn integrate(
        &self,
        element: usize,
        coords: &[[f64; 3]],
        u_e: &[f64],
        u_old: &[f64],
        material: &dyn Material,
        states_old: &[f64],
        states_new: &mut [f64],
        dt: f64,
        t: f64,
    ) -> Result<ElementMatrices> {
        let ndof = 4 * self.solid.kind.nodes();
        let mut em = ElementMatrices::zeroed(ndof);
        self.integrate_into(
            element,
            coords,
            u_e,
            u_old,
            material,
            states_old,
            states_new,
            dt,
            t,
            &mut em.k,
            &mut em.f_int,
        )?;
        Ok(em)
    }

    /// [`PoroKernel::integrate`] into caller-owned storage: `k` (row-major
    /// `ndof x ndof`) and `f` (`ndof`) are overwritten, nothing is
    /// allocated.
    ///
    /// # Errors
    ///
    /// [`FemError::InvertedElement`] on a non-positive Jacobian.
    #[allow(clippy::too_many_arguments)]
    pub fn integrate_into(
        &self,
        element: usize,
        coords: &[[f64; 3]],
        u_e: &[f64],
        u_old: &[f64],
        material: &dyn Material,
        states_old: &[f64],
        states_new: &mut [f64],
        dt: f64,
        t: f64,
        k: &mut [f64],
        f: &mut [f64],
    ) -> Result<()> {
        let npe = self.solid.kind.nodes();
        let dpn = 4;
        let ndof = dpn * npe;
        let ssz = material.state_size();
        assert_eq!((k.len(), f.len()), (ndof * ndof, ndof));
        k.fill(0.0);
        f.fill(0.0);
        // Displacement view of the element vector.
        let mut u_disp = [0.0; 3 * MAX_NODES];
        for a in 0..npe {
            for i in 0..3 {
                u_disp[3 * a + i] = u_e[dpn * a + i];
            }
        }
        for (g, (gp, shape)) in self.solid.rule.iter().zip(&self.solid.shapes).enumerate() {
            let geom = geometry(coords, shape, element)?;
            let grad = geom.grad();
            let w = gp.w * geom.detj;
            let eps = strain_at(&geom, &u_disp[..3 * npe]);
            let so = &states_old[g * ssz..(g + 1) * ssz];
            let sn = &mut states_new[g * ssz..(g + 1) * ssz];
            let sigma = material.stress(&eps, so, sn, dt, t);
            let d = material.tangent(&eps, so, dt, t);
            // Pressure and its gradient at the point.
            let mut p_val = 0.0;
            let mut dp = [0.0; 3];
            let mut p_old_val = 0.0;
            let mut divu = 0.0;
            let mut divu_old = 0.0;
            for a in 0..npe {
                let pa = u_e[dpn * a + 3];
                p_val += geom.n[a] * pa;
                p_old_val += geom.n[a] * u_old[dpn * a + 3];
                for i in 0..3 {
                    dp[i] += grad[a][i] * pa;
                    divu += grad[a][i] * u_e[dpn * a + i];
                    divu_old += grad[a][i] * u_old[dpn * a + i];
                }
            }
            for a in 0..npe {
                let ga = grad[a];
                let rows = b_rows(ga);
                // Momentum residual: Bᵀ(σ - p m) (effective stress).
                for i in 0..3 {
                    let mut acc = 0.0;
                    for v in 0..6 {
                        let total = sigma[v] - if v < 3 { p_val } else { 0.0 };
                        acc += rows[i][v] * total;
                    }
                    f[dpn * a + i] += acc * w;
                }
                // Mass residual (× -1 for symmetry): see crate docs.
                let mut mass = self.storage * (p_val - p_old_val) * geom.n[a];
                mass += geom.n[a] * (divu - divu_old);
                for i in 0..3 {
                    mass += dt * self.permeability[i] * ga[i] * dp[i];
                }
                f[dpn * a + 3] -= mass * w;
                let bd = bt_d(&rows, &d);
                for b in 0..npe {
                    let gb = grad[b];
                    let rows_b = b_rows(gb);
                    // K_uu.
                    for i in 0..3 {
                        for jj in 0..3 {
                            let mut acc = 0.0;
                            for v in 0..6 {
                                acc += bd[i][v] * rows_b[jj][v];
                            }
                            k[(dpn * a + i) * ndof + (dpn * b + jj)] += acc * w;
                        }
                        // K_up = -∫ dN_a/dx_i N_b  (pressure in momentum).
                        k[(dpn * a + i) * ndof + (dpn * b + 3)] -= ga[i] * geom.n[b] * w;
                        // K_pu = -∫ N_a dN_b/dx_i (symmetrized mass row).
                        k[(dpn * a + 3) * ndof + (dpn * b + i)] -= geom.n[a] * gb[i] * w;
                    }
                    // K_pp = -(S N_a N_b + dt ∇N_aᵀ k ∇N_b).
                    let mut perm = 0.0;
                    for i in 0..3 {
                        perm += self.permeability[i] * ga[i] * gb[i];
                    }
                    k[(dpn * a + 3) * ndof + (dpn * b + 3)] -=
                        (self.storage * geom.n[a] * geom.n[b] + dt * perm) * w;
                }
            }
        }
        Ok(())
    }
}

/// Velocity-formulation incompressible-flow element (3 dofs/node):
/// viscous + grad-div penalty + optional inertia + Picard convection.
#[derive(Debug)]
pub struct FluidKernel {
    kind: ElementKind,
    rule: Vec<GaussPoint>,
    shapes: Vec<ShapeEval>,
    viscosity: f64,
    penalty: f64,
    density: f64,
    /// Steady (`fl33`) vs transient (`fl34`) formulation.
    steady: bool,
}

impl FluidKernel {
    /// Fluid kernel; `steady` drops the inertia term.
    ///
    /// # Panics
    ///
    /// Panics on non-positive viscosity/penalty/density.
    pub fn new(
        kind: ElementKind,
        viscosity: f64,
        penalty: f64,
        density: f64,
        steady: bool,
    ) -> Self {
        assert!(
            viscosity > 0.0 && penalty > 0.0 && density > 0.0,
            "invalid fluid parameters"
        );
        let rule = rule_for(kind);
        let shapes = rule.iter().map(|g| eval(kind, g.xi)).collect();
        FluidKernel {
            kind,
            rule,
            shapes,
            viscosity,
            penalty,
            density,
            steady,
        }
    }

    /// Quadrature points per element.
    pub fn gauss_points(&self) -> usize {
        self.rule.len()
    }

    /// Integrates the Picard-linearized operator `A(v̄) v` and residual for
    /// one element. `v_e` is the current iterate, `v_bar` the previous
    /// Picard iterate, `v_old` the previous time step.
    ///
    /// # Errors
    ///
    /// [`FemError::InvertedElement`] on a non-positive Jacobian.
    #[allow(clippy::too_many_arguments)]
    pub fn integrate(
        &self,
        element: usize,
        coords: &[[f64; 3]],
        v_e: &[f64],
        v_bar: &[f64],
        v_old: &[f64],
        dt: f64,
    ) -> Result<ElementMatrices> {
        let ndof = 3 * self.kind.nodes();
        let mut em = ElementMatrices::zeroed(ndof);
        self.integrate_into(
            element,
            coords,
            v_e,
            v_bar,
            v_old,
            dt,
            &mut em.k,
            &mut em.f_int,
        )?;
        Ok(em)
    }

    /// [`FluidKernel::integrate`] into caller-owned storage: `k` (row-major
    /// `ndof x ndof`) and `f` (`ndof`) are overwritten, nothing is
    /// allocated.
    ///
    /// # Errors
    ///
    /// [`FemError::InvertedElement`] on a non-positive Jacobian.
    #[allow(clippy::too_many_arguments)]
    pub fn integrate_into(
        &self,
        element: usize,
        coords: &[[f64; 3]],
        v_e: &[f64],
        v_bar: &[f64],
        v_old: &[f64],
        dt: f64,
        k: &mut [f64],
        f: &mut [f64],
    ) -> Result<()> {
        let npe = self.kind.nodes();
        let ndof = 3 * npe;
        assert_eq!((k.len(), f.len()), (ndof * ndof, ndof));
        k.fill(0.0);
        let inv_dt = if self.steady { 0.0 } else { 1.0 / dt };
        for (gp, shape) in self.rule.iter().zip(&self.shapes) {
            let geom = geometry(coords, shape, element)?;
            let grad = geom.grad();
            let w = gp.w * geom.detj;
            // Picard advection velocity at the point.
            let mut vb = [0.0; 3];
            for a in 0..npe {
                for i in 0..3 {
                    vb[i] += geom.n[a] * v_bar[3 * a + i];
                }
            }
            for a in 0..npe {
                let ga = grad[a];
                for b in 0..npe {
                    let gb = grad[b];
                    // Viscous (vector Laplacian) + inertia + convection:
                    // identical on each velocity component.
                    let mut lap = 0.0;
                    let mut conv = 0.0;
                    for i in 0..3 {
                        lap += ga[i] * gb[i];
                        conv += vb[i] * gb[i];
                    }
                    let diag = (self.viscosity * lap
                        + self.density * inv_dt * geom.n[a] * geom.n[b]
                        + self.density * geom.n[a] * conv)
                        * w;
                    for i in 0..3 {
                        k[(3 * a + i) * ndof + (3 * b + i)] += diag;
                        // Grad-div penalty couples components.
                        for jj in 0..3 {
                            k[(3 * a + i) * ndof + (3 * b + jj)] +=
                                self.penalty * ga[i] * gb[jj] * w;
                        }
                    }
                }
            }
            // Residual contribution: A v - (ρ/dt) M v_old handled by caller
            // through f_int = A(v̄) v computed below.
            let _ = (&v_e, &v_old);
        }
        // f_int = K v_e - (ρ/dt) M v_old  (M lumped into K above, so build
        // the old-velocity term separately).
        for (i, fi) in f.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (j, &vj) in v_e.iter().enumerate() {
                acc += k[i * ndof + j] * vj;
            }
            *fi = acc;
        }
        if !self.steady {
            for (gp, shape) in self.rule.iter().zip(&self.shapes) {
                let geom = geometry(coords, shape, element)?;
                let w = gp.w * geom.detj;
                for a in 0..npe {
                    for b in 0..npe {
                        let m = self.density * inv_dt * geom.n[a] * geom.n[b] * w;
                        for i in 0..3 {
                            f[3 * a + i] -= m * v_old[3 * b + i];
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::material::{
        ActiveMuscle, DamageElastic, FiberExponential, GrowthElastic, J2Plasticity, LinearElastic,
        Multigeneration, NeoHookeanSmall, PrestrainElastic, PronyTerm, Viscoelastic,
    };
    use crate::mesh::Mesh;

    /// The stiffness loop as it stood before `Bᵀ D` was hoisted: the
    /// `(a, i)` row of `Bᵀ D` recomputed for every node `b`. Oracle for
    /// the differential test below; `k` is `dpn * npe` wide with the
    /// displacement components leading each node.
    fn unhoisted_stiffness(
        grad: &[[f64; 3]],
        d: &[[f64; 6]; 6],
        w: f64,
        dpn: usize,
        k: &mut [f64],
    ) {
        let npe = grad.len();
        let ndof = dpn * npe;
        for a in 0..npe {
            let rows = b_rows(grad[a]);
            for b in 0..npe {
                let rows_b = b_rows(grad[b]);
                for i in 0..3 {
                    let mut bd = [0.0; 6];
                    for v in 0..6 {
                        let mut acc = 0.0;
                        for u in 0..6 {
                            acc += rows[i][u] * d[u][v];
                        }
                        bd[v] = acc;
                    }
                    for jj in 0..3 {
                        let mut acc = 0.0;
                        for v in 0..6 {
                            acc += bd[v] * rows_b[jj][v];
                        }
                        k[(dpn * a + i) * ndof + (dpn * b + jj)] += acc * w;
                    }
                }
            }
        }
    }

    fn every_material() -> Vec<Box<dyn Material>> {
        vec![
            Box::new(LinearElastic::new(1000.0, 0.3)),
            Box::new(NeoHookeanSmall::from_young(500.0, 0.25, 20.0)),
            Box::new(FiberExponential::new(
                100.0,
                0.3,
                [0.6, 0.0, 0.8],
                1000.0,
                10.0,
            )),
            Box::new(DamageElastic::new(1000.0, 0.3, 0.0, 0.01)),
            Box::new(J2Plasticity::new(1000.0, 0.3, 5.0, 50.0)),
            Box::new(ActiveMuscle::new(
                100.0,
                0.3,
                [1.0, 0.0, 0.0],
                10.0,
                1.0,
                50.0,
                2.0,
            )),
            Box::new(GrowthElastic::new(1000.0, 0.3, 0.01)),
            Box::new(PrestrainElastic::new(
                1000.0,
                0.2,
                [0.01, 0.0, -0.01, 0.002, 0.0, 0.0],
            )),
            Box::new(Multigeneration::new(&[(0.0, 100.0, 0.3), (0.5, 50.0, 0.3)])),
            Box::new(Viscoelastic::new(
                1000.0,
                0.3,
                vec![
                    PronyTerm { g: 0.3, tau: 0.5 },
                    PronyTerm { g: 0.2, tau: 5.0 },
                ],
            )),
        ]
    }

    #[test]
    fn hoisted_stiffness_is_bit_identical_for_every_material() {
        // Distorted hex and a tet, a strain state large enough to yield
        // and damage: K_uu of the solid and of the u-p kernel must carry
        // the bits of the un-hoisted loop.
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for kind in [ElementKind::Hex8, ElementKind::Tet4] {
            let mesh = match kind {
                ElementKind::Hex8 => Mesh::box_hex(1, 1, 1, 1.0, 0.8, 1.3),
                ElementKind::Tet4 => Mesh::box_tet(1, 1, 1, 1.0, 0.8, 1.3),
            };
            let npe = kind.nodes();
            let mut coords: Vec<[f64; 3]> = mesh
                .element(0)
                .iter()
                .map(|&n| mesh.coords()[n as usize])
                .collect();
            coords[1][0] += 0.07;
            coords[npe - 1][2] -= 0.05;
            let u: Vec<f64> = (0..3 * npe)
                .map(|i| 0.02 * ((i * 7 % 5) as f64 - 2.0))
                .collect();
            let kern = SolidKernel::new(kind);
            let poro = PoroKernel::new(kind, [1e-3, 2e-3, 3e-3], 1e-4);
            let gps = kern.gauss_points();
            for mat in every_material() {
                let ssz = mat.state_size();
                let mut old = vec![0.0; gps * ssz];
                for g in 0..gps {
                    mat.init_state(&mut old[g * ssz..(g + 1) * ssz]);
                }
                let (dt, t) = (0.1, 0.7);

                let mut want = vec![0.0; 9 * npe * npe];
                let mut scratch = vec![0.0; ssz];
                for (g, (gp, shape)) in kern.rule.iter().zip(&kern.shapes).enumerate() {
                    let geom = geometry(&coords, shape, 0).unwrap();
                    let eps = strain_at(&geom, &u);
                    let so = &old[g * ssz..(g + 1) * ssz];
                    mat.stress(&eps, so, &mut scratch, dt, t);
                    let d = mat.tangent(&eps, so, dt, t);
                    unhoisted_stiffness(geom.grad(), &d, gp.w * geom.detj, 3, &mut want);
                }
                let mut new = vec![0.0; gps * ssz];
                let got = kern
                    .integrate(0, &coords, &u, mat.as_ref(), &old, &mut new, dt, t)
                    .unwrap();
                assert_eq!(bits(&got.k), bits(&want), "{} {kind:?} solid", mat.name());

                // Same displacements, zero pressures: K_uu of the coupled
                // block is the solid stiffness, entry for entry.
                let up: Vec<f64> = (0..4 * npe)
                    .map(|i| {
                        if i % 4 < 3 {
                            u[3 * (i / 4) + i % 4]
                        } else {
                            0.0
                        }
                    })
                    .collect();
                let got = poro
                    .integrate(0, &coords, &up, &up, mat.as_ref(), &old, &mut new, dt, t)
                    .unwrap();
                for a in 0..3 * npe {
                    for b in 0..3 * npe {
                        let (ra, rb) = (4 * (a / 3) + a % 3, 4 * (b / 3) + b % 3);
                        assert_eq!(
                            got.k[ra * 4 * npe + rb].to_bits(),
                            want[a * 3 * npe + b].to_bits(),
                            "{} {kind:?} poro K_uu ({a}, {b})",
                            mat.name()
                        );
                    }
                }
            }
        }
    }

    fn unit_hex_coords() -> Vec<[f64; 3]> {
        let m = Mesh::box_hex(1, 1, 1, 1.0, 1.0, 1.0);
        m.element(0)
            .iter()
            .map(|&n| m.coords()[n as usize])
            .collect()
    }

    #[test]
    fn geometry_of_unit_hex() {
        let shape = eval(ElementKind::Hex8, [0.0, 0.0, 0.0]);
        let geom = geometry(&unit_hex_coords(), &shape, 0).unwrap();
        // Unit cube mapped from [-1,1]³: detJ = (1/2)³.
        assert!((geom.detj - 0.125).abs() < 1e-14);
    }

    #[test]
    fn inverted_element_detected() {
        let mut coords = unit_hex_coords();
        // Collapse the element through itself.
        for c in coords.iter_mut() {
            c[2] = -c[2];
        }
        let shape = eval(ElementKind::Hex8, [0.0, 0.0, 0.0]);
        assert!(matches!(
            geometry(&coords, &shape, 7),
            Err(FemError::InvertedElement { element: 7, .. })
        ));
    }

    #[test]
    fn strain_from_uniform_gradient() {
        // u = (0.01 x, 0, 0) → ε11 = 0.01 exactly.
        let coords = unit_hex_coords();
        let shape = eval(ElementKind::Hex8, [0.3, -0.2, 0.1]);
        let geom = geometry(&coords, &shape, 0).unwrap();
        let u: Vec<f64> = coords
            .iter()
            .flat_map(|c| [0.01 * c[0], 0.0, 0.0])
            .collect();
        let e = strain_at(&geom, &u);
        assert!((e[0] - 0.01).abs() < 1e-14);
        for v in &e[1..] {
            assert!(v.abs() < 1e-14);
        }
    }

    #[test]
    fn stiffness_is_symmetric_and_rigid_body_free() {
        let mat = LinearElastic::new(1000.0, 0.3);
        let kern = SolidKernel::new(ElementKind::Hex8);
        let coords = unit_hex_coords();
        let u = vec![0.0; 24];
        let em = kern
            .integrate(0, &coords, &u, &mat, &[], &mut [], 1.0, 0.0)
            .unwrap();
        for i in 0..24 {
            for j in 0..24 {
                assert!(
                    (em.k[i * 24 + j] - em.k[j * 24 + i]).abs() < 1e-9,
                    "K not symmetric at ({i},{j})"
                );
            }
        }
        // Rigid translation produces zero force: K * t = 0.
        let t: Vec<f64> = (0..24)
            .map(|d| if d % 3 == 0 { 1.0 } else { 0.0 })
            .collect();
        for i in 0..24 {
            let acc: f64 = (0..24).map(|j| em.k[i * 24 + j] * t[j]).sum();
            assert!(acc.abs() < 1e-9, "rigid mode produces force {acc} at {i}");
        }
    }

    #[test]
    fn internal_force_consistent_with_stiffness_for_linear_material() {
        // For linear elasticity f_int(u) = K u exactly.
        let mat = LinearElastic::new(500.0, 0.25);
        let kern = SolidKernel::new(ElementKind::Hex8);
        let coords = unit_hex_coords();
        let u: Vec<f64> = (0..24)
            .map(|i| 0.001 * ((i * 7 % 5) as f64 - 2.0))
            .collect();
        let em = kern
            .integrate(0, &coords, &u, &mat, &[], &mut [], 1.0, 0.0)
            .unwrap();
        for i in 0..24 {
            let ku: f64 = (0..24).map(|j| em.k[i * 24 + j] * u[j]).sum();
            assert!(
                (ku - em.f_int[i]).abs() < 1e-10,
                "row {i}: {ku} vs {}",
                em.f_int[i]
            );
        }
    }

    #[test]
    fn tet_kernel_integrates() {
        let mat = LinearElastic::new(100.0, 0.3);
        let kern = SolidKernel::new(ElementKind::Tet4);
        let m = Mesh::box_tet(1, 1, 1, 1.0, 1.0, 1.0);
        let coords: Vec<[f64; 3]> = m
            .element(0)
            .iter()
            .map(|&n| m.coords()[n as usize])
            .collect();
        let em = kern
            .integrate(0, &coords, &[0.0; 12], &mat, &[], &mut [], 1.0, 0.0)
            .unwrap();
        assert_eq!(em.k.len(), 144);
        // Symmetry.
        for i in 0..12 {
            for j in 0..12 {
                assert!((em.k[i * 12 + j] - em.k[j * 12 + i]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn poro_block_structure() {
        let mat = LinearElastic::new(1000.0, 0.3);
        let kern = PoroKernel::new(ElementKind::Hex8, [1e-3, 1e-3, 1e-3], 1e-4);
        let coords = unit_hex_coords();
        let u = vec![0.0; 32];
        let em = kern
            .integrate(0, &coords, &u, &u, &mat, &[], &mut [], 0.1, 0.0)
            .unwrap();
        assert_eq!(em.k.len(), 32 * 32);
        // K_pp must be negative definite on the diagonal (symmetric
        // indefinite saddle form).
        for a in 0..8 {
            let d = em.k[(4 * a + 3) * 32 + (4 * a + 3)];
            assert!(d < 0.0, "K_pp diagonal {d} should be negative");
        }
        // Global symmetry of the block matrix.
        for i in 0..32 {
            for j in 0..32 {
                assert!(
                    (em.k[i * 32 + j] - em.k[j * 32 + i]).abs() < 1e-9,
                    "poro K not symmetric at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn fluid_operator_is_unsymmetric_with_convection() {
        let kern = FluidKernel::new(ElementKind::Hex8, 0.01, 10.0, 1.0, true);
        let coords = unit_hex_coords();
        let v_bar: Vec<f64> = (0..24)
            .map(|d| if d % 3 == 0 { 1.0 } else { 0.0 })
            .collect();
        let em = kern
            .integrate(0, &coords, &[0.0; 24], &v_bar, &[0.0; 24], 0.1)
            .unwrap();
        let mut asym = 0.0f64;
        for i in 0..24 {
            for j in 0..24 {
                asym = asym.max((em.k[i * 24 + j] - em.k[j * 24 + i]).abs());
            }
        }
        assert!(
            asym > 1e-6,
            "convection should break symmetry (asym {asym})"
        );
    }

    #[test]
    fn fluid_steady_vs_transient_inertia() {
        let steady = FluidKernel::new(ElementKind::Hex8, 0.01, 10.0, 1.0, true);
        let trans = FluidKernel::new(ElementKind::Hex8, 0.01, 10.0, 1.0, false);
        let coords = unit_hex_coords();
        let zero = vec![0.0; 24];
        let ks = steady
            .integrate(0, &coords, &zero, &zero, &zero, 0.01)
            .unwrap();
        let kt = trans
            .integrate(0, &coords, &zero, &zero, &zero, 0.01)
            .unwrap();
        // Transient diagonal is much stiffer (mass / dt).
        assert!(kt.k[0] > ks.k[0] * 2.0, "{} vs {}", kt.k[0], ks.k[0]);
    }
}
