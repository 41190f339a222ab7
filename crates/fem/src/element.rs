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

    /// Residual pass for one element: the stress and trial history at
    /// every Gauss point and the internal force `f` (`ndof`, overwritten),
    /// `f_int = Σ Bᵀ σ w`. Nothing is allocated. Of the two passes, only
    /// this one evaluates stress or writes `states_new`.
    ///
    /// `states_old` / `states_new` are the per-Gauss-point history slices
    /// (length `gauss_points * material.state_size()`).
    ///
    /// # Errors
    ///
    /// [`FemError::InvertedElement`] on a non-positive Jacobian.
    #[allow(clippy::too_many_arguments)]
    pub fn residual_into(
        &self,
        element: usize,
        coords: &[[f64; 3]],
        u_e: &[f64],
        material: &dyn Material,
        states_old: &[f64],
        states_new: &mut [f64],
        dt: f64,
        t: f64,
        f: &mut [f64],
    ) -> Result<()> {
        let ssz = material.state_size();
        assert_eq!(f.len(), 3 * self.kind.nodes());
        f.fill(0.0);
        for (g, (gp, shape)) in self.rule.iter().zip(&self.shapes).enumerate() {
            let geom = geometry(coords, shape, element)?;
            let eps = strain_at(&geom, u_e);
            let so = &states_old[g * ssz..(g + 1) * ssz];
            let sn = &mut states_new[g * ssz..(g + 1) * ssz];
            let sigma = material.stress(&eps, so, sn, dt, t);
            add_bt_s(geom.grad(), &sigma, gp.w * geom.detj, 3, f);
        }
        Ok(())
    }

    /// Stiffness pass for one element at the iterate the residual pass
    /// saw: `k` (row-major `ndof x ndof`, overwritten) `= Σ Bᵀ D B w`.
    /// Nothing is allocated. The tangent reads the converged history
    /// `states_old`; no stress is evaluated and no history written.
    ///
    /// # Errors
    ///
    /// [`FemError::InvertedElement`] on a non-positive Jacobian.
    #[allow(clippy::too_many_arguments)]
    pub fn stiffness_into(
        &self,
        element: usize,
        coords: &[[f64; 3]],
        u_e: &[f64],
        material: &dyn Material,
        states_old: &[f64],
        dt: f64,
        t: f64,
        k: &mut [f64],
    ) -> Result<()> {
        let ssz = material.state_size();
        let ndof = 3 * self.kind.nodes();
        assert_eq!(k.len(), ndof * ndof);
        k.fill(0.0);
        for (g, (gp, shape)) in self.rule.iter().zip(&self.shapes).enumerate() {
            let geom = geometry(coords, shape, element)?;
            let eps = strain_at(&geom, u_e);
            let d = material.tangent(&eps, &states_old[g * ssz..(g + 1) * ssz], dt, t);
            add_bt_d_b(geom.grad(), &d, gp.w * geom.detj, 3, k);
        }
        Ok(())
    }
}

/// `f += Bᵀ s w` over the displacement components, which lead each of
/// the element's `dpn`-wide node blocks.
fn add_bt_s(grad: &[[f64; 3]], s: &Voigt, w: f64, dpn: usize, f: &mut [f64]) {
    for (a, &ga) in grad.iter().enumerate() {
        for (i, row) in B_NZ.iter().enumerate() {
            f[dpn * a + i] += b_dot(row, ga, s) * w;
        }
    }
}

/// `k += Bᵀ D B w` over the displacement rows and columns of a
/// row-major `dpn * npe`-wide block, B in gradient form.
fn add_bt_d_b(grad: &[[f64; 3]], d: &[[f64; 6]; 6], w: f64, dpn: usize, k: &mut [f64]) {
    let ndof = dpn * grad.len();
    for (a, &ga) in grad.iter().enumerate() {
        let bd = bt_d(ga, d);
        for (b, &gb) in grad.iter().enumerate() {
            for (i, bd_i) in bd.iter().enumerate() {
                for (jj, row) in B_NZ.iter().enumerate() {
                    k[(dpn * a + i) * ndof + (dpn * b + jj)] += b_dot(row, gb, bd_i) * w;
                }
            }
        }
    }
}

/// The nonzeros of one node's three B-matrix rows (Voigt, engineering
/// shear), which map strain components to dof `(node, i)`: row `i` holds
/// the gradient component `g[c]` at Voigt position `v` for each `(v, c)`
/// of `B_NZ[i]`, in ascending `v`, and zeros elsewhere.
///
/// The sums over a row read only these three entries. Each skipped term
/// is a finite value times zero, i.e. ±0, and a sum that starts at +0.0
/// never becomes −0.0 under round-to-nearest, so adding ±0 never changes
/// it: the result carries the bits of the dense six-term sum.
const B_NZ: [[(usize, usize); 3]; 3] = [
    [(0, 0), (3, 1), (5, 2)],
    [(1, 1), (3, 0), (4, 2)],
    [(2, 2), (4, 1), (5, 0)],
];

/// The three `(Bᵀ D)` rows of the node with gradient `g`: they depend on
/// the node and the tangent only, so the stiffness loops compute them
/// once per node `a` and contract them with every node `b`.
fn bt_d(g: [f64; 3], d: &[[f64; 6]; 6]) -> [[f64; 6]; 3] {
    let mut bd = [[0.0; 6]; 3];
    for (bd_i, row) in bd.iter_mut().zip(&B_NZ) {
        for (v, x) in bd_i.iter_mut().enumerate() {
            let mut acc = 0.0;
            for &(u, c) in row {
                acc += g[c] * d[u][v];
            }
            *x = acc;
        }
    }
    bd
}

/// B-matrix row `row` of the node with gradient `g` dotted with the Voigt
/// vector `s` (a stress, or a `Bᵀ D` row).
fn b_dot(row: &[(usize, usize); 3], g: [f64; 3], s: &[f64; 6]) -> f64 {
    let mut acc = 0.0;
    for &(v, c) in row {
        acc += g[c] * s[v];
    }
    acc
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

    /// Residual pass for one element: stress and trial history at every
    /// Gauss point, and the internal force `f` (`ndof`, overwritten) —
    /// momentum `Bᵀ(σ − p m)` and the mass balance. Nothing is allocated.
    /// Of the two passes, only this one evaluates stress or writes
    /// `states_new`.
    ///
    /// Element dofs are node-major `[ux, uy, uz, p]`. `u_e`/`u_old` hold
    /// current and previous-step element solution in the same ordering.
    ///
    /// # Errors
    ///
    /// [`FemError::InvertedElement`] on a non-positive Jacobian.
    #[allow(clippy::too_many_arguments)]
    pub fn residual_into(
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
        f: &mut [f64],
    ) -> Result<()> {
        let npe = self.solid.kind.nodes();
        let dpn = 4;
        let ssz = material.state_size();
        assert_eq!(f.len(), dpn * npe);
        f.fill(0.0);
        let u_disp = displacements(u_e, npe);
        for (g, (gp, shape)) in self.solid.rule.iter().zip(&self.solid.shapes).enumerate() {
            let geom = geometry(coords, shape, element)?;
            let grad = geom.grad();
            let w = gp.w * geom.detj;
            let eps = strain_at(&geom, &u_disp[..3 * npe]);
            let so = &states_old[g * ssz..(g + 1) * ssz];
            let sn = &mut states_new[g * ssz..(g + 1) * ssz];
            let sigma = material.stress(&eps, so, sn, dt, t);
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
            // Momentum residual: Bᵀ(σ - p m).
            let total: Voigt = std::array::from_fn(|v| sigma[v] - if v < 3 { p_val } else { 0.0 });
            add_bt_s(grad, &total, w, dpn, f);
            for (a, ga) in grad.iter().enumerate() {
                // Mass residual (× -1 for symmetry): see crate docs.
                let mut mass = self.storage * (p_val - p_old_val) * geom.n[a];
                mass += geom.n[a] * (divu - divu_old);
                for i in 0..3 {
                    mass += dt * self.permeability[i] * ga[i] * dp[i];
                }
                f[dpn * a + 3] -= mass * w;
            }
        }
        Ok(())
    }

    /// Stiffness pass for one element at the iterate the residual pass
    /// saw: the coupled block `k` (row-major `ndof x ndof`, overwritten).
    /// Nothing is allocated. The tangent reads the converged history
    /// `states_old`; no stress is evaluated and no history written.
    ///
    /// # Errors
    ///
    /// [`FemError::InvertedElement`] on a non-positive Jacobian.
    #[allow(clippy::too_many_arguments)]
    pub fn stiffness_into(
        &self,
        element: usize,
        coords: &[[f64; 3]],
        u_e: &[f64],
        material: &dyn Material,
        states_old: &[f64],
        dt: f64,
        t: f64,
        k: &mut [f64],
    ) -> Result<()> {
        let npe = self.solid.kind.nodes();
        let dpn = 4;
        let ndof = dpn * npe;
        let ssz = material.state_size();
        assert_eq!(k.len(), ndof * ndof);
        k.fill(0.0);
        let u_disp = displacements(u_e, npe);
        for (g, (gp, shape)) in self.solid.rule.iter().zip(&self.solid.shapes).enumerate() {
            let geom = geometry(coords, shape, element)?;
            let grad = geom.grad();
            let w = gp.w * geom.detj;
            let eps = strain_at(&geom, &u_disp[..3 * npe]);
            let d = material.tangent(&eps, &states_old[g * ssz..(g + 1) * ssz], dt, t);
            // K_uu.
            add_bt_d_b(grad, &d, w, dpn, k);
            for (a, ga) in grad.iter().enumerate() {
                for (b, gb) in grad.iter().enumerate() {
                    for i in 0..3 {
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

/// The displacement view `[ux, uy, uz]` per node of a u-p element vector.
fn displacements(u_e: &[f64], npe: usize) -> [f64; 3 * MAX_NODES] {
    let mut u_disp = [0.0; 3 * MAX_NODES];
    for a in 0..npe {
        u_disp[3 * a..3 * a + 3].copy_from_slice(&u_e[4 * a..4 * a + 3]);
    }
    u_disp
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
    /// one element into caller-owned storage: `k` (row-major `ndof x
    /// ndof`) and `f` (`ndof`) are overwritten, nothing is allocated.
    /// `v_e` is the current iterate, `v_bar` the previous Picard iterate,
    /// `v_old` the previous time step.
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
    use crate::material::{every_material, LinearElastic};
    use crate::mesh::Mesh;
    use proptest::prelude::*;

    impl SolidKernel {
        /// The combined kernel as it stood before the residual and
        /// stiffness passes were split: `k` and `f` from one Gauss loop that
        /// evaluates stress and tangent together. Oracle for the split.
        #[allow(clippy::too_many_arguments)]
        fn integrate_into(
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
                    let ga = grad[a];
                    for (i, row) in B_NZ.iter().enumerate() {
                        f[3 * a + i] += b_dot(row, ga, &sigma) * w;
                    }
                    let bd = bt_d(ga, &d);
                    for b in 0..npe {
                        let gb = grad[b];
                        for i in 0..3 {
                            for (jj, row) in B_NZ.iter().enumerate() {
                                k[(3 * a + i) * ndof + (3 * b + jj)] += b_dot(row, gb, &bd[i]) * w;
                            }
                        }
                    }
                }
            }
            Ok(())
        }
    }

    impl PoroKernel {
        /// The combined kernel as it stood before the residual and
        /// stiffness passes were split: `k` and `f` from one Gauss loop that
        /// evaluates stress and tangent together. Oracle for the split.
        #[allow(clippy::too_many_arguments)]
        fn integrate_into(
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
                // Effective stress σ - p m, for the momentum residual.
                let total: Voigt =
                    std::array::from_fn(|v| sigma[v] - if v < 3 { p_val } else { 0.0 });
                for a in 0..npe {
                    let ga = grad[a];
                    // Momentum residual: Bᵀ(σ - p m).
                    for (i, row) in B_NZ.iter().enumerate() {
                        f[dpn * a + i] += b_dot(row, ga, &total) * w;
                    }
                    // Mass residual (× -1 for symmetry): see crate docs.
                    let mut mass = self.storage * (p_val - p_old_val) * geom.n[a];
                    mass += geom.n[a] * (divu - divu_old);
                    for i in 0..3 {
                        mass += dt * self.permeability[i] * ga[i] * dp[i];
                    }
                    f[dpn * a + 3] -= mass * w;
                    let bd = bt_d(ga, &d);
                    for b in 0..npe {
                        let gb = grad[b];
                        // K_uu.
                        for i in 0..3 {
                            for (jj, row) in B_NZ.iter().enumerate() {
                                k[(dpn * a + i) * ndof + (dpn * b + jj)] +=
                                    b_dot(row, gb, &bd[i]) * w;
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

    /// One node's B-matrix rows as dense Voigt rows, the form the element
    /// loops read before `B_NZ`.
    fn b_rows(g: [f64; 3]) -> [[f64; 6]; 3] {
        [
            [g[0], 0.0, 0.0, g[1], 0.0, g[2]],
            [0.0, g[1], 0.0, g[0], g[2], 0.0],
            [0.0, 0.0, g[2], 0.0, g[1], g[0]],
        ]
    }

    /// One Gauss point's displacement block as it stood before the
    /// B-sparse contraction and the `Bᵀ D` hoist: dense `b_rows`, six-term
    /// sums, and the `(a, i)` row of `Bᵀ D` recomputed for every node `b`.
    /// Adds `Bᵀ s w` to `f` and `Bᵀ D B w` to `k`; both are `dpn * npe`
    /// wide with the displacement components leading each node. Oracle
    /// for the differential tests below.
    #[allow(clippy::too_many_arguments)]
    fn dense_u_block(
        grad: &[[f64; 3]],
        d: &[[f64; 6]; 6],
        s: &Voigt,
        w: f64,
        dpn: usize,
        k: &mut [f64],
        f: &mut [f64],
    ) {
        let npe = grad.len();
        let ndof = dpn * npe;
        for a in 0..npe {
            let rows = b_rows(grad[a]);
            for i in 0..3 {
                let mut acc = 0.0;
                for v in 0..6 {
                    acc += rows[i][v] * s[v];
                }
                f[dpn * a + i] += acc * w;
            }
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

    /// The solid kernel's residual and stiffness passes over one element:
    /// `(k, f, states_new)`.
    fn solid_passes(
        kern: &SolidKernel,
        coords: &[[f64; 3]],
        u: &[f64],
        mat: &dyn Material,
        old: &[f64],
        dt: f64,
        t: f64,
    ) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let ndof = 3 * kern.kind.nodes();
        let (mut k, mut f, mut new) = (vec![0.0; ndof * ndof], vec![0.0; ndof], old.to_vec());
        kern.residual_into(0, coords, u, mat, old, &mut new, dt, t, &mut f)
            .unwrap();
        kern.stiffness_into(0, coords, u, mat, old, dt, t, &mut k)
            .unwrap();
        (k, f, new)
    }

    /// The u-p kernel's residual and stiffness passes over one element:
    /// `(k, f, states_new)`.
    #[allow(clippy::too_many_arguments)]
    fn poro_passes(
        kern: &PoroKernel,
        coords: &[[f64; 3]],
        u: &[f64],
        u_old: &[f64],
        mat: &dyn Material,
        old: &[f64],
        dt: f64,
        t: f64,
    ) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let ndof = 4 * kern.solid.kind.nodes();
        let (mut k, mut f, mut new) = (vec![0.0; ndof * ndof], vec![0.0; ndof], old.to_vec());
        kern.residual_into(0, coords, u, u_old, mat, old, &mut new, dt, t, &mut f)
            .unwrap();
        kern.stiffness_into(0, coords, u, mat, old, dt, t, &mut k)
            .unwrap();
        (k, f, new)
    }

    /// For every material: the solid kernel's `k` and `f`, and the
    /// displacement rows and columns of the u-p kernel's `k` and `f`
    /// (nodal pressures `p`), carry the bits of `dense_u_block`.
    fn assert_u_block_matches_dense(kind: ElementKind, coords: &[[f64; 3]], u: &[f64], p: &[f64]) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let npe = kind.nodes();
        let kern = SolidKernel::new(kind);
        let poro = PoroKernel::new(kind, [1e-3, 2e-3, 3e-3], 1e-4);
        let gps = kern.gauss_points();
        let up: Vec<f64> = (0..4 * npe)
            .map(|i| {
                if i % 4 < 3 {
                    u[3 * (i / 4) + i % 4]
                } else {
                    p[i / 4]
                }
            })
            .collect();
        let (dt, t) = (0.1, 0.7);
        for mat in every_material() {
            let name = mat.name();
            let ssz = mat.state_size();
            let mut old = vec![0.0; gps * ssz];
            for g in 0..gps {
                mat.init_state(&mut old[g * ssz..(g + 1) * ssz]);
            }
            let mut scratch = vec![0.0; ssz];
            let (mut want_k, mut want_f) = (vec![0.0; 9 * npe * npe], vec![0.0; 3 * npe]);
            let (mut want_pk, mut want_pf) = (vec![0.0; 16 * npe * npe], vec![0.0; 4 * npe]);
            for (g, (gp, shape)) in kern.rule.iter().zip(&kern.shapes).enumerate() {
                let geom = geometry(coords, shape, 0).unwrap();
                let w = gp.w * geom.detj;
                let eps = strain_at(&geom, u);
                let so = &old[g * ssz..(g + 1) * ssz];
                let sigma = mat.stress(&eps, so, &mut scratch, dt, t);
                let d = mat.tangent(&eps, so, dt, t);
                assert!(sigma
                    .iter()
                    .chain(d.iter().flatten())
                    .all(|x| x.is_finite()));
                dense_u_block(geom.grad(), &d, &sigma, w, 3, &mut want_k, &mut want_f);
                let mut p_val = 0.0;
                for a in 0..npe {
                    p_val += geom.n[a] * p[a];
                }
                let total: Voigt =
                    std::array::from_fn(|v| sigma[v] - if v < 3 { p_val } else { 0.0 });
                dense_u_block(geom.grad(), &d, &total, w, 4, &mut want_pk, &mut want_pf);
            }

            let (k, f, _) = solid_passes(&kern, coords, u, mat.as_ref(), &old, dt, t);
            assert_eq!(bits(&k), bits(&want_k), "{name} {kind:?} solid k");
            assert_eq!(bits(&f), bits(&want_f), "{name} {kind:?} solid f");

            let (k, f, _) = poro_passes(&poro, coords, &up, &up, mat.as_ref(), &old, dt, t);
            let ndof = 4 * npe;
            for r in (0..ndof).filter(|r| r % 4 < 3) {
                assert_eq!(
                    f[r].to_bits(),
                    want_pf[r].to_bits(),
                    "{name} {kind:?} poro f_u ({r})"
                );
                for c in (0..ndof).filter(|c| c % 4 < 3) {
                    assert_eq!(
                        k[r * ndof + c].to_bits(),
                        want_pk[r * ndof + c].to_bits(),
                        "{name} {kind:?} poro K_uu ({r}, {c})"
                    );
                }
            }
        }
    }

    fn box_element(kind: ElementKind) -> Vec<[f64; 3]> {
        let mesh = match kind {
            ElementKind::Hex8 => Mesh::box_hex(1, 1, 1, 1.0, 0.8, 1.3),
            ElementKind::Tet4 => Mesh::box_tet(1, 1, 1, 1.0, 0.8, 1.3),
        };
        mesh.element(0)
            .iter()
            .map(|&n| mesh.coords()[n as usize])
            .collect()
    }

    // For every material, on a randomly distorted hex or tet with
    // random displacements, pressures and a history left by an earlier
    // step: the residual pass's `f` and history and the stiffness
    // pass's `k` carry the combined kernel's bits, solid and u-p.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn split_passes_are_bit_identical_to_the_combined_kernel(
            tets in any::<bool>(),
            jiggle in prop::collection::vec(-0.08f64..0.08, 3 * MAX_NODES),
            u in prop::collection::vec(-0.03f64..0.03, 4 * MAX_NODES),
            u_old in prop::collection::vec(-0.03f64..0.03, 4 * MAX_NODES),
            dt in 0.01f64..2.0,
            t in 0.0f64..5.0,
        ) {
            let kind = if tets { ElementKind::Tet4 } else { ElementKind::Hex8 };
            let npe = kind.nodes();
            let mut coords = box_element(kind);
            for (a, c) in coords.iter_mut().enumerate() {
                for i in 0..3 {
                    c[i] += jiggle[3 * a + i];
                }
            }
            let kern = SolidKernel::new(kind);
            let poro = PoroKernel::new(kind, [1e-3, 2e-3, 3e-3], 1e-4);
            let gps = kern.gauss_points();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let (u3, u3_old) = (&u[..3 * npe], &u_old[..3 * npe]);
            let (u4, u4_old) = (&u[..4 * npe], &u_old[..4 * npe]);
            for mat in every_material() {
                let name = mat.name();
                let ssz = mat.state_size();
                let mut virgin = vec![0.0; gps * ssz];
                for g in 0..gps {
                    mat.init_state(&mut virgin[g * ssz..(g + 1) * ssz]);
                }
                // The converged history of a step that ended at `u_old`.
                let mut old = virgin.clone();
                let (mut k, mut f) = (vec![0.0; 16 * npe * npe], vec![0.0; 4 * npe]);
                kern.integrate_into(
                    0, &coords, u3_old, mat.as_ref(), &virgin, &mut old, dt, t,
                    &mut k[..9 * npe * npe], &mut f[..3 * npe],
                )
                .unwrap();

                let mut want_new = old.clone();
                kern.integrate_into(
                    0, &coords, u3, mat.as_ref(), &old, &mut want_new, dt, t,
                    &mut k[..9 * npe * npe], &mut f[..3 * npe],
                )
                .unwrap();
                let (got_k, got_f, got_new) =
                    solid_passes(&kern, &coords, u3, mat.as_ref(), &old, dt, t);
                prop_assert_eq!(bits(&got_k), bits(&k[..9 * npe * npe]), "{} solid k", name);
                prop_assert_eq!(bits(&got_f), bits(&f[..3 * npe]), "{} solid f", name);
                prop_assert_eq!(bits(&got_new), bits(&want_new), "{} solid history", name);

                let mut want_new = old.clone();
                poro.integrate_into(
                    0, &coords, u4, u4_old, mat.as_ref(), &old, &mut want_new, dt, t,
                    &mut k, &mut f,
                )
                .unwrap();
                let (got_k, got_f, got_new) =
                    poro_passes(&poro, &coords, u4, u4_old, mat.as_ref(), &old, dt, t);
                prop_assert_eq!(bits(&got_k), bits(&k), "{} u-p k", name);
                prop_assert_eq!(bits(&got_f), bits(&f), "{} u-p f", name);
                prop_assert_eq!(bits(&got_new), bits(&want_new), "{} u-p history", name);
            }
        }
    }

    #[test]
    fn hoisted_stiffness_is_bit_identical_for_every_material() {
        // Distorted hex and tet, a strain state large enough to yield and
        // damage, nonzero pressures.
        for kind in [ElementKind::Hex8, ElementKind::Tet4] {
            let npe = kind.nodes();
            let mut coords = box_element(kind);
            coords[1][0] += 0.07;
            coords[npe - 1][2] -= 0.05;
            let u: Vec<f64> = (0..3 * npe)
                .map(|i| 0.02 * ((i * 7 % 5) as f64 - 2.0))
                .collect();
            let p: Vec<f64> = (0..npe).map(|a| 0.3 * (a as f64 - 1.5)).collect();
            assert_u_block_matches_dense(kind, &coords, &u, &p);
        }
    }

    #[test]
    fn b_sparse_contraction_keeps_the_signed_zeros_of_an_undistorted_element() {
        // Axis-aligned, undistorted and at rest: strains and stresses are
        // exact zeros of either sign, and so are the tet's shape-gradient
        // components and many `Bᵀ D` entries, so whole sums of the dense
        // loops are signed zeros.
        for kind in [ElementKind::Hex8, ElementKind::Tet4] {
            let npe = kind.nodes();
            let coords = box_element(kind);
            assert_u_block_matches_dense(kind, &coords, &vec![0.0; 3 * npe], &vec![0.0; npe]);
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
        let (mut k, mut f) = (vec![0.0; 24 * 24], vec![0.0; 24]);
        kern.integrate_into(0, &coords, &u, &mat, &[], &mut [], 1.0, 0.0, &mut k, &mut f)
            .unwrap();
        for i in 0..24 {
            for j in 0..24 {
                assert!(
                    (k[i * 24 + j] - k[j * 24 + i]).abs() < 1e-9,
                    "K not symmetric at ({i},{j})"
                );
            }
        }
        // Rigid translation produces zero force: K * t = 0.
        let t: Vec<f64> = (0..24)
            .map(|d| if d % 3 == 0 { 1.0 } else { 0.0 })
            .collect();
        for i in 0..24 {
            let acc: f64 = (0..24).map(|j| k[i * 24 + j] * t[j]).sum();
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
        let (mut k, mut f) = (vec![0.0; 24 * 24], vec![0.0; 24]);
        kern.integrate_into(0, &coords, &u, &mat, &[], &mut [], 1.0, 0.0, &mut k, &mut f)
            .unwrap();
        for i in 0..24 {
            let ku: f64 = (0..24).map(|j| k[i * 24 + j] * u[j]).sum();
            assert!((ku - f[i]).abs() < 1e-10, "row {i}: {ku} vs {}", f[i]);
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
        let (mut k, mut f) = (vec![0.0; 144], vec![0.0; 12]);
        kern.integrate_into(
            0,
            &coords,
            &[0.0; 12],
            &mat,
            &[],
            &mut [],
            1.0,
            0.0,
            &mut k,
            &mut f,
        )
        .unwrap();
        // Symmetry.
        for i in 0..12 {
            for j in 0..12 {
                assert!((k[i * 12 + j] - k[j * 12 + i]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn poro_block_structure() {
        let mat = LinearElastic::new(1000.0, 0.3);
        let kern = PoroKernel::new(ElementKind::Hex8, [1e-3, 1e-3, 1e-3], 1e-4);
        let coords = unit_hex_coords();
        let u = vec![0.0; 32];
        let (mut k, mut f) = (vec![0.0; 32 * 32], vec![0.0; 32]);
        kern.integrate_into(
            0,
            &coords,
            &u,
            &u,
            &mat,
            &[],
            &mut [],
            0.1,
            0.0,
            &mut k,
            &mut f,
        )
        .unwrap();
        // K_pp must be negative definite on the diagonal (symmetric
        // indefinite saddle form).
        for a in 0..8 {
            let d = k[(4 * a + 3) * 32 + (4 * a + 3)];
            assert!(d < 0.0, "K_pp diagonal {d} should be negative");
        }
        // Global symmetry of the block matrix.
        for i in 0..32 {
            for j in 0..32 {
                assert!(
                    (k[i * 32 + j] - k[j * 32 + i]).abs() < 1e-9,
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
        let (mut k, mut f) = (vec![0.0; 24 * 24], vec![0.0; 24]);
        kern.integrate_into(
            0, &coords, &[0.0; 24], &v_bar, &[0.0; 24], 0.1, &mut k, &mut f,
        )
        .unwrap();
        let mut asym = 0.0f64;
        for i in 0..24 {
            for j in 0..24 {
                asym = asym.max((k[i * 24 + j] - k[j * 24 + i]).abs());
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
        let k00 = |kern: &FluidKernel| {
            let (mut k, mut f) = (vec![0.0; 24 * 24], vec![0.0; 24]);
            kern.integrate_into(0, &coords, &zero, &zero, &zero, 0.01, &mut k, &mut f)
                .unwrap();
            k[0]
        };
        let (ks, kt) = (k00(&steady), k00(&trans));
        // Transient diagonal is much stiffer (mass / dt).
        assert!(kt > ks * 2.0, "{kt} vs {ks}");
    }
}
