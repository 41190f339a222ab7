//! Parametric model builders: one finite-element construction path per
//! scenario [`Family`].
//!
//! [`build`](crate::scenario::ScenarioSpec::build_model) turns a validated
//! [`ScenarioSpec`] into a fresh [`FeModel`].
//! At each family's canonical parameters (see [`Family::canonical`]) the
//! constructed model is **bit-identical** to the historical hardcoded
//! catalog builder — the o3 digest pins in `tests/backends.rs` and the
//! trace-fingerprint goldens in `tests/scenarios.rs` hold the line.
//!
//! Mesh sizes are scaled down from the paper's inputs to stay tractable
//! under cycle-level simulation while preserving each category's physics,
//! relative size ordering and architectural signature.
//!
//! One deliberate quirk is preserved from the original builders: ramped
//! boundary conditions and loads are registered *before* the stepping
//! schedule is applied, so every ramp ends at `t = 1.0` regardless of the
//! scenario's `steps * dt` (exactly what the hardcoded builders did).

use crate::scenario::{Family, MeshParams, ScenarioSpec};
use belenos_fem::bc::RigidPlaneContact;
use belenos_fem::material::{
    ActiveMuscle, DamageElastic, FiberExponential, GrowthElastic, J2Plasticity, LinearElastic,
    Material, Multigeneration, NeoHookeanSmall, PrestrainElastic, PronyTerm, Viscoelastic,
};
use belenos_fem::mesh::Mesh;
use belenos_fem::model::{FeModel, Formulation};
use belenos_fem::newton::LinearSolver;

impl MeshParams {
    /// Generates the structured mesh (hex or tet box, optionally
    /// shuffled into anatomical numbering).
    pub fn build(&self) -> Mesh {
        let mut mesh = if self.tet {
            Mesh::box_tet(self.nx, self.ny, self.nz, self.lx, self.ly, self.lz)
        } else {
            Mesh::box_hex(self.nx, self.ny, self.nz, self.lx, self.ly, self.lz)
        };
        if let Some(seed) = self.shuffle_seed {
            mesh.shuffle_nodes(seed);
        }
        mesh
    }
}

/// Builds the scenario's model. Callers validate first
/// ([`ScenarioSpec::build_model`] is the public entry); this function
/// assumes in-range parameters.
pub(crate) fn build(spec: &ScenarioSpec) -> FeModel {
    let mesh = spec.mesh.build();
    let mut m = match &spec.family {
        // `ar` — arterial tissue: fiber-reinforced exponential stiffening
        // tube segment under axial stretch. Regular FP-heavy kernels.
        Family::Arterial { stretch } => {
            let mat = FiberExponential::new(200.0, 0.35, [0.0, 0.0, 1.0], 800.0, 20.0);
            let mut m = FeModel::solid(mesh, Box::new(mat));
            m.set_name("ar");
            m.fix_face("z0");
            m.prescribe_face("z1", 2, *stretch);
            m
        }
        // `bp` — biphasic poroelastic confined compression with
        // configurable permeability anisotropy (the `bp07`–`bp09` axis).
        Family::Biphasic { permeability, load } => {
            let mut m = FeModel::poro(
                mesh,
                Box::new(LinearElastic::new(8e3, 0.2)),
                *permeability,
                1e-5,
            );
            m.set_name("bp");
            m.fix_face("z0");
            // Drained top (p = 0) under compressive load.
            m.prescribe_face("z1", 3, 0.0);
            m.add_load("z1", 2, *load);
            m
        }
        // `co` — contact: block pressed by an advancing rigid plane;
        // irregular node numbering makes the scatter/gather load-heavy
        // (the paper's most memory-op-intensive gem5 workload).
        Family::Contact {
            start,
            speed,
            penalty,
        } => {
            let mut m = FeModel::solid(mesh, Box::new(LinearElastic::new(2e3, 0.3)));
            m.set_name("co");
            m.fix_face("z0");
            m.set_contact(RigidPlaneContact {
                set: "z1".into(),
                axis: 2,
                start: *start,
                speed: *speed,
                penalty: *penalty,
                from_above: true,
            });
            m.set_solver(LinearSolver::Cg);
            m
        }
        // `fl` — fluid dynamics channel flow; `steady` selects `fl33`
        // (steady state) vs `fl34` (transient).
        Family::Fluid {
            steady,
            viscosity,
            inlet,
        } => {
            let mut m = FeModel::fluid(mesh, *viscosity, 40.0, 1.0, *steady);
            m.set_name(if *steady { "fl33" } else { "fl34" });
            m.fix_face("y0");
            m.fix_face("y1");
            m.prescribe_face("x0", 0, *inlet);
            m
        }
        // `mu` — muscle: active fiber contraction against a fixed end.
        Family::Muscle { activation } => {
            let mat = ActiveMuscle::new(150.0, 0.3, [0.0, 0.0, 1.0], 400.0, 15.0, *activation, 1.0);
            let mut m = FeModel::solid(mesh, Box::new(mat));
            m.set_name("mu");
            m.fix_face("z0");
            m
        }
        // `mp` — multiphasic: biphasic skeleton plus solute transport.
        Family::Multiphasic {
            permeability,
            diffusivity,
        } => {
            let mut m = FeModel::multiphasic(
                mesh,
                Box::new(LinearElastic::new(8e3, 0.2)),
                *permeability,
                1e-5,
                *diffusivity,
            );
            m.set_name("mp");
            m.fix_face("z0");
            m.prescribe_face("z1", 3, 0.0);
            m.prescribe_face("x0", 4, 1.0);
            m.add_load("z1", 2, -6.0);
            m
        }
        // `te` — tetrahedral elements: the same solid physics on a tet
        // mesh (different assembly footprint, irregular connectivity).
        Family::Tetrahedral { stretch } => {
            let mut m = FeModel::solid(mesh, Box::new(NeoHookeanSmall::from_young(1e3, 0.3, 40.0)));
            m.set_name("te");
            m.fix_face("z0");
            m.prescribe_face("z1", 2, *stretch);
            m
        }
        // `ri` — rigid bodies coupled to a deformable base.
        Family::Rigid { bodies } => {
            let mut m = FeModel::solid(mesh, Box::new(LinearElastic::new(5e3, 0.3)));
            m.set_name("ri");
            m.fix_face("z0");
            m.prescribe_face("z1", 0, 0.04);
            m.set_rigid(*bodies, 0);
            m
        }
        // `ps` — prestrain: tissue with a built-in strain offset relaxing
        // against boundary constraints.
        Family::Prestrain { scale } => {
            let eps0 = [0.02 * scale, 0.01 * scale, -0.015 * scale, 0.0, 0.0, 0.0];
            let mut m = FeModel::solid(mesh, Box::new(PrestrainElastic::new(1.5e3, 0.3, eps0)));
            m.set_name("ps");
            m.fix_face("z0");
            m.fix_face("z1");
            m
        }
        // `pd` — plasti-damage: J2 plasticity with radial return.
        Family::PlastiDamage { yield_stress } => {
            let mat = J2Plasticity::new(2e3, 0.3, *yield_stress, 150.0);
            let mut m = FeModel::solid(mesh, Box::new(mat));
            m.set_name("pd");
            m.fix_face("z0");
            m.prescribe_face("z1", 2, 0.05);
            m
        }
        // `mg` — multigeneration: stiffness generations activating over
        // time.
        Family::Multigeneration { second_gen_time } => {
            let mat = Multigeneration::new(&[(0.0, 800.0, 0.3), (*second_gen_time, 1200.0, 0.3)]);
            let mut m = FeModel::solid(mesh, Box::new(mat));
            m.set_name("mg");
            m.fix_face("z0");
            m.prescribe_face("z1", 2, 0.08);
            m
        }
        // `fs` — fluid-structure interaction surrogate: the transient
        // fluid pass of a staggered FSI scheme.
        Family::Fsi { inlet } => {
            let mut m = FeModel::fluid(mesh, 0.08, 30.0, 1.2, false);
            m.set_name("fs");
            m.fix_face("y0");
            m.fix_face("y1");
            m.prescribe_face("x0", 0, *inlet);
            m
        }
        // `mi` — miscellaneous: a heterogeneous two-region solid (the
        // catch-all category mixes models; ours mixes materials).
        Family::Misc { split } => {
            let mut mesh = mesh;
            let plane = split * spec.mesh.lz;
            mesh.assign_regions(|_, c| if c[2] < plane { 0 } else { 1 });
            let mats: Vec<Box<dyn Material>> = vec![
                Box::new(LinearElastic::new(3e3, 0.3)),
                Box::new(NeoHookeanSmall::from_young(800.0, 0.35, 60.0)),
            ];
            let mut m = FeModel::with_formulation(mesh, mats, Formulation::Solid);
            m.set_name("mi");
            m.fix_face("z0");
            m.prescribe_face("z1", 2, 0.07);
            m
        }
        // `ma` — reactive viscoelastic material point sweeps (the
        // `ma26`–`ma31` family); `terms`/`tau_scale` and the scenario's
        // spin scale parametrize the subcases.
        Family::Material { terms, tau_scale } => {
            let prony: Vec<PronyTerm> = (0..*terms)
                .map(|i| PronyTerm {
                    g: 0.5 / *terms as f64,
                    tau: tau_scale * (2.0f64).powi(i as i32),
                })
                .collect();
            let mut m = FeModel::solid(mesh, Box::new(Viscoelastic::new(1.2e3, 0.3, prony)));
            m.set_name("ma");
            m.fix_face("z0");
            m.prescribe_face("z1", 2, 0.06);
            m
        }
        // `dm` — continuum damage accumulating under cyclic-ish loading.
        Family::Damage { stretch } => {
            let mut m = FeModel::solid(mesh, Box::new(DamageElastic::new(2e3, 0.3, 0.05, 0.4)));
            m.set_name("dm");
            m.fix_face("z0");
            m.prescribe_face("z1", 2, *stretch);
            m
        }
        // `tu` — tumor growth: confined volumetric growth with FP-heavy
        // updates.
        Family::Tumor { growth_rate } => {
            let mut m = FeModel::solid(
                mesh,
                Box::new(GrowthElastic::new(1.5e3, 0.35, *growth_rate)),
            );
            m.set_name("tu");
            m.fix_face("x0");
            m.fix_face("x1");
            m.fix_face("z0");
            m
        }
        // `rj` — rigid joints: small deformable base with a large
        // multibody constraint graph (big instruction footprint, low
        // data pressure).
        Family::RigidJoint { bodies, joints } => {
            let mut m = FeModel::solid(mesh, Box::new(LinearElastic::new(5e3, 0.3)));
            m.set_name("rj");
            m.fix_face("z0");
            m.prescribe_face("z1", 0, 0.03);
            m.set_rigid(*bodies, *joints);
            m
        }
        // `vc` — volume constraint: near-incompressible solid.
        Family::VolumeConstraint { poisson } => {
            let mut m = FeModel::solid(mesh, Box::new(LinearElastic::new(2e3, *poisson)));
            m.set_name("vc");
            m.fix_face("z0");
            m.prescribe_face("z1", 2, 0.04);
            m
        }
        // `bi` — biphasic-FSI surrogate: a large, permeable poroelastic
        // domain with transient loading.
        Family::BiphasicFsi { permeability, load } => {
            let mut m = FeModel::poro(
                mesh,
                Box::new(LinearElastic::new(6e3, 0.25)),
                *permeability,
                1e-5,
            );
            m.set_name("bi");
            m.fix_face("z0");
            m.prescribe_face("z1", 3, 0.0);
            m.add_load("z1", 2, *load);
            m
        }
        // `eye` — the ocular biomechanics case study: a large
        // heterogeneous domain (cornea / sclera / optic-nerve-head
        // regions), anatomically irregular numbering, pressure loading
        // and nonlinear tissue — the most demanding workload.
        Family::Eye { iop } => {
            let mut mesh = mesh;
            // Region map as extent fractions: cornea (front sixth), optic
            // nerve head (back sixth, centered), sclera elsewhere. At the
            // canonical 2.4-extent these evaluate to the historical
            // absolute thresholds; element centroids sit ≥ 0.05 away from
            // every boundary, so fp rounding can never flip a region.
            let (lx, ly, lz) = (spec.mesh.lx, spec.mesh.ly, spec.mesh.lz);
            mesh.assign_regions(|_, c| {
                if c[2] > lz * (5.0 / 6.0) {
                    0 // cornea
                } else if c[2] < lz / 6.0
                    && (c[0] - lx / 2.0).abs() < lx * (5.0 / 24.0)
                    && (c[1] - ly / 2.0).abs() < ly * (5.0 / 24.0)
                {
                    2 // optic nerve head
                } else {
                    1 // sclera
                }
            });
            let mats: Vec<Box<dyn Material>> = vec![
                Box::new(NeoHookeanSmall::from_young(1.2e3, 0.45, 80.0)),
                Box::new(FiberExponential::new(
                    2.5e3,
                    0.45,
                    [1.0, 1.0, 0.0],
                    1500.0,
                    30.0,
                )),
                Box::new(NeoHookeanSmall::from_young(300.0, 0.45, 120.0)),
            ];
            let mut m = FeModel::with_formulation(mesh, mats, Formulation::Solid);
            m.set_name("eye");
            m.fix_face("z0");
            // Intraocular pressure pushing the front cap outward plus the
            // negative periocular pressure goggle load on the sides.
            m.add_load("z1", 2, *iop);
            m.add_load("x0", 0, -1.0);
            m.add_load("x1", 0, 1.0);
            m
        }
    };
    // Shared tail, after every BC/load registration — see the module
    // docs on ramp end times. At default values each call is identical
    // to the historical builders' (or to not calling the setter at all).
    m.set_stepping(spec.stepping.steps, spec.stepping.dt);
    m.set_newton(spec.newton.max_iterations, spec.newton.tolerance);
    m.set_spin_scale(spec.spin_scale);
    m
}

#[cfg(test)]
mod tests {
    use crate::catalog::by_id;
    use crate::scenario::{Family, ScenarioSpec};

    #[test]
    fn small_models_solve() {
        // The quick subset: every formulation class must converge.
        for id in ["pd", "mu", "mp", "te"] {
            let spec = by_id(id).unwrap_or_else(|| panic!("preset {id}"));
            let mut model = spec.build_model().unwrap();
            let r = model.solve().unwrap_or_else(|e| panic!("{id}: {e}"));
            assert!(r.converged, "{id} residual {}", r.final_residual);
            assert!(!r.log.is_empty());
        }
    }

    #[test]
    fn biphasic_anisotropy_variants_differ() {
        let mut iso = by_id("bp07").unwrap().build_model().unwrap();
        let mut aniso = by_id("bp09").unwrap().build_model().unwrap();
        let ri = iso.solve().unwrap();
        let ra = aniso.solve().unwrap();
        assert!(ri.converged && ra.converged);
        // Different permeability tensors change the pressure solution.
        let diff: f64 = ri
            .solution
            .iter()
            .zip(&ra.solution)
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-9, "anisotropy had no effect");
    }

    #[test]
    fn material_terms_scale_state_not_dofs() {
        let m1 = ScenarioSpec::new(
            "ma-1",
            Family::Material {
                terms: 1,
                tau_scale: 0.5,
            },
        )
        .build_model()
        .unwrap();
        let m4 = ScenarioSpec::new(
            "ma-4",
            Family::Material {
                terms: 4,
                tau_scale: 0.5,
            },
        )
        .build_model()
        .unwrap();
        // More Prony terms = more state per Gauss point, same dofs.
        assert_eq!(m1.name(), "ma");
        assert_eq!(m4.n_dofs(), m1.n_dofs());
    }

    #[test]
    fn eye_is_the_largest_model() {
        let e = by_id("eye").unwrap().build_model().unwrap();
        for id in ["ar", "co", "dm", "tu"] {
            let other = by_id(id).unwrap().build_model().unwrap();
            assert!(
                e.input_size_kb() > other.input_size_kb(),
                "eye must dominate {id}"
            );
        }
    }

    #[test]
    fn contact_model_converges_with_contact_active() {
        let mut m = by_id("co").unwrap().build_model().unwrap();
        let r = m.solve().unwrap();
        assert!(r.converged, "residual {}", r.final_residual);
        let hits = r
            .log
            .calls()
            .iter()
            .filter_map(|c| match c {
                belenos_trace::KernelCall::ContactSearch { outcomes } => {
                    Some(outcomes.iter().filter(|&&h| h).count())
                }
                _ => None,
            })
            .max()
            .unwrap_or(0);
        assert!(hits > 0, "contact never engaged");
    }

    #[test]
    fn off_catalog_resolution_builds_a_bigger_contact_model() {
        // The acceptance scenario: contact on a finer shuffled mesh, no
        // preset involved.
        let base = by_id("co").unwrap();
        let mut fine = base.clone();
        fine.id = "co-6x6x8".into();
        fine.mesh.nx = 6;
        fine.mesh.ny = 6;
        fine.mesh.nz = 8;
        let model = fine.build_model().unwrap();
        assert!(model.n_dofs() > base.build_model().unwrap().n_dofs());
        assert_ne!(fine.stable_digest(), base.stable_digest());
    }
}
