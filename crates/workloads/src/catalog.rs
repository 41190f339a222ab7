//! The preset catalog: Table I categories, the 11-model VTune set, the
//! 6-model gem5 set and the per-category representative list — each
//! preset a plain [`ScenarioSpec`] whose parameters reproduce the
//! historical hardcoded builder bit for bit.
//!
//! Presets are ordinary scenarios: clone one, change a field, and
//! [`ScenarioSpec::validate`] / [`ScenarioSpec::build_model`] treat it
//! exactly like a scenario parsed from campaign JSON. The catalog is no
//! longer a closed set — it is the named starting points of an open
//! parametric space.

use crate::scenario::{Family, MeshParams, NewtonParams, ScenarioSpec, SteppingParams};

/// Table I workload categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Arterial tissue.
    Ar,
    /// Biphasic.
    Bp,
    /// Contact.
    Co,
    /// Fluid.
    Fl,
    /// Muscle.
    Mu,
    /// Multiphasic.
    Mp,
    /// Tetrahedral.
    Te,
    /// Rigid.
    Ri,
    /// Prestrain.
    Ps,
    /// PlastiDamage.
    Pd,
    /// Multigeneration.
    Mg,
    /// Fluid-structure interaction.
    Fs,
    /// Miscellaneous.
    Mi,
    /// Material.
    Ma,
    /// Damage.
    Dm,
    /// Tumor.
    Tu,
    /// Rigid joint.
    Rj,
    /// Volume constraint.
    Vc,
    /// Biphasic FSI.
    Bi,
    /// Ocular case study.
    Eye,
}

/// One Table I row: a category, what the paper says about it, and the
/// model [`Family`] that reproduces it — at its canonical parameters and
/// with the mesh / stepping / Newton / spin-scale settings the historical
/// hardcoded builder used.
pub(crate) struct Row {
    pub(crate) category: Category,
    /// Table I two-letter label.
    tag: &'static str,
    /// Table I full category name.
    name: &'static str,
    /// Table I input-size bounds in kB `(lower, upper)`.
    paper_size_kb: (f64, f64),
    /// The family's spec/CLI label.
    pub(crate) family_label: &'static str,
    /// The family at its canonical (catalog-preset) parameters.
    pub(crate) family: Family,
    pub(crate) mesh: MeshParams,
    pub(crate) stepping: SteppingParams,
    pub(crate) newton: NewtonParams,
    pub(crate) spin_scale: f64,
}

/// An ordered hexahedral box: `n` elements over extent `l` per axis.
const fn hex(nx: usize, ny: usize, nz: usize, lx: f64, ly: f64, lz: f64) -> MeshParams {
    MeshParams {
        nx,
        ny,
        nz,
        lx,
        ly,
        lz,
        tet: false,
        shuffle_seed: None,
    }
}

impl MeshParams {
    /// Anatomical (pseudo-random) node numbering.
    const fn shuffled(mut self, seed: u64) -> Self {
        self.shuffle_seed = Some(seed);
        self
    }

    /// Each hex split into tetrahedra.
    const fn tets(mut self) -> Self {
        self.tet = true;
        self
    }
}

/// `FeModel`'s own Newton settings `(max_iterations, tolerance)`, for the
/// builders that never called `set_newton`.
const FE_DEFAULT: (usize, f64) = (25, 1e-8);

/// Builds Table I from rows of `Category "tag" "name" (paper kB)
/// "family label" Family { canonical params }, mesh, (steps, dt),
/// (Newton iterations, tolerance), spin scale;` in the paper's row order
/// (a category's discriminant indexes its row). A family is its enum
/// variant, its row here, its parameter rules in `scenario.rs` and its
/// builder arm in `models.rs`.
macro_rules! table_i {
    ($($cat:ident $tag:literal $name:literal $kb:tt $label:literal $family:expr,
       $mesh:expr, $stepping:expr, $newton:expr, $spin:expr;)*) => {
        impl Category {
            /// All categories in Table I row order.
            pub const ALL: [Category; 20] = [$(Category::$cat),*];
        }

        pub(crate) static TABLE_I: [Row; 20] = [$(Row {
            category: Category::$cat,
            tag: $tag,
            name: $name,
            paper_size_kb: $kb,
            family_label: $label,
            family: $family,
            mesh: $mesh,
            stepping: SteppingParams { steps: $stepping.0, dt: $stepping.1 },
            newton: NewtonParams { max_iterations: $newton.0, tolerance: $newton.1 },
            spin_scale: $spin,
        }),*];
    };
}

table_i! {
    Ar "AR" "Arterial Tissue" (8.0, 6.37e2) "arterial" Family::Arterial { stretch: 0.12 },
        hex(3, 3, 4, 1.0, 1.0, 2.0), (3, 0.4), (20, 1e-7), 1.0;
    Bp "BP" "Biphasic" (6.7, 4.745e2) "biphasic"
        Family::Biphasic { permeability: [5e-3, 5e-3, 5e-3], load: -12.0 },
        hex(4, 4, 4, 0.5, 0.5, 1.0), (4, 0.1), (20, 1e-7), 1.5;
    Co "CO" "Contact" (5.4, 3.14e2) "contact"
        Family::Contact { start: 1.05, speed: -0.08, penalty: 5e4 },
        hex(3, 3, 4, 1.0, 1.0, 1.0).shuffled(12345), (4, 0.5), (30, 1e-6), 1.0;
    // Transient (`fl34`) settings; the steady case's single step is the
    // one data-dependent default, in `ScenarioSpec::new`.
    Fl "FL" "Fluid" (1.1e3, 7.4e3) "fluid"
        Family::Fluid { steady: false, viscosity: 0.05, inlet: 1.0 },
        hex(8, 3, 3, 4.0, 1.0, 1.0), (4, 0.25), (40, 1e-6), 1.5;
    Mu "MU" "Muscle" (4.3, 4.5) "muscle" Family::Muscle { activation: 40.0 },
        hex(2, 2, 4, 0.4, 0.4, 1.6), (3, 0.35), (20, 1e-7), 1.0;
    Mp "MP" "Multiphasic" (1.4e1, 1.374e2) "multiphasic"
        Family::Multiphasic { permeability: [5e-3, 5e-3, 5e-3], diffusivity: 0.8 },
        hex(3, 3, 3, 0.5, 0.5, 0.5), (4, 0.1), FE_DEFAULT, 3.0;
    Te "TE" "Tetrahedral" (3.7, 4.31e2) "tetrahedral" Family::Tetrahedral { stretch: 0.06 },
        hex(3, 3, 3, 1.0, 1.0, 1.0).tets(), (2, 0.5), FE_DEFAULT, 1.0;
    Ri "RI" "Rigid" (4.7e3, 4.7e3) "rigid" Family::Rigid { bodies: 6 },
        hex(5, 5, 3, 1.0, 1.0, 0.6), (3, 0.4), FE_DEFAULT, 1.0;
    Ps "PS" "Prestrain" (6.4e3, 6.4e3) "prestrain" Family::Prestrain { scale: 1.0 },
        hex(6, 6, 6, 1.0, 1.0, 1.0), (2, 0.5), FE_DEFAULT, 1.0;
    Pd "PD" "PlastiDamage" (4.9, 4.9) "plastidamage" Family::PlastiDamage { yield_stress: 18.0 },
        hex(2, 2, 2, 0.4, 0.4, 0.4), (4, 0.25), (30, 1e-6), 2.0;
    Mg "MG" "Multigeneration" (1.784e2, 2.719e2) "multigeneration"
        Family::Multigeneration { second_gen_time: 0.5 },
        hex(4, 4, 4, 0.8, 0.8, 0.8), (4, 0.25), FE_DEFAULT, 1.0;
    Fs "FS" "FSI" (2.15e1, 7.616e2) "fsi" Family::Fsi { inlet: 0.8 },
        hex(6, 3, 3, 2.0, 1.0, 1.0), (3, 0.2), FE_DEFAULT, 2.0;
    Mi "MI" "Misc." (1.1e3, 4.1e3) "misc" Family::Misc { split: 0.5 },
        hex(6, 6, 6, 1.0, 1.0, 1.0), (3, 0.33), FE_DEFAULT, 1.0;
    Ma "MA" "Material" (4.0, 6.802e2) "material" Family::Material { terms: 3, tau_scale: 0.5 },
        hex(3, 3, 3, 0.8, 0.8, 0.8), (4, 0.2), (25, 1e-6), 10.0;
    Dm "DM" "Damage" (4.7, 4.602e2) "damage" Family::Damage { stretch: 0.09 },
        hex(5, 5, 5, 1.0, 1.0, 1.0).shuffled(777), (4, 0.25), (25, 1e-6), 2.0;
    Tu "TU" "Tumor" (6.0e1, 8.3e1) "tumor" Family::Tumor { growth_rate: 0.02 },
        hex(4, 4, 4, 1.0, 1.0, 1.0).shuffled(4242), (3, 0.5), (20, 1e-7), 1.0;
    Rj "RJ" "Rigid joint" (5.0, 7.6e1) "rigid_joint"
        Family::RigidJoint { bodies: 420, joints: 320 },
        hex(2, 2, 2, 0.6, 0.6, 0.4), (4, 0.25), FE_DEFAULT, 1.0;
    Vc "VC" "VolumeConstrain" (2.711e2, 7.345e2) "volume_constraint"
        Family::VolumeConstraint { poisson: 0.49 },
        hex(5, 5, 5, 1.0, 1.0, 1.0), (2, 0.5), FE_DEFAULT, 1.0;
    Bi "BI" "BiphasicFSI" (1.5e3, 7.5e3) "biphasic_fsi"
        Family::BiphasicFsi { permeability: [2e-2, 2e-2, 5e-3], load: -8.0 },
        hex(5, 5, 4, 1.0, 1.0, 0.8), (4, 0.15), FE_DEFAULT, 2.0;
    Eye "Eye" "Case Study" (9.86e4, 9.86e4) "eye" Family::Eye { iop: 3.0 },
        hex(8, 8, 8, 2.4, 2.4, 2.4).shuffled(20230), (2, 0.5), (25, 1e-6), 3.0;
}

impl Category {
    fn row(self) -> &'static Row {
        &TABLE_I[self as usize]
    }

    /// Table I two-letter label.
    pub fn label(self) -> &'static str {
        self.row().tag
    }

    /// Table I full category name.
    pub fn name(self) -> &'static str {
        self.row().name
    }

    /// Table I input-size bounds in kB `(lower, upper)` from the paper.
    pub fn paper_size_bounds_kb(self) -> (f64, f64) {
        self.row().paper_size_kb
    }
}

/// Preset at a family's canonical parameters with explicit trace knobs.
fn preset(id: &str, family_label: &str, code_bloat: u32, sample: usize) -> ScenarioSpec {
    ScenarioSpec::new(
        id,
        Family::canonical(family_label).expect("preset family label"),
    )
    .with_expand_knobs(code_bloat, sample)
}

/// `ma26`–`ma31`: the reactive viscoelastic subcases — Prony term count,
/// base relaxation time and OpenMP spin scale per variant.
fn ma_preset(id: &str, terms: usize, tau_scale: f64, spin: f64) -> ScenarioSpec {
    ScenarioSpec::new(id, Family::Material { terms, tau_scale })
        .with_spin_scale(spin)
        .with_expand_knobs(1, 1)
}

fn bp_preset(id: &str, permeability: [f64; 3]) -> ScenarioSpec {
    ScenarioSpec::new(
        id,
        Family::Biphasic {
            permeability,
            load: -12.0,
        },
    )
    .with_expand_knobs(2, 1)
}

/// The 11 VTune test-suite models plus the `eye` case study (Figs. 2-4).
pub fn vtune_set() -> Vec<ScenarioSpec> {
    vec![
        bp_preset("bp07", [5e-3, 5e-3, 5e-3]),
        bp_preset("bp08", [5e-3, 5e-3, 5e-2]),
        bp_preset("bp09", [5e-2, 5e-3, 5e-4]),
        ScenarioSpec::new(
            "fl33",
            Family::Fluid {
                steady: true,
                viscosity: 0.05,
                inlet: 1.0,
            },
        )
        .with_expand_knobs(2, 1),
        preset("fl34", "fluid", 2, 1),
        ma_preset("ma26", 1, 0.2, 5.0),
        ma_preset("ma27", 2, 0.2, 6.0),
        ma_preset("ma28", 3, 0.5, 10.0),
        ma_preset("ma29", 2, 1.0, 7.0),
        ma_preset("ma30", 4, 0.5, 10.0),
        ma_preset("ma31", 3, 1.0, 8.0),
        preset("eye", "eye", 4, 2),
    ]
}

/// The six gem5 sensitivity-study workloads (Figs. 7-12).
pub fn gem5_set() -> Vec<ScenarioSpec> {
    vec![
        preset("ar", "arterial", 1, 1),
        preset("co", "contact", 2, 2),
        preset("dm", "damage", 8, 3),
        preset("ma", "material", 1, 1),
        preset("rj", "rigid_joint", 24, 1),
        preset("tu", "tumor", 8, 2),
    ]
}

/// One representative per Table I category (Table I, Figs. 5-6).
pub fn catalog() -> Vec<ScenarioSpec> {
    vec![
        preset("ar", "arterial", 1, 1),
        preset("bp", "biphasic", 2, 1),
        preset("co", "contact", 2, 1),
        preset("fl", "fluid", 2, 1),
        preset("mu", "muscle", 1, 1),
        preset("mp", "multiphasic", 2, 1),
        preset("te", "tetrahedral", 1, 1),
        preset("ri", "rigid", 8, 1),
        preset("ps", "prestrain", 1, 1),
        preset("pd", "plastidamage", 1, 1),
        preset("mg", "multigeneration", 1, 1),
        preset("fs", "fsi", 2, 1),
        preset("mi", "misc", 2, 1),
        preset("ma", "material", 1, 1),
        preset("dm", "damage", 8, 1),
        preset("tu", "tumor", 6, 1),
        preset("rj", "rigid_joint", 24, 1),
        preset("vc", "volume_constraint", 1, 1),
        preset("bi", "biphasic_fsi", 2, 1),
        preset("eye", "eye", 4, 2),
    ]
}

/// Finds a preset by id across all sets (first match wins, in the
/// historical vtune → gem5 → catalog order — the same id can carry
/// different trace-expansion knobs in different sets, e.g. `co`).
pub fn by_id(id: &str) -> Option<ScenarioSpec> {
    vtune_set()
        .into_iter()
        .chain(gem5_set())
        .chain(catalog())
        .find(|w| w.id == id)
}

/// Every distinct preset, first occurrence per id in the same
/// vtune → gem5 → catalog precedence [`by_id`] resolves with — the one
/// place that ordering invariant lives.
pub fn distinct_presets() -> Vec<ScenarioSpec> {
    let mut out: Vec<ScenarioSpec> = Vec::new();
    for spec in vtune_set().into_iter().chain(gem5_set()).chain(catalog()) {
        if !out.iter().any(|s| s.id == spec.id) {
            out.push(spec);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_composition_matches_paper() {
        let v = vtune_set();
        assert_eq!(v.len(), 12); // 11 test-suite + eye
        assert_eq!(v.iter().filter(|w| w.id.starts_with("ma")).count(), 6);
        assert_eq!(v.iter().filter(|w| w.id.starts_with("bp")).count(), 3);
        assert_eq!(v.iter().filter(|w| w.id.starts_with("fl")).count(), 2);
        let g = gem5_set();
        let ids: Vec<&str> = g.iter().map(|w| w.id.as_str()).collect();
        assert_eq!(ids, vec!["ar", "co", "dm", "ma", "rj", "tu"]);
        assert_eq!(catalog().len(), 20);
    }

    #[test]
    fn catalog_covers_every_category() {
        let cats: std::collections::HashSet<_> = catalog().iter().map(|w| w.category()).collect();
        assert_eq!(cats.len(), 20);
        for c in Category::ALL {
            assert!(cats.contains(&c), "missing {c:?}");
        }
    }

    #[test]
    fn table_i_bounds_are_ordered() {
        for c in Category::ALL {
            let (lo, hi) = c.paper_size_bounds_kb();
            assert!(lo <= hi, "{c:?} bounds inverted");
            assert!(lo > 0.0);
        }
        assert_eq!(Category::Eye.paper_size_bounds_kb().0, 9.86e4);
    }

    #[test]
    fn by_id_finds_everything() {
        for id in ["bp07", "ma31", "eye", "ar", "rj", "vc"] {
            assert!(by_id(id).is_some(), "missing {id}");
        }
        assert!(by_id("nope").is_none());
    }

    #[test]
    fn by_id_keeps_the_historical_set_precedence() {
        // `co` exists in both the gem5 set (sample stride 2) and the
        // catalog (stride 1); lookups must keep returning the gem5 one.
        let co = by_id("co").unwrap();
        assert_eq!(co.expand.sample, 2);
        assert_eq!(co.expand.code_bloat, 2);
    }

    #[test]
    fn every_preset_validates() {
        for spec in vtune_set().into_iter().chain(gem5_set()).chain(catalog()) {
            spec.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", spec.id));
        }
    }

    #[test]
    fn rj_has_the_largest_code_footprint() {
        let g = gem5_set();
        let rj = g.iter().find(|w| w.id == "rj").unwrap();
        for w in &g {
            if w.id != "rj" {
                assert!(rj.expand.code_bloat >= w.expand.code_bloat);
            }
        }
    }

    #[test]
    fn builders_produce_named_models() {
        for w in gem5_set() {
            let m = w.build_model().unwrap();
            assert!(!m.name().is_empty());
            assert!(m.n_dofs() > 0);
        }
    }
}
