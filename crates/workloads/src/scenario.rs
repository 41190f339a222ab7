//! First-class parametric workload scenarios.
//!
//! A [`ScenarioSpec`] is a serializable description of one runnable
//! workload: a typed model **family** (one per Table I category) with
//! family-specific physics parameters, plus the shared knobs every
//! family exposes — mesh resolution/extent (and the anatomical node
//! shuffle), load stepping, Newton settings, the OpenMP spin scale and
//! the trace-expansion configuration. Scenarios are plain data: they
//! validate on construction ([`ScenarioSpec::validate`]), round-trip
//! through JSON ([`ScenarioSpec::parse`] / [`ScenarioSpec::to_json`]),
//! build a fresh [`FeModel`] on demand ([`ScenarioSpec::build_model`]),
//! and carry a stable content digest ([`ScenarioSpec::stable_digest`])
//! that feeds the runner's cache key — two scenarios sharing an id but
//! differing in any parameter can never alias a cached result.
//!
//! Every record here lists its fields once (`record!`, see
//! [`belenos_json::schema`]): the JSON form both ways, the digest and the
//! range checks are walks over that listing, and everything Table I says
//! about a family is one row of the table in [`mod@crate::catalog`].
//!
//! The historical closed catalog survives as ~20 named **presets**
//! ([`crate::catalog()`], [`crate::vtune_set`], [`crate::gem5_set`],
//! [`crate::by_id`]): each preset is just a `ScenarioSpec` whose
//! parameters reproduce the original hardcoded builder bit for bit.
//!
//! ```
//! use belenos_workloads::{by_id, Family, ScenarioSpec};
//!
//! // A preset, tweaked: the contact workload on a finer, shuffled mesh.
//! let mut spec = by_id("co").expect("preset");
//! spec.id = "co-fine".into();
//! spec.mesh.nx = 6;
//! spec.mesh.ny = 6;
//! spec.mesh.nz = 8;
//! spec.validate().expect("still a valid scenario");
//! let model = spec.build_model().expect("builds");
//! assert!(model.n_dofs() > by_id("co").unwrap().build_model().unwrap().n_dofs());
//!
//! // Or defined from scratch — same JSON shape campaign specs embed.
//! let inline = ScenarioSpec::parse(
//!     r#"{"id": "bp-stiff", "family": "biphasic",
//!         "params": {"permeability": [0.05, 0.005, 0.0005]}}"#,
//! )
//! .expect("valid scenario");
//! assert_ne!(inline.stable_digest(), spec.stable_digest());
//! ```

use crate::catalog::{Category, Row, TABLE_I};
use crate::models;
use belenos_fem::model::FeModel;
use belenos_json::schema::{self, Leaf, Record, Rule, Walker};
use belenos_json::{record, FromJson, Json, JsonError, ToJson};
use belenos_trace::expand::ExpandConfig;
use belenos_uarch::config::record_digest;

/// A structurally invalid scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// Human-readable description naming the offending field.
    pub message: String,
}

impl ScenarioError {
    fn new(message: impl Into<String>) -> Self {
        ScenarioError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid scenario: {}", self.message)
    }
}

impl std::error::Error for ScenarioError {}

/// Why a list of scenarios cannot run as one batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioListError {
    /// A scenario failed its own validation.
    Invalid(ScenarioError),
    /// Two scenarios share an id: their report rows would be
    /// indistinguishable.
    DuplicateId(String),
}

impl std::fmt::Display for ScenarioListError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioListError::Invalid(e) => e.fmt(f),
            ScenarioListError::DuplicateId(id) => write!(f, "duplicate scenario id `{id}`"),
        }
    }
}

impl std::error::Error for ScenarioListError {}

/// Structured-box mesh parameters: resolution, physical extent, topology
/// and the optional anatomical node relabeling.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshParams {
    /// Elements along x.
    pub nx: usize,
    /// Elements along y.
    pub ny: usize,
    /// Elements along z.
    pub nz: usize,
    /// Extent along x.
    pub lx: f64,
    /// Extent along y.
    pub ly: f64,
    /// Extent along z.
    pub lz: f64,
    /// Split each hex into 6 tetrahedra (the `te` family topology).
    pub tet: bool,
    /// Pseudo-random node relabeling seed: destroys structured locality
    /// the way anatomical meshes do. `None` keeps lexicographic order.
    pub shuffle_seed: Option<u64>,
}

/// Scenario documents are JSON, whose numbers are `f64`: an integer
/// beyond 2^53 - 1 can silently round on a round-trip.
const MAX_SAFE_INTEGER: f64 = 9_007_199_254_740_991.0;

record!(MeshParams {
    nx: Within(1.0, 64.0),
    ny: Within(1.0, 64.0),
    nz: Within(1.0, 64.0),
    lx: Positive,
    ly: Positive,
    lz: Positive,
    tet: Any,
    shuffle_seed: Within(0.0, MAX_SAFE_INTEGER),
});

impl MeshParams {
    /// Label like `3x3x4`, used by reports and derived sweep ids.
    pub fn resolution_label(&self) -> String {
        format!("{}x{}x{}", self.nx, self.ny, self.nz)
    }
}

/// Load-stepping schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct SteppingParams {
    /// Number of load steps.
    pub steps: usize,
    /// Step size.
    pub dt: f64,
}

record!(SteppingParams {
    steps: Within(1.0, 1000.0),
    dt: Positive,
});

/// Newton iteration settings.
#[derive(Debug, Clone, PartialEq)]
pub struct NewtonParams {
    /// Iteration budget per load step.
    pub max_iterations: usize,
    /// Residual tolerance.
    pub tolerance: f64,
}

record!(NewtonParams {
    max_iterations: COUNT,
    tolerance: Positive,
});

/// Trace-expansion knobs (mirrors [`ExpandConfig`], serializable).
#[derive(Debug, Clone, PartialEq)]
pub struct ExpandParams {
    /// Stride inside the heaviest per-element loops (`1` = everything).
    pub sample: usize,
    /// Distinct code copies per kernel (instruction-footprint bloat).
    pub code_bloat: u32,
    /// Multiplier on recorded spin-barrier iterations at expansion time.
    pub spin_scale: f64,
    /// Hard cap on ops emitted per kernel call.
    pub max_kernel_ops: usize,
}

record!(ExpandParams {
    sample: COUNT,
    code_bloat: COUNT,
    spin_scale: Positive,
    max_kernel_ops: COUNT,
});

impl Default for ExpandParams {
    fn default() -> Self {
        let d = ExpandConfig::default();
        ExpandParams {
            sample: d.sample,
            code_bloat: d.code_bloat,
            spin_scale: d.spin_scale,
            max_kernel_ops: d.max_kernel_ops,
        }
    }
}

impl ExpandParams {
    /// The [`ExpandConfig`] the trace expander consumes.
    pub fn to_config(&self) -> ExpandConfig {
        ExpandConfig {
            sample: self.sample,
            code_bloat: self.code_bloat,
            spin_scale: self.spin_scale,
            max_kernel_ops: self.max_kernel_ops,
        }
    }
}

/// A typed model family — one per Table I workload category — carrying
/// the physics parameters that distinguish scenarios within the family.
///
/// Every variant's defaults ([`Family::canonical`]) reproduce the
/// corresponding historical catalog builder exactly; the fields are the
/// axes the paper's categories actually vary along (permeability
/// anisotropy for `bp07`–`bp09`, Prony-series shape for `ma26`–`ma31`,
/// contact kinematics, intraocular pressure, ...).
#[derive(Debug, Clone, PartialEq)]
pub enum Family {
    /// Arterial tissue: fiber-reinforced tube segment under axial stretch.
    Arterial {
        /// Prescribed axial stretch displacement.
        stretch: f64,
    },
    /// Biphasic poroelastic confined compression.
    Biphasic {
        /// Principal hydraulic permeabilities (the `bp07`–`bp09` axis).
        permeability: [f64; 3],
        /// Compressive surface load on the drained face.
        load: f64,
    },
    /// Rigid-plane penalty contact on a shuffled mesh.
    Contact {
        /// Initial plane height.
        start: f64,
        /// Plane speed (negative = advancing).
        speed: f64,
        /// Contact penalty stiffness.
        penalty: f64,
    },
    /// Viscous channel flow.
    Fluid {
        /// Steady state (`fl33`) vs transient (`fl34`).
        steady: bool,
        /// Dynamic viscosity.
        viscosity: f64,
        /// Inlet velocity.
        inlet: f64,
    },
    /// Active muscle fiber contraction.
    Muscle {
        /// Peak active fiber tension.
        activation: f64,
    },
    /// Biphasic skeleton plus solute transport.
    Multiphasic {
        /// Principal hydraulic permeabilities.
        permeability: [f64; 3],
        /// Solute diffusivity.
        diffusivity: f64,
    },
    /// The solid physics on a tetrahedral mesh.
    Tetrahedral {
        /// Prescribed stretch displacement.
        stretch: f64,
    },
    /// Rigid bodies coupled to a deformable base.
    Rigid {
        /// Rigid body count.
        bodies: usize,
    },
    /// Built-in strain offset relaxing against constraints.
    Prestrain {
        /// Multiplier on the canonical prestrain offset.
        scale: f64,
    },
    /// J2 plasticity with radial return.
    PlastiDamage {
        /// Initial yield stress.
        yield_stress: f64,
    },
    /// Stiffness generations activating over time.
    Multigeneration {
        /// Activation time of the second generation.
        second_gen_time: f64,
    },
    /// Transient fluid pass of a staggered FSI scheme.
    Fsi {
        /// Inlet velocity.
        inlet: f64,
    },
    /// Heterogeneous two-region solid.
    Misc {
        /// Region split plane as a fraction of the z extent.
        split: f64,
    },
    /// Reactive viscoelastic material sweeps (the `ma26`–`ma31` family).
    Material {
        /// Prony-series term count (state size per Gauss point).
        terms: usize,
        /// Base relaxation time; term `i` relaxes at `tau_scale * 2^i`.
        tau_scale: f64,
    },
    /// Continuum damage on a shuffled mesh.
    Damage {
        /// Prescribed stretch displacement.
        stretch: f64,
    },
    /// Confined volumetric tumor growth.
    Tumor {
        /// Growth rate.
        growth_rate: f64,
    },
    /// Small deformable base with a large multibody constraint graph.
    RigidJoint {
        /// Rigid body count.
        bodies: usize,
        /// Joint count.
        joints: usize,
    },
    /// Near-incompressible solid.
    VolumeConstraint {
        /// Poisson ratio (toward the 0.5 incompressible limit).
        poisson: f64,
    },
    /// Large permeable poroelastic domain under transient loading.
    BiphasicFsi {
        /// Principal hydraulic permeabilities.
        permeability: [f64; 3],
        /// Compressive surface load.
        load: f64,
    },
    /// The ocular case study: heterogeneous regions, shuffled numbering,
    /// pressure loading.
    Eye {
        /// Intraocular pressure load on the corneal cap.
        iop: f64,
    },
}

// Every family's parameters: JSON key (the field's name), document and
// digest order, and range rule. A new parameter is its field in the enum
// above, its rule here, its canonical value in `catalog::TABLE_I` and its
// use in `models::build`; each of the four fails to compile without it.
record!(enum Family {
    Arterial { stretch: Finite },
    Biphasic { permeability: Positive, load: Finite },
    Contact { start: Finite, speed: Finite, penalty: Positive },
    Fluid { steady: Any, viscosity: Positive, inlet: Finite },
    Muscle { activation: Positive },
    Multiphasic { permeability: Positive, diffusivity: Positive },
    Tetrahedral { stretch: Finite },
    Rigid { bodies: COUNT },
    Prestrain { scale: Finite },
    PlastiDamage { yield_stress: Positive },
    Multigeneration { second_gen_time: Positive },
    Fsi { inlet: Finite },
    Misc { split: Within(0.0, 1.0) },
    Material { terms: Within(1.0, 16.0), tau_scale: Positive },
    Damage { stretch: Finite },
    Tumor { growth_rate: Positive },
    RigidJoint { bodies: Any, joints: Any },
    VolumeConstraint { poisson: Between(-1.0, 0.5) },
    BiphasicFsi { permeability: Positive, load: Finite },
    Eye { iop: Finite },
});

impl Family {
    /// This family's Table I row.
    fn row(&self) -> &'static Row {
        let same = |row: &&Row| std::mem::discriminant(&row.family) == std::mem::discriminant(self);
        TABLE_I
            .iter()
            .find(same)
            .expect("every family has a Table I row")
    }

    /// Every family at canonical parameters, in Table I order.
    pub fn all_canonical() -> Vec<Family> {
        TABLE_I.iter().map(|row| row.family.clone()).collect()
    }

    /// Stable spec/CLI label (`"arterial"`, `"biphasic"`, ...).
    pub fn label(&self) -> &'static str {
        self.row().family_label
    }

    /// The Table I category this family reproduces.
    pub fn category(&self) -> Category {
        self.row().category
    }

    /// The family at its canonical (catalog-preset) parameters, by label.
    pub fn canonical(label: &str) -> Option<Family> {
        let row = TABLE_I.iter().find(|row| row.family_label == label)?;
        Some(row.family.clone())
    }
}

/// A complete, serializable workload scenario.
///
/// See the [module docs](self) for the JSON shape and the preset
/// relationship. Construction helpers: [`ScenarioSpec::new`] applies
/// the family's historical defaults; field mutation plus
/// [`ScenarioSpec::validate`] covers everything else.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Owned scenario identifier (report rows, cache keys, CLI).
    pub id: String,
    /// The typed model family with its physics parameters.
    pub family: Family,
    /// Mesh resolution, extent, topology and shuffle.
    pub mesh: MeshParams,
    /// Load-stepping schedule.
    pub stepping: SteppingParams,
    /// Newton settings.
    pub newton: NewtonParams,
    /// Model-level OpenMP spin-barrier scale (recorded into the log).
    pub spin_scale: f64,
    /// Trace-expansion knobs.
    pub expand: ExpandParams,
}

impl ScenarioSpec {
    /// A scenario at the family's historical defaults.
    pub fn new(id: impl Into<String>, family: Family) -> ScenarioSpec {
        let row = family.row();
        let mut stepping = row.stepping.clone();
        if let Family::Fluid { steady: true, .. } = family {
            // The steady builder (`fl33`) solved in one step.
            stepping.steps = 1;
        }
        ScenarioSpec {
            id: id.into(),
            family,
            mesh: row.mesh.clone(),
            stepping,
            newton: row.newton.clone(),
            spin_scale: row.spin_scale,
            expand: ExpandParams::default(),
        }
    }

    /// Builder: sets the trace-expansion code bloat and sample stride
    /// (the two knobs the catalog presets vary).
    pub fn with_expand_knobs(mut self, code_bloat: u32, sample: usize) -> ScenarioSpec {
        self.expand.code_bloat = code_bloat;
        self.expand.sample = sample;
        self
    }

    /// Builder: sets the model-level spin scale.
    pub fn with_spin_scale(mut self, spin_scale: f64) -> ScenarioSpec {
        self.spin_scale = spin_scale;
        self
    }

    /// A derived scenario at mesh resolution `r×r×r` (extent, shuffle
    /// and every other parameter unchanged); the id gains a `-r{r}`
    /// suffix so sweep variants stay distinguishable in reports.
    pub fn with_resolution(&self, r: usize) -> ScenarioSpec {
        let mut out = self.clone();
        out.id = format!("{}-r{r}", self.id);
        out.mesh.nx = r;
        out.mesh.ny = r;
        out.mesh.nz = r;
        out
    }

    /// The Table I category of this scenario's family.
    pub fn category(&self) -> Category {
        self.family.category()
    }

    /// The trace-expansion configuration.
    pub fn expand_config(&self) -> ExpandConfig {
        self.expand.to_config()
    }

    /// Checks every field for structural validity.
    ///
    /// # Errors
    ///
    /// A [`ScenarioError`] naming the first violated constraint.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.id.is_empty() {
            return Err(ScenarioError::new("id must not be empty"));
        }
        if self.id.len() > 64 {
            return Err(ScenarioError::new("id longer than 64 characters"));
        }
        if !self
            .id
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.' | '@'))
        {
            // Ids become report labels and on-disk cache file names.
            return Err(ScenarioError::new(format!(
                "id `{}` may only contain alphanumerics, `-`, `_`, `.`, `@`",
                self.id
            )));
        }
        if let Family::RigidJoint {
            bodies: 0,
            joints: 0,
        } = self.family
        {
            return Err(ScenarioError::new(
                "rigid_joint family needs bodies or joints",
            ));
        }
        schema::check(self, "").map_err(|e| ScenarioError::new(e.message))
    }

    /// The rule for scenarios that run together — a campaign's inline
    /// workloads, a `belenos scenario` document, a served batch: every
    /// scenario valid, ids unique.
    ///
    /// # Errors
    ///
    /// The first invalid scenario or repeated id, in list order.
    pub fn validate_list(specs: &[ScenarioSpec]) -> Result<(), ScenarioListError> {
        for (i, spec) in specs.iter().enumerate() {
            spec.validate().map_err(ScenarioListError::Invalid)?;
            if specs[..i].iter().any(|s| s.id == spec.id) {
                return Err(ScenarioListError::DuplicateId(spec.id.clone()));
            }
        }
        Ok(())
    }

    /// Validates the scenario and builds a fresh [`FeModel`] for it.
    ///
    /// # Errors
    ///
    /// The first violated validation constraint.
    pub fn build_model(&self) -> Result<FeModel, ScenarioError> {
        self.validate()?;
        Ok(models::build(self))
    }

    /// Stable 64-bit content digest: equal digests mean the scenario
    /// describes the identical model and trace expansion. Feeds the
    /// runner's cache key, so parametric variants sharing an id can
    /// never alias a cached result.
    ///
    /// Every field of the [`Record`] listing is hashed, in listing
    /// order; a field the listing lacks does not compile.
    pub fn stable_digest(&self) -> u64 {
        record_digest("ScenarioSpec-v1", self)
    }

    /// Parses and validates a JSON scenario document.
    ///
    /// # Errors
    ///
    /// A [`ScenarioError`] for malformed JSON, unknown fields/families,
    /// or out-of-range parameters.
    pub fn parse(text: &str) -> Result<ScenarioSpec, ScenarioError> {
        let json = Json::parse(text).map_err(|e| ScenarioError::new(e.to_string()))?;
        let spec = ScenarioSpec::from_json(&json).map_err(|e| ScenarioError::new(e.to_string()))?;
        spec.validate()?;
        Ok(spec)
    }

    /// Pretty-printed JSON that [`ScenarioSpec::parse`] accepts back
    /// unchanged (the fully explicit normal form).
    pub fn to_json(&self) -> String {
        ToJson::to_json(self).pretty()
    }
}

// The document shape, digest order and rules of a whole scenario. The
// family travels as its label plus a `params` object.
impl Record for ScenarioSpec {
    fn walk<W: Walker>(&self, w: &mut W) -> Result<Self, JsonError> {
        Ok(ScenarioSpec {
            id: w.leaf("id", &self.id, Rule::Any)?,
            family: {
                // Written and hashed ahead of the parameters; a document
                // is read over a scenario already built from its label.
                w.leaf("family", &self.family.label().to_string(), Rule::Any)?;
                w.nested("params", &self.family)?
            },
            mesh: w.nested("mesh", &self.mesh)?,
            stepping: w.nested("stepping", &self.stepping)?,
            newton: w.nested("newton", &self.newton)?,
            spin_scale: w.leaf("spin_scale", &self.spin_scale, Rule::Positive)?,
            expand: w.nested("expand", &self.expand)?,
        })
    }
}

impl ToJson for ScenarioSpec {
    fn to_json(&self) -> Json {
        schema::write(self)
    }
}

/// Missing optional sections take the family's historical defaults, so
/// a terse `{"id": ..., "family": ...}` scenario is complete.
impl FromJson for ScenarioSpec {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        if v.as_obj().is_none() {
            return Err(JsonError::new("scenario: expected an object"));
        }
        // The two keys the rest of the document is read over.
        let text = |key: &str| match v.get(key) {
            Some(s) => {
                String::from_json(s).map_err(|e| JsonError::new(format!("scenario.{key}: {e}")))
            }
            None => Err(JsonError::new(format!("scenario: missing field `{key}`"))),
        };
        let (id, label) = (text("id")?, text("family")?);
        let canonical = Family::canonical(&label).ok_or_else(|| {
            let known: Vec<&str> = TABLE_I.iter().map(|row| row.family_label).collect();
            JsonError::new(format!(
                "scenario.family: unknown family `{label}` (expected one of: {})",
                known.join(", ")
            ))
        })?;
        // The parameters first: a family's defaults can follow them
        // (`fluid`'s step count follows `steady`).
        let family = match v.get("params") {
            Some(params) => schema::read(&canonical, params, "scenario.params")?,
            None => canonical,
        };
        schema::read(&ScenarioSpec::new(id, family), v, "scenario")
    }
}

/// A scenario inside another document (a job on the board) is one value,
/// read like a standalone scenario.
impl Leaf for ScenarioSpec {
    fn feed(&self, sink: &mut dyn FnMut(&[u8])) {
        schema::feed(self, sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_label_roundtrips_canonically() {
        for family in Family::all_canonical() {
            let back = Family::canonical(family.label()).expect("label parses back");
            assert_eq!(back, family, "{}", family.label());
            assert_eq!(back.category(), family.category());
        }
        assert!(Family::canonical("quantum").is_none());
    }

    #[test]
    fn canonical_families_cover_every_category() {
        let cats: std::collections::HashSet<_> = Family::all_canonical()
            .iter()
            .map(|f| f.category())
            .collect();
        assert_eq!(cats.len(), 20);
    }

    #[test]
    fn terse_scenario_parses_with_family_defaults() {
        let spec = ScenarioSpec::parse(r#"{"id": "x", "family": "contact"}"#).unwrap();
        assert_eq!(
            spec,
            ScenarioSpec::new("x", Family::canonical("contact").unwrap())
        );
        assert_eq!(spec.mesh.shuffle_seed, Some(12345));
        assert_eq!(spec.newton.max_iterations, 30);
    }

    #[test]
    fn full_normal_form_roundtrips() {
        for family in Family::all_canonical() {
            let spec = ScenarioSpec::new(format!("t-{}", family.label()), family);
            let back = ScenarioSpec::parse(&spec.to_json()).expect("roundtrip");
            assert_eq!(back, spec);
            assert_eq!(back.stable_digest(), spec.stable_digest());
        }
    }

    #[test]
    fn non_default_mesh_flags_survive_roundtrip() {
        // The parser fills omitted mesh fields from *family* defaults,
        // so a cleared shuffle (contact defaults to shuffled) and a hex
        // topology (tetrahedral defaults to tet) must serialize visibly.
        let mut spec = ScenarioSpec::new("co-ordered", Family::canonical("contact").unwrap());
        spec.mesh.shuffle_seed = None;
        let back = ScenarioSpec::parse(&spec.to_json()).expect("roundtrip");
        assert_eq!(back, spec);
        assert_eq!(back.mesh.shuffle_seed, None);

        let mut spec = ScenarioSpec::new("te-hex", Family::canonical("tetrahedral").unwrap());
        spec.mesh.tet = false;
        let back = ScenarioSpec::parse(&spec.to_json()).expect("roundtrip");
        assert_eq!(back, spec);
        assert!(!back.mesh.tet);

        // Seeds beyond f64's exact-integer range would round on a JSON
        // round-trip; validation rejects them instead.
        let mut spec = ScenarioSpec::new("co-big", Family::canonical("contact").unwrap());
        spec.mesh.shuffle_seed = Some((1u64 << 53) + 1);
        assert!(spec
            .validate()
            .unwrap_err()
            .to_string()
            .contains("shuffle_seed"));
    }

    #[test]
    fn unknown_fields_and_families_are_rejected() {
        for bad in [
            r#"{"id": "x", "family": "contact", "params": {"speeed": 1}}"#,
            r#"{"id": "x", "family": "warp"}"#,
            r#"{"id": "x", "family": "contact", "mash": {}}"#,
            r#"{"id": "x", "family": "biphasic", "params": {"permeability": [1, 2]}}"#,
            r#"{"family": "contact"}"#,
        ] {
            assert!(ScenarioSpec::parse(bad).is_err(), "must reject {bad}");
        }
    }

    #[test]
    fn validation_names_the_offending_field() {
        let mut spec = ScenarioSpec::new("ok", Family::canonical("contact").unwrap());
        spec.mesh.nx = 0;
        assert!(spec.validate().unwrap_err().to_string().contains("mesh.nx"));
        let mut spec = ScenarioSpec::new("bad id!", Family::canonical("contact").unwrap());
        assert!(spec.validate().is_err());
        spec.id = "ok".into();
        spec.stepping.dt = -1.0;
        assert!(spec
            .validate()
            .unwrap_err()
            .to_string()
            .contains("stepping.dt"));
        let mut spec = ScenarioSpec::new("ok", Family::canonical("biphasic").unwrap());
        if let Family::Biphasic { permeability, .. } = &mut spec.family {
            permeability[1] = 0.0;
        }
        assert!(spec
            .validate()
            .unwrap_err()
            .to_string()
            .contains("permeability[1]"));
    }

    #[test]
    fn resolution_variants_derive_id_and_mesh() {
        let base = ScenarioSpec::new("co-x", Family::canonical("contact").unwrap());
        let fine = base.with_resolution(6);
        assert_eq!(fine.id, "co-x-r6");
        assert_eq!((fine.mesh.nx, fine.mesh.ny, fine.mesh.nz), (6, 6, 6));
        assert_eq!(fine.mesh.lx, base.mesh.lx, "extent preserved");
        assert_eq!(fine.mesh.shuffle_seed, base.mesh.shuffle_seed);
        assert_ne!(fine.stable_digest(), base.stable_digest());
        assert!(fine.validate().is_ok());
    }

    #[test]
    fn every_canonical_family_builds_a_model() {
        for family in Family::all_canonical() {
            let label = family.label();
            let spec = ScenarioSpec::new(format!("c-{label}"), family);
            let model = spec
                .build_model()
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert!(model.n_dofs() > 0, "{label}");
            assert!(!model.name().is_empty(), "{label}");
        }
    }
}
