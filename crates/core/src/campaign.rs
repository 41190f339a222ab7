//! The declarative campaign API.
//!
//! A [`CampaignSpec`] is a first-class, serializable description of an
//! experiment campaign: which workloads, under which simulation options
//! ([`SimOptions`]: budget × sampling × backend), producing which
//! analyses (the paper's figures/tables plus the supplementary
//! reports). Specs round-trip through JSON ([`CampaignSpec::to_json`] /
//! [`CampaignSpec::parse`]), are validated on construction, and are
//! executed by [`Campaign::run`], which routes every simulation through
//! the cache-aware [`Runner`] — so two analyses sharing a grid point
//! (every sweep contains the Table II baseline) simulate it once.
//!
//! What an [`Analysis`] is called, which workloads it defaults to and how
//! it runs is one row of one table (`analyses!` below); `Analysis::{ALL,
//! id, describe, parse, paper_set}` read it, and [`Analysis::report`] —
//! what [`Campaign::run`] calls for each analysis — is the one way to run
//! one.
//!
//! ```no_run
//! use belenos::campaign::CampaignSpec;
//! use belenos_runner::Runner;
//!
//! let spec = CampaignSpec::parse(
//!     r#"{
//!         "name": "smoke",
//!         "workloads": ["pd"],
//!         "options": {"max_ops": 20000, "model": "o3"},
//!         "analyses": ["table1", "topdown", "frequency"]
//!     }"#,
//! )
//! .expect("valid spec");
//! let report = spec.prepare().expect("models solve").run(&Runner::from_env());
//! print!("{}", report.to_text());
//! std::fs::write("report.json", report.to_json()).unwrap();
//! ```

use crate::experiment::{Experiment, PrepareError};
use crate::figures;
use crate::options::{SimFailure, SimOptions};
use crate::report::Report;
use belenos_json::schema::{self, Leaf};
use belenos_json::{record, FromJson, Json, JsonError, ToJson};
use belenos_runner::Runner;
use belenos_workloads::{ScenarioError, ScenarioListError, ScenarioSpec};
use std::collections::HashMap;

/// Mesh resolutions [`Analysis::MeshScaling`] sweeps when the campaign's
/// workload set does not carry its own resolution axis.
pub const DEFAULT_MESH_RESOLUTIONS: [usize; 3] = [3, 4, 5];

/// Which workloads a campaign covers.
///
/// Beyond the named paper sets and preset-id lists, a set can carry
/// **inline scenarios** (full [`ScenarioSpec`] JSON objects, mixed
/// freely with preset ids) and a **mesh-resolution axis**
/// ([`WorkloadSet::MeshSweep`]): base scenarios expanded at each listed
/// resolution via [`ScenarioSpec::with_resolution`] — the parametric
/// workload space the static catalog could never express.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum WorkloadSet {
    /// Per-analysis paper sets: each analysis uses the workload set the
    /// paper evaluated it on (VTune set for the profile figures, gem5
    /// set for the sensitivity sweeps, full catalog for hotspots and
    /// scaling). The default.
    #[default]
    Paper,
    /// The VTune set (11 models + eye).
    Vtune,
    /// The gem5 set.
    Gem5,
    /// The full Table I catalog.
    Catalog,
    /// An explicit list of preset ids.
    Ids(Vec<String>),
    /// Explicit scenarios: presets resolved from ids and/or inline
    /// scenario documents (`[{"id": ..., "family": ...}, "pd"]`).
    Scenarios(Vec<ScenarioSpec>),
    /// A parametric mesh-resolution axis: every base scenario expanded
    /// at every resolution (`{"base": [...], "resolutions": [3, 4, 6]}`).
    MeshSweep {
        /// The base scenarios the axis refines.
        base: Vec<ScenarioSpec>,
        /// Mesh resolutions (`r` → an `r`×`r`×`r` variant per base).
        resolutions: Vec<usize>,
    },
}

impl WorkloadSet {
    /// Stable spelling used in specs and `belenos list`.
    pub fn label(&self) -> String {
        match self {
            WorkloadSet::Paper => "paper".into(),
            WorkloadSet::Vtune => "vtune".into(),
            WorkloadSet::Gem5 => "gem5".into(),
            WorkloadSet::Catalog => "catalog".into(),
            WorkloadSet::Ids(ids) => ids.join(","),
            WorkloadSet::Scenarios(specs) => specs
                .iter()
                .map(|s| s.id.as_str())
                .collect::<Vec<_>>()
                .join(","),
            WorkloadSet::MeshSweep { base, resolutions } => format!(
                "{}@r{}",
                base.iter()
                    .map(|s| s.id.as_str())
                    .collect::<Vec<_>>()
                    .join(","),
                resolutions
                    .iter()
                    .map(usize::to_string)
                    .collect::<Vec<_>>()
                    .join("/")
            ),
        }
    }

    /// Parses a named set (not an id list).
    pub fn parse_named(s: &str) -> Option<WorkloadSet> {
        match s.trim().to_ascii_lowercase().as_str() {
            "paper" | "default" => Some(WorkloadSet::Paper),
            "vtune" => Some(WorkloadSet::Vtune),
            "gem5" => Some(WorkloadSet::Gem5),
            "catalog" | "all" => Some(WorkloadSet::Catalog),
            _ => None,
        }
    }

    /// The scenarios this set resolves to, with `fallback` naming the
    /// paper set [`WorkloadSet::Paper`] means in this context. The
    /// single source of truth for named-set membership — the CLI
    /// harnesses resolve through here too.
    pub fn resolve(&self, fallback: PaperSet) -> Vec<ScenarioSpec> {
        let named = match self {
            WorkloadSet::Paper => fallback,
            WorkloadSet::Vtune => PaperSet::Vtune,
            WorkloadSet::Gem5 => PaperSet::Gem5,
            WorkloadSet::Catalog => PaperSet::Catalog,
            WorkloadSet::Ids(ids) => {
                return ids
                    .iter()
                    .filter_map(|id| belenos_workloads::by_id(id))
                    .collect()
            }
            WorkloadSet::Scenarios(specs) => return specs.clone(),
            WorkloadSet::MeshSweep { base, resolutions } => {
                return base
                    .iter()
                    .flat_map(|s| resolutions.iter().map(|&r| s.with_resolution(r)))
                    .collect()
            }
        };
        match named {
            PaperSet::Vtune => belenos_workloads::vtune_set(),
            PaperSet::Gem5 => belenos_workloads::gem5_set(),
            PaperSet::Catalog => belenos_workloads::catalog(),
        }
    }

    /// The scenarios this set resolves to for `analysis`. A
    /// [`Analysis::MeshScaling`] request on a set without its own
    /// resolution axis gets the [`DEFAULT_MESH_RESOLUTIONS`] applied to
    /// every resolved scenario.
    pub fn specs_for(&self, analysis: Analysis) -> Vec<ScenarioSpec> {
        let specs = self.resolve(analysis.paper_set());
        if analysis == Analysis::MeshScaling && !matches!(self, WorkloadSet::MeshSweep { .. }) {
            return specs
                .iter()
                .flat_map(|s| {
                    DEFAULT_MESH_RESOLUTIONS
                        .iter()
                        .map(|&r| s.with_resolution(r))
                })
                .collect();
        }
        specs
    }

    /// Checks the set's own consistency (inline scenarios validate,
    /// ids are unique within an explicit set, sweep axes are sane).
    fn validate(&self) -> Result<(), SpecError> {
        let check_specs = |specs: &[ScenarioSpec]| -> Result<(), SpecError> {
            if specs.is_empty() {
                return Err(SpecError::NoWorkloads);
            }
            ScenarioSpec::validate_list(specs).map_err(|e| match e {
                ScenarioListError::Invalid(e) => SpecError::Scenario(e),
                ScenarioListError::DuplicateId(id) => SpecError::DuplicateScenario(id),
            })
        };
        match self {
            WorkloadSet::Ids(ids) => {
                if ids.is_empty() {
                    return Err(SpecError::NoWorkloads);
                }
                let mut seen = std::collections::HashSet::new();
                for id in ids {
                    if belenos_workloads::by_id(id).is_none() {
                        return Err(SpecError::UnknownWorkload(id.clone()));
                    }
                    if !seen.insert(id.as_str()) {
                        return Err(SpecError::DuplicateScenario(id.clone()));
                    }
                }
                Ok(())
            }
            WorkloadSet::Scenarios(specs) => check_specs(specs),
            WorkloadSet::MeshSweep { base, resolutions } => {
                check_specs(base)?;
                if resolutions.is_empty() {
                    return Err(SpecError::MeshSweep(
                        "`resolutions` must list at least one resolution".into(),
                    ));
                }
                let mut seen = std::collections::HashSet::new();
                for &r in resolutions {
                    if !(1..=64).contains(&r) {
                        return Err(SpecError::MeshSweep(format!(
                            "resolution {r} out of range (1..=64)"
                        )));
                    }
                    if !seen.insert(r) {
                        return Err(SpecError::MeshSweep(format!("duplicate resolution {r}")));
                    }
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }
}

/// Parses a workloads array: all-strings stays an id list; any inline
/// object resolves everything (ids included) into full scenarios.
fn scenario_array_from_json(items: &[Json]) -> Result<WorkloadSet, JsonError> {
    if items.iter().all(|j| j.as_str().is_some()) {
        let ids = items
            .iter()
            .map(|j| j.as_str().expect("all strings").to_string())
            .collect();
        return Ok(WorkloadSet::Ids(ids));
    }
    let resolve = |item: &Json| match item.as_str() {
        Some(id) => belenos_workloads::by_id(id)
            .ok_or_else(|| JsonError::new(format!("unknown preset id `{id}`"))),
        None => ScenarioSpec::from_json(item),
    };
    items
        .iter()
        .map(resolve)
        .collect::<Result<_, _>>()
        .map(WorkloadSet::Scenarios)
}

/// The `{base, resolutions}` object of a [`WorkloadSet::MeshSweep`].
#[derive(Clone)]
struct Sweep {
    base: WorkloadSet,
    resolutions: Vec<usize>,
}

record!(Sweep {
    base: Any,
    resolutions: Any,
});

impl Sweep {
    /// The axis, with the base resolved to scenarios: a named set other
    /// than `paper` (which is per-analysis and would make the axis
    /// ambiguous) or a list.
    fn into_set(self) -> Result<WorkloadSet, JsonError> {
        let refused = match &self.base {
            WorkloadSet::Paper => {
                Some("`paper` is per-analysis; name vtune, gem5 or catalog".into())
            }
            WorkloadSet::MeshSweep { .. } => {
                Some("expected a set name or a list of scenarios".into())
            }
            WorkloadSet::Ids(ids) => ids
                .iter()
                .find(|id| belenos_workloads::by_id(id).is_none())
                .map(|id| format!("unknown preset id `{id}`")),
            _ => None,
        };
        match refused {
            Some(what) => Err(JsonError::new(format!("workloads.base: {what}"))),
            None => Ok(WorkloadSet::MeshSweep {
                base: self.base.resolve(PaperSet::Catalog),
                resolutions: self.resolutions,
            }),
        }
    }
}

impl ToJson for WorkloadSet {
    fn to_json(&self) -> Json {
        match self {
            WorkloadSet::Ids(ids) => ids.to_json(),
            WorkloadSet::Scenarios(specs) => specs.to_json(),
            WorkloadSet::MeshSweep { base, resolutions } => Sweep {
                base: WorkloadSet::Scenarios(base.clone()),
                resolutions: resolutions.clone(),
            }
            .to_json(),
            named => Json::Str(named.label()),
        }
    }
}

impl FromJson for WorkloadSet {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Str(s) => WorkloadSet::parse_named(s).ok_or_else(|| {
                JsonError::new(format!(
                    "unknown set `{s}` (expected paper, vtune, gem5, catalog, \
                     or a list of ids/scenarios)"
                ))
            }),
            Json::Arr(items) => scenario_array_from_json(items),
            Json::Obj(_) => {
                let shape = Sweep {
                    base: WorkloadSet::Paper,
                    resolutions: Vec::new(),
                };
                schema::read_exact(&shape, v, "workloads")?.into_set()
            }
            _ => Err(JsonError::new(
                "expected a set name, a list of ids/scenarios, \
                 or a {base, resolutions} sweep",
            )),
        }
    }
}

/// A workload set hashes as its JSON form.
impl Leaf for WorkloadSet {
    fn feed(&self, sink: &mut dyn FnMut(&[u8])) {
        schema::feed_str(&self.to_json().render(), sink);
    }
}

/// Which paper workload set an analysis defaults to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaperSet {
    /// The VTune profiling set.
    Vtune,
    /// The gem5 sensitivity set.
    Gem5,
    /// The full Table I catalog.
    Catalog,
}

/// One analysis a campaign can request — a paper table/figure or a
/// supplementary report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Analysis {
    /// Table I: dataset models breakdown.
    Table1,
    /// Table II: baseline CPU and system configuration.
    Table2,
    /// Fig. 2: top-down pipeline breakdown.
    Topdown,
    /// Fig. 3: FE/BE stall breakdown.
    Stalls,
    /// Fig. 4: hotspot-category prevalence.
    Hotspots,
    /// Fig. 5: solve time vs model size.
    Scaling,
    /// Fig. 6: execution time by model group.
    ExecTime,
    /// Fig. 7: pipeline stage breakdowns.
    Pipeline,
    /// Fig. 8: frequency sweep.
    Frequency,
    /// Fig. 9: cache-size sweeps.
    CacheSweep,
    /// Fig. 10: pipeline-width sweep.
    Width,
    /// Fig. 11: LQ/SQ depth sweep.
    Lsq,
    /// Fig. 12: branch-predictor sweep.
    Branch,
    /// Supplementary memory profiles.
    Memory,
    /// ROB/IQ instruction-window ablation (§IV-C4).
    RobIq,
    /// Mesh-resolution scaling: IPC and bottleneck class per family as
    /// the mesh refines (needs the parametric scenario space).
    MeshScaling,
    /// Cross-backend bottleneck agreement: every workload on the gem5
    /// baseline under each of the three core models. It compares the
    /// backends, so the campaign's `model` option is ignored.
    Agreement,
}

/// How an analysis produces its report, and so what it needs.
#[derive(Clone, Copy)]
enum Run {
    /// A static table: no workloads at all.
    Table(fn() -> Report),
    /// From the solved workload models alone.
    Solved(fn(&[Experiment]) -> Report),
    /// From simulations submitted through the runner.
    Simulated(fn(&Runner, &[Experiment], &SimOptions) -> Result<Report, SimFailure>),
}

/// Everything the campaign layer knows about one analysis.
struct AnalysisRow {
    /// The stable spec/CLI id, then the aliases [`Analysis::parse`] accepts.
    names: &'static [&'static str],
    /// One line for `belenos list`.
    describe: &'static str,
    /// The workload set the paper evaluated it on.
    paper_set: PaperSet,
    run: Run,
}

/// Builds the one analysis table from rows of `Variant "describe" [id,
/// aliases..] PaperSet How(report function);` — a row per [`Analysis`]
/// variant, in declaration order (a variant's discriminant indexes its
/// row), which is `belenos figure all` / `belenos list` order: tables
/// first, then figures by number, then supplements. Adding an analysis is
/// a variant plus a row.
macro_rules! analyses {
    ($($variant:ident $describe:literal $names:tt $set:ident $how:ident($report:path);)*) => {
        /// How many rows the table has.
        const COUNT: usize = [$(stringify!($variant)),*].len();

        impl Analysis {
            /// Every analysis, in `belenos figure all` / `all_figures` print
            /// order (tables first, then figures by number, then supplements).
            pub const ALL: [Analysis; COUNT] = [$(Analysis::$variant),*];
        }

        static ANALYSES: [AnalysisRow; COUNT] = [$(AnalysisRow {
            names: &$names,
            describe: $describe,
            paper_set: PaperSet::$set,
            run: Run::$how($report),
        }),*];
    };
}

analyses! {
    Table1 "Table I: dataset models breakdown"
        ["table1", "table_1", "1"] Catalog Table(figures::table1);
    Table2 "Table II: baseline CPU and system configuration"
        ["table2", "table_2", "2"] Catalog Table(figures::table2);
    Topdown "Fig. 2: top-down pipeline breakdown"
        ["topdown", "fig02", "fig2"] Vtune Simulated(figures::fig02_topdown);
    Stalls "Fig. 3: FE/BE stall breakdown"
        ["stalls", "fig03", "fig3"] Vtune Simulated(figures::fig03_stalls);
    Hotspots "Fig. 4: hotspot-category share of clockticks"
        ["hotspots", "fig04", "fig4"] Catalog Simulated(figures::fig04_hotspots);
    Scaling "Fig. 5: solve time vs model size"
        ["scaling", "fig05", "fig5"] Catalog Solved(figures::fig05_scaling);
    ExecTime "Fig. 6: execution time by model group"
        ["exec_time", "exec-time", "fig06", "fig6"] Vtune Solved(figures::fig06_exec_time);
    Pipeline "Fig. 7: fetch/execute/commit stage breakdowns"
        ["pipeline", "fig07", "fig7"] Gem5 Simulated(figures::fig07_pipeline);
    Frequency "Fig. 8: execution time and IPC vs core frequency"
        ["frequency", "freq", "fig08", "fig8"] Gem5 Simulated(figures::fig08_frequency);
    CacheSweep "Fig. 9: L1/L2 cache-size sensitivity"
        ["cache", "fig09", "fig9"] Gem5 Simulated(figures::fig09_cache);
    Width "Fig. 10: pipeline-width sensitivity"
        ["width", "fig10"] Gem5 Simulated(figures::fig10_width);
    Lsq "Fig. 11: LQ/SQ depth sensitivity"
        ["lsq", "fig11"] Gem5 Simulated(figures::fig11_lsq);
    Branch "Fig. 12: branch-predictor sensitivity"
        ["branch", "fig12"] Gem5 Simulated(figures::fig12_branch);
    Memory "memory profiles (MPKIs, DRAM bandwidth)"
        ["memory", "memory_profiles"] Vtune Simulated(figures::memory_profiles);
    RobIq "ROB/IQ instruction-window ablation"
        ["rob_iq", "rob-iq", "robiq"] Gem5 Simulated(figures::ablation_rob_iq);
    // The gem5 sensitivity set by default; a MeshSweep workload set
    // overrides the axis entirely.
    MeshScaling "IPC and bottleneck class vs mesh resolution per family"
        ["mesh_scaling", "mesh-scaling", "meshscaling"] Gem5 Simulated(figures::mesh_scaling);
    Agreement "cross-backend bottleneck agreement (o3 vs inorder vs analytic)"
        ["agreement"] Catalog Simulated(figures::agreement);
}

impl Analysis {
    fn row(self) -> &'static AnalysisRow {
        &ANALYSES[self as usize]
    }

    /// Stable spec/CLI identifier.
    pub fn id(self) -> &'static str {
        self.row().names[0]
    }

    /// One-line description for `belenos list`.
    pub fn describe(self) -> &'static str {
        self.row().describe
    }

    /// Parses a spec/CLI identifier (accepts `figNN` aliases).
    pub fn parse(s: &str) -> Option<Analysis> {
        let s = s.trim();
        let named = |a: &Analysis| a.row().names.iter().any(|n| n.eq_ignore_ascii_case(s));
        Analysis::ALL.into_iter().find(named)
    }

    /// Which paper set this analysis ran on (what the per-figure bench
    /// binaries used to hardcode).
    pub fn paper_set(self) -> PaperSet {
        self.row().paper_set
    }

    /// True when the analysis needs prepared (solved) workload models.
    pub fn needs_experiments(self) -> bool {
        !matches!(self.row().run, Run::Table(_))
    }

    /// Builds this analysis's report over `experiments` (ignored by the
    /// tables), simulating through `runner` under `opts` — the one way to
    /// run an analysis, and what [`Campaign::run`] does for each one.
    ///
    /// # Errors
    ///
    /// The first failed simulation point.
    pub fn report(
        self,
        runner: &Runner,
        experiments: &[Experiment],
        opts: &SimOptions,
    ) -> Result<Report, SimFailure> {
        match self.row().run {
            Run::Table(report) => Ok(report()),
            Run::Solved(report) => Ok(report(experiments)),
            Run::Simulated(report) => report(runner, experiments, opts),
        }
    }
}

impl ToJson for Analysis {
    fn to_json(&self) -> Json {
        Json::Str(self.id().to_string())
    }
}

impl FromJson for Analysis {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let s = v
            .as_str()
            .ok_or_else(|| JsonError::new("expected analysis id strings"))?;
        Analysis::parse(s).ok_or_else(|| JsonError::new(format!("unknown analysis `{s}`")))
    }
}

impl Leaf for Analysis {
    fn feed(&self, sink: &mut dyn FnMut(&[u8])) {
        schema::feed_str(self.id(), sink);
    }
}

/// A structurally invalid campaign spec.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The document was not valid JSON, or a field had the wrong shape
    /// (including zero-interval sampling).
    Json(JsonError),
    /// A workload id does not exist in the catalog.
    UnknownWorkload(String),
    /// The spec requests no analyses.
    NoAnalyses,
    /// The spec's workload list is empty.
    NoWorkloads,
    /// An inline scenario failed its own validation.
    Scenario(ScenarioError),
    /// Two scenarios in one explicit set share an id (their report rows
    /// would be indistinguishable).
    DuplicateScenario(String),
    /// The mesh-resolution axis is malformed.
    MeshSweep(String),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Json(e) => write!(f, "invalid campaign spec: {e}"),
            SpecError::UnknownWorkload(id) => {
                write!(f, "invalid campaign spec: unknown workload id `{id}`")
            }
            SpecError::NoAnalyses => {
                write!(
                    f,
                    "invalid campaign spec: `analyses` must name at least one analysis"
                )
            }
            SpecError::NoWorkloads => {
                write!(
                    f,
                    "invalid campaign spec: `workloads` must name at least one workload"
                )
            }
            SpecError::Scenario(e) => write!(f, "invalid campaign spec: {e}"),
            SpecError::DuplicateScenario(id) => {
                write!(f, "invalid campaign spec: duplicate scenario id `{id}`")
            }
            SpecError::MeshSweep(msg) => {
                write!(f, "invalid campaign spec: mesh sweep: {msg}")
            }
        }
    }
}

impl std::error::Error for SpecError {}

impl From<JsonError> for SpecError {
    fn from(e: JsonError) -> Self {
        SpecError::Json(e)
    }
}

/// Why a campaign could not be prepared.
#[derive(Debug)]
pub enum CampaignError {
    /// The spec failed validation.
    Spec(SpecError),
    /// A workload model failed to solve.
    Prepare(PrepareError),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Spec(e) => e.fmt(f),
            CampaignError::Prepare(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<SpecError> for CampaignError {
    fn from(e: SpecError) -> Self {
        CampaignError::Spec(e)
    }
}

impl From<PrepareError> for CampaignError {
    fn from(e: PrepareError) -> Self {
        CampaignError::Prepare(e)
    }
}

/// A declarative, serializable campaign description.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name (free-form; appears in reports).
    pub name: String,
    /// Workload selection.
    pub workloads: WorkloadSet,
    /// Simulation options every analysis runs under.
    pub options: SimOptions,
    /// Requested analyses, in output order.
    pub analyses: Vec<Analysis>,
}

impl CampaignSpec {
    /// An empty campaign with default workloads (paper sets) and default
    /// options (unlimited budget, sampling off, `o3`).
    pub fn new(name: impl Into<String>) -> CampaignSpec {
        CampaignSpec {
            name: name.into(),
            workloads: WorkloadSet::Paper,
            options: SimOptions::default(),
            analyses: Vec::new(),
        }
    }

    /// The full paper campaign: every analysis the retired `all_figures`
    /// binary printed, in the same order, on the paper workload sets.
    pub fn paper_campaign(options: SimOptions) -> CampaignSpec {
        CampaignSpec {
            name: "paper".into(),
            workloads: WorkloadSet::Paper,
            options,
            analyses: vec![
                Analysis::Table1,
                Analysis::Table2,
                Analysis::Topdown,
                Analysis::Stalls,
                Analysis::ExecTime,
                Analysis::Memory,
                Analysis::Hotspots,
                Analysis::Scaling,
                Analysis::Pipeline,
                Analysis::Frequency,
                Analysis::CacheSweep,
                Analysis::Width,
                Analysis::Lsq,
                Analysis::Branch,
            ],
        }
    }

    /// Builder: sets the workload selection.
    pub fn with_workloads(mut self, workloads: WorkloadSet) -> CampaignSpec {
        self.workloads = workloads;
        self
    }

    /// Builder: sets the simulation options.
    pub fn with_options(mut self, options: SimOptions) -> CampaignSpec {
        self.options = options;
        self
    }

    /// Builder: appends an analysis.
    pub fn with_analysis(mut self, analysis: Analysis) -> CampaignSpec {
        self.analyses.push(analysis);
        self
    }

    /// Checks the spec's internal consistency: at least one analysis,
    /// every explicit workload id must exist, inline scenarios must
    /// validate, and a mesh-sweep axis must be sane.
    ///
    /// # Errors
    ///
    /// The first violated constraint.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.analyses.is_empty() {
            return Err(SpecError::NoAnalyses);
        }
        self.workloads.validate()
    }

    /// Parses and validates a JSON campaign spec. Absent keys keep
    /// [`CampaignSpec::new`]'s values (named `campaign`, paper sets,
    /// default options, no analyses — which validation then refuses).
    ///
    /// # Errors
    ///
    /// A [`SpecError`] for malformed JSON, wrong field shapes
    /// (including zero-interval sampling), unknown analyses, or unknown
    /// workload ids.
    pub fn parse(text: &str) -> Result<CampaignSpec, SpecError> {
        let spec = schema::read(&CampaignSpec::new("campaign"), &Json::parse(text)?, "")?;
        spec.validate()?;
        Ok(spec)
    }

    /// Serializes the spec as a pretty-printed JSON document that
    /// [`CampaignSpec::parse`] accepts back unchanged.
    pub fn to_json(&self) -> String {
        ToJson::to_json(self).pretty()
    }

    /// Validates the spec and solves every workload model it needs
    /// (each distinct set once, shared across analyses).
    ///
    /// # Errors
    ///
    /// [`CampaignError::Spec`] when the spec is invalid,
    /// [`CampaignError::Prepare`] when a workload model fails to solve.
    pub fn prepare(&self) -> Result<Campaign, CampaignError> {
        Campaign::prepare(self.clone())
    }
}

// A campaign document: keys, order, and the sections a terse spec may
// leave out.
record!(CampaignSpec {
    name: Any,
    workloads: Any,
    options: record,
    analyses: Any,
});

/// The outcome of one analysis in a campaign.
#[derive(Debug, Clone)]
pub struct AnalysisOutcome {
    /// Which analysis ran.
    pub analysis: Analysis,
    /// Its report, or the failure that stopped it. A failed analysis
    /// never aborts the rest of the campaign.
    pub result: Result<Report, SimFailure>,
}

/// Everything a campaign produced: one outcome per requested analysis,
/// in spec order.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The campaign's name (from the spec).
    pub name: String,
    /// Per-analysis outcomes.
    pub outcomes: Vec<AnalysisOutcome>,
    /// Telemetry roll-up: per-analysis wall time and cache traffic,
    /// present only when a telemetry sink is configured (so runs without
    /// one — including the golden-pinned tests — render byte-identically
    /// to the pre-telemetry format).
    pub rollup: Option<Report>,
}

impl CampaignReport {
    /// Plain-text rendering: each report in order followed by a blank
    /// line — byte-identical to what the retired per-figure binaries
    /// printed in sequence. Failed analyses render as a
    /// `FIGURE FAILED:` marker line, exactly as before.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for o in &self.outcomes {
            match &o.result {
                Ok(report) => out.push_str(&report.to_text()),
                Err(e) => out.push_str(&format!("FIGURE FAILED: {e}")),
            }
            out.push('\n');
        }
        if let Some(rollup) = &self.rollup {
            out.push_str(&rollup.to_text());
            out.push('\n');
        }
        out
    }

    /// JSON rendering: every report's structured rows plus failure
    /// records.
    pub fn to_json(&self) -> String {
        ToJson::to_json(self).pretty()
    }

    /// CSV rendering of every successful report.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for (i, o) in self.outcomes.iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            match &o.result {
                Ok(report) => out.push_str(&report.to_csv()),
                Err(e) => out.push_str(&format!("# {}: FAILED: {e}\n", o.analysis.id())),
            }
        }
        if let Some(rollup) = &self.rollup {
            if !self.outcomes.is_empty() {
                out.push('\n');
            }
            out.push_str(&rollup.to_csv());
        }
        out
    }

    /// The failure records, if any analysis had a wedged point.
    pub fn failures(&self) -> Vec<&SimFailure> {
        self.outcomes
            .iter()
            .filter_map(|o| o.result.as_ref().err())
            .collect()
    }
}

impl ToJson for CampaignReport {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("campaign", Json::Str(self.name.clone())),
            (
                "reports",
                Json::Arr(
                    self.outcomes
                        .iter()
                        .map(|o| match &o.result {
                            Ok(report) => ToJson::to_json(report),
                            Err(e) => Json::obj(vec![
                                ("report", Json::Str(o.analysis.id().to_string())),
                                ("error", e.to_json()),
                            ]),
                        })
                        .collect(),
                ),
            ),
        ];
        // Emitted only when present, so telemetry-off documents keep the
        // historical schema exactly.
        if let Some(rollup) = &self.rollup {
            pairs.push(("rollup", ToJson::to_json(rollup)));
        }
        Json::obj(pairs)
    }
}

/// A validated campaign with its workload models solved, ready to run.
#[derive(Debug)]
pub struct Campaign {
    spec: CampaignSpec,
    /// Prepared experiments per resolved workload-set key.
    experiments: HashMap<String, Vec<Experiment>>,
}

impl Campaign {
    /// Validates `spec` and solves each distinct workload set it needs.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Spec`] when the spec is invalid,
    /// [`CampaignError::Prepare`] when a model fails to solve.
    pub fn prepare(spec: CampaignSpec) -> Result<Campaign, CampaignError> {
        spec.validate()?;
        // Resolve the distinct workload sets first, then push every
        // scenario across every set through one worker-pool batch, so a
        // campaign's prepare wall is bounded by its slowest solve rather
        // than the sum of all of them.
        let mut keys: Vec<String> = Vec::new();
        let mut sets: Vec<Vec<ScenarioSpec>> = Vec::new();
        for &analysis in &spec.analyses {
            if !analysis.needs_experiments() {
                continue;
            }
            let specs = spec.workloads.specs_for(analysis);
            let key = set_key(&specs);
            if !keys.contains(&key) {
                keys.push(key);
                sets.push(specs);
            }
        }
        let flat: Vec<&ScenarioSpec> = sets.iter().flatten().collect();
        let mut prepared = crate::experiment::prepare_refs(&flat)?.into_iter();
        let experiments = keys
            .into_iter()
            .zip(&sets)
            .map(|(key, set)| (key, prepared.by_ref().take(set.len()).collect()))
            .collect();
        Ok(Campaign { spec, experiments })
    }

    /// The spec this campaign was prepared from.
    pub fn spec(&self) -> &CampaignSpec {
        &self.spec
    }

    /// Runs every requested analysis through `runner`, collecting
    /// per-analysis reports and failure records. Grid points shared
    /// between analyses hit the runner's content-addressed cache.
    ///
    /// With a telemetry sink configured, the run is wrapped in a
    /// `campaign` span, each analysis in an `analysis` span, and the
    /// returned report carries a [`CampaignReport::rollup`] section
    /// tabulating per-analysis wall time and cache traffic.
    pub fn run(&self, runner: &Runner) -> CampaignReport {
        let tele = belenos_telemetry::global();
        let campaign_span = tele.span(
            "campaign",
            &[
                ("campaign", self.spec.name.as_str().into()),
                ("analyses", self.spec.analyses.len().into()),
            ],
        );
        let opts = &self.spec.options;
        let mut rollup_rows: Vec<RollupRow> = Vec::new();
        let outcomes: Vec<AnalysisOutcome> = self
            .spec
            .analyses
            .iter()
            .map(|&analysis| {
                let _analysis_span = tele.span("analysis", &[("analysis", analysis.id().into())]);
                let before = runner.cache().stats();
                let t0 = std::time::Instant::now();
                let key = set_key(&self.spec.workloads.specs_for(analysis));
                let exps = self.experiments.get(&key).map_or(&[][..], Vec::as_slice);
                let result = analysis.report(runner, exps, opts);
                if tele.enabled() {
                    let after = runner.cache().stats();
                    rollup_rows.push(RollupRow {
                        analysis: analysis.id().to_string(),
                        wall_s: t0.elapsed().as_secs_f64(),
                        lookups: after.lookups().saturating_sub(before.lookups()),
                        hits: after.hits.saturating_sub(before.hits),
                        ok: result.is_ok(),
                    });
                }
                AnalysisOutcome { analysis, result }
            })
            .collect();
        let rollup = tele.enabled().then(|| rollup_report(&rollup_rows));
        drop(campaign_span);
        CampaignReport {
            name: self.spec.name.clone(),
            outcomes,
            rollup,
        }
    }
}

/// One analysis line of the telemetry roll-up.
struct RollupRow {
    analysis: String,
    wall_s: f64,
    lookups: u64,
    hits: u64,
    ok: bool,
}

/// Builds the roll-up [`Report`] appended to a telemetry-enabled
/// campaign: one row per analysis with wall time and the cache traffic it
/// generated, plus a totals row.
fn rollup_report(rows: &[RollupRow]) -> Report {
    let mut report = Report::new("telemetry_rollup");
    let section = report.section(
        "Telemetry roll-up: per-analysis wall time and runner-cache traffic",
        &["Analysis", "Wall (s)", "Lookups", "Hits", "Status"],
    );
    for r in rows {
        section.row(vec![
            crate::report::Cell::text(&r.analysis),
            crate::report::Cell::num(r.wall_s, 2),
            crate::report::Cell::num(r.lookups as f64, 0),
            crate::report::Cell::num(r.hits as f64, 0),
            crate::report::Cell::text(if r.ok { "ok" } else { "FAILED" }),
        ]);
    }
    section.row(vec![
        crate::report::Cell::text("total"),
        crate::report::Cell::num(rows.iter().map(|r| r.wall_s).sum(), 2),
        crate::report::Cell::num(rows.iter().map(|r| r.lookups).sum::<u64>() as f64, 0),
        crate::report::Cell::num(rows.iter().map(|r| r.hits).sum::<u64>() as f64, 0),
        crate::report::Cell::text(if rows.iter().all(|r| r.ok) {
            "ok"
        } else {
            "FAILED"
        }),
    ]);
    report
}

/// Keys a resolved workload set by id *and* content digest, so two
/// analyses resolving same-id scenarios with different parameters can
/// never share prepared experiments by accident.
fn set_key(specs: &[ScenarioSpec]) -> String {
    specs
        .iter()
        .map(|s| format!("{}:{:016x}", s.id, s.stable_digest()))
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;
    use belenos_uarch::{ModelKind, SamplingConfig};

    #[test]
    fn spec_json_roundtrip() {
        let spec = CampaignSpec::new("roundtrip")
            .with_workloads(WorkloadSet::Ids(vec!["pd".into(), "co".into()]))
            .with_options(
                SimOptions::new(40_000)
                    .with_sampling(SamplingConfig::smarts(8))
                    .with_model(ModelKind::Analytic),
            )
            .with_analysis(Analysis::Topdown)
            .with_analysis(Analysis::Frequency);
        let text = spec.to_json();
        let back = CampaignSpec::parse(&text).expect("roundtrip");
        assert_eq!(back, spec);
    }

    #[test]
    fn smoke_spec_normal_form_is_the_golden_bytes() {
        let spec = CampaignSpec::parse(include_str!("../../../examples/smoke.json")).unwrap();
        assert_eq!(
            spec.to_json(),
            include_str!("../../../tests/golden/specs/campaign_smoke.json")
        );
    }

    #[test]
    fn named_sets_roundtrip() {
        for set in [
            WorkloadSet::Paper,
            WorkloadSet::Vtune,
            WorkloadSet::Gem5,
            WorkloadSet::Catalog,
        ] {
            let spec = CampaignSpec::new("sets")
                .with_workloads(set.clone())
                .with_analysis(Analysis::Table1);
            let back = CampaignSpec::parse(&spec.to_json()).unwrap();
            assert_eq!(back.workloads, set);
        }
    }

    #[test]
    fn every_analysis_id_parses_back() {
        for (i, a) in Analysis::ALL.into_iter().enumerate() {
            assert_eq!(
                a as usize,
                i,
                "{}: table order is declaration order",
                a.id()
            );
            for name in a.row().names {
                assert_eq!(Analysis::parse(name), Some(a), "{name}");
            }
        }
        assert_eq!(Analysis::parse(" Fig08 "), Some(Analysis::Frequency));
        assert_eq!(Analysis::parse("nope"), None);
    }

    #[test]
    fn unknown_workload_id_is_rejected() {
        let err = CampaignSpec::parse(r#"{"workloads": ["pd", "zz"], "analyses": ["table1"]}"#)
            .unwrap_err();
        assert_eq!(err, SpecError::UnknownWorkload("zz".into()));
        assert!(err.to_string().contains("zz"));
    }

    #[test]
    fn zero_interval_sampling_is_rejected() {
        let err = CampaignSpec::parse(
            r#"{"workloads": ["pd"], "options": {"sampling": 0}, "analyses": ["topdown"]}"#,
        )
        .unwrap_err();
        match err {
            SpecError::Json(e) => assert!(e.to_string().contains("ambiguous"), "{e}"),
            other => panic!("expected a JSON shape error, got {other:?}"),
        }
    }

    #[test]
    fn empty_or_unknown_analyses_are_rejected() {
        assert_eq!(
            CampaignSpec::parse(r#"{"analyses": []}"#).unwrap_err(),
            SpecError::NoAnalyses
        );
        assert!(CampaignSpec::parse(r#"{"analyses": ["fig99"]}"#).is_err());
        assert!(CampaignSpec::parse(r#"{"workloads": [], "analyses": ["table1"]}"#).is_err());
        // `analyses` is the one required field.
        assert!(CampaignSpec::parse(r#"{"name": "x"}"#).is_err());
    }

    #[test]
    fn misspelled_fields_are_rejected_not_defaulted() {
        // A typo must fail validation loudly, never silently run with
        // defaults (an unlimited-budget campaign instead of a smoke run).
        for bad in [
            r#"{"option": {"max_ops": 2000}, "analyses": ["table1"]}"#,
            r#"{"options": {"max_op": 2000}, "analyses": ["table1"]}"#,
            r#"{"options": {"sampling": {"intervls": 8}}, "analyses": ["table1"]}"#,
        ] {
            let err = CampaignSpec::parse(bad).unwrap_err();
            assert!(err.to_string().contains("unknown field"), "{bad} -> {err}");
        }
    }

    #[test]
    fn terse_spec_defaults() {
        let spec = CampaignSpec::parse(r#"{"analyses": ["table1"]}"#).unwrap();
        assert_eq!(spec.name, "campaign");
        assert_eq!(spec.workloads, WorkloadSet::Paper);
        assert_eq!(spec.options, SimOptions::default());
    }

    #[test]
    fn paper_campaign_covers_the_old_all_figures_sequence() {
        let spec = CampaignSpec::paper_campaign(SimOptions::new(1_000_000));
        assert_eq!(spec.analyses.len(), 14);
        assert_eq!(spec.analyses[0], Analysis::Table1);
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn campaign_runs_tables_and_a_tiny_figure() {
        let spec = CampaignSpec::new("tiny")
            .with_workloads(WorkloadSet::Ids(vec!["pd".into()]))
            .with_options(SimOptions::new(20_000))
            .with_analysis(Analysis::Table1)
            .with_analysis(Analysis::Topdown);
        let campaign = spec.prepare().expect("pd solves");
        let report = campaign.run(&Runner::isolated(2));
        assert_eq!(report.outcomes.len(), 2);
        assert!(report.failures().is_empty());
        let text = report.to_text();
        assert!(text.contains("Table I"));
        assert!(text.contains("Fig. 2"));
        // Structured form parses and names both reports.
        let json = Json::parse(&report.to_json()).unwrap();
        let reports = json.get("reports").unwrap().as_arr().unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(
            reports[1].get("report").unwrap().as_str(),
            Some("fig02_topdown")
        );
    }

    #[test]
    fn invalid_spec_fails_prepare_with_a_named_error() {
        let spec = CampaignSpec::new("broken");
        let err = spec.prepare().unwrap_err();
        assert!(err.to_string().contains("analyses"), "{err}");
    }
}
