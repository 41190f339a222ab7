//! `param_ident` — the iterative material-parameter identification the
//! paper's introduction motivates: every candidate is a full FE solve
//! (build, Newton, LDLᵀ/CG, phase log) followed by one fast `analytic`
//! characterisation. The mirror image of `sweep_o3`: fem + sparse do the
//! work and the core models almost none.
//!
//! Candidates are prepared with no trace store: a candidate's parameters
//! are new by construction, so an entry would never be read back, and on
//! this stack writing one costs as much as the solve it would cache (the
//! store is `store_cycle`'s subject).

use super::{Checks, Ctx, Reference, Workload};
use crate::clock::Rng;
use belenos::experiment::Experiment;
use belenos_uarch::{CoreConfig, ModelKind};
use belenos_workloads::{Family, ScenarioSpec};

pub const WHY: &str =
    "material-parameter identification: three candidate FE solves (contact, biphasic, \
plastidamage) + one analytic characterisation each; fem+sparse do >=80% of the pass, uarch <5%";

/// Budget of the per-candidate characterisation.
const CHARACTERISE_OPS: usize = 60_000;

/// Relative half-width of the seed-derived parameter perturbation: small
/// enough that Newton and CG iteration counts, and so the work, do not
/// depend on the seed.
const JITTER: f64 = 0.002;

pub struct ParamIdent {
    /// Scenario documents the set-up segment parses: golden first.
    documents: Vec<String>,
    scenarios: Vec<ScenarioSpec>,
    state: Option<State>,
    report: Reference,
}

struct State {
    golden: Experiment,
    candidates: Vec<ScenarioSpec>,
}

fn scenario(id: &str, family: Family, mesh: (usize, usize, usize)) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(id, family);
    (spec.mesh.nx, spec.mesh.ny, spec.mesh.nz) = mesh;
    spec
}

impl ParamIdent {
    pub fn new(mut rng: Rng) -> ParamIdent {
        let mut jitter = |v: f64| v * (1.0 + JITTER * rng.signed_unit());
        let true_penalty = jitter(5e4);
        let contact = |id: &str| {
            let family = Family::Contact {
                start: 1.05,
                speed: -0.08,
                penalty: true_penalty,
            };
            scenario(id, family, (5, 5, 6))
        };
        let k = jitter(5e-3);
        let biphasic = Family::Biphasic {
            permeability: [k, k, k],
            load: -12.0,
        };
        let plastic = Family::PlastiDamage {
            yield_stress: jitter(18.0),
        };
        let scenarios = vec![
            // The "observed" experiment, then the candidate at the true
            // parameter, which must reproduce its trace fingerprint.
            contact("observed"),
            contact("cand-contact"),
            scenario("cand-biphasic", biphasic, (4, 4, 5)),
            scenario("cand-plastic", plastic, (5, 5, 5)),
        ];
        ParamIdent {
            documents: scenarios.iter().map(ScenarioSpec::to_json).collect(),
            scenarios,
            state: None,
            report: Reference::default(),
        }
    }
}

impl Workload for ParamIdent {
    fn name(&self) -> &'static str {
        "param_ident"
    }

    fn setup(&mut self, ctx: &Ctx<'_>, checks: &mut Checks) {
        let t = ctx.tracer;
        let parsed: Result<Vec<ScenarioSpec>, _> =
            t.span(ctx.parent, "workloads.spec_parse", |_| {
                self.documents
                    .iter()
                    .map(|doc| ScenarioSpec::parse(doc))
                    .collect()
            });
        let mut specs = match parsed {
            Ok(specs) => specs,
            Err(e) => {
                checks.check(false, || format!("scenario document: {e}"));
                return;
            }
        };
        let observed = specs.remove(0);
        let golden = t.span(ctx.parent, "core.prepare_cold", |_| {
            Experiment::prepare_with_store(&observed, None)
        });
        match golden {
            Ok(golden) => {
                checks.check(golden.solve.converged, || "observed: not converged".into());
                self.state = Some(State {
                    golden,
                    candidates: specs,
                });
            }
            Err(e) => checks.check(false, || e.to_string()),
        }
    }

    fn pass(&mut self, ctx: &Ctx<'_>, checks: &mut Checks) {
        let Some(state) = &self.state else {
            checks.check(false, || "pass without an observed experiment".into());
            return;
        };
        let t = ctx.tracer;
        let cfg = CoreConfig::gem5_baseline().with_model(ModelKind::Analytic);
        let mut report = String::new();
        for (i, spec) in state.candidates.iter().enumerate() {
            let exp = t.span(ctx.parent, "core.prepare_cold", |_| {
                Experiment::prepare_with_store(spec, None)
            });
            let exp = match exp {
                Ok(exp) => exp,
                Err(e) => {
                    checks.check(false, || e.to_string());
                    continue;
                }
            };
            checks.check(exp.solve.converged, || {
                format!("{}: not converged", spec.id)
            });
            let stats = t.span(ctx.parent, "core.simulate", |_| {
                exp.simulate(&cfg, CHARACTERISE_OPS)
            });
            if i == 0 {
                checks.check(
                    exp.trace_fingerprint() == state.golden.trace_fingerprint(),
                    || "candidate at the true parameter misses the observed fingerprint".into(),
                );
            }
            report.push_str(&format!(
                "{} dofs={} newton={} fingerprint={:016x} ops={} cycles={} ipc={:.6}\n",
                spec.id,
                exp.solve.n_dofs,
                exp.solve.iterations,
                exp.trace_fingerprint(),
                stats.committed_ops,
                stats.cycles,
                stats.ipc(),
            ));
        }
        self.report
            .check(report, checks, "candidate table vs repetition 0");
    }

    fn teardown(&mut self) {
        self.state = None;
    }

    fn fe_scenarios(&self) -> Vec<ScenarioSpec> {
        self.scenarios.clone()
    }
}
