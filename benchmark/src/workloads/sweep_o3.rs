//! `sweep_o3` — the paper's gem5 sensitivity study (Figs. 8–12): the five
//! sweeps over `co` and `tu` on the cycle-level out-of-order model.

use super::{quoted, Checks, Ctx, Reference, Workload};
use crate::clock::Rng;
use belenos::campaign::{Campaign, CampaignSpec};
use belenos_runner::Runner;
use belenos_workloads::ScenarioSpec;

pub const WHY: &str = "gem5 sensitivity study (Figs. 8-12) on co+tu, o3, 60k ops: uarch does >=80% of \
the pass, fem/sparse only in setup_s. On-CPU time is normalised to REF_NOMINAL_S=0.016, MEM_REF_NOMINAL_S=0.0125";

/// Micro-op budget per simulation; with ~40 unique grid points this puts
/// a pass at ~0.35 s on the reference box.
const MAX_OPS: usize = 60_000;

pub struct SweepO3 {
    spec_text: String,
    scenarios: Vec<ScenarioSpec>,
    state: Option<(Campaign, Runner)>,
    report: Reference,
}

impl SweepO3 {
    pub fn new(mut rng: Rng) -> SweepO3 {
        // The seed orders the workloads and the analyses; the set of unique
        // simulations, and so the work, is the same for every seed.
        let workloads = ["co", "tu"];
        let mut analyses = ["frequency", "cache", "width", "lsq", "branch"];
        rng.shuffle(&mut analyses);
        let spec_text = format!(
            "{{\n  \"name\": \"sweep_o3\",\n  \"workloads\": [{}],\n  \"options\": \
             {{\"max_ops\": {MAX_OPS}, \"sampling\": \"off\", \"model\": \"o3\"}},\n  \
             \"analyses\": [{}]\n}}\n",
            quoted(&workloads),
            quoted(&analyses)
        );
        let scenarios = workloads
            .iter()
            .map(|id| belenos_workloads::by_id(id).expect("gem5 preset"))
            .collect();
        SweepO3 {
            spec_text,
            scenarios,
            state: None,
            report: Reference::default(),
        }
    }

    pub fn spec_text(&self) -> &str {
        &self.spec_text
    }
}

impl Workload for SweepO3 {
    fn name(&self) -> &'static str {
        "sweep_o3"
    }

    fn setup(&mut self, ctx: &Ctx<'_>, checks: &mut Checks) {
        let t = ctx.tracer;
        let spec = t.span(ctx.parent, "core.campaign_parse", |_| {
            CampaignSpec::parse(&self.spec_text)
        });
        let campaign = t.span(ctx.parent, "core.campaign_prepare", |_| {
            spec.map_err(|e| e.to_string())
                .and_then(|s| Campaign::prepare(s).map_err(|e| e.to_string()))
        });
        let runner = t.span(ctx.parent, "runner.new", |_| Runner::isolated(1));
        checks.check(campaign.is_ok(), || {
            format!(
                "prepare: {}",
                campaign.as_ref().err().cloned().unwrap_or_default()
            )
        });
        self.state = campaign.ok().map(|c| (c, runner));
    }

    fn pass(&mut self, ctx: &Ctx<'_>, checks: &mut Checks) {
        let Some((campaign, runner)) = &self.state else {
            checks.check(false, || "pass without a prepared campaign".into());
            return;
        };
        let t = ctx.tracer;
        let mut report = t.span(ctx.parent, "core.campaign_run", |_| campaign.run(runner));
        // The roll-up section exists only while a telemetry sink is on and
        // carries wall times; the report proper must not depend on it.
        report.rollup = None;
        let json = t.span(ctx.parent, "core.report_render", |_| report.to_json());
        checks.check(report.failures().is_empty(), || {
            format!("{} analysis failure(s)", report.failures().len())
        });
        self.report.check(json, checks, "report vs repetition 0");
    }

    fn teardown(&mut self) {
        self.state = None;
    }

    fn fe_scenarios(&self) -> Vec<ScenarioSpec> {
        self.scenarios.clone()
    }
}
