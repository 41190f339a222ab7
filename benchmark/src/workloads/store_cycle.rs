//! `store_cycle` — re-running known work. The set-up segment is the first
//! run (cold prepare + simulate: every `.stats` entry and trace artifact
//! is **written**); the pass re-runs the same campaign four ways, all fed
//! from disk: from the trace store alone, fully warm, through the job
//! board, and finally garbage-collects. FE and the core models do little;
//! `runner::cache`, `trace::store`, `core::trace_store`, `dist::board` and
//! `json` do the work, writes in `setup_s` and reads in `pass_s`, so a
//! codec that trades one for the other shows.

use super::{quoted, Checks, Ctx, Workload};
use crate::clock::Rng;
use belenos::campaign::{Campaign, CampaignSpec};
use belenos_dist::{Coordinator, DistConfig};
use belenos_runner::{gc, Cache, Runner};
use belenos_workloads::ScenarioSpec;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

pub const WHY: &str = "re-running known work on inorder: first run writes .stats + trace artifacts \
(setup_s); pass = store-fed rerun, 3 warm reruns, job-board rerun, gc. Cache/store/board/json dominate";

const MAX_OPS: usize = 60_000;

/// Per-kernel op cap of the three scenarios: bounds each stored trace to
/// a few MB so that one repetition (which writes every artifact once and
/// decodes it twice) stays under half a second.
pub const MAX_KERNEL_OPS: usize = 3_000;

/// Fully warm reruns per pass.
const WARM_RERUNS: usize = 3;

pub struct StoreCycle {
    spec_text: String,
    scenarios: Vec<ScenarioSpec>,
    dist: DistConfig,
    /// Rendering of the first run, which every rerun must reproduce.
    first: Option<String>,
}

impl StoreCycle {
    /// Installs `<scratch>/traces` as the process-wide trace store: the
    /// store directory is chosen once per process (as `--trace-dir`
    /// does); its contents are wiped per repetition.
    pub fn new(mut rng: Rng, scratch: &Path) -> StoreCycle {
        // The lease heartbeat thread can miss its stop signal when a job
        // ends before the thread first waits, and then sleeps one whole
        // interval; at the default 7.5 s that stalls a pass for seconds.
        // A 2 ms interval bounds the cost of that race (see README.md).
        let dist = DistConfig::new(scratch, "bench").with_heartbeat(Duration::from_millis(2));
        belenos::trace_store::install_dir(dist.traces_dir());
        let mut scenarios: Vec<ScenarioSpec> = ["pd", "co", "rj"]
            .iter()
            .map(|id| {
                let mut spec = belenos_workloads::by_id(id).expect("catalog preset");
                spec.id = format!("{id}-sc");
                spec.expand.max_kernel_ops = MAX_KERNEL_OPS;
                spec
            })
            .collect();
        let mut analyses = ["topdown", "memory", "frequency"];
        rng.shuffle(&mut scenarios);
        rng.shuffle(&mut analyses);
        let spec_text = format!(
            "{{\"name\": \"store_cycle\", \"workloads\": [{}], \"options\": \
             {{\"max_ops\": {MAX_OPS}, \"sampling\": \"off\", \"model\": \"inorder\"}}, \
             \"analyses\": [{}]}}",
            scenarios
                .iter()
                .map(ScenarioSpec::to_json)
                .collect::<Vec<_>>()
                .join(", "),
            quoted(&analyses)
        );
        StoreCycle {
            spec_text,
            scenarios,
            dist,
            first: None,
        }
    }

    fn cache_dir(&self) -> PathBuf {
        self.dist.cache_dir()
    }

    /// One run of the campaign against the on-disk tiers with a fresh
    /// runner and a freshly prepared campaign; returns the rendering and
    /// the number of simulations it needed.
    fn run_once(
        &self,
        ctx: &Ctx<'_>,
        parent: u64,
        distributed: bool,
    ) -> Result<(String, u64), String> {
        let t = ctx.tracer;
        let mut runner = Runner::new(1, Cache::with_disk(self.cache_dir()));
        let coordinator = distributed
            .then(|| Arc::new(Coordinator::new(self.dist.clone()).with_local_workers(1)));
        if let Some(c) = &coordinator {
            runner = runner.with_distributor(Arc::clone(c) as _);
        }
        let campaign = t.span(parent, "core.campaign_prepare", |_| {
            CampaignSpec::parse(&self.spec_text)
                .map_err(|e| e.to_string())
                .and_then(|s| Campaign::prepare(s).map_err(|e| e.to_string()))
        })?;
        let mut report = t.span(parent, "core.campaign_run", |_| campaign.run(&runner));
        report.rollup = None;
        if !report.failures().is_empty() {
            return Err(format!("{} analysis failure(s)", report.failures().len()));
        }
        let json = t.span(parent, "core.report_render", |_| report.to_json());
        // Every lookup that missed was simulated (here or on the board).
        Ok((json, runner.cache().stats().misses))
    }

    fn delete_stats(&self) -> std::io::Result<()> {
        for entry in std::fs::read_dir(self.cache_dir())? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "stats") {
                std::fs::remove_file(path)?;
            }
        }
        Ok(())
    }

    fn rerun(&self, ctx: &Ctx<'_>, checks: &mut Checks, name: &str, distributed: bool, warm: bool) {
        let open = ctx.tracer.begin(ctx.parent);
        let outcome = self.run_once(ctx, open.id, distributed);
        ctx.tracer.end(open, name, true);
        match (outcome, &self.first) {
            (Ok((json, simulated)), Some(first)) => {
                checks.same_bytes(&json, first, &format!("{name} vs first run"));
                if warm {
                    checks.check(simulated == 0, || {
                        format!("{name}: {simulated} simulation(s) on a warm rerun")
                    });
                } else {
                    checks.check(simulated > 0, || format!("{name}: nothing re-simulated"));
                }
            }
            (Err(e), _) => checks.check(false, || format!("{name}: {e}")),
            (Ok(_), None) => checks.check(false, || format!("{name}: no first run")),
        }
    }
}

impl Workload for StoreCycle {
    fn name(&self) -> &'static str {
        "store_cycle"
    }

    fn reset(&mut self, _rep: usize) {
        let _ = std::fs::remove_dir_all(&self.dist.dir);
        self.dist.ensure_layout().expect("create scratch layout");
        self.first = None;
    }

    fn setup(&mut self, ctx: &Ctx<'_>, checks: &mut Checks) {
        match self.run_once(ctx, ctx.parent, false) {
            Ok((json, simulated)) => {
                checks.check(simulated > 0, || "first run simulated nothing".into());
                self.first = Some(json);
            }
            Err(e) => checks.check(false, || format!("first run: {e}")),
        }
    }

    fn pass(&mut self, ctx: &Ctx<'_>, checks: &mut Checks) {
        let stats_gone = |me: &Self, checks: &mut Checks| {
            let r = me.delete_stats();
            checks.check(r.is_ok(), || format!("delete .stats: {r:?}"));
        };
        // (i) results gone, traces kept: prepare from the store, decode
        // the flat sections from disk, re-simulate.
        stats_gone(self, checks);
        self.rerun(ctx, checks, "pass.store_fed", false, false);
        // (ii) everything on disk: zero simulations.
        for _ in 0..WARM_RERUNS {
            self.rerun(ctx, checks, "pass.warm", false, true);
        }
        // (iii) results gone again, this time through the job board.
        stats_gone(self, checks);
        self.rerun(ctx, checks, "pass.distributed", true, false);
        // (iv) shrink both tiers to half their bytes.
        ctx.tracer.span(ctx.parent, "pass.gc", |_| {
            let dirs = [self.cache_dir(), self.dist.traces_dir()];
            let before: u64 = dirs
                .iter()
                .map(|d| gc::dir_usage(d).map_or(0, |u| u.bytes))
                .sum();
            let outcome = gc::gc_dirs(&dirs, before / 2);
            let after: u64 = dirs
                .iter()
                .map(|d| gc::dir_usage(d).map_or(0, |u| u.bytes))
                .sum();
            checks.check(outcome.is_ok() && before > 0 && after <= before / 2, || {
                format!("gc: {before} -> {after} bytes ({outcome:?})")
            });
        });
    }

    fn fe_scenarios(&self) -> Vec<ScenarioSpec> {
        self.scenarios.clone()
    }

    fn disk_cache(&self) -> bool {
        true
    }
}
