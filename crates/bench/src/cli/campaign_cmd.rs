//! `belenos campaign <run|example|validate>`.
//!
//! Campaign specs are data: `run` executes a JSON spec through the
//! cache-aware runner, `example` prints a template to start from, and
//! `validate` checks a spec without simulating anything.
//!
//! Inside `run`, explicit CLI flags override the spec's own `options` —
//! `--max-ops 2000` turns any campaign into a smoke run.

use super::{figures_cmd, worker_cmd, Invocation};
use belenos::campaign::CampaignSpec;
use belenos::{SimOptions, DEFAULT_MAX_OPS};
use belenos_dist::Coordinator;
use std::sync::Arc;

/// `belenos campaign run|example|validate ...`.
pub fn run(inv: &Invocation) -> Result<(), String> {
    match inv.positionals.get(1).map(String::as_str) {
        Some("run") => run_spec(inv),
        Some("example") => {
            print!("{}", example_spec().to_json());
            Ok(())
        }
        Some("validate") => {
            let spec = load_spec(inv)?;
            println!(
                "spec `{}` is valid: {} analysis/analyses on workload set `{}`",
                spec.name,
                spec.analyses.len(),
                spec.workloads.label()
            );
            Ok(())
        }
        _ => Err("usage: belenos campaign <run|example|validate> [spec.json]".into()),
    }
}

fn load_spec(inv: &Invocation) -> Result<CampaignSpec, String> {
    let Some(path) = inv.positionals.get(2) else {
        return Err("usage: belenos campaign run|validate <spec.json>".into());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("could not read {path}: {e}"))?;
    CampaignSpec::parse(&text).map_err(|e| e.to_string())
}

fn run_spec(inv: &Invocation) -> Result<(), String> {
    let mut spec = load_spec(inv)?;
    // CLI flags override the spec's own options.
    spec.options = inv.options_over(spec.options);
    if let Some(workloads) = &inv.workloads {
        spec.workloads = workloads.clone();
    }
    if inv.distributed {
        run_spec_distributed(inv, spec)?;
    } else {
        figures_cmd::emit_campaign(inv, spec)?;
    }
    Ok(())
}

/// `campaign run --distributed`: same campaign, but the cache-miss
/// jobs route through the shared job board, where in-process workers
/// and any number of external `belenos worker` processes claim them.
/// Results are bit-identical to a single-process run — the report only
/// gains a `distributed` roll-up section when telemetry is on.
fn run_spec_distributed(inv: &Invocation, spec: CampaignSpec) -> Result<(), String> {
    // The board, the results and the traces share one store root, so
    // this coordinator, its local workers, and every external worker
    // resolve the same cache keys to the same files — that is what
    // makes kill -9 + rerun a pure cache replay.
    let cfg = worker_cmd::dist_config(inv)?;
    let runner = inv.runner();
    let coordinator =
        Arc::new(Coordinator::new(cfg).with_local_workers(inv.local_workers.unwrap_or(1)));
    let runner = runner.with_distributor(Arc::clone(&coordinator) as _);
    let cache = runner.cache().clone();
    figures_cmd::emit_campaign_with(inv, spec, &runner, |report| {
        if let Some(rollup) = report.rollup.as_mut() {
            coordinator.append_rollup(rollup, &cache.stats());
        }
    })?;
    coordinator.print_summary();
    Ok(())
}

/// The template `campaign example` prints: the full paper campaign at
/// the historical default budget.
pub fn example_spec() -> CampaignSpec {
    CampaignSpec::paper_campaign(SimOptions::new(DEFAULT_MAX_OPS))
}
