//! `belenos figure <id|all>` and `belenos table <1|2>`.
//!
//! Single-figure invocations reproduce the retired per-figure binaries
//! byte-for-byte at the default options; `figure all` reproduces the
//! retired `all_figures` campaign (same analyses, same order, shared
//! runner cache).

use super::{write_side_outputs, Format, Invocation};
use belenos::campaign::{Analysis, CampaignSpec};
use belenos_runner::Runner;

/// Runs a prepared single-or-multi-analysis campaign and emits it in
/// the invocation's format(s).
pub(crate) fn emit_campaign(inv: &Invocation, spec: CampaignSpec) -> Result<(), String> {
    emit_campaign_with(inv, spec, &inv.runner(None), |_| {})
}

/// [`emit_campaign`] against an explicit runner (a distributed
/// campaign installs its coordinator on it), with a decoration hook
/// applied to the finished report before any rendering — the
/// distributed path folds its merged cross-worker summary into the
/// telemetry roll-up there, keeping telemetry-off reports byte-
/// identical to single-process runs.
pub(crate) fn emit_campaign_with(
    inv: &Invocation,
    spec: CampaignSpec,
    runner: &Runner,
    decorate: impl FnOnce(&mut belenos::campaign::CampaignReport),
) -> Result<(), String> {
    let campaign = spec.prepare().map_err(|e| e.to_string())?;
    let mut report = campaign.run(runner);
    decorate(&mut report);
    let report = report;
    match inv.format {
        Format::Text => print!("{}", report.to_text()),
        Format::Json => print!("{}", report.to_json()),
        Format::Csv => print!("{}", report.to_csv()),
    }
    if !report.failures().is_empty() {
        eprintln!(
            "belenos: {} analysis/analyses had a failed simulation point (see the \
             FIGURE FAILED markers)",
            report.failures().len()
        );
    }
    write_side_outputs(inv, || report.to_json(), || report.to_csv())?;
    Ok(())
}

/// The one-analysis campaign an invocation's workloads and options ask for.
fn single(inv: &Invocation, analysis: Analysis) -> CampaignSpec {
    CampaignSpec::new(analysis.id())
        .with_workloads(inv.workload_set())
        .with_options(inv.options())
        .with_analysis(analysis)
}

/// `belenos figure <id|all>`.
pub fn run_figure(inv: &Invocation) -> Result<(), String> {
    let Some(id) = inv.positionals.get(1) else {
        return Err("usage: belenos figure <id|all> (see `belenos list` for ids)".into());
    };
    if id == "all" {
        let spec = CampaignSpec::paper_campaign(inv.options()).with_workloads(inv.workload_set());
        return emit_campaign(inv, spec);
    }
    let analysis = Analysis::parse(id)
        .ok_or_else(|| format!("unknown figure `{id}` (see `belenos list` for ids)"))?;
    emit_campaign(inv, single(inv, analysis))
}

/// `belenos table <1|2>`.
pub fn run_table(inv: &Invocation) -> Result<(), String> {
    let analysis = match inv.positionals.get(1).map(String::as_str) {
        Some("1") => Analysis::Table1,
        Some("2") => Analysis::Table2,
        _ => return Err("usage: belenos table <1|2>".into()),
    };
    emit_campaign(inv, single(inv, analysis))
}
