//! Campaign-API integration tests: CampaignSpec JSON round-trips,
//! spec-validation errors, golden `Report::to_text()` output pinned
//! against pre-refactor figure strings, and an end-to-end campaign run
//! through the cache-aware runner.
//!
//! The golden constants below were captured from the pre-refactor
//! figure functions (commit 3d0f1dd: `Result<String, SimFailure>`
//! returns) -- `table1`/`table2` verbatim, and Fig. 2 / Fig. 7 for the
//! `pd` workload at a 30k op budget on the default `o3` backend. The
//! typed `Report` layer must reproduce them byte-for-byte.
//!
//! `tests/golden/pd_30k/` holds what the CLI built from 8cd79dc (the
//! commit before figures became rows over one grid) printed for
//! `belenos figure <id> --workloads pd --max-ops 30000`, one file per
//! analysis, and for `belenos scenario run pd --max-ops 30000 --format
//! json`. Figs. 5/6 print wall-clock and have no golden. `agreement.txt`
//! is `belenos figure agreement --workloads pd --max-ops 30000`; its cells
//! are the ones the retired `belenos agreement` subcommand printed for the
//! same flags.

use belenos::campaign::{Analysis, CampaignSpec, SpecError, WorkloadSet};
use belenos::experiment::Experiment;
use belenos::figures;
use belenos::options::SimOptions;
use belenos::report::Report;
use belenos_runner::Runner;
use belenos_workloads::by_id;

const GOLDEN_TABLE1: &str = r###"Table I: Dataset Models Breakdown

Category         Label  Paper lower (kB)  Paper upper (kB)  Ours (kB)
---------------------------------------------------------------------
Arterial Tissue  AR     8.0               637.0             9.0
Biphasic         BP     6.7               474.5             13.4
Contact          CO     5.4               314.0             9.0
Fluid            FL     1100.0            7400.0            15.0
Muscle           MU     4.3               4.5               5.7
Multiphasic      MP     14.0              137.4             7.5
Tetrahedral      TE     3.7               431.0             14.8
Rigid            RI     4700.0            4700.0            15.2
Prestrain        PS     6400.0            6400.0            35.4
PlastiDamage     PD     4.9               4.9               4.1
Multigeneration  MG     178.4             271.9             13.4
FSI              FS     21.5              761.6             12.0
Misc.            MI     1100.0            4100.0            35.4
Material         MA     4.0               680.2             7.5
Damage           DM     4.7               460.2             22.4
Tumor            TU     60.0              83.0              13.4
Rigid joint      RJ     5.0               76.0              4.1
VolumeConstrain  VC     271.1             734.5             22.4
BiphasicFSI      BI     1500.0            7500.0            18.8
Case Study       Eye    98600.0           98600.0           75.8
"###;

const GOLDEN_TABLE2: &str = r###"Table II: Baseline CPU and system configuration

Parameter                                     Value
---------------------------------------------------------------------------------
ISA                                           x86 (micro-op trace)
CPU model                                     O3 (out-of-order)
Core clock frequency                          3 GHz
Pipeline width (fetch/dispatch/issue/commit)  4 / 6 / 6 / 4
Rename width                                  6
Writeback / squash width                      8 / 6
Reorder Buffer (ROB) entries                  224
Issue Queue (IQ) entries                      128
Load Queue / Store Queue entries              72 / 56
Integer / FP physical registers               280 / 168
L1I / L1D cache                               32 kB, 8-way
L2 cache                                      1 MB, 16-way
MSHRs (L1I / L1D)                             32 / 32
Cache line size                               64 B
Memory type                                   DDR4-2400 (latency/bandwidth model)
Branch predictor                              TournamentBP
"###;

const GOLDEN_FIG02_PD_30K: &str = r###"Fig. 2: Top-down pipeline breakdown (host-like config)

Model  Retiring%  FrontEnd%  BadSpec%  BackEnd%
-----------------------------------------------
pd     19.1       0.6        6.9       73.4
"###;

const GOLDEN_FIG07_PD_30K: &str = r###"Fig. 7a: Fetch stage activity

Model  activeFetch%  icacheStall%  miscStall%  squash%  tlb%
------------------------------------------------------------
pd     94.1          0.0           1.7         4.3      0.0

Fig. 7b: Execute stage mix

Model  branches%  fp%   int%  loads%  stores%
---------------------------------------------
pd     15.8       31.1  0.0   36.4    16.7

Fig. 7c: Commit stage mix

Model  fp%   int%  loads%  stores%
----------------------------------
pd     30.4  0.0   36.2    17.0
"###;

const GOLDEN_PD_30K: [(Analysis, &str); 11] = [
    (Analysis::Stalls, include_str!("golden/pd_30k/stalls.txt")),
    (
        Analysis::Hotspots,
        include_str!("golden/pd_30k/hotspots.txt"),
    ),
    (Analysis::Memory, include_str!("golden/pd_30k/memory.txt")),
    (
        Analysis::Frequency,
        include_str!("golden/pd_30k/frequency.txt"),
    ),
    (
        Analysis::CacheSweep,
        include_str!("golden/pd_30k/cache.txt"),
    ),
    (Analysis::Width, include_str!("golden/pd_30k/width.txt")),
    (Analysis::Lsq, include_str!("golden/pd_30k/lsq.txt")),
    (Analysis::Branch, include_str!("golden/pd_30k/branch.txt")),
    (Analysis::RobIq, include_str!("golden/pd_30k/rob_iq.txt")),
    (
        Analysis::MeshScaling,
        include_str!("golden/pd_30k/mesh_scaling.txt"),
    ),
    (
        Analysis::Agreement,
        include_str!("golden/pd_30k/agreement.txt"),
    ),
];

const GOLDEN_SCENARIO_RUN_PD_30K: &str = include_str!("golden/pd_30k/scenario_run.json");

fn pd() -> Vec<Experiment> {
    vec![Experiment::prepare(&by_id("pd").expect("pd")).expect("solves")]
}

/// `analysis` over `exps` on a fresh runner.
fn report(analysis: Analysis, exps: &[Experiment], opts: &SimOptions) -> Report {
    let runner = Runner::isolated(2);
    analysis
        .report(&runner, exps, opts)
        .unwrap_or_else(|e| panic!("{}: {e}", analysis.id()))
}

#[test]
fn table_reports_match_the_pre_refactor_strings_byte_for_byte() {
    let opts = SimOptions::new(30_000);
    assert_eq!(
        report(Analysis::Table1, &[], &opts).to_text(),
        GOLDEN_TABLE1
    );
    assert_eq!(
        report(Analysis::Table2, &[], &opts).to_text(),
        GOLDEN_TABLE2
    );
}

#[test]
fn figure_reports_match_the_pre_refactor_strings_byte_for_byte() {
    let exps = pd();
    let runner = Runner::isolated(2);
    let opts = SimOptions::new(30_000);
    let f2 = report(Analysis::Topdown, &exps, &opts);
    assert_eq!(f2.to_text(), GOLDEN_FIG02_PD_30K);
    let f7 = report(Analysis::Pipeline, &exps, &opts);
    assert_eq!(f7.to_text(), GOLDEN_FIG07_PD_30K);

    // The rest, through the campaign the CLI builds for `--workloads pd`
    // (a campaign prints each report followed by a blank line).
    let mut spec = CampaignSpec::new("goldens")
        .with_workloads(WorkloadSet::Ids(vec!["pd".into()]))
        .with_options(opts.clone());
    spec.analyses = GOLDEN_PD_30K.iter().map(|&(a, _)| a).collect();
    let report = spec.prepare().expect("pd solves").run(&runner);
    for (outcome, (_, golden)) in report.outcomes.iter().zip(GOLDEN_PD_30K) {
        let text = outcome.result.as_ref().expect("figure").to_text();
        assert_eq!(format!("{text}\n"), golden, "{}", outcome.analysis.id());
    }

    let (scenario_run, failures) = figures::scenario_run(&runner, &exps, &opts);
    assert!(failures.is_empty());
    assert_eq!(scenario_run.to_json(), GOLDEN_SCENARIO_RUN_PD_30K);
}

#[test]
fn campaign_text_is_byte_identical_to_direct_figure_calls() {
    // A campaign over the same workloads/options must print exactly what
    // the individual figure functions (and thus the retired per-figure
    // binaries) printed, one report per block.
    let spec = CampaignSpec::new("pin")
        .with_workloads(WorkloadSet::Ids(vec!["pd".into()]))
        .with_options(SimOptions::new(30_000))
        .with_analysis(Analysis::Table1)
        .with_analysis(Analysis::Topdown)
        .with_analysis(Analysis::Pipeline);
    let campaign = spec.prepare().expect("pd solves");
    let text = campaign.run(&Runner::isolated(2)).to_text();
    let expected = format!("{GOLDEN_TABLE1}\n{GOLDEN_FIG02_PD_30K}\n{GOLDEN_FIG07_PD_30K}\n");
    assert_eq!(text, expected);
}

#[test]
fn spec_round_trips_through_json_text() {
    let spec = CampaignSpec::new("nightly")
        .with_workloads(WorkloadSet::Gem5)
        .with_options(SimOptions::new(250_000))
        .with_analysis(Analysis::Frequency)
        .with_analysis(Analysis::Branch);
    let text = spec.to_json();
    assert_eq!(CampaignSpec::parse(&text).expect("parses"), spec);
    // And the rendered form is a real JSON document.
    assert!(belenos_json::Json::parse(&text).is_ok());
}

#[test]
fn spec_validation_names_the_problem() {
    // Unknown workload id.
    let err = CampaignSpec::parse(r#"{"workloads": ["pd", "nope"], "analyses": ["topdown"]}"#)
        .unwrap_err();
    assert_eq!(err, SpecError::UnknownWorkload("nope".into()));
    // Zero-interval sampling is ambiguous and rejected at parse time.
    let err = CampaignSpec::parse(
        r#"{"workloads": ["pd"], "options": {"sampling": 0}, "analyses": ["topdown"]}"#,
    )
    .unwrap_err();
    assert!(err.to_string().contains("ambiguous"), "{err}");
    // A campaign with no analyses is meaningless.
    let err = CampaignSpec::parse(r#"{"workloads": ["pd"], "analyses": []}"#).unwrap_err();
    assert_eq!(err, SpecError::NoAnalyses);
}

#[test]
fn campaign_report_serializes_rows_as_data() {
    let spec = CampaignSpec::new("json-check")
        .with_workloads(WorkloadSet::Ids(vec!["pd".into()]))
        .with_options(SimOptions::new(20_000))
        .with_analysis(Analysis::Topdown);
    let report = spec.prepare().expect("solves").run(&Runner::isolated(2));
    let doc = belenos_json::Json::parse(&report.to_json()).expect("valid JSON");
    assert_eq!(doc.get("campaign").unwrap().as_str(), Some("json-check"));
    let reports = doc.get("reports").unwrap().as_arr().unwrap();
    assert_eq!(
        reports[0].get("report").unwrap().as_str(),
        Some("fig02_topdown")
    );
    let rows = reports[0].get("sections").unwrap().as_arr().unwrap()[0]
        .get("rows")
        .unwrap()
        .as_arr()
        .unwrap();
    // One row for pd: a label plus four numeric TMA percentages.
    let cells = rows[0].as_arr().unwrap();
    assert_eq!(cells[0].as_str(), Some("pd"));
    let total: f64 = cells[1..].iter().map(|c| c.as_f64().unwrap()).sum();
    assert!(
        (total - 100.0).abs() < 0.5,
        "TMA percents sum to ~100, got {total}"
    );
    // CSV rendering carries the same header row.
    assert!(report.to_csv().contains("Model,Retiring%"));
}

#[test]
fn campaign_shares_grid_points_through_the_runner_cache() {
    // Fig. 8 (frequency sweep) contains the 3 GHz Table II baseline;
    // Fig. 11 (LSQ sweep) contains the 72/56 baseline — the same
    // configuration. Running both in one campaign must hit the cache.
    let spec = CampaignSpec::new("cache-check")
        .with_workloads(WorkloadSet::Ids(vec!["pd".into()]))
        .with_options(SimOptions::new(20_000))
        .with_analysis(Analysis::Frequency)
        .with_analysis(Analysis::Lsq);
    let campaign = spec.prepare().expect("solves");
    let runner = Runner::isolated(2);
    let report = campaign.run(&runner);
    assert!(report.failures().is_empty());
    let stats = runner.cache().stats();
    assert!(
        stats.hits >= 1,
        "the shared baseline point must come from the cache (hits={})",
        stats.hits
    );
}

#[test]
fn agreement_compares_every_backend_whatever_the_campaign_model() {
    let exps = pd();
    let golden = GOLDEN_PD_30K
        .iter()
        .find(|&&(a, _)| a == Analysis::Agreement)
        .expect("pinned")
        .1;
    for kind in belenos_uarch::ModelKind::ALL {
        let opts = SimOptions::new(30_000).with_model(kind);
        let text = report(Analysis::Agreement, &exps, &opts).to_text();
        assert_eq!(format!("{text}\n"), golden, "--model {kind}");
    }
}
