//! End-to-end telemetry integration tests: a tiny campaign run against
//! an in-memory sink must emit parseable JSONL with the full
//! `campaign > analysis > batch > job > phase` span hierarchy, runner
//! cache counters, MIPS gauges, and a roll-up section on the report —
//! while a run without a sink stays byte-identical to the
//! pre-telemetry output (the golden tests in `tests/campaign.rs` pin
//! that; here we pin the rollup's absence).
//!
//! Events are captured with `belenos_telemetry::capture`, which scopes
//! a buffer sink to the calling thread (the runner hands it on to its
//! workers), so the tests run on parallel threads without seeing each
//! other's events, and a test that wants no sink simply captures nothing.

use belenos::campaign::{Analysis, CampaignSpec, WorkloadSet};
use belenos::options::SimOptions;
use belenos_json::Json;
use belenos_runner::Runner;
use belenos_telemetry::capture;

fn tiny_campaign() -> CampaignSpec {
    CampaignSpec::new("telemetry-smoke")
        .with_workloads(WorkloadSet::Ids(vec!["pd".into()]))
        .with_options(SimOptions::new(20_000))
        .with_analysis(Analysis::Table1)
        .with_analysis(Analysis::Topdown)
}

fn ev(e: &Json) -> &str {
    e.get("ev").and_then(Json::as_str).unwrap_or("")
}

fn name(e: &Json) -> &str {
    e.get("name").and_then(Json::as_str).unwrap_or("")
}

fn num(e: &Json, k: &str) -> u64 {
    e.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64
}

#[test]
fn campaign_run_emits_the_full_span_hierarchy() {
    let (report, events) = capture(|| {
        let campaign = tiny_campaign().prepare().expect("pd solves");
        campaign.run(&Runner::isolated(2))
    });
    assert!(report.failures().is_empty());
    assert!(!events.is_empty(), "an enabled sink must record events");

    // Every span_open's parent chain reaches a campaign root:
    // campaign > analysis > sweep > batch > job > phase.
    let opens: Vec<&Json> = events.iter().filter(|e| ev(e) == "span_open").collect();
    fn chain_to_root(opens: &[&Json], e: &Json) -> Vec<String> {
        let mut names = vec![name(e).to_string()];
        let mut parent = num(e, "parent");
        while parent != 0 {
            let p = opens
                .iter()
                .find(|o| num(o, "id") == parent)
                .expect("parent span was opened");
            names.push(name(p).to_string());
            parent = num(p, "parent");
        }
        names
    }
    // The first simulation job: a prepare job chains to its `prepare`
    // batch span instead.
    let job_open = opens
        .iter()
        .find(|e| name(e) == "job" && !chain_to_root(&opens, e).iter().any(|n| n == "prepare"))
        .expect("runner emits job spans");
    let chain = chain_to_root(&opens, job_open);
    assert_eq!(
        chain.last().map(String::as_str),
        Some("campaign"),
        "job span must chain to the campaign root, got {chain:?}"
    );
    assert!(
        chain.iter().any(|n| n == "analysis"),
        "job span must nest under an analysis span, got {chain:?}"
    );
    assert!(
        chain.iter().any(|n| n == "sweep"),
        "every batch is one grid run's, got {chain:?}"
    );
    assert!(
        chain.iter().any(|n| n == "batch"),
        "job span must nest under a batch span, got {chain:?}"
    );
    let phase_open = opens
        .iter()
        .find(|e| name(e) == "phase" && e.get("phase").and_then(Json::as_str) == Some("simulate"))
        .expect("experiment emits simulate phase spans");
    assert!(
        chain_to_root(&opens, phase_open).iter().any(|n| n == "job"),
        "simulate phases run inside worker job spans"
    );

    // One analysis span per requested analysis, matched by id.
    let analyses: Vec<&str> = opens
        .iter()
        .filter(|e| name(e) == "analysis")
        .map(|e| e.get("analysis").and_then(Json::as_str).unwrap_or(""))
        .collect();
    assert_eq!(analyses, ["table1", "topdown"]);

    // Every opened span closes, with a non-negative wall time.
    let closes: Vec<&Json> = events.iter().filter(|e| ev(e) == "span_close").collect();
    assert_eq!(opens.len(), closes.len(), "every span must close");
    for c in &closes {
        assert!(c.get("wall_s").and_then(Json::as_f64).unwrap_or(-1.0) >= 0.0);
    }

    // Runner counters and MIPS gauges are present.
    let counters: Vec<&str> = events
        .iter()
        .filter(|e| ev(e) == "counter")
        .map(name)
        .collect();
    for expected in ["jobs_submitted", "jobs_simulated", "cache_hits"] {
        assert!(counters.contains(&expected), "missing counter {expected}");
    }
    assert!(
        counters.contains(&"sim_cycles"),
        "per-stage cycle counters must be emitted"
    );
    assert!(
        events
            .iter()
            .any(|e| ev(e) == "gauge" && name(e) == "simulated_mips"),
        "runner emits a simulated_mips gauge per executed job"
    );
}

#[test]
fn rollup_appears_only_when_telemetry_is_enabled() {
    let (enabled_report, _) = capture(|| {
        let campaign = tiny_campaign().prepare().expect("pd solves");
        campaign.run(&Runner::isolated(1))
    });
    let rollup = enabled_report
        .rollup
        .as_ref()
        .expect("telemetry-enabled runs carry a roll-up");
    assert_eq!(rollup.id, "telemetry_rollup");
    let section = &rollup.sections[0];
    // One row per analysis plus the totals row.
    assert_eq!(section.rows.len(), 3);
    assert_eq!(section.rows[0][0].text, "table1");
    assert_eq!(section.rows[2][0].text, "total");
    // And the renderings carry it.
    assert!(enabled_report.to_text().contains("Telemetry roll-up"));
    assert!(enabled_report.to_json().contains("telemetry_rollup"));
    assert!(enabled_report.to_csv().contains("# Telemetry roll-up"));

    // Without a sink: no rollup, renderings identical to the historical
    // schema (the golden byte-for-byte pins live in tests/campaign.rs).
    let disabled_report = tiny_campaign()
        .prepare()
        .expect("pd solves")
        .run(&Runner::isolated(1));
    assert!(disabled_report.rollup.is_none());
    assert!(!disabled_report.to_text().contains("Telemetry roll-up"));
    assert!(!disabled_report.to_json().contains("rollup"));
}

#[test]
fn runner_progress_and_warn_events_reach_the_sink() {
    let ((), events) = capture(|| {
        let campaign = tiny_campaign().prepare().expect("pd solves");
        // progress(false) runner: stderr stays silent, but the sink
        // still receives structured progress events.
        campaign.run(&Runner::isolated(2).progress(false));
        belenos_telemetry::global().warn("synthetic warning");
    });
    assert!(
        events.iter().any(|e| ev(e) == "progress"
            && e.get("msg")
                .and_then(Json::as_str)
                .unwrap_or("")
                .starts_with("runner:")),
        "runner progress lines must mirror into the sink"
    );
    let warn = events
        .iter()
        .find(|e| ev(e) == "warn")
        .expect("warn event recorded");
    assert_eq!(
        warn.get("msg").and_then(Json::as_str),
        Some("synthetic warning")
    );
}

#[test]
fn summary_carries_the_new_observability_fields() {
    // Through the real experiment path (not synthetic summaries): an
    // executed batch reports positive percentile walls and a hit-rate.
    let spec = belenos_workloads::by_id("pd").expect("pd");
    let exp = belenos::experiment::Experiment::prepare(&spec).expect("solves");
    let mut plan = belenos_runner::RunPlan::new();
    plan.job(
        0,
        "3GHz",
        belenos_uarch::CoreConfig::gem5_baseline(),
        20_000,
    );
    let runner = Runner::isolated(1);
    let (_, first) = runner.run_with_summary(std::slice::from_ref(&exp), &plan);
    assert_eq!(first.simulated, 1);
    assert!(first.p50_wall > std::time::Duration::ZERO);
    assert_eq!(first.p50_wall, first.p95_wall, "single job: p50 == p95");
    assert_eq!(first.hit_rate(), 0.0);
    // Re-running the same plan is a pure cache hit: no executed jobs, so
    // percentiles are zero and the hit rate is 1.
    let (_, second) = runner.run_with_summary(std::slice::from_ref(&exp), &plan);
    assert_eq!(second.cache_hits, 1);
    assert_eq!(second.hit_rate(), 1.0);
    assert_eq!(second.p95_wall, std::time::Duration::ZERO);
    let text = second.to_string();
    assert!(text.contains("hit-rate 100%"), "{text}");
    assert!(text.contains("queue-wait"), "{text}");
}

#[test]
fn cold_prepare_span_closes_with_the_solve_split() {
    // A cold prepare's `phase` span says where the FE solve's time went
    // when it closes; a run without a sink records nothing at all.
    let spec = belenos_workloads::by_id("pd").expect("pd");
    let (exp, events) = capture(|| {
        belenos::experiment::Experiment::prepare_with_store(&spec, None).expect("solves")
    });
    let open = events
        .iter()
        .find(|e| {
            ev(e) == "span_open"
                && name(e) == "phase"
                && e.get("phase").and_then(Json::as_str) == Some("prepare")
        })
        .expect("prepare phase span");
    let close = events
        .iter()
        .find(|e| ev(e) == "span_close" && num(e, "id") == num(open, "id"))
        .expect("prepare phase span closes");
    let secs = |k: &str| close.get(k).and_then(Json::as_f64).expect(k);
    assert!(secs("assemble_s") > 0.0);
    assert!(secs("linear_solve_s") > 0.0);
    assert!(secs("assemble_s") + secs("linear_solve_s") <= secs("wall_s"));
    assert_eq!(num(close, "newton_iterations"), exp.solve.iterations as u64);
    assert_eq!(num(close, "n_dofs"), exp.solve.n_dofs as u64);
    // `pd` solves with LDLᵀ: at least one numeric factorization, at most
    // one per Newton iteration; an iteration assembles the stiffness only
    // for a linear solve, so at most once too.
    let factorizations = num(close, "factorizations");
    assert!(factorizations > 0);
    assert!(factorizations <= num(close, "newton_iterations"));
    let assemblies = num(close, "stiffness_assemblies");
    assert!(assemblies > 0);
    assert!(assemblies <= num(close, "newton_iterations"));
}
