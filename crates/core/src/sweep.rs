//! The paper's gem5 sensitivity sweeps (Figs. 8-12): each isolates one
//! hardware parameter while holding the Table II baseline fixed.
//!
//! Every sweep builds a [`RunPlan`] over its (workload × config) grid and
//! submits it to the [`belenos_runner`] batch engine, so points run in
//! parallel (up to `BELENOS_JOBS` threads) and points shared between sweeps —
//! every sweep contains the Table II baseline — are simulated exactly
//! once per process thanks to the content-addressed result cache.
//!
//! Grids run under the [`SimOptions`] campaign settings: op budget,
//! budget placement, and core-model backend (the backend is folded into
//! every grid config, so sweeps re-point at the in-order or analytical
//! model wholesale). A point whose simulation panics (a wedged pipeline)
//! surfaces as a [`SimFailure`] instead of killing the process.

use crate::experiment::Experiment;
use crate::options::{SimFailure, SimOptions};
use belenos_runner::{JobSpec, RunPlan, Runner};
use belenos_uarch::config::BranchPredictorKind;
use belenos_uarch::{CoreConfig, SimStats};

/// One sweep sample: workload, swept value label, and the run statistics.
#[derive(Debug)]
pub struct SweepPoint {
    /// Workload id.
    pub workload: String,
    /// Human-readable swept value ("2GHz", "32kB", "LTAGE", ...).
    pub value: String,
    /// Statistics of the run.
    pub stats: SimStats,
}

/// Builds the (experiment × value) grid as a runner plan.
fn sweep_plan(
    experiments: &[Experiment],
    values: &[(String, CoreConfig)],
    opts: &SimOptions,
) -> RunPlan {
    let mut plan = RunPlan::new();
    for (w, _) in experiments.iter().enumerate() {
        for (label, cfg) in values {
            plan.push(
                JobSpec::new(w, label.clone(), opts.configure(cfg.clone()), opts.max_ops)
                    .with_sampling(opts.sampling.clone()),
            );
        }
    }
    plan
}

fn run_sweep(
    runner: &Runner,
    experiments: &[Experiment],
    values: &[(String, CoreConfig)],
    opts: &SimOptions,
) -> Result<Vec<SweepPoint>, SimFailure> {
    let plan = sweep_plan(experiments, values, opts);
    let _span = belenos_telemetry::global().span(
        "sweep",
        &[
            ("workloads", experiments.len().into()),
            ("values", values.len().into()),
            ("points", plan.len().into()),
        ],
    );
    runner
        .run(experiments, &plan)
        .into_iter()
        .map(|r| {
            if let Some(e) = &r.error {
                return Err(SimFailure {
                    workload: r.workload.clone(),
                    label: r.label.clone(),
                    message: e.clone(),
                });
            }
            Ok(SweepPoint {
                workload: r.workload,
                value: r.label,
                stats: r.stats,
            })
        })
        .collect()
}

/// Fig. 8: core frequency 1-4 GHz.
///
/// # Errors
///
/// The first failed (panicked) grid point.
pub fn frequency(
    runner: &Runner,
    experiments: &[Experiment],
    freqs: &[f64],
    opts: &SimOptions,
) -> Result<Vec<SweepPoint>, SimFailure> {
    let values: Vec<(String, CoreConfig)> = freqs
        .iter()
        .map(|&f| {
            (
                format!("{f}GHz"),
                CoreConfig::gem5_baseline().with_frequency(f),
            )
        })
        .collect();
    run_sweep(runner, experiments, &values, opts)
}

/// Fig. 9a-c: L1 (I+D) capacity sweep.
///
/// # Errors
///
/// The first failed (panicked) grid point.
pub fn l1_size(
    runner: &Runner,
    experiments: &[Experiment],
    sizes_kb: &[usize],
    opts: &SimOptions,
) -> Result<Vec<SweepPoint>, SimFailure> {
    let values: Vec<(String, CoreConfig)> = sizes_kb
        .iter()
        .map(|&kb| {
            (
                format!("{kb}kB"),
                CoreConfig::gem5_baseline().with_l1_size(kb * 1024),
            )
        })
        .collect();
    run_sweep(runner, experiments, &values, opts)
}

/// Fig. 9d-e: L2 capacity sweep.
///
/// # Errors
///
/// The first failed (panicked) grid point.
pub fn l2_size(
    runner: &Runner,
    experiments: &[Experiment],
    sizes_kb: &[usize],
    opts: &SimOptions,
) -> Result<Vec<SweepPoint>, SimFailure> {
    let values: Vec<(String, CoreConfig)> = sizes_kb
        .iter()
        .map(|&kb| {
            let label = if kb >= 1024 {
                format!("{}MB", kb / 1024)
            } else {
                format!("{kb}kB")
            };
            (label, CoreConfig::gem5_baseline().with_l2_size(kb * 1024))
        })
        .collect();
    run_sweep(runner, experiments, &values, opts)
}

/// Fig. 10: pipeline width sweep (baseline width 6).
///
/// # Errors
///
/// The first failed (panicked) grid point.
pub fn width(
    runner: &Runner,
    experiments: &[Experiment],
    widths: &[usize],
    opts: &SimOptions,
) -> Result<Vec<SweepPoint>, SimFailure> {
    let values: Vec<(String, CoreConfig)> = widths
        .iter()
        .map(|&w| {
            (
                format!("{w}"),
                CoreConfig::gem5_baseline().with_pipeline_width(w),
            )
        })
        .collect();
    run_sweep(runner, experiments, &values, opts)
}

/// Fig. 11: load/store-queue depth sweep (baseline 72/56).
///
/// # Errors
///
/// The first failed (panicked) grid point.
pub fn lsq(
    runner: &Runner,
    experiments: &[Experiment],
    depths: &[(usize, usize)],
    opts: &SimOptions,
) -> Result<Vec<SweepPoint>, SimFailure> {
    let values: Vec<(String, CoreConfig)> = depths
        .iter()
        .map(|&(l, s)| {
            (
                format!("{l}_{s}"),
                CoreConfig::gem5_baseline().with_lsq(l, s),
            )
        })
        .collect();
    run_sweep(runner, experiments, &values, opts)
}

/// Instruction-window ablation (paper §IV-C4 text): ROB/IQ sizes.
///
/// # Errors
///
/// The first failed (panicked) grid point.
pub fn rob_iq(
    runner: &Runner,
    experiments: &[Experiment],
    sizes: &[(usize, usize)],
    opts: &SimOptions,
) -> Result<Vec<SweepPoint>, SimFailure> {
    let values: Vec<(String, CoreConfig)> = sizes
        .iter()
        .map(|&(r, q)| {
            (
                format!("{r}_{q}"),
                CoreConfig::gem5_baseline().with_rob_iq(r, q),
            )
        })
        .collect();
    run_sweep(runner, experiments, &values, opts)
}

/// Fig. 12: branch predictor sweep (baseline TournamentBP).
///
/// # Errors
///
/// The first failed (panicked) grid point.
pub fn branch_predictors(
    runner: &Runner,
    experiments: &[Experiment],
    predictors: &[BranchPredictorKind],
    opts: &SimOptions,
) -> Result<Vec<SweepPoint>, SimFailure> {
    let values: Vec<(String, CoreConfig)> = predictors
        .iter()
        .map(|&p| {
            (
                p.label().to_string(),
                CoreConfig::gem5_baseline().with_predictor(p),
            )
        })
        .collect();
    run_sweep(runner, experiments, &values, opts)
}

/// Percent execution-time difference of each point against the point with
/// `baseline_label` for the same workload: `(time - base) / base * 100`.
pub fn percent_diff_vs(points: &[SweepPoint], baseline_label: &str) -> Vec<(String, String, f64)> {
    let mut out = Vec::new();
    for p in points {
        if p.value == baseline_label {
            continue;
        }
        let base = points
            .iter()
            .find(|q| q.workload == p.workload && q.value == baseline_label)
            .expect("baseline point present");
        let d = (p.stats.seconds() - base.stats.seconds()) / base.stats.seconds() * 100.0;
        out.push((p.workload.clone(), p.value.clone(), d));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use belenos_uarch::{ModelKind, SamplingConfig};
    use belenos_workloads::by_id;

    fn tiny_experiment() -> Experiment {
        Experiment::prepare(&by_id("pd").expect("pd")).unwrap()
    }

    fn opts(max_ops: usize) -> SimOptions {
        SimOptions::new(max_ops)
    }

    fn runner() -> Runner {
        Runner::isolated(2)
    }

    #[test]
    fn frequency_sweep_monotone_seconds() {
        let exps = vec![tiny_experiment()];
        let pts = frequency(&runner(), &exps, &[1.0, 4.0], &opts(20_000)).expect("sweep");
        assert_eq!(pts.len(), 2);
        assert!(pts[0].stats.seconds() > pts[1].stats.seconds());
    }

    #[test]
    fn percent_diff_math() {
        let exps = vec![tiny_experiment()];
        let pts = width(&runner(), &exps, &[2, 6], &opts(20_000)).expect("sweep");
        let diffs = percent_diff_vs(&pts, "6");
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].1, "2");
        assert!(diffs[0].2 > -50.0);
    }

    #[test]
    fn parallel_sweep_bit_identical_to_serial() {
        let exps = vec![tiny_experiment()];
        let values: Vec<(String, CoreConfig)> = [1.0, 2.0, 4.0]
            .iter()
            .map(|&f| {
                (
                    format!("{f}GHz"),
                    CoreConfig::gem5_baseline().with_frequency(f),
                )
            })
            .collect();
        let plan = sweep_plan(&exps, &values, &opts(20_000));
        let serial = Runner::isolated(1).run(&exps, &plan);
        let parallel = Runner::isolated(4).run(&exps, &plan);
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.label, p.label);
            assert_eq!(
                s.stats, p.stats,
                "point {} diverged across thread counts",
                s.label
            );
        }
    }

    #[test]
    fn sweeps_share_baseline_points_via_the_cache() {
        let exps = vec![tiny_experiment()];
        let runner = Runner::isolated(2);
        // Fig. 8-style frequency sweep: contains the 3 GHz baseline...
        let freq: Vec<(String, CoreConfig)> = [1.0, 3.0]
            .iter()
            .map(|&f| {
                (
                    format!("{f}GHz"),
                    CoreConfig::gem5_baseline().with_frequency(f),
                )
            })
            .collect();
        runner.run(&exps, &sweep_plan(&exps, &freq, &opts(20_000)));
        // ...so the Fig. 11 LSQ sweep's 72_56 baseline point is a hit.
        let lsq: Vec<(String, CoreConfig)> =
            vec![("72_56".into(), CoreConfig::gem5_baseline().with_lsq(72, 56))];
        let (_, summary) = runner.run_with_summary(&exps, &sweep_plan(&exps, &lsq, &opts(20_000)));
        assert_eq!(
            summary.cache_hits, 1,
            "baseline must be shared across sweeps"
        );
        assert_eq!(summary.simulated, 0);
    }

    #[test]
    fn backend_selection_separates_sweep_points() {
        let exps = vec![tiny_experiment()];
        let runner = Runner::isolated(2);
        let values: Vec<(String, CoreConfig)> = vec![("3GHz".into(), CoreConfig::gem5_baseline())];
        let o3_opts = opts(20_000);
        let an_opts = opts(20_000).with_model(ModelKind::Analytic);
        runner.run(&exps, &sweep_plan(&exps, &values, &o3_opts));
        // The same grid under a different backend must NOT hit the cache.
        let (results, summary) =
            runner.run_with_summary(&exps, &sweep_plan(&exps, &values, &an_opts));
        assert_eq!(summary.cache_hits, 0, "backends must never alias");
        assert_eq!(summary.simulated, 1);
        assert!(results[0].error.is_none());
    }

    #[test]
    fn predictor_sweep_labels() {
        let exps = vec![tiny_experiment()];
        let pts = branch_predictors(
            &runner(),
            &exps,
            &[BranchPredictorKind::Tournament, BranchPredictorKind::Local],
            &opts(10_000),
        )
        .expect("sweep");
        assert_eq!(pts[0].value, "TournamentBP");
        assert_eq!(pts[1].value, "LocalBP");
    }

    #[test]
    fn sampled_sweep_options_flow_through() {
        let exps = vec![tiny_experiment()];
        let sampled = opts(20_000).with_sampling(SamplingConfig::smarts(8));
        let pts = frequency(&runner(), &exps, &[3.0], &sampled).expect("sweep");
        assert_eq!(pts.len(), 1);
        assert!(pts[0].stats.committed_ops > 0);
    }
}
