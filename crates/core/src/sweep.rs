//! The one grid runner: every simulating figure, sensitivity sweep and
//! scenario run is an [`Axis`] of machine configurations crossed with a
//! list of experiments, executed by [`run`] and read back from a
//! [`Grid`] by **(experiment index, point index)**. Nothing else outside
//! tests builds a [`RunPlan`] (CI greps for it).
//!
//! The paper's sensitivity studies (Figs. 8-12) are the axis
//! constructors below, each varying one parameter of the Table II
//! baseline; a single-config batch (the host-like profile, the baseline
//! characterization) is a one-point axis; a new study — a noise-injection
//! axis perturbing one resource at a time, say — is one more constructor.
//!
//! [`run`] submits the whole grid to the [`belenos_runner`] batch engine
//! in one call, so points run in parallel on the thread budget and points
//! shared between grids (every sensitivity axis contains the Table II
//! baseline) are simulated once per result cache. Every point runs under
//! the campaign's [`SimOptions`]: op budget, budget placement, and
//! core-model backend (folded into every config, so a grid re-points at
//! the in-order or analytical model wholesale). A point whose simulation
//! panics (a wedged pipeline) comes back as that point's [`SimFailure`]
//! instead of killing the process.

use crate::experiment::Experiment;
use crate::options::{SimFailure, SimOptions};
use belenos_runner::{JobSpec, RunPlan, Runner};
use belenos_uarch::config::BranchPredictorKind;
use belenos_uarch::{CoreConfig, SimStats};

/// An ordered list of labelled machine configurations: the values one
/// grid sweeps every workload over. Labels name the jobs (`2GHz`,
/// `72_56`, `host`) in progress lines, telemetry and failures.
#[derive(Debug)]
pub struct Axis(Vec<(String, CoreConfig)>);

impl Axis {
    /// One point per value, in order.
    pub fn over<T>(values: &[T], point: impl Fn(&T) -> (String, CoreConfig)) -> Axis {
        Axis(values.iter().map(point).collect())
    }

    /// A one-point axis: every workload once under `config`.
    pub fn single(label: &str, config: CoreConfig) -> Axis {
        Axis(vec![(label.to_string(), config)])
    }

    /// The point labels, in order.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.0.iter().map(|(label, _)| label.as_str())
    }
}

fn baseline() -> CoreConfig {
    CoreConfig::gem5_baseline()
}

/// Fig. 8: core frequency in GHz (baseline 3).
pub fn frequency(freqs: &[f64]) -> Axis {
    Axis::over(freqs, |&f| {
        (format!("{f}GHz"), baseline().with_frequency(f))
    })
}

/// Fig. 9a-c: L1 (I+D) capacity in kB (baseline 32).
pub fn l1_size(sizes_kb: &[usize]) -> Axis {
    Axis::over(sizes_kb, |&kb| {
        (format!("{kb}kB"), baseline().with_l1_size(kb * 1024))
    })
}

/// Fig. 9d-e: L2 capacity in kB (baseline 1024).
pub fn l2_size(sizes_kb: &[usize]) -> Axis {
    Axis::over(sizes_kb, |&kb| {
        let label = if kb >= 1024 {
            format!("{}MB", kb / 1024)
        } else {
            format!("{kb}kB")
        };
        (label, baseline().with_l2_size(kb * 1024))
    })
}

/// Fig. 10: pipeline width (baseline 6).
pub fn width(widths: &[usize]) -> Axis {
    Axis::over(widths, |&w| {
        (format!("{w}"), baseline().with_pipeline_width(w))
    })
}

/// Fig. 11: load/store-queue depths (baseline 72/56).
pub fn lsq(depths: &[(usize, usize)]) -> Axis {
    Axis::over(depths, |&(l, s)| {
        (format!("{l}_{s}"), baseline().with_lsq(l, s))
    })
}

/// Instruction-window ablation (paper §IV-C4 text): ROB/IQ sizes
/// (baseline 224/128).
pub fn rob_iq(sizes: &[(usize, usize)]) -> Axis {
    Axis::over(sizes, |&(r, q)| {
        (format!("{r}_{q}"), baseline().with_rob_iq(r, q))
    })
}

/// Fig. 12: branch predictors (baseline TournamentBP).
pub fn branch_predictors(predictors: &[BranchPredictorKind]) -> Axis {
    Axis::over(predictors, |&p| {
        (p.label().to_string(), baseline().with_predictor(p))
    })
}

/// What one [`run`] produced: every point's outcome, addressed
/// `rows()[w][p]` for experiment `w` (its index in the slice that ran) at
/// axis point `p`.
#[derive(Debug)]
pub struct Grid(Vec<Vec<Result<SimStats, SimFailure>>>);

impl Grid {
    /// One row per experiment, one outcome per axis point in axis order.
    pub fn rows(&self) -> &[Vec<Result<SimStats, SimFailure>>] {
        &self.0
    }

    /// Every point's statistics, addressed `[w][p]` as above.
    ///
    /// # Errors
    ///
    /// The first failed (panicked) point, in plan order.
    pub fn complete(self) -> Result<Vec<Vec<SimStats>>, SimFailure> {
        let stats = |row: Vec<_>| row.into_iter().collect();
        self.0.into_iter().map(stats).collect()
    }
}

/// Simulates every experiment at every point of `axis` under `opts`, in
/// one [`Runner::run`] call inside one `sweep` telemetry span.
pub fn run(runner: &Runner, experiments: &[Experiment], axis: &Axis, opts: &SimOptions) -> Grid {
    let mut plan = RunPlan::new();
    for w in 0..experiments.len() {
        for (label, cfg) in &axis.0 {
            plan.push(
                JobSpec::new(w, label.clone(), opts.configure(cfg.clone()), opts.max_ops)
                    .with_sampling(opts.sampling.clone()),
            );
        }
    }
    let _span = belenos_telemetry::global().span(
        "sweep",
        &[
            ("workloads", experiments.len().into()),
            ("values", axis.0.len().into()),
            ("points", plan.len().into()),
        ],
    );
    let mut outcomes = runner
        .run(experiments, &plan)
        .into_iter()
        .map(|r| match r.error {
            Some(message) => Err(SimFailure {
                workload: r.workload,
                label: r.label,
                message,
            }),
            None => Ok(r.stats),
        });
    let row = |_| outcomes.by_ref().take(axis.0.len()).collect();
    Grid(experiments.iter().map(row).collect())
}

/// Percent execution-time difference of `point` against `base`:
/// `(time - base) / base * 100`, positive = slower than the base.
pub fn percent_slower(point: &SimStats, base: &SimStats) -> f64 {
    (point.seconds() - base.seconds()) / base.seconds() * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use belenos_uarch::{ModelKind, SamplingConfig};
    use belenos_workloads::by_id;

    fn tiny_experiment() -> Vec<Experiment> {
        vec![Experiment::prepare(&by_id("pd").expect("pd")).unwrap()]
    }

    fn opts(max_ops: usize) -> SimOptions {
        SimOptions::new(max_ops)
    }

    fn runner() -> Runner {
        Runner::isolated(2)
    }

    #[test]
    fn frequency_sweep_monotone_seconds() {
        let grid = run(
            &runner(),
            &tiny_experiment(),
            &frequency(&[1.0, 4.0]),
            &opts(20_000),
        )
        .complete()
        .expect("sweep");
        let row = &grid[0];
        assert_eq!(row.len(), 2);
        assert!(row[0].seconds() > row[1].seconds());
    }

    #[test]
    fn percent_diff_math() {
        let grid = run(
            &runner(),
            &tiny_experiment(),
            &width(&[2, 6]),
            &opts(20_000),
        )
        .complete()
        .expect("sweep");
        let [narrow, base] = &grid[0][..] else {
            panic!("two points per workload");
        };
        assert_eq!(percent_slower(base, base), 0.0);
        let d = percent_slower(narrow, base);
        assert!((d - (narrow.seconds() / base.seconds() - 1.0) * 100.0).abs() < 1e-9);
        assert!(d > -50.0);
    }

    #[test]
    fn parallel_sweep_bit_identical_to_serial() {
        let exps = tiny_experiment();
        let axis = frequency(&[1.0, 2.0, 4.0]);
        let on = |threads| {
            run(&Runner::isolated(threads), &exps, &axis, &opts(20_000))
                .complete()
                .expect("sweep")
        };
        let (serial, parallel) = (on(1), on(4));
        for ((s, p), label) in serial[0].iter().zip(&parallel[0]).zip(axis.labels()) {
            assert_eq!(s, p, "point {label} diverged across thread counts");
        }
    }

    #[test]
    fn sweeps_share_baseline_points_via_the_cache() {
        let exps = tiny_experiment();
        let runner = runner();
        // Fig. 8-style frequency sweep: contains the 3 GHz baseline...
        run(&runner, &exps, &frequency(&[1.0, 3.0]), &opts(20_000));
        let before = runner.cache().stats();
        // ...so the Fig. 11 LSQ sweep's 72_56 baseline point is a hit.
        run(&runner, &exps, &lsq(&[(72, 56)]), &opts(20_000));
        let after = runner.cache().stats();
        assert_eq!(
            (after.lookups() - before.lookups(), after.hits - before.hits),
            (1, 1),
            "baseline must be shared across sweeps"
        );
    }

    #[test]
    fn backend_selection_separates_sweep_points() {
        let exps = tiny_experiment();
        let runner = runner();
        let axis = Axis::single("3GHz", baseline());
        run(&runner, &exps, &axis, &opts(20_000));
        // The same grid under a different backend must NOT hit the cache.
        let an_opts = opts(20_000).with_model(ModelKind::Analytic);
        let grid = run(&runner, &exps, &axis, &an_opts);
        assert_eq!(runner.cache().stats().hits, 0, "backends must never alias");
        assert!(grid.rows()[0][0].is_ok());
    }

    #[test]
    fn every_point_the_figures_publish_is_a_machine_that_validates() {
        // The axes of Figs. 8-12 and the two single-config batches, at
        // the values `figures.rs` sweeps, under every backend: the job
        // board refuses a configuration that does not validate.
        let axes = [
            frequency(&[1.0, 2.0, 3.0, 4.0]),
            l1_size(&[8, 16, 32, 64]),
            l2_size(&[256, 512, 1024, 2048]),
            width(&[2, 4, 6, 8]),
            lsq(&[(32, 24), (48, 40), (72, 56), (96, 72)]),
            rob_iq(&[(224, 128), (448, 256)]),
            branch_predictors(&BranchPredictorKind::ALL),
            Axis::single("host", CoreConfig::host_like()),
            Axis::single("baseline", baseline()),
        ];
        for (label, config) in axes.iter().flat_map(|axis| &axis.0) {
            for model in ModelKind::ALL {
                let configured = opts(0).with_model(model).configure(config.clone());
                configured
                    .validate()
                    .unwrap_or_else(|e| panic!("{label} on {}: {e}", model.label()));
            }
        }
    }

    #[test]
    fn predictor_sweep_labels() {
        let kinds = [BranchPredictorKind::Tournament, BranchPredictorKind::Local];
        let predictors = branch_predictors(&kinds);
        let labels: Vec<&str> = predictors.labels().collect();
        assert_eq!(labels, ["TournamentBP", "LocalBP"]);
        let l2 = l2_size(&[512, 2048]);
        assert_eq!(l2.labels().collect::<Vec<_>>(), ["512kB", "2MB"]);
    }

    #[test]
    fn sampled_sweep_options_flow_through() {
        let sampled = opts(20_000).with_sampling(SamplingConfig::smarts(8));
        let grid = run(&runner(), &tiny_experiment(), &frequency(&[3.0]), &sampled)
            .complete()
            .expect("sweep");
        assert_eq!(grid[0].len(), 1);
        assert!(grid[0][0].committed_ops > 0);
    }
}
