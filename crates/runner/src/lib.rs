//! # belenos-runner
//!
//! Parallel batch-execution engine for the Belenos sensitivity campaigns.
//!
//! The paper's evaluation is a large grid of (workload × hardware-config)
//! simulations: Figs. 8–12 alone sweep frequency, cache sizes, pipeline
//! width, LSQ depth and branch predictors over every workload, and many
//! of those grids share points (every sweep contains the Table II
//! baseline). This crate turns that grid into a scheduled batch job:
//!
//! 1. callers describe work as a [`RunPlan`] of [`JobSpec`]s — a workload
//!    index, a human label, a [`CoreConfig`] and a micro-op budget;
//! 2. [`Runner::run`] deduplicates jobs by content ([`CacheKey`]),
//!    consults the runner's content-addressed result [`Cache`]
//!    (optionally disk-backed, `--cache-dir`), and runs the
//!    remaining unique simulations on the calling thread plus whatever
//!    helper threads the runner's [`Budget`] has free ([`pool`]: one
//!    budget — `--jobs`, `BELENOS_JOBS`, default available parallelism
//!    — shared by simulation batches, prepare batches and FE assembly);
//! 3. progress and ETA stream to stderr, and a [`RunSummary`] reports the
//!    cache-hit and dedup counters plus queue-wait and p50/p95 job wall
//!    times.
//!
//! When the CLI's `--telemetry` selects a sink,
//! every batch additionally emits structured events through
//! `belenos-telemetry`: a `batch` span wrapping per-executed-job `job`
//! spans (parented across the worker-thread boundary), a
//! `simulated_mips` gauge per job, cache-hit/dedup/failure counters and a
//! `worker_utilization` gauge at batch end, and `progress` events
//! mirroring the stderr lines. Telemetry is purely observational —
//! results are bit-identical with it on, off, or unconfigured.
//!
//! Each simulation is deterministic and self-contained, so parallel
//! execution is **bit-identical** to serial execution — the engine only
//! changes wall-clock time, never results. Results always come back in
//! plan order.
//!
//! Anything simulatable can be batched by implementing [`Simulate`];
//! `belenos::Experiment` is the canonical implementation.
//!
//! ```
//! use belenos_runner::{JobSpec, RunPlan, Runner, Simulate};
//! use belenos_uarch::{CoreConfig, O3Core, SamplingConfig, SimStats};
//!
//! struct Synthetic;
//! impl Simulate for Synthetic {
//!     fn workload_id(&self) -> &str { "synthetic" }
//!     fn simulate(&self, cfg: &CoreConfig, max_ops: usize, _: &SamplingConfig) -> SimStats {
//!         use belenos_trace::{expand::Expander, KernelCall, PhaseLog};
//!         let mut log = PhaseLog::new();
//!         log.record(KernelCall::Dot { n: 64 });
//!         O3Core::new(cfg.clone()).run(Expander::new(&log).take(max_ops))
//!     }
//! }
//!
//! let mut plan = RunPlan::new();
//! for f in [1.0, 2.0, 3.0] {
//!     plan.push(JobSpec::new(
//!         0,
//!         format!("{f}GHz"),
//!         CoreConfig::gem5_baseline().with_frequency(f),
//!         10_000,
//!     ));
//! }
//! let results = Runner::isolated(2).run(&[Synthetic], &plan);
//! assert_eq!(results.len(), 3);
//! assert_eq!(results[0].label, "1GHz");
//! ```

pub mod cache;
pub mod entry;
pub mod gc;
pub mod pool;

pub use cache::{Cache, CacheKey, CacheStats};
pub use pool::{run_caught, Budget};

use belenos_telemetry::percentile;
use belenos_uarch::{CoreConfig, SamplingConfig, SimStats};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A batchable simulation source.
///
/// Implementations must be deterministic: calling [`Simulate::simulate`]
/// twice with equal arguments must return identical statistics, and two
/// instances with equal ([`workload_id`](Simulate::workload_id),
/// [`fingerprint`](Simulate::fingerprint)) must replay identically. The
/// runner relies on this for both result caching and parallel/serial
/// equivalence.
pub trait Simulate: Sync {
    /// Workload identifier (cache-key component, shown in progress).
    fn workload_id(&self) -> &str;

    /// Stable fingerprint of the trace content behind this workload.
    ///
    /// Distinguishes same-id workloads whose traces differ (e.g. the same
    /// model expanded with different code-footprint knobs in different
    /// workload sets). The default suits sources whose id is already
    /// unique.
    fn fingerprint(&self) -> u64 {
        0
    }

    /// Runs the simulation under `config` with at most `max_ops`
    /// detailed ops, placed per `sampling` (prefix truncation when off,
    /// SMARTS-style systematic intervals otherwise).
    fn simulate(&self, config: &CoreConfig, max_ops: usize, sampling: &SamplingConfig) -> SimStats;

    /// Self-contained JSON document from which another process can
    /// rebuild this workload (a scenario document for experiments).
    ///
    /// `Some(doc)` opts the workload into distributed execution: a
    /// [`DistExecutor`]-equipped runner may publish its jobs to a shared
    /// job board instead of simulating them locally. The default `None`
    /// keeps every job local — right for closures and synthetic
    /// workloads that only exist in this process.
    fn scenario_json(&self) -> Option<String> {
        None
    }
}

/// One job handed to a [`DistExecutor`]: everything a worker in another
/// process needs to reproduce the simulation, plus where the result goes.
#[derive(Debug)]
pub struct DistJob<'a> {
    /// Index into the submitting [`RunPlan`].
    pub index: usize,
    /// Content identity of the simulation (digest names the board entry).
    pub key: &'a CacheKey,
    /// The planned job: label, machine configuration, budget, sampling.
    pub spec: &'a JobSpec,
    /// Self-contained scenario document ([`Simulate::scenario_json`]).
    pub scenario: String,
}

/// A cooperative execution backend for the cache-miss subset of a plan.
///
/// [`Runner::with_distributor`] installs one; `run_with_summary` then
/// routes every to-simulate job whose workload is reconstructible
/// ([`Simulate::scenario_json`]` != None`) through it instead of the
/// local batch. Implementations must return one row per submitted
/// job, each carrying the plan index it answers, the outcome, and the
/// job's execution wall time; results must be bit-identical to local
/// execution (the belenos-dist job board satisfies this by running the
/// same deterministic simulations behind a shared content-addressed
/// cache).
pub trait DistExecutor: Send + Sync {
    /// Executes `jobs` cooperatively, blocking until all are resolved.
    fn execute_dist(
        &self,
        jobs: &[DistJob<'_>],
    ) -> Vec<(usize, Result<SimStats, String>, Duration)>;
}

/// One simulation job: which workload, under which machine, how long.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Index into the workload slice given to [`Runner::run`].
    pub workload: usize,
    /// Human-readable label for the swept value ("2GHz", "32kB", ...).
    pub label: String,
    /// Machine configuration to simulate under.
    pub config: CoreConfig,
    /// Micro-op budget (0 = unlimited).
    pub max_ops: usize,
    /// How the op budget is placed over the trace (off = prefix
    /// truncation; part of the cache identity).
    pub sampling: SamplingConfig,
}

impl JobSpec {
    /// Builds a job spec (sampling off: prefix truncation).
    pub fn new(
        workload: usize,
        label: impl Into<String>,
        config: CoreConfig,
        max_ops: usize,
    ) -> Self {
        JobSpec {
            workload,
            label: label.into(),
            config,
            max_ops,
            sampling: SamplingConfig::off(),
        }
    }

    /// Sets the trace-sampling strategy for this job.
    pub fn with_sampling(mut self, sampling: SamplingConfig) -> Self {
        self.sampling = sampling;
        self
    }
}

/// An ordered batch of jobs to submit to the [`Runner`].
#[derive(Debug, Clone, Default)]
pub struct RunPlan {
    jobs: Vec<JobSpec>,
}

impl RunPlan {
    /// An empty plan.
    pub fn new() -> Self {
        RunPlan::default()
    }

    /// Appends a job.
    pub fn push(&mut self, job: JobSpec) {
        self.jobs.push(job);
    }

    /// Convenience: appends a job built in place.
    pub fn job(
        &mut self,
        workload: usize,
        label: impl Into<String>,
        config: CoreConfig,
        max_ops: usize,
    ) -> &mut Self {
        self.push(JobSpec::new(workload, label, config, max_ops));
        self
    }

    /// Number of jobs in the plan.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when the plan holds no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The planned jobs, in submission order.
    pub fn jobs(&self) -> &[JobSpec] {
        &self.jobs
    }
}

/// Result of one job, in the same order the plan submitted it.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Workload identifier.
    pub workload: String,
    /// The job's label.
    pub label: String,
    /// Simulation statistics (zeroed defaults when `error` is set).
    pub stats: SimStats,
    /// True when the result was served from the cache (pre-existing
    /// entry) or shared with an identical job in the same plan.
    pub cached: bool,
    /// Panic message when this job's simulation crashed (e.g. a wedged
    /// pipeline hitting the simulator's stall limit). A failed job never
    /// enters the cache and never takes down the rest of the batch.
    pub error: Option<String>,
}

/// Counters and timing for one [`Runner::run`] call.
#[derive(Debug, Clone, Default)]
pub struct RunSummary {
    /// Jobs submitted.
    pub jobs: usize,
    /// Simulations actually executed by this run.
    pub simulated: usize,
    /// Jobs answered by pre-existing cache entries.
    pub cache_hits: usize,
    /// Jobs that shared a simulation with an identical job in this plan.
    pub deduped: usize,
    /// Executed simulations that panicked (reported per job via
    /// [`JobResult::error`] instead of aborting the batch).
    pub failed: usize,
    /// Threads that worked the batch: the caller plus the helpers its
    /// budget had free at the time (1 when nothing had to simulate).
    pub threads: usize,
    /// Wall-clock time of the batch.
    pub wall: Duration,
    /// Summed time executed jobs spent waiting in the queue before a
    /// worker picked them up (0 for an all-cached batch).
    pub queue_wait: Duration,
    /// Median wall-clock time of the executed simulations.
    pub p50_wall: Duration,
    /// 95th-percentile wall-clock time of the executed simulations.
    pub p95_wall: Duration,
    /// Plan indices of executed simulations, in the order they were
    /// picked up (a budget of 1 makes this exactly the plan order).
    pub execution_order: Vec<usize>,
}

impl RunSummary {
    /// Fraction of submitted jobs answered by pre-existing cache entries
    /// (0.0 for an empty batch).
    pub fn hit_rate(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.jobs as f64
        }
    }
}

impl std::fmt::Display for RunSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "runner: {} job(s) -> {} simulated, {} cache hit(s), {} deduped \
             on {} thread(s) in {:.2}s",
            self.jobs,
            self.simulated,
            self.cache_hits,
            self.deduped,
            self.threads,
            self.wall.as_secs_f64()
        )?;
        if self.failed > 0 {
            write!(f, ", {} FAILED", self.failed)?;
        }
        // Appended (never inserted) so historical log scrapers keep
        // matching the prefix.
        write!(
            f,
            " (hit-rate {:.0}%, queue-wait {:.2}s, p50 {:.3}s, p95 {:.3}s)",
            self.hit_rate() * 100.0,
            self.queue_wait.as_secs_f64(),
            self.p50_wall.as_secs_f64(),
            self.p95_wall.as_secs_f64()
        )
    }
}

/// The batch-execution engine: a thread budget in front of a result cache.
///
/// Clones share the budget: batches run at the same time on clones of
/// one runner (a server's concurrent jobs) together keep within it.
#[derive(Clone)]
pub struct Runner {
    budget: Budget,
    cache: Cache,
    progress: bool,
    distributor: Option<std::sync::Arc<dyn DistExecutor>>,
}

impl std::fmt::Debug for Runner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runner")
            .field("budget", &self.budget)
            .field("cache", &self.cache)
            .field("progress", &self.progress)
            .field("distributed", &self.distributor.is_some())
            .finish()
    }
}

impl Runner {
    /// Engine with a budget of its own — at most `threads` simulations
    /// at once per top-level batch — and an explicit cache (no progress
    /// noise).
    pub fn new(threads: usize, cache: Cache) -> Self {
        Runner::with_budget(Budget::new(threads), cache)
    }

    /// Engine drawing on `budget`, shared with whoever else holds it.
    pub fn with_budget(budget: Budget, cache: Cache) -> Self {
        Runner {
            budget,
            cache,
            progress: false,
            distributor: None,
        }
    }

    /// Installs a distributed execution backend: to-simulate jobs whose
    /// workloads are reconstructible in another process
    /// ([`Simulate::scenario_json`]) route through `dist` instead of the
    /// local batch. Jobs already answered by the cache never reach
    /// the distributor, so a re-run of a finished campaign stays local
    /// and free.
    pub fn with_distributor(mut self, dist: std::sync::Arc<dyn DistExecutor>) -> Self {
        self.distributor = Some(dist);
        self
    }

    /// Engine with `threads` workers and a private fresh cache — runs are
    /// isolated from (and invisible to) the rest of the process.
    pub fn isolated(threads: usize) -> Self {
        Runner::new(threads, Cache::fresh())
    }

    /// Enables/disables progress + summary streaming to stderr.
    pub fn progress(mut self, on: bool) -> Self {
        self.progress = on;
        self
    }

    /// The cache this runner consults.
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// Executes the plan against `workloads`; results come back in plan
    /// order. See [`Runner::run_with_summary`] for the counters.
    ///
    /// # Panics
    ///
    /// Panics if a job's workload index is out of bounds.
    pub fn run<W: Simulate>(&self, workloads: &[W], plan: &RunPlan) -> Vec<JobResult> {
        self.run_with_summary(workloads, plan).0
    }

    /// Executes the plan and additionally returns the [`RunSummary`]
    /// (cache-hit counter, dedup counter, execution order, wall time).
    ///
    /// Each executed job gets a telemetry `job` span parented (across
    /// the thread boundary) under the `batch` span, so experiment-level
    /// `phase` spans opened inside `simulate` nest under the job. A job
    /// whose simulation panics (a wedged-pipeline stall-limit abort, for
    /// instance) is reported through [`JobResult::error`] without
    /// disturbing the other jobs or the thread that ran it.
    pub fn run_with_summary<W: Simulate>(
        &self,
        workloads: &[W],
        plan: &RunPlan,
    ) -> (Vec<JobResult>, RunSummary) {
        let start = Instant::now();
        let tele = belenos_telemetry::global();
        let batch = tele.span("batch", &[("jobs", plan.len().into())]);
        let keys: Vec<CacheKey> = plan
            .jobs()
            .iter()
            .map(|job| {
                let w = workloads.get(job.workload).unwrap_or_else(|| {
                    panic!(
                        "job '{}' references workload index {} but only {} workload(s) were given",
                        job.label,
                        job.workload,
                        workloads.len()
                    )
                });
                CacheKey::new(
                    w.workload_id(),
                    w.fingerprint(),
                    &job.config,
                    job.max_ops,
                    &job.sampling,
                )
            })
            .collect();

        // Deduplicate: the first job with a given key represents it.
        let mut representative: HashMap<&CacheKey, usize> = HashMap::new();
        for (i, key) in keys.iter().enumerate() {
            representative.entry(key).or_insert(i);
        }
        let deduped = keys.len() - representative.len();

        // Resolve pre-existing cache entries; the rest must simulate.
        let mut resolved: HashMap<&CacheKey, Result<SimStats, String>> = HashMap::new();
        let mut todo: Vec<usize> = Vec::new();
        let mut cache_hits = 0usize;
        for (&key, &idx) in &representative {
            match self.cache.lookup(key) {
                Some(stats) => {
                    cache_hits += 1;
                    resolved.insert(key, Ok(stats));
                }
                None => todo.push(idx),
            }
        }
        // Jobs are picked up in submission order (one thread == serial order).
        todo.sort_unstable();

        // Reconstructible jobs go through the distributor (when one is
        // installed) ...
        let mut dist_rows = Vec::new();
        if let Some(dist) = &self.distributor {
            let mut dist_jobs: Vec<DistJob<'_>> = Vec::new();
            let mut local: Vec<usize> = Vec::new();
            for &idx in &todo {
                let job = &plan.jobs()[idx];
                match workloads[job.workload].scenario_json() {
                    Some(scenario) => dist_jobs.push(DistJob {
                        index: idx,
                        key: &keys[idx],
                        spec: job,
                        scenario,
                    }),
                    None => local.push(idx),
                }
            }
            if !dist_jobs.is_empty() {
                dist_rows = dist.execute_dist(&dist_jobs);
            }
            todo = local;
        }

        // ... and everything else simulates here, on this thread and the
        // helpers the budget has free.
        let done = AtomicUsize::new(0);
        let named = |idx: usize| (keys[idx].workload.as_str(), plan.jobs()[idx].label.as_str());
        let (ran, threads) = pool::run_batch(
            &self.budget,
            batch.id(),
            &todo,
            |&idx| {
                let (workload, label) = named(idx);
                let max_ops = plan.jobs()[idx].max_ops;
                vec![
                    ("workload", workload.into()),
                    ("label", label.into()),
                    ("max_ops", max_ops.into()),
                ]
            },
            |&idx| {
                let job = &plan.jobs()[idx];
                workloads[job.workload].simulate(&job.config, job.max_ops, &job.sampling)
            },
            |&idx, ran| {
                let (workload, label) = named(idx);
                let secs = ran.exec.as_secs_f64();
                if let (Ok(stats), true) = (&ran.outcome, secs > 0.0) {
                    // Simulated MIPS: committed micro-ops per host wall
                    // second — the regression-gate metric.
                    let mips = stats.committed_ops as f64 / secs / 1e6;
                    let job = [("workload", workload.into()), ("label", label.into())];
                    tele.gauge("simulated_mips", mips, &job);
                }
                let finished = done.fetch_add(1, Ordering::SeqCst) + 1;
                if self.progress || tele.enabled() {
                    let elapsed = start.elapsed().as_secs_f64();
                    let eta = elapsed / finished as f64 * (todo.len() - finished) as f64;
                    let line = format!(
                        "runner: {finished}/{} simulated (+{cache_hits} cached) \
                         [{workload} {label}] {elapsed:.1}s elapsed, eta {eta:.1}s",
                        todo.len(),
                    );
                    tele.progress(&line);
                    if self.progress {
                        eprintln!("{line}");
                    }
                }
            },
        );

        // Every job this run executed, in pick-up order.
        let mut failed = 0usize;
        let mut queue_wait = Duration::ZERO;
        let mut exec_walls: Vec<Duration> = Vec::new();
        let mut execution_order: Vec<usize> = Vec::new();
        let mut executed = |idx: usize, outcome: Result<SimStats, String>, waited, exec| {
            queue_wait += waited;
            exec_walls.push(exec);
            execution_order.push(idx);
            match &outcome {
                Ok(stats) => self.cache.insert(keys[idx].clone(), stats),
                Err(_) => failed += 1,
            }
            resolved.insert(&keys[idx], outcome);
        };
        for (idx, outcome, exec) in dist_rows {
            // Queue wait is a local concept; board wait time is the
            // distributor's own telemetry's business.
            executed(idx, outcome, Duration::ZERO, exec);
        }
        for (&idx, ran) in todo.iter().zip(ran) {
            let (workload, label) = named(idx);
            let outcome = ran.outcome.map_err(|message| {
                format!("simulation of '{workload} {label}' panicked: {message}")
            });
            executed(idx, outcome, ran.queue_wait, ran.exec);
        }
        exec_walls.sort_unstable();
        let simulated_here: std::collections::HashSet<usize> =
            execution_order.iter().copied().collect();

        let results: Vec<JobResult> = plan
            .jobs()
            .iter()
            .enumerate()
            .map(|(i, job)| {
                let outcome = &resolved[&keys[i]];
                JobResult {
                    workload: keys[i].workload.clone(),
                    label: job.label.clone(),
                    stats: outcome.clone().unwrap_or_default(),
                    cached: !simulated_here.contains(&i),
                    error: outcome.as_ref().err().cloned(),
                }
            })
            .collect();

        let summary = RunSummary {
            jobs: plan.len(),
            simulated: execution_order.len(),
            cache_hits,
            deduped,
            failed,
            threads,
            wall: start.elapsed(),
            queue_wait,
            p50_wall: percentile(&exec_walls, 50),
            p95_wall: percentile(&exec_walls, 95),
            execution_order,
        };
        if tele.enabled() && summary.jobs > 0 {
            tele.counter("jobs_submitted", summary.jobs as u64, &[]);
            tele.counter("jobs_simulated", summary.simulated as u64, &[]);
            tele.counter("cache_hits", summary.cache_hits as u64, &[]);
            tele.counter("jobs_deduped", summary.deduped as u64, &[]);
            if summary.failed > 0 {
                tele.counter("jobs_failed", summary.failed as u64, &[]);
            }
            tele.gauge("cache_hit_rate", summary.hit_rate(), &[]);
            tele.gauge("queue_wait_s", summary.queue_wait.as_secs_f64(), &[]);
            // Fraction of the capacity of the threads that worked the
            // batch spent simulating (1.0 = all busy the whole batch).
            let capacity = summary.wall.as_secs_f64() * summary.threads as f64;
            if capacity > 0.0 {
                let busy: f64 = exec_walls.iter().map(Duration::as_secs_f64).sum();
                tele.gauge("worker_utilization", (busy / capacity).min(1.0), &[]);
            }
            tele.progress(&summary.to_string());
        }
        batch.close_with(&[("threads", threads.into())]);
        if self.progress && summary.jobs > 0 {
            eprintln!("{summary}");
        }
        (results, summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_builder_and_accessors() {
        let mut plan = RunPlan::new();
        assert!(plan.is_empty());
        plan.job(0, "a", CoreConfig::gem5_baseline(), 100).job(
            1,
            "b",
            CoreConfig::host_like(),
            100,
        );
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.jobs()[1].label, "b");
    }

    #[test]
    fn summary_display_mentions_counters() {
        let mut s = RunSummary {
            jobs: 10,
            simulated: 4,
            cache_hits: 5,
            deduped: 1,
            failed: 0,
            threads: 2,
            wall: Duration::from_millis(1500),
            queue_wait: Duration::from_millis(400),
            p50_wall: Duration::from_millis(120),
            p95_wall: Duration::from_millis(350),
            execution_order: vec![0, 1, 2, 3],
        };
        let text = s.to_string();
        assert!(text.contains("10 job(s)"));
        assert!(text.contains("5 cache hit(s)"));
        assert!(text.contains("1 deduped"));
        assert!(!text.contains("FAILED"));
        // New observability fields append after the legacy prefix.
        assert!(text.contains("hit-rate 50%"));
        assert!(text.contains("queue-wait 0.40s"));
        assert!(text.contains("p50 0.120s"));
        assert!(text.contains("p95 0.350s"));
        s.failed = 2;
        assert!(s.to_string().contains("2 FAILED"));
    }

    #[test]
    fn hit_rate_handles_empty_batches() {
        assert_eq!(RunSummary::default().hit_rate(), 0.0);
    }
}
