//! Job lifecycle: admission control, in-flight dedup, execution.
//!
//! A *job* is one accepted submission — a whole campaign spec or a
//! scenario batch — executed on the server's persistent
//! [`WorkerPool`]. The manager enforces the admission contract at the
//! front door:
//!
//! * **op-budget ceiling** — a spec asking for more detailed ops per
//!   simulation than the server allows (or for an unlimited budget) is
//!   rejected with a structured error naming `options.max_ops`, before
//!   any model is solved;
//! * **bounded queue** — when the pool's queue is at capacity the
//!   submission is rejected as *busy* with a retry hint, never buffered
//!   without limit;
//! * **in-flight dedup** — a submission whose spec digest matches a
//!   queued or running job *joins* it: one simulation, N watchers, which
//!   is what makes the shared content-addressed cache a service-level
//!   feature rather than a per-process one.
//!
//! Completed jobs keep their report (and their event feed) available
//! for polling until evicted by the retention cap.

use crate::events::{JobFeeds, JOB_ROOT_SPAN};
use crate::stats::ServeStats;
use belenos::campaign::CampaignSpec;
use belenos::figures::{scenario_row, SCENARIO_COLUMNS};
use belenos::report::Report;
use belenos::Experiment;
use belenos::SimOptions;
use belenos_json::{Json, ToJson};
use belenos_runner::{run_caught, JobSpec, RunPlan, Runner, WorkerPool};
use belenos_uarch::{CoreConfig, Fnv64};
use belenos_workloads::ScenarioSpec;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Completed/failed records retained for polling before eviction.
const MAX_RETAINED_JOBS: usize = 512;

/// What a job executes.
#[derive(Debug, Clone)]
pub enum JobKind {
    /// A full campaign spec (the `POST /v1/campaigns` body).
    Campaign(CampaignSpec),
    /// A scenario batch (the `POST /v1/scenarios/run` body).
    Scenarios {
        /// The validated scenario definitions.
        specs: Vec<ScenarioSpec>,
        /// Options applied to every scenario run.
        options: SimOptions,
    },
}

impl JobKind {
    /// The options governing per-simulation cost (the admission knob).
    pub fn options(&self) -> &SimOptions {
        match self {
            JobKind::Campaign(spec) => &spec.options,
            JobKind::Scenarios { options, .. } => options,
        }
    }

    /// Short kind label for status documents and telemetry.
    pub fn label(&self) -> &'static str {
        match self {
            JobKind::Campaign(_) => "campaign",
            JobKind::Scenarios { .. } => "scenario_run",
        }
    }

    /// Human-readable name (campaign name, or the scenario id list).
    pub fn name(&self) -> String {
        match self {
            JobKind::Campaign(spec) => spec.name.clone(),
            JobKind::Scenarios { specs, .. } => specs
                .iter()
                .map(|s| s.id.as_str())
                .collect::<Vec<_>>()
                .join(","),
        }
    }

    /// Stable content digest: two submissions digest equal iff they
    /// request the same work. Built from the canonical JSON rendering
    /// (the same normal form the specs round-trip through), tagged by
    /// kind so a campaign can never collide with a scenario batch.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        match self {
            JobKind::Campaign(spec) => {
                h.write_str("campaign");
                h.write_str(&ToJson::to_json(spec).render());
            }
            JobKind::Scenarios { specs, options } => {
                h.write_str("scenarios");
                let doc = Json::obj(vec![
                    (
                        "scenarios",
                        Json::Arr(specs.iter().map(ToJson::to_json).collect()),
                    ),
                    ("options", options.to_json()),
                ]);
                h.write_str(&doc.render());
            }
        }
        h.finish()
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// Executing on a worker.
    Running,
    /// Finished with a report.
    Completed,
    /// Finished with an error.
    Failed,
}

impl JobState {
    /// The lower-case wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Failed => "failed",
        }
    }

    /// True once the job can no longer change.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Completed | JobState::Failed)
    }
}

struct JobRecord {
    digest: u64,
    kind: &'static str,
    name: String,
    state: JobState,
    /// Submissions that joined this job beyond the first.
    joined: u64,
    submitted: Instant,
    queue_wait_s: Option<f64>,
    wall_s: Option<f64>,
    error: Option<String>,
    /// The full report document (`CampaignReport`/`Report` JSON).
    report: Option<Json>,
}

#[derive(Default)]
struct ManagerInner {
    jobs: HashMap<u64, JobRecord>,
    /// Spec digest → job id, for queued/running jobs only.
    inflight: HashMap<u64, u64>,
    /// Submission order, for queue position and eviction.
    order: Vec<u64>,
    next_id: u64,
}

/// A point-in-time copy of one job's record, for the HTTP layer.
#[derive(Debug, Clone)]
pub struct JobSnapshot {
    /// The job id.
    pub id: u64,
    /// `campaign` or `scenario_run`.
    pub kind: &'static str,
    /// Campaign name or scenario id list.
    pub name: String,
    /// Lifecycle state.
    pub state: JobState,
    /// Submissions that joined this job beyond the first.
    pub joined: u64,
    /// Queued jobs ahead of this one (while queued).
    pub queue_position: Option<usize>,
    /// Seconds spent waiting for a worker (once running).
    pub queue_wait_s: Option<f64>,
    /// Execution wall time (once finished).
    pub wall_s: Option<f64>,
    /// Failure message (state `failed`).
    pub error: Option<String>,
    /// The report document (state `completed`).
    pub report: Option<Json>,
    /// The spec digest (dedup identity), for observability.
    pub digest: u64,
}

/// Accepted submission: which job, and whether it joined an existing one.
#[derive(Debug, Clone, Copy)]
pub struct Submission {
    /// The job id to poll.
    pub job: u64,
    /// True when this submission deduplicated onto an in-flight job.
    pub joined: bool,
    /// The job's state at submission time.
    pub state: JobState,
}

/// Why a submission was not accepted.
#[derive(Debug, Clone)]
pub enum Reject {
    /// The queue is full; retry after the hinted delay.
    Busy {
        /// Tasks waiting (== capacity).
        queued: usize,
        /// The queue capacity.
        capacity: usize,
        /// Suggested client back-off, seconds.
        retry_after_s: u64,
    },
    /// The spec violates an admission limit.
    Budget {
        /// Human-readable rejection naming the limit.
        message: String,
        /// The offending spec field.
        field: &'static str,
    },
}

/// Owns the worker pool and every job record.
pub struct JobManager {
    pool: WorkerPool,
    runner: Runner,
    feeds: Arc<JobFeeds>,
    stats: Arc<ServeStats>,
    inner: Arc<Mutex<ManagerInner>>,
    op_budget_ceiling: usize,
}

impl JobManager {
    /// A manager executing jobs on `workers` pool threads with a queue
    /// of `queue_depth`, simulating through `runner` (whose own thread
    /// count governs intra-job parallelism). The pool workers run under
    /// the calling thread's current telemetry handle.
    pub fn new(
        runner: Runner,
        feeds: Arc<JobFeeds>,
        stats: Arc<ServeStats>,
        workers: usize,
        queue_depth: usize,
        op_budget_ceiling: usize,
    ) -> JobManager {
        JobManager {
            pool: WorkerPool::new("serve-job", workers, queue_depth),
            runner,
            feeds,
            stats,
            inner: Arc::new(Mutex::new(ManagerInner::default())),
            op_budget_ceiling,
        }
    }

    /// Jobs waiting for a worker.
    pub fn queued(&self) -> usize {
        self.pool.queued()
    }

    /// Jobs executing right now.
    pub fn running(&self) -> usize {
        self.pool.running()
    }

    /// The pool's worker count.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Holds (`true`) or resumes (`false`) task pickup — the
    /// deterministic test seam for exercising dedup and queue-full
    /// paths over real sockets, and an operational drain valve.
    pub fn pause(&self, on: bool) {
        self.pool.pause(on);
    }

    /// Blocks until every accepted job has finished (graceful-shutdown
    /// drain; new submissions should be fenced off by the caller first).
    pub fn drain(&self) {
        self.pool.drain();
    }

    /// Admits a submission: budget check, in-flight dedup, bounded
    /// enqueue.
    ///
    /// # Errors
    ///
    /// [`Reject::Budget`] for an over-ceiling (or unlimited) op budget,
    /// [`Reject::Busy`] when the queue is at capacity.
    pub fn submit(&self, kind: JobKind) -> Result<Submission, Reject> {
        let tele = belenos_telemetry::global();
        if self.op_budget_ceiling > 0 {
            let max_ops = kind.options().max_ops;
            if max_ops == 0 || max_ops > self.op_budget_ceiling {
                self.stats.note_rejected_invalid();
                tele.counter("serve_jobs_rejected", 1, &[("reason", "budget".into())]);
                let asked = if max_ops == 0 {
                    "an unlimited op budget".to_string()
                } else {
                    format!("max_ops {max_ops}")
                };
                return Err(Reject::Budget {
                    message: format!(
                        "options.max_ops: {asked} exceeds this server's per-request \
                         ceiling of {} ops",
                        self.op_budget_ceiling
                    ),
                    field: "options.max_ops",
                });
            }
        }
        let digest = kind.digest();
        let mut inner = self.inner.lock().unwrap();
        if let Some(&job) = inner.inflight.get(&digest) {
            let record = inner.jobs.get_mut(&job).expect("inflight job has a record");
            record.joined += 1;
            let state = record.state;
            self.stats.note_joined();
            tele.counter("serve_jobs_joined", 1, &[("job", job.into())]);
            return Ok(Submission {
                job,
                joined: true,
                state,
            });
        }
        inner.next_id += 1;
        let job = inner.next_id;
        // Open the event feed before the job can possibly run, so no
        // event or subscriber can race its existence.
        self.feeds.open(job);
        inner.jobs.insert(
            job,
            JobRecord {
                digest,
                kind: kind.label(),
                name: kind.name(),
                state: JobState::Queued,
                joined: 0,
                submitted: Instant::now(),
                queue_wait_s: None,
                wall_s: None,
                error: None,
                report: None,
            },
        );
        inner.inflight.insert(digest, job);
        inner.order.push(job);
        evict_old_jobs(&mut inner, &self.feeds);
        drop(inner);

        let task = {
            let inner = self.inner.clone();
            let runner = self.runner.clone();
            let feeds = self.feeds.clone();
            let stats = self.stats.clone();
            move || execute_job(job, &kind, &inner, &runner, &feeds, &stats)
        };
        if let Err(full) = self.pool.try_submit(task) {
            // Roll the record back: the submission was never accepted.
            let mut inner = self.inner.lock().unwrap();
            inner.jobs.remove(&job);
            inner.inflight.remove(&digest);
            inner.order.retain(|&id| id != job);
            self.feeds.evict(job);
            self.stats.note_rejected_busy();
            tele.counter("serve_jobs_rejected", 1, &[("reason", "queue_full".into())]);
            return Err(Reject::Busy {
                queued: full.queued,
                capacity: full.capacity,
                retry_after_s: self.retry_after_s(full.queued),
            });
        }
        self.stats.note_submitted();
        tele.counter("serve_jobs_submitted", 1, &[("job", job.into())]);
        Ok(Submission {
            job,
            joined: false,
            state: JobState::Queued,
        })
    }

    /// A copy of one job's current record.
    pub fn snapshot(&self, job: u64) -> Option<JobSnapshot> {
        let inner = self.inner.lock().unwrap();
        let record = inner.jobs.get(&job)?;
        let queue_position = (record.state == JobState::Queued).then(|| {
            inner
                .order
                .iter()
                .take_while(|&&id| id != job)
                .filter(|id| {
                    inner
                        .jobs
                        .get(id)
                        .is_some_and(|r| r.state == JobState::Queued)
                })
                .count()
        });
        Some(JobSnapshot {
            id: job,
            kind: record.kind,
            name: record.name.clone(),
            state: record.state,
            joined: record.joined,
            queue_position,
            queue_wait_s: record.queue_wait_s,
            wall_s: record.wall_s,
            error: record.error.clone(),
            report: record.report.clone(),
            digest: record.digest,
        })
    }
}

/// Suggested client back-off when the queue is full: the median job
/// wall extrapolated over the queue, clamped to something a client
/// would actually honor.
impl JobManager {
    fn retry_after_s(&self, queued: usize) -> u64 {
        let p50 = self.stats.job_wall_p50_s().max(1.0);
        let workers = self.pool.workers().max(1);
        let estimate = (p50 * (queued + 1) as f64 / workers as f64).ceil() as u64;
        estimate.clamp(1, 600)
    }
}

fn evict_old_jobs(inner: &mut ManagerInner, feeds: &JobFeeds) {
    while inner.order.len() > MAX_RETAINED_JOBS {
        // Evict the oldest *finished* job; never a live one.
        let Some(pos) = inner
            .order
            .iter()
            .position(|id| inner.jobs.get(id).is_none_or(|r| r.state.is_terminal()))
        else {
            return;
        };
        let id = inner.order.remove(pos);
        inner.jobs.remove(&id);
        feeds.evict(id);
    }
}

/// Runs one job on a pool worker: telemetry subtree root, execution,
/// record + feed finalization. Panics anywhere inside are contained to
/// a `failed` state.
fn execute_job(
    job: u64,
    kind: &JobKind,
    inner: &Mutex<ManagerInner>,
    runner: &Runner,
    feeds: &Arc<JobFeeds>,
    stats: &Arc<ServeStats>,
) {
    let queue_wait_s = {
        let mut guard = inner.lock().unwrap();
        let Some(record) = guard.jobs.get_mut(&job) else {
            return; // Evicted before running (shutdown edge); nothing to do.
        };
        record.state = JobState::Running;
        let wait = record.submitted.elapsed().as_secs_f64();
        record.queue_wait_s = Some(wait);
        wait
    };
    stats.record_queue_wait_s(queue_wait_s);
    let started = Instant::now();
    let result = {
        // The job's own handle, current on this thread (and, through the
        // runner, on its workers) for exactly the job's extent: whatever
        // the stack emits meanwhile is this job's feed, root span first.
        let tele = feeds.job_handle(job);
        let _tele = tele.scope();
        let _root = tele.span_at(
            0,
            JOB_ROOT_SPAN,
            &[
                ("job", job.into()),
                ("kind", kind.label().into()),
                ("name", kind.name().into()),
                ("queue_wait_s", queue_wait_s.into()),
            ],
        );
        run_caught(&format!("job {job} panicked"), || run_kind(kind, runner))
            .and_then(|outcome| outcome)
    };
    let wall_s = started.elapsed().as_secs_f64();
    stats.record_job_wall_s(wall_s);
    let state = {
        let mut guard = inner.lock().unwrap();
        let digest = guard.jobs.get(&job).map(|r| r.digest);
        // From here the job is no longer in flight: a later identical
        // submission is a *new* job (it will hit the result cache).
        if let Some(digest) = digest {
            if guard.inflight.get(&digest) == Some(&job) {
                guard.inflight.remove(&digest);
            }
        }
        let Some(record) = guard.jobs.get_mut(&job) else {
            return;
        };
        record.wall_s = Some(wall_s);
        match result {
            Ok(report) => {
                record.state = JobState::Completed;
                record.report = Some(report);
            }
            Err(message) => {
                record.state = JobState::Failed;
                record.error = Some(message);
            }
        }
        record.state
    };
    match state {
        JobState::Completed => stats.note_completed(),
        _ => stats.note_failed(),
    }
    belenos_telemetry::global().counter(
        if state == JobState::Completed {
            "serve_jobs_completed"
        } else {
            "serve_jobs_failed"
        },
        1,
        &[("job", job.into())],
    );
    feeds.finish(job, state.as_str());
}

/// Executes the work itself, returning the report document.
fn run_kind(kind: &JobKind, runner: &Runner) -> Result<Json, String> {
    match kind {
        JobKind::Campaign(spec) => {
            let campaign = spec.prepare().map_err(|e| e.to_string())?;
            let mut report = campaign.run(runner);
            // A job always runs under a recording telemetry handle (its
            // event feed), which makes `Campaign::run` attach a rollup section.
            // Job reports promise byte-equivalence with the CLI's
            // `campaign run --json` in its default telemetry-off form, so
            // the rollup is dropped before rendering.
            report.rollup = None;
            Ok(ToJson::to_json(&report))
        }
        JobKind::Scenarios { specs, options } => {
            let exps: Vec<Experiment> = specs
                .iter()
                .map(|s| Experiment::prepare(s).map_err(|e| e.to_string()))
                .collect::<Result<_, _>>()?;
            let mut plan = RunPlan::new();
            for w in 0..exps.len() {
                plan.push(
                    JobSpec::new(
                        w,
                        "baseline",
                        options.configure(CoreConfig::gem5_baseline()),
                        options.max_ops,
                    )
                    .with_sampling(options.sampling.clone()),
                );
            }
            let results = runner.run(&exps, &plan);
            let mut report = Report::new("scenario_run");
            let section = report.section("Scenario runs (gem5 baseline config)", &SCENARIO_COLUMNS);
            let mut failures = Vec::new();
            for (exp, r) in exps.iter().zip(&results) {
                match &r.error {
                    Some(e) => failures.push(format!("{}: {e}", r.workload)),
                    None => {
                        section.row(scenario_row(exp, &r.stats));
                    }
                }
            }
            if !failures.is_empty() {
                return Err(format!(
                    "{} scenario simulation(s) failed: {}",
                    failures.len(),
                    failures.join("; ")
                ));
            }
            Ok(ToJson::to_json(&report))
        }
    }
}
