//! Job lifecycle: admission control, in-flight dedup, execution.
//!
//! A *job* is one accepted submission — a whole campaign spec or a
//! scenario batch — executed on one of the manager's worker threads.
//! The record table is the queue: a worker takes the oldest `queued`
//! record under the table's lock, and admission decides under that same
//! lock, so a submission is either wholly accepted or leaves nothing
//! behind. The manager enforces the admission contract at the front
//! door:
//!
//! * **op-budget ceiling** — a spec asking for more detailed ops per
//!   simulation than the server allows (or for an unlimited budget) is
//!   rejected with a structured error naming `options.max_ops`, before
//!   any model is solved;
//! * **bounded queue** — with `queue_depth` jobs already waiting the
//!   submission is rejected as *busy* with a retry hint, never buffered
//!   without limit;
//! * **in-flight dedup** — a submission whose spec digest matches a
//!   queued or running job *joins* it: one simulation, N watchers, which
//!   is what makes the shared content-addressed cache a service-level
//!   feature rather than a per-process one.
//!
//! Completed jobs keep their report (and their event feed) available
//! for polling until evicted by the retention cap. Dropping the manager
//! **drains and joins** — every accepted job still runs, then every
//! worker is joined — which `belenos serve` relies on for graceful
//! SIGTERM shutdown.

use crate::events::{JobFeeds, JOB_ROOT_SPAN};
use crate::stats::ServeStats;
use crate::{lock, NOT_POISONED};
use belenos::campaign::CampaignSpec;
use belenos::experiment::prepare_all;
use belenos::figures::scenario_run;
use belenos::SimOptions;
use belenos_json::{Json, ToJson};
use belenos_runner::{run_caught, Runner};
use belenos_uarch::Fnv64;
use belenos_workloads::ScenarioSpec;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
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
    /// Submission order, for eviction.
    order: Vec<u64>,
    /// The jobs in state `Queued` and what each is to run, oldest first.
    queue: VecDeque<(u64, JobKind)>,
    next_id: u64,
    /// Jobs a worker has claimed and not yet finished with.
    running: usize,
    paused: bool,
    /// The manager is being dropped (which also clears `paused`).
    stopping: bool,
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

/// What the worker threads share with the manager's front door.
struct Shared {
    inner: Mutex<ManagerInner>,
    /// Notified whenever `inner` changes in a way a worker (a job to
    /// take, stopping) or [`JobManager::drain`] (a job done) waits for.
    changed: Condvar,
    queue_depth: usize,
    runner: Runner,
    feeds: Arc<JobFeeds>,
    stats: Arc<ServeStats>,
}

/// Owns the worker threads and every job record.
pub struct JobManager {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    op_budget_ceiling: usize,
}

impl JobManager {
    /// A manager executing up to `workers` jobs at once with at most
    /// `queue_depth` more waiting, simulating through `runner` (whose
    /// budget all of the jobs share). The worker threads run under the
    /// calling thread's current telemetry handle.
    ///
    /// # Panics
    ///
    /// When `workers` is 0 or a worker thread cannot be spawned.
    pub fn new(
        runner: Runner,
        feeds: Arc<JobFeeds>,
        stats: Arc<ServeStats>,
        workers: usize,
        queue_depth: usize,
        op_budget_ceiling: usize,
    ) -> JobManager {
        assert!(workers >= 1, "a job manager needs at least one worker");
        let shared = Arc::new(Shared {
            inner: Mutex::default(),
            changed: Condvar::new(),
            queue_depth,
            runner,
            feeds,
            stats,
        });
        let tele = belenos_telemetry::global();
        let workers = (0..workers)
            .map(|i| {
                let (shared, tele) = (shared.clone(), tele.clone());
                std::thread::Builder::new()
                    .name(format!("serve-job-{i}"))
                    .spawn(move || {
                        let _tele = tele.scope();
                        while let Some((job, kind, queue_wait_s)) = next_job(&shared) {
                            execute_job(&shared, job, &kind, queue_wait_s);
                            // Last, so a drain outlasts the job's final
                            // counters and its feed's terminal line.
                            lock(&shared.inner).running -= 1;
                            shared.changed.notify_all();
                        }
                    })
                    .expect("spawn job worker")
            })
            .collect();
        JobManager {
            shared,
            workers,
            op_budget_ceiling,
        }
    }

    /// Jobs waiting for a worker.
    pub fn queued(&self) -> usize {
        lock(&self.shared.inner).queue.len()
    }

    /// Jobs executing right now.
    pub fn running(&self) -> usize {
        lock(&self.shared.inner).running
    }

    /// The number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Holds (`true`) or resumes (`false`) job pickup — the
    /// deterministic test seam for exercising dedup and queue-full
    /// paths over real sockets, and an operational drain valve. Paused
    /// workers finish their current job and then idle; the queue keeps
    /// accepting up to its depth. Dropping a paused manager still
    /// drains it.
    pub fn pause(&self, on: bool) {
        lock(&self.shared.inner).paused = on;
        self.shared.changed.notify_all();
    }

    /// Blocks until every accepted job has finished (graceful-shutdown
    /// drain; new submissions should be fenced off by the caller first).
    /// While paused this waits only for running jobs (queued ones hold).
    pub fn drain(&self) {
        let busy = |inner: &mut ManagerInner| {
            inner.running > 0 || !(inner.paused || inner.queue.is_empty())
        };
        let idle = self
            .shared
            .changed
            .wait_while(lock(&self.shared.inner), busy);
        drop(idle.expect(NOT_POISONED));
    }

    /// Admits a submission: budget check, then — under one lock —
    /// in-flight dedup, queue-depth check and the record itself.
    ///
    /// # Errors
    ///
    /// [`Reject::Budget`] for an over-ceiling (or unlimited) op budget,
    /// [`Reject::Busy`] when the queue is at capacity.
    pub fn submit(&self, kind: JobKind) -> Result<Submission, Reject> {
        let tele = belenos_telemetry::global();
        let (feeds, stats) = (&self.shared.feeds, &self.shared.stats);
        if self.op_budget_ceiling > 0 {
            let max_ops = kind.options().max_ops;
            if max_ops == 0 || max_ops > self.op_budget_ceiling {
                stats.note_rejected_invalid();
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
        let mut inner = lock(&self.shared.inner);
        if let Some(&job) = inner.inflight.get(&digest) {
            let record = inner.jobs.get_mut(&job).expect("inflight job has a record");
            record.joined += 1;
            let state = record.state;
            stats.note_joined();
            tele.counter("serve_jobs_joined", 1, &[("job", job.into())]);
            return Ok(Submission {
                job,
                joined: true,
                state,
            });
        }
        let (queued, capacity) = (inner.queue.len(), self.shared.queue_depth);
        if queued >= capacity {
            drop(inner);
            stats.note_rejected_busy();
            tele.counter("serve_jobs_rejected", 1, &[("reason", "queue_full".into())]);
            return Err(Reject::Busy {
                queued,
                capacity,
                retry_after_s: self.retry_after_s(queued),
            });
        }
        inner.next_id += 1;
        let job = inner.next_id;
        // The feed opens before any worker can see the record (they need
        // this lock), so no event or subscriber can race its existence.
        feeds.open(job);
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
        inner.queue.push_back((job, kind));
        evict_old_jobs(&mut inner, feeds);
        drop(inner);
        self.shared.changed.notify_all();
        stats.note_submitted();
        tele.counter("serve_jobs_submitted", 1, &[("job", job.into())]);
        Ok(Submission {
            job,
            joined: false,
            state: JobState::Queued,
        })
    }

    /// A copy of one job's current record.
    pub fn snapshot(&self, job: u64) -> Option<JobSnapshot> {
        let inner = lock(&self.shared.inner);
        let record = inner.jobs.get(&job)?;
        let queue_position = inner.queue.iter().position(|(id, _)| *id == job);
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

    /// Suggested client back-off when the queue is full: the median job
    /// wall extrapolated over the queue, clamped to something a client
    /// would actually honor.
    fn retry_after_s(&self, queued: usize) -> u64 {
        let p50 = self.shared.stats.job_wall_p50_s().max(1.0);
        let estimate = (p50 * (queued + 1) as f64 / self.workers() as f64).ceil() as u64;
        estimate.clamp(1, 600)
    }
}

impl Drop for JobManager {
    /// Drain-and-join: every accepted job runs, then every worker is
    /// joined — the manager never leaks a detached thread mid-job.
    fn drop(&mut self) {
        if let Ok(mut inner) = self.shared.inner.lock() {
            inner.paused = false;
            inner.stopping = true;
        }
        self.shared.changed.notify_all();
        for worker in self.workers.drain(..) {
            // A worker that panicked has nothing left to hand over.
            let _ = worker.join();
        }
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

/// Blocks until there is a job to run and claims the oldest one — it
/// leaves the queue and counts as running under one lock, so
/// [`JobManager::drain`] never sees "nothing waiting, nothing running"
/// in between. `None` once the manager is stopping and the queue is empty.
fn next_job(shared: &Shared) -> Option<(u64, JobKind, f64)> {
    let mut inner = lock(&shared.inner);
    loop {
        if !inner.paused {
            if let Some((job, kind)) = inner.queue.pop_front() {
                inner.running += 1;
                let record = inner.jobs.get_mut(&job).expect("a queued job has a record");
                record.state = JobState::Running;
                let wait = record.submitted.elapsed().as_secs_f64();
                record.queue_wait_s = Some(wait);
                return Some((job, kind, wait));
            }
            if inner.stopping {
                return None;
            }
        }
        inner = shared.changed.wait(inner).expect(NOT_POISONED);
    }
}

/// Runs one claimed job on a worker: telemetry subtree root, execution,
/// record + feed finalization. A panic in the work is contained to a
/// `failed` state.
fn execute_job(shared: &Shared, job: u64, kind: &JobKind, queue_wait_s: f64) {
    let (feeds, stats) = (&shared.feeds, &shared.stats);
    stats.record_queue_wait_s(queue_wait_s);
    let started = Instant::now();
    let result = {
        // The job's own handle, current on this thread (and, through the
        // runner, on its helpers) for exactly the job's extent: whatever
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
        run_caught(&format!("job {job} panicked"), || {
            run_kind(kind, &shared.runner)
        })
        .and_then(|outcome| outcome)
    };
    let wall_s = started.elapsed().as_secs_f64();
    stats.record_job_wall_s(wall_s);
    let state = {
        let mut inner = lock(&shared.inner);
        // Live jobs are never evicted, and only this worker ends this one.
        let record = inner
            .jobs
            .get_mut(&job)
            .expect("a running job has a record");
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
        let (state, digest) = (record.state, record.digest);
        // From here the job is no longer in flight: a later identical
        // submission is a *new* job (it will hit the result cache).
        inner.inflight.remove(&digest);
        state
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
            let exps = prepare_all(specs).map_err(|e| e.to_string())?;
            let (report, failures) = scenario_run(runner, &exps, options);
            if !failures.is_empty() {
                let failed: Vec<String> = failures
                    .iter()
                    .map(|f| format!("{}: {}", f.workload, f.message))
                    .collect();
                return Err(format!(
                    "{} scenario simulation(s) failed: {}",
                    failed.len(),
                    failed.join("; ")
                ));
            }
            Ok(ToJson::to_json(&report))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use belenos_runner::{DistExecutor, DistJob};
    use belenos_telemetry::Telemetry;
    use std::sync::Barrier;

    /// An empty scenario batch — nothing to solve, a report all the same;
    /// `n` makes its digest.
    fn job(n: usize) -> JobKind {
        JobKind::Scenarios {
            specs: Vec::new(),
            options: SimOptions::new(n),
        }
    }

    fn manager(runner: Runner, workers: usize, queue_depth: usize) -> JobManager {
        let feeds = Arc::new(JobFeeds::new(&belenos_telemetry::global()));
        let stats = Arc::new(ServeStats::new());
        JobManager::new(runner, feeds, stats, workers, queue_depth, 0)
    }

    fn accepted(manager: &JobManager, kind: JobKind) -> u64 {
        let submission = manager.submit(kind).expect("accepted");
        assert!(!submission.joined);
        submission.job
    }

    #[test]
    fn accepted_jobs_all_run() {
        let manager = manager(Runner::isolated(1), 2, 16);
        let ids: Vec<u64> = (1..=10).map(|n| accepted(&manager, job(n))).collect();
        manager.drain();
        assert_eq!((manager.queued(), manager.running()), (0, 0));
        for id in ids {
            let snap = manager.snapshot(id).expect("record");
            assert_eq!(snap.state, JobState::Completed);
            assert!(snap.report.is_some());
        }
    }

    #[test]
    fn past_queue_depth_while_paused_is_busy() {
        let manager = manager(Runner::isolated(1), 1, 2);
        manager.pause(true);
        accepted(&manager, job(1));
        accepted(&manager, job(2));
        match manager.submit(job(3)) {
            Err(Reject::Busy {
                queued, capacity, ..
            }) => assert_eq!((queued, capacity), (2, 2)),
            other => panic!("expected busy, got {other:?}"),
        }
        // Held, not dropped: a paused drain has nothing running to wait for.
        manager.drain();
        assert_eq!(manager.queued(), 2);
        manager.pause(false);
        manager.drain();
        assert_eq!(manager.queued(), 0);
        accepted(&manager, job(3));
    }

    #[test]
    fn drop_drains_queued_jobs_and_joins() {
        let manager = manager(Runner::isolated(1), 1, 64);
        let stats = manager.shared.stats.clone();
        manager.pause(true); // Everything below is still queued at drop.
        for n in 1..=5 {
            accepted(&manager, job(n));
        }
        drop(manager);
        // Drop returned only after all five ran on a joined worker.
        let [submitted, _, completed, ..] = stats.job_counts();
        assert_eq!((submitted, completed), (5, 5));
    }

    #[test]
    fn a_panicking_job_leaves_the_worker_alive_under_the_bind_time_handle() {
        /// Panics deep below the job: inside its telemetry scope, its
        /// root span and the runner's `batch` span.
        struct Exploding;
        impl DistExecutor for Exploding {
            fn execute_dist(
                &self,
                _: &[DistJob<'_>],
            ) -> Vec<(
                usize,
                Result<belenos_uarch::SimStats, String>,
                std::time::Duration,
            )> {
                panic!("board boom")
            }
        }
        let (sink, lines) = Telemetry::to_buffer();
        let manager = {
            let _bound = sink.scope();
            manager(
                Runner::isolated(1).with_distributor(Arc::new(Exploding)),
                1,
                8,
            )
        };
        let doomed = JobKind::Scenarios {
            specs: vec![belenos_workloads::by_id("pd").expect("pd")],
            options: SimOptions::new(1_000),
        };
        let (doomed, next) = (accepted(&manager, doomed), accepted(&manager, job(1)));
        manager.drain();
        let snap = manager.snapshot(doomed).expect("record");
        assert_eq!(snap.state, JobState::Failed);
        let error = snap.error.expect("failed jobs say why");
        assert!(error.contains("panicked") && error.contains("board boom"));
        let snap = manager.snapshot(next).expect("record");
        assert_eq!(snap.state, JobState::Completed);
        // The one worker is back under the handle the manager was built
        // under — not the doomed job's, not the process's.
        let lines = lines.lines();
        assert!(lines.iter().any(|l| l.contains("serve_jobs_failed")));
        assert!(lines.iter().any(|l| l.contains("serve_jobs_completed")));
    }

    /// With depth check and insert under one lock there is no moment at
    /// which a submission that will be turned away is visible to an
    /// identical one arriving beside it.
    #[test]
    fn a_full_queue_leaves_nothing_of_the_submissions_it_turns_away() {
        const ROUNDS: usize = 32;
        const POSTERS: usize = 8;
        let manager = manager(Runner::isolated(1), 1, 2);
        manager.pause(true);
        let held = [accepted(&manager, job(1)), accepted(&manager, job(2))];
        let (mut acknowledged, mut busy) = (0, 0);
        for round in 0..ROUNDS {
            let together = Barrier::new(POSTERS);
            let post = || {
                together.wait();
                manager.submit(job(100 + round))
            };
            let outcomes: Vec<_> = std::thread::scope(|scope| {
                let posters: Vec<_> = (0..POSTERS).map(|_| scope.spawn(post)).collect();
                posters.into_iter().map(|p| p.join().unwrap()).collect()
            });
            for outcome in outcomes {
                match outcome {
                    Ok(submission) => {
                        acknowledged += 1;
                        assert!(manager.snapshot(submission.job).is_some(), "202, then 404");
                    }
                    Err(Reject::Busy { .. }) => busy += 1,
                    Err(other) => panic!("{other:?}"),
                }
            }
        }
        {
            let inner = lock(&manager.shared.inner);
            let mut inflight: Vec<u64> = inner.inflight.values().copied().collect();
            inflight.sort_unstable();
            assert_eq!(inflight, held);
            assert_eq!((inner.jobs.len(), &inner.order[..]), (2, &held[..]));
        }
        let feeds = &manager.shared.feeds;
        assert!(held.iter().all(|&id| feeds.subscribe(id).is_some()));
        let mut turned_away = 3..=(2 + ROUNDS * POSTERS) as u64;
        assert!(turned_away.all(|id| feeds.subscribe(id).is_none()));
        let [submitted, joined, .., rejected_busy, _] = manager.shared.stats.job_counts();
        assert_eq!((submitted + joined) as usize, 2 + acknowledged);
        assert_eq!(rejected_busy as usize, busy);
    }
}
