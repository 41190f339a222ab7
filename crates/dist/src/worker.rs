//! The worker loop: claim, simulate, publish the result, repeat.
//!
//! A worker is stateless between jobs — everything it knows about a
//! job comes from the lease file it holds, and everything it produces
//! lands in the shared cache before the completion marker appears. The
//! process can therefore be SIGKILLed at any instant:
//!
//! * killed before the claim → the board entry is untouched;
//! * killed mid-simulation → the lease stops heartbeating, ages past
//!   the TTL, and another worker steals and re-runs the job;
//! * killed between the cache write and the done marker → the stealer
//!   re-runs the (deterministic) simulation and overwrites the cache
//!   entry with identical bytes.
//!
//! No state in the worker is ever the only copy of anything.

use crate::board::{self, ClaimedJob, DistConfig, DoneDoc, JobDoc};
use crate::wake::{Backoff, Wake, BACKOFF_FLOOR};
use belenos::Experiment;
use belenos_runner::{run_caught, Cache, CacheKey, Simulate};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// What one worker did over its lifetime (returned by [`run_worker`]).
#[derive(Debug, Clone, Default)]
pub struct WorkerSummary {
    /// Sanitized worker name.
    pub worker: String,
    /// Jobs executed (claimed open entries + stolen leases).
    pub executed: u64,
    /// Of those, jobs acquired by stealing an expired lease.
    pub stolen: u64,
    /// Jobs whose simulation failed (done marker carries the message).
    pub failed: u64,
    /// Summed execution wall (prepare + simulate) across jobs.
    pub busy: Duration,
}

/// The longest an idle worker waits between board scans. Short enough
/// that a just-published burst is picked up promptly, long enough that
/// a big fleet polling one NFS directory stays polite.
const IDLE_POLL: Duration = Duration::from_millis(25);

/// Runs the worker loop until `stop` is raised or — when
/// `idle_timeout` is set — the board has yielded nothing for that
/// long.
///
/// The loop prefers open board entries (cheap renames) and only scans
/// for expired leases when the board is empty, so steals happen when
/// there is genuinely nothing else to do. Each executed job:
///
/// 1. starts a [`board::Heartbeat`] on the lease,
/// 2. prepares the scenario (FE solve or trace-store replay; prepared
///    experiments are memoized by scenario digest, so a sweep of N
///    configs over one workload solves once),
/// 3. simulates with the runner's per-job panic containment,
/// 4. inserts the result into the shared cache (write-then-rename),
/// 5. writes the done marker and releases the lease.
///
/// With nothing to claim the worker waits 1 ms, then twice as long each
/// time up to 25 ms, and starts over from 1 ms after a job: the board is
/// the only channel to whoever publishes, so looking is the only way to
/// find out.
///
/// # Errors
///
/// Only layout creation can fail; everything after that degrades to
/// per-job error markers instead of tearing the worker down.
pub fn run_worker(
    cfg: &DistConfig,
    stop: &AtomicBool,
    idle_timeout: Option<Duration>,
) -> std::io::Result<WorkerSummary> {
    // A wake of its own: nobody bumps it, every wait runs out its timeout.
    let idle = Backoff::new(BACKOFF_FLOOR, IDLE_POLL);
    worker_loop(cfg, stop, idle_timeout, &Wake::default(), idle)
}

/// [`run_worker`] as a thread of the coordinator that owns `wake`: it
/// bumps `wake` after each done marker, and a bump (a republished job,
/// `stop` raised) ends its idle wait at once — the timeout is only there
/// for what other processes do to the board.
pub(crate) fn run_local_worker(
    cfg: &DistConfig,
    stop: &AtomicBool,
    wake: &Wake,
) -> std::io::Result<WorkerSummary> {
    worker_loop(cfg, stop, None, wake, Backoff::new(IDLE_POLL, IDLE_POLL))
}

fn worker_loop(
    cfg: &DistConfig,
    stop: &AtomicBool,
    idle_timeout: Option<Duration>,
    wake: &Wake,
    mut idle: Backoff,
) -> std::io::Result<WorkerSummary> {
    cfg.ensure_layout()?;
    let tele = belenos_telemetry::global();
    let span = tele.span("worker", &[("worker", cfg.worker.as_str().into())]);
    let cache = Cache::with_disk(cfg.cache_dir());
    // Prepared experiments, memoized by scenario content digest: a
    // config sweep publishes many jobs over the same scenario and the
    // FE solve must not be repaid per job.
    let mut prepared: HashMap<u64, Experiment> = HashMap::new();
    let mut summary = WorkerSummary {
        worker: cfg.worker.clone(),
        ..WorkerSummary::default()
    };
    let mut idle_since = Instant::now();
    loop {
        // Before `stop` and the board are looked at, so that whatever
        // changes either afterwards cuts the wait below short.
        let seen = wake.generation();
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let claimed = board::claim_open(cfg).or_else(|| board::claim_expired(cfg));
        let Some(job) = claimed else {
            if idle_timeout.is_some_and(|t| idle_since.elapsed() >= t) {
                break;
            }
            wake.wait(seen, idle.step());
            continue;
        };
        idle_since = Instant::now();
        execute_job(cfg, &cache, &mut prepared, &job, &mut summary, span.id());
        wake.notify();
        idle.reset();
    }
    drop(span);
    Ok(summary)
}

/// Runs one claimed job to its done marker. Never panics outward: a
/// malformed document, a failed prepare and a wedged simulation all
/// become error-carrying done markers.
fn execute_job(
    cfg: &DistConfig,
    cache: &Cache,
    prepared: &mut HashMap<u64, Experiment>,
    job: &ClaimedJob,
    summary: &mut WorkerSummary,
    worker_span: u64,
) {
    let tele = belenos_telemetry::global();
    let started = Instant::now();
    let heartbeat = board::Heartbeat::start(cfg, job.digest);
    let label = match &job.doc {
        Ok(doc) => format!("{} {}", doc.workload, doc.label),
        Err(_) => format!("{:016x}", job.digest),
    };
    let job_span = tele.span_at(
        worker_span,
        "dist_job",
        &[
            ("label", label.as_str().into()),
            ("stolen", job.stolen.into()),
        ],
    );

    // Deterministic-CI hook: hold the claimed job (while heartbeating)
    // so kill/steal scenarios have a window to aim at.
    if let Some(delay) = test_delay() {
        std::thread::sleep(delay);
    }

    let error = match &job.doc {
        Ok(doc) => simulate_and_insert(cache, prepared, doc, job.digest).err(),
        Err(msg) => Some(msg.clone()),
    };
    drop(job_span);
    let wall = started.elapsed();
    summary.executed += 1;
    summary.busy += wall;
    if job.stolen {
        summary.stolen += 1;
    }
    if let Some(msg) = &error {
        summary.failed += 1;
        tele.warn(&format!("dist job {label} failed: {msg}"));
    }

    // Result first (inside simulate_and_insert), marker second: a
    // coordinator that sees the marker may rely on the cache entry
    // existing. The lease goes last; if a thief took it mid-job, both
    // runs produced identical results and the remove is a no-op.
    let done = DoneDoc {
        digest: job.digest,
        worker: cfg.worker.clone(),
        wall_s: wall.as_secs_f64(),
        stolen: job.stolen,
        error,
    };
    if let Err(e) = board::write_done(cfg, &done) {
        tele.warn(&format!("dist: done marker for {label}: {e}"));
    }
    drop(heartbeat);
    board::remove_lease(cfg, job.digest);
}

/// Prepares (memoized), verifies the cache identity, simulates, and
/// inserts the result into the shared cache.
fn simulate_and_insert(
    cache: &Cache,
    prepared: &mut HashMap<u64, Experiment>,
    doc: &JobDoc,
    digest: u64,
) -> Result<(), String> {
    let scenario_digest = doc.scenario.stable_digest();
    if let std::collections::hash_map::Entry::Vacant(slot) = prepared.entry(scenario_digest) {
        let exp = Experiment::prepare(&doc.scenario)
            .map_err(|e| format!("prepare '{}': {e}", doc.workload))?;
        slot.insert(exp);
    }
    let exp = &prepared[&scenario_digest];
    let key = CacheKey::new(
        exp.workload_id(),
        exp.fingerprint(),
        &doc.config,
        doc.max_ops,
        &doc.sampling,
    );
    if key.address() != digest {
        // The rebuilt simulation is not the one that was published —
        // a wire-format or digest regression. Refusing loudly beats
        // poisoning the shared cache under the wrong address.
        return Err(format!(
            "cache identity mismatch: published {digest:016x}, rebuilt {:016x} \
             (workload '{}')",
            key.address(),
            doc.workload
        ));
    }
    let stats = run_caught(
        &format!("simulation of '{}' panicked", doc.workload),
        || {
            // Qualified call: Experiment's inherent `simulate` (no sampling
            // parameter) would shadow the trait method.
            Simulate::simulate(exp, &doc.config, doc.max_ops, &doc.sampling)
        },
    )?;
    cache.insert(key, &stats);
    Ok(())
}

/// `BELENOS_WORKER_DELAY_MS`: artificial per-job hold used by tests
/// and CI to stage kill/steal scenarios deterministically.
fn test_delay() -> Option<Duration> {
    std::env::var("BELENOS_WORKER_DELAY_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|&ms| ms > 0)
        .map(Duration::from_millis)
}
