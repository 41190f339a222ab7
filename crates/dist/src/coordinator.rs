//! The coordinator: publishes a batch to the job board, optionally
//! hosts in-process workers, and collects results into plan order.
//!
//! [`Coordinator`] implements the runner's
//! [`DistExecutor`] seam, so campaign
//! code never changes for distributed execution — a runner with a
//! coordinator installed routes its cache-miss jobs through the board
//! instead of the local batch, and everything downstream
//! (caching, report rendering, telemetry roll-up) behaves as before.
//!
//! The coordinator is crash-safe by construction: it holds no state a
//! restart cannot rebuild. Kill it mid-campaign and run it again — the
//! re-planned jobs that already finished are disk-cache hits and never
//! reach the board; unfinished board entries and expired leases are
//! picked up by whatever workers remain.

use crate::board::{self, DistConfig, DoneDoc, JobDoc};
use crate::wake::{Backoff, Wake, BACKOFF_FLOOR};
use crate::worker::{run_local_worker, WorkerSummary};
use belenos::report::{Cell, Report};
use belenos_runner::cache::{entry_file_name, read_stats, report_damaged};
use belenos_runner::{CacheStats, DistExecutor, DistJob};
use belenos_telemetry::percentile;
use belenos_uarch::SimStats;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Per-worker slice of a merged campaign summary (built from the done
/// markers, so external workers count exactly like in-process ones).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkerTally {
    /// Jobs this worker completed.
    pub jobs: u64,
    /// Of those, jobs acquired by stealing an expired lease.
    pub stolen: u64,
    /// Jobs that failed (error done markers).
    pub failed: u64,
    /// Summed execution wall seconds.
    pub busy_s: f64,
}

/// The merged cross-worker summary of one distributed batch.
#[derive(Debug, Clone, Default)]
pub struct MergedSummary {
    /// Per-worker tallies, keyed by worker name (sorted).
    pub per_worker: BTreeMap<String, WorkerTally>,
    /// Execution walls of every completed job, in completion order.
    pub walls_s: Vec<f64>,
    /// Jobs resolved straight from the shared disk cache without
    /// touching the board (a restarted coordinator's hits).
    pub cache_resolved: u64,
}

impl MergedSummary {
    /// Total jobs executed by workers.
    pub fn jobs(&self) -> u64 {
        self.per_worker.values().map(|t| t.jobs).sum()
    }

    /// Total jobs acquired by stealing.
    pub fn stolen(&self) -> u64 {
        self.per_worker.values().map(|t| t.stolen).sum()
    }

    /// The job walls in ascending order, ready for
    /// [`belenos_telemetry::percentile`].
    pub fn sorted_walls(&self) -> Vec<f64> {
        let mut sorted = self.walls_s.clone();
        sorted.sort_by(f64::total_cmp);
        sorted
    }

    fn record(&mut self, done: &DoneDoc) {
        let tally = self.per_worker.entry(done.worker.clone()).or_default();
        tally.jobs += 1;
        tally.busy_s += done.wall_s;
        if done.stolen {
            tally.stolen += 1;
        }
        if done.error.is_some() {
            tally.failed += 1;
        }
        self.walls_s.push(done.wall_s);
    }
}

/// The longest the coordinator goes without sweeping the board: what
/// other processes did can only be seen by looking.
const POLL: Duration = Duration::from_millis(50);
/// How often a waiting coordinator prints a progress line.
const PROGRESS_EVERY: Duration = Duration::from_secs(5);
/// How long a done marker may point at a missing cache entry before the
/// job is republished (covers a slow NFS rename).
const MARKER_GRACE: Duration = Duration::from_secs(5);
/// How long a job may be visible nowhere (board, leases, done) before it
/// is republished. A sweep can catch a job between two directories; one
/// that stays gone this long was removed from under us.
const VANISHED_GRACE: Duration = Duration::from_millis(100);

/// A [`DistExecutor`] backed by one dist directory.
pub struct Coordinator {
    cfg: DistConfig,
    local_workers: usize,
    merged: Mutex<MergedSummary>,
}

impl Coordinator {
    /// A coordinator over `cfg`'s dist directory with one in-process
    /// worker (the useful default: a lone `--distributed` run makes
    /// progress by itself, extra processes join for speed).
    pub fn new(cfg: DistConfig) -> Coordinator {
        Coordinator {
            cfg,
            local_workers: 1,
            merged: Mutex::new(MergedSummary::default()),
        }
    }

    /// Sets the number of in-process worker threads (0 = publish only
    /// and rely entirely on external `belenos worker` processes).
    pub fn with_local_workers(mut self, n: usize) -> Coordinator {
        self.local_workers = n;
        self
    }

    /// The dist configuration this coordinator publishes under.
    pub fn config(&self) -> &DistConfig {
        &self.cfg
    }

    /// Snapshot of the merged cross-worker summary accumulated so far
    /// (complete once `execute_dist` has returned).
    pub fn merged(&self) -> MergedSummary {
        self.merged.lock().unwrap().clone()
    }

    /// Renders the merged summary to stderr: one line per worker (CI
    /// greps these) plus an aggregate.
    pub fn print_summary(&self) {
        let merged = self.merged();
        for (name, tally) in &merged.per_worker {
            eprintln!(
                "dist: worker {name} executed {} job(s) ({} stolen, {} failed, {:.2}s busy)",
                tally.jobs, tally.stolen, tally.failed, tally.busy_s
            );
        }
        let walls = merged.sorted_walls();
        eprintln!(
            "dist: {} worker(s), {} job(s), {} stolen, {} cache-resolved, \
             p50 {:.3}s, p95 {:.3}s",
            merged.per_worker.len(),
            merged.jobs(),
            merged.stolen(),
            merged.cache_resolved,
            percentile(&walls, 50),
            percentile(&walls, 95),
        );
    }

    /// Folds the merged summary into a campaign report's telemetry
    /// roll-up as a `distributed` section: one row per worker, one
    /// aggregate row carrying the coordinator-side cache traffic.
    pub fn append_rollup(&self, report: &mut Report, cache: &CacheStats) {
        let merged = self.merged();
        let section = report.section(
            "distributed",
            &[
                "worker", "jobs", "stolen", "failed", "busy_s", "p50_s", "p95_s", "lookups", "hits",
            ],
        );
        for (name, tally) in &merged.per_worker {
            section.row(vec![
                Cell::text(name.clone()),
                Cell::num(tally.jobs as f64, 0),
                Cell::num(tally.stolen as f64, 0),
                Cell::num(tally.failed as f64, 0),
                Cell::num(tally.busy_s, 2),
                Cell::text("-"),
                Cell::text("-"),
                Cell::text("-"),
                Cell::text("-"),
            ]);
        }
        let walls = merged.sorted_walls();
        section.row(vec![
            Cell::text("(all)"),
            Cell::num(merged.jobs() as f64, 0),
            Cell::num(merged.stolen() as f64, 0),
            Cell::num(
                merged.per_worker.values().map(|t| t.failed).sum::<u64>() as f64,
                0,
            ),
            Cell::num(merged.walls_s.iter().sum::<f64>(), 2),
            Cell::num(percentile(&walls, 50), 3),
            Cell::num(percentile(&walls, 95), 3),
            Cell::num(cache.lookups() as f64, 0),
            Cell::num(cache.hits as f64, 0),
        ]);
    }
}

/// Per-pending-job bookkeeping while the coordinator waits. The two
/// clocks are wall time, not sweep counts: sweeps come as fast as local
/// workers finish jobs.
struct Pending {
    index: usize,
    cache_entry: PathBuf,
    /// Since when a done marker has pointed at a missing cache entry.
    marker_stalled: Option<Instant>,
    /// Since when the job has been visible nowhere.
    vanished: Option<Instant>,
}

impl DistExecutor for Coordinator {
    fn execute_dist(
        &self,
        jobs: &[DistJob<'_>],
    ) -> Vec<(usize, Result<SimStats, String>, Duration)> {
        let cfg = &self.cfg;
        let mut rows: Vec<(usize, Result<SimStats, String>, Duration)> = Vec::new();
        if let Err(e) = cfg.ensure_layout() {
            // Without a board nothing can run; fail every job with the
            // reason instead of panicking the campaign.
            let msg = format!("dist dir {}: {e}", cfg.dir.display());
            return jobs
                .iter()
                .map(|j| (j.index, Err(msg.clone()), Duration::ZERO))
                .collect();
        }

        let tele = belenos_telemetry::global();
        let span = tele.span(
            "coordinator",
            &[
                ("jobs", jobs.len().into()),
                ("local_workers", self.local_workers.into()),
            ],
        );

        // Publish. Jobs already answered by the shared disk cache (a
        // restarted coordinator re-planning finished work) resolve
        // immediately; stale done markers from earlier attempts are
        // cleared so this attempt gets a fresh verdict.
        let leased: HashSet<u64> = board::leases(cfg).iter().map(|l| l.digest).collect();
        let open: HashSet<u64> = board::board_digests(cfg).iter().copied().collect();
        let mut pending: HashMap<u64, Pending> = HashMap::new();
        let mut docs: HashMap<u64, JobDoc> = HashMap::new();
        for job in jobs {
            let digest = job.key.address();
            let cache_entry = cfg.cache_dir().join(entry_file_name(job.key));
            match read_stats(&cache_entry) {
                Ok(stats) => {
                    self.merged.lock().unwrap().cache_resolved += 1;
                    rows.push((job.index, Ok(stats), Duration::ZERO));
                    continue;
                }
                Err(miss) => report_damaged(miss, &job.key.workload, &cache_entry),
            }
            let doc = match JobDoc::from_dist_job(job) {
                Ok(doc) => doc,
                Err(msg) => {
                    rows.push((job.index, Err(msg), Duration::ZERO));
                    continue;
                }
            };
            let _ = std::fs::remove_file(cfg.done_path(digest));
            if !leased.contains(&digest) && !open.contains(&digest) {
                if let Err(e) = board::publish(cfg, &doc) {
                    rows.push((
                        job.index,
                        Err(format!("publish {}: {e}", doc.label)),
                        Duration::ZERO,
                    ));
                    continue;
                }
            }
            docs.insert(digest, doc);
            pending.insert(
                digest,
                Pending {
                    index: job.index,
                    cache_entry,
                    marker_stalled: None,
                    vanished: None,
                },
            );
        }
        tele.counter("dist_jobs_published", pending.len() as u64, &[]);

        // In-process workers share the board with external processes, and
        // one wake with this thread: a done marker from one of them ends
        // the wait below, `stop` ends their idle wait.
        let stop = Arc::new(AtomicBool::new(false));
        let wake = Arc::new(Wake::default());
        let locals: Vec<std::thread::JoinHandle<std::io::Result<WorkerSummary>>> = (0..self
            .local_workers)
            .map(|i| {
                let cfg = DistConfig {
                    worker: format!("{}-l{i}", cfg.worker),
                    ..cfg.clone()
                };
                let stop = Arc::clone(&stop);
                let wake = Arc::clone(&wake);
                let tele = tele.clone();
                std::thread::spawn(move || {
                    let _tele = tele.scope();
                    run_local_worker(&cfg, &stop, &wake)
                })
            })
            .collect();

        let started = Instant::now();
        let mut last_progress = Instant::now();
        let mut hinted = false;
        // With no local worker nothing ever bumps the wake and the board
        // is the only channel: look soon, then less and less often.
        let mut idle = match self.local_workers {
            0 => Backoff::new(BACKOFF_FLOOR, POLL),
            _ => Backoff::new(POLL, POLL),
        };
        let (mut sweeps, mut woken) = (0u64, 0u64);
        while !pending.is_empty() {
            // Read before the sweep: a done marker written while it runs
            // then ends the wait below at once.
            let seen = wake.generation();
            let sweep = self.sweep(&mut pending, &mut rows, &docs);
            sweeps += 1;
            if pending.is_empty() {
                break;
            }
            if sweep.republished > 0 {
                tele.counter("dist_jobs_republished", sweep.republished, &[]);
                wake.notify();
            }
            if sweep.resolved > 0 {
                idle.reset();
            }
            if sweep.resolved == 0
                && self.local_workers == 0
                && !hinted
                && started.elapsed() > Duration::from_secs(10)
            {
                eprintln!(
                    "dist: no progress after {:.0}s and no local workers — start one with \
                     `belenos worker --dist-dir {}`",
                    started.elapsed().as_secs_f64(),
                    cfg.dir.display()
                );
                hinted = true;
            }
            if last_progress.elapsed() >= PROGRESS_EVERY {
                let merged = self.merged();
                let line = format!(
                    "dist: {}/{} job(s) outstanding, {} worker(s) seen, {:.0}s elapsed",
                    pending.len(),
                    jobs.len(),
                    merged.per_worker.len(),
                    started.elapsed().as_secs_f64()
                );
                tele.progress(&line);
                eprintln!("{line}");
                last_progress = Instant::now();
            }
            woken += u64::from(wake.wait(seen, idle.step()));
        }

        stop.store(true, Ordering::Relaxed);
        wake.notify();
        for handle in locals {
            // A worker that panicked (it should never) forfeits only
            // its summary; its jobs were re-claimable all along.
            let _ = handle.join();
        }
        span.close_with(&[("sweeps", sweeps.into()), ("woken", woken.into())]);

        rows
    }
}

/// What one [`Coordinator::sweep`] did.
struct Sweep {
    /// Jobs that left `pending` with a result (or a failure).
    resolved: usize,
    /// Jobs put back on the board.
    republished: u64,
}

impl Coordinator {
    /// One look at the board: resolves every pending job whose done
    /// marker (and cache entry) landed, and republishes jobs that
    /// vanished.
    fn sweep(
        &self,
        pending: &mut HashMap<u64, Pending>,
        rows: &mut Vec<(usize, Result<SimStats, String>, Duration)>,
        docs: &HashMap<u64, JobDoc>,
    ) -> Sweep {
        let cfg = &self.cfg;
        let mut resolved: Vec<u64> = Vec::new();
        let mut republished = 0;
        let mut republish = |digest: u64| {
            if let Some(doc) = docs.get(&digest) {
                republished += u64::from(board::publish(cfg, doc).is_ok());
            }
        };
        // Scan order matters for the vanished check: a job moves
        // board → lease → done, and `done` is re-checked last to cover
        // the done-write/lease-remove window.
        let open: HashSet<u64> = board::board_digests(cfg).iter().copied().collect();
        let leased: HashSet<u64> = board::leases(cfg).iter().map(|l| l.digest).collect();
        for (&digest, state) in pending.iter_mut() {
            let marker = cfg.done_path(digest);
            let done = std::fs::read_to_string(&marker)
                .ok()
                .and_then(|text| DoneDoc::decode(&text).ok());
            if let Some(done) = done {
                let result = match &done.error {
                    Some(msg) => Ok(Err(msg.clone())),
                    None => read_stats(&state.cache_entry).map(Ok),
                };
                match result {
                    Ok(result) => {
                        self.merged.lock().unwrap().record(&done);
                        rows.push((
                            state.index,
                            result,
                            Duration::from_secs_f64(done.wall_s.max(0.0)),
                        ));
                        let _ = std::fs::remove_file(&marker);
                        resolved.push(digest);
                    }
                    Err(miss) => {
                        // Marker without a readable result: give the cache
                        // write a grace window, then say what was found
                        // (once, not per sweep) and start the job over.
                        let since = *state.marker_stalled.get_or_insert_with(Instant::now);
                        if since.elapsed() > MARKER_GRACE {
                            state.marker_stalled = None;
                            let _ = std::fs::remove_file(&marker);
                            if let Some(doc) = docs.get(&digest) {
                                report_damaged(miss, &doc.workload, &state.cache_entry);
                            }
                            republish(digest);
                        }
                    }
                }
                continue;
            }
            if open.contains(&digest) || leased.contains(&digest) {
                state.vanished = None;
                continue;
            }
            // Visible nowhere. Either we raced a state transition (a
            // later sweep will see it) or the file is truly gone (an
            // operator wiped the dir) — republish once it stays gone.
            let since = *state.vanished.get_or_insert_with(Instant::now);
            if since.elapsed() > VANISHED_GRACE {
                state.vanished = None;
                republish(digest);
            }
        }
        for digest in &resolved {
            pending.remove(digest);
        }
        Sweep {
            resolved: resolved.len(),
            republished,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merged_summary_tallies_and_percentiles() {
        let mut merged = MergedSummary::default();
        for (worker, wall, stolen, error) in [
            ("w1", 0.1, false, None),
            ("w1", 0.3, true, None),
            ("w2", 0.2, false, Some("boom".to_string())),
        ] {
            merged.record(&DoneDoc {
                digest: 1,
                worker: worker.into(),
                wall_s: wall,
                stolen,
                error,
            });
        }
        assert_eq!(merged.jobs(), 3);
        assert_eq!(merged.stolen(), 1);
        assert_eq!(merged.per_worker["w1"].jobs, 2);
        assert_eq!(merged.per_worker["w2"].failed, 1);
        assert_eq!(merged.sorted_walls(), [0.1, 0.2, 0.3]);
    }

    #[test]
    fn a_job_seen_nowhere_is_republished_by_the_clock_not_by_the_sweep_count() {
        let dir = std::env::temp_dir().join(format!("belenos-dist-clocks-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let coord = Coordinator::new(DistConfig::new(&dir, "c"));
        let cfg = coord.config();
        cfg.ensure_layout().unwrap();
        let digest = 0x51;
        let doc = JobDoc {
            digest,
            workload: "pd".into(),
            label: "baseline".into(),
            scenario: belenos_workloads::by_id("pd").expect("pd preset"),
            config: belenos_uarch::CoreConfig::gem5_baseline(),
            max_ops: 1000,
            sampling: belenos_uarch::SamplingConfig::off(),
        };
        let docs = HashMap::from([(digest, doc)]);
        let mut pending = HashMap::from([(
            digest,
            Pending {
                index: 0,
                cache_entry: cfg.cache_dir().join("pd-0000000000000051.stats"),
                marker_stalled: None,
                vanished: None,
            },
        )]);
        let mut rows = Vec::new();
        // Never published: on no sweep is the job anywhere. Wake-driven
        // sweeps follow each other in microseconds, and any number of
        // them inside the grace must leave the board alone.
        let started = Instant::now();
        for _ in 0..10 {
            let sweep = coord.sweep(&mut pending, &mut rows, &docs);
            if started.elapsed() > VANISHED_GRACE {
                // This thread was held up; the board may rightly differ.
                let _ = std::fs::remove_file(cfg.board_path(digest));
                break;
            }
            assert_eq!((sweep.resolved, sweep.republished), (0, 0));
            assert!(board::board_digests(cfg).is_empty());
        }
        // The same state once the grace has run out.
        let long_ago = Instant::now().checked_sub(2 * VANISHED_GRACE);
        pending.get_mut(&digest).unwrap().vanished = Some(long_ago.expect("uptime"));
        let sweep = coord.sweep(&mut pending, &mut rows, &docs);
        assert_eq!((sweep.resolved, sweep.republished), (0, 1));
        assert_eq!(board::board_digests(cfg), [digest]);
        assert!(pending[&digest].vanished.is_none(), "the clock starts over");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rollup_section_lists_workers_and_aggregate() {
        let dir = std::env::temp_dir().join(format!("belenos-dist-rollup-{}", std::process::id()));
        let coord = Coordinator::new(DistConfig::new(&dir, "c"));
        for w in ["w1", "w2"] {
            coord.merged.lock().unwrap().record(&DoneDoc {
                digest: 1,
                worker: w.into(),
                wall_s: 0.5,
                stolen: w == "w2",
                error: None,
            });
        }
        let mut report = Report::new("telemetry_rollup");
        coord.append_rollup(
            &mut report,
            &CacheStats {
                hits: 7,
                misses: 3,
                inserts: 3,
            },
        );
        let text = report.to_text();
        assert!(text.contains("distributed"), "{text}");
        assert!(text.contains("w1"), "{text}");
        assert!(text.contains("w2"), "{text}");
        assert!(text.contains("(all)"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
