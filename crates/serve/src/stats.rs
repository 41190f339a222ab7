//! Server-lifetime counters and latency samples for `GET /v1/stats`.
//!
//! Everything here is owned by the serving layer: job acceptance
//! outcomes, queue-wait and job-wall latency distributions, GC sweep
//! totals. Simulation-side numbers (cache hit rate, entries) come
//! straight from the runner's [`belenos_runner::CacheStats`] at
//! snapshot time instead of being mirrored here.

use belenos_telemetry::percentile;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Latency samples kept per series; oldest are discarded past this, so
/// the percentiles describe recent behavior on a long-lived server.
const MAX_SAMPLES: usize = 4096;

#[derive(Default)]
struct Samples {
    queue_wait_s: Vec<f64>,
    job_wall_s: Vec<f64>,
    /// Total worker-seconds spent executing jobs (for utilization).
    busy_s: f64,
}

/// Monotonic counters plus bounded latency reservoirs.
pub struct ServeStats {
    started: Instant,
    submitted: AtomicU64,
    joined: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    rejected_busy: AtomicU64,
    rejected_invalid: AtomicU64,
    connections_accepted: AtomicU64,
    connections_rejected: AtomicU64,
    connections_timed_out: AtomicU64,
    gc_sweeps: AtomicU64,
    gc_deleted_files: AtomicU64,
    gc_deleted_bytes: AtomicU64,
    samples: Mutex<Samples>,
}

impl ServeStats {
    /// Fresh stats; uptime is measured from this call.
    pub fn new() -> ServeStats {
        ServeStats {
            started: Instant::now(),
            submitted: AtomicU64::new(0),
            joined: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            rejected_busy: AtomicU64::new(0),
            rejected_invalid: AtomicU64::new(0),
            connections_accepted: AtomicU64::new(0),
            connections_rejected: AtomicU64::new(0),
            connections_timed_out: AtomicU64::new(0),
            gc_sweeps: AtomicU64::new(0),
            gc_deleted_files: AtomicU64::new(0),
            gc_deleted_bytes: AtomicU64::new(0),
            samples: Mutex::new(Samples::default()),
        }
    }

    /// Seconds since the server came up.
    pub fn uptime_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// A new job was accepted and enqueued.
    pub fn note_submitted(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    /// A submission joined an in-flight duplicate.
    pub fn note_joined(&self) {
        self.joined.fetch_add(1, Ordering::Relaxed);
    }

    /// A job finished with a report.
    pub fn note_completed(&self) {
        self.completed.fetch_add(1, Ordering::Relaxed);
    }

    /// A job finished with an error.
    pub fn note_failed(&self) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    /// A submission bounced off the full queue.
    pub fn note_rejected_busy(&self) {
        self.rejected_busy.fetch_add(1, Ordering::Relaxed);
    }

    /// A submission violated an admission limit.
    pub fn note_rejected_invalid(&self) {
        self.rejected_invalid.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection was handed to a handler thread.
    pub fn note_connection_accepted(&self) {
        self.connections_accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection was answered `503` by the accept thread: every
    /// handler slot was taken.
    pub fn note_connection_rejected(&self) {
        self.connections_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// A request did not arrive whole within its deadline (`408`).
    pub fn note_connection_timed_out(&self) {
        self.connections_timed_out.fetch_add(1, Ordering::Relaxed);
    }

    /// One background GC sweep ran, deleting the given totals.
    pub fn note_gc_sweep(&self, deleted_files: u64, deleted_bytes: u64) {
        self.gc_sweeps.fetch_add(1, Ordering::Relaxed);
        self.gc_deleted_files
            .fetch_add(deleted_files, Ordering::Relaxed);
        self.gc_deleted_bytes
            .fetch_add(deleted_bytes, Ordering::Relaxed);
    }

    /// Records how long a job waited for a worker.
    pub fn record_queue_wait_s(&self, wait_s: f64) {
        push_sample(&mut self.samples.lock().unwrap().queue_wait_s, wait_s);
    }

    /// Records a finished job's execution wall time.
    pub fn record_job_wall_s(&self, wall_s: f64) {
        let mut samples = self.samples.lock().unwrap();
        samples.busy_s += wall_s;
        push_sample(&mut samples.job_wall_s, wall_s);
    }

    /// Counter values in `/v1/stats` order: submitted, joined,
    /// completed, failed, rejected_queue_full, rejected_invalid.
    pub fn job_counts(&self) -> [u64; 6] {
        [
            self.submitted.load(Ordering::Relaxed),
            self.joined.load(Ordering::Relaxed),
            self.completed.load(Ordering::Relaxed),
            self.failed.load(Ordering::Relaxed),
            self.rejected_busy.load(Ordering::Relaxed),
            self.rejected_invalid.load(Ordering::Relaxed),
        ]
    }

    /// Connection totals in `/v1/stats` order: accepted, rejected_busy,
    /// timed_out.
    pub fn connection_counts(&self) -> [u64; 3] {
        [
            self.connections_accepted.load(Ordering::Relaxed),
            self.connections_rejected.load(Ordering::Relaxed),
            self.connections_timed_out.load(Ordering::Relaxed),
        ]
    }

    /// GC totals: sweeps, deleted files, deleted bytes.
    pub fn gc_counts(&self) -> [u64; 3] {
        [
            self.gc_sweeps.load(Ordering::Relaxed),
            self.gc_deleted_files.load(Ordering::Relaxed),
            self.gc_deleted_bytes.load(Ordering::Relaxed),
        ]
    }

    /// (p50, p95) of recent queue waits, seconds; zeros before any job.
    pub fn queue_wait_percentiles_s(&self) -> (f64, f64) {
        percentiles(&self.samples.lock().unwrap().queue_wait_s)
    }

    /// (p50, p95) of recent job wall times, seconds.
    pub fn job_wall_percentiles_s(&self) -> (f64, f64) {
        percentiles(&self.samples.lock().unwrap().job_wall_s)
    }

    /// Median job wall time (the retry-hint basis); zero before any job.
    pub fn job_wall_p50_s(&self) -> f64 {
        self.job_wall_percentiles_s().0
    }

    /// Fraction of worker capacity spent executing jobs since start.
    pub fn worker_utilization(&self, workers: usize) -> f64 {
        let busy = self.samples.lock().unwrap().busy_s;
        let capacity = self.uptime_s() * workers.max(1) as f64;
        if capacity <= 0.0 {
            0.0
        } else {
            (busy / capacity).min(1.0)
        }
    }
}

impl Default for ServeStats {
    fn default() -> Self {
        ServeStats::new()
    }
}

fn push_sample(series: &mut Vec<f64>, value: f64) {
    if series.len() >= MAX_SAMPLES {
        series.remove(0);
    }
    series.push(value);
}

fn percentiles(series: &[f64]) -> (f64, f64) {
    let mut sorted = series.to_vec();
    sorted.sort_by(f64::total_cmp);
    (percentile(&sorted, 50), percentile(&sorted, 95))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_a_simple_series() {
        let stats = ServeStats::new();
        for w in 1..=100 {
            stats.record_job_wall_s(w as f64);
        }
        let (p50, p95) = stats.job_wall_percentiles_s();
        assert_eq!(p50, 50.0);
        assert_eq!(p95, 95.0);
    }

    #[test]
    fn counters_land_in_their_slots() {
        let stats = ServeStats::new();
        stats.note_submitted();
        stats.note_submitted();
        stats.note_joined();
        stats.note_failed();
        stats.note_rejected_busy();
        assert_eq!(stats.job_counts(), [2, 1, 0, 1, 1, 0]);
        stats.note_gc_sweep(3, 4096);
        assert_eq!(stats.gc_counts(), [1, 3, 4096]);
        stats.note_connection_accepted();
        stats.note_connection_accepted();
        stats.note_connection_timed_out();
        assert_eq!(stats.connection_counts(), [2, 0, 1]);
    }
}
