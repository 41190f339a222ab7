//! Per-job telemetry event feeds.
//!
//! The simulation stack already narrates everything that happens —
//! spans, counters, gauges, progress — through the thread's current
//! telemetry handle. The job worker runs each job under a handle of its
//! own ([`JobFeeds::job_handle`], made current with `Telemetry::scope`;
//! the runner passes it on to its worker threads), whose every line
//! lands in that job's feed here and in the sink the server was bound
//! under. So `GET /v1/jobs/{id}/events` streams exactly the subtree of
//! the job it names without anyone inspecting a line: [`JobFeeds`] only
//! buffers lines per job and fans them out to subscribed watchers.
//!
//! Lock discipline: a line is pushed under the emitting handle's line
//! lock and takes only the registry's own lock, which is never held
//! while emitting — so there is no cycle.

use belenos_json::Json;
use belenos_telemetry::Telemetry;
use std::collections::HashMap;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};

/// Per-job buffers hold at most this many lines; older watchers that
/// connect late still see the whole story for any sane job, while a
/// pathological one can't hold the server's memory hostage.
const MAX_BUFFERED_LINES: usize = 10_000;

/// The span name job workers open as each job's subtree root.
pub const JOB_ROOT_SPAN: &str = "serve_job";

#[derive(Default)]
struct JobEvents {
    lines: Vec<String>,
    watchers: Vec<Sender<String>>,
    closed: bool,
}

/// The event feeds of one server's jobs, keyed by job id.
pub struct JobFeeds {
    /// What every job's handle taps: one span-id space and one `t_s`
    /// epoch for all of this server's jobs, whether or not the handle
    /// it forwards to records.
    tele: Telemetry,
    jobs: Mutex<HashMap<u64, JobEvents>>,
}

/// A subscription to one job's event feed: everything buffered so far,
/// plus a live receiver (`None` when the job already finished — the
/// backlog is the whole story).
pub struct Subscription {
    /// Lines emitted before the subscription.
    pub backlog: Vec<String>,
    /// Live lines from now on; dropped (disconnecting the receiver)
    /// when the job finishes.
    pub live: Option<Receiver<String>>,
}

impl JobFeeds {
    /// An empty registry whose jobs' events also reach `upstream`, as
    /// one coherent stream.
    pub fn new(upstream: &Telemetry) -> JobFeeds {
        JobFeeds {
            tele: upstream.tap(|_| {}),
            jobs: Mutex::default(),
        }
    }

    /// The handle to run `job` under: every event it emits is appended
    /// to the job's feed (dropped if the feed is not open).
    pub fn job_handle(self: &Arc<Self>, job: u64) -> Telemetry {
        let feeds = Arc::clone(self);
        self.tele.tap(move |line| {
            if let Some(feed) = feeds.jobs.lock().unwrap().get_mut(&job) {
                push_line(feed, line);
            }
        })
    }

    /// Creates the event feed for a job; called at submission so events
    /// (and subscribers) can never race the feed's existence.
    pub fn open(&self, job: u64) {
        self.jobs.lock().unwrap().insert(job, JobEvents::default());
    }

    /// Marks a job's feed complete: delivers one final synthetic
    /// `job_state` line, then disconnects the watchers so their streams
    /// end. The backlog stays readable for late subscribers until
    /// [`JobFeeds::evict`].
    pub fn finish(&self, job: u64, state: &str) {
        let line = Json::obj(vec![
            ("ev", Json::Str("job_state".into())),
            ("job", Json::Num(job as f64)),
            ("state", Json::Str(state.to_string())),
        ])
        .render();
        if let Some(feed) = self.jobs.lock().unwrap().get_mut(&job) {
            push_line(feed, &line);
            feed.closed = true;
            feed.watchers.clear();
        }
    }

    /// Drops a finished job's buffered feed (record eviction).
    pub fn evict(&self, job: u64) {
        self.jobs.lock().unwrap().remove(&job);
    }

    /// Subscribes to a job's feed; `None` for unknown jobs.
    pub fn subscribe(&self, job: u64) -> Option<Subscription> {
        let mut jobs = self.jobs.lock().unwrap();
        let feed = jobs.get_mut(&job)?;
        let backlog = feed.lines.clone();
        let live = if feed.closed {
            None
        } else {
            let (tx, rx) = std::sync::mpsc::channel();
            feed.watchers.push(tx);
            Some(rx)
        };
        Some(Subscription { backlog, live })
    }
}

fn push_line(feed: &mut JobEvents, line: &str) {
    if feed.lines.len() < MAX_BUFFERED_LINES {
        feed.lines.push(line.to_string());
    }
    feed.watchers.retain(|w| w.send(line.to_string()).is_ok());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_handle_feeds_its_own_job_and_the_upstream_sink() {
        let (base, upstream) = Telemetry::to_buffer();
        let feeds = Arc::new(JobFeeds::new(&base));
        feeds.open(7);
        feeds.open(8);
        let (seven, eight) = (feeds.job_handle(7), feeds.job_handle(8));
        let root7 = seven.span_at(0, JOB_ROOT_SPAN, &[("job", 7u64.into())]);
        let root8 = eight.span_at(0, JOB_ROOT_SPAN, &[("job", 8u64.into())]);
        seven.counter("cache_hits", 1, &[]);
        // Never opened (or already evicted): not buffered anywhere.
        feeds.job_handle(9).counter("noise", 1, &[]);
        let sub = feeds.subscribe(7).unwrap();
        assert_eq!(sub.backlog.len(), 2);
        assert!(sub.backlog[1].contains("cache_hits"));
        assert!(sub.live.is_some());
        assert_eq!(feeds.subscribe(8).unwrap().backlog.len(), 1);
        assert!(feeds.subscribe(9).is_none());
        // One id space across jobs, and every line reached upstream.
        assert_ne!(root7.id(), root8.id());
        assert_eq!(upstream.lines().len(), 4);
        feeds.evict(8);
        assert!(feeds.subscribe(8).is_none());
    }

    #[test]
    fn live_watchers_get_lines_then_disconnect_on_finish() {
        let feeds = Arc::new(JobFeeds::new(&Telemetry::disabled()));
        feeds.open(3);
        let tele = feeds.job_handle(3);
        let root = tele.span_at(0, JOB_ROOT_SPAN, &[("job", 3u64.into())]);
        let sub = feeds.subscribe(3).unwrap();
        let live = sub.live.unwrap();
        tele.progress("working");
        assert!(live.recv().unwrap().contains("working"));
        drop(root);
        assert!(live.recv().unwrap().contains("span_close"));
        feeds.finish(3, "completed");
        // The synthetic terminal line arrives, then the channel closes.
        assert!(live.recv().unwrap().contains("job_state"));
        assert!(live.recv().is_err());
        // Late subscribers get the backlog and no live channel.
        let late = feeds.subscribe(3).unwrap();
        assert!(late.live.is_none());
        assert_eq!(late.backlog.len(), 4);
    }
}
