//! `belenos serve` — a long-running simulation server.
//!
//! One server, one persistent [`Runner`]: the
//! in-memory result cache (made at bind, dropped with the server), the
//! disk cache, and the trace store warm up
//! once and stay warm across requests, which is the whole point of
//! serving instead of forking a CLI per spec. On top of that runner the
//! server adds the three things a shared long-lived endpoint needs and
//! a one-shot CLI does not:
//!
//! * **admission control** — an op-budget ceiling per request, a
//!   bounded job queue (full → 429 with a `Retry-After` hint), and
//!   `workers` jobs at a time that all share the runner's one thread
//!   budget: at most `workers + budget − 1` threads compute at once;
//! * **in-flight dedup** — submissions with an identical spec digest
//!   share one execution (one simulation, N watchers);
//! * **cache GC** — an optional background sweep holding the disk
//!   cache and trace store under a byte budget (see
//!   [`belenos_runner::gc`]).
//!
//! The HTTP layer is hand-rolled HTTP/1.1 over `std::net` (see
//! [`http`]) for the same reason `belenos-json` exists: the toolchain
//! has no registry access, and the API surface is small enough that a
//! framework would be mostly dead weight.
//!
//! # API
//!
//! | Method & path            | Meaning                                   |
//! |--------------------------|-------------------------------------------|
//! | `POST /v1/campaigns`     | submit a campaign spec → `202` + job id   |
//! | `POST /v1/scenarios/run` | submit a scenario batch → `202` + job id  |
//! | `GET /v1/jobs/{id}`      | job state document                        |
//! | `GET /v1/jobs/{id}/report` | the bare report (byte-equal to the CLI) |
//! | `GET /v1/jobs/{id}/events` | NDJSON stream of the job's telemetry    |
//! | `GET /v1/stats`          | server counters and latency percentiles   |
//! | `GET /v1/healthz`        | liveness probe                            |
//! | `POST /v1/shutdown`      | graceful drain and exit                   |
//!
//! # Connections
//!
//! One request per connection; every response says `connection: close`.
//! The listener blocks in `accept` and hands each connection to a thread
//! of its own — at most 256 at a time; past that the accept thread itself
//! answers `503` with `retry-after: 1`. A request, head and body, has
//! 10 s to arrive (`408` otherwise). Nothing on this path sleeps for a
//! fixed time: shutdown ([`ServerHandle::shutdown`], `POST /v1/shutdown`)
//! raises a flag and wakes the loop with one connection to the server's
//! own address, and every connection accepted before the loop ends is
//! answered before [`Server::run`] returns.

pub mod events;
pub mod http;
pub mod jobs;
pub mod signal;
pub mod stats;

pub use events::JobFeeds;
pub use jobs::{JobKind, JobManager, JobSnapshot, JobState, Reject, Submission};
pub use stats::ServeStats;

use belenos::campaign::CampaignSpec;
use belenos::{SimOptions, DEFAULT_MAX_OPS};
use belenos_json::{schema, FromJson, Json};
use belenos_runner::{gc, Budget, Cache, Runner};
use belenos_telemetry::Telemetry;
use belenos_workloads::ScenarioSpec;
use http::{read_request, respond_error, respond_json, start_ndjson, write_ndjson_line, Request};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Head and body of a request must arrive within this long of the accept.
const REQUEST_DEADLINE: Duration = Duration::from_secs(10);

/// Connection handlers alive at once; the accept thread answers `503`
/// itself past this. An `/events` stream holds its handler for the
/// length of a job, so the cap is a few hundred rather than a few.
const MAX_HANDLERS: usize = 256;

/// Request body cap in bytes.
const MAX_BODY_BYTES: usize = 1024 * 1024;

/// Time between background GC sweeps.
const GC_INTERVAL: Duration = Duration::from_secs(60);

/// Everything tunable about a server, with serving-friendly defaults.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`--addr`).
    pub addr: String,
    /// Concurrent jobs (job threads). Each runs its batches itself and
    /// borrows helpers from the one budget below, shared by all of them.
    pub workers: usize,
    /// Jobs that may wait beyond the running ones; more → 429.
    pub queue_depth: usize,
    /// Per-request `options.max_ops` ceiling; `0` disables the check
    /// (and then unlimited-budget specs are admitted too).
    pub op_budget_ceiling: usize,
    /// Thread budget of the server's runner, shared by all of its
    /// jobs' simulation batches; `0` = the process's budget (`--jobs`,
    /// `BELENOS_JOBS` or the machine's parallelism), which prepare
    /// batches and FE assembly draw on either way.
    pub runner_threads: usize,
    /// Disk tier of the server's result cache (`--cache-dir`); `None`
    /// = memory-only.
    pub cache_dir: Option<PathBuf>,
    /// Combined disk budget for `gc_dirs` in bytes; `0` = GC off.
    pub cache_budget_bytes: u64,
    /// Directories the GC budget covers (disk cache, trace store).
    pub gc_dirs: Vec<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:7878".to_string(),
            workers: 2,
            queue_depth: 32,
            op_budget_ceiling: 100_000_000,
            runner_threads: 0,
            cache_dir: None,
            cache_budget_bytes: 0,
            gc_dirs: Vec::new(),
        }
    }
}

struct ServerState {
    config: ServeConfig,
    addr: SocketAddr,
    manager: JobManager,
    feeds: Arc<JobFeeds>,
    stats: Arc<ServeStats>,
    runner: Runner,
    /// Set (under its mutex, so the GC sweeper's timed wait cannot miss
    /// it) once shutdown is requested; the accept loop reads it after
    /// every connection it takes.
    shutdown: Mutex<bool>,
    shutdown_signal: Condvar,
    draining: AtomicBool,
    /// Connection handlers alive right now; [`Server::run`] returns once
    /// it is back to zero.
    handlers: Mutex<usize>,
    handlers_done: Condvar,
    /// The handle that was current at [`Server::bind`]: every thread the
    /// server starts runs under it, wherever [`Server::run`] is called.
    telemetry: Telemetry,
}

/// A bound, not-yet-running server. [`Server::run`] blocks until a
/// graceful shutdown completes.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

/// A cloneable control handle: trigger shutdown from a signal handler
/// watcher, or pause job pickup (the deterministic seam the integration
/// tests use to pile up a queue over real sockets).
#[derive(Clone)]
pub struct ServerHandle {
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Requests a graceful drain-and-exit: stop accepting, run every
    /// accepted job to completion, finish the event streams, return.
    /// The accept loop is woken at once, traffic or no traffic.
    pub fn shutdown(&self) {
        self.state.request_shutdown();
    }

    /// True once shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.state.is_shutdown()
    }

    /// Holds (`true`) or resumes (`false`) job pickup while the queue
    /// keeps accepting — lets tests (and operators) stage dedup and
    /// queue-full situations deterministically.
    pub fn pause_workers(&self, on: bool) {
        self.state.manager.pause(on);
    }
}

/// The server's own mutexes guard a flag, a count and the job table,
/// each changed in short sections that call nothing that panics (a
/// job's own panic is caught before its worker takes the lock again).
const NOT_POISONED: &str = "nothing panics under this lock";

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().expect(NOT_POISONED)
}

impl ServerState {
    fn is_shutdown(&self) -> bool {
        *lock(&self.shutdown)
    }

    /// Fences off new submissions, raises the shutdown flag and wakes
    /// whoever waits on it: the GC sweeper through the condvar, the
    /// accept loop — blocked in `accept` — through one connection to the
    /// server's own address. That connection is handled like any other
    /// (it reads end-of-stream and ends); a failed connect means the
    /// listener is already gone, which is what was asked for.
    fn request_shutdown(&self) {
        self.draining.store(true, Ordering::SeqCst);
        *lock(&self.shutdown) = true;
        self.shutdown_signal.notify_all();
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            // A wildcard bind cannot be connected to; its loopback can.
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        // Timed: with a full backlog the loop is busy accepting and will
        // see the flag after the next connection anyway.
        let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
    }
}

/// One live connection handler; dropping it (return or unwind) gives the
/// slot back.
struct HandlerSlot(Arc<ServerState>);

impl Drop for HandlerSlot {
    fn drop(&mut self) {
        if let Ok(mut live) = self.0.handlers.lock() {
            *live -= 1;
            if *live == 0 {
                self.0.handlers_done.notify_all();
            }
        }
    }
}

impl Server {
    /// Binds the listener and builds the persistent runner. Its result
    /// cache is made here and lives exactly as long as the server
    /// (with the [`ServeConfig::cache_dir`] disk tier, if any):
    /// servers sharing a process share no results, and what a server
    /// holds does not depend on what ran before it. The calling
    /// thread's current telemetry handle becomes the server's: it
    /// receives the server's own counters and every job's events (so
    /// `--telemetry` output is unchanged by serving), while each job's
    /// event feed sees only that job.
    ///
    /// # Errors
    ///
    /// The bind error for an unusable address.
    pub fn bind(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let budget = match config.runner_threads {
            0 => Budget::global().clone(),
            n => Budget::new(n),
        };
        // No progress lines: job progress goes to watchers via the event
        // stream; the server's stderr stays quiet.
        let cache = match &config.cache_dir {
            Some(dir) => Cache::with_disk(dir),
            None => Cache::fresh(),
        };
        let runner = Runner::with_budget(budget, cache);
        let telemetry = belenos_telemetry::global();
        let feeds = Arc::new(JobFeeds::new(&telemetry));
        let stats = Arc::new(ServeStats::new());
        let manager = JobManager::new(
            runner.clone(),
            feeds.clone(),
            stats.clone(),
            config.workers,
            config.queue_depth,
            config.op_budget_ceiling,
        );
        let state = Arc::new(ServerState {
            config,
            addr,
            manager,
            feeds,
            stats,
            runner,
            shutdown: Mutex::new(false),
            shutdown_signal: Condvar::new(),
            draining: AtomicBool::new(false),
            handlers: Mutex::new(0),
            handlers_done: Condvar::new(),
            telemetry,
        });
        Ok(Server { listener, state })
    }

    /// A control handle (cloneable, usable from any thread).
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            state: self.state.clone(),
        }
    }

    /// The address the server actually bound.
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Serves until shutdown is requested, then drains: every accepted
    /// job runs to completion, event streams end, and every connection
    /// accepted so far is answered.
    ///
    /// # Errors
    ///
    /// A non-transient accept error.
    pub fn run(self) -> std::io::Result<()> {
        use std::io::ErrorKind::{ConnectionAborted, Interrupted};
        let Server { listener, state } = self;
        let gc_thread = spawn_gc_sweeper(&state);
        // Blocks in `accept`; `request_shutdown` sends the connection
        // that ends a quiet wait. The flag is read *after* a connection
        // is dispatched, so nothing accepted is dropped unanswered.
        while !state.is_shutdown() {
            match listener.accept() {
                Ok((stream, _peer)) => dispatch(&state, stream),
                // A signal, or a client that gave up while still queued.
                Err(e) if matches!(e.kind(), Interrupted | ConnectionAborted) => {}
                Err(e) => return Err(e),
            }
        }
        // Whoever connects from here on is refused at once instead of
        // sitting in the backlog for the length of the drain.
        drop(listener);
        // Graceful drain: fence off new submissions, run out the queue
        // (unpausing first — a paused manager would strand queued jobs and
        // their watchers), then let the finished event streams unwind
        // the remaining connection handlers.
        state.draining.store(true, Ordering::SeqCst);
        state.manager.pause(false);
        state.manager.drain();
        let idle = state
            .handlers_done
            .wait_while(lock(&state.handlers), |live| *live > 0);
        drop(idle.expect(NOT_POISONED));
        if let Some(handle) = gc_thread {
            let _ = handle.join();
        }
        Ok(())
    }
}

/// Hands an accepted connection to a handler thread of its own, or —
/// with [`MAX_HANDLERS`] of them alive — answers `503` from the accept
/// thread without reading the request.
fn dispatch(state: &Arc<ServerState>, mut stream: TcpStream) {
    let admitted = {
        let mut live = lock(&state.handlers);
        let free = *live < MAX_HANDLERS;
        *live += usize::from(free);
        free
    };
    if !admitted {
        state.stats.note_connection_rejected();
        // Short: this is the thread every other client waits for.
        let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
        let message = format!("all {MAX_HANDLERS} connection handlers are busy");
        let retry = [("retry-after", "1".to_string())];
        let _ = respond_error(&mut stream, 503, &message, None, &retry);
        return;
    }
    state.stats.note_connection_accepted();
    let slot = HandlerSlot(state.clone());
    std::thread::spawn(move || {
        let state = &slot.0;
        let _tele = state.telemetry.scope();
        handle_connection(state, stream)
    });
}

/// Background GC: holds the configured directories under the combined
/// byte budget, sweeping on a fixed cadence until shutdown.
fn spawn_gc_sweeper(state: &Arc<ServerState>) -> Option<std::thread::JoinHandle<()>> {
    let budget = state.config.cache_budget_bytes;
    if budget == 0 || state.config.gc_dirs.is_empty() {
        return None;
    }
    let state = state.clone();
    Some(
        std::thread::Builder::new()
            .name("serve-gc".into())
            .spawn(move || {
                let _tele = state.telemetry.scope();
                loop {
                    match gc::gc_dirs(&state.config.gc_dirs, budget) {
                        Ok(outcome) => state
                            .stats
                            .note_gc_sweep(outcome.deleted_files as u64, outcome.deleted_bytes),
                        Err(e) => state.telemetry.warn(&format!("cache gc sweep failed: {e}")),
                    }
                    // One wait per interval, ended early by shutdown.
                    let (shutdown, _) = state
                        .shutdown_signal
                        .wait_timeout_while(lock(&state.shutdown), GC_INTERVAL, |flag| !*flag)
                        .expect(NOT_POISONED);
                    if *shutdown {
                        return;
                    }
                }
            })
            .expect("spawn gc thread"),
    )
}

fn handle_connection(state: &Arc<ServerState>, mut stream: TcpStream) {
    // A stalled or dribbling client shouldn't pin a handler thread: the
    // whole request, head and body, has one deadline.
    let deadline = Instant::now() + REQUEST_DEADLINE;
    let request = match read_request(&mut stream, MAX_BODY_BYTES, deadline) {
        Ok(request) => request,
        Err(e) => {
            if e.status == 408 {
                state.stats.note_connection_timed_out();
            }
            let _ = respond_error(&mut stream, e.status, &e.message, None, &[]);
            return;
        }
    };
    let _ = route_request(state, &mut stream, &request);
}

fn route_request(
    state: &Arc<ServerState>,
    stream: &mut TcpStream,
    request: &Request,
) -> std::io::Result<()> {
    let method = request.method.as_str();
    let path = request.path.as_str();
    match (method, path) {
        ("POST", "/v1/campaigns") => submit_campaign(state, stream, request),
        ("POST", "/v1/scenarios/run") => submit_scenarios(state, stream, request),
        ("GET", "/v1/stats") => respond_json(stream, 200, &[], &stats_document(state)),
        ("GET", "/v1/healthz") => {
            respond_json(stream, 200, &[], &Json::obj(vec![("ok", Json::Bool(true))]))
        }
        ("POST", "/v1/shutdown") => {
            state.request_shutdown();
            respond_json(
                stream,
                200,
                &[],
                &Json::obj(vec![("draining", Json::Bool(true))]),
            )
        }
        _ => {
            if let Some(rest) = path.strip_prefix("/v1/jobs/") {
                if method != "GET" {
                    return respond_error(stream, 405, "jobs are read-only", None, &[]);
                }
                return job_request(state, stream, rest);
            }
            if matches!(
                path,
                "/v1/campaigns"
                    | "/v1/scenarios/run"
                    | "/v1/stats"
                    | "/v1/healthz"
                    | "/v1/shutdown"
            ) {
                return respond_error(
                    stream,
                    405,
                    &format!("method {method} not allowed for {path}"),
                    None,
                    &[],
                );
            }
            respond_error(stream, 404, &format!("no route for {path}"), None, &[])
        }
    }
}

/// Parses `{id}`, `{id}/report`, `{id}/events` after `/v1/jobs/`.
fn job_request(
    state: &Arc<ServerState>,
    stream: &mut TcpStream,
    rest: &str,
) -> std::io::Result<()> {
    let (id_text, tail) = match rest.split_once('/') {
        Some((id, tail)) => (id, Some(tail)),
        None => (rest, None),
    };
    let Ok(id) = id_text.parse::<u64>() else {
        return respond_error(stream, 400, &format!("bad job id `{id_text}`"), None, &[]);
    };
    match tail {
        None => job_status(state, stream, id),
        Some("report") => job_report(state, stream, id),
        Some("events") => job_events(state, stream, id),
        Some(other) => respond_error(
            stream,
            404,
            &format!("no such job endpoint `{other}`"),
            None,
            &[],
        ),
    }
}

fn submit_campaign(
    state: &Arc<ServerState>,
    stream: &mut TcpStream,
    request: &Request,
) -> std::io::Result<()> {
    let Some(text) = body_text(stream, request)? else {
        return Ok(());
    };
    // `CampaignSpec::parse` is the same validate-everything entry the
    // CLI uses; its errors already name the offending field path.
    let spec = match CampaignSpec::parse(text) {
        Ok(spec) => spec,
        Err(e) => {
            state.stats.note_rejected_invalid();
            return respond_error(stream, 400, &e.to_string(), None, &[]);
        }
    };
    submit(state, stream, JobKind::Campaign(spec))
}

fn submit_scenarios(
    state: &Arc<ServerState>,
    stream: &mut TcpStream,
    request: &Request,
) -> std::io::Result<()> {
    let Some(text) = body_text(stream, request)? else {
        return Ok(());
    };
    let doc = match Json::parse(text) {
        Ok(doc) => doc,
        Err(e) => {
            state.stats.note_rejected_invalid();
            return respond_error(stream, 400, &e.to_string(), None, &[]);
        }
    };
    match parse_scenario_request(&doc) {
        Ok((specs, options)) => submit(state, stream, JobKind::Scenarios { specs, options }),
        Err((message, field)) => {
            state.stats.note_rejected_invalid();
            respond_error(stream, 400, &message, field.as_deref(), &[])
        }
    }
}

/// A submission-validation failure: the message plus the offending
/// field's name for the structured 400 body.
type FieldError = (String, Option<String>);

/// Accepts `{"scenarios": [...], "options": {...}}`, a bare scenario
/// array, or a single scenario object. Options are read over the CLI's
/// defaults (`DEFAULT_MAX_OPS` budget, sampling off, `o3`), whether the
/// request carries an `options` object or not. An envelope key other
/// than those two is refused by name, not ignored: a misspelled
/// `options` would otherwise run at the defaults.
fn parse_scenario_request(doc: &Json) -> Result<(Vec<ScenarioSpec>, SimOptions), FieldError> {
    let defaults = SimOptions::new(DEFAULT_MAX_OPS);
    let (list, options) = match doc.get("scenarios") {
        Some(list) => {
            let envelope = doc.as_obj().unwrap_or_default();
            if let Some((key, _)) = envelope
                .iter()
                .find(|(k, _)| k != "scenarios" && k != "options")
            {
                return Err((
                    format!("unknown field `{key}` (expected one of: scenarios, options)"),
                    Some(key.clone()),
                ));
            }
            (list, doc.get("options"))
        }
        None => (doc, None),
    };
    let options = match options {
        Some(v) => schema::read(&defaults, v, "options")
            .map_err(|e| (e.message, Some("options".to_string())))?,
        None => defaults,
    };
    let items = match list {
        Json::Arr(items) => items.as_slice(),
        Json::Obj(_) => std::slice::from_ref(list),
        _ => {
            return Err((
                "scenarios: expected a scenario object or an array of them".to_string(),
                Some("scenarios".to_string()),
            ))
        }
    };
    if items.is_empty() {
        return Err((
            "scenarios: empty scenario list".to_string(),
            Some("scenarios".to_string()),
        ));
    }
    let in_scenarios = |e: &dyn std::fmt::Display| (e.to_string(), Some("scenarios".to_string()));
    let specs: Vec<ScenarioSpec> = items
        .iter()
        .map(ScenarioSpec::from_json)
        .collect::<Result<_, _>>()
        .map_err(|e| in_scenarios(&e))?;
    ScenarioSpec::validate_list(&specs).map_err(|e| in_scenarios(&e))?;
    Ok((specs, options))
}

/// Shared submission tail: drain fence, admission, 202/400/429.
fn submit(state: &Arc<ServerState>, stream: &mut TcpStream, kind: JobKind) -> std::io::Result<()> {
    if state.draining.load(Ordering::SeqCst) {
        return respond_error(
            stream,
            503,
            "server is draining; not accepting new jobs",
            None,
            &[],
        );
    }
    match state.manager.submit(kind) {
        Ok(sub) => respond_json(
            stream,
            202,
            &[],
            &Json::obj(vec![
                ("job", Json::Num(sub.job as f64)),
                ("state", Json::Str(sub.state.as_str().to_string())),
                ("joined", Json::Bool(sub.joined)),
                ("status_url", Json::Str(format!("/v1/jobs/{}", sub.job))),
                (
                    "events_url",
                    Json::Str(format!("/v1/jobs/{}/events", sub.job)),
                ),
            ]),
        ),
        Err(Reject::Budget { message, field }) => {
            respond_error(stream, 400, &message, Some(field), &[])
        }
        Err(Reject::Busy {
            queued,
            capacity,
            retry_after_s,
        }) => respond_json(
            stream,
            429,
            &[("retry-after", retry_after_s.to_string())],
            &Json::obj(vec![
                (
                    "error",
                    Json::Str(format!(
                        "job queue is full ({queued}/{capacity}); retry after {retry_after_s}s"
                    )),
                ),
                ("queued", Json::Num(queued as f64)),
                ("capacity", Json::Num(capacity as f64)),
                ("retry_after_s", Json::Num(retry_after_s as f64)),
            ]),
        ),
    }
}

/// UTF-8 body or an error response already written (`None`).
fn body_text<'a>(stream: &mut TcpStream, request: &'a Request) -> std::io::Result<Option<&'a str>> {
    if request.body.is_empty() {
        respond_error(stream, 400, "request body required", None, &[])?;
        return Ok(None);
    }
    match std::str::from_utf8(&request.body) {
        Ok(text) => Ok(Some(text)),
        Err(_) => {
            respond_error(stream, 400, "request body is not valid UTF-8", None, &[])?;
            Ok(None)
        }
    }
}

fn job_status(state: &Arc<ServerState>, stream: &mut TcpStream, id: u64) -> std::io::Result<()> {
    let Some(snap) = state.manager.snapshot(id) else {
        return respond_error(stream, 404, &format!("no such job {id}"), None, &[]);
    };
    respond_json(stream, 200, &[], &job_document(&snap))
}

fn job_document(snap: &JobSnapshot) -> Json {
    let mut fields = vec![
        ("job", Json::Num(snap.id as f64)),
        ("kind", Json::Str(snap.kind.to_string())),
        ("name", Json::Str(snap.name.clone())),
        ("state", Json::Str(snap.state.as_str().to_string())),
        ("joined", Json::Num(snap.joined as f64)),
        ("digest", Json::Str(format!("{:016x}", snap.digest))),
    ];
    if let Some(position) = snap.queue_position {
        fields.push(("queue_position", Json::Num(position as f64)));
    }
    if let Some(wait) = snap.queue_wait_s {
        fields.push(("queue_wait_s", Json::Num(wait)));
    }
    if let Some(wall) = snap.wall_s {
        fields.push(("wall_s", Json::Num(wall)));
    }
    if let Some(error) = &snap.error {
        fields.push(("error", Json::Str(error.clone())));
    }
    if let Some(report) = &snap.report {
        fields.push(("report", report.clone()));
    }
    Json::obj(fields)
}

/// The bare report document — exactly what `belenos campaign run
/// --json` prints for the same spec, so clients can diff bytes.
fn job_report(state: &Arc<ServerState>, stream: &mut TcpStream, id: u64) -> std::io::Result<()> {
    let Some(snap) = state.manager.snapshot(id) else {
        return respond_error(stream, 404, &format!("no such job {id}"), None, &[]);
    };
    match (&snap.report, snap.state) {
        (Some(report), _) => respond_json(stream, 200, &[], report),
        (None, JobState::Failed) => respond_error(
            stream,
            409,
            snap.error.as_deref().unwrap_or("job failed"),
            None,
            &[],
        ),
        (None, state) => respond_error(
            stream,
            409,
            &format!("job {id} is {}; no report yet", state.as_str()),
            None,
            &[],
        ),
    }
}

/// NDJSON event stream: buffered backlog first, then live lines until
/// the job finishes (the stream then ends) or the client hangs up.
fn job_events(state: &Arc<ServerState>, stream: &mut TcpStream, id: u64) -> std::io::Result<()> {
    let Some(subscription) = state.feeds.subscribe(id) else {
        return respond_error(stream, 404, &format!("no such job {id}"), None, &[]);
    };
    // Live delivery can idle while a long simulation computes; don't
    // let the handler's read timeout semantics apply to writes.
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    start_ndjson(stream)?;
    for line in &subscription.backlog {
        write_ndjson_line(stream, line)?;
    }
    if let Some(live) = subscription.live {
        // Ends when the feed disconnects its watchers (job finished)
        // or the write fails (client gone).
        while let Ok(line) = live.recv() {
            write_ndjson_line(stream, &line)?;
        }
    }
    Ok(())
}

fn stats_document(state: &Arc<ServerState>) -> Json {
    let stats = &state.stats;
    let [submitted, joined, completed, failed, rejected_busy, rejected_invalid] =
        stats.job_counts();
    let [gc_sweeps, gc_files, gc_bytes] = stats.gc_counts();
    let [accepted, refused, timed_out] = stats.connection_counts();
    let (wait_p50, wait_p95) = stats.queue_wait_percentiles_s();
    let (wall_p50, wall_p95) = stats.job_wall_percentiles_s();
    let cache = state.runner.cache().stats();
    let lookups = cache.lookups();
    let hit_rate = if lookups == 0 {
        0.0
    } else {
        cache.hits as f64 / lookups as f64
    };
    Json::obj(vec![
        ("uptime_s", Json::Num(stats.uptime_s())),
        ("workers", Json::Num(state.manager.workers() as f64)),
        ("queue_depth", Json::Num(state.config.queue_depth as f64)),
        ("queued", Json::Num(state.manager.queued() as f64)),
        ("running", Json::Num(state.manager.running() as f64)),
        (
            "draining",
            Json::Bool(state.draining.load(Ordering::SeqCst)),
        ),
        (
            "jobs",
            Json::obj(vec![
                ("submitted", Json::Num(submitted as f64)),
                ("joined", Json::Num(joined as f64)),
                ("completed", Json::Num(completed as f64)),
                ("failed", Json::Num(failed as f64)),
                ("rejected_queue_full", Json::Num(rejected_busy as f64)),
                ("rejected_invalid", Json::Num(rejected_invalid as f64)),
            ]),
        ),
        (
            "connections",
            Json::obj(vec![
                ("accepted", Json::Num(accepted as f64)),
                ("rejected_busy", Json::Num(refused as f64)),
                ("timed_out", Json::Num(timed_out as f64)),
            ]),
        ),
        (
            "queue_wait_s",
            Json::obj(vec![
                ("p50", Json::Num(wait_p50)),
                ("p95", Json::Num(wait_p95)),
            ]),
        ),
        (
            "job_wall_s",
            Json::obj(vec![
                ("p50", Json::Num(wall_p50)),
                ("p95", Json::Num(wall_p95)),
            ]),
        ),
        (
            "worker_utilization",
            Json::Num(stats.worker_utilization(state.manager.workers())),
        ),
        (
            "cache",
            Json::obj(vec![
                ("hits", Json::Num(cache.hits as f64)),
                ("misses", Json::Num(cache.misses as f64)),
                ("lookups", Json::Num(lookups as f64)),
                ("hit_rate", Json::Num(hit_rate)),
                ("entries", Json::Num(state.runner.cache().len() as f64)),
            ]),
        ),
        (
            "gc",
            Json::obj(vec![
                ("sweeps", Json::Num(gc_sweeps as f64)),
                ("deleted_files", Json::Num(gc_files as f64)),
                ("deleted_bytes", Json::Num(gc_bytes as f64)),
            ]),
        ),
    ])
}

#[cfg(test)]
#[path = "../../../tests/hostile.rs"]
mod hostile;

#[cfg(test)]
mod tests {
    use super::*;
    use belenos_json::ToJson;
    use proptest::prelude::*;
    use std::io::{Read, Write};
    use std::sync::mpsc;

    fn read_request(text: &str) -> Result<(Vec<ScenarioSpec>, SimOptions), String> {
        let doc = Json::parse(text).map_err(|e| e.message)?;
        parse_scenario_request(&doc).map_err(|(message, _)| message)
    }

    fn encode_request((specs, options): &(Vec<ScenarioSpec>, SimOptions)) -> String {
        Json::obj(vec![
            ("scenarios", specs.to_json()),
            ("options", options.to_json()),
        ])
        .pretty()
    }

    /// A batch of the golden `co` scenario under the golden `smarts(8)`
    /// options, as a request with an envelope, a bare array and a bare
    /// scenario.
    fn golden_requests() -> [String; 3] {
        let co = include_str!("../../../tests/golden/specs/co.json");
        let options = include_str!("../../../tests/golden/specs/options_smarts8.json");
        [
            format!(r#"{{"scenarios": [{co}], "options": {options}}}"#),
            format!("[{co}]"),
            co.to_string(),
        ]
    }

    #[test]
    fn hostile_scenario_requests_are_refused_or_read_to_a_fixed_point() {
        for golden in golden_requests() {
            hostile::check(&golden, read_request, encode_request);
            for doc in hostile::mutations(&golden) {
                hostile::check(&doc, read_request, encode_request);
            }
            for doc in hostile::type_swaps(&Json::parse(&golden).unwrap()) {
                hostile::check(&doc.pretty(), read_request, encode_request);
            }
        }
    }

    fn words() -> Vec<String> {
        let mut words = Vec::new();
        for golden in golden_requests() {
            hostile::keys(&Json::parse(&golden).unwrap(), &mut words);
        }
        words.extend(["contact", "co", "off", "on", "analytic"].map(str::to_string));
        words
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        #[test]
        fn random_scenario_requests_are_refused_or_read_to_a_fixed_point(
            doc in hostile::Trees { depth: 4, words: words() }
        ) {
            hostile::check(&doc.render(), read_request, encode_request);
        }
    }

    /// Everything the server sends on a fresh connection after `request`
    /// (nothing is sent for an empty one).
    fn exchange(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(request.as_bytes()).expect("write");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read to end");
        response
    }

    /// Opens connections that send nothing until every handler slot is
    /// taken, then checks that one more is turned away by the accept
    /// thread. Each connect waits for the one before it to be accepted,
    /// so the listen backlog never overflows (a dropped SYN costs a
    /// second) and the last one finds the count exactly at the cap.
    fn fill_to_the_cap(state: &ServerState) -> Vec<TcpStream> {
        let accepted = || state.stats.connection_counts()[0];
        let before = accepted();
        let patience = Instant::now() + Duration::from_secs(30);
        let idle: Vec<TcpStream> = (1..=MAX_HANDLERS as u64)
            .map(|n| {
                let stream = TcpStream::connect(state.addr).expect("connect");
                while accepted() < before + n {
                    assert!(Instant::now() < patience, "connection {n} never accepted");
                    std::thread::yield_now();
                }
                stream
            })
            .collect();
        let refused = exchange(state.addr, "");
        assert!(refused.starts_with("HTTP/1.1 503 "), "{refused}");
        assert!(refused.contains("\r\nretry-after: 1\r\n"), "{refused}");
        assert!(refused.contains("\r\nconnection: close\r\n"), "{refused}");
        idle
    }

    /// A server on `addr`, running; the receiver yields what `run` returned.
    fn serving(addr: &str) -> (ServerHandle, mpsc::Receiver<std::io::Result<()>>) {
        let server = Server::bind(ServeConfig {
            addr: addr.to_string(),
            workers: 1,
            runner_threads: 1,
            ..ServeConfig::default()
        })
        .expect("bind");
        let handle = server.handle();
        let (done, finished) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = done.send(server.run());
        });
        (handle, finished)
    }

    fn assert_served(finished: &mpsc::Receiver<std::io::Result<()>>) {
        let served = finished.recv_timeout(Duration::from_secs(30));
        assert!(
            matches!(served, Ok(Ok(()))),
            "run did not return: {served:?}"
        );
    }

    #[test]
    fn shutdown_wakes_a_server_bound_to_the_wildcard_address() {
        let (handle, finished) = serving("0.0.0.0:0");
        assert!(handle.local_addr().ip().is_unspecified());
        handle.shutdown();
        assert_served(&finished);
    }

    #[test]
    fn past_the_handler_cap_connections_get_503_and_shutdown_still_wakes_the_loop() {
        let (handle, finished) = serving("127.0.0.1:0");
        let addr = handle.local_addr();
        let state = &handle.state;

        let idle = fill_to_the_cap(state);
        assert_eq!(state.stats.connection_counts(), [MAX_HANDLERS as u64, 1, 0]);

        // Closing the idle connections ends their handlers; with the
        // slots back the server answers again.
        drop(idle);
        let live = state.handlers.lock().unwrap();
        let (live, timeout) = state
            .handlers_done
            .wait_timeout_while(live, Duration::from_secs(30), |live| *live > 0)
            .unwrap();
        assert!(!timeout.timed_out(), "{} handler(s) never ended", *live);
        drop(live);
        let health = exchange(addr, "GET /v1/healthz HTTP/1.1\r\n\r\n");
        assert!(health.starts_with("HTTP/1.1 200 "), "{health}");

        // At the cap again, the wake connection is itself turned away —
        // by the loop that then reads the flag and ends.
        let idle = fill_to_the_cap(state);
        handle.shutdown();
        drop(idle);
        assert_served(&finished);
    }
}
