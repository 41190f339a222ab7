//! # belenos-telemetry
//!
//! Structured observability for the Belenos stack: hierarchical spans
//! with wall-time, monotonic counters, gauges, and `warn`/`progress`
//! events, serialized as JSONL (one compact [`belenos_json`] object per
//! line) to a sink selected by `--telemetry <path|stderr|off>`.
//! Like `belenos-json` and the proptest shim, the crate is std-only —
//! the build environment has no registry access, so the usual tracing
//! ecosystem is out of reach.
//!
//! ## Design
//!
//! * **Near-zero cost when disabled.** A [`Telemetry`] handle is an
//!   `Option<Arc<Sink>>`; every emit method begins with an `is_none`
//!   check and returns immediately, allocating nothing and touching no
//!   shared state. Simulation results are *never* affected either way —
//!   telemetry only observes, and the o3 digest-pin tests prove it.
//! * **Hierarchical spans.** [`Telemetry::span`] opens a span whose
//!   parent is the thread's current span (a thread-local), emits a
//!   `span_open` event, and returns a [`Span`] guard that emits
//!   `span_close` with the measured wall time on drop. The campaign
//!   layer produces the `campaign > analysis` levels, the runner the
//!   `job` level (parented explicitly across worker threads with
//!   [`Telemetry::span_at`]), and the experiment layer the `phase`
//!   level — nesting follows automatically.
//! * **One current handle per thread.** Layers that cannot thread a
//!   handle through their call graph (the `Simulate` trait, the
//!   on-disk tiers' miss reports) use [`global`]: the innermost handle a
//!   [`Telemetry::scope`] guard made current on this thread, else the
//!   process-wide one the CLI [`install`]s from `--telemetry`. Code that
//!   starts a thread hands its current handle to it, so a test, a served
//!   job and a dist worker each observe their own run and no other.
//!
//! ## Event schema
//!
//! Every line is a JSON object with an `ev` discriminant and `t_s`
//! (seconds since the sink opened):
//!
//! | `ev`         | fields                                              |
//! |--------------|-----------------------------------------------------|
//! | `span_open`  | `id`, `parent` (0 = root), `name`, + caller fields  |
//! | `span_close` | `id`, `name`, `wall_s`, + caller fields             |
//! | `counter`    | `name`, `value` (integer), `span`, + caller fields  |
//! | `gauge`      | `name`, `value` (float), `span`, + caller fields    |
//! | `warn`       | `msg`                                               |
//! | `progress`   | `msg`, `span`                                       |

use belenos_json::Json;
use std::cell::{Cell, RefCell};
use std::io::Write;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A field value attached to an event.
///
/// Conversions exist for the common primitives, so call sites write
/// `("jobs", plan.len().into())`.
#[derive(Debug, Clone)]
pub enum Value {
    /// An integer counter-like value.
    U64(u64),
    /// A floating-point measurement.
    F64(f64),
    /// A label.
    Str(String),
    /// A flag.
    Bool(bool),
}

impl Value {
    fn to_json(&self) -> Json {
        match self {
            Value::U64(n) => Json::Num(*n as f64),
            Value::F64(x) => Json::Num(*x),
            Value::Str(s) => Json::Str(s.clone()),
            Value::Bool(b) => Json::Bool(*b),
        }
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::U64(n)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::U64(n as u64)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Value {
        Value::F64(x)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

/// Where events go: a line-buffered writer behind a mutex (events from
/// worker threads interleave whole lines, never bytes).
enum Output {
    Stderr,
    File(std::fs::File),
    Buffer(Arc<Mutex<Vec<u8>>>),
    /// [`Telemetry::tap`]: `feed` sees each rendered line (without its
    /// newline), then the tapped sink writes it.
    Tap {
        feed: Box<dyn Fn(&str) + Send + Sync>,
        upstream: Option<Arc<Sink>>,
    },
}

struct Sink {
    out: Mutex<Output>,
    /// Span ids and the `t_s` epoch; a tap shares its upstream's, so
    /// the two streams agree on both.
    next_id: Arc<AtomicU64>,
    start: Instant,
}

impl Sink {
    fn write_line(&self, line: &str) {
        let mut out = self.out.lock().unwrap();
        // Sink failures must never break a run; drop the event instead.
        let _ = match &mut *out {
            Output::Stderr => writeln!(std::io::stderr(), "{line}"),
            Output::File(f) => writeln!(f, "{line}"),
            Output::Buffer(buf) => writeln!(buf.lock().unwrap(), "{line}"),
            Output::Tap { feed, upstream } => {
                feed(line);
                if let Some(upstream) = upstream {
                    upstream.write_line(line);
                }
                Ok(())
            }
        };
    }
}

impl std::fmt::Debug for Sink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sink").finish_non_exhaustive()
    }
}

thread_local! {
    /// The innermost open span on this thread (0 = none). New spans
    /// parent under it; [`Span`] guards maintain it as a stack.
    static CURRENT_SPAN: Cell<u64> = const { Cell::new(0) };
    /// The innermost handle a [`Scope`] made current on this thread;
    /// `None` falls through to the process-wide handle.
    static CURRENT: RefCell<Option<Telemetry>> = const { RefCell::new(None) };
}

/// A cheap, cloneable handle to the telemetry sink.
///
/// Disabled handles (the default) are a `None` and every method is a
/// no-op. The `quiet` flag distinguishes *explicitly* silenced telemetry
/// (`--telemetry off`, which also suppresses the stderr fallback
/// of [`Telemetry::warn`]) from merely unconfigured telemetry.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    sink: Option<Arc<Sink>>,
    quiet: bool,
}

/// An in-memory event buffer for tests: read the emitted JSONL back
/// with [`TelemetryBuffer::contents`] / [`TelemetryBuffer::lines`].
#[derive(Debug, Clone)]
pub struct TelemetryBuffer(Arc<Mutex<Vec<u8>>>);

impl TelemetryBuffer {
    /// The raw JSONL text emitted so far.
    pub fn contents(&self) -> String {
        String::from_utf8_lossy(&self.0.lock().unwrap()).into_owned()
    }

    /// The emitted lines (one event each), in emission order.
    pub fn lines(&self) -> Vec<String> {
        self.contents().lines().map(str::to_string).collect()
    }

    /// The emitted events, parsed (every line this crate writes is JSON).
    pub fn events(&self) -> Vec<Json> {
        let parse = |l: &str| Json::parse(l).expect("event lines are JSON");
        self.contents().lines().map(parse).collect()
    }
}

impl Telemetry {
    /// A disabled handle: every emit is a no-op, but [`Telemetry::warn`]
    /// still falls back to stderr (telemetry was not *asked* to be off).
    pub const fn disabled() -> Telemetry {
        Telemetry {
            sink: None,
            quiet: false,
        }
    }

    /// An explicitly-off handle (`--telemetry off`): every emit is
    /// a no-op *and* the stderr warning fallback is suppressed.
    pub fn off() -> Telemetry {
        Telemetry {
            sink: None,
            quiet: true,
        }
    }

    /// A handle writing JSONL events to stderr.
    pub fn to_stderr() -> Telemetry {
        Telemetry::with_output(Output::Stderr, None)
    }

    /// A handle appending JSONL events to the file at `path` (created or
    /// truncated).
    ///
    /// # Errors
    ///
    /// The I/O error message when the file cannot be created.
    pub fn to_path(path: &str) -> Result<Telemetry, String> {
        let file = std::fs::File::create(path)
            .map_err(|e| format!("telemetry: could not create {path}: {e}"))?;
        Ok(Telemetry::with_output(Output::File(file), None))
    }

    /// A handle writing into an in-memory buffer, plus the buffer —
    /// the test harness for span-nesting and round-trip assertions.
    pub fn to_buffer() -> (Telemetry, TelemetryBuffer) {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let t = Telemetry::with_output(Output::Buffer(buf.clone()), None);
        (t, TelemetryBuffer(buf))
    }

    /// A handle that forwards every event to this one and also hands
    /// the rendered JSONL line (without its newline) to `feed` — how the
    /// serve layer fills a job's event feed. Span ids and `t_s` come from
    /// this handle's counter and clock, so both views are one coherent
    /// stream; a disabled handle's tap starts its own and forwards nowhere.
    ///
    /// `feed` runs under the tap's line lock: lines arrive whole and in
    /// emission order, and `feed` must not emit into the tap itself.
    pub fn tap(&self, feed: impl Fn(&str) + Send + Sync + 'static) -> Telemetry {
        let out = Output::Tap {
            feed: Box::new(feed),
            upstream: self.sink.clone(),
        };
        Telemetry::with_output(out, self.sink.as_deref())
    }

    /// A recording handle; `clock` lends its id counter and epoch.
    fn with_output(out: Output, clock: Option<&Sink>) -> Telemetry {
        let (next_id, start) = match clock {
            Some(sink) => (sink.next_id.clone(), sink.start),
            None => (Arc::new(AtomicU64::new(1)), Instant::now()),
        };
        Telemetry {
            sink: Some(Arc::new(Sink {
                out: Mutex::new(out),
                next_id,
                start,
            })),
            quiet: false,
        }
    }

    /// Makes this handle the calling thread's current one — what
    /// [`global`] returns — until the guard drops, which restores the
    /// previous one (also on unwind). Guards nest as a stack. A thread
    /// started inside the scope does not inherit it: pass the handle
    /// and open a scope there.
    pub fn scope(&self) -> Scope {
        Scope {
            prev: CURRENT.with(|c| c.replace(Some(self.clone()))),
            _this_thread: PhantomData,
        }
    }

    /// Parses a sink selection: `off` (silent), `stderr`, or a file
    /// path. This is the `--telemetry` vocabulary.
    ///
    /// # Errors
    ///
    /// The I/O error message when a path sink cannot be created.
    pub fn parse(value: &str) -> Result<Telemetry, String> {
        match value.trim() {
            "" | "off" | "0" | "none" => Ok(Telemetry::off()),
            "stderr" => Ok(Telemetry::to_stderr()),
            path => Telemetry::to_path(path),
        }
    }

    /// True when events are actually recorded.
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Opens a span named `name` under the thread's current span,
    /// emitting `span_open` with `fields`. The returned guard emits
    /// `span_close` with the measured wall time when dropped, and makes
    /// this span the thread's current one until then.
    ///
    /// Field keys must not reuse the reserved event keys (`ev`, `id`,
    /// `parent`, `name`, `t_s` — and `value`/`span` for counter/gauge
    /// events): a duplicate key makes the JSONL line ambiguous.
    pub fn span(&self, name: &str, fields: &[(&str, Value)]) -> Span {
        let parent = CURRENT_SPAN.with(Cell::get);
        self.span_at(parent, name, fields)
    }

    /// Opens a span under an explicit `parent` id — the cross-thread
    /// variant: the runner's worker threads parent their `job` spans
    /// under the batch span opened on the submitting thread.
    pub fn span_at(&self, parent: u64, name: &str, fields: &[(&str, Value)]) -> Span {
        let Some(sink) = &self.sink else {
            return Span {
                sink: None,
                id: 0,
                prev: 0,
                name: String::new(),
                start: Instant::now(),
            };
        };
        let id = sink.next_id.fetch_add(1, Ordering::Relaxed);
        let mut pairs = vec![
            ("ev", Json::Str("span_open".into())),
            ("id", Json::Num(id as f64)),
            ("parent", Json::Num(parent as f64)),
            ("name", Json::Str(name.to_string())),
            ("t_s", Json::Num(sink.start.elapsed().as_secs_f64())),
        ];
        pairs.extend(fields.iter().map(|(k, v)| (*k, v.to_json())));
        sink.write_line(&Json::obj(pairs).render());
        let prev = CURRENT_SPAN.with(|c| c.replace(id));
        Span {
            sink: Some(sink.clone()),
            id,
            prev,
            name: name.to_string(),
            start: Instant::now(),
        }
    }

    fn event(&self, ev: &str, name: &str, value: Json, fields: &[(&str, Value)]) {
        let Some(sink) = &self.sink else { return };
        let mut pairs = vec![
            ("ev", Json::Str(ev.to_string())),
            ("name", Json::Str(name.to_string())),
            ("value", value),
            ("span", Json::Num(CURRENT_SPAN.with(Cell::get) as f64)),
            ("t_s", Json::Num(sink.start.elapsed().as_secs_f64())),
        ];
        pairs.extend(fields.iter().map(|(k, v)| (*k, v.to_json())));
        sink.write_line(&Json::obj(pairs).render());
    }

    /// Emits a monotonic-counter observation (`value` is the amount
    /// counted by this observation, not a running total).
    pub fn counter(&self, name: &str, value: u64, fields: &[(&str, Value)]) {
        self.event("counter", name, Json::Num(value as f64), fields);
    }

    /// Emits a point-in-time gauge measurement.
    pub fn gauge(&self, name: &str, value: f64, fields: &[(&str, Value)]) {
        self.event("gauge", name, Json::Num(value), fields);
    }

    /// Emits a structured warning. With telemetry merely unconfigured the
    /// message falls back to stderr (misconfiguration must stay visible);
    /// `--telemetry off` suppresses it entirely.
    pub fn warn(&self, msg: &str) {
        match &self.sink {
            Some(sink) => sink.write_line(
                &Json::obj(vec![
                    ("ev", Json::Str("warn".into())),
                    ("msg", Json::Str(msg.to_string())),
                    ("t_s", Json::Num(sink.start.elapsed().as_secs_f64())),
                ])
                .render(),
            ),
            None if !self.quiet => eprintln!("{msg}"),
            None => {}
        }
    }

    /// Emits a structured progress line (no-op unless enabled — stderr
    /// progress streaming stays the runner `progress` flag's business).
    pub fn progress(&self, msg: &str) {
        let Some(sink) = &self.sink else { return };
        sink.write_line(
            &Json::obj(vec![
                ("ev", Json::Str("progress".into())),
                ("msg", Json::Str(msg.to_string())),
                ("span", Json::Num(CURRENT_SPAN.with(Cell::get) as f64)),
                ("t_s", Json::Num(sink.start.elapsed().as_secs_f64())),
            ])
            .render(),
        );
    }
}

/// An open span. Dropping it emits `span_close` with the wall time and
/// restores the thread's previous current span.
#[derive(Debug)]
pub struct Span {
    sink: Option<Arc<Sink>>,
    id: u64,
    prev: u64,
    name: String,
    start: Instant,
}

impl Span {
    /// This span's id (0 when telemetry is disabled) — the explicit
    /// parent for [`Telemetry::span_at`] across threads.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Closes the span now, with `fields` appended to its `span_close`
    /// event — for what is only known once the work is over (how often
    /// a wait loop ran). Same key rules as [`Telemetry::span`], plus
    /// `wall_s`.
    pub fn close_with(mut self, fields: &[(&str, Value)]) {
        self.close(fields);
    }

    /// Emits `span_close` once: the sink is taken, so the drop that
    /// follows [`Span::close_with`] finds nothing left to do.
    fn close(&mut self, fields: &[(&str, Value)]) {
        let Some(sink) = self.sink.take() else { return };
        let mut pairs = vec![
            ("ev", Json::Str("span_close".into())),
            ("id", Json::Num(self.id as f64)),
            ("name", Json::Str(std::mem::take(&mut self.name))),
            ("t_s", Json::Num(sink.start.elapsed().as_secs_f64())),
            ("wall_s", Json::Num(self.start.elapsed().as_secs_f64())),
        ];
        pairs.extend(fields.iter().map(|(k, v)| (*k, v.to_json())));
        sink.write_line(&Json::obj(pairs).render());
        CURRENT_SPAN.with(|c| {
            // Only restore if this span is still the innermost one on
            // this thread (guards dropped out of order, or across
            // threads, must not clobber an unrelated stack).
            if c.get() == self.id {
                c.set(self.prev);
            }
        });
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        // Checked here too so a disabled span's drop is this one branch.
        if self.sink.is_some() {
            self.close(&[]);
        }
    }
}

/// A [`Telemetry::scope`] in effect on the thread that opened it.
#[derive(Debug)]
pub struct Scope {
    prev: Option<Telemetry>,
    /// The guard restores a thread-local, so it must not change threads.
    _this_thread: PhantomData<*const ()>,
}

impl Drop for Scope {
    fn drop(&mut self) {
        // `try_with`: a guard dropped during thread teardown has nothing
        // left to restore, and `Drop` must not panic.
        let _ = CURRENT.try_with(|c| *c.borrow_mut() = self.prev.take());
    }
}

/// The process-wide handle: disabled until [`install`] replaces it.
static GLOBAL: Mutex<Telemetry> = Mutex::new(Telemetry::disabled());

/// The calling thread's current handle: the innermost
/// [`Telemetry::scope`], else the process-wide handle (disabled unless
/// [`install`]ed). Layers that cannot thread a
/// handle through their call graph (the runner's `Simulate` trait, the
/// uarch env parser) emit through this.
pub fn global() -> Telemetry {
    CURRENT
        .with(|c| c.borrow().clone())
        .unwrap_or_else(|| GLOBAL.lock().unwrap().clone())
}

/// Replaces the process-wide handle (the CLI's `--telemetry` flag),
/// returning the previous one. Threads inside a [`Telemetry::scope`]
/// are unaffected.
pub fn install(t: Telemetry) -> Telemetry {
    std::mem::replace(&mut *GLOBAL.lock().unwrap(), t)
}

/// Runs `f` with a fresh buffer sink as this thread's current handle
/// and returns its result with the events it emitted — how tests (and
/// embedders) observe one run without touching any other.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, Vec<Json>) {
    let (sink, buf) = Telemetry::to_buffer();
    let out = {
        let _scope = sink.scope();
        f()
    };
    (out, buf.events())
}

/// The `p`-th percentile (`p` in 0..=100) of an ascending slice, by
/// lower nearest rank: element `(n - 1) * p / 100`. The one routine
/// behind the runner summary, the dist merged summary and `/v1/stats`;
/// an empty slice yields `T::default()`.
pub fn percentile<T: Copy + Default>(sorted: &[T], p: usize) -> T {
    match sorted.len() {
        0 => T::default(),
        n => sorted[(n - 1) * p / 100],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_a_no_op() {
        let t = Telemetry::disabled();
        assert!(!t.enabled());
        let span = t.span("campaign", &[("campaign", "x".into())]);
        assert_eq!(span.id(), 0);
        t.counter("hits", 3, &[]);
        t.gauge("mips", 1.5, &[]);
        t.progress("nothing happens");
        span.close_with(&[("sweeps", 3u64.into())]);
        // Off is also disabled, just additionally quiet for warn().
        assert!(!Telemetry::off().enabled());
    }

    #[test]
    fn spans_nest_and_every_line_parses() {
        let (t, buf) = Telemetry::to_buffer();
        {
            let campaign = t.span("campaign", &[("campaign", "smoke".into())]);
            let analysis = t.span("analysis", &[("analysis", "topdown".into())]);
            t.counter("cache_hits", 2, &[]);
            t.gauge("simulated_mips", 12.5, &[("workload", "pd".into())]);
            drop(analysis);
            campaign.close_with(&[("sweeps", 3u64.into())]);
        }
        let events = buf.events();
        assert_eq!(events.len(), 6);
        // Open order and parent chain: campaign is a root, analysis its
        // child, and the counter/gauge attach to the analysis span.
        let id = |e: &Json, k: &str| e.get(k).unwrap().as_f64().unwrap() as u64;
        assert_eq!(events[0].get("ev").unwrap().as_str(), Some("span_open"));
        assert_eq!(id(&events[0], "parent"), 0);
        assert_eq!(id(&events[1], "parent"), id(&events[0], "id"));
        assert_eq!(events[2].get("ev").unwrap().as_str(), Some("counter"));
        assert_eq!(id(&events[2], "span"), id(&events[1], "id"));
        assert_eq!(id(&events[3], "span"), id(&events[1], "id"));
        // Close order is inner-first, with non-negative wall times.
        assert_eq!(events[4].get("ev").unwrap().as_str(), Some("span_close"));
        assert_eq!(events[4].get("name").unwrap().as_str(), Some("analysis"));
        assert_eq!(events[5].get("name").unwrap().as_str(), Some("campaign"));
        assert!(events[4].get("wall_s").unwrap().as_f64().unwrap() >= 0.0);
        // Only a span closed with fields carries them.
        assert!(events[4].get("sweeps").is_none());
        assert_eq!(id(&events[5], "sweeps"), 3);
    }

    #[test]
    fn span_at_parents_across_threads() {
        let (t, buf) = Telemetry::to_buffer();
        let batch = t.span("batch", &[]);
        let batch_id = batch.id();
        std::thread::scope(|s| {
            s.spawn(|| {
                let job = t.span_at(batch_id, "job", &[("workload", "pd".into())]);
                // The worker's thread-local current is now the job span:
                // nested phase spans parent under it automatically.
                let phase = t.span("phase", &[("phase", "simulate".into())]);
                drop(phase);
                drop(job);
            });
        });
        drop(batch);
        let events = buf.events();
        let id = |e: &Json, k: &str| e.get(k).unwrap().as_f64().unwrap() as u64;
        let job_open = events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("job"))
            .unwrap();
        assert_eq!(id(job_open, "parent"), batch_id);
        let phase_open = events
            .iter()
            .find(|e| {
                e.get("ev").unwrap().as_str() == Some("span_open")
                    && e.get("name").unwrap().as_str() == Some("phase")
            })
            .unwrap();
        assert_eq!(id(phase_open, "parent"), id(job_open, "id"));
    }

    #[test]
    fn warn_goes_to_the_sink_when_enabled() {
        let (t, buf) = Telemetry::to_buffer();
        t.warn("BELENOS_JOBS=x86 not understood");
        let e = &buf.events()[0];
        assert_eq!(e.get("ev").unwrap().as_str(), Some("warn"));
        assert!(e.get("msg").unwrap().as_str().unwrap().contains("x86"));
    }

    #[test]
    fn sink_values_parse() {
        assert!(!Telemetry::parse("off").unwrap().enabled());
        assert!(!Telemetry::parse("").unwrap().enabled());
        assert!(Telemetry::parse("stderr").unwrap().enabled());
        let dir = std::env::temp_dir().join("belenos-telemetry-test.jsonl");
        let t = Telemetry::parse(dir.to_str().unwrap()).unwrap();
        assert!(t.enabled());
        t.counter("c", 1, &[]);
        drop(t);
        let text = std::fs::read_to_string(&dir).unwrap();
        assert!(text.contains("\"counter\""));
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn tap_feeds_whole_lines_and_shares_ids_and_clock_with_its_upstream() {
        let (base, buf) = Telemetry::to_buffer();
        let fed = Arc::new(Mutex::new(Vec::<String>::new()));
        let feed = fed.clone();
        let tap = base.tap(move |line| feed.lock().unwrap().push(line.to_string()));
        let outside = base.span("outside", &[]);
        let tapped = tap.span("tapped", &[("jobs", 2usize.into())]);
        tap.counter("cache_hits", 1, &[]);
        // One id counter: the tap's span is the second, under the first.
        assert_eq!((outside.id(), tapped.id()), (1, 2));
        drop((tapped, outside));
        // The feed holds the tap's three events verbatim; the upstream
        // holds them too, between its own two.
        let all = buf.lines();
        assert_eq!(all.len(), 5);
        assert_eq!(fed.lock().unwrap()[..], all[1..4]);
        // A disabled upstream still yields a recording tap.
        assert!(Telemetry::disabled().tap(|_| {}).enabled());
    }

    #[test]
    fn scope_is_per_thread_nests_and_unwinds() {
        let ((), outer) = capture(|| {
            global().counter("outer", 1, &[]);
            // Another thread is not inside this scope (and the test
            // process has no process-wide sink).
            let elsewhere = std::thread::scope(|s| s.spawn(|| global().enabled()).join());
            assert!(!elsewhere.unwrap());
            let inner = std::panic::catch_unwind(|| {
                capture(|| {
                    global().counter("inner", 1, &[]);
                    panic!("unwinds through the inner guard");
                })
            });
            assert!(inner.is_err());
            global().counter("outer_again", 1, &[]);
        });
        let names: Vec<&str> = outer
            .iter()
            .filter_map(|e| e.get("name")?.as_str())
            .collect();
        assert_eq!(names, ["outer", "outer_again"]);
    }

    #[test]
    fn percentile_is_the_lower_nearest_rank() {
        assert_eq!(percentile::<f64>(&[], 95), 0.0);
        let at = |p| percentile(&[10, 20, 30, 40], p);
        assert_eq!((at(50), at(95), at(100)), (20, 30, 40));
    }

    #[test]
    fn progress_events_carry_the_message() {
        let (t, buf) = Telemetry::to_buffer();
        t.progress("runner: 1/2 simulated");
        let e = &buf.events()[0];
        assert_eq!(e.get("ev").unwrap().as_str(), Some("progress"));
        assert_eq!(
            e.get("msg").unwrap().as_str(),
            Some("runner: 1/2 simulated")
        );
    }
}
