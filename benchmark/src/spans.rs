//! Harness spans for the traced run, and the bridge that nests the
//! program's own telemetry spans under them.
//!
//! A span is `{id, name, parent, rep, start_s, end_s}` (seconds since the
//! tracer started). Harness spans wrap each segment and each call into a
//! layer; during a traced repetition the program's *existing* telemetry
//! sink is installed to an in-memory buffer, and its `span_open` /
//! `span_close` events become spans of the same shape whose roots hang
//! under the innermost main-thread harness span that contains them.
//! Everything stays in memory until the run ends.

use belenos_json::Json;
use belenos_telemetry::{Telemetry, TelemetryBuffer};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u64,
    pub name: String,
    pub parent: u64,
    pub rep: usize,
    pub start_s: f64,
    pub end_s: f64,
    /// Recorded on the thread that drives the repetition (candidates for
    /// adopting telemetry roots), as opposed to a client thread.
    pub main_thread: bool,
    /// From the program's telemetry rather than the harness.
    pub telemetry: bool,
    /// Telemetry span fields the share model reads (`phase`, `workload`,
    /// `max_ops`, `queue_wait_s`).
    pub fields: Vec<(String, Json)>,
}

impl SpanRec {
    pub fn wall(&self) -> f64 {
        self.end_s - self.start_s
    }

    pub fn field_str(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_str())
    }

    pub fn field_f64(&self, key: &str) -> Option<f64> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_f64())
    }
}

/// An open harness span (`id == 0` when tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct Open {
    pub id: u64,
    parent: u64,
    start_s: f64,
}

/// A counter or gauge observation from the program's telemetry.
#[derive(Debug, Clone)]
pub struct Observation {
    pub name: String,
    pub value: f64,
    /// Harness-side id of the telemetry span it was emitted under (0 = none).
    pub span: u64,
    /// When, on the tracer's clock.
    pub t_s: f64,
}

/// Collects spans for one process. Cheap no-ops while `on` is false, so
/// workload code calls it unconditionally.
pub struct Tracer {
    t0: Instant,
    on: AtomicBool,
    next_id: AtomicU64,
    rep: AtomicUsize,
    /// When the current repetition's pass started (see [`Tracer::mark_pass_start`]).
    pass_mark_s: Mutex<Option<f64>>,
    done: Mutex<Vec<SpanRec>>,
}

/// Name of the gauge that marks a pass start in the captured stream.
const PASS_MARK: &str = "harness_pass_start";

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            on: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            rep: AtomicUsize::new(0),
            pass_mark_s: Mutex::new(None),
            done: Mutex::new(Vec::new()),
        }
    }

    /// Turns recording on or off and names the repetition spans belong to.
    pub fn set(&self, on: bool, rep: usize) {
        self.on.store(on, Ordering::SeqCst);
        self.rep.store(rep, Ordering::SeqCst);
    }

    pub fn enabled(&self) -> bool {
        self.on.load(Ordering::SeqCst)
    }

    pub fn now_s(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    pub fn begin(&self, parent: u64) -> Open {
        if !self.enabled() {
            return Open {
                id: 0,
                parent: 0,
                start_s: 0.0,
            };
        }
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            start_s: self.now_s(),
        }
    }

    pub fn end(&self, open: Open, name: &str, main_thread: bool) {
        if open.id == 0 {
            return;
        }
        let rec = SpanRec {
            id: open.id,
            name: name.to_string(),
            parent: open.parent,
            rep: self.rep.load(Ordering::SeqCst),
            start_s: open.start_s,
            end_s: self.now_s(),
            main_thread,
            telemetry: false,
            fields: Vec::new(),
        };
        self.done
            .lock()
            .expect("no holder of the span list panics")
            .push(rec);
    }

    /// Runs `f` inside a main-thread span named `name` under `parent`.
    pub fn span<T>(&self, parent: u64, name: &str, f: impl FnOnce(u64) -> T) -> T {
        let open = self.begin(parent);
        let out = f(open.id);
        self.end(open, name, true);
        out
    }

    fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Installs a fresh in-memory telemetry sink as the process-wide
    /// handle for one traced repetition.
    pub fn capture_telemetry(&self) -> Capture {
        let (tele, buffer) = Telemetry::to_buffer();
        let opened_s = self.now_s();
        let previous = belenos_telemetry::install(tele);
        Capture {
            buffer,
            opened_s,
            previous,
        }
    }

    /// Emits a marker through the process-wide telemetry handle and notes
    /// when. Events carry seconds since *their* sink opened, and a server
    /// bound during set-up routes everything through a sink of its own;
    /// the marker ties whichever sink is live to the tracer's clock.
    pub fn mark_pass_start(&self) {
        if self.enabled() {
            *self.pass_mark_s.lock().expect("mark lock") = Some(self.now_s());
            belenos_telemetry::global().gauge(PASS_MARK, 0.0, &[]);
        }
    }

    /// Ends a capture: restores the previous handle, converts the buffered
    /// events into spans under this repetition's harness spans, and returns
    /// the counter/gauge observations.
    pub fn absorb(&self, capture: Capture) -> Vec<Observation> {
        belenos_telemetry::install(capture.previous);
        let rep = self.rep.load(Ordering::SeqCst);
        let text = capture.buffer.contents();
        let marked_at = self.pass_mark_s.lock().expect("mark lock").take();
        let offset = text
            .lines()
            .filter(|l| l.contains(PASS_MARK))
            .find_map(|l| Json::parse(l).ok()?.get("t_s")?.as_f64())
            .zip(marked_at)
            .map_or(capture.opened_s, |(t_s, at)| at - t_s);
        let mut done = self.done.lock().expect("no holder of the span list panics");
        // Telemetry ids are per sink; give each span a harness id.
        let mut ids: HashMap<u64, u64> = HashMap::new();
        let mut open: HashMap<u64, SpanRec> = HashMap::new();
        let mut finished: Vec<SpanRec> = Vec::new();
        let mut observations = Vec::new();
        for line in text.lines() {
            let Ok(ev) = Json::parse(line) else { continue };
            let kind = ev.get("ev").and_then(Json::as_str).unwrap_or("");
            let t = ev.get("t_s").and_then(Json::as_f64).unwrap_or(0.0) + offset;
            match kind {
                "span_open" => {
                    let tid = ev.get("id").and_then(Json::as_f64).unwrap_or(0.0) as u64;
                    let tparent = ev.get("parent").and_then(Json::as_f64).unwrap_or(0.0) as u64;
                    let id = self.fresh_id();
                    ids.insert(tid, id);
                    let fields = ev
                        .as_obj()
                        .map(|pairs| {
                            pairs
                                .iter()
                                .filter(|(k, _)| {
                                    !matches!(k.as_str(), "ev" | "id" | "parent" | "name" | "t_s")
                                })
                                .cloned()
                                .collect()
                        })
                        .unwrap_or_default();
                    open.insert(
                        tid,
                        SpanRec {
                            id,
                            name: ev
                                .get("name")
                                .and_then(Json::as_str)
                                .unwrap_or("?")
                                .to_string(),
                            // Resolved below; 0 marks a root for now.
                            parent: ids.get(&tparent).copied().unwrap_or(0),
                            rep,
                            start_s: t,
                            end_s: t,
                            main_thread: false,
                            telemetry: true,
                            fields,
                        },
                    );
                }
                "span_close" => {
                    let tid = ev.get("id").and_then(Json::as_f64).unwrap_or(0.0) as u64;
                    if let Some(mut rec) = open.remove(&tid) {
                        rec.end_s = t;
                        finished.push(rec);
                    }
                }
                "counter" | "gauge" => {
                    let tspan = ev.get("span").and_then(Json::as_f64).unwrap_or(0.0) as u64;
                    observations.push(Observation {
                        name: ev
                            .get("name")
                            .and_then(Json::as_str)
                            .unwrap_or("?")
                            .to_string(),
                        value: ev.get("value").and_then(Json::as_f64).unwrap_or(0.0),
                        span: ids.get(&tspan).copied().unwrap_or(0),
                        t_s: t,
                    });
                }
                _ => {}
            }
        }
        for rec in &mut finished {
            if rec.parent == 0 {
                rec.parent = done
                    .iter()
                    .filter(|h| {
                        h.main_thread
                            && h.rep == rep
                            && h.start_s <= rec.start_s
                            && rec.start_s <= h.end_s
                    })
                    .max_by(|a, b| a.start_s.total_cmp(&b.start_s))
                    .map_or(0, |h| h.id);
            }
        }
        done.extend(finished);
        observations
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.done
            .lock()
            .expect("no holder of the span list panics")
            .clone()
    }

    /// Writes the spans as one JSON document (see README "Reading
    /// trace-*.json").
    pub fn write(&self, path: &std::path::Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let spans = self.spans();
        let self_s = self_times(&spans);
        let doc = Json::obj(vec![
            ("workload", Json::Str(workload.to_string())),
            ("seed", Json::Num(seed as f64)),
            (
                "spans",
                Json::Arr(
                    spans
                        .iter()
                        .map(|s| {
                            let mut pairs = vec![
                                ("id", Json::Num(s.id as f64)),
                                ("name", Json::Str(s.name.clone())),
                                ("parent", Json::Num(s.parent as f64)),
                                ("rep", Json::Num(s.rep as f64)),
                                ("start_s", Json::Num(s.start_s)),
                                ("end_s", Json::Num(s.end_s)),
                                ("self_s", Json::Num(self_s[&s.id])),
                                (
                                    "source",
                                    Json::Str(
                                        if s.telemetry { "program" } else { "harness" }.into(),
                                    ),
                                ),
                            ];
                            for (k, v) in &s.fields {
                                if matches!(k.as_str(), "phase" | "workload" | "label" | "analysis")
                                {
                                    pairs.push((k.as_str(), v.clone()));
                                }
                            }
                            Json::obj(pairs)
                        })
                        .collect(),
                ),
            ),
        ]);
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        doc.render_to(&mut file)?;
        std::io::Write::flush(&mut file)
    }
}

/// A telemetry capture in progress (see [`Tracer::capture_telemetry`]).
pub struct Capture {
    buffer: TelemetryBuffer,
    opened_s: f64,
    previous: Telemetry,
}

/// Self time per span: its wall minus the part its children cover,
/// clamped at zero (children on other threads can overlap each other).
pub fn self_times(spans: &[SpanRec]) -> HashMap<u64, f64> {
    let mut covered: HashMap<u64, f64> = HashMap::new();
    for s in spans {
        *covered.entry(s.parent).or_insert(0.0) += s.wall();
    }
    spans
        .iter()
        .map(|s| {
            let kids = covered.get(&s.id).copied().unwrap_or(0.0);
            (s.id, (s.wall() - kids).max(0.0))
        })
        .collect()
}
