//! What fraction of a pass each layer owns, from the traced repetitions.
//!
//! Measured: the walls of the program's own `phase` / `serve_job` /
//! `coordinator` / `dist_job` spans and of the harness spans around them.
//! Estimated: what one layer spends *inside* another layer's span (trace
//! expansion and flat decoding inside a `simulate` phase, the store write
//! inside a `prepare` phase, result-cache file I/O inside a batch) —
//! exact counts from the program's counters × unit costs the ladder
//! measured in the same run. Spans inside the program are a later change;
//! until then the split inside a span is a model, and README.md says so.

use crate::ladder::UnitCosts;
use crate::spans::{Observation, SpanRec};

/// Encoded bytes per micro-op in a stored flat section.
const STORED_BYTES_PER_OP: f64 = 28.0;

/// When a repetition's pass ran, on the tracer's clock.
#[derive(Debug, Clone, Copy)]
pub struct PassWindow {
    pub rep: usize,
    pub start_s: f64,
    pub end_s: f64,
}

pub struct RepInput<'a> {
    pub window: PassWindow,
    pub observations: &'a [Observation],
    /// How much slower than nominal the machine ran during this pass.
    pub slowdown: f64,
}

pub struct Model<'a> {
    pub costs: &'a UnitCosts,
    pub disk_cache: bool,
    pub served: bool,
    /// Scenarios sharing the trace store (to size one flat decode).
    pub scenarios: usize,
    /// Bytes of trace artifacts a repetition's first run writes.
    pub store_bytes: f64,
}

/// The layers a pass is split over, in `share.*` metric order.
pub const LAYERS: [&str; 7] = [
    "share.uarch",
    "share.trace",
    "share.fem",
    "share.sparse",
    "share.store",
    "share.serve",
    "share.glue",
];
const UARCH: usize = 0;
const TRACE: usize = 1;
const FEM: usize = 2;
const SPARSE: usize = 3;
const STORE: usize = 4;
pub const SERVE: usize = 5;
const GLUE: usize = 6;

/// Seconds (then fractions of the pass wall) per layer, indexed as
/// [`LAYERS`].
pub type Shares = [f64; 7];

impl RepInput<'_> {
    /// Sum of the program's `name` counter over this repetition's pass.
    pub fn pass_total(&self, name: &str) -> f64 {
        self.observations
            .iter()
            .filter(|o| o.t_s >= self.window.start_s && o.name == name)
            .map(|o| o.value)
            .sum()
    }
}

/// Mean bytes of trace artifacts written per repetition (set-up included).
pub fn store_bytes(reps: &[RepInput<'_>]) -> f64 {
    if reps.is_empty() {
        return 0.0;
    }
    reps.iter()
        .flat_map(|r| r.observations.iter())
        .filter(|o| o.name == "trace_store_write_bytes")
        .map(|o| o.value)
        .sum::<f64>()
        / reps.len() as f64
}

fn in_pass<'a>(spans: &'a [SpanRec], w: &PassWindow) -> impl Iterator<Item = &'a SpanRec> {
    let w = *w;
    spans
        .iter()
        .filter(move |s| s.rep == w.rep && s.start_s >= w.start_s && s.start_s <= w.end_s)
}

fn observed(rep: &RepInput<'_>, span: u64, name: &str) -> f64 {
    rep.observations
        .iter()
        .filter(|o| o.span == span && o.name == name)
        .map(|o| o.value)
        .sum()
}

fn one_rep(spans: &[SpanRec], rep: &RepInput<'_>, model: &Model<'_>) -> Shares {
    let mut s = Shares::default();
    let wall = rep.window.end_s - rep.window.start_s;
    if wall <= 0.0 {
        return s;
    }
    let c = model.costs;
    // Unit costs are normalised seconds; spans are raw.
    let raw = |normalised: f64| normalised * rep.slowdown;
    let mut jobs_s = 0.0;
    for span in in_pass(spans, &rep.window) {
        match (span.telemetry, span.name.as_str(), span.field_str("phase")) {
            (true, "phase", Some("simulate")) => {
                let inside = if observed(rep, span.id, "trace_memo_miss") > 0.0 {
                    let ops = span.field_f64("max_ops").unwrap_or(0.0);
                    let t = raw(ops * c.expand_s_per_op).min(span.wall());
                    s[TRACE] += t;
                    t
                } else if observed(rep, span.id, "trace_memo_hit") == 0.0 && model.store_bytes > 0.0
                {
                    // Neither counter: the trace came from a stored flat
                    // section, decoded here.
                    let bytes = model.store_bytes / model.scenarios as f64;
                    let t = raw(bytes * c.store_decode_s_per_byte).min(span.wall());
                    s[STORE] += t;
                    t
                } else {
                    0.0
                };
                s[UARCH] += span.wall() - inside;
            }
            (true, "phase", Some("prepare")) => {
                if observed(rep, span.id, "trace_store_hit") > 0.0 {
                    s[STORE] += span.wall();
                } else {
                    let written = observed(rep, span.id, "trace_store_write_bytes");
                    let save = raw(written * c.store_save_s_per_byte).min(span.wall());
                    let expand = raw(written / STORED_BYTES_PER_OP * c.expand_s_per_op)
                        .min(span.wall() - save);
                    let solve = span.wall() - save - expand;
                    s[STORE] += save;
                    s[TRACE] += expand;
                    s[FEM] += solve * c.fem_frac_of_solve;
                    s[SPARSE] += solve * (1.0 - c.fem_frac_of_solve);
                }
            }
            (true, "coordinator", _) => {
                let jobs: f64 = in_pass(spans, &rep.window)
                    .filter(|j| {
                        j.name == "dist_job" && j.start_s >= span.start_s && j.start_s <= span.end_s
                    })
                    .map(SpanRec::wall)
                    .sum();
                s[STORE] += (span.wall() - jobs).max(0.0);
            }
            (true, "serve_job", _) => jobs_s += span.wall(),
            (false, "pass.gc", _) => s[STORE] += span.wall(),
            _ => {}
        }
    }
    if model.disk_cache {
        s[STORE] += raw(rep.pass_total("cache_hits") * c.disk_hit_s
            + rep.pass_total("jobs_simulated") * c.disk_insert_s);
    }
    if model.served {
        // One job worker: whenever no job executes, the pass is waiting
        // on the serving layer (HTTP, accept polling, client turn-around).
        s[SERVE] = (wall - jobs_s).max(0.0);
    }
    s[GLUE] = (wall - s.iter().sum::<f64>()).max(0.0);
    s.map(|v| v / wall)
}

/// Mean shares over the traced repetitions.
pub fn compute(spans: &[SpanRec], reps: &[RepInput<'_>], model: &Model<'_>) -> Shares {
    let mut mean = Shares::default();
    for rep in reps {
        for (m, v) in mean.iter_mut().zip(one_rep(spans, rep, model)) {
            *m += v / reps.len() as f64;
        }
    }
    mean
}

/// Share of the served passes during which the single job worker was
/// executing nothing.
pub fn served_idle_frac(spans: &[SpanRec], reps: &[RepInput<'_>]) -> f64 {
    let (mut idle, mut wall) = (0.0, 0.0);
    for rep in reps {
        let w = rep.window.end_s - rep.window.start_s;
        let busy: f64 = in_pass(spans, &rep.window)
            .filter(|s| s.telemetry && s.name == "serve_job")
            .map(SpanRec::wall)
            .sum();
        idle += (w - busy).max(0.0);
        wall += w;
    }
    if wall > 0.0 {
        idle / wall
    } else {
        0.0
    }
}

/// Summed queue wait of executed runner jobs ÷ their summed wall.
pub fn queue_wait_frac(spans: &[SpanRec], reps: &[RepInput<'_>]) -> f64 {
    let (mut wait, mut wall) = (0.0, 0.0);
    for rep in reps {
        for job in in_pass(spans, &rep.window).filter(|s| s.telemetry && s.name == "job") {
            wait += job.field_f64("queue_wait_s").unwrap_or(0.0);
            wall += job.wall();
        }
    }
    if wall > 0.0 {
        wait / wall
    } else {
        0.0
    }
}
