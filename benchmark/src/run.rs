//! One run: a process measures one workload for `--seconds` seconds.
//!
//! A run is many short repetitions of the fixed unit
//! `[probe][set-up segment][probe][pass segment][probe]` on identical
//! inputs, state reset in between, the whole process pinned to one CPU.
//! A probe times the two reference loops of `clock.rs`; a segment's
//! *normalised seconds* are its seconds asleep plus its seconds on a CPU
//! ÷ the slow-down its two flanking probes saw, and every timed metric is
//! the **mean over the run's repetitions** of that value (README.md has
//! the noise measurements that led here). Raw samples and probe times go
//! into the run record.

use crate::alloc;
use crate::clock::{
    self, normalise, probe, slowdown, Probe, MEM_REF_NOMINAL_S, MEM_REF_STEPS, REF_ITERS,
    REF_NOMINAL_S,
};
use crate::ladder;
use crate::metrics::{mean, unit_of, Metrics, END_TO_END, PER_LAYER};
use crate::shares::{self, PassWindow};
use crate::spans::{Observation, Tracer};
use crate::workloads::{self, Checks, Ctx, RequestKind, ServeRep, Workload};
use belenos_json::Json;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the run record, `trace-<workload>.json` and scratch
    /// directories go.
    pub out_dir: PathBuf,
    /// Run-record path (default `<out_dir>/run-<workload>.json`).
    pub record: Option<PathBuf>,
}

/// What the driver's contract wants on the last line of stdout.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .0
                        .iter()
                        .map(|(name, value)| {
                            (
                                name.clone(),
                                Json::obj(vec![
                                    ("value", Json::Num(*value)),
                                    ("unit", Json::Str(unit_of(name).to_string())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// One timed repetition.
#[derive(Debug)]
pub struct Rep {
    pub traced: bool,
    /// Probes before set-up, between the segments, after the pass.
    pub probes: [Probe; 3],
    pub setup_raw_s: f64,
    pub setup_cpu_raw_s: f64,
    pub pass_raw_s: f64,
    pub cpu_raw_s: f64,
    pub peak_live_bytes: u64,
    pub pass_allocs: u64,
    pub pass_alloc_bytes: u64,
    pub window: PassWindow,
    pub observations: Vec<Observation>,
}

impl Rep {
    pub fn setup_s(&self) -> f64 {
        normalise(
            self.setup_raw_s,
            self.setup_cpu_raw_s,
            slowdown(self.probes[0], self.probes[1]),
        )
    }

    /// Slow-down of the machine during the pass.
    pub fn pass_slowdown(&self) -> f64 {
        slowdown(self.probes[1], self.probes[2])
    }

    pub fn pass_s(&self) -> f64 {
        normalise(self.pass_raw_s, self.cpu_raw_s, self.pass_slowdown())
    }

    pub fn cpu_s(&self) -> f64 {
        self.cpu_raw_s / self.pass_slowdown()
    }
}

/// Which repetitions of a batch are traced.
#[derive(Clone, Copy, PartialEq)]
enum Tracing {
    Off,
    /// Odd repetitions traced, even ones not, so the two sets see the
    /// same stretch of machine time.
    Alternate,
    All,
}

/// What every repetition of a process shares.
struct Session<'a> {
    cfg: &'a RunConfig,
    tracer: Tracer,
    checks: Checks,
    /// Repetitions are numbered across batches and workloads.
    next_rep: usize,
    scratch: PathBuf,
    /// The CPUs the process had before it pinned itself to one.
    all_cpus: Option<clock::CpuMask>,
}

impl Session<'_> {
    /// One repetition of `w`.
    fn one_rep(&mut self, w: &mut dyn Workload, traced: bool) -> Rep {
        let (tracer, checks) = (&self.tracer, &mut self.checks);
        let rep = self.next_rep;
        self.next_rep += 1;
        w.reset(rep);
        tracer.set(traced, rep);
        let capture = traced.then(|| tracer.capture_telemetry());
        alloc::reset_peak();
        let p0 = probe();

        let seg = tracer.begin(0);
        let c0 = clock::process_cpu_s();
        let t0 = Instant::now();
        w.setup(
            &Ctx {
                tracer,
                parent: seg.id,
            },
            checks,
        );
        let setup_raw_s = t0.elapsed().as_secs_f64();
        let setup_cpu_raw_s = clock::process_cpu_s() - c0;
        tracer.end(seg, "setup", true);
        let p1 = probe();

        let a0 = alloc::snapshot();
        let start_s = tracer.now_s();
        tracer.mark_pass_start();
        let seg = tracer.begin(0);
        let c0 = clock::process_cpu_s();
        let t0 = Instant::now();
        w.pass(
            &Ctx {
                tracer,
                parent: seg.id,
            },
            checks,
        );
        let pass_raw_s = t0.elapsed().as_secs_f64();
        let cpu_raw_s = clock::process_cpu_s() - c0;
        tracer.end(seg, "pass", true);
        let end_s = tracer.now_s();
        let a1 = alloc::snapshot();
        let p2 = probe();

        w.teardown();
        let observations = capture.map_or_else(Vec::new, |c| tracer.absorb(c));
        tracer.set(false, rep);
        Rep {
            traced,
            probes: [p0, p1, p2],
            setup_raw_s,
            setup_cpu_raw_s,
            pass_raw_s,
            cpu_raw_s,
            peak_live_bytes: a1.peak,
            pass_allocs: a1.count - a0.count,
            pass_alloc_bytes: a1.bytes - a0.bytes,
            window: PassWindow {
                rep,
                start_s,
                end_s,
            },
            observations,
        }
    }

    /// Repetitions of `w` until `budget` has passed (at least two).
    fn run_reps(&mut self, w: &mut dyn Workload, tracing: Tracing, budget: Duration) -> Vec<Rep> {
        let started = Instant::now();
        let mut reps = Vec::new();
        while started.elapsed() < budget || reps.len() < 2 {
            let traced = match tracing {
                Tracing::Off => false,
                Tracing::All => true,
                Tracing::Alternate => reps.len() % 2 == 1,
            };
            reps.push(self.one_rep(w, traced));
        }
        reps
    }
}

/// Simulated micro-ops committed during the pass of a traced repetition
/// (exact: the sum of the `sim_committed_ops` counters the experiment
/// layer emits from `SimStats.committed_ops`).
fn pass_sim_ops(rep: &Rep) -> u64 {
    rep.observations
        .iter()
        .filter(|o| o.name == "sim_committed_ops" && o.t_s >= rep.window.start_s)
        .map(|o| o.value as u64)
        .sum()
}

fn end_to_end<'a>(reps: impl Iterator<Item = &'a Rep> + Clone, sim_ops: u64) -> Metrics {
    let mut m = Metrics::default();
    let pass_s = mean(reps.clone().map(Rep::pass_s));
    m.set("setup_s", mean(reps.clone().map(Rep::setup_s)));
    m.set("pass_s", pass_s);
    m.set("sim_mops_per_s", sim_ops as f64 / pass_s / 1e6);
    m.set("cpu_s", mean(reps.clone().map(Rep::cpu_s)));
    m.set(
        "peak_live_mb",
        mean(reps.map(|r| r.peak_live_bytes as f64)) / 1e6,
    );
    m
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

/// The `serve.*` rows from the served workload's repetitions.
fn serve_metrics(m: &mut Metrics, reps: &[ServeRep], idle_frac: f64) {
    let all = || reps.iter().flat_map(|r| r.requests.iter());
    let mut totals: Vec<f64> = all().map(|q| q.total_s).collect();
    totals.sort_by(f64::total_cmp);
    m.set("serve.request_p50_s", percentile(&totals, 0.50));
    m.set("serve.request_p95_s", percentile(&totals, 0.95));
    for (kind, name) in [
        (RequestKind::Miss, "serve.miss_ms"),
        (RequestKind::Hit, "serve.hit_ms"),
        (RequestKind::Join, "serve.join_ms"),
    ] {
        m.set(
            name,
            1e3 * mean(all().filter(|q| q.kind == kind).map(|q| q.total_s)),
        );
    }
    m.set("serve.post_ack_ms", 1e3 * mean(all().map(|q| q.ack_s)));
    m.set("serve.report_get_ms", 1e3 * mean(all().map(|q| q.report_s)));
    m.set("serve.boot_ms", 1e3 * mean(reps.iter().map(|r| r.boot_s)));
    m.set("serve.drain_ms", 1e3 * mean(reps.iter().map(|r| r.drain_s)));
    m.set("serve.overhead_frac", idle_frac);
    m.set("serve.joined", mean(reps.iter().map(|r| r.joined as f64)));
    m.set(
        "serve.rejected",
        mean(reps.iter().map(|r| r.rejected as f64)),
    );
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn share_inputs<'a>(reps: &[&'a Rep]) -> Vec<shares::RepInput<'a>> {
    reps.iter()
        .map(|r| shares::RepInput {
            window: r.window,
            observations: &r.observations,
            slowdown: r.pass_slowdown(),
        })
        .collect()
}

/// Runs the workload and returns what goes on the last line of stdout.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let started = Instant::now();
    std::fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| format!("create {}: {e}", cfg.out_dir.display()))?;
    let mut session = Session {
        cfg,
        tracer: Tracer::new(),
        checks: Checks::default(),
        next_rep: 0,
        scratch: cfg
            .out_dir
            .join("tmp")
            .join(format!("{}-{}", cfg.workload, std::process::id())),
        all_cpus: clock::pin_to_one_cpu(),
    };
    let mut w = workloads::build(&cfg.workload, cfg.seed, &session.scratch.join("workload"))
        .ok_or_else(|| {
            format!(
                "unknown workload `{}` (expected one of: {})",
                cfg.workload,
                workloads::WORKLOADS.map(|w| w.0).join(", ")
            )
        })?;

    // Repetition 0: untimed, with the program's telemetry captured. It
    // fills lazy state, fixes the renderings every later repetition is
    // compared against, and yields the exact simulated-op count of a pass.
    let warmup = session.one_rep(w.as_mut(), true);
    let sim_ops = pass_sim_ops(&warmup);
    session
        .checks
        .check(sim_ops > 0, || "no simulated op in a pass".into());

    let (reps, metrics) = if cfg.trace {
        session.traced_run(w.as_mut(), sim_ops)?
    } else {
        let budget = Duration::from_secs_f64(cfg.seconds).saturating_sub(started.elapsed());
        let reps = session.run_reps(w.as_mut(), Tracing::Off, budget);
        let metrics = end_to_end(reps.iter(), sim_ops);
        (reps, metrics)
    };

    let _ = std::fs::remove_dir_all(&session.scratch);
    let expected: Vec<&str> = if cfg.trace {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    };
    for name in &expected {
        match metrics.get(name) {
            Some(v) if v.is_finite() => {}
            other => return Err(format!("metric {name} is {other:?}")),
        }
    }
    if metrics.0.len() != expected.len() {
        return Err(format!(
            "{} metrics measured, {} declared",
            metrics.0.len(),
            expected.len()
        ));
    }
    let checks = &session.checks;
    let outcome = Outcome {
        correct: checks.failed == 0,
        attempted: checks.attempted.max(1),
        failed: checks.failed,
        metrics,
    };
    let record_path = cfg
        .record
        .clone()
        .unwrap_or_else(|| cfg.out_dir.join(format!("run-{}.json", cfg.workload)));
    write_record(&record_path, &session, &reps, sim_ops, &outcome)
        .map_err(|e| format!("write {}: {e}", record_path.display()))?;
    for failure in &checks.failures {
        eprintln!("check failed: {failure}");
    }
    eprintln!(
        "{}: seed {} · {} repetition(s) in {:.1} s · {} check(s), {} failed · record {}",
        cfg.workload,
        cfg.seed,
        reps.len(),
        started.elapsed().as_secs_f64(),
        checks.attempted,
        checks.failed,
        record_path.display()
    );
    Ok(outcome)
}

impl Session<'_> {
    /// The traced run: the workload's own repetitions (alternately traced
    /// and not), the ladder, and — unless the workload is the served one —
    /// a few repetitions of `serve_mixed` for the `serve.*` rows.
    fn traced_run(
        &mut self,
        w: &mut dyn Workload,
        sim_ops: u64,
    ) -> Result<(Vec<Rep>, Metrics), String> {
        let cfg = self.cfg;
        let native_serve = w.name() == "serve_mixed";
        // The ladder and the served block are fixed work (~12 s and ~4 s
        // on the reference box); the workload's own repetitions get the
        // rest of `--seconds`.
        let fixed = if native_serve { 12.0 } else { 16.0 };
        let own = Duration::from_secs_f64((cfg.seconds - fixed).max(cfg.seconds * 0.3));
        let reps = self.run_reps(w, Tracing::Alternate, own);
        let mut m = Metrics::default();

        let sweep_text = workloads::sweep_o3::SweepO3::new(clock::Rng::new(cfg.seed))
            .spec_text()
            .to_string();
        let costs = ladder::run(
            &mut m,
            &self.scratch.join("ladder"),
            &sweep_text,
            &w.fe_scenarios(),
            self.all_cpus.as_ref(),
        );

        let spans = self.tracer.spans();
        let traced: Vec<&Rep> = reps.iter().filter(|r| r.traced).collect();
        let untraced: Vec<&Rep> = reps.iter().filter(|r| !r.traced).collect();
        for rep in &traced {
            self.checks.check(pass_sim_ops(rep) == sim_ops, || {
                format!(
                    "repetition {} simulated {} ops, repetition 0 {sim_ops}",
                    rep.window.rep,
                    pass_sim_ops(rep)
                )
            });
        }

        // Shares of the pass wall, per traced repetition, then averaged.
        let inputs = share_inputs(&traced);
        let model = shares::Model {
            costs: &costs,
            disk_cache: w.disk_cache(),
            served: native_serve,
            scenarios: w.fe_scenarios().len().max(1),
            store_bytes: shares::store_bytes(&inputs),
        };
        let share = shares::compute(&spans, &inputs, &model);
        for (name, value) in shares::LAYERS.iter().zip(share) {
            m.set(name, value);
        }

        // Counts from the program's own counters, over the traced passes.
        let total = |name: &str| -> f64 { inputs.iter().map(|r| r.pass_total(name)).sum() };
        m.set(
            "runner.reuse_ratio",
            ratio(
                total("cache_hits") + total("jobs_deduped"),
                total("jobs_submitted"),
            ),
        );
        m.set(
            "core.trace_memo_hit_ratio",
            ratio(
                total("trace_memo_hit"),
                total("trace_memo_hit") + total("trace_memo_miss"),
            ),
        );
        m.set(
            "runner.queue_wait_frac",
            shares::queue_wait_frac(&spans, &inputs),
        );

        // Adjacent repetitions are paired (untraced, traced), so each
        // ratio compares two passes that saw the same stretch of machine
        // time.
        m.set(
            "telemetry.overhead_frac",
            mean(reps.chunks_exact(2).map(|p| p[1].pass_s() / p[0].pass_s())) - 1.0,
        );
        m.set(
            "proc.allocs_per_pass",
            mean(untraced.iter().map(|r| r.pass_allocs as f64)),
        );
        m.set(
            "proc.alloc_mb_per_pass",
            mean(untraced.iter().map(|r| r.pass_alloc_bytes as f64)) / 1e6,
        );

        // The served rows: from the workload itself, or from a short block
        // of serve_mixed repetitions (every one traced, for the idle
        // fraction).
        let (serve_reps, idle) = if native_serve {
            let all = w.take_serve_reps();
            // Repetition 0 is the untimed warm-up.
            (all[1..].to_vec(), share[shares::SERVE])
        } else {
            let mut served = workloads::build("serve_mixed", cfg.seed, &self.scratch)
                .expect("serve_mixed is a workload");
            let block = self.run_reps(served.as_mut(), Tracing::All, Duration::from_secs(3));
            let block: Vec<&Rep> = block.iter().collect();
            let idle = shares::served_idle_frac(&self.tracer.spans(), &share_inputs(&block));
            (served.take_serve_reps(), idle)
        };
        serve_metrics(&mut m, &serve_reps, idle);

        let probes = || reps.iter().flat_map(|r| r.probes.iter());
        m.set("proc.ref_ms", 1e3 * mean(probes().map(|p| p.alu_s)));
        m.set("proc.mem_ref_ms", 1e3 * mean(probes().map(|p| p.mem_s)));
        m.set("proc.peak_rss_mb", clock::peak_rss_mb());

        let path = cfg.out_dir.join(format!("trace-{}.json", cfg.workload));
        self.tracer
            .write(&path, &cfg.workload, cfg.seed)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        // A traced run prints the per-layer metrics; what its untraced
        // repetitions say end to end goes to stderr for the curious.
        for (name, value) in &end_to_end(untraced.iter().copied(), sim_ops).0 {
            eprintln!(
                "(traced run, untraced repetitions) {name} = {value:.6} {}",
                unit_of(name)
            );
        }
        Ok((reps, m))
    }
}

fn nums(values: impl Iterator<Item = f64>) -> Json {
    Json::Arr(values.map(Json::Num).collect())
}

/// The run record: configuration, every raw sample and reference time,
/// the metrics, and the checks. `aa` reads these back.
fn write_record(
    path: &Path,
    session: &Session<'_>,
    reps: &[Rep],
    sim_ops: u64,
    outcome: &Outcome,
) -> std::io::Result<()> {
    let (cfg, checks) = (session.cfg, &session.checks);
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let doc = Json::obj(vec![
        ("workload", Json::Str(cfg.workload.clone())),
        ("seed", Json::Num(cfg.seed as f64)),
        ("seconds", Json::Num(cfg.seconds)),
        ("trace", Json::Bool(cfg.trace)),
        ("repetitions", Json::Num(reps.len() as f64)),
        ("ref_nominal_s", Json::Num(REF_NOMINAL_S)),
        ("ref_iters", Json::Num(REF_ITERS as f64)),
        ("mem_ref_nominal_s", Json::Num(MEM_REF_NOMINAL_S)),
        ("mem_ref_steps", Json::Num(MEM_REF_STEPS as f64)),
        ("pinned_to_one_cpu", Json::Bool(session.all_cpus.is_some())),
        ("available_parallelism", Json::Num(threads as f64)),
        ("sim_ops_per_pass", Json::Num(sim_ops as f64)),
        ("ops_attempted", Json::Num(checks.attempted as f64)),
        ("ops_failed", Json::Num(checks.failed as f64)),
        (
            "failures",
            Json::Arr(checks.failures.iter().cloned().map(Json::Str).collect()),
        ),
        ("result", outcome.to_json()),
        (
            "samples",
            Json::obj(vec![
                (
                    "traced",
                    Json::Arr(reps.iter().map(|r| Json::Bool(r.traced)).collect()),
                ),
                ("ref_before_s", nums(reps.iter().map(|r| r.probes[0].alu_s))),
                (
                    "ref_between_s",
                    nums(reps.iter().map(|r| r.probes[1].alu_s)),
                ),
                ("ref_after_s", nums(reps.iter().map(|r| r.probes[2].alu_s))),
                (
                    "mem_ref_before_s",
                    nums(reps.iter().map(|r| r.probes[0].mem_s)),
                ),
                (
                    "mem_ref_between_s",
                    nums(reps.iter().map(|r| r.probes[1].mem_s)),
                ),
                (
                    "mem_ref_after_s",
                    nums(reps.iter().map(|r| r.probes[2].mem_s)),
                ),
                ("setup_raw_s", nums(reps.iter().map(|r| r.setup_raw_s))),
                (
                    "setup_cpu_raw_s",
                    nums(reps.iter().map(|r| r.setup_cpu_raw_s)),
                ),
                ("pass_raw_s", nums(reps.iter().map(|r| r.pass_raw_s))),
                ("cpu_raw_s", nums(reps.iter().map(|r| r.cpu_raw_s))),
                (
                    "peak_live_bytes",
                    nums(reps.iter().map(|r| r.peak_live_bytes as f64)),
                ),
            ]),
        ),
    ]);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc.pretty())
}
