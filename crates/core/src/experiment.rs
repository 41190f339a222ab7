//! One workload through the full pipeline: numeric solve → phase log →
//! micro-op expansion → cycle-level simulation.

use belenos_fem::FemError;
use belenos_trace::expand::{ExpandConfig, Expander};
use belenos_trace::{expand_fingerprint, trace_fingerprint, Ops, PhaseLog};
use belenos_uarch::{build_model, CoreConfig, Fnv64, SamplingConfig, SimStats};
use belenos_workloads::{ScenarioError, ScenarioSpec};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Summary of the numeric solve that produced the phase log.
#[derive(Debug, Clone)]
pub struct SolveSummary {
    /// Wall-clock time of the numeric FE solve (Fig. 5/6 y-axis).
    pub wall_time: Duration,
    /// Degrees of freedom.
    pub n_dofs: usize,
    /// Total Newton/Picard iterations.
    pub iterations: usize,
    /// Estimated input-file size in kB (Fig. 5 x-axis).
    pub size_kb: f64,
    /// Whether all steps converged.
    pub converged: bool,
}

/// A prepared experiment: the workload was solved once; the recorded
/// phase log can be replayed under any machine configuration.
#[derive(Debug)]
pub struct Experiment {
    /// Owned, validated scenario identifier (report rows, cache keys,
    /// runner job labels).
    pub id: String,
    /// Numeric-solve summary.
    pub solve: SolveSummary,
    /// The scenario this experiment was prepared from (family, mesh,
    /// physics parameters) — reports like the mesh-scaling analysis
    /// group and label rows by it.
    scenario: ScenarioSpec,
    scenario_digest: u64,
    log: PhaseLog,
    expand: ExpandConfig,
    fingerprint: u64,
    /// Total ops of the full trace, counted lazily on first use (interval
    /// placement needs the trace length before simulating it).
    total_ops: OnceLock<u64>,
    /// Largest op count the trace is *known to reach* (monotone lower
    /// bound), so repeated budget-clamp checks never re-count.
    trace_at_least: std::sync::atomic::AtomicU64,
}

impl Experiment {
    /// Validates the scenario, builds and solves its model, and captures
    /// the phase log.
    ///
    /// # Errors
    ///
    /// A [`PrepareError`] naming the scenario: either its parameters are
    /// structurally invalid, or the FE solve failed.
    pub fn prepare(spec: &ScenarioSpec) -> Result<Self, PrepareError> {
        Self::prepare_with_store(spec, crate::trace_store::global())
    }

    /// [`Experiment::prepare`] against an explicit trace store (`None`
    /// disables persistence). The public entry point passes the
    /// process-wide store; tests pass their own to avoid environment
    /// races.
    pub fn prepare_with_store(
        spec: &ScenarioSpec,
        store: Option<&crate::trace_store::TraceStore>,
    ) -> Result<Self, PrepareError> {
        let tele = belenos_telemetry::global();
        let span = tele.span(
            "phase",
            &[
                ("phase", "prepare".into()),
                ("workload", spec.id.as_str().into()),
            ],
        );
        let started = std::time::Instant::now();
        let expand = spec.expand_config();
        let scenario_digest = spec.stable_digest();

        if let Some(store) = store {
            if let Some((artifact, _)) = store.load(&spec.id, scenario_digest, &expand) {
                let exp = Self::from_artifact(spec, scenario_digest, expand, artifact);
                tele.gauge(
                    "prepare_wall_s",
                    started.elapsed().as_secs_f64(),
                    &[("workload", spec.id.as_str().into())],
                );
                return Ok(exp);
            }
        }

        let fail = |source| PrepareError {
            workload: spec.id.clone(),
            source,
        };
        let mut model = spec
            .build_model()
            .map_err(|e| fail(PrepareFailure::Scenario(e)))?;
        let size_kb = model.input_size_kb();
        // Assembly gets what the process's thread budget has free for the
        // length of the solve: all of it for a lone solve, nothing (serial
        // assembly) inside a prepare batch that already holds it.
        let helpers = belenos_runner::Budget::global().borrow(usize::MAX);
        model.set_assembly_threads(Some(1 + helpers.count()));
        let report = model.solve().map_err(|e| fail(PrepareFailure::Fem(e)))?;
        drop(helpers);
        let fingerprint = trace_fingerprint(&report.log, &expand);
        // Where the cold solve's time went, and how many stiffness
        // assemblies and numeric factorizations it paid for, for the
        // span's close.
        let solve_split = [
            ("assemble_s", report.assemble_time.as_secs_f64().into()),
            ("linear_solve_s", report.linear_time.as_secs_f64().into()),
            ("newton_iterations", report.total_iterations.into()),
            ("stiffness_assemblies", report.stiffness_assemblies.into()),
            ("factorizations", report.factorizations.into()),
            ("n_dofs", report.n_dofs.into()),
        ];
        let exp = Experiment {
            id: spec.id.clone(),
            scenario: spec.clone(),
            scenario_digest,
            solve: SolveSummary {
                wall_time: report.wall_time,
                n_dofs: report.n_dofs,
                iterations: report.total_iterations,
                size_kb,
                converged: report.converged,
            },
            log: report.log,
            expand,
            fingerprint,
            total_ops: OnceLock::new(),
            trace_at_least: std::sync::atomic::AtomicU64::new(0),
        };
        if let Some(store) = store {
            store.save(&exp.id, &exp.to_artifact(), &exp.expand);
        }
        tele.gauge(
            "prepare_wall_s",
            started.elapsed().as_secs_f64(),
            &[("workload", spec.id.as_str().into())],
        );
        span.close_with(&solve_split);
        Ok(exp)
    }

    /// Rebuilds a prepared experiment from a verified store artifact —
    /// the FE model is never built or solved, and the micro-ops are
    /// re-expanded from the log exactly as after a cold prepare.
    fn from_artifact(
        spec: &ScenarioSpec,
        scenario_digest: u64,
        expand: ExpandConfig,
        artifact: belenos_trace::TraceArtifact,
    ) -> Self {
        Experiment {
            id: spec.id.clone(),
            scenario: spec.clone(),
            scenario_digest,
            solve: SolveSummary {
                wall_time: Duration::new(
                    artifact.solve.wall_secs,
                    artifact.solve.wall_subsec_nanos,
                ),
                n_dofs: artifact.solve.n_dofs,
                iterations: artifact.solve.iterations,
                size_kb: artifact.solve.size_kb,
                converged: artifact.solve.converged,
            },
            log: artifact.log,
            expand,
            fingerprint: artifact.trace_fingerprint,
            total_ops: OnceLock::new(),
            trace_at_least: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Snapshot of this experiment as a store artifact: the kernel log
    /// and solve summary only. Expanding the log again is cheaper than
    /// decoding stored micro-ops, let alone writing them
    /// (`benchmark/README.md`: ≈ 25 vs ≈ 90 vs ≈ 330 ns/op), so a hit
    /// skips the FE solve and re-expands.
    fn to_artifact(&self) -> belenos_trace::TraceArtifact {
        belenos_trace::TraceArtifact {
            scenario_digest: self.scenario_digest,
            expand_fingerprint: expand_fingerprint(&self.expand),
            trace_fingerprint: self.fingerprint,
            solve: belenos_trace::SolveMeta {
                wall_secs: self.solve.wall_time.as_secs(),
                wall_subsec_nanos: self.solve.wall_time.subsec_nanos(),
                n_dofs: self.solve.n_dofs,
                iterations: self.solve.iterations,
                size_kb: self.solve.size_kb,
                converged: self.solve.converged,
            },
            log: self.log.clone(),
            flat: None,
        }
    }

    /// The scenario this experiment was prepared from.
    pub fn scenario(&self) -> &ScenarioSpec {
        &self.scenario
    }

    /// Content fingerprint of the trace the (log, expansion-config) pair
    /// replays — the pre-scenario-era cache identity, still pinned by
    /// the golden tests to prove presets build bit-identical models.
    pub fn trace_fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The recorded phase log.
    pub fn log(&self) -> &PhaseLog {
        &self.log
    }

    /// Runs the log on a core configuration, simulating at most `max_ops`
    /// micro-ops (0 = unlimited). The core-model backend is selected by
    /// `cfg.model` (`--model` on the command line); the default `o3`
    /// backend reproduces the historical behavior bit for bit.
    ///
    /// The ops stream from the log as the model consumes them, a bounded
    /// chunk of whole trips at a time, and expansion stops at the budget:
    /// a run holds at most one chunk plus one trip
    /// ([`belenos_trace::expand::CHUNK_OPS`]), never a whole kernel call.
    ///
    /// This is the historical *prefix-truncation* mode: a budgeted run
    /// measures only the first `max_ops` ops of the trace, which biases
    /// budgeted figures toward assembly and early Newton iterations. For
    /// representative budgeted measurements use
    /// [`Experiment::simulate_sampled`].
    pub fn simulate(&self, cfg: &CoreConfig, max_ops: usize) -> SimStats {
        let tele = belenos_telemetry::global();
        let _span = tele.span(
            "phase",
            &[
                ("phase", "simulate".into()),
                ("mode", "prefix".into()),
                ("workload", self.id.as_str().into()),
                ("max_ops", max_ops.into()),
            ],
        );
        let mut model = build_model(cfg);
        let stats = if max_ops == 0 {
            model.run_warm(&mut self.stream(u64::MAX), 0)
        } else {
            // Discard the first quarter as measurement warmup (cold caches
            // and untrained predictors), as gem5 checkpointed runs do. The
            // quarter is of the *measured* window — the smaller of budget
            // and actual trace — so an oversized budget cannot discard the
            // whole trace as warmup and report empty statistics. Counted
            // before the stream opens, so one expander is alive at a time.
            let limit = max_ops as u64;
            let measured = limit.min(self.trace_ops_up_to(limit));
            model.run_warm(&mut self.stream(limit), measured / 4)
        };
        if tele.enabled() {
            model.emit_counters();
            emit_stage_counters(&tele, &stats);
        }
        stats
    }

    /// A cursor streaming the first `limit` ops of this experiment's
    /// trace from the log, a bounded chunk at a time and never past the
    /// chunk that holds the cursor's stop or the limit.
    fn stream(&self, limit: u64) -> Ops<'_> {
        Ops::stream(Expander::with_config(&self.log, self.expand.clone()).truncated(limit))
    }

    /// Total micro-ops the full trace expands to (counted once, lazily;
    /// generation-only, far cheaper than simulating).
    pub fn total_trace_ops(&self) -> u64 {
        *self
            .total_ops
            .get_or_init(|| Expander::with_config(&self.log, self.expand.clone()).into_total_ops())
    }

    /// Trace length for clamping against `limit`: the full count when
    /// already known, otherwise a generation pass that stops at `limit` —
    /// `O(min(limit, total))`, so a small budgeted run never pays a
    /// full-trace expansion just to learn "long enough".
    fn trace_ops_up_to(&self, limit: u64) -> u64 {
        use std::sync::atomic::Ordering;
        if let Some(&total) = self.total_ops.get() {
            return total;
        }
        let known = self.trace_at_least.load(Ordering::Relaxed);
        if known >= limit {
            return known;
        }
        let n = Expander::with_config(&self.log, self.expand.clone()).total_ops_up_to(limit);
        if n < limit {
            // The bounded pass exhausted the trace: that IS the total.
            let _ = self.total_ops.set(n);
        } else {
            self.trace_at_least.fetch_max(n, Ordering::Relaxed);
        }
        n
    }

    /// Simulates under `cfg` with the op budget placed per `sampling`.
    ///
    /// * `sampling` off (or `max_ops == 0`): identical to
    ///   [`Experiment::simulate`], bit for bit.
    /// * budget covering the whole trace: an exact full-trace run
    ///   (identical to `max_ops == 0`).
    /// * otherwise, SMARTS-style systematic sampling: the budget is split
    ///   into `sampling.intervals` measurement windows placed evenly over
    ///   the whole trace, the gaps between them are *functionally warmed*
    ///   ([`belenos_uarch::CoreModel::warm_only`]: caches, TLBs, BTB and
    ///   branch predictor
    ///   observe every op at zero pipeline cost), the first
    ///   `sampling.warmup_frac` of each window is discarded as detailed
    ///   warmup, and the merged measurements are extrapolated to
    ///   whole-trace estimates.
    pub fn simulate_sampled(
        &self,
        cfg: &CoreConfig,
        max_ops: usize,
        sampling: &SamplingConfig,
    ) -> SimStats {
        if sampling.is_off() || max_ops == 0 {
            return self.simulate(cfg, max_ops);
        }
        let tele = belenos_telemetry::global();
        let span = tele.span(
            "phase",
            &[
                ("phase", "simulate".into()),
                ("mode", "sampled".into()),
                ("workload", self.id.as_str().into()),
                ("max_ops", max_ops.into()),
                ("intervals", sampling.intervals.into()),
            ],
        );
        // The span's two parts outside the detailed windows, timed only
        // while telemetry records: the count pass and functional warming.
        let clock = || tele.enabled().then(Instant::now);
        let seconds = |start: Option<Instant>| start.map_or(0.0, |t| t.elapsed().as_secs_f64());
        let mut model = build_model(cfg);
        // Counted before the stream opens, so one expander is alive at a
        // time.
        let counting = clock();
        let total = self.total_trace_ops();
        let count_s = seconds(counting);
        let mut warm_s = 0.0;
        let ops = &mut self.stream(u64::MAX);
        let stats = if max_ops as u64 >= total {
            // One interval covering the whole trace: simulate exactly.
            model.run_warm(ops, 0)
        } else {
            // Window positions are trace positions: warm the gap up to a
            // window's start, then measure up to its end.
            let mut merged = SimStats {
                freq_ghz: model.config().freq_ghz,
                ..SimStats::default()
            };
            for (start, len) in sampling_windows(total, max_ops as u64, sampling.intervals) {
                ops.stop_at(start + len);
                let warming = clock();
                model.warm_only(ops, start.saturating_sub(ops.at()));
                warm_s += seconds(warming);
                let warmup = (len as f64 * sampling.warmup_frac) as u64;
                merged.merge(&model.run_warm(ops, warmup));
            }
            if merged.committed_ops == 0 {
                merged
            } else {
                merged.scaled(total as f64 / merged.committed_ops as f64)
            }
        };
        if tele.enabled() {
            model.emit_counters();
            emit_stage_counters(&tele, &stats);
        }
        span.close_with(&[("count_s", count_s.into()), ("warm_s", warm_s.into())]);
        stats
    }

    /// Convenience: simulate on the Table II gem5 baseline.
    pub fn simulate_baseline(&self, max_ops: usize) -> SimStats {
        self.simulate(&CoreConfig::gem5_baseline(), max_ops)
    }

    /// Convenience: simulate on the host-like (VTune workstation) config.
    pub fn simulate_host(&self, max_ops: usize) -> SimStats {
        self.simulate(&CoreConfig::host_like(), max_ops)
    }
}

impl belenos_runner::Simulate for Experiment {
    fn workload_id(&self) -> &str {
        &self.id
    }

    /// Trace fingerprint folded with the scenario's content digest: two
    /// parametric variants sharing an id — even ones whose *traces*
    /// coincide structurally (e.g. the `bp07`–`bp09` permeability axis)
    /// — can never alias a cached result.
    fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.fingerprint)
            .write_u64(self.scenario_digest);
        h.finish()
    }

    fn simulate(&self, config: &CoreConfig, max_ops: usize, sampling: &SamplingConfig) -> SimStats {
        Experiment::simulate_sampled(self, config, max_ops, sampling)
    }

    /// The scenario's explicit JSON normal form: a worker process on
    /// another host can `ScenarioSpec::parse` + `Experiment::prepare` it
    /// and land on the same deterministic model (same trace fingerprint,
    /// same cache key), which is what makes experiments distributable.
    fn scenario_json(&self) -> Option<String> {
        Some(self.scenario.to_json())
    }
}

/// Emits the per-stage cycle breakdown of a finished simulation as
/// telemetry counters, attributed to the thread's current `phase` span.
/// Purely observational: reads the already-computed [`SimStats`], never
/// touches the model.
fn emit_stage_counters(tele: &belenos_telemetry::Telemetry, stats: &SimStats) {
    tele.counter("sim_cycles", stats.cycles, &[]);
    tele.counter("sim_committed_ops", stats.committed_ops, &[]);
    tele.counter("sim_squashed_ops", stats.squashed_ops, &[]);
    tele.counter("sim_active_fetch_cycles", stats.active_fetch_cycles, &[]);
    tele.counter("sim_icache_stall_cycles", stats.icache_stall_cycles, &[]);
    tele.counter("sim_tlb_stall_cycles", stats.tlb_stall_cycles, &[]);
    tele.counter("sim_squash_cycles", stats.squash_cycles, &[]);
    tele.counter("sim_misc_stall_cycles", stats.misc_stall_cycles, &[]);
    if stats.seconds() > 0.0 {
        // Simulated-time MIPS of the modeled core (distinct from the
        // runner's host-throughput `simulated_mips` gauge).
        tele.gauge(
            "core_mips",
            stats.committed_ops as f64 / stats.seconds() / 1e6,
            &[],
        );
        tele.gauge("ipc", stats.ipc(), &[]);
    }
}

/// Placement of SMARTS-style measurement windows: `(start, len)` pairs in
/// trace-op coordinates for a detailed budget of `budget` ops split into
/// `intervals` windows over a trace of `total` ops.
///
/// Each window sits at the *end* of its equal-length period, so the
/// functional-warming gap precedes every measurement and the last window
/// reaches the tail of the trace — budgeted runs observe steady-state
/// solver phases, not just the assembly-heavy prefix.
fn sampling_windows(total: u64, budget: u64, intervals: usize) -> Vec<(u64, u64)> {
    if total == 0 || budget == 0 {
        return Vec::new();
    }
    if budget >= total {
        return vec![(0, total)];
    }
    let n = (intervals.max(1) as u64).min(budget);
    let measured = (budget / n).max(1);
    let period = (total / n).max(measured);
    (0..n)
        .map(|i| (i * period + (period - measured), measured))
        .collect()
}

/// What stopped a scenario from preparing.
#[derive(Debug, Clone)]
pub enum PrepareFailure {
    /// The scenario's parameters failed validation (never built a model).
    Scenario(ScenarioError),
    /// The FE model failed to solve.
    Fem(FemError),
    /// The preparation job panicked on its worker thread; the payload is
    /// the captured panic message.
    Panic(String),
}

impl std::fmt::Display for PrepareFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrepareFailure::Scenario(e) => e.fmt(f),
            PrepareFailure::Fem(e) => e.fmt(f),
            PrepareFailure::Panic(msg) => msg.fmt(f),
        }
    }
}

impl std::error::Error for PrepareFailure {}

/// A scenario-preparation failure, carrying *which* scenario failed.
#[derive(Debug, Clone)]
pub struct PrepareError {
    /// Identifier of the scenario that failed to prepare.
    pub workload: String,
    /// The underlying failure.
    pub source: PrepareFailure,
}

impl std::fmt::Display for PrepareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "workload `{}` failed to prepare: {}",
            self.workload, self.source
        )
    }
}

impl std::error::Error for PrepareError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Prepares a list of scenarios; failures abort with the failing scenario
/// named.
///
/// The prepares run as one batch on the process's thread budget
/// ([`belenos_runner::pool`]) — a lone one too, on the calling thread —
/// each with its own queue-wait/exec telemetry span. Results come back in
/// input order, so parallel and serial preparation are observationally
/// identical apart from wall time.
///
/// # Errors
///
/// The first preparation failure *in input order*, annotated with the
/// scenario id. A panicking prepare job is contained where it ran and
/// surfaces as [`PrepareFailure::Panic`].
pub fn prepare_all(specs: &[ScenarioSpec]) -> Result<Vec<Experiment>, PrepareError> {
    let refs: Vec<&ScenarioSpec> = specs.iter().collect();
    prepare_refs(&refs)
}

/// [`prepare_all`] over borrowed specs: the shared engine behind both the
/// slice entry point and `Campaign::prepare`'s cross-set batch.
pub(crate) fn prepare_refs(specs: &[&ScenarioSpec]) -> Result<Vec<Experiment>, PrepareError> {
    let tele = belenos_telemetry::global();
    let batch = tele.span("prepare", &[("jobs", specs.len().into())]);
    let (ran, _threads) = belenos_runner::pool::run_batch(
        belenos_runner::Budget::global(),
        batch.id(),
        specs,
        |spec| vec![("label", spec.id.as_str().into())],
        |spec| Experiment::prepare(spec),
        |_, _| {},
    );
    specs
        .iter()
        .zip(ran)
        .map(|(spec, ran)| match ran.outcome {
            Ok(prepared) => prepared,
            Err(message) => Err(PrepareError {
                workload: spec.id.clone(),
                source: PrepareFailure::Panic(format!("job '{}' panicked: {message}", spec.id)),
            }),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use belenos_workloads::by_id;

    use belenos_trace::MicroOp;
    use std::sync::Arc;

    /// The run `simulate_sampled` makes, over a range of the whole trace
    /// collected up front from the expander's iterator instead of a
    /// stream.
    /// Covers the prefix, full and sampled modes; a sampled budget must
    /// be short of the trace.
    fn pre_expanded_replay(
        exp: &Experiment,
        cfg: &CoreConfig,
        max_ops: usize,
        sampling: &SamplingConfig,
    ) -> SimStats {
        let all: Vec<MicroOp> = Expander::with_config(exp.log(), exp.expand.clone()).collect();
        let total = all.len() as u64;
        let limit = max_ops as u64;
        let ops = &mut Ops::range(&all, 0, all.len());
        let mut model = build_model(cfg);
        if max_ops == 0 {
            return model.run_warm(ops, 0);
        }
        if sampling.is_off() {
            ops.stop_at(limit);
            return model.run_warm(ops, limit.min(total) / 4);
        }
        assert!(limit < total, "premise: the budget samples the trace");
        let mut merged = SimStats {
            freq_ghz: cfg.freq_ghz,
            ..SimStats::default()
        };
        for (start, len) in sampling_windows(total, limit, sampling.intervals) {
            ops.stop_at(start + len);
            model.warm_only(ops, start - ops.at());
            let warmup = (len as f64 * sampling.warmup_frac) as u64;
            merged.merge(&model.run_warm(ops, warmup));
        }
        merged.scaled(total as f64 / merged.committed_ops as f64)
    }

    #[test]
    fn streamed_replay_is_bit_identical_to_a_pre_expanded_range() {
        // Every backend, in prefix, full and sampled mode: a run that
        // streams its ops from the log reports exactly the statistics of
        // one that replays the whole trace expanded up front.
        let exp = Experiment::prepare(&by_id("pd").expect("pd exists")).unwrap();
        let modes = [
            (40_000, SamplingConfig::off()),
            (0, SamplingConfig::off()),
            (30_000, SamplingConfig::smarts(8)),
        ];
        for kind in belenos_uarch::ModelKind::ALL {
            let cfg = CoreConfig::gem5_baseline().with_model(kind);
            for (max_ops, sampling) in &modes {
                let stream = exp.simulate_sampled(&cfg, *max_ops, sampling);
                let range = pre_expanded_replay(&exp, &cfg, *max_ops, sampling);
                let mode = format!("{kind}, {max_ops} ops, {sampling:?}");
                assert!(range.committed_ops > 0, "{mode}");
                assert_eq!(stream, range, "{mode}");
            }
        }
        assert!(
            exp.total_trace_ops() > 10 * 40_000,
            "premise: the budgets are a prefix and a sample, not the whole trace"
        );
    }

    #[test]
    fn a_stream_holds_at_most_one_chunk_and_one_trip() {
        use belenos_trace::expand::{Footprint, CHUNK_OPS};
        // Between refills the buffer holds a chunk plus the largest trip;
        // while a record trip outgrows it, at most a chunk plus twice that
        // trip, never a doubling of the whole buffer.
        let bounded = |f: &Footprint| {
            f.capacity <= CHUNK_OPS + f.largest_trip
                && f.peak_capacity <= CHUNK_OPS + 2 * f.largest_trip
        };
        for id in ["co", "tu"] {
            let exp = Experiment::prepare(&by_id(id).expect("preset")).unwrap();
            let expander = || Expander::with_config(exp.log(), exp.expand.clone());
            // Streamed: checked after each chunk a cursor would replay.
            let mut ex = expander();
            let mut total = 0;
            while let Some(chunk) = ex.next_chunk() {
                total += chunk.len() as u64;
                let f = ex.footprint();
                assert!(bounded(&f), "{id}: {f:?}");
            }
            assert!(total > 10 * CHUNK_OPS as u64, "premise: {id} spans chunks");
            // Counted: the count pass drains the same chunks.
            assert_eq!(expander().into_total_ops(), total, "{id}");
            assert_eq!(exp.total_trace_ops(), total, "{id}");
            // Truncated: the trip that reaches the limit is the last one
            // started.
            for limit in [1, CHUNK_OPS as u64 + 1, 60_000, total / 3, total - 1] {
                let mut ex = expander().truncated(limit);
                while ex.next_chunk().is_some() {}
                assert_eq!(ex.emitted_ops(), limit, "{id} at {limit}");
                let f = ex.footprint();
                assert!(f.last_trip_at < limit, "{id} at {limit}: {f:?}");
                assert!(bounded(&f), "{id}: {f:?}");
                assert_eq!(expander().total_ops_up_to(limit), limit, "{id}");
            }
        }
    }

    #[test]
    fn prepare_and_simulate_smallest_workload() {
        let spec = by_id("pd").expect("pd exists");
        let exp = Experiment::prepare(&spec).unwrap();
        assert!(exp.solve.converged);
        assert!(!exp.log().is_empty());
        let stats = exp.simulate_baseline(50_000);
        assert!(stats.committed_ops > 10_000);
        assert!(stats.ipc() > 0.05);
        let (r, fe, bs, be) = stats.topdown();
        assert!((r + fe + bs + be - 1.0).abs() < 1e-9);
    }

    #[test]
    fn prepare_all_names_the_failing_workload() {
        // An invalid scenario (zero-resolution mesh) fails preparation
        // with its id in the message, before any model is built.
        let mut bad = by_id("pd").expect("pd");
        bad.id = "pd-broken".into();
        bad.mesh.nx = 0;
        let err = prepare_all(&[bad]).unwrap_err();
        assert!(err.to_string().contains("workload `pd-broken`"), "{err}");
        assert!(err.to_string().contains("mesh.nx"), "{err}");
        assert!(std::error::Error::source(&err).is_some());
        // A solver failure carries the same shape.
        let err = PrepareError {
            workload: "eye".into(),
            source: PrepareFailure::Fem(FemError::InvalidModel("bad".into())),
        };
        assert!(err.to_string().contains("workload `eye`"));
    }

    #[test]
    fn a_lone_prepare_runs_as_a_batch_of_one() {
        // One spec goes through the batch like many: one `prepare` span,
        // one `job` inside it (and with it the batch's panic containment).
        let (prepared, events) =
            belenos_telemetry::capture(|| prepare_all(&[by_id("pd").expect("pd exists")]));
        assert_eq!(prepared.expect("pd solves").len(), 1);
        let opened = |name: &str| -> Vec<&belenos_json::Json> {
            events
                .iter()
                .filter(|e| {
                    e.get("ev").and_then(belenos_json::Json::as_str) == Some("span_open")
                        && e.get("name").and_then(belenos_json::Json::as_str) == Some(name)
                })
                .collect()
        };
        let (batches, jobs) = (opened("prepare"), opened("job"));
        assert_eq!(batches.len(), 1, "one prepare span: {batches:?}");
        assert_eq!(jobs.len(), 1, "one job span: {jobs:?}");
        assert_eq!(jobs[0].get("parent"), batches[0].get("id"));
        assert_eq!(jobs[0].get("label").and_then(|l| l.as_str()), Some("pd"));
    }

    #[test]
    fn fingerprint_distinguishes_expand_configs() {
        // `co` appears with different expansion knobs in catalog() vs
        // gem5_set(); their fingerprints must differ or the result cache
        // would alias them.
        let gem5_co = belenos_workloads::gem5_set()
            .into_iter()
            .find(|w| w.id == "co")
            .unwrap();
        let cat_co = belenos_workloads::catalog()
            .into_iter()
            .find(|w| w.id == "co")
            .unwrap();
        assert_ne!(
            gem5_co.expand.sample, cat_co.expand.sample,
            "premise of this test"
        );
        let a = Experiment::prepare(&gem5_co).unwrap();
        let b = Experiment::prepare(&cat_co).unwrap();
        use belenos_runner::Simulate;
        assert_ne!(a.fingerprint(), b.fingerprint());
        // Same spec prepared twice fingerprints identically (determinism).
        let a2 = Experiment::prepare(&gem5_co).unwrap();
        assert_eq!(a.fingerprint(), a2.fingerprint());
    }

    #[test]
    fn sampling_off_is_bit_identical_to_prefix_mode() {
        let exp = Experiment::prepare(&by_id("pd").expect("pd")).unwrap();
        let cfg = CoreConfig::gem5_baseline();
        let prefix = exp.simulate(&cfg, 30_000);
        let off = exp.simulate_sampled(&cfg, 30_000, &SamplingConfig::off());
        assert_eq!(prefix, off, "sampling=off must reproduce prefix mode");
    }

    #[test]
    fn sampled_run_tracks_full_simulation() {
        for id in ["pd", "co"] {
            let exp = Experiment::prepare(&by_id(id).expect(id)).unwrap();
            let cfg = CoreConfig::gem5_baseline();
            let total = exp.total_trace_ops();
            let full = exp.simulate(&cfg, 0);
            assert_eq!(
                full.committed_ops, total,
                "{id}: every emitted op commits exactly once"
            );

            // One interval whose budget covers the whole trace is exactly
            // O3Core::run.
            let single = exp.simulate_sampled(&cfg, total as usize, &SamplingConfig::smarts(1));
            assert_eq!(single, full, "{id}: full-budget interval must equal run()");

            // A 10x reduced budget over many small intervals extrapolates
            // close to the full simulation. (Few large intervals alias with
            // the trace's phase structure — SMARTS' core observation is that
            // many small windows beat few large ones at equal budget.) At
            // the `--sampling on` default: pd 4.19%, co 2.25%.
            for intervals in [100, belenos_uarch::DEFAULT_SAMPLING_INTERVALS] {
                let smp = SamplingConfig::smarts(intervals);
                let sampled = exp.simulate_sampled(&cfg, total as usize / 10, &smp);
                let ipc_err = (sampled.ipc() - full.ipc()).abs() / full.ipc();
                assert!(
                    ipc_err < 0.05,
                    "{id}/{intervals}: sampled IPC {} vs full {} (err {:.2}%)",
                    sampled.ipc(),
                    full.ipc(),
                    ipc_err * 100.0
                );
                // Extrapolated op count lands near the whole trace.
                let op_err = (sampled.committed_ops as f64 - total as f64).abs() / total as f64;
                assert!(
                    op_err < 0.02,
                    "{id}/{intervals}: extrapolated ops {}",
                    sampled.committed_ops
                );
                // And it must beat prefix truncation's bias on the cycle
                // estimate... at minimum, be a whole-trace-scale estimate at
                // all (prefix mode reports only the measured window).
                assert!(sampled.cycles > full.cycles / 2, "{id}/{intervals}");
                assert!(sampled.cycles < full.cycles * 2, "{id}/{intervals}");
            }
        }
    }

    #[test]
    fn oversized_budget_in_prefix_mode_still_measures() {
        // Regression: a budget whose quarter-warmup exceeded the whole
        // trace used to make run_warm's empty-measurement clamp zero out
        // the stats; the warmup is now a quarter of min(budget, trace).
        let exp = Experiment::prepare(&by_id("pd").expect("pd")).unwrap();
        let cfg = CoreConfig::gem5_baseline();
        let total = exp.total_trace_ops();
        let stats = exp.simulate(&cfg, (total as usize) * 10);
        assert!(stats.committed_ops > 0, "oversized budget must not zero");
        // Measured window = trace minus the quarter-trace warmup.
        assert!(stats.committed_ops <= total * 3 / 4 + 8);
        assert!(stats.committed_ops >= total / 2);
        assert!(stats.ipc() > 0.1);
    }

    #[test]
    fn sampling_windows_cover_late_trace_phases() {
        let total = 1_000_000u64;
        let windows = sampling_windows(total, 100_000, 10);
        assert_eq!(windows.len(), 10);
        for (start, len) in &windows {
            assert_eq!(*len, 10_000);
            assert!(start + len <= total);
        }
        // Windows are strictly increasing and evenly spread.
        for w in windows.windows(2) {
            assert_eq!(w[1].0 - w[0].0, 100_000, "equal periods");
        }
        // The last window reaches the trace tail — budgeted measurement
        // is no longer a prefix.
        let (last_start, last_len) = *windows.last().unwrap();
        assert!(last_start + last_len == total);
        assert!(last_start as f64 > 0.89 * total as f64);

        // Degenerate shapes.
        assert_eq!(sampling_windows(100, 200, 4), vec![(0, 100)]);
        assert_eq!(sampling_windows(0, 100, 4), vec![]);
        assert_eq!(sampling_windows(100, 0, 4), vec![]);
        // More intervals than budget ops: clamped, never empty windows.
        let tiny = sampling_windows(1000, 3, 10);
        assert_eq!(tiny.len(), 3);
        assert!(tiny.iter().all(|&(_, len)| len == 1));
    }

    #[test]
    fn sampling_windows_budget_at_least_total_is_one_exact_window() {
        // budget == total and budget > total both degenerate to a single
        // exact window covering the whole trace, for any interval count.
        for budget in [500u64, 501, 10_000] {
            for intervals in [0usize, 1, 7, 1000] {
                assert_eq!(
                    sampling_windows(500, budget, intervals),
                    vec![(0, 500)],
                    "budget {budget}, intervals {intervals}"
                );
            }
        }
    }

    #[test]
    fn sampling_windows_never_overlap_or_overrun() {
        // Windows are disjoint, ordered, in-bounds and spend exactly the
        // usable budget across a spread of awkward shapes.
        for (total, budget, intervals) in [
            (1_000_000u64, 100_000u64, 10usize),
            (999_983, 31_337, 17), // primes: nothing divides evenly
            (1000, 999, 3),
            (64, 63, 64),   // intervals > budget/interval
            (1000, 3, 10),  // intervals > budget
            (10, 9, 1),     // single window
            (8192, 1, 128), // one-op budget
        ] {
            let windows = sampling_windows(total, budget, intervals);
            assert!(!windows.is_empty(), "({total},{budget},{intervals})");
            let mut prev_end = 0u64;
            for &(start, len) in &windows {
                assert!(len > 0, "empty window in ({total},{budget},{intervals})");
                assert!(
                    start >= prev_end,
                    "overlap in ({total},{budget},{intervals})"
                );
                assert!(
                    start + len <= total,
                    "overrun in ({total},{budget},{intervals})"
                );
                prev_end = start + len;
            }
            let spent: u64 = windows.iter().map(|&(_, len)| len).sum();
            assert!(
                spent <= budget.max(windows.len() as u64),
                "overspent budget in ({total},{budget},{intervals}): {spent}"
            );
        }
    }

    #[test]
    fn sampling_windows_zero_trace_and_zero_budget_are_empty() {
        assert_eq!(sampling_windows(0, 0, 0), vec![]);
        assert_eq!(sampling_windows(0, 1, 1), vec![]);
        assert_eq!(sampling_windows(1, 0, 1), vec![]);
        // A 1-op trace with any budget is one exact 1-op window.
        assert_eq!(sampling_windows(1, 1, 5), vec![(0, 1)]);
    }

    #[test]
    fn sampled_zero_length_trace_reports_empty_stats() {
        // A sampled run over a trace the windows never reach (empty
        // merge) must report zeros, not extrapolate garbage.
        let exp = Experiment::prepare(&by_id("pd").expect("pd")).unwrap();
        let cfg = CoreConfig::gem5_baseline();
        // Budget 0 falls back to prefix mode's unlimited run; instead
        // exercise the merge-empty path via a 1-op budget at 1 interval:
        // the window measures ops, so committed stays > 0 — the guard in
        // simulate_sampled is the `merged.committed_ops == 0` branch,
        // reachable only with an empty window set on a non-empty trace,
        // which sampling_windows never produces. Assert that invariant.
        let total = exp.total_trace_ops();
        assert!(total > 0);
        for intervals in [1usize, 4, 1000] {
            assert!(
                !sampling_windows(total, 1, intervals).is_empty(),
                "non-empty trace with non-zero budget always measures"
            );
        }
        let stats = exp.simulate_sampled(&cfg, 1, &SamplingConfig::smarts(4));
        assert!(stats.committed_ops > 0, "1-op budget still extrapolates");
    }

    #[test]
    fn window_merge_extrapolation_preserves_ratios_and_scale() {
        // Merged-and-scaled interval stats: extrapolated committed ops
        // land on the whole trace, and intensive ratios (IPC, MPKI)
        // survive scaling unchanged up to rounding.
        let exp = Experiment::prepare(&by_id("pd").expect("pd")).unwrap();
        let cfg = CoreConfig::gem5_baseline();
        let total = exp.total_trace_ops();
        let sampled = exp.simulate_sampled(&cfg, total as usize / 8, &SamplingConfig::smarts(32));
        let op_err = (sampled.committed_ops as f64 - total as f64).abs() / total as f64;
        assert!(op_err < 0.05, "extrapolated ops {}", sampled.committed_ops);
        // Slot identity survives merge + scale within rounding slack.
        let width = cfg.commit_width as u64;
        let slack = sampled.total_slots() / 100 + 64;
        assert!(
            sampled.total_slots().abs_diff(sampled.cycles * width) <= slack,
            "slots {} vs cycles*width {}",
            sampled.total_slots(),
            sampled.cycles * width
        );
    }

    #[test]
    fn simulate_is_bit_identical_to_a_core_driven_off_the_expander() {
        // A core driven straight off the expander, op by op, produces
        // the exact statistics of `simulate`, and so does every repeated
        // run of it.
        let spec = by_id("pd").expect("pd exists");
        let exp = Experiment::prepare(&spec).unwrap();
        let cfg = CoreConfig::gem5_baseline();
        let expander = || Expander::with_config(exp.log(), spec.expand_config());

        let full = exp.simulate(&cfg, 0);
        let mut core = belenos_uarch::O3Core::new(cfg.clone());
        assert_eq!(full, core.run(expander()), "full-trace replay");
        assert_eq!(full, exp.simulate(&cfg, 0), "repeated replay");

        let budget = 40_000usize;
        let budgeted = exp.simulate(&cfg, budget);
        let mut core = belenos_uarch::O3Core::new(cfg.clone());
        assert_eq!(
            budgeted,
            core.run_warm(expander().take(budget), budget as u64 / 4),
            "budgeted replay"
        );
        assert_eq!(
            budgeted,
            exp.simulate(&cfg, budget),
            "repeated budgeted replay"
        );
    }

    /// A log of all 18 kernel variants, every `MaterialClass` and
    /// `PrecondClass`, with one pattern, one `conn` and one `col_ptr`
    /// shared across calls, a second pattern (table order) and a
    /// content-equal copy of `conn` in its own allocation.
    fn every_kernel_log() -> belenos_trace::PhaseLog {
        use belenos_sparse::CsrPattern;
        use belenos_trace::{KernelCall, MaterialClass as M, PrecondClass};
        let pat = Arc::new(
            CsrPattern::new(3, 3, vec![0, 2, 3, 5], vec![0, 1, 1, 0, 2]).expect("valid pattern"),
        );
        let pat2 = Arc::new(CsrPattern::new(2, 2, vec![0, 1, 2], vec![0, 1]).expect("valid"));
        let conn = Arc::new(vec![0u32, 1, 2, 3, 1, 2, 3, 4]);
        let conn_copy = Arc::new(conn.to_vec());
        let col_ptr = Arc::new(vec![0usize, 2, 3, 3]);
        let row_idx = Arc::new(vec![1u32, 2, 2]);
        let mut log = belenos_trace::PhaseLog::new();
        let mut rec = |call| log.record(call);
        rec(KernelCall::Dot { n: 64 });
        rec(KernelCall::Axpy { n: 65 });
        rec(KernelCall::Norm { n: 66 });
        rec(KernelCall::VecOp { n: 67 });
        rec(KernelCall::SpMv {
            pattern: Arc::clone(&pat2),
        });
        rec(KernelCall::SpMv {
            pattern: Arc::clone(&pat),
        });
        rec(KernelCall::AssembleStiffness {
            conn: Arc::clone(&conn),
            nodes_per_elem: 4,
            dofs_per_node: 3,
            gauss_points: 8,
            material: M::Viscoelastic,
            pattern: Arc::clone(&pat),
        });
        rec(KernelCall::AssembleResidual {
            conn: Arc::clone(&conn),
            nodes_per_elem: 4,
            dofs_per_node: 3,
            gauss_points: 1,
            material: M::Biphasic,
        });
        rec(KernelCall::AssembleResidual {
            conn: conn_copy,
            nodes_per_elem: 8,
            dofs_per_node: 4,
            gauss_points: 2,
            material: M::Fluid,
        });
        rec(KernelCall::LdlFactor {
            col_ptr: Arc::clone(&col_ptr),
            row_idx: Arc::clone(&row_idx),
        });
        rec(KernelCall::LdlSolve { col_ptr, row_idx });
        rec(KernelCall::CgSolve {
            pattern: Arc::clone(&pat),
            iterations: 7,
            precond: PrecondClass::None,
        });
        rec(KernelCall::CgSolve {
            pattern: Arc::clone(&pat),
            iterations: 5,
            precond: PrecondClass::Jacobi,
        });
        rec(KernelCall::FgmresSolve {
            pattern: pat,
            iterations: 9,
            restart: 4,
            precond: PrecondClass::Ilu0,
        });
        for (i, material) in [
            M::LinearElastic,
            M::Hyperelastic,
            M::FiberExponential,
            M::Viscoelastic,
            M::Biphasic,
            M::Multiphasic,
            M::Damage,
            M::Plasticity,
            M::ActiveMuscle,
            M::Growth,
            M::Fluid,
            M::Rigid,
        ]
        .into_iter()
        .enumerate()
        {
            rec(KernelCall::ConstitutiveUpdate {
                gauss_points: 10 + i,
                material,
            });
        }
        rec(KernelCall::ContactSearch {
            outcomes: Arc::new(vec![true, false, true]),
        });
        rec(KernelCall::OmpBarrier { spin_iters: 33 });
        rec(KernelCall::BcApply { n: 12 });
        rec(KernelCall::MeshUpdate { n_nodes: 27 });
        rec(KernelCall::RigidUpdate {
            n_bodies: 2,
            n_joints: 1,
        });
        rec(KernelCall::ConvergenceCheck { n: 81 });
        log
    }

    fn fnv(bytes: &[u8]) -> u64 {
        belenos_trace::Fnv64::new().write_bytes(bytes).finish()
    }

    /// `(op count, FNV-64 over all nine fields of every op)`.
    fn stream_pin(ops: impl Iterator<Item = MicroOp>) -> (u64, u64) {
        let mut h = belenos_trace::Fnv64::new();
        let mut n = 0;
        for op in ops {
            n += 1;
            h.write_bytes(&[op.kind as u8, op.cat as u8, op.size, op.taken as u8])
                .write_bytes(&op.pc.to_le_bytes())
                .write_u64(op.addr)
                .write_bytes(&op.target.to_le_bytes())
                .write_bytes(&op.dep1.to_le_bytes())
                .write_bytes(&op.dep2.to_le_bytes());
        }
        (n, h.finish())
    }

    /// The expander's output itself: every op `every_kernel_log` expands
    /// to, under the default knobs and under tuned ones whose cap strides
    /// every subsampled loop.
    #[test]
    fn every_kernel_stream_is_pinned() {
        use belenos_trace::{KernelCall, PrecondClass};
        let log = every_kernel_log();
        let tuned = ExpandConfig {
            sample: 2,
            code_bloat: 3,
            spin_scale: 1.5,
            max_kernel_ops: 11,
        };
        let uncapped = ExpandConfig {
            max_kernel_ops: usize::MAX,
            ..tuned.clone()
        };
        let alone = |call: &KernelCall, cfg: &ExpandConfig| {
            let mut one = PhaseLog::new();
            one.record(call.clone());
            Expander::with_config(&one, cfg.clone()).count()
        };
        // Under the cap every strided kernel emits fewer ops than
        // uncapped, so its stride is > 1. Rigid bodies have no trip loop,
        // and the 8-node residual covers one element.
        for call in log.calls() {
            let one_trip = matches!(
                call,
                KernelCall::RigidUpdate { .. }
                    | KernelCall::AssembleResidual {
                        nodes_per_elem: 8,
                        ..
                    }
            );
            assert_eq!(
                alone(call, &tuned) < alone(call, &uncapped),
                !one_trip,
                "{call:?}"
            );
        }
        // The Jacobi sweep runs only inside a solve: it is the difference
        // between one-iteration solves with and without it.
        let pattern = log
            .calls()
            .iter()
            .find_map(|c| match c {
                KernelCall::CgSolve { pattern, .. } => Some(Arc::clone(pattern)),
                _ => None,
            })
            .expect("the log has a CG solve");
        let jacobi = |cfg: &ExpandConfig| {
            let cg = |precond| KernelCall::CgSolve {
                pattern: Arc::clone(&pattern),
                iterations: 1,
                precond,
            };
            alone(&cg(PrecondClass::Jacobi), cfg) - alone(&cg(PrecondClass::None), cfg)
        };
        assert!(jacobi(&tuned) < jacobi(&uncapped));

        assert_eq!(
            stream_pin(Expander::new(&log)),
            (30746, 0xc405_07f7_61f9_aa74)
        );
        assert_eq!(
            stream_pin(Expander::with_config(&log, tuned)),
            (3020, 0x4bc3_fe0b_a0cb_aea4)
        );
    }

    /// Captured at 448fc7c, before the kernel listing, and recaptured at
    /// 6bfb883 without the skyline calls: the store bytes and both
    /// fingerprint hash streams of a log that uses every kernel variant
    /// must never move without a version bump.
    #[test]
    fn every_kernel_store_bytes_and_fingerprints_are_pinned() {
        use belenos_trace::{FnCategory, MicroOp, OpKind, SolveMeta, TraceArtifact};
        let log = every_kernel_log();
        assert_eq!(log.len(), 32);
        let tuned = ExpandConfig {
            sample: 3,
            code_bloat: 2,
            spin_scale: 1.5,
            max_kernel_ops: 2_000,
        };
        assert_eq!(
            trace_fingerprint(&log, &ExpandConfig::default()),
            0xd081_c266_3d47_a606
        );
        assert_eq!(trace_fingerprint(&log, &tuned), 0x8ba3_663e_700e_510d);
        assert_eq!(
            expand_fingerprint(&ExpandConfig::default()),
            0x2ad7_a124_9f0b_7a8e
        );
        assert_eq!(expand_fingerprint(&tuned), 0xcdc1_ed85_2867_d8d3);

        let mut artifact = TraceArtifact {
            scenario_digest: 0x0123_4567_89ab_cdef,
            expand_fingerprint: expand_fingerprint(&tuned),
            trace_fingerprint: trace_fingerprint(&log, &tuned),
            solve: SolveMeta {
                wall_secs: 1,
                wall_subsec_nanos: 250_000_000,
                n_dofs: 300,
                iterations: 12,
                size_kb: 48.5,
                converged: true,
            },
            log,
            flat: None,
        };
        let log_only = artifact.encode();
        assert_eq!(
            (log_only.len(), fnv(&log_only)),
            (834, 0xdc90_a935_dd50_6545)
        );
        artifact.flat = Some(Arc::new(
            [
                MicroOp::load(7, 0x1000, 8, 1, FnCategory::MklBlas),
                MicroOp::fp(OpKind::FpMul, 8, 1, 2, FnCategory::Internal),
            ]
            .into_iter()
            .collect(),
        ));
        let with_flat = artifact.encode();
        assert_eq!(
            (with_flat.len(), fnv(&with_flat)),
            (898, 0x58f3_97ae_8369_a457)
        );
        // Every op-kind and category tag of the flat section.
        artifact.flat = Some(Arc::new(
            [
                MicroOp::int(1, 1, 2, FnCategory::Internal),
                MicroOp {
                    kind: OpKind::IntMul,
                    ..MicroOp::int(2, 1, 0, FnCategory::Sparsity)
                },
                MicroOp::fp(OpKind::FpAdd, 3, 1, 2, FnCategory::MatrixDense),
                MicroOp::fp(OpKind::FpMul, 4, 2, 1, FnCategory::FebioSpecific),
                MicroOp::fp(OpKind::FpDiv, 5, 1, 0, FnCategory::MklBlas),
                MicroOp::load(6, 0x2000, 4, 1, FnCategory::MklPardiso),
                MicroOp::store(7, 0x2008, 8, 2, FnCategory::Internal),
                MicroOp::branch(8, 1, true, 1, FnCategory::Sparsity),
                MicroOp::pause(9, FnCategory::FebioSpecific),
                MicroOp::serialize(10, FnCategory::Internal),
            ]
            .into_iter()
            .collect(),
        ));
        let every_op = artifact.encode();
        assert_eq!(
            (every_op.len(), fnv(&every_op)),
            (1122, 0x34d6_76c8_db86_0784)
        );
    }

    /// Captured at 448fc7c: the store entry of a real solve (`pd` at
    /// resolution 3), wall time zeroed.
    #[test]
    fn pd_store_entry_bytes_are_pinned() {
        let spec = by_id("pd").expect("pd exists").with_resolution(3);
        let exp = Experiment::prepare_with_store(&spec, None).unwrap();
        let mut artifact = exp.to_artifact();
        artifact.solve = belenos_trace::SolveMeta {
            wall_secs: 0,
            wall_subsec_nanos: 0,
            n_dofs: 0,
            iterations: 0,
            size_kb: 0.0,
            converged: false,
        };
        let bytes = artifact.encode();
        assert_eq!((bytes.len(), fnv(&bytes)), (80896, 0x219f_8e3b_b99e_0b9d));
    }

    #[test]
    fn same_log_different_configs() {
        let spec = by_id("pd").expect("pd exists");
        let exp = Experiment::prepare(&spec).unwrap();
        let slow = exp.simulate(&CoreConfig::gem5_baseline().with_frequency(1.0), 30_000);
        let fast = exp.simulate(&CoreConfig::gem5_baseline().with_frequency(4.0), 30_000);
        // Warmup snapshots land on commit-group boundaries, so counts can
        // differ by less than one commit group across configs.
        assert!(
            slow.committed_ops.abs_diff(fast.committed_ops) < 8,
            "same trace must replay: {} vs {}",
            slow.committed_ops,
            fast.committed_ops
        );
        assert!(fast.seconds() < slow.seconds());
    }
}
