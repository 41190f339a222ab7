//! The out-of-order core: fetch → decode/rename/dispatch → issue →
//! writeback → commit over a micro-op trace, with squash-and-replay branch
//! misprediction recovery and TMA slot accounting.
//!
//! Structure follows gem5's `X86O3CPU`: a reorder buffer bounded by
//! `rob_entries`, an issue queue, split load/store queues, physical
//! register pools, per-class functional units, and a front end that fights
//! the icache, iTLB, BTB and branch predictor.
//!
//! Each pipeline stage lives in its own module (`fetch`, `dispatch`,
//! `issue`, `writeback`, `commit`), operating on the shared per-run
//! `pipeline::Pipeline` state; [`O3Core::run_warm`] is the cycle driver
//! that steps them commit-first (gem5's reverse-stage order, so each
//! cycle observes the previous cycle's state). The O3 model is one
//! [`crate::model::CoreModel`] backend among several — see
//! [`crate::model`] for the in-order and analytical alternatives.
//!
//! # One in-flight window
//!
//! Live ops carry contiguous trace indices, so an op's dynamic state
//! lives exactly once, in rings keyed by `idx & mask`: the fetched
//! `MicroOp`, an 8-byte ROB entry, an issue-queue record that also
//! carries the intrusive wake-up lists (a consumer parks on its
//! producer's slot; writeback wakes the list, squash unlinks what it
//! pops), and the op's one pending completion, threaded onto its
//! cycle's list of the event wheel through the same slot (issue files
//! it, writeback pops it, squash cancels it). Everything else — ready
//! queue, fetch and replay cursors — refers to ops by trace index;
//! "has this producer completed" is read from the ROB, not from a
//! mirror of it. One run is limited to 2³² − 1 trace ops (the indices
//! are held in 32 bits; the run panics at the bound). See `pipeline`.
//!
//! # Stage telemetry
//!
//! With a telemetry sink attached when a run starts, [`O3Core::run_warm`]
//! counts loop iterations, squashes, cancelled completions, parks and
//! wake-ups exactly and times the five stage calls and the driver tail
//! on every 64th iteration, emitting `o3_loop_iterations`,
//! `o3_squashes`, `o3_cancels`, `o3_parks`, `o3_wakeups` and
//! `o3_stage_host_ns{stage=…}` (sampled time scaled
//! by 64, the clock reads' own cost taken out) beside
//! `ff_cycles_skipped` and `rob_ring_peak_occupancy`. The timers never
//! touch simulated state; without a sink an iteration pays one
//! never-taken branch per lap point.
//!
//! # Event-driven fast-forward
//!
//! A cycle where no stage changes pipeline state (nothing commits,
//! completes, issues, dispatches, or moves in fetch) can only repeat
//! itself until some clock threshold is crossed: the next writeback
//! event, an MSHR freeing, the end of a fetch stall / icache fill /
//! squash recovery window, or the FP divider going idle. After such a
//! dead cycle the driver jumps `now` directly to the earliest of those
//! wake-up candidates, replicating per skipped cycle exactly the stall
//! statistics (TMA idle slots and the front-end stall ladder) that the
//! skipped cycles would have accumulated — the wedge detector's deadline
//! bounds the jump so a stuck pipeline still panics at the identical
//! cycle. Statistics are bit-identical with the fast-forward on or off
//! (a property test in `tests/properties.rs` pins this).

mod commit;
mod dispatch;
mod fetch;
mod issue;
pub(crate) mod pipeline;
mod writeback;

pub(crate) use issue::{fu_and_latency, FPDIV_BUSY};

use crate::branch::{build, BranchPredictor, Btb};
use crate::cache::Hierarchy;
use crate::config::CoreConfig;
use crate::model::{functional_warm, CoreModel, MemCounters, ModelKind};
use crate::stats::SimStats;
use crate::tlb::Tlb;
use belenos_trace::{MicroOp, OpKind, Ops};
use pipeline::{FetchBlock, Pipeline, STALL_LIMIT};
use std::time::Instant;

/// The `stage` label values of the `o3_stage_host_ns` counters: the five
/// stage calls in loop order, then the driver tail (warm-up snapshot,
/// fast-forward, termination pull and wedge checks).
const STAGES: [&str; 6] = ["commit", "writeback", "issue", "dispatch", "fetch", "drive"];

/// One loop iteration in this many (a power of two) is timed when
/// telemetry is on; the emitted nanoseconds are the sampled ones scaled
/// back up.
const STAGE_SAMPLE_EVERY: u64 = 64;

/// Closes a timed lap: adds the host time since `*from` to `ns` and
/// restarts the lap. Untimed iterations (`None`) pay the one branch.
#[inline]
fn lap_into(from: &mut Option<Instant>, ns: &mut u64) {
    if let Some(t0) = from {
        let t1 = Instant::now();
        *ns += (t1 - *t0).as_nanos() as u64;
        *t0 = t1;
    }
}

/// What closing one lap costs by itself on this host, in nanoseconds.
fn lap_cost_ns() -> u64 {
    let (mut lap, mut ns) = (Some(Instant::now()), 0);
    for _ in 0..16 {
        lap_into(&mut lap, &mut ns);
    }
    ns / 16
}

/// The out-of-order core simulator.
pub struct O3Core {
    pub(crate) cfg: CoreConfig,
    pub(crate) hierarchy: Hierarchy,
    pub(crate) itlb: Tlb,
    pub(crate) dtlb: Tlb,
    pub(crate) predictor: Box<dyn BranchPredictor>,
    pub(crate) btb: Btb,
    fast_forward: bool,
    /// Dead cycles skipped by the most recent run (telemetry).
    pub(crate) ff_skipped_last_run: u64,
    /// Peak ROB-ring occupancy of the most recent run (telemetry).
    pub(crate) rob_peak_last_run: usize,
    /// Pipeline retained from the previous run. `run_warm` resets it in
    /// place instead of rebuilding, so repeated runs on one core skip
    /// the ring-buffer allocation cost entirely (the profiler measured
    /// it as the single largest slice of a short timed run).
    scratch: Option<Pipeline>,
}

impl std::fmt::Debug for O3Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("O3Core")
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

impl O3Core {
    /// Builds a core for one configuration.
    pub fn new(cfg: CoreConfig) -> Self {
        O3Core {
            hierarchy: Hierarchy::new(&cfg),
            itlb: Tlb::new(cfg.tlb_entries),
            dtlb: Tlb::new(cfg.tlb_entries),
            predictor: build(cfg.predictor),
            btb: Btb::new(cfg.btb_entries),
            cfg,
            fast_forward: true,
            ff_skipped_last_run: 0,
            rob_peak_last_run: 0,
            scratch: None,
        }
    }

    /// Enables or disables the event-driven fast-forward over dead
    /// cycles (on by default). Statistics are identical either way;
    /// disabling forces the pure cycle-by-cycle loop (the equivalence
    /// property test runs both and compares).
    pub fn set_fast_forward(&mut self, on: bool) {
        self.fast_forward = on;
    }

    /// Runs the trace to completion and returns the statistics.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline wedges (no commit for a very long time),
    /// which indicates a simulator bug.
    pub fn run<I: Iterator<Item = MicroOp>>(&mut self, trace: I) -> SimStats {
        self.run_warm(trace, 0)
    }

    /// Runs the trace, discarding the first `warmup_ops` committed ops
    /// from the reported statistics (cache/predictor state persists — this
    /// is measurement warmup, exactly like gem5's stats reset after
    /// checkpoint restore).
    ///
    /// # Panics
    ///
    /// As in [`O3Core::run`].
    pub fn run_warm<I: Iterator<Item = MicroOp>>(&mut self, trace: I, warmup_ops: u64) -> SimStats {
        let mut stats = SimStats {
            freq_ghz: self.cfg.freq_ghz,
            ..SimStats::default()
        };
        // A warm core (interval sampling reuses one core across runs) may
        // carry completion timestamps from an earlier run; this run's
        // clock restarts at zero, and memory counters report deltas.
        self.hierarchy.reset_timing();
        let base = MemCounters::capture(&self.hierarchy);
        let mut p = match self.scratch.take() {
            Some(mut p) => {
                p.reset();
                p
            }
            None => Pipeline::new(&self.cfg),
        };
        let mut trace = trace.fuse();
        let mut warm_snapshot: Option<SimStats> = None;
        // Host-time split of the loop by stage, for a telemetry sink
        // attached now: every `STAGE_SAMPLE_EVERY`-th iteration is
        // timed, lap by lap.
        let tel = belenos_telemetry::global();
        let timed = tel.enabled();
        let mut iterations = 0u64;
        let mut stage_ns = [0u64; STAGES.len()];

        loop {
            iterations += 1;
            let mut lap = (timed && iterations & (STAGE_SAMPLE_EVERY - 1) == 0).then(Instant::now);
            let committed = self.commit_stage(&mut p, &mut stats);
            lap_into(&mut lap, &mut stage_ns[0]);
            let completed = self.writeback_stage(&mut p, &mut stats);
            lap_into(&mut lap, &mut stage_ns[1]);
            let issue_active = self.issue_stage(&mut p, &mut stats);
            lap_into(&mut lap, &mut stage_ns[2]);
            let dispatched = self.dispatch_stage(&mut p);
            lap_into(&mut lap, &mut stage_ns[3]);
            let fetch_active = self.fetch_stage(&mut p, &mut stats, &mut trace);
            lap_into(&mut lap, &mut stage_ns[4]);

            if warm_snapshot.is_none() && warmup_ops > 0 && stats.committed_ops >= warmup_ops {
                let mut snap = stats.clone();
                snap.cycles = p.now;
                base.delta_into(&mut snap, &self.hierarchy);
                warm_snapshot = Some(snap);
            }

            p.now += 1;

            // ---------------- event-driven fast-forward ----------------
            // A dead cycle (no stage changed pipeline state) repeats
            // verbatim until the next clock threshold; jump there and
            // replicate the per-cycle stall statistics for the gap. An
            // empty pipeline is left to the termination pull below.
            if self.fast_forward
                && committed == 0
                && completed == 0
                && !issue_active
                && dispatched == 0
                && !fetch_active
                && !p.is_drained()
            {
                if let Some(wake) = self.wake_cycle(&p, stats.committed_ops) {
                    if wake > p.now {
                        let skipped = wake - p.now;
                        self.account_skipped(&p, &mut stats, skipped);
                        p.ff_cycles_skipped += skipped;
                        p.now = wake;
                    }
                }
            }

            // ---------------- termination & wedge detection ----------------
            if p.is_drained() {
                // Peek the trace: if exhausted, we are done. A pulled op
                // lands in the op buffer with the replay cursor behind
                // it — the fetch stage picks it up as a replay.
                match trace.next() {
                    Some(op) => p.accept(&op),
                    None => break,
                }
            }
            if p.now - p.last_commit_cycle > STALL_LIMIT && stats.committed_ops > 0 {
                panic!(
                    "pipeline wedged at cycle {}: rob={}, iq={}, lq={}, sq={}",
                    p.now,
                    p.rob.len(),
                    p.iq_len(),
                    p.lq.len(),
                    p.sq.len()
                );
            }
            if p.now > STALL_LIMIT && stats.committed_ops == 0 && !p.rob.is_empty() {
                panic!(
                    "pipeline never committed; head {:?} in state {:?}",
                    p.ops.get(p.rob.head_idx),
                    p.rob.entry(p.rob.head_idx).state
                );
            }
            lap_into(&mut lap, &mut stage_ns[5]);
        }

        stats.cycles = p.now;
        base.delta_into(&mut stats, &self.hierarchy);
        if warmup_ops > 0 {
            // Clamp the warmup to the observed trace: when the trace
            // commits fewer ops than `warmup_ops` the whole run was
            // warmup, and the reported measurement window is empty (it
            // must never silently fall back to unwarmed full stats).
            let snap = warm_snapshot.unwrap_or_else(|| stats.clone());
            stats.subtract(&snap);
        }
        self.ff_skipped_last_run = p.ff_cycles_skipped;
        self.rob_peak_last_run = p.rob_peak;
        if timed {
            tel.counter("ff_cycles_skipped", p.ff_cycles_skipped, &[]);
            tel.counter("rob_ring_peak_occupancy", p.rob_peak as u64, &[]);
            tel.counter("o3_loop_iterations", iterations, &[]);
            tel.counter("o3_squashes", p.squashes, &[]);
            tel.counter("o3_cancels", p.cancels, &[]);
            tel.counter("o3_parks", p.parks, &[]);
            tel.counter("o3_wakeups", p.wakeups, &[]);
            // Each sampled lap carries the cost of reading the clock.
            let clock_ns = lap_cost_ns() * (iterations / STAGE_SAMPLE_EVERY);
            for (stage, ns) in STAGES.iter().zip(stage_ns) {
                let fields = [("stage", (*stage).into())];
                let ns = ns.saturating_sub(clock_ns) * STAGE_SAMPLE_EVERY;
                tel.counter("o3_stage_host_ns", ns, &fields);
            }
        }
        self.scratch = Some(p);
        stats
    }

    /// First cycle at or after `p.now` at which a dead pipeline could
    /// change behavior: the earliest writeback event, MSHR completion,
    /// or stall-window boundary — clamped to the wedge detector's
    /// deadline so a genuinely stuck pipeline panics at the exact cycle
    /// the cycle-by-cycle loop would. `None` when no clock threshold
    /// lies ahead (the wedge path; fall back to stepping).
    fn wake_cycle(&self, p: &Pipeline, committed_ops: u64) -> Option<u64> {
        let now = p.now;
        let mut wake = u64::MAX;
        if let Some(t) = p.events.next_time() {
            debug_assert!(t >= now, "writeback must have drained due events");
            wake = wake.min(t);
        }
        if let Some(t) = self.hierarchy.l1d.next_outstanding(now) {
            wake = wake.min(t);
        }
        for t in [
            p.fetch_stall_until,
            p.icache_pending_until,
            p.squash_recovery_until,
            p.fpdiv_busy_until,
        ] {
            if t >= now {
                wake = wake.min(t);
            }
        }
        if wake == u64::MAX {
            return None;
        }
        if committed_ops > 0 {
            wake = wake.min(p.last_commit_cycle + STALL_LIMIT + 1);
        } else if !p.rob.is_empty() {
            wake = wake.min(STALL_LIMIT + 1);
        }
        Some(wake)
    }

    /// Replicates, `times`-fold, the statistics one dead cycle at
    /// `p.now` accumulates: the commit boundary's idle TMA slots and the
    /// fetch stage's stall ladder. Every condition read here is constant
    /// across the skipped span — anything that could flip it is a wake
    /// candidate in [`O3Core::wake_cycle`].
    fn account_skipped(&self, p: &Pipeline, stats: &mut SimStats, times: u64) {
        let missing = self.cfg.commit_width as u64 * times;
        if !p.rob.is_empty() {
            let head = p.ops.get(p.rob.head_idx);
            stats.slots_backend += missing;
            stats.slots_by_category[crate::stats::category_index(head.cat)] += missing;
            let memory_bound = match head.kind {
                OpKind::Load | OpKind::Store => true,
                _ => p.lq.has_inflight(),
            };
            if memory_bound {
                stats.slots_be_memory += missing;
            } else {
                stats.slots_be_core += missing;
            }
        } else if p.now < p.squash_recovery_until {
            stats.slots_bad_speculation += missing;
        } else {
            stats.slots_frontend += missing;
            match p.fetch_block {
                FetchBlock::ICache | FetchBlock::ITlb => stats.slots_fe_latency += missing,
                _ => stats.slots_fe_bandwidth += missing,
            }
        }
        if p.now < p.fetch_stall_until {
            stats.squash_cycles += times;
        } else if p.now < p.icache_pending_until {
            match p.fetch_block {
                FetchBlock::ITlb => stats.tlb_stall_cycles += times,
                _ => stats.icache_stall_cycles += times,
            }
        } else if p.fetchq_len() + self.cfg.fetch_width > p.fetchq_cap {
            stats.active_fetch_cycles += times;
        } else if p.fetchq_len() > 0 || !p.rob.is_empty() {
            stats.misc_stall_cycles += times;
        }
    }
}

impl CoreModel for O3Core {
    fn kind(&self) -> ModelKind {
        ModelKind::O3
    }

    fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    fn reset(&mut self) {
        self.hierarchy.reset();
        self.itlb.reset();
        self.dtlb.reset();
        self.predictor.reset();
        self.btb.reset();
        self.ff_skipped_last_run = 0;
        self.rob_peak_last_run = 0;
        // `scratch` is reset at the start of the next run.
    }

    fn run_warm(&mut self, trace: &mut Ops<'_>, warmup_ops: u64) -> SimStats {
        O3Core::run_warm(self, trace, warmup_ops)
    }

    fn warm_only(&mut self, trace: &mut Ops<'_>, max_ops: u64) -> u64 {
        functional_warm(
            &mut self.hierarchy,
            &mut self.itlb,
            &mut self.dtlb,
            self.predictor.as_mut(),
            &mut self.btb,
            trace,
            max_ops,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use belenos_trace::{FlatTrace, FnCategory, OpKind};

    const CAT: FnCategory = FnCategory::Internal;

    fn run_ops(ops: Vec<MicroOp>, cfg: CoreConfig) -> SimStats {
        let mut core = O3Core::new(cfg);
        core.run(ops.into_iter())
    }

    fn int_stream(n: usize) -> Vec<MicroOp> {
        (0..n)
            .map(|i| MicroOp::int(0x1000 + (i as u32 % 16) * 4, 0, 0, CAT))
            .collect()
    }

    #[test]
    fn commits_every_op_exactly_once() {
        let stats = run_ops(int_stream(1000), CoreConfig::gem5_baseline());
        assert_eq!(stats.committed_ops, 1000);
        assert!(stats.cycles > 0);
    }

    #[test]
    fn independent_ops_achieve_wide_ipc() {
        let stats = run_ops(int_stream(20_000), CoreConfig::gem5_baseline());
        // 4 int ALUs, commit width 4: IPC should approach 4.
        assert!(stats.ipc() > 2.5, "ipc {}", stats.ipc());
    }

    #[test]
    fn dependent_chain_limits_ipc_to_one() {
        let ops: Vec<MicroOp> = (0..5000)
            .map(|i| MicroOp::int(0x1000, if i == 0 { 0 } else { 1 }, 0, CAT))
            .collect();
        let stats = run_ops(ops, CoreConfig::gem5_baseline());
        assert!(stats.ipc() < 1.2, "serial chain ipc {}", stats.ipc());
        assert!(stats.ipc() > 0.5, "serial chain ipc {}", stats.ipc());
    }

    #[test]
    fn fp_div_chain_is_slow() {
        let ops: Vec<MicroOp> = (0..500)
            .map(|i| MicroOp::fp(OpKind::FpDiv, 0x2000, if i == 0 { 0 } else { 1 }, 0, CAT))
            .collect();
        let stats = run_ops(ops, CoreConfig::gem5_baseline());
        assert!(stats.cpi() > 10.0, "fpdiv chain cpi {}", stats.cpi());
    }

    #[test]
    fn cold_loads_stall_the_backend() {
        // Strided loads over a large footprint: every access misses.
        let ops: Vec<MicroOp> = (0..4000)
            .map(|i| MicroOp::load(0x3000, 0x100_0000 + i as u64 * 4096, 8, 0, CAT))
            .collect();
        let stats = run_ops(ops, CoreConfig::gem5_baseline());
        assert!(stats.l1d_mpki() > 500.0, "mpki {}", stats.l1d_mpki());
        let (_, _, _, be) = stats.topdown();
        assert!(be > 0.4, "backend fraction {be}");
        assert!(stats.slots_be_memory > stats.slots_be_core);
    }

    #[test]
    fn cache_resident_loads_are_fast() {
        // 128 hot lines, revisited: after warmup everything hits L1.
        let ops: Vec<MicroOp> = (0..20_000)
            .map(|i| MicroOp::load(0x3000, (i % 128) as u64 * 64, 8, 0, CAT))
            .collect();
        let stats = run_ops(ops, CoreConfig::gem5_baseline());
        assert!(stats.l1d_mpki() < 20.0, "mpki {}", stats.l1d_mpki());
        assert!(stats.ipc() > 1.0, "ipc {}", stats.ipc());
    }

    #[test]
    fn pause_ops_serialize_and_count_core_bound() {
        let mut ops = Vec::new();
        for _ in 0..200 {
            ops.push(MicroOp::pause(0x4000, CAT));
            ops.push(MicroOp::int(0x4004, 0, 0, CAT));
        }
        let stats = run_ops(ops, CoreConfig::gem5_baseline());
        let (retiring, _, _, be) = stats.topdown();
        assert!(be > 0.6, "pause stream backend {be}");
        assert!(stats.slots_be_core > stats.slots_be_memory);
        assert!(retiring < 0.2);
        // Each pause costs ~pause_latency serialized cycles.
        assert!(stats.cycles > 200 * 20, "cycles {}", stats.cycles);
    }

    #[test]
    fn mispredicted_branches_squash_and_replay() {
        // Alternating branch direction defeats most predictors early on;
        // all ops must still commit exactly once.
        let mut ops = Vec::new();
        for i in 0..500 {
            ops.push(MicroOp::int(0x5000, 0, 0, CAT));
            ops.push(MicroOp::branch(0x5010, 0x5000, i % 2 == 0, 0, CAT));
            ops.push(MicroOp::int(0x5020, 0, 0, CAT));
        }
        let total = ops.len() as u64;
        let stats = run_ops(ops, CoreConfig::gem5_baseline());
        assert_eq!(stats.committed_ops, total);
        assert!(
            stats.mispredicts > 0,
            "alternation must mispredict sometimes"
        );
        assert!(stats.branches == 500);
    }

    #[test]
    fn predictable_loops_have_low_mispredicts() {
        let mut ops = Vec::new();
        for i in 0..3000 {
            ops.push(MicroOp::int(0x6000, 0, 0, CAT));
            ops.push(MicroOp::branch(0x6010, 0x6000, i % 100 != 99, 0, CAT));
        }
        let stats = run_ops(ops, CoreConfig::gem5_baseline());
        assert!(
            stats.mispredict_rate() < 0.1,
            "loop branches should predict well: {}",
            stats.mispredict_rate()
        );
    }

    #[test]
    fn store_to_load_forwarding_works() {
        // Store then immediately load the same address, repeatedly: loads
        // must not pay miss latency every time.
        let mut ops = Vec::new();
        for i in 0..2000 {
            let addr = 0x9000 + (i % 4) * 8;
            ops.push(MicroOp::store(0x7000, addr, 8, 0, CAT));
            ops.push(MicroOp::load(0x7004, addr, 8, 0, CAT));
        }
        let stats = run_ops(ops, CoreConfig::gem5_baseline());
        assert!(stats.ipc() > 0.5, "forwarding ipc {}", stats.ipc());
        assert_eq!(stats.committed_ops, 4000);
    }

    #[test]
    fn icache_pressure_from_large_code_footprint() {
        // Jump through 4096 distinct lines of code (256 kB footprint >
        // 32 kB L1I).
        let ops: Vec<MicroOp> = (0..40_000)
            .map(|i| MicroOp::int(((i * 64) % (4096 * 64)) as u32, 0, 0, CAT))
            .collect();
        let stats = run_ops(ops, CoreConfig::gem5_baseline());
        assert!(stats.l1i_mpki() > 100.0, "l1i mpki {}", stats.l1i_mpki());
        assert!(stats.icache_stall_cycles > 0);
    }

    #[test]
    fn narrower_pipeline_is_slower() {
        let ops = int_stream(20_000);
        let wide = run_ops(ops.clone(), CoreConfig::gem5_baseline());
        let narrow = run_ops(ops, CoreConfig::gem5_baseline().with_pipeline_width(2));
        assert!(
            narrow.cycles > wide.cycles,
            "narrow {} vs wide {}",
            narrow.cycles,
            wide.cycles
        );
    }

    #[test]
    fn higher_frequency_does_not_scale_memory_bound_code() {
        let ops: Vec<MicroOp> = (0..3000)
            .map(|i| MicroOp::load(0x3000, 0x100_0000 + i as u64 * 4096, 8, 0, CAT))
            .collect();
        let slow = run_ops(ops.clone(), CoreConfig::gem5_baseline().with_frequency(1.0));
        let fast = run_ops(ops, CoreConfig::gem5_baseline().with_frequency(4.0));
        let speedup = slow.seconds() / fast.seconds();
        assert!(
            speedup < 3.0,
            "memory-bound code must scale sublinearly: {speedup}x at 4x clock"
        );
        assert!(fast.ipc() < slow.ipc(), "ipc must drop with frequency");
    }

    #[test]
    fn tma_slots_account_every_cycle() {
        let stats = run_ops(int_stream(5000), CoreConfig::gem5_baseline());
        let expected = stats.cycles * CoreConfig::gem5_baseline().commit_width as u64;
        assert_eq!(stats.total_slots(), expected);
    }

    #[test]
    fn lsq_pressure_slows_memory_bursts() {
        let ops: Vec<MicroOp> = (0..8000)
            .map(|i| MicroOp::load(0x3000, (i as u64 * 64) % (1 << 22), 8, 0, CAT))
            .collect();
        let big = run_ops(ops.clone(), CoreConfig::gem5_baseline());
        let small = run_ops(ops, CoreConfig::gem5_baseline().with_lsq(8, 8));
        assert!(
            small.cycles > big.cycles,
            "tiny lsq {} should be slower than baseline {}",
            small.cycles,
            big.cycles
        );
    }

    #[test]
    fn empty_trace_terminates() {
        let stats = run_ops(Vec::new(), CoreConfig::gem5_baseline());
        assert_eq!(stats.committed_ops, 0);
    }

    #[test]
    fn warmup_discard_reports_the_measured_remainder() {
        let mut core = O3Core::new(CoreConfig::gem5_baseline());
        let stats = core.run_warm(int_stream(1000).into_iter(), 200);
        // The snapshot lands on a commit-group boundary at or just past
        // the requested warmup.
        assert!(stats.committed_ops <= 800);
        assert!(stats.committed_ops >= 800 - 8, "{}", stats.committed_ops);
        assert!(stats.cycles > 0);
    }

    #[test]
    fn warmup_longer_than_trace_reports_empty_measurement() {
        // Regression: the trace commits fewer ops than `warmup_ops`, so
        // the warmup snapshot used to never be taken and the full
        // unwarmed run leaked out as if it were a measurement. The
        // warmup must clamp to the observed trace instead.
        let mut core = O3Core::new(CoreConfig::gem5_baseline());
        let stats = core.run_warm(int_stream(100).into_iter(), 1_000_000);
        assert_eq!(stats.committed_ops, 0);
        assert_eq!(stats.cycles, 0);
        assert_eq!(stats.total_slots(), 0);
        assert_eq!(stats.l1d_accesses, 0);
    }

    #[test]
    fn huge_rob_does_not_corrupt_dependency_tracking() {
        // Regression: an 8192-slot dependency window was once a
        // comment-only invariant, and a ROB at or above it silently
        // aliased dependency slots. Every per-op ring is ROB-sized now.
        let cfg = CoreConfig::gem5_baseline().with_rob_iq(16_384, 512);
        // Long dependency chains keep the window full while older ops
        // retire, exercising ring wrap-around.
        let ops: Vec<MicroOp> = (0..40_000)
            .map(|i| MicroOp::int(0x1000 + (i as u32 % 64) * 4, u32::from(i > 0), 0, CAT))
            .collect();
        let stats = run_ops(ops, cfg);
        assert_eq!(stats.committed_ops, 40_000);
        assert!(stats.ipc() < 1.2, "serial chain must stay serial");
    }

    #[test]
    fn warm_only_consumes_and_warms_without_stats() {
        let mut core = O3Core::new(CoreConfig::gem5_baseline());
        // 64 hot lines, touched twice during warming.
        let ops: FlatTrace = (0..8192)
            .map(|i| MicroOp::load(0x3000, (i % 64) as u64 * 64, 8, 0, CAT))
            .collect();
        let mut it = Ops::range(&ops, 0, ops.len());
        let consumed = core.warm_only(&mut it, 4096);
        assert_eq!(consumed, 4096);
        assert_eq!(it.at(), 4096, "cursor shared");
        // A detailed run over the same lines now starts warm: every load
        // hits L1 and the reported counters cover only the detailed run.
        let stats = core.run_warm(it, 0);
        assert_eq!(stats.committed_ops, 4096);
        assert_eq!(stats.l1d_accesses, 4096);
        assert!(
            stats.l1d_mpki() < 1.0,
            "warmed cache must hit: mpki {}",
            stats.l1d_mpki()
        );
        // Trace shorter than the warming budget: consumption stops.
        let mut core = O3Core::new(CoreConfig::gem5_baseline());
        assert_eq!(core.warm_only(&mut Ops::range(&ops, 0, 10), 100), 10);
    }

    #[test]
    fn rerun_on_a_warm_core_matches_a_controlled_clock() {
        // After an interval, a reused core's second run restarts its
        // clock; stale MSHR/DRAM timestamps must not leak in.
        let mut core = O3Core::new(CoreConfig::gem5_baseline());
        let first = core.run(int_stream(5000).into_iter());
        let second = core.run(int_stream(5000).into_iter());
        assert_eq!(first.committed_ops, second.committed_ops);
        // Warm icache can only help; stale timestamps would balloon this.
        assert!(second.cycles <= first.cycles);
        assert!(second.cycles * 2 > first.cycles, "rerun must stay sane");
    }

    #[test]
    fn fast_forward_skips_dead_cycles_with_identical_stats() {
        // A serial chain of cold DRAM-missing loads leaves hundreds of
        // dead cycles between completion events — prime fast-forward
        // territory. Stats must be bit-identical either way.
        let ops: Vec<MicroOp> = (0..2000)
            .map(|i| {
                MicroOp::load(
                    0x3000,
                    0x100_0000 + i as u64 * 4096,
                    8,
                    u32::from(i > 0),
                    CAT,
                )
            })
            .collect();
        let mut fast = O3Core::new(CoreConfig::gem5_baseline());
        let a = fast.run(ops.clone().into_iter());
        assert!(
            fast.ff_skipped_last_run > 0,
            "dead cycles must actually be skipped"
        );
        assert!(fast.rob_peak_last_run > 0);
        let mut slow = O3Core::new(CoreConfig::gem5_baseline());
        slow.set_fast_forward(false);
        let b = slow.run(ops.into_iter());
        assert_eq!(slow.ff_skipped_last_run, 0);
        assert_eq!(a, b, "fast-forward must not change any statistic");
    }

    #[test]
    fn fast_forward_matches_on_serialization_and_fpdiv_stalls() {
        // Pause/serialize and the unpipelined divider create core-bound
        // dead spans (no memory events in flight) — the wake candidates
        // must cover those too.
        let mut ops = Vec::new();
        for i in 0..400 {
            ops.push(MicroOp::fp(
                OpKind::FpDiv,
                0x2000,
                u32::from(i > 0) * 3,
                0,
                CAT,
            ));
            ops.push(MicroOp::pause(0x2004, CAT));
            ops.push(MicroOp::int(0x2008, 1, 0, CAT));
        }
        let mut fast = O3Core::new(CoreConfig::gem5_baseline());
        let a = fast.run(ops.clone().into_iter());
        assert!(fast.ff_skipped_last_run > 0, "fpdiv/pause spans skip");
        let mut slow = O3Core::new(CoreConfig::gem5_baseline());
        slow.set_fast_forward(false);
        let b = slow.run(ops.into_iter());
        assert_eq!(a, b);
    }

    #[test]
    fn starved_dram_completion_beyond_the_wheel_horizon_is_exact() {
        // Regression: a bandwidth-starved DRAM channel queues a load
        // several wheel turns out. Filing it into an empty wheel used to
        // re-home the cursor past the clock, so the next short-latency
        // completion landed behind the cursor: a debug-assert panic in
        // dev, and in release an early, aliased pop of the far event
        // (7 361 cycles).
        let mut cfg = CoreConfig::gem5_baseline();
        cfg.dram_bandwidth_gbps = 0.25;
        // Code walks three icache lines, 32 ops to a loop.
        let pc = |i: usize| 0x1030 + (i as u32 % 32) * 4;
        let mut ops: Vec<MicroOp> = (0..6)
            .map(|i| MicroOp::store(pc(i), 0x100_0000 + i as u64 * 4096, 8, 0, CAT))
            .collect();
        ops.push(MicroOp::pause(pc(6), CAT));
        ops.push(MicroOp::load(pc(7), 0x200_0000, 8, 0, CAT));
        ops.extend((8..72).map(|i| MicroOp::int(pc(i), 0, 0, CAT)));
        ops.push(MicroOp::int(pc(72), 65, 0, CAT));
        let mut fast = O3Core::new(cfg.clone());
        let a = fast.run(ops.clone().into_iter());
        let mut stepped = O3Core::new(cfg);
        stepped.set_fast_forward(false);
        let b = stepped.run(ops.into_iter());
        assert_eq!(a.cycles, 8129);
        assert_eq!(a, b, "fast-forward must not change any statistic");
    }

    #[test]
    fn squash_cancels_wrong_path_completions_beyond_the_wheel_horizon() {
        // A mispredicted branch waits ~1 100 cycles behind an FpDiv
        // chain while the six independent loads after it issue to a
        // bandwidth-starved DRAM channel (768 cycles a line): four of
        // their completions lie past the wheel horizon when the branch
        // squashes them. The squash also takes a parked consumer, three
        // completed ops, and a pause with a cold load and its consumer
        // behind it; the replayed load queues behind the squashed
        // transfers, so the run outlives every withdrawn completion.
        let mut cfg = CoreConfig::gem5_baseline();
        cfg.dram_bandwidth_gbps = 0.25;
        // One icache line of code.
        let pc = |i: usize| 0x1000 + (i as u32 % 16) * 4;
        let mut ops: Vec<MicroOp> = (0..6)
            .map(|i| MicroOp::fp(OpKind::FpDiv, pc(i), u32::from(i > 0), 0, CAT))
            .collect();
        ops.push(MicroOp::branch(pc(6), 0x1000, true, 1, CAT));
        ops.extend((7..13).map(|i| MicroOp::load(pc(i), 0x100_0000 + i as u64 * 4096, 8, 0, CAT)));
        ops.extend((13..17).map(|i| MicroOp::int(pc(i), u32::from(i == 13), 0, CAT)));
        ops.push(MicroOp::pause(pc(17), CAT));
        ops.push(MicroOp::load(pc(18), 0x200_0000, 8, 0, CAT));
        ops.push(MicroOp::int(pc(19), 1, 0, CAT));
        let mut fast = O3Core::new(cfg.clone());
        let a = fast.run(ops.clone().into_iter());
        let mut stepped = O3Core::new(cfg);
        stepped.set_fast_forward(false);
        let b = stepped.run(ops.into_iter());
        assert_eq!((a.mispredicts, a.squashed_ops), (1, 13));
        assert_eq!(a.cycles, 6624);
        assert_eq!(a, b, "fast-forward must not change any statistic");
    }

    #[test]
    fn flat_trace_run_is_bit_identical_to_streaming() {
        let ops: Vec<MicroOp> = (0..6000)
            .map(|i| match i % 5 {
                0 => MicroOp::load(0x3000, (i as u64 * 64) % (1 << 20), 8, 1, CAT),
                1 => MicroOp::store(0x3004, (i as u64 * 64) % (1 << 18), 8, 0, CAT),
                2 => MicroOp::branch(0x3008, 0x3000, i % 3 == 0, 0, CAT),
                _ => MicroOp::int(0x300c, 1, 2, CAT),
            })
            .collect();
        let flat: FlatTrace = ops.iter().copied().collect();
        let mut streamed = O3Core::new(CoreConfig::gem5_baseline());
        let a = streamed.run(ops.into_iter());
        let mut flat_core = O3Core::new(CoreConfig::gem5_baseline());
        let b = CoreModel::run_warm_flat(&mut flat_core, &flat, 0, flat.len(), 0);
        assert_eq!(a, b, "flat replay must be bit-identical");
    }
}
