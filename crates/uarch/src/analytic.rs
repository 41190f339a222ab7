//! Analytical bound-model backend: no per-cycle simulation.
//!
//! One functional pass over the trace collects everything a first-order
//! performance bound needs — per-functional-unit op counts (port
//! pressure), a dependency-chain critical path, cache/TLB miss counts
//! from the *same* hierarchy component model the detailed cores use, and
//! branch-predictor outcomes. Cycle count is then the maximum of the
//! classic bounds:
//!
//! * **retire/issue bandwidth** — `ops / width` for the narrowest stage;
//! * **port pressure** — `ops_on_class / units_in_class` per FU class;
//! * **dependency chain** — the longest latency-weighted producer chain
//!   (memory latency charged into the chain for loads);
//! * **memory** — total miss service latency divided by the achievable
//!   memory-level parallelism (`min(L1D MSHRs, LQ entries)`), against
//!   the DRAM bandwidth roofline;
//! * **front end** — fetch bandwidth plus serialized icache/iTLB fill
//!   latency;
//!
//! plus a bad-speculation term (`mispredicts × refill depth`). TMA slots
//! are attributed from the same bounds, so top-down comparisons against
//! the detailed backends are meaningful.
//!
//! ## Probe sampling
//!
//! To stay far under the detailed models' cost, the pass probes the
//! memory system and branch predictor only inside **systematic
//! measurement windows** ([`WINDOW`] consecutive ops out of every
//! [`PERIOD`]) — the same SMARTS-style placement the experiment layer
//! uses for budgeted detailed runs, applied here to the functional
//! characterization itself. Within a window every access is modeled
//! exactly (full locality, no per-address bias); between windows ops are
//! only counted. Extensive counters are scaled by the sampling fraction
//! at the end. Traces at or below [`WINDOW`] ops are modeled in full,
//! so small unit traces stay exact. Outside the windows an op costs a
//! trace-iterator step and one increment — the whole pass typically runs
//! **≥50x faster than the O3 core**, which is what makes
//! backend-agreement cross-validation over full catalogs practical (the
//! paper's gem5-vs-VTune methodology, across our own model stack).

use crate::branch::{build, BranchPredictor, Btb};
use crate::cache::{Hierarchy, ServiceLevel};
use crate::config::CoreConfig;
use crate::model::{CoreModel, MemCounters, ModelKind};
use crate::o3::fu_and_latency;
use crate::stats::SimStats;
use crate::tlb::Tlb;
use belenos_trace::{MicroOp, OpKind, Ops};

/// Ops fully modeled per sampling period (also the dependency-ring size;
/// traces this short are modeled in full).
pub const WINDOW: u64 = 8192;
/// Sampling period: one [`WINDOW`] is modeled out of every `PERIOD` ops
/// (a 1/16 duty cycle).
pub const PERIOD: u64 = 16 * WINDOW;

/// The analytical bound model.
pub struct AnalyticCore {
    cfg: CoreConfig,
    hierarchy: Hierarchy,
    itlb: Tlb,
    dtlb: Tlb,
    predictor: Box<dyn BranchPredictor>,
    btb: Btb,
}

impl std::fmt::Debug for AnalyticCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalyticCore")
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

impl AnalyticCore {
    /// Builds the bound model for one configuration.
    pub fn new(cfg: CoreConfig) -> Self {
        AnalyticCore {
            hierarchy: Hierarchy::new(&cfg),
            itlb: Tlb::new(cfg.tlb_entries),
            dtlb: Tlb::new(cfg.tlb_entries),
            predictor: build(cfg.predictor),
            btb: Btb::new(cfg.btb_entries),
            cfg,
        }
    }

    /// Runs the trace through the functional pass and returns the bound
    /// model's statistics. The first `warmup_ops` trace ops only warm the
    /// machine state (caches, TLBs, predictor, BTB) and are excluded from
    /// the reported statistics.
    pub fn run_warm<I: Iterator<Item = MicroOp>>(
        &mut self,
        mut trace: I,
        warmup_ops: u64,
    ) -> SimStats {
        if warmup_ops > 0 {
            self.sampled_warm(&mut trace, warmup_ops);
        }
        let mut stats = SimStats {
            freq_ghz: self.cfg.freq_ghz,
            ..SimStats::default()
        };
        self.hierarchy.reset_timing();
        let cfg = self.cfg.clone();
        let l1d_lat = cfg.l1d.hit_latency;
        let l2_lat = cfg.l2.hit_latency;
        let dram_lat = cfg.ns_to_cycles(cfg.dram_latency_ns);

        let mut chain: Vec<u64> = vec![0; WINDOW as usize];
        // Sum of per-window critical paths (scaled to the full stream at
        // the end — the extensive SMARTS-style estimator of the
        // dependency bound).
        let mut dep_cycles: u64 = 0;
        let mut dep_ops: u64 = 0;
        let mut win_start: u64 = 0;
        let mut win_chain_max: u64 = 0;
        let mut fu_ops = [0u64; 5];
        let mut n: u64 = 0;
        let mut measured: u64 = 0;
        let mut mem_service_cycles: u64 = 0;
        let mut fe_fill_cycles: u64 = 0;
        let mut serialize_cycles: u64 = 0;
        let mut cur_line = u64::MAX;
        // Post-warmup memory-counter accumulation across windows: the
        // first quarter of every window past the first warms the caches
        // back up after the gap, and its (cold-biased) counter deltas are
        // discarded — exactly the detailed-warmup discard budgeted SMARTS
        // runs apply.
        let mut mem_acc = [0u64; 7];
        let mut mem_base = MemCounters::capture(&self.hierarchy);

        while let Some(op) = trace.next() {
            let pos = n % PERIOD;
            if pos == WINDOW {
                // A gap: its first op closes the window, and its ops are
                // counted, otherwise untouched.
                dep_cycles += win_chain_max;
                win_chain_max = 0;
                for (a, d) in mem_acc
                    .iter_mut()
                    .zip(mem_base.delta_counts(&self.hierarchy))
                {
                    *a += d;
                }
                // Re-baseline so the end-of-trace accumulation below
                // cannot add this window's delta a second time when the
                // trace ends in a gap.
                mem_base = MemCounters::capture(&self.hierarchy);
                let rest = (PERIOD - WINDOW - 1) as usize;
                n += 1 + trace.by_ref().take(rest).count() as u64;
                continue;
            }
            if pos == 0 {
                win_start = n;
                cur_line = u64::MAX;
            }
            // Counter warmup: the first window measures from its (cold)
            // start like any detailed run would; later windows discard
            // their first quarter while the machine state re-warms.
            let counting = n < WINDOW || pos >= WINDOW / 4;
            if n >= WINDOW && pos == WINDOW / 4 {
                mem_base = MemCounters::capture(&self.hierarchy);
            }
            // Instruction side on line crossings: misses serialize the
            // front end.
            let line = (op.pc as u64) >> 6;
            if line != cur_line {
                if !self.itlb.access(op.pc as u64) && counting {
                    fe_fill_cycles += cfg.tlb_miss_penalty;
                }
                let level = self.hierarchy.inst_access(op.pc as u64, n).level;
                if counting {
                    match level {
                        ServiceLevel::L1 => {}
                        ServiceLevel::L2 => fe_fill_cycles += l2_lat,
                        ServiceLevel::Dram => fe_fill_cycles += l2_lat + dram_lat,
                    }
                }
                cur_line = line;
            }
            let (fu, base_lat) = fu_and_latency(op.kind, cfg.pause_latency);
            let mut lat = base_lat;
            match op.kind {
                OpKind::Load => {
                    let mut penalty = 0;
                    if !self.dtlb.access(op.addr) {
                        penalty = cfg.tlb_miss_penalty;
                        if counting {
                            stats.dtlb_misses += 1;
                        }
                    }
                    // Fixed per-level service charges (no queueing model):
                    // the MLP divisor below captures overlap, the DRAM
                    // roofline captures bandwidth.
                    let service = match self.hierarchy.data_access(op.addr, false, n).level {
                        ServiceLevel::L1 => l1d_lat,
                        ServiceLevel::L2 => l1d_lat + l2_lat,
                        ServiceLevel::Dram => l1d_lat + l2_lat + dram_lat,
                    } + penalty;
                    // The memory bound counts only beyond-L1 service: L1
                    // hits flow through the (port-bounded) pipelined mem
                    // ports; the full service latency still feeds the
                    // dependency chain below.
                    if counting {
                        mem_service_cycles += service - l1d_lat;
                    }
                    lat = service;
                }
                OpKind::Store => {
                    if !self.dtlb.access(op.addr) && counting {
                        stats.dtlb_misses += 1;
                    }
                    self.hierarchy.data_access(op.addr, true, n);
                }
                OpKind::Branch => {
                    let pred = self.predictor.predict(op.pc);
                    self.predictor.update(op.pc, op.taken);
                    if counting {
                        stats.branches += 1;
                    }
                    if op.taken {
                        if self.btb.lookup(op.pc).is_none() && counting {
                            stats.btb_misses += 1;
                        }
                        self.btb.install(op.pc, op.target);
                        cur_line = u64::MAX;
                    }
                    if pred != op.taken {
                        if counting {
                            stats.mispredicts += 1;
                        }
                        cur_line = u64::MAX;
                    }
                }
                OpKind::Pause | OpKind::Serialize if counting => {
                    serialize_cycles += cfg.pause_latency;
                }
                _ => {}
            }
            // Latency-weighted dependency critical path (within-window
            // producers only; gap ops never enter the ring).
            let local = n - win_start;
            let prod = |d: u32| -> u64 {
                if d == 0 || (d as u64) > local || (d as u64) >= WINDOW {
                    return 0;
                }
                chain[((n - d as u64) % WINDOW) as usize]
            };
            let depth = prod(op.dep1).max(prod(op.dep2)) + lat;
            chain[(n % WINDOW) as usize] = depth;
            win_chain_max = win_chain_max.max(depth);
            dep_ops += 1;

            if counting {
                fu_ops[fu] += 1;
                stats.exec_mix.count(op.kind);
                stats.commit_mix.count(op.kind);
                stats.slots_by_category[crate::stats::category_index(op.cat)] += 1;
                measured += 1;
            }
            n += 1;
            // As in functional warming: drop accumulated outstanding-miss
            // timestamps so long traces cannot hoard them.
            if n.is_multiple_of(65_536) {
                self.hierarchy.reset_timing();
            }
        }
        dep_cycles += win_chain_max;
        for (a, d) in mem_acc
            .iter_mut()
            .zip(mem_base.delta_counts(&self.hierarchy))
        {
            *a += d;
        }
        if n == 0 {
            return stats;
        }

        // Scale window-measured extensive counters to the full stream.
        let scale = n as f64 / measured.max(1) as f64;
        let dep_scale = n as f64 / dep_ops.max(1) as f64;
        if scale > 1.0 {
            stats = stats.scaled(scale);
            for c in fu_ops.iter_mut() {
                *c = (*c as f64 * scale).round() as u64;
            }
            let s = |v: u64| (v as f64 * scale).round() as u64;
            mem_service_cycles = s(mem_service_cycles);
            fe_fill_cycles = s(fe_fill_cycles);
            serialize_cycles = s(serialize_cycles);
        }
        dep_cycles = (dep_cycles as f64 * dep_scale).round() as u64;
        let m = |v: u64| (v as f64 * scale).round() as u64;
        stats.l1i_accesses = m(mem_acc[0]);
        stats.l1i_misses = m(mem_acc[1]);
        stats.l1d_accesses = m(mem_acc[2]);
        stats.l1d_misses = m(mem_acc[3]);
        stats.l2_accesses = m(mem_acc[4]);
        stats.l2_misses = m(mem_acc[5]);
        stats.dram_lines = m(mem_acc[6]);
        stats.committed_ops = n;

        // ---------------- the bounds ----------------
        let fe_width = cfg
            .fetch_width
            .min(cfg.decode_width)
            .min(cfg.rename_width)
            .min(cfg.dispatch_width) as u64;
        let ideal = n.div_ceil(cfg.commit_width as u64);
        let issue_bw = n.div_ceil(cfg.issue_width as u64);
        let port_bound = (0..5)
            .map(|c| fu_ops[c].div_ceil(cfg.fu_counts[c].max(1) as u64))
            .max()
            .unwrap_or(0);
        let core_bound = issue_bw
            .max(port_bound)
            .max(dep_cycles)
            .max(ideal + serialize_cycles);
        // Effective memory-level parallelism, interval-model style: the
        // machine can only overlap as many misses as the instruction
        // window spans (misses per ROB-full of ops), capped by the
        // structural limits (L1D MSHRs, load-queue depth).
        let mlp_cap = cfg.l1d.mshrs.min(cfg.lq_entries).max(1) as u64;
        let window_mlp = if stats.l1d_misses == 0 {
            mlp_cap
        } else {
            (cfg.rob_entries as u64 * stats.l1d_misses)
                .div_ceil(n)
                .max(1)
        };
        let mlp = window_mlp.min(mlp_cap);
        let mem_lat_bound = mem_service_cycles / mlp;
        let dram_bytes = stats.dram_lines * cfg.l1d.line_bytes as u64;
        let bw_bound = cfg.ns_to_cycles(dram_bytes as f64 / cfg.dram_bandwidth_gbps);
        let mem_bound = mem_lat_bound.max(bw_bound);
        let fe_bound = n.div_ceil(fe_width.max(1)) + fe_fill_cycles;
        let bad_spec_cycles = stats.mispredicts * (cfg.frontend_depth + 2);
        let cycles = ideal
            .max(core_bound)
            .max(mem_bound)
            .max(fe_bound)
            .saturating_add(bad_spec_cycles);
        stats.cycles = cycles;

        // Fetch-stage counters (Fig. 7a shape): active cycles at fetch
        // bandwidth, fill latency as icache stalls.
        stats.active_fetch_cycles = n.div_ceil(fe_width.max(1));
        stats.icache_stall_cycles = fe_fill_cycles;
        stats.squash_cycles = bad_spec_cycles;
        stats.misc_stall_cycles = 0;
        stats.tlb_stall_cycles = 0;

        // ---------------- TMA slot attribution ----------------
        // Retiring slots are exact; stall slots are distributed over the
        // bounds' excess over the ideal machine, so the top-down ranking
        // mirrors which bound actually dominated.
        let total_slots = cycles * cfg.commit_width as u64;
        let stall_slots = total_slots.saturating_sub(n);
        let core_x = core_bound.saturating_sub(ideal);
        let mem_x = mem_bound;
        // Front-end fill latency mostly hides behind the instruction
        // window on an out-of-order machine: it surfaces fully only when
        // the front end is *the* bottleneck, plus a small leak term for
        // refill bubbles the window cannot cover.
        let fe_x = fe_bound.saturating_sub(core_bound.max(mem_bound)) + fe_fill_cycles / 8;
        let bs_x = bad_spec_cycles;
        let wsum = core_x + mem_x + fe_x + bs_x;
        stats.slots_retiring = n;
        match (stall_slots * fe_x).checked_div(wsum) {
            // No stall weight at all: everything unexplained is core-bound.
            None => {
                stats.slots_frontend = 0;
                stats.slots_bad_speculation = 0;
                stats.slots_be_memory = 0;
                stats.slots_be_core = stall_slots;
            }
            Some(fe_slots) => {
                stats.slots_frontend = fe_slots;
                stats.slots_bad_speculation = stall_slots * bs_x / wsum;
                stats.slots_be_memory = stall_slots * mem_x / wsum;
                stats.slots_be_core = stall_slots
                    - stats.slots_frontend
                    - stats.slots_bad_speculation
                    - stats.slots_be_memory;
            }
        }
        stats.slots_backend = stats.slots_be_core + stats.slots_be_memory;
        if fe_fill_cycles > 0 {
            stats.slots_fe_latency = stats.slots_frontend;
            stats.slots_fe_bandwidth = 0;
        } else {
            stats.slots_fe_latency = 0;
            stats.slots_fe_bandwidth = stats.slots_frontend;
        }
        stats
    }

    /// Window-sampled functional warming: inside the systematic windows
    /// caches, TLBs, predictor and BTB observe every access; gap ops are
    /// merely consumed. Same probe cost profile as the measuring pass.
    fn sampled_warm<I: Iterator<Item = MicroOp>>(&mut self, trace: &mut I, max_ops: u64) -> u64 {
        let mut consumed = 0u64;
        let mut cur_line = u64::MAX;
        while consumed < max_ops {
            let Some(op) = trace.next() else { break };
            let pos = consumed % PERIOD;
            consumed += 1;
            if pos >= WINDOW {
                continue;
            }
            if pos == 0 {
                cur_line = u64::MAX;
            }
            let line = (op.pc as u64) >> 6;
            if line != cur_line {
                self.itlb.access(op.pc as u64);
                self.hierarchy.inst_access(op.pc as u64, consumed);
                cur_line = line;
            }
            match op.kind {
                OpKind::Load => {
                    self.dtlb.access(op.addr);
                    self.hierarchy.data_access(op.addr, false, consumed);
                }
                OpKind::Store => {
                    self.dtlb.access(op.addr);
                    self.hierarchy.data_access(op.addr, true, consumed);
                }
                OpKind::Branch => {
                    self.predictor.update(op.pc, op.taken);
                    if op.taken {
                        self.btb.install(op.pc, op.target);
                        cur_line = u64::MAX;
                    }
                }
                _ => {}
            }
            if consumed.is_multiple_of(65_536) {
                self.hierarchy.reset_timing();
            }
        }
        self.hierarchy.reset_timing();
        consumed
    }
}

impl CoreModel for AnalyticCore {
    fn kind(&self) -> ModelKind {
        ModelKind::Analytic
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
    }

    fn run_warm(&mut self, trace: &mut Ops<'_>, warmup_ops: u64) -> SimStats {
        AnalyticCore::run_warm(self, trace, warmup_ops)
    }

    fn warm_only(&mut self, trace: &mut Ops<'_>, max_ops: u64) -> u64 {
        self.sampled_warm(trace, max_ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::o3::O3Core;
    use belenos_trace::FnCategory;

    const CAT: FnCategory = FnCategory::Internal;

    fn run_ops(ops: Vec<MicroOp>, cfg: CoreConfig) -> SimStats {
        let mut core = AnalyticCore::new(cfg);
        core.run_warm(ops.into_iter(), 0)
    }

    fn int_stream(n: usize) -> Vec<MicroOp> {
        (0..n)
            .map(|i| MicroOp::int(0x1000 + (i as u32 % 16) * 4, 0, 0, CAT))
            .collect()
    }

    #[test]
    fn independent_ints_hit_the_retire_bound() {
        let stats = run_ops(int_stream(20_000), CoreConfig::gem5_baseline());
        assert_eq!(stats.committed_ops, 20_000);
        // 4 int ALUs / commit width 4: the bound model lands at ~4 IPC.
        assert!(stats.ipc() > 3.0, "ipc {}", stats.ipc());
        assert!(stats.ipc() <= 4.0 + 1e-9, "ipc {}", stats.ipc());
    }

    #[test]
    fn dependency_chains_bound_from_the_critical_path() {
        let ops: Vec<MicroOp> = (0..5000)
            .map(|i| MicroOp::int(0x1000, if i == 0 { 0 } else { 1 }, 0, CAT))
            .collect();
        let stats = run_ops(ops, CoreConfig::gem5_baseline());
        // A serial 1-cycle chain is exactly n cycles deep (the trace fits
        // one measurement window, so the pass is exact).
        assert!(stats.ipc() <= 1.0 + 1e-9, "chain ipc {}", stats.ipc());
        assert!(stats.ipc() > 0.9, "chain ipc {}", stats.ipc());
    }

    #[test]
    fn long_dependency_chains_survive_window_sampling() {
        // A serial chain much longer than the sampling period: the
        // per-window chain maxima scale back up to a whole-trace bound.
        let n = (3 * PERIOD) as usize;
        let ops: Vec<MicroOp> = (0..n)
            .map(|i| MicroOp::int(0x1000, u32::from(i > 0), 0, CAT))
            .collect();
        let stats = run_ops(ops, CoreConfig::gem5_baseline());
        assert!(
            stats.ipc() < 1.2,
            "sampled serial chain must stay serial: ipc {}",
            stats.ipc()
        );
    }

    #[test]
    fn cold_loads_are_memory_bound() {
        let ops: Vec<MicroOp> = (0..4000)
            .map(|i| MicroOp::load(0x3000, 0x100_0000 + i as u64 * 4096, 8, 0, CAT))
            .collect();
        let stats = run_ops(ops, CoreConfig::gem5_baseline());
        assert!(stats.l1d_mpki() > 500.0, "mpki {}", stats.l1d_mpki());
        assert!(
            stats.slots_be_memory > stats.slots_be_core,
            "mem {} vs core {}",
            stats.slots_be_memory,
            stats.slots_be_core
        );
        let (_, _, _, be) = stats.topdown();
        assert!(be > 0.4, "backend fraction {be}");
    }

    #[test]
    fn slots_partition_and_match_cycles() {
        for ops in [
            int_stream(5000),
            (0..4000)
                .map(|i| MicroOp::load(0x3000, i as u64 * 4096, 8, 0, CAT))
                .collect::<Vec<_>>(),
        ] {
            let stats = run_ops(ops, CoreConfig::gem5_baseline());
            let width = CoreConfig::gem5_baseline().commit_width as u64;
            assert_eq!(stats.total_slots(), stats.cycles * width);
            assert_eq!(
                stats.slots_backend,
                stats.slots_be_core + stats.slots_be_memory
            );
        }
    }

    #[test]
    fn bound_model_is_faster_than_it_is_wrong() {
        // The analytic estimate must land within a sane factor of the
        // detailed O3 cycle count — it is a bound model, not a guess.
        let ops: Vec<MicroOp> = (0..30_000)
            .map(|i| {
                if i % 5 == 0 {
                    MicroOp::load(0x3000, (i as u64 * 64) % (1 << 20), 8, 0, CAT)
                } else {
                    MicroOp::int(0x1000 + (i as u32 % 16) * 4, u32::from(i % 3 == 0), 0, CAT)
                }
            })
            .collect();
        let a = run_ops(ops.clone(), CoreConfig::gem5_baseline());
        let mut o3 = O3Core::new(CoreConfig::gem5_baseline());
        let d = o3.run(ops.into_iter());
        let ratio = a.cycles as f64 / d.cycles as f64;
        assert!(
            (0.2..=5.0).contains(&ratio),
            "analytic {} vs o3 {} (ratio {ratio:.2})",
            a.cycles,
            d.cycles
        );
    }

    #[test]
    fn sampled_counters_extrapolate_to_the_whole_stream() {
        // Far past the first window: scaled counters track the real
        // access counts of a uniform stream.
        let n = (2 * PERIOD + WINDOW) as usize;
        let ops: Vec<MicroOp> = (0..n)
            .map(|i| MicroOp::load(0x3000, (i % 512) as u64 * 64, 8, 0, CAT))
            .collect();
        let stats = run_ops(ops, CoreConfig::gem5_baseline());
        assert_eq!(stats.committed_ops, n as u64);
        let err = (stats.l1d_accesses as f64 - n as f64).abs() / n as f64;
        assert!(err < 0.05, "scaled accesses {} vs {n}", stats.l1d_accesses);
        assert_eq!(stats.commit_mix.loads, stats.l1d_accesses);
    }

    #[test]
    fn trace_ending_in_a_gap_does_not_double_count_memory() {
        // Regression: the end-of-trace counter accumulation used to re-add
        // the last window's delta when the trace ended inside a sampling
        // gap (the window's delta was already banked at the gap's first
        // op), inflating every scaled memory counter by ~2x.
        let n = PERIOD as usize; // ends deep in the first gap
        let ops: Vec<MicroOp> = (0..n)
            .map(|i| MicroOp::load(0x3000, (i % 512) as u64 * 64, 8, 0, CAT))
            .collect();
        let stats = run_ops(ops, CoreConfig::gem5_baseline());
        let err = (stats.l1d_accesses as f64 - n as f64).abs() / n as f64;
        assert!(
            err < 0.05,
            "gap-terminated stream: l1d_accesses {} vs {n} ops",
            stats.l1d_accesses
        );
    }

    #[test]
    fn empty_trace_is_safe() {
        let stats = run_ops(Vec::new(), CoreConfig::gem5_baseline());
        assert_eq!(stats.committed_ops, 0);
        assert_eq!(stats.cycles, 0);
    }
}
