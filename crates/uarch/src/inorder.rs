//! Scalar in-order core backend.
//!
//! Holds one [`Machine`] — the cache hierarchy, TLBs, branch predictor
//! and BTB every backend shares — but issues exactly one op per cycle in
//! program order and **stalls at issue**: an op waits for its producers'
//! results, the front end, and the (unpipelined) FP divider before the
//! next op may issue. Completion may overlap —
//! a load's consumer stalls, an independent successor does not — which
//! makes this a classic scoreboard machine rather than a blocking one.
//!
//! The model runs as a single pass over the trace (no wrong-path fetch:
//! a mispredicted branch costs a front-end redirect bubble instead of
//! squash-and-replay), so it is typically ~10-20x faster than the O3
//! backend while still exercising every memory-system and
//! branch-predictor effect. TMA slots are accounted on the 1-wide issue
//! clock: every cycle is either a retire slot or a stall attributed to
//! the resource that bound it, so `total_slots() == cycles` exactly.

use crate::cache::ServiceLevel;
use crate::config::CoreConfig;
use crate::model::{CoreModel, Machine, ModelKind, Window};
use crate::o3::{fu_and_latency, FPDIV_BUSY};
use crate::stats::SimStats;
use belenos_trace::{MicroOp, OpKind, Ops};

/// Minimum dependency-tracking window (producer distances beyond the
/// window are treated as long-retired).
const DONE_WINDOW: usize = 8192;

/// Completion-ring size for a configuration: comfortably larger than
/// the ROB, never below the historical 8192 floor. Always a power of
/// two, so ring indexing is a mask, not a modulo.
fn done_window_for(cfg: &CoreConfig) -> usize {
    DONE_WINDOW.max((cfg.rob_entries.saturating_mul(4)).next_power_of_two())
}

/// The scalar in-order core simulator.
#[derive(Debug)]
pub struct InOrderCore {
    machine: Machine,
}

/// Set in a completion-ring slot when the producer was a load — used to
/// attribute dependent stalls to memory vs core. The rest of the slot is
/// the cycle the op's result is ready, so a slot is one `u64`.
const LOAD_BIT: u64 = 1 << 63;

impl InOrderCore {
    /// Builds an in-order core for one configuration.
    pub fn new(cfg: CoreConfig) -> Self {
        InOrderCore {
            machine: Machine::new(cfg),
        }
    }

    /// Runs the trace to completion and returns the statistics.
    pub fn run<I: Iterator<Item = MicroOp>>(&mut self, trace: I) -> SimStats {
        self.run_warm(trace, 0)
    }

    /// Runs the trace, discarding the first `warmup_ops` committed ops
    /// from the reported statistics (machine state persists, as in
    /// [`crate::o3::O3Core::run_warm`]). Generic so the [`Ops`] cursor
    /// path monomorphizes with no per-op virtual dispatch.
    pub fn run_warm<I: Iterator<Item = MicroOp>>(&mut self, trace: I, warmup_ops: u64) -> SimStats {
        let (mut window, mut stats) = Window::open(&mut self.machine, warmup_ops);
        let m = &mut self.machine;
        let ring = done_window_for(&m.cfg) as u64;
        // `done_window_for` is always a power of two: ring indexing is a
        // mask, never a modulo.
        let wmask = ring - 1;
        let mut done_at: Vec<u64> = vec![0; ring as usize];

        // The issue clock: cycle the previous op issued (scalar machine,
        // at most one issue per cycle).
        let mut issue_clock: u64 = 0;
        let mut started = false;
        let mut last_done: u64 = 0;
        let mut last_was_load = false;
        // Front-end readiness (icache/iTLB fills) vs mispredict redirect
        // are tracked separately so their stalls attribute differently.
        let mut fe_ready: u64 = 0;
        let mut fe_is_tlb = false;
        let mut redirect_ready: u64 = 0;
        let mut fpdiv_busy_until: u64 = 0;
        let mut cur_line = u64::MAX;
        for (idx, op) in (0_u64..).zip(trace) {
            // ---------------- frontend ----------------
            let line = m.fetch_line(op.pc);
            if line != cur_line {
                let fetch_at = fe_ready.max(if started { issue_clock + 1 } else { 0 });
                let mut at = fetch_at;
                if !m.itlb.access(op.pc as u64) {
                    at += m.cfg.tlb_miss_penalty;
                    fe_is_tlb = true;
                } else {
                    fe_is_tlb = false;
                }
                let r = m.hierarchy.inst_access(op.pc as u64, at);
                if r.level != ServiceLevel::L1 {
                    at = r.done;
                }
                fe_ready = at;
                cur_line = line;
            }

            // ---------------- issue (the stall point) ----------------
            let base_cycle = if started { issue_clock + 1 } else { 0 };
            let mut at = base_cycle;
            if redirect_ready > at {
                let stall = redirect_ready - at;
                stats.slots_bad_speculation += stall;
                stats.squash_cycles += stall;
                at = redirect_ready;
            }
            if fe_ready > at {
                let stall = fe_ready - at;
                stats.slots_frontend += stall;
                stats.slots_fe_latency += stall;
                if fe_is_tlb {
                    stats.tlb_stall_cycles += stall;
                } else {
                    stats.icache_stall_cycles += stall;
                }
                at = fe_ready;
            }
            let dep = |d: u32| -> (u64, bool) {
                if d == 0 || d as u64 > idx || d as u64 >= ring {
                    return (0, false);
                }
                let slot = done_at[((idx - d as u64) & wmask) as usize];
                (slot & !LOAD_BIT, slot & LOAD_BIT != 0)
            };
            let (d1, m1) = dep(op.dep1);
            let (d2, m2) = dep(op.dep2);
            let (dep_t, dep_mem) = if d1 >= d2 { (d1, m1) } else { (d2, m2) };
            if dep_t > at {
                let stall = dep_t - at;
                if dep_mem {
                    stats.slots_be_memory += stall;
                } else {
                    stats.slots_be_core += stall;
                }
                stats.slots_backend += stall;
                at = dep_t;
            }
            if op.kind == OpKind::FpDiv && fpdiv_busy_until > at {
                let stall = fpdiv_busy_until - at;
                stats.slots_be_core += stall;
                stats.slots_backend += stall;
                at = fpdiv_busy_until;
            }

            // ---------------- execute ----------------
            let (_, latency) = fu_and_latency(op.kind, m.cfg.pause_latency);
            let mut done = at + latency;
            let mut is_load = false;
            match op.kind {
                OpKind::Load => {
                    let mut penalty = 0;
                    if !m.dtlb.access(op.addr) {
                        penalty = m.cfg.tlb_miss_penalty;
                        stats.dtlb_misses += 1;
                    }
                    let r = m.hierarchy.data_access(op.addr, false, at + penalty);
                    done = r.done;
                    is_load = true;
                }
                OpKind::Store => {
                    // Stores retire into the cache immediately at issue
                    // (no store queue to drain on a scalar machine).
                    m.hierarchy.data_access(op.addr, true, at);
                    done = at + 1;
                }
                OpKind::Branch => {
                    let pred = m.predictor.predict(op.pc);
                    m.predictor.update(op.pc, op.taken);
                    stats.branches += 1;
                    if op.taken {
                        if m.btb.lookup(op.pc).is_none() {
                            stats.btb_misses += 1;
                        }
                        m.btb.install(op.pc, op.target);
                        cur_line = u64::MAX;
                    }
                    if pred != op.taken {
                        stats.mispredicts += 1;
                        // Redirect bubble: the front end restarts once the
                        // branch resolves and the pipeline refills.
                        redirect_ready = done + m.cfg.frontend_depth;
                        cur_line = u64::MAX;
                    }
                }
                OpKind::FpDiv => {
                    fpdiv_busy_until = at + FPDIV_BUSY;
                }
                OpKind::Pause | OpKind::Serialize => {
                    // Serializing: nothing younger may issue before the
                    // pause drains — model as a front-end hold.
                    fe_ready = fe_ready.max(done);
                }
                _ => {}
            }
            debug_assert!(done < LOAD_BIT, "cycle {done} overflows a ring slot");
            done_at[(idx & wmask) as usize] = done | if is_load { LOAD_BIT } else { 0 };
            issue_clock = at;
            started = true;
            if done > last_done {
                last_done = done;
                last_was_load = is_load;
            }

            // ---------------- retire accounting ----------------
            stats.exec_mix.count(op.kind);
            stats.commit_mix.count(op.kind);
            stats.slots_by_category[crate::stats::category_index(op.cat)] += 1;
            stats.slots_retiring += 1;
            stats.committed_ops += 1;
            stats.active_fetch_cycles += 1;
            window.observe(&stats, issue_clock + 1, m);
        }

        // Drain: cycles until the last op's result lands, attributed to
        // the resource that held it.
        let issue_cycles = if started { issue_clock + 1 } else { 0 };
        let drain = last_done.saturating_sub(issue_cycles);
        if drain > 0 {
            if last_was_load {
                stats.slots_be_memory += drain;
            } else {
                stats.slots_be_core += drain;
            }
            stats.slots_backend += drain;
        }
        window.close(stats, issue_cycles + drain, m)
    }
}

impl CoreModel for InOrderCore {
    fn kind(&self) -> ModelKind {
        ModelKind::InOrder
    }

    fn machine(&self) -> &Machine {
        &self.machine
    }

    fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    fn run_warm(&mut self, trace: &mut Ops<'_>, warmup_ops: u64) -> SimStats {
        InOrderCore::run_warm(self, trace, warmup_ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::o3::O3Core;
    use belenos_trace::{FlatTrace, FnCategory};

    const CAT: FnCategory = FnCategory::Internal;

    fn run_ops(ops: Vec<MicroOp>, cfg: CoreConfig) -> SimStats {
        let mut core = InOrderCore::new(cfg);
        core.run(&mut ops.into_iter())
    }

    fn int_stream(n: usize) -> Vec<MicroOp> {
        (0..n)
            .map(|i| MicroOp::int(0x1000 + (i as u32 % 16) * 4, 0, 0, CAT))
            .collect()
    }

    #[test]
    fn an_inorder_run_notes_no_outstanding_miss() {
        // Only o3 reads outstanding misses: an in-order run, which misses
        // in every level, leaves both lists empty.
        let ops = (0..20_000u64)
            .map(|i| match i % 3 {
                0 => MicroOp::load(0x1000, (i * 4160) % (1 << 24), 8, 0, CAT),
                1 => MicroOp::store(0x1004, (i * 8256) % (1 << 23), 8, 0, CAT),
                _ => MicroOp::int(0x1008, 1, 0, CAT),
            })
            .collect::<Vec<_>>();
        let mut core = InOrderCore::new(CoreConfig::gem5_baseline());
        let stats = core.run(ops.into_iter());
        assert!(stats.l1d_misses > 0 && stats.l2_misses > 0);
        let h = &core.machine.hierarchy;
        assert_eq!((h.l1d.outstanding(), h.l2.outstanding()), (0, 0));
    }

    #[test]
    fn scalar_issue_caps_ipc_at_one() {
        let stats = run_ops(int_stream(10_000), CoreConfig::gem5_baseline());
        assert_eq!(stats.committed_ops, 10_000);
        assert!(stats.ipc() <= 1.0, "scalar ipc {}", stats.ipc());
        assert!(
            stats.ipc() > 0.9,
            "independent ints ~1 ipc: {}",
            stats.ipc()
        );
    }

    #[test]
    fn slots_partition_the_scalar_cycle_budget() {
        let ops: Vec<MicroOp> = (0..4000)
            .map(|i| MicroOp::load(0x3000, 0x100_0000 + i as u64 * 4096, 8, 0, CAT))
            .collect();
        let stats = run_ops(ops, CoreConfig::gem5_baseline());
        assert_eq!(
            stats.total_slots(),
            stats.cycles,
            "1-wide issue: slots == cycles"
        );
        assert_eq!(
            stats.slots_backend,
            stats.slots_be_core + stats.slots_be_memory
        );
    }

    #[test]
    fn in_order_is_slower_than_out_of_order() {
        // Independent loads: the O3 core overlaps misses, the in-order
        // consumer chain cannot overlap dependent work.
        let ops: Vec<MicroOp> = (0..3000)
            .flat_map(|i| {
                [
                    MicroOp::load(0x3000, 0x100_0000 + i as u64 * 4096, 8, 0, CAT),
                    MicroOp::int(0x3008, 1, 0, CAT), // consumes the load
                ]
            })
            .collect();
        let io = run_ops(ops.clone(), CoreConfig::gem5_baseline());
        let mut o3 = O3Core::new(CoreConfig::gem5_baseline());
        let ooo = o3.run(ops.into_iter());
        assert!(
            io.cycles > ooo.cycles,
            "in-order {} must be slower than o3 {}",
            io.cycles,
            ooo.cycles
        );
        assert_eq!(io.committed_ops, ooo.committed_ops);
    }

    #[test]
    fn dependent_loads_stall_on_memory() {
        let ops: Vec<MicroOp> = (0..2000)
            .flat_map(|i| {
                [
                    MicroOp::load(0x3000, 0x200_0000 + i as u64 * 4096, 8, 0, CAT),
                    MicroOp::int(0x3008, 1, 0, CAT),
                ]
            })
            .collect();
        let stats = run_ops(ops, CoreConfig::gem5_baseline());
        assert!(
            stats.slots_be_memory > stats.slots_be_core,
            "miss-bound stream must be memory bound: mem {} core {}",
            stats.slots_be_memory,
            stats.slots_be_core
        );
    }

    #[test]
    fn mispredicts_cost_redirect_bubbles() {
        let mut ops = Vec::new();
        for i in 0..2000 {
            ops.push(MicroOp::int(0x5000, 0, 0, CAT));
            ops.push(MicroOp::branch(0x5010, 0x5000, i % 2 == 0, 0, CAT));
        }
        let stats = run_ops(ops, CoreConfig::gem5_baseline());
        assert_eq!(stats.committed_ops, 4000);
        assert!(stats.mispredicts > 0);
        assert!(stats.slots_bad_speculation > 0);
    }

    #[test]
    fn warmup_clamps_to_short_traces() {
        let mut core = InOrderCore::new(CoreConfig::gem5_baseline());
        let stats = core.run_warm(&mut int_stream(100).into_iter(), 1_000_000);
        assert_eq!(stats.committed_ops, 0);
        assert_eq!(stats.cycles, 0);
        assert_eq!(stats.l1d_accesses, 0);
    }

    #[test]
    fn flat_trace_run_is_bit_identical_to_streaming() {
        let ops: Vec<MicroOp> = (0..5000)
            .map(|i| match i % 4 {
                0 => MicroOp::load(0x3000, (i as u64 * 64) % (1 << 20), 8, 1, CAT),
                1 => MicroOp::store(0x3004, (i as u64 * 64) % (1 << 18), 8, 0, CAT),
                2 => MicroOp::branch(0x3008, 0x3000, i % 3 == 0, 0, CAT),
                _ => MicroOp::int(0x300c, 1, 2, CAT),
            })
            .collect();
        let flat: FlatTrace = ops.iter().copied().collect();
        let a = run_ops(ops, CoreConfig::gem5_baseline());
        let mut core = InOrderCore::new(CoreConfig::gem5_baseline());
        let b = CoreModel::run_warm_flat(&mut core, &flat, 0, flat.len(), 0);
        assert_eq!(a, b, "flat replay must be bit-identical");
    }

    #[test]
    fn reruns_on_one_core_are_deterministic_and_warm() {
        let mut core = InOrderCore::new(CoreConfig::gem5_baseline());
        let first = core.run(&mut int_stream(5000).into_iter());
        let second = core.run(&mut int_stream(5000).into_iter());
        assert_eq!(first.committed_ops, second.committed_ops);
        assert!(second.cycles <= first.cycles, "warm icache can only help");
    }
}
