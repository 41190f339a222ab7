//! Commit stage: in-order retirement from the ROB head plus the TMA slot
//! accounting taken at the commit boundary every cycle.

use super::pipeline::{FetchBlock, OpState, Pipeline};
use super::O3Core;
use crate::stats::SimStats;
use belenos_trace::OpKind;

impl O3Core {
    /// Retires up to `commit_width` completed ops from the ROB head,
    /// draining stores to the cache and training the branch predictor,
    /// then attributes this cycle's retire slots (TMA level 1 and 2).
    /// Returns how many ops committed.
    pub(super) fn commit_stage(&mut self, p: &mut Pipeline, stats: &mut SimStats) -> usize {
        let commit_width = self.cfg.commit_width;
        let mut committed_this_cycle = 0usize;
        while committed_this_cycle < commit_width {
            if p.rob.is_empty() {
                break;
            }
            let head_idx = p.rob.head_idx;
            let entry = *p.rob.entry(head_idx);
            if entry.state != OpState::Done {
                break;
            }
            let op = *p.ops.get(head_idx);
            p.rob.pop_front();
            match op.kind {
                OpKind::Store => {
                    // Drain the store to the cache at commit.
                    let entry = p.sq.pop_front();
                    debug_assert_eq!(entry, Some(head_idx));
                    self.hierarchy.data_access(op.addr, true, p.now);
                }
                OpKind::Load => {
                    let entry = p.lq.pop_front();
                    debug_assert_eq!(entry, Some(head_idx));
                    p.fp_regs_used = p.fp_regs_used.saturating_sub(1);
                }
                OpKind::Branch => {
                    self.predictor.update(op.pc, op.taken);
                    if op.taken {
                        self.btb.install(op.pc, op.target);
                    }
                    stats.branches += 1;
                    if entry.mispredicted {
                        stats.mispredicts += 1;
                    }
                }
                OpKind::IntAlu | OpKind::IntMul => {
                    p.int_regs_used = p.int_regs_used.saturating_sub(1);
                }
                OpKind::FpAdd | OpKind::FpMul | OpKind::FpDiv => {
                    p.fp_regs_used = p.fp_regs_used.saturating_sub(1);
                }
                OpKind::Pause | OpKind::Serialize => {}
            }
            stats.commit_mix.count(op.kind);
            stats.slots_by_category[crate::stats::category_index(op.cat)] += 1;
            stats.committed_ops += 1;
            committed_this_cycle += 1;
            p.last_commit_cycle = p.now;
        }
        // TMA slot accounting at the commit boundary.
        stats.slots_retiring += committed_this_cycle as u64;
        let missing = (commit_width - committed_this_cycle) as u64;
        if missing > 0 {
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
        }
        committed_this_cycle
    }
}
