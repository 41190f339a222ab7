//! Writeback stage: completion events mark ROB entries done, wake
//! the ops parked on them, and resolve branches — a
//! mispredicted branch squashes everything younger and queues the
//! correct path for replay.

use super::pipeline::{FetchBlock, OpState, Pipeline};
use super::O3Core;
use crate::stats::SimStats;
use belenos_trace::OpKind;

impl O3Core {
    /// Drains up to `writeback_width` due completion events, completing
    /// ops and handling branch-misprediction squash-and-replay. Returns
    /// how many ops completed — any completion is a state change the
    /// fast-forward must observe.
    pub(super) fn writeback_stage(&mut self, p: &mut Pipeline, stats: &mut SimStats) -> usize {
        let cfg = &self.cfg;
        let mut written_back = 0usize;
        while written_back < cfg.writeback_width {
            let Some(idx) = p.events.pop_due(p.now) else {
                break;
            };
            // A squash cancels its victims' completions: every event
            // that comes due is an issued ROB occupant's.
            debug_assert!(p.rob.contains(idx), "completion of an op outside the ROB");
            let entry = p.rob.entry_mut(idx);
            debug_assert_eq!(
                entry.state,
                OpState::Issued,
                "completion of an op not in flight"
            );
            entry.state = OpState::Done;
            let (lsq_slot, entry_mispredicted) = (entry.lsq_slot, entry.mispredicted);
            let kind = p.ops.get(idx).kind;
            written_back += 1;
            if kind == OpKind::Load {
                p.lq.mark_done(idx, lsq_slot);
            }
            if matches!(kind, OpKind::Pause | OpKind::Serialize)
                && p.serializers.front() == Some(&idx)
            {
                p.serializers.pop_front();
            }
            // Wake consumers parked on this producer before issue runs
            // this cycle.
            p.wake_waiters(idx);
            let mispredicted = kind == OpKind::Branch && entry_mispredicted;
            if mispredicted {
                // Squash everything younger than the branch. The wrong
                // path occupies the ROB tail plus the whole fetch
                // queue; the correct path to replay is exactly the
                // contiguous index range `[idx + 1, next_idx)`, so the
                // replay "queue" is two cursor stores — no op is copied.
                let mut squashed = 0usize;
                let keep = (idx - p.rob.head_idx) as usize + 1;
                while p.rob.len() > keep {
                    let victim_idx = p.squash_youngest();
                    match p.ops.get(victim_idx).kind {
                        OpKind::IntAlu | OpKind::IntMul => {
                            p.int_regs_used = p.int_regs_used.saturating_sub(1)
                        }
                        OpKind::FpAdd | OpKind::FpMul | OpKind::FpDiv | OpKind::Load => {
                            p.fp_regs_used = p.fp_regs_used.saturating_sub(1)
                        }
                        _ => {}
                    }
                    stats.squashed_ops += 1;
                    squashed += 1;
                }
                let squash_count = squashed + p.fetchq_len();
                // The index queues are trace-order sorted, so dropping
                // everything younger truncates from the back; parked
                // victims were unlinked, and issued victims' completions
                // cancelled, as they were popped.
                p.squashes += 1;
                p.ready_drop_younger(idx);
                p.lq.truncate_younger(idx);
                p.sq.truncate_younger(idx);
                while p.serializers.back().is_some_and(|&i| i > idx) {
                    p.serializers.pop_back();
                }
                p.fetch_head = idx + 1;
                p.replay_next = idx + 1;
                let squash_cycles = (squash_count as u64).div_ceil(cfg.squash_width as u64);
                p.fetch_stall_until = p.fetch_stall_until.max(p.now + 1 + squash_cycles);
                p.squash_recovery_until = p.now + cfg.frontend_depth + 1 + squash_cycles;
                p.fetch_block = FetchBlock::Squash;
                p.cur_fetch_line = u64::MAX;
            }
        }
        written_back
    }
}
