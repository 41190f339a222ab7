//! Rename/dispatch stage: moves fetched ops into the ROB, issue queue
//! and load/store queues, allocating physical registers and stopping at
//! the first structural hazard (full window, queue or register pool).

use super::issue::fu_and_latency;
use super::pipeline::Pipeline;
use super::O3Core;
use belenos_trace::OpKind;

impl O3Core {
    /// Dispatches up to the effective front-end width of ops from the
    /// fetch queue into the out-of-order window; returns how many moved.
    pub(super) fn dispatch_stage(&mut self, p: &mut Pipeline) -> usize {
        let cfg = &self.machine.cfg;
        let mut dispatched = 0usize;
        for _ in 0..p.fe_width {
            // Peek the front op straight out of the op buffer; nothing
            // moves until the hazard checks pass.
            if p.fetchq_len() == 0 {
                break;
            }
            let idx = p.fetch_head;
            let op = *p.ops.get(idx);
            let kind = op.kind;
            if p.rob.len() >= cfg.rob_entries || p.iq_len() >= cfg.iq_entries {
                break;
            }
            match kind {
                OpKind::Load if p.lq.len() >= cfg.lq_entries => break,
                OpKind::Store if p.sq.len() >= cfg.sq_entries => break,
                OpKind::IntAlu | OpKind::IntMul if p.int_regs_used >= p.int_pool => break,
                OpKind::FpAdd | OpKind::FpMul | OpKind::FpDiv | OpKind::Load
                    if p.fp_regs_used >= p.fp_pool =>
                {
                    break
                }
                _ => {}
            }
            p.fetch_head += 1;
            let mut lsq_slot = u32::MAX;
            match kind {
                OpKind::Load => {
                    lsq_slot = p.lq.push_back(idx, op.addr);
                    p.fp_regs_used += 1;
                }
                OpKind::Store => {
                    lsq_slot = p.sq.push_back(idx, op.addr);
                }
                OpKind::IntAlu | OpKind::IntMul => p.int_regs_used += 1,
                OpKind::FpAdd | OpKind::FpMul | OpKind::FpDiv => p.fp_regs_used += 1,
                OpKind::Pause | OpKind::Serialize => p.serializers.push_back(idx),
                OpKind::Branch => {}
            }
            let mispred = kind == OpKind::Branch && p.ops.predicted_taken(idx) != op.taken;
            // The op lands in the ready queue or parks on its first
            // pending producer's wait list — the issue stage never sees
            // an op whose operands are not ready.
            let (fu, lat) = fu_and_latency(kind, cfg.pause_latency);
            p.rob.push_back(idx, mispred, lsq_slot);
            p.iq_insert(idx, fu, lat);
            dispatched += 1;
        }
        p.rob_peak = p.rob_peak.max(p.rob.len());
        dispatched
    }
}
