//! Issue/execute stage: oldest-first selection from the issue queue,
//! gated by operand readiness, functional-unit availability,
//! serialization barriers and the memory-system issue rules
//! (store-to-load forwarding, MSHR back-pressure, dTLB walks).

use super::pipeline::{OpState, Pipeline};
use super::O3Core;
use crate::stats::SimStats;
use belenos_trace::{MicroOp, OpKind};

/// Functional-unit mapping: `[int alu, int mul, fp add, fp mul/div, mem
/// ports]`, with the op's execution latency in cycles.
pub(crate) fn fu_and_latency(kind: OpKind, pause_latency: u64) -> (usize, u64) {
    match kind {
        OpKind::IntAlu => (0, 1),
        OpKind::IntMul => (1, 3),
        OpKind::FpAdd => (2, 3),
        OpKind::FpMul => (3, 4),
        OpKind::FpDiv => (3, 18),
        OpKind::Load | OpKind::Store => (4, 1),
        OpKind::Branch => (0, 1),
        OpKind::Pause | OpKind::Serialize => (0, pause_latency),
    }
}

/// Cycles the unpipelined FP divider stays busy after accepting an op.
pub(crate) const FPDIV_BUSY: u64 = 12;

impl O3Core {
    /// Issues up to `issue_width` ready ops to free functional units.
    ///
    /// The ready queue holds only entries whose producers have already
    /// completed (dispatch/wakeup classification keeps waiting entries
    /// on their producers' wait lists), sorted by trace index — so
    /// this scan visits exactly the ready entries the old full-IQ scan
    /// would have selected, in the same oldest-first order. The scan
    /// bulk-exits once issue width is exhausted, a serialization
    /// barrier is crossed, or no remaining entry's functional-unit
    /// class has a free unit. Returns whether any op issued — the
    /// fast-forward activity signal.
    pub(super) fn issue_stage(&mut self, p: &mut Pipeline, stats: &mut SimStats) -> bool {
        if p.ready_q.is_empty() {
            return false;
        }
        let mut issued = 0usize;
        let mut fu_used = [0usize; 5];
        // Ready ops are ROB occupants: the ROB is not empty.
        let head_idx = p.rob.head_idx;
        let barrier = p.serializers.front().copied();
        let mut blocked_by_barrier = false;
        // Per-class count of not-yet-visited ready entries, for the
        // fu-saturation bulk exit. `open` counts classes that can still
        // accept an issue (entries remain and units are free); it is
        // maintained incrementally on the two transitions that can close
        // a class — its last entry visited, or its last unit taken — so
        // the saturation check is a single compare per entry instead of
        // a five-class scan.
        let mut remaining = p.ready_fu_count;
        let counts = self.machine.cfg.fu_counts;
        let mut open = (0..5)
            .filter(|&c| remaining[c] > 0 && fu_used[c] < counts[c])
            .count();
        let mut q = std::mem::take(&mut p.ready_q);
        let orig_len = q.len();
        let mut w = 0usize;
        for r in 0..orig_len {
            let idx = q[r] as u64;
            // Serialization: ops younger than an in-flight
            // pause/serialize cannot issue; the queue is sorted, so
            // everything from here on is younger too.
            if issued >= self.machine.cfg.issue_width
                || blocked_by_barrier
                || open == 0
                || barrier.is_some_and(|b| idx > b)
            {
                // Nothing further can change this cycle: bulk-keep
                // the tail instead of stepping through it.
                q.copy_within(r..orig_len, w);
                w += orig_len - r;
                break;
            }
            let entry = *p.iq_entry(idx);
            let fu = entry.fu as usize;
            remaining[fu] -= 1;
            if remaining[fu] == 0 && fu_used[fu] < counts[fu] {
                open -= 1;
            }
            let mut keep = true;
            'op: {
                // Ready entries are always live: squash drops them from
                // the ready queue in the same breath as the ROB.
                debug_assert!(p.rob.contains(idx), "ready-queue entry outside ROB window");
                let &MicroOp { kind, addr, .. } = p.ops.get(idx);
                let lsq_slot = p.rob.entry(idx).lsq_slot;
                let is_head = idx == head_idx;
                let latency = entry.lat as u64;
                debug_assert_eq!(
                    (fu, latency),
                    fu_and_latency(kind, self.machine.cfg.pause_latency),
                    "dispatch-time fu/latency must match the op kind"
                );
                if fu_used[fu] >= self.machine.cfg.fu_counts[fu] {
                    break 'op;
                }
                if kind == OpKind::FpDiv && p.fpdiv_busy_until > p.now {
                    break 'op;
                }
                if matches!(kind, OpKind::Pause | OpKind::Serialize) && !is_head {
                    blocked_by_barrier = true;
                    break 'op;
                }
                // Memory-op issue rules.
                let mut done_at = p.now + latency;
                match kind {
                    OpKind::Load => {
                        // Memory-dependence prediction (store sets in
                        // gem5): loads issue past older stores with
                        // unknown addresses; known matching stores
                        // forward.
                        if let Some((sidx, sdone)) = p.sq.forward_from(idx, addr) {
                            // A store-queue entry is a ROB occupant.
                            if !sdone && p.rob.entry(sidx).state != OpState::Done {
                                break 'op;
                            }
                            done_at = p.now + 1;
                        } else {
                            if !self.machine.hierarchy.l1d.mshr_available(p.now) {
                                break 'op;
                            }
                            let mut at = p.now;
                            if !self.machine.dtlb.access(addr) {
                                at += self.machine.cfg.tlb_miss_penalty;
                                stats.dtlb_misses += 1;
                            }
                            done_at = self.data_access(addr, false, at);
                        }
                        p.lq.mark_issued(idx, addr, lsq_slot);
                    }
                    OpKind::Store => {
                        p.sq.mark_issued(idx, addr, lsq_slot);
                    }
                    OpKind::FpDiv => {
                        p.fpdiv_busy_until = p.now + FPDIV_BUSY; // unpipelined window
                    }
                    _ => {}
                }
                fu_used[fu] += 1;
                if fu_used[fu] == counts[fu] && remaining[fu] > 0 {
                    open -= 1;
                }
                p.rob.entry_mut(idx).state = OpState::Issued;
                // The wheel files nothing at or before the current cycle.
                p.events.push(done_at, idx);
                stats.exec_mix.count(kind);
                issued += 1;
                keep = false;
            }
            if keep {
                q[w] = idx as u32;
                w += 1;
            } else {
                p.ready_fu_count[fu] -= 1;
            }
        }
        q.truncate(w);
        p.ready_q = q;
        issued > 0
    }
}
