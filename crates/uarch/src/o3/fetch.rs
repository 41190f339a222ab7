//! Fetch stage: pulls micro-ops from the replay queue or the trace,
//! fighting the iTLB, icache, BTB and branch predictor; taken branches
//! end the fetch group and squash recovery blocks the front end.

use super::pipeline::{FetchBlock, Pipeline};
use super::O3Core;
use crate::cache::ServiceLevel;
use crate::stats::SimStats;
use belenos_trace::{MicroOp, OpKind};

impl O3Core {
    /// Fetches up to `fetch_width` ops into the fetch queue, or records
    /// why the front end could not run this cycle. Returns whether any
    /// pipeline state changed (ops processed or the fetch-block cause
    /// transitioned) — the fast-forward's front-end activity signal;
    /// pure stall accounting does not count.
    pub(super) fn fetch_stage<I: Iterator<Item = MicroOp>>(
        &mut self,
        p: &mut Pipeline,
        stats: &mut SimStats,
        trace: &mut std::iter::Fuse<I>,
    ) -> bool {
        let cfg = &self.cfg;
        let mut fetched = 0usize;
        let mut changed = false;
        if p.now < p.fetch_stall_until {
            if p.fetch_block != FetchBlock::Squash {
                p.fetch_block = FetchBlock::Squash;
                changed = true;
            }
            stats.squash_cycles += 1;
        } else if p.now < p.icache_pending_until {
            match p.fetch_block {
                FetchBlock::ITlb => stats.tlb_stall_cycles += 1,
                _ => stats.icache_stall_cycles += 1,
            }
        } else if p.fetchq_len() + cfg.fetch_width > p.fetchq_cap {
            // Downstream back-pressure: the fetch stage still ran this
            // cycle (gem5 counts these as fetch cycles, not stalls).
            if p.fetch_block != FetchBlock::QueueFull {
                p.fetch_block = FetchBlock::QueueFull;
                changed = true;
            }
            stats.active_fetch_cycles += 1;
        } else {
            if p.fetch_block != FetchBlock::None {
                p.fetch_block = FetchBlock::None;
                changed = true;
            }
            while fetched < cfg.fetch_width {
                // The replay cursor serves first; only when it has
                // caught up with the trace head is a new op decoded into
                // the op buffer. A stalled op simply leaves the cursor
                // in place — "push front" with no data movement.
                if p.replay_next == p.next_idx {
                    match trace.next() {
                        Some(op) => p.accept(&op),
                        None => break,
                    }
                }
                let idx = p.replay_next;
                let &MicroOp {
                    pc, kind, taken, ..
                } = p.ops.get(idx);
                // An op was obtained: cache/TLB/predictor state is about
                // to be touched even if the op stalls and replays.
                changed = true;
                // Instruction-side cache/TLB on line crossings.
                let line = (pc as u64) >> 6;
                if line != p.cur_fetch_line {
                    if !self.itlb.access(pc as u64) {
                        p.icache_pending_until = p.now + cfg.tlb_miss_penalty;
                        p.fetch_block = FetchBlock::ITlb;
                        break;
                    }
                    let r = self.hierarchy.inst_access(pc as u64, p.now);
                    if r.level != ServiceLevel::L1 {
                        p.icache_pending_until = r.done;
                        p.fetch_block = FetchBlock::ICache;
                        break;
                    }
                    p.cur_fetch_line = line;
                }
                let mut pred_taken = false;
                let mut end_group = false;
                if kind == OpKind::Branch {
                    pred_taken = self.predictor.predict(pc);
                    if pred_taken {
                        if self.btb.lookup(pc).is_none() {
                            // Unknown target: bubble until decode fixes it.
                            p.fetch_stall_until = p.now + cfg.btb_miss_penalty;
                            stats.btb_misses += 1;
                        }
                        end_group = true;
                    }
                    if taken {
                        end_group = true;
                        p.cur_fetch_line = u64::MAX;
                    }
                }
                // Moving the replay cursor past the op is the push onto
                // the fetch queue.
                p.ops.set_predicted_taken(idx, pred_taken);
                p.replay_next = idx + 1;
                fetched += 1;
                if end_group {
                    break;
                }
            }
            if fetched > 0 {
                stats.active_fetch_cycles += 1;
            } else if p.fetchq_len() > 0 || !p.rob.is_empty() {
                stats.misc_stall_cycles += 1;
            }
        }
        changed
    }
}
