//! gem5 `TournamentBP`: local-history + global-history predictors with a
//! choice table (Alpha 21264 style). The paper's Table II baseline.

use super::{ctr_down, ctr_up, BranchPredictor};

const LOCAL_HIST_BITS: usize = 10;
const LOCAL_HIST_ENTRIES: usize = 1024;
const LOCAL_CTR_ENTRIES: usize = 1 << LOCAL_HIST_BITS;
const GLOBAL_BITS: usize = 12;
const GLOBAL_ENTRIES: usize = 1 << GLOBAL_BITS;

/// Tournament predictor: chooses between a local two-level predictor and
/// a global (gshare-style) predictor per branch.
#[derive(Debug, Clone)]
pub struct TournamentBp {
    local_hist: Vec<u16>,
    local_ctrs: Vec<u8>,
    global_ctrs: Vec<u8>,
    choice: Vec<u8>,
    ghr: u32,
}

impl TournamentBp {
    /// Standard-size tournament predictor.
    pub fn new() -> Self {
        TournamentBp {
            local_hist: vec![0; LOCAL_HIST_ENTRIES],
            local_ctrs: vec![1; LOCAL_CTR_ENTRIES],
            global_ctrs: vec![1; GLOBAL_ENTRIES],
            choice: vec![1; GLOBAL_ENTRIES],
            ghr: 0,
        }
    }

    fn local_index(&self, pc: u32) -> usize {
        (self.local_hist[((pc >> 2) as usize) % LOCAL_HIST_ENTRIES] as usize) % LOCAL_CTR_ENTRIES
    }

    fn global_index(&self, pc: u32) -> usize {
        ((self.ghr as usize) ^ ((pc >> 2) as usize)) % GLOBAL_ENTRIES
    }

    fn choice_index(&self) -> usize {
        (self.ghr as usize) % GLOBAL_ENTRIES
    }
}

impl Default for TournamentBp {
    fn default() -> Self {
        Self::new()
    }
}

impl BranchPredictor for TournamentBp {
    fn predict(&mut self, pc: u32) -> bool {
        let local = self.local_ctrs[self.local_index(pc)] >= 2;
        let global = self.global_ctrs[self.global_index(pc)] >= 2;
        let use_global = self.choice[self.choice_index()] >= 2;
        if use_global {
            global
        } else {
            local
        }
    }

    fn update(&mut self, pc: u32, taken: bool) {
        let li = self.local_index(pc);
        let gi = self.global_index(pc);
        let ci = self.choice_index();
        let local_pred = self.local_ctrs[li] >= 2;
        let global_pred = self.global_ctrs[gi] >= 2;
        // Train the chooser toward whichever component was right.
        if local_pred != global_pred {
            if global_pred == taken {
                ctr_up(&mut self.choice[ci], 3);
            } else {
                ctr_down(&mut self.choice[ci]);
            }
        }
        // Train both components.
        if taken {
            ctr_up(&mut self.local_ctrs[li], 3);
            ctr_up(&mut self.global_ctrs[gi], 3);
        } else {
            ctr_down(&mut self.local_ctrs[li]);
            ctr_down(&mut self.global_ctrs[gi]);
        }
        // Update histories.
        let h = &mut self.local_hist[((pc >> 2) as usize) % LOCAL_HIST_ENTRIES];
        *h = ((*h << 1) | taken as u16) & ((1 << LOCAL_HIST_BITS) - 1) as u16;
        self.ghr = ((self.ghr << 1) | taken as u32) & ((1 << GLOBAL_BITS) - 1) as u32;
    }

    fn name(&self) -> &'static str {
        "TournamentBP"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_local_period_patterns() {
        // Period-4 pattern is captured by 10-bit local history.
        let mut p = TournamentBp::new();
        let pattern = [true, true, false, true];
        let mut correct = 0;
        let total = 400;
        for i in 0..total {
            let taken = pattern[i % 4];
            if p.predict(0x100) == taken {
                correct += 1;
            }
            p.update(0x100, taken);
        }
        assert!(correct as f64 / total as f64 > 0.85, "{correct}/{total}");
    }

    #[test]
    fn learns_correlated_branches_via_global_history() {
        // Branch B always equals the last outcome of branch A: only the
        // global component can see that.
        let mut p = TournamentBp::new();
        let mut correct = 0;
        let mut last_a = false;
        let total = 500;
        for i in 0..total {
            let a = (i / 3) % 2 == 0;
            p.update(0x10, a);
            let b = last_a;
            if p.predict(0x20) == b {
                correct += 1;
            }
            p.update(0x20, b);
            last_a = a;
        }
        assert!(correct as f64 / total as f64 > 0.7, "{correct}/{total}");
    }

    #[test]
    fn chooser_moves_toward_better_component() {
        let mut p = TournamentBp::new();
        // Strongly biased branch: both components learn; chooser stays sane.
        for _ in 0..100 {
            p.update(0x40, true);
        }
        assert!(p.predict(0x40));
    }
}
