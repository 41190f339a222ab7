//! Branch predictors and the branch target buffer.
//!
//! The four predictors the paper sweeps (Fig. 12), implemented after their
//! gem5 namesakes: `LocalBP`, `TournamentBP` (baseline), `LTAGE` and a
//! simplified `MultiperspectivePerceptron`.

mod local;
mod ltage;
mod perceptron;
mod tournament;

pub use local::LocalBp;
pub use ltage::LtageBp;
pub use perceptron::PerceptronBp;
pub use tournament::TournamentBp;

use crate::config::BranchPredictorKind;

/// A conditional-branch direction predictor.
pub trait BranchPredictor {
    /// Predicts the direction of the branch at `pc`.
    fn predict(&mut self, pc: u32) -> bool;

    /// Trains with the resolved outcome (called at commit, in order).
    fn update(&mut self, pc: u32, taken: bool);

    /// Predictor display name.
    fn name(&self) -> &'static str;
}

/// Instantiates the predictor selected by a configuration.
pub fn build(kind: BranchPredictorKind) -> Box<dyn BranchPredictor> {
    match kind {
        BranchPredictorKind::Local => Box::new(LocalBp::new(2048)),
        BranchPredictorKind::Tournament => Box::new(TournamentBp::new()),
        BranchPredictorKind::Ltage => Box::new(LtageBp::new()),
        BranchPredictorKind::Perceptron => Box::new(PerceptronBp::new()),
    }
}

/// Direct-mapped branch target buffer.
#[derive(Debug, Clone)]
pub struct Btb {
    entries: Vec<(u32, u32)>, // (tag pc, target)
    mask: usize,
    /// Lookups.
    pub accesses: u64,
    /// Target misses (taken branch with unknown target).
    pub misses: u64,
}

impl Btb {
    /// A BTB with `entries` slots (rounded down to a power of two).
    ///
    /// # Panics
    ///
    /// Panics if `entries == 0`.
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0, "btb must have entries");
        let n = entries.next_power_of_two() / if entries.is_power_of_two() { 1 } else { 2 };
        Btb {
            entries: vec![(u32::MAX, 0); n],
            mask: n - 1,
            accesses: 0,
            misses: 0,
        }
    }

    /// Looks up the target for `pc`; `None` means BTB miss.
    pub fn lookup(&mut self, pc: u32) -> Option<u32> {
        self.accesses += 1;
        let idx = (pc as usize >> 2) & self.mask;
        let (tag, target) = self.entries[idx];
        if tag == pc {
            Some(target)
        } else {
            self.misses += 1;
            None
        }
    }

    /// Installs/updates the target of a taken branch.
    pub fn install(&mut self, pc: u32, target: u32) {
        let idx = (pc as usize >> 2) & self.mask;
        self.entries[idx] = (pc, target);
    }
}

/// Saturating 2-bit counter helpers shared by the predictors.
#[inline]
pub(crate) fn ctr_up(c: &mut u8, max: u8) {
    if *c < max {
        *c += 1;
    }
}

#[inline]
pub(crate) fn ctr_down(c: &mut u8) {
    if *c > 0 {
        *c -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives `pred` with `pattern` repeated `reps` times; returns accuracy.
    pub(crate) fn accuracy(
        pred: &mut dyn BranchPredictor,
        pc: u32,
        pattern: &[bool],
        reps: usize,
    ) -> f64 {
        let mut correct = 0usize;
        let mut total = 0usize;
        for _ in 0..reps {
            for &taken in pattern {
                if pred.predict(pc) == taken {
                    correct += 1;
                }
                pred.update(pc, taken);
                total += 1;
            }
        }
        correct as f64 / total as f64
    }

    #[test]
    fn all_predictors_learn_always_taken() {
        for kind in [
            BranchPredictorKind::Local,
            BranchPredictorKind::Tournament,
            BranchPredictorKind::Ltage,
            BranchPredictorKind::Perceptron,
        ] {
            let mut p = build(kind);
            let acc = accuracy(p.as_mut(), 0x400, &[true], 500);
            assert!(acc > 0.95, "{} only {acc}", p.name());
        }
    }

    #[test]
    fn loop_exit_pattern_separates_predictors() {
        // taken x7, not-taken x1 (classic loop): history-based predictors
        // must beat the local 2-bit counter.
        let pattern: Vec<bool> = (0..8).map(|i| i != 7).collect();
        let mut local = build(BranchPredictorKind::Local);
        let mut ltage = build(BranchPredictorKind::Ltage);
        let acc_local = accuracy(local.as_mut(), 0x800, &pattern, 200);
        let acc_ltage = accuracy(ltage.as_mut(), 0x800, &pattern, 200);
        assert!(
            acc_ltage > acc_local + 0.05,
            "ltage {acc_ltage} should beat local {acc_local}"
        );
        assert!(
            acc_ltage > 0.95,
            "ltage should nail a loop pattern: {acc_ltage}"
        );
    }

    #[test]
    fn tournament_beats_local_on_alternation() {
        let pattern = [true, false];
        let mut local = build(BranchPredictorKind::Local);
        let mut tour = build(BranchPredictorKind::Tournament);
        let acc_local = accuracy(local.as_mut(), 0xc00, &pattern, 400);
        let acc_tour = accuracy(tour.as_mut(), 0xc00, &pattern, 400);
        assert!(acc_tour > 0.9, "tournament {acc_tour}");
        assert!(acc_tour > acc_local, "{acc_tour} vs {acc_local}");
    }

    #[test]
    fn btb_miss_then_hit() {
        let mut btb = Btb::new(1024);
        assert_eq!(btb.lookup(0x1234), None);
        btb.install(0x1234, 0x5678);
        assert_eq!(btb.lookup(0x1234), Some(0x5678));
        assert_eq!(btb.misses, 1);
        assert_eq!(btb.accesses, 2);
    }

    #[test]
    fn btb_conflicts_evict() {
        let mut btb = Btb::new(16);
        btb.install(0x0, 0x100);
        // Same index (pc >> 2 & 15): pc = 16*4 = 0x40.
        btb.install(0x40, 0x200);
        assert_eq!(btb.lookup(0x0), None);
        assert_eq!(btb.lookup(0x40), Some(0x200));
    }
}
