//! gem5 `LocalBP`: a table of per-PC 2-bit saturating counters.

use super::{ctr_down, ctr_up, BranchPredictor};

/// Simple bimodal predictor indexed by PC.
#[derive(Debug, Clone)]
pub struct LocalBp {
    counters: Vec<u8>,
    mask: usize,
}

impl LocalBp {
    /// A predictor with `entries` counters (power of two recommended).
    ///
    /// # Panics
    ///
    /// Panics if `entries == 0`.
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0);
        let n = entries.next_power_of_two();
        LocalBp {
            counters: vec![1; n],
            mask: n - 1,
        }
    }

    fn index(&self, pc: u32) -> usize {
        ((pc >> 2) as usize) & self.mask
    }
}

impl BranchPredictor for LocalBp {
    fn predict(&mut self, pc: u32) -> bool {
        self.counters[self.index(pc)] >= 2
    }

    fn update(&mut self, pc: u32, taken: bool) {
        let i = self.index(pc);
        if taken {
            ctr_up(&mut self.counters[i], 3);
        } else {
            ctr_down(&mut self.counters[i]);
        }
    }

    fn name(&self) -> &'static str {
        "LocalBP"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturates_taken() {
        let mut p = LocalBp::new(64);
        for _ in 0..4 {
            p.update(0x10, true);
        }
        assert!(p.predict(0x10));
        // One not-taken must not flip a saturated counter.
        p.update(0x10, false);
        assert!(p.predict(0x10));
        p.update(0x10, false);
        assert!(!p.predict(0x10));
    }

    #[test]
    fn distinct_pcs_do_not_interfere_without_aliasing() {
        let mut p = LocalBp::new(1024);
        for _ in 0..4 {
            p.update(0x100, true);
            p.update(0x200, false);
        }
        assert!(p.predict(0x100));
        assert!(!p.predict(0x200));
    }

    #[test]
    fn alternating_pattern_confuses_two_bit_counter() {
        let mut p = LocalBp::new(64);
        let mut correct = 0;
        for i in 0..200 {
            let taken = i % 2 == 0;
            if p.predict(0x40) == taken {
                correct += 1;
            }
            p.update(0x40, taken);
        }
        // 2-bit counters hover around chance on strict alternation.
        assert!(correct <= 120, "local bp should struggle: {correct}/200");
    }
}
