//! gem5 `LTAGE` (simplified): a bimodal base predictor plus tagged tables
//! indexed by geometrically increasing global-history lengths, with
//! useful-bit replacement — the strongest predictor in the paper's sweep.

use super::{ctr_down, ctr_up, BranchPredictor};

const NUM_TABLES: usize = 6;
const HIST_LENGTHS: [usize; NUM_TABLES] = [4, 8, 16, 32, 64, 128];
const TABLE_BITS: usize = 12;
const TABLE_ENTRIES: usize = 1 << TABLE_BITS;
const TAG_BITS: u32 = 10;
const BASE_ENTRIES: usize = 4096;

/// Sentinel for an unoccupied entry; real tags are 10-bit (< 1024).
const INVALID_TAG: u16 = u16::MAX;

/// Fixed xorshift seed for the allocation tie-breaker (deterministic
/// across runs).
const RNG_SEED: u64 = 0x2545_F491_4F6C_DD1D;

#[derive(Debug, Clone, Copy)]
struct TageEntry {
    tag: u16,
    /// 3-bit signed counter stored biased (0..7; >=4 = taken).
    ctr: u8,
    /// Useful bit(s).
    useful: u8,
}

/// Simplified TAGE with 6 tagged tables over a 128-bit global history.
#[derive(Debug, Clone)]
pub struct LtageBp {
    base: Vec<u8>,
    tables: Vec<Vec<TageEntry>>,
    ghr: u128,
    /// Allocation tie-breaker (gem5 uses a similar LFSR).
    rng: u64,
}

impl LtageBp {
    /// Standard-size LTAGE.
    pub fn new() -> Self {
        LtageBp {
            base: vec![1; BASE_ENTRIES],
            tables: vec![
                vec![
                    TageEntry {
                        tag: INVALID_TAG,
                        ctr: 3,
                        useful: 0
                    };
                    TABLE_ENTRIES
                ];
                NUM_TABLES
            ],
            ghr: 0,
            rng: RNG_SEED,
        }
    }

    fn fold_history(&self, bits: usize, out_bits: usize) -> usize {
        let mut acc = 0usize;
        let mut h = self.ghr;
        let mut remaining = bits;
        while remaining > 0 {
            let take = remaining.min(out_bits);
            acc ^= (h as usize) & ((1 << take) - 1);
            h >>= take;
            remaining -= take;
        }
        acc & ((1 << out_bits) - 1)
    }

    fn index(&self, t: usize, pc: u32) -> usize {
        let h = self.fold_history(HIST_LENGTHS[t], TABLE_BITS);
        (((pc >> 2) as usize) ^ h ^ (t << 3)) & (TABLE_ENTRIES - 1)
    }

    fn tag(&self, t: usize, pc: u32) -> u16 {
        let h = self.fold_history(HIST_LENGTHS[t], TAG_BITS as usize);
        ((((pc >> 2) as usize) ^ (h << 1)) & ((1 << TAG_BITS) - 1)) as u16
    }

    /// Longest-history matching table, if any.
    fn provider(&self, pc: u32) -> Option<usize> {
        (0..NUM_TABLES)
            .rev()
            .find(|&t| self.tables[t][self.index(t, pc)].tag == self.tag(t, pc))
    }

    fn base_index(pc: u32) -> usize {
        ((pc >> 2) as usize) % BASE_ENTRIES
    }

    /// Alternate prediction: the next-longest matching table below
    /// `provider`, else the bimodal base.
    fn alt_predict(&self, provider: usize, pc: u32) -> bool {
        for t in (0..provider).rev() {
            let e = &self.tables[t][self.index(t, pc)];
            if e.tag == self.tag(t, pc) {
                return e.ctr >= 4;
            }
        }
        self.base[Self::base_index(pc)] >= 2
    }

    fn next_rand(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }
}

impl Default for LtageBp {
    fn default() -> Self {
        Self::new()
    }
}

impl BranchPredictor for LtageBp {
    fn predict(&mut self, pc: u32) -> bool {
        match self.provider(pc) {
            Some(t) => {
                let e = &self.tables[t][self.index(t, pc)];
                // TAGE altpred policy: a freshly allocated, weak entry is
                // less reliable than the alternate prediction.
                if e.useful == 0 && (e.ctr == 3 || e.ctr == 4) {
                    self.alt_predict(t, pc)
                } else {
                    e.ctr >= 4
                }
            }
            None => self.base[Self::base_index(pc)] >= 2,
        }
    }

    fn update(&mut self, pc: u32, taken: bool) {
        let provider = self.provider(pc);
        let pred = match provider {
            Some(t) => self.tables[t][self.index(t, pc)].ctr >= 4,
            None => self.base[Self::base_index(pc)] >= 2,
        };
        // Train the provider (or base).
        match provider {
            Some(t) => {
                let idx = self.index(t, pc);
                let e = &mut self.tables[t][idx];
                if taken {
                    ctr_up(&mut e.ctr, 7);
                } else {
                    ctr_down(&mut e.ctr);
                }
                if pred == taken {
                    ctr_up(&mut e.useful, 3);
                } else {
                    ctr_down(&mut e.useful);
                }
            }
            None => {
                let b = &mut self.base[Self::base_index(pc)];
                if taken {
                    ctr_up(b, 3);
                } else {
                    ctr_down(b);
                }
            }
        }
        // On a misprediction, allocate in a longer-history table.
        if pred != taken {
            let start = provider.map_or(0, |t| t + 1);
            if start < NUM_TABLES {
                // Pick the first not-useful entry among the longer tables;
                // decay a random candidate if all are useful.
                let mut allocated = false;
                for t in start..NUM_TABLES {
                    let idx = self.index(t, pc);
                    if self.tables[t][idx].useful == 0 {
                        let tag = self.tag(t, pc);
                        self.tables[t][idx] = TageEntry {
                            tag,
                            ctr: if taken { 4 } else { 3 },
                            useful: 0,
                        };
                        allocated = true;
                        break;
                    }
                }
                if !allocated {
                    let t = start + (self.next_rand() as usize) % (NUM_TABLES - start);
                    let idx = self.index(t, pc);
                    ctr_down(&mut self.tables[t][idx].useful);
                }
            }
        }
        self.ghr = (self.ghr << 1) | taken as u128;
    }

    fn name(&self) -> &'static str {
        "LTAGE"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(pattern: &[bool], reps: usize) -> f64 {
        let mut p = LtageBp::new();
        let mut correct = 0usize;
        let mut total = 0usize;
        for _ in 0..reps {
            for &b in pattern {
                if p.predict(0x1000) == b {
                    correct += 1;
                }
                p.update(0x1000, b);
                total += 1;
            }
        }
        correct as f64 / total as f64
    }

    #[test]
    fn nails_long_loop_patterns() {
        // 31-iteration loop: beyond local-history reach, within TAGE's.
        let pattern: Vec<bool> = (0..32).map(|i| i != 31).collect();
        let acc = run(&pattern, 80);
        assert!(acc > 0.97, "accuracy {acc}");
    }

    #[test]
    fn handles_biased_branches() {
        assert!(run(&[true], 500) > 0.99);
        assert!(run(&[false], 500) > 0.99);
    }

    #[test]
    fn short_period_patterns() {
        let acc = run(&[true, false, false, true, true, false], 300);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn allocation_recovers_from_aliasing() {
        // Two branches with conflicting behaviour at different pcs.
        let mut p = LtageBp::new();
        let mut correct = 0;
        let total = 2000;
        for i in 0..total {
            let pc = if i % 2 == 0 { 0x4000 } else { 0x8000 };
            let taken = (i % 2 == 0) ^ (i % 6 < 3);
            if p.predict(pc) == taken {
                correct += 1;
            }
            p.update(pc, taken);
        }
        assert!(correct as f64 / total as f64 > 0.8, "{correct}/{total}");
    }
}
