//! Simplified `MultiperspectivePerceptron`: a hashed perceptron summing
//! weights selected by several history "perspectives" (global-history
//! segments of different lengths plus the PC itself).

use super::BranchPredictor;

const NUM_FEATURES: usize = 4;
const TABLE_BITS: usize = 9;
const TABLE_ENTRIES: usize = 1 << TABLE_BITS;
/// Training threshold (scaled for 8 features, ~1.93 * h + 14 heuristic).
const THETA: i32 = 24;
const WEIGHT_MAX: i8 = 63;
const WEIGHT_MIN: i8 = -64;

/// Hashed multiperspective perceptron predictor.
#[derive(Debug, Clone)]
pub struct PerceptronBp {
    /// One weight table per feature.
    weights: Vec<Vec<i8>>,
    ghr: u64,
}

impl PerceptronBp {
    /// Compact hashed perceptron (4 feature tables x 512 weights).
    pub fn new() -> Self {
        PerceptronBp {
            weights: vec![vec![0; TABLE_ENTRIES]; NUM_FEATURES],
            ghr: 0,
        }
    }

    /// Feature hash for table `f` at `pc`: mixes a history segment whose
    /// length grows with `f` (0 = pure PC bias weight).
    fn index(&self, f: usize, pc: u32) -> usize {
        let seg_len = [0usize, 6, 14, 28][f];
        let seg = if seg_len == 0 {
            0
        } else {
            (self.ghr & ((1u64 << seg_len) - 1)) as usize
        };
        let h = seg.wrapping_mul(0x9E37_79B9) ^ ((pc >> 2) as usize).wrapping_mul(0x85EB_CA6B);
        (h ^ (f << 7)) & (TABLE_ENTRIES - 1)
    }

    fn sum(&self, pc: u32) -> i32 {
        (0..NUM_FEATURES)
            .map(|f| self.weights[f][self.index(f, pc)] as i32)
            .sum()
    }
}

impl Default for PerceptronBp {
    fn default() -> Self {
        Self::new()
    }
}

impl BranchPredictor for PerceptronBp {
    fn predict(&mut self, pc: u32) -> bool {
        self.sum(pc) >= 0
    }

    fn update(&mut self, pc: u32, taken: bool) {
        let s = self.sum(pc);
        let pred = s >= 0;
        // Perceptron rule: train on mispredict or low confidence.
        if pred != taken || s.abs() < THETA {
            for f in 0..NUM_FEATURES {
                let idx = self.index(f, pc);
                let w = &mut self.weights[f][idx];
                if taken {
                    *w = (*w).saturating_add(1).min(WEIGHT_MAX);
                } else {
                    *w = (*w).saturating_sub(1).max(WEIGHT_MIN);
                }
            }
        }
        self.ghr = (self.ghr << 1) | taken as u64;
    }

    fn name(&self) -> &'static str {
        "MultiperspectivePerceptron64KB"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(pattern: &[bool], reps: usize) -> f64 {
        let mut p = PerceptronBp::new();
        let mut correct = 0usize;
        let mut total = 0usize;
        for _ in 0..reps {
            for &b in pattern {
                if p.predict(0x2000) == b {
                    correct += 1;
                }
                p.update(0x2000, b);
                total += 1;
            }
        }
        correct as f64 / total as f64
    }

    #[test]
    fn learns_bias() {
        assert!(run(&[true], 300) > 0.98);
    }

    #[test]
    fn learns_linearly_separable_history_patterns() {
        // Strict alternation is linearly separable on 1 history bit.
        let acc = run(&[true, false], 500);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn loop_pattern_reasonable() {
        let pattern: Vec<bool> = (0..12).map(|i| i != 11).collect();
        let acc = run(&pattern, 200);
        assert!(acc > 0.85, "accuracy {acc}");
    }

    #[test]
    fn weights_saturate_without_overflow() {
        let mut p = PerceptronBp::new();
        for _ in 0..10_000 {
            p.update(0x30, true);
        }
        assert!(p.predict(0x30));
        for _ in 0..10_000 {
            p.update(0x30, false);
        }
        assert!(!p.predict(0x30));
    }
}
