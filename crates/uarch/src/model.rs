//! Pluggable core-model backends.
//!
//! The Belenos methodology cross-validates bottleneck diagnoses across
//! modeling tools of very different cost and fidelity (the paper uses
//! gem5 detailed simulation against VTune top-down on real hardware). The
//! [`CoreModel`] trait is the seam that makes the same comparison
//! possible inside this reproduction: every backend consumes the same
//! micro-op trace, shares the same cache/TLB/branch-predictor/DRAM
//! component models, and produces the same [`SimStats`] (including TMA
//! slot accounting), so the figure and sweep layers are
//! backend-agnostic.
//!
//! Three backends exist today:
//!
//! | kind       | backend                    | speed      | fidelity |
//! |------------|----------------------------|------------|----------|
//! | `o3`       | [`crate::o3::O3Core`]      | baseline   | cycle-level out-of-order (gem5 `X86O3CPU` style) |
//! | `inorder`  | [`crate::inorder::InOrderCore`] | ~10-20x | scalar in-order scoreboard, stalls at issue |
//! | `analytic` | [`crate::analytic::AnalyticCore`] | ≥50x  | port-pressure + MLP bound model, no per-cycle simulation |
//!
//! Selection is a plain [`CoreConfig`] field ([`ModelKind`]), set per
//! campaign by its options (`"model": "inorder"` in a spec, `--model
//! inorder` on the command line), and is part of
//! [`CoreConfig::stable_digest`] so results from different backends can
//! never alias in the runner's content-addressed cache.

use crate::branch::{BranchPredictor, Btb};
use crate::cache::Hierarchy;
use crate::config::CoreConfig;
use crate::stats::SimStats;
use crate::tlb::Tlb;
use belenos_trace::{FlatTrace, OpKind, Ops};

/// Which core-model backend simulates a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ModelKind {
    /// Cycle-level out-of-order core (the gem5 substitute; default).
    #[default]
    O3,
    /// Scalar in-order core: same memory/branch components, one op issued
    /// per cycle, program order enforced at issue.
    InOrder,
    /// Analytical bound model: one functional pass computing
    /// port-pressure, dependency-chain and memory-level-parallelism
    /// bounds — no per-cycle simulation.
    Analytic,
}

impl ModelKind {
    /// Every backend, in fidelity order (most detailed first).
    pub const ALL: [ModelKind; 3] = [ModelKind::O3, ModelKind::InOrder, ModelKind::Analytic];

    /// Stable lowercase name, as written in documents.
    pub fn label(self) -> &'static str {
        match self {
            ModelKind::O3 => "o3",
            ModelKind::InOrder => "inorder",
            ModelKind::Analytic => "analytic",
        }
    }

    /// Parses a backend name, as `--model` and documents spell it
    /// (case-insensitive; a few aliases).
    pub fn parse(s: &str) -> Option<ModelKind> {
        match s.trim().to_ascii_lowercase().as_str() {
            "" | "o3" | "ooo" | "detailed" => Some(ModelKind::O3),
            "inorder" | "in-order" | "io" => Some(ModelKind::InOrder),
            "analytic" | "analytical" | "bound" => Some(ModelKind::Analytic),
            _ => None,
        }
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A core-model backend: anything that can replay a micro-op trace into
/// [`SimStats`].
///
/// All backends share the contract the experiment layer relies on:
///
/// * **Determinism** — equal configuration and trace produce bit-equal
///   statistics, so results are cacheable and parallel runs are
///   reproducible.
/// * **Persistent machine state** — caches, TLBs, branch predictor and
///   BTB survive across calls on one instance; interval sampling
///   interleaves [`CoreModel::warm_only`] gaps with
///   [`CoreModel::run_warm`] measurement windows on a single model.
/// * **Complete accounting** — every committed op is counted exactly
///   once, and the TMA slot buckets partition `cycles × commit_width`
///   (retiring + front-end + bad-speculation + back-end), so top-down
///   bottleneck comparisons are meaningful across backends.
///
/// Traces arrive as an [`Ops`] cursor, memo-backed or streamed: one
/// concrete type, so each backend's loop is monomorphized over it while
/// the trait stays object-safe for the `Box<dyn CoreModel>` the
/// experiment layer picks at run time from [`ModelKind`].
///
/// `Send` so the experiment layer can pool built models and hand them
/// between worker threads.
pub trait CoreModel: Send {
    /// Which backend this is.
    fn kind(&self) -> ModelKind;

    /// The configuration the model was built from.
    fn config(&self) -> &CoreConfig;

    /// Returns the model to its just-built state — cold caches and TLBs,
    /// untrained predictor and BTB, zeroed counters — while keeping
    /// every internal allocation. A reset model must be observationally
    /// indistinguishable from a freshly constructed one: the experiment
    /// layer reuses pooled models across simulation calls on the
    /// strength of this contract, and the backend digest pins hold it to
    /// bit-identical statistics.
    fn reset(&mut self);

    /// Runs the cursor to its end, discarding the first `warmup_ops`
    /// committed ops from the reported statistics (machine state
    /// persists; this is measurement warmup). When the trace is shorter
    /// than the warmup, the reported measurement window is empty.
    fn run_warm(&mut self, trace: &mut Ops<'_>, warmup_ops: u64) -> SimStats;

    /// Functionally warms long-lived machine state (caches, TLBs,
    /// predictor, BTB) from up to `max_ops` trace ops without simulating
    /// cycles or producing statistics; returns the ops consumed. This is
    /// the SMARTS-style gap warming between sampled measurement windows.
    fn warm_only(&mut self, trace: &mut Ops<'_>, max_ops: u64) -> u64;

    /// [`CoreModel::run_warm`] over ops `start..end` of a pre-expanded
    /// [`FlatTrace`].
    fn run_warm_flat(
        &mut self,
        trace: &FlatTrace,
        start: usize,
        end: usize,
        warmup_ops: u64,
    ) -> SimStats {
        self.run_warm(&mut Ops::range(trace, start, end), warmup_ops)
    }
}

/// Builds the backend selected by `cfg.model`.
pub fn build_model(cfg: &CoreConfig) -> Box<dyn CoreModel> {
    match cfg.model {
        ModelKind::O3 => Box::new(crate::o3::O3Core::new(cfg.clone())),
        ModelKind::InOrder => Box::new(crate::inorder::InOrderCore::new(cfg.clone())),
        ModelKind::Analytic => Box::new(crate::analytic::AnalyticCore::new(cfg.clone())),
    }
}

/// Shared functional-warming pass: caches and TLBs observe every memory
/// and fetch access, the branch predictor and BTB observe every branch
/// outcome, but no cycles are simulated. Returns the ops consumed (fewer
/// than `max_ops` only when the trace ends).
pub(crate) fn functional_warm(
    hierarchy: &mut Hierarchy,
    itlb: &mut Tlb,
    dtlb: &mut Tlb,
    predictor: &mut dyn BranchPredictor,
    btb: &mut Btb,
    trace: &mut Ops<'_>,
    max_ops: u64,
) -> u64 {
    let mut consumed = 0u64;
    let mut now = 0u64;
    let mut cur_line = u64::MAX;
    while consumed < max_ops {
        let Some(op) = trace.next() else { break };
        consumed += 1;
        let line = (op.pc as u64) >> 6;
        if line != cur_line {
            itlb.access(op.pc as u64);
            hierarchy.inst_access(op.pc as u64, now);
            cur_line = line;
        }
        match op.kind {
            OpKind::Load => {
                dtlb.access(op.addr);
                hierarchy.data_access(op.addr, false, now);
            }
            OpKind::Store => {
                dtlb.access(op.addr);
                hierarchy.data_access(op.addr, true, now);
            }
            OpKind::Branch => {
                predictor.update(op.pc, op.taken);
                if op.taken {
                    btb.install(op.pc, op.target);
                    cur_line = u64::MAX;
                }
            }
            _ => {}
        }
        now += 1;
        // Warming never reads completion timestamps, but every miss
        // records one (`note_miss_outstanding`); drop them regularly
        // so a long warm gap cannot accumulate millions of them.
        if consumed.is_multiple_of(65_536) {
            hierarchy.reset_timing();
        }
    }
    hierarchy.reset_timing();
    consumed
}

/// Snapshot of the hierarchy's cumulative memory counters; reports
/// per-run deltas when one core runs several measurement intervals (the
/// counters on the cache structs are process-cumulative).
#[derive(Debug, Clone, Copy)]
pub(crate) struct MemCounters {
    l1i_accesses: u64,
    l1i_misses: u64,
    l1d_accesses: u64,
    l1d_misses: u64,
    l2_accesses: u64,
    l2_misses: u64,
    dram_lines: u64,
}

impl MemCounters {
    pub(crate) fn capture(h: &Hierarchy) -> Self {
        MemCounters {
            l1i_accesses: h.l1i.accesses,
            l1i_misses: h.l1i.misses,
            l1d_accesses: h.l1d.accesses,
            l1d_misses: h.l1d.misses,
            l2_accesses: h.l2.accesses,
            l2_misses: h.l2.misses,
            dram_lines: h.dram.lines_transferred,
        }
    }

    /// `current - baseline` counters as a flat array, in the order
    /// `[l1i_accesses, l1i_misses, l1d_accesses, l1d_misses,
    /// l2_accesses, l2_misses, dram_lines]` — used by the analytic
    /// backend's per-window accumulation.
    pub(crate) fn delta_counts(&self, h: &Hierarchy) -> [u64; 7] {
        [
            h.l1i.accesses - self.l1i_accesses,
            h.l1i.misses - self.l1i_misses,
            h.l1d.accesses - self.l1d_accesses,
            h.l1d.misses - self.l1d_misses,
            h.l2.accesses - self.l2_accesses,
            h.l2.misses - self.l2_misses,
            h.dram.lines_transferred - self.dram_lines,
        ]
    }

    /// Writes `current - baseline` memory counters into `stats`.
    pub(crate) fn delta_into(&self, stats: &mut SimStats, h: &Hierarchy) {
        stats.l1i_accesses = h.l1i.accesses - self.l1i_accesses;
        stats.l1i_misses = h.l1i.misses - self.l1i_misses;
        stats.l1d_accesses = h.l1d.accesses - self.l1d_accesses;
        stats.l1d_misses = h.l1d.misses - self.l1d_misses;
        stats.l2_accesses = h.l2.accesses - self.l2_accesses;
        stats.l2_misses = h.l2.misses - self.l2_misses;
        stats.dram_lines = h.dram.lines_transferred - self.dram_lines;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use belenos_trace::MicroOp;

    #[test]
    fn labels_roundtrip_through_parse() {
        for kind in ModelKind::ALL {
            assert_eq!(ModelKind::parse(kind.label()), Some(kind));
            assert_eq!(kind.to_string(), kind.label());
        }
        assert_eq!(ModelKind::parse("O3"), Some(ModelKind::O3));
        assert_eq!(ModelKind::parse("In-Order"), Some(ModelKind::InOrder));
        assert_eq!(ModelKind::parse("ANALYTIC"), Some(ModelKind::Analytic));
        assert_eq!(ModelKind::parse("gem5"), None);
        assert_eq!(ModelKind::default(), ModelKind::O3);
    }

    #[test]
    fn build_model_selects_the_configured_backend() {
        for kind in ModelKind::ALL {
            let cfg = CoreConfig::gem5_baseline().with_model(kind);
            let model = build_model(&cfg);
            assert_eq!(model.kind(), kind);
            assert_eq!(model.config().model, kind);
        }
    }

    #[test]
    fn every_backend_commits_every_op() {
        use belenos_trace::FnCategory;
        let ops: FlatTrace = (0..2000)
            .map(|i| MicroOp::int(0x1000 + (i as u32 % 16) * 4, 0, 0, FnCategory::Internal))
            .collect();
        for kind in ModelKind::ALL {
            let cfg = CoreConfig::gem5_baseline().with_model(kind);
            let mut model = build_model(&cfg);
            let stats = model.run_warm(&mut Ops::range(&ops, 0, ops.len()), 0);
            assert_eq!(stats.committed_ops, 2000, "{kind} must commit all ops");
            assert!(stats.cycles > 0, "{kind} must consume cycles");
            assert!(stats.ipc() > 0.0, "{kind} must report progress");
            let (r, fe, bs, be) = stats.topdown();
            assert!(
                (r + fe + bs + be - 1.0).abs() < 1e-9,
                "{kind} TMA fractions must partition"
            );
        }
    }

    #[test]
    fn every_backend_supports_interval_sampling_surface() {
        use belenos_trace::FnCategory;
        let ops: FlatTrace = (0..4096)
            .map(|i| MicroOp::load(0x3000, (i % 64) as u64 * 64, 8, 0, FnCategory::Internal))
            .collect();
        for kind in ModelKind::ALL {
            let cfg = CoreConfig::gem5_baseline().with_model(kind);
            let mut model = build_model(&cfg);
            let mut it = Ops::range(&ops, 0, ops.len());
            let consumed = model.warm_only(&mut it, 1024);
            assert_eq!(consumed, 1024, "{kind} warming consumes the gap");
            let stats = model.run_warm(&mut it, 0);
            assert_eq!(stats.committed_ops, 4096 - 1024, "{kind} measures rest");
        }
    }
}
