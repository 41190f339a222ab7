//! Pluggable core-model backends.
//!
//! The Belenos methodology cross-validates bottleneck diagnoses across
//! modeling tools of very different cost and fidelity (the paper uses
//! gem5 detailed simulation against VTune top-down on real hardware). The
//! [`CoreModel`] trait is the seam that makes the same comparison
//! possible inside this reproduction: every backend consumes the same
//! micro-op trace, simulates on one [`Machine`] — the cache hierarchy
//! with its DRAM channel, the two TLBs, the branch predictor and the BTB,
//! built and functionally warmed in one place — and produces the
//! same [`SimStats`] (including TMA slot accounting), so the figure and
//! sweep layers are backend-agnostic.
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

use crate::branch::{build, BranchPredictor, Btb};
use crate::cache::Hierarchy;
use crate::config::CoreConfig;
use crate::stats::SimStats;
use crate::tlb::Tlb;
use belenos_trace::{FlatTrace, MicroOp, OpKind, Ops};

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
/// * **Persistent machine state** — the model's [`Machine`] (caches,
///   TLBs, branch predictor and BTB) survives across calls on one
///   instance; interval sampling interleaves [`CoreModel::warm_only`]
///   gaps with [`CoreModel::run_warm`] measurement windows on a single
///   model.
/// * **Complete accounting** — every committed op is counted exactly
///   once, and the TMA slot buckets partition `cycles × commit_width`
///   (retiring + front-end + bad-speculation + back-end), so top-down
///   bottleneck comparisons are meaningful across backends.
///
/// Traces arrive as an [`Ops`] cursor, streamed from a log a bounded
/// chunk at a time or over a range of pre-expanded ops: one concrete
/// type, and a `&[MicroOp]` underneath either way, so each backend's loop
/// is monomorphized over it while the trait stays object-safe for the
/// `Box<dyn CoreModel>` the experiment layer picks at run time from
/// [`ModelKind`]. That layer
/// builds one per simulation and drops it when the run ends: a model is
/// cold only when new.
pub trait CoreModel {
    /// Which backend this is.
    fn kind(&self) -> ModelKind;

    /// The machine the model simulates on.
    fn machine(&self) -> &Machine;

    /// The machine the model simulates on, for warming.
    fn machine_mut(&mut self) -> &mut Machine;

    /// The configuration the model was built from.
    fn config(&self) -> &CoreConfig {
        &self.machine().cfg
    }

    /// Runs the cursor to its end, discarding the first `warmup_ops`
    /// committed ops from the reported statistics (machine state
    /// persists; this is measurement warmup). When the trace is shorter
    /// than the warmup, the reported measurement window is empty.
    fn run_warm(&mut self, trace: &mut Ops<'_>, warmup_ops: u64) -> SimStats;

    /// Emits the backend's own telemetry counters for its runs since the
    /// last call, once, and starts over; the experiment layer calls it
    /// when a simulation ends. Only o3 keeps counters.
    fn emit_counters(&mut self) {}

    /// Functionally warms long-lived machine state (caches, TLBs,
    /// predictor, BTB) from up to `max_ops` trace ops without simulating
    /// cycles or producing statistics; returns the ops consumed. This is
    /// the SMARTS-style gap warming between sampled measurement windows:
    /// `Machine::warm` over every op, unless a backend samples it.
    fn warm_only(&mut self, trace: &mut Ops<'_>, max_ops: u64) -> u64 {
        self.machine_mut().warm(trace, max_ops)
    }

    /// [`CoreModel::run_warm`] over ops `start..end` of a pre-expanded
    /// [`FlatTrace`], which it first copies out into `MicroOp`s: no
    /// simulation replays this layout directly.
    fn run_warm_flat(
        &mut self,
        trace: &FlatTrace,
        start: usize,
        end: usize,
        warmup_ops: u64,
    ) -> SimStats {
        let ops: Vec<MicroOp> = trace.range(start, end).collect();
        self.run_warm(&mut Ops::range(&ops, 0, ops.len()), warmup_ops)
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

/// The machine a backend simulates on: its configuration and the
/// long-lived components every core model shares — the cache hierarchy
/// with its DRAM channel, the two TLBs, the branch predictor and the BTB.
/// They are built cold and functionally warmed here and nowhere else, so
/// adding a component is one edit and no backend can forget to warm it.
///
/// Its caches cost 10.125 bytes a simulated line (the tag, its slot in
/// the set's recency order and a dirty bit; see [`crate::cache`]): about
/// 172 KiB for the gem5 baseline's hierarchy and 337 KiB for
/// `host_like`'s.
pub struct Machine {
    pub(crate) cfg: CoreConfig,
    pub(crate) hierarchy: Hierarchy,
    pub(crate) itlb: Tlb,
    pub(crate) dtlb: Tlb,
    pub(crate) predictor: Box<dyn BranchPredictor>,
    pub(crate) btb: Btb,
    /// log2 of the L1I line: `pc >> line_shift` is the line a fetch
    /// probes.
    line_shift: u32,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

impl Machine {
    /// Builds every component, cold, from one configuration.
    pub(crate) fn new(cfg: CoreConfig) -> Self {
        let [itlb, dtlb] = std::array::from_fn(|_| Tlb::new(cfg.tlb_entries));
        Machine {
            hierarchy: Hierarchy::new(&cfg),
            itlb,
            dtlb,
            predictor: build(cfg.predictor),
            btb: Btb::new(cfg.btb_entries),
            line_shift: cfg.l1i.line_bytes.trailing_zeros(),
            cfg,
        }
    }

    /// Functional warming: caches and TLBs observe every memory and
    /// fetch access, the branch predictor and BTB every branch outcome,
    /// but no cycles are simulated. Returns the ops consumed (fewer than
    /// `max_ops` only when the trace ends).
    pub(crate) fn warm<I: Iterator<Item = MicroOp>>(&mut self, trace: &mut I, max_ops: u64) -> u64 {
        let mut consumed = 0u64;
        let mut now = 0u64;
        let mut cur_line = u64::MAX;
        while consumed < max_ops {
            let Some(op) = trace.next() else { break };
            consumed += 1;
            let line = self.fetch_line(op.pc);
            if line != cur_line {
                self.itlb.access(op.pc as u64);
                self.hierarchy.inst_access(op.pc as u64, now);
                cur_line = line;
            }
            match op.kind {
                OpKind::Load | OpKind::Store => {
                    self.dtlb.access(op.addr);
                    self.hierarchy
                        .data_access(op.addr, op.kind == OpKind::Store, now);
                }
                OpKind::Branch => {
                    self.predictor.update(op.pc, op.taken);
                    if op.taken {
                        self.btb.install(op.pc, op.target);
                        cur_line = u64::MAX;
                    }
                }
                _ => {}
            }
            now += 1;
            // Warming never reads completion timestamps; resetting the
            // timing state regularly keeps the DRAM channel's occupancy
            // from running ahead of the warm clock.
            if consumed.is_multiple_of(65_536) {
                self.hierarchy.reset_timing();
            }
        }
        self.hierarchy.reset_timing();
        consumed
    }

    /// The fetch line of `pc`: what the instruction side probes once per
    /// line crossing.
    #[inline]
    pub(crate) fn fetch_line(&self, pc: u32) -> u64 {
        (pc as u64) >> self.line_shift
    }

    /// The hierarchy's cumulative memory counters (the cache structs
    /// count for the machine's lifetime), in [`mem_fields`] order.
    pub(crate) fn mem_counts(&self) -> [u64; 7] {
        let h = &self.hierarchy;
        [
            h.l1i.accesses,
            h.l1i.misses,
            h.l1d.accesses,
            h.l1d.misses,
            h.l2.accesses,
            h.l2.misses,
            h.dram.lines_transferred,
        ]
    }
}

/// The memory counters of `stats`, in [`Machine::mem_counts`] order.
pub(crate) fn mem_fields(stats: &mut SimStats) -> [&mut u64; 7] {
    [
        &mut stats.l1i_accesses,
        &mut stats.l1i_misses,
        &mut stats.l1d_accesses,
        &mut stats.l1d_misses,
        &mut stats.l2_accesses,
        &mut stats.l2_misses,
        &mut stats.dram_lines,
    ]
}

/// The measurement window of one detailed run (`o3`, `inorder`): the
/// run's memory counters are deltas from its start, and the first
/// `warmup_ops` committed ops are discarded as measurement warm-up
/// (machine state persists; gem5 resets its stats the same way after a
/// checkpoint restore).
pub(crate) struct Window {
    /// The machine's memory counters when the run started.
    base: [u64; 7],
    /// Committed ops at which the warm-up snapshot is due; `u64::MAX`
    /// without a warm-up or once the snapshot is taken.
    due: u64,
    /// The run's statistics when the warm-up ended.
    snapshot: Option<SimStats>,
}

impl Window {
    /// Opens the window of a run whose clock starts at cycle 0, with the
    /// run's empty statistics. A warm machine (interval sampling reuses
    /// one across runs) may carry completion timestamps from an earlier
    /// run; they are dropped.
    pub(crate) fn open(m: &mut Machine, warmup_ops: u64) -> (Window, SimStats) {
        m.hierarchy.reset_timing();
        let window = Window {
            base: m.mem_counts(),
            due: if warmup_ops > 0 { warmup_ops } else { u64::MAX },
            snapshot: None,
        };
        (
            window,
            SimStats {
                freq_ghz: m.cfg.freq_ghz,
                ..SimStats::default()
            },
        )
    }

    /// Takes the warm-up snapshot the first time `stats` has committed
    /// the warm-up, `cycles` into the run.
    #[inline]
    pub(crate) fn observe(&mut self, stats: &SimStats, cycles: u64, m: &Machine) {
        if stats.committed_ops >= self.due {
            self.due = u64::MAX;
            self.snapshot = Some(self.measure(stats.clone(), cycles, m));
        }
    }

    /// Closes the run `cycles` in: fills in the memory deltas and
    /// subtracts the warm-up. A trace that commits fewer ops than its
    /// warm-up was all warm-up, and reports an empty window — never the
    /// unwarmed full statistics.
    pub(crate) fn close(mut self, stats: SimStats, cycles: u64, m: &Machine) -> SimStats {
        let mut stats = self.measure(stats, cycles, m);
        if self.due != u64::MAX {
            // The warm-up never ended: the whole run was warm-up.
            self.snapshot = Some(stats.clone());
        }
        if let Some(snap) = self.snapshot {
            stats.subtract(&snap);
        }
        stats
    }

    fn measure(&self, mut stats: SimStats, cycles: u64, m: &Machine) -> SimStats {
        stats.cycles = cycles;
        for ((field, now), base) in mem_fields(&mut stats)
            .into_iter()
            .zip(m.mem_counts())
            .zip(self.base)
        {
            *field = now - base;
        }
        stats
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
        let ops: Vec<MicroOp> = (0..2000)
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
        let ops: Vec<MicroOp> = (0..4096)
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
