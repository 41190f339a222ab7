//! Machine configurations.
//!
//! [`CoreConfig::gem5_baseline`] reproduces the paper's Table II verbatim;
//! [`CoreConfig::host_like`] approximates the i9-14900K workstation used
//! for the VTune experiments. Every sweep in the paper (frequency, cache
//! sizes, pipeline width, LQ/SQ depth, branch predictor) is a plain field
//! edit on this struct.

/// Branch-predictor selection (the paper's Fig. 12 sweep axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BranchPredictorKind {
    /// gem5 `LocalBP`: per-PC 2-bit counters.
    Local,
    /// gem5 `TournamentBP`: local + global + choice (Table II baseline).
    Tournament,
    /// gem5 `LTAGE`: bimodal base + tagged geometric-history tables.
    Ltage,
    /// gem5 `MultiperspectivePerceptron64KB` (simplified hashed perceptron).
    Perceptron,
}

impl BranchPredictorKind {
    /// Display name matching the paper's figure labels.
    pub fn label(self) -> &'static str {
        match self {
            BranchPredictorKind::Local => "LocalBP",
            BranchPredictorKind::Tournament => "TournamentBP",
            BranchPredictorKind::Ltage => "LTAGE",
            BranchPredictorKind::Perceptron => "MultiperspectivePerceptron64KB",
        }
    }

    /// Every predictor, in the paper's Fig. 12 order.
    pub const ALL: [BranchPredictorKind; 4] = [
        BranchPredictorKind::Tournament,
        BranchPredictorKind::Local,
        BranchPredictorKind::Ltage,
        BranchPredictorKind::Perceptron,
    ];

    /// Parses a predictor label (case-insensitive; accepts the paper's
    /// figure labels plus short aliases).
    pub fn parse(s: &str) -> Option<BranchPredictorKind> {
        match s.trim().to_ascii_lowercase().as_str() {
            "localbp" | "local" => Some(BranchPredictorKind::Local),
            "tournamentbp" | "tournament" => Some(BranchPredictorKind::Tournament),
            "ltage" => Some(BranchPredictorKind::Ltage),
            "multiperspectiveperceptron64kb" | "perceptron" | "mpp64kb" => {
                Some(BranchPredictorKind::Perceptron)
            }
            _ => None,
        }
    }
}

/// Trace-sampling strategy for op-budgeted simulations.
///
/// With sampling **off**, a budgeted run simulates only the *first*
/// `max_ops` micro-ops of the trace (prefix truncation) — cheap but
/// biased toward assembly and early solver iterations. With SMARTS-style
/// systematic sampling ([`SamplingConfig::smarts`]), the op budget is
/// split into `intervals` detailed measurement windows spread evenly
/// across the whole trace; between windows the microarchitectural state
/// (caches, TLBs, BTB, branch predictor) is *functionally warmed* at
/// zero pipeline cost, and the merged window statistics are extrapolated
/// to whole-trace estimates.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplingConfig {
    /// Number of measured intervals; `0` disables sampling entirely
    /// (prefix truncation, the historical behavior).
    pub intervals: usize,
    /// Fraction of each measured interval discarded as detailed warmup
    /// (measurement starts with warm pipeline-adjacent state, as gem5
    /// does after a checkpoint restore).
    pub warmup_frac: f64,
}

impl SamplingConfig {
    /// Sampling disabled: budgeted runs truncate the trace prefix.
    pub fn off() -> Self {
        SamplingConfig {
            intervals: 0,
            warmup_frac: 0.0,
        }
    }

    /// SMARTS-style systematic sampling with `intervals` measurement
    /// windows and a 25% per-window detailed-warmup discard (mirroring
    /// the prefix mode's quarter-budget warmup). `smarts(0)` is
    /// equivalent to [`SamplingConfig::off`].
    ///
    /// Prefer *many small* windows: few large intervals alias with the
    /// periodic phase structure of solver traces (assemble → factor →
    /// solve per Newton iteration) and can be badly biased; around a
    /// hundred or more intervals the estimate converges tightly.
    pub fn smarts(intervals: usize) -> Self {
        SamplingConfig {
            intervals,
            warmup_frac: if intervals == 0 { 0.0 } else { 0.25 },
        }
    }

    /// True when sampling is disabled (prefix-truncation mode).
    pub fn is_off(&self) -> bool {
        self.intervals == 0
    }

    /// Stable content digest, mixed into simulation-result cache keys so
    /// a sampled run can never alias a prefix-truncated (or differently
    /// sampled) run of the same workload/config/budget.
    pub fn stable_digest(&self) -> u64 {
        let mut h = crate::Fnv64::new();
        h.write_str("SamplingConfig-v1");
        h.write_usize(self.intervals);
        h.write_f64(self.warmup_frac);
        h.finish()
    }
}

impl Default for SamplingConfig {
    fn default() -> Self {
        Self::off()
    }
}

/// One cache level's parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways).
    pub assoc: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Hit latency in cycles.
    pub hit_latency: u64,
    /// Miss-status holding registers (outstanding-miss limit).
    pub mshrs: usize,
}

impl CacheConfig {
    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (size not divisible by
    /// `assoc * line`).
    pub fn sets(&self) -> usize {
        let sets = self.size_bytes / (self.assoc * self.line_bytes);
        assert!(
            sets > 0 && sets * self.assoc * self.line_bytes == self.size_bytes,
            "inconsistent cache geometry: {} B / ({} ways x {} B)",
            self.size_bytes,
            self.assoc,
            self.line_bytes
        );
        sets
    }
}

/// Full machine configuration for one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreConfig {
    /// Which core-model backend replays the trace (`BELENOS_MODEL`);
    /// part of [`CoreConfig::stable_digest`] so backends never alias in
    /// result caches.
    pub model: crate::model::ModelKind,
    /// Core clock in GHz (scales DRAM latency in cycles).
    pub freq_ghz: f64,
    /// Fetch width (ops/cycle).
    pub fetch_width: usize,
    /// Decode width.
    pub decode_width: usize,
    /// Rename width.
    pub rename_width: usize,
    /// Dispatch width.
    pub dispatch_width: usize,
    /// Issue width.
    pub issue_width: usize,
    /// Writeback width.
    pub writeback_width: usize,
    /// Squash width (ops removed per cycle on a flush; affects recovery).
    pub squash_width: usize,
    /// Commit width.
    pub commit_width: usize,
    /// Reorder-buffer entries.
    pub rob_entries: usize,
    /// Issue-queue entries.
    pub iq_entries: usize,
    /// Load-queue entries.
    pub lq_entries: usize,
    /// Store-queue entries.
    pub sq_entries: usize,
    /// Integer physical registers.
    pub int_regs: usize,
    /// Floating-point physical registers.
    pub fp_regs: usize,
    /// Front-end depth in cycles (fetch-to-dispatch; squash refill cost).
    pub frontend_depth: u64,
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// DRAM random-access latency in nanoseconds.
    pub dram_latency_ns: f64,
    /// DRAM peak bandwidth in GB/s.
    pub dram_bandwidth_gbps: f64,
    /// TLB entries (both i and d side).
    pub tlb_entries: usize,
    /// TLB miss (page-walk) penalty in cycles.
    pub tlb_miss_penalty: u64,
    /// Branch predictor.
    pub predictor: BranchPredictorKind,
    /// BTB entries.
    pub btb_entries: usize,
    /// Taken-branch redirect bubble when the BTB misses.
    pub btb_miss_penalty: u64,
    /// Effective PAUSE latency in cycles (spin-wait serialization cost).
    pub pause_latency: u64,
    /// Per-class functional-unit counts: (int ALU, int mul, FP add, FP
    /// mul/div units, memory ports).
    pub fu_counts: [usize; 5],
}

impl CoreConfig {
    /// The paper's Table II gem5 baseline (X86O3CPU, DDR4-2400).
    pub fn gem5_baseline() -> Self {
        CoreConfig {
            model: crate::model::ModelKind::O3,
            freq_ghz: 3.0,
            fetch_width: 4,
            decode_width: 6,
            rename_width: 6,
            dispatch_width: 6,
            issue_width: 6,
            writeback_width: 8,
            squash_width: 6,
            commit_width: 4,
            rob_entries: 224,
            iq_entries: 128,
            lq_entries: 72,
            sq_entries: 56,
            int_regs: 280,
            fp_regs: 168,
            frontend_depth: 6,
            l1i: CacheConfig {
                size_bytes: 32 * 1024,
                assoc: 8,
                line_bytes: 64,
                hit_latency: 1,
                mshrs: 32,
            },
            l1d: CacheConfig {
                size_bytes: 32 * 1024,
                assoc: 8,
                line_bytes: 64,
                hit_latency: 4,
                mshrs: 32,
            },
            l2: CacheConfig {
                size_bytes: 1024 * 1024,
                assoc: 16,
                line_bytes: 64,
                hit_latency: 14,
                mshrs: 48,
            },
            dram_latency_ns: 60.0,
            dram_bandwidth_gbps: 38.4, // dual-channel DDR4-2400
            tlb_entries: 64,
            tlb_miss_penalty: 40,
            predictor: BranchPredictorKind::Tournament,
            btb_entries: 4096,
            btb_miss_penalty: 2,
            pause_latency: 24,
            fu_counts: [4, 1, 2, 2, 2],
        }
    }

    /// Approximation of the paper's VTune workstation (i9-14900K P-core,
    /// DDR5-6000, ~60 GB/s platform ceiling as measured in the paper).
    pub fn host_like() -> Self {
        CoreConfig {
            model: crate::model::ModelKind::O3,
            freq_ghz: 3.2, // fixed frequency as pinned in the paper
            fetch_width: 8,
            decode_width: 8,
            rename_width: 8,
            dispatch_width: 8,
            issue_width: 8,
            writeback_width: 8,
            squash_width: 8,
            commit_width: 8,
            rob_entries: 512,
            iq_entries: 192,
            lq_entries: 128,
            sq_entries: 96,
            int_regs: 384,
            fp_regs: 320,
            frontend_depth: 8,
            l1i: CacheConfig {
                size_bytes: 32 * 1024,
                assoc: 8,
                line_bytes: 64,
                hit_latency: 1,
                mshrs: 32,
            },
            l1d: CacheConfig {
                size_bytes: 48 * 1024,
                assoc: 12,
                line_bytes: 64,
                hit_latency: 5,
                mshrs: 48,
            },
            l2: CacheConfig {
                size_bytes: 2 * 1024 * 1024,
                assoc: 16,
                line_bytes: 64,
                hit_latency: 16,
                mshrs: 64,
            },
            dram_latency_ns: 50.0,
            dram_bandwidth_gbps: 60.0,
            tlb_entries: 128,
            tlb_miss_penalty: 40,
            predictor: BranchPredictorKind::Ltage,
            btb_entries: 8192,
            btb_miss_penalty: 2,
            pause_latency: 48, // PAUSE grew expensive on recent Intel cores
            fu_counts: [6, 2, 4, 3, 3],
        }
    }

    /// Uniformly sets fetch/decode/rename/dispatch/issue widths (the
    /// paper's Fig. 10 "pipeline width" sweep keeps commit at min(width,
    /// commit) as gem5 does; we scale commit alongside, capped at 8).
    pub fn with_pipeline_width(mut self, width: usize) -> Self {
        assert!(width > 0, "width must be positive");
        self.fetch_width = width.clamp(2, 8);
        self.decode_width = width;
        self.rename_width = width;
        self.dispatch_width = width;
        self.issue_width = width;
        self.commit_width = width.clamp(2, 6);
        self
    }

    /// Sets LQ/SQ depths (Fig. 11 sweep).
    pub fn with_lsq(mut self, lq: usize, sq: usize) -> Self {
        assert!(lq > 0 && sq > 0, "queue depths must be positive");
        self.lq_entries = lq;
        self.sq_entries = sq;
        self
    }

    /// Sets the core frequency (Fig. 8 sweep).
    pub fn with_frequency(mut self, ghz: f64) -> Self {
        assert!(ghz > 0.0, "frequency must be positive");
        self.freq_ghz = ghz;
        self
    }

    /// Sets the L1 cache sizes, keeping 8-way associativity (Fig. 9a-c).
    pub fn with_l1_size(mut self, bytes: usize) -> Self {
        self.l1i.size_bytes = bytes;
        self.l1d.size_bytes = bytes;
        self
    }

    /// Sets the L2 capacity (Fig. 9d-e).
    pub fn with_l2_size(mut self, bytes: usize) -> Self {
        self.l2.size_bytes = bytes;
        self
    }

    /// Sets ROB and IQ capacities (the paper's instruction-windowing
    /// ablation: "less than 4 % improvement" from growing them).
    pub fn with_rob_iq(mut self, rob: usize, iq: usize) -> Self {
        assert!(rob > 0 && iq > 0, "window sizes must be positive");
        self.rob_entries = rob;
        self.iq_entries = iq;
        self
    }

    /// Sets the branch predictor (Fig. 12).
    pub fn with_predictor(mut self, p: BranchPredictorKind) -> Self {
        self.predictor = p;
        self
    }

    /// Selects the core-model backend that replays the trace (see
    /// [`crate::model::CoreModel`] for the trade-offs).
    pub fn with_model(mut self, model: crate::model::ModelKind) -> Self {
        self.model = model;
        self
    }

    /// Converts a nanosecond latency to core cycles at this frequency.
    pub fn ns_to_cycles(&self, ns: f64) -> u64 {
        (ns * self.freq_ghz).round().max(1.0) as u64
    }

    /// Stable content digest of the full configuration.
    ///
    /// Two configurations digest equal iff every simulation-relevant field
    /// is equal, and the value is identical across processes and builds —
    /// `belenos-runner` keys its content-addressed result cache on it.
    /// The leading version tag must be bumped whenever a field is added so
    /// stale on-disk entries can never alias a new configuration.
    pub fn stable_digest(&self) -> u64 {
        let mut h = crate::Fnv64::new();
        h.write_str("CoreConfig-v2");
        h.write_str(self.model.label());
        h.write_f64(self.freq_ghz);
        for w in [
            self.fetch_width,
            self.decode_width,
            self.rename_width,
            self.dispatch_width,
            self.issue_width,
            self.writeback_width,
            self.squash_width,
            self.commit_width,
            self.rob_entries,
            self.iq_entries,
            self.lq_entries,
            self.sq_entries,
            self.int_regs,
            self.fp_regs,
        ] {
            h.write_usize(w);
        }
        h.write_u64(self.frontend_depth);
        for c in [&self.l1i, &self.l1d, &self.l2] {
            h.write_usize(c.size_bytes);
            h.write_usize(c.assoc);
            h.write_usize(c.line_bytes);
            h.write_u64(c.hit_latency);
            h.write_usize(c.mshrs);
        }
        h.write_f64(self.dram_latency_ns);
        h.write_f64(self.dram_bandwidth_gbps);
        h.write_usize(self.tlb_entries);
        h.write_u64(self.tlb_miss_penalty);
        h.write_str(self.predictor.label());
        h.write_usize(self.btb_entries);
        h.write_u64(self.btb_miss_penalty);
        h.write_u64(self.pause_latency);
        for n in self.fu_counts {
            h.write_usize(n);
        }
        h.finish()
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self::gem5_baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_values() {
        let c = CoreConfig::gem5_baseline();
        assert_eq!(c.fetch_width, 4);
        assert_eq!(c.dispatch_width, 6);
        assert_eq!(c.issue_width, 6);
        assert_eq!(c.commit_width, 4);
        assert_eq!(c.rename_width, 6);
        assert_eq!(c.writeback_width, 8);
        assert_eq!(c.squash_width, 6);
        assert_eq!(c.rob_entries, 224);
        assert_eq!(c.iq_entries, 128);
        assert_eq!(c.lq_entries, 72);
        assert_eq!(c.sq_entries, 56);
        assert_eq!(c.int_regs, 280);
        assert_eq!(c.fp_regs, 168);
        assert_eq!(c.l1i.size_bytes, 32 * 1024);
        assert_eq!(c.l1d.assoc, 8);
        assert_eq!(c.l2.size_bytes, 1024 * 1024);
        assert_eq!(c.l2.assoc, 16);
        assert_eq!(c.l1d.line_bytes, 64);
        assert_eq!(c.predictor, BranchPredictorKind::Tournament);
        assert_eq!(c.freq_ghz, 3.0);
    }

    #[test]
    fn sampling_config_digests_separate() {
        let off = SamplingConfig::off();
        let s4 = SamplingConfig::smarts(4);
        let s8 = SamplingConfig::smarts(8);
        assert!(off.is_off());
        assert!(!s4.is_off());
        assert_ne!(off.stable_digest(), s4.stable_digest());
        assert_ne!(s4.stable_digest(), s8.stable_digest());
        assert_eq!(
            s4.stable_digest(),
            SamplingConfig::smarts(4).stable_digest()
        );
        assert!(SamplingConfig::smarts(0).is_off());
    }

    #[test]
    fn cache_geometry() {
        let c = CoreConfig::gem5_baseline().l1d;
        assert_eq!(c.sets(), 64); // 32 kB / (8 x 64 B)
    }

    #[test]
    fn sweep_builders() {
        let c = CoreConfig::gem5_baseline().with_pipeline_width(2);
        assert_eq!(c.issue_width, 2);
        assert_eq!(c.dispatch_width, 2);
        let c = CoreConfig::gem5_baseline().with_lsq(32, 24);
        assert_eq!(c.lq_entries, 32);
        let c = CoreConfig::gem5_baseline().with_frequency(4.0);
        assert_eq!(c.freq_ghz, 4.0);
        let c = CoreConfig::gem5_baseline().with_l1_size(8 * 1024);
        assert_eq!(c.l1d.sets(), 16);
        let c = CoreConfig::gem5_baseline().with_predictor(BranchPredictorKind::Ltage);
        assert_eq!(c.predictor.label(), "LTAGE");
    }

    #[test]
    fn ns_conversion_scales_with_frequency() {
        let slow = CoreConfig::gem5_baseline().with_frequency(1.0);
        let fast = CoreConfig::gem5_baseline().with_frequency(4.0);
        assert_eq!(slow.ns_to_cycles(60.0), 60);
        assert_eq!(fast.ns_to_cycles(60.0), 240);
    }

    #[test]
    fn stable_digest_separates_configs() {
        let base = CoreConfig::gem5_baseline();
        assert_eq!(
            base.stable_digest(),
            CoreConfig::gem5_baseline().stable_digest()
        );
        // Every sweep axis must move the digest.
        let variants = [
            base.clone().with_frequency(1.0),
            base.clone().with_pipeline_width(2),
            base.clone().with_lsq(32, 24),
            base.clone().with_l1_size(8 * 1024),
            base.clone().with_l2_size(256 * 1024),
            base.clone().with_rob_iq(448, 256),
            base.clone().with_predictor(BranchPredictorKind::Ltage),
            base.clone().with_model(crate::model::ModelKind::InOrder),
            base.clone().with_model(crate::model::ModelKind::Analytic),
            CoreConfig::host_like(),
        ];
        for v in &variants {
            assert_ne!(v.stable_digest(), base.stable_digest(), "{v:?}");
        }
        // Sweep points that reproduce the baseline digest equal.
        assert_eq!(
            base.clone().with_frequency(3.0).stable_digest(),
            base.stable_digest()
        );
        assert_eq!(
            base.clone().with_lsq(72, 56).stable_digest(),
            base.stable_digest()
        );
    }

    #[test]
    #[should_panic(expected = "inconsistent cache geometry")]
    fn bad_geometry_panics() {
        let mut c = CoreConfig::gem5_baseline().l1d;
        c.size_bytes = 1000; // not divisible
        let _ = c.sets();
    }
}
