//! Machine configurations.
//!
//! [`CoreConfig::gem5_baseline`] reproduces the paper's Table II verbatim;
//! [`CoreConfig::host_like`] approximates the i9-14900K workstation used
//! for the VTune experiments. Every sweep in the paper (frequency, cache
//! sizes, pipeline width, LQ/SQ depth, branch predictor) is a plain field
//! edit on this struct.

use belenos_json::schema::{self, Record, Rule, Walker};
use belenos_json::{record, JsonError};

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

/// The interval count `on` means. Few large intervals alias with solver
/// phase structure; ~a hundred or more converge tightly (see
/// [`SamplingConfig::smarts`]).
pub const DEFAULT_SAMPLING_INTERVALS: usize = 128;

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

    /// Parses the one string spelling, shared by `--sampling` and a
    /// document's string and number forms: `off`, `on` (SMARTS with
    /// [`DEFAULT_SAMPLING_INTERVALS`]) or an interval count `N ≥ 1`,
    /// case-insensitive.
    ///
    /// # Errors
    ///
    /// What the value should have been; `0` is refused as ambiguous.
    pub fn parse(s: &str) -> Result<SamplingConfig, String> {
        let s = s.trim();
        if s.eq_ignore_ascii_case("off") {
            return Ok(SamplingConfig::off());
        }
        if s.eq_ignore_ascii_case("on") {
            return Ok(SamplingConfig::smarts(DEFAULT_SAMPLING_INTERVALS));
        }
        match s.parse::<usize>() {
            Ok(0) => Err(ZERO_INTERVALS.to_string()),
            Ok(n) => Ok(SamplingConfig::smarts(n)),
            Err(_) => Err(format!("expected off, on or an interval count, got `{s}`")),
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
        record_digest("SamplingConfig-v1", self)
    }
}

/// Why `0` is not an interval count: it would read as "off" in one
/// place and as "one window" in another.
pub(crate) const ZERO_INTERVALS: &str = "a zero interval count is ambiguous; write \"off\"";

// The explicit `{intervals, warmup_frac}` form and the digest order. Its
// JSON is written by hand (`json.rs`): the terse `"off"` / `N` spellings
// come first.
impl Record for SamplingConfig {
    fn walk<W: Walker>(&self, w: &mut W) -> Result<Self, JsonError> {
        Ok(SamplingConfig {
            intervals: w.leaf("intervals", &self.intervals, Rule::Any)?,
            warmup_frac: w.leaf("warmup_frac", &self.warmup_frac, Rule::Any)?,
        })
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

record!(CacheConfig {
    size_bytes: COUNT,
    assoc: COUNT,
    line_bytes: COUNT,
    hit_latency: Any,
    mshrs: COUNT,
});

/// The most ways a cache set may have: a set's recency order holds its
/// way indices as `u16`.
const MAX_WAYS: usize = 1 << 16;

impl CacheConfig {
    /// Number of sets, when the line is a power of two (a cache indexes
    /// by shifting it off), a set at most 65 536 ways (its recency order
    /// holds way indices as `u16`) and the size a whole, non-zero number
    /// of `assoc * line` sets.
    ///
    /// # Errors
    ///
    /// A description of the inconsistent geometry.
    pub fn geometry(&self) -> Result<usize, String> {
        if !self.line_bytes.is_power_of_two() {
            return Err(format!(
                "line_bytes must be a power of two, got {}",
                self.line_bytes
            ));
        }
        if self.assoc > MAX_WAYS {
            return Err(format!(
                "assoc must be at most {MAX_WAYS}, got {}",
                self.assoc
            ));
        }
        let set_bytes = self.assoc.saturating_mul(self.line_bytes);
        let sets = self.size_bytes.checked_div(set_bytes).unwrap_or(0);
        if sets > 0 && sets * set_bytes == self.size_bytes {
            Ok(sets)
        } else {
            Err(format!(
                "inconsistent cache geometry: {} B / ({} ways x {} B)",
                self.size_bytes, self.assoc, self.line_bytes
            ))
        }
    }

    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (size not divisible by
    /// `assoc * line`); [`CoreConfig::validate`] rules that out.
    pub fn sets(&self) -> usize {
        self.geometry().unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Full machine configuration for one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreConfig {
    /// Which core-model backend replays the trace (`--model`); part of
    /// [`CoreConfig::stable_digest`] so backends never alias in result
    /// caches.
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

// The one listing of the machine parameters: JSON keys, wire order,
// digest order and range rules. Adding a parameter is the struct field,
// a line here, and its value in the two constructors below.
record!(CoreConfig {
    model: Any,
    freq_ghz: Positive,
    fetch_width: COUNT,
    decode_width: COUNT,
    rename_width: COUNT,
    dispatch_width: COUNT,
    issue_width: COUNT,
    writeback_width: COUNT,
    squash_width: COUNT,
    commit_width: COUNT,
    rob_entries: COUNT,
    iq_entries: COUNT,
    lq_entries: COUNT,
    sq_entries: COUNT,
    int_regs: COUNT,
    fp_regs: COUNT,
    frontend_depth: Any,
    l1i: record,
    l1d: record,
    l2: record,
    dram_latency_ns: Positive,
    dram_bandwidth_gbps: Positive,
    tlb_entries: COUNT,
    tlb_miss_penalty: Any,
    predictor: Any,
    btb_entries: COUNT,
    btb_miss_penalty: Any,
    pause_latency: Any,
    fu_counts: COUNT,
});

/// Stable content digest of a record: `tag`, then every field's bytes
/// in listing order. The value is identical across processes and builds.
/// `tag` is the record's version: bump it when the listing changes, so a
/// stale on-disk entry can never alias a new shape.
pub fn record_digest(tag: &str, record: &impl Record) -> u64 {
    let mut h = crate::Fnv64::new();
    h.write_str(tag);
    schema::feed(record, &mut |bytes| {
        h.write_bytes(bytes);
    });
    h.finish()
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
    /// Two configurations digest equal iff every field is equal —
    /// `belenos-runner` keys its content-addressed result cache on it.
    pub fn stable_digest(&self) -> u64 {
        record_digest("CoreConfig-v2", self)
    }

    /// Checks that a simulator can be built from this configuration:
    /// every count at least one, clock and DRAM numbers finite and
    /// positive, every cache a whole number of sets. Configurations that
    /// arrive as documents (the job board) are checked before they reach
    /// a worker's simulator, where a zero would be a divide-by-zero.
    ///
    /// # Errors
    ///
    /// The first offending field, named as `config.l1d.assoc`.
    pub fn validate(&self) -> Result<(), JsonError> {
        schema::check(self, "config")?;
        for (name, cache) in [("l1i", &self.l1i), ("l1d", &self.l1d), ("l2", &self.l2)] {
            cache
                .geometry()
                .map_err(|e| JsonError::new(format!("config.{name}: {e}")))?;
        }
        Ok(())
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
    fn sampling_values_parse() {
        assert!(SamplingConfig::parse("off").unwrap().is_off());
        assert!(SamplingConfig::parse("OFF").unwrap().is_off());
        assert_eq!(
            SamplingConfig::parse("on").unwrap(),
            SamplingConfig::smarts(DEFAULT_SAMPLING_INTERVALS)
        );
        assert_eq!(SamplingConfig::parse(" 16 ").unwrap().intervals, 16);
        assert_eq!(SamplingConfig::parse("0").unwrap_err(), ZERO_INTERVALS);
        for bad in ["", "-1", "sometimes", "2.5"] {
            assert!(SamplingConfig::parse(bad).is_err(), "{bad}");
        }
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
    fn sweep_points_that_reproduce_the_baseline_digest_equal() {
        // (That every field moves the digest is `tests/schema.rs`.)
        let base = CoreConfig::gem5_baseline();
        for same in [
            base.clone().with_frequency(3.0),
            base.clone().with_lsq(72, 56),
            base.clone().with_model(crate::model::ModelKind::O3),
        ] {
            assert_eq!(same.stable_digest(), base.stable_digest());
        }
    }

    #[test]
    fn validation_names_the_field_no_simulator_can_be_built_from() {
        let base = CoreConfig::gem5_baseline();
        assert!(base.validate().is_ok());
        assert!(CoreConfig::host_like().validate().is_ok());
        let broken = |edit: fn(&mut CoreConfig)| {
            let mut c = CoreConfig::gem5_baseline();
            edit(&mut c);
            c.validate().unwrap_err().message
        };
        assert_eq!(
            broken(|c| c.l1d.assoc = 0),
            "config.l1d.assoc must be at least 1"
        );
        assert_eq!(
            broken(|c| c.issue_width = 0),
            "config.issue_width must be at least 1"
        );
        assert_eq!(
            broken(|c| c.fu_counts[2] = 0),
            "config.fu_counts[2] must be at least 1"
        );
        assert_eq!(
            broken(|c| c.dram_latency_ns = f64::NAN),
            "config.dram_latency_ns must be finite"
        );
        assert_eq!(
            broken(|c| c.l2.size_bytes = 1000),
            "config.l2: inconsistent cache geometry: 1000 B / (16 ways x 64 B)"
        );
        // 64 whole sets, but a 48 B line cannot be shifted off an address:
        // the cache would index 16 B lines while DRAM moves 48 B ones.
        assert_eq!(
            broken(|c| c.l1d = CacheConfig {
                size_bytes: 24_576,
                line_bytes: 48,
                ..c.l1d
            }),
            "config.l1d: line_bytes must be a power of two, got 48"
        );
        // A whole number of 1-byte-line sets, but one way too many for a
        // `u16` way index.
        assert_eq!(
            broken(|c| c.l2 = CacheConfig {
                size_bytes: MAX_WAYS + 1,
                assoc: MAX_WAYS + 1,
                line_bytes: 1,
                ..c.l2
            }),
            "config.l2: assoc must be at most 65536, got 65537"
        );
        assert_eq!(
            CacheConfig {
                size_bytes: MAX_WAYS,
                assoc: MAX_WAYS,
                line_bytes: 1,
                ..base.l2
            }
            .geometry(),
            Ok(1)
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
