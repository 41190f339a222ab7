//! Memory-hierarchy profile: MPKI per level, bandwidth pressure and stall
//! attribution — the "Memory and Cache Behavior" metric family of the
//! paper's methodology section.

use belenos_uarch::SimStats;

/// Summary of a workload's memory behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryProfile {
    /// Workload label.
    pub name: String,
    /// L1 instruction-cache misses per kilo-instruction.
    pub l1i_mpki: f64,
    /// L1 data-cache misses per kilo-instruction.
    pub l1d_mpki: f64,
    /// L2 misses per kilo-instruction.
    pub l2_mpki: f64,
    /// Fraction of slots stalled on memory.
    pub memory_bound: f64,
    /// Achieved DRAM bandwidth in GB/s.
    pub dram_gbps: f64,
    /// dTLB miss rate proxy (misses per kilo-instruction).
    pub dtlb_mpki: f64,
}

impl MemoryProfile {
    /// Extracts the profile from simulator statistics.
    pub fn from_stats(name: &str, stats: &SimStats) -> Self {
        let (_, _, _, be_mem) = stats.stall_split();
        MemoryProfile {
            name: name.to_string(),
            l1i_mpki: stats.l1i_mpki(),
            l1d_mpki: stats.l1d_mpki(),
            l2_mpki: stats.l2_mpki(),
            memory_bound: be_mem,
            dram_gbps: stats.dram_bandwidth_gbps(),
            dtlb_mpki: if stats.committed_ops == 0 {
                0.0
            } else {
                stats.dtlb_misses as f64 * 1000.0 / stats.committed_ops as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_extraction() {
        let stats = SimStats {
            freq_ghz: 3.0,
            cycles: 3_000_000,
            committed_ops: 1_000_000,
            l1i_misses: 1000,
            l1d_misses: 50_000,
            l2_misses: 20_000,
            dtlb_misses: 500,
            dram_lines: 20_000,
            slots_backend: 600,
            slots_be_memory: 500,
            slots_be_core: 100,
            slots_retiring: 400,
            ..SimStats::default()
        };
        let m = MemoryProfile::from_stats("eye", &stats);
        assert!((m.l1d_mpki - 50.0).abs() < 1e-9);
        assert!((m.l2_mpki - 20.0).abs() < 1e-9);
        assert!((m.dtlb_mpki - 0.5).abs() < 1e-9);
        assert!(m.memory_bound > 0.4);
        // 20k lines * 64 B over 1 ms = 1.28 GB/s.
        assert!((m.dram_gbps - 1.28).abs() < 0.01, "{}", m.dram_gbps);
    }

    #[test]
    fn cache_resident_workload() {
        let stats = SimStats {
            committed_ops: 1_000_000,
            l2_misses: 100,
            ..SimStats::default()
        };
        let m = MemoryProfile::from_stats("ma26", &stats);
        assert!((m.l2_mpki - 0.1).abs() < 1e-9);
    }
}
