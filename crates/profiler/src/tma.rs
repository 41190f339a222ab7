//! Top-Down Microarchitecture Analysis — the taxonomy behind the paper's
//! Figures 2 and 3.

use belenos_uarch::SimStats;

/// Level-1 + level-2 top-down breakdown for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct TopDown {
    /// Workload label.
    pub name: String,
    /// Fraction of slots that retired useful work.
    pub retiring: f64,
    /// Fraction starved by the front end.
    pub frontend_bound: f64,
    /// Fraction lost to wrong-path work / recovery.
    pub bad_speculation: f64,
    /// Fraction stalled in the back end.
    pub backend_bound: f64,
    /// Level-2: front-end latency (icache / iTLB misses).
    pub fe_latency: f64,
    /// Level-2: front-end bandwidth.
    pub fe_bandwidth: f64,
    /// Level-2: back-end core-bound (FUs, dependencies, PAUSE).
    pub be_core: f64,
    /// Level-2: back-end memory-bound (cache/DRAM waits).
    pub be_memory: f64,
}

impl TopDown {
    /// Extracts the breakdown from simulator statistics.
    pub fn from_stats(name: &str, stats: &SimStats) -> Self {
        let (retiring, frontend_bound, bad_speculation, backend_bound) = stats.topdown();
        let (fe_latency, fe_bandwidth, be_core, be_memory) = stats.stall_split();
        TopDown {
            name: name.to_string(),
            retiring,
            frontend_bound,
            bad_speculation,
            backend_bound,
            fe_latency,
            fe_bandwidth,
            be_core,
            be_memory,
        }
    }

    /// True when the workload is predominantly memory-bound (the paper's
    /// classification for biphasic/fluid models).
    pub fn is_memory_bound(&self) -> bool {
        self.be_memory > self.be_core
    }

    /// One row of the Fig. 2 stacked-bar data, in percent:
    /// `[retiring, frontend, bad_speculation, backend]`.
    pub fn percents(&self) -> [f64; 4] {
        [
            self.retiring * 100.0,
            self.frontend_bound * 100.0,
            self.bad_speculation * 100.0,
            self.backend_bound * 100.0,
        ]
    }

    /// One row of the Fig. 3 stall data, in percent:
    /// `[fe_latency, fe_bandwidth, be_core, be_memory]`.
    pub fn stall_percents(&self) -> [f64; 4] {
        [
            self.fe_latency * 100.0,
            self.fe_bandwidth * 100.0,
            self.be_core * 100.0,
            self.be_memory * 100.0,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> SimStats {
        SimStats {
            slots_retiring: 200,
            slots_frontend: 100,
            slots_bad_speculation: 10,
            slots_backend: 690,
            slots_fe_latency: 60,
            slots_fe_bandwidth: 40,
            slots_be_core: 90,
            slots_be_memory: 600,
            ..SimStats::default()
        }
    }

    #[test]
    fn fractions_and_sums() {
        let td = TopDown::from_stats("x", &stats());
        let level1 = td.retiring + td.frontend_bound + td.bad_speculation + td.backend_bound;
        assert!((level1 - 1.0).abs() < 1e-12);
        assert!((td.retiring - 0.2).abs() < 1e-12);
        assert!((td.backend_bound - 0.69).abs() < 1e-12);
        assert!(td.is_memory_bound());
    }

    #[test]
    fn percents_scale() {
        let td = TopDown::from_stats("x", &stats());
        let p = td.percents();
        assert!((p[0] - 20.0).abs() < 1e-9);
        assert!((p.iter().sum::<f64>() - 100.0).abs() < 1e-9);
        let s = td.stall_percents();
        assert!((s[3] - 60.0).abs() < 1e-9);
    }

    #[test]
    fn core_bound_classification() {
        let mut s = stats();
        s.slots_be_core = 650;
        s.slots_be_memory = 40;
        let td = TopDown::from_stats("ma28", &s);
        assert!(!td.is_memory_bound());
    }
}
