//! Simulation statistics: gem5-style per-stage counters plus Top-Down
//! Microarchitecture Analysis (TMA) slot accounting.
//!
//! Fig. 7 of the paper comes from the fetch/execute/commit counters;
//! Figs. 2-3 come from the TMA slots; Figs. 8-12 derive from cycles,
//! committed instructions and cache miss counts under configuration
//! sweeps.

/// Per-kind op counts for one pipeline stage (Fig. 7b/7c rows).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageMix {
    /// Conditional branches.
    pub branches: u64,
    /// Floating-point arithmetic ops.
    pub fp: u64,
    /// Integer arithmetic ops.
    pub int: u64,
    /// Loads.
    pub loads: u64,
    /// Stores.
    pub stores: u64,
    /// Other (pause/serialize).
    pub other: u64,
}

impl StageMix {
    /// Total ops counted at this stage.
    pub fn total(&self) -> u64 {
        self.branches + self.fp + self.int + self.loads + self.stores + self.other
    }

    /// Fraction helper.
    pub fn fraction(&self, part: u64) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            part as f64 / t as f64
        }
    }

    pub(crate) fn count(&mut self, kind: belenos_trace::OpKind) {
        use belenos_trace::OpKind::*;
        match kind {
            Branch => self.branches += 1,
            FpAdd | FpMul | FpDiv => self.fp += 1,
            IntAlu | IntMul => self.int += 1,
            Load => self.loads += 1,
            Store => self.stores += 1,
            Pause | Serialize => self.other += 1,
        }
    }
}

/// Complete statistics of one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Core frequency the run was clocked at (for seconds conversion).
    pub freq_ghz: f64,
    /// Total cycles simulated.
    pub cycles: u64,
    /// Committed (retired) micro-ops.
    pub committed_ops: u64,
    /// Squashed micro-ops (wrong-path work discarded).
    pub squashed_ops: u64,

    // --- fetch stage (Fig. 7a) ---
    /// Cycles in which at least one op was fetched.
    pub active_fetch_cycles: u64,
    /// Cycles stalled on an instruction-cache miss.
    pub icache_stall_cycles: u64,
    /// Cycles stalled on iTLB walks.
    pub tlb_stall_cycles: u64,
    /// Cycles lost to squash recovery (redirect + refill).
    pub squash_cycles: u64,
    /// Other fetch stalls (queue full / no dispatch space).
    pub misc_stall_cycles: u64,

    // --- execute / commit stage mixes (Fig. 7b / 7c) ---
    /// Op mix at issue/execute.
    pub exec_mix: StageMix,
    /// Op mix at commit.
    pub commit_mix: StageMix,

    // --- branch prediction ---
    /// Conditional branches executed.
    pub branches: u64,
    /// Mispredicted branches.
    pub mispredicts: u64,
    /// BTB misses on taken branches.
    pub btb_misses: u64,

    // --- caches (Fig. 9) ---
    /// L1I accesses / misses.
    pub l1i_accesses: u64,
    /// L1I misses.
    pub l1i_misses: u64,
    /// L1D accesses.
    pub l1d_accesses: u64,
    /// L1D misses.
    pub l1d_misses: u64,
    /// L2 accesses.
    pub l2_accesses: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// DRAM lines transferred.
    pub dram_lines: u64,
    /// dTLB misses.
    pub dtlb_misses: u64,

    // --- TMA slot accounting (Figs. 2-3) ---
    /// Slots that retired a op.
    pub slots_retiring: u64,
    /// Slots lost to wrong-path work and squash recovery.
    pub slots_bad_speculation: u64,
    /// Slots starved by the front end.
    pub slots_frontend: u64,
    /// Slots stalled by the back end.
    pub slots_backend: u64,
    /// Front-end-bound slots attributable to fetch latency (icache/iTLB).
    pub slots_fe_latency: u64,
    /// Front-end-bound slots attributable to fetch bandwidth.
    pub slots_fe_bandwidth: u64,
    /// Back-end-bound slots waiting on memory (loads/stores in flight).
    pub slots_be_memory: u64,
    /// Back-end-bound slots waiting on core resources (FUs, deps, PAUSE).
    pub slots_be_core: u64,
    /// Slot attribution per function category (retiring slots by the
    /// committed op's category, stall slots by the ROB-head op's category)
    /// — the basis of VTune-style bottom-up hotspot profiles (Fig. 4).
    pub slots_by_category: [u64; 6],
}

/// Index of a [`belenos_trace::FnCategory`] into
/// [`SimStats::slots_by_category`], following `FnCategory::ALL` order.
pub fn category_index(cat: belenos_trace::FnCategory) -> usize {
    belenos_trace::FnCategory::ALL
        .iter()
        .position(|&c| c == cat)
        .expect("category list is exhaustive")
}

impl SimStats {
    /// Every extensive (additive) counter as a named slot, in a fixed
    /// order — the one field table behind [`SimStats::merge`],
    /// [`SimStats::scaled`], [`SimStats::subtract`] and the runner's
    /// `.stats` codec and digest (which pin the names and the order).
    /// `freq_ghz` is intensive and excluded.
    ///
    /// The exhaustive destructuring is deliberate: adding a field to
    /// [`SimStats`] (or [`StageMix`]) fails to compile here until it is
    /// classified, so no counter can silently escape interval merging,
    /// whole-trace extrapolation or the on-disk entry. Each name sits
    /// beside its binding, so a reorder cannot mislabel a counter.
    pub fn counters_mut(&mut self) -> [(&'static str, &mut u64); 45] {
        let SimStats {
            freq_ghz: _,
            cycles,
            committed_ops,
            squashed_ops,
            active_fetch_cycles,
            icache_stall_cycles,
            tlb_stall_cycles,
            squash_cycles,
            misc_stall_cycles,
            exec_mix:
                StageMix {
                    branches: exec_branches,
                    fp: exec_fp,
                    int: exec_int,
                    loads: exec_loads,
                    stores: exec_stores,
                    other: exec_other,
                },
            commit_mix:
                StageMix {
                    branches: commit_branches,
                    fp: commit_fp,
                    int: commit_int,
                    loads: commit_loads,
                    stores: commit_stores,
                    other: commit_other,
                },
            branches,
            mispredicts,
            btb_misses,
            l1i_accesses,
            l1i_misses,
            l1d_accesses,
            l1d_misses,
            l2_accesses,
            l2_misses,
            dram_lines,
            dtlb_misses,
            slots_retiring,
            slots_bad_speculation,
            slots_frontend,
            slots_backend,
            slots_fe_latency,
            slots_fe_bandwidth,
            slots_be_memory,
            slots_be_core,
            slots_by_category: [cat0, cat1, cat2, cat3, cat4, cat5],
        } = self;
        [
            ("cycles", cycles),
            ("committed_ops", committed_ops),
            ("squashed_ops", squashed_ops),
            ("active_fetch_cycles", active_fetch_cycles),
            ("icache_stall_cycles", icache_stall_cycles),
            ("tlb_stall_cycles", tlb_stall_cycles),
            ("squash_cycles", squash_cycles),
            ("misc_stall_cycles", misc_stall_cycles),
            ("exec_branches", exec_branches),
            ("exec_fp", exec_fp),
            ("exec_int", exec_int),
            ("exec_loads", exec_loads),
            ("exec_stores", exec_stores),
            ("exec_other", exec_other),
            ("commit_branches", commit_branches),
            ("commit_fp", commit_fp),
            ("commit_int", commit_int),
            ("commit_loads", commit_loads),
            ("commit_stores", commit_stores),
            ("commit_other", commit_other),
            ("branches", branches),
            ("mispredicts", mispredicts),
            ("btb_misses", btb_misses),
            ("l1i_accesses", l1i_accesses),
            ("l1i_misses", l1i_misses),
            ("l1d_accesses", l1d_accesses),
            ("l1d_misses", l1d_misses),
            ("l2_accesses", l2_accesses),
            ("l2_misses", l2_misses),
            ("dram_lines", dram_lines),
            ("dtlb_misses", dtlb_misses),
            ("slots_retiring", slots_retiring),
            ("slots_bad_speculation", slots_bad_speculation),
            ("slots_frontend", slots_frontend),
            ("slots_backend", slots_backend),
            ("slots_fe_latency", slots_fe_latency),
            ("slots_fe_bandwidth", slots_fe_bandwidth),
            ("slots_be_memory", slots_be_memory),
            ("slots_be_core", slots_be_core),
            ("cat0", cat0),
            ("cat1", cat1),
            ("cat2", cat2),
            ("cat3", cat3),
            ("cat4", cat4),
            ("cat5", cat5),
        ]
    }

    /// Adds another run's counters into this one component-wise.
    ///
    /// Used to accumulate the per-interval measurements of a sampled
    /// simulation; `freq_ghz` is kept from `self`.
    pub fn merge(&mut self, other: &SimStats) {
        let mut o = other.clone();
        for ((_, a), (_, b)) in self.counters_mut().into_iter().zip(o.counters_mut()) {
            *a += *b;
        }
    }

    /// Returns a copy with every extensive counter multiplied by
    /// `factor` (rounded to the nearest integer).
    ///
    /// Extrapolates merged interval measurements to whole-trace
    /// estimates; ratios (IPC, MPKI, top-down fractions) are preserved
    /// up to rounding.
    pub fn scaled(&self, factor: f64) -> SimStats {
        let mut out = self.clone();
        for (_, c) in out.counters_mut() {
            *c = (*c as f64 * factor).round() as u64;
        }
        out
    }

    /// Subtracts a warmup snapshot from these statistics component-wise.
    ///
    /// The snapshot must have been taken earlier in the same run, so
    /// every counter of `snapshot` is `<=` the corresponding counter of
    /// `self`.
    pub fn subtract(&mut self, snapshot: &SimStats) {
        let mut s = snapshot.clone();
        for ((_, a), (_, b)) in self.counters_mut().into_iter().zip(s.counters_mut()) {
            *a -= *b;
        }
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed_ops as f64 / self.cycles as f64
        }
    }

    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        let ipc = self.ipc();
        if ipc == 0.0 {
            f64::INFINITY
        } else {
            1.0 / ipc
        }
    }

    /// Simulated wall-clock seconds at the configured frequency.
    pub fn seconds(&self) -> f64 {
        if self.freq_ghz <= 0.0 {
            0.0
        } else {
            self.cycles as f64 / (self.freq_ghz * 1e9)
        }
    }

    /// Total TMA slots accounted.
    pub fn total_slots(&self) -> u64 {
        self.slots_retiring + self.slots_bad_speculation + self.slots_frontend + self.slots_backend
    }

    /// TMA level-1 fractions: (retiring, front-end, bad-spec, back-end).
    pub fn topdown(&self) -> (f64, f64, f64, f64) {
        let t = self.total_slots() as f64;
        if t == 0.0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        (
            self.slots_retiring as f64 / t,
            self.slots_frontend as f64 / t,
            self.slots_bad_speculation as f64 / t,
            self.slots_backend as f64 / t,
        )
    }

    /// Level-2 splits: (FE latency, FE bandwidth, BE core, BE memory) as
    /// fractions of all slots.
    pub fn stall_split(&self) -> (f64, f64, f64, f64) {
        let t = self.total_slots() as f64;
        if t == 0.0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        (
            self.slots_fe_latency as f64 / t,
            self.slots_fe_bandwidth as f64 / t,
            self.slots_be_core as f64 / t,
            self.slots_be_memory as f64 / t,
        )
    }

    /// L1I misses per kilo-instruction.
    pub fn l1i_mpki(&self) -> f64 {
        mpki(self.l1i_misses, self.committed_ops)
    }

    /// L1D misses per kilo-instruction.
    pub fn l1d_mpki(&self) -> f64 {
        mpki(self.l1d_misses, self.committed_ops)
    }

    /// L2 misses per kilo-instruction.
    pub fn l2_mpki(&self) -> f64 {
        mpki(self.l2_misses, self.committed_ops)
    }

    /// Branch misprediction rate.
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }

    /// Clocktick-equivalent fraction attributed to each function category.
    pub fn category_fractions(&self) -> [f64; 6] {
        let total: u64 = self.slots_by_category.iter().sum();
        let mut out = [0.0; 6];
        if total > 0 {
            for (o, &s) in out.iter_mut().zip(&self.slots_by_category) {
                *o = s as f64 / total as f64;
            }
        }
        out
    }

    /// Achieved DRAM bandwidth in GB/s.
    pub fn dram_bandwidth_gbps(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            (self.dram_lines * 64) as f64 / (self.cycles as f64 / self.freq_ghz) / 1.0
            // bytes per ns == GB/s
        }
    }
}

fn mpki(misses: u64, insts: u64) -> f64 {
    if insts == 0 {
        0.0
    } else {
        misses as f64 * 1000.0 / insts as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_cpi_seconds() {
        let s = SimStats {
            freq_ghz: 2.0,
            cycles: 1000,
            committed_ops: 2500,
            ..SimStats::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-12);
        assert!((s.cpi() - 0.4).abs() < 1e-12);
        assert!((s.seconds() - 0.5e-6).abs() < 1e-18);
    }

    #[test]
    fn topdown_fractions_sum_to_one() {
        let s = SimStats {
            slots_retiring: 400,
            slots_frontend: 100,
            slots_bad_speculation: 20,
            slots_backend: 480,
            ..SimStats::default()
        };
        let (r, fe, bs, be) = s.topdown();
        assert!((r + fe + bs + be - 1.0).abs() < 1e-12);
        assert!((r - 0.4).abs() < 1e-12);
        assert!((be - 0.48).abs() < 1e-12);
    }

    #[test]
    fn mpki_normalization() {
        let s = SimStats {
            committed_ops: 10_000,
            l1d_misses: 150,
            ..SimStats::default()
        };
        assert!((s.l1d_mpki() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn stage_mix_counts() {
        use belenos_trace::OpKind;
        let mut m = StageMix::default();
        m.count(OpKind::Load);
        m.count(OpKind::FpMul);
        m.count(OpKind::FpAdd);
        m.count(OpKind::Branch);
        m.count(OpKind::Pause);
        assert_eq!(m.total(), 5);
        assert_eq!(m.loads, 1);
        assert_eq!(m.fp, 2);
        assert!((m.fraction(m.fp) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_and_scale_preserves_ratios() {
        let a = SimStats {
            freq_ghz: 3.0,
            cycles: 1000,
            committed_ops: 2000,
            l1d_misses: 10,
            slots_by_category: [1, 2, 3, 4, 5, 6],
            ..SimStats::default()
        };
        let b = SimStats {
            freq_ghz: 3.0,
            cycles: 500,
            committed_ops: 4000,
            l1d_misses: 5,
            slots_by_category: [6, 5, 4, 3, 2, 1],
            ..SimStats::default()
        };
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.cycles, 1500);
        assert_eq!(m.committed_ops, 6000);
        assert_eq!(m.l1d_misses, 15);
        assert_eq!(m.slots_by_category, [7; 6]);
        assert_eq!(m.freq_ghz, 3.0);

        let s = m.scaled(10.0);
        assert_eq!(s.cycles, 15_000);
        assert_eq!(s.committed_ops, 60_000);
        assert!((s.ipc() - m.ipc()).abs() < 1e-9, "scaling must keep IPC");
        assert_eq!(s.freq_ghz, 3.0);
    }

    #[test]
    fn subtract_removes_snapshot() {
        let mut s = SimStats {
            cycles: 100,
            committed_ops: 50,
            branches: 7,
            ..SimStats::default()
        };
        let snap = SimStats {
            cycles: 40,
            committed_ops: 20,
            branches: 3,
            ..SimStats::default()
        };
        s.subtract(&snap);
        assert_eq!((s.cycles, s.committed_ops, s.branches), (60, 30, 4));
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert!(s.cpi().is_infinite());
        assert_eq!(s.topdown(), (0.0, 0.0, 0.0, 0.0));
        assert_eq!(s.l1d_mpki(), 0.0);
    }
}
