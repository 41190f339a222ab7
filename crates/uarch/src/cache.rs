//! Set-associative caches with LRU replacement, write-back/write-allocate
//! policy and MSHR-limited outstanding misses, composed into the
//! L1I / L1D / shared-L2 / DRAM hierarchy of Table II.

use crate::config::CacheConfig;
use crate::dram::Dram;

/// One set-associative cache level.
#[derive(Debug, Clone)]
pub struct Cache {
    sets: usize,
    /// `sets - 1` when `sets` is a power of two (the common case):
    /// set selection is then a mask, not a per-access modulo.
    set_mask: Option<usize>,
    assoc: usize,
    line_shift: u32,
    /// `tags[set * assoc + way]`; `u64::MAX` = invalid.
    tags: Vec<u64>,
    dirty: Vec<bool>,
    lru: Vec<u64>,
    /// Most-recently-touched way per set, probed before the way scan.
    /// Pure lookup acceleration: hit/miss/victim decisions are
    /// unchanged (a matching tag is unique within a set).
    mru_way: Vec<u16>,
    stamp: u64,
    hit_latency: u64,
    mshrs: usize,
    /// Completion cycles of outstanding misses.
    outstanding: Vec<u64>,
    /// Total accesses.
    pub accesses: u64,
    /// Total misses.
    pub misses: u64,
    /// Dirty evictions (writebacks issued downstream).
    pub writebacks: u64,
}

/// Result of a cache-level probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Hit with the level's latency.
    Hit,
    /// Miss; the line was allocated (victim writeback flagged).
    Miss {
        /// A dirty line was evicted and must be written back.
        victim_dirty: bool,
    },
}

impl Cache {
    /// Builds a level from its configuration.
    pub fn new(cfg: &CacheConfig) -> Self {
        let sets = cfg.sets();
        Cache {
            sets,
            set_mask: sets.is_power_of_two().then(|| sets - 1),
            assoc: cfg.assoc,
            line_shift: cfg.line_bytes.trailing_zeros(),
            tags: vec![u64::MAX; sets * cfg.assoc],
            dirty: vec![false; sets * cfg.assoc],
            lru: vec![0; sets * cfg.assoc],
            mru_way: vec![0; sets],
            stamp: 0,
            hit_latency: cfg.hit_latency,
            mshrs: cfg.mshrs,
            outstanding: Vec::new(),
            accesses: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// Hit latency in cycles.
    pub fn hit_latency(&self) -> u64 {
        self.hit_latency
    }

    /// True when an MSHR is available at `now` (retires completed misses).
    ///
    /// Completed entries are only compacted when the list looks full:
    /// under the limit the answer is `true` regardless of staleness, so
    /// the common unsaturated case skips the retain scan entirely.
    /// (`next_outstanding` filters by time and never reads stale slots.)
    pub fn mshr_available(&mut self, now: u64) -> bool {
        if self.outstanding.len() < self.mshrs {
            return true;
        }
        self.outstanding.retain(|&c| c > now);
        self.outstanding.len() < self.mshrs
    }

    /// Registers an outstanding miss completing at `done`.
    pub fn note_miss_outstanding(&mut self, done: u64) {
        self.outstanding.push(done);
    }

    /// Misses noted as outstanding and not yet pruned.
    #[cfg(test)]
    pub(crate) fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// Earliest outstanding-miss completion at or after `now`, if any —
    /// the next cycle at which an MSHR frees up. Used by the o3
    /// fast-forward as a wake candidate (misses noted by store commits
    /// never enter the event heap, only this list).
    pub fn next_outstanding(&self, now: u64) -> Option<u64> {
        self.outstanding.iter().copied().filter(|&c| c >= now).min()
    }

    /// Drops all outstanding-miss timestamps (tags, dirty bits and LRU
    /// state are kept). Called when a new timed run starts at cycle 0 on
    /// an already-warm cache, so stale completion times from a previous
    /// run cannot block MSHRs.
    pub fn reset_timing(&mut self) {
        self.outstanding.clear();
    }

    /// Probes (and updates) the level for the line containing `addr`.
    /// `write` marks the line dirty on hit or after allocation.
    pub fn access(&mut self, addr: u64, write: bool) -> Probe {
        self.accesses += 1;
        self.stamp += 1;
        let line = addr >> self.line_shift;
        let set = match self.set_mask {
            Some(mask) => (line as usize) & mask,
            None => (line as usize) % self.sets,
        };
        let base = set * self.assoc;
        // Hit check: most caches hit the way they hit last time, so
        // probe it first; the full scan re-visiting it is harmless.
        let m = self.mru_way[set] as usize;
        if self.tags[base + m] == line {
            self.lru[base + m] = self.stamp;
            if write {
                self.dirty[base + m] = true;
            }
            return Probe::Hit;
        }
        for w in 0..self.assoc {
            if self.tags[base + w] == line {
                self.lru[base + w] = self.stamp;
                if write {
                    self.dirty[base + w] = true;
                }
                self.mru_way[set] = w as u16;
                return Probe::Hit;
            }
        }
        self.misses += 1;
        // Victim: LRU way.
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for w in 0..self.assoc {
            if self.tags[base + w] == u64::MAX {
                victim = w;
                break;
            }
            if self.lru[base + w] < oldest {
                oldest = self.lru[base + w];
                victim = w;
            }
        }
        let victim_dirty = self.tags[base + victim] != u64::MAX && self.dirty[base + victim];
        if victim_dirty {
            self.writebacks += 1;
        }
        self.tags[base + victim] = line;
        self.dirty[base + victim] = write;
        self.lru[base + victim] = self.stamp;
        self.mru_way[set] = victim as u16;
        Probe::Miss { victim_dirty }
    }

    /// Misses per kilo-(whatever the caller normalizes by); helper for
    /// MPKI computation against an instruction count.
    pub fn mpki(&self, kilo_insts: f64) -> f64 {
        if kilo_insts <= 0.0 {
            0.0
        } else {
            self.misses as f64 / kilo_insts
        }
    }
}

/// The full data-side hierarchy: private L1D, shared L2, DRAM. The
/// instruction side reuses [`Cache`] directly against the same L2.
#[derive(Debug)]
pub struct Hierarchy {
    /// L1 instruction cache.
    pub l1i: Cache,
    /// L1 data cache.
    pub l1d: Cache,
    /// Unified second-level cache.
    pub l2: Cache,
    /// Memory channel.
    pub dram: Dram,
}

/// Where a data access was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceLevel {
    /// L1 hit.
    L1,
    /// L2 hit.
    L2,
    /// DRAM access.
    Dram,
}

/// Timing outcome of a hierarchy access.
#[derive(Debug, Clone, Copy)]
pub struct AccessResult {
    /// Cycle at which data is available.
    pub done: u64,
    /// Deepest level that serviced the request.
    pub level: ServiceLevel,
}

impl Hierarchy {
    /// Builds the hierarchy from the machine configuration.
    pub fn new(cfg: &crate::config::CoreConfig) -> Self {
        Hierarchy {
            l1i: Cache::new(&cfg.l1i),
            l1d: Cache::new(&cfg.l1d),
            l2: Cache::new(&cfg.l2),
            dram: Dram::new(
                cfg.ns_to_cycles(cfg.dram_latency_ns),
                cfg.dram_bandwidth_gbps,
                cfg.freq_ghz,
                cfg.l1d.line_bytes,
            ),
        }
    }

    /// Resets all per-run timing state (MSHR completion times, DRAM
    /// channel occupancy) across the hierarchy; cache contents and access
    /// counters are preserved. See [`Cache::reset_timing`].
    pub fn reset_timing(&mut self) {
        self.l1i.reset_timing();
        self.l1d.reset_timing();
        self.l2.reset_timing();
        self.dram.reset_timing();
    }

    /// Data access (load or store) at cycle `now`; returns completion time
    /// and the servicing level. Write misses allocate (write-allocate).
    /// A miss is not noted as outstanding here: only the o3 core reads
    /// L1D's MSHR occupancy, and it notes its own misses.
    pub fn data_access(&mut self, addr: u64, write: bool, now: u64) -> AccessResult {
        let l1_lat = self.l1d.hit_latency();
        match self.l1d.access(addr, write) {
            Probe::Hit => AccessResult {
                done: now + l1_lat,
                level: ServiceLevel::L1,
            },
            Probe::Miss { victim_dirty } => {
                if victim_dirty {
                    // L1 writeback lands in L2.
                    if let Probe::Miss {
                        victim_dirty: l2_dirty,
                    } = self.l2.access(addr ^ 0x8000_0000, true)
                    {
                        if l2_dirty {
                            self.dram.writeback(now);
                        }
                    }
                }
                let l2_lat = self.l2.hit_latency();
                match self.l2.access(addr, false) {
                    Probe::Hit => AccessResult {
                        done: now + l1_lat + l2_lat,
                        level: ServiceLevel::L2,
                    },
                    Probe::Miss {
                        victim_dirty: l2_dirty,
                    } => {
                        if l2_dirty {
                            self.dram.writeback(now);
                        }
                        AccessResult {
                            done: self.dram.read(now + l1_lat + l2_lat),
                            level: ServiceLevel::Dram,
                        }
                    }
                }
            }
        }
    }

    /// Instruction fetch access for the line containing `pc`.
    pub fn inst_access(&mut self, pc: u64, now: u64) -> AccessResult {
        let l1_lat = self.l1i.hit_latency();
        match self.l1i.access(pc, false) {
            Probe::Hit => AccessResult {
                done: now + l1_lat,
                level: ServiceLevel::L1,
            },
            Probe::Miss { .. } => {
                let l2_lat = self.l2.hit_latency();
                match self.l2.access(pc, false) {
                    Probe::Hit => AccessResult {
                        done: now + l1_lat + l2_lat,
                        level: ServiceLevel::L2,
                    },
                    Probe::Miss { victim_dirty } => {
                        if victim_dirty {
                            self.dram.writeback(now);
                        }
                        let done = self.dram.read(now + l1_lat + l2_lat);
                        AccessResult {
                            done,
                            level: ServiceLevel::Dram,
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CoreConfig;

    fn small_cache() -> Cache {
        Cache::new(&CacheConfig {
            size_bytes: 1024,
            assoc: 2,
            line_bytes: 64,
            hit_latency: 2,
            mshrs: 4,
        })
    }

    use crate::config::CacheConfig;

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = small_cache();
        assert!(matches!(c.access(0x100, false), Probe::Miss { .. }));
        assert_eq!(c.access(0x100, false), Probe::Hit);
        assert_eq!(c.access(0x13f, false), Probe::Hit, "same line");
        assert!(
            matches!(c.access(0x140, false), Probe::Miss { .. }),
            "next line"
        );
    }

    #[test]
    fn lru_within_set() {
        let mut c = small_cache(); // 8 sets, 2 ways; set stride = 64 * 8 = 512
        let a = 0x0;
        let b = 0x200; // same set (0), different line
        let d = 0x400; // same set again
        c.access(a, false);
        c.access(b, false);
        c.access(a, false); // b is now LRU
        c.access(d, false); // evicts b
        assert_eq!(c.access(a, false), Probe::Hit);
        assert!(matches!(c.access(b, false), Probe::Miss { .. }));
    }

    #[test]
    fn dirty_eviction_flags_writeback() {
        let mut c = small_cache();
        c.access(0x0, true); // dirty
        c.access(0x200, false);
        // Third line in set 0 evicts the LRU (0x0, dirty).
        let p = c.access(0x400, false);
        assert_eq!(p, Probe::Miss { victim_dirty: true });
        assert_eq!(c.writebacks, 1);
    }

    #[test]
    fn mshr_limit() {
        let mut c = small_cache();
        for i in 0..4 {
            c.note_miss_outstanding(100 + i);
        }
        assert!(!c.mshr_available(50));
        assert!(c.mshr_available(200), "completed misses must free MSHRs");
    }

    #[test]
    fn hierarchy_latencies_order() {
        let cfg = CoreConfig::gem5_baseline();
        let mut h = Hierarchy::new(&cfg);
        let first = h.data_access(0x5000, false, 0);
        assert_eq!(first.level, ServiceLevel::Dram);
        let second = h.data_access(0x5000, false, first.done);
        assert_eq!(second.level, ServiceLevel::L1);
        assert!(
            first.done > second.done - first.done,
            "dram much slower than l1"
        );
    }

    #[test]
    fn l2_catches_l1_evictions() {
        let cfg = CoreConfig::gem5_baseline();
        let mut h = Hierarchy::new(&cfg);
        // Touch enough distinct lines to overflow L1 (32 kB = 512 lines)
        // but stay within L2 (1 MB = 16384 lines).
        for i in 0..1024u64 {
            h.data_access(i * 64, false, i * 1000);
        }
        let l1_misses_before = h.l1d.misses;
        // Re-touch the first line: L1 miss, L2 hit.
        let r = h.data_access(0, false, 10_000_000);
        assert_eq!(r.level, ServiceLevel::L2);
        assert_eq!(h.l1d.misses, l1_misses_before + 1);
    }

    #[test]
    fn inst_side_uses_l1i() {
        let cfg = CoreConfig::gem5_baseline();
        let mut h = Hierarchy::new(&cfg);
        let a = h.inst_access(0x40_0000, 0);
        assert_eq!(a.level, ServiceLevel::Dram);
        let b = h.inst_access(0x40_0000, a.done);
        assert_eq!(b.level, ServiceLevel::L1);
        assert_eq!(h.l1i.accesses, 2);
        assert_eq!(h.l1d.accesses, 0);
    }

    #[test]
    fn mpki_normalization() {
        let mut c = small_cache();
        for i in 0..100u64 {
            c.access(i * 64, false);
        }
        assert!((c.mpki(10.0) - 10.0).abs() < 1e-12); // 100 misses / 10 kilo-inst
    }
}
