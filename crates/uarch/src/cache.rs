//! Set-associative caches with exact LRU replacement,
//! write-back/write-allocate policy and MSHR-limited outstanding misses,
//! composed into the L1I / L1D / shared-L2 / DRAM hierarchy of Table II.
//!
//! A set's replacement state is the order of its ways, most recently
//! touched first: a hit probes the ways in that order and moves the one
//! it found to the front, and a miss evicts the last way and moves it to
//! the front as it fills. Each order starts as `[assoc-1, …, 1, 0]`, so
//! while a set still has invalid ways they form its tail in descending
//! order and the victim is the lowest-numbered one: the rule "first
//! invalid way, else the least recently used" falls out of the order
//! with no scan. A line costs its 8-byte tag, a 2-byte slot in the order,
//! a valid bit and a dirty bit: 10.25 bytes.

use crate::config::CacheConfig;
use crate::dram::Dram;

/// One set-associative cache level.
///
/// Replacement is exact LRU kept as one recency order per set (see the
/// module docs); a line's valid and dirty bits live apart from its tag,
/// because with 1-byte lines the tag is the whole address: no tag value
/// is free to mean "invalid".
#[derive(Debug, Clone)]
pub struct Cache {
    sets: usize,
    /// `sets - 1` when `sets` is a power of two (the common case):
    /// set selection is then a mask, not a per-access modulo.
    set_mask: Option<usize>,
    assoc: usize,
    line_shift: u32,
    /// `tags[set * assoc + way]`, meaningful on a valid line only.
    tags: Vec<u64>,
    /// `order[set * assoc..][..assoc]`: the set's way indices, most
    /// recently touched first.
    order: Vec<u16>,
    /// Dirty bit of line `set * assoc + way`, 64 lines a word. An
    /// invalid line's bit is clear: bits are set only on valid lines,
    /// and a line never becomes invalid again.
    dirty: Vec<u64>,
    /// Valid bit of each line, packed as `dirty`: set when the line is
    /// first filled, never cleared.
    valid: Vec<u64>,
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
        let lines = sets * cfg.assoc;
        Cache {
            sets,
            set_mask: sets.is_power_of_two().then(|| sets - 1),
            assoc: cfg.assoc,
            line_shift: cfg.line_bytes.trailing_zeros(),
            tags: vec![u64::MAX; lines],
            // Every set's order starts as `[assoc-1, …, 1, 0]`.
            order: (0..lines)
                .map(|i| (cfg.assoc - 1 - i % cfg.assoc) as u16)
                .collect(),
            dirty: vec![0; lines.div_ceil(64)],
            valid: vec![0; lines.div_ceil(64)],
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

    /// Drops all outstanding-miss timestamps (tags, dirty bits and
    /// recency orders are kept). Called when a new timed run starts at
    /// cycle 0 on an already-warm cache, so stale completion times from
    /// a previous run cannot block MSHRs.
    pub fn reset_timing(&mut self) {
        self.outstanding.clear();
    }

    /// Probes (and updates) the level for the line containing `addr`.
    /// `write` marks the line dirty on hit or after allocation.
    pub fn access(&mut self, addr: u64, write: bool) -> Probe {
        self.accesses += 1;
        let line = addr >> self.line_shift;
        let set = match self.set_mask {
            Some(mask) => (line as usize) & mask,
            None => (line as usize) % self.sets,
        };
        let base = set * self.assoc;
        let tags = &mut self.tags[base..base + self.assoc];
        let order = &mut self.order[base..base + self.assoc];
        // Most caches hit the way they touched last, which leads the
        // order: probing in recency order finds it first. An invalid
        // way's tag is stale; only a matching tag's valid bit is read.
        let valid = &self.valid;
        if let Some(pos) = order
            .iter()
            .position(|&w| tags[w as usize] == line && bit(valid, base + w as usize))
        {
            let way = order[pos] as usize;
            order[..=pos].rotate_right(1);
            if write {
                set_bit(&mut self.dirty, base + way, true);
            }
            return Probe::Hit;
        }
        self.misses += 1;
        let victim = order[self.assoc - 1] as usize;
        order.rotate_right(1);
        let victim_dirty = bit(&self.dirty, base + victim);
        if victim_dirty {
            self.writebacks += 1;
        }
        tags[victim] = line;
        set_bit(&mut self.valid, base + victim, true);
        set_bit(&mut self.dirty, base + victim, write);
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

/// Bit `i` of a packed bit vector.
#[inline]
fn bit(words: &[u64], i: usize) -> bool {
    words[i / 64] >> (i % 64) & 1 != 0
}

/// Sets bit `i` of a packed bit vector to `on`.
#[inline]
fn set_bit(words: &mut [u64], i: usize, on: bool) {
    let mask = 1 << (i % 64);
    if on {
        words[i / 64] |= mask;
    } else {
        words[i / 64] &= !mask;
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
    use proptest::prelude::*;

    /// The replacement state the recency order replaced, kept as the
    /// differential oracle: a per-line last-use stamp, a valid and a dirty
    /// byte, an MRU-way hint per set, and a victim found by scanning the
    /// set for its first invalid way, else its smallest stamp.
    struct StampCache {
        sets: usize,
        set_mask: Option<usize>,
        assoc: usize,
        line_shift: u32,
        tags: Vec<u64>,
        valid: Vec<bool>,
        dirty: Vec<bool>,
        lru: Vec<u64>,
        mru_way: Vec<u16>,
        stamp: u64,
        accesses: u64,
        misses: u64,
        writebacks: u64,
    }

    impl StampCache {
        fn new(cfg: &CacheConfig) -> Self {
            let sets = cfg.sets();
            StampCache {
                sets,
                set_mask: sets.is_power_of_two().then(|| sets - 1),
                assoc: cfg.assoc,
                line_shift: cfg.line_bytes.trailing_zeros(),
                tags: vec![u64::MAX; sets * cfg.assoc],
                valid: vec![false; sets * cfg.assoc],
                dirty: vec![false; sets * cfg.assoc],
                lru: vec![0; sets * cfg.assoc],
                mru_way: vec![0; sets],
                stamp: 0,
                accesses: 0,
                misses: 0,
                writebacks: 0,
            }
        }

        fn access(&mut self, addr: u64, write: bool) -> Probe {
            self.accesses += 1;
            self.stamp += 1;
            let line = addr >> self.line_shift;
            let set = match self.set_mask {
                Some(mask) => (line as usize) & mask,
                None => (line as usize) % self.sets,
            };
            let base = set * self.assoc;
            let m = self.mru_way[set] as usize;
            if self.valid[base + m] && self.tags[base + m] == line {
                self.lru[base + m] = self.stamp;
                if write {
                    self.dirty[base + m] = true;
                }
                return Probe::Hit;
            }
            for w in 0..self.assoc {
                if self.valid[base + w] && self.tags[base + w] == line {
                    self.lru[base + w] = self.stamp;
                    if write {
                        self.dirty[base + w] = true;
                    }
                    self.mru_way[set] = w as u16;
                    return Probe::Hit;
                }
            }
            self.misses += 1;
            let mut victim = 0;
            let mut oldest = u64::MAX;
            for w in 0..self.assoc {
                if !self.valid[base + w] {
                    victim = w;
                    break;
                }
                if self.lru[base + w] < oldest {
                    oldest = self.lru[base + w];
                    victim = w;
                }
            }
            let victim_dirty = self.valid[base + victim] && self.dirty[base + victim];
            if victim_dirty {
                self.writebacks += 1;
            }
            self.tags[base + victim] = line;
            self.valid[base + victim] = true;
            self.dirty[base + victim] = write;
            self.lru[base + victim] = self.stamp;
            self.mru_way[set] = victim as u16;
            Probe::Miss { victim_dirty }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn recency_order_matches_the_stamp_scan(
            assoc in 1usize..21,
            sets in 1usize..13,
            pow2_sets in any::<bool>(),
            line_log2 in 0u32..8,
            pool_tenths in 1usize..41,
            top in any::<bool>(),
            stream in prop::collection::vec((0u64..1 << 20, 0u8..4), 1..600),
        ) {
            // Power-of-two set counts take the mask, others the modulo.
            let sets = if pow2_sets { 1 << (sets % 6) } else { sets };
            let cfg = CacheConfig {
                size_bytes: (sets * assoc) << line_log2,
                assoc,
                line_bytes: 1 << line_log2,
                hit_latency: 1,
                mshrs: 1,
            };
            let mut cache = Cache::new(&cfg);
            let mut oracle = StampCache::new(&cfg);
            // Lines come from a pool of a tenth of to four times the
            // lines the cache holds, so they are reused, evicted and
            // refilled; their offsets within a line vary. With `top` the
            // pool ends at the last address, whose tag is all ones.
            let pool = (sets * assoc * pool_tenths / 10).max(1) as u64;
            for (i, (draw, kind)) in stream.into_iter().enumerate() {
                let addr = ((draw % pool) << line_log2) | ((draw >> 12) % (1 << line_log2));
                let addr = if top { !addr } else { addr };
                let write = kind == 0;
                prop_assert_eq!(cache.access(addr, write), oracle.access(addr, write), "access {}", i);
            }
            prop_assert_eq!(cache.accesses, oracle.accesses);
            prop_assert_eq!(cache.misses, oracle.misses);
            prop_assert_eq!(cache.writebacks, oracle.writebacks);
            // Which way holds which line is not observable through a
            // probe, but the state must be the oracle's too: the same
            // line in every way, the same dirty lines, and each set's
            // order its valid ways by falling stamp, then its invalid
            // ways by falling index.
            prop_assert_eq!(&cache.tags, &oracle.tags);
            let valid: Vec<bool> = (0..cache.tags.len()).map(|i| bit(&cache.valid, i)).collect();
            prop_assert_eq!(valid, oracle.valid.clone());
            let dirty: Vec<bool> = (0..cache.tags.len()).map(|i| bit(&cache.dirty, i)).collect();
            prop_assert_eq!(dirty, oracle.dirty.clone());
            for base in (0..cache.tags.len()).step_by(assoc) {
                let mut expected: Vec<u16> = (0..assoc as u16).rev().collect();
                expected.sort_by_key(|&w| {
                    let i = base + w as usize;
                    std::cmp::Reverse(oracle.valid[i].then_some(oracle.lru[i]))
                });
                prop_assert_eq!(&cache.order[base..base + assoc], &expected[..], "set at {}", base);
            }
        }
    }

    /// Heap bytes a cache holds per line for its tags, replacement state
    /// and valid and dirty flags.
    fn heap_bytes_per_line(c: &Cache) -> f64 {
        let bytes = c.tags.capacity() * size_of::<u64>()
            + c.order.capacity() * size_of::<u16>()
            + c.dirty.capacity() * size_of::<u64>()
            + c.valid.capacity() * size_of::<u64>()
            + c.outstanding.capacity() * size_of::<u64>();
        bytes as f64 / c.tags.len() as f64
    }

    #[test]
    fn a_line_costs_a_tag_an_order_slot_and_a_dirty_bit() {
        for cfg in [CoreConfig::gem5_baseline(), CoreConfig::host_like()] {
            let per_line = heap_bytes_per_line(&Cache::new(&cfg.l2));
            assert!(
                per_line <= 10.25,
                "{} B per line in a {} B L2",
                per_line,
                cfg.l2.size_bytes
            );
        }
    }

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
    fn the_all_ones_tag_misses_in_a_cold_cache() {
        // With 1-byte lines the tag is the whole address: `u64::MAX` is
        // a line like any other, not a marker that matches a never-filled
        // way.
        let cfg = CacheConfig {
            size_bytes: 4,
            assoc: 2,
            line_bytes: 1,
            hit_latency: 1,
            mshrs: 1,
        };
        let (mut cache, mut oracle) = (Cache::new(&cfg), StampCache::new(&cfg));
        let victim_clean = Probe::Miss {
            victim_dirty: false,
        };
        assert_eq!(cache.access(u64::MAX, true), victim_clean);
        assert_eq!((cache.accesses, cache.misses), (1, 1));
        assert_eq!(cache.access(u64::MAX, false), Probe::Hit);
        assert_eq!(oracle.access(u64::MAX, true), victim_clean);
        assert_eq!(oracle.access(u64::MAX, false), Probe::Hit);
        assert_eq!(oracle.misses, 1);
    }

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
