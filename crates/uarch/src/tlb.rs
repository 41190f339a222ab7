//! A small fully-associative TLB with LRU replacement.

/// Fully-associative translation lookaside buffer over 4 KiB pages.
///
/// Entries live in a flat `(page, stamp)` array scanned linearly: at
/// TLB sizes (tens of entries) that is markedly faster than a hash map
/// on the simulator's hottest path, and the hit/miss/eviction sequence
/// is exactly the LRU behavior the hash-map implementation had (stamps
/// are unique, so the LRU victim is unambiguous).
///
/// Page indexing is a single shift (`addr >> PAGE_SHIFT`) — like the
/// cache's power-of-two set masks, the per-access path contains no
/// division or modulo.
#[derive(Debug, Clone)]
pub struct Tlb {
    capacity: usize,
    /// Resident pages, unordered (parallel to `stamps`). Split from
    /// the stamps so the hit scan streams one contiguous `u64` array —
    /// the compiler vectorizes the compare loop.
    pages: Vec<u64>,
    /// Last-use stamp per resident page.
    stamps: Vec<u64>,
    /// Slots of the two most recent hits (or fills): consecutive
    /// touches to one page, or a stream alternating between two (a
    /// gather and its output, say), skip the scan. Hints are checked by
    /// page equality, so one left stale by an eviction's `swap_remove`
    /// only costs the scan.
    mru: usize,
    mru2: usize,
    stamp: u64,
    /// Total lookups.
    pub accesses: u64,
    /// Misses (page walks).
    pub misses: u64,
}

const PAGE_SHIFT: u32 = 12;

impl Tlb {
    /// A TLB with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "tlb capacity must be positive");
        Tlb {
            capacity,
            pages: Vec::with_capacity(capacity),
            stamps: Vec::with_capacity(capacity),
            mru: 0,
            mru2: 0,
            stamp: 0,
            accesses: 0,
            misses: 0,
        }
    }

    /// Looks up the page of `addr`; returns `true` on hit. Misses install
    /// the translation (after the caller-accounted walk penalty).
    pub fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        self.stamp += 1;
        let page = addr >> PAGE_SHIFT;
        if self.pages.get(self.mru) == Some(&page) {
            self.stamps[self.mru] = self.stamp;
            return true;
        }
        if self.pages.get(self.mru2) == Some(&page) {
            self.stamps[self.mru2] = self.stamp;
            std::mem::swap(&mut self.mru, &mut self.mru2);
            return true;
        }
        if let Some(i) = self.pages.iter().position(|&p| p == page) {
            self.stamps[i] = self.stamp;
            self.mru2 = std::mem::replace(&mut self.mru, i);
            return true;
        }
        self.misses += 1;
        if self.pages.len() >= self.capacity {
            // Evict LRU (stamps are unique; the victim is unambiguous).
            let victim = self
                .stamps
                .iter()
                .enumerate()
                .min_by_key(|(_, &t)| t)
                .map(|(i, _)| i)
                .expect("non-empty at capacity");
            self.pages.swap_remove(victim);
            self.stamps.swap_remove(victim);
        }
        self.mru2 = std::mem::replace(&mut self.mru, self.pages.len());
        self.pages.push(page);
        self.stamps.push(self.stamp);
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_misses_then_hits() {
        let mut tlb = Tlb::new(4);
        assert!(!tlb.access(0x1000));
        assert!(tlb.access(0x1008));
        assert!(tlb.access(0x1ff8));
        assert!(!tlb.access(0x2000));
        assert_eq!(tlb.misses, 2);
    }

    #[test]
    fn lru_eviction() {
        let mut tlb = Tlb::new(2);
        tlb.access(0x1000); // page 1
        tlb.access(0x2000); // page 2
        tlb.access(0x1000); // touch page 1 (page 2 becomes LRU)
        tlb.access(0x3000); // evicts page 2
        assert!(tlb.access(0x1000), "page 1 must survive");
        assert!(!tlb.access(0x2000), "page 2 must have been evicted");
    }

    #[test]
    fn two_hints_follow_alternating_pages_and_survive_a_moving_eviction() {
        // LRU spelled naively: resident pages, least recent first.
        let mut lru: Vec<u64> = Vec::new();
        let mut tlb = Tlb::new(4);
        let mut touch = |tlb: &mut Tlb, page: u64| {
            let resident = lru.contains(&page);
            lru.retain(|&p| p != page);
            if lru.len() == 4 {
                lru.remove(0);
            }
            lru.push(page);
            let hit = tlb.access(page << PAGE_SHIFT);
            assert_eq!(hit, resident, "page {page}");
            hit
        };
        for page in 1..=4 {
            assert!(!touch(&mut tlb, page));
        }
        // Pages 1 and 4 alternate: after the first touch (a scan), both
        // are hinted, and each touch swaps the two hints.
        for _ in 0..3 {
            assert!(touch(&mut tlb, 1));
            assert!(touch(&mut tlb, 4));
            let hinted = [tlb.pages[tlb.mru], tlb.pages[tlb.mru2]];
            assert_eq!(hinted, [4, 1]);
        }
        // A miss evicts page 2 (slot 1); `swap_remove` moves page 4 out
        // of its hinted last slot into slot 1, and the new page takes
        // the last slot. Page 4 still hits (by scan), then hint-hits.
        assert!(!touch(&mut tlb, 5));
        assert_eq!(tlb.pages, [1, 4, 3, 5]);
        assert!(touch(&mut tlb, 4));
        assert_eq!(tlb.mru, 1);
        assert!(touch(&mut tlb, 5));
        assert!(touch(&mut tlb, 4));
        // LRU order is unchanged by the hints: 3 is the victim, not 1.
        assert!(!touch(&mut tlb, 6));
        assert!(touch(&mut tlb, 1));
        assert!(!touch(&mut tlb, 3));
        assert_eq!((tlb.accesses, tlb.misses), (17, 7));
    }

    #[test]
    fn miss_rate_reporting() {
        let mut tlb = Tlb::new(16);
        for i in 0..8 {
            tlb.access(i << 12);
        }
        for i in 0..8 {
            tlb.access(i << 12);
        }
        assert_eq!((tlb.accesses, tlb.misses), (16, 8));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = Tlb::new(0);
    }
}
