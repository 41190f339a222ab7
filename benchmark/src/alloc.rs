//! Counting global allocator: live, peak, allocated bytes and allocation
//! count, all atomics, reset per repetition. `peak_live_mb` and the
//! `proc.alloc*` metrics come from here. Exact on the single-threaded
//! workloads; on `serve_mixed` the peak is the true process-wide peak but
//! depends on how the threads interleave.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct Counting;

// Statistics only: nothing is published through these, so Relaxed.
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static COUNT: AtomicU64 = AtomicU64::new(0);
/// Set while the harness allocates its own long-lived tables.
static UNTRACKED: AtomicBool = AtomicBool::new(false);

/// Runs `f` without counting what it allocates or frees. For harness
/// tables that live for the whole process (the reference ring); callers
/// must free inside `f` whatever they allocate inside it, or never, and
/// must be the only running thread.
pub fn untracked<T>(f: impl FnOnce() -> T) -> T {
    UNTRACKED.store(true, Ordering::SeqCst);
    let out = f();
    UNTRACKED.store(false, Ordering::SeqCst);
    out
}

fn grew(by: u64) {
    if UNTRACKED.load(Ordering::Relaxed) {
        return;
    }
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
    BYTES.fetch_add(by, Ordering::Relaxed);
    COUNT.fetch_add(1, Ordering::Relaxed);
}

fn shrank(by: u64) {
    if !UNTRACKED.load(Ordering::Relaxed) {
        LIVE.fetch_sub(by, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counters never influence what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            shrank(layout.size() as u64);
            grew(new_size as u64);
        }
        p
    }
}

/// Counter values at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Snapshot {
    pub peak: u64,
    pub bytes: u64,
    pub count: u64,
}

pub fn snapshot() -> Snapshot {
    Snapshot {
        peak: PEAK.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
        count: COUNT.load(Ordering::Relaxed),
    }
}

/// Starts a measurement window: the peak restarts from what is live now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}
