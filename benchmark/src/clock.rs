//! Time sources and the reference loops every timed value is divided by.
//!
//! This host is shared. Three things move a measurement that have nothing
//! to do with the code measured, none of them visible as steal or load:
//! the clock regime changes on a minute scale (everything ×0.78 for a
//! while), a co-tenant on the sibling hardware thread slows whatever is
//! on the CPU in bursts of seconds, and co-tenants evict this process's
//! lines from the shared cache, which slows memory-bound code only. Two
//! frozen loops are timed before and after every measured segment — a
//! serial xorshift chain ([`ref_loop`]) and a pointer chase over a 3 MB
//! ring ([`mem_ref_loop`]) — and the part of the segment the process spent
//! **on a CPU** is divided by the geometric mean of the two loops'
//! slow-downs against their nominal times; time asleep (accept polls,
//! board polls, socket waits) is wall-clock and is left alone. README.md
//! ("Why these estimators") has the measurements behind each choice.

use std::hint::black_box;
use std::time::Instant;

/// Iterations of the reference loop. Frozen: changing it changes every
/// normalised number the benchmark has ever reported.
pub const REF_ITERS: u64 = 8_200_000;

/// What one [`ref_loop`] takes on this box when nobody interferes.
/// Normalised seconds are host seconds in that state. Recorded in
/// `BENCHMARK.json` (first workload's `why`).
pub const REF_NOMINAL_S: f64 = 0.016;

/// What one [`mem_ref_loop`] takes on this box when nobody interferes.
pub const MEM_REF_NOMINAL_S: f64 = 0.0125;

/// One timed pass of the reference loop: a serial xorshift64 chain, no
/// memory traffic, so it sees clock-regime shifts and nothing else.
pub fn ref_loop() -> f64 {
    let t0 = Instant::now();
    let mut x: u64 = black_box(0x9E37_79B9_7F4A_7C15);
    for _ in 0..REF_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    t0.elapsed().as_secs_f64()
}

/// Bytes of the cache-bound reference's ring: a few MB, so it lives in
/// the last-level cache the co-tenants of this host fight over.
const MEM_REF_BYTES: usize = 3 << 20;

/// Dependent loads per cache-bound reference loop. Frozen, like
/// [`REF_ITERS`].
pub const MEM_REF_STEPS: u32 = 300_000;

/// One timed pass of the cache-bound reference: a pointer chase through a
/// random cycle over a 3 MB ring. The ALU loop cannot see co-tenants
/// evicting this process's cache lines; this one sees little else.
pub fn mem_ref_loop() -> f64 {
    static RING: std::sync::OnceLock<Vec<u32>> = std::sync::OnceLock::new();
    // The ring is the harness's, not the program's: keep it out of
    // `peak_live_mb`. First called before any workload thread exists.
    let ring = RING.get_or_init(|| {
        crate::alloc::untracked(|| {
            let n = MEM_REF_BYTES / 4;
            let mut order: Vec<u32> = (0..n as u32).collect();
            Rng::new(0x5EED).shuffle(&mut order);
            let mut next = vec![0u32; n];
            for i in 0..n {
                next[order[i] as usize] = order[(i + 1) % n];
            }
            next
        })
    });
    let t0 = Instant::now();
    let mut i = 0u32;
    for _ in 0..MEM_REF_STEPS {
        i = ring[i as usize];
    }
    black_box(i);
    t0.elapsed().as_secs_f64()
}

/// Both reference loops, timed back to back.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    pub alu_s: f64,
    pub mem_s: f64,
}

pub fn probe() -> Probe {
    Probe {
        alu_s: ref_loop(),
        mem_s: mem_ref_loop(),
    }
}

/// How much slower than nominal the machine ran between two probes: the
/// geometric mean of the two loops' slow-downs.
pub fn slowdown(before: Probe, after: Probe) -> f64 {
    let alu = 0.5 * (before.alu_s + after.alu_s) / REF_NOMINAL_S;
    let mem = 0.5 * (before.mem_s + after.mem_s) / MEM_REF_NOMINAL_S;
    (alu * mem).sqrt()
}

/// Normalised seconds of a segment that took `wall_s`, of which the
/// process was on a CPU for `cpu_s`, while the machine ran `slowdown`
/// times slower than nominal.
pub fn normalise(wall_s: f64, cpu_s: f64, slowdown: f64) -> f64 {
    let on_cpu = cpu_s.min(wall_s);
    (wall_s - on_cpu) + on_cpu / slowdown
}

#[cfg(unix)]
mod imp {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

    /// Words of a `cpu_set_t` (1024 CPUs).
    const MASK_WORDS: usize = 16;
    pub type CpuMask = [u64; MASK_WORDS];

    pub fn affinity() -> Option<CpuMask> {
        let mut mask: CpuMask = [0; MASK_WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    pub fn set_affinity(mask: &CpuMask) -> bool {
        // SAFETY: `mask` is a readable buffer of exactly the size passed.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) == 0 }
    }

    pub fn process_cpu_s() -> f64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
        // fields on every 64-bit Linux ABI) that outlives the call, and
        // clock_gettime writes nothing else.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        if rc != 0 {
            return 0.0;
        }
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    }
}

#[cfg(not(unix))]
mod imp {
    pub type CpuMask = [u64; 16];

    pub fn process_cpu_s() -> f64 {
        0.0
    }

    pub fn affinity() -> Option<CpuMask> {
        None
    }

    pub fn set_affinity(_: &CpuMask) -> bool {
        false
    }
}

/// CPU seconds this process (all threads) has consumed so far.
pub fn process_cpu_s() -> f64 {
    imp::process_cpu_s()
}

/// The CPUs this process may run on, as the kernel's bit mask.
pub use imp::CpuMask;

/// Restricts the calling thread (and every thread it spawns from now on)
/// to one CPU — the highest-numbered one it is allowed — and returns the
/// mask it had. With one CPU the two threads of a parallel section cannot
/// lose each other to a co-tenant, which on this host moved a whole run
/// by up to 40 % (README.md); `available_parallelism()` then reads 1.
pub fn pin_to_one_cpu() -> Option<CpuMask> {
    let all = imp::affinity()?;
    let (word, bits) = all.iter().enumerate().rev().find(|(_, &w)| w != 0)?;
    let mut one: CpuMask = [0; 16];
    one[word] = 1 << (63 - bits.leading_zeros());
    imp::set_affinity(&one).then_some(all)
}

/// Gives the calling thread back the CPUs in `mask`.
pub fn unpin(mask: &CpuMask) {
    imp::set_affinity(mask);
}

/// Peak resident set of this process in MB (`VmHWM`), 0 when unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: the only randomness in the harness, always seeded from
/// `--seed`, so equal seeds give equal inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[-1, 1)`.
    pub fn signed_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}
