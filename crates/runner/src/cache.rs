//! Content-addressed simulation-result cache.
//!
//! Results are keyed by [`CacheKey`] — workload identity, trace
//! fingerprint, [`CoreConfig::stable_digest`] and the micro-op budget —
//! so any two jobs that would replay the exact same simulation share one
//! entry, no matter which sweep or figure submitted them. The cache is
//! in-memory (shared, thread-safe) with an optional on-disk tier
//! (the `--store` root's `cache/`) that survives across processes.

use crate::entry::{write_atomic, Miss};
use belenos_uarch::{CoreConfig, Fnv64, SamplingConfig, SimStats};
use std::collections::HashMap;
use std::fmt::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Identity of one simulation: equal keys guarantee bit-identical stats.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Workload identifier.
    pub workload: String,
    /// Trace-content fingerprint (same id can carry different expansion
    /// knobs across workload sets).
    pub fingerprint: u64,
    /// [`CoreConfig::stable_digest`] of the machine configuration.
    pub config: u64,
    /// Micro-op budget of the run.
    pub max_ops: usize,
    /// [`SamplingConfig::stable_digest`] of the trace-sampling strategy:
    /// a sampled run and a prefix-truncated run at the same budget
    /// produce different statistics and must never alias.
    pub sampling: u64,
}

impl CacheKey {
    /// Builds the key for (workload, fingerprint) under
    /// `config`/`max_ops`/`sampling`.
    pub fn new(
        workload: &str,
        fingerprint: u64,
        config: &CoreConfig,
        max_ops: usize,
        sampling: &SamplingConfig,
    ) -> Self {
        CacheKey {
            workload: workload.to_string(),
            fingerprint,
            config: config.stable_digest(),
            max_ops,
            sampling: sampling.stable_digest(),
        }
    }

    /// Stable 64-bit content address (used as the on-disk file name).
    ///
    /// The version tag is bumped whenever key semantics change; v4
    /// coincides with the parametric scenario API folding the scenario
    /// content digest into every workload fingerprint, so stale on-disk
    /// entries keyed by id + trace alone can never alias a parametric
    /// variant.
    pub fn address(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_str("CacheKey-v4");
        h.write_str(&self.workload);
        h.write_u64(self.fingerprint);
        h.write_u64(self.config);
        h.write_usize(self.max_ops);
        h.write_u64(self.sampling);
        h.finish()
    }
}

/// Counters describing cache effectiveness (process-lifetime totals).
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Lookups answered from memory or disk.
    pub hits: u64,
    /// Lookups that required a fresh simulation.
    pub misses: u64,
    /// Entries inserted.
    pub inserts: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

struct CacheInner {
    mem: Mutex<HashMap<CacheKey, SimStats>>,
    disk: Option<PathBuf>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
}

/// Thread-safe content-addressed result cache; cheap to clone (shared).
#[derive(Clone)]
pub struct Cache {
    inner: Arc<CacheInner>,
}

impl Cache {
    /// A fresh, in-memory-only cache (used by tests and isolated runs).
    pub fn fresh() -> Self {
        Cache {
            inner: Arc::new(CacheInner {
                mem: Mutex::new(HashMap::new()),
                disk: None,
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                inserts: AtomicU64::new(0),
            }),
        }
    }

    /// A fresh cache with an on-disk tier rooted at `dir`.
    pub fn with_disk(dir: impl Into<PathBuf>) -> Self {
        let dir = dir.into();
        let _ = std::fs::create_dir_all(&dir);
        Cache {
            inner: Arc::new(CacheInner {
                mem: Mutex::new(HashMap::new()),
                disk: Some(dir),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                inserts: AtomicU64::new(0),
            }),
        }
    }

    /// Looks `key` up in memory, then on disk; counts a hit or miss.
    pub fn lookup(&self, key: &CacheKey) -> Option<SimStats> {
        if let Some(stats) = self.inner.mem.lock().unwrap().get(key).cloned() {
            self.inner.hits.fetch_add(1, Ordering::Relaxed);
            return Some(stats);
        }
        if let Some(dir) = &self.inner.disk {
            let path = entry_path(dir, key);
            match read_stats(&path) {
                Ok(stats) => {
                    self.inner.hits.fetch_add(1, Ordering::Relaxed);
                    self.inner
                        .mem
                        .lock()
                        .unwrap()
                        .insert(key.clone(), stats.clone());
                    return Some(stats);
                }
                Err(miss) => report_damaged(miss, &key.workload, &path),
            }
        }
        self.inner.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Stores a result under `key` (memory + disk tier if configured).
    pub fn insert(&self, key: CacheKey, stats: &SimStats) {
        if let Some(dir) = &self.inner.disk {
            // Best-effort: a failed write only forfeits the entry.
            let _ = write_atomic(&entry_path(dir, &key), encode_stats(stats).as_bytes());
        }
        self.inner.mem.lock().unwrap().insert(key, stats.clone());
        self.inner.inserts.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of in-memory entries.
    pub fn len(&self) -> usize {
        self.inner.mem.lock().unwrap().len()
    }

    /// True when no entry is resident in memory.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime hit/miss/insert counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            inserts: self.inner.inserts.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for Cache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cache")
            .field("entries", &self.len())
            .field("disk", &self.inner.disk)
            .field("stats", &self.stats())
            .finish()
    }
}

/// File name of `key`'s disk-tier entry (`{workload}-{address}.stats`).
///
/// Public so out-of-process coordination layers (the dist job board)
/// can watch for a result landing without routing polls through
/// [`Cache::lookup`] — which would count every poll as a miss.
pub fn entry_file_name(key: &CacheKey) -> String {
    format!("{}-{:016x}.stats", key.workload, key.address())
}

fn entry_path(dir: &Path, key: &CacheKey) -> PathBuf {
    dir.join(entry_file_name(key))
}

// --- on-disk SimStats serialization ------------------------------------
//
// A tiny versioned, checksummed `field=value` text format (no external
// dependencies). Any mismatch — wrong version, failed checksum, missing
// or stray line — makes the lookup a miss, so format evolution is always
// safe and a damaged entry is never served.

const FORMAT_FAMILY: &str = "belenos-simstats-";
const FORMAT_HEADER: &str = "belenos-simstats-v2";
const FREQ_KEY: &str = "freq_ghz_bits";
const CHECKSUM_KEY: &str = "checksum=";

/// Appends the `name=value` lines of `stats`: `freq_ghz` by its bit
/// pattern, then one line per [`SimStats::counters_mut`] slot, in that
/// table's order.
fn push_field_lines(out: &mut String, stats: &SimStats) {
    let _ = writeln!(out, "{FREQ_KEY}={}", stats.freq_ghz.to_bits());
    for (name, value) in stats.clone().counters_mut() {
        let _ = writeln!(out, "{name}={value}");
    }
}

fn checksum(body: &str) -> u64 {
    Fnv64::new().write_bytes(body.as_bytes()).finish()
}

/// Serializes `stats` to the versioned text format: header, one line per
/// field, then a `checksum=` line over every preceding byte.
pub fn encode_stats(stats: &SimStats) -> String {
    let mut out = String::with_capacity(1024);
    let _ = writeln!(out, "{FORMAT_HEADER}");
    push_field_lines(&mut out, stats);
    let sum = checksum(&out);
    let _ = writeln!(out, "{CHECKSUM_KEY}{sum:016x}");
    out
}

/// Parses the text format back; `None` on any mismatch ([`read_stats`]
/// says which).
pub fn decode_stats(text: &str) -> Option<SimStats> {
    verify_stats(text).ok()
}

/// The checksum is verified before any field is read, so an entry with
/// any byte altered never decodes.
fn verify_stats(text: &str) -> Result<SimStats, Miss> {
    let header = text.lines().next().unwrap_or_default();
    if header != FORMAT_HEADER {
        return Err(if header.starts_with(FORMAT_FAMILY) {
            Miss::Version
        } else {
            Miss::Malformed
        });
    }
    let (body, tail) = text.split_at(text.rfind(CHECKSUM_KEY).ok_or(Miss::Truncated)?);
    if tail != format!("{CHECKSUM_KEY}{:016x}\n", checksum(body)) {
        return Err(Miss::Checksum);
    }
    let mut lines = body.lines().skip(1);
    let mut value = |name: &str| -> Option<u64> {
        let line = lines.next()?.strip_prefix(name)?;
        line.strip_prefix('=')?.parse().ok()
    };
    let mut stats = SimStats {
        freq_ghz: f64::from_bits(value(FREQ_KEY).ok_or(Miss::Malformed)?),
        ..SimStats::default()
    };
    for (name, slot) in stats.counters_mut() {
        *slot = value(name).ok_or(Miss::Malformed)?;
    }
    if lines.next().is_some() {
        return Err(Miss::Malformed);
    }
    Ok(stats)
}

/// Stable 64-bit digest of every field of `stats` — what
/// `tests/backends.rs` pins and its `capture_digests` prints. It hashes
/// the field lines under the tag of the file format the pins were
/// captured with, frozen here so a format bump leaves the pins alone.
pub fn stats_digest(stats: &SimStats) -> u64 {
    let mut text = String::from("belenos-simstats-v1\n");
    push_field_lines(&mut text, stats);
    Fnv64::new().write_str(&text).finish()
}

/// Reads and verifies the disk-tier entry at `path`, with no [`Cache`]
/// hit/miss accounting — what [`Cache::lookup`] does on a memory miss,
/// and what a coordinator polling for a worker's result does directly.
///
/// # Errors
///
/// Why the entry cannot be served; anything but [`Miss::Absent`] means a
/// file is there and will be overwritten by the recompute.
pub fn read_stats(path: &Path) -> Result<SimStats, Miss> {
    verify_stats(&std::fs::read_to_string(path)?)
}

/// Reports a disk-tier entry that was found but cannot be served:
/// `cache_disk_miss` (with the reason) and one `warn`. An absent entry
/// is the ordinary cold path and stays silent.
pub fn report_damaged(miss: Miss, workload: &str, path: &Path) {
    if miss != Miss::Absent {
        miss.report("cache_disk_miss", workload, path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats() -> SimStats {
        SimStats {
            freq_ghz: 3.0,
            cycles: 12345,
            committed_ops: 6789,
            branches: 42,
            slots_by_category: [1, 2, 3, 4, 5, 6],
            ..SimStats::default()
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let s = sample_stats();
        let decoded = decode_stats(&encode_stats(&s)).expect("roundtrip");
        assert_eq!(decoded, s);
    }

    #[test]
    fn decode_rejects_corruption() {
        let text = encode_stats(&sample_stats());
        assert_eq!(verify_stats("garbage"), Err(Miss::Malformed));
        assert_eq!(
            verify_stats(&text.replace("cycles=12345", "cycles=abc")),
            Err(Miss::Checksum)
        );
        // Truncated payload (header kept) must not decode.
        let truncated: String = text.lines().take(10).map(|l| format!("{l}\n")).collect();
        assert_eq!(verify_stats(&truncated), Err(Miss::Truncated));
        // A flipped digit still parses as a number; only the checksum
        // stands between it and a wrong hit.
        let flipped = text.replace("cycles=12345", "cycles=12346");
        assert_ne!(flipped, text);
        assert_eq!(verify_stats(&flipped), Err(Miss::Checksum));
        // A v1 entry (no checksum line) is a miss, not a trusted hit.
        let v1 =
            text[..text.rfind(CHECKSUM_KEY).unwrap()].replace(FORMAT_HEADER, "belenos-simstats-v1");
        assert_eq!(verify_stats(&v1), Err(Miss::Version));
        // A well-summed entry that lacks a field is malformed.
        let short = text[..text.rfind("cat5=").unwrap()].to_string();
        let short = format!("{short}{CHECKSUM_KEY}{:016x}\n", checksum(&short));
        assert_eq!(verify_stats(&short), Err(Miss::Malformed));
        assert!(decode_stats(&short).is_none());
    }

    fn key(workload: &str, fingerprint: u64, config: &CoreConfig, max_ops: usize) -> CacheKey {
        CacheKey::new(
            workload,
            fingerprint,
            config,
            max_ops,
            &SamplingConfig::off(),
        )
    }

    #[test]
    fn memory_cache_hits_and_counts() {
        let cache = Cache::fresh();
        let key = key("wl", 7, &CoreConfig::gem5_baseline(), 1000);
        assert!(cache.lookup(&key).is_none());
        cache.insert(key.clone(), &sample_stats());
        assert_eq!(cache.lookup(&key).unwrap(), sample_stats());
        let st = cache.stats();
        assert_eq!((st.hits, st.misses, st.inserts), (1, 1, 1));
    }

    #[test]
    fn disk_tier_survives_memory_loss() {
        let dir = std::env::temp_dir().join(format!("belenos-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = key("wl", 7, &CoreConfig::gem5_baseline(), 1000);
        {
            let cache = Cache::with_disk(&dir);
            cache.insert(key.clone(), &sample_stats());
        }
        // New cache instance: memory gone, disk tier answers.
        let cache = Cache::with_disk(&dir);
        assert_eq!(cache.lookup(&key).unwrap(), sample_stats());
        assert_eq!(cache.stats().hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_disk_entry_is_a_miss_then_rewritten() {
        let dir = std::env::temp_dir().join(format!("belenos-cache-damage-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = key("wl", 7, &CoreConfig::gem5_baseline(), 1000);
        Cache::with_disk(&dir).insert(key.clone(), &sample_stats());
        let path = entry_path(&dir, &key);
        let good = std::fs::read(&path).unwrap();
        // Every single-byte alteration, anywhere in the file, must miss
        // — and say so: one `cache_disk_miss` with a reason, one `warn`.
        for at in 0..good.len() {
            let mut bad = good.clone();
            bad[at] = if bad[at] == b'7' { b'8' } else { b'7' };
            std::fs::write(&path, &bad).unwrap();
            let (found, events) =
                belenos_telemetry::capture(|| Cache::with_disk(&dir).lookup(&key));
            assert!(found.is_none(), "byte {at} altered, entry still served");
            let reasoned = events
                .iter()
                .filter(|e| e.get("name").and_then(|v| v.as_str()) == Some("cache_disk_miss"))
                .filter(|e| e.get("reason").is_some())
                .count();
            let warns = events
                .iter()
                .filter(|e| e.get("ev").and_then(|v| v.as_str()) == Some("warn"))
                .count();
            assert_eq!(
                (events.len(), reasoned, warns),
                (2, 1, 1),
                "byte {at}: {events:?}"
            );
        }
        // The miss is followed by recompute-and-rewrite: the next
        // process hits again, with the right numbers. An absent entry is
        // the ordinary cold path and reports nothing.
        let cache = Cache::with_disk(&dir);
        assert!(cache.lookup(&key).is_none());
        std::fs::remove_file(&path).unwrap();
        let (found, events) = belenos_telemetry::capture(|| cache.lookup(&key));
        assert!(found.is_none() && events.is_empty(), "{events:?}");
        cache.insert(key.clone(), &sample_stats());
        assert_eq!(std::fs::read(&path).unwrap(), good);
        assert_eq!(Cache::with_disk(&dir).lookup(&key).unwrap(), sample_stats());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn keys_separate_by_every_component() {
        let base = key("wl", 7, &CoreConfig::gem5_baseline(), 1000);
        let other_wl = key("other", 7, &CoreConfig::gem5_baseline(), 1000);
        let other_fp = key("wl", 8, &CoreConfig::gem5_baseline(), 1000);
        let other_cfg = key(
            "wl",
            7,
            &CoreConfig::gem5_baseline().with_frequency(1.0),
            1000,
        );
        let other_ops = key("wl", 7, &CoreConfig::gem5_baseline(), 2000);
        let other_sampling = CacheKey::new(
            "wl",
            7,
            &CoreConfig::gem5_baseline(),
            1000,
            &SamplingConfig::smarts(10),
        );
        for k in [
            &other_wl,
            &other_fp,
            &other_cfg,
            &other_ops,
            &other_sampling,
        ] {
            assert_ne!(*k, base);
            assert_ne!(k.address(), base.address());
        }
        // Differing interval counts also separate.
        let s20 = CacheKey::new(
            "wl",
            7,
            &CoreConfig::gem5_baseline(),
            1000,
            &SamplingConfig::smarts(20),
        );
        assert_ne!(s20, other_sampling);
        assert_ne!(s20.address(), other_sampling.address());
    }
}
