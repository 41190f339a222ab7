//! LRU disk garbage collection for the cache directories.
//!
//! The disk result cache and the persistent trace store (a `--store`
//! root's `cache/` and `traces/`) both grow monotonically: every new
//! (workload × config) point adds a file and nothing ever removes one.
//! Fine for one-shot CLI runs; a long-running `belenos serve` daemon
//! needs a bound. [`gc_dirs`] enforces a byte budget by deleting the
//! least-recently-*used* entries first — both stores `File::open` their
//! entries on every hit, and on Linux that updates `atime` only
//! sporadically, so modification time is the stable recency signal we
//! actually have: entries are rewritten (write-then-rename) on every
//! store, making mtime "last written", a faithful LRU for
//! write-once-read-many content-addressed entries.
//!
//! Safety against concurrent writers: in-flight write-then-rename temps
//! (`*.tmp*`) are never counted or deleted, a file that disappears
//! mid-sweep is skipped, and deleting a just-renamed entry at worst
//! costs a recompute — both stores treat a missing file as a cache miss,
//! never an error.

use std::path::{Path, PathBuf};
use std::time::SystemTime;

/// What a directory scan found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirUsage {
    /// Regular entry files (excluding in-flight `.tmp*` temps).
    pub files: usize,
    /// Their total size in bytes.
    pub bytes: u64,
}

/// What one [`gc_dirs`] sweep did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcOutcome {
    /// Usage before the sweep.
    pub before: DirUsage,
    /// Entries deleted (oldest mtime first).
    pub deleted_files: usize,
    /// Bytes those entries held.
    pub deleted_bytes: u64,
}

impl GcOutcome {
    /// Usage left on disk after the sweep.
    pub fn after(&self) -> DirUsage {
        DirUsage {
            files: self.before.files - self.deleted_files,
            bytes: self.before.bytes - self.deleted_bytes,
        }
    }
}

/// One cache entry as the sweep sees it.
struct Entry {
    path: PathBuf,
    bytes: u64,
    mtime: SystemTime,
}

/// Collects the GC-eligible entries of `dir`: regular files only, with
/// in-flight write-then-rename temps excluded.
///
/// A missing directory reads as empty — both stores create their
/// directory lazily, so "nothing there yet" is a normal state.
fn scan(dir: &Path) -> std::io::Result<Vec<Entry>> {
    let read = match std::fs::read_dir(dir) {
        Ok(read) => read,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut entries = Vec::new();
    for item in read {
        let item = item?;
        let path = item.path();
        // In-flight write-then-rename temps plus the dist coordination
        // files (job board entries, live leases, done markers) are never
        // GC candidates: deleting a `.lease` would look like a worker
        // crash and re-run its job, deleting a `.job` would silently
        // drop a planned simulation.
        let protected = path
            .extension()
            .and_then(|e| e.to_str())
            .is_some_and(|e| e.starts_with("tmp") || matches!(e, "job" | "lease" | "done"));
        if protected {
            continue;
        }
        // A file can vanish between readdir and stat (concurrent GC or
        // a racing rename); skip it rather than failing the sweep.
        let Ok(meta) = item.metadata() else { continue };
        if !meta.is_file() {
            continue;
        }
        entries.push(Entry {
            path,
            bytes: meta.len(),
            mtime: meta.modified().unwrap_or(SystemTime::UNIX_EPOCH),
        });
    }
    Ok(entries)
}

/// Sizes the GC-eligible contents of `dir` (missing directory = empty).
///
/// # Errors
///
/// The underlying I/O error when the directory exists but cannot be
/// listed.
pub fn dir_usage(dir: &Path) -> std::io::Result<DirUsage> {
    let entries = scan(dir)?;
    Ok(DirUsage {
        files: entries.len(),
        bytes: entries.iter().map(|e| e.bytes).sum(),
    })
}

/// Deletes least-recently-written entries until at most `max_bytes`
/// remain across `dirs` — one budget over several directories is the
/// serve daemon's view, where the disk result cache and the trace store
/// share one `--cache-budget`. Entries from every directory compete in
/// a single LRU order, so a hot trace survives a cold stats file and
/// vice versa. Emits `cache_gc_deleted_files` / `cache_gc_deleted_bytes`
/// telemetry counters when anything was deleted.
///
/// # Errors
///
/// The first I/O error listing a directory or deleting an entry;
/// missing directories and entries that vanish mid-sweep are skipped.
pub fn gc_dirs(dirs: &[PathBuf], max_bytes: u64) -> std::io::Result<GcOutcome> {
    let mut entries = Vec::new();
    for dir in dirs {
        entries.extend(scan(dir)?);
    }
    let before = DirUsage {
        files: entries.len(),
        bytes: entries.iter().map(|e| e.bytes).sum(),
    };
    let mut outcome = GcOutcome {
        before,
        ..GcOutcome::default()
    };
    if before.bytes <= max_bytes {
        return Ok(outcome);
    }
    entries.sort_by_key(|e| e.mtime);
    let mut remaining = before.bytes;
    for entry in &entries {
        if remaining <= max_bytes {
            break;
        }
        match std::fs::remove_file(&entry.path) {
            Ok(()) => {
                remaining -= entry.bytes;
                outcome.deleted_files += 1;
                outcome.deleted_bytes += entry.bytes;
            }
            // Already gone (concurrent sweep): the bytes are freed
            // either way, but don't claim this sweep freed them.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => remaining -= entry.bytes,
            Err(e) => return Err(e),
        }
    }
    if outcome.deleted_files > 0 {
        let tele = belenos_telemetry::global();
        tele.counter("cache_gc_deleted_files", outcome.deleted_files as u64, &[]);
        tele.counter("cache_gc_deleted_bytes", outcome.deleted_bytes, &[]);
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("belenos-gc-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn put(dir: &Path, name: &str, bytes: usize, mtime_offset: Duration) {
        let path = dir.join(name);
        std::fs::write(&path, vec![b'x'; bytes]).unwrap();
        // Spread mtimes deterministically: filetime crates are out of
        // reach, but File::set_modified is std since 1.75.
        let t = SystemTime::UNIX_EPOCH + Duration::from_secs(1_000_000) + mtime_offset;
        std::fs::File::options()
            .write(true)
            .open(&path)
            .unwrap()
            .set_modified(t)
            .unwrap();
    }

    #[test]
    fn missing_directory_reads_as_empty() {
        let dir = std::env::temp_dir().join("belenos-gc-definitely-missing");
        assert_eq!(dir_usage(&dir).unwrap(), DirUsage::default());
        let outcome = gc_dirs(std::slice::from_ref(&dir), 0).unwrap();
        assert_eq!(outcome.deleted_files, 0);
    }

    #[test]
    fn under_budget_deletes_nothing() {
        let dir = tmpdir("under");
        put(&dir, "a.stats", 100, Duration::from_secs(1));
        put(&dir, "b.stats", 100, Duration::from_secs(2));
        let outcome = gc_dirs(std::slice::from_ref(&dir), 1_000).unwrap();
        assert_eq!(outcome.deleted_files, 0);
        assert_eq!(outcome.before.files, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn evicts_oldest_first_until_under_budget() {
        let dir = tmpdir("lru");
        put(&dir, "old.stats", 100, Duration::from_secs(1));
        put(&dir, "mid.stats", 100, Duration::from_secs(2));
        put(&dir, "new.stats", 100, Duration::from_secs(3));
        let outcome = gc_dirs(std::slice::from_ref(&dir), 150).unwrap();
        assert_eq!(outcome.deleted_files, 2);
        assert_eq!(outcome.deleted_bytes, 200);
        assert_eq!(
            outcome.after(),
            DirUsage {
                files: 1,
                bytes: 100
            }
        );
        assert!(!dir.join("old.stats").exists());
        assert!(!dir.join("mid.stats").exists());
        assert!(dir.join("new.stats").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn multi_dir_budget_is_shared_in_one_lru_order() {
        let a = tmpdir("multi-a");
        let b = tmpdir("multi-b");
        put(&a, "oldest.stats", 100, Duration::from_secs(1));
        put(&b, "old.bin", 100, Duration::from_secs(2));
        put(&a, "new.stats", 100, Duration::from_secs(3));
        let outcome = gc_dirs(&[a.clone(), b.clone()], 150).unwrap();
        assert_eq!(
            outcome.before,
            DirUsage {
                files: 3,
                bytes: 300
            }
        );
        assert_eq!(outcome.deleted_files, 2);
        // The two oldest went, regardless of which directory held them.
        assert!(!a.join("oldest.stats").exists());
        assert!(!b.join("old.bin").exists());
        assert!(a.join("new.stats").exists());
        let _ = std::fs::remove_dir_all(&a);
        let _ = std::fs::remove_dir_all(&b);
    }

    #[test]
    fn in_flight_temps_are_never_touched() {
        let dir = tmpdir("tmps");
        put(&dir, "entry.stats", 100, Duration::from_secs(1));
        put(&dir, "entry.tmp12345-7", 400, Duration::from_secs(0));
        // Temps don't count toward usage...
        assert_eq!(
            dir_usage(&dir).unwrap(),
            DirUsage {
                files: 1,
                bytes: 100
            }
        );
        // ...and a budget of zero removes entries but leaves temps.
        let outcome = gc_dirs(std::slice::from_ref(&dir), 0).unwrap();
        assert_eq!(outcome.deleted_files, 1);
        assert!(dir.join("entry.tmp12345-7").exists());
        assert!(!dir.join("entry.stats").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dist_board_and_lease_files_are_never_touched() {
        let dir = tmpdir("dist");
        put(&dir, "entry.stats", 100, Duration::from_secs(5));
        // Older than every entry: prime LRU victims if they were eligible.
        put(&dir, "0123456789abcdef.job", 200, Duration::from_secs(1));
        put(
            &dir,
            "0123456789abcdef.w1.lease",
            200,
            Duration::from_secs(2),
        );
        put(&dir, "0123456789abcdef.done", 200, Duration::from_secs(3));
        assert_eq!(
            dir_usage(&dir).unwrap(),
            DirUsage {
                files: 1,
                bytes: 100
            }
        );
        let outcome = gc_dirs(std::slice::from_ref(&dir), 0).unwrap();
        assert_eq!(outcome.deleted_files, 1);
        assert!(dir.join("0123456789abcdef.job").exists());
        assert!(dir.join("0123456789abcdef.w1.lease").exists());
        assert!(dir.join("0123456789abcdef.done").exists());
        assert!(!dir.join("entry.stats").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
