//! The two decisions every on-disk tier shares — `.stats` results, trace
//! artifacts, board and done documents: how an entry becomes visible to
//! other threads and processes ([`write_atomic`]), and what a reader
//! does with an entry it cannot trust ([`Miss`]).

use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Writes `bytes` to `path` so that a concurrent reader sees the old
/// entry, no entry, or the whole new one — never part of it.
///
/// The bytes go to a temp beside `path` that no other call shares —
/// `create_new` under `<stem>.tmp<pid>-<n>`, `n` from a process-wide
/// counter, skipping a name another host's same-pid process or a
/// crashed run already holds — and the temp is renamed over `path`. GC
/// and the board census skip `*.tmp*`, so an in-flight temp is never
/// counted or deleted.
///
/// # Errors
///
/// The underlying create, write or rename failure; the temp is removed
/// first, so a failed write leaves nothing behind.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let (tmp, mut file) = loop {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let tmp = path.with_extension(format!("tmp{}-{n}", std::process::id()));
        match std::fs::File::create_new(&tmp) {
            Ok(file) => break (tmp, file),
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(e),
        }
    };
    let written = file.write_all(bytes);
    drop(file);
    let result = written.and_then(|()| std::fs::rename(&tmp, path));
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Why a lookup did not yield an entry. Every tier recomputes and
/// rewrites on any of these; the reason only says what was found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Miss {
    /// No file at this key: never written, or deleted since (an evicted
    /// entry is indistinguishable from one that never existed).
    Absent,
    /// The file exists but could not be read.
    Unreadable,
    /// The file ends before the content it declares.
    Truncated,
    /// Written in a format version this build does not read.
    Version,
    /// A checksum does not match the bytes it covers.
    Checksum,
    /// Not an entry of this tier, or structurally invalid content.
    Malformed,
    /// A valid entry keyed for something else (misfiled).
    Key,
    /// Content that does not reproduce the fingerprint it carries
    /// (stale).
    Fingerprint,
}

impl Miss {
    /// The `reason` field value of the miss counter.
    pub fn reason(self) -> &'static str {
        match self {
            Miss::Absent => "absent",
            Miss::Unreadable => "unreadable",
            Miss::Truncated => "truncated",
            Miss::Version => "version",
            Miss::Checksum => "checksum",
            Miss::Malformed => "malformed",
            Miss::Key => "key",
            Miss::Fingerprint => "fingerprint",
        }
    }

    /// Counts the miss on `counter` (tagged with `workload` and
    /// `reason`) and, unless the entry was simply absent, warns that
    /// the entry at `path` is being discarded.
    pub fn report(self, counter: &str, workload: &str, path: &Path) {
        let tele = belenos_telemetry::global();
        tele.counter(
            counter,
            1,
            &[
                ("workload", workload.into()),
                ("reason", self.reason().into()),
            ],
        );
        if self != Miss::Absent {
            tele.warn(&format!(
                "discarding {} ({}); recomputing",
                path.display(),
                self.reason()
            ));
        }
    }
}

/// A failed open or read, classified: a missing file is [`Miss::Absent`],
/// a short one [`Miss::Truncated`], non-UTF-8 text [`Miss::Malformed`].
impl From<io::Error> for Miss {
    fn from(e: io::Error) -> Miss {
        match e.kind() {
            io::ErrorKind::NotFound => Miss::Absent,
            io::ErrorKind::UnexpectedEof => Miss::Truncated,
            io::ErrorKind::InvalidData => Miss::Malformed,
            _ => Miss::Unreadable,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_write_leaves_no_temp_and_a_good_one_only_the_entry() {
        let dir = std::env::temp_dir().join(format!("belenos-entry-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // A directory where the entry should go: the rename must fail.
        std::fs::create_dir_all(dir.join("taken.bin")).unwrap();
        assert!(write_atomic(&dir.join("taken.bin"), b"x").is_err());
        write_atomic(&dir.join("entry.bin"), b"whole").unwrap();
        assert_eq!(std::fs::read(dir.join("entry.bin")).unwrap(), b"whole");
        let mut names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(names, ["entry.bin", "taken.bin"]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
