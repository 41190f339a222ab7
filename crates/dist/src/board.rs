//! The shared-filesystem job board: layout, documents, and the
//! lease-based claiming protocol.
//!
//! Every primitive here reduces to `rename(2)` — the one filesystem
//! operation that is atomic on POSIX (and on the NFS close-to-open
//! semantics shared scratch directories provide). A job moves through
//! exactly three states, each a file in a different subdirectory:
//!
//! ```text
//! board/<digest>.job  --claim-->  leases/<digest>.<worker>.lease
//! leases/...          --done--->  done/<digest>.done   (+ cache entry)
//! ```
//!
//! The job document travels *with* the rename: a claimed lease file
//! still contains the full job description, so a steal hands the
//! thief everything it needs with no extra read from the dead worker.

use belenos_json::schema::{self, Hex, Record, Rule, Version, Walker};
use belenos_json::{Json, JsonError};
use belenos_runner::entry::write_atomic;
use belenos_runner::DistJob;
use belenos_uarch::{CoreConfig, Fnv64, SamplingConfig};
use belenos_workloads::scenario::{Family, ScenarioSpec};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, SystemTime};

/// Configuration of one dist-directory participant (worker or
/// coordinator): where the board lives, who we are, and the lease
/// timing knobs.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Root of the shared dist directory.
    pub dir: PathBuf,
    /// This participant's worker name (sanitized: it becomes part of
    /// lease file names).
    pub worker: String,
    /// A lease whose mtime is older than this is considered abandoned
    /// and may be stolen by any worker.
    pub lease_ttl: Duration,
    /// Interval between mtime refreshes on a held lease. Must be
    /// comfortably below `lease_ttl` (the default is a quarter of it).
    pub heartbeat: Duration,
}

/// Default lease TTL: long enough that a heartbeat thread descheduled
/// by a loaded host does not get robbed, short enough that a SIGKILLed
/// worker's jobs restart promptly.
pub const DEFAULT_LEASE_TTL: Duration = Duration::from_secs(30);

impl DistConfig {
    /// A config rooted at `dir` for worker `name` with the default
    /// 30 s TTL / 7.5 s heartbeat.
    pub fn new(dir: impl Into<PathBuf>, name: &str) -> Self {
        DistConfig {
            dir: dir.into(),
            worker: sanitize_worker(name),
            lease_ttl: DEFAULT_LEASE_TTL,
            heartbeat: DEFAULT_LEASE_TTL / 4,
        }
    }

    /// Overrides the lease TTL; the heartbeat follows to a quarter of
    /// the new TTL (call [`DistConfig::with_heartbeat`] after this to
    /// pin it independently).
    pub fn with_lease_ttl(mut self, ttl: Duration) -> Self {
        self.lease_ttl = ttl.max(Duration::from_millis(1));
        self.heartbeat = self.lease_ttl / 4;
        self
    }

    /// Overrides the heartbeat interval.
    pub fn with_heartbeat(mut self, interval: Duration) -> Self {
        self.heartbeat = interval.max(Duration::from_millis(1));
        self
    }

    /// `<dir>/board` — open (claimable) job documents.
    pub fn board_dir(&self) -> PathBuf {
        self.dir.join("board")
    }

    /// `<dir>/leases` — claimed jobs; file mtime is the heartbeat.
    pub fn leases_dir(&self) -> PathBuf {
        self.dir.join("leases")
    }

    /// `<dir>/done` — completion markers.
    pub fn done_dir(&self) -> PathBuf {
        self.dir.join("done")
    }

    /// `<dir>/cache` — the shared content-addressed result cache.
    pub fn cache_dir(&self) -> PathBuf {
        self.dir.join("cache")
    }

    /// `<dir>/traces` — the shared persistent trace store.
    pub fn traces_dir(&self) -> PathBuf {
        self.dir.join("traces")
    }

    /// Creates the board/leases/done/cache/traces subdirectories.
    ///
    /// # Errors
    ///
    /// The first `create_dir_all` failure (permissions, a file where
    /// the dist dir should be, ...).
    pub fn ensure_layout(&self) -> io::Result<()> {
        for d in [
            self.board_dir(),
            self.leases_dir(),
            self.done_dir(),
            self.cache_dir(),
            self.traces_dir(),
        ] {
            std::fs::create_dir_all(d)?;
        }
        Ok(())
    }

    /// Path of `digest`'s open board entry.
    pub fn board_path(&self, digest: u64) -> PathBuf {
        self.board_dir().join(format!("{digest:016x}.job"))
    }

    /// Path of *our* lease on `digest`.
    pub fn lease_path(&self, digest: u64) -> PathBuf {
        self.leases_dir()
            .join(format!("{digest:016x}.{}.lease", self.worker))
    }

    /// Path of `digest`'s completion marker.
    pub fn done_path(&self, digest: u64) -> PathBuf {
        self.done_dir().join(format!("{digest:016x}.done"))
    }
}

/// Makes `name` safe to embed in lease file names: anything outside
/// `[A-Za-z0-9_-]` becomes `-` (dots in particular would break the
/// `digest.worker.lease` field split).
pub fn sanitize_worker(name: &str) -> String {
    let cleaned: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '-'
            }
        })
        .collect();
    if cleaned.is_empty() {
        "worker".to_string()
    } else {
        cleaned
    }
}

// --- documents ----------------------------------------------------------

/// A published job: everything a worker in another process needs to
/// reproduce one simulation bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct JobDoc {
    /// [`CacheKey::address`](belenos_runner::CacheKey::address) of the
    /// simulation — names the board entry and the cache entry.
    pub digest: u64,
    /// Workload identifier (cache-key component).
    pub workload: String,
    /// Human-readable job label (progress lines only).
    pub label: String,
    /// The scenario to prepare (validated explicit normal form).
    pub scenario: ScenarioSpec,
    /// Machine configuration to simulate under.
    pub config: CoreConfig,
    /// Micro-op budget.
    pub max_ops: usize,
    /// Trace-sampling strategy.
    pub sampling: SamplingConfig,
}

// The wire form: version stamp, keys and order. The digest rides as a hex
// string (JSON numbers would round a 64-bit address); the configuration
// is a nested record, so a document must spell out every field of it.
impl Record for JobDoc {
    fn walk<W: Walker>(&self, w: &mut W) -> Result<Self, JsonError> {
        w.leaf("v", &Version::<1>, Rule::Any)?;
        Ok(JobDoc {
            digest: w.leaf("digest", &Hex(self.digest), Rule::Any)?.0,
            workload: w.leaf("workload", &self.workload, Rule::Any)?,
            label: w.leaf("label", &self.label, Rule::Any)?,
            max_ops: w.leaf("max_ops", &self.max_ops, Rule::Any)?,
            sampling: w.leaf("sampling", &self.sampling, Rule::Any)?,
            config: w.nested("config", &self.config)?,
            scenario: w.leaf("scenario", &self.scenario, Rule::Any)?,
        })
    }
}

impl JobDoc {
    /// Builds the publishable document for one [`DistJob`].
    ///
    /// # Errors
    ///
    /// A message when the job's scenario document does not parse — a
    /// workload whose [`scenario_json`](belenos_runner::Simulate::scenario_json)
    /// emits something its own parser rejects is a bug worth naming.
    pub fn from_dist_job(job: &DistJob<'_>) -> Result<JobDoc, String> {
        let scenario = ScenarioSpec::parse(&job.scenario)
            .map_err(|e| format!("job '{}': unpublishable scenario: {e}", job.spec.label))?;
        Ok(JobDoc {
            digest: job.key.address(),
            workload: job.key.workload.clone(),
            label: job.spec.label.clone(),
            scenario,
            config: job.spec.config.clone(),
            max_ops: job.spec.max_ops,
            sampling: job.spec.sampling.clone(),
        })
    }

    /// Serializes to the versioned wire form (pretty JSON — these files
    /// are what an operator inspects when a campaign wedges).
    pub fn encode(&self) -> String {
        schema::write(self).pretty()
    }

    /// Parses and validates the wire form: every field present, then the
    /// scenario and the machine checked the way a worker would need them.
    ///
    /// # Errors
    ///
    /// A message naming the malformed field; a job that fails here is
    /// reported as a failed job, never silently dropped.
    pub fn decode(text: &str) -> Result<JobDoc, String> {
        // Every field must be present, so what the document is read over
        // never shows through.
        let shape = JobDoc {
            digest: 0,
            workload: String::new(),
            label: String::new(),
            scenario: ScenarioSpec::new("", Family::Eye { iop: 0.0 }),
            config: CoreConfig::gem5_baseline(),
            max_ops: 0,
            sampling: SamplingConfig::off(),
        };
        let doc = Json::parse(text)
            .and_then(|v| schema::read_exact(&shape, &v, ""))
            .map_err(|e| format!("job document: {e}"))?;
        doc.scenario
            .validate()
            .map_err(|e| format!("job scenario: {e}"))?;
        // A zero way count or line size would divide by zero inside the
        // worker's simulator: refuse the document instead.
        doc.config
            .validate()
            .map_err(|e| format!("job document: {e}"))?;
        Ok(doc)
    }
}

/// A completion marker: who finished the job, how long it took, and
/// whether the simulation failed (in which case there is no cache
/// entry and `error` carries the panic message).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DoneDoc {
    /// Digest of the finished job.
    pub digest: u64,
    /// Worker that executed it.
    pub worker: String,
    /// Execution wall time (prepare + simulate) in seconds.
    pub wall_s: f64,
    /// True when the executing worker acquired the job by stealing an
    /// expired lease rather than claiming an open board entry.
    pub stolen: bool,
    /// Panic message when the simulation failed.
    pub error: Option<String>,
}

// The wire form, like a job's: version stamp, hex digest, then the fields.
impl Record for DoneDoc {
    fn walk<W: Walker>(&self, w: &mut W) -> Result<Self, JsonError> {
        w.leaf("v", &Version::<1>, Rule::Any)?;
        Ok(DoneDoc {
            digest: w.leaf("digest", &Hex(self.digest), Rule::Any)?.0,
            worker: w.leaf("worker", &self.worker, Rule::Any)?,
            wall_s: w.leaf("wall_s", &self.wall_s, Rule::Any)?,
            stolen: w.leaf("stolen", &self.stolen, Rule::Any)?,
            error: w.leaf("error", &self.error, Rule::Any)?,
        })
    }
}

impl DoneDoc {
    /// Serializes to the versioned wire form.
    pub fn encode(&self) -> String {
        schema::write(self).pretty()
    }

    /// Parses the wire form; every field must be present.
    ///
    /// # Errors
    ///
    /// A message naming the malformed field.
    pub fn decode(text: &str) -> Result<DoneDoc, String> {
        Json::parse(text)
            .and_then(|v| schema::read_exact(&DoneDoc::default(), &v, ""))
            .map_err(|e| format!("done marker: {e}"))
    }
}

// --- filesystem protocol ------------------------------------------------

/// Publishes `doc` as an open board entry (idempotent: re-publishing
/// the same digest atomically replaces the identical document).
///
/// # Errors
///
/// The underlying write failure.
pub fn publish(cfg: &DistConfig, doc: &JobDoc) -> io::Result<()> {
    write_atomic(&cfg.board_path(doc.digest), doc.encode().as_bytes())
}

/// Writes `digest`'s completion marker.
///
/// # Errors
///
/// The underlying write failure.
pub fn write_done(cfg: &DistConfig, doc: &DoneDoc) -> io::Result<()> {
    write_atomic(&cfg.done_path(doc.digest), doc.encode().as_bytes())
}

/// Removes our lease on `digest` (best-effort: a stolen lease is
/// already gone, and that is fine).
pub fn remove_lease(cfg: &DistConfig, digest: u64) {
    let _ = std::fs::remove_file(cfg.lease_path(digest));
}

/// Digests of all open board entries, ascending.
pub fn board_digests(cfg: &DistConfig) -> Vec<u64> {
    let mut out = Vec::new();
    if let Ok(entries) = std::fs::read_dir(cfg.board_dir()) {
        for entry in entries.flatten() {
            if let Some(d) = parse_digest_prefix(&entry.file_name(), "job") {
                out.push(d);
            }
        }
    }
    out.sort_unstable();
    out
}

/// One lease observed on the board: whose it is and how stale.
#[derive(Debug, Clone)]
pub struct LeaseInfo {
    /// Digest of the claimed job.
    pub digest: u64,
    /// Owning worker name.
    pub worker: String,
    /// Time since the last heartbeat (mtime refresh).
    pub age: Duration,
}

/// All current leases (unordered; age measured against `now`).
pub fn leases(cfg: &DistConfig) -> Vec<LeaseInfo> {
    let mut out = Vec::new();
    let now = SystemTime::now();
    if let Ok(entries) = std::fs::read_dir(cfg.leases_dir()) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some((digest, worker)) = parse_lease_name(&name) else {
                continue;
            };
            let age = entry
                .metadata()
                .and_then(|m| m.modified())
                .ok()
                .and_then(|mtime| now.duration_since(mtime).ok())
                .unwrap_or(Duration::ZERO);
            out.push(LeaseInfo {
                digest,
                worker,
                age,
            });
        }
    }
    out
}

/// A job this worker now owns: the digest, the parsed document (or the
/// reason it would not parse — reported as a failed job, not dropped),
/// and how it was acquired.
#[derive(Debug)]
pub struct ClaimedJob {
    /// Digest of the job (names the lease we hold).
    pub digest: u64,
    /// The job document read out of our lease file.
    pub doc: Result<JobDoc, String>,
    /// True when acquired by stealing an expired lease.
    pub stolen: bool,
}

/// Tries to claim one open board entry.
///
/// Scanning starts at a per-worker rotation point (hash of the worker
/// name) so N workers hitting a freshly published board fan out over
/// different entries instead of all racing for the lexicographically
/// first one. The claim itself is `rename`: exactly one racer wins.
///
/// The freshly claimed lease's mtime is touched immediately — rename
/// preserves the *board entry's* mtime, and a board entry can have sat
/// open for longer than any TTL.
pub fn claim_open(cfg: &DistConfig) -> Option<ClaimedJob> {
    let digests = board_digests(cfg);
    if digests.is_empty() {
        return None;
    }
    let start = (worker_hash(&cfg.worker) % digests.len() as u64) as usize;
    for i in 0..digests.len() {
        let digest = digests[(start + i) % digests.len()];
        let lease = cfg.lease_path(digest);
        if std::fs::rename(cfg.board_path(digest), &lease).is_ok() {
            let _ = touch(&lease);
            belenos_telemetry::global().counter("dist_jobs_claimed", 1, &[]);
            return Some(ClaimedJob {
                digest,
                doc: read_doc(&lease),
                stolen: false,
            });
        }
    }
    None
}

/// Tries to steal one lease whose owner has stopped heartbeating.
///
/// Every observed expired lease counts toward `dist_leases_expired`;
/// a successful steal (the same atomic-rename arbitration as claiming)
/// additionally counts `dist_leases_stolen`. Losing the rename race
/// just means another worker — or the original owner finishing late —
/// got there first.
pub fn claim_expired(cfg: &DistConfig) -> Option<ClaimedJob> {
    let tele = belenos_telemetry::global();
    for lease in leases(cfg) {
        if lease.worker == cfg.worker || lease.age < cfg.lease_ttl {
            continue;
        }
        tele.counter("dist_leases_expired", 1, &[]);
        let theirs = cfg
            .leases_dir()
            .join(format!("{:016x}.{}.lease", lease.digest, lease.worker));
        let ours = cfg.lease_path(lease.digest);
        if std::fs::rename(&theirs, &ours).is_ok() {
            // Touch immediately: the rename carried over a >TTL mtime,
            // which would make our fresh claim instantly stealable.
            let _ = touch(&ours);
            tele.counter("dist_leases_stolen", 1, &[]);
            return Some(ClaimedJob {
                digest: lease.digest,
                doc: read_doc(&ours),
                stolen: true,
            });
        }
    }
    None
}

fn read_doc(lease: &Path) -> Result<JobDoc, String> {
    let text =
        std::fs::read_to_string(lease).map_err(|e| format!("lease {}: {e}", lease.display()))?;
    JobDoc::decode(&text)
}

fn worker_hash(name: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(name);
    h.finish()
}

/// Refreshes `path`'s mtime to now (the heartbeat primitive).
///
/// # Errors
///
/// `NotFound` when the lease has been stolen out from under us; any
/// other filesystem failure as-is.
pub fn touch(path: &Path) -> io::Result<()> {
    let file = std::fs::File::options().write(true).open(path)?;
    file.set_modified(SystemTime::now())
}

/// Backdates `path`'s mtime by `age` — test-only hook for forging an
/// abandoned lease without waiting out a real TTL.
pub fn backdate(path: &Path, age: Duration) -> io::Result<()> {
    let file = std::fs::File::options().write(true).open(path)?;
    file.set_modified(SystemTime::now() - age)
}

// --- heartbeat ----------------------------------------------------------

struct HeartbeatShared {
    stop: Mutex<bool>,
    wake: Condvar,
}

/// A background thread keeping one lease alive while its job runs.
///
/// Refreshes the lease mtime every `heartbeat` interval (counter
/// `dist_heartbeats`); a `NotFound` on refresh means the lease was
/// stolen — the thread stops beating, but the job itself keeps running
/// (its result is deterministic and the duplicate cache insert is
/// idempotent). Dropping stops the thread promptly regardless of the
/// interval.
pub struct Heartbeat {
    shared: Arc<HeartbeatShared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Heartbeat {
    /// Starts beating on our lease for `digest`.
    pub fn start(cfg: &DistConfig, digest: u64) -> Heartbeat {
        let shared = Arc::new(HeartbeatShared {
            stop: Mutex::new(false),
            wake: Condvar::new(),
        });
        let path = cfg.lease_path(digest);
        let interval = cfg.heartbeat;
        let thread = {
            let shared = Arc::clone(&shared);
            let tele = belenos_telemetry::global();
            std::thread::spawn(move || {
                let mut stopped = shared.stop.lock().unwrap();
                loop {
                    // Checks `stop` before the first wait too: a job that
                    // ends before this thread gets here has already sent
                    // its one notification.
                    let (guard, _) = shared
                        .wake
                        .wait_timeout_while(stopped, interval, |stop| !*stop)
                        .unwrap();
                    stopped = guard;
                    if *stopped {
                        return;
                    }
                    match touch(&path) {
                        Ok(()) => tele.counter("dist_heartbeats", 1, &[]),
                        Err(e) if e.kind() == io::ErrorKind::NotFound => return,
                        // Transient refresh failures (e.g. an NFS hiccup)
                        // are survivable as long as one lands within TTL.
                        Err(_) => {}
                    }
                }
            })
        };
        Heartbeat {
            shared,
            thread: Some(thread),
        }
    }
}

impl Drop for Heartbeat {
    fn drop(&mut self) {
        *self.shared.stop.lock().unwrap() = true;
        self.shared.wake.notify_all();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

// --- observability ------------------------------------------------------

/// A point-in-time census of one dist directory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BoardStats {
    /// Open (claimable) board entries.
    pub open: usize,
    /// Currently held leases.
    pub claimed: usize,
    /// Leases older than the TTL (stealable right now).
    pub stale: usize,
    /// Completion markers.
    pub done: usize,
}

impl BoardStats {
    /// Total jobs visible on the board in any state.
    pub fn total(&self) -> usize {
        self.open + self.claimed + self.done
    }
}

/// Counts board entries, leases (stale = older than `lease_ttl`) and
/// done markers under `dir`. Missing subdirectories count as empty —
/// pointing this at a not-yet-initialized dist dir is not an error.
pub fn board_stats(dir: &Path, lease_ttl: Duration) -> BoardStats {
    let probe = DistConfig::new(dir, "census").with_lease_ttl(lease_ttl);
    let mut stats = BoardStats {
        open: board_digests(&probe).len(),
        ..BoardStats::default()
    };
    for lease in leases(&probe) {
        stats.claimed += 1;
        if lease.age >= lease_ttl {
            stats.stale += 1;
        }
    }
    if let Ok(entries) = std::fs::read_dir(probe.done_dir()) {
        stats.done += entries
            .flatten()
            .filter(|e| parse_digest_prefix(&e.file_name(), "done").is_some())
            .count();
    }
    stats
}

/// Parses `{16 hex}.{ext}` file names; `None` for anything else (temp
/// files, stray editors' droppings).
fn parse_digest_prefix(name: &std::ffi::OsStr, ext: &str) -> Option<u64> {
    let name = name.to_str()?;
    let stem = name.strip_suffix(&format!(".{ext}"))?;
    if stem.len() != 16 {
        return None;
    }
    u64::from_str_radix(stem, 16).ok()
}

/// Parses `{16 hex}.{worker}.lease` names into (digest, worker).
fn parse_lease_name(name: &std::ffi::OsStr) -> Option<(u64, String)> {
    let name = name.to_str()?;
    let stem = name.strip_suffix(".lease")?;
    let (hex, worker) = stem.split_once('.')?;
    if hex.len() != 16 || worker.is_empty() {
        return None;
    }
    Some((u64::from_str_radix(hex, 16).ok()?, worker.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dist(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("belenos-dist-board-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_doc(digest: u64) -> JobDoc {
        JobDoc {
            digest,
            workload: "pd".to_string(),
            label: "baseline".to_string(),
            scenario: belenos_workloads::by_id("pd").expect("pd preset"),
            config: CoreConfig::gem5_baseline(),
            max_ops: 20_000,
            sampling: SamplingConfig::off(),
        }
    }

    #[test]
    fn job_doc_roundtrips() {
        let doc = sample_doc(0xdead_beef_0123_4567);
        // The wire bytes, captured at 6a2b59a: documents on an existing
        // board must keep decoding and re-encoding to themselves.
        assert_eq!(
            doc.encode(),
            include_str!("../../../tests/golden/specs/job.json")
        );
        let back = JobDoc::decode(&doc.encode()).expect("roundtrip");
        assert_eq!(back.digest, doc.digest);
        assert_eq!(back.workload, doc.workload);
        assert_eq!(back.label, doc.label);
        assert_eq!(back.scenario.stable_digest(), doc.scenario.stable_digest());
        assert_eq!(back.config, doc.config);
        assert_eq!(back.max_ops, doc.max_ops);
        assert_eq!(back.sampling, doc.sampling);
    }

    #[test]
    fn job_doc_rejects_malformed() {
        let good = sample_doc(1).encode();
        assert!(JobDoc::decode("nonsense").is_err());
        assert!(JobDoc::decode(&good.replacen("\"v\": 1", "\"v\": 2", 1)).is_err());
        assert!(JobDoc::decode(&good.replacen("\"digest\"", "\"digset\"", 1)).is_err());
        assert!(JobDoc::decode("5").is_err());
    }

    #[test]
    fn job_doc_refuses_a_machine_no_simulator_can_be_built_from() {
        // Each of these used to decode cleanly and reach a divide-by-zero
        // (or a wedged pipeline) inside the worker.
        // (the key after which to edit, the edit, what the error names)
        let good = sample_doc(1).encode();
        for (after, from, to, names) in [
            (
                "\"l1d\"",
                "\"assoc\": 8",
                "\"assoc\": 0",
                "config.l1d.assoc",
            ),
            (
                "\"l1d\"",
                "\"line_bytes\": 64",
                "\"line_bytes\": 0",
                "config.l1d.line_bytes",
            ),
            (
                "\"l2\"",
                "\"size_bytes\": 1048576",
                "\"size_bytes\": 1000000",
                "config.l2: inconsistent",
            ),
            (
                "\"config\"",
                "\"rob_entries\": 224",
                "\"rob_entries\": 0",
                "config.rob_entries",
            ),
            (
                "\"config\"",
                "\"freq_ghz\": 3",
                "\"freq_ghz\": 0",
                "config.freq_ghz",
            ),
            (
                "\"fu_counts\"",
                "      2\n",
                "      0\n",
                "config.fu_counts[4]",
            ),
        ] {
            let (head, tail) = good.split_once(after).expect(after);
            assert!(tail.contains(from), "{from} not found after {after}");
            let hostile = format!("{head}{after}{}", tail.replacen(from, to, 1));
            let e = JobDoc::decode(&hostile).unwrap_err();
            assert!(e.contains(names), "{from} -> {to}: {e}");
        }
    }

    #[test]
    fn done_doc_roundtrips_with_and_without_error() {
        for error in [None, Some("pipeline wedged".to_string())] {
            let doc = DoneDoc {
                digest: 42,
                worker: "w1".to_string(),
                wall_s: 1.25,
                stolen: true,
                error,
            };
            assert_eq!(DoneDoc::decode(&doc.encode()).unwrap(), doc);
        }
    }

    #[test]
    fn done_doc_wire_bytes_are_pinned() {
        let doc = |error: Option<&str>| DoneDoc {
            digest: 0xdead_beef_0123_4567,
            worker: "w1".to_string(),
            wall_s: 1.25,
            stolen: true,
            error: error.map(str::to_string),
        };
        assert_eq!(
            doc(None).encode(),
            include_str!("../../../tests/golden/specs/done.json")
        );
        assert_eq!(
            doc(Some("pipeline wedged")).encode(),
            include_str!("../../../tests/golden/specs/done_error.json")
        );
    }

    #[test]
    fn sanitize_worker_strips_separators() {
        assert_eq!(sanitize_worker("node-3_a"), "node-3_a");
        assert_eq!(sanitize_worker("host.domain/x"), "host-domain-x");
        assert_eq!(sanitize_worker(""), "worker");
    }

    #[test]
    fn exactly_one_racer_wins_a_claim() {
        let dir = temp_dist("race");
        let w1 = DistConfig::new(&dir, "w1");
        let w2 = DistConfig::new(&dir, "w2");
        w1.ensure_layout().unwrap();
        publish(&w1, &sample_doc(7)).unwrap();

        let (a, b) = std::thread::scope(|s| {
            let t1 = s.spawn(|| claim_open(&w1));
            let t2 = s.spawn(|| claim_open(&w2));
            (t1.join().unwrap(), t2.join().unwrap())
        });
        assert_eq!(
            a.is_some() as usize + b.is_some() as usize,
            1,
            "exactly one of two racing workers must win the rename"
        );
        let winner = a.or(b).unwrap();
        assert_eq!(winner.digest, 7);
        assert_eq!(winner.doc.as_ref().unwrap().workload, "pd");
        assert!(!winner.stolen);
        // The board entry is gone; exactly one lease exists.
        assert!(board_digests(&w1).is_empty());
        assert_eq!(leases(&w1).len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_leases_are_not_stealable_but_expired_ones_are() {
        let dir = temp_dist("steal");
        let victim = DistConfig::new(&dir, "victim").with_lease_ttl(Duration::from_secs(5));
        let thief = DistConfig::new(&dir, "thief").with_lease_ttl(Duration::from_secs(5));
        victim.ensure_layout().unwrap();
        publish(&victim, &sample_doc(9)).unwrap();
        assert!(claim_open(&victim).is_some());

        // Fresh lease: nothing to steal (and our own lease never is).
        assert!(claim_expired(&thief).is_none());
        assert!(claim_expired(&victim).is_none());

        // Backdate past the TTL: now it is fair game.
        backdate(&victim.lease_path(9), Duration::from_secs(30)).unwrap();
        let stolen = claim_expired(&thief).expect("expired lease must be stealable");
        assert!(stolen.stolen);
        assert_eq!(stolen.digest, 9);
        assert_eq!(stolen.doc.unwrap().label, "baseline");
        // The thief's fresh lease is not immediately re-stealable: the
        // steal touched its mtime.
        assert!(claim_expired(&victim).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn heartbeat_keeps_a_slow_job_alive_past_the_ttl() {
        let dir = temp_dist("heartbeat");
        let slow = DistConfig::new(&dir, "slow")
            .with_lease_ttl(Duration::from_millis(150))
            .with_heartbeat(Duration::from_millis(25));
        let thief = DistConfig::new(&dir, "thief").with_lease_ttl(Duration::from_millis(150));
        slow.ensure_layout().unwrap();
        publish(&slow, &sample_doc(11)).unwrap();
        assert!(claim_open(&slow).is_some());

        let hb = Heartbeat::start(&slow, 11);
        // Several TTLs pass; the heartbeat must keep the lease fresh.
        std::thread::sleep(Duration::from_millis(500));
        assert!(
            claim_expired(&thief).is_none(),
            "a heartbeating lease must never be stolen"
        );
        drop(hb);

        // Once the heart stops, the lease ages out and is stolen.
        backdate(&slow.lease_path(11), Duration::from_secs(1)).unwrap();
        assert!(claim_expired(&thief).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn heartbeat_dropped_at_once_does_not_wait_out_its_interval() {
        // No lease file needed: the thread must never get as far as
        // touching one.
        let cfg = DistConfig::new(temp_dist("heartbeat-drop"), "quick")
            .with_heartbeat(Duration::from_secs(5));
        let started = std::time::Instant::now();
        drop(Heartbeat::start(&cfg, 12));
        let joined = started.elapsed();
        assert!(joined < Duration::from_secs(1), "drop took {joined:?}");
    }

    #[test]
    fn board_stats_counts_every_state() {
        let dir = temp_dist("census");
        let cfg = DistConfig::new(&dir, "w1").with_lease_ttl(Duration::from_secs(5));
        cfg.ensure_layout().unwrap();
        publish(&cfg, &sample_doc(1)).unwrap();
        publish(&cfg, &sample_doc(2)).unwrap();
        publish(&cfg, &sample_doc(3)).unwrap();
        // Claim one, expire it; claim another and keep it fresh.
        assert!(claim_open(&cfg).is_some());
        let claimed = leases(&cfg)[0].digest;
        backdate(&cfg.lease_path(claimed), Duration::from_secs(60)).unwrap();
        write_done(
            &cfg,
            &DoneDoc {
                digest: 99,
                worker: "w1".into(),
                wall_s: 0.5,
                stolen: false,
                error: None,
            },
        )
        .unwrap();

        let stats = board_stats(&dir, Duration::from_secs(5));
        assert_eq!(
            stats,
            BoardStats {
                open: 2,
                claimed: 1,
                stale: 1,
                done: 1,
            }
        );
        assert_eq!(stats.total(), 4);
        // Temp droppings and foreign files are invisible to the census.
        std::fs::write(cfg.board_dir().join("x.tmp123"), "junk").unwrap();
        std::fs::write(cfg.board_dir().join("README"), "junk").unwrap();
        assert_eq!(board_stats(&dir, Duration::from_secs(5)).open, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
