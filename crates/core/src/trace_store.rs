//! Persistent content-addressed trace store.
//!
//! [`TraceStore`] keys prepared traces by `ScenarioSpec::stable_digest` ×
//! the [`ExpandConfig`]'s [`expand_fingerprint`] and persists them under
//! `--trace-dir` in the versioned binary format of
//! [`belenos_trace::store`]. A hit lets [`Experiment::prepare`]
//! reconstruct the phase log without building or solving the FE model, so
//! the prepare phase is paid once *ever* per scenario across processes,
//! sweeps, and fleet workers. Entries the program writes are header +
//! kernel log (KBs); the micro-ops are re-expanded from the log, which is
//! cheaper than reading them back.
//!
//! Trust model: the store is a cache, never an authority. Every load
//! recomputes [`trace_fingerprint`] over the decoded log, so
//! a corrupt, truncated, stale, or misfiled entry degrades to a recompute
//! (a `trace_store_miss` carrying the [`Miss`] reason, and a `warn`),
//! never to a wrong trace. Writes go through
//! [`belenos_runner::entry::write_atomic`], so threads and processes
//! sharing one store directory can race safely.
//!
//! [`Experiment::prepare`]: crate::experiment::Experiment::prepare

use belenos_runner::entry::{write_atomic, Miss};
use belenos_trace::expand::ExpandConfig;
use belenos_trace::{expand_fingerprint, trace_fingerprint};
use belenos_trace::{FlatTrace, StoreError, StoreHeader, TraceArtifact, HEADER_LEN};
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// A directory of content-addressed trace artifacts.
#[derive(Debug, Clone)]
pub struct TraceStore {
    dir: PathBuf,
}

static GLOBAL: OnceLock<TraceStore> = OnceLock::new();

/// Routes the process-wide store at `dir` (the `--trace-dir` flag).
///
/// Returns `false` when a store was already installed (first caller
/// wins, matching the telemetry `install` contract).
pub fn install_dir(dir: impl Into<PathBuf>) -> bool {
    GLOBAL.set(TraceStore::at(dir)).is_ok()
}

/// The process-wide trace store: the one [`install_dir`] routed, else
/// `None` (store disabled).
pub fn global() -> Option<&'static TraceStore> {
    GLOBAL.get()
}

impl TraceStore {
    /// A store rooted at `dir` (created lazily on first save).
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        TraceStore { dir: dir.into() }
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// On-disk path of the entry for (scenario, expansion-config).
    pub fn entry_path(&self, scenario_digest: u64, expand: &ExpandConfig) -> PathBuf {
        let expand_fp = expand_fingerprint(expand);
        self.dir
            .join(format!("trace-{scenario_digest:016x}-{expand_fp:016x}.bin"))
    }

    /// Looks up the artifact for (scenario, expansion-config), verifying
    /// structure, key identity, and the trace fingerprint end to end.
    ///
    /// Only the header and log section are read and decoded — KBs. An
    /// entry that carries a flat section (none the program writes does)
    /// also yields a [`FlatHandle`] locating it; `artifact.flat` is
    /// always `None` here.
    ///
    /// Any anomaly reads as a miss, so callers always recompute instead
    /// of erroring out. Emits `trace_store_hit`, or `trace_store_miss`
    /// with the [`Miss`] reason (plus a `warn` unless merely absent).
    pub fn load(
        &self,
        workload: &str,
        scenario_digest: u64,
        expand: &ExpandConfig,
    ) -> Option<(TraceArtifact, Option<FlatHandle>)> {
        let path = self.entry_path(scenario_digest, expand);
        match verify(&path, scenario_digest, expand) {
            Ok((header, artifact)) => {
                belenos_telemetry::global().counter(
                    "trace_store_hit",
                    1,
                    &[("workload", workload.into())],
                );
                let flat = (header.flat_ops > 0).then(|| FlatHandle {
                    path,
                    header,
                    workload: workload.to_string(),
                });
                Some((artifact, flat))
            }
            Err(miss) => {
                miss.report("trace_store_miss", workload, &path);
                None
            }
        }
    }

    /// Persists `artifact` under its content address, atomically (see
    /// [`write_atomic`]: concurrent writers and crashed processes never
    /// leave a half-written entry at the final path).
    ///
    /// Failures warn and return; the store is an optimization, never a
    /// reason to fail a prepare. Emits `trace_store_write_bytes`.
    pub fn save(&self, workload: &str, artifact: &TraceArtifact, expand: &ExpandConfig) {
        let tele = belenos_telemetry::global();
        let path = self.entry_path(artifact.scenario_digest, expand);
        let bytes = artifact.encode();
        match std::fs::create_dir_all(&self.dir).and_then(|()| write_atomic(&path, &bytes)) {
            Ok(()) => tele.counter(
                "trace_store_write_bytes",
                bytes.len() as u64,
                &[("workload", workload.into())],
            ),
            Err(e) => tele.warn(&format!(
                "trace store: writing {} failed: {e}",
                path.display()
            )),
        }
    }
}

/// Locates the flat section of a store entry that carries one. The
/// program neither writes nor opens flat sections any more; this stays
/// only until the benchmark's flat-decode row is retired (ROADMAP).
#[derive(Debug)]
pub struct FlatHandle {
    path: PathBuf,
    header: StoreHeader,
    workload: String,
}

impl FlatHandle {
    /// Reads, verifies, and decodes the flat section. Any failure —
    /// the file changed, truncation, checksum — warns and returns
    /// `None`.
    pub fn read(&self) -> Option<Arc<FlatTrace>> {
        let tele = belenos_telemetry::global();
        let fail = |msg: String| {
            tele.warn(&format!(
                "trace store: flat section of {} for `{}`: {msg}; re-expanding",
                self.path.display(),
                self.workload
            ));
            None
        };
        let mut section = Vec::new();
        match std::fs::File::open(&self.path).and_then(|mut f| {
            f.seek(SeekFrom::Start(self.header.flat_offset()))?;
            f.read_to_end(&mut section)
        }) {
            Ok(_) => {}
            Err(e) => return fail(e.to_string()),
        }
        match TraceArtifact::decode_flat(&self.header, &section) {
            Ok(flat) => Some(Arc::new(flat)),
            Err(e) => fail(e.to_string()),
        }
    }
}

/// Reads the entry at `path` — header and log section only, never the
/// flat bytes — and verifies it end to end: structure, length, key
/// identity, and that the decoded log reproduces the fingerprint the
/// header carries.
fn verify(
    path: &Path,
    scenario_digest: u64,
    expand: &ExpandConfig,
) -> Result<(StoreHeader, TraceArtifact), Miss> {
    let mut file = std::fs::File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut header_bytes = [0u8; HEADER_LEN];
    file.read_exact(&mut header_bytes)?;
    let header = StoreHeader::decode(&header_bytes).map_err(store_miss)?;
    // Declared lengths are outside input until they fit the real file
    // (`StoreHeader::decode` has refused a sum that overflows): check
    // before allocating.
    if header.total_len() != file_len {
        return Err(Miss::Truncated);
    }
    if header.scenario_digest != scenario_digest
        || header.expand_fingerprint != expand_fingerprint(expand)
    {
        return Err(Miss::Key);
    }
    let mut log_section = vec![0u8; header.log_len as usize + 8];
    file.read_exact(&mut log_section)?;
    let artifact = TraceArtifact::decode_log(&header, &log_section).map_err(store_miss)?;
    if trace_fingerprint(&artifact.log, expand) != artifact.trace_fingerprint {
        return Err(Miss::Fingerprint);
    }
    Ok((header, artifact))
}

/// The store format's decode errors as miss reasons.
fn store_miss(e: StoreError) -> Miss {
    match e {
        StoreError::Truncated => Miss::Truncated,
        StoreError::Version { .. } => Miss::Version,
        StoreError::Checksum => Miss::Checksum,
        StoreError::BadMagic | StoreError::Malformed(_) => Miss::Malformed,
    }
}
