//! `belenos worker` — join a distributed campaign as a worker process.
//!
//! Thin assembly over [`belenos_dist::run_worker`]: resolve the dist
//! directory and lease knobs, point the trace store inside it unless
//! `--trace-dir` chose another, install the SIGTERM/SIGINT flag so a
//! drain finishes the in-flight job before exiting, and loop. Results
//! always go to `<dist>/cache`, where the coordinator reads them.

use super::Invocation;
use belenos_dist::{run_worker, DistConfig};
use belenos_serve::signal;
use std::time::SystemTime;

/// `belenos worker --dist-dir D [--name ID] [--lease-ttl S]
/// [--heartbeat S] [--idle-timeout S]`.
pub fn run(inv: &Invocation) -> Result<(), String> {
    if inv.cache_dir.is_some() {
        return Err(
            "usage: a worker writes its results to <dist>/cache, where the \
             coordinator reads them — drop --cache-dir"
                .into(),
        );
    }
    let cfg = dist_config(inv, &worker_name(inv))?;
    install_shared_traces(inv, &cfg);
    eprintln!(
        "belenos worker {}: board {} (lease-ttl {:.1}s, heartbeat {:.1}s)",
        cfg.worker,
        cfg.dir.display(),
        cfg.lease_ttl.as_secs_f64(),
        cfg.heartbeat.as_secs_f64()
    );
    let stop = signal::termination_flag();
    let summary = run_worker(&cfg, &stop, inv.idle_timeout)
        .map_err(|e| format!("worker: dist dir {}: {e}", cfg.dir.display()))?;
    eprintln!(
        "belenos worker {}: executed {} job(s) ({} stolen, {} failed, {:.2}s busy)",
        summary.worker,
        summary.executed,
        summary.stolen,
        summary.failed,
        summary.busy.as_secs_f64()
    );
    Ok(())
}

/// Resolves `--dist-dir` and the lease knobs into a [`DistConfig`].
///
/// # Errors
///
/// A usage-shaped message when no dist directory is configured.
pub(crate) fn dist_config(inv: &Invocation, worker: &str) -> Result<DistConfig, String> {
    let dir = inv
        .dist_dir
        .as_ref()
        .ok_or("usage: a dist directory is required — pass --dist-dir PATH")?;
    let mut cfg = DistConfig::new(dir, worker);
    if let Some(ttl) = inv.lease_ttl {
        cfg = cfg.with_lease_ttl(ttl);
    }
    if let Some(hb) = inv.heartbeat {
        cfg = cfg.with_heartbeat(hb);
    }
    Ok(cfg)
}

/// Points the trace store into the dist directory unless `--trace-dir`
/// chose another, so every participant resolves a scenario to the same
/// stored trace.
pub(crate) fn install_shared_traces(inv: &Invocation, cfg: &DistConfig) {
    if inv.trace_dir.is_none() {
        belenos::trace_store::install_dir(cfg.traces_dir());
    }
}

/// `--name`, or a name unique enough for one shared board: pid plus a
/// clock-derived suffix (two workers launched the same nanosecond on
/// different hosts still differ by pid).
pub(crate) fn worker_name(inv: &Invocation) -> String {
    if let Some(name) = &inv.worker_name {
        return name.clone();
    }
    let nanos = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.subsec_nanos())
        .unwrap_or(0);
    format!("w{}-{:04x}", std::process::id(), nanos & 0xffff)
}
