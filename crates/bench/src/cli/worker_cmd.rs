//! `belenos worker` — join a distributed campaign as a worker process.
//!
//! Thin assembly over [`belenos_dist::run_worker`]: take the job board
//! and the lease TTL from the `--store` root, install the SIGTERM/SIGINT
//! flag so a drain finishes the in-flight job before exiting, and loop.
//! Results go to the store's `cache/` and traces to its `traces/`,
//! where the coordinator and every other worker read them.

use super::Invocation;
use belenos_dist::{run_worker, DistConfig};
use belenos_serve::signal;
use std::time::SystemTime;

/// `belenos worker --store D [--name ID] [--lease-ttl S]
/// [--idle-timeout S]`.
pub fn run(inv: &Invocation) -> Result<(), String> {
    let cfg = dist_config(inv)?;
    eprintln!(
        "belenos worker {}: board {} (lease-ttl {:.1}s, heartbeat {:.1}s)",
        cfg.worker,
        cfg.dir.display(),
        cfg.lease_ttl.as_secs_f64(),
        cfg.heartbeat.as_secs_f64()
    );
    let stop = signal::termination_flag();
    let summary = run_worker(&cfg, &stop, inv.idle_timeout)
        .map_err(|e| format!("worker: store {}: {e}", cfg.dir.display()))?;
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

/// The `--store` root's layout, for a subcommand that cannot run
/// without one.
///
/// # Errors
///
/// A usage-shaped message when `--store` is not given.
pub(crate) fn dist_config(inv: &Invocation) -> Result<DistConfig, String> {
    inv.layout()
        .ok_or_else(|| "usage: this subcommand needs a store — pass --store DIR".into())
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
