//! `belenos cache <stats|gc>` — inspect and bound the `--store` root.
//!
//! Both the disk result cache (the store's `cache/`) and the persistent
//! trace store (its `traces/`) grow without bound; `stats` sizes them
//! and prints the job-board census, and `gc --max-bytes B` evicts
//! least-recently-written entries across *both* until at most `B` bytes
//! remain (in-flight write temps are never touched — see
//! [`belenos_runner::gc`]).

use super::{worker_cmd, Invocation};
use belenos_dist::board_stats;
use belenos_runner::gc;

/// `belenos cache <stats|gc> --store D [--max-bytes B]`.
pub fn run(inv: &Invocation) -> Result<(), String> {
    match inv.positionals.get(1).map(String::as_str) {
        Some("stats") => stats(inv),
        Some("gc") => collect(inv),
        _ => Err("usage: belenos cache <stats|gc> --store D [--max-bytes B]".into()),
    }
}

/// The store's usage, tier by tier, then its job-board census under the
/// effective lease TTL (all zeros for a store that never ran
/// distributed).
fn stats(inv: &Invocation) -> Result<(), String> {
    let store = worker_cmd::dist_config(inv)?;
    let mut total = gc::DirUsage::default();
    for dir in [store.cache_dir(), store.traces_dir()] {
        let usage = gc::dir_usage(&dir).map_err(|e| format!("cache: {}: {e}", dir.display()))?;
        println!(
            "{:<40} {:>8} file(s) {:>14} bytes",
            dir.display(),
            usage.files,
            usage.bytes
        );
        total.files += usage.files;
        total.bytes += usage.bytes;
    }
    println!(
        "{:<40} {:>8} file(s) {:>14} bytes",
        "total", total.files, total.bytes
    );
    let board = board_stats(&store.dir, store.lease_ttl);
    println!(
        "job board: {} open, {} claimed ({} stale at ttl {:.1}s), {} done",
        board.open,
        board.claimed,
        board.stale,
        store.lease_ttl.as_secs_f64(),
        board.done
    );
    Ok(())
}

fn collect(inv: &Invocation) -> Result<(), String> {
    let Some(max_bytes) = inv.max_bytes else {
        return Err("usage: belenos cache gc --max-bytes B (K/M/G suffixes ok)".into());
    };
    let store = worker_cmd::dist_config(inv)?;
    let outcome = gc::gc_dirs(&[store.cache_dir(), store.traces_dir()], max_bytes)
        .map_err(|e| format!("cache gc: {e}"))?;
    println!(
        "deleted {} file(s), {} bytes; {} file(s), {} bytes remain (budget {max_bytes})",
        outcome.deleted_files,
        outcome.deleted_bytes,
        outcome.after().files,
        outcome.after().bytes
    );
    Ok(())
}
