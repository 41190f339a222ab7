//! `belenos cache <stats|gc>` — inspect and bound the disk stores.
//!
//! Both the disk result cache (`--cache-dir`) and the persistent trace
//! store (`--trace-dir`) grow without bound; `stats` sizes them and `gc
//! --max-bytes B` evicts least-recently-written entries across *both*
//! stores until at most `B` bytes remain (in-flight write temps are
//! never touched — see [`belenos_runner::gc`]).

use super::{serve_cmd::store_dirs, worker_cmd, Invocation};
use belenos_dist::board_stats;
use belenos_runner::gc;

/// `belenos cache <stats|gc> [--max-bytes B]`.
pub fn run(inv: &Invocation) -> Result<(), String> {
    match inv.positionals.get(1).map(String::as_str) {
        Some("stats") => stats(inv),
        Some("gc") => collect(inv),
        _ => Err("usage: belenos cache <stats|gc> [--max-bytes B]".into()),
    }
}

fn dirs_or_usage(inv: &Invocation) -> Result<Vec<std::path::PathBuf>, String> {
    let dirs = store_dirs(inv);
    if dirs.is_empty() {
        return Err("cache: no stores configured — pass --cache-dir and/or --trace-dir".into());
    }
    Ok(dirs)
}

fn stats(inv: &Invocation) -> Result<(), String> {
    // A configured dist dir is a store in its own right: its census
    // prints even when no cache/trace store is configured separately.
    let dist = &inv.dist_dir;
    let dirs = match dirs_or_usage(inv) {
        Ok(dirs) => dirs,
        Err(_) if dist.is_some() => Vec::new(),
        Err(e) => return Err(e),
    };
    let mut total = gc::DirUsage::default();
    for dir in &dirs {
        let usage = gc::dir_usage(dir).map_err(|e| format!("cache: {}: {e}", dir.display()))?;
        println!(
            "{:<40} {:>8} file(s) {:>14} bytes",
            dir.display(),
            usage.files,
            usage.bytes
        );
        total.files += usage.files;
        total.bytes += usage.bytes;
    }
    if !dirs.is_empty() {
        println!(
            "{:<40} {:>8} file(s) {:>14} bytes",
            "total", total.files, total.bytes
        );
    }
    if let Some(dist) = dist {
        dist_stats(inv, dist)?;
    }
    Ok(())
}

/// The `cache stats` job-board census: dist dir size plus the board's
/// open/claimed/stale/done counts under the effective lease TTL.
fn dist_stats(inv: &Invocation, dist: &str) -> Result<(), String> {
    let cfg = worker_cmd::dist_config(inv, "census")?;
    // `dir_usage` is flat by design (the stores it was built for are);
    // the dist dir is all subdirectories, so sum the layout's pieces.
    let mut usage = gc::DirUsage::default();
    for sub in [
        cfg.board_dir(),
        cfg.leases_dir(),
        cfg.done_dir(),
        cfg.cache_dir(),
        cfg.traces_dir(),
    ] {
        if let Ok(part) = gc::dir_usage(&sub) {
            usage.files += part.files;
            usage.bytes += part.bytes;
        }
    }
    let board = board_stats(&cfg.dir, cfg.lease_ttl);
    println!(
        "dist {:<35} {:>8} file(s) {:>14} bytes",
        dist, usage.files, usage.bytes
    );
    println!(
        "  job board: {} open, {} claimed ({} stale at ttl {:.1}s), {} done",
        board.open,
        board.claimed,
        board.stale,
        cfg.lease_ttl.as_secs_f64(),
        board.done
    );
    Ok(())
}

fn collect(inv: &Invocation) -> Result<(), String> {
    let Some(max_bytes) = inv.max_bytes else {
        return Err("usage: belenos cache gc --max-bytes B (K/M/G suffixes ok)".into());
    };
    let dirs = dirs_or_usage(inv)?;
    let outcome = gc::gc_dirs(&dirs, max_bytes).map_err(|e| format!("cache gc: {e}"))?;
    println!(
        "deleted {} file(s), {} bytes; {} file(s), {} bytes remain (budget {max_bytes})",
        outcome.deleted_files,
        outcome.deleted_bytes,
        outcome.after().files,
        outcome.after().bytes
    );
    Ok(())
}
