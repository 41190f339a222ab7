//! `belenos serve` — run the long-running simulation server.
//!
//! Thin assembly over [`belenos_serve::Server`]: take the listen
//! address, pool and queue sizes and the result cache's disk tier from
//! the flags, wire the optional cache GC budget to the disk cache and
//! trace store directories, install the SIGTERM/SIGINT watcher, and
//! block in the accept loop until a graceful drain completes.

use super::Invocation;
use belenos_serve::{signal, ServeConfig, Server};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// `belenos serve [--addr A] [--serve-workers N] [--queue-depth N]
/// [--op-ceiling N] [--cache-budget B]`.
pub fn run(inv: &Invocation) -> Result<(), String> {
    let mut config = ServeConfig {
        cache_dir: inv.cache_dir.as_ref().map(PathBuf::from),
        ..ServeConfig::default()
    };
    if let Some(addr) = &inv.addr {
        config.addr = addr.clone();
    }
    if let Some(workers) = inv.serve_workers {
        config.workers = workers;
    }
    if let Some(depth) = inv.queue_depth {
        config.queue_depth = depth;
    }
    if let Some(ceiling) = inv.op_ceiling {
        config.op_budget_ceiling = ceiling;
    }
    if let Some(budget) = inv.cache_budget {
        let dirs = store_dirs(inv);
        if budget > 0 && dirs.is_empty() {
            return Err(
                "--cache-budget: nothing to collect — pass --cache-dir and/or --trace-dir".into(),
            );
        }
        config.cache_budget_bytes = budget;
        config.gc_dirs = dirs;
    }
    let server = Server::bind(config).map_err(|e| format!("serve: could not bind: {e}"))?;
    let handle = server.handle();
    eprintln!("belenos serve: listening on http://{}", server.local_addr());

    // SIGTERM/SIGINT → graceful drain: the handler just flips a flag;
    // this watcher turns the flag into a shutdown request.
    let term = signal::termination_flag();
    let watcher = handle.clone();
    std::thread::Builder::new()
        .name("serve-signals".into())
        .spawn(move || loop {
            if term.load(Ordering::SeqCst) {
                eprintln!("belenos serve: termination signal, draining");
                watcher.shutdown();
                return;
            }
            if watcher.is_shutdown() {
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        })
        .map_err(|e| format!("serve: could not spawn signal watcher: {e}"))?;

    server.run().map_err(|e| format!("serve: {e}"))?;
    eprintln!("belenos serve: drained, exiting");
    Ok(())
}

/// The disk stores a cache budget governs: the result cache and the
/// trace store, whichever are configured.
pub(crate) fn store_dirs(inv: &Invocation) -> Vec<PathBuf> {
    [&inv.cache_dir, &inv.trace_dir]
        .into_iter()
        .flatten()
        .map(PathBuf::from)
        .collect()
}
