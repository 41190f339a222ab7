//! `belenos serve` — run the long-running simulation server.
//!
//! Thin assembly over [`belenos_serve::Server`]: take the listen
//! address and pool and queue sizes from the flags and the result
//! cache's disk tier from the `--store` root, wire the optional cache GC
//! budget to the store's result cache and trace store, install the
//! SIGTERM/SIGINT watcher, and block in the accept loop until a graceful
//! drain completes.

use super::Invocation;
use belenos_serve::{signal, ServeConfig, Server};
use std::sync::atomic::Ordering;
use std::time::Duration;

/// `belenos serve [--addr A] [--serve-workers N] [--queue-depth N]
/// [--op-ceiling N] [--store D [--cache-budget B]]`.
pub fn run(inv: &Invocation) -> Result<(), String> {
    let store = inv.layout();
    let mut config = ServeConfig {
        cache_dir: store.as_ref().map(|store| store.cache_dir()),
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
        if budget > 0 && store.is_none() {
            return Err("--cache-budget: nothing to collect — pass --store DIR".into());
        }
        config.cache_budget_bytes = budget;
        config.gc_dirs = store
            .iter()
            .flat_map(|store| [store.cache_dir(), store.traces_dir()])
            .collect();
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
