//! # belenos-dist
//!
//! Distributed, crash-safe campaign execution over a shared filesystem.
//!
//! `belenos-runner` parallelizes within one process; campaigns sweeping
//! the open scenario space outgrow a single host. This crate lets N
//! `belenos worker` processes — on one machine or many sharing a
//! filesystem (NFS, a bind mount, a plain directory) — cooperatively
//! execute one campaign, with the existing content-addressed disk cache
//! as the coordination substrate. No sockets, no daemons, no registry
//! dependencies: the protocol is files and atomic renames.
//!
//! ## The job board
//!
//! A store root (`--store`) holds five subdirectories; the result cache
//! and the trace store are there for every command, the board for a
//! distributed campaign:
//!
//! ```text
//! <store>/
//!   board/   <digest>.job            open jobs, one JSON document each
//!   leases/  <digest>.<worker>.lease claimed jobs; mtime = last heartbeat
//!   done/    <digest>.done           completion markers (worker, wall, error)
//!   cache/   <wl>-<digest>.stats     the shared content-addressed result cache
//!   traces/  ...                     the shared persistent trace store
//! ```
//!
//! The coordinator (`belenos campaign run --distributed`) publishes the
//! cache-miss subset of each batch as board entries keyed by
//! [`CacheKey`](belenos_runner::CacheKey) digest. Each job document is
//! self-contained: the scenario's explicit JSON normal form plus the
//! full machine configuration, budget and sampling strategy — enough
//! for a worker that has never seen the campaign spec to reproduce the
//! simulation bit-for-bit.
//!
//! ## Leases, heartbeats, steals
//!
//! * **Claim** = `rename(board/X.job, leases/X.<me>.lease)`. Rename is
//!   atomic on POSIX filesystems, so exactly one of N racing workers
//!   wins; the losers see `ENOENT` and move on.
//! * **Heartbeat** = refreshing the lease file's mtime every
//!   `heartbeat` interval while the job runs. A slow job stays alive
//!   indefinitely as long as its owner keeps beating.
//! * **Steal** = `rename(leases/X.<other>.lease, leases/X.<me>.lease)`
//!   when the lease mtime is older than `lease_ttl`. A SIGKILLed
//!   worker stops heartbeating, its leases expire, and any live worker
//!   re-runs the jobs — work is re-run, never lost. Stealing is the
//!   same atomic-rename arbitration as claiming.
//! * **Completion** = result written to `cache/` via the runner's
//!   write-then-rename path, then a `done/` marker. A coordinator that
//!   crashes and restarts simply re-plans the campaign: everything
//!   finished is a disk-cache hit and never reaches the board again.
//!
//! ## Waiting
//!
//! Nobody sleeps for a fixed time. A coordinator and its in-process
//! `--local-workers` threads share one generation counter and condvar: a
//! worker bumps it after each done marker and the coordinator sweeps at
//! once; the coordinator bumps it when it republishes a job or is done,
//! and an idle worker looks again or exits at once. Across processes the
//! filesystem is the only channel, so there the wait is timed: 1 ms,
//! doubling while nothing happens up to 25 ms (an idle worker) or 50 ms
//! (a coordinator with no local workers), back to 1 ms on progress. The
//! same 25/50 ms bound every timed wait, so what other processes do to
//! the board is never seen later than it used to be.
//!
//! ## Telemetry
//!
//! Workers emit `dist_jobs_claimed`, `dist_leases_stolen`,
//! `dist_leases_expired` and `dist_heartbeats` counters under a
//! per-worker `worker` root span; the coordinator emits
//! `dist_jobs_published` and — should a job ever go missing from the
//! board — `dist_jobs_republished`, closes its `coordinator` span with
//! `sweeps` and `woken` (how many sweeps a wake started rather than a
//! timeout), and folds a merged
//! cross-worker summary (per-worker job counts, steals, p50/p95 job
//! wall, aggregate cache traffic) into the campaign report's telemetry
//! roll-up.

pub mod board;
pub mod coordinator;
mod wake;
pub mod worker;

pub use board::{board_stats, sanitize_worker, BoardStats, DistConfig, DoneDoc, JobDoc};
pub use coordinator::{Coordinator, MergedSummary, WorkerTally};
pub use worker::{run_worker, WorkerSummary};
