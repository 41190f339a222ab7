//! The one executor: how many threads compute at once ([`Budget`]) and
//! what every job of a batch goes through ([`run_batch`]).
//!
//! A budget of size `n` holds `n - 1` *helper* permits — the thread that
//! asks always works itself — and [`Budget::borrow`] never blocks, so
//! nested fan-out (a batch inside a job of a batch, FE assembly inside a
//! prepare job) finds nothing free and runs inline: it cannot deadlock
//! and cannot multiply. Live compute threads stay within top-level
//! callers + `n - 1`. This file is the only place that reads
//! `BELENOS_JOBS` and — FE assembly's own fork-join aside — the only
//! place in runner, core, serve and dist that fans work out over threads.

use belenos_telemetry::Value;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// A count of threads that may compute at once, shared by everything
/// that holds a clone of it: the helper permits nobody holds right now.
#[derive(Debug, Clone)]
pub struct Budget(Arc<AtomicUsize>);

static GLOBAL: OnceLock<Budget> = OnceLock::new();

impl Budget {
    /// A budget of `size` threads: the caller plus `size - 1` helpers.
    ///
    /// # Panics
    ///
    /// When `size` is 0 — the calling thread always counts.
    pub fn new(size: usize) -> Budget {
        assert!(size >= 1, "a budget counts the calling thread: size >= 1");
        Budget(Arc::new(AtomicUsize::new(size - 1)))
    }

    /// The process-wide budget: what [`Budget::install_global`] set,
    /// else `BELENOS_JOBS`, else the machine's available parallelism
    /// (also for a value that is not a count of at least 1, after a
    /// warning). Sized once, on first use.
    pub fn global() -> &'static Budget {
        GLOBAL.get_or_init(|| {
            let asked = std::env::var("BELENOS_JOBS").ok();
            let jobs = asked.as_deref().and_then(|v| v.trim().parse().ok());
            let jobs = jobs.filter(|&n| n >= 1);
            if let (Some(v), None) = (&asked, jobs) {
                belenos_telemetry::global().warn(&format!(
                    "belenos: BELENOS_JOBS={v} not understood; ignored"
                ));
            }
            let cores = || std::thread::available_parallelism().map_or(1, |n| n.get());
            Budget::new(jobs.unwrap_or_else(cores))
        })
    }

    /// Sizes the process-wide budget (the `--jobs` flag, which beats
    /// `BELENOS_JOBS`). Must run before the first [`Budget::global`]
    /// call; returns `false` when the budget already exists (first
    /// caller wins, like `trace_store::install_dir`).
    pub fn install_global(size: usize) -> bool {
        GLOBAL.set(Budget::new(size)).is_ok()
    }

    /// Takes up to `want` helper permits without waiting: what is free
    /// right now, possibly none. They return when the guard drops.
    pub fn borrow(&self, want: usize) -> Permits<'_> {
        let mut count = 0;
        let take = |free: usize| {
            count = want.min(free);
            Some(free - count)
        };
        let _ = self
            .0
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, take);
        Permits {
            budget: self,
            count,
        }
    }
}

/// Helper permits on loan from a [`Budget`]; dropping returns them.
#[derive(Debug)]
pub struct Permits<'a> {
    budget: &'a Budget,
    count: usize,
}

impl Permits<'_> {
    /// Helper threads the holder may run beside itself.
    pub fn count(&self) -> usize {
        self.count
    }
}

impl Drop for Permits<'_> {
    fn drop(&mut self) {
        self.budget.0.fetch_add(self.count, Ordering::SeqCst);
    }
}

/// What one item of a batch came to.
#[derive(Debug)]
pub struct Ran<R> {
    /// The work's result, or the message it panicked with.
    pub outcome: Result<R, String>,
    /// From the start of the batch to a thread picking the item up.
    pub queue_wait: Duration,
    /// From pick-up to the end of the work.
    pub exec: Duration,
}

/// Runs every item through `work`, returning one [`Ran`] per item in
/// input order, and the number of threads that did it.
///
/// The calling thread pulls items off a shared cursor itself; up to
/// `items.len() - 1` helpers borrowed from `budget` do the same inside
/// one `thread::scope`. Items are *picked up* in input order; with a
/// budget of 1, or nothing free to borrow, no thread is started and they
/// also run in exactly that order.
///
/// Each item, on whichever thread picks it up, runs under the caller's
/// current telemetry handle and inside a `job` span parented under
/// `parent` with `fields(item)` plus `queue_wait_s` (built only when
/// telemetry records). A panic in `work` becomes that item's
/// `Err(panic message)`; the other items and the thread carry on.
/// `after` sees each finished item before its span closes.
pub fn run_batch<T, R>(
    budget: &Budget,
    parent: u64,
    items: &[T],
    fields: impl Fn(&T) -> Vec<(&'static str, Value)> + Sync,
    work: impl Fn(&T) -> R + Sync,
    after: impl Fn(&T, &Ran<R>) + Sync,
) -> (Vec<Ran<R>>, usize)
where
    T: Sync,
    R: Send,
{
    let tele = belenos_telemetry::global();
    let start = Instant::now();
    let cursor = AtomicUsize::new(0);
    let helpers = budget.borrow(items.len().saturating_sub(1));
    let threads = 1 + helpers.count();
    let worker = || {
        let _tele = tele.scope();
        let mut rows: Vec<(usize, Ran<R>)> = Vec::with_capacity(items.len().div_ceil(threads));
        loop {
            let slot = cursor.fetch_add(1, Ordering::SeqCst);
            let Some(item) = items.get(slot) else {
                return rows;
            };
            let picked = Instant::now();
            let queue_wait = picked.duration_since(start);
            let _job = tele.enabled().then(|| {
                let mut fields = fields(item);
                fields.push(("queue_wait_s", queue_wait.as_secs_f64().into()));
                tele.span_at(parent, "job", &fields)
            });
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| work(item)))
                .map_err(|payload| panic_message(&*payload).to_string());
            let ran = Ran {
                outcome,
                queue_wait,
                exec: picked.elapsed(),
            };
            after(item, &ran);
            rows.push((slot, ran));
        }
    };
    let mut rows = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..helpers.count()).map(|_| scope.spawn(worker)).collect();
        let mut rows = worker();
        for handle in handles {
            // Only a panic outside `work` — in `after`, or a bug here —
            // ends a helper early; it is the caller's panic too.
            rows.extend(
                handle
                    .join()
                    .unwrap_or_else(|e| std::panic::resume_unwind(e)),
            );
        }
        rows
    });
    rows.sort_unstable_by_key(|&(slot, _)| slot);
    (rows.into_iter().map(|(_, ran)| ran).collect(), threads)
}

/// Runs `f`, turning a panic into `Err("{context}: {panic message}")` —
/// for callers that simulate or prepare *outside* a batch (accuracy
/// harnesses, the dist worker, a served job) and want one wedged
/// simulation to surface as an error line rather than unwind through
/// them.
///
/// # Errors
///
/// The panic message of `f`, prefixed with `context`.
pub fn run_caught<T>(context: &str, f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .map_err(|payload| format!("{context}: {}", panic_message(&*payload)))
}

/// Best-effort human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn borrow_never_exceeds_what_is_free_and_drop_returns_it() {
        let budget = Budget::new(4);
        let a = budget.borrow(2);
        assert_eq!(a.count(), 2);
        let b = budget.clone().borrow(usize::MAX).count();
        assert_eq!(b, 1, "a clone draws on the same permits");
        assert_eq!(budget.borrow(1).count(), 1, "a dropped guard gave back");
        drop(a);
        assert_eq!(budget.borrow(usize::MAX).count(), 3);
        assert_eq!(Budget::new(1).borrow(usize::MAX).count(), 0);
    }

    #[test]
    fn rows_come_back_in_input_order_with_panics_as_errors() {
        let items: Vec<usize> = (0..32).collect();
        let work = |&i: &usize| {
            assert!(i != 7, "seven is out");
            i * 2
        };
        let (rows, threads) =
            run_batch(&Budget::new(3), 0, &items, |_| Vec::new(), work, |_, _| {});
        assert_eq!(threads, 3);
        for (i, ran) in rows.into_iter().enumerate() {
            let expected = if i == 7 {
                Err("seven is out".to_string())
            } else {
                Ok(i * 2)
            };
            assert_eq!(ran.outcome, expected);
        }
    }
}
