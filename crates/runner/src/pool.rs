//! A persistent, bounded worker pool with drain-and-join shutdown.
//!
//! [`Runner::run`](crate::Runner::run) spawns a *scoped* pool per batch
//! — correct for a CLI that runs one batch and exits, but a long-running
//! server needs workers that outlive any single request and, crucially,
//! that are **joined** when the owner goes away: a detached worker
//! mid-simulation at process exit can be killed halfway through a disk
//! cache write-then-rename (harmless for readers, but it leaks `.tmp`
//! files and wastes the work). [`WorkerPool`] is that long-lived pool:
//!
//! * a bounded queue ([`WorkerPool::try_submit`] rejects with
//!   [`PoolFull`] instead of growing without limit — the server's
//!   admission-control backpressure signal);
//! * [`WorkerPool::pause`] holds queued tasks without dropping them (the
//!   deterministic test seam for dedup/queue-full races, and an
//!   operational drain valve);
//! * dropping the pool **drains and joins**: every accepted task still
//!   runs, then every worker thread is joined, so no thread outlives the
//!   pool. `belenos serve` relies on this for graceful SIGTERM shutdown.
//!
//! Task panics are contained per task (a panicking task must not
//! permanently shrink the pool). Workers run under the telemetry handle
//! that was current where the pool was built; a task may scope its own.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Task = Box<dyn FnOnce() + Send + 'static>;

/// The queue is at capacity; retry after some tasks complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolFull {
    /// Tasks waiting in the queue (== the configured capacity).
    pub queued: usize,
    /// The queue capacity the pool was built with.
    pub capacity: usize,
}

impl std::fmt::Display for PoolFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker pool queue is full ({}/{} task(s) queued)",
            self.queued, self.capacity
        )
    }
}

impl std::error::Error for PoolFull {}

#[derive(Default)]
struct Queue {
    tasks: VecDeque<Task>,
    paused: bool,
    stopping: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    /// Workers wait here for tasks; submitters/drainers notify.
    work: Condvar,
    /// Drainers wait here for "queue empty and nothing running".
    idle: Condvar,
    running: AtomicUsize,
    panicked: AtomicUsize,
    capacity: usize,
}

/// A fixed set of named worker threads pulling from one bounded queue.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads (named `{name}-{i}`) serving a queue of
    /// at most `capacity` waiting tasks.
    ///
    /// # Panics
    ///
    /// When `workers` is 0 or a worker thread cannot be spawned.
    pub fn new(name: &str, workers: usize, capacity: usize) -> WorkerPool {
        assert!(workers >= 1, "worker pool needs at least one worker");
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue::default()),
            work: Condvar::new(),
            idle: Condvar::new(),
            running: AtomicUsize::new(0),
            panicked: AtomicUsize::new(0),
            capacity,
        });
        let tele = belenos_telemetry::global();
        let workers = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                let tele = tele.clone();
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || {
                        let _tele = tele.scope();
                        worker_loop(&shared)
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// Enqueues `task`, rejecting with [`PoolFull`] at capacity (the
    /// caller's backpressure signal — nothing blocks).
    ///
    /// # Errors
    ///
    /// [`PoolFull`] when `capacity` tasks are already waiting.
    pub fn try_submit(&self, task: impl FnOnce() + Send + 'static) -> Result<(), PoolFull> {
        let mut q = self.shared.queue.lock().unwrap();
        if q.tasks.len() >= self.shared.capacity {
            return Err(PoolFull {
                queued: q.tasks.len(),
                capacity: self.shared.capacity,
            });
        }
        q.tasks.push_back(Box::new(task));
        drop(q);
        self.shared.work.notify_one();
        Ok(())
    }

    /// Tasks waiting in the queue (not yet picked up).
    pub fn queued(&self) -> usize {
        self.shared.queue.lock().unwrap().tasks.len()
    }

    /// Tasks currently executing on a worker.
    pub fn running(&self) -> usize {
        self.shared.running.load(Ordering::SeqCst)
    }

    /// Tasks that panicked (each contained to its own task).
    pub fn panicked(&self) -> usize {
        self.shared.panicked.load(Ordering::SeqCst)
    }

    /// The number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Pauses (`true`) or resumes (`false`) task pickup. Paused workers
    /// finish their current task and then idle; the queue keeps
    /// accepting up to capacity. Dropping a paused pool still drains it
    /// (drop clears the pause).
    pub fn pause(&self, on: bool) {
        self.shared.queue.lock().unwrap().paused = on;
        if !on {
            self.shared.work.notify_all();
        }
    }

    /// Blocks until the queue is empty and no task is running. With the
    /// pool paused this waits only for in-flight tasks (queued ones hold).
    pub fn drain(&self) {
        let mut q = self.shared.queue.lock().unwrap();
        loop {
            let waiting = if q.paused { 0 } else { q.tasks.len() };
            if waiting == 0 && self.shared.running.load(Ordering::SeqCst) == 0 {
                return;
            }
            q = self.shared.idle.wait(q).unwrap();
        }
    }
}

impl Drop for WorkerPool {
    /// Drain-and-join: every accepted task runs, then every worker is
    /// joined — the pool never leaks a detached thread mid-task.
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().unwrap();
            q.paused = false;
            q.stopping = true;
        }
        self.shared.work.notify_all();
        for worker in self.workers.drain(..) {
            // A panicked worker already counted its task; join result
            // itself is not actionable here.
            let _ = worker.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers.len())
            .field("capacity", &self.shared.capacity)
            .field("queued", &self.queued())
            .field("running", &self.running())
            .finish()
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let task = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if !q.paused || q.stopping {
                    if let Some(task) = q.tasks.pop_front() {
                        // Count as running while still under the lock so
                        // `drain` never observes "empty queue, nothing
                        // running" between pop and execution.
                        shared.running.fetch_add(1, Ordering::SeqCst);
                        break Some(task);
                    }
                    if q.stopping {
                        break None;
                    }
                }
                q = shared.work.wait(q).unwrap();
            }
        };
        let Some(task) = task else { return };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
        if outcome.is_err() {
            shared.panicked.fetch_add(1, Ordering::SeqCst);
        }
        shared.running.fetch_sub(1, Ordering::SeqCst);
        shared.idle.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    #[test]
    fn runs_submitted_tasks() {
        let pool = WorkerPool::new("t", 2, 16);
        let count = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let count = count.clone();
            pool.try_submit(move || {
                count.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        pool.drain();
        assert_eq!(count.load(Ordering::SeqCst), 10);
        assert_eq!(pool.queued(), 0);
        assert_eq!(pool.running(), 0);
    }

    #[test]
    fn rejects_past_capacity_while_paused() {
        let pool = WorkerPool::new("t", 1, 2);
        pool.pause(true);
        pool.try_submit(|| {}).unwrap();
        pool.try_submit(|| {}).unwrap();
        let err = pool.try_submit(|| {}).unwrap_err();
        assert_eq!(
            err,
            PoolFull {
                queued: 2,
                capacity: 2
            }
        );
        assert!(err.to_string().contains("2/2"));
        pool.pause(false);
        pool.drain();
        assert!(pool.try_submit(|| {}).is_ok());
    }

    #[test]
    fn drop_drains_queued_tasks_and_joins() {
        let count = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new("t", 1, 64);
            pool.pause(true); // Everything below is still queued at drop.
            for _ in 0..5 {
                let count = count.clone();
                pool.try_submit(move || {
                    std::thread::sleep(Duration::from_millis(2));
                    count.fetch_add(1, Ordering::SeqCst);
                })
                .unwrap();
            }
        }
        // Drop returned only after all five ran on a joined worker.
        assert_eq!(count.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn a_panicking_task_does_not_kill_the_worker() {
        use belenos_telemetry::{capture, global, Telemetry};
        let (pool, _) = capture(|| WorkerPool::new("t", 1, 8));
        // The doomed task scopes a telemetry handle of its own (a
        // disabled one), as a served job does; unwinding must hand the
        // worker back the recording one the pool was built under.
        pool.try_submit(|| {
            let _own = Telemetry::disabled().scope();
            panic!("task boom")
        })
        .unwrap();
        let ran = Arc::new(AtomicBool::new(false));
        let flag = ran.clone();
        pool.try_submit(move || flag.store(global().enabled(), Ordering::SeqCst))
            .unwrap();
        pool.drain();
        assert!(ran.load(Ordering::SeqCst));
        assert_eq!(pool.panicked(), 1);
    }
}
