//! How board participants wait for each other.
//!
//! Threads of one process share a [`Wake`]: a generation counter under a
//! mutex plus a condvar. Whoever changes what another thread is waiting
//! to see — a worker that wrote a done marker, a coordinator that
//! republished a job or raised `stop` — bumps the generation; a waiter
//! remembers the generation it last acted on and sleeps until it moves.
//! Every wait is also timed, because other *processes* (external
//! workers, other coordinators, a lease running out its TTL) change the
//! board without telling anyone; [`Backoff`] paces those timeouts.

use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// First wait of a participant whose only channel is the filesystem.
pub(crate) const BACKOFF_FLOOR: Duration = Duration::from_millis(1);

/// A generation counter to wait on.
#[derive(Default)]
pub(crate) struct Wake {
    generation: Mutex<u64>,
    moved: Condvar,
}

impl Wake {
    fn lock(&self) -> MutexGuard<'_, u64> {
        // Held only to read or add one: nothing can panic under it.
        self.generation.lock().expect("wake mutex is not poisoned")
    }

    /// The generation now. Read it *before* looking at the shared state:
    /// a bump that lands between the look and the wait then ends the wait
    /// at once instead of being lost.
    pub(crate) fn generation(&self) -> u64 {
        *self.lock()
    }

    /// Moves the generation on and wakes every waiter.
    pub(crate) fn notify(&self) {
        *self.lock() += 1;
        self.moved.notify_all();
    }

    /// Blocks until the generation differs from `seen` or `timeout` has
    /// passed; true when it was the generation.
    pub(crate) fn wait(&self, seen: u64, timeout: Duration) -> bool {
        let (generation, _) = self
            .moved
            .wait_timeout_while(self.lock(), timeout, |generation| *generation == seen)
            .expect("wake mutex is not poisoned");
        *generation != seen
    }
}

/// The timeout of successive idle waits: starts at `floor`, doubles up to
/// `ceil`, and falls back to `floor` on progress. A participant that
/// shares a [`Wake`] with everyone it waits for passes `floor == ceil`
/// (the timeout only covers other processes); one that can see progress
/// only by looking at the filesystem starts at [`BACKOFF_FLOOR`], so a
/// result that lands soon is seen soon while the slowest cadence — what a
/// fleet polling one NFS directory costs — stays `ceil`.
pub(crate) struct Backoff {
    floor: Duration,
    ceil: Duration,
    next: Duration,
}

impl Backoff {
    pub(crate) fn new(floor: Duration, ceil: Duration) -> Backoff {
        Backoff {
            floor,
            ceil,
            next: floor,
        }
    }

    /// The timeout to wait now; the one after it is twice as long.
    pub(crate) fn step(&mut self) -> Duration {
        let now = self.next;
        self.next = (now * 2).min(self.ceil);
        now
    }

    /// Something happened: start over from the floor.
    pub(crate) fn reset(&mut self) {
        self.next = self.floor;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn backoff_doubles_to_the_ceiling_and_resets() {
        let mut b = Backoff::new(Duration::from_millis(1), Duration::from_millis(25));
        let steps: Vec<u64> = (0..7).map(|_| b.step().as_millis() as u64).collect();
        assert_eq!(steps, [1, 2, 4, 8, 16, 25, 25]);
        b.reset();
        assert_eq!(b.step(), Duration::from_millis(1));
        let mut flat = Backoff::new(Duration::from_millis(50), Duration::from_millis(50));
        assert_eq!((flat.step(), flat.step()), (flat.ceil, flat.ceil));
    }

    #[test]
    fn a_bump_before_the_wait_is_not_lost_and_a_quiet_wait_times_out() {
        let wake = Arc::new(Wake::default());
        let seen = wake.generation();
        wake.notify();
        // Already moved: returns without waiting out the minute.
        let t0 = Instant::now();
        assert!(wake.wait(seen, Duration::from_secs(60)));
        assert!(t0.elapsed() < Duration::from_secs(10));
        // Nobody bumps: the timeout ends the wait and says so.
        assert!(!wake.wait(wake.generation(), Duration::from_millis(5)));
    }

    #[test]
    fn a_waiter_is_woken_by_another_thread() {
        let wake = Arc::new(Wake::default());
        let seen = wake.generation();
        let waiter = {
            let wake = Arc::clone(&wake);
            std::thread::spawn(move || wake.wait(seen, Duration::from_secs(60)))
        };
        wake.notify();
        assert!(waiter.join().expect("waiter thread"));
    }
}
