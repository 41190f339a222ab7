//! Termination signals (`SIGTERM`/`SIGINT`) as an `AtomicBool`.
//!
//! The serve CLI wants a graceful drain on `kill -TERM`, and the
//! workspace has no `libc` crate to lean on. `signal(2)` is in every
//! libc the toolchain links anyway, so a two-line `extern "C"`
//! declaration is all the FFI needed. The handler body does the only
//! thing an async-signal-safe handler may: one atomic store. Whoever
//! asked for the flag polls it (`belenos serve` on a watcher thread that
//! turns it into [`ServerHandle::shutdown`](crate::ServerHandle::shutdown),
//! `belenos worker` between jobs).

use std::sync::atomic::AtomicBool;
use std::sync::{Arc, OnceLock};

static FLAG: OnceLock<Arc<AtomicBool>> = OnceLock::new();

#[cfg(unix)]
mod imp {
    use std::sync::atomic::Ordering;

    type SigHandler = extern "C" fn(i32);

    extern "C" {
        fn signal(signum: i32, handler: SigHandler) -> usize;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_signum: i32) {
        // Async-signal-safe: a relaxed-or-stronger atomic store only.
        if let Some(flag) = super::FLAG.get() {
            flag.store(true, Ordering::SeqCst);
        }
    }

    pub fn install() {
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
    }
}

/// Installs the handlers (first call only) and returns the shared flag;
/// it flips to `true` when the process receives SIGTERM or SIGINT. On
/// non-Unix targets the flag simply never flips.
pub fn termination_flag() -> Arc<AtomicBool> {
    FLAG.get_or_init(|| {
        #[cfg(unix)]
        imp::install();
        Arc::new(AtomicBool::new(false))
    })
    .clone()
}
