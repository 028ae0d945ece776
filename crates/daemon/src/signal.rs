//! SIGTERM/SIGINT handling for the daemon: a signal flips one global
//! `AtomicBool`, nothing more. The accept loop checks it after every
//! accept and every time its receive timeout expires, so an idle daemon
//! notices a signal within 150 ms (the server's `READ_POLL`).
//!
//! This is the crate's only unsafe code (registering a handler with
//! `signal(2)` is FFI against the already-linked C library, the same
//! pattern as the store's hand-rolled `mmap` wrapper). The handler body
//! is a single relaxed-to-release atomic store — async-signal-safe by
//! construction: no allocation, no locks, no I/O.
//!
//! The flag is process-global (signals are), so it is a *request* every
//! running [`Daemon`](crate::server::Daemon) observes, alongside its own
//! per-daemon shutdown flag. [`clear`] resets it (a freshly bound daemon
//! starts with a clean slate so a flag left over from a previous run in
//! the same process cannot stop it instantly).

use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Whether a termination signal has been seen since the last [`clear`].
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::Acquire)
}

/// Reset the shutdown flag.
pub fn clear() {
    SHUTDOWN.store(false, Ordering::Release);
}

#[cfg(unix)]
mod sys {
    pub const SIGINT: i32 = 2;
    pub const SIGTERM: i32 = 15;

    /// The C handler type `signal(2)` takes.
    pub type Handler = extern "C" fn(i32);

    extern "C" {
        /// `signal(2)` — returns the previous handler (ignored here).
        pub fn signal(signum: i32, handler: Handler) -> usize;
    }
}

#[cfg(unix)]
extern "C" fn on_signal(_signum: i32) {
    // Only an atomic store: the one operation unconditionally
    // async-signal-safe.
    SHUTDOWN.store(true, Ordering::Release);
}

/// Install the SIGTERM/SIGINT handler. Idempotent; later installs simply
/// re-register the same handler. On non-Unix targets this is a no-op (the
/// daemon itself is Unix-only, but the crate must still compile).
pub fn install() {
    #[cfg(unix)]
    {
        // SAFETY: `signal` is the C library's own registration call with
        // the signature declared above; `on_signal` is an `extern "C"`
        // function whose body is a single atomic store, making it valid
        // as an async signal handler. No Rust state is accessed from the
        // handler beyond the static atomic.
        unsafe {
            let _ = sys::signal(sys::SIGTERM, on_signal);
            let _ = sys::signal(sys::SIGINT, on_signal);
        }
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;

    extern "C" {
        fn raise(signum: i32) -> i32;
    }

    #[test]
    fn a_real_sigterm_sets_the_flag_and_does_not_kill_the_process() {
        install();
        clear();
        assert!(!shutdown_requested());
        // SAFETY: `raise` delivers SIGTERM to this process; the handler
        // installed above intercepts it (an atomic store), so the process
        // survives and we can observe the flag.
        let rc = unsafe { raise(sys::SIGTERM) };
        assert_eq!(rc, 0);
        assert!(shutdown_requested());
        clear();
    }
}
