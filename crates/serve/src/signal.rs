//! SIGTERM/SIGINT capture for graceful shutdown.
//!
//! Dependency-free (no `libc` crate in the offline build): the module
//! declares the C `signal` entry point itself and installs a handler that
//! does the only thing an async-signal-safe handler may do here — set a
//! flag. The daemon's shutdown watcher polls [`requested`] and runs the
//! actual drain/flush/checkpoint sequence on a normal thread.
//!
//! This is one of the workspace's two audited `unsafe` modules (with the
//! executor's `shims/rayon/src/pool.rs`); the crate root denies
//! `unsafe_code` rather than forbidding it so the lift below stays
//! reviewable, and `parcom-audit` allowlists exactly this file.

use std::sync::atomic::{AtomicBool, Ordering};

static REQUESTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
const SIGINT: i32 = 2;
#[cfg(unix)]
const SIGTERM: i32 = 15;

#[cfg(unix)]
extern "C" fn on_signal(_signum: i32) {
    // Async-signal-safe: one relaxed store, no allocation, no locks. The
    // watcher thread re-reads the flag; no data is published through it.
    REQUESTED.store(true, Ordering::Relaxed); // audit:allow(atomic-ordering)
}

#[cfg(unix)]
extern "C" {
    // ISO C `signal(2)`. `usize` stands in for the handler pointer on both
    // sides; the kernel only ever calls it as `extern "C" fn(i32)`.
    fn signal(signum: i32, handler: usize) -> usize;
}

/// Installs the termination handler for `SIGTERM` and `SIGINT`. Idempotent;
/// a no-op on non-Unix platforms.
pub fn install() {
    #[cfg(unix)]
    // SAFETY: `signal` is the ISO C entry point with the documented
    // signature; the handler passed is a valid `extern "C" fn(i32)` for
    // the life of the process and touches only an atomic flag.
    #[allow(unsafe_code)]
    unsafe {
        signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
        signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
    }
}

/// Whether a termination signal has arrived since [`install`].
pub fn requested() -> bool {
    REQUESTED.load(Ordering::Relaxed) // audit:allow(atomic-ordering)
}
