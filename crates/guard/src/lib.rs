#![forbid(unsafe_code)]

//! Run budgets, cooperative cancellation and deterministic fault injection.
//!
//! The crate sits next to `parcom-obs` at the bottom of the workspace and is
//! deliberately dependency-free. It provides three things:
//!
//! * [`Budget`] — a wall-clock deadline, a sweep cap, optional input
//!   admission limits, and a cooperative [`CancelToken`], checked by the
//!   detectors at *sweep/level/ensemble-member* granularity. A check is one
//!   relaxed atomic load plus (when a deadline is set) one `Instant`
//!   comparison, so hot loops test it once per sweep or once per N
//!   coarsening merges — never per edge (see DESIGN.md §11).
//! * [`Termination`] — how a guarded run ended. Anything other than
//!   [`Termination::Converged`] means the run was cut short and degraded
//!   gracefully to the best valid partition found so far.
//! * [`faultpoint!`] — a named fault-injection site, compiled to nothing
//!   unless the `fault-inject` feature is on, in which case a seeded
//!   [`fault::FaultPlan`] can make the K-th crossing of a site cancel a
//!   token or panic, deterministically. Tests use this to prove every
//!   abort path releases pooled scratch, poisons no mutex, and still
//!   yields a well-formed result.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub mod fault;

/// Why a guarded run stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Termination {
    /// The algorithm ran to its natural end (convergence or its own
    /// internal iteration caps). The result is exactly what an unguarded
    /// run would have produced.
    Converged,
    /// The budget's sweep cap was reached.
    IterationCap,
    /// The wall-clock deadline passed.
    Deadline,
    /// The [`CancelToken`] was fired from another thread.
    Cancelled,
    /// The input failed budget admission (node/edge limits) before any
    /// work was attempted.
    InputRejected,
}

impl Termination {
    /// Stable kebab-case name, used in run reports and CLI JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            Termination::Converged => "converged",
            Termination::IterationCap => "iteration-cap",
            Termination::Deadline => "deadline",
            Termination::Cancelled => "cancelled",
            Termination::InputRejected => "input-rejected",
        }
    }

    /// Whether the run was cut short (anything but [`Termination::Converged`]).
    pub fn interrupted(self) -> bool {
        self != Termination::Converged
    }
}

impl std::fmt::Display for Termination {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A clonable cooperative cancellation handle: one shared `AtomicBool`.
/// Cloning is cheap (an `Arc` bump); firing any clone cancels them all.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-fired token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fires the token. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether the token has been fired.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// A run budget: deadline, sweep cap, input admission limits and a cancel
/// token. Shared across threads by reference (`&Budget`); the sweep counter
/// is atomic so ensemble members may call [`check_sweep`](Budget::check_sweep)
/// concurrently.
#[derive(Debug)]
pub struct Budget {
    deadline: Option<Instant>,
    max_sweeps: Option<u64>,
    max_nodes: Option<usize>,
    max_edges: Option<usize>,
    sweeps: AtomicU64,
    token: CancelToken,
}

impl Default for Budget {
    fn default() -> Self {
        Self::unlimited()
    }
}

impl Budget {
    /// A budget that never expires: every check passes, [`admits`](Budget::admits)
    /// accepts any input. `detect_guarded` under an unlimited budget is an
    /// unguarded run plus one relaxed load per sweep.
    pub fn unlimited() -> Self {
        Self {
            deadline: None,
            max_sweeps: None,
            max_nodes: None,
            max_edges: None,
            sweeps: AtomicU64::new(0),
            token: CancelToken::new(),
        }
    }

    /// Sets a wall-clock deadline `timeout` from now.
    pub fn with_deadline(mut self, timeout: Duration) -> Self {
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// Caps the total number of sweeps (label-propagation iterations, move
    /// sweeps, merge batches...) counted across the whole run via
    /// [`check_sweep`](Budget::check_sweep).
    pub fn with_max_sweeps(mut self, cap: u64) -> Self {
        self.max_sweeps = Some(cap);
        self
    }

    /// Attaches an externally created cancel token (e.g. one wired to a
    /// signal handler or fired from another thread).
    pub fn with_token(mut self, token: CancelToken) -> Self {
        self.token = token;
        self
    }

    /// Sets input admission limits checked by [`admits`](Budget::admits).
    pub fn with_input_limits(mut self, max_nodes: usize, max_edges: usize) -> Self {
        self.max_nodes = Some(max_nodes);
        self.max_edges = Some(max_edges);
        self
    }

    /// A clone of the budget's cancel token, for handing to another thread.
    pub fn token(&self) -> CancelToken {
        self.token.clone()
    }

    /// The absolute deadline, if one is set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The cheap cooperative check: has the token fired, has the deadline
    /// passed? Call at sweep/level/member boundaries or every N merges —
    /// never per edge. `Err` carries the cause.
    #[inline]
    pub fn check(&self) -> Result<(), Termination> {
        if self.token.is_cancelled() {
            return Err(Termination::Cancelled);
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Err(Termination::Deadline);
            }
        }
        Ok(())
    }

    /// [`check`](Budget::check) plus one sweep consumed from the cap. The
    /// counter is shared across threads and hierarchy levels, so a PLM
    /// recursion or an EPP ensemble draws from one pool.
    #[inline]
    pub fn check_sweep(&self) -> Result<(), Termination> {
        let used = self.sweeps.fetch_add(1, Ordering::Relaxed);
        if let Some(cap) = self.max_sweeps {
            if used >= cap {
                return Err(Termination::IterationCap);
            }
        }
        self.check()
    }

    /// Input admission: reject a graph whose claimed size exceeds the
    /// configured limits *before* anything is allocated for it.
    pub fn admits(&self, nodes: usize, edges: usize) -> Result<(), Termination> {
        if let Some(cap) = self.max_nodes {
            if nodes > cap {
                return Err(Termination::InputRejected);
            }
        }
        if let Some(cap) = self.max_edges {
            if edges > cap {
                return Err(Termination::InputRejected);
            }
        }
        Ok(())
    }
}

/// Amortizes budget checks over fine-grained work: `tick()` returns `true`
/// once every `interval` calls, so a merge loop can run
/// `if pacer.tick() { budget.check()?; }` without paying an `Instant::now`
/// per element.
#[derive(Debug)]
pub struct Pacer {
    interval: u32,
    left: u32,
}

impl Pacer {
    /// A pacer firing every `interval` ticks (the first fire happens after
    /// `interval` calls). `interval` must be non-zero.
    pub fn new(interval: u32) -> Self {
        assert!(interval > 0, "pacer interval must be non-zero");
        Self {
            interval,
            left: interval,
        }
    }

    /// Counts one unit of work; `true` once per `interval` calls.
    #[inline]
    pub fn tick(&mut self) -> bool {
        self.left -= 1;
        if self.left == 0 {
            self.left = self.interval;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_always_passes() {
        let b = Budget::unlimited();
        for _ in 0..1000 {
            assert_eq!(b.check(), Ok(()));
            assert_eq!(b.check_sweep(), Ok(()));
        }
        assert_eq!(b.admits(usize::MAX, usize::MAX), Ok(()));
        assert_eq!(b.sweeps.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn expired_deadline_fails_check() {
        let b = Budget::unlimited().with_deadline(Duration::ZERO);
        assert_eq!(b.check(), Err(Termination::Deadline));
        assert_eq!(b.check_sweep(), Err(Termination::Deadline));
    }

    #[test]
    fn future_deadline_passes() {
        let b = Budget::unlimited().with_deadline(Duration::from_secs(3600));
        assert_eq!(b.check(), Ok(()));
    }

    #[test]
    fn sweep_cap_trips_after_cap_sweeps() {
        let b = Budget::unlimited().with_max_sweeps(3);
        assert_eq!(b.check_sweep(), Ok(()));
        assert_eq!(b.check_sweep(), Ok(()));
        assert_eq!(b.check_sweep(), Ok(()));
        assert_eq!(b.check_sweep(), Err(Termination::IterationCap));
        // plain check() is unaffected by the sweep cap
        assert_eq!(b.check(), Ok(()));
    }

    #[test]
    fn cancel_token_fires_across_clones() {
        let token = CancelToken::new();
        let b = Budget::unlimited().with_token(token.clone());
        assert_eq!(b.check(), Ok(()));
        let remote = b.token();
        let handle = std::thread::spawn(move || remote.cancel());
        handle.join().unwrap();
        assert!(token.is_cancelled());
        assert_eq!(b.check(), Err(Termination::Cancelled));
    }

    #[test]
    fn cancellation_beats_deadline() {
        let b = Budget::unlimited().with_deadline(Duration::ZERO);
        b.token().cancel();
        assert_eq!(b.check(), Err(Termination::Cancelled));
    }

    #[test]
    fn admission_limits() {
        let b = Budget::unlimited().with_input_limits(100, 1000);
        assert_eq!(b.admits(100, 1000), Ok(()));
        assert_eq!(b.admits(101, 0), Err(Termination::InputRejected));
        assert_eq!(b.admits(0, 1001), Err(Termination::InputRejected));
    }

    #[test]
    fn termination_names_are_stable() {
        assert_eq!(Termination::Converged.as_str(), "converged");
        assert_eq!(Termination::IterationCap.as_str(), "iteration-cap");
        assert_eq!(Termination::Deadline.as_str(), "deadline");
        assert_eq!(Termination::Cancelled.as_str(), "cancelled");
        assert_eq!(Termination::InputRejected.as_str(), "input-rejected");
        assert!(!Termination::Converged.interrupted());
        assert!(Termination::Deadline.interrupted());
    }

    #[test]
    fn pacer_fires_every_interval() {
        let mut p = Pacer::new(3);
        let fires: Vec<bool> = (0..7).map(|_| p.tick()).collect();
        assert_eq!(fires, [false, false, true, false, false, true, false]);
    }

    #[test]
    fn faultpoint_compiles_out_by_default() {
        // With fault-inject off this is a no-op; with it on, nothing is
        // armed so the site just counts. Either way: no panic.
        faultpoint!("guard/test-site");
    }
}
