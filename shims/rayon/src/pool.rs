//! The executor: persistent worker threads that every parallel driver in
//! [`crate::iter`] runs on.
//!
//! # Region protocol
//!
//! A *region* is one parallel call: `chunks` indexed pieces of work and a
//! `participant` function that claims piece indices from a shared cursor
//! ([`Claims`]) until none are left. The thread that enters the region (the
//! *caller*) always runs `participant` itself, so a region completes even if
//! no helper ever shows up; the pool's T − 1 *helpers* join it when they
//! notice it.
//!
//! All protocol state lives in one [`Slot`] behind one mutex:
//!
//! 1. **Open.** The caller takes the pool's `busy` gate, then under the
//!    lock stores the job reference, bumps `epoch`, and wakes any parked
//!    helper.
//! 2. **Join.** A helper that sees a new epoch locks the slot. If the job is
//!    still there it increments `running` — in the same critical section in
//!    which it copied the reference — and runs the job outside the lock. If
//!    the region has already closed it skips it: a region never waits for a
//!    sleeper.
//! 3. **Leave.** The helper decrements `running` under the lock and wakes
//!    the caller if it is parked waiting for that.
//! 4. **Close.** The caller, done with its own participation, removes the
//!    job under the lock — from here on nobody can join — and waits until
//!    `running` is zero. Then it releases the gate.
//!
//! Helpers poll for [`SPIN`] after a region before they park on a condvar,
//! and the closing caller polls as long before it parks; an idle pool burns
//! no CPU. The two `*_hint` atomics only let those polls run without the
//! lock; every decision is re-made under it.
//!
//! # Nested and concurrent regions
//!
//! A pool serves **one open region at a time**. A region entered while the
//! gate is taken — from inside a participant (nested parallelism), or from
//! a second OS thread sharing the pool (the daemon's concurrent detects,
//! `cargo test`'s parallel tests on the global pool) — runs on its caller
//! alone: same chunks, same claim loop, no helpers. It cannot deadlock (it
//! waits for nobody) and cannot oversubscribe (it starts nobody).
//!
//! # Panics
//!
//! Every participant runs under `catch_unwind`. The first payload stops the
//! cursor, so no further chunk is claimed; the region still closes normally
//! (every joined helper leaves), and then the first payload resumes on the
//! caller. The pool is left ready for the next region.
//!
//! # The one `unsafe`
//!
//! The job closure borrows the caller's stack, and helpers are threads
//! that outlive the call, so its lifetime has to be erased to hand it
//! over. [`Shared::run`] documents why the reference is dead by the time
//! that borrow ends. It is the only `unsafe` expression in the shim; the
//! fields it relies on are private to this module.

use std::any::Any;
use std::cell::RefCell;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long an idle helper polls for the next region, and a closing caller
/// for its helpers to leave, before parking. PLM's sweeps, the coloring
/// rounds and the per-class proposal passes open regions a few µs apart,
/// while a futex wake costs the waker a syscall and reaches the sleeper
/// ~50 µs later on the 2-vCPU CI box — so polling for about one wake
/// latency keeps back-to-back regions at ≈ 1 µs (`rayon.region_us`, was
/// ≈ 100 with a thread spawned per region) and bounds the burn to 50 µs
/// per worker per sequential gap.
const SPIN: Duration = Duration::from_micros(50);

/// A region's job with the lifetime of the caller's borrow erased.
type Job = &'static (dyn Fn() + Sync);

type Payload = Box<dyn Any + Send>;

/// Locks `m`. Nothing in this crate panics while holding a lock (jobs and
/// chunks run outside it), so a poisoned mutex still guards consistent data.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Polls `cond` for up to [`SPIN`].
fn spin_until(cond: impl Fn() -> bool) {
    let start = Instant::now();
    while start.elapsed() < SPIN {
        for _ in 0..32 {
            if cond() {
                return;
            }
            std::hint::spin_loop();
        }
    }
}

/// The chunk cursor of one region: hands out each index in `0..end` once,
/// to whichever participant asks first.
pub(crate) struct Claims {
    next: AtomicUsize,
    end: usize,
}

impl Claims {
    fn new(end: usize) -> Self {
        Self {
            next: AtomicUsize::new(0),
            end,
        }
    }

    /// The next unclaimed chunk index; `None` once all are claimed or a
    /// participant has panicked. Relaxed: the index publishes nothing — a
    /// chunk's payload and result travel through their own mutexes, and the
    /// region's open/close through the slot lock.
    pub(crate) fn next(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.end).then_some(i)
    }

    /// Makes every later [`next`](Self::next) return `None`.
    fn stop(&self) {
        self.next.store(self.end, Ordering::Relaxed);
    }
}

/// Protocol state; see the module docs.
struct Slot {
    /// The open region's job; `None` between regions and from the moment
    /// the caller starts closing.
    job: Option<Job>,
    /// Bumped whenever there is news for the helpers: a region opened, or
    /// the pool is shutting down.
    epoch: u64,
    /// Helpers that joined the open region and have not left.
    running: usize,
    /// Helpers parked on `wake`.
    sleepers: usize,
    /// The closing caller is parked on `done`.
    closer_parked: bool,
    shutdown: bool,
}

/// What a pool's owner, its helpers and the threads it is installed on
/// share.
pub(crate) struct Shared {
    threads: usize,
    /// The gate: set while a caller owns the pool's one region slot.
    busy: AtomicBool,
    /// Lock-free mirror of `Slot::epoch` for the helpers' poll.
    epoch_hint: AtomicU64,
    /// Lock-free mirror of `Slot::running` for the closing caller's poll.
    running_hint: AtomicUsize,
    slot: Mutex<Slot>,
    wake: Condvar,
    done: Condvar,
}

/// Closes the open region and then releases the gate when dropped, so that
/// no exit path of [`Shared::run`] — unwinding included — can leave while a
/// helper still holds the job.
struct OpenRegion<'a>(&'a Shared);

impl Drop for OpenRegion<'_> {
    fn drop(&mut self) {
        self.0.close();
        // audit:allow(ordering-escalation): the gate's hand-off — pairs with the Acquire exchange in `run`
        self.0.busy.store(false, Ordering::Release);
    }
}

impl Shared {
    fn new(threads: usize) -> Self {
        Self {
            threads,
            busy: AtomicBool::new(false),
            epoch_hint: AtomicU64::new(0),
            running_hint: AtomicUsize::new(0),
            slot: Mutex::new(Slot {
                job: None,
                epoch: 0,
                running: 0,
                sleepers: 0,
                closer_parked: false,
                shutdown: false,
            }),
            wake: Condvar::new(),
            done: Condvar::new(),
        }
    }

    /// Runs one region: `participant` on the calling thread and on every
    /// helper that joins, each claiming chunk indices from the one
    /// [`Claims`] cursor over `0..chunks`. Returns when every index has
    /// been claimed and every participant has returned; resumes the first
    /// panic of any participant.
    pub(crate) fn run(&self, chunks: usize, participant: &(dyn Fn(&Claims) + Sync)) {
        let claims = Claims::new(chunks);
        // Acquire pairs with the Release store in `OpenRegion::drop`: the
        // previous owner's region is fully closed before the next one opens.
        if self
            .busy
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            // nested or concurrent region: the caller alone (module docs)
            participant(&claims);
            return;
        }

        let panics: Mutex<Vec<Payload>> = Mutex::new(Vec::new());
        let job = || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| participant(&claims))) {
                claims.stop();
                lock(&panics).push(payload);
            }
        };
        let job: &(dyn Fn() + Sync) = &job;
        // SAFETY: only the lifetime changes. The erased reference is stored
        // in exactly one place, `Slot::job`, by `open` below. A helper can
        // copy it out only under the slot lock and only while it is `Some`,
        // and increments `Slot::running` in that same critical section.
        // `OpenRegion::drop` runs `close` on every path out of this function
        // from here on, unwinding included, and `close` returns only after
        // it has set `Slot::job = None` under the lock *and* seen `running
        // == 0` under the lock — i.e. after every helper that ever copied
        // the reference has returned from calling it and no other copy can
        // be made. So the reference is unreachable before `job`, `claims`
        // and `panics` (declared above the guard, dropped after it) go out
        // of scope. `Slot`'s fields are private to this module.
        let erased: Job = unsafe { std::mem::transmute::<&(dyn Fn() + Sync), Job>(job) };
        {
            let _region = OpenRegion(self);
            self.open(erased);
            job();
        }

        let panics = panics.into_inner().unwrap_or_else(PoisonError::into_inner);
        if let Some(first) = panics.into_iter().next() {
            resume_unwind(first);
        }
    }

    fn open(&self, job: Job) {
        let mut slot = lock(&self.slot);
        slot.job = Some(job);
        slot.epoch += 1;
        self.epoch_hint.store(slot.epoch, Ordering::Relaxed);
        let sleepers = slot.sleepers > 0;
        drop(slot);
        if sleepers {
            self.wake.notify_all();
        }
    }

    fn close(&self) {
        let mut slot = lock(&self.slot);
        slot.job = None;
        if slot.running > 0 {
            drop(slot);
            spin_until(|| self.running_hint.load(Ordering::Relaxed) == 0);
            slot = lock(&self.slot);
            while slot.running > 0 {
                slot.closer_parked = true;
                slot = self.done.wait(slot).unwrap_or_else(PoisonError::into_inner);
            }
            slot.closer_parked = false;
        }
    }

    /// A helper thread's whole life.
    fn help(&self) {
        let mut seen = 0u64;
        loop {
            spin_until(|| self.epoch_hint.load(Ordering::Relaxed) != seen);
            let mut slot = lock(&self.slot);
            while slot.epoch == seen {
                slot.sleepers += 1;
                slot = self.wake.wait(slot).unwrap_or_else(PoisonError::into_inner);
                slot.sleepers -= 1;
            }
            if slot.shutdown {
                return;
            }
            seen = slot.epoch;
            let Some(job) = slot.job else {
                continue; // closed before this helper got here
            };
            slot.running += 1;
            self.running_hint.store(slot.running, Ordering::Relaxed);
            drop(slot);

            job();

            let mut slot = lock(&self.slot);
            slot.running -= 1;
            self.running_hint.store(slot.running, Ordering::Relaxed);
            let wake_closer = slot.running == 0 && slot.closer_parked;
            drop(slot);
            if wake_closer {
                self.done.notify_one();
            }
        }
    }
}

thread_local! {
    /// The pool parallel drivers on this thread run on: set by
    /// [`ThreadPool::install`] for its closure, and permanently on a pool's
    /// own helpers (whose nested regions therefore find the gate taken).
    static CURRENT: RefCell<Option<Arc<Shared>>> = const { RefCell::new(None) };
}

/// `available_parallelism()`, read once (it is a syscall).
fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Number of threads parallel drivers will use in the current context.
pub fn current_num_threads() -> usize {
    CURRENT
        .with(|c| c.borrow().as_ref().map(|shared| shared.threads))
        .unwrap_or_else(default_threads)
}

/// The pool a region entered on this thread runs on: the installed one, or
/// the lazily started global pool of `available_parallelism()` threads.
pub(crate) fn current() -> Arc<Shared> {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    CURRENT.with(|c| c.borrow().clone()).unwrap_or_else(|| {
        let pool = GLOBAL.get_or_init(|| {
            ThreadPool::start(default_threads()).expect("failed to spawn the global pool's workers")
        });
        Arc::clone(&pool.shared)
    })
}

/// A pool of `num_threads − 1` persistent helper threads; the thread that
/// enters a parallel call is always the remaining worker. The helpers are
/// named `parcom-worker-{i}`, sleep while the pool is idle, and are joined
/// when the pool drops. A one-thread pool owns no thread at all.
pub struct ThreadPool {
    shared: Arc<Shared>,
    helpers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("num_threads", &self.shared.threads)
            .finish()
    }
}

impl ThreadPool {
    pub(crate) fn start(threads: usize) -> std::io::Result<Self> {
        let threads = threads.max(1);
        let mut pool = Self {
            shared: Arc::new(Shared::new(threads)),
            helpers: Vec::with_capacity(threads - 1),
        };
        for i in 1..threads {
            let shared = Arc::clone(&pool.shared);
            // on failure `pool` drops here and joins the helpers started so far
            pool.helpers.push(
                std::thread::Builder::new()
                    .name(format!("parcom-worker-{i}"))
                    .spawn(move || {
                        CURRENT.with(|c| *c.borrow_mut() = Some(Arc::clone(&shared)));
                        shared.help();
                    })?,
            );
        }
        Ok(pool)
    }

    /// Runs `f` on the calling thread with this pool as the one its
    /// parallel calls run on.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(Option<Arc<Shared>>);
        impl Drop for Restore {
            fn drop(&mut self) {
                CURRENT.with(|c| *c.borrow_mut() = self.0.take());
            }
        }
        let _restore = Restore(CURRENT.with(|c| c.replace(Some(Arc::clone(&self.shared)))));
        f()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut slot = lock(&self.shared.slot);
            slot.shutdown = true;
            slot.epoch += 1;
            self.shared.epoch_hint.store(slot.epoch, Ordering::Relaxed);
        }
        self.shared.wake.notify_all();
        for helper in self.helpers.drain(..) {
            // a helper cannot panic (jobs catch); nothing to report from Drop
            let _ = helper.join();
        }
    }
}
