//! The one "sleep until the peer moves" protocol: an edge-triggered
//! eventcount over two words, and the one blocking loop built on it.
//!
//! Every blocked endpoint has the same problem — *park until the other side
//! changes the stream, without missing the change* — and it is the classic
//! store-buffering (Dekker) shape: the waiter writes `armed` and reads the
//! stream state, the notifier writes the stream state and reads `armed`.
//!
//! ```text
//! waiter:    epoch = seq; armed = 1;  Fw: fence(SeqCst);  re-check stream;  wait(epoch)
//! notifier:  write stream;            Fn: fence(SeqCst);  if swap(armed, 0) { seq += 1; wake }
//! ```
//!
//! SeqCst fences have a single total order, so either `Fw < Fn` — the
//! notifier's `armed` read observes the arm and the wake fires — or
//! `Fn < Fw` — the waiter's re-check observes the stream write and it never
//! sleeps. Both may "win", costing one spurious wake. `armed` is claimed
//! with a swap, so each arm produces **at most one** wake. `seq` makes the
//! sleep itself race-free: snapshotted *before* arming, bumped by every
//! claimed notify, and a backend only sleeps while `seq == epoch`, so a
//! notify between the re-check and the sleep is never slept through.
//!
//! Only *where the two words live and how a sleeper is woken* differs, and
//! that is the [`Wake`] backend: [`ThreadPark`] (in-process words, mutex +
//! condvar), [`crate::futex::Futex`] (words in a mapped segment, `futex(2)`
//! on `seq`), [`crate::waker::TaskWake`] (in-process words, a scheduler
//! task callback).
//!
//! Which of the two notify strengths a call site uses is part of the
//! protocol: [`EventCount::notify`] runs `Fn` and never loses a wake;
//! [`EventCount::notify_if_armed`] — the per-element hot path — reads
//! `armed` relaxed first and skips `Fn` on 0, admitting a narrow window in
//! which the stream write and the arm miss each other. The bounded park in
//! [`block_until`] exists for that window, and counts every rescue.
//!
//! Built on `crate::sync`: `tests/loom_eventcount.rs` model-checks the
//! handoff for each backend. DESIGN §10 has the long form.

use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

use crate::sync::{
    fence, AtomicU32, Condvar, Mutex,
    Ordering::{self, Relaxed, SeqCst},
};
use crate::wait::{WaitAction, WaitStrategy, Waiter};

/// How long one park may last before the sleeper re-checks its condition.
/// Wakes are delivered by [`EventCount::notify`]; this bound only absorbs
/// the deliberately lossy [`EventCount::notify_if_armed`] hot path (and, in
/// the chaos suites, stalled wake syscalls), so it is a safety net, not a
/// polling rate.
pub const PARK_TIMEOUT: Duration = Duration::from_millis(2);

/// Spin → yield → park schedule shared by every blocking endpoint.
const ENDPOINT_WAIT: WaitStrategy = WaitStrategy::parking(PARK_TIMEOUT);

/// A 32-bit eventcount word, wherever it lives: a `crate::sync` atomic in
/// this process (loom-instrumented under `--cfg loom`) or a `std` atomic at
/// a fixed offset of a mapped segment.
pub trait Word {
    /// Atomic load.
    fn load(&self, order: Ordering) -> u32;
    /// Atomic store.
    fn store(&self, value: u32, order: Ordering);
    /// Atomic swap, returning the previous value.
    fn swap(&self, value: u32, order: Ordering) -> u32;
    /// Atomic wrapping add, returning the previous value.
    fn fetch_add(&self, value: u32, order: Ordering) -> u32;
}

macro_rules! impl_word {
    ($atomic:ty) => {
        impl Word for $atomic {
            #[inline]
            fn load(&self, order: Ordering) -> u32 {
                Self::load(self, order)
            }
            #[inline]
            fn store(&self, value: u32, order: Ordering) {
                Self::store(self, value, order);
            }
            #[inline]
            fn swap(&self, value: u32, order: Ordering) -> u32 {
                Self::swap(self, value, order)
            }
            #[inline]
            fn fetch_add(&self, value: u32, order: Ordering) -> u32 {
                Self::fetch_add(self, value, order)
            }
        }
    };
}
impl_word!(std::sync::atomic::AtomicU32);
#[cfg(loom)]
impl_word!(AtomicU32);

/// Where an eventcount's words live and how a wake reaches the sleeper.
pub trait Wake {
    /// The word type.
    type Word: Word;
    /// 1 while a waiter has announced intent to sleep.
    fn armed(&self) -> &Self::Word;
    /// Generation counter; bumped by every claimed notify.
    fn seq(&self) -> &Self::Word;
    /// Sleep while `seq == epoch`, for at most `timeout`. Returns `true`
    /// only if the whole timeout elapsed with `seq` unmoved; the caller
    /// re-checks its condition either way.
    fn park(&self, epoch: u32, timeout: Duration) -> bool;
    /// Deliver the wake for an arm that was just claimed (`seq` is already
    /// bumped).
    fn unpark(&self);
    /// `false` while nobody could possibly be armed, letting
    /// [`EventCount::notify`] return after one relaxed load.
    #[inline]
    fn listening(&self) -> bool {
        true
    }
}

/// Edge-triggered eventcount over the words of backend `W`; see the module
/// docs for the protocol and its proof.
///
/// * **Waiter**: `let epoch = arm();` → re-check the stream condition → if
///   still blocked, `wait(epoch, timeout)`; if actionable, `disarm()` and
///   carry on (a racing notify is absorbed as a spurious wake).
/// * **Notifier**: after every stream change the other side might be
///   waiting on, `notify()` or, per element, `notify_if_armed()`.
#[derive(Debug, Default, Clone, Copy)]
pub struct EventCount<W>(W);

impl<W: Wake> EventCount<W> {
    /// An eventcount over `backend`'s words.
    pub const fn over(backend: W) -> Self {
        EventCount(backend)
    }

    /// The backend (its words, for inspection).
    pub fn backend(&self) -> &W {
        &self.0
    }

    /// Waiter side: snapshot the generation and announce intent to sleep.
    /// Call **before** re-checking the stream state; the fence is `Fw`.
    #[inline]
    pub fn arm(&self) -> u32 {
        let epoch = self.0.seq().load(Relaxed);
        self.0.armed().store(1, Relaxed);
        fence(SeqCst);
        epoch
    }

    /// Waiter side: withdraw interest. Returns `false` if a notifier
    /// already claimed the arm — its wake is in flight and will be absorbed
    /// as a spurious one.
    #[inline]
    pub fn disarm(&self) -> bool {
        // Only the waiter sets `armed`, so a 0 it reads here is final: the
        // common "already claimed" case costs a load, not a locked swap.
        let armed = self.0.armed();
        armed.load(Relaxed) == 1 && armed.swap(0, Relaxed) == 1
    }

    /// Waiter side: sleep until a claimed notify moves the generation past
    /// `epoch` or `timeout` elapses (`true` only for the latter). Always
    /// re-check the condition after.
    #[inline]
    pub fn wait(&self, epoch: u32, timeout: Duration) -> bool {
        self.0.park(epoch, timeout)
    }

    /// Notifier side: wake the waiter if one is armed; never loses a wake.
    /// Use where the change will not be repeated (close, drain, resize).
    /// Returns whether this call claimed an arm (and so delivered a wake).
    #[inline]
    pub fn notify(&self) -> bool {
        self.0.listening() && self.claim_and_wake()
    }

    /// Notifier side, per-element hot path: one relaxed load when nobody
    /// looks armed. May miss an arm that is racing this very call; the
    /// waiter's bounded park absorbs that (module docs).
    #[inline]
    pub fn notify_if_armed(&self) {
        if self.0.armed().load(Relaxed) == 1 {
            self.claim_and_wake();
        }
    }

    #[cold]
    fn claim_and_wake(&self) -> bool {
        // `Fn`: orders the caller's preceding stream write before the
        // `armed` read in the SC fence order.
        fence(SeqCst);
        let armed = self.0.armed();
        let claimed = armed.load(Relaxed) == 1 && armed.swap(0, Relaxed) == 1;
        if claimed {
            self.0.seq().fetch_add(1, Relaxed);
            self.0.unpark();
        }
        claimed
    }
}

/// In-process backend: the words are fields, the sleeper is a thread on a
/// condvar. The mutex makes "check `seq`, then sleep" atomic against
/// [`unpark`](Wake::unpark), which takes it between bumping `seq` and
/// signalling — so the sleeper either sees the bump or is already waiting.
#[derive(Debug)]
pub struct ThreadPark {
    armed: AtomicU32,
    seq: AtomicU32,
    lock: Mutex<()>,
    wake: Condvar,
}

impl Default for ThreadPark {
    fn default() -> Self {
        ThreadPark {
            armed: AtomicU32::new(0),
            seq: AtomicU32::new(0),
            lock: Mutex::new(()),
            wake: Condvar::new(),
        }
    }
}

impl Wake for ThreadPark {
    type Word = AtomicU32;
    #[inline]
    fn armed(&self) -> &AtomicU32 {
        &self.armed
    }
    #[inline]
    fn seq(&self) -> &AtomicU32 {
        &self.seq
    }
    fn park(&self, epoch: u32, timeout: Duration) -> bool {
        let guard = self.lock.lock();
        if self.seq.load(Relaxed) != epoch {
            return false;
        }
        // One wait, not a loop: a spurious wake-up just sends the caller
        // round its own re-check loop.
        let (_guard, timed_out) = self.wake.wait_timeout(guard, timeout);
        timed_out && self.seq.load(Relaxed) == epoch
    }
    fn unpark(&self) {
        drop(self.lock.lock());
        self.wake.notify_all();
    }
}

/// A borrowed backend is a backend: lets an eventcount be formed, by value,
/// over words that live in a longer-lived structure.
impl<W: Wake> Wake for &W {
    type Word = W::Word;
    #[inline]
    fn armed(&self) -> &W::Word {
        (**self).armed()
    }
    #[inline]
    fn seq(&self) -> &W::Word {
        (**self).seq()
    }
    fn park(&self, epoch: u32, timeout: Duration) -> bool {
        (**self).park(epoch, timeout)
    }
    fn unpark(&self) {
        (**self).unpark();
    }
    #[inline]
    fn listening(&self) -> bool {
        (**self).listening()
    }
}

/// Why [`block_until`] gave up before its condition came true.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Blocked {
    /// The stream was abandoned (drain level `QUIESCED`): nobody will ever
    /// make the condition true.
    Abandoned,
    /// The caller's time budget (admission deadline) ran out.
    TimedOut,
}

/// The one blocking loop: poll `ready` through the adaptive spin → yield →
/// park schedule until it yields a value, `abandoned` turns true, or
/// `budget` (measured from the first failed poll, checked before each park)
/// runs out.
///
/// Parking follows the eventcount waiter protocol on `event` — arm,
/// re-check, `wait(epoch)` — with each park bounded by [`PARK_TIMEOUT`];
/// once parking, every poll is made under an arm. A park that ends by
/// timeout with its arm unclaimed and then finds `ready` true was
/// **rescued**: the wake it was owed never came. Rescues are counted in
/// `rescues`; on a path that only uses [`EventCount::notify`] the count
/// must stay 0.
pub fn block_until<W: Wake, R>(
    event: &EventCount<W>,
    rescues: &AtomicU64,
    budget: Option<Duration>,
    abandoned: impl Fn() -> bool,
    mut ready: impl FnMut() -> Option<R>,
) -> Result<R, Blocked> {
    let mut waiter = Waiter::new(ENDPOINT_WAIT);
    let mut deadline = None;
    // The epoch of a standing arm, and whether the last park timed out
    // with that arm still unclaimed.
    let (mut armed, mut unwoken) = (None, false);
    loop {
        // First pass and spin/yield passes: a plain poll. With an arm
        // standing: the re-check the protocol demands before sleeping.
        let outcome = match ready() {
            Some(r) => Some(Ok(r)),
            None if abandoned() => Some(Err(Blocked::Abandoned)),
            // The clock is read when the budget starts (the first failed
            // poll — a wait that never blocks never reads it) and then only
            // on the re-check before a park, not on every spin.
            None => match (budget, deadline) {
                (Some(b), None) => {
                    deadline = Some(Instant::now() + b);
                    b.is_zero()
                }
                (Some(_), Some(d)) => armed.is_some() && Instant::now() >= d,
                (None, _) => false,
            }
            .then_some(Err(Blocked::TimedOut)),
        };
        if let Some(outcome) = outcome {
            if armed.is_some() {
                event.disarm();
            }
            if unwoken && outcome.is_ok() {
                rescues.fetch_add(1, Relaxed);
            }
            return outcome;
        }
        unwoken = false;
        match armed.take() {
            None => {
                if waiter.pause_or_park() == WaitAction::Park {
                    armed = Some(event.arm());
                }
            }
            Some(epoch) => {
                let park = deadline.map_or(PARK_TIMEOUT, |d: Instant| {
                    d.saturating_duration_since(Instant::now())
                        .min(PARK_TIMEOUT)
                });
                let timed_out = event.wait(epoch, park);
                // Disarm so a claimed arm is told apart from an unclaimed
                // one; only the latter, after a full-length park, can be a
                // rescue. The schedule stays in its park phase, so re-arm at
                // once: every further poll is the re-check before a sleep.
                unwoken = event.disarm() && timed_out && park == PARK_TIMEOUT;
                armed = Some(event.arm());
            }
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn unarmed_notify_is_silent_and_one_wake_per_arm() {
        let ec = EventCount::over(ThreadPark::default());
        ec.notify();
        assert_eq!(ec.0.seq.load(Relaxed), 0, "no arm claimed, no seq bump");
        let epoch = ec.arm();
        ec.notify();
        ec.notify_if_armed(); // second notify on the same arm is absorbed
        assert_eq!(ec.0.seq.load(Relaxed), epoch + 1);
        assert!(!ec.disarm(), "notify already claimed the arm");
        ec.arm();
        assert!(ec.disarm(), "arm not yet claimed");
    }

    #[test]
    fn wait_returns_at_once_when_epoch_is_stale() {
        let ec = EventCount::over(ThreadPark::default());
        let epoch = ec.arm();
        ec.notify();
        let t0 = Instant::now();
        assert!(!ec.wait(epoch, Duration::from_secs(5)), "not a timeout");
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn block_until_parks_and_is_woken_without_a_rescue() {
        let ec = Arc::new(EventCount::over(ThreadPark::default()));
        let flag = Arc::new(AtomicBool::new(false));
        let rescues = AtomicU64::new(0);
        let peer = {
            let (ec, flag) = (ec.clone(), flag.clone());
            std::thread::spawn(move || {
                // Act only once the sleeper has armed (it is parked or about
                // to be): the fenced notify then cannot be missed.
                while ec.0.armed.load(SeqCst) == 0 {
                    std::thread::yield_now();
                }
                flag.store(true, SeqCst);
                ec.notify();
            })
        };
        let got = block_until(
            &ec,
            &rescues,
            None,
            || false,
            || flag.load(SeqCst).then_some(7),
        );
        peer.join().unwrap();
        assert_eq!(got, Ok(7));
        assert_eq!(rescues.load(Relaxed), 0);
    }

    #[test]
    fn block_until_counts_a_rescue_when_the_wake_never_comes() {
        let ec = EventCount::over(ThreadPark::default());
        let rescues = AtomicU64::new(0);
        let t0 = Instant::now();
        // The condition turns true by itself and nobody notifies: only the
        // bounded park can end the wait, and it must say so.
        let got = block_until(
            &ec,
            &rescues,
            None,
            || false,
            || (t0.elapsed() > Duration::from_millis(1)).then_some(()),
        );
        assert_eq!(got, Ok(()));
        assert_eq!(rescues.load(Relaxed), 1);
    }

    #[test]
    fn block_until_honours_budget_and_abandonment() {
        let ec = EventCount::over(ThreadPark::default());
        let rescues = AtomicU64::new(0);
        let never = || None::<()>;
        let t0 = Instant::now();
        let budget = Some(Duration::from_millis(5));
        assert_eq!(
            block_until(&ec, &rescues, budget, || false, never),
            Err(Blocked::TimedOut)
        );
        assert!(t0.elapsed() >= Duration::from_millis(5));
        assert_eq!(
            block_until(&ec, &rescues, Some(Duration::ZERO), || false, never),
            Err(Blocked::TimedOut),
            "a zero budget sheds on the first failed poll"
        );
        assert_eq!(
            block_until(&ec, &rescues, None, || true, never),
            Err(Blocked::Abandoned)
        );
        assert_eq!(rescues.load(Relaxed), 0, "giving up is not a rescue");
        assert_eq!(ec.0.armed.load(Relaxed), 0, "no arm left standing");
    }
}
