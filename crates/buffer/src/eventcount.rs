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
//! Only *where the two words live and who sleeps on them* differs, and
//! that is the [`Wake`] backend. A thread always sleeps the same way —
//! `futex(2)` on `seq`, which the kernel refuses while `seq != epoch` —
//! over words either owned ([`ThreadPark`], fields of an in-process
//! structure) or mapped ([`crate::futex::Futex`], a segment's words). A
//! scheduler task does not sleep: [`crate::waker::TaskWake`]'s wake is a
//! callback that re-queues it.
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

use std::time::Duration;

use crate::stats::{now_ns, Blocking};
use crate::sync::{
    fence, AtomicU32,
    Ordering::{self, Relaxed, SeqCst},
};
use crate::wait::{WaitAction, WaitStrategy, Waiter};

/// How long one park may last before the sleeper re-checks its condition.
/// Wakes are delivered by [`EventCount::notify`]; this bound only absorbs
/// the deliberately lossy [`EventCount::notify_if_armed`] hot path (and, in
/// the chaos suites, stalled wake syscalls), so it is a safety net, not a
/// polling rate.
pub const PARK_TIMEOUT: Duration = Duration::from_millis(2);

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
    /// only if the whole timeout elapsed without a wake; the caller
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

/// In-process backend: the words are fields, and a sleeper waits on `seq`
/// with `futex(2)` exactly as a [`crate::futex::Futex`] sleeper waits on a
/// segment's word — the kernel sleeps only while `seq == epoch`, so a
/// claimed notify between the re-check and the syscall is never slept
/// through. Off x86_64 Linux and under miri the wait is `futex.rs`'s
/// fallback nap; under loom it is a model-checker yield, and the models
/// decide from `seq` whether the kernel would have slept.
#[derive(Debug, Default)]
pub struct ThreadPark {
    armed: AtomicU32,
    seq: AtomicU32,
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
    #[cfg(not(loom))]
    fn park(&self, epoch: u32, timeout: Duration) -> bool {
        crate::futex::futex_wait(&self.seq, epoch, Some(timeout))
    }
    #[cfg(loom)]
    fn park(&self, _epoch: u32, _timeout: Duration) -> bool {
        crate::sync::yield_now();
        false
    }
    #[cfg(not(loom))]
    fn unpark(&self) {
        crate::futex::futex_wake(&self.seq, u32::MAX);
    }
    #[cfg(loom)]
    fn unpark(&self) {}
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
    /// The caller's time budget ran out.
    TimedOut,
}

/// The one blocking loop: poll `ready` through the adaptive spin → yield →
/// park schedule until it yields a value, `abandoned` turns true, or
/// `budget` (measured from the first failed poll, checked before each park)
/// runs out.
///
/// The wait is recorded in `record`, the one site that records blocked
/// time: the first failed poll opens an episode (`since`; a wait whose first
/// poll succeeds reads no clock), and the return closes it into
/// `episodes`, whatever the outcome.
///
/// Parking follows the eventcount waiter protocol on `event` — arm,
/// re-check, `wait(epoch)` — with each park bounded by [`PARK_TIMEOUT`];
/// once parking, every poll is made under an arm. A full-length park that
/// ends by timeout and then finds `ready` true was **rescued**: the wake it
/// was owed never came — its arm went unclaimed, or was claimed by a
/// notifier whose wake never reached the sleeper. Rescues are counted in
/// `record`; on a path that only uses [`EventCount::notify`] the count must
/// stay 0.
pub fn block_until<W: Wake, R>(
    event: &EventCount<W>,
    record: &Blocking,
    budget: Option<Duration>,
    abandoned: impl Fn() -> bool,
    mut ready: impl FnMut() -> Option<R>,
) -> Result<R, Blocked> {
    let mut waiter = Waiter::new(WaitStrategy::Parking);
    // When the episode opened (0 until the first failed poll) and when the
    // budget runs out, both on the `now_ns` clock.
    let (mut since, mut deadline) = (0, None);
    // The epoch of a standing arm, and whether the last park timed out
    // with that arm still unclaimed.
    let (mut armed, mut unwoken) = (None, false);
    loop {
        // First pass and spin/yield passes: a plain poll. With an arm
        // standing: the re-check the protocol demands before sleeping.
        let outcome = match ready() {
            Some(r) => Some(Ok(r)),
            None if abandoned() => Some(Err(Blocked::Abandoned)),
            // The clock is read when the episode opens and then only on the
            // re-check before a park, not on every spin.
            None if since == 0 => {
                since = now_ns();
                record.since.store(since, Relaxed);
                deadline = budget.map(|b| since.saturating_add(b.as_nanos() as u64));
                None
            }
            None => (armed.is_some() && deadline.is_some_and(|d| now_ns() >= d))
                .then_some(Err(Blocked::TimedOut)),
        };
        if let Some(outcome) = outcome {
            if armed.is_some() {
                event.disarm();
            }
            if unwoken && outcome.is_ok() {
                record.rescues.fetch_add(1, Relaxed);
            }
            if since != 0 {
                record.episodes.record(now_ns().saturating_sub(since), 1);
                record.since.store(0, Relaxed);
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
                let park = deadline.map_or(PARK_TIMEOUT, |d: u64| {
                    Duration::from_nanos(d.saturating_sub(now_ns())).min(PARK_TIMEOUT)
                });
                // A full-length park that timed out was not woken, whether
                // nobody claimed the arm (a missed notify) or a notifier
                // claimed it — `seq` moved — and its wake never reached the
                // sleeper. Either way, if the next poll succeeds, the timeout
                // did the wake's job: a rescue. The schedule stays in its
                // park phase, so re-arm at once: every further poll is the
                // re-check before a sleep.
                unwoken = event.wait(epoch, park) && park == PARK_TIMEOUT;
                event.disarm();
                armed = Some(event.arm());
            }
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::shm::{ShmSegment, SEG_KIND_RING};
    use std::sync::atomic::AtomicBool;
    use std::time::Instant;

    /// Runs `$check(home, &event)` over an eventcount in each home its
    /// words can have: owned by a [`ThreadPark`], and mapped — a heap
    /// segment's consumer words under [`EventCount::futex`]. Both sleep
    /// with `futex(2)` on `seq`.
    macro_rules! over_both_homes {
        ($check:ident) => {{
            $check("owned", &EventCount::over(ThreadPark::default()));
            let seg = ShmSegment::create_heap(SEG_KIND_RING, 8, 8, 8, 64);
            $check("mapped", &seg.consumer_waker());
        }};
    }

    fn seq<W: Wake>(ec: &EventCount<W>) -> u32 {
        ec.backend().seq().load(Relaxed)
    }

    fn armed<W: Wake>(ec: &EventCount<W>) -> u32 {
        ec.backend().armed().load(SeqCst)
    }

    #[test]
    fn unarmed_notify_is_silent_and_one_wake_per_arm() {
        fn check<W: Wake>(home: &str, ec: &EventCount<W>) {
            ec.notify();
            assert_eq!(seq(ec), 0, "{home}: no arm claimed, no seq bump");
            let epoch = ec.arm();
            ec.notify();
            ec.notify_if_armed(); // second notify on the same arm is absorbed
            assert_eq!(seq(ec), epoch + 1, "{home}");
            assert!(!ec.disarm(), "{home}: notify already claimed the arm");
            ec.arm();
            assert!(ec.disarm(), "{home}: arm not yet claimed");
        }
        over_both_homes!(check);
    }

    #[test]
    fn wait_returns_at_once_when_epoch_is_stale() {
        fn check<W: Wake>(home: &str, ec: &EventCount<W>) {
            let epoch = ec.arm();
            ec.notify();
            let t0 = Instant::now();
            assert!(
                !ec.wait(epoch, Duration::from_secs(5)),
                "{home}: not a timeout"
            );
            assert!(t0.elapsed() < Duration::from_secs(1), "{home}");
        }
        over_both_homes!(check);
    }

    #[test]
    fn block_until_parks_and_is_woken_without_a_rescue() {
        // A peer that acts once the sleeper has armed (it is parked or about
        // to be) wakes it with the fenced notify. A missed arm, or an arm
        // claimed whose wake never reaches the sleeping thread, shows as a
        // rescue (a park that ran its full `PARK_TIMEOUT`), and in the last
        // round as a park that sleeps out its whole 5 s.
        //
        // A rescue is also what a late wake looks like: a peer descheduled
        // for a whole `PARK_TIMEOUT` lets the park time out before its
        // notify. That park began after the round did, so its rescue is
        // legitimate only if the notify returned at least `PARK_TIMEOUT`
        // after the round began; such a round is excused, and no other.
        fn check<W: Wake + Sync>(home: &str, ec: &EventCount<W>) {
            let record = Blocking::default();
            let mut excused = 0u64;
            for round in 0..50 {
                let flag = AtomicBool::new(false);
                let rescues = record.rescues.load(Relaxed);
                let begun = Instant::now();
                let notified_after = std::thread::scope(|s| {
                    let peer = s.spawn(|| {
                        while armed(ec) == 0 {
                            std::thread::yield_now();
                        }
                        flag.store(true, SeqCst);
                        ec.notify();
                        begun.elapsed()
                    });
                    let got = block_until(
                        ec,
                        &record,
                        None,
                        || false,
                        || flag.load(SeqCst).then_some(round),
                    );
                    assert_eq!(got, Ok(round), "{home}");
                    peer.join().unwrap()
                });
                let late = notified_after >= PARK_TIMEOUT;
                excused += u64::from(late);
                assert!(
                    late || record.rescues.load(Relaxed) == rescues,
                    "{home}: round {round} was rescued, its notify returned {notified_after:?} in"
                );
            }
            assert!(
                record.rescues.load(Relaxed) <= excused && excused < 50,
                "{home}: {} rescues, {excused} late rounds",
                record.rescues.load(Relaxed)
            );
            std::thread::scope(|s| {
                let epoch = ec.arm();
                s.spawn(|| {
                    std::thread::sleep(Duration::from_millis(10));
                    ec.notify();
                });
                let t0 = Instant::now();
                assert!(!ec.wait(epoch, Duration::from_secs(5)), "{home}: timed out");
                assert!(t0.elapsed() < Duration::from_secs(2), "{home}");
            });
        }
        over_both_homes!(check);
    }

    #[test]
    fn block_until_counts_a_rescue_when_the_wake_never_comes() {
        // Only real kernel parking reports a full timeout; the fallback naps
        // and returns as if woken.
        if !cfg!(all(target_os = "linux", target_arch = "x86_64", not(miri))) {
            return;
        }
        fn check<W: Wake>(home: &str, ec: &EventCount<W>) {
            let record = Blocking::default();
            // The condition turns true by itself, 1 ms after the waiter
            // armed (however long its spin and yield phases took), and
            // nobody notifies: only the bounded park can end the wait, and
            // it must say so.
            let armed_at = std::cell::Cell::new(None);
            let ready = || {
                let at = armed_at
                    .get()
                    .or_else(|| (armed(ec) == 1).then(Instant::now));
                armed_at.set(at);
                at.is_some_and(|t| t.elapsed() > Duration::from_millis(1))
                    .then_some(())
            };
            let got = block_until(ec, &record, None, || false, ready);
            assert_eq!(got, Ok(()), "{home}");
            assert_eq!(record.rescues.load(Relaxed), 1, "{home}");
            // The same record holds the episode, opened at the first failed
            // poll and closed on return.
            assert_eq!(record.episodes.count(), 1, "{home}");
            assert!(record.episodes.sum() >= 1_000_000, "{home}");
            assert_eq!(record.since.load(Relaxed), 0, "{home}");
        }
        over_both_homes!(check);
    }

    #[test]
    fn block_until_honours_budget_and_abandonment() {
        fn check<W: Wake>(home: &str, ec: &EventCount<W>) {
            let record = Blocking::default();
            let never = || None::<()>;
            let t0 = Instant::now();
            let budget = Some(Duration::from_millis(5));
            assert_eq!(
                block_until(ec, &record, budget, || false, never),
                Err(Blocked::TimedOut),
                "{home}"
            );
            assert!(t0.elapsed() >= Duration::from_millis(5), "{home}");
            // A wait that gave up is an episode too.
            assert!(record.episodes.sum() >= 5_000_000, "{home}");
            assert_eq!(
                block_until(ec, &record, None, || true, never),
                Err(Blocked::Abandoned),
                "{home}"
            );
            assert_eq!(
                record.rescues.load(Relaxed),
                0,
                "{home}: giving up is not a rescue"
            );
            assert_eq!(armed(ec), 0, "{home}: no arm left standing");
        }
        over_both_homes!(check);
    }
}
