//! Unified adaptive **spin → yield → park** wait strategy.
//!
//! Every wait in the workspace is the same question — *how long do I
//! believe the condition will flip soon?* — so they share one schedule:
//!
//! 1. **Spin**: a handful of exponentially growing busy-spin rounds
//!    (`pause` instructions). Wake-to-observe latency is tens of
//!    nanoseconds; right when the other side is actively producing.
//! 2. **Yield**: give the core away but stay runnable. Right when the other
//!    side is running but descheduled (oversubscribed hosts).
//! 3. **Park**: the caller blocks on its eventcount — through
//!    [`crate::eventcount::block_until`] for FIFO endpoints and
//!    `ProcSupervisor::join`, directly for the stealing pool's workers (one
//!    [`crate::EventCount`] each) — and every such park is a `futex(2)`
//!    wait on the eventcount's `seq` word. Only a
//!    [`WaitStrategy::Parking`] waiter gets here; a
//!    [`WaitStrategy::Spinning`] one (the bare SPSC endpoints and the
//!    least-utilized split adapter, which have no wake signal) yields
//!    forever instead.
//!
//! The module is built on `crate::sync`, so `--cfg loom` builds degrade
//! every phase to a model-checker yield and the waiting code inside the
//! loom suites stays explorable.

/// Busy-spin rounds before yielding; round `n` executes `2^n` CPU relax
/// hints, so the spin budget is `2^SPIN_ROUNDS` pauses.
const SPIN_ROUNDS: u32 = 6;
/// `yield_now` rounds after spinning before a [`WaitStrategy::Parking`]
/// waiter asks its caller to park.
const YIELD_ROUNDS: u32 = 16;

/// The two backoff schedules a [`Waiter`] follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitStrategy {
    /// Spin, then yield forever: for waits with no wake signal to park on
    /// (the bare SPSC endpoints, the least-utilized split adapter).
    Spinning,
    /// Spin, yield, then [`WaitAction::Park`] on the caller's eventcount,
    /// one [`PARK_TIMEOUT`](crate::eventcount::PARK_TIMEOUT)-bounded park
    /// at a time.
    Parking,
}

/// What a [`Waiter`] did (or asks the caller to do) for one idle round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitAction {
    /// Busy-spun; re-check immediately.
    Spun,
    /// Yielded the core; re-check on reschedule.
    Yielded,
    /// Spin and yield budgets are exhausted: block on your eventcount, then
    /// re-check.
    Park,
}

/// Per-wait adaptive backoff state. Create one per logical wait, call
/// [`pause`](Waiter::pause) or [`pause_or_park`](Waiter::pause_or_park)
/// each time the condition is still false, and [`reset`](Waiter::reset)
/// whenever progress is observed.
#[derive(Debug)]
pub struct Waiter {
    strategy: WaitStrategy,
    round: u32,
}

impl Waiter {
    /// A fresh waiter at the start of its spin phase.
    pub fn new(strategy: WaitStrategy) -> Self {
        Waiter { strategy, round: 0 }
    }

    /// Restart the backoff (call on progress).
    #[inline]
    pub fn reset(&mut self) {
        self.round = 0;
    }

    /// One non-blocking backoff step: spins or yields per the schedule and
    /// returns what happened. Once the budgets are spent it returns
    /// [`WaitAction::Park`] *without blocking* — the caller parks on its own
    /// primitive (or keeps yielding if the strategy never parks).
    #[inline]
    pub fn pause_or_park(&mut self) -> WaitAction {
        if self.round < SPIN_ROUNDS {
            // Exponential spin: 1, 2, 4, ... relax hints per round.
            for _ in 0..(1u32 << self.round) {
                crate::sync::spin_loop();
            }
            self.round += 1;
            return WaitAction::Spun;
        }
        if self.round < SPIN_ROUNDS + YIELD_ROUNDS || self.strategy == WaitStrategy::Spinning {
            self.round = self.round.saturating_add(1);
            crate::sync::yield_now();
            return WaitAction::Yielded;
        }
        WaitAction::Park
    }

    /// One backoff step of a [`WaitStrategy::Spinning`] waiter, which never
    /// parks: spin, then yield.
    #[inline]
    pub fn pause(&mut self) {
        let action = self.pause_or_park();
        debug_assert_ne!(action, WaitAction::Park, "pause() is for spinning waiters");
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn phases_progress_in_order() {
        let mut w = Waiter::new(WaitStrategy::Parking);
        for _ in 0..SPIN_ROUNDS {
            assert_eq!(w.pause_or_park(), WaitAction::Spun);
        }
        for _ in 0..YIELD_ROUNDS {
            assert_eq!(w.pause_or_park(), WaitAction::Yielded);
        }
        assert_eq!(w.pause_or_park(), WaitAction::Park);
        // Park is sticky until reset.
        assert_eq!(w.pause_or_park(), WaitAction::Park);
        w.reset();
        assert_eq!(w.pause_or_park(), WaitAction::Spun);
    }

    #[test]
    fn spinning_strategy_never_parks() {
        let mut w = Waiter::new(WaitStrategy::Spinning);
        for _ in 0..100 {
            assert_ne!(w.pause_or_park(), WaitAction::Park);
        }
    }
}
