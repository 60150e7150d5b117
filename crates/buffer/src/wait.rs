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
//! 3. **Park**: the caller should block on its real primitive — an
//!    eventcount: through [`crate::eventcount::block_until`] for FIFO
//!    endpoints, directly for the stealing pool's workers (one
//!    [`crate::EventCount`] each). [`Waiter::pause`] falls back to
//!    `thread::sleep` with the strategy's timeout for callers that have
//!    none; strategies that never park (the resize fence and the bare SPSC
//!    endpoints, which have no wake signal) yield forever instead.
//!
//! The module is built on `crate::sync`, so `--cfg loom` builds degrade
//! every phase to a model-checker yield and the waiting code inside the
//! loom suites stays explorable.

use std::time::Duration;

/// Tuning knobs for a [`Waiter`]. Copy-cheap; typically a `const`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitStrategy {
    /// Busy-spin rounds before yielding; round `n` executes `2^n` CPU
    /// relax hints, so the total spin budget is `2^spin_rounds` pauses.
    pub spin_rounds: u32,
    /// `yield_now` rounds after spinning, before parking.
    pub yield_rounds: u32,
    /// How long one park may last before the caller must re-check its
    /// condition (the missed-wakeup safety net). `None` means this waiter
    /// never parks: after the spin budget it yields forever (the resize
    /// fence and SPSC endpoints, which have no wake signal to park on).
    pub park_timeout: Option<Duration>,
}

impl WaitStrategy {
    /// Spin-then-yield strategy for waits with no parking primitive.
    pub const fn spinning() -> Self {
        WaitStrategy {
            spin_rounds: 6,
            yield_rounds: 0,
            park_timeout: None,
        }
    }

    /// Full spin → yield → park strategy; `park_timeout` bounds one park.
    pub const fn parking(park_timeout: Duration) -> Self {
        WaitStrategy {
            spin_rounds: 6,
            yield_rounds: 16,
            park_timeout: Some(park_timeout),
        }
    }
}

/// What a [`Waiter`] did (or asks the caller to do) for one idle round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitAction {
    /// Busy-spun; re-check immediately.
    Spun,
    /// Yielded the core; re-check on reschedule.
    Yielded,
    /// Spin and yield budgets are exhausted: block on your wake primitive
    /// (bounded by [`WaitStrategy::park_timeout`]), then re-check.
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
        let s = &self.strategy;
        if self.round < s.spin_rounds {
            // Exponential spin: 1, 2, 4, ... relax hints per round.
            for _ in 0..(1u32 << self.round) {
                crate::sync::spin_loop();
            }
            self.round += 1;
            return WaitAction::Spun;
        }
        if self.round < s.spin_rounds + s.yield_rounds || s.park_timeout.is_none() {
            self.round = self.round.saturating_add(1);
            crate::sync::yield_now();
            return WaitAction::Yielded;
        }
        WaitAction::Park
    }

    /// One backoff step executed fully inline: spin, yield, or sleep for
    /// the park timeout. For callers without a wake primitive of their own
    /// (`raftlib`'s least-utilized split adapter, which waits on whichever
    /// of several rings drains first).
    #[inline]
    pub fn pause(&mut self) {
        if self.pause_or_park() == WaitAction::Park {
            // Reachable only when park_timeout is Some (see pause_or_park).
            #[cfg(not(loom))]
            std::thread::sleep(self.strategy.park_timeout.unwrap_or(Duration::ZERO));
            #[cfg(loom)]
            crate::sync::yield_now();
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn phases_progress_in_order() {
        let mut w = Waiter::new(WaitStrategy {
            spin_rounds: 2,
            yield_rounds: 2,
            park_timeout: Some(Duration::from_micros(1)),
        });
        assert_eq!(w.pause_or_park(), WaitAction::Spun);
        assert_eq!(w.pause_or_park(), WaitAction::Spun);
        assert_eq!(w.pause_or_park(), WaitAction::Yielded);
        assert_eq!(w.pause_or_park(), WaitAction::Yielded);
        assert_eq!(w.pause_or_park(), WaitAction::Park);
        // Park is sticky until reset.
        assert_eq!(w.pause_or_park(), WaitAction::Park);
        w.reset();
        assert_eq!(w.pause_or_park(), WaitAction::Spun);
    }

    #[test]
    fn spinning_strategy_never_parks() {
        let mut w = Waiter::new(WaitStrategy::spinning());
        for _ in 0..100 {
            assert_ne!(w.pause_or_park(), WaitAction::Park);
        }
    }

    #[test]
    fn pause_inline_sleeps_in_park_phase() {
        let mut w = Waiter::new(WaitStrategy {
            spin_rounds: 0,
            yield_rounds: 0,
            park_timeout: Some(Duration::from_millis(2)),
        });
        let t0 = std::time::Instant::now();
        w.pause();
        assert!(t0.elapsed() >= Duration::from_millis(1));
    }
}
