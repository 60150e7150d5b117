//! `ChaosKernel` — deterministic fault injection at the kernel boundary.
//!
//! Part of the `raft_failpoints` harness: wrap any kernel and the wrapper
//! injects panics and stalls around the inner `run()` on a schedule drawn
//! from a seeded [`raft_rng::Rng`] stream — the same fault sequence on every run
//! with the same [`ChaosConfig`]. This is how the supervision test suite
//! exercises every [`SupervisorPolicy`](raftlib::SupervisorPolicy) without
//! writing a bespoke panicking kernel per case.
//!
//! `ChaosKernel` presents the inner kernel's ports unchanged, so it drops
//! into any topology; `clone_replica()` produces a *non-faulting* copy of
//! the inner kernel's replica — modelling the common real-world shape
//! where a restarted instance does not re-hit the original fault.

use raft_rng::Rng;
use raftlib::prelude::*;

/// Fault schedule for one [`ChaosKernel`].
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Seed for the per-wrapper draw stream.
    pub seed: u64,
    /// Panic before the inner `run()` on average once every `panic_1_in`
    /// invocations (`0` = never).
    pub panic_1_in: u32,
    /// Stall (sleep) before the inner `run()` on average once every
    /// `stall_1_in` invocations (`0` = never).
    pub stall_1_in: u32,
    /// Stall duration.
    pub stall: std::time::Duration,
    /// Total fault budget across panics and stalls (`0` = unlimited). A
    /// bounded budget keeps restart-policy tests terminating.
    pub max_faults: u32,
}

impl ChaosConfig {
    /// Panic on average once every `one_in` invocations, at most `budget`
    /// times, drawn from `seed`.
    pub fn panics(seed: u64, one_in: u32, budget: u32) -> Self {
        ChaosConfig {
            seed,
            panic_1_in: one_in,
            stall_1_in: 0,
            stall: std::time::Duration::ZERO,
            max_faults: budget,
        }
    }

    /// Stall `stall` long on average once every `one_in` invocations, at
    /// most `budget` times, drawn from `seed`.
    pub fn stalls(seed: u64, one_in: u32, stall: std::time::Duration, budget: u32) -> Self {
        ChaosConfig {
            seed,
            panic_1_in: 0,
            stall_1_in: one_in,
            stall,
            max_faults: budget,
        }
    }
}

/// Wraps a kernel and injects faults around its `run()`.
pub struct ChaosKernel<K: Kernel> {
    inner: K,
    cfg: ChaosConfig,
    rng: Rng,
    faults: u32,
}

impl<K: Kernel> ChaosKernel<K> {
    /// Wrap `inner` with the given fault schedule.
    pub fn new(inner: K, cfg: ChaosConfig) -> Self {
        ChaosKernel {
            inner,
            rng: Rng::new(cfg.seed),
            cfg,
            faults: 0,
        }
    }

    fn budget_left(&self) -> bool {
        self.cfg.max_faults == 0 || self.faults < self.cfg.max_faults
    }
}

impl<K: Kernel> Kernel for ChaosKernel<K> {
    fn ports(&self) -> PortSpec {
        self.inner.ports()
    }

    fn run(&mut self, ctx: &Context) -> KStatus {
        if self.cfg.panic_1_in != 0 && self.budget_left() {
            let fire = self.rng.range(0..self.cfg.panic_1_in) == 0;
            if fire {
                self.faults += 1;
                panic!("ChaosKernel injected panic (seed {})", self.cfg.seed);
            }
        }
        if self.cfg.stall_1_in != 0 && self.budget_left() {
            let fire = self.rng.range(0..self.cfg.stall_1_in) == 0;
            if fire {
                self.faults += 1;
                std::thread::sleep(self.cfg.stall);
            }
        }
        self.inner.run(ctx)
    }

    fn name(&self) -> String {
        format!("chaos[{}]", self.inner.name())
    }

    /// A restarted replica does not re-inject faults: restart policies see
    /// a clean instance, mirroring transient-fault recovery.
    fn clone_replica(&self) -> Option<Box<dyn Kernel>> {
        self.inner.clone_replica()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    struct Nop;
    impl Kernel for Nop {
        fn ports(&self) -> PortSpec {
            PortSpec::new()
        }
        fn run(&mut self, _ctx: &Context) -> KStatus {
            KStatus::Proceed
        }
    }

    #[test]
    fn panic_schedule_is_deterministic() {
        let fire_pattern = |seed| {
            let mut k = ChaosKernel::new(Nop, ChaosConfig::panics(seed, 3, 0));
            let ctx = Context::for_test();
            (0..32)
                .map(|_| {
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| k.run(&ctx))).is_err()
                })
                .collect::<Vec<bool>>()
        };
        assert_eq!(fire_pattern(9), fire_pattern(9));
        assert!(fire_pattern(9).iter().any(|&p| p));
        assert_ne!(fire_pattern(9), fire_pattern(10));
    }

    #[test]
    fn budget_limits_faults() {
        let mut k = ChaosKernel::new(Nop, ChaosConfig::panics(1, 1, 2));
        let ctx = Context::for_test();
        let fired = (0..10)
            .filter(|_| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| k.run(&ctx))).is_err()
            })
            .count();
        assert_eq!(fired, 2);
    }

    #[test]
    fn stall_config_sleeps() {
        let mut k = ChaosKernel::new(Nop, ChaosConfig::stalls(5, 1, Duration::from_millis(20), 1));
        let ctx = Context::for_test();
        let t0 = std::time::Instant::now();
        let _ = k.run(&ctx);
        assert!(t0.elapsed() >= Duration::from_millis(20));
    }
}
