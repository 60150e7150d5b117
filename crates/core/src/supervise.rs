//! Per-kernel supervision policies — what the runtime does when a kernel
//! misbehaves.
//!
//! The paper's runtime assumes well-behaved kernels; a panic inside `run()`
//! historically tore down the whole map. Streaming deployments need bounded
//! reactions instead (cf. "Run Time Approximation of Non-blocking Service
//! Rates for Streaming Systems" and "Pacing Types: Safe Monitoring of
//! Asynchronous Streams"): restart the stage, or drop it and let the rest
//! of the pipeline drain. [`SupervisorPolicy`] is configured per kernel via
//! [`RaftMap::supervise`](crate::map::RaftMap::supervise); the default
//! [`SupervisorPolicy::Abort`] preserves the original fail-fast behavior
//! exactly.
//!
//! The scheduler consults the policy inside its `step()` loop, so recovery
//! happens in place: the kernel's [`Context`](crate::port::Context) — its
//! live ports — is untouched, and a restarted/replaced kernel resumes on
//! the same streams with whatever data is still queued.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use crate::kernel::Kernel;

/// Factory producing a fresh kernel instance for [`SupervisorPolicy::Replace`].
pub type KernelFactory = Arc<dyn Fn() -> Box<dyn Kernel> + Send + Sync>;

/// What the scheduler does when a kernel's `run()` panics.
#[derive(Clone, Default)]
pub enum SupervisorPolicy {
    /// Fail fast (the default): post `Signal::Error` downstream, raise the
    /// global stop flag, and make `exe()` return
    /// [`ExeError::KernelPanicked`](crate::error::ExeError::KernelPanicked).
    #[default]
    Abort,
    /// Drop the kernel but keep the pipeline alive: its output streams
    /// close, EoS propagates, downstream kernels drain and sinks flush
    /// partial results. The kernel is reported as
    /// [`KernelOutcome::Skipped`].
    Skip,
    /// Restart the kernel in place, up to `max_restarts` times, sleeping
    /// `backoff * 2^attempt` between attempts. A fresh instance is built
    /// with [`Kernel::clone_replica`] when the kernel supports it;
    /// otherwise the existing instance is re-entered (its state is
    /// whatever the panic left behind — implement `clone_replica` for
    /// clean-slate restarts). Exhausting the budget degrades to [`Skip`]
    /// with a [`KernelOutcome::Aborted`] report.
    ///
    /// [`Skip`]: SupervisorPolicy::Skip
    Restart {
        /// Maximum number of restarts before giving up.
        max_restarts: u32,
        /// Base delay between attempts (doubled each attempt).
        backoff: Duration,
    },
    /// Like [`Restart`](SupervisorPolicy::Restart), but every restart
    /// installs a brand-new kernel from the factory — for kernels whose
    /// state cannot be cloned or must be rebuilt from scratch.
    Replace {
        /// Maximum number of replacements before giving up.
        max_restarts: u32,
        /// Base delay between attempts (doubled each attempt).
        backoff: Duration,
        /// Builds each replacement instance.
        factory: KernelFactory,
    },
}

impl SupervisorPolicy {
    /// Restart up to `max_restarts` times with a 1 ms base backoff.
    pub fn restart(max_restarts: u32) -> Self {
        SupervisorPolicy::Restart {
            max_restarts,
            backoff: Duration::from_millis(1),
        }
    }

    /// Restart with an explicit base backoff.
    pub fn restart_with_backoff(max_restarts: u32, backoff: Duration) -> Self {
        SupervisorPolicy::Restart {
            max_restarts,
            backoff,
        }
    }

    /// Replace from `factory` up to `max_restarts` times (1 ms base
    /// backoff).
    pub fn replace(
        max_restarts: u32,
        factory: impl Fn() -> Box<dyn Kernel> + Send + Sync + 'static,
    ) -> Self {
        SupervisorPolicy::Replace {
            max_restarts,
            backoff: Duration::from_millis(1),
            factory: Arc::new(factory),
        }
    }

    /// Restart budget, if this policy has one.
    pub fn max_restarts(&self) -> Option<u32> {
        match self {
            SupervisorPolicy::Restart { max_restarts, .. }
            | SupervisorPolicy::Replace { max_restarts, .. } => Some(*max_restarts),
            _ => None,
        }
    }

    /// [`backoff`] before restart attempt `attempt`, if this policy
    /// restarts.
    pub(crate) fn backoff_for(&self, attempt: u32) -> Option<Duration> {
        match self {
            SupervisorPolicy::Restart { backoff: base, .. }
            | SupervisorPolicy::Replace { backoff: base, .. } => Some(backoff(*base, attempt)),
            _ => None,
        }
    }
}

/// The delay before restart attempt `attempt` (0-based) from base delay
/// `base`: doubling per attempt and saturating at 1 s. The one backoff curve
/// of both supervision scopes, kernels and worker processes.
pub(crate) fn backoff(base: Duration, attempt: u32) -> Duration {
    base.saturating_mul(1u32 << attempt.min(16))
        .min(Duration::from_secs(1))
}

impl fmt::Debug for SupervisorPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SupervisorPolicy::Abort => write!(f, "Abort"),
            SupervisorPolicy::Skip => write!(f, "Skip"),
            SupervisorPolicy::Restart {
                max_restarts,
                backoff,
            } => write!(f, "Restart(max {max_restarts}, backoff {backoff:?})"),
            SupervisorPolicy::Replace {
                max_restarts,
                backoff,
                ..
            } => write!(f, "Replace(max {max_restarts}, backoff {backoff:?})"),
        }
    }
}

/// How one kernel's execution ended, as reported in
/// [`KernelReport`](crate::runtime::KernelReport).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelOutcome {
    /// Ran to `KStatus::Stop` without incident.
    Completed,
    /// Panicked, was restarted/replaced this many times, and then ran to
    /// completion.
    Restarted(u32),
    /// Panicked under [`SupervisorPolicy::Skip`]; the pipeline drained
    /// without it.
    Skipped,
    /// Panicked fatally: under [`SupervisorPolicy::Abort`], or after
    /// exhausting a restart budget.
    Aborted,
}

impl KernelOutcome {
    /// `true` for any outcome that involved at least one panic.
    pub fn panicked(&self) -> bool {
        !matches!(self, KernelOutcome::Completed)
    }
}

impl fmt::Display for KernelOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelOutcome::Completed => write!(f, "completed"),
            KernelOutcome::Restarted(n) => write!(f, "restarted x{n}"),
            KernelOutcome::Skipped => write!(f, "skipped"),
            KernelOutcome::Aborted => write!(f, "aborted"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_saturates() {
        let ms = Duration::from_millis;
        for (attempt, delay) in [
            (0, ms(2)),
            (1, ms(4)),
            (3, ms(16)),
            (9, ms(1000)),
            (30, ms(1000)),
        ] {
            assert_eq!(backoff(ms(2), attempt), delay, "attempt {attempt}");
        }
        let p = SupervisorPolicy::restart_with_backoff(8, ms(2));
        assert_eq!(p.backoff_for(3), Some(ms(16)));
        assert_eq!(SupervisorPolicy::Abort.backoff_for(0), None);
    }

    #[test]
    fn debug_formats_are_compact() {
        assert_eq!(format!("{:?}", SupervisorPolicy::Abort), "Abort");
        let r = SupervisorPolicy::restart(3);
        assert!(format!("{r:?}").starts_with("Restart(max 3"));
        let rep = SupervisorPolicy::replace(2, || unreachable!());
        assert!(format!("{rep:?}").starts_with("Replace(max 2"));
    }

    #[test]
    fn outcome_panicked_classification() {
        assert!(!KernelOutcome::Completed.panicked());
        assert!(KernelOutcome::Restarted(1).panicked());
        assert!(KernelOutcome::Skipped.panicked());
        assert!(KernelOutcome::Aborted.panicked());
        assert_eq!(KernelOutcome::Restarted(2).to_string(), "restarted x2");
    }
}
