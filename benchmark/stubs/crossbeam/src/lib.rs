//! Offline stand-in for the two `crossbeam::utils` items the raftlib
//! crates use. The container has no crates.io access, so the benchmark's
//! manifest patches `crossbeam` to this crate; it is not the published one.

/// `crossbeam::utils`.
pub mod utils {
    use std::cell::Cell;
    use std::fmt;
    use std::ops::{Deref, DerefMut};

    /// Pads and aligns a value to 128 bytes (two x86-64 cache lines, as the
    /// published crate does, so adjacent-line prefetch cannot false-share).
    #[derive(Clone, Copy, Default, Hash, PartialEq, Eq)]
    #[repr(align(128))]
    pub struct CachePadded<T> {
        value: T,
    }

    impl<T> CachePadded<T> {
        /// Pad `value`.
        pub const fn new(value: T) -> Self {
            CachePadded { value }
        }

        /// Unwrap.
        pub fn into_inner(self) -> T {
            self.value
        }
    }

    impl<T> Deref for CachePadded<T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.value
        }
    }

    impl<T> DerefMut for CachePadded<T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.value
        }
    }

    impl<T: fmt::Debug> fmt::Debug for CachePadded<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("CachePadded")
                .field("value", &self.value)
                .finish()
        }
    }

    impl<T> From<T> for CachePadded<T> {
        fn from(value: T) -> Self {
            CachePadded::new(value)
        }
    }

    const SPIN_LIMIT: u32 = 6;
    const YIELD_LIMIT: u32 = 10;

    /// Exponential backoff for spin loops: spin, then yield.
    #[derive(Debug, Default)]
    pub struct Backoff {
        step: Cell<u32>,
    }

    impl Backoff {
        /// Fresh backoff.
        pub fn new() -> Self {
            Backoff { step: Cell::new(0) }
        }

        /// Start over.
        pub fn reset(&self) {
            self.step.set(0);
        }

        /// Back off in a lock-free retry loop (never yields).
        pub fn spin(&self) {
            for _ in 0..1u32 << self.step.get().min(SPIN_LIMIT) {
                std::hint::spin_loop();
            }
            if self.step.get() <= SPIN_LIMIT {
                self.step.set(self.step.get() + 1);
            }
        }

        /// Back off while waiting for another thread to make progress.
        pub fn snooze(&self) {
            if self.step.get() <= SPIN_LIMIT {
                for _ in 0..1u32 << self.step.get() {
                    std::hint::spin_loop();
                }
            } else {
                std::thread::yield_now();
            }
            if self.step.get() <= YIELD_LIMIT {
                self.step.set(self.step.get() + 1);
            }
        }

        /// Whether blocking is now advisable.
        pub fn is_completed(&self) -> bool {
            self.step.get() > YIELD_LIMIT
        }
    }
}
