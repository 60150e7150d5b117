//! `futex(2)` parking — how every thread that sleeps in this crate sleeps.
//!
//! An eventcount's `seq` word is exactly what `FUTEX_WAIT` needs: the
//! kernel sleeps only while `*seq == epoch`, so a notify that lands between
//! the waiter's re-check and its syscall changes `seq` and the kernel
//! refuses the sleep (`EAGAIN`). Both homes an eventcount's words can have
//! park this way: owned words ([`crate::eventcount::ThreadPark`], a field
//! of an in-process structure) and mapped words ([`Futex`], a pair at a
//! fixed offset of a segment another process may share). This module
//! provides:
//!
//! * thin wrappers over the raw `FUTEX_WAIT` / `FUTEX_WAKE` syscalls
//!   ([`futex_wait`], [`futex_wake`]) using the same no-`libc` inline-asm
//!   idiom as `core`'s `affinity.rs`. The *non-private* futex ops are used
//!   deliberately: `FUTEX_PRIVATE_FLAG` restricts matching to one address
//!   space, and mapped words live in a `MAP_SHARED` segment.
//! * [`Futex`] — the [`Wake`] backend over an `(armed, seq)` word pair
//!   borrowed from a segment.
//!
//! On non-Linux (or non-x86_64) targets the wait degrades to a nap of at
//! most 1 ms, and under miri (which cannot execute inline asm) the same
//! fallback is compiled in — the protocol stays correct, only the parking
//! efficiency is lost.

use std::sync::atomic::AtomicU32;
use std::time::Duration;

use crate::eventcount::{EventCount, Wake};

/// `futex(2)` op codes (non-private: these words are cross-process).
#[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
const FUTEX_WAIT: usize = 0;
#[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
const FUTEX_WAKE: usize = 1;

#[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// The crate's one raw `syscall` instruction (x86_64 Linux ABI, no `libc` —
/// `core`'s `affinity.rs` idiom). Returns the kernel's result (`-errno` on
/// failure).
///
/// # Safety
/// `nr` and `args` must form a call whose pointer arguments are valid for
/// everything that syscall reads and writes.
#[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
pub(crate) unsafe fn syscall(nr: isize, args: [usize; 6]) -> isize {
    let ret: isize;
    // SAFETY: the call itself is the caller's contract; the clobbers match
    // the x86_64 Linux syscall ABI (rcx/r11 clobbered, rax returns).
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") nr => ret,
            in("rdi") args[0],
            in("rsi") args[1],
            in("rdx") args[2],
            in("r10") args[3],
            in("r8") args[4],
            in("r9") args[5],
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret
}

/// `futex(uaddr, op, val, timeout, NULL, 0)`.
#[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
fn sys_futex(uaddr: &AtomicU32, op: usize, val: u32, timeout: *const Timespec) -> isize {
    let args = [
        uaddr.as_ptr() as usize,
        op,
        val as usize,
        timeout as usize,
        0,
        0,
    ];
    // SAFETY: futex (202) only dereferences `uaddr` (a live AtomicU32) and
    // `timeout` (either null or a live Timespec on the caller's stack).
    unsafe { syscall(202, args) }
}

/// Sleep while `*word == expected`, for at most `timeout` (forever if
/// `None`). Returns `true` only if the whole timeout elapsed and `false`
/// for every other outcome (woken, value already changed, signal) — the
/// caller must re-check its condition either way.
#[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
pub fn futex_wait(word: &AtomicU32, expected: u32, timeout: Option<Duration>) -> bool {
    let ts;
    let ts_ptr = match timeout {
        Some(t) => {
            ts = Timespec {
                tv_sec: t.as_secs() as i64,
                tv_nsec: i64::from(t.subsec_nanos()),
            };
            &ts as *const Timespec
        }
        None => std::ptr::null(),
    };
    const ETIMEDOUT: isize = 110;
    sys_futex(word, FUTEX_WAIT, expected, ts_ptr) == -ETIMEDOUT
}

/// Portable fallback: no kernel parking available — bounded sleep instead.
/// Correctness is unaffected (futex waits are always condition-rechecked);
/// only wake latency and idle efficiency degrade.
#[cfg(not(all(target_os = "linux", target_arch = "x86_64", not(miri))))]
pub fn futex_wait(word: &AtomicU32, expected: u32, timeout: Option<Duration>) -> bool {
    if word.load(std::sync::atomic::Ordering::SeqCst) != expected {
        return false;
    }
    let nap = timeout.unwrap_or(Duration::from_millis(1));
    std::thread::sleep(nap.min(Duration::from_millis(1)));
    false
}

/// Wake up to `n` waiters sleeping on `word`. Returns how many were woken.
#[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
pub fn futex_wake(word: &AtomicU32, n: u32) -> usize {
    crate::failpoint!("buffer::futex::wake");
    let ret = sys_futex(word, FUTEX_WAKE, n, std::ptr::null());
    if ret < 0 {
        0
    } else {
        ret as usize
    }
}

/// Portable fallback: sleepers poll, so there is nobody to wake.
#[cfg(not(all(target_os = "linux", target_arch = "x86_64", not(miri))))]
pub fn futex_wake(_word: &AtomicU32, _n: u32) -> usize {
    crate::failpoint!("buffer::futex::wake");
    0
}

/// [`Wake`] backend over two words in a mapped segment: borrowed views of
/// the segment's control words — the struct itself holds no state, so both
/// processes can construct one over the same mapping.
#[derive(Clone, Copy)]
pub struct Futex<'a> {
    armed: &'a AtomicU32,
    seq: &'a AtomicU32,
}

impl<'a> EventCount<Futex<'a>> {
    /// An eventcount over an `(armed, seq)` word pair in shared memory.
    pub fn futex(armed: &'a AtomicU32, seq: &'a AtomicU32) -> Self {
        EventCount::over(Futex { armed, seq })
    }
}

impl Wake for Futex<'_> {
    type Word = AtomicU32;
    #[inline]
    fn armed(&self) -> &AtomicU32 {
        self.armed
    }
    #[inline]
    fn seq(&self) -> &AtomicU32 {
        self.seq
    }
    #[inline]
    fn park(&self, epoch: u32, timeout: Duration) -> bool {
        futex_wait(self.seq, epoch, Some(timeout))
    }
    #[inline]
    fn unpark(&self) {
        futex_wake(self.seq, u32::MAX);
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
    use std::sync::Arc;

    #[test]
    fn wait_returns_when_epoch_stale() {
        let seq = AtomicU32::new(7);
        // Expected epoch 3 ≠ current 7 → FUTEX_WAIT refuses to sleep, and
        // that is not a timeout.
        let start = std::time::Instant::now();
        assert!(!futex_wait(&seq, 3, Some(Duration::from_secs(5))));
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn wait_reports_a_full_timeout() {
        // Only real kernel parking times out; the fallback naps and returns.
        if !cfg!(all(target_os = "linux", target_arch = "x86_64", not(miri))) {
            return;
        }
        let seq = AtomicU32::new(0);
        assert!(futex_wait(&seq, 0, Some(Duration::from_millis(2))));
    }

    #[test]
    fn cross_thread_park_and_wake() {
        // A real park-and-wake handshake: the consumer thread arms and
        // sleeps on the futex; the producer flips the condition and
        // notifies. Bounded by timeouts so a regression fails, not hangs.
        let armed = Arc::new(AtomicU32::new(0));
        let seq = Arc::new(AtomicU32::new(0));
        let cond = Arc::new(AtomicU64::new(0));
        let (a2, s2, c2) = (armed.clone(), seq.clone(), cond.clone());
        let waiter = std::thread::spawn(move || {
            let w = EventCount::futex(&a2, &s2);
            let mut spins = 0u32;
            loop {
                let epoch = w.arm();
                if c2.load(SeqCst) == 1 {
                    w.disarm();
                    return true;
                }
                w.wait(epoch, Duration::from_millis(200));
                spins += 1;
                if spins > 100 {
                    return false; // ~20s bound; only hit on regression
                }
            }
        });
        std::thread::sleep(Duration::from_millis(50));
        cond.store(1, SeqCst);
        EventCount::futex(&armed, &seq).notify();
        assert!(waiter.join().unwrap(), "waiter observed the condition");
    }
}
