//! Low-overhead per-FIFO telemetry.
//!
//! RaftLib's monitor thread samples every queue each δ (default 10 µs in the
//! paper) and feeds mean occupancy, service rates, throughput and occupancy
//! histograms to the optimizer (§4.1, the TimeTrial lineage of refs \[29,30\]).
//! To keep producer/consumer overhead negligible, everything here is a
//! relaxed atomic counter updated on the hot path with a single store, and
//! the monitor does all derivation at sample time.
//!
//! ## Layout: who writes what
//!
//! The counters are split into three cache-padded groups by *writer*:
//! [`WriterCounters`] (producer thread only), [`ReaderCounters`] (consumer
//! thread only) and [`MonitorCounters`] (monitor thread only). Before this
//! split, `pushed` and `popped` sat on the same cache line, so every push
//! invalidated the consumer's line and vice versa — classic false sharing
//! that shows up directly as cross-thread throughput loss. With one padded
//! group per writing thread, each hot-path store hits a line nobody else
//! writes; only the (rare, sampling-rate) monitor reads cross lines. The
//! blocked-time stamps are `pub(crate)`: only the endpoints in `fifo.rs`
//! call them, so no other thread stores into an endpoint's line.

use crate::sync::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// Number of log2 occupancy-histogram buckets; bucket `i` counts samples
/// with occupancy in `[2^(i-1), 2^i)` (bucket 0 = occupancy 0).
pub const HIST_BUCKETS: usize = 32;

/// Counters written only by the producer thread (padded to its own cache
/// line inside [`FifoStats`]).
#[derive(Debug)]
pub struct WriterCounters {
    /// Total elements ever pushed.
    pub pushed: AtomicU64,
    /// Nanoseconds (since [`FifoStats::now_ns`]'s epoch) at which the writer
    /// started blocking on a full ring; 0 = writer not currently blocked.
    pub blocked_since: AtomicU64,
    /// Cumulative nanoseconds the writer spent blocked.
    pub blocked_ns: AtomicU64,
    /// Parks of the blocked writer that ended by timeout and then found
    /// room: wakes that were owed and never came (see
    /// [`crate::eventcount::block_until`]).
    pub rescues: AtomicU64,
    /// Entries the producer-side window's bound dropped before they were
    /// acknowledged: elements that can no longer be replayed (see
    /// [`crate::journal::ReplayWindow::forced_acks`]).
    pub forced_acks: AtomicU64,
}

/// Counters written only by the consumer thread (padded to its own cache
/// line inside [`FifoStats`]).
#[derive(Debug)]
pub struct ReaderCounters {
    /// Total elements ever popped.
    pub popped: AtomicU64,
    /// Like [`WriterCounters::blocked_since`], for a reader blocked on an
    /// empty ring or an unsatisfiable `peek_range`.
    pub blocked_since: AtomicU64,
    /// Cumulative nanoseconds the reader spent blocked.
    pub blocked_ns: AtomicU64,
    /// Largest item count a reader has requested at once (`peek_range` /
    /// `pop_range`); the monitor grows the ring if this exceeds capacity —
    /// the paper's read-side resize trigger.
    pub max_read_request: AtomicU64,
    /// Elements served again from the consumer-side journal after a
    /// supervised restart rewound the link (exactly-once replay).
    pub replayed: AtomicU64,
    /// Like [`WriterCounters::rescues`], for the blocked reader.
    pub rescues: AtomicU64,
    /// Like [`WriterCounters::forced_acks`], for the consumer-side journal.
    pub forced_acks: AtomicU64,
}

/// Counters written only by the monitor thread (padded to its own cache
/// line inside [`FifoStats`]).
#[derive(Debug)]
pub struct MonitorCounters {
    /// Number of resize operations performed on this FIFO.
    pub resizes: AtomicU64,
    /// Occupancy histogram, filled by the monitor at each sampling tick.
    pub occupancy_hist: [AtomicU64; HIST_BUCKETS],
    /// Sum of sampled occupancies (for mean occupancy).
    pub occupancy_sum: AtomicU64,
    /// Number of occupancy samples taken.
    pub occupancy_samples: AtomicU64,
}

/// Shared counters between one FIFO's producer, consumer, and the monitor,
/// grouped per writing thread to avoid false sharing (see module docs).
///
/// All fields are updated with `Relaxed` ordering: the numbers are
/// statistical, never used for synchronization.
#[derive(Debug)]
pub struct FifoStats {
    /// Producer-written counters, on their own cache line.
    pub(crate) writer: CachePadded<WriterCounters>,
    /// Consumer-written counters, on their own cache line.
    pub(crate) reader: CachePadded<ReaderCounters>,
    /// Monitor-written counters, on their own cache line.
    pub(crate) monitor: CachePadded<MonitorCounters>,
    epoch: Instant,
}

impl Default for FifoStats {
    fn default() -> Self {
        Self::new()
    }
}

impl FifoStats {
    /// Fresh, zeroed stats with `epoch = now`.
    pub fn new() -> Self {
        FifoStats {
            writer: CachePadded::new(WriterCounters {
                pushed: AtomicU64::new(0),
                blocked_since: AtomicU64::new(0),
                blocked_ns: AtomicU64::new(0),
                rescues: AtomicU64::new(0),
                forced_acks: AtomicU64::new(0),
            }),
            reader: CachePadded::new(ReaderCounters {
                popped: AtomicU64::new(0),
                blocked_since: AtomicU64::new(0),
                blocked_ns: AtomicU64::new(0),
                max_read_request: AtomicU64::new(0),
                replayed: AtomicU64::new(0),
                rescues: AtomicU64::new(0),
                forced_acks: AtomicU64::new(0),
            }),
            monitor: CachePadded::new(MonitorCounters {
                resizes: AtomicU64::new(0),
                occupancy_hist: std::array::from_fn(|_| AtomicU64::new(0)),
                occupancy_sum: AtomicU64::new(0),
                occupancy_samples: AtomicU64::new(0),
            }),
            epoch: Instant::now(),
        }
    }

    /// Nanoseconds elapsed since this FIFO's stats were created. Used as the
    /// timebase for the `blocked_since` fields (0 is reserved for "not
    /// blocked", so we offset by 1).
    #[inline]
    pub(crate) fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64 + 1
    }

    /// Producer entered the blocked state.
    #[inline]
    pub(crate) fn writer_block_begin(&self) {
        self.writer.blocked_since.store(self.now_ns(), Relaxed);
    }

    /// Producer left the blocked state; accumulates blocked time.
    #[inline]
    pub(crate) fn writer_block_end(&self) {
        let since = self.writer.blocked_since.swap(0, Relaxed);
        if since != 0 {
            let dt = self.now_ns().saturating_sub(since);
            self.writer.blocked_ns.fetch_add(dt, Relaxed);
        }
    }

    /// Consumer entered the blocked state.
    #[inline]
    pub(crate) fn reader_block_begin(&self) {
        self.reader.blocked_since.store(self.now_ns(), Relaxed);
    }

    /// Consumer left the blocked state; accumulates blocked time.
    #[inline]
    pub(crate) fn reader_block_end(&self) {
        let since = self.reader.blocked_since.swap(0, Relaxed);
        if since != 0 {
            let dt = self.now_ns().saturating_sub(since);
            self.reader.blocked_ns.fetch_add(dt, Relaxed);
        }
    }

    /// Total nanoseconds the writer has spent blocked: every finished
    /// episode plus the one in progress. The monitor's grow rule takes its
    /// rise over a window of ticks. A read that races the end of an episode
    /// may miss that episode (or count it twice) for that one read.
    #[inline]
    pub fn writer_blocked_total_ns(&self) -> u64 {
        let done = self.writer.blocked_ns.load(Relaxed);
        match self.writer.blocked_since.load(Relaxed) {
            0 => done,
            since => done + self.now_ns().saturating_sub(since),
        }
    }

    /// Total elements ever popped.
    #[inline]
    pub fn popped(&self) -> u64 {
        self.reader.popped.load(Relaxed)
    }

    /// Largest item count a reader has requested at once (`peek_range` /
    /// `pop_range`): the monitor grows the ring to fit it.
    #[inline]
    pub fn max_read_request(&self) -> usize {
        self.reader.max_read_request.load(Relaxed) as usize
    }

    /// Record a reader's multi-item request size (monitor may grow the ring
    /// past it).
    #[inline]
    pub(crate) fn note_read_request(&self, n: usize) {
        self.reader.max_read_request.fetch_max(n as u64, Relaxed);
    }

    /// Called by the monitor each tick with the observed occupancy.
    pub(crate) fn sample_occupancy(&self, occ: usize) {
        let bucket = if occ == 0 {
            0
        } else {
            (usize::BITS - occ.leading_zeros()) as usize
        }
        .min(HIST_BUCKETS - 1);
        self.monitor.occupancy_hist[bucket].fetch_add(1, Relaxed);
        self.monitor.occupancy_sum.fetch_add(occ as u64, Relaxed);
        self.monitor.occupancy_samples.fetch_add(1, Relaxed);
    }

    /// Snapshot all derived statistics.
    pub(crate) fn snapshot(&self, capacity: usize, occupancy: usize) -> StatsSnapshot {
        let samples = self.monitor.occupancy_samples.load(Relaxed);
        let mean_occupancy = if samples == 0 {
            occupancy as f64
        } else {
            self.monitor.occupancy_sum.load(Relaxed) as f64 / samples as f64
        };
        let elapsed = self.epoch.elapsed().as_secs_f64();
        let popped = self.reader.popped.load(Relaxed);
        StatsSnapshot {
            pushed: self.writer.pushed.load(Relaxed),
            popped,
            capacity,
            occupancy,
            mean_occupancy,
            resizes: self.monitor.resizes.load(Relaxed),
            writer_blocked_ns: self.writer.blocked_ns.load(Relaxed),
            reader_blocked_ns: self.reader.blocked_ns.load(Relaxed),
            max_read_request: self.max_read_request(),
            replayed: self.reader.replayed.load(Relaxed),
            rescues: self.writer.rescues.load(Relaxed) + self.reader.rescues.load(Relaxed),
            forced_acks: self.writer.forced_acks.load(Relaxed)
                + self.reader.forced_acks.load(Relaxed),
            throughput: if elapsed > 0.0 {
                popped as f64 / elapsed
            } else {
                0.0
            },
            occupancy_hist: std::array::from_fn(|i| self.monitor.occupancy_hist[i].load(Relaxed)),
        }
    }
}

/// A point-in-time copy of a FIFO's statistics, as reported to users and the
/// optimizer.
#[derive(Debug, Clone)]
pub struct StatsSnapshot {
    /// Total elements pushed so far.
    pub pushed: u64,
    /// Total elements popped so far.
    pub popped: u64,
    /// Current ring capacity (elements).
    pub capacity: usize,
    /// Instantaneous occupancy at snapshot time.
    pub occupancy: usize,
    /// Mean occupancy over all monitor samples.
    pub mean_occupancy: f64,
    /// Number of dynamic resizes performed.
    pub resizes: u64,
    /// Total writer blocked time (ns).
    pub writer_blocked_ns: u64,
    /// Total reader blocked time (ns).
    pub reader_blocked_ns: u64,
    /// Largest multi-item read request observed.
    pub max_read_request: usize,
    /// Elements re-served from the journal after a supervised restart.
    pub replayed: u64,
    /// Bounded parks (either endpoint) that timed out and then found their
    /// condition already true — lost wakeups the 2 ms safety net absorbed.
    /// Stays 0 unless a wake was genuinely missed.
    pub rescues: u64,
    /// Entries either end's replay window force-dropped at its bound —
    /// elements whose replay coverage was lost. Stays 0 while the journal
    /// bound covers a commit interval.
    pub forced_acks: u64,
    /// Elements per second popped since creation.
    pub throughput: f64,
    /// Log2-bucketed occupancy histogram: bucket `i` counts samples with
    /// occupancy in `[2^(i-1), 2^i)` (bucket 0 = occupancy 0).
    pub occupancy_hist: [u64; HIST_BUCKETS],
}

impl StatsSnapshot {
    /// Fraction of elements in flight: `occupancy / capacity`.
    pub fn utilization(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.occupancy as f64 / self.capacity as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_accounting() {
        let s = FifoStats::new();
        assert_eq!(s.writer_blocked_total_ns(), 0);
        s.writer_block_begin();
        std::thread::sleep(std::time::Duration::from_millis(2));
        // The open episode counts before it ends...
        assert!(s.writer_blocked_total_ns() >= 1_000_000);
        s.writer_block_end();
        // ...and, once ended, exactly what the cumulative counter holds.
        let first = s.writer.blocked_ns.load(Relaxed);
        assert!(first >= 1_000_000);
        assert_eq!(s.writer_blocked_total_ns(), first);
        s.writer_block_begin();
        std::thread::sleep(std::time::Duration::from_millis(2));
        s.writer_block_end();
        assert!(s.writer_blocked_total_ns() >= first + 1_000_000);
    }

    #[test]
    fn block_end_without_begin_is_noop() {
        let s = FifoStats::new();
        s.writer_block_end();
        s.reader_block_end();
        assert_eq!(s.writer.blocked_ns.load(Relaxed), 0);
        assert_eq!(s.reader.blocked_ns.load(Relaxed), 0);
    }

    #[test]
    fn occupancy_histogram_buckets() {
        let s = FifoStats::new();
        s.sample_occupancy(0); // bucket 0
        s.sample_occupancy(1); // bucket 1  [1,2)
        s.sample_occupancy(2); // bucket 2  [2,4)
        s.sample_occupancy(3); // bucket 2
        s.sample_occupancy(4); // bucket 3  [4,8)
        s.sample_occupancy(1024); // bucket 11
        let snap = s.snapshot(2048, 0);
        assert_eq!(snap.occupancy_hist[0], 1);
        assert_eq!(snap.occupancy_hist[1], 1);
        assert_eq!(snap.occupancy_hist[2], 2);
        assert_eq!(snap.occupancy_hist[3], 1);
        assert_eq!(snap.occupancy_hist[11], 1);
        assert_eq!(snap.occupancy_samples_total(), 6);
    }

    #[test]
    fn mean_occupancy() {
        let s = FifoStats::new();
        s.sample_occupancy(10);
        s.sample_occupancy(20);
        let snap = s.snapshot(64, 15);
        assert!((snap.mean_occupancy - 15.0).abs() < 1e-9);
    }

    #[test]
    fn utilization() {
        let s = FifoStats::new();
        let snap = s.snapshot(100, 25);
        assert!((snap.utilization() - 0.25).abs() < 1e-12);
        let snap0 = s.snapshot(0, 0);
        assert_eq!(snap0.utilization(), 0.0);
    }

    #[test]
    fn read_request_max() {
        let s = FifoStats::new();
        s.note_read_request(5);
        s.note_read_request(3);
        s.note_read_request(9);
        assert_eq!(s.snapshot(4, 0).max_read_request, 9);
    }

    #[test]
    fn hot_counters_live_on_distinct_cache_lines() {
        let s = FifoStats::new();
        let pushed = &s.writer.pushed as *const _ as usize;
        let popped = &s.reader.popped as *const _ as usize;
        let resizes = &s.monitor.resizes as *const _ as usize;
        // CachePadded aligns to at least 64 bytes on every supported arch.
        assert!(pushed.abs_diff(popped) >= 64);
        assert!(popped.abs_diff(resizes) >= 64);
        assert!(pushed.abs_diff(resizes) >= 64);
    }

    impl StatsSnapshot {
        fn occupancy_samples_total(&self) -> u64 {
            self.occupancy_hist.iter().sum()
        }
    }
}
