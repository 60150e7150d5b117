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
//! blocked-time records are written by [`crate::eventcount::block_until`],
//! the one blocking loop, on the blocked endpoint's own thread — or, for a
//! pool task waiting for room off its worker, by the producer's readiness
//! gate ([`crate::Producer::ready`]); the occupancy histogram by the
//! monitor's sampling tick.
//!
//! ## One recorder
//!
//! Every distribution here is a [`LogHist`]: occupancy samples, the length
//! of each blocked episode ([`Blocking`]), and — in `raftlib` — each
//! kernel's sampled service times. Its sum is the total the monitor's rules
//! and the report read; its buckets are the shape.

use crate::sync::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::OnceLock;
use std::time::Instant;

/// Number of [`LogHist`] buckets: bucket 0 holds the value 0, bucket `i`
/// the values in `[2^(i-1), 2^i)`, and the last bucket is open-ended.
pub const HIST_BUCKETS: usize = 32;

/// Nanoseconds since a process-wide epoch, plus one: the timebase of
/// [`Blocking::since`], where 0 means "no open episode".
#[inline]
pub(crate) fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64 + 1
}

/// Single-writer increment: a relaxed load + store, not a locked
/// `fetch_add`.
#[inline]
fn bump(counter: &AtomicU64, by: u64) {
    counter.store(counter.load(Relaxed) + by, Relaxed);
}

/// A log2-bucketed histogram with the weighted sum of what it recorded.
/// Fixed and inline: no allocation. One writer at a time — the thread that
/// owns the measured thing — so a record is relaxed loads and stores; any
/// thread may read.
#[derive(Debug, Default)]
pub struct LogHist {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
}

impl LogHist {
    /// Count the value `v` `weight` times.
    #[inline]
    pub fn record(&self, v: u64, weight: u64) {
        let bucket = ((u64::BITS - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1);
        bump(&self.buckets[bucket], weight);
        bump(&self.sum, v * weight);
    }

    /// The weighted sum of every recorded value.
    #[inline]
    pub fn sum(&self) -> u64 {
        self.sum.load(Relaxed)
    }

    /// The weighted number of records: the sum of the buckets.
    pub fn count(&self) -> u64 {
        self.buckets().iter().sum()
    }

    /// A copy of the buckets.
    pub fn buckets(&self) -> [u64; HIST_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Relaxed))
    }
}

/// One endpoint side's blocked time, written only by
/// [`crate::eventcount::block_until`] on the blocked thread.
#[derive(Debug, Default)]
pub struct Blocking {
    /// When the open episode's first poll failed, in ns since a process-wide
    /// epoch (plus one); 0 = no episode open.
    pub(crate) since: AtomicU64,
    /// Nanoseconds per finished episode: its sum is the total blocked time.
    pub(crate) episodes: LogHist,
    /// Parks that ended by timeout and then found the condition true:
    /// wakes that were owed and never came.
    pub(crate) rescues: AtomicU64,
}

impl Blocking {
    /// Open an episode now (a wait's first failed poll).
    #[cold]
    pub(crate) fn open(&self) {
        self.since.store(now_ns(), Relaxed);
    }

    /// Close the open episode into `episodes`.
    #[cold]
    pub(crate) fn close(&self) {
        let since = self.since.swap(0, Relaxed);
        self.episodes.record(now_ns().saturating_sub(since), 1);
    }

    /// Every finished episode plus the one in progress. A read that races
    /// the end of an episode may miss that episode (or count it twice) for
    /// that one read.
    #[inline]
    pub(crate) fn total_ns(&self) -> u64 {
        let done = self.episodes.sum();
        match self.since.load(Relaxed) {
            0 => done,
            since => done + now_ns().saturating_sub(since),
        }
    }
}

/// Counters written only by the producer thread (padded to its own cache
/// line inside [`FifoStats`]).
#[derive(Debug, Default)]
pub struct WriterCounters {
    /// Total elements ever pushed.
    pub pushed: AtomicU64,
    /// The writer's waits for room (on a descriptor ring: for the commit).
    pub blocked: Blocking,
    /// A pool task's waits for room off its worker: from the readiness
    /// gate finding the ring full to the gate finding room again.
    pub parked: Blocking,
}

/// Counters written only by the consumer thread (padded to its own cache
/// line inside [`FifoStats`]).
#[derive(Debug, Default)]
pub struct ReaderCounters {
    /// Total elements ever popped and acknowledged: a journaled consumer's
    /// reads count once their transaction commits.
    pub popped: AtomicU64,
    /// The reader's waits for data.
    pub blocked: Blocking,
    /// Largest item count a reader has requested at once (`peek_range` /
    /// `pop_range`); the monitor grows the ring if this exceeds capacity —
    /// the paper's read-side resize trigger.
    pub max_read_request: AtomicU64,
    /// Elements a supervised restart rewound, to be read again from their
    /// held slots (exactly-once replay).
    pub replayed: AtomicU64,
    /// Held elements a journaled consumer released before its commit
    /// because the ring could not grow past its ceiling to hold them and the
    /// next read: elements that can no longer be replayed.
    pub forced_acks: AtomicU64,
}

/// Counters written only by the monitor thread (padded to its own cache
/// line inside [`FifoStats`]).
#[derive(Debug, Default)]
pub struct MonitorCounters {
    /// Number of resize operations performed on this FIFO.
    pub resizes: AtomicU64,
    /// Occupancy, sampled by the monitor at each tick.
    pub occupancy: LogHist,
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
            writer: CachePadded::default(),
            reader: CachePadded::default(),
            monitor: CachePadded::default(),
            epoch: Instant::now(),
        }
    }

    /// Total nanoseconds the writer has spent blocked for room — a thread
    /// inside the link, or a pool task parked off its worker: every
    /// finished episode plus the ones in progress. The monitor's grow rule
    /// takes its rise over a window of ticks.
    #[inline]
    pub fn writer_blocked_total_ns(&self) -> u64 {
        self.writer.blocked.total_ns() + self.writer.parked.total_ns()
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

    /// Snapshot all derived statistics.
    pub(crate) fn snapshot(&self, capacity: usize, occupancy: usize) -> StatsSnapshot {
        let occ = &self.monitor.occupancy;
        let mean_occupancy = match occ.count() {
            0 => occupancy as f64,
            samples => occ.sum() as f64 / samples as f64,
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
            writer_blocked_ns: self.writer.blocked.episodes.sum(),
            reader_blocked_ns: self.reader.blocked.episodes.sum(),
            max_read_request: self.max_read_request(),
            replayed: self.reader.replayed.load(Relaxed),
            rescues: self.writer.blocked.rescues.load(Relaxed)
                + self.reader.blocked.rescues.load(Relaxed),
            forced_acks: self.reader.forced_acks.load(Relaxed),
            throughput: if elapsed > 0.0 {
                popped as f64 / elapsed
            } else {
                0.0
            },
            occupancy_hist: occ.buckets(),
            writer_blocked_hist: self.writer.blocked.episodes.buckets(),
            reader_blocked_hist: self.reader.blocked.episodes.buckets(),
        }
    }
}

/// A point-in-time copy of a FIFO's statistics, as reported to users and the
/// optimizer.
#[derive(Debug, Clone)]
pub struct StatsSnapshot {
    /// Total elements pushed so far.
    pub pushed: u64,
    /// Total elements popped and acknowledged so far (a journaled
    /// consumer's reads count at commit).
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
    /// Elements rewound by a supervised restart, to be read again.
    pub replayed: u64,
    /// Bounded parks (either endpoint) that timed out and then found their
    /// condition already true — lost wakeups the 2 ms safety net absorbed.
    /// Stays 0 unless a wake was genuinely missed.
    pub rescues: u64,
    /// Elements whose replay coverage was lost: released early by a
    /// journaled consumer whose transaction outgrew the ring's ceiling.
    /// Under the scheduler, stays 0 unless a single `run()` reads more than
    /// half the ceiling.
    pub forced_acks: u64,
    /// Elements per second popped since creation.
    pub throughput: f64,
    /// Occupancy samples by [`LogHist`] bucket: bucket `i` counts samples
    /// with occupancy in `[2^(i-1), 2^i)` (bucket 0 = occupancy 0).
    pub occupancy_hist: [u64; HIST_BUCKETS],
    /// The writer's blocked episodes by length in ns, by [`LogHist`] bucket;
    /// they sum to `writer_blocked_ns`.
    pub writer_blocked_hist: [u64; HIST_BUCKETS],
    /// The reader's blocked episodes, like `writer_blocked_hist`.
    pub reader_blocked_hist: [u64; HIST_BUCKETS],
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

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::eventcount::{block_until, EventCount, ThreadPark};
    use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
    use std::time::Duration;

    #[test]
    fn block_accounting() {
        let (s, event) = (FifoStats::new(), EventCount::over(ThreadPark::default()));
        let record = &s.writer.blocked;
        assert_eq!(s.writer_blocked_total_ns(), 0);
        let go = AtomicBool::new(false);
        let ready = || go.load(SeqCst).then_some(());
        std::thread::scope(|scope| {
            scope.spawn(|| block_until(&event, record, None, || false, ready));
            while record.since.load(Relaxed) == 0 {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_millis(2));
            // The open episode counts before it ends...
            assert!(s.writer_blocked_total_ns() >= 1_000_000);
            go.store(true, SeqCst);
            event.notify();
        });
        // ...and, once ended, exactly what the histogram sums.
        let first = record.episodes.sum();
        assert!(first >= 1_000_000);
        assert_eq!(s.writer_blocked_total_ns(), first);
        let t0 = Instant::now();
        let later = || (t0.elapsed() >= Duration::from_millis(2)).then_some(());
        assert_eq!(block_until(&event, record, None, || false, later), Ok(()));
        assert!(s.writer_blocked_total_ns() >= first + 1_000_000);
        assert_eq!(record.episodes.count(), 2);
        assert_eq!(s.snapshot(1, 0).writer_blocked_hist.iter().sum::<u64>(), 2);
    }

    #[test]
    fn occupancy_histogram_buckets() {
        let h = LogHist::default();
        h.record(0, 1); // bucket 0
        h.record(1, 1); // bucket 1  [1,2)
        h.record(2, 2); // bucket 2  [2,4)
        h.record(3, 1); // bucket 2
        h.record(4, 1); // bucket 3  [4,8)
        h.record(1024, 3); // bucket 11
        h.record(1 << 40, 1); // the last bucket is open-ended
        let b = h.buckets();
        assert_eq!((b[0], b[1], b[2], b[3], b[11]), (1, 1, 3, 1, 3));
        assert_eq!(b[HIST_BUCKETS - 1], 1);
        assert_eq!(h.count(), 10);
        assert_eq!(h.sum(), 1 + 2 * 2 + 3 + 4 + 3 * 1024 + (1 << 40));
    }

    #[test]
    fn mean_occupancy() {
        let s = FifoStats::new();
        s.monitor.occupancy.record(10, 1);
        s.monitor.occupancy.record(20, 1);
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
}
