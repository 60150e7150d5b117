//! In-flight journaling: the sequence-numbered replay window behind the
//! exactly-once recovery contract's producer side.
//!
//! The paper's runtime assumes kernels never fail; our supervision layer
//! (restart/replace policies) re-enters a panicked kernel, but historically
//! anything the kernel had already *popped* in the failing `run()` was gone
//! and anything it had already *pushed* was published twice on replay —
//! "lossy panic absorption". The resumable TCP links solved the same
//! problem across processes with a seq/ack replay window
//! (`raft-net/src/link.rs`, a link built from an address);
//! [`ReplayWindow`] is that mechanism factored out so the in-process FIFOs
//! can journal too.
//!
//! ## The recovery contract
//!
//! A journaled link treats one `run()` invocation as a transaction:
//!
//! * every element read during the run stays in its ring slot, **held** by
//!   the consumer's cursor — within a process the ring survives a kernel
//!   panic, so it is the consumer's journal and no copy is kept;
//! * every element written during the run is **staged** producer-side in a
//!   [`ReplayWindow`] and not yet published to the ring;
//! * if the run returns, the scheduler **commits**: held slots are
//!   released, staged outputs are published;
//! * if the run panics under a restart/replace policy, the scheduler
//!   **rewinds**: staged outputs are discarded, and the consumer's read
//!   head moves back onto its held slots so the restarted kernel reads the
//!   exact same elements, in order.
//!
//! For a deterministic kernel this yields exactly-once *observable*
//! processing: downstream sees each input's effect once, byte-identical to
//! a fault-free run. Held slots stay held until committed, so a second
//! panic replays again. A transaction cannot hold more than the ring's
//! ceiling: past it the held elements are released early (they can no
//! longer be replayed — the valve is counted in `forced_acks`, so the loss
//! is visible, never silent).

use std::collections::VecDeque;

/// A bounded, sequence-numbered window of sent-but-unacknowledged entries.
///
/// Generic over the entry type: the FIFO endpoints' windows store
/// `(T, Signal)` pairs, the TCP sender stores encoded frames.
/// Sequence numbers are monotonic from 0, dense, and reused only by
/// [`truncate`](Self::truncate); acknowledgement is cumulative (acking `n`
/// releases every entry with `seq < n`).
#[derive(Debug)]
pub struct ReplayWindow<E> {
    entries: VecDeque<(u64, E)>,
    /// Sequence number the *next* appended entry will get.
    next_seq: u64,
    /// Everything below this has been acknowledged and dropped.
    acked: u64,
    /// Max retained entries; 0 = unbounded (net links bound by flow
    /// control instead).
    bound: usize,
    /// Entries force-dropped by the bound before acknowledgement — each is
    /// an element that can no longer be replayed.
    forced: u64,
}

impl<E> ReplayWindow<E> {
    /// Empty window. `bound == 0` disables the cap.
    pub fn new(bound: usize) -> Self {
        ReplayWindow {
            entries: VecDeque::new(),
            next_seq: 0,
            acked: 0,
            bound,
            forced: 0,
        }
    }

    /// Record `entry`, returning its sequence number. If the window is at
    /// its bound, the oldest entry is force-acknowledged first.
    pub fn append(&mut self, entry: E) -> u64 {
        if self.bound != 0 && self.entries.len() >= self.bound {
            self.entries.pop_front();
            self.acked += 1;
            self.forced += 1;
        }
        let seq = self.next_seq;
        self.entries.push_back((seq, entry));
        self.next_seq += 1;
        // After the record: an injected crash here models dying right after
        // the journal write — the recoverable half of the window (the entry
        // is retained, a rewind replays it). Crashing *before* the record
        // would lose the element the caller already took from the ring, so
        // the site sits on the committed side.
        crate::failpoint!("buffer::journal::append");
        seq
    }

    /// Cumulative acknowledgement: drop every entry with `seq <
    /// next_expected`. Returns how many entries were released.
    pub fn ack(&mut self, next_expected: u64) -> usize {
        crate::failpoint!("buffer::journal::ack");
        // Entries are dense from `acked`: the released prefix is a range.
        let upto = next_expected.clamp(self.acked, self.next_seq);
        let released = (upto - self.acked) as usize;
        self.entries.drain(..released);
        self.acked = upto;
        released
    }

    /// Acknowledge everything currently recorded.
    pub fn ack_all(&mut self) -> usize {
        self.ack(self.next_seq)
    }

    /// Acknowledge the oldest entry and hand it back — for a sender whose
    /// delivery *is* the acknowledgement.
    pub fn take_front(&mut self) -> Option<E> {
        let (seq, entry) = self.entries.pop_front()?;
        self.acked = seq + 1;
        Some(entry)
    }

    /// Un-append every entry with `seq >= from` (their sequence numbers
    /// will be assigned again). Returns how many entries were dropped.
    pub fn truncate(&mut self, from: u64) -> usize {
        let from = from.clamp(self.acked, self.next_seq);
        let dropped = (self.next_seq - from) as usize;
        self.entries.truncate(self.entries.len() - dropped);
        self.next_seq = from;
        dropped
    }

    /// Iterate entries with `seq >= from`, in sequence order — the replay
    /// suffix retransmitted after a reconnect or rewound after a panic.
    /// Entries are dense, so the suffix starts at an offset: acknowledged
    /// history and the entries before `from` are not visited.
    pub fn iter_from(&self, from: u64) -> impl Iterator<Item = &(u64, E)> {
        crate::failpoint!("buffer::journal::replay");
        let skip = from
            .saturating_sub(self.acked)
            .min(self.entries.len() as u64);
        self.entries.range(skip as usize..)
    }

    /// Entry with sequence number `seq`, if still retained.
    pub fn get(&self, seq: u64) -> Option<&E> {
        if seq < self.acked || seq >= self.next_seq {
            return None;
        }
        // Entries are dense and ordered: seq - front.seq is the offset.
        let front = self.entries.front()?.0;
        self.entries.get((seq - front) as usize).map(|(_, e)| e)
    }

    /// Unacknowledged entries currently retained.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is awaiting acknowledgement.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sequence number the next [`append`](Self::append) will assign.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Cumulative acknowledgement horizon.
    pub fn acked(&self) -> u64 {
        self.acked
    }

    /// Entries force-dropped by the bound (replay coverage lost).
    pub fn forced_acks(&self) -> u64 {
        self.forced
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_assigns_monotonic_seqs() {
        let mut w = ReplayWindow::new(0);
        assert_eq!(w.append("a"), 0);
        assert_eq!(w.append("b"), 1);
        assert_eq!(w.append("c"), 2);
        assert_eq!(w.len(), 3);
        assert_eq!(w.next_seq(), 3);
    }

    #[test]
    fn cumulative_ack_releases_prefix() {
        let mut w = ReplayWindow::new(0);
        for s in ["a", "b", "c", "d"] {
            w.append(s);
        }
        assert_eq!(w.ack(2), 2);
        assert_eq!(w.len(), 2);
        assert_eq!(w.acked(), 2);
        // re-acking the same horizon is a no-op
        assert_eq!(w.ack(2), 0);
        // ack beyond next_seq clamps
        assert_eq!(w.ack(100), 2);
        assert_eq!(w.acked(), 4);
        assert!(w.is_empty());
    }

    #[test]
    fn replay_suffix_in_order() {
        let mut w = ReplayWindow::new(0);
        for s in ["a", "b", "c", "d"] {
            w.append(s);
        }
        w.ack(1);
        let suffix: Vec<_> = w.iter_from(2).map(|(s, e)| (*s, *e)).collect();
        assert_eq!(suffix, vec![(2, "c"), (3, "d")]);
        // iter_from below the retained range yields the whole window
        assert_eq!(w.iter_from(0).count(), 3);
    }

    #[test]
    fn replay_suffix_starts_at_its_offset() {
        // Dense entries: the suffix is an offset into the window, whatever
        // was acknowledged (or forced out) before it.
        let mut w = ReplayWindow::new(6);
        for i in 0..10u64 {
            w.append(i * 10); // evicts seqs 0..4
        }
        w.ack(6);
        assert_eq!((w.acked(), w.forced_acks(), w.len()), (6, 4, 4));
        let seqs = |from| w.iter_from(from).map(|&(s, e)| (s, e)).collect::<Vec<_>>();
        assert_eq!(seqs(8), [(8, 80), (9, 90)]);
        assert_eq!(seqs(0).len(), 4, "below the window: all of it");
        assert!(seqs(10).is_empty() && seqs(99).is_empty());
    }

    #[test]
    fn take_front_acks_and_truncate_unappends() {
        let mut w = ReplayWindow::new(0);
        for s in ["a", "b", "c", "d"] {
            w.append(s);
        }
        assert_eq!(w.take_front(), Some("a"));
        assert_eq!((w.acked(), w.get(0), w.get(1)), (1, None, Some(&"b")));
        // Un-append from seq 2 on: "c" and "d" go, their numbers come back.
        assert_eq!(w.truncate(2), 2);
        assert_eq!((w.len(), w.next_seq(), w.append("e")), (1, 2, 2));
        // Clamped to the window: nothing acknowledged can be un-appended.
        assert_eq!(w.truncate(0), 2);
        assert_eq!((w.acked(), w.next_seq(), w.take_front()), (1, 1, None));
    }

    #[test]
    fn get_by_seq() {
        let mut w = ReplayWindow::new(0);
        for s in ["a", "b", "c"] {
            w.append(s);
        }
        w.ack(1);
        assert_eq!(w.get(0), None); // acked
        assert_eq!(w.get(1), Some(&"b"));
        assert_eq!(w.get(2), Some(&"c"));
        assert_eq!(w.get(3), None); // not yet appended
    }

    #[test]
    fn bound_forces_oldest_out() {
        let mut w = ReplayWindow::new(2);
        w.append(10);
        w.append(11);
        w.append(12); // evicts seq 0
        assert_eq!(w.len(), 2);
        assert_eq!(w.forced_acks(), 1);
        assert_eq!(w.acked(), 1);
        assert_eq!(w.get(0), None);
        assert_eq!(w.get(1), Some(&11));
    }

    #[test]
    fn ack_all_clears() {
        let mut w = ReplayWindow::new(0);
        w.append(1u32);
        w.append(2);
        assert_eq!(w.ack_all(), 2);
        assert!(w.is_empty());
        assert_eq!(w.acked(), 2);
        assert_eq!(w.forced_acks(), 0);
    }
}
