//! The sender-side replay window: what a sender keeps of every element it
//! put across a boundary that can lose what the ring (or socket) held.
//!
//! Within a process the ring survives a kernel panic, so it is the
//! consumer's journal and nothing else is kept (the in-process recovery
//! contract is [`crate::fifo::FifoConfig::journal`]). Across a boundary
//! that is no longer true: a worker *process* can die with a segment ring's
//! contents, a TCP connection with its kernel buffers. There the sender
//! keeps every element it sent in a [`ReplayWindow`] until the far side
//! acknowledges it, and re-sends the unacknowledged suffix, in order, to
//! the far side's replacement. Its two clients:
//!
//! * [`crate::arena::DescriptorSender`] — the descriptor ring to a
//!   supervised worker process; the acknowledgement is the segment's
//!   commit word;
//! * `raft-net`'s resumable TCP sender — encoded frames, acknowledged by
//!   the receiver's ack frames.
//!
//! A bounded window force-acknowledges its oldest entry to make room; each
//! such entry can no longer be replayed, so the loss is counted
//! ([`ReplayWindow::forced_acks`]), never silent.

use std::collections::VecDeque;

/// A bounded, sequence-numbered window of sent-but-unacknowledged entries.
///
/// Generic over the entry type: the descriptor sender stores descriptors,
/// the TCP sender encoded frames. Sequence numbers are monotonic from 0 and
/// dense; acknowledgement is cumulative (acking `n` releases every entry
/// with `seq < n`).
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
        seq
    }

    /// Cumulative acknowledgement: drop every entry with `seq <
    /// next_expected`. Returns how many entries were released.
    pub fn ack(&mut self, next_expected: u64) -> usize {
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

    /// Iterate entries with `seq >= from`, in sequence order — the replay
    /// suffix re-sent after a reconnect or a worker's death.
    /// Entries are dense, so the suffix starts at an offset: acknowledged
    /// history and the entries before `from` are not visited.
    pub fn iter_from(&self, from: u64) -> impl Iterator<Item = &(u64, E)> {
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
