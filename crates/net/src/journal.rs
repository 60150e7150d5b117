//! The resumable TCP sender's replay window: every frame it wrote and the
//! receiver has not acknowledged yet.
//!
//! Within a process the ring survives a kernel panic, and across a process
//! boundary the segment ring survives its consumer: in both the ring is the
//! journal and nothing else is kept. A TCP connection is different — it
//! dies with its kernel buffers — so the sender keeps each frame in a
//! [`ReplayWindow`] until the receiver's cumulative ack frame releases it,
//! and re-sends the unacknowledged suffix, in order, after a resume. The
//! window is unbounded: `TcpOut` blocks reading acks at its configured
//! depth, so no frame is ever dropped unacknowledged.

use std::collections::VecDeque;

/// A sequence-numbered window of sent-but-unacknowledged entries.
///
/// Sequence numbers are monotonic from 0 and dense; acknowledgement is
/// cumulative (acking `n` releases every entry with `seq < n`).
#[derive(Debug)]
pub(crate) struct ReplayWindow<E> {
    entries: VecDeque<(u64, E)>,
    /// Sequence number the *next* appended entry will get.
    next_seq: u64,
    /// Everything below this has been acknowledged and dropped.
    acked: u64,
}

impl<E> ReplayWindow<E> {
    /// Empty window.
    pub(crate) fn new() -> Self {
        ReplayWindow {
            entries: VecDeque::new(),
            next_seq: 0,
            acked: 0,
        }
    }

    /// Record `entry`, returning its sequence number.
    pub(crate) fn append(&mut self, entry: E) -> u64 {
        let seq = self.next_seq;
        self.entries.push_back((seq, entry));
        self.next_seq += 1;
        seq
    }

    /// Cumulative acknowledgement: drop every entry with `seq <
    /// next_expected`. Returns how many entries were released.
    pub(crate) fn ack(&mut self, next_expected: u64) -> usize {
        // Entries are dense from `acked`: the released prefix is a range.
        let upto = next_expected.clamp(self.acked, self.next_seq);
        let released = (upto - self.acked) as usize;
        self.entries.drain(..released);
        self.acked = upto;
        released
    }

    /// Acknowledge everything currently recorded.
    pub(crate) fn ack_all(&mut self) -> usize {
        self.ack(self.next_seq)
    }

    /// Iterate entries with `seq >= from`, in sequence order — the replay
    /// suffix re-sent after a reconnect. Entries are dense, so the suffix
    /// starts at an offset: acknowledged history and the entries before
    /// `from` are not visited.
    pub(crate) fn iter_from(&self, from: u64) -> impl Iterator<Item = &(u64, E)> {
        let skip = from
            .saturating_sub(self.acked)
            .min(self.entries.len() as u64);
        self.entries.range(skip as usize..)
    }

    /// Entry with sequence number `seq`, if still retained.
    pub(crate) fn get(&self, seq: u64) -> Option<&E> {
        if seq < self.acked || seq >= self.next_seq {
            return None;
        }
        self.entries
            .get((seq - self.acked) as usize)
            .map(|(_, e)| e)
    }

    /// Unacknowledged entries currently retained.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is awaiting acknowledgement.
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sequence number the next [`append`](Self::append) will assign.
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_assigns_monotonic_seqs() {
        let mut w = ReplayWindow::new();
        assert_eq!(w.append("a"), 0);
        assert_eq!(w.append("b"), 1);
        assert_eq!(w.append("c"), 2);
        assert_eq!(w.len(), 3);
        assert_eq!(w.next_seq(), 3);
    }

    #[test]
    fn cumulative_ack_releases_prefix() {
        let mut w = ReplayWindow::new();
        for s in ["a", "b", "c", "d"] {
            w.append(s);
        }
        assert_eq!(w.ack(2), 2);
        assert_eq!(w.len(), 2);
        assert_eq!((w.get(1), w.get(2)), (None, Some(&"c")));
        // re-acking the same horizon is a no-op
        assert_eq!(w.ack(2), 0);
        // ack beyond next_seq clamps
        assert_eq!(w.ack(100), 2);
        assert_eq!(w.next_seq(), 4);
        assert!(w.is_empty());
    }

    #[test]
    fn replay_suffix_in_order() {
        let mut w = ReplayWindow::new();
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
        // was acknowledged before it.
        let mut w = ReplayWindow::new();
        for i in 0..10u64 {
            w.append(i * 10);
        }
        w.ack(6);
        assert_eq!(w.len(), 4);
        let seqs = |from| w.iter_from(from).map(|&(s, e)| (s, e)).collect::<Vec<_>>();
        assert_eq!(seqs(8), [(8, 80), (9, 90)]);
        assert_eq!(seqs(0).len(), 4, "below the window: all of it");
        assert!(seqs(10).is_empty() && seqs(99).is_empty());
    }

    #[test]
    fn get_by_seq() {
        let mut w = ReplayWindow::new();
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
    fn ack_all_clears() {
        let mut w = ReplayWindow::new();
        w.append(1u32);
        w.append(2);
        assert_eq!(w.ack_all(), 2);
        assert!(w.is_empty());
        assert_eq!(w.get(1), None);
    }
}
