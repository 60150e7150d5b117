//! Out-of-order processing with downstream re-ordering.
//!
//! §4.1 of the paper distinguishes three stream disciplines: in-order
//! processing, out-of-order processing, and "process the data out of order
//! and re-order at some later time. RaftLib accommodates all of the
//! above". The first two map to `link`/`link_unordered`; this module
//! supplies the third:
//!
//! * [`Stamp`] — wraps each item with a monotonically increasing sequence
//!   number before the parallel region;
//! * [`Resequence`] — after the parallel region, buffers out-of-order
//!   arrivals and releases items strictly by sequence number.
//!
//! The parallel stage in between operates on `Seq<T>` pairs (its transform
//! must preserve the sequence number — [`map_seq`] builds such a kernel
//! from a plain `T -> U` function).

use std::collections::BTreeMap;

use raftlib::prelude::*;

/// A sequence-stamped item.
pub type Seq<T> = (u64, T);

/// Stamps each item with its position in the stream.
pub struct Stamp<T: Send + Clone + 'static> {
    next: u64,
    _marker: std::marker::PhantomData<fn(T)>,
}

impl<T: Send + Clone + 'static> Default for Stamp<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send + Clone + 'static> Stamp<T> {
    /// New stamper starting at sequence 0.
    pub fn new() -> Self {
        Stamp {
            next: 0,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<T: Send + Clone + 'static> Kernel for Stamp<T> {
    fn ports(&self) -> PortSpec {
        PortSpec::new().input::<T>("in").output::<Seq<T>>("out")
    }

    fn run(&mut self, ctx: &Context) -> KStatus {
        let mut input = ctx.input::<T>("in");
        match input.pop() {
            Ok(v) => {
                drop(input);
                let seq = self.next;
                self.next += 1;
                let mut out = ctx.output::<Seq<T>>("out");
                if out.push((seq, v)).is_err() {
                    return KStatus::Stop;
                }
                KStatus::Proceed
            }
            Err(_) => KStatus::Stop,
        }
    }

    fn name(&self) -> String {
        "stamp".to_string()
    }
}

/// Releases stamped items in sequence order, buffering gaps.
///
/// The reorder buffer is unbounded in principle; in practice its size is
/// bounded by the parallel region's width × queue depths. The final report
/// exposes the high-water mark via [`Resequence::high_water`]... (readable
/// only before `exe()` moves the kernel; use the buffered count in tests
/// through output ordering instead).
pub struct Resequence<T: Send + Clone + 'static> {
    next: u64,
    pending: BTreeMap<u64, T>,
    high_water: usize,
}

impl<T: Send + Clone + 'static> Default for Resequence<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send + Clone + 'static> Resequence<T> {
    /// New resequencer expecting sequence numbers from 0.
    pub fn new() -> Self {
        Resequence {
            next: 0,
            pending: BTreeMap::new(),
            high_water: 0,
        }
    }

    /// Largest number of items ever buffered while waiting for a gap.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    fn drain_ready(&mut self, out: &mut OutPort<'_, T>) -> Result<(), PortClosed> {
        while let Some(v) = self.pending.remove(&self.next) {
            out.push(v)?;
            self.next += 1;
        }
        Ok(())
    }
}

impl<T: Send + Clone + 'static> Kernel for Resequence<T> {
    fn ports(&self) -> PortSpec {
        PortSpec::new().input::<Seq<T>>("in").output::<T>("out")
    }

    fn run(&mut self, ctx: &Context) -> KStatus {
        let mut input = ctx.input::<Seq<T>>("in");
        match input.pop() {
            Ok((seq, v)) => {
                drop(input);
                debug_assert!(
                    seq >= self.next,
                    "duplicate or regressed sequence number {seq} (expected >= {})",
                    self.next
                );
                self.pending.insert(seq, v);
                self.high_water = self.high_water.max(self.pending.len());
                let mut out = ctx.output::<T>("out");
                if self.drain_ready(&mut out).is_err() {
                    return KStatus::Stop;
                }
                KStatus::Proceed
            }
            Err(_) => {
                // Upstream done: flush whatever is buffered, in order (any
                // residual gap means lost items upstream — release what we
                // have deterministically).
                let mut out = ctx.output::<T>("out");
                let pending = std::mem::take(&mut self.pending);
                for (_, v) in pending {
                    if out.push(v).is_err() {
                        break;
                    }
                }
                KStatus::Stop
            }
        }
    }

    fn name(&self) -> String {
        "resequence".to_string()
    }
}

/// A replicable kernel applying `f` to the payload while preserving the
/// sequence stamp — the transform to put *between* [`Stamp`] and
/// [`Resequence`].
pub fn map_seq<A, B, F>(
    f: F,
) -> crate::transforms::Map<Seq<A>, Seq<B>, impl FnMut(Seq<A>) -> Seq<B> + Clone + Send + 'static>
where
    A: Send + Clone + 'static,
    B: Send + Clone + 'static,
    F: FnMut(A) -> B + Clone + Send + 'static,
{
    let mut f = f;
    crate::transforms::Map::new(move |(seq, a): Seq<A>| (seq, f(a)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::containers::write_each;
    use crate::generate::Generate;

    /// The headline property: a replicated (out-of-order) parallel region
    /// between Stamp and Resequence still yields *in-order* output.
    #[test]
    fn replicated_region_reordered_downstream() {
        const N: u64 = 30_000;
        let mut map = RaftMap::new();
        let src = map.add(Generate::new(0..N));
        let stamp = map.add(Stamp::<u64>::new());
        let work = map.add(map_seq(|x: u64| x * 3 + 1));
        let reseq = map.add(Resequence::<u64>::new());
        let (we, out) = write_each::<u64>();
        let dst = map.add(we);
        map.link(src, "out", stamp, "in").unwrap();
        // the parallel region: unordered links, replicated 4 ways
        map.link_unordered(stamp, "out", work, "in").unwrap();
        map.link_unordered(work, "out", reseq, "in").unwrap();
        map.prefer_width(work, 4);
        map.link(reseq, "out", dst, "in").unwrap();
        let report = map.exe().unwrap();
        assert_eq!(report.replicated.len(), 1, "work stage must replicate");
        let got = out.lock().unwrap();
        // exact order restored
        assert_eq!(*got, (0..N).map(|x| x * 3 + 1).collect::<Vec<u64>>());
    }

    #[test]
    fn stamp_then_resequence_is_identity() {
        let mut map = RaftMap::new();
        let src = map.add(Generate::new(0..500u32));
        let stamp = map.add(Stamp::<u32>::new());
        let reseq = map.add(Resequence::<u32>::new());
        let (we, out) = write_each::<u32>();
        let dst = map.add(we);
        map.link(src, "out", stamp, "in").unwrap();
        map.link(stamp, "out", reseq, "in").unwrap();
        map.link(reseq, "out", dst, "in").unwrap();
        map.exe().unwrap();
        assert_eq!(*out.lock().unwrap(), (0..500).collect::<Vec<u32>>());
    }

    #[test]
    fn resequence_handles_adversarial_order() {
        // Drive the kernel directly with a hand-shuffled sequence.
        use raft_buffer::{fifo_with, FifoConfig};
        let (_fi, mut p_in, c_in) = fifo_with::<Seq<u32>>(FifoConfig::starting_at(64));
        let (_fo, p_out, mut c_out) = fifo_with::<u32>(FifoConfig::starting_at(64));
        // worst case: strictly reversed arrival
        for seq in (0..32u64).rev() {
            p_in.try_push((seq, seq as u32)).unwrap();
        }
        p_in.close();
        let ctx = Context::for_test(
            vec![("in".to_string(), Box::new(c_in) as _)],
            vec![("out".to_string(), Box::new(p_out) as _)],
        );
        let mut k = Resequence::<u32>::new();
        while k.run(&ctx) == KStatus::Proceed {}
        let hw = k.high_water();
        drop(ctx);
        let mut got = Vec::new();
        while let Ok(v) = c_out.try_pop() {
            got.push(v);
        }
        assert_eq!(got, (0..32).collect::<Vec<u32>>());
        assert_eq!(hw, 32, "reversed order buffers everything");
    }
}
