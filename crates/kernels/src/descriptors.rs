//! Pass-by-descriptor byte kernels over a shared-memory arena.
//!
//! The paper's zero-copy claim (§5) extends across process boundaries with
//! the [`raft_buffer::arena`] allocator: payload bytes live once in a
//! mapped segment, and what streams between kernels is a fixed-size
//! [`Descriptor`] (offset + length + generation, 16 bytes). A 4 KiB
//! payload crosses a ring as 16 bytes; the consumer reads the bytes in
//! place and recycles the slot. These kernels package that pattern for
//! graph use:
//!
//! * [`DescChunkSource`] — stages a shared corpus into arena slots and
//!   emits descriptors (the "read file, distribute" kernel with the file
//!   bytes in shared memory);
//! * [`DescCount`] — resolves each descriptor, counts occurrences of a
//!   byte with the runtime-dispatched SIMD scanner
//!   ([`raft_algos::simd::count_byte`]), frees the slot, and emits the
//!   per-chunk count;
//! * [`DescFree`] — terminal drain that just recycles descriptors (for
//!   graphs whose scan stage must not own the arena receiver);
//! * [`DescShip`] — journaled cross-process shipper: encodes elements into
//!   arena slots and sends descriptors through a
//!   [`raft_buffer::arena::DescriptorSender`], surviving worker-process
//!   respawns under `raftlib::ProcSupervisor`.
//!
//! The Tx and Rx endpoints of one arena live in *different* kernels — the
//! descriptors themselves travel through an ordinary stream, whose
//! Release/Acquire edge is exactly the visibility contract the arena
//! requires. Within one process the same kernels work over a heap-backed
//! arena ([`raft_buffer::arena::ShmArena::pair`] falls back automatically),
//! so graphs are testable without `memfd`.

use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

use raft_buffer::arena::{ArenaRx, ArenaTx, Descriptor, DescriptorSender, SendOutcome, ShmArena};
use raft_buffer::ShmSegment;
use raftlib::prelude::*;

/// Source kernel: stages a shared corpus into arena slots, `chunk` bytes
/// at a time, and emits a [`Descriptor`] per chunk on port `"out"`.
///
/// Back-pressure is physical: when every arena slot is in flight the
/// source parks on the arena's recycle waker until the consumer frees one
/// (or stops, which ends the stream).
pub struct DescChunkSource {
    tx: ArenaTx,
    data: std::sync::Arc<Vec<u8>>,
    chunk: usize,
    pos: usize,
}

impl DescChunkSource {
    /// Stream `data` through `tx` as `chunk`-byte payloads (the last chunk
    /// may be short). `chunk` must fit the arena's slot size.
    pub fn new(tx: ArenaTx, data: std::sync::Arc<Vec<u8>>, chunk: usize) -> Self {
        assert!(chunk > 0 && chunk <= tx.slot_size(), "chunk exceeds slot");
        DescChunkSource {
            tx,
            data,
            chunk,
            pos: 0,
        }
    }
}

impl Kernel for DescChunkSource {
    fn ports(&self) -> PortSpec {
        PortSpec::new().output::<Descriptor>("out")
    }

    fn run(&mut self, ctx: &Context) -> KStatus {
        if ctx.stop_requested() || self.pos >= self.data.len() {
            return KStatus::Stop;
        }
        let end = (self.pos + self.chunk).min(self.data.len());
        let Some(mut w) = self.tx.alloc(end - self.pos) else {
            // All slots in flight — park on the arena's recycle waker
            // (bounded futex wait) instead of busy-spinning through the
            // scheduler; the consumer's free wakes us. A `false` return
            // means the consuming side is gone and no slot will ever come
            // back, so emitting further descriptors is pointless.
            if ShmArena::wait_free_slot(self.tx.segment()) {
                return KStatus::Proceed;
            }
            return KStatus::Stop;
        };
        w.bytes().copy_from_slice(&self.data[self.pos..end]);
        let d = w.publish();
        let mut out = ctx.output::<Descriptor>("out");
        match out.push(d) {
            Ok(()) => {
                self.pos = end;
                KStatus::Proceed
            }
            Err(_) => KStatus::Stop,
        }
    }

    fn name(&self) -> String {
        "desc-chunk-source".to_string()
    }
}

/// Transform kernel: for each [`Descriptor`] on `"in"`, resolve the
/// payload in the arena, count occurrences of `needle` with the SIMD
/// scanner, recycle the slot, and emit the count on `"out"`.
///
/// Stale or forged descriptors (a peer replaying a freed slot) are
/// rejected by the arena's generation check and counted as zero rather
/// than trusted.
pub struct DescCount {
    rx: ArenaRx,
    needle: u8,
}

impl DescCount {
    /// Count `needle` bytes in every payload arriving through `rx`.
    pub fn new(rx: ArenaRx, needle: u8) -> Self {
        DescCount { rx, needle }
    }
}

impl Kernel for DescCount {
    fn ports(&self) -> PortSpec {
        PortSpec::new()
            .input::<Descriptor>("in")
            .output::<u64>("out")
    }

    fn run(&mut self, ctx: &Context) -> KStatus {
        let mut input = ctx.input::<Descriptor>("in");
        let d = match input.pop() {
            Ok(d) => d,
            Err(_) => return KStatus::Stop,
        };
        let count = match self.rx.resolve(&d) {
            Ok(bytes) => raft_algos::simd::count_byte(bytes, self.needle) as u64,
            Err(_) => 0,
        };
        let _ = self.rx.free(d);
        let mut out = ctx.output::<u64>("out");
        match out.push(count) {
            Ok(()) => KStatus::Proceed,
            Err(_) => KStatus::Stop,
        }
    }

    fn name(&self) -> String {
        "desc-count".to_string()
    }
}

/// Sink kernel that ships each input element to a **supervised worker
/// process**: encode it to bytes, stage the bytes in the arena, and push
/// the descriptor through the [`DescriptorSender`] — the producer-side half
/// of cross-process exactly-once delivery (`raftlib::ProcSupervisor`).
///
/// The sender is shared with the supervisor's recovery path behind a
/// mutex, so the lock is taken once per send *attempt* and held neither
/// while parking on a full arena nor while yielding back to the scheduler
/// — a worker respawn can always grab it between attempts. A
/// [`SendOutcome::Busy`] attempt (arena full, or the worker gone while it
/// respawns) is retried on the next `run`; the `halt` flag (typically
/// `ProcSupervisor::terminal_flag`) breaks the retry loop once the worker
/// is terminally gone and the `Busy` can never clear.
pub struct DescShip<T, F> {
    sender: Arc<Mutex<DescriptorSender>>,
    /// The arena's segment, taken at construction: a full arena is waited
    /// out on it without the sender lock.
    arena: Arc<ShmSegment>,
    encode: F,
    halt: Option<Arc<AtomicBool>>,
    buf: Vec<u8>,
    pending: bool,
    _marker: std::marker::PhantomData<fn(T)>,
}

impl<T, F> DescShip<T, F>
where
    T: Send + Clone + 'static,
    F: Fn(&T, &mut Vec<u8>) + Send + 'static,
{
    /// Ship every element arriving on `"in"`, encoded by `encode`, through
    /// `sender`. `halt` (usually the supervisor's terminal flag) stops the
    /// kernel when the consuming worker is gone for good.
    pub fn new(
        sender: Arc<Mutex<DescriptorSender>>,
        encode: F,
        halt: Option<Arc<AtomicBool>>,
    ) -> Self {
        let arena = sender.lock().expect("sender lock").arena_segment_shared();
        DescShip {
            sender,
            arena,
            encode,
            halt,
            buf: Vec::new(),
            pending: false,
            _marker: std::marker::PhantomData,
        }
    }

    fn halted(&self) -> bool {
        self.halt.as_ref().is_some_and(|h| h.load(Relaxed))
    }
}

impl<T, F> Kernel for DescShip<T, F>
where
    T: Send + Clone + 'static,
    F: Fn(&T, &mut Vec<u8>) + Send + 'static,
{
    fn ports(&self) -> PortSpec {
        PortSpec::new().input::<T>("in")
    }

    fn run(&mut self, ctx: &Context) -> KStatus {
        if !self.pending {
            let mut input = ctx.input::<T>("in");
            let v = match input.pop() {
                Ok(v) => v,
                Err(_) => return KStatus::Stop,
            };
            self.buf.clear();
            (self.encode)(&v, &mut self.buf);
            self.pending = true;
        }
        // One attempt per lock acquisition.
        let outcome = self
            .sender
            .lock()
            .expect("sender lock")
            .send_bytes(&self.buf);
        match outcome {
            SendOutcome::Sent => {
                self.pending = false;
                KStatus::Proceed
            }
            SendOutcome::Busy => {
                if self.halted() || ctx.stop_requested() {
                    return KStatus::Stop;
                }
                // Arena full: park on the recycle waker (bounded), outside
                // the lock. A gone worker returns at once; the wait's
                // `false` is advisory here: during a restart the closed
                // flag is transiently set, so the halt flag above is the
                // real stop signal.
                let _ = ShmArena::wait_free_slot(&self.arena);
                std::thread::yield_now();
                KStatus::Proceed
            }
        }
    }

    fn name(&self) -> String {
        "desc-ship".to_string()
    }
}

/// Terminal sink that recycles every descriptor it receives without
/// touching the payload. The `ArenaRx` is single-owner, so exactly one
/// kernel in a graph can resolve and free; `DescFree` is that kernel for
/// graphs whose earlier stages only route descriptors.
pub struct DescFree {
    rx: ArenaRx,
    freed: u64,
}

impl DescFree {
    /// Recycle descriptors through `rx`.
    pub fn new(rx: ArenaRx) -> Self {
        DescFree { rx, freed: 0 }
    }
}

impl Kernel for DescFree {
    fn ports(&self) -> PortSpec {
        PortSpec::new().input::<Descriptor>("in")
    }

    fn run(&mut self, ctx: &Context) -> KStatus {
        let mut input = ctx.input::<Descriptor>("in");
        match input.pop() {
            Ok(d) => {
                if self.rx.free(d).is_ok() {
                    self.freed += 1;
                }
                KStatus::Proceed
            }
            Err(_) => KStatus::Stop,
        }
    }

    fn name(&self) -> String {
        "desc-free".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raft_buffer::arena::ShmArena;

    #[test]
    fn corpus_counts_survive_the_descriptor_path() {
        // 64 KiB corpus, every 7th byte is the needle.
        let data: Vec<u8> = (0..65536u32)
            .map(|i| if i % 7 == 0 { b'x' } else { b'.' })
            .collect();
        let expected = data.iter().filter(|&&b| b == b'x').count() as u64;
        let data = std::sync::Arc::new(data);

        let (tx, rx) = ShmArena::pair(8, 4096);
        let mut map = RaftMap::new();
        let src = map.add(DescChunkSource::new(tx, data, 4096));
        let scan = map.add(DescCount::new(rx, b'x'));
        let (sink, got) = crate::containers::write_each::<u64>();
        let sink = map.add(sink);
        map.link(src, "out", scan, "in").unwrap();
        map.link(scan, "out", sink, "in").unwrap();
        let report = map.exe().unwrap();
        assert_eq!(got.lock().unwrap().iter().sum::<u64>(), expected);
        // 16 chunks of 4096 bytes crossed as 16-byte descriptors.
        assert_eq!(report.edge("desc-chunk-source").unwrap().stats.popped, 16);
    }

    #[test]
    fn desc_ship_delivers_encoded_payloads_in_order() {
        use raft_buffer::shm::ShmRing;
        const N: u64 = 64;
        let (arena_tx, mut arena_rx) = ShmArena::pair(8, 32);
        let (ring_p, mut ring_c) = ShmRing::<Descriptor>::pair(8);
        let sender = Arc::new(Mutex::new(DescriptorSender::new(arena_tx, ring_p, 32)));

        // "Worker": pops descriptors, checks payload order, commits, frees.
        // Count-based termination — the sender side stays open until the
        // map is dropped, so EoS is not the signal here.
        let commit_seg = sender.lock().unwrap().ring_segment_shared();
        let worker = std::thread::spawn(move || {
            let mut seen = 0u64;
            while seen < N {
                let Ok(d) = ring_c.pop() else { break };
                let bytes = arena_rx.resolve(&d).unwrap().to_vec();
                assert_eq!(bytes, format!("v:{seen}").into_bytes());
                commit_seg.commit_word().store(seen + 1, Relaxed);
                arena_rx.free(d).unwrap();
                seen += 1;
            }
            seen
        });

        let mut map = RaftMap::new();
        let mut i = 0u64;
        let src = map.add(raftlib::lambda_source(move || {
            i += 1;
            (i <= N).then_some(i - 1)
        }));
        let ship = map.add(DescShip::new(
            sender.clone(),
            |v: &u64, buf: &mut Vec<u8>| buf.extend_from_slice(format!("v:{v}").as_bytes()),
            None,
        ));
        map.link(src, "0", ship, "in").unwrap();
        map.exe().unwrap();
        assert_eq!(worker.join().unwrap(), N);
        let mut s = sender.lock().unwrap();
        s.ack_committed();
        assert_eq!(s.pending(), 0, "worker committed everything");
    }

    #[test]
    fn desc_free_drains_without_reading() {
        let data = std::sync::Arc::new(vec![0u8; 4096 * 4]);
        let (tx, rx) = ShmArena::pair(4, 4096);
        let mut map = RaftMap::new();
        let src = map.add(DescChunkSource::new(tx, data, 4096));
        let sink = map.add(DescFree::new(rx));
        map.link(src, "out", sink, "in").unwrap();
        // 4 slots, 4 chunks: completion proves recycling works (otherwise
        // the source starves after the first lap with nothing freeing).
        let report = map.exe().unwrap();
        assert_eq!(report.total_items(), 4);
    }
}
