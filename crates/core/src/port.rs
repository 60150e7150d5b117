//! Port access from inside a running kernel.
//!
//! The paper's kernels pull data with `input["name"].pop_s<T>()` and write
//! with `output["name"].allocate_s<T>()` (Figure 2). Here a kernel receives
//! a [`Context`] whose [`Context::input`]/[`Context::output`] return typed
//! handles over the bound stream endpoints. Access is "safe, free from data
//! race and other issues" (§4): each endpoint is owned by exactly one
//! kernel, and element types were verified at link time.
//!
//! Blocking semantics mirror the paper: `pop` blocks until data arrives or
//! the stream closes; `push` blocks while the queue is full (which is what
//! the monitor's 3δ grow rule watches for); `peek_range` gives the sliding
//! window pattern.
//!
//! Each port end is held type-erased exactly once, as an [`InEnd`] /
//! [`OutEnd`] trait object over the link's `Consumer<T>` / `Producer<T>`.
//! What the runtime does to a port without knowing `T` — the fused chain's
//! batch I/O, the journal transaction's commit and rewind, the abort
//! signal — is a method on that object. Taking a typed handle
//! ([`Context::input`] / [`Context::output`]) pays the name lookup,
//! `RefCell` borrow and `dyn Any` downcast *once*; the handle then
//! stores the typed endpoint, so per-element calls are direct. The lookup is
//! a linear scan over the kernel's port names — O(ports) by design: kernels
//! have a handful of ports, and comparing a few short strings (length
//! first) costs less than hashing one. Wide adapters index with
//! [`Context::input_at`] / [`Context::output_at`] instead. For bulk
//! kernels, [`OutPort::reserve`] and [`InPort::pop_slice`] expose the
//! FIFO's zero-copy batch views: elements are written into / read out of
//! the ring storage itself, with the queue's synchronization amortized over
//! the whole batch. The views are agnostic to the link's allocator
//! ([`raft_buffer::LinkAlloc`]): on an shm-backed link the same `reserve` /
//! `pop_slice` calls read and write the mapped segment directly — the
//! zero-copy path *is* the shared-memory path, no extra marshalling layer.

use std::any::Any;
use std::cell::{RefCell, RefMut};
use std::sync::Arc;

use raft_buffer::fifo::Monitorable;
use raft_buffer::{
    Consumer, PeekRange, Producer, Signal, SliceView, TryPopError, TryPushError, WriteGuard,
    WriteSlice,
};

use crate::error::PortClosed;
use crate::kernel::AnyBatch;
use crate::runtime::Shutdown;
use crate::scheduler::QUANTUM;

/// The input end of one stream with its element type erased: a
/// `Consumer<T>`, implemented once for every `T`. A typed handle downcasts
/// it once ([`Context::input`]); the runtime drives it through these
/// methods without knowing `T`.
pub trait InEnd: Any + Send {
    /// Monitor-facing handle of the link this end reads.
    fn link(&self) -> Arc<dyn Monitorable>;
    /// `true` when every read is journaled for replay.
    fn journaled(&self) -> bool;
    /// `true` when a pop (or `take_async`) has something to act on, judged
    /// through this end's own cursor ([`Consumer::ready`]).
    fn ready(&mut self) -> bool;
    /// Pop up to `n` elements into one owned batch (a `Vec<T>`): a single
    /// blocking wait and queue-protocol entry for the whole batch — the
    /// fused chain's head. Returns the batch and its length; `None` once
    /// the stream is closed and drained.
    fn pop_batch(&mut self, n: usize) -> Option<(AnyBatch, usize)>;
    /// Release every element read since the last commit (no-op when not
    /// journaled).
    fn commit(&mut self);
    /// Serve every element read since the last commit again, oldest first,
    /// ahead of new ring data (no-op when not journaled).
    fn rewind(&mut self);
    /// Elements read since the last commit and still held in the ring for
    /// replay (0 when not journaled).
    fn held(&self) -> usize;
}

/// The output end of one stream with its element type erased: a
/// `Producer<T>` (see [`InEnd`]).
pub trait OutEnd: Any + Send {
    /// `true` when pushes are staged until the transaction commits.
    fn journaled(&self) -> bool;
    /// Push an owned batch (a `Vec<T>`) with `Producer::push_batch` — the
    /// fused chain's tail. Returns the element count, or `None` if the
    /// consumer is gone.
    fn push_batch(&mut self, batch: AnyBatch) -> Option<usize>;
    /// Publish everything staged since the last commit (no-op when not
    /// journaled).
    fn commit(&mut self);
    /// Discard everything staged since the last commit (no-op when not
    /// journaled).
    fn rewind(&mut self);
    /// Tell the consumer, out of band, that this kernel failed for good —
    /// the paper's asynchronous signaling pathway for global exception
    /// handling (§4.2).
    fn post_error(&self);
}

impl<T: Send + 'static> InEnd for Consumer<T> {
    fn link(&self) -> Arc<dyn Monitorable> {
        Arc::new(self.fifo())
    }
    fn journaled(&self) -> bool {
        Consumer::journaled(self)
    }
    fn ready(&mut self) -> bool {
        Consumer::ready(self)
    }
    fn pop_batch(&mut self, n: usize) -> Option<(AnyBatch, usize)> {
        let mut batch: Vec<T> = Vec::with_capacity(n);
        let got = self.pop_range(n, &mut batch).ok()?;
        Some((Box::new(batch), got))
    }
    fn commit(&mut self) {
        self.commit_consumed();
    }
    fn rewind(&mut self) {
        self.rewind_consumed();
    }
    fn held(&self) -> usize {
        Consumer::held(self)
    }
}

impl<T: Send + 'static> OutEnd for Producer<T> {
    fn journaled(&self) -> bool {
        Producer::journaled(self)
    }
    fn push_batch(&mut self, batch: AnyBatch) -> Option<usize> {
        let mut batch = batch
            .downcast::<Vec<T>>()
            .expect("fused chain tail: output batch element type mismatch");
        let n = batch.len();
        Producer::push_batch(self, &mut batch).ok()?;
        Some(n)
    }
    fn commit(&mut self) {
        // A commit that fails (consumer gone) drops the staged elements,
        // exactly as an unjournaled push to a closed consumer would.
        let _ = self.commit_produced();
    }
    fn rewind(&mut self) {
        self.rewind_produced();
    }
    fn post_error(&self) {
        self.fifo().post_async(Signal::Error(1));
    }
}

/// Where a kernel's ports live during execution.
///
/// Ports are stored in per-slot `RefCell`s so a kernel can hold handles to
/// several *different* ports simultaneously (the sum kernel pops two inputs
/// and pushes one output in a single `run`). Taking the same port twice
/// panics — that is always a kernel bug.
pub struct Context {
    inputs: Vec<RefCell<Box<dyn InEnd>>>,
    /// Monitor handle of each input's FIFO (for the erased `inputs_done`
    /// check and the schedulers' readiness gate).
    input_fifos: Vec<Arc<dyn Monitorable>>,
    /// Port names, parallel to the endpoint vectors: a name's position is
    /// its port index.
    input_names: Vec<String>,
    outputs: Vec<RefCell<Box<dyn OutEnd>>>,
    output_names: Vec<String>,
    /// What [`Context::commit_every`] returns, fixed at construction.
    commit_every: u32,
    /// The graph's shutdown word pair: this kernel reads the level the
    /// control thread applied, and a fatal panic requests one through it.
    pub(crate) shutdown: Arc<Shutdown>,
    /// Kernel display name (for port-access panic messages).
    kernel_name: String,
}

// SAFETY: a Context is only ever used by the single thread running its
// kernel; it is moved (Send) to that thread at start-up. RefCell is the
// single-thread interior mutability it needs.
unsafe impl Send for Context {}

impl Context {
    /// Assemble a context from named endpoints. Runtime-internal.
    pub(crate) fn new(
        kernel_name: String,
        inputs: Vec<(String, Box<dyn InEnd>)>,
        outputs: Vec<(String, Box<dyn OutEnd>)>,
        shutdown: Arc<Shutdown>,
    ) -> Self {
        let mut ctx = Context {
            inputs: Vec::new(),
            input_fifos: Vec::new(),
            input_names: Vec::new(),
            outputs: Vec::new(),
            output_names: Vec::new(),
            commit_every: 0,
            shutdown,
            kernel_name,
        };
        for (name, ep) in inputs {
            ctx.bind_input(name, ep);
        }
        for (name, ep) in outputs {
            ctx.bind_output(name, ep);
        }
        ctx.commit_every = ctx.cadence();
        ctx
    }

    fn bind_input(&mut self, name: String, ep: Box<dyn InEnd>) {
        self.input_names.push(name);
        self.input_fifos.push(ep.link());
        self.inputs.push(RefCell::new(ep));
    }

    fn bind_output(&mut self, name: String, ep: Box<dyn OutEnd>) {
        self.output_names.push(name);
        self.outputs.push(RefCell::new(ep));
    }

    /// A context named `"test"` with no ports yet — for driving a kernel
    /// outside a `RaftMap` (unit tests, custom harnesses). Bind endpoints
    /// with [`Context::with_input`] / [`Context::with_output`].
    #[doc(hidden)]
    pub fn for_test() -> Self {
        Context::new("test".to_string(), Vec::new(), Vec::new(), Arc::default())
    }

    /// Bind `end` as the next input port, called `name`.
    #[doc(hidden)]
    pub fn with_input<T: Send + 'static>(mut self, name: &str, end: Consumer<T>) -> Self {
        self.bind_input(name.to_string(), Box::new(end));
        self.commit_every = self.cadence();
        self
    }

    /// Bind `end` as the next output port, called `name`.
    #[doc(hidden)]
    pub fn with_output<T: Send + 'static>(mut self, name: &str, end: Producer<T>) -> Self {
        self.bind_output(name.to_string(), Box::new(end));
        self.commit_every = self.cadence();
        self
    }

    /// The commit cadence of this kernel's journal transaction. Batched
    /// commits are sound only for a *fully* journaled kernel: if an input
    /// is unjournaled, a rewind cannot re-serve the pops of the open
    /// transaction's earlier runs; if an output is unjournaled, those runs
    /// already published, so replaying their inputs would duplicate them.
    /// A partially journaled kernel therefore commits every run. A fully
    /// journaled one commits every [`QUANTUM`] runs, or sooner once an
    /// input holds half its ring ([`inputs_half_held`](Self::inputs_half_held)).
    fn cadence(&self) -> u32 {
        let journaled_in = self.inputs.iter().filter(|e| e.borrow().journaled());
        let journaled_out = self.outputs.iter().filter(|e| e.borrow().journaled());
        match (journaled_in.count(), journaled_out.count()) {
            (0, 0) => 0,
            (i, o) if i < self.inputs.len() || o < self.outputs.len() => 1,
            _ => QUANTUM,
        }
    }

    /// Typed handle to the named input port. Panics if the name or type is
    /// wrong (both were checked at link time; a panic here means the kernel
    /// asked for a port it never declared) or if the port handle is already
    /// taken in this `run` invocation.
    pub fn input<T: Send + 'static>(&self, name: &str) -> InPort<'_, T> {
        let idx = position(&self.input_names, name).unwrap_or_else(|| {
            panic!(
                "kernel {:?} has no input port {:?} (has {:?})",
                self.kernel_name, name, self.input_names
            )
        });
        self.input_at(idx)
    }

    /// Typed handle to the input port at declaration index `idx` — the
    /// allocation-free access path for hot kernels.
    pub fn input_at<T: Send + 'static>(&self, idx: usize) -> InPort<'_, T> {
        let cell = self.inputs.get(idx).unwrap_or_else(|| {
            panic!(
                "kernel {:?} input index {idx} out of range ({} inputs)",
                self.kernel_name,
                self.inputs.len()
            )
        });
        let guard = cell
            .try_borrow_mut()
            .unwrap_or_else(|_| panic!("input port {idx} taken twice in one run()"));
        // Pay the type-erasure downcast once per `run`, not once per pop:
        // the mapped RefMut stores the typed endpoint pointer, so every
        // port operation below is a plain field access.
        let kernel_name = &self.kernel_name;
        let guard = RefMut::map(guard, |ep| {
            let ep: &mut dyn Any = &mut **ep;
            ep.downcast_mut::<Consumer<T>>().unwrap_or_else(|| {
                panic!(
                    "kernel {kernel_name:?}: input port {idx} is not of type {}",
                    std::any::type_name::<T>()
                )
            })
        });
        InPort { guard }
    }

    /// Typed handle to the named output port (see [`Context::input`]).
    pub fn output<T: Send + 'static>(&self, name: &str) -> OutPort<'_, T> {
        let idx = position(&self.output_names, name).unwrap_or_else(|| {
            panic!(
                "kernel {:?} has no output port {:?} (has {:?})",
                self.kernel_name, name, self.output_names
            )
        });
        self.output_at(idx)
    }

    /// Typed handle to the output port at declaration index `idx`.
    pub fn output_at<T: Send + 'static>(&self, idx: usize) -> OutPort<'_, T> {
        let cell = self.outputs.get(idx).unwrap_or_else(|| {
            panic!(
                "kernel {:?} output index {idx} out of range ({} outputs)",
                self.kernel_name,
                self.outputs.len()
            )
        });
        let guard = cell
            .try_borrow_mut()
            .unwrap_or_else(|_| panic!("output port {idx} taken twice in one run()"));
        // As for inputs: downcast once, then every push is direct.
        let kernel_name = &self.kernel_name;
        let guard = RefMut::map(guard, |ep| {
            let ep: &mut dyn Any = &mut **ep;
            ep.downcast_mut::<Producer<T>>().unwrap_or_else(|| {
                panic!(
                    "kernel {kernel_name:?}: output port {idx} is not of type {}",
                    std::any::type_name::<T>()
                )
            })
        });
        OutPort { guard }
    }

    /// Number of input ports.
    pub fn input_count(&self) -> usize {
        self.inputs.len()
    }

    /// Number of output ports.
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// `true` once the runtime asked all kernels to wind down, whatever
    /// the reason (a stop handle, a deadline, a watchdog, a sibling kernel's
    /// fatal panic): drain level ≥ 1. Long-running sources should poll this.
    pub fn stop_requested(&self) -> bool {
        self.drain_level() >= raft_buffer::DRAIN_DRAINING
    }

    /// Current graph drain level: 0 = running, 1 = draining (sources asked
    /// to stop, in-flight data still flushing), 2 = quiesced (FIFOs fail
    /// fast).
    pub fn drain_level(&self) -> u8 {
        self.shutdown.level()
    }

    /// Monitor handles of the input streams, parallel to the input ports.
    /// Runtime-internal: the stealing scheduler's off-thread readiness
    /// checks and its input wakers.
    pub(crate) fn input_fifos(&self) -> &[Arc<dyn Monitorable>] {
        &self.input_fifos
    }

    /// [`crate::scheduler::inputs_ready`] judged through each input's own
    /// cursor ([`InEnd::ready`]): a consumer with data in view reads no
    /// shared ring counter. The per-run gate of a pooled `drive`.
    pub(crate) fn inputs_ready(&self) -> bool {
        self.inputs.iter().all(|e| e.borrow_mut().ready())
    }

    /// `true` when *every* input port is closed and drained — the usual
    /// condition for an intermediate kernel to return [`KStatus::Stop`].
    ///
    /// [`KStatus::Stop`]: crate::kernel::KStatus::Stop
    pub fn inputs_done(&self) -> bool {
        self.input_fifos.iter().all(|f| f.is_finished())
    }

    /// Successful `run()` invocations the scheduler folds into one journal
    /// transaction (see `cadence`); `0` for a kernel without a journaled
    /// port, whose transaction the scheduler skips.
    pub(crate) fn commit_every(&self) -> u32 {
        self.commit_every
    }

    /// `true` once some input holds half its ring's ceiling in the open
    /// transaction. A journaled input keeps what the transaction read in
    /// its ring; committing now keeps the next run's reads clear of the
    /// ceiling, where the ring would release them early and unreplayable
    /// (`forced_acks`) — unless that one run reads more than half the ring.
    pub(crate) fn inputs_half_held(&self) -> bool {
        self.inputs
            .iter()
            .zip(&self.input_fifos)
            .any(|(e, f)| 2 * e.borrow().held() >= f.bounds().1)
    }

    /// Commit the open transaction on every port: publish staged outputs,
    /// then acknowledge consumed inputs.
    pub(crate) fn commit(&self) {
        self.outputs.iter().for_each(|e| e.borrow_mut().commit());
        self.inputs.iter().for_each(|e| e.borrow_mut().commit());
    }

    /// Abort the open transaction on every port: discard staged outputs,
    /// queue consumed inputs for replay.
    pub(crate) fn rewind(&self) {
        self.outputs.iter().for_each(|e| e.borrow_mut().rewind());
        self.inputs.iter().for_each(|e| e.borrow_mut().rewind());
    }

    /// Post the abort signal on every output (see [`OutEnd::post_error`]).
    pub(crate) fn post_error(&self) {
        self.outputs.iter().for_each(|e| e.borrow().post_error());
    }

    /// Batched pop from input `idx` (see [`InEnd::pop_batch`]).
    pub(crate) fn pop_batch(&self, idx: usize, n: usize) -> Option<(AnyBatch, usize)> {
        self.inputs[idx].borrow_mut().pop_batch(n)
    }

    /// Batched push to output `idx` (see [`OutEnd::push_batch`]).
    pub(crate) fn push_batch(&self, idx: usize, batch: AnyBatch) -> Option<usize> {
        self.outputs[idx].borrow_mut().push_batch(batch)
    }
}

/// Index of the port called `name` (names are unique per direction: the
/// port spec rejects duplicates). `str` equality compares lengths before
/// bytes, so a miss against a differently sized name costs one integer
/// compare.
#[inline]
fn position(names: &[String], name: &str) -> Option<usize> {
    names.iter().position(|n| n == name)
}

/// Typed reading handle for one input port, valid for the current `run`.
///
/// The `Consumer<T>` downcast is cached in the handle when it is taken
/// ([`Context::input`]), so each operation here is a direct call on the
/// typed endpoint — no per-pop `dyn Any` lookup.
pub struct InPort<'a, T: Send + 'static> {
    guard: std::cell::RefMut<'a, Consumer<T>>,
}

impl<'a, T: Send + 'static> InPort<'a, T> {
    /// Blocking pop — the paper's `pop_s` without the RAII wrapper (Rust
    /// move semantics make the auto-pop object unnecessary: the value is
    /// simply returned).
    #[inline]
    pub fn pop(&mut self) -> Result<T, PortClosed> {
        self.guard.pop().map_err(|_| PortClosed)
    }

    /// Blocking pop returning the element's synchronous signal too.
    #[inline]
    pub fn pop_signal(&mut self) -> Result<(T, Signal), PortClosed> {
        self.guard.pop_signal().map_err(|_| PortClosed)
    }

    /// Non-blocking pop: `Ok(None)` when the stream is momentarily empty.
    #[inline]
    pub fn try_pop(&mut self) -> Result<Option<T>, PortClosed> {
        match self.guard.try_pop() {
            Ok(v) => Ok(Some(v)),
            Err(TryPopError::Empty) => Ok(None),
            Err(TryPopError::Closed) => Err(PortClosed),
        }
    }

    /// Sliding-window view of the next `n` elements (the paper's
    /// `peek_range`). Blocks until `n` are available; fails if the stream
    /// ends first.
    #[inline]
    pub fn peek_range(&mut self, n: usize) -> Result<PeekRange<'_, T>, PortClosed> {
        self.guard.peek_range(n).map_err(|_| PortClosed)
    }

    /// Pop up to `n` items into `out`; blocks for the first one.
    #[inline]
    pub fn pop_range(&mut self, n: usize, out: &mut Vec<T>) -> Result<usize, PortClosed> {
        self.guard.pop_range(n, out).map_err(|_| PortClosed)
    }

    /// Zero-copy batch read: lend the next up-to-`n` queued elements to `f`
    /// as a [`SliceView`] borrowed straight from the ring, then consume
    /// exactly the elements viewed. Blocks for the first element; the view
    /// may be shorter than `n` if the stream is running dry. The whole
    /// batch costs one resize-fence entry and one counter store.
    #[inline]
    pub fn pop_slice<R>(
        &mut self,
        n: usize,
        f: impl FnOnce(&SliceView<'_, T>) -> R,
    ) -> Result<R, PortClosed> {
        self.guard.pop_slice(n, f).map_err(|_| PortClosed)
    }

    /// Consume `n` elements previously examined with `peek_range`.
    #[inline]
    pub fn advance(&mut self, n: usize) -> usize {
        self.guard.advance(n)
    }

    /// Non-consuming look at the head element.
    #[inline]
    pub fn peek<R>(&mut self, f: impl FnOnce(&T, Signal) -> R) -> Option<R> {
        self.guard.peek(f)
    }

    /// Pending asynchronous signal, if any.
    #[inline]
    pub fn take_async(&mut self) -> Option<Signal> {
        self.guard.take_async()
    }

    /// Elements currently queued.
    #[inline]
    pub fn occupancy(&self) -> usize {
        self.guard.occupancy()
    }

    /// Current queue capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.guard.capacity()
    }

    /// `true` when the upstream closed and everything was consumed.
    #[inline]
    pub fn is_finished(&self) -> bool {
        self.guard.is_finished()
    }
}

/// Typed writing handle for one output port, valid for the current `run`.
///
/// As with [`InPort`], the `Producer<T>` downcast is cached when the handle
/// is taken, so pushes go straight to the typed endpoint.
pub struct OutPort<'a, T: Send + 'static> {
    guard: std::cell::RefMut<'a, Producer<T>>,
}

impl<'a, T: Send + 'static> OutPort<'a, T> {
    /// Blocking push; errs only if the downstream kernel is gone.
    #[inline]
    pub fn push(&mut self, value: T) -> Result<(), PortClosed> {
        self.guard.push(value).map_err(|_| PortClosed)
    }

    /// Blocking push with a synchronous signal attached.
    #[inline]
    pub fn push_signal(&mut self, value: T, signal: Signal) -> Result<(), PortClosed> {
        self.guard
            .push_signal(value, signal)
            .map_err(|_| PortClosed)
    }

    /// Non-blocking push: `Ok(None)` on success, `Ok(Some(value))` handing
    /// the element back when the queue is full right now.
    #[inline]
    pub fn try_push(&mut self, value: T) -> Result<Option<T>, PortClosed> {
        match self.guard.try_push(value) {
            Ok(()) => Ok(None),
            Err(TryPushError::Full(v)) => Ok(Some(v)),
            Err(TryPushError::Closed(_)) => Err(PortClosed),
        }
    }

    /// Blocking batch push: all of `items` are sent, under as few lock
    /// acquisitions as possible. Errs only if the downstream kernel is
    /// gone (remaining items stay in `items`).
    #[inline]
    pub fn push_batch(&mut self, items: &mut Vec<T>) -> Result<(), PortClosed> {
        self.guard.push_batch(items).map_err(|_| PortClosed)
    }

    /// Zero-copy batch write: reserve `n` contiguous ring slots and fill
    /// them in place through the returned [`WriteSlice`] — elements are
    /// constructed directly in the queue's storage and published together
    /// when the slice drops, under one resize-fence entry for the whole
    /// batch. Blocks while the ring lacks room (growing it if `n` exceeds
    /// capacity); errs only if the downstream kernel is gone.
    #[inline]
    pub fn reserve(&mut self, n: usize) -> Result<WriteSlice<'_, T>, PortClosed> {
        self.guard.reserve(n).map_err(|_| PortClosed)
    }

    /// In-place allocation — the paper's `allocate_s`: mutate the guard,
    /// and the element is sent when it drops.
    #[inline]
    pub fn allocate(&mut self) -> Result<WriteGuard<'_, T>, PortClosed>
    where
        T: Default,
    {
        self.guard.allocate().map_err(|_| PortClosed)
    }

    /// Elements currently queued downstream.
    #[inline]
    pub fn occupancy(&self) -> usize {
        self.guard.occupancy()
    }

    /// Current queue capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.guard.capacity()
    }

    /// `true` once the consumer endpoint dropped.
    #[inline]
    pub fn is_closed(&self) -> bool {
        self.guard.is_closed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use raft_buffer::{fifo_with, FifoConfig};

    fn test_ctx(
        ins: Vec<(String, Box<dyn InEnd>)>,
        outs: Vec<(String, Box<dyn OutEnd>)>,
    ) -> Context {
        Context::new("test".to_string(), ins, outs, Arc::default())
    }

    fn input<T: Send + 'static>(name: &str) -> ((String, Box<dyn InEnd>), Producer<T>) {
        let (_fifo, p, c) = fifo_with::<T>(FifoConfig::starting_at(4));
        ((name.to_string(), Box::new(c)), p)
    }

    fn output<T: Send + 'static>(name: &str) -> ((String, Box<dyn OutEnd>), Consumer<T>) {
        let (_fifo, p, c) = fifo_with::<T>(FifoConfig::starting_at(4));
        ((name.to_string(), Box::new(p)), c)
    }

    /// The commit cadence of a kernel whose inputs and outputs are links
    /// built from `ins` and `outs`.
    fn cadence(ins: &[FifoConfig], outs: &[FifoConfig]) -> u32 {
        let link = |i: usize, cfg| {
            let (o, n) = (crate::kernel::PortDef::of::<u64>("x").fifo_factory)(cfg);
            ((format!("p{i}"), o), (format!("p{i}"), n))
        };
        let inputs = ins.iter().enumerate().map(|(i, &c)| link(i, c).1);
        let outputs = outs.iter().enumerate().map(|(i, &c)| link(i, c).0);
        test_ctx(inputs.collect(), outputs.collect()).commit_every()
    }

    #[test]
    fn commit_cadence_follows_the_journaled_ports() {
        let (plain, journaled) = (FifoConfig::default(), FifoConfig::default().journaled());
        // Every port journaled: one transaction per scheduler quantum.
        assert_eq!(cadence(&[journaled, journaled], &[journaled]), QUANTUM);
        assert_eq!(QUANTUM, 32);
        // A small ring does not change the cadence; what an input holds
        // does (`a_journaled_input_commits_once_it_holds_half_its_ring`).
        let fixed = FifoConfig::fixed(4).journaled();
        assert_eq!(cadence(&[journaled, fixed], &[journaled]), QUANTUM);
        // One unjournaled port, on either side: every run.
        assert_eq!(cadence(&[journaled, plain], &[journaled]), 1);
        assert_eq!(cadence(&[journaled], &[plain]), 1);
        // No journaled port: no transaction at all.
        assert_eq!(cadence(&[plain], &[plain]), 0);
        assert_eq!(cadence(&[], &[]), 0);
    }

    #[test]
    fn a_journaled_input_commits_once_it_holds_half_its_ring() {
        let (_f, mut p, mut c) = fifo_with::<u64>(FifoConfig::fixed(4));
        c.enable_journal();
        (0..4).for_each(|v| p.push(v).unwrap());
        let ctx = test_ctx(vec![("in".to_string(), Box::new(c))], vec![]);
        assert_eq!(ctx.input::<u64>("in").pop(), Ok(0));
        assert!(!ctx.inputs_half_held(), "1 of 4 held");
        assert_eq!(ctx.input::<u64>("in").pop(), Ok(1));
        assert!(ctx.inputs_half_held(), "2 of 4 held");
        ctx.commit();
        assert!(!ctx.inputs_half_held(), "the commit released them");
    }

    fn two_in_one_out() -> Context {
        let ((a, _pa), (b, _pb)) = (input::<u64>("a"), input::<u64>("b"));
        let (sum, _c) = output::<u64>("sum");
        test_ctx(vec![a, b], vec![sum])
    }

    #[test]
    #[should_panic(expected = r#"kernel "test" has no input port "c" (has ["a", "b"])"#)]
    fn unknown_input_names_the_declared_ports() {
        let _ = two_in_one_out().input::<u64>("c");
    }

    #[test]
    #[should_panic(expected = r#"kernel "test" has no output port "a" (has ["sum"])"#)]
    fn unknown_output_names_the_declared_ports() {
        let _ = two_in_one_out().output::<u64>("a");
    }

    #[test]
    #[should_panic(expected = "input port 1 taken twice in one run()")]
    fn taking_an_input_twice_panics() {
        let ctx = two_in_one_out();
        let _first = ctx.input::<u64>("b");
        let _second = ctx.input::<u64>("b");
    }

    #[test]
    #[should_panic(expected = "output port 0 taken twice in one run()")]
    fn taking_an_output_twice_panics() {
        let ctx = two_in_one_out();
        let _first = ctx.output::<u64>("sum");
        let _second = ctx.output_at::<u64>(0);
    }

    #[test]
    #[should_panic(expected = r#"kernel "test": input port 0 is not of type u32"#)]
    fn wrong_input_type_names_the_type() {
        let _ = two_in_one_out().input::<u32>("a");
    }

    #[test]
    #[should_panic(
        expected = r#"kernel "test": output port 0 is not of type alloc::string::String"#
    )]
    fn wrong_output_type_names_the_type() {
        let _ = two_in_one_out().output::<String>("sum");
    }

    #[test]
    fn distinct_ports_are_held_together_and_retaken_after_release() {
        let ((a, mut pa), (b, mut pb)) = (input::<u64>("a"), input::<u64>("b"));
        let (sum, mut c) = output::<u64>("sum");
        let ctx = test_ctx(vec![a, b], vec![sum]);
        assert_eq!((ctx.input_count(), ctx.output_count()), (2, 1));
        for round in 0..3u64 {
            pa.push(round).unwrap();
            pb.push(10).unwrap();
            let (mut a, mut b) = (ctx.input::<u64>("a"), ctx.input::<u64>("b"));
            let v = a.pop().unwrap() + b.pop().unwrap();
            ctx.output::<u64>("sum").push(v).unwrap();
            assert_eq!(c.pop().unwrap(), round + 10);
        }
        assert!(!ctx.inputs_done());
        drop((pa, pb));
        assert!(ctx.inputs_done());
    }

    #[test]
    fn every_name_of_a_wide_kernel_resolves_to_its_own_endpoint() {
        let (outs, mut sinks): (Vec<_>, Vec<_>) =
            (0..32).map(|i| output::<usize>(&format!("o{i}"))).unzip();
        let ctx = test_ctx(Vec::new(), outs);
        // Names that share a length ("o10".."o31") and prefix each other
        // ("o1", "o10") must not alias.
        for i in (0..32).rev() {
            ctx.output::<usize>(&format!("o{i}")).push(i).unwrap();
        }
        for (i, c) in sinks.iter_mut().enumerate() {
            assert_eq!(c.try_pop().ok(), Some(i), "port o{i}");
            assert!(c.try_pop().is_err(), "port o{i} got a second element");
        }
    }

    proptest! {
        /// Name lookup ≡ position in the port list, for arbitrary sets of
        /// distinct names; names outside the set miss.
        #[test]
        fn lookup_is_the_port_index(
            raw in proptest::collection::vec(proptest::collection::vec(0u8..4, 0..5), 1..24),
            probe in proptest::collection::vec(0u8..4, 0..5),
        ) {
            // Tiny alphabet, short names: plenty of shared lengths/prefixes.
            let spell = |v: &[u8]| v.iter().map(|b| char::from(b'a' + b)).collect::<String>();
            let mut names: Vec<String> = Vec::new();
            for n in raw.iter().map(|v| spell(v)) {
                if !names.contains(&n) {
                    names.push(n);
                }
            }
            for (idx, n) in names.iter().enumerate() {
                prop_assert_eq!(position(&names, n), Some(idx));
            }
            let probe = spell(&probe);
            prop_assert_eq!(position(&names, &probe).is_some(), names.contains(&probe));
        }
    }
}
