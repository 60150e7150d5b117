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
//! Taking a handle ([`Context::input`] / [`Context::output`]) pays the name
//! lookup, `RefCell` borrow and `dyn Any` downcast *once*; the handle then
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
use std::cell::RefCell;
use std::sync::Arc;

use raft_buffer::fifo::Monitorable;
use raft_buffer::{
    Consumer, PeekRange, Producer, Signal, SliceView, TryPopError, TryPushError, WriteGuard,
    WriteSlice,
};

use crate::error::PortClosed;
use crate::runtime::Shutdown;

/// Type-erased stream endpoint (`Producer<T>` or `Consumer<T>`).
pub type AnyEndpoint = Box<dyn Any + Send>;

/// Where a kernel's ports live during execution.
///
/// Ports are stored in per-slot `RefCell`s so a kernel can hold handles to
/// several *different* ports simultaneously (the sum kernel pops two inputs
/// and pushes one output in a single `run`). Taking the same port twice
/// panics — that is always a kernel bug.
pub struct Context {
    inputs: Vec<RefCell<AnyEndpoint>>,
    /// Monitor handle of each input's FIFO (for the erased `inputs_done`
    /// check and the schedulers' readiness gate).
    input_fifos: Vec<Arc<dyn Monitorable>>,
    /// Port names, parallel to the endpoint vectors: a name's position is
    /// its port index.
    input_names: Vec<String>,
    outputs: Vec<RefCell<AnyEndpoint>>,
    output_names: Vec<String>,
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
        inputs: Vec<(String, AnyEndpoint, Arc<dyn Monitorable>)>,
        outputs: Vec<(String, AnyEndpoint)>,
        shutdown: Arc<Shutdown>,
    ) -> Self {
        let mut ctx = Context {
            inputs: Vec::new(),
            input_fifos: Vec::new(),
            input_names: Vec::new(),
            outputs: Vec::new(),
            output_names: Vec::new(),
            shutdown,
            kernel_name,
        };
        for (name, ep, fifo) in inputs {
            ctx.input_names.push(name);
            ctx.inputs.push(RefCell::new(ep));
            ctx.input_fifos.push(fifo);
        }
        for (name, ep) in outputs {
            ctx.output_names.push(name);
            ctx.outputs.push(RefCell::new(ep));
        }
        ctx
    }

    /// Construct a context directly from endpoints — for driving a kernel
    /// outside a `RaftMap` (unit tests, custom harnesses).
    #[doc(hidden)]
    pub fn for_test(
        inputs: Vec<(String, AnyEndpoint, Arc<dyn Monitorable>)>,
        outputs: Vec<(String, AnyEndpoint)>,
    ) -> Self {
        Context::new("test".to_string(), inputs, outputs, Arc::default())
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
        let guard = std::cell::RefMut::map(guard, |ep| {
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
        let guard = std::cell::RefMut::map(guard, |ep| {
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
    /// Runtime-internal: the schedulers' readiness gate and wake filter.
    pub(crate) fn input_fifos(&self) -> &[Arc<dyn Monitorable>] {
        &self.input_fifos
    }

    /// `true` when *every* input port is closed and drained — the usual
    /// condition for an intermediate kernel to return [`KStatus::Stop`].
    ///
    /// [`KStatus::Stop`]: crate::kernel::KStatus::Stop
    pub fn inputs_done(&self) -> bool {
        self.input_fifos.iter().all(|f| f.is_finished())
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

    /// Acknowledge everything popped since the last commit: the elements
    /// can no longer be replayed. No-op on unjournaled links. Called by the
    /// scheduler after a successful `run()`; kernels with internal
    /// checkpoints may also call it directly.
    #[inline]
    pub fn commit_consumed(&mut self) -> usize {
        self.guard.commit_consumed()
    }

    /// Queue every unacknowledged popped element for redelivery (oldest
    /// first, before any new ring data). No-op on unjournaled links.
    #[inline]
    pub fn rewind_consumed(&mut self) -> usize {
        self.guard.rewind_consumed()
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

    /// Publish every element staged since the last commit. Returns the
    /// count published; `Err` if the consumer is gone (staged elements are
    /// dropped, as an unjournaled push to a closed stream would be). No-op
    /// on links without staging.
    #[inline]
    pub fn commit_produced(&mut self) -> Result<usize, PortClosed> {
        self.guard.commit_produced().map_err(|_| PortClosed)
    }

    /// Discard every staged element — the aborted transaction's outputs
    /// never become visible downstream. No-op on links without staging.
    #[inline]
    pub fn rewind_produced(&mut self) -> usize {
        self.guard.rewind_produced()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use raft_buffer::{fifo_with, FifoConfig};

    type In = (String, AnyEndpoint, Arc<dyn Monitorable>);

    fn input<T: Send + 'static>(name: &str) -> (In, Producer<T>) {
        let (fifo, p, c) = fifo_with::<T>(FifoConfig::starting_at(4));
        ((name.to_string(), Box::new(c) as _, Arc::new(fifo) as _), p)
    }

    fn output<T: Send + 'static>(name: &str) -> ((String, AnyEndpoint), Consumer<T>) {
        let (_fifo, p, c) = fifo_with::<T>(FifoConfig::starting_at(4));
        ((name.to_string(), Box::new(p) as _), c)
    }

    fn two_in_one_out() -> Context {
        let ((a, _pa), (b, _pb)) = (input::<u64>("a"), input::<u64>("b"));
        let (sum, _c) = output::<u64>("sum");
        Context::for_test(vec![a, b], vec![sum])
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
        let ctx = Context::for_test(vec![a, b], vec![sum]);
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
        let ctx = Context::for_test(Vec::new(), outs);
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
