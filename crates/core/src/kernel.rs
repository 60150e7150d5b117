//! The compute-kernel abstraction.
//!
//! A RaftLib application is a set of sequential compute kernels joined by
//! streams (§1). A kernel extends `raft::kernel` in C++; here it implements
//! [`Kernel`]: declare ports in [`Kernel::ports`], do the work in
//! [`Kernel::run`], which the scheduler calls repeatedly until it returns
//! [`KStatus::Stop`].
//!
//! Port declarations are *typed*: [`PortSpec::input`]/[`PortSpec::output`]
//! capture the element type's `TypeId` plus monomorphized factory functions
//! so the (type-erased) runtime can later allocate the right FIFO and the
//! right split/reduce adapters for each link — the reproduction of C++
//! RaftLib's template machinery.

use std::any::{Any, TypeId};

use raft_buffer::fifo::Monitorable;
use raft_buffer::{fifo_with, FifoConfig};
use std::sync::Arc;

use crate::parallel::{adapter_factories, AdapterFactories};
use crate::port::{AnyEndpoint, Context};

/// A type-erased owned batch of stream elements: a `Vec<T>` behind
/// `dyn Any`, handed from stage to stage inside a fused chain with no FIFO
/// protocol in between (see [`crate::analysis::fusion`]).
pub type AnyBatch = Box<dyn Any + Send>;

/// Monomorphized batched-input eraser captured on a [`PortDef`]: pop up to
/// `n` elements from input port `idx` into one owned batch — a single
/// blocking wait and a single queue-protocol entry for the whole batch.
/// Returns the erased batch and its length; `None` once the stream is
/// closed and drained.
pub type BatchPopFn = fn(&Context, usize, usize) -> Option<(AnyBatch, usize)>;

/// Monomorphized batched-output eraser captured on a [`PortDef`]: publish
/// an owned batch through output port `idx` via [`crate::port::OutPort::reserve`] —
/// elements are moved straight into reserved ring slots and released under
/// one fence entry per reservation. Returns the element count, or `None`
/// if the consumer is gone.
pub type BatchPushFn = fn(&Context, usize, AnyBatch) -> Option<usize>;

fn batch_pop<T: Send + 'static>(ctx: &Context, idx: usize, n: usize) -> Option<(AnyBatch, usize)> {
    let mut port = ctx.input_at::<T>(idx);
    let mut buf: Vec<T> = Vec::with_capacity(n);
    match port.pop_range(n, &mut buf) {
        Ok(got) => Some((Box::new(buf), got)),
        Err(_) => None,
    }
}

fn batch_push<T: Send + 'static>(ctx: &Context, idx: usize, batch: AnyBatch) -> Option<usize> {
    let batch = batch
        .downcast::<Vec<T>>()
        .expect("fused chain tail: output batch element type mismatch");
    let n = batch.len();
    if n == 0 {
        return Some(0);
    }
    let mut port = ctx.output_at::<T>(idx);
    let mut iter = batch.into_iter();
    let mut left = n;
    // reserve() clamps each grant to the ring's maximum capacity, so a
    // batch larger than the ring is published across several reservations.
    while left > 0 {
        let mut slice = port.reserve(left).ok()?;
        let take = left.min(slice.remaining());
        if take == 0 {
            continue;
        }
        for _ in 0..take {
            match iter.next() {
                Some(v) => slice.push(v),
                None => break,
            }
        }
        left -= take;
    }
    Some(n)
}

/// What a kernel's `run()` tells the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KStatus {
    /// Call `run()` again — more work to do (the paper's `raft::proceed`).
    Proceed,
    /// The kernel is finished; close its output streams (`raft::stop`).
    Stop,
}

/// Type-erased FIFO construction result: `(producer, consumer, monitor
/// handle)`. The producer/consumer boxes hold `raft_buffer::Producer<T>` /
/// `Consumer<T>` and are downcast inside [`Context`].
pub type ErasedFifo = (AnyEndpoint, AnyEndpoint, Arc<dyn Monitorable>);

/// Monomorphized FIFO factory, captured at port-declaration time.
pub type FifoFactory = fn(FifoConfig) -> ErasedFifo;

fn make_fifo<T: Send + Clone + 'static>(cfg: FifoConfig) -> ErasedFifo {
    let (fifo, mut producer, mut consumer) = fifo_with::<T>(cfg);
    if let Some(journal) = cfg.journal {
        // Exactly-once link: pops are recorded for replay, pushes staged
        // until the transaction commits (see `raft_buffer::journal`).
        consumer.enable_journal(journal);
        producer.enable_staging();
    }
    (Box::new(producer), Box::new(consumer), Arc::new(fifo))
}

/// Transaction verbs applied to a journaled endpoint at the end of one
/// `run()` (see `raft_buffer::journal`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalOp {
    /// Acknowledge consumed elements / publish staged outputs.
    Commit,
    /// Queue consumed elements for replay / discard staged outputs.
    Rewind,
}

/// Monomorphized journal-control eraser captured on a [`PortDef`]: apply
/// `op` to the input (`is_input == true`) or output port `idx` of `ctx`.
/// Returns how many elements were affected (acked/queued/published/
/// discarded).
pub type JournalCtlFn = fn(&Context, bool, usize, JournalOp) -> u64;

fn journal_ctl<T: Send + 'static>(ctx: &Context, is_input: bool, idx: usize, op: JournalOp) -> u64 {
    if is_input {
        let mut port = ctx.input_at::<T>(idx);
        match op {
            JournalOp::Commit => port.commit_consumed() as u64,
            JournalOp::Rewind => port.rewind_consumed() as u64,
        }
    } else {
        let mut port = ctx.output_at::<T>(idx);
        match op {
            // A commit that fails (consumer gone) drops the staged elements,
            // exactly as an unjournaled push to a closed consumer would.
            JournalOp::Commit => port.commit_produced().unwrap_or(0) as u64,
            JournalOp::Rewind => port.rewind_produced() as u64,
        }
    }
}

/// Declaration of one port: name, element type, and the factories the
/// erased runtime needs for this type.
#[derive(Clone)]
pub struct PortDef {
    /// Port name, unique within its direction on the kernel.
    pub name: String,
    /// Element type id (checked for equality at link time).
    pub type_id: TypeId,
    /// Human-readable element type (for error messages).
    pub type_name: &'static str,
    /// FIFO constructor for this element type.
    pub fifo_factory: FifoFactory,
    /// Split/reduce adapter constructors for this element type (used when
    /// the auto-parallelizer replicates the kernel behind this port).
    pub adapters: fn() -> AdapterFactories,
    /// Batched-input eraser for this element type (fused-chain head I/O).
    pub batch_pop: BatchPopFn,
    /// Batched-output eraser for this element type (fused-chain tail I/O).
    pub batch_push: BatchPushFn,
    /// Journal-transaction eraser for this element type (exactly-once
    /// recovery: commit/rewind through the type-erased [`Context`]).
    pub journal_ctl: JournalCtlFn,
}

impl std::fmt::Debug for PortDef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PortDef")
            .field("name", &self.name)
            .field("type", &self.type_name)
            .finish()
    }
}

impl PortDef {
    /// Declare a port of element type `T`.
    ///
    /// `T: Clone` mirrors C++ RaftLib's requirement that stream types be
    /// copy-constructible; it is what lets a journaled link keep a replay
    /// copy of each in-flight element.
    pub fn of<T: Send + Clone + 'static>(name: impl Into<String>) -> Self {
        PortDef {
            name: name.into(),
            type_id: TypeId::of::<T>(),
            type_name: std::any::type_name::<T>(),
            fifo_factory: make_fifo::<T>,
            adapters: adapter_factories::<T>,
            batch_pop: batch_pop::<T>,
            batch_push: batch_push::<T>,
            journal_ctl: journal_ctl::<T>,
        }
    }
}

/// One type-erased stage of a fused chain: consumes an owned input batch
/// and produces an owned output batch, with no queue in between.
///
/// Obtained from a kernel via [`Kernel::into_batch_stage`]; usually
/// implemented through the typed [`BatchKernel`] trait (blanket-erased
/// here) rather than directly.
pub trait ErasedBatchStage: Send {
    /// Element type consumed by this stage.
    fn in_type(&self) -> TypeId;
    /// Element type produced by this stage.
    fn out_type(&self) -> TypeId;
    /// Display name of the stage (for fused-group reports).
    fn stage_name(&self) -> String;
    /// Transform one owned batch. `input` holds a `Vec<In>`; the result
    /// must hold a `Vec<Out>` (any length — filters may shrink it).
    fn run_batch_erased(&mut self, input: AnyBatch) -> AnyBatch;
    /// Clean-slate copy, for restarting (or replicating) a fused group as
    /// a unit. `None` if the stage cannot be rebuilt.
    fn fork(&self) -> Option<Box<dyn ErasedBatchStage>>;
}

/// Typed batch-transform body: what a fusable kernel compiles into.
///
/// `run_batch` receives the whole input batch by value and appends its
/// results to `out` — order-preserving, possibly shrinking (filters) or
/// growing (flat-maps) the batch. A blanket impl erases every
/// `BatchKernel` into an [`ErasedBatchStage`]; per-element kernels can
/// skip implementing this entirely via [`per_element`] /
/// [`per_element_filter`].
pub trait BatchKernel: Send + 'static {
    /// Element type consumed.
    type In: Send + 'static;
    /// Element type produced.
    type Out: Send + 'static;

    /// Transform `input`, appending results to `out` in order.
    fn run_batch(&mut self, input: Vec<Self::In>, out: &mut Vec<Self::Out>);

    /// Display name (fused-group reports). Defaults to the type name.
    fn stage_name(&self) -> String {
        let full = std::any::type_name::<Self>();
        full.rsplit("::").next().unwrap_or(full).to_string()
    }

    /// Clean-slate copy for restart-as-a-unit; `None` (the default) if the
    /// stage cannot be rebuilt.
    fn fork(&self) -> Option<Self>
    where
        Self: Sized,
    {
        None
    }
}

impl<B: BatchKernel> ErasedBatchStage for B {
    fn in_type(&self) -> TypeId {
        TypeId::of::<B::In>()
    }
    fn out_type(&self) -> TypeId {
        TypeId::of::<B::Out>()
    }
    fn stage_name(&self) -> String {
        BatchKernel::stage_name(self)
    }
    fn run_batch_erased(&mut self, input: AnyBatch) -> AnyBatch {
        let input = input
            .downcast::<Vec<B::In>>()
            .expect("fused chain: stage input batch element type mismatch");
        let mut out = Vec::with_capacity(input.len());
        self.run_batch(*input, &mut out);
        Box::new(out)
    }
    fn fork(&self) -> Option<Box<dyn ErasedBatchStage>> {
        BatchKernel::fork(self).map(|b| Box::new(b) as Box<dyn ErasedBatchStage>)
    }
}

/// Blanket per-element adapter: lifts an `FnMut(A) -> B` into a
/// [`BatchKernel`] whose `run_batch` is the obvious tight loop — the bridge
/// that lets `Map`-style kernels join fused chains without writing batch
/// code.
pub struct PerElement<A, B, F> {
    f: F,
    label: &'static str,
    _marker: std::marker::PhantomData<fn(A) -> B>,
}

impl<A, B, F> BatchKernel for PerElement<A, B, F>
where
    A: Send + 'static,
    B: Send + 'static,
    F: FnMut(A) -> B + Clone + Send + 'static,
{
    type In = A;
    type Out = B;
    fn run_batch(&mut self, input: Vec<A>, out: &mut Vec<B>) {
        out.extend(input.into_iter().map(&mut self.f));
    }
    fn stage_name(&self) -> String {
        self.label.to_string()
    }
    fn fork(&self) -> Option<Self> {
        Some(PerElement {
            f: self.f.clone(),
            label: self.label,
            _marker: std::marker::PhantomData,
        })
    }
}

/// Erased per-element stage from a transform closure (see [`PerElement`]).
pub fn per_element<A, B, F>(label: &'static str, f: F) -> Box<dyn ErasedBatchStage>
where
    A: Send + 'static,
    B: Send + 'static,
    F: FnMut(A) -> B + Clone + Send + 'static,
{
    Box::new(PerElement {
        f,
        label,
        _marker: std::marker::PhantomData,
    })
}

/// Filtering counterpart of [`PerElement`]: items mapped to `None` are
/// dropped from the batch.
pub struct PerElementFilter<A, B, F> {
    f: F,
    label: &'static str,
    _marker: std::marker::PhantomData<fn(A) -> B>,
}

impl<A, B, F> BatchKernel for PerElementFilter<A, B, F>
where
    A: Send + 'static,
    B: Send + 'static,
    F: FnMut(A) -> Option<B> + Clone + Send + 'static,
{
    type In = A;
    type Out = B;
    fn run_batch(&mut self, input: Vec<A>, out: &mut Vec<B>) {
        out.extend(input.into_iter().filter_map(&mut self.f));
    }
    fn stage_name(&self) -> String {
        self.label.to_string()
    }
    fn fork(&self) -> Option<Self> {
        Some(PerElementFilter {
            f: self.f.clone(),
            label: self.label,
            _marker: std::marker::PhantomData,
        })
    }
}

/// Erased filtering per-element stage (see [`PerElementFilter`]).
pub fn per_element_filter<A, B, F>(label: &'static str, f: F) -> Box<dyn ErasedBatchStage>
where
    A: Send + 'static,
    B: Send + 'static,
    F: FnMut(A) -> Option<B> + Clone + Send + 'static,
{
    Box::new(PerElementFilter {
        f,
        label,
        _marker: std::marker::PhantomData,
    })
}

/// A kernel's full port declaration.
#[derive(Debug, Default)]
pub struct PortSpec {
    /// Input (consuming) ports, in declaration order.
    pub inputs: Vec<PortDef>,
    /// Output (producing) ports, in declaration order.
    pub outputs: Vec<PortDef>,
}

impl PortSpec {
    /// Empty spec (a kernel with no ports is legal only as a whole-app
    /// placeholder and will fail `exe()` validation).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an input port of element type `T` — the analog of
    /// `input.addPort<T>("name")` in the paper's Figure 2. `T: Clone` is
    /// the stream-type contract (see [`PortDef::of`]).
    pub fn input<T: Send + Clone + 'static>(mut self, name: impl Into<String>) -> Self {
        let def = PortDef::of::<T>(name);
        assert!(
            self.inputs.iter().all(|p| p.name != def.name),
            "duplicate input port {:?}",
            def.name
        );
        self.inputs.push(def);
        self
    }

    /// Add an output port of element type `T`. `T: Clone` is the
    /// stream-type contract (see [`PortDef::of`]).
    pub fn output<T: Send + Clone + 'static>(mut self, name: impl Into<String>) -> Self {
        let def = PortDef::of::<T>(name);
        assert!(
            self.outputs.iter().all(|p| p.name != def.name),
            "duplicate output port {:?}",
            def.name
        );
        self.outputs.push(def);
        self
    }
}

/// A sequential compute kernel.
///
/// Implementations hold their own state (`&mut self` in `run`); all
/// communication goes through the [`Context`]'s ports, which is what makes
/// kernels safely parallelizable (the paper's "share nothing" property).
pub trait Kernel: Send + 'static {
    /// Declare this kernel's ports. Called once, before execution; must be
    /// deterministic.
    fn ports(&self) -> PortSpec;

    /// One scheduling quantum. Pop/peek inputs, push outputs, return
    /// [`KStatus::Proceed`] to be called again or [`KStatus::Stop`] when
    /// done (sources: data exhausted; intermediate kernels: inputs closed).
    fn run(&mut self, ctx: &Context) -> KStatus;

    /// Display name (diagnostics, mapping reports). Defaults to the type
    /// name.
    fn name(&self) -> String {
        let full = std::any::type_name::<Self>();
        full.rsplit("::").next().unwrap_or(full).to_string()
    }

    /// Produce a fresh replica of this kernel for automatic parallelization
    /// (§4.1: kernels are replicated when the graph allows it). Return
    /// `None` (the default) if the kernel carries non-replicable state.
    fn clone_replica(&self) -> Option<Box<dyn Kernel>> {
        None
    }

    /// Whether the kernel is pure with respect to its stream: its output for
    /// an item does not depend on previously-seen items. Stateless kernels
    /// are safe to restart after a panic and safe to replicate behind an
    /// out-of-order split. Defaults to `false` (conservative); override, or
    /// declare per-instance via [`crate::map::RaftMap::declare_stateless`].
    fn is_stateless(&self) -> bool {
        false
    }

    /// Whether this kernel can compile into a batch stage of a fused chain
    /// (see [`crate::analysis::fusion`]). Contract: returning `true` here
    /// promises that [`Kernel::batch_stage`] returns `Some`. Defaults to
    /// `false`; per-element transforms implement it via [`per_element`].
    fn is_fusable(&self) -> bool {
        false
    }

    /// Produce this kernel's batch-stage body for fusion, or `None` (the
    /// default). The fusion pass calls this at most once and then discards
    /// the kernel, so implementations may move or clone their transform
    /// into the stage.
    fn batch_stage(&mut self) -> Option<Box<dyn ErasedBatchStage>> {
        None
    }
}

impl Kernel for Box<dyn Kernel> {
    fn ports(&self) -> PortSpec {
        (**self).ports()
    }
    fn run(&mut self, ctx: &Context) -> KStatus {
        (**self).run(ctx)
    }
    fn name(&self) -> String {
        (**self).name()
    }
    fn clone_replica(&self) -> Option<Box<dyn Kernel>> {
        (**self).clone_replica()
    }
    fn is_stateless(&self) -> bool {
        (**self).is_stateless()
    }
    fn is_fusable(&self) -> bool {
        (**self).is_fusable()
    }
    fn batch_stage(&mut self) -> Option<Box<dyn ErasedBatchStage>> {
        (**self).batch_stage()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Nop;
    impl Kernel for Nop {
        fn ports(&self) -> PortSpec {
            PortSpec::new()
        }
        fn run(&mut self, _ctx: &Context) -> KStatus {
            KStatus::Stop
        }
    }

    #[test]
    fn default_name_strips_path() {
        assert_eq!(Nop.name(), "Nop");
    }

    #[test]
    fn port_spec_builder() {
        let spec = PortSpec::new()
            .input::<i64>("input_a")
            .input::<i64>("input_b")
            .output::<i64>("sum");
        assert_eq!(spec.inputs.len(), 2);
        assert_eq!(spec.outputs.len(), 1);
        assert_eq!(spec.inputs[0].name, "input_a");
        assert_eq!(spec.inputs[0].type_id, TypeId::of::<i64>());
        assert_eq!(spec.outputs[0].name, "sum");
    }

    #[test]
    fn type_ids_distinguish_types() {
        let spec = PortSpec::new().input::<i64>("a").input::<u64>("b");
        assert_ne!(spec.inputs[0].type_id, spec.inputs[1].type_id);
    }

    #[test]
    #[should_panic(expected = "duplicate input port")]
    fn duplicate_port_name_panics() {
        let _ = PortSpec::new().input::<i64>("x").input::<u8>("x");
    }

    #[test]
    fn fifo_factory_produces_working_endpoints() {
        let def = PortDef::of::<String>("s");
        let (prod, cons, monitor) = (def.fifo_factory)(FifoConfig::starting_at(4));
        let mut p = prod.downcast::<raft_buffer::Producer<String>>().unwrap();
        let mut c = cons.downcast::<raft_buffer::Consumer<String>>().unwrap();
        p.try_push("hi".to_string()).unwrap();
        assert_eq!(monitor.occupancy(), 1);
        assert_eq!(c.try_pop().unwrap(), "hi");
    }

    #[test]
    fn default_clone_replica_is_none() {
        assert!(Nop.clone_replica().is_none());
    }

    #[test]
    fn default_kernel_is_not_fusable() {
        assert!(!Nop.is_fusable());
        assert!(Nop.batch_stage().is_none());
    }

    #[test]
    fn per_element_stage_maps_a_batch() {
        let mut stage = per_element("dbl", |x: u32| u64::from(x) * 2);
        assert_eq!(stage.in_type(), TypeId::of::<u32>());
        assert_eq!(stage.out_type(), TypeId::of::<u64>());
        assert_eq!(stage.stage_name(), "dbl");
        let out = stage.run_batch_erased(Box::new(vec![1u32, 2, 3]));
        assert_eq!(*out.downcast::<Vec<u64>>().unwrap(), vec![2, 4, 6]);
        // fork gives an independent, equivalent stage
        let mut forked = stage.fork().expect("Clone closure forks");
        let out = forked.run_batch_erased(Box::new(vec![5u32]));
        assert_eq!(*out.downcast::<Vec<u64>>().unwrap(), vec![10]);
    }

    #[test]
    fn per_element_filter_drops_none() {
        let mut stage = per_element_filter("evens", |x: u32| x.is_multiple_of(2).then_some(x));
        let out = stage.run_batch_erased(Box::new(vec![1u32, 2, 3, 4]));
        assert_eq!(*out.downcast::<Vec<u32>>().unwrap(), vec![2, 4]);
    }

    #[test]
    fn port_def_batch_erasers_roundtrip() {
        let def = PortDef::of::<u64>("x");
        let (fifo, producer, consumer) = raft_buffer::fifo_with::<u64>(FifoConfig::starting_at(8));
        let monitor: Arc<dyn Monitorable> = Arc::new(fifo);
        let in_ctx = Context::for_test(
            vec![("x".into(), Box::new(consumer), monitor)],
            vec![("x".into(), Box::new(producer))],
        );
        assert_eq!(
            (def.batch_push)(&in_ctx, 0, Box::new(vec![7u64, 8, 9])),
            Some(3)
        );
        let (batch, n) = (def.batch_pop)(&in_ctx, 0, 16).unwrap();
        assert_eq!(n, 3);
        assert_eq!(*batch.downcast::<Vec<u64>>().unwrap(), vec![7, 8, 9]);
    }
}
