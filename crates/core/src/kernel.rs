//! The compute-kernel abstraction.
//!
//! A RaftLib application is a set of sequential compute kernels joined by
//! streams (§1). A kernel extends `raft::kernel` in C++; here it implements
//! [`Kernel`]: declare ports in [`Kernel::ports`], do the work in
//! [`Kernel::run`], which the scheduler calls repeatedly until it returns
//! [`KStatus::Stop`].
//!
//! Port declarations are *typed*: [`PortSpec::input`]/[`PortSpec::output`]
//! capture the element type's `TypeId` plus two monomorphized factory
//! functions so the (type-erased) runtime can later allocate the right FIFO
//! and the right split/reduce adapters for each link — the reproduction of
//! C++ RaftLib's template machinery. Everything else the runtime does to a
//! port without knowing its type is a method of the erased end the FIFO
//! factory returns ([`InEnd`] / [`OutEnd`]).

use std::any::{Any, TypeId};

use raft_buffer::{fifo_with, FifoConfig, Signal};

use crate::parallel::{adapter_factories, AdapterFactories};
use crate::port::{Context, InEnd, OutEnd};

/// A type-erased owned batch of stream elements: a `Vec<T>` behind
/// `dyn Any`, handed from stage to stage inside a fused chain with no FIFO
/// protocol in between (see [`ErasedBatchStage`]).
pub type AnyBatch = Box<dyn Any + Send>;

/// What a kernel's `run()` tells the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KStatus {
    /// Call `run()` again — more work to do (the paper's `raft::proceed`).
    Proceed,
    /// The kernel is finished; close its output streams (`raft::stop`).
    Stop,
}

/// Type-erased FIFO construction result: the link's two ends.
pub(crate) type ErasedFifo = (Box<dyn OutEnd>, Box<dyn InEnd>);

/// Monomorphized FIFO factory, captured at port-declaration time.
pub(crate) type FifoFactory = fn(FifoConfig) -> ErasedFifo;

fn make_fifo<T: Send + Clone + 'static>(cfg: FifoConfig) -> ErasedFifo {
    let (_fifo, mut producer, mut consumer) = fifo_with::<T>(cfg);
    if cfg.journal {
        // Exactly-once link: reads hold their slots for replay, pushes staged
        // until the transaction commits (see `FifoConfig::journal`).
        consumer.enable_journal();
        producer.enable_staging();
    }
    (Box::new(producer), Box::new(consumer))
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
    pub(crate) fifo_factory: FifoFactory,
    /// Split/reduce adapter constructors for this element type (used when
    /// the auto-parallelizer replicates the kernel behind this port).
    pub(crate) adapters: fn() -> AdapterFactories,
    /// Bytes per ring slot of this element type (the element with its
    /// signal), which the monitor's growth ceiling is counted in.
    pub(crate) slot_bytes: usize,
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
    pub(crate) fn of<T: Send + Clone + 'static>(name: impl Into<String>) -> Self {
        PortDef {
            name: name.into(),
            type_id: TypeId::of::<T>(),
            type_name: std::any::type_name::<T>(),
            fifo_factory: make_fifo::<T>,
            adapters: adapter_factories::<T>,
            slot_bytes: std::mem::size_of::<(T, Signal)>(),
        }
    }
}

/// One type-erased stage of a fused chain: consumes an owned input batch
/// and produces an owned output batch, with no queue in between.
///
/// Obtained from a kernel via [`Kernel::batch_stage`]; built from a
/// per-element transform with [`per_element`] / [`per_element_filter`].
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

/// The stage [`per_element`] (`FILTER = false`, `F: FnMut(A) -> B`) and
/// [`per_element_filter`] (`FILTER = true`, `F: FnMut(A) -> Option<B>`)
/// build: a transform closure lifted to whole batches by the obvious tight
/// loop — the bridge that lets `Map`-style kernels join fused chains
/// without writing batch code.
struct PerElement<A, B, F, const FILTER: bool> {
    f: F,
    label: &'static str,
    _marker: std::marker::PhantomData<fn(A) -> B>,
}

impl<A, B, F, const FILTER: bool> PerElement<A, B, F, FILTER> {
    fn boxed(label: &'static str, f: F) -> Box<Self> {
        Box::new(PerElement {
            f,
            label,
            _marker: std::marker::PhantomData,
        })
    }

    /// Unpack a batch of `A`s, append `each`'s results to a fresh `Vec<B>`.
    fn run_typed(
        &mut self,
        input: AnyBatch,
        each: impl FnOnce(&mut F, Vec<A>, &mut Vec<B>),
    ) -> AnyBatch
    where
        A: 'static,
        B: Send + 'static,
    {
        let input = input
            .downcast::<Vec<A>>()
            .expect("fused chain: stage input batch element type mismatch");
        let mut out = Vec::with_capacity(input.len());
        each(&mut self.f, *input, &mut out);
        Box::new(out)
    }
}

impl<A, B, F> ErasedBatchStage for PerElement<A, B, F, false>
where
    A: Send + 'static,
    B: Send + 'static,
    F: FnMut(A) -> B + Clone + Send + 'static,
{
    fn in_type(&self) -> TypeId {
        TypeId::of::<A>()
    }
    fn out_type(&self) -> TypeId {
        TypeId::of::<B>()
    }
    fn stage_name(&self) -> String {
        self.label.to_string()
    }
    fn run_batch_erased(&mut self, input: AnyBatch) -> AnyBatch {
        self.run_typed(input, |f, v, out| out.extend(v.into_iter().map(f)))
    }
    fn fork(&self) -> Option<Box<dyn ErasedBatchStage>> {
        Some(Self::boxed(self.label, self.f.clone()))
    }
}

impl<A, B, F> ErasedBatchStage for PerElement<A, B, F, true>
where
    A: Send + 'static,
    B: Send + 'static,
    F: FnMut(A) -> Option<B> + Clone + Send + 'static,
{
    fn in_type(&self) -> TypeId {
        TypeId::of::<A>()
    }
    fn out_type(&self) -> TypeId {
        TypeId::of::<B>()
    }
    fn stage_name(&self) -> String {
        self.label.to_string()
    }
    fn run_batch_erased(&mut self, input: AnyBatch) -> AnyBatch {
        self.run_typed(input, |f, v, out| out.extend(v.into_iter().filter_map(f)))
    }
    fn fork(&self) -> Option<Box<dyn ErasedBatchStage>> {
        Some(Self::boxed(self.label, self.f.clone()))
    }
}

/// Erased per-element stage from a transform closure.
pub fn per_element<A, B, F>(label: &'static str, f: F) -> Box<dyn ErasedBatchStage>
where
    A: Send + 'static,
    B: Send + 'static,
    F: FnMut(A) -> B + Clone + Send + 'static,
{
    PerElement::<A, B, F, false>::boxed(label, f)
}

/// Erased filtering per-element stage: items mapped to `None` are dropped
/// from the batch.
pub fn per_element_filter<A, B, F>(label: &'static str, f: F) -> Box<dyn ErasedBatchStage>
where
    A: Send + 'static,
    B: Send + 'static,
    F: FnMut(A) -> Option<B> + Clone + Send + 'static,
{
    PerElement::<A, B, F, true>::boxed(label, f)
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
    /// the stream-type contract: it mirrors C++ RaftLib's requirement that
    /// stream types be copy-constructible, and it is what lets a journaled
    /// link serve a copy of each element it holds for replay.
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
    /// stream-type contract (see [`PortSpec::input`]).
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

    /// This kernel's batch-stage body for a fused chain (see
    /// [`FusionConfig`](crate::FusionConfig)), or `None` (the default): a
    /// kernel is fusable exactly when this returns a stage. Per-element
    /// transforms build it with [`per_element`] over a clone of their
    /// closure; the fusion pass may call it more than once.
    fn batch_stage(&self) -> Option<Box<dyn ErasedBatchStage>> {
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
    fn batch_stage(&self) -> Option<Box<dyn ErasedBatchStage>> {
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
        let (prod, cons) = (def.fifo_factory)(FifoConfig::starting_at(4));
        let monitor = cons.link();
        let mut p = (prod as Box<dyn Any>)
            .downcast::<raft_buffer::Producer<String>>()
            .unwrap();
        let mut c = (cons as Box<dyn Any>)
            .downcast::<raft_buffer::Consumer<String>>()
            .unwrap();
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
    fn fifo_factory_ends_move_whole_batches() {
        let def = PortDef::of::<u64>("x");
        let (mut out, mut input) = (def.fifo_factory)(FifoConfig::starting_at(8));
        assert_eq!(out.push_batch(Box::new(vec![7u64, 8, 9])), Some(3));
        // Larger than the ring: the reservation grows it on the spot.
        assert_eq!(
            out.push_batch(Box::new((10..30).collect::<Vec<u64>>())),
            Some(20)
        );
        let (batch, n) = input.pop_batch(16).unwrap();
        assert_eq!(n, 16);
        let batch = *batch.downcast::<Vec<u64>>().unwrap();
        assert_eq!(
            batch,
            [7, 8, 9].into_iter().chain(10..23).collect::<Vec<_>>()
        );
        drop(out);
        assert_eq!(input.pop_batch(16).unwrap().1, 7);
        assert!(input.pop_batch(16).is_none(), "closed and drained");
    }
}
