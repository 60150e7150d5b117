//! Lambda kernels — full kernels from closures, no struct boilerplate.
//!
//! §4.2 / Figure 7 of the paper: "RaftLib brings lambda compute kernels,
//! which give the user the ability to declare a fully functional,
//! independent kernel while freeing him/her from the cruft that would
//! normally accompany such a declaration."
//!
//! Ports are named `"0"`, `"1"`, … in declaration order, exactly as in the
//! paper's figure. Three shapes cover the common cases, plus a fully
//! general constructor:
//!
//! * [`lambda_source`] — 0 inputs, 1 output; closure returns
//!   `Some(item)` or `None` for end-of-stream;
//! * [`lambda_map`] — 1 input, 1 output; item-to-item transform;
//! * [`lambda_sink`] — 1 input, 0 outputs; consumes items;
//! * [`LambdaKernel::new`] — explicit port counts with raw [`Context`]
//!   access (the paper's general form).
//!
//! The paper warns that capturing by reference breaks replication; Rust's
//! `move` closures and the `Send + 'static` bounds make that mistake a
//! compile error here. Closures that are also `Clone` yield replicable
//! lambda kernels automatically.

use crate::kernel::{per_element, ErasedBatchStage, KStatus, Kernel, PortSpec};
use crate::port::Context;

/// A kernel defined by a closure over the raw [`Context`].
pub struct LambdaKernel<F> {
    spec_builder: fn() -> PortSpec,
    body: F,
    label: &'static str,
}

impl<F> LambdaKernel<F>
where
    F: FnMut(&Context) -> KStatus + Send + 'static,
{
    /// Fully general lambda kernel: provide a `PortSpec` builder (a plain
    /// fn so the spec stays reproducible) and the body called per quantum.
    pub fn new(spec_builder: fn() -> PortSpec, body: F) -> Self {
        LambdaKernel {
            spec_builder,
            body,
            label: "lambda",
        }
    }
}

impl<F> Kernel for LambdaKernel<F>
where
    F: FnMut(&Context) -> KStatus + Send + 'static,
{
    fn ports(&self) -> PortSpec {
        (self.spec_builder)()
    }

    fn run(&mut self, ctx: &Context) -> KStatus {
        (self.body)(ctx)
    }

    fn name(&self) -> String {
        self.label.to_string()
    }
}

/// Source lambda: yields items until the closure returns `None`.
pub fn lambda_source<T, F>(mut f: F) -> impl Kernel
where
    T: Send + Clone + 'static,
    F: FnMut() -> Option<T> + Send + 'static,
{
    SourceLambda {
        f: move |out: &mut crate::port::OutPort<'_, T>| match f() {
            Some(v) => {
                if out.push(v).is_err() {
                    return KStatus::Stop;
                }
                KStatus::Proceed
            }
            None => KStatus::Stop,
        },
        _marker: std::marker::PhantomData,
    }
}

struct SourceLambda<T, G> {
    f: G,
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T, G> Kernel for SourceLambda<T, G>
where
    T: Send + Clone + 'static,
    G: FnMut(&mut crate::port::OutPort<'_, T>) -> KStatus + Send + 'static,
{
    fn ports(&self) -> PortSpec {
        PortSpec::new().output::<T>("0")
    }
    fn run(&mut self, ctx: &Context) -> KStatus {
        let mut out = ctx.output::<T>("0");
        (self.f)(&mut out)
    }
    fn name(&self) -> String {
        "lambda-source".to_string()
    }
}

/// Map lambda: one input, one output, item-at-a-time transform. If the
/// closure is `Clone`, the kernel is replicable by the auto-parallelizer.
pub fn lambda_map<A, B, F>(f: F) -> impl Kernel
where
    A: Send + Clone + 'static,
    B: Send + Clone + 'static,
    F: FnMut(A) -> B + Clone + Send + 'static,
{
    MapLambda {
        f,
        _marker: std::marker::PhantomData,
    }
}

struct MapLambda<A, B, F> {
    f: F,
    _marker: std::marker::PhantomData<fn(A) -> B>,
}

impl<A, B, F> Kernel for MapLambda<A, B, F>
where
    A: Send + Clone + 'static,
    B: Send + Clone + 'static,
    F: FnMut(A) -> B + Clone + Send + 'static,
{
    fn ports(&self) -> PortSpec {
        PortSpec::new().input::<A>("0").output::<B>("0")
    }

    fn run(&mut self, ctx: &Context) -> KStatus {
        let mut input = ctx.input::<A>("0");
        match input.pop() {
            Ok(v) => {
                drop(input);
                let b = (self.f)(v);
                let mut out = ctx.output::<B>("0");
                if out.push(b).is_err() {
                    return KStatus::Stop;
                }
                KStatus::Proceed
            }
            Err(_) => KStatus::Stop,
        }
    }

    fn name(&self) -> String {
        "lambda-map".to_string()
    }

    fn clone_replica(&self) -> Option<Box<dyn Kernel>> {
        Some(Box::new(MapLambda {
            f: self.f.clone(),
            _marker: std::marker::PhantomData,
        }))
    }

    // Fusable once the user asserts purity via `declare_stateless` (the
    // closure's `Clone` bound alone does not promise it is stateless).
    fn batch_stage(&self) -> Option<Box<dyn ErasedBatchStage>> {
        Some(per_element("lambda-map", self.f.clone()))
    }
}

/// Sink lambda: consumes every item.
pub fn lambda_sink<T, F>(mut f: F) -> impl Kernel
where
    T: Send + Clone + 'static,
    F: FnMut(T) + Send + 'static,
{
    SinkLambda {
        f: move |v: T| f(v),
        _marker: std::marker::PhantomData,
    }
}

struct SinkLambda<T, G> {
    f: G,
    _marker: std::marker::PhantomData<fn(T)>,
}

impl<T, G> Kernel for SinkLambda<T, G>
where
    T: Send + Clone + 'static,
    G: FnMut(T) + Send + 'static,
{
    fn ports(&self) -> PortSpec {
        PortSpec::new().input::<T>("0")
    }
    fn run(&mut self, ctx: &Context) -> KStatus {
        let mut input = ctx.input::<T>("0");
        match input.pop() {
            Ok(v) => {
                drop(input);
                (self.f)(v);
                KStatus::Proceed
            }
            Err(_) => KStatus::Stop,
        }
    }
    fn name(&self) -> String {
        "lambda-sink".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_ports() {
        let k = lambda_source(|| Some(1u32));
        let spec = k.ports();
        assert_eq!(spec.inputs.len(), 0);
        assert_eq!(spec.outputs.len(), 1);
        assert_eq!(spec.outputs[0].name, "0");
    }

    #[test]
    fn map_ports_and_replication() {
        let k = lambda_map(|x: u32| x as u64 * 2);
        let spec = k.ports();
        assert_eq!(spec.inputs.len(), 1);
        assert_eq!(spec.outputs.len(), 1);
        assert!(k.clone_replica().is_some(), "Clone closure => replicable");
    }

    #[test]
    fn sink_ports() {
        let k = lambda_sink(|_x: String| {});
        let spec = k.ports();
        assert_eq!(spec.inputs.len(), 1);
        assert_eq!(spec.outputs.len(), 0);
    }

    #[test]
    fn general_lambda_spec() {
        let k = LambdaKernel::new(
            || {
                PortSpec::new()
                    .input::<u8>("0")
                    .input::<u8>("1")
                    .output::<u8>("0")
            },
            |_ctx| KStatus::Stop,
        );
        let spec = k.ports();
        assert_eq!(spec.inputs.len(), 2);
        assert_eq!(spec.outputs.len(), 1);
    }
}
