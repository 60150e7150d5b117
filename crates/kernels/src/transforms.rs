//! Per-item transform kernels and the reduce-to-a-value kernel.

use std::sync::{Arc, Mutex};

use raftlib::prelude::*;

/// Item-to-item transform kernel; replicable when the function is `Clone`
/// (state-free transforms are the paper's prime candidates for automatic
/// replication).
pub struct Map<A, B, F> {
    f: F,
    _marker: std::marker::PhantomData<fn(A) -> B>,
}

impl<A, B, F> Map<A, B, F>
where
    A: Send + Clone + 'static,
    B: Send + Clone + 'static,
    F: FnMut(A) -> B + Clone + Send + 'static,
{
    /// Build from the transform function.
    pub fn new(f: F) -> Self {
        Map {
            f,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<A, B, F> Kernel for Map<A, B, F>
where
    A: Send + Clone + 'static,
    B: Send + Clone + 'static,
    F: FnMut(A) -> B + Clone + Send + 'static,
{
    fn ports(&self) -> PortSpec {
        PortSpec::new().input::<A>("in").output::<B>("out")
    }

    fn run(&mut self, ctx: &Context) -> KStatus {
        let mut input = ctx.input::<A>("in");
        match input.pop() {
            Ok(v) => {
                drop(input);
                let b = (self.f)(v);
                let mut out = ctx.output::<B>("out");
                if out.push(b).is_err() {
                    return KStatus::Stop;
                }
                KStatus::Proceed
            }
            Err(_) => KStatus::Stop,
        }
    }

    fn name(&self) -> String {
        "map".to_string()
    }

    fn clone_replica(&self) -> Option<Box<dyn Kernel>> {
        Some(Box::new(Map {
            f: self.f.clone(),
            _marker: std::marker::PhantomData,
        }))
    }

    // The constructor's contract is a pure per-item transform (a closure
    // smuggling cross-item state in captures gets what it asked for), so
    // the kernel classifies stateless and joins fused chains.
    fn is_stateless(&self) -> bool {
        true
    }

    fn batch_stage(&self) -> Option<Box<dyn raftlib::ErasedBatchStage>> {
        Some(raftlib::per_element("map", self.f.clone()))
    }
}

/// Batch transform over borrowed input: maps whole slices of the input
/// ring at a time instead of popping item by item.
///
/// Where [`Map`] pays one queue synchronization per element, `SliceMap`
/// lends up to `batch` queued elements to the transform zero-copy
/// ([`InPort::pop_slice`]), collects the results, and publishes them with
/// one bulk push — the queue protocol is amortized over the whole batch on
/// both sides. The transform takes `&A`, which is what makes the
/// borrow-from-the-ring view possible; use it when the transform doesn't
/// need ownership (scans, lookups, arithmetic over `Copy` data).
///
/// Replicable when the function is `Clone`, like [`Map`].
///
/// [`InPort::pop_slice`]: raftlib::InPort::pop_slice
pub struct SliceMap<A, B, F> {
    f: F,
    batch: usize,
    scratch: Vec<B>,
    _marker: std::marker::PhantomData<fn(&A) -> B>,
}

impl<A, B, F> SliceMap<A, B, F>
where
    A: Send + Clone + 'static,
    B: Send + Clone + 'static,
    F: FnMut(&A) -> B + Clone + Send + 'static,
{
    /// Build from the by-reference transform function.
    pub fn new(f: F) -> Self {
        SliceMap {
            f,
            batch: 256,
            scratch: Vec::new(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Set the maximum elements transformed per `run()` quantum.
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }
}

impl<A, B, F> Kernel for SliceMap<A, B, F>
where
    A: Send + Clone + 'static,
    B: Send + Clone + 'static,
    F: FnMut(&A) -> B + Clone + Send + 'static,
{
    fn ports(&self) -> PortSpec {
        PortSpec::new().input::<A>("in").output::<B>("out")
    }

    fn run(&mut self, ctx: &Context) -> KStatus {
        let mut input = ctx.input::<A>("in");
        let f = &mut self.f;
        let scratch = &mut self.scratch;
        // One view lends the whole front of the input ring to the
        // transform; the elements are consumed when the view returns.
        let popped = input.pop_slice(self.batch, |view| {
            scratch.extend(view.iter().map(&mut *f));
        });
        drop(input);
        if popped.is_err() {
            return KStatus::Stop;
        }
        let mut out = ctx.output::<B>("out");
        if out.push_batch(&mut self.scratch).is_err() {
            return KStatus::Stop;
        }
        KStatus::Proceed
    }

    fn name(&self) -> String {
        "slice_map".to_string()
    }

    fn clone_replica(&self) -> Option<Box<dyn Kernel>> {
        Some(Box::new(SliceMap {
            f: self.f.clone(),
            batch: self.batch,
            scratch: Vec::new(),
            _marker: std::marker::PhantomData,
        }))
    }

    // Pure by contract, like [`Map`]; the scratch buffer is reused
    // allocation, not cross-item state.
    fn is_stateless(&self) -> bool {
        true
    }

    fn batch_stage(&self) -> Option<Box<dyn raftlib::ErasedBatchStage>> {
        // In a fused chain the batch is owned, so the by-reference
        // transform runs over each element in place.
        let mut f = self.f.clone();
        Some(raftlib::per_element("slice_map", move |a: A| f(&a)))
    }
}

/// Filtering transform: items mapped to `None` are dropped — the
/// "heuristically skipping" data-dependent behaviour the paper calls out in
/// text search (§3).
pub struct FilterMap<A, B, F> {
    f: F,
    _marker: std::marker::PhantomData<fn(A) -> B>,
}

impl<A, B, F> FilterMap<A, B, F>
where
    A: Send + Clone + 'static,
    B: Send + Clone + 'static,
    F: FnMut(A) -> Option<B> + Clone + Send + 'static,
{
    /// Build from the filtering function.
    pub fn new(f: F) -> Self {
        FilterMap {
            f,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<A, B, F> Kernel for FilterMap<A, B, F>
where
    A: Send + Clone + 'static,
    B: Send + Clone + 'static,
    F: FnMut(A) -> Option<B> + Clone + Send + 'static,
{
    fn ports(&self) -> PortSpec {
        PortSpec::new().input::<A>("in").output::<B>("out")
    }

    fn run(&mut self, ctx: &Context) -> KStatus {
        let mut input = ctx.input::<A>("in");
        match input.pop() {
            Ok(v) => {
                drop(input);
                if let Some(b) = (self.f)(v) {
                    let mut out = ctx.output::<B>("out");
                    if out.push(b).is_err() {
                        return KStatus::Stop;
                    }
                }
                KStatus::Proceed
            }
            Err(_) => KStatus::Stop,
        }
    }

    fn name(&self) -> String {
        "filter_map".to_string()
    }

    fn clone_replica(&self) -> Option<Box<dyn Kernel>> {
        Some(Box::new(FilterMap {
            f: self.f.clone(),
            _marker: std::marker::PhantomData,
        }))
    }

    // Pure by contract, like [`Map`]; dropping items is a per-item
    // decision, so order and content are preserved under fusion.
    fn is_stateless(&self) -> bool {
        true
    }

    fn batch_stage(&self) -> Option<Box<dyn raftlib::ErasedBatchStage>> {
        Some(raftlib::per_element_filter("filter_map", self.f.clone()))
    }
}

/// Handle holding the final value of a [`Fold`] after `exe()`.
pub type FoldHandle<B> = Arc<Mutex<B>>;

/// Reduce a stream to a single value — the paper's Figure 6 `reduce< int,
/// func >( val )`: "val now has the result".
///
/// Each `run()` pops up to 256 elements into a buffer the kernel keeps
/// across runs and moves them into the fold function, so reading the
/// stream allocates nothing per run.
pub struct Fold<A, B, F> {
    f: F,
    acc: FoldHandle<B>,
    buf: Vec<A>,
}

impl<A, B, F> Fold<A, B, F>
where
    A: Send + Clone + 'static,
    B: Send + Clone + 'static,
    F: FnMut(&mut B, A) + Send + 'static,
{
    /// Build from the initial value and fold function; returns the kernel
    /// and the handle the final value is read from.
    pub fn new(init: B, f: F) -> (Self, FoldHandle<B>) {
        let acc = Arc::new(Mutex::new(init));
        (
            Fold {
                f,
                acc: acc.clone(),
                buf: Vec::new(),
            },
            acc,
        )
    }
}

impl<A, B, F> Kernel for Fold<A, B, F>
where
    A: Send + Clone + 'static,
    B: Send + Clone + 'static,
    F: FnMut(&mut B, A) + Send + 'static,
{
    fn ports(&self) -> PortSpec {
        PortSpec::new().input::<A>("in")
    }

    fn run(&mut self, ctx: &Context) -> KStatus {
        let mut input = ctx.input::<A>("in");
        // Empty unless a panic inside the last read left elements behind;
        // a restart reuses this instance, and they are not this run's.
        self.buf.clear();
        match input.pop_range(256, &mut self.buf) {
            Ok(_) => {
                drop(input);
                let mut acc = self.acc.lock().unwrap();
                for v in self.buf.drain(..) {
                    (self.f)(&mut acc, v);
                }
                KStatus::Proceed
            }
            Err(_) => KStatus::Stop,
        }
    }

    fn name(&self) -> String {
        "fold".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::Generate;

    #[test]
    fn map_transforms_every_item() {
        let mut map = RaftMap::new();
        let src = map.add(Generate::new(0..50u32));
        let dbl = map.add(Map::new(|x: u32| x as u64 * 2));
        let (we, handle) = crate::containers::write_each::<u64>();
        let dst = map.add(we);
        map.link(src, "out", dbl, "in").unwrap();
        map.link(dbl, "out", dst, "in").unwrap();
        map.exe().unwrap();
        assert_eq!(
            *handle.lock().unwrap(),
            (0..50).map(|x| x * 2).collect::<Vec<u64>>()
        );
    }

    #[test]
    fn filter_map_drops_items() {
        let mut map = RaftMap::new();
        let src = map.add(Generate::new(0..100u32));
        let evens = map.add(FilterMap::new(|x: u32| x.is_multiple_of(2).then_some(x)));
        let (we, handle) = crate::containers::write_each::<u32>();
        let dst = map.add(we);
        map.link(src, "out", evens, "in").unwrap();
        map.link(evens, "out", dst, "in").unwrap();
        map.exe().unwrap();
        assert_eq!(handle.lock().unwrap().len(), 50);
    }

    /// The paper's Figure 6: array -> stream -> reduce to a single value.
    #[test]
    fn fold_reduces_to_value() {
        let mut map = RaftMap::new();
        let src = map.add(Generate::new(1..=100u64));
        let (fold, result) = Fold::new(0u64, |acc: &mut u64, v: u64| *acc += v);
        let dst = map.add(fold);
        map.link(src, "out", dst, "in").unwrap();
        map.exe().unwrap();
        assert_eq!(*result.lock().unwrap(), 5050);
    }

    #[test]
    fn map_is_replicable() {
        let k = Map::new(|x: u8| x);
        assert!(k.clone_replica().is_some());
    }

    #[test]
    fn slice_map_transforms_every_item_in_order() {
        let mut map = RaftMap::new();
        let src = map.add(Generate::new(0..5000u32));
        let dbl = map.add(SliceMap::new(|x: &u32| *x as u64 * 2).with_batch(64));
        let (we, handle) = crate::containers::write_each::<u64>();
        let dst = map.add(we);
        map.link(src, "out", dbl, "in").unwrap();
        map.link(dbl, "out", dst, "in").unwrap();
        map.exe().unwrap();
        assert_eq!(
            *handle.lock().unwrap(),
            (0..5000).map(|x| x * 2).collect::<Vec<u64>>()
        );
    }

    #[test]
    fn slice_map_is_replicable() {
        let k = SliceMap::new(|x: &u8| *x);
        assert!(k.clone_replica().is_some());
    }
}
