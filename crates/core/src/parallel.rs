//! Automatic parallelization: split/reduce adapters and kernel replication.
//!
//! §4.1 of the paper: "Automatic parallelization of candidate kernels is
//! accomplished by analyzing the graph for segments that can be replicated
//! preserving the application's semantics ... There are default split and
//! reduce adapters that are inserted where needed. Split data distribution
//! can be done in many ways, and the run-time attempts to select the best
//! amongst round-robin and least-utilized strategies."
//!
//! The planner here rewrites the erased topology at `exe()` time:
//!
//! ```text
//! up ──> k ──> down        becomes        up ──> split ──> k₀ ──> reduce ──> down
//!                                                    └───> k₁ ──┘
//! ```
//!
//! Eligibility: the kernel has exactly one input and one output, both its
//! streams were declared out-of-order safe (`link_unordered`), and it can
//! produce replicas (`Kernel::clone_replica`). The split's **active width**
//! is an atomic the runtime's optimizer may raise or lower while the
//! application runs (the paper's dynamic bottleneck elimination).

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use raft_buffer::{WaitStrategy, Waiter};

use crate::kernel::{KStatus, Kernel, PortSpec};
use crate::port::Context;

/// Distribution strategy of a split adapter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitStrategy {
    /// Cycle through replicas in order.
    #[default]
    RoundRobin,
    /// Send each item to the replica with the emptiest input queue
    /// ("queue utilization used to direct data flow to less utilized
    /// servers", §4.1).
    LeastUtilized,
}

/// Shared control of a split adapter's active replica count, held by the
/// runtime optimizer.
#[derive(Debug, Clone)]
pub struct WidthControl {
    active: Arc<AtomicU32>,
    max: u32,
}

impl WidthControl {
    /// Current active width.
    pub fn get(&self) -> u32 {
        self.active.load(Ordering::Relaxed)
    }

    /// Set active width (clamped to `1..=max`).
    pub fn set(&self, w: u32) {
        self.active.store(w.clamp(1, self.max), Ordering::Relaxed);
    }

    /// Widen by one replica; returns the new width.
    pub fn widen(&self) -> u32 {
        let cur = self.get();
        let next = (cur + 1).min(self.max);
        self.active.store(next, Ordering::Relaxed);
        next
    }

    /// Narrow by one replica; returns the new width.
    pub fn narrow(&self) -> u32 {
        let cur = self.get();
        let next = cur.saturating_sub(1).max(1);
        self.active.store(next, Ordering::Relaxed);
        next
    }

    /// Maximum width this split was built with.
    pub fn max(&self) -> u32 {
        self.max
    }
}

/// Default split adapter: one input `"in"`, outputs `"0"`, `"1"`, ….
pub struct Split<T: Send + Clone + 'static> {
    width: usize,
    strategy: SplitStrategy,
    active: Arc<AtomicU32>,
    next_rr: usize,
    scratch: Vec<T>,
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: Send + Clone + 'static> Split<T> {
    /// Build a split of `width` ways.
    pub fn new(width: usize, strategy: SplitStrategy) -> Self {
        let width = width.max(1);
        Split {
            width,
            strategy,
            active: Arc::new(AtomicU32::new(width as u32)),
            next_rr: 0,
            scratch: Vec::new(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Control handle for dynamic width adjustment.
    pub fn width_control(&self) -> WidthControl {
        WidthControl {
            active: self.active.clone(),
            max: self.width as u32,
        }
    }
}

impl<T: Send + Clone + 'static> Kernel for Split<T> {
    fn ports(&self) -> PortSpec {
        let mut spec = PortSpec::new().input::<T>("in");
        for i in 0..self.width {
            spec = spec.output::<T>(i.to_string());
        }
        spec
    }

    fn run(&mut self, ctx: &Context) -> KStatus {
        let mut input = ctx.input::<T>("in");
        let active = (self.active.load(Ordering::Relaxed) as usize).clamp(1, self.width);
        match self.strategy {
            SplitStrategy::RoundRobin => {
                // Pop one full round per quantum under a single queue
                // synchronization, then deal the items out in the same
                // per-item order as before.
                if input.pop_range(active, &mut self.scratch).is_err() {
                    return KStatus::Stop;
                }
                drop(input);
                for item in self.scratch.drain(..) {
                    let target = self.next_rr % active;
                    self.next_rr = (self.next_rr + 1) % active;
                    let mut out = ctx.output_at::<T>(target);
                    if out.push(item).is_err() {
                        // Replica gone (shutdown path): stop distributing.
                        return KStatus::Stop;
                    }
                }
            }
            SplitStrategy::LeastUtilized => {
                let item = match input.pop() {
                    Ok(v) => v,
                    Err(_) => return KStatus::Stop,
                };
                drop(input);
                // Pick the replica with the emptiest input queue; if it is
                // full by the time we push, *re-select* rather than block —
                // blocking on the first choice would chain the split to a
                // stalled (slow) replica, defeating the strategy. Ties are
                // broken from a rotating offset so a saturated pipeline
                // does not convoy on replica 0.
                let mut item = Some(item);
                let mut waiter = Waiter::new(WaitStrategy::Spinning);
                while let Some(v) = item.take() {
                    let start = self.next_rr % active;
                    self.next_rr = (self.next_rr + 1) % active.max(1);
                    let mut best = start;
                    let mut best_occ = usize::MAX;
                    for i in 0..active {
                        let idx = (start + i) % active;
                        let occ = ctx.output_at::<T>(idx).occupancy();
                        if occ < best_occ {
                            best_occ = occ;
                            best = idx;
                        }
                    }
                    let mut out = ctx.output_at::<T>(best);
                    match out.try_push(v) {
                        Ok(None) => break,
                        Ok(Some(v)) => {
                            // All candidates full right now: wait a little
                            // and re-evaluate (a replica will drain first).
                            item = Some(v);
                            drop(out);
                            waiter.pause();
                        }
                        Err(_) => return KStatus::Stop, // replica gone
                    }
                }
            }
        }
        KStatus::Proceed
    }

    fn name(&self) -> String {
        format!("split[{}]", self.width)
    }
}

/// Default reduce adapter: inputs `"0"`, `"1"`, …, one output `"out"`.
/// Merges in arrival order (replication only happens on out-of-order-safe
/// streams, so no sequencing is required).
pub struct Reduce<T: Send + Clone + 'static> {
    width: usize,
    next: usize,
    scratch: Vec<T>,
    _marker: std::marker::PhantomData<fn() -> T>,
}

/// Items a [`Reduce`] forwards per quantum once an input turns out to have
/// data queued (bounds latency for the other inputs).
const REDUCE_BATCH: usize = 256;

impl<T: Send + Clone + 'static> Reduce<T> {
    /// Build a reduce of `width` ways.
    pub fn new(width: usize) -> Self {
        Reduce {
            width: width.max(1),
            next: 0,
            scratch: Vec::new(),
            _marker: std::marker::PhantomData,
        }
    }
}

impl<T: Send + Clone + 'static> Kernel for Reduce<T> {
    fn ports(&self) -> PortSpec {
        let mut spec = PortSpec::new().output::<T>("out");
        for i in 0..self.width {
            spec = spec.input::<T>(i.to_string());
        }
        spec
    }

    fn run(&mut self, ctx: &Context) -> KStatus {
        // Fair, non-blocking sweep over the inputs; block only when every
        // input is empty and at least one is still open.
        let mut all_done = true;
        for probe in 0..self.width {
            let idx = (self.next + probe) % self.width;
            let mut input = ctx.input_at::<T>(idx);
            match input.try_pop() {
                Ok(Some(v)) => {
                    // This input has data: drain what is already queued (up
                    // to one batch) and forward it in a single bulk push.
                    self.scratch.push(v);
                    let more = input.occupancy().min(REDUCE_BATCH - 1);
                    if more > 0 {
                        // Cannot fail: occupancy > 0 means the first pop
                        // inside pop_range finds data.
                        let _ = input.pop_range(more, &mut self.scratch);
                    }
                    drop(input);
                    self.next = (idx + 1) % self.width;
                    let mut out = ctx.output::<T>("out");
                    if out.push_batch(&mut self.scratch).is_err() {
                        return KStatus::Stop;
                    }
                    return KStatus::Proceed;
                }
                Ok(None) => {
                    all_done = false; // open but momentarily empty
                }
                Err(_) => {}
            }
        }
        if all_done {
            return KStatus::Stop;
        }
        // Nothing ready: yield briefly rather than spinning hot.
        std::thread::yield_now();
        KStatus::Proceed
    }

    fn name(&self) -> String {
        format!("reduce[{}]", self.width)
    }
}

/// Monomorphized factories so the type-erased planner can construct
/// adapters for a link of element type `T`.
pub struct AdapterFactories {
    /// Build `(split kernel, its width control)`.
    pub split: fn(usize, SplitStrategy) -> (Box<dyn Kernel>, WidthControl),
    /// Build a reduce kernel.
    pub reduce: fn(usize) -> Box<dyn Kernel>,
}

/// Factories for element type `T`.
pub fn adapter_factories<T: Send + Clone + 'static>() -> AdapterFactories {
    AdapterFactories {
        split: |w, s| {
            let split = Split::<T>::new(w, s);
            let ctl = split.width_control();
            (Box::new(split), ctl)
        },
        reduce: |w| Box::new(Reduce::<T>::new(w)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_ports_match_width() {
        let s = Split::<u32>::new(3, SplitStrategy::RoundRobin);
        let spec = s.ports();
        assert_eq!(spec.inputs.len(), 1);
        assert_eq!(spec.outputs.len(), 3);
        assert_eq!(spec.outputs[2].name, "2");
    }

    #[test]
    fn reduce_ports_match_width() {
        let r = Reduce::<u32>::new(4);
        let spec = r.ports();
        assert_eq!(spec.inputs.len(), 4);
        assert_eq!(spec.outputs.len(), 1);
    }

    #[test]
    fn width_control_clamps() {
        let s = Split::<u32>::new(4, SplitStrategy::RoundRobin);
        let ctl = s.width_control();
        assert_eq!(ctl.get(), 4);
        ctl.set(0);
        assert_eq!(ctl.get(), 1);
        ctl.set(99);
        assert_eq!(ctl.get(), 4);
        assert_eq!(ctl.narrow(), 3);
        assert_eq!(ctl.widen(), 4);
        assert_eq!(ctl.widen(), 4); // saturates at max
    }

    /// The join sizes its batch read by what its input has left to read.
    /// On a journaled input the element it just popped stays held in the
    /// ring; counting it would make that read wait, inside `run()`, for an
    /// element nobody has sent.
    #[test]
    fn reduce_does_not_wait_on_its_own_held_element() {
        use raft_buffer::{fifo_with, FifoConfig};
        let (_f0, mut p0, mut c0) = fifo_with::<u32>(FifoConfig::default());
        let (_f1, _p1, mut c1) = fifo_with::<u32>(FifoConfig::default());
        let (_fo, po, mut co) = fifo_with::<u32>(FifoConfig::default());
        c0.enable_journal();
        c1.enable_journal();
        p0.push(7).unwrap();
        let (done, ran) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let ctx = Context::for_test()
                .with_input("0", c0)
                .with_input("1", c1)
                .with_output("out", po);
            let status = Reduce::<u32>::new(2).run(&ctx);
            done.send(status).unwrap();
        });
        let status = ran
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("run() returns with both inputs open and empty");
        assert_eq!(status, KStatus::Proceed);
        assert_eq!(co.try_pop(), Ok(7));
    }

    #[test]
    fn factories_build_consistent_adapters() {
        let f = adapter_factories::<String>();
        let (split, ctl) = (f.split)(2, SplitStrategy::LeastUtilized);
        assert_eq!(split.ports().outputs.len(), 2);
        assert_eq!(ctl.max(), 2);
        let reduce = (f.reduce)(2);
        assert_eq!(reduce.ports().inputs.len(), 2);
    }
}
