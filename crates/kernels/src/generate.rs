//! Bounded stream sources.

use raftlib::prelude::*;

/// Source kernel producing the items of an iterator on its single output
/// port `"out"` — the paper's `generate` kernel (Figure 3) generalized to
/// any iterator.
///
/// Never replicated: a replica would duplicate the data, which is rarely
/// what an application means (the paper replicates compute kernels, not
/// sources).
pub struct Generate<I: Iterator> {
    iter: I,
    /// Items per `run()` quantum (amortizes scheduling overhead).
    batch: usize,
}

impl<I> Generate<I>
where
    I: Iterator + Send + 'static,
    I::Item: Send + Clone + 'static,
{
    /// Source over `iter`, one item per `run()` call.
    pub fn new(iter: impl IntoIterator<IntoIter = I>) -> Self {
        Generate {
            iter: iter.into_iter(),
            batch: 64,
        }
    }

    /// Set the number of items emitted per scheduling quantum.
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }
}

impl<I> Kernel for Generate<I>
where
    I: Iterator + Send + 'static,
    I::Item: Send + Clone + 'static,
{
    fn ports(&self) -> PortSpec {
        PortSpec::new().output::<I::Item>("out")
    }

    fn run(&mut self, ctx: &Context) -> KStatus {
        if ctx.stop_requested() {
            return KStatus::Stop;
        }
        // Write the iterator's next batch straight into reserved ring
        // slots: no intermediate Vec, and the whole batch is published
        // under a single queue synchronization when the slice drops.
        let mut out = ctx.output::<I::Item>("out");
        let mut slice = match out.reserve(self.batch) {
            Ok(s) => s,
            Err(_) => return KStatus::Stop,
        };
        // reserve clamps the request to the ring's maximum capacity, so
        // fill however many slots were actually granted.
        let want = slice.remaining();
        let mut wrote = 0;
        while wrote < want {
            match self.iter.next() {
                Some(v) => {
                    slice.push(v);
                    wrote += 1;
                }
                None => break,
            }
        }
        drop(slice);
        if wrote < want {
            return KStatus::Stop;
        }
        KStatus::Proceed
    }

    fn name(&self) -> String {
        "generate".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declares_single_output() {
        let g = Generate::new(0..10u32);
        let spec = g.ports();
        assert!(spec.inputs.is_empty());
        assert_eq!(spec.outputs.len(), 1);
        assert_eq!(spec.outputs[0].name, "out");
    }

    #[test]
    fn batch_clamps_to_one() {
        let g = Generate::new(0..10u32).with_batch(0);
        assert_eq!(g.batch, 1);
    }

    #[test]
    fn end_to_end_produces_all_items() {
        let mut map = RaftMap::new();
        let src = map.add(Generate::new(0..1000u64));
        let sink = map.add(raftlib::lambda_sink(|_v: u64| {}));
        map.link(src, "out", sink, "0").unwrap();
        let report = map.exe().unwrap();
        assert_eq!(report.edges[0].stats.pushed, 1000);
        assert_eq!(report.edges[0].stats.popped, 1000);
    }
}
