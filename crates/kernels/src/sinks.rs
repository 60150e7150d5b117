//! Stream sinks: print, count.

use std::fmt::Display;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use raftlib::prelude::*;

/// The paper's `print` kernel (Figure 3): writes each item and a separator
/// to a writer (stdout by default).
pub struct Print<T: Display + Send + Clone + 'static> {
    sep: char,
    writer: Box<dyn Write + Send>,
    _marker: std::marker::PhantomData<fn(T)>,
}

impl<T: Display + Send + Clone + 'static> Print<T> {
    /// Print to stdout with `sep` after each item (the paper's
    /// `print< std::int64_t, '\n' >`).
    pub fn new(sep: char) -> Self {
        Print {
            sep,
            writer: Box::new(std::io::stdout()),
            _marker: std::marker::PhantomData,
        }
    }

    /// Print into any writer (tests, files).
    pub fn to_writer(sep: char, writer: impl Write + Send + 'static) -> Self {
        Print {
            sep,
            writer: Box::new(writer),
            _marker: std::marker::PhantomData,
        }
    }
}

impl<T: Display + Send + Clone + 'static> Kernel for Print<T> {
    fn ports(&self) -> PortSpec {
        PortSpec::new().input::<T>("in")
    }

    fn run(&mut self, ctx: &Context) -> KStatus {
        let mut input = ctx.input::<T>("in");
        match input.pop() {
            Ok(v) => {
                drop(input);
                let _ = write!(self.writer, "{v}{}", self.sep);
                KStatus::Proceed
            }
            Err(_) => {
                let _ = self.writer.flush();
                KStatus::Stop
            }
        }
    }

    fn name(&self) -> String {
        "print".to_string()
    }
}

/// Counts items (and nothing else) — the cheapest possible sink, used by
/// benchmarks so sink cost never pollutes a measurement.
pub struct Count<T: Send + Clone + 'static> {
    n: Arc<AtomicU64>,
    _marker: std::marker::PhantomData<fn(T)>,
}

impl<T: Send + Clone + 'static> Count<T> {
    /// Create the kernel plus the live counter handle.
    pub fn new() -> (Self, Arc<AtomicU64>) {
        let n = Arc::new(AtomicU64::new(0));
        (
            Count {
                n: n.clone(),
                _marker: std::marker::PhantomData,
            },
            n,
        )
    }
}

impl<T: Send + Clone + 'static> Kernel for Count<T> {
    fn ports(&self) -> PortSpec {
        PortSpec::new().input::<T>("in")
    }

    fn run(&mut self, ctx: &Context) -> KStatus {
        let mut input = ctx.input::<T>("in");
        let mut local = Vec::new();
        match input.pop_range(1024, &mut local) {
            Ok(got) => {
                self.n.fetch_add(got as u64, Ordering::Relaxed);
                KStatus::Proceed
            }
            Err(_) => KStatus::Stop,
        }
    }

    fn name(&self) -> String {
        "count".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::Generate;
    use std::sync::Mutex;

    #[test]
    fn collect_preserves_order() {
        let mut map = RaftMap::new();
        let src = map.add(Generate::new(0..100u32));
        let (collect, handle) = crate::containers::write_each::<u32>();
        let sink = map.add(collect);
        map.link(src, "out", sink, "in").unwrap();
        map.exe().unwrap();
        let got = handle.lock().unwrap();
        assert_eq!(*got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn count_counts() {
        let mut map = RaftMap::new();
        let src = map.add(Generate::new(0..12345u32));
        let (count, n) = Count::<u32>::new();
        let sink = map.add(count);
        map.link(src, "out", sink, "in").unwrap();
        map.exe().unwrap();
        assert_eq!(n.load(Ordering::Relaxed), 12345);
    }

    #[test]
    fn print_writes_separated_items() {
        // Writer that pushes into a shared Vec<u8>.
        #[derive(Clone)]
        struct VecWriter(Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for VecWriter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Arc::new(Mutex::new(Vec::new()));
        let mut map = RaftMap::new();
        let src = map.add(Generate::new(1..4u8));
        let sink = map.add(Print::<u8>::to_writer('\n', VecWriter(buf.clone())));
        map.link(src, "out", sink, "in").unwrap();
        map.exe().unwrap();
        assert_eq!(&*buf.lock().unwrap(), b"1\n2\n3\n");
    }
}
