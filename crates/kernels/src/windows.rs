//! Windowing kernels — the sliding-window access pattern §3 calls out:
//! "The stream access pattern is often that of a sliding window, which
//! should be accommodated efficiently. RaftLib accommodates this through a
//! peek_range function."
//!
//! [`SlidingWindow`] is exactly that: it *peeks* `width` elements without
//! consuming, emits a window, then advances by `stride` — no element is
//! copied more often than the window overlap requires, and the underlying
//! ring grows automatically if `width` exceeds its capacity (the read-side
//! resize trigger).

use raftlib::prelude::*;

/// Emits `Vec<T>` windows of `width` elements advancing by `stride`
/// (`stride < width` ⇒ overlapping windows). The final partial window is
/// dropped, matching the usual streaming semantics.
pub struct SlidingWindow<T: Send + Clone + 'static> {
    width: usize,
    stride: usize,
    _marker: std::marker::PhantomData<fn(T)>,
}

impl<T: Send + Clone + 'static> SlidingWindow<T> {
    /// New sliding window; panics if `width` or `stride` is zero.
    pub fn new(width: usize, stride: usize) -> Self {
        assert!(width > 0 && stride > 0, "width and stride must be positive");
        SlidingWindow {
            width,
            stride,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<T: Send + Clone + 'static> Kernel for SlidingWindow<T> {
    fn ports(&self) -> PortSpec {
        PortSpec::new().input::<T>("in").output::<Vec<T>>("out")
    }

    fn run(&mut self, ctx: &Context) -> KStatus {
        let mut input = ctx.input::<T>("in");
        // peek_range blocks until `width` elements are visible (growing the
        // ring if needed) or the stream ends short.
        let window: Vec<T> = match input.peek_range(self.width) {
            Ok(w) => w.iter().cloned().collect(),
            Err(_) => return KStatus::Stop,
        };
        input.advance(self.stride);
        drop(input);
        let mut out = ctx.output::<Vec<T>>("out");
        if out.push(window).is_err() {
            return KStatus::Stop;
        }
        KStatus::Proceed
    }

    fn name(&self) -> String {
        format!("window[{}/{}]", self.width, self.stride)
    }
}

/// Groups the stream into non-overlapping `Vec<T>` batches of `n` items
/// (final partial batch included).
pub struct Batch<T: Send + Clone + 'static> {
    n: usize,
    buf: Vec<T>,
}

impl<T: Send + Clone + 'static> Batch<T> {
    /// New batcher; panics on `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "batch size must be positive");
        Batch {
            n,
            buf: Vec::with_capacity(n),
        }
    }
}

impl<T: Send + Clone + 'static> Kernel for Batch<T> {
    fn ports(&self) -> PortSpec {
        PortSpec::new().input::<T>("in").output::<Vec<T>>("out")
    }

    fn run(&mut self, ctx: &Context) -> KStatus {
        let mut input = ctx.input::<T>("in");
        match input.pop() {
            Ok(v) => {
                drop(input);
                self.buf.push(v);
                if self.buf.len() == self.n {
                    let batch = std::mem::replace(&mut self.buf, Vec::with_capacity(self.n));
                    let mut out = ctx.output::<Vec<T>>("out");
                    if out.push(batch).is_err() {
                        return KStatus::Stop;
                    }
                }
                KStatus::Proceed
            }
            Err(_) => {
                if !self.buf.is_empty() {
                    let batch = std::mem::take(&mut self.buf);
                    let mut out = ctx.output::<Vec<T>>("out");
                    let _ = out.push(batch);
                }
                KStatus::Stop
            }
        }
    }

    fn name(&self) -> String {
        format!("batch[{}]", self.n)
    }
}

/// Inverse of [`Batch`]: flattens `Vec<T>` batches back into single items.
pub struct Flatten<T: Send + Clone + 'static> {
    _marker: std::marker::PhantomData<fn(T)>,
}

impl<T: Send + Clone + 'static> Default for Flatten<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send + Clone + 'static> Flatten<T> {
    /// New flattener.
    pub fn new() -> Self {
        Flatten {
            _marker: std::marker::PhantomData,
        }
    }
}

impl<T: Send + Clone + 'static> Kernel for Flatten<T> {
    fn ports(&self) -> PortSpec {
        PortSpec::new().input::<Vec<T>>("in").output::<T>("out")
    }

    fn run(&mut self, ctx: &Context) -> KStatus {
        let mut input = ctx.input::<Vec<T>>("in");
        match input.pop() {
            Ok(batch) => {
                drop(input);
                let mut out = ctx.output::<T>("out");
                for v in batch {
                    if out.push(v).is_err() {
                        return KStatus::Stop;
                    }
                }
                KStatus::Proceed
            }
            Err(_) => KStatus::Stop,
        }
    }

    fn name(&self) -> String {
        "flatten".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::containers::write_each;
    use crate::generate::Generate;

    #[test]
    fn overlapping_windows() {
        let mut map = RaftMap::new();
        let src = map.add(Generate::new(0..10u32));
        let win = map.add(SlidingWindow::<u32>::new(3, 1));
        let (we, out) = write_each::<Vec<u32>>();
        let dst = map.add(we);
        map.link(src, "out", win, "in").unwrap();
        map.link(win, "out", dst, "in").unwrap();
        map.exe().unwrap();
        let got = out.lock().unwrap();
        assert_eq!(got.len(), 8); // windows starting at 0..=7
        assert_eq!(got[0], vec![0, 1, 2]);
        assert_eq!(got[7], vec![7, 8, 9]);
    }

    #[test]
    fn tumbling_windows() {
        let mut map = RaftMap::new();
        let src = map.add(Generate::new(0..9u32));
        let win = map.add(SlidingWindow::<u32>::new(3, 3));
        let (we, out) = write_each::<Vec<u32>>();
        let dst = map.add(we);
        map.link(src, "out", win, "in").unwrap();
        map.link(win, "out", dst, "in").unwrap();
        map.exe().unwrap();
        assert_eq!(
            *out.lock().unwrap(),
            vec![vec![0, 1, 2], vec![3, 4, 5], vec![6, 7, 8]]
        );
    }

    #[test]
    fn window_wider_than_initial_capacity_grows_ring() {
        let cfg = MapConfig {
            fifo: FifoConfig {
                initial_capacity: 4,
                max_capacity: 1 << 10,
                min_capacity: 4,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut map = RaftMap::with_config(cfg);
        let src = map.add(Generate::new(0..64u32));
        let win = map.add(SlidingWindow::<u32>::new(32, 32)); // wider than cap 4
        let (we, out) = write_each::<Vec<u32>>();
        let dst = map.add(we);
        map.link(src, "out", win, "in").unwrap();
        map.link(win, "out", dst, "in").unwrap();
        map.exe().unwrap();
        let got = out.lock().unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].len(), 32);
        assert_eq!(got[1][31], 63);
    }

    #[test]
    fn window_wider_than_the_ceiling_stops_instead_of_wedging() {
        // A ceiling of 4 under the default floor of 8: no grow can fit an
        // 8-wide window, so `peek_range` fails and the window stops. Left
        // unordered, the floor made the read-side grow panic, and `exe()`
        // never returned.
        use crate::sinks::Count;
        use std::sync::atomic::Ordering::Relaxed;
        let cfg = MapConfig {
            fifo: FifoConfig {
                max_capacity: 4,
                ..Default::default()
            },
            ..Default::default()
        };
        let (done, result) = std::sync::mpsc::channel();
        // Joined only once it has reported: a wedged `exe()` fails the
        // test by timeout instead of hanging it.
        let run = std::thread::spawn(move || {
            let mut map = RaftMap::with_config(cfg);
            let src = map.add(Generate::new(0..64u64));
            let win = map.add(SlidingWindow::<u64>::new(8, 8));
            let (count, windows) = Count::<Vec<u64>>::new();
            let dst = map.add(count);
            map.link(src, "out", win, "in").unwrap();
            map.link(win, "out", dst, "in").unwrap();
            let _ = done.send(map.exe().map(|_| windows.load(Relaxed)));
        });
        let windows = result
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("exe() wedged")
            .expect("exe() failed");
        run.join().unwrap();
        assert_eq!(windows, 0, "no 8-wide window fits a ring of 4");
    }

    #[test]
    fn batch_and_flatten_roundtrip() {
        let mut map = RaftMap::new();
        let src = map.add(Generate::new(0..100u32));
        let batch = map.add(Batch::<u32>::new(7));
        let flat = map.add(Flatten::<u32>::new());
        let (we, out) = write_each::<u32>();
        let dst = map.add(we);
        map.link(src, "out", batch, "in").unwrap();
        map.link(batch, "out", flat, "in").unwrap();
        map.link(flat, "out", dst, "in").unwrap();
        map.exe().unwrap();
        assert_eq!(*out.lock().unwrap(), (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn batch_emits_final_partial() {
        let mut map = RaftMap::new();
        let src = map.add(Generate::new(0..10u32));
        let batch = map.add(Batch::<u32>::new(4));
        let (we, out) = write_each::<Vec<u32>>();
        let dst = map.add(we);
        map.link(src, "out", batch, "in").unwrap();
        map.link(batch, "out", dst, "in").unwrap();
        map.exe().unwrap();
        let got = out.lock().unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(got[2], vec![8, 9]); // partial tail
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_rejected() {
        SlidingWindow::<u32>::new(0, 1);
    }
}
