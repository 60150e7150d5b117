//! Standard-container integration — the paper's Figure 5 and Figure 6.
//!
//! `read_each` feeds a stream from any iterator (the paper reads a
//! `std::vector` range); `write_each` collects a stream into a `Vec` whose
//! handle the caller keeps (the paper's `std::back_inserter`); `for_each`
//! shares an array (`Arc<[T]>`) and streams index ranges over it with zero
//! element copies, "using its memory space directly as a queue for
//! downstream compute kernels" (Figure 6).

use std::sync::{Arc, Mutex};

use raftlib::prelude::*;

use crate::generate::Generate;

/// Handle to the output container of a [`WriteEach`] kernel; read it after
/// `exe()` returns.
pub type CollectHandle<T> = Arc<Mutex<Vec<T>>>;

/// Stream the items of an iterator — `read_each(v.begin(), v.end())`: a
/// [`Generate`] over `iter`, writing one reserved batch per `run()`.
pub fn read_each<I>(iter: impl IntoIterator<IntoIter = I>) -> Generate<I>
where
    I: Iterator + Send + 'static,
    I::Item: Send + Clone + 'static,
{
    Generate::new(iter)
}

/// Collect a stream into a `Vec` — `write_each(std::back_inserter(o))`.
pub struct WriteEach<T: Send + Clone + 'static> {
    out: CollectHandle<T>,
}

/// Build a [`WriteEach`] plus the handle holding its output.
pub fn write_each<T: Send + Clone + 'static>() -> (WriteEach<T>, CollectHandle<T>) {
    let out: CollectHandle<T> = Arc::new(Mutex::new(Vec::new()));
    (WriteEach { out: out.clone() }, out)
}

impl<T: Send + Clone + 'static> Kernel for WriteEach<T> {
    fn ports(&self) -> PortSpec {
        PortSpec::new().input::<T>("in")
    }

    fn run(&mut self, ctx: &Context) -> KStatus {
        let mut input = ctx.input::<T>("in");
        let mut local = Vec::new();
        match input.pop_range(256, &mut local) {
            Ok(_) => {
                drop(input);
                self.out.lock().unwrap().append(&mut local);
                KStatus::Proceed
            }
            Err(_) => KStatus::Stop,
        }
    }

    fn name(&self) -> String {
        "write_each".to_string()
    }
}

/// A zero-copy slice of a shared array: the element payload never moves,
/// only `(Arc, range)` descriptors stream between kernels.
#[derive(Debug)]
pub struct ArraySlice<T: Send + Sync + 'static> {
    data: Arc<[T]>,
    /// Start index within the shared array — the paper: "provides an index
    /// to indicate position within the array for the start position".
    pub start: usize,
    /// End index (exclusive).
    pub end: usize,
}

// Manual impl: cloning copies the `(Arc, range)` descriptor only, so it
// must not require `T: Clone` (a derive would).
impl<T: Send + Sync + 'static> Clone for ArraySlice<T> {
    fn clone(&self) -> Self {
        ArraySlice {
            data: Arc::clone(&self.data),
            start: self.start,
            end: self.end,
        }
    }
}

impl<T: Send + Sync + 'static> Default for ArraySlice<T> {
    fn default() -> Self {
        ArraySlice {
            data: Arc::from(Vec::new().into_boxed_slice()),
            start: 0,
            end: 0,
        }
    }
}

impl<T: Send + Sync + 'static> ArraySlice<T> {
    /// View the slice.
    pub fn as_slice(&self) -> &[T] {
        &self.data[self.start..self.end]
    }

    /// Length of this slice.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` if the slice is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Zero-copy chunked array source (Figure 6): shares the array and emits
/// [`ArraySlice`] descriptors of `chunk` elements each. "When this kernel
/// is executed, it appears as a kernel only momentarily, essentially
/// providing a data source for the downstream compute kernels."
pub struct ForEach<T: Send + Sync + 'static> {
    data: Arc<[T]>,
    chunk: usize,
    pos: usize,
}

/// Build a [`ForEach`] over `data` with `chunk`-element slices.
pub fn for_each<T: Send + Sync + 'static>(data: impl Into<Arc<[T]>>, chunk: usize) -> ForEach<T> {
    ForEach {
        data: data.into(),
        chunk: chunk.max(1),
        pos: 0,
    }
}

impl<T: Send + Sync + 'static> Kernel for ForEach<T> {
    fn ports(&self) -> PortSpec {
        PortSpec::new().output::<ArraySlice<T>>("out")
    }

    fn run(&mut self, ctx: &Context) -> KStatus {
        if self.pos >= self.data.len() {
            return KStatus::Stop;
        }
        let end = (self.pos + self.chunk).min(self.data.len());
        let slice = ArraySlice {
            data: self.data.clone(),
            start: self.pos,
            end,
        };
        let mut out = ctx.output::<ArraySlice<T>>("out");
        if out.push(slice).is_err() {
            return KStatus::Stop;
        }
        self.pos = end;
        KStatus::Proceed
    }

    fn name(&self) -> String {
        "for_each".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 5 end-to-end: container -> stream -> container.
    #[test]
    fn read_each_write_each_roundtrip() {
        let v: Vec<u32> = (0..1000).collect();
        let mut map = RaftMap::new();
        let src = map.add(read_each(v.clone()));
        let (we, handle) = write_each::<u32>();
        let dst = map.add(we);
        map.link(src, "out", dst, "in").unwrap();
        map.exe().unwrap();
        assert_eq!(*handle.lock().unwrap(), v);
    }

    #[test]
    fn for_each_slices_cover_array_without_copy() {
        let data: Vec<u64> = (0..100).collect();
        let mut map = RaftMap::new();
        let src = map.add(for_each(data, 7));
        let (we, handle) = write_each::<ArraySlice<u64>>();
        let dst = map.add(we);
        map.link(src, "out", dst, "in").unwrap();
        map.exe().unwrap();
        let slices = handle.lock().unwrap();
        // slices tile [0, 100) in order
        let mut pos = 0;
        for s in slices.iter() {
            assert_eq!(s.start, pos);
            assert!(s.len() <= 7);
            assert_eq!(s.as_slice()[0], pos as u64);
            pos = s.end;
        }
        assert_eq!(pos, 100);
        // zero copy: all slices share one allocation
        let first = &slices[0];
        for s in slices.iter() {
            assert!(Arc::ptr_eq(&first.data, &s.data));
        }
    }

    #[test]
    fn array_slice_default_is_empty() {
        let s: ArraySlice<u8> = ArraySlice::default();
        assert!(s.is_empty());
        assert_eq!(s.as_slice(), &[] as &[u8]);
    }
}
