//! Offline stand-in for the `bytes` subset `raft-net` uses. The container
//! has no crates.io access, so the benchmark's manifest patches `bytes` to
//! this crate; it is not the published one. `Bytes` is a reference-counted
//! `Vec<u8>` plus a window, `BytesMut` a plain `Vec<u8>`.

use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// Cheaply cloneable, sliceable immutable byte buffer.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Buffer over a static slice (copied here; the published crate borrows).
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes::from(bytes.to_vec())
    }

    /// Buffer holding a copy of `bytes`.
    pub fn copy_from_slice(bytes: &[u8]) -> Self {
        Bytes::from(bytes.to_vec())
    }

    /// Length of the window.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-window sharing the same storage.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Bytes {
            data: self.data.clone(),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Split off and return the first `at` bytes.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        let head = self.slice(..at);
        self.start += at;
        head
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Self {
        Bytes::from_static(v)
    }
}

impl From<BytesMut> for Bytes {
    fn from(b: BytesMut) -> Self {
        b.freeze()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        **self == **other
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        **self == *other
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({:?})", &**self)
    }
}

/// Growable byte buffer.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut(Vec<u8>);

impl BytesMut {
    /// Empty buffer.
    pub fn new() -> Self {
        BytesMut(Vec::new())
    }

    /// Empty buffer with room for `cap` bytes.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut(Vec::with_capacity(cap))
    }

    /// Convert into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.0)
    }

    /// Length.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Allocated capacity.
    pub fn capacity(&self) -> usize {
        self.0.capacity()
    }

    /// Ensure room for `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.0.reserve(additional);
    }

    /// Append a slice.
    pub fn extend_from_slice(&mut self, s: &[u8]) {
        self.0.extend_from_slice(s);
    }

    /// Shorten to `len` bytes.
    pub fn truncate(&mut self, len: usize) {
        self.0.truncate(len);
    }

    /// Remove all bytes.
    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// Take the whole contents, leaving `self` empty.
    pub fn split(&mut self) -> BytesMut {
        BytesMut(std::mem::take(&mut self.0))
    }

    /// Split off and return the first `at` bytes.
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        let tail = self.0.split_off(at);
        BytesMut(std::mem::replace(&mut self.0, tail))
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.0
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<&[u8]> for BytesMut {
    fn from(s: &[u8]) -> Self {
        BytesMut(s.to_vec())
    }
}

impl Extend<u8> for BytesMut {
    fn extend<I: IntoIterator<Item = u8>>(&mut self, iter: I) {
        self.0.extend(iter);
    }
}

impl std::fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BytesMut({:?})", &self.0)
    }
}

macro_rules! buf_get {
    ($($name:ident / $name_le:ident => $t:ty),* $(,)?) => {$(
        /// Read a big-endian value and advance.
        fn $name(&mut self) -> $t {
            let mut raw = [0u8; std::mem::size_of::<$t>()];
            self.copy_to_slice(&mut raw);
            <$t>::from_be_bytes(raw)
        }
        /// Read a little-endian value and advance.
        fn $name_le(&mut self) -> $t {
            let mut raw = [0u8; std::mem::size_of::<$t>()];
            self.copy_to_slice(&mut raw);
            <$t>::from_le_bytes(raw)
        }
    )*};
}

/// Read cursor over bytes.
pub trait Buf {
    /// Bytes left.
    fn remaining(&self) -> usize;
    /// The unread bytes.
    fn chunk(&self) -> &[u8];
    /// Skip `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// Whether any byte is left.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Fill `dst` from the front and advance. Panics when short.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    /// Take the next `len` bytes as an owned [`Bytes`].
    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        assert!(self.remaining() >= len, "buffer underflow");
        let out = Bytes::copy_from_slice(&self.chunk()[..len]);
        self.advance(len);
        out
    }

    /// Read one byte.
    fn get_u8(&mut self) -> u8 {
        let mut raw = [0u8; 1];
        self.copy_to_slice(&mut raw);
        raw[0]
    }

    /// Read one signed byte.
    fn get_i8(&mut self) -> i8 {
        self.get_u8() as i8
    }

    buf_get! {
        get_u16 / get_u16_le => u16,
        get_u32 / get_u32_le => u32,
        get_u64 / get_u64_le => u64,
        get_i16 / get_i16_le => i16,
        get_i32 / get_i32_le => i32,
        get_i64 / get_i64_le => i64,
        get_f32 / get_f32_le => f32,
        get_f64 / get_f64_le => f64,
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past end");
        self.start += cnt;
    }
    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        self.split_to(len)
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

macro_rules! buf_put {
    ($($name:ident / $name_le:ident => $t:ty),* $(,)?) => {$(
        /// Append a big-endian value.
        fn $name(&mut self, v: $t) {
            self.put_slice(&v.to_be_bytes());
        }
        /// Append a little-endian value.
        fn $name_le(&mut self, v: $t) {
            self.put_slice(&v.to_le_bytes());
        }
    )*};
}

/// Append-only write cursor.
pub trait BufMut {
    /// Append a slice.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append one signed byte.
    fn put_i8(&mut self, v: i8) {
        self.put_slice(&[v as u8]);
    }

    /// Append everything left in `src`.
    fn put<B: Buf>(&mut self, mut src: B)
    where
        Self: Sized,
    {
        while src.has_remaining() {
            let n = src.chunk().len();
            self.put_slice(src.chunk());
            src.advance(n);
        }
    }

    buf_put! {
        put_u16 / put_u16_le => u16,
        put_u32 / put_u32_le => u32,
        put_u64 / put_u64_le => u64,
        put_i16 / put_i16_le => i16,
        put_i32 / put_i32_le => i32,
        put_i64 / put_i64_le => i64,
        put_f32 / put_f32_le => f32,
        put_f64 / put_f64_le => f64,
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.0.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}
