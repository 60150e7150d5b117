//! Minimal binary encoding for stream elements crossing a TCP link.
//!
//! Hand-rolled (no serde): the paper's run-time "selects the narrowest
//! convertible type for each link type and casts the types at each
//! endpoint"; we keep the same spirit — fixed-width little-endian encodings
//! chosen per element type, implemented for the primitive and composite
//! types the examples and benches stream across nodes.
//!
//! Encoders append to a `Vec<u8>`; decoders advance a `&[u8]` cursor
//! through `take` and `take_array`, whose reads are `Option`s — a short or
//! forged buffer is a `None`, never a slice-index panic. Composite types
//! decode field by field through their parts' [`Wire::decode`].

/// A type that can cross a TCP stream link.
///
/// `Clone` is part of the stream-type contract (see
/// `raftlib::PortSpec::input`), and every encodable type here is trivially
/// clonable anyway.
pub trait Wire: Sized + Send + Clone + 'static {
    /// Append this value's encoding to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);
    /// Decode one value from the front of `buf`, advancing it past the
    /// bytes consumed. `None` on malformed or truncated input.
    fn decode(buf: &mut &[u8]) -> Option<Self>;
}

/// Split the next `len` bytes off the front of `buf`; `None` when short.
pub(crate) fn take<'a>(buf: &mut &'a [u8], len: usize) -> Option<&'a [u8]> {
    let (head, rest) = buf.split_at_checked(len)?;
    *buf = rest;
    Some(head)
}

/// Split the next `N` bytes off the front of `buf`; `None` when short.
pub(crate) fn take_array<const N: usize>(buf: &mut &[u8]) -> Option<[u8; N]> {
    let (head, rest) = buf.split_first_chunk::<N>()?;
    *buf = rest;
    Some(*head)
}

macro_rules! wire_num {
    ($($t:ty)*) => {$(
        impl Wire for $t {
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(buf: &mut &[u8]) -> Option<Self> {
                take_array(buf).map(<$t>::from_le_bytes)
            }
        }
    )*};
}
wire_num!(u8 u16 u32 u64 i8 i16 i32 i64 f32 f64);

/// Length prefix shared by the variable-size encodings.
fn encode_len(len: usize, buf: &mut Vec<u8>) {
    (len as u32).encode(buf);
}

impl Wire for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        encode_len(self.len(), buf);
        buf.extend_from_slice(self.as_bytes());
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        String::from_utf8(Vec::<u8>::decode(buf)?).ok()
    }
}

impl Wire for Vec<u8> {
    fn encode(&self, buf: &mut Vec<u8>) {
        encode_len(self.len(), buf);
        buf.extend_from_slice(self);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let len = u32::decode(buf)? as usize;
        take(buf, len).map(<[u8]>::to_vec)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let a = A::decode(buf)?;
        let b = B::decode(buf)?;
        Some((a, b))
    }
}

impl<T: Wire> Wire for Vec<T>
where
    Vec<T>: VecWireMarker,
{
    fn encode(&self, buf: &mut Vec<u8>) {
        encode_len(self.len(), buf);
        for v in self {
            v.encode(buf);
        }
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let len = u32::decode(buf)? as usize;
        // A forged length must not allocate ahead of the bytes present.
        let mut out = Vec::with_capacity(len.min(buf.len()));
        for _ in 0..len {
            out.push(T::decode(buf)?);
        }
        Some(out)
    }
}

/// Marker avoiding the overlap between `Vec<u8>`'s bespoke impl and the
/// generic `Vec<T>` impl: implemented for every element type except `u8`.
pub trait VecWireMarker {}
impl VecWireMarker for Vec<u16> {}
impl VecWireMarker for Vec<u32> {}
impl VecWireMarker for Vec<u64> {}
impl VecWireMarker for Vec<i16> {}
impl VecWireMarker for Vec<i32> {}
impl VecWireMarker for Vec<i64> {}
impl VecWireMarker for Vec<f32> {}
impl VecWireMarker for Vec<f64> {}
impl VecWireMarker for Vec<String> {}
impl VecWireMarker for Vec<(u64, u32)> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug + Clone>(v: T) {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        let mut cursor = &buf[..];
        let back = T::decode(&mut cursor).expect("decode");
        assert_eq!(back, v);
        assert!(cursor.is_empty(), "trailing bytes after decode");
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(u16::MAX);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(i64::MIN);
        roundtrip(-1i32);
        roundtrip(std::f64::consts::PI);
        roundtrip(f32::NEG_INFINITY);
    }

    #[test]
    fn strings_roundtrip() {
        roundtrip(String::new());
        roundtrip("hello world".to_string());
        roundtrip("ünïcødé ✓".to_string());
    }

    #[test]
    fn byte_vectors_roundtrip() {
        roundtrip(Vec::<u8>::new());
        roundtrip(vec![0u8, 1, 2, 255]);
    }

    #[test]
    fn tuples_and_vectors_roundtrip() {
        roundtrip((42u64, 7u32));
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(vec![(1u64, 2u32), (3, 4)]);
        roundtrip(vec!["a".to_string(), "bb".to_string()]);
    }

    #[test]
    fn truncated_input_fails_cleanly() {
        let mut buf = Vec::new();
        "hello".to_string().encode(&mut buf);
        assert!(String::decode(&mut &buf[..6]).is_none());
        assert!(u64::decode(&mut &[][..]).is_none());
        // A short read leaves the cursor where it was.
        let mut cursor = &buf[..3];
        assert!(u32::decode(&mut cursor).is_none());
        assert_eq!(cursor.len(), 3);
    }

    #[test]
    fn invalid_utf8_fails_cleanly() {
        let buf = [2, 0, 0, 0, 0xFF, 0xFE];
        assert!(String::decode(&mut &buf[..]).is_none());
    }
}
