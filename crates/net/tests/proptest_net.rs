//! Property tests for the wire codec, framing, and compression: arbitrary
//! payloads always roundtrip; arbitrary byte soup never panics decoders.

use proptest::prelude::*;
use raft_net::compress::{compress, compress_frame, decompress, decompress_frame};
use raft_net::frame::Frame;
use raft_net::wire::Wire;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn wire_u64_roundtrip(v in any::<u64>()) {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        prop_assert_eq!(u64::decode(&mut &buf[..]), Some(v));
    }

    #[test]
    fn wire_string_roundtrip(s in "\\PC*") {
        let mut buf = Vec::new();
        s.encode(&mut buf);
        let mut cursor = &buf[..];
        prop_assert_eq!(String::decode(&mut cursor), Some(s));
        prop_assert!(cursor.is_empty(), "decode left {} bytes", cursor.len());
    }

    #[test]
    fn wire_vec_pairs_roundtrip(v in proptest::collection::vec((any::<u64>(), any::<u32>()), 0..50)) {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        prop_assert_eq!(Vec::<(u64, u32)>::decode(&mut &buf[..]), Some(v));
    }

    /// Every strict prefix of an encoding cuts a field somewhere: decoding
    /// it is a clean `None`, never a slice-index panic.
    #[test]
    fn wire_truncated_input_is_none(
        v in proptest::collection::vec((any::<u64>(), any::<u32>()), 1..20),
        s in "\\PC*",
        cut in any::<usize>(),
    ) {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        prop_assert_eq!(Vec::<(u64, u32)>::decode(&mut &buf[..cut % buf.len()]), None);
        buf.clear();
        s.encode(&mut buf);
        prop_assert_eq!(String::decode(&mut &buf[..cut % buf.len()]), None);
    }

    /// A forged length prefix claiming more than the buffer holds is a
    /// `None` (and must not allocate for the claim).
    #[test]
    fn wire_forged_length_is_none(
        claim in 1u32..=u32::MAX,
        body in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let claim = claim.max(body.len() as u32 + 1);
        let mut buf = claim.to_le_bytes().to_vec();
        buf.extend_from_slice(&body);
        prop_assert_eq!(Vec::<u8>::decode(&mut &buf[..]), None);
        prop_assert_eq!(String::decode(&mut &buf[..]), None);
        prop_assert_eq!(Vec::<u64>::decode(&mut &buf[..]), None);
    }

    /// Decoding random bytes must never panic (may legitimately fail).
    #[test]
    fn wire_decode_never_panics(raw in proptest::collection::vec(any::<u8>(), 0..100)) {
        let _ = String::decode(&mut &raw[..]);
        let _ = Vec::<u8>::decode(&mut &raw[..]);
        let _ = Vec::<u64>::decode(&mut &raw[..]);
        let _ = Vec::<String>::decode(&mut &raw[..]);
        let _ = u64::decode(&mut &raw[..]);
    }

    #[test]
    fn frame_roundtrip(payload in proptest::collection::vec(any::<u8>(), 0..2000)) {
        let f = Frame::data(payload, raft_buffer::Signal::None);
        let mut buf = Vec::new();
        f.write_to(&mut buf).unwrap();
        let back = Frame::read_from(&mut std::io::Cursor::new(buf)).unwrap().unwrap();
        prop_assert_eq!(back, f);
    }

    /// Frame reader survives arbitrary byte soup without panicking.
    #[test]
    fn frame_reader_never_panics(raw in proptest::collection::vec(any::<u8>(), 0..200)) {
        let mut cursor = std::io::Cursor::new(raw);
        while let Ok(Some(frame)) = Frame::read_from(&mut cursor) {
            // whatever kind the soup claimed, the accessors only say no
            let _ = (frame.as_data(), frame.as_seq_data(), frame.control_seq());
        }
    }

    #[test]
    fn lz_roundtrip_arbitrary(data in proptest::collection::vec(any::<u8>(), 0..5000)) {
        let lz = compress(&data);
        prop_assert_eq!(decompress(&lz, data.len()), Some(data));
    }

    /// Repetitive inputs roundtrip too (stress the match encoder).
    #[test]
    fn lz_roundtrip_repetitive(
        unit in proptest::collection::vec(any::<u8>(), 1..20),
        reps in 1usize..200,
    ) {
        let data: Vec<u8> = unit.iter().cycle().take(unit.len() * reps).copied().collect();
        let lz = compress(&data);
        prop_assert_eq!(decompress(&lz, data.len()), Some(data));
    }

    #[test]
    fn compressed_frame_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..3000)) {
        let framed = compress_frame(&data);
        prop_assert_eq!(decompress_frame(&framed).as_deref(), Some(&data[..]));
    }

    /// Decompressors must never panic on garbage.
    #[test]
    fn decompressors_never_panic(raw in proptest::collection::vec(any::<u8>(), 0..500)) {
        let _ = decompress(&raw, 1024);
        let _ = decompress_frame(&raw);
    }
}
