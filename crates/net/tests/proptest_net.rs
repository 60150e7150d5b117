//! Property tests for the wire codec, framing, and compression: arbitrary
//! payloads always roundtrip; arbitrary byte soup never panics decoders;
//! a corrupted frame stream never misdelivers an element.

use std::io;

use proptest::prelude::*;
use raft_buffer::Signal;
use raft_net::compress::{compress, compress_frame, decompress, decompress_frame};
use raft_net::frame::{read_element, Frame};
use raft_net::Wire;

/// `n` elements, repetitive enough to compress, every third one signalled.
fn elements(n: u64) -> Vec<(String, Signal)> {
    (0..n)
        .map(|k| {
            let sig = if k % 3 == 0 {
                Signal::User(k as u32)
            } else {
                Signal::None
            };
            (
                format!("element {k} of the stream, element {k} of the stream"),
                sig,
            )
        })
        .collect()
}

/// `sent` as a well-formed framed stream — element `k` numbered `seq_of(k)`
/// — ending in EoS; the bytes, and each data frame's byte range.
fn framed(
    sent: &[(String, Signal)],
    compress: bool,
    seq_of: impl Fn(usize) -> u64,
) -> (Vec<u8>, Vec<std::ops::Range<usize>>) {
    let (mut bytes, mut frames) = (Vec::new(), Vec::new());
    for (k, (value, sig)) in sent.iter().enumerate() {
        let start = bytes.len();
        let frame = Frame::data(seq_of(k), value, *sig);
        let frame = if compress { frame.compressed() } else { frame };
        frame.write_to(&mut bytes).unwrap();
        frames.push(start..bytes.len());
    }
    Frame::eos().write_to(&mut bytes).unwrap();
    (bytes, frames)
}

/// Everything the receive path pushes from `bytes`, and how it ended.
fn receive(bytes: Vec<u8>) -> (Vec<(String, Signal)>, io::Result<()>) {
    let mut reader = io::Cursor::new(bytes);
    let (mut expected, mut got) = (0, Vec::new());
    loop {
        match read_element(&mut reader, &mut expected) {
            Ok(Some(item)) => got.push(item),
            Ok(None) => return (got, Ok(())),
            Err(e) => return (got, Err(e)),
        }
    }
}

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
        let f = Frame::data(0, &payload, Signal::None);
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
            let _ = (frame.as_data::<Vec<u8>>(), frame.as_data::<u64>(), frame.control_seq());
        }
    }

    /// Corrupt a well-formed stream, compressed or not — a bit flip, a
    /// truncation, a forged length, kind or sequence number, or a replayed
    /// frame — and run it
    /// through the receiver's whole decode path. It ends in a clean error
    /// or EoS, never a panic, and every element it pushes is the one sent
    /// at that position. The one exception is a bit flip inside an
    /// element's own frame: elements carry no checksum (TCP has one), so
    /// that element may arrive altered, but never in the wrong place.
    #[test]
    fn corrupted_stream_never_misdelivers(
        n in 1u64..40,
        compress in any::<bool>(),
        how in 0u8..6,
        at in any::<usize>(),
        word in any::<u64>(),
    ) {
        let sent = elements(n);
        let (clean, frames) = framed(&sent, compress, |k| k as u64);
        let (whole, ended) = receive(clean.clone());
        prop_assert!(ended.is_ok() && whole == sent, "the clean stream did not arrive whole");

        let (mut bytes, j) = (clean.clone(), at % frames.len());
        let head = frames[j].start;
        let mut victim = None;
        match how {
            0 => {
                let pos = at % bytes.len();
                bytes[pos] ^= 1 << (word % 8);
                victim = frames.iter().position(|f| f.contains(&pos));
            }
            1 => bytes.truncate(at % bytes.len()),
            2 => {
                let len = u32::from_le_bytes(bytes[head..head + 4].try_into().unwrap());
                let forged = if word & 1 == 0 {
                    (word >> 32) as u32
                } else {
                    len.wrapping_add((word >> 32) as u32 % 33).wrapping_sub(16)
                };
                bytes[head..head + 4].copy_from_slice(&forged.to_le_bytes());
            }
            3 => bytes[head + 4] = (word % 12) as u8,
            4 => bytes = framed(&sent, compress, |k| if k == j { word % (n + 2) } else { k as u64 }).0,
            // A replayed duplicate, as a resumed link sends: dropped, so
            // the whole stream still arrives.
            _ => {
                let replay = clean[frames[word as usize % (j + 1)].clone()].to_vec();
                bytes.splice(frames[j].end..frames[j].end, replay);
                let (got, ended) = receive(bytes.clone());
                prop_assert!(ended.is_ok() && got == sent, "a replayed frame was not dropped");
            }
        }
        let (got, _) = receive(bytes);
        prop_assert!(got.len() <= sent.len(), "{} elements from {} sent", got.len(), sent.len());
        for (k, item) in got.iter().enumerate() {
            prop_assert!(Some(k) == victim || *item == sent[k], "element {k} misdelivered: {item:?}");
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
