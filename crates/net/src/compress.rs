//! Link data compression — §4.2's "Future versions will incorporate link
//! data compression as well, further improving the cache-able data."
//!
//! A dependency-free LZ77-family codec (hash-chain match finder, 64 KiB
//! window, byte-aligned token stream) applied per frame on TCP links via
//! [`compress_frame`]/[`decompress_frame`]. Frames that do not shrink are
//! sent raw — one flag byte decides, so incompressible traffic costs 1
//! byte, not a blow-up.
//!
//! Token format (byte-aligned for simplicity and speed):
//!
//! ```text
//! literal run : 0x00 len:varint  bytes…
//! match       : 0x01 len:varint  dist:varint     (len ≥ 4, dist ≥ 1)
//! ```

use std::borrow::Cow;

/// Minimum match length worth encoding (token overhead ≥ 3 bytes).
const MIN_MATCH: usize = 4;
/// Maximum look-back distance.
const WINDOW: usize = 1 << 16;
/// Hash table size (power of two).
const HASH_SIZE: usize = 1 << 15;

#[inline]
fn hash4(data: &[u8], i: usize) -> usize {
    let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
    (v.wrapping_mul(2654435761) as usize >> 17) & (HASH_SIZE - 1)
}

fn put_varint(buf: &mut Vec<u8>, mut v: usize) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(b);
            return;
        }
        buf.push(b | 0x80);
    }
}

fn get_varint(data: &[u8], pos: &mut usize) -> Option<usize> {
    let mut v = 0usize;
    let mut shift = 0u32;
    loop {
        let b = *data.get(*pos)?;
        *pos += 1;
        v |= ((b & 0x7f) as usize) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift > 56 {
            return None; // malformed
        }
    }
}

/// Compress `data`. Always succeeds; output may be larger than input for
/// incompressible data (use [`compress_frame`] for the raw-fallback form).
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    let n = data.len();
    // hash -> most recent position with that 4-byte prefix
    let mut head = vec![usize::MAX; HASH_SIZE];
    let mut i = 0usize;
    let mut literal_start = 0usize;

    let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize| {
        if to > from {
            out.push(0x00);
            put_varint(out, to - from);
            out.extend_from_slice(&data[from..to]);
        }
    };

    while i + MIN_MATCH <= n {
        let h = hash4(data, i);
        let cand = head[h];
        head[h] = i;
        let mut matched = 0usize;
        if cand != usize::MAX && cand < i && i - cand <= WINDOW {
            // extend the match
            let max = n - i;
            while matched < max && data[cand + matched] == data[i + matched] {
                matched += 1;
            }
        }
        if matched >= MIN_MATCH {
            flush_literals(&mut out, literal_start, i);
            out.push(0x01);
            put_varint(&mut out, matched);
            put_varint(&mut out, i - cand);
            // index the skipped region sparsely (every 2nd position) to
            // keep compression fast on long matches
            let end = i + matched;
            let mut j = i + 1;
            while j + MIN_MATCH <= end.min(n - MIN_MATCH + MIN_MATCH) && j + MIN_MATCH <= n {
                head[hash4(data, j)] = j;
                j += 2;
            }
            i = end;
            literal_start = i;
        } else {
            i += 1;
        }
    }
    flush_literals(&mut out, literal_start, n);
    out
}

/// Decompress a [`compress`] stream; `None` on malformed input.
pub fn decompress(data: &[u8], size_hint: usize) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(size_hint);
    let mut pos = 0usize;
    while pos < data.len() {
        let tag = data[pos];
        pos += 1;
        match tag {
            0x00 => {
                let len = get_varint(data, &mut pos)?;
                if pos + len > data.len() {
                    return None;
                }
                out.extend_from_slice(&data[pos..pos + len]);
                pos += len;
            }
            0x01 => {
                let len = get_varint(data, &mut pos)?;
                let dist = get_varint(data, &mut pos)?;
                if dist == 0 || dist > out.len() || len == 0 {
                    return None;
                }
                let start = out.len() - dist;
                // overlapping copies are the LZ idiom (dist < len): copy
                // byte-wise
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
            _ => return None,
        }
    }
    Some(out)
}

/// Frame-level wrapper: `[0x00] raw bytes` or `[0x01] varint(raw_len) lz
/// bytes`, choosing whichever is smaller.
pub fn compress_frame(payload: &[u8]) -> Vec<u8> {
    let lz = compress(payload);
    if lz.len() + 6 < payload.len() {
        let mut out = Vec::with_capacity(lz.len() + 6);
        out.push(0x01);
        put_varint(&mut out, payload.len());
        out.extend_from_slice(&lz);
        out
    } else {
        let mut out = Vec::with_capacity(payload.len() + 1);
        out.push(0x00);
        out.extend_from_slice(payload);
        out
    }
}

/// Reverse of [`compress_frame`]; `None` on malformed input. A frame that
/// was sent raw is borrowed from `data`, not copied.
pub fn decompress_frame(data: &[u8]) -> Option<Cow<'_, [u8]>> {
    match data.split_first()? {
        (0x00, raw) => Some(Cow::Borrowed(raw)),
        (0x01, _) => {
            let mut pos = 1usize;
            let raw_len = get_varint(data, &mut pos)?;
            if raw_len > crate::frame::MAX_FRAME {
                return None;
            }
            let out = decompress(&data[pos..], raw_len)?;
            (out.len() == raw_len).then_some(Cow::Owned(out))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raft_rng::Rng;

    fn roundtrip(data: &[u8]) {
        let lz = compress(data);
        let back = decompress(&lz, data.len()).expect("decompress");
        assert_eq!(back, data, "roundtrip failed for {} bytes", data.len());
    }

    #[test]
    fn empty_and_tiny() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"abc");
        roundtrip(b"abcd");
    }

    #[test]
    fn repetitive_shrinks_a_lot() {
        let data = b"the quick brown fox. ".repeat(200);
        let lz = compress(&data);
        assert!(
            lz.len() < data.len() / 4,
            "repetitive text should shrink 4x+: {} -> {}",
            data.len(),
            lz.len()
        );
        roundtrip(&data);
    }

    #[test]
    fn overlapping_match_rle_style() {
        // "aaaa..." compresses via dist=1 overlapping matches
        let data = vec![b'a'; 10_000];
        let lz = compress(&data);
        assert!(lz.len() < 64, "RLE-like input should be tiny: {}", lz.len());
        roundtrip(&data);
    }

    fn noise(rng: &mut Rng, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.range(0..=u8::MAX)).collect()
    }

    #[test]
    fn random_data_roundtrips() {
        let mut rng = Rng::new(99);
        for len in [10usize, 100, 1000, 65_536, 200_000] {
            roundtrip(&noise(&mut rng, len));
        }
    }

    #[test]
    fn english_like_corpus_roundtrips_and_shrinks() {
        let c = raft_algos_corpus();
        let lz = compress(&c);
        assert!(
            lz.len() < c.len(),
            "text should compress: {} -> {}",
            c.len(),
            lz.len()
        );
        roundtrip(&c);
    }

    fn raft_algos_corpus() -> Vec<u8> {
        // A small zipfy text without depending on raft-algos: words drawn
        // from a tiny vocabulary.
        let vocab = [
            "stream", "kernel", "queue", "port", "the", "of", "a", "raft",
        ];
        let mut rng = Rng::new(3);
        let mut out = Vec::new();
        while out.len() < 100_000 {
            out.extend_from_slice(vocab[rng.range(0..vocab.len())].as_bytes());
            out.push(b' ');
        }
        out
    }

    #[test]
    fn frame_wrapper_picks_smaller_form() {
        // compressible
        let text = b"raftlib raftlib raftlib raftlib raftlib!".repeat(50);
        let framed = compress_frame(&text);
        assert_eq!(framed[0], 0x01);
        assert!(framed.len() < text.len());
        assert_eq!(decompress_frame(&framed).unwrap(), text);
        // incompressible: sent raw, and handed back without a copy
        let noise = noise(&mut Rng::new(1), 256);
        let framed = compress_frame(&noise);
        assert_eq!(framed[0], 0x00);
        assert_eq!(framed.len(), noise.len() + 1);
        let back = decompress_frame(&framed).unwrap();
        assert!(matches!(back, Cow::Borrowed(_)));
        assert_eq!(back, noise);
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert!(decompress(&[0x01, 0x05, 0x09], 10).is_none()); // dist > out
        assert!(decompress(&[0x00, 0x7f], 10).is_none()); // literal overrun
        assert!(decompress(&[0x07], 10).is_none()); // bad tag
        assert!(decompress_frame(&[0x02, 0x00]).is_none());
        assert!(decompress_frame(&[]).is_none());
        // truncated varint
        assert!(decompress(&[0x00, 0x80], 10).is_none());
    }

    #[test]
    fn declared_length_must_match() {
        let mut framed = compress_frame(b"hello hello hello hello hello hello");
        if framed[0] == 0x01 {
            // corrupt the declared length
            framed[1] = framed[1].wrapping_add(1);
            assert!(decompress_frame(&framed).is_none());
        }
    }
}
