//! Length-prefixed message framing.
//!
//! Every message on a TCP stream link is one frame:
//!
//! ```text
//! +---------+--------+----------------+
//! | len u32 | kind u8|  payload bytes |
//! +---------+--------+----------------+
//! ```
//!
//! `len` counts `kind + payload`. A data frame carries its sequence number,
//! the element's synchronous signal when it has one (so signal delivery
//! stays synchronized across the hop, §4.2), and the encoded element:
//! `seq u64 | [signal u64] | element`. Control frames carry the resume
//! handshake, acks and job submissions.

use std::borrow::Cow;
use std::io::{self, Read, Write};

use raft_buffer::Signal;

use crate::compress::{compress_frame, decompress_frame};
use crate::wire::Wire;

/// Frame discriminator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// An element with `Signal::None`: `seq u64 LE | element`.
    Data = 0,
    /// An element with a synchronous signal:
    /// `seq u64 LE | signal u64 LE | element`.
    DataWithSignal = 1,
    /// Stream end: the sender closed its input.
    Eos = 2,
    /// A compressed data frame: payload = inner-kind byte +
    /// `compress::compress_frame` output of the inner payload.
    Compressed = 6,
    /// Remote-execution job submission (wire-encoded kernel-name list).
    Job = 7,
    /// Cumulative acknowledgement. Payload is the `u64 LE` sequence number
    /// the receiver expects next — every lower sequence has been received
    /// and pushed.
    Ack = 8,
    /// Resume handshake, sent by the receiver immediately after every
    /// (re)accept. Payload is the next expected `u64 LE` sequence number;
    /// the sender replays from there.
    ResumeFrom = 9,
}

impl FrameKind {
    fn from_u8(v: u8) -> Option<FrameKind> {
        Some(match v {
            0 => FrameKind::Data,
            1 => FrameKind::DataWithSignal,
            2 => FrameKind::Eos,
            6 => FrameKind::Compressed,
            7 => FrameKind::Job,
            8 => FrameKind::Ack,
            9 => FrameKind::ResumeFrom,
            _ => return None,
        })
    }
}

/// One framed message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the payload means.
    pub kind: FrameKind,
    /// Raw payload bytes: one allocation per frame, which [`Frame::as_data`]
    /// and [`Wire::decode`] read in place.
    pub payload: Vec<u8>,
}

impl Frame {
    /// The data frame numbered `seq` carrying `value`, encoded in place
    /// behind the header; the signal word is present only when `signal` is.
    pub fn data<T: Wire>(seq: u64, value: &T, signal: Signal) -> Frame {
        let mut payload = Vec::new();
        seq.encode(&mut payload);
        let kind = if signal == Signal::None {
            FrameKind::Data
        } else {
            signal.encode().encode(&mut payload);
            FrameKind::DataWithSignal
        };
        value.encode(&mut payload);
        Frame { kind, payload }
    }

    /// This frame wrapped as [`FrameKind::Compressed`] (§4.2 link
    /// compression); [`Frame::as_data`] unwraps it.
    pub fn compressed(self) -> Frame {
        let body = compress_frame(&self.payload);
        let mut payload = Vec::with_capacity(body.len() + 1);
        payload.push(self.kind as u8);
        payload.extend_from_slice(&body);
        Frame {
            kind: FrameKind::Compressed,
            payload,
        }
    }

    /// The end-of-stream frame.
    pub fn eos() -> Frame {
        Frame {
            kind: FrameKind::Eos,
            payload: Vec::new(),
        }
    }

    /// A cumulative ack: every frame with sequence `< next_expected` has
    /// been received and pushed downstream.
    pub fn ack(next_expected: u64) -> Frame {
        Frame {
            kind: FrameKind::Ack,
            payload: next_expected.to_le_bytes().to_vec(),
        }
    }

    /// The resume handshake the receiver sends after every (re)accept.
    pub fn resume_from(next_expected: u64) -> Frame {
        Frame {
            kind: FrameKind::ResumeFrom,
            payload: next_expected.to_le_bytes().to_vec(),
        }
    }

    /// Decode a data frame — compressed or not — as `(seq, element,
    /// signal)`. `None` for any other kind, and for a payload that is short,
    /// malformed, or longer than its element.
    pub fn as_data<T: Wire>(&self) -> Option<(u64, T, Signal)> {
        let (kind, body) = match self.kind {
            FrameKind::Compressed => {
                let (&inner, packed) = self.payload.split_first()?;
                (FrameKind::from_u8(inner)?, decompress_frame(packed)?)
            }
            kind => (kind, Cow::Borrowed(&self.payload[..])),
        };
        let mut p = &body[..];
        let seq = u64::decode(&mut p)?;
        let signal = match kind {
            FrameKind::Data => Signal::None,
            FrameKind::DataWithSignal => Signal::decode(u64::decode(&mut p)?)?,
            _ => return None,
        };
        let value = T::decode(&mut p)?;
        p.is_empty().then_some((seq, value, signal))
    }

    /// The sequence number carried by an [`FrameKind::Ack`] or
    /// [`FrameKind::ResumeFrom`] control frame.
    pub fn control_seq(&self) -> Option<u64> {
        if !matches!(self.kind, FrameKind::Ack | FrameKind::ResumeFrom) {
            return None;
        }
        u64::decode(&mut &self.payload[..])
    }

    /// Write this frame to a (buffered) writer.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        check_io_failpoint("net::frame::write", io::ErrorKind::BrokenPipe)?;
        let mut head = [0u8; 5];
        head[..4].copy_from_slice(&((self.payload.len() + 1) as u32).to_le_bytes());
        head[4] = self.kind as u8;
        w.write_all(&head)?;
        w.write_all(&self.payload)
    }

    /// Read one frame from a reader. `Ok(None)` on clean EOF at a frame
    /// boundary. The payload buffer grows as bytes arrive, so a forged
    /// length buys at most 64 KiB of memory before the bytes behind it do.
    pub fn read_from(r: &mut impl Read) -> io::Result<Option<Frame>> {
        check_io_failpoint("net::frame::read", io::ErrorKind::ConnectionReset)?;
        let mut len_buf = [0u8; 4];
        match r.read_exact(&mut len_buf) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(e),
        }
        let len = u32::from_le_bytes(len_buf) as usize;
        if len == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "zero-length frame",
            ));
        }
        if len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame of {len} bytes exceeds the {MAX_FRAME} byte cap"),
            ));
        }
        let mut kind = [0u8; 1];
        r.read_exact(&mut kind)?;
        let kind = FrameKind::from_u8(kind[0]).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad frame kind {}", kind[0]),
            )
        })?;
        let mut payload = Vec::with_capacity((len - 1).min(PREALLOC));
        r.take(len as u64 - 1).read_to_end(&mut payload)?;
        if payload.len() != len - 1 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        Ok(Some(Frame { kind, payload }))
    }
}

/// The receive path every link shares: read frames until the element
/// numbered `*expected`, skipping replayed duplicates below it, and advance
/// `expected` past the element returned. `Ok(None)` is end of stream; EOF,
/// a sequence gap, a malformed frame and a non-data frame are errors.
pub fn read_element<T: Wire>(
    r: &mut impl Read,
    expected: &mut u64,
) -> io::Result<Option<(T, Signal)>> {
    let invalid = |what: &'static str| io::Error::new(io::ErrorKind::InvalidData, what);
    loop {
        let frame = Frame::read_from(r)?.ok_or(io::ErrorKind::UnexpectedEof)?;
        if frame.kind == FrameKind::Eos {
            return Ok(None);
        }
        let (seq, value, signal) = frame
            .as_data::<T>()
            .ok_or_else(|| invalid("malformed data frame"))?;
        if seq > *expected {
            return Err(invalid("gap in the frame sequence"));
        }
        if seq == *expected {
            *expected += 1;
            return Ok(Some((value, signal)));
        }
    }
}

/// Upper bound on a single frame (64 MiB) — a corrupted length prefix must
/// not allocate unbounded memory.
pub const MAX_FRAME: usize = 64 << 20;

/// Payload bytes [`Frame::read_from`] reserves up front (64 KiB): the whole
/// of any ordinary frame, and all a forged length gets before its bytes
/// arrive.
const PREALLOC: usize = 64 << 10;

/// Failpoint hook at the framing boundary: `ShortIo` surfaces as an I/O
/// error of `kind` (exercising the reconnect path), `Panic`/`Stall` act in
/// place. Compiles to nothing without `raft_failpoints`.
#[cfg(feature = "raft_failpoints")]
fn check_io_failpoint(site: &str, kind: io::ErrorKind) -> io::Result<()> {
    use raft_buffer::failpoints::{check, FailAction};
    match check(site) {
        Some(FailAction::ShortIo) => Err(io::Error::new(kind, format!("failpoint {site:?} fired"))),
        Some(FailAction::Panic) => panic!("failpoint {site:?} fired"),
        Some(FailAction::Stall(d)) => {
            std::thread::sleep(d);
            Ok(())
        }
        None => Ok(()),
    }
}

#[cfg(not(feature = "raft_failpoints"))]
#[inline(always)]
fn check_io_failpoint(_site: &str, _kind: io::ErrorKind) -> io::Result<()> {
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(f: Frame) {
        let mut buf = Vec::new();
        f.write_to(&mut buf).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let back = Frame::read_from(&mut cursor).unwrap().unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn frames_roundtrip() {
        roundtrip(Frame::data(0, &b"hello".to_vec(), Signal::None));
        roundtrip(Frame::data(1, &b"x".to_vec(), Signal::EoS));
        roundtrip(Frame::data(2, &Vec::<u8>::new(), Signal::User(42)));
        roundtrip(Frame::eos());
        // Kind byte 3 names no frame: `len | 3 | payload` is refused.
        assert_eq!(FrameKind::from_u8(3), None);
        let mut cursor = std::io::Cursor::new([2u8, 0, 0, 0, 3, 0]);
        let err = Frame::read_from(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn as_data_recovers_signal() {
        let f = Frame::data(0, &"abc".to_string(), Signal::Flush);
        assert_eq!(f.kind, FrameKind::DataWithSignal);
        assert_eq!(f.as_data(), Some((0, "abc".to_string(), Signal::Flush)));

        let f = Frame::data(0, &"abc".to_string(), Signal::None);
        assert_eq!(f.kind, FrameKind::Data);
        assert_eq!(f.as_data(), Some((0, "abc".to_string(), Signal::None)));
    }

    #[test]
    fn seq_frames_roundtrip() {
        roundtrip(Frame::data(0, &7u64, Signal::None));
        roundtrip(Frame::data(u64::MAX, &7u64, Signal::EoS));
        roundtrip(Frame::data(3, &7u64, Signal::None).compressed());
        roundtrip(Frame::ack(17));
        roundtrip(Frame::resume_from(0));
    }

    #[test]
    fn as_data_recovers_all_parts() {
        let f = Frame::data(42, &9u32, Signal::User(9));
        assert_eq!(f.as_data(), Some((42, 9u32, Signal::User(9))));
        assert_eq!(f.compressed().as_data(), Some((42, 9u32, Signal::User(9))));

        let f = Frame::data(7, &b"p".to_vec(), Signal::None);
        assert_eq!(f.as_data(), Some((7, b"p".to_vec(), Signal::None)));
        // A long, repetitive element really is packed, and unpacks whole.
        let text = "raftlib ".repeat(64);
        let f = Frame::data(5, &text, Signal::None).compressed();
        assert_eq!(f.kind, FrameKind::Compressed);
        assert!(f.payload.len() < text.len());
        assert_eq!(f.as_data(), Some((5, text, Signal::None)));

        // non-data frames, and a wrong element type, refuse
        assert!(Frame::eos().as_data::<u32>().is_none());
        assert!(Frame::ack(1).compressed().as_data::<u32>().is_none());
        assert!(Frame::data(0, &1u64, Signal::None)
            .as_data::<u32>()
            .is_none());
    }

    #[test]
    fn control_seq_only_on_control_frames() {
        assert_eq!(Frame::ack(9).control_seq(), Some(9));
        assert_eq!(Frame::resume_from(3).control_seq(), Some(3));
        assert_eq!(Frame::eos().control_seq(), None);
        assert_eq!(Frame::data(1, &0u8, Signal::None).control_seq(), None);
        // truncated control frame is rejected, not misread
        let bogus = Frame {
            kind: FrameKind::Ack,
            payload: b"abc".to_vec(),
        };
        assert_eq!(bogus.control_seq(), None);
    }

    /// Every fixed-width field a payload can be too short for: each prefix
    /// of a well-formed payload that cuts a field is a `None`, not a panic.
    #[test]
    fn short_payloads_are_none_not_panics() {
        let short = |kind, len| Frame {
            kind,
            payload: vec![0u8; len],
        };
        for len in 0..8 {
            assert_eq!(short(FrameKind::Ack, len).control_seq(), None);
            assert_eq!(short(FrameKind::ResumeFrom, len).control_seq(), None);
        }
        for len in 0..9 {
            assert_eq!(short(FrameKind::Data, len).as_data::<u8>(), None);
        }
        let signalled = Frame::data(0, &0u8, Signal::EoS).payload;
        for len in 0..signalled.len() {
            let mut f = short(FrameKind::DataWithSignal, len);
            f.payload.copy_from_slice(&signalled[..len]);
            assert_eq!(f.as_data::<u8>(), None);
        }
        for len in 0..3 {
            assert_eq!(short(FrameKind::Compressed, len).as_data::<u8>(), None);
        }
        // The shortest well-formed payloads: a one-byte element behind them.
        assert_eq!(
            short(FrameKind::Data, 9).as_data::<u8>(),
            Some((0, 0, Signal::None))
        );
        assert_eq!(
            Frame::data(0, &0u8, Signal::EoS).as_data::<u8>(),
            Some((0, 0, Signal::EoS))
        );
        // An all-zero signal word encodes no signal at all: malformed.
        assert_eq!(short(FrameKind::DataWithSignal, 17).as_data::<u8>(), None);
        // ...and one byte past the element is malformed too.
        assert_eq!(short(FrameKind::Data, 10).as_data::<u8>(), None);
    }

    /// The length prefix itself: a frame that claims more bytes than the
    /// reader holds, or no kind byte at all, is an error.
    #[test]
    fn forged_length_prefix_is_error() {
        for raw in [&[0u8, 0, 0, 0][..], &[1, 0, 0, 0], &[9, 0, 0, 0, 0, 1, 2]] {
            let mut cursor = std::io::Cursor::new(raw.to_vec());
            assert!(Frame::read_from(&mut cursor).is_err(), "{raw:?}");
        }
    }

    #[test]
    fn eof_at_boundary_is_none() {
        let mut empty = std::io::Cursor::new(Vec::<u8>::new());
        assert!(Frame::read_from(&mut empty).unwrap().is_none());
    }

    #[test]
    fn truncated_frame_is_error() {
        let f = Frame::data(0, &"hello world".to_string(), Signal::None);
        let mut buf = Vec::new();
        f.write_to(&mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        let mut cursor = std::io::Cursor::new(buf);
        assert!(Frame::read_from(&mut cursor).is_err());
    }

    #[test]
    fn oversized_length_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        let mut cursor = std::io::Cursor::new(buf);
        assert!(Frame::read_from(&mut cursor).is_err());
    }

    #[test]
    fn multiple_frames_stream() {
        let mut buf = Vec::new();
        for i in 0..10u64 {
            Frame::data(i, &i, Signal::None).write_to(&mut buf).unwrap();
        }
        Frame::eos().write_to(&mut buf).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let mut n = 0;
        loop {
            let f = Frame::read_from(&mut cursor).unwrap().unwrap();
            if f.kind == FrameKind::Eos {
                break;
            }
            n += 1;
        }
        assert_eq!(n, 10);
    }

    /// The shared receive path: duplicates below the expected sequence are
    /// skipped, a gap above it is an error, EoS ends the stream.
    #[test]
    fn read_element_drops_duplicates_and_refuses_gaps() {
        let stream = |seqs: &[u64]| {
            let mut buf = Vec::new();
            for &s in seqs {
                Frame::data(s, &(s * 10), Signal::None)
                    .write_to(&mut buf)
                    .unwrap();
            }
            Frame::eos().write_to(&mut buf).unwrap();
            std::io::Cursor::new(buf)
        };
        let mut r = stream(&[0, 1, 0, 1, 2]);
        let mut expected = 0;
        let mut got = Vec::new();
        while let Some((v, _)) = read_element::<u64>(&mut r, &mut expected).unwrap() {
            got.push(v);
        }
        assert_eq!((got, expected), (vec![0, 10, 20], 3));

        let mut r = stream(&[0, 2]);
        let mut expected = 0;
        assert_eq!(
            read_element::<u64>(&mut r, &mut expected).unwrap(),
            Some((0, Signal::None))
        );
        assert!(read_element::<u64>(&mut r, &mut expected).is_err());
        // EOF without EoS is an error, not a clean end.
        let mut r = std::io::Cursor::new(Vec::new());
        assert!(read_element::<u64>(&mut r, &mut 0).is_err());
    }
}
