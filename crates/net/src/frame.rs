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
//! `len` counts `kind + payload`. Data frames carry an encoded element and
//! the element's synchronous signal (so signal delivery stays synchronized
//! across the hop, §4.2); control frames carry mesh traffic.

use std::io::{self, Read, Write};

use raft_buffer::Signal;

use crate::wire::Wire;

/// Frame discriminator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// An element with `Signal::None`.
    Data = 0,
    /// An element plus an encoded synchronous signal (first 8 payload
    /// bytes).
    DataWithSignal = 1,
    /// Stream end: the sender closed its input.
    Eos = 2,
    /// Mesh: node hello/heartbeat carrying a `NodeInfo` payload.
    Heartbeat = 3,
    /// Mesh: request for the receiver's known-peers table.
    PeersRequest = 4,
    /// Mesh: peers table payload.
    Peers = 5,
    /// A compressed data frame: payload = inner-kind byte +
    /// `compress::compress_frame` output of the inner payload.
    Compressed = 6,
    /// Remote-execution job submission (wire-encoded kernel-name list).
    Job = 7,
    /// Resilient link: cumulative acknowledgement. Payload is the `u64 LE`
    /// sequence number the receiver expects next — every lower sequence
    /// has been received and pushed.
    Ack = 8,
    /// Resilient link: resume handshake, sent by the receiver immediately
    /// after every (re)accept. Payload is the next expected `u64 LE`
    /// sequence number; the sender replays from there.
    ResumeFrom = 9,
    /// Resilient link element with `Signal::None`: `seq u64 LE | element`.
    SeqData = 10,
    /// Resilient link element with a synchronous signal:
    /// `seq u64 LE | signal u64 LE | element`.
    SeqDataWithSignal = 11,
}

impl FrameKind {
    fn from_u8(v: u8) -> Option<FrameKind> {
        Some(match v {
            0 => FrameKind::Data,
            1 => FrameKind::DataWithSignal,
            2 => FrameKind::Eos,
            3 => FrameKind::Heartbeat,
            4 => FrameKind::PeersRequest,
            5 => FrameKind::Peers,
            6 => FrameKind::Compressed,
            7 => FrameKind::Job,
            8 => FrameKind::Ack,
            9 => FrameKind::ResumeFrom,
            10 => FrameKind::SeqData,
            11 => FrameKind::SeqDataWithSignal,
            _ => return None,
        })
    }
}

/// One framed message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the payload means.
    pub kind: FrameKind,
    /// Raw payload bytes: one allocation per frame, which the `as_*`
    /// accessors and [`Wire::decode`] read in place.
    pub payload: Vec<u8>,
}

impl Frame {
    /// A data frame; encodes the signal only when present (one byte saved
    /// on the common path).
    pub fn data(payload: Vec<u8>, signal: Signal) -> Frame {
        if signal == Signal::None {
            Frame {
                kind: FrameKind::Data,
                payload,
            }
        } else {
            Frame {
                kind: FrameKind::DataWithSignal,
                payload: prefixed(&[signal.encode()], &payload),
            }
        }
    }

    /// The end-of-stream frame.
    pub fn eos() -> Frame {
        Frame {
            kind: FrameKind::Eos,
            payload: Vec::new(),
        }
    }

    /// A sequence-numbered data frame for resilient links. The sequence
    /// number rides in front of the element so the receiver can
    /// deduplicate replayed frames after a reconnect.
    pub fn seq_data(seq: u64, payload: &[u8], signal: Signal) -> Frame {
        if signal == Signal::None {
            Frame {
                kind: FrameKind::SeqData,
                payload: prefixed(&[seq], payload),
            }
        } else {
            Frame {
                kind: FrameKind::SeqDataWithSignal,
                payload: prefixed(&[seq, signal.encode()], payload),
            }
        }
    }

    /// A cumulative ack: every frame with sequence `< next_expected` has
    /// been received and pushed downstream.
    pub fn ack(next_expected: u64) -> Frame {
        Frame {
            kind: FrameKind::Ack,
            payload: prefixed(&[next_expected], &[]),
        }
    }

    /// The resume handshake the receiver sends after every (re)accept.
    pub fn resume_from(next_expected: u64) -> Frame {
        Frame {
            kind: FrameKind::ResumeFrom,
            payload: prefixed(&[next_expected], &[]),
        }
    }

    /// View a seq-data frame as `(seq, element payload, signal)`.
    pub fn as_seq_data(&self) -> Option<(u64, &[u8], Signal)> {
        let mut p = &self.payload[..];
        match self.kind {
            FrameKind::SeqData => Some((u64::decode(&mut p)?, p, Signal::None)),
            FrameKind::SeqDataWithSignal => {
                let seq = u64::decode(&mut p)?;
                let sig = Signal::decode(u64::decode(&mut p)?)?;
                Some((seq, p, sig))
            }
            _ => None,
        }
    }

    /// The sequence number carried by an [`FrameKind::Ack`] or
    /// [`FrameKind::ResumeFrom`] control frame.
    pub fn control_seq(&self) -> Option<u64> {
        if !matches!(self.kind, FrameKind::Ack | FrameKind::ResumeFrom) {
            return None;
        }
        u64::decode(&mut &self.payload[..])
    }

    /// View a data frame as `(element payload, signal)`.
    pub fn as_data(&self) -> Option<(&[u8], Signal)> {
        split_data(self.kind, &self.payload)
    }

    /// Write this frame to a (buffered) writer.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        check_io_failpoint("net::frame::write", io::ErrorKind::BrokenPipe)?;
        let len = (self.payload.len() + 1) as u32;
        w.write_all(&len.to_le_bytes())?;
        w.write_all(&[self.kind as u8])?;
        w.write_all(&self.payload)
    }

    /// Read one frame from a reader. `Ok(None)` on clean EOF at a frame
    /// boundary.
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
        let mut payload = vec![0u8; len - 1];
        r.read_exact(&mut payload)?;
        Ok(Some(Frame { kind, payload }))
    }
}

/// Split a data payload of `kind` into `(element payload, signal)`; the
/// form [`Frame::as_data`] takes once a compressed frame is unwrapped.
pub(crate) fn split_data(kind: FrameKind, payload: &[u8]) -> Option<(&[u8], Signal)> {
    match kind {
        FrameKind::Data => Some((payload, Signal::None)),
        FrameKind::DataWithSignal => {
            let mut p = payload;
            let sig = Signal::decode(u64::decode(&mut p)?)?;
            Some((p, sig))
        }
        _ => None,
    }
}

/// Upper bound on a single frame (64 MiB) — a corrupted length prefix must
/// not allocate unbounded memory.
pub const MAX_FRAME: usize = 64 << 20;

/// `words` as `u64 LE` followed by `body`, in one exactly-sized allocation.
fn prefixed(words: &[u64], body: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 * words.len() + body.len());
    for w in words {
        w.encode(&mut buf);
    }
    buf.extend_from_slice(body);
    buf
}

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
        roundtrip(Frame::data(b"hello".to_vec(), Signal::None));
        roundtrip(Frame::data(b"x".to_vec(), Signal::EoS));
        roundtrip(Frame::data(Vec::new(), Signal::User(42)));
        roundtrip(Frame::eos());
        roundtrip(Frame {
            kind: FrameKind::Heartbeat,
            payload: b"node-info".to_vec(),
        });
    }

    #[test]
    fn as_data_recovers_signal() {
        let f = Frame::data(b"abc".to_vec(), Signal::Flush);
        let (payload, sig) = f.as_data().unwrap();
        assert_eq!(payload, b"abc");
        assert_eq!(sig, Signal::Flush);

        let f = Frame::data(b"abc".to_vec(), Signal::None);
        let (payload, sig) = f.as_data().unwrap();
        assert_eq!(payload, b"abc");
        assert_eq!(sig, Signal::None);
    }

    #[test]
    fn seq_frames_roundtrip() {
        roundtrip(Frame::seq_data(0, b"first", Signal::None));
        roundtrip(Frame::seq_data(u64::MAX, &[], Signal::EoS));
        roundtrip(Frame::ack(17));
        roundtrip(Frame::resume_from(0));
    }

    #[test]
    fn as_seq_data_recovers_all_parts() {
        let f = Frame::seq_data(42, b"xyz", Signal::User(9));
        assert_eq!(f.as_seq_data(), Some((42, &b"xyz"[..], Signal::User(9))));

        let f = Frame::seq_data(7, b"p", Signal::None);
        assert_eq!(f.as_seq_data(), Some((7, &b"p"[..], Signal::None)));

        // non-seq frames refuse
        assert!(Frame::eos().as_seq_data().is_none());
        assert!(Frame::data(b"d".to_vec(), Signal::None)
            .as_seq_data()
            .is_none());
    }

    #[test]
    fn control_seq_only_on_control_frames() {
        assert_eq!(Frame::ack(9).control_seq(), Some(9));
        assert_eq!(Frame::resume_from(3).control_seq(), Some(3));
        assert_eq!(Frame::eos().control_seq(), None);
        assert_eq!(Frame::seq_data(1, &[], Signal::None).control_seq(), None);
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
            assert_eq!(short(FrameKind::DataWithSignal, len).as_data(), None);
            assert_eq!(short(FrameKind::SeqData, len).as_seq_data(), None);
            assert_eq!(short(FrameKind::Ack, len).control_seq(), None);
            assert_eq!(short(FrameKind::ResumeFrom, len).control_seq(), None);
        }
        for len in 0..16 {
            assert_eq!(short(FrameKind::SeqDataWithSignal, len).as_seq_data(), None);
        }
        // The shortest well-formed payloads: an empty element behind them.
        assert_eq!(
            short(FrameKind::SeqData, 8).as_seq_data(),
            Some((0, &[][..], Signal::None))
        );
        assert_eq!(
            Frame::seq_data(0, &[], Signal::EoS).as_seq_data(),
            Some((0, &[][..], Signal::EoS))
        );
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
        let f = Frame::data(b"hello world".to_vec(), Signal::None);
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
            Frame::data(i.to_le_bytes().to_vec(), Signal::None)
                .write_to(&mut buf)
                .unwrap();
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
}
