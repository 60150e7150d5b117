//! Stream signals.
//!
//! RaftLib delivers *synchronous* signals together with the data element they
//! accompany (the paper's example: an end-of-file marker that must arrive at
//! the downstream kernel exactly when the last element does), and
//! *asynchronous* signals that bypass the queue. This module defines the
//! signal vocabulary; synchronous delivery is implemented by storing a
//! [`Signal`] in every ring-buffer slot, asynchronous delivery by an atomic
//! side-channel on the FIFO ([`crate::fifo::Monitorable::post_async`]).

/// A signal that rides alongside a stream element (synchronous) or is posted
/// out-of-band (asynchronous).
///
/// `Signal` is `Copy` and one byte + payload so that carrying it in every
/// slot costs almost nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Signal {
    /// No signal — the common case for a data element.
    #[default]
    None,
    /// Start of stream. Emitted with the first element by convention.
    SoS,
    /// End of stream. The element carrying this signal is the last one the
    /// producer will send; after it the stream is closed.
    EoS,
    /// A synchronization barrier: downstream kernels should flush state.
    Flush,
    /// A user-defined signal with a 32-bit payload (e.g. file boundaries in
    /// a multi-file scan).
    User(u32),
    /// Delivered asynchronously when a kernel terminated abnormally; the
    /// payload is an application-defined error code.
    Error(u32),
}

impl Signal {
    /// `true` if this signal terminates the stream.
    #[inline]
    pub fn is_terminal(self) -> bool {
        matches!(self, Signal::EoS | Signal::Error(_))
    }

    /// Encode to a `u64` for the asynchronous atomic side-channel.
    ///
    /// Layout: low 32 bits payload, next 8 bits discriminant, bit 63 set to
    /// distinguish "a signal is present" from the empty value `0`.
    #[inline]
    pub fn encode(self) -> u64 {
        const PRESENT: u64 = 1 << 63;
        let (tag, payload): (u64, u64) = match self {
            Signal::None => (0, 0),
            Signal::SoS => (1, 0),
            Signal::EoS => (2, 0),
            Signal::Flush => (3, 0),
            Signal::User(p) => (4, p as u64),
            Signal::Error(p) => (5, p as u64),
        };
        PRESENT | (tag << 32) | payload
    }

    /// Decode from the asynchronous side-channel; `None` if no signal was
    /// posted (`raw == 0`).
    #[inline]
    pub fn decode(raw: u64) -> Option<Signal> {
        if raw == 0 {
            return None;
        }
        let tag = (raw >> 32) & 0xff;
        let payload = (raw & 0xffff_ffff) as u32;
        Some(match tag {
            0 => Signal::None,
            1 => Signal::SoS,
            2 => Signal::EoS,
            3 => Signal::Flush,
            4 => Signal::User(payload),
            5 => Signal::Error(payload),
            _ => Signal::None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_none() {
        assert_eq!(Signal::default(), Signal::None);
    }

    #[test]
    fn terminal_signals() {
        assert!(Signal::EoS.is_terminal());
        assert!(Signal::Error(7).is_terminal());
        assert!(!Signal::None.is_terminal());
        assert!(!Signal::SoS.is_terminal());
        assert!(!Signal::Flush.is_terminal());
        assert!(!Signal::User(0).is_terminal());
    }

    #[test]
    fn encode_decode_roundtrip() {
        for s in [
            Signal::None,
            Signal::SoS,
            Signal::EoS,
            Signal::Flush,
            Signal::User(0),
            Signal::User(u32::MAX),
            Signal::Error(42),
        ] {
            assert_eq!(Signal::decode(s.encode()), Some(s), "{s:?}");
        }
    }

    #[test]
    fn decode_empty_channel() {
        assert_eq!(Signal::decode(0), None);
    }

    #[test]
    fn encoded_values_nonzero() {
        // The side-channel uses 0 for "empty": every encoding must be != 0.
        assert_ne!(Signal::None.encode(), 0);
        assert_ne!(Signal::User(0).encode(), 0);
    }
}
