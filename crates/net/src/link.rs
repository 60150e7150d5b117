//! TCP stream-link kernels.
//!
//! A stream between two kernels on different nodes is realized as a pair of
//! kernels: [`TcpOut`] consumes the local stream and writes frames to a
//! socket; [`TcpIn`] reads frames and produces the stream on the remote
//! map. To the application, both maps look purely local — the paper's
//! "no difference between a distributed and a non-distributed program".
//!
//! [`tcp_bridge`] builds a connected pair over an ephemeral localhost
//! listener — the common case for tests, examples, and single-machine
//! multi-process emulation.

use std::borrow::Cow;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};

use raftlib::prelude::*;

use crate::compress::{compress_frame, decompress_frame};
use crate::frame::{split_data, Frame, FrameKind};
use crate::wire::Wire;

/// Sink-side kernel: forwards its input stream over a TCP socket, ending
/// with an EoS frame.
pub struct TcpOut<T: Wire> {
    writer: BufWriter<TcpStream>,
    eos_sent: bool,
    compress: bool,
    _marker: std::marker::PhantomData<fn(T)>,
}

impl<T: Wire> TcpOut<T> {
    /// Wrap an already-connected socket.
    pub fn from_stream(stream: TcpStream) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        Ok(TcpOut {
            writer: BufWriter::new(stream),
            eos_sent: false,
            compress: false,
            _marker: std::marker::PhantomData,
        })
    }

    /// Connect to a listening [`TcpIn`].
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Self::from_stream(TcpStream::connect(addr)?)
    }

    /// Connect with per-attempt timeout and bounded retry/backoff from a
    /// [`NetConfig`](crate::resilient::NetConfig) — the robust flavour of
    /// [`connect`](TcpOut::connect) for flaky or slow-to-listen peers.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        cfg: &crate::resilient::NetConfig,
    ) -> io::Result<Self> {
        Self::from_stream(crate::resilient::connect_with_retry(addr, cfg)?)
    }

    /// Enable per-frame LZ compression (§4.2 future work). The receiving
    /// [`TcpIn`] detects compressed frames automatically.
    pub fn compressed(mut self) -> Self {
        self.compress = true;
        self
    }
}

impl<T: Wire> Kernel for TcpOut<T> {
    fn ports(&self) -> PortSpec {
        PortSpec::new().input::<T>("in")
    }

    fn run(&mut self, ctx: &Context) -> KStatus {
        let mut input = ctx.input::<T>("in");
        match input.pop_signal() {
            Ok((v, sig)) => {
                drop(input);
                let mut buf = Vec::new();
                v.encode(&mut buf);
                let frame = Frame::data(buf, sig);
                let frame = if self.compress {
                    let mut payload = Vec::with_capacity(frame.payload.len() + 2);
                    payload.push(frame.kind as u8);
                    payload.extend_from_slice(&compress_frame(&frame.payload));
                    Frame {
                        kind: FrameKind::Compressed,
                        payload,
                    }
                } else {
                    frame
                };
                if frame.write_to(&mut self.writer).is_err() {
                    return KStatus::Stop;
                }
                KStatus::Proceed
            }
            Err(_) => {
                if !self.eos_sent {
                    let _ = Frame::eos().write_to(&mut self.writer);
                    let _ = self.writer.flush();
                    self.eos_sent = true;
                }
                KStatus::Stop
            }
        }
    }

    fn name(&self) -> String {
        "tcp-out".to_string()
    }
}

/// Source-side kernel: produces the stream read from a TCP socket.
pub struct TcpIn<T: Wire> {
    reader: BufReader<TcpStream>,
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: Wire> TcpIn<T> {
    /// Wrap an already-connected socket.
    pub fn from_stream(stream: TcpStream) -> io::Result<Self> {
        Ok(TcpIn {
            reader: BufReader::new(stream),
            _marker: std::marker::PhantomData,
        })
    }

    /// Wrap an existing buffered reader (the remote-job path, where the
    /// job frame was already consumed from it).
    pub(crate) fn from_parts(reader: BufReader<TcpStream>) -> Self {
        TcpIn {
            reader,
            _marker: std::marker::PhantomData,
        }
    }

    /// Bind `addr`, accept exactly one sender, and wrap it.
    pub fn listen(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let (stream, _) = listener.accept()?;
        Self::from_stream(stream)
    }
}

impl<T: Wire> Kernel for TcpIn<T> {
    fn ports(&self) -> PortSpec {
        PortSpec::new().output::<T>("out")
    }

    fn run(&mut self, ctx: &Context) -> KStatus {
        match Frame::read_from(&mut self.reader) {
            Ok(Some(frame)) if frame.kind == FrameKind::Eos => KStatus::Stop,
            Ok(Some(frame)) => {
                // Transparently unwrap compressed frames.
                let (kind, payload) = if frame.kind == FrameKind::Compressed {
                    let Some((&inner_kind, body)) = frame.payload.split_first() else {
                        return KStatus::Stop;
                    };
                    let Some(inner) = decompress_frame(body) else {
                        return KStatus::Stop;
                    };
                    let Some(kind) = frame_kind_from_u8(inner_kind) else {
                        return KStatus::Stop;
                    };
                    (kind, inner)
                } else {
                    (frame.kind, Cow::Borrowed(&frame.payload[..]))
                };
                let Some((mut payload, sig)) = split_data(kind, &payload) else {
                    return KStatus::Stop; // unexpected control frame
                };
                let Some(v) = T::decode(&mut payload) else {
                    return KStatus::Stop; // malformed element
                };
                let mut out = ctx.output::<T>("out");
                if out.push_signal(v, sig).is_err() {
                    return KStatus::Stop;
                }
                KStatus::Proceed
            }
            Ok(None) | Err(_) => KStatus::Stop, // peer vanished
        }
    }

    fn name(&self) -> String {
        "tcp-in".to_string()
    }
}

fn frame_kind_from_u8(v: u8) -> Option<FrameKind> {
    Some(match v {
        0 => FrameKind::Data,
        1 => FrameKind::DataWithSignal,
        _ => return None, // only data kinds are ever compressed
    })
}

/// Build a connected `TcpOut`/`TcpIn` pair over an ephemeral localhost
/// port — everything needed to cut one logical stream across two maps.
///
/// Binds retry transient `AddrInUse` (ephemeral-port churn on busy test
/// machines), and the connect runs on the caller's thread so its error —
/// not a generic "thread panicked" — is what surfaces on failure.
pub fn tcp_bridge<T: Wire>() -> io::Result<(TcpOut<T>, TcpIn<T>)> {
    let listener = bind_ephemeral()?;
    let addr = listener.local_addr()?;
    let accept = std::thread::spawn(move || listener.accept().map(|(s, _)| s));
    let out_stream = TcpStream::connect(addr)?;
    let accepted = accept.join().map_err(|payload| {
        let what = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "<non-string payload>".to_string());
        io::Error::other(format!("accept thread panicked: {what}"))
    })??;
    Ok((
        TcpOut::from_stream(out_stream)?,
        TcpIn::from_stream(accepted)?,
    ))
}

/// Bind an ephemeral localhost listener, retrying transient `AddrInUse`
/// (the kernel can briefly refuse when the ephemeral range is churning
/// through `TIME_WAIT` sockets, even for a port-0 bind).
fn bind_ephemeral() -> io::Result<TcpListener> {
    let mut last = None;
    for attempt in 0..5u32 {
        match TcpListener::bind("127.0.0.1:0") {
            Ok(l) => return Ok(l),
            Err(e) if e.kind() == io::ErrorKind::AddrInUse => {
                last = Some(e);
                std::thread::sleep(std::time::Duration::from_millis(10 << attempt));
            }
            Err(e) => return Err(e),
        }
    }
    Err(last.expect("loop ran at least once"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use raft_kernels::{write_each, Generate};

    /// A pipeline cut across two maps in two threads: numbers generated in
    /// "node A" arrive in "node B" in order, with signals intact.
    #[test]
    fn stream_crosses_tcp_in_order() {
        let (tcp_out, tcp_in) = tcp_bridge::<u64>().unwrap();

        let node_a = std::thread::spawn(move || {
            let mut map = RaftMap::new();
            let src = map.add(Generate::new(0..10_000u64));
            let out = map.add(tcp_out);
            map.link(src, "out", out, "in").unwrap();
            map.exe().unwrap();
        });

        let node_b = std::thread::spawn(move || {
            let mut map = RaftMap::new();
            let src = map.add(tcp_in);
            let (we, handle) = write_each::<u64>();
            let dst = map.add(we);
            map.link(src, "out", dst, "in").unwrap();
            map.exe().unwrap();
            std::sync::Arc::try_unwrap(handle)
                .unwrap()
                .into_inner()
                .unwrap()
        });

        node_a.join().unwrap();
        let got = node_b.join().unwrap();
        assert_eq!(got, (0..10_000).collect::<Vec<u64>>());
    }

    /// Same crossing, with per-frame compression enabled on the sender;
    /// the receiver auto-detects. Strings repeat heavily, so frames shrink.
    #[test]
    fn compressed_stream_crosses_tcp() {
        let (tcp_out, tcp_in) = tcp_bridge::<String>().unwrap();
        let tcp_out = tcp_out.compressed();
        let node_a = std::thread::spawn(move || {
            let mut map = RaftMap::new();
            let src = map.add(Generate::new((0..2_000u32).map(|i| {
                format!("raftlib stream element {} padding padding padding", i % 7)
            })));
            let out = map.add(tcp_out);
            map.link(src, "out", out, "in").unwrap();
            map.exe().unwrap();
        });
        let node_b = std::thread::spawn(move || {
            let mut map = RaftMap::new();
            let src = map.add(tcp_in);
            let (we, handle) = write_each::<String>();
            let dst = map.add(we);
            map.link(src, "out", dst, "in").unwrap();
            map.exe().unwrap();
            let got = handle.lock().unwrap().clone();
            got
        });
        node_a.join().unwrap();
        let got = node_b.join().unwrap();
        assert_eq!(got.len(), 2000);
        assert_eq!(got[8], "raftlib stream element 1 padding padding padding");
    }

    #[test]
    fn signals_survive_the_hop() {
        let (mut tcp_out, mut tcp_in) = tcp_bridge::<u32>().unwrap();
        // Drive the kernels directly with hand-built FIFOs.
        use raft_buffer::{fifo_with, FifoConfig, Signal};
        let (_f1, mut p_in, c_in) = fifo_with::<u32>(FifoConfig::starting_at(8));
        let (f1m, p_out, mut c_out) = fifo_with::<u32>(FifoConfig::starting_at(8));

        p_in.try_push_signal(7, Signal::User(3)).unwrap();
        p_in.try_push_signal(8, Signal::EoS).unwrap();
        p_in.close();

        // sender context: input = c_in; receiver context: output = p_out
        let sender = std::thread::spawn(move || {
            let ctx = test_ctx_in(c_in);
            while tcp_out.run(&ctx) == KStatus::Proceed {}
        });
        let receiver = std::thread::spawn(move || {
            let ctx = test_ctx_out(p_out);
            while tcp_in.run(&ctx) == KStatus::Proceed {}
        });
        sender.join().unwrap();
        receiver.join().unwrap();
        let _ = f1m;
        assert_eq!(c_out.try_pop_signal().unwrap(), (7, Signal::User(3)));
        assert_eq!(c_out.try_pop_signal().unwrap(), (8, Signal::EoS));
    }

    // Small helpers constructing single-port contexts for direct kernel
    // driving (unit-test only; applications go through RaftMap).
    fn test_ctx_in<T: Send + 'static>(c: raft_buffer::Consumer<T>) -> Context {
        let fifo: std::sync::Arc<dyn raft_buffer::fifo::Monitorable> =
            std::sync::Arc::new(c.fifo());
        Context::for_test(vec![("in".to_string(), Box::new(c) as _, fifo)], vec![])
    }

    fn test_ctx_out<T: Send + 'static>(p: raft_buffer::Producer<T>) -> Context {
        Context::for_test(vec![], vec![("out".to_string(), Box::new(p) as _)])
    }
}
