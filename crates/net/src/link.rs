//! TCP stream links: one sender kernel, [`TcpOut`], and one receiver
//! kernel, [`TcpIn`].
//!
//! A stream between two kernels on different nodes is realized as a pair of
//! kernels: [`TcpOut`] consumes the local stream and writes frames to a
//! socket; [`TcpIn`] reads frames and produces the stream on the remote
//! map. To the application, both maps look purely local — the paper's
//! "no difference between a distributed and a non-distributed program".
//!
//! Every data frame carries its sequence number ([`Frame::data`]); both
//! ends share one encode, one compression wrapper and one receive path
//! ([`read_element`]: duplicate drop, gap check). What a link does when its
//! socket fails depends only on how it was built:
//!
//! * **From an address** — [`TcpIn::bind`] + [`TcpOut::connect`]: the link
//!   has a peer to redial, so it resumes. The sender connects lazily, with
//!   a timeout and bounded retries under exponential backoff with
//!   per-endpoint jitter; the receiver leads every (re)accept with a
//!   [`ResumeFrom`](FrameKind::ResumeFrom) naming the next sequence it
//!   expects and acks cumulatively every quarter window; the sender keeps
//!   every unacknowledged frame in a [`ReplayWindow`], retransmits the
//!   suffix after a resume, and blocks reading acks once `window` frames
//!   are outstanding — the window is the backpressure. The stream arrives
//!   exactly once, in order, across any reconnects within the retry budget.
//! * **From a handed socket** — [`tcp_bridge`] and the remote-execution job
//!   socket: nothing to redial. The sender keeps no window, the receiver
//!   writes nothing back, and any socket error, malformed frame or sequence
//!   gap ends the stream.
//!
//! Acks are read only at blocking points (window full, final drain), never
//! under a read timeout mid-frame — a short read inside a frame would
//! desynchronize the framing. Either way the sender flushes its socket
//! buffer whenever its input runs empty (the fabric's flush-on-idle rule),
//! so an element waits in a buffer only while others queue behind it.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use raft_buffer::{ReplayWindow, Signal};
use raft_rng::Rng;
use raftlib::prelude::*;

use crate::frame::{read_element, Frame, FrameKind};
use crate::wire::Wire;

/// Connection policy of a link built from an address.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Per-attempt connect timeout; also bounds the wait for the resume
    /// handshake.
    pub connect_timeout: Duration,
    /// How many times to retry a failed connect, and how many reconnect
    /// cycles a sender attempts before giving up.
    pub retries: u32,
    /// First retry delay; doubles per attempt.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Replay-window bound, at least 2: the sender blocks for acks at this
    /// depth, and the receiver acks cumulatively every `window / 4` frames
    /// (at least 1) — so an ack is always owed before the sender can block.
    pub window: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            connect_timeout: Duration::from_secs(5),
            retries: 5,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            window: 128,
        }
    }
}

impl NetConfig {
    fn window(&self) -> usize {
        self.window.max(2)
    }

    /// Elements the receiver pushes between cumulative acks: a quarter of
    /// the window, below the window by construction.
    fn ack_stride(&self) -> u64 {
        (self.window() / 4).max(1) as u64
    }

    /// How long a receiver waits for a sender to (re)connect before
    /// treating the stream as ended: the full connect-retry horizon plus
    /// one backoff ceiling of slack.
    fn accept_patience(&self) -> Duration {
        self.connect_timeout
            .saturating_mul(self.retries + 1)
            .saturating_add(self.max_backoff)
    }

    /// Backoff before retry `attempt` (0-based): `b = min(base * 2^attempt,
    /// max_backoff)` plus a jitter of up to `b / 4` drawn from `rng`.
    fn backoff(&self, attempt: u32, rng: &mut Rng) -> Duration {
        let b = self
            .base_backoff
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.max_backoff);
        b + Duration::from_nanos(rng.range(0..=(b.as_nanos() / 4) as u64))
    }
}

/// A sender's way back to its peer: present only on a link built from an
/// address.
struct Redial {
    addr: SocketAddr,
    cfg: NetConfig,
    /// Jitter stream, seeded per endpoint so that senders built from one
    /// config do not retry in lockstep.
    rng: Rng,
}

impl Redial {
    /// Connect with the per-attempt timeout: `retries + 1` attempts with
    /// backoff between them.
    fn connect(&mut self) -> io::Result<TcpStream> {
        let mut attempt = 0;
        loop {
            match TcpStream::connect_timeout(&self.addr, self.cfg.connect_timeout) {
                Ok(stream) => return Ok(stream),
                Err(e) if attempt >= self.cfg.retries => return Err(e),
                Err(_) => {}
            }
            std::thread::sleep(self.cfg.backoff(attempt, &mut self.rng));
            attempt += 1;
        }
    }
}

/// Sender kernel: forwards its input stream over TCP as numbered data
/// frames, ending with an EoS frame.
pub struct TcpOut<T: Wire> {
    /// `None` while disconnected: before the lazy connect, or after a
    /// socket error.
    writer: Option<BufWriter<TcpStream>>,
    /// `None` for a handed socket, which cannot be redialled.
    redial: Option<Redial>,
    /// Unacknowledged frames in sequence order — the seq/ack
    /// [`ReplayWindow`] the in-process journaled FIFOs use, over encoded
    /// frames. Unbounded (`bound == 0`): [`Self::wait_for_window`] enforces
    /// the depth, so no frame is ever force-dropped. Over a handed socket a
    /// written frame counts as acknowledged, and the window only numbers
    /// frames.
    window: ReplayWindow<Frame>,
    compress: bool,
    eos_sent: bool,
    _marker: std::marker::PhantomData<fn(T)>,
}

impl<T: Wire> TcpOut<T> {
    /// Wrap an already-connected socket: no redial, so any socket error
    /// ends the stream.
    pub(crate) fn from_stream(stream: TcpStream) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        Ok(Self::new(Some(BufWriter::new(stream)), None))
    }

    /// A sender for the [`TcpIn::bind`] listener at `addr`, resolved now and
    /// connected lazily on first use — so it can be built before the
    /// receiver listens. It reconnects and resumes per `cfg`.
    pub fn connect(addr: impl ToSocketAddrs, cfg: NetConfig) -> io::Result<Self> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or(io::ErrorKind::AddrNotAvailable)?;
        // `RandomState` keys are random per process and distinct per
        // instance: a jitter seed no other endpoint shares.
        let rng = Rng::new(RandomState::new().hash_one(addr));
        Ok(Self::new(None, Some(Redial { addr, cfg, rng })))
    }

    fn new(writer: Option<BufWriter<TcpStream>>, redial: Option<Redial>) -> Self {
        TcpOut {
            writer,
            redial,
            window: ReplayWindow::new(0),
            compress: false,
            eos_sent: false,
            _marker: std::marker::PhantomData,
        }
    }

    /// Enable per-frame LZ compression (§4.2 future work). The receiving
    /// [`TcpIn`] detects compressed frames automatically.
    pub fn compressed(mut self) -> Self {
        self.compress = true;
        self
    }

    /// Drop the current connection as if the link died. A link built from
    /// an address reconnects on its next send and resumes, losing nothing;
    /// over a handed socket the stream ends. Exists for fault-injection
    /// tests and chaos harnesses.
    pub fn break_connection(&mut self) {
        self.writer = None;
    }

    /// Encode `value` as the next data frame and put it on the wire — the
    /// one send path of both constructions.
    pub(crate) fn send(&mut self, value: &T, signal: Signal) -> io::Result<()> {
        let frame = Frame::data(self.window.next_seq(), value, signal);
        self.window.append(if self.compress {
            frame.compressed()
        } else {
            frame
        });
        self.retrying(|s| {
            let had_conn = s.writer.is_some();
            s.ensure_connected()?;
            if had_conn {
                // A fresh connection's handshake already replayed it.
                let frame = s.window.get(s.window.next_seq() - 1).expect("just queued");
                frame.write_to(s.writer.as_mut().expect("connected"))?;
            }
            Ok(())
        })?;
        if self.redial.is_none() {
            self.window.ack_all(); // a handed socket has nothing to replay
        }
        self.wait_for_window()
    }

    /// Send EoS and drain acks until every frame is acknowledged.
    pub(crate) fn finish(&mut self) -> io::Result<()> {
        self.eos_sent = true;
        self.retrying(|s| {
            let had_conn = s.writer.is_some();
            s.ensure_connected()?;
            let writer = s.writer.as_mut().expect("connected");
            if had_conn {
                // A fresh connection's handshake already replayed EoS.
                Frame::eos().write_to(writer)?;
            }
            writer.flush()?;
            while !s.window.is_empty() {
                s.read_one_ack()?;
            }
            Ok(())
        })
    }

    /// Put buffered frames on the wire — the flush-on-idle rule. A link
    /// built from an address that fails here replays them on reconnect.
    fn flush(&mut self) -> io::Result<()> {
        self.retrying(|s| s.writer.as_mut().map_or(Ok(()), Write::flush))
    }

    /// Run `step` until it succeeds, dropping the connection after each
    /// failure; give up after `retries` reconnect cycles — at once over a
    /// handed socket.
    fn retrying(&mut self, mut step: impl FnMut(&mut Self) -> io::Result<()>) -> io::Result<()> {
        let retries = self.redial.as_ref().map_or(0, |r| r.cfg.retries);
        let mut cycles = 0u32;
        loop {
            match step(self) {
                Ok(()) => return Ok(()),
                Err(e) => {
                    self.writer = None;
                    cycles += 1;
                    if cycles > retries {
                        return Err(e);
                    }
                }
            }
        }
    }

    /// Connect (with retry), run the resume handshake, and retransmit the
    /// unacknowledged suffix. No-op when connected.
    fn ensure_connected(&mut self) -> io::Result<()> {
        if self.writer.is_some() {
            return Ok(());
        }
        let redial = self.redial.as_mut().ok_or(io::ErrorKind::NotConnected)?;
        let stream = redial.connect()?;
        stream.set_nodelay(true)?;
        // The receiver leads with ResumeFrom{next expected seq}. Bound the
        // wait: a handshake is one small frame, so a timed read here can't
        // split a data frame. From here on reads happen only at blocking
        // points.
        stream.set_read_timeout(Some(redial.cfg.connect_timeout))?;
        let expected = match Frame::read_from(&mut (&stream))? {
            Some(f) if f.kind == FrameKind::ResumeFrom => f.control_seq(),
            _ => None,
        }
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no resume handshake"))?;
        stream.set_read_timeout(None)?;

        // Frames below `expected` were delivered before the link died.
        self.window.ack(expected);
        let mut writer = BufWriter::new(stream);
        for (_, f) in self.window.iter_from(expected) {
            f.write_to(&mut writer)?;
        }
        if self.eos_sent {
            Frame::eos().write_to(&mut writer)?;
        }
        writer.flush()?;
        self.writer = Some(writer);
        Ok(())
    }

    /// Block reading acks while the replay window is full — the
    /// backpressure point. Never blocks over a handed socket.
    fn wait_for_window(&mut self) -> io::Result<()> {
        let window = self.redial.as_ref().map_or(usize::MAX, |r| r.cfg.window());
        self.retrying(|s| {
            while s.window.len() >= window {
                s.ensure_connected()?;
                s.read_one_ack()?;
            }
            Ok(())
        })
    }

    /// Flush, then read one frame from the peer and absorb it if it is an
    /// ack.
    fn read_one_ack(&mut self) -> io::Result<()> {
        let writer = self.writer.as_mut().ok_or(io::ErrorKind::NotConnected)?;
        writer.flush()?;
        match Frame::read_from(writer.get_mut())? {
            Some(f) if f.kind == FrameKind::Ack => {
                let n = f.control_seq().ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidData, "malformed ack frame")
                })?;
                self.window.ack(n);
                Ok(())
            }
            Some(_) => Ok(()), // tolerate unexpected control traffic
            None => Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "peer closed before acknowledging",
            )),
        }
    }
}

impl<T: Wire> Kernel for TcpOut<T> {
    fn ports(&self) -> PortSpec {
        PortSpec::new().input::<T>("in")
    }

    fn run(&mut self, ctx: &Context) -> KStatus {
        let mut input = ctx.input::<T>("in");
        // Nothing queued behind the next element: flush before blocking on
        // the input, so the last one sent does not wait in the buffer.
        if input.occupancy() == 0 && self.flush().is_err() {
            return KStatus::Stop;
        }
        let sent = match input.pop_signal() {
            Ok((v, sig)) => {
                drop(input);
                self.send(&v, sig)
            }
            Err(_) => {
                let _ = self.finish();
                return KStatus::Stop;
            }
        };
        match sent {
            Ok(()) => KStatus::Proceed,
            Err(_) => KStatus::Stop, // receiver unreachable beyond the retry budget
        }
    }

    fn name(&self) -> String {
        "tcp-out".to_string()
    }
}

/// A receiver's listener: present only on a link built from an address.
struct Listen {
    listener: TcpListener,
    cfg: NetConfig,
    /// Elements pushed since the last ack.
    unacked: u64,
}

/// Receiver kernel: produces the stream read from a TCP socket.
pub struct TcpIn<T: Wire> {
    /// `None` while no sender is connected (links built from an address
    /// only). Acks go out through the stream inside.
    reader: Option<BufReader<TcpStream>>,
    /// `None` for a handed socket: nothing to re-accept, nothing written
    /// back.
    listen: Option<Listen>,
    /// Next sequence number to push downstream; doubles as the cumulative
    /// ack value and the resume point offered on every (re)accept.
    expected: u64,
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: Wire> TcpIn<T> {
    /// Wrap an already-connected socket: any socket error ends the stream.
    pub(crate) fn from_stream(stream: TcpStream) -> Self {
        Self::from_reader(BufReader::new(stream))
    }

    /// Wrap a handed socket's buffered reader (the remote-job path, where
    /// the job frame was already consumed from it).
    pub(crate) fn from_reader(reader: BufReader<TcpStream>) -> Self {
        Self::new(Some(reader), None)
    }

    /// Bind a listener for a [`TcpOut::connect`] sender, accepted lazily and
    /// re-accepted after every link failure: the stream resumes where the
    /// link broke.
    pub fn bind(addr: impl ToSocketAddrs, cfg: NetConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let listen = Listen {
            listener,
            cfg,
            unacked: 0,
        };
        Ok(Self::new(None, Some(listen)))
    }

    fn new(reader: Option<BufReader<TcpStream>>, listen: Option<Listen>) -> Self {
        TcpIn {
            reader,
            listen,
            expected: 0,
            _marker: std::marker::PhantomData,
        }
    }

    /// The address [`bind`](Self::bind) listens on, for [`TcpOut::connect`]
    /// (an error for a handed socket).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        let listen = self.listen.as_ref().ok_or(io::ErrorKind::Unsupported)?;
        listen.listener.local_addr()
    }

    /// The next element in sequence, `Ok(None)` at end of stream — the one
    /// receive path of both constructions.
    pub(crate) fn recv(&mut self) -> io::Result<Option<(T, Signal)>> {
        let reader = self.reader.as_mut().ok_or(io::ErrorKind::NotConnected)?;
        read_element(reader, &mut self.expected)
    }

    /// Accept a sender if none is connected, waiting up to the accept
    /// patience, then lead with the resume handshake.
    fn ensure_accepted(&mut self) -> io::Result<()> {
        let Some(listen) = self.listen.as_mut() else {
            return Ok(());
        };
        if self.reader.is_some() {
            return Ok(());
        }
        let deadline = Instant::now() + listen.cfg.accept_patience();
        loop {
            match listen.listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    stream.set_nodelay(true)?;
                    if Frame::resume_from(self.expected)
                        .write_to(&mut (&stream))
                        .is_err()
                    {
                        continue; // link died during handshake: next connect
                    }
                    listen.unacked = 0;
                    self.reader = Some(BufReader::new(stream));
                    return Ok(());
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "no sender (re)connected within the accept window",
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Count one pushed element and send the cumulative ack once a stride
    /// is owed — or at once at end of stream (`eos`). No-op over a handed
    /// socket.
    fn ack(&mut self, eos: bool) -> io::Result<()> {
        let (Some(listen), Some(reader)) = (self.listen.as_mut(), self.reader.as_mut()) else {
            return Ok(());
        };
        listen.unacked += 1;
        if !eos && listen.unacked < listen.cfg.ack_stride() {
            return Ok(());
        }
        listen.unacked = 0;
        Frame::ack(self.expected).write_to(reader.get_mut())
    }
}

impl<T: Wire> Kernel for TcpIn<T> {
    fn ports(&self) -> PortSpec {
        PortSpec::new().output::<T>("out")
    }

    fn run(&mut self, ctx: &Context) -> KStatus {
        loop {
            if self.ensure_accepted().is_err() {
                return KStatus::Stop; // sender never came back: stream ends
            }
            match self.recv() {
                Ok(Some((v, sig))) => {
                    if ctx.output::<T>("out").push_signal(v, sig).is_err() {
                        return KStatus::Stop;
                    }
                    if self.ack(false).is_err() {
                        self.reader = None;
                    }
                    return KStatus::Proceed;
                }
                Ok(None) => {
                    let _ = self.ack(true); // final cumulative ack
                    return KStatus::Stop;
                }
                // EOF, reset, gap or malformed frame: a link built from an
                // address re-accepts and resumes; a handed socket is done.
                Err(_) if self.listen.is_some() => self.reader = None,
                Err(_) => return KStatus::Stop,
            }
        }
    }

    fn name(&self) -> String {
        "tcp-in".to_string()
    }
}

/// Build a connected `TcpOut`/`TcpIn` pair over an ephemeral localhost
/// port — everything needed to cut one logical stream across two maps.
/// The pair is built from a handed socket, so it does not resume.
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
        TcpIn::from_stream(accepted),
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
    use raft_buffer::{fifo_with, FifoConfig};
    use raft_kernels::{write_each, Generate};

    fn test_cfg() -> NetConfig {
        NetConfig {
            connect_timeout: Duration::from_millis(500),
            retries: 3,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(50),
            window: 32,
        }
    }

    /// A pair built from an address: `bind` an ephemeral port, `connect`
    /// to it.
    fn resumable<T: Wire>(cfg: NetConfig) -> (TcpOut<T>, TcpIn<T>) {
        let rin = TcpIn::bind("127.0.0.1:0", cfg.clone()).unwrap();
        let rout = TcpOut::connect(rin.local_addr().unwrap(), cfg).unwrap();
        (rout, rin)
    }

    /// Run `tcp_out` in "node A" fed by `items` and `tcp_in` in "node B",
    /// each map on its own thread; what node B received.
    fn cross<T: Wire>(tcp_out: TcpOut<T>, tcp_in: TcpIn<T>, items: Vec<T>) -> Vec<T> {
        let node_a = std::thread::spawn(move || {
            let mut map = RaftMap::new();
            let src = map.add(Generate::new(items));
            let out = map.add(tcp_out);
            map.link(src, "out", out, "in").unwrap();
            map.exe().unwrap();
        });
        let mut map = RaftMap::new();
        let src = map.add(tcp_in);
        let (we, handle) = write_each::<T>();
        let dst = map.add(we);
        map.link(src, "out", dst, "in").unwrap();
        map.exe().unwrap();
        node_a.join().unwrap();
        let got = handle.lock().unwrap().clone();
        got
    }

    /// A pipeline cut across two maps in two threads: numbers generated in
    /// "node A" arrive in "node B" in order.
    #[test]
    fn stream_crosses_tcp_in_order() {
        let (tcp_out, tcp_in) = tcp_bridge::<u64>().unwrap();
        let got = cross(tcp_out, tcp_in, (0..10_000).collect());
        assert_eq!(got, (0..10_000).collect::<Vec<u64>>());
    }

    /// Same crossing, with per-frame compression enabled on the sender;
    /// the receiver auto-detects. Strings repeat heavily, so frames shrink.
    #[test]
    fn compressed_stream_crosses_tcp() {
        let (tcp_out, tcp_in) = tcp_bridge::<String>().unwrap();
        let items = (0..2_000u32)
            .map(|i| format!("raftlib stream element {} padding padding padding", i % 7))
            .collect();
        let got = cross(tcp_out.compressed(), tcp_in, items);
        assert_eq!(got.len(), 2000);
        assert_eq!(got[8], "raftlib stream element 1 padding padding padding");
    }

    #[test]
    fn signals_survive_the_hop() {
        let (mut tcp_out, mut tcp_in) = tcp_bridge::<u32>().unwrap();
        // Drive the kernels directly with hand-built FIFOs.
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

    /// End-to-end across two maps over a link built from an address, with a
    /// small window, so the blocking-ack backpressure path runs constantly.
    #[test]
    fn resumable_stream_end_to_end_in_order() {
        let (rout, rin) = resumable::<u64>(test_cfg());
        let got = cross(rout, rin, (0..5_000).collect());
        assert_eq!(got, (0..5_000).collect::<Vec<u64>>());
    }

    /// Kill the link twice mid-stream: the sender reconnects, the resume
    /// handshake trims the replay, and every element arrives exactly once,
    /// in order, with its signal intact.
    fn resumes_exactly_once(compress: bool) {
        let (mut rout, mut rin) = resumable::<u64>(test_cfg());
        if compress {
            rout = rout.compressed();
        }
        let (_fin, mut producer, consumer) = fifo_with::<u64>(FifoConfig::starting_at(2048));
        for i in 0..1_000u64 {
            let sig = if i == 999 { Signal::EoS } else { Signal::None };
            producer.try_push_signal(i, sig).unwrap();
        }
        producer.close();

        let sender = std::thread::spawn(move || {
            let ctx = test_ctx_in(consumer);
            let mut sent = 0u32;
            loop {
                if sent == 250 || sent == 700 {
                    rout.break_connection();
                }
                if rout.run(&ctx) != KStatus::Proceed {
                    break;
                }
                sent += 1;
            }
        });

        let (fout, out_producer, mut out_consumer) =
            fifo_with::<u64>(FifoConfig::starting_at(2048));
        let receiver = std::thread::spawn(move || {
            let ctx = test_ctx_out(out_producer);
            while rin.run(&ctx) == KStatus::Proceed {}
        });

        sender.join().unwrap();
        receiver.join().unwrap();
        let _ = fout;
        for i in 0..1_000u64 {
            let (v, sig) = out_consumer.try_pop_signal().unwrap();
            assert_eq!(v, i);
            assert_eq!(sig, if i == 999 { Signal::EoS } else { Signal::None });
        }
        assert!(out_consumer.try_pop_signal().is_err(), "duplicates arrived");
    }

    #[test]
    fn reconnect_resumes_exactly_once() {
        resumes_exactly_once(false);
    }

    /// Compressed frames sit in the replay window as sent and are replayed
    /// as they are: compression and resume compose.
    #[test]
    fn compressed_reconnect_resumes_exactly_once() {
        resumes_exactly_once(true);
    }

    /// A sender pointed at a dead port gives up after its retry budget —
    /// bounded time, no hang — and ends the stream.
    #[test]
    fn connect_to_dead_port_fails_bounded() {
        let cfg = NetConfig {
            connect_timeout: Duration::from_millis(200),
            retries: 1,
            base_backoff: Duration::from_millis(1),
            ..NetConfig::default()
        };
        // Grab an ephemeral port, then free it: nothing listens there.
        let dead = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = dead.local_addr().unwrap();
        drop(dead);

        let t0 = Instant::now();
        let mut out = TcpOut::<u64>::connect(addr, cfg).unwrap();
        assert!(out.send(&1, Signal::None).is_err());
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "retry schedule unbounded: {:?}",
            t0.elapsed()
        );
    }

    /// Every delay is `b = min(base * 2^attempt, max_backoff)` plus at most
    /// a quarter of `b`, and two senders built from one config draw
    /// different jitter — the herd the jitter exists to break up.
    #[test]
    fn backoff_is_capped_and_jittered_per_endpoint() {
        let cfg = NetConfig {
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(80),
            ..NetConfig::default()
        };
        let schedule = || {
            let out = TcpOut::<u64>::connect("127.0.0.1:9", cfg.clone()).unwrap();
            let mut r = out.redial.expect("built from an address");
            (0..8u32)
                .map(|a| (a, r.cfg.backoff(a, &mut r.rng)))
                .collect::<Vec<_>>()
        };
        let (one, two) = (schedule(), schedule());
        assert_ne!(one, two, "two senders share a jitter stream");
        for (a, d) in one.into_iter().chain(two) {
            let b = Duration::from_millis(10 << a).min(Duration::from_millis(80));
            assert!(
                b <= d && d <= b + b / 4,
                "attempt {a}: {d:?} outside [{b:?}, 1.25 b]"
            );
        }
    }

    /// An element pushed into an idle sender leaves at once, not when the
    /// socket buffer fills or the stream ends: three elements pushed 1 s
    /// apart each arrive within 500 ms of their push, over either
    /// construction.
    #[test]
    fn idle_sender_flushes_each_element() {
        fn paced(tcp_out: TcpOut<u64>, tcp_in: TcpIn<u64>) -> std::thread::JoinHandle<()> {
            std::thread::spawn(move || {
                let (pushed, arrived) = (std::sync::mpsc::channel(), std::sync::mpsc::channel());
                let node_a = std::thread::spawn(move || {
                    let mut map = RaftMap::new();
                    let mut next = 0u64;
                    let src = map.add(raftlib::lambda_source(move || {
                        if next == 3 {
                            return None;
                        }
                        if next > 0 {
                            std::thread::sleep(Duration::from_secs(1));
                        }
                        pushed.0.send(Instant::now()).unwrap();
                        next += 1;
                        Some(next)
                    }));
                    let out = map.add(tcp_out);
                    map.link(src, "0", out, "in").unwrap();
                    map.exe().unwrap();
                });
                let mut map = RaftMap::new();
                let src = map.add(tcp_in);
                let sink = map.add(raftlib::lambda_sink(move |_: u64| {
                    arrived.0.send(Instant::now()).unwrap();
                }));
                map.link(src, "out", sink, "0").unwrap();
                map.exe().unwrap();
                node_a.join().unwrap();
                let late: Vec<Duration> = (pushed.1.try_iter().zip(arrived.1.try_iter()))
                    .map(|(p, a)| a - p)
                    .collect();
                assert_eq!(late.len(), 3);
                assert!(
                    late.iter().all(|d| *d < Duration::from_millis(500)),
                    "{late:?}"
                );
            })
        }
        let bridged = tcp_bridge::<u64>().unwrap();
        let bridged = paced(bridged.0, bridged.1);
        let (rout, rin) = resumable::<u64>(NetConfig::default());
        paced(rout, rin).join().unwrap();
        bridged.join().unwrap();
    }

    // Small helpers constructing single-port contexts for direct kernel
    // driving (unit-test only; applications go through RaftMap).
    fn test_ctx_in<T: Send + 'static>(c: raft_buffer::Consumer<T>) -> Context {
        Context::for_test(vec![("in".to_string(), Box::new(c) as _)], vec![])
    }

    fn test_ctx_out<T: Send + 'static>(p: raft_buffer::Producer<T>) -> Context {
        Context::for_test(vec![], vec![("out".to_string(), Box::new(p) as _)])
    }
}
