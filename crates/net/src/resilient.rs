//! Resilient TCP stream links: timeouts, bounded reconnect, and
//! transparent resume.
//!
//! The plain [`link`](crate::link) kernels treat any socket error as end
//! of stream — fine on a workstation, fatal across a real network where
//! links flap. This module upgrades the hop with the robustness story:
//!
//! * every connect carries a timeout and a bounded retry schedule with
//!   exponential backoff and deterministic jitter ([`connect_with_retry`]);
//! * data frames are sequence-numbered ([`FrameKind::SeqData`]); the
//!   sender keeps every un-acknowledged frame in a bounded replay buffer
//!   and the receiver acknowledges cumulatively every `ack_every` frames;
//! * on reconnect the receiver leads with a
//!   [`ResumeFrom`](FrameKind::ResumeFrom) handshake naming the next
//!   sequence it expects; the sender trims its replay buffer to that point
//!   and retransmits the rest — the stream resumes *exactly once, in
//!   order*, with no application involvement;
//! * the replay buffer doubles as flow control: when it reaches
//!   `window` frames the sender blocks reading acks, so a dead or slow
//!   receiver applies backpressure instead of unbounded buffering.
//!
//! Acks are only read at blocking points (window full, final drain), never
//! under a read timeout mid-frame — a short read inside a frame would
//! desynchronize the framing, so the protocol is designed to avoid timed
//! reads entirely once a connection is up.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use raft_buffer::ReplayWindow;
use raft_rng::Rng;
use raftlib::prelude::*;

use crate::frame::{Frame, FrameKind};
use crate::wire::Wire;

/// Connection policy for resilient links (and [`TcpOut::connect_with`]
/// (crate::link::TcpOut::connect_with)).
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Per-attempt connect timeout.
    pub connect_timeout: Duration,
    /// Socket read timeout applied by [`connect_with_retry`]. Resilient
    /// links override this to blocking after the resume handshake.
    pub read_timeout: Option<Duration>,
    /// Socket write timeout applied to outbound connections.
    pub write_timeout: Option<Duration>,
    /// How many times to retry a failed connect (and how many reconnect
    /// cycles a resilient sender attempts before giving up).
    pub retries: u32,
    /// First retry delay; doubles per attempt.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Add a deterministic pseudo-random 0–25% to each backoff so herds of
    /// reconnecting senders don't synchronize.
    pub jitter: bool,
    /// The receiver acknowledges cumulatively every `ack_every` frames.
    pub ack_every: u64,
    /// Replay-buffer bound; the sender blocks for acks at this depth.
    /// Clamped to at least `ack_every + 1` so an ack is always owed before
    /// the sender can block.
    pub window: usize,
    /// Seed for the jitter stream — same seed, same backoff schedule.
    pub seed: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            connect_timeout: Duration::from_secs(5),
            read_timeout: None,
            write_timeout: None,
            retries: 5,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            jitter: true,
            ack_every: 32,
            window: 128,
            seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl NetConfig {
    /// The replay-buffer bound actually used: `window`, but never at or
    /// below `ack_every` (which could block waiting for an ack the
    /// receiver will never owe).
    fn effective_window(&self) -> usize {
        self.window.max(self.ack_every as usize + 1)
    }

    /// How long a receiver waits for a sender to (re)connect before
    /// treating the stream as ended: the full connect-retry horizon plus
    /// one backoff ceiling of slack.
    fn accept_patience(&self) -> Duration {
        self.connect_timeout
            .saturating_mul(self.retries + 1)
            .saturating_add(self.max_backoff)
    }

    /// Backoff before retry `attempt` (0-based): `base * 2^attempt` capped
    /// at `max_backoff`, plus 0–25% deterministic jitter from `rng`.
    fn backoff_for(&self, attempt: u32, rng: &mut Rng) -> Duration {
        let d = self
            .base_backoff
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.max_backoff);
        if !self.jitter || d.is_zero() {
            return d;
        }
        let span = (d.as_nanos() / 4).max(1) as u64;
        d + Duration::from_nanos(rng.range(0..span))
    }
}

/// Connect with per-attempt timeout and bounded retry per [`NetConfig`]:
/// `retries + 1` total attempts across all resolved addresses, exponential
/// backoff with deterministic jitter between rounds. The returned socket
/// has nodelay set and the config's read/write timeouts applied.
pub fn connect_with_retry(addr: impl ToSocketAddrs, cfg: &NetConfig) -> io::Result<TcpStream> {
    let mut rng = Rng::new(cfg.seed);
    connect_with_retry_seeded(addr, cfg, &mut rng)
}

fn connect_with_retry_seeded(
    addr: impl ToSocketAddrs,
    cfg: &NetConfig,
    rng: &mut Rng,
) -> io::Result<TcpStream> {
    let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
    if addrs.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::AddrNotAvailable,
            "address resolved to nothing",
        ));
    }
    let mut last_err = None;
    for attempt in 0..=cfg.retries {
        for a in &addrs {
            match TcpStream::connect_timeout(a, cfg.connect_timeout) {
                Ok(s) => {
                    s.set_nodelay(true)?;
                    s.set_read_timeout(cfg.read_timeout)?;
                    s.set_write_timeout(cfg.write_timeout)?;
                    return Ok(s);
                }
                Err(e) => last_err = Some(e),
            }
        }
        if attempt < cfg.retries {
            std::thread::sleep(cfg.backoff_for(attempt, rng));
        }
    }
    Err(last_err.expect("at least one attempt was made"))
}

/// Sink-side resilient kernel: forwards its input stream over TCP with
/// sequence numbers, a replay buffer, and transparent reconnect-and-resume.
///
/// Connects lazily on first use, so it can be constructed before the
/// receiver is listening (the connect retry schedule absorbs the race).
pub struct ResilientTcpOut<T: Wire> {
    addr: SocketAddr,
    cfg: NetConfig,
    writer: Option<BufWriter<TcpStream>>,
    /// Un-acknowledged frames in sequence order — the same seq/ack
    /// [`ReplayWindow`] the in-process journaled FIFOs use
    /// (`raft_buffer::journal`), instantiated over encoded frames.
    /// Unbounded here (`bound == 0`): [`Self::wait_for_window`] enforces
    /// the flow-control depth instead, so no frame is ever force-dropped.
    window: ReplayWindow<Frame>,
    rng: Rng,
    eos_sent: bool,
    _marker: std::marker::PhantomData<fn(T)>,
}

impl<T: Wire> ResilientTcpOut<T> {
    /// Create a sender for `addr` (resolved now, connected lazily).
    pub fn new(addr: impl ToSocketAddrs, cfg: NetConfig) -> io::Result<Self> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::AddrNotAvailable, "no address"))?;
        Ok(ResilientTcpOut {
            addr,
            rng: Rng::new(cfg.seed ^ 0x6C62_272E_07BB_0142),
            cfg,
            writer: None,
            window: ReplayWindow::new(0),
            eos_sent: false,
            _marker: std::marker::PhantomData,
        })
    }

    /// Drop the current connection as if the link died. The next send
    /// reconnects and resumes; no data is lost. Exists for fault-injection
    /// tests and chaos harnesses.
    pub fn break_connection(&mut self) {
        self.writer = None;
    }

    /// Connect (with retry), run the resume handshake, and retransmit the
    /// outstanding replay suffix. No-op when already connected.
    fn ensure_connected(&mut self) -> io::Result<()> {
        if self.writer.is_some() {
            return Ok(());
        }
        let stream = connect_with_retry_seeded(self.addr, &self.cfg, &mut self.rng)?;
        // The receiver leads with ResumeFrom{next expected seq}. Bound the
        // wait: a handshake is one small frame, so a timed read here can't
        // split a data frame.
        stream.set_read_timeout(Some(self.cfg.connect_timeout))?;
        let resume = match Frame::read_from(&mut (&stream))? {
            Some(f) if f.kind == FrameKind::ResumeFrom => f,
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "peer did not send a resume handshake",
                ))
            }
        };
        let expected = resume
            .control_seq()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed resume frame"))?;
        // From here on reads happen only at blocking points.
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

    /// Put `frame` (already appended to the replay buffer) on the wire,
    /// reconnecting up to `retries` times. A fresh connection's handshake
    /// already retransmitted it as part of the replay suffix.
    fn transmit(&mut self) -> io::Result<()> {
        let mut cycles = 0u32;
        loop {
            let had_conn = self.writer.is_some();
            let step = (|| -> io::Result<()> {
                self.ensure_connected()?;
                if had_conn {
                    let last = self.window.next_seq() - 1;
                    let frame = self.window.get(last).expect("frame just queued");
                    frame.write_to(self.writer.as_mut().expect("connected"))?;
                }
                Ok(())
            })();
            match step {
                Ok(()) => return Ok(()),
                Err(e) => {
                    self.writer = None;
                    cycles += 1;
                    if cycles > self.cfg.retries {
                        return Err(e);
                    }
                }
            }
        }
    }

    /// Release replay entries the cumulative ack `next_expected` covers.
    fn absorb_ack(&mut self, next_expected: u64) {
        self.window.ack(next_expected);
    }

    /// Read one frame from the peer (flushing first) and absorb it if it
    /// is an ack. Requires a live connection.
    fn read_one_ack(&mut self) -> io::Result<()> {
        let writer = self.writer.as_mut().expect("connected");
        writer.flush()?;
        match Frame::read_from(writer.get_mut())? {
            Some(f) if f.kind == FrameKind::Ack => {
                let n = f.control_seq().ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidData, "malformed ack frame")
                })?;
                self.absorb_ack(n);
                Ok(())
            }
            Some(_) => Ok(()), // tolerate unexpected control traffic
            None => Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "peer closed before acknowledging",
            )),
        }
    }

    /// Block reading acks while the replay buffer is at the window bound —
    /// the backpressure point. Reconnects (which itself advances `acked`
    /// via the handshake) up to `retries` times.
    fn wait_for_window(&mut self) -> io::Result<()> {
        let window = self.cfg.effective_window();
        let mut cycles = 0u32;
        while self.window.len() >= window {
            let step = self.ensure_connected().and_then(|()| self.read_one_ack());
            if let Err(e) = step {
                self.writer = None;
                cycles += 1;
                if cycles > self.cfg.retries {
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// Send EoS and drain acks until every frame is acknowledged.
    fn finish(&mut self) -> io::Result<()> {
        self.eos_sent = true;
        let mut cycles = 0u32;
        loop {
            match self.finish_once() {
                Ok(()) => return Ok(()),
                Err(e) => {
                    self.writer = None;
                    cycles += 1;
                    if cycles > self.cfg.retries {
                        return Err(e);
                    }
                }
            }
        }
    }

    fn finish_once(&mut self) -> io::Result<()> {
        let had_conn = self.writer.is_some();
        self.ensure_connected()?;
        if had_conn {
            // Fresh connections already got EoS from the handshake replay.
            let writer = self.writer.as_mut().expect("connected");
            Frame::eos().write_to(writer)?;
            writer.flush()?;
        }
        while !self.window.is_empty() {
            self.read_one_ack()?;
        }
        Ok(())
    }
}

impl<T: Wire> Kernel for ResilientTcpOut<T> {
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
                let seq = self.window.next_seq();
                self.window.append(Frame::seq_data(seq, &buf, sig));
                if self.transmit().is_err() || self.wait_for_window().is_err() {
                    return KStatus::Stop; // receiver unreachable beyond retry budget
                }
                KStatus::Proceed
            }
            Err(_) => {
                let _ = self.finish();
                KStatus::Stop
            }
        }
    }

    fn name(&self) -> String {
        "resilient-tcp-out".to_string()
    }
}

/// Source-side resilient kernel: accepts a sender (re)connecting any
/// number of times, deduplicates by sequence number, and acknowledges
/// cumulatively.
pub struct ResilientTcpIn<T: Wire> {
    listener: TcpListener,
    cfg: NetConfig,
    reader: Option<BufReader<TcpStream>>,
    writer: Option<TcpStream>,
    /// Next sequence number to push downstream; doubles as the cumulative
    /// ack value and the resume point offered on every (re)accept.
    expected: u64,
    unacked: u64,
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: Wire> ResilientTcpIn<T> {
    /// Bind a listener; the sender is accepted lazily (and re-accepted
    /// after every link failure).
    pub fn bind(addr: impl ToSocketAddrs, cfg: NetConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(ResilientTcpIn {
            listener,
            cfg,
            reader: None,
            writer: None,
            expected: 0,
            unacked: 0,
            _marker: std::marker::PhantomData,
        })
    }

    /// The bound address (for handing to [`ResilientTcpOut::new`]).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accept a sender if none is connected, waiting up to the accept
    /// patience window, then lead with the resume handshake.
    fn ensure_accepted(&mut self) -> io::Result<()> {
        if self.reader.is_some() {
            return Ok(());
        }
        let deadline = Instant::now() + self.cfg.accept_patience();
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    stream.set_nodelay(true)?;
                    let Ok(mut writer) = stream.try_clone() else {
                        continue;
                    };
                    if Frame::resume_from(self.expected)
                        .write_to(&mut writer)
                        .is_err()
                    {
                        continue; // link died during handshake: next connect
                    }
                    self.reader = Some(BufReader::new(stream));
                    self.writer = Some(writer);
                    self.unacked = 0;
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

    fn drop_conn(&mut self) {
        self.reader = None;
        self.writer = None;
    }

    fn send_ack(&mut self) -> io::Result<()> {
        let writer = self
            .writer
            .as_mut()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "no sender"))?;
        Frame::ack(self.expected).write_to(writer)?;
        self.unacked = 0;
        Ok(())
    }
}

impl<T: Wire> Kernel for ResilientTcpIn<T> {
    fn ports(&self) -> PortSpec {
        PortSpec::new().output::<T>("out")
    }

    fn run(&mut self, ctx: &Context) -> KStatus {
        loop {
            if self.ensure_accepted().is_err() {
                return KStatus::Stop; // sender never came back: stream ends
            }
            let frame = Frame::read_from(self.reader.as_mut().expect("accepted"));
            match frame {
                Ok(Some(f)) if f.kind == FrameKind::Eos => {
                    let _ = self.send_ack(); // final cumulative ack
                    return KStatus::Stop;
                }
                Ok(Some(f))
                    if matches!(f.kind, FrameKind::SeqData | FrameKind::SeqDataWithSignal) =>
                {
                    let Some((seq, mut payload, sig)) = f.as_seq_data() else {
                        self.drop_conn(); // malformed: force re-handshake
                        continue;
                    };
                    if seq < self.expected {
                        continue; // replayed duplicate: already delivered
                    }
                    if seq > self.expected {
                        self.drop_conn(); // hole in the sequence: resync
                        continue;
                    }
                    let Some(v) = T::decode(&mut payload) else {
                        return KStatus::Stop; // malformed element
                    };
                    let mut out = ctx.output::<T>("out");
                    if out.push_signal(v, sig).is_err() {
                        return KStatus::Stop;
                    }
                    drop(out);
                    self.expected += 1;
                    self.unacked += 1;
                    if self.unacked >= self.cfg.ack_every && self.send_ack().is_err() {
                        self.drop_conn();
                    }
                    return KStatus::Proceed;
                }
                Ok(Some(_)) | Ok(None) | Err(_) => {
                    // Protocol violation, clean EOF without EoS, or a read
                    // error: the link died. Re-accept and resume.
                    self.drop_conn();
                }
            }
        }
    }

    fn name(&self) -> String {
        "resilient-tcp-in".to_string()
    }
}

/// Build a connected resilient pair over an ephemeral localhost listener.
/// No handshake happens here — the sender connects lazily on first send,
/// so either side may start executing first.
pub fn resilient_bridge<T: Wire>(
    cfg: NetConfig,
) -> io::Result<(ResilientTcpOut<T>, ResilientTcpIn<T>)> {
    let rin = ResilientTcpIn::bind("127.0.0.1:0", cfg.clone())?;
    let rout = ResilientTcpOut::new(rin.local_addr()?, cfg)?;
    Ok((rout, rin))
}

#[cfg(test)]
mod tests {
    use super::*;
    use raft_kernels::{write_each, Generate};

    fn test_cfg() -> NetConfig {
        NetConfig {
            connect_timeout: Duration::from_millis(500),
            retries: 3,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(50),
            ack_every: 8,
            window: 32,
            ..NetConfig::default()
        }
    }

    /// End-to-end across two maps: small ack window, so the blocking-ack
    /// backpressure path runs constantly.
    #[test]
    fn resilient_stream_end_to_end_in_order() {
        let (rout, rin) = resilient_bridge::<u64>(test_cfg()).unwrap();

        let node_a = std::thread::spawn(move || {
            let mut map = RaftMap::new();
            let src = map.add(Generate::new(0..5_000u64));
            let out = map.add(rout);
            map.link(src, "out", out, "in").unwrap();
            map.exe().unwrap();
        });
        let node_b = std::thread::spawn(move || {
            let mut map = RaftMap::new();
            let src = map.add(rin);
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
        assert_eq!(got, (0..5_000).collect::<Vec<u64>>());
    }

    /// Kill the link twice mid-stream: the sender reconnects, the resume
    /// handshake trims the replay, and every element arrives exactly once,
    /// in order, with its signal intact.
    #[test]
    fn reconnect_resumes_exactly_once() {
        use raft_buffer::{fifo_with, FifoConfig, Signal};

        let (mut rout, mut rin) = resilient_bridge::<u64>(test_cfg()).unwrap();

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

    /// A sender pointed at a dead port gives up after its retry budget —
    /// bounded time, no hang — and ends the stream.
    #[test]
    fn connect_to_dead_port_fails_bounded() {
        let cfg = NetConfig {
            connect_timeout: Duration::from_millis(200),
            retries: 1,
            base_backoff: Duration::from_millis(1),
            jitter: false,
            ..NetConfig::default()
        };
        // Grab an ephemeral port, then free it: nothing listens there.
        let dead = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = dead.local_addr().unwrap();
        drop(dead);

        let t0 = Instant::now();
        let err = connect_with_retry(addr, &cfg);
        assert!(err.is_err());
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "retry schedule unbounded: {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_capped() {
        let cfg = NetConfig {
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(80),
            jitter: true,
            ..NetConfig::default()
        };
        let schedule = |seed: u64| {
            let mut rng = Rng::new(seed);
            (0..8)
                .map(|a| cfg.backoff_for(a, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(schedule(1), schedule(1));
        for d in schedule(1) {
            assert!(d <= Duration::from_millis(100)); // cap + 25% jitter
        }
        // without jitter the schedule is the pure exponential
        let plain = NetConfig {
            jitter: false,
            ..cfg.clone()
        };
        let mut rng = Rng::new(1);
        assert_eq!(plain.backoff_for(0, &mut rng), Duration::from_millis(10));
        assert_eq!(plain.backoff_for(2, &mut rng), Duration::from_millis(40));
        assert_eq!(plain.backoff_for(6, &mut rng), Duration::from_millis(80));
    }

    // Single-port contexts for direct kernel driving (mirrors link.rs).
    fn test_ctx_in<T: Send + 'static>(c: raft_buffer::Consumer<T>) -> Context {
        let fifo: std::sync::Arc<dyn raft_buffer::fifo::Monitorable> =
            std::sync::Arc::new(c.fifo());
        Context::for_test(vec![("in".to_string(), Box::new(c) as _, fifo)], vec![])
    }

    fn test_ctx_out<T: Send + 'static>(p: raft_buffer::Producer<T>) -> Context {
        Context::for_test(vec![], vec![("out".to_string(), Box::new(p) as _)])
    }
}
