//! Remote kernel execution — the half of "oar" (§4.1) reproduced here: "The 'oar'
//! system also provides a means to remotely compile and execute kernels so
//! that a user can have a simple compile and forget experience."
//!
//! Rust has no remote *compilation*, so the substitution (DESIGN.md §4) is
//! a **named-kernel registry**: a worker node registers kernel factories
//! under names; a client submits a job naming a chain of kernels, then
//! streams its data over the same socket; the worker assembles a local
//! `RaftMap` — socket-in → named kernels → socket-out — runs it, and the
//! results stream back. The client-side [`RemoteStage`] is itself a kernel,
//! so "run this stage remotely" is just another `map.add(...)`.
//!
//! Protocol on one TCP connection:
//!
//! ```text
//! client → worker : Job frame (kernel names, wire-encoded Vec<String>)
//! client → worker : Data frames …, Eos
//! worker → client : Data frames …, Eos
//! ```
//!
//! Both directions share the socket, so both ends are
//! [`link`](crate::link) endpoints over a handed socket: they never resume,
//! and neither writes acks into the other's stream.
//!
//! Workers are typed (`RemoteWorker<T>`): one registry per element type,
//! matching the link-type checking discipline of the rest of the system.

use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;

use raft_buffer::Signal;
use raftlib::prelude::*;

use crate::frame::{Frame, FrameKind};
use crate::link::{TcpIn, TcpOut};
use crate::wire::Wire;

/// Factory producing a fresh kernel instance per job.
type KernelFactory = Box<dyn Fn() -> Box<dyn Kernel> + Send + Sync>;

/// Named kernel factories available on a worker.
#[derive(Default)]
pub struct KernelRegistry {
    factories: HashMap<String, KernelFactory>,
}

impl KernelRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `name` → `factory`. Kernels must be single-input,
    /// single-output with element type `T` on both sides (checked at job
    /// link time, failures abort the job).
    pub fn register<F, K>(&mut self, name: impl Into<String>, factory: F)
    where
        F: Fn() -> K + Send + Sync + 'static,
        K: Kernel,
    {
        self.factories
            .insert(name.into(), Box::new(move || Box::new(factory())));
    }

    /// Names currently registered.
    pub fn names(&self) -> Vec<String> {
        self.factories.keys().cloned().collect()
    }

    fn build(&self, name: &str) -> Option<Box<dyn Kernel>> {
        self.factories.get(name).map(|f| f())
    }
}

/// A worker node executing jobs of element type `T`.
pub struct RemoteWorker<T: Wire> {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    _marker: std::marker::PhantomData<fn(T)>,
}

impl<T: Wire> RemoteWorker<T> {
    /// Start serving jobs on `addr` (use port 0 for ephemeral).
    pub fn serve(addr: &str, registry: KernelRegistry) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let registry = Arc::new(registry);
        let accept_thread = std::thread::Builder::new()
            .name("oar-worker".into())
            .spawn(move || {
                let mut jobs = Vec::new();
                while !stop2.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            stream.set_nonblocking(false).ok();
                            let registry = registry.clone();
                            jobs.push(std::thread::spawn(move || {
                                let _ = run_job::<T>(stream, &registry);
                            }));
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            std::thread::sleep(std::time::Duration::from_millis(5));
                        }
                        Err(_) => break,
                    }
                }
                for j in jobs {
                    let _ = j.join();
                }
            })?;
        Ok(RemoteWorker {
            addr: local,
            stop,
            accept_thread: Some(accept_thread),
            _marker: std::marker::PhantomData,
        })
    }

    /// The worker's address, for clients.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl<T: Wire> Drop for RemoteWorker<T> {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Worker side of one job: read the spec, build socket-in → kernels →
/// socket-out, execute.
fn run_job<T: Wire>(stream: TcpStream, registry: &KernelRegistry) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let job = match Frame::read_from(&mut reader)? {
        Some(f) if f.kind == FrameKind::Job => f,
        _ => return Err(io::Error::new(io::ErrorKind::InvalidData, "expected job")),
    };
    let names = Vec::<String>::decode(&mut &job.payload[..])
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad job spec"))?;

    let mut map = RaftMap::new();
    // The buffered reader has consumed only the job frame: the receiver
    // takes it over, so nothing it already buffered is lost.
    let src = map.add(TcpIn::<T>::from_reader(reader));
    let mut prev = src;
    for name in &names {
        let Some(kernel) = registry.build(name) else {
            // Unknown kernel: report by closing immediately with Eos.
            let mut w = BufWriter::new(stream);
            let _ = Frame::eos().write_to(&mut w);
            let _ = w.flush();
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no kernel named {name:?}"),
            ));
        };
        let k = map.add_boxed(kernel);
        if map.connect(prev, k).is_err() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("kernel {name:?} is not chainable"),
            ));
        }
        prev = k;
    }
    let out = map.add(TcpOut::<T>::from_stream(stream)?);
    map.connect(prev, out)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    map.exe().map_err(|e| io::Error::other(e.to_string()))?;
    Ok(())
}

/// The job-submission frame naming `kernels`, applied in order.
fn job_frame(kernels: &[&str]) -> Frame {
    let names: Vec<String> = kernels.iter().map(|s| s.to_string()).collect();
    let mut payload = Vec::new();
    names.encode(&mut payload);
    Frame {
        kind: FrameKind::Job,
        payload,
    }
}

/// Connect to `worker`, submit a job running `kernels`, and hand the job
/// socket to a sender and a receiver (plus the socket itself). It carries
/// both directions, so neither end may resume: the receiver must not
/// write acks into the sender's stream.
fn submit<T: Wire>(
    worker: SocketAddr,
    kernels: &[&str],
) -> io::Result<(TcpOut<T>, TcpIn<T>, TcpStream)> {
    let stream = TcpStream::connect(worker)?;
    stream.set_nodelay(true)?;
    let mut w = BufWriter::new(&stream);
    job_frame(kernels).write_to(&mut w)?;
    w.flush()?;
    drop(w);
    let sender = TcpOut::from_stream(stream.try_clone()?)?;
    Ok((sender, TcpIn::from_stream(stream.try_clone()?), stream))
}

/// Results a [`RemoteStage`] may hold decoded ahead of its output port.
const RESULTS_AHEAD: usize = 1024;

/// Client-side kernel: ships its input stream to a worker, which runs the
/// named kernel chain and streams results back on this kernel's output —
/// remote execution as a drop-in pipeline stage.
pub struct RemoteStage<T: Wire> {
    /// `None` once the local input ended and EoS went out.
    sender: Option<TcpOut<T>>,
    /// Results in stream order, read off the socket by a thread of their
    /// own: a send blocked on a full socket must never wait for this
    /// kernel to read the results queued behind it — with both sides
    /// blocked in `write`, a long stream wedges (`remote_apply` avoids the
    /// same deadlock with a writer thread).
    results: Receiver<(T, Signal)>,
    reader: Option<std::thread::JoinHandle<()>>,
    /// The job socket, shut down on drop so the reader thread ends with
    /// the stage and the worker sees the stream end.
    socket: TcpStream,
}

impl<T: Wire> RemoteStage<T> {
    /// Connect to `worker` and submit a job running `kernels` (registered
    /// names, applied in order).
    pub fn connect(worker: SocketAddr, kernels: &[&str]) -> io::Result<Self> {
        let (sender, mut receiver, socket) = submit::<T>(worker, kernels)?;
        let (tx, results) = mpsc::sync_channel(RESULTS_AHEAD);
        let reader = std::thread::Builder::new()
            .name("remote-stage-rx".into())
            .spawn(move || {
                while let Ok(Some(item)) = receiver.recv() {
                    if tx.send(item).is_err() {
                        break;
                    }
                }
            })?;
        Ok(RemoteStage {
            sender: Some(sender),
            results,
            reader: Some(reader),
            socket,
        })
    }
}

impl<T: Wire> Kernel for RemoteStage<T> {
    fn ports(&self) -> PortSpec {
        PortSpec::new().input::<T>("in").output::<T>("out")
    }

    fn run(&mut self, ctx: &Context) -> KStatus {
        // Deliver every result that has arrived before anything can block
        // on a send.
        let mut out = ctx.output::<T>("out");
        while let Ok((v, sig)) = self.results.try_recv() {
            if out.push_signal(v, sig).is_err() {
                return KStatus::Stop;
            }
        }
        drop(out);
        if let Some(sender) = self.sender.as_mut() {
            if sender.run(ctx) == KStatus::Proceed {
                return KStatus::Proceed;
            }
            self.sender = None; // input ended: only results remain
        }
        let delivered = self
            .results
            .recv()
            .is_ok_and(|(v, sig)| ctx.output::<T>("out").push_signal(v, sig).is_ok());
        if delivered {
            KStatus::Proceed
        } else {
            KStatus::Stop
        }
    }

    fn name(&self) -> String {
        "remote-stage".to_string()
    }
}

impl<T: Wire> Drop for RemoteStage<T> {
    fn drop(&mut self) {
        // The reader ends at the socket's end, once what it already read
        // is drained.
        let _ = self.socket.shutdown(Shutdown::Both);
        while self.results.recv().is_ok() {}
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// Submit a whole `Vec` through a remote kernel chain and collect the
/// results — the "compile and forget" convenience path.
pub fn remote_apply<T: Wire>(
    worker: SocketAddr,
    kernels: &[&str],
    data: Vec<T>,
) -> io::Result<Vec<T>> {
    let (mut sender, mut receiver, _socket) = submit::<T>(worker, kernels)?;
    // Write from a separate thread so a long result stream cannot deadlock
    // against a long input stream on full socket buffers.
    let writer = std::thread::spawn(move || -> io::Result<()> {
        for v in &data {
            sender.send(v, Signal::None)?;
        }
        sender.finish()
    });
    let mut out = Vec::new();
    while let Some((v, _)) = receiver.recv()? {
        out.push(v);
    }
    writer
        .join()
        .map_err(|_| io::Error::other("writer thread panicked"))??;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use raft_kernels::{write_each, Generate, Map};

    fn registry() -> KernelRegistry {
        let mut r = KernelRegistry::new();
        r.register("double", || Map::new(|x: u64| x * 2));
        r.register("inc", || Map::new(|x: u64| x + 1));
        r.register("square", || Map::new(|x: u64| x * x));
        r
    }

    #[test]
    fn registry_names_and_build() {
        let r = registry();
        let mut names = r.names();
        names.sort();
        assert_eq!(names, vec!["double", "inc", "square"]);
        assert!(r.build("double").is_some());
        assert!(r.build("nope").is_none());
    }

    #[test]
    fn remote_apply_runs_named_chain() {
        let worker = RemoteWorker::<u64>::serve("127.0.0.1:0", registry()).unwrap();
        let got =
            remote_apply::<u64>(worker.addr(), &["double", "inc"], (0..100).collect()).unwrap();
        assert_eq!(got, (0..100).map(|x| x * 2 + 1).collect::<Vec<u64>>());
    }

    #[test]
    fn remote_apply_empty_chain_is_identity() {
        let worker = RemoteWorker::<u64>::serve("127.0.0.1:0", registry()).unwrap();
        let got = remote_apply::<u64>(worker.addr(), &[], vec![5, 6, 7]).unwrap();
        assert_eq!(got, vec![5, 6, 7]);
    }

    #[test]
    fn remote_stage_inside_a_local_pipeline() {
        let worker = RemoteWorker::<u64>::serve("127.0.0.1:0", registry()).unwrap();
        let stage = RemoteStage::<u64>::connect(worker.addr(), &["square"]).unwrap();
        let mut map = RaftMap::new();
        let src = map.add(Generate::new(1..=50u64));
        let remote = map.add(stage);
        let (we, out) = write_each::<u64>();
        let dst = map.add(we);
        map.link(src, "out", remote, "in").unwrap();
        map.link(remote, "out", dst, "in").unwrap();
        map.exe().unwrap();
        assert_eq!(
            *out.lock().unwrap(),
            (1..=50u64).map(|x| x * x).collect::<Vec<u64>>()
        );
    }

    /// A stream longer than the worker's buffers can hold: 8 Mi elements
    /// is twice the worker FIFO's `max_capacity`, so results must be read
    /// while the input is still being sent. Too slow for a debug build:
    /// CI runs it with `--release -- --ignored`.
    #[test]
    #[ignore]
    fn remote_stage_streams_past_the_worker_buffers() {
        const N: u64 = 8 << 20;
        let worker = RemoteWorker::<u64>::serve("127.0.0.1:0", registry()).unwrap();
        let stage = RemoteStage::<u64>::connect(worker.addr(), &[]).unwrap();
        let mut map = RaftMap::new();
        let src = map.add(Generate::new(0..N));
        let remote = map.add(stage);
        let (fold, got) = raft_kernels::Fold::new(0u64, |next: &mut u64, v: u64| {
            assert_eq!(v, *next, "out of order");
            *next += 1;
        });
        let dst = map.add(fold);
        map.link(src, "out", remote, "in").unwrap();
        map.link(remote, "out", dst, "in").unwrap();
        map.exe().unwrap();
        assert_eq!(*got.lock().unwrap(), N);
    }

    #[test]
    fn unknown_kernel_name_yields_empty_result() {
        let worker = RemoteWorker::<u64>::serve("127.0.0.1:0", registry()).unwrap();
        let got = remote_apply::<u64>(worker.addr(), &["no_such_kernel"], vec![1, 2, 3]).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn two_workers_serve_concurrently() {
        let w1 = RemoteWorker::<u64>::serve("127.0.0.1:0", registry()).unwrap();
        let w2 = RemoteWorker::<u64>::serve("127.0.0.1:0", registry()).unwrap();
        let a1 = w1.addr();
        let a2 = w2.addr();
        let t1 = std::thread::spawn(move || {
            remote_apply::<u64>(a1, &["double"], (0..500).collect()).unwrap()
        });
        let t2 = std::thread::spawn(move || {
            remote_apply::<u64>(a2, &["inc"], (0..500).collect()).unwrap()
        });
        assert_eq!(t1.join().unwrap()[499], 998);
        assert_eq!(t2.join().unwrap()[499], 500);
    }
}
