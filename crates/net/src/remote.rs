//! Remote kernel execution — the second half of "oar" (§4.1): "The 'oar'
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
//! Workers are typed (`RemoteWorker<T>`): one registry per element type,
//! matching the link-type checking discipline of the rest of the system.

use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use raftlib::prelude::*;

use crate::frame::{Frame, FrameKind};
use crate::link::{TcpIn, TcpOut};
use crate::wire::Wire;

/// Factory producing a fresh kernel instance per job.
pub type KernelFactory = Box<dyn Fn() -> Box<dyn Kernel> + Send + Sync>;

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
    // Socket halves: reader was consumed up to the first data frame; hand
    // the buffered reader to TcpIn via its raw stream — we re-wrap the
    // clone (the BufReader has consumed only the job frame, which is fine
    // because we construct TcpIn from the same BufReader).
    let src = map.add(TcpIn::<T>::from_parts(reader));
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

/// Client-side kernel: ships its input stream to a worker, which runs the
/// named kernel chain and streams results back on this kernel's output —
/// remote execution as a drop-in pipeline stage.
pub struct RemoteStage<T: Wire> {
    sender: Option<TcpOut<T>>,
    receiver: TcpIn<T>,
    /// `run()` alternates send/receive; when the local input ends we must
    /// still drain the remote results.
    input_done: bool,
    _marker: std::marker::PhantomData<fn(T)>,
}

impl<T: Wire> RemoteStage<T> {
    /// Connect to `worker` and submit a job running `kernels` (registered
    /// names, applied in order).
    pub fn connect(worker: SocketAddr, kernels: &[&str]) -> io::Result<Self> {
        let stream = TcpStream::connect(worker)?;
        stream.set_nodelay(true)?;
        let mut w = BufWriter::new(stream.try_clone()?);
        job_frame(kernels).write_to(&mut w)?;
        w.flush()?;
        Ok(RemoteStage {
            sender: Some(TcpOut::from_stream(stream.try_clone()?)?),
            receiver: TcpIn::from_stream(stream)?,
            input_done: false,
            _marker: std::marker::PhantomData,
        })
    }
}

impl<T: Wire> Kernel for RemoteStage<T> {
    fn ports(&self) -> PortSpec {
        PortSpec::new().input::<T>("in").output::<T>("out")
    }

    fn run(&mut self, ctx: &Context) -> KStatus {
        // Phase 1: forward local input upstream → worker. TcpOut::run pops
        // from "in" and writes; it returns Stop once the input closes (and
        // sends Eos). We then switch to drain mode.
        if !self.input_done {
            let sender = self.sender.as_mut().expect("sender live until input done");
            match sender.run(ctx) {
                KStatus::Proceed => {
                    // Opportunistically pull any already-available results
                    // so the worker never blocks on a full return path...
                    // handled by TCP buffering; just continue.
                    return KStatus::Proceed;
                }
                KStatus::Stop => {
                    self.input_done = true;
                    self.sender = None; // flushes + keeps socket via receiver
                }
            }
        }
        // Phase 2: drain worker results → local output.
        self.receiver.run(ctx)
    }

    fn name(&self) -> String {
        "remote-stage".to_string()
    }
}

/// Submit a whole `Vec` through a remote kernel chain and collect the
/// results — the "compile and forget" convenience path.
pub fn remote_apply<T: Wire>(
    worker: SocketAddr,
    kernels: &[&str],
    data: Vec<T>,
) -> io::Result<Vec<T>> {
    let stream = TcpStream::connect(worker)?;
    stream.set_nodelay(true)?;
    let mut w = BufWriter::new(stream.try_clone()?);
    job_frame(kernels).write_to(&mut w)?;
    // Write from a separate thread so a long result stream cannot deadlock
    // against a long input stream on full socket buffers.
    let writer = std::thread::spawn(move || -> io::Result<()> {
        for v in data {
            let mut b = Vec::new();
            v.encode(&mut b);
            Frame::data(b, raft_buffer::Signal::None).write_to(&mut w)?;
        }
        Frame::eos().write_to(&mut w)?;
        w.flush()
    });

    let mut reader = BufReader::new(stream);
    let mut out = Vec::new();
    while let Some(frame) = Frame::read_from(&mut reader)? {
        if frame.kind == FrameKind::Eos {
            break;
        }
        let Some((mut payload, _sig)) = frame.as_data() else {
            break;
        };
        let Some(v) = T::decode(&mut payload) else {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "bad element"));
        };
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
