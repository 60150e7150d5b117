//! The "oar" node mesh.
//!
//! §4.1 of the paper: "A separate system called 'oar' is a mesh of network
//! clients that continually feed system information to each other. This
//! information is provided to RaftLib in order to continuously optimize and
//! monitor Raft kernels executing on multiple systems."
//!
//! Each [`OarNode`] listens on a TCP port and heartbeats its
//! [`NodeInfo`] (name, core count, a load proxy) to every known peer on a
//! fixed period. Received heartbeats update the local registry; peers going
//! quiet for a staleness window are marked dead. The registry is what a
//! distributed mapper ([`raftlib::map_kernels`]) consumes as its latency
//! domain tree ([`raftlib::Domain`]).

use std::collections::HashMap;
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use raft_buffer::sync::Mutex;

use crate::frame::{Frame, FrameKind};
use crate::wire::Wire;

/// What every node knows about a peer.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeInfo {
    /// Node name (unique in the mesh).
    pub name: String,
    /// Address its mesh listener is bound to.
    pub addr: String,
    /// Core count the node advertises.
    pub cores: u32,
    /// Load proxy: kernels currently scheduled on the node.
    pub load: u32,
}

impl Wire for NodeInfo {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.name.encode(buf);
        self.addr.encode(buf);
        self.cores.encode(buf);
        self.load.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let name = String::decode(buf)?;
        let addr = String::decode(buf)?;
        let cores = u32::decode(buf)?;
        let load = u32::decode(buf)?;
        Some(NodeInfo {
            name,
            addr,
            cores,
            load,
        })
    }
}

struct PeerEntry {
    info: NodeInfo,
    last_seen: Instant,
}

/// A running mesh node: listener thread + heartbeat thread + registry.
pub struct OarNode {
    name: String,
    addr: SocketAddr,
    cores: u32,
    load: Arc<AtomicU64>,
    peers: Arc<Mutex<HashMap<String, PeerEntry>>>,
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
    heartbeat: Duration,
}

impl OarNode {
    /// Start a node: bind `addr` (use port 0 for ephemeral), announce
    /// `cores`, heartbeat every `heartbeat`.
    pub fn start(
        name: impl Into<String>,
        addr: &str,
        cores: u32,
        heartbeat: Duration,
    ) -> std::io::Result<OarNode> {
        let name = name.into();
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let peers: Arc<Mutex<HashMap<String, PeerEntry>>> = Arc::new(Mutex::new(HashMap::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let load = Arc::new(AtomicU64::new(0));

        // Listener: accept heartbeat connections, read one frame each.
        let peers_l = peers.clone();
        let stop_l = stop.clone();
        let accept_thread = std::thread::Builder::new()
            .name(format!("oar-accept-{name}"))
            .spawn(move || {
                while !stop_l.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
                            let mut reader = BufReader::new(stream);
                            while let Ok(Some(frame)) = Frame::read_from(&mut reader) {
                                if frame.kind == FrameKind::Heartbeat {
                                    if let Some(info) = NodeInfo::decode(&mut &frame.payload[..]) {
                                        peers_l.lock().insert(
                                            info.name.clone(),
                                            PeerEntry {
                                                info,
                                                last_seen: Instant::now(),
                                            },
                                        );
                                    }
                                }
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => break,
                    }
                }
            })
            .expect("spawn oar accept thread");

        let mut node = OarNode {
            name,
            addr: local,
            cores,
            load,
            peers,
            stop,
            threads: vec![accept_thread],
            heartbeat,
        };
        node.start_heartbeat();
        Ok(node)
    }

    fn start_heartbeat(&mut self) {
        let stop = self.stop.clone();
        let peers = self.peers.clone();
        let me = NodeInfo {
            name: self.name.clone(),
            addr: self.addr.to_string(),
            cores: self.cores,
            load: 0,
        };
        let load = self.load.clone();
        let period = self.heartbeat;
        let t = std::thread::Builder::new()
            .name(format!("oar-hb-{}", self.name))
            .spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let targets: Vec<String> =
                        peers.lock().values().map(|p| p.info.addr.clone()).collect();
                    let mut info = me.clone();
                    info.load = load.load(Ordering::Relaxed) as u32;
                    let mut payload = Vec::new();
                    info.encode(&mut payload);
                    let frame = Frame {
                        kind: FrameKind::Heartbeat,
                        payload,
                    };
                    for addr in targets {
                        if let Ok(stream) = TcpStream::connect(&addr) {
                            let mut w = BufWriter::new(stream);
                            let _ = frame.write_to(&mut w);
                            use std::io::Write;
                            let _ = w.flush();
                        }
                    }
                    std::thread::sleep(period);
                }
            })
            .expect("spawn oar heartbeat thread");
        self.threads.push(t);
    }

    /// Introduce a peer by address: we start heartbeating it; it learns us
    /// from our heartbeat and heartbeats back — after one round trip both
    /// registries contain both nodes.
    pub fn add_peer(&self, name: impl Into<String>, addr: impl Into<String>) {
        self.peers.lock().insert(
            name.into(),
            PeerEntry {
                info: NodeInfo {
                    name: String::new(), // filled by its first heartbeat
                    addr: addr.into(),
                    cores: 0,
                    load: 0,
                },
                last_seen: Instant::now(),
            },
        );
    }

    /// This node's mesh address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// This node's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Advertise the current kernel load (picked up by the next heartbeat).
    pub fn set_load(&self, kernels: u32) {
        self.load.store(kernels as u64, Ordering::Relaxed);
    }

    /// Peers whose heartbeat arrived within `staleness`.
    pub fn live_peers(&self, staleness: Duration) -> Vec<NodeInfo> {
        let now = Instant::now();
        self.peers
            .lock()
            .values()
            .filter(|p| now.duration_since(p.last_seen) <= staleness && !p.info.name.is_empty())
            .map(|p| p.info.clone())
            .collect()
    }

    /// Wait until at least `n` live peers are known or `timeout` elapses;
    /// returns the live set.
    pub fn await_peers(&self, n: usize, timeout: Duration) -> Vec<NodeInfo> {
        let deadline = Instant::now() + timeout;
        loop {
            let live = self.live_peers(timeout);
            if live.len() >= n || Instant::now() >= deadline {
                return live;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Build a mapper topology from the current mesh view: this node plus
    /// every live peer becomes a symmetric host; hosts are joined by a
    /// network domain. Feed the result to [`raftlib::map_kernels`].
    pub fn cluster_topology(
        &self,
        staleness: Duration,
        core_latency_ns: u64,
        network_latency_ns: u64,
    ) -> raftlib::Domain {
        let mut hosts = vec![raftlib::Domain::symmetric_host(
            &self.name,
            self.cores as usize,
            core_latency_ns,
        )];
        for p in self.live_peers(staleness) {
            hosts.push(raftlib::Domain::symmetric_host(
                &p.name,
                p.cores.max(1) as usize,
                core_latency_ns,
            ));
        }
        raftlib::Domain::cluster(hosts, network_latency_ns)
    }
}

impl Drop for OarNode {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_info_wire_roundtrip() {
        let info = NodeInfo {
            name: "alpha".into(),
            addr: "127.0.0.1:1234".into(),
            cores: 16,
            load: 3,
        };
        let mut buf = Vec::new();
        info.encode(&mut buf);
        assert_eq!(NodeInfo::decode(&mut &buf[..]).unwrap(), info);
        // every strict prefix cuts a field: clean `None`, no panic
        for cut in 0..buf.len() {
            assert_eq!(NodeInfo::decode(&mut &buf[..cut]), None);
        }
    }

    #[test]
    fn two_nodes_discover_each_other() {
        let hb = Duration::from_millis(20);
        let a = OarNode::start("alpha", "127.0.0.1:0", 4, hb).unwrap();
        let b = OarNode::start("beta", "127.0.0.1:0", 8, hb).unwrap();
        // one-way introduction; the mesh closes the loop
        a.add_peer("beta?", b.addr().to_string());
        let peers_of_b = b.await_peers(1, Duration::from_secs(5));
        assert!(
            peers_of_b.iter().any(|p| p.name == "alpha"),
            "beta should learn alpha: {peers_of_b:?}"
        );
        let peers_of_a = a.await_peers(1, Duration::from_secs(5));
        assert!(
            peers_of_a.iter().any(|p| p.name == "beta" && p.cores == 8),
            "alpha should learn beta: {peers_of_a:?}"
        );
    }

    #[test]
    fn load_updates_propagate() {
        let hb = Duration::from_millis(20);
        let a = OarNode::start("a1", "127.0.0.1:0", 2, hb).unwrap();
        let b = OarNode::start("b1", "127.0.0.1:0", 2, hb).unwrap();
        a.add_peer("b1?", b.addr().to_string());
        a.set_load(7);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let peers = b.live_peers(Duration::from_secs(5));
            if peers.iter().any(|p| p.name == "a1" && p.load == 7) {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "load never propagated: {peers:?}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn cluster_topology_from_mesh() {
        let hb = Duration::from_millis(20);
        let a = OarNode::start("hostA", "127.0.0.1:0", 4, hb).unwrap();
        let b = OarNode::start("hostB", "127.0.0.1:0", 4, hb).unwrap();
        a.add_peer("b?", b.addr().to_string());
        a.await_peers(1, Duration::from_secs(5));
        let topo = a.cluster_topology(Duration::from_secs(5), 100, 10_000);
        assert_eq!(topo.capacity(), 8);
    }
}
