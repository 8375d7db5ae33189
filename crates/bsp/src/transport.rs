//! The message-passing substrate of the distributed backend: per-rank
//! mailboxes behind a small [`Transport`] trait.
//!
//! * [`SharedMem`] — bounded in-process queues, the substrate of the
//!   thread-per-rank backend.
//! * `SocketTransport` — a rank process's view of the machine, whose
//!   frames ride the control stream through the parent
//!   ([`crate::process`]).
//!
//! Both are lossless: an accepted frame arrives exactly once, intact
//! and in per-link order. The exchange of [`crate::distributed`]
//! relies on that — it checks every frame's per-link sequence number
//! against the counts the superstep's count round announced, and fails
//! the run on anything unexpected instead of repairing it (DESIGN.md
//! §10). Loss on a real socket is repaired one layer down, by the
//! egress-ring replay of link supervision (DESIGN.md §16).
//!
//! A transport moves opaque *bytes*; framing, checksums, and
//! sequencing belong to [`crate::wire`] and the exchange.
//!
//! A [`SharedMem`] mailbox is bounded by `2(p − 1)` frames. A rank
//! sends each peer at most one frame per superstep, and the count
//! round is the only synchronization: a peer that left the round of
//! superstep `n` can send its frame of `n + 1` before the receiver has
//! drained `n`, but it cannot send `n + 2` before the receiver enters
//! the round of `n + 1`. So a mailbox holds at most two supersteps'
//! frames, and a refusal is a protocol violation, which the exchange
//! reports as a transport failure.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Mutex;
use std::time::Duration;

use crate::lock;

/// A point-to-point byte-frame carrier between `p` ranks.
///
/// Implementations must deliver every accepted frame exactly once,
/// unmodified, in per-link send order, and must be safe to call
/// concurrently from all ranks. A frame accepted before its sender
/// enters a synchronization must be receivable once that
/// synchronization completes. The exchange treats any deviation as a
/// fatal protocol violation.
pub trait Transport: fmt::Debug + Send + Sync {
    /// Offers one frame to `dst`'s mailbox. Returns `false` when the
    /// mailbox is full, which the exchange treats as a protocol
    /// violation.
    fn try_send(&self, dst: usize, bytes: &[u8]) -> bool;

    /// Pops the next frame from `rank`'s mailbox, if any.
    fn recv(&self, rank: usize) -> Option<Vec<u8>>;
}

// ---------------------------------------------------------------------------
// SharedMem
// ---------------------------------------------------------------------------

/// The in-process transport: one bounded FIFO per rank.
#[derive(Debug)]
pub struct SharedMem {
    boxes: Vec<Mutex<VecDeque<Vec<u8>>>>,
    /// Frames one mailbox holds before `try_send` refuses:
    /// `2(p − 1)`, two supersteps' worth.
    capacity: usize,
}

impl SharedMem {
    /// Mailboxes for `p` ranks, each holding up to `2(p − 1)` frames.
    #[must_use]
    pub fn new(p: usize) -> SharedMem {
        SharedMem {
            boxes: (0..p).map(|_| Mutex::new(VecDeque::new())).collect(),
            capacity: 2 * p.saturating_sub(1),
        }
    }
}

impl Transport for SharedMem {
    fn try_send(&self, dst: usize, bytes: &[u8]) -> bool {
        let mut q = lock(&self.boxes[dst]);
        if q.len() >= self.capacity {
            return false;
        }
        q.push_back(bytes.to_vec());
        true
    }

    fn recv(&self, rank: usize) -> Option<Vec<u8>> {
        lock(&self.boxes[rank]).pop_front()
    }
}

/// A rank *process*'s view of the machine: every frame rides the
/// control stream to the parent, which routes it to the destination
/// rank's stream ([`crate::process`]). Mailbox depth is bounded by the
/// kernel socket buffers, so `try_send` never refuses.
#[derive(Debug)]
pub(crate) struct SocketTransport {
    hub: std::sync::Arc<crate::rank::RemoteHub>,
}

impl SocketTransport {
    pub(crate) fn new(hub: std::sync::Arc<crate::rank::RemoteHub>) -> SocketTransport {
        SocketTransport { hub }
    }
}

impl Transport for SocketTransport {
    fn try_send(&self, dst: usize, bytes: &[u8]) -> bool {
        self.hub.send_data(dst, bytes);
        true
    }

    fn recv(&self, _rank: usize) -> Option<Vec<u8>> {
        self.hub.recv_data()
    }
}

// ---------------------------------------------------------------------------
// The coordinator's listener seam: Unix-domain or TCP (DESIGN.md §16).
// ---------------------------------------------------------------------------

/// Where the multi-process coordinator listens for its ranks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Bind {
    /// A Unix-domain socket at this path (the default; the launcher
    /// picks a fresh path under the socket directory).
    Unix(std::path::PathBuf),
    /// A TCP address like `"127.0.0.1:0"` (port 0 = kernel-assigned).
    /// This is what lets rank processes live on other hosts.
    Tcp(String),
}

/// One accepted (or dialed) rank⇄coordinator control stream,
/// abstracting over the two socket families. TCP streams run with
/// `TCP_NODELAY`: control frames are small and latency-critical
/// (count rounds, heartbeats), so Nagle batching only hurts.
#[derive(Debug)]
pub enum RankStream {
    /// A Unix-domain stream.
    Unix(std::os::unix::net::UnixStream),
    /// A TCP stream.
    Tcp(std::net::TcpStream),
}

/// Dispatches one `&self` method over both stream families.
macro_rules! on_stream {
    ($self:ident, $s:ident => $body:expr) => {
        match $self {
            RankStream::Unix($s) => $body,
            RankStream::Tcp($s) => $body,
        }
    };
}

impl RankStream {
    /// Connects to a coordinator endpoint string as published in
    /// `BSML_RANK_SOCKET`: `tcp://host:port` dials TCP, anything else
    /// is a Unix socket path.
    pub fn connect(endpoint: &str) -> std::io::Result<RankStream> {
        if let Some(addr) = endpoint.strip_prefix("tcp://") {
            let stream = std::net::TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            Ok(RankStream::Tcp(stream))
        } else {
            Ok(RankStream::Unix(std::os::unix::net::UnixStream::connect(
                endpoint,
            )?))
        }
    }

    /// An independently-owned handle to the same stream.
    pub fn try_clone(&self) -> std::io::Result<RankStream> {
        match self {
            RankStream::Unix(s) => s.try_clone().map(RankStream::Unix),
            RankStream::Tcp(s) => s.try_clone().map(RankStream::Tcp),
        }
    }

    /// Read-timeout passthrough (`None` = block forever).
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        on_stream!(self, s => s.set_read_timeout(dur))
    }

    /// Nonblocking-mode passthrough.
    pub fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        on_stream!(self, s => s.set_nonblocking(nonblocking))
    }

    /// Shutdown passthrough — how link faults sever a live wire.
    pub fn shutdown(&self, how: std::net::Shutdown) -> std::io::Result<()> {
        on_stream!(self, s => s.shutdown(how))
    }
}

impl std::io::Read for RankStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        on_stream!(self, s => s.read(buf))
    }
}

impl std::io::Write for RankStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        on_stream!(self, s => s.write(buf))
    }

    fn flush(&mut self) -> std::io::Result<()> {
        on_stream!(self, s => s.flush())
    }
}

/// The coordinator's accept side, behind a seam so the launcher and
/// the rejoin acceptor are family-agnostic.
pub trait Listener: fmt::Debug + Send + Sync {
    /// Accepts one rank connection.
    ///
    /// # Errors
    ///
    /// The underlying `accept` error — `WouldBlock` included, when the
    /// listener is nonblocking.
    fn accept(&self) -> std::io::Result<RankStream>;

    /// Switches the listener between blocking and polling mode.
    ///
    /// # Errors
    ///
    /// The underlying socket error.
    fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()>;

    /// The endpoint string rank processes should connect to — a Unix
    /// path verbatim, or `tcp://host:port`.
    fn endpoint(&self) -> String;
}

/// [`Listener`] over a Unix-domain socket.
#[derive(Debug)]
pub struct UnixSeam {
    listener: std::os::unix::net::UnixListener,
    path: std::path::PathBuf,
}

impl Drop for UnixSeam {
    fn drop(&mut self) {
        // The seam bound this path, so the file is ours to reclaim —
        // a later coordinator then finds a clean address instead of a
        // stale socket it has to probe.
        let _ = std::fs::remove_file(&self.path);
    }
}

impl Listener for UnixSeam {
    fn accept(&self) -> std::io::Result<RankStream> {
        self.listener.accept().map(|(s, _)| RankStream::Unix(s))
    }

    fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        self.listener.set_nonblocking(nonblocking)
    }

    fn endpoint(&self) -> String {
        self.path.display().to_string()
    }
}

/// [`Listener`] over TCP.
#[derive(Debug)]
pub struct TcpSeam {
    listener: std::net::TcpListener,
}

impl Listener for TcpSeam {
    fn accept(&self) -> std::io::Result<RankStream> {
        let (stream, _) = self.listener.accept()?;
        stream.set_nodelay(true)?;
        Ok(RankStream::Tcp(stream))
    }

    fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        self.listener.set_nonblocking(nonblocking)
    }

    fn endpoint(&self) -> String {
        match self.listener.local_addr() {
            Ok(addr) => format!("tcp://{addr}"),
            Err(_) => "tcp://<unknown>".to_string(),
        }
    }
}

impl Bind {
    /// Binds the coordinator listener.
    ///
    /// For a Unix bind, a leftover socket file from a killed
    /// coordinator is handled by *probing*: the path is connected to
    /// first, and only a **refused** probe (nobody listening) licenses
    /// unlinking it. A live listener on the path is a real conflict
    /// and comes back as a typed `AddrInUse` error — never a silent
    /// unlink of someone else's socket, never a hang.
    ///
    /// # Errors
    ///
    /// `AddrInUse` when the address has a live listener; otherwise the
    /// underlying bind error.
    pub fn listen(&self) -> std::io::Result<Box<dyn Listener>> {
        match self {
            Bind::Unix(path) => {
                if path.exists() {
                    match std::os::unix::net::UnixStream::connect(path) {
                        Ok(_) => {
                            return Err(std::io::Error::new(
                                std::io::ErrorKind::AddrInUse,
                                format!(
                                    "coordinator socket {} is in use by a live listener",
                                    path.display()
                                ),
                            ));
                        }
                        Err(_) => {
                            // Stale: a dead coordinator's leftover.
                            std::fs::remove_file(path)?;
                        }
                    }
                }
                let listener = std::os::unix::net::UnixListener::bind(path)?;
                Ok(Box::new(UnixSeam {
                    listener,
                    path: path.clone(),
                }))
            }
            Bind::Tcp(addr) => {
                let listener = std::net::TcpListener::bind(addr)?;
                Ok(Box::new(TcpSeam { listener }))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_mem_is_fifo_and_bounded() {
        let p = 5;
        let t = SharedMem::new(p);
        for i in 0..2 * (p - 1) {
            assert!(t.try_send(1, &i.to_le_bytes()));
        }
        // Mailbox full: a refusal, not queue growth.
        assert!(!t.try_send(1, b"late"));
        assert_eq!(t.recv(1), Some(0usize.to_le_bytes().to_vec()));
        assert!(t.try_send(1, b"late"));
        for i in 1..2 * (p - 1) {
            assert_eq!(t.recv(1), Some(i.to_le_bytes().to_vec()));
        }
        assert_eq!(t.recv(1).as_deref(), Some(b"late".as_slice()));
        assert_eq!(t.recv(1), None);
        // The other mailbox is untouched.
        assert_eq!(t.recv(0), None);
    }

    fn scratch_socket(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "bsml-seam-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("coord.sock")
    }

    #[test]
    fn stale_unix_socket_is_probed_and_rebound() {
        let path = scratch_socket("stale");
        // A killed coordinator's leftover: a socket file nobody listens
        // on. A dropped `UnixSeam` unlinks its own path, so the corpse
        // is made with a bare listener, which leaves the file behind.
        drop(std::os::unix::net::UnixListener::bind(&path).expect("first bind"));
        assert!(path.exists(), "the socket file must be left behind");
        // A naive re-bind would fail with AddrInUse forever; the probe
        // sees the refused connect and unlinks the corpse.
        let seam = Bind::Unix(path.clone())
            .listen()
            .expect("rebind over stale");
        assert_eq!(seam.endpoint(), path.display().to_string());
    }

    #[test]
    fn live_unix_listener_is_a_typed_conflict_not_a_hang() {
        let path = scratch_socket("live");
        let _holder = Bind::Unix(path.clone()).listen().expect("first bind");
        let err = Bind::Unix(path)
            .listen()
            .expect_err("second bind must fail");
        assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);
        assert!(err.to_string().contains("in use"), "got: {err}");
    }

    #[test]
    fn tcp_seam_binds_accepts_and_round_trips() {
        use std::io::{Read, Write};
        let seam = Bind::Tcp("127.0.0.1:0".to_string())
            .listen()
            .expect("tcp bind");
        let endpoint = seam.endpoint();
        assert!(endpoint.starts_with("tcp://127.0.0.1:"), "got {endpoint}");
        let dialer = std::thread::spawn(move || {
            let mut s = RankStream::connect(&endpoint).expect("dial");
            s.write_all(b"ping").unwrap();
            let mut buf = [0u8; 4];
            s.read_exact(&mut buf).unwrap();
            buf
        });
        let mut accepted = seam.accept().expect("accept");
        let mut buf = [0u8; 4];
        accepted.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        accepted.write_all(b"pong").unwrap();
        assert_eq!(&dialer.join().unwrap(), b"pong");
    }

    #[test]
    fn unix_endpoint_strings_dial_as_paths() {
        let path = scratch_socket("dial");
        let seam = Bind::Unix(path.clone()).listen().expect("bind");
        let endpoint = seam.endpoint();
        let dialer = std::thread::spawn(move || RankStream::connect(&endpoint).is_ok());
        let _accepted = seam.accept().expect("accept");
        assert!(dialer.join().unwrap());
    }
}
