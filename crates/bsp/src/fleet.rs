//! Rank fleets (DESIGN.md §13): launching one — bind the
//! coordinator's listener, spawn `p` rank processes, handshake every
//! connection under one deadline — and keeping it warm between runs in
//! a [`FleetPool`], so that only a fleet's first run pays for the
//! launch.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bsml_eval::EvalError;

use crate::link::Link;
use crate::lock;
use crate::process::{
    validate_hello, ProcessConfig, DEFAULT_HANDSHAKE_TIMEOUT, RANK_BIN_ENV, RANK_FINGERPRINT_ENV,
    RANK_ID_ENV, RANK_P_ENV, RANK_SOCKET_ENV,
};
use crate::supervisor::POSTMORTEM_DIR_ENV;
use crate::transport::{Bind, Listener, RankStream};
use crate::wire::{read_ctl, write_ctl, CtlMsg};

/// Distinguishes the sockets (and socket directories) of one parent
/// process's fleets (`std::process::id` distinguishes parents).
static SOCKET_SEQ: AtomicU64 = AtomicU64::new(0);

fn launch_failure(rank: usize, detail: String) -> EvalError {
    EvalError::TransportFailure {
        rank,
        superstep: 0,
        detail,
    }
}

/// Locates the rank-runner binary: explicit config, then
/// [`RANK_BIN_ENV`], then a `bsml-rank` sibling of the current
/// executable (covering both `target/<profile>/` and
/// `target/<profile>/deps/` callers).
fn discover_rank_binary(cfg: &ProcessConfig) -> Result<PathBuf, EvalError> {
    if let Some(bin) = &cfg.rank_binary {
        return Ok(bin.clone());
    }
    if let Some(bin) = std::env::var_os(RANK_BIN_ENV) {
        return Ok(PathBuf::from(bin));
    }
    if let Ok(exe) = std::env::current_exe() {
        let mut candidates = Vec::new();
        if let Some(dir) = exe.parent() {
            candidates.push(dir.join("bsml-rank"));
            if let Some(up) = dir.parent() {
                candidates.push(up.join("bsml-rank"));
            }
        }
        for candidate in candidates {
            if candidate.is_file() {
                return Ok(candidate);
            }
        }
    }
    Err(launch_failure(
        0,
        format!(
            "cannot locate the bsml-rank binary: set ProcessConfig::rank_binary or {RANK_BIN_ENV}"
        ),
    ))
}

/// Everything a rank receives at spawn. A fleet serves only the runs
/// whose key it was launched with; everything a `Welcome` carries
/// stays per run.
#[derive(PartialEq, Eq)]
struct FleetKey {
    p: usize,
    binary: PathBuf,
    /// The endpoint: the configured bind, or the socket directory the
    /// default bind uses.
    bind: Option<Bind>,
    socket_dir: Option<PathBuf>,
    /// Exported to the ranks as [`POSTMORTEM_DIR_ENV`].
    postmortem_dir: Option<PathBuf>,
}

/// One handshaken fleet: its rank processes, the listener they dial
/// and rejoin at, and the link state that outlives a run.
pub(crate) struct Fleet {
    key: FleetKey,
    /// The address ranks dial, as the listener publishes it.
    endpoint: String,
    dir: PathBuf,
    created_dir: bool,
    socket: PathBuf,
    /// The coordinator's listener, kept open while the fleet lives so
    /// severed ranks can reconnect and rejoin.
    pub(crate) listener: Box<dyn Listener>,
    /// Reader halves, by rank (taken by a run's readers, and handed
    /// back when every rank reported `Done`).
    pub(crate) streams: Vec<RankStream>,
    /// Writer halves with their egress rings and resume-token counts,
    /// by rank.
    pub(crate) links: Vec<Link>,
    pub(crate) children: Vec<Mutex<Child>>,
    /// The parent's Lamport clock, stamping heartbeats.
    pub(crate) lamport: AtomicU64,
}

impl Fleet {
    /// Whether every rank process is still running.
    fn alive(&self) -> bool {
        self.children
            .iter()
            .all(|child| lock(child).try_wait().is_ok_and(|status| status.is_none()))
    }
}

impl Drop for Fleet {
    /// SIGKILLs and reaps every rank, then removes the socket: a fleet
    /// ends like a failed launch.
    fn drop(&mut self) {
        for child in &self.children {
            let mut child = lock(child);
            let _ = child.kill();
            let _ = child.wait();
        }
        cleanup_socket(&self.dir, &self.socket, self.created_dir);
    }
}

/// The idle rank fleets of one [`ProcessConfig`] and its clones, which
/// share them: at most one fleet per key, each handed to one run at a
/// time and taken back when every rank of that run reported `Done`.
/// The last clone to drop SIGKILLs and reaps every idle rank. The
/// default handle holds no fleet.
#[derive(Clone, Default)]
pub struct FleetPool {
    idle: Arc<Mutex<Vec<Fleet>>>,
}

impl fmt::Debug for FleetPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FleetPool")
            .field("idle", &lock(&self.idle).len())
            .finish()
    }
}

impl FleetPool {
    /// The idle fleet for a run of width `p` under `cfg`, or a freshly
    /// launched one (`true`) when there is none.
    ///
    /// # Errors
    ///
    /// As for [`launch_ranks`].
    pub(crate) fn take_or_launch(
        &self,
        cfg: &ProcessConfig,
        p: usize,
        fingerprint: u64,
    ) -> Result<(Fleet, bool), EvalError> {
        let key = FleetKey {
            p,
            binary: discover_rank_binary(cfg)?,
            bind: cfg.bind.clone(),
            socket_dir: cfg.socket_dir.clone(),
            postmortem_dir: cfg.postmortem_dir.clone(),
        };
        // A fleet whose rank died while idle cannot serve a run; it is
        // reaped as the pool lets go of it.
        let idle = self.take(|fleet| fleet.key == key);
        if let Some(fleet) = idle.into_iter().find(Fleet::alive) {
            return Ok((fleet, false));
        }
        if let Some(bind) = &cfg.bind {
            // Another width's idle fleet may hold the address.
            let address = match bind {
                Bind::Unix(path) => path.display().to_string(),
                Bind::Tcp(addr) => format!("tcp://{addr}"),
            };
            drop(self.take(|fleet| fleet.endpoint == address));
        }
        launch_ranks(cfg, key, fingerprint).map(|fleet| (fleet, true))
    }

    /// Keeps a fleet whose run ended with every rank reporting `Done`.
    /// A second idle fleet for the same key is reaped.
    pub(crate) fn put(&self, fleet: Fleet) {
        let mut idle = lock(&self.idle);
        if idle.iter().all(|other| other.key != fleet.key) {
            idle.push(fleet);
        }
    }

    /// Removes the idle fleets `which` selects.
    fn take(&self, which: impl Fn(&Fleet) -> bool) -> Vec<Fleet> {
        let mut idle = lock(&self.idle);
        let (taken, kept) = std::mem::take(&mut *idle).into_iter().partition(which);
        *idle = kept;
        taken
    }
}

fn abort_children(children: &mut [Child]) {
    for child in children.iter_mut() {
        let _ = child.kill();
        let _ = child.wait();
    }
}

fn cleanup_socket(dir: &Path, socket: &Path, created_dir: bool) {
    let _ = std::fs::remove_file(socket);
    if created_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Binds, spawns `p` rank processes and handshakes every connection
/// under the deadline, each `Hello` naming `fingerprint`. Any failure
/// kills and reaps everything spawned so far and comes back as
/// [`EvalError::TransportFailure`] — a never-connecting rank included.
fn launch_ranks(cfg: &ProcessConfig, key: FleetKey, fingerprint: u64) -> Result<Fleet, EvalError> {
    let p = key.p;
    let handshake = cfg.handshake_timeout.unwrap_or(DEFAULT_HANDSHAKE_TIMEOUT);
    let (pid, seq) = (
        std::process::id(),
        SOCKET_SEQ.fetch_add(1, Ordering::Relaxed),
    );
    let (dir, created_dir) = match &cfg.socket_dir {
        Some(d) => (d.clone(), false),
        None => (
            std::env::temp_dir().join(format!("bsml-ranks-{pid}-{seq}")),
            true,
        ),
    };
    std::fs::create_dir_all(&dir)
        .map_err(|err| launch_failure(0, format!("socket dir {}: {err}", dir.display())))?;
    // One socket per fleet: fleets of other widths may stay idle in
    // the same directory.
    let socket = dir.join(format!("coord-{pid}-{seq}.sock"));
    let bind = cfg
        .bind
        .clone()
        .unwrap_or_else(|| Bind::Unix(socket.clone()));
    let fail = |rank: usize, detail: String| {
        cleanup_socket(&dir, &socket, created_dir);
        launch_failure(rank, detail)
    };
    // `Bind::listen` probes apparently-stale Unix sockets before
    // reclaiming them: a path held by a *live* listener comes back as
    // a typed `AddrInUse` refusal here, never a hang or a hijack.
    let listener = match bind.listen() {
        Ok(l) => l,
        Err(err) => return Err(fail(0, format!("bind {bind:?}: {err}"))),
    };
    let endpoint = listener.endpoint();
    if let Err(err) = listener.set_nonblocking(true) {
        return Err(fail(0, format!("listener mode: {err}")));
    }

    let mut children: Vec<Child> = Vec::with_capacity(p);
    for rank in 0..p {
        let mut cmd = Command::new(&key.binary);
        cmd.env(RANK_SOCKET_ENV, &endpoint)
            .env(RANK_ID_ENV, rank.to_string())
            .env(RANK_P_ENV, p.to_string())
            .env(RANK_FINGERPRINT_ENV, fingerprint.to_string())
            .stdin(Stdio::null());
        if let Some(pm) = &cfg.postmortem_dir {
            cmd.env(POSTMORTEM_DIR_ENV, pm);
        }
        match cmd.spawn() {
            Ok(child) => children.push(child),
            Err(err) => {
                abort_children(&mut children);
                return Err(fail(
                    rank,
                    format!("spawn rank {rank} ({}): {err}", key.binary.display()),
                ));
            }
        }
    }

    // Accept + handshake under one deadline for the whole fleet.
    let deadline = Instant::now() + handshake;
    let mut slots: Vec<Option<(RankStream, RankStream)>> = (0..p).map(|_| None).collect();
    let mut connected = 0;
    while connected < p {
        match listener.accept() {
            Ok(mut stream) => {
                let taken: Vec<bool> = slots.iter().map(Option::is_some).collect();
                let step = (|| -> Result<usize, String> {
                    stream
                        .set_nonblocking(false)
                        .map_err(|e| format!("stream mode: {e}"))?;
                    let remaining = deadline
                        .saturating_duration_since(Instant::now())
                        .max(Duration::from_millis(1));
                    stream
                        .set_read_timeout(Some(remaining))
                        .map_err(|e| format!("stream timeout: {e}"))?;
                    let hello = read_ctl(&mut stream).map_err(|e| format!("read hello: {e}"))?;
                    validate_hello(&hello, fingerprint, p, &taken)
                })();
                match step {
                    Ok(rank) => {
                        if let Err(err) = stream.set_read_timeout(None) {
                            abort_children(&mut children);
                            return Err(fail(rank, format!("stream timeout: {err}")));
                        }
                        let writer = match stream.try_clone() {
                            Ok(w) => w,
                            Err(err) => {
                                abort_children(&mut children);
                                return Err(fail(rank, format!("stream clone: {err}")));
                            }
                        };
                        slots[rank] = Some((stream, writer));
                        connected += 1;
                    }
                    Err(reason) => {
                        let _ = write_ctl(
                            &mut stream,
                            &CtlMsg::Reject {
                                reason: reason.clone(),
                            },
                        );
                        abort_children(&mut children);
                        return Err(fail(0, format!("handshake rejected: {reason}")));
                    }
                }
            }
            Err(err) if err.kind() == io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    let missing = slots.iter().position(Option::is_none).unwrap_or(0);
                    abort_children(&mut children);
                    return Err(fail(
                        missing,
                        format!(
                            "handshake timeout: {connected}/{p} rank(s) connected within \
                             {handshake:?} (rank {missing} never arrived)"
                        ),
                    ));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(err) => {
                abort_children(&mut children);
                return Err(fail(0, format!("accept: {err}")));
            }
        }
    }

    let mut streams = Vec::with_capacity(p);
    let mut writers = Vec::with_capacity(p);
    for slot in slots {
        let (reader, writer) = slot.expect("all connected");
        streams.push(reader);
        writers.push(writer);
    }
    Ok(Fleet {
        key,
        endpoint,
        dir,
        created_dir,
        socket,
        listener,
        streams,
        links: writers.into_iter().map(Link::new).collect(),
        children: children.into_iter().map(Mutex::new).collect(),
        lamport: AtomicU64::new(0),
    })
}
