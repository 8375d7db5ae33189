//! Process-per-rank execution (DESIGN.md §13): the paper's
//! BSMLlib-over-MPI shape, where each rank is one OS process that can
//! genuinely die.
//!
//! Topology is a star: the parent binds a listener (Unix-domain by
//! default, TCP via [`ProcessConfig::bind`]), spawns `p` copies of the
//! `bsml-rank` binary, handshakes each connection (magic + protocol
//! version + program fingerprint + rank id + `p`, within
//! [`ProcessConfig::handshake_timeout`]), and then routes every
//! data-plane frame and every synchronization message over the
//! per-child control streams ([`crate::wire::CtlMsg`]). The fleet
//! outlives its run: each run sends every rank a `Welcome`, and a run
//! whose every rank reported `Done` leaves the fleet in
//! [`ProcessConfig::fleets`] for the next one. Rank death is
//! detected as socket EOF and confirmed with `waitpid`
//! ([`std::process::Child`]), then mapped to the failed (rank,
//! superstep) coordinate as [`EvalError::TransportFailure`] — which is
//! exactly the error class the [`crate::Supervisor`] already retries with
//! checkpoint resume, so respawn-and-resume needs no new supervisor
//! machinery: the whole fleet is respawned and resumed from the
//! newest committed generation, demoting to a full restart on
//! [`EvalError::CheckpointDiverged`] like the in-process ladder.
//!
//! Links themselves are *supervised* resources (DESIGN.md §16): every
//! rank↔coordinator stream carries application heartbeats
//! ([`CtlMsg::Ping`]/[`CtlMsg::Pong`] every
//! [`ProcessConfig::heartbeat`]) and walks a per-link state machine
//! `Healthy → Suspect → Disconnected → Rejoining`. A rank whose
//! *socket* dies while its *process* lives reconnects within
//! [`ProcessConfig::link_grace`], re-handshakes with
//! [`CtlMsg::Rejoin`], and both sides replay the frames the other
//! never received from bounded per-link egress buffers — healing a
//! transient partition without discarding a single superstep. Only
//! when the grace window or the rejoin budget is exhausted does the
//! link failure escalate to the rank-death path above.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::Shutdown;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use bsml_ast::Expr;
use bsml_eval::EvalError;
use bsml_obs::{FlightEvent, FlightRecorder, TimedFlightEvent};

use crate::checkpoint::{
    program_fingerprint, CheckpointError, CheckpointStore, RankFrame, ResumePoint,
};
use crate::distributed::{
    finish_attempt, flush_counters, run_remote_rank, DistMachine, DistOutcome, RankResult,
    DEFAULT_FLIGHT_CAPACITY,
};
use crate::faults::{FaultPlan, LinkFault, LinkFaultKind};
use crate::fleet::{Fleet, FleetPool};
use crate::lock;
use crate::postmortem::{error_coordinate, FlightLog, PostmortemBundle, RankFlightLog};
use crate::supervisor::POSTMORTEM_DIR_ENV;
use crate::transport::{Bind, Listener, RankStream, SocketTransport, Transport};
use crate::wire::{
    read_ctl, write_ctl, CtlLedger, CtlMsg, CTL_MAGIC, MAX_CTL_FRAME, PROTOCOL_VERSION,
};

/// The connect/handshake deadline when
/// [`ProcessConfig::handshake_timeout`] is unset: generous against a
/// loaded CI machine, far below any test timeout. A never-connecting
/// rank therefore always fails with [`EvalError::TransportFailure`],
/// never a hang.
pub const DEFAULT_HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// The link heartbeat period when [`ProcessConfig::heartbeat`] is
/// unset: how often the parent pings every live rank link
/// ([`CtlMsg::Ping`]/[`CtlMsg::Pong`]).
pub const DEFAULT_HEARTBEAT: Duration = Duration::from_millis(500);

/// The link grace window when [`ProcessConfig::link_grace`] is unset:
/// how long a severed link may stay down before the parent gives up on
/// a rejoin and escalates to the rank-death path (and how long a
/// silent link may go without traffic before the child treats it as
/// severed).
pub const DEFAULT_LINK_GRACE: Duration = Duration::from_millis(5000);

/// Rejoin attempts the parent accepts per link per attempt before it
/// answers [`CtlMsg::Reject`] (see [`ProcessConfig::rejoin_budget`]).
pub const DEFAULT_REJOIN_BUDGET: u32 = 16;

/// Overrides where the parent looks for the rank-runner binary when
/// [`ProcessConfig::rank_binary`] is unset (the last resort is a
/// `bsml-rank` sibling of the current executable).
pub const RANK_BIN_ENV: &str = "BSML_RANK_BIN";

/// Child environment: path of the parent's coordination socket.
pub const RANK_SOCKET_ENV: &str = "BSML_RANK_SOCKET";
/// Child environment: this process's rank id.
pub const RANK_ID_ENV: &str = "BSML_RANK_ID";
/// Child environment: the machine width `p`.
pub const RANK_P_ENV: &str = "BSML_RANK_P";
/// Child environment: the [`program_fingerprint`] the child must echo
/// in its `Hello` and re-verify against the welcomed program text.
pub const RANK_FINGERPRINT_ENV: &str = "BSML_RANK_FINGERPRINT";

/// Deterministically SIGKILL one rank process — the chaos grid's
/// process-mode fault. `superstep = s` kills the rank as it *enters*
/// superstep `s` (it is withheld the barrier release that would let it
/// proceed past superstep `s - 1`; `s = 0` kills it in place of its
/// `Welcome`), which mirrors the in-process crash fault's
/// coordinate:
/// the newest committed checkpoint generation is `⌊s/k⌋·k`, so a
/// supervised resume replays exactly `s mod k` supersteps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KillSpec {
    /// The rank to kill.
    pub rank: usize,
    /// The superstep whose entry the kill lands on.
    pub superstep: u64,
    /// The attempt the kill is armed for, 0-based like
    /// [`crate::faults::Fault::attempt`] (`0` = the first attempt;
    /// retries run clean unless armed separately).
    pub attempt: u32,
}

/// Configuration of [`crate::Execution::Processes`].
#[derive(Clone, Debug, Default)]
pub struct ProcessConfig {
    /// Where the coordination socket lives. `None` creates (and
    /// removes) a fresh directory under the system temp dir — socket
    /// paths have a ~100-byte limit, so deep workspaces should leave
    /// this unset.
    pub socket_dir: Option<PathBuf>,
    /// The rank-runner binary. `None` falls back to [`RANK_BIN_ENV`],
    /// then to a `bsml-rank` sibling of the current executable.
    pub rank_binary: Option<PathBuf>,
    /// Connect/handshake deadline. `None` means
    /// [`DEFAULT_HANDSHAKE_TIMEOUT`].
    pub handshake_timeout: Option<Duration>,
    /// Ranks to SIGKILL at specific (superstep, attempt) coordinates.
    pub kills: Vec<KillSpec>,
    /// Where rank processes write their `.bsmlpm` flight-recorder
    /// bundles (exported to children as `BSML_POSTMORTEM_DIR`). `None`
    /// lets children inherit the parent's environment.
    pub postmortem_dir: Option<PathBuf>,
    /// Where the coordinator listens: a Unix-domain path or a TCP
    /// address. `None` binds one socket per fleet inside the socket
    /// directory.
    pub bind: Option<Bind>,
    /// Link severs to inject at specific (rank, superstep, attempt)
    /// coordinates — the partition-chaos counterpart of `kills`.
    pub link_faults: Vec<LinkFault>,
    /// Heartbeat period; zero disables heartbeats *and* the silence
    /// detection that depends on them, so links then fail only on hard
    /// socket errors. `None` means [`DEFAULT_HEARTBEAT`].
    pub heartbeat: Option<Duration>,
    /// Link grace window; zero disables link healing, so the first
    /// socket error is final. `None` means [`DEFAULT_LINK_GRACE`].
    pub link_grace: Option<Duration>,
    /// Accepted rejoin attempts per link per attempt before the parent
    /// rejects further reconnects and lets the rank die (demoting the
    /// failure to a respawn-from-checkpoint). `None` means
    /// [`DEFAULT_REJOIN_BUDGET`].
    pub rejoin_budget: Option<u32>,
    /// The rank fleets this config and its clones keep warm between
    /// runs (DESIGN.md §13): a run reuses the idle fleet launched with
    /// the same `p`, rank binary, bind and postmortem directory, and
    /// only a fleet's first run, or the first after a failure, pays
    /// for spawn, handshake and reap. Holds a resource, not a setting;
    /// the default starts empty.
    pub fleets: FleetPool,
}

impl ProcessConfig {
    /// Sets where the coordinator listens (builder-style).
    #[must_use]
    pub fn bind(mut self, bind: Bind) -> ProcessConfig {
        self.bind = Some(bind);
        self
    }
}

// ---------------------------------------------------------------------------
// Child side: postmortem accumulator, control hub, relay store
// ---------------------------------------------------------------------------

/// Accumulated flight events of a rank process. The ring's `drain` is
/// destructive, so periodic disk flushes (one per barrier release)
/// move events into this bounded accumulator — at SIGKILL time the
/// last flushed bundle survives on disk, which is what makes process
/// death postmortem-analyzable.
#[derive(Debug, Default)]
struct Accum {
    events: Vec<TimedFlightEvent>,
    /// Events the accumulator itself evicted to stay bounded (on top
    /// of what the ring dropped).
    evicted: u64,
}

/// A rank process's own postmortem writer: single-rank
/// [`PostmortemBundle`]s written tmp-then-rename (a kill mid-write
/// leaves the previous complete bundle, never a torn one).
#[derive(Debug)]
pub(crate) struct ChildPostmortem {
    path: PathBuf,
    p: usize,
    attempt: u32,
    rank: usize,
    recorder: Arc<FlightRecorder>,
    accum: Mutex<Accum>,
    capacity: usize,
}

impl ChildPostmortem {
    /// Creates the writer (and the directory). Returns `None` when the
    /// directory cannot be created — postmortems are best-effort and
    /// never fail a run.
    fn new(
        dir: &Path,
        rank: usize,
        p: usize,
        attempt: u32,
        fingerprint: u64,
        recorder: Arc<FlightRecorder>,
        capacity: usize,
    ) -> Option<ChildPostmortem> {
        std::fs::create_dir_all(dir).ok()?;
        let path = dir.join(format!(
            "pm-rank{rank}-{fingerprint:016x}-p{p}-attempt{attempt}.bsmlpm"
        ));
        Some(ChildPostmortem {
            path,
            p,
            attempt,
            rank,
            recorder,
            accum: Mutex::new(Accum::default()),
            capacity,
        })
    }

    /// Moves everything currently in the ring into the accumulator and
    /// returns (total dropped, accumulated events).
    fn snapshot(&self) -> (u64, Vec<TimedFlightEvent>) {
        let mut accum = lock(&self.accum);
        accum.events.extend(self.recorder.drain());
        if accum.events.len() > self.capacity {
            let overflow = accum.events.len() - self.capacity;
            accum.events.drain(..overflow);
            accum.evicted += overflow as u64;
        }
        (
            self.recorder.dropped() + accum.evicted,
            accum.events.clone(),
        )
    }

    /// Writes the current accumulated history as a one-rank bundle.
    /// Best-effort: I/O failures are swallowed (a rank must never die
    /// of its own black box).
    fn flush(&self, error: &str, error_rank: Option<u64>, error_superstep: Option<u64>) {
        let (dropped, events) = self.snapshot();
        let bundle = PostmortemBundle::new(
            self.p,
            self.attempt,
            error.to_string(),
            error_rank,
            error_superstep,
            FlightLog {
                ranks: vec![RankFlightLog {
                    rank: self.rank,
                    dropped,
                    events,
                }],
            },
        );
        let tmp = self.path.with_extension("tmp");
        if std::fs::write(&tmp, bundle.encode()).is_ok() {
            let _ = std::fs::rename(&tmp, &self.path);
        }
    }
}

/// State the driver blocks on: during a run, the parent's latest
/// `RecvCounts`, releases observed so far and the poison flag; between
/// runs, the next `Welcome` or the poison flag, which the reader raises
/// when it stops.
#[derive(Debug, Default)]
struct BarrierProgress {
    /// The superstep and per-source counts of a `RecvCounts` not yet
    /// taken by its count round.
    recv_counts: Option<(u64, Vec<u64>)>,
    releases: u64,
    poisoned: bool,
    /// A run is in progress: from its `Welcome` until this rank reports.
    running: bool,
    /// A `Welcome` the driver has not taken yet.
    welcome: Option<CtlMsg>,
}

/// Frames the per-link egress buffer retains for replay. 4096 frames
/// comfortably covers everything in flight across one sever (a
/// superstep's worth of deliveries plus control traffic) without
/// letting a long run grow without bound.
const EGRESS_CAPACITY: usize = 4096;

/// A bounded ring of encoded session frames already handed to one
/// link, indexed by cumulative send count. After a reconnect, the
/// peer's resume token (how many session frames *it* received) selects
/// the suffix to replay: exactly the frames that were in flight or
/// buffered when the socket died. Heartbeats and rejoin-handshake
/// messages bypass the ring (they are link-scoped, not session-scoped),
/// which keeps the two sides' counts in agreement.
#[derive(Debug, Default)]
struct EgressRing {
    /// Cumulative index of `frames[0]` (frames evicted so far).
    base: u64,
    frames: VecDeque<Vec<u8>>,
}

impl EgressRing {
    fn push(&mut self, bytes: Vec<u8>) {
        if self.frames.len() == EGRESS_CAPACITY {
            self.frames.pop_front();
            self.base += 1;
        }
        self.frames.push_back(bytes);
    }

    /// Cumulative count of frames ever pushed.
    fn sent(&self) -> u64 {
        self.base + self.frames.len() as u64
    }

    /// Forgets every frame: the peer has seen them all (its run ended
    /// with every report in). Counts stay cumulative.
    fn clear(&mut self) {
        self.base = self.sent();
        self.frames.clear();
    }

    /// The frames the peer has not seen, oldest first — `None` when
    /// the token predates the ring (the missing frames are gone, the
    /// link cannot be healed) or claims more than was ever sent (a
    /// protocol violation).
    fn replay_from(&self, token: u64) -> Option<Vec<&Vec<u8>>> {
        if token < self.base || token > self.sent() {
            return None;
        }
        let skip = (token - self.base) as usize;
        Some(self.frames.iter().skip(skip).collect())
    }
}

/// A rank process's end of the parent's control stream: the writer
/// half plus everything the reader thread routes off the stream
/// (welcomes, delivered frames, receive counts, barrier releases,
/// poison). This is what [`crate::distributed::SyncBackend::Remote`]
/// and [`SocketTransport`] talk to.
///
/// The link state (writer, egress ring, resume-token counts, Lamport
/// clock) lives as long as the process; everything else belongs to
/// one run and starts fresh at each `Welcome`.
#[derive(Debug)]
pub(crate) struct RemoteHub {
    writer: Mutex<RankStream>,
    /// Data frames the parent routed to this rank, in arrival order.
    inbound: Mutex<VecDeque<Vec<u8>>>,
    barrier: Mutex<BarrierProgress>,
    barrier_cv: Condvar,
    /// The frame bytes [`RelayStore`] staged since the last barrier,
    /// shipped with the next `BarrierEnter`.
    staged: Mutex<Option<Vec<u8>>>,
    /// The current run's fingerprint, link settings and black box.
    run: Mutex<RunLink>,
    /// Where to reconnect when the link dies. `None` (the in-crate
    /// test harness over a socketpair) disables healing: the first
    /// stream error poisons, as before link supervision.
    endpoint: Option<String>,
    rank: usize,
    p: usize,
    /// Where each run's postmortem bundle goes (the spawn
    /// environment's [`POSTMORTEM_DIR_ENV`]).
    postmortem_dir: Option<PathBuf>,
    /// Session frames already written to the parent, kept for replay.
    egress: Mutex<EgressRing>,
    /// Session frames received from the parent — the resume token this
    /// side offers in its `Rejoin`.
    recvd: AtomicU64,
    /// Supersteps this rank has entered the exit barrier of — the
    /// claim a `Rejoin` carries, validated against the parent's count.
    completed: AtomicU64,
    /// Bumped (under `link_generation`) each time the link is healed;
    /// senders parked on a dead writer wake on the bump and rely on
    /// the replay instead of re-writing.
    link_generation: Mutex<u64>,
    link_cv: Condvar,
    /// The rank's Lamport clock, shared with the driver so heartbeat
    /// and flight-recorder stamps interleave correctly with protocol
    /// events (DESIGN.md §12).
    pub(crate) lamport: Arc<AtomicU64>,
}

/// What one run welcomed: the program's fingerprint (which a `Rejoin`
/// names), the link settings, and the run's black box.
#[derive(Debug, Default)]
struct RunLink {
    fingerprint: u64,
    /// Heartbeat period: `ZERO` disables silence detection (the
    /// reader then blocks without a deadline).
    heartbeat: Duration,
    /// Grace window bounding both silence detection and the heal
    /// loop. `ZERO` disables healing.
    link_grace: Duration,
    /// Where `LinkDown`/`LinkUp` are recorded (the driver's ring).
    recorder: Option<Arc<FlightRecorder>>,
    /// Flushed after every barrier release so a later SIGKILL still
    /// leaves an on-disk bundle.
    postmortem: Option<Arc<ChildPostmortem>>,
}

impl RemoteHub {
    #[cfg(test)]
    fn new(writer: RankStream) -> Arc<RemoteHub> {
        RemoteHub::with_link(writer, None, 0, 1, None)
    }

    fn with_link(
        writer: RankStream,
        endpoint: Option<String>,
        rank: usize,
        p: usize,
        postmortem_dir: Option<PathBuf>,
    ) -> Arc<RemoteHub> {
        Arc::new(RemoteHub {
            writer: Mutex::new(writer),
            inbound: Mutex::new(VecDeque::new()),
            barrier: Mutex::new(BarrierProgress::default()),
            barrier_cv: Condvar::new(),
            staged: Mutex::new(None),
            run: Mutex::new(RunLink::default()),
            endpoint,
            rank,
            p,
            postmortem_dir,
            egress: Mutex::new(EgressRing::default()),
            recvd: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            link_generation: Mutex::new(0),
            link_cv: Condvar::new(),
            lamport: Arc::new(AtomicU64::new(0)),
        })
    }

    /// Starts the run a `Welcome` names: per-run state starts fresh,
    /// the run's link settings and black box take effect, and the
    /// `Welcome` waits for the driver. Called by the reader, so the
    /// run's first frames cannot overtake it.
    fn begin_run(&self, welcome: CtlMsg) {
        let CtlMsg::Welcome {
            fingerprint,
            flight_capacity,
            heartbeat_ms,
            link_grace_ms,
            attempt,
            ..
        } = welcome
        else {
            return;
        };
        // Flight recording: the welcomed capacity, or — like the
        // supervisor — implied at the default capacity by a postmortem
        // directory in the environment.
        let capacity = if flight_capacity > 0 {
            flight_capacity as usize
        } else if self.postmortem_dir.is_some() {
            DEFAULT_FLIGHT_CAPACITY
        } else {
            0
        };
        let recorder = (capacity > 0).then(|| Arc::new(FlightRecorder::new(capacity)));
        let postmortem = match (&self.postmortem_dir, &recorder) {
            (Some(dir), Some(rec)) => ChildPostmortem::new(
                dir,
                self.rank,
                self.p,
                attempt,
                fingerprint,
                Arc::clone(rec),
                capacity,
            )
            .map(Arc::new),
            _ => None,
        };
        // An (empty) bundle exists before superstep 0 runs: even a rank
        // SIGKILLed immediately leaves an analyzable trace.
        if let Some(pm) = &postmortem {
            pm.flush("", None, None);
        }
        *lock(&self.run) = RunLink {
            fingerprint,
            heartbeat: Duration::from_millis(heartbeat_ms),
            link_grace: Duration::from_millis(link_grace_ms),
            recorder,
            postmortem,
        };
        // The parent read every frame of the last run before it sent
        // this `Welcome`.
        lock(&self.egress).clear();
        lock(&self.inbound).clear();
        *lock(&self.staged) = None;
        self.completed.store(0, Ordering::Release);
        *lock(&self.barrier) = BarrierProgress {
            running: true,
            welcome: Some(welcome),
            ..BarrierProgress::default()
        };
        self.barrier_cv.notify_all();
    }

    /// Waits for the next run's `Welcome`: `None` once the link is
    /// poisoned (the reader stopped, or the parent is tearing the
    /// fleet down), or when `timeout` elapses first.
    fn next_welcome(&self, timeout: Option<Duration>) -> Option<CtlMsg> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut b = lock(&self.barrier);
        loop {
            if let Some(welcome) = b.welcome.take() {
                return Some(welcome);
            }
            if b.poisoned {
                return None;
            }
            b = match deadline {
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return None;
                    }
                    self.barrier_cv
                        .wait_timeout(b, d - now)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
                None => self
                    .barrier_cv
                    .wait(b)
                    .unwrap_or_else(PoisonError::into_inner),
            };
        }
    }

    /// Ends the run before this rank reports it: from here on, the end
    /// of the stream closes the rank instead of starting a heal.
    fn end_run(&self) {
        lock(&self.barrier).running = false;
    }

    fn is_running(&self) -> bool {
        lock(&self.barrier).running
    }

    /// The silence deadline of the current read: the grace window
    /// while a supervised run is in progress, `None` (read without a
    /// deadline) between runs, since no pings flow then.
    fn silence(&self) -> Option<Duration> {
        let running = self.is_running();
        let run = lock(&self.run);
        (running && !run.heartbeat.is_zero() && !run.link_grace.is_zero()).then_some(run.link_grace)
    }

    fn link_grace(&self) -> Duration {
        lock(&self.run).link_grace
    }

    /// Records a link event at a fresh Lamport stamp, if recording.
    fn flight(&self, event: FlightEvent) {
        if let Some(rec) = lock(&self.run).recorder.as_ref() {
            let stamp = self.lamport.fetch_add(1, Ordering::AcqRel) + 1;
            rec.record(stamp, event);
        }
    }

    /// Sends one *session* frame: pushed to the egress ring first (so
    /// a replay can resend it), then written. A write error does not
    /// fail the send outright — the frame is already in the ring, so
    /// the sender parks until the reader thread heals the link (the
    /// replay delivers the frame; re-writing here would duplicate it)
    /// and only errors when healing gives up.
    fn send(&self, msg: &CtlMsg) -> io::Result<()> {
        let bytes = msg.encode();
        let mut w = lock(&self.writer);
        lock(&self.egress).push(bytes.clone());
        let seen = *lock(&self.link_generation);
        match w.write_all(&bytes) {
            Ok(()) => Ok(()),
            Err(err) => {
                drop(w);
                self.await_heal(seen, err)
            }
        }
    }

    /// Writes one *link-scoped* frame (heartbeat replies): never
    /// buffered, never replayed, failures ignored — the read side
    /// notices a dead link soon enough.
    fn send_bypass(&self, msg: &CtlMsg) {
        let _ = write_ctl(&mut *lock(&self.writer), msg);
    }

    /// Parks a sender whose write failed until the reader thread heals
    /// the link (generation bump) or the run is poisoned. Bounded by
    /// twice the grace window as a backstop against a reader that can
    /// make no progress at all.
    fn await_heal(&self, seen: u64, err: io::Error) -> io::Result<()> {
        let grace = self.link_grace();
        if self.endpoint.is_none() || grace.is_zero() {
            return Err(err);
        }
        let deadline = Instant::now() + grace * 2;
        let mut generation = lock(&self.link_generation);
        loop {
            if *generation > seen {
                return Ok(());
            }
            if self.is_poisoned() || Instant::now() >= deadline {
                return Err(err);
            }
            generation = self
                .link_cv
                .wait_timeout(generation, Duration::from_millis(50))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Routes one data-plane frame toward `dst` through the parent. A
    /// dead stream (`EPIPE`, a closed parent) poisons the run locally;
    /// the frame is reported "accepted" because the run is about to
    /// unwind through the poison path anyway — never a panic.
    pub(crate) fn send_data(&self, dst: usize, bytes: &[u8]) {
        if self
            .send(&CtlMsg::Data {
                dst,
                frame: bytes.to_vec(),
            })
            .is_err()
        {
            self.poison_local();
        }
    }

    /// Pops the next parent-routed frame, if any.
    pub(crate) fn recv_data(&self) -> Option<Vec<u8>> {
        lock(&self.inbound).pop_front()
    }

    fn poison_local(&self) {
        lock(&self.barrier).poisoned = true;
        self.barrier_cv.notify_all();
    }

    /// Declares the run dead locally *and* tells the parent (which
    /// broadcasts to the peers).
    pub(crate) fn poison(&self) {
        self.poison_local();
        let _ = self.send(&CtlMsg::Poison);
    }

    /// Whether anyone — a peer, the parent, or a local stream failure
    /// — declared the run dead.
    pub(crate) fn is_poisoned(&self) -> bool {
        lock(&self.barrier).poisoned
    }

    /// Stashes staged checkpoint-frame bytes for the next
    /// `BarrierEnter` (called by [`RelayStore::stage`]).
    fn stage(&self, bytes: Vec<u8>) {
        *lock(&self.staged) = Some(bytes);
    }

    /// The remote count round: ships this rank's per-destination frame
    /// counts — behind every `Data` frame of the superstep, on the same
    /// FIFO stream — and waits for the parent's `RecvCounts`. The
    /// parent sends that only after routing every peer's frames to this
    /// rank's stream, so when it returns the frames it announces are
    /// already in the inbound queue.
    ///
    /// # Errors
    ///
    /// As for [`RemoteHub::barrier_enter`].
    pub(crate) fn count_round(
        &self,
        superstep: u64,
        to: Vec<u64>,
        timeout: Duration,
    ) -> Result<Vec<u64>, EvalError> {
        if self.is_poisoned() {
            return Err(EvalError::PeerFailure);
        }
        if self.send(&CtlMsg::SendCounts { superstep, to }).is_err() {
            self.poison_local();
            return Err(EvalError::PeerFailure);
        }
        self.await_parent(superstep, timeout, |b| {
            b.recv_counts
                .take_if(|(s, _)| *s == superstep)
                .map(|(_, from)| from)
        })
    }

    /// The remote superstep exit barrier: announce arrival (shipping
    /// any staged frame) and wait for the parent's release.
    ///
    /// # Errors
    ///
    /// [`EvalError::PeerFailure`] when the run is poisoned (before or
    /// during the wait) or the stream dies;
    /// [`EvalError::BarrierTimeout`] when `timeout` elapses first —
    /// which also poisons the run, so peers unwind too.
    pub(crate) fn barrier_enter(&self, superstep: u64, timeout: Duration) -> Result<(), EvalError> {
        let staged = lock(&self.staged).take();
        let postmortem = lock(&self.run).postmortem.clone();
        let target = {
            let b = lock(&self.barrier);
            if b.poisoned {
                return Err(EvalError::PeerFailure);
            }
            b.releases + 1
        };
        // Flush *before* announcing arrival: the caller has already
        // recorded this round's `BarrierEnter` in the ring, and a
        // `KillSpec` SIGKILL can land any time after the parent sees
        // the announcement — flushing first makes the bundle durable
        // (events up to and including the fatal barrier entry) before
        // the parent can possibly react.
        if let Some(pm) = &postmortem {
            pm.flush("", None, None);
        }
        // Count *before* sending: the parent counts the superstep
        // completed the instant it reads the `BarrierEnter`, and the
        // reader thread may present a `Rejoin` claim in the window
        // between our send and our bookkeeping — counting first keeps
        // this side's claim at least as new as the parent's, so a
        // genuine rejoin is never rejected as stale.
        self.completed.fetch_max(superstep + 1, Ordering::AcqRel);
        if self
            .send(&CtlMsg::BarrierEnter { superstep, staged })
            .is_err()
        {
            self.poison_local();
            return Err(EvalError::PeerFailure);
        }
        self.await_parent(superstep, timeout, |b| (b.releases >= target).then_some(()))?;
        // A completed superstep is a durability point: flush the ring
        // so a SIGKILL anywhere in the *next* superstep still leaves
        // an analyzable bundle on disk.
        if let Some(pm) = &postmortem {
            pm.flush("", None, None);
        }
        Ok(())
    }

    /// Blocks until `ready` takes what this wait is for out of the
    /// progress state, the run is poisoned, or `timeout` elapses —
    /// which also poisons the run, so peers unwind too.
    fn await_parent<T>(
        &self,
        superstep: u64,
        timeout: Duration,
        mut ready: impl FnMut(&mut BarrierProgress) -> Option<T>,
    ) -> Result<T, EvalError> {
        let deadline = Instant::now() + timeout;
        let mut b = lock(&self.barrier);
        loop {
            if b.poisoned {
                return Err(EvalError::PeerFailure);
            }
            if let Some(out) = ready(&mut b) {
                return Ok(out);
            }
            let now = Instant::now();
            if now >= deadline {
                b.poisoned = true;
                self.barrier_cv.notify_all();
                drop(b);
                let _ = self.send(&CtlMsg::Poison);
                // The caller's `timed_barrier` retags the superstep;
                // `waiting` is 1 because a rank process only knows
                // about itself.
                return Err(EvalError::BarrierTimeout {
                    superstep,
                    waiting: 1,
                });
            }
            b = self
                .barrier_cv
                .wait_timeout(b, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Routes one parent→child message into the hub's state (the
    /// reader thread's dispatch).
    fn absorb(&self, msg: CtlMsg) {
        match msg {
            CtlMsg::Welcome { .. } => self.begin_run(msg),
            CtlMsg::Deliver { frame } => lock(&self.inbound).push_back(frame),
            CtlMsg::RecvCounts { superstep, from } => {
                lock(&self.barrier).recv_counts = Some((superstep, from));
                self.barrier_cv.notify_all();
            }
            CtlMsg::BarrierRelease { .. } => {
                lock(&self.barrier).releases += 1;
                self.barrier_cv.notify_all();
            }
            CtlMsg::Poison => self.poison_local(),
            // Child→parent shapes on a parent→child stream: a protocol
            // bug upstream; ignoring them is safe (the run's health is
            // carried by the messages above).
            _ => {}
        }
    }

    /// Tries to heal a dead link: reconnect to the parent's endpoint,
    /// re-handshake with `Rejoin`, replay our egress suffix from the
    /// parent's resume token, swap the writer, and wake parked
    /// senders. Returns the new reader half, or `None` when healing is
    /// off, the grace window expired, or the parent rejected us.
    ///
    /// The connect deadline resets on every *accepted* connection: a
    /// flap storm (the parent deliberately severing accepted rejoins)
    /// is bounded by the parent's rejoin budget, not by this window.
    fn heal_link(&self) -> Option<RankStream> {
        let endpoint = self.endpoint.as_deref()?;
        let grace = self.link_grace();
        if grace.is_zero() {
            return None;
        }
        self.flight(FlightEvent::LinkDown {
            rank: self.rank as u64,
            superstep: self.completed.load(Ordering::Acquire),
        });
        let mut deadline = Instant::now() + grace;
        loop {
            if self.is_poisoned() || Instant::now() >= deadline {
                return None;
            }
            let Ok(mut stream) = RankStream::connect(endpoint) else {
                std::thread::sleep(Duration::from_millis(10));
                continue;
            };
            deadline = Instant::now() + grace;
            match self.rejoin_over(&mut stream, grace) {
                RejoinResult::Healed => {
                    self.flight(FlightEvent::LinkUp {
                        rank: self.rank as u64,
                        superstep: self.completed.load(Ordering::Acquire),
                    });
                    return Some(stream);
                }
                RejoinResult::Rejected => return None,
                RejoinResult::Retry => std::thread::sleep(Duration::from_millis(10)),
            }
        }
    }

    /// One rejoin handshake over a fresh connection: offer our resume
    /// token, learn the parent's, replay our unseen suffix, swap the
    /// writer and bump the link generation.
    fn rejoin_over(&self, stream: &mut RankStream, grace: Duration) -> RejoinResult {
        if stream.set_read_timeout(Some(grace)).is_err() {
            return RejoinResult::Retry;
        }
        let rejoin = CtlMsg::Rejoin {
            rank: self.rank,
            fingerprint: lock(&self.run).fingerprint,
            completed_superstep: self.completed.load(Ordering::Acquire),
            resume_token: self.recvd.load(Ordering::Acquire),
        };
        if write_ctl(stream, &rejoin).is_err() {
            return RejoinResult::Retry;
        }
        let token = match read_ctl(stream) {
            Ok(CtlMsg::RejoinOk { resume_token }) => resume_token,
            Ok(CtlMsg::Reject { .. }) => return RejoinResult::Rejected,
            // A severed accept (flap) or a torn reply: reconnect.
            Ok(_) | Err(_) => return RejoinResult::Retry,
        };
        if stream.set_read_timeout(None).is_err() {
            return RejoinResult::Retry;
        }
        let Ok(mut writer) = stream.try_clone() else {
            return RejoinResult::Retry;
        };
        {
            let mut w = lock(&self.writer);
            let egress = lock(&self.egress);
            // A token outside the ring cannot be honored; the link is
            // beyond healing (the parent will escalate to rank death).
            let frames = match egress.replay_from(token) {
                Some(frames) => frames,
                None => return RejoinResult::Rejected,
            };
            for frame in frames {
                if writer.write_all(frame).is_err() {
                    return RejoinResult::Retry;
                }
            }
            drop(egress);
            *w = writer;
        }
        let mut generation = lock(&self.link_generation);
        *generation += 1;
        drop(generation);
        self.link_cv.notify_all();
        RejoinResult::Healed
    }
}

enum RejoinResult {
    Healed,
    Rejected,
    Retry,
}

/// How often a reader with a silence deadline wakes to check it.
const SILENCE_TICK: Duration = Duration::from_millis(50);

/// Reads one control frame with a silence deadline: short read
/// timeouts accumulate bytes, and a gap of more than `grace` since the
/// last traffic is reported as a timeout error (the heal trigger for
/// links that die silently, like a frozen parent writer). A frame
/// abandoned half-read is safe: the resume token only counts complete
/// frames, so the replay resends it whole. Returns `None` when the run
/// ended (`ended`) before the next frame began, so that the caller
/// reads on without a deadline.
fn read_ctl_deadline(
    stream: &mut RankStream,
    grace: Duration,
    last_traffic: &mut Instant,
    ended: impl Fn() -> bool,
) -> io::Result<Option<CtlMsg>> {
    let mut frame = vec![0u8; 4];
    let mut have = 0usize;
    loop {
        match stream.read(&mut frame[have..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "parent closed the control stream",
                ))
            }
            Ok(n) => {
                have += n;
                *last_traffic = Instant::now();
                if have == 4 && frame.len() == 4 {
                    let len = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]) as usize;
                    if len == 0 || len > MAX_CTL_FRAME {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("control frame of {len} byte(s) is outside the legal range"),
                        ));
                    }
                    frame.resize(4 + len, 0);
                }
                if have == frame.len() && frame.len() > 4 {
                    return CtlMsg::decode(&frame)
                        .map(Some)
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()));
                }
            }
            Err(err)
                if err.kind() == io::ErrorKind::WouldBlock
                    || err.kind() == io::ErrorKind::TimedOut =>
            {
                if have == 0 && ended() {
                    return Ok(None);
                }
                if last_traffic.elapsed() > grace {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("no link traffic within the {grace:?} grace window"),
                    ));
                }
            }
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
            Err(err) => return Err(err),
        }
    }
}

/// The reader half of a rank process: routes every parent message into
/// the hub until the stream dies. During a run it then tries to *heal*
/// the link (reconnect + rejoin + replay) before giving up and
/// poisoning the run (a vanished parent must not leave the rank
/// waiting forever); between runs the end of the stream closes the
/// rank. Heartbeat pings are answered here, so the rank stays
/// observably alive even while its driver thread is parked at a
/// barrier.
fn run_child_reader(hub: &RemoteHub, mut stream: RankStream) {
    // Whether the stream carries the short read timeout that silence
    // detection polls with.
    let mut ticking = false;
    let mut last_traffic = Instant::now();
    loop {
        let silence = hub.silence();
        if silence.is_some() != ticking {
            if stream
                .set_read_timeout(silence.map(|_| SILENCE_TICK))
                .is_err()
            {
                hub.poison_local();
                return;
            }
            ticking = silence.is_some();
            last_traffic = Instant::now();
        }
        let next = match silence {
            Some(grace) => {
                read_ctl_deadline(&mut stream, grace, &mut last_traffic, || !hub.is_running())
            }
            None => read_ctl(&mut stream).map(Some),
        };
        match next {
            Ok(None) => {}
            Ok(Some(CtlMsg::Ping { lamport })) => {
                hub.lamport.fetch_max(lamport, Ordering::AcqRel);
                let stamp = hub.lamport.fetch_add(1, Ordering::AcqRel) + 1;
                hub.send_bypass(&CtlMsg::Pong { lamport: stamp });
            }
            Ok(Some(msg)) => {
                hub.recvd.fetch_add(1, Ordering::AcqRel);
                hub.absorb(msg);
            }
            // Between runs, the end of the stream is the parent letting
            // this rank go (or the parent gone): nothing to heal.
            Err(_) if !hub.is_running() => {
                hub.poison_local();
                return;
            }
            Err(_) => match hub.heal_link() {
                Some(healed) => {
                    // A healed stream reads without a timeout until the
                    // loop sets the tick again.
                    stream = healed;
                    ticking = false;
                }
                None => {
                    hub.poison_local();
                    return;
                }
            },
        }
    }
}

/// The child-side [`CheckpointStore`]: staging hands the encoded frame
/// to the hub (shipped with the next `BarrierEnter`); committing,
/// loading and listing are the *parent's* job, so they are inert here.
#[derive(Debug)]
struct RelayStore {
    hub: Arc<RemoteHub>,
}

impl CheckpointStore for RelayStore {
    fn stage(&self, frame: &RankFrame) -> Result<u64, CheckpointError> {
        let bytes = frame.encode();
        let len = bytes.len() as u64;
        self.hub.stage(bytes);
        Ok(len)
    }

    fn commit(&self, _generation: u64, _p: usize) -> Result<u64, CheckpointError> {
        // Unreachable in practice: the remote sync backend never takes
        // the local commit path. Harmless if reached.
        Ok(0)
    }

    fn generations(&self) -> Vec<u64> {
        Vec::new()
    }

    fn load(
        &self,
        generation: u64,
        _p: usize,
        _fingerprint: u64,
    ) -> Result<Vec<RankFrame>, CheckpointError> {
        Err(CheckpointError::NotCommitted { generation })
    }

    fn clear(&self) {}
}

// ---------------------------------------------------------------------------
// Child side: the rank process entry point
// ---------------------------------------------------------------------------

fn env_string(name: &str) -> Result<String, String> {
    std::env::var(name).map_err(|_| format!("{name} is not set — am I running under the launcher?"))
}

fn env_u64(name: &str) -> Result<u64, String> {
    env_string(name)?
        .trim()
        .parse::<u64>()
        .map_err(|e| format!("{name} does not parse: {e}"))
}

/// The `bsml-rank` binary's whole life: connect, handshake, then run
/// one rank of every run the parent welcomes on the same stream.
/// Returns the process exit code (0 = every run reported `Done` and
/// the parent closed the link, 1 = a run failed and reported `Fatal`,
/// 2 = could not even start). Factored out of the binary so the
/// protocol is testable in-crate.
#[must_use]
pub fn rank_main() -> i32 {
    match rank_process() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("bsml-rank: {msg}");
            2
        }
    }
}

fn rank_process() -> Result<i32, String> {
    let socket = env_string(RANK_SOCKET_ENV)?;
    let rank = env_u64(RANK_ID_ENV)? as usize;
    let p = env_u64(RANK_P_ENV)? as usize;
    let fingerprint = env_u64(RANK_FINGERPRINT_ENV)?;
    let mut stream =
        RankStream::connect(&socket).map_err(|e| format!("connect to {socket}: {e}"))?;
    write_ctl(&mut stream, &CtlMsg::hello(fingerprint, rank, p))
        .map_err(|e| format!("send hello: {e}"))?;
    let hub = RemoteHub::with_link(
        stream
            .try_clone()
            .map_err(|e| format!("socket clone: {e}"))?,
        Some(socket),
        rank,
        p,
        bsml_obs::env::path_knob(POSTMORTEM_DIR_ENV),
    );
    let reader_hub = Arc::clone(&hub);
    std::thread::spawn(move || run_child_reader(&reader_hub, stream));

    // The handshake deadline guards the child too: a parent that
    // accepts but never welcomes must not hang the process.
    let mut welcome = hub
        .next_welcome(Some(DEFAULT_HANDSHAKE_TIMEOUT))
        .ok_or("the parent rejected the handshake or sent no welcome")?;
    loop {
        if !run_welcomed(&hub, welcome)? {
            return Ok(1);
        }
        // Idle until the next run; the parent closing the link (or
        // dying) ends the process.
        match hub.next_welcome(None) {
            Some(next) => welcome = next,
            None => return Ok(0),
        }
    }
}

/// Runs this rank of the run one `Welcome` names and reports it home.
/// Returns whether the report was `Done` (`false`: `Fatal`).
fn run_welcomed(hub: &Arc<RemoteHub>, welcome: CtlMsg) -> Result<bool, String> {
    let CtlMsg::Welcome {
        program,
        fingerprint,
        fuel,
        barrier_timeout_ms,
        checkpoint_interval,
        attempt,
        faults,
        resume_frame,
        ..
    } = welcome
    else {
        return Err("the parent sent a run without a Welcome".to_string());
    };
    let parsed = bsml_syntax::parse(&program).map_err(|e| format!("program re-parse: {e}"))?;
    let reparsed = program_fingerprint(&parsed, hub.p);
    if reparsed != fingerprint {
        return Err(format!(
            "program fingerprint mismatch: welcomed for {fingerprint:#018x}, \
             the welcomed program hashes to {reparsed:#018x}"
        ));
    }

    let (recorder, postmortem) = {
        let run = lock(&hub.run);
        (run.recorder.clone(), run.postmortem.clone())
    };
    let transport: Arc<dyn Transport> = Arc::new(SocketTransport::new(Arc::clone(hub)));
    let plan = (!faults.is_empty()).then(|| Arc::new(FaultPlan::from_faults(faults)));
    let checkpoint = (checkpoint_interval > 0).then(|| {
        (
            checkpoint_interval,
            Arc::new(RelayStore {
                hub: Arc::clone(hub),
            }) as Arc<dyn CheckpointStore>,
            fingerprint,
        )
    });
    let replay = match resume_frame {
        Some(bytes) => Some(RankFrame::decode(&bytes).map_err(|e| format!("resume frame: {e}"))?),
        None => None,
    };

    let run_hub = Arc::clone(hub);
    let run_recorder = recorder.clone();
    // The unwind guard mirrors `run_rank`: a panic (injected or real)
    // must still poison the peers and report `Fatal`, not kill the
    // process silently.
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_remote_rank(
            hub.rank,
            hub.p,
            run_hub,
            transport,
            &parsed,
            fuel,
            Duration::from_millis(barrier_timeout_ms),
            plan,
            attempt,
            checkpoint,
            run_recorder,
            replay,
        )
    }));
    let (result, ledger) = match caught {
        Ok(pair) => pair,
        Err(_) => {
            hub.poison();
            (Err(EvalError::PeerFailure), CtlLedger::default())
        }
    };

    // Final black box + report. Flush before reporting so the on-disk
    // bundle exists even if the parent is already gone.
    let (flight_dropped, flight) = match (&postmortem, &recorder) {
        (Some(pm), _) => {
            match &result {
                Ok(_) => pm.flush("", None, None),
                Err(err) => {
                    let (error_rank, error_superstep) = error_coordinate(err);
                    pm.flush(&err.to_string(), error_rank, error_superstep);
                }
            }
            pm.snapshot()
        }
        (None, Some(rec)) => (rec.dropped(), rec.drain()),
        (None, None) => (0, Vec::new()),
    };
    match result {
        Ok((value, stats, work)) => {
            hub.end_run();
            let _ = hub.send(&CtlMsg::Done {
                value,
                stats,
                work,
                ledger,
                flight_dropped,
                flight,
            });
            Ok(true)
        }
        Err(error) => {
            let _ = hub.send(&CtlMsg::Fatal {
                error,
                ledger,
                flight_dropped,
                flight,
            });
            Ok(false)
        }
    }
}

// ---------------------------------------------------------------------------
// Parent side: launcher, router, crash detection
// ---------------------------------------------------------------------------

/// Validates a claimed `Hello` against what the parent expects from
/// the fleet it spawned (`taken[r]` marks ranks that already
/// connected). Returns the authenticated rank id.
///
/// # Errors
///
/// A human-readable refusal (sent back as [`CtlMsg::Reject`]): wrong
/// magic, version skew, fingerprint mismatch, wrong `p`, out-of-range
/// or duplicate rank — and a non-`Hello` first message.
pub fn validate_hello(
    msg: &CtlMsg,
    fingerprint: u64,
    p: usize,
    taken: &[bool],
) -> Result<usize, String> {
    let CtlMsg::Hello {
        magic,
        version,
        fingerprint: theirs,
        rank,
        p: their_p,
    } = msg
    else {
        return Err("first message is not a Hello".to_string());
    };
    if *magic != CTL_MAGIC {
        return Err(format!(
            "not a BSML rank: magic {magic:#018x}, expected {CTL_MAGIC:#018x}"
        ));
    }
    if *version != PROTOCOL_VERSION {
        return Err(format!(
            "protocol version skew: rank speaks v{version}, parent speaks v{PROTOCOL_VERSION}"
        ));
    }
    if *theirs != fingerprint {
        return Err(format!(
            "program fingerprint mismatch: rank was spawned for {theirs:#018x}, \
             parent is running {fingerprint:#018x}"
        ));
    }
    if *their_p != p {
        return Err(format!(
            "machine width mismatch: rank believes p = {their_p}, parent has p = {p}"
        ));
    }
    if *rank >= p {
        return Err(format!("rank {rank} out of range for p = {p}"));
    }
    if taken[*rank] {
        return Err(format!("duplicate connection for rank {rank}"));
    }
    Ok(*rank)
}

/// Validates a claimed `Rejoin` against the fleet the parent is
/// supervising: `completed[r]` is the parent's count of supersteps
/// rank `r` has entered the exit barrier of. The rejoining side's
/// claim may be *newer* (its `BarrierEnter` can be lost in flight —
/// the replay redelivers it) but never older: a stale claim means the
/// connecting process is not the rank the parent has been talking to.
/// Returns the authenticated rank id.
///
/// # Errors
///
/// A human-readable refusal (sent back as [`CtlMsg::Reject`]): wrong
/// fingerprint, out-of-range rank, a stale superstep claim — and a
/// non-`Rejoin` first message.
pub fn validate_rejoin(
    msg: &CtlMsg,
    fingerprint: u64,
    p: usize,
    completed: &[u64],
) -> Result<usize, String> {
    let CtlMsg::Rejoin {
        rank,
        fingerprint: theirs,
        completed_superstep,
        ..
    } = msg
    else {
        return Err("first message on a rejoin connection is not a Rejoin".to_string());
    };
    if *theirs != fingerprint {
        return Err(format!(
            "program fingerprint mismatch: rejoin claims {theirs:#018x}, \
             parent is running {fingerprint:#018x}"
        ));
    }
    if *rank >= p {
        return Err(format!("rank {rank} out of range for p = {p}"));
    }
    if *completed_superstep < completed[*rank] {
        return Err(format!(
            "stale rejoin: rank {rank} claims {completed_superstep} completed superstep(s), \
             the parent has seen {}",
            completed[*rank]
        ));
    }
    Ok(*rank)
}

/// What one rank shipped home in its `Done` or `Fatal`.
struct RankReport {
    result: RankResult,
    ledger: CtlLedger,
    flight_dropped: u64,
    flight: Vec<TimedFlightEvent>,
}

/// The barrier round currently filling (BSP lockstep guarantees all
/// `p` arrivals of round `t` precede any arrival of round `t + 1`).
struct Round {
    arrived: Vec<bool>,
    count: usize,
    /// The generation the arrivals of this round staged, if any.
    staged_generation: Option<u64>,
}

/// One rank↔coordinator link's supervision state (DESIGN.md §16).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LinkState {
    /// Traffic within the heartbeat window.
    Healthy,
    /// Silent past two heartbeat periods, not yet past grace.
    Suspect,
    /// The socket errored; waiting for a reconnect within grace.
    Disconnected,
    /// A rejoin handshake is in progress.
    Rejoining,
}

/// Everything the parent supervises per rank link: the writer and its
/// replay ring, the state machine, and the handoff slot the rejoin
/// acceptor uses to give the reader thread its healed stream. A link
/// lives as long as its fleet; [`Link::begin_run`] resets what belongs
/// to one run.
pub(crate) struct Link {
    writer: Mutex<RankStream>,
    /// Session frames written toward this rank, kept for replay.
    egress: Mutex<EgressRing>,
    /// Session frames received from this rank — the resume token the
    /// parent offers in its `RejoinOk`.
    recvd: AtomicU64,
    state: Mutex<LinkState>,
    /// Bumped per heal; readers parked on a dead stream wake on it.
    generation: Mutex<u64>,
    generation_cv: Condvar,
    /// The healed reader half and the resume token the acceptor sent
    /// in its `RejoinOk`, parked here until the rank's reader thread
    /// picks them up.
    pending_reader: Mutex<Option<(RankStream, u64)>>,
    last_seen: Mutex<Instant>,
    /// A `Freeze` fault is in force: writes are withheld (buffered in
    /// the ring) until the rank rejoins.
    frozen: AtomicBool,
    /// Accepted rejoins the acceptor still severs before letting one
    /// through (the `Flap(n)` fault's storm counter).
    flap_remaining: AtomicU32,
    /// Valid rejoin attempts consumed against the budget.
    rejoin_attempts: AtomicU32,
}

impl Link {
    pub(crate) fn new(writer: RankStream) -> Link {
        Link {
            writer: Mutex::new(writer),
            egress: Mutex::new(EgressRing::default()),
            recvd: AtomicU64::new(0),
            state: Mutex::new(LinkState::Healthy),
            generation: Mutex::new(0),
            generation_cv: Condvar::new(),
            pending_reader: Mutex::new(None),
            last_seen: Mutex::new(Instant::now()),
            frozen: AtomicBool::new(false),
            flap_remaining: AtomicU32::new(0),
            rejoin_attempts: AtomicU32::new(0),
        }
    }

    /// Readies the link for a run: healthy, fresh liveness and rejoin
    /// budget, and an empty egress ring — the rank read every frame of
    /// the last run before it reported `Done`.
    fn begin_run(&self) {
        *lock(&self.state) = LinkState::Healthy;
        *lock(&self.last_seen) = Instant::now();
        self.rejoin_attempts.store(0, Ordering::Release);
        lock(&self.egress).clear();
    }
}

/// Link-supervision counters, flushed into the machine's telemetry as
/// `net.*` at the end of the attempt.
#[derive(Default)]
struct LinkCounters {
    heartbeats_sent: AtomicU64,
    heartbeats_missed: AtomicU64,
    /// Link-state transitions (any edge of the FSM).
    link_state: AtomicU64,
    /// Completed rejoins: `RejoinOk` sent *and* the replay finished.
    rejoins: AtomicU64,
    /// Frames replayed from parent-side egress rings.
    egress_replayed: AtomicU64,
}

/// Parent-side state of one run on a fleet: reader threads (one per
/// rank) route frames and synchronization through it.
struct ParentState<'f> {
    p: usize,
    attempt: u32,
    fingerprint: u64,
    fleet: &'f Fleet,
    /// Supersteps each rank has completed (its death coordinate).
    completed: Vec<AtomicU64>,
    /// The count round currently filling: each rank's per-destination
    /// frame counts, by sender. Like the barrier's arrivals, all `p`
    /// rows of round `t` precede any row of round `t + 1`.
    counts: Mutex<Vec<Option<Vec<u64>>>>,
    round: Mutex<Round>,
    reports: Mutex<Vec<Option<RankReport>>>,
    /// Death notes for ranks whose stream died before any report.
    deaths: Mutex<Vec<Option<String>>>,
    store: Option<Arc<dyn CheckpointStore>>,
    ckpt_written: AtomicU64,
    ckpt_bytes: AtomicU64,
    kills: Vec<KillSpec>,
    link_faults: Vec<LinkFault>,
    heartbeat: Duration,
    link_grace: Duration,
    rejoin_budget: u32,
    counters: LinkCounters,
    /// Raised once every reader is home: stands down the acceptor and
    /// the heartbeat monitor, which wait on `shutdown_cv` between
    /// rounds.
    shutdown: Mutex<bool>,
    shutdown_cv: Condvar,
}

impl ParentState<'_> {
    /// Waits up to `timeout` for the attempt to end; returns whether
    /// it has.
    fn stands_down_within(&self, timeout: Duration) -> bool {
        let down = lock(&self.shutdown);
        *self
            .shutdown_cv
            .wait_timeout_while(down, timeout, |down| !*down)
            .unwrap_or_else(PoisonError::into_inner)
            .0
    }

    /// Ends the attempt for the acceptor and the monitor, waking both.
    fn stand_down(&self) {
        *lock(&self.shutdown) = true;
        self.shutdown_cv.notify_all();
    }

    /// Moves one link's FSM, counting the transition.
    fn set_state(&self, rank: usize, next: LinkState) {
        let mut state = lock(&self.fleet.links[rank].state);
        if *state != next {
            *state = next;
            self.counters.link_state.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn send_to(&self, rank: usize, msg: &CtlMsg) {
        // Ring first, then write, both under the writer lock: the
        // rejoin acceptor swaps the writer under the same lock, so a
        // frame is either written to the stream the resume token
        // describes or replayed from the ring — never duplicated,
        // never lost. A dead child's stream errors here (`EPIPE`);
        // that is fine — the death is detected and reported by its
        // reader thread. A frozen link buffers without writing.
        let link = &self.fleet.links[rank];
        let bytes = msg.encode();
        let mut w = lock(&link.writer);
        lock(&link.egress).push(bytes.clone());
        if !link.frozen.load(Ordering::Acquire) {
            let _ = w.write_all(&bytes);
        }
    }

    fn broadcast(&self, msg: &CtlMsg) {
        for rank in 0..self.p {
            self.send_to(rank, msg);
        }
    }

    /// SIGKILLs one rank process (the chaos grid's real crash).
    fn kill(&self, rank: usize) {
        let _ = lock(&self.fleet.children[rank]).kill();
    }

    /// Starts the run: each rank's `Welcome` is a session frame on its
    /// live link. A rank whose kill spec names superstep 0 is SIGKILLed
    /// in its place, so it sends no part of superstep 0 — like an
    /// in-process crash at the entry of its first `put`. Killed after
    /// the welcome, it could race its data frames out and let a peer
    /// finish the superstep's exchange.
    fn welcome(&self, machine: &DistMachine, e: &Expr, resume: Option<&ResumePoint>) {
        let program = e.to_string();
        let millis = |d: Duration| u64::try_from(d.as_millis()).unwrap_or(u64::MAX);
        for rank in 0..self.p {
            if self.killed_at(rank, 0) {
                self.kill(rank);
                continue;
            }
            let welcome = CtlMsg::Welcome {
                program: program.clone(),
                fingerprint: self.fingerprint,
                fuel: machine.fuel,
                barrier_timeout_ms: millis(machine.barrier_timeout),
                checkpoint_interval: machine
                    .checkpoints
                    .as_ref()
                    .map_or(0, |(policy, _)| policy.interval()),
                flight_capacity: machine.flight.unwrap_or(0) as u64,
                heartbeat_ms: millis(self.heartbeat),
                link_grace_ms: millis(self.link_grace),
                attempt: self.attempt,
                faults: machine
                    .faults
                    .as_ref()
                    .map_or_else(Vec::new, |plan| plan.faults().to_vec()),
                resume_frame: resume.map(|rp| rp.frames[rank].encode()),
            };
            self.send_to(rank, &welcome);
        }
    }

    fn killed_at(&self, rank: usize, superstep: u64) -> bool {
        self.kills
            .iter()
            .any(|k| k.rank == rank && k.superstep == superstep && k.attempt == self.attempt)
    }

    fn link_fault_at(&self, rank: usize, superstep: u64) -> Option<LinkFaultKind> {
        self.link_faults
            .iter()
            .find(|f| f.rank == rank && f.superstep == superstep && f.attempt == self.attempt)
            .map(|f| f.kind)
    }

    /// Applies one link fault: severs (or freezes) the real socket
    /// under the rank while its process lives.
    fn sever(&self, rank: usize, kind: LinkFaultKind) {
        let link = &self.fleet.links[rank];
        let w = lock(&link.writer);
        match kind {
            // Half-open: our writes die, the child reads EOF and
            // reconnects — the classic one-sided partition.
            LinkFaultKind::Drop => {
                let _ = w.shutdown(Shutdown::Write);
            }
            // Writes are silently withheld until the child notices
            // the heartbeat silence and rejoins.
            LinkFaultKind::Freeze => link.frozen.store(true, Ordering::Release),
            LinkFaultKind::Reset => {
                let _ = w.shutdown(Shutdown::Both);
            }
            // `n` total severs: this one plus `n - 1` accepted-then-
            // severed rejoin attempts.
            LinkFaultKind::Flap(n) => {
                link.flap_remaining
                    .store(n.saturating_sub(1), Ordering::Release);
                let _ = w.shutdown(Shutdown::Both);
            }
        }
        drop(w);
        self.set_state(rank, LinkState::Disconnected);
    }

    /// Blocks (grace-bounded) until the given link heals past
    /// `seen_generation`. Called at the fault-injection site so a
    /// deliberately severed rank rejoins *before* its peers are
    /// released into the next superstep — which is what makes the
    /// chaos grid's replay accounting exact. Returns whether the link
    /// healed.
    fn await_heal(&self, rank: usize, seen_generation: u64) -> bool {
        let link = &self.fleet.links[rank];
        let deadline = Instant::now() + self.link_grace * 2;
        let mut generation = lock(&link.generation);
        loop {
            if *generation > seen_generation {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            // Slices, not one long wait: the child can die mid-rejoin
            // (budget exhausted, or a kill racing the fault) and its
            // reader thread needs the poison broadcast to go out —
            // give up early once the child is gone.
            if lock(&self.fleet.children[rank])
                .try_wait()
                .is_ok_and(|s| s.is_some())
            {
                return false;
            }
            generation = self.fleet.links[rank]
                .generation_cv
                .wait_timeout(generation, Duration::from_millis(20))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// One rank's `SendCounts` for `superstep`. Its reader routed every
    /// `Data` frame the rank sent ahead of it, so once all `p` rows are
    /// in, every frame of the superstep is on its destination's
    /// stream. The last arrival then sends each rank its column as
    /// `RecvCounts`, which its FIFO stream delivers behind those
    /// frames.
    fn handle_counts(&self, rank: usize, superstep: u64, to: Vec<u64>) {
        let rows = {
            let mut rows = lock(&self.counts);
            rows[rank] = Some(to);
            if rows.iter().any(Option::is_none) {
                return;
            }
            std::mem::replace(&mut *rows, vec![None; self.p])
        };
        for dst in 0..self.p {
            let from = rows
                .iter()
                .flatten()
                .map(|row| row.get(dst).copied().unwrap_or(0))
                .collect();
            self.send_to(dst, &CtlMsg::RecvCounts { superstep, from });
        }
    }

    /// One rank arrived at the exit barrier of `superstep`. The last
    /// arrival commits any staged generation (the consistent cut:
    /// every rank has arrived, none has been released) and broadcasts
    /// the release — SIGKILLing instead any rank whose kill spec names
    /// the superstep being entered.
    fn handle_barrier(&self, rank: usize, superstep: u64, staged: Option<Vec<u8>>) {
        self.completed[rank].fetch_max(superstep + 1, Ordering::Relaxed);
        let staged_generation = staged.and_then(|bytes| {
            let store = self.store.as_ref()?;
            let frame = RankFrame::decode(&bytes).ok()?;
            let generation = frame.superstep;
            // Staging is best-effort, exactly like in-process.
            store.stage(&frame).ok()?;
            Some(generation)
        });
        let complete = {
            let mut round = lock(&self.round);
            if let Some(generation) = staged_generation {
                round.staged_generation = Some(generation);
            }
            if !round.arrived[rank] {
                round.arrived[rank] = true;
                round.count += 1;
            }
            if round.count == self.p {
                let generation = round.staged_generation.take();
                round.arrived.iter_mut().for_each(|a| *a = false);
                round.count = 0;
                Some(generation)
            } else {
                None
            }
        };
        if let Some(generation) = complete {
            if let (Some(generation), Some(store)) = (generation, &self.store) {
                if let Ok(bytes) = store.commit(generation, self.p) {
                    self.ckpt_written.fetch_add(1, Ordering::Relaxed);
                    self.ckpt_bytes.fetch_add(bytes, Ordering::Relaxed);
                }
            }
            // Faulted links first, un-faulted releases second: a rank
            // released *before* a peer's link is severed could race
            // fresh deliveries into that peer's egress ring while it
            // rejoins, blurring the replay accounting.
            for r in 0..self.p {
                let Some(kind) = self.link_fault_at(r, superstep + 1) else {
                    continue;
                };
                // Sever first, then queue the release: the write
                // lands on the dead (or frozen) socket, so the
                // release is exactly the frame the rejoin replay
                // redelivers.
                let seen = *lock(&self.fleet.links[r].generation);
                self.sever(r, kind);
                if self.killed_at(r, superstep + 1) {
                    // A kill racing the fault: the rank dies
                    // mid-rejoin; the reader escalates as usual.
                    self.kill(r);
                    continue;
                }
                self.send_to(r, &CtlMsg::BarrierRelease { superstep });
                // Hold the fleet at the barrier until the severed
                // rank rejoins (everyone is parked anyway): peers
                // then cannot race fresh deliveries into the
                // replay window, keeping the accounting exact.
                self.await_heal(r, seen);
            }
            for r in 0..self.p {
                if self.link_fault_at(r, superstep + 1).is_some() {
                    continue;
                }
                if self.killed_at(r, superstep + 1) {
                    self.kill(r);
                } else {
                    self.send_to(r, &CtlMsg::BarrierRelease { superstep });
                }
            }
        }
    }
}

/// One rank's reader loop: routes its child→parent stream until the
/// rank reports `Done` — returning the stream, which the warm rank
/// keeps open for its next run — or until EOF after a `Fatal` or a
/// death.
///
/// A stream error is no longer immediately fatal: if the child
/// *process* still lives, the reader parks (grace-bounded) waiting for
/// the rejoin acceptor to hand it a healed stream, and only escalates
/// to the rank-death path — reaped exit status, death note, poison
/// broadcast — when the process is gone or the grace window expires.
fn parent_reader(state: &ParentState, rank: usize, mut stream: RankStream) -> Option<RankStream> {
    // Replayed frames this reader already read from the old stream.
    let mut overlap = 0;
    loop {
        match read_ctl(&mut stream) {
            Ok(msg) => {
                *lock(&state.fleet.links[rank].last_seen) = Instant::now();
                // Heartbeat replies are link traffic, not session
                // traffic: they refresh liveness but stay out of the
                // resume-token accounting.
                if let CtlMsg::Pong { lamport } = &msg {
                    state.fleet.lamport.fetch_max(*lamport, Ordering::AcqRel);
                    state.fleet.lamport.fetch_add(1, Ordering::AcqRel);
                    continue;
                }
                if overlap > 0 {
                    overlap -= 1;
                    continue;
                }
                state.fleet.links[rank].recvd.fetch_add(1, Ordering::AcqRel);
                match msg {
                    CtlMsg::Data { dst, frame } if dst < state.p => {
                        state.send_to(dst, &CtlMsg::Deliver { frame });
                    }
                    CtlMsg::SendCounts { superstep, to } => {
                        state.handle_counts(rank, superstep, to);
                    }
                    CtlMsg::BarrierEnter { superstep, staged } => {
                        state.handle_barrier(rank, superstep, staged);
                    }
                    CtlMsg::Poison => state.broadcast(&CtlMsg::Poison),
                    CtlMsg::Fatal {
                        error,
                        ledger,
                        flight_dropped,
                        flight,
                    } => {
                        lock(&state.reports)[rank] = Some(RankReport {
                            result: Err(error),
                            ledger,
                            flight_dropped,
                            flight,
                        });
                        state.broadcast(&CtlMsg::Poison);
                    }
                    CtlMsg::Done {
                        value,
                        stats,
                        work,
                        ledger,
                        flight_dropped,
                        flight,
                    } => {
                        state.completed[rank].fetch_max(stats.supersteps, Ordering::Relaxed);
                        lock(&state.reports)[rank] = Some(RankReport {
                            result: Ok((value, stats, work)),
                            ledger,
                            flight_dropped,
                            flight,
                        });
                        return Some(stream);
                    }
                    // Parent→child shapes echoed back: protocol bug
                    // upstream; ignore.
                    _ => {}
                }
            }
            Err(err) => {
                if lock(&state.reports)[rank].is_some() {
                    // Clean EOF after `Fatal`.
                    return None;
                }
                match wait_for_rejoin(state, rank) {
                    // The rank replays from the token the acceptor
                    // sent, but this reader may have drained more of
                    // the old stream since: those frames arrive again
                    // first on the healed stream and are skipped, so
                    // every session frame is routed exactly once.
                    Some((healed, token)) => {
                        overlap = state.fleet.links[rank].recvd.load(Ordering::Acquire) - token;
                        stream = healed;
                    }
                    None => {
                        // Rank death (or an unhealable link, which the
                        // grace expiry just converted into one by
                        // SIGKILL). Reap for the status (waitpid): the
                        // exit is what severed the socket for good.
                        let status = lock(&state.fleet.children[rank])
                            .wait()
                            .map_or_else(|e| format!("unreapable: {e}"), |s| s.to_string());
                        lock(&state.deaths)[rank] =
                            Some(format!("rank process died ({status}; stream: {err})"));
                        state.broadcast(&CtlMsg::Poison);
                        return None;
                    }
                }
            }
        }
    }
}

/// The reader's side of partition healing: park (in slices, polling
/// for process death) until the rejoin acceptor bumps the link's
/// generation and parks a healed stream, or the grace window expires —
/// in which case the still-live child is SIGKILLed so the link failure
/// becomes an honest rank death.
fn wait_for_rejoin(state: &ParentState, rank: usize) -> Option<(RankStream, u64)> {
    let link = &state.fleet.links[rank];
    if state.link_grace.is_zero() {
        return None;
    }
    state.set_state(rank, LinkState::Disconnected);
    let deadline = Instant::now() + state.link_grace * 2;
    loop {
        // The parked reader half *is* the heal signal (the generation
        // condvar is only a wakeup): checking it directly also covers
        // an acceptor that healed the link before this thread even
        // noticed the old stream was dead.
        if let Some(healed) = lock(&link.pending_reader).take() {
            return Some(healed);
        }
        // A dead process cannot rejoin; take the death path now.
        if lock(&state.fleet.children[rank])
            .try_wait()
            .is_ok_and(|s| s.is_some())
        {
            return None;
        }
        if Instant::now() >= deadline {
            state.kill(rank);
            return None;
        }
        let generation = lock(&link.generation);
        let _ = link
            .generation_cv
            .wait_timeout(generation, Duration::from_millis(10))
            .unwrap_or_else(PoisonError::into_inner);
    }
}

/// How often the rejoin acceptor polls its nonblocking listener.
const REJOIN_POLL: Duration = Duration::from_millis(5);

/// The rejoin acceptor: keeps the coordinator's listener open for the
/// whole attempt, validating every late connection as a `Rejoin` and
/// healing the named link — `RejoinOk` with the parent's resume token,
/// replay of the parent-side egress suffix, writer swap, reader
/// handoff. Invalid or over-budget claims are refused with `Reject`;
/// a pending `Flap` storm severs accepted rejoins until its count is
/// exhausted.
fn rejoin_acceptor(state: &ParentState, listener: &dyn Listener) {
    let mut pause = Duration::ZERO;
    while !state.stands_down_within(pause) {
        pause = match listener.accept() {
            Ok(stream) => {
                let _ = handle_rejoin(state, stream);
                Duration::ZERO
            }
            // Nothing pending (or a failed accept): poll again in 5 ms,
            // or stand down the moment the last reader is home.
            Err(_) => REJOIN_POLL,
        };
    }
}

fn handle_rejoin(state: &ParentState, mut stream: RankStream) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    // A connection that never identifies itself must not wedge the
    // acceptor: one bounded read.
    stream.set_read_timeout(Some(state.link_grace.max(Duration::from_millis(100))))?;
    let claim = read_ctl(&mut stream)?;
    let completed: Vec<u64> = state
        .completed
        .iter()
        .map(|c| c.load(Ordering::Acquire))
        .collect();
    let rank = match validate_rejoin(&claim, state.fingerprint, state.p, &completed) {
        Ok(rank) => rank,
        Err(reason) => {
            let _ = write_ctl(&mut stream, &CtlMsg::Reject { reason });
            return Ok(());
        }
    };
    let link = &state.fleet.links[rank];
    let attempts = link.rejoin_attempts.fetch_add(1, Ordering::AcqRel) + 1;
    if attempts > state.rejoin_budget {
        let reason = format!(
            "rejoin budget exhausted: rank {rank} reconnected {attempts} time(s), \
             budget is {} — escalating to respawn",
            state.rejoin_budget
        );
        let _ = write_ctl(&mut stream, &CtlMsg::Reject { reason });
        return Ok(());
    }
    // A flap storm in force: accept, then slam the door. The child's
    // heal loop retries (resetting its deadline per connect), so the
    // storm consumes rejoin budget, not correctness.
    let flaps = lock(&link.writer);
    if link.flap_remaining.load(Ordering::Acquire) > 0 {
        link.flap_remaining.fetch_sub(1, Ordering::AcqRel);
        drop(flaps);
        let _ = stream.shutdown(Shutdown::Both);
        return Ok(());
    }
    drop(flaps);
    state.set_state(rank, LinkState::Rejoining);
    let CtlMsg::Rejoin { resume_token, .. } = claim else {
        unreachable!("validate_rejoin only accepts Rejoin");
    };
    let mut writer = stream.try_clone()?;
    let our_token = link.recvd.load(Ordering::Acquire);
    write_ctl(
        &mut writer,
        &CtlMsg::RejoinOk {
            resume_token: our_token,
        },
    )?;
    {
        let mut w = lock(&link.writer);
        let egress = lock(&link.egress);
        let Some(frames) = egress.replay_from(resume_token) else {
            drop(egress);
            drop(w);
            let _ = write_ctl(
                &mut stream,
                &CtlMsg::Reject {
                    reason: format!(
                        "resume token {resume_token} predates the egress ring — \
                         the missing frames are gone"
                    ),
                },
            );
            return Ok(());
        };
        for frame in frames {
            writer.write_all(frame)?;
            state
                .counters
                .egress_replayed
                .fetch_add(1, Ordering::Relaxed);
        }
        drop(egress);
        *w = writer;
        link.frozen.store(false, Ordering::Release);
    }
    stream.set_read_timeout(None)?;
    *lock(&link.pending_reader) = Some((stream, our_token));
    // Every link gets a fresh liveness stamp, not just the healed one:
    // the barrier hold stalled the peers' reader threads, so their
    // stale `last_seen` says nothing about their ranks.
    for peer in &state.fleet.links {
        *lock(&peer.last_seen) = Instant::now();
    }
    state.set_state(rank, LinkState::Healthy);
    {
        let mut generation = lock(&link.generation);
        *generation += 1;
    }
    link.generation_cv.notify_all();
    state.counters.rejoins.fetch_add(1, Ordering::Relaxed);
    Ok(())
}

/// The heartbeat monitor: every heartbeat period, pings every link
/// that is still in play (no report, no death note, not frozen, not
/// mid-heal) and grades its silence — two missed periods demote the
/// link to `Suspect`, a full grace window of silence on an
/// *apparently-connected* link SIGKILLs the rank (the reader's own
/// grace handles links that errored outright).
fn link_monitor(state: &ParentState) {
    let period = state.heartbeat;
    while !state.stands_down_within(period) {
        // While any link is mid-heal the fleet is deliberately parked:
        // the barrier hold can leave reader threads (and therefore
        // `last_seen` stamps) stalled through no fault of their ranks,
        // so silence is not evidence and grace-kills are suspended.
        let healing = (0..state.p).any(|r| {
            matches!(
                *lock(&state.fleet.links[r].state),
                LinkState::Disconnected | LinkState::Rejoining
            )
        });
        for rank in 0..state.p {
            let link = &state.fleet.links[rank];
            if lock(&state.reports)[rank].is_some()
                || lock(&state.deaths)[rank].is_some()
                || link.frozen.load(Ordering::Acquire)
            {
                continue;
            }
            let fsm = *lock(&link.state);
            if matches!(fsm, LinkState::Disconnected | LinkState::Rejoining) {
                // The reader's rejoin wait owns this link's fate.
                continue;
            }
            let stamp = state.fleet.lamport.fetch_add(1, Ordering::AcqRel) + 1;
            // Pings bypass the egress ring: they are link probes, not
            // session frames, and must not skew resume tokens.
            let _ = write_ctl(&mut *lock(&link.writer), &CtlMsg::Ping { lamport: stamp });
            state
                .counters
                .heartbeats_sent
                .fetch_add(1, Ordering::Relaxed);
            let silent = lock(&link.last_seen).elapsed();
            if !healing && !state.link_grace.is_zero() && silent > state.link_grace {
                // Connected but silent past grace: a wedged or
                // partitioned rank. Make it an honest death.
                state.kill(rank);
            } else if silent > period * 2 {
                state
                    .counters
                    .heartbeats_missed
                    .fetch_add(1, Ordering::Relaxed);
                state.set_state(rank, LinkState::Suspect);
            } else if fsm == LinkState::Suspect {
                state.set_state(rank, LinkState::Healthy);
            }
        }
    }
}

fn add_ledger(sum: &mut CtlLedger, one: &CtlLedger) {
    sum.faults_injected += one.faults_injected;
    sum.barrier_timeouts += one.barrier_timeouts;
    sum.frames_sent += one.frames_sent;
    sum.corrupt_frames += one.corrupt_frames;
}

/// Runs one attempt with every rank in its own OS process — the
/// [`crate::Execution::Processes`] body of
/// `DistMachine::run_attempt_with_resume`, with the same contract:
/// the result, the furthest completed superstep, and the flight log.
pub(crate) fn run_process_attempt(
    machine: &DistMachine,
    cfg: &ProcessConfig,
    e: &Expr,
    attempt: u32,
    resume: Option<ResumePoint>,
) -> (Result<DistOutcome, EvalError>, u64, Option<FlightLog>) {
    let p = machine.p;
    let fingerprint = program_fingerprint(e, p);
    let resumed_from = resume.as_ref().map(|rp| rp.superstep);
    let baseline = resumed_from.unwrap_or(0);
    let (mut fleet, launched) = match cfg.fleets.take_or_launch(cfg, p, fingerprint) {
        Ok(pair) => pair,
        Err(err) => return (Err(err), baseline, None),
    };
    for link in &fleet.links {
        link.begin_run();
    }
    let streams = std::mem::take(&mut fleet.streams);
    let state = ParentState {
        p,
        attempt,
        fingerprint,
        fleet: &fleet,
        completed: (0..p).map(|_| AtomicU64::new(baseline)).collect(),
        counts: Mutex::new(vec![None; p]),
        round: Mutex::new(Round {
            arrived: vec![false; p],
            count: 0,
            staged_generation: None,
        }),
        reports: Mutex::new((0..p).map(|_| None).collect()),
        deaths: Mutex::new(vec![None; p]),
        store: machine
            .checkpoints
            .as_ref()
            .map(|(_, store)| Arc::clone(store)),
        ckpt_written: AtomicU64::new(0),
        ckpt_bytes: AtomicU64::new(0),
        kills: cfg.kills.clone(),
        link_faults: cfg.link_faults.clone(),
        heartbeat: cfg.heartbeat.unwrap_or(DEFAULT_HEARTBEAT),
        link_grace: cfg.link_grace.unwrap_or(DEFAULT_LINK_GRACE),
        rejoin_budget: cfg.rejoin_budget.unwrap_or(DEFAULT_REJOIN_BUDGET),
        counters: LinkCounters::default(),
        shutdown: Mutex::new(false),
        shutdown_cv: Condvar::new(),
    };
    state.welcome(machine, e, resume.as_ref());

    // Superstep-0 link faults: severed right after the welcome — the
    // rank heals before (or while) running its first superstep.
    for fault in &cfg.link_faults {
        if fault.attempt == attempt && fault.superstep == 0 && fault.rank < p {
            state.sever(fault.rank, fault.kind);
        }
    }

    // Route until every rank has reported `Done`, or its stream reached
    // EOF (after a `Fatal`, or a death). Children bound their own waits
    // with the shipped barrier watchdog, and any death poisons the
    // fleet, so the readers always come home. The rejoin acceptor and
    // the heartbeat monitor run alongside the readers for the whole
    // attempt and are woken to stand down the moment the last reader is
    // home, so the attempt ends with its last report, not at their next
    // tick.
    let homes: Vec<Option<RankStream>> = std::thread::scope(|scope| {
        let supervision = !state.link_grace.is_zero();
        if supervision {
            let state = &state;
            scope.spawn(move || rejoin_acceptor(state, state.fleet.listener.as_ref()));
        }
        if !state.heartbeat.is_zero() {
            let state = &state;
            scope.spawn(move || link_monitor(state));
        }
        let readers: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(rank, stream)| {
                let state = &state;
                scope.spawn(move || parent_reader(state, rank, stream))
            })
            .collect();
        let homes = readers
            .into_iter()
            .map(|reader| reader.join().ok().flatten())
            .collect();
        state.stand_down();
        homes
    });

    let completed: Vec<u64> = state
        .completed
        .iter()
        .map(|c| c.load(Ordering::Relaxed))
        .collect();
    let furthest = completed.iter().copied().max().unwrap_or(baseline);
    let reports = std::mem::take(&mut *lock(&state.reports));
    let deaths = std::mem::take(&mut *lock(&state.deaths));

    // Account exactly like the in-process backend: the shipped
    // per-rank ledgers, plus the parent's own checkpoint commits.
    let mut ledger_sum = CtlLedger::default();
    for report in reports.iter().flatten() {
        add_ledger(&mut ledger_sum, &report.ledger);
    }
    flush_counters(
        &machine.telemetry,
        &ledger_sum,
        state.ckpt_written.load(Ordering::Relaxed),
        state.ckpt_bytes.load(Ordering::Relaxed),
    );
    if machine.telemetry.is_enabled() {
        let t = &machine.telemetry;
        let c = &state.counters;
        t.counter_add("net.launches", u64::from(launched));
        t.counter_add(
            "net.heartbeats_sent",
            c.heartbeats_sent.load(Ordering::Relaxed),
        );
        t.counter_add(
            "net.heartbeats_missed",
            c.heartbeats_missed.load(Ordering::Relaxed),
        );
        t.counter_add("net.link_state", c.link_state.load(Ordering::Relaxed));
        t.counter_add("net.rejoins", c.rejoins.load(Ordering::Relaxed));
        t.counter_add(
            "net.egress_replayed",
            c.egress_replayed.load(Ordering::Relaxed),
        );
    }
    drop(state);

    // A fleet whose every rank reported `Done` stays warm for the next
    // run; any other outcome tears it down, SIGKILLing and reaping
    // every rank (the death path already reaped the dead).
    let done = reports
        .iter()
        .all(|r| r.as_ref().is_some_and(|r| r.result.is_ok()));
    match homes.into_iter().collect::<Option<Vec<_>>>() {
        Some(streams) if done => {
            fleet.streams = streams;
            cfg.fleets.put(fleet);
        }
        _ => drop(fleet),
    }
    let flight_log = machine.flight.map(|_| FlightLog {
        ranks: reports
            .iter()
            .enumerate()
            .map(|(rank, report)| match report {
                Some(r) => RankFlightLog {
                    rank,
                    dropped: r.flight_dropped,
                    events: r.flight.clone(),
                },
                // A dead rank ships nothing; its on-disk bundle (the
                // child's own periodic flush) is the surviving trace.
                None => RankFlightLog {
                    rank,
                    dropped: 0,
                    events: Vec::new(),
                },
            })
            .collect(),
    });

    // Death first: EOF-without-report maps to the failed
    // (rank, superstep) coordinate.
    if let Some((rank, detail)) = deaths
        .iter()
        .enumerate()
        .find_map(|(r, d)| d.as_ref().map(|d| (r, d.clone())))
    {
        let superstep = completed[rank];
        return (
            Err(EvalError::TransportFailure {
                rank,
                superstep,
                detail,
            }),
            furthest,
            flight_log,
        );
    }

    // Then finish like `run_threads`; a rank with no report counts as
    // a `PeerFailure` echo.
    let results = reports
        .into_iter()
        .map(|r| r.map_or(Err(EvalError::PeerFailure), |report| report.result))
        .collect();
    (
        finish_attempt(&machine.telemetry, results, resumed_from),
        furthest,
        flight_log,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::SyncOutcome;
    use std::os::unix::net::UnixStream;

    #[test]
    fn hello_validation_accepts_the_genuine_article() {
        let taken = vec![false, false, false];
        let hello = CtlMsg::hello(0xF00D, 2, 3);
        assert_eq!(validate_hello(&hello, 0xF00D, 3, &taken), Ok(2));
    }

    #[test]
    fn hello_validation_rejects_every_mismatch() {
        let taken = vec![true, false];
        let cases: Vec<(CtlMsg, &str)> = vec![
            (
                CtlMsg::Hello {
                    magic: 0,
                    version: PROTOCOL_VERSION,
                    fingerprint: 7,
                    rank: 1,
                    p: 2,
                },
                "magic",
            ),
            (
                CtlMsg::Hello {
                    magic: CTL_MAGIC,
                    version: PROTOCOL_VERSION + 1,
                    fingerprint: 7,
                    rank: 1,
                    p: 2,
                },
                "version skew",
            ),
            (
                CtlMsg::Hello {
                    magic: CTL_MAGIC,
                    version: PROTOCOL_VERSION,
                    fingerprint: 8,
                    rank: 1,
                    p: 2,
                },
                "fingerprint mismatch",
            ),
            (
                CtlMsg::Hello {
                    magic: CTL_MAGIC,
                    version: PROTOCOL_VERSION,
                    fingerprint: 7,
                    rank: 1,
                    p: 4,
                },
                "width mismatch",
            ),
            (
                CtlMsg::Hello {
                    magic: CTL_MAGIC,
                    version: PROTOCOL_VERSION,
                    fingerprint: 7,
                    rank: 5,
                    p: 2,
                },
                "out of range",
            ),
            (
                CtlMsg::Hello {
                    magic: CTL_MAGIC,
                    version: PROTOCOL_VERSION,
                    fingerprint: 7,
                    rank: 0,
                    p: 2,
                },
                "duplicate",
            ),
            (CtlMsg::Poison, "not a Hello"),
        ];
        for (msg, needle) in cases {
            let err = validate_hello(&msg, 7, 2, &taken).expect_err("must reject");
            assert!(
                err.contains(needle),
                "refusal {err:?} does not mention {needle:?}"
            );
        }
    }

    /// A hub over a socketpair: staged frames ride the next
    /// `BarrierEnter`, and the release lets the barrier through.
    #[test]
    fn relay_store_ships_staged_frames_with_barrier_enter() {
        let (ours, theirs) = UnixStream::pair().expect("socketpair");
        let hub = RemoteHub::new(RankStream::Unix(ours.try_clone().expect("clone")));
        let reader_hub = Arc::clone(&hub);
        std::thread::spawn(move || run_child_reader(&reader_hub, RankStream::Unix(ours)));

        let frame = RankFrame {
            fingerprint: 99,
            rank: 0,
            superstep: 4,
            fuel_left: 1000,
            sent_words: 3,
            received_words: 3,
            puts: 4,
            ifats: 0,
            outcomes: vec![SyncOutcome::IfAt { chosen: true }],
        };
        let store = RelayStore {
            hub: Arc::clone(&hub),
        };
        assert!(store.stage(&frame).expect("stage") > 0);

        // The "parent": expect BarrierEnter carrying the frame, then
        // release.
        let expected = frame.clone();
        let mut parent_end = theirs;
        let parent = std::thread::spawn(move || {
            let msg = read_ctl(&mut parent_end).expect("barrier enter");
            let CtlMsg::BarrierEnter { superstep, staged } = msg else {
                panic!("expected BarrierEnter, got {msg:?}");
            };
            assert_eq!(superstep, 3);
            let bytes = staged.expect("staged frame rides along");
            assert_eq!(RankFrame::decode(&bytes).expect("decodes"), expected);
            write_ctl(&mut parent_end, &CtlMsg::BarrierRelease { superstep }).expect("release");
            parent_end
        });
        hub.barrier_enter(3, Duration::from_secs(5))
            .expect("released");
        let _keep_alive = parent.join().expect("parent thread");
        // The stash is consumed: the next barrier ships nothing.
        assert!(lock(&hub.staged).is_none());
    }

    #[test]
    fn poisoned_hub_refuses_barrier_entry() {
        let (ours, theirs) = UnixStream::pair().expect("socketpair");
        let hub = RemoteHub::new(RankStream::Unix(ours));
        // Parent poison arrives (routed by the reader in production;
        // absorbed directly here).
        hub.absorb(CtlMsg::Poison);
        assert!(hub.is_poisoned());
        assert_eq!(
            hub.barrier_enter(0, Duration::from_secs(5)),
            Err(EvalError::PeerFailure)
        );
        drop(theirs);
    }

    #[test]
    fn unreleased_barrier_times_out_instead_of_hanging() {
        let (ours, theirs) = UnixStream::pair().expect("socketpair");
        let hub = RemoteHub::new(RankStream::Unix(ours));
        let result = hub.barrier_enter(2, Duration::from_millis(30));
        assert_eq!(
            result,
            Err(EvalError::BarrierTimeout {
                superstep: 2,
                waiting: 1
            })
        );
        // The timeout poisoned the run — later waits fail fast.
        assert!(hub.is_poisoned());
        drop(theirs);
    }

    #[test]
    fn rejoin_validation_accepts_equal_and_newer_claims() {
        let completed = vec![3, 5];
        let equal = CtlMsg::Rejoin {
            rank: 1,
            fingerprint: 0xBEEF,
            completed_superstep: 5,
            resume_token: 40,
        };
        assert_eq!(validate_rejoin(&equal, 0xBEEF, 2, &completed), Ok(1));
        // Newer is legal: the rank's BarrierEnter can be lost in
        // flight — the replay redelivers it.
        let newer = CtlMsg::Rejoin {
            rank: 0,
            fingerprint: 0xBEEF,
            completed_superstep: 4,
            resume_token: 0,
        };
        assert_eq!(validate_rejoin(&newer, 0xBEEF, 2, &completed), Ok(0));
    }

    #[test]
    fn rejoin_validation_rejects_every_mismatch() {
        let completed = vec![3, 5];
        let cases: Vec<(CtlMsg, &str)> = vec![
            (
                CtlMsg::Rejoin {
                    rank: 0,
                    fingerprint: 0xDEAD,
                    completed_superstep: 3,
                    resume_token: 0,
                },
                "fingerprint mismatch",
            ),
            (
                CtlMsg::Rejoin {
                    rank: 2,
                    fingerprint: 0xBEEF,
                    completed_superstep: 0,
                    resume_token: 0,
                },
                "out of range",
            ),
            (
                CtlMsg::Rejoin {
                    rank: 1,
                    fingerprint: 0xBEEF,
                    completed_superstep: 4,
                    resume_token: 0,
                },
                "stale rejoin",
            ),
            (CtlMsg::Poison, "not a Rejoin"),
        ];
        for (msg, needle) in cases {
            let err =
                validate_rejoin(&msg, 0xBEEF, 2, &completed).expect_err("claim must be refused");
            assert!(
                err.contains(needle),
                "refusal {err:?} does not mention {needle:?}"
            );
        }
    }

    #[test]
    fn egress_ring_replays_exactly_the_unseen_suffix() {
        let mut ring = EgressRing::default();
        for i in 0..5u8 {
            ring.push(vec![i]);
        }
        assert_eq!(ring.sent(), 5);
        // The peer saw 3 of 5: the replay is frames 3 and 4.
        let frames = ring.replay_from(3).expect("in range");
        assert_eq!(frames, vec![&vec![3u8], &vec![4u8]]);
        // Everything seen: an empty replay, not a refusal.
        assert_eq!(ring.replay_from(5).expect("in range").len(), 0);
        // Claiming more than was ever sent is a protocol violation.
        assert!(ring.replay_from(6).is_none());
    }

    #[test]
    fn egress_ring_refuses_tokens_older_than_its_base() {
        let mut ring = EgressRing::default();
        for i in 0..(EGRESS_CAPACITY + 10) {
            ring.push(vec![u8::try_from(i % 251).expect("fits")]);
        }
        assert_eq!(ring.sent() as usize, EGRESS_CAPACITY + 10);
        // The first 10 frames were evicted: a peer that far behind
        // cannot be healed.
        assert!(ring.replay_from(9).is_none());
        let frames = ring.replay_from(10).expect("exactly the base");
        assert_eq!(frames.len(), EGRESS_CAPACITY);
    }
}
