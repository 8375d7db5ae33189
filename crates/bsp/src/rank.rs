//! The rank process (DESIGN.md §13): `rank_main` connects to the
//! coordinator and runs one rank of every run it is welcomed to. The
//! hub holds the rank's end of the control stream and the state of
//! the run in progress, and each run writes the rank's own postmortem
//! bundles.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use bsml_eval::EvalError;
use bsml_obs::{FlightEvent, FlightRecorder, Telemetry};

use crate::checkpoint::{program_fingerprint, RankFrame};
use crate::distributed::DEFAULT_FLIGHT_CAPACITY;
use crate::exchange::{FaultLedger, NetCheckpoint, Network, SyncBackend};
use crate::faults::FaultPlan;
use crate::link::{read_ctl_deadline, LinkEnd, SILENCE_TICK};
use crate::lock;
use crate::postmortem::{error_coordinate, FlightLog, PostmortemBundle, RankFlightLog};
use crate::process::{
    DEFAULT_HANDSHAKE_TIMEOUT, RANK_FINGERPRINT_ENV, RANK_ID_ENV, RANK_P_ENV, RANK_SOCKET_ENV,
};
use crate::spmd::run_rank;
use crate::supervisor::POSTMORTEM_DIR_ENV;
use crate::transport::{RankStream, SocketTransport};
use crate::wire::{read_ctl, write_ctl, CtlMsg};

// ---------------------------------------------------------------------------
// Child side: postmortem writer and control hub
// ---------------------------------------------------------------------------

/// A rank process's own postmortem writer: single-rank
/// [`PostmortemBundle`]s of the recorder's snapshot, written at every
/// barrier entry and release, tmp-then-rename (a kill mid-write leaves
/// the previous complete bundle, never a torn one). At SIGKILL time the
/// last flushed bundle survives on disk, which is what makes process
/// death postmortem-analyzable.
#[derive(Debug)]
struct ChildPostmortem {
    path: PathBuf,
    p: usize,
    attempt: u32,
    rank: usize,
    recorder: Arc<FlightRecorder>,
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
        })
    }

    /// Writes the recorder's snapshot as a one-rank bundle.
    /// Best-effort: I/O failures are swallowed (a rank must never die
    /// of its own black box).
    fn flush(&self, error: &str, error_rank: Option<u64>, error_superstep: Option<u64>) {
        // Events first: one recorded between the two reads only
        // overstates `dropped`, which the analyzer reads as a suffix.
        let events = self.recorder.snapshot();
        let dropped = self.recorder.dropped();
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
        let _ = bundle.write_to(&self.path);
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

/// A rank process's end of the parent's control stream: its end of
/// the link plus everything the reader thread routes off the stream
/// (welcomes, delivered frames, receive counts, barrier releases,
/// poison). This is what [`crate::exchange::SyncBackend::Remote`]
/// and [`SocketTransport`] talk to.
///
/// The link and the Lamport clock live as long as the process;
/// everything else belongs to one run and starts fresh at each
/// `Welcome`.
#[derive(Debug)]
pub(crate) struct RemoteHub {
    pub(crate) link: LinkEnd,
    /// Data frames the parent routed to this rank, in arrival order.
    inbound: Mutex<VecDeque<Vec<u8>>>,
    barrier: Mutex<BarrierProgress>,
    barrier_cv: Condvar,
    /// The checkpoint frame this rank staged since the last barrier,
    /// encoded, shipped with the next `BarrierEnter`.
    pub(crate) staged: Mutex<Option<Vec<u8>>>,
    /// The current run's fingerprint, link settings and black box.
    pub(crate) run: Mutex<RunLink>,
    /// Where to reconnect when the link dies. `None` (the in-crate
    /// test harness over a socketpair) disables healing: the first
    /// stream error poisons, as before link supervision.
    pub(crate) endpoint: Option<String>,
    pub(crate) rank: usize,
    p: usize,
    /// Where each run's postmortem bundle goes (the spawn
    /// environment's [`POSTMORTEM_DIR_ENV`]).
    postmortem_dir: Option<PathBuf>,
    /// Supersteps this rank has entered the exit barrier of — the
    /// claim a `Rejoin` carries, validated against the parent's count.
    pub(crate) completed: AtomicU64,
    /// The rank's Lamport clock, shared with the driver so heartbeat
    /// and flight-recorder stamps interleave correctly with protocol
    /// events (DESIGN.md §12).
    pub(crate) lamport: Arc<AtomicU64>,
}

/// What one run welcomed: the program's fingerprint (which a `Rejoin`
/// names), the link settings, and the run's black box.
#[derive(Debug, Default)]
pub(crate) struct RunLink {
    pub(crate) fingerprint: u64,
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
    pub(crate) fn new(writer: RankStream) -> Arc<RemoteHub> {
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
            link: LinkEnd::new(writer),
            inbound: Mutex::new(VecDeque::new()),
            barrier: Mutex::new(BarrierProgress::default()),
            barrier_cv: Condvar::new(),
            staged: Mutex::new(None),
            run: Mutex::new(RunLink::default()),
            endpoint,
            rank,
            p,
            postmortem_dir,
            completed: AtomicU64::new(0),
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
        self.link.begin_run();
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

    pub(crate) fn link_grace(&self) -> Duration {
        lock(&self.run).link_grace
    }

    /// Records a link event at a fresh Lamport stamp, if recording.
    pub(crate) fn flight(&self, event: FlightEvent) {
        if let Some(rec) = lock(&self.run).recorder.as_ref() {
            let stamp = self.lamport.fetch_add(1, Ordering::AcqRel) + 1;
            rec.record(stamp, event);
        }
    }

    /// Routes one data-plane frame toward `dst` through the parent. A
    /// dead stream (`EPIPE`, a closed parent) poisons the run locally;
    /// the frame is reported "accepted" because the run is about to
    /// unwind through the poison path anyway — never a panic.
    pub(crate) fn send_data(&self, dst: usize, bytes: &[u8]) {
        if !self.send(&CtlMsg::Data {
            dst,
            frame: bytes.to_vec(),
        }) {
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
        self.send(&CtlMsg::Poison);
    }

    /// Whether anyone — a peer, the parent, or a local stream failure
    /// — declared the run dead.
    pub(crate) fn is_poisoned(&self) -> bool {
        lock(&self.barrier).poisoned
    }

    /// Stashes this rank's encoded checkpoint frame for the next
    /// `BarrierEnter`, which ships it to the coordinator's store.
    pub(crate) fn stage(&self, bytes: Vec<u8>) {
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
        if !self.send(&CtlMsg::SendCounts { superstep, to }) {
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
        if !self.send(&CtlMsg::BarrierEnter { superstep, staged }) {
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
                self.send(&CtlMsg::Poison);
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
    pub(crate) fn absorb(&self, msg: CtlMsg) {
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
}

/// The reader half of a rank process: routes every parent message into
/// the hub until the stream dies. During a run it then tries to *heal*
/// the link (reconnect + rejoin + replay) before giving up and
/// poisoning the run (a vanished parent must not leave the rank
/// waiting forever); between runs the end of the stream closes the
/// rank. Heartbeat pings are answered here, so the rank stays
/// observably alive even while its driver thread is parked at a
/// barrier.
pub(crate) fn run_child_reader(hub: &RemoteHub, mut stream: RankStream) {
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
                hub.link.probe(&CtlMsg::Pong { lamport: stamp });
            }
            Ok(Some(msg)) => {
                hub.link.note_received();
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
    let replay = match resume_frame {
        Some(bytes) => Some(RankFrame::decode(&bytes).map_err(|e| format!("resume frame: {e}"))?),
        None => None,
    };
    // This rank synchronizes through the parent's control stream, and
    // its frames ride the same stream.
    let net = Arc::new(Network {
        p: hub.p,
        sync: SyncBackend::Remote(Arc::clone(hub)),
        transport: Arc::new(SocketTransport::new(Arc::clone(hub))),
        barrier_timeout: Duration::from_millis(barrier_timeout_ms),
        faults: (!faults.is_empty()).then(|| Arc::new(FaultPlan::from_faults(faults))),
        attempt,
        ledger: FaultLedger::default(),
        checkpoint: (checkpoint_interval > 0).then_some(NetCheckpoint {
            interval: checkpoint_interval,
            store: None,
            fingerprint,
        }),
        // The ring belongs to the run and its postmortem writer, not
        // the network: the parent cannot drain a SIGKILLed process, so
        // the child flushes its ring to disk itself.
        flight: None,
        flow_ids: AtomicU64::new(0),
    });
    // Telemetry is disabled in rank processes: the parent owns the
    // session's telemetry and flushes the ledger this rank ships home,
    // so counters still reconcile; only the per-rank
    // `bsp.barrier_wait_us` histogram is unavailable in process mode.
    // `run_rank`'s unwind guard turns a panic (injected or real) into
    // a poisoned run and a `Fatal` report.
    let result = run_rank(
        hub.rank,
        Arc::clone(&net),
        &parsed,
        fuel,
        Telemetry::disabled(),
        replay,
        recorder.clone(),
    );
    let ledger = net.ledger.counters();

    // Final black box + report. Flush before reporting so the on-disk
    // bundle exists even if the parent is already gone.
    if let Some(pm) = &postmortem {
        match &result {
            Ok(_) => pm.flush("", None, None),
            Err(err) => {
                let (error_rank, error_superstep) = error_coordinate(err);
                pm.flush(&err.to_string(), error_rank, error_superstep);
            }
        }
    }
    let (flight, flight_dropped) =
        recorder.map_or((Vec::new(), 0), |rec| (rec.drain(), rec.dropped()));
    match result {
        Ok((value, stats, work)) => {
            hub.end_run();
            hub.send(&CtlMsg::Done {
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
            hub.send(&CtlMsg::Fatal {
                error,
                ledger,
                flight_dropped,
                flight,
            });
            Ok(false)
        }
    }
}
