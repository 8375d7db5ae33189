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

use std::net::Shutdown;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use bsml_ast::Expr;
use bsml_eval::EvalError;
use bsml_obs::TimedFlightEvent;

use crate::checkpoint::{program_fingerprint, CheckpointStore, RankFrame, ResumePoint};
use crate::distributed::{DistMachine, DistOutcome};
use crate::faults::{LinkFault, LinkFaultKind};
use crate::finish::{finish_attempt, flush_counters, RankResult};
use crate::fleet::{Fleet, FleetPool};
use crate::link::{link_monitor, rejoin_acceptor, wait_for_rejoin, LinkCounters, LinkState};
use crate::lock;
use crate::postmortem::{FlightLog, RankFlightLog};
use crate::transport::{Bind, RankStream};
use crate::wire::{read_ctl, CtlLedger, CtlMsg, CTL_MAGIC, PROTOCOL_VERSION};

pub use crate::link::validate_rejoin;
pub use crate::rank::rank_main;

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
/// process-mode fault. `superstep = s` kills the rank at the quorum of
/// the count round of superstep `s`, in place of its `RecvCounts`: it
/// has completed exactly `s` supersteps and no rank completes superstep
/// `s`, which mirrors the in-process crash fault's coordinate. Every
/// rank shipped its frame of generation `s` before entering the round,
/// so the newest committed checkpoint generation is `⌊s/k⌋·k`, and a
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

/// What one rank shipped home in its `Done` or `Fatal`.
pub(crate) struct RankReport {
    result: RankResult,
    ledger: CtlLedger,
    flight_dropped: u64,
    flight: Vec<TimedFlightEvent>,
}

/// Parent-side state of one run on a fleet: reader threads (one per
/// rank) route frames and synchronization through it.
pub(crate) struct ParentState<'f> {
    pub(crate) p: usize,
    attempt: u32,
    pub(crate) fingerprint: u64,
    pub(crate) fleet: &'f Fleet,
    /// Supersteps each rank has completed, counted at its
    /// `SendCounts` (its death coordinate and the floor of its rejoin
    /// claim).
    pub(crate) completed: Vec<AtomicU64>,
    /// The count round currently filling: each rank's per-destination
    /// frame counts, by sender. All `p` rows of round `t` precede any
    /// row of round `t + 1`: no rank leaves round `t` before the last
    /// row is in.
    counts: Mutex<Vec<Option<Vec<u64>>>>,
    pub(crate) reports: Mutex<Vec<Option<RankReport>>>,
    /// Death notes for ranks whose stream died before any report.
    pub(crate) deaths: Mutex<Vec<Option<String>>>,
    store: Option<Arc<dyn CheckpointStore>>,
    ckpt_written: AtomicU64,
    ckpt_bytes: AtomicU64,
    kills: Vec<KillSpec>,
    link_faults: Vec<LinkFault>,
    pub(crate) heartbeat: Duration,
    pub(crate) link_grace: Duration,
    pub(crate) rejoin_budget: u32,
    pub(crate) counters: LinkCounters,
    /// Raised once every reader is home: stands down the acceptor and
    /// the heartbeat monitor, which wait on `shutdown_cv` between
    /// rounds.
    shutdown: Mutex<bool>,
    shutdown_cv: Condvar,
}

impl ParentState<'_> {
    /// Waits up to `timeout` for the attempt to end; returns whether
    /// it has.
    pub(crate) fn stands_down_within(&self, timeout: Duration) -> bool {
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
    pub(crate) fn set_state(&self, rank: usize, next: LinkState) {
        let mut state = lock(&self.fleet.links[rank].state);
        if *state != next {
            *state = next;
            self.counters.link_state.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn send_to(&self, rank: usize, msg: &CtlMsg) {
        // A dead child's stream errors here (`EPIPE`); that is fine —
        // the death is detected and reported by its reader thread.
        let _ = self.fleet.links[rank].end.send(msg);
    }

    fn broadcast(&self, msg: &CtlMsg) {
        for rank in 0..self.p {
            self.send_to(rank, msg);
        }
    }

    /// SIGKILLs one rank process (the chaos grid's real crash).
    pub(crate) fn kill(&self, rank: usize) {
        let _ = lock(&self.fleet.children[rank]).kill();
    }

    /// Whether one rank process has exited (reaping it if so).
    pub(crate) fn exited(&self, rank: usize) -> bool {
        lock(&self.fleet.children[rank])
            .try_wait()
            .is_ok_and(|status| status.is_some())
    }

    /// Starts the run: each rank's `Welcome` is a session frame on its
    /// live link.
    fn welcome(&self, machine: &DistMachine, e: &Expr, resume: Option<&ResumePoint>) {
        let program = e.to_string();
        let millis = |d: Duration| u64::try_from(d.as_millis()).unwrap_or(u64::MAX);
        for rank in 0..self.p {
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
        match kind {
            // Half-open: our writes die, the child reads EOF and
            // reconnects — the classic one-sided partition.
            LinkFaultKind::Drop => link.end.shutdown(Shutdown::Write),
            // Writes are silently withheld until the child notices
            // the heartbeat silence and rejoins.
            LinkFaultKind::Freeze => link.end.freeze(),
            LinkFaultKind::Reset => link.end.shutdown(Shutdown::Both),
            // `n` total severs: this one plus `n - 1` accepted-then-
            // severed rejoin attempts.
            LinkFaultKind::Flap(n) => {
                link.flap_remaining
                    .store(n.saturating_sub(1), Ordering::Release);
                link.end.shutdown(Shutdown::Both);
            }
        }
        self.set_state(rank, LinkState::Disconnected);
    }

    /// One rank's `SendCounts` for `superstep`, which counts the
    /// supersteps it completed. Its reader routed every `Data` frame,
    /// and staged every `Staged` frame, that the rank sent ahead of it,
    /// so once all `p` rows are in, every frame of the superstep is on
    /// its destination's stream and every generation staged before the
    /// round is committed. The last arrival then sends each rank its
    /// column as `RecvCounts`, which its FIFO stream delivers behind
    /// those frames.
    ///
    /// Kill specs and link faults for `superstep` fire here, in place
    /// of the faulted rank's `RecvCounts`. A kill withholds every
    /// rank's, as an in-process crash at a superstep's entry leaves its
    /// peers in the round: no rank completes the superstep, and the
    /// death's poison releases them. A severed link gets its
    /// `RecvCounts` on the dead (or frozen) socket, the one frame its
    /// heal replays, and the other ranks wait for the heal: they cannot
    /// race deliveries into the replay window, which keeps the
    /// accounting exact. A link that does not heal is held like a kill.
    fn handle_counts(&self, rank: usize, superstep: u64, to: Vec<u64>) {
        self.completed[rank].fetch_max(superstep, Ordering::Relaxed);
        let rows = {
            let mut rows = lock(&self.counts);
            rows[rank] = Some(to);
            if rows.iter().any(Option::is_none) {
                return;
            }
            std::mem::replace(&mut *rows, vec![None; self.p])
        };
        let recv_counts = |dst: usize| CtlMsg::RecvCounts {
            superstep,
            from: rows
                .iter()
                .flatten()
                .map(|row| row.get(dst).copied().unwrap_or(0))
                .collect(),
        };
        // A kill on a faulted coordinate lands before the sever: a dead
        // rank cannot finish a rejoin.
        let mut killed = false;
        for r in 0..self.p {
            if self.killed_at(r, superstep) {
                self.kill(r);
                killed = true;
            }
        }
        if killed {
            return;
        }
        for r in 0..self.p {
            let Some(kind) = self.link_fault_at(r, superstep) else {
                continue;
            };
            let seen = self.fleet.links[r].end.heals();
            self.sever(r, kind);
            self.send_to(r, &recv_counts(r));
            // The hold ends early if the rank dies mid-rejoin (its
            // budget exhausted), and its reader's poison goes out.
            let healed = self.fleet.links[r].end.await_heal(
                Instant::now() + self.link_grace * 2,
                |heals| (heals > seen).then_some(()),
                || self.exited(r),
            );
            if healed.is_none() {
                return;
            }
        }
        for r in 0..self.p {
            if self.link_fault_at(r, superstep).is_none() {
                self.send_to(r, &recv_counts(r));
            }
        }
    }

    /// One rank's `Staged` checkpoint frame: staged in the store, and
    /// its generation committed if it is the generation's p-th frame
    /// (the store refuses the commit until then, and only one commit
    /// can take the frames). Best-effort, exactly like in-process.
    fn handle_staged(&self, frame: &[u8]) {
        let (Some(store), Ok(frame)) = (&self.store, RankFrame::decode(frame)) else {
            return;
        };
        if store.stage(&frame).is_ok() {
            if let Ok(bytes) = store.commit(frame.superstep, self.p) {
                self.ckpt_written.fetch_add(1, Ordering::Relaxed);
                self.ckpt_bytes.fetch_add(bytes, Ordering::Relaxed);
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
                state.fleet.links[rank].end.note_received();
                match msg {
                    CtlMsg::Data { dst, frame } if dst < state.p => {
                        state.send_to(dst, &CtlMsg::Deliver { frame });
                    }
                    CtlMsg::SendCounts { superstep, to } => {
                        state.handle_counts(rank, superstep, to);
                    }
                    CtlMsg::Staged { frame } => state.handle_staged(&frame),
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
                        overlap = state.fleet.links[rank].end.received() - token;
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
    use crate::rank::{run_child_reader, RemoteHub};
    use crate::wire::write_ctl;
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

    /// A hub over a socketpair: a staged frame goes to the parent the
    /// moment it is staged, and a count round ships the counts and
    /// returns the parent's column.
    #[test]
    fn hub_ships_a_staged_frame_at_once() {
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
        hub.stage(frame.encode());
        let mut parent_end = theirs;
        let msg = read_ctl(&mut parent_end).expect("staged frame");
        let CtlMsg::Staged { frame: bytes } = msg else {
            panic!("expected Staged, got {msg:?}");
        };
        assert_eq!(RankFrame::decode(&bytes).expect("decodes"), frame);

        // The "parent": expect the counts, with nothing staged ahead of
        // them, then answer the round.
        let parent = std::thread::spawn(move || {
            let msg = read_ctl(&mut parent_end).expect("send counts");
            let CtlMsg::SendCounts { superstep, to } = msg else {
                panic!("expected SendCounts, got {msg:?}");
            };
            assert_eq!((superstep, to), (4, vec![0]));
            let answer = CtlMsg::RecvCounts {
                superstep,
                from: vec![0],
            };
            write_ctl(&mut parent_end, &answer).expect("recv counts");
            parent_end
        });
        assert_eq!(
            hub.count_round(4, vec![0], Duration::from_secs(5)),
            Ok(vec![0])
        );
        let _keep_alive = parent.join().expect("parent thread");
        // Entering the round counted the supersteps completed.
        assert_eq!(hub.completed.load(Ordering::Acquire), 4);
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
            hub.count_round(0, vec![0], Duration::from_secs(5)),
            Err(EvalError::PeerFailure)
        );
        drop(theirs);
    }

    #[test]
    fn unreleased_barrier_times_out_instead_of_hanging() {
        let (ours, theirs) = UnixStream::pair().expect("socketpair");
        let hub = RemoteHub::new(RankStream::Unix(ours));
        let result = hub.count_round(2, vec![0], Duration::from_millis(30));
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
    fn a_count_round_the_parent_completed_survives_a_later_poison() {
        // The parent answers the round, then a peer's failure poisons
        // the run before this rank's driver wakes: the driver still
        // leaves the round it completed, as its peers did.
        for superstep in 0..500 {
            let (ours, mut theirs) = UnixStream::pair().expect("socketpair");
            let hub = RemoteHub::new(RankStream::Unix(ours));
            let waiter = {
                let hub = Arc::clone(&hub);
                std::thread::spawn(move || {
                    hub.count_round(superstep, vec![0], Duration::from_secs(5))
                })
            };
            // The rank is in the round once its counts are on the wire.
            assert!(matches!(
                read_ctl(&mut theirs),
                Ok(CtlMsg::SendCounts { .. })
            ));
            hub.absorb(CtlMsg::RecvCounts {
                superstep,
                from: vec![0],
            });
            hub.absorb(CtlMsg::Poison);
            assert_eq!(
                waiter.join().expect("no panic"),
                Ok(vec![0]),
                "round {superstep}"
            );
        }
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
        // Newer is legal: the rank's SendCounts can be lost in
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
}
