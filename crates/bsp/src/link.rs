//! Both ends of a supervised rank↔coordinator link (DESIGN.md §16).
//! One [`LinkEnd`] serves the rank's hub and the coordinator's
//! [`Link`] alike: a session frame goes into its bounded egress ring
//! as it is written, a heal replays the ring from the peer's resume
//! token on and swaps in the new writer, and waiters sleep until the
//! heal count moves. Around it sit the rank's heal (reconnect, `Rejoin`)
//! with its silence detection, and the coordinator's rejoin acceptor,
//! `validate_rejoin` and heartbeat monitor.

use std::io::{self, Read, Write};
use std::net::Shutdown;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use bsml_obs::{FlightEvent, Ring};

use crate::lock;
use crate::process::ParentState;
use crate::rank::RemoteHub;
use crate::transport::{Listener, RankStream};
use crate::wire::{read_ctl, write_ctl, CtlMsg, MAX_CTL_FRAME};

/// Frames the per-link egress buffer retains for replay. 4096 frames
/// comfortably covers everything in flight across one sever (a
/// superstep's worth of deliveries plus control traffic) without
/// letting a long run grow without bound.
pub(crate) const EGRESS_CAPACITY: usize = 4096;

/// How often a heal waiter re-runs its give-up test, which no heal
/// wakes (a rank process exiting, a run poisoned).
const HEAL_TICK: Duration = Duration::from_millis(10);

/// One end of a supervised link, the same for the rank's hub and the
/// coordinator's [`Link`]: the writer, the egress ring of session
/// frames handed to it, the count of session frames received from the
/// peer (the resume token this end offers), and the heal count that
/// waiters sleep on. The writer and the ring live as long as the
/// process or the fleet; [`LinkEnd::begin_run`] empties the ring.
///
/// The ring numbers every session frame this end ever sent, so the
/// peer's resume token (how many session frames *it* received) is the
/// number of the first frame to replay: exactly the frames that were
/// in flight or buffered when the socket died. Heartbeats and
/// rejoin-handshake messages bypass the ring (they are link-scoped, not
/// session-scoped), which keeps the two sides' counts in agreement.
#[derive(Debug)]
pub(crate) struct LinkEnd {
    writer: Mutex<RankStream>,
    egress: Mutex<Ring<Vec<u8>>>,
    recvd: AtomicU64,
    /// A `Freeze` fault is in force (only ever on the coordinator's
    /// end): session frames stay in the ring, unwritten, until the
    /// next heal.
    frozen: AtomicBool,
    heals: Mutex<u64>,
    healed: Condvar,
}

impl LinkEnd {
    pub(crate) fn new(writer: RankStream) -> LinkEnd {
        LinkEnd {
            writer: Mutex::new(writer),
            egress: Mutex::new(Ring::new(EGRESS_CAPACITY)),
            recvd: AtomicU64::new(0),
            frozen: AtomicBool::new(false),
            heals: Mutex::new(0),
            healed: Condvar::new(),
        }
    }

    /// Empties the ring for a run: the peer read every frame of the
    /// last one. Counts stay cumulative.
    pub(crate) fn begin_run(&self) {
        lock(&self.egress).drain();
    }

    /// Sends one *session* frame: onto the writer and into the egress
    /// ring, both under the writer lock. A heal replays the ring and
    /// swaps the writer under the same lock, so a frame is either
    /// written to the stream the peer's resume token describes or
    /// replayed from the ring — never duplicated, never lost. A frozen
    /// end only puts the frame in the ring.
    ///
    /// # Errors
    ///
    /// A failed write comes back as the heal count the frame went out
    /// under. The frame is in the ring, so a sender that must see it
    /// delivered waits for a heal past that count (the replay delivers
    /// it; writing it again would duplicate it).
    pub(crate) fn send(&self, msg: &CtlMsg) -> Result<(), u64> {
        let mut writer = lock(&self.writer);
        let frame = msg.encode();
        let written = self.is_frozen() || writer.write_all(&frame).is_ok();
        lock(&self.egress).push(frame);
        if written {
            Ok(())
        } else {
            Err(self.heals())
        }
    }

    /// Writes one *link-scoped* frame (a heartbeat ping or pong): never
    /// buffered, never replayed, failures ignored — the reading side
    /// notices a dead link soon enough.
    pub(crate) fn probe(&self, msg: &CtlMsg) {
        let _ = write_ctl(&mut *lock(&self.writer), msg);
    }

    /// Shuts the stream down under a live peer (a link fault).
    pub(crate) fn shutdown(&self, how: Shutdown) {
        let _ = lock(&self.writer).shutdown(how);
    }

    /// Withholds session frames from now until the next heal (a
    /// `Freeze` fault): the peer hears nothing, notices the silence and
    /// rejoins.
    pub(crate) fn freeze(&self) {
        // Under the writer lock, so no send that saw the end thawed is
        // still writing once this returns.
        let _writer = lock(&self.writer);
        self.frozen.store(true, Ordering::Release);
    }

    fn is_frozen(&self) -> bool {
        self.frozen.load(Ordering::Acquire)
    }

    /// Session frames received from the peer so far.
    pub(crate) fn received(&self) -> u64 {
        self.recvd.load(Ordering::Acquire)
    }

    /// Counts one session frame received from the peer.
    pub(crate) fn note_received(&self) {
        self.recvd.fetch_add(1, Ordering::AcqRel);
    }

    /// [`LinkEnd::heal_after`] with nothing to write before the replay.
    ///
    /// # Errors
    ///
    /// A replay write that fails; the old writer stays.
    fn heal(&self, writer: RankStream, token: u64) -> io::Result<Option<u64>> {
        self.heal_after(writer, token, |_| Ok(()))
    }

    /// Heals the link onto a fresh stream, all under the writer lock:
    /// checks the peer's resume `token` against the ring, runs `accept`
    /// on `writer`, replays the ring from the token on, then swaps
    /// `writer` in and thaws a frozen end. Returns the frames replayed,
    /// or `None`, before `accept` runs, when the token is outside the
    /// ring: the frames the peer is missing are gone (or it claims more
    /// than was ever sent), and the link cannot heal. The caller counts
    /// the heal with [`LinkEnd::healed`] once whatever else it hands
    /// over is in place.
    ///
    /// # Errors
    ///
    /// `accept` or a replay write that fails; the old writer stays.
    fn heal_after(
        &self,
        mut writer: RankStream,
        token: u64,
        accept: impl FnOnce(&mut RankStream) -> io::Result<()>,
    ) -> io::Result<Option<u64>> {
        let mut current = lock(&self.writer);
        let egress = lock(&self.egress);
        let Some(frames) = egress.since(token) else {
            return Ok(None);
        };
        accept(&mut writer)?;
        let replayed = frames.len() as u64;
        for frame in frames {
            writer.write_all(frame)?;
        }
        *current = writer;
        self.frozen.store(false, Ordering::Release);
        Ok(Some(replayed))
    }

    /// The coordinator's answer to a valid `Rejoin` offering resume
    /// `token`: `accepted`, then a `RejoinOk` with this end's token and
    /// the heal onto `stream`; or, for a token outside the ring, a
    /// `Reject` alone. Returns the frames replayed and the token sent.
    ///
    /// # Errors
    ///
    /// A failed clone or write; the old writer stays.
    fn answer_rejoin(
        &self,
        stream: &mut RankStream,
        token: u64,
        accepted: impl FnOnce(),
    ) -> io::Result<Option<(u64, u64)>> {
        let ours = self.received();
        let healed = self.heal_after(stream.try_clone()?, token, |writer| {
            accepted();
            write_ctl(writer, &CtlMsg::RejoinOk { resume_token: ours })
        })?;
        if healed.is_none() {
            let reason = format!(
                "resume token {token} is outside the egress ring — the missing frames are gone"
            );
            write_ctl(stream, &CtlMsg::Reject { reason })?;
        }
        Ok(healed.map(|replayed| (replayed, ours)))
    }

    /// Counts a heal and wakes everyone waiting for one.
    fn healed(&self) {
        *lock(&self.heals) += 1;
        self.healed.notify_all();
    }

    /// How many times this end has healed.
    pub(crate) fn heals(&self) -> u64 {
        *lock(&self.heals)
    }

    /// Waits for a heal: until `ready`, given the heal count, returns
    /// what the caller waits for, `give_up` says no heal can come, or
    /// `deadline` passes (`None` for the last two). A heal wakes the
    /// waiter; the give-up test, which nothing wakes, is re-run every
    /// [`HEAL_TICK`].
    pub(crate) fn await_heal<T>(
        &self,
        deadline: Instant,
        mut ready: impl FnMut(u64) -> Option<T>,
        mut give_up: impl FnMut() -> bool,
    ) -> Option<T> {
        let mut heals = lock(&self.heals);
        loop {
            if let Some(out) = ready(*heals) {
                return Some(out);
            }
            if give_up() || Instant::now() >= deadline {
                return None;
            }
            heals = self
                .healed
                .wait_timeout(heals, HEAL_TICK)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
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

impl RemoteHub {
    /// Sends one session frame to the parent; returns whether it is on
    /// its way. A failed write parks the sender until the reader thread
    /// heals the link, whose replay delivers the frame, or the run is
    /// poisoned. The wait is bounded by twice the grace window as a
    /// backstop against a reader that can make no progress at all.
    pub(crate) fn send(&self, msg: &CtlMsg) -> bool {
        let Err(seen) = self.link.send(msg) else {
            return true;
        };
        let grace = self.link_grace();
        self.endpoint.is_some()
            && !grace.is_zero()
            && self
                .link
                .await_heal(
                    Instant::now() + grace * 2,
                    |heals| (heals > seen).then_some(()),
                    || self.is_poisoned(),
                )
                .is_some()
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
    pub(crate) fn heal_link(&self) -> Option<RankStream> {
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
    /// token, learn the parent's, and heal our end of the link.
    fn rejoin_over(&self, stream: &mut RankStream, grace: Duration) -> RejoinResult {
        if stream.set_read_timeout(Some(grace)).is_err() {
            return RejoinResult::Retry;
        }
        let rejoin = CtlMsg::Rejoin {
            rank: self.rank,
            fingerprint: lock(&self.run).fingerprint,
            completed_superstep: self.completed.load(Ordering::Acquire),
            resume_token: self.link.received(),
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
        let Ok(writer) = stream.try_clone() else {
            return RejoinResult::Retry;
        };
        match self.link.heal(writer, token) {
            Ok(Some(_)) => {
                self.link.healed();
                RejoinResult::Healed
            }
            // A token outside the ring cannot be honored; the link is
            // beyond healing (the parent will escalate to rank death).
            Ok(None) => RejoinResult::Rejected,
            Err(_) => RejoinResult::Retry,
        }
    }
}

enum RejoinResult {
    Healed,
    Rejected,
    Retry,
}

/// How often a reader with a silence deadline wakes to check it.
pub(crate) const SILENCE_TICK: Duration = Duration::from_millis(50);

/// Reads one control frame with a silence deadline: short read
/// timeouts accumulate bytes, and a gap of more than `grace` since the
/// last traffic is reported as a timeout error (the heal trigger for
/// links that die silently, like a frozen parent writer). A frame
/// abandoned half-read is safe: the resume token only counts complete
/// frames, so the replay resends it whole. Returns `None` when the run
/// ended (`ended`) before the next frame began, so that the caller
/// reads on without a deadline.
pub(crate) fn read_ctl_deadline(
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

/// One rank↔coordinator link's supervision state (DESIGN.md §16).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LinkState {
    /// Traffic within the heartbeat window.
    Healthy,
    /// Silent past two heartbeat periods, not yet past grace.
    Suspect,
    /// The socket errored; waiting for a reconnect within grace.
    Disconnected,
    /// A rejoin handshake is in progress.
    Rejoining,
}

/// Everything the parent supervises per rank link: its end of the
/// link, the state machine, and the handoff slot the rejoin acceptor
/// uses to give the reader thread its healed stream. A link lives as
/// long as its fleet; [`Link::begin_run`] resets what belongs to one
/// run.
pub(crate) struct Link {
    pub(crate) end: LinkEnd,
    pub(crate) state: Mutex<LinkState>,
    /// The healed reader half and the resume token the acceptor sent
    /// in its `RejoinOk`, parked here until the rank's reader thread
    /// picks them up.
    pending_reader: Mutex<Option<(RankStream, u64)>>,
    pub(crate) last_seen: Mutex<Instant>,
    /// Accepted rejoins the acceptor still severs before letting one
    /// through (the `Flap(n)` fault's storm counter).
    pub(crate) flap_remaining: AtomicU32,
    /// Valid rejoin attempts consumed against the budget.
    rejoin_attempts: AtomicU32,
}

impl Link {
    pub(crate) fn new(writer: RankStream) -> Link {
        Link {
            end: LinkEnd::new(writer),
            state: Mutex::new(LinkState::Healthy),
            pending_reader: Mutex::new(None),
            last_seen: Mutex::new(Instant::now()),
            flap_remaining: AtomicU32::new(0),
            rejoin_attempts: AtomicU32::new(0),
        }
    }

    /// Readies the link for a run: healthy, fresh liveness and rejoin
    /// budget, and an empty egress ring — the rank read every frame of
    /// the last run before it reported `Done`.
    pub(crate) fn begin_run(&self) {
        *lock(&self.state) = LinkState::Healthy;
        *lock(&self.last_seen) = Instant::now();
        self.rejoin_attempts.store(0, Ordering::Release);
        self.end.begin_run();
    }
}

/// Link-supervision counters, flushed into the machine's telemetry as
/// `net.*` at the end of the attempt.
#[derive(Default)]
pub(crate) struct LinkCounters {
    pub(crate) heartbeats_sent: AtomicU64,
    pub(crate) heartbeats_missed: AtomicU64,
    /// Link-state transitions (any edge of the FSM).
    pub(crate) link_state: AtomicU64,
    /// Completed rejoins: `RejoinOk` sent *and* the replay finished.
    pub(crate) rejoins: AtomicU64,
    /// Frames replayed from parent-side egress rings by completed
    /// heals.
    pub(crate) egress_replayed: AtomicU64,
}

/// The reader's side of partition healing: wait until the rejoin
/// acceptor parks a healed stream, the rank's process dies (a dead
/// process cannot rejoin), or the grace window expires — in which case
/// the still-live child is SIGKILLed so the link failure becomes an
/// honest rank death.
pub(crate) fn wait_for_rejoin(state: &ParentState, rank: usize) -> Option<(RankStream, u64)> {
    let link = &state.fleet.links[rank];
    if state.link_grace.is_zero() {
        return None;
    }
    state.set_state(rank, LinkState::Disconnected);
    // The parked reader half *is* the heal signal (the heal count only
    // wakes this thread): checking it directly also covers an acceptor
    // that healed the link before this thread even noticed the old
    // stream was dead.
    let healed = link.end.await_heal(
        Instant::now() + state.link_grace * 2,
        |_| lock(&link.pending_reader).take(),
        || state.exited(rank),
    );
    if healed.is_none() {
        // A no-op on a process that already exited.
        state.kill(rank);
    }
    healed
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
pub(crate) fn rejoin_acceptor(state: &ParentState, listener: &dyn Listener) {
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
    if link
        .flap_remaining
        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
        .is_ok()
    {
        let _ = stream.shutdown(Shutdown::Both);
        return Ok(());
    }
    let CtlMsg::Rejoin { resume_token, .. } = claim else {
        unreachable!("validate_rejoin only accepts Rejoin");
    };
    let answer = link.end.answer_rejoin(&mut stream, resume_token, || {
        state.set_state(rank, LinkState::Rejoining);
    })?;
    let Some((replayed, our_token)) = answer else {
        return Ok(());
    };
    state
        .counters
        .egress_replayed
        .fetch_add(replayed, Ordering::Relaxed);
    stream.set_read_timeout(None)?;
    *lock(&link.pending_reader) = Some((stream, our_token));
    // Every link gets a fresh liveness stamp, not just the healed one:
    // the barrier hold stalled the peers' reader threads, so their
    // stale `last_seen` says nothing about their ranks.
    for peer in &state.fleet.links {
        *lock(&peer.last_seen) = Instant::now();
    }
    state.set_state(rank, LinkState::Healthy);
    link.end.healed();
    state.counters.rejoins.fetch_add(1, Ordering::Relaxed);
    Ok(())
}

/// The heartbeat monitor: every heartbeat period, pings every link
/// that is still in play (no report, no death note, not frozen, not
/// mid-heal) and grades its silence — two missed periods demote the
/// link to `Suspect`, a full grace window of silence on an
/// *apparently-connected* link SIGKILLs the rank (the reader's own
/// grace handles links that errored outright).
pub(crate) fn link_monitor(state: &ParentState) {
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
                || link.end.is_frozen()
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
            link.end.probe(&CtlMsg::Ping { lamport: stamp });
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::net::UnixStream;

    fn pair() -> (RankStream, RankStream) {
        let (a, b) = UnixStream::pair().expect("socketpair");
        (RankStream::Unix(a), RankStream::Unix(b))
    }

    fn release(superstep: u64) -> CtlMsg {
        CtlMsg::BarrierRelease { superstep }
    }

    #[test]
    fn a_frame_sent_on_a_dead_writer_arrives_once_after_the_heal() {
        let (ours, mut theirs) = pair();
        let end = LinkEnd::new(ours);
        end.send(&release(0)).expect("the link is up");
        assert_eq!(read_ctl(&mut theirs).unwrap(), release(0));
        // The link dies; the next frame's write fails, and the frame
        // waits in the ring under the heal count it went out under.
        end.shutdown(Shutdown::Both);
        drop(theirs);
        let seen = end.heals();
        assert_eq!(end.send(&release(1)), Err(seen));
        // The peer comes back having received one session frame.
        let (fresh, mut peer) = pair();
        assert_eq!(end.heal(fresh, 1).expect("replayed"), Some(1));
        end.healed();
        let woke = end.await_heal(
            Instant::now() + Duration::from_secs(5),
            |heals| (heals > seen).then_some(()),
            || false,
        );
        assert_eq!(woke, Some(()));
        // Exactly once: the replayed frame, then the next one sent.
        end.send(&CtlMsg::Poison).expect("healed");
        assert_eq!(read_ctl(&mut peer).unwrap(), release(1));
        assert_eq!(read_ctl(&mut peer).unwrap(), CtlMsg::Poison);
    }

    #[test]
    fn a_resume_token_older_than_the_ring_is_refused() {
        let (ours, _theirs) = pair();
        let end = LinkEnd::new(ours);
        // Frozen, the end fills its ring without writing a frame.
        end.freeze();
        let sent = EGRESS_CAPACITY as u64 + 1;
        for superstep in 0..sent {
            end.send(&release(superstep)).expect("frozen");
        }
        // Frame 0 was evicted, and a token past `sent` was never earned.
        // A refusal writes nothing, so a stream that cannot block turns
        // a wrongful replay into an error instead of a hang.
        for token in [0, sent + 1] {
            let (fresh, _peer) = pair();
            fresh.set_nonblocking(true).expect("nonblocking");
            assert_eq!(end.heal(fresh, token).expect("nothing written"), None);
        }
        assert!(end.is_frozen(), "a refused heal leaves the end as it was");
        // A token inside the ring heals and thaws the end.
        let (fresh, mut peer) = pair();
        assert_eq!(end.heal(fresh, sent - 1).expect("replayed"), Some(1));
        assert!(!end.is_frozen());
        assert_eq!(read_ctl(&mut peer).unwrap(), release(sent - 1));
    }

    #[test]
    fn a_token_past_what_was_sent_gets_a_reject_and_no_rejoin_ok() {
        let (ours, _theirs) = pair();
        let end = LinkEnd::new(ours);
        end.send(&release(0)).expect("the link is up");
        // The rank claims two session frames; one was ever sent.
        let (mut fresh, mut rank) = pair();
        let mut accepted = false;
        let answer = end.answer_rejoin(&mut fresh, 2, || accepted = true);
        assert_eq!(answer.expect("answered"), None);
        assert!(!accepted, "a refused token changes no link state");
        drop(fresh);
        // The `Reject` is all the rank hears.
        assert!(matches!(read_ctl(&mut rank), Ok(CtlMsg::Reject { .. })));
        assert!(read_ctl(&mut rank).is_err(), "nothing after the Reject");
        // A token inside the ring: `RejoinOk` with this end's token,
        // then the replay.
        let (mut fresh, mut rank) = pair();
        let answer = end.answer_rejoin(&mut fresh, 0, || accepted = true);
        assert_eq!(answer.expect("healed"), Some((1, 0)));
        assert!(accepted);
        assert_eq!(
            read_ctl(&mut rank).unwrap(),
            CtlMsg::RejoinOk { resume_token: 0 }
        );
        assert_eq!(read_ctl(&mut rank).unwrap(), release(0));
    }
}
