//! The **distributed** execution backend: one OS thread per BSP
//! processor, real message exchange, real synchronization barriers —
//! the execution model of the original BSMLlib over MPI (and of
//! Loulergue's "Distributed Evaluation of Functional BSP Programs",
//! the paper's reference \[5\]).
//!
//! Every processor runs the *same* program (SPMD). Replicated
//! (global) expressions are evaluated identically on every thread;
//! parallel vectors exist only as each thread's own component
//! (width-1 `Value::Vector`s). `put` encodes each message once
//! ([`crate::wire::encode_value`]); `put` and `if‥at‥` frame their
//! data on the wire protocol of [`crate::wire`] and exchange the
//! frames through per-rank mailboxes
//! behind a lossless [`crate::transport::Transport`]. Only non-empty
//! messages become frames. Each rank's per-destination frame counts
//! travel in a *count round*, the superstep's entry synchronization;
//! when it completes, every receiver's mailbox holds exactly the frames
//! announced to it, and it drains them without waiting. Every data
//! frame carries a per-link sequence number, and a missing, surplus or
//! out-of-sequence frame fails the run at once with
//! [`EvalError::TransportFailure`] (DESIGN.md §10). The final barrier
//! of the superstep is a poisonable `PoisonBarrier` (a failing
//! processor releases, rather than deadlocks, its peers), and it keeps
//! the next superstep's frames out of this one's drain.
//!
//! **Robustness** (DESIGN.md §9): every barrier wait runs under a
//! wall-clock watchdog ([`DEFAULT_BARRIER_TIMEOUT`]), so a stalled or
//! deadlocked peer surfaces as [`EvalError::BarrierTimeout`] instead
//! of hanging `run()` forever; a *panicking* processor thread is
//! contained (unwind-caught, barrier poisoned) and reported as
//! [`EvalError::PeerFailure`] instead of aborting the runner; and a
//! seeded [`crate::faults::FaultPlan`] can deterministically inject
//! crashes, message drops and stalls for chaos testing — see
//! [`crate::supervisor::Supervisor`] for replay-based recovery.
//!
//! The lockstep simulator ([`crate::BspMachine`]) and this machine
//! are cross-checked in `tests/distributed.rs`: same values, same
//! per-superstep h-relations.
//!
//! ```
//! use bsml_bsp::distributed::DistMachine;
//! use bsml_syntax::parse;
//!
//! let machine = DistMachine::new(4);
//! let out = machine.run(&parse(
//!     "let recv = put (mkpar (fun j -> fun i -> j * j)) in
//!      apply (recv, mkpar (fun i -> (i + 1) mod (bsp_p ())))")?)?;
//! assert_eq!(out.value.to_string(), "<|1, 4, 9, 0|>");
//! assert_eq!(out.supersteps, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use bsml_ast::Expr;
use bsml_eval::{
    Applier, ByteReader, CodecError, EvalError, Evaluator, Mode, NoHooks, ParallelDriver, Value,
};
use bsml_obs::{FlightEvent, FlightRecorder, Telemetry};

use crate::checkpoint::{
    program_fingerprint, CheckpointPolicy, CheckpointStore, RankFrame, ResumePoint, SyncOutcome,
};
use crate::faults::{FaultKind, FaultPlan};
use crate::machine::add_run_counters;
use crate::postmortem::{FlightLog, RankFlightLog};
use crate::process::RemoteHub;
use crate::transport::{SharedMem, Transport};
use crate::wire::{
    decode_value, encode_value, CtlLedger, CtlStats, Frame, FramePayload, NO_MESSAGE,
};

/// Default per-processor fuel of a [`DistMachine`]: conservative
/// enough that a divergent SPMD program terminates with
/// [`EvalError::OutOfFuel`] in well under a second per thread instead
/// of spinning `p` threads indefinitely. Raise it with
/// [`DistMachine::with_fuel`] for genuinely long computations.
pub const DIST_DEFAULT_FUEL: u64 = 10_000_000;

/// Default watchdog timeout on every barrier wait (the count round's
/// included). Generous for a shared-memory machine (barriers
/// are microseconds); its job is to convert *pathological* states — a
/// deadlocked or runaway peer — into [`EvalError::BarrierTimeout`]
/// rather than a hang. Override with
/// [`DistMachine::with_barrier_timeout`] or the
/// `BSML_BARRIER_TIMEOUT_MS` environment variable (read at
/// [`DistMachine::new`]), or disable with
/// [`DistMachine::without_watchdog`].
pub const DEFAULT_BARRIER_TIMEOUT: Duration = Duration::from_secs(30);

/// The environment variable overriding [`DEFAULT_BARRIER_TIMEOUT`]
/// (milliseconds). Unparsable values fall back to the default; the
/// builder method still wins over the environment.
pub const BARRIER_TIMEOUT_ENV: &str = "BSML_BARRIER_TIMEOUT_MS";

/// The watchdog timeout [`DistMachine::new`] starts from: the
/// [`BARRIER_TIMEOUT_ENV`] override when set and parsable, else
/// [`DEFAULT_BARRIER_TIMEOUT`] (malformed values are counted under
/// `config.bad_env_values` by `bsml_obs::env`).
fn barrier_timeout_from_env() -> Duration {
    bsml_obs::env::duration_ms_knob(
        BARRIER_TIMEOUT_ENV,
        DEFAULT_BARRIER_TIMEOUT,
        &Telemetry::disabled(),
    )
}

/// The environment variable enabling the per-rank flight recorder and
/// setting its ring-buffer capacity (events per rank). Unset or
/// unparsable values leave the recorder off; builder methods
/// ([`DistMachine::with_flight_recorder`]) still win over the
/// environment.
pub const FLIGHT_CAPACITY_ENV: &str = "BSML_FLIGHT_CAPACITY";

/// The flight-recorder capacity the supervisor uses when a postmortem
/// directory is configured but no capacity was chosen explicitly.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

/// The flight capacity [`DistMachine::new`] starts from: the
/// [`FLIGHT_CAPACITY_ENV`] override when set and parsable, else off
/// (malformed values are counted under `config.bad_env_values`).
fn flight_capacity_from_env() -> Option<usize> {
    bsml_obs::env::parse_knob_opt(FLIGHT_CAPACITY_ENV, &Telemetry::disabled())
}

/// Locks a mutex whose protected data stays valid across a peer
/// panic (plain counters): poisoning is ignored, the guard recovered.
fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A synchronization barrier that can be *poisoned*: when one
/// processor fails, every processor waiting (now or later) is
/// released with [`EvalError::PeerFailure`] instead of deadlocking.
/// Waits may carry a watchdog timeout; a timed-out wait poisons the
/// barrier (so every peer is released too) and surfaces as
/// [`EvalError::BarrierTimeout`].
#[derive(Debug)]
pub(crate) struct PoisonBarrier {
    n: usize,
    state: Mutex<BarrierState>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct BarrierState {
    waiting: usize,
    generation: u64,
    poisoned: bool,
}

impl PoisonBarrier {
    fn new(n: usize) -> PoisonBarrier {
        PoisonBarrier {
            n,
            state: Mutex::new(BarrierState::default()),
            cv: Condvar::new(),
        }
    }

    /// Waits for all `n` processors, or until `timeout` elapses.
    ///
    /// The **last** arriver runs `on_complete` (if any) while still
    /// holding the barrier lock, *before* releasing anyone: whatever
    /// the closure observes or publishes is a consistent cut — every
    /// processor has arrived, none has moved on. This is how
    /// checkpoint generations are committed (DESIGN.md §9).
    ///
    /// A poisoned *mutex* (a peer panicked inside the critical
    /// section) is treated like a poisoned barrier: the state may be
    /// inconsistent, so the only safe report is a peer failure.
    fn wait(
        &self,
        timeout: Option<Duration>,
        on_complete: Option<&dyn Fn()>,
    ) -> Result<(), EvalError> {
        let Ok(mut st) = self.state.lock() else {
            return Err(EvalError::PeerFailure);
        };
        if st.poisoned {
            return Err(EvalError::PeerFailure);
        }
        st.waiting += 1;
        if st.waiting == self.n {
            st.waiting = 0;
            // Wrapping: generations only distinguish *adjacent*
            // barrier episodes, so reuse across u64 wraparound is
            // sound (and unit-tested).
            st.generation = st.generation.wrapping_add(1);
            if let Some(complete) = on_complete {
                complete();
            }
            self.cv.notify_all();
            return Ok(());
        }
        let gen = st.generation;
        let deadline = timeout.map(|t| Instant::now() + t);
        while st.generation == gen && !st.poisoned {
            match deadline {
                None => {
                    st = match self.cv.wait(st) {
                        Ok(g) => g,
                        Err(_) => return Err(EvalError::PeerFailure),
                    };
                }
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        let waiting = st.waiting;
                        st.poisoned = true;
                        self.cv.notify_all();
                        return Err(EvalError::BarrierTimeout {
                            superstep: gen,
                            waiting,
                        });
                    }
                    st = match self.cv.wait_timeout(st, d - now) {
                        Ok((g, _)) => g,
                        Err(_) => return Err(EvalError::PeerFailure),
                    };
                }
            }
        }
        if st.poisoned {
            Err(EvalError::PeerFailure)
        } else {
            Ok(())
        }
    }

    fn poison(&self) {
        let mut st = lock_ignore_poison(&self.state);
        st.poisoned = true;
        self.cv.notify_all();
    }
}

/// How one attempt's ranks synchronize: through a shared in-memory
/// [`PoisonBarrier`] (the thread-per-rank backend), or through the
/// parent coordinator's control stream (the process-per-rank backend,
/// DESIGN.md §13 — each rank is an OS process holding one end of a
/// Unix socket, and "poison" is a control message instead of a flag).
#[derive(Debug)]
pub(crate) enum SyncBackend {
    /// All ranks share one address space, one barrier, and one matrix
    /// of send counts.
    Local {
        barrier: PoisonBarrier,
        /// `counts[parity][src * p + dst]`: the frames `src` sent `dst`
        /// in the last superstep of that parity. A rank writes its row
        /// before the count round and reads its column after it, and
        /// the round's barrier orders the two. The buffers alternate by
        /// superstep parity, so the count rounds alone order every
        /// write after the reads it could clobber: the next write into
        /// superstep `s`'s buffer (for `s + 2`) waits behind round
        /// `s + 1`, which every reader of `s` enters first.
        counts: [Vec<AtomicU64>; 2],
    },
    /// This rank is alone in its process; the count round, barriers
    /// and poison travel through the hub's socket.
    Remote(Arc<RemoteHub>),
}

impl SyncBackend {
    fn local(p: usize) -> SyncBackend {
        let matrix = || (0..p * p).map(|_| AtomicU64::new(0)).collect();
        SyncBackend::Local {
            barrier: PoisonBarrier::new(p),
            counts: [matrix(), matrix()],
        }
    }
}

/// Counters for everything the fault, checkpoint, and transport
/// layers did to one run; flushed into the `bsp.*` and `net.*`
/// telemetry counters whether the run succeeds or fails.
#[derive(Debug, Default)]
struct FaultLedger {
    faults_injected: AtomicU64,
    barrier_timeouts: AtomicU64,
    checkpoints_written: AtomicU64,
    checkpoint_bytes: AtomicU64,
    /// The highest superstep any rank completed (only maintained when
    /// checkpointing is enabled) — how the supervisor knows, even for
    /// errors that carry no coordinate (a peer panic), how much
    /// progress a failed attempt made and therefore how many
    /// supersteps a resume replays.
    furthest_superstep: AtomicU64,
    /// Data frames handed to the transport.
    frames_sent: AtomicU64,
    /// Received frames rejected by the wire decoder (checksum,
    /// truncation, bad tags) — each fails the run.
    corrupt_frames: AtomicU64,
}

impl FaultLedger {
    /// A plain snapshot of the portable counters — the form a rank
    /// process ships home over the control stream, and the form
    /// [`flush_counters`] consumes.
    fn counters(&self) -> CtlLedger {
        CtlLedger {
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
            barrier_timeouts: self.barrier_timeouts.load(Ordering::Relaxed),
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            corrupt_frames: self.corrupt_frames.load(Ordering::Relaxed),
        }
    }
}

/// Flushes one attempt's fault, transport and checkpoint counters into
/// the `bsp.*` / `net.*` telemetry counters — shared by the in-process
/// backend (from its own [`FaultLedger`]) and the multi-process parent
/// (from the [`CtlLedger`]s its rank processes shipped home), so both
/// backends account identically.
pub(crate) fn flush_counters(
    telemetry: &Telemetry,
    counters: &CtlLedger,
    checkpoints_written: u64,
    checkpoint_bytes: u64,
) {
    if counters.faults_injected > 0 {
        telemetry.counter_add("bsp.faults_injected", counters.faults_injected);
    }
    if counters.barrier_timeouts > 0 {
        telemetry.counter_add("bsp.barrier_timeouts", counters.barrier_timeouts);
    }
    if checkpoints_written > 0 {
        telemetry.counter_add("bsp.checkpoints_written", checkpoints_written);
    }
    if checkpoint_bytes > 0 {
        telemetry.counter_add("bsp.checkpoint_bytes", checkpoint_bytes);
    }
    if counters.frames_sent > 0 {
        telemetry.counter_add("net.frames_sent", counters.frames_sent);
    }
    if counters.corrupt_frames > 0 {
        telemetry.counter_add("net.corrupt_frames", counters.corrupt_frames);
    }
}

/// The checkpoint runtime shared by all ranks of one attempt.
#[derive(Debug)]
struct NetCheckpoint {
    /// Checkpoint every `interval` completed supersteps.
    interval: u64,
    /// Where frames are staged and committed.
    store: Arc<dyn CheckpointStore>,
    /// [`program_fingerprint`] of this (program, p) pair.
    fingerprint: u64,
}

/// The shared "network": the frame transport, the barrier, and the
/// (optional) fault plan governing this attempt.
#[derive(Debug)]
struct Network {
    p: usize,
    /// How this rank synchronizes with its peers (in-memory barrier,
    /// or the parent coordinator's control stream).
    sync: SyncBackend,
    /// The substrate frames travel over (per-rank mailboxes).
    transport: Arc<dyn Transport>,
    /// Watchdog timeout applied to every count round and barrier wait.
    barrier_timeout: Option<Duration>,
    /// Faults to inject into this attempt (`None` = zero-cost).
    faults: Option<Arc<FaultPlan>>,
    /// Which retry attempt this network serves (plans arm faults
    /// per-attempt).
    attempt: u32,
    ledger: FaultLedger,
    /// Checkpoint runtime (`None` = checkpointing disabled, which
    /// keeps the hot path free of any new work).
    checkpoint: Option<NetCheckpoint>,
    /// Per-rank flight recorders (`None` = recording disabled). They
    /// live here — not in the driver — so the attempt can drain every
    /// rank's ring after the threads are gone, including ranks that
    /// panicked.
    flight: Option<Vec<Arc<FlightRecorder>>>,
    /// Unique ids for telemetry flow arrows (one per delivered data
    /// frame).
    flow_ids: AtomicU64,
}

impl Network {
    fn new(
        p: usize,
        transport: Arc<dyn Transport>,
        barrier_timeout: Option<Duration>,
        faults: Option<Arc<FaultPlan>>,
        attempt: u32,
        checkpoint: Option<NetCheckpoint>,
        flight: Option<Vec<Arc<FlightRecorder>>>,
    ) -> Network {
        Network {
            p,
            sync: SyncBackend::local(p),
            transport,
            barrier_timeout,
            faults,
            attempt,
            ledger: FaultLedger::default(),
            checkpoint,
            flight,
            flow_ids: AtomicU64::new(0),
        }
    }

    /// Marks the run as dead, releasing every waiter — a barrier flag
    /// locally, a control message through the hub remotely.
    fn poison(&self) {
        match &self.sync {
            SyncBackend::Local { barrier, .. } => barrier.poison(),
            SyncBackend::Remote(hub) => hub.poison(),
        }
    }
}

/// Replay state of a resumed rank: the checkpoint frame being
/// consumed and a cursor into its outcome log.
struct ReplayState {
    frame: RankFrame,
    next: usize,
}

/// The SPMD driver for one processor (rank). Statistics are shared
/// out through a mutex so the thread can read them back after the
/// evaluator (which owns the boxed driver) is done.
struct SpmdDriver {
    rank: usize,
    net: Arc<Network>,
    stats: Arc<Mutex<CtlStats>>,
    /// Per-rank telemetry handle (on track `p{rank}`); disabled by
    /// default.
    telemetry: Telemetry,
    /// The outcome log recorded for checkpoint frames (`Some` iff
    /// checkpointing is enabled; grows by one entry per superstep).
    record: Option<Vec<SyncOutcome>>,
    /// Replay state when this attempt resumes from a checkpoint.
    replay: Option<ReplayState>,
    /// Next sequence number per `(self → dst)` link.
    send_seq: Vec<u64>,
    /// Next expected sequence number per `(src → self)` link; a frame
    /// carrying any other number fails the exchange.
    recv_seq: Vec<u64>,
    /// This rank's Lamport clock (DESIGN.md §12): advanced by one on
    /// every local protocol event (stamping a frame, entering or
    /// leaving a barrier), and to `max(local, remote) + 1` on every
    /// received frame — so a receive is always strictly after its
    /// send in Lamport order, across ranks. Shared (atomically) with
    /// the process-mode control hub, whose heartbeat and link events
    /// must interleave correctly with the driver's stamps.
    clock: Arc<AtomicU64>,
    /// This rank's flight recorder (`None` = recording disabled).
    flight: Option<Arc<FlightRecorder>>,
    /// Fuel remaining at the previous superstep boundary — the
    /// [`FlightEvent::SuperstepEnd`] work figure is the delta.
    fuel_mark: u64,
    /// `sent_words` at the previous superstep boundary.
    sent_mark: u64,
    /// `received_words` at the previous superstep boundary.
    recv_mark: u64,
}

impl SpmdDriver {
    /// The superstep this rank is currently entering (completed
    /// barriers so far) — the coordinate fault plans are keyed on.
    fn superstep(&self) -> u64 {
        lock_ignore_poison(&self.stats).supersteps
    }

    /// Advances the Lamport clock for a local event and returns the
    /// new stamp.
    fn tick(&mut self) -> u64 {
        self.clock.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Advances the Lamport clock past a received remote stamp
    /// (`max(local, remote) + 1`) and returns the new stamp.
    fn observe(&mut self, remote: u64) -> u64 {
        self.clock.fetch_max(remote, Ordering::AcqRel);
        self.tick()
    }

    /// Records one flight event at the given stamp (no-op when the
    /// recorder is off).
    fn flight_record(&self, lamport: u64, event: FlightEvent) {
        if let Some(rec) = &self.flight {
            rec.record(lamport, event);
        }
    }

    /// At every superstep boundary: one [`FlightEvent::SuperstepEnd`]
    /// carrying the per-superstep work (the fuel delta) and traffic
    /// (sent/received word deltas) since the previous boundary —
    /// the record the postmortem analyzer folds into observed BSP
    /// parameters. No-op when the recorder is off.
    fn note_superstep_end(&mut self, superstep: u64, fuel_left: u64) {
        if self.flight.is_none() {
            return;
        }
        let stats = *lock_ignore_poison(&self.stats);
        let work = self.fuel_mark.saturating_sub(fuel_left);
        let sent_words = stats.sent_words - self.sent_mark;
        let received_words = stats.received_words - self.recv_mark;
        self.fuel_mark = fuel_left;
        self.sent_mark = stats.sent_words;
        self.recv_mark = stats.received_words;
        let lamport = self.tick();
        self.flight_record(
            lamport,
            FlightEvent::SuperstepEnd {
                superstep,
                work,
                sent_words,
                received_words,
            },
        );
    }

    /// Injects any crash/panic/stall the fault plan schedules for
    /// this rank at the current superstep. Called once at the entry
    /// of each synchronizing primitive. Every firing lands in the
    /// flight recorder *before* its effect — a panicking rank's last
    /// recorded event is the panic that killed it.
    fn inject_entry_faults(&mut self) -> Result<u64, EvalError> {
        let superstep = self.superstep();
        let Some(plan) = &self.net.faults else {
            return Ok(superstep);
        };
        let plan = Arc::clone(plan);
        if let Some(delay) = plan.stall_before(self.rank, superstep, self.net.attempt) {
            self.net
                .ledger
                .faults_injected
                .fetch_add(1, Ordering::Relaxed);
            let lamport = self.tick();
            self.flight_record(lamport, FlightEvent::FaultFired { superstep, kind: 3 });
            std::thread::sleep(delay);
        }
        match plan.crash_at(self.rank, superstep, self.net.attempt) {
            Some(kind @ FaultKind::Panic { .. }) => {
                self.net
                    .ledger
                    .faults_injected
                    .fetch_add(1, Ordering::Relaxed);
                let lamport = self.tick();
                self.flight_record(
                    lamport,
                    FlightEvent::FaultFired {
                        superstep,
                        kind: kind.code(),
                    },
                );
                // Contained by `run_rank`'s unwind guard, which also
                // poisons the barrier on our behalf.
                panic!(
                    "injected panic: processor {} at superstep {superstep}",
                    self.rank
                );
            }
            Some(kind) => {
                self.net
                    .ledger
                    .faults_injected
                    .fetch_add(1, Ordering::Relaxed);
                let lamport = self.tick();
                self.flight_record(
                    lamport,
                    FlightEvent::FaultFired {
                        superstep,
                        kind: kind.code(),
                    },
                );
                self.net.poison();
                Err(EvalError::InjectedFault {
                    rank: self.rank,
                    superstep,
                })
            }
            None => Ok(superstep),
        }
    }

    /// Whether the fault plan drops this rank's message to `dst` in
    /// the given superstep (counting and recording the injection if
    /// so).
    fn drops_message(&mut self, dst: usize, superstep: u64) -> bool {
        let Some(plan) = &self.net.faults else {
            return false;
        };
        if plan.drops(self.rank, dst, superstep, self.net.attempt) {
            self.net
                .ledger
                .faults_injected
                .fetch_add(1, Ordering::Relaxed);
            let lamport = self.tick();
            self.flight_record(lamport, FlightEvent::FaultFired { superstep, kind: 2 });
            true
        } else {
            false
        }
    }

    /// Waits on the shared barrier under the watchdog, recording how
    /// long this thread spent blocked into the `bsp.barrier_wait_us`
    /// histogram. Timeouts are re-tagged with this rank's BSP
    /// superstep and counted.
    fn barrier_wait(&self) -> Result<(), EvalError> {
        self.barrier_wait_with(None)
    }

    fn barrier_wait_with(&self, on_complete: Option<&dyn Fn()>) -> Result<(), EvalError> {
        self.timed_barrier(|| match &self.net.sync {
            SyncBackend::Local { barrier, .. } => {
                barrier.wait(self.net.barrier_timeout, on_complete)
            }
            // The remote backend synchronizes through the hub in
            // `superstep_exit_barrier`; a bare local wait has no
            // remote counterpart, so reaching one is a protocol bug
            // reported as a peer failure (never a hang).
            SyncBackend::Remote(_) => Err(EvalError::PeerFailure),
        })
    }

    /// Runs one synchronization (a count round or a barrier wait, on
    /// any backend), timing it into the `bsp.barrier_wait_us`
    /// histogram and re-tagging timeouts with this rank's BSP superstep
    /// (counted in the ledger).
    fn timed_barrier<T>(
        &self,
        wait: impl FnOnce() -> Result<T, EvalError>,
    ) -> Result<T, EvalError> {
        let result = if self.telemetry.is_enabled() {
            let before = Instant::now();
            let result = wait();
            let waited = u64::try_from(before.elapsed().as_micros()).unwrap_or(u64::MAX);
            self.telemetry
                .histogram_record("bsp.barrier_wait_us", waited);
            result
        } else {
            wait()
        };
        match result {
            Err(EvalError::BarrierTimeout { waiting, .. }) => {
                self.net
                    .ledger
                    .barrier_timeouts
                    .fetch_add(1, Ordering::Relaxed);
                Err(EvalError::BarrierTimeout {
                    superstep: self.superstep(),
                    waiting,
                })
            }
            other => other,
        }
    }

    fn my_component<'v>(
        &self,
        comps: &'v [Value],
        what: &'static str,
    ) -> Result<&'v Value, EvalError> {
        if comps.len() == 1 {
            Ok(&comps[0])
        } else {
            Err(EvalError::ScrutineeMismatch(
                what,
                format!(
                    "SPMD vectors hold one component per processor, got width {}",
                    comps.len()
                ),
            ))
        }
    }

    /// One superstep's communication. Stamps and sends `sends` (this
    /// rank's non-empty messages, at most one per peer), runs the count
    /// round, and drains exactly the frames it announced. Returns the
    /// delivered payloads by source rank; `None` where a peer sent
    /// nothing.
    fn exchange(
        &mut self,
        superstep: u64,
        sends: Vec<(usize, FramePayload)>,
    ) -> Result<Vec<Option<FramePayload>>, EvalError> {
        let net = Arc::clone(&self.net);
        let mut to = vec![0u64; net.p];
        for (dst, payload) in sends {
            // Stamp each outbound frame with this rank's Lamport clock
            // at build time — what lets the postmortem analyzer pair
            // every receive with its send.
            let seq = self.send_seq[dst];
            self.send_seq[dst] += 1;
            let lamport = self.tick();
            let bytes = Frame {
                from: self.rank,
                superstep,
                seq,
                lamport,
                payload,
            }
            .encode();
            self.flight_record(
                lamport,
                FlightEvent::FrameSent {
                    to: dst as u64,
                    seq,
                    superstep,
                    bytes: bytes.len() as u64,
                },
            );
            if !net.transport.try_send(dst, &bytes) {
                return Err(self.transport_failure(
                    superstep,
                    format!("the mailbox of rank {dst} refused a frame: it is full"),
                ));
            }
            net.ledger.frames_sent.fetch_add(1, Ordering::Relaxed);
            to[dst] += 1;
        }
        let from = self.count_round(superstep, to)?;
        self.drain(superstep, from)
    }

    /// The count round: publishes how many frames this rank sent each
    /// peer, waits for every rank to do the same, and returns how many
    /// each peer sent this rank. It is the superstep's entry
    /// synchronization, timed into `bsp.barrier_wait_us` like the exit
    /// barrier. Every frame was handed to the transport before its
    /// sender entered the round, so when the round returns this rank's
    /// mailbox holds them all (DESIGN.md §10).
    fn count_round(&self, superstep: u64, to: Vec<u64>) -> Result<Vec<u64>, EvalError> {
        let net = &self.net;
        match &net.sync {
            SyncBackend::Local { barrier, counts } => {
                let p = net.p;
                let matrix = &counts[(superstep % 2) as usize];
                // Relaxed suffices: the barrier's mutex orders every
                // rank's stores before any rank's loads.
                for (dst, n) in to.into_iter().enumerate() {
                    matrix[self.rank * p + dst].store(n, Ordering::Relaxed);
                }
                self.timed_barrier(|| barrier.wait(net.barrier_timeout, None))?;
                Ok((0..p)
                    .map(|src| matrix[src * p + self.rank].load(Ordering::Relaxed))
                    .collect())
            }
            SyncBackend::Remote(hub) => {
                self.timed_barrier(|| hub.count_round(superstep, to, net.barrier_timeout))
            }
        }
    }

    /// Drains this rank's mailbox after the count round, which
    /// announced `from[src]` frames from each peer. Each frame must
    /// decode, come from a peer with an announced frame outstanding,
    /// and carry that link's exact next sequence number; afterwards no
    /// announced frame may be missing. Anything else — a corrupt,
    /// surplus, duplicate, out-of-sequence or missing frame — fails
    /// the run at once with [`EvalError::TransportFailure`]. There is
    /// nothing to wait for: the exit barrier that follows keeps the
    /// next superstep's frames out (DESIGN.md §10).
    fn drain(
        &mut self,
        superstep: u64,
        mut from: Vec<u64>,
    ) -> Result<Vec<Option<FramePayload>>, EvalError> {
        let net = Arc::clone(&self.net);
        let p = net.p;
        let mut inbox: Vec<Option<FramePayload>> = vec![None; p];
        while let Some(bytes) = net.transport.recv(self.rank) {
            let frame = Frame::decode(&bytes).map_err(|err| self.corrupt_frame(superstep, err))?;
            let src = frame.from;
            if src >= p || src == self.rank {
                return Err(self.transport_failure(
                    superstep,
                    format!("frame claims to come from rank {src}, which is not a peer"),
                ));
            }
            if from[src] == 0 || inbox[src].is_some() {
                return Err(self.transport_failure(
                    superstep,
                    format!(
                        "frame from rank {src} (seq {}) on a link nothing more was \
                         announced on",
                        frame.seq
                    ),
                ));
            }
            if frame.seq != self.recv_seq[src] {
                return Err(self.transport_failure(
                    superstep,
                    format!(
                        "frame from rank {src} carries seq {}, expected {}",
                        frame.seq, self.recv_seq[src]
                    ),
                ));
            }
            // Every received frame advances the Lamport clock past
            // the sender's stamp: the receive is strictly after the
            // send, machine-wide.
            let stamp = self.observe(frame.lamport);
            self.recv_seq[src] += 1;
            from[src] -= 1;
            self.flight_record(
                stamp,
                FlightEvent::FrameReceived {
                    from: src as u64,
                    seq: frame.seq,
                    superstep: frame.superstep,
                    sent_lamport: frame.lamport,
                },
            );
            if self.telemetry.is_enabled() {
                // A causal arrow from the sender's rank track to ours,
                // at the delivery instant (the sender's wall clock is
                // not observable here).
                let now = self.telemetry.now_us();
                let from_track = self.telemetry.track(&format!("p{src}")).current_track();
                let id = net.flow_ids.fetch_add(1, Ordering::Relaxed);
                self.telemetry.record_flow(
                    id,
                    match frame.payload {
                        FramePayload::IfAt(_) => "ifat",
                        FramePayload::Put(_) => "put",
                    },
                    from_track,
                    self.telemetry.current_track(),
                    now,
                    now,
                );
            }
            inbox[src] = Some(frame.payload);
        }
        if let Some(src) = from.iter().position(|&n| n > 0) {
            return Err(self.transport_failure(
                superstep,
                format!(
                    "rank {src} announced {} frame(s) that never arrived",
                    from[src]
                ),
            ));
        }
        Ok(inbox)
    }

    /// Fails the run on a frame, or a message in one, that does not
    /// decode: counts it, records it, and fails the exchange.
    fn corrupt_frame(&mut self, superstep: u64, err: CodecError) -> EvalError {
        self.net
            .ledger
            .corrupt_frames
            .fetch_add(1, Ordering::Relaxed);
        let lamport = self.tick();
        self.flight_record(lamport, FlightEvent::CorruptRejected);
        self.transport_failure(superstep, format!("undecodable frame: {err}"))
    }

    /// Fails the run on a frame the exchange cannot accept: poisons
    /// the peers and names this rank and superstep.
    fn transport_failure(&self, superstep: u64, detail: String) -> EvalError {
        self.net.poison();
        EvalError::TransportFailure {
            rank: self.rank,
            superstep,
            detail,
        }
    }

    // --- checkpoint recording, staging and replay -------------------------

    /// Whether this rank is still consuming a checkpoint's outcome log
    /// (replay mode: no barriers, no faults, no staging).
    fn replaying(&self) -> bool {
        self.replay
            .as_ref()
            .is_some_and(|r| r.next < r.frame.outcomes.len())
    }

    /// Pops the next recorded outcome, also appending it to this
    /// attempt's own record log (so frames staged after going live
    /// carry the full history).
    fn take_replay_outcome(&mut self) -> SyncOutcome {
        let r = self.replay.as_mut().expect("checked by replaying()");
        let outcome = r.frame.outcomes[r.next].clone();
        r.next += 1;
        if let Some(rec) = &mut self.record {
            rec.push(outcome.clone());
        }
        outcome
    }

    /// A divergence between the replayed program and the checkpoint:
    /// poisons the barrier (peers may already be live and waiting) and
    /// reports the coordinate. The supervisor reacts by falling back
    /// to a full restart — a wrong checkpoint costs time, never
    /// correctness.
    fn diverged(&self, superstep: u64, detail: impl Into<String>) -> EvalError {
        self.net.poison();
        EvalError::CheckpointDiverged {
            rank: self.rank,
            superstep,
            detail: detail.into(),
        }
    }

    /// At the end of a *replayed* superstep: tracks progress and, at
    /// the replay boundary (log exhausted), verifies that the
    /// deterministic re-run landed exactly on the state the frame
    /// recorded — fuel and every statistic. Any mismatch means the
    /// checkpoint does not describe this program's execution.
    fn finish_replayed_superstep(&mut self, fuel_left: u64) -> Result<(), EvalError> {
        let stats = *lock_ignore_poison(&self.stats);
        self.net
            .ledger
            .furthest_superstep
            .fetch_max(stats.supersteps, Ordering::Relaxed);
        let r = self.replay.as_ref().expect("in replay");
        if r.next < r.frame.outcomes.len() {
            return Ok(());
        }
        let f = &r.frame;
        if stats.supersteps != f.superstep {
            return Err(self.diverged(
                stats.supersteps,
                format!(
                    "replay ended after {} supersteps, frame cut is at {}",
                    stats.supersteps, f.superstep
                ),
            ));
        }
        if fuel_left != f.fuel_left {
            return Err(self.diverged(
                stats.supersteps,
                format!(
                    "fuel fingerprint mismatch: replay has {fuel_left}, frame recorded {}",
                    f.fuel_left
                ),
            ));
        }
        if stats.sent_words != f.sent_words
            || stats.received_words != f.received_words
            || stats.puts != f.puts
            || stats.ifats != f.ifats
        {
            return Err(self.diverged(
                stats.supersteps,
                format!(
                    "statistics mismatch: replay {stats:?}, frame ({}, {}, {}, {})",
                    f.sent_words, f.received_words, f.puts, f.ifats
                ),
            ));
        }
        Ok(())
    }

    /// After a live superstep completes: appends the outcome to the
    /// record log, tracks progress, and stages a frame when the
    /// policy's interval divides the completed-superstep count.
    /// Returns the staged generation, to be committed at the final
    /// barrier. All of this is behind `net.checkpoint` — disabled
    /// machines do nothing here.
    fn record_and_stage(&mut self, outcome: SyncOutcome, fuel_left: u64) -> Option<u64> {
        let (interval, fingerprint, store) = {
            let ck = self.net.checkpoint.as_ref()?;
            (ck.interval, ck.fingerprint, Arc::clone(&ck.store))
        };
        let stats = *lock_ignore_poison(&self.stats);
        self.net
            .ledger
            .furthest_superstep
            .fetch_max(stats.supersteps, Ordering::Relaxed);
        let record = self.record.as_mut().expect("recording iff checkpointing");
        record.push(outcome);
        if !stats.supersteps.is_multiple_of(interval) {
            return None;
        }
        let frame = RankFrame {
            fingerprint,
            rank: self.rank,
            superstep: stats.supersteps,
            fuel_left,
            sent_words: stats.sent_words,
            received_words: stats.received_words,
            puts: stats.puts,
            ifats: stats.ifats,
            outcomes: record.clone(),
        };
        // A store that cannot stage simply skips this generation —
        // checkpointing is best-effort, never a reason to fail a run.
        let staged = store.stage(&frame).ok().map(|_| stats.supersteps);
        if let Some(generation) = staged {
            let lamport = self.tick();
            self.flight_record(lamport, FlightEvent::CheckpointStaged { generation });
        }
        staged
    }

    /// The final barrier of a superstep. If this rank staged a frame,
    /// the last arriver commits the generation while holding the
    /// barrier lock: at that instant every rank has staged its frame
    /// of the same cut and none has started the next superstep — the
    /// consistent-cut argument of DESIGN.md §9.
    fn superstep_exit_barrier(
        &mut self,
        staged: Option<u64>,
        superstep: u64,
    ) -> Result<(), EvalError> {
        let lamport = self.tick();
        self.flight_record(lamport, FlightEvent::BarrierEnter { superstep });
        let result = match &self.net.sync {
            // Process mode: the *parent* owns the commit — it collects
            // every rank's `BarrierEnter` (with its staged frame),
            // commits the generation at the quorum instant (the same
            // consistent cut: every rank has arrived, none has been
            // released), and broadcasts the release this rank waits
            // for here.
            SyncBackend::Remote(hub) => {
                let hub = Arc::clone(hub);
                let timeout = self.net.barrier_timeout;
                self.timed_barrier(move || hub.barrier_enter(superstep, timeout))
            }
            SyncBackend::Local { .. } => match (staged, &self.net.checkpoint) {
                (Some(generation), Some(ck)) => {
                    let ledger = &self.net.ledger;
                    let store = Arc::clone(&ck.store);
                    let p = self.net.p;
                    let commit = move || {
                        if let Ok(bytes) = store.commit(generation, p) {
                            ledger.checkpoints_written.fetch_add(1, Ordering::Relaxed);
                            ledger.checkpoint_bytes.fetch_add(bytes, Ordering::Relaxed);
                        }
                    };
                    self.barrier_wait_with(Some(&commit))
                }
                _ => self.barrier_wait(),
            },
        };
        if result.is_ok() {
            let lamport = self.tick();
            self.flight_record(lamport, FlightEvent::BarrierExit { superstep });
            if let Some(generation) = staged {
                // Recorded on every rank, not just the committing
                // arriver: the commit is a property of the consistent
                // cut, and every rank passed through it.
                let lamport = self.tick();
                self.flight_record(lamport, FlightEvent::CheckpointCommitted { generation });
            }
        }
        result
    }

    /// The replayed counterpart of [`ParallelDriver::put`]: re-runs
    /// the local phase (so fuel and sent-word accounting advance
    /// exactly as in the original run) but takes the delivered table
    /// from the log instead of the network — no barrier, no mailbox,
    /// no faults.
    fn replay_put(&mut self, ev: &mut dyn Applier, fs: &[Value]) -> Result<Value, EvalError> {
        let p = self.net.p;
        let superstep = self.superstep();
        let SyncOutcome::Put { delivered } = self.take_replay_outcome() else {
            return Err(self.diverged(
                superstep,
                "program reaches a put where the log recorded an if‥at‥",
            ));
        };
        let f = self.my_component(fs, "put")?.clone();
        for dst in 0..p {
            let v = ev.apply_fn(f.clone(), Value::Int(dst as i64), Mode::OnProc(self.rank))?;
            ev.ensure_local(&v)?;
            if dst != self.rank {
                lock_ignore_poison(&self.stats).sent_words += v.size_in_words();
            }
        }
        if delivered.len() != p {
            return Err(self.diverged(
                superstep,
                format!(
                    "delivered table of width {} on a {p}-rank cut",
                    delivered.len()
                ),
            ));
        }
        let table = delivered
            .iter()
            .map(|message| decode_exact(message))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|err| {
                self.diverged(superstep, format!("undecodable logged message: {err}"))
            })?;
        {
            let mut stats = lock_ignore_poison(&self.stats);
            for (j, v) in table.iter().enumerate() {
                if j != self.rank {
                    stats.received_words += v.size_in_words();
                }
            }
            stats.supersteps += 1;
            stats.puts += 1;
        }
        // Replayed supersteps land in the flight recorder too — the
        // postmortem timeline of a resumed attempt starts at the cut,
        // and these entries are its prefix.
        self.note_superstep_end(superstep, ev.fuel_left());
        self.finish_replayed_superstep(ev.fuel_left())?;
        Ok(Value::vector(vec![Value::MsgTable(std::rc::Rc::new(
            table,
        ))]))
    }

    /// The replayed counterpart of [`ParallelDriver::ifat`].
    fn replay_ifat(
        &mut self,
        ev: &mut dyn Applier,
        bools: &[Value],
        at: usize,
    ) -> Result<bool, EvalError> {
        let superstep = self.superstep();
        let SyncOutcome::IfAt { chosen } = self.take_replay_outcome() else {
            return Err(self.diverged(
                superstep,
                "program reaches an if‥at‥ where the log recorded a put",
            ));
        };
        match self.my_component(bools, "if‥at‥")? {
            Value::Bool(mine) => {
                // The deciding rank's own boolean must be the one the
                // log says was broadcast.
                if self.rank == at && *mine != chosen {
                    return Err(self.diverged(
                        superstep,
                        format!("deciding rank replayed {mine}, log recorded {chosen}"),
                    ));
                }
            }
            v => {
                let v = v.to_string();
                self.net.poison();
                return Err(EvalError::ScrutineeMismatch("if‥at‥", v));
            }
        }
        {
            let mut stats = lock_ignore_poison(&self.stats);
            if self.rank == at {
                stats.sent_words += (self.net.p - 1) as u64;
            } else {
                stats.received_words += 1;
            }
            stats.supersteps += 1;
            stats.ifats += 1;
        }
        ev.note_ifat(at, chosen);
        self.note_superstep_end(superstep, ev.fuel_left());
        self.finish_replayed_superstep(ev.fuel_left())?;
        Ok(chosen)
    }
}

impl ParallelDriver for SpmdDriver {
    fn machine_width(&self) -> usize {
        self.net.p
    }

    // Vector *literals* are runtime-only global artifacts; the SPMD
    // machine runs source programs, which cannot contain them.
    fn literal_width(&self) -> Option<usize> {
        None
    }

    fn mkpar(&mut self, ev: &mut dyn Applier, f: &Value) -> Result<Value, EvalError> {
        ev.note_async();
        let v = ev.apply_fn(
            f.clone(),
            Value::Int(self.rank as i64),
            Mode::OnProc(self.rank),
        )?;
        ev.ensure_local(&v)?;
        Ok(Value::vector(vec![v]))
    }

    fn apply_par(
        &mut self,
        ev: &mut dyn Applier,
        fs: &[Value],
        vs: &[Value],
    ) -> Result<Value, EvalError> {
        ev.note_async();
        let f = self.my_component(fs, "apply")?.clone();
        let v = self.my_component(vs, "apply")?.clone();
        let out = ev.apply_fn(f, v, Mode::OnProc(self.rank))?;
        ev.ensure_local(&out)?;
        Ok(Value::vector(vec![out]))
    }

    fn put(&mut self, ev: &mut dyn Applier, fs: &[Value]) -> Result<Value, EvalError> {
        if self.replaying() {
            return self.replay_put(ev, fs);
        }
        let p = self.net.p;
        let superstep = self.inject_entry_faults()?;
        let f = self.my_component(fs, "put")?.clone();
        // Local phase: evaluate my send function for every target and
        // encode the messages; those to peers become wire frames.
        let mut sends: Vec<(usize, FramePayload)> = Vec::new();
        let mut own = None;
        for dst in 0..p {
            let v = ev.apply_fn(f.clone(), Value::Int(dst as i64), Mode::OnProc(self.rank))?;
            ev.ensure_local(&v)?;
            if dst != self.rank {
                lock_ignore_poison(&self.stats).sent_words += v.size_in_words();
            }
            // `nc ()` is no message: nothing is encoded and no frame
            // sent; the count round tells the receiver nothing came,
            // and it reads `nc ()`.
            let message = if matches!(v, Value::NoComm) {
                None
            } else {
                let mut bytes = Vec::new();
                encode_value(&mut bytes, &v).inspect_err(|_| self.net.poison())?;
                Some(bytes)
            };
            // A plan-dropped message was *sent* (the sender paid for
            // it) but never arrives: the receiver sees `nc ()`, and
            // only the supervisor's oracle cross-check can tell.
            if self.drops_message(dst, superstep) {
                continue;
            }
            match message {
                // A self-message never touches the wire: this rank
                // keeps the value it encoded.
                Some(bytes) if dst == self.rank => own = Some((v, bytes)),
                Some(bytes) => sends.push((dst, FramePayload::Put(bytes))),
                None => {}
            }
        }
        // Communication phase: the count round inside the exchange is
        // also the superstep's entry synchronization.
        let delivered = self.exchange(superstep, sends)?;
        // Each received message is decoded once, here. The encodings
        // are kept only when a checkpoint frame will want them.
        let mut table = Vec::with_capacity(p);
        let mut row = self.record.as_ref().map(|_| Vec::with_capacity(p));
        for (j, slot) in delivered.into_iter().enumerate() {
            let message = match slot {
                _ if j == self.rank => own.take(),
                Some(FramePayload::Put(bytes)) => {
                    let v =
                        decode_exact(&bytes).map_err(|err| self.corrupt_frame(superstep, err))?;
                    Some((v, bytes))
                }
                None => None,
                // A peer sent an if‥at‥ broadcast into a put: it
                // ran a different primitive — SPMD replication is
                // broken.
                Some(FramePayload::IfAt(_)) => {
                    self.net.poison();
                    return Err(EvalError::PeerFailure);
                }
            };
            if let Some(row) = &mut row {
                row.push(
                    message
                        .as_ref()
                        .map_or(NO_MESSAGE, |(_, bytes)| bytes)
                        .to_vec(),
                );
            }
            table.push(message.map_or(Value::NoComm, |(v, _)| v));
        }
        {
            let mut stats = lock_ignore_poison(&self.stats);
            for (j, v) in table.iter().enumerate() {
                if j != self.rank {
                    stats.received_words += v.size_in_words();
                }
            }
            stats.supersteps += 1;
            stats.puts += 1;
        }
        self.note_superstep_end(superstep, ev.fuel_left());
        let staged = row.and_then(|delivered| {
            self.record_and_stage(SyncOutcome::Put { delivered }, ev.fuel_left())
        });
        // The exit barrier separates supersteps — and the last arriver
        // commits this superstep's checkpoint, if any.
        self.superstep_exit_barrier(staged, superstep)?;
        Ok(Value::vector(vec![Value::MsgTable(std::rc::Rc::new(
            table,
        ))]))
    }

    fn ifat(
        &mut self,
        ev: &mut dyn Applier,
        bools: &[Value],
        at: usize,
    ) -> Result<bool, EvalError> {
        if self.replaying() {
            return self.replay_ifat(ev, bools, at);
        }
        let superstep = self.inject_entry_faults()?;
        let p = self.net.p;
        let mine = match self.my_component(bools, "if‥at‥")? {
            Value::Bool(b) => *b,
            v => {
                self.net.poison();
                return Err(EvalError::ScrutineeMismatch("if‥at‥", v.to_string()));
            }
        };
        // The deciding rank broadcasts its boolean as one wire frame
        // per peer; everyone else receives exactly one frame, from
        // `at`. (The plan's message drops target `put` h-relations;
        // the if‥at‥ broadcast is never plan-dropped.)
        let mut sends: Vec<(usize, FramePayload)> = Vec::new();
        if self.rank == at {
            lock_ignore_poison(&self.stats).sent_words += (p - 1) as u64;
            sends.extend(
                (0..p)
                    .filter(|&dst| dst != self.rank)
                    .map(|dst| (dst, FramePayload::IfAt(mine))),
            );
        }
        let delivered = self.exchange(superstep, sends)?;
        let chosen = if self.rank == at {
            mine
        } else {
            match delivered[at] {
                Some(FramePayload::IfAt(b)) => b,
                // The broadcaster delivered something else (or sent
                // nothing at all): SPMD replication is broken — a peer
                // failure.
                _ => {
                    self.net.poison();
                    return Err(EvalError::PeerFailure);
                }
            }
        };
        {
            let mut stats = lock_ignore_poison(&self.stats);
            if self.rank != at {
                stats.received_words += 1;
            }
            stats.supersteps += 1;
            stats.ifats += 1;
        }
        ev.note_ifat(at, chosen);
        self.note_superstep_end(superstep, ev.fuel_left());
        let staged = self
            .record
            .is_some()
            .then(|| self.record_and_stage(SyncOutcome::IfAt { chosen }, ev.fuel_left()))
            .flatten();
        self.superstep_exit_barrier(staged, superstep)?;
        Ok(chosen)
    }
}

/// The result of a distributed run.
#[derive(Clone, Debug)]
pub struct DistOutcome {
    /// The assembled result: per-rank width-1 vectors reassembled
    /// into one `p`-wide vector, or the (identical) replicated value.
    pub value: Value,
    /// Synchronization barriers observed (identical on every rank —
    /// that is asserted).
    pub supersteps: u64,
    /// Total words sent across all processors and supersteps
    /// (self-messages excluded).
    pub total_words_sent: u64,
    /// Per-rank evaluator steps (local work `w_i`).
    pub work: Vec<u64>,
    /// The checkpoint generation this attempt resumed from (`None` =
    /// the attempt ran from superstep 0).
    pub resumed_from: Option<u64>,
}

/// How a [`DistMachine`] places its `p` ranks.
///
/// One of these exists per machine, so the size gap between the
/// unit-like `InProcess` and the full [`crate::ProcessConfig`] is not worth
/// boxing away at every construction site.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, Default)]
pub enum Execution {
    /// One OS thread per rank inside this process (the default): the
    /// fastest substrate, with crashes *simulated* by `catch_unwind`.
    #[default]
    InProcess,
    /// One OS process per rank, each connected to this (parent)
    /// process over a Unix-domain socket — the paper's BSMLlib-over-MPI
    /// shape. Rank death is real (`SIGKILL` survives nothing) and is
    /// detected as socket EOF + `waitpid`, mapped to the failed
    /// (rank, superstep) coordinate.
    Processes(crate::process::ProcessConfig),
}

/// A distributed BSP machine: `p` OS threads (or, with
/// [`Execution::Processes`], `p` OS processes), shared-nothing except
/// the message transport's per-rank mailboxes.
#[derive(Clone, Debug)]
pub struct DistMachine {
    pub(crate) p: usize,
    pub(crate) fuel: u64,
    pub(crate) telemetry: Telemetry,
    pub(crate) barrier_timeout: Option<Duration>,
    pub(crate) faults: Option<Arc<FaultPlan>>,
    pub(crate) checkpoints: Option<(CheckpointPolicy, Arc<dyn CheckpointStore>)>,
    pub(crate) flight: Option<usize>,
    pub(crate) execution: Execution,
}

impl DistMachine {
    /// A machine of `p` processors, with the conservative
    /// [`DIST_DEFAULT_FUEL`] per-processor fuel and the
    /// [`DEFAULT_BARRIER_TIMEOUT`] watchdog.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    #[must_use]
    pub fn new(p: usize) -> DistMachine {
        assert!(p > 0, "a BSP machine needs at least one processor");
        DistMachine {
            p,
            fuel: DIST_DEFAULT_FUEL,
            telemetry: Telemetry::disabled(),
            barrier_timeout: Some(barrier_timeout_from_env()),
            faults: None,
            checkpoints: None,
            flight: flight_capacity_from_env(),
            execution: Execution::InProcess,
        }
    }

    /// Selects how ranks are placed: in-process threads (the default)
    /// or one OS process per rank over Unix-domain sockets
    /// ([`Execution::Processes`]).
    #[must_use]
    pub fn with_execution(mut self, execution: Execution) -> DistMachine {
        self.execution = execution;
        self
    }

    /// The configured rank placement.
    #[must_use]
    pub fn execution(&self) -> &Execution {
        &self.execution
    }

    /// The machine size.
    #[must_use]
    pub fn p(&self) -> usize {
        self.p
    }

    /// The per-processor fuel budget.
    #[must_use]
    pub fn fuel(&self) -> u64 {
        self.fuel
    }

    /// Overrides the per-processor fuel (the default is the
    /// conservative [`DIST_DEFAULT_FUEL`], which bounds divergent
    /// programs; raise it for long-running computations).
    #[must_use]
    pub fn with_fuel(mut self, fuel: u64) -> DistMachine {
        self.fuel = fuel;
        self
    }

    /// Overrides the watchdog timeout applied to every barrier wait.
    #[must_use]
    pub fn with_barrier_timeout(mut self, timeout: Duration) -> DistMachine {
        self.barrier_timeout = Some(timeout);
        self
    }

    /// Disables the barrier watchdog entirely (waits may then hang on
    /// a truly stalled peer — only for environments with their own
    /// supervision).
    #[must_use]
    pub fn without_watchdog(mut self) -> DistMachine {
        self.barrier_timeout = None;
        self
    }

    /// Attaches a deterministic fault-injection plan (chaos testing).
    /// Fault-free machines pay nothing: the plan is behind an
    /// `Option` checked once per synchronization.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> DistMachine {
        self.faults = Some(Arc::new(plan));
        self
    }

    /// Enables superstep-granularity checkpointing: every
    /// `policy.interval()` completed supersteps each rank stages a
    /// frame into `store`, committed atomically at the superstep's
    /// exit barrier. Disabled machines (the default) allocate no
    /// store and take no new locks in the superstep hot path.
    #[must_use]
    pub fn with_checkpoints(
        mut self,
        policy: CheckpointPolicy,
        store: Arc<dyn CheckpointStore>,
    ) -> DistMachine {
        self.checkpoints = Some((policy, store));
        self
    }

    /// The checkpoint policy and store, if checkpointing is enabled.
    #[must_use]
    pub fn checkpoints(&self) -> Option<(CheckpointPolicy, Arc<dyn CheckpointStore>)> {
        self.checkpoints
            .as_ref()
            .map(|(policy, store)| (*policy, Arc::clone(store)))
    }

    /// Enables the per-rank flight recorder: each attempt gives every
    /// rank a ring buffer of the last `capacity` protocol events
    /// ([`FlightEvent`]), Lamport-stamped, drained into a
    /// [`FlightLog`] when the attempt ends. Also enabled by setting
    /// the `BSML_FLIGHT_CAPACITY` environment variable; a builder
    /// call overrides the environment.
    #[must_use]
    pub fn with_flight_recorder(mut self, capacity: usize) -> DistMachine {
        self.flight = Some(capacity);
        self
    }

    /// Disables the flight recorder (overriding
    /// `BSML_FLIGHT_CAPACITY`).
    #[must_use]
    pub fn without_flight_recorder(mut self) -> DistMachine {
        self.flight = None;
        self
    }

    /// The flight-recorder ring capacity, if recording is enabled.
    #[must_use]
    pub fn flight_capacity(&self) -> Option<usize> {
        self.flight
    }

    /// Attaches a telemetry handle. Each processor thread then times
    /// its barrier waits into the `bsp.barrier_wait_us` histogram (on
    /// its own `p{rank}` track), and each run bumps the same
    /// `bsp.supersteps` / `bsp.puts` / `bsp.ifats` / `bsp.words_sent`
    /// counters as the lockstep [`crate::BspMachine`], so the two
    /// backends' telemetry totals can be compared directly. Failure
    /// paths additionally record `bsp.faults_injected` and
    /// `bsp.barrier_timeouts`.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> DistMachine {
        self.telemetry = telemetry;
        self
    }

    /// Runs a closed program SPMD on `p` threads (attempt 0 of its
    /// fault plan, if any).
    ///
    /// # Errors
    ///
    /// The first real [`EvalError`] raised by any processor
    /// ([`EvalError::PeerFailure`]s from released peers are
    /// discarded in its favour), or [`EvalError::NotSerializable`]
    /// if the final value cannot be gathered.
    pub fn run(&self, e: &Expr) -> Result<DistOutcome, EvalError> {
        self.run_attempt(e, 0)
    }

    /// Like [`DistMachine::run`], but identifying which retry
    /// `attempt` this is — fault plans arm each fault for one
    /// specific attempt, which is how a supervised retry runs clean
    /// while the first attempt is perturbed.
    ///
    /// # Errors
    ///
    /// Same as [`DistMachine::run`].
    pub fn run_attempt(&self, e: &Expr, attempt: u32) -> Result<DistOutcome, EvalError> {
        self.run_attempt_with_resume(e, attempt, None).0
    }

    /// Like [`DistMachine::run_attempt`], but also returning the
    /// drained per-rank [`FlightLog`] (when the flight recorder is
    /// enabled) — for both failed *and* successful attempts, so clean
    /// runs can be analyzed against the lockstep cost model too.
    pub fn run_recorded(
        &self,
        e: &Expr,
        attempt: u32,
    ) -> (Result<DistOutcome, EvalError>, Option<FlightLog>) {
        let (result, _, log) = self.run_attempt_with_resume(e, attempt, None);
        (result, log)
    }

    /// The full-control entry point used by the supervisor: runs one
    /// attempt, optionally resuming from a checkpointed cut, and also
    /// reports how far the attempt got (the highest completed
    /// superstep any rank reached — maintained only when checkpointing
    /// is enabled) even when it fails, so resume accounting works for
    /// errors that carry no coordinate.
    pub(crate) fn run_attempt_with_resume(
        &self,
        e: &Expr,
        attempt: u32,
        resume: Option<ResumePoint>,
    ) -> (Result<DistOutcome, EvalError>, u64, Option<FlightLog>) {
        if let Execution::Processes(cfg) = &self.execution {
            return crate::process::run_process_attempt(self, cfg, e, attempt, resume);
        }
        let checkpoint = self
            .checkpoints
            .as_ref()
            .map(|(policy, store)| NetCheckpoint {
                interval: policy.interval(),
                store: Arc::clone(store),
                fingerprint: program_fingerprint(e, self.p),
            });
        let flight: Option<Vec<Arc<FlightRecorder>>> = self.flight.map(|capacity| {
            (0..self.p)
                .map(|_| Arc::new(FlightRecorder::new(capacity)))
                .collect()
        });
        let net = Arc::new(Network::new(
            self.p,
            Arc::new(SharedMem::new(self.p)),
            self.barrier_timeout,
            self.faults.clone(),
            attempt,
            checkpoint,
            flight,
        ));
        let result = self.run_threads(e, &net, resume);

        // Account for the fault, checkpoint and transport layers
        // whether or not the run succeeded — chaos tests reconcile
        // these counters against the plan.
        flush_counters(
            &self.telemetry,
            &net.ledger.counters(),
            net.ledger.checkpoints_written.load(Ordering::Relaxed),
            net.ledger.checkpoint_bytes.load(Ordering::Relaxed),
        );
        let furthest = net.ledger.furthest_superstep.load(Ordering::Relaxed);
        // Drain the recorders after every rank thread has exited —
        // crashed, panicked or finished, whatever each rank last
        // recorded is in its ring. Dropped counts are read first
        // (drain preserves them, but the order documents the intent).
        let flight_log = net.flight.as_ref().map(|recs| FlightLog {
            ranks: recs
                .iter()
                .enumerate()
                .map(|(rank, r)| RankFlightLog {
                    rank,
                    dropped: r.dropped(),
                    events: r.drain(),
                })
                .collect(),
        });
        (result, furthest, flight_log)
    }

    fn run_threads(
        &self,
        e: &Expr,
        net: &Arc<Network>,
        resume: Option<ResumePoint>,
    ) -> Result<DistOutcome, EvalError> {
        let program = Arc::new(e.clone());
        let fuel = self.fuel;
        let resumed_from = resume.as_ref().map(|rp| rp.superstep);
        let mut seeds: Vec<Option<RankFrame>> = match resume {
            Some(rp) => rp.frames.into_iter().map(Some).collect(),
            None => (0..self.p).map(|_| None).collect(),
        };

        let results: Vec<RankResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.p)
                .map(|rank| {
                    let net = Arc::clone(net);
                    let program = Arc::clone(&program);
                    let telemetry = self.telemetry.track(&format!("p{rank}"));
                    let seed = seeds[rank].take();
                    let flight = net.flight.as_ref().map(|recs| Arc::clone(&recs[rank]));
                    scope
                        .spawn(move || run_rank(rank, net, &program, fuel, telemetry, seed, flight))
                })
                .collect();
            handles
                .into_iter()
                // A panic that somehow escaped the rank's unwind
                // guard is still a peer failure, not our abort.
                .map(|h| h.join().unwrap_or(Err(EvalError::PeerFailure)))
                .collect()
        });
        finish_attempt(&self.telemetry, results, resumed_from)
    }
}

/// One rank's end of an attempt: its result encoded with
/// [`encode_value`], its communication totals and the fuel it used.
pub(crate) type RankResult = Result<(Vec<u8>, CtlStats, u64), EvalError>;

/// Turns the per-rank results of one attempt into its outcome, for
/// both backends: a real error beats the [`EvalError::PeerFailure`]
/// echoes of released peers, every rank must have seen the same
/// number of supersteps, the `bsp.*` counters are charged, and the
/// results are assembled.
pub(crate) fn finish_attempt(
    telemetry: &Telemetry,
    results: Vec<RankResult>,
    resumed_from: Option<u64>,
) -> Result<DistOutcome, EvalError> {
    let mut oks = Vec::with_capacity(results.len());
    let mut peer_failure = false;
    for result in results {
        match result {
            Ok(ok) => oks.push(ok),
            Err(EvalError::PeerFailure) => peer_failure = true,
            Err(real) => return Err(real),
        }
    }
    if peer_failure {
        return Err(EvalError::PeerFailure);
    }
    let stats = oks[0].1;
    assert!(
        oks.iter().all(|(_, s, _)| s.supersteps == stats.supersteps),
        "ranks disagree on superstep count — SPMD replication broken"
    );
    let total_words_sent = oks.iter().map(|(_, s, _)| s.sent_words).sum();
    if telemetry.is_enabled() {
        // SPMD replication: barrier counts are identical on every
        // rank (asserted above), so charge them once, not p times —
        // matching the lockstep machine's accounting.
        add_run_counters(
            telemetry,
            stats.supersteps,
            stats.puts,
            stats.ifats,
            total_words_sent,
        );
    }
    let encodings: Vec<&[u8]> = oks.iter().map(|(v, _, _)| v.as_slice()).collect();
    Ok(DistOutcome {
        value: assemble(&encodings)?,
        supersteps: stats.supersteps,
        total_words_sent,
        work: oks.iter().map(|(_, _, w)| *w).collect(),
        resumed_from,
    })
}

/// One processor's run: the evaluation itself runs under an unwind
/// guard, so a panicking processor (an injected [`FaultKind::Panic`]
/// or a genuine bug) poisons the barrier — releasing its peers — and
/// comes home as [`EvalError::PeerFailure`] instead of killing the
/// whole runner.
fn run_rank(
    rank: usize,
    net: Arc<Network>,
    program: &Expr,
    fuel: u64,
    telemetry: Telemetry,
    replay: Option<RankFrame>,
    flight: Option<Arc<FlightRecorder>>,
) -> RankResult {
    let guard_net = Arc::clone(&net);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_rank_inner(rank, net, program, fuel, telemetry, replay, flight)
    }));
    match result {
        Ok(r) => r,
        Err(_) => {
            guard_net.poison();
            Err(EvalError::PeerFailure)
        }
    }
}

fn run_rank_inner(
    rank: usize,
    net: Arc<Network>,
    program: &Expr,
    fuel: u64,
    telemetry: Telemetry,
    replay: Option<RankFrame>,
    flight: Option<Arc<FlightRecorder>>,
) -> RankResult {
    let stats = Arc::new(Mutex::new(CtlStats::default()));
    let record = net.checkpoint.as_ref().map(|_| Vec::new());
    let p = net.p;
    // Process mode shares the control hub's Lamport clock, so the
    // reader thread's heartbeat/link-event stamps and the driver's
    // protocol stamps form one causal order per rank.
    let clock = match &net.sync {
        SyncBackend::Remote(hub) => Arc::clone(&hub.lamport),
        SyncBackend::Local { .. } => Arc::new(AtomicU64::new(0)),
    };
    let driver = SpmdDriver {
        rank,
        net: Arc::clone(&net),
        stats: Arc::clone(&stats),
        telemetry,
        record,
        replay: replay.map(|frame| ReplayState { frame, next: 0 }),
        send_seq: vec![0; p],
        recv_seq: vec![0; p],
        clock,
        flight,
        fuel_mark: fuel,
        sent_mark: 0,
        recv_mark: 0,
    };
    let mut hooks = NoHooks;
    let mut ev = Evaluator::with_driver(&mut hooks, fuel, Box::new(driver));
    let result = ev.eval(program);
    let work = fuel - ev.fuel_left();
    match result {
        Ok(v) => {
            let mut bytes = Vec::new();
            encode_value(&mut bytes, &v).inspect_err(|_| net.poison())?;
            let final_stats = *lock_ignore_poison(&stats);
            Ok((bytes, final_stats, work))
        }
        Err(err) => {
            net.poison();
            Err(err)
        }
    }
}

/// Runs one rank of a multi-process attempt inside a rank process:
/// builds a [`Network`] whose synchronization backend is the parent's
/// control stream (via `hub`) and whose data plane is `transport`,
/// then executes the ordinary [`run_rank`] loop. Returns the rank's
/// result plus its counter ledger so the child can ship both home in
/// its `Done`/`Fatal` control message.
///
/// Telemetry is disabled in rank processes — the parent owns the
/// session's [`Telemetry`] and flushes the shipped [`CtlLedger`]s
/// through [`flush_counters`], so counters still reconcile; only the
/// per-rank `bsp.barrier_wait_us` histogram is unavailable in process
/// mode.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_remote_rank(
    rank: usize,
    p: usize,
    hub: Arc<RemoteHub>,
    transport: Arc<dyn Transport>,
    program: &Expr,
    fuel: u64,
    barrier_timeout: Option<Duration>,
    faults: Option<Arc<FaultPlan>>,
    attempt: u32,
    checkpoint: Option<(u64, Arc<dyn CheckpointStore>, u64)>,
    flight: Option<Arc<FlightRecorder>>,
    replay: Option<RankFrame>,
) -> (RankResult, CtlLedger) {
    let net = Arc::new(Network {
        p,
        sync: SyncBackend::Remote(hub),
        transport,
        barrier_timeout,
        faults,
        attempt,
        ledger: FaultLedger::default(),
        checkpoint: checkpoint.map(|(interval, store, fingerprint)| NetCheckpoint {
            interval,
            store,
            fingerprint,
        }),
        // The ring is owned by the child's postmortem accumulator, not
        // the network: the parent cannot drain a SIGKILLed process, so
        // the child flushes its ring to disk itself (satellite: bundles
        // survive real process death).
        flight: None,
        flow_ids: AtomicU64::new(0),
    });
    let result = run_rank(
        rank,
        Arc::clone(&net),
        program,
        fuel,
        Telemetry::disabled(),
        replay,
        flight,
    );
    (result, net.ledger.counters())
}

/// Decodes a buffer that holds exactly one encoded value.
fn decode_exact(bytes: &[u8]) -> Result<Value, CodecError> {
    let mut r = ByteReader::new(bytes);
    let v = decode_value(&mut r)?;
    r.finish()?;
    Ok(v)
}

/// Reassembles per-rank results: width-1 vectors become one `p`-wide
/// vector; a replicated value passes when every rank's encoding of it
/// is the same, byte for byte.
fn assemble(per_rank: &[&[u8]]) -> Result<Value, EvalError> {
    let mut values = per_rank
        .iter()
        .map(|bytes| decode_exact(bytes))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|err| {
            EvalError::ScrutineeMismatch("distributed result", format!("undecodable result: {err}"))
        })?;
    let components: Option<Vec<Value>> = values
        .iter()
        .map(|v| match v {
            Value::Vector(c) if c.len() == 1 => Some(c[0].clone()),
            _ => None,
        })
        .collect();
    if let Some(components) = components {
        Ok(Value::vector(components))
    } else if per_rank.iter().all(|bytes| *bytes == per_rank[0]) {
        Ok(values.swap_remove(0))
    } else {
        Err(EvalError::ScrutineeMismatch(
            "distributed result",
            "ranks disagree on a replicated value".to_string(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsml_syntax::parse;

    #[test]
    fn poison_barrier_releases_waiters() {
        let barrier = Arc::new(PoisonBarrier::new(2));
        let b2 = Arc::clone(&barrier);
        let waiter = std::thread::spawn(move || b2.wait(None, None));
        // Give the waiter time to block, then poison instead of join.
        std::thread::sleep(std::time::Duration::from_millis(20));
        barrier.poison();
        let r = waiter.join().expect("no panic");
        assert_eq!(r, Err(EvalError::PeerFailure));
    }

    #[test]
    fn poison_barrier_rejects_late_arrivals() {
        // A waiter arriving *after* the poisoning must not hang (or
        // disturb the waiting count): it sees the poison immediately.
        let barrier = PoisonBarrier::new(3);
        barrier.poison();
        assert_eq!(barrier.wait(None, None), Err(EvalError::PeerFailure));
        assert_eq!(
            barrier.wait(Some(Duration::from_secs(5)), None),
            Err(EvalError::PeerFailure)
        );
        assert_eq!(lock_ignore_poison(&barrier.state).waiting, 0);
    }

    #[test]
    fn poison_barrier_survives_concurrent_poisoning() {
        // Two processors fail at the same time: both poisons must be
        // idempotent, and every innocent waiter must be released with
        // PeerFailure (no deadlock, no panic).
        for _ in 0..50 {
            let barrier = Arc::new(PoisonBarrier::new(4));
            std::thread::scope(|scope| {
                let waiters: Vec<_> = (0..2)
                    .map(|_| {
                        let b = Arc::clone(&barrier);
                        scope.spawn(move || b.wait(Some(Duration::from_secs(5)), None))
                    })
                    .collect();
                for _ in 0..2 {
                    let b = Arc::clone(&barrier);
                    scope.spawn(move || b.poison());
                }
                for w in waiters {
                    assert_eq!(w.join().expect("no panic"), Err(EvalError::PeerFailure));
                }
            });
        }
    }

    #[test]
    fn poison_barrier_generation_wraps_around() {
        // Generations only distinguish adjacent episodes; reuse
        // across u64 wraparound must keep synchronizing correctly.
        let barrier = Arc::new(PoisonBarrier::new(2));
        lock_ignore_poison(&barrier.state).generation = u64::MAX - 1;
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let b = Arc::clone(&barrier);
                scope.spawn(move || {
                    for _ in 0..4 {
                        b.wait(Some(Duration::from_secs(5)), None)
                            .expect("no poison");
                    }
                });
            }
        });
        // 4 episodes from u64::MAX - 1: wrapped past 0 to 3.
        let st = lock_ignore_poison(&barrier.state);
        assert_eq!(st.generation, 2);
        assert!(!st.poisoned);
    }

    #[test]
    fn poison_barrier_timeout_surfaces_and_poisons() {
        let barrier = PoisonBarrier::new(2);
        let err = barrier
            .wait(Some(Duration::from_millis(10)), None)
            .expect_err("nobody else is coming");
        assert!(
            matches!(err, EvalError::BarrierTimeout { waiting: 1, .. }),
            "got {err:?}"
        );
        // The timeout poisoned the barrier: everyone else is released.
        assert_eq!(barrier.wait(None, None), Err(EvalError::PeerFailure));
    }

    #[test]
    fn poison_barrier_synchronizes_generations() {
        let barrier = Arc::new(PoisonBarrier::new(3));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let b = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    b.wait(None, None)?;
                }
                Ok::<(), EvalError>(())
            }));
        }
        for h in handles {
            h.join().expect("no panic").expect("no poison");
        }
    }

    #[test]
    fn single_processor_machine() {
        let e = parse("mkpar (fun i -> i + 41)").unwrap();
        let out = DistMachine::new(1).run(&e).unwrap();
        assert_eq!(out.value.to_string(), "<|41|>");
        assert_eq!(out.total_words_sent, 0);
    }

    #[test]
    fn put_self_messages_cost_nothing() {
        let e = parse(
            "let r = put (mkpar (fun j -> fun d -> if d = j then j else nc ())) in
             apply (mkpar (fun i -> fun f -> f i), r)",
        )
        .unwrap();
        let out = DistMachine::new(4).run(&e).unwrap();
        // Everyone sends only to itself: nc() to others costs 0 words.
        assert_eq!(out.total_words_sent, 0);
        assert_eq!(out.supersteps, 1);
    }

    #[test]
    fn replicated_scalar_results_assemble() {
        let e = parse("1 + 2 + 3").unwrap();
        let out = DistMachine::new(3).run(&e).unwrap();
        assert_eq!(out.value.to_string(), "6");
        assert_eq!(out.supersteps, 0);
    }

    #[test]
    fn work_vector_has_one_entry_per_rank() {
        let e = parse("mkpar (fun i -> i)").unwrap();
        let out = DistMachine::new(5).run(&e).unwrap();
        assert_eq!(out.work.len(), 5);
        assert!(out.work.iter().all(|&w| w > 0));
    }

    #[test]
    fn default_fuel_bounds_divergent_programs() {
        // An infinite SPMD loop terminates with OutOfFuel under the
        // conservative default instead of spinning p threads forever.
        let e = parse("let rec forever n = forever (n + 1) in forever 0").unwrap();
        let err = DistMachine::new(2).run(&e).unwrap_err();
        assert_eq!(err, EvalError::OutOfFuel);
    }

    #[test]
    fn injected_crash_surfaces_without_deadlock() {
        let e = parse(
            "let r = put (mkpar (fun j -> fun i -> j)) in
             apply (mkpar (fun i -> fun t -> t i), r)",
        )
        .unwrap();
        let machine = DistMachine::new(4).with_faults(FaultPlan::new().crash(2, 0));
        let err = machine.run(&e).unwrap_err();
        assert_eq!(
            err,
            EvalError::InjectedFault {
                rank: 2,
                superstep: 0
            }
        );
        // The same machine on attempt 1 (fault disarmed) succeeds.
        let out = machine.run_attempt(&e, 1).unwrap();
        assert_eq!(out.value.to_string(), "<|0, 1, 2, 3|>");
    }

    #[test]
    fn injected_panic_is_contained() {
        let e = parse("put (mkpar (fun j -> fun i -> j))").unwrap();
        let machine = DistMachine::new(3).with_faults(FaultPlan::new().panic(1, 0));
        // The panicking thread is caught, the barrier poisoned, every
        // peer released: the run *returns* (PeerFailure) rather than
        // aborting or hanging.
        let err = machine.run(&e).unwrap_err();
        assert_eq!(err, EvalError::PeerFailure);
    }

    #[test]
    fn long_stall_trips_the_watchdog() {
        let e = parse("put (mkpar (fun j -> fun i -> j))").unwrap();
        let machine = DistMachine::new(2)
            .with_barrier_timeout(Duration::from_millis(50))
            .with_faults(FaultPlan::new().stall(0, 0, Duration::from_millis(400)));
        let start = Instant::now();
        let err = machine.run(&e).unwrap_err();
        assert!(
            matches!(err, EvalError::BarrierTimeout { .. }),
            "got {err:?}"
        );
        // Every thread exited within the stall + some slack — no hang.
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_rejected() {
        let _ = DistMachine::new(0);
    }

    #[test]
    fn barrier_timeout_env_knob() {
        // Exercise the parser directly (the machine constructor just
        // calls it), restoring the environment either way.
        std::env::set_var(BARRIER_TIMEOUT_ENV, "45000");
        assert_eq!(barrier_timeout_from_env(), Duration::from_millis(45000));
        std::env::set_var(BARRIER_TIMEOUT_ENV, " 250 ");
        assert_eq!(barrier_timeout_from_env(), Duration::from_millis(250));
        std::env::set_var(BARRIER_TIMEOUT_ENV, "soon");
        assert_eq!(barrier_timeout_from_env(), DEFAULT_BARRIER_TIMEOUT);
        std::env::remove_var(BARRIER_TIMEOUT_ENV);
        assert_eq!(barrier_timeout_from_env(), DEFAULT_BARRIER_TIMEOUT);
    }

    fn encoded(v: &Value) -> Vec<u8> {
        let mut out = Vec::new();
        encode_value(&mut out, v).expect("a first-order value");
        out
    }

    fn finished(results: Vec<RankResult>) -> Result<DistOutcome, EvalError> {
        finish_attempt(&Telemetry::disabled(), results, None)
    }

    #[test]
    fn a_real_error_beats_peer_failure_echoes_in_any_rank_order() {
        let stats = CtlStats::default();
        let ranks = [
            Err(EvalError::PeerFailure),
            Err(EvalError::DivisionByZero),
            Ok((encoded(&Value::Unit), stats, 1)),
            Err(EvalError::PeerFailure),
        ];
        for shift in 0..ranks.len() {
            let mut results = ranks.to_vec();
            results.rotate_left(shift);
            assert_eq!(finished(results).unwrap_err(), EvalError::DivisionByZero);
        }
        let echoes = vec![
            Ok((encoded(&Value::Unit), stats, 1)),
            Err(EvalError::PeerFailure),
        ];
        assert_eq!(finished(echoes).unwrap_err(), EvalError::PeerFailure);
    }

    #[test]
    fn width_one_vectors_assemble_into_a_p_wide_vector() {
        let results = (0..3)
            .map(|i| {
                let stats = CtlStats {
                    supersteps: 2,
                    sent_words: i,
                    ..CtlStats::default()
                };
                Ok((
                    encoded(&Value::vector(vec![Value::Int(i as i64)])),
                    stats,
                    10 + i,
                ))
            })
            .collect();
        let out = finished(results).unwrap();
        assert_eq!(out.value.to_string(), "<|0, 1, 2|>");
        assert_eq!((out.supersteps, out.total_words_sent), (2, 3));
        assert_eq!(out.work, vec![10, 11, 12]);
    }

    #[test]
    fn replicated_results_must_encode_alike() {
        let stats = CtlStats::default();
        let same = vec![
            Ok((encoded(&Value::list([Value::Int(1)])), stats, 1)),
            Ok((encoded(&Value::list([Value::Int(1)])), stats, 1)),
        ];
        assert_eq!(finished(same).unwrap().value.to_string(), "[1]");
        let differ = vec![
            Ok((encoded(&Value::list([Value::Int(1)])), stats, 1)),
            Ok((encoded(&Value::list([Value::Int(2)])), stats, 1)),
        ];
        assert!(matches!(
            finished(differ),
            Err(EvalError::ScrutineeMismatch("distributed result", _))
        ));
    }

    /// What [`Defective`] does to the first frame it carries.
    #[derive(Clone, Copy, Debug)]
    enum Defect {
        FlipBit,
        /// Replaces the message with bytes that do not decode, under
        /// a valid checksum.
        BadMessage,
        Duplicate,
        Drop,
    }

    /// A transport that is lossless except for one defect on its
    /// first frame — a substrate breaking its contract.
    #[derive(Debug)]
    struct Defective {
        defect: Defect,
        boxes: Vec<Mutex<std::collections::VecDeque<Vec<u8>>>>,
        /// The destination of the first frame, once sent.
        first_dst: Mutex<Option<usize>>,
    }

    impl Transport for Defective {
        fn try_send(&self, dst: usize, bytes: &[u8]) -> bool {
            let mut frame = bytes.to_vec();
            let mut copies = 1;
            let mut first_dst = lock_ignore_poison(&self.first_dst);
            if first_dst.is_none() {
                *first_dst = Some(dst);
                match self.defect {
                    Defect::FlipBit => frame[bytes.len() / 2] ^= 1,
                    Defect::BadMessage => {
                        let mut f = Frame::decode(bytes).expect("a sound frame");
                        f.payload = FramePayload::Put(vec![0xff]);
                        frame = f.encode();
                    }
                    Defect::Duplicate => copies = 2,
                    Defect::Drop => copies = 0,
                }
            }
            // Both copies land under one lock, so the receiver drains
            // them together.
            let mut mailbox = lock_ignore_poison(&self.boxes[dst]);
            for _ in 0..copies {
                mailbox.push_back(frame.clone());
            }
            true
        }

        fn recv(&self, rank: usize) -> Option<Vec<u8>> {
            lock_ignore_poison(&self.boxes[rank]).pop_front()
        }
    }

    /// Runs a one-superstep exchange on two ranks over a [`Defective`]
    /// transport under a 10 s watchdog, and checks that the receiver
    /// of the damaged frame fails the run at once. Returns the failure's
    /// detail and the count of corrupt frames.
    fn assert_fails_fast(defect: Defect) -> (String, u64) {
        let e = parse("put (mkpar (fun j -> fun i -> j))").unwrap();
        let transport = Arc::new(Defective {
            defect,
            boxes: (0..2).map(|_| Mutex::default()).collect(),
            first_dst: Mutex::new(None),
        });
        let machine = DistMachine::new(2).with_barrier_timeout(Duration::from_secs(10));
        let net = Arc::new(Network::new(
            2,
            Arc::clone(&transport) as Arc<dyn Transport>,
            machine.barrier_timeout,
            None,
            0,
            None,
            None,
        ));
        let start = Instant::now();
        let result = machine.run_threads(&e, &net, None);
        let elapsed = start.elapsed();
        let receiver = lock_ignore_poison(&transport.first_dst).expect("a frame was sent");
        let detail = match result {
            Err(EvalError::TransportFailure {
                rank,
                superstep,
                detail,
            }) => {
                assert_eq!((rank, superstep), (receiver, 0), "{defect:?}");
                detail
            }
            other => panic!("{defect:?}: expected a TransportFailure, got {other:?}"),
        };
        assert!(
            elapsed < Duration::from_secs(5),
            "{defect:?}: took {elapsed:?} under a 10 s watchdog"
        );
        (detail, net.ledger.counters().corrupt_frames)
    }

    #[test]
    fn a_corrupt_frame_fails_the_exchange_at_once() {
        let (detail, corrupt) = assert_fails_fast(Defect::FlipBit);
        assert_eq!(detail, "undecodable frame: checksum mismatch");
        assert_eq!(corrupt, 1);
    }

    #[test]
    fn an_undecodable_message_fails_the_exchange_like_a_corrupt_frame() {
        let (detail, corrupt) = assert_fails_fast(Defect::BadMessage);
        assert_eq!(detail, "undecodable frame: unknown value tag 255");
        assert_eq!(corrupt, 1);
    }

    #[test]
    fn a_duplicate_frame_fails_the_exchange_at_once() {
        assert_fails_fast(Defect::Duplicate);
    }

    #[test]
    fn a_lost_frame_fails_the_exchange_at_once() {
        assert_fails_fast(Defect::Drop);
    }
}
