//! One superstep's communication on either backend (DESIGN.md §10):
//! the network an attempt's ranks share, how they synchronize (a
//! poisonable barrier in-process, the coordinator's control stream
//! across processes), and the driver's send, count round, drain and
//! exit barrier.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use bsml_eval::{CodecError, EvalError};
use bsml_obs::{FlightEvent, FlightRecorder};

use crate::checkpoint::CheckpointStore;
use crate::faults::FaultPlan;
use crate::lock;
use crate::rank::RemoteHub;
use crate::spmd::SpmdDriver;
use crate::transport::Transport;
use crate::wire::{CtlLedger, Frame, FramePayload};

/// A synchronization barrier that can be *poisoned*: when one
/// processor fails, every processor waiting (now or later) is
/// released with [`EvalError::PeerFailure`] instead of deadlocking.
/// Waits may carry a watchdog timeout; a timed-out wait poisons the
/// barrier (so every peer is released too) and surfaces as
/// [`EvalError::BarrierTimeout`].
#[derive(Debug)]
pub(crate) struct PoisonBarrier {
    n: usize,
    pub(crate) state: Mutex<BarrierState>,
    cv: Condvar,
}

#[derive(Debug, Default)]
pub(crate) struct BarrierState {
    pub(crate) waiting: usize,
    pub(crate) generation: u64,
    pub(crate) poisoned: bool,
}

impl PoisonBarrier {
    pub(crate) fn new(n: usize) -> PoisonBarrier {
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
    pub(crate) fn wait(
        &self,
        timeout: Duration,
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
        let deadline = Instant::now() + timeout;
        while st.generation == gen && !st.poisoned {
            let now = Instant::now();
            if now >= deadline {
                let waiting = st.waiting;
                st.poisoned = true;
                self.cv.notify_all();
                return Err(EvalError::BarrierTimeout {
                    superstep: gen,
                    waiting,
                });
            }
            st = match self.cv.wait_timeout(st, deadline - now) {
                Ok((g, _)) => g,
                Err(_) => return Err(EvalError::PeerFailure),
            };
        }
        if st.poisoned {
            Err(EvalError::PeerFailure)
        } else {
            Ok(())
        }
    }

    pub(crate) fn poison(&self) {
        let mut st = lock(&self.state);
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
pub(crate) struct FaultLedger {
    pub(crate) faults_injected: AtomicU64,
    barrier_timeouts: AtomicU64,
    pub(crate) checkpoints_written: AtomicU64,
    pub(crate) checkpoint_bytes: AtomicU64,
    /// The highest superstep any rank completed (only maintained when
    /// checkpointing is enabled) — how the supervisor knows, even for
    /// errors that carry no coordinate (a peer panic), how much
    /// progress a failed attempt made and therefore how many
    /// supersteps a resume replays.
    pub(crate) furthest_superstep: AtomicU64,
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
    pub(crate) fn counters(&self) -> CtlLedger {
        CtlLedger {
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
            barrier_timeouts: self.barrier_timeouts.load(Ordering::Relaxed),
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            corrupt_frames: self.corrupt_frames.load(Ordering::Relaxed),
        }
    }
}

/// The checkpoint runtime shared by all ranks of one attempt.
#[derive(Debug)]
pub(crate) struct NetCheckpoint {
    /// Checkpoint every `interval` completed supersteps.
    pub(crate) interval: u64,
    /// Where frames are staged and committed. `None` in a rank
    /// process: its frames ride its `BarrierEnter` to the
    /// coordinator's store.
    pub(crate) store: Option<Arc<dyn CheckpointStore>>,
    /// [`program_fingerprint`] of this (program, p) pair.
    pub(crate) fingerprint: u64,
}

/// The shared "network": the frame transport, the barrier, and the
/// (optional) fault plan governing this attempt.
#[derive(Debug)]
pub(crate) struct Network {
    pub(crate) p: usize,
    /// How this rank synchronizes with its peers (in-memory barrier,
    /// or the parent coordinator's control stream).
    pub(crate) sync: SyncBackend,
    /// The substrate frames travel over (per-rank mailboxes).
    pub(crate) transport: Arc<dyn Transport>,
    /// Watchdog timeout applied to every count round and barrier wait.
    pub(crate) barrier_timeout: Duration,
    /// Faults to inject into this attempt (`None` = zero-cost).
    pub(crate) faults: Option<Arc<FaultPlan>>,
    /// Which retry attempt this network serves (plans arm faults
    /// per-attempt).
    pub(crate) attempt: u32,
    pub(crate) ledger: FaultLedger,
    /// Checkpoint runtime (`None` = checkpointing disabled, which
    /// keeps the hot path free of any new work).
    pub(crate) checkpoint: Option<NetCheckpoint>,
    /// Per-rank flight recorders (`None` = recording disabled). They
    /// live here — not in the driver — so the attempt can drain every
    /// rank's ring after the threads are gone, including ranks that
    /// panicked.
    pub(crate) flight: Option<Vec<Arc<FlightRecorder>>>,
    /// Unique ids for telemetry flow arrows (one per delivered data
    /// frame).
    pub(crate) flow_ids: AtomicU64,
}

impl Network {
    pub(crate) fn new(
        p: usize,
        transport: Arc<dyn Transport>,
        barrier_timeout: Duration,
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
    pub(crate) fn poison(&self) {
        match &self.sync {
            SyncBackend::Local { barrier, .. } => barrier.poison(),
            SyncBackend::Remote(hub) => hub.poison(),
        }
    }
}

impl SpmdDriver {
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

    /// One superstep's communication. Stamps and sends `sends` (this
    /// rank's non-empty messages, at most one per peer), runs the count
    /// round, and drains exactly the frames it announced. Returns the
    /// delivered payloads by source rank; `None` where a peer sent
    /// nothing.
    pub(crate) fn exchange(
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
    pub(crate) fn corrupt_frame(&mut self, superstep: u64, err: CodecError) -> EvalError {
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

    /// The final barrier of a superstep. If this rank staged a frame,
    /// the last arriver commits the generation while holding the
    /// barrier lock: at that instant every rank has staged its frame
    /// of the same cut and none has started the next superstep — the
    /// consistent-cut argument of DESIGN.md §9.
    pub(crate) fn superstep_exit_barrier(
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
                self.timed_barrier(|| hub.barrier_enter(superstep, self.net.barrier_timeout))
            }
            SyncBackend::Local { barrier, .. } => {
                let net = &self.net;
                let store = net.checkpoint.as_ref().and_then(|ck| ck.store.as_ref());
                let commit = staged.zip(store).map(|(generation, store)| {
                    move || {
                        if let Ok(bytes) = store.commit(generation, net.p) {
                            net.ledger
                                .checkpoints_written
                                .fetch_add(1, Ordering::Relaxed);
                            net.ledger
                                .checkpoint_bytes
                                .fetch_add(bytes, Ordering::Relaxed);
                        }
                    }
                });
                let on_complete = commit.as_ref().map(|c| c as &dyn Fn());
                self.timed_barrier(|| barrier.wait(net.barrier_timeout, on_complete))
            }
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
}
