//! One superstep's communication on either backend (DESIGN.md §10):
//! the network an attempt's ranks share, how they synchronize (a
//! poisonable barrier in-process, the coordinator's control stream
//! across processes), and the driver's send, count round and drain.
//! The count round is the superstep's one synchronization.

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
    /// A round that completed is the waiter's to keep: a poison that
    /// lands after the last arrival but before this waiter wakes does
    /// not turn it into a failure, so every rank leaves a completed
    /// round alike.
    ///
    /// A poisoned *mutex* (a peer panicked inside the critical
    /// section) is treated like a poisoned barrier: the state may be
    /// inconsistent, so the only safe report is a peer failure.
    pub(crate) fn wait(&self, timeout: Duration) -> Result<(), EvalError> {
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
            self.cv.notify_all();
            return Ok(());
        }
        let gen = st.generation;
        let deadline = Instant::now() + timeout;
        while st.generation == gen {
            if st.poisoned {
                return Err(EvalError::PeerFailure);
            }
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
        Ok(())
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
    /// This rank is alone in its process; the count round and poison
    /// travel through the hub's socket.
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
    /// process: each frame travels alone, in a `Staged` message, to
    /// the coordinator's store.
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
    /// Watchdog timeout applied to every count round.
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

    /// The last synchronization of a run that evaluated without error:
    /// a count round that announces no frame, so no rank finishes
    /// before every rank has drained the last superstep, and a drain
    /// that proves no frame is left over.
    pub(crate) fn final_round(&mut self) -> Result<(), EvalError> {
        let superstep = self.superstep();
        let from = self.count_round(superstep, vec![0; self.net.p])?;
        self.drain(superstep, from).map(drop)
    }

    /// The count round of `superstep`, the superstep's one
    /// synchronization (DESIGN.md §10): publishes how many frames this
    /// rank sent each peer, waits for every rank to do the same, and
    /// returns how many each peer sent this rank. Every frame was
    /// handed to the transport before its sender entered the round, so
    /// when the round returns this rank's mailbox holds them all.
    ///
    /// The round of superstep `n` is also the barrier that closes
    /// superstep `n − 1`: when it completes, every rank has drained
    /// `n − 1` and staged its frame of any checkpoint generation `n`,
    /// which the last stage committed. It is timed into
    /// `bsp.barrier_wait_us`, bracketed from the second round on by
    /// `BarrierEnter`/`BarrierExit` of superstep `n − 1`, and followed
    /// by `CheckpointCommitted` on a rank that staged.
    fn count_round(&mut self, superstep: u64, to: Vec<u64>) -> Result<Vec<u64>, EvalError> {
        let closes = superstep.checked_sub(1);
        if let Some(closed) = closes {
            let lamport = self.tick();
            self.flight_record(lamport, FlightEvent::BarrierEnter { superstep: closed });
        }
        let net = Arc::clone(&self.net);
        let started = self.telemetry.is_enabled().then(Instant::now);
        let result = match &net.sync {
            SyncBackend::Local { barrier, counts } => {
                let p = net.p;
                let matrix = &counts[(superstep % 2) as usize];
                // Relaxed suffices: the barrier's mutex orders every
                // rank's stores before any rank's loads.
                for (dst, n) in to.into_iter().enumerate() {
                    matrix[self.rank * p + dst].store(n, Ordering::Relaxed);
                }
                barrier.wait(net.barrier_timeout).map(|()| {
                    (0..p)
                        .map(|src| matrix[src * p + self.rank].load(Ordering::Relaxed))
                        .collect()
                })
            }
            SyncBackend::Remote(hub) => hub.count_round(superstep, to, net.barrier_timeout),
        };
        if let Some(started) = started {
            let waited = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
            self.telemetry
                .histogram_record("bsp.barrier_wait_us", waited);
        }
        match result {
            Ok(from) => {
                if let Some(closed) = closes {
                    let lamport = self.tick();
                    self.flight_record(lamport, FlightEvent::BarrierExit { superstep: closed });
                }
                if let Some(generation) = self.staged.take() {
                    // Recorded on every rank that staged, not just the
                    // one whose stage committed: the commit is a
                    // property of the cut, and every rank is past it.
                    let lamport = self.tick();
                    self.flight_record(lamport, FlightEvent::CheckpointCommitted { generation });
                }
                Ok(from)
            }
            // Re-tagged with this rank's BSP superstep, and counted.
            Err(EvalError::BarrierTimeout { waiting, .. }) => {
                net.ledger.barrier_timeouts.fetch_add(1, Ordering::Relaxed);
                Err(EvalError::BarrierTimeout { superstep, waiting })
            }
            Err(err) => Err(err),
        }
    }

    /// Drains this rank's mailbox after the count round, which
    /// announced `from[src]` frames from each peer. Frames a peer sent
    /// for this superstep after running ahead were parked by the last
    /// drain and come first. Each frame must decode, come from a peer
    /// and carry that link's exact next sequence number. A frame of the
    /// next superstep is a peer running ahead: it is parked, one per
    /// peer, for the next drain. Any other frame must be one this
    /// round announced, and afterwards none may be missing. Anything
    /// else — a corrupt, surplus, duplicate, out-of-sequence, missing
    /// or far-ahead frame — fails the run at once with
    /// [`EvalError::TransportFailure`]. There is nothing to wait for: a
    /// peer cannot send superstep `n + 2` before this rank enters the
    /// round of `n + 1` (DESIGN.md §10).
    fn drain(
        &mut self,
        superstep: u64,
        mut from: Vec<u64>,
    ) -> Result<Vec<Option<FramePayload>>, EvalError> {
        let net = Arc::clone(&self.net);
        let p = net.p;
        let mut inbox: Vec<Option<FramePayload>> = vec![None; p];
        for src in 0..p {
            if let Some(frame) = self.parked[src].take() {
                self.deliver(superstep, frame, &mut from, &mut inbox)?;
            }
        }
        while let Some(bytes) = net.transport.recv(self.rank) {
            let frame = Frame::decode(&bytes).map_err(|err| self.corrupt_frame(superstep, err))?;
            let src = frame.from;
            if src >= p || src == self.rank {
                return Err(self.transport_failure(
                    superstep,
                    format!("frame claims to come from rank {src}, which is not a peer"),
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
            self.recv_seq[src] += 1;
            if frame.superstep == superstep + 1 && self.parked[src].is_none() {
                self.parked[src] = Some(frame);
            } else {
                self.deliver(superstep, frame, &mut from, &mut inbox)?;
            }
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

    /// Puts one frame into the inbox of `superstep`'s drain: it must
    /// belong to the superstep, on a link with an announced frame
    /// outstanding.
    fn deliver(
        &mut self,
        superstep: u64,
        frame: Frame,
        from: &mut [u64],
        inbox: &mut [Option<FramePayload>],
    ) -> Result<(), EvalError> {
        let src = frame.from;
        if frame.superstep != superstep {
            return Err(self.transport_failure(
                superstep,
                format!(
                    "frame from rank {src} (seq {}) belongs to superstep {}",
                    frame.seq, frame.superstep
                ),
            ));
        }
        if from[src] == 0 || inbox[src].is_some() {
            return Err(self.transport_failure(
                superstep,
                format!(
                    "frame from rank {src} (seq {}) on a link nothing more was announced on",
                    frame.seq
                ),
            ));
        }
        from[src] -= 1;
        // Every received frame advances the Lamport clock past the
        // sender's stamp: the receive is strictly after the send,
        // machine-wide.
        let stamp = self.observe(frame.lamport);
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
            // A causal arrow from the sender's rank track to ours, at
            // the delivery instant (the sender's wall clock is not
            // observable here).
            let now = self.telemetry.now_us();
            let from_track = self.telemetry.track(&format!("p{src}")).current_track();
            let id = self.net.flow_ids.fetch_add(1, Ordering::Relaxed);
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
        Ok(())
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
}
