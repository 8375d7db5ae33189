//! The SPMD driver (DESIGN.md §10): one rank's `put` and `if‥at‥`,
//! the checkpoint record, stage and replay of their outcomes, and the
//! unwind-guarded run of one rank.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use bsml_ast::Expr;
use bsml_eval::persist::{encode_value, NO_MESSAGE};
use bsml_eval::{Applier, EvalError, Evaluator, Mode, NoHooks, ParallelDriver, Value};
use bsml_obs::{FlightEvent, FlightRecorder, Telemetry};

use crate::checkpoint::{RankFrame, SyncOutcome};
use crate::exchange::{Network, SyncBackend};
use crate::faults::FaultKind;
use crate::finish::{decode_exact, RankResult};
use crate::lock;
use crate::wire::{CtlStats, Frame, FramePayload};

/// Replay state of a resumed rank: the checkpoint frame being
/// consumed and a cursor into its outcome log.
struct ReplayState {
    frame: RankFrame,
    next: usize,
}

/// The SPMD driver for one processor (rank). Statistics are shared
/// out through a mutex so the thread can read them back after the
/// evaluator (which owns the boxed driver) is done.
pub(crate) struct SpmdDriver {
    pub(crate) rank: usize,
    pub(crate) net: Arc<Network>,
    stats: Arc<Mutex<CtlStats>>,
    /// Per-rank telemetry handle (on track `p{rank}`); disabled by
    /// default.
    pub(crate) telemetry: Telemetry,
    /// The outcome log recorded for checkpoint frames (`Some` iff
    /// checkpointing is enabled; grows by one entry per superstep).
    record: Option<Vec<SyncOutcome>>,
    /// Replay state when this attempt resumes from a checkpoint.
    replay: Option<ReplayState>,
    /// Next sequence number per `(self → dst)` link.
    pub(crate) send_seq: Vec<u64>,
    /// Next expected sequence number per `(src → self)` link; a frame
    /// carrying any other number fails the exchange.
    pub(crate) recv_seq: Vec<u64>,
    /// Per source, a frame of the next superstep that arrived before
    /// this rank's drain of the current one: its sender ran ahead. The
    /// next drain takes it first.
    pub(crate) parked: Vec<Option<Frame>>,
    /// The checkpoint generation this rank staged since its last count
    /// round; the next round's completion means it is committed.
    pub(crate) staged: Option<u64>,
    /// This rank's Lamport clock (DESIGN.md §12): advanced by one on
    /// every local protocol event (stamping a frame, entering or
    /// leaving a count round), and to `max(local, remote) + 1` on every
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
    /// supersteps so far) — the coordinate fault plans are keyed on.
    pub(crate) fn superstep(&self) -> u64 {
        lock(&self.stats).supersteps
    }

    /// Advances the Lamport clock for a local event and returns the
    /// new stamp.
    pub(crate) fn tick(&mut self) -> u64 {
        self.clock.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Advances the Lamport clock past a received remote stamp
    /// (`max(local, remote) + 1`) and returns the new stamp.
    pub(crate) fn observe(&mut self, remote: u64) -> u64 {
        self.clock.fetch_max(remote, Ordering::AcqRel);
        self.tick()
    }

    /// Records one flight event at the given stamp (no-op when the
    /// recorder is off).
    pub(crate) fn flight_record(&self, lamport: u64, event: FlightEvent) {
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
        let stats = *lock(&self.stats);
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
                // poisons the run on our behalf.
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

    // --- checkpoint recording, staging and replay -------------------------

    /// Whether this rank is still consuming a checkpoint's outcome log
    /// (replay mode: no count rounds, no faults, no staging).
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
    /// poisons the run (peers may already be live and waiting) and
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
        let stats = *lock(&self.stats);
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
    /// policy's interval divides the completed-superstep count. The
    /// stage that completes a generation commits it (DESIGN.md §9):
    /// in-process the rank whose frame is the p-th, across processes
    /// the coordinator when it reads the p-th. All of this is behind
    /// `net.checkpoint` — disabled machines do nothing here.
    fn record_and_stage(&mut self, outcome: SyncOutcome, fuel_left: u64) {
        let Some(ck) = self.net.checkpoint.as_ref() else {
            return;
        };
        let (interval, fingerprint, store) = (ck.interval, ck.fingerprint, ck.store.clone());
        let stats = *lock(&self.stats);
        self.net
            .ledger
            .furthest_superstep
            .fetch_max(stats.supersteps, Ordering::Relaxed);
        let record = self.record.as_mut().expect("recording iff checkpointing");
        record.push(outcome);
        if !stats.supersteps.is_multiple_of(interval) {
            return;
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
        // checkpointing is best-effort, never a reason to fail a run. A
        // rank process ships the frame to the coordinator's store at
        // once: riding its next `SendCounts` instead, a crash at the
        // next superstep's entry would lose the generation.
        let generation = stats.supersteps;
        let staged = match &self.net.sync {
            SyncBackend::Remote(hub) => {
                hub.stage(frame.encode());
                true
            }
            SyncBackend::Local { .. } => store.is_some_and(|store| {
                let staged = store.stage(&frame).is_ok();
                // Every stager tries the commit: the store refuses it
                // until all p frames are in, and only one commit can
                // take them.
                if staged {
                    if let Ok(bytes) = store.commit(generation, self.net.p) {
                        let ledger = &self.net.ledger;
                        ledger.checkpoints_written.fetch_add(1, Ordering::Relaxed);
                        ledger.checkpoint_bytes.fetch_add(bytes, Ordering::Relaxed);
                    }
                }
                staged
            }),
        };
        if staged {
            self.staged = Some(generation);
            let lamport = self.tick();
            self.flight_record(lamport, FlightEvent::CheckpointStaged { generation });
        }
    }

    /// The replayed counterpart of [`ParallelDriver::put`]: re-runs
    /// the local phase (so fuel and sent-word accounting advance
    /// exactly as in the original run) but takes the delivered table
    /// from the log instead of the network — no count round, no
    /// mailbox, no faults.
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
                lock(&self.stats).sent_words += v.size_in_words();
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
            let mut stats = lock(&self.stats);
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
            let mut stats = lock(&self.stats);
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
                lock(&self.stats).sent_words += v.size_in_words();
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
        // the superstep's one synchronization.
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
            let mut stats = lock(&self.stats);
            for (j, v) in table.iter().enumerate() {
                if j != self.rank {
                    stats.received_words += v.size_in_words();
                }
            }
            stats.supersteps += 1;
            stats.puts += 1;
        }
        self.note_superstep_end(superstep, ev.fuel_left());
        if let Some(delivered) = row {
            self.record_and_stage(SyncOutcome::Put { delivered }, ev.fuel_left());
        }
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
            lock(&self.stats).sent_words += (p - 1) as u64;
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
            let mut stats = lock(&self.stats);
            if self.rank != at {
                stats.received_words += 1;
            }
            stats.supersteps += 1;
            stats.ifats += 1;
        }
        ev.note_ifat(at, chosen);
        self.note_superstep_end(superstep, ev.fuel_left());
        if self.record.is_some() {
            self.record_and_stage(SyncOutcome::IfAt { chosen }, ev.fuel_left());
        }
        Ok(chosen)
    }

    fn finish(&mut self) -> Result<(), EvalError> {
        self.final_round()
    }
}

/// One processor's run: the evaluation itself runs under an unwind
/// guard, so a panicking processor (an injected [`FaultKind::Panic`]
/// or a genuine bug) poisons the run — releasing its peers — and
/// comes home as [`EvalError::PeerFailure`] instead of killing the
/// whole runner.
pub(crate) fn run_rank(
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
        parked: (0..p).map(|_| None).collect(),
        staged: None,
        clock,
        flight,
        fuel_mark: fuel,
        sent_mark: 0,
        recv_mark: 0,
    };
    let mut hooks = NoHooks;
    let mut ev = Evaluator::with_driver(&mut hooks, fuel, Box::new(driver));
    // The final count round comes before the result is encoded: no
    // rank reports until every rank has drained the last superstep.
    let result = ev.eval(program).and_then(|v| ev.finish().map(|()| v));
    let work = fuel - ev.fuel_left();
    match result {
        Ok(v) => {
            let mut bytes = Vec::new();
            encode_value(&mut bytes, &v).inspect_err(|_| net.poison())?;
            let final_stats = *lock(&stats);
            Ok((bytes, final_stats, work))
        }
        Err(err) => {
            net.poison();
            Err(err)
        }
    }
}
