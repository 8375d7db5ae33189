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
//! ([`bsml_eval::persist::encode_value`]); `put` and `if‥at‥` frame their
//! data on the wire protocol of [`crate::wire`] and exchange the
//! frames through per-rank mailboxes
//! behind a lossless [`crate::transport::Transport`]. Only non-empty
//! messages become frames. Each rank's per-destination frame counts
//! travel in a *count round*, the superstep's one synchronization, over
//! a poisonable `PoisonBarrier` (a failing processor releases, rather
//! than deadlocks, its peers). When it completes, every receiver's
//! mailbox holds the frames announced to it, and it drains them without
//! waiting; a frame of the next superstep, from a peer that ran ahead,
//! is parked for the next drain. Every data frame carries its
//! superstep and a per-link sequence number, and a missing, surplus,
//! duplicate, out-of-sequence or far-ahead frame fails the run at once
//! with [`EvalError::TransportFailure`]. A run ends with one more count
//! round that carries no frame (DESIGN.md §10).
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

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use bsml_ast::Expr;
use bsml_eval::{EvalError, Value};
use bsml_obs::{FlightRecorder, Telemetry};

use crate::checkpoint::{
    program_fingerprint, CheckpointPolicy, CheckpointStore, RankFrame, ResumePoint,
};
use crate::exchange::{NetCheckpoint, Network};
use crate::faults::FaultPlan;
use crate::finish::{finish_attempt, flush_counters, RankResult};
use crate::postmortem::{FlightLog, RankFlightLog};
use crate::spmd::run_rank;
use crate::transport::SharedMem;

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
/// [`DistMachine::new`]).
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
    pub(crate) barrier_timeout: Duration,
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
            barrier_timeout: barrier_timeout_from_env(),
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
        self.barrier_timeout = timeout;
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
    /// frame into `store`, and the stage of the `p`-th frame commits
    /// the generation atomically. Disabled machines (the default)
    /// allocate no store and take no new locks in the superstep hot
    /// path.
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
    /// ([`FlightEvent`](bsml_obs::FlightEvent)), Lamport-stamped, drained into a
    /// [`FlightLog`] when the attempt ends. Also enabled by setting
    /// the `BSML_FLIGHT_CAPACITY` environment variable; a builder
    /// call overrides the environment.
    #[must_use]
    pub fn with_flight_recorder(mut self, capacity: usize) -> DistMachine {
        self.flight = Some(capacity);
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
                store: Some(Arc::clone(store)),
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
#[cfg(test)]
mod tests {
    use super::*;
    use crate::exchange::PoisonBarrier;
    use crate::lock;
    use crate::transport::Transport;
    use crate::wire::{CtlStats, Frame, FramePayload};
    use bsml_eval::persist::encode_value;
    use bsml_syntax::parse;
    use std::sync::Mutex;
    use std::time::Instant;

    #[test]
    fn poison_barrier_releases_waiters() {
        let barrier = Arc::new(PoisonBarrier::new(2));
        let b2 = Arc::clone(&barrier);
        let waiter = std::thread::spawn(move || b2.wait(DEFAULT_BARRIER_TIMEOUT));
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
        assert_eq!(
            barrier.wait(DEFAULT_BARRIER_TIMEOUT),
            Err(EvalError::PeerFailure)
        );
        assert_eq!(
            barrier.wait(Duration::from_secs(5)),
            Err(EvalError::PeerFailure)
        );
        assert_eq!(lock(&barrier.state).waiting, 0);
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
                        scope.spawn(move || b.wait(Duration::from_secs(5)))
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
        lock(&barrier.state).generation = u64::MAX - 1;
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let b = Arc::clone(&barrier);
                scope.spawn(move || {
                    for _ in 0..4 {
                        b.wait(Duration::from_secs(5)).expect("no poison");
                    }
                });
            }
        });
        // 4 episodes from u64::MAX - 1: wrapped past 0 to 3.
        let st = lock(&barrier.state);
        assert_eq!(st.generation, 2);
        assert!(!st.poisoned);
    }

    #[test]
    fn poison_barrier_timeout_surfaces_and_poisons() {
        let barrier = PoisonBarrier::new(2);
        let err = barrier
            .wait(Duration::from_millis(10))
            .expect_err("nobody else is coming");
        assert!(
            matches!(err, EvalError::BarrierTimeout { waiting: 1, .. }),
            "got {err:?}"
        );
        // The timeout poisoned the barrier: everyone else is released.
        assert_eq!(
            barrier.wait(DEFAULT_BARRIER_TIMEOUT),
            Err(EvalError::PeerFailure)
        );
    }

    #[test]
    fn poison_barrier_synchronizes_generations() {
        let barrier = Arc::new(PoisonBarrier::new(3));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let b = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    b.wait(DEFAULT_BARRIER_TIMEOUT)?;
                }
                Ok::<(), EvalError>(())
            }));
        }
        for h in handles {
            h.join().expect("no panic").expect("no poison");
        }
    }

    #[test]
    fn poison_barrier_keeps_a_completed_round_from_a_later_poison() {
        // The last arriver completes the round and then fails before
        // the waiter wakes: the waiter still leaves the round it
        // completed, as the last arriver did.
        for round in 0..500 {
            let barrier = Arc::new(PoisonBarrier::new(2));
            let waiter = {
                let b = Arc::clone(&barrier);
                std::thread::spawn(move || b.wait(DEFAULT_BARRIER_TIMEOUT))
            };
            while lock(&barrier.state).waiting == 0 {
                std::thread::yield_now();
            }
            barrier
                .wait(DEFAULT_BARRIER_TIMEOUT)
                .expect("the last arrival completes the round");
            barrier.poison();
            assert_eq!(waiter.join().expect("no panic"), Ok(()), "round {round}");
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
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Defect {
        FlipBit,
        /// Replaces the message with bytes that do not decode, under
        /// a valid checksum.
        BadMessage,
        Duplicate,
        Drop,
        /// Restamps the frame two supersteps ahead.
        TwoAhead,
        /// Follows the frame with a forged frame of the next superstep,
        /// the link's next in sequence.
        Surplus,
        /// Follows the frame with the forged frame of `Surplus`, twice.
        SurplusTwice,
        /// Damages nothing, but holds the receiver's first drain until
        /// the sender's next-superstep frame is in its mailbox.
        RunAhead,
    }

    /// A transport that is lossless except for one defect on its
    /// first frame — a substrate breaking its contract.
    #[derive(Debug)]
    struct Defective {
        defect: Defect,
        boxes: Vec<Mutex<std::collections::VecDeque<Vec<u8>>>>,
        /// The destination of the first frame, once sent.
        first_dst: Mutex<Option<usize>>,
        /// `RunAhead`: whether the receiver's first drain found a frame
        /// of a later superstep waiting, or `None` before that drain.
        ran_ahead: Mutex<Option<bool>>,
    }

    impl Defective {
        /// Whether `rank`'s mailbox holds a frame past superstep 0.
        fn holds_a_later_frame(&self, rank: usize) -> bool {
            lock(&self.boxes[rank])
                .iter()
                .any(|bytes| Frame::decode(bytes).is_ok_and(|f| f.superstep > 0))
        }
    }

    impl Transport for Defective {
        fn try_send(&self, dst: usize, bytes: &[u8]) -> bool {
            let mut frames = vec![bytes.to_vec()];
            let mut first_dst = lock(&self.first_dst);
            if first_dst.is_none() {
                *first_dst = Some(dst);
                let sound = Frame::decode(bytes).expect("a sound frame");
                let ahead = Frame {
                    superstep: sound.superstep + 1,
                    seq: sound.seq + 1,
                    ..sound.clone()
                };
                match self.defect {
                    Defect::FlipBit => frames[0][bytes.len() / 2] ^= 1,
                    Defect::BadMessage => {
                        frames[0] = Frame {
                            payload: FramePayload::Put(vec![0xff]),
                            ..sound
                        }
                        .encode();
                    }
                    Defect::Duplicate => frames.push(bytes.to_vec()),
                    Defect::Drop => frames.clear(),
                    Defect::TwoAhead => {
                        frames[0] = Frame {
                            superstep: sound.superstep + 2,
                            ..sound
                        }
                        .encode();
                    }
                    Defect::Surplus => frames.push(ahead.encode()),
                    Defect::SurplusTwice => frames.extend([ahead.encode(), ahead.encode()]),
                    Defect::RunAhead => {}
                }
            }
            // Every copy lands under one lock, so the receiver drains
            // them together.
            lock(&self.boxes[dst]).extend(frames);
            true
        }

        fn recv(&self, rank: usize) -> Option<Vec<u8>> {
            if self.defect == Defect::RunAhead && *lock(&self.first_dst) == Some(rank) {
                let mut ran_ahead = lock(&self.ran_ahead);
                if ran_ahead.is_none() {
                    let deadline = Instant::now() + Duration::from_secs(5);
                    while !self.holds_a_later_frame(rank) && Instant::now() < deadline {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    *ran_ahead = Some(self.holds_a_later_frame(rank));
                }
            }
            lock(&self.boxes[rank]).pop_front()
        }
    }

    /// Runs `source` on two ranks over a [`Defective`] transport under
    /// a 10 s watchdog. Returns the outcome, the transport and the
    /// network, after checking that the run took less than 5 s.
    fn run_defective(
        defect: Defect,
        source: &str,
    ) -> (Result<DistOutcome, EvalError>, Arc<Defective>, Arc<Network>) {
        let e = parse(source).unwrap();
        let transport = Arc::new(Defective {
            defect,
            boxes: (0..2).map(|_| Mutex::default()).collect(),
            first_dst: Mutex::new(None),
            ran_ahead: Mutex::new(None),
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
        assert!(
            elapsed < Duration::from_secs(5),
            "{defect:?}: took {elapsed:?} under a 10 s watchdog"
        );
        (result, transport, net)
    }

    /// Runs `source` over a [`Defective`] transport and checks that the
    /// receiver of the damaged frame fails the run at once, in
    /// `superstep`. Returns the failure's detail and the count of
    /// corrupt frames.
    fn fails_fast_at(defect: Defect, source: &str, superstep: u64) -> (String, u64) {
        let (result, transport, net) = run_defective(defect, source);
        let receiver = lock(&transport.first_dst).expect("a frame was sent");
        let detail = match result {
            Err(EvalError::TransportFailure {
                rank,
                superstep: failed,
                detail,
            }) => {
                assert_eq!((rank, failed), (receiver, superstep), "{defect:?}");
                detail
            }
            other => panic!("{defect:?}: expected a TransportFailure, got {other:?}"),
        };
        (detail, net.ledger.counters().corrupt_frames)
    }

    /// [`fails_fast_at`] on a one-superstep exchange, in superstep 0.
    fn assert_fails_fast(defect: Defect) -> (String, u64) {
        fails_fast_at(defect, "put (mkpar (fun j -> fun i -> j))", 0)
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

    /// Two supersteps of exchange between two ranks, each reading its
    /// peer's message, with a result every rank can report.
    const TWO_SUPERSTEPS: &str = "
        let r1 = put (mkpar (fun j -> fun i -> j + 1)) in
        let v = apply (mkpar (fun i -> fun t -> t (1 - i)), r1) in
        let r2 = put (apply (mkpar (fun j -> fun x -> fun i -> x * 10 + j), v)) in
        apply (mkpar (fun i -> fun t -> t (1 - i)), r2)";

    #[test]
    fn a_frame_from_a_peer_that_ran_ahead_is_parked_for_the_next_superstep() {
        let (result, transport, _) = run_defective(Defect::RunAhead, TWO_SUPERSTEPS);
        assert_eq!(
            *lock(&transport.ran_ahead),
            Some(true),
            "the sender's superstep-1 frame was in the mailbox at the drain of superstep 0"
        );
        let out = result.expect("the parked frame is delivered in superstep 1");
        assert_eq!(out.value.to_string(), "<|11, 20|>");
        assert_eq!(out.supersteps, 2);
    }

    #[test]
    fn a_frame_two_supersteps_ahead_fails_the_exchange_at_once() {
        let (detail, _) = fails_fast_at(Defect::TwoAhead, TWO_SUPERSTEPS, 0);
        assert!(detail.contains("superstep 2"), "{detail}");
    }

    #[test]
    fn a_duplicate_of_a_parked_frame_fails_the_exchange_at_once() {
        let (detail, _) = fails_fast_at(Defect::SurplusTwice, TWO_SUPERSTEPS, 0);
        assert!(detail.contains("carries seq 1, expected 2"), "{detail}");
    }

    #[test]
    fn a_surplus_frame_after_the_last_superstep_fails_the_final_round() {
        let one_superstep = "let r = put (mkpar (fun j -> fun i -> j)) in
                             apply (mkpar (fun i -> fun t -> t (1 - i)), r)";
        let (detail, _) = fails_fast_at(Defect::Surplus, one_superstep, 1);
        assert!(detail.contains("nothing more was announced"), "{detail}");
    }
}
