//! Supervised execution of the distributed machine: watchdog,
//! retries with jittered exponential backoff, checkpoint resume, and
//! an oracle cross-check.
//!
//! **Why replay is sound.** The paper's semantics are deterministic
//! and confluent (§5, Theorem 2): a mini-BSML program's value and
//! per-superstep h-relations are a pure function of the program and
//! `p`. A distributed attempt that fails — a crashed peer, a lost
//! message, a barrier timeout — can therefore be *re-run*; there is
//! no risk that the retry computes something different. The
//! supervisor leans on this three times:
//!
//! * it retries failed attempts — including
//!   [`EvalError::TransportFailure`]s, where a dead rank process or a
//!   frame the exchange refused ended the attempt,
//! * when the machine checkpoints (see [`crate::checkpoint`]), a
//!   retry *resumes* from the latest valid checkpoint instead of
//!   restarting, replaying only the supersteps past the cut —
//!   determinism guarantees the resumed run is bit-identical to an
//!   unfaulted one,
//! * it asserts on success that the distributed answer matches the
//!   lockstep [`BspMachine`] oracle (value, superstep count, and
//!   total communication volume) — a *silently* corrupted run is
//!   thereby detected and retried like any other failure.
//!
//! **The recovery ladder.** The cheapest rung never reaches this
//! type at all: under [`crate::Execution::Processes`] a severed
//! control link is healed *inside* the attempt by reconnect-and-
//! replay (DESIGN.md §16), costing a few frames and zero supersteps —
//! only a dead rank process (or a link whose rejoin budget is
//! exhausted) fails the attempt and engages the supervisor. From
//! there, on each retry the supervisor walks the
//! store's committed generations newest-first: a generation that
//! fails integrity verification is counted (`bsp.checkpoints_corrupt`)
//! and skipped in favour of the next-older one; if no generation
//! survives, the attempt is a full restart. A corrupted checkpoint
//! can therefore cost time, never correctness. Any *failed* resumed
//! attempt — a replay that diverges from the recorded cut
//! ([`EvalError::CheckpointDiverged`]), or an error replayed straight
//! out of a poisoned outcome log — permanently demotes the run to
//! full restarts, as does an oracle divergence (the store's recorded
//! outcomes are then suspect).
//!
//! ```
//! use bsml_bsp::distributed::DistMachine;
//! use bsml_bsp::faults::FaultPlan;
//! use bsml_bsp::supervisor::Supervisor;
//! use bsml_syntax::parse;
//!
//! // Rank 1 crashes in superstep 0 of the first attempt; the
//! // supervised retry replays clean and converges.
//! let machine = DistMachine::new(4).with_faults(FaultPlan::new().crash(1, 0));
//! let out = Supervisor::new(machine).run(&parse(
//!     "let r = put (mkpar (fun j -> fun i -> j * j)) in
//!      apply (mkpar (fun i -> fun t -> t i), r)")?)?;
//! assert_eq!(out.outcome.value.to_string(), "<|0, 1, 4, 9|>");
//! assert_eq!(out.attempts, 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::fmt;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bsml_ast::Expr;
use bsml_eval::EvalError;
use bsml_obs::Telemetry;

use crate::checkpoint::{program_fingerprint, CheckpointError, ResumePoint};
use crate::distributed::{DistMachine, DistOutcome, DEFAULT_FLIGHT_CAPACITY};
use crate::faults::SplitMix64;
use crate::lock;
use crate::machine::{BspMachine, BspParams};
use crate::postmortem::{error_coordinate, FlightLog, PostmortemBundle};

/// How many attempts a supervisor makes (1 initial + 2 retries).
pub const MAX_ATTEMPTS: u32 = 3;

/// Environment variable naming a directory for crash-time postmortem
/// bundles. When set, the supervisor writes one bundle per failed
/// attempt (enabling the machine's flight recorder at
/// [`DEFAULT_FLIGHT_CAPACITY`] if it is not already on).
pub const POSTMORTEM_DIR_ENV: &str = "BSML_POSTMORTEM_DIR";

/// Default base backoff; retry `k` sleeps `base · 2^(k-1)`, jittered.
pub const DEFAULT_BACKOFF: Duration = Duration::from_millis(5);

/// How a [`Supervisor`] waits between attempts. Injectable so tests
/// can assert the exact backoff schedule without wall-clock sleeping.
pub trait Sleeper: Send + Sync + fmt::Debug {
    /// Waits for `d` (or records that it would have).
    fn sleep(&self, d: Duration);
}

/// The default [`Sleeper`]: a real [`std::thread::sleep`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ThreadSleeper;

impl Sleeper for ThreadSleeper {
    fn sleep(&self, d: Duration) {
        if !d.is_zero() {
            std::thread::sleep(d);
        }
    }
}

/// A test [`Sleeper`] that records every requested delay and returns
/// immediately — backoff schedules become assertable data.
#[derive(Debug, Default)]
pub struct RecordingSleeper {
    slept: Mutex<Vec<Duration>>,
}

impl RecordingSleeper {
    /// An empty recorder.
    #[must_use]
    pub fn new() -> RecordingSleeper {
        RecordingSleeper::default()
    }

    /// Every delay requested so far, in order.
    #[must_use]
    pub fn slept(&self) -> Vec<Duration> {
        lock(&self.slept).clone()
    }
}

impl Sleeper for RecordingSleeper {
    fn sleep(&self, d: Duration) {
        lock(&self.slept).push(d);
    }
}

/// The delay before retry `attempt` (1-based): exponential backoff
/// `base · 2^(attempt-1)` with deterministic ±20% jitter seeded by
/// `jitter_seed ^ attempt`. A supervisor seeds it with its program's
/// fingerprint, so supervisors of different programs that share a
/// fault retry apart, while every schedule stays reproducible.
#[must_use]
pub fn backoff_delay(base: Duration, attempt: u32, jitter_seed: u64) -> Duration {
    let exp = 2u32.saturating_pow(attempt.saturating_sub(1));
    let nominal = base.saturating_mul(exp);
    let mut rng = SplitMix64::new(jitter_seed ^ u64::from(attempt));
    let permille = 800 + rng.next() % 401; // 0.8x ..= 1.2x
    let nanos = nominal.as_nanos().saturating_mul(u128::from(permille)) / 1000;
    Duration::from_nanos(u64::try_from(nanos).unwrap_or(u64::MAX))
}

/// The result of a supervised run.
#[derive(Clone, Debug)]
pub struct SupervisedOutcome {
    /// The (oracle-checked) distributed outcome. Its `resumed_from`
    /// field tells whether the final attempt resumed from a
    /// checkpoint, and from which superstep.
    pub outcome: DistOutcome,
    /// How many attempts were made (1 = first try succeeded).
    pub attempts: u32,
    /// The structured error of every failed attempt, in order —
    /// oracle divergences appear as
    /// [`EvalError::ScrutineeMismatch`]`("supervised replay", …)`.
    pub recovered: Vec<EvalError>,
    /// Postmortem bundles written for the failed attempts, in order
    /// (empty unless a postmortem directory is configured — see
    /// [`Supervisor::with_postmortem`] and [`POSTMORTEM_DIR_ENV`]).
    pub postmortems: Vec<PathBuf>,
}

/// Runs a [`DistMachine`] under supervision: each attempt executes
/// under the machine's barrier watchdog, failures are retried with
/// jittered exponential backoff — resuming from the latest valid
/// checkpoint when the machine checkpoints — and successes are
/// cross-checked against the lockstep [`BspMachine`] oracle before
/// being believed.
#[derive(Clone, Debug)]
pub struct Supervisor {
    machine: DistMachine,
    backoff: Duration,
    sleeper: Arc<dyn Sleeper>,
    telemetry: Telemetry,
    postmortem_dir: Option<PathBuf>,
}

impl Supervisor {
    /// Supervises `machine` with [`MAX_ATTEMPTS`] attempts,
    /// [`DEFAULT_BACKOFF`] and a real [`ThreadSleeper`].
    #[must_use]
    pub fn new(machine: DistMachine) -> Supervisor {
        let postmortem_dir = bsml_obs::env::path_knob(POSTMORTEM_DIR_ENV);
        // A postmortem is drained from the flight recorder, so the
        // env knob implies recording (at the default ring capacity)
        // unless the machine already configured it.
        let machine = if postmortem_dir.is_some() && machine.flight_capacity().is_none() {
            machine.with_flight_recorder(DEFAULT_FLIGHT_CAPACITY)
        } else {
            machine
        };
        Supervisor {
            machine,
            backoff: DEFAULT_BACKOFF,
            sleeper: Arc::new(ThreadSleeper),
            telemetry: Telemetry::disabled(),
            postmortem_dir,
        }
    }

    /// Overrides the base backoff (use [`Duration::ZERO`] in tests).
    #[must_use]
    pub fn with_backoff(mut self, backoff: Duration) -> Supervisor {
        self.backoff = backoff;
        self
    }

    /// Replaces the [`Sleeper`] — inject a [`RecordingSleeper`] to
    /// assert backoff schedules without wall-clock sleeping.
    #[must_use]
    pub fn with_sleeper(mut self, sleeper: Arc<dyn Sleeper>) -> Supervisor {
        self.sleeper = sleeper;
        self
    }

    /// Writes a postmortem bundle into `dir` for every failed attempt
    /// (the crash-time black box of DESIGN.md §12), enabling the
    /// machine's flight recorder at [`DEFAULT_FLIGHT_CAPACITY`] if it
    /// is not already on. Bundle writes are best-effort: an
    /// unwritable directory is counted
    /// (`bsp.postmortem_write_errors`), never an error.
    #[must_use]
    pub fn with_postmortem(mut self, dir: impl Into<PathBuf>) -> Supervisor {
        self.postmortem_dir = Some(dir.into());
        if self.machine.flight_capacity().is_none() {
            self.machine = self.machine.with_flight_recorder(DEFAULT_FLIGHT_CAPACITY);
        }
        self
    }

    /// Attaches telemetry: retries bump `bsp.retries`, resumes bump
    /// `bsp.resumes` and `bsp.supersteps_replayed`, invalid
    /// checkpoints bump `bsp.checkpoints_corrupt`, and the supervised
    /// machine's own counters (`bsp.faults_injected`,
    /// `bsp.checkpoints_written`, …) record into the same sink.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Supervisor {
        self.machine = self.machine.with_telemetry(telemetry.clone());
        self.telemetry = telemetry;
        self
    }

    /// Runs `e` under supervision.
    ///
    /// # Errors
    ///
    /// * The oracle's own error, if the program fails
    ///   *deterministically* (fuel, division by zero, …) — replay
    ///   cannot recover a program that is simply wrong, so no
    ///   distributed attempt is made.
    /// * The last attempt's [`EvalError`] if every attempt failed.
    pub fn run(&self, e: &Expr) -> Result<SupervisedOutcome, EvalError> {
        // Determinism (§5, Thm. 2) means the oracle's verdict is THE
        // verdict: if the program fails on the lockstep machine it
        // fails on every faithful backend, and retrying is pointless.
        // The lockstep machine plays all p processors on ONE fuel pool,
        // so give it p× the distributed per-rank budget — never
        // under-fueled relative to the supervised machine, still
        // bounded on divergent programs.
        let oracle_fuel = self.machine.fuel().saturating_mul(self.machine.p() as u64);
        let oracle = BspMachine::new(BspParams::new(self.machine.p(), 1, 1))
            .with_fuel(oracle_fuel)
            .run(e)?;

        let fingerprint = program_fingerprint(e, self.machine.p());
        let checkpointing = self.machine.checkpoints().is_some();
        let mut recovered = Vec::new();
        let mut postmortems = Vec::new();
        // The furthest superstep any attempt completed — what a
        // fresh, unfaulted run would NOT have to redo. The difference
        // between it and the resume point is the replay debt.
        let mut furthest = 0u64;
        let mut full_restart_only = false;
        for attempt in 0..MAX_ATTEMPTS {
            if attempt > 0 {
                self.telemetry.counter_add("bsp.retries", 1);
                self.sleeper
                    .sleep(backoff_delay(self.backoff, attempt, fingerprint));
            }
            let resume = if attempt > 0 && !full_restart_only {
                self.latest_valid_checkpoint(fingerprint)
            } else {
                None
            };
            if attempt > 0 && checkpointing {
                let from = resume.as_ref().map_or(0, |rp| rp.superstep);
                if resume.is_some() {
                    self.telemetry.counter_add("bsp.resumes", 1);
                }
                self.telemetry
                    .counter_add("bsp.supersteps_replayed", furthest.saturating_sub(from));
            }
            let resumed = resume.is_some();
            let (result, reached, flight) =
                self.machine.run_attempt_with_resume(e, attempt, resume);
            furthest = furthest.max(reached);
            match result {
                Ok(out) if agrees(&oracle, &out) => {
                    return Ok(SupervisedOutcome {
                        outcome: out,
                        attempts: attempt + 1,
                        recovered,
                        postmortems,
                    });
                }
                Ok(out) => {
                    // The recorded outcomes behind any checkpoint of
                    // this run are suspect too — never resume from
                    // them.
                    full_restart_only = true;
                    let err = EvalError::ScrutineeMismatch(
                        "supervised replay",
                        format!(
                            "attempt {attempt} diverged from the lockstep oracle: \
                             got {} in {} superstep(s), expected {} in {}",
                            out.value, out.supersteps, oracle.value, oracle.cost.supersteps
                        ),
                    );
                    // A silent corruption deserves a black box as much
                    // as a loud crash does.
                    postmortems.extend(self.write_postmortem(fingerprint, attempt, &err, flight));
                    recovered.push(err);
                }
                Err(err) => {
                    postmortems.extend(self.write_postmortem(fingerprint, attempt, &err, flight));
                    if resumed || matches!(err, EvalError::CheckpointDiverged { .. }) {
                        // A resumed attempt can only fail through a
                        // fresh fault or a *poisoned record* — a fault
                        // (e.g. a dropped message) whose effect was
                        // recorded into the outcome log before the cut
                        // committed and is now faithfully replayed on
                        // every resume. Integrity checks can't catch a
                        // consistently-recorded wrong history, so stop
                        // trusting the store: by determinism a full
                        // restart converges in either case.
                        full_restart_only = true;
                    }
                    recovered.push(err);
                }
            }
        }
        Err(recovered.last().cloned().expect("at least one attempt ran"))
    }

    /// Writes one failed attempt's flight log as a postmortem bundle
    /// (no-op without a configured directory or an enabled recorder).
    /// Best-effort on purpose: a failing run must never be turned
    /// into a panicking one by its own black box, so every i/o error
    /// here is swallowed into a counter.
    fn write_postmortem(
        &self,
        fingerprint: u64,
        attempt: u32,
        err: &EvalError,
        flight: Option<FlightLog>,
    ) -> Option<PathBuf> {
        let dir = self.postmortem_dir.as_ref()?;
        let log = flight?;
        let (error_rank, error_superstep) = error_coordinate(err);
        let bundle = PostmortemBundle::new(
            self.machine.p(),
            attempt,
            err.to_string(),
            error_rank,
            error_superstep,
            log,
        );
        let path = dir.join(format!(
            "pm-{fingerprint:016x}-p{}-attempt{attempt}.bsmlpm",
            self.machine.p()
        ));
        let written = std::fs::create_dir_all(dir).is_ok() && bundle.write_to(&path).is_ok();
        if written {
            self.telemetry.counter_add("bsp.postmortems_written", 1);
            Some(path)
        } else {
            self.telemetry.counter_add("bsp.postmortem_write_errors", 1);
            None
        }
    }

    /// Walks the store's generations newest-first and returns the
    /// first one that passes integrity + consistency verification.
    /// Uncommitted or foreign (other program / other `p`) generations
    /// are skipped silently; anything else that fails to load is
    /// *corruption* and is counted before falling through to the
    /// next-older generation.
    fn latest_valid_checkpoint(&self, fingerprint: u64) -> Option<ResumePoint> {
        let (_, store) = self.machine.checkpoints()?;
        let p = self.machine.p();
        let mut generations = store.generations();
        generations.sort_unstable();
        for generation in generations.into_iter().rev() {
            match store.load(generation, p, fingerprint) {
                Ok(frames) => {
                    return Some(ResumePoint {
                        superstep: generation,
                        frames,
                    })
                }
                Err(
                    CheckpointError::NotCommitted { .. }
                    | CheckpointError::FingerprintMismatch { .. },
                ) => {}
                Err(_) => {
                    self.telemetry.counter_add("bsp.checkpoints_corrupt", 1);
                }
            }
        }
        None
    }
}

/// Whether a distributed outcome reproduces the lockstep oracle:
/// same value, same superstep count, same total communication volume
/// (the h-relations, summed — the per-superstep split is already
/// identical by construction when these totals and the superstep
/// count agree on a deterministic program).
fn agrees(oracle: &crate::machine::RunReport, out: &DistOutcome) -> bool {
    let oracle_words: u64 = oracle
        .trace
        .iter()
        .map(|r| r.sent.iter().sum::<u64>())
        .sum();
    oracle.value.to_string() == out.value.to_string()
        && oracle.cost.supersteps == out.supersteps
        && oracle_words == out.total_words_sent
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{CheckpointPolicy, MemoryStore};
    use crate::faults::FaultPlan;
    use bsml_syntax::parse;

    const PUT: &str = "let r = put (mkpar (fun j -> fun i -> j + i)) in
                       apply (mkpar (fun i -> fun t -> t i), r)";

    // Three put barriers: chained total exchanges, each round
    // re-exchanging the previous round's per-rank sums.
    const EXCHANGE_3: &str = "
        let sum = mkpar (fun i -> fun t ->
            let acc = ref 0 in
            (for j = 0 to bsp_p () - 1 do acc := !acc + t j done);
            !acc) in
        let next = fun v -> put (apply (mkpar (fun j -> fun v -> fun i -> v + j + 1), v)) in
        let v1 = apply (sum, put (mkpar (fun j -> fun i -> j + i + 1))) in
        let v2 = apply (sum, next v1) in
        apply (sum, next v2)";

    fn supervisor(machine: DistMachine) -> Supervisor {
        Supervisor::new(machine).with_backoff(Duration::ZERO)
    }

    #[test]
    fn clean_runs_succeed_first_try() {
        let e = parse(PUT).unwrap();
        let out = supervisor(DistMachine::new(4)).run(&e).unwrap();
        assert_eq!(out.attempts, 1);
        assert!(out.recovered.is_empty());
        assert_eq!(out.outcome.value.to_string(), "<|0, 2, 4, 6|>");
        assert_eq!(out.outcome.resumed_from, None);
    }

    #[test]
    fn crash_is_recovered_by_replay() {
        let e = parse(PUT).unwrap();
        let machine = DistMachine::new(4).with_faults(FaultPlan::new().crash(3, 0));
        let out = supervisor(machine).run(&e).unwrap();
        assert_eq!(out.attempts, 2);
        assert_eq!(
            out.recovered,
            vec![EvalError::InjectedFault {
                rank: 3,
                superstep: 0
            }]
        );
        assert_eq!(out.outcome.value.to_string(), "<|0, 2, 4, 6|>");
    }

    #[test]
    fn crash_is_recovered_by_checkpoint_resume() {
        let e = parse(EXCHANGE_3).unwrap();
        let store = Arc::new(MemoryStore::new());
        let tel = Telemetry::enabled_logical();
        // Crash at superstep 2: supersteps 0 and 1 are checkpointed
        // (k = 1), so the retry resumes from generation 2 and replays
        // nothing.
        let machine = DistMachine::new(4)
            .with_faults(FaultPlan::new().crash(2, 2))
            .with_checkpoints(CheckpointPolicy::every(1), store);
        let out = supervisor(machine)
            .with_telemetry(tel.clone())
            .run(&e)
            .unwrap();
        assert_eq!(out.attempts, 2);
        assert_eq!(out.outcome.resumed_from, Some(2));
        assert_eq!(tel.counter_value("bsp.resumes"), 1);
        assert_eq!(tel.counter_value("bsp.supersteps_replayed"), 0);
        assert!(tel.counter_value("bsp.checkpoints_written") >= 2);
        assert_eq!(tel.counter_value("bsp.checkpoints_corrupt"), 0);
        // The resumed value matches the oracle (checked inside run).
        assert_eq!(out.outcome.supersteps, 3);
    }

    #[test]
    fn dropped_message_is_caught_by_the_oracle() {
        // Each rank reads its right neighbour's message; dropping
        // 1 → 0 silently corrupts rank 0's value. No error is raised —
        // only the oracle cross-check notices, and the retry repairs.
        let e = parse(
            "let r = put (mkpar (fun j -> fun i -> j * 10 + i)) in
             apply (mkpar (fun i -> fun t -> t ((i + 1) mod (bsp_p ()))), r)",
        )
        .unwrap();
        let machine = DistMachine::new(4).with_faults(FaultPlan::new().drop_message(1, 0, 0));
        let out = supervisor(machine).run(&e).unwrap();
        assert_eq!(out.attempts, 2);
        assert!(matches!(
            out.recovered[0],
            EvalError::ScrutineeMismatch("supervised replay", _)
        ));
        assert_eq!(out.outcome.value.to_string(), "<|10, 21, 32, 3|>");
    }

    #[test]
    fn oracle_divergence_demotes_to_full_restart() {
        // Same dropped message, but with checkpointing on: the store
        // now holds outcomes recorded from the corrupted attempt. The
        // retry must NOT resume from them.
        let e = parse(
            "let r = put (mkpar (fun j -> fun i -> j * 10 + i)) in
             apply (mkpar (fun i -> fun t -> t ((i + 1) mod (bsp_p ()))), r)",
        )
        .unwrap();
        let store = Arc::new(MemoryStore::new());
        let machine = DistMachine::new(4)
            .with_faults(FaultPlan::new().drop_message(1, 0, 0))
            .with_checkpoints(CheckpointPolicy::every(1), store);
        let out = supervisor(machine).run(&e).unwrap();
        assert_eq!(out.attempts, 2);
        assert_eq!(out.outcome.resumed_from, None);
        assert_eq!(out.outcome.value.to_string(), "<|10, 21, 32, 3|>");
    }

    #[test]
    fn attempts_exhaust_on_persistent_faults() {
        let e = parse(PUT).unwrap();
        // Crash armed on every attempt the supervisor will make.
        let plan = FaultPlan::new()
            .crash(0, 0)
            .crash(0, 0)
            .on_attempt(1)
            .crash(0, 0)
            .on_attempt(2);
        let machine = DistMachine::new(2).with_faults(plan);
        let err = supervisor(machine).run(&e).unwrap_err();
        assert_eq!(
            err,
            EvalError::InjectedFault {
                rank: 0,
                superstep: 0
            }
        );
    }

    #[test]
    fn deterministic_program_errors_are_not_retried() {
        let e = parse("1 / 0").unwrap();
        let tel = Telemetry::enabled_logical();
        let err = supervisor(DistMachine::new(2))
            .with_telemetry(tel.clone())
            .run(&e)
            .unwrap_err();
        assert_eq!(err, EvalError::DivisionByZero);
        // No distributed attempt, hence no retries.
        assert_eq!(tel.counter_value("bsp.retries"), 0);
    }

    #[test]
    fn retries_are_counted() {
        let e = parse(PUT).unwrap();
        let tel = Telemetry::enabled_logical();
        let machine = DistMachine::new(2).with_faults(FaultPlan::new().crash(1, 0));
        let out = supervisor(machine)
            .with_telemetry(tel.clone())
            .run(&e)
            .unwrap();
        assert_eq!(out.attempts, 2);
        assert_eq!(tel.counter_value("bsp.retries"), 1);
        assert_eq!(tel.counter_value("bsp.faults_injected"), 1);
    }

    #[test]
    fn backoff_schedule_is_exact_and_jittered() {
        let e = parse(PUT).unwrap();
        // Crash every attempt so all MAX_ATTEMPTS run (and sleep).
        let plan = FaultPlan::new()
            .crash(0, 0)
            .crash(0, 0)
            .on_attempt(1)
            .crash(0, 0)
            .on_attempt(2);
        let machine = DistMachine::new(2).with_faults(plan);
        let sleeper = Arc::new(RecordingSleeper::new());
        let base = Duration::from_millis(10);
        let seed = program_fingerprint(&e, 2);
        let err = Supervisor::new(machine)
            .with_backoff(base)
            .with_sleeper(Arc::<RecordingSleeper>::clone(&sleeper))
            .run(&e)
            .unwrap_err();
        assert!(matches!(err, EvalError::InjectedFault { .. }));
        let slept = sleeper.slept();
        // Retries 1 and 2 sleep exactly the schedule jittered by the
        // program's fingerprint — and no wall-clock time passed,
        // because the sleeper only records.
        assert_eq!(
            slept,
            vec![backoff_delay(base, 1, seed), backoff_delay(base, 2, seed)]
        );
        // Each delay is within ±20% of its nominal 10ms·2^(k-1).
        for (k, d) in slept.iter().enumerate() {
            let nominal = base.saturating_mul(2u32.pow(k as u32));
            assert!(*d >= nominal.mul_f64(0.8), "retry {k}: {d:?} too short");
            assert!(*d <= nominal.mul_f64(1.2), "retry {k}: {d:?} too long");
        }
    }

    #[test]
    fn backoff_delay_is_deterministic_per_seed() {
        let base = Duration::from_millis(20);
        assert_eq!(backoff_delay(base, 2, 7), backoff_delay(base, 2, 7));
        // Different seeds give different jitter (with overwhelming
        // probability for these particular constants — pinned here).
        assert_ne!(backoff_delay(base, 2, 7), backoff_delay(base, 2, 8));
        // Zero base stays zero regardless of jitter.
        assert_eq!(backoff_delay(Duration::ZERO, 3, 9), Duration::ZERO);
    }
}
