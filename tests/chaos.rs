//! Chaos suite: seeded fault plans against the supervised distributed
//! backend. Every cell of the (program, p, seed) grid injects exactly
//! one fault ([`FaultPlan::chaos`] guarantees it is in range), runs
//! under the [`Supervisor`] watchdog, and must
//!
//! * converge to the lockstep [`BspMachine`] oracle (value, superstep
//!   count, communication volume),
//! * account for the fault in telemetry (`bsp.faults_injected == 1`),
//! * keep the retry bookkeeping consistent (`attempts − 1` failures
//!   recorded, `bsp.retries == attempts − 1`).
//!
//! Seeds can be shifted with `CHAOS_SEED_BASE=<n>` (the CI chaos job
//! runs several bases) without touching the source.

use std::sync::Arc;
use std::time::Duration;

use bsml_bsp::checkpoint::{CheckpointPolicy, MemoryStore};
use bsml_bsp::distributed::DistMachine;
use bsml_bsp::faults::{FaultKind, FaultPlan};
use bsml_bsp::supervisor::Supervisor;
use bsml_bsp::{BspMachine, BspParams};
use bsml_obs::Telemetry;
use bsml_syntax::parse;

/// One superstep: total exchange, each rank sums all p incoming
/// messages. Every message is ≥ 1, so dropping any one strictly
/// changes some rank's sum — no drop can hide from the oracle.
const EXCHANGE_1: &str = "
    let r = put (mkpar (fun j -> fun i -> j * 7 + i + 1)) in
    apply (mkpar (fun i -> fun t ->
             let acc = ref 0 in
             (for j = 0 to bsp_p () - 1 do acc := !acc + t j done);
             !acc),
           r)";

/// Two supersteps: the round-one sums are re-exchanged and re-summed.
const EXCHANGE_2: &str = "
    let r1 = put (mkpar (fun j -> fun i -> j + i + 1)) in
    let v1 = apply (mkpar (fun i -> fun t ->
               let acc = ref 0 in
               (for j = 0 to bsp_p () - 1 do acc := !acc + t j done);
               !acc),
             r1) in
    let r2 = put (apply (mkpar (fun j -> fun v -> fun i -> v + j + 1), v1)) in
    apply (mkpar (fun i -> fun t ->
             let acc = ref 0 in
             (for j = 0 to bsp_p () - 1 do acc := !acc + t j done);
             !acc),
           r2)";

/// (source, supersteps) — the superstep count parameterises
/// [`FaultPlan::chaos`] so every generated fault is reachable.
const PROGRAMS: &[(&str, u64)] = &[(EXCHANGE_1, 1), (EXCHANGE_2, 2)];

const SEEDS_PER_BASE: u64 = 8;

fn seed_base() -> u64 {
    std::env::var("CHAOS_SEED_BASE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn oracle(e: &bsml_ast::Expr, p: usize) -> (String, u64) {
    let report = BspMachine::new(BspParams::new(p, 1, 1)).run(e).unwrap();
    (report.value.to_string(), report.cost.supersteps)
}

/// Runs one grid cell and checks convergence + fault accounting.
fn chaos_cell(source: &str, supersteps: u64, p: usize, seed: u64) {
    let e = parse(source).unwrap();
    let (expected_value, expected_supersteps) = oracle(&e, p);
    assert_eq!(expected_supersteps, supersteps, "grid metadata is stale");

    let plan = FaultPlan::chaos(seed, p, supersteps);
    let fault = plan.faults()[0].kind.clone();
    let tel = Telemetry::enabled_logical();
    let machine = DistMachine::new(p)
        .with_faults(plan)
        .with_barrier_timeout(Duration::from_secs(10));
    let out = Supervisor::new(machine)
        .with_backoff(Duration::ZERO)
        .with_telemetry(tel.clone())
        .run(&e)
        .unwrap_or_else(|err| panic!("p={p} seed={seed} fault={fault:?}: {err}"));

    let ctx = format!("p={p} seed={seed} fault={fault:?}");
    assert_eq!(out.outcome.value.to_string(), expected_value, "{ctx}");
    assert_eq!(out.outcome.supersteps, expected_supersteps, "{ctx}");
    // Exactly the one planned fault fired, and every failed attempt
    // is accounted for: one recorded error and one counted retry per
    // extra attempt. (A stall injects without failing: attempts == 1.)
    assert_eq!(tel.counter_value("bsp.faults_injected"), 1, "{ctx}");
    assert_eq!(tel.counter_value("bsp.barrier_timeouts"), 0, "{ctx}");
    assert_eq!(out.recovered.len() as u32, out.attempts - 1, "{ctx}");
    assert_eq!(
        tel.counter_value("bsp.retries"),
        u64::from(out.attempts - 1),
        "{ctx}"
    );
    if matches!(fault, FaultKind::Stall { .. }) {
        assert_eq!(out.attempts, 1, "a 1–3 ms stall must not fail: {ctx}");
    }
    // A run that needed one attempt puts exactly the h-relation's data
    // frames on the wire: one per ordered pair of ranks per superstep.
    if out.attempts == 1 {
        assert_eq!(
            tel.counter_value("net.frames_sent"),
            (p * (p - 1)) as u64 * supersteps,
            "{ctx}"
        );
    }
}

#[test]
fn supervised_runs_converge_under_seeded_faults() {
    let base = seed_base() * SEEDS_PER_BASE;
    for &(source, supersteps) in PROGRAMS {
        for p in [2, 4] {
            for seed in base..base + SEEDS_PER_BASE {
                chaos_cell(source, supersteps, p, seed);
            }
        }
    }
}

#[test]
fn crashes_at_every_coordinate_never_deadlock() {
    // The acceptance bar: an injected crash at ANY (rank, superstep)
    // surfaces as an error and the supervised replay converges — no
    // hang, no poisoned leftover state.
    let e = parse(EXCHANGE_2).unwrap();
    let p = 4;
    let (expected_value, _) = oracle(&e, p);
    for rank in 0..p {
        for superstep in 0..2 {
            let machine = DistMachine::new(p)
                .with_faults(FaultPlan::new().crash(rank, superstep))
                .with_barrier_timeout(Duration::from_secs(10));
            let out = Supervisor::new(machine)
                .with_backoff(Duration::ZERO)
                .run(&e)
                .unwrap_or_else(|err| panic!("crash({rank}, {superstep}): {err}"));
            assert_eq!(out.attempts, 2, "crash({rank}, {superstep})");
            assert_eq!(out.outcome.value.to_string(), expected_value);
        }
    }
}

#[test]
fn watchdog_converts_stalls_into_timeouts_and_recovers() {
    // A stall much longer than the watchdog trips BarrierTimeout on
    // the first attempt; the retry runs clean. The counters must show
    // both the injected fault and the timeout.
    let e = parse(EXCHANGE_1).unwrap();
    let tel = Telemetry::enabled_logical();
    let machine = DistMachine::new(4)
        .with_faults(FaultPlan::new().stall(2, 0, Duration::from_millis(500)))
        .with_barrier_timeout(Duration::from_millis(60));
    let out = Supervisor::new(machine)
        .with_backoff(Duration::ZERO)
        .with_telemetry(tel.clone())
        .run(&e)
        .unwrap();
    assert_eq!(out.attempts, 2);
    assert!(
        out.recovered
            .iter()
            .any(|err| matches!(err, bsml_eval::EvalError::BarrierTimeout { .. })),
        "expected a BarrierTimeout, got {:?}",
        out.recovered
    );
    assert_eq!(tel.counter_value("bsp.faults_injected"), 1);
    assert!(tel.counter_value("bsp.barrier_timeouts") >= 1);
    assert_eq!(out.outcome.value.to_string(), oracle(&e, 4).0);
}

/// Five supersteps: chained total exchanges, each round re-exchanging
/// the previous round's per-rank sums. Long enough that every
/// checkpoint interval in the grid below has both exact-multiple and
/// mid-interval crash coordinates.
const EXCHANGE_5: &str = "
    let sum = mkpar (fun i -> fun t ->
        let acc = ref 0 in
        (for j = 0 to bsp_p () - 1 do acc := !acc + t j done);
        !acc) in
    let next = fun v -> put (apply (mkpar (fun j -> fun v -> fun i -> v + j + 1), v)) in
    let v1 = apply (sum, put (mkpar (fun j -> fun i -> j + i + 1))) in
    let v2 = apply (sum, next v1) in
    let v3 = apply (sum, next v2) in
    let v4 = apply (sum, next v3) in
    apply (sum, next v4)";

const EXCHANGE_5_SUPERSTEPS: u64 = 5;

/// Which checkpoint intervals to exercise. The CI chaos matrix runs
/// one interval per job via `CHAOS_CHECKPOINT_INTERVAL=<k>`; locally
/// (unset) the whole set runs.
fn checkpoint_intervals() -> Vec<u64> {
    match std::env::var("CHAOS_CHECKPOINT_INTERVAL")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        Some(k) => vec![k],
        None => vec![1, 2, 4],
    }
}

/// One cell of the checkpoint grid: crash rank `rank` at superstep
/// `s` under interval `k`, and verify the *exact* recovery
/// accounting, not just convergence:
///
/// * the resume point is the last committed generation
///   `c = ⌊s/k⌋·k` (consistent-cut commits happen only at superstep
///   exit barriers that are multiples of `k`),
/// * the replay debt is exactly `s − c = s mod k` supersteps — within
///   the acceptance bound of `k + (s mod k)`,
/// * across both attempts exactly `⌊S/k⌋` generations are committed
///   (the resumed attempt re-commits nothing below the cut),
/// * the recovered value and superstep count are bit-identical to the
///   unfaulted lockstep oracle (the supervisor's oracle check stays
///   on; this re-asserts it from the outside).
fn checkpoint_cell(e: &bsml_ast::Expr, p: usize, rank: usize, s: u64, k: u64) {
    let ctx = format!("p={p} crash=({rank},{s}) k={k}");
    let (expected_value, expected_supersteps) = oracle(e, p);
    let store = Arc::new(MemoryStore::new());
    let tel = Telemetry::enabled_logical();
    let machine = DistMachine::new(p)
        .with_faults(FaultPlan::new().crash(rank, s))
        .with_barrier_timeout(Duration::from_secs(10))
        .with_checkpoints(CheckpointPolicy::every(k), store);
    let out = Supervisor::new(machine)
        .with_backoff(Duration::ZERO)
        .with_telemetry(tel.clone())
        .run(e)
        .unwrap_or_else(|err| panic!("{ctx}: {err}"));

    assert_eq!(out.attempts, 2, "{ctx}");
    assert_eq!(out.outcome.value.to_string(), expected_value, "{ctx}");
    assert_eq!(out.outcome.supersteps, expected_supersteps, "{ctx}");

    let committed = (s / k) * k;
    assert_eq!(
        out.outcome.resumed_from,
        (committed > 0).then_some(committed),
        "{ctx}"
    );
    assert_eq!(
        tel.counter_value("bsp.resumes"),
        u64::from(committed > 0),
        "{ctx}"
    );
    assert_eq!(
        tel.counter_value("bsp.supersteps_replayed"),
        s - committed,
        "{ctx}: replay debt must be exactly s mod k"
    );
    assert!(
        tel.counter_value("bsp.supersteps_replayed") <= k + s % k,
        "{ctx}: acceptance bound k + (s mod k) violated"
    );
    assert_eq!(
        tel.counter_value("bsp.checkpoints_written"),
        EXCHANGE_5_SUPERSTEPS / k,
        "{ctx}: both attempts together commit each generation once"
    );
    assert_eq!(tel.counter_value("bsp.checkpoints_corrupt"), 0, "{ctx}");
    assert!(tel.counter_value("bsp.checkpoint_bytes") > 0, "{ctx}");
}

#[test]
fn checkpointed_crashes_replay_exactly_s_mod_k_supersteps() {
    let p = 4;
    let e = parse(EXCHANGE_5).unwrap();
    for k in checkpoint_intervals() {
        for rank in 0..p {
            for s in 0..EXCHANGE_5_SUPERSTEPS {
                checkpoint_cell(&e, p, rank, s, k);
            }
        }
    }
}

#[test]
fn checkpointing_composes_with_seeded_chaos() {
    // The original chaos property — converge under an arbitrary
    // seeded fault — must keep holding when checkpoint resume is on.
    let base = seed_base() * SEEDS_PER_BASE;
    let e = parse(EXCHANGE_2).unwrap();
    let (expected_value, _) = oracle(&e, 4);
    for k in checkpoint_intervals() {
        for seed in base..base + SEEDS_PER_BASE {
            let plan = FaultPlan::chaos(seed, 4, 2);
            let machine = DistMachine::new(4)
                .with_faults(plan)
                .with_barrier_timeout(Duration::from_secs(10))
                .with_checkpoints(CheckpointPolicy::every(k), Arc::new(MemoryStore::new()));
            let out = Supervisor::new(machine)
                .with_backoff(Duration::ZERO)
                .run(&e)
                .unwrap_or_else(|err| panic!("k={k} seed={seed}: {err}"));
            assert_eq!(
                out.outcome.value.to_string(),
                expected_value,
                "k={k} seed={seed}"
            );
        }
    }
}
