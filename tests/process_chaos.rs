//! Process chaos suite: the chaos and checkpoint grids of
//! `tests/chaos.rs`, re-run with every rank in its own OS process over
//! a Unix-domain socket ([`Execution::Processes`]) — plus the faults
//! only real processes can have: a rank SIGKILLed at an arbitrary
//! (rank, superstep) coordinate must be respawned and resumed from the
//! newest committed checkpoint with exactly `s mod k` supersteps
//! replayed, and a rank that never connects must surface as a
//! handshake timeout, never a hang.
//!
//! Rank processes run with telemetry disabled; their counters still
//! reconcile, because they ship home in the `Done`/`Fatal` control
//! frames.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bsml_bsp::checkpoint::{CheckpointPolicy, MemoryStore};
use bsml_bsp::distributed::DistMachine;
use bsml_bsp::faults::{FaultKind, FaultPlan};
use bsml_bsp::supervisor::Supervisor;
use bsml_bsp::{BspMachine, BspParams, Execution, KillSpec, PostmortemBundle, ProcessConfig};
use bsml_eval::EvalError;
use bsml_obs::{FlightEvent, Telemetry};
use bsml_syntax::parse;

/// One superstep: total exchange, each rank sums all p incoming
/// messages (see `tests/chaos.rs` for why drops cannot hide).
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

/// Five supersteps: chained total exchanges (the checkpoint grid's
/// program — long enough for mid-interval and exact-multiple kills).
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

const PROGRAMS: &[(&str, u64)] = &[(EXCHANGE_1, 1), (EXCHANGE_2, 2)];

const SEEDS_PER_BASE: u64 = 8;

fn seed_base() -> u64 {
    std::env::var("CHAOS_SEED_BASE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn checkpoint_intervals() -> Vec<u64> {
    match std::env::var("CHAOS_CHECKPOINT_INTERVAL")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        Some(k) => vec![k],
        None => vec![1, 2, 4],
    }
}

fn oracle(e: &bsml_ast::Expr, p: usize) -> (String, u64) {
    let report = BspMachine::new(BspParams::new(p, 1, 1)).run(e).unwrap();
    (report.value.to_string(), report.cost.supersteps)
}

/// The rank-runner Cargo built alongside this test binary.
fn rank_binary() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_bsml-rank"))
}

fn process_config() -> ProcessConfig {
    ProcessConfig {
        rank_binary: Some(rank_binary()),
        ..ProcessConfig::default()
    }
}

fn process_machine(p: usize) -> DistMachine {
    DistMachine::new(p).with_execution(Execution::Processes(process_config()))
}

/// A fresh scratch directory (mirrors `tests/checkpoint.rs`).
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "bsml-process-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

// --- baseline: sockets must change nothing about a clean run ----------

#[test]
fn socket_runs_match_the_lockstep_oracle_and_the_thread_backend() {
    for &(source, _) in PROGRAMS {
        let e = parse(source).unwrap();
        for p in [2usize, 4] {
            let (expected_value, expected_supersteps) = oracle(&e, p);
            let thread_tel = Telemetry::enabled_logical();
            let threads = DistMachine::new(p)
                .with_telemetry(thread_tel.clone())
                .run(&e)
                .unwrap();
            let proc_tel = Telemetry::enabled_logical();
            let procs = process_machine(p)
                .with_telemetry(proc_tel.clone())
                .run(&e)
                .unwrap_or_else(|err| panic!("p={p}: {err}"));
            assert_eq!(procs.value.to_string(), expected_value, "p={p}");
            assert_eq!(procs.supersteps, expected_supersteps, "p={p}");
            // The backends must agree on the *accounting*, not just
            // the answer — same exchanges, same volumes, same work.
            assert_eq!(procs.total_words_sent, threads.total_words_sent, "p={p}");
            assert_eq!(procs.supersteps, threads.supersteps, "p={p}");
            assert_eq!(procs.work, threads.work, "p={p}");
            // Exactly the h-relation's data frames: one per ordered
            // pair of ranks per superstep, on both backends.
            let frames = (p * (p - 1)) as u64 * expected_supersteps;
            assert_eq!(thread_tel.counter_value("net.frames_sent"), frames, "p={p}");
            assert_eq!(proc_tel.counter_value("net.frames_sent"), frames, "p={p}");
        }
    }
}

// --- the chaos grid, unchanged, over the socket transport -------------

/// One chaos-grid cell over sockets: identical to
/// `tests/chaos.rs::chaos_cell`.
fn chaos_cell(source: &str, supersteps: u64, p: usize, seed: u64) {
    let e = parse(source).unwrap();
    let (expected_value, expected_supersteps) = oracle(&e, p);
    assert_eq!(expected_supersteps, supersteps, "grid metadata is stale");

    let plan = FaultPlan::chaos(seed, p, supersteps);
    let fault = plan.faults()[0].kind.clone();
    let tel = Telemetry::enabled_logical();
    let machine = process_machine(p)
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
    if out.attempts == 1 {
        assert_eq!(
            tel.counter_value("net.frames_sent"),
            (p * (p - 1)) as u64 * supersteps,
            "{ctx}"
        );
    }
}

#[test]
fn supervised_chaos_grid_converges_over_sockets() {
    let base = seed_base() * SEEDS_PER_BASE;
    for &(source, supersteps) in PROGRAMS {
        for p in [2, 4] {
            for seed in base..base + SEEDS_PER_BASE {
                chaos_cell(source, supersteps, p, seed);
            }
        }
    }
}

// --- the process-only fault: SIGKILL ----------------------------------

/// One cell of the kill grid: SIGKILL rank `rank` as it enters
/// superstep `s` under checkpoint interval `k`, and verify the exact
/// recovery accounting the in-process checkpoint grid verifies:
/// resume from `c = ⌊s/k⌋·k`, replay exactly `s mod k` supersteps,
/// commit each generation exactly once across both attempts, and land
/// on the lockstep oracle's exact value.
fn kill_cell(e: &bsml_ast::Expr, p: usize, rank: usize, s: u64, k: u64) {
    let ctx = format!("p={p} kill=({rank},{s}) k={k}");
    let (expected_value, expected_supersteps) = oracle(e, p);
    let store = Arc::new(MemoryStore::new());
    let tel = Telemetry::enabled_logical();
    let mut cfg = process_config();
    cfg.kills.push(KillSpec {
        rank,
        superstep: s,
        attempt: 0,
    });
    let machine = DistMachine::new(p)
        .with_execution(Execution::Processes(cfg))
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

    // The death was detected AT its coordinate: the killed rank had
    // completed exactly `s` supersteps.
    match &out.recovered[0] {
        EvalError::TransportFailure {
            rank: dead,
            superstep,
            detail,
        } => {
            assert_eq!(*dead, rank, "{ctx}");
            assert_eq!(*superstep, s, "{ctx}");
            assert!(
                detail.contains("signal: 9"),
                "{ctx}: death note must carry the reaped status, got {detail:?}"
            );
        }
        other => panic!("{ctx}: expected a TransportFailure, got {other:?}"),
    }

    let committed = (s / k) * k;
    assert_eq!(
        out.outcome.resumed_from,
        (committed > 0).then_some(committed),
        "{ctx}"
    );
    assert_eq!(
        tel.counter_value("bsp.supersteps_replayed"),
        s - committed,
        "{ctx}: replay debt must be exactly s mod k"
    );
    assert_eq!(
        tel.counter_value("bsp.checkpoints_written"),
        EXCHANGE_5_SUPERSTEPS / k,
        "{ctx}: both attempts together commit each generation once"
    );
}

#[test]
fn sigkilled_ranks_resume_from_the_newest_committed_checkpoint() {
    let e = parse(EXCHANGE_5).unwrap();
    // Full (rank, superstep) sweep at p = 2 for every interval…
    for k in checkpoint_intervals() {
        for rank in 0..2 {
            for s in 0..EXCHANGE_5_SUPERSTEPS {
                kill_cell(&e, 2, rank, s, k);
            }
        }
    }
    // …and a diagonal at p = 4 so wider fleets are exercised too.
    for s in 0..EXCHANGE_5_SUPERSTEPS {
        kill_cell(&e, 4, (s as usize) % 4, s, 2);
    }
}

#[test]
fn a_kill_without_checkpoints_restarts_from_scratch() {
    let e = parse(EXCHANGE_2).unwrap();
    let (expected_value, _) = oracle(&e, 2);
    let mut cfg = process_config();
    cfg.kills.push(KillSpec {
        rank: 1,
        superstep: 1,
        attempt: 0,
    });
    let machine = DistMachine::new(2)
        .with_execution(Execution::Processes(cfg))
        .with_barrier_timeout(Duration::from_secs(10));
    let out = Supervisor::new(machine)
        .with_backoff(Duration::ZERO)
        .run(&e)
        .unwrap();
    assert_eq!(out.attempts, 2);
    assert_eq!(out.outcome.resumed_from, None);
    assert_eq!(out.outcome.value.to_string(), expected_value);
}

// --- handshake robustness ---------------------------------------------

#[test]
fn a_never_connecting_rank_fails_with_a_timeout_not_a_hang() {
    // A "rank binary" that never dials home.
    let dir = temp_dir("noconnect");
    let script = dir.join("sleeper.sh");
    std::fs::write(&script, "#!/bin/sh\nsleep 30\n").unwrap();
    #[cfg(unix)]
    {
        use std::os::unix::fs::PermissionsExt;
        std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755)).unwrap();
    }

    let e = parse(EXCHANGE_1).unwrap();
    let cfg = ProcessConfig {
        rank_binary: Some(script),
        handshake_timeout: Some(Duration::from_millis(300)),
        ..ProcessConfig::default()
    };
    let machine = DistMachine::new(2).with_execution(Execution::Processes(cfg));
    let started = Instant::now();
    let err = machine.run(&e).expect_err("no rank ever connects");
    let elapsed = started.elapsed();
    match &err {
        EvalError::TransportFailure {
            superstep, detail, ..
        } => {
            assert_eq!(*superstep, 0);
            assert!(
                detail.contains("handshake timeout"),
                "unexpected detail: {detail:?}"
            );
        }
        other => panic!("expected a TransportFailure, got {other:?}"),
    }
    assert!(
        elapsed < Duration::from_secs(10),
        "timeout took {elapsed:?} — the deadline did not bind"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_wrong_fingerprint_is_rejected_at_the_handshake() {
    // Point the launcher at the genuine rank binary but poison the
    // fingerprint the child will present by running a *different*
    // program than the child was told: simplest is a custom binary
    // env — instead, spawn the real binary against a program whose
    // fingerprint the child recomputes and rejects. The cheap,
    // deterministic route: a child whose BSML_RANK_FINGERPRINT
    // disagrees with the parent's program. The launcher always passes
    // its own fingerprint, so disagreement cannot be staged from the
    // public API — what CAN be staged is a stale rank binary speaking
    // for a different program via a wrapper that overrides the env.
    let dir = temp_dir("wrongfp");
    let wrapper = dir.join("stale-rank.sh");
    std::fs::write(
        &wrapper,
        format!(
            "#!/bin/sh\nBSML_RANK_FINGERPRINT=12345 exec {} \"$@\"\n",
            rank_binary().display()
        ),
    )
    .unwrap();
    #[cfg(unix)]
    {
        use std::os::unix::fs::PermissionsExt;
        std::fs::set_permissions(&wrapper, std::fs::Permissions::from_mode(0o755)).unwrap();
    }

    let e = parse(EXCHANGE_1).unwrap();
    let cfg = ProcessConfig {
        rank_binary: Some(wrapper),
        handshake_timeout: Some(Duration::from_secs(5)),
        ..ProcessConfig::default()
    };
    let machine = DistMachine::new(2).with_execution(Execution::Processes(cfg));
    let err = machine.run(&e).expect_err("fingerprint must not match");
    match &err {
        EvalError::TransportFailure { detail, .. } => assert!(
            detail.contains("fingerprint"),
            "unexpected detail: {detail:?}"
        ),
        other => panic!("expected a TransportFailure, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// --- postmortems survive the unsurvivable -----------------------------

#[test]
fn a_sigkilled_rank_still_leaves_an_analyzable_postmortem_bundle() {
    let pm_dir = temp_dir("killed-pm");
    let e = parse(EXCHANGE_5).unwrap();
    let (expected_value, _) = oracle(&e, 2);
    let mut cfg = process_config();
    cfg.postmortem_dir = Some(pm_dir.clone());
    // Entering superstep 1 is the hardest coordinate for the black
    // box: only the pre-wait flush (taken just before it blocked in
    // the count round the parent withholds) can put the close of
    // superstep 0 on disk.
    cfg.kills.push(KillSpec {
        rank: 1,
        superstep: 1,
        attempt: 0,
    });
    let store = Arc::new(MemoryStore::new());
    let machine = DistMachine::new(2)
        .with_execution(Execution::Processes(cfg))
        .with_flight_recorder(256)
        .with_barrier_timeout(Duration::from_secs(10))
        .with_checkpoints(CheckpointPolicy::every(2), store);
    let out = Supervisor::new(machine)
        .with_backoff(Duration::ZERO)
        .run(&e)
        .unwrap();
    assert_eq!(out.attempts, 2);
    assert_eq!(out.outcome.value.to_string(), expected_value);

    // The killed rank's first-attempt bundle is on disk — written by
    // the rank process itself at each barrier, so the SIGKILL could
    // not take it down with the process.
    let bundle_path = std::fs::read_dir(&pm_dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .find(|path| {
            let name = path.file_name().unwrap_or_default().to_string_lossy();
            name.starts_with("pm-rank1-") && name.ends_with("-attempt0.bsmlpm")
        })
        .unwrap_or_else(|| panic!("no first-attempt bundle for rank 1 in {}", pm_dir.display()));
    let bundle = PostmortemBundle::load(&bundle_path).unwrap();
    let _analysis = bundle.analyze();
    assert_eq!(bundle.attempt, 0);
    assert_eq!(bundle.ranks.len(), 1);
    let rank_log = &bundle.ranks[0];
    assert_eq!(rank_log.rank, 1);
    assert!(
        !rank_log.events.is_empty(),
        "the rank ran a full superstep before dying — its black box must not be empty"
    );
    // The bundle ends exactly where the rank died: blocked in the
    // count round that closes superstep 0, waiting for `RecvCounts`
    // that never came.
    assert!(
        matches!(
            rank_log.events.last().map(|t| &t.event),
            Some(FlightEvent::BarrierEnter { superstep: 0 })
        ),
        "last event must be the fatal barrier entry, got {:?}",
        rank_log.events.last()
    );
    let _ = std::fs::remove_dir_all(&pm_dir);
}
