//! Link-partition chaos suite (DESIGN.md §16): the coordinator↔rank
//! control sockets are deliberately severed — half-open drops, hard
//! resets, silent freezes, and reconnect flaps — at exact
//! (rank, superstep) coordinates, over both the Unix-domain and TCP
//! transports, while the rank *processes* stay alive.
//!
//! The property under test is the cheapest rung of the supervision
//! ladder: a transient link fault must heal by *rejoin* — the rank
//! reconnects within the grace window and both sides replay their
//! bounded egress buffers — with **zero** fleet respawns and **zero**
//! supersteps replayed from checkpoint, and the accounting must be
//! exact: one rejoin, one replayed frame (the `RecvCounts` that landed
//! on the dead socket). Faults that exhaust the rejoin budget
//! (flap storms) or race a SIGKILL must demote cleanly to the next
//! rung, respawn-from-checkpoint, never hang.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use bsml_bsp::checkpoint::{CheckpointPolicy, MemoryStore};
use bsml_bsp::distributed::DistMachine;
use bsml_bsp::faults::{LinkFault, LinkFaultKind};
use bsml_bsp::supervisor::Supervisor;
use bsml_bsp::{Bind, BspMachine, BspParams, Execution, KillSpec, ProcessConfig};
use bsml_eval::EvalError;
use bsml_obs::Telemetry;
use bsml_syntax::parse;

/// `CHAOS_SEED_BASE` (the CI matrix axis) perturbs the exchanged data:
/// every seed is a different program, but the lockstep oracle runs the
/// same program, so every assertion stays exact.
fn seed_base() -> u64 {
    std::env::var("CHAOS_SEED_BASE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Two supersteps of total exchange (see `tests/chaos.rs` for why
/// drops cannot hide from the re-exchanged sums).
fn exchange_2() -> String {
    let off = 1 + seed_base();
    format!(
        "
    let r1 = put (mkpar (fun j -> fun i -> j + i + {off})) in
    let v1 = apply (mkpar (fun i -> fun t ->
               let acc = ref 0 in
               (for j = 0 to bsp_p () - 1 do acc := !acc + t j done);
               !acc),
             r1) in
    let r2 = put (apply (mkpar (fun j -> fun v -> fun i -> v + j + {off}), v1)) in
    apply (mkpar (fun i -> fun t ->
             let acc = ref 0 in
             (for j = 0 to bsp_p () - 1 do acc := !acc + t j done);
             !acc),
           r2)"
    )
}

/// Five supersteps: chained total exchanges, long enough to put a
/// committed checkpoint *behind* the fault coordinate.
fn exchange_5() -> String {
    let off = 1 + seed_base();
    format!(
        "
    let sum = mkpar (fun i -> fun t ->
        let acc = ref 0 in
        (for j = 0 to bsp_p () - 1 do acc := !acc + t j done);
        !acc) in
    let next = fun v -> put (apply (mkpar (fun j -> fun v -> fun i -> v + j + {off}), v)) in
    let v1 = apply (sum, put (mkpar (fun j -> fun i -> j + i + {off}))) in
    let v2 = apply (sum, next v1) in
    let v3 = apply (sum, next v2) in
    let v4 = apply (sum, next v3) in
    apply (sum, next v4)"
    )
}

/// The fault kinds of the heal grid. `Flap(2)` is the bounded flap: the
/// first rejoin is accepted then severed, the second heals.
const KINDS: &[LinkFaultKind] = &[
    LinkFaultKind::Drop,
    LinkFaultKind::Freeze,
    LinkFaultKind::Reset,
    LinkFaultKind::Flap(2),
];

fn kinds() -> Vec<LinkFaultKind> {
    match std::env::var("CHAOS_LINK_KIND").ok().as_deref() {
        Some("drop") => vec![LinkFaultKind::Drop],
        Some("freeze") => vec![LinkFaultKind::Freeze],
        Some("reset") => vec![LinkFaultKind::Reset],
        Some("flap") => vec![LinkFaultKind::Flap(2)],
        _ => KINDS.to_vec(),
    }
}

/// Both coordinator transports. `None` = the default Unix-domain
/// socket; `Some` = TCP loopback on an OS-assigned port.
fn binds() -> Vec<Option<Bind>> {
    match std::env::var("CHAOS_TRANSPORT").ok().as_deref() {
        Some("unix") => vec![None],
        Some("tcp") => vec![Some(Bind::Tcp("127.0.0.1:0".into()))],
        _ => vec![None, Some(Bind::Tcp("127.0.0.1:0".into()))],
    }
}

fn oracle(e: &bsml_ast::Expr, p: usize) -> (String, u64) {
    let report = BspMachine::new(BspParams::new(p, 1, 1)).run(e).unwrap();
    (report.value.to_string(), report.cost.supersteps)
}

fn rank_binary() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_bsml-rank"))
}

/// A supervised-link config: fast heartbeats so silence (the `Freeze`
/// fault) is noticed in test time, a grace window comfortably wider
/// than a reconnect.
fn link_config(bind: Option<Bind>) -> ProcessConfig {
    ProcessConfig {
        rank_binary: Some(rank_binary()),
        bind,
        heartbeat: Some(Duration::from_millis(50)),
        link_grace: Some(Duration::from_millis(1000)),
        ..ProcessConfig::default()
    }
}

// --- baseline: TCP must change nothing about a clean run --------------

#[test]
fn tcp_runs_match_the_lockstep_oracle_and_the_thread_backend() {
    let e = parse(&exchange_2()).unwrap();
    for p in [2usize, 4] {
        let (expected_value, expected_supersteps) = oracle(&e, p);
        let threads = DistMachine::new(p).run(&e).unwrap();
        let cfg = link_config(Some(Bind::Tcp("127.0.0.1:0".into())));
        let procs = DistMachine::new(p)
            .with_execution(Execution::Processes(cfg))
            .run(&e)
            .unwrap_or_else(|err| panic!("p={p}: {err}"));
        assert_eq!(procs.value.to_string(), expected_value, "p={p}");
        assert_eq!(procs.supersteps, expected_supersteps, "p={p}");
        assert_eq!(procs.total_words_sent, threads.total_words_sent, "p={p}");
        assert_eq!(procs.work, threads.work, "p={p}");
    }
}

// --- the heal grid: one transient fault, zero respawns ----------------

/// One cell: sever rank `rank`'s link as it enters superstep `s`, and
/// demand the cheapest rung of the ladder with *exact* accounting —
/// the supervisor sees no failure at all (one attempt, nothing
/// recovered, nothing resumed), the link healed by exactly one rejoin,
/// and exactly one frame (the `RecvCounts` that landed on the dead
/// socket) came back out of the egress buffer.
fn heal_cell(bind: Option<Bind>, kind: LinkFaultKind, rank: usize, s: u64) {
    let ctx = format!("bind={bind:?} kind={kind:?} fault=({rank},{s})");
    let e = parse(&exchange_2()).unwrap();
    let p = 2;
    let (expected_value, expected_supersteps) = oracle(&e, p);
    let tel = Telemetry::enabled_logical();
    let mut cfg = link_config(bind);
    cfg.link_faults.push(LinkFault {
        rank,
        superstep: s,
        kind,
        attempt: 0,
    });
    let machine = DistMachine::new(p)
        .with_execution(Execution::Processes(cfg))
        .with_barrier_timeout(Duration::from_secs(10));
    let out = Supervisor::new(machine)
        .with_backoff(Duration::ZERO)
        .with_telemetry(tel.clone())
        .run(&e)
        .unwrap_or_else(|err| panic!("{ctx}: {err}"));

    assert_eq!(out.outcome.value.to_string(), expected_value, "{ctx}");
    assert_eq!(out.outcome.supersteps, expected_supersteps, "{ctx}");
    // Zero fleet respawns, zero checkpoint resumes: the fault never
    // reached the supervisor.
    assert_eq!(
        out.attempts, 1,
        "{ctx}: a link fault must heal in-run (recovered: {:?})",
        out.recovered
    );
    assert!(out.recovered.is_empty(), "{ctx}");
    assert_eq!(out.outcome.resumed_from, None, "{ctx}");
    assert_eq!(tel.counter_value("bsp.supersteps_replayed"), 0, "{ctx}");
    assert_eq!(tel.counter_value("bsp.retries"), 0, "{ctx}");
    // Exactly one rejoin healed the link, and exactly one frame — the
    // withheld `RecvCounts` — was replayed from the egress buffer
    // (heartbeats bypass the buffer; peers were held in the count
    // round, so no deliveries could race into the replay window).
    assert_eq!(tel.counter_value("net.rejoins"), 1, "{ctx}");
    assert_eq!(tel.counter_value("net.egress_replayed"), 1, "{ctx}");
    assert!(
        tel.counter_value("net.link_state") >= 2,
        "{ctx}: the link must have left and re-entered Healthy"
    );
}

#[test]
fn a_single_transient_link_fault_heals_by_rejoin_with_exact_accounting() {
    for bind in binds() {
        for kind in kinds() {
            for rank in 0..2 {
                heal_cell(bind.clone(), kind, rank, 1);
            }
        }
    }
}

#[test]
fn a_link_severed_before_the_first_superstep_still_heals() {
    // Superstep 0: the sever lands right after the handshake, so the
    // egress buffer may be empty at rejoin time — the rejoin count is
    // still exact, the replay count merely bounded.
    for bind in binds() {
        let ctx = format!("bind={bind:?}");
        let e = parse(&exchange_2()).unwrap();
        let (expected_value, _) = oracle(&e, 2);
        let tel = Telemetry::enabled_logical();
        let mut cfg = link_config(bind);
        cfg.link_faults.push(LinkFault {
            rank: 0,
            superstep: 0,
            kind: LinkFaultKind::Reset,
            attempt: 0,
        });
        let machine = DistMachine::new(2)
            .with_execution(Execution::Processes(cfg))
            .with_barrier_timeout(Duration::from_secs(10));
        let out = Supervisor::new(machine)
            .with_backoff(Duration::ZERO)
            .with_telemetry(tel.clone())
            .run(&e)
            .unwrap_or_else(|err| panic!("{ctx}: {err}"));
        assert_eq!(out.outcome.value.to_string(), expected_value, "{ctx}");
        assert_eq!(out.attempts, 1, "{ctx}");
        assert_eq!(tel.counter_value("net.rejoins"), 1, "{ctx}");
        assert_eq!(tel.counter_value("bsp.supersteps_replayed"), 0, "{ctx}");
    }
}

// --- demotion: the ladder's next rung when rejoin cannot win ----------

#[test]
fn a_flap_storm_exhausts_the_rejoin_budget_and_demotes_to_checkpoint_respawn() {
    // A flap storm far wider than the budget: every accepted rejoin is
    // severed again, the parent runs out of patience, rejects, and the
    // rank dies — which must surface as the *second* rung (respawn
    // from the newest committed checkpoint), not a hang and not a
    // from-scratch restart.
    for bind in binds() {
        let ctx = format!("bind={bind:?}");
        let e = parse(&exchange_5()).unwrap();
        let (expected_value, expected_supersteps) = oracle(&e, 2);
        let store = Arc::new(MemoryStore::new());
        let tel = Telemetry::enabled_logical();
        let mut cfg = link_config(bind);
        cfg.rejoin_budget = Some(2);
        cfg.link_faults.push(LinkFault {
            rank: 1,
            superstep: 3,
            kind: LinkFaultKind::Flap(100),
            attempt: 0,
        });
        let machine = DistMachine::new(2)
            .with_execution(Execution::Processes(cfg))
            .with_barrier_timeout(Duration::from_secs(10))
            .with_checkpoints(CheckpointPolicy::every(2), store);
        let out = Supervisor::new(machine)
            .with_backoff(Duration::ZERO)
            .with_telemetry(tel.clone())
            .run(&e)
            .unwrap_or_else(|err| panic!("{ctx}: {err}"));

        assert_eq!(out.attempts, 2, "{ctx}: the storm must cost one respawn");
        assert!(
            matches!(
                out.recovered[0],
                EvalError::TransportFailure { rank: 1, .. }
            ),
            "{ctx}: expected rank 1's death, got {:?}",
            out.recovered[0]
        );
        assert_eq!(out.outcome.value.to_string(), expected_value, "{ctx}");
        assert_eq!(out.outcome.supersteps, expected_supersteps, "{ctx}");
        // Rung two, precisely: resume from the checkpoint at 2, replay
        // the one superstep between it and the fault coordinate.
        assert_eq!(out.outcome.resumed_from, Some(2), "{ctx}");
        assert_eq!(tel.counter_value("bsp.supersteps_replayed"), 1, "{ctx}");
        // No rejoin ever *completed* — every accepted reconnect was
        // part of the storm.
        assert_eq!(tel.counter_value("net.rejoins"), 0, "{ctx}");
    }
}

#[test]
fn a_kill_racing_the_rejoin_still_converges_via_respawn() {
    // The sever and the SIGKILL land on the same coordinate: the rank
    // is killed *while* the parent would be waiting for its rejoin.
    // The reader must notice the death (not wait out the full grace
    // twice), escalate, and the supervisor must finish the job from
    // the checkpoint.
    for bind in binds() {
        let ctx = format!("bind={bind:?}");
        let e = parse(&exchange_5()).unwrap();
        let (expected_value, _) = oracle(&e, 2);
        let store = Arc::new(MemoryStore::new());
        let tel = Telemetry::enabled_logical();
        let mut cfg = link_config(bind);
        cfg.link_faults.push(LinkFault {
            rank: 1,
            superstep: 2,
            kind: LinkFaultKind::Reset,
            attempt: 0,
        });
        cfg.kills.push(KillSpec {
            rank: 1,
            superstep: 2,
            attempt: 0,
        });
        let machine = DistMachine::new(2)
            .with_execution(Execution::Processes(cfg))
            .with_barrier_timeout(Duration::from_secs(10))
            .with_checkpoints(CheckpointPolicy::every(2), store);
        let out = Supervisor::new(machine)
            .with_backoff(Duration::ZERO)
            .with_telemetry(tel.clone())
            .run(&e)
            .unwrap_or_else(|err| panic!("{ctx}: {err}"));

        assert_eq!(out.attempts, 2, "{ctx}");
        assert!(
            matches!(
                out.recovered[0],
                EvalError::TransportFailure { rank: 1, .. }
            ),
            "{ctx}: expected rank 1's death, got {:?}",
            out.recovered[0]
        );
        assert_eq!(out.outcome.value.to_string(), expected_value, "{ctx}");
        assert_eq!(out.outcome.resumed_from, Some(2), "{ctx}");
        assert_eq!(tel.counter_value("net.rejoins"), 0, "{ctx}");
    }
}

// --- the existing kill grid, unchanged, over TCP ----------------------

#[test]
fn sigkilled_ranks_resume_from_checkpoints_over_tcp_too() {
    // A diagonal of the process-chaos kill grid, re-run with the
    // coordinator on TCP loopback: the transport must not change one
    // number of the recovery accounting.
    let e = parse(&exchange_5()).unwrap();
    let (expected_value, expected_supersteps) = oracle(&e, 2);
    let k = 2u64;
    for s in 0..5u64 {
        let ctx = format!("tcp kill=(1,{s}) k={k}");
        let store = Arc::new(MemoryStore::new());
        let tel = Telemetry::enabled_logical();
        let mut cfg = link_config(Some(Bind::Tcp("127.0.0.1:0".into())));
        cfg.kills.push(KillSpec {
            rank: 1,
            superstep: s,
            attempt: 0,
        });
        let machine = DistMachine::new(2)
            .with_execution(Execution::Processes(cfg))
            .with_barrier_timeout(Duration::from_secs(10))
            .with_checkpoints(CheckpointPolicy::every(k), store);
        let out = Supervisor::new(machine)
            .with_backoff(Duration::ZERO)
            .with_telemetry(tel.clone())
            .run(&e)
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
            tel.counter_value("bsp.supersteps_replayed"),
            s - committed,
            "{ctx}"
        );
    }
}

// --- stale-socket startup ---------------------------------------------

#[test]
fn a_stale_coordinator_socket_is_reclaimed_but_a_live_one_is_a_typed_error() {
    use std::os::unix::net::UnixListener;

    let dir = std::env::temp_dir().join(format!(
        "bsml-link-stale-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("coord.sock");

    // A stale socket file (its listener is gone): binding there must
    // quietly reclaim it.
    drop(UnixListener::bind(&path).unwrap());
    assert!(path.exists(), "the stale file survives its listener");
    let e = parse(&exchange_2()).unwrap();
    let (expected_value, _) = oracle(&e, 2);
    let cfg = ProcessConfig {
        rank_binary: Some(rank_binary()),
        bind: Some(Bind::Unix(path.clone())),
        ..ProcessConfig::default()
    };
    let out = DistMachine::new(2)
        .with_execution(Execution::Processes(cfg))
        .run(&e)
        .expect("a stale socket must be reclaimed");
    assert_eq!(out.value.to_string(), expected_value);

    // A *live* listener on the same path: a typed refusal, not a hang
    // and not an unlink of someone else's socket.
    let live = UnixListener::bind(&path).unwrap();
    let cfg = ProcessConfig {
        rank_binary: Some(rank_binary()),
        bind: Some(Bind::Unix(path.clone())),
        ..ProcessConfig::default()
    };
    let err = DistMachine::new(2)
        .with_execution(Execution::Processes(cfg))
        .run(&e)
        .expect_err("a live socket must be refused");
    let msg = err.to_string();
    assert!(msg.contains("in use"), "unexpected refusal: {msg}");
    drop(live);
    let _ = std::fs::remove_dir_all(&dir);
}
