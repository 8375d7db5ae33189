//! Warm rank fleets (DESIGN.md §13): clones of one `ProcessConfig`
//! share the fleets they launch, so only the first run at a width —
//! and the first after a failure — spawns, handshakes and reaps rank
//! processes. `net.launches` counts the fleets each run launched.
//!
//! This is its own test binary, so the `/proc` check at the end of
//! each test sees only this suite's rank processes; the tests hold one
//! lock so that no other test's fleet is alive while one checks.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use bsml_bsp::faults::{LinkFault, LinkFaultKind};
use bsml_bsp::{
    Bind, BspMachine, BspParams, DistMachine, Execution, KillSpec, ProcessConfig, Supervisor,
};
use bsml_eval::EvalError;
use bsml_obs::Telemetry;
use bsml_syntax::parse;

/// Two supersteps of total exchange.
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

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn config() -> ProcessConfig {
    ProcessConfig {
        rank_binary: Some(PathBuf::from(env!("CARGO_BIN_EXE_bsml-rank"))),
        ..ProcessConfig::default()
    }
}

fn lockstep(src: &str, p: usize) -> String {
    let e = parse(src).unwrap();
    BspMachine::new(BspParams::new(p, 1, 1))
        .run(&e)
        .unwrap()
        .value
        .to_string()
}

/// Runs `src` at width `p` on a clone of `cfg` with fresh telemetry:
/// the value (or error) and the run's `net.launches`.
fn run(cfg: &ProcessConfig, src: &str, p: usize) -> (Result<String, EvalError>, u64) {
    let tel = Telemetry::enabled_logical();
    let out = DistMachine::new(p)
        .with_execution(Execution::Processes(cfg.clone()))
        .with_telemetry(tel.clone())
        .run(&parse(src).unwrap())
        .map(|o| o.value.to_string());
    (out, tel.counter_value("net.launches"))
}

/// The children of every thread of this process, zombies included.
fn children() -> Vec<String> {
    let mut pids = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").unwrap() {
        let path = task.unwrap().path().join("children");
        if let Ok(list) = std::fs::read_to_string(path) {
            pids.extend(list.split_whitespace().map(str::to_string));
        }
    }
    pids
}

fn assert_no_child_left() {
    assert_eq!(
        children(),
        Vec::<String>::new(),
        "rank processes outlived their fleets"
    );
}

#[test]
fn clones_of_one_config_launch_each_width_once() {
    let _serial = serial();
    let cfg = config();
    for (p, launches) in [(2, 1), (4, 1), (2, 0), (4, 0)] {
        let (out, launched) = run(&cfg, EXCHANGE_2, p);
        assert_eq!(out, Ok(lockstep(EXCHANGE_2, p)), "p={p}");
        assert_eq!(launched, launches, "p={p}: net.launches");
    }
    assert_eq!(children().len(), 6, "two idle fleets: 2 + 4 ranks");
    drop(cfg);
    assert_no_child_left();
}

#[test]
fn widths_sharing_an_explicit_bind_take_turns_at_the_address() {
    let _serial = serial();
    let dir = std::env::temp_dir().join(format!("bsml-warm-bind-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("coord.sock");
    let cfg = config().bind(Bind::Unix(path.clone()));
    // Each launch reaps the other width's idle fleet, which holds the
    // socket; a run at the width that is still idle launches nothing.
    for (p, launches) in [(2, 1), (4, 1), (4, 0), (2, 1)] {
        let (out, launched) = run(&cfg, EXCHANGE_2, p);
        assert_eq!(out, Ok(lockstep(EXCHANGE_2, p)), "p={p}");
        assert_eq!(launched, launches, "p={p}: net.launches");
    }
    drop(cfg);
    assert!(!path.exists(), "the last fleet's socket file is removed");
    assert_no_child_left();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_rank_that_reports_fatal_tears_its_fleet_down() {
    let _serial = serial();
    let cfg = config();
    let p = 2;
    let (out, launched) = run(&cfg, EXCHANGE_2, p);
    assert_eq!(out, Ok(lockstep(EXCHANGE_2, p)));
    assert_eq!(launched, 1);
    // A result with no serialized form: every rank sends `Fatal`, on
    // the warm fleet.
    let (out, launched) = run(&cfg, "mkpar (fun i -> fun x -> x + i)", p);
    assert_eq!(out, Err(EvalError::NotSerializable("<fun x>".to_string())));
    assert_eq!(launched, 0);
    assert_no_child_left();
    let (out, launched) = run(&cfg, EXCHANGE_2, p);
    assert_eq!(out, Ok(lockstep(EXCHANGE_2, p)));
    assert_eq!(launched, 1, "the failed run's fleet is gone");
    drop(cfg);
    assert_no_child_left();
}

#[test]
fn a_killed_rank_tears_its_fleet_down_and_the_retry_launches_again() {
    let _serial = serial();
    let cfg = config();
    let p = 2;
    let (out, launched) = run(&cfg, EXCHANGE_2, p);
    assert_eq!(out, Ok(lockstep(EXCHANGE_2, p)));
    assert_eq!(launched, 1);

    // Attempt 0 runs on the warm fleet and loses rank 1 to SIGKILL;
    // the retry finds no idle fleet and launches one.
    let mut killing = cfg.clone();
    killing.kills.push(KillSpec {
        rank: 1,
        superstep: 1,
        attempt: 0,
    });
    let tel = Telemetry::enabled_logical();
    let machine = DistMachine::new(p)
        .with_execution(Execution::Processes(killing))
        .with_barrier_timeout(Duration::from_secs(10));
    let out = Supervisor::new(machine)
        .with_backoff(Duration::ZERO)
        .with_telemetry(tel.clone())
        .run(&parse(EXCHANGE_2).unwrap())
        .unwrap();
    assert_eq!(out.attempts, 2);
    assert!(
        matches!(
            out.recovered[0],
            EvalError::TransportFailure { rank: 1, .. }
        ),
        "expected rank 1's death, got {:?}",
        out.recovered[0]
    );
    assert_eq!(out.outcome.value.to_string(), lockstep(EXCHANGE_2, p));
    assert_eq!(tel.counter_value("net.launches"), 1);

    // The retry's fleet reported `Done` everywhere, so it stays warm.
    let (out, launched) = run(&cfg, EXCHANGE_2, p);
    assert_eq!(out, Ok(lockstep(EXCHANGE_2, p)));
    assert_eq!(launched, 0);
    drop(cfg);
    assert_no_child_left();
}

#[test]
fn a_link_heals_the_same_on_a_warm_fleet_as_on_a_cold_one() {
    let _serial = serial();
    let p = 2;
    for bind in [None, Some(Bind::Tcp("127.0.0.1:0".into()))] {
        let ctx = format!("bind={bind:?}");
        let mut cfg = ProcessConfig {
            bind: bind.clone(),
            heartbeat: Some(Duration::from_millis(50)),
            link_grace: Some(Duration::from_millis(1000)),
            ..config()
        };
        cfg.link_faults.push(LinkFault {
            rank: 0,
            superstep: 1,
            kind: LinkFaultKind::Drop,
            attempt: 0,
        });
        let mut heals = Vec::new();
        for launches in [1, 0] {
            let tel = Telemetry::enabled_logical();
            let out = DistMachine::new(p)
                .with_execution(Execution::Processes(cfg.clone()))
                .with_barrier_timeout(Duration::from_secs(10))
                .with_telemetry(tel.clone())
                .run(&parse(EXCHANGE_2).unwrap())
                .unwrap_or_else(|err| panic!("{ctx}: {err}"));
            assert_eq!(out.value.to_string(), lockstep(EXCHANGE_2, p), "{ctx}");
            assert_eq!(tel.counter_value("net.launches"), launches, "{ctx}");
            heals.push((
                tel.counter_value("net.rejoins"),
                tel.counter_value("net.egress_replayed"),
            ));
        }
        assert_eq!(heals[0], (1, 1), "{ctx}: the cold run heals by one rejoin");
        assert_eq!(heals[1], heals[0], "{ctx}: the warm run heals alike");
        drop(cfg);
        assert_no_child_left();
    }
}
