//! Integration tests for `bsml-serve`: admission control, fairness,
//! deadlines, crash containment, and exact accounting.

use std::time::Duration;

use bsml_bsp::BspParams;
use bsml_obs::Telemetry;
use bsml_serve::{Outcome, Rejected, Server, ServerConfig};

fn config() -> ServerConfig {
    ServerConfig::new(BspParams::new(2, 1, 10))
}

#[test]
fn happy_path_runs_and_accounts() {
    let server = Server::start(config(), Telemetry::disabled());
    let t1 = server.submit("alice", "let x = 40 + 2").unwrap();
    let t2 = server
        .submit("bob", "let v = mkpar (fun i -> i * 10)")
        .unwrap();
    assert!(matches!(t1.wait().outcome, Outcome::Done { .. }));
    assert!(matches!(t2.wait().outcome, Outcome::Done { .. }));
    let stats = server.shutdown();
    assert_eq!(stats.offered, 2);
    assert_eq!(stats.admitted, 2);
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.done, 2);
}

#[test]
fn divergent_phrase_hits_deadline_not_watchdog() {
    let server = Server::start(
        config()
            .with_workers(1)
            .with_deadline(Some(Duration::from_millis(300)))
            .with_fuel_budget(u64::MAX),
        Telemetry::disabled(),
    );
    let t = server
        .submit("spin", "let rec spin k = spin (k + 1) in spin 0")
        .unwrap();
    let done = t.wait();
    assert!(
        matches!(done.outcome, Outcome::DeadlineExceeded),
        "expected DeadlineExceeded, got {:?}",
        done.outcome
    );
    let stats = server.shutdown();
    assert_eq!(stats.deadline_exceeded, 1);
    assert_eq!(stats.abandoned, 0, "cancellation, not the watchdog");
}

#[test]
fn divergent_phrase_exhausts_fuel_budget() {
    let server = Server::start(
        config()
            .with_workers(1)
            .with_deadline(None)
            .with_fuel_budget(50_000),
        Telemetry::disabled(),
    );
    let t = server
        .submit("spin", "let rec spin k = spin (k + 1) in spin 0")
        .unwrap();
    assert!(matches!(t.wait().outcome, Outcome::BudgetExhausted));
    let stats = server.shutdown();
    assert_eq!(stats.budget_exhausted, 1);
    assert_eq!(stats.abandoned, 0);
}

#[test]
fn queue_overflow_rejects_typed() {
    let server = Server::start(
        config()
            .with_workers(1)
            .with_queue_depth(1)
            .with_tenant_quota(64),
        Telemetry::disabled(),
    );
    // Fill the only queue slot with a slow phrase, then overflow.
    let slow = server
        .submit("a", "let rec spin k = spin (k + 1) in spin 0")
        .unwrap();
    let mut saw_queue_full = false;
    for i in 0..50 {
        match server.submit("b", &format!("let x{i} = {i}")) {
            Ok(t) => drop(t),
            Err(Rejected::QueueFull) => {
                saw_queue_full = true;
                break;
            }
            Err(other) => panic!("unexpected rejection {other:?}"),
        }
    }
    assert!(saw_queue_full);
    drop(slow);
    let stats = server.shutdown();
    assert!(stats.rejected_queue_full >= 1);
    assert_eq!(stats.offered, stats.admitted + stats.rejected());
}

#[test]
fn tenant_quota_rejects_typed() {
    let server = Server::start(
        config()
            .with_workers(1)
            .with_queue_depth(512)
            .with_tenant_quota(2),
        Telemetry::disabled(),
    );
    let _slow = server
        .submit("hog", "let rec spin k = spin (k + 1) in spin 0")
        .unwrap();
    let _q = server.submit("hog", "let a = 1").unwrap();
    match server.submit("hog", "let b = 2") {
        Err(Rejected::TenantQuota) => {}
        other => panic!("expected TenantQuota, got {other:?}"),
    }
    // Another tenant is unaffected by hog's quota.
    let ok = server.submit("light", "let c = 3").unwrap();
    assert!(matches!(ok.wait().outcome, Outcome::Done { .. }));
    let stats = server.shutdown();
    assert_eq!(stats.rejected_tenant_quota, 1);
}

#[test]
fn panic_is_contained_and_session_restored() {
    // Division by zero raises an EvalError (not a panic) in this
    // evaluator, so dynamic failure is the panic-adjacent path users
    // actually hit; both roll the session back identically.
    let server = Server::start(config(), Telemetry::disabled());
    let ok = server.submit("t", "let base = 10").unwrap();
    assert!(matches!(ok.wait().outcome, Outcome::Done { .. }));
    let bad = server.submit("t", "let boom = base / 0").unwrap();
    assert!(matches!(bad.wait().outcome, Outcome::Failed { .. }));
    // The session still has `base` and nothing else.
    let after = server.submit("t", "base").unwrap();
    match after.wait().outcome {
        Outcome::Done { rendered } => assert_eq!(rendered, vec!["- : int = 10"]),
        other => panic!("expected Done, got {other:?}"),
    }
    let _ = server.shutdown();
}

#[test]
fn repeated_failures_quarantine_then_recover() {
    let server = Server::start(
        config()
            .with_workers(1)
            .with_quarantine(2, Duration::from_millis(200)),
        Telemetry::disabled(),
    );
    // Two consecutive dynamic failures → quarantine.
    for _ in 0..2 {
        let t = server.submit("flaky", "let x = 1 / 0").unwrap();
        assert!(matches!(t.wait().outcome, Outcome::Failed { .. }));
    }
    match server.submit("flaky", "let y = 1") {
        Err(Rejected::Quarantined) => {}
        other => panic!("expected Quarantined, got {other:?}"),
    }
    // Neighbors unaffected.
    let ok = server.submit("steady", "let z = 5").unwrap();
    assert!(matches!(ok.wait().outcome, Outcome::Done { .. }));
    // After the cooldown the tenant is admitted again.
    std::thread::sleep(Duration::from_millis(250));
    let back = server.submit("flaky", "let y = 1").unwrap();
    assert!(matches!(back.wait().outcome, Outcome::Done { .. }));
    let stats = server.shutdown();
    assert!(stats.quarantines >= 1);
    assert_eq!(stats.rejected_quarantined, 1);
}

#[test]
fn static_errors_never_strike() {
    let server = Server::start(
        config().with_quarantine(2, Duration::from_secs(5)),
        Telemetry::disabled(),
    );
    for i in 0..6 {
        let t = server
            .submit(
                "typos",
                &format!("let x{i} = mkpar (fun i -> mkpar (fun j -> j))"),
            )
            .unwrap();
        assert!(matches!(t.wait().outcome, Outcome::Static { .. }));
    }
    // Still admitted: ill-typed input is the user's problem, not a
    // server-health signal.
    let ok = server.submit("typos", "let fine = 1").unwrap();
    assert!(matches!(ok.wait().outcome, Outcome::Done { .. }));
    let stats = server.shutdown();
    assert_eq!(stats.quarantines, 0);
}

#[test]
fn shutdown_rejects_new_work_but_drains_queued() {
    let server = Server::start(config(), Telemetry::disabled());
    let t = server.submit("a", "let x = 2 + 2").unwrap();
    assert!(matches!(t.wait().outcome, Outcome::Done { .. }));
    let stats = server.shutdown();
    assert_eq!(stats.admitted, stats.completed);
}

#[test]
fn fairness_light_tenant_is_not_starved_by_heavy_neighbors() {
    // One worker, two heavy spinners plus one light tenant: DRR must
    // preempt the spinners so the light phrase completes long before
    // the spinners' deadlines resolve them.
    let server = Server::start(
        config()
            .with_workers(1)
            .with_deadline(Some(Duration::from_secs(4)))
            .with_fuel_budget(u64::MAX)
            .with_fuel_slice(5_000, 20_000),
        Telemetry::disabled(),
    );
    let h1 = server
        .submit("heavy1", "let rec spin k = spin (k + 1) in spin 0")
        .unwrap();
    let h2 = server
        .submit("heavy2", "let rec spin k = spin (k + 1) in spin 0")
        .unwrap();
    let light = server.submit("light", "let x = 1 + 1").unwrap();
    let start = std::time::Instant::now();
    let done = light.wait();
    let waited = start.elapsed();
    assert!(matches!(done.outcome, Outcome::Done { .. }));
    assert!(
        waited < Duration::from_secs(2),
        "light tenant starved: waited {waited:?}"
    );
    assert!(matches!(h1.wait().outcome, Outcome::DeadlineExceeded));
    assert!(matches!(h2.wait().outcome, Outcome::DeadlineExceeded));
    let stats = server.shutdown();
    assert!(stats.preemptions > 0, "spinners were never preempted");
    assert_eq!(stats.offered, stats.admitted + stats.rejected());
}

#[test]
fn nested_references_do_not_hold_a_worker() {
    // `let r = ref (ref (… 0))`, 100 deep: the deepest nest the debug
    // parser reads on a host thread's 2 MiB stack. Inference used to
    // grow as n⁴ on this shape and held the worker for seconds; the
    // request must finish inside a 500 ms deadline, with no watchdog
    // and no quarantine.
    let server = Server::start(
        config()
            .with_workers(1)
            .with_deadline(Some(Duration::from_millis(500))),
        Telemetry::disabled(),
    );
    let n = 100;
    let source = format!("let r = {}0{}", "ref (".repeat(n), ")".repeat(n));
    let t = server.submit("deep", &source).unwrap();
    let done = t.wait();
    assert!(
        matches!(done.outcome, Outcome::Done { .. }),
        "expected Done, got {:?}",
        done.outcome
    );
    let other = server.submit("other", "let x = 1 + 1").unwrap();
    assert!(matches!(other.wait().outcome, Outcome::Done { .. }));
    let stats = server.shutdown();
    assert_eq!(stats.abandoned, 0);
    assert_eq!(stats.quarantines, 0);
}
