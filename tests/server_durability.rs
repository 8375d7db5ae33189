//! Durability integration tests (DESIGN.md §15): commit-before-report
//! over the write-ahead log, crash-safe restart, graceful drain, and
//! a seeded kill-restart grid driving the real `bsml-serve` binary
//! with deterministic mid-append aborts.
//!
//! The oracle discipline: clean-mix load-generator traffic is a
//! deterministic sequence of `let`-binding phrases
//! ([`loadgen::offers`]), and BSML evaluation is deterministic, so a
//! tenant recovered to committed sequence number `k` must render
//! *bit-identical* bindings to a fresh session that replayed that
//! tenant's first `k` offers and never crashed. Any divergence —
//! lost commits, duplicated commits, torn state — shows up as a diff.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::Duration;

use bsml_bsp::{BspParams, Disk, StorageFault, StorageFaultKind, StorageOp, StoragePlan};
use bsml_core::{Session, SessionSnapshot};
use bsml_obs::Telemetry;
use bsml_repro::loadgen::{self, LoadMix, LoadPlan};
use bsml_serve::{DurableLog, Outcome, Server, ServerConfig};

/// Must match `machine()` in `src/bin/bsml-serve.rs` — the oracle
/// replays on the same machine the server runs.
fn machine() -> BspParams {
    BspParams::new(4, 2, 10)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bsml-durable-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn validate(bytes: &[u8]) -> bool {
    SessionSnapshot::from_bytes(bytes).is_ok()
}

/// Renders the durable state of one tenant exactly like
/// `bsml-serve --dump-state`: restore the base, replay the suffix.
fn render_recovered(dir: &Path) -> Vec<(String, u64, usize, String)> {
    let log = DurableLog::open(dir, Arc::new(Disk::new()), Telemetry::disabled()).unwrap();
    log.recover(&|b| validate(b))
        .into_iter()
        .map(|r| {
            let mut session = Session::new(machine());
            if let Some((_, state)) = &r.base {
                session
                    .restore(&SessionSnapshot::from_bytes(state).unwrap())
                    .unwrap();
            }
            for p in &r.commits {
                let _ = session.load(p);
            }
            (
                r.name,
                r.last_seq,
                r.commits.len(),
                session.render_bindings(),
            )
        })
        .collect()
}

/// The never-crashed oracle: replay the first `upto` clean-mix offers
/// of one tenant into a fresh session.
fn oracle_bindings(plan: &LoadPlan, tenant: &str, upto: u64) -> String {
    let mut session = Session::new(machine());
    let mut replayed = 0u64;
    for (t, source) in loadgen::offers(plan) {
        if t == tenant && replayed < upto {
            session.load(&source).unwrap();
            replayed += 1;
        }
    }
    assert_eq!(replayed, upto, "oracle ran out of offers for {tenant}");
    session.render_bindings()
}

#[test]
fn restart_recovers_committed_phrases_and_continues() {
    let dir = temp_dir("restart");
    let config = || {
        ServerConfig::new(machine())
            .with_durable_dir(&dir)
            .with_snapshot_every(2)
    };
    {
        let server = Server::start(config(), Telemetry::disabled());
        assert!(server.durable());
        for (tenant, source) in [
            ("alice", "let x = 40 + 2"),
            ("alice", "let y = x * 10"),
            ("alice", "let z = y - x"),
            ("bob", "let v = mkpar (fun i -> i * 10)"),
        ] {
            let t = server.submit(tenant, source).unwrap();
            assert!(matches!(t.wait().outcome, Outcome::Done { .. }));
        }
        // SIGKILL stand-in for the recovery path: drop without the
        // graceful shutdown, so the WAL tail is all there is.
        server.drain();
        std::mem::forget(server);
    }
    let telemetry = Telemetry::enabled_logical();
    let server = Server::start(config(), telemetry.clone());
    assert_eq!(server.tenants(), vec!["alice", "bob"]);
    assert_eq!(telemetry.counter_value("server.recoveries"), 2);
    // The recovered environment is live: a phrase depending on every
    // earlier binding still evaluates.
    let t = server.submit("alice", "let w = x + y + z").unwrap();
    assert!(matches!(t.wait().outcome, Outcome::Done { .. }));
    let stats = server.shutdown();
    assert_eq!(stats.offered, 1);
    assert_eq!(stats.done, 1);
    // And the continuation is itself durable, sequenced after the
    // recovered history.
    let rendered = render_recovered(&dir);
    let alice = rendered.iter().find(|(n, ..)| n == "alice").unwrap();
    assert_eq!(alice.1, 4, "3 recovered commits + 1 continuation");
    assert!(alice.3.contains("w : int"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_append_fault_reports_durability_lost_and_rolls_back() {
    let dir = temp_dir("lost");
    // A live server arms fresh tenants via `rearm` (one atomic
    // write), so the first *append* is the first commit.
    let disk = Arc::new(Disk::with_plan(StoragePlan::new().fault(StorageFault {
        op: StorageOp::Append,
        nth: 0,
        kind: StorageFaultKind::Enospc,
    })));
    let server = Server::start(
        ServerConfig::new(machine())
            .with_durable_dir(&dir)
            .with_storage(disk),
        Telemetry::disabled(),
    );
    let t = server.submit("carol", "let a = 1").unwrap();
    let done = t.wait();
    assert!(
        matches!(done.outcome, Outcome::DurabilityLost { .. }),
        "expected DurabilityLost, got {:?}",
        done.outcome
    );
    // The phrase was rolled back, not half-applied: retrying it (the
    // fault fires once) commits, and the dependent phrase sees it.
    let t = server.submit("carol", "let a = 1").unwrap();
    assert!(matches!(t.wait().outcome, Outcome::Done { .. }));
    let t = server.submit("carol", "let b = a + 1").unwrap();
    assert!(matches!(t.wait().outcome, Outcome::Done { .. }));
    let stats = server.shutdown();
    assert_eq!(stats.durability_lost, 1);
    assert_eq!(stats.done, 2);
    assert_eq!(stats.offered, stats.admitted + stats.rejected());
    assert_eq!(stats.admitted, stats.completed);
    // Durable state holds exactly the two committed phrases.
    let rendered = render_recovered(&dir);
    assert_eq!(rendered.len(), 1);
    assert_eq!(rendered[0].1, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_shutdown_flushes_a_final_snapshot() {
    let dir = temp_dir("drain");
    let server = Server::start(
        ServerConfig::new(machine())
            .with_durable_dir(&dir)
            .with_snapshot_every(100),
        Telemetry::disabled(),
    );
    for i in 0..3 {
        let t = server.submit("dave", &format!("let d{i} = {i}")).unwrap();
        assert!(matches!(t.wait().outcome, Outcome::Done { .. }));
    }
    let _ = server.shutdown();
    // The drain compacted: recovery replays zero phrases.
    for (name, last_seq, replayed, _) in render_recovered(&dir) {
        assert_eq!(name, "dave");
        assert_eq!(last_seq, 3);
        assert_eq!(replayed, 0, "graceful drain must leave no replay debt");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Kill-restart grid against the real binary
// ---------------------------------------------------------------------------

struct DumpTenant {
    seq: u64,
    replayed: u64,
    bindings: String,
}

/// Parses `bsml-serve --dump-state` output into per-tenant blocks.
fn parse_dump(out: &str) -> Vec<(String, DumpTenant)> {
    let mut tenants: Vec<(String, DumpTenant)> = Vec::new();
    for line in out.lines() {
        if let Some(rest) = line.strip_prefix("== ") {
            let mut fields = rest.split_whitespace();
            let name = fields.next().unwrap().to_string();
            let mut get = |key: &str| {
                let kv = fields.next().unwrap();
                kv.strip_prefix(key)
                    .and_then(|v| v.strip_prefix('='))
                    .unwrap_or_else(|| panic!("expected {key}=… in {line:?}"))
                    .to_string()
            };
            let seq: u64 = get("seq").parse().unwrap();
            let replayed: u64 = get("replayed").parse().unwrap();
            tenants.push((
                name,
                DumpTenant {
                    seq,
                    replayed,
                    bindings: String::new(),
                },
            ));
        } else if line.starts_with("recovered ") {
            break;
        } else if let Some((_, t)) = tenants.last_mut() {
            t.bindings.push_str(line);
            t.bindings.push('\n');
        }
    }
    tenants
}

fn serve(dir: &Path, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bsml-serve"))
        .arg("--durable-dir")
        .arg(dir)
        .args(args)
        .output()
        .expect("spawn bsml-serve")
}

/// One grid cell: run clean-mix load with a deterministic mid-append
/// abort (SIGKILL stand-in), restart, and check the recovered state
/// against the never-crashed oracle at the committed prefix.
fn kill_restart_cell(seed: u64, snapshot_every: u64, crash_nth: u64) {
    let dir = temp_dir(&format!("kill-{seed}-{snapshot_every}-{crash_nth}"));
    let plan = LoadPlan {
        tenants: 3,
        per_tenant: 4,
        seed,
        mix: LoadMix::clean(),
    };
    let every = snapshot_every.to_string();
    let seed_s = seed.to_string();
    let common = [
        "--tenants",
        "3",
        "--requests",
        "4",
        "--seed",
        &seed_s,
        "--deadline-ms",
        "0",
        "--clean",
        "--snapshot-every",
        &every,
    ];
    let crash = format!("append:abort:{crash_nth}:5");
    let mut args: Vec<&str> = common.to_vec();
    args.extend_from_slice(&["--inject", &crash]);
    let crashed = serve(&dir, &args);
    assert!(
        !crashed.status.success(),
        "the injected abort must kill the run: {}",
        String::from_utf8_lossy(&crashed.stdout)
    );

    // Restart with a healthy disk: recovery must succeed, admit no
    // new work, and account exactly (the binary exits 2 otherwise).
    let restarted = serve(&dir, &["--requests", "0", "--deadline-ms", "0"]);
    let stdout = String::from_utf8_lossy(&restarted.stdout);
    assert!(
        restarted.status.success(),
        "restart failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&restarted.stderr)
    );
    assert!(
        stdout.contains("durable: recovered"),
        "restart did not report recovery:\n{stdout}"
    );

    // The recovered environment must be bit-identical to the oracle
    // replaying each tenant's committed prefix.
    let dump = serve(&dir, &["--dump-state"]);
    assert!(dump.status.success());
    let tenants = parse_dump(&String::from_utf8_lossy(&dump.stdout));
    assert!(!tenants.is_empty(), "no tenants survived the crash");
    for (name, t) in &tenants {
        assert!(t.seq <= plan.per_tenant as u64);
        assert_eq!(
            t.bindings,
            oracle_bindings(&plan, name, t.seq),
            "tenant {name} diverged from the never-crashed oracle at seq {}",
            t.seq
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The seeded grid: crash points early (mid-header territory), in the
/// middle of the commit stream, and near its end, under both eager
/// and lazy compaction.
#[test]
fn kill_restart_grid_recovers_bit_identical_state() {
    for (seed, snapshot_every, crash_nth) in
        [(11, 1, 2), (11, 3, 7), (42, 1, 11), (42, 3, 4), (77, 2, 9)]
    {
        kill_restart_cell(seed, snapshot_every, crash_nth);
    }
}

/// Control cell: the same plan with no fault commits everything, and
/// the dump matches the full oracle for every tenant.
#[test]
fn no_crash_control_matches_full_oracle() {
    let dir = temp_dir("control");
    let plan = LoadPlan {
        tenants: 3,
        per_tenant: 4,
        seed: 11,
        mix: LoadMix::clean(),
    };
    let run = serve(
        &dir,
        &[
            "--tenants",
            "3",
            "--requests",
            "4",
            "--seed",
            "11",
            "--deadline-ms",
            "0",
            "--clean",
        ],
    );
    assert!(run.status.success());
    let dump = serve(&dir, &["--dump-state"]);
    assert!(dump.status.success());
    let tenants = parse_dump(&String::from_utf8_lossy(&dump.stdout));
    assert_eq!(tenants.len(), 3);
    for (name, t) in &tenants {
        assert_eq!(t.seq, 4, "tenant {name} lost commits without a crash");
        assert_eq!(t.replayed, 0, "graceful exit must leave no replay debt");
        assert_eq!(t.bindings, oracle_bindings(&plan, name, 4));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// SIGTERM mid-load drains gracefully: exact accounting (exit 0, with
/// shutdown rejections counted), and every tenant's final snapshot is
/// flushed so the next start replays zero phrases.
#[cfg(unix)]
#[test]
fn sigterm_drains_and_flushes() {
    let dir = temp_dir("sigterm");
    let child = Command::new(env!("CARGO_BIN_EXE_bsml-serve"))
        .args([
            "--durable-dir",
            dir.to_str().unwrap(),
            "--tenants",
            "4",
            "--requests",
            "200",
            "--seed",
            "5",
            "--deadline-ms",
            "0",
            "--clean",
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn bsml-serve");
    std::thread::sleep(Duration::from_millis(300));
    let term = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success());
    let out = child.wait_with_output().expect("wait for drain");
    assert!(
        out.status.success(),
        "drain must keep accounting exact:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let dump = serve(&dir, &["--dump-state"]);
    assert!(dump.status.success());
    for (name, t) in parse_dump(&String::from_utf8_lossy(&dump.stdout)) {
        assert_eq!(
            t.replayed, 0,
            "tenant {name} was not flushed by the SIGTERM drain"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
