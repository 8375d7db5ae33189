//! `bsml-serve`: run the multi-tenant session server under a seeded
//! synthetic load and print its overload behavior.
//!
//! ```text
//! bsml-serve [--tenants N] [--requests N] [--workers N] [--seed S]
//!            [--deadline-ms MS] [--queue-depth N] [--clean]
//!            [--durable-dir PATH] [--snapshot-every N]
//!            [--inject OP:KIND:NTH[:AT]] [--dump-state]
//! ```
//!
//! Offers `tenants × requests` phrases round-robin across tenants —
//! by default a stress mix (divergent, failing, ill-typed, heavy and
//! well-typed traffic) — waits for every admitted completion, then
//! prints exact accounting, latency percentiles, and the shed rate.
//!
//! With `--durable-dir` every committed phrase is fsynced to a
//! per-tenant write-ahead log before its completion is reported, and
//! a restart recovers every tenant to its last committed phrase.
//! `--dump-state` skips the load entirely: it recovers the durable
//! directory, rebuilds each tenant session by deterministic replay,
//! and prints its bindings — the ground truth a durability test can
//! diff against a never-crashed oracle. `--inject` arms deterministic
//! disk faults (see below); `abort` kinds kill the process mid-write,
//! which is how the kill-restart tests place their crashes.
//!
//! SIGTERM triggers a graceful drain: admission stops (typed
//! `ShuttingDown` rejections), in-flight requests finish, and each
//! durable tenant flushes a final compaction snapshot so the next
//! start replays zero phrases.
//!
//! Fault syntax: `OP:KIND:NTH[:AT]` where OP ∈ `atomic|append|read`,
//! KIND ∈ `enospc|torn|syncfail|flip|abort`, NTH is the 0-based
//! occurrence of OP that faults, and AT is the byte offset for
//! `torn`/`flip`/`abort`.
//!
//! Exit status: 0 = accounting exact (`offered == admitted +
//! rejected` and `admitted == completed`); 1 = usage error;
//! 2 = accounting mismatch (a server bug, worth a loud CI failure).

use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bsml_bsp::{BspParams, Disk, StorageFault, StorageFaultKind, StorageOp, StoragePlan};
use bsml_core::{Session, SessionSnapshot};
use bsml_obs::Telemetry;
use bsml_repro::loadgen::{self, LoadMix, LoadPlan};
use bsml_serve::{DurableLog, Server, ServerConfig};

/// The machine every tenant session runs on. `--dump-state` rebuilds
/// sessions on the same parameters, so its output is comparable
/// across runs.
fn machine() -> BspParams {
    BspParams::new(4, 2, 10)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: bsml-serve [--tenants N] [--requests N] [--workers N] [--seed S] \
         [--deadline-ms MS] [--queue-depth N] [--clean] \
         [--durable-dir PATH] [--snapshot-every N] \
         [--inject OP:KIND:NTH[:AT]] [--dump-state]"
    );
    ExitCode::from(1)
}

/// Parses one `--inject` spec: `OP:KIND:NTH[:AT]`.
fn parse_inject(spec: &str) -> Option<StorageFault> {
    let parts: Vec<&str> = spec.split(':').collect();
    if parts.len() < 3 || parts.len() > 4 {
        return None;
    }
    let op = match parts[0] {
        "atomic" => StorageOp::AtomicWrite,
        "append" => StorageOp::Append,
        "read" => StorageOp::Read,
        _ => return None,
    };
    let nth: u64 = parts[2].parse().ok()?;
    let at = || -> Option<usize> { parts.get(3)?.parse().ok() };
    let kind = match parts[1] {
        "enospc" => StorageFaultKind::Enospc,
        "syncfail" => StorageFaultKind::SyncFailure,
        "torn" => StorageFaultKind::TornWrite { at: at()? },
        "flip" => StorageFaultKind::BitFlip { at: at()? },
        "abort" => StorageFaultKind::CrashAfter { at: at()? },
        _ => return None,
    };
    Some(StorageFault { op, nth, kind })
}

/// `--dump-state`: recover the durable directory and print every
/// tenant's rebuilt session, deterministically ordered.
fn dump_state(dir: &Path, disk: Arc<Disk>) -> ExitCode {
    let telemetry = Telemetry::enabled_logical();
    let log = match DurableLog::open(dir, disk, telemetry.clone()) {
        Ok(log) => log,
        Err(e) => {
            eprintln!("cannot open durable dir {}: {e}", dir.display());
            return ExitCode::from(1);
        }
    };
    let recovered = log.recover(&|bytes| SessionSnapshot::from_bytes(bytes).is_ok());
    for r in &recovered {
        println!(
            "== {} seq={} replayed={} truncated={} fell_back={}",
            r.name,
            r.last_seq,
            r.commits.len(),
            r.truncated,
            r.fell_back
        );
        let mut session = Session::new(machine());
        if let Some((_, bytes)) = &r.base {
            let _ = SessionSnapshot::from_bytes(bytes).and_then(|snap| session.restore(&snap));
        }
        for source in &r.commits {
            let _ = session.load(source);
        }
        print!("{}", session.render_bindings());
    }
    println!(
        "recovered {} tenants, truncated_tails={}",
        recovered.len(),
        telemetry.counter_value("server.wal_truncated_tails"),
    );
    ExitCode::SUCCESS
}

static TERM: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigterm(_sig: i32) {
    TERM.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
fn install_sigterm_handler() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_sigterm as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_sigterm_handler() {}

fn main() -> ExitCode {
    let mut tenants: usize = 8;
    let mut requests: usize = 8;
    let mut seed: u64 = 42;
    let mut mix = LoadMix::stress();
    let mut config = ServerConfig::new(machine());
    let mut plan = StoragePlan::new();
    let mut dump = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tenants" | "--requests" | "--workers" | "--seed" | "--deadline-ms"
            | "--queue-depth" | "--snapshot-every" => {
                let Some(v) = args.next().and_then(|v| v.parse::<u64>().ok()) else {
                    return usage();
                };
                match arg.as_str() {
                    "--tenants" => tenants = v as usize,
                    "--requests" => requests = v as usize,
                    "--workers" => config = config.with_workers(v as usize),
                    "--seed" => seed = v,
                    "--deadline-ms" => {
                        config = config.with_deadline((v > 0).then(|| Duration::from_millis(v)));
                    }
                    "--snapshot-every" => config = config.with_snapshot_every(v),
                    _ => config = config.with_queue_depth(v as usize),
                }
            }
            "--durable-dir" => {
                let Some(v) = args.next() else {
                    return usage();
                };
                config = config.with_durable_dir(v);
            }
            "--inject" => {
                let Some(fault) = args.next().as_deref().and_then(parse_inject) else {
                    return usage();
                };
                plan = plan.fault(fault);
            }
            "--dump-state" => dump = true,
            "--clean" => mix = LoadMix::clean(),
            _ => return usage(),
        }
    }

    let disk = Arc::new(Disk::with_plan(plan));
    if dump {
        let Some(dir) = config.durable_dir else {
            eprintln!("--dump-state requires --durable-dir");
            return usage();
        };
        return dump_state(&dir, disk);
    }

    install_sigterm_handler();
    let telemetry = Telemetry::enabled();
    let config = config.with_storage(disk);
    let server = Server::start(config, telemetry.clone());
    if server.durable() {
        println!(
            "durable: recovered {} tenants, replayed {} phrases, truncated {} tails",
            server.tenants().len(),
            telemetry.counter_value("server.replayed_phrases"),
            telemetry.counter_value("server.wal_truncated_tails"),
        );
    }
    let plan = LoadPlan {
        tenants,
        per_tenant: requests,
        seed,
        mix,
    };
    // Drive the load with a SIGTERM watcher alongside: on TERM the
    // server stops admitting (typed ShuttingDown) and drains what it
    // already accepted.
    let done = AtomicBool::new(false);
    let report = std::thread::scope(|scope| {
        scope.spawn(|| {
            while !done.load(Ordering::SeqCst) {
                if TERM.load(Ordering::SeqCst) {
                    server.initiate_shutdown();
                    break;
                }
                std::thread::sleep(Duration::from_millis(25));
            }
        });
        let report = loadgen::run(&server, &plan);
        done.store(true, Ordering::SeqCst);
        report
    });
    let stats = server.shutdown();

    println!(
        "offered {} = admitted {} + rejected {} (queue_full {}, tenant_quota {}, \
         quarantined {}, shutdown {})",
        stats.offered,
        stats.admitted,
        stats.rejected(),
        stats.rejected_queue_full,
        stats.rejected_tenant_quota,
        stats.rejected_quarantined,
        stats.rejected_shutdown,
    );
    println!(
        "completed {}: done {}, static {}, failed {}, deadline {}, budget {}, \
         panics {}, abandoned {}, durability_lost {}, shed {}",
        stats.completed,
        stats.done,
        stats.static_errors,
        stats.failed,
        stats.deadline_exceeded,
        stats.budget_exhausted,
        stats.panics_contained,
        stats.abandoned,
        stats.durability_lost,
        stats.shed,
    );
    println!(
        "preemptions {}, quarantines {}",
        stats.preemptions, stats.quarantines
    );
    println!(
        "latency p50 {:.1} ms, p99 {:.1} ms (done-only p50 {:.1} ms), shed rate {:.1}%",
        report.latency_percentile_us(50) as f64 / 1000.0,
        report.latency_percentile_us(99) as f64 / 1000.0,
        report.done_percentile_us(50) as f64 / 1000.0,
        report.shed_rate() * 100.0,
    );

    let exact =
        stats.offered == stats.admitted + stats.rejected() && stats.admitted == stats.completed;
    if exact {
        ExitCode::SUCCESS
    } else {
        eprintln!("ACCOUNTING MISMATCH");
        ExitCode::from(2)
    }
}
