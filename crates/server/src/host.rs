//! Session hosts: one dedicated thread per tenant session.
//!
//! `Session` (and the `Value`s inside it) is `Rc`-based and cannot
//! cross threads, so the server never moves it: each tenant's session
//! is born, lives, and dies on its own host thread. Only `String`s
//! (phrase sources, rendered results) and the shared
//! [`FuelCell`] handle cross the boundary. Workers *drive* hosts by
//! granting fuel through the cell; they never touch the session.
//!
//! A host runs one request at a time, **transactionally**: it opens a
//! session transaction before `load` and rolls it back on *any*
//! failure — static error, dynamic failure, cancellation, a panic
//! caught at the host's `catch_unwind` boundary, or a failed WAL
//! append. The rollback undoes the cells the request assigned through
//! the session's undo trail, so it never walks the tenant's values.
//! Only a fully successful, durably logged request commits, which is
//! what makes the server's replay transcripts deterministic: a
//! transcript is exactly the sources that committed, and replaying
//! them from scratch rebuilds the same session state.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

use bsml_core::{BsmlError, Session, SessionEvent, SessionSnapshot};
use bsml_eval::{EvalError, FuelCell};
use bsml_obs::Telemetry;

use crate::config::ServerConfig;
use crate::wal::TenantWal;

/// Durability context handed to a host at spawn: the armed per-tenant
/// WAL handle, and (after a recovery) the serialized base state to
/// restore before replaying the transcript.
pub(crate) struct DurableCtx {
    pub(crate) wal: TenantWal,
    pub(crate) base: Option<Vec<u8>>,
}

/// What a host reports back for one request.
#[derive(Clone, Debug)]
pub(crate) enum HostOutcome {
    /// Every phrase succeeded; the request committed.
    Done { rendered: Vec<String> },
    /// Parse or type error; rolled back.
    Static { error: String },
    /// A phrase failed dynamically; rolled back. `cancelled` is true
    /// when the failure was [`EvalError::Cancelled`] — the scheduler
    /// pulled the plug (deadline or budget), not the program.
    Failed { error: String, cancelled: bool },
    /// The evaluation panicked; the panic was contained and the
    /// session rolled back.
    Panicked,
    /// The phrase succeeded but its WAL append failed; the session
    /// was rolled back so nothing is reported durable that is not.
    DurabilityLost { error: String },
}

pub(crate) enum HostCmd {
    /// Run one request's source. The host replies exactly once on
    /// `reply` and then calls [`FuelCell::finish`].
    Run {
        source: String,
        reply: mpsc::Sender<HostOutcome>,
    },
    /// Exit the host loop.
    Shutdown,
}

/// A handle to a live host thread.
pub(crate) struct HostHandle {
    pub(crate) cmd_tx: mpsc::Sender<HostCmd>,
    pub(crate) cell: Arc<FuelCell>,
    join: Option<JoinHandle<()>>,
}

impl HostHandle {
    /// Spawns a host for `tenant`, replaying `transcript` (the
    /// tenant's committed sources) to rebuild prior session state.
    /// The replay runs under plain generous fuel — every transcript
    /// entry already completed within budget once, so replay cannot
    /// hang on fuel.
    pub(crate) fn spawn(
        tenant: &str,
        config: &ServerConfig,
        telemetry: &Telemetry,
        transcript: Vec<String>,
        durable: Option<DurableCtx>,
    ) -> HostHandle {
        let (cmd_tx, cmd_rx) = mpsc::channel::<HostCmd>();
        let cell = FuelCell::new();
        let thread_cell = Arc::clone(&cell);
        let params = config.params;
        let telemetry = telemetry.clone();
        let name = format!("bsml-host-{tenant}");
        let join = std::thread::Builder::new()
            .name(name)
            .spawn(move || {
                host_main(
                    params,
                    telemetry,
                    transcript,
                    durable,
                    &thread_cell,
                    &cmd_rx,
                );
            })
            .expect("spawn session host thread");
        HostHandle {
            cmd_tx,
            cell,
            join: Some(join),
        }
    }

    /// Asks the host to exit and joins it. Never called on abandoned
    /// hosts (those are detached by dropping the handle).
    pub(crate) fn shutdown(mut self) {
        let _ = self.cmd_tx.send(HostCmd::Shutdown);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }

    /// Detaches the thread (used by watchdog abandon: the host is
    /// stuck and will never join).
    pub(crate) fn abandon(mut self) {
        self.join.take();
    }
}

fn host_main(
    params: bsml_bsp::BspParams,
    telemetry: Telemetry,
    transcript: Vec<String>,
    durable: Option<DurableCtx>,
    cell: &Arc<FuelCell>,
    cmd_rx: &mpsc::Receiver<HostCmd>,
) {
    // Rebuild committed state first, on plain fuel (no cell): restore
    // the recovered snapshot base (if any), then replay the
    // transcript — every entry is a request that already succeeded,
    // so this terminates without scheduler involvement.
    let mut session = Session::with_telemetry(params, telemetry.clone());
    let mut wal = None;
    if let Some(ctx) = durable {
        if let Some(bytes) = ctx.base.as_deref() {
            let _ = SessionSnapshot::from_bytes(bytes).and_then(|snap| session.restore(&snap));
        }
        wal = Some(ctx.wal);
    }
    for source in &transcript {
        let _ = session.load(source);
    }
    // From here on, every evaluation draws fuel through the cell.
    let mut session = session.with_fuel_cell(Arc::clone(cell));

    let mut graceful = false;
    while let Ok(cmd) = cmd_rx.recv() {
        let HostCmd::Run { source, reply } = cmd else {
            graceful = true;
            break;
        };
        let outcome = run_one(&mut session, &source, wal.as_mut());
        let committed = matches!(outcome, HostOutcome::Done { .. });
        let delivered = reply.send(outcome).is_ok();
        cell.finish();
        // Compact after replying, off the request's latency path. A
        // failed reply means the server abandoned us mid-request:
        // never write a *new generation* from a zombie host — the
        // server may have re-armed the tenant into one already.
        if committed && delivered {
            if let Some(w) = wal.as_mut().filter(|w| w.should_snapshot()) {
                compact(w, &session, &telemetry);
            }
        }
        if !delivered {
            return;
        }
    }
    // Graceful drain: leave a fresh snapshot behind so the next
    // recovery replays zero phrases for this tenant.
    if graceful {
        if let Some(w) = wal.as_mut().filter(|w| w.unsnapshotted() > 0) {
            compact(w, &session, &telemetry);
        }
    }
}

/// Installs a snapshot of the session as the WAL's new generation, but
/// only if recovery would accept it: a snapshot that does not decode
/// (a session nested deeper than the codec's bound) would make
/// recovery fall back past the pruned generations and lose the tenant.
/// A skipped compaction leaves appends on the current generation and
/// counts `server.compactions_skipped`.
fn compact(wal: &mut TenantWal, session: &Session, telemetry: &Telemetry) {
    let bytes = session.snapshot().to_bytes();
    if SessionSnapshot::from_bytes(&bytes).is_ok() {
        let _ = wal.install_snapshot(&bytes);
    } else {
        telemetry.counter_add("server.compactions_skipped", 1);
    }
}

/// Runs one request transactionally against the session. A committed
/// request is appended (and fsynced) to the WAL *before* it is
/// reported done; if the append fails the session rolls back and the
/// request reports [`HostOutcome::DurabilityLost`] instead.
fn run_one(session: &mut Session, source: &str, wal: Option<&mut TenantWal>) -> HostOutcome {
    let tx = session.begin();
    let outcome = match catch_unwind(AssertUnwindSafe(|| session.load(source))) {
        Err(_panic) => HostOutcome::Panicked,
        Ok(Err(err)) => HostOutcome::Static {
            error: render_error(&err, source),
        },
        Ok(Ok(events)) => match events.iter().find_map(|e| e.error()) {
            Some(failure) => HostOutcome::Failed {
                error: failure.to_string(),
                cancelled: *failure == EvalError::Cancelled,
            },
            None => match wal.map(|w| w.append_commit(source)) {
                Some(Err(e)) => HostOutcome::DurabilityLost {
                    error: e.to_string(),
                },
                _ => HostOutcome::Done {
                    rendered: events.iter().map(render_event).collect(),
                },
            },
        },
    };
    if matches!(outcome, HostOutcome::Done { .. }) {
        session.commit(tx);
    } else {
        session.rollback(tx);
    }
    outcome
}

fn render_error(err: &BsmlError, source: &str) -> String {
    match err {
        BsmlError::Parse(_) | BsmlError::Type(_) => err.render(source),
        BsmlError::Eval(e) => e.to_string(),
    }
}

fn render_event(event: &SessionEvent) -> String {
    let name = event
        .name()
        .map_or_else(|| "-".to_string(), ToString::to_string);
    match event.value() {
        Some(v) => format!("{name} : {} = {v}", event.scheme()),
        None => format!("{name} : {} (failed)", event.scheme()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsml_bsp::BspParams;

    fn session() -> Session {
        Session::new(BspParams::new(2, 1, 10))
    }

    #[test]
    fn run_one_commits_success() {
        let mut s = session();
        let out = run_one(&mut s, "let x = 40 + 2", None);
        match out {
            HostOutcome::Done { rendered } => {
                assert_eq!(rendered, vec!["x : int = 42"]);
            }
            other => panic!("expected Done, got {other:?}"),
        }
        assert_eq!(s.snapshot().len(), 1);
    }

    #[test]
    fn run_one_rolls_back_dynamic_failures_entirely() {
        let mut s = session();
        let _ = run_one(&mut s, "let base = 10", None);
        // Second phrase fails: the WHOLE request (incl. `good`) rolls
        // back, unlike a bare Session::load which would keep `good`.
        let out = run_one(&mut s, "let good = 1\nlet bad = base / 0", None);
        assert!(matches!(
            out,
            HostOutcome::Failed {
                cancelled: false,
                ..
            }
        ));
        assert_eq!(s.snapshot().len(), 1, "only `base` survives");
        assert!(s.scheme_of("good").is_none());
    }

    #[test]
    fn run_one_reports_static_errors() {
        let mut s = session();
        let out = run_one(&mut s, "let x = mkpar (fun i -> mkpar (fun j -> j))", None);
        assert!(matches!(out, HostOutcome::Static { .. }));
        assert_eq!(s.snapshot().len(), 0);
    }

    #[test]
    fn host_thread_round_trip() {
        let config = ServerConfig::new(BspParams::new(2, 1, 10));
        let telemetry = Telemetry::disabled();
        let host = HostHandle::spawn("t0", &config, &telemetry, vec![], None);
        let (reply_tx, reply_rx) = mpsc::channel();
        host.cell.reset();
        host.cmd_tx
            .send(HostCmd::Run {
                source: "let x = 1 + 1".to_string(),
                reply: reply_tx,
            })
            .unwrap();
        // Drive it: grant generously until finished.
        loop {
            host.cell.grant(100_000);
            if host.cell.wait_quiescent(std::time::Duration::from_secs(10))
                == bsml_eval::Quiescence::Finished
            {
                break;
            }
        }
        let out = reply_rx.recv().unwrap();
        assert!(matches!(out, HostOutcome::Done { .. }));
        assert!(host.cell.drawn() > 0);
        host.shutdown();
    }

    #[test]
    fn host_replays_transcript_on_spawn() {
        let config = ServerConfig::new(BspParams::new(2, 1, 10));
        let telemetry = Telemetry::disabled();
        let host = HostHandle::spawn(
            "t1",
            &config,
            &telemetry,
            vec!["let a = 20".to_string(), "let b = a + 22".to_string()],
            None,
        );
        let (reply_tx, reply_rx) = mpsc::channel();
        host.cell.reset();
        host.cmd_tx
            .send(HostCmd::Run {
                source: "b".to_string(),
                reply: reply_tx,
            })
            .unwrap();
        loop {
            host.cell.grant(100_000);
            if host.cell.wait_quiescent(std::time::Duration::from_secs(10))
                == bsml_eval::Quiescence::Finished
            {
                break;
            }
        }
        match reply_rx.recv().unwrap() {
            HostOutcome::Done { rendered } => assert_eq!(rendered, vec!["- : int = 42"]),
            other => panic!("expected Done, got {other:?}"),
        }
        host.shutdown();
    }

    #[test]
    fn run_one_appends_committed_phrases_to_the_wal() {
        use crate::wal::DurableLog;
        use bsml_bsp::Disk;
        use bsml_obs::Telemetry;

        let dir = std::env::temp_dir().join(format!("bsml-host-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let log = DurableLog::open(&dir, Arc::new(Disk::new()), 8, Telemetry::disabled()).unwrap();
        let mut wal = log.tenant("t2", None).unwrap();
        let mut s = session();
        assert!(matches!(
            run_one(&mut s, "let x = 1", Some(&mut wal)),
            HostOutcome::Done { .. }
        ));
        // Failures never reach the log.
        let _ = run_one(&mut s, "1 / 0", Some(&mut wal));
        let recovered = log.recover(&|_| true);
        assert_eq!(recovered[0].commits, vec!["let x = 1"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_append_failure_rolls_the_session_back() {
        use crate::wal::DurableLog;
        use bsml_bsp::{Disk, StorageFault, StorageFaultKind, StorageOp, StoragePlan};
        use bsml_obs::Telemetry;

        let dir = std::env::temp_dir().join(format!("bsml-host-lost-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let disk = Arc::new(Disk::with_plan(StoragePlan::new().fault(StorageFault {
            op: StorageOp::Append,
            nth: 1, // header succeeds, first commit fails
            kind: StorageFaultKind::Enospc,
        })));
        let log = DurableLog::open(&dir, disk, 8, Telemetry::disabled()).unwrap();
        let mut wal = log.tenant("t3", None).unwrap();
        let mut s = session();
        let out = run_one(&mut s, "let x = 1", Some(&mut wal));
        assert!(matches!(out, HostOutcome::DurabilityLost { .. }));
        // The session is bit-identical to never having run the
        // phrase: a success the log did not capture must not exist.
        assert_eq!(s.snapshot().len(), 0);
        // Once the disk recovers, the same phrase goes through.
        let out = run_one(&mut s, "let x = 1", Some(&mut wal));
        assert!(matches!(out, HostOutcome::Done { .. }));
        assert_eq!(log.recover(&|_| true)[0].commits, vec!["let x = 1"]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
