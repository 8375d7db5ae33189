//! The multi-tenant session server: bounded admission, deficit-
//! round-robin fuel scheduling, deadlines, and crash containment.
//!
//! # Architecture
//!
//! ```text
//!  submit() ──▸ admission control ──▸ per-tenant bounded queue
//!                    │ typed Rejected           │
//!                    ▾                          ▾
//!               (caller backs off)   ready ring ◂─── DRR scheduler
//!                                        │
//!                              worker pool (config.workers)
//!                                        │ fuel grants via FuelCell
//!                                        ▾
//!                         one host thread per tenant session
//! ```
//!
//! Workers never hold a session — sessions are `Rc`-based and live on
//! dedicated host threads (the private `host` module). A worker *drives* a
//! tenant: it credits the tenant's deficit with one quantum, then
//! feeds the host fuel one slice at a time until the request
//! finishes, the deficit runs dry (preemption: the tenant goes to the
//! back of the ready ring, its evaluation left parked mid-expression),
//! the deadline or fuel budget trips (cooperative cancel), or the
//! watchdog concludes the host stopped ticking (abandon + quarantine).
//!
//! Every admitted request terminates in exactly one [`Completion`];
//! `offered == admitted + rejected` and `admitted == completed` after
//! [`Server::shutdown`] — the accounting is exact, by construction.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use bsml_core::SessionSnapshot;
use bsml_eval::{FuelCell, Quiescence};
use bsml_obs::Telemetry;

use crate::config::ServerConfig;
use crate::host::{DurableCtx, HostCmd, HostHandle, HostOutcome};
use crate::types::{Completion, Outcome, Rejected, Ticket};
use crate::wal::{DurableLog, TenantWal};

/// How many consecutive watchdog leashes a host may spend neither
/// parking nor finishing (e.g. a long un-fueled parse/inference
/// phase) before the worker escalates to cancel-then-abandon.
const STUCK_LEASHES: u32 = 3;

/// Cap on accumulated deficit, in quanta: an idle-then-bursty tenant
/// may bank at most this many rounds of credit.
const DEFICIT_CAP_QUANTA: u64 = 4;

struct Job {
    id: u64,
    tenant: String,
    source: String,
    enqueued: Instant,
    deadline: Option<Instant>,
    reply: mpsc::Sender<Completion>,
}

/// A request mid-execution: its host is evaluating (or parked) and
/// survives across preemptions until it completes.
struct Drive {
    job: Job,
    outcome_rx: mpsc::Receiver<HostOutcome>,
    slices: u64,
}

#[derive(Default)]
struct TenantState {
    queue: VecDeque<Job>,
    deficit: u64,
    in_ready: bool,
    driving: bool,
    current: Option<Drive>,
    host: Option<HostHandle>,
    transcript: Vec<String>,
    /// Recovered snapshot base: the sequence number it covers and the
    /// serialized state. `transcript` holds only commits *after* it.
    base: Option<(u64, Vec<u8>)>,
    /// The armed WAL handle, parked here until the next host spawn
    /// moves it onto the host thread. `None` on a durable server
    /// means the next spawn must re-arm via [`DurableLog::rearm`].
    wal: Option<TenantWal>,
    strikes: u32,
    quarantined_until: Option<Instant>,
}

struct SchedState {
    tenants: BTreeMap<String, TenantState>,
    ready: VecDeque<String>,
    queued_total: usize,
    in_flight: usize,
    shutdown: bool,
}

/// Exact request accounting, readable at any time via
/// [`Server::stats`]. All counters are monotone;
/// `offered == admitted + rejected()` holds at every instant, and
/// `admitted == completed` once the server is drained.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Calls to [`Server::submit`].
    pub offered: u64,
    /// Offers admitted (each will produce exactly one completion).
    pub admitted: u64,
    /// Offers shed with [`Rejected::QueueFull`].
    pub rejected_queue_full: u64,
    /// Offers shed with [`Rejected::TenantQuota`].
    pub rejected_tenant_quota: u64,
    /// Offers shed with [`Rejected::Quarantined`].
    pub rejected_quarantined: u64,
    /// Offers shed with [`Rejected::ShuttingDown`].
    pub rejected_shutdown: u64,
    /// Admitted requests that reached their completion.
    pub completed: u64,
    /// Completions with [`Outcome::Done`].
    pub done: u64,
    /// Completions with [`Outcome::Static`].
    pub static_errors: u64,
    /// Completions with [`Outcome::Failed`].
    pub failed: u64,
    /// Completions with [`Outcome::DeadlineExceeded`].
    pub deadline_exceeded: u64,
    /// Completions with [`Outcome::BudgetExhausted`].
    pub budget_exhausted: u64,
    /// Completions with [`Outcome::Panicked`].
    pub panics_contained: u64,
    /// Completions with [`Outcome::Abandoned`] (watchdog).
    pub abandoned: u64,
    /// Completions with [`Outcome::DurabilityLost`] (WAL append
    /// failed; the request was rolled back, not silently kept).
    pub durability_lost: u64,
    /// Completions with [`Outcome::Shed`].
    pub shed: u64,
    /// Times a tenant entered quarantine.
    pub quarantines: u64,
    /// Times a request was preempted (deficit dry) and resumed later.
    pub preemptions: u64,
}

impl ServerStats {
    /// All typed rejections combined.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.rejected_queue_full
            + self.rejected_tenant_quota
            + self.rejected_quarantined
            + self.rejected_shutdown
    }
}

#[derive(Default)]
struct StatCells {
    offered: AtomicU64,
    admitted: AtomicU64,
    rejected_queue_full: AtomicU64,
    rejected_tenant_quota: AtomicU64,
    rejected_quarantined: AtomicU64,
    rejected_shutdown: AtomicU64,
    completed: AtomicU64,
    done: AtomicU64,
    static_errors: AtomicU64,
    failed: AtomicU64,
    deadline_exceeded: AtomicU64,
    budget_exhausted: AtomicU64,
    panics_contained: AtomicU64,
    abandoned: AtomicU64,
    durability_lost: AtomicU64,
    shed: AtomicU64,
    quarantines: AtomicU64,
    preemptions: AtomicU64,
}

struct Inner {
    config: ServerConfig,
    telemetry: Telemetry,
    state: Mutex<SchedState>,
    work_cv: Condvar,
    idle_cv: Condvar,
    next_id: AtomicU64,
    stats: StatCells,
    /// Durable-session log; `None` when `durable_dir` is unset or the
    /// directory could not be opened (the server degrades to
    /// in-memory sessions rather than refusing to start).
    log: Option<DurableLog>,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, SchedState> {
        // The scheduler state is a plain data structure, valid at
        // every instant; a panicking worker must not wedge admission.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn count(&self, cell: &AtomicU64, metric: &str) {
        cell.fetch_add(1, Ordering::Relaxed);
        self.telemetry.counter_add(metric, 1);
    }
}

/// The overload-safe multi-tenant session server. See the
/// [module docs](self).
pub struct Server {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts the worker pool and begins accepting submissions.
    ///
    /// With [`ServerConfig::durable_dir`] set, first scans the
    /// durable directory and rebuilds every tenant recorded there:
    /// checksums and name fingerprints are verified, torn tails
    /// truncated, and each tenant's session will be reconstructed
    /// (snapshot base + deterministic replay of committed phrases) on
    /// its host thread at first use. A durable directory that cannot
    /// be opened degrades the server to in-memory sessions (counted
    /// as `server.wal_open_failed`) — start never fails.
    #[must_use]
    pub fn start(config: ServerConfig, telemetry: Telemetry) -> Server {
        let log = config.durable_dir.as_ref().and_then(|dir| {
            DurableLog::open(
                dir,
                Arc::clone(&config.disk),
                config.snapshot_every,
                telemetry.clone(),
            )
            .map_err(|_| telemetry.counter_add("server.wal_open_failed", 1))
            .ok()
        });
        let mut tenants: BTreeMap<String, TenantState> = BTreeMap::new();
        if let Some(log) = &log {
            for r in log.recover(&|bytes| SessionSnapshot::from_bytes(bytes).is_ok()) {
                telemetry.counter_add("server.recoveries", 1);
                telemetry.counter_add("server.replayed_phrases", r.commits.len() as u64);
                let wal = log.tenant(&r.name, Some(&r)).ok();
                tenants.insert(
                    r.name.clone(),
                    TenantState {
                        transcript: r.commits,
                        base: r.base,
                        wal,
                        ..TenantState::default()
                    },
                );
            }
        }
        let inner = Arc::new(Inner {
            config,
            telemetry,
            state: Mutex::new(SchedState {
                tenants,
                ready: VecDeque::new(),
                queued_total: 0,
                in_flight: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            next_id: AtomicU64::new(1),
            stats: StatCells::default(),
            log,
        });
        let workers = (0..inner.config.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("bsml-worker-{i}"))
                    .spawn(move || worker_main(&inner))
                    .expect("spawn server worker")
            })
            .collect();
        Server { inner, workers }
    }

    /// Offers one request. Admission is all-or-nothing and O(1): the
    /// request is either queued within every configured bound, or
    /// shed *now* with a typed [`Rejected`] — the server never
    /// buffers beyond `queue_depth`.
    ///
    /// # Errors
    ///
    /// The typed rejection; see [`Rejected`].
    pub fn submit(&self, tenant: &str, source: &str) -> Result<Ticket, Rejected> {
        let inner = &*self.inner;
        inner.count(&inner.stats.offered, "server.offered");
        let mut st = inner.lock();
        if st.shutdown {
            drop(st);
            inner.count(&inner.stats.rejected_shutdown, "server.rejected.shutdown");
            return Err(Rejected::ShuttingDown);
        }
        let queued_total = st.queued_total;
        let t = st.tenants.entry(tenant.to_string()).or_default();
        if let Some(until) = t.quarantined_until {
            if Instant::now() < until {
                drop(st);
                inner.count(
                    &inner.stats.rejected_quarantined,
                    "server.rejected.quarantined",
                );
                return Err(Rejected::Quarantined);
            }
            t.quarantined_until = None;
            t.strikes = 0;
        }
        if queued_total >= inner.config.queue_depth {
            drop(st);
            inner.count(
                &inner.stats.rejected_queue_full,
                "server.rejected.queue_full",
            );
            return Err(Rejected::QueueFull);
        }
        if t.queue.len() >= inner.config.tenant_quota {
            drop(st);
            inner.count(
                &inner.stats.rejected_tenant_quota,
                "server.rejected.tenant_quota",
            );
            return Err(Rejected::TenantQuota);
        }
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let now = Instant::now();
        let (reply, rx) = mpsc::channel();
        t.queue.push_back(Job {
            id,
            tenant: tenant.to_string(),
            source: source.to_string(),
            enqueued: now,
            deadline: inner.config.deadline.map(|d| now + d),
            reply,
        });
        if !t.in_ready && !t.driving {
            t.in_ready = true;
            st.ready.push_back(tenant.to_string());
        }
        st.queued_total += 1;
        let depth = st.queued_total as u64;
        drop(st);
        inner.count(&inner.stats.admitted, "server.admitted");
        inner
            .telemetry
            .histogram_record("server.queue_depth", depth);
        inner.work_cv.notify_one();
        Ok(Ticket { id, rx })
    }

    /// Blocks until every admitted request has completed (queues
    /// empty, nothing in flight).
    pub fn drain(&self) {
        let inner = &*self.inner;
        let mut st = inner.lock();
        while st.queued_total > 0 || st.in_flight > 0 {
            st = inner
                .idle_cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Exact accounting so far.
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        let s = &self.inner.stats;
        let ld = |c: &AtomicU64| c.load(Ordering::Relaxed);
        ServerStats {
            offered: ld(&s.offered),
            admitted: ld(&s.admitted),
            rejected_queue_full: ld(&s.rejected_queue_full),
            rejected_tenant_quota: ld(&s.rejected_tenant_quota),
            rejected_quarantined: ld(&s.rejected_quarantined),
            rejected_shutdown: ld(&s.rejected_shutdown),
            completed: ld(&s.completed),
            done: ld(&s.done),
            static_errors: ld(&s.static_errors),
            failed: ld(&s.failed),
            deadline_exceeded: ld(&s.deadline_exceeded),
            budget_exhausted: ld(&s.budget_exhausted),
            panics_contained: ld(&s.panics_contained),
            abandoned: ld(&s.abandoned),
            durability_lost: ld(&s.durability_lost),
            shed: ld(&s.shed),
            quarantines: ld(&s.quarantines),
            preemptions: ld(&s.preemptions),
        }
    }

    /// The server's telemetry handle.
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.inner.telemetry
    }

    /// Begins a graceful drain without consuming the server: new
    /// offers are shed with [`Rejected::ShuttingDown`], everything
    /// already admitted still completes. Call [`Server::shutdown`]
    /// afterwards to join workers and hosts — on a durable server
    /// each host then flushes a final compaction snapshot, so the
    /// next start replays zero phrases. This is what a SIGTERM
    /// handler should call.
    pub fn initiate_shutdown(&self) {
        {
            let mut st = self.inner.lock();
            st.shutdown = true;
        }
        self.inner.work_cv.notify_all();
    }

    /// Whether durable sessions are armed (the WAL directory opened).
    #[must_use]
    pub fn durable(&self) -> bool {
        self.inner.log.is_some()
    }

    /// Names of every tenant the server knows — those recovered from
    /// the durable directory at start plus those created by
    /// submissions since. Sorted by name.
    #[must_use]
    pub fn tenants(&self) -> Vec<String> {
        self.inner.lock().tenants.keys().cloned().collect()
    }

    /// Stops admitting, completes every already-admitted request,
    /// joins the workers and hosts, and returns the final accounting.
    /// After this, `offered == admitted + rejected` and
    /// `admitted == completed` hold exactly.
    #[must_use]
    pub fn shutdown(mut self) -> ServerStats {
        self.initiate_shutdown();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Workers are gone; dismiss the (idle) hosts.
        let tenants = {
            let mut st = self.inner.lock();
            std::mem::take(&mut st.tenants)
        };
        for (_, t) in tenants {
            if let Some(host) = t.host {
                host.shutdown();
            }
        }
        self.stats()
    }
}

/// Produces the [`DurableCtx`] for a host about to spawn: the parked
/// WAL handle if the tenant still has one, else a re-armed fresh
/// generation carrying the tenant's full in-memory history (the
/// previous handle is unreachable inside an abandoned host thread).
fn arm_durable(log: &DurableLog, t: &mut TenantState, tenant: &str) -> Result<DurableCtx, String> {
    let base = t.base.as_ref().map(|(_, bytes)| bytes.clone());
    if let Some(wal) = t.wal.take() {
        return Ok(DurableCtx { wal, base });
    }
    let snapshot = t.base.as_ref().map(|(seq, bytes)| (*seq, bytes.as_slice()));
    match log.rearm(tenant, snapshot, &t.transcript) {
        Ok(wal) => Ok(DurableCtx { wal, base }),
        Err(e) => Err(e.to_string()),
    }
}

fn worker_main(inner: &Arc<Inner>) {
    loop {
        let tenant = {
            let mut st = inner.lock();
            loop {
                if let Some(name) = st.ready.pop_front() {
                    break name;
                }
                if st.shutdown && st.queued_total == 0 && st.in_flight == 0 {
                    inner.idle_cv.notify_all();
                    inner.work_cv.notify_all();
                    return;
                }
                st = inner
                    .work_cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        drive_round(inner, &tenant);
    }
}

/// One scheduler visit to one tenant: credit a quantum, then feed its
/// current (or next queued) request fuel slices until it completes,
/// preempts, or trips the watchdog.
fn drive_round(inner: &Arc<Inner>, tenant: &str) {
    let cell: Arc<FuelCell>;
    let deadline: Option<Instant>;
    let mut deficit: u64;
    {
        let mut st = inner.lock();
        {
            let Some(t) = st.tenants.get_mut(tenant) else {
                return;
            };
            t.in_ready = false;
            t.driving = true;
            t.deficit =
                (t.deficit + inner.config.quantum).min(inner.config.quantum * DEFICIT_CAP_QUANTA);
        }

        // Start the next queued request if none is mid-flight.
        loop {
            let t = st.tenants.get_mut(tenant).expect("tenant exists: driving");
            if t.current.is_some() {
                break;
            }
            let Some(job) = t.queue.pop_front() else {
                break;
            };
            st.queued_total -= 1;
            if job.deadline.is_some_and(|d| Instant::now() >= d) {
                // Expired while queued: complete without running.
                complete(inner, job, Outcome::DeadlineExceeded, 0);
                strike(inner, &mut st, tenant, 1);
                continue;
            }
            let t = st.tenants.get_mut(tenant).expect("tenant exists: driving");
            if t.host.is_none() {
                let transcript = t.transcript.clone();
                let durable = if let Some(log) = &inner.log {
                    match arm_durable(log, t, tenant) {
                        Ok(ctx) => Some(ctx),
                        Err(error) => {
                            // The WAL cannot be re-armed (disk fault):
                            // refuse to run the request non-durably.
                            complete(inner, job, Outcome::DurabilityLost { error }, 0);
                            strike(inner, &mut st, tenant, 1);
                            continue;
                        }
                    }
                } else {
                    None
                };
                t.host = Some(HostHandle::spawn(
                    tenant,
                    &inner.config,
                    &inner.telemetry,
                    transcript,
                    durable,
                ));
            }
            let host = t.host.as_ref().expect("host just ensured");
            host.cell.reset();
            let (reply_tx, outcome_rx) = mpsc::channel();
            let send = host.cmd_tx.send(HostCmd::Run {
                source: job.source.clone(),
                reply: reply_tx,
            });
            if send.is_err() {
                // The host thread died unexpectedly; drop it (a fresh
                // one is spawned for the next job) and shed this one.
                t.host = None;
                complete(inner, job, shed("session host died"), 0);
                continue;
            }
            t.current = Some(Drive {
                job,
                outcome_rx,
                slices: 0,
            });
            st.in_flight += 1;
        }

        let t = st.tenants.get_mut(tenant).expect("tenant exists: driving");
        let Some(drive) = t.current.as_ref() else {
            // Nothing runnable this visit.
            t.driving = false;
            settle(inner, &mut st, tenant);
            return;
        };
        deadline = drive.job.deadline;
        deficit = t.deficit;
        cell = Arc::clone(&t.host.as_ref().expect("driving implies a host").cell);
    }

    // Fuel-feeding loop, outside the scheduler lock: only this worker
    // touches this tenant's drive (guarded by `driving`).
    let budget = inner.config.fuel_budget;
    loop {
        let drawn = cell.drawn();
        let over_budget = drawn >= budget;
        if over_budget || deadline.is_some_and(|d| Instant::now() >= d) {
            cancel_and_finish(inner, tenant, &cell, over_budget);
            return;
        }
        if deficit == 0 {
            // Preempted: leave the evaluation parked mid-expression,
            // requeue the tenant at the back of the ready ring.
            inner.count(&inner.stats.preemptions, "server.preemptions");
            let mut st = inner.lock();
            if let Some(t) = st.tenants.get_mut(tenant) {
                t.deficit = 0;
                t.driving = false;
            }
            settle(inner, &mut st, tenant);
            return;
        }
        let grant = inner
            .config
            .fuel_slice
            .min(deficit)
            .min(budget.saturating_sub(drawn).max(1));
        cell.grant(grant);
        deficit -= grant;
        {
            let mut st = inner.lock();
            if let Some(t) = st.tenants.get_mut(tenant) {
                t.deficit = deficit;
                if let Some(d) = t.current.as_mut() {
                    d.slices += 1;
                }
            }
        }
        // Wait phase: the slice burns down. No further grants until
        // the host parks (slice fully consumed) or finishes.
        let mut stuck = 0u32;
        loop {
            match cell.wait_quiescent(inner.config.leash) {
                Quiescence::Finished => {
                    finish(inner, tenant, &cell, Outcome::DeadlineExceeded);
                    return;
                }
                Quiescence::Parked => break,
                Quiescence::TimedOut => {
                    // Neither parking nor finishing: a long un-fueled
                    // phase (parse/inference) or a wedged host.
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        cancel_and_finish(inner, tenant, &cell, false);
                        return;
                    }
                    stuck += 1;
                    if stuck >= STUCK_LEASHES {
                        cancel_and_finish(inner, tenant, &cell, false);
                        return;
                    }
                }
            }
        }
    }
}

/// Cooperative cancellation with the watchdog backstop: cancel the
/// cell, give the host one leash to unwind (it restores the snapshot
/// and reports), and abandon it if it still does not react.
fn cancel_and_finish(inner: &Arc<Inner>, tenant: &str, cell: &Arc<FuelCell>, over_budget: bool) {
    cell.cancel();
    if cell.wait_quiescent(inner.config.leash) == Quiescence::Finished {
        let cancelled = if over_budget {
            Outcome::BudgetExhausted
        } else {
            Outcome::DeadlineExceeded
        };
        finish(inner, tenant, cell, cancelled);
    } else {
        // Second stage: the host ignored cancellation — it is wedged
        // outside fueled evaluation. Abandon the thread, quarantine
        // the tenant; its session is rebuilt from the transcript on
        // next use.
        abandon(inner, tenant, cell);
    }
}

/// The host finished: takes the tenant's in-flight drive, receives the
/// host's report, maps it to an [`Outcome`] and applies the
/// completion. A failure the cancel caused maps to `cancelled`, which
/// says who cancelled (the deadline or the fuel budget).
fn finish(inner: &Arc<Inner>, tenant: &str, cell: &Arc<FuelCell>, cancelled: Outcome) {
    let fuel = cell.drawn();
    let mut st = inner.lock();
    let Some(t) = st.tenants.get_mut(tenant) else {
        return;
    };
    let Some(drive) = t.current.take() else {
        t.driving = false;
        settle(inner, &mut st, tenant);
        return;
    };
    st.in_flight -= 1;
    let outcome = match drive.outcome_rx.recv_timeout(inner.config.leash).ok() {
        // The usual case after a cancel: the evaluation hit it at its
        // next tick and the host rolled the session back.
        Some(HostOutcome::Failed {
            cancelled: true, ..
        }) => cancelled,
        // Otherwise honor the host's report, even when it finished in
        // the instant the deadline tripped: it reflects what actually
        // happened to the session.
        Some(HostOutcome::Done { rendered }) => Outcome::Done { rendered },
        Some(HostOutcome::Static { error }) => Outcome::Static { error },
        Some(HostOutcome::Failed { error, .. }) => Outcome::Failed { error },
        Some(HostOutcome::Panicked) => Outcome::Panicked,
        Some(HostOutcome::DurabilityLost { error }) => Outcome::DurabilityLost { error },
        None => Outcome::Abandoned,
    };
    apply_completion(inner, &mut st, tenant, drive, outcome, fuel);
}

/// Watchdog abandon: detach the wedged host thread, quarantine the
/// tenant, complete the request as [`Outcome::Abandoned`].
fn abandon(inner: &Arc<Inner>, tenant: &str, cell: &Arc<FuelCell>) {
    let fuel = cell.drawn();
    inner.telemetry.counter_add("server.watchdog_abandoned", 1);
    let mut st = inner.lock();
    let Some(t) = st.tenants.get_mut(tenant) else {
        return;
    };
    if let Some(host) = t.host.take() {
        host.abandon();
    }
    let Some(drive) = t.current.take() else {
        t.driving = false;
        settle(inner, &mut st, tenant);
        return;
    };
    st.in_flight -= 1;
    apply_completion(inner, &mut st, tenant, drive, Outcome::Abandoned, fuel);
}

/// Applies one completion under the scheduler lock: commit or strike,
/// quarantine if warranted, deliver the [`Completion`], and settle
/// the tenant's scheduling state.
fn apply_completion(
    inner: &Arc<Inner>,
    st: &mut MutexGuard<'_, SchedState>,
    tenant: &str,
    drive: Drive,
    outcome: Outcome,
    fuel: u64,
) {
    let t = st
        .tenants
        .get_mut(tenant)
        .expect("tenant exists while completing");
    let mut strikes = 0u32;
    let mut quarantine_now = false;
    match &outcome {
        Outcome::Done { .. } => {
            t.transcript.push(drive.job.source.clone());
            t.strikes = 0;
        }
        // Static errors never ran and cannot poison a session; shed
        // requests never ran either.
        Outcome::Static { .. } | Outcome::Shed { .. } => {}
        Outcome::Failed { .. }
        | Outcome::DeadlineExceeded
        | Outcome::BudgetExhausted
        | Outcome::DurabilityLost { .. } => {
            strikes = 1;
        }
        Outcome::Panicked | Outcome::Abandoned => {
            quarantine_now = true;
        }
    }
    inner
        .telemetry
        .histogram_record("server.slices_per_request", drive.slices);
    complete(inner, drive.job, outcome, fuel);
    if quarantine_now {
        quarantine(inner, st, tenant);
    } else if strikes > 0 {
        strike(inner, st, tenant, strikes);
    }
    if let Some(t) = st.tenants.get_mut(tenant) {
        t.driving = false;
    }
    settle(inner, st, tenant);
}

/// Adds failure strikes, quarantining at the configured threshold.
fn strike(inner: &Arc<Inner>, st: &mut MutexGuard<'_, SchedState>, tenant: &str, n: u32) {
    let Some(t) = st.tenants.get_mut(tenant) else {
        return;
    };
    t.strikes += n;
    if t.strikes >= inner.config.quarantine_after {
        quarantine(inner, st, tenant);
    }
}

/// Quarantines a tenant: refuse new admissions for the cooldown and
/// shed everything it still has queued. Other tenants are untouched.
fn quarantine(inner: &Arc<Inner>, st: &mut MutexGuard<'_, SchedState>, tenant: &str) {
    inner.count(&inner.stats.quarantines, "server.quarantined");
    let Some(t) = st.tenants.get_mut(tenant) else {
        return;
    };
    t.quarantined_until = Some(Instant::now() + inner.config.quarantine_cooldown);
    t.strikes = 0;
    let shed_jobs: Vec<Job> = t.queue.drain(..).collect();
    st.queued_total -= shed_jobs.len();
    for job in shed_jobs {
        complete(inner, job, shed("tenant quarantined"), 0);
    }
}

fn shed(reason: &str) -> Outcome {
    Outcome::Shed {
        reason: reason.to_string(),
    }
}

/// Delivers the terminal [`Completion`] for one admitted request and
/// bumps the outcome counters. Called exactly once per admitted job.
fn complete(inner: &Arc<Inner>, job: Job, outcome: Outcome, fuel: u64) {
    let latency = job.enqueued.elapsed();
    let (cell, metric) = match &outcome {
        Outcome::Done { .. } => (&inner.stats.done, "server.done"),
        Outcome::Static { .. } => (&inner.stats.static_errors, "server.static_errors"),
        Outcome::Failed { .. } => (&inner.stats.failed, "server.failed"),
        Outcome::DeadlineExceeded => (&inner.stats.deadline_exceeded, "server.deadline_exceeded"),
        Outcome::BudgetExhausted => (&inner.stats.budget_exhausted, "server.budget_exhausted"),
        Outcome::Panicked => (&inner.stats.panics_contained, "server.panics_contained"),
        Outcome::Abandoned => (&inner.stats.abandoned, "server.abandoned"),
        Outcome::DurabilityLost { .. } => (&inner.stats.durability_lost, "server.durability_lost"),
        Outcome::Shed { .. } => (&inner.stats.shed, "server.shed"),
    };
    inner.count(cell, metric);
    inner.count(&inner.stats.completed, "server.completed");
    inner.telemetry.histogram_record(
        "server.latency_us",
        u64::try_from(latency.as_micros()).unwrap_or(u64::MAX),
    );
    let _ = job.reply.send(Completion {
        id: job.id,
        tenant: job.tenant.clone(),
        outcome,
        latency,
        fuel_drawn: fuel,
    });
}

/// Re-queues a tenant that still has work and wakes whoever needs to
/// know the scheduler's shape changed.
fn settle(inner: &Arc<Inner>, st: &mut MutexGuard<'_, SchedState>, tenant: &str) {
    let mut notify_work = false;
    if let Some(t) = st.tenants.get_mut(tenant) {
        let quarantined = t
            .quarantined_until
            .is_some_and(|until| Instant::now() < until);
        let has_work = t.current.is_some() || !t.queue.is_empty();
        if has_work && !t.in_ready && !t.driving && !quarantined {
            t.in_ready = true;
            st.ready.push_back(tenant.to_string());
            notify_work = true;
        }
    }
    if st.queued_total == 0 && st.in_flight == 0 {
        inner.idle_cv.notify_all();
        if st.shutdown {
            inner.work_cv.notify_all();
        }
    }
    if notify_work {
        inner.work_cv.notify_one();
    }
}
