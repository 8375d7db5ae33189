//! Server tuning: every bound the admission controller and scheduler
//! enforce lives here, explicit and finite.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use bsml_bsp::{BspParams, Disk};

/// All the knobs of a [`crate::Server`]. Defaults are deliberately
/// small: a server that sheds early under test load is one whose
/// shedding paths are actually exercised.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// BSP machine parameters for every tenant session.
    pub params: BspParams,
    /// Worker threads driving fuel slices (not hosting sessions —
    /// each tenant session lives on its own dedicated host thread).
    pub workers: usize,
    /// Global admission-queue bound across all tenants.
    pub queue_depth: usize,
    /// Per-tenant bound on queued requests.
    pub tenant_quota: usize,
    /// Per-request wall-clock deadline, measured from admission;
    /// `None` disables.
    pub deadline: Option<Duration>,
    /// Fuel units granted per slice — the preemption granularity.
    pub fuel_slice: u64,
    /// Deficit-round-robin quantum: fuel credited to a tenant each
    /// time the scheduler visits it.
    pub quantum: u64,
    /// Hard fuel budget per request; exceeding it cancels the
    /// evaluation ([`crate::Outcome::BudgetExhausted`]).
    pub fuel_budget: u64,
    /// Watchdog leash: how long a worker waits for a host to either
    /// park or finish before concluding it stopped ticking. Two
    /// consecutive leashes (cancel, then abandon) bound how long a
    /// stuck host can hold a worker.
    pub leash: Duration,
    /// Consecutive failed requests before a tenant is quarantined.
    pub quarantine_after: u32,
    /// How long a quarantined tenant is refused admission.
    pub quarantine_cooldown: Duration,
    /// Directory for per-tenant write-ahead logs; `None` (the
    /// default) keeps sessions in-memory only.
    pub durable_dir: Option<PathBuf>,
    /// Commits between a tenant host's session snapshots, durable or
    /// not: a rebuilt host, or recovery, replays at most this many
    /// phrases per tenant.
    pub snapshot_every: u64,
    /// The storage backend all durable I/O goes through. The default
    /// passthrough disk does real I/O; tests inject fault plans here.
    pub disk: Arc<Disk>,
}

impl ServerConfig {
    /// Defaults for `p`-processor tenant machines.
    #[must_use]
    pub fn new(params: BspParams) -> ServerConfig {
        ServerConfig {
            params,
            workers: 4,
            queue_depth: 256,
            tenant_quota: 32,
            deadline: Some(Duration::from_secs(2)),
            fuel_slice: 20_000,
            quantum: 100_000,
            fuel_budget: 5_000_000,
            leash: Duration::from_secs(2),
            quarantine_after: 3,
            quarantine_cooldown: Duration::from_secs(5),
            durable_dir: None,
            snapshot_every: 8,
            disk: Arc::new(Disk::new()),
        }
    }

    /// Overrides the worker count (clamped to at least 1).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> ServerConfig {
        self.workers = workers.max(1);
        self
    }

    /// Overrides the global queue depth (clamped to at least 1).
    #[must_use]
    pub fn with_queue_depth(mut self, depth: usize) -> ServerConfig {
        self.queue_depth = depth.max(1);
        self
    }

    /// Overrides the per-tenant quota (clamped to at least 1).
    #[must_use]
    pub fn with_tenant_quota(mut self, quota: usize) -> ServerConfig {
        self.tenant_quota = quota.max(1);
        self
    }

    /// Overrides (or with `None`, disables) the per-request deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Option<Duration>) -> ServerConfig {
        self.deadline = deadline;
        self
    }

    /// Overrides the fuel slice and DRR quantum together, keeping the
    /// invariant `quantum >= slice` that makes a scheduler visit
    /// always worth at least one grant.
    #[must_use]
    pub fn with_fuel_slice(mut self, slice: u64, quantum: u64) -> ServerConfig {
        self.fuel_slice = slice.max(1);
        self.quantum = quantum.max(self.fuel_slice);
        self
    }

    /// Overrides the per-request fuel budget.
    #[must_use]
    pub fn with_fuel_budget(mut self, budget: u64) -> ServerConfig {
        self.fuel_budget = budget.max(1);
        self
    }

    /// Overrides the watchdog leash.
    #[must_use]
    pub fn with_leash(mut self, leash: Duration) -> ServerConfig {
        self.leash = leash;
        self
    }

    /// Overrides the quarantine policy.
    #[must_use]
    pub fn with_quarantine(mut self, after: u32, cooldown: Duration) -> ServerConfig {
        self.quarantine_after = after.max(1);
        self.quarantine_cooldown = cooldown;
        self
    }

    /// Arms durable sessions: per-tenant WALs under `dir`.
    #[must_use]
    pub fn with_durable_dir(mut self, dir: impl Into<PathBuf>) -> ServerConfig {
        self.durable_dir = Some(dir.into());
        self
    }

    /// Overrides the snapshot interval (clamped to at least 1).
    #[must_use]
    pub fn with_snapshot_every(mut self, every: u64) -> ServerConfig {
        self.snapshot_every = every.max(1);
        self
    }

    /// Injects a storage backend (typically one armed with a
    /// [`bsml_bsp::StoragePlan`] of faults) under all durable I/O.
    #[must_use]
    pub fn with_storage(mut self, disk: Arc<Disk>) -> ServerConfig {
        self.disk = disk;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_clamp() {
        let c = ServerConfig::new(BspParams::new(2, 1, 10))
            .with_workers(0)
            .with_queue_depth(0)
            .with_tenant_quota(0)
            .with_fuel_slice(0, 0)
            .with_fuel_budget(0)
            .with_quarantine(0, Duration::from_secs(1))
            .with_snapshot_every(0)
            .with_durable_dir("/tmp/bsml-durable");
        assert_eq!(c.workers, 1);
        assert_eq!(c.queue_depth, 1);
        assert_eq!(c.tenant_quota, 1);
        assert_eq!(c.fuel_slice, 1);
        assert!(c.quantum >= c.fuel_slice);
        assert_eq!(c.fuel_budget, 1);
        assert_eq!(c.quarantine_after, 1);
        assert_eq!(c.snapshot_every, 1);
        assert_eq!(c.durable_dir, Some(PathBuf::from("/tmp/bsml-durable")));
    }
}
