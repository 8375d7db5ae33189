//! Request/response vocabulary of the session server.

use std::fmt;
use std::sync::mpsc;
use std::time::Duration;

/// Identifies one admitted request, unique per server.
pub type RequestId = u64;

/// Why an offered request was *not* admitted. Shedding is always
/// typed — the server never buffers beyond its configured bounds, so
/// a caller can tell "back off" ([`Rejected::QueueFull`],
/// [`Rejected::TenantQuota`]) from "this tenant is sick"
/// ([`Rejected::Quarantined`]) from "stop entirely"
/// ([`Rejected::ShuttingDown`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Rejected {
    /// The global admission queue is at its configured depth.
    QueueFull,
    /// This tenant already has its full quota of queued requests.
    TenantQuota,
    /// The tenant is serving a quarantine cooldown after poisoning
    /// its session (panic, watchdog abandon, or repeated failures).
    Quarantined,
    /// The server is shutting down and admits nothing new.
    ShuttingDown,
}

impl fmt::Display for Rejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejected::QueueFull => f.write_str("admission queue full"),
            Rejected::TenantQuota => f.write_str("tenant queue quota exhausted"),
            Rejected::Quarantined => f.write_str("tenant is quarantined"),
            Rejected::ShuttingDown => f.write_str("server is shutting down"),
        }
    }
}

impl std::error::Error for Rejected {}

/// How an *admitted* request ended. Every admitted request produces
/// exactly one [`Completion`]; nothing is silently dropped.
///
/// Requests are transactional: on anything but [`Outcome::Done`] the
/// tenant's session is rolled back to its pre-request snapshot, so a
/// failed or shed request leaves no trace in the session.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Every phrase parsed, typechecked, and evaluated; the session
    /// state advanced and the request joined the tenant's history.
    Done {
        /// Rendered `name : scheme = value` summaries, one per phrase.
        rendered: Vec<String>,
    },
    /// A parse or type error — nothing ran, session unchanged.
    Static {
        /// The rendered static error.
        error: String,
    },
    /// A phrase failed dynamically (division by zero, dynamic
    /// nesting, …); the whole request was rolled back.
    Failed {
        /// The rendered evaluation error.
        error: String,
    },
    /// The per-request wall-clock deadline passed; the evaluation was
    /// cancelled cooperatively and rolled back.
    DeadlineExceeded,
    /// The per-request fuel budget was exhausted; cancelled and
    /// rolled back (the phrase likely diverges).
    BudgetExhausted,
    /// The phrase panicked its host thread; the panic was contained,
    /// the session restored from its pre-request snapshot, and the
    /// tenant struck towards quarantine.
    Panicked,
    /// The watchdog abandoned a host that stopped drawing fuel even
    /// after cancellation; the tenant is quarantined and its session
    /// will be rebuilt from its history on next use.
    Abandoned,
    /// The phrase evaluated, but its write-ahead-log append failed
    /// (disk fault), so the result was rolled back rather than
    /// reported as durable when it is not. The session is unchanged;
    /// retry once the disk recovers.
    DurabilityLost {
        /// The rendered storage error.
        error: String,
    },
    /// The request was admitted but shed before (or instead of)
    /// running — its tenant got quarantined behind it, or the server
    /// drained on shutdown.
    Shed {
        /// Why it was shed.
        reason: String,
    },
}

impl Outcome {
    /// `true` only for [`Outcome::Done`].
    #[must_use]
    pub fn is_success(&self) -> bool {
        matches!(self, Outcome::Done { .. })
    }
}

/// The terminal record of one admitted request.
#[derive(Clone, Debug)]
pub struct Completion {
    /// The request this completes.
    pub id: RequestId,
    /// The tenant it ran for.
    pub tenant: String,
    /// How it ended.
    pub outcome: Outcome,
    /// Admission-to-completion wall time.
    pub latency: Duration,
    /// Fuel actually drawn by the evaluation (0 if it never ran).
    pub fuel_drawn: u64,
}

/// A claim ticket for an admitted request: redeem with
/// [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket {
    /// The admitted request's id.
    pub id: RequestId,
    pub(crate) rx: mpsc::Receiver<Completion>,
}

impl Ticket {
    /// Blocks until the request completes. Infallible by
    /// construction: the server delivers exactly one [`Completion`]
    /// per admitted request, even across panics and shutdown.
    #[must_use]
    pub fn wait(self) -> Completion {
        self.rx
            .recv()
            .expect("the server completes every admitted request")
    }

    /// Non-blocking poll; `None` while the request is still in
    /// flight.
    #[must_use]
    pub fn try_wait(&self) -> Option<Completion> {
        self.rx.try_recv().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejections_render() {
        assert_eq!(Rejected::QueueFull.to_string(), "admission queue full");
        assert!(Rejected::Quarantined.to_string().contains("quarantined"));
    }

    #[test]
    fn only_done_is_success() {
        assert!(Outcome::Done { rendered: vec![] }.is_success());
        for o in [
            Outcome::Static {
                error: String::new(),
            },
            Outcome::Failed {
                error: String::new(),
            },
            Outcome::DeadlineExceeded,
            Outcome::BudgetExhausted,
            Outcome::Panicked,
            Outcome::Abandoned,
            Outcome::DurabilityLost {
                error: String::new(),
            },
            Outcome::Shed {
                reason: String::new(),
            },
        ] {
            assert!(!o.is_success());
        }
    }
}
