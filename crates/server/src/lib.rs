//! `bsml-serve`: an overload-safe, multi-tenant front end for
//! interactive mini-BSML sessions.
//!
//! The paper's type system makes each *phrase* safe; this crate makes
//! a *fleet of sessions* safe to operate: many tenants share one
//! bounded worker pool, and no tenant — however hostile its programs
//! (divergent loops, panics, quota floods) — can starve, wedge, or
//! crash its neighbors.
//!
//! Built entirely on the standard library (no async runtime), around
//! four mechanisms:
//!
//! * **Typed admission control** — a bounded global queue plus
//!   per-tenant quotas; overload sheds *at the door* with a typed
//!   [`Rejected`], never by buffering without bound.
//! * **Fuel-sliced cooperative preemption** — sessions evaluate
//!   through a shared [`bsml_eval::FuelCell`], drawing fuel in
//!   scheduler-granted slices. A divergent phrase simply stops
//!   receiving grants; between grants it is parked mid-expression on
//!   its own host thread, fully resumable.
//! * **Deficit-round-robin fairness** — fuel is the scheduling
//!   currency; each ready tenant earns one quantum per scheduler
//!   visit, so heavy tenants are preempted and light tenants never
//!   starve.
//! * **Crash containment** — panics are caught at the host boundary
//!   and the session restored from its pre-request snapshot; hosts
//!   that stop ticking are cancelled, then abandoned by the watchdog;
//!   repeat offenders are quarantined behind a cooldown, and their
//!   sessions rebuilt deterministically from their history: the newest
//!   snapshot their host took plus the requests committed after it.
//!
//! ```
//! use bsml_bsp::BspParams;
//! use bsml_obs::Telemetry;
//! use bsml_serve::{Outcome, Server, ServerConfig};
//!
//! let server = Server::start(
//!     ServerConfig::new(BspParams::new(2, 1, 10)),
//!     Telemetry::disabled(),
//! );
//! let ticket = server.submit("alice", "let x = mkpar (fun i -> i * 21)")?;
//! let done = ticket.wait();
//! assert!(matches!(done.outcome, Outcome::Done { .. }));
//! let stats = server.shutdown();
//! assert_eq!(stats.offered, stats.admitted + stats.rejected());
//! assert_eq!(stats.admitted, stats.completed);
//! # Ok::<(), bsml_serve::Rejected>(())
//! ```

pub mod config;
mod host;
pub mod server;
pub mod types;
pub mod wal;

pub use config::ServerConfig;
pub use server::{Server, ServerStats};
pub use types::{Completion, Outcome, Rejected, RequestId, Ticket};
pub use wal::{frame_record, scan_records, DurableLog, RecoveredTenant, TenantWal, WalRecord};
