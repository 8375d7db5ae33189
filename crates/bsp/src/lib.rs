//! A deterministic Bulk Synchronous Parallel machine simulator and
//! cost model (paper §2).
//!
//! The paper's BSMLlib ran on OCaml + MPI clusters; this crate is the
//! substitution documented in `DESIGN.md`: a simulator whose `p`
//! logical processors execute mini-BSML programs SPMD-style over the
//! `bsml-eval` big-step evaluator, charging exactly the BSP cost
//! expression
//!
//! ```text
//! Time(s) = max_i w_i^(s)  +  g · max_i h_i^(s)  +  l        per superstep
//! Total   = W + H·g + S·l
//! ```
//!
//! * local work `w_i` is counted in evaluator reduction steps,
//! * `h_i = max(h_i⁺, h_i⁻)` is measured in words
//!   ([`bsml_eval::Value::size_in_words`]) at every `put` and
//!   `if‥at‥` barrier,
//! * the machine parameters *(p, g, l)* come from a [`BspParams`]
//!   profile.
//!
//! [`formulas`] provides the closed-form costs the paper states —
//! equation (1) for `bcast` first — so experiments can compare
//! measured against predicted.
//!
//! ```
//! use bsml_bsp::{BspMachine, BspParams};
//! use bsml_syntax::parse;
//!
//! let machine = BspMachine::new(BspParams::new(4, 10, 200));
//! let report = machine.run(&parse(
//!     "let recv = put (mkpar (fun j -> fun i -> j)) in
//!      apply (recv, mkpar (fun i -> 0))")?)?;
//! assert_eq!(report.value.to_string(), "<|0, 0, 0, 0|>");
//! assert_eq!(report.cost.supersteps, 1); // one put barrier
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod checkpoint;
pub mod cost;
pub mod distributed;
mod exchange;
pub mod faults;
mod finish;
mod fleet;
pub mod formulas;
pub mod hooks;
mod link;
pub mod machine;
pub mod postmortem;
pub mod process;
mod rank;
mod spmd;
pub mod storage;
pub mod supervisor;
pub mod symbolic;
pub mod trace;
pub mod transport;
pub mod wire;

pub use checkpoint::{
    CheckpointError, CheckpointPolicy, CheckpointStore, FileStore, MemoryStore, RankFrame,
    ResumePoint, SyncOutcome,
};
pub use cost::{Barrier, Cost, CostSummary, SuperstepRecord};
pub use distributed::{
    DistMachine, DistOutcome, Execution, BARRIER_TIMEOUT_ENV, FLIGHT_CAPACITY_ENV,
};
pub use faults::{Fault, FaultKind, FaultPlan, LinkFault, LinkFaultKind};
pub use fleet::FleetPool;
pub use hooks::BspCostHooks;
pub use machine::{BspMachine, BspParams, RunReport};
pub use postmortem::{
    Analysis, CausalViolation, FailureReport, FlightLog, PostmortemBundle, PostmortemError,
    RankFlightLog, SuperstepObservation,
};
pub use process::{
    validate_rejoin, KillSpec, ProcessConfig, RANK_BIN_ENV, RANK_FINGERPRINT_ENV, RANK_ID_ENV,
    RANK_P_ENV, RANK_SOCKET_ENV,
};
pub use storage::{Disk, StorageError, StorageFault, StorageFaultKind, StorageOp, StoragePlan};
pub use supervisor::{
    backoff_delay, RecordingSleeper, Sleeper, SupervisedOutcome, Supervisor, ThreadSleeper,
    POSTMORTEM_DIR_ENV,
};
pub use transport::{Bind, Listener, RankStream};
pub use wire::{Frame, FramePayload};

/// Locks a mutex, recovering the guard if a holder panicked: every
/// mutex in this crate guards counters, queues, maps or logs that stay
/// valid across a peer's panic.
pub(crate) fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
