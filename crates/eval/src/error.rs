//! Evaluation errors.

use std::fmt;

use bsml_ast::{Ident, Op};

/// A runtime error.
///
/// A *well-typed* closed program only ever produces
/// [`EvalError::OutOfFuel`] / [`EvalError::RecursionLimit`] (if it
/// diverges or recurses too deep), [`EvalError::DivisionByZero`]
/// (arithmetic partiality the type system does not track), or
/// [`EvalError::IncoherentReplicas`] (the §6 imperative extension's
/// dynamic check). The remaining variants witness ill-typed programs
/// and are exercised by the soundness test-suite on purpose.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvalError {
    /// A free variable was reached.
    Unbound(Ident),
    /// A non-function was applied.
    NotAFunction(String),
    /// A primitive received an argument outside its δ-rules.
    DeltaMismatch(Op, String),
    /// `if` scrutinee was not a boolean, `case` scrutinee not a sum, …
    ScrutineeMismatch(&'static str, String),
    /// Integer division or remainder by zero.
    DivisionByZero,
    /// A parallel primitive or vector was evaluated *inside* a
    /// parallel vector component — dynamic nesting, the very thing
    /// the type system rejects statically (paper §2.1).
    NestedParallelism,
    /// `if‥at‥` was asked for a process id outside `0‥p-1`.
    PidOutOfRange(i64, usize),
    /// The step/fuel budget ran out (the program may diverge).
    OutOfFuel,
    /// The evaluation was cancelled from outside through its
    /// [`crate::FuelCell`] (deadline enforcement, load shedding, or
    /// shutdown). Unlike [`EvalError::OutOfFuel`] this says nothing
    /// about the program — the scheduler pulled the plug.
    Cancelled,
    /// Non-tail recursion nested deeper than the evaluator's limit.
    RecursionLimit,
    /// A message sent through `put` (or a final result gathered by
    /// the distributed machine) contained a value with no serialized
    /// form — a closure, a delivered-messages table, or a reference
    /// cell. Real BSMLlib has the same restriction (OCaml
    /// marshalling).
    NotSerializable(String),
    /// Another processor of the distributed machine failed; this
    /// processor was released from a synchronization barrier without
    /// its data. The originating processor reports the real error.
    PeerFailure,
    /// A synchronization barrier wait exceeded the distributed
    /// machine's watchdog timeout: `waiting` processors had arrived
    /// at the barrier of superstep `superstep`, the rest never came.
    /// Surfaces a stalled (or deadlocked) peer as an error instead of
    /// hanging the run forever.
    BarrierTimeout {
        /// The superstep whose barrier timed out.
        superstep: u64,
        /// How many processors were waiting when the watchdog fired.
        waiting: usize,
    },
    /// A fault-injection plan (`bsml-bsp::faults`) deliberately
    /// crashed this processor — only ever produced under test
    /// harnesses, never by real programs.
    InjectedFault {
        /// The processor that was crashed.
        rank: usize,
        /// The superstep at which the crash was injected.
        superstep: u64,
    },
    /// A reference cell was read or written from an execution mode
    /// incompatible with where it was created — a replicated (global)
    /// cell assigned inside one vector component, or a processor-local
    /// cell touched elsewhere. This is the incoherence the paper's §6
    /// "imperative features" discussion describes.
    IncoherentReplicas(&'static str),
    /// A checkpoint-resumed replay diverged from the state the
    /// checkpoint recorded (fuel fingerprint mismatch, or a recorded
    /// communication outcome that does not fit the replayed program).
    /// The checkpoint is unusable; recovery falls back to a full
    /// restart — never to the possibly-wrong resumed state.
    CheckpointDiverged {
        /// The processor whose replay diverged.
        rank: usize,
        /// The superstep at which the divergence was detected.
        superstep: u64,
        /// What went wrong, for diagnostics.
        detail: String,
    },
    /// The message transport failed: an exchange received a frame it
    /// cannot accept (undecodable, from a non-peer, surplus, or out of
    /// sequence), or a rank process died or could not be launched.
    TransportFailure {
        /// The processor whose exchange failed, or the rank that died.
        rank: usize,
        /// The superstep whose communication phase failed.
        superstep: u64,
        /// What failed: the frame the exchange refused, or how the
        /// rank process died.
        detail: String,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Unbound(x) => write!(f, "unbound variable `{x}`"),
            EvalError::NotAFunction(v) => {
                write!(f, "cannot apply non-function value `{v}`")
            }
            EvalError::DeltaMismatch(op, v) => {
                write!(f, "no δ-rule for `{op}` applied to `{v}`")
            }
            EvalError::ScrutineeMismatch(what, v) => {
                write!(f, "{what} scrutinee has unexpected value `{v}`")
            }
            EvalError::DivisionByZero => f.write_str("division by zero"),
            EvalError::NestedParallelism => f.write_str(
                "nested parallelism: a parallel primitive was evaluated inside \
                 a parallel vector component",
            ),
            EvalError::PidOutOfRange(n, p) => {
                write!(f, "process id {n} outside the machine size 0..{p}")
            }
            EvalError::OutOfFuel => f.write_str("evaluation fuel exhausted"),
            EvalError::Cancelled => f.write_str("evaluation cancelled by the scheduler"),
            EvalError::RecursionLimit => {
                f.write_str("non-tail recursion exceeded the evaluator depth limit")
            }
            EvalError::IncoherentReplicas(what) => {
                write!(f, "incoherent replicated reference: {what}")
            }
            EvalError::NotSerializable(v) => {
                write!(f, "value `{v}` has no serialized form for communication")
            }
            EvalError::PeerFailure => f.write_str("another processor failed during a superstep"),
            EvalError::BarrierTimeout { superstep, waiting } => write!(
                f,
                "barrier watchdog timeout at superstep {superstep}: \
                 {waiting} processor(s) arrived, the rest stalled"
            ),
            EvalError::InjectedFault { rank, superstep } => write!(
                f,
                "injected fault: processor {rank} crashed at superstep {superstep}"
            ),
            EvalError::CheckpointDiverged {
                rank,
                superstep,
                detail,
            } => write!(
                f,
                "checkpoint resume diverged on processor {rank} at superstep {superstep}: {detail}"
            ),
            EvalError::TransportFailure {
                rank,
                superstep,
                detail,
            } => write!(
                f,
                "transport failure on processor {rank} at superstep {superstep}: {detail}"
            ),
        }
    }
}

impl std::error::Error for EvalError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert_eq!(
            EvalError::Unbound(Ident::new("x")).to_string(),
            "unbound variable `x`"
        );
        assert!(EvalError::NestedParallelism.to_string().contains("nested"));
        assert!(EvalError::PidOutOfRange(7, 4).to_string().contains("7"));
        assert!(EvalError::DeltaMismatch(Op::Add, "true".into())
            .to_string()
            .contains("(+)"));
        let timeout = EvalError::BarrierTimeout {
            superstep: 3,
            waiting: 2,
        };
        assert!(timeout.to_string().contains("superstep 3"));
        assert!(timeout.to_string().contains("2 processor(s)"));
        let fault = EvalError::InjectedFault {
            rank: 1,
            superstep: 0,
        };
        assert!(fault.to_string().contains("processor 1"));
        let diverged = EvalError::CheckpointDiverged {
            rank: 2,
            superstep: 5,
            detail: "fuel fingerprint mismatch".into(),
        };
        assert!(diverged.to_string().contains("processor 2"));
        assert!(diverged.to_string().contains("superstep 5"));
        assert!(diverged.to_string().contains("fuel fingerprint"));
    }
}
