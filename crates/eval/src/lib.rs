//! Dynamic semantics of mini-BSML (paper §3).
//!
//! Two evaluators are provided:
//!
//! * [`smallstep`] — the literal small-step machine of the paper:
//!   head reductions `ε`, the δ-rules of Figures 1 and 2, and the
//!   evaluation contexts `Γ` (global) and `Γ_l` (local, inside a
//!   parallel vector component) of Figure 5. Parallel primitives are
//!   *stuck* inside a vector component, exactly as in the paper —
//!   this is the dynamic face of the nesting restriction.
//! * [`bigstep`] — an efficient environment-based evaluator used to
//!   actually run programs, drive the BSP simulator (`bsml-bsp`), and
//!   serve as an independent oracle for the small-step machine.
//!
//! ```
//! use bsml_eval::{bigstep::eval_closed, smallstep::run};
//! use bsml_syntax::parse;
//!
//! let e = parse("apply (mkpar (fun i -> fun x -> x + i), mkpar (fun i -> i * 10))")?;
//! let p = 4;
//! let v = eval_closed(&e, p)?;
//! assert_eq!(v.to_string(), "<|0, 11, 22, 33|>");
//!
//! // The small-step machine agrees.
//! let normal = run(&e, p, 10_000)?;
//! assert_eq!(normal.to_string(), "<|0, 11, 22, 33|>");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod bigstep;
pub mod bytes;
pub mod driver;
pub mod env;
pub mod error;
pub mod fuel;
pub mod hooks;
pub mod persist;
pub mod smallstep;
pub mod trail;
pub mod value;

pub use bigstep::{eval_closed, Evaluator};
pub use bytes::{ByteReader, CodecError};
pub use driver::{Applier, GlobalDriver, ParallelDriver};
pub use env::Env;
pub use error::EvalError;
pub use fuel::{FuelCell, Quiescence};
pub use hooks::{CountingHooks, EvalHooks, Mode, NoHooks};
pub use smallstep::{run, step, StepOutcome};
pub use trail::{Mark, Trail};
pub use value::Value;
