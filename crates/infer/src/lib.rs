//! Constraint-carrying polymorphic type inference for mini-BSML — the
//! paper's §4, as an executable algorithm.
//!
//! The inference engine is Damas–Milner extended along the paper's
//! three axes:
//!
//! 1. every type introduction carries its *basic constraints* `C_τ`
//!    (rule *(Fun)*, and Definition 1 wherever a rule reads a judgment
//!    whose type variables unification linked since it was stored),
//! 2. the initial environment `TC` (Figure 6) equips the primitives
//!    with constrained schemes (`mkpar : ∀α.[(int→α)→α par / L(α)]`,
//!    `fst : ∀αβ.[(α*β)→α / L(α)⇒L(β)]`, …),
//! 3. the rules *(Let)* and *(Ifat)* add their locality side
//!    conditions `L(τ₂) ⇒ L(τ₁)` and `L(τ) ⇒ False`.
//!
//! Whenever the accumulated constraint *solves to `False`* the program
//! is rejected — this is what catches all of §2.1's examples, nested
//! vectors invisible in the plain ML type included.
//!
//! ```
//! use bsml_infer::infer;
//! use bsml_syntax::parse;
//!
//! // Figure 9: fst (mkpar (fun i -> i), 1) is accepted at `int par`…
//! let ok = infer(&parse("fst (mkpar (fun i -> i), 1)")?)?;
//! assert_eq!(ok.ty.to_string(), "int par");
//!
//! // …Figure 10: fst (1, mkpar (fun i -> i)) is rejected.
//! assert!(infer(&parse("fst (1, mkpar (fun i -> i))")?).is_err());
//!
//! // example2: the nesting invisible in the ML type is rejected too.
//! let e2 = parse("mkpar (fun pid -> let this = mkpar (fun i -> i) in pid)")?;
//! assert!(infer(&e2).is_err());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod derivation;
pub mod env;
pub mod error;
pub mod infer;

pub use derivation::Derivation;
pub use env::{initial_env, TypeEnv};
pub use error::TypeError;
pub use infer::{infer, infer_in, Inference, Inferencer};
