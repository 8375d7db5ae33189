//! Type algebra and locality constraints for BSML — the static
//! semantics machinery of §4 of *A Polymorphic Type System for Bulk
//! Synchronous Parallel ML* (Gava & Loulergue, 2003).
//!
//! The crate provides, in paper order:
//!
//! * [`Type`] — simple types `τ ::= κ | α | τ→τ | τ*τ | (τ par)`
//!   (plus the §6 extensions: sums and lists),
//! * [`locality()`] — the locality predicate `L(τ)` and the *basic
//!   constraints* `C_τ`,
//! * [`classify`] — the paper's three sub-grammars of simple types:
//!   local types **L**, variable types **V** and global types **G**,
//! * [`Constraint`] — constraint formulas
//!   `C ::= True | False | L(α) | C∧C | C⇒C` and the decidable
//!   [`Constraint::solve`] procedure (`Solve` in the paper),
//! * [`Scheme`] — constrained type schemes `∀ᾱ.[τ/C]` with
//!   substitution (Definition 1), instantiation (Definition 2) and
//!   generalization (Definition 3),
//! * [`Subst`] — substitutions on types, constraints and schemes,
//! * [`unify()`] — first-order unification, the reference for
//!   [`Cells`]: the union-find arena that the inference algorithm in
//!   `bsml-infer` unifies in.
//!
//! # Example: catching a nested parallel vector by constraint solving
//!
//! ```
//! use bsml_types::{Constraint, Type, Solution};
//!
//! // Instantiating mkpar's constraint L(α) at α = int par must fail:
//! let c = Constraint::loc(Type::par(Type::Int));
//! assert_eq!(c.solve(), Solution::False);
//!
//! // ... while α = int is fine:
//! let c = Constraint::loc(Type::Int);
//! assert_eq!(c.solve(), Solution::True);
//! ```

pub mod cells;
pub mod classify;
pub mod constraint;
pub mod locality;
pub mod scheme;
pub mod subst;
pub mod ty;
pub mod unify;

pub use cells::Cells;
pub use classify::TypeClass;
pub use constraint::{Clause, Clauses, Constraint, Head, Solution, SolveStats};
pub use locality::{basic_constraint, locality};
pub use scheme::Scheme;
pub use subst::Subst;
pub use ty::{TyVar, TyVarGen, Type};
pub use unify::{unify, unify_counted, UnifyError, UnifyStats};
