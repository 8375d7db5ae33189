//! First-order unification of simple types.
//!
//! Produces most general unifiers as substitutions: the reference
//! that [`Cells::unify`](crate::Cells::unify), which the inference
//! engine runs, links variables in place to agree with. Locality
//! constraints are *not* checked here; see `bsml-infer`.

use std::fmt;

use crate::subst::Subst;
use crate::ty::{TyVar, Type};

/// Unification failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UnifyError {
    /// Constructor clash, e.g. `int` vs `bool par`.
    Mismatch(Type, Type),
    /// The occurs-check fired: `α` appears inside the other type.
    Occurs(TyVar, Type),
}

impl fmt::Display for UnifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnifyError::Mismatch(a, b) => {
                write!(f, "cannot unify `{a}` with `{b}`")
            }
            UnifyError::Occurs(v, t) => {
                write!(f, "occurs check: `{v}` appears in `{t}`")
            }
        }
    }
}

impl std::error::Error for UnifyError {}

/// Work counters filled in by [`unify_counted`]. Deltas feed the
/// telemetry counters in `bsml-infer`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UnifyStats {
    /// Type pairs decomposed (work-list pops).
    pub unifications: u64,
    /// Occurs-checks performed before a variable binding.
    pub occurs_checks: u64,
}

/// Computes the most general unifier of `a` and `b`.
///
/// # Errors
///
/// Returns [`UnifyError::Mismatch`] on a constructor clash and
/// [`UnifyError::Occurs`] on an infinite type.
///
/// # Example
///
/// ```
/// use bsml_types::{unify, Type};
///
/// let s = unify(&Type::arrow(Type::var(0), Type::Int),
///               &Type::arrow(Type::Bool, Type::var(1)))?;
/// assert_eq!(s.apply(&Type::var(0)), Type::Bool);
/// assert_eq!(s.apply(&Type::var(1)), Type::Int);
/// # Ok::<(), bsml_types::UnifyError>(())
/// ```
pub fn unify(a: &Type, b: &Type) -> Result<Subst, UnifyError> {
    let mut stats = UnifyStats::default();
    unify_counted(a, b, &mut stats)
}

/// [`unify`], accumulating work counts into `stats`.
///
/// # Errors
///
/// Same as [`unify`].
pub fn unify_counted(a: &Type, b: &Type, stats: &mut UnifyStats) -> Result<Subst, UnifyError> {
    let mut subst = Subst::new();
    let mut work = vec![(a.clone(), b.clone())];
    while let Some((x, y)) = work.pop() {
        stats.unifications += 1;
        let x = subst.apply(&x);
        let y = subst.apply(&y);
        match (x, y) {
            (Type::Int, Type::Int) | (Type::Bool, Type::Bool) | (Type::Unit, Type::Unit) => {}
            (Type::Var(v), t) | (t, Type::Var(v)) => {
                if t == Type::Var(v) {
                    continue;
                }
                stats.occurs_checks += 1;
                if t.occurs(v) {
                    return Err(UnifyError::Occurs(v, t));
                }
                bind(&mut subst, v, t);
            }
            (Type::Arrow(a1, b1), Type::Arrow(a2, b2))
            | (Type::Pair(a1, b1), Type::Pair(a2, b2))
            | (Type::Sum(a1, b1), Type::Sum(a2, b2)) => {
                work.push((*a1, *a2));
                work.push((*b1, *b2));
            }
            (Type::Par(t1), Type::Par(t2))
            | (Type::List(t1), Type::List(t2))
            | (Type::Ref(t1), Type::Ref(t2)) => {
                work.push((*t1, *t2));
            }
            (x, y) => return Err(UnifyError::Mismatch(x, y)),
        }
    }
    Ok(subst)
}

/// Extends `subst` with `v ↦ t`, keeping it idempotent.
fn bind(subst: &mut Subst, v: TyVar, t: Type) {
    let single = Subst::singleton(v, t);
    *subst = single.compose(subst);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unify_identical_base() {
        assert_eq!(unify(&Type::Int, &Type::Int), Ok(Subst::new()));
    }

    #[test]
    fn unify_mismatch() {
        assert!(matches!(
            unify(&Type::Int, &Type::Bool),
            Err(UnifyError::Mismatch(..))
        ));
        assert!(matches!(
            unify(&Type::par(Type::Int), &Type::list(Type::Int)),
            Err(UnifyError::Mismatch(..))
        ));
    }

    #[test]
    fn unify_var_binds() {
        let s = unify(&Type::var(0), &Type::par(Type::Int)).unwrap();
        assert_eq!(s.apply(&Type::var(0)), Type::par(Type::Int));
    }

    #[test]
    fn unify_is_mgu() {
        let a = Type::arrow(Type::var(0), Type::pair(Type::var(1), Type::Int));
        let b = Type::arrow(Type::Bool, Type::pair(Type::var(2), Type::var(3)));
        let s = unify(&a, &b).unwrap();
        assert_eq!(s.apply(&a), s.apply(&b));
    }

    #[test]
    fn unify_transitive_chain() {
        // a = b, b = int  ⟹  a = int.
        let t1 = Type::pair(Type::var(0), Type::var(1));
        let t2 = Type::pair(Type::var(1), Type::Int);
        let s = unify(&t1, &t2).unwrap();
        assert_eq!(s.apply(&Type::var(0)), Type::Int);
        assert_eq!(s.apply(&Type::var(1)), Type::Int);
    }

    #[test]
    fn occurs_check_fires() {
        let err = unify(&Type::var(0), &Type::arrow(Type::var(0), Type::Int));
        assert!(matches!(err, Err(UnifyError::Occurs(TyVar(0), _))));
    }

    #[test]
    fn var_with_itself_is_identity() {
        let s = unify(&Type::var(3), &Type::var(3)).unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn nested_structures() {
        let a = Type::par(Type::arrow(Type::Int, Type::var(0)));
        let b = Type::par(Type::arrow(Type::var(1), Type::Bool));
        let s = unify(&a, &b).unwrap();
        assert_eq!(s.apply(&a), s.apply(&b));
        assert_eq!(s.apply(&a), Type::par(Type::arrow(Type::Int, Type::Bool)));
    }

    #[test]
    fn unifier_is_idempotent() {
        let a = Type::arrow(Type::var(0), Type::var(1));
        let b = Type::arrow(Type::var(1), Type::Int);
        let s = unify(&a, &b).unwrap();
        let once = s.apply(&Type::var(0));
        let twice = s.apply(&once);
        assert_eq!(once, twice);
    }

    #[test]
    fn counted_variant_reports_work() {
        let mut stats = UnifyStats::default();
        let a = Type::arrow(Type::var(0), Type::pair(Type::var(1), Type::Int));
        let b = Type::arrow(Type::Bool, Type::pair(Type::var(2), Type::var(3)));
        let s = unify_counted(&a, &b, &mut stats).unwrap();
        assert_eq!(s.apply(&a), s.apply(&b));
        // One pop per decomposed pair: the arrow, both sides, the
        // pair, both components.
        assert_eq!(stats.unifications, 5);
        // Three variable bindings, each occurs-checked.
        assert_eq!(stats.occurs_checks, 3);
    }

    #[test]
    fn error_display() {
        let e = UnifyError::Mismatch(Type::Int, Type::Bool);
        assert_eq!(e.to_string(), "cannot unify `int` with `bool`");
        let e = UnifyError::Occurs(TyVar(0), Type::arrow(Type::var(0), Type::Int));
        assert_eq!(e.to_string(), "occurs check: `'a` appears in `'a -> int`");
    }
}
