//! Constrained type schemes `σ ::= ∀α₁…αₙ.[τ/C]` (paper §4), with
//! substitution (Definition 1), instantiation (Definition 2) and
//! generalization (Definition 3).

use std::fmt;

use crate::constraint::{Constraint, Solution};
use crate::subst::Subst;
use crate::ty::{TyVar, TyVarGen, Type};

/// A type scheme with constraints: `∀α₁…αₙ.[τ/C]`.
///
/// # Example
///
/// ```
/// use bsml_types::{Constraint, Scheme, Type, TyVar, TyVarGen};
///
/// // fst : ∀αβ.[(α*β) → α / L(α) ⇒ L(β)]
/// let fst = Scheme::new(
///     vec![TyVar(0), TyVar(1)],
///     Type::arrow(Type::pair(Type::var(0), Type::var(1)), Type::var(0)),
///     Constraint::implies(
///         Constraint::loc(Type::var(0)),
///         Constraint::loc(Type::var(1)),
///     ),
/// );
/// assert_eq!(fst.to_string(), "∀'a 'b.['a * 'b -> 'a / L('a) ⇒ L('b)]");
///
/// let mut gen = TyVarGen::starting_at(100);
/// let (ty, c) = fst.instantiate(&mut gen);
/// assert!(ty.free_vars().iter().all(|v| v.0 >= 100));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Scheme {
    /// The universally quantified variables `α₁…αₙ`.
    vars: Vec<TyVar>,
    /// The simple type `τ`.
    ty: Type,
    /// The constraint `C`.
    constraint: Constraint,
}

impl Scheme {
    /// Builds `∀vars.[ty/constraint]`.
    #[must_use]
    pub fn new(vars: Vec<TyVar>, ty: Type, constraint: Constraint) -> Scheme {
        Scheme {
            vars,
            ty,
            constraint,
        }
    }

    /// A monomorphic, unconstrained scheme `[τ/True]`.
    #[must_use]
    pub fn mono(ty: Type) -> Scheme {
        Scheme::new(Vec::new(), ty, Constraint::True)
    }

    /// Quantifies *all* free variables of the type and constraint.
    /// Convenient for writing the initial environment `TC`.
    #[must_use]
    pub fn close(ty: Type, constraint: Constraint) -> Scheme {
        let mut vars = ty.free_vars();
        constraint.collect_free_vars(&mut vars);
        Scheme::new(vars, ty, constraint)
    }

    /// **Definition 3**: generalizes `[τ/C]` in an environment whose
    /// free variables are `env_free`, quantifying `F(τ) \ F(E)`.
    ///
    /// `solution` is `Solve(C)`, and the scheme stores the part of it
    /// connected to `F(τ) ∪ F(E)` ([`Solution::restrict`]). On the
    /// Horn constraints the typing rules build, `Solve` is exact, and
    /// the dropped clauses mention only variables that no later
    /// substitution reaches, so the stored constraint rejects exactly
    /// the instances `C` rejects (DESIGN.md §3).
    #[must_use]
    pub fn generalize(ty: Type, solution: &Solution, env_free: &[TyVar]) -> Scheme {
        let mut keep = ty.free_vars();
        let vars: Vec<TyVar> = keep
            .iter()
            .copied()
            .filter(|v| !env_free.contains(v))
            .collect();
        for v in env_free {
            if !keep.contains(v) {
                keep.push(*v);
            }
        }
        let constraint = solution.restrict(&keep).to_constraint();
        Scheme::new(vars, ty, constraint)
    }

    /// The quantified variables.
    #[must_use]
    pub fn quantified(&self) -> &[TyVar] {
        &self.vars
    }

    /// The underlying simple type (with quantified variables visible).
    #[must_use]
    pub fn ty(&self) -> &Type {
        &self.ty
    }

    /// The attached constraint.
    #[must_use]
    pub fn constraint(&self) -> &Constraint {
        &self.constraint
    }

    /// Every variable mentioned by the scheme, quantified or free.
    /// Fresh-variable supplies must be advanced past these so that
    /// quantified variables stay "out of reach" of substitutions
    /// (Definition 1's side condition).
    #[must_use]
    pub fn all_vars(&self) -> Vec<TyVar> {
        let mut all = self.ty.free_vars();
        self.constraint.collect_free_vars(&mut all);
        for v in &self.vars {
            if !all.contains(v) {
                all.push(*v);
            }
        }
        all
    }

    /// The free variables
    /// `F(σ) = (F(τ) ∪ F(C)) \ {α₁…αₙ}`.
    #[must_use]
    pub fn free_vars(&self) -> Vec<TyVar> {
        let mut all = self.ty.free_vars();
        self.constraint.collect_free_vars(&mut all);
        all.retain(|v| !self.vars.contains(v));
        all
    }

    /// **Definition 2** (instance by fresh renaming): replaces every
    /// quantified variable with a fresh one from `gen`, returning the
    /// renamed type and constraint.
    ///
    /// Because `gen` never re-issues a variable, the quantified
    /// variables are automatically "out of reach" of any substitution
    /// built later, as Definition 1 requires.
    #[must_use]
    pub fn instantiate(&self, gen: &mut TyVarGen) -> (Type, Constraint) {
        self.instantiate_with(|| gen.fresh())
    }

    /// [`Scheme::instantiate`] drawing the fresh variables from
    /// `fresh`, one call per quantified variable in order.
    #[must_use]
    pub fn instantiate_with(&self, mut fresh: impl FnMut() -> TyVar) -> (Type, Constraint) {
        if self.vars.is_empty() {
            return (self.ty.clone(), self.constraint.clone());
        }
        let renaming: Vec<(TyVar, Type)> =
            self.vars.iter().map(|v| (*v, Type::Var(fresh()))).collect();
        let mut rename = |v: TyVar| {
            renaming
                .iter()
                .find(|(q, _)| *q == v)
                .map(|(_, t)| t.clone())
        };
        // A pure renaming: the images are fresh variables, whose basic
        // constraints are True, so plain structural application
        // coincides with Definition 1 here.
        let ty = self.ty.map_vars(&mut rename);
        let constraint = self.constraint.map_types(&mut |t| t.map_vars(&mut rename));
        (ty, constraint)
    }

    /// Renames the quantified variables to the canonical sequence
    /// `'a, 'b, …` in order of first appearance (type first, then
    /// constraint), so α-equivalent schemes display identically.
    ///
    /// Only fully closed schemes are renamed; a scheme with free
    /// variables is returned unchanged (renaming could capture them).
    #[must_use]
    pub fn normalize(&self) -> Scheme {
        if !self.free_vars().is_empty() || self.vars.is_empty() {
            return self.clone();
        }
        let mut order = self.ty.free_vars();
        self.constraint.collect_free_vars(&mut order);
        order.retain(|v| self.vars.contains(v));
        // Two-phase rename to avoid clashes with the target names.
        let hi_base = order
            .iter()
            .chain(self.vars.iter())
            .map(|v| v.0 + 1)
            .max()
            .unwrap_or(0);
        let up = Subst::from_pairs(
            order
                .iter()
                .enumerate()
                .map(|(i, v)| (*v, Type::Var(TyVar(hi_base + i as u32)))),
        );
        let down = Subst::from_pairs(
            (0..order.len() as u32).map(|i| (TyVar(hi_base + i), Type::Var(TyVar(i)))),
        );
        let ty = down.apply(&up.apply(&self.ty));
        let constraint = down.apply_constraint(&up.apply_constraint(&self.constraint));
        let vars = (0..order.len() as u32).map(TyVar).collect();
        Scheme::new(vars, ty, constraint)
    }

    /// **Definition 1**: applies a substitution to the scheme. The
    /// quantified variables must be out of reach of `phi` (guaranteed
    /// when all schemes and substitutions draw from one [`TyVarGen`]).
    ///
    /// # Panics
    ///
    /// Panics (debug builds only) if `phi` binds or introduces a
    /// quantified variable.
    #[must_use]
    pub fn apply_subst(&self, phi: &Subst) -> Scheme {
        debug_assert!(
            self.vars.iter().all(|v| {
                phi.get(*v).is_none()
                    && phi
                        .domain()
                        .all(|d| phi.get(d).is_none_or(|img| !img.occurs(*v)))
            }),
            "substitution reaches quantified variables of {self}"
        );
        let (ty, constraint) = phi.apply_constrained(&self.ty, &self.constraint);
        Scheme::new(self.vars.clone(), ty, constraint)
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.vars.is_empty() {
            f.write_str("∀")?;
            for (i, v) in self.vars.iter().enumerate() {
                if i > 0 {
                    f.write_str(" ")?;
                }
                write!(f, "{v}")?;
            }
            f.write_str(".")?;
        }
        if self.constraint == Constraint::True {
            if self.vars.is_empty() {
                write!(f, "{}", self.ty)
            } else {
                write!(f, "[{}]", self.ty)
            }
        } else {
            write!(f, "[{} / {}]", self.ty, self.constraint)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fst_scheme() -> Scheme {
        Scheme::new(
            vec![TyVar(0), TyVar(1)],
            Type::arrow(Type::pair(Type::var(0), Type::var(1)), Type::var(0)),
            Constraint::implies(Constraint::loc(Type::var(0)), Constraint::loc(Type::var(1))),
        )
    }

    #[test]
    fn mono_has_no_quantifiers() {
        let s = Scheme::mono(Type::Int);
        assert!(s.quantified().is_empty());
        assert_eq!(s.to_string(), "int");
    }

    #[test]
    fn close_quantifies_constraint_vars_too() {
        // A constraint-only variable must be captured.
        let s = Scheme::close(
            Type::var(0),
            Constraint::implies(Constraint::loc(Type::var(1)), Constraint::loc(Type::var(0))),
        );
        assert_eq!(s.quantified(), &[TyVar(0), TyVar(1)]);
        assert!(s.free_vars().is_empty());
    }

    #[test]
    fn generalize_respects_env() {
        let ty = Type::arrow(Type::var(0), Type::var(1));
        let s = Scheme::generalize(ty, &Solution::True, &[TyVar(1)]);
        assert_eq!(s.quantified(), &[TyVar(0)]);
        assert_eq!(s.free_vars(), vec![TyVar(1)]);
    }

    #[test]
    fn instantiate_renames_freshly() {
        let s = fst_scheme();
        let mut gen = TyVarGen::starting_at(50);
        let (t1, c1) = s.instantiate(&mut gen);
        let (t2, _) = s.instantiate(&mut gen);
        assert_ne!(t1, t2, "each instantiation must be fresh");
        assert!(t1.free_vars().iter().all(|v| v.0 >= 50));
        // The constraint is renamed consistently with the type.
        let tvs = t1.free_vars();
        let cvs = c1.free_vars();
        assert!(cvs.iter().all(|v| tvs.contains(v)));
    }

    #[test]
    fn instantiating_mono_is_identity() {
        let s = Scheme::mono(Type::par(Type::Int));
        let mut gen = TyVarGen::new();
        let (t, c) = s.instantiate(&mut gen);
        assert_eq!(t, Type::par(Type::Int));
        assert_eq!(c, Constraint::True);
    }

    #[test]
    fn definition_1_on_scheme() {
        // Substitute the *free* variable of ∀a.[a * c / L(c)] with a
        // par type: the scheme's constraint must become absurd.
        let s = Scheme::new(
            vec![TyVar(0)],
            Type::pair(Type::var(0), Type::var(2)),
            Constraint::loc(Type::var(2)),
        );
        let phi = Subst::singleton(TyVar(2), Type::par(Type::Int));
        let s2 = s.apply_subst(&phi);
        assert_eq!(s2.constraint().solve(), Solution::False);
        assert_eq!(s2.ty(), &Type::pair(Type::var(0), Type::par(Type::Int)));
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            fst_scheme().to_string(),
            "∀'a 'b.['a * 'b -> 'a / L('a) ⇒ L('b)]"
        );
        let s = Scheme::new(vec![TyVar(0)], Type::var(0), Constraint::True);
        assert_eq!(s.to_string(), "∀'a.['a]");
    }

    #[test]
    fn free_vars_excludes_quantified() {
        let s = fst_scheme();
        assert!(s.free_vars().is_empty());
    }
}
