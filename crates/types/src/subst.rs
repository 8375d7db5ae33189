//! Substitutions on types, constraints and constrained types.
//!
//! Applying a substitution to a *constrained* type implements the
//! paper's **Definition 1**: besides mapping the variables, the basic
//! constraints `C_φ(β)` of every substituted image are conjoined, so
//! that an instantiation like `β ↦ int par` immediately contributes
//! the (here absurd) well-formedness constraints of its image.

use std::collections::BTreeMap;
use std::fmt;

use crate::constraint::Constraint;
use crate::locality::basic_constraint;
use crate::ty::{TyVar, Type};

/// A finite mapping from type variables to simple types.
///
/// # Example
///
/// ```
/// use bsml_types::{Subst, Type, TyVar};
///
/// let s = Subst::singleton(TyVar(0), Type::Int);
/// assert_eq!(s.apply(&Type::arrow(Type::var(0), Type::var(1))),
///            Type::arrow(Type::Int, Type::var(1)));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Subst {
    map: BTreeMap<TyVar, Type>,
}

impl Subst {
    /// The empty (identity) substitution.
    #[must_use]
    pub fn new() -> Subst {
        Subst::default()
    }

    /// The substitution `{v ↦ ty}`.
    #[must_use]
    pub fn singleton(v: TyVar, ty: Type) -> Subst {
        let mut map = BTreeMap::new();
        map.insert(v, ty);
        Subst { map }
    }

    /// Builds a substitution from pairs. Later bindings for the same
    /// variable overwrite earlier ones.
    #[must_use]
    pub fn from_pairs(pairs: impl IntoIterator<Item = (TyVar, Type)>) -> Subst {
        Subst {
            map: pairs.into_iter().collect(),
        }
    }

    /// `true` for the identity substitution.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The image of `v`, if bound.
    #[must_use]
    pub fn get(&self, v: TyVar) -> Option<&Type> {
        self.map.get(&v)
    }

    /// The domain `Dom(φ)`.
    pub fn domain(&self) -> impl Iterator<Item = TyVar> + '_ {
        self.map.keys().copied()
    }

    /// Number of bound variables.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Applies the substitution to a type.
    #[must_use]
    pub fn apply(&self, ty: &Type) -> Type {
        if self.map.is_empty() {
            return ty.clone();
        }
        ty.map_vars(&mut |v| self.map.get(&v).cloned())
    }

    /// Applies the substitution structurally to a constraint
    /// (`φ(C)` — without the Definition 1 augmentation).
    #[must_use]
    pub fn apply_constraint(&self, c: &Constraint) -> Constraint {
        if self.map.is_empty() {
            return c.clone();
        }
        c.map_types(&mut |t| self.apply(t))
    }

    /// **Definition 1**: applies the substitution to a constrained
    /// type `[τ/C]`, conjoining the basic constraints of every image
    /// of a substituted variable free in `[τ/C]`:
    ///
    /// ```text
    /// φ([τ/C]) = [φτ / φC ∧ ⋀_{β ∈ Dom(φ) ∩ F([τ/C])} C_φ(β)]
    /// ```
    #[must_use]
    pub fn apply_constrained(&self, ty: &Type, c: &Constraint) -> (Type, Constraint) {
        let new_ty = self.apply(ty);
        let mut new_c = self.apply_constraint(c);
        if !self.map.is_empty() {
            let mut free = ty.free_vars();
            c.collect_free_vars(&mut free);
            for v in free {
                if let Some(image) = self.map.get(&v) {
                    new_c = Constraint::and(new_c, basic_constraint(image));
                }
            }
        }
        (new_ty, new_c)
    }

    /// Composition `self ∘ other`: first apply `other`, then `self`.
    ///
    /// `(self.compose(other)).apply(t) == self.apply(&other.apply(t))`.
    #[must_use]
    pub fn compose(&self, other: &Subst) -> Subst {
        let mut map: BTreeMap<TyVar, Type> =
            other.map.iter().map(|(v, t)| (*v, self.apply(t))).collect();
        for (v, t) in &self.map {
            map.entry(*v).or_insert_with(|| t.clone());
        }
        Subst { map }
    }

    /// Inserts a binding, overwriting any existing one.
    pub fn insert(&mut self, v: TyVar, ty: Type) {
        self.map.insert(v, ty);
    }
}

impl fmt::Display for Subst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, (v, t)) in self.map.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{v} ↦ {t}")?;
        }
        f.write_str("}")
    }
}

impl FromIterator<(TyVar, Type)> for Subst {
    fn from_iter<I: IntoIterator<Item = (TyVar, Type)>>(iter: I) -> Self {
        Subst::from_pairs(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Solution;

    #[test]
    fn identity_on_unbound() {
        let s = Subst::singleton(TyVar(0), Type::Int);
        assert_eq!(s.apply(&Type::var(1)), Type::var(1));
        assert_eq!(Subst::new().apply(&Type::var(0)), Type::var(0));
    }

    #[test]
    fn applies_structurally() {
        let s = Subst::from_pairs([(TyVar(0), Type::Int), (TyVar(1), Type::Bool)]);
        let t = Type::par(Type::pair(Type::var(0), Type::var(1)));
        assert_eq!(s.apply(&t), Type::par(Type::pair(Type::Int, Type::Bool)));
    }

    #[test]
    fn compose_order() {
        // other = {a ↦ b}, self = {b ↦ int}; composed maps a ↦ int.
        let other = Subst::singleton(TyVar(0), Type::var(1));
        let this = Subst::singleton(TyVar(1), Type::Int);
        let composed = this.compose(&other);
        assert_eq!(composed.apply(&Type::var(0)), Type::Int);
        assert_eq!(composed.apply(&Type::var(1)), Type::Int);
        // Matches functional composition.
        let t = Type::pair(Type::var(0), Type::var(1));
        assert_eq!(composed.apply(&t), this.apply(&other.apply(&t)));
    }

    #[test]
    fn constraint_substitution() {
        let s = Subst::singleton(TyVar(0), Type::par(Type::Int));
        let c = Constraint::loc(Type::var(0));
        assert_eq!(
            s.apply_constraint(&c),
            Constraint::loc(Type::par(Type::Int))
        );
        assert_eq!(s.apply_constraint(&c).solve(), Solution::False);
    }

    #[test]
    fn definition_1_adds_basic_constraints() {
        // fst's scheme body: [(α*β)→α / L(α)⇒L(β)].
        // Substituting β ↦ int par turns the constraint absurd via the
        // implication; substituting β ↦ (int par) par would *also* be
        // caught purely by the added basic constraint C_(int par) par.
        let ty = Type::arrow(Type::pair(Type::var(0), Type::var(1)), Type::var(0));
        let c = Constraint::Implies(
            Box::new(Constraint::loc(Type::var(0))),
            Box::new(Constraint::loc(Type::var(1))),
        );

        let phi = Subst::from_pairs([(TyVar(0), Type::Int), (TyVar(1), Type::par(Type::Int))]);
        let (t2, c2) = phi.apply_constrained(&ty, &c);
        assert_eq!(
            t2,
            Type::arrow(Type::pair(Type::Int, Type::par(Type::Int)), Type::Int)
        );
        assert_eq!(c2.solve(), Solution::False);

        // The benign instantiation stays satisfiable.
        let phi = Subst::from_pairs([(TyVar(0), Type::par(Type::Int)), (TyVar(1), Type::Int)]);
        let (_, c2) = phi.apply_constrained(&ty, &c);
        assert_eq!(c2.solve(), Solution::True);
    }

    #[test]
    fn definition_1_catches_nested_par_images() {
        // Even with a True constraint, an image with nested par is
        // rejected through its basic constraints.
        let ty = Type::var(0);
        let phi = Subst::singleton(TyVar(0), Type::par(Type::par(Type::Int)));
        let (_, c) = phi.apply_constrained(&ty, &Constraint::True);
        assert_eq!(c.solve(), Solution::False);
    }

    #[test]
    fn display() {
        let s = Subst::from_pairs([(TyVar(0), Type::Int)]);
        assert_eq!(s.to_string(), "{'a ↦ int}");
        assert_eq!(Subst::new().to_string(), "{}");
    }
}
