//! Type variables as union-find cells: unification links variables in
//! place instead of building a substitution.
//!
//! A cell is either *unbound*, with a let-level, or *linked* to a
//! type. [`Cells::unify`] links exactly the variables [`unify`] binds,
//! in the same order, so after it the same variables stay unbound and
//! [`Cells::resolve`] of a type equals the most general unifier applied
//! to it. Linking a variable lowers the level of every unbound variable
//! of its image to the variable's own, so a variable reachable from an
//! enclosing environment never sits deeper than that environment
//! (Rémy's levels; generalization reads them instead of walking the
//! environment).
//!
//! [`unify`]: crate::unify()

use std::collections::BTreeMap;

use crate::constraint::Constraint;
use crate::ty::{TyVar, Type};
use crate::unify::{UnifyError, UnifyStats};

/// An arena of type-variable cells, indexed by variable number.
///
/// # Example
///
/// ```
/// use bsml_types::{Cells, Type, UnifyStats};
///
/// let mut cells = Cells::starting_at(0);
/// let a = cells.fresh_ty(1);
/// let b = cells.fresh_ty(1);
/// let mut stats = UnifyStats::default();
/// cells.unify(&Type::arrow(a.clone(), Type::Int),
///             &Type::arrow(Type::Bool, b.clone()), &mut stats)?;
/// assert_eq!(cells.resolve(&a), Type::Bool);
/// assert_eq!(cells.resolve(&b), Type::Int);
/// # Ok::<(), bsml_types::UnifyError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct Cells {
    links: Links,
    /// The let-level of each arena variable while it is unbound.
    levels: Vec<u32>,
    /// Links made so far.
    linked: u64,
}

/// The links of an arena whose first variable is `first`. The
/// variables below it stand for the free variables of an enclosing
/// environment: unbound at level 0, and linked in `outer` if
/// unification links them, so an arena costs nothing for them until
/// then.
#[derive(Clone, Debug, Default)]
struct Links {
    first: u32,
    outer: BTreeMap<TyVar, Type>,
    /// `Some(τ)` for a linked arena variable.
    arena: Vec<Option<Type>>,
}

impl Links {
    /// `v`'s index in the arena, `None` below it.
    fn index(&self, v: TyVar) -> Option<usize> {
        v.0.checked_sub(self.first).map(|i| i as usize)
    }

    fn get(&self, v: TyVar) -> Option<&Type> {
        match self.index(v) {
            Some(i) => self.arena.get(i).and_then(Option::as_ref),
            None => self.outer.get(&v),
        }
    }
}

impl Cells {
    /// An arena whose first fresh variable is `TyVar(first)`. The
    /// variables below it are unbound at level 0: they stand for the
    /// free variables of an enclosing environment.
    #[must_use]
    pub fn starting_at(first: u32) -> Cells {
        Cells {
            links: Links {
                first,
                ..Links::default()
            },
            ..Cells::default()
        }
    }

    /// A fresh unbound variable at `level`.
    pub fn fresh(&mut self, level: u32) -> TyVar {
        let v = TyVar(self.next_var());
        self.links.arena.push(None);
        self.levels.push(level);
        v
    }

    /// [`Cells::fresh`] wrapped as a type.
    pub fn fresh_ty(&mut self, level: u32) -> Type {
        Type::Var(self.fresh(level))
    }

    /// The number the next fresh variable gets.
    #[must_use]
    pub fn next_var(&self) -> u32 {
        self.links.first + self.links.arena.len() as u32
    }

    /// How many links unification has made so far. A term whose
    /// variables were all unbound when this read `n` is still resolved
    /// while it reads `n`.
    #[must_use]
    pub fn links_made(&self) -> u64 {
        self.linked
    }

    /// `true` once unification has linked `v`.
    #[must_use]
    pub fn is_linked(&self, v: TyVar) -> bool {
        self.link(v).is_some()
    }

    /// The type `v` is linked to, if unification has linked it. A
    /// variable past the arena is unbound.
    #[must_use]
    pub fn link(&self, v: TyVar) -> Option<&Type> {
        self.links.get(v)
    }

    /// The level of an unbound variable.
    #[must_use]
    pub fn level(&self, v: TyVar) -> u32 {
        self.links.index(v).map_or(0, |i| self.levels[i])
    }

    /// Lowers the level of `v` to `level` if it sits deeper.
    pub fn lower(&mut self, v: TyVar, level: u32) {
        if let Some(i) = self.links.index(v) {
            let l = &mut self.levels[i];
            *l = (*l).min(level);
        }
    }

    /// The type with every linked variable replaced by its resolution.
    #[must_use]
    pub fn resolve(&self, ty: &Type) -> Type {
        ty.map_vars(&mut |v| self.link(v).map(|t| self.resolve(t)))
    }

    /// The constraint with every type resolved, rebuilt through the
    /// smart constructors exactly as [`Subst::apply_constraint`] does.
    ///
    /// [`Subst::apply_constraint`]: crate::Subst::apply_constraint
    #[must_use]
    pub fn resolve_constraint(&self, c: &Constraint) -> Constraint {
        c.map_types(&mut |t| self.resolve(t))
    }

    /// Unifies `a` and `b` by linking cells, counting work into
    /// `stats` as [`unify_counted`](crate::unify_counted) does.
    ///
    /// # Errors
    ///
    /// As [`unify`](crate::unify()), with both types of the error
    /// resolved. Links made before the failure stay.
    pub fn unify(&mut self, a: &Type, b: &Type, stats: &mut UnifyStats) -> Result<(), UnifyError> {
        let mut work = vec![(a.clone(), b.clone())];
        while let Some((x, y)) = work.pop() {
            stats.unifications += 1;
            match (self.head(x), self.head(y)) {
                (Type::Int, Type::Int) | (Type::Bool, Type::Bool) | (Type::Unit, Type::Unit) => {}
                (Type::Var(v), t) | (t, Type::Var(v)) => {
                    if t == Type::Var(v) {
                        continue;
                    }
                    stats.occurs_checks += 1;
                    let level = self.level(v);
                    if occurs_lowering(&self.links, &mut self.levels, v, level, &t) {
                        return Err(UnifyError::Occurs(v, self.resolve(&t)));
                    }
                    match self.links.index(v) {
                        Some(i) => self.links.arena[i] = Some(t),
                        None => {
                            self.links.outer.insert(v, t);
                        }
                    }
                    self.linked += 1;
                }
                (Type::Arrow(a1, b1), Type::Arrow(a2, b2))
                | (Type::Pair(a1, b1), Type::Pair(a2, b2))
                | (Type::Sum(a1, b1), Type::Sum(a2, b2)) => {
                    work.push((*a1, *a2));
                    work.push((*b1, *b2));
                }
                (Type::Par(t1), Type::Par(t2))
                | (Type::List(t1), Type::List(t2))
                | (Type::Ref(t1), Type::Ref(t2)) => work.push((*t1, *t2)),
                (x, y) => return Err(UnifyError::Mismatch(self.resolve(&x), self.resolve(&y))),
            }
        }
        Ok(())
    }

    /// The outermost constructor of `ty`, following links.
    fn head(&self, ty: Type) -> Type {
        match ty {
            Type::Var(v) => match self.link(v) {
                Some(image) => self.head(image.clone()),
                None => ty,
            },
            _ => ty,
        }
    }
}

/// The occurs check of `v` in `ty` through the links; lowers every
/// unbound variable met on the way to `level`.
fn occurs_lowering(links: &Links, levels: &mut [u32], v: TyVar, level: u32, ty: &Type) -> bool {
    match ty {
        Type::Int | Type::Bool | Type::Unit => false,
        Type::Var(w) => match links.get(*w) {
            Some(image) => occurs_lowering(links, levels, v, level, image),
            None => {
                if let Some(i) = links.index(*w) {
                    levels[i] = levels[i].min(level);
                }
                *w == v
            }
        },
        Type::Arrow(a, b) | Type::Pair(a, b) | Type::Sum(a, b) => {
            occurs_lowering(links, levels, v, level, a)
                || occurs_lowering(links, levels, v, level, b)
        }
        Type::Par(t) | Type::List(t) | Type::Ref(t) => occurs_lowering(links, levels, v, level, t),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unify::unify;

    fn unify_cells(cells: &mut Cells, a: &Type, b: &Type) -> Result<(), UnifyError> {
        cells.unify(a, b, &mut UnifyStats::default())
    }

    #[test]
    fn links_as_unify_binds() {
        // a = b, b = int: unify binds a ↦ b, then b ↦ int.
        let t1 = Type::pair(Type::var(0), Type::var(1));
        let t2 = Type::pair(Type::var(1), Type::Int);
        let mut cells = Cells::starting_at(2);
        unify_cells(&mut cells, &t1, &t2).unwrap();
        let s = unify(&t1, &t2).unwrap();
        assert_eq!(cells.resolve(&t1), s.apply(&t1));
        assert!(cells.is_linked(TyVar(0)) && cells.is_linked(TyVar(1)));
        assert_eq!(cells.links_made(), 2);
    }

    #[test]
    fn the_left_variable_links_to_the_right() {
        let mut cells = Cells::starting_at(2);
        unify_cells(&mut cells, &Type::var(0), &Type::var(1)).unwrap();
        assert!(cells.is_linked(TyVar(0)));
        assert!(!cells.is_linked(TyVar(1)));
    }

    #[test]
    fn occurs_check_reports_the_resolved_type() {
        let mut cells = Cells::starting_at(2);
        unify_cells(&mut cells, &Type::var(1), &Type::list(Type::var(0))).unwrap();
        let err = unify_cells(
            &mut cells,
            &Type::var(0),
            &Type::arrow(Type::var(1), Type::Int),
        );
        assert_eq!(
            err,
            Err(UnifyError::Occurs(
                TyVar(0),
                Type::arrow(Type::list(Type::var(0)), Type::Int)
            ))
        );
    }

    #[test]
    fn linking_lowers_levels_of_the_image() {
        let mut cells = Cells::starting_at(0);
        let outer = cells.fresh_ty(1);
        let inner = cells.fresh(3);
        unify_cells(&mut cells, &outer, &Type::list(Type::Var(inner))).unwrap();
        assert_eq!(cells.level(inner), 1);
    }

    #[test]
    fn constraints_resolve_through_the_smart_constructors() {
        let mut cells = Cells::starting_at(2);
        let c = Constraint::implies(Constraint::loc(Type::var(0)), Constraint::loc(Type::var(1)));
        unify_cells(&mut cells, &Type::var(0), &Type::var(1)).unwrap();
        assert_eq!(cells.resolve_constraint(&c), Constraint::True);
    }
}
