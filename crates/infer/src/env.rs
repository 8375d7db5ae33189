//! Typing environments and the initial environment `TC` (Figure 6).

use std::collections::BTreeMap;
use std::fmt;

use bsml_ast::{Const, Ident, Op};
use bsml_types::{Constraint, Scheme, TyVar, Type};

/// A typing environment `E`: identifiers to type schemes.
#[derive(Clone, Debug, Default)]
pub struct TypeEnv {
    map: BTreeMap<Ident, Scheme>,
}

impl TypeEnv {
    /// The empty environment `∅`.
    #[must_use]
    pub fn new() -> TypeEnv {
        TypeEnv::default()
    }

    /// `E + {x : σ}` in place — extension, replacing any previous
    /// binding. A toplevel binding costs one map insertion, so loading
    /// `n` bindings costs `O(n log n)`, not a copy of the map each.
    pub fn insert(&mut self, x: Ident, scheme: Scheme) {
        self.map.insert(x, scheme);
    }

    /// Looks up a variable's scheme.
    #[must_use]
    pub fn lookup(&self, x: &Ident) -> Option<&Scheme> {
        self.map.get(x)
    }

    /// `Dom(E)`.
    pub fn domain(&self) -> impl Iterator<Item = &Ident> {
        self.map.keys()
    }

    /// Number of bindings.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` for `∅`.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// `F(E)` — free type variables of all bound schemes.
    #[must_use]
    pub fn free_vars(&self) -> Vec<TyVar> {
        let mut out = Vec::new();
        for scheme in self.map.values() {
            for v in scheme.free_vars() {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
        }
        out
    }

    /// One past the largest variable any scheme mentions, quantified
    /// ones included: inference draws its fresh variables from here
    /// on, so no link it makes reaches a quantified variable
    /// (Definition 1's side condition).
    pub(crate) fn var_bound(&self) -> u32 {
        self.map
            .values()
            .flat_map(Scheme::all_vars)
            .map(|v| v.0 + 1)
            .max()
            .unwrap_or(0)
    }
}

impl fmt::Display for TypeEnv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, (x, s)) in self.map.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{x} : {s}")?;
        }
        f.write_str("}")
    }
}

/// The type scheme `TC(c)` of a constant (Figure 6).
#[must_use]
pub fn const_scheme(c: Const) -> Scheme {
    match c {
        Const::Int(_) => Scheme::mono(Type::Int),
        Const::Bool(_) => Scheme::mono(Type::Bool),
        Const::Unit => Scheme::mono(Type::Unit),
    }
}

/// The type scheme `TC(op)` of a primitive operator (Figure 6).
///
/// Quantified variables use the fixed names `'a = TyVar(0)` and
/// `'b = TyVar(1)`; instantiation renames them freshly.
#[must_use]
pub fn op_scheme(op: Op) -> Scheme {
    let a = Type::var(0);
    let b = Type::var(1);
    let la = || Constraint::loc(a.clone());
    let lb = || Constraint::loc(b.clone());
    match op {
        Op::Add | Op::Sub | Op::Mul | Op::Div | Op::Mod => {
            Scheme::mono(Type::arrow(Type::pair(Type::Int, Type::Int), Type::Int))
        }
        Op::Lt | Op::Le | Op::Gt | Op::Ge => {
            Scheme::mono(Type::arrow(Type::pair(Type::Int, Type::Int), Type::Bool))
        }
        // Structural equality is restricted to local values.
        Op::Eq => Scheme::close(
            Type::arrow(Type::pair(a.clone(), a.clone()), Type::Bool),
            la(),
        ),
        Op::And | Op::Or => {
            Scheme::mono(Type::arrow(Type::pair(Type::Bool, Type::Bool), Type::Bool))
        }
        Op::Not => Scheme::mono(Type::arrow(Type::Bool, Type::Bool)),
        // TC(fst) = ∀αβ.[(α*β) → α / L(α) ⇒ L(β)]
        Op::Fst => Scheme::close(
            Type::arrow(Type::pair(a.clone(), b.clone()), a.clone()),
            Constraint::implies(la(), lb()),
        ),
        // TC(snd) = ∀αβ.[(α*β) → β / L(β) ⇒ L(α)]
        Op::Snd => Scheme::close(
            Type::arrow(Type::pair(a.clone(), b.clone()), b.clone()),
            Constraint::implies(lb(), la()),
        ),
        // TC(fix) = ∀α.(α→α)→α
        Op::Fix => Scheme::close(
            Type::arrow(Type::arrow(a.clone(), a.clone()), a.clone()),
            Constraint::True,
        ),
        // TC(nc) = ∀α.unit→α
        Op::Nc => Scheme::close(Type::arrow(Type::Unit, a.clone()), Constraint::True),
        // TC(isnc) = ∀α.[α→bool / L(α)]
        Op::Isnc => Scheme::close(Type::arrow(a.clone(), Type::Bool), la()),
        // TC(mkpar) = ∀α.[(int→α)→(α par) / L(α)]
        Op::Mkpar => Scheme::close(
            Type::arrow(Type::arrow(Type::Int, a.clone()), Type::par(a.clone())),
            la(),
        ),
        // TC(apply) = ∀αβ.[((α→β) par * (α par)) → (β par) / L(α)∧L(β)]
        Op::Apply => Scheme::close(
            Type::arrow(
                Type::pair(
                    Type::par(Type::arrow(a.clone(), b.clone())),
                    Type::par(a.clone()),
                ),
                Type::par(b.clone()),
            ),
            Constraint::and(la(), lb()),
        ),
        // TC(put) = ∀α.[(int→α) par → (int→α) par / L(α)]
        Op::Put => Scheme::close(
            Type::arrow(
                Type::par(Type::arrow(Type::Int, a.clone())),
                Type::par(Type::arrow(Type::Int, a.clone())),
            ),
            la(),
        ),
        Op::BspP => Scheme::mono(Type::arrow(Type::Unit, Type::Int)),
        // §6 imperative extension: reference cells hold local values
        // only (a cell containing a vector would hide global data
        // behind a mutable local handle).
        Op::Ref => Scheme::close(Type::arrow(a.clone(), Type::reference(a.clone())), la()),
        Op::Deref => Scheme::close(Type::arrow(Type::reference(a.clone()), a.clone()), la()),
        Op::Assign => Scheme::close(
            Type::arrow(
                Type::pair(Type::reference(a.clone()), a.clone()),
                Type::Unit,
            ),
            la(),
        ),
    }
}

/// The initial typing environment: empty — constants and operators are
/// typed directly through [`const_scheme`] and [`op_scheme`], matching
/// the paper's *(Const)* and *(Op)* rules.
#[must_use]
pub fn initial_env() -> TypeEnv {
    TypeEnv::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsml_types::{Solution, Subst, TyVarGen};

    #[test]
    fn figure6_table_renders_as_in_the_paper() {
        assert_eq!(op_scheme(Op::Add).to_string(), "int * int -> int");
        assert_eq!(
            op_scheme(Op::Fst).to_string(),
            "∀'a 'b.['a * 'b -> 'a / L('a) ⇒ L('b)]"
        );
        assert_eq!(
            op_scheme(Op::Snd).to_string(),
            "∀'a 'b.['a * 'b -> 'b / L('b) ⇒ L('a)]"
        );
        assert_eq!(op_scheme(Op::Fix).to_string(), "∀'a.[('a -> 'a) -> 'a]");
        assert_eq!(op_scheme(Op::Nc).to_string(), "∀'a.[unit -> 'a]");
        assert_eq!(op_scheme(Op::Isnc).to_string(), "∀'a.['a -> bool / L('a)]");
        assert_eq!(
            op_scheme(Op::Mkpar).to_string(),
            "∀'a.[(int -> 'a) -> 'a par / L('a)]"
        );
        assert_eq!(
            op_scheme(Op::Apply).to_string(),
            "∀'a 'b.[('a -> 'b) par * 'a par -> 'b par / L('a) ∧ L('b)]"
        );
        assert_eq!(
            op_scheme(Op::Put).to_string(),
            "∀'a.[(int -> 'a) par -> (int -> 'a) par / L('a)]"
        );
        assert_eq!(op_scheme(Op::BspP).to_string(), "unit -> int");
    }

    #[test]
    fn const_schemes() {
        assert_eq!(const_scheme(Const::Int(7)).ty(), &Type::Int);
        assert_eq!(const_scheme(Const::Bool(true)).ty(), &Type::Bool);
        assert_eq!(const_scheme(Const::Unit).ty(), &Type::Unit);
    }

    #[test]
    fn every_op_has_a_well_formed_scheme() {
        for op in Op::ALL {
            let s = op_scheme(op);
            // The scheme's own constraint must not be absurd.
            assert_ne!(
                s.constraint().solve(),
                Solution::False,
                "scheme of {op} is absurd"
            );
            // All schemes in TC are closed.
            assert!(s.free_vars().is_empty(), "scheme of {op} has free vars");
        }
    }

    #[test]
    fn mkpar_instantiated_at_par_is_absurd() {
        // The key property: mkpar cannot produce a vector of vectors.
        let mut gen = TyVarGen::starting_at(100);
        let (ty, c) = op_scheme(Op::Mkpar).instantiate(&mut gen);
        let alpha = ty.free_vars()[0];
        let phi = Subst::singleton(alpha, Type::par(Type::Int));
        let (_, c2) = phi.apply_constrained(&ty, &c);
        assert_eq!(c2.solve(), Solution::False);
    }

    #[test]
    fn env_extension_and_lookup() {
        let mut env = TypeEnv::new();
        env.insert(Ident::new("x"), Scheme::mono(Type::Int));
        assert_eq!(env.lookup(&Ident::new("x")).unwrap().ty(), &Type::Int);
        assert!(env.lookup(&Ident::new("y")).is_none());
        assert_eq!(env.len(), 1);
        env.insert(Ident::new("x"), Scheme::mono(Type::Bool));
        assert_eq!(env.lookup(&Ident::new("x")).unwrap().ty(), &Type::Bool);
        assert_eq!(env.len(), 1);
    }

    #[test]
    fn env_free_vars_and_subst() {
        let mut env = TypeEnv::new();
        env.insert(Ident::new("x"), Scheme::mono(Type::var(3)));
        assert_eq!(env.free_vars(), vec![TyVar(3)]);
        assert_eq!(env.var_bound(), 4);
    }

    #[test]
    fn env_display() {
        let mut env = TypeEnv::new();
        env.insert(Ident::new("x"), Scheme::mono(Type::Int));
        assert_eq!(env.to_string(), "{x : int}");
        assert_eq!(TypeEnv::new().to_string(), "{}");
    }
}
