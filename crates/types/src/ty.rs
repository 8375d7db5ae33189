//! Simple types (the paper's §4 type algebra).

use std::fmt;

/// A type variable `α`.
///
/// Displayed OCaml-style: `'a`, `'b`, …, `'z`, `'a1`, `'b1`, …
///
/// # Example
///
/// ```
/// use bsml_types::TyVar;
/// assert_eq!(TyVar(0).to_string(), "'a");
/// assert_eq!(TyVar(25).to_string(), "'z");
/// assert_eq!(TyVar(26).to_string(), "'a1");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TyVar(pub u32);

impl fmt::Display for TyVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let letter = (b'a' + (self.0 % 26) as u8) as char;
        let round = self.0 / 26;
        if round == 0 {
            write!(f, "'{letter}")
        } else {
            write!(f, "'{letter}{round}")
        }
    }
}

/// A fresh-variable supply.
///
/// All variables produced by one generator are distinct, so variables
/// it issues for an instance are "out of reach" of substitutions built
/// over earlier ones, in the sense of Definition 1. The inference
/// engine draws its fresh variables from its [`Cells`](crate::Cells)
/// arena, which numbers them the same way.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TyVarGen {
    next: u32,
}

impl TyVarGen {
    /// A generator starting at `'a`.
    #[must_use]
    pub fn new() -> Self {
        TyVarGen::default()
    }

    /// A generator whose first variable is `TyVar(start)`.
    #[must_use]
    pub fn starting_at(start: u32) -> Self {
        TyVarGen { next: start }
    }

    /// Produces the next fresh variable.
    pub fn fresh(&mut self) -> TyVar {
        let v = TyVar(self.next);
        self.next += 1;
        v
    }

    /// Advances the supply past every variable occurring in `ty`, so
    /// subsequently generated variables cannot collide with it.
    pub fn skip_past(&mut self, ty: &Type) {
        for v in ty.free_vars() {
            self.next = self.next.max(v.0 + 1);
        }
    }
}

/// A simple type `τ` (paper §4), with the §6 extensions.
///
/// ```text
/// τ ::= int | bool | unit        base types κ
///     | α                        type variable
///     | τ₁ → τ₂                  functions
///     | τ₁ * τ₂                  pairs
///     | (τ par)                  parallel vectors
///     | τ₁ + τ₂                  sums        (§6 extension)
///     | τ list                   lists       (§6 extension)
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Type {
    /// The base type of integers.
    Int,
    /// The base type of booleans.
    Bool,
    /// The base type with the unique value `()`.
    Unit,
    /// A type variable.
    Var(TyVar),
    /// Function type `τ₁ → τ₂`.
    Arrow(Box<Type>, Box<Type>),
    /// Pair type `τ₁ * τ₂`.
    Pair(Box<Type>, Box<Type>),
    /// Parallel vector type `(τ par)`.
    Par(Box<Type>),
    /// Sum type `τ₁ + τ₂` (§6 extension).
    Sum(Box<Type>, Box<Type>),
    /// List type `τ list` (§6 extension).
    List(Box<Type>),
    /// Mutable reference type `τ ref` (§6 "imperative features"
    /// extension).
    Ref(Box<Type>),
}

impl Type {
    /// Builds `a → b`.
    #[must_use]
    pub fn arrow(a: Type, b: Type) -> Type {
        Type::Arrow(Box::new(a), Box::new(b))
    }

    /// Builds a right-nested curried arrow `t₁ → t₂ → … → ret`.
    #[must_use]
    pub fn arrows(
        params: impl IntoIterator<IntoIter = impl DoubleEndedIterator<Item = Type>>,
        ret: Type,
    ) -> Type {
        params
            .into_iter()
            .rev()
            .fold(ret, |acc, t| Type::arrow(t, acc))
    }

    /// Builds `a * b`.
    #[must_use]
    pub fn pair(a: Type, b: Type) -> Type {
        Type::Pair(Box::new(a), Box::new(b))
    }

    /// Builds `(t par)`.
    #[must_use]
    pub fn par(t: Type) -> Type {
        Type::Par(Box::new(t))
    }

    /// Builds `a + b`.
    #[must_use]
    pub fn sum(a: Type, b: Type) -> Type {
        Type::Sum(Box::new(a), Box::new(b))
    }

    /// Builds `t list`.
    #[must_use]
    pub fn list(t: Type) -> Type {
        Type::List(Box::new(t))
    }

    /// Builds `t ref`.
    #[must_use]
    pub fn reference(t: Type) -> Type {
        Type::Ref(Box::new(t))
    }

    /// Shorthand for `Type::Var(TyVar(n))`.
    #[must_use]
    pub fn var(n: u32) -> Type {
        Type::Var(TyVar(n))
    }

    /// `true` if the type syntactically contains a `par` constructor.
    #[must_use]
    pub fn contains_par(&self) -> bool {
        match self {
            Type::Par(_) => true,
            Type::Int | Type::Bool | Type::Unit | Type::Var(_) => false,
            Type::Arrow(a, b) | Type::Pair(a, b) | Type::Sum(a, b) => {
                a.contains_par() || b.contains_par()
            }
            Type::List(t) | Type::Ref(t) => t.contains_par(),
        }
    }

    /// `true` if a `par` constructor occurs *under* another `par`
    /// constructor — the nesting the whole paper exists to prevent.
    #[must_use]
    pub fn has_nested_par(&self) -> bool {
        match self {
            Type::Par(inner) => inner.contains_par() || inner.has_nested_par(),
            Type::Int | Type::Bool | Type::Unit | Type::Var(_) => false,
            Type::Arrow(a, b) | Type::Pair(a, b) | Type::Sum(a, b) => {
                a.has_nested_par() || b.has_nested_par()
            }
            Type::List(t) | Type::Ref(t) => t.has_nested_par(),
        }
    }

    /// The type with each variable `v` for which `f(v)` is `Some(τ)`
    /// replaced by `τ`; the other variables stay.
    #[must_use]
    pub fn map_vars<F: FnMut(TyVar) -> Option<Type>>(&self, f: &mut F) -> Type {
        match self {
            Type::Int | Type::Bool | Type::Unit => self.clone(),
            Type::Var(v) => f(*v).unwrap_or_else(|| self.clone()),
            Type::Arrow(a, b) => Type::arrow(a.map_vars(f), b.map_vars(f)),
            Type::Pair(a, b) => Type::pair(a.map_vars(f), b.map_vars(f)),
            Type::Sum(a, b) => Type::sum(a.map_vars(f), b.map_vars(f)),
            Type::Par(t) => Type::par(t.map_vars(f)),
            Type::List(t) => Type::list(t.map_vars(f)),
            Type::Ref(t) => Type::reference(t.map_vars(f)),
        }
    }

    /// Free type variables, in first-occurrence order.
    #[must_use]
    pub fn free_vars(&self) -> Vec<TyVar> {
        let mut out = Vec::new();
        self.collect_free_vars(&mut out);
        out
    }

    pub(crate) fn collect_free_vars(&self, out: &mut Vec<TyVar>) {
        match self {
            Type::Int | Type::Bool | Type::Unit => {}
            Type::Var(v) => {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
            Type::Arrow(a, b) | Type::Pair(a, b) | Type::Sum(a, b) => {
                a.collect_free_vars(out);
                b.collect_free_vars(out);
            }
            Type::Par(t) | Type::List(t) | Type::Ref(t) => t.collect_free_vars(out),
        }
    }

    /// `true` if `v` occurs in the type (the unifier's occurs-check).
    #[must_use]
    pub fn occurs(&self, v: TyVar) -> bool {
        match self {
            Type::Int | Type::Bool | Type::Unit => false,
            Type::Var(w) => *w == v,
            Type::Arrow(a, b) | Type::Pair(a, b) | Type::Sum(a, b) => a.occurs(v) || b.occurs(v),
            Type::Par(t) | Type::List(t) | Type::Ref(t) => t.occurs(v),
        }
    }

    /// Number of constructors in the type tree.
    #[must_use]
    pub fn size(&self) -> usize {
        match self {
            Type::Int | Type::Bool | Type::Unit | Type::Var(_) => 1,
            Type::Arrow(a, b) | Type::Pair(a, b) | Type::Sum(a, b) => 1 + a.size() + b.size(),
            Type::Par(t) | Type::List(t) | Type::Ref(t) => 1 + t.size(),
        }
    }
}

/// Precedence for printing: arrow < sum < pair < postfix < atom.
fn print_ty(f: &mut fmt::Formatter<'_>, t: &Type, prec: u8) -> fmt::Result {
    let paren = |f: &mut fmt::Formatter<'_>,
                 needed: bool,
                 inner: &dyn Fn(&mut fmt::Formatter<'_>) -> fmt::Result| {
        if needed {
            f.write_str("(")?;
            inner(f)?;
            f.write_str(")")
        } else {
            inner(f)
        }
    };
    match t {
        Type::Int => f.write_str("int"),
        Type::Bool => f.write_str("bool"),
        Type::Unit => f.write_str("unit"),
        Type::Var(v) => write!(f, "{v}"),
        Type::Arrow(a, b) => paren(f, prec > 0, &|f| {
            print_ty(f, a, 1)?;
            f.write_str(" -> ")?;
            print_ty(f, b, 0)
        }),
        Type::Sum(a, b) => paren(f, prec > 1, &|f| {
            print_ty(f, a, 2)?;
            f.write_str(" + ")?;
            print_ty(f, b, 2)
        }),
        Type::Pair(a, b) => paren(f, prec > 2, &|f| {
            print_ty(f, a, 3)?;
            f.write_str(" * ")?;
            print_ty(f, b, 3)
        }),
        Type::Par(inner) => paren(f, prec > 3, &|f| {
            print_ty(f, inner, 4)?;
            f.write_str(" par")
        }),
        Type::List(inner) => paren(f, prec > 3, &|f| {
            print_ty(f, inner, 4)?;
            f.write_str(" list")
        }),
        Type::Ref(inner) => paren(f, prec > 3, &|f| {
            print_ty(f, inner, 4)?;
            f.write_str(" ref")
        }),
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        print_ty(f, self, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tyvar_display() {
        assert_eq!(TyVar(0).to_string(), "'a");
        assert_eq!(TyVar(1).to_string(), "'b");
        assert_eq!(TyVar(25).to_string(), "'z");
        assert_eq!(TyVar(26).to_string(), "'a1");
        assert_eq!(TyVar(53).to_string(), "'b2");
    }

    #[test]
    fn gen_produces_distinct() {
        let mut g = TyVarGen::new();
        let a = g.fresh();
        let b = g.fresh();
        assert_ne!(a, b);
        assert_eq!(a, TyVar(0));
        assert_eq!(b, TyVar(1));
    }

    #[test]
    fn gen_skip_past() {
        let mut g = TyVarGen::new();
        g.skip_past(&Type::pair(Type::var(5), Type::var(2)));
        assert_eq!(g.fresh(), TyVar(6));
    }

    #[test]
    fn display_precedence() {
        let t = Type::arrow(
            Type::arrow(Type::Int, Type::Bool),
            Type::pair(Type::Int, Type::par(Type::var(0))),
        );
        assert_eq!(t.to_string(), "(int -> bool) -> int * 'a par");
        assert_eq!(
            Type::par(Type::arrow(Type::Int, Type::Int)).to_string(),
            "(int -> int) par"
        );
        assert_eq!(
            Type::pair(Type::pair(Type::Int, Type::Int), Type::Int).to_string(),
            "(int * int) * int"
        );
        assert_eq!(
            Type::list(Type::par(Type::Int)).to_string(),
            "(int par) list"
        );
        assert_eq!(
            Type::sum(Type::Int, Type::pair(Type::Bool, Type::Unit)).to_string(),
            "int + bool * unit"
        );
    }

    #[test]
    fn arrows_builder() {
        let t = Type::arrows(vec![Type::Int, Type::Bool], Type::Unit);
        assert_eq!(t.to_string(), "int -> bool -> unit");
    }

    #[test]
    fn nesting_detection() {
        assert!(!Type::par(Type::Int).has_nested_par());
        assert!(Type::par(Type::par(Type::Int)).has_nested_par());
        assert!(Type::par(Type::pair(Type::Int, Type::par(Type::Bool))).has_nested_par());
        assert!(Type::arrow(Type::par(Type::par(Type::Int)), Type::Int).has_nested_par());
        assert!(!Type::arrow(Type::par(Type::Int), Type::par(Type::Bool)).has_nested_par());
    }

    #[test]
    fn free_vars_in_order() {
        let t = Type::arrow(Type::var(3), Type::pair(Type::var(1), Type::var(3)));
        assert_eq!(t.free_vars(), vec![TyVar(3), TyVar(1)]);
    }

    #[test]
    fn occurs_check() {
        let t = Type::arrow(Type::var(0), Type::Int);
        assert!(t.occurs(TyVar(0)));
        assert!(!t.occurs(TyVar(1)));
    }

    #[test]
    fn size_counts_constructors() {
        assert_eq!(Type::Int.size(), 1);
        assert_eq!(Type::arrow(Type::Int, Type::Bool).size(), 3);
        assert_eq!(Type::par(Type::pair(Type::Int, Type::Int)).size(), 4);
    }
}
