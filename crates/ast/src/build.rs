//! A small builder DSL for constructing mini-BSML ASTs in Rust.
//!
//! All nodes built here carry [`crate::Span::DUMMY`]. The standard library
//! ([`bsml-std`](https://docs.rs/bsml-std)) and the test suites use
//! these helpers to write programs without going through the parser.
//!
//! # Example
//!
//! ```
//! use bsml_ast::build::*;
//! use bsml_ast::Op;
//!
//! // let id = fun x -> x in id 1
//! let prog = let_("id", fun_("x", var("x")), app(var("id"), int(1)));
//! assert!(prog.is_closed());
//!
//! // mkpar (fun pid -> pid * 2)
//! let vec = mkpar(fun_("pid", mul(var("pid"), int(2))));
//! assert!(vec.mentions_parallelism());
//! ```

use std::sync::Arc;

use crate::expr::{Const, Expr, ExprKind, Ident};
use crate::op::Op;

/// A variable occurrence.
#[must_use]
pub fn var(name: impl AsRef<str>) -> Expr {
    Expr::synth(ExprKind::Var(Ident::new(name)))
}

/// An integer literal.
#[must_use]
pub fn int(n: i64) -> Expr {
    Expr::synth(ExprKind::Const(Const::Int(n)))
}

/// A boolean literal.
#[must_use]
pub fn bool_(b: bool) -> Expr {
    Expr::synth(ExprKind::Const(Const::Bool(b)))
}

/// The unit literal `()`.
#[must_use]
pub fn unit() -> Expr {
    Expr::synth(ExprKind::Const(Const::Unit))
}

/// A primitive operator in expression position.
#[must_use]
pub fn op(o: Op) -> Expr {
    Expr::synth(ExprKind::Op(o))
}

/// Function abstraction `fun x -> body`.
#[must_use]
pub fn fun_(x: impl AsRef<str>, body: Expr) -> Expr {
    Expr::synth(ExprKind::Fun(Ident::new(x), Arc::new(body)))
}

/// Curried multi-argument abstraction `fun x₁ … xₙ -> body`.
///
/// # Panics
///
/// Panics if `xs` is empty.
#[must_use]
pub fn funs(xs: &[&str], body: Expr) -> Expr {
    assert!(!xs.is_empty(), "funs requires at least one parameter");
    xs.iter().rev().fold(body, |acc, x| fun_(*x, acc))
}

/// Application `f a`.
#[must_use]
pub fn app(f: Expr, a: Expr) -> Expr {
    Expr::synth(ExprKind::App(Box::new(f), Box::new(a)))
}

/// Left-nested application `f a₁ a₂ …` .
#[must_use]
pub fn apps(f: Expr, args: impl IntoIterator<Item = Expr>) -> Expr {
    args.into_iter().fold(f, app)
}

/// Local binding `let x = bound in body`.
#[must_use]
pub fn let_(x: impl AsRef<str>, bound: Expr, body: Expr) -> Expr {
    Expr::synth(ExprKind::Let(
        Ident::new(x),
        Box::new(bound),
        Box::new(body),
    ))
}

/// Pair `(a, b)`.
#[must_use]
pub fn pair(a: Expr, b: Expr) -> Expr {
    Expr::synth(ExprKind::Pair(Box::new(a), Box::new(b)))
}

/// Conditional `if c then t else e`.
#[must_use]
pub fn if_(c: Expr, t: Expr, e: Expr) -> Expr {
    Expr::synth(ExprKind::If(Box::new(c), Box::new(t), Box::new(e)))
}

/// Global synchronous conditional `if v at n then t else e`.
#[must_use]
pub fn ifat(v: Expr, n: Expr, t: Expr, e: Expr) -> Expr {
    Expr::synth(ExprKind::IfAt(
        Box::new(v),
        Box::new(n),
        Box::new(t),
        Box::new(e),
    ))
}

/// A runtime parallel vector literal `⟨e₀, …⟩`.
#[must_use]
pub fn vector(es: Vec<Expr>) -> Expr {
    Expr::synth(ExprKind::Vector(es))
}

/// Left injection `inl e`.
#[must_use]
pub fn inl(e: Expr) -> Expr {
    Expr::synth(ExprKind::Inl(Box::new(e)))
}

/// Right injection `inr e`.
#[must_use]
pub fn inr(e: Expr) -> Expr {
    Expr::synth(ExprKind::Inr(Box::new(e)))
}

/// Sum elimination `case s of inl l -> lb | inr r -> rb`.
#[must_use]
pub fn case(s: Expr, l: impl AsRef<str>, lb: Expr, r: impl AsRef<str>, rb: Expr) -> Expr {
    Expr::synth(ExprKind::Case {
        scrutinee: Box::new(s),
        left_var: Ident::new(l),
        left_body: Box::new(lb),
        right_var: Ident::new(r),
        right_body: Box::new(rb),
    })
}

/// The empty list `[]`.
#[must_use]
pub fn nil() -> Expr {
    Expr::synth(ExprKind::Nil)
}

/// List cell `h :: t`.
#[must_use]
pub fn cons(h: Expr, t: Expr) -> Expr {
    Expr::synth(ExprKind::Cons(Box::new(h), Box::new(t)))
}

/// A list literal `[e₀; e₁; …]`, i.e. right-nested [`cons`] ending in
/// [`nil`].
#[must_use]
pub fn list(es: Vec<Expr>) -> Expr {
    es.into_iter().rev().fold(nil(), |t, h| cons(h, t))
}

/// List elimination
/// `match s with [] -> nb | h :: t -> cb`.
#[must_use]
pub fn match_list(s: Expr, nb: Expr, h: impl AsRef<str>, t: impl AsRef<str>, cb: Expr) -> Expr {
    Expr::synth(ExprKind::MatchList {
        scrutinee: Box::new(s),
        nil_body: Box::new(nb),
        head_var: Ident::new(h),
        tail_var: Ident::new(t),
        cons_body: Box::new(cb),
    })
}

/// Binary operator application `o (a, b)`.
#[must_use]
pub fn binop(o: Op, a: Expr, b: Expr) -> Expr {
    app(op(o), pair(a, b))
}

/// `a + b`.
#[must_use]
pub fn add(a: Expr, b: Expr) -> Expr {
    binop(Op::Add, a, b)
}

/// `a - b`.
#[must_use]
pub fn sub(a: Expr, b: Expr) -> Expr {
    binop(Op::Sub, a, b)
}

/// `a * b`.
#[must_use]
pub fn mul(a: Expr, b: Expr) -> Expr {
    binop(Op::Mul, a, b)
}

/// `a / b`.
#[must_use]
pub fn div(a: Expr, b: Expr) -> Expr {
    binop(Op::Div, a, b)
}

/// `a mod b`.
#[must_use]
pub fn modulo(a: Expr, b: Expr) -> Expr {
    binop(Op::Mod, a, b)
}

/// `a = b`.
#[must_use]
pub fn eq(a: Expr, b: Expr) -> Expr {
    binop(Op::Eq, a, b)
}

/// `a < b`.
#[must_use]
pub fn lt(a: Expr, b: Expr) -> Expr {
    binop(Op::Lt, a, b)
}

/// `a <= b`.
#[must_use]
pub fn le(a: Expr, b: Expr) -> Expr {
    binop(Op::Le, a, b)
}

/// `mkpar e`.
#[must_use]
pub fn mkpar(e: Expr) -> Expr {
    app(op(Op::Mkpar), e)
}

/// `apply (f, v)` — pointwise application of two parallel vectors.
#[must_use]
pub fn apply(f: Expr, v: Expr) -> Expr {
    app(op(Op::Apply), pair(f, v))
}

/// `put e`.
#[must_use]
pub fn put(e: Expr) -> Expr {
    app(op(Op::Put), e)
}

/// `fix e`.
#[must_use]
pub fn fix(e: Expr) -> Expr {
    app(op(Op::Fix), e)
}

/// `nc ()` — the "no message" value.
#[must_use]
pub fn nc_value() -> Expr {
    app(op(Op::Nc), unit())
}

/// `isnc e`.
#[must_use]
pub fn isnc(e: Expr) -> Expr {
    app(op(Op::Isnc), e)
}

/// `bsp_p ()` — the static number of processors.
#[must_use]
pub fn nprocs() -> Expr {
    app(op(Op::BspP), unit())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn funs_builds_curried() {
        let e = funs(&["a", "b"], var("a"));
        assert_eq!(e, fun_("a", fun_("b", var("a"))));
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn funs_rejects_empty() {
        let _ = funs(&[], int(1));
    }

    #[test]
    fn apps_left_nests() {
        let e = apps(var("f"), [int(1), int(2)]);
        assert_eq!(e, app(app(var("f"), int(1)), int(2)));
    }

    #[test]
    fn list_literal_nests_right() {
        let e = list(vec![int(1), int(2)]);
        assert_eq!(e, cons(int(1), cons(int(2), nil())));
    }

    #[test]
    fn binop_desugars_to_pair_application() {
        let e = add(int(1), int(2));
        assert_eq!(e, app(op(Op::Add), pair(int(1), int(2))));
    }

    #[test]
    fn bsp_builders() {
        assert!(mkpar(fun_("i", var("i"))).mentions_parallelism());
        assert!(put(var("v")).mentions_parallelism());
        assert!(apply(var("f"), var("v")).mentions_parallelism());
        assert_eq!(nc_value(), app(op(Op::Nc), unit()));
    }
}
