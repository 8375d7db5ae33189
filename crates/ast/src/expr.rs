//! Expressions of mini-BSML (the paper's Figure 3) plus the *extended
//! expressions* of §3 (parallel vectors `⟨e₀,…,e_{p−1}⟩`) and the §6
//! extensions (sums and lists).

use std::fmt;
use std::sync::Arc;

use crate::op::Op;
use crate::span::Span;

/// An identifier (variable name).
///
/// Cheap to clone (`Arc`-backed, so expressions are `Send + Sync` and
/// can be shared with the distributed execution backend); compares by
/// string content.
///
/// # Example
///
/// ```
/// use bsml_ast::Ident;
/// let x = Ident::new("x");
/// assert_eq!(x.as_str(), "x");
/// assert_eq!(x, Ident::new("x"));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ident(Arc<str>);

impl Ident {
    /// Creates an identifier from a name.
    #[must_use]
    pub fn new(name: impl AsRef<str>) -> Self {
        Ident(Arc::from(name.as_ref()))
    }

    /// The identifier's textual name.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Debug for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ident({})", self.0)
    }
}

impl fmt::Display for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Ident {
    fn from(s: &str) -> Self {
        Ident::new(s)
    }
}

impl From<String> for Ident {
    fn from(s: String) -> Self {
        Ident::new(s)
    }
}

impl AsRef<str> for Ident {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

/// Constants: integers, booleans and the unit value `()` (paper §3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Const {
    /// An integer literal.
    Int(i64),
    /// A boolean literal.
    Bool(bool),
    /// The unique value of type `unit`.
    Unit,
}

impl fmt::Display for Const {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Const::Int(n) => write!(f, "{n}"),
            Const::Bool(b) => write!(f, "{b}"),
            Const::Unit => f.write_str("()"),
        }
    }
}

/// The shape of an expression node.
///
/// The first nine variants are the paper's Figure 3; `Vector` is the
/// runtime-only extension of §3 (it cannot be written in source
/// programs — the parser never produces it); the remaining variants
/// are the §6 extensions.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum ExprKind {
    /// A variable occurrence.
    Var(Ident),
    /// A constant.
    Const(Const),
    /// A primitive operator in expression position.
    Op(Op),
    /// Function abstraction `fun x -> e`. The body is immutable code,
    /// shared by every closure evaluation builds from this node.
    Fun(Ident, Arc<Expr>),
    /// Application `e₁ e₂`.
    App(Box<Expr>, Box<Expr>),
    /// Local binding `let x = e₁ in e₂`.
    Let(Ident, Box<Expr>, Box<Expr>),
    /// Pair `(e₁, e₂)`.
    Pair(Box<Expr>, Box<Expr>),
    /// Conditional `if e₁ then e₂ else e₃`.
    If(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Global synchronous conditional `if e₁ at e₂ then e₃ else e₄`.
    IfAt(Box<Expr>, Box<Expr>, Box<Expr>, Box<Expr>),
    /// Runtime-only p-wide parallel vector `⟨e₀, …, e_{p−1}⟩`.
    Vector(Vec<Expr>),
    /// Left injection into a sum (§6 extension).
    Inl(Box<Expr>),
    /// Right injection into a sum (§6 extension).
    Inr(Box<Expr>),
    /// Sum elimination
    /// `case e of inl x -> e₁ | inr y -> e₂` (§6 extension).
    Case {
        /// The scrutinee.
        scrutinee: Box<Expr>,
        /// Binder of the `inl` branch.
        left_var: Ident,
        /// Body of the `inl` branch.
        left_body: Box<Expr>,
        /// Binder of the `inr` branch.
        right_var: Ident,
        /// Body of the `inr` branch.
        right_body: Box<Expr>,
    },
    /// The empty list `[]` (§6 extension).
    Nil,
    /// List cell `e₁ :: e₂` (§6 extension).
    Cons(Box<Expr>, Box<Expr>),
    /// List elimination
    /// `match e with [] -> e₁ | h :: t -> e₂` (§6 extension).
    MatchList {
        /// The scrutinee.
        scrutinee: Box<Expr>,
        /// Body of the `[]` branch.
        nil_body: Box<Expr>,
        /// Head binder of the `::` branch.
        head_var: Ident,
        /// Tail binder of the `::` branch.
        tail_var: Ident,
        /// Body of the `::` branch.
        cons_body: Box<Expr>,
    },
}

/// An expression: a kind plus its source location.
#[derive(Clone, Debug, Eq)]
pub struct Expr {
    /// The node shape.
    pub kind: ExprKind,
    /// Where the node came from in the source (dummy if synthesized).
    pub span: Span,
}

// Structural equality ignores spans: two programs are the same program
// regardless of where they were written.
impl PartialEq for Expr {
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind
    }
}

impl std::hash::Hash for Expr {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.kind.hash(state);
    }
}

impl Expr {
    /// Wraps a kind with a span.
    #[must_use]
    pub fn new(kind: ExprKind, span: Span) -> Self {
        Expr { kind, span }
    }

    /// Wraps a kind with the dummy span (for synthesized nodes).
    #[must_use]
    pub fn synth(kind: ExprKind) -> Self {
        Expr::new(kind, Span::DUMMY)
    }

    /// Number of nodes in the expression tree.
    #[must_use]
    pub fn size(&self) -> usize {
        let mut n = 0;
        self.walk(&mut |_| n += 1);
        n
    }

    /// Maximum nesting depth of the expression tree.
    #[must_use]
    pub fn depth(&self) -> usize {
        use ExprKind::*;
        1 + match &self.kind {
            Var(_) | Const(_) | Op(_) | Nil => 0,
            Fun(_, e) => e.depth(),
            Inl(e) | Inr(e) => e.depth(),
            App(a, b) | Let(_, a, b) | Pair(a, b) | Cons(a, b) => a.depth().max(b.depth()),
            If(a, b, c) => a.depth().max(b.depth()).max(c.depth()),
            IfAt(a, b, c, d) => a.depth().max(b.depth()).max(c.depth()).max(d.depth()),
            Vector(es) => es.iter().map(Expr::depth).max().unwrap_or(0),
            Case {
                scrutinee,
                left_body,
                right_body,
                ..
            } => scrutinee
                .depth()
                .max(left_body.depth())
                .max(right_body.depth()),
            MatchList {
                scrutinee,
                nil_body,
                cons_body,
                ..
            } => scrutinee
                .depth()
                .max(nil_body.depth())
                .max(cons_body.depth()),
        }
    }

    /// Visits every node in pre-order.
    pub fn walk(&self, visit: &mut impl FnMut(&Expr)) {
        use ExprKind::*;
        visit(self);
        match &self.kind {
            Var(_) | Const(_) | Op(_) | Nil => {}
            Fun(_, e) => e.walk(visit),
            Inl(e) | Inr(e) => e.walk(visit),
            App(a, b) | Let(_, a, b) | Pair(a, b) | Cons(a, b) => {
                a.walk(visit);
                b.walk(visit);
            }
            If(a, b, c) => {
                a.walk(visit);
                b.walk(visit);
                c.walk(visit);
            }
            IfAt(a, b, c, d) => {
                a.walk(visit);
                b.walk(visit);
                c.walk(visit);
                d.walk(visit);
            }
            Vector(es) => {
                for e in es {
                    e.walk(visit);
                }
            }
            Case {
                scrutinee,
                left_body,
                right_body,
                ..
            } => {
                scrutinee.walk(visit);
                left_body.walk(visit);
                right_body.walk(visit);
            }
            MatchList {
                scrutinee,
                nil_body,
                cons_body,
                ..
            } => {
                scrutinee.walk(visit);
                nil_body.walk(visit);
                cons_body.walk(visit);
            }
        }
    }

    /// `true` if the expression contains a parallel vector literal or
    /// any parallel primitive — i.e. it is not a purely sequential
    /// program.
    #[must_use]
    pub fn mentions_parallelism(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| match &e.kind {
            ExprKind::Vector(_) | ExprKind::IfAt(..) => found = true,
            ExprKind::Op(op) if op.is_parallel() => found = true,
            _ => {}
        });
        found
    }

    /// The set of free variables, in first-occurrence order.
    #[must_use]
    pub fn free_vars(&self) -> Vec<Ident> {
        fn go(e: &Expr, bound: &mut Vec<Ident>, out: &mut Vec<Ident>) {
            use ExprKind::*;
            match &e.kind {
                Var(x) => {
                    if !bound.contains(x) && !out.contains(x) {
                        out.push(x.clone());
                    }
                }
                Const(_) | Op(_) | Nil => {}
                Fun(x, body) => {
                    bound.push(x.clone());
                    go(body, bound, out);
                    bound.pop();
                }
                App(a, b) | Pair(a, b) | Cons(a, b) => {
                    go(a, bound, out);
                    go(b, bound, out);
                }
                Let(x, e1, e2) => {
                    go(e1, bound, out);
                    bound.push(x.clone());
                    go(e2, bound, out);
                    bound.pop();
                }
                If(a, b, c) => {
                    go(a, bound, out);
                    go(b, bound, out);
                    go(c, bound, out);
                }
                IfAt(a, b, c, d) => {
                    go(a, bound, out);
                    go(b, bound, out);
                    go(c, bound, out);
                    go(d, bound, out);
                }
                Vector(es) => {
                    for e in es {
                        go(e, bound, out);
                    }
                }
                Inl(e) | Inr(e) => go(e, bound, out),
                Case {
                    scrutinee,
                    left_var,
                    left_body,
                    right_var,
                    right_body,
                } => {
                    go(scrutinee, bound, out);
                    bound.push(left_var.clone());
                    go(left_body, bound, out);
                    bound.pop();
                    bound.push(right_var.clone());
                    go(right_body, bound, out);
                    bound.pop();
                }
                MatchList {
                    scrutinee,
                    nil_body,
                    head_var,
                    tail_var,
                    cons_body,
                } => {
                    go(scrutinee, bound, out);
                    go(nil_body, bound, out);
                    bound.push(head_var.clone());
                    bound.push(tail_var.clone());
                    go(cons_body, bound, out);
                    bound.pop();
                    bound.pop();
                }
            }
        }
        let mut out = Vec::new();
        go(self, &mut Vec::new(), &mut out);
        out
    }

    /// `true` if the expression has no free variables.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.free_vars().is_empty()
    }

    /// Capture-avoiding substitution `self[x ← v]` (the paper's
    /// `e[x ← v]`).
    ///
    /// Binders that would capture a free variable of `v` are renamed
    /// to a fresh name first.
    #[must_use]
    pub fn substitute(&self, x: &Ident, v: &Expr) -> Expr {
        let v_free = v.free_vars();
        self.subst_inner(x, v, &v_free)
    }

    fn subst_inner(&self, x: &Ident, v: &Expr, v_free: &[Ident]) -> Expr {
        use ExprKind::*;
        // Subtrees without a free occurrence of `x` are returned
        // untouched — in particular no binder inside them is renamed.
        if !self.free_vars().contains(x) {
            return self.clone();
        }
        let span = self.span;
        let kind = match &self.kind {
            Var(y) => {
                if y == x {
                    return v.clone();
                }
                Var(y.clone())
            }
            Const(c) => Const(*c),
            Op(op) => Op(*op),
            Nil => Nil,
            Fun(y, body) => {
                if y == x {
                    Fun(y.clone(), body.clone())
                } else if v_free.contains(y) {
                    let fresh = fresh_name(y, &[body.free_vars(), v_free.to_vec()].concat());
                    let renamed = body.subst_inner(
                        y,
                        &Expr::synth(Var(fresh.clone())),
                        std::slice::from_ref(&fresh),
                    );
                    Fun(fresh, Arc::new(renamed.subst_inner(x, v, v_free)))
                } else {
                    Fun(y.clone(), Arc::new(body.subst_inner(x, v, v_free)))
                }
            }
            App(a, b) => App(
                Box::new(a.subst_inner(x, v, v_free)),
                Box::new(b.subst_inner(x, v, v_free)),
            ),
            Pair(a, b) => Pair(
                Box::new(a.subst_inner(x, v, v_free)),
                Box::new(b.subst_inner(x, v, v_free)),
            ),
            Cons(a, b) => Cons(
                Box::new(a.subst_inner(x, v, v_free)),
                Box::new(b.subst_inner(x, v, v_free)),
            ),
            Let(y, e1, e2) => {
                let e1 = Box::new(e1.subst_inner(x, v, v_free));
                if y == x || !e2.free_vars().contains(x) {
                    Let(y.clone(), e1, e2.clone())
                } else if v_free.contains(y) {
                    let fresh = fresh_name(y, &[e2.free_vars(), v_free.to_vec()].concat());
                    let renamed = e2.subst_inner(
                        y,
                        &Expr::synth(Var(fresh.clone())),
                        std::slice::from_ref(&fresh),
                    );
                    Let(fresh, e1, Box::new(renamed.subst_inner(x, v, v_free)))
                } else {
                    Let(y.clone(), e1, Box::new(e2.subst_inner(x, v, v_free)))
                }
            }
            If(a, b, c) => If(
                Box::new(a.subst_inner(x, v, v_free)),
                Box::new(b.subst_inner(x, v, v_free)),
                Box::new(c.subst_inner(x, v, v_free)),
            ),
            IfAt(a, b, c, d) => IfAt(
                Box::new(a.subst_inner(x, v, v_free)),
                Box::new(b.subst_inner(x, v, v_free)),
                Box::new(c.subst_inner(x, v, v_free)),
                Box::new(d.subst_inner(x, v, v_free)),
            ),
            Vector(es) => Vector(es.iter().map(|e| e.subst_inner(x, v, v_free)).collect()),
            Inl(e) => Inl(Box::new(e.subst_inner(x, v, v_free))),
            Inr(e) => Inr(Box::new(e.subst_inner(x, v, v_free))),
            Case {
                scrutinee,
                left_var,
                left_body,
                right_var,
                right_body,
            } => {
                let scrutinee = Box::new(scrutinee.subst_inner(x, v, v_free));
                let (left_var, left_body) = subst_under_binder(left_var, left_body, x, v, v_free);
                let (right_var, right_body) =
                    subst_under_binder(right_var, right_body, x, v, v_free);
                Case {
                    scrutinee,
                    left_var,
                    left_body: Box::new(left_body),
                    right_var,
                    right_body: Box::new(right_body),
                }
            }
            MatchList {
                scrutinee,
                nil_body,
                head_var,
                tail_var,
                cons_body,
            } => {
                let scrutinee = Box::new(scrutinee.subst_inner(x, v, v_free));
                let nil_body = Box::new(nil_body.subst_inner(x, v, v_free));
                // The pattern binders shadow `x` if either equals it;
                // no work is needed either when `x` is not free in
                // the branch body.
                let shadowed = head_var == x || tail_var == x || !cons_body.free_vars().contains(x);
                let (head_var, tail_var, cons_body) = if shadowed {
                    (head_var.clone(), tail_var.clone(), (**cons_body).clone())
                } else {
                    // Rename each binder away from the free variables
                    // of `v`, then substitute.
                    let (h, body) = subst_under_binder_only_rename(head_var, cons_body, v_free);
                    let (t, body) = subst_under_binder_only_rename(tail_var, &body, v_free);
                    (h, t, body.subst_inner(x, v, v_free))
                };
                MatchList {
                    scrutinee,
                    nil_body,
                    head_var,
                    tail_var,
                    cons_body: Box::new(cons_body),
                }
            }
        };
        Expr::new(kind, span)
    }
}

/// Renames `binder` away from `avoid` inside `body` (no substitution of
/// the target variable yet).
fn subst_under_binder_only_rename(binder: &Ident, body: &Expr, avoid: &[Ident]) -> (Ident, Expr) {
    if avoid.contains(binder) {
        let fresh = fresh_name(binder, &[body.free_vars(), avoid.to_vec()].concat());
        let renamed = body.subst_inner(
            binder,
            &Expr::synth(ExprKind::Var(fresh.clone())),
            std::slice::from_ref(&fresh),
        );
        (fresh, renamed)
    } else {
        (binder.clone(), body.clone())
    }
}

/// Substitutes `x ← v` under one binder, renaming it if it would
/// capture.
fn subst_under_binder(
    binder: &Ident,
    body: &Expr,
    x: &Ident,
    v: &Expr,
    v_free: &[Ident],
) -> (Ident, Expr) {
    if binder == x || !body.free_vars().contains(x) {
        (binder.clone(), body.clone())
    } else {
        let (binder, body) = subst_under_binder_only_rename(binder, body, v_free);
        let body = body.subst_inner(x, v, v_free);
        (binder, body)
    }
}

/// Picks a name derived from `base` that does not occur in `avoid`.
fn fresh_name(base: &Ident, avoid: &[Ident]) -> Ident {
    let mut i = 0u64;
    loop {
        let candidate = Ident::new(format!("{}${i}", base.as_str()));
        if !avoid.contains(&candidate) {
            return candidate;
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::*;

    #[test]
    fn ident_basics() {
        let x = Ident::new("x");
        assert_eq!(x.as_str(), "x");
        assert_eq!(x, Ident::from("x"));
        assert_ne!(x, Ident::new("y"));
        assert_eq!(format!("{x}"), "x");
        assert_eq!(format!("{x:?}"), "Ident(x)");
    }

    #[test]
    fn const_display() {
        assert_eq!(Const::Int(42).to_string(), "42");
        assert_eq!(Const::Bool(true).to_string(), "true");
        assert_eq!(Const::Unit.to_string(), "()");
    }

    #[test]
    fn eq_ignores_spans() {
        let a = Expr::new(ExprKind::Const(Const::Int(1)), Span::new(0, 1));
        let b = Expr::new(ExprKind::Const(Const::Int(1)), Span::new(5, 6));
        assert_eq!(a, b);
    }

    #[test]
    fn size_and_depth() {
        // fun x -> x + 1  ==  fun x -> (+) (x, 1)
        let e = fun_("x", add(var("x"), int(1)));
        assert_eq!(e.size(), 6); // fun, app, op, pair, var, const
        assert_eq!(e.depth(), 4); // fun -> app -> pair -> var
    }

    #[test]
    fn free_vars_simple() {
        let e = app(var("f"), var("x"));
        assert_eq!(e.free_vars(), vec![Ident::new("f"), Ident::new("x")]);
        assert!(!e.is_closed());
        assert!(fun_("f", fun_("x", e)).is_closed());
    }

    #[test]
    fn free_vars_let_scoping() {
        // let x = y in x — only y free
        let e = let_("x", var("y"), var("x"));
        assert_eq!(e.free_vars(), vec![Ident::new("y")]);
        // let x = x in x — the bound expression's x is free
        let e = let_("x", var("x"), var("x"));
        assert_eq!(e.free_vars(), vec![Ident::new("x")]);
    }

    #[test]
    fn free_vars_case_and_match() {
        let e = case(
            var("s"),
            "l",
            app(var("l"), var("a")),
            "r",
            app(var("r"), var("b")),
        );
        assert_eq!(
            e.free_vars(),
            vec![Ident::new("s"), Ident::new("a"), Ident::new("b")]
        );
        let m = match_list(var("xs"), var("z"), "h", "t", pair(var("h"), var("t")));
        assert_eq!(m.free_vars(), vec![Ident::new("xs"), Ident::new("z")]);
    }

    #[test]
    fn substitute_basic() {
        let e = add(var("x"), var("y"));
        let got = e.substitute(&Ident::new("x"), &int(7));
        assert_eq!(got, add(int(7), var("y")));
    }

    #[test]
    fn substitute_respects_shadowing() {
        // (fun x -> x)[x ← 1] = fun x -> x
        let e = fun_("x", var("x"));
        assert_eq!(e.substitute(&Ident::new("x"), &int(1)), fun_("x", var("x")));
        // (let x = x in x)[x ← 1] = let x = 1 in x
        let e = let_("x", var("x"), var("x"));
        assert_eq!(
            e.substitute(&Ident::new("x"), &int(1)),
            let_("x", int(1), var("x"))
        );
    }

    #[test]
    fn substitute_avoids_capture() {
        // (fun y -> x)[x ← y]  must NOT become fun y -> y
        let e = fun_("y", var("x"));
        let got = e.substitute(&Ident::new("x"), &var("y"));
        if let ExprKind::Fun(binder, body) = &got.kind {
            assert_ne!(binder.as_str(), "y");
            assert_eq!(body.kind, ExprKind::Var(Ident::new("y")));
        } else {
            panic!("expected a function, got {got:?}");
        }
    }

    #[test]
    fn substitute_avoids_capture_in_let() {
        // (let y = 1 in x)[x ← y]
        let e = let_("y", int(1), var("x"));
        let got = e.substitute(&Ident::new("x"), &var("y"));
        if let ExprKind::Let(binder, _, body) = &got.kind {
            assert_ne!(binder.as_str(), "y");
            assert_eq!(body.kind, ExprKind::Var(Ident::new("y")));
        } else {
            panic!("expected a let, got {got:?}");
        }
    }

    #[test]
    fn substitute_in_vector() {
        let e = vector(vec![var("x"), int(2)]);
        let got = e.substitute(&Ident::new("x"), &int(9));
        assert_eq!(got, vector(vec![int(9), int(2)]));
    }

    #[test]
    fn mentions_parallelism_detects_primitives() {
        assert!(app(op(Op::Mkpar), fun_("i", var("i"))).mentions_parallelism());
        assert!(vector(vec![int(1)]).mentions_parallelism());
        assert!(ifat(var("v"), int(0), int(1), int(2)).mentions_parallelism());
        assert!(!add(int(1), int(2)).mentions_parallelism());
    }

    #[test]
    fn walk_visits_all_nodes() {
        let e = if_(bool_(true), int(1), int(2));
        let mut count = 0;
        e.walk(&mut |_| count += 1);
        assert_eq!(count, e.size());
        assert_eq!(count, 4);
    }
}
