//! The inference algorithm (algorithm-W shape) implementing the
//! inductive rules of Figure 7, over one arena of union-find type
//! variable cells per run.
//!
//! Every rule:
//!
//! 1. infers its premises and stores each returned judgment `[τ/C]`
//!    resolved; unification links type variables in place, so nothing
//!    re-substitutes a stored judgment or the environment,
//! 2. reads each stored judgment through the cells when it checks it,
//!    applying **Definition 1** at that point: `τ` and `C` resolved,
//!    conjoined with the basic constraints `C_τ'` of every variable of
//!    `[τ/C]` linked since it was stored (`τ'` its resolution), so
//!    that instantiating a variable with e.g. `int par` conjoins the
//!    image's basic constraints,
//! 3. conjoins the premise constraints plus its own side condition
//!    (*(Fun)*: `C_{τ₁→τ₂}`; *(Let)*: `L(τ₂) ⇒ L(τ₁)`; *(Ifat)*:
//!    `L(τ) ⇒ False`),
//! 4. runs `Solve`; if the constraint is absurd the expression is
//!    rejected with a [`TypeError::LocalityViolation`], and otherwise
//!    the rule returns the constraint it checked.
//!
//! The §6 extensions (sums, lists) follow the same pattern; their
//! eliminators carry the *(Let)*-style condition
//! `L(τ_result) ⇒ L(τ_scrutinee)` since they, too, can hide the
//! evaluation of a global value under a local result type.
//!
//! `w` only dispatches; each rule is a function of its own, so a level
//! of program nesting costs one rule's stack frame.

use bsml_ast::{Const, Expr, ExprKind, Ident, Op, Span};
use bsml_obs::Telemetry;
use bsml_types::{
    basic_constraint, Cells, Constraint, Head, Scheme, Solution, SolveStats, TyVar, Type,
    UnifyStats,
};

use crate::derivation::{elide, Derivation};
use crate::env::{const_scheme, initial_env, op_scheme, TypeEnv};
use crate::error::TypeError;

/// Maximum characters of expression text kept in derivation nodes.
const ELIDE_AT: usize = 60;

/// The result of a successful inference.
#[derive(Clone, Debug)]
pub struct Inference {
    /// The inferred simple type.
    pub ty: Type,
    /// The accumulated constraint (not `False` — that would have been
    /// an error).
    pub constraint: Constraint,
    /// `Solve`'s canonical form of the constraint.
    pub solution: Solution,
    /// The typing derivation, when recording was requested.
    pub derivation: Option<Derivation>,
}

impl Inference {
    /// The inferred type as a closed toplevel scheme: all variables
    /// quantified, the constraint in `Solve`'s canonical residual
    /// form *restricted to the clauses relevant to the type*
    /// (constraints over forgotten instantiation variables are
    /// independently satisfiable noise), and variables renamed to
    /// the canonical `'a, 'b, …`.
    #[must_use]
    pub fn scheme(&self) -> Scheme {
        let relevant = self.solution.restrict(&self.ty.free_vars());
        Scheme::close(self.ty.clone(), relevant.to_constraint()).normalize()
    }
}

/// Infers the type of `e` in the initial environment.
///
/// # Errors
///
/// See [`TypeError`].
///
/// # Example
///
/// ```
/// use bsml_infer::infer;
/// use bsml_syntax::parse;
///
/// let inf = infer(&parse("mkpar (fun i -> i * 2)")?)?;
/// assert_eq!(inf.ty.to_string(), "int par");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn infer(e: &Expr) -> Result<Inference, TypeError> {
    infer_in(&initial_env(), e)
}

/// Infers the type of `e` in a given environment.
///
/// # Errors
///
/// See [`TypeError`].
pub fn infer_in(env: &TypeEnv, e: &Expr) -> Result<Inference, TypeError> {
    Inferencer::new().run(env, e)
}

/// A reusable inference engine.
///
/// # Example
///
/// ```
/// use bsml_infer::{initial_env, Inferencer};
/// use bsml_syntax::parse;
///
/// // Record a derivation tree (the paper's Figures 8–10).
/// let e = parse("fst (mkpar (fun i -> i), 1)")?;
/// let inf = Inferencer::new().with_derivation(true).run(&initial_env(), &e)?;
/// let tree = inf.derivation.unwrap();
/// assert!(tree.render().contains("(App)"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Inferencer {
    /// The first variable the next run may make fresh.
    next: u32,
    record: bool,
    locality: bool,
    telemetry: Telemetry,
}

impl Default for Inferencer {
    fn default() -> Self {
        Inferencer {
            next: 0,
            record: false,
            locality: true,
            telemetry: Telemetry::disabled(),
        }
    }
}

impl Inferencer {
    /// A fresh engine (derivation recording off).
    #[must_use]
    pub fn new() -> Inferencer {
        Inferencer::default()
    }

    /// Enables or disables derivation recording.
    #[must_use]
    pub fn with_derivation(mut self, record: bool) -> Inferencer {
        self.record = record;
        self
    }

    /// Enables or disables the locality-constraint machinery. With
    /// `false` the engine degrades to plain Damas–Milner — exactly
    /// what Objective Caml does, accepting every §2.1 counterexample.
    /// Exists for the ablation benchmarks and to demonstrate what the
    /// paper's system adds.
    #[must_use]
    pub fn with_locality(mut self, locality: bool) -> Inferencer {
        self.locality = locality;
        self
    }

    /// Attaches a telemetry handle. Each run then adds its work to the
    /// counters `infer.unifications`, `infer.occurs_checks`,
    /// `infer.solver_iterations`, `infer.solver_clauses`,
    /// `infer.instantiations` and `infer.generalizations`, once, when
    /// it ends. A disabled handle (the default) costs one branch per
    /// run.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Inferencer {
        self.telemetry = telemetry;
        self
    }

    /// Runs inference on `e` under `env`.
    ///
    /// # Errors
    ///
    /// See [`TypeError`].
    pub fn run(&mut self, env: &TypeEnv, e: &Expr) -> Result<Inference, TypeError> {
        // Fresh variables start past every variable of the env,
        // quantified ones included, so they stay out of reach of all
        // links made during this run (Definition 1).
        let mut engine = Engine {
            cells: Cells::starting_at(self.next.max(env.var_bound())),
            level: 0,
            scopes: Vec::new(),
            env,
            record: self.record,
            locality: self.locality,
            work: Work::default(),
        };
        let result = engine
            .w(e)
            .map_err(|err| *err)
            .map(|(ty, constraint, derivation)| {
                let solution = engine.solve(&constraint);
                debug_assert_ne!(solution, Solution::False, "absurdity missed by rule checks");
                Inference {
                    ty,
                    constraint,
                    solution,
                    derivation: derivation.map(|mut d| {
                        engine.resolve_derivation(&mut d);
                        *d
                    }),
                }
            });
        self.next = engine.cells.next_var();
        engine.work.report(&self.telemetry);
        result
    }
}

/// What one rule concludes: `⊢ e : [τ/C]`, with its derivation when
/// recording.
type Judgment = (Type, Constraint, Option<Box<Derivation>>);

/// A rule's outcome. Both sides are kept small (the derivation and the
/// error boxed), because every level of program nesting holds a few of
/// them on the stack.
type Outcome = Result<Judgment, Box<TypeError>>;

/// A judgment stored resolved, with the link count at that moment.
struct Stored {
    ty: Type,
    c: Constraint,
    at: u64,
}

/// Work counts of one run, reported to telemetry when it ends.
#[derive(Default)]
struct Work {
    unify: UnifyStats,
    solve: SolveStats,
    instantiations: u64,
    generalizations: u64,
}

impl Work {
    fn report(&self, telemetry: &Telemetry) {
        if !telemetry.is_enabled() {
            return;
        }
        for (name, n) in [
            ("infer.unifications", self.unify.unifications),
            ("infer.occurs_checks", self.unify.occurs_checks),
            ("infer.solver_iterations", self.solve.iterations),
            ("infer.solver_clauses", self.solve.clauses),
            ("infer.instantiations", self.instantiations),
            ("infer.generalizations", self.generalizations),
        ] {
            telemetry.counter_add(name, n);
        }
    }
}

/// The state of one run.
struct Engine<'a> {
    cells: Cells,
    /// The let-level: a let's bound expression runs one deeper.
    level: u32,
    /// Binders in scope, innermost last: the name, its scheme stored
    /// resolved, and the link count when it was stored.
    scopes: Vec<(Ident, Scheme, u64)>,
    /// Names not bound in `scopes` are read here.
    env: &'a TypeEnv,
    record: bool,
    locality: bool,
    work: Work,
}

impl Engine<'_> {
    fn w(&mut self, e: &Expr) -> Outcome {
        match &e.kind {
            ExprKind::Var(x) => self.var(e, x),
            ExprKind::Const(k) => self.constant(e, *k),
            ExprKind::Op(op) => self.op(e, *op),
            ExprKind::Fun(x, body) => self.fun(e, x, body),
            ExprKind::App(e1, e2) => self.app(e, e1, e2),
            ExprKind::Let(x, e1, e2) => self.let_(e, x, e1, e2),
            ExprKind::Pair(e1, e2) => self.pair(e, e1, e2),
            ExprKind::If(e1, e2, e3) => self.if_(e, e1, e2, e3),
            ExprKind::IfAt(e1, e2, e3, e4) => self.ifat(e, e1, e2, e3, e4),
            ExprKind::Vector(es) => self.vector(e, es),
            ExprKind::Inl(inner) => self.inject(e, inner, "(Inl)"),
            ExprKind::Inr(inner) => self.inject(e, inner, "(Inr)"),
            ExprKind::Case {
                scrutinee,
                left_var,
                left_body,
                right_var,
                right_body,
            } => self.case(e, scrutinee, (left_var, left_body), (right_var, right_body)),
            ExprKind::Nil => self.nil(e),
            ExprKind::Cons(h, t) => self.cons(e, h, t),
            ExprKind::MatchList {
                scrutinee,
                nil_body,
                head_var,
                tail_var,
                cons_body,
            } => self.match_list(e, scrutinee, nil_body, (head_var, tail_var, cons_body)),
        }
    }

    // — judgments and the cells —

    fn fresh(&mut self) -> Type {
        self.cells.fresh_ty(self.level)
    }

    fn store(&self, ty: Type, c: Constraint) -> Stored {
        Stored {
            ty,
            c,
            at: self.cells.links_made(),
        }
    }

    /// Reads a stored judgment through the cells with Definition 1:
    /// `[τ/C]` resolved, conjoined with `C_τ'` for each variable of
    /// `[τ/C]` linked since it was stored, `τ'` its resolution. A
    /// sequence of substitutions applied by Definition 1 one after the
    /// other gives an equivalent constraint, because
    /// `C_{φ(τ)} ≡ φ(C_τ) ∧ ⋀_{γ ∈ F(τ)} C_{φ(γ)}` (DESIGN.md §3).
    fn read(&self, s: Stored) -> (Type, Constraint) {
        if s.at == self.cells.links_made() {
            return (s.ty, s.c);
        }
        let ty = self.cells.resolve(&s.ty);
        let mut c = self.cells.resolve_constraint(&s.c);
        if self.locality {
            let mut vars = s.ty.free_vars();
            for v in s.c.free_vars() {
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
            for v in vars.into_iter().filter(|v| self.cells.is_linked(*v)) {
                let image = self.cells.resolve(&Type::Var(v));
                c = Constraint::and(c, basic_constraint(&image));
            }
        }
        (ty, c)
    }

    /// Puts `x : τ` in scope for a binder.
    fn bind(&mut self, x: &Ident, ty: Type) {
        let at = self.cells.links_made();
        self.scopes.push((x.clone(), Scheme::mono(ty), at));
    }

    /// **Definition 3** at the current let-level: quantifies the
    /// variables of `τ₁` that sit deeper, and stores the part of
    /// `Solve(c₁)` connected to `τ₁` or to a variable at this level or
    /// shallower (`F(E)`).
    fn generalize(&mut self, t1: Type, c1: &Constraint) -> Scheme {
        self.work.generalizations += 1;
        let solution = self.solve(c1);
        let level = self.level;
        let mut keep = t1.free_vars();
        let vars: Vec<TyVar> = keep
            .iter()
            .copied()
            .filter(|v| self.cells.level(*v) > level)
            .collect();
        if let Solution::Residual(clauses) = &solution {
            for clause in clauses {
                let head = match clause.head {
                    Head::Atom(v) => Some(v),
                    Head::Absurd => None,
                };
                for v in clause.body.iter().copied().chain(head) {
                    if self.cells.level(v) <= level && !keep.contains(&v) {
                        keep.push(v);
                    }
                }
            }
        }
        let constraint = solution.restrict(&keep).to_constraint();
        // A kept variable the scheme does not quantify is free in the
        // environment from now on.
        for v in constraint.free_vars() {
            if !vars.contains(&v) {
                self.cells.lower(v, level);
            }
        }
        Scheme::new(vars, t1, constraint)
    }

    /// Drops a constraint in the plain-Damas–Milner ablation.
    fn gate(&self, c: Constraint) -> Constraint {
        if self.locality {
            c
        } else {
            Constraint::True
        }
    }

    /// Runs the constraint solver, counting its work.
    fn solve(&mut self, c: &Constraint) -> Solution {
        c.solve_counted(&mut self.work.solve)
    }

    /// Concludes a rule: rejects its judgment if the constraint
    /// solves to `False`, and otherwise records the derivation node.
    fn conclude(
        &mut self,
        rule: &'static str,
        e: &Expr,
        ty: Type,
        c: Constraint,
        premises: Vec<Option<Box<Derivation>>>,
    ) -> Outcome {
        if self.locality && self.solve(&c) == Solution::False {
            return Err(Box::new(TypeError::LocalityViolation {
                rule,
                constraint: c,
                span: e.span,
            }));
        }
        let d = self.node(rule, e, &ty, &c, premises);
        Ok((ty, c, d))
    }

    fn unify_at(
        &mut self,
        a: &Type,
        b: &Type,
        context: &'static str,
        span: Span,
    ) -> Result<(), TypeError> {
        self.cells
            .unify(a, b, &mut self.work.unify)
            .map_err(|cause| TypeError::Mismatch {
                cause,
                context,
                span,
            })
    }

    fn node(
        &self,
        rule: &'static str,
        e: &Expr,
        ty: &Type,
        c: &Constraint,
        premises: Vec<Option<Box<Derivation>>>,
    ) -> Option<Box<Derivation>> {
        if !self.record {
            return None;
        }
        Some(Box::new(Derivation {
            rule,
            expr: elide(&e.to_string(), ELIDE_AT),
            ty: ty.clone(),
            constraint: c.clone(),
            premises: premises.into_iter().flatten().map(|d| *d).collect(),
        }))
    }

    /// Resolves every judgment of a recorded derivation through the
    /// cells: inference discovers instantiations top-down, and the
    /// paper's figures show each judgment at its ground refinement.
    fn resolve_derivation(&self, d: &mut Derivation) {
        d.ty = self.cells.resolve(&d.ty);
        d.constraint = self.cells.resolve_constraint(&d.constraint);
        for premise in &mut d.premises {
            self.resolve_derivation(premise);
        }
    }

    // — the rules —

    /// (Var): an instance (Definition 2) of the scheme in scope, or
    /// else of the environment's, which was stored before any link.
    #[inline(never)]
    fn var(&mut self, e: &Expr, x: &Ident) -> Outcome {
        let (scheme, at) = match self.scopes.iter().rev().find(|(y, ..)| y == x) {
            Some((_, scheme, at)) => (scheme, *at),
            None => {
                let scheme = self.env.lookup(x).ok_or_else(|| TypeError::Unbound {
                    name: x.clone(),
                    span: e.span,
                })?;
                (scheme, 0)
            }
        };
        let (ty, c) = scheme.instantiate_with(|| self.cells.fresh(self.level));
        self.work.instantiations += 1;
        let (ty, c) = self.read(Stored { ty, c, at });
        let c = self.gate(c);
        self.conclude("(Var)", e, ty, c, vec![])
    }

    /// (Const)
    #[inline(never)]
    fn constant(&mut self, e: &Expr, k: Const) -> Outcome {
        let (ty, c) = const_scheme(k).instantiate_with(|| self.cells.fresh(self.level));
        self.work.instantiations += 1;
        let c = self.gate(c);
        let d = self.node("(Const)", e, &ty, &c, vec![]);
        Ok((ty, c, d))
    }

    /// (Op)
    #[inline(never)]
    fn op(&mut self, e: &Expr, op: Op) -> Outcome {
        let (ty, c) = op_scheme(op).instantiate_with(|| self.cells.fresh(self.level));
        self.work.instantiations += 1;
        let c = self.gate(c);
        self.conclude("(Op)", e, ty, c, vec![])
    }

    /// (Fun): E + {x : [τ₁/C₁]} ⊢ e : [τ₂/C₂]
    ///        ⟹ fun x → e : [τ₁→τ₂ / C_{τ₁→τ₂} ∧ C₂]
    #[inline(never)]
    fn fun(&mut self, e: &Expr, x: &Ident, body: &Expr) -> Outcome {
        let alpha = self.fresh();
        self.bind(x, alpha.clone());
        let (t2, c2, d1) = self.w(body)?;
        self.scopes.pop();
        let ty = Type::arrow(self.cells.resolve(&alpha), t2);
        let c = Constraint::and(self.gate(basic_constraint(&ty)), c2);
        self.conclude("(Fun)", e, ty, c, vec![d1])
    }

    /// (App)
    #[inline(never)]
    fn app(&mut self, e: &Expr, e1: &Expr, e2: &Expr) -> Outcome {
        let (t1, c1, d1) = self.w(e1)?;
        let f = self.store(t1, c1);
        let (t2, c2, d2) = self.w(e2)?;
        let arg = self.store(t2, c2);
        let beta = self.fresh();
        let result = self.store(beta.clone(), Constraint::True);
        self.unify_at(
            &f.ty,
            &Type::arrow(arg.ty.clone(), beta),
            "application",
            e.span,
        )?;
        let (_, c1) = self.read(f);
        let (_, c2) = self.read(arg);
        let (ty, cr) = self.read(result);
        let c = Constraint::conj([c1, c2, cr]);
        self.conclude("(App)", e, ty, c, vec![d1, d2])
    }

    /// (Let) with generalization (Definition 3) and the side
    /// condition L(τ₂) ⇒ L(τ₁). The scheme's solved constraint
    /// stands for c₁ in this judgment too, so neither a use of x nor
    /// an enclosing rule copies e₁'s constraint tree.
    #[inline(never)]
    fn let_(&mut self, e: &Expr, x: &Ident, e1: &Expr, e2: &Expr) -> Outcome {
        self.level += 1;
        let (t1, c1, d1) = self.w(e1)?;
        self.level -= 1;
        let scheme = self.generalize(t1, &c1);
        let at = self.cells.links_made();
        self.scopes.push((x.clone(), scheme, at));
        let (t2, c2, d2) = self.w(e2)?;
        let (_, scheme, at) = self.scopes.pop().expect("the let's binder is in scope");
        let (t1, c1) = self.read(Stored {
            ty: scheme.ty().clone(),
            c: scheme.constraint().clone(),
            at,
        });
        let side = self.gate(Constraint::implies(
            Constraint::Loc(t2.clone()),
            Constraint::Loc(t1),
        ));
        let c = Constraint::conj([c1, c2, side]);
        self.conclude("(Let)", e, t2, c, vec![d1, d2])
    }

    /// (Pair)
    #[inline(never)]
    fn pair(&mut self, e: &Expr, e1: &Expr, e2: &Expr) -> Outcome {
        let (t1, c1, d1) = self.w(e1)?;
        let first = self.store(t1, c1);
        let (t2, c2, d2) = self.w(e2)?;
        let (t1, c1) = self.read(first);
        let ty = Type::pair(t1, t2);
        let c = Constraint::and(c1, c2);
        self.conclude("(Pair)", e, ty, c, vec![d1, d2])
    }

    /// (Ifthenelse)
    #[inline(never)]
    fn if_(&mut self, e: &Expr, e1: &Expr, e2: &Expr, e3: &Expr) -> Outcome {
        let (t1, c1, d1) = self.w(e1)?;
        let cond = self.store(t1, c1);
        self.unify_at(&cond.ty, &Type::Bool, "`if` condition", e1.span)?;
        let (t2, c2, d2) = self.w(e2)?;
        let then = self.store(t2, c2);
        let (t3, c3, d3) = self.w(e3)?;
        let other = self.store(t3, c3);
        self.unify_at(&then.ty, &other.ty, "`if` branches", e.span)?;
        let (_, c1) = self.read(cond);
        let (ty, c2) = self.read(then);
        let (_, c3) = self.read(other);
        let c = Constraint::conj([c1, c2, c3]);
        self.conclude("(Ifthenelse)", e, ty, c, vec![d1, d2, d3])
    }

    /// (Ifat): e₁ : bool par, e₂ : int, branches : τ, plus the side
    /// condition L(τ) ⇒ False.
    #[inline(never)]
    fn ifat(&mut self, e: &Expr, e1: &Expr, e2: &Expr, e3: &Expr, e4: &Expr) -> Outcome {
        let (t1, c1, d1) = self.w(e1)?;
        let vector = self.store(t1, c1);
        let bool_par = Type::par(Type::Bool);
        self.unify_at(&vector.ty, &bool_par, "`if‥at‥` vector", e1.span)?;
        let (t2, c2, d2) = self.w(e2)?;
        let pid = self.store(t2, c2);
        self.unify_at(&pid.ty, &Type::Int, "`if‥at‥` process id", e2.span)?;
        let (t3, c3, d3) = self.w(e3)?;
        let then = self.store(t3, c3);
        let (t4, c4, d4) = self.w(e4)?;
        let other = self.store(t4, c4);
        self.unify_at(&then.ty, &other.ty, "`if‥at‥` branches", e.span)?;
        let (_, c1) = self.read(vector);
        let (_, c2) = self.read(pid);
        let (ty, c3) = self.read(then);
        let (_, c4) = self.read(other);
        let side = self.gate(Constraint::implies(
            Constraint::Loc(ty.clone()),
            Constraint::False,
        ));
        let c = Constraint::and(Constraint::conj([c1, c2, c3, c4]), side);
        self.conclude("(Ifat)", e, ty, c, vec![d1, d2, d3, d4])
    }

    /// Runtime-only vectors: typed for completeness (the parser never
    /// produces them). All components share a local type.
    #[inline(never)]
    fn vector(&mut self, e: &Expr, es: &[Expr]) -> Outcome {
        let alpha = self.fresh();
        let elem = self.store(alpha, Constraint::True);
        let mut components = Vec::with_capacity(es.len());
        let mut ds = Vec::with_capacity(es.len());
        for comp in es {
            let (t, c, d) = self.w(comp)?;
            let component = self.store(t, c);
            self.unify_at(
                &elem.ty,
                &component.ty,
                "parallel vector components",
                comp.span,
            )?;
            components.push(component);
            ds.push(d);
        }
        let (elem, mut c) = self.read(elem);
        for component in components {
            c = Constraint::and(c, self.read(component).1);
        }
        let ty = Type::par(elem.clone());
        let c = Constraint::and(c, self.gate(Constraint::Loc(elem)));
        self.conclude("(Vector)", e, ty, c, ds)
    }

    // — §6 extensions below —

    /// (Inl) and (Inr): the other side of the sum is fresh.
    #[inline(never)]
    fn inject(&mut self, e: &Expr, inner: &Expr, rule: &'static str) -> Outcome {
        let (t1, c1, d1) = self.w(inner)?;
        let other = self.fresh();
        let ty = if rule == "(Inl)" {
            Type::sum(t1, other)
        } else {
            Type::sum(other, t1)
        };
        let c = Constraint::and(self.gate(basic_constraint(&ty)), c1);
        self.conclude(rule, e, ty, c, vec![d1])
    }

    /// (Case). Each binder gets its component's type resolved when the
    /// branch starts, like any stored judgment.
    #[inline(never)]
    fn case(
        &mut self,
        e: &Expr,
        scrutinee: &Expr,
        (left_var, left_body): (&Ident, &Expr),
        (right_var, right_body): (&Ident, &Expr),
    ) -> Outcome {
        let (ts, cs, d1) = self.w(scrutinee)?;
        let alpha = self.fresh();
        let beta = self.fresh();
        let scrut = self.store(ts, cs);
        let left = self.store(alpha.clone(), Constraint::True);
        let right = self.store(beta.clone(), Constraint::True);
        let sum = Type::sum(alpha, beta);
        self.unify_at(&scrut.ty, &sum, "`case` scrutinee", scrutinee.span)?;

        self.bind(left_var, self.cells.resolve(&left.ty));
        let (tl, cl, d2) = self.w(left_body)?;
        self.scopes.pop();
        let left_branch = self.store(tl, cl);

        self.bind(right_var, self.cells.resolve(&right.ty));
        let (tr, cr, d3) = self.w(right_body)?;
        self.scopes.pop();
        let right_branch = self.store(tr, cr);

        self.unify_at(&left_branch.ty, &right_branch.ty, "`case` branches", e.span)?;
        let (ts, cs) = self.read(scrut);
        let (_, ca) = self.read(left);
        let (_, cb) = self.read(right);
        let (ty, cl) = self.read(left_branch);
        let (_, cr) = self.read(right_branch);
        // Like (Let): a local result must not hide a global scrutinee.
        let side = self.gate(Constraint::implies(
            Constraint::Loc(ty.clone()),
            Constraint::Loc(ts),
        ));
        let c = Constraint::and(Constraint::conj([cs, ca, cb, cl, cr]), side);
        self.conclude("(Case)", e, ty, c, vec![d1, d2, d3])
    }

    /// (Nil)
    #[inline(never)]
    fn nil(&mut self, e: &Expr) -> Outcome {
        let ty = Type::list(self.fresh());
        let d = self.node("(Nil)", e, &ty, &Constraint::True, vec![]);
        Ok((ty, Constraint::True, d))
    }

    /// (Cons): list elements must be local (a list of vectors has
    /// statically unknown parallel width).
    #[inline(never)]
    fn cons(&mut self, e: &Expr, h: &Expr, t: &Expr) -> Outcome {
        let (th, c1, d1) = self.w(h)?;
        let head = self.store(th, c1);
        let (tt, c2, d2) = self.w(t)?;
        let tail = self.store(tt, c2);
        let cell = Type::list(head.ty.clone());
        self.unify_at(&cell, &tail.ty, "list cell", e.span)?;
        let (elem, c1) = self.read(head);
        let (ty, c2) = self.read(tail);
        let c = Constraint::and(Constraint::conj([c1, c2]), self.gate(Constraint::Loc(elem)));
        self.conclude("(Cons)", e, ty, c, vec![d1, d2])
    }

    /// (Match), with the (Case) side condition.
    #[inline(never)]
    fn match_list(
        &mut self,
        e: &Expr,
        scrutinee: &Expr,
        nil_body: &Expr,
        (head_var, tail_var, cons_body): (&Ident, &Ident, &Expr),
    ) -> Outcome {
        let (ts, cs, d1) = self.w(scrutinee)?;
        let alpha = self.fresh();
        let scrut = self.store(ts, cs);
        let elem = self.store(alpha.clone(), Constraint::True);
        let list = Type::list(alpha);
        self.unify_at(&scrut.ty, &list, "`match` scrutinee", scrutinee.span)?;

        let (tn, cn, d2) = self.w(nil_body)?;
        let nil = self.store(tn, cn);

        let elem_ty = self.cells.resolve(&elem.ty);
        self.bind(head_var, elem_ty.clone());
        self.bind(tail_var, Type::list(elem_ty));
        let (tc, cc, d3) = self.w(cons_body)?;
        self.scopes.truncate(self.scopes.len() - 2);
        let cons = self.store(tc, cc);

        self.unify_at(&nil.ty, &cons.ty, "`match` branches", e.span)?;
        let (ts, cs) = self.read(scrut);
        let (_, ce) = self.read(elem);
        let (ty, cn) = self.read(nil);
        let (_, cc) = self.read(cons);
        let side = self.gate(Constraint::implies(
            Constraint::Loc(ty.clone()),
            Constraint::Loc(ts),
        ));
        let c = Constraint::and(Constraint::conj([cs, ce, cn, cc]), side);
        self.conclude("(Match)", e, ty, c, vec![d1, d2, d3])
    }
}
