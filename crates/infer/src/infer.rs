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
//! A judgment carries its constraint in solved form: the residual
//! clauses `Solve` left of the constraint its rule checked. A rule
//! checks the conjunction of its premises' residuals, read through the
//! cells as [`Clauses`] (ground atoms drop out as they are read), with
//! its own new clauses, and propagates over that set alone. The tree
//! the paper displays is built only when a derivation is recorded, and
//! for the constraint a rejection reports: [`Inferencer::run`] runs a
//! rejected phrase again, recording, to build it (DESIGN.md §3).
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
    basic_constraint, Cells, Clause, Clauses, Constraint, Scheme, Solution, SolveStats, TyVar,
    Type, UnifyStats,
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
    /// `Solve`'s canonical form of the constraint the root rule
    /// checked (not `False` — that would have been an error).
    pub solution: Solution,
    /// The typing derivation, when recording was requested. Each node
    /// shows its constraint as the rules build it.
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
    /// `infer.solver_atoms`, `infer.instantiations` and
    /// `infer.generalizations`, once, when it ends; a rejected phrase
    /// counts both of its runs (the second builds the tree its error
    /// reports). A disabled handle (the default) costs one branch per
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
        let first = self.next.max(env.var_bound());
        let mut work = Work::default();
        let mut result = self.run_from(first, self.record, env, e, &mut work);
        if !self.record && matches!(result, Err(TypeError::LocalityViolation { .. })) {
            // Only a rejected phrase pays for the tree its error
            // reports: the same run again, recording, builds it.
            result = self.run_from(first, true, env, e, &mut work);
        }
        work.report(&self.telemetry);
        result
    }

    /// One run of the engine, making fresh variables from `first` on.
    fn run_from(
        &mut self,
        first: u32,
        record: bool,
        env: &TypeEnv,
        e: &Expr,
        work: &mut Work,
    ) -> Result<Inference, TypeError> {
        let mut engine = Engine {
            cells: Cells::starting_at(first),
            level: 0,
            scopes: Vec::new(),
            env,
            record,
            locality: self.locality,
            work: std::mem::take(work),
        };
        let result = engine.w(e).map_err(|err| *err).map(|j| Inference {
            ty: j.ty,
            solution: j.c,
            derivation: j.d.map(|mut d| {
                engine.resolve_derivation(&mut d);
                *d
            }),
        });
        self.next = engine.cells.next_var();
        *work = engine.work;
        result
    }
}

/// What one rule concludes: `⊢ e : [τ/C]`, with `C` in solved form
/// (the residual of the constraint the rule checked) and, when
/// recording, the derivation, whose root shows `C` as the rules build
/// it. A judgment is stored as concluded, resolved, with the link count
/// at that moment.
struct Judgment {
    ty: Type,
    c: Solution,
    d: Option<Box<Derivation>>,
    at: u64,
}

/// A rule's outcome. Both sides are kept small (the derivation and the
/// error boxed), because every level of program nesting holds a few of
/// them on the stack.
type Outcome = Result<Judgment, Box<TypeError>>;

/// A rule's constraint while the rule builds it: the clauses its check
/// propagates over and, when recording, the tree it shows.
struct Check {
    clauses: Clauses,
    tree: Option<Constraint>,
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
            ("infer.solver_atoms", self.solve.atoms),
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

    /// `[τ/C]` concluded now, `C` solved.
    fn judgment(&self, ty: Type, c: Solution, d: Option<Box<Derivation>>) -> Judgment {
        let at = self.cells.links_made();
        Judgment { ty, c, d, at }
    }

    /// A rule's check before it conjoins anything: `True`.
    fn check(&self) -> Check {
        Check {
            clauses: Clauses::default(),
            tree: self.record.then_some(Constraint::True),
        }
    }

    /// Reads stored judgments into a rule's check, in order, through
    /// the cells with Definition 1: each `[τ/C]` resolved, conjoined
    /// with `C_τ'` for each variable of `[τ/C]` linked since it was
    /// stored, `τ'` its resolution. A sequence of substitutions applied
    /// by Definition 1 one after the other gives an equivalent
    /// constraint, because `C_{φ(τ)} ≡ φ(C_τ) ∧ ⋀_{γ ∈ F(τ)} C_{φ(γ)}`
    /// (DESIGN.md §3).
    ///
    /// The clauses read the residual `C` and the tree reads `C` as
    /// built, each with the variables it mentions.
    fn read<'s>(&self, check: &mut Check, stored: impl IntoIterator<Item = &'s Judgment>) {
        for s in stored {
            let unchanged = s.at == self.cells.links_made();
            if self.locality {
                check.clauses.and_solved(&s.c, &self.cells);
                if !unchanged {
                    let mut vars = s.ty.free_vars();
                    if let Solution::Residual(clauses) = &s.c {
                        vars.extend(clauses.iter().flat_map(Clause::vars));
                    }
                    self.linked_basics(vars, &mut check.clauses);
                }
            }
            if let Some(tree) = check.tree.take() {
                let shown = s.d.as_ref().map_or(&Constraint::True, |d| &d.constraint);
                let read = self.read_tree(&s.ty, shown, unchanged);
                check.tree = Some(Constraint::and(tree, read));
            }
        }
    }

    /// [`Engine::read`] of a scheme's instance `[τ/C]`, stored at link
    /// count `at`: both sides read `C` as it is. Returns `τ` resolved.
    fn read_scheme(&self, ty: &Type, c: &Constraint, at: u64, check: &mut Check) -> Type {
        let unchanged = at == self.cells.links_made();
        if self.locality {
            check.clauses.and(c, &self.cells);
            if !unchanged {
                let mut vars = ty.free_vars();
                vars.extend(c.free_vars());
                self.linked_basics(vars, &mut check.clauses);
            }
        }
        if let Some(tree) = check.tree.take() {
            let read = self.read_tree(ty, c, unchanged);
            check.tree = Some(Constraint::and(tree, read));
        }
        self.cells.resolve(ty)
    }

    /// Conjoins `C_τ'` once for each of `vars` linked, `τ'` its
    /// resolution.
    fn linked_basics(&self, mut vars: Vec<TyVar>, clauses: &mut Clauses) {
        vars.retain(|v| self.cells.is_linked(*v));
        vars.sort_unstable();
        vars.dedup();
        for v in vars {
            clauses.and_basic(&Type::Var(v), &self.cells);
        }
    }

    /// The tree a read shows: `C` resolved, conjoined with `C_τ'` for
    /// each variable of `τ` and `C` linked since, in the order they
    /// occur.
    fn read_tree(&self, ty: &Type, c: &Constraint, unchanged: bool) -> Constraint {
        if !self.locality {
            return Constraint::True;
        }
        if unchanged {
            return c.clone();
        }
        let mut read = self.cells.resolve_constraint(c);
        let mut vars = ty.free_vars();
        for v in c.free_vars() {
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
        for v in vars.into_iter().filter(|v| self.cells.is_linked(*v)) {
            let image = self.cells.resolve(&Type::Var(v));
            read = Constraint::and(read, basic_constraint(&image));
        }
        read
    }

    /// Conjoins a constraint the rule adds itself, unless locality is
    /// off (the plain Damas–Milner ablation).
    fn side(&self, check: &mut Check, c: Constraint) {
        if !self.locality {
            return;
        }
        check.clauses.and(&c, &self.cells);
        if let Some(tree) = check.tree.take() {
            check.tree = Some(Constraint::and(tree, c));
        }
    }

    /// Conjoins the basic constraints `C_τ` of a type the rule
    /// introduces, unless locality is off.
    fn side_basic(&self, check: &mut Check, ty: &Type) {
        if !self.locality {
            return;
        }
        check.clauses.and_basic(ty, &self.cells);
        if let Some(tree) = check.tree.take() {
            check.tree = Some(Constraint::and(tree, basic_constraint(ty)));
        }
    }

    /// Puts `x : τ` in scope for a binder.
    fn bind(&mut self, x: &Ident, ty: Type) {
        let at = self.cells.links_made();
        self.scopes.push((x.clone(), Scheme::mono(ty), at));
    }

    /// **Definition 3** at the current let-level: quantifies the
    /// variables of `τ₁` that sit deeper, and stores the part of the
    /// solved `c₁` connected to `τ₁` or to a variable at this level or
    /// shallower (`F(E)`).
    fn generalize(&mut self, t1: Type, c1: &Solution) -> Scheme {
        self.work.generalizations += 1;
        let level = self.level;
        let mut keep = t1.free_vars();
        let vars: Vec<TyVar> = keep
            .iter()
            .copied()
            .filter(|v| self.cells.level(*v) > level)
            .collect();
        if let Solution::Residual(clauses) = c1 {
            for v in clauses.iter().flat_map(Clause::vars) {
                if self.cells.level(v) <= level && !keep.contains(&v) {
                    keep.push(v);
                }
            }
        }
        let constraint = c1.restrict(&keep).to_constraint();
        // A kept variable the scheme does not quantify is free in the
        // environment from now on.
        for v in constraint.free_vars() {
            if !vars.contains(&v) {
                self.cells.lower(v, level);
            }
        }
        Scheme::new(vars, t1, constraint)
    }

    /// Concludes a rule: solves its check, rejects the judgment if
    /// that is `False`, and otherwise returns it with the residual and
    /// the derivation node.
    fn conclude(
        &mut self,
        rule: &'static str,
        e: &Expr,
        ty: Type,
        check: Check,
        premises: Vec<Option<Box<Derivation>>>,
    ) -> Outcome {
        let c = if self.locality {
            check.clauses.solve_counted(&mut self.work.solve)
        } else {
            Solution::True
        };
        if let Some(tree) = &check.tree {
            debug_assert_eq!(
                tree.solve() == Solution::False,
                c == Solution::False,
                "{rule}: the clauses and Solve of {tree} disagree"
            );
        }
        if c == Solution::False {
            return Err(Box::new(TypeError::LocalityViolation {
                rule,
                // Unless recording, there is no tree: `Inferencer::run`
                // runs a rejected phrase again, recording, to report it.
                constraint: check.tree.unwrap_or(Constraint::False),
                span: e.span,
            }));
        }
        let d = self.node(rule, e, &ty, check.tree, premises);
        Ok(self.judgment(ty, c, d))
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

    /// The derivation node of a rule when recording (`tree` is then
    /// its constraint as built).
    fn node(
        &self,
        rule: &'static str,
        e: &Expr,
        ty: &Type,
        tree: Option<Constraint>,
        premises: Vec<Option<Box<Derivation>>>,
    ) -> Option<Box<Derivation>> {
        let constraint = tree?;
        Some(Box::new(Derivation {
            rule,
            expr: elide(&e.to_string(), ELIDE_AT),
            ty: ty.clone(),
            constraint,
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
        let mut check = self.check();
        let ty = self.read_scheme(&ty, &c, at, &mut check);
        self.conclude("(Var)", e, ty, check, vec![])
    }

    /// (Const)
    #[inline(never)]
    fn constant(&mut self, e: &Expr, k: Const) -> Outcome {
        let (ty, _) = const_scheme(k).instantiate_with(|| self.cells.fresh(self.level));
        self.work.instantiations += 1;
        let d = self.node("(Const)", e, &ty, self.check().tree, vec![]);
        Ok(self.judgment(ty, Solution::True, d))
    }

    /// (Op)
    #[inline(never)]
    fn op(&mut self, e: &Expr, op: Op) -> Outcome {
        let (ty, c) = op_scheme(op).instantiate_with(|| self.cells.fresh(self.level));
        self.work.instantiations += 1;
        let mut check = self.check();
        self.side(&mut check, c);
        self.conclude("(Op)", e, ty, check, vec![])
    }

    /// (Fun): E + {x : [τ₁/C₁]} ⊢ e : [τ₂/C₂]
    ///        ⟹ fun x → e : [τ₁→τ₂ / C_{τ₁→τ₂} ∧ C₂]
    #[inline(never)]
    fn fun(&mut self, e: &Expr, x: &Ident, body: &Expr) -> Outcome {
        let alpha = self.fresh();
        self.bind(x, alpha.clone());
        let body = self.w(body)?;
        self.scopes.pop();
        let ty = Type::arrow(self.cells.resolve(&alpha), body.ty.clone());
        let mut check = self.check();
        self.side_basic(&mut check, &ty);
        self.read(&mut check, [&body]);
        self.conclude("(Fun)", e, ty, check, vec![body.d])
    }

    /// (App)
    #[inline(never)]
    fn app(&mut self, e: &Expr, e1: &Expr, e2: &Expr) -> Outcome {
        let f = self.w(e1)?;
        let arg = self.w(e2)?;
        let beta = self.fresh();
        let result = self.judgment(beta.clone(), Solution::True, None);
        self.unify_at(
            &f.ty,
            &Type::arrow(arg.ty.clone(), beta),
            "application",
            e.span,
        )?;
        let mut check = self.check();
        self.read(&mut check, [&f, &arg, &result]);
        let ty = self.cells.resolve(&result.ty);
        self.conclude("(App)", e, ty, check, vec![f.d, arg.d])
    }

    /// (Let) with generalization (Definition 3) and the side
    /// condition L(τ₂) ⇒ L(τ₁). The scheme's solved constraint
    /// stands for c₁ in this judgment too, so neither a use of x nor
    /// an enclosing rule copies e₁'s constraint tree.
    #[inline(never)]
    fn let_(&mut self, e: &Expr, x: &Ident, e1: &Expr, e2: &Expr) -> Outcome {
        self.level += 1;
        let bound = self.w(e1)?;
        self.level -= 1;
        let scheme = self.generalize(bound.ty, &bound.c);
        let at = self.cells.links_made();
        self.scopes.push((x.clone(), scheme, at));
        let body = self.w(e2)?;
        let (_, scheme, at) = self.scopes.pop().expect("the let's binder is in scope");
        let mut check = self.check();
        let t1 = self.read_scheme(scheme.ty(), scheme.constraint(), at, &mut check);
        self.read(&mut check, [&body]);
        let t2 = self.cells.resolve(&body.ty);
        self.side(
            &mut check,
            Constraint::implies(Constraint::Loc(t2.clone()), Constraint::Loc(t1)),
        );
        self.conclude("(Let)", e, t2, check, vec![bound.d, body.d])
    }

    /// (Pair)
    #[inline(never)]
    fn pair(&mut self, e: &Expr, e1: &Expr, e2: &Expr) -> Outcome {
        let first = self.w(e1)?;
        let second = self.w(e2)?;
        let mut check = self.check();
        self.read(&mut check, [&first, &second]);
        let ty = Type::pair(
            self.cells.resolve(&first.ty),
            self.cells.resolve(&second.ty),
        );
        self.conclude("(Pair)", e, ty, check, vec![first.d, second.d])
    }

    /// (Ifthenelse)
    #[inline(never)]
    fn if_(&mut self, e: &Expr, e1: &Expr, e2: &Expr, e3: &Expr) -> Outcome {
        let cond = self.w(e1)?;
        self.unify_at(&cond.ty, &Type::Bool, "`if` condition", e1.span)?;
        let then = self.w(e2)?;
        let other = self.w(e3)?;
        self.unify_at(&then.ty, &other.ty, "`if` branches", e.span)?;
        let mut check = self.check();
        self.read(&mut check, [&cond, &then, &other]);
        let ty = self.cells.resolve(&then.ty);
        self.conclude("(Ifthenelse)", e, ty, check, vec![cond.d, then.d, other.d])
    }

    /// (Ifat): e₁ : bool par, e₂ : int, branches : τ, plus the side
    /// condition L(τ) ⇒ False.
    #[inline(never)]
    fn ifat(&mut self, e: &Expr, e1: &Expr, e2: &Expr, e3: &Expr, e4: &Expr) -> Outcome {
        let vector = self.w(e1)?;
        let bool_par = Type::par(Type::Bool);
        self.unify_at(&vector.ty, &bool_par, "`if‥at‥` vector", e1.span)?;
        let pid = self.w(e2)?;
        self.unify_at(&pid.ty, &Type::Int, "`if‥at‥` process id", e2.span)?;
        let then = self.w(e3)?;
        let other = self.w(e4)?;
        self.unify_at(&then.ty, &other.ty, "`if‥at‥` branches", e.span)?;
        let mut check = self.check();
        self.read(&mut check, [&vector, &pid, &then, &other]);
        let ty = self.cells.resolve(&then.ty);
        self.side(
            &mut check,
            Constraint::implies(Constraint::Loc(ty.clone()), Constraint::False),
        );
        let premises = vec![vector.d, pid.d, then.d, other.d];
        self.conclude("(Ifat)", e, ty, check, premises)
    }

    /// Runtime-only vectors: typed for completeness (the parser never
    /// produces them). All components share a local type.
    #[inline(never)]
    fn vector(&mut self, e: &Expr, es: &[Expr]) -> Outcome {
        let alpha = self.fresh();
        let elem = self.judgment(alpha, Solution::True, None);
        let mut components = Vec::with_capacity(es.len());
        for comp in es {
            let component = self.w(comp)?;
            self.unify_at(
                &elem.ty,
                &component.ty,
                "parallel vector components",
                comp.span,
            )?;
            components.push(component);
        }
        let mut check = self.check();
        self.read(&mut check, std::iter::once(&elem).chain(&components));
        let elem = self.cells.resolve(&elem.ty);
        let ty = Type::par(elem.clone());
        self.side(&mut check, Constraint::Loc(elem));
        let premises = components.into_iter().map(|c| c.d).collect();
        self.conclude("(Vector)", e, ty, check, premises)
    }

    // — §6 extensions below —

    /// (Inl) and (Inr): the other side of the sum is fresh.
    #[inline(never)]
    fn inject(&mut self, e: &Expr, inner: &Expr, rule: &'static str) -> Outcome {
        let inner = self.w(inner)?;
        let other = self.fresh();
        let ty = if rule == "(Inl)" {
            Type::sum(inner.ty.clone(), other)
        } else {
            Type::sum(other, inner.ty.clone())
        };
        let mut check = self.check();
        self.side_basic(&mut check, &ty);
        self.read(&mut check, [&inner]);
        self.conclude(rule, e, ty, check, vec![inner.d])
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
        let scrut = self.w(scrutinee)?;
        let alpha = self.fresh();
        let beta = self.fresh();
        let left = self.judgment(alpha.clone(), Solution::True, None);
        let right = self.judgment(beta.clone(), Solution::True, None);
        let sum = Type::sum(alpha, beta);
        self.unify_at(&scrut.ty, &sum, "`case` scrutinee", scrutinee.span)?;

        self.bind(left_var, self.cells.resolve(&left.ty));
        let left_branch = self.w(left_body)?;
        self.scopes.pop();

        self.bind(right_var, self.cells.resolve(&right.ty));
        let right_branch = self.w(right_body)?;
        self.scopes.pop();

        self.unify_at(&left_branch.ty, &right_branch.ty, "`case` branches", e.span)?;
        let mut check = self.check();
        self.read(
            &mut check,
            [&scrut, &left, &right, &left_branch, &right_branch],
        );
        let (ts, ty) = (
            self.cells.resolve(&scrut.ty),
            self.cells.resolve(&left_branch.ty),
        );
        // Like (Let): a local result must not hide a global scrutinee.
        self.side(
            &mut check,
            Constraint::implies(Constraint::Loc(ty.clone()), Constraint::Loc(ts)),
        );
        let premises = vec![scrut.d, left_branch.d, right_branch.d];
        self.conclude("(Case)", e, ty, check, premises)
    }

    /// (Nil)
    #[inline(never)]
    fn nil(&mut self, e: &Expr) -> Outcome {
        let ty = Type::list(self.fresh());
        let d = self.node("(Nil)", e, &ty, self.check().tree, vec![]);
        Ok(self.judgment(ty, Solution::True, d))
    }

    /// (Cons): list elements must be local (a list of vectors has
    /// statically unknown parallel width).
    #[inline(never)]
    fn cons(&mut self, e: &Expr, h: &Expr, t: &Expr) -> Outcome {
        let head = self.w(h)?;
        let tail = self.w(t)?;
        let cell = Type::list(head.ty.clone());
        self.unify_at(&cell, &tail.ty, "list cell", e.span)?;
        let mut check = self.check();
        self.read(&mut check, [&head, &tail]);
        let (elem, ty) = (self.cells.resolve(&head.ty), self.cells.resolve(&tail.ty));
        self.side(&mut check, Constraint::Loc(elem));
        self.conclude("(Cons)", e, ty, check, vec![head.d, tail.d])
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
        let scrut = self.w(scrutinee)?;
        let alpha = self.fresh();
        let elem = self.judgment(alpha.clone(), Solution::True, None);
        let list = Type::list(alpha);
        self.unify_at(&scrut.ty, &list, "`match` scrutinee", scrutinee.span)?;

        let nil = self.w(nil_body)?;

        let elem_ty = self.cells.resolve(&elem.ty);
        self.bind(head_var, elem_ty.clone());
        self.bind(tail_var, Type::list(elem_ty));
        let cons = self.w(cons_body)?;
        self.scopes.truncate(self.scopes.len() - 2);

        self.unify_at(&nil.ty, &cons.ty, "`match` branches", e.span)?;
        let mut check = self.check();
        self.read(&mut check, [&scrut, &elem, &nil, &cons]);
        let (ts, ty) = (self.cells.resolve(&scrut.ty), self.cells.resolve(&nil.ty));
        self.side(
            &mut check,
            Constraint::implies(Constraint::Loc(ty.clone()), Constraint::Loc(ts)),
        );
        self.conclude("(Match)", e, ty, check, vec![scrut.d, nil.d, cons.d])
    }
}
