//! The inference algorithm (algorithm-W shape) implementing the
//! inductive rules of Figure 7.
//!
//! Every rule:
//!
//! 1. infers its premises threading substitutions, re-applying each
//!    new substitution to earlier judgments **via Definition 1** (so
//!    instantiating a variable with e.g. `int par` conjoins the
//!    image's basic constraints),
//! 2. conjoins the premise constraints plus its own side condition
//!    (*(Fun)*: `C_{τ₁→τ₂}`; *(Let)*: `L(τ₂) ⇒ L(τ₁)`; *(Ifat)*:
//!    `L(τ) ⇒ False`),
//! 3. runs `Solve`; if the constraint is absurd the expression is
//!    rejected with a [`TypeError::LocalityViolation`].
//!
//! The §6 extensions (sums, lists) follow the same pattern; their
//! eliminators carry the *(Let)*-style condition
//! `L(τ_result) ⇒ L(τ_scrutinee)` since they, too, can hide the
//! evaluation of a global value under a local result type.

use bsml_ast::{Expr, ExprKind, Span};
use bsml_obs::Telemetry;
use bsml_types::{
    basic_constraint, unify_counted, Constraint, Scheme, Solution, SolveStats, Subst, TyVarGen,
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
    /// The accumulated constraint (not `False` — that would have been
    /// an error).
    pub constraint: Constraint,
    /// `Solve`'s canonical form of the constraint.
    pub solution: Solution,
    /// The overall substitution produced by unification.
    pub subst: Subst,
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
    gen: TyVarGen,
    record: bool,
    locality: bool,
    telemetry: Telemetry,
}

impl Default for Inferencer {
    fn default() -> Self {
        Inferencer {
            gen: TyVarGen::default(),
            record: false,
            locality: true,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// Accumulator threading a substitution through judgments, applying
/// Definition 1 each time it grows.
struct Acc {
    subst: Subst,
    /// Definition 1 on (`false` = plain Damas–Milner ablation).
    locality: bool,
    /// `(type, constraint)` pairs of already-inferred premises.
    items: Vec<(Type, Constraint)>,
}

impl Acc {
    fn new(locality: bool) -> Acc {
        Acc {
            subst: Subst::new(),
            locality,
            items: Vec::new(),
        }
    }

    fn push(&mut self, ty: Type, c: Constraint) -> usize {
        self.items.push((ty, c));
        self.items.len() - 1
    }

    /// Extends the total substitution, refining every stored judgment
    /// through Definition 1 (plain application in the ablation).
    fn extend(&mut self, phi: &Subst) {
        if phi.is_empty() {
            return;
        }
        for (ty, c) in &mut self.items {
            if self.locality {
                let (t2, c2) = phi.apply_constrained(ty, c);
                *ty = t2;
                *c = c2;
            } else {
                *ty = phi.apply(ty);
            }
        }
        self.subst = phi.compose(&self.subst);
    }

    fn ty(&self, i: usize) -> &Type {
        &self.items[i].0
    }

    fn all_constraints(&self) -> Constraint {
        Constraint::conj(self.items.iter().map(|(_, c)| c.clone()))
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

    /// Attaches a telemetry handle. The engine then counts
    /// `infer.unifications`, `infer.occurs_checks`,
    /// `infer.solver_iterations` and `infer.solver_clauses`, and wraps
    /// generalization and instantiation in spans. A disabled handle
    /// (the default) costs one branch per site.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Inferencer {
        self.telemetry = telemetry;
        self
    }

    /// Drops a constraint in the plain-Damas–Milner ablation.
    fn gate(&self, c: Constraint) -> Constraint {
        if self.locality {
            c
        } else {
            Constraint::True
        }
    }

    /// Runs inference on `e` under `env`.
    ///
    /// # Errors
    ///
    /// See [`TypeError`].
    pub fn run(&mut self, env: &TypeEnv, e: &Expr) -> Result<Inference, TypeError> {
        // Keep fresh variables clear of anything already in the env —
        // including quantified variables, so they stay out of reach
        // of all substitutions built during this run (Definition 1).
        for v in env.all_vars() {
            self.gen.skip_past(&Type::Var(v));
        }
        let (subst, ty, constraint, deriv) = self.w(env, e)?;
        let solution = self.solve(&constraint);
        debug_assert_ne!(solution, Solution::False, "absurdity missed by rule checks");
        Ok(Inference {
            ty,
            constraint,
            solution,
            derivation: deriv.map(|d| d.apply_subst(&subst)),
            subst,
        })
    }

    fn node(
        &self,
        rule: &'static str,
        e: &Expr,
        ty: &Type,
        c: &Constraint,
        premises: Vec<Option<Derivation>>,
    ) -> Option<Derivation> {
        if !self.record {
            return None;
        }
        Some(Derivation {
            rule,
            expr: elide(&e.to_string(), ELIDE_AT),
            ty: ty.clone(),
            constraint: c.clone(),
            premises: premises.into_iter().flatten().collect(),
        })
    }

    /// Runs the constraint solver, feeding its work counts into the
    /// `infer.solver_iterations` and `infer.solver_clauses` telemetry
    /// counters.
    fn solve(&self, c: &Constraint) -> Solution {
        let mut stats = SolveStats::default();
        let solution = c.solve_counted(&mut stats);
        if self.telemetry.is_enabled() {
            self.telemetry
                .counter_add("infer.solver_iterations", stats.iterations);
            self.telemetry
                .counter_add("infer.solver_clauses", stats.clauses);
        }
        solution
    }

    /// Rejects a judgment whose constraint solves to `False`.
    fn check(&self, rule: &'static str, span: Span, c: &Constraint) -> Result<(), TypeError> {
        if self.locality && self.solve(c) == Solution::False {
            Err(TypeError::LocalityViolation {
                rule,
                constraint: c.clone(),
                span,
            })
        } else {
            Ok(())
        }
    }

    fn unify_at(
        &self,
        a: &Type,
        b: &Type,
        context: &'static str,
        span: Span,
    ) -> Result<Subst, TypeError> {
        let mut stats = UnifyStats::default();
        let result = unify_counted(a, b, &mut stats);
        if self.telemetry.is_enabled() {
            self.telemetry
                .counter_add("infer.unifications", stats.unifications);
            self.telemetry
                .counter_add("infer.occurs_checks", stats.occurs_checks);
        }
        result.map_err(|cause| TypeError::Mismatch {
            cause,
            context,
            span,
        })
    }

    /// Instantiates `scheme` under an `infer.instantiate` span.
    fn instantiate(&mut self, scheme: &Scheme) -> (Type, Constraint) {
        let mut sp = self.telemetry.span("infer.instantiate");
        let out = scheme.instantiate(&mut self.gen);
        sp.set("quantified", scheme.quantified().len());
        out
    }

    #[allow(clippy::too_many_lines)]
    fn w(
        &mut self,
        env: &TypeEnv,
        e: &Expr,
    ) -> Result<(Subst, Type, Constraint, Option<Derivation>), TypeError> {
        let span = e.span;
        match &e.kind {
            // (Var): instance of the environment scheme.
            ExprKind::Var(x) => {
                let scheme = env.lookup(x).ok_or_else(|| TypeError::Unbound {
                    name: x.clone(),
                    span,
                })?;
                let (ty, c) = self.instantiate(scheme);
                let c = self.gate(c);
                self.check("(Var)", span, &c)?;
                let d = self.node("(Var)", e, &ty, &c, vec![]);
                Ok((Subst::new(), ty, c, d))
            }
            // (Const)
            ExprKind::Const(k) => {
                let (ty, c) = self.instantiate(&const_scheme(*k));
                let c = self.gate(c);
                let d = self.node("(Const)", e, &ty, &c, vec![]);
                Ok((Subst::new(), ty, c, d))
            }
            // (Op)
            ExprKind::Op(op) => {
                let (ty, c) = self.instantiate(&op_scheme(*op));
                let c = self.gate(c);
                self.check("(Op)", span, &c)?;
                let d = self.node("(Op)", e, &ty, &c, vec![]);
                Ok((Subst::new(), ty, c, d))
            }
            // (Fun): E + {x : [τ₁/C₁]} ⊢ e : [τ₂/C₂]
            //        ⟹ fun x → e : [τ₁→τ₂ / C_{τ₁→τ₂} ∧ C₂]
            ExprKind::Fun(x, body) => {
                let alpha = self.gen.fresh_ty();
                let env2 = env.extend(x.clone(), Scheme::mono(alpha.clone()));
                let (s1, t2, c2, d1) = self.w(&env2, body)?;
                let t1 = s1.apply(&alpha);
                let ty = Type::arrow(t1, t2);
                let c = Constraint::and(self.gate(basic_constraint(&ty)), c2);
                self.check("(Fun)", span, &c)?;
                let d = self.node("(Fun)", e, &ty, &c, vec![d1]);
                Ok((s1, ty, c, d))
            }
            // (App)
            ExprKind::App(e1, e2) => {
                let (s1, t1, c1, d1) = self.w(env, e1)?;
                let env1 = env.apply_subst(&s1);
                let (s2, t2, c2, d2) = self.w(&env1, e2)?;

                let mut acc = Acc::new(self.locality);
                acc.subst = s1;
                let i1 = acc.push(t1, c1);
                acc.extend(&s2);
                let i2 = acc.push(t2, c2);
                let beta = self.gen.fresh_ty();
                let ib = acc.push(beta.clone(), Constraint::True);

                let arrow = Type::arrow(acc.ty(i2).clone(), beta);
                let u = self.unify_at(acc.ty(i1), &arrow, "application", span)?;
                acc.extend(&u);

                let ty = acc.ty(ib).clone();
                let c = acc.all_constraints();
                self.check("(App)", span, &c)?;
                let d = self.node("(App)", e, &ty, &c, vec![d1, d2]);
                Ok((acc.subst, ty, c, d))
            }
            // (Let) with generalization (Definition 3) and the side
            // condition L(τ₂) ⇒ L(τ₁). The scheme's solved constraint
            // stands for c₁ in this judgment too, so neither a use of
            // x nor an enclosing rule copies e₁'s constraint tree.
            ExprKind::Let(x, e1, e2) => {
                let (s1, t1, c1, d1) = self.w(env, e1)?;
                let env1 = env.apply_subst(&s1);
                let scheme = {
                    let mut sp = self.telemetry.span("infer.generalize");
                    let solution = self.solve(&c1);
                    let scheme = Scheme::generalize(t1.clone(), &solution, &env1.free_vars());
                    sp.set("quantified", scheme.quantified().len());
                    scheme
                };
                let c1 = scheme.constraint().clone();
                let env2 = env1.extend(x.clone(), scheme);
                let (s2, t2, c2, d2) = self.w(&env2, e2)?;

                let (t1s, c1s) = if self.locality {
                    s2.apply_constrained(&t1, &c1)
                } else {
                    (s2.apply(&t1), Constraint::True)
                };
                let side = self.gate(Constraint::implies(
                    Constraint::Loc(t2.clone()),
                    Constraint::Loc(t1s),
                ));
                let c = Constraint::conj([c1s, c2, side]);
                self.check("(Let)", span, &c)?;
                let d = self.node("(Let)", e, &t2, &c, vec![d1, d2]);
                Ok((s2.compose(&s1), t2, c, d))
            }
            // (Pair)
            ExprKind::Pair(e1, e2) => {
                let (s1, t1, c1, d1) = self.w(env, e1)?;
                let env1 = env.apply_subst(&s1);
                let (s2, t2, c2, d2) = self.w(&env1, e2)?;
                let (t1s, c1s) = if self.locality {
                    s2.apply_constrained(&t1, &c1)
                } else {
                    (s2.apply(&t1), Constraint::True)
                };
                let ty = Type::pair(t1s, t2);
                let c = Constraint::and(c1s, c2);
                self.check("(Pair)", span, &c)?;
                let d = self.node("(Pair)", e, &ty, &c, vec![d1, d2]);
                Ok((s2.compose(&s1), ty, c, d))
            }
            // (Ifthenelse)
            ExprKind::If(e1, e2, e3) => {
                let (s1, t1, c1, d1) = self.w(env, e1)?;
                let u1 = self.unify_at(&t1, &Type::Bool, "`if` condition", e1.span)?;
                let mut acc = Acc::new(self.locality);
                acc.subst = s1;
                let ic = acc.push(t1, c1);
                acc.extend(&u1);

                let env1 = env.apply_subst(&acc.subst);
                let (s2, t2, c2, d2) = self.w(&env1, e2)?;
                acc.extend(&s2);
                let i2 = acc.push(t2, c2);

                let env2 = env.apply_subst(&acc.subst);
                let (s3, t3, c3, d3) = self.w(&env2, e3)?;
                acc.extend(&s3);
                let i3 = acc.push(t3, c3);

                let u2 = self.unify_at(acc.ty(i2), acc.ty(i3), "`if` branches", span)?;
                acc.extend(&u2);

                let _ = ic;
                let ty = acc.ty(i2).clone();
                let c = acc.all_constraints();
                self.check("(Ifthenelse)", span, &c)?;
                let d = self.node("(Ifthenelse)", e, &ty, &c, vec![d1, d2, d3]);
                Ok((acc.subst, ty, c, d))
            }
            // (Ifat): e₁ : bool par, e₂ : int, branches : τ, plus the
            // side condition L(τ) ⇒ False.
            ExprKind::IfAt(e1, e2, e3, e4) => {
                let (s1, t1, c1, d1) = self.w(env, e1)?;
                let u1 = self.unify_at(&t1, &Type::par(Type::Bool), "`if‥at‥` vector", e1.span)?;
                let mut acc = Acc::new(self.locality);
                acc.subst = s1;
                acc.push(t1, c1);
                acc.extend(&u1);

                let env1 = env.apply_subst(&acc.subst);
                let (s2, t2, c2, d2) = self.w(&env1, e2)?;
                acc.extend(&s2);
                let in_ = acc.push(t2, c2);
                let u2 = self.unify_at(acc.ty(in_), &Type::Int, "`if‥at‥` process id", e2.span)?;
                acc.extend(&u2);

                let env2 = env.apply_subst(&acc.subst);
                let (s3, t3, c3, d3) = self.w(&env2, e3)?;
                acc.extend(&s3);
                let i3 = acc.push(t3, c3);

                let env3 = env.apply_subst(&acc.subst);
                let (s4, t4, c4, d4) = self.w(&env3, e4)?;
                acc.extend(&s4);
                let i4 = acc.push(t4, c4);

                let u3 = self.unify_at(acc.ty(i3), acc.ty(i4), "`if‥at‥` branches", span)?;
                acc.extend(&u3);

                let ty = acc.ty(i3).clone();
                let side = self.gate(Constraint::implies(
                    Constraint::Loc(ty.clone()),
                    Constraint::False,
                ));
                let c = Constraint::and(acc.all_constraints(), side);
                self.check("(Ifat)", span, &c)?;
                let d = self.node("(Ifat)", e, &ty, &c, vec![d1, d2, d3, d4]);
                Ok((acc.subst, ty, c, d))
            }
            // Runtime-only vectors: typed for completeness (the parser
            // never produces them). All components share a local type.
            ExprKind::Vector(es) => {
                let mut acc = Acc::new(self.locality);
                let alpha = self.gen.fresh_ty();
                let ia = acc.push(alpha, Constraint::True);
                let mut ds = Vec::new();
                for comp in es {
                    let envc = env.apply_subst(&acc.subst);
                    let (s, t, c, d) = self.w(&envc, comp)?;
                    acc.extend(&s);
                    let i = acc.push(t, c);
                    let u = self.unify_at(
                        acc.ty(ia),
                        acc.ty(i),
                        "parallel vector components",
                        comp.span,
                    )?;
                    acc.extend(&u);
                    ds.push(d);
                }
                let elem = acc.ty(ia).clone();
                let ty = Type::par(elem.clone());
                let c = Constraint::and(acc.all_constraints(), self.gate(Constraint::Loc(elem)));
                self.check("(Vector)", span, &c)?;
                let d = self.node("(Vector)", e, &ty, &c, ds);
                Ok((acc.subst, ty, c, d))
            }
            // — §6 extensions below —
            ExprKind::Inl(inner) => {
                let (s1, t1, c1, d1) = self.w(env, inner)?;
                let beta = self.gen.fresh_ty();
                let ty = Type::sum(t1, beta);
                let c = Constraint::and(self.gate(basic_constraint(&ty)), c1);
                self.check("(Inl)", span, &c)?;
                let d = self.node("(Inl)", e, &ty, &c, vec![d1]);
                Ok((s1, ty, c, d))
            }
            ExprKind::Inr(inner) => {
                let (s1, t1, c1, d1) = self.w(env, inner)?;
                let alpha = self.gen.fresh_ty();
                let ty = Type::sum(alpha, t1);
                let c = Constraint::and(self.gate(basic_constraint(&ty)), c1);
                self.check("(Inr)", span, &c)?;
                let d = self.node("(Inr)", e, &ty, &c, vec![d1]);
                Ok((s1, ty, c, d))
            }
            ExprKind::Case {
                scrutinee,
                left_var,
                left_body,
                right_var,
                right_body,
            } => {
                let (s1, ts, cs, d1) = self.w(env, scrutinee)?;
                let alpha = self.gen.fresh_ty();
                let beta = self.gen.fresh_ty();
                let mut acc = Acc::new(self.locality);
                acc.subst = s1;
                let is = acc.push(ts, cs);
                let ia = acc.push(alpha.clone(), Constraint::True);
                let ib = acc.push(beta.clone(), Constraint::True);
                let u1 = self.unify_at(
                    acc.ty(is),
                    &Type::sum(alpha, beta),
                    "`case` scrutinee",
                    scrutinee.span,
                )?;
                acc.extend(&u1);

                let env_l = env
                    .apply_subst(&acc.subst)
                    .extend(left_var.clone(), Scheme::mono(acc.ty(ia).clone()));
                let (s2, tl, cl, d2) = self.w(&env_l, left_body)?;
                acc.extend(&s2);
                let il = acc.push(tl, cl);

                let env_r = env
                    .apply_subst(&acc.subst)
                    .extend(right_var.clone(), Scheme::mono(acc.ty(ib).clone()));
                let (s3, tr, cr, d3) = self.w(&env_r, right_body)?;
                acc.extend(&s3);
                let ir = acc.push(tr, cr);

                let u2 = self.unify_at(acc.ty(il), acc.ty(ir), "`case` branches", span)?;
                acc.extend(&u2);

                let ty = acc.ty(il).clone();
                // Like (Let): a local result must not hide a global
                // scrutinee.
                let side = self.gate(Constraint::implies(
                    Constraint::Loc(ty.clone()),
                    Constraint::Loc(acc.ty(is).clone()),
                ));
                let c = Constraint::and(acc.all_constraints(), side);
                self.check("(Case)", span, &c)?;
                let d = self.node("(Case)", e, &ty, &c, vec![d1, d2, d3]);
                Ok((acc.subst, ty, c, d))
            }
            ExprKind::Nil => {
                let alpha = self.gen.fresh_ty();
                let ty = Type::list(alpha);
                let d = self.node("(Nil)", e, &ty, &Constraint::True, vec![]);
                Ok((Subst::new(), ty, Constraint::True, d))
            }
            ExprKind::Cons(h, t) => {
                let (s1, th, c1, d1) = self.w(env, h)?;
                let env1 = env.apply_subst(&s1);
                let (s2, tt, c2, d2) = self.w(&env1, t)?;

                let mut acc = Acc::new(self.locality);
                acc.subst = s1;
                let ih = acc.push(th, c1);
                acc.extend(&s2);
                let it = acc.push(tt, c2);
                let u = self.unify_at(
                    &Type::list(acc.ty(ih).clone()),
                    acc.ty(it),
                    "list cell",
                    span,
                )?;
                acc.extend(&u);

                let ty = acc.ty(it).clone();
                // List elements must be local (a list of vectors has
                // statically unknown parallel width).
                let elem = acc.ty(ih).clone();
                let c = Constraint::and(acc.all_constraints(), self.gate(Constraint::Loc(elem)));
                self.check("(Cons)", span, &c)?;
                let d = self.node("(Cons)", e, &ty, &c, vec![d1, d2]);
                Ok((acc.subst, ty, c, d))
            }
            ExprKind::MatchList {
                scrutinee,
                nil_body,
                head_var,
                tail_var,
                cons_body,
            } => {
                let (s1, ts, cs, d1) = self.w(env, scrutinee)?;
                let alpha = self.gen.fresh_ty();
                let mut acc = Acc::new(self.locality);
                acc.subst = s1;
                let is = acc.push(ts, cs);
                let ia = acc.push(alpha.clone(), Constraint::True);
                let u1 = self.unify_at(
                    acc.ty(is),
                    &Type::list(alpha),
                    "`match` scrutinee",
                    scrutinee.span,
                )?;
                acc.extend(&u1);

                let env_n = env.apply_subst(&acc.subst);
                let (s2, tn, cn, d2) = self.w(&env_n, nil_body)?;
                acc.extend(&s2);
                let in_ = acc.push(tn, cn);

                let elem = acc.ty(ia).clone();
                let env_c = env
                    .apply_subst(&acc.subst)
                    .extend(head_var.clone(), Scheme::mono(elem.clone()))
                    .extend(tail_var.clone(), Scheme::mono(Type::list(elem)));
                let (s3, tc, cc, d3) = self.w(&env_c, cons_body)?;
                acc.extend(&s3);
                let icb = acc.push(tc, cc);

                let u2 = self.unify_at(acc.ty(in_), acc.ty(icb), "`match` branches", span)?;
                acc.extend(&u2);

                let ty = acc.ty(in_).clone();
                let side = self.gate(Constraint::implies(
                    Constraint::Loc(ty.clone()),
                    Constraint::Loc(acc.ty(is).clone()),
                ));
                let c = Constraint::and(acc.all_constraints(), side);
                self.check("(Match)", span, &c)?;
                let d = self.node("(Match)", e, &ty, &c, vec![d1, d2, d3]);
                Ok((acc.subst, ty, c, d))
            }
        }
    }
}
