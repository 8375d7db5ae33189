//! Environment-based big-step evaluator.
//!
//! This is the practical engine: it runs programs, drives the BSP
//! simulator through [`EvalHooks`], and is cross-checked against the
//! literal small-step machine of [`crate::smallstep`].
//!
//! The evaluator enforces the dynamic face of the nesting restriction:
//! evaluating a parallel primitive (or a vector literal, or `if‥at‥`)
//! *inside* a parallel vector component raises
//! [`EvalError::NestedParallelism`]. Well-typed programs (accepted by
//! `bsml-infer`) never trigger it — that is Theorem 1.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use bsml_ast::{Const, Expr, ExprKind, Op};

use crate::driver::{Applier, GlobalDriver, ParallelDriver};
use crate::env::Env;
use crate::error::EvalError;
use crate::fuel::FuelCell;
use crate::hooks::{EvalHooks, Mode, NoHooks};
use crate::trail::Trail;
use crate::value::Value;

/// Default fuel: enough for every test and benchmark workload while
/// still catching runaway recursion quickly.
pub const DEFAULT_FUEL: u64 = 50_000_000;

/// The big-step evaluator for a `p`-processor machine.
///
/// # Example
///
/// ```
/// use bsml_eval::{Evaluator, NoHooks};
/// use bsml_syntax::parse;
///
/// let e = parse("let x = 2 in x * 21")?;
/// let mut hooks = NoHooks;
/// let mut ev = Evaluator::new(4, &mut hooks);
/// assert_eq!(ev.eval(&e)?.to_string(), "42");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Evaluator<'h, H: EvalHooks> {
    p: usize,
    fuel: u64,
    depth: u32,
    max_depth: u32,
    hooks: &'h mut H,
    /// The parallel backend (`None` only transiently while a driver
    /// method is running).
    driver: Option<Box<dyn ParallelDriver>>,
    /// When set, an exhausted local budget draws the next fuel slice
    /// from this shared cell (parking the thread) instead of failing
    /// with [`EvalError::OutOfFuel`]. See [`crate::fuel`].
    fuel_cell: Option<Arc<FuelCell>>,
    /// When set, `:=` records the cells it assigns ([`crate::trail`]).
    trail: Option<Trail>,
}

/// Default limit on non-tail recursion depth. Tail calls (recursive
/// functions in tail position, `let`/`if`/`case` bodies) do not count:
/// the evaluator executes them in constant stack space.
pub const DEFAULT_MAX_DEPTH: u32 = 4_000;

/// Result of evaluating a closure body up to its tail position:
/// either a finished value, or one more application to perform.
/// [`Evaluator::apply_value`] loops on `Call`, so recursive functions
/// in tail position run in constant Rust stack space.
enum TailResult {
    Value(Value),
    Call(Value, Value),
}

/// Evaluates a closed expression on a `p`-processor machine with
/// default fuel and no instrumentation.
///
/// # Errors
///
/// See [`EvalError`].
pub fn eval_closed(e: &Expr, p: usize) -> Result<Value, EvalError> {
    let mut hooks = NoHooks;
    Evaluator::new(p, &mut hooks).eval(e)
}

impl<'h, H: EvalHooks> Evaluator<'h, H> {
    /// Creates an evaluator with [`DEFAULT_FUEL`].
    ///
    /// # Panics
    ///
    /// Panics if `p == 0` — a BSP machine has at least one processor.
    #[must_use]
    pub fn new(p: usize, hooks: &'h mut H) -> Self {
        Self::with_fuel(p, hooks, DEFAULT_FUEL)
    }

    /// Creates an evaluator with an explicit step budget.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    #[must_use]
    pub fn with_fuel(p: usize, hooks: &'h mut H, fuel: u64) -> Self {
        Self::with_driver(hooks, fuel, Box::new(GlobalDriver::new(p)))
    }

    /// Creates an evaluator over an explicit parallel backend (used
    /// by the distributed SPMD machine in `bsml-bsp`).
    #[must_use]
    pub fn with_driver(hooks: &'h mut H, fuel: u64, driver: Box<dyn ParallelDriver>) -> Self {
        let p = driver.machine_width();
        assert!(p > 0, "a BSP machine needs at least one processor");
        Evaluator {
            p,
            fuel,
            depth: 0,
            max_depth: DEFAULT_MAX_DEPTH,
            hooks,
            driver: Some(driver),
            fuel_cell: None,
            trail: None,
        }
    }

    /// Attaches a shared [`FuelCell`]: the evaluator starts with zero
    /// local fuel and draws every slice from the cell, parking between
    /// grants. The constructor's fuel argument is ignored — the cell
    /// is the budget authority, and cancellation through it surfaces
    /// as [`EvalError::Cancelled`] at the next tick.
    #[must_use]
    pub fn with_fuel_cell(mut self, cell: Arc<FuelCell>) -> Self {
        self.fuel = 0;
        self.fuel_cell = Some(cell);
        self
    }

    /// Attaches an undo trail that `:=` records its writes on.
    #[must_use]
    pub fn with_trail(mut self, trail: Trail) -> Self {
        self.trail = Some(trail);
        self
    }

    /// Runs a driver method with the evaluator as its [`Applier`].
    fn drive<R>(&mut self, f: impl FnOnce(&mut dyn ParallelDriver, &mut dyn Applier) -> R) -> R {
        let mut d = self
            .driver
            .take()
            .expect("parallel driver re-entered; nested parallelism guard failed");
        let r = f(&mut *d, self);
        self.driver = Some(d);
        r
    }

    /// Overrides the non-tail recursion depth limit.
    #[must_use]
    pub fn max_depth(mut self, max_depth: u32) -> Self {
        self.max_depth = max_depth;
        self
    }

    /// The machine size.
    #[must_use]
    pub fn p(&self) -> usize {
        self.p
    }

    /// Remaining fuel.
    #[must_use]
    pub fn fuel_left(&self) -> u64 {
        self.fuel
    }

    /// Evaluates a closed expression in global (replicated) mode.
    ///
    /// # Errors
    ///
    /// See [`EvalError`].
    pub fn eval(&mut self, e: &Expr) -> Result<Value, EvalError> {
        self.eval_in(&Env::new(), e, Mode::Global)
    }

    /// Evaluates under an environment.
    ///
    /// # Errors
    ///
    /// See [`EvalError`].
    pub fn eval_with_env(&mut self, env: &Env, e: &Expr) -> Result<Value, EvalError> {
        self.eval_in(env, e, Mode::Global)
    }

    fn tick(&mut self, mode: Mode) -> Result<(), EvalError> {
        if self.fuel == 0 {
            match &self.fuel_cell {
                Some(cell) => self.fuel = cell.request()?,
                None => return Err(EvalError::OutOfFuel),
            }
        }
        self.fuel -= 1;
        self.hooks.on_step(mode);
        Ok(())
    }

    fn eval_in(&mut self, env: &Env, e: &Expr, mode: Mode) -> Result<Value, EvalError> {
        if self.depth >= self.max_depth {
            return Err(EvalError::RecursionLimit);
        }
        self.depth += 1;
        let r = self.eval_node(env, e, mode);
        self.depth -= 1;
        r
    }

    /// Evaluates a closure body, turning tail positions (`let`/`if`/
    /// `case`/`match` bodies and the final application) into loop
    /// iterations instead of Rust recursion.
    fn eval_tail(&mut self, env: &Env, e: &Expr, mode: Mode) -> Result<TailResult, EvalError> {
        let mut env = env.clone();
        let mut cur = e;
        loop {
            match &cur.kind {
                ExprKind::Let(x, bound, body) => {
                    self.tick(mode)?;
                    let bv = self.eval_in(&env, bound, mode)?;
                    env = env.bind(x.clone(), bv);
                    cur = body;
                }
                ExprKind::If(c, t, els) => {
                    self.tick(mode)?;
                    match self.eval_in(&env, c, mode)? {
                        Value::Bool(true) => cur = t,
                        Value::Bool(false) => cur = els,
                        v => return Err(EvalError::ScrutineeMismatch("if", v.to_string())),
                    }
                }
                ExprKind::Case {
                    scrutinee,
                    left_var,
                    left_body,
                    right_var,
                    right_body,
                } => {
                    self.tick(mode)?;
                    match self.eval_in(&env, scrutinee, mode)? {
                        Value::Inl(v) => {
                            env = env.bind(left_var.clone(), (*v).clone());
                            cur = left_body;
                        }
                        Value::Inr(v) => {
                            env = env.bind(right_var.clone(), (*v).clone());
                            cur = right_body;
                        }
                        v => return Err(EvalError::ScrutineeMismatch("case", v.to_string())),
                    }
                }
                ExprKind::MatchList {
                    scrutinee,
                    nil_body,
                    head_var,
                    tail_var,
                    cons_body,
                } => {
                    self.tick(mode)?;
                    match self.eval_in(&env, scrutinee, mode)? {
                        Value::Nil => cur = nil_body,
                        Value::Cons(h, t) => {
                            env = env
                                .bind(head_var.clone(), (*h).clone())
                                .bind(tail_var.clone(), (*t).clone());
                            cur = cons_body;
                        }
                        v => return Err(EvalError::ScrutineeMismatch("match", v.to_string())),
                    }
                }
                ExprKind::App(f, a) => {
                    self.tick(mode)?;
                    let fv = self.eval_in(&env, f, mode)?;
                    let av = self.eval_in(&env, a, mode)?;
                    return Ok(TailResult::Call(fv, av));
                }
                _ => return Ok(TailResult::Value(self.eval_in(&env, cur, mode)?)),
            }
        }
    }

    fn eval_node(&mut self, env: &Env, e: &Expr, mode: Mode) -> Result<Value, EvalError> {
        self.tick(mode)?;
        match &e.kind {
            ExprKind::Var(x) => env
                .lookup(x)
                .cloned()
                .ok_or_else(|| EvalError::Unbound(x.clone())),
            ExprKind::Const(Const::Int(n)) => Ok(Value::Int(*n)),
            ExprKind::Const(Const::Bool(b)) => Ok(Value::Bool(*b)),
            ExprKind::Const(Const::Unit) => Ok(Value::Unit),
            ExprKind::Op(op) => Ok(Value::Prim(*op)),
            ExprKind::Fun(x, body) => Ok(Value::Closure {
                param: x.clone(),
                body: Arc::clone(body),
                env: env.clone(),
            }),
            ExprKind::App(f, a) => {
                let fv = self.eval_in(env, f, mode)?;
                let av = self.eval_in(env, a, mode)?;
                self.apply_value(fv, av, mode)
            }
            ExprKind::Let(x, bound, body) => {
                let bv = self.eval_in(env, bound, mode)?;
                let env2 = env.bind(x.clone(), bv);
                self.eval_in(&env2, body, mode)
            }
            ExprKind::Pair(a, b) => {
                let av = self.eval_in(env, a, mode)?;
                let bv = self.eval_in(env, b, mode)?;
                Ok(Value::pair(av, bv))
            }
            ExprKind::If(c, t, els) => match self.eval_in(env, c, mode)? {
                Value::Bool(true) => self.eval_in(env, t, mode),
                Value::Bool(false) => self.eval_in(env, els, mode),
                v => Err(EvalError::ScrutineeMismatch("if", v.to_string())),
            },
            ExprKind::IfAt(vec, n, t, els) => {
                if let Mode::OnProc(_) = mode {
                    return Err(EvalError::NestedParallelism);
                }
                let vv = self.eval_in(env, vec, mode)?;
                let nv = self.eval_in(env, n, mode)?;
                let bools = match vv {
                    Value::Vector(vs) => vs,
                    v => return Err(EvalError::ScrutineeMismatch("if‥at‥", v.to_string())),
                };
                let idx = match nv {
                    Value::Int(i) => i,
                    v => return Err(EvalError::ScrutineeMismatch("at", v.to_string())),
                };
                if idx < 0 || idx as usize >= self.p {
                    return Err(EvalError::PidOutOfRange(idx, self.p));
                }
                let chosen = self.drive(|d, ev| d.ifat(ev, &bools, idx as usize))?;
                if chosen {
                    self.eval_in(env, t, mode)
                } else {
                    self.eval_in(env, els, mode)
                }
            }
            ExprKind::Vector(es) => {
                if let Mode::OnProc(_) = mode {
                    return Err(EvalError::NestedParallelism);
                }
                let width = self.driver.as_ref().and_then(|d| d.literal_width()).ok_or(
                    EvalError::ScrutineeMismatch(
                        "parallel vector literal",
                        "unsupported by this execution backend".to_string(),
                    ),
                )?;
                if es.len() != width {
                    return Err(EvalError::ScrutineeMismatch(
                        "parallel vector literal",
                        format!("width {} on a {width}-processor machine", es.len()),
                    ));
                }
                let mut vs = Vec::with_capacity(width);
                for (i, comp) in es.iter().enumerate() {
                    let v = self.eval_in(env, comp, Mode::OnProc(i))?;
                    self.check_local(&v)?;
                    vs.push(v);
                }
                Ok(Value::vector(vs))
            }
            ExprKind::Inl(inner) => Ok(Value::Inl(Rc::new(self.eval_in(env, inner, mode)?))),
            ExprKind::Inr(inner) => Ok(Value::Inr(Rc::new(self.eval_in(env, inner, mode)?))),
            ExprKind::Case {
                scrutinee,
                left_var,
                left_body,
                right_var,
                right_body,
            } => match self.eval_in(env, scrutinee, mode)? {
                Value::Inl(v) => {
                    let env2 = env.bind(left_var.clone(), (*v).clone());
                    self.eval_in(&env2, left_body, mode)
                }
                Value::Inr(v) => {
                    let env2 = env.bind(right_var.clone(), (*v).clone());
                    self.eval_in(&env2, right_body, mode)
                }
                v => Err(EvalError::ScrutineeMismatch("case", v.to_string())),
            },
            ExprKind::Nil => Ok(Value::Nil),
            ExprKind::Cons(h, t) => {
                let hv = self.eval_in(env, h, mode)?;
                let tv = self.eval_in(env, t, mode)?;
                Ok(Value::Cons(Rc::new(hv), Rc::new(tv)))
            }
            ExprKind::MatchList {
                scrutinee,
                nil_body,
                head_var,
                tail_var,
                cons_body,
            } => match self.eval_in(env, scrutinee, mode)? {
                Value::Nil => self.eval_in(env, nil_body, mode),
                Value::Cons(h, t) => {
                    let env2 = env
                        .bind(head_var.clone(), (*h).clone())
                        .bind(tail_var.clone(), (*t).clone());
                    self.eval_in(&env2, cons_body, mode)
                }
                v => Err(EvalError::ScrutineeMismatch("match", v.to_string())),
            },
        }
    }

    /// Applies a function value to an argument value.
    ///
    /// # Errors
    ///
    /// See [`EvalError`].
    pub fn apply_value(&mut self, f: Value, arg: Value, mode: Mode) -> Result<Value, EvalError> {
        let mut f = f;
        let mut arg = arg;
        // Trampoline: a closure body ending in another application
        // comes back as `TailResult::Call` and loops here instead of
        // consuming Rust stack — tail-recursive BSML functions run in
        // constant space.
        loop {
            match f {
                Value::Closure { param, body, env } => {
                    let env2 = env.bind(param, arg);
                    match self.eval_tail(&env2, &body, mode)? {
                        TailResult::Value(v) => return Ok(v),
                        TailResult::Call(f2, a2) => {
                            f = f2;
                            arg = a2;
                        }
                    }
                }
                Value::Prim(op) => return self.delta(op, arg, mode),
                Value::MsgTable(table) => {
                    return match arg {
                        Value::Int(j) if j >= 0 && (j as usize) < table.len() => {
                            Ok(table[j as usize].clone())
                        }
                        Value::Int(_) => Ok(Value::NoComm),
                        v => Err(EvalError::ScrutineeMismatch(
                            "delivered-messages function",
                            v.to_string(),
                        )),
                    }
                }
                Value::Fix(inner) => {
                    // (fix f) v → (f (fix f)) v — unroll and retry.
                    f = self.unroll_fix(&inner, mode)?;
                }
                v => return Err(EvalError::NotAFunction(v.to_string())),
            }
        }
    }

    /// One unrolling of the δ-rule for `fix`.
    fn unroll_fix(&mut self, f: &Value, mode: Mode) -> Result<Value, EvalError> {
        self.tick(mode)?;
        match f {
            Value::Closure { param, body, env } => {
                // fix(fun x → e) → e[x ← fix(fun x → e)]
                let env2 = env.bind(param.clone(), Value::Fix(Rc::new(f.clone())));
                self.eval_in(&env2, body, mode)
            }
            other => self.apply_value(other.clone(), Value::Fix(Rc::new(other.clone())), mode),
        }
    }

    /// Rejects a vector component that is itself parallel data.
    fn check_local(&self, v: &Value) -> Result<(), EvalError> {
        if v.contains_vector() {
            Err(EvalError::NestedParallelism)
        } else {
            Ok(())
        }
    }

    /// The δ-rules of Figures 1 and 2 on runtime values.
    fn delta(&mut self, op: Op, arg: Value, mode: Mode) -> Result<Value, EvalError> {
        use Value::*;
        if op.is_parallel() {
            if let Mode::OnProc(_) = mode {
                return Err(EvalError::NestedParallelism);
            }
        }
        let mismatch = |v: Value| Err(EvalError::DeltaMismatch(op, v.to_string()));
        match op {
            Op::Add | Op::Sub | Op::Mul | Op::Div | Op::Mod => match arg {
                Pair(a, b) => match (&*a, &*b) {
                    (Int(x), Int(y)) => {
                        let r = match op {
                            Op::Add => x.wrapping_add(*y),
                            Op::Sub => x.wrapping_sub(*y),
                            Op::Mul => x.wrapping_mul(*y),
                            Op::Div => {
                                if *y == 0 {
                                    return Err(EvalError::DivisionByZero);
                                }
                                x.wrapping_div(*y)
                            }
                            Op::Mod => {
                                if *y == 0 {
                                    return Err(EvalError::DivisionByZero);
                                }
                                x.wrapping_rem(*y)
                            }
                            _ => unreachable!(),
                        };
                        Ok(Int(r))
                    }
                    _ => mismatch(Pair(a, b)),
                },
                v => mismatch(v),
            },
            Op::Lt | Op::Le | Op::Gt | Op::Ge => match arg {
                Pair(a, b) => match (&*a, &*b) {
                    (Int(x), Int(y)) => Ok(Bool(match op {
                        Op::Lt => x < y,
                        Op::Le => x <= y,
                        Op::Gt => x > y,
                        Op::Ge => x >= y,
                        _ => unreachable!(),
                    })),
                    _ => mismatch(Pair(a, b)),
                },
                v => mismatch(v),
            },
            Op::Eq => match arg {
                Pair(a, b) => match a.try_eq(&b) {
                    Some(r) => Ok(Bool(r)),
                    None => mismatch(Pair(a, b)),
                },
                v => mismatch(v),
            },
            Op::And | Op::Or => match arg {
                Pair(a, b) => match (&*a, &*b) {
                    (Bool(x), Bool(y)) => Ok(Bool(if op == Op::And { *x && *y } else { *x || *y })),
                    _ => mismatch(Pair(a, b)),
                },
                v => mismatch(v),
            },
            Op::Not => match arg {
                Bool(b) => Ok(Bool(!b)),
                v => mismatch(v),
            },
            Op::Fst => match arg {
                Pair(a, _) => Ok((*a).clone()),
                v => mismatch(v),
            },
            Op::Snd => match arg {
                Pair(_, b) => Ok((*b).clone()),
                v => mismatch(v),
            },
            Op::Fix => {
                if arg.is_function() {
                    self.unroll_fix(&arg, mode)
                } else {
                    mismatch(arg)
                }
            }
            Op::Nc => match arg {
                Unit => Ok(NoComm),
                v => mismatch(v),
            },
            Op::Isnc => Ok(Bool(matches!(arg, NoComm))),
            Op::BspP => match arg {
                Unit => Ok(Int(self.p as i64)),
                v => mismatch(v),
            },
            Op::Mkpar => {
                if !arg.is_function() {
                    return mismatch(arg);
                }
                self.drive(|d, ev| d.mkpar(ev, &arg))
            }
            Op::Apply => match arg {
                Pair(fs, vs) => match (&*fs, &*vs) {
                    (Vector(fs), Vector(vs)) if fs.len() == vs.len() => {
                        let (fs, vs) = (fs.clone(), vs.clone());
                        self.drive(|d, ev| d.apply_par(ev, &fs, &vs))
                    }
                    _ => mismatch(Pair(fs, vs)),
                },
                v => mismatch(v),
            },
            // §6 imperative extension. The static system types the
            // cell contents (local only); the *mode* discipline is
            // enforced dynamically, exactly the interaction the paper
            // leaves to future "typing of effects" work:
            //   - a Global cell is replicated identically everywhere;
            //     assigning it inside one vector component would
            //     desynchronize the replicas;
            //   - an OnProc(i) cell lives in processor i's memory
            //     only and is unreachable from anywhere else.
            Op::Ref => {
                self.check_local(&arg)?;
                let cell = Rc::new(RefCell::new(arg));
                if let Some(trail) = &self.trail {
                    trail.note_fresh(&cell);
                }
                Ok(Cell { cell, origin: mode })
            }
            Op::Deref => match arg {
                Cell { cell, origin } => {
                    match (origin, mode) {
                        // Reading a replicated cell anywhere is
                        // coherent (all replicas agree).
                        (Mode::Global, _) => {}
                        (Mode::OnProc(j), Mode::OnProc(k)) if j == k => {}
                        (Mode::OnProc(_), _) => {
                            return Err(EvalError::IncoherentReplicas(
                                "dereferencing a processor-local cell \
                                 outside its owning processor",
                            ))
                        }
                    }
                    Ok(cell.borrow().clone())
                }
                v => mismatch(v),
            },
            Op::Assign => match arg {
                Pair(r, v) => match (&*r, &*v) {
                    (Cell { cell, origin }, _) => {
                        match (origin, mode) {
                            (Mode::Global, Mode::Global) => {}
                            (Mode::OnProc(j), Mode::OnProc(k)) if *j == k => {}
                            (Mode::Global, Mode::OnProc(_)) => {
                                return Err(EvalError::IncoherentReplicas(
                                    "assigning a replicated (global) cell inside \
                                     a parallel vector component would \
                                     desynchronize its replicas",
                                ))
                            }
                            (Mode::OnProc(_), _) => {
                                return Err(EvalError::IncoherentReplicas(
                                    "assigning a processor-local cell outside \
                                     its owning processor",
                                ))
                            }
                        }
                        let new = v.as_ref().clone();
                        self.check_local(&new)?;
                        let old = cell.replace(new);
                        if let Some(trail) = &self.trail {
                            trail.record(cell, old);
                        }
                        Ok(Unit)
                    }
                    _ => mismatch(Pair(r, v)),
                },
                v => mismatch(v),
            },
            Op::Put => match arg {
                Vector(fs) => {
                    let fs = fs.clone();
                    self.drive(|d, ev| d.put(ev, &fs))
                }
                v => mismatch(v),
            },
        }
    }
}

impl<H: EvalHooks> Applier for Evaluator<'_, H> {
    fn apply_fn(&mut self, f: Value, arg: Value, mode: Mode) -> Result<Value, EvalError> {
        self.apply_value(f, arg, mode)
    }

    fn ensure_local(&self, v: &Value) -> Result<(), EvalError> {
        self.check_local(v)
    }

    fn note_put(&mut self, messages: &[Vec<Value>]) {
        self.hooks.on_put(messages);
    }

    fn note_ifat(&mut self, at: usize, chosen: bool) {
        self.hooks.on_ifat(at, chosen);
    }

    fn note_async(&mut self) {
        self.hooks.on_async_parallel();
    }

    fn fuel_left(&self) -> u64 {
        self.fuel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::CountingHooks;
    use bsml_ast::build as b;
    use bsml_syntax::parse;

    fn run(src: &str, p: usize) -> Value {
        let e = parse(src).expect("parse");
        eval_closed(&e, p).unwrap_or_else(|err| panic!("eval `{src}`: {err}"))
    }

    fn run_err(src: &str, p: usize) -> EvalError {
        let e = parse(src).expect("parse");
        eval_closed(&e, p).expect_err("expected an error")
    }

    #[test]
    fn arithmetic() {
        assert_eq!(run("1 + 2 * 3", 1).to_string(), "7");
        assert_eq!(run("10 / 3", 1).to_string(), "3");
        assert_eq!(run("10 mod 3", 1).to_string(), "1");
        assert_eq!(run("1 - 5", 1).to_string(), "-4");
        assert_eq!(run_err("1 / 0", 1), EvalError::DivisionByZero);
        assert_eq!(run_err("1 mod 0", 1), EvalError::DivisionByZero);
    }

    #[test]
    fn comparisons_and_booleans() {
        assert_eq!(run("1 < 2", 1).to_string(), "true");
        assert_eq!(run("2 <= 1", 1).to_string(), "false");
        assert_eq!(run("3 > 2 && 1 >= 1", 1).to_string(), "true");
        assert_eq!(run("false || not false", 1).to_string(), "true");
        assert_eq!(run("(1, true) = (1, true)", 1).to_string(), "true");
        assert_eq!(run("[1; 2] = [1; 3]", 1).to_string(), "false");
    }

    #[test]
    fn functions_and_lets() {
        assert_eq!(run("(fun x -> x + 1) 41", 1).to_string(), "42");
        assert_eq!(run("let f x y = x * y in f 6 7", 1).to_string(), "42");
        assert_eq!(run("let x = 1 in let x = x + 1 in x", 1).to_string(), "2");
    }

    #[test]
    fn closures_capture() {
        assert_eq!(
            run(
                "let make = fun n -> fun x -> x + n in let add3 = make 3 in add3 4",
                1
            )
            .to_string(),
            "7"
        );
        // The closure shares its `fun` node's body instead of copying it.
        let e = parse("(fun n -> fun x -> x + n) 3").expect("parse");
        let ExprKind::App(f, _) = &e.kind else {
            unreachable!()
        };
        let ExprKind::Fun(_, outer) = &f.kind else {
            unreachable!()
        };
        let ExprKind::Fun(_, code) = &outer.kind else {
            unreachable!()
        };
        let Ok(Value::Closure { body, .. }) = eval_closed(&e, 1) else {
            panic!("expected a closure")
        };
        assert!(Arc::ptr_eq(&body, code), "closure body must be the AST's");
    }

    #[test]
    fn recursion_via_fix() {
        assert_eq!(
            run(
                "let rec fact n = if n = 0 then 1 else n * fact (n - 1) in fact 10",
                1
            )
            .to_string(),
            "3628800"
        );
        assert_eq!(
            run(
                "let rec fib n = if n < 2 then n else fib (n-1) + fib (n-2) in fib 15",
                1
            )
            .to_string(),
            "610"
        );
    }

    #[test]
    fn divergence_runs_out_of_fuel() {
        let e = parse("let rec loop x = loop x in loop 0").unwrap();
        let mut hooks = NoHooks;
        let mut ev = Evaluator::with_fuel(1, &mut hooks, 10_000);
        assert!(matches!(ev.eval(&e), Err(EvalError::OutOfFuel)));
    }

    #[test]
    fn pairs_sums_lists() {
        assert_eq!(run("fst (1, 2)", 1).to_string(), "1");
        assert_eq!(run("snd (1, 2)", 1).to_string(), "2");
        assert_eq!(
            run("case inl 3 of inl a -> a + 1 | inr b -> b - 1", 1).to_string(),
            "4"
        );
        assert_eq!(
            run("case inr 3 of inl a -> a + 1 | inr b -> b - 1", 1).to_string(),
            "2"
        );
        assert_eq!(
            run("match [1; 2; 3] with [] -> 0 | h :: t -> h", 1).to_string(),
            "1"
        );
        assert_eq!(
            run(
                "let rec sum xs = match xs with [] -> 0 | h :: t -> h + sum t in sum [1;2;3;4]",
                1
            )
            .to_string(),
            "10"
        );
    }

    #[test]
    fn nc_and_isnc() {
        assert_eq!(run("isnc (nc ())", 1).to_string(), "true");
        assert_eq!(run("isnc 5", 1).to_string(), "false");
    }

    #[test]
    fn mkpar_builds_vectors() {
        assert_eq!(
            run("mkpar (fun i -> i * i)", 4).to_string(),
            "<|0, 1, 4, 9|>"
        );
        assert_eq!(run("bsp_p ()", 7).to_string(), "7");
        assert_eq!(
            run("mkpar (fun i -> bsp_p ())", 3).to_string(),
            "<|3, 3, 3|>"
        );
    }

    #[test]
    fn apply_is_pointwise() {
        assert_eq!(
            run(
                "apply (mkpar (fun i -> fun x -> x + i), mkpar (fun i -> i * 10))",
                4
            )
            .to_string(),
            "<|0, 11, 22, 33|>"
        );
    }

    #[test]
    fn put_exchanges_messages() {
        // Every process j sends j*100+i to process i; process i then
        // reads the message from process 1.
        let v = run(
            "let recv = put (mkpar (fun j -> fun i -> j * 100 + i)) in
             apply (recv, mkpar (fun i -> 1))",
            3,
        );
        assert_eq!(v.to_string(), "<|100, 101, 102|>");
    }

    #[test]
    fn put_out_of_range_is_nc() {
        let v = run(
            "let recv = put (mkpar (fun j -> fun i -> j)) in
             apply (mkpar (fun i -> fun f -> isnc (f 99)), recv)",
            2,
        );
        // Applying the delivered-messages function outside 0‥p-1
        // yields nc () — so isnc is true everywhere… but note the
        // apply chain: the table is consumed *locally*.
        assert_eq!(v.to_string(), "<|true, true|>");
    }

    #[test]
    fn ifat_chooses_branch_globally() {
        assert_eq!(
            run("if mkpar (fun i -> i = 2) at 2 then 10 else 20", 4).to_string(),
            "10"
        );
        assert_eq!(
            run("if mkpar (fun i -> i = 2) at 0 then 10 else 20", 4).to_string(),
            "20"
        );
        assert_eq!(
            run_err("if mkpar (fun i -> true) at 9 then 1 else 2", 4),
            EvalError::PidOutOfRange(9, 4)
        );
    }

    #[test]
    fn example2_is_dynamic_nesting() {
        // The paper's example2: a mkpar inside a mkpar.
        let err = run_err(
            "mkpar (fun pid -> let this = mkpar (fun pid -> pid) in pid)",
            4,
        );
        assert_eq!(err, EvalError::NestedParallelism);
    }

    #[test]
    fn ifat_inside_mkpar_is_nesting() {
        let err = run_err(
            "mkpar (fun pid -> if mkpar (fun i -> true) at 0 then 1 else 2)",
            2,
        );
        assert_eq!(err, EvalError::NestedParallelism);
    }

    #[test]
    fn vector_valued_component_is_nesting() {
        // fst (vec, 1) under mkpar would store a vector inside a
        // vector component.
        let err = run_err(
            "let vec = mkpar (fun i -> i) in mkpar (fun pid -> fst (vec, pid))",
            2,
        );
        assert_eq!(err, EvalError::NestedParallelism);
    }

    #[test]
    fn fourth_projection_evaluates_fine_dynamically() {
        // fst (1, mkpar …) — rejected statically (Fig. 10) but the
        // dynamic semantics happily evaluates it at toplevel; the
        // problem it creates is *cost-model*, not stuckness.
        assert_eq!(run("fst (1, mkpar (fun i -> i))", 2).to_string(), "1");
    }

    #[test]
    fn type_errors_are_caught() {
        assert!(matches!(run_err("1 2", 1), EvalError::NotAFunction(_)));
        assert!(matches!(
            run_err("1 + true", 1),
            EvalError::DeltaMismatch(Op::Add, _)
        ));
        assert!(matches!(
            run_err("if 1 then 2 else 3", 1),
            EvalError::ScrutineeMismatch("if", _)
        ));
        assert!(matches!(
            run_err("fst 1", 1),
            EvalError::DeltaMismatch(Op::Fst, _)
        ));
    }

    #[test]
    fn hooks_observe_work_distribution() {
        let e = parse(
            "let v = mkpar (fun i -> i * i) in
             let r = put (mkpar (fun j -> fun i -> j)) in
             if mkpar (fun i -> true) at 0 then v else v",
        )
        .unwrap();
        let mut hooks = CountingHooks::new(4);
        let mut ev = Evaluator::new(4, &mut hooks);
        ev.eval(&e).unwrap();
        assert_eq!(hooks.puts, 1);
        assert_eq!(hooks.ifats, 1);
        assert_eq!(hooks.supersteps(), 2);
        assert!(hooks.global_steps > 0);
        assert!(hooks.local_steps.iter().all(|&s| s > 0));
    }

    #[test]
    fn vector_literal_requires_machine_width() {
        let e = b::vector(vec![b::int(1), b::int(2)]);
        assert!(eval_closed(&e, 2).is_ok());
        assert!(matches!(
            eval_closed(&e, 3),
            Err(EvalError::ScrutineeMismatch(..))
        ));
    }

    #[test]
    fn unbound_variable() {
        assert_eq!(
            run_err("x", 1),
            EvalError::Unbound(bsml_ast::Ident::new("x"))
        );
    }

    #[test]
    fn fuel_cell_slices_a_real_evaluation() {
        use crate::fuel::Quiescence;
        use std::time::Duration;

        // A loop long enough to need several slices at 1000 fuel each.
        let src = "let rec loop n = if n = 0 then 42 else loop (n - 1) in loop 2000";
        let e = parse(src).expect("parse");
        let cell = FuelCell::new();
        let c2 = Arc::clone(&cell);
        let t = std::thread::spawn(move || {
            let mut hooks = NoHooks;
            let mut ev = Evaluator::new(1, &mut hooks).with_fuel_cell(Arc::clone(&c2));
            // `Value` is `Rc`-based (not `Send`): only a rendering
            // crosses back — exactly the pattern `bsml-serve` uses.
            let out = ev.eval(&e).map(|v| v.to_string());
            c2.finish();
            out
        });
        let mut slices = 0u32;
        loop {
            match cell.wait_quiescent(Duration::from_secs(10)) {
                Quiescence::Finished => break,
                Quiescence::Parked => {
                    cell.grant(1000);
                    slices += 1;
                    assert!(slices < 1000, "evaluation never finished");
                }
                Quiescence::TimedOut => panic!("evaluator stopped ticking"),
            }
        }
        assert_eq!(t.join().unwrap().unwrap(), "42");
        assert!(slices > 1, "expected multiple slices, got {slices}");
        assert!(cell.drawn() >= u64::from(slices - 1) * 1000);
    }

    #[test]
    fn fuel_cell_cancellation_surfaces_as_cancelled() {
        use crate::fuel::Quiescence;
        use std::time::Duration;

        // A genuinely divergent phrase: only cancellation stops it.
        let src = "let rec loop n = loop (n + 1) in loop 0";
        let e = parse(src).expect("parse");
        let cell = FuelCell::new();
        let c2 = Arc::clone(&cell);
        let t = std::thread::spawn(move || {
            let mut hooks = NoHooks;
            let mut ev = Evaluator::new(1, &mut hooks).with_fuel_cell(Arc::clone(&c2));
            let out = ev.eval(&e).map(|v| v.to_string());
            c2.finish();
            out
        });
        cell.grant(500);
        assert_eq!(
            cell.wait_quiescent(Duration::from_secs(10)),
            Quiescence::Parked
        );
        cell.cancel();
        assert_eq!(t.join().unwrap(), Err(EvalError::Cancelled));
    }
}
