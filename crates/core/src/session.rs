//! Interactive sessions: persistent toplevel bindings across inputs,
//! OCaml-toplevel style, with cumulative BSP cost accounting and
//! graceful degradation on runtime failures.
//!
//! ```
//! use bsml_core::session::Session;
//! use bsml_bsp::BspParams;
//!
//! let mut s = Session::new(BspParams::new(4, 10, 1000));
//! s.load("let replicate x = mkpar (fun pid -> x) ;;")?;
//! let events = s.load("replicate 7")?;
//! assert_eq!(events[0].value().unwrap().to_string(), "<|7, 7, 7, 7|>");
//! # Ok::<(), bsml_core::BsmlError>(())
//! ```
//!
//! **Failure semantics.** *Static* failures (parse or type errors)
//! abort the whole `load`: it binds nothing, and the cells its earlier
//! phrases assigned get their old contents back. *Dynamic* failures
//! (an evaluation error such as division by zero, fuel exhaustion or
//! cancellation through a fuel cell) degrade gracefully instead: the
//! failing phrase yields a [`SessionEvent::PhraseFailed`] carrying the
//! structured [`EvalError`], nothing is bound for it, its own cell
//! writes are undone, and subsequent phrases continue against the last
//! good environment.
//!
//! **Transactions.** [`Session::begin`] opens a request that
//! [`Session::rollback`] undoes whole — bindings, schemes, cumulative
//! cost and every cell assigned since — and [`Session::commit`] keeps.
//! Cells roll back through an undo trail that the `:=` rule fills
//! ([`bsml_eval::trail`]), and toplevel schemes through a log of the
//! scheme each new binding replaced, so neither costs a walk over the
//! session's values or a copy of its typing environment. `load` runs
//! inside such transactions itself: one for the whole load and one per
//! phrase.

use bsml_ast::{Expr, Ident};
use bsml_bsp::{BspMachine, BspParams, CostSummary, RunReport};
use bsml_eval::{CodecError, Env, EvalError, Mark, Trail, Value};
use bsml_infer::{Inferencer, TypeEnv};
use bsml_obs::Telemetry;
use bsml_syntax::parse_module_with;
use bsml_types::Scheme;

use crate::BsmlError;

/// What one successfully evaluated toplevel phrase produced.
#[derive(Clone, Debug)]
pub struct PhraseOutput {
    /// The bound name (`None` for a bare expression).
    pub name: Option<Ident>,
    /// The phrase's toplevel scheme.
    pub scheme: Scheme,
    /// The computed value.
    pub value: Value,
    /// The BSP cost of evaluating this phrase.
    pub cost: CostSummary,
}

/// A phrase that typechecked but failed at runtime.
#[derive(Clone, Debug)]
pub struct PhraseFailure {
    /// The name the phrase would have bound.
    pub name: Option<Ident>,
    /// The phrase's (perfectly good) toplevel scheme.
    pub scheme: Scheme,
    /// The structured runtime error.
    pub error: EvalError,
}

/// What one toplevel phrase produced: a value, or a contained
/// runtime failure the session recovered from.
#[derive(Clone, Debug)]
pub enum SessionEvent {
    /// The phrase evaluated to a value.
    Phrase(PhraseOutput),
    /// The phrase failed dynamically and was skipped: nothing was
    /// bound, its cell writes were undone, and subsequent phrases
    /// continue from the last good environment.
    PhraseFailed(PhraseFailure),
}

impl SessionEvent {
    /// The bound name (`None` for bare expressions).
    #[must_use]
    pub fn name(&self) -> Option<&Ident> {
        match self {
            SessionEvent::Phrase(p) => p.name.as_ref(),
            SessionEvent::PhraseFailed(f) => f.name.as_ref(),
        }
    }

    /// The phrase's toplevel scheme (inferred even for phrases that
    /// later failed dynamically).
    #[must_use]
    pub fn scheme(&self) -> &Scheme {
        match self {
            SessionEvent::Phrase(p) => &p.scheme,
            SessionEvent::PhraseFailed(f) => &f.scheme,
        }
    }

    /// The computed value (`None` if the phrase failed).
    #[must_use]
    pub fn value(&self) -> Option<&Value> {
        match self {
            SessionEvent::Phrase(p) => Some(&p.value),
            SessionEvent::PhraseFailed(_) => None,
        }
    }

    /// The BSP cost of evaluating this phrase (`None` if it failed).
    #[must_use]
    pub fn cost(&self) -> Option<&CostSummary> {
        match self {
            SessionEvent::Phrase(p) => Some(&p.cost),
            SessionEvent::PhraseFailed(_) => None,
        }
    }

    /// The structured runtime error (`None` for successful phrases).
    #[must_use]
    pub fn error(&self) -> Option<&EvalError> {
        match self {
            SessionEvent::Phrase(_) => None,
            SessionEvent::PhraseFailed(f) => Some(&f.error),
        }
    }

    /// Whether this phrase failed.
    #[must_use]
    pub fn is_failure(&self) -> bool {
        matches!(self, SessionEvent::PhraseFailed(_))
    }
}

impl std::fmt::Display for SessionEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionEvent::Phrase(p) => match &p.name {
                Some(name) => write!(f, "val {name} : {} = {}", p.scheme, p.value),
                None => write!(f, "- : {} = {}", p.scheme, p.value),
            },
            SessionEvent::PhraseFailed(p) => {
                match &p.name {
                    Some(name) => write!(f, "val {name} : {} = <failed: {}>", p.scheme, p.error)?,
                    None => write!(f, "- : {} = <failed: {}>", p.scheme, p.error)?,
                }
                f.write_str(" (phrase skipped, session continues)")
            }
        }
    }
}

/// An interactive BSML toplevel.
///
/// Each successfully loaded phrase extends the typing and value
/// environments; costs accumulate (BSP cost composition is
/// sequential — exactly what the nesting restriction guarantees).
/// Phrases that fail *dynamically* are contained (see the module
/// docs): they bind nothing and the session survives them. A clone
/// shares its cells, and the trail that undoes their writes, with the
/// original.
#[derive(Clone, Debug)]
pub struct Session {
    machine: BspMachine,
    trail: Trail,
    tenv: TypeEnv,
    /// While a transaction is open: each toplevel name bound since the
    /// outermost one began, oldest first, with the scheme the binding
    /// replaced (`None` if the name was unbound).
    tenv_log: Vec<(Ident, Option<Scheme>)>,
    venv: Env,
    total: CostSummary,
    telemetry: Telemetry,
}

/// A point-in-time copy of a session's toplevel state, held as bytes
/// in session format v2 ([`crate::persist`]): the typing environment,
/// the value bindings with the contents of their cells, and the
/// cumulative cost. Restoring decodes the bytes, so a snapshot can be
/// restored any number of times and each restore has fresh cells.
#[derive(Clone, Debug)]
pub struct SessionSnapshot {
    pub(crate) bytes: Vec<u8>,
    pub(crate) len: usize,
}

impl SessionSnapshot {
    /// How many toplevel bindings the snapshot holds.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the snapshot holds no bindings.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// An open request on a [`Session`]: the state
/// [`rollback`](Session::rollback) returns to.
#[must_use = "a transaction is closed by commit or rollback"]
pub struct Transaction {
    mark: Mark,
    tenv_log: usize,
    venv: Env,
    total: CostSummary,
}

impl Session {
    /// A fresh session on the given machine (telemetry disabled).
    #[must_use]
    pub fn new(params: BspParams) -> Session {
        Session::with_telemetry(params, Telemetry::disabled())
    }

    /// A session whose whole pipeline records into `telemetry`: each
    /// `load` wraps its phrases in spans (`load` → `phrase` → `parse`
    /// / `infer` / `bsp.run` → per-processor `superstep`s), and
    /// contained runtime failures bump `session.phrase_failures`.
    ///
    /// Export the collected data through
    /// [`telemetry()`](Session::telemetry) — e.g.
    /// [`Telemetry::to_chrome_trace`] for a Perfetto-loadable trace.
    #[must_use]
    pub fn with_telemetry(params: BspParams, telemetry: Telemetry) -> Session {
        let trail = Trail::new();
        Session {
            machine: BspMachine::new(params)
                .with_telemetry(telemetry.clone())
                .with_trail(trail.clone()),
            trail,
            tenv: TypeEnv::new(),
            tenv_log: Vec::new(),
            venv: Env::new(),
            total: CostSummary::default(),
            telemetry,
        }
    }

    /// Makes every phrase evaluation draw fuel from a shared
    /// [`bsml_eval::FuelCell`] in scheduler-granted slices instead of
    /// a flat budget. This is the hosting half of `bsml-serve`'s
    /// fuel-sliced preemption: the session's host thread parks between
    /// grants, and cancellation through the cell fails the phrase with
    /// [`EvalError::Cancelled`] — a contained dynamic failure like any
    /// other, so the session itself stays usable.
    #[must_use]
    pub fn with_fuel_cell(mut self, cell: std::sync::Arc<bsml_eval::FuelCell>) -> Session {
        self.machine = self.machine.with_fuel_cell(cell);
        self
    }

    /// Encodes the session's toplevel state (see [`SessionSnapshot`]).
    #[must_use]
    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            bytes: crate::persist::encode(&self.tenv, &self.venv, &self.total),
            len: self.venv.len(),
        }
    }

    /// Rolls the session back to `snapshot`: bindings, schemes, and
    /// cumulative cost all return to the captured point, in fresh
    /// `ref` cells.
    ///
    /// Restore outside a transaction: a later rollback would undo the
    /// logged bindings against the restored environment.
    ///
    /// # Errors
    ///
    /// [`CodecError`] if the bytes do not decode (a value nested past
    /// the decoder's bound other than along a list's spine); the
    /// session is then unchanged.
    pub fn restore(&mut self, snapshot: &SessionSnapshot) -> Result<(), CodecError> {
        (self.tenv, self.venv, self.total) = crate::persist::decode(&snapshot.bytes)?;
        Ok(())
    }

    /// Opens a request transaction (see the module docs).
    pub fn begin(&mut self) -> Transaction {
        Transaction {
            mark: self.trail.mark(),
            tenv_log: self.tenv_log.len(),
            venv: self.venv.clone(),
            total: self.total.clone(),
        }
    }

    /// Keeps everything loaded since `tx` began.
    pub fn commit(&mut self, tx: Transaction) {
        self.trail.commit(tx.mark);
        if !self.trail.is_open() {
            self.tenv_log.clear();
        }
    }

    /// Returns the session to where it stood when `tx` began:
    /// bindings, schemes, cumulative cost and the contents of every
    /// cell assigned since. Transactions opened after `tx` and still
    /// open (a panic can leave them so) are rolled back with it.
    pub fn rollback(&mut self, tx: Transaction) {
        self.trail.rollback(tx.mark);
        for (name, old) in self.tenv_log.drain(tx.tenv_log..).rev() {
            match old {
                Some(scheme) => self.tenv.insert(name, scheme),
                None => self.tenv.remove(&name),
            };
        }
        self.venv = tx.venv;
        self.total = tx.total;
    }

    /// The telemetry handle this session records into (disabled for
    /// sessions built with [`Session::new`]).
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The machine parameters.
    #[must_use]
    pub fn params(&self) -> &BspParams {
        self.machine.params()
    }

    /// Cumulative BSP cost of everything evaluated so far.
    #[must_use]
    pub fn total_cost(&self) -> &CostSummary {
        &self.total
    }

    /// Looks up the scheme of a bound toplevel name.
    #[must_use]
    pub fn scheme_of(&self, name: &str) -> Option<&Scheme> {
        self.tenv.lookup(&Ident::new(name))
    }

    /// Renders every toplevel binding as `name : scheme = value`, one
    /// per line, sorted by name. The output is deterministic, which is
    /// what lets durability tests compare a recovered session against
    /// a never-crashed oracle bit for bit.
    #[must_use]
    pub fn render_bindings(&self) -> String {
        let mut out = String::new();
        for name in self.tenv.domain() {
            let scheme = self.tenv.lookup(name).expect("name came from the domain");
            use std::fmt::Write;
            match self.venv.lookup(name) {
                Some(value) => {
                    let _ = writeln!(out, "{name} : {scheme} = {value}");
                }
                None => {
                    let _ = writeln!(out, "{name} : {scheme} = <unbound>");
                }
            }
        }
        out
    }

    /// Parses and processes a chunk of toplevel input (declarations
    /// and/or one final expression), returning one event per phrase.
    ///
    /// On a *static* error (parse, type) the whole load rolls back:
    /// nothing is bound and every cell its earlier phrases assigned
    /// holds its old contents again. A *dynamic* failure is contained
    /// instead: the phrase yields a [`SessionEvent::PhraseFailed`],
    /// binds nothing, its cell writes are undone, and subsequent
    /// phrases continue against the last good environment.
    ///
    /// # Errors
    ///
    /// [`BsmlError::Parse`] or [`BsmlError::Type`]; the offending
    /// phrase is reported with its location in the input.
    pub fn load(&mut self, source: &str) -> Result<Vec<SessionEvent>, BsmlError> {
        let tx = self.begin();
        let result = self.load_phrases(source);
        if result.is_ok() {
            self.commit(tx);
        } else {
            self.rollback(tx);
        }
        result
    }

    fn load_phrases(&mut self, source: &str) -> Result<Vec<SessionEvent>, BsmlError> {
        let mut load_span = self.telemetry.span("load");
        let module = parse_module_with(source, &self.telemetry)?;
        load_span.set(
            "phrases",
            module.decls.len() + usize::from(module.body.is_some()),
        );
        let mut events = Vec::new();
        for decl in &module.decls {
            let event = self.process(Some(&decl.name), &decl.expr)?;
            if let SessionEvent::Phrase(output) = &event {
                let old = self.tenv.insert(decl.name.clone(), output.scheme.clone());
                self.tenv_log.push((decl.name.clone(), old));
                self.venv = self.venv.bind(decl.name.clone(), output.value.clone());
            }
            events.push(event);
        }
        if let Some(body) = &module.body {
            events.push(self.process(None, body)?);
        }
        Ok(events)
    }

    fn process(&mut self, name: Option<&Ident>, expr: &Expr) -> Result<SessionEvent, BsmlError> {
        let mut phrase_span = self.telemetry.span("phrase");
        if let Some(name) = name {
            phrase_span.set("name", name.to_string());
        }
        let inference = {
            let _infer_span = self.telemetry.span("infer");
            Inferencer::new()
                .with_telemetry(self.telemetry.clone())
                .run(&self.tenv, expr)?
        };
        // Toplevel bindings are retained values, not hidden
        // evaluations, so no (Let)-style side condition applies
        // between phrases; the phrase itself was fully checked.
        let scheme = Scheme::generalize(
            inference.ty.clone(),
            &inference.solution,
            &self.tenv.free_vars(),
        )
        .normalize();

        // A dynamic failure is contained: the typechecked phrase is
        // reported as failed (with its scheme and the structured
        // error), its cell writes are undone, and the session
        // continues from the last good environment.
        let mark = self.trail.mark();
        let report: RunReport = match self.machine.run_with_env(&self.venv, expr) {
            Ok(report) => report,
            Err(error) => {
                self.trail.rollback(mark);
                phrase_span.set("error", error.to_string());
                drop(phrase_span);
                self.telemetry.counter_add("session.phrase_failures", 1);
                return Ok(SessionEvent::PhraseFailed(PhraseFailure {
                    name: name.cloned(),
                    scheme,
                    error,
                }));
            }
        };
        self.trail.commit(mark);
        self.total.work += report.cost.work;
        self.total.h_relation += report.cost.h_relation;
        self.total.supersteps += report.cost.supersteps;

        drop(phrase_span);
        Ok(SessionEvent::Phrase(PhraseOutput {
            name: name.cloned(),
            scheme,
            value: report.value,
            cost: report.cost,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session() -> Session {
        Session::new(BspParams::new(4, 10, 100))
    }

    fn value_of(ev: &SessionEvent) -> String {
        ev.value().expect("phrase succeeded").to_string()
    }

    #[test]
    fn bindings_persist_across_loads() {
        let mut s = session();
        s.load("let x = 20 ;; let y = 22").unwrap();
        let events = s.load("x + y").unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(value_of(&events[0]), "42");
        assert_eq!(events[0].scheme().to_string(), "int");
    }

    #[test]
    fn polymorphic_declarations() {
        let mut s = session();
        s.load("let id x = x").unwrap();
        assert_eq!(s.scheme_of("id").unwrap().to_string(), "∀'a.['a -> 'a]");
        let events = s.load("(id 1, id true)").unwrap();
        assert_eq!(value_of(&events[0]), "(1, true)");
    }

    #[test]
    fn parallel_bindings_and_cost_accumulation() {
        let mut s = session();
        s.load("let v = mkpar (fun i -> i)").unwrap();
        assert_eq!(s.scheme_of("v").unwrap().to_string(), "int par");
        assert_eq!(s.total_cost().supersteps, 0);
        s.load("put (apply (mkpar (fun i -> fun x -> fun d -> x), v))")
            .unwrap();
        assert_eq!(s.total_cost().supersteps, 1);
        s.load("put (apply (mkpar (fun i -> fun x -> fun d -> x), v))")
            .unwrap();
        assert_eq!(s.total_cost().supersteps, 2);
    }

    #[test]
    fn type_errors_leave_the_session_unchanged() {
        let mut s = session();
        s.load("let x = 1").unwrap();
        let before_cost = s.total_cost().clone();
        // Second decl fails statically: nothing from this load is kept.
        let err = s.load("let y = 2 ;; let bad = fst (1, mkpar (fun i -> i)) ;;");
        assert!(err.is_err());
        assert!(s.scheme_of("y").is_none());
        assert_eq!(s.total_cost(), &before_cost);
        // x still present.
        assert_eq!(value_of(&s.load("x").unwrap()[0]), "1");
    }

    #[test]
    fn runtime_failures_degrade_gracefully() {
        let mut s = session();
        s.load("let x = 10").unwrap();
        // Phrase 2 typechecks but dies at runtime; phrases 1 and 3
        // still evaluate, and phrase 3 sees phrase 1's binding.
        let events = s
            .load("let a = x + 1 ;; let bad = 1 / 0 ;; let b = a * 2 ;;")
            .unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(value_of(&events[0]), "11");
        assert!(events[1].is_failure());
        assert_eq!(events[1].error(), Some(&EvalError::DivisionByZero));
        assert_eq!(events[1].name().unwrap().to_string(), "bad");
        assert_eq!(events[1].scheme().to_string(), "int");
        assert_eq!(value_of(&events[2]), "22");
        // The failed phrase bound nothing; the good ones did.
        assert!(s.scheme_of("bad").is_none());
        assert_eq!(s.scheme_of("a").unwrap().to_string(), "int");
        assert_eq!(s.scheme_of("b").unwrap().to_string(), "int");
        // And the session keeps working afterwards.
        assert_eq!(value_of(&s.load("a + b").unwrap()[0]), "33");
    }

    #[test]
    fn failed_phrases_cost_nothing_and_count_in_telemetry() {
        let tel = Telemetry::enabled_logical();
        let mut s = Session::with_telemetry(BspParams::new(2, 1, 10), tel.clone());
        let before = s.total_cost().clone();
        let events = s.load("1 / 0").unwrap();
        assert!(events[0].is_failure());
        assert!(events[0].value().is_none());
        assert!(events[0].cost().is_none());
        assert_eq!(s.total_cost(), &before);
        assert_eq!(tel.counter_value("session.phrase_failures"), 1);
    }

    #[test]
    fn rec_declarations() {
        let mut s = session();
        s.load("let rec fact n = if n = 0 then 1 else n * fact (n - 1)")
            .unwrap();
        assert_eq!(value_of(&s.load("fact 6").unwrap()[0]), "720");
    }

    #[test]
    fn event_display() {
        let mut s = session();
        let ev = &s.load("let x = 41 + 1").unwrap()[0];
        assert_eq!(ev.to_string(), "val x : int = 42");
        let ev = &s.load("x").unwrap()[0];
        assert_eq!(ev.to_string(), "- : int = 42");
        let ev = &s.load("let boom = 1 / 0").unwrap()[0];
        let shown = ev.to_string();
        assert!(shown.contains("val boom : int"), "{shown}");
        assert!(shown.contains("division by zero"), "{shown}");
        assert!(shown.contains("session continues"), "{shown}");
    }

    #[test]
    fn snapshot_restore_rolls_back_bindings_and_cost() {
        let mut s = session();
        s.load("let x = 1 ;; let c = ref 10").unwrap();
        s.load("put (mkpar (fun j -> fun i -> j))").unwrap();
        let snap = s.snapshot();
        assert_eq!(snap.len(), 2);
        assert!(!snap.is_empty());
        let cost_at_snap = s.total_cost().clone();

        // Mutate state past the snapshot: a new binding, a cell
        // assignment, and more accumulated cost.
        s.load("let y = 2 ;; c := 99").unwrap();
        s.load("put (mkpar (fun j -> fun i -> j))").unwrap();
        assert_eq!(s.total_cost().supersteps, cost_at_snap.supersteps + 1);

        s.restore(&snap).unwrap();
        assert!(s.scheme_of("y").is_none(), "post-snapshot binding kept");
        assert_eq!(s.total_cost(), &cost_at_snap);
        // The cell's mutation was rolled back too: restoring decodes
        // the snapshot's bytes into fresh cells.
        assert_eq!(value_of(&s.load("!c").unwrap()[0]), "10");
        assert_eq!(value_of(&s.load("x").unwrap()[0]), "1");

        // Restoring twice yields independent cells.
        s.load("c := 77").unwrap();
        s.restore(&snap).unwrap();
        assert_eq!(value_of(&s.load("!c").unwrap()[0]), "10");
    }

    #[test]
    fn failed_loads_and_phrases_undo_their_cell_writes() {
        let mut s = session();
        s.load("let r = ref 1").unwrap();
        // A static error rolls back the whole load, the assignment of
        // the phrase before it included.
        assert!(s
            .load("let u = r := 5 ;; let bad = fst (1, mkpar (fun i -> i))")
            .is_err());
        assert_eq!(value_of(&s.load("!r").unwrap()[0]), "1");
        // A failed phrase undoes its own writes.
        let events = s.load("let v = (r := 7; 1 / 0)").unwrap();
        assert!(events[0].is_failure());
        assert_eq!(value_of(&s.load("!r").unwrap()[0]), "1");
    }

    #[test]
    fn a_transaction_rolls_back_what_load_committed() {
        let mut s = session();
        s.load("let r = ref 1 ;; let b = r").unwrap();
        let cost = s.total_cost().clone();
        let tx = s.begin();
        s.load("let x = 2 ;; let u = r := 3 ;; put (mkpar (fun j -> fun i -> j))")
            .unwrap();
        s.rollback(tx);
        assert!(s.scheme_of("x").is_none());
        assert_eq!(s.total_cost(), &cost);
        assert_eq!(value_of(&s.load("!b").unwrap()[0]), "1");
        let tx = s.begin();
        s.load("r := 4").unwrap();
        s.commit(tx);
        assert_eq!(value_of(&s.load("!b").unwrap()[0]), "4");
    }

    #[test]
    fn a_name_rebound_in_a_rolled_back_transaction_gets_its_old_scheme_back() {
        let mut s = session();
        s.load("let f x = x ;; let n = 1").unwrap();
        let tx = s.begin();
        s.load("let f = 2 ;; let n x = (x, x) ;; let fresh = true")
            .unwrap();
        // A static error rolls back its own load and no more.
        assert!(s
            .load("let f = true ;; let bad = fst (1, mkpar (fun i -> i))")
            .is_err());
        assert_eq!(s.scheme_of("f").unwrap().to_string(), "int");
        s.rollback(tx);
        assert_eq!(s.scheme_of("f").unwrap().to_string(), "∀'a.['a -> 'a]");
        assert_eq!(s.scheme_of("n").unwrap().to_string(), "int");
        assert!(s.scheme_of("fresh").is_none());
        assert!(s.tenv_log.is_empty());
        let tx = s.begin();
        s.load("let n = true").unwrap();
        s.commit(tx);
        assert_eq!(s.scheme_of("n").unwrap().to_string(), "bool");
        assert!(s.tenv_log.is_empty());
    }

    #[test]
    fn free_variables_and_the_bound_match_a_walk_after_random_requests() {
        // `k` and `m` keep a variable free in their constraint.
        const PHRASES: [&str; 10] = [
            "let f x = x",
            "let g x y = (x, y)",
            "let h = mkpar (fun i -> i)",
            "let k x = fst (x, nc ())",
            "let m x = snd (nc (), x)",
            "let n = 1",
            "let f = 2",
            "let p x = put (mkpar (fun j -> fun i -> x))",
            "let bad = 1 / 0",
            "let q = fst (1, mkpar (fun i -> i))",
        ];
        let mut state = 11u64;
        let mut next = |n: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % n
        };
        let mut s = session();
        let mut seen_free = false;
        for _ in 0..200 {
            let tx = s.begin();
            for _ in 0..=next(3) {
                let _ = s.load(PHRASES[next(PHRASES.len())]);
            }
            if next(2) == 0 {
                s.commit(tx);
            } else {
                s.rollback(tx);
            }
            let schemes: Vec<&Scheme> = s.tenv.domain().filter_map(|x| s.tenv.lookup(x)).collect();
            let mut free: Vec<_> = schemes.iter().flat_map(|sc| sc.free_vars()).collect();
            free.sort_unstable();
            free.dedup();
            let bound = schemes
                .iter()
                .flat_map(|sc| sc.all_vars())
                .map(|v| v.0 + 1)
                .max()
                .unwrap_or(0);
            seen_free |= !free.is_empty();
            assert_eq!(s.tenv.free_vars(), free);
            assert_eq!(s.tenv.var_bound(), bound);
        }
        assert!(seen_free);
    }

    #[test]
    fn a_snapshot_too_deep_to_decode_is_refused_and_changes_nothing() {
        // Sixty closures, each capturing the one before, nest past the
        // decoder's bound: they encode but do not decode, and restore
        // reports it and leaves the session as it was.
        let mut deep = session();
        deep.load(
            "let d = let rec mk n = if n = 0 then (fun x -> x) \
             else (let g = mk (n - 1) in fun x -> g x) in mk 60",
        )
        .unwrap();
        let snap = deep.snapshot();
        assert!(SessionSnapshot::from_bytes(&snap.to_bytes()).is_err());
        let mut s = session();
        s.load("let x = 1").unwrap();
        let before = s.snapshot().to_bytes();
        assert!(s.restore(&snap).is_err());
        assert_eq!(s.snapshot().to_bytes(), before);
    }

    #[test]
    fn stdlib_prelude_loads_into_a_session() {
        let mut s = session();
        for def in bsml_std::combinators::ALL_DEFS {
            s.load(def).unwrap_or_else(|e| panic!("{def}: {e}"));
        }
        let events = s.load("bcast 1 (mkpar (fun i -> i * 100))").unwrap();
        assert_eq!(value_of(&events[0]), "<|100, 100, 100, 100|>");
        assert_eq!(s.total_cost().supersteps, 1);
    }
}
