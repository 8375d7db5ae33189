//! Pluggable execution backends for the four parallel primitives.
//!
//! The big-step evaluator delegates `mkpar`, `apply`, `put` and
//! `if‥at‥` to a [`ParallelDriver`]. Two implementations exist:
//!
//! * [`GlobalDriver`] (the default) — the *lockstep* model: one
//!   evaluator holds whole `p`-wide vectors and plays every processor
//!   in turn. Deterministic, sequential, used by the cost simulator.
//! * `SpmdDriver` (in `bsml-bsp::distributed`) — the *distributed*
//!   model the paper's BSMLlib actually used: one OS thread per
//!   processor, each holding only its own vector components (width-1
//!   vectors), exchanging real messages at `put`/`if‥at‥` barriers.
//!
//! The driver calls back into the evaluator through [`Applier`] to
//! run component functions and to report communication events.

use crate::error::EvalError;
use crate::hooks::Mode;
use crate::value::Value;

/// The evaluator services a driver may use.
pub trait Applier {
    /// Applies a function value to an argument in the given mode
    /// (ticking fuel and work hooks as usual).
    ///
    /// # Errors
    ///
    /// Any [`EvalError`] from the evaluation.
    fn apply_fn(&mut self, f: Value, arg: Value, mode: Mode) -> Result<Value, EvalError>;

    /// Rejects a vector component that is itself parallel data.
    ///
    /// # Errors
    ///
    /// [`EvalError::NestedParallelism`].
    fn ensure_local(&self, v: &Value) -> Result<(), EvalError>;

    /// Reports a completed `put` exchange (`messages[j][i]` = what
    /// `j` sent to `i`) to the cost hooks.
    fn note_put(&mut self, messages: &[Vec<Value>]);

    /// Reports an `if‥at‥` synchronization to the cost hooks.
    fn note_ifat(&mut self, at: usize, chosen: bool);

    /// Reports an asynchronous vector operation to the cost hooks.
    fn note_async(&mut self);

    /// The evaluator's remaining fuel budget. Deterministic replay
    /// (checkpoint resume in `bsml-bsp`) uses this as a cheap but
    /// sensitive progress fingerprint: replaying a superstep prefix
    /// must land on exactly the fuel a checkpoint recorded.
    fn fuel_left(&self) -> u64;
}

/// A backend implementing the parallel primitives.
pub trait ParallelDriver {
    /// The machine size `p` (the value of `bsp_p ()`).
    fn machine_width(&self) -> usize;

    /// The width of [`Value::Vector`]s in this backend (`p` in the
    /// lockstep model, 1 per processor in the SPMD model), or `None`
    /// when runtime vector *literals* are unsupported.
    fn literal_width(&self) -> Option<usize>;

    /// `mkpar f` — `f` is a function value.
    ///
    /// # Errors
    ///
    /// Any [`EvalError`].
    fn mkpar(&mut self, ev: &mut dyn Applier, f: &Value) -> Result<Value, EvalError>;

    /// `apply (⟨fs⟩, ⟨vs⟩)` — equal-width component slices.
    ///
    /// # Errors
    ///
    /// Any [`EvalError`].
    fn apply_par(
        &mut self,
        ev: &mut dyn Applier,
        fs: &[Value],
        vs: &[Value],
    ) -> Result<Value, EvalError>;

    /// `put ⟨fs⟩`.
    ///
    /// # Errors
    ///
    /// Any [`EvalError`].
    fn put(&mut self, ev: &mut dyn Applier, fs: &[Value]) -> Result<Value, EvalError>;

    /// `if ⟨bools⟩ at n` — returns the chosen branch's boolean after
    /// the synchronization.
    ///
    /// # Errors
    ///
    /// Any [`EvalError`].
    fn ifat(&mut self, ev: &mut dyn Applier, bools: &[Value], at: usize)
        -> Result<bool, EvalError>;

    /// Ends a program that evaluated without error. A backend whose
    /// processors may run a superstep ahead of one another
    /// synchronizes them a last time here; the lockstep backend has
    /// nothing to do.
    ///
    /// # Errors
    ///
    /// Any [`EvalError`] of that synchronization.
    fn finish(&mut self) -> Result<(), EvalError> {
        Ok(())
    }
}

/// The default lockstep backend (paper §3's semantics, literally).
#[derive(Clone, Debug)]
pub struct GlobalDriver {
    p: usize,
}

impl GlobalDriver {
    /// A lockstep machine of `p` processors.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    #[must_use]
    pub fn new(p: usize) -> GlobalDriver {
        assert!(p > 0, "a BSP machine needs at least one processor");
        GlobalDriver { p }
    }
}

impl ParallelDriver for GlobalDriver {
    fn machine_width(&self) -> usize {
        self.p
    }

    fn literal_width(&self) -> Option<usize> {
        Some(self.p)
    }

    fn mkpar(&mut self, ev: &mut dyn Applier, f: &Value) -> Result<Value, EvalError> {
        ev.note_async();
        let mut vs = Vec::with_capacity(self.p);
        for i in 0..self.p {
            let v = ev.apply_fn(f.clone(), Value::Int(i as i64), Mode::OnProc(i))?;
            ev.ensure_local(&v)?;
            vs.push(v);
        }
        Ok(Value::vector(vs))
    }

    fn apply_par(
        &mut self,
        ev: &mut dyn Applier,
        fs: &[Value],
        vs: &[Value],
    ) -> Result<Value, EvalError> {
        ev.note_async();
        let mut out = Vec::with_capacity(fs.len());
        for i in 0..fs.len() {
            let v = ev.apply_fn(fs[i].clone(), vs[i].clone(), Mode::OnProc(i))?;
            ev.ensure_local(&v)?;
            out.push(v);
        }
        Ok(Value::vector(out))
    }

    fn put(&mut self, ev: &mut dyn Applier, fs: &[Value]) -> Result<Value, EvalError> {
        if fs.len() != self.p {
            return Err(EvalError::ScrutineeMismatch(
                "put",
                format!(
                    "vector of width {} on a {}-processor machine",
                    fs.len(),
                    self.p
                ),
            ));
        }
        // messages[j][i]: what j sends to i.
        let mut messages: Vec<Vec<Value>> = Vec::with_capacity(self.p);
        for (j, f) in fs.iter().enumerate() {
            let mut row = Vec::with_capacity(self.p);
            for i in 0..self.p {
                let v = ev.apply_fn(f.clone(), Value::Int(i as i64), Mode::OnProc(j))?;
                ev.ensure_local(&v)?;
                row.push(v);
            }
            messages.push(row);
        }
        ev.note_put(&messages);
        // Receiver i gets the table [messages[0][i], …].
        let out = (0..self.p)
            .map(|i| {
                let table: Vec<Value> = messages.iter().map(|row| row[i].clone()).collect();
                Value::MsgTable(std::rc::Rc::new(table))
            })
            .collect();
        Ok(Value::vector(out))
    }

    fn ifat(
        &mut self,
        ev: &mut dyn Applier,
        bools: &[Value],
        at: usize,
    ) -> Result<bool, EvalError> {
        let chosen = match bools.get(at) {
            Some(Value::Bool(b)) => *b,
            Some(v) => return Err(EvalError::ScrutineeMismatch("if‥at‥", v.to_string())),
            None => return Err(EvalError::PidOutOfRange(at as i64, self.p)),
        };
        ev.note_ifat(at, chosen);
        Ok(chosen)
    }
}
