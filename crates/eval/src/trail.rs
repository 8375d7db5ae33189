//! An undo trail for reference cells: how a request rolls back.
//!
//! Environments are persistent, so the only evaluation step whose
//! effect outlives the environment it ran in is the `:=` δ-rule on a
//! §6 `ref` cell. While a [`Mark`] is open, that rule records the cell
//! and its old value the first time it assigns the cell after the
//! innermost open mark, so a loop that assigns one cell a million
//! times keeps one entry. A cell the `ref` rule creates inside the
//! innermost mark is never recorded there: no rollback to that mark
//! can reach it. Rolling back to a mark writes the recorded
//! values back, newest first; committing keeps the writes. Outside any
//! mark nothing is recorded. This is the trail of Warren's Abstract
//! Machine, which undoes bindings on backtracking and skips those
//! newer than the choice point (Aït-Kaci, 1991).
//!
//! ```
//! use bsml_ast::Ident;
//! use bsml_eval::{Env, Evaluator, Mode, NoHooks, Trail, Value};
//!
//! let env = Env::new().bind(Ident::new("r"), Value::cell(Value::Int(1), Mode::Global));
//! let trail = Trail::new();
//! let mark = trail.mark();
//! let mut hooks = NoHooks;
//! let mut ev = Evaluator::new(2, &mut hooks).with_trail(trail.clone());
//! ev.eval_with_env(&env, &bsml_syntax::parse("r := 5")?)?;
//! trail.rollback(mark);
//! assert_eq!(env.lookup(&Ident::new("r")).unwrap().to_string(), "ref 1");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

use crate::value::Value;

/// A shared handle to an undo trail; clones share one trail.
#[derive(Clone, Debug, Default)]
pub struct Trail(Rc<RefCell<State>>);

#[derive(Debug, Default)]
struct State {
    /// Each recorded cell with the value it held before, oldest first.
    entries: Vec<(Rc<RefCell<Value>>, Value)>,
    /// One frame per open mark, innermost last: where its entries
    /// start, and the cells recorded since it opened.
    marks: Vec<(usize, HashSet<*const RefCell<Value>>)>,
}

/// A position in a [`Trail`], closed by [`Trail::commit`] or
/// [`Trail::rollback`].
#[must_use = "a mark is closed by commit or rollback"]
pub struct Mark(usize);

impl Trail {
    /// An empty trail with no open mark.
    #[must_use]
    pub fn new() -> Trail {
        Trail::default()
    }

    /// Opens a mark nested in any mark already open.
    pub fn mark(&self) -> Mark {
        let mut s = self.0.borrow_mut();
        let start = s.entries.len();
        s.marks.push((start, HashSet::new()));
        Mark(s.marks.len() - 1)
    }

    /// Keeps every write since `mark`, closing it and any mark opened
    /// after it. Closing the outermost mark drops the entries.
    pub fn commit(&self, mark: Mark) {
        let s = &mut *self.0.borrow_mut();
        while s.marks.len() > mark.0 {
            let (_, seen) = s.marks.pop().expect("an open mark");
            match s.marks.last_mut() {
                Some((_, outer)) => outer.extend(seen),
                None => s.entries.clear(),
            }
        }
    }

    /// Undoes every write since `mark`, newest first, closing it and
    /// any mark opened after it.
    pub fn rollback(&self, mark: Mark) {
        let s = &mut *self.0.borrow_mut();
        if let Some(&(start, _)) = s.marks.get(mark.0) {
            s.marks.truncate(mark.0);
            for (cell, old) in s.entries.drain(start..).rev() {
                *cell.borrow_mut() = old;
            }
        }
    }

    /// Called by `ref` with the cell it created: the cell counts as
    /// recorded in the innermost open mark, so `:=` never trails it
    /// there.
    pub(crate) fn note_fresh(&self, cell: &Rc<RefCell<Value>>) {
        if let Some((_, seen)) = self.0.borrow_mut().marks.last_mut() {
            seen.insert(Rc::as_ptr(cell));
        }
    }

    /// Called by `:=` after it wrote `cell`, with the value it replaced.
    pub(crate) fn record(&self, cell: &Rc<RefCell<Value>>, old: Value) {
        let s = &mut *self.0.borrow_mut();
        if let Some((_, seen)) = s.marks.last_mut() {
            if seen.insert(Rc::as_ptr(cell)) {
                s.entries.push((Rc::clone(cell), old));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Env;
    use crate::hooks::{Mode, NoHooks};
    use crate::Evaluator;
    use bsml_ast::Ident;

    fn run(trail: &Trail, env: &Env, src: &str) -> Value {
        let mut hooks = NoHooks;
        Evaluator::new(2, &mut hooks)
            .with_trail(trail.clone())
            .eval_with_env(env, &bsml_syntax::parse(src).unwrap())
            .unwrap()
    }

    fn cell_env() -> Env {
        Env::new().bind(Ident::new("r"), Value::cell(Value::Int(1), Mode::Global))
    }

    fn r(env: &Env) -> String {
        env.lookup(&Ident::new("r")).unwrap().to_string()
    }

    #[test]
    fn a_loop_that_assigns_one_cell_keeps_one_entry() {
        let (trail, env) = (Trail::new(), cell_env());
        let mark = trail.mark();
        let src = "let rec go n = if n = 0 then () else (r := !r + 1; go (n - 1)) in go 10000";
        run(&trail, &env, src);
        assert_eq!(r(&env), "ref 10001");
        assert_eq!(trail.0.borrow().entries.len(), 1);
        trail.rollback(mark);
        assert_eq!(r(&env), "ref 1");
    }

    #[test]
    fn cells_born_inside_the_mark_are_not_recorded() {
        let (trail, env) = (Trail::new(), cell_env());
        let mark = trail.mark();
        let src = "let rec go n = if n = 0 then () else (let c = ref 0 in c := n; go (n - 1)) in
                   r := 2; go 10000";
        run(&trail, &env, src);
        assert_eq!(r(&env), "ref 2");
        // The one entry is the older cell `r`.
        assert_eq!(trail.0.borrow().entries.len(), 1);
        trail.rollback(mark);
        assert_eq!(r(&env), "ref 1");
    }

    #[test]
    fn a_cell_born_in_an_outer_mark_is_recorded_in_an_inner_one() {
        let trail = Trail::new();
        let outer = trail.mark();
        let env = Env::new().bind(Ident::new("c"), run(&trail, &Env::new(), "ref 1"));
        let inner = trail.mark();
        run(&trail, &env, "c := 2");
        trail.rollback(inner);
        assert_eq!(env.lookup(&Ident::new("c")).unwrap().to_string(), "ref 1");
        trail.commit(outer);
    }

    #[test]
    fn nothing_is_recorded_outside_a_mark() {
        let (trail, env) = (Trail::new(), cell_env());
        run(&trail, &env, "r := 2");
        assert!(trail.0.borrow().entries.is_empty());
        assert_eq!(r(&env), "ref 2");
    }

    #[test]
    fn an_inner_rollback_keeps_the_outer_writes() {
        let (trail, env) = (Trail::new(), cell_env());
        let outer = trail.mark();
        run(&trail, &env, "r := 2");
        let inner = trail.mark();
        run(&trail, &env, "r := 3");
        trail.rollback(inner);
        assert_eq!(r(&env), "ref 2");
        let inner = trail.mark();
        run(&trail, &env, "r := 4");
        trail.commit(inner);
        assert_eq!(r(&env), "ref 4");
        trail.rollback(outer);
        assert_eq!(r(&env), "ref 1");
        assert!(trail.0.borrow().entries.is_empty());
    }

    #[test]
    fn an_outer_rollback_closes_marks_left_open() {
        // A panic can leave inner marks open; the outer rollback still
        // undoes their writes and closes them.
        let (trail, env) = (Trail::new(), cell_env());
        let outer = trail.mark();
        let _inner = trail.mark();
        run(&trail, &env, "r := 9");
        trail.rollback(outer);
        assert_eq!(r(&env), "ref 1");
        assert!(trail.0.borrow().marks.is_empty());
    }
}
