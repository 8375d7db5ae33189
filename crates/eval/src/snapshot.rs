//! Deep, identity-free copies of evaluator state.
//!
//! A [`Snapshot`] captures an [`Env`] (and [`ValueSnapshot`] a single
//! [`Value`]) by **deep copy**: every environment node and value node
//! is rebuilt, every reference cell gets a fresh `RefCell`. Immutable
//! code and names are shared: a closure's body stays the `fun` node's
//! `Arc<Expr>`, as each `Ident` stays its `Arc<str>`, since nothing can
//! mutate either. Mutating a cell after `restore()` can therefore never
//! reach back into the snapshot (no cell identity leaks across
//! restore). This is what makes snapshots safe to keep around as
//! recovery points: a checkpointed environment is immutable by
//! construction.
//!
//! Two structural properties are preserved carefully:
//!
//! * **Aliasing between cells.** Two bindings referring to the *same*
//!   `ref` cell must still refer to one (fresh) cell after restore —
//!   otherwise an assignment through one alias would stop being
//!   visible through the other, silently changing program semantics.
//!   The copier memoizes cells by `Rc` identity.
//! * **Cyclic values.** A cell can hold a closure whose captured
//!   environment contains the cell itself (`let r = ref (fun x -> x)
//!   in r := (fun y -> !r y)`). The copier breaks the cycle by
//!   registering a placeholder cell before descending into the
//!   contents, then back-patching.
//! * **Environment sharing.** Every toplevel closure captures a suffix
//!   of the session spine. The copier memoizes spine nodes by
//!   identity, as the byte codec ([`crate::persist`]) does, so a
//!   session with n bindings copies in O(n), not O(2ⁿ). Nodes copied
//!   while a cell's contents are being copied stay private to that
//!   cell: such a node may sit on a cycle through the cell, and
//!   sharing it would let the byte codec meet it before the cell.
//!
//! ```
//! use bsml_ast::Ident;
//! use bsml_eval::{snapshot::Snapshot, Env, Value};
//!
//! let live = Env::new().bind(Ident::new("x"), Value::Int(1));
//! let snap = Snapshot::of_env(&live);
//! let restored = snap.restore();
//! assert_eq!(restored.lookup(&Ident::new("x")).unwrap().to_string(), "1");
//! ```

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use crate::env::Env;
use crate::value::Value;

/// Copies made so far, keyed by the identity of the original: cells,
/// so aliases stay aliases and cycles terminate, and environment spine
/// nodes, so shared suffixes stay shared.
#[derive(Default)]
struct CopyMemo {
    cells: HashMap<*const RefCell<Value>, Rc<RefCell<Value>>>,
    nodes: HashMap<usize, Env>,
    /// How many cell contents are being copied right now.
    in_cell: usize,
}

/// An isolated deep copy of an [`Env`].
///
/// The captured environment shares no `Rc` node with the environment
/// it was taken from; [`Snapshot::restore`] deep-copies *again*, so a
/// snapshot can be restored any number of times and each restoration
/// is independent of the others (and of the snapshot itself).
#[derive(Clone, Debug)]
pub struct Snapshot {
    env: Env,
}

impl Snapshot {
    /// Captures a deep copy of `env`.
    #[must_use]
    pub fn of_env(env: &Env) -> Snapshot {
        Snapshot {
            env: deep_copy_env(env, &mut CopyMemo::default()),
        }
    }

    /// Materializes a fresh environment from the snapshot (another
    /// deep copy — the snapshot remains isolated).
    #[must_use]
    pub fn restore(&self) -> Env {
        deep_copy_env(&self.env, &mut CopyMemo::default())
    }

    /// Number of captured (possibly shadowed) bindings.
    #[must_use]
    pub fn len(&self) -> usize {
        self.env.len()
    }

    /// `true` if the snapshot captured an empty environment.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.env.is_empty()
    }

    /// Crate-internal view of the captured environment, for the byte
    /// codec ([`crate::persist`]).
    pub(crate) fn env(&self) -> &Env {
        &self.env
    }

    /// Wraps an environment the caller exclusively owns (a freshly
    /// decoded one) without the deep copy `of_env` would make.
    pub(crate) fn from_owned_env(env: Env) -> Snapshot {
        Snapshot { env }
    }
}

/// An isolated deep copy of a single [`Value`].
#[derive(Clone, Debug)]
pub struct ValueSnapshot {
    value: Value,
}

impl ValueSnapshot {
    /// Captures a deep copy of `v`.
    #[must_use]
    pub fn capture(v: &Value) -> ValueSnapshot {
        ValueSnapshot {
            value: deep_copy_value(v, &mut CopyMemo::default()),
        }
    }

    /// Materializes a fresh value (another deep copy).
    #[must_use]
    pub fn restore(&self) -> Value {
        deep_copy_value(&self.value, &mut CopyMemo::default())
    }
}

fn deep_copy_env(env: &Env, memo: &mut CopyMemo) -> Env {
    // Walk down to the first node already copied, then rebuild
    // outermost-first so shadowing order is preserved.
    let mut pending = Vec::new();
    let mut cur = env.clone();
    let mut out = loop {
        let Some((name, value, tail, key)) = cur.spine_head() else {
            break Env::new();
        };
        if let Some(copied) = memo.nodes.get(&key) {
            break copied.clone();
        }
        pending.push((key, name.clone(), value.clone()));
        cur = tail;
    };
    for (key, name, value) in pending.into_iter().rev() {
        out = out.bind(name, deep_copy_value(&value, memo));
        if memo.in_cell == 0 {
            memo.nodes.insert(key, out.clone());
        }
    }
    out
}

fn deep_copy_value(v: &Value, memo: &mut CopyMemo) -> Value {
    match v {
        Value::Int(n) => Value::Int(*n),
        Value::Bool(b) => Value::Bool(*b),
        Value::Unit => Value::Unit,
        Value::NoComm => Value::NoComm,
        Value::Nil => Value::Nil,
        Value::Prim(op) => Value::Prim(*op),
        Value::Pair(a, b) => Value::Pair(
            Rc::new(deep_copy_value(a, memo)),
            Rc::new(deep_copy_value(b, memo)),
        ),
        Value::Cons(h, t) => Value::Cons(
            Rc::new(deep_copy_value(h, memo)),
            Rc::new(deep_copy_value(t, memo)),
        ),
        Value::Inl(inner) => Value::Inl(Rc::new(deep_copy_value(inner, memo))),
        Value::Inr(inner) => Value::Inr(Rc::new(deep_copy_value(inner, memo))),
        Value::Vector(vs) => Value::vector(vs.iter().map(|c| deep_copy_value(c, memo)).collect()),
        Value::MsgTable(t) => Value::MsgTable(Rc::new(
            t.iter().map(|c| deep_copy_value(c, memo)).collect(),
        )),
        Value::Fix(inner) => Value::Fix(Rc::new(deep_copy_value(inner, memo))),
        Value::Closure { param, body, env } => Value::Closure {
            param: param.clone(),
            // Code is immutable, so the copy shares it: no restore can
            // observe the sharing.
            body: Arc::clone(body),
            env: deep_copy_env(env, memo),
        },
        Value::Cell { cell, origin } => {
            let key = Rc::as_ptr(cell);
            if let Some(copied) = memo.cells.get(&key) {
                // An alias of a cell we already copied: preserve the
                // aliasing in the copy.
                return Value::Cell {
                    cell: Rc::clone(copied),
                    origin: *origin,
                };
            }
            // Register a placeholder before descending so a cyclic
            // value (a cell whose contents capture the cell) hits the
            // memo instead of recursing forever; back-patch after.
            let fresh = Rc::new(RefCell::new(Value::Unit));
            memo.cells.insert(key, Rc::clone(&fresh));
            memo.in_cell += 1;
            let contents = deep_copy_value(&cell.borrow(), memo);
            memo.in_cell -= 1;
            *fresh.borrow_mut() = contents;
            Value::Cell {
                cell: fresh,
                origin: *origin,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::Mode;
    use bsml_ast::Ident;

    fn x() -> Ident {
        Ident::new("x")
    }

    #[test]
    fn restore_is_structurally_equal() {
        let env = Env::new()
            .bind(x(), Value::Int(1))
            .bind(Ident::new("y"), Value::pair(Value::Bool(true), Value::Nil))
            .bind(x(), Value::Int(2)); // shadowing preserved
        let snap = Snapshot::of_env(&env);
        assert_eq!(snap.len(), 3);
        let restored = snap.restore();
        assert_eq!(restored.len(), 3);
        assert_eq!(restored.lookup(&x()).unwrap().to_string(), "2");
        assert_eq!(
            restored.lookup(&Ident::new("y")).unwrap().to_string(),
            "(true, [])"
        );
    }

    #[test]
    fn no_rc_identity_leaks_through_cells() {
        // Mutating a restored cell must not reach the original, nor
        // the snapshot (each restore is independent).
        let original_cell = Value::cell(Value::Int(1), Mode::Global);
        let env = Env::new().bind(x(), original_cell.clone());
        let snap = Snapshot::of_env(&env);
        let restored = snap.restore();
        let Some(Value::Cell { cell, .. }) = restored.lookup(&x()) else {
            panic!("expected a cell");
        };
        *cell.borrow_mut() = Value::Int(99);
        let Value::Cell { cell: orig, .. } = &original_cell else {
            unreachable!()
        };
        assert_eq!(orig.borrow().to_string(), "1");
        let Some(Value::Cell { cell: again, .. }) = snap.restore().lookup(&x()).cloned() else {
            panic!("expected a cell");
        };
        assert_eq!(again.borrow().to_string(), "1");
    }

    #[test]
    fn cell_aliasing_is_preserved() {
        // Two bindings to ONE cell must restore as two bindings to one
        // (fresh) cell: an assignment through either alias stays
        // visible through the other.
        let shared = Value::cell(Value::Int(7), Mode::Global);
        let env = Env::new()
            .bind(Ident::new("a"), shared.clone())
            .bind(Ident::new("b"), shared);
        let restored = Snapshot::of_env(&env).restore();
        let Some(Value::Cell { cell: a, .. }) = restored.lookup(&Ident::new("a")) else {
            panic!("expected a cell");
        };
        let Some(Value::Cell { cell: b, .. }) = restored.lookup(&Ident::new("b")) else {
            panic!("expected a cell");
        };
        assert!(Rc::ptr_eq(a, b), "aliases must stay aliases");
    }

    #[test]
    fn cyclic_values_terminate() {
        // A cell whose contents (a closure environment) contain the
        // cell itself: the copier must terminate and preserve the
        // knot.
        let cell = Value::cell(Value::Unit, Mode::Global);
        let closure = Value::Closure {
            param: x(),
            body: Arc::new(bsml_ast::build::var("x")),
            env: Env::new().bind(Ident::new("r"), cell.clone()),
        };
        let Value::Cell { cell: rc, .. } = &cell else {
            unreachable!()
        };
        *rc.borrow_mut() = closure;
        let snap = ValueSnapshot::capture(&cell);
        let restored = snap.restore();
        let Value::Cell { cell: fresh, .. } = &restored else {
            panic!("expected a cell");
        };
        // The restored knot is tied onto the fresh cell, not the
        // original.
        let contents = fresh.borrow();
        let Value::Closure { body, env, .. } = &*contents else {
            panic!("expected the closure");
        };
        let Some(Value::Cell { cell: inner, .. }) = env.lookup(&Ident::new("r")) else {
            panic!("expected the captured cell");
        };
        assert!(Rc::ptr_eq(fresh, inner), "cycle must close onto the copy");
        assert!(!Rc::ptr_eq(rc, inner), "cycle must not leak the original");
        let original = rc.borrow();
        let Value::Closure { body: code, .. } = &*original else {
            unreachable!()
        };
        assert!(Arc::ptr_eq(body, code), "code must be shared, not copied");
    }

    #[test]
    fn value_snapshot_roundtrip() {
        let v = Value::list([Value::Int(1), Value::Int(2), Value::Int(3)]);
        let snap = ValueSnapshot::capture(&v);
        assert_eq!(snap.restore().to_string(), "[1; 2; 3]");
    }
}
