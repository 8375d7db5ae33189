//! Runtime values of the big-step evaluator.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use bsml_ast::{Expr, Ident, Op};

use crate::env::Env;
use crate::hooks::Mode;

/// A big-step runtime value.
///
/// Mirrors the paper's Figure 4, with closures instead of substituted
/// lambdas and one extra representation: [`Value::MsgTable`], the
/// delivered-message function `fd_i` produced by `put` (a function
/// value backed by a table, returning `nc ()` outside `0‥p-1` exactly
/// as the δ-rule of Figure 2 specifies).
#[derive(Clone, Debug)]
pub enum Value {
    /// An integer.
    Int(i64),
    /// A boolean.
    Bool(bool),
    /// The unit value `()`.
    Unit,
    /// A function closure.
    Closure {
        /// The parameter.
        param: Ident,
        /// The body: the `fun` node's own code, shared, never copied.
        body: Arc<Expr>,
        /// The captured environment.
        env: Env,
    },
    /// A primitive operator as a first-class value.
    Prim(Op),
    /// A pair.
    Pair(Rc<Value>, Rc<Value>),
    /// The "no message" value `nc ()`.
    NoComm,
    /// Left injection (§6 extension).
    Inl(Rc<Value>),
    /// Right injection (§6 extension).
    Inr(Rc<Value>),
    /// The empty list (§6 extension).
    Nil,
    /// A list cell (§6 extension).
    Cons(Rc<Value>, Rc<Value>),
    /// A p-wide parallel vector.
    Vector(Rc<Vec<Value>>),
    /// The delivered-messages function of `put`: applying it to `j`
    /// yields the message received from process `j`, or `nc ()`
    /// outside `0‥p-1`.
    MsgTable(Rc<Vec<Value>>),
    /// The fixpoint `fix f` as a function value: applying it unrolls
    /// one step of the δ-rule `fix(fun x → e) → e[x ← fix(fun x → e)]`.
    Fix(Rc<Value>),
    /// A mutable reference cell (§6 "imperative features" extension),
    /// tagged with the execution mode it was created in. The
    /// evaluator uses the tag to reject incoherent replicated
    /// updates — the interaction the paper's §6 describes.
    Cell {
        /// The mutable contents.
        cell: Rc<RefCell<Value>>,
        /// Where the cell was created: a [`Mode::Global`] cell exists
        /// identically on every processor (replicated); a
        /// [`Mode::OnProc`] cell lives in one local memory.
        origin: Mode,
    },
}

impl Value {
    /// Builds a vector value.
    #[must_use]
    pub fn vector(vs: Vec<Value>) -> Value {
        Value::Vector(Rc::new(vs))
    }

    /// Builds a pair value.
    #[must_use]
    pub fn pair(a: Value, b: Value) -> Value {
        Value::Pair(Rc::new(a), Rc::new(b))
    }

    /// Builds a reference cell created in the given mode.
    #[must_use]
    pub fn cell(contents: Value, origin: Mode) -> Value {
        Value::Cell {
            cell: Rc::new(RefCell::new(contents)),
            origin,
        }
    }

    /// Builds a list value from items.
    #[must_use]
    pub fn list(
        items: impl IntoIterator<IntoIter = impl DoubleEndedIterator<Item = Value>>,
    ) -> Value {
        items
            .into_iter()
            .rev()
            .fold(Value::Nil, |t, h| Value::Cons(Rc::new(h), Rc::new(t)))
    }

    /// `true` for values a function application can consume.
    #[must_use]
    pub fn is_function(&self) -> bool {
        matches!(
            self,
            Value::Closure { .. } | Value::Prim(_) | Value::MsgTable(_) | Value::Fix(_)
        )
    }

    /// `true` if a parallel vector occurs anywhere inside the value.
    /// A list's spine is walked in a loop.
    #[must_use]
    pub fn contains_vector(&self) -> bool {
        let mut cur = self;
        while let Value::Cons(h, t) = cur {
            if h.contains_vector() {
                return true;
            }
            cur = t;
        }
        match cur {
            Value::Vector(_) => true,
            Value::Pair(a, b) | Value::Cons(a, b) => a.contains_vector() || b.contains_vector(),
            Value::Inl(v) | Value::Inr(v) => v.contains_vector(),
            Value::Cell { cell, .. } => cell.borrow().contains_vector(),
            // Closure environments could capture vectors; treated
            // conservatively by the evaluator at creation time.
            _ => false,
        }
    }

    /// The BSP "word" size of a value — the unit in which h-relations
    /// are measured by the cost model (paper §2: "every processor
    /// receives/sends at most one *word*").
    ///
    /// Scalars count 1; structured values count their parts;
    /// `nc ()` counts 0 (no message is sent, per §2 `put` spec). A
    /// list's spine is walked in a loop.
    #[must_use]
    pub fn size_in_words(&self) -> u64 {
        let (mut words, mut cur) = (0, self);
        while let Value::Cons(h, t) = cur {
            words += h.size_in_words();
            cur = t;
        }
        let last = match cur {
            Value::Int(_) | Value::Bool(_) | Value::Unit => 1,
            Value::NoComm => 0,
            Value::Pair(a, b) | Value::Cons(a, b) => a.size_in_words() + b.size_in_words(),
            Value::Inl(v) | Value::Inr(v) => 1 + v.size_in_words(),
            Value::Nil => 1,
            // Sending a function costs its code size; we charge 1 word
            // per AST node as a machine-independent proxy.
            Value::Closure { body, .. } => body.size() as u64,
            Value::Prim(_) => 1,
            Value::MsgTable(t) => t.iter().map(Value::size_in_words).sum(),
            Value::Vector(vs) => vs.iter().map(Value::size_in_words).sum(),
            Value::Fix(inner) => inner.size_in_words(),
            // A serialized cell costs its contents plus the header;
            // sending one across processors is almost always a bug,
            // caught by the origin check at first use.
            Value::Cell { cell, .. } => 1 + cell.borrow().size_in_words(),
        };
        words + last
    }

    /// Structural equality on first-order values.
    ///
    /// Returns `None` when a function value is encountered (closures
    /// have no decidable equality).
    #[must_use]
    pub fn try_eq(&self, other: &Value) -> Option<bool> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(a == b),
            (Value::Bool(a), Value::Bool(b)) => Some(a == b),
            (Value::Unit, Value::Unit)
            | (Value::NoComm, Value::NoComm)
            | (Value::Nil, Value::Nil) => Some(true),
            (Value::Pair(a1, b1), Value::Pair(a2, b2))
            | (Value::Cons(a1, b1), Value::Cons(a2, b2)) => Some(a1.try_eq(a2)? && b1.try_eq(b2)?),
            (Value::Inl(a), Value::Inl(b)) | (Value::Inr(a), Value::Inr(b)) => a.try_eq(b),
            (Value::Vector(xs), Value::Vector(ys)) => {
                if xs.len() != ys.len() {
                    return Some(false);
                }
                for (x, y) in xs.iter().zip(ys.iter()) {
                    if !x.try_eq(y)? {
                        return Some(false);
                    }
                }
                Some(true)
            }
            // OCaml's (=) compares reference *contents*.
            (Value::Cell { cell: a, .. }, Value::Cell { cell: b2, .. }) => {
                if Rc::ptr_eq(a, b2) {
                    return Some(true);
                }
                let x = a.borrow().clone();
                let y = b2.borrow().clone();
                x.try_eq(&y)
            }
            (Value::Closure { .. }, _)
            | (_, Value::Closure { .. })
            | (Value::Prim(_), _)
            | (_, Value::Prim(_))
            | (Value::MsgTable(_), _)
            | (_, Value::MsgTable(_))
            | (Value::Fix(_), _)
            | (_, Value::Fix(_)) => None,
            _ => Some(false),
        }
    }
}

/// A first-order value in serialized (thread-safe) form — what can
/// actually travel between processors of the distributed machine.
///
/// Functions, delivered-message tables and reference cells have no
/// portable form, exactly like OCaml values under marshalling
/// restrictions in the original BSMLlib.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PortableValue {
    /// An integer.
    Int(i64),
    /// A boolean.
    Bool(bool),
    /// Unit.
    Unit,
    /// `nc ()`.
    NoComm,
    /// A pair.
    Pair(Box<PortableValue>, Box<PortableValue>),
    /// Left injection.
    Inl(Box<PortableValue>),
    /// Right injection.
    Inr(Box<PortableValue>),
    /// The empty list.
    Nil,
    /// A list cell.
    Cons(Box<PortableValue>, Box<PortableValue>),
    /// A parallel vector (only ever at the top of a *result*, never
    /// inside a message — components are local values).
    Vector(Vec<PortableValue>),
}

impl PortableValue {
    /// Deserializes back into a runtime value. A list's spine is
    /// walked in a loop.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let mut heads = Vec::new();
        let mut cur = self;
        while let PortableValue::Cons(h, t) = cur {
            heads.push(h.to_value());
            cur = t;
        }
        let last = match cur {
            PortableValue::Int(n) => Value::Int(*n),
            PortableValue::Bool(b) => Value::Bool(*b),
            PortableValue::Unit => Value::Unit,
            PortableValue::NoComm => Value::NoComm,
            PortableValue::Pair(a, b) => Value::pair(a.to_value(), b.to_value()),
            PortableValue::Inl(v) => Value::Inl(Rc::new(v.to_value())),
            PortableValue::Inr(v) => Value::Inr(Rc::new(v.to_value())),
            PortableValue::Nil => Value::Nil,
            PortableValue::Cons(h, t) => Value::Cons(Rc::new(h.to_value()), Rc::new(t.to_value())),
            PortableValue::Vector(vs) => {
                Value::vector(vs.iter().map(PortableValue::to_value).collect())
            }
        };
        heads
            .into_iter()
            .rev()
            .fold(last, |t, h| Value::Cons(Rc::new(h), Rc::new(t)))
    }
}

impl Value {
    /// Serializes a first-order value, or reports why it cannot
    /// travel. A list's spine is walked in a loop.
    ///
    /// # Errors
    ///
    /// [`crate::EvalError::NotSerializable`] on functions, message
    /// tables and reference cells.
    pub fn to_portable(&self) -> Result<PortableValue, crate::EvalError> {
        let mut heads = Vec::new();
        let mut cur = self;
        while let Value::Cons(h, t) = cur {
            heads.push(h.to_portable()?);
            cur = t;
        }
        let last = match cur {
            Value::Int(n) => Ok(PortableValue::Int(*n)),
            Value::Bool(b) => Ok(PortableValue::Bool(*b)),
            Value::Unit => Ok(PortableValue::Unit),
            Value::NoComm => Ok(PortableValue::NoComm),
            Value::Pair(a, b) => Ok(PortableValue::Pair(
                Box::new(a.to_portable()?),
                Box::new(b.to_portable()?),
            )),
            Value::Inl(v) => Ok(PortableValue::Inl(Box::new(v.to_portable()?))),
            Value::Inr(v) => Ok(PortableValue::Inr(Box::new(v.to_portable()?))),
            Value::Nil => Ok(PortableValue::Nil),
            Value::Cons(h, t) => Ok(PortableValue::Cons(
                Box::new(h.to_portable()?),
                Box::new(t.to_portable()?),
            )),
            Value::Vector(vs) => Ok(PortableValue::Vector(
                vs.iter()
                    .map(Value::to_portable)
                    .collect::<Result<_, _>>()?,
            )),
            Value::Closure { .. }
            | Value::Prim(_)
            | Value::MsgTable(_)
            | Value::Fix(_)
            | Value::Cell { .. } => Err(crate::EvalError::NotSerializable(cur.to_string())),
        }?;
        Ok(heads
            .into_iter()
            .rev()
            .fold(last, |t, h| PortableValue::Cons(Box::new(h), Box::new(t))))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(n) => write!(f, "{n}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Unit => f.write_str("()"),
            Value::Closure { param, .. } => write!(f, "<fun {param}>"),
            Value::Prim(op) => write!(f, "{op}"),
            Value::Pair(a, b) => write!(f, "({a}, {b})"),
            Value::NoComm => f.write_str("nc ()"),
            Value::Inl(v) => write!(f, "inl {v}"),
            Value::Inr(v) => write!(f, "inr {v}"),
            Value::Nil => f.write_str("[]"),
            Value::Cons(..) => {
                f.write_str("[")?;
                let mut cur = self;
                let mut first = true;
                loop {
                    match cur {
                        Value::Cons(h, t) => {
                            if !first {
                                f.write_str("; ")?;
                            }
                            write!(f, "{h}")?;
                            first = false;
                            cur = t;
                        }
                        Value::Nil => break,
                        other => {
                            // Improper list (unreachable for typed
                            // programs) — print the tail explicitly.
                            write!(f, " . {other}")?;
                            break;
                        }
                    }
                }
                f.write_str("]")
            }
            Value::Vector(vs) => {
                f.write_str("<|")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("|>")
            }
            Value::MsgTable(_) => f.write_str("<delivered-messages>"),
            Value::Fix(_) => f.write_str("<fix>"),
            Value::Cell { cell, .. } => write!(f, "ref {}", cell.borrow()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(
            Value::pair(Value::Int(1), Value::Unit).to_string(),
            "(1, ())"
        );
        assert_eq!(
            Value::vector(vec![Value::Int(1), Value::Int(2)]).to_string(),
            "<|1, 2|>"
        );
        assert_eq!(
            Value::list([Value::Int(1), Value::Int(2)]).to_string(),
            "[1; 2]"
        );
        assert_eq!(Value::NoComm.to_string(), "nc ()");
        assert_eq!(Value::Inl(Rc::new(Value::Int(1))).to_string(), "inl 1");
    }

    #[test]
    fn sizes_in_words() {
        assert_eq!(Value::Int(5).size_in_words(), 1);
        assert_eq!(Value::NoComm.size_in_words(), 0);
        assert_eq!(
            Value::pair(Value::Int(1), Value::pair(Value::Int(2), Value::Int(3))).size_in_words(),
            3
        );
        assert_eq!(
            Value::list([Value::Int(1), Value::Int(2)]).size_in_words(),
            3 // two cells + nil
        );
    }

    #[test]
    fn try_eq_first_order() {
        let a = Value::pair(Value::Int(1), Value::Bool(true));
        let b = Value::pair(Value::Int(1), Value::Bool(true));
        assert_eq!(a.try_eq(&b), Some(true));
        let c = Value::pair(Value::Int(2), Value::Bool(true));
        assert_eq!(a.try_eq(&c), Some(false));
        assert_eq!(Value::Int(1).try_eq(&Value::Bool(true)), Some(false));
    }

    #[test]
    fn try_eq_functions_undecidable() {
        let f = Value::Prim(Op::Add);
        assert_eq!(f.try_eq(&f), None);
    }

    #[test]
    fn contains_vector() {
        assert!(Value::vector(vec![]).contains_vector());
        assert!(Value::pair(Value::Int(1), Value::vector(vec![])).contains_vector());
        assert!(!Value::Int(1).contains_vector());
    }
}
