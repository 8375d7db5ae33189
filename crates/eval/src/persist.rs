//! The one byte codec for evaluator values ([`Value`], [`Env`]), over
//! one tag table, in two forms.
//!
//! * **Session form** ([`value_to_bytes`], [`env_to_bytes`]): every
//!   value, closures and cells included — the value half of the
//!   serving layer's durable session snapshots.
//! * **Message form** ([`encode_value`], [`decode_value`]): the form a
//!   value takes when it crosses a thread or process boundary — a
//!   `put` message, a checkpoint row entry, a rank's result. A message
//!   holds only first-order values (int, bool, unit, `nc ()`, nil,
//!   pairs, sums, lists and vectors), and a first-order value has the
//!   same bytes in both forms. The encoder refuses everything else,
//!   and anything nested past [`MAX_DEPTH`], with
//!   [`EvalError::NotSerializable`], so a rank never sends bytes its
//!   peer must reject; the decoder answers any other tag with
//!   [`CodecError::BadTag`] before reading further.
//!
//! The session form adds three things:
//!
//! * **Cell aliasing and cycles.** Reference cells are numbered on
//!   first encounter (`CellDef`) and back-referenced afterwards
//!   (`CellRef`), with the id registered *before* descending into the
//!   contents so a cell whose contents capture the cell itself
//!   encodes — and decodes — as a tied knot, not an infinite loop.
//! * **A flat spine.** Every toplevel closure captures a *suffix* of
//!   the session's persistent environment. An environment is written
//!   as its newest node already written, then the nodes after it,
//!   oldest first, so nesting does not grow with the number of
//!   functions. A node gets its id once its value is written, where
//!   the decoder builds it: a cycle back into a node's own value,
//!   through a cell, writes that node again, not a dangling reference.
//! * **Code once.** A closure body is written as pretty-printed source
//!   the first time its `Arc<Expr>` is met and by number afterwards;
//!   decoding parses it once and shares the `Arc`. This leans on
//!   `parse(print(e)) = e` (`crates/syntax/tests/roundtrip.rs`).
//!
//! The encoder writes only this layout (session format v2); the
//! decoder also reads v1's tags (spines innermost first with explicit
//! node ids, closures that carry their source).
//!
//! Decoding is *total*: malformed bytes produce a typed
//! [`CodecError`], never a panic — nesting is bounded by the shared
//! [`MAX_DEPTH`] so corrupt input cannot overflow the stack (a list's
//! spine is read in a loop, so list tails do not count towards it, but
//! each closure environment costs two levels), and counts are validated
//! before allocation. The bytes carry no checksum of their own: the
//! frame, checkpoint file or WAL record that holds them is sealed
//! ([`crate::bytes::seal`]).

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use bsml_ast::{Expr, Ident, Op};

use crate::bytes::{put_str, put_u64, ByteReader, CodecError, MAX_DEPTH};
use crate::env::Env;
use crate::error::EvalError;
use crate::hooks::Mode;
use crate::value::Value;

// Value tags. Tags 0–4 and 6–10 are the first-order values a message
// may hold.
const T_INT: u8 = 0;
const T_BOOL: u8 = 1;
const T_UNIT: u8 = 2;
const T_NOCOMM: u8 = 3;
const T_NIL: u8 = 4;
const T_PRIM: u8 = 5;
const T_PAIR: u8 = 6;
const T_CONS: u8 = 7;
const T_INL: u8 = 8;
const T_INR: u8 = 9;
const T_VECTOR: u8 = 10;
const T_MSGTABLE: u8 = 11;
const T_FIX: u8 = 12;
const T_CLOSURE: u8 = 13; // v1: param, source, env
const T_CELL_DEF: u8 = 14;
const T_CELL_REF: u8 = 15;
const T_CLOSURE_CODE: u8 = 16; // param, source (numbered), env
const T_CLOSURE_SHARED: u8 = 17; // param, number of a written body, env

// Environment tags.
const E_EMPTY: u8 = 0;
const E_BINDING: u8 = 1; // v1: id, name, value; then the tail
const E_TAIL_REF: u8 = 2; // v1: id of the written tail
const E_SPINE: u8 = 3; // base (0 or id + 1), n, n × (name, value)

// Mode tags.
const M_GLOBAL: u8 = 0;
const M_ON_PROC: u8 = 1;

/// The encoding of `nc ()`: what a rank records for a peer that sent
/// it nothing.
pub const NO_MESSAGE: &[u8] = &[T_NOCOMM];

/// Shared encoder state: the form being written, and ids for cells
/// (by `RefCell` identity), spine nodes (by node identity) and closure
/// bodies (by `Arc` identity).
#[derive(Default)]
struct EncodeMemo {
    message: bool,
    cells: HashMap<usize, u64>,
    nodes: HashMap<usize, u64>,
    nodes_written: u64,
    code: HashMap<*const Expr, u64>,
}

/// Shared decoder state: the form being read, and the structures each
/// id resolved to.
#[derive(Default)]
struct DecodeMemo {
    message: bool,
    cells: HashMap<u64, Rc<RefCell<Value>>>,
    envs: HashMap<u64, Env>, // v1 nodes, by their written id
    nodes: Vec<Env>,         // nodes, in the order written
    code: Vec<Arc<Expr>>,    // bodies, in the order written
}

/// Encodes a message: appends one first-order value to `out`. A
/// list's spine is written in a loop, so a long list costs no stack.
/// On an error, `out` holds a partial encoding that the caller drops.
///
/// # Errors
///
/// [`EvalError::NotSerializable`] on a closure, a primitive, a
/// fixpoint, a message table or a reference cell, and on a value
/// nested deeper than [`MAX_DEPTH`], counted as [`decode_value`]
/// counts: every encoding this writes decodes.
pub fn encode_value(out: &mut Vec<u8>, v: &Value) -> Result<(), EvalError> {
    let mut memo = EncodeMemo {
        message: true,
        ..EncodeMemo::default()
    };
    encode(out, v, &mut memo, 0)
}

/// Decodes one message, nested at most [`MAX_DEPTH`] deep (list tails
/// do not count).
///
/// # Errors
///
/// [`CodecError::BadTag`] on a tag that is not a first-order value's,
/// and any other [`CodecError`] on truncated, malformed or too deeply
/// nested input — never a panic.
pub fn decode_value(r: &mut ByteReader<'_>) -> Result<Value, CodecError> {
    let mut memo = DecodeMemo {
        message: true,
        ..DecodeMemo::default()
    };
    decode(r, &mut memo, 0)
}

/// Encodes a single value in the session form.
#[must_use]
pub fn value_to_bytes(v: &Value) -> Vec<u8> {
    let mut out = Vec::new();
    encode(&mut out, v, &mut EncodeMemo::default(), 0).expect("the session form refuses nothing");
    out
}

/// Decodes a single value in the session form.
///
/// # Errors
///
/// [`CodecError`] on any malformed input; never panics.
pub fn value_from_bytes(bytes: &[u8]) -> Result<Value, CodecError> {
    let mut r = ByteReader::new(bytes);
    let v = decode(&mut r, &mut DecodeMemo::default(), 0)?;
    r.finish()?;
    Ok(v)
}

/// Encodes an environment, preserving spine sharing among any
/// closures it contains.
#[must_use]
pub fn env_to_bytes(env: &Env) -> Vec<u8> {
    let mut out = Vec::new();
    encode_env(&mut out, env, &mut EncodeMemo::default(), 0)
        .expect("the session form refuses nothing");
    out
}

/// Decodes an environment. Every decode builds fresh cells.
///
/// # Errors
///
/// [`CodecError`] on any malformed input; never panics.
pub fn env_from_bytes(bytes: &[u8]) -> Result<Env, CodecError> {
    let mut r = ByteReader::new(bytes);
    let env = decode_env(&mut r, &mut DecodeMemo::default(), 0)?;
    r.finish()?;
    Ok(env)
}

/// Writes `v`, nested `depth` deep. Only the message form can fail.
fn encode(
    out: &mut Vec<u8>,
    v: &Value,
    memo: &mut EncodeMemo,
    depth: usize,
) -> Result<(), EvalError> {
    if memo.message && depth > MAX_DEPTH {
        return Err(EvalError::NotSerializable(format!(
            "<nested deeper than {MAX_DEPTH}>"
        )));
    }
    match v {
        Value::Int(n) => {
            out.push(T_INT);
            put_u64(out, *n as u64);
        }
        Value::Bool(b) => {
            out.push(T_BOOL);
            out.push(u8::from(*b));
        }
        Value::Unit => out.push(T_UNIT),
        Value::NoComm => out.push(T_NOCOMM),
        Value::Nil => out.push(T_NIL),
        Value::Pair(a, b) => {
            out.push(T_PAIR);
            encode(out, a, memo, depth + 1)?;
            encode(out, b, memo, depth + 1)?;
        }
        Value::Cons(..) => {
            // Write a list's spine in a loop: heads nest one level,
            // tails none.
            let mut cur = v;
            while let Value::Cons(h, t) = cur {
                out.push(T_CONS);
                encode(out, h, memo, depth + 1)?;
                cur = t;
            }
            encode(out, cur, memo, depth)?;
        }
        Value::Inl(inner) => {
            out.push(T_INL);
            encode(out, inner, memo, depth + 1)?;
        }
        Value::Inr(inner) => {
            out.push(T_INR);
            encode(out, inner, memo, depth + 1)?;
        }
        Value::Vector(vs) => {
            out.push(T_VECTOR);
            put_u64(out, vs.len() as u64);
            for c in vs.iter() {
                encode(out, c, memo, depth + 1)?;
            }
        }
        // Everything below is session state, not a message.
        _ if memo.message => return Err(EvalError::NotSerializable(v.to_string())),
        Value::Prim(op) => {
            out.push(T_PRIM);
            let idx = Op::ALL
                .iter()
                .position(|o| o == op)
                .expect("every Op appears in Op::ALL");
            out.push(idx as u8);
        }
        Value::MsgTable(t) => {
            out.push(T_MSGTABLE);
            put_u64(out, t.len() as u64);
            for c in t.iter() {
                encode(out, c, memo, depth + 1)?;
            }
        }
        Value::Fix(inner) => {
            out.push(T_FIX);
            encode(out, inner, memo, depth + 1)?;
        }
        Value::Closure { param, body, env } => {
            if let Some(id) = memo.code.get(&Arc::as_ptr(body)) {
                out.push(T_CLOSURE_SHARED);
                put_str(out, param.as_str());
                put_u64(out, *id);
            } else {
                memo.code.insert(Arc::as_ptr(body), memo.code.len() as u64);
                out.push(T_CLOSURE_CODE);
                put_str(out, param.as_str());
                put_str(out, &body.to_string());
            }
            encode_env(out, env, memo, depth + 1)?;
        }
        Value::Cell { cell, origin } => {
            let key = Rc::as_ptr(cell) as usize;
            if let Some(id) = memo.cells.get(&key) {
                // The origin tag lives on each occurrence: every alias
                // keeps its own.
                out.push(T_CELL_REF);
                put_u64(out, *id);
                encode_mode(out, *origin);
                return Ok(());
            }
            let id = memo.cells.len() as u64;
            // Register before descending so a cyclic cell hits the
            // back-reference instead of recursing forever.
            memo.cells.insert(key, id);
            out.push(T_CELL_DEF);
            put_u64(out, id);
            encode_mode(out, *origin);
            encode(out, &cell.borrow(), memo, depth + 1)?;
        }
    }
    Ok(())
}

fn encode_env(
    out: &mut Vec<u8>,
    env: &Env,
    memo: &mut EncodeMemo,
    depth: usize,
) -> Result<(), EvalError> {
    // The nodes not written yet, innermost first, down to a written one.
    let mut fresh = Vec::new();
    let mut cur = env.clone();
    let base = loop {
        let Some((.., tail, key)) = cur.spine_head() else {
            break 0;
        };
        if let Some(id) = memo.nodes.get(&key) {
            break id + 1;
        }
        fresh.push(std::mem::replace(&mut cur, tail));
    };
    if base == 0 && fresh.is_empty() {
        out.push(E_EMPTY);
        return Ok(());
    }
    out.push(E_SPINE);
    put_u64(out, base);
    put_u64(out, fresh.len() as u64);
    for node in fresh.iter().rev() {
        let (name, value, _, key) = node.spine_head().expect("a fresh node is not empty");
        put_str(out, name.as_str());
        encode(out, value, memo, depth + 1)?;
        memo.nodes.insert(key, memo.nodes_written);
        memo.nodes_written += 1;
    }
    Ok(())
}

fn encode_mode(out: &mut Vec<u8>, mode: Mode) {
    match mode {
        Mode::Global => out.push(M_GLOBAL),
        Mode::OnProc(i) => {
            out.push(M_ON_PROC);
            put_u64(out, i as u64);
        }
    }
}

fn decode(
    r: &mut ByteReader<'_>,
    memo: &mut DecodeMemo,
    depth: usize,
) -> Result<Value, CodecError> {
    if depth > MAX_DEPTH {
        return Err(CodecError::TooDeep);
    }
    let mut tag = r.u8()?;
    // Read a list's spine in a loop: heads nest one level, tails none.
    let mut heads = Vec::new();
    while tag == T_CONS {
        heads.push(decode(r, memo, depth + 1)?);
        tag = r.u8()?;
    }
    let last = decode_tagged(r, tag, memo, depth)?;
    Ok(heads
        .into_iter()
        .rev()
        .fold(last, |tail, head| Value::Cons(Rc::new(head), Rc::new(tail))))
}

fn decode_tagged(
    r: &mut ByteReader<'_>,
    tag: u8,
    memo: &mut DecodeMemo,
    depth: usize,
) -> Result<Value, CodecError> {
    match tag {
        T_INT => Ok(Value::Int(r.i64()?)),
        T_BOOL => Ok(Value::Bool(r.u8()? != 0)),
        T_UNIT => Ok(Value::Unit),
        T_NOCOMM => Ok(Value::NoComm),
        T_NIL => Ok(Value::Nil),
        T_PAIR => Ok(Value::Pair(
            Rc::new(decode(r, memo, depth + 1)?),
            Rc::new(decode(r, memo, depth + 1)?),
        )),
        T_INL => Ok(Value::Inl(Rc::new(decode(r, memo, depth + 1)?))),
        T_INR => Ok(Value::Inr(Rc::new(decode(r, memo, depth + 1)?))),
        T_VECTOR => {
            let n = r.count()?;
            let mut vs = Vec::with_capacity(n);
            for _ in 0..n {
                vs.push(decode(r, memo, depth + 1)?);
            }
            Ok(Value::vector(vs))
        }
        // Everything below is session state, not a message.
        _ if memo.message => Err(CodecError::BadTag { what: "value", tag }),
        T_PRIM => {
            let idx = r.u8()? as usize;
            Op::ALL
                .get(idx)
                .map(|op| Value::Prim(*op))
                .ok_or(CodecError::BadTag {
                    what: "primitive",
                    tag: idx as u8,
                })
        }
        T_MSGTABLE => {
            let n = r.count()?;
            let mut vs = Vec::with_capacity(n);
            for _ in 0..n {
                vs.push(decode(r, memo, depth + 1)?);
            }
            Ok(Value::MsgTable(Rc::new(vs)))
        }
        T_FIX => Ok(Value::Fix(Rc::new(decode(r, memo, depth + 1)?))),
        T_CLOSURE | T_CLOSURE_CODE | T_CLOSURE_SHARED => {
            let param = r.str()?;
            let body = if tag == T_CLOSURE_SHARED {
                nth(&memo.code, r.u64()?)?
            } else {
                let source = r.str()?;
                let body = bsml_syntax::parse(&source)
                    .map_err(|e| CodecError::Unparsable(e.to_string()))?;
                Arc::new(body)
            };
            if tag == T_CLOSURE_CODE {
                memo.code.push(Arc::clone(&body));
            }
            let env = decode_env(r, memo, depth + 1)?;
            Ok(Value::Closure {
                param: Ident::new(&param),
                body,
                env,
            })
        }
        T_CELL_DEF => {
            let id = r.u64()?;
            let origin = decode_mode(r)?;
            // Placeholder first, so a knot tied through the cell
            // back-references it; patch the contents in afterwards.
            let cell = Rc::new(RefCell::new(Value::Unit));
            memo.cells.insert(id, Rc::clone(&cell));
            let contents = decode(r, memo, depth + 1)?;
            *cell.borrow_mut() = contents;
            Ok(Value::Cell { cell, origin })
        }
        T_CELL_REF => {
            let id = r.u64()?;
            let origin = decode_mode(r)?;
            let cell = memo.cells.get(&id).ok_or(CodecError::DanglingRef(id))?;
            Ok(Value::Cell {
                cell: Rc::clone(cell),
                origin,
            })
        }
        other => Err(CodecError::BadTag {
            what: "value",
            tag: other,
        }),
    }
}

fn decode_env(
    r: &mut ByteReader<'_>,
    memo: &mut DecodeMemo,
    depth: usize,
) -> Result<Env, CodecError> {
    if depth > MAX_DEPTH {
        return Err(CodecError::TooDeep);
    }
    // v1 frames come innermost first, until the spine terminates.
    let mut frames: Vec<(u64, String, Value)> = Vec::new();
    let base = loop {
        match r.u8()? {
            E_EMPTY => break Env::new(),
            E_TAIL_REF => {
                let id = r.u64()?;
                break memo
                    .envs
                    .get(&id)
                    .cloned()
                    .ok_or(CodecError::DanglingRef(id))?;
            }
            E_BINDING => {
                let id = r.u64()?;
                let name = r.str()?;
                let value = decode(r, memo, depth + 1)?;
                frames.push((id, name, value));
            }
            E_SPINE if frames.is_empty() => {
                let mut env = match r.u64()? {
                    0 => Env::new(),
                    base => nth(&memo.nodes, base - 1)?,
                };
                for _ in 0..r.count()? {
                    let name = r.str()?;
                    let value = decode(r, memo, depth + 1)?;
                    env = env.bind(Ident::new(&name), value);
                    memo.nodes.push(env.clone());
                }
                return Ok(env);
            }
            other => {
                return Err(CodecError::BadTag {
                    what: "environment frame",
                    tag: other,
                })
            }
        }
    };
    // Rebind outermost-first; each bind recreates the node whose id
    // the encoder assigned, so later TailRefs resolve to it.
    let mut env = base;
    for (id, name, value) in frames.into_iter().rev() {
        env = env.bind(Ident::new(&name), value);
        memo.envs.insert(id, env.clone());
    }
    Ok(env)
}

/// The `id`-th entry of a decoder table.
fn nth<T: Clone>(table: &[T], id: u64) -> Result<T, CodecError> {
    let entry = usize::try_from(id).ok().and_then(|i| table.get(i));
    entry.cloned().ok_or(CodecError::DanglingRef(id))
}

fn decode_mode(r: &mut ByteReader<'_>) -> Result<Mode, CodecError> {
    match r.u8()? {
        M_GLOBAL => Ok(Mode::Global),
        M_ON_PROC => Ok(Mode::OnProc(r.u64()? as usize)),
        other => Err(CodecError::BadTag {
            what: "mode",
            tag: other,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Value) -> Value {
        value_from_bytes(&value_to_bytes(v)).expect("roundtrip")
    }

    #[test]
    fn first_order_values_roundtrip() {
        for v in [
            Value::Int(-7),
            Value::Bool(true),
            Value::Unit,
            Value::NoComm,
            Value::Nil,
            Value::pair(Value::Int(1), Value::Bool(false)),
            Value::list([Value::Int(1), Value::Int(2), Value::Int(3)]),
            Value::Inl(Rc::new(Value::Unit)),
            Value::Inr(Rc::new(Value::Int(9))),
            Value::vector(vec![Value::Int(1), Value::Int(2)]),
        ] {
            assert_eq!(roundtrip(&v).to_string(), v.to_string());
        }
    }

    #[test]
    fn every_primitive_roundtrips() {
        for op in Op::ALL {
            let Value::Prim(back) = roundtrip(&Value::Prim(op)) else {
                panic!("expected a primitive");
            };
            assert_eq!(back, op);
        }
    }

    #[test]
    fn closures_roundtrip_by_reparse() {
        let body = bsml_syntax::parse("x + y").unwrap();
        let v = Value::Closure {
            param: Ident::new("x"),
            body: Arc::new(body),
            env: Env::new().bind(Ident::new("y"), Value::Int(41)),
        };
        let Value::Closure { param, body, env } = roundtrip(&v) else {
            panic!("expected a closure");
        };
        assert_eq!(param.as_str(), "x");
        assert_eq!(body.to_string(), "x + y");
        assert_eq!(env.lookup(&Ident::new("y")).unwrap().to_string(), "41");
    }

    #[test]
    fn cell_aliasing_survives_the_bytes() {
        let shared = Value::cell(Value::Int(7), Mode::Global);
        let v = Value::pair(shared.clone(), shared);
        let Value::Pair(a, b) = roundtrip(&v) else {
            panic!("expected a pair");
        };
        let (Value::Cell { cell: ca, .. }, Value::Cell { cell: cb, .. }) = (&*a, &*b) else {
            panic!("expected cells");
        };
        assert!(Rc::ptr_eq(ca, cb), "aliases must stay aliases");
        *ca.borrow_mut() = Value::Int(99);
        assert_eq!(cb.borrow().to_string(), "99");
    }

    #[test]
    fn cyclic_cells_roundtrip() {
        // let r = ref (fun x -> x) in r := (fun y -> !r y) — the cell
        // contents capture the cell.
        let cell = Value::cell(Value::Unit, Mode::Global);
        let closure = Value::Closure {
            param: Ident::new("x"),
            body: Arc::new(bsml_ast::build::var("x")),
            env: Env::new().bind(Ident::new("r"), cell.clone()),
        };
        let Value::Cell { cell: rc, .. } = &cell else {
            unreachable!()
        };
        *rc.borrow_mut() = closure;
        let back = roundtrip(&cell);
        let Value::Cell { cell: fresh, .. } = &back else {
            panic!("expected a cell");
        };
        let contents = fresh.borrow();
        let Value::Closure { env, .. } = &*contents else {
            panic!("expected the closure");
        };
        let Some(Value::Cell { cell: inner, .. }) = env.lookup(&Ident::new("r")) else {
            panic!("expected the captured cell");
        };
        assert!(Rc::ptr_eq(fresh, inner), "knot must close onto the copy");
    }

    #[test]
    fn env_spine_sharing_is_linear_and_rebuilt() {
        // A toplevel env with closures capturing suffixes: the shared
        // spine must encode once and decode back into shared nodes.
        let base = Env::new()
            .bind(Ident::new("a"), Value::Int(1))
            .bind(Ident::new("b"), Value::Int(2));
        let clos = |env: &Env| Value::Closure {
            param: Ident::new("x"),
            body: Arc::new(bsml_ast::build::var("x")),
            env: env.clone(),
        };
        let env = base
            .bind(Ident::new("f"), clos(&base))
            .bind(Ident::new("g"), clos(&base));
        let bytes = env_to_bytes(&env);
        let back = env_from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), 4);
        assert_eq!(back.lookup(&Ident::new("a")).unwrap().to_string(), "1");
        // Sharing check: f's and g's captured envs are the same nodes.
        let (Some(Value::Closure { env: ef, .. }), Some(Value::Closure { env: eg, .. })) =
            (back.lookup(&Ident::new("f")), back.lookup(&Ident::new("g")))
        else {
            panic!("expected closures");
        };
        let (pf, pg) = match (ef.spine_head(), eg.spine_head()) {
            (Some((.., a)), Some((.., b))) => (a, b),
            _ => panic!("expected non-empty captured envs"),
        };
        assert_eq!(pf, pg, "captured spines must share nodes after decode");
        // And the encoding is linear: a second closure over the same
        // spine costs a back-reference, not a re-encoding.
        let one = env_to_bytes(&base.bind(Ident::new("f"), clos(&base)));
        assert!(bytes.len() < one.len() + one.len() / 2);
    }

    #[test]
    fn snapshot_roundtrips() {
        let env = Env::new()
            .bind(Ident::new("x"), Value::Int(1))
            .bind(Ident::new("x"), Value::Int(2)); // shadowing kept
        let back = env_from_bytes(&env_to_bytes(&env)).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.lookup(&Ident::new("x")).unwrap().to_string(), "2");
    }

    #[test]
    fn a_live_cell_cycle_roundtrips_without_a_copy() {
        // One binding `r` to a cell that holds a closure over `r`: the
        // closure's environment is the very node being written.
        let cell = Value::cell(Value::Unit, Mode::Global);
        let env = Env::new().bind(Ident::new("r"), cell.clone());
        let Value::Cell { cell: rc, .. } = &cell else {
            unreachable!()
        };
        *rc.borrow_mut() = Value::Closure {
            param: Ident::new("y"),
            body: Arc::new(bsml_syntax::parse("!r y").unwrap()),
            env: env.clone(),
        };
        let back = env_from_bytes(&env_to_bytes(&env)).expect("a live cycle decodes");
        let Some(Value::Cell { cell: fresh, .. }) = back.lookup(&Ident::new("r")) else {
            panic!("expected a cell");
        };
        let contents = fresh.borrow();
        let Value::Closure { env: captured, .. } = &*contents else {
            panic!("expected the closure");
        };
        let Some(Value::Cell { cell: inner, .. }) = captured.lookup(&Ident::new("r")) else {
            panic!("expected the captured cell");
        };
        assert!(
            Rc::ptr_eq(fresh, inner),
            "knot must close onto the decoded cell"
        );
        assert!(!Rc::ptr_eq(rc, fresh), "decoding builds a fresh cell");
    }

    #[test]
    fn closure_code_is_written_once_and_shared_on_decode() {
        let source = "if x = 0 then y else x + y * 2";
        let body = Arc::new(bsml_syntax::parse(source).unwrap());
        let base = Env::new().bind(Ident::new("y"), Value::Int(1));
        let env = (0..100).fold(base.clone(), |env, i| {
            let closure = Value::Closure {
                param: Ident::new("x"),
                body: Arc::clone(&body),
                env: base.clone(),
            };
            env.bind(Ident::new(format!("f{i}")), closure)
        });
        let bytes = env_to_bytes(&env);
        let text = body.to_string();
        let occurrences = bytes
            .windows(text.len())
            .filter(|w| *w == text.as_bytes())
            .count();
        assert_eq!(occurrences, 1, "the body's source is written once");
        let back = env_from_bytes(&bytes).unwrap();
        let bodies: Vec<Arc<Expr>> = back
            .iter()
            .filter_map(|(_, v)| match v {
                Value::Closure { body, .. } => Some(Arc::clone(body)),
                _ => None,
            })
            .collect();
        assert_eq!(bodies.len(), 100);
        assert!(bodies.iter().all(|b| Arc::ptr_eq(b, &bodies[0])));
        assert_eq!(bodies[0].to_string(), text);
    }

    #[test]
    fn malformed_inputs_are_typed_errors_not_panics() {
        let good = value_to_bytes(&Value::pair(
            Value::cell(Value::Int(5), Mode::OnProc(2)),
            Value::list([Value::Int(1), Value::Int(2)]),
        ));
        // Truncation at every boundary.
        for cut in 0..good.len() {
            assert!(value_from_bytes(&good[..cut]).is_err());
        }
        // Every single-bit flip either decodes to something or errors;
        // never panics.
        for byte in 0..good.len() {
            for bit in 0..8 {
                let mut bad = good.clone();
                bad[byte] ^= 1 << bit;
                let _ = value_from_bytes(&bad);
            }
        }
        // A dangling back-reference is typed.
        let mut bad = vec![T_CELL_REF];
        put_u64(&mut bad, 42);
        bad.push(M_GLOBAL);
        assert!(matches!(
            value_from_bytes(&bad),
            Err(CodecError::DanglingRef(42))
        ));
    }

    #[test]
    fn deep_nesting_is_bounded_not_a_stack_overflow() {
        // 1 MiB of Inl tags: the decoder must refuse, not crash.
        let bytes = vec![T_INL; 1 << 20];
        assert!(matches!(value_from_bytes(&bytes), Err(CodecError::TooDeep)));
    }
}
