//! The session format behind [`SessionSnapshot`] — the only copy of a
//! session: what `restore` decodes, and the durable form a tenant
//! session takes in the server's write-ahead log.
//!
//! The value half rides on [`bsml_eval::persist`] (which preserves
//! cell aliasing, cycles, environment-spine sharing and shared closure
//! code); this module adds the typing environment (schemes over the
//! paper's constrained types) and the cumulative cost, framed behind a
//! magic number and a version byte so stale or foreign files are
//! recognized instead of misread. Version 2 writes the value
//! environment with a flat spine and each closure body once; version 1
//! bytes still decode, through the same decoder.
//!
//! Decoding is total: malformed bytes yield a typed
//! [`CodecError`], never a panic — the same guarantee the WAL's
//! fault-injection grid exercises end to end.

use bsml_bsp::CostSummary;
use bsml_eval::bytes::{put_str, put_u64, ByteReader, CodecError};
use bsml_eval::persist::{env_from_bytes, env_to_bytes};
use bsml_eval::Env;
use bsml_infer::TypeEnv;
use bsml_types::{Constraint, Scheme, TyVar, Type};

use crate::session::SessionSnapshot;

/// `b"BSMLSNAP"` as a little-endian u64: the file-format magic.
const SNAP_MAGIC: u64 = u64::from_le_bytes(*b"BSMLSNAP");

/// Format version; bump on any layout change. Decoding also accepts 1.
const SNAP_VERSION: u8 = 2;

/// Nesting bound for type/constraint decoding — schemes are shallow;
/// corrupt input must not overflow the stack.
const MAX_TYPE_DEPTH: usize = 200;

// Type tags.
const TY_INT: u8 = 0;
const TY_BOOL: u8 = 1;
const TY_UNIT: u8 = 2;
const TY_VAR: u8 = 3;
const TY_ARROW: u8 = 4;
const TY_PAIR: u8 = 5;
const TY_PAR: u8 = 6;
const TY_SUM: u8 = 7;
const TY_LIST: u8 = 8;
const TY_REF: u8 = 9;

// Constraint tags.
const C_TRUE: u8 = 0;
const C_FALSE: u8 = 1;
const C_LOC: u8 = 2;
const C_AND: u8 = 3;
const C_IMPLIES: u8 = 4;

impl SessionSnapshot {
    /// The snapshot's bytes: magic, version, typing environment, value
    /// bindings, cumulative cost.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        self.bytes.clone()
    }

    /// Accepts bytes as a snapshot once they decode in full.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on any malformed input (wrong magic, unknown
    /// version, torn or corrupted bytes); never panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<SessionSnapshot, CodecError> {
        let (_, venv, _) = decode(bytes)?;
        Ok(SessionSnapshot {
            bytes: bytes.to_vec(),
            len: venv.len(),
        })
    }
}

/// Encodes a session's state in the current format.
pub(crate) fn encode(tenv: &TypeEnv, venv: &Env, total: &CostSummary) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, SNAP_MAGIC);
    out.push(SNAP_VERSION);
    let names: Vec<_> = tenv.domain().collect();
    put_u64(&mut out, names.len() as u64);
    for name in names {
        let scheme = tenv.lookup(name).expect("name came from the domain");
        put_str(&mut out, name.as_str());
        encode_scheme(&mut out, scheme);
    }
    let value_bytes = env_to_bytes(venv);
    put_u64(&mut out, value_bytes.len() as u64);
    out.extend_from_slice(&value_bytes);
    put_u64(&mut out, total.work);
    put_u64(&mut out, total.h_relation);
    put_u64(&mut out, total.supersteps);
    out
}

/// Decodes a session's state from bytes of either version.
pub(crate) fn decode(bytes: &[u8]) -> Result<(TypeEnv, Env, CostSummary), CodecError> {
    let mut r = ByteReader::new(bytes);
    if r.u64()? != SNAP_MAGIC {
        return Err(CodecError::BadTag {
            what: "snapshot magic",
            tag: bytes.first().copied().unwrap_or(0),
        });
    }
    let version = r.u8()?;
    if !(1..=SNAP_VERSION).contains(&version) {
        return Err(CodecError::BadTag {
            what: "snapshot version",
            tag: version,
        });
    }
    let n = r.count()?;
    let mut tenv = TypeEnv::new();
    for _ in 0..n {
        let name = r.str()?;
        let scheme = decode_scheme(&mut r)?;
        tenv.insert(bsml_ast::Ident::new(&name), scheme);
    }
    let value_len = r.count()?;
    let venv = env_from_bytes(r.take(value_len)?)?;
    let total = CostSummary {
        work: r.u64()?,
        h_relation: r.u64()?,
        supersteps: r.u64()?,
    };
    r.finish()?;
    Ok((tenv, venv, total))
}

fn encode_scheme(out: &mut Vec<u8>, scheme: &Scheme) {
    put_u64(out, scheme.quantified().len() as u64);
    for v in scheme.quantified() {
        put_u64(out, u64::from(v.0));
    }
    encode_type(out, scheme.ty());
    encode_constraint(out, scheme.constraint());
}

fn decode_scheme(r: &mut ByteReader<'_>) -> Result<Scheme, CodecError> {
    let n = r.u64()?;
    // Each quantified var costs 8 bytes; bound before allocating.
    if n > (r.remaining() / 8) as u64 {
        return Err(CodecError::BadCount);
    }
    let mut vars = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let raw = r.u64()?;
        let v = u32::try_from(raw).map_err(|_| CodecError::BadCount)?;
        vars.push(TyVar(v));
    }
    let ty = decode_type(r, 0)?;
    let constraint = decode_constraint(r, 0)?;
    Ok(Scheme::new(vars, ty, constraint))
}

fn encode_type(out: &mut Vec<u8>, ty: &Type) {
    match ty {
        Type::Int => out.push(TY_INT),
        Type::Bool => out.push(TY_BOOL),
        Type::Unit => out.push(TY_UNIT),
        Type::Var(v) => {
            out.push(TY_VAR);
            put_u64(out, u64::from(v.0));
        }
        Type::Arrow(a, b) => {
            out.push(TY_ARROW);
            encode_type(out, a);
            encode_type(out, b);
        }
        Type::Pair(a, b) => {
            out.push(TY_PAIR);
            encode_type(out, a);
            encode_type(out, b);
        }
        Type::Par(t) => {
            out.push(TY_PAR);
            encode_type(out, t);
        }
        Type::Sum(a, b) => {
            out.push(TY_SUM);
            encode_type(out, a);
            encode_type(out, b);
        }
        Type::List(t) => {
            out.push(TY_LIST);
            encode_type(out, t);
        }
        Type::Ref(t) => {
            out.push(TY_REF);
            encode_type(out, t);
        }
    }
}

fn decode_type(r: &mut ByteReader<'_>, depth: usize) -> Result<Type, CodecError> {
    if depth > MAX_TYPE_DEPTH {
        return Err(CodecError::TooDeep);
    }
    match r.u8()? {
        TY_INT => Ok(Type::Int),
        TY_BOOL => Ok(Type::Bool),
        TY_UNIT => Ok(Type::Unit),
        TY_VAR => {
            let raw = r.u64()?;
            let v = u32::try_from(raw).map_err(|_| CodecError::BadCount)?;
            Ok(Type::Var(TyVar(v)))
        }
        TY_ARROW => Ok(Type::Arrow(
            Box::new(decode_type(r, depth + 1)?),
            Box::new(decode_type(r, depth + 1)?),
        )),
        TY_PAIR => Ok(Type::Pair(
            Box::new(decode_type(r, depth + 1)?),
            Box::new(decode_type(r, depth + 1)?),
        )),
        TY_PAR => Ok(Type::Par(Box::new(decode_type(r, depth + 1)?))),
        TY_SUM => Ok(Type::Sum(
            Box::new(decode_type(r, depth + 1)?),
            Box::new(decode_type(r, depth + 1)?),
        )),
        TY_LIST => Ok(Type::List(Box::new(decode_type(r, depth + 1)?))),
        TY_REF => Ok(Type::Ref(Box::new(decode_type(r, depth + 1)?))),
        other => Err(CodecError::BadTag {
            what: "type",
            tag: other,
        }),
    }
}

fn encode_constraint(out: &mut Vec<u8>, c: &Constraint) {
    match c {
        Constraint::True => out.push(C_TRUE),
        Constraint::False => out.push(C_FALSE),
        Constraint::Loc(ty) => {
            out.push(C_LOC);
            encode_type(out, ty);
        }
        Constraint::And(a, b) => {
            out.push(C_AND);
            encode_constraint(out, a);
            encode_constraint(out, b);
        }
        Constraint::Implies(a, b) => {
            out.push(C_IMPLIES);
            encode_constraint(out, a);
            encode_constraint(out, b);
        }
    }
}

fn decode_constraint(r: &mut ByteReader<'_>, depth: usize) -> Result<Constraint, CodecError> {
    if depth > MAX_TYPE_DEPTH {
        return Err(CodecError::TooDeep);
    }
    match r.u8()? {
        C_TRUE => Ok(Constraint::True),
        C_FALSE => Ok(Constraint::False),
        C_LOC => Ok(Constraint::Loc(decode_type(r, depth + 1)?)),
        C_AND => Ok(Constraint::And(
            Box::new(decode_constraint(r, depth + 1)?),
            Box::new(decode_constraint(r, depth + 1)?),
        )),
        C_IMPLIES => Ok(Constraint::Implies(
            Box::new(decode_constraint(r, depth + 1)?),
            Box::new(decode_constraint(r, depth + 1)?),
        )),
        other => Err(CodecError::BadTag {
            what: "constraint",
            tag: other,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use bsml_bsp::BspParams;

    fn loaded_session() -> Session {
        let mut s = Session::new(BspParams::new(4, 10, 100));
        s.load(
            "let x = 20 ;; \
             let id y = y ;; \
             let c = ref 5 ;; \
             let v = mkpar (fun i -> i)",
        )
        .unwrap();
        s
    }

    #[test]
    fn snapshot_roundtrips_bit_identically() {
        let s = loaded_session();
        let snap = s.snapshot();
        let bytes = snap.to_bytes();
        let back = SessionSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), snap.len());
        // Re-encoding the decoded snapshot reproduces the bytes: the
        // codec is deterministic and self-consistent.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn restored_session_renders_identically() {
        let s = loaded_session();
        let bytes = s.snapshot().to_bytes();
        let snap = SessionSnapshot::from_bytes(&bytes).unwrap();
        let mut fresh = Session::new(BspParams::new(4, 10, 100));
        fresh.restore(&snap).unwrap();
        assert_eq!(fresh.render_bindings(), s.render_bindings());
        assert_eq!(fresh.total_cost(), s.total_cost());
        // The restored session is live: polymorphic bindings still
        // instantiate, cells still assign.
        let mut fresh2 = fresh.clone();
        let ev = fresh2.load("(id 1, id true)").unwrap();
        assert_eq!(ev[0].value().unwrap().to_string(), "(1, true)");
        fresh2.load("c := !c + 1").unwrap();
        let ev = fresh2.load("!c").unwrap();
        assert_eq!(ev[0].value().unwrap().to_string(), "6");
    }

    #[test]
    fn render_bindings_is_sorted_and_stable() {
        let mut s = Session::new(BspParams::new(2, 1, 10));
        s.load("let zeta = 1 ;; let alpha = 2").unwrap();
        let shown = s.render_bindings();
        let alpha = shown.find("alpha").unwrap();
        let zeta = shown.find("zeta").unwrap();
        assert!(alpha < zeta, "bindings must render sorted:\n{shown}");
        assert_eq!(shown, s.render_bindings());
    }

    #[test]
    fn malformed_snapshot_bytes_are_typed_errors() {
        let s = loaded_session();
        let good = s.snapshot().to_bytes();
        // Wrong magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(SessionSnapshot::from_bytes(&bad).is_err());
        // Truncation at every boundary.
        for cut in 0..good.len() {
            assert!(SessionSnapshot::from_bytes(&good[..cut]).is_err());
        }
        // Single-bit flips never panic.
        for byte in 0..good.len() {
            let mut bad = good.clone();
            bad[byte] ^= 1;
            let _ = SessionSnapshot::from_bytes(&bad);
        }
    }
}
