//! Property tests for the wire protocol (DESIGN.md §10): a message is
//! the session codec's encoding of a first-order value, byte for byte,
//! and round-trips; the message decoder refuses every tag only session
//! state has; frames round-trip with their headers intact, and the
//! decoder *rejects* — never panics on, never silently accepts — every
//! truncation and every single-bit corruption. The last property is
//! what the exchange's fail-fast check rests on: a frame damaged in
//! flight must be refused (so the run fails), not read as subtly
//! different data.

use std::collections::BTreeSet;
use std::rc::Rc;
use std::sync::Arc;

use bsml_ast::{Ident, Op};
use bsml_bsp::{Frame, FramePayload};
use bsml_eval::persist::{decode_value, encode_value, value_to_bytes};
use bsml_eval::{ByteReader, CodecError, Env, Mode, Value};
use proptest::collection::vec;
use proptest::prelude::*;

fn first_order_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        any::<i64>().prop_map(Value::Int),
        any::<bool>().prop_map(Value::Bool),
        Just(Value::Unit),
        Just(Value::NoComm),
        Just(Value::Nil),
    ];
    leaf.prop_recursive(4, 48, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Value::pair(a, b)),
            inner.clone().prop_map(|v| Value::Inl(Rc::new(v))),
            inner.clone().prop_map(|v| Value::Inr(Rc::new(v))),
            (inner.clone(), inner.clone()).prop_map(|(h, t)| Value::Cons(Rc::new(h), Rc::new(t))),
            vec(inner, 0..4).prop_map(Value::vector),
        ]
    })
}

fn encoded(v: &Value) -> Vec<u8> {
    let mut bytes = Vec::new();
    encode_value(&mut bytes, v).expect("a first-order value");
    bytes
}

/// The session encodings of the values a message may not hold, each
/// starting at the refused value's tag: a closure and a cell as first
/// met and as met again (a shared body, a back-reference), a
/// primitive, a fixpoint and a message table, each around `v`.
fn session_only_encodings(v: &Value, op: usize) -> Vec<Vec<u8>> {
    let closure = Value::Closure {
        param: Ident::new("x"),
        body: Arc::new(bsml_syntax::parse("x + y").expect("parses")),
        env: Env::new().bind(Ident::new("y"), v.clone()),
    };
    let cell = Value::cell(v.clone(), Mode::Global);
    let mut out = Vec::new();
    for shared in [closure, cell] {
        let first = value_to_bytes(&shared);
        let twice = value_to_bytes(&Value::pair(shared.clone(), shared));
        out.push(twice[1 + first.len()..].to_vec());
        out.push(first);
    }
    out.push(value_to_bytes(&Value::Prim(Op::ALL[op % Op::ALL.len()])));
    out.push(value_to_bytes(&Value::Fix(Rc::new(v.clone()))));
    out.push(value_to_bytes(&Value::MsgTable(Rc::new(vec![v.clone()]))));
    out
}

fn frame() -> impl Strategy<Value = Frame> {
    let payload = prop_oneof![
        first_order_value().prop_map(|v| FramePayload::Put(encoded(&v))),
        any::<bool>().prop_map(FramePayload::IfAt),
    ];
    (
        0usize..64,
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        payload,
    )
        .prop_map(|(from, superstep, seq, lamport, payload)| Frame {
            from,
            superstep,
            seq,
            lamport,
            payload,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn values_roundtrip_and_consume_exactly(v in first_order_value()) {
        let bytes = encoded(&v);
        let mut r = ByteReader::new(&bytes);
        let back = decode_value(&mut r).expect("self-encoded value decodes");
        prop_assert_eq!(back.try_eq(&v), Some(true));
        prop_assert_eq!(back.to_string(), v.to_string());
        prop_assert_eq!(r.remaining(), 0, "decoder left bytes behind");
    }

    #[test]
    fn a_message_is_its_session_encoding(v in first_order_value()) {
        prop_assert_eq!(encoded(&v), value_to_bytes(&v));
    }

    #[test]
    fn the_message_decoder_refuses_every_session_only_tag(
        v in first_order_value(),
        op in any::<usize>(),
    ) {
        let encodings = session_only_encodings(&v, op);
        let tags: BTreeSet<u8> = encodings.iter().map(|bytes| bytes[0]).collect();
        prop_assert_eq!(tags.len(), 7, "seven distinct session-only tags");
        for bytes in encodings {
            let got = decode_value(&mut ByteReader::new(&bytes)).map(|_| ());
            prop_assert_eq!(got, Err(CodecError::BadTag { what: "value", tag: bytes[0] }));
        }
    }

    #[test]
    fn frames_roundtrip(f in frame()) {
        let bytes = f.encode();
        let back = Frame::decode(&bytes).expect("self-encoded frame decodes");
        prop_assert_eq!(back, f);
    }

    #[test]
    fn every_truncation_is_rejected(f in frame()) {
        // A truncated frame must come back as a decode *error* — the
        // exchange then fails the run. No panic, no partial
        // acceptance, for any cut point including the empty slice.
        let bytes = f.encode();
        for cut in 0..bytes.len() {
            prop_assert!(
                Frame::decode(&bytes[..cut]).is_err(),
                "accepted a frame truncated to {cut} of {} bytes",
                bytes.len()
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected(f in frame(), flip in any::<usize>()) {
        // The FNV-1a trailer covers every preceding byte (length
        // prefix included), so any one-bit corruption — header,
        // payload, or the checksum itself — is caught.
        let bytes = f.encode();
        let bit = flip % (bytes.len() * 8);
        let mut damaged = bytes.clone();
        damaged[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(
            Frame::decode(&damaged).is_err(),
            "accepted a frame with bit {bit} flipped"
        );
    }

    #[test]
    fn corrupt_payloads_never_panic_the_decoder(junk in vec(any::<u8>(), 0..96)) {
        // Arbitrary bytes: decoding may fail (it almost always will),
        // but must return, not panic — the exchange loop runs it on
        // whatever the transport delivers.
        let _ = Frame::decode(&junk);
        let mut r = ByteReader::new(&junk);
        let _ = decode_value(&mut r);
    }
}
