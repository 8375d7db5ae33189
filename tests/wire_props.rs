//! Property tests for the wire protocol (DESIGN.md §10): the
//! [`PortableValue`] codec round-trips every value the evaluator can
//! serialize, frames round-trip with their headers intact, and the
//! decoder *rejects* — never panics on, never silently accepts — every
//! truncation and every single-bit corruption. The last property is
//! what the exchange's fail-fast check rests on: a frame damaged in
//! flight must be refused (so the run fails), not read as subtly
//! different data.

use bsml_bsp::wire::{decode_value, encode_value};
use bsml_bsp::{Frame, FramePayload};
use bsml_eval::{ByteReader, PortableValue};
use proptest::collection::vec;
use proptest::prelude::*;

fn portable_value() -> impl Strategy<Value = PortableValue> {
    let leaf = prop_oneof![
        any::<i64>().prop_map(PortableValue::Int),
        any::<bool>().prop_map(PortableValue::Bool),
        Just(PortableValue::Unit),
        Just(PortableValue::NoComm),
        Just(PortableValue::Nil),
    ];
    leaf.prop_recursive(4, 48, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| PortableValue::Pair(Box::new(a), Box::new(b))),
            inner.clone().prop_map(|v| PortableValue::Inl(Box::new(v))),
            inner.clone().prop_map(|v| PortableValue::Inr(Box::new(v))),
            (inner.clone(), inner.clone())
                .prop_map(|(h, t)| PortableValue::Cons(Box::new(h), Box::new(t))),
            vec(inner, 0..4).prop_map(PortableValue::Vector),
        ]
    })
}

fn frame() -> impl Strategy<Value = Frame> {
    let payload = prop_oneof![
        portable_value().prop_map(FramePayload::Put),
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
    fn values_roundtrip_and_consume_exactly(v in portable_value()) {
        let mut bytes = Vec::new();
        encode_value(&mut bytes, &v);
        let mut r = ByteReader::new(&bytes);
        let back = decode_value(&mut r).expect("self-encoded value decodes");
        prop_assert_eq!(back, v);
        prop_assert_eq!(r.remaining(), 0, "decoder left bytes behind");
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
