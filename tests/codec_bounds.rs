//! The nesting bound the value decoders share, and the snapshot sizes
//! it has to hold (DESIGN.md §10 and §15).
//!
//! * A list's spine does not count towards `bsml_eval::bytes::MAX_DEPTH`:
//!   a long list round-trips through every codec that carries values,
//!   and a durable tenant that binds one survives a restart.
//! * A hostile, correctly checksummed control frame nested deeper than
//!   the bound is refused with `CodecError::TooDeep`, not a stack
//!   overflow.
//! * A session snapshot shares the environment spine its closures
//!   capture, so it grows linearly with the definitions.
//! * The session format writes the spine flat, so a tenant with any
//!   number of toplevel functions compacts, and restarts from its
//!   snapshot without replaying a phrase.

use std::path::PathBuf;

use bsml_bsp::checkpoint::{RankFrame, SyncOutcome};
use bsml_bsp::wire::{read_ctl, CtlMsg, Frame, FramePayload};
use bsml_bsp::BspParams;
use bsml_core::{Session, SessionSnapshot};
use bsml_eval::bytes::{seal, CodecError, MAX_DEPTH};
use bsml_eval::persist::{encode_value, value_from_bytes, value_to_bytes};
use bsml_eval::Value;
use bsml_obs::Telemetry;
use bsml_serve::{Outcome, Server, ServerConfig};

fn machine() -> BspParams {
    BspParams::new(4, 2, 10)
}

fn encoded(v: &Value) -> Vec<u8> {
    let mut bytes = Vec::new();
    encode_value(&mut bytes, v).expect("a first-order value");
    bytes
}

fn encoded_list(n: i64) -> Vec<u8> {
    encoded(&Value::list((1..=n).map(Value::Int)))
}

fn rendered_list(n: i64) -> String {
    let items: Vec<String> = (1..=n).map(|i| i.to_string()).collect();
    format!("[{}]", items.join("; "))
}

/// Binds `xs` to the list `[1; …; n]` without a deep evaluator stack.
fn list_phrases(n: i64) -> [String; 2] {
    [
        "let rec range_acc acc n = if n = 0 then acc else range_acc (n :: acc) (n - 1)".to_string(),
        format!("let xs = range_acc [] {n}"),
    ]
}

#[test]
fn a_thousand_element_list_roundtrips_through_every_codec() {
    let n = 1000;
    assert!(n as usize > MAX_DEPTH);

    let value = Value::list((1..=n).map(Value::Int));
    let back = value_from_bytes(&value_to_bytes(&value)).expect("persist codec");
    assert_eq!(back.to_string(), rendered_list(n));

    let mut session = Session::new(machine());
    for phrase in list_phrases(n) {
        session.load(&phrase).expect("load");
    }
    let bytes = session.snapshot().to_bytes();
    let snap = SessionSnapshot::from_bytes(&bytes).expect("session snapshot");
    let mut restored = Session::new(machine());
    restored.restore(&snap).unwrap();
    assert_eq!(restored.render_bindings(), session.render_bindings());

    let frame = Frame {
        from: 1,
        superstep: 2,
        seq: 3,
        lamport: 4,
        payload: FramePayload::Put(encoded_list(n)),
    };
    assert_eq!(Frame::decode(&frame.encode()), Ok(frame));

    let rank_frame = RankFrame {
        fingerprint: 7,
        rank: 0,
        superstep: 1,
        fuel_left: 9,
        sent_words: 0,
        received_words: 0,
        puts: 1,
        ifats: 0,
        outcomes: vec![SyncOutcome::Put {
            delivered: vec![encoded_list(n), encoded(&Value::NoComm)],
        }],
    };
    assert_eq!(RankFrame::decode(&rank_frame.encode()), Ok(rank_frame));
}

/// A `Done` whose value is `depth` nested `Inl`s around `()`, sealed
/// like any control frame. Built as bytes: the value itself would
/// overflow the stack on drop.
fn nested_done_frame(depth: usize) -> Vec<u8> {
    const CTL_DONE: u8 = 11;
    const TAG_INL: u8 = 8;
    const TAG_UNIT: u8 = 2;
    let mut out = vec![0; 4];
    out.push(CTL_DONE);
    out.resize(out.len() + depth, TAG_INL);
    out.push(TAG_UNIT);
    // stats (5), work, ledger (4), flight_dropped, empty flight.
    out.resize(out.len() + 8 * 12, 0);
    let len = u32::try_from(out.len() - 4 + 8).expect("fits");
    out[..4].copy_from_slice(&len.to_le_bytes());
    seal(&mut out, 0);
    out
}

#[test]
fn a_deeply_nested_done_frame_is_refused_not_a_stack_overflow() {
    let bytes = nested_done_frame(1 << 20);
    assert_eq!(bytes.len(), 1_048_686);
    let outcome = std::thread::Builder::new()
        .stack_size(8 << 20)
        .spawn(move || {
            let decoded = CtlMsg::decode(&bytes).map(|_| ());
            let streamed = read_ctl(&mut &bytes[..]).map(|_| ()).map_err(|e| e.kind());
            (decoded, streamed)
        })
        .expect("spawn")
        .join()
        .expect("the decoder must return, not overflow the stack");
    assert_eq!(outcome.0, Err(CodecError::TooDeep));
    assert_eq!(outcome.1, Err(std::io::ErrorKind::InvalidData));
    // Just inside the bound the same frame decodes.
    assert!(CtlMsg::decode(&nested_done_frame(MAX_DEPTH)).is_ok());
}

#[test]
fn the_stdlib_session_snapshot_is_linear_and_restores() {
    let mut session = Session::new(machine());
    for def in bsml_std::combinators::ALL_DEFS {
        session.load(def).expect("stdlib definition loads");
    }
    let bytes = session.snapshot().to_bytes();
    assert!(
        bytes.len() < 16 * 1024,
        "{} bytes for 19 definitions",
        bytes.len()
    );
    let snap = SessionSnapshot::from_bytes(&bytes).expect("decodes");
    let mut restored = Session::new(machine());
    restored.restore(&snap).unwrap();
    assert_eq!(restored.render_bindings(), session.render_bindings());
    let mut again = Session::new(machine());
    again.restore(&session.snapshot()).unwrap();
    assert_eq!(again.render_bindings(), session.render_bindings());
}

#[test]
fn cells_that_capture_each_other_snapshot_and_restore() {
    // Two cells whose closures capture a spine holding both cells:
    // the snapshot must still decode, and the knots must stay tied.
    let mut session = Session::new(machine());
    session
        .load(
            "let r = ref (fun x -> x) ;; \
             let d = ref (fun x -> x) ;; \
             let z = 5 ;; \
             let tie_r = r := (fun y -> if y = 0 then z else (!d) (y - 1)) ;; \
             let tie_d = d := (fun y -> if y = 0 then 0 - z else (!r) (y - 1)) ;; \
             let f = fun y -> (!r) y + (!d) y",
        )
        .expect("load");
    let bytes = session.snapshot().to_bytes();
    let snap = SessionSnapshot::from_bytes(&bytes).expect("decodes");
    let mut restored = Session::new(machine());
    restored.restore(&snap).unwrap();
    assert_eq!(restored.render_bindings(), session.render_bindings());
    for s in [&mut session, &mut restored] {
        let ev = s.load("(f 3, f 4)").expect("runs");
        assert_eq!(ev[0].value().expect("value").to_string(), "(0, 0)");
        s.load("r := (fun y -> 42)").expect("assign");
        let ev = s.load("(f 0, (!d) 1)").expect("runs");
        assert_eq!(ev[0].value().expect("value").to_string(), "(37, 42)");
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bsml-bounds-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn submit_ok(server: &Server, tenant: &str, source: &str) -> Vec<String> {
    match server
        .submit(tenant, source)
        .expect("admitted")
        .wait()
        .outcome
    {
        Outcome::Done { rendered } => rendered,
        other => panic!("{source}: {other:?}"),
    }
}

#[test]
fn a_durable_tenant_binding_a_hundred_element_list_survives_restart() {
    let dir = temp_dir("list");
    let config = || ServerConfig::new(machine()).with_durable_dir(&dir);
    let server = Server::start(config(), Telemetry::disabled());
    for phrase in list_phrases(100) {
        submit_ok(&server, "lists", &phrase);
    }
    submit_ok(&server, "lists", "let k = 7");
    // The drain installs a snapshot and prunes the older generation.
    let _ = server.shutdown();

    let server = Server::start(config(), Telemetry::disabled());
    assert_eq!(server.tenants(), vec!["lists"]);
    assert_eq!(submit_ok(&server, "lists", "k"), vec!["- : int = 7"]);
    assert_eq!(
        submit_ok(&server, "lists", "xs"),
        vec![format!("- : int list = {}", rendered_list(100))]
    );
    let _ = server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_durable_tenant_with_sixty_functions_recovers_every_commit() {
    let dir = temp_dir("sixty");
    let config = || {
        ServerConfig::new(machine())
            .with_durable_dir(&dir)
            .with_snapshot_every(8)
    };
    let telemetry = Telemetry::enabled_logical();
    let server = Server::start(config(), telemetry.clone());
    submit_ok(&server, "funs", "let f0 x = x");
    for i in 1..60 {
        submit_ok(&server, "funs", &format!("let f{i} x = f{} x + 1", i - 1));
    }
    let _ = server.shutdown();
    // The spine is written flat, so every snapshot decodes and the
    // drain's snapshot holds every commit.
    assert!(telemetry.counter_value("server.compactions_skipped") == 0);

    let telemetry = Telemetry::enabled_logical();
    let server = Server::start(config(), telemetry.clone());
    assert_eq!(server.tenants(), vec!["funs"]);
    assert_eq!(telemetry.counter_value("server.recoveries"), 1);
    assert_eq!(telemetry.counter_value("server.replayed_phrases"), 0);
    assert_eq!(submit_ok(&server, "funs", "f59 1"), vec!["- : int = 60"]);
    let _ = server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_durable_tenant_with_two_hundred_functions_compacts_and_replays_nothing() {
    // Independent functions: a chain of 200 calls would overflow the
    // evaluator's stack on a debug build before it tested the format.
    let dir = temp_dir("two-hundred");
    let config = || {
        ServerConfig::new(machine())
            .with_durable_dir(&dir)
            .with_snapshot_every(8)
    };
    let telemetry = Telemetry::enabled_logical();
    let server = Server::start(config(), telemetry.clone());
    for i in 0..200 {
        submit_ok(&server, "funs", &format!("let f{i} x = x + {i}"));
    }
    let _ = server.shutdown();
    assert_eq!(telemetry.counter_value("server.compactions_skipped"), 0);

    let telemetry = Telemetry::enabled_logical();
    let server = Server::start(config(), telemetry.clone());
    assert_eq!(telemetry.counter_value("server.replayed_phrases"), 0);
    assert_eq!(submit_ok(&server, "funs", "f199 1"), vec!["- : int = 200"]);
    let _ = server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
