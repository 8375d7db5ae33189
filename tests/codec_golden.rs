//! Byte-stability goldens for every persisted or transmitted format.
//!
//! For one fixed sample of each format this test pins the encoded
//! length and its FNV-1a hash. The numbers were recorded from the
//! encoders as they stood before the formats were moved onto the
//! shared `seal`/`open` framing, so a refactor of the byte layer
//! cannot change a byte on the wire or on disk without failing here.
//! The hash is a local FNV-1a ([`golden_hash`]), independent of the
//! code under test. Control protocol v3 re-recorded the rows it moved
//! on purpose: `ctl/hello` (the version), `ctl/fatal`, `ctl/done` and
//! `postmortem_bundle` (the ledger's backpressure field and the
//! backpressure flight event are gone), and the new
//! `ctl/send_counts` and `ctl/recv_counts`. Session format v2 (a flat
//! environment spine) re-recorded `session_snapshot/no_closures`.
//! Control protocol v4 writes messages in the session codec's tags
//! (`bsml_eval::persist`'s message form), which re-recorded the seven
//! rows that carry one or name the version: `frame/put`, `ctl/hello`,
//! `ctl/data`, `ctl/deliver`, `ctl/done`, `rank_frame` and
//! `checkpoint_generation_file` (also its new file magic). Every
//! length stayed the same. Control protocol v5 names the program's
//! fingerprint in `Welcome`, which re-recorded `ctl/hello` (the
//! version) and `ctl/welcome` (8 bytes longer).
//!
//! A second test holds a snapshot written by the old session codec
//! (three toplevel functions, format v1) as a hex constant: WAL
//! directories written before the change hold snapshots in that form,
//! so it must keep decoding to the same bindings.

use std::rc::Rc;
use std::time::Duration;

use bsml_bsp::checkpoint::{CheckpointStore, FileStore, RankFrame, SyncOutcome};
use bsml_bsp::postmortem::{FlightLog, PostmortemBundle, RankFlightLog};
use bsml_bsp::wire::{CtlLedger, CtlMsg, CtlStats, Frame, FramePayload};
use bsml_bsp::{BspParams, Fault, FaultKind};
use bsml_core::{Session, SessionSnapshot};
use bsml_eval::hooks::Mode;
use bsml_eval::persist::{encode_value, value_to_bytes};
use bsml_eval::{EvalError, Value};
use bsml_obs::{FlightEvent, TimedFlightEvent};
use bsml_serve::{frame_record, WalRecord};

/// (sample, encoded length, FNV-1a of the encoding).
const GOLDEN: &[(&str, usize, u64)] = &[
    ("frame/put", 69, 0x501557703fa35935),
    ("frame/ifat", 42, 0x82811d9141bc0c6d),
    ("ctl/hello", 49, 0x45295d39d1affd29),
    ("ctl/welcome", 235, 0xa334d71b80d98dc1),
    ("ctl/reject", 49, 0xeb23ff3bebf9827d),
    ("ctl/data", 98, 0x8983a11c7a1cc884),
    ("ctl/deliver", 90, 0x62c95f80c5ed19bc),
    ("ctl/send_counts", 61, 0x89a616f4d4c54acb),
    ("ctl/recv_counts", 61, 0xe7ce3029064368f8),
    ("ctl/staged", 24, 0x8b6c344d2fe4f0fb),
    ("ctl/poison", 13, 0x343b9cabd77555d3),
    ("ctl/fatal", 374, 0x6675a349eda05d3e),
    ("ctl/done", 228, 0x50ce8b812bd825ca),
    ("ctl/ping", 21, 0xcef155fc73512a94),
    ("ctl/pong", 21, 0xb6004a165e464f79),
    ("ctl/rejoin", 45, 0xcb78da6d8d486987),
    ("ctl/rejoin_ok", 21, 0x7690ddd86fc18c97),
    ("rank_frame", 136, 0xf1d1946adbfd7230),
    ("checkpoint_generation_file", 320, 0xcf60cdedbd665afc),
    ("postmortem_bundle", 623, 0x492495e65491b781),
    ("wal/header", 35, 0xcfee54837ae307ce),
    ("wal/snapshot", 38, 0x7846110afc872074),
    ("wal/commit", 42, 0x42576d577562b960),
    ("persist/aliased_cell", 63, 0xb92b9039606cc3a6),
    ("session_snapshot/no_closures", 365, 0x4a5beab5f71bf2b0),
];

/// 64-bit FNV-1a, written out here so the goldens do not depend on
/// the byte layer they pin.
fn golden_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn encoded(v: &Value) -> Vec<u8> {
    let mut bytes = Vec::new();
    encode_value(&mut bytes, v).expect("a first-order value");
    bytes
}

fn sample_value() -> Vec<u8> {
    encoded(&Value::pair(
        Value::Int(-42),
        Value::list([
            Value::Inl(Rc::new(Value::NoComm)),
            Value::vector(vec![Value::Bool(true), Value::Inr(Rc::new(Value::Unit))]),
        ]),
    ))
}

fn put_frame() -> Frame {
    Frame {
        from: 3,
        superstep: 11,
        seq: 207,
        lamport: 1009,
        payload: FramePayload::Put(sample_value()),
    }
}

fn flight() -> Vec<TimedFlightEvent> {
    [
        FlightEvent::FrameSent {
            to: 1,
            seq: 0,
            superstep: 0,
            bytes: 64,
        },
        FlightEvent::FrameReceived {
            from: 1,
            seq: 0,
            superstep: 0,
            sent_lamport: 2,
        },
        FlightEvent::CorruptRejected,
        FlightEvent::BarrierEnter { superstep: 0 },
        FlightEvent::BarrierExit { superstep: 0 },
        FlightEvent::SuperstepEnd {
            superstep: 0,
            work: 17,
            sent_words: 1,
            received_words: 1,
        },
        FlightEvent::CheckpointStaged { generation: 1 },
        FlightEvent::CheckpointCommitted { generation: 1 },
        FlightEvent::FaultFired {
            superstep: 1,
            kind: 2,
        },
        FlightEvent::LinkDown {
            rank: 1,
            superstep: 1,
        },
        FlightEvent::LinkUp {
            rank: 1,
            superstep: 1,
        },
    ]
    .into_iter()
    .enumerate()
    .map(|(i, event)| TimedFlightEvent {
        lamport: 3 * i as u64 + 1,
        event,
    })
    .collect()
}

fn ctl_msgs() -> Vec<(&'static str, CtlMsg)> {
    vec![
        ("ctl/hello", CtlMsg::hello(0xdead_beef, 3, 8)),
        (
            "ctl/welcome",
            CtlMsg::Welcome {
                program: "put (mkpar (fun i -> fun d -> i))".to_string(),
                fingerprint: 0x0123_4567_89ab_cdef,
                fuel: 1_000_000,
                barrier_timeout_ms: 30_000,
                checkpoint_interval: 2,
                flight_capacity: 4096,
                heartbeat_ms: 500,
                link_grace_ms: 5000,
                attempt: 1,
                faults: vec![
                    Fault {
                        kind: FaultKind::Crash {
                            rank: 1,
                            superstep: 3,
                        },
                        attempt: 0,
                    },
                    Fault {
                        kind: FaultKind::Panic {
                            rank: 2,
                            superstep: 1,
                        },
                        attempt: 1,
                    },
                    Fault {
                        kind: FaultKind::DropMessage {
                            from: 2,
                            to: 0,
                            superstep: 1,
                        },
                        attempt: 0,
                    },
                    Fault {
                        kind: FaultKind::Stall {
                            rank: 0,
                            superstep: 2,
                            delay: Duration::from_millis(7),
                        },
                        attempt: 2,
                    },
                ],
                resume_frame: Some(vec![1, 2, 3, 4]),
            },
        ),
        (
            "ctl/reject",
            CtlMsg::Reject {
                reason: "program fingerprint mismatch".to_string(),
            },
        ),
        (
            "ctl/data",
            CtlMsg::Data {
                dst: 5,
                frame: put_frame().encode(),
            },
        ),
        (
            "ctl/deliver",
            CtlMsg::Deliver {
                frame: put_frame().encode(),
            },
        ),
        (
            "ctl/send_counts",
            CtlMsg::SendCounts {
                superstep: 9,
                to: vec![1, 0, 1, 1],
            },
        ),
        (
            "ctl/recv_counts",
            CtlMsg::RecvCounts {
                superstep: 9,
                from: vec![0, 1, 0, 2],
            },
        ),
        (
            "ctl/staged",
            CtlMsg::Staged {
                frame: vec![9, 9, 9],
            },
        ),
        ("ctl/poison", CtlMsg::Poison),
        (
            "ctl/fatal",
            CtlMsg::Fatal {
                error: EvalError::TransportFailure {
                    rank: 2,
                    superstep: 4,
                    detail: "socket closed".to_string(),
                },
                ledger: CtlLedger {
                    faults_injected: 1,
                    barrier_timeouts: 2,
                    frames_sent: 12,
                    corrupt_frames: 3,
                },
                flight_dropped: 3,
                flight: flight(),
            },
        ),
        (
            "ctl/done",
            CtlMsg::Done {
                value: sample_value(),
                stats: CtlStats {
                    sent_words: 10,
                    received_words: 11,
                    supersteps: 5,
                    puts: 4,
                    ifats: 1,
                },
                work: 12_345,
                ledger: CtlLedger::default(),
                flight_dropped: 0,
                flight: flight()[..3].to_vec(),
            },
        ),
        ("ctl/ping", CtlMsg::Ping { lamport: 99 }),
        ("ctl/pong", CtlMsg::Pong { lamport: 100 }),
        (
            "ctl/rejoin",
            CtlMsg::Rejoin {
                rank: 3,
                fingerprint: 0xdead_beef,
                completed_superstep: 7,
                resume_token: 31,
            },
        ),
        ("ctl/rejoin_ok", CtlMsg::RejoinOk { resume_token: 28 }),
    ]
}

fn rank_frame(rank: usize) -> RankFrame {
    RankFrame {
        fingerprint: 0xF00D,
        rank,
        superstep: 2,
        fuel_left: 9_000 + rank as u64,
        sent_words: 12,
        received_words: 8,
        puts: 1,
        ifats: 1,
        outcomes: vec![
            SyncOutcome::Put {
                delivered: vec![sample_value(), encoded(&Value::Int(rank as i64))],
            },
            SyncOutcome::IfAt { chosen: true },
        ],
    }
}

fn generation_file() -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!("bsml-codec-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = FileStore::open(&dir).expect("open store");
    for rank in 0..2 {
        store.stage(&rank_frame(rank)).expect("stage");
    }
    store.commit(2, 2).expect("commit");
    let bytes = std::fs::read(store.generation_path(2)).expect("read generation");
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

fn bundle() -> PostmortemBundle {
    let events = flight();
    PostmortemBundle::new(
        2,
        1,
        "transport failure at rank 1".to_string(),
        Some(1),
        Some(3),
        FlightLog {
            ranks: vec![
                RankFlightLog {
                    rank: 0,
                    dropped: 0,
                    events: events.clone(),
                },
                RankFlightLog {
                    rank: 1,
                    dropped: 5,
                    events: events[4..].to_vec(),
                },
            ],
        },
    )
}

fn wal_records() -> Vec<(&'static str, WalRecord)> {
    vec![
        (
            "wal/header",
            WalRecord::Header {
                version: 1,
                tenant: "tenant007".to_string(),
            },
        ),
        (
            "wal/snapshot",
            WalRecord::Snapshot {
                seq: 9,
                state: vec![1, 2, 3, 4, 5],
            },
        ),
        (
            "wal/commit",
            WalRecord::Commit {
                seq: 10,
                source: "let x = 1".to_string(),
            },
        ),
    ]
}

fn aliased_cell_value() -> Value {
    let shared = Value::cell(Value::Int(7), Mode::OnProc(2));
    Value::pair(
        Value::pair(shared.clone(), shared),
        Value::list([Value::Int(1), Value::Bool(false), Value::Unit]),
    )
}

fn session_without_closures() -> Session {
    let mut s = Session::new(BspParams::new(4, 10, 100));
    s.load(
        "let x = 20 ;; \
         let c = ref 5 ;; \
         let v = mkpar (fun i -> i * x) ;; \
         let l = [1; 2; 3] ;; \
         let e = (inl 4, inr true)",
    )
    .expect("load");
    s
}

fn samples() -> Vec<(&'static str, Vec<u8>)> {
    let mut out = vec![
        ("frame/put", put_frame().encode()),
        (
            "frame/ifat",
            Frame {
                from: 15,
                superstep: u64::MAX,
                seq: 1,
                lamport: 77,
                payload: FramePayload::IfAt(true),
            }
            .encode(),
        ),
    ];
    out.extend(ctl_msgs().into_iter().map(|(name, m)| (name, m.encode())));
    out.push(("rank_frame", rank_frame(1).encode()));
    out.push(("checkpoint_generation_file", generation_file()));
    out.push(("postmortem_bundle", bundle().encode()));
    out.extend(
        wal_records()
            .into_iter()
            .map(|(name, rec)| (name, frame_record(&rec.encode()))),
    );
    out.push((
        "persist/aliased_cell",
        value_to_bytes(&aliased_cell_value()),
    ));
    out.push((
        "session_snapshot/no_closures",
        session_without_closures().snapshot().to_bytes(),
    ));
    out
}

#[test]
fn every_format_encodes_its_golden_bytes() {
    let actual: Vec<(&str, usize, u64)> = samples()
        .iter()
        .map(|(name, bytes)| (*name, bytes.len(), golden_hash(bytes)))
        .collect();
    let table: String = actual
        .iter()
        .map(|(name, len, hash)| format!("    ({name:?}, {len}, {hash:#018x}),\n"))
        .collect();
    assert_eq!(
        actual, GOLDEN,
        "encodings drifted; the current table is:\n{table}"
    );
}

/// Three toplevel functions, one capturing the other two.
const THREE_FUNCTIONS: &str = "let double x = 2 * x ;; \
     let compose f g x = f (g x) ;; \
     let quad x = compose double double x";

/// `SessionSnapshot::to_bytes()` of `THREE_FUNCTIONS`, as the session
/// codec wrote it before closure environments were shared in memory.
const LEGACY_THREE_FUNCTIONS_HEX: &str = concat!(
    "42534d4c534e41500103000000000000000700000000000000636f6d706f7365",
    "0300000000000000000000000000000001000000000000000200000000000000",
    "0404030000000000000000030100000000000000040403020000000000000003",
    "0000000000000000040302000000000000000301000000000000000303040203",
    "0000000000000000020302000000000000000402030100000000000000020302",
    "0000000000000004020301000000000000000203000000000000000006000000",
    "00000000646f75626c6500000000000000000400000004000000000000007175",
    "6164000000000000000004000000840100000000000001000000000000000004",
    "00000000000000717561640d0100000000000000781700000000000000636f6d",
    "706f736520646f75626c6520646f75626c652078010100000000000000070000",
    "0000000000636f6d706f73650d01000000000000006619000000000000006675",
    "6e2067202d3e2066756e2078202d3e2066202867207829010200000000000000",
    "0600000000000000646f75626c650d0100000000000000780500000000000000",
    "32202a207800000103000000000000000600000000000000646f75626c650d01",
    "0000000000000078050000000000000032202a20780000010400000000000000",
    "0700000000000000636f6d706f73650d01000000000000006619000000000000",
    "0066756e2067202d3e2066756e2078202d3e2066202867207829010500000000",
    "0000000600000000000000646f75626c650d0100000000000000780500000000",
    "00000032202a207800000106000000000000000600000000000000646f75626c",
    "650d010000000000000078050000000000000032202a20780000030000000000",
    "000000000000000000000000000000000000",
);

#[test]
fn a_legacy_session_snapshot_still_decodes_to_the_same_bindings() {
    let bytes: Vec<u8> = (0..LEGACY_THREE_FUNCTIONS_HEX.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&LEGACY_THREE_FUNCTIONS_HEX[i..i + 2], 16).expect("hex"))
        .collect();
    assert_eq!(bytes.len(), 658);
    let snap = SessionSnapshot::from_bytes(&bytes).expect("legacy snapshot decodes");
    let mut restored = Session::new(BspParams::new(4, 10, 100));
    restored.restore(&snap).unwrap();
    let mut fresh = Session::new(BspParams::new(4, 10, 100));
    fresh.load(THREE_FUNCTIONS).expect("load");
    assert_eq!(restored.render_bindings(), fresh.render_bindings());
    let ev = restored.load("quad 3").expect("restored closures run");
    assert_eq!(ev[0].value().expect("value").to_string(), "12");
}
