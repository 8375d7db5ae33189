//! Property tests for the process-handshake control codec
//! (DESIGN.md §13), in the style of `tests/wire_props.rs`: every
//! control message round-trips the length-prefixed checksummed stream
//! format exactly, every truncation is rejected as an I/O error
//! (never a panic, never partial acceptance), `Hello` validation
//! accepts precisely the genuine article (magic + protocol version +
//! program fingerprint + rank + width all matching, rank not already
//! connected), and a stream chopped at *every* byte boundary across
//! `read` calls still reassembles into the same frame sequence — the
//! property that makes the parent/child routers immune to short
//! socket reads.

use std::io::{self, Read};

use bsml_bsp::process::validate_hello;
use bsml_bsp::validate_rejoin;
use bsml_bsp::wire::{
    encode_value, read_ctl, write_ctl, CtlLedger, CtlMsg, CtlStats, CTL_MAGIC, PROTOCOL_VERSION,
};
use bsml_bsp::{Fault, FaultKind};
use bsml_eval::{EvalError, Value};
use bsml_obs::{FlightEvent, TimedFlightEvent};
use proptest::collection::vec;
use proptest::prelude::*;

/// Printable-ASCII strings (program texts, error details, refusal
/// reasons — everything stringly in the protocol).
const TEXT: &str = "[ -~]{0,40}";

fn maybe_bytes() -> impl Strategy<Value = Option<Vec<u8>>> {
    prop_oneof![Just(None), vec(any::<u8>(), 0..48).prop_map(Some),]
}

/// Encoded first-order values.
fn value_bytes() -> impl Strategy<Value = Vec<u8>> {
    let leaf = prop_oneof![
        any::<i64>().prop_map(Value::Int),
        any::<bool>().prop_map(Value::Bool),
        Just(Value::Unit),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Value::pair(a, b)),
            vec(inner, 0..3).prop_map(Value::vector),
        ]
    })
    .prop_map(|v| {
        let mut bytes = Vec::new();
        encode_value(&mut bytes, &v).expect("a first-order value");
        bytes
    })
}

fn eval_error() -> impl Strategy<Value = EvalError> {
    prop_oneof![
        Just(EvalError::PeerFailure),
        Just(EvalError::OutOfFuel),
        Just(EvalError::DivisionByZero),
        Just(EvalError::RecursionLimit),
        Just(EvalError::NestedParallelism),
        (any::<u64>(), 0usize..64)
            .prop_map(|(superstep, waiting)| EvalError::BarrierTimeout { superstep, waiting }),
        (0usize..64, any::<u64>())
            .prop_map(|(rank, superstep)| EvalError::InjectedFault { rank, superstep }),
        (0usize..64, any::<u64>(), TEXT).prop_map(|(rank, superstep, detail)| {
            EvalError::TransportFailure {
                rank,
                superstep,
                detail,
            }
        }),
        (0usize..64, any::<u64>(), TEXT).prop_map(|(rank, superstep, detail)| {
            EvalError::CheckpointDiverged {
                rank,
                superstep,
                detail,
            }
        }),
        TEXT.prop_map(EvalError::NotSerializable),
    ]
}

fn fault() -> impl Strategy<Value = Fault> {
    let kind = prop_oneof![
        (0usize..8, any::<u64>())
            .prop_map(|(rank, superstep)| FaultKind::Crash { rank, superstep }),
        (0usize..8, any::<u64>())
            .prop_map(|(rank, superstep)| FaultKind::Panic { rank, superstep }),
    ];
    (kind, 0u32..4).prop_map(|(kind, attempt)| Fault { kind, attempt })
}

fn ctl_stats() -> impl Strategy<Value = CtlStats> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(
            |(sent_words, received_words, supersteps, puts, ifats)| CtlStats {
                sent_words,
                received_words,
                supersteps,
                puts,
                ifats,
            },
        )
}

fn ctl_ledger() -> impl Strategy<Value = CtlLedger> {
    vec(any::<u64>(), 4..5).prop_map(|v| CtlLedger {
        faults_injected: v[0],
        barrier_timeouts: v[1],
        frames_sent: v[2],
        corrupt_frames: v[3],
    })
}

fn flight_events() -> impl Strategy<Value = Vec<TimedFlightEvent>> {
    let event = prop_oneof![
        any::<u64>().prop_map(|superstep| FlightEvent::BarrierEnter { superstep }),
        any::<u64>().prop_map(|superstep| FlightEvent::BarrierExit { superstep }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(rank, superstep)| FlightEvent::LinkDown { rank, superstep }),
    ];
    vec(
        (any::<u64>(), event).prop_map(|(lamport, event)| TimedFlightEvent { lamport, event }),
        0..4,
    )
}

fn welcome() -> impl Strategy<Value = CtlMsg> {
    (
        TEXT,
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>()),
        any::<u32>(),
        vec(fault(), 0..3),
        maybe_bytes(),
    )
        .prop_map(
            |(
                program,
                (fuel, barrier_timeout_ms, checkpoint_interval, flight_capacity),
                (heartbeat_ms, link_grace_ms),
                attempt,
                faults,
                resume_frame,
            )| {
                CtlMsg::Welcome {
                    program,
                    fuel,
                    barrier_timeout_ms,
                    checkpoint_interval,
                    flight_capacity,
                    heartbeat_ms,
                    link_grace_ms,
                    attempt,
                    faults,
                    resume_frame,
                }
            },
        )
}

fn ctl_msg() -> impl Strategy<Value = CtlMsg> {
    prop_oneof![
        (
            any::<u64>(),
            any::<u32>(),
            any::<u64>(),
            (0usize..64, 0usize..64)
        )
            .prop_map(|(magic, version, fingerprint, (rank, p))| CtlMsg::Hello {
                magic,
                version,
                fingerprint,
                rank,
                p,
            }),
        welcome(),
        TEXT.prop_map(|reason| CtlMsg::Reject { reason }),
        (0usize..64, vec(any::<u8>(), 0..64)).prop_map(|(dst, frame)| CtlMsg::Data { dst, frame }),
        vec(any::<u8>(), 0..64).prop_map(|frame| CtlMsg::Deliver { frame }),
        (any::<u64>(), vec(any::<u64>(), 0..16))
            .prop_map(|(superstep, to)| CtlMsg::SendCounts { superstep, to }),
        (any::<u64>(), vec(any::<u64>(), 0..16))
            .prop_map(|(superstep, from)| CtlMsg::RecvCounts { superstep, from }),
        (any::<u64>(), maybe_bytes())
            .prop_map(|(superstep, staged)| CtlMsg::BarrierEnter { superstep, staged }),
        any::<u64>().prop_map(|superstep| CtlMsg::BarrierRelease { superstep }),
        Just(CtlMsg::Poison),
        any::<u64>().prop_map(|lamport| CtlMsg::Ping { lamport }),
        any::<u64>().prop_map(|lamport| CtlMsg::Pong { lamport }),
        (0usize..64, any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(rank, fingerprint, completed_superstep, resume_token)| CtlMsg::Rejoin {
                rank,
                fingerprint,
                completed_superstep,
                resume_token,
            }
        ),
        any::<u64>().prop_map(|resume_token| CtlMsg::RejoinOk { resume_token }),
        (eval_error(), ctl_ledger(), any::<u64>(), flight_events()).prop_map(
            |(error, ledger, flight_dropped, flight)| CtlMsg::Fatal {
                error,
                ledger,
                flight_dropped,
                flight,
            }
        ),
        (
            value_bytes(),
            ctl_stats(),
            any::<u64>(),
            ctl_ledger(),
            any::<u64>(),
            flight_events()
        )
            .prop_map(|(value, stats, work, ledger, flight_dropped, flight)| {
                CtlMsg::Done {
                    value,
                    stats,
                    work,
                    ledger,
                    flight_dropped,
                    flight,
                }
            }),
    ]
}

/// A reader that hands out at most `chunk` bytes per `read` call —
/// the adversarial short-read socket.
struct Chopped<'a> {
    bytes: &'a [u8],
    pos: usize,
    chunk: usize,
}

impl Read for Chopped<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(self.chunk).min(self.bytes.len() - self.pos);
        buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn ctl_messages_roundtrip(msg in ctl_msg()) {
        let mut bytes = Vec::new();
        write_ctl(&mut bytes, &msg).expect("vec write");
        let back = read_ctl(&mut bytes.as_slice()).expect("self-encoded ctl decodes");
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn every_ctl_truncation_is_rejected(msg in ctl_msg()) {
        // Cutting the stream anywhere — inside the length prefix or
        // inside the body — must surface as an I/O error the routers
        // treat as a dead peer. Never a panic, never a short parse.
        let mut bytes = Vec::new();
        write_ctl(&mut bytes, &msg).expect("vec write");
        for cut in 0..bytes.len() {
            prop_assert!(
                read_ctl(&mut &bytes[..cut]).is_err(),
                "accepted a control frame truncated to {cut} of {} bytes",
                bytes.len()
            );
        }
    }

    #[test]
    fn ctl_bit_flips_never_panic(msg in ctl_msg(), flip in any::<usize>()) {
        // The control checksum rejects corruption; whatever the
        // decoder returns, it must *return*.
        let mut bytes = Vec::new();
        write_ctl(&mut bytes, &msg).expect("vec write");
        let bit = flip % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        let _ = read_ctl(&mut bytes.as_slice());
    }

    #[test]
    fn hello_validation_accepts_exactly_the_matching_tuple(
        magic in prop_oneof![Just(CTL_MAGIC), any::<u64>()],
        version in prop_oneof![Just(PROTOCOL_VERSION), any::<u32>()],
        claimed in prop_oneof![Just(0xF00Du64), any::<u64>()],
        rank in 0usize..6,
        p in 1usize..5,
        taken in vec(any::<bool>(), 4..5),
    ) {
        let hello = CtlMsg::Hello { magic, version, fingerprint: claimed, rank, p };
        let expected_fingerprint = 0xF00Du64;
        let expected_p = 4usize;
        let genuine = magic == CTL_MAGIC
            && version == PROTOCOL_VERSION
            && claimed == expected_fingerprint
            && p == expected_p
            && rank < expected_p
            && !taken[rank.min(expected_p - 1)];
        let verdict = validate_hello(&hello, expected_fingerprint, expected_p, &taken);
        match verdict {
            Ok(got) => {
                prop_assert!(genuine, "accepted a mismatched Hello: {hello:?}");
                prop_assert_eq!(got, rank);
            }
            Err(reason) => {
                prop_assert!(!genuine, "rejected the genuine article: {reason}");
                prop_assert!(!reason.is_empty());
            }
        }
    }

    #[test]
    fn rejoin_validation_accepts_exactly_the_matching_claim(
        fingerprint in prop_oneof![Just(0xF00Du64), any::<u64>()],
        rank in 0usize..6,
        ahead in 0u64..3,
        behind in prop_oneof![Just(0u64), 1u64..4],
        completed in vec(0u64..16, 4..5),
        resume_token in any::<u64>(),
    ) {
        // The genuine claim is `completed[rank] + ahead` (a child may
        // be *ahead* of the parent's count when its BarrierEnter was
        // lost in flight); any claim *behind* the parent's count is a
        // stale process that must be rejected, as is a wrong
        // fingerprint or an out-of-range rank.
        let expected_fingerprint = 0xF00Du64;
        let p = completed.len();
        let claim = if behind == 0 {
            completed.get(rank).copied().unwrap_or(0) + ahead
        } else {
            completed.get(rank).copied().unwrap_or(0).saturating_sub(behind)
        };
        let genuine = fingerprint == expected_fingerprint
            && rank < p
            && claim >= completed[rank.min(p - 1)];
        let msg = CtlMsg::Rejoin {
            rank,
            fingerprint,
            completed_superstep: claim,
            resume_token,
        };
        match validate_rejoin(&msg, expected_fingerprint, p, &completed) {
            Ok(got) => {
                prop_assert!(genuine, "accepted a bogus rejoin: {msg:?}");
                prop_assert_eq!(got, rank);
            }
            Err(reason) => {
                prop_assert!(!genuine, "rejected the genuine claim: {reason}");
                prop_assert!(!reason.is_empty());
            }
        }
    }

    #[test]
    fn rejoin_validation_rejects_every_non_rejoin_first_message(msg in ctl_msg()) {
        // A reconnection whose first frame is anything but Rejoin is
        // a confused or malicious peer, never a panic.
        if !matches!(msg, CtlMsg::Rejoin { .. }) {
            prop_assert!(validate_rejoin(&msg, 0, 4, &[0, 0, 0, 0]).is_err());
        }
    }

    #[test]
    fn streams_reassemble_across_any_read_chunking(
        msgs in vec(ctl_msg(), 1..5),
        chunk in 1usize..9,
    ) {
        // One buffer, many frames, delivered `chunk` bytes at a time —
        // with chunk = 1 every byte boundary is a read boundary. The
        // routers must see exactly the original sequence.
        let mut bytes = Vec::new();
        for msg in &msgs {
            write_ctl(&mut bytes, msg).expect("vec write");
        }
        let mut stream = Chopped { bytes: &bytes, pos: 0, chunk };
        for (i, msg) in msgs.iter().enumerate() {
            let back = read_ctl(&mut stream)
                .unwrap_or_else(|e| panic!("frame {i} failed under chunk={chunk}: {e}"));
            prop_assert_eq!(&back, msg);
        }
        // And the stream is fully consumed: a further read is a clean
        // EOF error, not garbage.
        prop_assert!(read_ctl(&mut stream).is_err());
    }
}
