//! The wire protocol of the distributed backend: length-prefixed,
//! checksummed frames carrying one `put` message or one `if‥at‥`
//! broadcast between two ranks.
//!
//! This is the layer every transport speaks (see [`crate::transport`])
//! and the layer the exchange checks (DESIGN.md §10). A frame is
//! self-delimiting and self-validating:
//!
//! ```text
//! frame :=
//!     len       u32   bytes following this prefix (header + payload + trailer)
//!     kind      u8    0 = Put data, 1 = IfAt data (2 is retired)
//!     from      u32   sending rank
//!     superstep u64   the sender's superstep when the frame was built
//!     seq       u64   per-(sender → receiver)-link sequence number
//!     lamport   u64   the sender's Lamport clock when the frame was stamped
//!     payload         Put: one message · IfAt: u8 bool
//!     checksum  u64   FNV-1a over every preceding byte (prefix included)
//! ```
//!
//! All integers are little-endian. The checksum is the shared
//! [`seal`]/[`open`] trailer of [`bsml_eval::bytes`], and the control
//! messages ([`CtlMsg`]) use the same layout with a tagged body. The
//! decoder checks the length prefix, then the minimum size, then the
//! checksum, and rejects — with a [`CodecError`], never a panic —
//! truncated frames, length-prefix mismatches, checksum mismatches (any
//! single bit flip is caught), unknown tags and trailing garbage.
//!
//! This module defines no value encoding. A message — in a frame, in
//! a checkpoint row ([`crate::checkpoint`]) and as a rank's result —
//! is the message form of the one value codec,
//! [`bsml_eval::persist`]: its encoder refuses what is not first-order
//! or is nested deeper than [`bsml_eval::bytes::MAX_DEPTH`], so a rank
//! never sends bytes its peer or parent must reject, and its decoder
//! refuses every other tag. A `Put` payload stays bytes until the
//! receiving `put` decodes it; the exchange fails the run on every
//! rejection, so a corrupted frame is never mistaken for data.
//!
//! ```
//! use bsml_bsp::wire::{Frame, FramePayload};
//! use bsml_eval::persist::{decode_value, encode_value};
//! use bsml_eval::{ByteReader, Value};
//!
//! let mut message = Vec::new();
//! encode_value(&mut message, &Value::Int(-3))?;
//! let f = Frame {
//!     from: 2,
//!     superstep: 7,
//!     seq: 42,
//!     lamport: 19,
//!     payload: FramePayload::Put(message),
//! };
//! let back = Frame::decode(&f.encode())?;
//! assert_eq!(back, f);
//! let FramePayload::Put(bytes) = back.payload else { unreachable!() };
//! assert_eq!(decode_value(&mut ByteReader::new(&bytes))?.to_string(), "-3");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::io::{self, Read, Write};
use std::time::Duration;

use bsml_eval::bytes::{open, put_bytes, put_str, put_u64, seal, ByteReader, CodecError};
use bsml_eval::{persist, EvalError};
use bsml_obs::TimedFlightEvent;

use crate::faults::{Fault, FaultKind};

/// Reads one embedded message ([`bsml_eval::persist`]'s message form)
/// and returns its bytes. Decoding it is how its end is found, so every
/// tag and depth check runs.
pub(crate) fn value_bytes<'a>(r: &mut ByteReader<'a>) -> Result<&'a [u8], CodecError> {
    let mut start = r.clone();
    persist::decode_value(r)?;
    start.take(start.remaining() - r.remaining())
}

/// What a frame carries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FramePayload {
    /// One `put` message, encoded by the sender's local phase with
    /// [`persist::encode_value`] and decoded by the receiving `put`.
    Put(Vec<u8>),
    /// The broadcast boolean of an `if‥at‥`.
    IfAt(bool),
}

const KIND_PUT: u8 = 0;
const KIND_IFAT: u8 = 1;
// Kind 2 (the retired acknowledgement) stays unused.

/// One unit of communication between two ranks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// The sending rank.
    pub from: usize,
    /// The sender's superstep when the frame was built (diagnostic —
    /// delivery keys on `seq`).
    pub superstep: u64,
    /// Per-(sender → receiver)-link sequence number: the sender's
    /// counter for that link.
    pub seq: u64,
    /// The sender's Lamport clock when the frame was *stamped* (built),
    /// so cross-rank causality (every receive happens-after its send)
    /// is reconstructable from a trace of stamps alone (DESIGN.md §12).
    pub lamport: u64,
    /// The payload.
    pub payload: FramePayload,
}

impl Frame {
    /// Serializes the frame (see the module docs for the layout).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(48);
        out.extend_from_slice(&[0; 4]); // the length prefix
        match &self.payload {
            FramePayload::Put(_) => out.push(KIND_PUT),
            FramePayload::IfAt(_) => out.push(KIND_IFAT),
        }
        out.extend_from_slice(&u32::try_from(self.from).unwrap_or(u32::MAX).to_le_bytes());
        put_u64(&mut out, self.superstep);
        put_u64(&mut out, self.seq);
        put_u64(&mut out, self.lamport);
        match &self.payload {
            FramePayload::Put(message) => out.extend_from_slice(message),
            FramePayload::IfAt(b) => out.push(u8::from(*b)),
        }
        seal_prefixed(out)
    }

    /// Parses and verifies one frame.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`]; the exchange fails the run on it.
    pub fn decode(bytes: &[u8]) -> Result<Frame, CodecError> {
        let mut r = open_prefixed(bytes, 4 + 1 + 4 + 8 + 8 + 8 + 8)?;
        let kind = r.u8()?;
        let from = r.u32()? as usize;
        let superstep = r.u64()?;
        let seq = r.u64()?;
        let lamport = r.u64()?;
        let payload = match kind {
            // The message is the rest of the frame.
            KIND_PUT => FramePayload::Put(r.take(r.remaining())?.to_vec()),
            KIND_IFAT => FramePayload::IfAt(r.u8()? != 0),
            tag => {
                return Err(CodecError::BadTag {
                    what: "frame kind",
                    tag,
                })
            }
        };
        r.finish()?;
        Ok(Frame {
            from,
            superstep,
            seq,
            lamport,
            payload,
        })
    }
}

/// Completes a frame built behind a 4-byte placeholder: patches the
/// `u32` length prefix (the bytes after it, trailer included) and
/// seals everything, prefix included.
fn seal_prefixed(mut out: Vec<u8>) -> Vec<u8> {
    let len = u32::try_from(out.len() - 4 + 8).expect("frames fit in u32");
    out[0..4].copy_from_slice(&len.to_le_bytes());
    seal(&mut out, 0);
    out
}

/// Checks a sealed `[len:u32][body][fnv1a]` frame — the length prefix
/// first, then the minimum size `min`, then the checksum — and returns
/// a reader over the body.
fn open_prefixed(bytes: &[u8], min: usize) -> Result<ByteReader<'_>, CodecError> {
    let claimed = u64::from(ByteReader::new(bytes).u32()?);
    let actual = (bytes.len() - 4) as u64;
    if claimed != actual {
        return Err(CodecError::LengthMismatch { claimed, actual });
    }
    if bytes.len() < min {
        return Err(CodecError::Truncated);
    }
    Ok(ByteReader::new(&open(bytes)?[4..]))
}

// ---------------------------------------------------------------------------
// Control-plane messages of the multi-process backend (DESIGN.md §13).
// ---------------------------------------------------------------------------

/// Magic prefix of a control-stream [`CtlMsg::Hello`] (`"BSMLCTL1"`).
/// A connection that does not open with it is not a BSML rank.
pub const CTL_MAGIC: u64 = u64::from_le_bytes(*b"BSMLCTL1");

/// Version of the control protocol. A `Hello` carrying any other
/// version is rejected during the handshake — never negotiated.
/// Version 6 drops the exit barrier: `SendCounts`/`RecvCounts` is the
/// one round trip per superstep, and a staged checkpoint frame travels
/// alone in `Staged`.
pub const PROTOCOL_VERSION: u32 = 6;

/// Upper bound on one control frame (64 MiB). A stream reader rejects
/// a larger length prefix *before* allocating, so a corrupt or hostile
/// prefix cannot become a giant allocation.
pub const MAX_CTL_FRAME: usize = 1 << 26;

/// Per-rank communication totals shipped home in a [`CtlMsg::Done`] —
/// the process-mode mirror of the in-process backend's private
/// per-rank stats, so the parent can charge telemetry identically.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CtlStats {
    /// Words this rank sent across all supersteps.
    pub sent_words: u64,
    /// Words this rank received.
    pub received_words: u64,
    /// Supersteps this rank completed.
    pub supersteps: u64,
    /// `put` operations performed.
    pub puts: u64,
    /// `if‥at‥` operations performed.
    pub ifats: u64,
}

/// A snapshot of one rank's fault ledger, shipped home in a
/// [`CtlMsg::Done`] or [`CtlMsg::Fatal`] so process-mode runs report
/// the same transport counters (`net.frames_sent`, …) as in-process
/// runs. Checkpoint counters are absent: in process mode the *parent*
/// stages and commits cuts, and counts them itself.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CtlLedger {
    /// Plan faults this rank fired.
    pub faults_injected: u64,
    /// Barrier/exchange deadlines this rank hit.
    pub barrier_timeouts: u64,
    /// Data frames handed to the transport.
    pub frames_sent: u64,
    /// Received frames rejected by the wire decoder.
    pub corrupt_frames: u64,
}

/// One message on a parent⇄child control stream.
///
/// The stream framing reuses the data-plane discipline: a `u32`
/// little-endian length prefix, a tagged body, and an FNV-1a trailer
/// over everything before it ([`write_ctl`] / [`read_ctl`]). Like
/// [`Frame::decode`], [`CtlMsg::decode`] rejects — never panics on —
/// truncation, length mismatches, checksum mismatches, unknown tags
/// and trailing garbage.
///
/// Direction conventions: `Hello`/`Data`/`SendCounts`/`Staged`/
/// `Fatal`/`Done`/`Pong`/`Rejoin` flow child → parent; `Welcome`/
/// `Reject`/`Deliver`/`RecvCounts`/`Ping`/`RejoinOk` flow parent →
/// child; `Poison` flows both ways.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CtlMsg {
    /// First message on a new connection: the child identifies itself.
    /// The parent validates every field against what it expects from
    /// the rank it spawned and answers `Welcome` or `Reject`.
    Hello {
        /// Must be [`CTL_MAGIC`].
        magic: u64,
        /// Must be [`PROTOCOL_VERSION`].
        version: u32,
        /// The program fingerprint the child was told to expect
        /// (`checkpoint::program_fingerprint`).
        fingerprint: u64,
        /// The rank id the child was spawned as.
        rank: usize,
        /// The machine width the child was spawned for.
        p: usize,
    },
    /// The parent starts one run on the rank and ships it everything
    /// the run needs: the program text and the full execution
    /// configuration. A rank serves one run per `Welcome`, on the same
    /// stream, until the parent closes it.
    Welcome {
        /// The program, pretty-printed; the child re-parses it and
        /// verifies that it hashes to `fingerprint`.
        program: String,
        /// The program's `checkpoint::program_fingerprint`, which a
        /// `Rejoin` during this run must name.
        fingerprint: u64,
        /// Fuel for this rank's evaluator.
        fuel: u64,
        /// Barrier/exchange deadline in milliseconds; `0` is a deadline
        /// already passed.
        barrier_timeout_ms: u64,
        /// Checkpoint every k supersteps; `0` = checkpointing off.
        checkpoint_interval: u64,
        /// Flight-recorder ring capacity; `0` = recorder off.
        flight_capacity: u64,
        /// Heartbeat (`Ping`) period in milliseconds.
        heartbeat_ms: u64,
        /// Grace window for healing a severed link before the rank is
        /// given up on, milliseconds.
        link_grace_ms: u64,
        /// Which attempt this is (faults arm per attempt).
        attempt: u32,
        /// The fault plan, so seeded chaos reproduces identically in
        /// process mode.
        faults: Vec<Fault>,
        /// This rank's committed `RankFrame` bytes when resuming from
        /// a checkpoint; `None` on a cold start.
        resume_frame: Option<Vec<u8>>,
    },
    /// The parent refuses the connection (bad magic, version skew,
    /// fingerprint mismatch, duplicate or out-of-range rank).
    Reject {
        /// Human-readable refusal, surfaced in the child's error.
        reason: String,
    },
    /// Child → parent: route one data-plane [`Frame`] to `dst`.
    Data {
        /// Destination rank.
        dst: usize,
        /// The encoded frame, shipped opaquely.
        frame: Vec<u8>,
    },
    /// Parent → child: a routed data-plane frame for this rank.
    Deliver {
        /// The encoded frame.
        frame: Vec<u8>,
    },
    /// Child → parent: this rank's entry into the superstep's count
    /// round, its one synchronization, sent after every `Data` frame
    /// of the superstep.
    SendCounts {
        /// The superstep being exchanged.
        superstep: u64,
        /// Data frames this rank sent to each rank, indexed by
        /// destination (`p` entries).
        to: Vec<u64>,
    },
    /// Parent → child: the count round is complete. Every frame it
    /// announces was delivered ahead of it on this stream.
    RecvCounts {
        /// The superstep being exchanged.
        superstep: u64,
        /// Data frames each rank sent to this one, indexed by source
        /// (`p` entries).
        from: Vec<u64>,
    },
    /// Child → parent: the `RankFrame` this rank just staged for a
    /// checkpoint generation, sent the moment it is staged. The
    /// coordinator commits the generation when it reads its p-th
    /// frame.
    Staged {
        /// The encoded `RankFrame`.
        frame: Vec<u8>,
    },
    /// Either direction: the run is dead; stop waiting and unwind.
    Poison,
    /// Child → parent: this rank failed. Carries the structured error
    /// plus the ledger and flight-recorder tail so postmortems survive
    /// the process boundary.
    Fatal {
        /// The rank's structured error.
        error: EvalError,
        /// Final transport counters.
        ledger: CtlLedger,
        /// Events the bounded recorder discarded.
        flight_dropped: u64,
        /// The recorded tail, oldest first.
        flight: Vec<TimedFlightEvent>,
    },
    /// Child → parent: this rank finished.
    Done {
        /// The rank's local result, encoded with
        /// [`persist::encode_value`].
        value: Vec<u8>,
        /// Communication totals for telemetry.
        stats: CtlStats,
        /// Fuel consumed.
        work: u64,
        /// Final transport counters.
        ledger: CtlLedger,
        /// Events the bounded recorder discarded.
        flight_dropped: u64,
        /// The recorded tail, oldest first.
        flight: Vec<TimedFlightEvent>,
    },
    /// Parent → child: an application-level heartbeat. The child
    /// answers `Pong` even while its driver is parked at a barrier,
    /// so a live-but-idle rank is distinguishable from a partitioned
    /// one in bounded time.
    Ping {
        /// The parent's Lamport clock at the send.
        lamport: u64,
    },
    /// Child → parent: the heartbeat answer.
    Pong {
        /// The child's Lamport clock at the send.
        lamport: u64,
    },
    /// Child → parent, first message on a *re*-connection: the rank
    /// lost its control stream but its process (and in-memory state)
    /// survived, and it wants the link healed rather than the fleet
    /// respawned. The parent validates the identity fields against the
    /// original handshake and answers `RejoinOk` or `Reject`.
    Rejoin {
        /// The rank id reconnecting.
        rank: usize,
        /// The program fingerprint it was welcomed under.
        fingerprint: u64,
        /// Supersteps this rank has completed (counted as it entered
        /// its last count round).
        completed_superstep: u64,
        /// Count of session frames this rank had *received* on the old
        /// stream — the parent replays its egress buffer from here.
        resume_token: u64,
    },
    /// Parent → child: the rejoin is accepted. Frames the child sent
    /// but the parent never received follow `resume_token` in the
    /// other direction: the child replays its own egress buffer from
    /// the parent's count.
    RejoinOk {
        /// Count of session frames the parent had received from this
        /// rank on the old stream.
        resume_token: u64,
    },
}

const CTL_HELLO: u8 = 0;
const CTL_WELCOME: u8 = 1;
const CTL_REJECT: u8 = 2;
const CTL_DATA: u8 = 3;
const CTL_DELIVER: u8 = 4;
// Tags 5 and 6 (the retired exchange-completion round) and 7 and 8
// (the retired exit barrier) stay unused.
const CTL_POISON: u8 = 9;
const CTL_FATAL: u8 = 10;
const CTL_DONE: u8 = 11;
const CTL_PING: u8 = 12;
const CTL_PONG: u8 = 13;
const CTL_REJOIN: u8 = 14;
const CTL_REJOIN_OK: u8 = 15;
const CTL_SEND_COUNTS: u8 = 16;
const CTL_RECV_COUNTS: u8 = 17;
const CTL_STAGED: u8 = 18;

// Errors cross the process boundary structurally: every variant the
// distributed runtime can actually produce has a precise tag, so the
// parent's supervisor sees the *same* error it would have seen from an
// in-process rank (its recovery ladder keys on variants like
// `CheckpointDiverged`). Program-level errors that embed unserializable
// structure fall back to their rendered form — sound, because the
// supervisor's oracle pre-filters deterministic program errors before
// any distributed attempt.
const ERR_PEER_FAILURE: u8 = 0;
const ERR_OUT_OF_FUEL: u8 = 1;
const ERR_BARRIER_TIMEOUT: u8 = 2;
const ERR_INJECTED_FAULT: u8 = 3;
const ERR_TRANSPORT_FAILURE: u8 = 4;
const ERR_CHECKPOINT_DIVERGED: u8 = 5;
const ERR_NOT_SERIALIZABLE: u8 = 6;
const ERR_DIVISION_BY_ZERO: u8 = 7;
const ERR_RECURSION_LIMIT: u8 = 8;
const ERR_NESTED_PARALLELISM: u8 = 9;
const ERR_RENDERED: u8 = 10;

fn encode_error(out: &mut Vec<u8>, err: &EvalError) {
    match err {
        EvalError::PeerFailure => out.push(ERR_PEER_FAILURE),
        EvalError::OutOfFuel => out.push(ERR_OUT_OF_FUEL),
        EvalError::BarrierTimeout { superstep, waiting } => {
            out.push(ERR_BARRIER_TIMEOUT);
            put_u64(out, *superstep);
            put_u64(out, *waiting as u64);
        }
        EvalError::InjectedFault { rank, superstep } => {
            out.push(ERR_INJECTED_FAULT);
            put_u64(out, *rank as u64);
            put_u64(out, *superstep);
        }
        EvalError::TransportFailure {
            rank,
            superstep,
            detail,
        } => {
            out.push(ERR_TRANSPORT_FAILURE);
            put_u64(out, *rank as u64);
            put_u64(out, *superstep);
            put_str(out, detail);
        }
        EvalError::CheckpointDiverged {
            rank,
            superstep,
            detail,
        } => {
            out.push(ERR_CHECKPOINT_DIVERGED);
            put_u64(out, *rank as u64);
            put_u64(out, *superstep);
            put_str(out, detail);
        }
        EvalError::NotSerializable(what) => {
            out.push(ERR_NOT_SERIALIZABLE);
            put_str(out, what);
        }
        EvalError::DivisionByZero => out.push(ERR_DIVISION_BY_ZERO),
        EvalError::RecursionLimit => out.push(ERR_RECURSION_LIMIT),
        EvalError::NestedParallelism => out.push(ERR_NESTED_PARALLELISM),
        other => {
            out.push(ERR_RENDERED);
            put_str(out, &other.to_string());
        }
    }
}

fn decode_error(r: &mut ByteReader<'_>) -> Result<EvalError, CodecError> {
    match r.u8()? {
        ERR_PEER_FAILURE => Ok(EvalError::PeerFailure),
        ERR_OUT_OF_FUEL => Ok(EvalError::OutOfFuel),
        ERR_BARRIER_TIMEOUT => Ok(EvalError::BarrierTimeout {
            superstep: r.u64()?,
            waiting: r.u64()? as usize,
        }),
        ERR_INJECTED_FAULT => Ok(EvalError::InjectedFault {
            rank: r.u64()? as usize,
            superstep: r.u64()?,
        }),
        ERR_TRANSPORT_FAILURE => Ok(EvalError::TransportFailure {
            rank: r.u64()? as usize,
            superstep: r.u64()?,
            detail: r.str()?,
        }),
        ERR_CHECKPOINT_DIVERGED => Ok(EvalError::CheckpointDiverged {
            rank: r.u64()? as usize,
            superstep: r.u64()?,
            detail: r.str()?,
        }),
        ERR_NOT_SERIALIZABLE => Ok(EvalError::NotSerializable(r.str()?)),
        ERR_DIVISION_BY_ZERO => Ok(EvalError::DivisionByZero),
        ERR_RECURSION_LIMIT => Ok(EvalError::RecursionLimit),
        ERR_NESTED_PARALLELISM => Ok(EvalError::NestedParallelism),
        ERR_RENDERED => Ok(EvalError::ScrutineeMismatch("remote rank", r.str()?)),
        tag => Err(CodecError::BadTag { what: "error", tag }),
    }
}

fn encode_fault(out: &mut Vec<u8>, f: &Fault) {
    out.push(f.kind.code() as u8);
    match &f.kind {
        FaultKind::Crash { rank, superstep } | FaultKind::Panic { rank, superstep } => {
            put_u64(out, *rank as u64);
            put_u64(out, *superstep);
        }
        FaultKind::DropMessage {
            from,
            to,
            superstep,
        } => {
            put_u64(out, *from as u64);
            put_u64(out, *to as u64);
            put_u64(out, *superstep);
        }
        FaultKind::Stall {
            rank,
            superstep,
            delay,
        } => {
            put_u64(out, *rank as u64);
            put_u64(out, *superstep);
            put_u64(out, u64::try_from(delay.as_millis()).unwrap_or(u64::MAX));
        }
    }
    out.extend_from_slice(&f.attempt.to_le_bytes());
}

fn decode_fault(r: &mut ByteReader<'_>) -> Result<Fault, CodecError> {
    let kind = match r.u8()? {
        0 => FaultKind::Crash {
            rank: r.u64()? as usize,
            superstep: r.u64()?,
        },
        1 => FaultKind::Panic {
            rank: r.u64()? as usize,
            superstep: r.u64()?,
        },
        2 => FaultKind::DropMessage {
            from: r.u64()? as usize,
            to: r.u64()? as usize,
            superstep: r.u64()?,
        },
        3 => FaultKind::Stall {
            rank: r.u64()? as usize,
            superstep: r.u64()?,
            delay: Duration::from_millis(r.u64()?),
        },
        tag => return Err(CodecError::BadTag { what: "fault", tag }),
    };
    Ok(Fault {
        kind,
        attempt: r.u32()?,
    })
}

fn encode_ledger(out: &mut Vec<u8>, l: &CtlLedger) {
    for v in [
        l.faults_injected,
        l.barrier_timeouts,
        l.frames_sent,
        l.corrupt_frames,
    ] {
        put_u64(out, v);
    }
}

fn decode_ledger(r: &mut ByteReader<'_>) -> Result<CtlLedger, CodecError> {
    Ok(CtlLedger {
        faults_injected: r.u64()?,
        barrier_timeouts: r.u64()?,
        frames_sent: r.u64()?,
        corrupt_frames: r.u64()?,
    })
}

fn encode_counts(out: &mut Vec<u8>, superstep: u64, counts: &[u64]) {
    put_u64(out, superstep);
    put_u64(out, counts.len() as u64);
    for &n in counts {
        put_u64(out, n);
    }
}

fn decode_counts(r: &mut ByteReader<'_>) -> Result<(u64, Vec<u64>), CodecError> {
    let superstep = r.u64()?;
    let n = r.count()?;
    let mut counts = Vec::with_capacity(n);
    for _ in 0..n {
        counts.push(r.u64()?);
    }
    Ok((superstep, counts))
}

fn encode_flight(out: &mut Vec<u8>, events: &[TimedFlightEvent]) {
    put_u64(out, events.len() as u64);
    for ev in events {
        crate::postmortem::encode_event(out, ev);
    }
}

fn decode_flight(r: &mut ByteReader<'_>) -> Result<Vec<TimedFlightEvent>, CodecError> {
    let n = r.count()?;
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        events.push(crate::postmortem::decode_event(r)?);
    }
    Ok(events)
}

impl CtlMsg {
    /// A well-formed `Hello` for `rank` of `p` under `fingerprint`.
    #[must_use]
    pub fn hello(fingerprint: u64, rank: usize, p: usize) -> CtlMsg {
        CtlMsg::Hello {
            magic: CTL_MAGIC,
            version: PROTOCOL_VERSION,
            fingerprint,
            rank,
            p,
        }
    }

    /// Serializes the message: `u32` length prefix, tagged body,
    /// FNV-1a trailer over everything before it.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(&[0; 4]); // the length prefix
        match self {
            CtlMsg::Hello {
                magic,
                version,
                fingerprint,
                rank,
                p,
            } => {
                out.push(CTL_HELLO);
                put_u64(&mut out, *magic);
                out.extend_from_slice(&version.to_le_bytes());
                put_u64(&mut out, *fingerprint);
                put_u64(&mut out, *rank as u64);
                put_u64(&mut out, *p as u64);
            }
            CtlMsg::Welcome {
                program,
                fingerprint,
                fuel,
                barrier_timeout_ms,
                checkpoint_interval,
                flight_capacity,
                heartbeat_ms,
                link_grace_ms,
                attempt,
                faults,
                resume_frame,
            } => {
                out.push(CTL_WELCOME);
                put_str(&mut out, program);
                for v in [
                    *fingerprint,
                    *fuel,
                    *barrier_timeout_ms,
                    *checkpoint_interval,
                    *flight_capacity,
                    *heartbeat_ms,
                    *link_grace_ms,
                ] {
                    put_u64(&mut out, v);
                }
                out.extend_from_slice(&attempt.to_le_bytes());
                put_u64(&mut out, faults.len() as u64);
                for f in faults {
                    encode_fault(&mut out, f);
                }
                match resume_frame {
                    None => out.push(0),
                    Some(bytes) => {
                        out.push(1);
                        put_bytes(&mut out, bytes);
                    }
                }
            }
            CtlMsg::Reject { reason } => {
                out.push(CTL_REJECT);
                put_str(&mut out, reason);
            }
            CtlMsg::Data { dst, frame } => {
                out.push(CTL_DATA);
                put_u64(&mut out, *dst as u64);
                put_bytes(&mut out, frame);
            }
            CtlMsg::Deliver { frame } => {
                out.push(CTL_DELIVER);
                put_bytes(&mut out, frame);
            }
            CtlMsg::SendCounts { superstep, to } => {
                out.push(CTL_SEND_COUNTS);
                encode_counts(&mut out, *superstep, to);
            }
            CtlMsg::RecvCounts { superstep, from } => {
                out.push(CTL_RECV_COUNTS);
                encode_counts(&mut out, *superstep, from);
            }
            CtlMsg::Staged { frame } => {
                out.push(CTL_STAGED);
                put_bytes(&mut out, frame);
            }
            CtlMsg::Poison => out.push(CTL_POISON),
            CtlMsg::Fatal {
                error,
                ledger,
                flight_dropped,
                flight,
            } => {
                out.push(CTL_FATAL);
                encode_error(&mut out, error);
                encode_ledger(&mut out, ledger);
                put_u64(&mut out, *flight_dropped);
                encode_flight(&mut out, flight);
            }
            CtlMsg::Done {
                value,
                stats,
                work,
                ledger,
                flight_dropped,
                flight,
            } => {
                out.push(CTL_DONE);
                out.extend_from_slice(value);
                for v in [
                    stats.sent_words,
                    stats.received_words,
                    stats.supersteps,
                    stats.puts,
                    stats.ifats,
                ] {
                    put_u64(&mut out, v);
                }
                put_u64(&mut out, *work);
                encode_ledger(&mut out, ledger);
                put_u64(&mut out, *flight_dropped);
                encode_flight(&mut out, flight);
            }
            CtlMsg::Ping { lamport } => {
                out.push(CTL_PING);
                put_u64(&mut out, *lamport);
            }
            CtlMsg::Pong { lamport } => {
                out.push(CTL_PONG);
                put_u64(&mut out, *lamport);
            }
            CtlMsg::Rejoin {
                rank,
                fingerprint,
                completed_superstep,
                resume_token,
            } => {
                out.push(CTL_REJOIN);
                put_u64(&mut out, *rank as u64);
                put_u64(&mut out, *fingerprint);
                put_u64(&mut out, *completed_superstep);
                put_u64(&mut out, *resume_token);
            }
            CtlMsg::RejoinOk { resume_token } => {
                out.push(CTL_REJOIN_OK);
                put_u64(&mut out, *resume_token);
            }
        }
        seal_prefixed(out)
    }

    /// Parses and verifies one control message.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] — truncation, length-prefix or checksum
    /// mismatch, unknown tags, a value nested deeper than
    /// [`bsml_eval::bytes::MAX_DEPTH`], trailing garbage. Never panics.
    pub fn decode(bytes: &[u8]) -> Result<CtlMsg, CodecError> {
        let mut r = open_prefixed(bytes, 4 + 1 + 8)?;
        let msg = match r.u8()? {
            CTL_HELLO => CtlMsg::Hello {
                magic: r.u64()?,
                version: r.u32()?,
                fingerprint: r.u64()?,
                rank: r.u64()? as usize,
                p: r.u64()? as usize,
            },
            CTL_WELCOME => {
                let program = r.str()?;
                let fingerprint = r.u64()?;
                let fuel = r.u64()?;
                let barrier_timeout_ms = r.u64()?;
                let checkpoint_interval = r.u64()?;
                let flight_capacity = r.u64()?;
                let heartbeat_ms = r.u64()?;
                let link_grace_ms = r.u64()?;
                let attempt = r.u32()?;
                let n = r.count()?;
                let mut faults = Vec::with_capacity(n);
                for _ in 0..n {
                    faults.push(decode_fault(&mut r)?);
                }
                let resume_frame = match r.u8()? {
                    0 => None,
                    1 => Some(r.bytes()?.to_vec()),
                    tag => {
                        return Err(CodecError::BadTag {
                            what: "option",
                            tag,
                        })
                    }
                };
                CtlMsg::Welcome {
                    program,
                    fingerprint,
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
            }
            CTL_REJECT => CtlMsg::Reject { reason: r.str()? },
            CTL_DATA => CtlMsg::Data {
                dst: r.u64()? as usize,
                frame: r.bytes()?.to_vec(),
            },
            CTL_DELIVER => CtlMsg::Deliver {
                frame: r.bytes()?.to_vec(),
            },
            CTL_SEND_COUNTS => {
                let (superstep, to) = decode_counts(&mut r)?;
                CtlMsg::SendCounts { superstep, to }
            }
            CTL_RECV_COUNTS => {
                let (superstep, from) = decode_counts(&mut r)?;
                CtlMsg::RecvCounts { superstep, from }
            }
            CTL_STAGED => CtlMsg::Staged {
                frame: r.bytes()?.to_vec(),
            },
            CTL_POISON => CtlMsg::Poison,
            CTL_FATAL => CtlMsg::Fatal {
                error: decode_error(&mut r)?,
                ledger: decode_ledger(&mut r)?,
                flight_dropped: r.u64()?,
                flight: decode_flight(&mut r)?,
            },
            CTL_DONE => CtlMsg::Done {
                value: value_bytes(&mut r)?.to_vec(),
                stats: CtlStats {
                    sent_words: r.u64()?,
                    received_words: r.u64()?,
                    supersteps: r.u64()?,
                    puts: r.u64()?,
                    ifats: r.u64()?,
                },
                work: r.u64()?,
                ledger: decode_ledger(&mut r)?,
                flight_dropped: r.u64()?,
                flight: decode_flight(&mut r)?,
            },
            CTL_PING => CtlMsg::Ping { lamport: r.u64()? },
            CTL_PONG => CtlMsg::Pong { lamport: r.u64()? },
            CTL_REJOIN => CtlMsg::Rejoin {
                rank: r.u64()? as usize,
                fingerprint: r.u64()?,
                completed_superstep: r.u64()?,
                resume_token: r.u64()?,
            },
            CTL_REJOIN_OK => CtlMsg::RejoinOk {
                resume_token: r.u64()?,
            },
            tag => {
                return Err(CodecError::BadTag {
                    what: "control message",
                    tag,
                })
            }
        };
        r.finish()?;
        Ok(msg)
    }
}

/// Writes one control message to a stream (partial writes are retried
/// by `write_all`).
///
/// # Errors
///
/// Propagates the underlying I/O error — `EPIPE` included; the caller
/// maps stream failures to `TransportFailure`.
pub fn write_ctl<W: Write>(w: &mut W, msg: &CtlMsg) -> io::Result<()> {
    w.write_all(&msg.encode())
}

/// Reads one control message from a stream. Partial reads are
/// absorbed by `read_exact` loops; frames split at arbitrary byte
/// boundaries across `read` calls reassemble exactly.
///
/// # Errors
///
/// `UnexpectedEof` when the stream ends mid-frame (a clean EOF before
/// any prefix byte also surfaces as `UnexpectedEof`), `InvalidData`
/// when the frame is oversized or fails [`CtlMsg::decode`], and any
/// underlying I/O error otherwise.
pub fn read_ctl<R: Read>(r: &mut R) -> io::Result<CtlMsg> {
    let mut prefix = [0u8; 4];
    r.read_exact(&mut prefix)?;
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_CTL_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("control frame of {len} byte(s) exceeds the {MAX_CTL_FRAME}-byte cap"),
        ));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    let mut bytes = Vec::with_capacity(4 + len);
    bytes.extend_from_slice(&prefix);
    bytes.extend_from_slice(&body);
    CtlMsg::decode(&bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsml_eval::bytes::MAX_DEPTH;
    use bsml_eval::persist::{decode_value, encode_value};
    use bsml_eval::Value;
    use std::rc::Rc;

    fn encoded(v: &Value) -> Vec<u8> {
        let mut out = Vec::new();
        encode_value(&mut out, v).expect("a first-order value");
        out
    }

    fn sample() -> Frame {
        Frame {
            from: 3,
            superstep: 11,
            seq: 207,
            lamport: 1009,
            payload: FramePayload::Put(encoded(&Value::pair(
                Value::Int(-42),
                Value::list([Value::NoComm]),
            ))),
        }
    }

    #[test]
    fn frames_roundtrip() {
        for f in [
            sample(),
            Frame {
                from: 0,
                superstep: 0,
                seq: 0,
                lamport: 0,
                payload: FramePayload::IfAt(true),
            },
            Frame {
                from: 15,
                superstep: u64::MAX,
                seq: u64::MAX,
                lamport: u64::MAX,
                payload: FramePayload::IfAt(false),
            },
        ] {
            assert_eq!(Frame::decode(&f.encode()), Ok(f));
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(Frame::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let f = sample();
        let bytes = f.encode();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= 1 << bit;
                assert!(
                    Frame::decode(&corrupt).is_err(),
                    "flip of bit {bit} at byte {i} went unnoticed"
                );
            }
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = sample().encode();
        bytes.push(0);
        // The length prefix no longer matches.
        assert!(matches!(
            Frame::decode(&bytes),
            Err(CodecError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn count_overflow_does_not_allocate() {
        // A Vector claiming u64::MAX components must be rejected by
        // the count guard, not by the allocator. The count sits after
        // the value tag.
        let mut bytes = encoded(&Value::vector(vec![Value::Unit]));
        bytes[1..9].copy_from_slice(&u64::MAX.to_le_bytes());
        let mut r = ByteReader::new(&bytes);
        assert_eq!(decode_value(&mut r).map(|_| ()), Err(CodecError::BadCount));
    }

    #[test]
    fn values_past_the_depth_bound_are_not_encoded() {
        let nest = |n: usize| (0..n).fold(Value::Unit, |v, _| Value::Inl(Rc::new(v)));
        let bytes = encoded(&nest(MAX_DEPTH));
        let mut r = ByteReader::new(&bytes);
        assert_eq!(
            decode_value(&mut r).map(|v| v.to_string()),
            Ok(nest(MAX_DEPTH).to_string())
        );
        let err = encode_value(&mut Vec::new(), &nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err,
            EvalError::NotSerializable(format!("<nested deeper than {MAX_DEPTH}>"))
        );
        // List tails do not count: a long list encodes.
        encoded(&Value::list((0..10 * MAX_DEPTH as i64).map(Value::Int)));
    }

    fn sample_ctl_msgs() -> Vec<CtlMsg> {
        use bsml_obs::FlightEvent;
        vec![
            CtlMsg::hello(0xdead_beef, 3, 8),
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
                        kind: FaultKind::Stall {
                            rank: 0,
                            superstep: 2,
                            delay: Duration::from_millis(7),
                        },
                        attempt: 2,
                    },
                    Fault {
                        kind: FaultKind::DropMessage {
                            from: 2,
                            to: 0,
                            superstep: 1,
                        },
                        attempt: 0,
                    },
                ],
                resume_frame: Some(vec![1, 2, 3, 4]),
            },
            CtlMsg::Reject {
                reason: "program fingerprint mismatch".to_string(),
            },
            CtlMsg::Data {
                dst: 5,
                frame: sample().encode(),
            },
            CtlMsg::Deliver {
                frame: sample().encode(),
            },
            CtlMsg::SendCounts {
                superstep: 9,
                to: vec![1, 0, 1, 1],
            },
            CtlMsg::RecvCounts {
                superstep: 9,
                from: vec![0, 1, 0, 2],
            },
            CtlMsg::Staged {
                frame: vec![9, 9, 9],
            },
            CtlMsg::Poison,
            CtlMsg::Fatal {
                error: EvalError::TransportFailure {
                    rank: 2,
                    superstep: 4,
                    detail: "socket closed".to_string(),
                },
                ledger: CtlLedger {
                    faults_injected: 1,
                    frames_sent: 12,
                    ..CtlLedger::default()
                },
                flight_dropped: 3,
                flight: vec![TimedFlightEvent {
                    lamport: 17,
                    event: FlightEvent::BarrierEnter { superstep: 4 },
                }],
            },
            CtlMsg::Done {
                value: encoded(&Value::pair(Value::Int(-7), Value::Bool(true))),
                stats: CtlStats {
                    sent_words: 10,
                    received_words: 10,
                    supersteps: 5,
                    puts: 5,
                    ifats: 0,
                },
                work: 12_345,
                ledger: CtlLedger::default(),
                flight_dropped: 0,
                flight: vec![],
            },
            CtlMsg::Ping { lamport: 99 },
            CtlMsg::Pong { lamport: 100 },
            CtlMsg::Rejoin {
                rank: 3,
                fingerprint: 0xdead_beef,
                completed_superstep: 7,
                resume_token: 31,
            },
            CtlMsg::RejoinOk { resume_token: 28 },
        ]
    }

    #[test]
    fn ctl_messages_roundtrip() {
        for msg in sample_ctl_msgs() {
            assert_eq!(CtlMsg::decode(&msg.encode()), Ok(msg));
        }
    }

    #[test]
    fn every_ctl_truncation_is_rejected() {
        for msg in sample_ctl_msgs() {
            let bytes = msg.encode();
            for cut in 0..bytes.len() {
                assert!(
                    CtlMsg::decode(&bytes[..cut]).is_err(),
                    "{msg:?} cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn every_ctl_bit_flip_is_rejected() {
        // One representative per direction keeps the quadratic scan
        // affordable; the checksum argument is the same for all tags.
        for msg in [
            CtlMsg::hello(7, 0, 4),
            CtlMsg::SendCounts {
                superstep: 2,
                to: vec![1, 0, 1],
            },
            CtlMsg::RecvCounts {
                superstep: 2,
                from: vec![0, 1, 1],
            },
            CtlMsg::Staged {
                frame: vec![9, 9, 9],
            },
        ] {
            let bytes = msg.encode();
            for i in 0..bytes.len() {
                for bit in 0..8 {
                    let mut corrupt = bytes.clone();
                    corrupt[i] ^= 1 << bit;
                    assert!(
                        CtlMsg::decode(&corrupt).is_err(),
                        "flip of bit {bit} at byte {i} went unnoticed"
                    );
                }
            }
        }
    }

    #[test]
    fn remote_errors_roundtrip_structurally() {
        let precise = [
            EvalError::PeerFailure,
            EvalError::OutOfFuel,
            EvalError::BarrierTimeout {
                superstep: 3,
                waiting: 2,
            },
            EvalError::InjectedFault {
                rank: 1,
                superstep: 2,
            },
            EvalError::TransportFailure {
                rank: 0,
                superstep: 5,
                detail: "EOF".to_string(),
            },
            EvalError::CheckpointDiverged {
                rank: 2,
                superstep: 4,
                detail: "value mismatch".to_string(),
            },
            EvalError::NotSerializable("<fun>".to_string()),
            EvalError::DivisionByZero,
            EvalError::RecursionLimit,
            EvalError::NestedParallelism,
        ];
        for err in precise {
            let mut out = Vec::new();
            encode_error(&mut out, &err);
            assert_eq!(decode_error(&mut ByteReader::new(&out)), Ok(err));
        }
        // Everything else degrades to its rendered form, never panics.
        let odd = EvalError::Unbound(bsml_ast::Ident::new("x"));
        let mut out = Vec::new();
        encode_error(&mut out, &odd);
        assert_eq!(
            decode_error(&mut ByteReader::new(&out)),
            Ok(EvalError::ScrutineeMismatch("remote rank", odd.to_string()))
        );
    }

    #[test]
    fn ctl_stream_reassembles_across_arbitrary_splits() {
        // A reader that returns ONE byte per `read` call: the worst
        // possible fragmentation a socket can produce. `read_ctl` must
        // reassemble the frame exactly.
        struct OneByte<'a>(&'a [u8]);
        impl std::io::Read for OneByte<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                match self.0.split_first() {
                    Some((b, rest)) => {
                        buf[0] = *b;
                        self.0 = rest;
                        Ok(1)
                    }
                    None => Ok(0),
                }
            }
        }
        for msg in sample_ctl_msgs() {
            let bytes = msg.encode();
            let mut stream = OneByte(&bytes);
            assert_eq!(read_ctl(&mut stream).unwrap(), msg);
        }
        // A stream that dies mid-frame surfaces as UnexpectedEof.
        let bytes = CtlMsg::Poison.encode();
        let mut short = OneByte(&bytes[..bytes.len() - 1]);
        let err = read_ctl(&mut short).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_ctl_prefix_is_rejected_before_allocating() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0; 64]);
        let err = read_ctl(&mut &bytes[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
