//! Postmortem bundles and the BSP cost-model analyzer (DESIGN.md
//! §12).
//!
//! When a distributed attempt fails, the supervisor drains every
//! rank's [flight recorder](bsml_obs::FlightRecorder) into one
//! [`PostmortemBundle`]: a checksummed, self-describing file of every
//! rank's last protocol events, each stamped with the rank's Lamport
//! clock. The bundle is deliberately *logical* — ranks, sequence
//! numbers, Lamport stamps, word counts, no wall-clock time — so a
//! seeded chaos run writes a byte-identical bundle every time, and a
//! bundle from one machine analyzes identically on any other. Each
//! rank's blob is sealed with its own FNV-1a trailer
//! ([`bsml_eval::bytes::seal`]), so a damaged rank is detected on its
//! own, and the whole file ends in a second trailer and a commit
//! marker.
//!
//! [`PostmortemBundle::analyze`] turns a bundle into an [`Analysis`]:
//!
//! * **causal consistency** — per-rank Lamport stamps strictly
//!   increase, per-link sequence numbers are monotone, and every
//!   received frame happens strictly *after* its send (with the
//!   send's stamp riding in the frame header, this is checkable from
//!   the receiver's log alone);
//! * **a superstep timeline** — per-superstep work, words sent and
//!   received per rank, wire bytes, and barrier spread, reconstructed
//!   from the per-rank [`FlightEvent::SuperstepEnd`] /
//!   [`FlightEvent::BarrierEnter`] records;
//! * **failure localization** — the (rank, superstep) the attempt
//!   died at, preferring an explicitly recorded
//!   [`FlightEvent::FaultFired`], then the error's own coordinate,
//!   then the rank whose clock stopped first.
//!
//! The timeline doubles as an *observed cost model*: on a clean run
//! its per-superstep `(w, h)` figures match the lockstep
//! [`BspMachine`](crate::BspMachine) oracle's [`RunReport`] exactly
//! (asserted in `tests/postmortem.rs`), and
//! [`Analysis::render`] prices each superstep against a
//! [`BspParams`] profile next to the observed barrier spread and
//! straggler imbalance.

use std::fmt;
use std::io;
use std::path::Path;

use bsml_eval::bytes::{open, put_str, put_u64, seal, ByteReader, CodecError};
use bsml_eval::EvalError;
use bsml_obs::{FlightEvent, TimedFlightEvent};

use crate::machine::{BspParams, RunReport};

/// File magic of a postmortem bundle (`BSMLPM01`).
pub const BUNDLE_MAGIC: u64 = u64::from_le_bytes(*b"BSMLPM01");
/// Trailing commit marker (`BSMLPMOK`): a bundle without it was cut
/// short mid-write and is rejected whole.
const DONE_MAGIC: u64 = u64::from_le_bytes(*b"BSMLPMOK");

/// The drained flight recorders of one distributed attempt, all
/// ranks. Produced by
/// [`DistMachine::run_recorded`](crate::DistMachine::run_recorded)
/// (and internally by the supervisor on every failed attempt).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightLog {
    /// One entry per rank, in rank order.
    pub ranks: Vec<RankFlightLog>,
}

/// One rank's drained flight recorder.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankFlightLog {
    /// The recording rank.
    pub rank: usize,
    /// Events evicted from the ring before the drain — non-zero means
    /// this log is a *suffix* of the rank's history, and the analyzer
    /// treats a missing send for an observed receive as inconclusive
    /// rather than a violation.
    pub dropped: u64,
    /// The retained events, oldest first (the rank's causal order).
    pub events: Vec<TimedFlightEvent>,
}

impl RankFlightLog {
    /// The rank's final Lamport stamp (0 for an empty log).
    #[must_use]
    pub fn last_lamport(&self) -> u64 {
        self.events.last().map_or(0, |e| e.lamport)
    }
}

/// A failed (or analyzed-clean) attempt's black box: the error, its
/// coordinate when the error carries one, and every rank's flight
/// log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PostmortemBundle {
    /// Machine width.
    pub p: usize,
    /// Which supervised attempt this was.
    pub attempt: u32,
    /// The failure's rendered error (empty for a clean-run bundle).
    pub error: String,
    /// The failing rank, when the error names one.
    pub error_rank: Option<u64>,
    /// The failing superstep, when the error names one.
    pub error_superstep: Option<u64>,
    /// Per-rank flight logs, in rank order.
    pub ranks: Vec<RankFlightLog>,
}

/// The (rank, superstep) coordinate an [`EvalError`] carries, if any.
/// Barrier timeouts name only the superstep — the stalled rank is
/// what the flight logs are for.
#[must_use]
pub fn error_coordinate(err: &EvalError) -> (Option<u64>, Option<u64>) {
    match err {
        EvalError::InjectedFault { rank, superstep }
        | EvalError::TransportFailure {
            rank, superstep, ..
        }
        | EvalError::CheckpointDiverged {
            rank, superstep, ..
        } => (Some(*rank as u64), Some(*superstep)),
        EvalError::BarrierTimeout { superstep, .. } => (None, Some(*superstep)),
        _ => (None, None),
    }
}

/// What can go wrong loading a bundle.
#[derive(Debug)]
pub enum PostmortemError {
    /// The file could not be read or written.
    Io(io::Error),
    /// The bytes are not a bundle (magic, marker, checksum,
    /// structure).
    Malformed(String),
    /// A primitive read failed: a truncated blob, a bad count or tag.
    Codec(CodecError),
}

impl fmt::Display for PostmortemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PostmortemError::Io(e) => write!(f, "postmortem i/o: {e}"),
            PostmortemError::Malformed(m) => write!(f, "malformed postmortem bundle: {m}"),
            PostmortemError::Codec(e) => write!(f, "malformed postmortem bundle: {e}"),
        }
    }
}

impl std::error::Error for PostmortemError {}

impl From<io::Error> for PostmortemError {
    fn from(e: io::Error) -> PostmortemError {
        PostmortemError::Io(e)
    }
}

impl From<CodecError> for PostmortemError {
    fn from(e: CodecError) -> PostmortemError {
        PostmortemError::Codec(e)
    }
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

/// Event tags, in [`FlightEvent`] declaration order.
const TAG_FRAME_SENT: u8 = 0;
const TAG_FRAME_RECEIVED: u8 = 1;
// Tags 2–4 (the retired ack and retransmission events) and 6 (the
// retired backpressure wait) stay unused.
const TAG_CORRUPT_REJECTED: u8 = 5;
const TAG_BARRIER_ENTER: u8 = 7;
const TAG_BARRIER_EXIT: u8 = 8;
const TAG_SUPERSTEP_END: u8 = 9;
const TAG_CHECKPOINT_STAGED: u8 = 10;
const TAG_CHECKPOINT_COMMITTED: u8 = 11;
const TAG_FAULT_FIRED: u8 = 12;
const TAG_LINK_DOWN: u8 = 13;
const TAG_LINK_UP: u8 = 14;

pub(crate) fn encode_event(out: &mut Vec<u8>, ev: &TimedFlightEvent) {
    let fields: (u8, [u64; 4], usize) = match ev.event {
        FlightEvent::FrameSent {
            to,
            seq,
            superstep,
            bytes,
        } => (TAG_FRAME_SENT, [to, seq, superstep, bytes], 4),
        FlightEvent::FrameReceived {
            from,
            seq,
            superstep,
            sent_lamport,
        } => (TAG_FRAME_RECEIVED, [from, seq, superstep, sent_lamport], 4),
        FlightEvent::CorruptRejected => (TAG_CORRUPT_REJECTED, [0, 0, 0, 0], 0),
        FlightEvent::BarrierEnter { superstep } => (TAG_BARRIER_ENTER, [superstep, 0, 0, 0], 1),
        FlightEvent::BarrierExit { superstep } => (TAG_BARRIER_EXIT, [superstep, 0, 0, 0], 1),
        FlightEvent::SuperstepEnd {
            superstep,
            work,
            sent_words,
            received_words,
        } => (
            TAG_SUPERSTEP_END,
            [superstep, work, sent_words, received_words],
            4,
        ),
        FlightEvent::CheckpointStaged { generation } => {
            (TAG_CHECKPOINT_STAGED, [generation, 0, 0, 0], 1)
        }
        FlightEvent::CheckpointCommitted { generation } => {
            (TAG_CHECKPOINT_COMMITTED, [generation, 0, 0, 0], 1)
        }
        FlightEvent::FaultFired { superstep, kind } => {
            (TAG_FAULT_FIRED, [superstep, kind, 0, 0], 2)
        }
        FlightEvent::LinkDown { rank, superstep } => (TAG_LINK_DOWN, [rank, superstep, 0, 0], 2),
        FlightEvent::LinkUp { rank, superstep } => (TAG_LINK_UP, [rank, superstep, 0, 0], 2),
    };
    let (tag, vals, n) = fields;
    out.push(tag);
    put_u64(out, ev.lamport);
    for v in &vals[..n] {
        put_u64(out, *v);
    }
}

pub(crate) fn decode_event(r: &mut ByteReader<'_>) -> Result<TimedFlightEvent, CodecError> {
    let tag = r.u8()?;
    let lamport = r.u64()?;
    let event = match tag {
        TAG_FRAME_SENT => FlightEvent::FrameSent {
            to: r.u64()?,
            seq: r.u64()?,
            superstep: r.u64()?,
            bytes: r.u64()?,
        },
        TAG_FRAME_RECEIVED => FlightEvent::FrameReceived {
            from: r.u64()?,
            seq: r.u64()?,
            superstep: r.u64()?,
            sent_lamport: r.u64()?,
        },
        TAG_CORRUPT_REJECTED => FlightEvent::CorruptRejected,
        TAG_BARRIER_ENTER => FlightEvent::BarrierEnter {
            superstep: r.u64()?,
        },
        TAG_BARRIER_EXIT => FlightEvent::BarrierExit {
            superstep: r.u64()?,
        },
        TAG_SUPERSTEP_END => FlightEvent::SuperstepEnd {
            superstep: r.u64()?,
            work: r.u64()?,
            sent_words: r.u64()?,
            received_words: r.u64()?,
        },
        TAG_CHECKPOINT_STAGED => FlightEvent::CheckpointStaged {
            generation: r.u64()?,
        },
        TAG_CHECKPOINT_COMMITTED => FlightEvent::CheckpointCommitted {
            generation: r.u64()?,
        },
        TAG_FAULT_FIRED => FlightEvent::FaultFired {
            superstep: r.u64()?,
            kind: r.u64()?,
        },
        TAG_LINK_DOWN => FlightEvent::LinkDown {
            rank: r.u64()?,
            superstep: r.u64()?,
        },
        TAG_LINK_UP => FlightEvent::LinkUp {
            rank: r.u64()?,
            superstep: r.u64()?,
        },
        tag => {
            return Err(CodecError::BadTag {
                what: "flight event",
                tag,
            })
        }
    };
    Ok(TimedFlightEvent { lamport, event })
}

impl PostmortemBundle {
    /// Assembles a bundle from an attempt's error (empty string for a
    /// clean-run bundle), its coordinate, and the drained flight log.
    #[must_use]
    pub fn new(
        p: usize,
        attempt: u32,
        error: String,
        error_rank: Option<u64>,
        error_superstep: Option<u64>,
        log: FlightLog,
    ) -> PostmortemBundle {
        PostmortemBundle {
            p,
            attempt,
            error,
            error_rank,
            error_superstep,
            ranks: log.ranks,
        }
    }

    /// Serializes the bundle: magic, header, one length-prefixed and
    /// sealed blob per rank (a corrupted rank blob is detected on its
    /// own), the whole-file FNV-1a trailer ([`seal`]) and the commit
    /// marker.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        put_u64(&mut out, BUNDLE_MAGIC);
        put_u64(&mut out, self.p as u64);
        put_u64(&mut out, u64::from(self.attempt));
        for opt in [self.error_rank, self.error_superstep] {
            match opt {
                Some(v) => {
                    out.push(1);
                    put_u64(&mut out, v);
                }
                None => out.push(0),
            }
        }
        put_str(&mut out, &self.error);
        put_u64(&mut out, self.ranks.len() as u64);
        for rank in &self.ranks {
            let len_at = out.len();
            put_u64(&mut out, 0); // the blob's length prefix
            put_u64(&mut out, rank.rank as u64);
            put_u64(&mut out, rank.dropped);
            put_u64(&mut out, rank.events.len() as u64);
            for ev in &rank.events {
                encode_event(&mut out, ev);
            }
            seal(&mut out, len_at + 8);
            let blob_len = (out.len() - len_at - 8) as u64;
            out[len_at..len_at + 8].copy_from_slice(&blob_len.to_le_bytes());
        }
        seal(&mut out, 0);
        put_u64(&mut out, DONE_MAGIC);
        out
    }

    /// Parses and verifies a bundle (magic, commit marker, whole-file
    /// checksum, then every rank blob's own checksum).
    ///
    /// # Errors
    ///
    /// [`PostmortemError::Malformed`] or [`PostmortemError::Codec`] on
    /// anything that does not verify.
    pub fn decode(bytes: &[u8]) -> Result<PostmortemBundle, PostmortemError> {
        if bytes.len() < 8 + 8 + 8 {
            return Err(PostmortemError::Malformed("bundle too short".into()));
        }
        let (sealed, done) = bytes.split_at(bytes.len() - 8);
        if done != DONE_MAGIC.to_le_bytes() {
            return Err(PostmortemError::Malformed(
                "missing commit marker (write was cut short)".into(),
            ));
        }
        let body =
            open(sealed).map_err(|_| PostmortemError::Malformed("checksum mismatch".into()))?;
        let mut r = ByteReader::new(body);
        if r.u64()? != BUNDLE_MAGIC {
            return Err(PostmortemError::Malformed("bad magic".into()));
        }
        let p = r.u64()? as usize;
        let attempt = u32::try_from(r.u64()?)
            .map_err(|_| PostmortemError::Malformed("attempt out of range".into()))?;
        let mut opts = [None, None];
        for slot in &mut opts {
            *slot = match r.u8()? {
                0 => None,
                1 => Some(r.u64()?),
                other => {
                    return Err(PostmortemError::Malformed(format!(
                        "bad option tag {other}"
                    )))
                }
            };
        }
        let error = r.str()?;
        let nranks = r.count()?;
        let mut ranks = Vec::with_capacity(nranks);
        for _ in 0..nranks {
            let blob = r.bytes()?;
            let blob_body =
                open(blob).map_err(|e| PostmortemError::Malformed(format!("rank blob: {e}")))?;
            let mut br = ByteReader::new(blob_body);
            let rank = br.u64()? as usize;
            let dropped = br.u64()?;
            let n = br.count()?;
            let mut events = Vec::with_capacity(n);
            for _ in 0..n {
                events.push(decode_event(&mut br)?);
            }
            br.finish()?;
            ranks.push(RankFlightLog {
                rank,
                dropped,
                events,
            });
        }
        r.finish()?;
        Ok(PostmortemBundle {
            p,
            attempt,
            error,
            error_rank: opts[0],
            error_superstep: opts[1],
            ranks,
        })
    }

    /// Writes the encoded bundle to `path`: into a temporary sibling
    /// first, then renamed over `path`, so a crash mid-write leaves the
    /// previous bundle (or none), never a torn one.
    ///
    /// # Errors
    ///
    /// [`PostmortemError::Io`].
    pub fn write_to(&self, path: &Path) -> Result<(), PostmortemError> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.encode())?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Loads and verifies a bundle from `path`.
    ///
    /// # Errors
    ///
    /// Any [`PostmortemError`].
    pub fn load(path: &Path) -> Result<PostmortemBundle, PostmortemError> {
        let bytes = std::fs::read(path)?;
        PostmortemBundle::decode(&bytes)
    }
}

// ---------------------------------------------------------------------------
// Analyzer
// ---------------------------------------------------------------------------

/// A causal-consistency violation found in a bundle. On a correct
/// runtime none of these are producible — each one is a runtime bug
/// (or a forged bundle), not a user error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CausalViolation {
    /// A rank's Lamport stamps did not strictly increase.
    NonMonotonicClock {
        /// The offending rank.
        rank: usize,
        /// Index of the offending event in the rank's log.
        index: usize,
        /// The preceding stamp.
        prev: u64,
        /// The non-increasing stamp.
        next: u64,
    },
    /// A frame was received at a stamp not strictly after its send.
    ReceiveBeforeSend {
        /// The receiving rank.
        rank: usize,
        /// The sending rank.
        from: usize,
        /// The frame's per-link sequence number.
        seq: u64,
        /// The sender's stamp, from the frame header.
        sent_lamport: u64,
        /// The receiver's stamp at acceptance.
        recv_lamport: u64,
    },
    /// A receive has no matching send in the sender's *complete* log
    /// (`dropped == 0` — an evicted-ring sender is inconclusive and
    /// not reported).
    MissingSend {
        /// The receiving rank.
        rank: usize,
        /// The claimed sending rank.
        from: usize,
        /// The frame's per-link sequence number.
        seq: u64,
    },
    /// The sender's recorded stamp for (to, seq) disagrees with the
    /// stamp the receiver saw in the frame header.
    StampMismatch {
        /// The receiving rank.
        rank: usize,
        /// The sending rank.
        from: usize,
        /// The frame's per-link sequence number.
        seq: u64,
        /// The stamp in the sender's log.
        sender_recorded: u64,
        /// The stamp in the received frame header.
        receiver_saw: u64,
    },
    /// Accepted sequence numbers on one link went backwards (or
    /// repeated).
    SeqRegression {
        /// The receiving rank.
        rank: usize,
        /// The sending rank.
        from: usize,
        /// The previously accepted sequence number.
        prev: u64,
        /// The regressed sequence number.
        next: u64,
    },
}

impl fmt::Display for CausalViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CausalViolation::NonMonotonicClock {
                rank,
                index,
                prev,
                next,
            } => write!(
                f,
                "rank {rank}: Lamport clock went {prev} -> {next} at event {index}"
            ),
            CausalViolation::ReceiveBeforeSend {
                rank,
                from,
                seq,
                sent_lamport,
                recv_lamport,
            } => write!(
                f,
                "rank {rank}: frame {from}->{rank} seq {seq} received at stamp \
                 {recv_lamport}, not after its send at {sent_lamport}"
            ),
            CausalViolation::MissingSend { rank, from, seq } => write!(
                f,
                "rank {rank}: received frame {from}->{rank} seq {seq}, but rank {from}'s \
                 complete log never sent it"
            ),
            CausalViolation::StampMismatch {
                rank,
                from,
                seq,
                sender_recorded,
                receiver_saw,
            } => write!(
                f,
                "frame {from}->{rank} seq {seq}: sender recorded stamp {sender_recorded}, \
                 receiver saw {receiver_saw}"
            ),
            CausalViolation::SeqRegression {
                rank,
                from,
                prev,
                next,
            } => write!(
                f,
                "rank {rank}: link {from}->{rank} accepted seq {next} after {prev}"
            ),
        }
    }
}

/// One superstep of the reconstructed timeline: per-rank local
/// accounting plus the barrier's logical geometry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SuperstepObservation {
    /// The superstep index.
    pub superstep: u64,
    /// Fuel burned per rank (index = rank; 0 where unreported).
    pub work: Vec<u64>,
    /// Words sent per rank (self-messages excluded).
    pub sent_words: Vec<u64>,
    /// Words received per rank.
    pub received_words: Vec<u64>,
    /// Which ranks contributed a [`FlightEvent::SuperstepEnd`] — a
    /// crashed rank leaves a hole here, which is itself a diagnostic.
    pub reported: Vec<bool>,
    /// Encoded wire bytes of every data frame sent this superstep
    /// (protocol overhead included — dividing by the h-relation gives
    /// an *observed* per-word gap).
    pub bytes_on_wire: u64,
    /// `max - min` of the ranks' barrier-arrival Lamport stamps: how
    /// logically spread-out the barrier entry was (stragglers widen
    /// it).
    pub barrier_spread: u64,
    /// `max` over ranks of the barrier's enter-to-exit stamp delta:
    /// the observed logical barrier latency (the analogue of `l`).
    pub barrier_latency: u64,
}

impl SuperstepObservation {
    fn empty(superstep: u64, p: usize) -> SuperstepObservation {
        SuperstepObservation {
            superstep,
            work: vec![0; p],
            sent_words: vec![0; p],
            received_words: vec![0; p],
            reported: vec![false; p],
            bytes_on_wire: 0,
            barrier_spread: 0,
            barrier_latency: 0,
        }
    }

    /// `max_i w_i`: the superstep's work term.
    #[must_use]
    pub fn max_work(&self) -> u64 {
        self.work.iter().copied().max().unwrap_or(0)
    }

    /// `max_i max(h_i⁺, h_i⁻)`: the superstep's h-relation in words.
    #[must_use]
    pub fn h_relation(&self) -> u64 {
        (0..self.work.len())
            .map(|i| self.sent_words[i].max(self.received_words[i]))
            .max()
            .unwrap_or(0)
    }

    /// Straggler imbalance `max_i w_i / avg_i w_i` over reporting
    /// ranks (1.0 for a perfectly balanced superstep, 0.0 when no
    /// rank reported work).
    #[must_use]
    pub fn imbalance(&self) -> f64 {
        let reporting: Vec<u64> = self
            .reported
            .iter()
            .zip(&self.work)
            .filter(|(r, _)| **r)
            .map(|(_, w)| *w)
            .collect();
        if reporting.is_empty() {
            return 0.0;
        }
        let sum: u64 = reporting.iter().sum();
        if sum == 0 {
            return 0.0;
        }
        let max = reporting.iter().copied().max().unwrap_or(0);
        #[allow(clippy::cast_precision_loss)]
        {
            max as f64 * reporting.len() as f64 / sum as f64
        }
    }
}

/// Where (and on what) the attempt died.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FailureReport {
    /// The failing rank.
    pub rank: usize,
    /// The superstep the failure landed in.
    pub superstep: u64,
    /// The failing rank's last recorded event, rendered.
    pub last_event: String,
}

/// The analyzer's verdict on one bundle.
#[derive(Clone, Debug, PartialEq)]
pub struct Analysis {
    /// Causal-consistency violations (empty on every bundle a correct
    /// runtime writes).
    pub violations: Vec<CausalViolation>,
    /// The reconstructed per-superstep timeline, ascending.
    pub timeline: Vec<SuperstepObservation>,
    /// The localized failure (`None` for a clean-run bundle).
    pub failure: Option<FailureReport>,
}

impl PostmortemBundle {
    /// Runs the causal checks, reconstructs the superstep timeline,
    /// and localizes the failure.
    #[must_use]
    pub fn analyze(&self) -> Analysis {
        Analysis {
            violations: self.check_causality(),
            timeline: self.reconstruct_timeline(),
            failure: self.localize_failure(),
        }
    }

    fn check_causality(&self) -> Vec<CausalViolation> {
        let mut violations = Vec::new();
        // Per-rank clocks strictly increase.
        for log in &self.ranks {
            for (i, pair) in log.events.windows(2).enumerate() {
                if pair[1].lamport <= pair[0].lamport {
                    violations.push(CausalViolation::NonMonotonicClock {
                        rank: log.rank,
                        index: i + 1,
                        prev: pair[0].lamport,
                        next: pair[1].lamport,
                    });
                }
            }
        }
        // Per-link accepted sequence numbers are monotone, and every
        // receive happens strictly after its send.
        for log in &self.ranks {
            let mut last_seq: Vec<Option<u64>> = vec![None; self.p];
            for ev in &log.events {
                let FlightEvent::FrameReceived {
                    from,
                    seq,
                    sent_lamport,
                    ..
                } = ev.event
                else {
                    continue;
                };
                let from = from as usize;
                if from < self.p {
                    if let Some(prev) = last_seq[from] {
                        if seq <= prev {
                            violations.push(CausalViolation::SeqRegression {
                                rank: log.rank,
                                from,
                                prev,
                                next: seq,
                            });
                        }
                    }
                    last_seq[from] = Some(seq);
                }
                if ev.lamport <= sent_lamport {
                    violations.push(CausalViolation::ReceiveBeforeSend {
                        rank: log.rank,
                        from,
                        seq,
                        sent_lamport,
                        recv_lamport: ev.lamport,
                    });
                }
                // Pair the receive with the sender's own record. A
                // sender whose ring evicted events is inconclusive.
                let Some(sender) = self.ranks.iter().find(|l| l.rank == from) else {
                    continue;
                };
                let matching = sender.events.iter().find_map(|sev| match sev.event {
                    FlightEvent::FrameSent { to, seq: sseq, .. }
                        if to as usize == log.rank && sseq == seq =>
                    {
                        Some(sev.lamport)
                    }
                    _ => None,
                });
                match matching {
                    Some(recorded) if recorded != sent_lamport => {
                        violations.push(CausalViolation::StampMismatch {
                            rank: log.rank,
                            from,
                            seq,
                            sender_recorded: recorded,
                            receiver_saw: sent_lamport,
                        });
                    }
                    None if sender.dropped == 0 => {
                        violations.push(CausalViolation::MissingSend {
                            rank: log.rank,
                            from,
                            seq,
                        });
                    }
                    _ => {}
                }
            }
        }
        violations
    }

    fn reconstruct_timeline(&self) -> Vec<SuperstepObservation> {
        use std::collections::BTreeMap;
        let mut steps: BTreeMap<u64, SuperstepObservation> = BTreeMap::new();
        // Barrier stamps per (superstep, rank): first enter, first
        // exit.
        let mut enters: BTreeMap<u64, Vec<Option<u64>>> = BTreeMap::new();
        let mut exits: BTreeMap<u64, Vec<Option<u64>>> = BTreeMap::new();
        for log in &self.ranks {
            let rank = log.rank;
            if rank >= self.p {
                continue;
            }
            for ev in &log.events {
                match ev.event {
                    FlightEvent::SuperstepEnd {
                        superstep,
                        work,
                        sent_words,
                        received_words,
                    } => {
                        let obs = steps
                            .entry(superstep)
                            .or_insert_with(|| SuperstepObservation::empty(superstep, self.p));
                        obs.work[rank] = work;
                        obs.sent_words[rank] = sent_words;
                        obs.received_words[rank] = received_words;
                        obs.reported[rank] = true;
                    }
                    FlightEvent::FrameSent {
                        superstep, bytes, ..
                    } => {
                        steps
                            .entry(superstep)
                            .or_insert_with(|| SuperstepObservation::empty(superstep, self.p))
                            .bytes_on_wire += bytes;
                    }
                    FlightEvent::BarrierEnter { superstep } => {
                        let slots = enters
                            .entry(superstep)
                            .or_insert_with(|| vec![None; self.p]);
                        if slots[rank].is_none() {
                            slots[rank] = Some(ev.lamport);
                        }
                    }
                    FlightEvent::BarrierExit { superstep } => {
                        let slots = exits.entry(superstep).or_insert_with(|| vec![None; self.p]);
                        if slots[rank].is_none() {
                            slots[rank] = Some(ev.lamport);
                        }
                    }
                    _ => {}
                }
            }
        }
        for (superstep, enter) in &enters {
            let obs = steps
                .entry(*superstep)
                .or_insert_with(|| SuperstepObservation::empty(*superstep, self.p));
            let stamps: Vec<u64> = enter.iter().flatten().copied().collect();
            if stamps.len() >= 2 {
                let min = stamps.iter().copied().min().unwrap_or(0);
                let max = stamps.iter().copied().max().unwrap_or(0);
                obs.barrier_spread = max - min;
            }
            if let Some(exit) = exits.get(superstep) {
                obs.barrier_latency = enter
                    .iter()
                    .zip(exit)
                    .filter_map(|(en, ex)| match (en, ex) {
                        (Some(en), Some(ex)) => Some(ex.saturating_sub(*en)),
                        _ => None,
                    })
                    .max()
                    .unwrap_or(0);
            }
        }
        steps.into_values().collect()
    }

    fn localize_failure(&self) -> Option<FailureReport> {
        if self.error.is_empty() {
            return None;
        }
        let last_event_of = |rank: usize| -> String {
            self.ranks
                .iter()
                .find(|l| l.rank == rank)
                .and_then(|l| l.events.last())
                .map_or_else(
                    || "(no events recorded)".to_string(),
                    |e| format!("{:?} @ lamport {}", e.event, e.lamport),
                )
        };
        // 1. An explicitly recorded terminal fault (crash, panic or
        //    stall — a message drop is repaired, not terminal).
        let mut fault: Option<(u64, usize, u64)> = None;
        for log in &self.ranks {
            for ev in &log.events {
                if let FlightEvent::FaultFired { superstep, kind } = ev.event {
                    if kind != 2 && fault.is_none_or(|(l, _, _)| ev.lamport < l) {
                        fault = Some((ev.lamport, log.rank, superstep));
                    }
                }
            }
        }
        if let Some((_, rank, superstep)) = fault {
            return Some(FailureReport {
                rank,
                superstep,
                last_event: last_event_of(rank),
            });
        }
        // 2. The error's own coordinate.
        if let Some(rank) = self.error_rank {
            let rank = rank as usize;
            let superstep = self
                .error_superstep
                .unwrap_or_else(|| self.last_superstep_of(rank));
            return Some(FailureReport {
                rank,
                superstep,
                last_event: last_event_of(rank),
            });
        }
        // 3. The rank whose clock stopped first — for barrier
        //    timeouts and peer failures, the quietest rank is the one
        //    the others were waiting on.
        let rank = self
            .ranks
            .iter()
            .min_by_key(|l| l.last_lamport())
            .map(|l| l.rank)?;
        let superstep = self
            .error_superstep
            .unwrap_or_else(|| self.last_superstep_of(rank));
        Some(FailureReport {
            rank,
            superstep,
            last_event: last_event_of(rank),
        })
    }

    /// The last superstep coordinate rank `rank`'s events mention.
    fn last_superstep_of(&self, rank: usize) -> u64 {
        let Some(log) = self.ranks.iter().find(|l| l.rank == rank) else {
            return 0;
        };
        log.events
            .iter()
            .rev()
            .find_map(|ev| match ev.event {
                FlightEvent::FrameSent { superstep, .. }
                | FlightEvent::FrameReceived { superstep, .. }
                | FlightEvent::BarrierEnter { superstep }
                | FlightEvent::BarrierExit { superstep }
                | FlightEvent::SuperstepEnd { superstep, .. }
                | FlightEvent::FaultFired { superstep, .. }
                | FlightEvent::LinkDown { superstep, .. }
                | FlightEvent::LinkUp { superstep, .. } => Some(superstep),
                _ => None,
            })
            .unwrap_or(0)
    }
}

impl Analysis {
    /// Whether the bundle's timeline is causally consistent.
    #[must_use]
    pub fn is_causally_consistent(&self) -> bool {
        self.violations.is_empty()
    }

    /// Differences between this timeline and a lockstep oracle's
    /// [`RunReport`] (empty = the observed per-superstep `(w, h⁺,
    /// h⁻)` figures match the cost model exactly). Only the first
    /// `report.cost.supersteps` lockstep records are compared — the
    /// trailing record is the barrier-free program tail, which the
    /// distributed recorder (correctly) never sees.
    #[must_use]
    pub fn diff_report(&self, report: &RunReport) -> Vec<String> {
        let mut diffs = Vec::new();
        let supersteps = report.cost.supersteps as usize;
        if self.timeline.len() != supersteps {
            diffs.push(format!(
                "timeline has {} supersteps, oracle has {supersteps}",
                self.timeline.len()
            ));
            return diffs;
        }
        for (s, obs) in self.timeline.iter().enumerate() {
            let Some(rec) = report.trace.get(s) else {
                break;
            };
            if obs.superstep != s as u64 {
                diffs.push(format!(
                    "superstep {s}: observation is labelled {}",
                    obs.superstep
                ));
                continue;
            }
            if let Some(missing) = obs.reported.iter().position(|r| !r) {
                diffs.push(format!("superstep {s}: rank {missing} never reported"));
                continue;
            }
            if obs.work != rec.work {
                diffs.push(format!(
                    "superstep {s}: observed work {:?}, oracle {:?}",
                    obs.work, rec.work
                ));
            }
            if obs.sent_words != rec.sent {
                diffs.push(format!(
                    "superstep {s}: observed sent {:?}, oracle {:?}",
                    obs.sent_words, rec.sent
                ));
            }
            if obs.received_words != rec.received {
                diffs.push(format!(
                    "superstep {s}: observed received {:?}, oracle {:?}",
                    obs.received_words, rec.received
                ));
            }
        }
        diffs
    }

    /// `true` iff the timeline matches the oracle exactly (see
    /// [`Analysis::diff_report`]).
    #[must_use]
    pub fn matches_report(&self, report: &RunReport) -> bool {
        self.diff_report(report).is_empty()
    }

    /// Renders the analysis as a human-readable report. With `params`
    /// each superstep is additionally priced by the BSP cost
    /// expression `w + h·g + l` next to its observed logical figures.
    #[must_use]
    pub fn render(&self, params: Option<&BspParams>) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        match &self.failure {
            Some(f) => {
                let _ = writeln!(
                    out,
                    "failure localized to rank {} at superstep {}",
                    f.rank, f.superstep
                );
                let _ = writeln!(out, "  last event: {}", f.last_event);
            }
            None => {
                let _ = writeln!(out, "clean run (no failure recorded)");
            }
        }
        if self.violations.is_empty() {
            let _ = writeln!(out, "causal consistency: OK");
        } else {
            let _ = writeln!(
                out,
                "causal consistency: {} violation(s)",
                self.violations.len()
            );
            for v in &self.violations {
                let _ = writeln!(out, "  - {v}");
            }
        }
        let _ = writeln!(out, "timeline ({} superstep(s)):", self.timeline.len());
        for obs in &self.timeline {
            let w = obs.max_work();
            let h = obs.h_relation();
            let _ = write!(
                out,
                "  s{}: w={w} h={h} wire_bytes={} spread={} l_obs={} imbalance={:.2}",
                obs.superstep,
                obs.bytes_on_wire,
                obs.barrier_spread,
                obs.barrier_latency,
                obs.imbalance()
            );
            if let Some(p) = params {
                let _ = write!(out, " cost={}", w + h * p.g + p.l);
            }
            if let Some(missing) = obs.reported.iter().position(|r| !r) {
                let _ = write!(out, " [rank {missing} missing]");
            }
            let _ = writeln!(out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bundle() -> PostmortemBundle {
        PostmortemBundle {
            p: 2,
            attempt: 1,
            error: "injected fault: processor 1 crashed at superstep 0".into(),
            error_rank: Some(1),
            error_superstep: Some(0),
            ranks: vec![
                RankFlightLog {
                    rank: 0,
                    dropped: 0,
                    events: vec![TimedFlightEvent {
                        lamport: 1,
                        event: FlightEvent::FrameSent {
                            to: 1,
                            seq: 0,
                            superstep: 0,
                            bytes: 42,
                        },
                    }],
                },
                RankFlightLog {
                    rank: 1,
                    dropped: 3,
                    events: vec![TimedFlightEvent {
                        lamport: 1,
                        event: FlightEvent::FaultFired {
                            superstep: 0,
                            kind: 0,
                        },
                    }],
                },
            ],
        }
    }

    #[test]
    fn bundle_round_trips() {
        let bundle = sample_bundle();
        let bytes = bundle.encode();
        let back = PostmortemBundle::decode(&bytes).expect("round trip");
        assert_eq!(back, bundle);
    }

    #[test]
    fn every_event_kind_round_trips() {
        let events = vec![
            FlightEvent::FrameSent {
                to: 1,
                seq: 2,
                superstep: 3,
                bytes: 4,
            },
            FlightEvent::FrameReceived {
                from: 1,
                seq: 2,
                superstep: 3,
                sent_lamport: 4,
            },
            FlightEvent::CorruptRejected,
            FlightEvent::BarrierEnter { superstep: 1 },
            FlightEvent::BarrierExit { superstep: 1 },
            FlightEvent::SuperstepEnd {
                superstep: 1,
                work: 2,
                sent_words: 3,
                received_words: 4,
            },
            FlightEvent::CheckpointStaged { generation: 1 },
            FlightEvent::CheckpointCommitted { generation: 1 },
            FlightEvent::FaultFired {
                superstep: 1,
                kind: 2,
            },
            FlightEvent::LinkDown {
                rank: 1,
                superstep: 2,
            },
            FlightEvent::LinkUp {
                rank: 1,
                superstep: 2,
            },
        ];
        let bundle = PostmortemBundle {
            p: 2,
            attempt: 0,
            error: String::new(),
            error_rank: None,
            error_superstep: None,
            ranks: vec![RankFlightLog {
                rank: 0,
                dropped: 0,
                events: events
                    .into_iter()
                    .enumerate()
                    .map(|(i, event)| TimedFlightEvent {
                        lamport: i as u64 + 1,
                        event,
                    })
                    .collect(),
            }],
        };
        let back = PostmortemBundle::decode(&bundle.encode()).expect("round trip");
        assert_eq!(back, bundle);
    }

    #[test]
    fn truncated_and_corrupt_bundles_are_rejected() {
        let bytes = sample_bundle().encode();
        // Cut short: loses the commit marker.
        assert!(PostmortemBundle::decode(&bytes[..bytes.len() - 8]).is_err());
        // One flipped byte: the whole-file checksum catches it.
        let mut flipped = bytes.clone();
        flipped[9] ^= 0xff;
        assert!(PostmortemBundle::decode(&flipped).is_err());
        // Garbage is not a bundle.
        assert!(PostmortemBundle::decode(b"not a bundle").is_err());
    }

    #[test]
    fn overwriting_a_bundle_leaves_the_new_one_whole() {
        let dir = std::env::temp_dir().join(format!("bsml-pm-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pm-rank0.bsmlpm");
        sample_bundle().write_to(&path).unwrap();
        let newer = PostmortemBundle {
            error: "a later failure".into(),
            ..sample_bundle()
        };
        newer.write_to(&path).unwrap();
        assert_eq!(PostmortemBundle::load(&path).unwrap(), newer);
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name())
            .collect();
        assert_eq!(names, ["pm-rank0.bsmlpm"], "no temporary file is left");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn analyzer_localizes_a_recorded_fault() {
        let analysis = sample_bundle().analyze();
        assert!(
            analysis.is_causally_consistent(),
            "{:?}",
            analysis.violations
        );
        let failure = analysis.failure.expect("failed bundle");
        assert_eq!((failure.rank, failure.superstep), (1, 0));
        assert!(failure.last_event.contains("FaultFired"));
    }

    #[test]
    fn analyzer_flags_receive_before_send() {
        let mut bundle = sample_bundle();
        // Rank 1 claims to have received rank 0's seq-0 frame at a
        // stamp not after the send stamp it carries.
        bundle.ranks[1].events = vec![TimedFlightEvent {
            lamport: 1,
            event: FlightEvent::FrameReceived {
                from: 0,
                seq: 0,
                superstep: 0,
                sent_lamport: 5,
            },
        }];
        let analysis = bundle.analyze();
        assert!(analysis.violations.iter().any(|v| matches!(
            v,
            CausalViolation::ReceiveBeforeSend {
                rank: 1,
                from: 0,
                ..
            }
        )));
        // And the stamp disagrees with the sender's record (1 vs 5).
        assert!(analysis
            .violations
            .iter()
            .any(|v| matches!(v, CausalViolation::StampMismatch { .. })));
    }

    #[test]
    fn analyzer_flags_a_stopped_clock() {
        let mut bundle = sample_bundle();
        bundle.ranks[0].events = vec![
            TimedFlightEvent {
                lamport: 5,
                event: FlightEvent::BarrierEnter { superstep: 0 },
            },
            TimedFlightEvent {
                lamport: 5,
                event: FlightEvent::BarrierExit { superstep: 0 },
            },
        ];
        let analysis = bundle.analyze();
        assert!(analysis
            .violations
            .iter()
            .any(|v| matches!(v, CausalViolation::NonMonotonicClock { rank: 0, .. })));
    }

    #[test]
    fn timeline_reconstructs_barrier_geometry() {
        let bundle = PostmortemBundle {
            p: 2,
            attempt: 0,
            error: String::new(),
            error_rank: None,
            error_superstep: None,
            ranks: vec![
                RankFlightLog {
                    rank: 0,
                    dropped: 0,
                    events: vec![
                        TimedFlightEvent {
                            lamport: 3,
                            event: FlightEvent::SuperstepEnd {
                                superstep: 0,
                                work: 10,
                                sent_words: 1,
                                received_words: 2,
                            },
                        },
                        TimedFlightEvent {
                            lamport: 4,
                            event: FlightEvent::BarrierEnter { superstep: 0 },
                        },
                        TimedFlightEvent {
                            lamport: 9,
                            event: FlightEvent::BarrierExit { superstep: 0 },
                        },
                    ],
                },
                RankFlightLog {
                    rank: 1,
                    dropped: 0,
                    events: vec![
                        TimedFlightEvent {
                            lamport: 6,
                            event: FlightEvent::SuperstepEnd {
                                superstep: 0,
                                work: 30,
                                sent_words: 2,
                                received_words: 1,
                            },
                        },
                        TimedFlightEvent {
                            lamport: 7,
                            event: FlightEvent::BarrierEnter { superstep: 0 },
                        },
                        TimedFlightEvent {
                            lamport: 8,
                            event: FlightEvent::BarrierExit { superstep: 0 },
                        },
                    ],
                },
            ],
        };
        let analysis = bundle.analyze();
        assert!(analysis.failure.is_none());
        assert_eq!(analysis.timeline.len(), 1);
        let obs = &analysis.timeline[0];
        assert_eq!(obs.work, vec![10, 30]);
        assert_eq!(obs.max_work(), 30);
        assert_eq!(obs.h_relation(), 2);
        assert_eq!(obs.barrier_spread, 3); // enters at 4 and 7
        assert_eq!(obs.barrier_latency, 5); // rank 0: 4 -> 9
        assert!((obs.imbalance() - 1.5).abs() < 1e-9); // 30 / 20
        let rendered = analysis.render(Some(&BspParams::new(2, 10, 100)));
        assert!(rendered.contains("s0: w=30 h=2"));
        assert!(rendered.contains("cost=150")); // 30 + 2*10 + 100
    }

    #[test]
    fn error_coordinates_are_extracted() {
        assert_eq!(
            error_coordinate(&EvalError::InjectedFault {
                rank: 1,
                superstep: 2
            }),
            (Some(1), Some(2))
        );
        assert_eq!(
            error_coordinate(&EvalError::BarrierTimeout {
                superstep: 3,
                waiting: 1
            }),
            (None, Some(3))
        );
        assert_eq!(
            error_coordinate(&EvalError::TransportFailure {
                rank: 3,
                superstep: 0,
                detail: "undecodable frame".to_string()
            }),
            (Some(3), Some(0))
        );
        assert_eq!(error_coordinate(&EvalError::PeerFailure), (None, None));
    }
}
