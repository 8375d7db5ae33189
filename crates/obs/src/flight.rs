//! The crash-time **flight recorder**: a fixed-capacity per-rank ring
//! buffer of protocol-level events, each stamped with the rank's
//! Lamport clock (DESIGN.md §12).
//!
//! The recorder is the black box of a distributed attempt. Every rank
//! records what its exchange engine and barrier discipline did —
//! frames sent/received/corrupt-rejected, barrier enter/exit,
//! checkpoint stage/commit, fault firings, link loss and healing — at
//! a cost of one short mutex-protected push per event. The buffer is
//! the workspace's one [`Ring`](crate::Ring): when it is full the
//! *oldest* event is evicted (and counted), so a long healthy run keeps
//! only its recent past:
//! exactly what a postmortem wants. On attempt failure the supervisor
//! drains all ranks' recorders into a checksummed postmortem bundle;
//! on success the events are simply dropped.
//!
//! ```
//! use bsml_obs::{FlightEvent, FlightRecorder};
//!
//! let rec = FlightRecorder::new(2);
//! rec.record(1, FlightEvent::BarrierEnter { superstep: 0 });
//! rec.record(2, FlightEvent::BarrierExit { superstep: 0 });
//! rec.record(3, FlightEvent::FaultFired { superstep: 1, kind: 0 });
//! // Capacity 2: the oldest event was evicted and counted.
//! assert_eq!(rec.dropped(), 1);
//! let events = rec.drain();
//! assert_eq!(events.len(), 2);
//! assert_eq!(events[0].lamport, 2);
//! ```

use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::Ring;

/// One protocol-level event of a distributed attempt, as seen by one
/// rank. All fields are logical (ranks, sequence numbers, Lamport
/// stamps, word/byte counts) — no wall-clock time — so a seeded run
/// records a bit-identical event stream every time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlightEvent {
    /// A data frame was stamped and handed to the exchange engine.
    /// `bytes` is the encoded frame size (what travels on the wire).
    FrameSent {
        /// Destination rank.
        to: u64,
        /// Per-link sequence number.
        seq: u64,
        /// The sender's superstep.
        superstep: u64,
        /// Encoded frame size in bytes.
        bytes: u64,
    },
    /// A data frame was accepted (exact expected sequence number).
    FrameReceived {
        /// Source rank.
        from: u64,
        /// Per-link sequence number.
        seq: u64,
        /// The *sender's* superstep, from the frame header.
        superstep: u64,
        /// The sender's Lamport stamp, from the frame header — the
        /// analyzer checks `lamport > sent_lamport` (no receive before
        /// its send).
        sent_lamport: u64,
    },
    /// The wire decoder rejected an incoming frame (checksum,
    /// truncation, bad tag) — the exchange then fails the run.
    CorruptRejected,
    /// This rank entered the synchronization that closes the
    /// superstep: the next superstep's count round, or the run's
    /// final one.
    BarrierEnter {
        /// The superstep being completed.
        superstep: u64,
    },
    /// That synchronization completed: every rank has drained the
    /// superstep.
    BarrierExit {
        /// The superstep just completed.
        superstep: u64,
    },
    /// One superstep's local accounting, measured at its exit: the
    /// fuel this rank burned and the words it exchanged since the
    /// previous superstep boundary — what the postmortem analyzer
    /// compares against the lockstep cost model's per-superstep
    /// `(w, h)` figures.
    SuperstepEnd {
        /// The superstep just completed.
        superstep: u64,
        /// Evaluator steps (fuel) this rank burned this superstep.
        work: u64,
        /// Words this rank sent this superstep (self-messages
        /// excluded).
        sent_words: u64,
        /// Words this rank received this superstep.
        received_words: u64,
    },
    /// This rank staged a checkpoint frame for the given generation.
    CheckpointStaged {
        /// The staged generation (completed-superstep count).
        generation: u64,
    },
    /// The generation is committed (a consistent cut, committed by
    /// the stage of its last frame): every rank that staged records
    /// this when its next count round completes.
    CheckpointCommitted {
        /// The committed generation.
        generation: u64,
    },
    /// A planned fault fired on this rank (crash, panic, stall or
    /// message drop — see `kind`).
    FaultFired {
        /// The superstep the fault was keyed on.
        superstep: u64,
        /// The fault kind's wire code (see `bsml_bsp::faults`).
        kind: u64,
    },
    /// A rank↔coordinator control link was lost (read error, EOF, or
    /// heartbeat silence) and healing began. Recorded by whichever
    /// side noticed.
    LinkDown {
        /// The rank whose link dropped.
        rank: u64,
        /// Supersteps that rank had completed when the link dropped.
        superstep: u64,
    },
    /// The control link was healed: the rejoin handshake completed and
    /// the egress buffers were replayed.
    LinkUp {
        /// The rank whose link healed.
        rank: u64,
        /// Supersteps that rank had completed at the heal.
        superstep: u64,
    },
}

/// A [`FlightEvent`] with the Lamport stamp it was recorded at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimedFlightEvent {
    /// The recording rank's Lamport clock at the event.
    pub lamport: u64,
    /// What happened.
    pub event: FlightEvent,
}

/// A fixed-capacity [`Ring`] of [`TimedFlightEvent`]s. Records are
/// kept in insertion order (which is causal order for a single rank:
/// the Lamport stamps are non-decreasing); when full, the oldest
/// record is evicted and counted in [`FlightRecorder::dropped`].
///
/// The ring is internally locked so the supervisor can drain it
/// after the rank's thread is gone — including a thread that
/// *panicked* while holding nothing of ours (poisoning is ignored; the
/// protected data is a plain event queue, valid at every instant).
#[derive(Debug)]
pub struct FlightRecorder {
    state: Mutex<Ring<TimedFlightEvent>>,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` events. Capacity 0 is
    /// legal: every event is immediately dropped (but still counted) —
    /// a recorder that measures overhead without retaining anything.
    #[must_use]
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            state: Mutex::new(Ring::new(capacity)),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Ring<TimedFlightEvent>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.lock().capacity()
    }

    /// Records one event at the given Lamport stamp.
    pub fn record(&self, lamport: u64, event: FlightEvent) {
        self.lock().push(TimedFlightEvent { lamport, event });
    }

    /// Events currently buffered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Events evicted (or refused, at capacity 0) so far. A non-zero
    /// count tells the postmortem analyzer the record is a *suffix* of
    /// the rank's history, so a missing send for an observed receive
    /// is inconclusive rather than a causality violation.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.lock().evicted()
    }

    /// The buffered events, oldest first, left in place: what a rank
    /// process writes to disk at each flush.
    #[must_use]
    pub fn snapshot(&self) -> Vec<TimedFlightEvent> {
        self.lock().iter().cloned().collect()
    }

    /// Removes and returns all buffered events, oldest first (the
    /// rank's causal order). The dropped count is preserved.
    #[must_use]
    pub fn drain(&self) -> Vec<TimedFlightEvent> {
        self.lock().drain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_and_evicts_oldest() {
        let rec = FlightRecorder::new(3);
        for i in 0..5u64 {
            rec.record(i, FlightEvent::BarrierEnter { superstep: i });
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.dropped(), 2);
        let events = rec.drain();
        assert_eq!(
            events.iter().map(|e| e.lamport).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert_eq!(rec.len(), 0);
        assert!(rec.is_empty());
        // Dropped survives the drain — it describes history, not the
        // current buffer.
        assert_eq!(rec.dropped(), 2);
    }

    #[test]
    fn capacity_zero_counts_but_keeps_nothing() {
        let rec = FlightRecorder::new(0);
        rec.record(1, FlightEvent::CorruptRejected);
        rec.record(2, FlightEvent::CorruptRejected);
        assert!(rec.is_empty());
        assert_eq!(rec.dropped(), 2);
        assert!(rec.drain().is_empty());
    }

    #[test]
    fn capacity_one_keeps_the_newest() {
        let rec = FlightRecorder::new(1);
        rec.record(7, FlightEvent::BarrierEnter { superstep: 0 });
        rec.record(9, FlightEvent::BarrierExit { superstep: 0 });
        let events = rec.drain();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].lamport, 9);
        assert_eq!(events[0].event, FlightEvent::BarrierExit { superstep: 0 });
        assert_eq!(rec.dropped(), 1);
    }

    #[test]
    fn survives_a_poisoned_lock() {
        let rec = std::sync::Arc::new(FlightRecorder::new(4));
        let r2 = std::sync::Arc::clone(&rec);
        let _ = std::thread::spawn(move || {
            let _guard = r2.state.lock().expect("first lock");
            panic!("poison the recorder");
        })
        .join();
        rec.record(1, FlightEvent::CorruptRejected);
        assert_eq!(rec.len(), 1);
    }
}
