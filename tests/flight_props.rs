//! Property tests for the flight recorder (DESIGN.md §12) and the
//! postmortem bundle codec: the ring honours any capacity (including
//! the degenerate 0 and 1), wraparound keeps exactly the newest
//! events and counts every eviction, a drain returns the rank's
//! causal order whenever the stamps went in ordered, and bundles
//! survive an encode/decode round trip for every event shape.

use bsml_bsp::{PostmortemBundle, RankFlightLog};
use bsml_obs::{FlightEvent, FlightRecorder, TimedFlightEvent};
use proptest::collection::vec;
use proptest::prelude::*;

fn event() -> impl Strategy<Value = FlightEvent> {
    prop_oneof![
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(to, seq, superstep, bytes)| FlightEvent::FrameSent {
                to,
                seq,
                superstep,
                bytes
            }
        ),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(from, seq, superstep, sent_lamport)| FlightEvent::FrameReceived {
                from,
                seq,
                superstep,
                sent_lamport
            }
        ),
        Just(FlightEvent::CorruptRejected),
        any::<u64>().prop_map(|superstep| FlightEvent::BarrierEnter { superstep }),
        any::<u64>().prop_map(|superstep| FlightEvent::BarrierExit { superstep }),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(superstep, work, sent_words, received_words)| FlightEvent::SuperstepEnd {
                superstep,
                work,
                sent_words,
                received_words
            }
        ),
        any::<u64>().prop_map(|generation| FlightEvent::CheckpointStaged { generation }),
        any::<u64>().prop_map(|generation| FlightEvent::CheckpointCommitted { generation }),
        (any::<u64>(), 0u64..4)
            .prop_map(|(superstep, kind)| FlightEvent::FaultFired { superstep, kind }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(rank, superstep)| FlightEvent::LinkDown { rank, superstep }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(rank, superstep)| FlightEvent::LinkUp { rank, superstep }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn ring_keeps_exactly_the_newest_events(
        capacity in 0usize..16,
        events in vec(event(), 0..48),
    ) {
        let rec = FlightRecorder::new(capacity);
        // Strictly increasing stamps, as a real rank records them.
        for (i, ev) in events.iter().enumerate() {
            rec.record(i as u64 + 1, ev.clone());
        }
        let kept = rec.len();
        prop_assert_eq!(kept, events.len().min(capacity));
        prop_assert_eq!(rec.dropped() as usize, events.len() - kept);
        let drained = rec.drain();
        // Drain order IS causal order: the suffix of the input, with
        // its stamps still strictly increasing.
        let expect: Vec<TimedFlightEvent> = events
            .iter()
            .enumerate()
            .skip(events.len() - kept)
            .map(|(i, ev)| TimedFlightEvent { lamport: i as u64 + 1, event: ev.clone() })
            .collect();
        prop_assert_eq!(drained.clone(), expect);
        for pair in drained.windows(2) {
            prop_assert!(pair[0].lamport < pair[1].lamport);
        }
        // Drained, the ring is empty but remembers its evictions.
        prop_assert!(rec.is_empty());
        prop_assert_eq!(rec.dropped() as usize, events.len() - kept);
    }

    #[test]
    fn capacity_zero_drops_everything_and_counts(events in vec(event(), 0..16)) {
        let rec = FlightRecorder::new(0);
        for (i, ev) in events.iter().enumerate() {
            rec.record(i as u64, ev.clone());
        }
        prop_assert!(rec.is_empty());
        prop_assert!(rec.drain().is_empty());
        prop_assert_eq!(rec.dropped() as usize, events.len());
    }

    #[test]
    fn capacity_one_keeps_only_the_last(events in vec(event(), 1..16)) {
        let rec = FlightRecorder::new(1);
        for (i, ev) in events.iter().enumerate() {
            rec.record(i as u64, ev.clone());
        }
        let drained = rec.drain();
        prop_assert_eq!(drained.len(), 1);
        prop_assert_eq!(&drained[0].event, events.last().expect("non-empty"));
        prop_assert_eq!(rec.dropped() as usize, events.len() - 1);
    }

    #[test]
    fn bundles_roundtrip(
        p in 1usize..5,
        attempt in 0u32..4,
        error in "[ -~]{0,40}",
        dropped in any::<u64>(),
        events in vec((any::<u64>(), event()), 0..24),
    ) {
        let bundle = PostmortemBundle {
            p,
            attempt,
            error,
            error_rank: (attempt > 0).then_some(u64::from(attempt)),
            error_superstep: (attempt > 1).then_some(7),
            ranks: (0..p)
                .map(|rank| RankFlightLog {
                    rank,
                    dropped,
                    events: events
                        .iter()
                        .map(|(lamport, ev)| TimedFlightEvent {
                            lamport: *lamport,
                            event: ev.clone(),
                        })
                        .collect(),
                })
                .collect(),
        };
        let bytes = bundle.encode();
        let back = PostmortemBundle::decode(&bytes).expect("self-encoded bundle decodes");
        prop_assert_eq!(back, bundle);
    }

    #[test]
    fn truncated_bundles_are_rejected(events in vec((any::<u64>(), event()), 0..12)) {
        let bundle = PostmortemBundle {
            p: 1,
            attempt: 0,
            error: "boom".into(),
            error_rank: None,
            error_superstep: None,
            ranks: vec![RankFlightLog {
                rank: 0,
                dropped: 0,
                events: events
                    .into_iter()
                    .map(|(lamport, event)| TimedFlightEvent { lamport, event })
                    .collect(),
            }],
        };
        let bytes = bundle.encode();
        for cut in 0..bytes.len() {
            prop_assert!(
                PostmortemBundle::decode(&bytes[..cut]).is_err(),
                "accepted a bundle truncated to {cut} of {} bytes",
                bytes.len()
            );
        }
    }
}
