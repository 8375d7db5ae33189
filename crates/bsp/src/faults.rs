//! Deterministic fault injection for the distributed machine.
//!
//! The paper's semantics are confluent (§5): a mini-BSML program's
//! value and per-superstep h-relations are a pure function of the
//! program and `p`. That determinism is what makes *replay* a sound
//! recovery strategy — and what makes fault injection testable: a
//! seeded [`FaultPlan`] perturbs one distributed attempt in a
//! reproducible way, and the supervised retry must converge back to
//! the lockstep oracle's answer.
//!
//! A plan is a list of [`Fault`]s, each armed for one *attempt*
//! (retry index). The [`crate::distributed::DistMachine`] consults
//! the plan — behind an `Option`, so fault-free runs pay nothing — at
//! the entry of every `put`/`if‥at‥` and at every mailbox write:
//!
//! * [`FaultKind::Crash`] — the processor fails cleanly with
//!   [`bsml_eval::EvalError::InjectedFault`] and poisons the barrier.
//! * [`FaultKind::Panic`] — the processor thread panics mid-superstep
//!   (exercising the machine's unwind containment).
//! * [`FaultKind::DropMessage`] — one `put` message is lost: it is
//!   silently replaced with `nc ()`, caught only by the supervisor's
//!   oracle cross-check.
//! * [`FaultKind::Stall`] — the processor sleeps before a barrier
//!   (long stalls trip the watchdog as
//!   [`bsml_eval::EvalError::BarrierTimeout`]).
//!
//! ```
//! use bsml_bsp::faults::{FaultKind, FaultPlan};
//!
//! let plan = FaultPlan::new().crash(2, 0); // rank 2 dies in superstep 0
//! assert!(plan.crash_at(2, 0, 0).is_some());
//! assert!(plan.crash_at(2, 0, 1).is_none()); // disarmed on the retry
//! ```

use std::time::Duration;

/// One injectable fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Rank `rank` fails with a clean
    /// [`bsml_eval::EvalError::InjectedFault`] when it reaches
    /// superstep `superstep`.
    Crash {
        /// The processor to crash.
        rank: usize,
        /// The superstep (count of completed barriers on that rank)
        /// at which to crash.
        superstep: u64,
    },
    /// Rank `rank` *panics* (unwinds) when it reaches superstep
    /// `superstep` — the ill-behaved cousin of [`FaultKind::Crash`],
    /// testing that a panicking processor thread is contained and
    /// converted into a peer failure instead of aborting the runner.
    Panic {
        /// The processor to panic.
        rank: usize,
        /// The superstep at which to panic.
        superstep: u64,
    },
    /// The `put` message from `from` to `to` in superstep `superstep`
    /// is lost: it is silently replaced by `nc ()` — a loss the
    /// receiver cannot distinguish from "nothing was sent".
    DropMessage {
        /// The sending processor.
        from: usize,
        /// The receiving processor.
        to: usize,
        /// The superstep whose exchange loses the message.
        superstep: u64,
    },
    /// Rank `rank` sleeps for `delay` before entering the barrier of
    /// superstep `superstep`. Delays longer than the machine's
    /// watchdog timeout surface as
    /// [`bsml_eval::EvalError::BarrierTimeout`] on the peers.
    Stall {
        /// The processor to stall.
        rank: usize,
        /// The superstep whose barrier entry is delayed.
        superstep: u64,
        /// How long to sleep.
        delay: Duration,
    },
}

impl FaultKind {
    /// The kind's stable wire code, as recorded in flight-recorder
    /// [`bsml_obs::FlightEvent::FaultFired`] events and postmortem
    /// bundles: 0 crash, 1 panic, 2 drop, 3 stall. Matches the codes
    /// [`FaultPlan::chaos`] derives kinds from.
    #[must_use]
    pub fn code(&self) -> u64 {
        match self {
            FaultKind::Crash { .. } => 0,
            FaultKind::Panic { .. } => 1,
            FaultKind::DropMessage { .. } => 2,
            FaultKind::Stall { .. } => 3,
        }
    }

    /// A short human-readable label for the kind.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Crash { .. } => "crash",
            FaultKind::Panic { .. } => "panic",
            FaultKind::DropMessage { .. } => "drop",
            FaultKind::Stall { .. } => "stall",
        }
    }
}

/// A fault armed for one specific attempt (retry index). Faults on
/// attempt 0 perturb the first run; the supervisor's retries run with
/// progressively fewer (typically zero) armed faults, which is what
/// lets replay recover.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fault {
    /// What to inject.
    pub kind: FaultKind,
    /// The attempt (0-based) on which this fault fires.
    pub attempt: u32,
}

/// A seeded, deterministic set of faults to inject into one
/// distributed run. Construction is by builder methods (each arms the
/// fault for attempt 0 unless re-armed with [`FaultPlan::on_attempt`])
/// or by [`FaultPlan::chaos`], which derives a single random fault
/// from a seed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    #[must_use]
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Reassembles a plan from already-armed faults — how a rank
    /// process reconstructs the plan the parent shipped it over the
    /// control stream (`wire::CtlMsg::Welcome`).
    #[must_use]
    pub(crate) fn from_faults(faults: Vec<Fault>) -> FaultPlan {
        FaultPlan { faults }
    }

    /// Adds a clean crash of `rank` at `superstep` (attempt 0).
    #[must_use]
    pub fn crash(mut self, rank: usize, superstep: u64) -> FaultPlan {
        self.faults.push(Fault {
            kind: FaultKind::Crash { rank, superstep },
            attempt: 0,
        });
        self
    }

    /// Adds a panic of `rank` at `superstep` (attempt 0).
    #[must_use]
    pub fn panic(mut self, rank: usize, superstep: u64) -> FaultPlan {
        self.faults.push(Fault {
            kind: FaultKind::Panic { rank, superstep },
            attempt: 0,
        });
        self
    }

    /// Adds a message drop `from → to` at `superstep` (attempt 0).
    #[must_use]
    pub fn drop_message(mut self, from: usize, to: usize, superstep: u64) -> FaultPlan {
        self.faults.push(Fault {
            kind: FaultKind::DropMessage {
                from,
                to,
                superstep,
            },
            attempt: 0,
        });
        self
    }

    /// Adds a pre-barrier stall of `rank` at `superstep` (attempt 0).
    #[must_use]
    pub fn stall(mut self, rank: usize, superstep: u64, delay: Duration) -> FaultPlan {
        self.faults.push(Fault {
            kind: FaultKind::Stall {
                rank,
                superstep,
                delay,
            },
            attempt: 0,
        });
        self
    }

    /// Re-arms the most recently added fault for `attempt` instead of
    /// attempt 0 (no-op on an empty plan).
    #[must_use]
    pub fn on_attempt(mut self, attempt: u32) -> FaultPlan {
        if let Some(last) = self.faults.last_mut() {
            last.attempt = attempt;
        }
        self
    }

    /// Derives a plan with exactly **one** random fault from `seed`,
    /// targeting a machine of `p` processors and a program of
    /// `supersteps` supersteps (the fault lands inside `0..supersteps`
    /// so it always fires). The same seed always yields the same
    /// fault — chaos tests iterate seeds, not reruns.
    #[must_use]
    pub fn chaos(seed: u64, p: usize, supersteps: u64) -> FaultPlan {
        let mut rng = SplitMix64::new(seed);
        let rank = (rng.next() % p as u64) as usize;
        let superstep = if supersteps == 0 {
            0
        } else {
            rng.next() % supersteps
        };
        let kind = match rng.next() % 4 {
            0 => FaultKind::Crash { rank, superstep },
            1 => FaultKind::Panic { rank, superstep },
            2 => FaultKind::DropMessage {
                from: rank,
                to: (rng.next() % p as u64) as usize,
                superstep,
            },
            _ => FaultKind::Stall {
                rank,
                superstep,
                delay: Duration::from_millis(1 + rng.next() % 3),
            },
        };
        FaultPlan {
            faults: vec![Fault { kind, attempt: 0 }],
        }
    }

    /// The planned faults, in insertion order.
    #[must_use]
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Whether the plan injects nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The crash **or panic** scheduled for `(rank, superstep)` on
    /// `attempt`, if any. Panics win ties (they are the harsher
    /// failure).
    #[must_use]
    pub fn crash_at(&self, rank: usize, superstep: u64, attempt: u32) -> Option<&FaultKind> {
        let mut found = None;
        for f in &self.faults {
            if f.attempt != attempt {
                continue;
            }
            match &f.kind {
                FaultKind::Panic {
                    rank: r,
                    superstep: s,
                } if *r == rank && *s == superstep => {
                    return Some(&f.kind);
                }
                FaultKind::Crash {
                    rank: r,
                    superstep: s,
                } if *r == rank && *s == superstep => {
                    found = Some(&f.kind);
                }
                _ => {}
            }
        }
        found
    }

    /// Whether the `put` message `from → to` of `superstep` is
    /// dropped on `attempt`.
    #[must_use]
    pub fn drops(&self, from: usize, to: usize, superstep: u64, attempt: u32) -> bool {
        self.faults.iter().any(|f| {
            f.attempt == attempt
                && matches!(
                    &f.kind,
                    FaultKind::DropMessage { from: ff, to: tt, superstep: s }
                        if *ff == from && *tt == to && *s == superstep
                )
        })
    }

    /// The total stall scheduled before `(rank, superstep)`'s barrier
    /// on `attempt` (`None` if no stall applies).
    #[must_use]
    pub fn stall_before(&self, rank: usize, superstep: u64, attempt: u32) -> Option<Duration> {
        let mut total = None;
        for f in &self.faults {
            if f.attempt != attempt {
                continue;
            }
            if let FaultKind::Stall {
                rank: r,
                superstep: s,
                delay,
            } = &f.kind
            {
                if *r == rank && *s == superstep {
                    total = Some(total.unwrap_or(Duration::ZERO) + *delay);
                }
            }
        }
        total
    }
}

/// What a [`LinkFault`] does to a live rank↔coordinator control
/// stream. Unlike [`FaultKind`], which kills or perturbs the *rank*,
/// a link fault perturbs only the *wire*: the rank process stays
/// alive with its in-memory state intact, and the cheapest recovery
/// rung — reconnect and replay from the egress buffers — applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkFaultKind {
    /// Half-open: the coordinator shuts down its *write* side only.
    /// The child reads EOF and reconnects; the parent keeps reading
    /// whatever was in flight.
    Drop,
    /// The coordinator stops writing to the link without closing it —
    /// a silent partition. The child's silence detector (no traffic
    /// within the grace window) triggers the reconnect.
    Freeze,
    /// Both directions are shut down at once — what a TCP RST or a
    /// dead middlebox looks like to the application.
    Reset,
    /// `n` consecutive severs: the initial one plus `n − 1` re-severs
    /// of the child's reconnection attempts before one is finally
    /// allowed to complete. Large `n` against a small rejoin budget is
    /// how tests force demotion to the checkpoint-respawn rung.
    Flap(u32),
}

impl LinkFaultKind {
    /// The kind's stable wire code: 0 drop, 1 freeze, 2 reset, 3 flap.
    #[must_use]
    pub fn code(&self) -> u64 {
        match self {
            LinkFaultKind::Drop => 0,
            LinkFaultKind::Freeze => 1,
            LinkFaultKind::Reset => 2,
            LinkFaultKind::Flap(_) => 3,
        }
    }

    /// A short human-readable label for the kind.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            LinkFaultKind::Drop => "link-drop",
            LinkFaultKind::Freeze => "link-freeze",
            LinkFaultKind::Reset => "link-reset",
            LinkFaultKind::Flap(_) => "link-flap",
        }
    }
}

/// One deterministic link sever: when the coordinator finishes the
/// barrier of `superstep` on `attempt`, rank `rank`'s control stream
/// suffers `kind` instead of (before) receiving its release. Carried
/// in [`crate::process::ProcessConfig::link_faults`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkFault {
    /// The rank whose link is severed.
    pub rank: usize,
    /// The superstep whose barrier release the sever lands on
    /// (`0` severs right after launch, before any barrier).
    pub superstep: u64,
    /// What happens to the wire.
    pub kind: LinkFaultKind,
    /// The attempt (0-based) on which this fault fires.
    pub attempt: u32,
}

/// Sebastiano Vigna's SplitMix64 — tiny, seedable, and good enough to
/// scatter faults and jitter supervisor backoff; avoids any external
/// RNG dependency.
#[derive(Debug)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    pub(crate) fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert!(plan.crash_at(0, 0, 0).is_none());
        assert!(!plan.drops(0, 1, 0, 0));
        assert!(plan.stall_before(0, 0, 0).is_none());
    }

    #[test]
    fn builder_faults_fire_only_on_their_attempt() {
        let plan = FaultPlan::new()
            .crash(1, 2)
            .drop_message(0, 3, 1)
            .on_attempt(1)
            .stall(2, 0, Duration::from_millis(5));
        assert_eq!(plan.faults().len(), 3);
        assert!(matches!(
            plan.crash_at(1, 2, 0),
            Some(FaultKind::Crash {
                rank: 1,
                superstep: 2
            })
        ));
        assert!(plan.crash_at(1, 2, 1).is_none());
        // The drop was re-armed for attempt 1.
        assert!(!plan.drops(0, 3, 1, 0));
        assert!(plan.drops(0, 3, 1, 1));
        assert_eq!(plan.stall_before(2, 0, 0), Some(Duration::from_millis(5)));
    }

    #[test]
    fn panics_shadow_crashes_at_the_same_site() {
        let plan = FaultPlan::new().crash(0, 0).panic(0, 0);
        assert!(matches!(
            plan.crash_at(0, 0, 0),
            Some(FaultKind::Panic { .. })
        ));
    }

    #[test]
    fn stalls_at_the_same_site_accumulate() {
        let plan = FaultPlan::new()
            .stall(0, 1, Duration::from_millis(2))
            .stall(0, 1, Duration::from_millis(3));
        assert_eq!(plan.stall_before(0, 1, 0), Some(Duration::from_millis(5)));
    }

    #[test]
    fn chaos_is_deterministic_and_in_range() {
        for seed in 0..200 {
            let (p, s) = (4, 2);
            let a = FaultPlan::chaos(seed, p, s);
            let b = FaultPlan::chaos(seed, p, s);
            assert_eq!(a, b, "seed {seed} not deterministic");
            assert_eq!(a.faults().len(), 1);
            let in_range = |rank: usize, superstep: u64| rank < p && superstep < s;
            match &a.faults()[0].kind {
                FaultKind::Crash { rank, superstep }
                | FaultKind::Panic { rank, superstep }
                | FaultKind::Stall {
                    rank, superstep, ..
                } => {
                    assert!(in_range(*rank, *superstep));
                }
                FaultKind::DropMessage {
                    from,
                    to,
                    superstep,
                } => {
                    assert!(in_range(*from, *superstep) && *to < p);
                }
            }
        }
    }

    #[test]
    fn chaos_covers_every_fault_kind() {
        let mut kinds = [false; 4];
        for seed in 0..64 {
            match FaultPlan::chaos(seed, 4, 2).faults()[0].kind {
                FaultKind::Crash { .. } => kinds[0] = true,
                FaultKind::Panic { .. } => kinds[1] = true,
                FaultKind::DropMessage { .. } => kinds[2] = true,
                FaultKind::Stall { .. } => kinds[3] = true,
            }
        }
        assert_eq!(kinds, [true; 4], "64 seeds should hit all kinds");
    }

    #[test]
    fn link_fault_kinds_have_stable_codes_and_labels() {
        let kinds = [
            LinkFaultKind::Drop,
            LinkFaultKind::Freeze,
            LinkFaultKind::Reset,
            LinkFaultKind::Flap(3),
        ];
        assert_eq!(
            kinds.iter().map(LinkFaultKind::code).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        for k in kinds {
            assert!(k.label().starts_with("link-"));
        }
        let f = LinkFault {
            rank: 1,
            superstep: 2,
            kind: LinkFaultKind::Flap(5),
            attempt: 0,
        };
        assert_eq!(f.kind, LinkFaultKind::Flap(5));
    }
}
