//! Property: restoring a [`SessionSnapshot`] after an arbitrary
//! prefix of failed (or contained) phrases yields a session
//! *bit-identical* to one that never loaded them — including ref-cell
//! state, which the snapshot encodes by contents rather than by
//! sharing the live `RefCell`. Rolling back a session transaction
//! does the same through the undo trail, without a snapshot.
//!
//! "Bit-identical" is checked on the bytes: a fresh
//! [`Session::snapshot`] encodes the typing environment (ordered
//! `BTreeMap`), the value environment (ordered binding list) with
//! the contents of its cells, and the cumulative cost.

use bsml_bsp::BspParams;
use bsml_core::{Session, SessionEvent};
use bsml_repro::testgen::{adversarial, well_typed_source, Adversarial};
use proptest::collection::vec;
use proptest::prelude::*;

fn session() -> Session {
    Session::new(BspParams::new(3, 1, 10))
}

/// Structural fingerprint of everything a snapshot would save.
fn fingerprint(s: &Session) -> String {
    format!("{:?}", s.snapshot())
}

/// Failure families that are cheap to run (no divergence: plain
/// session fuel would burn the whole default budget per phrase).
const CHEAP_FAILURES: [Adversarial; 5] = [
    Adversarial::NestingBreach,
    Adversarial::LocalityBreach,
    Adversarial::IllTyped,
    Adversarial::ParseError,
    Adversarial::DivisionByZero,
];

/// Loads `source` the way a serving host does: transactionally.
/// On any failure the pre-load snapshot is restored.
fn load_transactionally(s: &mut Session, source: &str) {
    let before = s.snapshot();
    match s.load(source) {
        Ok(events) if events.iter().all(|e| e.error().is_none()) => {}
        _ => s.restore(&before).unwrap(),
    }
}

/// The rendered value of a one-phrase load.
fn value(s: &mut Session, src: &str) -> String {
    let events = s.load(src).unwrap();
    events[0].value().unwrap().to_string()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn a_rolled_back_transaction_restores_cells_and_keeps_aliases(
        seed in any::<u64>(),
        pick in any::<u64>(),
    ) {
        let mut s = session();
        let old = seed % 100;
        s.load(&format!("let r = ref {old}")).unwrap();
        s.load("let b = r").unwrap();
        s.load(&format!("let g = {}", well_typed_source(seed, 2))).unwrap();
        let before = s.snapshot().to_bytes();

        // Assign `r`, bind a name, then fail: a static error rolls the
        // whole load back, a dynamic one only its own phrase.
        let family = CHEAP_FAILURES[(pick as usize) % CHEAP_FAILURES.len()];
        let src = format!("let u = r := {}\nlet t = 1\n{}", old + 1, adversarial(seed, family));
        let tx = s.begin();
        let outcome = s.load(&src);
        prop_assert!(outcome.map_or(true, |events| events.iter().any(SessionEvent::is_failure)));
        s.rollback(tx);

        prop_assert_eq!(s.snapshot().to_bytes(), before);
        prop_assert_eq!(value(&mut s, "!r"), old.to_string());
        s.load(&format!("let w = b := {}", old + 7)).unwrap();
        prop_assert_eq!(value(&mut s, "!r"), (old + 7).to_string());
    }

    #[test]
    fn restore_after_failed_prefix_is_bit_identical(
        seed in any::<u64>(),
        picks in vec(any::<u64>(), 1..8),
    ) {
        let mut s = session();
        // A base session with plain values, a ref cell, and a vector.
        s.load(&format!("let r = ref {}", seed % 100)).unwrap();
        s.load("let base = !r * 2").unwrap();
        s.load(&well_typed_source(seed, 2)).unwrap();
        let clean = fingerprint(&s);

        for (i, pick) in picks.iter().enumerate() {
            let family = CHEAP_FAILURES[(*pick as usize) % CHEAP_FAILURES.len()];
            let src = adversarial(seed.wrapping_add(i as u64), family);
            load_transactionally(&mut s, &src);
        }

        prop_assert_eq!(fingerprint(&s), clean);
    }

    #[test]
    fn ref_cell_mutations_roll_back_on_restore(seed in any::<u64>()) {
        // The deep-copy part: the snapshot must capture the *contents*
        // of the cell, not share the live RefCell — otherwise the
        // in-place `r := …` below would retroactively rewrite the
        // snapshot and restore() could not undo it.
        let mut s = session();
        s.load(&format!("let r = ref {}", seed % 1000)).unwrap();
        let clean = fingerprint(&s);

        let snap = s.snapshot();
        s.load(&format!("r := {}", (seed % 1000) + 1)).unwrap();
        // The mutation must be visible pre-restore, or the property
        // below would pass vacuously.
        prop_assert_ne!(fingerprint(&s), clean.clone());
        s.restore(&snap).unwrap();
        prop_assert_eq!(fingerprint(&s), clean);
    }

    #[test]
    fn failed_multiphrase_requests_leave_no_partial_commits(
        seed in any::<u64>(),
    ) {
        // A request whose FIRST phrase succeeds and second fails: the
        // transactional load must roll back both — the intermediate
        // `tmp` binding must not survive.
        let mut s = session();
        s.load("let keep = 7").unwrap();
        let clean = fingerprint(&s);
        let src = format!("let tmp = {}\nlet boom = tmp / 0", seed % 50 + 1);
        load_transactionally(&mut s, &src);
        prop_assert!(s.scheme_of("tmp").is_none());
        prop_assert_eq!(fingerprint(&s), clean);
    }
}

#[test]
fn aliasing_survives_snapshot_and_restore() {
    // Two names bound to one cell stay aliases of ONE (fresh) cell
    // after restore: assignment through one remains visible through
    // the other, and neither reaches the pre-restore cell.
    let mut s = session();
    s.load("let a = ref 1").unwrap();
    s.load("let b = a").unwrap();
    let snap = s.snapshot();
    s.load("a := 5").unwrap();
    s.restore(&snap).unwrap();
    let events = s.load("(b := 9, !a)").unwrap();
    let rendered = events[0].value().unwrap().to_string();
    assert_eq!(rendered, "((), 9)", "aliases must stay aliases");
}

#[test]
fn restore_is_repeatable() {
    // A snapshot is immutable: restoring, mutating, and restoring
    // again lands on the same state both times.
    let mut s = session();
    s.load("let r = ref 10").unwrap();
    let snap = s.snapshot();
    let clean = fingerprint(&s);
    for bump in [11, 12, 13] {
        s.load(&format!("r := {bump}")).unwrap();
        s.restore(&snap).unwrap();
        assert_eq!(fingerprint(&s), clean);
    }
}
