//! End-to-end postmortem pipeline (DESIGN.md §12): a supervised crash
//! leaves a checksummed flight-recorder bundle on disk, the bundle is
//! byte-for-byte reproducible under the same seed, and the analyzer
//! localizes the failure to the exact injected (rank, superstep) —
//! for a crash and for a barrier timeout whose `EvalError` carries no
//! rank at all. On a clean run the
//! reconstructed timeline must match the lockstep oracle's cost
//! figures exactly.

use std::fs;
use std::path::PathBuf;
use std::time::Duration;

use bsml_bsp::distributed::DistMachine;
use bsml_bsp::faults::FaultPlan;
use bsml_bsp::supervisor::Supervisor;
use bsml_bsp::{BspMachine, BspParams, PostmortemBundle};
use bsml_syntax::parse;

/// One superstep: total exchange, each rank sums all p incoming
/// messages (the chaos suite's `EXCHANGE_1`).
const EXCHANGE_1: &str = "
    let r = put (mkpar (fun j -> fun i -> j * 7 + i + 1)) in
    apply (mkpar (fun i -> fun t ->
             let acc = ref 0 in
             (for j = 0 to bsp_p () - 1 do acc := !acc + t j done);
             !acc),
           r)";

/// Two supersteps: the round-one sums are re-exchanged and re-summed.
const EXCHANGE_2: &str = "
    let r1 = put (mkpar (fun j -> fun i -> j + i + 1)) in
    let v1 = apply (mkpar (fun i -> fun t ->
               let acc = ref 0 in
               (for j = 0 to bsp_p () - 1 do acc := !acc + t j done);
               !acc),
             r1) in
    let r2 = put (apply (mkpar (fun j -> fun v -> fun i -> v + j + 1), v1)) in
    apply (mkpar (fun i -> fun t ->
             let acc = ref 0 in
             (for j = 0 to bsp_p () - 1 do acc := !acc + t j done);
             !acc),
           r2)";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "bsml-postmortem-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Runs one supervised attempt grid against `machine`, expecting the
/// first attempt to fail and the retry to converge, and returns the
/// single postmortem bundle it left behind.
fn supervised_bundle(machine: DistMachine, dir: &PathBuf, e: &bsml_ast::Expr) -> PostmortemBundle {
    let out = Supervisor::new(machine)
        .with_backoff(Duration::ZERO)
        .with_postmortem(dir)
        .run(e)
        .expect("the supervised retry converges");
    assert_eq!(out.attempts, 2, "exactly the first attempt fails");
    assert_eq!(
        out.postmortems.len(),
        1,
        "one failed attempt, one black box"
    );
    PostmortemBundle::load(&out.postmortems[0]).expect("the bundle on disk loads and verifies")
}

#[test]
fn crashed_run_writes_a_byte_identical_golden_bundle() {
    // The flight recorder stamps events with *logical* clocks only,
    // so the same seeded crash must produce the same bundle, byte for
    // byte, on every run — the golden-file property that makes
    // postmortems diffable across CI runs.
    let e = parse(EXCHANGE_1).unwrap();
    let dirs = [temp_dir("golden-a"), temp_dir("golden-b")];
    let mut bytes = Vec::new();
    for dir in &dirs {
        let machine = DistMachine::new(2)
            .with_faults(FaultPlan::new().crash(1, 0))
            .with_barrier_timeout(Duration::from_secs(10))
            .with_flight_recorder(64);
        let bundle = supervised_bundle(machine, dir, &e);

        assert_eq!(bundle.p, 2);
        assert_eq!(bundle.attempt, 0);
        assert!(!bundle.error.is_empty());
        assert_eq!(bundle.error_rank, Some(1));
        assert_eq!(bundle.error_superstep, Some(0));

        // The analyzer pinpoints the injected coordinate from the
        // FaultFired event in rank 1's ring.
        let analysis = bundle.analyze();
        assert!(
            analysis.is_causally_consistent(),
            "violations: {:?}",
            analysis.violations
        );
        let failure = analysis.failure.as_ref().expect("failure localized");
        assert_eq!((failure.rank, failure.superstep), (1, 0));

        let entries: Vec<_> = fs::read_dir(dir).unwrap().collect();
        assert_eq!(entries.len(), 1, "exactly one bundle file written");
        bytes.push(fs::read(entries[0].as_ref().unwrap().path()).unwrap());
    }
    assert_eq!(
        bytes[0], bytes[1],
        "the same seeded crash must reproduce the bundle byte-for-byte"
    );
    for dir in &dirs {
        let _ = fs::remove_dir_all(dir);
    }
}

#[test]
fn barrier_timeout_bundle_localizes_the_stalled_rank() {
    // A BarrierTimeout carries a superstep but *no rank* — the
    // analyzer must still pinpoint the stalled rank, because the
    // stall's FaultFired event is in that rank's ring. The machine
    // has no explicit flight recorder: configuring a postmortem
    // directory arms it automatically.
    let e = parse(EXCHANGE_1).unwrap();
    let dir = temp_dir("stall");
    let machine = DistMachine::new(4)
        .with_faults(FaultPlan::new().stall(2, 0, Duration::from_millis(500)))
        .with_barrier_timeout(Duration::from_millis(60));
    let bundle = supervised_bundle(machine, &dir, &e);

    assert_eq!(bundle.error_rank, None, "a timeout names no rank");
    assert_eq!(bundle.error_superstep, Some(0));
    let analysis = bundle.analyze();
    assert!(
        analysis.is_causally_consistent(),
        "violations: {:?}",
        analysis.violations
    );
    let failure = analysis.failure.as_ref().expect("failure localized");
    assert_eq!(
        (failure.rank, failure.superstep),
        (2, 0),
        "the stalled rank is recovered from its own FaultFired event"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn clean_run_timeline_matches_the_lockstep_cost_model() {
    // The acceptance bar for the analyzer's BSP parameter estimation:
    // on an unfaulted run the reconstructed per-superstep (w, h⁺, h⁻)
    // must equal the lockstep oracle's RunReport *exactly* — same
    // reduction-step counts, same words on the wire, per rank.
    for p in [2usize, 4] {
        let e = parse(EXCHANGE_2).unwrap();
        let report = BspMachine::new(BspParams::new(p, 1, 1)).run(&e).unwrap();
        let machine = DistMachine::new(p).with_flight_recorder(4096);
        let (result, log) = machine.run_recorded(&e, 0);
        let out = result.expect("clean run succeeds");
        assert_eq!(out.value.to_string(), report.value.to_string());

        let bundle =
            PostmortemBundle::new(p, 0, String::new(), None, None, log.expect("recorder on"));
        let analysis = bundle.analyze();
        assert!(analysis.failure.is_none(), "clean run localizes nothing");
        assert!(
            analysis.is_causally_consistent(),
            "p={p} violations: {:?}",
            analysis.violations
        );
        assert!(
            analysis.matches_report(&report),
            "p={p} diffs: {:#?}",
            analysis.diff_report(&report)
        );
        // And the human-readable rendering prices each superstep once
        // machine parameters are supplied.
        let rendered = analysis.render(Some(&report.params));
        assert!(rendered.contains("causal consistency: OK"), "{rendered}");
        assert!(rendered.contains("cost="), "{rendered}");
    }
}

#[test]
fn flight_recorder_eviction_is_reported_not_fatal() {
    // A tiny ring under a real exchange must evict (dropped > 0) yet
    // still drain, encode, and analyze without tripping spurious
    // causal violations: the analyzer treats a rank with evictions as
    // inconclusive rather than inventing MissingSend findings.
    let e = parse(EXCHANGE_2).unwrap();
    let machine = DistMachine::new(4).with_flight_recorder(2);
    let (result, log) = machine.run_recorded(&e, 0);
    result.expect("clean run succeeds");
    let log = log.expect("recorder on");
    assert!(
        log.ranks.iter().any(|r| r.dropped > 0),
        "capacity 2 must evict on a 2-superstep exchange"
    );
    for r in &log.ranks {
        assert!(r.events.len() <= 2);
    }
    let bundle = PostmortemBundle::new(4, 0, String::new(), None, None, log);
    let analysis = PostmortemBundle::decode(&bundle.encode())
        .unwrap()
        .analyze();
    assert!(
        analysis.is_causally_consistent(),
        "violations: {:?}",
        analysis.violations
    );
}
