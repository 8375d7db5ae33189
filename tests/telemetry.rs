//! Telemetry integration: the Chrome-trace export's golden shape, the
//! exact correspondence between superstep span fields and the BSP cost
//! model, and agreement between the lockstep and distributed backends.

use bsml_bsp::distributed::DistMachine;
use bsml_bsp::{BspMachine, BspParams};
use bsml_core::session::Session;
use bsml_obs::{FieldValue, Telemetry};
use bsml_syntax::parse;

/// One put, one if‥at‥: two supersteps plus the program tail.
const PROGRAM: &str = "let a = put (mkpar (fun j -> fun i -> j)) in
     if mkpar (fun i -> true) at 0 then mkpar (fun i -> 1) else mkpar (fun i -> 2)";

#[test]
fn superstep_spans_match_run_report_exactly() {
    let tel = Telemetry::enabled_logical();
    let params = BspParams::new(3, 2, 5);
    let machine = BspMachine::new(params).with_telemetry(tel.clone());
    let report = machine.run(&parse(PROGRAM).unwrap()).unwrap();

    let tracks = tel.tracks();
    let spans: Vec<_> = tel
        .spans()
        .into_iter()
        .filter(|s| s.name == "superstep")
        .collect();
    // One span per processor per trace record.
    assert_eq!(spans.len(), report.trace.len() * params.p);

    for s in &spans {
        let step = usize::try_from(s.index.expect("indexed")).unwrap();
        let rec = &report.trace[step];
        let track_name = &tracks[s.track as usize];
        let i: usize = track_name[1..].parse().expect("track is p<i>");
        assert_eq!(s.field("w"), Some(&FieldValue::U64(rec.work[i])), "{s:?}");
        assert_eq!(s.field("h_plus"), Some(&FieldValue::U64(rec.sent[i])));
        assert_eq!(s.field("h_minus"), Some(&FieldValue::U64(rec.received[i])));
        let expected_barrier = match rec.barrier {
            bsml_bsp::Barrier::Put => "put",
            bsml_bsp::Barrier::IfAt => "ifat",
            bsml_bsp::Barrier::ProgramEnd => "end",
        };
        assert_eq!(
            s.field("barrier"),
            Some(&FieldValue::Str(expected_barrier.to_string()))
        );
        // The span duration is exactly the processor's local work.
        assert_eq!(s.duration_us(), rec.work[i]);
    }

    // Counters mirror the cost summary.
    assert_eq!(tel.counter_value("bsp.supersteps"), report.cost.supersteps);
    assert_eq!(tel.counter_value("bsp.puts"), 1);
    assert_eq!(tel.counter_value("bsp.ifats"), 1);
    let total_sent: u64 = report.trace.iter().flat_map(|r| r.sent.iter()).sum();
    assert_eq!(tel.counter_value("bsp.words_sent"), total_sent);
}

fn traced_session_output() -> (Telemetry, String) {
    let tel = Telemetry::enabled_logical();
    let mut s = Session::with_telemetry(BspParams::new(2, 1, 10), tel.clone());
    s.load("let v = put (mkpar (fun j -> fun i -> j)) ;; 1 + 2")
        .unwrap();
    let trace = tel.to_chrome_trace();
    (tel, trace)
}

#[test]
fn session_chrome_trace_has_golden_shape() {
    let (tel, trace) = traced_session_output();

    // Envelope.
    let lines: Vec<&str> = trace.lines().collect();
    assert_eq!(lines.first(), Some(&"{\"traceEvents\":["));
    assert_eq!(lines.last(), Some(&"]}"));

    // Thread-name metadata maps tracks to Perfetto threads: the main
    // pipeline track plus one per processor.
    for name in ["main", "p0", "p1"] {
        assert!(
            trace.contains(&format!(
                "\"thread_name\",\"tid\":{},\"args\":{{\"name\":\"{name}\"}}",
                tel.tracks().iter().position(|t| t == name).unwrap()
            )),
            "missing thread_name for {name}: {trace}"
        );
    }

    // The whole pipeline shows up as complete events.
    for span in [
        "\"load\"",
        "\"parse\"",
        "\"infer\"",
        "\"bsp.run\"",
        "\"superstep 0\"",
    ] {
        assert!(trace.contains(span), "missing {span} in {trace}");
    }

    // Counter events for the wired subsystems.
    for counter in ["infer.unifications", "bsp.supersteps"] {
        assert!(trace.contains(counter), "missing counter {counter}");
    }

    // Timestamps of complete events never regress (Perfetto requires
    // monotonic input within a stream; we sort globally).
    let mut last = 0u64;
    let mut complete_events = 0;
    for line in lines.iter().filter(|l| l.contains("\"ph\":\"X\"")) {
        let ts: u64 = line
            .split("\"ts\":")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .and_then(|n| n.parse().ok())
            .expect("ts parses");
        assert!(ts >= last, "ts regressed: {line}");
        last = ts;
        complete_events += 1;
    }
    assert!(
        complete_events >= 8,
        "expected a rich trace, got {complete_events} events"
    );
}

#[test]
fn session_chrome_trace_is_deterministic() {
    // The logical clock makes the whole export reproducible: byte
    // identical across runs.
    let (_, first) = traced_session_output();
    let (_, second) = traced_session_output();
    assert_eq!(first, second);
}

#[test]
fn lockstep_and_distributed_telemetry_totals_agree() {
    let e = parse(PROGRAM).unwrap();
    let p = 4;

    let lockstep = Telemetry::enabled_logical();
    let report = BspMachine::new(BspParams::new(p, 1, 1))
        .with_telemetry(lockstep.clone())
        .run(&e)
        .unwrap();

    let distributed = Telemetry::enabled_logical();
    let out = DistMachine::new(p)
        .with_telemetry(distributed.clone())
        .run(&e)
        .unwrap();

    for counter in ["bsp.supersteps", "bsp.puts", "bsp.ifats", "bsp.words_sent"] {
        assert_eq!(
            lockstep.counter_value(counter),
            distributed.counter_value(counter),
            "backends disagree on {counter}"
        );
    }
    // And both agree with the structured outcomes.
    assert_eq!(
        lockstep.counter_value("bsp.supersteps"),
        report.cost.supersteps
    );
    assert_eq!(distributed.counter_value("bsp.supersteps"), out.supersteps);
    assert_eq!(
        distributed.counter_value("bsp.words_sent"),
        out.total_words_sent
    );

    // Every rank timed both barrier phases of both supersteps.
    let metrics = distributed.metrics();
    let waits = &metrics.histograms["bsp.barrier_wait_us"];
    assert_eq!(waits.count, (p as u64) * 2 * out.supersteps);
}

/// Runs `src` on a fresh lockstep machine and sink, and checks whether
/// it succeeds and every counter it leaves there, by name.
fn assert_lockstep_counters(src: &str, succeeds: bool, expected: &[(&str, u64)]) {
    let tel = Telemetry::enabled_logical();
    let result = BspMachine::new(BspParams::new(4, 1, 1))
        .with_telemetry(tel.clone())
        .run(&parse(src).unwrap());
    assert_eq!(result.is_ok(), succeeds, "{result:?}");
    let counters = tel.metrics().counters;
    let got: Vec<(&str, u64)> = counters.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    assert_eq!(got, expected);
}

#[test]
fn lockstep_runs_count_evaluator_work_once() {
    // A put and an if‥at‥: the evaluator's counts beside the trace's.
    // `eval.put_words` counts words between distinct processors;
    // `bsp.words_sent` adds the if‥at‥ broadcast's p − 1.
    assert_lockstep_counters(
        "let v = put (mkpar (fun j -> fun i -> j + i)) in
         if mkpar (fun i -> i = 1) at 1
         then apply (mkpar (fun i -> fun f -> f 0), v)
         else mkpar (fun i -> 0)",
        true,
        &[
            ("bsp.ifats", 1),
            ("bsp.puts", 1),
            ("bsp.supersteps", 2),
            ("bsp.words_sent", 15),
            ("eval.async_ops", 4),
            ("eval.fuel_ticks", 138),
            ("eval.ifats", 1),
            ("eval.put_words", 12),
            ("eval.puts", 1),
            ("eval.steps.global", 18),
            ("eval.steps.local", 120),
        ],
    );
    // Processor 2 divides by zero. The failed run still counts the
    // work it did, skips the counts that stayed zero, and adds no
    // `bsp.*` counter.
    assert_lockstep_counters(
        "let x = 1 + 2 in apply (mkpar (fun i -> fun y -> y / (i - 2)), mkpar (fun i -> x))",
        false,
        &[
            ("eval.async_ops", 3),
            ("eval.fuel_ticks", 50),
            ("eval.steps.global", 15),
            ("eval.steps.local", 35),
        ],
    );
}

#[test]
fn disabled_session_records_nothing() {
    let mut s = Session::new(BspParams::new(2, 1, 10));
    s.load("put (mkpar (fun j -> fun i -> j))").unwrap();
    assert!(!s.telemetry().is_enabled());
    assert!(s.telemetry().spans().is_empty());
    assert_eq!(s.telemetry().to_jsonl(), "");
}

#[test]
fn session_events_carry_cumulative_metrics() {
    let tel = Telemetry::enabled_logical();
    let mut s = Session::with_telemetry(BspParams::new(2, 1, 10), tel);
    s.load("put (mkpar (fun j -> fun i -> j))").unwrap();
    assert_eq!(s.telemetry().metrics().counters["eval.puts"], 1);
    s.load("put (mkpar (fun j -> fun i -> j))").unwrap();
    assert_eq!(s.telemetry().metrics().counters["eval.puts"], 2);

    // Sessions without telemetry hold no counter.
    let mut plain = Session::new(BspParams::new(2, 1, 10));
    plain.load("1 + 1").unwrap();
    assert!(plain.telemetry().metrics().counters.is_empty());
}

#[test]
fn inference_counts_its_work_instead_of_recording_spans() {
    // fst, 1 and 2 are each instantiated once; a run adds its counts
    // once, when it ends, and records no span of its own.
    let tel = Telemetry::enabled_logical();
    bsml_infer::Inferencer::new()
        .with_telemetry(tel.clone())
        .run(&bsml_infer::initial_env(), &parse("fst (1, 2)").unwrap())
        .unwrap();
    let spans: Vec<&str> = tel.spans().iter().map(|s| s.name).collect();
    assert!(
        spans.iter().all(|name| !name.starts_with("infer.")),
        "{spans:?}"
    );
    assert_eq!(tel.counter_value("infer.instantiations"), 3);
    assert_eq!(tel.counter_value("infer.generalizations"), 0);
    assert!(tel.counter_value("infer.unifications") > 0);
}
