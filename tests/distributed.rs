//! Lockstep simulator vs distributed (threaded SPMD) machine: same
//! programs, same values, same communication volumes, same superstep
//! counts. This validates the central claim behind the lockstep
//! model — BSML's global expressions evaluate identically on every
//! processor, so playing them on one evaluator is faithful to real
//! distributed execution (the paper's reference [5]).

use std::path::PathBuf;
use std::time::Duration;

use bsml_bsp::distributed::DistMachine;
use bsml_bsp::{BspMachine, BspParams, Execution, ProcessConfig};
use bsml_eval::EvalError;
use bsml_obs::Telemetry;
use bsml_std::{algorithms, workloads};
use bsml_syntax::parse;

fn cross_check(name: &str, src: &str, p: usize) {
    cross_check_on(name, src, p, Execution::InProcess);
}

fn cross_check_on(name: &str, src: &str, p: usize, execution: Execution) {
    let e = parse(src).unwrap_or_else(|err| panic!("{name}: {}", err.render(src)));
    let lockstep = BspMachine::new(BspParams::new(p, 1, 1))
        .run(&e)
        .unwrap_or_else(|err| panic!("{name} lockstep p={p}: {err}"));
    let distributed = DistMachine::new(p)
        .with_execution(execution)
        .run(&e)
        .unwrap_or_else(|err| panic!("{name} distributed p={p}: {err}"));

    assert_eq!(
        lockstep.value.to_string(),
        distributed.value.to_string(),
        "{name}: values differ at p={p}"
    );
    assert_eq!(
        lockstep.cost.supersteps, distributed.supersteps,
        "{name}: superstep counts differ at p={p}"
    );
    // Total words sent across the machine: the lockstep records them
    // per-superstep per-proc; the distributed machine sums them live.
    let lockstep_words: u64 = lockstep
        .trace
        .iter()
        .map(|r| r.sent.iter().sum::<u64>())
        .sum();
    assert_eq!(
        lockstep_words, distributed.total_words_sent,
        "{name}: communication volumes differ at p={p}"
    );
}

#[test]
fn machines_agree_on_every_workload() {
    for w in workloads::all_basic() {
        for p in [1, 2, 4] {
            cross_check(&w.name, &w.source, p);
        }
    }
}

#[test]
fn machines_agree_on_the_applications() {
    cross_check("psrs", &algorithms::psrs_sort(6).source, 4);
    cross_check("matvec", &algorithms::matvec(2, 2).source, 3);
}

#[test]
fn machines_agree_on_replicated_scalars_and_ifat() {
    // A program whose result is a replicated local value — every rank
    // must compute the same thing.
    cross_check("replicated-scalar", "let x = 3 in x * x + 1", 4);
    cross_check(
        "ifat-branching",
        "if mkpar (fun i -> i = 2) at 2
         then mkpar (fun i -> i * 10)
         else mkpar (fun i -> 0 - 1)",
        4,
    );
    cross_check(
        "ifat-false-branch",
        "if mkpar (fun i -> i = 2) at 0
         then mkpar (fun i -> i * 10)
         else mkpar (fun i -> 0 - 1)",
        4,
    );
}

#[test]
fn distributed_work_is_per_processor() {
    // An asymmetric workload: processor 3 spins. The distributed
    // machine must charge the extra work to rank 3 only.
    let e = parse(
        "let rec spin n = if n = 0 then 0 else spin (n - 1) in
         apply (mkpar (fun i -> fun x -> if x = 3 then spin 2000 else 0),
                mkpar (fun i -> i))",
    )
    .unwrap();
    let out = DistMachine::new(4).run(&e).unwrap();
    assert!(
        out.work[3] > out.work[0] + 1500,
        "rank 3 should do the spinning: {:?}",
        out.work
    );
}

#[test]
fn distributed_errors_propagate_not_deadlock() {
    // Rank-dependent divergence of arithmetic: processor 2 divides by
    // zero inside its component; all threads must come home with an
    // error (no deadlock at the next barrier).
    let e = parse(
        "let v = mkpar (fun i -> if i = 2 then 1 / 0 else i) in
         put (apply (mkpar (fun i -> fun x -> fun d -> x), v))",
    )
    .unwrap();
    let err = DistMachine::new(4).run(&e).unwrap_err();
    assert_eq!(err, EvalError::DivisionByZero);
}

/// `n` nested `inl`s around `()`.
fn nested_inl(n: usize) -> String {
    format!("{}(){}", "inl (".repeat(n), ")".repeat(n))
}

#[test]
fn unserializable_messages_are_rejected() {
    // (row, source, the `NotSerializable` text on threads and on
    // processes, or `None` for the lockstep value).
    let rows: Vec<(&str, String, Option<&str>)> = vec![
        // Each kind with no serialized form, once as a message …
        (
            "message closure",
            "put (mkpar (fun j -> fun d -> fun x -> x + j))".into(),
            Some("<fun x>"),
        ),
        (
            "message primitive",
            "put (mkpar (fun j -> fun d -> fst))".into(),
            Some("fst"),
        ),
        (
            "message fixpoint",
            "put (mkpar (fun j -> fun d -> fix (fun f -> f)))".into(),
            Some("<fix>"),
        ),
        (
            "message table",
            "let r = put (mkpar (fun j -> fun d -> j)) in
             put (apply (mkpar (fun j -> fun t -> fun d -> t), r))"
                .into(),
            Some("<delivered-messages>"),
        ),
        (
            "message cell",
            "put (mkpar (fun j -> fun d -> ref j))".into(),
            Some("ref 0"),
        ),
        // … and once as a result.
        (
            "result closure",
            "mkpar (fun i -> fun x -> x + i)".into(),
            Some("<fun x>"),
        ),
        (
            "result primitive",
            "mkpar (fun i -> fst)".into(),
            Some("fst"),
        ),
        (
            "result fixpoint",
            "mkpar (fun i -> fix (fun f -> f))".into(),
            Some("<fix>"),
        ),
        (
            "result table",
            "put (mkpar (fun j -> fun d -> j))".into(),
            Some("<delivered-messages>"),
        ),
        (
            "result cell",
            "mkpar (fun i -> ref i)".into(),
            Some("ref 0"),
        ),
        // The decoder's depth bound (100) is enforced where a value is
        // written, so the sender refuses what its peer or parent could
        // not read. A result's vector counts one level.
        (
            "message 101 deep",
            format!(
                "let r = put (mkpar (fun j -> fun d -> {})) in mkpar (fun i -> i)",
                nested_inl(101)
            ),
            Some("<nested deeper than 100>"),
        ),
        (
            "message 100 deep",
            format!(
                "let r = put (mkpar (fun j -> fun d -> {})) in mkpar (fun i -> i)",
                nested_inl(100)
            ),
            None,
        ),
        (
            "result 100 deep",
            format!("mkpar (fun i -> {})", nested_inl(100)),
            Some("<nested deeper than 100>"),
        ),
        (
            "result 99 deep",
            format!("mkpar (fun i -> {})", nested_inl(99)),
            None,
        ),
    ];
    let processes = Execution::Processes(ProcessConfig {
        rank_binary: Some(PathBuf::from(env!("CARGO_BIN_EXE_bsml-rank"))),
        ..ProcessConfig::default()
    });
    for (row, src, refused) in &rows {
        let e = parse(src).unwrap_or_else(|err| panic!("{row}: {}", err.render(src)));
        // The lockstep machine, living in one address space, accepts
        // every row — a documented difference (OCaml marshalling has
        // the same split).
        let lockstep = BspMachine::new(BspParams::new(2, 1, 1))
            .run(&e)
            .unwrap_or_else(|err| panic!("{row} lockstep: {err}"))
            .value
            .to_string();
        let want = match refused {
            Some(text) => Err(EvalError::NotSerializable((*text).to_string())),
            None => Ok(lockstep),
        };
        for execution in [Execution::InProcess, processes.clone()] {
            let got = DistMachine::new(2)
                .with_execution(execution)
                .run(&e)
                .map(|out| out.value.to_string());
            assert_eq!(got, want, "{row}");
        }
    }
}

#[test]
fn references_are_per_rank_replicas() {
    // A replicated cell updated in global mode: every rank updates
    // its own replica identically; the result is coherent.
    cross_check(
        "replicated-ref",
        "let c = ref 1 in
         let upd = c := 2 in
         mkpar (fun i -> !c + i)",
        3,
    );
}

#[test]
fn a_put_of_a_ten_thousand_element_list_agrees_on_a_2_mib_thread() {
    // Rank 1 sends the list to rank 0, rank 0 sends `[]` back: every
    // walk over the message loops down its spine, so nothing aborts.
    let src = "let rec range acc n = if n = 0 then acc else range (n :: acc) (n - 1) in
               let rec sum acc xs = match xs with [] -> acc | h :: t -> sum (acc + h) t in
               let xs = range [] 10000 in
               let got = put (mkpar (fun j -> fun dst ->
                             if dst = j then nc () else if j = 1 then xs else [])) in
               apply (mkpar (fun i -> fun f -> sum 0 (f (1 - i))), got)";
    let processes = ProcessConfig {
        rank_binary: Some(PathBuf::from(env!("CARGO_BIN_EXE_bsml-rank"))),
        ..ProcessConfig::default()
    };
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            cross_check("put-10000", src, 2);
            cross_check_on("put-10000", src, 2, Execution::Processes(processes));
        })
        .expect("spawn a 2 MiB thread")
        .join()
        .expect("both backends agree with lockstep");
}

#[test]
fn distributed_matches_across_machine_sizes() {
    for p in [1, 2, 3, 5, 8] {
        cross_check("fold-plus", &workloads::fold_plus().source, p);
    }
}

#[test]
fn a_total_exchange_wider_than_256_ranks() {
    // Every rank sends every peer one word in one superstep, so each
    // mailbox holds p − 1 frames when the count round completes. The
    // mailbox bound follows p; a fixed 256-frame bound would refuse
    // frames here.
    let p = 260;
    let e = parse(
        "apply (put (mkpar (fun j -> fun i -> j + i)),
                mkpar (fun i -> (i + 1) mod (bsp_p ())))",
    )
    .unwrap();
    let out = DistMachine::new(p).run(&e).unwrap();
    let expected: Vec<String> = (0..p).map(|i| ((i + 1) % p + i).to_string()).collect();
    assert_eq!(
        out.value.to_string(),
        format!("<|{}|>", expected.join(", "))
    );
    assert_eq!(out.supersteps, 1);
    assert_eq!(out.total_words_sent, (p * (p - 1)) as u64);
}

#[test]
fn only_non_empty_messages_become_frames() {
    // Shifts, a direct broadcast and a logarithmic scan send most of
    // their messages as `nc ()`. Every real message is one int, so on
    // both distributed backends the frames on the wire must equal the
    // words sent, while value, supersteps and words match lockstep.
    let programs = [
        workloads::shift(),
        workloads::bcast_direct(1),
        workloads::scan_plus_log(),
    ];
    let processes = ProcessConfig {
        rank_binary: Some(PathBuf::from(env!("CARGO_BIN_EXE_bsml-rank"))),
        ..ProcessConfig::default()
    };
    for prog in &programs {
        let e = prog.ast();
        for p in [4usize, 8] {
            let lockstep = BspMachine::new(BspParams::new(p, 1, 1)).run(&e).unwrap();
            let lockstep_words: u64 = lockstep
                .trace
                .iter()
                .map(|r| r.sent.iter().sum::<u64>())
                .sum();
            for (backend, execution) in [
                ("threads", Execution::InProcess),
                ("processes", Execution::Processes(processes.clone())),
            ] {
                let ctx = format!("{} p={p} on {backend}", prog.name);
                let tel = Telemetry::enabled_logical();
                let out = DistMachine::new(p)
                    .with_execution(execution)
                    .with_telemetry(tel.clone())
                    .run(&e)
                    .unwrap_or_else(|err| panic!("{ctx}: {err}"));
                assert_eq!(out.value.to_string(), lockstep.value.to_string(), "{ctx}");
                assert_eq!(out.supersteps, lockstep.cost.supersteps, "{ctx}");
                assert_eq!(out.total_words_sent, lockstep_words, "{ctx}");
                assert_eq!(
                    tel.counter_value("net.frames_sent"),
                    out.total_words_sent,
                    "{ctx}"
                );
            }
        }
    }
}

#[test]
fn a_zero_barrier_timeout_is_a_deadline_already_passed_on_both_backends() {
    // The first rank into the count round of the one `put` waits with
    // a deadline that has already passed: it times out alone, on
    // threads and in a rank process alike.
    let e = parse(
        "let r = put (mkpar (fun j -> fun i -> j)) in apply (mkpar (fun i -> fun t -> t 0), r)",
    )
    .unwrap();
    let processes = Execution::Processes(ProcessConfig {
        rank_binary: Some(PathBuf::from(env!("CARGO_BIN_EXE_bsml-rank"))),
        ..ProcessConfig::default()
    });
    for execution in [Execution::InProcess, processes] {
        let ctx = format!("{execution:?}");
        let got = DistMachine::new(2)
            .with_execution(execution)
            .with_barrier_timeout(Duration::ZERO)
            .run(&e)
            .map(|out| out.value.to_string());
        assert_eq!(
            got,
            Err(EvalError::BarrierTimeout {
                superstep: 0,
                waiting: 1
            }),
            "{ctx}"
        );
    }
}
