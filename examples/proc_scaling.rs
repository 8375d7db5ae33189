//! The EXPERIMENTS.md A6 measurement: one workload, three execution
//! substrates (lockstep simulator, thread-per-rank shared memory,
//! process-per-rank over a Unix socket), swept over p — so the cost
//! of real process isolation is a number, not a vibe. Process mode is
//! timed cold (a fresh `ProcessConfig` per run, so every run launches
//! its rank fleet) and warm (one config cloned per run, so runs reuse
//! the idle fleet). A second table times a program with no superstep,
//! which is all launch (cold) or all fixed cost per run (warm).
//!
//! ```console
//! $ cargo build --release --bin bsml-rank   # the worker the launcher spawns
//! $ cargo run --release --example proc_scaling
//! ```
//!
//! The worker lands in `target/release/`, one directory above the
//! example binary, where the launcher's sibling search finds it
//! (`BSML_RANK_BIN` overrides).

use std::time::{Duration, Instant};

use bsml_ast::Expr;
use bsml_bsp::{BspMachine, BspParams, DistMachine, Execution, ProcessConfig};
use bsml_syntax::parse;

/// Five chained total exchanges — the checkpoint grid's workload
/// (`tests/process_chaos.rs`), heavy enough on communication that the
/// transport is what's being measured.
const EXCHANGE_5: &str = "
    let sum = mkpar (fun i -> fun t ->
        let acc = ref 0 in
        (for j = 0 to bsp_p () - 1 do acc := !acc + t j done);
        !acc) in
    let next = fun v -> put (apply (mkpar (fun j -> fun v -> fun i -> v + j + 1), v)) in
    let v1 = apply (sum, put (mkpar (fun j -> fun i -> j + i + 1))) in
    let v2 = apply (sum, next v1) in
    let v3 = apply (sum, next v2) in
    let v4 = apply (sum, next v3) in
    apply (sum, next v4)";

/// A program with no superstep: each backend's fixed cost per run.
const ZERO_SUPERSTEPS: &str = "mkpar (fun i -> i)";

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort();
    xs[xs.len() / 2]
}

/// The median of `iters` runs of `f`, after one warm-up run, and the
/// value the runs returned.
fn time<F: FnMut() -> String>(iters: usize, mut f: F) -> (String, Duration) {
    let mut value = f();
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        value = f();
        samples.push(t0.elapsed());
    }
    (value, median(samples))
}

fn on_processes(p: usize, cfg: ProcessConfig, e: &Expr) -> String {
    DistMachine::new(p)
        .with_execution(Execution::Processes(cfg))
        .run(e)
        .expect("process run")
        .value
        .to_string()
}

fn main() {
    let e = parse(EXCHANGE_5).expect("workload parses");
    println!("five chained total exchanges (median of 5, value cross-checked)");
    println!("p   lockstep    threads     procs cold  procs warm");
    for p in [2usize, 4, 8, 16] {
        let (lock_v, lockstep) = time(5, || {
            BspMachine::new(BspParams::new(p, 1, 1))
                .run(&e)
                .expect("lockstep run")
                .value
                .to_string()
        });
        let (thr_v, threads) = time(5, || {
            DistMachine::new(p)
                .run(&e)
                .expect("thread run")
                .value
                .to_string()
        });
        // Cold: a fresh config per run, so every run launches its
        // fleet. Warm: clones of one config share the fleet.
        let (cold_v, cold) = time(5, || on_processes(p, ProcessConfig::default(), &e));
        let warm_cfg = ProcessConfig::default();
        let (warm_v, warm) = time(5, || on_processes(p, warm_cfg.clone(), &e));
        assert_eq!(lock_v, thr_v, "p={p}: thread backend diverged");
        assert_eq!(lock_v, cold_v, "p={p}: process backend diverged");
        assert_eq!(lock_v, warm_v, "p={p}: warm process backend diverged");
        println!("{p:<3} {lockstep:<11?} {threads:<11?} {cold:<11?} {warm:<11?}");
    }

    let e = parse(ZERO_SUPERSTEPS).expect("program parses");
    println!();
    println!("{ZERO_SUPERSTEPS} (median of 21)");
    println!("p   threads     procs cold  procs warm");
    for p in [4usize, 8, 16] {
        let (_, threads) = time(21, || {
            DistMachine::new(p)
                .run(&e)
                .expect("thread run")
                .value
                .to_string()
        });
        let (_, cold) = time(21, || on_processes(p, ProcessConfig::default(), &e));
        let warm_cfg = ProcessConfig::default();
        let (_, warm) = time(21, || on_processes(p, warm_cfg.clone(), &e));
        println!("{p:<3} {threads:<11?} {cold:<11?} {warm:<11?}");
    }
}
