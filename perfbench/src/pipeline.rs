//! The lockstep, threads and processes workloads: each operation runs
//! one seeded program on one backend and checks the value, superstep
//! count and words sent against the program's closed-form expectation.
//!
//! On the lockstep workload an operation is the whole checked pipeline
//! (parse → infer → run), the path a user of the type system takes, so
//! the front end is measured without contention. The distributed
//! backends run programs checked once during set-up, so their exchange
//! and barrier costs are not diluted by type inference.

use std::path::Path;
use std::time::{Duration, Instant};

use bsml_ast::Expr;
use bsml_bsp::{BspMachine, BspParams, DistMachine, Execution, ProcessConfig};
use bsml_obs::Telemetry;

use crate::program::{self, Program, Rng};
use crate::{micros, timed_setup, Tally, Workload};

/// Machine sizes; every operation runs one program on each.
const WIDTHS: [usize; 3] = [4, 8, 16];

/// Distinct sweeps (programs per machine size).
const SWEEPS: usize = 4;

/// Local list length of the lockstep programs: evaluation comparable
/// to the front end's share of an operation.
const LOCKSTEP_LIST_LEN: usize = 256;

/// Local list length on the distributed backends: enough evaluation per
/// rank that a run is not all barrier, little enough that the exchange
/// still dominates.
const DIST_LIST_LEN: usize = 64;

/// The cost-model parameters only price the lockstep trace; they do
/// not change what runs.
fn params(p: usize) -> BspParams {
    BspParams::new(p, 1, 1)
}

struct Backend {
    workload: Workload,
    processes: ProcessConfig,
}

/// A program checked once during set-up.
struct Input {
    prog: Program,
    ast: Expr,
}

/// What one run of a program produced.
struct Ran {
    value: String,
    supersteps: u64,
    words: u64,
}

impl Backend {
    fn run(&self, prog: &Program, ast: &Expr, telemetry: &Telemetry) -> Result<Ran, String> {
        let dist = |machine: DistMachine| {
            machine
                .with_telemetry(telemetry.clone())
                .run(ast)
                .map(|o| Ran {
                    value: o.value.to_string(),
                    supersteps: o.supersteps,
                    words: o.total_words_sent,
                })
                .map_err(|e| e.to_string())
        };
        match self.workload {
            Workload::Lockstep => lockstep(prog.p, ast, telemetry),
            Workload::Threads => dist(DistMachine::new(prog.p)),
            Workload::Processes => dist(
                DistMachine::new(prog.p)
                    .with_execution(Execution::Processes(self.processes.clone())),
            ),
            Workload::Serving => unreachable!("the serving workload runs in serving.rs"),
        }
    }
}

fn lockstep(p: usize, ast: &Expr, telemetry: &Telemetry) -> Result<Ran, String> {
    let report = BspMachine::new(params(p))
        .with_telemetry(telemetry.clone())
        .run(ast)
        .map_err(|e| e.to_string())?;
    // Self-deliveries are local copies, not communication: count what
    // crossed between processors, as the distributed backends do.
    let words = report
        .trace
        .iter()
        .map(|r| r.sent.iter().sum::<u64>())
        .sum();
    Ok(Ran {
        value: report.value.to_string(),
        supersteps: report.cost.supersteps,
        words,
    })
}

fn check(prog: &Program, ran: &Ran) -> Result<(), String> {
    if ran.value != prog.expected || ran.supersteps != prog.supersteps || ran.words != prog.words {
        return Err(format!(
            "p={}: got {} in {} supersteps / {} words, expected {} in {} / {}",
            prog.p,
            ran.value,
            ran.supersteps,
            ran.words,
            prog.expected,
            prog.supersteps,
            prog.words
        ));
    }
    Ok(())
}

/// Runs one program: (parse → infer →) run → check, adding each
/// layer's time to the tally. Returns the program's wall time.
fn step(
    backend: &Backend,
    input: &Input,
    trace: bool,
    tally: &mut Tally,
) -> Result<Duration, String> {
    let prog = &input.prog;
    let t0 = Instant::now();
    let parsed;
    let (ast, t1, t2) = if backend.workload == Workload::Lockstep {
        parsed = bsml_syntax::parse(&prog.source).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        bsml_infer::infer(&parsed).map_err(|e| e.to_string())?;
        (&parsed, t1, Instant::now())
    } else {
        (&input.ast, t0, t0)
    };
    let telemetry = if trace {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let ran = backend.run(prog, ast, &telemetry)?;
    let t3 = Instant::now();
    if let Err(e) = check(prog, &ran) {
        tally.wrong += 1;
        eprintln!("perfbench: wrong result: {e}");
    }
    let l = &mut tally.layers;
    l.parse_us += micros(t1 - t0);
    l.infer_us += micros(t2 - t1);
    l.exec_us += micros(t3 - t2);
    l.supersteps += ran.supersteps;
    l.words += ran.words;
    if trace {
        let metrics = telemetry.metrics();
        if let Some(h) = metrics.histograms.get("bsp.barrier_wait_us") {
            l.barrier_wait_us += h.sum as f64;
        }
        l.frames += metrics
            .counters
            .get("net.frames_sent")
            .copied()
            .unwrap_or(0);
    }
    Ok(t3 - t0)
}

/// One operation: one program at each machine size in turn. A sweep
/// has one latency, whatever the mix of widths, so its percentiles are
/// not split between the modes of three machine sizes.
fn op(backend: &Backend, sweep: &[Input], trace: bool, start: Instant, tally: &mut Tally) {
    tally.attempted += 1;
    let mut total = Duration::ZERO;
    for input in sweep {
        match step(backend, input, trace, tally) {
            Ok(took) => total += took,
            Err(e) => {
                tally.failed += 1;
                eprintln!("perfbench: operation failed: {e}");
                return;
            }
        }
    }
    tally.record(start, total);
}

/// Builds the seeded program pool, checks every program (types, and
/// its result on the lockstep reference machine against the closed
/// form), and warms the backend with one sweep.
fn setup(backend: &Backend, seed: u64) -> Vec<[Input; 3]> {
    let list_len = if backend.workload == Workload::Lockstep {
        LOCKSTEP_LIST_LEN
    } else {
        DIST_LIST_LEN
    };
    let mut rng = Rng::new(seed);
    let pool: Vec<[Input; 3]> = (0..SWEEPS)
        .map(|_| {
            WIDTHS.map(|p| {
                let prog = program::generate(&mut rng, p, list_len);
                let ast = bsml_syntax::parse(&prog.source).expect("generated programs parse");
                bsml_infer::infer(&ast).expect("generated programs typecheck");
                let ran =
                    lockstep(prog.p, &ast, &Telemetry::disabled()).expect("reference run succeeds");
                check(&prog, &ran).expect("the reference machine agrees with the closed form");
                Input { prog, ast }
            })
        })
        .collect();
    op(
        backend,
        &pool[0],
        false,
        Instant::now(),
        &mut Tally::default(),
    );
    pool
}

pub fn run(
    workload: Workload,
    seed: u64,
    budget: Duration,
    trace: bool,
    socket_dir: &Path,
) -> (Tally, f64, Duration) {
    let backend = Backend {
        workload,
        processes: ProcessConfig {
            socket_dir: Some(socket_dir.to_path_buf()),
            rank_binary: std::env::current_exe().ok(),
            ..ProcessConfig::default()
        },
    };
    let (pool, setup_s) = timed_setup(|| setup(&backend, seed));
    let mut tally = Tally::default();
    let start = Instant::now();
    for sweep in pool.iter().cycle() {
        op(&backend, sweep, trace, start, &mut tally);
        if start.elapsed() >= budget {
            break;
        }
    }
    (tally, setup_s, start.elapsed())
}
