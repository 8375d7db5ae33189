//! The repository benchmark: one closed-loop workload per execution
//! path (lockstep simulator, thread per rank, process per rank, and the
//! multi-tenant server), timed end to end, with a traced per-layer
//! breakdown.
//!
//! ```console
//! $ cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!       --workload threads --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the program's
//! telemetry is switched on and the metrics are the per-layer ones.
//! See `perfbench/README.md` for what each workload and metric means.

mod pipeline;
mod program;
mod serving;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Equal time windows a measured run is cut into. Each end-to-end
/// figure is computed per window, and the run reports the window at the
/// better quartile. Contention from outside the benchmark slows whole
/// windows at a time, so it does not move the result unless it lasts
/// for more than three quarters of the run.
const WINDOWS: usize = 10;

/// Where the process workload binds its coordination socket: relative
/// to the working directory, so the benchmark writes only inside the
/// checkout it runs from (and the path stays under the socket-path
/// length limit however deep the checkout is).
const SOCKET_DIR: &str = ".perfbench-sock";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Lockstep,
    Threads,
    Processes,
    Serving,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "lockstep" => Workload::Lockstep,
            "threads" => Workload::Threads,
            "processes" => Workload::Processes,
            "serving" => Workload::Serving,
            _ => return None,
        })
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Per-layer totals over all operations of a run (µs, or counts).
#[derive(Clone, Copy, Debug, Default)]
pub struct Layers {
    pub parse_us: f64,
    pub infer_us: f64,
    pub exec_us: f64,
    pub barrier_wait_us: f64,
    pub queue_wait_us: f64,
    pub supersteps: u64,
    pub words: u64,
    pub frames: u64,
}

/// One completed operation.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// When it completed, seconds since measurement started.
    pub done_s: f64,
    /// Its wall time, µs.
    pub latency_us: f64,
}

/// What a measured run observed.
#[derive(Debug, Default)]
pub struct Tally {
    /// Every completed operation.
    pub samples: Vec<Sample>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Operations that completed with a wrong result.
    pub wrong: u64,
    pub layers: Layers,
}

impl Tally {
    pub fn record(&mut self, start: Instant, latency: Duration) {
        self.samples.push(Sample {
            done_s: start.elapsed().as_secs_f64(),
            latency_us: micros(latency),
        });
    }

    fn latency_sum_us(&self) -> f64 {
        self.samples.iter().map(|s| s.latency_us).sum()
    }

    pub fn merge(&mut self, other: Tally) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        let (a, b) = (&mut self.layers, other.layers);
        a.parse_us += b.parse_us;
        a.infer_us += b.infer_us;
        a.exec_us += b.exec_us;
        a.barrier_wait_us += b.barrier_wait_us;
        a.queue_wait_us += b.queue_wait_us;
        a.supersteps += b.supersteps;
        a.words += b.words;
        a.frames += b.frames;
    }
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending sample.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Times `SETUP_REPEATS` set-ups, keeping the last one's result.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up ran"), median(times))
}

fn metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.ends_with('{') {
        out.push_str(", ");
    }
    let _ = write!(
        out,
        "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
    );
}

/// `(p50 ms, ops/s)` of each time window that saw a completion.
fn windows(samples: &[Sample], elapsed: Duration) -> Vec<(f64, f64)> {
    let width = elapsed.as_secs_f64() / WINDOWS as f64;
    let mut by_window = vec![Vec::new(); WINDOWS];
    for s in samples {
        let w = ((s.done_s / width) as usize).min(WINDOWS - 1);
        by_window[w].push(s.latency_us);
    }
    by_window
        .into_iter()
        .filter(|w| !w.is_empty())
        .map(|mut w| {
            w.sort_by(f64::total_cmp);
            (percentile(&w, 0.50) / 1e3, w.len() as f64 / width)
        })
        .collect()
}

/// The value at quantile `q` of `xs`.
fn quantile(mut xs: Vec<f64>, q: f64) -> f64 {
    xs.sort_by(f64::total_cmp);
    percentile(&xs, q)
}

fn report(args: &Args, tally: &Tally, setup_s: f64, elapsed: Duration) -> String {
    let completed = tally.samples.len();
    let mut m = String::from("{");
    if args.trace {
        let per_op = |total: f64| total / completed.max(1) as f64;
        let l = &tally.layers;
        let attributed = l.parse_us + l.infer_us + l.exec_us + l.queue_wait_us;
        metric(&mut m, "parse_us", per_op(l.parse_us), "us");
        metric(&mut m, "infer_us", per_op(l.infer_us), "us");
        metric(&mut m, "exec_us", per_op(l.exec_us), "us");
        metric(&mut m, "barrier_wait_us", per_op(l.barrier_wait_us), "us");
        metric(&mut m, "queue_wait_us", per_op(l.queue_wait_us), "us");
        // Clamped: where the timed layers cover the whole operation the
        // difference is only rounding.
        let rest = (tally.latency_sum_us() - attributed).max(0.0);
        metric(&mut m, "unattributed_us", per_op(rest), "us");
        metric(
            &mut m,
            "supersteps_per_op",
            per_op(l.supersteps as f64),
            "count",
        );
        metric(&mut m, "words_per_op", per_op(l.words as f64), "count");
        metric(&mut m, "frames_per_op", per_op(l.frames as f64), "count");
    } else if completed > 0 {
        let (p50s, rates): (Vec<f64>, Vec<f64>) =
            windows(&tally.samples, elapsed).into_iter().unzip();
        metric(&mut m, "latency_p50_ms", quantile(p50s, 0.25), "ms");
        metric(&mut m, "throughput_ops_s", quantile(rates, 0.75), "1/s");
        metric(&mut m, "setup_s", setup_s, "s");
    }
    m.push('}');
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {m}}}",
        tally.wrong == 0 && completed > 0,
        tally.attempted,
        tally.failed,
    )
}

fn main() -> ExitCode {
    // The process workload re-executes this binary as its rank workers;
    // the launcher marks them through the environment.
    if std::env::var_os(bsml_bsp::RANK_SOCKET_ENV).is_some() {
        let code = bsml_bsp::process::rank_main();
        return ExitCode::from(u8::try_from(code).unwrap_or(2));
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let (tally, setup_s, elapsed) = match args.workload {
        Workload::Serving => serving::run(args.seed, budget, args.trace),
        backend => {
            let socket_dir = PathBuf::from(SOCKET_DIR);
            let out = pipeline::run(backend, args.seed, budget, args.trace, &socket_dir);
            let _ = std::fs::remove_dir_all(&socket_dir);
            out
        }
    };
    eprintln!(
        "perfbench: {:?} seed {} trace {}: {} ops in {:.2} s, {} failed, {} wrong",
        args.workload,
        args.seed,
        u8::from(args.trace),
        tally.samples.len(),
        elapsed.as_secs_f64(),
        tally.failed,
        tally.wrong,
    );
    println!("{}", report(&args, &tally, setup_s, elapsed));
    ExitCode::SUCCESS
}
