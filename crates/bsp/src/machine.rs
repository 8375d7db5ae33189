//! The simulated BSP machine: parameters and the run entry point.

use std::fmt;
use std::sync::Arc;

use bsml_ast::Expr;
use bsml_eval::{EvalError, Evaluator, FuelCell, TeeHooks, TracingHooks, Trail, Value};
use bsml_obs::{FieldValue, Telemetry};

use crate::cost::{Barrier, CostSummary, SuperstepRecord};
use crate::hooks::BspCostHooks;

/// BSP machine parameters (paper §2): the number of processor-memory
/// pairs `p`, the per-word communication gap `g` and the barrier
/// latency `l`, both expressed as multiples of the local processing
/// speed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BspParams {
    /// Number of processors.
    pub p: usize,
    /// Time to deliver one word of a 1-relation, in flop-times.
    pub g: u64,
    /// Barrier synchronization time, in flop-times.
    pub l: u64,
}

impl BspParams {
    /// Builds a parameter set.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    #[must_use]
    pub fn new(p: usize, g: u64, l: u64) -> BspParams {
        assert!(p > 0, "a BSP machine needs at least one processor");
        BspParams { p, g, l }
    }

    /// A profile shaped like a commodity Ethernet cluster: cheap
    /// flops, expensive words, very expensive barriers.
    #[must_use]
    pub fn ethernet_cluster(p: usize) -> BspParams {
        BspParams::new(p, 160, 40_000)
    }

    /// A profile shaped like a tightly-coupled parallel machine
    /// (Cray T3E-class): low `g`, low `l`.
    #[must_use]
    pub fn tightly_coupled(p: usize) -> BspParams {
        BspParams::new(p, 3, 400)
    }

    /// A profile shaped like a shared-memory multicore: negligible
    /// `g`, small `l`.
    #[must_use]
    pub fn multicore(p: usize) -> BspParams {
        BspParams::new(p, 1, 60)
    }
}

impl fmt::Display for BspParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(p = {}, g = {}, l = {})", self.p, self.g, self.l)
    }
}

/// The result of running a program on the simulated machine.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// The program's value.
    pub value: Value,
    /// Aggregated `W`, `H`, `S`.
    pub cost: CostSummary,
    /// Per-superstep details, in execution order. The last record is
    /// the barrier-free tail of the computation.
    pub trace: Vec<SuperstepRecord>,
    /// The machine the program ran on.
    pub params: BspParams,
}

impl RunReport {
    /// The priced execution time `W + H·g + S·l` on this machine.
    #[must_use]
    pub fn time(&self) -> u64 {
        self.cost.time(&self.params)
    }
}

/// A simulated BSP machine.
///
/// # Example
///
/// ```
/// use bsml_bsp::{BspMachine, BspParams};
/// use bsml_syntax::parse;
///
/// let machine = BspMachine::new(BspParams::multicore(4));
/// let report = machine.run(&parse("mkpar (fun i -> i * i)")?)?;
/// assert_eq!(report.value.to_string(), "<|0, 1, 4, 9|>");
/// assert_eq!(report.cost.supersteps, 0); // mkpar is asynchronous
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct BspMachine {
    params: BspParams,
    fuel: u64,
    /// When set, every run draws its fuel from this shared cell in
    /// scheduler-granted slices instead of the flat `fuel` budget.
    fuel_cell: Option<Arc<FuelCell>>,
    /// When set, every run records its `:=` writes on this trail.
    trail: Option<Trail>,
    telemetry: Telemetry,
}

impl BspMachine {
    /// A machine with the default evaluator fuel.
    #[must_use]
    pub fn new(params: BspParams) -> BspMachine {
        BspMachine {
            params,
            fuel: bsml_eval::bigstep::DEFAULT_FUEL,
            fuel_cell: None,
            trail: None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Overrides the evaluation fuel (step budget).
    #[must_use]
    pub fn with_fuel(mut self, fuel: u64) -> BspMachine {
        self.fuel = fuel;
        self
    }

    /// Makes every run draw fuel from a shared [`FuelCell`] in
    /// scheduler-granted slices (parking between grants) instead of
    /// the flat budget — the hosting side of `bsml-serve`'s
    /// fuel-sliced preemption. Cancellation through the cell surfaces
    /// as [`EvalError::Cancelled`].
    #[must_use]
    pub fn with_fuel_cell(mut self, cell: Arc<FuelCell>) -> BspMachine {
        self.fuel_cell = Some(cell);
        self
    }

    /// Makes every run record the cells `:=` assigns, with their old
    /// values, on `trail`, so that a caller holding a mark on it can
    /// undo them (see [`bsml_eval::trail`]).
    #[must_use]
    pub fn with_trail(mut self, trail: Trail) -> BspMachine {
        self.trail = Some(trail);
        self
    }

    /// Attaches a telemetry handle. Each run then replays its
    /// superstep trace into the sink — one `superstep` span per
    /// processor per superstep, on per-processor tracks `p0…`, with
    /// `w` / `h_plus` / `h_minus` / `barrier` fields taken verbatim
    /// from the [`RunReport`] — and bumps the `bsp.supersteps`,
    /// `bsp.puts`, `bsp.ifats`, and `bsp.words_sent` counters.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> BspMachine {
        self.telemetry = telemetry;
        self
    }

    /// The machine parameters.
    #[must_use]
    pub fn params(&self) -> &BspParams {
        &self.params
    }

    /// Runs a closed mini-BSML program, measuring BSP costs.
    ///
    /// # Errors
    ///
    /// Propagates any [`EvalError`] from the evaluator (dynamic
    /// nesting, type errors in untyped input, fuel exhaustion, …).
    pub fn run(&self, e: &Expr) -> Result<RunReport, EvalError> {
        self.run_with_env(&bsml_eval::Env::new(), e)
    }

    /// Runs a program under an initial value environment (used by
    /// interactive sessions whose earlier declarations are bound).
    ///
    /// # Errors
    ///
    /// Same as [`BspMachine::run`].
    pub fn run_with_env(&self, env: &bsml_eval::Env, e: &Expr) -> Result<RunReport, EvalError> {
        let mut run_span = self.telemetry.span("bsp.run");
        let mut hooks = BspCostHooks::new(self.params.p);
        let value = if self.telemetry.is_enabled() {
            // One evaluator pass feeds both cost accounting and the
            // `eval.*` telemetry counters (flushed when `tracing`
            // drops).
            let mut tracing = TracingHooks::new(self.telemetry.clone());
            let mut tee = TeeHooks::new(&mut hooks, &mut tracing);
            let mut ev = Evaluator::with_fuel(self.params.p, &mut tee, self.fuel);
            if let Some(cell) = &self.fuel_cell {
                ev = ev.with_fuel_cell(Arc::clone(cell));
            }
            if let Some(trail) = &self.trail {
                ev = ev.with_trail(trail.clone());
            }
            ev.eval_with_env(env, e)?
        } else {
            let mut ev = Evaluator::with_fuel(self.params.p, &mut hooks, self.fuel);
            if let Some(cell) = &self.fuel_cell {
                ev = ev.with_fuel_cell(Arc::clone(cell));
            }
            if let Some(trail) = &self.trail {
                ev = ev.with_trail(trail.clone());
            }
            ev.eval_with_env(env, e)?
        };
        let trace = hooks.finish();
        let cost = CostSummary::from_records(&trace);
        if run_span.is_active() {
            run_span.set("w", cost.work);
            run_span.set("h", cost.h_relation);
            run_span.set("s", cost.supersteps);
            self.replay_trace(&trace);
        }
        Ok(RunReport {
            value,
            cost,
            trace,
            params: self.params,
        })
    }

    /// Replays a finished superstep trace into the telemetry sink on a
    /// logical BSP schedule: every processor enters superstep `s` at
    /// the same instant, works for its own `w_i`, and the next
    /// superstep starts after the full priced cost `w + h·g + l` of
    /// this one — so barrier imbalance is visible as the gap between a
    /// span's end and the next superstep's start.
    fn replay_trace(&self, trace: &[SuperstepRecord]) {
        let tracks: Vec<Telemetry> = (0..self.params.p)
            .map(|i| self.telemetry.track(&format!("p{i}")))
            .collect();
        let (mut puts, mut ifats, mut words_sent) = (0u64, 0u64, 0u64);
        let mut t = self.telemetry.now_us();
        for (s, rec) in trace.iter().enumerate() {
            for (i, track) in tracks.iter().enumerate() {
                let w = rec.work.get(i).copied().unwrap_or(0);
                let h_plus = rec.sent.get(i).copied().unwrap_or(0);
                let h_minus = rec.received.get(i).copied().unwrap_or(0);
                self.telemetry.record_span(
                    track.current_track(),
                    "superstep",
                    Some(s as u64),
                    t,
                    t + w,
                    vec![
                        ("w", FieldValue::U64(w)),
                        ("h_plus", FieldValue::U64(h_plus)),
                        ("h_minus", FieldValue::U64(h_minus)),
                        (
                            "barrier",
                            FieldValue::Str(barrier_name(rec.barrier).to_string()),
                        ),
                    ],
                );
            }
            match rec.barrier {
                Barrier::Put => puts += 1,
                Barrier::IfAt => ifats += 1,
                Barrier::ProgramEnd => {}
            }
            words_sent += rec.sent.iter().sum::<u64>();
            t += rec.cost().time(&self.params).max(1);
        }
        add_run_counters(&self.telemetry, puts + ifats, puts, ifats, words_sent);
    }
}

/// Adds one run's totals to the `bsp.*` counters, the same way on the
/// lockstep machine and on both distributed backends.
pub(crate) fn add_run_counters(
    telemetry: &Telemetry,
    supersteps: u64,
    puts: u64,
    ifats: u64,
    words_sent: u64,
) {
    telemetry.counter_add("bsp.supersteps", supersteps);
    telemetry.counter_add("bsp.puts", puts);
    telemetry.counter_add("bsp.ifats", ifats);
    telemetry.counter_add("bsp.words_sent", words_sent);
}

/// Display name of a barrier kind in telemetry fields.
fn barrier_name(b: Barrier) -> &'static str {
    match b {
        Barrier::Put => "put",
        Barrier::IfAt => "ifat",
        Barrier::ProgramEnd => "end",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsml_syntax::parse;

    fn run(src: &str, params: BspParams) -> RunReport {
        let e = parse(src).expect("parse");
        BspMachine::new(params)
            .run(&e)
            .unwrap_or_else(|err| panic!("run `{src}`: {err}"))
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_rejected() {
        let _ = BspParams::new(0, 1, 1);
    }

    #[test]
    fn purely_local_program_has_no_communication() {
        let r = run("1 + 2 * 3", BspParams::new(4, 10, 100));
        assert_eq!(r.value.to_string(), "7");
        assert_eq!(r.cost.h_relation, 0);
        assert_eq!(r.cost.supersteps, 0);
        assert!(r.cost.work > 0);
        // Time is work only.
        assert_eq!(r.time(), r.cost.work);
    }

    #[test]
    fn mkpar_apply_are_asynchronous() {
        let r = run(
            "apply (mkpar (fun i -> fun x -> x + i), mkpar (fun i -> i))",
            BspParams::new(4, 10, 100),
        );
        assert_eq!(r.cost.supersteps, 0);
        assert_eq!(r.cost.h_relation, 0);
        assert_eq!(r.trace.len(), 1); // only the final tail
    }

    #[test]
    fn put_costs_one_superstep() {
        let r = run(
            "put (mkpar (fun j -> fun i -> j))",
            BspParams::new(4, 10, 100),
        );
        assert_eq!(r.cost.supersteps, 1);
        // Every processor sends one word to each of the p−1 others.
        assert_eq!(r.cost.h_relation, 3);
        assert_eq!(r.trace.len(), 2);
    }

    #[test]
    fn ifat_costs_one_superstep_with_a_broadcast() {
        let r = run(
            "if mkpar (fun i -> true) at 0 then mkpar (fun i -> 1) else mkpar (fun i -> 2)",
            BspParams::new(4, 10, 100),
        );
        assert_eq!(r.cost.supersteps, 1);
        // The deciding boolean travels to the p−1 other processors.
        assert_eq!(r.cost.h_relation, 3);
    }

    #[test]
    fn two_puts_are_two_supersteps() {
        let r = run(
            "let a = put (mkpar (fun j -> fun i -> j)) in
             let b = put (mkpar (fun j -> fun i -> j + 1)) in
             (a, b)",
            BspParams::new(2, 10, 100),
        );
        assert_eq!(r.cost.supersteps, 2);
    }

    #[test]
    fn pricing_uses_the_machine() {
        let fast = run("put (mkpar (fun j -> fun i -> j))", BspParams::multicore(4));
        let slow = run(
            "put (mkpar (fun j -> fun i -> j))",
            BspParams::ethernet_cluster(4),
        );
        // Same abstract cost, very different priced time.
        assert_eq!(fast.cost, slow.cost);
        assert!(slow.time() > fast.time());
    }

    #[test]
    fn profiles_are_ordered_sensibly() {
        let p = 8;
        assert!(BspParams::multicore(p).l < BspParams::tightly_coupled(p).l);
        assert!(BspParams::tightly_coupled(p).l < BspParams::ethernet_cluster(p).l);
        assert_eq!(
            BspParams::multicore(p).to_string(),
            "(p = 8, g = 1, l = 60)"
        );
    }

    #[test]
    fn work_counts_per_processor_asymmetry() {
        // Processor 3 does much more local work.
        let r = run(
            "let rec spin n = if n = 0 then 0 else spin (n - 1) in
             apply (mkpar (fun i -> fun x -> if x = 3 then spin 500 else 0),
                    mkpar (fun i -> i))",
            BspParams::new(4, 1, 1),
        );
        let tail = r.trace.last().unwrap();
        let w3 = tail.work[3];
        let w0 = tail.work[0];
        assert!(w3 > w0 + 400, "w3={w3} w0={w0}");
    }
}
