//! The BSML front door: parse → typecheck → run, in one call.
//!
//! This crate ties the pipeline together:
//!
//! * [`bsml_syntax`] parses concrete mini-BSML,
//! * [`bsml_infer`] applies the paper's constrained type system
//!   (rejecting every nesting of parallel vectors statically),
//! * [`bsml_bsp`] executes accepted programs on a simulated BSP
//!   machine and reports the `W + H·g + S·l` cost.
//!
//! ```
//! use bsml_core::{Bsml, BsmlError};
//! use bsml_bsp::BspParams;
//!
//! let bsml = Bsml::new(BspParams::new(4, 10, 1000));
//!
//! // A correct broadcast runs and is costed:
//! let out = bsml.run(
//!     "let recv = put (mkpar (fun j -> fun i -> j * j)) in
//!      apply (recv, mkpar (fun i -> 2))")?;
//! assert_eq!(out.report.value.to_string(), "<|4, 4, 4, 4|>");
//! assert_eq!(out.report.cost.supersteps, 1);
//!
//! // The paper's example2 never reaches the machine:
//! let err = bsml.run("mkpar (fun pid -> let v = mkpar (fun i -> i) in pid)");
//! assert!(matches!(err, Err(BsmlError::Type(_))));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod knobs;
pub mod persist;
pub mod session;

use std::fmt;

use bsml_ast::Expr;
use bsml_bsp::{BspMachine, BspParams, RunReport};
use bsml_eval::EvalError;
use bsml_infer::{Inference, Inferencer, TypeError};
use bsml_syntax::ParseError;
use bsml_types::Scheme;

pub use session::{Session, SessionEvent, SessionSnapshot};

pub use bsml_ast as ast;
pub use bsml_bsp as bsp;
pub use bsml_eval as eval;
pub use bsml_infer as infer;
pub use bsml_obs as obs;
pub use bsml_std as std_lib;
pub use bsml_syntax as syntax;
pub use bsml_types as types;
pub use bsml_vm as vm;

/// Any failure of the pipeline.
#[derive(Clone, Debug)]
pub enum BsmlError {
    /// Lexing/parsing failed.
    Parse(ParseError),
    /// The type system rejected the program.
    Type(TypeError),
    /// Evaluation failed (only reachable via
    /// [`Bsml::run_unchecked`], fuel exhaustion, or division by
    /// zero — well-typed programs cannot get dynamically stuck).
    Eval(EvalError),
}

impl BsmlError {
    /// Renders the error against the source, with a caret marker for
    /// located errors.
    #[must_use]
    pub fn render(&self, source: &str) -> String {
        match self {
            BsmlError::Parse(e) => e.render(source),
            BsmlError::Type(e) => e.render(source),
            BsmlError::Eval(e) => format!("runtime error: {e}"),
        }
    }
}

impl fmt::Display for BsmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BsmlError::Parse(e) => write!(f, "{e}"),
            BsmlError::Type(e) => write!(f, "{e}"),
            BsmlError::Eval(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BsmlError {}

impl From<ParseError> for BsmlError {
    fn from(e: ParseError) -> Self {
        BsmlError::Parse(e)
    }
}
impl From<TypeError> for BsmlError {
    fn from(e: TypeError) -> Self {
        BsmlError::Type(e)
    }
}
impl From<EvalError> for BsmlError {
    fn from(e: EvalError) -> Self {
        BsmlError::Eval(e)
    }
}

/// The static half of a pipeline run.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// The parsed program.
    pub ast: Expr,
    /// The inference result (type, constraint, canonical solution).
    pub inference: Inference,
}

impl CheckReport {
    /// The program's closed toplevel scheme, normalized.
    #[must_use]
    pub fn scheme(&self) -> Scheme {
        self.inference.scheme()
    }
}

/// The full outcome of checking and running a program.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// The static results.
    pub check: CheckReport,
    /// The simulated execution report (value, cost, trace).
    pub report: RunReport,
}

/// A configured BSML implementation: type checker + simulated BSP
/// machine.
#[derive(Clone, Debug)]
pub struct Bsml {
    machine: BspMachine,
}

impl Bsml {
    /// An implementation running on the given machine.
    #[must_use]
    pub fn new(params: BspParams) -> Bsml {
        Bsml {
            machine: BspMachine::new(params),
        }
    }

    /// Overrides the evaluator fuel.
    #[must_use]
    pub fn with_fuel(mut self, fuel: u64) -> Bsml {
        self.machine = self.machine.with_fuel(fuel);
        self
    }

    /// The machine parameters.
    #[must_use]
    pub fn params(&self) -> &BspParams {
        self.machine.params()
    }

    /// Starts an interactive [`session::Session`] on this machine.
    #[must_use]
    pub fn session(&self) -> session::Session {
        session::Session::new(*self.machine.params())
    }

    /// Parses and typechecks a program.
    ///
    /// # Errors
    ///
    /// [`BsmlError::Parse`] or [`BsmlError::Type`].
    pub fn check(&self, source: &str) -> Result<CheckReport, BsmlError> {
        let ast = bsml_syntax::parse(source)?;
        let inference = bsml_infer::infer(&ast)?;
        Ok(CheckReport { ast, inference })
    }

    /// Parses, typechecks and renders the typing derivation —
    /// the mechanical counterpart of the paper's Figures 8–10.
    ///
    /// # Errors
    ///
    /// [`BsmlError::Parse`] or [`BsmlError::Type`].
    pub fn derivation(&self, source: &str) -> Result<String, BsmlError> {
        let ast = bsml_syntax::parse(source)?;
        let inference = Inferencer::new()
            .with_derivation(true)
            .run(&bsml_infer::initial_env(), &ast)?;
        Ok(inference
            .derivation
            .expect("derivation recording was enabled")
            .render())
    }

    /// Parses, typechecks, then runs the program on the simulated
    /// machine.
    ///
    /// # Errors
    ///
    /// Any [`BsmlError`].
    pub fn run(&self, source: &str) -> Result<RunOutcome, BsmlError> {
        let check = self.check(source)?;
        let report = self.machine.run(&check.ast)?;
        Ok(RunOutcome { check, report })
    }

    /// Parses, typechecks, compiles to bytecode and runs on the
    /// abstract machine. About as fast as the tree-walking pipeline
    /// (1.1–1.25× on the benchmark program, EXPERIMENTS.md A5) and
    /// without cost instrumentation (use [`Bsml::run`] for superstep
    /// traces).
    ///
    /// # Errors
    ///
    /// Any [`BsmlError`]; compile errors cannot occur on typechecked
    /// programs (they are closed and vector-literal-free) and are
    /// reported as evaluation errors if they somehow do.
    pub fn run_vm(&self, source: &str) -> Result<bsml_vm::MValue, BsmlError> {
        let check = self.check(source)?;
        let program = bsml_vm::compile(&check.ast)
            .map_err(|e| BsmlError::Eval(EvalError::NotAFunction(e.to_string())))?;
        bsml_vm::Vm::new(self.machine.params().p)
            .run(&program)
            .map_err(BsmlError::Eval)
    }

    /// Runs a program *without* typechecking — used to demonstrate
    /// what the type system protects against (dynamic nesting errors,
    /// mismatched barriers).
    ///
    /// # Errors
    ///
    /// [`BsmlError::Parse`] or [`BsmlError::Eval`].
    pub fn run_unchecked(&self, source: &str) -> Result<RunReport, BsmlError> {
        let ast = bsml_syntax::parse(source)?;
        Ok(self.machine.run(&ast)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bsml() -> Bsml {
        Bsml::new(BspParams::new(4, 10, 1000))
    }

    #[test]
    fn check_reports_scheme() {
        let report = bsml().check("fun x -> x").unwrap();
        assert_eq!(report.scheme().to_string(), "∀'a.['a -> 'a]");
    }

    #[test]
    fn run_produces_value_and_cost() {
        let out = bsml().run("mkpar (fun i -> i + 1)").unwrap();
        assert_eq!(out.report.value.to_string(), "<|1, 2, 3, 4|>");
        assert_eq!(out.report.cost.supersteps, 0);
        assert_eq!(out.check.inference.ty.to_string(), "int par");
    }

    #[test]
    fn parse_errors_surface() {
        let err = bsml().check("let x = in 1").unwrap_err();
        assert!(matches!(err, BsmlError::Parse(_)));
        assert!(err.render("let x = in 1").contains('^'));
    }

    #[test]
    fn type_errors_stop_before_the_machine() {
        let err = bsml().run("fst (1, mkpar (fun i -> i))").unwrap_err();
        assert!(matches!(err, BsmlError::Type(_)));
    }

    #[test]
    fn unchecked_runs_show_dynamic_nesting() {
        let err = bsml()
            .run_unchecked("mkpar (fun pid -> let v = mkpar (fun i -> i) in pid)")
            .unwrap_err();
        match err {
            BsmlError::Eval(EvalError::NestedParallelism) => {}
            other => panic!("expected dynamic nesting, got {other}"),
        }
    }

    #[test]
    fn unchecked_accepts_what_the_type_system_overapproximates() {
        // Figure 10's program evaluates fine dynamically; the static
        // rejection is about the cost model.
        let report = bsml().run_unchecked("fst (1, mkpar (fun i -> i))").unwrap();
        assert_eq!(report.value.to_string(), "1");
    }

    #[test]
    fn derivation_renders() {
        let d = bsml().derivation("1 + 1").unwrap();
        assert!(d.contains("(App)"));
        assert!(d.contains("(Const) ⊢ 1 : int"));
    }

    #[test]
    fn run_vm_matches_run() {
        let src = "let r = put (mkpar (fun j -> fun d -> j * j)) in
                   apply (r, mkpar (fun i -> i))";
        let tree = bsml().run(src).unwrap().report.value.to_string();
        let vm = bsml().run_vm(src).unwrap().to_string();
        assert_eq!(tree, vm);
    }

    #[test]
    fn run_vm_rejects_statically_too() {
        assert!(matches!(
            bsml().run_vm("fst (1, mkpar (fun i -> i))"),
            Err(BsmlError::Type(_))
        ));
    }

    #[test]
    fn eval_errors_are_wrapped() {
        let err = bsml().run("1 / 0").unwrap_err();
        assert!(matches!(err, BsmlError::Eval(EvalError::DivisionByZero)));
        assert!(err.render("1 / 0").contains("division by zero"));
    }

    #[test]
    fn display_of_errors() {
        let err = bsml().check("x").unwrap_err();
        assert_eq!(err.to_string(), "unbound variable `x`");
    }
}
