//! Inference in solved form: every rule checks the residual clauses of
//! its premises with its own new clauses, not the whole constraint tree
//! below it (DESIGN.md §3).
//!
//! * The solved form agrees with `Constraint::solve` of the tree the
//!   rules build: the same verdict, the same rejecting rule and
//!   reported constraint, and the same residual after `restrict`.
//! * The work the rule checks hand to unit propagation, read from the
//!   `infer.solver_atoms` counter, grows linearly on nested `ref`, the
//!   shape on which re-solving every premise's tree grew as n⁴.
//! * In release, nested `ref` at n = 120 infers in under 50 ms.

use bsml_ast::Expr;
use bsml_infer::{infer, initial_env, Inferencer, TypeError};
use bsml_obs::Telemetry;
use bsml_repro::testgen::{adversarial, generate, well_typed_source, Adversarial, GenTy};
use bsml_syntax::{parse, parse_module};
use bsml_types::Solution;
use proptest::prelude::*;

/// Contexts a generated term is put in: each accepts or rejects it
/// through a different rule ((App), (Let), (Ifat), (Cons), (Case),
/// (Match)), depending on whether the term's type is local. The
/// λ-bound `g` and `f` hide the term's type behind a variable that a
/// later unification links, which only Definition 1's basic
/// constraints catch.
const CONTEXTS: &[&str] = &[
    "{}",
    "mkpar (fun q -> {})",
    "let h = {} in 1",
    "fst (1, {})",
    "fst ({}, 1)",
    "fun x -> ({}, x)",
    "let f = fun x -> ({}, x) in f (mkpar (fun i -> i))",
    "(fun y -> y) ({})",
    "if mkpar (fun i -> true) at 0 then {} else {}",
    "[{}]",
    "case inl ({}) of inl a -> a | inr b -> b",
    "fun xs -> match xs with [] -> {} | h :: t -> {}",
    "fun g -> g ({}) + 1",
    "fun g -> (g ({}), fst (g ({}), 1))",
    "fun g -> if g ({}) then 1 else 2",
    "(fun f -> fun x -> f x) (fun y -> y) ({})",
    "fun g -> let v = g ({}) in mkpar (fun i -> v)",
    "fun g -> [g ({})]",
];

const TYPES: [GenTy; 4] = [GenTy::Int, GenTy::Bool, GenTy::IntPar, GenTy::BoolPar];

fn parse_source(src: &str) -> Expr {
    parse_module(src)
        .unwrap_or_else(|e| panic!("`{src}` does not parse: {e}"))
        .to_expr()
        .unwrap_or_else(|| panic!("`{src}` has no final expression"))
}

/// Checks the solved-form engine against `Solve` of the tree that a
/// recorded run builds for the same program. In a debug build, a
/// recorded run also asserts at every rule that `Solve` of the rule's
/// tree gives its clauses' verdict, so a rejection reported by both is
/// the one the tree would have made first.
fn check_agreement(e: &Expr) -> Result<(), TestCaseError> {
    let solved = infer(e);
    let shown = Inferencer::new()
        .with_derivation(true)
        .run(&initial_env(), e);
    match (solved, shown) {
        (Ok(solved), Ok(shown)) => {
            let tree = shown.derivation.expect("recorded").constraint;
            let reference = tree.solve();
            prop_assert!(reference != Solution::False, "the tree of {} is absurd", e);
            prop_assert_eq!(&solved.ty, &shown.ty);
            prop_assert_eq!(&solved.solution, &shown.solution);
            let keep = solved.ty.free_vars();
            prop_assert_eq!(
                solved.solution.restrict(&keep),
                reference.restrict(&keep),
                "{}: residual against Solve of {}",
                e,
                tree
            );
        }
        (Err(solved), Err(shown)) => {
            prop_assert_eq!(&solved, &shown);
            if let TypeError::LocalityViolation { constraint, .. } = &solved {
                prop_assert_eq!(constraint.solve(), Solution::False, "{}", e);
            }
        }
        (solved, shown) => prop_assert!(
            false,
            "{}: verdicts differ: {:?} against {:?}",
            e,
            solved.map(|i| i.ty),
            shown.map(|i| i.ty)
        ),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn solved_form_agrees_with_solving_the_tree(
        seed in any::<u64>(),
        ty in 0..TYPES.len(),
        context in 0..CONTEXTS.len(),
    ) {
        let term = generate(seed, TYPES[ty], 4).to_string();
        let source = CONTEXTS[context].replace("{}", &format!("({term})"));
        check_agreement(&parse_source(&source))?;
    }

    #[test]
    fn solved_form_agrees_on_served_phrases(seed in any::<u64>(), family in 0..4usize) {
        let source = match family {
            0 => well_typed_source(seed, 4),
            1 => format!("{} in 0", adversarial(seed, Adversarial::NestingBreach)),
            2 => format!("{} in 0", adversarial(seed, Adversarial::LocalityBreach)),
            _ => format!("{} in 0", adversarial(seed, Adversarial::IllTyped)),
        };
        check_agreement(&parse_source(&source))?;
    }
}

/// `ref (ref (… 0))`, `n` deep.
fn nested_ref(n: usize) -> Expr {
    let source = format!("{}0{}", "ref (".repeat(n), ")".repeat(n));
    // The parser and the engine recurse once per level; 160 levels
    // need more than a debug build's 2 MiB test thread.
    std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(move || parse(&source).expect("parses"))
        .expect("spawn")
        .join()
        .expect("the parser does not panic")
}

/// Infers `e` on a thread with room for its nesting, returning the
/// telemetry the run reported to.
fn infer_counted(e: Expr) -> Telemetry {
    std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(move || {
            let telemetry = Telemetry::enabled_logical();
            let inf = Inferencer::new()
                .with_telemetry(telemetry.clone())
                .run(&initial_env(), &e)
                .expect("nested references are well typed");
            assert_eq!(inf.solution, Solution::True);
            telemetry
        })
        .expect("spawn")
        .join()
        .expect("inference does not panic")
}

#[test]
fn propagation_work_grows_linearly_with_nested_refs() {
    // Each rule hands unit propagation its premises' residuals, which
    // are empty here: every atom over `int ref … ref` is ground and
    // drops out as it is read. So each doubling of the depth at most
    // doubles the atoms propagated (it grew as n⁴ when every rule
    // re-solved its premises' trees).
    let atoms: Vec<(usize, u64)> = [20, 40, 80, 160]
        .into_iter()
        .map(|n| {
            let telemetry = infer_counted(nested_ref(n));
            (n, telemetry.counter_value("infer.solver_atoms"))
        })
        .collect();
    assert!(atoms[0].1 > 0, "the counter reads 0: {atoms:?}");
    for pair in atoms.windows(2) {
        let ((n, a), (m, b)) = (pair[0], pair[1]);
        assert!(
            b <= 2 * a,
            "{b} atoms at n = {m}, over twice the {a} at n = {n}"
        );
    }
}

#[cfg(not(debug_assertions))]
#[test]
fn nested_refs_infer_in_under_50_ms() {
    use std::time::{Duration, Instant};

    let e = nested_ref(120);
    let best = (0..5)
        .map(|_| {
            let e = e.clone();
            std::thread::Builder::new()
                .stack_size(64 << 20)
                .spawn(move || {
                    let start = Instant::now();
                    infer(&e).expect("well typed");
                    start.elapsed()
                })
                .expect("spawn")
                .join()
                .expect("inference does not panic")
        })
        .min()
        .expect("five runs");
    assert!(
        best < Duration::from_millis(50),
        "n = 120 took {best:?} (best of 5)"
    );
}
