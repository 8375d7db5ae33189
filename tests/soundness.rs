//! Theorem 1 (typing safety), fuzzed.
//!
//! A seeded generator produces *well-typed-by-construction* closed
//! programs mixing local computation with the four BSP primitives.
//! For every generated program we check the full chain the theorem
//! promises:
//!
//! 1. the type system accepts it,
//! 2. the big-step evaluator produces a value (never a dynamic
//!    nesting error, never a runtime type error),
//! 3. the literal small-step machine reaches a *value* normal form
//!    (never a stuck term),
//! 4. both evaluators agree on the result,
//! 5. the result's shape matches the inferred type.

use bsml_ast::build as b;
use bsml_ast::{Expr, Op};
use bsml_eval::{eval_closed, smallstep, Value};
use bsml_infer::{infer, TypeError};
use bsml_repro::testgen::{generate, GenTy, P};
use bsml_types::Type;
use proptest::prelude::*;

fn value_matches_type(v: &Value, ty: &Type) -> bool {
    match (v, ty) {
        (Value::Int(_), Type::Int)
        | (Value::Bool(_), Type::Bool)
        | (Value::Unit, Type::Unit)
        // `nc ()` inhabits every type.
        | (Value::NoComm, _) => true,
        (Value::Vector(vs), Type::Par(inner)) => {
            vs.iter().all(|c| value_matches_type(c, inner))
        }
        (Value::Pair(a, b2), Type::Pair(ta, tb)) => {
            value_matches_type(a, ta) && value_matches_type(b2, tb)
        }
        _ => false,
    }
}

/// `true` if the program uses the §6 references extension — those
/// run on the big-step/VM semantics only (the paper's store-free
/// small-step machine covers the pure core).
fn mentions_refs(e: &Expr) -> bool {
    let mut found = false;
    e.walk(&mut |sub| {
        if let bsml_ast::ExprKind::Op(op) = sub.kind {
            if matches!(
                op,
                bsml_ast::Op::Ref | bsml_ast::Op::Deref | bsml_ast::Op::Assign
            ) {
                found = true;
            }
        }
    });
    found
}

fn check_theorem1(e: &Expr, expect_par: bool) {
    // 1. The type system accepts the generated program.
    let inf =
        infer(e).unwrap_or_else(|err| panic!("generated program rejected: {err}\n  program: {e}"));
    if expect_par {
        assert!(
            matches!(inf.ty, Type::Par(_)),
            "expected a par type, got {} for {e}",
            inf.ty
        );
    }

    // 2. Big-step evaluation succeeds.
    let big =
        eval_closed(e, P).unwrap_or_else(|err| panic!("big-step failed: {err}\n  program: {e}"));

    // 3./4. Small-step reaches a value and agrees — for the pure
    // fragment (the store-free machine has no rules for references;
    // ref-bearing programs are cross-checked against the bytecode VM
    // in tests/vm.rs instead).
    if !mentions_refs(e) {
        let small = smallstep::run(e, P, 5_000_000)
            .unwrap_or_else(|err| panic!("small-step failed: {err}\n  program: {e}"));
        assert!(
            bsml_ast::is_value(&small),
            "small-step normal form is not a value: {small}"
        );
        assert_eq!(
            big.to_string(),
            small.to_string(),
            "evaluator disagreement on {e}"
        );
    }

    // 5. The value inhabits the inferred type.
    assert!(
        value_matches_type(&big, &inf.ty),
        "value {big} does not match type {} for {e}",
        inf.ty
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn theorem1_for_local_programs(seed in any::<u64>()) {
        let e = generate(seed, GenTy::Int, 5);
        check_theorem1(&e, false);
    }

    #[test]
    fn theorem1_for_parallel_programs(seed in any::<u64>()) {
        let e = generate(seed, GenTy::IntPar, 4);
        check_theorem1(&e, true);
    }

    #[test]
    fn theorem1_round_trips_through_concrete_syntax(seed in any::<u64>()) {
        // Printing and re-parsing preserves typability and meaning.
        let e = generate(seed, GenTy::IntPar, 3);
        let printed = e.to_string();
        let reparsed = bsml_syntax::parse(&printed)
            .unwrap_or_else(|err| panic!("re-parse failed: {err}\n  {printed}"));
        prop_assert_eq!(&reparsed, &e);
        check_theorem1(&reparsed, true);
    }
}

#[test]
fn fixed_seeds_cover_all_constructs() {
    // A deterministic sweep so CI exercises the generator even if
    // proptest's RNG changes.
    for seed in 0..200 {
        check_theorem1(&generate(seed, GenTy::IntPar, 4), true);
        check_theorem1(&generate(seed, GenTy::Int, 5), false);
    }
}

#[test]
fn generated_code_is_rejected_where_it_would_nest_or_hide_a_vector() {
    // The generator builds only well-typed programs, so the sweeps
    // above never see a rejection. Each context below puts a generated
    // program where a global value would be nested in a vector or
    // hidden under a local result; the checker must reject exactly the
    // global programs there, at the rule that owns the side condition.
    type Context = (&'static str, fn(Expr) -> Expr, &'static str);
    let contexts: [Context; 3] = [
        ("mkpar (fun q -> e)", |e| b::mkpar(b::fun_("q", e)), "(App)"),
        ("let h = e in 1", |e| b::let_("h", e, b::int(1)), "(Let)"),
        (
            "fst (1, e)",
            |e| b::app(b::op(Op::Fst), b::pair(b::int(1), e)),
            "(App)",
        ),
    ];
    for seed in 0..200 {
        for ty in [GenTy::IntPar, GenTy::BoolPar] {
            let e = generate(seed, ty, 4);
            for (shape, wrap, expected) in &contexts {
                match infer(&wrap(e.clone())) {
                    Err(TypeError::LocalityViolation { rule, .. }) => assert_eq!(
                        rule, *expected,
                        "seed {seed}, {ty:?} in `{shape}` rejected at the wrong rule\n  program: {e}"
                    ),
                    Err(err) => panic!("seed {seed}, {ty:?} in `{shape}`: {err}\n  program: {e}"),
                    Ok(inf) => panic!(
                        "seed {seed}, {ty:?} in `{shape}` accepted at {}\n  program: {e}",
                        inf.ty
                    ),
                }
            }
        }
        for ty in [GenTy::Int, GenTy::Bool] {
            let e = generate(seed, ty, 5);
            for (shape, wrap, _) in &contexts {
                if let Err(err) = infer(&wrap(e.clone())) {
                    panic!("seed {seed}, {ty:?} in `{shape}` rejected: {err}\n  program: {e}");
                }
            }
        }
    }
}
