//! Let-polymorphism × locality constraints: the subtle interplay the
//! paper's scheme substitution (Definition 1) exists for. A
//! polymorphic binding may be used at local types and global types in
//! the same program; each *use* re-instantiates the constraint and is
//! judged independently.

use bsml_infer::{infer, initial_env, Inferencer};
use bsml_obs::Telemetry;
use bsml_std::combinators::{prelude, ALL_DEFS};
use bsml_syntax::parse;

fn accepts(src: &str) -> String {
    infer(&parse(src).expect("parse"))
        .unwrap_or_else(|e| panic!("`{src}`:\n{}", e.render(src)))
        .ty
        .to_string()
}

fn rejects(src: &str) {
    let e = parse(src).expect("parse");
    assert!(infer(&e).is_err(), "`{src}` should be rejected");
}

#[test]
fn one_binding_local_and_global_uses() {
    // `dup` used at int and at int par in the same body.
    assert_eq!(
        accepts(
            "let dup = fun x -> (x, x) in
             (dup 1, dup (mkpar (fun i -> i)))"
        ),
        "(int * int) * (int par * int par)"
    );
}

#[test]
fn fst_used_both_ways() {
    assert_eq!(
        accepts(
            "let first = fun p -> fst p in
             (first (1, 2), first (mkpar (fun i -> i), 1))"
        ),
        "int * int par"
    );
    // The same binding instantiated at the Figure 10 shape fails at
    // that use only.
    rejects(
        "let first = fun p -> fst p in
         (first (1, 2), first (1, mkpar (fun i -> i)))",
    );
}

#[test]
fn parallel_identity_used_twice_globally() {
    assert_eq!(
        accepts(
            "let pid = fun x -> if mkpar (fun i -> true) at 0 then x else x in
             (pid (mkpar (fun i -> i)), pid (mkpar (fun i -> true)))"
        ),
        "int par * bool par"
    );
    // One global use and one local use: the local one is rejected.
    rejects(
        "let pid = fun x -> if mkpar (fun i -> true) at 0 then x else x in
         (pid (mkpar (fun i -> i)), pid 1)",
    );
}

#[test]
fn composition_preserves_constraints() {
    // compose id with the parallel identity: the composite inherits
    // L(α) ⇒ False through instantiation.
    rejects(
        "let pid = fun x -> if mkpar (fun i -> true) at 0 then x else x in
         let compose = fun f -> fun g -> fun x -> f (g x) in
         (compose pid (fun y -> y)) 1",
    );
    assert_eq!(
        accepts(
            "let pid = fun x -> if mkpar (fun i -> true) at 0 then x else x in
             let compose = fun f -> fun g -> fun x -> f (g x) in
             (compose pid (fun y -> y)) (mkpar (fun i -> i))"
        ),
        "int par"
    );
}

#[test]
fn higher_order_primitives_as_arguments() {
    // Passing mkpar itself around keeps its constraint.
    assert_eq!(
        accepts("let call = fun f -> f (fun i -> i * 2) in call mkpar"),
        "int par"
    );
    rejects("let call = fun f -> f (fun i -> mkpar (fun j -> j)) in call mkpar");
}

#[test]
fn polymorphic_lists_of_functions() {
    // A list of local functions applied under mkpar.
    assert_eq!(
        accepts(
            "let fs = [(fun x -> x + 1); (fun x -> x * 2)] in
             mkpar (fun i ->
               match fs with [] -> i | g :: rest -> g i)"
        ),
        "int par"
    );
    // A list of *vectors* can never exist.
    rejects("[mkpar (fun i -> i)]");
}

#[test]
fn put_result_reused_polymorphically() {
    // The delivered-message functions can be probed at several
    // destinations in one expression.
    assert_eq!(
        accepts(
            "let r = put (mkpar (fun j -> fun d -> j * 10 + d)) in
             (apply (r, mkpar (fun i -> 0)),
              apply (r, mkpar (fun i -> 1)))"
        ),
        "int par * int par"
    );
}

#[test]
fn generalization_does_not_leak_monomorphic_vars() {
    // A lambda-bound variable is monomorphic: using it at two types
    // must fail even though a let would succeed.
    rejects("(fun id -> (id 1, id true)) (fun x -> x)");
    assert_eq!(
        accepts("let id = fun x -> x in (id 1, id true)"),
        "int * bool"
    );
}

#[test]
fn nested_lets_accumulate_constraints() {
    assert_eq!(
        accepts(
            "let v = mkpar (fun i -> i) in
             let w = apply (mkpar (fun i -> fun x -> x + 1), v) in
             let x = apply (mkpar (fun i -> fun a -> a * 2), w) in
             x"
        ),
        "int par"
    );
    // Breaking the chain with a local result anywhere is rejected.
    rejects(
        "let v = mkpar (fun i -> i) in
         let w = apply (mkpar (fun i -> fun x -> x + 1), v) in
         let n = 5 in
         snd (w, n)",
    );
}

/// Horn clauses handed to unit propagation while inferring the first
/// `k` prelude definitions in front of a parallel body.
fn solver_clauses(k: usize) -> u64 {
    let src = prelude(&ALL_DEFS[..k], "mkpar (fun i -> i)");
    let telemetry = Telemetry::enabled_logical();
    Inferencer::new()
        .with_telemetry(telemetry.clone())
        .run(&initial_env(), &parse(&src).expect("parse"))
        .unwrap_or_else(|e| panic!("prelude of {k} rejected: {}", e.render(&src)));
    telemetry.counter_value("infer.solver_clauses")
}

#[test]
fn solver_work_grows_linearly_with_the_prelude() {
    // A let-bound scheme stores its solved constraint, so a use of the
    // name does not copy the body's constraint tree into the solver
    // again: the clause count grows at most in proportion to the
    // number of definitions.
    let base = solver_clauses(4);
    for k in 4..=ALL_DEFS.len() {
        let clauses = solver_clauses(k);
        assert!(
            4 * clauses <= k as u64 * base,
            "{clauses} clauses for {k} definitions, over ({k}/4)·{base}"
        );
    }
}
