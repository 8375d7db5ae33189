//! Rule-by-rule tests of the Figure 7 type system.

use bsml_infer::{infer, initial_env, Inferencer, TypeError};
use bsml_syntax::parse;
use bsml_types::Solution;

fn ty_of(src: &str) -> String {
    let e = parse(src).expect("parse");
    match infer(&e) {
        Ok(inf) => inf.ty.to_string(),
        Err(err) => panic!("`{src}` failed to type: {}", err.render(src)),
    }
}

fn scheme_of(src: &str) -> String {
    let e = parse(src).expect("parse");
    infer(&e)
        .unwrap_or_else(|err| panic!("`{src}`: {}", err.render(src)))
        .scheme()
        .to_string()
}

fn rejected_by(src: &str) -> String {
    let e = parse(src).expect("parse");
    match infer(&e) {
        Err(TypeError::LocalityViolation { rule, .. }) => rule.to_string(),
        Err(other) => panic!("`{src}` rejected, but not by locality: {other}"),
        Ok(inf) => panic!("`{src}` unexpectedly accepted at {}", inf.ty),
    }
}

#[test]
fn rule_const() {
    assert_eq!(ty_of("42"), "int");
    assert_eq!(ty_of("true"), "bool");
    assert_eq!(ty_of("()"), "unit");
}

#[test]
fn rule_op() {
    assert_eq!(ty_of("(+)"), "int * int -> int");
    assert_eq!(ty_of("bsp_p"), "unit -> int");
}

#[test]
fn rule_var_and_let_polymorphism() {
    assert_eq!(ty_of("let id = fun x -> x in id 1"), "int");
    // The binding is polymorphic: used at two types.
    assert_eq!(
        ty_of("let id = fun x -> x in (id 1, id true)"),
        "int * bool"
    );
}

#[test]
fn rule_fun() {
    assert_eq!(ty_of("fun x -> x + 1"), "int -> int");
    assert_eq!(scheme_of("fun x -> x"), "∀'a.['a -> 'a]");
    assert_eq!(
        scheme_of("fun f -> fun x -> f (f x)"),
        "∀'a.[('a -> 'a) -> 'a -> 'a]"
    );
}

#[test]
fn rule_app() {
    assert_eq!(ty_of("(fun x -> x * 2) 21"), "int");
    let e = parse("1 2").unwrap();
    assert!(matches!(infer(&e), Err(TypeError::Mismatch { .. })));
}

#[test]
fn rule_pair() {
    assert_eq!(ty_of("(1, true)"), "int * bool");
    assert_eq!(ty_of("(mkpar (fun i -> i), 1)"), "int par * int");
}

#[test]
fn rule_ifthenelse() {
    assert_eq!(ty_of("if 1 < 2 then 10 else 20"), "int");
    // Branch types must agree.
    let e = parse("if true then 1 else false").unwrap();
    assert!(matches!(infer(&e), Err(TypeError::Mismatch { .. })));
    // The condition must be bool.
    let e = parse("if 3 then 1 else 2").unwrap();
    assert!(matches!(infer(&e), Err(TypeError::Mismatch { .. })));
    // Branches may be global: if‥then‥else can return vectors.
    assert_eq!(
        ty_of("if true then mkpar (fun i -> i) else mkpar (fun i -> 0)"),
        "int par"
    );
}

#[test]
fn rule_ifat() {
    assert_eq!(
        ty_of("if mkpar (fun i -> true) at 0 then mkpar (fun i -> 1) else mkpar (fun i -> 2)"),
        "int par"
    );
    // A local return type is forbidden: L(τ) ⇒ False.
    assert_eq!(
        rejected_by("if mkpar (fun i -> true) at 0 then 1 else 2"),
        "(Ifat)"
    );
    // The vector must be bool par.
    let e = parse("if mkpar (fun i -> i) at 0 then mkpar (fun i -> 1) else mkpar (fun i -> 2)")
        .unwrap();
    assert!(matches!(infer(&e), Err(TypeError::Mismatch { .. })));
}

#[test]
fn parallel_identity_scheme_matches_the_paper() {
    // §4: fun x -> if (mkpar (fun i -> true)) at 0 then x else x
    // must get [α→α / L(α) ⇒ False].
    let e = parse("fun x -> if mkpar (fun i -> true) at 0 then x else x").unwrap();
    let inf = infer(&e).unwrap();
    let s = inf.scheme().to_string();
    assert!(
        s.contains("'a -> 'a") && s.contains("L('a) ⇒ False"),
        "got: {s}"
    );
    // And the constraint is residual, not absurd.
    assert!(matches!(inf.solution, Solution::Residual(_)));
}

#[test]
fn rule_let_side_condition() {
    // Binding a vector and returning a local hides a global
    // evaluation — rejected, even outside any mkpar.
    assert_eq!(rejected_by("let this = mkpar (fun i -> i) in 5"), "(Let)");
    // Returning the vector itself is fine.
    assert_eq!(ty_of("let v = mkpar (fun i -> i) in v"), "int par");
    // Chained global results are fine.
    assert_eq!(
        ty_of("let v = mkpar (fun i -> i) in apply (mkpar (fun i -> fun x -> x), v)"),
        "int par"
    );
}

#[test]
fn mkpar_demands_local_components() {
    assert_eq!(ty_of("mkpar (fun i -> i)"), "int par");
    assert_eq!(ty_of("mkpar (fun i -> (i, true))"), "(int * bool) par");
    // Vector of vectors — the paper's example1 shape.
    assert_eq!(
        rejected_by("mkpar (fun i -> mkpar (fun j -> i + j))"),
        "(App)"
    );
}

#[test]
fn apply_demands_local_elements() {
    assert_eq!(
        ty_of("apply (mkpar (fun i -> fun x -> x + i), mkpar (fun i -> i))"),
        "int par"
    );
    let bad = "apply (mkpar (fun i -> fun x -> x), mkpar (fun i -> mkpar (fun j -> j)))";
    let e = parse(bad).unwrap();
    assert!(infer(&e).is_err());
}

#[test]
fn put_types_as_in_figure6() {
    assert_eq!(
        ty_of("put (mkpar (fun j -> fun dst -> j + dst))"),
        "(int -> int) par"
    );
    // Sending vectors is absurd.
    let e = parse("put (mkpar (fun j -> fun dst -> mkpar (fun i -> i)))").unwrap();
    assert!(infer(&e).is_err());
}

#[test]
fn unbound_variables_are_reported() {
    let e = parse("x + 1").unwrap();
    match infer(&e) {
        Err(TypeError::Unbound { name, .. }) => assert_eq!(name.as_str(), "x"),
        other => panic!("expected unbound, got {other:?}"),
    }
}

#[test]
fn occurs_check_is_reported_as_mismatch() {
    let e = parse("fun x -> x x").unwrap();
    assert!(matches!(infer(&e), Err(TypeError::Mismatch { .. })));
}

#[test]
fn fix_and_recursion() {
    assert_eq!(
        ty_of("let rec fact n = if n = 0 then 1 else n * fact (n - 1) in fact"),
        "int -> int"
    );
    // fix of a constant-function builder is the polymorphic identity.
    assert_eq!(scheme_of("fix (fun f -> fun n -> n)"), "∀'a.['a -> 'a]");
    assert_eq!(ty_of("(fix (fun f -> fun n -> n)) 3"), "int");
}

#[test]
fn nc_isnc() {
    assert_eq!(scheme_of("nc ()"), "∀'a.['a]");
    assert_eq!(ty_of("isnc (nc ())"), "bool");
    assert_eq!(ty_of("isnc 3"), "bool");
    // isnc on a vector violates L(α).
    assert_eq!(rejected_by("isnc (mkpar (fun i -> i))"), "(App)");
}

#[test]
fn equality_is_local_only() {
    assert_eq!(ty_of("1 = 2"), "bool");
    assert_eq!(ty_of("(1, true) = (2, false)"), "bool");
    assert_eq!(
        rejected_by("mkpar (fun i -> i) = mkpar (fun i -> i)"),
        "(App)"
    );
}

#[test]
fn sums_extension() {
    assert_eq!(scheme_of("inl 1"), "∀'a.[int + 'a]");
    assert_eq!(scheme_of("inr 1"), "∀'a.['a + int]");
    assert_eq!(
        ty_of("case inl 1 of inl a -> a + 1 | inr b -> b - 1"),
        "int"
    );
    assert_eq!(
        scheme_of("fun s -> case s of inl a -> a | inr b -> b"),
        "∀'a.['a + 'a -> 'a]"
    );
    // A sum of a vector is a global value; eliminating it into a
    // local result is rejected like (Let).
    let bad = "case inl (mkpar (fun i -> i)) of inl v -> 1 | inr x -> x";
    assert_eq!(rejected_by(bad), "(Case)");
    // Eliminating into a global result is fine.
    assert_eq!(
        ty_of("case inl (mkpar (fun i -> i)) of inl v -> v | inr x -> x"),
        "int par"
    );
}

#[test]
fn lists_extension() {
    assert_eq!(ty_of("[1; 2; 3]"), "int list");
    assert_eq!(scheme_of("[]"), "∀'a.['a list]");
    assert_eq!(ty_of("match [1] with [] -> 0 | h :: t -> h"), "int");
    // The (Match) side condition leaves the residual fact L('a): a
    // list elimination with a local result demands local elements
    // (which lists always have — the fact is satisfiable noise).
    assert_eq!(
        scheme_of("fun xs -> match xs with [] -> 0 | h :: t -> 1"),
        "∀'a.['a list -> int / L('a)]"
    );
    // Lists of parallel vectors are rejected at the cons.
    assert_eq!(rejected_by("mkpar (fun i -> i) :: []"), "(Cons)");
}

#[test]
fn derivations_can_be_recorded() {
    let e = parse("fst (mkpar (fun i -> i), 1)").unwrap();
    let inf = Inferencer::new()
        .with_derivation(true)
        .run(&initial_env(), &e)
        .unwrap();
    let d = inf.derivation.expect("derivation recorded");
    let rendered = d.render();
    // The tree contains the key judgments of Figure 9.
    assert!(rendered.contains("(Op) ⊢ fst"), "got:\n{rendered}");
    assert!(rendered.contains("int par"), "got:\n{rendered}");
    assert!(rendered.lines().last().unwrap().starts_with("(App)"));
    assert!(d.size() >= 6);
}

#[test]
fn inference_is_deterministic() {
    let e = parse("let f = fun x -> (x, x) in f (mkpar (fun i -> i))").unwrap();
    let a = infer(&e).unwrap();
    let b = infer(&e).unwrap();
    assert_eq!(a.ty, b.ty);
    assert_eq!(a.solution, b.solution);
}

#[test]
fn polymorphism_with_constraints_propagates() {
    // A let-bound fst keeps its constraint; the bad use is caught at
    // the use site.
    let good = "let first = fun p -> fst p in first (mkpar (fun i -> i), 1)";
    assert_eq!(ty_of(good), "int par");
    let bad = "let first = fun p -> fst p in first (1, mkpar (fun i -> i))";
    let e = parse(bad).unwrap();
    assert!(infer(&e).is_err(), "polymorphic nesting escaped");
}

#[test]
fn deep_programs_type_in_reasonable_time() {
    // A deep chain of lets. Inference recursion is proportional to
    // nesting depth, so run on a thread with a generous stack (test
    // threads default to 2 MiB).
    std::thread::Builder::new()
        .stack_size(64 * 1024 * 1024)
        .spawn(|| {
            let mut src = String::new();
            for i in 0..400 {
                src.push_str(&format!("let x{i} = {i} in "));
            }
            src.push_str("x0 + x399");
            assert_eq!(ty_of(&src), "int");
        })
        .expect("spawn")
        .join()
        .expect("join");
}
