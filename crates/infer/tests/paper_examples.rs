//! The paper's complete example corpus (§2.1 and §4, Figures 8–10):
//! every program the paper discusses, accepted or rejected exactly as
//! the paper says.

use bsml_infer::{infer, initial_env, Inferencer, TypeError};
use bsml_syntax::parse;

fn accepts(src: &str) -> String {
    let e = parse(src).expect("parse");
    match infer(&e) {
        Ok(inf) => inf.ty.to_string(),
        Err(err) => panic!("`{src}` rejected: {}", err.render(src)),
    }
}

fn rejects(src: &str) -> TypeError {
    let e = parse(src).expect("parse");
    match infer(&e) {
        Err(err) => err,
        Ok(inf) => panic!("`{src}` accepted at {}", inf.ty),
    }
}

/// The paper's §2.1 `bcast` program (adapted: the paper's version
/// uses a 3-argument send function folded over `apply`; ours uses the
/// equivalent explicit `apply` chain).
const BCAST: &str = "
    let replicate = fun x -> mkpar (fun pid -> x) in
    let bcast = fun n -> fun vec ->
      let tosend =
        apply (mkpar (fun i -> fun v -> fun dst ->
                        if i = n then v else nc ()),
               vec) in
      let recv = put tosend in
      apply (recv, replicate n)
    in bcast 2 (mkpar (fun i -> i * 10))";

#[test]
fn section2_bcast_types_at_par() {
    // bcast : int -> α par -> (α option-ish) par. In mini-BSML the
    // delivered value is still wrapped by the message function, so
    // the result of our variant is `int par`-shaped modulo nc.
    let ty = accepts(BCAST);
    assert!(ty.ends_with("par"), "got: {ty}");
}

#[test]
fn example1_nested_bcast_is_rejected() {
    // §2.1 example1: mkpar (fun pid -> bcast pid vec).
    let src = "
        let replicate = fun x -> mkpar (fun pid -> x) in
        let bcast = fun n -> fun vec ->
          let tosend =
            apply (mkpar (fun i -> fun v -> fun dst ->
                            if i = n then v else nc ()),
                   vec) in
          let recv = put tosend in
          apply (recv, replicate n)
        in
        let vec = mkpar (fun i -> i) in
        mkpar (fun pid -> bcast pid vec)";
    let err = rejects(src);
    assert!(
        matches!(err, TypeError::LocalityViolation { .. }),
        "got: {err}"
    );
}

#[test]
fn example2_hidden_nesting_is_rejected() {
    // §2.1 example2: the type is plain `int par`, the nesting is
    // invisible — only the (Let) side condition L(τ₂) ⇒ L(τ₁)
    // catches it. In our algorithmic presentation the condition is
    // recorded at the inner let as the residual L(α) ⇒ False and
    // becomes absurd when the outer mkpar instantiates α = int, so
    // the violation is *reported* at the application of mkpar.
    let err = rejects("mkpar (fun pid -> let this = mkpar (fun pid -> pid) in pid)");
    match err {
        TypeError::LocalityViolation { rule, .. } => {
            assert_eq!(rule, "(App)");
        }
        other => panic!("wrong error: {other}"),
    }
    // With pid's type fixed to int by context, the (Let) rule itself
    // fires — this is exactly Figure 8's judgment.
    let err = rejects("fun pid -> let this = mkpar (fun i -> i) in pid + 0");
    match err {
        TypeError::LocalityViolation { rule, .. } => assert_eq!(rule, "(Let)"),
        other => panic!("wrong error: {other}"),
    }
    // Applied to a local argument, the abstraction reports Figure 8's
    // constraint C itself, with nothing of the bound mkpar left over.
    match rejects("(fun pid -> let this = mkpar (fun i -> i) in pid) 7") {
        TypeError::LocalityViolation { constraint, .. } => {
            assert_eq!(constraint.to_string(), "L(int) ⇒ L(int par)");
        }
        other => panic!("wrong error: {other}"),
    }
}

#[test]
fn figure8_abstracted_body_carries_the_residual_constraint() {
    // Standalone, `fun pid -> let this = mkpar … in pid` is typable
    // at [α → α / L(α) ⇒ False]: it may only ever be applied to a
    // global value. Figure 8's rejection materializes at any local
    // instantiation.
    let e = parse("fun pid -> let this = mkpar (fun i -> i) in pid").unwrap();
    let inf = infer(&e).unwrap();
    let s = inf.scheme().to_string();
    assert!(
        s.contains("L('a)") && s.contains("False"),
        "expected the residual L(α) ⇒ False, got: {s}"
    );
    // Local instantiation — Figure 8's actual judgment — is absurd.
    rejects("(fun pid -> let this = mkpar (fun i -> i) in pid) 7");
}

#[test]
fn the_four_projections_of_section_2_1() {
    // 1. two usual values.
    assert_eq!(accepts("fst (1, 2)"), "int");
    // 2. two parallel values.
    assert_eq!(
        accepts("fst (mkpar (fun i -> i), mkpar (fun i -> i))"),
        "int par"
    );
    // 3. parallel and usual (Figure 9).
    assert_eq!(accepts("fst (mkpar (fun i -> i), 1)"), "int par");
    // 4. usual and parallel (Figure 10) — rejected.
    let err = rejects("fst (1, mkpar (fun i -> i))");
    match err {
        TypeError::LocalityViolation { constraint, .. } => {
            // The accumulated constraint embeds L(int) ⇒ L(int par)
            // after substitution; check it solves to False (already
            // implied by rejection) and mentions a par type.
            assert!(constraint.to_string().contains("par"));
        }
        other => panic!("wrong error: {other}"),
    }
}

#[test]
fn snd_is_symmetric() {
    assert_eq!(accepts("snd (1, mkpar (fun i -> i))"), "int par");
    rejects("snd (mkpar (fun i -> i), 1)");
}

#[test]
fn mismatched_barriers_example_is_rejected() {
    // §2.1's last example: choosing between a put-result and a
    // mkpar-result under a mkpar gives mismatched barriers.
    let src = "
        let vec1 = mkpar (fun pid -> pid) in
        let vec2 = put (mkpar (fun pid -> fun from -> 1 + from)) in
        let c1 = (vec1, 1) in
        let c2 = (vec2, 2) in
        mkpar (fun pid -> if pid < (bsp_p ()) / 2 then snd c1 else snd c2)";
    let err = rejects(src);
    assert!(
        matches!(err, TypeError::LocalityViolation { .. }),
        "got {err}"
    );
}

#[test]
fn parallel_identity_gets_the_paper_scheme() {
    // §4: [α → α / L(α) ⇒ False].
    let e = parse("fun x -> if mkpar (fun i -> true) at 0 then x else x").unwrap();
    let inf = infer(&e).unwrap();
    assert_eq!(inf.scheme().to_string(), "∀'a.['a -> 'a / L('a) ⇒ False]");
}

#[test]
fn parallel_identity_rejects_local_arguments() {
    // Applying the parallel identity to a usual value must fail …
    rejects("(fun x -> if mkpar (fun i -> true) at 0 then x else x) 1");
    // … and to a parallel vector must succeed.
    assert_eq!(
        accepts("(fun x -> if mkpar (fun i -> true) at 0 then x else x) (mkpar (fun i -> i))"),
        "int par"
    );
}

#[test]
fn figures_9_and_10_derivations_render() {
    let ok = parse("fst (mkpar (fun i -> i), 1)").unwrap();
    let inf = Inferencer::new()
        .with_derivation(true)
        .run(&initial_env(), &ok)
        .unwrap();
    let rendered = inf.derivation.unwrap().render();
    // Figure 9's key judgments (constraints included in brackets).
    assert!(
        rendered.contains("⊢ mkpar (fun i -> i) : [int par / L(int)]"),
        "{rendered}"
    );
    assert!(rendered.contains("⊢ 1 : int"), "{rendered}");
    assert!(
        rendered.contains("(mkpar (fun i -> i), 1) : [int par * int"),
        "{rendered}"
    );
    let last = rendered.lines().last().unwrap();
    assert!(
        last.starts_with("(App)") && last.contains(": [int par /"),
        "{rendered}"
    );
    // Figure 6's fst scheme shows its instantiated constraint
    // L(int par) ⇒ L(int) — the one that solves to True here and to
    // False in Figure 10.
    assert!(rendered.contains("L(int par) ⇒ L(int)"), "{rendered}");
    // The whole tree, byte for byte.
    assert_eq!(
        rendered,
        "  (Op) ⊢ fst : [int par * int -> int par / L(int par) ⇒ L(int)]
      (Op) ⊢ mkpar : [(int -> int) -> int par / L(int)]
        (Var) ⊢ i : int
      (Fun) ⊢ fun i -> i : int -> int
    (App) ⊢ mkpar (fun i -> i) : [int par / L(int)]
    (Const) ⊢ 1 : int
  (Pair) ⊢ (mkpar (fun i -> i), 1) : [int par * int / L(int)]
(App) ⊢ fst (mkpar (fun i -> i), 1) : [int par / (L(int par) ⇒ L(int)) ∧ L(int) ∧ L(int) ∧ L(int)]
"
    );
}

#[test]
fn theorem1_example_constraint_weakens_under_reduction() {
    // After Theorem 1 the paper discusses
    // `let f = (fun a -> fun b -> a) in 1`: it types with a residual
    // constraint over the generalized variables, while its reduct `1`
    // types with no constraint at all (C' less constrained than C).
    let before = parse("let f = fun a -> fun b -> a in 1").unwrap();
    let after = parse("1").unwrap();
    let inf_before = infer(&before).unwrap();
    let inf_after = infer(&after).unwrap();
    assert_eq!(inf_before.ty.to_string(), "int");
    assert_eq!(inf_after.ty.to_string(), "int");
    // C' (True) is weaker than C (residual or True).
    assert_eq!(inf_after.solution, bsml_types::Solution::True);
    assert_ne!(
        inf_before.solution,
        bsml_types::Solution::False,
        "the let form must still be accepted"
    );
}

#[test]
fn put_of_mkpar_types_like_the_paper() {
    assert_eq!(
        accepts("put (mkpar (fun i -> fun dst -> i + dst))"),
        "(int -> int) par"
    );
}

#[test]
fn replicate_and_nosome() {
    // §2.1's helpers. noSome in mini-BSML uses isnc-based dispatch.
    assert_eq!(
        accepts("let replicate = fun x -> mkpar (fun pid -> x) in replicate 5"),
        "int par"
    );
    // A replicate of a vector is a nesting.
    rejects(
        "let replicate = fun x -> mkpar (fun pid -> x) in
         replicate (mkpar (fun i -> i))",
    );
}
