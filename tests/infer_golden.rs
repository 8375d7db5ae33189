//! Verdict goldens for type inference.
//!
//! Each input renders to one verdict line:
//!
//! * `ok <type> :: <scheme>` for an accepted program (the raw type,
//!   then its closed toplevel scheme);
//! * `reject <rule>: <constraint>` for a locality violation, with the
//!   constraint exactly as the rejecting rule reports it;
//! * `mismatch <context>: <cause>` for a unification failure;
//! * `unbound <name>` for an unbound variable.
//!
//! Explicit rows pin the paper corpus and hand-written programs line
//! by line. Digest rows pin the verdict lines of seeds 0–999 of each
//! program generator by their count, the number accepted and their
//! FNV-1a hash. The rows were recorded from the substitution-threading
//! engine that preceded the union-find one, so the rejecting rule, the
//! reported constraint, the raw type (fresh-variable numbering
//! included) and the scheme of every row are what that engine gave.

use bsml_ast::Expr;
use bsml_infer::{infer, TypeError};
use bsml_repro::testgen::{adversarial, generate, well_typed_source, Adversarial, GenTy};
use bsml_std::combinators::with_full_prelude;
use bsml_std::paper_corpus;
use bsml_syntax::parse_module;

/// Hand-written inputs: every rule that the suites see rejecting, the
/// binders of the sum and list eliminators, let-polymorphism over a
/// λ-bound variable, and the three non-locality error classes.
const HAND_WRITTEN: &[&str] = &[
    "fun g -> g (mkpar (fun i -> i)) + 1",
    "mkpar (fun i -> mkpar (fun j -> j))",
    "let v = mkpar (fun i -> i) in 0",
    "if mkpar (fun i -> true) at 0 then 1 else 2",
    "case inl (mkpar (fun i -> i)) of inl v -> 1 | inr x -> x",
    "mkpar (fun i -> i) :: []",
    "case inl (mkpar (fun i -> i)) of inl v -> v | inr x -> x",
    "fun s -> case s of inl a -> a | inr b -> b",
    "fun xs -> match xs with [] -> 0 | h :: t -> 1",
    "fun xs -> match xs with [] -> mkpar (fun i -> 0) | h :: t -> mkpar (fun i -> h)",
    "let rec len xs = match xs with [] -> 0 | h :: t -> 1 + len t in len [1; 2; 3]",
    "let id = fun x -> x in (id 1, id true)",
    "fun f -> fun x -> f (f x)",
    "fun x -> let y = x in y + 1",
    "fun x -> let f = fun y -> (x, y) in (f 1, f (mkpar (fun i -> i)))",
    "fun x -> let y = if mkpar (fun i -> true) at 0 then x else x in y",
    "fun v -> let w = apply (mkpar (fun i -> fun x -> x + i), v) in (w, fst (1, 2))",
    "fun p -> let q = fst p in (q, snd p)",
    "let r = ref 1 in let u = r := 2 in !r",
    "fun x -> (fun y -> y) (inr x)",
    "1 + true",
    "fun x -> x x",
    "1 + nope",
];

/// (input, verdict line).
const EXPLICIT: &[(&str, &str)] = &[
    ("corpus/bcast", "ok int par :: int par"),
    ("corpus/example1-nested-bcast", "reject (App): L(int par) ∧ L(int) ∧ (L(int) ∧ (L(int par) ⇒ L(int)) ∧ L(int)) ∧ (L(int par) ∧ L(int))"),
    ("corpus/example2-hidden-nesting", "reject (App): L(int) ∧ (L(int) ⇒ L(int par)) ∧ L(int)"),
    ("corpus/fst-two-usual", "ok int :: int"),
    ("corpus/fst-two-parallel", "ok int par :: int par"),
    ("corpus/fst-parallel-usual", "ok int par :: int par"),
    ("corpus/fst-usual-parallel", "reject (App): (L(int) ⇒ L(int par)) ∧ L(int) ∧ L(int)"),
    ("corpus/mismatched-barriers", "reject (App): (L(int) ⇒ L(int par)) ∧ L(int)"),
    ("corpus/parallel-identity", "ok 'a -> 'a :: ∀'a.['a -> 'a / L('a) ⇒ False]"),
    ("corpus/parallel-identity-on-local", "reject (App): L(bool) ∧ (L(bool) ⇒ L(int)) ∧ L(bool) ∧ (L(int) ⇒ False)"),
    ("corpus/parallel-identity-on-global", "ok int par :: int par"),
    ("corpus/ifat-local-return", "reject (Ifat): L(bool) ∧ ((L(bool) ⇒ L(int)) ∧ L(int)) ∧ L(bool) ∧ (L(int) ⇒ False)"),
    ("corpus/theorem1-weakening", "ok int :: int"),
    ("prelude/local", "reject (Let): L('x16) ∧ ((L(int) ⇒ L(int list -> int)) ∧ (L(int) ⇒ L(int -> int -> int list))) ∧ (L(int) ⇒ L(int -> ('x16 list) par -> ('x16 list) par))"),
    ("prelude/global", "ok int par :: int par"),
    ("fun g -> g (mkpar (fun i -> i)) + 1", "reject (App): L(int) ∧ (L(int) ⇒ L(int par)) ∧ L(int)"),
    ("mkpar (fun i -> mkpar (fun j -> j))", "reject (App): L(int par) ∧ L(int) ∧ (L(int) ∧ (L(int par) ⇒ L(int)) ∧ L(int)) ∧ (L(int par) ∧ L(int))"),
    ("let v = mkpar (fun i -> i) in 0", "reject (Let): L(int) ⇒ L(int par)"),
    ("if mkpar (fun i -> true) at 0 then 1 else 2", "reject (Ifat): L(bool) ∧ (L(bool) ⇒ L(int)) ∧ L(bool) ∧ (L(int) ⇒ False)"),
    ("case inl (mkpar (fun i -> i)) of inl v -> 1 | inr x -> x", "reject (Case): L(int) ∧ (L(int) ⇒ L(int par + int))"),
    ("mkpar (fun i -> i) :: []", "reject (Cons): L(int) ∧ L(int par)"),
    ("case inl (mkpar (fun i -> i)) of inl v -> v | inr x -> x", "ok int par :: int par"),
    ("fun s -> case s of inl a -> a | inr b -> b", "ok 'c + 'c -> 'c :: ∀'a.['a + 'a -> 'a]"),
    ("fun xs -> match xs with [] -> 0 | h :: t -> 1", "ok 'b list -> int :: ∀'a.['a list -> int / L('a)]"),
    ("fun xs -> match xs with [] -> mkpar (fun i -> 0) | h :: t -> mkpar (fun i -> h)", "ok int list -> int par :: int list -> int par"),
    ("let rec len xs = match xs with [] -> 0 | h :: t -> 1 + len t in len [1; 2; 3]", "ok int :: int"),
    ("let id = fun x -> x in (id 1, id true)", "ok int * bool :: int * bool"),
    ("fun f -> fun x -> f (f x)", "ok ('d -> 'd) -> 'd -> 'd :: ∀'a.[('a -> 'a) -> 'a -> 'a]"),
    ("fun x -> let y = x in y + 1", "ok int -> int :: int -> int"),
    ("fun x -> let f = fun y -> (x, y) in (f 1, f (mkpar (fun i -> i)))", "ok 'a -> ('a * int) * ('a * int par) :: ∀'a.['a -> ('a * int) * ('a * int par)]"),
    ("fun x -> let y = if mkpar (fun i -> true) at 0 then x else x in y", "ok 'a -> 'a :: ∀'a.['a -> 'a / L('a) ⇒ False]"),
    ("fun v -> let w = apply (mkpar (fun i -> fun x -> x + i), v) in (w, fst (1, 2))", "ok int par -> int par * int :: int par -> int par * int"),
    ("fun p -> let q = fst p in (q, snd p)", "ok 'd * 'c -> 'd * 'c :: ∀'a 'b.['a * 'b -> 'a * 'b / (L('b) ⇒ L('a)) ∧ (L('a) ⇒ L('b))]"),
    ("let r = ref 1 in let u = r := 2 in !r", "ok int :: int"),
    ("fun x -> (fun y -> y) (inr x)", "ok 'a -> 'c + 'a :: ∀'a 'b.['a -> 'b + 'a]"),
    ("1 + true", "mismatch application: cannot unify `int` with `bool`"),
    ("fun x -> x x", "mismatch application: occurs check: `'a` appears in `'a -> 'b`"),
    ("1 + nope", "unbound nope"),
];

/// (family, verdict lines, accepted, FNV-1a of the lines).
const DIGESTS: &[(&str, usize, usize, u64)] = &[
    ("well_typed_source/4", 1000, 1000, 0xa240fbd18b5e48cd),
    ("adversarial/nesting_breach", 1000, 0, 0x4b90d24a29677345),
    ("adversarial/locality_breach", 1000, 0, 0x9fe0b65ff07a7ebd),
    ("adversarial/ill_typed", 1000, 0, 0x389c7274520e849d),
    ("generate/int/5", 1000, 1000, 0xbae0fe1e7dc4fe45),
    ("generate/bool/5", 1000, 1000, 0xfcd64c6e29c72aa5),
    ("generate/int_par/5", 1000, 1000, 0x9e3191fa2f0ec6a5),
    ("generate/bool_par/5", 1000, 1000, 0x95d752012d0d2725),
];

/// 64-bit FNV-1a over the lines, each followed by `\n`.
fn fnv1a<'a>(lines: impl IntoIterator<Item = &'a String>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in lines {
        for &b in line.as_bytes().iter().chain(b"\n") {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn parse_source(src: &str) -> Expr {
    parse_module(src)
        .unwrap_or_else(|e| panic!("`{src}` does not parse: {e}"))
        .to_expr()
        .unwrap_or_else(|| panic!("`{src}` has no final expression"))
}

fn verdict(e: &Expr) -> String {
    match infer(e) {
        Ok(inf) => format!("ok {} :: {}", inf.ty, inf.scheme()),
        Err(TypeError::LocalityViolation {
            rule, constraint, ..
        }) => format!("reject {rule}: {constraint}"),
        Err(TypeError::Mismatch { cause, context, .. }) => format!("mismatch {context}: {cause}"),
        Err(TypeError::Unbound { name, .. }) => format!("unbound {name}"),
    }
}

fn explicit_inputs() -> Vec<(String, Expr)> {
    let mut inputs: Vec<(String, Expr)> = paper_corpus()
        .into_iter()
        .map(|entry| (format!("corpus/{}", entry.name), entry.ast()))
        .collect();
    for (name, body) in [
        ("prelude/local", "1"),
        ("prelude/global", "mkpar (fun i -> i)"),
    ] {
        inputs.push((name.to_string(), parse_source(&with_full_prelude(body))));
    }
    for src in HAND_WRITTEN {
        inputs.push(((*src).to_string(), parse_source(src)));
    }
    inputs
}

/// A generator family: its name and the program of each seed.
type Family = (&'static str, Box<dyn Fn(u64) -> Expr>);

/// The generator families, each rendered over seeds 0–999.
fn families() -> Vec<Family> {
    let closed = |family: Adversarial| {
        move |seed: u64| parse_source(&format!("{} in 0", adversarial(seed, family)))
    };
    vec![
        (
            "well_typed_source/4",
            Box::new(|seed| parse_source(&well_typed_source(seed, 4))),
        ),
        (
            "adversarial/nesting_breach",
            Box::new(closed(Adversarial::NestingBreach)),
        ),
        (
            "adversarial/locality_breach",
            Box::new(closed(Adversarial::LocalityBreach)),
        ),
        (
            "adversarial/ill_typed",
            Box::new(closed(Adversarial::IllTyped)),
        ),
        ("generate/int/5", Box::new(|s| generate(s, GenTy::Int, 5))),
        ("generate/bool/5", Box::new(|s| generate(s, GenTy::Bool, 5))),
        (
            "generate/int_par/5",
            Box::new(|s| generate(s, GenTy::IntPar, 5)),
        ),
        (
            "generate/bool_par/5",
            Box::new(|s| generate(s, GenTy::BoolPar, 5)),
        ),
    ]
}

#[test]
fn explicit_verdicts_are_unchanged() {
    let mut failures = Vec::new();
    let mut recorded = String::new();
    for (input, e) in explicit_inputs() {
        let got = verdict(&e);
        recorded.push_str(&format!("    ({input:?}, {got:?}),\n"));
        match EXPLICIT.iter().find(|(name, _)| *name == input) {
            Some((_, want)) if *want == got => {}
            Some((_, want)) => failures.push(format!("{input}\n  want: {want}\n  got:  {got}")),
            None => failures.push(format!("{input}\n  no golden row; got: {got}")),
        }
    }
    assert!(
        failures.is_empty(),
        "{} verdicts moved:\n{}\n\nrows as they stand now:\n{recorded}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn generated_verdicts_are_unchanged() {
    let mut failures = Vec::new();
    let mut recorded = String::new();
    for (family, program) in families() {
        let lines: Vec<String> = (0..1000u64).map(|seed| verdict(&program(seed))).collect();
        let accepted = lines.iter().filter(|l| l.starts_with("ok ")).count();
        let hash = fnv1a(&lines);
        recorded.push_str(&format!(
            "    ({family:?}, {}, {accepted}, {hash:#018x}),\n",
            lines.len()
        ));
        let want = DIGESTS.iter().find(|(name, ..)| *name == family);
        if want != Some(&(family, lines.len(), accepted, hash)) {
            failures.push(format!(
                "{family}: want {want:?}, got ({}, {accepted}, {hash:#018x})\n{}",
                lines.len(),
                lines
                    .iter()
                    .enumerate()
                    .map(|(seed, l)| format!("  seed {seed}: {l}"))
                    .collect::<Vec<_>>()
                    .join("\n")
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "{}\n\nrows as they stand now:\n{recorded}",
        failures.join("\n")
    );
}
