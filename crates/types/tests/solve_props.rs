//! Property tests for the constraint solver: `Solve`'s verdicts are
//! semantically exact on randomly generated constraints, and the
//! residual form is logically equivalent to the input.

use std::collections::BTreeMap;

use bsml_types::{
    unify, unify_counted, Cells, Constraint, Solution, Subst, TyVar, Type, UnifyStats,
};
use proptest::prelude::*;

const NVARS: u32 = 6;

fn ty_leaf() -> impl Strategy<Value = Type> {
    prop_oneof![
        Just(Type::Int),
        Just(Type::Bool),
        Just(Type::Unit),
        (0..NVARS).prop_map(Type::var),
    ]
}

fn ty_strategy() -> impl Strategy<Value = Type> {
    ty_leaf().prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Type::arrow(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Type::pair(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Type::sum(a, b)),
            inner.clone().prop_map(Type::par),
            inner.prop_map(Type::list),
        ]
    })
}

/// Horn-shaped constraints: conjunctions of `L(τ)` atoms and
/// implications with conjunction-of-atoms antecedents — the fragment
/// the type system generates.
fn horn_strategy() -> impl Strategy<Value = Constraint> {
    let atom = prop_oneof![
        Just(Constraint::True),
        Just(Constraint::False),
        ty_strategy().prop_map(Constraint::Loc),
    ];
    let ante = proptest::collection::vec(ty_strategy().prop_map(Constraint::Loc), 1..3)
        .prop_map(Constraint::conj);
    let clause = prop_oneof![
        atom.clone(),
        (ante, atom.clone()).prop_map(|(a, b)| Constraint::Implies(Box::new(a), Box::new(b))),
    ];
    proptest::collection::vec(clause, 1..6).prop_map(Constraint::conj)
}

/// Arbitrary constraints, implications inside antecedents included.
fn any_constraint() -> impl Strategy<Value = Constraint> {
    let leaf = prop_oneof![
        Just(Constraint::True),
        Just(Constraint::False),
        ty_strategy().prop_map(Constraint::Loc),
    ];
    leaf.prop_recursive(3, 20, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Constraint::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| Constraint::Implies(Box::new(a), Box::new(b))),
        ]
    })
}

/// Evaluates `c` under every assignment of its (≤ NVARS) variables,
/// returning (holds-somewhere, fails-somewhere).
fn truth_profile(c: &Constraint) -> (bool, bool) {
    let vars: Vec<TyVar> = c.free_vars();
    assert!(vars.len() <= NVARS as usize);
    let mut any_true = false;
    let mut any_false = false;
    for bits in 0u32..(1 << vars.len()) {
        let assignment: BTreeMap<TyVar, bool> = vars
            .iter()
            .enumerate()
            .map(|(i, v)| (*v, bits >> i & 1 == 1))
            .collect();
        match c.eval(&assignment) {
            Some(true) => any_true = true,
            Some(false) => any_false = true,
            None => panic!("assignment covers all variables"),
        }
    }
    (any_true, any_false)
}

fn check_verdict(c: &Constraint) {
    let (any_true, any_false) = truth_profile(c);
    match c.solve() {
        Solution::True => {
            assert!(!any_false, "solve said True but {c} is falsifiable");
        }
        Solution::False => {
            assert!(!any_true, "solve said False but {c} is satisfiable");
        }
        Solution::Residual(_) => {
            assert!(any_true && any_false, "residual {c} is not contingent");
        }
    }
}

fn check_residual_equivalence(c: &Constraint) {
    if let Solution::Residual(_) = c.solve() {
        let reconstructed = c.solve().to_constraint();
        let vars: Vec<TyVar> = {
            let mut vs = c.free_vars();
            for v in reconstructed.free_vars() {
                if !vs.contains(&v) {
                    vs.push(v);
                }
            }
            vs
        };
        for bits in 0u32..(1 << vars.len()) {
            let assignment: BTreeMap<TyVar, bool> = vars
                .iter()
                .enumerate()
                .map(|(i, v)| (*v, bits >> i & 1 == 1))
                .collect();
            assert_eq!(
                c.eval(&assignment),
                reconstructed.eval(&assignment),
                "residual of {c} is not equivalent (got {reconstructed})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn solve_is_semantically_exact_on_horn(c in horn_strategy()) {
        check_verdict(&c);
    }

    #[test]
    fn residual_is_equivalent_on_horn(c in horn_strategy()) {
        check_residual_equivalence(&c);
    }

    #[test]
    fn solve_true_false_verdicts_are_sound_generally(c in any_constraint()) {
        // Outside the Horn fragment Solve may report Residual for a
        // valid-or-unsat formula only via the >22-vars path (never
        // reached here), so the verdicts are still exact.
        check_verdict(&c);
    }

    #[test]
    fn solving_twice_is_a_fixed_point(c in horn_strategy()) {
        let s = c.solve();
        prop_assert_eq!(s.to_constraint().solve(), s);
    }

    #[test]
    fn unify_produces_a_unifier(a in ty_strategy(), b in ty_strategy()) {
        if let Ok(s) = unify(&a, &b) {
            prop_assert_eq!(s.apply(&a), s.apply(&b));
            // Idempotence.
            let once = s.apply(&a);
            prop_assert_eq!(s.apply(&once), once);
        }
    }

    #[test]
    fn cell_unification_agrees_with_unify(a in ty_strategy(), b in ty_strategy()) {
        // Cells link exactly the variables unify binds, in the same
        // order: they do the same work and fail together, with the same
        // error, and otherwise both sides resolve to the unifier
        // applied to them.
        let mut cells = Cells::starting_at(NVARS);
        let (mut cell_work, mut subst_work) = (UnifyStats::default(), UnifyStats::default());
        let linked = cells.unify(&a, &b, &mut cell_work);
        let unified = unify_counted(&a, &b, &mut subst_work);
        prop_assert_eq!(cell_work, subst_work);
        match unified {
            Ok(s) => {
                prop_assert_eq!(linked, Ok(()));
                let unified = s.apply(&a);
                prop_assert_eq!(cells.resolve(&a), unified.clone());
                prop_assert_eq!(cells.resolve(&b), unified);
            }
            Err(e) => prop_assert_eq!(linked, Err(e)),
        }
    }

    #[test]
    fn unify_with_self_is_identity_modulo_vars(a in ty_strategy()) {
        let s = unify(&a, &a).expect("every type unifies with itself");
        prop_assert_eq!(s.apply(&a), a);
    }

    #[test]
    fn definition1_never_unsolves_an_absurdity(
        c in horn_strategy(),
        img in ty_strategy(),
        v in 0..NVARS,
    ) {
        // If C is already absurd, φ(C) with Definition 1's extra
        // basic constraints must stay absurd (substitution cannot
        // rescue a rejected expression).
        if c.solve() == Solution::False {
            let phi = Subst::singleton(TyVar(v), img);
            let (_, c2) = phi.apply_constrained(&Type::var(v), &c);
            prop_assert_eq!(c2.solve(), Solution::False);
        }
    }

    #[test]
    fn a_restricted_solution_rejects_the_same_instances(
        c in horn_strategy(),
        t in ty_strategy(),
        extra_keep in proptest::collection::vec(0..NVARS, 0..3),
        bindings in proptest::collection::vec((0..NVARS, ty_strategy()), 0..3),
    ) {
        // Definition 3 in solved form: a scheme stores
        // R = Solve(C).restrict(K) for a keep-set K ⊇ F(τ). A
        // substitution that neither binds nor introduces a variable of
        // C outside τ and R (as no later inference step does) must
        // find [τ/C] and [τ/R] absurd together.
        let mut keep = t.free_vars();
        keep.extend(extra_keep.into_iter().map(TyVar));
        let r = c.solve().restrict(&keep).to_constraint();
        let mut visible = t.free_vars();
        visible.extend(r.free_vars());
        let unreachable: Vec<TyVar> = c
            .free_vars()
            .into_iter()
            .filter(|v| !visible.contains(v))
            .collect();
        let reachable = |v: &TyVar| !unreachable.contains(v);
        let phi = Subst::from_pairs(
            bindings
                .into_iter()
                .map(|(v, img)| (TyVar(v), img))
                .filter(|(v, img)| reachable(v) && img.free_vars().iter().all(reachable)),
        );
        let (_, phi_c) = phi.apply_constrained(&t, &c);
        let (_, phi_r) = phi.apply_constrained(&t, &r);
        prop_assert_eq!(
            phi_c.solve() == Solution::False,
            phi_r.solve() == Solution::False,
            "τ = {}, C = {}, R = {}, φ = {:?}",
            t,
            c,
            r,
            phi
        );
    }

    #[test]
    fn locality_expansion_matches_eval(t in ty_strategy()) {
        // L(τ) expanded and the direct eval_loc semantics agree.
        let c = Constraint::Loc(t);
        let expanded = c.expand();
        let vars: Vec<TyVar> = c.free_vars();
        prop_assume!(vars.len() <= NVARS as usize);
        for bits in 0u32..(1 << vars.len()) {
            let assignment: BTreeMap<TyVar, bool> = vars
                .iter()
                .enumerate()
                .map(|(i, v)| (*v, bits >> i & 1 == 1))
                .collect();
            prop_assert_eq!(c.eval(&assignment), expanded.eval(&assignment));
        }
    }
}
