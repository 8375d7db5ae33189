//! Locality constraints and the `Solve` procedure (paper §4).
//!
//! Constraints are formulas of classical propositional calculus over
//! locality atoms:
//!
//! ```text
//! C ::= True | False | L(τ) | C ∧ C | C ⇒ C
//! ```
//!
//! The paper writes atoms as `L(α)`; we allow `L(τ)` over a whole type
//! and expand with the locality rules
//! (`L(τ par) = False`, `L(τ₁→τ₂) = L(τ₁)∧L(τ₂)`, …) at solving time,
//! so that constraints under substitution keep their readable shape
//! (Figure 10 displays `L(int) ⇒ L(int par)` before reducing it to
//! `False`).
//!
//! [`Constraint::solve`] implements the paper's decidable `Solve`
//! function: after expansion the formulas produced by the type system
//! are *Horn* (implication antecedents are conjunctions of atoms), so
//! solving is unit propagation; the result is [`Solution::True`],
//! [`Solution::False`], or a canonical residual clause set.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::cells::Cells;
use crate::locality::locality;
use crate::ty::{TyVar, Type};

/// A constraint formula `C` (paper §4).
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum Constraint {
    /// The valid constraint `True`.
    #[default]
    True,
    /// The absurd constraint `False`.
    False,
    /// A locality assertion `L(τ)`: "τ is a usual (local) type".
    Loc(Type),
    /// Conjunction `C₁ ∧ C₂`.
    And(Box<Constraint>, Box<Constraint>),
    /// Implication `C₁ ⇒ C₂`.
    Implies(Box<Constraint>, Box<Constraint>),
}

impl Constraint {
    /// The locality atom `L(τ)`.
    #[must_use]
    pub fn loc(ty: Type) -> Constraint {
        Constraint::Loc(ty)
    }

    /// Conjunction with the paper's unit laws applied
    /// (`True ∧ C = C`, `C ∧ C = C`, and `False` is absorbing).
    #[must_use]
    pub fn and(a: Constraint, b: Constraint) -> Constraint {
        match (a, b) {
            (Constraint::True, c) | (c, Constraint::True) => c,
            (Constraint::False, _) | (_, Constraint::False) => Constraint::False,
            (a, b) if a == b => a,
            (a, b) => Constraint::And(Box::new(a), Box::new(b)),
        }
    }

    /// Implication with the obvious unit laws applied
    /// (`True ⇒ C = C`, `False ⇒ C = True`, `C ⇒ True = True`,
    /// `C ⇒ C = True`).
    #[must_use]
    pub fn implies(a: Constraint, b: Constraint) -> Constraint {
        match (a, b) {
            (Constraint::True, c) => c,
            (Constraint::False, _) => Constraint::True,
            (_, Constraint::True) => Constraint::True,
            (a, b) if a == b => Constraint::True,
            (a, b) => Constraint::Implies(Box::new(a), Box::new(b)),
        }
    }

    /// Conjunction of an arbitrary number of constraints.
    #[must_use]
    pub fn conj(cs: impl IntoIterator<Item = Constraint>) -> Constraint {
        cs.into_iter().fold(Constraint::True, Constraint::and)
    }

    /// Free type variables of the constraint, in first-occurrence
    /// order.
    #[must_use]
    pub fn free_vars(&self) -> Vec<TyVar> {
        let mut out = Vec::new();
        self.collect_free_vars(&mut out);
        out
    }

    pub(crate) fn collect_free_vars(&self, out: &mut Vec<TyVar>) {
        match self {
            Constraint::True | Constraint::False => {}
            Constraint::Loc(t) => t.collect_free_vars(out),
            Constraint::And(a, b) | Constraint::Implies(a, b) => {
                a.collect_free_vars(out);
                b.collect_free_vars(out);
            }
        }
    }

    /// The constraint with `f` applied to the type of every atom,
    /// rebuilt through the smart constructors, so an atom pair that
    /// `f` makes equal or trivial simplifies as it would have if built
    /// that way.
    #[must_use]
    pub fn map_types<F: FnMut(&Type) -> Type>(&self, f: &mut F) -> Constraint {
        match self {
            Constraint::True => Constraint::True,
            Constraint::False => Constraint::False,
            Constraint::Loc(t) => Constraint::Loc(f(t)),
            Constraint::And(a, b) => Constraint::and(a.map_types(f), b.map_types(f)),
            Constraint::Implies(a, b) => Constraint::implies(a.map_types(f), b.map_types(f)),
        }
    }

    /// Expands every `L(τ)` atom with the locality rules until atoms
    /// mention type variables only.
    #[must_use]
    pub fn expand(&self) -> Constraint {
        match self {
            Constraint::True => Constraint::True,
            Constraint::False => Constraint::False,
            Constraint::Loc(t) => locality(t),
            Constraint::And(a, b) => Constraint::and(a.expand(), b.expand()),
            Constraint::Implies(a, b) => Constraint::implies(a.expand(), b.expand()),
        }
    }

    /// The paper's `Solve`: reduces the constraint and reports whether
    /// it is valid (`True`), absurd (`False`), or contingent on its
    /// remaining variables ([`Solution::Residual`]).
    ///
    /// The formulas produced by the BSML typing rules are Horn after
    /// expansion; those are solved exactly. Arbitrary hand-built
    /// formulas with implications *inside antecedents of implications*
    /// are solved by brute force when they mention at most 22
    /// variables, and conservatively reported as residual otherwise.
    #[must_use]
    pub fn solve(&self) -> Solution {
        self.solve_counted(&mut SolveStats::default())
    }

    /// [`Constraint::solve`], accumulating work counts into `stats`.
    #[must_use]
    pub fn solve_counted(&self, stats: &mut SolveStats) -> Solution {
        let expanded = self.expand();
        let mut clauses = Clauses::default();
        match clauses.horn(&expanded, &BTreeSet::new(), &Cells::default()) {
            Ok(()) => clauses.solve_counted(stats),
            Err(NonHorn) => brute_force(&expanded, stats),
        }
    }

    /// Evaluates the constraint under a complete truth assignment for
    /// its variables (`L(α) = assignment[α]`).
    ///
    /// Returns `None` if a variable is missing from the assignment.
    /// This is the semantic ground truth used to property-test
    /// [`Constraint::solve`], and the basis of the paper's
    /// Definition 4 (`φ ⊨ C`).
    #[must_use]
    pub fn eval(&self, assignment: &BTreeMap<TyVar, bool>) -> Option<bool> {
        match self {
            Constraint::True => Some(true),
            Constraint::False => Some(false),
            Constraint::Loc(t) => eval_loc(t, assignment),
            Constraint::And(a, b) => Some(a.eval(assignment)? && b.eval(assignment)?),
            Constraint::Implies(a, b) => Some(!a.eval(assignment)? || b.eval(assignment)?),
        }
    }
}

/// `L(τ)` under an assignment of the variables.
fn eval_loc(t: &Type, assignment: &BTreeMap<TyVar, bool>) -> Option<bool> {
    match t {
        Type::Int | Type::Bool | Type::Unit => Some(true),
        Type::Var(v) => assignment.get(v).copied(),
        Type::Par(_) => Some(false),
        Type::Arrow(a, b) | Type::Pair(a, b) | Type::Sum(a, b) => {
            Some(eval_loc(a, assignment)? && eval_loc(b, assignment)?)
        }
        Type::List(inner) | Type::Ref(inner) => eval_loc(inner, assignment),
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Precedence: ⇒ (0, right assoc) < ∧ (1) < atoms (2).
        fn go(f: &mut fmt::Formatter<'_>, c: &Constraint, prec: u8) -> fmt::Result {
            match c {
                Constraint::True => f.write_str("True"),
                Constraint::False => f.write_str("False"),
                Constraint::Loc(t) => write!(f, "L({t})"),
                Constraint::And(a, b) => {
                    if prec > 1 {
                        f.write_str("(")?;
                    }
                    go(f, a, 1)?;
                    f.write_str(" ∧ ")?;
                    go(f, b, 2)?;
                    if prec > 1 {
                        f.write_str(")")?;
                    }
                    Ok(())
                }
                Constraint::Implies(a, b) => {
                    if prec > 0 {
                        f.write_str("(")?;
                    }
                    go(f, a, 1)?;
                    f.write_str(" ⇒ ")?;
                    go(f, b, 0)?;
                    if prec > 0 {
                        f.write_str(")")?;
                    }
                    Ok(())
                }
            }
        }
        go(f, self, 0)
    }
}

/// Work counters filled in by [`Constraint::solve_counted`]. Deltas
/// feed the telemetry counters in `bsml-infer`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Unit-propagation rounds, plus truth assignments tried by the
    /// non-Horn fallback.
    pub iterations: u64,
    /// Horn clauses handed to unit propagation.
    pub clauses: u64,
    /// Atoms of those clauses, bodies and heads.
    pub atoms: u64,
}

/// The head of a Horn clause.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Head {
    /// The clause asserts this locality atom.
    Atom(TyVar),
    /// The clause's body is contradictory (`… ⇒ False`).
    Absurd,
}

/// A Horn clause `L(α₁) ∧ … ∧ L(αₙ) ⇒ head`.
///
/// An empty body means the head holds unconditionally (a *fact*).
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Clause {
    /// The conjunction of atoms on the left of `⇒`.
    pub body: BTreeSet<TyVar>,
    /// The conclusion.
    pub head: Head,
}

impl Clause {
    /// An unconditional atom `L(v)`.
    #[must_use]
    pub fn fact(v: TyVar) -> Clause {
        Clause {
            body: BTreeSet::new(),
            head: Head::Atom(v),
        }
    }

    /// A conditional clause `L(body…) ⇒ head`.
    #[must_use]
    pub fn rule(body: impl IntoIterator<Item = TyVar>, head: Head) -> Clause {
        Clause {
            body: body.into_iter().collect(),
            head,
        }
    }

    /// The clause's variables: its body's, then its head's.
    pub fn vars(&self) -> impl Iterator<Item = TyVar> + '_ {
        let head = match self.head {
            Head::Atom(v) => Some(v),
            Head::Absurd => None,
        };
        self.body.iter().copied().chain(head)
    }

    /// Converts the clause back to a [`Constraint`] formula.
    #[must_use]
    pub fn to_constraint(&self) -> Constraint {
        let body = Constraint::conj(self.body.iter().map(|v| Constraint::loc(Type::Var(*v))));
        let head = match self.head {
            Head::Atom(v) => Constraint::loc(Type::Var(v)),
            Head::Absurd => Constraint::False,
        };
        Constraint::implies(body, head)
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.body.is_empty() {
            for (i, v) in self.body.iter().enumerate() {
                if i > 0 {
                    f.write_str(" ∧ ")?;
                }
                write!(f, "L({v})")?;
            }
            f.write_str(" ⇒ ")?;
        }
        match self.head {
            Head::Atom(v) => write!(f, "L({v})"),
            Head::Absurd => f.write_str("False"),
        }
    }
}

/// The outcome of [`Constraint::solve`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Solution {
    /// The constraint is valid: every instantiation satisfies it.
    True,
    /// The constraint is absurd: the expression must be rejected.
    False,
    /// The constraint is contingent: the canonical set of remaining
    /// Horn clauses, sorted and deduplicated.
    Residual(Vec<Clause>),
}

impl Solution {
    /// Converts the solution back to a constraint formula.
    #[must_use]
    pub fn to_constraint(&self) -> Constraint {
        match self {
            Solution::True => Constraint::True,
            Solution::False => Constraint::False,
            Solution::Residual(clauses) => {
                Constraint::conj(clauses.iter().map(Clause::to_constraint))
            }
        }
    }

    /// Restricts a residual to the clauses *relevant* to the given
    /// variables: the connected component (by shared variables) of
    /// the keep-set. The dropped clauses form a variable-disjoint,
    /// independently satisfiable Horn set, so the restriction is
    /// equivalent to the original with the dropped variables
    /// (harmlessly) existentially forgotten. Definition 3
    /// ([`Scheme::generalize`](crate::Scheme::generalize)) stores this
    /// restriction in the schemes it builds.
    #[must_use]
    pub fn restrict(&self, keep: &[TyVar]) -> Solution {
        let Solution::Residual(clauses) = self else {
            return self.clone();
        };
        // Grow the keep-set to its closure under clause co-occurrence.
        let mut kept: Vec<TyVar> = keep.to_vec();
        let mut retained = vec![false; clauses.len()];
        loop {
            let mut changed = false;
            for (i, clause) in clauses.iter().enumerate() {
                if retained[i] {
                    continue;
                }
                let vars: Vec<TyVar> = clause.vars().collect();
                if vars.iter().any(|v| kept.contains(v)) {
                    retained[i] = true;
                    changed = true;
                    for v in vars {
                        if !kept.contains(&v) {
                            kept.push(v);
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        let remaining: Vec<Clause> = clauses
            .iter()
            .zip(&retained)
            .filter(|(_, keep)| **keep)
            .map(|(c, _)| c.clone())
            .collect();
        if remaining.is_empty() {
            Solution::True
        } else {
            Solution::Residual(remaining)
        }
    }

    /// The residual clauses (empty for `True`).
    ///
    /// # Panics
    ///
    /// Panics if the solution is [`Solution::False`], which has no
    /// clause representation.
    #[must_use]
    pub fn clauses(&self) -> &[Clause] {
        match self {
            Solution::True => &[],
            Solution::Residual(cs) => cs,
            Solution::False => panic!("an absurd constraint has no residual clauses"),
        }
    }
}

impl fmt::Display for Solution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Solution::True => f.write_str("True"),
            Solution::False => f.write_str("False"),
            Solution::Residual(cs) => {
                for (i, c) in cs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" ∧ ")?;
                    }
                    write!(f, "({c})")?;
                }
                Ok(())
            }
        }
    }
}

/// A conjunction of Horn clauses built one conjunct at a time: what a
/// typing rule checks in place of a constraint tree.
///
/// Every conjunct enters read through a cell arena: an atom `L(τ)` is
/// `L(τ')` for `τ'` the resolution of `τ`, expanded with the locality
/// rules as it enters, so `L(int ref)` adds nothing and `L(int par)`
/// adds `False` at once. Only atoms over unbound variables become
/// clauses, and [`Clauses::solve_counted`] runs `Solve`'s unit
/// propagation over those alone. A conjunct that is already solved
/// enters as its residual clauses: on Horn clauses, solving a
/// conjunction with some parts replaced by their residuals gives the
/// residual of solving it whole (DESIGN.md §3).
///
/// # Example
///
/// ```
/// use bsml_types::{Cells, Clause, Clauses, Constraint, Solution, SolveStats, Type};
///
/// let mut cells = Cells::starting_at(0);
/// let a = cells.fresh_ty(0);
/// let mut check = Clauses::default();
/// check.and(
///     &Constraint::implies(Constraint::loc(Type::Int), Constraint::loc(a.clone())),
///     &cells,
/// );
/// let solved = check.solve_counted(&mut SolveStats::default());
/// assert_eq!(solved, Solution::Residual(vec![Clause::fact(bsml_types::TyVar(0))]));
///
/// // Read after a ← int par: the residual L(a) becomes False.
/// cells.unify(&a, &Type::par(Type::Int), &mut Default::default())?;
/// let mut check = Clauses::default();
/// check.and_solved(&solved, &cells);
/// assert_eq!(check.solve_counted(&mut SolveStats::default()), Solution::False);
/// # Ok::<(), bsml_types::UnifyError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct Clauses {
    clauses: Vec<Clause>,
}

impl Clauses {
    /// Conjoins `c`. Outside the Horn fragment, which the typing rules
    /// never leave, it conjoins `Solve`'s residual of `c` resolved.
    pub fn and(&mut self, c: &Constraint, cells: &Cells) {
        let before = self.clauses.len();
        if self.horn(c, &BTreeSet::new(), cells).is_err() {
            self.clauses.truncate(before);
            self.and_solved(&cells.resolve_constraint(c).solve(), cells);
        }
    }

    /// Conjoins a solved constraint: its residual clauses, each atom
    /// read through `cells`.
    pub fn and_solved(&mut self, solved: &Solution, cells: &Cells) {
        let clauses = match solved {
            Solution::True => return,
            Solution::False => return self.implied(&BTreeSet::new(), None),
            Solution::Residual(clauses) => clauses,
        };
        for clause in clauses {
            if clause.vars().any(|v| cells.is_linked(v)) {
                // A clause is Horn.
                let _ = self.horn(&clause.to_constraint(), &BTreeSet::new(), cells);
            } else {
                self.clauses.push(clause.clone());
            }
        }
    }

    /// Conjoins the basic constraints `C_τ'` of `τ'`, the resolution of
    /// `ty` ([`basic_constraint`](crate::basic_constraint)).
    pub fn and_basic(&mut self, ty: &Type, cells: &Cells) {
        self.basic(ty, cells, &mut Vec::new());
    }

    /// Runs unit propagation over the clauses: the [`Solution`] of
    /// their conjunction, as [`Constraint::solve_counted`] gives it.
    /// An empty conjunction is `True` without a round.
    #[must_use]
    pub fn solve_counted(self, stats: &mut SolveStats) -> Solution {
        propagate(self.clauses, stats)
    }

    /// Clausifies `c` under the antecedent atoms `body`.
    fn horn(
        &mut self,
        c: &Constraint,
        body: &BTreeSet<TyVar>,
        cells: &Cells,
    ) -> Result<(), NonHorn> {
        match c {
            Constraint::True => {}
            Constraint::False => self.implied(body, None),
            Constraint::Loc(t) => {
                let mut atoms = Vec::new();
                let local = locality_atoms(t, cells, &mut atoms);
                self.implied(body, local.then_some(&atoms));
            }
            Constraint::And(a, b) => {
                self.horn(a, body, cells)?;
                self.horn(b, body, cells)?;
            }
            Constraint::Implies(a, b) => {
                let mut antecedent = body.clone();
                if antecedent_through(a, cells, &mut antecedent)? {
                    self.horn(b, &antecedent, cells)?;
                }
            }
        }
        Ok(())
    }

    /// Conjoins `C_τ` for `τ` read through `cells` and appends the
    /// atoms of `L(τ)` to `atoms`; `false` if `L(τ)` is `False`.
    fn basic(&mut self, ty: &Type, cells: &Cells, atoms: &mut Vec<TyVar>) -> bool {
        match ty {
            Type::Int | Type::Bool | Type::Unit => true,
            Type::Var(v) => match cells.link(*v) {
                Some(image) => self.basic(image, cells, atoms),
                None => {
                    atoms.push(*v);
                    true
                }
            },
            Type::Arrow(a, b) => {
                let start = atoms.len();
                let la = self.basic(a, cells, atoms);
                let mid = atoms.len();
                let lb = self.basic(b, cells, atoms);
                // L(τ₂) ⇒ L(τ₁)
                if lb {
                    let body = atoms[mid..].iter().copied().collect();
                    self.implied(&body, la.then_some(&atoms[start..mid]));
                }
                la && lb
            }
            Type::Pair(a, b) | Type::Sum(a, b) => {
                let la = self.basic(a, cells, atoms);
                let lb = self.basic(b, cells, atoms);
                la && lb
            }
            Type::Par(inner) => {
                let start = atoms.len();
                let local = self.basic(inner, cells, atoms);
                self.implied(&BTreeSet::new(), local.then_some(&atoms[start..]));
                false
            }
            Type::List(inner) | Type::Ref(inner) => {
                let start = atoms.len();
                let local = self.basic(inner, cells, atoms);
                self.implied(&BTreeSet::new(), local.then_some(&atoms[start..]));
                local
            }
        }
    }

    /// Conjoins `body ⇒ L(α)` for each atom `α` of `head`, or
    /// `body ⇒ False` when `head` is `None`. A head atom already in the
    /// body adds nothing.
    fn implied(&mut self, body: &BTreeSet<TyVar>, head: Option<&[TyVar]>) {
        match head {
            None => self.clauses.push(Clause {
                body: body.clone(),
                head: Head::Absurd,
            }),
            Some(atoms) => {
                for (i, v) in atoms.iter().enumerate() {
                    if !body.contains(v) && !atoms[..i].contains(v) {
                        self.clauses.push(Clause {
                            body: body.clone(),
                            head: Head::Atom(*v),
                        });
                    }
                }
            }
        }
    }
}

/// Appends the atoms of `L(τ)`, `τ` read through `cells`, to `out`;
/// `false` if `L(τ)` is `False`.
fn locality_atoms(ty: &Type, cells: &Cells, out: &mut Vec<TyVar>) -> bool {
    match ty {
        Type::Int | Type::Bool | Type::Unit => true,
        Type::Var(v) => match cells.link(*v) {
            Some(image) => locality_atoms(image, cells, out),
            None => {
                out.push(*v);
                true
            }
        },
        Type::Par(_) => false,
        Type::Arrow(a, b) | Type::Pair(a, b) | Type::Sum(a, b) => {
            locality_atoms(a, cells, out) && locality_atoms(b, cells, out)
        }
        Type::List(inner) | Type::Ref(inner) => locality_atoms(inner, cells, out),
    }
}

/// Collects the atoms of an implication antecedent read through
/// `cells`; `Ok(false)` if it contains `False`.
fn antecedent_through(
    c: &Constraint,
    cells: &Cells,
    out: &mut BTreeSet<TyVar>,
) -> Result<bool, NonHorn> {
    match c {
        Constraint::True => Ok(true),
        Constraint::False => Ok(false),
        Constraint::Loc(t) => {
            let mut atoms = Vec::new();
            let local = locality_atoms(t, cells, &mut atoms);
            out.extend(atoms);
            Ok(local)
        }
        Constraint::And(a, b) => {
            Ok(antecedent_through(a, cells, out)? && antecedent_through(b, cells, out)?)
        }
        Constraint::Implies(..) => Err(NonHorn),
    }
}

/// Marker error: the formula has an implication inside an implication
/// antecedent, which leaves the Horn fragment.
struct NonHorn;

/// Unit propagation on a Horn clause set. Each round over the clause
/// set counts as one iteration.
fn propagate(clauses: Vec<Clause>, stats: &mut SolveStats) -> Solution {
    if clauses.is_empty() {
        return Solution::True;
    }
    stats.clauses += clauses.len() as u64;
    stats.atoms += clauses
        .iter()
        .map(|c| c.body.len() as u64 + u64::from(c.head != Head::Absurd))
        .sum::<u64>();
    let mut facts: BTreeSet<TyVar> = BTreeSet::new();
    let mut pending: Vec<Clause> = clauses;

    loop {
        stats.iterations += 1;
        let mut changed = false;
        let mut next: Vec<Clause> = Vec::with_capacity(pending.len());
        for mut clause in pending {
            // Atoms already proven can be removed from the body.
            let before = clause.body.len();
            clause.body.retain(|v| !facts.contains(v));
            if clause.body.len() != before {
                changed = true;
            }
            match clause.head {
                Head::Atom(v) if facts.contains(&v) => {
                    // Head already proven: clause is satisfied.
                    changed = true;
                }
                Head::Atom(v) if clause.body.is_empty() => {
                    facts.insert(v);
                    changed = true;
                }
                Head::Atom(v) if clause.body.contains(&v) => {
                    // Tautology L(…, v, …) ⇒ L(v).
                    changed = true;
                }
                Head::Absurd if clause.body.is_empty() => return Solution::False,
                _ => next.push(clause),
            }
        }
        pending = next;
        if !changed {
            break;
        }
    }

    let mut residual: BTreeSet<Clause> = pending.into_iter().collect();
    for v in facts {
        residual.insert(Clause::fact(v));
    }
    // Subsumption: drop a clause if another clause with the same head
    // has a subset body.
    let all: Vec<Clause> = residual.into_iter().collect();
    let mut by_head: BTreeMap<Head, Vec<&Clause>> = BTreeMap::new();
    for c in &all {
        by_head.entry(c.head).or_default().push(c);
    }
    let survives: Vec<bool> = all
        .iter()
        .map(|c| {
            !by_head[&c.head]
                .iter()
                .any(|other| *other != c && other.body.is_subset(&c.body))
        })
        .collect();
    let reduced: Vec<Clause> = all
        .into_iter()
        .zip(survives)
        .filter_map(|(c, survives)| survives.then_some(c))
        .collect();

    if reduced.is_empty() {
        Solution::True
    } else {
        Solution::Residual(reduced)
    }
}

/// Brute-force fallback for the (never produced by inference)
/// non-Horn formulas. Exact for up to 22 variables; above that the
/// formula is reported residual via a single conservative clause
/// carrying all its variables.
fn brute_force(c: &Constraint, stats: &mut SolveStats) -> Solution {
    let vars = c.free_vars();
    if vars.len() > 22 {
        // Conservative: keep the formula contingent. (Documented as
        // best-effort outside the Horn fragment.)
        return Solution::Residual(vec![Clause::rule(vars, Head::Absurd)]);
    }
    let n = vars.len();
    let mut any_true = false;
    let mut any_false = false;
    let mut assignment = BTreeMap::new();
    for bits in 0u64..(1u64 << n) {
        stats.iterations += 1;
        assignment.clear();
        for (i, v) in vars.iter().enumerate() {
            assignment.insert(*v, bits >> i & 1 == 1);
        }
        match c.eval(&assignment) {
            Some(true) => any_true = true,
            Some(false) => any_false = true,
            None => unreachable!("assignment covers all free variables"),
        }
        if any_true && any_false {
            break;
        }
    }
    match (any_true, any_false) {
        (true, false) => Solution::True,
        (false, _) => Solution::False,
        (true, true) => {
            // Contingent non-Horn formula: extract the entailed facts
            // and single-premise implications (best effort).
            let mut clauses = Vec::new();
            for v in &vars {
                if entails(c, &vars, &[(*v, false)]) == Some(false) {
                    clauses.push(Clause::fact(*v));
                }
            }
            for a in &vars {
                for b in &vars {
                    if a != b && !models_with(c, &vars, &[(*a, true), (*b, false)]) {
                        clauses.push(Clause::rule([*a], Head::Atom(*b)));
                    }
                }
            }
            if clauses.is_empty() {
                clauses.push(Clause::rule(vars, Head::Absurd));
            }
            propagate(clauses, stats)
        }
    }
}

/// `Some(false)` when no model of `c` satisfies the given partial
/// assignment (so its negation is entailed).
fn entails(c: &Constraint, vars: &[TyVar], fixed: &[(TyVar, bool)]) -> Option<bool> {
    if models_with(c, vars, fixed) {
        None
    } else {
        Some(false)
    }
}

/// `true` if `c` has a model extending the partial assignment.
fn models_with(c: &Constraint, vars: &[TyVar], fixed: &[(TyVar, bool)]) -> bool {
    let free: Vec<TyVar> = vars
        .iter()
        .copied()
        .filter(|v| !fixed.iter().any(|(w, _)| w == v))
        .collect();
    let n = free.len();
    let mut assignment: BTreeMap<TyVar, bool> = fixed.iter().copied().collect();
    for bits in 0u64..(1u64 << n) {
        for (i, v) in free.iter().enumerate() {
            assignment.insert(*v, bits >> i & 1 == 1);
        }
        if c.eval(&assignment) == Some(true) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a() -> Type {
        Type::var(0)
    }
    fn b() -> Type {
        Type::var(1)
    }

    #[test]
    fn smart_constructors_apply_unit_laws() {
        let l = Constraint::loc(a());
        assert_eq!(Constraint::and(Constraint::True, l.clone()), l);
        assert_eq!(Constraint::and(l.clone(), l.clone()), l);
        assert_eq!(
            Constraint::and(Constraint::False, l.clone()),
            Constraint::False
        );
        assert_eq!(Constraint::implies(Constraint::True, l.clone()), l);
        assert_eq!(
            Constraint::implies(Constraint::False, l.clone()),
            Constraint::True
        );
        assert_eq!(
            Constraint::implies(l.clone(), Constraint::True),
            Constraint::True
        );
        assert_eq!(Constraint::implies(l.clone(), l), Constraint::True);
    }

    #[test]
    fn solve_constants() {
        assert_eq!(Constraint::True.solve(), Solution::True);
        assert_eq!(Constraint::False.solve(), Solution::False);
    }

    #[test]
    fn solve_ground_localities() {
        assert_eq!(Constraint::loc(Type::Int).solve(), Solution::True);
        assert_eq!(
            Constraint::loc(Type::par(Type::Int)).solve(),
            Solution::False
        );
        assert_eq!(
            Constraint::loc(Type::arrow(Type::Int, Type::Bool)).solve(),
            Solution::True
        );
        assert_eq!(
            Constraint::loc(Type::pair(Type::Int, Type::par(Type::Bool))).solve(),
            Solution::False
        );
    }

    #[test]
    fn the_figure_10_constraint_is_absurd() {
        // L(int) ⇒ L(int par)  — the fourth projection example.
        let c = Constraint::Implies(
            Box::new(Constraint::loc(Type::Int)),
            Box::new(Constraint::loc(Type::par(Type::Int))),
        );
        assert_eq!(c.to_string(), "L(int) ⇒ L(int par)");
        assert_eq!(c.solve(), Solution::False);
    }

    #[test]
    fn the_figure_9_constraint_is_fine() {
        // L(int par) ⇒ L(int) — the accepted third projection.
        let c = Constraint::Implies(
            Box::new(Constraint::loc(Type::par(Type::Int))),
            Box::new(Constraint::loc(Type::Int)),
        );
        assert_eq!(c.solve(), Solution::True);
    }

    #[test]
    fn residual_atom() {
        let c = Constraint::loc(a());
        match c.solve() {
            Solution::Residual(cs) => {
                assert_eq!(cs, vec![Clause::fact(TyVar(0))]);
            }
            other => panic!("expected residual, got {other:?}"),
        }
    }

    #[test]
    fn parallel_identity_constraint_stays_residual() {
        // L(α) ⇒ False — contingent; α simply may not be local.
        let c = Constraint::Implies(Box::new(Constraint::loc(a())), Box::new(Constraint::False));
        match c.solve() {
            Solution::Residual(cs) => {
                assert_eq!(cs, vec![Clause::rule([TyVar(0)], Head::Absurd)]);
            }
            other => panic!("expected residual, got {other:?}"),
        }
    }

    #[test]
    fn propagation_derives_absurdity() {
        // L(α) ∧ (L(α) ⇒ False) = False.
        let c = Constraint::and(
            Constraint::loc(a()),
            Constraint::Implies(Box::new(Constraint::loc(a())), Box::new(Constraint::False)),
        );
        assert_eq!(c.solve(), Solution::False);
    }

    #[test]
    fn propagation_chains_facts() {
        // L(α) ∧ (L(α) ⇒ L(β)) — both become facts.
        let c = Constraint::and(
            Constraint::loc(a()),
            Constraint::Implies(
                Box::new(Constraint::loc(a())),
                Box::new(Constraint::loc(b())),
            ),
        );
        match c.solve() {
            Solution::Residual(cs) => {
                assert_eq!(cs, vec![Clause::fact(TyVar(0)), Clause::fact(TyVar(1))]);
            }
            other => panic!("expected residual, got {other:?}"),
        }
    }

    #[test]
    fn expansion_in_antecedent() {
        // L(α * β) ⇒ False  becomes  L(α) ∧ L(β) ⇒ False.
        let c = Constraint::Implies(
            Box::new(Constraint::loc(Type::pair(a(), b()))),
            Box::new(Constraint::False),
        );
        match c.solve() {
            Solution::Residual(cs) => {
                assert_eq!(cs, vec![Clause::rule([TyVar(0), TyVar(1)], Head::Absurd)]);
            }
            other => panic!("expected residual, got {other:?}"),
        }
    }

    #[test]
    fn par_in_antecedent_trivializes() {
        // L(α par) ⇒ L(β)  =  False ⇒ …  =  True.
        let c = Constraint::Implies(
            Box::new(Constraint::loc(Type::par(a()))),
            Box::new(Constraint::loc(b())),
        );
        assert_eq!(c.solve(), Solution::True);
    }

    #[test]
    fn tautologies_are_dropped() {
        // L(α) ⇒ L(α) = True even when built without smart ctor.
        let c = Constraint::Implies(
            Box::new(Constraint::loc(a())),
            Box::new(Constraint::loc(a())),
        );
        assert_eq!(c.solve(), Solution::True);
    }

    #[test]
    fn subsumption_removes_weaker_clauses() {
        // (L(α) ⇒ L(β)) ∧ (L(α) ∧ L(γ) ⇒ L(β)): second is subsumed.
        let g = Type::var(2);
        let c = Constraint::and(
            Constraint::Implies(
                Box::new(Constraint::loc(a())),
                Box::new(Constraint::loc(b())),
            ),
            Constraint::Implies(
                Box::new(Constraint::and(Constraint::loc(a()), Constraint::loc(g))),
                Box::new(Constraint::loc(b())),
            ),
        );
        match c.solve() {
            Solution::Residual(cs) => {
                assert_eq!(cs, vec![Clause::rule([TyVar(0)], Head::Atom(TyVar(1)))]);
            }
            other => panic!("expected residual, got {other:?}"),
        }
    }

    #[test]
    fn non_horn_brute_force() {
        // (L(α) ⇒ False) ⇒ False — classically equivalent to L(α).
        let inner =
            Constraint::Implies(Box::new(Constraint::loc(a())), Box::new(Constraint::False));
        let c = Constraint::Implies(Box::new(inner), Box::new(Constraint::False));
        match c.solve() {
            Solution::Residual(cs) => {
                assert_eq!(cs, vec![Clause::fact(TyVar(0))]);
            }
            other => panic!("expected residual, got {other:?}"),
        }
    }

    #[test]
    fn non_horn_valid_and_absurd() {
        // ((False ⇒ False) ⇒ True) is valid.
        let c = Constraint::Implies(
            Box::new(Constraint::Implies(
                Box::new(Constraint::False),
                Box::new(Constraint::False),
            )),
            Box::new(Constraint::True),
        );
        assert_eq!(c.solve(), Solution::True);
        // ((L(α) ⇒ L(α)) ⇒ False) is absurd (antecedent is valid).
        let c = Constraint::Implies(
            Box::new(Constraint::Implies(
                Box::new(Constraint::loc(a())),
                Box::new(Constraint::loc(a())),
            )),
            Box::new(Constraint::False),
        );
        assert_eq!(c.solve(), Solution::False);
    }

    #[test]
    fn eval_ground_truth() {
        let mut asg = BTreeMap::new();
        asg.insert(TyVar(0), true);
        asg.insert(TyVar(1), false);
        let c = Constraint::Implies(
            Box::new(Constraint::loc(a())),
            Box::new(Constraint::loc(b())),
        );
        assert_eq!(c.eval(&asg), Some(false));
        asg.insert(TyVar(0), false);
        assert_eq!(c.eval(&asg), Some(true));
        assert_eq!(Constraint::loc(Type::var(9)).eval(&asg), None);
    }

    #[test]
    fn display_forms() {
        let c = Constraint::and(
            Constraint::loc(a()),
            Constraint::Implies(Box::new(Constraint::loc(b())), Box::new(Constraint::False)),
        );
        assert_eq!(c.to_string(), "L('a) ∧ (L('b) ⇒ False)");
        assert_eq!(
            Clause::rule([TyVar(0), TyVar(1)], Head::Absurd).to_string(),
            "L('a) ∧ L('b) ⇒ False"
        );
        assert_eq!(Clause::fact(TyVar(2)).to_string(), "L('c)");
    }

    #[test]
    fn solution_round_trip() {
        let c = Constraint::and(
            Constraint::loc(a()),
            Constraint::Implies(Box::new(Constraint::loc(b())), Box::new(Constraint::False)),
        );
        let s = c.solve();
        // Re-solving the reconstructed constraint is a fixed point.
        assert_eq!(s.to_constraint().solve(), s);
    }

    #[test]
    fn free_vars_in_order() {
        let c = Constraint::Implies(
            Box::new(Constraint::loc(b())),
            Box::new(Constraint::loc(a())),
        );
        assert_eq!(c.free_vars(), vec![TyVar(1), TyVar(0)]);
    }

    #[test]
    fn a_residual_is_read_through_the_cells() {
        // L(α) ⇒ L(β), read after β ← int par: L(α) ⇒ False.
        let solved = Constraint::implies(Constraint::loc(a()), Constraint::loc(b())).solve();
        let mut cells = Cells::starting_at(2);
        let mut stats = crate::UnifyStats::default();
        cells
            .unify(&b(), &Type::par(Type::Int), &mut stats)
            .unwrap();
        let mut check = Clauses::default();
        check.and_solved(&solved, &cells);
        assert_eq!(
            check.solve_counted(&mut SolveStats::default()),
            Solution::Residual(vec![Clause::rule([TyVar(0)], Head::Absurd)])
        );
    }

    #[test]
    fn basic_clauses_solve_like_the_basic_constraint() {
        let cells = Cells::starting_at(2);
        for ty in [
            Type::arrow(Type::pair(a(), b()), a()),
            Type::arrow(Type::Int, Type::par(b())),
            Type::par(Type::list(Type::arrow(a(), Type::par(b())))),
            Type::reference(Type::sum(a(), Type::par(Type::Int))),
        ] {
            let mut check = Clauses::default();
            check.and_basic(&ty, &cells);
            let solved = check.solve_counted(&mut SolveStats::default());
            assert_eq!(solved, crate::basic_constraint(&ty).solve(), "{ty}");
        }
    }

    #[test]
    fn a_non_horn_conjunct_enters_as_its_residual() {
        // (L(α) ⇒ False) ⇒ False, classically L(α).
        let inner =
            Constraint::Implies(Box::new(Constraint::loc(a())), Box::new(Constraint::False));
        let c = Constraint::Implies(Box::new(inner), Box::new(Constraint::False));
        let mut check = Clauses::default();
        check.and(&c, &Cells::default());
        assert_eq!(
            check.solve_counted(&mut SolveStats::default()),
            Solution::Residual(vec![Clause::fact(TyVar(0))])
        );
    }
}
