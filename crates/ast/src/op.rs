//! Primitive operators of mini-BSML.
//!
//! The paper's §3 fixes the operator set as: arithmetic, the fixpoint
//! combinator `fix`, the `nc`/`isnc` pair (playing the role of OCaml's
//! `None` constructor and its test) and the parallel operations
//! `mkpar`, `apply`, `put` (the synchronous conditional `if‥at‥` is a
//! syntactic form, not an operator). We add the usual comparison and
//! boolean operators plus `bsp_p` (BSMLlib's access to the static
//! machine size) so that realistic BSP algorithms can be written.
//!
//! Every operator is **unary**: binary operations take a pair, exactly
//! as in the paper's `TC(+) = (int * int) → int` (Figure 6).

use std::fmt;

/// A primitive operator.
///
/// # Example
///
/// ```
/// use bsml_ast::Op;
/// assert_eq!(Op::Mkpar.to_string(), "mkpar");
/// assert!(Op::Mkpar.is_parallel());
/// assert!(!Op::Add.is_parallel());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Op {
    /// Integer addition `(int * int) -> int`.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Integer division (δ-rule is undefined on a zero divisor).
    Div,
    /// Integer remainder (δ-rule is undefined on a zero divisor).
    Mod,
    /// Structural equality on local values `(α * α) -> bool`.
    Eq,
    /// Integer `<`.
    Lt,
    /// Integer `<=`.
    Le,
    /// Integer `>`.
    Gt,
    /// Integer `>=`.
    Ge,
    /// Boolean conjunction `(bool * bool) -> bool`.
    And,
    /// Boolean disjunction.
    Or,
    /// Boolean negation `bool -> bool`.
    Not,
    /// First projection `∀αβ.[(α*β) → α / L(α) ⇒ L(β)]`.
    Fst,
    /// Second projection `∀αβ.[(α*β) → β / L(β) ⇒ L(α)]`.
    Snd,
    /// Fixpoint combinator `∀α.(α→α)→α`.
    Fix,
    /// The "no communication" constructor `∀α. unit → α`
    /// (the paper's stand-in for OCaml's `None`).
    Nc,
    /// Test for [`Op::Nc`]: `∀α.[α → bool / L(α)]`.
    Isnc,
    /// Parallel vector construction
    /// `∀α.[(int → α) → (α par) / L(α)]`.
    Mkpar,
    /// Pointwise parallel application
    /// `∀αβ.[((α→β) par * (α par)) → (β par) / L(α) ∧ L(β)]`.
    Apply,
    /// Global communication + synchronization
    /// `∀α.[(int→α) par → (int→α) par / L(α)]`.
    Put,
    /// BSMLlib's `bsp_p : unit -> int`, the static machine size.
    BspP,
    /// Reference creation `∀α.[α → α ref / L(α)]`
    /// (§6 "imperative features" extension).
    Ref,
    /// Dereference `∀α.[α ref → α / L(α)]`.
    Deref,
    /// Assignment `∀α.[(α ref * α) → unit / L(α)]`.
    Assign,
}

impl Op {
    /// All operators, in display order. Useful for exhaustive tests.
    pub const ALL: [Op; 25] = [
        Op::Add,
        Op::Sub,
        Op::Mul,
        Op::Div,
        Op::Mod,
        Op::Eq,
        Op::Lt,
        Op::Le,
        Op::Gt,
        Op::Ge,
        Op::And,
        Op::Or,
        Op::Not,
        Op::Fst,
        Op::Snd,
        Op::Fix,
        Op::Nc,
        Op::Isnc,
        Op::Mkpar,
        Op::Apply,
        Op::Put,
        Op::BspP,
        Op::Ref,
        Op::Deref,
        Op::Assign,
    ];

    /// The operator's surface name (also its concrete syntax when used
    /// in prefix position).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Op::Add => "(+)",
            Op::Sub => "(-)",
            // `(*)` would lex as a comment opener (as in OCaml), so
            // the multiplication section is spelled with spaces.
            Op::Mul => "( * )",
            Op::Div => "(/)",
            Op::Mod => "(mod)",
            Op::Eq => "(=)",
            Op::Lt => "(<)",
            Op::Le => "(<=)",
            Op::Gt => "(>)",
            Op::Ge => "(>=)",
            Op::And => "(&&)",
            Op::Or => "(||)",
            Op::Not => "not",
            Op::Fst => "fst",
            Op::Snd => "snd",
            Op::Fix => "fix",
            Op::Nc => "nc",
            Op::Isnc => "isnc",
            Op::Mkpar => "mkpar",
            Op::Apply => "apply",
            Op::Put => "put",
            Op::BspP => "bsp_p",
            Op::Ref => "ref",
            Op::Deref => "(!)",
            Op::Assign => "(:=)",
        }
    }

    /// The infix spelling if the operator has one (`e1 + e2` desugars
    /// to `(+) (e1, e2)`).
    #[must_use]
    pub fn infix_symbol(self) -> Option<&'static str> {
        Some(match self {
            Op::Add => "+",
            Op::Sub => "-",
            Op::Mul => "*",
            Op::Div => "/",
            Op::Mod => "mod",
            Op::Eq => "=",
            Op::Lt => "<",
            Op::Le => "<=",
            Op::Gt => ">",
            Op::Ge => ">=",
            Op::And => "&&",
            Op::Or => "||",
            Op::Assign => ":=",
            _ => return None,
        })
    }

    /// `true` for the BSP primitives whose δ-rules live in the paper's
    /// Figure 2 (global reduction `δ_g`); `false` for the sequential
    /// operators of Figure 1.
    #[must_use]
    pub fn is_parallel(self) -> bool {
        matches!(self, Op::Mkpar | Op::Apply | Op::Put)
    }

    /// Looks an operator up by its prefix surface name.
    ///
    /// # Example
    ///
    /// ```
    /// use bsml_ast::Op;
    /// assert_eq!(Op::from_name("mkpar"), Some(Op::Mkpar));
    /// assert_eq!(Op::from_name("frobnicate"), None);
    /// ```
    #[must_use]
    pub fn from_name(name: &str) -> Option<Op> {
        Op::ALL.iter().copied().find(|op| op.name() == name)
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Prefix-position spelling: alphabetic names print bare,
        // symbolic operators print parenthesized, e.g. `(+)`.
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = Op::ALL.iter().map(|o| o.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Op::ALL.len());
    }

    #[test]
    fn from_name_round_trips() {
        for op in Op::ALL {
            assert_eq!(Op::from_name(op.name()), Some(op));
        }
    }

    #[test]
    fn parallel_classification() {
        assert!(Op::Mkpar.is_parallel());
        assert!(Op::Apply.is_parallel());
        assert!(Op::Put.is_parallel());
        let seq = Op::ALL.iter().filter(|o| !o.is_parallel()).count();
        assert_eq!(seq, Op::ALL.len() - 3);
    }

    #[test]
    fn infix_symbols() {
        assert_eq!(Op::Add.infix_symbol(), Some("+"));
        assert_eq!(Op::Mkpar.infix_symbol(), None);
        assert_eq!(Op::Mod.infix_symbol(), Some("mod"));
    }
}
