//! Symbolic BSP cost formulas.
//!
//! The whole point of the nesting restriction (paper §2.1) is that
//! program costs stay *compositional*: the cost of `e₁; e₂` is
//! `cost(e₁) + cost(e₂)`, written as closed formulas over the machine
//! parameters. This module makes those formulas first-class: the
//! paper's equation (1) is the value [`equation_1`], it prints as the
//! paper writes it, evaluates against concrete parameters, and
//! composes sequentially.
//!
//! ```
//! use bsml_bsp::symbolic::{equation_1, CostParams};
//!
//! let f = equation_1();
//! assert_eq!(f.to_string(), "p + (p - 1)·n·g + l");
//! let params = CostParams { p: 8, n: 100, g: 10, l: 1000 };
//! assert_eq!(f.eval(&params), 8 + 7 * 100 * 10 + 1000);
//! ```

use std::fmt;
use std::ops::{Add, Mul};

/// Concrete values for the formula variables.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CostParams {
    /// Number of processors `p`.
    pub p: u64,
    /// Problem size `n` (message words, list length, …).
    pub n: u64,
    /// Per-word gap `g`.
    pub g: u64,
    /// Barrier latency `l`.
    pub l: u64,
}

/// A symbolic cost expression over `p`, `n`, `g`, `l`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum CostExpr {
    /// A literal constant.
    Const(u64),
    /// The machine size `p`.
    P,
    /// The problem size `n`.
    N,
    /// The gap `g`.
    G,
    /// The latency `l`.
    L,
    /// `⌈log₂ p⌉`.
    CeilLog2P,
    /// Sum.
    Sum(Box<CostExpr>, Box<CostExpr>),
    /// Product.
    Prod(Box<CostExpr>, Box<CostExpr>),
    /// Saturating difference (used for `p − 1`).
    Minus(Box<CostExpr>, Box<CostExpr>),
}

impl CostExpr {
    /// Evaluates the formula.
    #[must_use]
    pub fn eval(&self, params: &CostParams) -> u64 {
        match self {
            CostExpr::Const(k) => *k,
            CostExpr::P => params.p,
            CostExpr::N => params.n,
            CostExpr::G => params.g,
            CostExpr::L => params.l,
            CostExpr::CeilLog2P => crate::formulas::ceil_log2(params.p as usize),
            CostExpr::Sum(a, b) => a.eval(params) + b.eval(params),
            CostExpr::Prod(a, b) => a.eval(params) * b.eval(params),
            CostExpr::Minus(a, b) => a.eval(params).saturating_sub(b.eval(params)),
        }
    }

    /// Sequential (BSP) composition: costs of consecutive program
    /// phases add — the compositionality §2.1 fights for.
    #[must_use]
    pub fn then(self, other: CostExpr) -> CostExpr {
        self + other
    }

    /// Light constant folding (`0 + e = e`, `1·e = e`, `0·e = 0`,
    /// const⊕const folded).
    #[must_use]
    pub fn simplify(&self) -> CostExpr {
        use CostExpr::*;
        match self {
            Sum(a, b) => match (a.simplify(), b.simplify()) {
                (Const(0), e) | (e, Const(0)) => e,
                (Const(x), Const(y)) => Const(x + y),
                (a, b) => Sum(Box::new(a), Box::new(b)),
            },
            Prod(a, b) => match (a.simplify(), b.simplify()) {
                (Const(0), _) | (_, Const(0)) => Const(0),
                (Const(1), e) | (e, Const(1)) => e,
                (Const(x), Const(y)) => Const(x * y),
                (a, b) => Prod(Box::new(a), Box::new(b)),
            },
            Minus(a, b) => match (a.simplify(), b.simplify()) {
                (e, Const(0)) => e,
                (Const(x), Const(y)) => Const(x.saturating_sub(y)),
                (a, b) => Minus(Box::new(a), Box::new(b)),
            },
            other => other.clone(),
        }
    }
}

impl Add for CostExpr {
    type Output = CostExpr;
    fn add(self, rhs: CostExpr) -> CostExpr {
        CostExpr::Sum(Box::new(self), Box::new(rhs))
    }
}

impl Mul for CostExpr {
    type Output = CostExpr;
    fn mul(self, rhs: CostExpr) -> CostExpr {
        CostExpr::Prod(Box::new(self), Box::new(rhs))
    }
}

impl From<u64> for CostExpr {
    fn from(k: u64) -> CostExpr {
        CostExpr::Const(k)
    }
}

impl fmt::Display for CostExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Precedence: + (0) < − (1) < · (2) < atoms.
        fn go(f: &mut fmt::Formatter<'_>, e: &CostExpr, prec: u8) -> fmt::Result {
            match e {
                CostExpr::Const(k) => write!(f, "{k}"),
                CostExpr::P => f.write_str("p"),
                CostExpr::N => f.write_str("n"),
                CostExpr::G => f.write_str("g"),
                CostExpr::L => f.write_str("l"),
                CostExpr::CeilLog2P => f.write_str("⌈log₂ p⌉"),
                CostExpr::Sum(a, b) => {
                    if prec > 0 {
                        f.write_str("(")?;
                    }
                    go(f, a, 0)?;
                    f.write_str(" + ")?;
                    go(f, b, 1)?;
                    if prec > 0 {
                        f.write_str(")")?;
                    }
                    Ok(())
                }
                CostExpr::Minus(a, b) => {
                    if prec > 1 {
                        f.write_str("(")?;
                    }
                    go(f, a, 1)?;
                    f.write_str(" - ")?;
                    go(f, b, 2)?;
                    if prec > 1 {
                        f.write_str(")")?;
                    }
                    Ok(())
                }
                CostExpr::Prod(a, b) => {
                    go(f, a, 2)?;
                    f.write_str("·")?;
                    go(f, b, 2)
                }
            }
        }
        go(f, self, 0)
    }
}

/// `p − 1` as a formula.
#[must_use]
pub fn p_minus_1() -> CostExpr {
    CostExpr::Minus(Box::new(CostExpr::P), Box::new(CostExpr::Const(1)))
}

/// The paper's **equation (1)**: `p + (p − 1)·n·g + l` — the cost of
/// the direct broadcast of an `n`-word value.
#[must_use]
pub fn equation_1() -> CostExpr {
    CostExpr::P + p_minus_1() * CostExpr::N * CostExpr::G + CostExpr::L
}

/// The one-superstep cyclic shift: `1 + n·g + l`.
#[must_use]
pub fn shift() -> CostExpr {
    CostExpr::Const(1) + CostExpr::N * CostExpr::G + CostExpr::L
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formulas;

    fn params(p: u64, n: u64, g: u64, l: u64) -> CostParams {
        CostParams { p, n, g, l }
    }

    #[test]
    fn equation_1_prints_like_the_paper() {
        assert_eq!(equation_1().to_string(), "p + (p - 1)·n·g + l");
    }

    #[test]
    fn equation_1_agrees_with_the_concrete_formula() {
        for p in [2usize, 4, 16, 64] {
            for n in [1u64, 10, 1000] {
                for (g, l) in [(1u64, 1u64), (10, 1000), (160, 40_000)] {
                    let sym = equation_1().eval(&params(p as u64, n, g, l));
                    let conc = formulas::bcast_direct(p, n).time_gl(g, l);
                    assert_eq!(sym, conc, "p={p} n={n} g={g} l={l}");
                }
            }
        }
    }

    #[test]
    fn composition_is_additive() {
        // Two shifts cost twice one shift — symbolically.
        let twice = shift().then(shift());
        let p = params(4, 3, 10, 100);
        assert_eq!(twice.eval(&p), 2 * shift().eval(&p));
    }

    #[test]
    fn simplify_folds_constants() {
        use CostExpr::*;
        let e = Sum(
            Box::new(Const(0)),
            Box::new(Prod(Box::new(Const(1)), Box::new(P))),
        );
        assert_eq!(e.simplify(), P);
        let e = Prod(Box::new(Const(0)), Box::new(L));
        assert_eq!(e.simplify(), Const(0));
        let e = Minus(Box::new(Const(5)), Box::new(Const(9)));
        assert_eq!(e.simplify(), Const(0)); // saturating
    }

    #[test]
    fn display_precedence() {
        let e = (CostExpr::P + CostExpr::N) * CostExpr::G;
        assert_eq!(e.to_string(), "(p + n)·g");
        assert_eq!(shift().to_string(), "1 + n·g + l");
        assert_eq!(
            (CostExpr::CeilLog2P * CostExpr::N * CostExpr::G).to_string(),
            "⌈log₂ p⌉·n·g"
        );
    }

    #[test]
    fn eval_against_simulator_shapes() {
        // The symbolic H and S coefficients match the measured ones
        // (cost_model.rs verifies the measurements; this ties the
        // symbolic layer to the same constants).
        let p = 8u64;
        let n = 1u64;
        // eq (1) with g=1,l=0 minus work p equals H.
        let h = equation_1().eval(&params(p, n, 1, 0)) - p;
        assert_eq!(h, (p - 1) * n);
    }
}
