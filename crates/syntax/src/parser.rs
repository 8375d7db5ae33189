//! Recursive-descent parser for mini-BSML.
//!
//! Precedence, loosest first:
//!
//! ```text
//! fun / let / if / case / match        (prefix forms)
//! ||                                   left
//! &&                                   left
//! = < <= > >=                          non-associative
//! ::                                   right
//! + -                                  left
//! * / mod                              left
//! application                          left
//! atoms
//! ```
//!
//! The BSP primitives (`mkpar`, `apply`, `put`, …) are *reserved
//! operator names*: they parse as operators and cannot be rebound.

use std::sync::Arc;

use bsml_ast::{Const, Expr, ExprKind, Ident, Op, Span};

use crate::error::ParseError;
use crate::lexer::tokenize;
use crate::token::{Token, TokenKind};

/// Parses a complete mini-BSML expression.
///
/// # Errors
///
/// Returns a [`ParseError`] on lexical or syntactic errors, including
/// trailing input after a complete expression.
///
/// # Example
///
/// ```
/// use bsml_syntax::parse;
///
/// let e = parse("apply (mkpar (fun i -> fun x -> x + i), mkpar (fun i -> i))")?;
/// assert!(e.mentions_parallelism());
/// # Ok::<(), bsml_syntax::ParseError>(())
/// ```
pub fn parse(source: &str) -> Result<Expr, ParseError> {
    let mut p = Parser::new(source)?;
    let e = p.expr()?;
    p.expect(&TokenKind::Eof)?;
    Ok(e)
}

/// [`parse`] under a telemetry `parse` span recording the source size
/// and token count. With a disabled handle this is exactly [`parse`].
///
/// # Errors
///
/// Same as [`parse`].
pub fn parse_with(source: &str, telemetry: &bsml_obs::Telemetry) -> Result<Expr, ParseError> {
    let mut sp = telemetry.span("parse");
    sp.set("bytes", source.len());
    let mut p = Parser::new(source)?;
    sp.set("tokens", p.token_count());
    let e = p.expr()?;
    p.expect(&TokenKind::Eof)?;
    Ok(e)
}

pub(crate) struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    pub(crate) fn new(source: &str) -> Result<Parser, ParseError> {
        Ok(Parser {
            tokens: tokenize(source)?,
            pos: 0,
        })
    }

    /// Number of tokens, excluding the trailing `Eof`.
    pub(crate) fn token_count(&self) -> usize {
        self.tokens.len().saturating_sub(1)
    }

    /// The current position, for backtracking.
    pub(crate) fn checkpoint(&self) -> usize {
        self.pos
    }

    /// Returns to a previously saved position.
    pub(crate) fn rewind(&mut self, checkpoint: usize) {
        self.pos = checkpoint;
    }

    pub(crate) fn peek_kind(&self) -> &TokenKind {
        self.peek()
    }

    pub(crate) fn eat_kind(&mut self, kind: &TokenKind) -> bool {
        self.eat(kind)
    }

    pub(crate) fn at_eof(&self) -> bool {
        self.peek() == &TokenKind::Eof
    }

    pub(crate) fn expect_eof(&mut self) -> Result<(), ParseError> {
        self.expect(&TokenKind::Eof).map(|_| ())
    }

    pub(crate) fn parse_full_expr(&mut self) -> Result<Expr, ParseError> {
        self.expr()
    }

    /// Parses `let [rec] name params* = expr` at the toplevel.
    /// Returns `None` (for the caller to rewind) when the binding
    /// continues with `in` — i.e. it was an expression after all.
    pub(crate) fn parse_toplevel_let(&mut self) -> Result<Option<crate::module::Decl>, ParseError> {
        let start = self.expect(&TokenKind::Let)?.span;
        let recursive = self.eat(&TokenKind::Rec);
        let name = self.expect_binder()?;
        let mut params = Vec::new();
        while matches!(self.peek(), TokenKind::Ident(_)) {
            params.push(self.expect_binder()?);
        }
        self.expect(&TokenKind::Equal)?;
        let mut bound = self.expr()?;
        if self.peek() == &TokenKind::In {
            return Ok(None);
        }
        let span = start.join(bound.span);
        for p in params.into_iter().rev() {
            bound = Expr::new(ExprKind::Fun(p, Arc::new(bound)), span);
        }
        if recursive {
            let lam = Expr::new(ExprKind::Fun(name.clone(), Arc::new(bound)), span);
            bound = Expr::new(
                ExprKind::App(
                    Box::new(Expr::new(ExprKind::Op(Op::Fix), span)),
                    Box::new(lam),
                ),
                span,
            );
        }
        Ok(Some(crate::module::Decl {
            name,
            expr: bound,
            span,
        }))
    }
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<Token, ParseError> {
        if self.peek() == kind {
            Ok(self.bump())
        } else {
            Err(ParseError::new(
                format!("expected `{kind}`, found {}", self.peek().describe()),
                self.peek_span(),
            ))
        }
    }

    fn expect_binder(&mut self) -> Result<Ident, ParseError> {
        match self.peek().clone() {
            TokenKind::Ident(name) => {
                if Op::from_name(&name).is_some() {
                    return Err(ParseError::new(
                        format!("`{name}` is a reserved operator name and cannot be bound"),
                        self.peek_span(),
                    ));
                }
                self.bump();
                Ok(Ident::new(name))
            }
            other => Err(ParseError::new(
                format!("expected an identifier, found {}", other.describe()),
                self.peek_span(),
            )),
        }
    }

    /// Top-level expression: a `;`-sequence of phrases. `e₁; e₂`
    /// desugars to `let _ = e₁ in e₂` (imperative sequencing for the
    /// §6 references extension). List literals parse their items
    /// below this level, so `[1; 2]` keeps its meaning.
    fn expr(&mut self) -> Result<Expr, ParseError> {
        let first = self.expr_no_seq()?;
        if self.peek() != &TokenKind::Semi {
            return Ok(first);
        }
        self.bump();
        let rest = self.expr()?; // right associative
        let span = first.span.join(rest.span);
        Ok(Expr::new(
            ExprKind::Let(Ident::new("_"), Box::new(first), Box::new(rest)),
            span,
        ))
    }

    /// An expression that does not swallow `;` (list items, and the
    /// operand level of sequencing itself).
    fn expr_no_seq(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            TokenKind::Fun => self.fun(),
            TokenKind::Let => self.let_(),
            TokenKind::If => self.if_(),
            TokenKind::Case => self.case(),
            TokenKind::Match => self.match_(),
            TokenKind::While => self.while_(),
            TokenKind::For => self.for_(),
            _ => self.assign_expr(),
        }
    }

    /// `while c do body done` — desugars through `fix`:
    /// `fix (fun loop -> fun u -> if c then (body; loop ()) else ()) ()`.
    fn while_(&mut self) -> Result<Expr, ParseError> {
        let start = self.expect(&TokenKind::While)?.span;
        let cond = self.expr()?;
        self.expect(&TokenKind::Do)?;
        let body = self.expr()?;
        let end = self.expect(&TokenKind::Done)?.span;
        let span = start.join(end);
        Ok(desugar_loop(span, cond, body))
    }

    /// `for x = a to b do body done` — desugars through `fix` with a
    /// reference-free counter passed as the loop argument.
    fn for_(&mut self) -> Result<Expr, ParseError> {
        let start = self.expect(&TokenKind::For)?.span;
        let var = self.expect_binder()?;
        self.expect(&TokenKind::Equal)?;
        let from = self.expr()?;
        self.expect(&TokenKind::To)?;
        let to = self.expr()?;
        self.expect(&TokenKind::Do)?;
        let body = self.expr()?;
        let end = self.expect(&TokenKind::Done)?.span;
        let span = start.join(end);
        Ok(desugar_for(span, var, from, to, body))
    }

    /// `e1 := e2` (right associative, loosest infix level).
    fn assign_expr(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.or_expr()?;
        if self.eat(&TokenKind::ColonEq) {
            // Right associative, allows prefix forms, but binds
            // tighter than `;` (`c := 5; …` sequences two phrases).
            let rhs = self.expr_no_seq()?;
            Ok(binop(Op::Assign, lhs, rhs))
        } else {
            Ok(lhs)
        }
    }

    fn fun(&mut self) -> Result<Expr, ParseError> {
        let start = self.expect(&TokenKind::Fun)?.span;
        let mut params = vec![self.expect_binder()?];
        while matches!(self.peek(), TokenKind::Ident(_)) {
            params.push(self.expect_binder()?);
        }
        self.expect(&TokenKind::Arrow)?;
        let body = self.expr()?;
        let span = start.join(body.span);
        Ok(params.into_iter().rev().fold(body, |acc, p| {
            Expr::new(ExprKind::Fun(p, Arc::new(acc)), span)
        }))
    }

    /// A chain of `let … in` headers is read in a loop and its body
    /// parsed once, so nested lets cost no parser stack; the tree is
    /// then built from the innermost let outwards.
    fn let_(&mut self) -> Result<Expr, ParseError> {
        let mut headers = Vec::new();
        while self.peek() == &TokenKind::Let {
            let start = self.expect(&TokenKind::Let)?.span;
            let recursive = self.eat(&TokenKind::Rec);
            let name = self.expect_binder()?;
            let mut params = Vec::new();
            while matches!(self.peek(), TokenKind::Ident(_)) {
                params.push(self.expect_binder()?);
            }
            self.expect(&TokenKind::Equal)?;
            let bound = self.expr()?;
            self.expect(&TokenKind::In)?;
            headers.push((start, recursive, name, params, bound));
        }
        // A body that is itself a `let` was read as one more header: as
        // a body, it would have taken every `;` after it all the same.
        let mut body = self.expr()?;
        for (start, recursive, name, params, mut bound) in headers.into_iter().rev() {
            let span = start.join(body.span);
            // `let f x y = e` sugar.
            for p in params.into_iter().rev() {
                bound = Expr::new(ExprKind::Fun(p, Arc::new(bound)), span);
            }
            // `let rec f … = e` desugars through the fix operator:
            // let f = fix (fun f -> …) in body.
            if recursive {
                let lam = Expr::new(ExprKind::Fun(name.clone(), Arc::new(bound)), span);
                bound = Expr::new(
                    ExprKind::App(
                        Box::new(Expr::new(ExprKind::Op(Op::Fix), span)),
                        Box::new(lam),
                    ),
                    span,
                );
            }
            body = Expr::new(ExprKind::Let(name, Box::new(bound), Box::new(body)), span);
        }
        Ok(body)
    }

    fn if_(&mut self) -> Result<Expr, ParseError> {
        let start = self.expect(&TokenKind::If)?.span;
        let cond = self.expr()?;
        if self.eat(&TokenKind::At) {
            let at = self.expr()?;
            self.expect(&TokenKind::Then)?;
            let then = self.expr()?;
            self.expect(&TokenKind::Else)?;
            let els = self.expr()?;
            let span = start.join(els.span);
            Ok(Expr::new(
                ExprKind::IfAt(Box::new(cond), Box::new(at), Box::new(then), Box::new(els)),
                span,
            ))
        } else {
            self.expect(&TokenKind::Then)?;
            let then = self.expr()?;
            self.expect(&TokenKind::Else)?;
            let els = self.expr()?;
            let span = start.join(els.span);
            Ok(Expr::new(
                ExprKind::If(Box::new(cond), Box::new(then), Box::new(els)),
                span,
            ))
        }
    }

    fn case(&mut self) -> Result<Expr, ParseError> {
        let start = self.expect(&TokenKind::Case)?.span;
        let scrutinee = self.expr()?;
        self.expect(&TokenKind::Of)?;
        self.eat(&TokenKind::Bar); // optional leading bar
        self.expect(&TokenKind::Inl)?;
        let left_var = self.expect_binder()?;
        self.expect(&TokenKind::Arrow)?;
        let left_body = self.expr()?;
        self.expect(&TokenKind::Bar)?;
        self.expect(&TokenKind::Inr)?;
        let right_var = self.expect_binder()?;
        self.expect(&TokenKind::Arrow)?;
        let right_body = self.expr()?;
        let span = start.join(right_body.span);
        Ok(Expr::new(
            ExprKind::Case {
                scrutinee: Box::new(scrutinee),
                left_var,
                left_body: Box::new(left_body),
                right_var,
                right_body: Box::new(right_body),
            },
            span,
        ))
    }

    fn match_(&mut self) -> Result<Expr, ParseError> {
        let start = self.expect(&TokenKind::Match)?.span;
        let scrutinee = self.expr()?;
        self.expect(&TokenKind::With)?;
        self.eat(&TokenKind::Bar); // optional leading bar
        self.expect(&TokenKind::LBracket)?;
        self.expect(&TokenKind::RBracket)?;
        self.expect(&TokenKind::Arrow)?;
        let nil_body = self.expr()?;
        self.expect(&TokenKind::Bar)?;
        let head_var = self.expect_binder()?;
        self.expect(&TokenKind::ColonColon)?;
        let tail_var = self.expect_binder()?;
        if head_var == tail_var {
            return Err(ParseError::new(
                format!("pattern binds `{head_var}` twice"),
                self.peek_span(),
            ));
        }
        self.expect(&TokenKind::Arrow)?;
        let cons_body = self.expr()?;
        let span = start.join(cons_body.span);
        Ok(Expr::new(
            ExprKind::MatchList {
                scrutinee: Box::new(scrutinee),
                nil_body: Box::new(nil_body),
                head_var,
                tail_var,
                cons_body: Box::new(cons_body),
            },
            span,
        ))
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.and_expr()?;
        while self.eat(&TokenKind::BarBar) {
            let rhs = self.and_expr()?;
            lhs = binop(Op::Or, lhs, rhs);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.cmp_expr()?;
        while self.eat(&TokenKind::AmpAmp) {
            let rhs = self.cmp_expr()?;
            lhs = binop(Op::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.cons_expr()?;
        let op = match self.peek() {
            TokenKind::Equal => Op::Eq,
            TokenKind::Lt => Op::Lt,
            TokenKind::Le => Op::Le,
            TokenKind::Gt => Op::Gt,
            TokenKind::Ge => Op::Ge,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.cons_expr()?;
        Ok(binop(op, lhs, rhs))
    }

    fn cons_expr(&mut self) -> Result<Expr, ParseError> {
        let head = self.add_expr()?;
        if self.eat(&TokenKind::ColonColon) {
            let tail = self.cons_expr()?; // right associative
            let span = head.span.join(tail.span);
            Ok(Expr::new(
                ExprKind::Cons(Box::new(head), Box::new(tail)),
                span,
            ))
        } else {
            Ok(head)
        }
    }

    fn add_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => Op::Add,
                TokenKind::Minus => Op::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.mul_expr()?;
            lhs = binop(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.app_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => Op::Mul,
                TokenKind::Slash => Op::Div,
                TokenKind::Mod => Op::Mod,
                _ => break,
            };
            self.bump();
            let rhs = self.app_expr()?;
            lhs = binop(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn app_expr(&mut self) -> Result<Expr, ParseError> {
        // Prefix forms.
        match self.peek() {
            TokenKind::Inl | TokenKind::Inr => {
                let tok = self.bump();
                let arg = self.atom()?;
                let span = tok.span.join(arg.span);
                let kind = if tok.kind == TokenKind::Inl {
                    ExprKind::Inl(Box::new(arg))
                } else {
                    ExprKind::Inr(Box::new(arg))
                };
                // Keep consuming an application chain: `inl x y`
                // parses as `(inl x) y`.
                let mut f = Expr::new(kind, span);
                while self.starts_atom() {
                    let arg = self.atom()?;
                    let span = f.span.join(arg.span);
                    f = Expr::new(ExprKind::App(Box::new(f), Box::new(arg)), span);
                }
                return Ok(f);
            }
            TokenKind::Minus => {
                // Unary minus: a negative literal when applied to an
                // integer constant, otherwise `0 - e`.
                let tok = self.bump();
                let arg = self.atom()?;
                let span = tok.span.join(arg.span);
                if let ExprKind::Const(Const::Int(n)) = arg.kind {
                    return Ok(Expr::new(ExprKind::Const(Const::Int(-n)), span));
                }
                let zero = Expr::new(ExprKind::Const(Const::Int(0)), tok.span);
                return Ok(Expr::new(
                    ExprKind::App(
                        Box::new(Expr::new(ExprKind::Op(Op::Sub), tok.span)),
                        Box::new(Expr::new(
                            ExprKind::Pair(Box::new(zero), Box::new(arg)),
                            span,
                        )),
                    ),
                    span,
                ));
            }
            _ => {}
        }
        let mut f = self.atom()?;
        while self.starts_atom() {
            let arg = self.atom()?;
            let span = f.span.join(arg.span);
            f = Expr::new(ExprKind::App(Box::new(f), Box::new(arg)), span);
        }
        Ok(f)
    }

    fn starts_atom(&self) -> bool {
        matches!(
            self.peek(),
            TokenKind::Int(_)
                | TokenKind::Ident(_)
                | TokenKind::True
                | TokenKind::False
                | TokenKind::LParen
                | TokenKind::LBracket
                | TokenKind::Bang
        )
    }

    fn atom(&mut self) -> Result<Expr, ParseError> {
        let tok = self.bump();
        let span = tok.span;
        match tok.kind {
            TokenKind::Int(n) => Ok(Expr::new(ExprKind::Const(Const::Int(n)), span)),
            TokenKind::True => Ok(Expr::new(ExprKind::Const(Const::Bool(true)), span)),
            TokenKind::False => Ok(Expr::new(ExprKind::Const(Const::Bool(false)), span)),
            TokenKind::Ident(name) => {
                if let Some(op) = Op::from_name(&name) {
                    Ok(Expr::new(ExprKind::Op(op), span))
                } else {
                    Ok(Expr::new(ExprKind::Var(Ident::new(name)), span))
                }
            }
            TokenKind::LParen => self.paren_tail(span),
            TokenKind::LBracket => self.bracket_tail(span),
            TokenKind::Bang => {
                // `!e` — dereference; binds like an atom.
                let arg = self.atom()?;
                let full = span.join(arg.span);
                Ok(Expr::new(
                    ExprKind::App(
                        Box::new(Expr::new(ExprKind::Op(Op::Deref), span)),
                        Box::new(arg),
                    ),
                    full,
                ))
            }
            other => Err(ParseError::new(
                format!("expected an expression, found {}", other.describe()),
                span,
            )),
        }
    }

    /// After `(`: unit, an operator section, a grouped expression or a
    /// pair.
    fn paren_tail(&mut self, start: Span) -> Result<Expr, ParseError> {
        // `()`
        if self.peek() == &TokenKind::RParen {
            let end = self.bump().span;
            return Ok(Expr::new(ExprKind::Const(Const::Unit), start.join(end)));
        }
        // Operator section `(+)`, `( * )`, `(=)`, `(mod)`, …
        let section = match self.peek() {
            TokenKind::Plus => Some(Op::Add),
            TokenKind::Minus => Some(Op::Sub),
            TokenKind::Star => Some(Op::Mul),
            TokenKind::Slash => Some(Op::Div),
            TokenKind::Mod => Some(Op::Mod),
            TokenKind::Equal => Some(Op::Eq),
            TokenKind::Lt => Some(Op::Lt),
            TokenKind::Le => Some(Op::Le),
            TokenKind::Gt => Some(Op::Gt),
            TokenKind::Ge => Some(Op::Ge),
            TokenKind::AmpAmp => Some(Op::And),
            TokenKind::BarBar => Some(Op::Or),
            TokenKind::ColonEq => Some(Op::Assign),
            TokenKind::Bang => Some(Op::Deref),
            _ => None,
        };
        if let Some(op) = section {
            // Only a section when immediately closed: `(+)` yes,
            // `(+ 1)` no (and `(+ 1)` is a syntax error anyway).
            if self.tokens[self.pos + 1].kind == TokenKind::RParen {
                self.bump();
                let end = self.bump().span;
                return Ok(Expr::new(ExprKind::Op(op), start.join(end)));
            }
        }
        let first = self.expr()?;
        if self.eat(&TokenKind::Comma) {
            let second = self.expr()?;
            let end = self.expect(&TokenKind::RParen)?.span;
            Ok(Expr::new(
                ExprKind::Pair(Box::new(first), Box::new(second)),
                start.join(end),
            ))
        } else {
            self.expect(&TokenKind::RParen)?;
            Ok(first)
        }
    }

    /// After `[`: nil or a list literal `[e; e; …]`.
    fn bracket_tail(&mut self, start: Span) -> Result<Expr, ParseError> {
        if self.peek() == &TokenKind::RBracket {
            let end = self.bump().span;
            return Ok(Expr::new(ExprKind::Nil, start.join(end)));
        }
        let mut items = vec![self.expr_no_seq()?];
        while self.eat(&TokenKind::Semi) {
            items.push(self.expr_no_seq()?);
        }
        let end = self.expect(&TokenKind::RBracket)?.span;
        let span = start.join(end);
        let mut list = Expr::new(ExprKind::Nil, span);
        for item in items.into_iter().rev() {
            list = Expr::new(ExprKind::Cons(Box::new(item), Box::new(list)), span);
        }
        Ok(list)
    }
}

/// `while`/`for` desugar through `fix`. The synthesized binders
/// (`_wloop`, `_wu`, `_wto`) are ordinary identifiers; shadowing them
/// in the loop body is possible but perverse.
fn desugar_loop(span: Span, cond: Expr, body: Expr) -> Expr {
    let at = |kind: ExprKind| Expr::new(kind, span);
    // fix (fun _wloop -> fun _wu ->
    //        if cond then (let _ = body in _wloop ()) else ()) ()
    let recall = at(ExprKind::App(
        Box::new(at(ExprKind::Var(Ident::new("_wloop")))),
        Box::new(at(ExprKind::Const(Const::Unit))),
    ));
    let then = at(ExprKind::Let(
        Ident::new("_"),
        Box::new(body),
        Box::new(recall),
    ));
    let if_ = at(ExprKind::If(
        Box::new(cond),
        Box::new(then),
        Box::new(at(ExprKind::Const(Const::Unit))),
    ));
    let lam = at(ExprKind::Fun(
        Ident::new("_wloop"),
        Arc::new(at(ExprKind::Fun(Ident::new("_wu"), Arc::new(if_)))),
    ));
    let fixed = at(ExprKind::App(
        Box::new(at(ExprKind::Op(Op::Fix))),
        Box::new(lam),
    ));
    at(ExprKind::App(
        Box::new(fixed),
        Box::new(at(ExprKind::Const(Const::Unit))),
    ))
}

/// `for x = a to b do body done` — the bound is evaluated once, the
/// counter travels as the loop argument (no references needed).
fn desugar_for(span: Span, var: Ident, from: Expr, to: Expr, body: Expr) -> Expr {
    let at = |kind: ExprKind| Expr::new(kind, span);
    // let _wto = to in
    // (fix (fun _wloop -> fun x ->
    //    if x <= _wto then (let _ = body in _wloop (x + 1)) else ())) from
    let next = at(ExprKind::App(
        Box::new(at(ExprKind::Op(Op::Add))),
        Box::new(at(ExprKind::Pair(
            Box::new(at(ExprKind::Var(var.clone()))),
            Box::new(at(ExprKind::Const(Const::Int(1)))),
        ))),
    ));
    let recall = at(ExprKind::App(
        Box::new(at(ExprKind::Var(Ident::new("_wloop")))),
        Box::new(next),
    ));
    let then = at(ExprKind::Let(
        Ident::new("_"),
        Box::new(body),
        Box::new(recall),
    ));
    let cond = at(ExprKind::App(
        Box::new(at(ExprKind::Op(Op::Le))),
        Box::new(at(ExprKind::Pair(
            Box::new(at(ExprKind::Var(var.clone()))),
            Box::new(at(ExprKind::Var(Ident::new("_wto")))),
        ))),
    ));
    let if_ = at(ExprKind::If(
        Box::new(cond),
        Box::new(then),
        Box::new(at(ExprKind::Const(Const::Unit))),
    ));
    let lam = at(ExprKind::Fun(
        Ident::new("_wloop"),
        Arc::new(at(ExprKind::Fun(var, Arc::new(if_)))),
    ));
    let fixed = at(ExprKind::App(
        Box::new(at(ExprKind::Op(Op::Fix))),
        Box::new(lam),
    ));
    let looped = at(ExprKind::App(Box::new(fixed), Box::new(from)));
    at(ExprKind::Let(
        Ident::new("_wto"),
        Box::new(to),
        Box::new(looped),
    ))
}

fn binop(op: Op, lhs: Expr, rhs: Expr) -> Expr {
    let span = lhs.span.join(rhs.span);
    Expr::new(
        ExprKind::App(
            Box::new(Expr::new(ExprKind::Op(op), span)),
            Box::new(Expr::new(
                ExprKind::Pair(Box::new(lhs), Box::new(rhs)),
                span,
            )),
        ),
        span,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsml_ast::build as b;

    fn p(src: &str) -> Expr {
        parse(src).unwrap_or_else(|e| panic!("{}", e.render(src)))
    }

    #[test]
    fn literals() {
        assert_eq!(p("42"), b::int(42));
        assert_eq!(p("true"), b::bool_(true));
        assert_eq!(p("()"), b::unit());
        assert_eq!(p("[]"), b::nil());
        assert_eq!(p("x"), b::var("x"));
    }

    #[test]
    fn arithmetic_precedence() {
        assert_eq!(
            p("1 + 2 * 3"),
            b::add(b::int(1), b::mul(b::int(2), b::int(3)))
        );
        assert_eq!(
            p("(1 + 2) * 3"),
            b::mul(b::add(b::int(1), b::int(2)), b::int(3))
        );
        assert_eq!(
            p("10 - 2 - 3"),
            b::sub(b::sub(b::int(10), b::int(2)), b::int(3))
        );
        assert_eq!(p("7 mod 2"), b::modulo(b::int(7), b::int(2)));
    }

    #[test]
    fn unary_minus() {
        assert_eq!(p("-5"), b::int(-5));
        assert_eq!(p("1 - -5"), b::sub(b::int(1), b::int(-5)));
        assert_eq!(p("f (-1)"), b::app(b::var("f"), b::int(-1)));
        assert_eq!(p("-x"), b::sub(b::int(0), b::var("x")));
    }

    #[test]
    fn comparisons_and_booleans() {
        assert_eq!(p("1 < 2"), b::lt(b::int(1), b::int(2)));
        assert_eq!(
            p("1 < 2 && true || false"),
            b::binop(
                Op::Or,
                b::binop(Op::And, b::lt(b::int(1), b::int(2)), b::bool_(true)),
                b::bool_(false)
            )
        );
        assert_eq!(p("not true"), b::app(b::op(Op::Not), b::bool_(true)));
    }

    #[test]
    fn application_chains() {
        assert_eq!(p("f x y"), b::apps(b::var("f"), [b::var("x"), b::var("y")]));
        assert_eq!(
            p("f (g x)"),
            b::app(b::var("f"), b::app(b::var("g"), b::var("x")))
        );
        // Application binds tighter than *.
        assert_eq!(
            p("f x * 2"),
            b::mul(b::app(b::var("f"), b::var("x")), b::int(2))
        );
    }

    #[test]
    fn lambdas() {
        assert_eq!(p("fun x -> x"), b::fun_("x", b::var("x")));
        assert_eq!(
            p("fun x y -> x + y"),
            b::funs(&["x", "y"], b::add(b::var("x"), b::var("y")))
        );
    }

    #[test]
    fn lets_and_sugar() {
        assert_eq!(p("let x = 1 in x"), b::let_("x", b::int(1), b::var("x")));
        assert_eq!(
            p("let f x = x in f"),
            b::let_("f", b::fun_("x", b::var("x")), b::var("f"))
        );
        assert_eq!(
            p("let rec f x = f x in f"),
            b::let_(
                "f",
                b::fix(b::fun_("f", b::fun_("x", b::app(b::var("f"), b::var("x"))))),
                b::var("f")
            )
        );
    }

    #[test]
    fn conditionals() {
        assert_eq!(
            p("if true then 1 else 2"),
            b::if_(b::bool_(true), b::int(1), b::int(2))
        );
        assert_eq!(
            p("if v at 0 then 1 else 2"),
            b::ifat(b::var("v"), b::int(0), b::int(1), b::int(2))
        );
    }

    #[test]
    fn bsp_primitives_are_reserved_operators() {
        assert_eq!(
            p("mkpar (fun pid -> pid)"),
            b::mkpar(b::fun_("pid", b::var("pid")))
        );
        assert_eq!(p("put f"), b::put(b::var("f")));
        assert_eq!(p("apply (f, v)"), b::apply(b::var("f"), b::var("v")));
        assert_eq!(p("bsp_p ()"), b::nprocs());
        assert!(parse("fun mkpar -> mkpar").is_err());
        assert!(parse("let put = 1 in put").is_err());
    }

    #[test]
    fn pairs_and_sections() {
        assert_eq!(p("(1, 2)"), b::pair(b::int(1), b::int(2)));
        assert_eq!(p("(+)"), b::op(Op::Add));
        assert_eq!(p("( * )"), b::op(Op::Mul));
        assert_eq!(p("(mod)"), b::op(Op::Mod));
        assert_eq!(p("(+) (1, 2)"), b::add(b::int(1), b::int(2)));
    }

    #[test]
    fn lists() {
        assert_eq!(
            p("[1; 2; 3]"),
            b::list(vec![b::int(1), b::int(2), b::int(3)])
        );
        assert_eq!(p("1 :: 2 :: []"), b::list(vec![b::int(1), b::int(2)]));
        // :: binds looser than +.
        assert_eq!(
            p("1 + 2 :: []"),
            b::cons(b::add(b::int(1), b::int(2)), b::nil())
        );
    }

    #[test]
    fn sums_and_case() {
        assert_eq!(p("inl 1"), b::inl(b::int(1)));
        assert_eq!(p("inr (f x)"), b::inr(b::app(b::var("f"), b::var("x"))));
        assert_eq!(
            p("case s of inl l -> l | inr r -> r"),
            b::case(b::var("s"), "l", b::var("l"), "r", b::var("r"))
        );
        // Optional leading bar.
        assert_eq!(
            p("case s of | inl l -> l | inr r -> r"),
            b::case(b::var("s"), "l", b::var("l"), "r", b::var("r"))
        );
    }

    #[test]
    fn match_list() {
        assert_eq!(
            p("match xs with [] -> 0 | h :: t -> h"),
            b::match_list(b::var("xs"), b::int(0), "h", "t", b::var("h"))
        );
        assert!(parse("match xs with [] -> 0 | h :: h -> h").is_err());
    }

    #[test]
    fn the_paper_bcast_parses() {
        let src = "
            let replicate = fun x -> mkpar (fun pid -> x) in
            let noSome = fun o -> o in
            let bcast = fun n -> fun vec ->
              let tosend = mkpar (fun i -> fun v -> fun dst ->
                  if i = n then v else nc ()) in
              let recv = put (apply (apply (tosend, mkpar (fun i -> i)), vec)) in
              apply (recv, replicate n)
            in bcast";
        assert!(p(src).is_closed());
    }

    #[test]
    fn errors_carry_spans() {
        let err = parse("let x = in x").unwrap_err();
        assert!(!err.span.is_dummy());
        assert!(err.message.contains("expected an expression"));
        let err = parse("1 +").unwrap_err();
        assert!(err.message.contains("expected an expression"));
        // `1 2` parses as application (a type error, not a syntax
        // error); trailing keywords are syntax errors.
        let err = parse("1 in").unwrap_err();
        assert!(err.message.contains("expected `<eof>`"), "{err}");
    }

    #[test]
    fn trailing_input_rejected() {
        assert!(parse("1 )").is_err());
        assert!(parse("(1").is_err());
    }

    #[test]
    fn comments_anywhere() {
        assert_eq!(
            p("1 (* one *) + (* plus *) 2"),
            b::add(b::int(1), b::int(2))
        );
    }

    #[test]
    fn spans_cover_constructs() {
        let src = "let x = 1 in x";
        let e = p(src);
        assert_eq!(e.span.slice(src), Some(src));
    }

    #[test]
    fn pretty_print_round_trips_paper_examples() {
        for src in [
            "mkpar (fun pid -> pid)",
            "fun x -> if mkpar (fun i -> true) at 0 then x else x",
            "fst (1, mkpar (fun i -> i))",
            "let fst' = fun p -> fst p in fst' (mkpar (fun i -> i), 1)",
            "put (mkpar (fun i -> fun dst -> i + dst))",
            "match [1; 2] with [] -> 0 | h :: t -> h",
            "case inl 3 of inl a -> a + 1 | inr b -> b - 1",
        ] {
            let e1 = p(src);
            let printed = e1.to_string();
            let e2 = parse(&printed)
                .unwrap_or_else(|err| panic!("re-parse failed on `{printed}`: {err}"));
            assert_eq!(e1, e2, "round trip changed `{src}` → `{printed}`");
        }
    }
}
