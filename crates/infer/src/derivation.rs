//! Typing-derivation trees.
//!
//! The inference engine can record the derivation it builds; rendering
//! one reproduces the paper's Figures 8–10 (hand-drawn there,
//! mechanical here).

use std::fmt;

use bsml_types::{Constraint, Type};

/// One node of a typing derivation: a rule application with its
/// conclusion judgment and premises.
#[derive(Clone, Debug)]
pub struct Derivation {
    /// The rule name, e.g. `"(App)"`, `"(Let)"`, `"(Op)"`.
    pub rule: &'static str,
    /// Pretty form of the subject expression (possibly elided).
    pub expr: String,
    /// The inferred simple type.
    pub ty: Type,
    /// The constraint attached to the judgment.
    pub constraint: Constraint,
    /// Premise derivations, left to right.
    pub premises: Vec<Derivation>,
}

impl Derivation {
    /// Creates a leaf node.
    #[must_use]
    pub fn leaf(rule: &'static str, expr: String, ty: Type, constraint: Constraint) -> Self {
        Derivation {
            rule,
            expr,
            ty,
            constraint,
            premises: Vec::new(),
        }
    }

    /// Number of rule applications in the tree.
    #[must_use]
    pub fn size(&self) -> usize {
        1 + self.premises.iter().map(Derivation::size).sum::<usize>()
    }

    /// The judgment line of this node, `⊢ e : [τ / C]`.
    #[must_use]
    pub fn judgment(&self) -> String {
        if self.constraint == Constraint::True {
            format!("⊢ {} : {}", self.expr, self.ty)
        } else {
            format!("⊢ {} : [{} / {}]", self.expr, self.ty, self.constraint)
        }
    }

    /// Renders the tree with premises indented above their conclusion
    /// (natural-deduction style, root last):
    ///
    /// ```text
    ///     (Const) ⊢ 1 : int
    ///     (Op) ⊢ (+) : int * int -> int
    ///   (App) ⊢ 1 + 1 : int
    /// ```
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        for premise in &self.premises {
            premise.render_into(out, depth + 1);
        }
        out.push_str(&"  ".repeat(depth));
        out.push_str(self.rule);
        out.push(' ');
        out.push_str(&self.judgment());
        out.push('\n');
    }

    /// Renders the derivation as a LaTeX proof tree using the
    /// `\inferrule` macro of the `mathpartir` package — the format
    /// the paper's own Figures 8–10 are typeset in.
    ///
    /// ```text
    /// \inferrule*[Left=App]
    ///   {\inferrule*[Left=Op]{ }{\vdash \mathtt{fst} : …} \\ …}
    ///   {\vdash … : …}
    /// ```
    #[must_use]
    pub fn to_latex(&self) -> String {
        let mut out = String::new();
        self.latex_into(&mut out, 0);
        out
    }

    fn latex_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        let rule_name = self.rule.trim_matches(|c| c == '(' || c == ')');
        out.push_str(&format!("{pad}\\inferrule*[Left={rule_name}]\n"));
        if self.premises.is_empty() {
            out.push_str(&format!("{pad}  {{ }}\n"));
        } else {
            out.push_str(&format!("{pad}  {{\n"));
            for (i, premise) in self.premises.iter().enumerate() {
                premise.latex_into(out, depth + 2);
                if i + 1 < self.premises.len() {
                    out.push_str(&format!("{pad}    \\\\\n"));
                }
            }
            out.push_str(&format!("{pad}  }}\n"));
        }
        out.push_str(&format!(
            "{pad}  {{\\vdash {} : {}}}\n",
            latex_escape(&self.expr),
            latex_escape(&if self.constraint == Constraint::True {
                self.ty.to_string()
            } else {
                format!("[{} / {}]", self.ty, self.constraint)
            })
        ));
    }
}

/// Escapes mini-BSML/type text for LaTeX math mode.
fn latex_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 16);
    for c in s.chars() {
        match c {
            '_' => out.push_str("\\_"),
            '{' => out.push_str("\\{"),
            '}' => out.push_str("\\}"),
            '∀' => out.push_str("\\forall "),
            '⇒' => out.push_str("\\Rightarrow "),
            '∧' => out.push_str("\\wedge "),
            '→' => out.push_str("\\to "),
            '…' => out.push_str("\\dots "),
            '\'' => out.push('\''),
            _ => out.push(c),
        }
    }
    // OCaml-style arrows in types.
    out.replace("->", "\\to ")
}

impl fmt::Display for Derivation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Elides an expression rendering to at most `max` characters for
/// derivation display.
#[must_use]
pub fn elide(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        s.to_string()
    } else {
        let prefix: String = s.chars().take(max.saturating_sub(1)).collect();
        format!("{prefix}…")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsml_types::Type;

    fn leaf(expr: &str, ty: Type) -> Derivation {
        Derivation::leaf("(Const)", expr.to_string(), ty, Constraint::True)
    }

    #[test]
    fn judgment_elides_true_constraints() {
        let d = leaf("1", Type::Int);
        assert_eq!(d.judgment(), "⊢ 1 : int");
        let d = Derivation::leaf(
            "(Op)",
            "mkpar".to_string(),
            Type::var(0),
            Constraint::loc(Type::var(0)),
        );
        assert_eq!(d.judgment(), "⊢ mkpar : ['a / L('a)]");
    }

    #[test]
    fn render_places_premises_above() {
        let d = Derivation {
            rule: "(App)",
            expr: "1 + 1".to_string(),
            ty: Type::Int,
            constraint: Constraint::True,
            premises: vec![leaf("(+)", Type::Int), leaf("(1, 1)", Type::Int)],
        };
        let r = d.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("(+)"));
        assert!(lines[2].starts_with("(App)"));
        assert_eq!(d.size(), 3);
    }

    #[test]
    fn latex_rendering() {
        let d = Derivation {
            rule: "(App)",
            expr: "1 + 1".to_string(),
            ty: Type::Int,
            constraint: Constraint::True,
            premises: vec![leaf("(+)", Type::arrow(Type::Int, Type::Int))],
        };
        let tex = d.to_latex();
        assert!(tex.contains("\\inferrule*[Left=App]"), "{tex}");
        assert!(tex.contains("\\inferrule*[Left=Const]"), "{tex}");
        assert!(tex.contains("\\vdash 1 + 1 : int"), "{tex}");
        assert!(tex.contains("\\to"), "{tex}");
        // Empty premises render as { }.
        assert!(tex.contains("{ }"), "{tex}");
    }

    #[test]
    fn elide_truncates() {
        assert_eq!(elide("short", 10), "short");
        assert_eq!(elide("a rather long expression", 10), "a rather …");
    }
}
