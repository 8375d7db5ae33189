//! The consolidated registry of every `BSML_*` environment knob.
//!
//! The *parsing mechanism* — defaulting, whitespace tolerance, and the
//! counted `config.bad_env_values` warning for malformed values —
//! lives in [`bsml_obs::env`], the one crate below every knob consumer
//! in the dependency graph. This module is the *registry*: one row per
//! knob, machine-readable, so documentation (`README.md`'s knob
//! table) and tests agree on what exists.
//!
//! Knobs owned by other crates keep their constants there (e.g.
//! [`bsml_bsp::BARRIER_TIMEOUT_ENV`]); this registry re-lists them so
//! there is exactly one place that *enumerates* the knob surface.

/// What kind of value a knob carries — documentation metadata for
/// [`Knob`] rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KnobKind {
    /// A duration in milliseconds.
    DurationMs,
    /// A plain non-negative integer.
    Integer,
    /// A filesystem path, taken verbatim.
    Path,
    /// An opaque string (internal wiring, not for tuning).
    String,
}

/// One row of the knob registry.
#[derive(Clone, Copy, Debug)]
pub struct Knob {
    /// The environment variable name.
    pub name: &'static str,
    /// What the value is.
    pub kind: KnobKind,
    /// The default, rendered for documentation (`"—"` when the knob
    /// is off/unset by default).
    pub default: &'static str,
    /// One-line description.
    pub doc: &'static str,
    /// `true` for internal launcher↔rank wiring that users should
    /// never set by hand.
    pub internal: bool,
}

/// Every `BSML_*` knob the workspace reads, sorted by name. Tests
/// assert this list matches the constants the owning crates export;
/// `README.md`'s "Environment knobs" table is generated from the same
/// rows.
#[must_use]
pub fn registry() -> Vec<Knob> {
    vec![
        Knob {
            name: bsml_bsp::BARRIER_TIMEOUT_ENV,
            kind: KnobKind::DurationMs,
            default: "30000",
            doc: "Distributed-machine barrier watchdog timeout",
            internal: false,
        },
        Knob {
            name: bsml_bsp::FLIGHT_CAPACITY_ENV,
            kind: KnobKind::Integer,
            default: "—",
            doc: "Enable the per-rank flight recorder with this ring capacity",
            internal: false,
        },
        Knob {
            name: bsml_bsp::POSTMORTEM_DIR_ENV,
            kind: KnobKind::Path,
            default: "—",
            doc: "Directory where crash postmortem bundles are written",
            internal: false,
        },
        Knob {
            name: bsml_bsp::RANK_BIN_ENV,
            kind: KnobKind::Path,
            default: "—",
            doc: "Override path of the bsml-rank runner binary",
            internal: false,
        },
        Knob {
            name: bsml_bsp::RANK_FINGERPRINT_ENV,
            kind: KnobKind::String,
            default: "—",
            doc: "Launcher→rank program fingerprint (internal wiring)",
            internal: true,
        },
        Knob {
            name: bsml_bsp::RANK_ID_ENV,
            kind: KnobKind::Integer,
            default: "—",
            doc: "Launcher→rank processor id (internal wiring)",
            internal: true,
        },
        Knob {
            name: bsml_bsp::RANK_P_ENV,
            kind: KnobKind::Integer,
            default: "—",
            doc: "Launcher→rank machine width (internal wiring)",
            internal: true,
        },
        Knob {
            name: bsml_bsp::RANK_SOCKET_ENV,
            kind: KnobKind::Path,
            default: "—",
            doc: "Launcher→rank Unix socket path (internal wiring)",
            internal: true,
        },
    ]
}

/// Renders the registry as a GitHub-flavored markdown table — the
/// exact text of `README.md`'s "Environment knobs" section, so a test
/// can diff them.
#[must_use]
pub fn registry_markdown() -> String {
    let mut out = String::from("| Knob | Kind | Default | Meaning |\n|---|---|---|---|\n");
    for k in registry() {
        let kind = match k.kind {
            KnobKind::DurationMs => "ms",
            KnobKind::Integer => "int",
            KnobKind::Path => "path",
            KnobKind::String => "string",
        };
        let doc = if k.internal {
            format!("{} *(internal)*", k.doc)
        } else {
            k.doc.to_string()
        };
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            k.name, kind, k.default, doc
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_unique() {
        let names: Vec<&str> = registry().iter().map(|k| k.name).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(names, sorted, "registry must stay sorted by name");
    }

    #[test]
    fn registry_names_all_start_with_bsml() {
        for k in registry() {
            assert!(
                k.name.starts_with("BSML_"),
                "{} is not a BSML_ knob",
                k.name
            );
        }
    }

    #[test]
    fn markdown_table_has_a_row_per_knob() {
        let md = registry_markdown();
        for k in registry() {
            assert!(md.contains(k.name), "missing row for {}", k.name);
        }
        assert_eq!(md.lines().count(), registry().len() + 2);
    }
}
