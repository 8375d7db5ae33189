//! The consolidated registry of every `BSML_*` environment knob.
//!
//! The *parsing mechanism* — defaulting, whitespace tolerance, and the
//! counted `config.bad_env_values` warning for malformed values —
//! lives in [`bsml_obs::env`], the one crate below every knob consumer
//! in the dependency graph. This module is the *registry*: one row per
//! knob, machine-readable, so documentation (`README.md`'s knob
//! table), the server, and tests all agree on what exists.
//!
//! Knobs owned by other crates keep their constants there (e.g.
//! [`bsml_bsp::BARRIER_TIMEOUT_ENV`]); this registry re-lists them so
//! there is exactly one place that *enumerates* the knob surface.

use std::path::PathBuf;
use std::time::Duration;

use bsml_obs::env as obs_env;
use bsml_obs::Telemetry;

/// Per-phrase wall-clock deadline for `bsml-serve` requests,
/// milliseconds. `0` disables the deadline.
pub const DEADLINE_MS_ENV: &str = "BSML_DEADLINE_MS";

/// Default per-phrase deadline when [`DEADLINE_MS_ENV`] is unset.
pub const DEFAULT_DEADLINE: Duration = Duration::from_secs(2);

/// Directory for `bsml-serve`'s per-tenant write-ahead logs. Unset
/// means sessions are in-memory only and do not survive a restart.
pub const DURABLE_DIR_ENV: &str = "BSML_DURABLE_DIR";

/// Commits between WAL compaction snapshots in `bsml-serve`
/// (recovery replays at most this many phrases per tenant).
pub const SNAPSHOT_EVERY_ENV: &str = "BSML_SNAPSHOT_EVERY";

/// Default WAL compaction interval when [`SNAPSHOT_EVERY_ENV`] is
/// unset.
pub const DEFAULT_SNAPSHOT_EVERY: u64 = 8;

/// Bound on the `bsml-serve` admission queue (requests queued across
/// all tenants before new offers are shed with `QueueFull`).
pub const QUEUE_DEPTH_ENV: &str = "BSML_QUEUE_DEPTH";

/// Default admission-queue bound when [`QUEUE_DEPTH_ENV`] is unset.
pub const DEFAULT_QUEUE_DEPTH: usize = 256;

/// The per-phrase deadline from the environment: [`DEADLINE_MS_ENV`]
/// when set and parsable, else [`DEFAULT_DEADLINE`]. `Some(0ms)`
/// becomes `None` — deadline disabled.
#[must_use]
pub fn deadline_from_env(telemetry: &Telemetry) -> Option<Duration> {
    let d = obs_env::duration_ms_knob(DEADLINE_MS_ENV, DEFAULT_DEADLINE, telemetry);
    (!d.is_zero()).then_some(d)
}

/// The admission-queue bound from the environment: [`QUEUE_DEPTH_ENV`]
/// when set and parsable, else [`DEFAULT_QUEUE_DEPTH`]. Clamped to at
/// least 1 (a zero-depth queue would reject every offer).
#[must_use]
pub fn queue_depth_from_env(telemetry: &Telemetry) -> usize {
    obs_env::parse_knob(QUEUE_DEPTH_ENV, DEFAULT_QUEUE_DEPTH, telemetry).max(1)
}

/// The durable-session directory from the environment:
/// [`DURABLE_DIR_ENV`] when set, else `None` (durability off).
#[must_use]
pub fn durable_dir_from_env() -> Option<PathBuf> {
    obs_env::path_knob(DURABLE_DIR_ENV)
}

/// The WAL compaction interval from the environment:
/// [`SNAPSHOT_EVERY_ENV`] when set and parsable, else
/// [`DEFAULT_SNAPSHOT_EVERY`]. Clamped to at least 1.
#[must_use]
pub fn snapshot_every_from_env(telemetry: &Telemetry) -> u64 {
    obs_env::parse_knob(SNAPSHOT_EVERY_ENV, DEFAULT_SNAPSHOT_EVERY, telemetry).max(1)
}

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
            name: DEADLINE_MS_ENV,
            kind: KnobKind::DurationMs,
            default: "2000",
            doc: "Per-phrase wall-clock deadline in bsml-serve (0 disables)",
            internal: false,
        },
        Knob {
            name: DURABLE_DIR_ENV,
            kind: KnobKind::Path,
            default: "—",
            doc: "Directory for bsml-serve's durable tenant WALs (unset = in-memory only)",
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
            name: QUEUE_DEPTH_ENV,
            kind: KnobKind::Integer,
            default: "256",
            doc: "bsml-serve admission-queue bound across all tenants",
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
        Knob {
            name: SNAPSHOT_EVERY_ENV,
            kind: KnobKind::Integer,
            default: "8",
            doc: "Commits between WAL compaction snapshots in bsml-serve",
            internal: false,
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

    // Serialized with the other env-mutating tests in this file by
    // running knob reads against distinct variable states in one test.
    #[test]
    fn server_knob_parsers_default_clamp_and_disable() {
        let tel = Telemetry::disabled();

        std::env::remove_var(DEADLINE_MS_ENV);
        assert_eq!(deadline_from_env(&tel), Some(DEFAULT_DEADLINE));
        std::env::set_var(DEADLINE_MS_ENV, "150");
        assert_eq!(deadline_from_env(&tel), Some(Duration::from_millis(150)));
        std::env::set_var(DEADLINE_MS_ENV, "0");
        assert_eq!(deadline_from_env(&tel), None);
        std::env::remove_var(DEADLINE_MS_ENV);

        std::env::remove_var(QUEUE_DEPTH_ENV);
        assert_eq!(queue_depth_from_env(&tel), DEFAULT_QUEUE_DEPTH);
        std::env::set_var(QUEUE_DEPTH_ENV, "0");
        assert_eq!(queue_depth_from_env(&tel), 1);
        std::env::set_var(QUEUE_DEPTH_ENV, "64");
        assert_eq!(queue_depth_from_env(&tel), 64);
        std::env::remove_var(QUEUE_DEPTH_ENV);

        std::env::remove_var(DURABLE_DIR_ENV);
        assert_eq!(durable_dir_from_env(), None);
        std::env::set_var(DURABLE_DIR_ENV, "/tmp/bsml-wal");
        assert_eq!(durable_dir_from_env(), Some(PathBuf::from("/tmp/bsml-wal")));
        std::env::remove_var(DURABLE_DIR_ENV);

        std::env::remove_var(SNAPSHOT_EVERY_ENV);
        assert_eq!(snapshot_every_from_env(&tel), DEFAULT_SNAPSHOT_EVERY);
        std::env::set_var(SNAPSHOT_EVERY_ENV, "0");
        assert_eq!(snapshot_every_from_env(&tel), 1);
        std::env::set_var(SNAPSHOT_EVERY_ENV, "32");
        assert_eq!(snapshot_every_from_env(&tel), 32);
        std::env::remove_var(SNAPSHOT_EVERY_ENV);
    }
}
