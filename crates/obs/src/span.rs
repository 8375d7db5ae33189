//! Spans: RAII-guarded timed regions with structured fields.

use std::sync::Arc;

use crate::{Inner, Telemetry, TrackId};

/// A structured field value attached to a span.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer (counts, words, work units).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Text. Prefer the numeric variants on hot paths.
    Str(String),
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
        }
    }
}

macro_rules! impl_field_from {
    ($($t:ty => $variant:ident via $conv:expr),* $(,)?) => {$(
        impl From<$t> for FieldValue {
            fn from(v: $t) -> FieldValue {
                #[allow(clippy::redundant_closure_call)]
                FieldValue::$variant(($conv)(v))
            }
        }
    )*};
}

impl_field_from! {
    u64 => U64 via (|v| v),
    u32 => U64 via u64::from,
    usize => U64 via (|v| v as u64),
    i64 => I64 via (|v| v),
    i32 => I64 via i64::from,
    f64 => F64 via (|v| v),
    bool => Bool via (|v| v),
    String => Str via (|v| v),
    &str => Str via str::to_string,
}

/// One closed span, as stored in the sink.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// The track (≈ thread / BSP processor) the span ran on.
    pub track: TrackId,
    /// Static span name.
    pub name: &'static str,
    /// Optional numeric suffix (`superstep 3`).
    pub index: Option<u64>,
    /// Start time, µs in the sink's time base.
    pub start_us: u64,
    /// End time, µs (≥ `start_us`).
    pub end_us: u64,
    /// Global open order — with `end_seq`, gives exact nesting.
    pub start_seq: u64,
    /// Global close order.
    pub end_seq: u64,
    /// Structured fields, in insertion order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl SpanRecord {
    /// The span's display label.
    #[must_use]
    pub fn label(&self) -> String {
        match self.index {
            Some(i) => format!("{} {i}", self.name),
            None => self.name.to_string(),
        }
    }

    /// The span's duration in µs.
    #[must_use]
    pub fn duration_us(&self) -> u64 {
        self.end_us - self.start_us
    }

    /// `true` iff `self` strictly encloses `other` (by guard order).
    #[must_use]
    pub fn encloses(&self, other: &SpanRecord) -> bool {
        self.track == other.track
            && self.start_seq < other.start_seq
            && self.end_seq > other.end_seq
    }

    /// Looks up a field by key.
    #[must_use]
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// An open span; closes and records itself on drop. Obtained from
/// [`Telemetry::span`]. Guards from a disabled handle are inert.
pub struct SpanGuard {
    active: Option<OpenSpan>,
}

struct OpenSpan {
    inner: Arc<Inner>,
    track: TrackId,
    name: &'static str,
    index: Option<u64>,
    start_us: u64,
    start_seq: u64,
    fields: Vec<(&'static str, FieldValue)>,
}

impl SpanGuard {
    pub(crate) fn inactive() -> SpanGuard {
        SpanGuard { active: None }
    }

    pub(crate) fn open(
        inner: Arc<Inner>,
        track: TrackId,
        name: &'static str,
        index: Option<u64>,
        start_us: u64,
        start_seq: u64,
    ) -> SpanGuard {
        SpanGuard {
            active: Some(OpenSpan {
                inner,
                track,
                name,
                index,
                start_us,
                start_seq,
                fields: Vec::new(),
            }),
        }
    }

    /// Attaches a field. No-op (the value is never even converted) on
    /// an inert guard.
    pub fn set(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if let Some(open) = &mut self.active {
            open.fields.push((key, value.into()));
        }
    }

    /// Whether this guard records anything.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.active.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.active.take() else {
            return;
        };
        let end_us = open.inner.clock.now_us().max(open.start_us);
        let end_seq = Telemetry::next_seq(&open.inner);
        // Ignore-poison lock: this Drop may run during a panic unwind
        // (a failing rank dropping its span guards); a second panic
        // here would abort the whole process and mask the original
        // failure.
        open.inner.state().push_span(SpanRecord {
            track: open.track,
            name: open.name,
            index: open.index,
            start_us: open.start_us,
            end_us,
            start_seq: open.start_seq,
            end_seq,
            fields: open.fields,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_values_convert_and_display() {
        assert_eq!(FieldValue::from(3u64).to_string(), "3");
        assert_eq!(FieldValue::from(-2i64).to_string(), "-2");
        assert_eq!(FieldValue::from(7u32), FieldValue::U64(7));
        assert_eq!(FieldValue::from(9usize), FieldValue::U64(9));
        assert_eq!(FieldValue::from(true).to_string(), "true");
        assert_eq!(FieldValue::from("put").to_string(), "put");
        assert_eq!(FieldValue::from(1.5f64).to_string(), "1.5");
    }

    #[test]
    fn labels_and_lookup() {
        let r = SpanRecord {
            track: 0,
            name: "superstep",
            index: Some(4),
            start_us: 0,
            end_us: 10,
            start_seq: 0,
            end_seq: 1,
            fields: vec![("w", FieldValue::U64(42))],
        };
        assert_eq!(r.label(), "superstep 4");
        assert_eq!(r.duration_us(), 10);
        assert_eq!(r.field("w"), Some(&FieldValue::U64(42)));
        assert_eq!(r.field("h"), None);
    }

    #[test]
    fn inert_guard_is_harmless() {
        let mut g = SpanGuard::inactive();
        assert!(!g.is_active());
        g.set("k", "v");
        drop(g);
    }
}
