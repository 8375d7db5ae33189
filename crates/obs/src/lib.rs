//! Workspace-wide telemetry: structured spans, a metrics registry,
//! and exporters.
//!
//! The BSP cost model `W + H·g + S·l` is only credible when work,
//! communication, and barriers can be *observed*. This crate is the
//! observation layer every other crate reports into:
//!
//! * **Spans** — nested, timed, RAII-guarded regions carrying
//!   structured key–value [`FieldValue`] fields
//!   ([`Telemetry::span`]), kept in a bounded [`Ring`] of
//!   [`SINK_CAPACITY`].
//! * **Metrics** — named monotonic counters and log₂-bucketed
//!   histograms ([`MetricsRegistry`]).
//! * **Exporters** — a human-readable span tree
//!   ([`Telemetry::render_tree`]), JSONL events
//!   ([`Telemetry::to_jsonl`]), and Chrome trace-event JSON loadable
//!   in `chrome://tracing` / [Perfetto](https://ui.perfetto.dev)
//!   ([`Telemetry::to_chrome_trace`]), with SPMD workers mapped to
//!   per-processor tracks.
//!
//! The **disabled** handle ([`Telemetry::disabled`]) is the default
//! everywhere and is allocation-free: every recording call bails on a
//! `None` before formatting, allocating, or locking, so instrumented
//! hot paths cost one branch when telemetry is off.
//!
//! ```
//! use bsml_obs::Telemetry;
//!
//! let tel = Telemetry::enabled_logical(); // deterministic clock
//! {
//!     let mut load = tel.span("load");
//!     load.set("phrases", 1u64);
//!     let _parse = tel.span("parse");
//! }
//! tel.counter_add("infer.unifications", 3);
//! assert!(tel.render_tree().contains("load"));
//! assert!(tel.to_chrome_trace().contains("\"traceEvents\""));
//! ```
//!
//! Two clocks are available: [`Telemetry::enabled`] uses the wall
//! clock (microseconds since the handle was created), while
//! [`Telemetry::enabled_logical`] uses a deterministic tick-per-query
//! clock — golden tests and reproducible traces use the latter.

pub mod env;
mod export;
mod flight;
mod metrics;
mod ring;
mod span;

pub use flight::{FlightEvent, FlightRecorder, TimedFlightEvent};
pub use metrics::{HistogramSummary, MetricsRegistry, MetricsSnapshot};
pub use ring::Ring;
pub use span::{FieldValue, SpanGuard, SpanRecord};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Spans, and flows, an enabled sink keeps: the newest `SINK_CAPACITY`
/// of each. Older ones are evicted first and counted as the counters
/// `telemetry.spans_evicted` and `telemetry.flows_evicted`, so a
/// long-running process keeps its recent past at a bounded cost.
pub const SINK_CAPACITY: usize = 1 << 16;

/// Identifies one horizontal track (≈ one thread / one BSP processor)
/// in the trace. Track 0 is the main track.
pub type TrackId = u32;

enum Clock {
    /// Microseconds since the epoch `Instant`.
    Wall(Instant),
    /// A deterministic counter: each query advances time by 1 µs.
    Logical(AtomicU64),
}

impl Clock {
    fn now_us(&self) -> u64 {
        match self {
            Clock::Wall(epoch) => u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX),
            Clock::Logical(tick) => tick.fetch_add(1, Ordering::Relaxed),
        }
    }
}

pub(crate) struct Inner {
    clock: Clock,
    seq: AtomicU64,
    pub(crate) state: Mutex<State>,
}

impl Inner {
    /// Locks the sink state, recovering from poisoning: the protected
    /// data (plain rings and counters) is valid at every instant, and
    /// telemetry — especially the exporters — must never panic inside
    /// an already-failing run, which would mask the original failure.
    pub(crate) fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

pub(crate) struct State {
    /// Track names; index is the [`TrackId`].
    pub(crate) tracks: Vec<String>,
    spans: Ring<SpanRecord>,
    pub(crate) metrics: MetricsRegistry,
    /// Cross-track causal arrows (message flows), in recording order.
    flows: Ring<FlowRecord>,
}

impl State {
    pub(crate) fn push_span(&mut self, span: SpanRecord) {
        if self.spans.push(span).is_some() {
            self.metrics.counter_add("telemetry.spans_evicted", 1);
        }
    }

    fn push_flow(&mut self, flow: FlowRecord) {
        if self.flows.push(flow).is_some() {
            self.metrics.counter_add("telemetry.flows_evicted", 1);
        }
    }
}

/// One causal arrow between two tracks — a message observed at both
/// ends. Rendered as a Chrome trace-event flow (`"s"` on the sending
/// track, `"f"` on the receiving one), which Perfetto draws as an
/// arrow between the rank tracks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlowRecord {
    /// Flow identifier — ties the start and finish events together.
    /// Unique per flow within one sink.
    pub id: u64,
    /// Static flow name (e.g. `"put"`, `"ifat"`).
    pub name: &'static str,
    /// The sending track.
    pub from_track: TrackId,
    /// The receiving track.
    pub to_track: TrackId,
    /// When the message was sent, µs in the sink's time base.
    pub start_us: u64,
    /// When it was received (clamped to ≥ `start_us`).
    pub end_us: u64,
}

/// A cheap, clonable, thread-safe handle to a telemetry sink — or to
/// nothing at all ([`Telemetry::disabled`]).
///
/// Each handle carries the track it records spans onto; [`Telemetry::track`]
/// derives a handle for another track (one per SPMD worker).
#[derive(Clone)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
    track: TrackId,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .field("track", &self.track)
            .finish()
    }
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::disabled()
    }
}

impl Telemetry {
    /// The no-op handle: every recording method returns immediately,
    /// without locking or allocating.
    #[must_use]
    pub fn disabled() -> Telemetry {
        Telemetry {
            inner: None,
            track: 0,
        }
    }

    /// A live sink on the wall clock.
    #[must_use]
    pub fn enabled() -> Telemetry {
        Telemetry::with_clock(Clock::Wall(Instant::now()))
    }

    /// A live sink on a deterministic logical clock (1 µs per query):
    /// identical runs produce byte-identical exports.
    #[must_use]
    pub fn enabled_logical() -> Telemetry {
        Telemetry::with_clock(Clock::Logical(AtomicU64::new(0)))
    }

    fn with_clock(clock: Clock) -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Inner {
                clock,
                seq: AtomicU64::new(0),
                state: Mutex::new(State {
                    tracks: vec!["main".to_string()],
                    spans: Ring::new(SINK_CAPACITY),
                    metrics: MetricsRegistry::new(),
                    flows: Ring::new(SINK_CAPACITY),
                }),
            })),
            track: 0,
        }
    }

    /// Whether this handle records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The track this handle records spans onto.
    #[must_use]
    pub fn current_track(&self) -> TrackId {
        self.track
    }

    /// A handle recording onto the named track, registering the track
    /// if it is new. Disabled handles return themselves unchanged.
    #[must_use]
    pub fn track(&self, name: &str) -> Telemetry {
        let Some(inner) = &self.inner else {
            return self.clone();
        };
        let mut state = inner.state();
        let id = match state.tracks.iter().position(|t| t == name) {
            Some(i) => i,
            None => {
                state.tracks.push(name.to_string());
                state.tracks.len() - 1
            }
        };
        Telemetry {
            inner: self.inner.clone(),
            track: TrackId::try_from(id).unwrap_or(TrackId::MAX),
        }
    }

    fn next_seq(inner: &Inner) -> u64 {
        inner.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Opens a named span on this handle's track; the span closes
    /// (and is recorded) when the guard drops.
    #[must_use]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        self.span_at(name, None)
    }

    /// Like [`Telemetry::span`], with a numeric index rendered after
    /// the name (`superstep 3`) — avoids formatting on the hot path.
    #[must_use]
    pub fn span_idx(&self, name: &'static str, index: u64) -> SpanGuard {
        self.span_at(name, Some(index))
    }

    fn span_at(&self, name: &'static str, index: Option<u64>) -> SpanGuard {
        match &self.inner {
            None => SpanGuard::inactive(),
            Some(inner) => SpanGuard::open(
                Arc::clone(inner),
                self.track,
                name,
                index,
                inner.clock.now_us(),
                Telemetry::next_seq(inner),
            ),
        }
    }

    /// Records an already-timed span (used to replay logical
    /// schedules, e.g. per-superstep BSP cost records, into the
    /// trace). `start_us`/`end_us` are in this sink's time base.
    pub fn record_span(
        &self,
        track: TrackId,
        name: &'static str,
        index: Option<u64>,
        start_us: u64,
        end_us: u64,
        fields: Vec<(&'static str, FieldValue)>,
    ) {
        let Some(inner) = &self.inner else { return };
        let start_seq = Telemetry::next_seq(inner);
        let end_seq = Telemetry::next_seq(inner);
        inner.state().push_span(SpanRecord {
            track,
            name,
            index,
            start_us,
            end_us: end_us.max(start_us),
            start_seq,
            end_seq,
            fields,
        });
    }

    /// The current time in this sink's base, for building
    /// [`Telemetry::record_span`] timestamps. Disabled handles
    /// return 0.
    #[must_use]
    pub fn now_us(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.clock.now_us())
    }

    /// Records a causal arrow between two tracks (a message observed
    /// at both ends). `id` must be unique per flow within this sink;
    /// `end_us` is clamped to ≥ `start_us`.
    pub fn record_flow(
        &self,
        id: u64,
        name: &'static str,
        from_track: TrackId,
        to_track: TrackId,
        start_us: u64,
        end_us: u64,
    ) {
        let Some(inner) = &self.inner else { return };
        inner.state().push_flow(FlowRecord {
            id,
            name,
            from_track,
            to_track,
            start_us,
            end_us: end_us.max(start_us),
        });
    }

    /// Adds `n` to the named counter.
    pub fn counter_add(&self, name: &str, n: u64) {
        let Some(inner) = &self.inner else { return };
        inner.state().metrics.counter_add(name, n);
    }

    /// Records `value` into the named histogram.
    pub fn histogram_record(&self, name: &str, value: u64) {
        let Some(inner) = &self.inner else { return };
        inner.state().metrics.histogram_record(name, value);
    }

    /// The value of a counter (0 if never written).
    #[must_use]
    pub fn counter_value(&self, name: &str) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.state().metrics.counter_value(name))
    }

    /// A snapshot of all metrics.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner
            .as_ref()
            .map_or_else(MetricsSnapshot::default, |inner| {
                inner.state().metrics.snapshot()
            })
    }

    /// The recorded spans the sink keeps (the newest
    /// [`SINK_CAPACITY`]), in recording order.
    #[must_use]
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.inner.as_ref().map_or_else(Vec::new, |inner| {
            inner.state().spans.iter().cloned().collect()
        })
    }

    /// The recorded flows the sink keeps (the newest
    /// [`SINK_CAPACITY`]), in recording order.
    #[must_use]
    pub fn flows(&self) -> Vec<FlowRecord> {
        self.inner.as_ref().map_or_else(Vec::new, |inner| {
            inner.state().flows.iter().cloned().collect()
        })
    }

    /// Registered track names, indexed by [`TrackId`].
    #[must_use]
    pub fn tracks(&self) -> Vec<String> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |inner| inner.state().tracks.clone())
    }

    /// The human-readable span tree + metrics table.
    #[must_use]
    pub fn render_tree(&self) -> String {
        export::render_tree(self)
    }

    /// One JSON object per line: spans, then counters, then
    /// histograms.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        export::to_jsonl(self)
    }

    /// Chrome trace-event JSON (the `{"traceEvents": [...]}` object
    /// format), loadable in `chrome://tracing` and Perfetto. Spans
    /// become complete (`"X"`) events; tracks become named threads;
    /// counters become one final `"C"` event per counter.
    #[must_use]
    pub fn to_chrome_trace(&self) -> String {
        export::to_chrome_trace(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let tel = Telemetry::disabled();
        {
            let mut g = tel.span("x");
            g.set("k", 1u64);
        }
        tel.counter_add("c", 5);
        tel.histogram_record("h", 9);
        assert!(!tel.is_enabled());
        assert!(tel.spans().is_empty());
        assert_eq!(tel.counter_value("c"), 0);
        assert!(tel.metrics().counters.is_empty());
    }

    #[test]
    fn spans_nest_by_guard_order() {
        let tel = Telemetry::enabled_logical();
        {
            let _outer = tel.span("outer");
            let _inner = tel.span("inner");
        }
        let spans = tel.spans();
        assert_eq!(spans.len(), 2);
        // Inner drops first, so it is recorded first.
        let inner = &spans[0];
        let outer = &spans[1];
        assert_eq!(inner.name, "inner");
        assert!(outer.start_seq < inner.start_seq);
        assert!(outer.end_seq > inner.end_seq);
        assert!(outer.start_us <= inner.start_us);
        assert!(outer.end_us >= inner.end_us);
    }

    #[test]
    fn tracks_are_registered_once() {
        let tel = Telemetry::enabled_logical();
        let p0 = tel.track("p0");
        let p0_again = tel.track("p0");
        let p1 = tel.track("p1");
        assert_eq!(p0.current_track(), p0_again.current_track());
        assert_ne!(p0.current_track(), p1.current_track());
        assert_eq!(tel.tracks(), vec!["main", "p0", "p1"]);
        drop(p1.span("work"));
        assert_eq!(tel.spans()[0].track, 2);
    }

    #[test]
    fn counters_and_histograms_accumulate() {
        let tel = Telemetry::enabled_logical();
        tel.counter_add("ops", 2);
        tel.counter_add("ops", 3);
        tel.histogram_record("lat", 10);
        tel.histogram_record("lat", 1000);
        assert_eq!(tel.counter_value("ops"), 5);
        let m = tel.metrics();
        let h = &m.histograms["lat"];
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 1010);
        assert_eq!(h.min, 10);
        assert_eq!(h.max, 1000);
    }

    #[test]
    fn logical_clock_is_monotonic_and_deterministic() {
        let a = Telemetry::enabled_logical();
        let b = Telemetry::enabled_logical();
        for tel in [&a, &b] {
            let _x = tel.span("x");
            let _y = tel.span("y");
        }
        let (sa, sb) = (a.spans(), b.spans());
        assert_eq!(sa.len(), sb.len());
        for (x, y) in sa.iter().zip(&sb) {
            assert_eq!((x.start_us, x.end_us), (y.start_us, y.end_us));
            assert!(x.start_us <= x.end_us);
        }
    }

    #[test]
    fn record_span_clamps_and_stores_fields() {
        let tel = Telemetry::enabled_logical();
        tel.record_span(
            0,
            "superstep",
            Some(1),
            10,
            5, // end before start: clamped
            vec![("w", FieldValue::U64(42))],
        );
        let s = &tel.spans()[0];
        assert_eq!(s.end_us, 10);
        assert_eq!(s.index, Some(1));
        assert_eq!(s.fields, vec![("w", FieldValue::U64(42))]);
    }

    #[test]
    fn shared_across_threads() {
        let tel = Telemetry::enabled();
        std::thread::scope(|scope| {
            for i in 0..4 {
                let t = tel.track(&format!("p{i}"));
                scope.spawn(move || {
                    let _s = t.span("work");
                    t.counter_add("thread_ops", 1);
                });
            }
        });
        assert_eq!(tel.spans().len(), 4);
        assert_eq!(tel.counter_value("thread_ops"), 4);
    }
}
