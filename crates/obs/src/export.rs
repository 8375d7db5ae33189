//! Exporters: human-readable span tree, JSONL events, and Chrome
//! trace-event JSON.

use std::fmt::Write as _;

use crate::span::{FieldValue, SpanRecord};
use crate::Telemetry;

// ---------------------------------------------------------------
// Span tree
// ---------------------------------------------------------------

/// Renders spans as an indented tree per track, followed by a metrics
/// table.
pub fn render_tree(tel: &Telemetry) -> String {
    let mut out = String::new();
    let tracks = tel.tracks();
    let mut spans = tel.spans();
    spans.sort_by_key(|s| s.start_seq);

    for (track_id, track_name) in tracks.iter().enumerate() {
        let on_track: Vec<&SpanRecord> = spans
            .iter()
            .filter(|s| s.track as usize == track_id)
            .collect();
        if on_track.is_empty() {
            continue;
        }
        let _ = writeln!(out, "[{track_name}]");
        let mut stack: Vec<&SpanRecord> = Vec::new();
        for span in on_track {
            while let Some(top) = stack.last() {
                if top.encloses(span) {
                    break;
                }
                stack.pop();
            }
            let indent = "  ".repeat(stack.len() + 1);
            let _ = write!(out, "{indent}{} — {} µs", span.label(), span.duration_us());
            if !span.fields.is_empty() {
                let fields: Vec<String> = span
                    .fields
                    .iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect();
                let _ = write!(out, "  [{}]", fields.join(" "));
            }
            out.push('\n');
            stack.push(span);
        }
    }

    let metrics = tel.metrics();
    if !metrics.counters.is_empty() {
        let _ = writeln!(out, "[counters]");
        for (name, value) in &metrics.counters {
            let _ = writeln!(out, "  {name} = {value}");
        }
    }
    if !metrics.histograms.is_empty() {
        let _ = writeln!(out, "[histograms]");
        for (name, h) in &metrics.histograms {
            let _ = writeln!(
                out,
                "  {name}: n={} sum={} min={} max={} mean={:.1} p50≤{} p95≤{}",
                h.count,
                h.sum,
                h.min,
                h.max,
                h.mean(),
                h.p50_bound,
                h.p95_bound,
            );
        }
    }
    out
}

// ---------------------------------------------------------------
// JSON plumbing (zero-dependency)
// ---------------------------------------------------------------

/// Escapes `s` as JSON string *contents* (no surrounding quotes).
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

fn push_field_value(out: &mut String, v: &FieldValue) {
    match v {
        FieldValue::U64(n) => {
            let _ = write!(out, "{n}");
        }
        FieldValue::I64(n) => {
            let _ = write!(out, "{n}");
        }
        FieldValue::F64(x) if x.is_finite() => {
            let _ = write!(out, "{x}");
        }
        FieldValue::F64(_) => out.push_str("null"),
        FieldValue::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        FieldValue::Str(s) => push_json_str(out, s),
    }
}

fn push_fields_object(out: &mut String, fields: &[(&'static str, FieldValue)]) {
    out.push('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(out, k);
        out.push(':');
        push_field_value(out, v);
    }
    out.push('}');
}

// ---------------------------------------------------------------
// JSONL
// ---------------------------------------------------------------

/// One JSON object per line: spans (in start order), then counters,
/// then histogram summaries.
pub fn to_jsonl(tel: &Telemetry) -> String {
    let tracks = tel.tracks();
    let mut spans = tel.spans();
    spans.sort_by_key(|s| (s.start_us, s.start_seq));
    let mut out = String::new();
    for s in &spans {
        let track = tracks.get(s.track as usize).map_or("?", String::as_str);
        out.push_str("{\"type\":\"span\",\"name\":");
        push_json_str(&mut out, &s.label());
        let _ = write!(
            out,
            ",\"track\":\"{track}\",\"start_us\":{},\"end_us\":{},\"fields\":",
            s.start_us, s.end_us
        );
        push_fields_object(&mut out, &s.fields);
        out.push_str("}\n");
    }
    let metrics = tel.metrics();
    for (name, value) in &metrics.counters {
        out.push_str("{\"type\":\"counter\",\"name\":");
        push_json_str(&mut out, name);
        let _ = writeln!(out, ",\"value\":{value}}}");
    }
    for (name, h) in &metrics.histograms {
        out.push_str("{\"type\":\"histogram\",\"name\":");
        push_json_str(&mut out, name);
        let _ = writeln!(
            out,
            ",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50_bound\":{},\"p95_bound\":{}}}",
            h.count, h.sum, h.min, h.max, h.p50_bound, h.p95_bound
        );
    }
    out
}

// ---------------------------------------------------------------
// Chrome trace-event JSON
// ---------------------------------------------------------------

/// The Chrome trace-event "JSON object format": thread-name metadata
/// per track, one complete (`"X"`) event per span — timestamps
/// monotonic within the output — flow start/finish (`"s"`/`"f"`)
/// pairs per recorded flow (Perfetto draws them as arrows between the
/// tracks), and one final counter (`"C"`) event per counter. Loadable
/// in `chrome://tracing` and Perfetto.
pub fn to_chrome_trace(tel: &Telemetry) -> String {
    let tracks = tel.tracks();
    let mut spans = tel.spans();
    spans.sort_by_key(|s| (s.start_us, s.start_seq));

    let mut events: Vec<String> = Vec::new();

    for (tid, name) in tracks.iter().enumerate() {
        let mut e = String::from("{\"ph\":\"M\",\"pid\":0,\"name\":\"thread_name\",\"tid\":");
        let _ = write!(e, "{tid},\"args\":{{\"name\":");
        push_json_str(&mut e, name);
        e.push_str("}}");
        events.push(e);
    }

    for s in &spans {
        let mut e = String::from("{\"ph\":\"X\",\"pid\":0,\"tid\":");
        let _ = write!(
            e,
            "{},\"ts\":{},\"dur\":{},",
            s.track,
            s.start_us,
            s.duration_us()
        );
        e.push_str("\"cat\":\"bsml\",\"name\":");
        push_json_str(&mut e, &s.label());
        e.push_str(",\"args\":");
        push_fields_object(&mut e, &s.fields);
        e.push('}');
        events.push(e);
    }

    let mut flows = tel.flows();
    flows.sort_by_key(|f| (f.start_us, f.id));
    for f in &flows {
        let mut s = String::from("{\"ph\":\"s\",\"pid\":0,\"tid\":");
        let _ = write!(s, "{},\"ts\":{},\"id\":{},", f.from_track, f.start_us, f.id);
        s.push_str("\"cat\":\"bsml.flow\",\"name\":");
        push_json_str(&mut s, f.name);
        s.push('}');
        events.push(s);
        // "bp":"e" binds the finish to the enclosing slice, which is
        // what makes Perfetto draw the arrow into the receiving span.
        let mut e = String::from("{\"ph\":\"f\",\"bp\":\"e\",\"pid\":0,\"tid\":");
        let _ = write!(e, "{},\"ts\":{},\"id\":{},", f.to_track, f.end_us, f.id);
        e.push_str("\"cat\":\"bsml.flow\",\"name\":");
        push_json_str(&mut e, f.name);
        e.push('}');
        events.push(e);
    }

    let end_ts = spans.iter().map(|s| s.end_us).max().unwrap_or(0);
    let metrics = tel.metrics();
    for (name, value) in &metrics.counters {
        let mut e = String::from("{\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":");
        let _ = write!(e, "{end_ts},\"name\":");
        push_json_str(&mut e, name);
        let _ = write!(e, ",\"args\":{{\"value\":{value}}}}}");
        events.push(e);
    }

    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, e) in events.iter().enumerate() {
        out.push_str(e);
        if i + 1 < events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SINK_CAPACITY;

    fn sample() -> Telemetry {
        let tel = Telemetry::enabled_logical();
        {
            let mut outer = tel.span("load");
            outer.set("phrases", 2u64);
            let mut inner = tel.span("parse");
            inner.set("bytes", 11u64);
            inner.set("kind", "module");
        }
        let p0 = tel.track("p0");
        drop(p0.span_idx("superstep", 1));
        tel.counter_add("eval.puts", 1);
        tel.histogram_record("barrier_wait_us", 12);
        tel
    }

    #[test]
    fn tree_shows_nesting_tracks_and_metrics() {
        let tree = sample().render_tree();
        assert!(tree.contains("[main]"), "{tree}");
        assert!(tree.contains("[p0]"), "{tree}");
        // parse is nested one level under load.
        assert!(tree.contains("\n    parse"), "{tree}");
        assert!(tree.contains("superstep 1"), "{tree}");
        assert!(tree.contains("eval.puts = 1"), "{tree}");
        assert!(tree.contains("barrier_wait_us: n=1"), "{tree}");
        assert!(tree.contains("[bytes=11 kind=module]"), "{tree}");
    }

    #[test]
    fn jsonl_has_one_object_per_line() {
        let jsonl = sample().to_jsonl();
        for line in jsonl.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert_eq!(jsonl.lines().count(), 3 + 1 + 1);
        assert!(jsonl.contains("\"type\":\"span\""));
        assert!(jsonl.contains("\"type\":\"counter\""));
        assert!(jsonl.contains("\"type\":\"histogram\""));
    }

    #[test]
    fn chrome_trace_is_monotonic_and_names_tracks() {
        let trace = sample().to_chrome_trace();
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("\"thread_name\""));
        assert!(trace.contains("\"name\":\"p0\""));
        // ts values of "X" events are non-decreasing.
        let mut last = 0u64;
        for line in trace.lines().filter(|l| l.contains("\"ph\":\"X\"")) {
            let ts: u64 = line
                .split("\"ts\":")
                .nth(1)
                .and_then(|rest| rest.split(',').next())
                .and_then(|n| n.parse().ok())
                .expect("ts parses");
            assert!(ts >= last, "ts regressed in {line}");
            last = ts;
        }
        // Counter event present.
        assert!(trace.contains("\"ph\":\"C\""));
    }

    #[test]
    fn chrome_trace_emits_flow_pairs() {
        let tel = Telemetry::enabled_logical();
        let p0 = tel.track("p0");
        let p1 = tel.track("p1");
        tel.record_flow(7, "put", p0.current_track(), p1.current_track(), 3, 9);
        let trace = tel.to_chrome_trace();
        let start = trace
            .lines()
            .find(|l| l.contains("\"ph\":\"s\""))
            .expect("flow start event");
        assert!(start.contains("\"id\":7"), "{start}");
        assert!(start.contains("\"ts\":3"), "{start}");
        assert!(start.contains("\"tid\":1"), "{start}");
        let finish = trace
            .lines()
            .find(|l| l.contains("\"ph\":\"f\""))
            .expect("flow finish event");
        assert!(finish.contains("\"bp\":\"e\""), "{finish}");
        assert!(finish.contains("\"id\":7"), "{finish}");
        assert!(finish.contains("\"ts\":9"), "{finish}");
        assert!(finish.contains("\"tid\":2"), "{finish}");
    }

    #[test]
    fn json_strings_are_escaped() {
        let tel = Telemetry::enabled_logical();
        {
            let mut s = tel.span("odd");
            s.set("msg", "a\"b\\c\nd");
        }
        let jsonl = tel.to_jsonl();
        assert!(jsonl.contains(r#""msg":"a\"b\\c\nd""#), "{jsonl}");
    }

    /// Whether `s` is exactly one JSON value, by RFC 8259's grammar with
    /// two shortcuts: a number is whatever `f64` parses, and a string
    /// escape is skipped, not checked.
    fn is_json(s: &str) -> bool {
        fn ws(b: &[u8], i: usize) -> usize {
            i + b[i..].iter().take_while(|c| b" \t\n\r".contains(c)).count()
        }
        fn value(b: &[u8], i: usize) -> Option<usize> {
            let i = ws(b, i);
            match *b.get(i)? {
                b'{' => seq(b, i + 1, b'}', |b, i| {
                    let i = ws(b, string(b, ws(b, i))?);
                    (b.get(i) == Some(&b':')).then(|| value(b, i + 1))?
                }),
                b'[' => seq(b, i + 1, b']', value),
                b'"' => string(b, i),
                b't' => b[i..].starts_with(b"true").then_some(i + 4),
                b'f' => b[i..].starts_with(b"false").then_some(i + 5),
                b'n' => b[i..].starts_with(b"null").then_some(i + 4),
                _ => {
                    let len = b[i..]
                        .iter()
                        .take_while(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                        .count();
                    let number = std::str::from_utf8(&b[i..i + len]).ok()?;
                    number.parse::<f64>().is_ok().then_some(i + len)
                }
            }
        }
        fn seq(
            b: &[u8],
            i: usize,
            close: u8,
            item: fn(&[u8], usize) -> Option<usize>,
        ) -> Option<usize> {
            let mut i = ws(b, i);
            if b.get(i) == Some(&close) {
                return Some(i + 1);
            }
            loop {
                i = ws(b, item(b, i)?);
                match *b.get(i)? {
                    b',' => i += 1,
                    c if c == close => return Some(i + 1),
                    _ => return None,
                }
            }
        }
        fn string(b: &[u8], i: usize) -> Option<usize> {
            let mut i = (b.get(i) == Some(&b'"')).then_some(i + 1)?;
            loop {
                match *b.get(i)? {
                    b'"' => return Some(i + 1),
                    b'\\' => i += 2,
                    c if c < 0x20 => return None,
                    _ => i += 1,
                }
            }
        }
        let b = s.as_bytes();
        value(b, 0).is_some_and(|end| ws(b, end) == b.len())
    }

    #[test]
    fn the_json_check_refuses_what_is_not_json() {
        assert!(is_json(r#"{"a":[1,-2.5e3,true,null,"x\"y"],"b":{}}"#));
        for bad in [r#"{"a":1,}"#, "[1 2]", r#"{"a"}"#, "\"open", "01x", "{} {}"] {
            assert!(!is_json(bad), "{bad}");
        }
    }

    #[test]
    fn a_full_sink_keeps_the_newest_counts_the_evicted_and_exports_valid_json() {
        let tel = Telemetry::enabled_logical();
        let p1 = tel.track("p1").current_track();
        let extra = 3;
        let pushed = (SINK_CAPACITY + extra) as u64;
        for i in 0..pushed {
            tel.span_idx("step", i).set("i", i);
            tel.record_flow(i, "put", 0, p1, i, i + 1);
        }
        // The sink holds exactly its capacity, and the oldest went first.
        let spans = tel.spans();
        assert_eq!(spans.len(), SINK_CAPACITY);
        assert_eq!(spans[0].index, Some(extra as u64));
        assert_eq!(spans[SINK_CAPACITY - 1].index, Some(pushed - 1));
        let flows = tel.flows();
        assert_eq!(flows.len(), SINK_CAPACITY);
        assert_eq!(flows[0].id, extra as u64);
        assert_eq!(flows[SINK_CAPACITY - 1].id, pushed - 1);
        // The evictions are counted, and every exporter shows them.
        assert_eq!(tel.counter_value("telemetry.spans_evicted"), extra as u64);
        assert_eq!(tel.counter_value("telemetry.flows_evicted"), extra as u64);
        let tree = tel.render_tree();
        assert_eq!(
            tree.lines().filter(|l| l.contains("step ")).count(),
            SINK_CAPACITY
        );
        assert!(tree.contains("telemetry.flows_evicted = 3"));
        let jsonl = tel.to_jsonl();
        assert_eq!(jsonl.lines().count(), SINK_CAPACITY + 2);
        assert!(jsonl.lines().all(is_json));
        assert!(jsonl.contains(r#""name":"telemetry.spans_evicted","value":3"#));
        let trace = tel.to_chrome_trace();
        assert!(is_json(&trace));
        assert!(trace.contains("telemetry.flows_evicted"));
        assert_eq!(trace.matches(r#""ph":"s""#).count(), SINK_CAPACITY);
    }

    #[test]
    fn disabled_exports_are_empty_but_valid() {
        let tel = Telemetry::disabled();
        assert_eq!(tel.render_tree(), "");
        assert_eq!(tel.to_jsonl(), "");
        assert!(tel.to_chrome_trace().contains("\"traceEvents\":[\n]"));
    }
}
