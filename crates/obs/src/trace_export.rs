//! Flight-recorder exporters: render a [`TraceSession`] as Chrome
//! `trace_event` JSON (loads in `chrome://tracing` or
//! <https://ui.perfetto.dev>) or as folded flamegraph stacks (the
//! `stackcollapse` format consumed by `flamegraph.pl` and speedscope).
//!
//! Both exporters are pure functions over a drained session; an empty
//! session renders as an empty document.

use crate::json::{push_f64, push_str_literal, push_u64};
use crate::trace::{ThreadTimeline, TraceEvent, TraceEventKind, TraceSession};
use std::collections::BTreeMap;

/// Chrome `trace_event` process id used for every event (the recorder
/// traces one process).
const PID: u32 = 1;

fn push_ts_us(out: &mut String, t_ns: u64) {
    // Chrome timestamps are microseconds; fractional digits keep the
    // full ns resolution.
    push_f64(out, t_ns as f64 / 1_000.0);
}

fn push_event_header(out: &mut String, name: &str, ph: char, t_ns: u64, tid: u32) {
    out.push_str("{\"name\":");
    push_str_literal(out, name);
    out.push_str(",\"cat\":\"qisim\",\"ph\":\"");
    out.push(ph);
    out.push_str("\",\"ts\":");
    push_ts_us(out, t_ns);
    out.push_str(",\"pid\":");
    push_u64(out, u64::from(PID));
    out.push_str(",\"tid\":");
    push_u64(out, u64::from(tid));
}

fn push_args(out: &mut String, ev: &TraceEvent, with_ids: bool) {
    let has_args = ev.args.iter().any(Option::is_some);
    if !has_args && !with_ids {
        return;
    }
    out.push_str(",\"args\":{");
    let mut first = true;
    let mut field = |out: &mut String, key: &str, value: f64| {
        if !first {
            out.push(',');
        }
        first = false;
        push_str_literal(out, key);
        out.push(':');
        push_f64(out, value);
    };
    if with_ids {
        field(out, "id", ev.span_id as f64);
        if ev.parent_id != 0 {
            field(out, "parent", ev.parent_id as f64);
        }
    }
    for (key, value) in ev.args.iter().flatten() {
        field(out, key, *value);
    }
    out.push('}');
}

/// Renders a session as a Chrome `trace_event` JSON object:
///
/// - one `thread_name` metadata event per lane (labels carry the
///   `qisim-par` worker indices);
/// - strictly balanced `B`/`E` span pairs per lane (span ids in `args`;
///   begins orphaned by ring truncation are closed at the lane's last
///   timestamp, ends whose begin was overwritten are skipped);
/// - `i` instant events (thread scope) with their numeric args;
/// - `C` counter events carrying a per-name running total accumulated
///   over all lanes in timestamp order.
pub fn chrome_trace_json(session: &TraceSession) -> String {
    let mut out = String::with_capacity(4096 + session.event_count() * 96);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
    };
    for thread in &session.threads {
        sep(&mut out);
        out.push_str("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":");
        push_u64(&mut out, u64::from(PID));
        out.push_str(",\"tid\":");
        push_u64(&mut out, u64::from(thread.lane));
        out.push_str(",\"args\":{\"name\":");
        push_str_literal(&mut out, &thread.label);
        out.push_str("}}");
    }
    for thread in &session.threads {
        let last_t = thread.events.last().map_or(0, |e| e.t_ns);
        // Open spans, innermost last: (span_id, name, begin event index).
        let mut open: Vec<(u64, &'static str)> = Vec::new();
        for ev in &thread.events {
            match ev.kind {
                TraceEventKind::Begin => {
                    sep(&mut out);
                    push_event_header(&mut out, ev.name, 'B', ev.t_ns, thread.lane);
                    push_args(&mut out, ev, true);
                    out.push('}');
                    open.push((ev.span_id, ev.name));
                }
                TraceEventKind::End => {
                    let Some(depth) = open.iter().rposition(|&(id, _)| id == ev.span_id) else {
                        // The matching begin was overwritten by the
                        // ring's drop-oldest policy; skip to keep B/E
                        // balanced.
                        continue;
                    };
                    // RAII guards close LIFO, but if an inner end was
                    // lost, close the skipped frames here first.
                    while open.len() > depth {
                        let Some((_, name)) = open.pop() else { break };
                        sep(&mut out);
                        push_event_header(&mut out, name, 'E', ev.t_ns, thread.lane);
                        out.push('}');
                    }
                }
                TraceEventKind::Instant => {
                    sep(&mut out);
                    push_event_header(&mut out, ev.name, 'i', ev.t_ns, thread.lane);
                    out.push_str(",\"s\":\"t\"");
                    push_args(&mut out, ev, false);
                    out.push('}');
                }
                TraceEventKind::Counter => {} // second pass below
            }
        }
        // Spans still open when the session was drained (or whose end
        // was disarmed away): close them at the lane's last timestamp
        // so every emitted B has an E.
        while let Some((_, name)) = open.pop() {
            sep(&mut out);
            push_event_header(&mut out, name, 'E', last_t, thread.lane);
            out.push('}');
        }
    }
    // Counter events: accumulate deltas into per-name running totals in
    // global timestamp order (Chrome counter tracks are per process).
    let mut counters: Vec<(&TraceEvent, u32)> = session
        .threads
        .iter()
        .flat_map(|t| t.events.iter().map(move |e| (e, t.lane)))
        .filter(|(e, _)| e.kind == TraceEventKind::Counter)
        .collect();
    counters.sort_by_key(|(e, lane)| (e.t_ns, *lane));
    let mut totals: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (ev, lane) in counters {
        let delta = ev.args[0].map_or(0.0, |(_, v)| v);
        let total = totals.entry(ev.name).or_insert(0.0);
        *total += delta;
        sep(&mut out);
        push_event_header(&mut out, ev.name, 'C', ev.t_ns, lane);
        out.push_str(",\"args\":{\"value\":");
        push_f64(&mut out, *total);
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

/// Renders a session as folded flamegraph stacks: one
/// `lane;span;span… <self-time-ns>` line per unique stack, sorted, with
/// the lane label as the root frame. Feed the output to `flamegraph.pl`
/// or paste it into <https://www.speedscope.app>.
///
/// Self time is attributed between consecutive span boundaries, so
/// nested spans subtract cleanly from their parents.
pub fn folded_stacks(session: &TraceSession) -> String {
    let mut weights: BTreeMap<String, u64> = BTreeMap::new();
    for thread in &session.threads {
        fold_thread(thread, &mut weights);
    }
    let mut out = String::new();
    for (stack, ns) in &weights {
        out.push_str(stack);
        out.push(' ');
        out.push_str(&ns.to_string());
        out.push('\n');
    }
    out
}

fn fold_thread(thread: &ThreadTimeline, weights: &mut BTreeMap<String, u64>) {
    let mut stack: Vec<(u64, &'static str)> = Vec::new();
    let mut last_t: Option<u64> = None;
    let mut attribute = |stack: &[(u64, &'static str)], last_t: &mut Option<u64>, t: u64| {
        if let Some(prev) = *last_t {
            if !stack.is_empty() && t > prev {
                let mut path = String::with_capacity(thread.label.len() + stack.len() * 24);
                path.push_str(&thread.label);
                for (_, name) in stack {
                    path.push(';');
                    path.push_str(name);
                }
                *weights.entry(path).or_insert(0) += t - prev;
            }
        }
        *last_t = Some(t);
    };
    for ev in &thread.events {
        match ev.kind {
            TraceEventKind::Begin => {
                attribute(&stack, &mut last_t, ev.t_ns);
                stack.push((ev.span_id, ev.name));
            }
            TraceEventKind::End => {
                if let Some(depth) = stack.iter().rposition(|&(id, _)| id == ev.span_id) {
                    attribute(&stack, &mut last_t, ev.t_ns);
                    stack.truncate(depth);
                }
            }
            // Instants and counters carry no duration; they neither
            // advance nor split the attribution window.
            TraceEventKind::Instant | TraceEventKind::Counter => {}
        }
    }
}

/// A well-formedness check for [`chrome_trace_json`] output, used by the
/// tests and the CI trace smoke step: the document must be valid JSON
/// (per [`crate::json_is_well_formed`]), declare a `traceEvents` array,
/// and contain exactly as many span-begin as span-end records.
pub fn trace_is_well_formed(json: &str) -> bool {
    fn count(haystack: &str, needle: &str) -> usize {
        haystack.match_indices(needle).count()
    }
    crate::export::json_is_well_formed(json)
        && json.contains("\"traceEvents\"")
        && count(json, "\"ph\":\"B\"") == count(json, "\"ph\":\"E\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: TraceEventKind, name: &'static str, t_ns: u64, span_id: u64) -> TraceEvent {
        TraceEvent { t_ns, kind, name, span_id, parent_id: 0, args: [None; crate::trace::MAX_ARGS] }
    }

    fn sample_session() -> TraceSession {
        let mut begin = ev(TraceEventKind::Begin, "scalability.analyze", 100, 1);
        begin.args[0] = Some(("qubits", 1024.0));
        let mut counter = ev(TraceEventKind::Counter, "power.landing.steps", 350, 0);
        counter.args[0] = Some(("delta", 2.0));
        let mut counter2 = ev(TraceEventKind::Counter, "power.landing.steps", 380, 0);
        counter2.args[0] = Some(("delta", 3.0));
        TraceSession {
            threads: vec![
                ThreadTimeline {
                    lane: 0,
                    label: "main".into(),
                    events: vec![
                        begin,
                        ev(TraceEventKind::Begin, "power.max_qubits", 300, 2),
                        counter,
                        counter2,
                        ev(TraceEventKind::End, "power.max_qubits", 700, 2),
                        ev(TraceEventKind::End, "scalability.analyze", 900, 1),
                    ],
                    dropped: 0,
                },
                ThreadTimeline {
                    lane: 1,
                    label: "qisim-par worker-0".into(),
                    events: vec![
                        ev(TraceEventKind::Instant, "par.chunk.dispatch", 400, 0),
                        ev(TraceEventKind::Begin, "power.evaluate", 410, 3),
                        ev(TraceEventKind::End, "power.evaluate", 600, 3),
                    ],
                    dropped: 0,
                },
            ],
            dropped_events: 0,
        }
    }

    #[test]
    fn chrome_export_is_well_formed_and_labeled() {
        let json = chrome_trace_json(&sample_session());
        assert!(trace_is_well_formed(&json), "{json}");
        assert!(json.contains("\"thread_name\""), "{json}");
        assert!(json.contains("\"qisim-par worker-0\""), "{json}");
        assert!(json.contains("\"ph\":\"i\""), "{json}");
        assert!(json.contains("\"qubits\":1024"), "{json}");
        // Timestamps are microseconds: 100 ns -> 0.1 us.
        assert!(json.contains("\"ts\":0.1"), "{json}");
        // Counter deltas 2 + 3 accumulate into a running total of 5.
        assert!(json.contains("\"value\":2"), "{json}");
        assert!(json.contains("\"value\":5"), "{json}");
    }

    #[test]
    fn orphan_begins_are_closed_and_orphan_ends_skipped() {
        let session = TraceSession {
            threads: vec![ThreadTimeline {
                lane: 0,
                label: "main".into(),
                events: vec![
                    // End whose begin was overwritten by drop-oldest.
                    ev(TraceEventKind::End, "lost.begin", 50, 99),
                    // Begin never closed before the drain.
                    ev(TraceEventKind::Begin, "open.span", 100, 1),
                    ev(TraceEventKind::Instant, "marker", 200, 0),
                ],
                dropped: 3,
            }],
            dropped_events: 3,
        };
        let json = chrome_trace_json(&session);
        assert!(trace_is_well_formed(&json), "{json}");
        assert!(!json.contains("lost.begin"), "{json}");
        // The open span is closed at the lane's last timestamp (200 ns).
        assert!(json.contains("\"open.span\",\"cat\":\"qisim\",\"ph\":\"E\",\"ts\":0.2"), "{json}");
    }

    #[test]
    fn empty_session_exports_cleanly() {
        let session = TraceSession::default();
        let json = chrome_trace_json(&session);
        assert_eq!(json, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[]}");
        assert!(trace_is_well_formed(&json));
        assert_eq!(folded_stacks(&session), "");
    }

    #[test]
    fn folded_stacks_attribute_self_time() {
        let folded = folded_stacks(&sample_session());
        // Outer span: 900 - 100 total, minus the 300..700 child window.
        assert!(folded.contains("main;scalability.analyze 400\n"), "{folded}");
        assert!(folded.contains("main;scalability.analyze;power.max_qubits 400\n"), "{folded}");
        assert!(folded.contains("qisim-par worker-0;power.evaluate 190\n"), "{folded}");
        // Deterministic: sorted lines, trailing newline.
        let lines: Vec<&str> = folded.lines().collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
    }

    #[test]
    fn well_formedness_checker_rejects_unbalanced_traces() {
        assert!(!trace_is_well_formed("{\"traceEvents\":[{\"ph\":\"B\"}]}"));
        assert!(!trace_is_well_formed("not json"));
        assert!(!trace_is_well_formed("{}")); // no traceEvents key
        assert!(trace_is_well_formed("{\"traceEvents\":[{\"ph\":\"B\"},{\"ph\":\"E\"}]}"));
    }
}
