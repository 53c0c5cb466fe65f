//! Exporters: render a [`Snapshot`] as an aligned text table (for humans),
//! as JSON (for `BENCH_obs.json`-style perf-trajectory artifacts), or as
//! OpenMetrics text exposition (for Prometheus-style scrapers and the
//! [`crate::telemetry`] periodic exporter).

use crate::hist::Histogram;
use crate::json::ObjectWriter;
use crate::metrics::Snapshot;

fn fmt_sig(v: f64) -> String {
    if !v.is_finite() {
        return format!("{v}");
    }
    let a = v.abs();
    if v == 0.0 {
        "0".into()
    } else if !(1e-3..1e6).contains(&a) {
        format!("{v:.3e}")
    } else if a >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

fn fmt_ns(ns: f64) -> String {
    if !ns.is_finite() {
        return format!("{ns}");
    }
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}us", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

fn push_table(out: &mut String, header: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let render = |cells: &[String], out: &mut String| {
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            if i == 0 {
                out.push_str(&format!("{cell:<w$}", w = widths[i]));
            } else {
                out.push_str(&format!("{cell:>w$}", w = widths[i]));
            }
        }
        out.push('\n');
    };
    render(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>(), out);
    render(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>(), out);
    for row in rows {
        render(row, out);
    }
}

/// Renders the snapshot as an aligned, sectioned text table.
pub fn text_table(snap: &Snapshot) -> String {
    let mut out = String::new();
    if snap.is_empty() {
        out.push_str("(no metrics recorded)\n");
        return out;
    }
    if !snap.spans.is_empty() {
        out.push_str("== spans ==\n");
        let rows: Vec<Vec<String>> = snap
            .spans
            .iter()
            .map(|(name, s)| {
                vec![
                    name.clone(),
                    s.count.to_string(),
                    fmt_ns(s.total_ns as f64),
                    fmt_ns(s.self_ns as f64),
                    fmt_ns(s.durations.quantile(0.5)),
                    fmt_ns(s.durations.quantile(0.9)),
                    fmt_ns(s.durations.quantile(0.99)),
                ]
            })
            .collect();
        push_table(&mut out, &["span", "count", "total", "self", "p50", "p90", "p99"], &rows);
        out.push('\n');
    }
    if !snap.counters.is_empty() {
        out.push_str("== counters ==\n");
        let rows: Vec<Vec<String>> =
            snap.counters.iter().map(|(n, v)| vec![n.clone(), v.to_string()]).collect();
        push_table(&mut out, &["counter", "value"], &rows);
        out.push('\n');
    }
    if !snap.gauges.is_empty() {
        out.push_str("== gauges ==\n");
        let rows: Vec<Vec<String>> =
            snap.gauges.iter().map(|(n, v)| vec![n.clone(), fmt_sig(*v)]).collect();
        push_table(&mut out, &["gauge", "value"], &rows);
        out.push('\n');
    }
    if !snap.hists.is_empty() {
        out.push_str("== histograms ==\n");
        let rows: Vec<Vec<String>> = snap
            .hists
            .iter()
            .map(|(n, h)| {
                vec![
                    n.clone(),
                    h.count().to_string(),
                    fmt_sig(h.mean()),
                    fmt_sig(h.quantile(0.5)),
                    fmt_sig(h.quantile(0.9)),
                    fmt_sig(h.quantile(0.99)),
                    fmt_sig(h.min()),
                    fmt_sig(h.max()),
                ]
            })
            .collect();
        push_table(
            &mut out,
            &["histogram", "count", "mean", "p50", "p90", "p99", "min", "max"],
            &rows,
        );
        out.push('\n');
    }
    // Health footer: ring overflow and cache effectiveness at a glance,
    // without having to parse the JSON artifact.
    out.push_str("== summary ==\n");
    let dropped = snap.counter("trace.dropped_events").unwrap_or(0);
    out.push_str(&format!("trace.dropped_events: {dropped}\n"));
    let hits = snap.counter("power.cache.hits").unwrap_or(0);
    let misses = snap.counter("power.cache.misses").unwrap_or(0);
    if hits + misses > 0 {
        let rate = 100.0 * hits as f64 / (hits + misses) as f64;
        out.push_str(&format!(
            "power memo cache: {hits} hits / {misses} misses ({rate:.1}% hit rate)\n"
        ));
    } else {
        out.push_str("power memo cache: no lookups recorded\n");
    }
    out
}

/// Renders the snapshot as a single JSON object:
///
/// ```json
/// {
///   "counters": {"power.evaluate.calls": 182},
///   "gauges": {"power.stage.4K.utilization": 0.99},
///   "histograms": {"cyclesim.makespan_ns": {"count": 3, "mean": ..., "p50": ...}},
///   "spans": {"power.max_qubits": {"count": 2, "total_ns": ..., "p50_ns": ...}}
/// }
/// ```
pub fn to_json(snap: &Snapshot) -> String {
    let mut out = String::with_capacity(1024);
    let mut root = ObjectWriter::new(&mut out);

    let mut counters = String::new();
    {
        let mut w = ObjectWriter::new(&mut counters);
        for (n, v) in &snap.counters {
            w.field_u64(n, *v);
        }
        w.finish();
    }
    root.field_raw("counters", &counters);

    let mut gauges = String::new();
    {
        let mut w = ObjectWriter::new(&mut gauges);
        for (n, v) in &snap.gauges {
            w.field_f64(n, *v);
        }
        w.finish();
    }
    root.field_raw("gauges", &gauges);

    let mut hists = String::new();
    {
        let mut w = ObjectWriter::new(&mut hists);
        for (n, h) in &snap.hists {
            let mut one = String::new();
            let mut hw = ObjectWriter::new(&mut one);
            hw.field_u64("count", h.count());
            hw.field_f64("mean", h.mean());
            hw.field_f64("min", h.min());
            hw.field_f64("max", h.max());
            hw.field_f64("p50", h.quantile(0.5));
            hw.field_f64("p90", h.quantile(0.9));
            hw.field_f64("p99", h.quantile(0.99));
            hw.finish();
            w.field_raw(n, &one);
        }
        w.finish();
    }
    root.field_raw("histograms", &hists);

    let mut spans = String::new();
    {
        let mut w = ObjectWriter::new(&mut spans);
        for (n, s) in &snap.spans {
            let mut one = String::new();
            let mut sw = ObjectWriter::new(&mut one);
            sw.field_u64("count", s.count);
            sw.field_u64("total_ns", s.total_ns);
            sw.field_u64("self_ns", s.self_ns);
            sw.field_f64("p50_ns", s.durations.quantile(0.5));
            sw.field_f64("p90_ns", s.durations.quantile(0.9));
            sw.field_f64("p99_ns", s.durations.quantile(0.99));
            sw.finish();
            w.field_raw(n, &one);
        }
        w.finish();
    }
    root.field_raw("spans", &spans);
    root.finish();
    out
}

/// A very small JSON well-formedness checker used by the tests and the
/// CI smoke run: validates balanced structure, string escapes, and
/// number syntax. Not a full parser — just enough to catch exporter bugs.
pub fn json_is_well_formed(s: &str) -> bool {
    let b = s.as_bytes();
    let mut i = 0usize;
    fn skip_ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && (b[*i] as char).is_ascii_whitespace() {
            *i += 1;
        }
    }
    fn value(b: &[u8], i: &mut usize) -> bool {
        skip_ws(b, i);
        if *i >= b.len() {
            return false;
        }
        match b[*i] {
            b'{' => {
                *i += 1;
                skip_ws(b, i);
                if *i < b.len() && b[*i] == b'}' {
                    *i += 1;
                    return true;
                }
                loop {
                    skip_ws(b, i);
                    if !string(b, i) {
                        return false;
                    }
                    skip_ws(b, i);
                    if *i >= b.len() || b[*i] != b':' {
                        return false;
                    }
                    *i += 1;
                    if !value(b, i) {
                        return false;
                    }
                    skip_ws(b, i);
                    if *i < b.len() && b[*i] == b',' {
                        *i += 1;
                        continue;
                    }
                    if *i < b.len() && b[*i] == b'}' {
                        *i += 1;
                        return true;
                    }
                    return false;
                }
            }
            b'[' => {
                *i += 1;
                skip_ws(b, i);
                if *i < b.len() && b[*i] == b']' {
                    *i += 1;
                    return true;
                }
                loop {
                    if !value(b, i) {
                        return false;
                    }
                    skip_ws(b, i);
                    if *i < b.len() && b[*i] == b',' {
                        *i += 1;
                        continue;
                    }
                    if *i < b.len() && b[*i] == b']' {
                        *i += 1;
                        return true;
                    }
                    return false;
                }
            }
            b'"' => string(b, i),
            b't' => literal(b, i, b"true"),
            b'f' => literal(b, i, b"false"),
            b'n' => literal(b, i, b"null"),
            _ => number(b, i),
        }
    }
    fn literal(b: &[u8], i: &mut usize, lit: &[u8]) -> bool {
        if b[*i..].starts_with(lit) {
            *i += lit.len();
            true
        } else {
            false
        }
    }
    fn string(b: &[u8], i: &mut usize) -> bool {
        if *i >= b.len() || b[*i] != b'"' {
            return false;
        }
        *i += 1;
        while *i < b.len() {
            match b[*i] {
                b'"' => {
                    *i += 1;
                    return true;
                }
                b'\\' => {
                    *i += 1;
                    if *i >= b.len() {
                        return false;
                    }
                    match b[*i] {
                        b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' => *i += 1,
                        b'u' => {
                            if *i + 4 >= b.len()
                                || !b[*i + 1..*i + 5].iter().all(u8::is_ascii_hexdigit)
                            {
                                return false;
                            }
                            *i += 5;
                        }
                        _ => return false,
                    }
                }
                c if c < 0x20 => return false,
                _ => *i += 1,
            }
        }
        false
    }
    fn number(b: &[u8], i: &mut usize) -> bool {
        let start = *i;
        if *i < b.len() && b[*i] == b'-' {
            *i += 1;
        }
        let digits = |b: &[u8], i: &mut usize| {
            let s = *i;
            while *i < b.len() && b[*i].is_ascii_digit() {
                *i += 1;
            }
            *i > s
        };
        if !digits(b, i) {
            return false;
        }
        if *i < b.len() && b[*i] == b'.' {
            *i += 1;
            if !digits(b, i) {
                return false;
            }
        }
        if *i < b.len() && (b[*i] == b'e' || b[*i] == b'E') {
            *i += 1;
            if *i < b.len() && (b[*i] == b'+' || b[*i] == b'-') {
                *i += 1;
            }
            if !digits(b, i) {
                return false;
            }
        }
        *i > start
    }
    if !value(b, &mut i) {
        return false;
    }
    skip_ws(b, &mut i);
    i == b.len()
}

/// Maps a dotted qisim metric name (`power.cache.hits`) onto the
/// OpenMetrics name charset `[a-zA-Z_:][a-zA-Z0-9_:]*`: dots and every
/// other illegal character become underscores, and a leading digit gets
/// an underscore prefix.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            if out.is_empty() && c.is_ascii_digit() {
                out.push('_');
            }
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Renders a float the way OpenMetrics spells the special values.
fn fmt_om(v: f64) -> String {
    if v.is_nan() {
        "NaN".into()
    } else if v == f64::INFINITY {
        "+Inf".into()
    } else if v == f64::NEG_INFINITY {
        "-Inf".into()
    } else {
        format!("{v}")
    }
}

/// One histogram family: `# TYPE`/`# HELP`, cumulative `_bucket` series
/// (underflow folded into `le="1"`, the first bucket edge), the mandatory
/// `le="+Inf"` bucket, `_sum`, and `_count`.
fn push_om_histogram(out: &mut String, n: &str, orig: &str, h: &Histogram) {
    out.push_str(&format!("# TYPE {n} histogram\n"));
    out.push_str(&format!("# HELP {n} qisim histogram {orig}\n"));
    let mut cum = h.underflow();
    if cum > 0 {
        out.push_str(&format!("{n}_bucket{{le=\"1\"}} {cum}\n"));
    }
    for (_lo, hi, c) in h.nonempty_buckets() {
        cum += c;
        out.push_str(&format!("{n}_bucket{{le=\"{hi}\"}} {cum}\n"));
    }
    // `count` includes non-finite samples excluded from every bucket, so
    // +Inf (the whole real line and beyond) is the only edge that sees
    // them — exactly the OpenMetrics contract `+Inf == _count`.
    out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
    out.push_str(&format!("{n}_sum {}\n", fmt_om(h.sum())));
    out.push_str(&format!("{n}_count {}\n", h.count()));
}

/// Renders the snapshot in OpenMetrics text exposition format:
///
/// ```text
/// # TYPE power_cache_hits counter
/// # HELP power_cache_hits qisim counter power.cache.hits
/// power_cache_hits_total 182
/// # TYPE cyclesim_makespan_ns histogram
/// cyclesim_makespan_ns_bucket{le="1024"} 1
/// cyclesim_makespan_ns_bucket{le="+Inf"} 2
/// cyclesim_makespan_ns_sum 2032
/// cyclesim_makespan_ns_count 2
/// # EOF
/// ```
///
/// Dotted names are sanitized via [`sanitize_metric_name`]; spans export
/// as a `{name}_duration_ns` histogram plus a `{name}_self_ns` counter.
/// The output always terminates with `# EOF` and round-trips through
/// [`openmetrics_is_well_formed`].
pub fn openmetrics(snap: &Snapshot) -> String {
    let mut out = String::with_capacity(2048);
    for (name, v) in &snap.counters {
        let n = sanitize_metric_name(name);
        out.push_str(&format!("# TYPE {n} counter\n"));
        out.push_str(&format!("# HELP {n} qisim counter {name}\n"));
        out.push_str(&format!("{n}_total {v}\n"));
    }
    for (name, v) in &snap.gauges {
        let n = sanitize_metric_name(name);
        out.push_str(&format!("# TYPE {n} gauge\n"));
        out.push_str(&format!("# HELP {n} qisim gauge {name}\n"));
        out.push_str(&format!("{n} {}\n", fmt_om(*v)));
    }
    for (name, h) in &snap.hists {
        push_om_histogram(&mut out, &sanitize_metric_name(name), name, h);
    }
    for (name, s) in &snap.spans {
        let n = sanitize_metric_name(name);
        push_om_histogram(&mut out, &format!("{n}_duration_ns"), name, &s.durations);
        out.push_str(&format!("# TYPE {n}_self_ns counter\n"));
        out.push_str(&format!("# HELP {n}_self_ns qisim span self-time {name}\n"));
        out.push_str(&format!("{n}_self_ns_total {}\n", s.self_ns));
    }
    out.push_str("# EOF\n");
    out
}

/// OpenMetrics name charset: `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn om_name_ok(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Label set between braces: `key="value",key="value"` with `\\`, `\"`,
/// and `\n` escapes inside values. Returns the value of `le` if present.
fn om_labels_ok(s: &str) -> Option<Option<String>> {
    let b = s.as_bytes();
    let mut i = 0usize;
    let mut le = None;
    if b.is_empty() {
        return Some(None);
    }
    loop {
        let key_start = i;
        while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
            i += 1;
        }
        if i == key_start || i >= b.len() || b[i] != b'=' {
            return None;
        }
        let key = &s[key_start..i];
        i += 1;
        if i >= b.len() || b[i] != b'"' {
            return None;
        }
        i += 1;
        let val_start = i;
        loop {
            if i >= b.len() {
                return None;
            }
            match b[i] {
                b'"' => break,
                b'\\' => {
                    if i + 1 >= b.len() || !matches!(b[i + 1], b'\\' | b'"' | b'n') {
                        return None;
                    }
                    i += 2;
                }
                _ => i += 1,
            }
        }
        if key == "le" {
            le = Some(s[val_start..i].to_string());
        }
        i += 1; // closing quote
        if i == b.len() {
            return Some(le);
        }
        if b[i] != b',' {
            return None;
        }
        i += 1;
    }
}

/// A small OpenMetrics well-formedness checker mirroring
/// [`json_is_well_formed`]: used by the exporter tests and the CI smoke
/// run as a self-check on [`openmetrics`] output. Validates the `# EOF`
/// terminator, `# TYPE` declarations preceding their samples, the metric
/// name charset, label syntax, float values (including `NaN`/`+Inf`),
/// counter `_total` / histogram `_bucket`/`_sum`/`_count` suffix
/// discipline, and cumulative bucket monotonicity with
/// `le="+Inf" == _count`. Not a full parser — just enough to catch
/// exposition bugs.
pub fn openmetrics_is_well_formed(s: &str) -> bool {
    use std::collections::BTreeMap;
    let mut types: BTreeMap<&str, &str> = BTreeMap::new();
    // Per histogram family: (last cumulative bucket value, +Inf value).
    let mut buckets: BTreeMap<&str, (f64, Option<f64>)> = BTreeMap::new();
    let mut seen_eof = false;
    let value_ok = |v: &str| -> Option<f64> {
        match v {
            "NaN" => Some(f64::NAN),
            "+Inf" => Some(f64::INFINITY),
            "-Inf" => Some(f64::NEG_INFINITY),
            _ => v.parse::<f64>().ok().filter(|x| x.is_finite()),
        }
    };
    for line in s.lines() {
        if seen_eof {
            return false; // nothing may follow the terminator
        }
        if line == "# EOF" {
            seen_eof = true;
            continue;
        }
        if line.is_empty() {
            return false;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.splitn(2, ' ');
            let (name, ty) = (it.next().unwrap_or(""), it.next().unwrap_or(""));
            let known = matches!(ty, "counter" | "gauge" | "histogram" | "summary" | "unknown");
            if !om_name_ok(name) || !known || types.insert(name, ty).is_some() {
                return false;
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            if !om_name_ok(rest.split(' ').next().unwrap_or("")) {
                return false;
            }
            continue;
        }
        if line.starts_with('#') {
            return false; // only TYPE/HELP/EOF comment forms exist
        }
        // Sample line: name[{labels}] value
        let name_end = line.find(['{', ' ']).unwrap_or(line.len());
        let name = &line[..name_end];
        if !om_name_ok(name) {
            return false;
        }
        let mut rest = &line[name_end..];
        let mut le = None;
        if let Some(inner) = rest.strip_prefix('{') {
            let Some(close) = inner.find('}') else { return false };
            match om_labels_ok(&inner[..close]) {
                Some(l) => le = l,
                None => return false,
            }
            rest = &inner[close + 1..];
        }
        let Some(valstr) = rest.strip_prefix(' ') else { return false };
        let Some(val) = value_ok(valstr) else { return false };
        // Suffix discipline: the sample must belong to a declared family
        // of the matching type, declared before this line.
        let fam_of = |suffix: &str, ty: &str| -> Option<&str> {
            let base = name.strip_suffix(suffix)?;
            (types.get(base) == Some(&ty)).then_some(base)
        };
        if types.get(name) == Some(&"gauge") || types.get(name) == Some(&"unknown") {
            // plain sample, nothing more to check
        } else if fam_of("_total", "counter").is_some() {
            if val < 0.0 {
                return false;
            }
        } else if let Some(base) = fam_of("_bucket", "histogram") {
            let Some(edge) = le else { return false };
            if value_ok(&edge).is_none() {
                return false;
            }
            let entry = buckets.entry(base).or_insert((f64::NEG_INFINITY, None));
            if val < entry.0 {
                return false; // cumulative series must be non-decreasing
            }
            entry.0 = val;
            if edge == "+Inf" {
                entry.1 = Some(val);
            }
        } else if let Some(base) = fam_of("_count", "histogram") {
            match buckets.get(base).and_then(|e| e.1) {
                Some(inf) if inf == val => {}
                _ => return false, // +Inf bucket missing or != _count
            }
        } else if fam_of("_sum", "histogram").is_none() {
            return false;
        }
    }
    seen_eof
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::SpanStats;

    fn hist(samples: &[f64]) -> Histogram {
        let mut h = Histogram::new();
        samples.iter().for_each(|&v| h.observe(v));
        h
    }

    fn counters(pairs: &[(&str, u64)]) -> Vec<(String, u64)> {
        pairs.iter().map(|&(n, v)| (n.to_owned(), v)).collect()
    }

    fn sample() -> Snapshot {
        let span = SpanStats {
            count: 1,
            total_ns: 2_000_000,
            self_ns: 1_500_000,
            durations: hist(&[2_000_000.0]),
        };
        Snapshot {
            counters: counters(&[("cyclesim.ops", 9), ("power.evaluate.calls", 182)]),
            gauges: vec![
                ("power.stage.4K.utilization".to_owned(), 0.997),
                ("weird \"name\"\\path".to_owned(), f64::NAN),
            ],
            hists: vec![("cyclesim.makespan_ns".to_owned(), hist(&[1117.0, 915.0]))],
            spans: vec![("power.max_qubits".to_owned(), span)],
            ..Snapshot::default()
        }
    }

    #[test]
    fn json_export_is_well_formed_and_complete() {
        let j = to_json(&sample());
        assert!(json_is_well_formed(&j), "malformed: {j}");
        assert!(j.contains("\"power.evaluate.calls\":182"));
        assert!(j.contains("\"power.max_qubits\""));
        assert!(j.contains("\"total_ns\":2000000"));
        // NaN gauge must degrade to null, not poison the document.
        assert!(j.contains("null"), "{j}");
        // The escaped gauge name survives round-trip escaping.
        assert!(j.contains(r#"weird \"name\"\\path"#), "{j}");
    }

    #[test]
    fn empty_snapshot_exports_cleanly() {
        let snap = Snapshot::default();
        let j = to_json(&snap);
        assert!(json_is_well_formed(&j), "malformed: {j}");
        assert!(text_table(&snap).contains("no metrics recorded"));
    }

    #[test]
    fn text_table_aligns_and_sections() {
        let t = text_table(&sample());
        assert!(t.contains("== spans =="));
        assert!(t.contains("== counters =="));
        assert!(t.contains("== gauges =="));
        assert!(t.contains("== histograms =="));
        assert!(t.contains("power.max_qubits"));
        assert!(t.contains("p99"));
        // Alignment: counter values right-aligned in one column.
        let lines: Vec<&str> =
            t.lines().filter(|l| l.contains(".calls") || l.contains("cyclesim.ops")).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].len(), lines[1].len(), "{t}");
    }

    #[test]
    fn text_table_summary_footer_reports_health() {
        let snap = Snapshot {
            counters: counters(&[
                ("power.cache.hits", 9),
                ("power.cache.misses", 1),
                ("trace.dropped_events", 3),
            ]),
            ..Snapshot::default()
        };
        let t = text_table(&snap);
        assert!(t.contains("== summary =="), "{t}");
        assert!(t.contains("trace.dropped_events: 3"), "{t}");
        assert!(t.contains("9 hits / 1 misses (90.0% hit rate)"), "{t}");
        // Without the counters the footer still renders, with defaults.
        let t = text_table(&sample());
        assert!(t.contains("trace.dropped_events: 0"), "{t}");
        assert!(t.contains("no lookups recorded"), "{t}");
    }

    #[test]
    fn metric_names_sanitize_to_openmetrics_charset() {
        assert_eq!(sanitize_metric_name("power.cache.hits"), "power_cache_hits");
        assert_eq!(sanitize_metric_name("weird \"name\"\\path"), "weird__name__path");
        assert_eq!(sanitize_metric_name("4K.stage"), "_4K_stage");
        assert_eq!(sanitize_metric_name(""), "_");
        assert_eq!(sanitize_metric_name("already_fine:ns"), "already_fine:ns");
    }

    #[test]
    fn openmetrics_export_is_well_formed_and_complete() {
        let om = openmetrics(&sample());
        assert!(openmetrics_is_well_formed(&om), "malformed:\n{om}");
        assert!(om.ends_with("# EOF\n"), "{om}");
        // Counter family: TYPE line + _total sample with sanitized name.
        assert!(om.contains("# TYPE power_evaluate_calls counter"), "{om}");
        assert!(om.contains("power_evaluate_calls_total 182"), "{om}");
        // Gauge family, including the NaN degradation.
        assert!(om.contains("# TYPE power_stage_4K_utilization gauge"), "{om}");
        assert!(om.contains("power_stage_4K_utilization 0.997"), "{om}");
        assert!(om.contains("weird__name__path NaN"), "{om}");
        // Histogram family: buckets are cumulative and capped by +Inf.
        assert!(om.contains("# TYPE cyclesim_makespan_ns histogram"), "{om}");
        assert!(om.contains("cyclesim_makespan_ns_bucket{le=\"+Inf\"} 2"), "{om}");
        assert!(om.contains("cyclesim_makespan_ns_sum 2032"), "{om}");
        assert!(om.contains("cyclesim_makespan_ns_count 2"), "{om}");
        // Span family: duration histogram + self-time counter.
        assert!(om.contains("# TYPE power_max_qubits_duration_ns histogram"), "{om}");
        assert!(om.contains("power_max_qubits_self_ns_total 1500000"), "{om}");
    }

    #[test]
    fn openmetrics_underflow_folds_into_first_bucket() {
        // 0.25 and 0.5 fall below the first bucket edge.
        let snap = Snapshot {
            hists: vec![("h".to_owned(), hist(&[0.25, 0.5, 100.0]))],
            ..Snapshot::default()
        };
        let om = openmetrics(&snap);
        assert!(openmetrics_is_well_formed(&om), "malformed:\n{om}");
        assert!(om.contains("h_bucket{le=\"1\"} 2"), "{om}");
        assert!(om.contains("h_bucket{le=\"+Inf\"} 3"), "{om}");
    }

    #[test]
    fn empty_snapshot_openmetrics_is_just_eof() {
        let om = openmetrics(&Snapshot::default());
        assert_eq!(om, "# EOF\n");
        assert!(openmetrics_is_well_formed(&om));
    }

    #[test]
    fn openmetrics_checker_rejects_garbage() {
        for bad in [
            "",                                                                                      // no EOF
            "foo_total 1\n# EOF\n",                      // sample before TYPE
            "# TYPE foo counter\nfoo 1\n# EOF\n",        // counter without _total
            "# TYPE foo counter\nfoo_total -1\n# EOF\n", // negative counter
            "# TYPE foo counter\nfoo_total 1\n",         // missing EOF
            "# TYPE foo counter\n# EOF\nfoo_total 1\n",  // sample after EOF
            "# TYPE foo gauge\nfoo abc\n# EOF\n",        // bad value
            "# TYPE 9foo gauge\n9foo 1\n# EOF\n",        // bad name
            "# TYPE foo gauge\n# TYPE foo gauge\n# EOF\n", // duplicate TYPE
            "# TYPE foo wibble\n# EOF\n",                // unknown family type
            "# TYPE h histogram\nh_bucket{le=\"2\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_count 3\n# EOF\n", // non-monotone
            "# TYPE h histogram\nh_sum 1\nh_count 3\n# EOF\n", // _count without +Inf
            "# TYPE h histogram\nh_bucket{le=} 1\n# EOF\n",    // broken labels
        ] {
            assert!(!openmetrics_is_well_formed(bad), "accepted: {bad:?}");
        }
        let good = "# TYPE h histogram\n# HELP h words here\nh_bucket{le=\"1\"} 1\n\
                    h_bucket{le=\"+Inf\"} 2\nh_sum 3.5\nh_count 2\n# EOF\n";
        assert!(openmetrics_is_well_formed(good));
    }

    #[test]
    fn well_formedness_checker_rejects_garbage() {
        for bad in [
            "{",
            "{\"a\":}",
            "{\"a\":1,}",
            "[1 2]",
            "\"unterminated",
            "{\"a\":nan}",
            "01a",
            "{\"a\":1}trailing",
        ] {
            assert!(!json_is_well_formed(bad), "accepted: {bad}");
        }
        for good in ["{}", "[]", "{\"a\":[1,2,{\"b\":null}],\"c\":-1.5e-7}", "true"] {
            assert!(json_is_well_formed(good), "rejected: {good}");
        }
    }
}
