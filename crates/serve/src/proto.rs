//! The `qisim-serve` wire protocol: one request per line, one response
//! per line, both built from the [`qisim::codec`] `key = value` grammar.
//!
//! # Request lines
//!
//! A request is a single newline-terminated line of `key = value` pairs
//! separated by `;`. Three **control keys** address the service itself
//! and may appear anywhere on the line:
//!
//! | key      | values                    | meaning                              |
//! |----------|---------------------------|--------------------------------------|
//! | `id`     | any `;`/newline-free text | opaque token echoed in the response  |
//! | `target` | `near_term`, `long_term`  | roadmap target (default `near_term`) |
//! | `trace`  | `0`, `1`                  | per-request flight-recorder capture  |
//! | `explain`| `0`, `1`                  | embed `Scalability::explain()` text  |
//!
//! Every remaining pair is a [`qisim::codec`] **spec document line** —
//! the same keys `codec::parse_spec` accepts, starting with `preset` —
//! so a spec file folds onto one request line by joining its content
//! lines with `; `. That includes the per-stage budget overrides
//! (`budget.<stage>`) and the scale-out topology knobs (`fridges`,
//! `link`, `links_per_fridge`, `shared_controllers`); an unknown stage
//! label or link kind is a typed `decode` error:
//!
//! ```text
//! id = 7; target = long_term; preset = cmos_baseline; drive_bits = 6
//! id = 8; preset = cmos_near_term; fridges = 4; link = photonic
//! ```
//!
//! Keys and values therefore must not contain `;` or newlines; decode
//! diagnostics count pairs the way the codec counts lines (the header is
//! line 1, the first spec pair line 2).
//!
//! # Response lines
//!
//! Exactly one response per request, classified by its first key:
//!
//! * `ok = 1; [request_id = …;] [id = …;] [trace_events = …;]
//!   [explain = …;]` followed by the **folded**
//!   [`qisim::codec::encode_scalability`] document (its lines joined
//!   with `; `). [`response_report`] unfolds it back into a document
//!   `codec::parse_scalability` accepts bit-identically.
//! * `error = <kind>; [request_id = …;] [id = …;] line = <n>;
//!   reason = <text>` — a typed per-request failure; `kind` is one of
//!   `decode`, `config`, `power`, `target`. The process keeps serving.
//! * `busy = 1; [request_id = …;] [id = …;] reason = <text>` — the
//!   bounded queue was full and the request was shed (backpressure, not
//!   failure: retry later).
//!
//! `request_id` is the **server-assigned** id of the request (a
//! process-unique positive integer, distinct from the client's opaque
//! `id` token): the same number stamps the request's JSONL log records
//! and its flight-recorder span arguments, so one grep correlates a
//! response with everything the service observed while answering it.
//! [`strip_request_id`] removes the pair for byte-identity comparisons
//! against direct engine output.

use qisim::codec::{self, KeyReader};
use qisim::error::{DecodeError, QisimError};
use qisim::scalability::Scalability;
use qisim::spec::DesignSpec;
use qisim::surface::target::Target;
use std::fmt::Write as _;

/// The pair separator of folded documents and request lines.
pub const PAIR_SEP: &str = "; ";

/// The roadmap target a request analyzes against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TargetKind {
    /// The paper's near-term target (default).
    #[default]
    NearTerm,
    /// The paper's long-term (quantum-supremacy) target.
    LongTerm,
}

impl TargetKind {
    /// Stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            TargetKind::NearTerm => "near_term",
            TargetKind::LongTerm => "long_term",
        }
    }

    /// Inverse of [`TargetKind::label`].
    pub fn from_label(label: &str) -> Option<TargetKind> {
        match label {
            "near_term" => Some(TargetKind::NearTerm),
            "long_term" => Some(TargetKind::LongTerm),
            _ => None,
        }
    }

    /// The concrete roadmap target.
    pub fn target(self) -> Target {
        match self {
            TargetKind::NearTerm => Target::near_term(),
            TargetKind::LongTerm => Target::long_term(),
        }
    }
}

/// One parsed request: control keys plus the design spec to analyze.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Opaque client token echoed in the response.
    pub id: Option<String>,
    /// Roadmap target to analyze against.
    pub target: TargetKind,
    /// Whether to capture a per-request flight-recorder trace.
    pub trace: bool,
    /// Whether to embed the `explain()` report in the response.
    pub explain: bool,
    /// The design spec (unvalidated; `spec.build()` diagnoses knobs).
    pub spec: DesignSpec,
}

impl Request {
    /// A plain request for one spec against the near-term target.
    pub fn new(spec: DesignSpec) -> Self {
        Request { id: None, target: TargetKind::NearTerm, trace: false, explain: false, spec }
    }
}

/// The control keys a request line may carry besides its spec pairs.
const CONTROL_KEYS: [&str; 4] = ["id", "target", "trace", "explain"];

/// Parses one request line (without its trailing newline).
///
/// # Errors
///
/// Returns [`QisimError::Decode`] for an empty line, a pair without
/// `=`, an unknown/duplicate control value, or any spec-document
/// failure ([`codec::read_spec`]); diagnostics are pair-anchored the
/// way codec documents are line-anchored. A request line carries no
/// comments: a `#` key is an unknown spec key.
pub fn parse_request_line(line: &str) -> Result<Request, QisimError> {
    let (mut id, mut target, mut trace, mut explain) = (None, TargetKind::NearTerm, false, false);
    let mut reader = KeyReader::default();
    // Spec pairs are lines 2.. of the spec document they fold (line 1
    // is its header); they are read once every control key checks out.
    let mut spec_pairs = Vec::new();
    let mut spec_line = 1;
    let mut pairs = 0usize;
    for segment in line.split(';') {
        let segment = segment.trim();
        if segment.is_empty() {
            continue;
        }
        pairs += 1;
        let Some((key, value)) = segment.split_once('=') else {
            return Err(
                DecodeError::new(1, format!("expected `key = value`, found `{segment}`")).into()
            );
        };
        let (key, value) = (key.trim(), value.trim());
        if !CONTROL_KEYS.contains(&key) {
            spec_line += 1;
            spec_pairs.push(Ok((spec_line, key, value)));
            continue;
        }
        reader.claim(1, key, Some(()))?;
        match key {
            "id" if value.is_empty() => return Err(DecodeError::new(1, "empty `id` value").into()),
            "id" => id = Some(value.to_string()),
            "target" => {
                target = TargetKind::from_label(value)
                    .ok_or_else(|| DecodeError::new(1, format!("unknown target `{value}`")))?;
            }
            "trace" => trace = parse_flag(key, value)?,
            _ => explain = parse_flag(key, value)?,
        }
    }
    if pairs == 0 {
        return Err(DecodeError::new(1, "empty request line (no `key = value` pairs)").into());
    }
    let spec = codec::read_spec(2, spec_pairs)?;
    Ok(Request { id, target, trace, explain, spec })
}

/// Parses a `0`/`1` control flag.
fn parse_flag(key: &str, value: &str) -> Result<bool, DecodeError> {
    match value {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(DecodeError::new(1, format!("`{key}` must be 0 or 1, found `{value}`"))),
    }
}

/// Encodes a [`Request`] as one wire line (no trailing newline): control
/// keys first, then the spec document folded with [`fold`].
pub fn encode_request_line(request: &Request) -> String {
    let mut line = String::new();
    if let Some(id) = &request.id {
        let _ = write!(line, "id = {}{PAIR_SEP}", sanitize(id));
    }
    if request.target != TargetKind::NearTerm {
        let _ = write!(line, "target = {}{PAIR_SEP}", request.target.label());
    }
    if request.trace {
        line.push_str("trace = 1");
        line.push_str(PAIR_SEP);
    }
    if request.explain {
        line.push_str("explain = 1");
        line.push_str(PAIR_SEP);
    }
    // Drop the document header: request lines carry spec pairs directly.
    let doc = codec::encode_spec(&request.spec);
    let body = doc.strip_prefix(codec::SPEC_HEADER).unwrap_or(&doc).trim_start_matches('\n');
    line.push_str(&fold(body));
    line
}

/// Folds a multi-line codec document onto one line: content lines joined
/// with [`PAIR_SEP`] (blank lines dropped). The inverse is [`unfold`].
pub fn fold(doc: &str) -> String {
    doc.lines().filter(|l| !l.trim().is_empty()).collect::<Vec<_>>().join(PAIR_SEP)
}

/// Unfolds a [`fold`]ed document back into newline-separated lines (with
/// a trailing newline), ready for `codec::parse_spec` /
/// `codec::parse_scalability`.
pub fn unfold(line: &str) -> String {
    let mut doc = String::with_capacity(line.len() + 1);
    for segment in line.split(';') {
        let segment = segment.trim();
        if !segment.is_empty() {
            doc.push_str(segment);
            doc.push('\n');
        }
    }
    doc
}

/// Builds a success response line: `ok = 1`, the server-assigned
/// request id, the echoed client id, any extra pairs (trace/explain
/// results), then the folded report document.
pub fn ok_response(
    request_id: Option<u64>,
    id: Option<&str>,
    extras: &[(&str, String)],
    report: &Scalability,
) -> String {
    let mut line = String::from("ok = 1");
    push_request_id(&mut line, request_id);
    if let Some(id) = id {
        let _ = write!(line, "{PAIR_SEP}id = {}", sanitize(id));
    }
    for (key, value) in extras {
        let _ = write!(line, "{PAIR_SEP}{key} = {}", sanitize(value));
    }
    let _ = write!(line, "{PAIR_SEP}{}", fold(&codec::encode_scalability(report)));
    line.push('\n');
    line
}

/// Builds a typed error response line from a [`QisimError`].
pub fn error_response(request_id: Option<u64>, id: Option<&str>, error: &QisimError) -> String {
    let (kind, line_no) = match error {
        QisimError::Decode(e) => ("decode", e.line),
        QisimError::Config(_) => ("config", 0),
        QisimError::Power(_) => ("power", 0),
        QisimError::Target(_) => ("target", 0),
        _ => ("error", 0),
    };
    let mut line = format!("error = {kind}");
    push_request_id(&mut line, request_id);
    if let Some(id) = id {
        let _ = write!(line, "{PAIR_SEP}id = {}", sanitize(id));
    }
    let _ = write!(line, "{PAIR_SEP}line = {line_no}");
    let _ = write!(line, "{PAIR_SEP}reason = {}", sanitize(&error.to_string()));
    line.push('\n');
    line
}

/// Builds a backpressure shed response line.
pub fn busy_response(request_id: Option<u64>, id: Option<&str>, reason: &str) -> String {
    let mut line = String::from("busy = 1");
    push_request_id(&mut line, request_id);
    if let Some(id) = id {
        let _ = write!(line, "{PAIR_SEP}id = {}", sanitize(id));
    }
    let _ = write!(line, "{PAIR_SEP}reason = {}", sanitize(reason));
    line.push('\n');
    line
}

/// Appends the server-assigned request-id pair (directly after the
/// status pair, before the echoed client id).
fn push_request_id(line: &mut String, request_id: Option<u64>) {
    if let Some(rid) = request_id {
        let _ = write!(line, "{PAIR_SEP}request_id = {rid}");
    }
}

/// The server-assigned request id a response carries, if any.
pub fn response_request_id(line: &str) -> Option<u64> {
    pair_value(line, "request_id")?.parse().ok()
}

/// Removes the server-assigned `request_id` pair from a response line,
/// so tests and benches can compare responses byte-for-byte against
/// direct engine output regardless of request numbering.
pub fn strip_request_id(line: &str) -> String {
    let (body, newline) = match line.strip_suffix('\n') {
        Some(body) => (body, "\n"),
        None => (line, ""),
    };
    let mut removed = false;
    let kept: Vec<&str> = body
        .split(PAIR_SEP)
        .filter(|segment| {
            if !removed {
                if let Some((key, _)) = segment.split_once('=') {
                    if key.trim() == "request_id" {
                        removed = true;
                        return false;
                    }
                }
            }
            true
        })
        .collect();
    let mut out = kept.join(PAIR_SEP);
    out.push_str(newline);
    out
}

/// How a response line classifies (by its first key).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseKind {
    /// `ok = 1`: the folded report follows.
    Ok,
    /// `error = <kind>`: a typed per-request failure.
    Error,
    /// `busy = 1`: the request was shed under backpressure.
    Busy,
}

/// Classifies a response line; `None` for anything not produced by this
/// protocol.
pub fn response_kind(line: &str) -> Option<ResponseKind> {
    let first = line.split(';').next()?.trim();
    let key = first.split('=').next()?.trim();
    match key {
        "ok" => Some(ResponseKind::Ok),
        "error" => Some(ResponseKind::Error),
        "busy" => Some(ResponseKind::Busy),
        _ => None,
    }
}

/// Extracts the folded report from an `ok` response and unfolds it into
/// a document [`qisim::codec::parse_scalability`] accepts. `None` when
/// the line carries no report.
pub fn response_report(line: &str) -> Option<String> {
    let header_at = line.find(codec::SCALABILITY_HEADER)?;
    Some(unfold(&line[header_at..]))
}

/// The value of a `key = value` pair on a wire line (first occurrence).
pub fn pair_value<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split(';').find_map(|segment| {
        let (k, v) = segment.split_once('=')?;
        (k.trim() == key).then(|| v.trim())
    })
}

/// Best-effort extraction of the `id` control key from a raw request
/// line, so error and `busy` responses can echo the client token even
/// when the line never parsed into a [`Request`].
pub fn request_id(line: &str) -> Option<&str> {
    pair_value(line, "id").filter(|id| !id.is_empty())
}

/// Replaces the two characters the wire format reserves (`;` and
/// newlines) so echoed ids and diagnostic texts can never tear a line.
fn sanitize(text: &str) -> String {
    text.replace(';', ",").replace(['\n', '\r'], " ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use qisim::spec::Preset;

    #[test]
    fn request_lines_round_trip() {
        let request = Request {
            id: Some("client-7".to_string()),
            target: TargetKind::LongTerm,
            trace: true,
            explain: false,
            spec: DesignSpec::new(Preset::CmosBaseline).drive_bits(6).name("lab run"),
        };
        let line = encode_request_line(&request);
        assert_eq!(parse_request_line(&line).unwrap(), request);
        // Defaults stay off the wire.
        let plain = Request::new(DesignSpec::new(Preset::RsfqBaseline));
        assert_eq!(encode_request_line(&plain), "preset = rsfq_baseline");
        assert_eq!(parse_request_line("preset = rsfq_baseline").unwrap(), plain);
    }

    /// Every decode diagnostic of a request line, pinned to its exact
    /// `(line, reason)`: control-key failures anchor at line 1, and spec
    /// pairs count from line 2 the way the spec document they fold does.
    #[test]
    fn empty_and_malformed_request_lines_are_typed_errors() {
        let empty = "empty request line (no `key = value` pairs)";
        let request_cases: Vec<(&str, usize, &str)> = vec![
            ("", 1, empty),
            ("   ", 1, empty),
            (";", 1, empty),
            (" ; ;", 1, empty),
            ("preset = cmos_baseline; what even", 1, "expected `key = value`, found `what even`"),
            ("id = a; id = b; preset = cmos_baseline", 1, "duplicate key `id`"),
            ("target = long_term; target = near_term", 1, "duplicate key `target`"),
            ("trace = 1; trace = 1; preset = cmos_baseline", 1, "duplicate key `trace`"),
            ("id = ; preset = cmos_baseline", 1, "empty `id` value"),
            ("target = warp; preset = cmos_baseline", 1, "unknown target `warp`"),
            ("trace = yes; preset = cmos_baseline", 1, "`trace` must be 0 or 1, found `yes`"),
            ("preset = cmos_baseline; explain = 2", 1, "`explain` must be 0 or 1, found `2`"),
            ("bs = x; preset = rsfq_baseline; trace = 2", 1, "`trace` must be 0 or 1, found `2`"),
            ("id = 1", 2, "missing key `preset`"),
            ("id = 1; drive_bits = 6; preset = cmos_baseline", 2, "first key must be `preset`"),
            ("preset = warp_drive", 2, "unknown preset `warp_drive`"),
            ("id = c; preset = rsfq_baseline; bs = 6; bs = 7", 4, "duplicate key `bs`"),
            ("preset = cmos_baseline; preset = rsfq_baseline", 3, "duplicate key `preset`"),
            ("preset = rsfq_baseline; target = long_term; bs = x", 3, "cannot parse `x` for `bs`"),
            ("preset = rsfq_baseline; # note = x; bs = y", 3, "unknown key `# note`"),
            ("preset = cmos_baseline; budget.3K = 1", 3, "unknown fridge stage `3K`"),
            ("preset = cmos_baseline; link = warp", 3, "unknown link `warp`"),
            ("preset = cmos_baseline; frobnicate = 1", 3, "unknown key `frobnicate`"),
        ];
        for (line, at, reason) in request_cases {
            let got = match parse_request_line(line) {
                Err(QisimError::Decode(e)) => (e.line, e.reason),
                other => panic!("expected a decode error for {line:?}, got {other:?}"),
            };
            assert_eq!(got, (at, reason.to_string()), "request line {line:?}");
        }
    }

    #[test]
    fn fold_and_unfold_are_inverse_on_documents() {
        let spec = DesignSpec::new(Preset::CmosBaseline).drive_bits(6);
        let doc = codec::encode_spec(&spec);
        assert_eq!(unfold(&fold(&doc)), doc);
    }

    #[test]
    fn responses_classify_and_carry_pairs() {
        let busy = busy_response(None, Some("9"), "queue full (depth 4)");
        assert_eq!(response_kind(&busy), Some(ResponseKind::Busy));
        assert_eq!(pair_value(&busy, "id"), Some("9"));
        assert!(busy.ends_with('\n'));
        let err = error_response(
            None,
            None,
            &QisimError::Decode(qisim::error::DecodeError::new(2, "unknown key `x; y`")),
        );
        assert_eq!(response_kind(&err), Some(ResponseKind::Error));
        assert_eq!(pair_value(&err, "line"), Some("2"));
        // Reserved characters in diagnostics cannot tear the line.
        assert!(!err.trim_end().contains('\n'));
        assert!(pair_value(&err, "reason").unwrap().contains("x, y"));
        assert_eq!(response_kind("garbage"), None);
    }

    #[test]
    fn request_ids_are_echoed_and_strippable() {
        let busy = busy_response(Some(41), Some("9"), "queue full");
        assert!(busy.starts_with("busy = 1; request_id = 41; id = 9"), "{busy}");
        assert_eq!(response_request_id(&busy), Some(41));
        assert_eq!(strip_request_id(&busy), busy_response(None, Some("9"), "queue full"));
        let err = error_response(
            Some(7),
            None,
            &QisimError::Decode(qisim::error::DecodeError::new(3, "bad pair")),
        );
        assert_eq!(response_request_id(&err), Some(7));
        assert_eq!(
            strip_request_id(&err),
            error_response(
                None,
                None,
                &QisimError::Decode(qisim::error::DecodeError::new(3, "bad pair")),
            )
        );
        // Absent pair: stripping is the identity, extraction is None.
        let plain = busy_response(None, None, "shed");
        assert_eq!(response_request_id(&plain), None);
        assert_eq!(strip_request_id(&plain), plain);
    }
}
