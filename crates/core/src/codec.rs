//! A zero-dependency `key = value` text codec for the pipeline's
//! boundary artifacts: [`DesignSpec`] inputs and [`Scalability`]
//! verdicts round-trip losslessly through plain text.
//!
//! The format is deliberately boring — one artifact per document, a
//! versioned header line, `#` comments, one `key = value` pair per line —
//! so spec files can be written by hand, diffed in review, and replayed
//! by a batch search without any serde machinery (the workspace builds
//! fully offline). Floats are rendered with Rust's shortest round-trip
//! `Display`, so `parse(encode(x)) == x` bit-for-bit.
//!
//! # Examples
//!
//! ```
//! use qisim::codec;
//! use qisim::spec::{DesignSpec, Preset};
//!
//! let spec = DesignSpec::new(Preset::CmosBaseline).drive_bits(6).name("lab-7");
//! let text = codec::encode_spec(&spec);
//! assert_eq!(codec::parse_spec(&text).unwrap(), spec);
//! ```

use crate::error::{DecodeError, QisimError};
use crate::scalability::{Scalability, ScaleOut, ScaleOutBinding};
use crate::spec::{knob_for, DesignSpec, Estimator, Preset, KNOBS};
use qisim_hal::fridge::Stage;
use qisim_hal::topology::LinkKind;
use qisim_microarch::sfq::{BitgenKind, JpmSharing};
use qisim_microarch::DecisionKind;
use std::fmt::Write as _;

/// Header line of a serialized [`DesignSpec`].
pub const SPEC_HEADER: &str = "qisim spec v1";
/// Header line of a serialized [`Scalability`] report.
pub const SCALABILITY_HEADER: &str = "qisim scalability v1";

/// One `key = value` pair and the 1-based line it is reported at.
pub type Pair<'a> = (usize, &'a str, &'a str);

/// The one reader behind every `key = value` text: spec and verdict
/// documents and `qisim-serve` request lines. It remembers which keys a
/// text has given and words the duplicate-, unknown- and missing-key
/// diagnostics for all of them.
#[derive(Debug, Default)]
pub struct KeyReader<'a> {
    seen: Vec<&'a str>,
}

impl<'a> KeyReader<'a> {
    /// Claims `key`, read at `line`. `found` is what the text's grammar
    /// declares under the key (`None`: an unknown key); a key claimed
    /// before is a duplicate.
    ///
    /// # Errors
    ///
    /// A duplicate or unknown key, anchored at `line`.
    pub fn claim<T>(
        &mut self,
        line: usize,
        key: &'a str,
        found: Option<T>,
    ) -> Result<T, DecodeError> {
        if self.seen(key) {
            return Err(DecodeError::new(line, format!("duplicate key `{key}`")));
        }
        let found = found.ok_or_else(|| DecodeError::new(line, format!("unknown key `{key}`")))?;
        self.seen.push(key);
        Ok(found)
    }

    /// Whether `key` has been claimed.
    pub fn seen(&self, key: &str) -> bool {
        self.seen.contains(&key)
    }

    /// Fails, about the text as a whole (line 0), unless `key` has been
    /// claimed.
    ///
    /// # Errors
    ///
    /// The missing-key diagnostic.
    pub fn require(&self, key: &str) -> Result<(), DecodeError> {
        if self.seen(key) {
            Ok(())
        } else {
            Err(Self::missing(0, key))
        }
    }

    /// The diagnostic for a text without `key`, anchored at `line`.
    pub fn missing(line: usize, key: &str) -> DecodeError {
        DecodeError::new(line, format!("missing key `{key}`"))
    }
}

/// How a spec knob's value reads and writes as text: numbers, flags and
/// names through `FromStr`/`Display`, enums through their labels.
pub(crate) trait KnobValue: Sized {
    /// Appends the `key = value` line.
    fn write_pair(&self, key: &str, out: &mut String);
    /// Parses the value of `key` read at `line`.
    fn read(line: usize, key: &str, value: &str) -> Result<Self, DecodeError>;
}

macro_rules! display_values {
    ($($t:ty),*) => {$(
        impl KnobValue for $t {
            fn write_pair(&self, key: &str, out: &mut String) {
                let _ = writeln!(out, "{key} = {self}");
            }
            fn read(line: usize, key: &str, value: &str) -> Result<Self, DecodeError> {
                parse_num(line, key, value)
            }
        }
    )*};
}
display_values!(String, u32, f64, bool);

macro_rules! label_values {
    ($($t:ty),*) => {$(
        impl KnobValue for $t {
            fn write_pair(&self, key: &str, out: &mut String) {
                let _ = writeln!(out, "{key} = {}", self.label());
            }
            fn read(line: usize, key: &str, value: &str) -> Result<Self, DecodeError> {
                parse_label(line, key, value, <$t>::from_label)
            }
        }
    )*};
}
label_values!(Estimator, DecisionKind, BitgenKind, JpmSharing, LinkKind);

/// Serializes a [`DesignSpec`] (only the overrides that are actually
/// set, so the document reads like the builder chain that made it).
pub fn encode_spec(spec: &DesignSpec) -> String {
    let mut out = format!("{SPEC_HEADER}\npreset = {}\n", spec.preset.id());
    for knob in &KNOBS {
        (knob.encode)(spec, &mut out);
    }
    out
}

/// Parses the output of [`encode_spec`].
///
/// # Errors
///
/// Returns [`QisimError::Decode`] with a 1-based line number for a
/// missing/wrong header, an unknown or duplicate key, or an unparsable
/// value. Parsing does **not** validate knob ranges — that stays with
/// [`DesignSpec::build`], so a well-formed file carrying a bad knob
/// still round-trips and diagnoses at build time.
pub fn parse_spec(text: &str) -> Result<DesignSpec, QisimError> {
    let (header_line, lines) = content_lines(text, SPEC_HEADER)?;
    Ok(read_spec(header_line + 1, lines)?)
}

/// Reads a spec from its pairs in text order: the path behind
/// [`parse_spec`] and `qisim-serve` request lines. `preset` must come
/// first; a text without it fails at `preset_line`, where it belongs.
///
/// # Errors
///
/// The first bad pair's [`DecodeError`].
pub fn read_spec<'a>(
    preset_line: usize,
    pairs: impl IntoIterator<Item = Result<Pair<'a>, DecodeError>>,
) -> Result<DesignSpec, DecodeError> {
    let mut pairs = pairs.into_iter();
    let Some((line, key, value)) = pairs.next().transpose()? else {
        return Err(KeyReader::missing(preset_line, "preset"));
    };
    if key != "preset" {
        return Err(DecodeError::new(line, "first key must be `preset`"));
    }
    let preset = Preset::from_id(value)
        .ok_or_else(|| DecodeError::new(line, format!("unknown preset `{value}`")))?;
    let mut spec = DesignSpec::new(preset);
    let mut reader = KeyReader::default();
    reader.claim(line, key, Some(()))?;
    for pair in pairs {
        let (line, key, value) = pair?;
        let knob = reader.claim(line, key, knob_for(line, key)?)?;
        (knob.decode)(&mut spec, line, key, value)?;
    }
    Ok(spec)
}

/// Serializes a [`Scalability`] verdict, per-stage watt attribution
/// included.
pub fn encode_scalability(report: &Scalability) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{SCALABILITY_HEADER}");
    let _ = writeln!(out, "design = {}", report.design);
    let _ = writeln!(out, "power_limited_qubits = {}", report.power_limited_qubits);
    match report.binding_stage {
        Some(stage) => {
            let _ = writeln!(out, "binding_stage = {}", stage.label());
        }
        None => {
            let _ = writeln!(out, "binding_stage = -");
        }
    }
    let _ = writeln!(out, "logical_error = {}", report.logical_error);
    let _ = writeln!(out, "target_error = {}", report.target_error);
    let _ = writeln!(out, "error_ok = {}", report.error_ok);
    let _ = writeln!(out, "esm_cycle_ns = {}", report.esm_cycle_ns);
    let _ = writeln!(out, "stages = {}", report.stages.len());
    for (i, s) in report.stages.iter().enumerate() {
        let _ = writeln!(
            out,
            "stage.{i} = {} {} {} {} {} {}",
            s.stage.label(),
            s.device_static_w,
            s.device_dynamic_w,
            s.wire_w,
            s.instr_link_w,
            s.budget_w,
        );
    }
    // Scale-out block: only multi-fridge verdicts carry one, so every
    // pre-scale-out document stays byte-identical.
    if let Some(so) = &report.scale_out {
        let _ = writeln!(out, "scaleout.fridges = {}", so.fridges);
        let _ = writeln!(out, "scaleout.link = {}", so.link.label());
        let _ = writeln!(out, "scaleout.links_per_fridge = {}", so.links_per_fridge);
        let _ = writeln!(out, "scaleout.shared_controllers = {}", so.shared_controllers);
        let _ = writeln!(out, "scaleout.per_fridge_qubits = {}", so.per_fridge_qubits);
        let _ = writeln!(out, "scaleout.target_qubits = {}", so.target_qubits);
        match so.fridges_to_target {
            Some(n) => {
                let _ = writeln!(out, "scaleout.fridges_to_target = {n}");
            }
            None => {
                let _ = writeln!(out, "scaleout.fridges_to_target = -");
            }
        }
        match so.binding {
            Some(b) => {
                let _ = writeln!(out, "scaleout.binding = {}", b.label());
            }
            None => {
                let _ = writeln!(out, "scaleout.binding = -");
            }
        }
        let [a, b, c, d, e] = so.interconnect_w;
        let _ = writeln!(out, "scaleout.interconnect_w = {a} {b} {c} {d} {e}");
    }
    out
}

/// The headline verdict keys, in the order a missing one is reported
/// (after `stages` and the scale-out block).
const HEADLINE_KEYS: [&str; 7] = [
    "design",
    "power_limited_qubits",
    "binding_stage",
    "logical_error",
    "target_error",
    "error_ok",
    "esm_cycle_ns",
];

/// The scale-out block's keys, in the order a missing one is reported.
/// The block is all-or-nothing: absent entirely from classic verdicts,
/// and every key required once any appears.
const SCALEOUT_KEYS: [&str; 9] = [
    "scaleout.fridges",
    "scaleout.link",
    "scaleout.links_per_fridge",
    "scaleout.shared_controllers",
    "scaleout.per_fridge_qubits",
    "scaleout.interconnect_w",
    "scaleout.target_qubits",
    "scaleout.fridges_to_target",
    "scaleout.binding",
];

/// Parses the output of [`encode_scalability`].
///
/// # Errors
///
/// Returns [`QisimError::Decode`] with a 1-based line number for a bad
/// header, missing or duplicate keys, unparsable values, or a stage
/// count that does not match the `stage.<i>` rows.
pub fn parse_scalability(text: &str) -> Result<Scalability, QisimError> {
    let mut report = Scalability {
        design: String::new(),
        power_limited_qubits: 0,
        binding_stage: None,
        stages: Vec::new(),
        logical_error: 0.0,
        target_error: 0.0,
        error_ok: false,
        esm_cycle_ns: 0.0,
        scale_out: None,
    };
    let mut so = ScaleOut {
        fridges: 0,
        link: LinkKind::RoomCoax,
        links_per_fridge: 0,
        shared_controllers: false,
        per_fridge_qubits: 0,
        interconnect_w: [0.0; 5],
        target_qubits: 0,
        fridges_to_target: None,
        binding: None,
    };
    let mut n_stages = 0usize;
    let mut reader = KeyReader::default();
    let (_, lines) = content_lines(text, SCALABILITY_HEADER)?;
    for item in lines {
        let (line, key, value) = item?;
        if let Some(idx) = key.strip_prefix("stage.") {
            let idx: usize = parse_num(line, key, idx)?;
            if idx != report.stages.len() {
                return Err(DecodeError::new(
                    line,
                    format!("stage rows must be in order; expected stage.{}", report.stages.len()),
                )
                .into());
            }
            report.stages.push(parse_stage_row(line, value)?);
            continue;
        }
        let known = key == "stages" || HEADLINE_KEYS.contains(&key) || SCALEOUT_KEYS.contains(&key);
        reader.claim(line, key, known.then_some(()))?;
        match key {
            "design" => report.design = value.to_string(),
            "power_limited_qubits" => report.power_limited_qubits = parse_num(line, key, value)?,
            "binding_stage" => {
                report.binding_stage = sentinel(value, |v| {
                    Stage::from_label(v).ok_or_else(|| {
                        DecodeError::new(line, format!("unknown fridge stage `{v}`"))
                    })
                })?;
            }
            "logical_error" => report.logical_error = parse_num(line, key, value)?,
            "target_error" => report.target_error = parse_num(line, key, value)?,
            "error_ok" => report.error_ok = parse_num(line, key, value)?,
            "esm_cycle_ns" => report.esm_cycle_ns = parse_num(line, key, value)?,
            "stages" => n_stages = parse_num(line, key, value)?,
            "scaleout.fridges" => so.fridges = parse_num(line, key, value)?,
            "scaleout.link" => so.link = parse_label(line, key, value, LinkKind::from_label)?,
            "scaleout.links_per_fridge" => so.links_per_fridge = parse_num(line, key, value)?,
            "scaleout.shared_controllers" => so.shared_controllers = parse_num(line, key, value)?,
            "scaleout.per_fridge_qubits" => so.per_fridge_qubits = parse_num(line, key, value)?,
            "scaleout.target_qubits" => so.target_qubits = parse_num(line, key, value)?,
            "scaleout.fridges_to_target" => {
                so.fridges_to_target = sentinel(value, |v| parse_num(line, key, v))?;
            }
            "scaleout.binding" => {
                so.binding =
                    sentinel(value, |v| parse_label(line, key, v, ScaleOutBinding::from_label))?;
            }
            "scaleout.interconnect_w" => {
                let mut fields = value.split_whitespace();
                for w in &mut so.interconnect_w {
                    let field = fields.next().ok_or_else(|| {
                        DecodeError::new(line, "scaleout.interconnect_w needs 5 stage fields")
                    })?;
                    *w = parse_num(line, key, field)?;
                }
                if fields.next().is_some() {
                    return Err(DecodeError::new(
                        line,
                        "trailing fields in scaleout.interconnect_w",
                    )
                    .into());
                }
            }
            // `claim` let no other key through.
            _ => {}
        }
    }
    reader.require("stages")?;
    if report.stages.len() != n_stages {
        return Err(DecodeError::new(
            0,
            format!("stages = {n_stages} but {} stage rows present", report.stages.len()),
        )
        .into());
    }
    if SCALEOUT_KEYS.iter().any(|key| reader.seen(key)) {
        for key in SCALEOUT_KEYS {
            reader.require(key)?;
        }
        report.scale_out = Some(so);
    }
    for key in HEADLINE_KEYS {
        reader.require(key)?;
    }
    Ok(report)
}

/// Parses a value written as `-` when absent.
fn sentinel<T>(
    value: &str,
    parse: impl FnOnce(&str) -> Result<T, DecodeError>,
) -> Result<Option<T>, DecodeError> {
    if value == "-" {
        Ok(None)
    } else {
        parse(value).map(Some)
    }
}

/// One `stage.<i>` row: `<label> <static> <dynamic> <wire> <link>
/// <budget>`.
fn parse_stage_row(line_no: usize, value: &str) -> Result<qisim_power::StagePower, QisimError> {
    let mut fields = value.split_whitespace();
    let Some(label) = fields.next() else {
        return Err(DecodeError::new(line_no, "empty stage row").into());
    };
    let stage = Stage::from_label(label)
        .ok_or_else(|| DecodeError::new(line_no, format!("unknown fridge stage `{label}`")))?;
    let mut watts = |name: &str| -> Result<f64, QisimError> {
        let Some(field) = fields.next() else {
            return Err(DecodeError::new(line_no, format!("stage row is missing {name}")).into());
        };
        Ok(parse_num(line_no, name, field)?)
    };
    let row = qisim_power::StagePower {
        stage,
        device_static_w: watts("device_static_w")?,
        device_dynamic_w: watts("device_dynamic_w")?,
        wire_w: watts("wire_w")?,
        instr_link_w: watts("instr_link_w")?,
        budget_w: watts("budget_w")?,
    };
    if fields.next().is_some() {
        return Err(DecodeError::new(line_no, "trailing fields in stage row").into());
    }
    Ok(row)
}

/// Checks the header, then yields the 1-based header line number plus a
/// [`Pair`] for every non-empty, non-comment line.
///
/// An empty document (no content at all, or only blank/comment lines —
/// including a lone trailing newline) anchors its error at line 1: there
/// is no ambiguous "empty success" and no line-0 diagnostic for input a
/// user can actually point at.
fn content_lines<'a>(
    text: &'a str,
    header: &'static str,
) -> Result<(usize, impl Iterator<Item = Result<Pair<'a>, DecodeError>>), QisimError> {
    let mut lines = text.lines().enumerate().filter(|(_, line)| {
        let t = line.trim();
        !t.is_empty() && !t.starts_with('#')
    });
    let header_line = match lines.next() {
        Some((i, line)) if line.trim() == header => i + 1,
        Some((i, line)) => {
            return Err(DecodeError::new(
                i + 1,
                format!("expected header `{header}`, found `{}`", line.trim()),
            )
            .into());
        }
        None => return Err(DecodeError::new(1, format!("empty document (no `{header}`)")).into()),
    };
    Ok((
        header_line,
        lines.map(|(i, line)| {
            let line_no = i + 1;
            match line.split_once('=') {
                Some((key, value)) => Ok((line_no, key.trim(), value.trim())),
                None => Err(DecodeError::new(
                    line_no,
                    format!("expected `key = value`, found `{}`", line.trim()),
                )),
            }
        }),
    ))
}

/// Parses any `FromStr` value with a line-anchored diagnostic.
fn parse_num<T: std::str::FromStr>(
    line_no: usize,
    key: &str,
    value: &str,
) -> Result<T, DecodeError> {
    value
        .parse()
        .map_err(|_| DecodeError::new(line_no, format!("cannot parse `{value}` for `{key}`")))
}

/// Parses a labelled enum (`from_label`-style) with a line-anchored
/// diagnostic.
fn parse_label<T>(
    line_no: usize,
    key: &str,
    value: &str,
    from_label: impl Fn(&str) -> Option<T>,
) -> Result<T, DecodeError> {
    from_label(value).ok_or_else(|| DecodeError::new(line_no, format!("unknown {key} `{value}`")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::QisimError;

    #[test]
    fn spec_documents_only_list_set_overrides() {
        let text = encode_spec(&DesignSpec::new(Preset::RsfqBaseline));
        assert_eq!(text, "qisim spec v1\npreset = rsfq_baseline\n");
        let text = encode_spec(&DesignSpec::new(Preset::CmosBaseline).drive_bits(6));
        assert!(text.contains("drive_bits = 6"), "{text}");
        assert!(!text.contains("drive_fdm"), "{text}");
    }

    #[test]
    fn estimator_key_round_trips_and_defaults_stay_byte_identical() {
        // A default spec never mentions the estimator — pre-knob
        // documents and encoders stay byte-for-byte identical.
        let text = encode_spec(&DesignSpec::new(Preset::RsfqBaseline));
        assert_eq!(text, "qisim spec v1\npreset = rsfq_baseline\n");
        for e in Estimator::ALL {
            let spec = DesignSpec::new(Preset::CmosBaseline).estimator(e);
            let text = encode_spec(&spec);
            assert!(text.contains(&format!("estimator = {}", e.label())), "{text}");
            assert_eq!(parse_spec(&text).unwrap(), spec);
        }
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let spec = parse_spec(
            "# a hand-written spec\n\nqisim spec v1\n# the preset\npreset = cmos_baseline\n\ndrive_bits = 6\n",
        )
        .unwrap();
        assert_eq!(spec, DesignSpec::new(Preset::CmosBaseline).drive_bits(6));
    }

    #[test]
    fn parse_failures_carry_line_numbers() {
        let err = |text: &str| match parse_spec(text) {
            Err(QisimError::Decode(e)) => e,
            other => panic!("expected a decode error, got {other:?}"),
        };
        assert_eq!(err("not a spec\n").line, 1);
        let e = err("qisim spec v1\npreset = cmos_baseline\nfrobnicate = 1\n");
        assert_eq!(e.line, 3);
        assert!(e.reason.contains("frobnicate"), "{e}");
        let e = err("qisim spec v1\npreset = cmos_baseline\ndrive_bits = banana\n");
        assert_eq!(e.line, 3);
        let e = err("qisim spec v1\npreset = cmos_baseline\ndrive_bits = 6\ndrive_bits = 7\n");
        assert!(e.reason.contains("duplicate"), "{e}");
        assert_eq!(err("qisim spec v1\npreset = warp_drive\n").line, 2);
    }

    #[test]
    fn empty_and_header_only_documents_are_line_anchored_errors() {
        let err = |text: &str| match parse_spec(text) {
            Err(QisimError::Decode(e)) => e,
            other => panic!("expected a decode error, got {other:?}"),
        };
        // Nothing at all, a lone newline, and whitespace/comment-only
        // documents all anchor at line 1 (never the ambiguous line 0).
        for text in ["", "\n", "   \n", "# just a comment\n", "\n\n# note\n\n"] {
            let e = err(text);
            assert_eq!(e.line, 1, "{text:?}");
            assert!(e.reason.contains("empty document"), "{e}");
        }
        // A header with nothing after it anchors where `preset` belongs.
        let e = err("qisim spec v1\n");
        assert_eq!(e.line, 2);
        assert!(e.reason.contains("missing key `preset`"), "{e}");
        // Leading comments shift the anchor with the header.
        let e = err("# comment\n\nqisim spec v1\n");
        assert_eq!(e.line, 4);
        match parse_scalability("\n") {
            Err(QisimError::Decode(e)) => assert_eq!(e.line, 1),
            other => panic!("expected a decode error, got {other:?}"),
        }
    }

    #[test]
    fn specs_keep_invalid_knobs_for_build_to_diagnose() {
        // The codec ships the file; validation stays with build().
        let spec = parse_spec("qisim spec v1\npreset = cmos_baseline\ndrive_fdm = 0\n").unwrap();
        assert!(spec.build().is_err());
    }

    #[test]
    fn scalability_round_trips_non_finite_free() {
        let report = Scalability {
            design: "4K CMOS baseline".to_string(),
            power_limited_qubits: 1034,
            binding_stage: Some(Stage::K4),
            stages: vec![qisim_power::StagePower {
                stage: Stage::K4,
                device_static_w: 0.1234567890123,
                device_dynamic_w: 2e-3,
                wire_w: 0.0,
                instr_link_w: 1.5e-7,
                budget_w: 1.5,
            }],
            logical_error: 3.1e-12,
            target_error: 1.11e-11,
            error_ok: true,
            esm_cycle_ns: 1437.5,
            scale_out: None,
        };
        let text = encode_scalability(&report);
        assert_eq!(parse_scalability(&text).unwrap(), report);
        // A classic verdict never mentions the scale-out block.
        assert!(!text.contains("scaleout."), "{text}");
        // A report with no binding stage uses the `-` sentinel.
        let unbound = Scalability { binding_stage: None, ..report };
        let text = encode_scalability(&unbound);
        assert!(text.contains("binding_stage = -"), "{text}");
        assert_eq!(parse_scalability(&text).unwrap(), unbound);
    }

    #[test]
    fn spec_topology_keys_round_trip() {
        use crate::spec::{DesignSpec, Preset};
        let spec = DesignSpec::new(Preset::CmosBaseline)
            .fridges(4)
            .link(LinkKind::Photonic)
            .links_per_fridge(8)
            .shared_controllers(false);
        let text = encode_spec(&spec);
        assert!(text.contains("fridges = 4"), "{text}");
        assert!(text.contains("link = photonic"), "{text}");
        assert!(text.contains("links_per_fridge = 8"), "{text}");
        assert!(text.contains("shared_controllers = false"), "{text}");
        assert_eq!(parse_spec(&text).unwrap(), spec);
        // Specs without topology overrides never mention the keys.
        let plain = encode_spec(&DesignSpec::new(Preset::CmosBaseline));
        for key in ["fridges", "link", "links_per_fridge", "shared_controllers"] {
            assert!(!plain.contains(key), "{plain}");
        }
    }

    #[test]
    fn scaleout_block_round_trips_and_is_all_or_nothing() {
        use crate::scalability::{ScaleOut, ScaleOutBinding};
        let base = Scalability {
            design: "cluster".to_string(),
            power_limited_qubits: 4000,
            binding_stage: Some(Stage::Mk20),
            stages: Vec::new(),
            logical_error: 1e-12,
            target_error: 1e-11,
            error_ok: true,
            esm_cycle_ns: 1437.5,
            scale_out: Some(ScaleOut {
                fridges: 4,
                link: LinkKind::Photonic,
                links_per_fridge: 2,
                shared_controllers: true,
                per_fridge_qubits: 1000,
                interconnect_w: [0.0, 1.25e-3, 0.0, 0.0, 1.58e-6],
                target_qubits: 9216,
                fridges_to_target: Some(10),
                binding: Some(ScaleOutBinding::Link(Stage::Mk20)),
            }),
        };
        let text = encode_scalability(&base);
        assert!(text.contains("scaleout.binding = link:20mK"), "{text}");
        assert_eq!(parse_scalability(&text).unwrap(), base);
        // Sentinels: an unreachable target and no binding constraint.
        let unbound = Scalability {
            scale_out: base.scale_out.clone().map(|so| ScaleOut {
                fridges_to_target: None,
                binding: None,
                ..so
            }),
            ..base.clone()
        };
        let text = encode_scalability(&unbound);
        assert!(text.contains("scaleout.fridges_to_target = -"), "{text}");
        assert!(text.contains("scaleout.binding = -"), "{text}");
        assert_eq!(parse_scalability(&text).unwrap(), unbound);
        // The StageBudget flavour round-trips too.
        let stagebound = Scalability {
            scale_out: base.scale_out.clone().map(|so| ScaleOut {
                binding: Some(ScaleOutBinding::StageBudget(Stage::K4)),
                ..so
            }),
            ..base.clone()
        };
        let text = encode_scalability(&stagebound);
        assert!(text.contains("scaleout.binding = stage:4K"), "{text}");
        assert_eq!(parse_scalability(&text).unwrap(), stagebound);
        // A partial block is a typed diagnostic, not a silent None.
        let text = encode_scalability(&base);
        let partial: String =
            text.lines().filter(|l| !l.starts_with("scaleout.link")).collect::<Vec<_>>().join("\n");
        match parse_scalability(&partial) {
            Err(QisimError::Decode(e)) => {
                assert!(e.reason.contains("scaleout.link"), "{e}");
            }
            other => panic!("expected a decode error, got {other:?}"),
        }
        // A malformed interconnect row is line-anchored.
        let short = text.replace(
            "scaleout.interconnect_w = 0 0.00125 0 0 0.00000158",
            "scaleout.interconnect_w = 0 1",
        );
        assert_ne!(short, text, "replacement must hit the encoded row");
        assert!(parse_scalability(&short).is_err());
    }

    #[test]
    fn scalability_stage_rows_are_checked() {
        let report = Scalability {
            design: "x".to_string(),
            power_limited_qubits: 1,
            binding_stage: None,
            stages: Vec::new(),
            logical_error: 0.0,
            target_error: 0.0,
            error_ok: true,
            esm_cycle_ns: 1.0,
            scale_out: None,
        };
        let good = encode_scalability(&report);
        assert_eq!(parse_scalability(&good).unwrap(), report);
        // Claiming a stage that is not present fails the count check.
        let lying = good.replace("stages = 0", "stages = 2");
        assert!(parse_scalability(&lying).is_err());
        // A truncated stage row is a line-anchored error.
        let text = "qisim scalability v1\ndesign = x\npower_limited_qubits = 1\n\
                    binding_stage = -\nlogical_error = 0\ntarget_error = 0\nerror_ok = true\n\
                    esm_cycle_ns = 1\nstages = 1\nstage.0 = 4K 1 2 3\n";
        match parse_scalability(text) {
            Err(QisimError::Decode(e)) => {
                assert_eq!(e.line, 10);
                assert!(e.reason.contains("missing"), "{e}");
            }
            other => panic!("expected a decode error, got {other:?}"),
        }
    }
}
