//! Round-trip tests of the zero-dependency text codec: every paper
//! design spec and every analysis verdict must survive
//! `parse(encode(x)) == x` bit-for-bit, so a batch design-space search
//! can ship specs and replay reports through plain text files.

use qisim::codec;
use qisim::engine;
use qisim::error::QisimError;
use qisim::hal::fridge::Stage;
use qisim::microarch::sfq::{BitgenKind, JpmSharing};
use qisim::microarch::DecisionKind;
use qisim::spec::{DesignSpec, Preset};
use qisim::surface::target::Target;
use qisim::Opt;

/// Specs covering all nine presets, the paper's optimized variants, and
/// the name/budget override features.
fn paper_specs() -> Vec<DesignSpec> {
    let mut specs: Vec<DesignSpec> = Preset::ALL.iter().map(|&p| DesignSpec::new(p)).collect();
    // Fig. 13a: CMOS baseline + Opt-1 + Opt-2.
    specs.push(
        DesignSpec::new(Preset::CmosBaseline)
            .apply(Opt::MemorylessDecision)
            .apply(Opt::LowPrecisionDrive),
    );
    // Fig. 13b: RSFQ baseline + Opt-3/4/5.
    specs.push(
        DesignSpec::new(Preset::RsfqBaseline)
            .apply(Opt::SharedPipelinedReadout)
            .apply(Opt::LowPowerBitgen)
            .apply(Opt::SingleBroadcast),
    );
    // Fig. 17a: long-term CMOS + Opt-6 + Opt-7.
    specs.push(
        DesignSpec::new(Preset::CmosLongTerm)
            .apply(Opt::MaskedIsa)
            .apply(Opt::FastMultiRoundReadout),
    );
    // Fig. 17b: ERSFQ + Opt-8.
    specs.push(DesignSpec::new(Preset::ErsfqLongTerm).apply(Opt::FastDrivingUnshared));
    // Every remaining knob and override feature in one spec.
    specs.push(
        DesignSpec::new(Preset::CmosBaseline)
            .name("what-if: big 4K stage")
            .drive_fdm(24)
            .decision(DecisionKind::SinglePoint)
            .readout_ns(437.5)
            .analog_scale(0.25)
            .budget(Stage::K4, 6.0)
            .budget(Stage::Mk20, 0.002),
    );
    specs.push(
        DesignSpec::new(Preset::RsfqBaseline)
            .bitgen(BitgenKind::SplitterShared)
            .sharing(JpmSharing::SharedNaive)
            .fast_driving(false)
            .bs(4),
    );
    specs
}

#[test]
fn every_paper_spec_round_trips_losslessly() {
    for spec in paper_specs() {
        let text = codec::encode_spec(&spec);
        let parsed = codec::parse_spec(&text).unwrap_or_else(|e| {
            panic!("{} failed to parse its own encoding: {e}\n{text}", spec.display_name())
        });
        assert_eq!(parsed, spec, "round-trip mismatch for\n{text}");
        // Round-tripped specs build the same design point.
        assert_eq!(
            parsed.build().map_err(|e| e.to_string()),
            spec.build().map_err(|e| e.to_string())
        );
    }
}

#[test]
fn scalability_reports_round_trip_for_both_targets() {
    for target in [Target::near_term(), Target::long_term()] {
        for preset in Preset::ALL {
            let spec = DesignSpec::new(preset);
            let report = engine::try_analyze_spec(&spec, &target).expect("paper preset");
            let text = codec::encode_scalability(&report);
            let parsed = codec::parse_scalability(&text)
                .unwrap_or_else(|e| panic!("{} report failed to parse: {e}\n{text}", preset.id()));
            // Bit-for-bit: floats ride the shortest round-trip Display.
            assert_eq!(parsed, report, "round-trip mismatch for\n{text}");
        }
    }
}

#[test]
fn spec_files_are_stable_under_reencoding() {
    for spec in paper_specs() {
        let once = codec::encode_spec(&spec);
        let twice = codec::encode_spec(&codec::parse_spec(&once).expect("own encoding"));
        assert_eq!(once, twice, "encoding must be canonical");
    }
}

#[test]
fn hand_written_spec_files_replay_through_the_engine() {
    let text = "# Fig. 13a optimized design on a doubled 4 K budget\n\
                qisim spec v1\n\
                preset = cmos_baseline\n\
                name = opt12 on big fridge\n\
                decision = memoryless\n\
                drive_bits = 6\n\
                budget.4K = 3\n";
    let spec = codec::parse_spec(text).expect("hand-written spec");
    let report = engine::try_analyze_spec(&spec, &Target::near_term()).expect("valid spec");
    assert_eq!(report.design, "opt12 on big fridge");
    // The doubled budget must beat the standard-fridge run.
    let std_spec = codec::parse_spec(
        "qisim spec v1\npreset = cmos_baseline\ndecision = memoryless\ndrive_bits = 6\n",
    )
    .expect("spec");
    let std_report = engine::try_analyze_spec(&std_spec, &Target::near_term()).expect("valid spec");
    assert!(report.power_limited_qubits > std_report.power_limited_qubits);
}

/// Regression: empty input and trailing-newline-only input used to
/// anchor at the ambiguous line 0 (a "whole document" diagnostic a user
/// cannot point at in an editor). Both must be typed decode errors
/// anchored at an actual line.
#[test]
fn empty_and_trailing_newline_documents_are_typed_line_anchored_errors() {
    let decode_err = |text: &str| match codec::parse_spec(text) {
        Err(QisimError::Decode(e)) => e,
        other => panic!("expected a decode error for {text:?}, got {other:?}"),
    };
    for text in ["", "\n", "\n\n", "  \n", "# only a comment\n"] {
        let e = decode_err(text);
        assert_eq!(e.line, 1, "empty document {text:?} must anchor at line 1");
        assert!(e.reason.contains("empty document"), "{e}");
    }
    // A header followed only by its trailing newline: the error points
    // at line 2, where the mandatory `preset` key belongs.
    let e = decode_err("qisim spec v1\n");
    assert_eq!(e.line, 2);
    assert!(e.reason.contains("missing key `preset`"), "{e}");
    // Same grammar, same anchoring for report documents.
    match codec::parse_scalability("") {
        Err(QisimError::Decode(e)) => {
            assert_eq!(e.line, 1);
            assert!(e.reason.contains("empty document"), "{e}");
        }
        other => panic!("expected a decode error, got {other:?}"),
    }
}

/// A verdict document with one stage row and no scale-out block.
const VERDICT: &str = "qisim scalability v1\ndesign = x\npower_limited_qubits = 1\n\
binding_stage = 4K\nlogical_error = 0\ntarget_error = 0\nerror_ok = true\nesm_cycle_ns = 1\n\
stages = 1\nstage.0 = 4K 1 2 3 4 5\n";

/// [`VERDICT`] plus the scale-out block (lines 11–19, in encode order).
const SCALED: &str = "qisim scalability v1\ndesign = x\npower_limited_qubits = 1\n\
binding_stage = 4K\nlogical_error = 0\ntarget_error = 0\nerror_ok = true\nesm_cycle_ns = 1\n\
stages = 1\nstage.0 = 4K 1 2 3 4 5\nscaleout.fridges = 4\nscaleout.link = photonic\n\
scaleout.links_per_fridge = 2\nscaleout.shared_controllers = true\n\
scaleout.per_fridge_qubits = 1000\nscaleout.target_qubits = 9216\n\
scaleout.fridges_to_target = 10\nscaleout.binding = link:20mK\n\
scaleout.interconnect_w = 0 1 0 0 2\n";

/// `doc` without the lines whose key is one of `keys`.
fn without(doc: &str, keys: &[&str]) -> String {
    doc.lines().filter(|l| !keys.contains(&key_of(l))).map(|l| format!("{l}\n")).collect()
}

/// `doc` with the line for `key` set to `key = value`.
fn set(doc: &str, key: &str, value: &str) -> String {
    let line =
        |l: &str| if key_of(l) == key { format!("{key} = {value}\n") } else { format!("{l}\n") };
    doc.lines().map(line).collect()
}

fn key_of(line: &str) -> &str {
    line.split('=').next().unwrap_or("").trim()
}

/// Every decode diagnostic of spec and verdict documents, pinned to its
/// exact `(line, reason)` (`qisim-serve`'s proto tests pin the
/// request-line diagnostics the same way).
#[test]
fn decode_failures_are_line_anchored_decode_errors() {
    let spec = |body: &str| format!("qisim spec v1\npreset = cmos_baseline\n{body}");
    let spec_cases: Vec<(String, usize, &str)> = vec![
        ("not a spec\n".into(), 1, "expected header `qisim spec v1`, found `not a spec`"),
        ("# note\n\n".into(), 1, "empty document (no `qisim spec v1`)"),
        ("qisim spec v1\n".into(), 2, "missing key `preset`"),
        ("# note\n\nqisim spec v1\n".into(), 4, "missing key `preset`"),
        (
            "qisim spec v1\nname = x\npreset = rsfq_baseline\n".into(),
            2,
            "first key must be `preset`",
        ),
        ("qisim spec v1\npreset = warp\n".into(), 2, "unknown preset `warp`"),
        ("qisim spec v1\npreset\n".into(), 2, "expected `key = value`, found `preset`"),
        (spec("preset = rsfq_baseline\n"), 3, "duplicate key `preset`"),
        (spec("drive_bits = 6\ndrive_bits = 7\n"), 4, "duplicate key `drive_bits`"),
        (spec("drive_bits = 6\ndrive_bits = banana\n"), 4, "duplicate key `drive_bits`"),
        (spec("name = a\n# c\nname = b\n"), 5, "duplicate key `name`"),
        (spec("budget.4K = 2\nbudget.1K = 1\nbudget.4K = 3\n"), 5, "duplicate key `budget.4K`"),
        (spec("fridges = 2\nfridges = 3\n"), 4, "duplicate key `fridges`"),
        (spec("estimator = rare\nestimator = rare\n"), 4, "duplicate key `estimator`"),
        (spec("frobnicate = 1\n"), 3, "unknown key `frobnicate`"),
        (spec("= 1\n"), 3, "unknown key ``"),
        (spec("budget.3K = 1\n"), 3, "unknown fridge stage `3K`"),
        (spec("budget.<stage> = 1\n"), 3, "unknown fridge stage `<stage>`"),
        (spec("estimator = oracle\n"), 3, "unknown estimator `oracle`"),
        (spec("decision = coin_flip\n"), 3, "unknown decision `coin_flip`"),
        (spec("bitgen = magic\n"), 3, "unknown bitgen `magic`"),
        (spec("sharing = everyone\n"), 3, "unknown sharing `everyone`"),
        (spec("link = warp\n"), 3, "unknown link `warp`"),
        (spec("drive_bits = banana\n"), 3, "cannot parse `banana` for `drive_bits`"),
        (spec("drive_fdm = -1\n"), 3, "cannot parse `-1` for `drive_fdm`"),
        (spec("masked_isa = yes\n"), 3, "cannot parse `yes` for `masked_isa`"),
        (spec("readout_ns = fast\n"), 3, "cannot parse `fast` for `readout_ns`"),
        (spec("budget.4K = lots\n"), 3, "cannot parse `lots` for `budget.4K`"),
        (spec("bs = x\nfrobnicate = 1\n"), 3, "cannot parse `x` for `bs`"),
        (spec("frobnicate = 1\nbs = x\n"), 3, "unknown key `frobnicate`"),
        (spec("bs = 6\nnot a pair\n"), 4, "expected `key = value`, found `not a pair`"),
    ];
    for (text, line, reason) in &spec_cases {
        let got = decode_failure(codec::parse_spec(text));
        assert_eq!(got, (*line, reason.to_string()), "spec document\n{text}");
    }

    let v = VERDICT;
    // `SCALED` with the `scaleout.<key>` line set to `value`.
    let so = |key: &str, value: &str| set(SCALED, &format!("scaleout.{key}"), value);
    let row = |value: &str| set(v, "stage.0", value);
    let verdict_cases: Vec<(String, usize, &str)> = vec![
        (
            "qisim spec v1\n".into(),
            1,
            "expected header `qisim scalability v1`, found `qisim spec v1`",
        ),
        ("\n".into(), 1, "empty document (no `qisim scalability v1`)"),
        ("qisim scalability v1\n".into(), 0, "missing key `stages`"),
        ("qisim scalability v1\ndesign = x\n".into(), 0, "missing key `stages`"),
        (format!("{v}design = y\n"), 11, "duplicate key `design`"),
        (format!("{v}stages = 1\n"), 11, "duplicate key `stages`"),
        (format!("{SCALED}scaleout.fridges = 5\n"), 20, "duplicate key `scaleout.fridges`"),
        (format!("{v}frobnicate = 1\n"), 11, "unknown key `frobnicate`"),
        (format!("{v}wat\n"), 11, "expected `key = value`, found `wat`"),
        (without(v, &["design"]), 0, "missing key `design`"),
        (without(v, &["esm_cycle_ns", "design"]), 0, "missing key `design`"),
        (without(v, &["error_ok", "target_error"]), 0, "missing key `target_error`"),
        (without(v, &["design", "stages"]), 0, "missing key `stages`"),
        (without(v, &["stages", "stage.0"]), 0, "missing key `stages`"),
        (without(SCALED, &["design", "scaleout.link"]), 0, "missing key `scaleout.link`"),
        (format!("{v}scaleout.binding = -\n"), 0, "missing key `scaleout.fridges`"),
        // Several missing scale-out keys: the first in `ScaleOut` field order.
        (
            without(
                SCALED,
                &["scaleout.binding", "scaleout.interconnect_w", "scaleout.target_qubits"],
            ),
            0,
            "missing key `scaleout.interconnect_w`",
        ),
        (set(v, "power_limited_qubits", "x"), 3, "cannot parse `x` for `power_limited_qubits`"),
        (set(v, "error_ok", "1"), 7, "cannot parse `1` for `error_ok`"),
        (set(v, "binding_stage", "9K"), 4, "unknown fridge stage `9K`"),
        (set(v, "stages", "2"), 0, "stages = 2 but 1 stage rows present"),
        (set(v, "stages", "1\nstage.1 = 4K"), 10, "stage rows must be in order; expected stage.0"),
        (format!("{v}stage.0 = 4K\n"), 11, "stage rows must be in order; expected stage.1"),
        (format!("{v}stage.x = 4K\n"), 11, "cannot parse `x` for `stage.x`"),
        (row(""), 10, "empty stage row"),
        (row("3K 1 2 3 4 5"), 10, "unknown fridge stage `3K`"),
        (row("4K 1 2 3"), 10, "stage row is missing instr_link_w"),
        (row("4K 1 a 3 4 5"), 10, "cannot parse `a` for `device_dynamic_w`"),
        (row("4K 1 2 3 4 5 6"), 10, "trailing fields in stage row"),
        (so("link", "warp"), 12, "unknown scaleout.link `warp`"),
        (so("binding", "link:3K"), 18, "unknown scaleout.binding `link:3K`"),
        (so("fridges_to_target", "x"), 17, "cannot parse `x` for `scaleout.fridges_to_target`"),
        (so("interconnect_w", "0 1"), 19, "scaleout.interconnect_w needs 5 stage fields"),
        (so("interconnect_w", "0 1 0 0 2 3"), 19, "trailing fields in scaleout.interconnect_w"),
        (so("interconnect_w", "0 z 0 0 2"), 19, "cannot parse `z` for `scaleout.interconnect_w`"),
    ];
    for (text, line, reason) in &verdict_cases {
        let got = decode_failure(codec::parse_scalability(text));
        assert_eq!(got, (*line, reason.to_string()), "verdict document\n{text}");
    }
}

/// The `(line, reason)` of a decode failure.
fn decode_failure<T: std::fmt::Debug>(result: Result<T, QisimError>) -> (usize, String) {
    match result {
        Err(QisimError::Decode(e)) => (e.line, e.reason),
        other => panic!("expected a decode error, got {other:?}"),
    }
}
