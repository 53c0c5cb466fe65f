//! Property-based tests of the fallible staged engine: `try_analyze` is
//! panic-free over randomized near-valid knob grids, and the codec
//! round-trips arbitrary well-formed specs.
//!
//! Each property runs [`CASES`] specs drawn from a fixed-seed
//! [`Xorshift64Star`], so every run checks the same inputs; a failure
//! message names the spec that broke the property.

use qisim::codec;
use qisim::engine::try_analyze_spec;
use qisim::spec::{DesignSpec, Preset};
use qisim_hal::fridge::Stage;
use qisim_quantum::rng::{Rng, Xorshift64Star};
use qisim_surface::target::Target;

const CASES: usize = 48;
const SEED: u64 = 0x5157_0008;

/// Uniform draw in `[lo, hi)`.
fn uniform(rng: &mut Xorshift64Star, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.gen_f64()
}

/// A near-valid knob grid: each override is present half the time and
/// straddles its validated range (and is applied regardless of the
/// preset's technology, so mismatches are generated too).
fn near_valid_spec(rng: &mut Xorshift64Star) -> DesignSpec {
    const PRESETS: [Preset; 9] = [
        Preset::RoomCoax,
        Preset::RoomMicrostrip,
        Preset::RoomPhotonic,
        Preset::CmosBaseline,
        Preset::CmosNearTerm,
        Preset::CmosLongTerm,
        Preset::RsfqBaseline,
        Preset::RsfqNearTerm,
        Preset::ErsfqLongTerm,
    ];
    let mut spec = DesignSpec::new(PRESETS[rng.gen_below(PRESETS.len() as u64) as usize]);
    if rng.gen_bool() {
        spec = spec.drive_fdm(rng.gen_below(68) as u32);
    }
    if rng.gen_bool() {
        spec = spec.drive_bits(rng.gen_below(19) as u32);
    }
    if rng.gen_bool() {
        spec = spec.bs(rng.gen_below(10) as u32);
    }
    if rng.gen_bool() {
        spec = spec.readout_ns(uniform(rng, -100.0, 4000.0));
    }
    if rng.gen_bool() {
        spec = spec.analog_scale(uniform(rng, -0.5, 2.0));
    }
    if rng.gen_bool() {
        let stage = Stage::ALL[rng.gen_below(5) as usize];
        spec = spec.budget(stage, uniform(rng, -1.0, 8.0));
    }
    spec
}

/// `try_analyze_spec` never panics: every input is either a verdict
/// or a typed diagnostic that renders.
#[test]
fn try_analyze_is_panic_free() {
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for _ in 0..CASES {
        let spec = near_valid_spec(&mut rng);
        match try_analyze_spec(&spec, &Target::near_term()) {
            Ok(s) => assert!(s.logical_error >= 0.0, "{spec:?}"),
            Err(e) => assert!(!e.to_string().is_empty(), "{spec:?}"),
        }
    }
}

/// Any well-formed spec survives `parse(encode(spec)) == spec`,
/// valid knobs or not (validation belongs to `build()`, not the
/// codec).
#[test]
fn codec_round_trips_arbitrary_specs() {
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for _ in 0..CASES {
        let spec = near_valid_spec(&mut rng);
        let text = codec::encode_spec(&spec);
        assert_eq!(codec::parse_spec(&text).unwrap(), spec);
    }
}
