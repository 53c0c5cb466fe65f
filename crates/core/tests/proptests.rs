//! Property-based tests of the scalability engine.
//!
//! Each property runs [`CASES`] inputs drawn from a fixed-seed
//! [`Xorshift64Star`], so every run checks the same inputs; a failure
//! message names the input that broke the property.

use qisim::config::cmos_1q_error_for_bits;
use qisim::spec::{DesignSpec, Preset};
use qisim::{analyze_on, codec, QciDesign};
use qisim_hal::fridge::{Fridge, Stage};
use qisim_hal::topology::LinkKind;
use qisim_microarch::cryo_cmos::CryoCmosConfig;
use qisim_microarch::DecisionKind;
use qisim_quantum::rng::{Rng, Xorshift64Star};
use qisim_surface::target::Target;

const CASES: usize = 24;
const SEED: u64 = 0x5157_0007;

/// Uniform draw in `[lo, hi)`.
fn uniform(rng: &mut Xorshift64Star, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.gen_f64()
}

/// Uniform draw in `lo..hi`.
fn below(rng: &mut Xorshift64Star, lo: u32, hi: u32) -> u32 {
    lo + rng.gen_below(u64::from(hi - lo)) as u32
}

/// One element of `options`, uniformly.
fn pick<T: Clone>(rng: &mut Xorshift64Star, options: &[T]) -> T {
    options[rng.gen_below(options.len() as u64) as usize].clone()
}

fn random_design(rng: &mut Xorshift64Star) -> QciDesign {
    pick(
        rng,
        &[
            QciDesign::room_coax(),
            QciDesign::room_microstrip(),
            QciDesign::room_photonic(),
            QciDesign::cmos_baseline(),
            QciDesign::rsfq_baseline(),
            QciDesign::rsfq_near_term(),
        ],
    )
}

/// A larger refrigerator budget never reduces any design's
/// power-limited scale.
#[test]
fn budget_is_monotone() {
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for _ in 0..CASES {
        let design = random_design(&mut rng);
        let scale = uniform(&mut rng, 1.0, 8.0);
        let t = Target::near_term();
        let std = Fridge::standard();
        let big = Fridge::standard()
            .with_budget(Stage::K4, 1.5 * scale)
            .with_budget(Stage::Mk100, 200e-6 * scale)
            .with_budget(Stage::Mk20, 20e-6 * scale);
        let a = analyze_on(&design, &t, &std).power_limited_qubits;
        let b = analyze_on(&design, &t, &big).power_limited_qubits;
        assert!(b >= a, "{}: {a} -> {b} (scale {scale})", design.name());
    }
}

/// The drive-precision error model is monotone decreasing in bits and
/// bounded below by the Table 2 floor.
#[test]
fn precision_error_is_monotone() {
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for _ in 0..CASES {
        let bits = below(&mut rng, 2, 15);
        let e = cmos_1q_error_for_bits(bits);
        let e_next = cmos_1q_error_for_bits(bits + 1);
        assert!(e_next < e, "bits {bits}");
        assert!(e > 8.17e-7, "bits {bits}");
    }
}

/// Scalability analysis is deterministic and internally consistent:
/// `manageable <= power_limited`, and `reaches` implies both the
/// error check and the scale check.
#[test]
fn analysis_invariants() {
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for _ in 0..CASES {
        let design = random_design(&mut rng);
        let t = Target::near_term();
        let s1 = analyze_on(&design, &t, &Fridge::standard());
        let s2 = analyze_on(&design, &t, &Fridge::standard());
        assert_eq!(&s1, &s2, "analysis must be deterministic");
        assert!(s1.manageable_qubits() <= s1.power_limited_qubits, "{}", design.name());
        if s1.reaches(&t) {
            assert!(s1.error_ok, "{}", design.name());
            assert!(s1.power_limited_qubits >= t.physical_qubits() as u64, "{}", design.name());
        }
        assert!(s1.logical_error >= 0.0 && s1.logical_error <= 1.0, "{}", design.name());
    }
}

/// Longer readout windows never improve the logical error and never
/// raise the power-limited scale of a CMOS design (the Opt-7 axis).
#[test]
fn readout_time_tradeoff() {
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for _ in 0..CASES {
        let extra = uniform(&mut rng, 0.0, 2000.0);
        let t = Target::near_term();
        let base =
            CryoCmosConfig { decision: DecisionKind::Memoryless, ..CryoCmosConfig::baseline() };
        let slow = CryoCmosConfig { readout_ns: base.readout_ns + extra, ..base };
        let f = Fridge::standard();
        let s_base = analyze_on(&QciDesign::CryoCmos(base), &t, &f);
        let s_slow = analyze_on(&QciDesign::CryoCmos(slow), &t, &f);
        assert!(s_slow.logical_error >= s_base.logical_error, "extra {extra}");
        assert!(s_slow.esm_cycle_ns >= s_base.esm_cycle_ns, "extra {extra}");
    }
}

/// Any valid fridge topology survives the spec codec byte-for-byte:
/// encode → parse → encode is a fixed point, the parsed spec builds
/// the same [`qisim_hal::topology::FridgeTopology`], and the
/// scale-out flag tracks the fridge count.
#[test]
fn fridge_topology_codec_round_trips() {
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for _ in 0..CASES {
        let preset = pick(
            &mut rng,
            &[
                Preset::RoomCoax,
                Preset::CmosBaseline,
                Preset::CmosNearTerm,
                Preset::RsfqBaseline,
                Preset::RsfqNearTerm,
            ],
        );
        let fridges = below(&mut rng, 1, 1025);
        let link = pick(&mut rng, &[LinkKind::RoomCoax, LinkKind::CryoCoax, LinkKind::Photonic]);
        let links_per_fridge = below(&mut rng, 1, 65);
        let shared = rng.gen_bool();
        let spec = DesignSpec::new(preset)
            .fridges(fridges)
            .link(link)
            .links_per_fridge(links_per_fridge)
            .shared_controllers(shared);
        let text = codec::encode_spec(&spec);
        let parsed = codec::parse_spec(&text).expect("encoded spec must parse");
        assert_eq!(&parsed, &spec);
        assert_eq!(codec::encode_spec(&parsed), text, "encode must be a fixed point");
        let topology = parsed.topology().expect("valid knobs must build a topology");
        assert_eq!(topology.fridges(), fridges);
        assert_eq!(topology.link(), link);
        assert_eq!(topology.links_per_fridge(), links_per_fridge);
        assert_eq!(topology.shared_controllers(), shared);
        assert_eq!(parsed.has_scale_out(), fridges > 1);
    }
}

/// FDM degree trades power for error: higher FDM never lengthens the
/// per-qubit drive-hardware budget but never shortens the cycle.
#[test]
fn fdm_tradeoff() {
    let mut rng = Xorshift64Star::seed_from_u64(SEED);
    for _ in 0..CASES {
        let fdm = below(&mut rng, 4, 64);
        let cfg = CryoCmosConfig { drive_fdm: fdm, ..CryoCmosConfig::baseline() };
        let tight = CryoCmosConfig { drive_fdm: fdm + 4, ..cfg };
        assert!(tight.esm_profile().cycle_ns() >= cfg.esm_profile().cycle_ns(), "fdm {fdm}");
        let n = 512;
        let drive_lines = |c: &CryoCmosConfig| {
            c.build().wires.iter().find(|w| w.name == "drive lines").unwrap().cables(n)
        };
        assert!(drive_lines(&tight) <= drive_lines(&cfg), "fdm {fdm}");
    }
}
