//! Regenerates the paper's scalability story end to end: every design of
//! Figs. 12/13/17, its power-limited scale, binding stage, and
//! logical-error verdict against both roadmap targets.
//!
//! Run with `cargo run --example scalability_sweep`.

use qisim::par::par_map;
use qisim::{analyze, try_sweep, QciDesign};
use qisim_surface::target::Target;

fn main() {
    let near = Target::near_term();
    let long = Target::long_term();
    println!(
        "{:<48} {:>12} {:>9} {:>12} {:>6} {:>6}",
        "design", "max qubits", "binds", "p_L(d=23)", "near", "long"
    );
    let designs = [
        QciDesign::room_coax(),
        QciDesign::room_microstrip(),
        QciDesign::room_photonic(),
        QciDesign::cmos_baseline(),
        QciDesign::rsfq_baseline(),
        QciDesign::rsfq_near_term(),
        QciDesign::cmos_long_term(),
        QciDesign::ersfq_long_term(),
    ];
    // One pool task per design point (each runs its own power landing).
    for (design, s) in designs.iter().zip(par_map(&designs, |d| analyze(d, &near))) {
        println!(
            "{:<48} {:>12} {:>9} {:>12.2e} {:>6} {:>6}",
            truncate(&s.design, 48),
            s.power_limited_qubits,
            s.binding_stage.map(|b| b.label()).unwrap_or("-"),
            s.logical_error,
            s.reaches(&near),
            analyze(design, &long).reaches(&long),
        );
    }

    println!("\nPer-stage utilization sweep of the 4K CMOS baseline (Fig. 13a):");
    println!("{:>8} {:>10} {:>10} {:>11}", "qubits", "4K util", "mK util", "total W");
    let counts = [128, 256, 512, 666, 1024, 1399];
    for pt in try_sweep(&QciDesign::cmos_baseline(), &counts).expect("valid sweep") {
        println!("{:>8} {:>10.3} {:>10.3} {:>11.4}", pt.qubits, pt.util_4k, pt.util_mk, pt.power_w);
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!("{}...", &s[..n - 3])
    }
}
