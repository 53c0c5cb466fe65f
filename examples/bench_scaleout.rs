//! Scale-out benchmark: datacenter fridge-count sweep throughput plus
//! the single-fridge wrapper-overhead gate.
//!
//! Three checks, two of which land in `BENCH_scaleout.json`:
//!
//! 1. **N = 1 identity** — for every paper design and both targets,
//!    [`qisim::engine::try_analyze_topology`] on the standard topology
//!    must be bit-identical to the classic [`qisim::engine::try_analyze`]
//!    path (asserted in-process, not recorded).
//! 2. **4-fridge sweep throughput** — a fridges-to-reach-Q sweep over
//!    every paper design at 2/4/8/16 fridges, reported as points/s.
//! 3. **N = 1 overhead** — min-of-reps timing of the topology route vs
//!    the direct route over memo-cached iterations; the wrapper must
//!    cost <= 2% (the topology route *is* the classic code path when
//!    `fridges == 1`, so anything above that is a regression).
//!
//! Run with `cargo run --release --example bench_scaleout`, or with
//! `-- --smoke` for the CI gate (tiny reps, no artifact rewrite).

use qisim::engine;
use qisim::hal::topology::{FridgeTopology, LinkKind};
use qisim::scalability::Scalability;
use qisim::spec::Estimator;
use qisim::surface::target::Target;
use qisim::QciDesign;
use std::fmt::Write as _;
use std::time::Instant;

fn paper_designs() -> Vec<QciDesign> {
    vec![
        QciDesign::room_coax(),
        QciDesign::room_microstrip(),
        QciDesign::room_photonic(),
        QciDesign::cmos_baseline(),
        QciDesign::cmos_long_term(),
        QciDesign::rsfq_baseline(),
        QciDesign::rsfq_near_term(),
        QciDesign::ersfq_long_term(),
    ]
}

/// Every paper design x both targets, through both the classic and the
/// single-fridge topology route. Equal `Scalability` values (and equal
/// Debug renderings) mean the refactor left the classic pipeline alone.
fn check_n1_identity() -> bool {
    let topology = FridgeTopology::standard();
    for design in paper_designs() {
        for target in [Target::near_term(), Target::long_term()] {
            let classic = engine::try_analyze(&design, &target).expect("classic analysis");
            let routed =
                engine::try_analyze_topology(&design, &target, &topology, Estimator::Packed)
                    .expect("topology analysis");
            if classic != routed || format!("{classic:?}") != format!("{routed:?}") {
                println!("  N=1 MISMATCH: {} / {:?}", design.name(), target);
                return false;
            }
        }
    }
    true
}

/// The datacenter sweep: every paper design at 2/4/8/16 fridges over
/// cryo coax, answering "how many fridges to reach Q" at each point.
fn sweep_points(fridge_counts: &[u32]) -> Vec<Scalability> {
    let target = Target::long_term();
    let mut verdicts = Vec::new();
    for design in paper_designs() {
        for &fridges in fridge_counts {
            let topology =
                FridgeTopology::standard().with_fridges(fridges).with_link(LinkKind::CryoCoax);
            verdicts.push(
                engine::try_analyze_topology(&design, &target, &topology, Estimator::Packed)
                    .expect("scale-out analysis"),
            );
        }
    }
    verdicts
}

/// One timed batch of `f` in milliseconds.
fn batch_ms(iters: usize, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    for _ in 0..iters {
        f();
    }
    started.elapsed().as_secs_f64() * 1e3
}

/// N = 1 overhead of the topology route vs the direct route, in percent,
/// over memo-cached iterations. The two routes alternate batch-by-batch
/// (direct, topology, direct, ...) and each takes its min over the reps,
/// so clock-frequency drift and scheduler noise hit both symmetrically.
fn measure_overhead_pct(reps: usize, iters: usize) -> (f64, f64, f64) {
    let design = QciDesign::cmos_baseline();
    let target = Target::near_term();
    let topology = FridgeTopology::standard();
    // Warm the power memo cache so both routes measure the wrapper, not
    // the bisection.
    let _ = engine::try_analyze(&design, &target).expect("warmup");
    let mut direct_ms = f64::INFINITY;
    let mut topo_ms = f64::INFINITY;
    for _ in 0..reps {
        direct_ms = direct_ms.min(batch_ms(iters, || {
            std::hint::black_box(engine::try_analyze(&design, &target).expect("direct"));
        }));
        topo_ms = topo_ms.min(batch_ms(iters, || {
            std::hint::black_box(
                engine::try_analyze_topology(&design, &target, &topology, Estimator::Packed)
                    .expect("routed"),
            );
        }));
    }
    (direct_ms, topo_ms, (topo_ms / direct_ms - 1.0) * 100.0)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let parallelism = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    println!(
        "bench_scaleout: multi-fridge sweep + N=1 overhead gate, {parallelism} core(s){}",
        if smoke { " (smoke)" } else { "" }
    );

    // 1. Bit-identity of the single-fridge route.
    let identical = check_n1_identity();
    println!("  n1_identical_to_classic: {identical}");
    assert!(identical, "single-fridge topology route diverged from the classic pipeline");

    // 2. Fridge-count sweep throughput (under the default thread
    //    pool).
    let fridge_counts: &[u32] = if smoke { &[2, 4] } else { &[2, 4, 8, 16] };
    qisim::power::clear_cache();
    let started = Instant::now();
    let verdicts = sweep_points(fridge_counts);
    let sweep_ms = started.elapsed().as_secs_f64() * 1e3;
    let points = verdicts.len();
    let points_per_s = points as f64 / (sweep_ms / 1e3);
    let reachable = verdicts
        .iter()
        .filter(|v| v.scale_out.as_ref().is_some_and(|so| so.fridges_to_target.is_some()))
        .count();
    println!(
        "  sweep: {points} points in {sweep_ms:.1} ms ({points_per_s:.0} points/s), \
         {reachable}/{points} reach the long-term target at some fridge count"
    );
    assert!(
        verdicts.iter().all(|v| v.scale_out.is_some()),
        "every sweep point must carry a scale-out block"
    );

    // 3. The N = 1 overhead gate, single-threaded and memo-cached. The
    //    gate re-measures once before failing so a scheduler hiccup in
    //    the first pass cannot fail the build.
    qisim::par::set_threads(Some(1));
    let (reps, iters) = if smoke { (8, 128) } else { (24, 512) };
    let (mut direct_ms, mut topo_ms, mut overhead_pct) = measure_overhead_pct(reps, iters);
    if overhead_pct > 2.0 {
        let retry = measure_overhead_pct(reps, iters);
        if retry.2 < overhead_pct {
            (direct_ms, topo_ms, overhead_pct) = retry;
        }
    }
    qisim::par::set_threads(None);
    println!(
        "  n1 overhead: direct {direct_ms:.3} ms vs topology {topo_ms:.3} ms per {iters} \
         memo-cached analyses -> {overhead_pct:+.2}%"
    );
    assert!(
        overhead_pct <= 2.0,
        "acceptance: N=1 topology route must cost <= 2% over direct analysis, \
         got {overhead_pct:+.2}%"
    );

    // Flush the fleet gauges for an armed QISIM_METRICS exporter before
    // the process exits.
    qisim::obs::telemetry::flush_now();

    if smoke {
        println!("bench_scaleout smoke gate passed.");
        return;
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"workload\": \"multi-fridge scale-out: {points}-point fridges-to-reach-Q sweep \
         (8 paper designs x {:?} fridges over cryo coax) + single-threaded N=1 \
         wrapper-overhead gate over {iters} memo-cached analyses x {reps} reps\",",
        fridge_counts
    );
    let _ = writeln!(json, "  \"available_parallelism\": {parallelism},");
    let _ = writeln!(json, "  \"n1_identical_to_classic\": {identical},");
    json.push_str("  \"sweep\": {\n");
    let _ = writeln!(json, "    \"points\": {points},");
    let _ = writeln!(json, "    \"wall_ms\": {sweep_ms:.3},");
    let _ = writeln!(json, "    \"points_per_s\": {points_per_s:.1},");
    let _ = writeln!(json, "    \"points_reaching_target\": {reachable}");
    json.push_str("  },\n");
    json.push_str("  \"n1_overhead\": {\n");
    let _ = writeln!(json, "    \"direct_batch_ms\": {direct_ms:.4},");
    let _ = writeln!(json, "    \"topology_batch_ms\": {topo_ms:.4},");
    let _ = writeln!(json, "    \"overhead_pct\": {overhead_pct:.3},");
    let _ = writeln!(json, "    \"gate_pct\": 2.0");
    json.push_str("  }\n");
    json.push_str("}\n");
    std::fs::write("BENCH_scaleout.json", &json).expect("write BENCH_scaleout.json");
    println!("wrote BENCH_scaleout.json ({} bytes)", json.len());
}
