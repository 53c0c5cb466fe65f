//! Determinism guarantees of the `qisim-par` engine, end to end: every
//! parallel entry point must return **bit-identical** results at any
//! thread count, and identical to a plain serial mapping of the same
//! work. The serial loop is the thread count 1 (`set_threads(Some(1))`
//! or `QISIM_THREADS=1`), so these tests pin every parallel run to it.

use qisim::experiments::run_matching;
use qisim::scalability::{analyze, analyze_many, sweep};
use qisim::surface::montecarlo::logical_error_rate_sliced_par;
use qisim::surface::target::Target;
use qisim::surface::Lattice;
use qisim::QciDesign;

/// Runs `f` once per thread-count override and asserts every result is
/// identical (`PartialEq`) to the 1-thread baseline.
fn assert_thread_count_invariant<T: PartialEq + std::fmt::Debug>(f: impl Fn() -> T) -> T {
    let mut baseline = None;
    for threads in [1usize, 2, 8] {
        qisim::par::set_threads(Some(threads));
        let got = f();
        match &baseline {
            None => baseline = Some(got),
            Some(want) => {
                assert_eq!(&got, want, "result changed between 1 and {threads} threads")
            }
        }
    }
    qisim::par::set_threads(None);
    baseline.unwrap()
}

#[test]
fn sweep_is_bit_identical_across_thread_counts_and_matches_serial() {
    let design = QciDesign::cmos_baseline();
    let counts: Vec<u64> = (1..=12).map(|i| i * 128).collect();
    let points = assert_thread_count_invariant(|| sweep(&design, &counts));
    assert_eq!(points.len(), counts.len());
    // Strictly increasing qubit counts survive the parallel reordering.
    for (pt, n) in points.iter().zip(&counts) {
        assert_eq!(pt.qubits, *n);
    }
}

#[test]
fn analyze_many_is_bit_identical_across_thread_counts_and_matches_serial() {
    let designs = [
        QciDesign::cmos_baseline(),
        QciDesign::rsfq_baseline(),
        QciDesign::cmos_long_term(),
        QciDesign::ersfq_long_term(),
    ];
    let target = Target::near_term();
    let verdicts = assert_thread_count_invariant(|| analyze_many(&designs, &target));
    // The batched bisections agree with one-at-a-time analysis.
    let serial: Vec<_> = designs.iter().map(|d| analyze(d, &target)).collect();
    assert_eq!(verdicts, serial);
}

#[test]
fn monte_carlo_is_bit_identical_across_thread_counts() {
    let lattice = Lattice::new(5);
    let est = assert_thread_count_invariant(|| {
        let e = logical_error_rate_sliced_par(&lattice, 0.05, 4_096, 0xDEC0DE);
        (e.failures, e.trials)
    });
    assert_eq!(est.1, 4_096);
    assert!(est.0 > 0, "p=0.05 at d=5 must produce some failures");
}

#[test]
fn experiment_suite_subset_is_bit_identical_across_thread_counts() {
    // Cheap drivers only; the full suite is exercised by the examples.
    // Compared via the Debug rendering because informational rows carry
    // `paper: NaN`, which `PartialEq` would (correctly) reject.
    let rendered = assert_thread_count_invariant(|| {
        let picked = run_matching(|id| id == "Fig. 12" || id == "Fig. 14" || id == "Table 2");
        let ids: Vec<_> = picked.iter().map(|e| e.id).collect();
        assert_eq!(ids, ["Fig. 12", "Fig. 14", "Table 2"], "paper order preserved");
        format!("{picked:?}")
    });
    assert!(rendered.contains("Fig. 14"));
}

#[test]
fn power_memo_cache_does_not_change_results() {
    let design = QciDesign::cmos_baseline();
    let counts = [256u64, 512, 1024];
    qisim::power::clear_cache();
    let cold = sweep(&design, &counts);
    assert!(qisim::power::cache_len() > 0, "sweep populates the memo cache");
    let warm = sweep(&design, &counts);
    assert_eq!(cold, warm, "cache replay must be bit-identical");
}
