//! Integration tests for the flight recorder: a traced two-thread sweep
//! must export a valid Chrome `trace_event` timeline with per-worker
//! lanes, and arming the recorder must never perturb the science.

use qisim::obs::{self, trace, trace_export};
use qisim::par;
use qisim::surface::target::Target;
use qisim::{analyze, sweep, QciDesign};

mod common;

const SWEEP_COUNTS: [u64; 6] = [64, 128, 256, 512, 1024, 2048];

#[test]
fn traced_two_thread_sweep_exports_valid_chrome_json() {
    let _l = common::isolate();
    par::set_threads(Some(2));
    trace::arm();
    trace::clear();
    let points = sweep(&QciDesign::cmos_baseline(), &SWEEP_COUNTS);
    let session = trace::TraceSession::drain();
    trace::disarm();
    par::set_threads(None);
    assert_eq!(points.len(), SWEEP_COUNTS.len());

    // Timestamps are non-decreasing within every lane.
    for t in &session.threads {
        assert!(
            t.events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns),
            "lane {} ({}) timestamps not monotonic",
            t.lane,
            t.label
        );
    }

    // Every sweep point produced its instant, with the qubit count.
    let point_events: Vec<_> = session
        .threads
        .iter()
        .flat_map(|t| &t.events)
        .filter(|e| e.name == "scalability.sweep.point")
        .collect();
    assert_eq!(point_events.len(), SWEEP_COUNTS.len());
    let mut seen: Vec<u64> =
        point_events.iter().map(|e| e.args[0].expect("qubits arg").1 as u64).collect();
    seen.sort_unstable();
    assert_eq!(seen, SWEEP_COUNTS);

    // Two workers ran, so the session has at least two lanes and the
    // worker lanes carry their pool labels.
    assert!(session.threads.len() >= 2, "lanes: {:?}", session.threads.len());
    assert!(
        session.threads.iter().any(|t| t.label.starts_with("qisim-par worker-")),
        "worker lanes must be labeled"
    );
    // Chunk-dispatch instants carry worker id, chunk index, and
    // queue-to-start latency.
    let dispatch = session
        .threads
        .iter()
        .flat_map(|t| &t.events)
        .find(|e| e.name == "par.chunk.dispatch")
        .expect("dispatch event recorded");
    assert_eq!(dispatch.args[0].map(|a| a.0), Some("worker"));
    assert_eq!(dispatch.args[1].map(|a| a.0), Some("chunk"));
    assert_eq!(dispatch.args[2].map(|a| a.0), Some("queue_ns"));

    // The Chrome export is well-formed, balanced, and labeled.
    let json = trace_export::chrome_trace_json(&session);
    assert!(obs::trace_is_well_formed(&json), "{json}");
    assert_eq!(
        json.matches("\"ph\":\"B\"").count(),
        json.matches("\"ph\":\"E\"").count(),
        "begin/end events must balance"
    );
    assert!(json.contains("thread_name"), "lane metadata missing");
    assert!(json.contains("scalability.sweep"), "sweep span missing from export");

    // The folded stacks are flamegraph.pl-shaped: `path weight` lines.
    let folded = trace_export::folded_stacks(&session);
    assert!(!folded.is_empty());
    for line in folded.lines() {
        let weight = line.rsplit(' ').next().expect("weight column");
        assert!(weight.parse::<u64>().is_ok(), "bad folded line: {line}");
    }
    obs::reset();
}

#[test]
fn results_are_bit_identical_with_tracing_armed_disarmed_and_disabled() {
    let _l = common::isolate();
    let design = QciDesign::cmos_baseline();
    let target = Target::near_term();

    trace::arm();
    trace::clear();
    let armed_verdict = analyze(&design, &target);
    let armed_sweep = sweep(&design, &SWEEP_COUNTS);
    trace::clear();
    trace::disarm();

    let disarmed_verdict = analyze(&design, &target);
    let disarmed_sweep = sweep(&design, &SWEEP_COUNTS);
    assert_eq!(armed_verdict, disarmed_verdict, "arming the recorder changed the verdict");
    assert_eq!(armed_sweep, disarmed_sweep, "arming the recorder changed the sweep");

    // Recording disabled entirely: the numbers still cannot move.
    obs::set_enabled(false);
    let off_verdict = analyze(&design, &target);
    let off_sweep = sweep(&design, &SWEEP_COUNTS);
    obs::set_enabled(true);
    assert_eq!(armed_verdict, off_verdict);
    assert_eq!(armed_sweep, off_sweep);
    obs::reset();
}

#[test]
fn drained_rings_stay_reusable_across_runs() {
    let _l = common::isolate();
    trace::arm();
    trace::clear();
    let _ = analyze(&QciDesign::cmos_baseline(), &Target::near_term());
    let first = trace::TraceSession::drain();
    let _ = analyze(&QciDesign::cmos_baseline(), &Target::near_term());
    let second = trace::TraceSession::drain();
    trace::disarm();
    assert!(first.event_count() > 0, "first run recorded");
    assert!(second.event_count() > 0, "rings kept recording after a drain");
    obs::reset();
}
