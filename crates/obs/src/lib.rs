//! # qisim-obs
//!
//! Zero-dependency observability for the QIsim scalability framework:
//! scoped span timers, one process-global metric store (counters,
//! gauges, log-bucketed histograms, span statistics; see [`metrics`]),
//! and text/JSON exporters — the introspection substrate behind
//! `Scalability::explain()` and the `BENCH_obs.json` perf artifacts.
//!
//! Everything is built on `std` only (the build environment is offline,
//! so `tracing`/`metrics`/`serde` are unavailable by design, not just by
//! choice).
//!
//! # Examples
//!
//! ```
//! use qisim_obs::{counter, gauge, observe, span};
//!
//! fn land() -> u64 {
//!     span!("power.max_qubits");         // RAII: timed until scope end
//!     for _ in 0..7 {
//!         counter!("power.landing.steps");
//!     }
//!     gauge!("power.stage.4K.utilization", 0.97);
//!     observe!("cyclesim.makespan_ns", 1117.0);
//!     691
//! }
//! land();
//! let snap = qisim_obs::snapshot();
//! assert_eq!(snap.counter("power.landing.steps"), Some(7));
//! println!("{}", qisim_obs::report_text());
//! # qisim_obs::reset();
//! ```
//!
//! # Kill switch
//!
//! [`set_enabled`] is the one kill switch. Recording is on from process
//! start; `set_enabled(false)` turns every macro into one relaxed atomic
//! load and a branch (name and value expressions are not evaluated, and
//! spans open inert guards), so a single binary can compare instrumented
//! and uninstrumented runs. The integration tests use it to prove results
//! are bit-identical either way, and `bench_obs` gates the disarmed
//! overhead at ≤2%.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ctx;
pub mod export;
pub mod fastpath;
pub mod hist;
pub mod json;
pub mod log;
pub mod metrics;
pub mod span;
pub mod telemetry;
pub mod trace;
pub mod trace_export;

pub use ctx::RequestScope;
pub use export::{
    json_is_well_formed, openmetrics, openmetrics_is_well_formed, sanitize_metric_name, text_table,
    to_json,
};
pub use fastpath::FastGauge;
#[doc(hidden)]
pub use fastpath::{FastCounter, SpanSlot};
pub use hist::Histogram;
pub use log::Level;
pub use metrics::{Snapshot, SpanStats};
pub use span::SpanGuard;
pub use trace::TraceSession;
pub use trace_export::trace_is_well_formed;

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether recording is currently active (see [`set_enabled`]).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Runtime toggle: stop (or resume) all recording.
#[inline]
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Adds `delta` to the named global counter.
#[inline]
pub fn counter_add(name: &str, delta: u64) {
    if enabled() {
        metrics::counter_add(name, delta);
    }
}

/// Sets the named global gauge.
#[inline]
pub fn gauge_set(name: &str, value: f64) {
    if enabled() {
        metrics::gauge_set(name, value);
    }
}

/// Records a sample into the named global histogram.
#[inline]
pub fn observe_f64(name: &str, value: f64) {
    if enabled() {
        metrics::observe(name, value);
    }
}

/// Copies the metric store contents out for export.
pub fn snapshot() -> Snapshot {
    metrics::snapshot()
}

/// Clears every global metric (spans, counters, gauges, histograms).
pub fn reset() {
    metrics::reset();
}

/// Renders the metric store as an aligned text table.
pub fn report_text() -> String {
    text_table(&snapshot())
}

/// Renders the metric store as a JSON document (the `BENCH_obs.json`
/// artifact format).
pub fn report_json() -> String {
    to_json(&snapshot())
}

/// Opens a scoped span timer recording wall-clock, call count, and
/// self-time (excluding nested spans) under the given `&'static str`
/// name. The guard lives until the end of the enclosing scope.
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        let _qisim_obs_span_guard = {
            static __QISIM_OBS_SPAN: $crate::SpanSlot = $crate::SpanSlot::new($name);
            $crate::SpanGuard::enter_cached(&__QISIM_OBS_SPAN)
        };
    };
    ($name:expr) => {
        let _qisim_obs_span_guard = $crate::SpanGuard::enter($name);
    };
}

/// Increments a named counter (`counter!("name")` adds 1,
/// `counter!("name", n)` adds `n`).
///
/// The name and delta expressions are only evaluated while recording is
/// enabled — a computed name (`counter!(format!(…))`) costs nothing when
/// observability is off. Literal names additionally emit a
/// flight-recorder counter event when the recorder is armed ([`trace`]).
#[macro_export]
macro_rules! counter {
    ($name:literal) => {
        if $crate::enabled() {
            static __QISIM_OBS_CTR: $crate::FastCounter = $crate::FastCounter::new($name);
            __QISIM_OBS_CTR.add(1);
        }
    };
    ($name:literal, $delta:expr) => {
        if $crate::enabled() {
            static __QISIM_OBS_CTR: $crate::FastCounter = $crate::FastCounter::new($name);
            __QISIM_OBS_CTR.add($delta);
        }
    };
    ($name:expr) => {
        if $crate::enabled() {
            $crate::counter_add(&$name, 1);
        }
    };
    ($name:expr, $delta:expr) => {
        if $crate::enabled() {
            $crate::counter_add(&$name, $delta);
        }
    };
}

/// Sets a named gauge to a value (last write wins). The name and value
/// expressions are only evaluated while recording is enabled.
#[macro_export]
macro_rules! gauge {
    ($name:literal, $value:expr) => {
        if $crate::enabled() {
            static __QISIM_OBS_GAUGE: $crate::FastGauge = $crate::FastGauge::new($name);
            __QISIM_OBS_GAUGE.set($value);
        }
    };
    ($name:expr, $value:expr) => {
        if $crate::enabled() {
            $crate::gauge_set(&$name, $value);
        }
    };
}

/// Records a sample into a named histogram. The name and value
/// expressions are only evaluated while recording is enabled.
#[macro_export]
macro_rules! observe {
    ($name:expr, $value:expr) => {
        if $crate::enabled() {
            $crate::observe_f64(&$name, $value);
        }
    };
}

#[cfg(test)]
pub(crate) fn global_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    #[test]
    fn macros_drive_the_global_registry() {
        let _l = crate::global_test_lock();
        crate::reset();
        crate::set_enabled(true);
        {
            span!("lib.outer");
            counter!("lib.count");
            counter!("lib.count", 4);
            gauge!("lib.gauge", 2.5);
            observe!(format!("lib.{}", "hist"), 10.0);
        }
        let snap = crate::snapshot();
        assert_eq!(snap.counter("lib.count"), Some(5));
        assert_eq!(snap.gauge("lib.gauge"), Some(2.5));
        assert_eq!(snap.span("lib.outer").map(|s| s.count), Some(1));
        let json = crate::report_json();
        assert!(crate::json_is_well_formed(&json), "{json}");
        assert!(crate::report_text().contains("lib.count"));
        crate::reset();
        assert!(crate::snapshot().is_empty());
    }

    #[test]
    fn disabled_macros_do_not_evaluate_name_or_value_expressions() {
        let _l = crate::global_test_lock();
        crate::reset();
        crate::set_enabled(false);
        let mut evaluations = 0u32;
        {
            let mut name = |n: &str| {
                evaluations += 1;
                format!("lib.lazy.{n}")
            };
            counter!(name("count"));
            counter!(name("count"), 4);
            gauge!(name("gauge"), 2.5);
            observe!(name("hist"), 10.0);
        }
        assert_eq!(evaluations, 0, "disabled macros must not evaluate their name expression");
        crate::set_enabled(true);
        {
            let mut name = |n: &str| {
                evaluations += 1;
                format!("lib.lazy.{n}")
            };
            counter!(name("count"));
        }
        assert_eq!(evaluations, 1, "enabled macros evaluate the name exactly once");
        assert_eq!(crate::snapshot().counter("lib.lazy.count"), Some(1));
        crate::reset();
    }

    #[test]
    fn literal_counter_names_reach_the_flight_recorder() {
        let _l = crate::global_test_lock();
        crate::reset();
        crate::set_enabled(true);
        crate::trace::arm();
        crate::trace::clear();
        counter!("lib.traced.count", 3);
        let session = crate::trace::TraceSession::drain();
        crate::trace::disarm();
        let ev = session
            .threads
            .iter()
            .flat_map(|t| &t.events)
            .find(|e| e.name == "lib.traced.count")
            .expect("counter event recorded");
        assert_eq!(ev.kind, crate::trace::TraceEventKind::Counter);
        assert_eq!(ev.args[0], Some(("delta", 3.0)));
        assert_eq!(crate::snapshot().counter("lib.traced.count"), Some(3));
        crate::reset();
    }

    #[test]
    fn runtime_disable_suppresses_recording() {
        let _l = crate::global_test_lock();
        crate::reset();
        crate::set_enabled(false);
        assert!(!crate::enabled());
        counter!("lib.suppressed");
        gauge!("lib.suppressed.gauge", 1.0);
        observe!("lib.suppressed.hist", 1.0);
        {
            span!("lib.suppressed.span");
        }
        let snap = crate::snapshot();
        assert!(snap.is_empty(), "{snap:?}");
        assert_eq!(
            crate::report_json(),
            r#"{"counters":{},"gauges":{},"histograms":{},"spans":{}}"#
        );
        crate::set_enabled(true);
        let snap = crate::snapshot();
        assert_eq!(snap.counter("lib.suppressed"), None);
        assert_eq!(snap.gauge("lib.suppressed.gauge"), None);
        assert!(snap.hist("lib.suppressed.hist").is_none());
        assert!(snap.span("lib.suppressed.span").is_none());
        crate::reset();
    }
}
