//! Per-call-site handles for literal-name metrics.
//!
//! A literal-name macro (`counter!("power.cache.hits")`,
//! `gauge!("power.stage.4K.utilization", v)`, `span!("power.max_qubits")`)
//! plants a `static` handle at its call site. On first use the handle
//! looks its cell up in the metric store ([`crate::metrics`]) and caches
//! the reference; afterwards a hit costs one relaxed atomic op (counters,
//! gauges) or one per-name mutex (span stats), never a table lock.
//! `observe!` has no handle: every histogram sample looks its cell up by
//! name. Call sites sharing a name share the store's one cell, so totals
//! stay exact and a computed-name write of the same series lands in the
//! same cell.

use crate::metrics::{GaugeCell, SpanStats, COUNTERS, GAUGES, SPANS};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Macro plumbing: the per-call-site handle behind `counter!("name")`.
#[doc(hidden)]
#[derive(Debug)]
pub struct FastCounter {
    name: &'static str,
    cell: OnceLock<&'static AtomicU64>,
}

impl FastCounter {
    #[doc(hidden)]
    #[must_use]
    pub const fn new(name: &'static str) -> FastCounter {
        FastCounter { name, cell: OnceLock::new() }
    }

    #[doc(hidden)]
    #[inline]
    pub fn add(&self, delta: u64) {
        self.cell
            .get_or_init(|| COUNTERS.get_static(self.name))
            .fetch_add(delta, Ordering::Relaxed);
        // Literal counters also feed the flight recorder when armed.
        crate::trace::counter_event(self.name, delta);
    }
}

/// A `static` gauge handle: the per-call-site handle behind
/// `gauge!("name", v)`, and the building block of static name tables
/// for gauge families whose names are known at compile time (one handle
/// per `power.stage.<label>.*` series, say), which then skip both
/// formatting and the table lookup.
///
/// [`FastGauge::set`] records unconditionally; callers check
/// [`crate::enabled`] first, as the macro does.
#[derive(Debug)]
pub struct FastGauge {
    name: &'static str,
    cell: OnceLock<&'static GaugeCell>,
}

impl FastGauge {
    /// A handle for gauge `name`; its cell is interned on the first
    /// [`FastGauge::set`].
    #[must_use]
    pub const fn new(name: &'static str) -> FastGauge {
        FastGauge { name, cell: OnceLock::new() }
    }

    /// Sets the gauge to `value` (last write wins).
    #[inline]
    pub fn set(&self, value: f64) {
        self.cell.get_or_init(|| GAUGES.get_static(self.name)).set(value);
    }
}

/// Macro plumbing: the per-call-site handle behind `span!("name")`; the
/// guard records into the cached stats cell on drop.
#[doc(hidden)]
#[derive(Debug)]
pub struct SpanSlot {
    name: &'static str,
    cell: OnceLock<&'static Mutex<SpanStats>>,
}

impl SpanSlot {
    #[doc(hidden)]
    #[must_use]
    pub const fn new(name: &'static str) -> SpanSlot {
        SpanSlot { name, cell: OnceLock::new() }
    }

    pub(crate) fn name(&self) -> &'static str {
        self.name
    }

    pub(crate) fn cell(&self) -> &'static Mutex<SpanStats> {
        self.cell.get_or_init(|| SPANS.get_static(self.name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::lock;

    #[test]
    fn interning_dedups_by_name_across_call_sites() {
        static A: FastCounter = FastCounter::new("fastpath.test.shared");
        static B: FastCounter = FastCounter::new("fastpath.test.shared");
        let _l = crate::global_test_lock();
        crate::reset();
        crate::set_enabled(true);
        A.add(2);
        B.add(3);
        // A computed name written from two sites interns one cell.
        crate::counter!(format!("fastpath.test.{}", "computed"), 1);
        crate::counter_add(&format!("fastpath.test.{}", "computed"), 2);
        let snap = crate::snapshot();
        assert_eq!(snap.counter("fastpath.test.shared"), Some(5));
        assert_eq!(snap.counter("fastpath.test.computed"), Some(3));
        let computed = snap.counters.iter().filter(|(n, _)| n == "fastpath.test.computed").count();
        assert_eq!(computed, 1, "one series per computed name");
        crate::reset();
        assert_eq!(crate::snapshot().counter("fastpath.test.shared"), None);
    }

    #[test]
    fn merge_combines_fast_and_slow_series() {
        static FAST: FastCounter = FastCounter::new("fastpath.test.both");
        static GAUGE: FastGauge = FastGauge::new("fastpath.test.gauge");
        let _l = crate::global_test_lock();
        crate::reset();
        crate::set_enabled(true);
        FAST.add(4);
        crate::counter_add("fastpath.test.both", 6); // computed path, same name
        GAUGE.set(2.5);
        crate::observe!("fastpath.test.hist", 3.0); // literal name
        crate::observe_f64("fastpath.test.hist", 5.0); // computed path, same name
        {
            crate::span!("fastpath.test.span.both");
        }
        {
            let _g = crate::SpanGuard::enter("fastpath.test.span.both");
        }
        let snap = crate::snapshot();
        assert_eq!(snap.counter("fastpath.test.both"), Some(10));
        assert_eq!(snap.gauge("fastpath.test.gauge"), Some(2.5));
        let hist = snap.hist("fastpath.test.hist").expect("histogram recorded");
        assert_eq!((hist.count(), hist.sum()), (2, 8.0));
        assert_eq!(snap.hists.iter().filter(|(n, _)| n == "fastpath.test.hist").count(), 1);
        assert_eq!(snap.span("fastpath.test.span.both").map(|s| s.count), Some(2));
        assert_eq!(snap.spans.iter().filter(|(n, _)| n == "fastpath.test.span.both").count(), 1);
        // The snapshot is deterministically sorted.
        let mut names: Vec<&String> = snap.counters.iter().map(|(n, _)| n).collect();
        let sorted = names.clone();
        names.sort();
        assert_eq!(names, sorted);
        crate::reset();
    }

    #[test]
    fn span_slots_accumulate_and_reset() {
        static SLOT: SpanSlot = SpanSlot::new("fastpath.test.span");
        let _l = crate::global_test_lock();
        crate::reset();
        crate::set_enabled(true);
        lock(SLOT.cell()).record(10, 10);
        lock(SLOT.cell()).record(30, 20);
        let snap = crate::snapshot();
        let stats = snap.span("fastpath.test.span").expect("span recorded");
        assert_eq!(stats.count, 2);
        assert_eq!(stats.total_ns, 40);
        assert_eq!(stats.self_ns, 30);
        assert_eq!(stats.durations.count(), 2);
        crate::reset();
        assert!(crate::snapshot().span("fastpath.test.span").is_none());
    }
}
