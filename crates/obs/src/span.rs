//! Scoped span timers: RAII guards that time a region, nest correctly,
//! and attribute self- vs. child-time through a thread-local span stack.
//!
//! # Enable/disable semantics
//!
//! A span records into the metric store only when recording is
//! enabled at **both** enter and drop: [`SpanGuard::enter`] returns an
//! inert guard while disabled, and the drop handler re-checks
//! [`crate::enabled`] so a span that straddles a `set_enabled(false)`
//! call is discarded instead of half-recorded. The thread-local span
//! stack stays consistent either way — the frame pushed at enter is
//! always popped at drop, so surrounding spans keep attributing their
//! child time correctly.
//!
//! # Flight recorder
//!
//! When the [`crate::trace`] recorder is armed, every guard additionally
//! emits begin/end events (with process-unique span and parent ids) into
//! the calling thread's ring buffer, giving the Chrome-trace export its
//! per-thread timeline lanes.

use crate::metrics::{SpanStats, SPANS};
use std::cell::RefCell;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
struct Frame {
    /// Total ns spent in spans nested directly or transitively inside
    /// this frame.
    child_ns: u64,
    /// Flight-recorder span id (0 when the recorder was disarmed at
    /// enter; parents are resolved through this field).
    span_id: u64,
}

thread_local! {
    /// The spans currently open on this thread, innermost last.
    static SPAN_STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// An RAII guard timing a region; created by [`crate::span!`] or
/// [`SpanGuard::enter`]. On drop it records `(total, self)` time into the
/// span's stats cell in the metric store, where self-time excludes nested
/// spans.
#[derive(Debug)]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

#[derive(Debug)]
struct ActiveSpan {
    name: &'static str,
    start: Instant,
    span_id: u64,
    /// The span's stats cell, resolved at enter.
    stats: &'static Mutex<SpanStats>,
}

impl SpanGuard {
    /// Opens a span, looking its stats cell up by name. Returns an inert
    /// guard when recording is disabled at runtime.
    #[inline]
    pub fn enter(name: &'static str) -> SpanGuard {
        Self::enter_inner(name, || SPANS.get_static(name))
    }

    /// Opens a span whose stats cell is cached in a per-call-site
    /// `static` [`crate::SpanSlot`]; literal-name [`crate::span!`] sites
    /// route here.
    #[inline]
    pub fn enter_cached(slot: &'static crate::SpanSlot) -> SpanGuard {
        Self::enter_inner(slot.name(), || slot.cell())
    }

    #[inline]
    fn enter_inner(
        name: &'static str,
        stats: impl FnOnce() -> &'static Mutex<SpanStats>,
    ) -> SpanGuard {
        if !crate::enabled() {
            return SpanGuard { active: None };
        }
        // The periodic exporter arms itself off the first span any
        // instrumented workload opens: one relaxed load once
        // QISIM_METRICS has been found unset.
        let _ = crate::telemetry::armed();
        let span_id = if crate::trace::armed() {
            let id = crate::trace::new_span_id();
            let parent = SPAN_STACK.with(|s| s.borrow().last().map_or(0, |frame| frame.span_id));
            crate::trace::span_begin(name, id, parent);
            id
        } else {
            0
        };
        SPAN_STACK.with(|s| s.borrow_mut().push(Frame { child_ns: 0, span_id }));
        let stats = stats();
        SpanGuard { active: Some(ActiveSpan { name, start: Instant::now(), span_id, stats }) }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(span) = self.active.take() else { return };
        let total_ns = span.start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        // Always pop the frame pushed at enter — the stack must stay
        // consistent even when recording was disabled mid-span.
        let child_ns = SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let child = stack.pop().map_or(0, |frame| frame.child_ns);
            // Credit our full duration to the enclosing span's child time.
            if let Some(parent) = stack.last_mut() {
                parent.child_ns += total_ns;
            }
            child
        });
        if span.span_id != 0 {
            // Balanced with the begin emitted at enter (the exporter
            // closes the pair even if the recorder disarmed meanwhile).
            crate::trace::span_end(span.name, span.span_id);
        }
        // Re-checked at drop: a span that was open when recording was
        // disabled is discarded, not half-recorded.
        if crate::enabled() {
            crate::metrics::lock(span.stats).record(total_ns, total_ns.saturating_sub(child_ns));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn spin(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn nested_spans_split_self_and_child_time() {
        let _l = crate::global_test_lock();
        crate::reset();
        crate::set_enabled(true);
        {
            let _outer = SpanGuard::enter("test.outer");
            spin(Duration::from_millis(4));
            {
                let _inner = SpanGuard::enter("test.inner");
                spin(Duration::from_millis(6));
            }
            spin(Duration::from_millis(1));
        }
        let snap = crate::snapshot();
        let outer = snap.span("test.outer").expect("outer recorded").clone();
        let inner = snap.span("test.inner").expect("inner recorded").clone();
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        // Outer wraps inner entirely.
        assert!(outer.total_ns >= inner.total_ns, "outer {outer:?} inner {inner:?}");
        // Outer self-time excludes the inner 6 ms (1 ms slack for timer
        // granularity).
        assert!(
            outer.self_ns <= outer.total_ns - inner.total_ns + 1_000_000,
            "self {} total {} inner {}",
            outer.self_ns,
            outer.total_ns,
            inner.total_ns
        );
        // Inner has no children: self == total.
        assert_eq!(inner.self_ns, inner.total_ns);
        crate::reset();
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _l = crate::global_test_lock();
        crate::reset();
        crate::set_enabled(false);
        {
            let _g = SpanGuard::enter("test.disabled");
        }
        crate::set_enabled(true);
        assert!(crate::snapshot().span("test.disabled").is_none());
        crate::reset();
    }

    #[test]
    fn span_disabled_before_drop_is_discarded() {
        let _l = crate::global_test_lock();
        crate::reset();
        crate::set_enabled(true);
        {
            let _g = SpanGuard::enter("test.straddle.off");
            crate::set_enabled(false);
        }
        crate::set_enabled(true);
        assert!(
            crate::snapshot().span("test.straddle.off").is_none(),
            "a span open across set_enabled(false) must not record"
        );
        crate::reset();
    }

    #[test]
    fn span_enabled_before_drop_stays_inert_and_stack_stays_consistent() {
        let _l = crate::global_test_lock();
        crate::reset();
        crate::set_enabled(false);
        {
            let _g = SpanGuard::enter("test.straddle.on");
            crate::set_enabled(true);
            // A nested span opened after re-enabling records normally
            // and must not credit child time to a phantom parent frame.
            {
                let _inner = SpanGuard::enter("test.straddle.inner");
                spin(Duration::from_millis(1));
            }
        }
        let snap = crate::snapshot();
        assert!(
            snap.span("test.straddle.on").is_none(),
            "a span entered while disabled stays unrecorded"
        );
        let inner = snap.span("test.straddle.inner").expect("inner recorded");
        assert_eq!(inner.self_ns, inner.total_ns, "inner has no children");
        // The stack is balanced: a fresh span still attributes cleanly.
        {
            let _g = SpanGuard::enter("test.straddle.after");
        }
        assert!(crate::snapshot().span("test.straddle.after").is_some());
        crate::reset();
    }

    #[test]
    fn sibling_spans_both_credit_the_parent() {
        let _l = crate::global_test_lock();
        crate::reset();
        crate::set_enabled(true);
        {
            let _p = SpanGuard::enter("test.parent");
            for _ in 0..2 {
                let _c = SpanGuard::enter("test.child");
                spin(Duration::from_millis(2));
            }
        }
        let snap = crate::snapshot();
        let p = snap.span("test.parent").unwrap().clone();
        let c = snap.span("test.child").unwrap().clone();
        assert_eq!(c.count, 2);
        assert!(p.total_ns >= c.total_ns);
        assert!(p.self_ns <= p.total_ns.saturating_sub(c.total_ns) + 1_000_000);
        crate::reset();
    }

    #[test]
    fn armed_spans_emit_balanced_begin_end_pairs_with_parent_ids() {
        let _l = crate::global_test_lock();
        crate::reset();
        crate::set_enabled(true);
        crate::trace::arm();
        crate::trace::clear();
        {
            let _outer = SpanGuard::enter("test.trace.outer");
            let _inner = SpanGuard::enter("test.trace.inner");
        }
        let session = crate::trace::TraceSession::drain();
        crate::trace::disarm();
        let events: Vec<_> = session
            .threads
            .iter()
            .flat_map(|t| &t.events)
            .filter(|e| e.name.starts_with("test.trace."))
            .collect();
        assert_eq!(events.len(), 4, "{events:?}");
        use crate::trace::TraceEventKind::{Begin, End};
        assert_eq!(events[0].kind, Begin);
        assert_eq!(events[0].name, "test.trace.outer");
        assert_eq!(events[1].kind, Begin);
        assert_eq!(events[1].name, "test.trace.inner");
        assert_eq!(events[1].parent_id, events[0].span_id, "inner parents to outer");
        assert_eq!(events[2].kind, End);
        assert_eq!(events[2].span_id, events[1].span_id, "LIFO close order");
        assert_eq!(events[3].kind, End);
        assert_eq!(events[3].span_id, events[0].span_id);
        crate::reset();
    }
}
