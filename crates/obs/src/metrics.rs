//! The metric store: every counter, gauge, histogram, and span
//! statistic, whichever call site recorded it.
//!
//! Names are dotted paths mirroring the Fig. 6 pipeline
//! (`power.max_qubits`, `cyclesim.simulate`, `scalability.analyze`, …).
//! Each kind has one name → cell table. A name is interned on first use
//! and its cell is leaked, so a cell reference stays valid for the life
//! of the process. Literal-name counter, gauge and span sites cache that
//! reference in a per-call-site handle ([`crate::fastpath`]) and never
//! touch the table again; histogram samples and computed names look
//! their cell up on every write and leak their string once, on first
//! use. Histogram names are literals at their call sites; computed names
//! are bounded: 5 stage labels × 7 `power.stage.*` gauges, plus 5
//! `topology.interconnect.*` gauges.
//!
//! [`crate::snapshot`] walks the tables in `BTreeMap` key order, so every
//! export is deterministically ordered. A series appears once it has
//! recorded since the last [`crate::reset`]: a nonzero counter, a gauge
//! that was set, a histogram or span with at least one sample. A reset
//! zeroes the cells in place; interned names stay interned.

use crate::hist::Histogram;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Aggregated timing statistics of one span name.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStats {
    /// Times the span was entered.
    pub count: u64,
    /// Total wall-clock nanoseconds (inclusive of children).
    pub total_ns: u64,
    /// Nanoseconds excluding time spent in nested child spans.
    pub self_ns: u64,
    /// Per-call duration distribution (ns).
    pub durations: Histogram,
}

impl SpanStats {
    fn new() -> Self {
        SpanStats { count: 0, total_ns: 0, self_ns: 0, durations: Histogram::new() }
    }

    /// Adds one completed occurrence.
    pub(crate) fn record(&mut self, total_ns: u64, self_ns: u64) {
        self.count += 1;
        self.total_ns += total_ns;
        self.self_ns += self_ns;
        self.durations.observe(total_ns as f64);
    }

    /// The occurrences recorded since `prev` (see
    /// [`Snapshot::delta_since`]). A store reset between the two
    /// snapshots makes the whole current value the delta; counts never
    /// go negative.
    fn delta_since(&self, prev: &SpanStats) -> SpanStats {
        if self.count < prev.count {
            return self.clone();
        }
        SpanStats {
            count: self.count - prev.count,
            total_ns: self.total_ns.saturating_sub(prev.total_ns),
            self_ns: self.self_ns.saturating_sub(prev.self_ns),
            durations: self.durations.delta_since(&prev.durations),
        }
    }
}

/// A point-in-time copy of the store contents, used by the exporters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Monotonic capture timestamp: nanoseconds since the process
    /// observability epoch (the recorder's first timestamp request).
    /// Two snapshots order by `at_ns`, so an
    /// interval's wall-clock length is `cur.at_ns - prev.at_ns` — the
    /// denominator that turns [`Snapshot::delta_since`] counters into
    /// rates.
    pub at_ns: u64,
    /// Counter values.
    pub counters: Vec<(String, u64)>,
    /// Gauge values.
    pub gauges: Vec<(String, f64)>,
    /// Histogram contents.
    pub hists: Vec<(String, Histogram)>,
    /// Span statistics.
    pub spans: Vec<(String, SpanStats)>,
}

impl Snapshot {
    /// Whether the snapshot holds no data at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.hists.is_empty()
            && self.spans.is_empty()
    }

    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Looks up span statistics by name.
    pub fn span(&self, name: &str) -> Option<&SpanStats> {
        self.spans.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// Looks up a histogram by name.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// The activity between `prev` and `self`, as a snapshot of its own:
    /// counters become per-interval increments, histograms and span
    /// durations hold only the interval's samples (so p50/p99 describe
    /// the last interval, not the process lifetime), and gauges keep
    /// their latest value (a gauge has no meaningful delta).
    ///
    /// Every series present in `self` stays present in the delta even
    /// when its interval value is zero, so a scraper sees a stable set
    /// of time series instead of families that blink in and out. Series
    /// that vanished entirely (only possible across a [`crate::reset`])
    /// are dropped. A reset between the snapshots never produces a
    /// negative delta: a counter that shrank reports its full current
    /// value (everything since the reset is new).
    ///
    /// `delta_since` of two identical snapshots is all-zero, and the
    /// delta of a delta against itself is zero again — the operation is
    /// idempotent at zero, which the telemetry tests pin.
    pub fn delta_since(&self, prev: &Snapshot) -> Snapshot {
        let counter_delta = |cur: u64, prev: Option<u64>| {
            let p = prev.unwrap_or(0);
            if cur >= p {
                cur - p
            } else {
                cur // reset in between: everything is new
            }
        };
        Snapshot {
            at_ns: self.at_ns,
            counters: self
                .counters
                .iter()
                .map(|(n, v)| (n.clone(), counter_delta(*v, prev.counter(n))))
                .collect(),
            gauges: self.gauges.clone(),
            hists: self
                .hists
                .iter()
                .map(|(n, h)| {
                    let d = match prev.hist(n) {
                        Some(p) => h.delta_since(p),
                        None => h.clone(),
                    };
                    (n.clone(), d)
                })
                .collect(),
            spans: self
                .spans
                .iter()
                .map(|(n, s)| {
                    let d = match prev.span(n) {
                        Some(p) => s.delta_since(p),
                        None => s.clone(),
                    };
                    (n.clone(), d)
                })
                .collect(),
        }
    }
}

/// Locks `m`, shrugging off poison: a panic mid-record can only leave a
/// half-updated metric, never a broken invariant worth refusing service
/// over.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A gauge value plus a "set since the last reset" flag, so an interned
/// but unwritten gauge stays out of snapshots.
#[derive(Debug, Default)]
pub(crate) struct GaugeCell {
    bits: AtomicU64,
    set: AtomicBool,
}

impl GaugeCell {
    pub(crate) fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
        self.set.store(true, Ordering::Release);
    }
}

/// One kind's name → cell table.
pub(crate) struct Table<C: 'static> {
    cells: Mutex<BTreeMap<&'static str, &'static C>>,
    fresh: fn() -> C,
}

impl<C: 'static> Table<C> {
    const fn new(fresh: fn() -> C) -> Self {
        Table { cells: Mutex::new(BTreeMap::new()), fresh }
    }

    /// The cell of a `'static` name; the name itself becomes the key.
    pub(crate) fn get_static(&self, name: &'static str) -> &'static C {
        self.intern(name, || name)
    }

    /// The cell of a computed name, leaking a copy of it on first use.
    pub(crate) fn get(&self, name: &str) -> &'static C {
        self.intern(name, || Box::leak(name.into()))
    }

    fn intern(&self, name: &str, key: impl FnOnce() -> &'static str) -> &'static C {
        let mut cells = lock(&self.cells);
        if let Some(&cell) = cells.get(name) {
            return cell;
        }
        let cell: &'static C = Box::leak(Box::new((self.fresh)()));
        cells.insert(key(), cell);
        cell
    }

    /// Every cell's value, in name order; `read` returns `None` for a
    /// cell that has not recorded since the last reset.
    fn read<V>(&self, read: impl Fn(&C) -> Option<V>) -> Vec<(String, V)> {
        lock(&self.cells).iter().filter_map(|(&n, c)| Some((n.to_owned(), read(c)?))).collect()
    }

    fn clear(&self, clear: impl Fn(&C)) {
        lock(&self.cells).values().for_each(|c| clear(c));
    }
}

pub(crate) static COUNTERS: Table<AtomicU64> = Table::new(AtomicU64::default);
pub(crate) static GAUGES: Table<GaugeCell> = Table::new(GaugeCell::default);
pub(crate) static HISTS: Table<Mutex<Histogram>> = Table::new(Mutex::default);
pub(crate) static SPANS: Table<Mutex<SpanStats>> = Table::new(|| Mutex::new(SpanStats::new()));

/// Adds `delta` to the named counter.
pub(crate) fn counter_add(name: &str, delta: u64) {
    COUNTERS.get(name).fetch_add(delta, Ordering::Relaxed);
}

/// Sets the named gauge to `value` (last write wins).
pub(crate) fn gauge_set(name: &str, value: f64) {
    GAUGES.get(name).set(value);
}

/// Records `value` into the named histogram.
pub(crate) fn observe(name: &str, value: f64) {
    lock(HISTS.get(name)).observe(value);
}

/// Copies every series recorded since the last [`reset`] out for
/// export, in name order, stamped with the monotonic capture time
/// ([`Snapshot::at_ns`]).
pub(crate) fn snapshot() -> Snapshot {
    Snapshot {
        at_ns: crate::trace::now_ns(),
        counters: COUNTERS.read(|c| Some(c.load(Ordering::Relaxed)).filter(|&v| v != 0)),
        gauges: GAUGES.read(|g| {
            g.set.load(Ordering::Acquire).then(|| f64::from_bits(g.bits.load(Ordering::Relaxed)))
        }),
        hists: HISTS.read(|h| Some(lock(h).clone()).filter(|h| h.count() > 0)),
        spans: SPANS.read(|s| Some(lock(s).clone()).filter(|s| s.count > 0)),
    }
}

/// Zeroes every cell.
pub(crate) fn reset() {
    COUNTERS.clear(|c| c.store(0, Ordering::Relaxed));
    GAUGES.clear(|g| g.set.store(false, Ordering::Relaxed));
    HISTS.clear(|h| *lock(h) = Histogram::new());
    SPANS.clear(|s| *lock(s) = SpanStats::new());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Takes the crate's global-state lock and empties the store.
    fn fresh_store() -> MutexGuard<'static, ()> {
        let l = crate::global_test_lock();
        reset();
        l
    }

    fn span_record(name: &'static str, total_ns: u64, self_ns: u64) {
        lock(SPANS.get_static(name)).record(total_ns, self_ns);
    }

    #[test]
    fn counters_accumulate_and_snapshot() {
        let _l = fresh_store();
        counter_add("a.calls", 2);
        counter_add("a.calls", 3);
        counter_add("b.calls", 1);
        let s = snapshot();
        assert_eq!(s.counter("a.calls"), Some(5));
        assert_eq!(s.counter("b.calls"), Some(1));
        assert_eq!(s.counter("missing"), None);
        reset();
    }

    #[test]
    fn gauges_are_last_write_wins() {
        let _l = fresh_store();
        gauge_set("u", 0.25);
        gauge_set("u", 0.75);
        assert_eq!(snapshot().gauge("u"), Some(0.75));
        reset();
    }

    #[test]
    fn spans_aggregate_count_total_and_self() {
        let _l = fresh_store();
        span_record("outer", 1000, 400);
        span_record("outer", 3000, 1000);
        let s = snapshot();
        let st = s.span("outer").unwrap();
        assert_eq!(st.count, 2);
        assert_eq!(st.total_ns, 4000);
        assert_eq!(st.self_ns, 1400);
        assert_eq!(st.durations.count(), 2);
        reset();
    }

    #[test]
    fn reset_clears_everything() {
        let _l = fresh_store();
        counter_add("x", 1);
        observe("h", 2.0);
        span_record("s", 10, 10);
        reset();
        assert!(snapshot().is_empty());
    }

    #[test]
    fn snapshot_is_deterministically_ordered() {
        let _l = fresh_store();
        for name in ["zeta", "alpha", "mid"] {
            counter_add(name, 1);
        }
        let snap = snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["alpha", "mid", "zeta"]);
        reset();
    }

    #[test]
    fn delta_since_yields_per_interval_values() {
        let _l = fresh_store();
        counter_add("c", 10);
        gauge_set("g", 1.0);
        observe("h", 2.0);
        span_record("s", 100, 100);
        let first = snapshot();
        counter_add("c", 5);
        gauge_set("g", 7.0);
        observe("h", 40.0);
        span_record("s", 300, 200);
        let delta = snapshot().delta_since(&first);
        assert_eq!(delta.counter("c"), Some(5), "interval increment, not lifetime total");
        assert_eq!(delta.gauge("g"), Some(7.0), "gauges keep the latest value");
        assert_eq!(delta.hist("h").unwrap().count(), 1);
        assert_eq!(delta.hist("h").unwrap().sum(), 40.0);
        let s = delta.span("s").unwrap();
        assert_eq!((s.count, s.total_ns, s.self_ns), (1, 300, 200));
        assert_eq!(s.durations.count(), 1);
        reset();
    }

    #[test]
    fn delta_of_identical_snapshots_is_all_zero() {
        let _l = fresh_store();
        counter_add("c", 3);
        observe("h", 9.0);
        span_record("s", 10, 10);
        let snap = snapshot();
        let delta = snapshot().delta_since(&snap);
        assert!(delta.counters.iter().all(|&(_, v)| v == 0), "{delta:?}");
        assert!(delta.hists.iter().all(|(_, h)| h.count() == 0), "{delta:?}");
        assert!(delta.spans.iter().all(|(_, s)| s.count == 0), "{delta:?}");
        // Delta-of-delta: diffing the zero delta against itself is still
        // all-zero (idempotent at zero).
        let dd = delta.delta_since(&delta);
        assert!(dd.counters.iter().all(|&(_, v)| v == 0), "{dd:?}");
        assert!(dd.hists.iter().all(|(_, h)| h.count() == 0), "{dd:?}");
        reset();
    }

    #[test]
    fn counter_deltas_never_go_negative_across_reset() {
        let _l = fresh_store();
        counter_add("c", 100);
        observe("h", 50.0);
        observe("h", 60.0);
        let before = snapshot();
        reset();
        counter_add("c", 7);
        observe("h", 3.0);
        let delta = snapshot().delta_since(&before);
        // The counter shrank (100 → 7): the delta is the full post-reset
        // value, never a wrapped/negative number.
        assert_eq!(delta.counter("c"), Some(7));
        assert_eq!(delta.hist("h").unwrap().count(), 1);
        reset();
    }

    #[test]
    fn snapshot_timestamps_are_monotonic() {
        let _l = fresh_store();
        let a = snapshot();
        counter_add("x", 1);
        let b = snapshot();
        assert!(b.at_ns >= a.at_ns, "at_ns must never run backwards");
        // The delta carries the interval-end timestamp.
        assert_eq!(b.delta_since(&a).at_ns, b.at_ns);
        reset();
    }

    #[test]
    fn registry_is_shareable_across_threads() {
        let _l = fresh_store();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..1000 {
                        counter_add("t", 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(snapshot().counter("t"), Some(4000));
        reset();
    }
}
