//! The flight recorder: bounded per-thread ring buffers of timestamped
//! trace events (span begin/end, instants, counter deltas), drained into
//! a [`TraceSession`] for export as a Chrome `trace_event` JSON timeline
//! or folded flamegraph stacks (see [`crate::trace_export`]).
//!
//! Where the metric store ([`crate::metrics`]) keeps *aggregates*
//! (how much time, how many calls), the recorder keeps *order*: which
//! pipeline stage ran when, on which worker thread, and how power
//! landings and Monte-Carlo chunks interleaved across a sweep.
//!
//! # Recording model
//!
//! - Each thread that records while the recorder is [`armed`] lazily
//!   registers one fixed-capacity ring buffer (a *lane*). Recording into
//!   the ring never allocates and never blocks on other threads: the
//!   only lock taken is the lane's own (uncontended except during a
//!   drain).
//! - Rings are **drop-oldest**: once full, each new event overwrites the
//!   oldest one and bumps a per-lane dropped count. [`TraceSession::drain`]
//!   publishes the total as the `trace.dropped_events` counter, so a
//!   truncated timeline is always visible in `BENCH_obs.json`.
//! - Event names are `&'static str` and argument lists are fixed-size
//!   (at most [`MAX_ARGS`] numeric pairs), keeping every event `Copy`.
//!
//! # Arming
//!
//! The recorder is **disarmed** by default: every recording entry point
//! is a single relaxed atomic load and nothing is ever allocated. It
//! arms in two ways:
//!
//! - programmatically, via [`arm`] / [`disarm`];
//! - through the `QISIM_TRACE=<path>` environment variable, read once on
//!   first use: the recorder arms itself and [`TraceSession::finish`]
//!   (or, best-effort, process exit) writes the Chrome JSON to `<path>`
//!   and the folded stacks to `<path>.folded`.
//!
//! The [`crate::set_enabled`] runtime toggle remains the outer kill
//! switch: a disabled metric store opens no spans, so no span events
//! reach the rings either.

use std::cell::RefCell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Maximum number of `(key, value)` argument pairs one event can carry.
pub const MAX_ARGS: usize = 3;

/// Per-thread ring capacity, in events.
pub const DEFAULT_CAPACITY: usize = 16 * 1024;

/// The kind of one recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A span opened (`ph: "B"` in Chrome terms).
    Begin,
    /// A span closed (`ph: "E"`).
    End,
    /// A point-in-time marker (`ph: "i"`).
    Instant,
    /// A counter delta (`ph: "C"`; the exporter accumulates deltas into
    /// a running total per counter name).
    Counter,
}

/// One timestamped flight-recorder event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Nanoseconds since the recorder's epoch (first arm).
    pub t_ns: u64,
    /// Event kind.
    pub kind: TraceEventKind,
    /// Static event name (span name, marker name, or counter name).
    pub name: &'static str,
    /// Span id for [`TraceEventKind::Begin`] / [`TraceEventKind::End`]
    /// (0 otherwise). Ids are process-unique, so begin/end pairs survive
    /// ring truncation.
    pub span_id: u64,
    /// Enclosing span's id at begin time (0 = root).
    pub parent_id: u64,
    /// Up to [`MAX_ARGS`] numeric arguments (qubit counts, chunk
    /// indices, latencies, counter deltas).
    pub args: [Option<(&'static str, f64)>; MAX_ARGS],
}

impl TraceEvent {
    fn new(kind: TraceEventKind, name: &'static str) -> TraceEvent {
        TraceEvent { t_ns: now_ns(), kind, name, span_id: 0, parent_id: 0, args: [None; MAX_ARGS] }
    }
}

/// All events one thread recorded, oldest first, plus the lane's
/// identity.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ThreadTimeline {
    /// Lane id (stable per recording thread; also the Chrome `tid`).
    pub lane: u32,
    /// Human label (`"main"`-style or `"qisim-par worker-3"`).
    pub label: String,
    /// Events in recording order (timestamps are non-decreasing).
    pub events: Vec<TraceEvent>,
    /// Events this lane overwrote because its ring was full.
    pub dropped: u64,
}

/// A drained copy of every lane's ring buffer: the unit the exporters
/// consume ([`crate::trace_export::chrome_trace_json`] /
/// [`crate::trace_export::folded_stacks`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSession {
    /// Per-thread timelines, ordered by lane id. Lanes that recorded
    /// nothing are omitted.
    pub threads: Vec<ThreadTimeline>,
    /// Total events dropped across all lanes (also published as the
    /// `trace.dropped_events` counter).
    pub dropped_events: u64,
}

impl TraceSession {
    /// Copies every lane's events out of the rings and clears them.
    /// Lanes stay registered (their threads may still be recording), so
    /// repeated drains yield disjoint event sets.
    ///
    /// Publishes the cumulative dropped-event total as the
    /// `trace.dropped_events` counter when any events were lost.
    pub fn drain() -> TraceSession {
        let lanes = lanes().lock().unwrap_or_else(|e| e.into_inner()).clone();
        let mut threads = Vec::new();
        let mut dropped_events = 0u64;
        for lane in &lanes {
            let mut ring = lane.lock().unwrap_or_else(|e| e.into_inner());
            dropped_events += ring.dropped;
            if ring.len == 0 && ring.dropped == 0 {
                continue;
            }
            threads.push(ThreadTimeline {
                lane: ring.lane,
                label: ring.label.clone(),
                events: ring.take_events(),
                dropped: std::mem::take(&mut ring.dropped),
            });
        }
        threads.sort_by_key(|t| t.lane);
        if dropped_events > 0 {
            crate::counter_add("trace.dropped_events", dropped_events);
        }
        TraceSession { threads, dropped_events }
    }

    /// Whether no lane recorded anything.
    pub fn is_empty(&self) -> bool {
        self.threads.is_empty()
    }

    /// Total number of events across all lanes.
    pub fn event_count(&self) -> usize {
        self.threads.iter().map(|t| t.events.len()).sum()
    }

    /// The timeline of one lane, if present.
    pub fn thread(&self, lane: u32) -> Option<&ThreadTimeline> {
        self.threads.iter().find(|t| t.lane == lane)
    }

    /// If the recorder was armed through `QISIM_TRACE=<path>`, writes
    /// the Chrome `trace_event` JSON to `<path>` and the folded
    /// flamegraph stacks to `<path>.folded`, and returns the JSON path.
    /// Returns `None` (writing nothing) when the recorder was armed
    /// programmatically or not at all.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if either artifact cannot be written.
    pub fn finish(self) -> std::io::Result<Option<PathBuf>> {
        let Some(path) = env_path() else { return Ok(None) };
        ENV_DUMPED.store(true, Ordering::Relaxed);
        let json = crate::trace_export::chrome_trace_json(&self);
        std::fs::write(&path, json)?;
        let mut folded = path.clone().into_os_string();
        folded.push(".folded");
        std::fs::write(PathBuf::from(folded), crate::trace_export::folded_stacks(&self))?;
        Ok(Some(path))
    }
}

/// Whether the flight recorder is currently armed. This is the hot-path
/// gate: when disarmed it is a single relaxed atomic load, so
/// instrumented loops cost nothing beyond it.
#[inline]
pub fn armed() -> bool {
    match ARMED.load(Ordering::Relaxed) {
        STATE_UNINIT => init_from_env(),
        state => state == STATE_ON,
    }
}

/// Arms the recorder: subsequent spans, instants, and counters are
/// written to the per-thread rings.
pub fn arm() {
    armed(); // force env init so a later finish() sees the path
    let _ = epoch();
    ARMED.store(STATE_ON, Ordering::Relaxed);
}

/// Disarms the recorder; already-recorded events stay in the rings until
/// the next [`TraceSession::drain`].
pub fn disarm() {
    armed(); // keep the env-initialized state machine consistent
    ARMED.store(STATE_OFF, Ordering::Relaxed);
}

/// Labels the calling thread's lane in the exported timeline (e.g.
/// `"qisim-par worker-2"`). Registers the lane if the thread has none
/// yet; a no-op when the recorder is disarmed.
pub fn set_thread_label(label: &str) {
    if !armed() {
        return;
    }
    with_ring(|ring| {
        ring.label.clear();
        ring.label.push_str(label);
    });
}

/// Nanoseconds since the recorder's epoch (the first arm or first
/// timestamp request). Useful for computing latency arguments like
/// queue-to-start times.
#[inline]
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Records a point-in-time marker with up to [`MAX_ARGS`] numeric
/// arguments (extra pairs are ignored). A no-op when disarmed.
pub fn instant(name: &'static str, args: &[(&'static str, f64)]) {
    if !armed() {
        return;
    }
    let mut ev = TraceEvent::new(TraceEventKind::Instant, name);
    for (slot, &pair) in ev.args.iter_mut().zip(args.iter()) {
        *slot = Some(pair);
    }
    attach_request_id(&mut ev);
    record(ev);
}

/// Records a counter delta event (the Chrome exporter accumulates
/// deltas into a per-name running total). A no-op when disarmed.
/// [`crate::counter!`] with a literal name routes here automatically.
pub fn counter_event(name: &'static str, delta: u64) {
    if !armed() {
        return;
    }
    let mut ev = TraceEvent::new(TraceEventKind::Counter, name);
    ev.args[0] = Some(("delta", delta as f64));
    record(ev);
}

/// Allocates a fresh process-unique span id (never 0).
pub fn new_span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

/// Records a span-begin event (used by [`crate::SpanGuard`]).
pub fn span_begin(name: &'static str, span_id: u64, parent_id: u64) {
    if !armed() {
        return;
    }
    let mut ev = TraceEvent::new(TraceEventKind::Begin, name);
    ev.span_id = span_id;
    ev.parent_id = parent_id;
    attach_request_id(&mut ev);
    record(ev);
}

/// Records a span-end event matching a prior [`span_begin`].
pub fn span_end(name: &'static str, span_id: u64) {
    if !armed() {
        return;
    }
    let mut ev = TraceEvent::new(TraceEventKind::End, name);
    ev.span_id = span_id;
    record(ev);
}

// ---------------------------------------------------------------------
// Recorder internals.
// ---------------------------------------------------------------------

const STATE_UNINIT: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static ARMED: AtomicU8 = AtomicU8::new(STATE_UNINIT);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static ENV_DUMPED: AtomicBool = AtomicBool::new(false);

static EPOCH: OnceLock<Instant> = OnceLock::new();

fn epoch() -> &'static Instant {
    EPOCH.get_or_init(Instant::now)
}

/// The `QISIM_TRACE` value captured at first use (`None` = unset).
static ENV_PATH: OnceLock<Option<PathBuf>> = OnceLock::new();

fn env_path() -> Option<PathBuf> {
    ENV_PATH
        .get_or_init(|| match std::env::var("QISIM_TRACE") {
            Ok(path) if !path.trim().is_empty() => Some(PathBuf::from(path)),
            _ => None,
        })
        .clone()
}

/// One-time arming decision from the environment; returns the armed
/// state. Threads racing here agree because the path and state are both
/// idempotent.
fn init_from_env() -> bool {
    let arm_from_env = env_path().is_some();
    if arm_from_env {
        let _ = epoch();
        // The exit dump rides a TLS destructor; install it only on the
        // main thread so a short-lived worker being the first to touch
        // the recorder cannot dump the trace mid-run when it exits.
        if std::thread::current().name() == Some("main") {
            EXIT_DUMP.with(|guard| guard.borrow_mut().active = true);
        }
        ARMED.store(STATE_ON, Ordering::Relaxed);
    } else {
        ARMED.store(STATE_OFF, Ordering::Relaxed);
    }
    arm_from_env
}

#[derive(Debug)]
struct Ring {
    lane: u32,
    label: String,
    /// Fixed-capacity storage; never reallocated after registration.
    events: Vec<TraceEvent>,
    /// Next write position once the ring has wrapped.
    head: usize,
    len: usize,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, ev: TraceEvent) {
        let cap = self.events.capacity();
        if self.len < cap {
            self.events.push(ev);
            self.len += 1;
        } else {
            // Drop-oldest: overwrite in place, no allocation.
            self.events[self.head] = ev;
            self.head = (self.head + 1) % cap;
            self.dropped += 1;
        }
    }

    /// Copies the events out oldest-first and resets the ring.
    fn take_events(&mut self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.len);
        out.extend_from_slice(&self.events[self.head..]);
        out.extend_from_slice(&self.events[..self.head]);
        self.events.clear();
        self.head = 0;
        self.len = 0;
        out
    }
}

static LANES: OnceLock<Mutex<Vec<Arc<Mutex<Ring>>>>> = OnceLock::new();

fn lanes() -> &'static Mutex<Vec<Arc<Mutex<Ring>>>> {
    LANES.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static TL_RING: RefCell<Option<Arc<Mutex<Ring>>>> = const { RefCell::new(None) };
    /// Best-effort end-of-process dump for `QISIM_TRACE` runs that never
    /// call [`TraceSession::finish`]; lives in the thread that first
    /// touched the recorder (normally `main`).
    static EXIT_DUMP: RefCell<ExitGuard> = const { RefCell::new(ExitGuard { active: false }) };
}

#[derive(Debug)]
struct ExitGuard {
    active: bool,
}

impl Drop for ExitGuard {
    fn drop(&mut self) {
        if self.active && !ENV_DUMPED.swap(true, Ordering::Relaxed) {
            if let Some(path) = env_path() {
                let session = TraceSession::drain();
                // Never panic in a TLS destructor; a failed dump is lost.
                let _ = std::fs::write(&path, crate::trace_export::chrome_trace_json(&session));
                let mut folded = path.into_os_string();
                folded.push(".folded");
                let _ = std::fs::write(
                    PathBuf::from(folded),
                    crate::trace_export::folded_stacks(&session),
                );
            }
        }
    }
}

/// Runs `f` on the calling thread's ring, registering a lane first if
/// needed. Registration is the only allocating step (one fixed-capacity
/// `Vec` plus the registry push); every later call locks only the
/// thread's own ring.
fn with_ring(f: impl FnOnce(&mut Ring)) {
    TL_RING.with(|tl| {
        let mut slot = tl.borrow_mut();
        if slot.is_none() {
            let mut registry = lanes().lock().unwrap_or_else(|e| e.into_inner());
            let lane = registry.len() as u32;
            let label = std::thread::current()
                .name()
                .map_or_else(|| format!("thread-{lane}"), |name| name.to_string());
            let ring = Arc::new(Mutex::new(Ring {
                lane,
                label,
                events: Vec::with_capacity(DEFAULT_CAPACITY),
                head: 0,
                len: 0,
                dropped: 0,
            }));
            registry.push(Arc::clone(&ring));
            *slot = Some(ring);
        }
        if let Some(ring) = slot.as_ref() {
            f(&mut ring.lock().unwrap_or_else(|e| e.into_inner()));
        }
    });
}

fn record(ev: TraceEvent) {
    with_ring(|ring| ring.push(ev));
}

/// Stamps the thread's [`crate::ctx`] request id into the first free
/// argument slot, so request-scoped spans and instants are attributable
/// in the exported timeline. A no-op when no scope is open or every
/// slot is taken (caller-provided arguments win).
fn attach_request_id(ev: &mut TraceEvent) {
    if let Some(id) = crate::ctx::current() {
        if let Some(slot) = ev.args.iter_mut().find(|slot| slot.is_none()) {
            *slot = Some(("request_id", id as f64));
        }
    }
}

/// Clears every lane's events and dropped counts (test support; lanes
/// stay registered).
pub fn clear() {
    let registry = lanes().lock().unwrap_or_else(|e| e.into_inner()).clone();
    for lane in &registry {
        let mut ring = lane.lock().unwrap_or_else(|e| e.into_inner());
        ring.take_events();
        ring.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_recorder_records_nothing() {
        let _l = crate::global_test_lock();
        disarm();
        clear();
        instant("trace.test.noop", &[("x", 1.0)]);
        counter_event("trace.test.noop", 1);
        span_begin("trace.test.noop", 1, 0);
        span_end("trace.test.noop", 1);
        let session = TraceSession::drain();
        assert!(
            session.threads.iter().all(|t| t.events.iter().all(|e| !e.name.contains("noop"))),
            "{session:?}"
        );
    }

    #[test]
    fn armed_recorder_keeps_event_order_and_args() {
        let _l = crate::global_test_lock();
        arm();
        clear();
        instant("trace.test.a", &[("qubits", 128.0)]);
        instant("trace.test.b", &[]);
        // A fourth argument is ignored, not an error.
        instant("trace.test.c", &[("a", 1.0), ("b", 2.0), ("c", 3.0), ("d", 4.0)]);
        let session = TraceSession::drain();
        disarm();
        let mine: Vec<&TraceEvent> = session
            .threads
            .iter()
            .flat_map(|t| &t.events)
            .filter(|e| e.name.starts_with("trace.test."))
            .collect();
        assert_eq!(mine.len(), 3, "{session:?}");
        assert_eq!(mine[0].name, "trace.test.a");
        assert_eq!(mine[0].args[0], Some(("qubits", 128.0)));
        assert_eq!(mine[2].args[2], Some(("c", 3.0)));
        assert!(mine.windows(2).all(|w| w[0].t_ns <= w[1].t_ns), "timestamps monotonic");
        // The drain cleared the rings.
        assert!(TraceSession::drain()
            .threads
            .iter()
            .flat_map(|t| &t.events)
            .all(|e| !e.name.starts_with("trace.test.")));
    }

    #[test]
    fn full_ring_drops_oldest_and_counts() {
        let _l = crate::global_test_lock();
        // Capacity applies to lanes registered after the call; this
        // thread may already own a default-capacity ring, so exercise
        // the drop-oldest logic directly.
        let mut ring = Ring {
            lane: 7,
            label: "test".into(),
            events: Vec::with_capacity(4),
            head: 0,
            len: 0,
            dropped: 0,
        };
        for i in 0..10u64 {
            let mut ev = TraceEvent::new(TraceEventKind::Instant, "trace.test.ring");
            ev.t_ns = i;
            ring.push(ev);
        }
        assert_eq!(ring.dropped, 6);
        let events = ring.take_events();
        let ts: Vec<u64> = events.iter().map(|e| e.t_ns).collect();
        assert_eq!(ts, vec![6, 7, 8, 9], "oldest events dropped, order kept");
        assert_eq!(ring.len, 0);
    }

    #[test]
    fn span_ids_are_unique_and_nonzero() {
        let a = new_span_id();
        let b = new_span_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn thread_labels_show_in_the_session() {
        let _l = crate::global_test_lock();
        arm();
        clear();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                set_thread_label("qisim-par worker-0");
                instant("trace.test.labeled", &[]);
            });
        });
        let session = TraceSession::drain();
        disarm();
        let lane = session
            .threads
            .iter()
            .find(|t| t.events.iter().any(|e| e.name == "trace.test.labeled"))
            .expect("worker lane present");
        assert_eq!(lane.label, "qisim-par worker-0");
    }

    #[test]
    fn finish_without_env_path_writes_nothing() {
        let _l = crate::global_test_lock();
        arm();
        clear();
        instant("trace.test.finish", &[]);
        let session = TraceSession::drain();
        disarm();
        // QISIM_TRACE is not set for the unit-test process.
        assert_eq!(session.finish().unwrap(), None);
    }
}
