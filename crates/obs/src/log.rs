//! Structured JSONL logging: leveled, rate-limited, one JSON object per
//! line, written to a file or stderr — the audit-trail counterpart to
//! the aggregate metric store ([`crate::metrics`]) and the flight recorder
//! ([`crate::trace`]).
//!
//! # Record shape
//!
//! Every record is a single-line JSON object. The header fields are
//! written automatically; typed fields follow in call order:
//!
//! ```text
//! {"ts_ns":10452417,"level":"info","event":"serve.request.finish",
//!  "thread":"qisim-serve-worker","request_id":7,
//!  "outcome":"ok","latency_ms":1.25}
//! ```
//!
//! * `ts_ns` — nanoseconds since the process observability epoch (the
//!   same clock as [`crate::trace::now_ns`] and `Snapshot::at_ns`).
//! * `level` — `debug` / `info` / `warn` / `error`.
//! * `event` — a dotted event name (`serve.request.start`,
//!   `engine.stage`, …).
//! * `thread` — the recording thread's name.
//! * `request_id` — present automatically whenever a
//!   [`crate::ctx::RequestScope`] is open on the recording thread.
//!
//! Floats use the shortest round-trip formatting of [`crate::json`], so
//! a parsed record reproduces the recorded bits exactly.
//!
//! # Arming
//!
//! Mirrors [`crate::trace`] / [`crate::telemetry`]: **disarmed** by
//! default, where [`armed`] is a single relaxed atomic load and
//! [`record`] returns an inert builder whose field calls and `emit` are
//! no-ops. It arms in two ways:
//!
//! - through `QISIM_LOG=<path|stderr>[:level]`, read once on first use
//!   (`stderr` is the one magic path; the suffix after the last colon is
//!   a level name — `debug`, `info`, `warn`, `error` — defaulting to
//!   `info`);
//! - programmatically, via [`start`] / [`shutdown`] —
//!   the API the tests and `qisim-serve` use.
//!
//! # Rate limiting
//!
//! At most [`DEFAULT_RATE_CAP`] records per second are written
//! ([`set_rate_cap`] overrides); excess records within a window are
//! dropped, counted under `log.suppressed`, and summarized by a
//! synthetic `log.suppressed` record when the window rolls over (and on
//! [`shutdown`]), so a flooded log always says how much it lost.
//!
//! [`crate::set_enabled`] is the kill switch for the metrics side only;
//! the logger arms on its own (an operator can log with the metric store
//! disabled).

use std::io::Write;
use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Default cap on records written per one-second window
/// ([`set_rate_cap`] overrides).
pub const DEFAULT_RATE_CAP: u32 = 2000;

/// Log severity, ordered `Debug < Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Per-stage and per-step detail (engine stage timings).
    Debug = 0,
    /// Request lifecycle records (the default threshold).
    Info = 1,
    /// Anomalies the service absorbed (slow requests, suppression).
    Warn = 2,
    /// Failures worth an operator's attention.
    Error = 3,
}

impl Level {
    /// Stable wire label (lowercase).
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    /// Inverse of [`Level::as_str`].
    pub fn from_label(label: &str) -> Option<Level> {
        match label {
            "debug" => Some(Level::Debug),
            "info" => Some(Level::Info),
            "warn" => Some(Level::Warn),
            "error" => Some(Level::Error),
            _ => None,
        }
    }
}

const STATE_UNINIT: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static ARMED: AtomicU8 = AtomicU8::new(STATE_UNINIT);
static MIN_LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);
static RATE_CAP: AtomicU32 = AtomicU32::new(DEFAULT_RATE_CAP);

/// Where armed records go.
#[derive(Debug)]
enum SinkOut {
    Stderr,
    File(std::fs::File),
}

/// The sink plus its rate-limiter state, all under one mutex so a
/// window rollover and its suppression record are atomic.
#[derive(Debug)]
struct Sink {
    out: SinkOut,
    window_start_ns: u64,
    written_in_window: u32,
    suppressed_in_window: u64,
}

impl Sink {
    fn write_bytes(&mut self, bytes: &[u8]) {
        // Best-effort: a full disk or closed stderr must never take the
        // workload down.
        match &mut self.out {
            SinkOut::Stderr => {
                let _ = std::io::stderr().write_all(bytes);
            }
            SinkOut::File(f) => {
                let _ = f.write_all(bytes);
            }
        }
    }

    /// Rolls the one-second rate window forward, emitting the synthetic
    /// suppression summary for the window that just closed.
    fn roll_window(&mut self, now_ns: u64) {
        if now_ns.saturating_sub(self.window_start_ns) < 1_000_000_000 {
            return;
        }
        self.flush_suppressed(now_ns);
        self.window_start_ns = now_ns;
        self.written_in_window = 0;
    }

    /// Writes the `log.suppressed` summary record if any records were
    /// dropped since the last summary.
    fn flush_suppressed(&mut self, now_ns: u64) {
        if self.suppressed_in_window == 0 {
            return;
        }
        let mut line = String::with_capacity(96);
        line.push_str("{\"ts_ns\":");
        crate::json::push_u64(&mut line, now_ns);
        line.push_str(",\"level\":\"warn\",\"event\":\"log.suppressed\",\"dropped\":");
        crate::json::push_u64(&mut line, self.suppressed_in_window);
        line.push_str("}\n");
        self.suppressed_in_window = 0;
        self.write_bytes(line.as_bytes());
    }
}

static SINK: Mutex<Option<Sink>> = Mutex::new(None);

fn sink_slot() -> MutexGuard<'static, Option<Sink>> {
    SINK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The `QISIM_LOG` value captured at first use (`None` = unset).
static ENV_SPEC: OnceLock<Option<(String, Level)>> = OnceLock::new();

/// Parses a `<path|stderr>[:level]` spec: the suffix after the *last*
/// colon is the level only when it names one, so paths containing colons
/// still work. Empty specs are `None`.
fn parse_spec(spec: &str) -> Option<(String, Level)> {
    let spec = spec.trim();
    if spec.is_empty() {
        return None;
    }
    if let Some((path, level)) = spec.rsplit_once(':') {
        if !path.is_empty() {
            if let Some(level) = Level::from_label(level.trim()) {
                return Some((path.to_string(), level));
            }
        }
    }
    Some((spec.to_string(), Level::Info))
}

fn env_spec() -> &'static Option<(String, Level)> {
    ENV_SPEC.get_or_init(|| std::env::var("QISIM_LOG").ok().as_deref().and_then(parse_spec))
}

/// One-time arming decision from the environment; returns whether the
/// logger armed.
fn init_from_env() -> bool {
    match env_spec() {
        Some((path, level)) if path == "stderr" => arm(*level, || Some(SinkOut::Stderr)),
        Some((path, level)) => {
            let armed = start(path, *level);
            if !armed {
                eprintln!("qisim-obs: QISIM_LOG: cannot open log sink `{path}`; logging disabled");
            }
            armed
        }
        None => {
            ARMED.store(STATE_OFF, Ordering::Relaxed);
            false
        }
    }
}

/// Whether a record at `level` would currently be written. This is the
/// hot-path gate: when disarmed it is a single relaxed atomic load.
#[inline]
pub fn armed(level: Level) -> bool {
    let on = match ARMED.load(Ordering::Relaxed) {
        STATE_UNINIT => init_from_env(),
        state => state == STATE_ON,
    };
    on && level as u8 >= MIN_LEVEL.load(Ordering::Relaxed)
}

/// Arms the logger writing JSONL records at or above `level` to the file
/// at `path` (created/truncated). Returns `false` (changing nothing)
/// when a sink is already armed or the file cannot be created.
pub fn start(path: &str, level: Level) -> bool {
    arm(level, || std::fs::File::create(path).ok().map(SinkOut::File))
}

/// Arms the logger at `level` on the sink `open` yields — unless a sink
/// is already armed (changing nothing) or `open` fails (leaving the
/// logger off).
fn arm(level: Level, open: impl FnOnce() -> Option<SinkOut>) -> bool {
    let mut slot = sink_slot();
    if slot.is_some() {
        return false;
    }
    let Some(out) = open() else {
        ARMED.store(STATE_OFF, Ordering::Relaxed);
        return false;
    };
    *slot = Some(Sink {
        out,
        window_start_ns: crate::trace::now_ns(),
        written_in_window: 0,
        suppressed_in_window: 0,
    });
    MIN_LEVEL.store(level as u8, Ordering::Relaxed);
    ARMED.store(STATE_ON, Ordering::Relaxed);
    true
}

/// Disarms the logger: writes the pending suppression summary, flushes,
/// and closes the sink. Returns `false` when no sink was armed.
pub fn shutdown() -> bool {
    let mut slot = sink_slot();
    let Some(mut sink) = slot.take() else { return false };
    sink.flush_suppressed(crate::trace::now_ns());
    if let SinkOut::File(f) = &mut sink.out {
        let _ = f.flush();
    }
    ARMED.store(STATE_OFF, Ordering::Relaxed);
    true
}

/// Overrides the per-second record cap (clamped to at least 1); see
/// [`DEFAULT_RATE_CAP`].
pub fn set_rate_cap(records_per_second: u32) {
    RATE_CAP.store(records_per_second.max(1), Ordering::Relaxed);
}

/// A JSONL record under construction; created by [`record`]. Field
/// methods append typed `key:value` pairs in call order and [`emit`]
/// writes the finished line. When the logger is disarmed (or the record
/// is below the threshold) every method is a no-op.
///
/// [`emit`]: Record::emit
#[derive(Debug)]
#[must_use = "a record does nothing until .emit()"]
pub struct Record {
    buf: Option<String>,
}

/// Opens a record at `level` for `event`. The header fields (`ts_ns`,
/// `level`, `event`, `thread`, and — when a [`crate::ctx::RequestScope`]
/// is open — `request_id`) are filled in automatically; chain typed
/// field calls and finish with [`Record::emit`].
pub fn record(level: Level, event: &str) -> Record {
    if !armed(level) {
        return Record { buf: None };
    }
    let mut buf = String::with_capacity(192);
    buf.push_str("{\"ts_ns\":");
    crate::json::push_u64(&mut buf, crate::trace::now_ns());
    buf.push_str(",\"level\":\"");
    buf.push_str(level.as_str());
    buf.push_str("\",\"event\":");
    crate::json::push_str_literal(&mut buf, event);
    buf.push_str(",\"thread\":");
    let thread = std::thread::current();
    crate::json::push_str_literal(&mut buf, thread.name().unwrap_or("unnamed"));
    if let Some(id) = crate::ctx::current() {
        buf.push_str(",\"request_id\":");
        crate::json::push_u64(&mut buf, id);
    }
    Record { buf: Some(buf) }
}

impl Record {
    fn key(&mut self, key: &str) {
        if let Some(buf) = &mut self.buf {
            buf.push(',');
            crate::json::push_str_literal(buf, key);
            buf.push(':');
        }
    }

    /// Appends a string field (JSON-escaped).
    pub fn str(mut self, key: &str, value: &str) -> Record {
        self.key(key);
        if let Some(buf) = &mut self.buf {
            crate::json::push_str_literal(buf, value);
        }
        self
    }

    /// Appends an unsigned-integer field.
    pub fn u64(mut self, key: &str, value: u64) -> Record {
        self.key(key);
        if let Some(buf) = &mut self.buf {
            crate::json::push_u64(buf, value);
        }
        self
    }

    /// Appends a signed-integer field.
    pub fn i64(mut self, key: &str, value: i64) -> Record {
        self.key(key);
        if let Some(buf) = &mut self.buf {
            buf.push_str(&value.to_string());
        }
        self
    }

    /// Appends a float field in shortest round-trip form (non-finite
    /// values become `null`, see [`crate::json::push_f64`]).
    pub fn f64(mut self, key: &str, value: f64) -> Record {
        self.key(key);
        if let Some(buf) = &mut self.buf {
            crate::json::push_f64(buf, value);
        }
        self
    }

    /// Appends a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> Record {
        self.key(key);
        if let Some(buf) = &mut self.buf {
            buf.push_str(if value { "true" } else { "false" });
        }
        self
    }

    /// Closes the record and writes it (subject to the rate limiter).
    pub fn emit(self) {
        let Some(mut buf) = self.buf else { return };
        buf.push_str("}\n");
        write_line(&buf);
    }
}

/// Writes one finished line through the rate limiter.
fn write_line(line: &str) {
    let now_ns = crate::trace::now_ns();
    let mut slot = sink_slot();
    let Some(sink) = slot.as_mut() else { return };
    sink.roll_window(now_ns);
    if sink.written_in_window >= RATE_CAP.load(Ordering::Relaxed) {
        sink.suppressed_in_window += 1;
        drop(slot);
        crate::counter_add("log.suppressed", 1);
        return;
    }
    sink.written_in_window += 1;
    sink.write_bytes(line.as_bytes());
    drop(slot);
    crate::counter_add("log.records", 1);
}
