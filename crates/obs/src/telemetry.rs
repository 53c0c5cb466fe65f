//! The periodic telemetry exporter: a named background thread that wakes
//! on a fixed interval, computes the [delta] between the current global
//! registry contents and the previous wake-up, and atomically rewrites an
//! OpenMetrics exposition file — the live-scrape counterpart to the
//! one-shot `BENCH_obs.json` dump.
//!
//! # Delta model
//!
//! Each written file describes **one interval**, not the process
//! lifetime: counters carry the increment since the previous write,
//! histograms and span durations hold only the interval's samples (so
//! `_bucket`-derived p50/p99 are current latencies), and gauges pass
//! through their latest value. Every series present in the registry stays
//! in the file even when its interval value is zero, so scrapers see a
//! stable set of time series. Three meta-series describe the interval
//! itself: the `telemetry.ticks` counter (cumulative writes) and the
//! `telemetry.interval_ms` / `telemetry.interval_start_ns` /
//! `telemetry.interval_end_ns` gauges (bounds in registry-epoch
//! nanoseconds, from [`crate::metrics::Snapshot::at_ns`]).
//!
//! # Arming
//!
//! Mirrors [`crate::trace`]: **disarmed** by default, where [`armed`] is
//! a single relaxed atomic load and nothing is allocated or spawned. It
//! arms in two ways:
//!
//! - through `QISIM_METRICS=<path>[:interval_ms]`, read once on first
//!   use (the first span entered anywhere checks it), which spawns the
//!   `qisim-metrics` thread writing to `<path>` every `interval_ms`
//!   (default [`DEFAULT_INTERVAL_MS`]);
//! - programmatically, via [`start`] / [`flush_now`] / [`shutdown`] —
//!   the API the tests and `examples/observe.rs --watch` use, since the
//!   environment is read only once per process.
//!
//! Every rewrite is atomic (write `<path>.tmp`, then rename), so a
//! scraper never reads a torn file. [`shutdown`] performs a final flush
//! before joining the thread, so short runs still end with a complete
//! exposition on disk. The `obs` cargo feature and [`crate::set_enabled`]
//! remain the outer kill switches.
//!
//! [delta]: crate::metrics::Snapshot::delta_since

#[cfg(feature = "obs")]
use std::path::Path;
use std::path::PathBuf;
#[cfg(feature = "obs")]
use std::sync::atomic::{AtomicU8, Ordering};
#[cfg(feature = "obs")]
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Exporter interval when `QISIM_METRICS` names a path without the
/// `:interval_ms` suffix.
pub const DEFAULT_INTERVAL_MS: u64 = 1000;

/// Shortest accepted interval: a zero or near-zero `interval_ms` would
/// turn the exporter into a busy loop rewriting the file.
pub const MIN_INTERVAL_MS: u64 = 10;

#[cfg(feature = "obs")]
const STATE_UNINIT: u8 = 0;
#[cfg(feature = "obs")]
const STATE_OFF: u8 = 1;
#[cfg(feature = "obs")]
const STATE_ON: u8 = 2;

#[cfg(feature = "obs")]
static ARMED: AtomicU8 = AtomicU8::new(STATE_UNINIT);

/// Worker coordination: `flush_seq` counts flush *requests*, `done_seq`
/// counts requests fully served by an export that **started after** the
/// request was made (so a flush never returns with a stale file).
#[cfg(feature = "obs")]
#[derive(Debug)]
struct Control {
    stop: bool,
    flush_seq: u64,
    done_seq: u64,
}

#[cfg(feature = "obs")]
#[derive(Debug)]
struct Shared {
    ctl: Mutex<Control>,
    cv: Condvar,
}

#[cfg(feature = "obs")]
impl Shared {
    fn lock(&self) -> MutexGuard<'_, Control> {
        self.ctl.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(feature = "obs")]
#[derive(Debug)]
struct Worker {
    shared: Arc<Shared>,
    handle: std::thread::JoinHandle<()>,
    path: PathBuf,
}

#[cfg(feature = "obs")]
static WORKER: Mutex<Option<Worker>> = Mutex::new(None);

#[cfg(feature = "obs")]
fn worker_slot() -> MutexGuard<'static, Option<Worker>> {
    WORKER.lock().unwrap_or_else(|e| e.into_inner())
}

/// The `QISIM_METRICS` value captured at first use (`None` = unset).
#[cfg(feature = "obs")]
static ENV_SPEC: OnceLock<Option<(PathBuf, u64)>> = OnceLock::new();

/// Parses a `<path>[:interval_ms]` spec. The suffix after the *last*
/// colon is read as the interval unless it looks like part of the path
/// (it contains a `/`, or the colon starts the spec), so
/// `dir:odd/metrics` still works. A present interval must be a positive
/// integer: `0` (a busy loop) and non-numeric suffixes are **rejected**
/// with `Err` — a misconfigured exporter must fail loudly at startup,
/// not silently fall back. `Ok(None)` means an empty spec (exporter
/// stays off); valid intervals are clamped to [`MIN_INTERVAL_MS`].
#[cfg(feature = "obs")]
fn parse_spec(spec: &str) -> Result<Option<(PathBuf, u64)>, String> {
    let spec = spec.trim();
    if spec.is_empty() {
        return Ok(None);
    }
    if let Some((path, suffix)) = spec.rsplit_once(':') {
        if !path.is_empty() && !suffix.is_empty() && !suffix.contains('/') {
            return match suffix.parse::<u64>() {
                Ok(0) => {
                    Err(format!("interval_ms must be a positive integer, got `0` (in `{spec}`)"))
                }
                Ok(ms) => Ok(Some((PathBuf::from(path), ms.max(MIN_INTERVAL_MS)))),
                Err(_) => Err(format!(
                    "interval_ms must be a positive integer, got `{suffix}` (in `{spec}`)"
                )),
            };
        }
    }
    Ok(Some((PathBuf::from(spec), DEFAULT_INTERVAL_MS)))
}

#[cfg(feature = "obs")]
fn env_spec() -> Option<(PathBuf, u64)> {
    ENV_SPEC
        .get_or_init(|| match std::env::var("QISIM_METRICS").ok().as_deref().map(parse_spec) {
            Some(Ok(spec)) => spec,
            Some(Err(reason)) => {
                eprintln!(
                    "qisim-obs: invalid QISIM_METRICS ({reason}); telemetry exporter disabled"
                );
                None
            }
            None => None,
        })
        .clone()
}

/// One-time arming decision from the environment; returns the armed
/// state. Threads racing here agree because the spec and the worker slot
/// are both idempotent.
#[cfg(feature = "obs")]
fn init_from_env() -> bool {
    match env_spec() {
        Some((path, ms)) => {
            start(path, Duration::from_millis(ms));
            ARMED.load(Ordering::Relaxed) == STATE_ON
        }
        None => {
            ARMED.store(STATE_OFF, Ordering::Relaxed);
            false
        }
    }
}

/// Whether the exporter is currently running. Always `false` when the
/// `obs` feature is compiled out. This is the hot-path gate: when
/// disarmed it is a single relaxed atomic load.
#[inline]
pub fn armed() -> bool {
    #[cfg(feature = "obs")]
    {
        match ARMED.load(Ordering::Relaxed) {
            STATE_UNINIT => init_from_env(),
            state => state == STATE_ON,
        }
    }
    #[cfg(not(feature = "obs"))]
    {
        false
    }
}

/// Starts the exporter thread writing to `path` every `interval`.
/// Returns `false` if an exporter is already running (changing nothing),
/// the thread could not be spawned, or the `obs` feature is compiled
/// out. The first write happens before `start` returns: the file exists
/// as soon as the exporter is up, and work done after `start` always
/// lands in a later interval, never in the first one.
pub fn start(path: impl Into<PathBuf>, interval: Duration) -> bool {
    #[cfg(feature = "obs")]
    {
        let mut slot = worker_slot();
        if slot.is_some() {
            return false;
        }
        let path = path.into();
        let interval = interval.max(Duration::from_millis(MIN_INTERVAL_MS));
        let mut prev = crate::Snapshot::default();
        export_once(&path, &mut prev, interval, 1);
        let shared = Arc::new(Shared {
            ctl: Mutex::new(Control { stop: false, flush_seq: 0, done_seq: 0 }),
            cv: Condvar::new(),
        });
        let (thread_shared, thread_path) = (Arc::clone(&shared), path.clone());
        let spawned = std::thread::Builder::new()
            .name("qisim-metrics".into())
            .spawn(move || run(thread_shared, thread_path, interval, prev));
        match spawned {
            Ok(handle) => {
                *slot = Some(Worker { shared, handle, path });
                ARMED.store(STATE_ON, Ordering::Relaxed);
                true
            }
            Err(_) => {
                ARMED.store(STATE_OFF, Ordering::Relaxed);
                false
            }
        }
    }
    #[cfg(not(feature = "obs"))]
    {
        let _ = (path.into(), interval);
        false
    }
}

/// Forces an immediate export and blocks until a write that started
/// after this call has finished — the synchronization the tests and the
/// `--watch` demo rely on. Returns `false` when no exporter is running.
pub fn flush_now() -> bool {
    #[cfg(feature = "obs")]
    {
        let slot = worker_slot();
        let Some(worker) = slot.as_ref() else { return false };
        let mut ctl = worker.shared.lock();
        ctl.flush_seq += 1;
        let target = ctl.flush_seq;
        worker.shared.cv.notify_all();
        while ctl.done_seq < target && !ctl.stop {
            ctl = match worker.shared.cv.wait(ctl) {
                Ok(g) => g,
                Err(e) => e.into_inner(),
            };
        }
        true
    }
    #[cfg(not(feature = "obs"))]
    {
        false
    }
}

/// Stops the exporter: performs one final flush (so the file on disk
/// describes the last interval completely), joins the thread, and
/// returns the path it was writing to. `None` when no exporter was
/// running.
pub fn shutdown() -> Option<PathBuf> {
    #[cfg(feature = "obs")]
    {
        let mut slot = worker_slot();
        let worker = slot.take()?;
        {
            let mut ctl = worker.shared.lock();
            ctl.stop = true;
            worker.shared.cv.notify_all();
        }
        let _ = worker.handle.join();
        ARMED.store(STATE_OFF, Ordering::Relaxed);
        Some(worker.path)
    }
    #[cfg(not(feature = "obs"))]
    {
        None
    }
}

/// The exporter thread: wait for interval/flush/stop, export, repeat.
/// `start` already wrote tick 1 and took `prev` as the baseline; a stop
/// wakes the thread for one final export on the way out.
#[cfg(feature = "obs")]
fn run(shared: Arc<Shared>, path: PathBuf, interval: Duration, mut prev: crate::Snapshot) {
    let mut ticks = 1u64;
    let mut serving = 0u64;
    let mut ctl = shared.lock();
    loop {
        // Sleep until the interval elapses, a flush is requested, or a
        // stop arrives — whichever is first.
        let t0 = std::time::Instant::now();
        while !ctl.stop && ctl.flush_seq == serving {
            let Some(remaining) = interval.checked_sub(t0.elapsed()) else { break };
            ctl = match shared.cv.wait_timeout(ctl, remaining) {
                Ok((g, _)) => g,
                Err(e) => e.into_inner().0,
            };
        }
        serving = ctl.flush_seq;
        let stopping = ctl.stop;
        drop(ctl);
        ticks += 1;
        export_once(&path, &mut prev, interval, ticks);
        ctl = shared.lock();
        ctl.done_seq = ctl.done_seq.max(serving);
        shared.cv.notify_all();
        if stopping {
            return;
        }
    }
}

/// One export: snapshot the global registry, diff against the previous
/// wake-up, inject the interval meta-series, and atomically rewrite the
/// exposition file (write `<path>.tmp`, then rename over `path`).
#[cfg(feature = "obs")]
fn export_once(path: &Path, prev: &mut crate::Snapshot, interval: Duration, ticks: u64) {
    let cur = crate::snapshot();
    let mut delta = cur.delta_since(prev);
    let start_ns = prev.at_ns;
    *prev = cur;
    delta.counters.push(("telemetry.ticks".into(), ticks));
    delta.gauges.push(("telemetry.interval_ms".into(), interval.as_millis() as f64));
    delta.gauges.push(("telemetry.interval_start_ns".into(), start_ns as f64));
    delta.gauges.push(("telemetry.interval_end_ns".into(), delta.at_ns as f64));
    delta.counters.sort_by(|a, b| a.0.cmp(&b.0));
    delta.gauges.sort_by(|a, b| a.0.cmp(&b.0));
    let body = crate::export::openmetrics(&delta);
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    // Best-effort: an unwritable path must never take the workload down.
    if std::fs::write(&tmp, body).is_ok() {
        let _ = std::fs::rename(&tmp, path);
    }
}

#[cfg(all(test, feature = "obs"))]
mod tests {
    use super::*;

    #[test]
    fn spec_parsing_handles_paths_and_intervals() {
        assert_eq!(parse_spec("metrics.om"), Ok(Some((PathBuf::from("metrics.om"), 1000))));
        assert_eq!(parse_spec("metrics.om:250"), Ok(Some((PathBuf::from("metrics.om"), 250))));
        // A suffix containing `/` is part of the path, not an interval.
        assert_eq!(
            parse_spec("dir:odd/metrics"),
            Ok(Some((PathBuf::from("dir:odd/metrics"), 1000)))
        );
        // Numeric suffix after the last colon wins even with earlier colons.
        assert_eq!(parse_spec("dir:odd/m.om:50"), Ok(Some((PathBuf::from("dir:odd/m.om"), 50))));
        // Near-zero intervals are clamped; empty specs leave the exporter off.
        assert_eq!(parse_spec("m.om:3"), Ok(Some((PathBuf::from("m.om"), MIN_INTERVAL_MS))));
        assert_eq!(parse_spec("   "), Ok(None));
    }

    #[test]
    fn degenerate_intervals_are_rejected_not_defaulted() {
        // `:0` would be a busy loop and `:fast` is a typo; both must be
        // loud startup errors instead of a silent default-interval run.
        let err = parse_spec("m.om:0").unwrap_err();
        assert!(err.contains("positive integer") && err.contains("`0`"), "{err}");
        let err = parse_spec("m.om:fast").unwrap_err();
        assert!(err.contains("`fast`"), "{err}");
        let err = parse_spec("m.om:10x").unwrap_err();
        assert!(err.contains("`10x`"), "{err}");
        // Overflowing digits are garbage too, not a path with a colon.
        assert!(parse_spec("m.om:99999999999999999999999").is_err());
    }

    #[test]
    fn exporter_round_trip_writes_interval_deltas() {
        let _l = crate::global_test_lock();
        crate::set_enabled(true);
        crate::reset();
        let path = std::env::temp_dir().join(format!("qisim_telemetry_{}.om", std::process::id()));
        // A long interval: every write below is driven by flush/shutdown,
        // so the test is deterministic.
        assert!(start(&path, Duration::from_secs(3600)), "exporter started");
        assert!(armed());
        assert!(!start(&path, Duration::from_secs(3600)), "second start refused");

        crate::counter_add("telemetry.test.c", 5);
        crate::observe_f64("telemetry.test.h", 1500.0);
        assert!(flush_now());
        let first = std::fs::read_to_string(&path).expect("exposition written");
        assert!(crate::export::openmetrics_is_well_formed(&first), "malformed:\n{first}");
        assert!(first.contains("telemetry_test_c_total 5"), "{first}");
        assert!(first.contains("telemetry_test_h_bucket"), "{first}");
        assert!(first.contains("# TYPE telemetry_ticks counter"), "{first}");
        assert!(first.contains("telemetry_interval_ms 3600000"), "{first}");

        // Second interval: the file now carries the delta, not the total.
        crate::counter_add("telemetry.test.c", 3);
        assert!(flush_now());
        let second = std::fs::read_to_string(&path).expect("exposition rewritten");
        assert!(second.contains("telemetry_test_c_total 3"), "delta, not lifetime: {second}");

        // Shutdown flushes a final (zero-delta) interval: the series set
        // stays stable even when nothing happened.
        assert_eq!(shutdown(), Some(path.clone()));
        assert!(!armed());
        let last = std::fs::read_to_string(&path).expect("final flush written");
        assert!(crate::export::openmetrics_is_well_formed(&last), "malformed:\n{last}");
        assert!(last.contains("telemetry_test_c_total 0"), "stable series set: {last}");
        assert!(!std::path::Path::new(&format!("{}.tmp", path.display())).exists());

        // The slot is free again after shutdown.
        assert!(start(&path, Duration::from_secs(3600)));
        shutdown();
        let _ = std::fs::remove_file(&path);
        crate::reset();
    }
}
