//! Service configuration: queue depth and the operator knobs the
//! `qisim-serve` binary reads from `QISIM_SERVE_*` environment variables
//! (one table in `docs/SERVING.md` documents them all).

use std::path::PathBuf;
use std::time::Duration;

/// Default bound on the number of accepted-but-unanswered requests.
/// Past it the service sheds load with a typed `busy` response instead
/// of queueing without bound (`QISIM_SERVE_QUEUE` overrides).
pub const DEFAULT_QUEUE_DEPTH: usize = 256;

/// Hard cap on one request line, in bytes (trailing newline included).
/// A longer line gets a typed `decode` error response on both framings.
/// A TCP connection is then closed — a misbehaving client must not grow
/// server memory unboundedly — while stdin framing serves the next line.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Runtime configuration of the serving loop.
///
/// [`ServeConfig::default`] is the paper-workload sweet spot;
/// [`ServeConfig::from_env`] layers the `QISIM_SERVE_*` operator knobs
/// on top (each read once, invalid values fall back to the default).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bounded accept queue depth; requests past it are shed with a
    /// `busy` response ([`DEFAULT_QUEUE_DEPTH`]).
    pub queue_depth: usize,
    /// Graceful-shutdown signal file: the TCP accept loop polls for this
    /// path and stops the service once it exists (`None` = no file
    /// polling; stdin/stdout framing stops at EOF instead).
    pub stop_file: Option<PathBuf>,
    /// Directory for per-request Chrome-trace dumps (`trace = 1`
    /// requests); `None` keeps traces in-memory (the response still
    /// carries the event count).
    pub trace_dir: Option<PathBuf>,
    /// Artificial delay before the TCP worker answers each request — a
    /// fault-injection knob for backpressure tests, benches, and operator
    /// drills (`Duration::ZERO` in production).
    pub request_delay: Duration,
    /// Slow-request threshold: a request whose end-to-end latency
    /// exceeds this many milliseconds gets a `serve.request.slow` warn
    /// log record and bumps the `serve.slow` counter (`None` = no
    /// threshold; `QISIM_SLOW_MS` overrides).
    pub slow_ms: Option<u64>,
    /// Bind address for the HTTP admin plane (`/metrics`, `/healthz`,
    /// `/readyz`, `/statusz`); `None` keeps the plane off
    /// (`QISIM_SERVE_ADMIN` overrides).
    pub admin_addr: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_depth: DEFAULT_QUEUE_DEPTH,
            stop_file: None,
            trace_dir: None,
            request_delay: Duration::ZERO,
            slow_ms: None,
            admin_addr: None,
        }
    }
}

impl ServeConfig {
    /// The default configuration with every `QISIM_SERVE_*` environment
    /// override applied: `QISIM_SERVE_QUEUE` (a positive integer),
    /// `QISIM_SERVE_STOP`, `QISIM_SERVE_TRACE_DIR` (paths),
    /// `QISIM_SERVE_DELAY_MS` (a non-negative integer; fault injection,
    /// see [`ServeConfig::request_delay`]), `QISIM_SLOW_MS` (a
    /// positive integer, see [`ServeConfig::slow_ms`]), and
    /// `QISIM_SERVE_ADMIN` (a bind address, see
    /// [`ServeConfig::admin_addr`]).
    pub fn from_env() -> Self {
        let mut config = ServeConfig::default();
        if let Some(n) = env_positive("QISIM_SERVE_QUEUE") {
            config.queue_depth = n;
        }
        config.stop_file = env_path("QISIM_SERVE_STOP");
        config.trace_dir = env_path("QISIM_SERVE_TRACE_DIR");
        if let Some(ms) = std::env::var("QISIM_SERVE_DELAY_MS")
            .ok()
            .and_then(|raw| raw.trim().parse::<u64>().ok())
        {
            config.request_delay = Duration::from_millis(ms);
        }
        config.slow_ms = env_positive("QISIM_SLOW_MS").map(|n| n as u64);
        config.admin_addr = env_path("QISIM_SERVE_ADMIN").map(|p| p.to_string_lossy().into_owned());
        config
    }
}

/// Reads a positive-integer environment variable; `None` for anything
/// else (unset, zero, negative, garbage).
fn env_positive(name: &str) -> Option<usize> {
    match std::env::var(name).ok()?.trim().parse::<usize>() {
        Ok(n) if n > 0 => Some(n),
        _ => None,
    }
}

/// Reads a non-empty path environment variable.
fn env_path(name: &str) -> Option<PathBuf> {
    let raw = std::env::var(name).ok()?;
    let raw = raw.trim();
    if raw.is_empty() {
        None
    } else {
        Some(PathBuf::from(raw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ServeConfig::default();
        assert_eq!(c.queue_depth, DEFAULT_QUEUE_DEPTH);
        assert_eq!(c.stop_file, None);
        assert_eq!(c.trace_dir, None);
        assert_eq!(c.request_delay, Duration::ZERO);
        assert_eq!(c.slow_ms, None);
        assert_eq!(c.admin_addr, None);
    }

    #[test]
    fn env_parsers_reject_garbage() {
        // Direct parser checks — the env itself is process-global, so
        // these go through variables no other test touches.
        std::env::set_var("QISIM_SERVE_TEST_N", "8");
        assert_eq!(env_positive("QISIM_SERVE_TEST_N"), Some(8));
        std::env::set_var("QISIM_SERVE_TEST_N", "0");
        assert_eq!(env_positive("QISIM_SERVE_TEST_N"), None);
        std::env::set_var("QISIM_SERVE_TEST_N", "many");
        assert_eq!(env_positive("QISIM_SERVE_TEST_N"), None);
        std::env::remove_var("QISIM_SERVE_TEST_N");
        assert_eq!(env_positive("QISIM_SERVE_TEST_N"), None);
        std::env::set_var("QISIM_SERVE_TEST_P", "  ");
        assert_eq!(env_path("QISIM_SERVE_TEST_P"), None);
        std::env::set_var("QISIM_SERVE_TEST_P", "stop.now");
        assert_eq!(env_path("QISIM_SERVE_TEST_P"), Some(PathBuf::from("stop.now")));
        std::env::remove_var("QISIM_SERVE_TEST_P");
    }
}
