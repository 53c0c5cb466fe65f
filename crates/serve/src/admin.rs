//! The HTTP admin plane: a minimal zero-dependency HTTP/1.x listener on
//! a separate port (`QISIM_SERVE_ADMIN` / `--admin`) answering the four
//! standard operational endpoints while the wire-protocol service keeps
//! serving:
//!
//! | path       | answer                                                    |
//! |------------|-----------------------------------------------------------|
//! | `/metrics` | OpenMetrics **delta** since the previous scrape            |
//! | `/healthz` | `200 ok` while the process answers HTTP at all             |
//! | `/readyz`  | `200 ready`, or `503` when stopping / the queue is full    |
//! | `/statusz` | version, uptime, threads, queue, counters, memo cache, and |
//! |            | per-engine-stage latency percentiles (plain text)          |
//!
//! The listener serves scrapers and probes, not browsers: HTTP/1.0 and
//! 1.1 `GET`s with tiny heads, every response `Connection: close`. One
//! thread accepts and answers inline — admin traffic is a probe every
//! few seconds, never a reason for a thread pool. `/metrics` output is
//! produced by [`qisim_obs::openmetrics`] over
//! [`Snapshot::delta_since`], the same path the `QISIM_METRICS` file
//! exporter uses, and is self-checked with
//! [`qisim_obs::openmetrics_is_well_formed`] before it goes on the wire
//! (a malformed exposition would poison a scraper; a `500` is honest).
//!
//! Nothing here can panic: lock poisoning is absorbed with
//! `unwrap_or_else(|e| e.into_inner())` and every client failure is a
//! closed connection, never a crash (the panic-regression gate holds
//! this crate at a zero budget).

use crate::server::StatsSnapshot;
use qisim_obs::{counter, Snapshot};
use std::io::Read;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How often the accept loop re-checks the stop flag while idle.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Per-read socket timeout while collecting a request head.
const READ_TIMEOUT: Duration = Duration::from_millis(100);

/// Total budget for reading one request head before giving up.
const HEAD_DEADLINE: Duration = Duration::from_secs(2);

/// Hard cap on a request head — anything longer is a misbehaving client.
const MAX_HEAD_BYTES: usize = 8 * 1024;

/// The OpenMetrics exposition content type (`/metrics`).
const OPENMETRICS_CONTENT_TYPE: &str = "application/openmetrics-text; version=1.0.0; charset=utf-8";

/// What the admin plane may observe of the serving loop — implemented by
/// the TCP [`crate::Server`] (via [`crate::Server::status`]) and by
/// anything a test wants to probe with.
pub trait ServiceStatus: Send + Sync {
    /// Requests currently queued for the worker.
    fn queue_depth(&self) -> usize;
    /// The bounded queue capacity (shed threshold).
    fn queue_cap(&self) -> usize;
    /// Whether the service has begun stopping.
    fn stopping(&self) -> bool;
    /// Point-in-time service counters.
    fn stats(&self) -> StatsSnapshot;
}

/// State shared with the admin accept thread.
struct AdminState {
    status: Arc<dyn ServiceStatus>,
    /// The previous `/metrics` scrape, so each scrape exposes the
    /// interval's activity (the delta), not lifetime totals.
    prev: Mutex<Snapshot>,
    started: Instant,
    stop: AtomicBool,
}

/// The admin-plane HTTP listener. Binding starts the accept thread;
/// dropping (or [`AdminServer::shutdown`]) stops and joins it.
#[derive(Debug)]
pub struct AdminServer {
    addr: SocketAddr,
    state: Arc<AdminState>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for AdminState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdminState")
            .field("stop", &self.stop.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl AdminServer {
    /// Binds the admin listener and starts answering. Use port 0 to let
    /// the OS pick; [`AdminServer::addr`] reports the bound address.
    ///
    /// # Errors
    ///
    /// Returns the bind/configuration I/O error; a failed bind spawns
    /// nothing.
    pub fn bind(
        addr: impl ToSocketAddrs,
        status: Arc<dyn ServiceStatus>,
    ) -> std::io::Result<AdminServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(AdminState {
            status,
            prev: Mutex::new(Snapshot::default()),
            started: Instant::now(),
            stop: AtomicBool::new(false),
        });
        let thread = std::thread::Builder::new().name("qisim-admin".into()).spawn({
            let state = Arc::clone(&state);
            move || accept_loop(listener, state)
        })?;
        Ok(AdminServer { addr, state, thread: Some(thread) })
    }

    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept thread and joins it. Idempotent.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.state.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for AdminServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Accepts and answers admin connections inline until stopped.
fn accept_loop(listener: TcpListener, state: Arc<AdminState>) {
    loop {
        if state.stop.load(Ordering::Relaxed) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => handle_connection(stream, &state),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
}

/// Reads one request head and writes one response. Client failures close
/// the connection silently — a probe that vanished is not an event.
fn handle_connection(mut stream: TcpStream, state: &AdminState) {
    let Some(head) = read_head(&mut stream) else { return };
    counter!("admin.requests");
    let response = respond(&head, state);
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

/// Collects bytes until the blank line ending an HTTP request head (or a
/// size/time cap). `None` on transport errors.
fn read_head(stream: &mut TcpStream) -> Option<String> {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let deadline = Instant::now() + HEAD_DEADLINE;
    let mut head: Vec<u8> = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                head.extend_from_slice(&buf[..n]);
                if head_complete(&head) || head.len() >= MAX_HEAD_BYTES {
                    break;
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(_) => return None,
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    if head.is_empty() {
        None
    } else {
        Some(String::from_utf8_lossy(&head).into_owned())
    }
}

/// Whether the head already contains its terminating blank line.
fn head_complete(head: &[u8]) -> bool {
    head.windows(4).any(|w| w == b"\r\n\r\n") || head.windows(2).any(|w| w == b"\n\n")
}

/// Routes one parsed request head to its endpoint.
fn respond(head: &str, state: &AdminState) -> String {
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m, p),
        _ => {
            return http_response(400, "Bad Request", "text/plain; charset=utf-8", "bad request\n")
        }
    };
    // Probes and scrapers only read; anything else is a method error.
    if method != "GET" {
        return http_response(
            405,
            "Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is supported\n",
        );
    }
    let path = path.split('?').next().unwrap_or(path);
    match path {
        "/" => http_response(
            200,
            "OK",
            "text/plain; charset=utf-8",
            "qisim-serve admin plane: /metrics /healthz /readyz /statusz\n",
        ),
        "/healthz" => http_response(200, "OK", "text/plain; charset=utf-8", "ok\n"),
        "/readyz" => readyz(state),
        "/metrics" => metrics(state),
        "/statusz" => http_response(200, "OK", "text/plain; charset=utf-8", &statusz(state)),
        _ => http_response(404, "Not Found", "text/plain; charset=utf-8", "not found\n"),
    }
}

/// `/readyz`: ready only while the service accepts new work.
fn readyz(state: &AdminState) -> String {
    let status = &state.status;
    if status.stopping() {
        return http_response(
            503,
            "Service Unavailable",
            "text/plain; charset=utf-8",
            "stopping\n",
        );
    }
    let (depth, cap) = (status.queue_depth(), status.queue_cap());
    if depth >= cap {
        return http_response(
            503,
            "Service Unavailable",
            "text/plain; charset=utf-8",
            &format!("shedding: queue full ({depth}/{cap})\n"),
        );
    }
    http_response(200, "OK", "text/plain; charset=utf-8", "ready\n")
}

/// `/metrics`: the OpenMetrics delta since the previous scrape,
/// self-validated before it goes on the wire.
fn metrics(state: &AdminState) -> String {
    let current = qisim_obs::snapshot();
    let delta = {
        let mut prev = state.prev.lock().unwrap_or_else(|e| e.into_inner());
        let delta = current.delta_since(&prev);
        *prev = current;
        delta
    };
    let body = qisim_obs::openmetrics(&delta);
    if qisim_obs::openmetrics_is_well_formed(&body) {
        http_response(200, "OK", OPENMETRICS_CONTENT_TYPE, &body)
    } else {
        http_response(
            500,
            "Internal Server Error",
            "text/plain; charset=utf-8",
            "exposition failed self-validation\n",
        )
    }
}

/// `/statusz`: the operator's one-page plain-text process overview.
fn statusz(state: &AdminState) -> String {
    use std::fmt::Write as _;
    let status = &state.status;
    let stats = status.stats();
    let memo = qisim_power::memo::cache_stats();
    let mut page = String::from("qisim-serve statusz\n");
    let _ = writeln!(page, "version = {}", env!("CARGO_PKG_VERSION"));
    let _ = writeln!(page, "uptime_s = {}", state.started.elapsed().as_secs());
    let _ = writeln!(page, "threads = {}", thread_count().unwrap_or(0));
    let _ = writeln!(page, "queue_depth = {}", status.queue_depth());
    let _ = writeln!(page, "queue_cap = {}", status.queue_cap());
    let _ = writeln!(page, "stopping = {}", u8::from(status.stopping()));
    let _ = writeln!(
        page,
        "requests = {}; ok = {}; errors = {}; shed = {}",
        stats.requests, stats.ok, stats.errors, stats.shed
    );
    let _ = writeln!(
        page,
        "memo: hits = {}; misses = {}; hit_rate = {:.3}; len = {}; evictions = {}; \
         bytes_est = {}; cap = {}",
        memo.hits,
        memo.misses,
        memo.hit_rate(),
        memo.len,
        memo.evictions,
        memo.bytes_est,
        memo.cap
    );
    // Lifetime per-engine-stage latency percentiles, from the same span
    // histograms the OpenMetrics exporter publishes.
    let snap = qisim_obs::snapshot();
    for (name, span) in &snap.spans {
        if !name.starts_with("engine.stage.") {
            continue;
        }
        let ms = |q: f64| span.durations.quantile(q) / 1e6;
        let _ = writeln!(
            page,
            "stage {name}: count = {}; p50_ms = {:.3}; p90_ms = {:.3}; p99_ms = {:.3}",
            span.count,
            ms(0.5),
            ms(0.9),
            ms(0.99)
        );
    }
    page
}

/// Best-effort thread count from `/proc/self/status` (Linux); `None`
/// elsewhere.
fn thread_count() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("Threads:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Renders one complete HTTP/1.1 response (always `Connection: close`).
fn http_response(code: u16, reason: &str, content_type: &str, body: &str) -> String {
    format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FakeStatus {
        depth: usize,
        cap: usize,
        stopping: bool,
    }

    impl ServiceStatus for FakeStatus {
        fn queue_depth(&self) -> usize {
            self.depth
        }
        fn queue_cap(&self) -> usize {
            self.cap
        }
        fn stopping(&self) -> bool {
            self.stopping
        }
        fn stats(&self) -> StatsSnapshot {
            StatsSnapshot { requests: 10, ok: 7, errors: 2, shed: 1 }
        }
    }

    fn state(status: FakeStatus) -> AdminState {
        AdminState {
            status: Arc::new(status),
            prev: Mutex::new(Snapshot::default()),
            started: Instant::now(),
            stop: AtomicBool::new(false),
        }
    }

    fn body_of(response: &str) -> &str {
        response.split("\r\n\r\n").nth(1).unwrap()
    }

    #[test]
    fn routing_covers_probes_errors_and_unknowns() {
        let state = state(FakeStatus { depth: 0, cap: 4, stopping: false });
        let ok = respond("GET /healthz HTTP/1.1\r\n\r\n", &state);
        assert!(ok.starts_with("HTTP/1.1 200 OK\r\n"), "{ok}");
        assert_eq!(body_of(&ok), "ok\n");
        let ready = respond("GET /readyz?verbose=1 HTTP/1.0\r\n\r\n", &state);
        assert!(ready.starts_with("HTTP/1.1 200"), "{ready}");
        assert_eq!(body_of(&ready), "ready\n");
        let index = respond("GET / HTTP/1.1\r\n\r\n", &state);
        assert!(body_of(&index).contains("/statusz"));
        assert!(respond("GET /nope HTTP/1.1\r\n\r\n", &state).starts_with("HTTP/1.1 404"));
        assert!(respond("POST /metrics HTTP/1.1\r\n\r\n", &state).starts_with("HTTP/1.1 405"));
        assert!(respond("garbage\r\n\r\n", &state).starts_with("HTTP/1.1 400"));
    }

    #[test]
    fn readyz_reports_stopping_and_full_queues() {
        let stopping = state(FakeStatus { depth: 0, cap: 4, stopping: true });
        let response = respond("GET /readyz HTTP/1.1\r\n\r\n", &stopping);
        assert!(response.starts_with("HTTP/1.1 503"), "{response}");
        assert_eq!(body_of(&response), "stopping\n");
        let full = state(FakeStatus { depth: 4, cap: 4, stopping: false });
        let response = respond("GET /readyz HTTP/1.1\r\n\r\n", &full);
        assert!(response.starts_with("HTTP/1.1 503"), "{response}");
        assert!(body_of(&response).contains("queue full (4/4)"), "{response}");
    }

    #[test]
    fn metrics_scrapes_are_well_formed_deltas() {
        let state = state(FakeStatus { depth: 0, cap: 4, stopping: false });
        qisim_obs::counter_add("admin.test.scrapes", 3);
        let first = respond("GET /metrics HTTP/1.1\r\n\r\n", &state);
        assert!(first.starts_with("HTTP/1.1 200"), "{first}");
        assert!(first.contains("Content-Type: application/openmetrics-text"), "{first}");
        assert!(qisim_obs::openmetrics_is_well_formed(body_of(&first)), "{first}");
        // A second scrape with no new activity reports a zero delta for
        // the counter.
        let second = respond("GET /metrics HTTP/1.1\r\n\r\n", &state);
        assert!(qisim_obs::openmetrics_is_well_formed(body_of(&second)), "{second}");
        assert!(body_of(&first).contains("admin_test_scrapes_total 3"), "{first}");
        assert!(body_of(&second).contains("admin_test_scrapes_total 0"), "{second}");
    }

    #[test]
    fn statusz_carries_the_operator_overview() {
        let state = state(FakeStatus { depth: 2, cap: 8, stopping: false });
        let response = respond("GET /statusz HTTP/1.1\r\n\r\n", &state);
        let body = body_of(&response);
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        assert!(body.contains(&format!("version = {}", env!("CARGO_PKG_VERSION"))), "{body}");
        assert!(body.contains("queue_depth = 2"), "{body}");
        assert!(body.contains("queue_cap = 8"), "{body}");
        assert!(body.contains("requests = 10; ok = 7; errors = 2; shed = 1"), "{body}");
        assert!(body.contains("memo: hits = "), "{body}");
    }

    #[test]
    fn head_completion_understands_both_line_endings() {
        assert!(head_complete(b"GET / HTTP/1.1\r\n\r\n"));
        assert!(head_complete(b"GET / HTTP/1.0\n\n"));
        assert!(!head_complete(b"GET / HTTP/1.1\r\nHost: x\r\n"));
    }
}
