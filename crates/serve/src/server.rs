//! The serving loops: synchronous stdin/stdout framing
//! ([`serve_lines`]) and the long-running TCP service ([`Server`]),
//! both answering every request through one per-request function.
//!
//! Every request follows the same path: parse ([`crate::proto`]) →
//! analyze through [`qisim::engine::try_analyze_spec`] (which validates
//! the spec and runs the request's topology and estimator) → render.
//! All requests share the process-wide `qisim_power::memo` cache, so a
//! hot working set answers from cache no matter which client asked
//! first.
//!
//! A request can never take the process down: malformed lines, invalid
//! knobs, and engine failures all become typed `error` responses, and a
//! full queue becomes a typed `busy` response (shed, counted under
//! `serve.shed`).
//!
//! # Request ids
//!
//! Every received line gets a process-unique `request_id` (the accept
//! sequence number). The id is echoed on the response line, stamped on
//! the request's `serve.request.start` / `serve.request.finish` JSONL
//! log records (`QISIM_LOG`), and attached to its engine-stage log
//! records and flight-recorder span arguments via
//! [`qisim_obs::RequestScope`].

use crate::config::{ServeConfig, MAX_LINE_BYTES};
use crate::proto::{self, Request};
use qisim::engine;
use qisim::error::QisimError;
use qisim::scalability::Scalability;
use qisim_obs::{counter, gauge, observe};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How often the timed waits (the worker's queue wait, connection reads)
/// re-check the stop flag, and the worker the stop file. The accept loop
/// blocks instead: every stop path wakes it with a connection of its own.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Service counters, independent of the observability kill switch (the
/// `serve.*` metrics mirror these while `qisim_obs` is enabled).
#[derive(Debug, Default)]
struct Stats {
    requests: AtomicU64,
    ok: AtomicU64,
    errors: AtomicU64,
    shed: AtomicU64,
}

/// A point-in-time copy of the service counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Request lines received (including shed and malformed ones).
    pub requests: u64,
    /// Successful (`ok`) responses.
    pub ok: u64,
    /// Typed `error` responses.
    pub errors: u64,
    /// `busy` responses (requests shed under backpressure).
    pub shed: u64,
}

impl Stats {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            ok: self.ok.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
        }
    }

    /// Counts one answered request by outcome (`serve.responses` /
    /// `serve.shed` / `serve.errors`), emits its `serve.request.finish` log
    /// record (outcome, queue wait, end-to-end latency) and, past the
    /// configured [`ServeConfig::slow_ms`] threshold, a `serve.request.slow`
    /// warning plus the `serve.slow` counter.
    fn finish(
        &self,
        config: &ServeConfig,
        seq: u64,
        response: &str,
        queue_wait: Duration,
        latency: Duration,
    ) {
        let outcome = match proto::response_kind(response) {
            Some(proto::ResponseKind::Ok) => {
                self.ok.fetch_add(1, Ordering::Relaxed);
                counter!("serve.responses");
                "ok"
            }
            Some(proto::ResponseKind::Busy) => {
                self.shed.fetch_add(1, Ordering::Relaxed);
                counter!("serve.shed");
                "busy"
            }
            _ => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                counter!("serve.errors");
                "error"
            }
        };
        let latency_ms = latency.as_secs_f64() * 1e3;
        let slow = config.slow_ms.is_some_and(|ms| latency_ms > ms as f64);
        if slow {
            counter!("serve.slow");
        }
        if !qisim_obs::log::armed(qisim_obs::log::Level::Warn) {
            return;
        }
        let _scope = qisim_obs::RequestScope::enter(seq);
        if qisim_obs::log::armed(qisim_obs::log::Level::Info) {
            qisim_obs::log::record(qisim_obs::log::Level::Info, "serve.request.finish")
                .str("outcome", outcome)
                .f64("queue_wait_ms", queue_wait.as_secs_f64() * 1e3)
                .f64("latency_ms", latency_ms)
                .emit();
        }
        if slow {
            qisim_obs::log::record(qisim_obs::log::Level::Warn, "serve.request.slow")
                .f64("latency_ms", latency_ms)
                .u64("threshold_ms", config.slow_ms.unwrap_or(0))
                .emit();
        }
    }
}

/// Answers one request line — the single path both framings take:
/// parse, analyze through [`engine::try_analyze_spec`] inside the
/// request's [`qisim_obs::RequestScope`] (so engine-stage log records
/// and spans carry the id), render. Responses are bit-identical to a
/// direct `try_analyze_spec` of the same request.
fn respond(config: &ServeConfig, seq: u64, line: &str) -> String {
    let request = match proto::parse_request_line(line.trim_end_matches(['\n', '\r'])) {
        Ok(request) => request,
        Err(error) => return proto::error_response(Some(seq), proto::request_id(line), &error),
    };
    let _scope = qisim_obs::RequestScope::enter(seq);
    let mut extras: Vec<(&str, String)> = Vec::new();
    let result = if request.trace {
        run_traced(config, seq, &request, &mut extras)
    } else {
        analyze(&request)
    };
    let id = request.id.as_deref();
    match result {
        Ok(verdict) => {
            if request.explain {
                extras.push(("explain", verdict.explain().trim_end().replace('\n', " | ")));
            }
            proto::ok_response(Some(seq), id, &extras, &verdict)
        }
        Err(error) => proto::error_response(Some(seq), id, &error),
    }
}

/// Runs the staged engine on a request's spec and target.
fn analyze(request: &Request) -> Result<Scalability, QisimError> {
    engine::try_analyze_spec(&request.spec, &request.target.target())
}

/// Emits the `serve.request.start` log record for one received line.
fn log_request_start(seq: u64, queue_depth: usize) {
    if qisim_obs::log::armed(qisim_obs::log::Level::Info) {
        let _scope = qisim_obs::RequestScope::enter(seq);
        qisim_obs::log::record(qisim_obs::log::Level::Info, "serve.request.start")
            .u64("queue_depth", queue_depth as u64)
            .emit();
    }
}

/// Runs one traced request: arms the process-global flight recorder
/// around the analysis, drains the session, and reports the captured
/// event count (plus a Chrome-trace dump when
/// [`ServeConfig::trace_dir`] is set).
///
/// Capture serializes on a module lock — the recorder is process-global
/// — and is skipped (event count 0) when `QISIM_TRACE` already armed
/// whole-process tracing, so a per-request opt-in can never truncate an
/// operator's full-run trace.
fn run_traced(
    config: &ServeConfig,
    seq: u64,
    request: &Request,
    extras: &mut Vec<(&str, String)>,
) -> Result<Scalability, QisimError> {
    static TRACE_LOCK: Mutex<()> = Mutex::new(());
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    if qisim_obs::trace::armed() {
        extras.push(("trace_events", "0".to_string()));
        return analyze(request);
    }
    qisim_obs::trace::arm();
    qisim_obs::trace::clear();
    let result = analyze(request);
    let session = qisim_obs::TraceSession::drain();
    qisim_obs::trace::disarm();
    let events: usize = session.threads.iter().map(|t| t.events.len()).sum();
    extras.push(("trace_events", events.to_string()));
    if let Some(dir) = &config.trace_dir {
        let path = dir.join(format!("req-{seq}.trace.json"));
        // Best-effort: an unwritable trace dir must not fail the request.
        if std::fs::create_dir_all(dir).is_ok() {
            let _ = std::fs::write(path, qisim_obs::trace_export::chrome_trace_json(&session));
        }
    }
    result
}

/// The typed `decode` error answering a request line longer than
/// [`MAX_LINE_BYTES`] (trailing newline included) — one response for
/// both framings.
fn oversized_response(seq: u64, line: &str) -> String {
    let error = QisimError::Decode(qisim::error::DecodeError::new(
        1,
        format!("request line exceeds {MAX_LINE_BYTES} bytes"),
    ));
    proto::error_response(Some(seq), proto::request_id(line), &error)
}

/// Serves newline-delimited requests from `input` until EOF — the
/// stdin/stdout framing. Responses are written (and flushed) in request
/// order, one line each; EOF is the graceful-shutdown signal.
///
/// Each line runs through the same per-request function as the TCP
/// service, so responses are bit-identical across framings. A line
/// longer than [`MAX_LINE_BYTES`] gets the same typed `decode` error the
/// TCP service sends, and serving continues with the next line.
///
/// # Errors
///
/// Returns only transport failures (`input`/`output` I/O errors);
/// request-level problems become typed `error` response lines.
pub fn serve_lines(
    mut input: impl BufRead,
    mut output: impl Write,
    config: &ServeConfig,
) -> std::io::Result<StatsSnapshot> {
    let stats = Stats::default();
    let mut seq = 0u64;
    let mut line = String::new();
    loop {
        line.clear();
        if input.read_line(&mut line)? == 0 {
            break;
        }
        seq += 1;
        stats.requests.fetch_add(1, Ordering::Relaxed);
        counter!("serve.requests");
        log_request_start(seq, 0);
        let t0 = Instant::now();
        let response = if line.len() > MAX_LINE_BYTES {
            oversized_response(seq, &line)
        } else {
            respond(config, seq, &line)
        };
        let latency = t0.elapsed();
        observe!("serve.request_ns", latency.as_nanos() as f64);
        stats.finish(config, seq, &response, Duration::ZERO, latency);
        output.write_all(response.as_bytes())?;
        output.flush()?;
    }
    Ok(stats.snapshot())
}

/// One accepted request waiting for the worker.
struct Job {
    seq: u64,
    line: String,
    t0: Instant,
    out: Arc<Mutex<TcpStream>>,
}

/// State shared between the accept loop, connection readers, and the
/// worker.
struct Shared {
    config: ServeConfig,
    stats: Stats,
    queue: Mutex<VecDeque<Job>>,
    work: Condvar,
    stop: AtomicBool,
    seq: AtomicU64,
    /// Where [`Shared::begin_stop`] connects to wake the blocked accept
    /// loop: the bound address, or loopback when it is unspecified.
    wake_addr: SocketAddr,
}

impl Shared {
    fn lock_queue(&self) -> MutexGuard<'_, VecDeque<Job>> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Raises the stop flag, wakes the worker, and wakes the accept
    /// loop with a throwaway connection it drops on seeing the flag.
    /// Every stop path goes through here.
    fn begin_stop(&self) {
        if self.stop.swap(true, Ordering::Relaxed) {
            return;
        }
        self.work.notify_all();
        let _ = TcpStream::connect_timeout(&self.wake_addr, Duration::from_secs(1));
    }

    /// Whether the configured stop file exists.
    fn stop_file_exists(&self) -> bool {
        self.config.stop_file.as_ref().is_some_and(|path| path.exists())
    }
}

impl crate::admin::ServiceStatus for Shared {
    fn queue_depth(&self) -> usize {
        self.lock_queue().len()
    }

    fn queue_cap(&self) -> usize {
        self.config.queue_depth
    }

    fn stopping(&self) -> bool {
        Shared::stopping(self)
    }

    fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }
}

/// The long-running TCP service: an accept loop, one reader thread per
/// connection, and a single worker answering a bounded queue one
/// request at a time, in accept order.
///
/// Backpressure is explicit: when the queue holds
/// [`ServeConfig::queue_depth`] requests, new ones are shed immediately
/// with a `busy` response (`serve.shed`). Shutdown is graceful — via
/// [`Server::shutdown`], or by creating the configured
/// [`ServeConfig::stop_file`] — and drains every accepted request before
/// the worker exits.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
    worker: Option<std::thread::JoinHandle<()>>,
    conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("stats", &self.stats.snapshot())
            .field("stop", &self.stopping())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds the service and starts serving. Use port 0 to let the OS
    /// pick; [`Server::addr`] reports the bound address.
    ///
    /// # Errors
    ///
    /// Returns the bind/configuration I/O error; a failed bind spawns
    /// nothing.
    pub fn bind(addr: impl ToSocketAddrs, config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let mut wake_addr = addr;
        if addr.ip().is_unspecified() {
            wake_addr.set_ip(match addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let shared = Arc::new(Shared {
            config,
            stats: Stats::default(),
            queue: Mutex::new(VecDeque::new()),
            work: Condvar::new(),
            stop: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            wake_addr,
        });
        let conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> = Arc::default();
        let accept = std::thread::Builder::new().name("qisim-serve-accept".into()).spawn({
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            move || accept_loop(listener, shared, conns)
        })?;
        let worker = std::thread::Builder::new().name("qisim-serve-worker".into()).spawn({
            let shared = Arc::clone(&shared);
            move || worker_loop(shared)
        })?;
        Ok(Server { addr, shared, accept: Some(accept), worker: Some(worker), conns })
    }

    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether the service has begun stopping (programmatic
    /// [`Server::shutdown`] or the stop file appearing).
    pub fn stopping(&self) -> bool {
        self.shared.stopping()
    }

    /// Point-in-time service counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// A handle the [`crate::admin::AdminServer`] observes the serving
    /// loop through (queue depth, shedding state, counters).
    pub fn status(&self) -> Arc<dyn crate::admin::ServiceStatus> {
        Arc::clone(&self.shared) as Arc<dyn crate::admin::ServiceStatus>
    }

    /// Blocks until the service begins stopping (the stop-file path of
    /// the `qisim-serve` binary), polling at a small fixed interval.
    pub fn wait_until_stopping(&self) {
        while !self.stopping() {
            std::thread::sleep(POLL_INTERVAL);
        }
    }

    /// Stops accepting, drains every accepted request, joins all
    /// threads, and returns the final counters. Idempotent.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.stop_and_join();
        self.stats()
    }

    fn stop_and_join(&mut self) {
        self.shared.begin_stop();
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.worker.take() {
            let _ = handle.join();
        }
        let handles: Vec<_> =
            std::mem::take(&mut *self.conns.lock().unwrap_or_else(|e| e.into_inner()));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Accepts connections until stopped. `accept` blocks; a stop wakes it
/// with a connection of its own ([`Shared::begin_stop`]), which is
/// dropped unserved.
fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    loop {
        let accepted = listener.accept();
        if shared.stopping() {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                counter!("serve.connections");
                if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
                    continue;
                }
                // Request/response lines are tiny; leaving Nagle on costs
                // a delayed-ACK round trip (~40 ms) per request.
                let _ = stream.set_nodelay(true);
                let spawned = std::thread::Builder::new().name("qisim-serve-conn".into()).spawn({
                    let shared = Arc::clone(&shared);
                    move || connection_loop(stream, shared)
                });
                if let Ok(handle) = spawned {
                    conns.lock().unwrap_or_else(|e| e.into_inner()).push(handle);
                }
            }
            // A failed accept (say, out of file descriptors): back off
            // rather than spin.
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
}

/// Reads request lines off one connection, enqueueing each (or shedding
/// it with a `busy` response when the queue is full) until EOF, a
/// transport error, an oversized line, or service stop.
fn connection_loop(stream: TcpStream, shared: Arc<Shared>) {
    let Ok(write_half) = stream.try_clone() else { return };
    let out = Arc::new(Mutex::new(write_half));
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        // Reads accumulate across timeouts (`read_line` appends), so the
        // stop flag gets checked every POLL_INTERVAL even mid-line.
        let eof = loop {
            if shared.stopping() {
                return;
            }
            match reader.read_line(&mut line) {
                Ok(0) => break true,
                Ok(_) => break false,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock
                            | std::io::ErrorKind::TimedOut
                            | std::io::ErrorKind::Interrupted
                    ) =>
                {
                    if line.len() > MAX_LINE_BYTES {
                        oversized_line(&shared, &line, &out);
                        return;
                    }
                }
                Err(_) => return,
            }
        };
        if line.is_empty() {
            return; // clean EOF
        }
        if line.len() > MAX_LINE_BYTES {
            oversized_line(&shared, &line, &out);
            return;
        }
        enqueue(&shared, &line, &out);
        if eof {
            return; // final line without trailing newline
        }
    }
}

/// Answers an oversized request line with a typed error (the connection
/// is closed by the caller: the rest of the line is unread garbage).
fn oversized_line(shared: &Shared, line: &str, out: &Arc<Mutex<TcpStream>>) {
    shared.stats.requests.fetch_add(1, Ordering::Relaxed);
    counter!("serve.requests");
    let seq = shared.seq.fetch_add(1, Ordering::Relaxed) + 1;
    let response = oversized_response(seq, line);
    log_request_start(seq, 0);
    shared.stats.finish(&shared.config, seq, &response, Duration::ZERO, Duration::ZERO);
    write_response(out, &response);
}

/// Accepts one request line into the bounded queue, or sheds it.
fn enqueue(shared: &Shared, line: &str, out: &Arc<Mutex<TcpStream>>) {
    shared.stats.requests.fetch_add(1, Ordering::Relaxed);
    counter!("serve.requests");
    let seq = shared.seq.fetch_add(1, Ordering::Relaxed) + 1;
    let mut queue = shared.lock_queue();
    if queue.len() >= shared.config.queue_depth {
        let depth = queue.len();
        drop(queue);
        let response = proto::busy_response(
            Some(seq),
            proto::request_id(line),
            &format!("queue full (depth {depth})"),
        );
        log_request_start(seq, depth);
        shared.stats.finish(&shared.config, seq, &response, Duration::ZERO, Duration::ZERO);
        write_response(out, &response);
        return;
    }
    queue.push_back(Job { seq, line: line.to_string(), t0: Instant::now(), out: Arc::clone(out) });
    let depth = queue.len();
    drop(queue);
    counter!("serve.accepted");
    gauge!("serve.inflight", depth as f64);
    log_request_start(seq, depth);
    shared.work.notify_all();
}

/// The single worker: pops one job at a time off the queue, answers it
/// through [`respond`], writes the response back, and keeps draining
/// after a stop request until the queue is empty (accepted requests are
/// always answered). Jobs leave in accept order, so a pipelined
/// connection reads its answers in the order it sent them. It also polls
/// the stop file, at most once per [`POLL_INTERVAL`].
fn worker_loop(shared: Arc<Shared>) {
    let mut stop_file_checked = Instant::now();
    loop {
        if stop_file_checked.elapsed() >= POLL_INTERVAL {
            stop_file_checked = Instant::now();
            if shared.stop_file_exists() {
                shared.begin_stop();
            }
        }
        let next = {
            let mut queue = shared.lock_queue();
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some((job, queue.len()));
                }
                if shared.stopping() {
                    return;
                }
                let (guard, wait) = match shared.work.wait_timeout(queue, POLL_INTERVAL) {
                    Ok(woken) => woken,
                    Err(e) => e.into_inner(),
                };
                queue = guard;
                if wait.timed_out() {
                    break None; // idle: go check the stop file
                }
            }
        };
        let Some((job, depth)) = next else { continue };
        // The wait-in-queue interval ends here, when the job pops.
        let queue_wait = job.t0.elapsed();
        gauge!("serve.inflight", (depth + 1) as f64);
        let response = respond(&shared.config, job.seq, &job.line);
        let latency = job.t0.elapsed();
        observe!("serve.request_ns", latency.as_nanos() as f64);
        shared.stats.finish(&shared.config, job.seq, &response, queue_wait, latency);
        write_response(&job.out, &response);
        gauge!("serve.inflight", shared.lock_queue().len() as f64);
    }
}

/// Writes one response line; client-side failures (a closed socket) are
/// deliberately ignored — a vanished client must not affect the service.
fn write_response(out: &Arc<Mutex<TcpStream>>, response: &str) {
    let mut stream = out.lock().unwrap_or_else(|e| e.into_inner());
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}
