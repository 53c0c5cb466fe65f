//! The `qisim-serve` binary: the analysis service as an operator
//! runs it. `docs/SERVING.md` is the manual; `docs/OBSERVABILITY.md`
//! covers the admin plane, logging, and metrics.
//!
//! ```text
//! qisim-serve [--stdio]                          # serve stdin→stdout (default)
//! qisim-serve --tcp ADDR [--stop-file PATH] ...  # serve TCP until the stop file appears
//! qisim-serve --check-om PATH                    # validate an OpenMetrics file, exit 0/1
//! ```
//!
//! Flags layer over the `QISIM_SERVE_*` environment (flag wins):
//! `--queue N`, `--stop-file PATH`, `--trace-dir PATH`,
//! `--slow-ms N`, `--admin ADDR`. Counters go to stderr
//! on shutdown; responses are the only thing written to stdout.

use qisim_serve::{serve_lines, AdminServer, ServeConfig, Server, StatsSnapshot};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: qisim-serve [--stdio | --tcp ADDR | --check-om PATH] \
[--queue N] [--stop-file PATH] [--trace-dir PATH] [--slow-ms N] [--admin ADDR]
    --stdio            serve newline-delimited requests stdin -> stdout (default)
    --tcp ADDR         listen on ADDR (e.g. 127.0.0.1:7878; port 0 = OS-assigned)
    --queue N          bounded queue depth before shedding  (env QISIM_SERVE_QUEUE)
    --stop-file PATH   stop gracefully when PATH appears    (env QISIM_SERVE_STOP)
    --trace-dir PATH   write per-request trace JSON here    (env QISIM_SERVE_TRACE_DIR)
    --slow-ms N        warn-log requests slower than N ms   (env QISIM_SLOW_MS)
    --admin ADDR       HTTP admin plane: /metrics /healthz /readyz /statusz
                       (TCP mode only; env QISIM_SERVE_ADMIN)
    --check-om PATH    validate PATH as OpenMetrics text and exit (0 = well-formed)
see docs/SERVING.md for the protocol grammar and docs/OBSERVABILITY.md for the
admin plane, QISIM_LOG structured logging, and the full environment table";

enum Mode {
    Stdio,
    Tcp(String),
    CheckOm(PathBuf),
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let (mode, config) = match parse_args(args.into_iter()) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("qisim-serve: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match mode {
        Mode::Stdio => run_stdio(&config),
        Mode::Tcp(addr) => run_tcp(&addr, config),
        Mode::CheckOm(path) => return check_om(&path),
    };
    qisim_obs::telemetry::flush_now();
    qisim_obs::log::shutdown();
    match outcome {
        Ok(stats) => {
            eprintln!(
                "qisim-serve: done requests = {} ok = {} errors = {} shed = {}",
                stats.requests, stats.ok, stats.errors, stats.shed
            );
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("qisim-serve: {error}");
            ExitCode::FAILURE
        }
    }
}

/// Parses flags over the `QISIM_SERVE_*` environment defaults.
fn parse_args(args: impl Iterator<Item = String>) -> Result<(Mode, ServeConfig), String> {
    let mut config = ServeConfig::from_env();
    let mut mode = Mode::Stdio;
    let mut args = args;
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("`{flag}` needs a value"))
        };
        match flag.as_str() {
            "--stdio" => mode = Mode::Stdio,
            "--tcp" => mode = Mode::Tcp(value("--tcp")?),
            "--check-om" => mode = Mode::CheckOm(PathBuf::from(value("--check-om")?)),
            "--queue" => config.queue_depth = positive(&flag, &value("--queue")?)?,
            "--stop-file" => config.stop_file = Some(PathBuf::from(value("--stop-file")?)),
            "--trace-dir" => config.trace_dir = Some(PathBuf::from(value("--trace-dir")?)),
            "--slow-ms" => config.slow_ms = Some(positive(&flag, &value("--slow-ms")?)? as u64),
            "--admin" => config.admin_addr = Some(value("--admin")?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if config.admin_addr.is_some() && !matches!(mode, Mode::Tcp(_)) {
        return Err("`--admin` (QISIM_SERVE_ADMIN) requires `--tcp`: the stdio framing \
owns stdout and exits at EOF, so there is no service for the admin plane to describe"
            .to_string());
    }
    Ok((mode, config))
}

/// Parses a positive-integer flag value.
fn positive(flag: &str, raw: &str) -> Result<usize, String> {
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("`{flag}` needs a positive integer, got `{raw}`")),
    }
}

/// The stdin/stdout framing: serve until EOF.
fn run_stdio(config: &ServeConfig) -> Result<StatsSnapshot, String> {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    serve_lines(stdin.lock(), stdout.lock(), config)
        .map_err(|e| format!("stdio transport failed: {e}"))
}

/// The TCP framing: serve until the stop file appears (or forever —
/// operators without a stop file stop the process instead), with the
/// HTTP admin plane alongside when configured.
fn run_tcp(addr: &str, config: ServeConfig) -> Result<StatsSnapshot, String> {
    if config.stop_file.is_none() {
        eprintln!(
            "qisim-serve: no stop file configured (--stop-file / QISIM_SERVE_STOP); \
serving until the process is stopped"
        );
    }
    let admin_addr = config.admin_addr.clone();
    let server = Server::bind(addr, config).map_err(|e| format!("bind {addr} failed: {e}"))?;
    let admin = match admin_addr {
        Some(admin_addr) => Some(
            AdminServer::bind(admin_addr.as_str(), server.status())
                .map_err(|e| format!("admin bind {admin_addr} failed: {e}"))?,
        ),
        None => None,
    };
    // The stdout lines in TCP mode: machine-readable bound addresses, so
    // wrappers (and tools/ci.sh) can pick up OS-assigned ports.
    println!("qisim-serve listening = {}", server.addr());
    if let Some(admin) = &admin {
        println!("qisim-serve admin = {}", admin.addr());
    }
    server.wait_until_stopping();
    // Stop order: the admin plane outlives the drain, so probes see
    // `/readyz` flip to 503 while accepted requests finish.
    let stats = server.shutdown();
    if let Some(admin) = admin {
        admin.shutdown();
    }
    Ok(stats)
}

/// `--check-om`: validates a file as OpenMetrics exposition text — the
/// self-contained validator CI's admin-plane smoke test leans on.
fn check_om(path: &PathBuf) -> ExitCode {
    match std::fs::read_to_string(path) {
        Ok(text) if qisim_obs::openmetrics_is_well_formed(&text) => {
            println!("qisim-serve: {} is well-formed OpenMetrics", path.display());
            ExitCode::SUCCESS
        }
        Ok(_) => {
            eprintln!("qisim-serve: {} is NOT well-formed OpenMetrics", path.display());
            ExitCode::FAILURE
        }
        Err(error) => {
            eprintln!("qisim-serve: cannot read {}: {error}", path.display());
            ExitCode::FAILURE
        }
    }
}
