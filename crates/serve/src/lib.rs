//! `qisim-serve` — a scalability-analysis service over the
//! [`qisim::codec`] wire format.
//!
//! The crates below this one answer one question — *how many qubits can
//! this interface design drive?* — as a library call. This crate turns
//! that call into a long-running service: newline-delimited
//! `key = value` request lines in, one response line per request out,
//! over either **stdin/stdout** ([`serve_lines`]) or **TCP**
//! ([`Server`]). The wire grammar is the [`proto`] module's fold of the
//! codec's multi-line documents onto single lines.
//!
//! Design points (the operator's manual, `docs/SERVING.md`, covers them
//! in depth):
//!
//! * **One path, one answer.** Every framing answers each request
//!   through the same per-request function — parse, validate, analyze
//!   with the staged engine, render — so responses are bit-identical to
//!   a direct [`qisim::engine::try_analyze_spec`] of the same request.
//!   All requests share the process-wide `qisim_power` memo cache, so a
//!   hot working set answers from cache regardless of which client
//!   asked first.
//! * **Requests fail; the process doesn't.** Malformed lines, invalid
//!   knobs, and engine failures become typed `error` responses. A full
//!   queue becomes a typed `busy` response (shed, counted under
//!   `serve.shed`). Nothing a client sends tears the service down.
//! * **Observable.** `serve.*` counters, an in-flight gauge, and
//!   request-latency histograms flow through the `qisim-obs` OpenMetrics
//!   exporter (`QISIM_METRICS`); `trace = 1` requests capture a
//!   per-request flight-recorder trace. Every request gets a
//!   server-assigned `request_id` echoed on its response and stamped on
//!   its `QISIM_LOG` JSONL records and flight-recorder span arguments,
//!   and the [`admin`] HTTP plane (`QISIM_SERVE_ADMIN`) serves live
//!   `/metrics`, `/healthz`, `/readyz`, and `/statusz` endpoints
//!   (`docs/OBSERVABILITY.md` is the field guide).
//! * **Graceful shutdown.** stdin framing stops at EOF; the TCP service
//!   stops on [`Server::shutdown`] or when the configured stop file
//!   appears, draining every accepted request first.
//!
//! # Example: one request over the stdin/stdout framing
//!
//! ```
//! use qisim_serve::{serve_lines, ServeConfig};
//! use std::io::Cursor;
//!
//! let input = Cursor::new("id = 1; preset = cmos_baseline\n");
//! let mut output = Vec::new();
//! let stats = serve_lines(input, &mut output, &ServeConfig::default())?;
//! let response = String::from_utf8(output)?;
//! assert!(response.starts_with("ok = 1; request_id = 1; id = 1; qisim scalability v1; "));
//! assert_eq!(stats.ok, 1);
//!
//! // The folded report unfolds back into a codec document.
//! let report = qisim_serve::proto::response_report(&response).expect("report");
//! let verdict = qisim::codec::parse_scalability(&report)?;
//! assert!(verdict.power_limited_qubits > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod admin;
pub mod config;
pub mod proto;
pub mod server;

pub use admin::{AdminServer, ServiceStatus};
pub use config::{ServeConfig, DEFAULT_QUEUE_DEPTH, MAX_LINE_BYTES};
pub use proto::{Request, ResponseKind, TargetKind};
pub use server::{serve_lines, Server, StatsSnapshot};
