//! Integration tests for the HTTP admin plane and end-to-end request
//! ids: probe endpoints next to a live service, `/metrics` scrapes that
//! stay well-formed mid-burst, and one request's id showing up in its
//! wire response, its chrome-trace span args, and its JSONL log records.

use qisim_serve::{proto, AdminServer, ServeConfig, Server};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

mod common;

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("qisim_admin_{tag}_{}", std::process::id()))
}

/// One blocking HTTP/1.1 GET; the admin plane closes the connection
/// after the response, so read-to-EOF captures the whole exchange.
fn http_get(addr: SocketAddr, path: &str) -> String {
    http_request(addr, &format!("GET {path} HTTP/1.1\r\nHost: qisim\r\n\r\n"))
}

fn http_request(addr: SocketAddr, head: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to admin");
    stream.write_all(head.as_bytes()).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
}

fn body_of(response: &str) -> &str {
    response.split_once("\r\n\r\n").map(|(_, body)| body).unwrap_or("")
}

#[test]
fn admin_routes_answer_alongside_the_service() {
    let _l = common::isolate();
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind service");
    let admin = AdminServer::bind("127.0.0.1:0", server.status()).expect("bind admin");
    let addr = admin.addr();

    let health = http_get(addr, "/healthz");
    assert!(health.starts_with("HTTP/1.1 200"), "healthz: {health}");
    assert_eq!(body_of(&health), "ok\n");

    let ready = http_get(addr, "/readyz");
    assert!(ready.starts_with("HTTP/1.1 200"), "readyz: {ready}");
    assert_eq!(body_of(&ready), "ready\n");

    let index = http_get(addr, "/");
    assert!(index.starts_with("HTTP/1.1 200"), "index: {index}");
    for route in ["/healthz", "/readyz", "/metrics", "/statusz"] {
        assert!(body_of(&index).contains(route), "index must list {route}: {index}");
    }

    let missing = http_get(addr, "/nope");
    assert!(missing.starts_with("HTTP/1.1 404"), "unknown route: {missing}");
    let post = http_request(addr, "POST /healthz HTTP/1.1\r\nHost: qisim\r\n\r\n");
    assert!(post.starts_with("HTTP/1.1 405"), "non-GET: {post}");
    let garbage = http_request(addr, "NOT-HTTP\r\n\r\n");
    assert!(garbage.starts_with("HTTP/1.1 400"), "bad request line: {garbage}");

    // Query strings are stripped before routing.
    let with_query = http_get(addr, "/healthz?verbose=1");
    assert!(with_query.starts_with("HTTP/1.1 200"), "query string: {with_query}");

    admin.shutdown();
    server.shutdown();
}

#[test]
fn statusz_reports_service_and_stage_state() {
    let _l = common::isolate();
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind service");
    let admin = AdminServer::bind("127.0.0.1:0", server.status()).expect("bind admin");

    // Run one request through the service so the stats and the
    // engine.stage spans are warm.
    let stream = TcpStream::connect(server.addr()).expect("connect service");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    writeln!(writer, "preset = cmos_baseline").expect("send");
    let mut response = String::new();
    reader.read_line(&mut response).expect("receive");
    assert_eq!(proto::response_kind(&response), Some(proto::ResponseKind::Ok));

    let status = http_get(admin.addr(), "/statusz");
    assert!(status.starts_with("HTTP/1.1 200"), "statusz: {status}");
    let body = body_of(&status);
    for want in [
        "qisim-serve statusz",
        "uptime_s = ",
        "queue_depth = 0",
        "queue_cap = ",
        "requests = 1; ok = 1; errors = 0; shed = 0",
        "memo: hits = ",
    ] {
        assert!(body.contains(want), "statusz missing {want:?}:\n{body}");
    }
    assert!(
        body.contains("stage engine.stage.power: count = "),
        "statusz missing stage percentiles:\n{body}"
    );
    assert!(body.contains("p99_ms = "), "statusz missing percentiles:\n{body}");

    admin.shutdown();
    server.shutdown();
}

#[test]
fn metrics_scrapes_stay_well_formed_mid_burst() {
    let _l = common::isolate();
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind service");
    let admin = AdminServer::bind("127.0.0.1:0", server.status()).expect("bind admin");
    let service_addr = server.addr();
    let admin_addr = admin.addr();

    // A client thread hammers the service while the main thread
    // scrapes /metrics: every scrape must be well-formed OpenMetrics
    // even with the registry mutating underneath it.
    let burst = std::thread::spawn(move || {
        let stream = TcpStream::connect(service_addr).expect("connect service");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        for _ in 0..24 {
            writeln!(writer, "preset = cmos_baseline").expect("send");
            let mut response = String::new();
            reader.read_line(&mut response).expect("receive");
            assert!(
                proto::response_request_id(&response).is_some(),
                "every response carries a request id: {response}"
            );
        }
    });
    for _ in 0..6 {
        let scrape = http_get(admin_addr, "/metrics");
        assert!(scrape.starts_with("HTTP/1.1 200"), "metrics: {scrape}");
        assert!(scrape.contains("application/openmetrics-text"), "metrics content type: {scrape}");
        assert!(
            qisim_obs::openmetrics_is_well_formed(body_of(&scrape)),
            "mid-burst scrape is not well-formed OpenMetrics:\n{}",
            body_of(&scrape)
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    burst.join().expect("burst client");

    admin.shutdown();
    server.shutdown();
}

#[test]
fn readyz_flips_unready_when_stopping() {
    let _l = common::isolate();
    let stop_file = temp_path("stop");
    let _ = std::fs::remove_file(&stop_file);
    let config = ServeConfig { stop_file: Some(stop_file.clone()), ..ServeConfig::default() };
    let server = Server::bind("127.0.0.1:0", config).expect("bind service");
    let admin = AdminServer::bind("127.0.0.1:0", server.status()).expect("bind admin");

    assert!(http_get(admin.addr(), "/readyz").starts_with("HTTP/1.1 200"));
    std::fs::write(&stop_file, b"").expect("write stop file");
    // The stop-file poller runs on an interval; wait for the flip.
    let mut flipped = false;
    for _ in 0..100 {
        let ready = http_get(admin.addr(), "/readyz");
        if ready.starts_with("HTTP/1.1 503") {
            assert!(body_of(&ready).contains("stopping"), "readyz body: {ready}");
            flipped = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(flipped, "/readyz must report 503 once the stop file appears");

    admin.shutdown();
    server.shutdown();
    let _ = std::fs::remove_file(&stop_file);
}

#[test]
fn request_id_threads_response_trace_and_log() {
    let _l = common::isolate();
    let trace_dir = temp_path("traces");
    let _ = std::fs::remove_dir_all(&trace_dir);
    std::fs::create_dir_all(&trace_dir).expect("create trace dir");
    let log_path = temp_path("e2e.log.jsonl");
    assert!(
        qisim_obs::log::start(&log_path.to_string_lossy(), qisim_obs::log::Level::Info),
        "arm the JSONL logger"
    );

    let config = ServeConfig { trace_dir: Some(trace_dir.clone()), ..ServeConfig::default() };
    let server = Server::bind("127.0.0.1:0", config).expect("bind service");
    let stream = TcpStream::connect(server.addr()).expect("connect service");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    writeln!(writer, "trace = 1; id = e2e; preset = cmos_baseline").expect("send");
    let mut response = String::new();
    reader.read_line(&mut response).expect("receive");
    server.shutdown();
    assert!(qisim_obs::log::shutdown());

    // 1. The wire response echoes the id.
    assert_eq!(proto::response_kind(&response), Some(proto::ResponseKind::Ok));
    let rid = proto::response_request_id(&response).expect("response carries request_id");

    // 2. The chrome-trace file carries it in the span args.
    let trace_path = trace_dir.join(format!("req-{rid}.trace.json"));
    let trace = std::fs::read_to_string(&trace_path).expect("read per-request trace");
    assert!(qisim_obs::trace_is_well_formed(&trace), "trace is not well-formed");
    assert!(
        trace.contains(&format!("\"request_id\":{rid}")),
        "trace args must carry request_id {rid}"
    );

    // 3. The JSONL log records carry it, start to finish.
    let log = std::fs::read_to_string(&log_path).expect("read log");
    let stamp = format!("\"request_id\":{rid}");
    for event in ["serve.request.start", "serve.request.finish"] {
        assert!(
            log.lines().any(|l| l.contains(event) && l.contains(&stamp)),
            "log must carry a {event} record stamped {stamp}:\n{log}"
        );
    }
    assert!(
        log.lines().any(|l| l.contains("serve.request.finish") && l.contains("\"outcome\":\"ok\"")),
        "finish record must carry the outcome:\n{log}"
    );

    let _ = std::fs::remove_file(&log_path);
    let _ = std::fs::remove_dir_all(&trace_dir);
}
