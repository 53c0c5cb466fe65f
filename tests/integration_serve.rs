//! End-to-end tests of the `qisim-serve` analysis service: the
//! stdin/stdout framing round-trips every paper preset bit-identically
//! to a direct engine call, malformed requests become typed errors with
//! the service still alive, concurrent TCP clients get the same bytes a
//! direct `try_analyze_spec` produces, a saturated queue sheds with
//! an observable `busy` response instead of queueing without bound, and
//! both framings answer an over-cap line with the same typed error.

use qisim::codec;
use qisim::engine;
use qisim::spec::Preset;
use qisim::surface::target::Target;
use qisim_serve::{proto, serve_lines, ServeConfig, Server, MAX_LINE_BYTES};
use std::io::{BufRead, BufReader, Cursor, Write};
use std::net::TcpStream;

mod common;

/// The response line the service must produce for a request line —
/// computed through the direct, single-spec engine path. Carries no
/// server-assigned `request_id`; compare against
/// [`proto::strip_request_id`]-ed service output.
fn expected_response(line: &str) -> String {
    let request = proto::parse_request_line(line).expect("well-formed request");
    let verdict = engine::try_analyze_spec(&request.spec, &request.target.target())
        .expect("analyzable request");
    proto::ok_response(None, request.id.as_deref(), &[], &verdict)
}

/// Strips the server-assigned `request_id` pair from every response line
/// of a multi-line service output.
fn strip_ids(output: &str) -> String {
    output.lines().map(|line| proto::strip_request_id(line) + "\n").collect()
}

#[test]
fn stdio_round_trips_every_paper_preset_bit_identically() {
    let _guard = common::isolate();
    let mut input = String::new();
    let mut expected = String::new();
    for target in ["near_term", "long_term"] {
        for preset in Preset::ALL {
            let line = format!("target = {target}; preset = {}", preset.id());
            expected.push_str(&expected_response(&line));
            input.push_str(&line);
            input.push('\n');
        }
    }
    let mut output = Vec::new();
    let stats = serve_lines(Cursor::new(input), &mut output, &ServeConfig::default())
        .expect("stdio transport");
    let output = String::from_utf8(output).expect("utf-8 responses");
    assert_eq!(
        strip_ids(&output),
        expected,
        "served responses must be bit-identical to direct analysis"
    );
    assert_eq!(stats.requests, 2 * Preset::ALL.len() as u64);
    assert_eq!(stats.ok, stats.requests);
    assert_eq!(stats.errors, 0);
    // Every response carries the server-assigned request id, in accept
    // order (the stdio framing numbers lines 1..=N).
    let ids: Vec<Option<u64>> = output.lines().map(proto::response_request_id).collect();
    let want: Vec<Option<u64>> = (1..=stats.requests).map(Some).collect();
    assert_eq!(ids, want, "request ids must be present and sequential");
    // And the folded report unfolds back into a parseable document
    // matching the direct verdict.
    let first = output.lines().next().expect("at least one response");
    let report = proto::response_report(first).expect("ok response carries a report");
    let direct = engine::try_analyze_spec(
        &qisim::spec::DesignSpec::new(Preset::ALL[0]),
        &Target::near_term(),
    )
    .expect("preset");
    assert_eq!(codec::parse_scalability(&report).expect("unfolded report"), direct);
}

#[test]
fn estimator_requests_round_trip_each_engine_bit_identically() {
    let _guard = common::isolate();
    // One round trip per estimator value, each bit-identical to the
    // direct try_analyze_spec path (the service hands the chosen
    // estimator to the same staged engine).
    let mut input = String::new();
    let mut expected = String::new();
    for estimator in ["packed", "sliced", "rare"] {
        let line = format!("id = {estimator}; preset = cmos_baseline; estimator = {estimator}");
        expected.push_str(&expected_response(&line));
        input.push_str(&line);
        input.push('\n');
    }
    let mut output = Vec::new();
    let stats = serve_lines(Cursor::new(input), &mut output, &ServeConfig::default())
        .expect("stdio transport");
    let output = String::from_utf8(output).expect("utf-8 responses");
    assert_eq!(strip_ids(&output), expected, "estimator responses must match direct analysis");
    assert_eq!(stats.ok, 3);
    assert_eq!(stats.errors, 0);
    // The three estimators genuinely diverge on the logical-error line:
    // the analytic fit, the finite sliced batch, and the splitting
    // ladder each report their own number.
    let errors: Vec<&str> = output
        .lines()
        .map(|l| proto::pair_value(l, "logical_error").expect("logical_error pair"))
        .collect();
    assert_eq!(errors.len(), 3);
    assert_ne!(errors[0], errors[1], "packed vs sliced: {errors:?}");
    assert_ne!(errors[0], errors[2], "packed vs rare: {errors:?}");
    // An unknown estimator is a typed decode error, not a dead service.
    let mut output = Vec::new();
    let stats = serve_lines(
        Cursor::new("id = bad; preset = cmos_baseline; estimator = bogus\n"),
        &mut output,
        &ServeConfig::default(),
    )
    .expect("stdio transport");
    let response = String::from_utf8(output).expect("utf-8");
    assert_eq!(proto::response_kind(&response), Some(proto::ResponseKind::Error));
    assert_eq!(proto::pair_value(&response, "error"), Some("decode"));
    assert_eq!(proto::pair_value(&response, "id"), Some("bad"));
    assert!(
        proto::pair_value(&response, "reason")
            .is_some_and(|r| r.contains("unknown estimator `bogus`")),
        "{response}"
    );
    assert_eq!(stats.errors, 1);
}

#[test]
fn malformed_requests_get_typed_errors_and_the_service_survives() {
    let _guard = common::isolate();
    // (request line, expected error kind, reason needle)
    let cases = [
        ("", "decode", "empty request line"),
        ("preset = warp_drive", "decode", "unknown preset"),
        ("drive_bits = 6", "decode", "preset"),
        ("target = mars; preset = cmos_baseline", "decode", "unknown target"),
        ("preset = cmos_baseline; what even", "decode", "key = value"),
        ("preset = cmos_baseline; drive_fdm = 0", "config", "drive_fdm"),
        ("id = 9; preset = cmos_baseline; budget.4K = -1", "config", "budget"),
    ];
    let mut input = String::new();
    for (line, _, _) in &cases {
        input.push_str(line);
        input.push('\n');
    }
    // The service must still answer a good request after every failure.
    input.push_str("id = alive; preset = cmos_baseline\n");
    let mut output = Vec::new();
    let stats = serve_lines(Cursor::new(input), &mut output, &ServeConfig::default())
        .expect("stdio transport");
    let output = String::from_utf8(output).expect("utf-8 responses");
    let responses: Vec<&str> = output.lines().collect();
    assert_eq!(responses.len(), cases.len() + 1, "one response per request\n{output}");
    for ((line, kind, needle), response) in cases.iter().zip(&responses) {
        assert_eq!(
            proto::response_kind(response),
            Some(proto::ResponseKind::Error),
            "{line:?} -> {response}"
        );
        assert_eq!(proto::pair_value(response, "error"), Some(*kind), "{line:?} -> {response}");
        let reason = proto::pair_value(response, "reason").expect("reason pair");
        assert!(reason.contains(needle), "{line:?} -> {response}");
    }
    // The id = 9 error response still echoes the client token.
    assert_eq!(proto::pair_value(responses[6], "id"), Some("9"));
    let last = responses.last().expect("final response");
    assert_eq!(proto::response_kind(last), Some(proto::ResponseKind::Ok));
    assert_eq!(proto::pair_value(last, "id"), Some("alive"));
    assert_eq!(stats.errors, cases.len() as u64);
    assert_eq!(stats.ok, 1);
}

/// A request line of exactly `len` bytes, trailing newline included: a
/// valid spec whose `name` pads it out.
fn padded_request(id: &str, len: usize) -> String {
    let head = format!("id = {id}; preset = cmos_baseline; name = ");
    format!("{head}{}\n", "x".repeat(len - head.len() - 1))
}

#[test]
fn oversized_stdin_lines_get_the_line_cap_error_and_serving_continues() {
    let _guard = common::isolate();
    let input = [
        padded_request("at-cap", MAX_LINE_BYTES),
        padded_request("over-cap", MAX_LINE_BYTES + 1),
        padded_request("huge", 70_000),
        "id = after; preset = cmos_baseline\n".to_string(),
    ]
    .concat();
    let mut output = Vec::new();
    let stats = serve_lines(Cursor::new(input), &mut output, &ServeConfig::default())
        .expect("stdio transport");
    let output = String::from_utf8(output).expect("utf-8 responses");
    let responses: Vec<&str> = output.lines().collect();
    assert_eq!(responses.len(), 4, "one response per request line");
    // A line exactly at the cap is a request like any other.
    assert_eq!(proto::response_kind(responses[0]), Some(proto::ResponseKind::Ok));
    for (response, id) in responses[1..3].iter().zip(["over-cap", "huge"]) {
        assert_eq!(proto::pair_value(response, "error"), Some("decode"), "{id}");
        assert_eq!(proto::pair_value(response, "id"), Some(id));
        assert_eq!(proto::pair_value(response, "line"), Some("1"), "{id}");
        let reason = proto::pair_value(response, "reason").expect("reason pair");
        assert!(reason.contains(&format!("request line exceeds {MAX_LINE_BYTES} bytes")), "{id}");
    }
    // The stream survives an oversized line: the next request is served.
    assert_eq!(
        proto::strip_request_id(responses[3]) + "\n",
        expected_response("id = after; preset = cmos_baseline")
    );
    assert_eq!(stats.requests, 4);
    assert_eq!(stats.ok, 2);
    assert_eq!(stats.errors, 2);
}

#[test]
fn oversized_tcp_line_gets_the_stdin_error_bytes_and_closes_the_connection() {
    let _guard = common::isolate();
    let line = padded_request("huge", 70_000);
    // The first request on either framing is request_id 1, so the two
    // answers must match byte for byte.
    let mut stdin_output = Vec::new();
    serve_lines(Cursor::new(line.clone()), &mut stdin_output, &ServeConfig::default())
        .expect("stdio transport");
    let stdin_response = String::from_utf8(stdin_output).expect("utf-8 response");

    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let stream = TcpStream::connect(server.addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    writer.write_all(line.as_bytes()).expect("send");
    let mut response = String::new();
    reader.read_line(&mut response).expect("receive");
    assert_eq!(response, stdin_response, "the two framings must answer identically");
    assert_eq!(proto::pair_value(&response, "error"), Some("decode"));
    // The rest of an oversized line is unread, so the server hangs up.
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).expect("read after the error"), 0, "{rest}");
    let stats = server.shutdown();
    assert_eq!(stats.requests, 1);
    assert_eq!(stats.errors, 1);
    assert_eq!(stats.ok, 0);
}

#[test]
fn concurrent_tcp_clients_get_bit_identical_ordered_responses() {
    let _guard = common::isolate();
    let server =
        Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind an OS-assigned port");
    let addr = server.addr();
    // The nine presets plus three knob overrides.
    let mut mix: Vec<String> = Preset::ALL.iter().map(|p| format!("preset = {}", p.id())).collect();
    mix.extend(
        [
            "preset = cmos_long_term; masked_isa = true",
            "preset = ersfq_long_term; fast_driving = true",
            "preset = cmos_baseline; decision = memoryless; drive_bits = 6",
        ]
        .map(String::from),
    );
    let mut clients = Vec::new();
    for client in 0..4 {
        let mix = mix.clone();
        clients.push(std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).expect("connect");
            let mut writer = stream.try_clone().expect("clone stream");
            let mut reader = BufReader::new(stream);
            // Pipeline everything, then read everything: responses must
            // come back in request order with matching ids.
            let lines: Vec<String> = (0..24)
                .map(|i| {
                    let spec = &mix[(client + i) % mix.len()];
                    let target = if i % 3 == 0 { "target = long_term; " } else { "" };
                    format!("id = c{client}-{i}; {target}{spec}")
                })
                .collect();
            for line in &lines {
                writeln!(writer, "{line}").expect("send");
            }
            for line in &lines {
                let mut response = String::new();
                reader.read_line(&mut response).expect("receive");
                assert!(
                    proto::response_request_id(&response).is_some(),
                    "TCP responses carry a request id: {response}"
                );
                assert_eq!(
                    proto::strip_request_id(&response),
                    expected_response(line),
                    "for request {line:?}"
                );
            }
        }));
    }
    for client in clients {
        client.join().expect("client thread");
    }
    let stats = server.shutdown();
    assert_eq!(stats.requests, 4 * 24);
    assert_eq!(stats.ok, 4 * 24);
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.shed, 0);
}

#[test]
fn overload_sheds_with_busy_responses_and_the_service_stays_up() {
    let _guard = common::isolate();
    let before_shed = qisim_obs::snapshot().counter("serve.shed").unwrap_or(0);
    let config = ServeConfig { queue_depth: 1, ..ServeConfig::default() };
    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    let stream = TcpStream::connect(server.addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    const BURST: usize = 16;
    // A rare-event estimate takes milliseconds, so a pipelined burst of
    // them must overflow the depth-1 queue.
    for i in 0..BURST {
        writeln!(writer, "id = {i}; preset = cmos_baseline; estimator = rare").expect("send");
    }
    let mut ok = 0u64;
    let mut busy = 0u64;
    for _ in 0..BURST {
        let mut response = String::new();
        reader.read_line(&mut response).expect("receive");
        match proto::response_kind(&response) {
            Some(proto::ResponseKind::Ok) => ok += 1,
            Some(proto::ResponseKind::Busy) => {
                assert!(
                    proto::pair_value(&response, "reason")
                        .is_some_and(|r| r.contains("queue full")),
                    "{response}"
                );
                busy += 1;
            }
            other => panic!("unexpected response kind {other:?}: {response}"),
        }
    }
    assert_eq!(ok + busy, BURST as u64, "every request is answered");
    assert!(busy >= 1, "a depth-1 queue under a {BURST}-deep burst must shed");
    assert!(ok >= 1, "shedding must not starve the queue entirely");
    // Shed is backpressure, not failure: the service keeps answering.
    writeln!(writer, "id = after; preset = rsfq_baseline").expect("send");
    let mut response = String::new();
    reader.read_line(&mut response).expect("read after shed burst");
    assert_eq!(
        proto::strip_request_id(&response),
        expected_response("id = after; preset = rsfq_baseline")
    );
    let stats = server.shutdown();
    assert_eq!(stats.shed, busy);
    assert_eq!(stats.ok, ok + 1);
    // The shed path is observable through the serve.shed counter.
    let after_shed = qisim_obs::snapshot().counter("serve.shed").unwrap_or(0);
    assert_eq!(after_shed - before_shed, busy, "serve.shed must count every busy response");
}

#[test]
fn scale_out_requests_round_trip_with_datacenter_verdicts() {
    let _guard = common::isolate();
    // A multi-fridge request rides the same wire format: the topology
    // keys fold into the spec document and the response carries the
    // scale-out block plus a binding-constraint explanation.
    let line = "id = dc; explain = 1; preset = cmos_baseline; fridges = 4; link = cryo_coax";
    let mut output = Vec::new();
    let stats = serve_lines(Cursor::new(format!("{line}\n")), &mut output, &ServeConfig::default())
        .expect("stdio transport");
    let response = String::from_utf8(output).expect("utf-8");
    assert_eq!(proto::response_kind(&response), Some(proto::ResponseKind::Ok), "{response}");
    assert_eq!(stats.ok, 1);
    let report = proto::response_report(&response).expect("report");
    let verdict = codec::parse_scalability(&report).expect("unfolded report");
    let scale_out = verdict.scale_out.as_ref().expect("multi-fridge verdict carries scale-out");
    assert_eq!(scale_out.fridges, 4);
    assert_eq!(verdict.power_limited_qubits, 4 * scale_out.per_fridge_qubits);
    // And it is bit-identical to the direct engine path.
    let direct = engine::try_analyze_spec(
        &qisim::spec::DesignSpec::new(Preset::CmosBaseline)
            .fridges(4)
            .link(qisim::hal::topology::LinkKind::CryoCoax),
        &Target::near_term(),
    )
    .expect("direct scale-out analysis");
    assert_eq!(verdict, direct);
    // The embedded explanation names the fleet and its binding constraint.
    let explain = proto::pair_value(&response, "explain").expect("explain pair");
    assert!(explain.contains("scale-out: 4 fridges"), "{explain}");
    assert!(explain.contains("binding constraint"), "{explain}");
    assert!(explain.contains("fridges to reach"), "{explain}");
}

#[test]
fn budget_override_requests_pin_to_the_direct_engine_path() {
    let _guard = common::isolate();
    // Satellite: per-stage fridge budget overrides ride the request line
    // and produce exactly the verdict the direct spec route computes.
    let cases = [
        "id = b4; preset = cmos_baseline; budget.4K = 6",
        "id = bmix; preset = rsfq_near_term; budget.50K = 45; budget.20mK = 1e-5",
        "id = bdc; preset = cmos_near_term; fridges = 3; budget.4K = 0.5",
    ];
    let mut input = String::new();
    let mut expected = String::new();
    for line in &cases {
        expected.push_str(&expected_response(line));
        input.push_str(line);
        input.push('\n');
    }
    let mut output = Vec::new();
    let stats = serve_lines(Cursor::new(input), &mut output, &ServeConfig::default())
        .expect("stdio transport");
    let output = String::from_utf8(output).expect("utf-8 responses");
    assert_eq!(strip_ids(&output), expected, "override responses must match direct analysis");
    assert_eq!(stats.ok, cases.len() as u64);
    assert_eq!(stats.errors, 0);
}

#[test]
fn invalid_topology_requests_get_typed_errors() {
    let _guard = common::isolate();
    // (request line, expected error kind, reason needle)
    let cases = [
        ("id = l; preset = cmos_baseline; link = warp", "decode", "unknown link `warp`"),
        ("id = f0; preset = cmos_baseline; fridges = 0", "config", "fridges"),
        ("id = fk; preset = cmos_baseline; fridges = 2000", "config", "fridges"),
        ("id = lp; preset = cmos_baseline; links_per_fridge = 0", "config", "links_per_fridge"),
        ("id = s; preset = cmos_baseline; budget.3K = 1", "decode", "unknown fridge stage `3K`"),
        // Tracing changes nothing about an invalid spec's error.
        ("id = t; trace = 1; preset = cmos_baseline; fridges = 0", "config", "fridges"),
    ];
    let mut input = String::new();
    for (line, _, _) in &cases {
        input.push_str(line);
        input.push('\n');
    }
    input.push_str("id = alive; preset = cmos_baseline; fridges = 2\n");
    let mut output = Vec::new();
    let stats = serve_lines(Cursor::new(input), &mut output, &ServeConfig::default())
        .expect("stdio transport");
    let output = String::from_utf8(output).expect("utf-8 responses");
    let responses: Vec<&str> = output.lines().collect();
    assert_eq!(responses.len(), cases.len() + 1, "one response per request\n{output}");
    for ((line, kind, needle), response) in cases.iter().zip(&responses) {
        assert_eq!(
            proto::response_kind(response),
            Some(proto::ResponseKind::Error),
            "{line:?} -> {response}"
        );
        assert_eq!(proto::pair_value(response, "error"), Some(*kind), "{line:?} -> {response}");
        let reason = proto::pair_value(response, "reason").expect("reason pair");
        assert!(reason.contains(needle), "{line:?} -> {response}");
    }
    let untraced = responses[1].replace("request_id = 2; id = f0", "request_id = 6; id = t");
    assert_eq!(responses[5], untraced, "a traced invalid spec fails like an untraced one");
    let last = responses.last().expect("final response");
    assert_eq!(proto::response_kind(last), Some(proto::ResponseKind::Ok));
    assert_eq!(stats.errors, cases.len() as u64);
    assert_eq!(stats.ok, 1);
}

#[test]
fn multi_fridge_requests_mixed_into_batches_stay_bit_identical() {
    let _guard = common::isolate();
    // Interleaving scale-out requests with classic single-fridge ones
    // in one stream must not perturb either side's bytes or ordering.
    let lines: Vec<String> = (0..12)
        .map(|i| {
            let preset = Preset::ALL[i % Preset::ALL.len()].id();
            if i % 3 == 0 {
                format!("id = m{i}; preset = {preset}; fridges = {}; link = photonic", 2 + i % 4)
            } else {
                format!("id = m{i}; preset = {preset}")
            }
        })
        .collect();
    let mut input = String::new();
    let mut expected = String::new();
    for line in &lines {
        expected.push_str(&expected_response(line));
        input.push_str(line);
        input.push('\n');
    }
    let mut output = Vec::new();
    let stats = serve_lines(Cursor::new(input), &mut output, &ServeConfig::default())
        .expect("stdio transport");
    let output = String::from_utf8(output).expect("utf-8 responses");
    assert_eq!(
        strip_ids(&output),
        expected,
        "mixed batches must stay bit-identical in request order"
    );
    assert_eq!(stats.ok, lines.len() as u64);
    assert_eq!(stats.errors, 0);
}

#[test]
fn traced_requests_report_event_counts_and_explain_embeds_text() {
    let _guard = common::isolate();
    let mut output = Vec::new();
    serve_lines(
        Cursor::new("trace = 1; explain = 1; preset = cmos_baseline\n"),
        &mut output,
        &ServeConfig::default(),
    )
    .expect("stdio transport");
    let response = String::from_utf8(output).expect("utf-8");
    assert_eq!(proto::response_kind(&response), Some(proto::ResponseKind::Ok));
    let events: u64 = proto::pair_value(&response, "trace_events")
        .expect("traced response carries trace_events")
        .parse()
        .expect("numeric event count");
    // The engine's spans land in the recorder.
    assert!(events > 0, "{response}");
    let explain = proto::pair_value(&response, "explain").expect("explain pair");
    assert!(explain.contains("qubits"), "{response}");
    // The folded report still parses even with extras up front.
    let report = proto::response_report(&response).expect("report");
    assert!(codec::parse_scalability(&report).is_ok());
}

#[test]
fn untraced_requests_stamp_their_id_on_every_engine_stage_record() {
    let _guard = common::isolate();
    let path = std::env::temp_dir().join(format!("qisim_serve_ids_{}.jsonl", std::process::id()));
    assert!(qisim_obs::log::start(&path.to_string_lossy(), qisim_obs::log::Level::Debug));
    serve_lines(Cursor::new("preset = cmos_baseline\n"), Vec::new(), &ServeConfig::default())
        .expect("stdio transport");
    assert!(qisim_obs::log::shutdown(), "the armed sink must close");
    let text = std::fs::read_to_string(&path).expect("read log file");
    let _ = std::fs::remove_file(&path);
    let stages: Vec<&str> =
        text.lines().filter(|l| l.contains("\"event\":\"engine.stage\"")).collect();
    assert!(stages.len() >= 5, "a full analysis runs five plan stages, saw {}", stages.len());
    for line in stages {
        assert!(line.contains("\"request_id\":1"), "engine.stage record lacks the id: {line}");
    }
}

/// Runs `stop` on a thread of its own and fails unless it returns
/// within 5 s: a hang fails the test instead of stalling the suite.
fn returns_within_5_s(what: &str, stop: impl FnOnce() + Send + 'static) {
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        stop();
        let _ = done.send(());
    });
    assert!(
        finished.recv_timeout(std::time::Duration::from_secs(5)).is_ok(),
        "{what} did not return within 5 s"
    );
}

#[test]
fn an_idle_server_stops_on_shutdown_and_on_its_stop_file() {
    let _guard = common::isolate();
    // No client ever connects: the accept loop is blocked in `accept`
    // and must be woken by the stop itself. The unspecified address
    // wakes it through loopback.
    for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
        let server = Server::bind(addr, ServeConfig::default()).expect("bind");
        returns_within_5_s(&format!("shutdown on {addr}"), move || {
            let stats = server.shutdown();
            assert_eq!(stats.requests, 0);
        });
    }
    let stop = std::env::temp_dir().join(format!("qisim_serve_idle_stop_{}", std::process::id()));
    let _ = std::fs::remove_file(&stop);
    let config = ServeConfig { stop_file: Some(stop.clone()), ..ServeConfig::default() };
    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    std::fs::write(&stop, b"").expect("create the stop file");
    returns_within_5_s("the stop file", move || {
        server.wait_until_stopping();
        let stats = server.shutdown();
        assert_eq!(stats.requests, 0);
    });
    let _ = std::fs::remove_file(&stop);
}
