//! Latency/throughput benchmark of the `qisim-serve` TCP service:
//! concurrent clients replay thousands of codec wire-format requests
//! against an in-process server, every response is checked
//! **bit-identical** to a direct `try_analyze_spec` call, and the
//! sorted-latency percentiles land in the `BENCH_serve.json` artifact.
//!
//! A second, deliberately tiny server (queue depth 2, injected
//! per-request delay) is then driven past saturation to demonstrate the shed path:
//! under sustained overload some requests must come back as typed
//! `busy` responses while the service keeps answering.
//!
//! Run with `cargo run --release --example bench_serve`; pass `--smoke`
//! for the seconds-scale CI variant (no artifact).

use qisim::engine;
use qisim::spec::Preset;
use qisim_serve::{proto, ServeConfig, Server};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// The request mix: all nine paper presets plus the paper's optimized
/// variants, against both roadmap targets — a dozen distinct analyses,
/// so the process-wide power memo cache sees a realistic hot set.
fn request_mix() -> Vec<String> {
    let mut lines: Vec<String> =
        Preset::ALL.iter().map(|p| format!("preset = {}", p.id())).collect();
    lines.push("target = long_term; preset = cmos_long_term; masked_isa = true".to_string());
    lines.push("target = long_term; preset = ersfq_long_term; fast_driving = true".to_string());
    lines.push("preset = cmos_baseline; decision = memoryless; drive_bits = 6".to_string());
    lines
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (clients, per_client) = if smoke { (4, 16) } else { (8, 640) };
    let mix = request_mix();

    // Ground truth once, up front: the exact bytes every response must
    // carry, computed through the direct single-spec engine path.
    let expected: Vec<String> = mix
        .iter()
        .map(|line| {
            let request = proto::parse_request_line(line).expect("well-formed request");
            let verdict = engine::try_analyze_spec(&request.spec, &request.target.target())
                .expect("analyzable request");
            proto::ok_response(None, None, &[], &verdict)
        })
        .collect();

    let total = clients * per_client;
    println!(
        "bench_serve: {clients} client(s) x {per_client} request(s) = {total} requests, \
         {} distinct specs",
        mix.len()
    );

    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.addr();
    let started = Instant::now();
    let mut workers = Vec::new();
    for client in 0..clients {
        let mix = mix.clone();
        let expected = expected.clone();
        workers.push(std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).expect("nodelay");
            let mut writer = stream.try_clone().expect("clone stream");
            let mut reader = BufReader::new(stream);
            let mut latencies_ns = Vec::with_capacity(per_client);
            let mut identical = true;
            // Closed loop: send, await the response, compare, repeat —
            // each sample is a full request round trip.
            for i in 0..per_client {
                let at = (client + i) % mix.len();
                let t0 = Instant::now();
                writeln!(writer, "{}", mix[at]).expect("send");
                let mut response = String::new();
                reader.read_line(&mut response).expect("receive");
                latencies_ns.push(t0.elapsed().as_nanos() as u64);
                // The server stamps a per-request id; strip it before
                // the byte-identity comparison against direct analysis.
                identical &= proto::strip_request_id(&response) == expected[at];
            }
            (latencies_ns, identical)
        }));
    }
    let mut latencies_ns: Vec<u64> = Vec::with_capacity(total);
    let mut identical = true;
    for worker in workers {
        let (lat, ok) = worker.join().expect("client thread");
        latencies_ns.extend(lat);
        identical &= ok;
    }
    let wall = started.elapsed();
    qisim_obs::telemetry::flush_now();
    let stats = server.shutdown();
    println!("  clean shutdown: drained, all threads joined");

    latencies_ns.sort_unstable();
    let pct = |p: f64| latencies_ns[((latencies_ns.len() - 1) as f64 * p) as usize];
    let p50_us = pct(0.50) as f64 / 1e3;
    let p99_us = pct(0.99) as f64 / 1e3;
    let throughput = total as f64 / wall.as_secs_f64();
    println!(
        "  {total} requests in {:.1} ms: {throughput:.0} req/s, \
         p50 {p50_us:.1} us, p99 {p99_us:.1} us",
        wall.as_secs_f64() * 1e3
    );
    println!(
        "  responses bit-identical to direct try_analyze: {identical}; \
         server counters: requests = {} ok = {} errors = {} shed = {}",
        stats.requests, stats.ok, stats.errors, stats.shed
    );
    assert!(identical, "served responses diverged from direct analysis");
    assert_eq!(stats.ok, total as u64, "every request must succeed");

    // Sample response, so logs show what the wire actually carries.
    println!("  sample response: {}", expected[0].trim_end());

    // Overload drill: a queue this small under a pipelined burst must
    // shed — and answer everything it sheds with a typed busy line.
    let tiny = ServeConfig {
        queue_depth: 2,
        request_delay: Duration::from_millis(5),
        ..ServeConfig::default()
    };
    let overload = Server::bind("127.0.0.1:0", tiny).expect("bind overload server");
    let stream = TcpStream::connect(overload.addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let burst = 64;
    for _ in 0..burst {
        writeln!(writer, "preset = cmos_baseline").expect("send");
    }
    let mut shed = 0u64;
    for _ in 0..burst {
        let mut response = String::new();
        reader.read_line(&mut response).expect("receive");
        if proto::response_kind(&response) == Some(proto::ResponseKind::Busy) {
            shed += 1;
        }
    }
    let overload_stats = overload.shutdown();
    println!(
        "  overload drill: {burst} pipelined requests vs queue depth 2 -> {shed} shed \
         (server kept answering; counters shed = {})",
        overload_stats.shed
    );
    assert!(shed >= 1, "sustained overload of a depth-2 queue must shed");
    assert_eq!(shed, overload_stats.shed);

    if smoke {
        println!("smoke mode: skipping BENCH_serve.json");
        return;
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"workload\": \"{clients} concurrent closed-loop TCP clients x {per_client} \
         requests over {} distinct paper specs, responses checked bit-identical to direct \
         try_analyze_spec\",",
        mix.len()
    );
    let _ = writeln!(json, "  \"requests\": {total},");
    let _ = writeln!(json, "  \"clients\": {clients},");
    let _ = writeln!(json, "  \"wall_ms\": {:.3},", wall.as_secs_f64() * 1e3);
    let _ = writeln!(json, "  \"throughput_req_per_s\": {throughput:.1},");
    let _ = writeln!(json, "  \"latency_p50_us\": {p50_us:.1},");
    let _ = writeln!(json, "  \"latency_p99_us\": {p99_us:.1},");
    let _ = writeln!(json, "  \"responses_bit_identical\": {identical},");
    let _ = writeln!(json, "  \"overload_burst\": {burst},");
    let _ = writeln!(json, "  \"overload_shed\": {shed},");
    let _ = writeln!(json, "  \"power_cache_entries\": {}", qisim::power::cache_len());
    json.push_str("}\n");
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!("wrote BENCH_serve.json ({} bytes)", json.len());
}
