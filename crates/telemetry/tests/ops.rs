//! Integration tests for the operations plane: the HTTP scrape
//! server, the SLO engine fed through a `Telemetry` handle, and the
//! conservative-quantile contract between exact SLO percentiles and
//! the registry histogram.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use fadewich_telemetry::serve::{MAX_HANDLERS, MAX_REQUEST_BYTES};
use fadewich_telemetry::{
    Histogram, ManualClock, OpsServer, SloEngine, SloKind, SloSpec, Telemetry, Value,
};

/// Issues one HTTP/1.0 request and returns the raw response.
fn http_get(addr: std::net::SocketAddr, target: &str) -> String {
    raw_request(addr, &format!("GET {target} HTTP/1.0\r\nHost: test\r\n\r\n"))
}

fn raw_request(addr: std::net::SocketAddr, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // A server rejecting an oversized request may close (and reset)
    // the socket while we are still writing or before we have read the
    // tail, so neither side of the exchange is allowed to panic.
    let _ = stream.write_all(request.as_bytes());
    let mut out = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => out.extend_from_slice(&chunk[..n]),
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn body_of(response: &str) -> &str {
    response.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("")
}

fn manual_clock_at(ns: u64) -> ManualClock {
    let c = ManualClock::new();
    c.set_ns(ns);
    c
}

fn ops_fixture() -> (Telemetry, OpsServer, Arc<ManualClock>) {
    let telemetry = Telemetry::metrics_only();
    let clock = Arc::new(manual_clock_at(1_000));
    let server =
        OpsServer::bind("127.0.0.1:0", telemetry.clone(), clock.clone()).unwrap();
    (telemetry, server, clock)
}

#[test]
fn metrics_endpoints_serve_the_shared_registry() {
    let (telemetry, server, _clock) = ops_fixture();
    telemetry.counter_add("runtime_frames_in", 42);
    telemetry.gauge_set("fleet_offices_active", 3.0);
    telemetry.histo_record("deauth_latency_ticks", 17);

    let prom = http_get(server.local_addr(), "/metrics");
    assert!(prom.starts_with("HTTP/1.0 200 OK\r\n"), "{prom}");
    assert!(prom.contains("Connection: close"), "{prom}");
    let body = body_of(&prom);
    assert!(body.contains("# TYPE runtime_frames_in counter"), "{body}");
    assert!(body.contains("runtime_frames_in 42"), "{body}");
    assert!(body.contains("fleet_offices_active 3"), "{body}");
    assert!(body.contains("deauth_latency_ticks_count 1"), "{body}");

    let json = http_get(server.local_addr(), "/metrics.json");
    assert!(json.contains("application/json"), "{json}");
    assert!(body_of(&json).contains("\"runtime_frames_in\":42"), "{json}");

    let index = http_get(server.local_addr(), "/");
    assert!(body_of(&index).contains("/metrics"), "{index}");
    assert!(http_get(server.local_addr(), "/nope").starts_with("HTTP/1.0 404"), "404 route");
    server.shutdown();
}

#[test]
fn oversized_and_malformed_requests_are_rejected() {
    let (_telemetry, server, _clock) = ops_fixture();
    // An oversized header block is answered 431 without buffering
    // past the cap.
    let huge = format!(
        "GET /metrics HTTP/1.0\r\nX-Padding: {}\r\n\r\n",
        "a".repeat(MAX_REQUEST_BYTES + 1024)
    );
    let resp = raw_request(server.local_addr(), &huge);
    assert!(resp.starts_with("HTTP/1.0 431"), "{resp}");
    // Non-GET methods are refused.
    let post = raw_request(
        server.local_addr(),
        "POST /metrics HTTP/1.0\r\nContent-Length: 0\r\n\r\n",
    );
    assert!(post.starts_with("HTTP/1.0 405"), "{post}");
    // The server is still alive and serving afterwards.
    assert!(http_get(server.local_addr(), "/healthz").starts_with("HTTP/1.0 200"));
    server.shutdown();
}

#[test]
fn concurrent_scrapes_all_complete() {
    let (telemetry, server, _clock) = ops_fixture();
    telemetry.counter_add("runtime_frames_in", 7);
    let addr = server.local_addr();
    let handles: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                let target = if i % 2 == 0 { "/metrics" } else { "/healthz" };
                http_get(addr, target)
            })
        })
        .collect();
    for h in handles {
        let resp = h.join().unwrap();
        assert!(resp.starts_with("HTTP/1.0 200 OK"), "{resp}");
    }
    assert!(server.scrapes() >= 8);
    server.shutdown();
}

#[test]
fn connections_past_the_handler_cap_get_503() {
    let (_telemetry, server, _clock) = ops_fixture();
    let addr = server.local_addr();
    // Idle peers each pin a handler until they close (or time out). The
    // accept thread takes connections in order, so these hold every slot.
    let idle: Vec<TcpStream> =
        (0..MAX_HANDLERS).map(|_| TcpStream::connect(addr).unwrap()).collect();
    let mut extra = TcpStream::connect(addr).unwrap();
    extra.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
    let mut resp = Vec::new();
    let mut chunk = [0u8; 1024];
    while let Ok(n @ 1..) = extra.read(&mut chunk) {
        resp.extend_from_slice(&chunk[..n]);
    }
    let resp = String::from_utf8_lossy(&resp);
    assert!(resp.starts_with("HTTP/1.0 503 Service Unavailable\r\n"), "{resp}");

    // Once the idle peers close, their handlers exit and free the slots.
    drop(idle);
    let mut scrape = String::new();
    for _ in 0..500 {
        scrape = http_get(addr, "/metrics");
        if !scrape.starts_with("HTTP/1.0 503") {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(scrape.starts_with("HTTP/1.0 200 OK"), "{scrape}");
    let health = http_get(addr, "/healthz");
    let rejected: u64 = body_of(&health)
        .lines()
        .find_map(|l| l.strip_prefix("wall_rejected "))
        .and_then(|v| v.parse().ok())
        .unwrap();
    assert!(rejected >= 1, "{health}");
    server.shutdown();
}

#[test]
fn healthz_flips_on_attack_quarantine() {
    let (telemetry, server, clock) = ops_fixture();
    let healthy = http_get(server.local_addr(), "/healthz");
    assert!(healthy.starts_with("HTTP/1.0 200 OK"), "{healthy}");
    assert!(body_of(&healthy).starts_with("ok\n"), "{healthy}");
    // Wall-time fields in the body stay behind the wall_ prefix and
    // come from the Clock seam.
    clock.advance_ns(500);
    let again = http_get(server.local_addr(), "/healthz");
    assert!(body_of(&again).contains("wall_uptime_ns 500"), "{again}");

    // One attack-quarantine flips the endpoint to 503.
    telemetry.counter_add("runtime_attack_quarantines", 1);
    let sick = http_get(server.local_addr(), "/healthz");
    assert!(sick.starts_with("HTTP/1.0 503"), "{sick}");
    assert!(body_of(&sick).starts_with("attack-quarantine\n"), "{sick}");
    server.shutdown();
}

#[test]
fn healthz_flips_on_fleet_under_attack_rollup() {
    let (telemetry, server, _clock) = ops_fixture();
    telemetry.gauge_set("fleet_health_offices{state=\"under_attack\"}", 2.0);
    let sick = http_get(server.local_addr(), "/healthz");
    assert!(sick.starts_with("HTTP/1.0 503"), "{sick}");
    server.shutdown();
}

#[test]
fn slo_body_is_deterministic_under_manual_clock() {
    // Everything the /slo endpoint renders lives on the logical tick
    // clock; a ManualClock pins the only wall-time source, so two
    // identical feeds must produce byte-identical bodies.
    let render = || {
        let telemetry = Telemetry::metrics_only();
        telemetry.set_slo(SloEngine::standard(20.0));
        let clock = Arc::new(ManualClock::new());
        let server = OpsServer::bind("127.0.0.1:0", telemetry.clone(), clock).unwrap();
        for (tick, start) in [(100u64, 40u64), (220, 180), (400, 310)] {
            telemetry.event(
                tick,
                "rule1_verdict",
                None,
                &[("deauth", Value::Bool(true)), ("window_start_tick", Value::U64(start))],
            );
        }
        telemetry.counter_add("runtime_frames_in", 5_000);
        telemetry.counter_add("runtime_frames_corrupt", 2);
        telemetry.counter_add("checkpoint_saves", 12);
        let body = body_of(&http_get(server.local_addr(), "/slo")).to_string();
        server.shutdown();
        body
    };
    let a = render();
    let b = render();
    assert_eq!(a, b, "slo body must be reproducible");
    assert!(a.contains("slo deauth_latency"), "{a}");
    assert!(a.contains("latency ticks  count 3  min 40  median 60  p95 90  max 90"), "{a}");
    assert!(a.contains("slo frame_corrupt_ratio"), "{a}");
    assert!(a.contains("slo checkpoint_save_success"), "{a}");
    // No engine attached → explicit, still-deterministic body.
    let bare = Telemetry::metrics_only();
    let server =
        OpsServer::bind("127.0.0.1:0", bare, Arc::new(ManualClock::new())).unwrap();
    let resp = http_get(server.local_addr(), "/slo");
    assert!(body_of(&resp).contains("no slo engine attached"), "{resp}");
    server.shutdown();
}

#[test]
fn slo_p95_from_histogram_is_conservative() {
    // The registry's log-linear histogram may only over-report the
    // p95 relative to the SLO engine's exact in-window computation —
    // never under-report it (the PR 5 quantile property, extended to
    // the SLO path).
    let mut seed = 0x5EEDu64;
    let mut rng = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    for _ in 0..50 {
        let n = (rng() % 200 + 1) as usize;
        let mut engine = SloEngine::new(vec![SloSpec {
            name: "lat".to_string(),
            objective: 0.95,
            window_ticks: u64::MAX,
            kind: SloKind::DeauthLatency { threshold_ticks: u64::MAX },
        }]);
        let mut histo = Histogram::default();
        for i in 0..n {
            let sample = rng() % 10_000;
            engine.observe_latency(i as u64 + 1, sample);
            histo.record(sample);
        }
        let status = &engine.statuses()[0];
        let (exact, _) = status.latency.unwrap();
        assert!(
            histo.quantile(0.95) >= exact.p95_ticks,
            "histogram p95 {} under exact p95 {} (n={n})",
            histo.quantile(0.95),
            exact.p95_ticks
        );
        assert!(histo.quantile(1.0) >= exact.max_ticks);
    }
}

#[test]
fn telemetry_routes_counters_and_events_into_attached_slo() {
    let telemetry = Telemetry::buffering();
    telemetry.set_slo(SloEngine::standard(20.0));
    // The audit-trail path: a deauth verdict event becomes a latency
    // sample without any extra plumbing at the call site.
    telemetry.event(
        900,
        "rule1_verdict",
        None,
        &[("deauth", Value::Bool(true)), ("window_start_tick", Value::U64(840))],
    );
    telemetry.counter_add("checkpoint_saves", 4);
    telemetry.counter_add("checkpoint_corrupt_skipped", 1);
    let statuses = telemetry.with_slo(|s| s.statuses()).unwrap();
    let lat = statuses.iter().find(|s| s.name == "deauth_latency").unwrap();
    assert_eq!(lat.total, 1);
    assert_eq!(lat.latency.unwrap().0.max_ticks, 60);
    let ck = statuses.iter().find(|s| s.name == "checkpoint_save_success").unwrap();
    assert_eq!((ck.total, ck.bad), (5, 1));
    assert!(ck.exhausted, "20% corrupt far exceeds the 0.1% budget");
    assert_eq!(ck.exhausted_transitions, 1);
    // The trace stream is unaffected by the attached engine.
    assert_eq!(telemetry.records().len(), 1);
    // Disabled handles ignore set_slo entirely.
    let off = Telemetry::disabled();
    off.set_slo(SloEngine::standard(20.0));
    assert!(off.slo_text().is_none());
}
