//! End-to-end serving tests over real sockets: submit/poll/fetch against
//! the batch oracle, warm-cache acceptance, concurrent-client
//! bit-identity, admission control, cancellation, and typed error codes.

use adc_mdac::power::PowerModelParams;
use adc_mdac::specs::AdcSpec;
use adc_serve::http;
use adc_serve::protocol::{render_payload, SubmitRequest, BACKEND_BITS};
use adc_serve::{FlowServer, ServerConfig};
use adc_synth::SynthConfig;
use adc_topopt::enumerate::enumerate_candidates;
use adc_topopt::flow::{run_flow, FlowOptions, FlowRequest};
use adc_topopt::wire::JsonValue;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

fn tiny_request(resolution: u32) -> SubmitRequest {
    SubmitRequest {
        spec: AdcSpec::date05(resolution),
        cfg: SynthConfig {
            iterations: 8,
            nm_iterations: 2,
            seed: 13,
            ..Default::default()
        },
        options: FlowOptions::default(),
    }
}

fn submit(addr: SocketAddr, req: &SubmitRequest) -> u64 {
    let (status, body) =
        http::request(addr, "POST", "/v1/runs", Some(&req.canonical().render())).unwrap();
    assert_eq!(status, 202, "{body}");
    match JsonValue::parse(&body).unwrap().get("run_id") {
        Some(JsonValue::Num(id)) => *id as u64,
        other => panic!("submit reply without run_id: {other:?}"),
    }
}

fn poll_until_terminal(addr: SocketAddr, id: u64) -> JsonValue {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) = http::request(addr, "GET", &format!("/v1/runs/{id}"), None).unwrap();
        assert_eq!(status, 200, "{body}");
        let doc = JsonValue::parse(&body).unwrap();
        if let Some(JsonValue::Str(state)) = doc.get("state") {
            if state == "Completed" || state == "Failed" {
                return doc;
            }
        }
        assert!(Instant::now() < deadline, "run {id} never finished: {body}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn fetch_payload(addr: SocketAddr, id: u64) -> String {
    let (status, body) =
        http::request(addr, "GET", &format!("/v1/runs/{id}/result"), None).unwrap();
    assert_eq!(status, 200, "{body}");
    body
}

/// Renders the serial batch path's payload for the same request — the
/// fully independent oracle (exclusive cacheless run, serial executor).
fn serial_oracle(req: &SubmitRequest) -> String {
    let params = PowerModelParams::calibrated();
    let candidates = enumerate_candidates(req.spec.resolution, BACKEND_BITS);
    let run = run_flow(
        &FlowRequest::new(&req.spec, &candidates, &params, &req.cfg)
            .serial()
            .with_options(req.options),
        None,
    );
    render_payload(req, &candidates, &run, false)
}

fn result_subtree(payload: &str) -> String {
    JsonValue::parse(payload)
        .unwrap()
        .get("result")
        .expect("payload has a result subtree")
        .render()
}

fn stat(doc: &JsonValue, key: &str) -> f64 {
    match doc.get("stats").and_then(|s| s.get(key)) {
        Some(JsonValue::Num(v)) => *v,
        other => panic!("stats.{key} missing: {other:?}"),
    }
}

/// Submit → poll → fetch: the served payload's deterministic subtree is
/// bit-identical to the serial batch path's, and the session walked
/// Ready → Running → Completed.
#[test]
fn served_payload_matches_serial_batch_path() {
    let server = FlowServer::start(ServerConfig::default()).unwrap();
    let addr = server.addr();
    let req = tiny_request(10);

    let id = submit(addr, &req);
    let done = poll_until_terminal(addr, id);
    assert_eq!(
        done.get("state"),
        Some(&JsonValue::Str("Completed".to_string()))
    );
    let payload = fetch_payload(addr, id);
    assert_eq!(
        result_subtree(&payload),
        result_subtree(&serial_oracle(&req)),
        "server and serial batch must render bit-identical results"
    );
    // The echoed request parses back to the submitted one.
    let echo = JsonValue::parse(&payload)
        .unwrap()
        .get("request")
        .unwrap()
        .render();
    assert_eq!(echo, req.canonical().render());
    server.shutdown();
}

/// Acceptance check: a second submission of the same spec to a warm
/// server completes with a 100 % hit rate (≥ the required 50 %) and zero
/// cold syntheses, mirroring the batch multi-resolution replay result.
#[test]
fn warm_server_replays_from_cache_without_cold_synthesis() {
    let server = FlowServer::start(ServerConfig::default()).unwrap();
    let addr = server.addr();
    let req = tiny_request(10);

    let first = poll_until_terminal(addr, submit(addr, &req));
    assert!(stat(&first, "blocks") > 0.0);
    let warm = poll_until_terminal(addr, submit(addr, &req));
    assert_eq!(
        warm.get("state"),
        Some(&JsonValue::Str("Completed".to_string()))
    );
    let hits = stat(&warm, "cache_hits");
    let blocks = stat(&warm, "blocks");
    assert_eq!(hits, blocks, "every block must replay from the cache");
    assert!(hits / blocks >= 0.5, "hit rate {hits}/{blocks}");
    assert_eq!(stat(&warm, "cold"), 0.0, "zero cold syntheses");
    assert_eq!(stat(&warm, "evaluations_spent"), 0.0);
    // Payloads stay bit-identical between cold and warm serves.
    let cold_payload = fetch_payload(addr, 1);
    let warm_payload = fetch_payload(addr, 2);
    assert_eq!(result_subtree(&cold_payload), result_subtree(&warm_payload));
    server.shutdown();
}

/// N client threads hammer submit/poll/fetch concurrently over mixed
/// resolutions; every served payload is bit-identical to the serial batch
/// path of its own request.
#[test]
fn concurrent_clients_get_bit_identical_payloads() {
    let server = FlowServer::start(ServerConfig {
        workers: 4,
        max_inflight: 16,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    let resolutions = [10u32, 11, 10, 11, 10, 11];
    let payloads: Vec<(u32, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = resolutions
            .iter()
            .map(|&resolution| {
                scope.spawn(move || {
                    let req = tiny_request(resolution);
                    let id = submit(addr, &req);
                    let done = poll_until_terminal(addr, id);
                    assert_eq!(
                        done.get("state"),
                        Some(&JsonValue::Str("Completed".to_string())),
                        "run {id}"
                    );
                    (resolution, fetch_payload(addr, id))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let oracle10 = result_subtree(&serial_oracle(&tiny_request(10)));
    let oracle11 = result_subtree(&serial_oracle(&tiny_request(11)));
    for (resolution, payload) in &payloads {
        let want = if *resolution == 10 {
            &oracle10
        } else {
            &oracle11
        };
        assert_eq!(
            &result_subtree(payload),
            want,
            "{resolution}-bit concurrent serve diverged from the serial batch path"
        );
    }
    server.shutdown();
}

/// Admission control sheds typed 429s past the in-flight cap, and
/// cancelling a queued run frees its slot (workers: 0 keeps every run
/// deterministically queued).
#[test]
fn admission_cap_sheds_load_and_cancellation_frees_slots() {
    let server = FlowServer::start(ServerConfig {
        workers: 0,
        max_inflight: 2,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let req = tiny_request(10);

    let a = submit(addr, &req);
    let _b = submit(addr, &req);
    let (status, body) =
        http::request(addr, "POST", "/v1/runs", Some(&req.canonical().render())).unwrap();
    assert_eq!(status, 429, "{body}");
    let shed = JsonValue::parse(&body).unwrap();
    assert_eq!(shed.get("max_inflight"), Some(&JsonValue::Num(2.0)));
    assert!(matches!(shed.get("error"), Some(JsonValue::Str(e)) if e.contains("overloaded")));

    // Cancel one queued run: Ready → Failed, slot freed, submit works again.
    let (status, body) = http::request(addr, "DELETE", &format!("/v1/runs/{a}"), None).unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, body) = http::request(addr, "GET", &format!("/v1/runs/{a}"), None).unwrap();
    assert_eq!(status, 200);
    let doc = JsonValue::parse(&body).unwrap();
    assert_eq!(
        doc.get("state"),
        Some(&JsonValue::Str("Failed".to_string()))
    );
    assert_eq!(
        doc.get("error"),
        Some(&JsonValue::Str("cancelled".to_string()))
    );
    let _c = submit(addr, &req);

    // A second DELETE on the now-terminal run evicts its record.
    let (status, _) = http::request(addr, "DELETE", &format!("/v1/runs/{a}"), None).unwrap();
    assert_eq!(status, 200);
    let (status, _) = http::request(addr, "GET", &format!("/v1/runs/{a}"), None).unwrap();
    assert_eq!(status, 404);
    server.shutdown();
}

/// The typed error surface: 400 on malformed/unsupported submissions,
/// 404 on unknown runs/routes, 405 on bad methods, 409 on premature
/// fetches and illegal cancellations.
#[test]
fn error_codes_are_typed() {
    let server = FlowServer::start(ServerConfig {
        workers: 0,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    let (status, body) = http::request(addr, "POST", "/v1/runs", Some("not json")).unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("parse error"), "{body}");

    let (status, body) = http::request(addr, "POST", "/v1/runs", Some("{}")).unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("spec"), "{body}");

    let bad_process = r#"{"spec":{"resolution":10,"fs":4e7,"full_scale":2,"t_nonoverlap":1e-9,"process":"c999"}}"#;
    let (status, body) = http::request(addr, "POST", "/v1/runs", Some(bad_process)).unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("unknown process"), "{body}");

    let bad_resolution = r#"{"spec":{"resolution":40,"fs":4e7,"full_scale":2,"t_nonoverlap":1e-9,"process":"c025"}}"#;
    let (status, body) = http::request(addr, "POST", "/v1/runs", Some(bad_resolution)).unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("resolution"), "{body}");

    let (status, _) = http::request(addr, "GET", "/v1/runs/999", None).unwrap();
    assert_eq!(status, 404);
    let (status, _) = http::request(addr, "GET", "/v1/runs/notanumber", None).unwrap();
    assert_eq!(status, 404);
    let (status, _) = http::request(addr, "GET", "/nope", None).unwrap();
    assert_eq!(status, 404);
    let (status, _) = http::request(addr, "PUT", "/v1/runs/1", None).unwrap();
    assert_eq!(status, 405);

    // A queued (non-terminal) run: result not ready → 409.
    let id = submit(addr, &tiny_request(10));
    let (status, body) =
        http::request(addr, "GET", &format!("/v1/runs/{id}/result"), None).unwrap();
    assert_eq!(status, 409);
    assert!(body.contains("Ready"), "{body}");
    server.shutdown();
}

/// A config that would abort the process (a 1e12-iteration anneal sizes
/// an 8 TB history up front) is a typed 400, and the same server still
/// answers `/healthz` and serves a valid run afterwards.
#[test]
fn hostile_config_is_rejected_and_the_server_survives() {
    let server = FlowServer::start(ServerConfig::default()).unwrap();
    let addr = server.addr();

    let hostile = r#"{"spec":{"resolution":10,"fs":4e7,"full_scale":2,"t_nonoverlap":1e-9,"process":"c025"},"config":{"iterations":1e12}}"#;
    let (status, body) = http::request(addr, "POST", "/v1/runs", Some(hostile)).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("iterations"), "{body}");

    let (status, body) = http::request(addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200, "{body}");
    let req = tiny_request(10);
    let id = submit(addr, &req);
    let done = poll_until_terminal(addr, id);
    assert_eq!(
        done.get("state"),
        Some(&JsonValue::Str("Completed".to_string()))
    );
    assert_eq!(
        result_subtree(&fetch_payload(addr, id)),
        result_subtree(&serial_oracle(&req))
    );
    server.shutdown();
}

/// A body nested 100 000 arrays deep is a typed 400 (the JSON parser
/// bounds its recursion instead of overflowing the connection thread's
/// stack and aborting the process), and the same server still answers
/// `/healthz` and serves a valid run afterwards.
#[test]
fn deeply_nested_body_is_rejected_and_the_server_survives() {
    let server = FlowServer::start(ServerConfig::default()).unwrap();
    let addr = server.addr();

    let hostile = "[".repeat(100_000);
    let (status, body) = http::request(addr, "POST", "/v1/runs", Some(&hostile)).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("nested deeper"), "{body}");

    let (status, body) = http::request(addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200, "{body}");
    let req = tiny_request(10);
    let id = submit(addr, &req);
    let done = poll_until_terminal(addr, id);
    assert_eq!(
        done.get("state"),
        Some(&JsonValue::Str("Completed".to_string()))
    );
    assert_eq!(
        result_subtree(&fetch_payload(addr, id)),
        result_subtree(&serial_oracle(&req))
    );
    server.shutdown();
}

/// A request line that never ends is cut off at the header-block cap:
/// the server answers 400 once `MAX_HEADER_BYTES` arrive without a
/// newline, instead of buffering for as long as the client keeps sending.
#[test]
fn endless_request_line_is_cut_off_at_the_header_cap() {
    use std::io::{Read, Write};
    let server = FlowServer::start(ServerConfig::default()).unwrap();
    let addr = server.addr();

    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    stream
        .write_all(&vec![b'A'; http::MAX_HEADER_BYTES + 1])
        .unwrap();
    // The server may reset the connection over the byte it never read,
    // so keep whatever arrived before the first error.
    let mut reply = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => reply.extend_from_slice(&chunk[..n]),
        }
    }
    let reply = String::from_utf8_lossy(&reply);
    assert!(reply.starts_with("HTTP/1.1 400"), "{reply:?}");
    assert!(reply.contains("header block too large"), "{reply}");

    let (status, body) = http::request(addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200, "{body}");
    server.shutdown();
}

/// Shed submissions (past the in-flight cap) carry a `Retry-After`
/// header, and `/healthz` reports the cumulative shed count next to the
/// inflight gauge and the cache statistics.
#[test]
fn shed_responses_carry_retry_after_and_healthz_counts_them() {
    let server = FlowServer::start(ServerConfig {
        workers: 0,
        max_inflight: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let req = tiny_request(10);

    let _queued = submit(addr, &req);
    for _ in 0..2 {
        let (status, headers, body) =
            http::request_full(addr, "POST", "/v1/runs", Some(&req.canonical().render())).unwrap();
        assert_eq!(status, 429, "{body}");
        let retry_after = headers
            .iter()
            .find(|(name, _)| name == "retry-after")
            .map(|(_, value)| value.as_str());
        assert_eq!(
            retry_after,
            Some(http::RETRY_AFTER_SECS.to_string().as_str()),
            "429 must carry Retry-After"
        );
    }

    let (status, body) = http::request(addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    let doc = JsonValue::parse(&body).unwrap();
    assert_eq!(doc.get("shed"), Some(&JsonValue::Num(2.0)), "{body}");
    assert_eq!(doc.get("inflight"), Some(&JsonValue::Num(1.0)), "{body}");
    let cache = doc.get("cache").expect("healthz reports cache stats");
    assert_eq!(cache.get("corrupt_dropped"), Some(&JsonValue::Num(0.0)));
    assert_eq!(server.shed_count(), 2);
    server.shutdown();
}

/// One persistent keep-alive client drives a whole submit → poll → fetch
/// run on a single TCP connection, and the served payload is still
/// bit-identical to the serial batch path.
#[test]
fn keep_alive_client_runs_a_full_flow_on_one_connection() {
    let server = FlowServer::start(ServerConfig::default()).unwrap();
    let addr = server.addr();
    let req = tiny_request(10);

    let mut client = http::Client::new(addr);
    let (status, body) = client
        .request("POST", "/v1/runs", Some(&req.canonical().render()))
        .unwrap();
    assert_eq!(status, 202, "{body}");
    let id = match JsonValue::parse(&body).unwrap().get("run_id") {
        Some(JsonValue::Num(id)) => *id as u64,
        other => panic!("submit reply without run_id: {other:?}"),
    };
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) = client
            .request("GET", &format!("/v1/runs/{id}"), None)
            .unwrap();
        assert_eq!(status, 200, "{body}");
        let doc = JsonValue::parse(&body).unwrap();
        if doc.get("state") == Some(&JsonValue::Str("Completed".to_string())) {
            break;
        }
        assert_ne!(
            doc.get("state"),
            Some(&JsonValue::Str("Failed".to_string())),
            "{body}"
        );
        assert!(Instant::now() < deadline, "run never finished: {body}");
        std::thread::sleep(Duration::from_millis(10));
    }
    let (status, payload) = client
        .request("GET", &format!("/v1/runs/{id}/result"), None)
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        result_subtree(&payload),
        result_subtree(&serial_oracle(&req))
    );
    assert_eq!(
        client.connects(),
        1,
        "the whole run must ride one connection ({} requests)",
        client.requests()
    );
    assert!(client.reuse_rate() > 0.5);
    server.shutdown();
}

/// Unique per-test snapshot path under the target tmp dir.
fn snapshot_path(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("adc-serve-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}-{}.snapshot.json", std::process::id()))
}

/// Shutdown saves the cache snapshot; a fresh server restored from it
/// answers a resubmission of the same spec 100 % from the cache — zero
/// cold syntheses across a process restart — and the payload stays
/// bit-identical to the serial batch path.
#[test]
fn snapshot_restart_serves_warm_resubmissions_with_zero_cold_syntheses() {
    let path = snapshot_path("restart");
    let _ = std::fs::remove_file(&path);
    let req = tiny_request(10);

    let server = FlowServer::start(ServerConfig {
        snapshot: Some(path.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let first = poll_until_terminal(server.addr(), submit(server.addr(), &req));
    assert!(stat(&first, "blocks") > 0.0);
    let entries = server.cache_len();
    assert!(entries > 0);
    server.shutdown();
    assert!(path.exists(), "shutdown must write the snapshot");

    let server = FlowServer::start(ServerConfig {
        snapshot: Some(path.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    assert_eq!(server.cache_len(), entries, "restore round-trips entries");
    assert_eq!(server.cache_stats().corrupt_dropped, 0);
    let warm = poll_until_terminal(addr, submit(addr, &req));
    assert_eq!(stat(&warm, "cache_hits"), stat(&warm, "blocks"));
    assert_eq!(
        stat(&warm, "cold"),
        0.0,
        "zero cold syntheses after restart"
    );
    assert_eq!(stat(&warm, "evaluations_spent"), 0.0);
    let payload = fetch_payload(addr, 1);
    assert_eq!(
        result_subtree(&payload),
        result_subtree(&serial_oracle(&req))
    );
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// A truncated (unparseable) snapshot file must boot the server cold —
/// drop counted, nothing served from it, no crash — and the server then
/// works normally.
#[test]
fn truncated_snapshot_boots_cold_and_is_counted() {
    let path = snapshot_path("truncated");
    std::fs::write(&path, "{\"format\":\"adc-block-cache-snapshot\",\"ver").unwrap();
    let server = FlowServer::start(ServerConfig {
        snapshot: Some(path.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    assert_eq!(server.cache_len(), 0, "nothing restored from garbage");
    assert_eq!(server.cache_stats().corrupt_dropped, 1, "drop is counted");
    // The cold server still serves correctly.
    let req = tiny_request(10);
    let done = poll_until_terminal(addr, submit(addr, &req));
    assert_eq!(
        done.get("state"),
        Some(&JsonValue::Str("Completed".to_string()))
    );
    assert!(stat(&done, "cold") > 0.0, "boot really was cold");
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// Cancelled runs report the session's typed terminal state through the
/// result endpoint too: fetching a cancelled run is a 409 naming the
/// `Failed` state, not a hang or a 200 with a stale payload.
#[test]
fn cancelled_runs_fail_typed_through_the_result_endpoint() {
    let server = FlowServer::start(ServerConfig {
        workers: 0,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let id = submit(addr, &tiny_request(10));
    let (status, _) = http::request(addr, "DELETE", &format!("/v1/runs/{id}"), None).unwrap();
    assert_eq!(status, 200);
    let (status, body) =
        http::request(addr, "GET", &format!("/v1/runs/{id}/result"), None).unwrap();
    assert_eq!(status, 409);
    assert!(body.contains("Failed"), "{body}");
    server.shutdown();
}
