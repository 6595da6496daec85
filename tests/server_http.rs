//! End-to-end tests of the HTTP serving front end over real loopback
//! sockets: concurrent keep-alive clients must receive responses
//! **byte-identical** to rendering direct service results, graceful
//! shutdown must drain in-flight requests without dropping any, and
//! adversarial wire input must produce clean error responses — never a
//! dead worker.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use xmem::prelude::*;
use xmem::server::{api, HttpClient, ServerConfig, ServerHandle, WireLimits};
use xmem::service::jobspec::job_to_value;

fn start_server(config: ServerConfig) -> (ServerHandle, Arc<AsyncEstimationService>) {
    let service = Arc::new(AsyncEstimationService::for_device(GpuDevice::rtx3060()));
    let server =
        ServerHandle::bind("127.0.0.1:0", Arc::clone(&service), config).expect("bind loopback");
    (server, service)
}

fn job_json(spec: &TrainJobSpec) -> String {
    serde_json::to_string(&job_to_value(spec)).expect("job renders")
}

fn small_spec(batch: usize) -> TrainJobSpec {
    TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, batch).with_iterations(2)
}

/// ≥32 concurrent keep-alive connections hammering the estimate,
/// named-device and placement routes: every response body must be
/// byte-identical to rendering the equivalent direct service call.
#[test]
fn concurrent_keep_alive_clients_get_bit_identical_answers() {
    let untraced = TraceContext::disabled();
    const CLIENTS: usize = 32;
    const ROUNDS: usize = 6;
    let (server, _service) = start_server(ServerConfig::default().with_workers(CLIENTS + 4));
    let addr = server.local_addr();

    // The expected bodies, computed through a *separate* service — the
    // pipeline is deterministic, so an independent instance must agree
    // byte-for-byte with what travels the wire.
    let direct = EstimationService::for_device(GpuDevice::rtx3060());
    let jobs = [small_spec(4), small_spec(8), small_spec(16)];
    let mut expected: Vec<(String, String, String)> = Vec::new(); // (path, body, expected)
    for job in &jobs {
        expected.push((
            "/v1/estimate".to_string(),
            job_json(job),
            api::estimate_body(
                &direct
                    .estimate_traced(job, None, &untraced)
                    .expect("estimates"),
            ),
        ));
        expected.push((
            "/v1/estimate".to_string(),
            format!("{{\"job\":{},\"device\":\"rtx4060\"}}", job_json(job)),
            api::estimate_body(
                &direct
                    .estimate_traced(job, Some("rtx4060"), &untraced)
                    .expect("estimates"),
            ),
        ));
        expected.push((
            "/v1/best-device".to_string(),
            job_json(job),
            api::placement_body(
                direct
                    .best_device_for_job_traced(job, &untraced)
                    .expect("places")
                    .as_ref(),
            ),
        ));
    }
    let expected = Arc::new(expected);

    let exchanges = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for client_index in 0..CLIENTS {
            let expected = Arc::clone(&expected);
            let exchanges = &exchanges;
            scope.spawn(move || {
                let mut client = HttpClient::connect(addr).expect("connect");
                for round in 0..ROUNDS {
                    // Each client walks the case list from its own offset,
                    // so at any instant the server sees a mix of routes.
                    let (path, body, want) = &expected[(client_index + round) % expected.len()];
                    let response = client.post_json(path, body).expect("keep-alive exchange");
                    assert_eq!(response.status, 200, "{path}: {}", response.text());
                    assert_eq!(
                        response.text(),
                        want.as_str(),
                        "{path} diverged from the direct path"
                    );
                    exchanges.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(exchanges.load(Ordering::Relaxed), CLIENTS * ROUNDS);
    // Keep-alive held: every client used exactly one connection.
    assert_eq!(server.metrics().requests_total(), (CLIENTS * ROUNDS) as u64);
    let report = server.shutdown();
    assert!(report.clean);
}

/// A whole device matrix over the wire is byte-identical to rendering
/// `estimate_matrix_traced` directly.
#[test]
fn matrix_and_sweep_responses_match_direct_rendering() {
    let untraced = TraceContext::disabled();
    let (server, service) = start_server(ServerConfig::default());
    let mut client = HttpClient::connect(server.local_addr()).expect("connect");

    let jobs = [small_spec(4), small_spec(8)];
    let body = format!(
        "{{\"jobs\":[{},{}],\"devices\":[\"rtx3060\",\"a100\"]}}",
        job_json(&jobs[0]),
        job_json(&jobs[1])
    );
    let response = client.post_json("/v1/matrix", &body).expect("matrix");
    assert_eq!(response.status, 200);
    let direct = service
        .service()
        .estimate_matrix_traced(&jobs, &["rtx3060", "a100"], &untraced)
        .expect("direct matrix");
    assert_eq!(response.text(), api::matrix_body(&direct));

    let sweep_request = format!(
        "{{\"job\":{},\"batches\":[1,2,4]}}",
        job_json(&small_spec(1))
    );
    let response = client
        .post_json("/v1/sweep", &sweep_request)
        .expect("sweep");
    assert_eq!(response.status, 200);
    let direct_sweep = service
        .service()
        .sweep_traced(&small_spec(1), &[1, 2, 4], &untraced);
    assert_eq!(response.text(), api::sweep_body(&direct_sweep));

    let report = server.shutdown();
    assert!(report.clean);
}

/// Grid-driven routes (`/v1/sweep`, `/v1/plan`) supply their own batch
/// sizes, so the job object may omit `batch` — the grammar shared with
/// the CLI (docs/JOBSPEC.md). The answers must match jobs spelled with
/// an explicit batch.
#[test]
fn grid_routes_accept_jobs_without_a_batch_field() {
    let untraced = TraceContext::disabled();
    let (server, service) = start_server(ServerConfig::default());
    let mut client = HttpClient::connect(server.local_addr()).expect("connect");

    let batchless = r#"{"model":"MobeNetV3Small","optimizer":"Adam","iterations":2}"#;

    let sweep_request = format!("{{\"job\":{batchless},\"batches\":[1,2,4]}}");
    let response = client
        .post_json("/v1/sweep", &sweep_request)
        .expect("sweep");
    assert_eq!(response.status, 200, "{}", response.text());
    let direct_sweep = service
        .service()
        .sweep_traced(&small_spec(1), &[1, 2, 4], &untraced);
    assert_eq!(response.text(), api::sweep_body(&direct_sweep));

    let plan_request = format!("{{\"job\":{batchless},\"device\":\"rtx3060\",\"max\":64}}");
    let response = client.post_json("/v1/plan", &plan_request).expect("plan");
    assert_eq!(response.status, 200, "{}", response.text());
    let device = service
        .service()
        .registry()
        .get("rtx3060")
        .expect("registered device");
    let direct_plan = service
        .service()
        .max_batch_for_device_traced(&small_spec(1), device, 1, 64, &untraced)
        .expect("direct plan");
    assert_eq!(response.text(), api::plan_body(direct_plan));

    // Singleton routes still insist on an explicit batch.
    let response = client
        .post_json("/v1/estimate", batchless)
        .expect("estimate");
    assert_eq!(response.status, 400);
    assert!(response.text().contains("`batch` is required"));

    let report = server.shutdown();
    assert!(report.clean);
}

/// Graceful shutdown with requests in flight: every request that was
/// being served when the drain triggered is answered completely (status
/// 200, full body, `connection: close`); nothing is dropped or
/// truncated.
#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    const CLIENTS: usize = 8;
    let (server, service) = start_server(ServerConfig::default().with_workers(CLIENTS + 2));
    let addr = server.local_addr();
    let trigger = Arc::new(std::sync::Barrier::new(CLIENTS + 1));

    let answered = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for i in 0..CLIENTS {
            let trigger = Arc::clone(&trigger);
            let answered = &answered;
            scope.spawn(move || {
                let mut client = HttpClient::connect(addr).expect("connect");
                // Distinct cold batches of a slow-profiling model: each
                // request does tens of milliseconds of real work, so the
                // drain demonstrably overlaps execution.
                let slow = TrainJobSpec::new(ModelId::ResNet101, OptimizerKind::Adam, 24 + i)
                    .with_iterations(2);
                let body = job_json(&slow);
                trigger.wait();
                let response = client
                    .post_json("/v1/estimate", &body)
                    .expect("in-flight request must be answered, not dropped");
                assert_eq!(response.status, 200, "{}", response.text());
                assert!(response.text().contains("peak_bytes"), "truncated body");
                assert_eq!(
                    response.header("connection"),
                    Some("close"),
                    "a drained answer must announce the close"
                );
                answered.fetch_add(1, Ordering::Relaxed);
            });
        }
        trigger.wait();
        // Deterministic overlap: pull the plug as soon as the service is
        // provably mid-profile (the counter increments when a profile
        // run *starts*), while every answer is still tens of
        // milliseconds away.
        let patience = std::time::Instant::now();
        while service.service().profile_runs() == 0 && patience.elapsed() < Duration::from_secs(10)
        {
            std::thread::yield_now();
        }
        assert!(service.service().profile_runs() > 0, "no request started");
        server.trigger_drain();
    });
    assert_eq!(
        answered.load(Ordering::Relaxed),
        CLIENTS,
        "dropped requests"
    );
    let report = server.shutdown();
    assert!(report.clean, "drain must finish within its deadline");
    assert_eq!(report.requests_served, CLIENTS as u64);

    // The drained server is really gone: new connections are refused.
    std::thread::sleep(Duration::from_millis(50));
    let refused = std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(250));
    assert!(
        refused.is_err() || {
            // Some platforms accept then immediately close; either way no
            // service is behind the socket.
            let mut probe = HttpClient::connect(addr).expect("probe connect");
            probe
                .set_read_timeout(Some(Duration::from_millis(500)))
                .unwrap();
            probe.get("/healthz").is_err()
        },
        "the listener must be closed after shutdown"
    );
}

/// Adversarial wire input: every malformed, oversized or truncated
/// request gets a clean error response (or a clean close) and the server
/// keeps serving afterwards — no worker dies.
#[test]
fn adversarial_requests_get_clean_errors_and_no_worker_dies() {
    let limits = WireLimits::default();
    let (server, _service) = start_server(
        ServerConfig::default()
            .with_workers(4)
            .with_limits(limits)
            .with_keep_alive_timeout(Duration::from_secs(2)),
    );
    let addr = server.local_addr();

    // Oversized single header → 431 and close.
    {
        let mut client = HttpClient::connect(addr).expect("connect");
        client
            .send_raw(
                format!(
                    "GET /healthz HTTP/1.1\r\nx-bloat: {}\r\n\r\n",
                    "a".repeat(20_000)
                )
                .as_bytes(),
            )
            .expect("send");
        let response = client.read_response().expect("431 answer");
        assert_eq!(response.status, 431);
        assert!(response.text().contains("\"kind\":\"wire\""));
    }
    // Head that never terminates → 431 once the limit trips.
    {
        let mut client = HttpClient::connect(addr).expect("connect");
        client.send_raw(b"GET / HTTP/1.1\r\n").expect("send");
        client
            .send_raw("x: y\r\n".repeat(4000).as_bytes())
            .expect("send");
        let response = client.read_response().expect("431 answer");
        assert_eq!(response.status, 431);
    }
    // Huge declared Content-Length → 413 before any body arrives.
    {
        let mut client = HttpClient::connect(addr).expect("connect");
        client
            .send_raw(b"POST /v1/estimate HTTP/1.1\r\ncontent-length: 99999999999\r\n\r\n")
            .expect("send");
        let response = client.read_response().expect("413 answer");
        assert_eq!(response.status, 413);
    }
    // Zero-length body on a JSON route → an app-level 400, and the
    // connection survives (it was a well-formed request).
    {
        let mut client = HttpClient::connect(addr).expect("connect");
        let response = client.post_json("/v1/estimate", "").expect("400 answer");
        assert_eq!(response.status, 400);
        assert!(response.text().contains("bad_request"));
        let again = client.get("/healthz").expect("connection survived the 400");
        assert_eq!(again.status, 200);
    }
    // Truncated body: declare 64 bytes, send 3, half-close. The server
    // must neither hang nor answer garbage; it just closes.
    {
        let mut client = HttpClient::connect(addr).expect("connect");
        client
            .send_raw(b"POST /v1/estimate HTTP/1.1\r\ncontent-length: 64\r\n\r\n{\"m")
            .expect("send");
        client.shutdown_write().expect("half-close");
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let outcome = client.read_response();
        assert!(outcome.is_err(), "no response can exist for half a request");
    }
    // A valid request pipelined with garbage: the valid one is answered,
    // the garbage gets a 400, then the connection closes.
    {
        let mut client = HttpClient::connect(addr).expect("connect");
        client
            .send_raw(b"GET /healthz HTTP/1.1\r\n\r\n\x13\x37 GARBAGE\x00\r\n\r\n")
            .expect("send");
        let first = client.read_response().expect("healthz answer");
        assert_eq!(first.status, 200);
        let second = client.read_response().expect("400 answer");
        assert_eq!(second.status, 400);
    }
    // Unknown routes and wrong methods are clean JSON errors.
    {
        let mut client = HttpClient::connect(addr).expect("connect");
        let missing = client.get("/nope").expect("404 answer");
        assert_eq!(missing.status, 404);
        let wrong = client.get("/v1/estimate").expect("405 answer");
        assert_eq!(wrong.status, 405);
        // Unknown device is a stable JSON error body.
        let unknown = client
            .post_json(
                "/v1/estimate",
                &format!(
                    "{{\"job\":{},\"device\":\"h9000\"}}",
                    job_json(&small_spec(4))
                ),
            )
            .expect("unknown-device answer");
        assert_eq!(unknown.status, 404);
        assert!(unknown.text().contains("unknown_device"));
    }

    // After all of that abuse: the wire error counter moved, and the
    // server still answers real queries on fresh connections.
    assert!(server.metrics().responses_with_status(431) >= 2);
    assert!(server.metrics().responses_with_status(413) >= 1);
    let mut client = HttpClient::connect(addr).expect("connect");
    let response = client
        .post_json("/v1/estimate", &job_json(&small_spec(4)))
        .expect("post-abuse estimate");
    assert_eq!(response.status, 200);
    let report = server.shutdown();
    assert!(report.clean);
}

/// Per-request deadlines surface as `504` with the stable error body,
/// and backpressure as `503` + `retry-after`.
#[test]
fn deadlines_and_backpressure_map_to_504_and_503() {
    // One async worker and a one-deep queue make overload deterministic.
    let service = Arc::new(AsyncEstimationService::from_service(
        Arc::new(EstimationService::new(ServiceConfig::for_device(
            GpuDevice::rtx3060(),
        ))),
        1,
        1,
    ));
    let server = ServerHandle::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        ServerConfig::default().with_workers(8),
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    // Deadline: a cold profile takes far longer than 1 ms, so the timer
    // settles the future first.
    let mut client = HttpClient::connect(addr).expect("connect");
    let cold = TrainJobSpec::new(ModelId::DistilGpt2, OptimizerKind::AdamW, 6).with_iterations(2);
    let response = client
        .post_json_with_deadline("/v1/estimate", &job_json(&cold), 1)
        .expect("deadline answer");
    assert_eq!(response.status, 504, "{}", response.text());
    assert!(response.text().contains("deadline_exceeded"));
    // A malformed deadline header is a 400, not a panic.
    let bad = client
        .request(
            "POST",
            "/v1/estimate",
            &[("x-xmem-deadline-ms", "soon")],
            job_json(&small_spec(4)).as_bytes(),
        )
        .expect("bad-deadline answer");
    assert_eq!(bad.status, 400);

    // Backpressure: saturate the single worker + single queue slot with
    // slow cold estimates, then keep pushing until a 503 surfaces.
    let saw_busy = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|i| {
                scope.spawn(move || {
                    let mut client = HttpClient::connect(addr).expect("connect");
                    let slow =
                        TrainJobSpec::new(ModelId::MobileNetV3Large, OptimizerKind::Adam, 40 + i)
                            .with_iterations(2);
                    let response = client
                        .post_json("/v1/estimate", &job_json(&slow))
                        .expect("overload answer");
                    if response.status == 503 {
                        assert_eq!(
                            response.header("retry-after"),
                            Some("1"),
                            "503 must carry retry-after"
                        );
                        assert!(response.text().contains("busy"));
                        true
                    } else {
                        assert_eq!(response.status, 200, "{}", response.text());
                        false
                    }
                })
            })
            .collect();
        // Join every thread (no short-circuit: each runs its own
        // assertions), then ask whether any saw the 503.
        let outcomes: Vec<bool> = handles
            .into_iter()
            .map(|h| h.join().expect("overload thread"))
            .collect();
        outcomes.into_iter().any(|busy| busy)
    });
    assert!(
        saw_busy,
        "6 concurrent cold estimates against a 1-worker/1-slot service must trip Busy"
    );
    let report = server.shutdown();
    assert!(report.clean);
}

/// The two 503 producers — the acceptor's inline accept-queue-overflow
/// answer and the worker path's submission-queue `Busy` answer — must be
/// **byte-identical** on the wire, and the inline one must participate
/// in the per-status counter and the bytes-written accounting exactly
/// like a worker-written response (the bug this pins: the inline write
/// bypassed `write_response`, so scrapers undercounted rejected load).
#[test]
fn inline_and_worker_path_503s_are_byte_identical() {
    use std::io::{Read, Write};
    let canonical = api::busy_response().to_bytes(false);

    // Worker path: one async worker and a one-deep submission queue.
    // Two slow cold estimates saturate both slots; polling with
    // `connection: close` requests must then surface a 503, captured raw
    // to EOF so the comparison covers every byte on the wire.
    let worker_bytes = {
        let service = Arc::new(AsyncEstimationService::from_service(
            Arc::new(EstimationService::new(ServiceConfig::for_device(
                GpuDevice::rtx3060(),
            ))),
            1,
            1,
        ));
        let server = ServerHandle::bind(
            "127.0.0.1:0",
            Arc::clone(&service),
            ServerConfig::default().with_workers(8),
        )
        .expect("bind loopback");
        let addr = server.local_addr();
        let stop = std::sync::atomic::AtomicBool::new(false);
        let captured = std::thread::scope(|scope| {
            // Two saturator threads keep the single async worker and the
            // one-deep queue occupied with distinct cold profiles until
            // the probe has its 503 in hand.
            for t in 0..2usize {
                let stop = &stop;
                scope.spawn(move || {
                    let mut client = HttpClient::connect(addr).expect("connect saturator");
                    let mut round = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        let slow = TrainJobSpec::new(
                            ModelId::ResNet101,
                            OptimizerKind::Adam,
                            20 + t * 500 + round,
                        )
                        .with_iterations(2);
                        round += 1;
                        let response = client
                            .post_json("/v1/estimate", &job_json(&slow))
                            .expect("saturator answer");
                        assert!(matches!(response.status, 200 | 503), "{}", response.text());
                    }
                });
            }
            // Make sure a saturator is really executing before probing.
            let patience = std::time::Instant::now();
            while service.service().profile_runs() == 0
                && patience.elapsed() < Duration::from_secs(10)
            {
                std::thread::yield_now();
            }
            let patience = std::time::Instant::now();
            let mut probe = 0;
            let bytes = loop {
                assert!(
                    patience.elapsed() < Duration::from_secs(30),
                    "no worker-path 503 surfaced against a saturated service"
                );
                // A job never asked before: a resident one is a cache
                // read that never waits for the pool.
                probe += 1;
                let body = job_json(&small_spec(probe));
                let request = format!(
                    "POST /v1/estimate HTTP/1.1\r\ncontent-type: application/json\r\n\
                     content-length: {}\r\nconnection: close\r\n\r\n{body}",
                    body.len()
                );
                let mut stream = std::net::TcpStream::connect(addr).expect("connect probe");
                stream.write_all(request.as_bytes()).expect("send probe");
                let mut bytes = Vec::new();
                stream.read_to_end(&mut bytes).expect("read to close");
                if bytes.starts_with(b"HTTP/1.1 503") {
                    break bytes;
                }
            };
            stop.store(true, Ordering::Relaxed);
            bytes
        });
        assert!(server.metrics().responses_with_status(503) >= 1);
        server.shutdown();
        captured
    };
    assert_eq!(
        worker_bytes, canonical,
        "worker-path 503 must render exactly `busy_response`"
    );

    // Inline path: one connection worker and a one-deep accept queue.
    // An idle connection claims the worker, a second fills the queue,
    // and the third is rejected at accept time — the only bytes this
    // server ever writes, so the accounting is exact.
    let (server, _service) =
        start_server(ServerConfig::default().with_workers(1).with_queue_depth(1));
    let addr = server.local_addr();
    let claim_worker = std::net::TcpStream::connect(addr).expect("connect claimer");
    std::thread::sleep(Duration::from_millis(150)); // worker takes it
    let fill_queue = std::net::TcpStream::connect(addr).expect("connect queue filler");
    std::thread::sleep(Duration::from_millis(150)); // acceptor enqueues it
    let mut rejected = std::net::TcpStream::connect(addr).expect("connect overflow");
    let mut inline_bytes = Vec::new();
    rejected
        .read_to_end(&mut inline_bytes)
        .expect("read inline 503 to close");
    assert_eq!(
        inline_bytes, canonical,
        "inline 503 must be byte-identical to the worker path"
    );
    assert_eq!(
        server.metrics().responses_with_status(503),
        1,
        "the inline 503 must count toward the per-status totals"
    );
    // Free the worker, then scrape: the counter renders *before* the
    // metrics response itself is written, so at that instant the inline
    // 503 is the only write the server has ever made.
    drop(claim_worker);
    drop(fill_queue);
    std::thread::sleep(Duration::from_millis(150));
    let mut scraper = HttpClient::connect(addr).expect("connect scraper");
    let metrics = scraper.get("/metrics").expect("metrics");
    let needle = format!("xmem_server_bytes_written_total {}", canonical.len());
    assert!(
        metrics.text().contains(&needle),
        "inline 503 bytes must be accounted: wanted `{needle}` in:\n{}",
        metrics.text()
    );
    let report = server.shutdown();
    assert!(report.clean);
}

/// `/healthz` and `/metrics` expose liveness and the full counter
/// surface, including the service-layer counters.
#[test]
fn health_and_metrics_expose_the_counter_surface() {
    let (server, _service) = start_server(ServerConfig::default());
    let mut client = HttpClient::connect(server.local_addr()).expect("connect");
    let health = client.get("/healthz").expect("health");
    assert_eq!(health.status, 200);
    let health_value: serde::Value = serde_json::from_str(&health.text()).expect("healthz is JSON");
    let entries = health_value.as_object().expect("healthz is an object");
    assert_eq!(
        serde::obj_get(entries, "status").and_then(serde::Value::as_str),
        Some("ok")
    );
    assert_eq!(
        serde::obj_get(entries, "version").and_then(serde::Value::as_str),
        Some(env!("CARGO_PKG_VERSION"))
    );
    assert!(
        serde::obj_get(entries, "uptime_seconds")
            .and_then(serde::Value::as_u64)
            .is_some(),
        "uptime_seconds must be a number: {}",
        health.text()
    );
    assert!(
        matches!(serde::obj_get(entries, "cluster"), Some(serde::Value::Null)),
        "single-node role is `cluster: null`: {}",
        health.text()
    );

    let estimate = client
        .post_json("/v1/estimate", &job_json(&small_spec(4)))
        .expect("estimate");
    assert_eq!(estimate.status, 200);

    let metrics = client.get("/metrics").expect("metrics");
    assert_eq!(metrics.status, 200);
    let text = metrics.text();
    for needle in [
        "xmem_server_connections_total 1",
        "xmem_http_requests_total{route=\"estimate\"} 1",
        "xmem_http_responses_total{code=\"200\"} 2",
        "xmem_http_request_duration_seconds_bucket{route=\"estimate\",le=\"+Inf\"} 1",
        "xmem_stage_cache_events_total{event=\"miss\"} 1",
        "xmem_profile_runs_total 1",
        "xmem_sim_runs_total",
        "xmem_server_draining 0",
        // Adaptive tiering families: the estimated job sits in the stage
        // cache's probation segment, and the tuner starts at the default
        // 50% split on every tier.
        "xmem_cache_entries{cache=\"stage\",segment=\"probation\"} 1",
        "xmem_cache_entries{cache=\"stage\",segment=\"protected\"} 0",
        "xmem_cache_adaptive{cache=\"stage\"} 1",
        "xmem_cache_segmented{cache=\"param\"} 1",
        "xmem_cache_protected_frac_permille{cache=\"stage\"} 500",
        "xmem_cache_capacity{cache=\"param\"}",
        "xmem_cache_ghost_hits_total{cache=\"stage\"} 0",
        "xmem_cache_tuner_steps_total{cache=\"sim\"} 0",
        "xmem_cache_sketch_resets_total{cache=\"stage\"} 0",
        "xmem_cache_admission_denied_total{cache=\"stage\"} 0",
        // Per-stage latency histograms from the tracing layer: the
        // estimate rode the pool queue and the service call.
        "# TYPE xmem_stage_duration_seconds histogram",
        "xmem_stage_duration_seconds_bucket{stage=\"pool.queue\",le=\"+Inf\"} 1",
        "xmem_stage_duration_seconds_bucket{stage=\"service.call\",le=\"+Inf\"} 1",
        "xmem_stage_duration_seconds_count{stage=\"stage.profile\"} 1",
    ] {
        assert!(text.contains(needle), "metrics missing `{needle}`:\n{text}");
    }
    assert!(
        !text.contains("cache=\"replay\""),
        "the service has no replay tier:\n{text}"
    );

    // Shutdown over the wire: the SIGTERM-equivalent for the CLI.
    let bye = client.post_json("/v1/shutdown", "{}").expect("shutdown");
    assert_eq!(bye.status, 200);
    assert!(server.is_draining());
    let report = server.wait();
    assert!(report.clean);
}

/// An expectation-honouring client sends the head with
/// `Expect: 100-continue` and then *waits* for the interim response
/// before transmitting the body. Without the interim write the exchange
/// deadlocks until the idle timeout (the bug this pins): the server sat
/// in `read` waiting for a body the client was never going to send.
#[test]
fn expect_100_continue_is_answered_before_the_body() {
    use std::io::{Read, Write};

    let (server, _service) = start_server(ServerConfig::default());
    let addr = server.local_addr();

    // Reads one `\r\n\r\n`-terminated head off the stream.
    fn read_head(stream: &mut std::net::TcpStream) -> String {
        let mut head = Vec::new();
        let mut byte = [0u8; 1];
        while !head.ends_with(b"\r\n\r\n") {
            let n = stream.read(&mut byte).expect("read head byte");
            assert!(n > 0, "connection closed mid-head: {head:?}");
            head.push(byte[0]);
        }
        String::from_utf8(head).expect("head is UTF-8")
    }

    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");

    let body = job_json(&small_spec(4));
    let head = format!(
        "POST /v1/estimate HTTP/1.1\r\ncontent-length: {}\r\nExpect: 100-Continue\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("send head");
    stream.flush().expect("flush head");

    // The interim response must arrive while the body is withheld.
    let interim = read_head(&mut stream);
    assert!(
        interim.starts_with("HTTP/1.1 100 Continue"),
        "expected an interim 100, got: {interim}"
    );

    // Now honour our side of the contract; the final response follows.
    stream.write_all(body.as_bytes()).expect("send body");
    stream.flush().expect("flush body");
    let final_head = read_head(&mut stream);
    assert!(
        final_head.starts_with("HTTP/1.1 200"),
        "expected the real answer after the body, got: {final_head}"
    );

    // Drain the final body so the keep-alive connection is reusable.
    let length: usize = final_head
        .lines()
        .find_map(|l| {
            l.to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(str::trim)
                .map(String::from)
        })
        .and_then(|v| v.parse().ok())
        .expect("content-length on the final response");
    let mut rest = vec![0u8; length];
    stream.read_exact(&mut rest).expect("final body");

    // The flag is one-shot: a follow-up request without `Expect` on the
    // same connection gets no spurious interim response.
    let follow_up = format!(
        "POST /v1/estimate HTTP/1.1\r\ncontent-length: {}\r\n\r\n{}",
        body.len(),
        body
    );
    stream
        .write_all(follow_up.as_bytes())
        .expect("send follow-up");
    stream.flush().expect("flush follow-up");
    let answer = read_head(&mut stream);
    assert!(
        answer.starts_with("HTTP/1.1 200"),
        "follow-up must be answered directly, got: {answer}"
    );
    drop(stream);

    let report = server.shutdown();
    assert!(report.clean);
}

/// `GET /v1/debug/traces` serves the span timelines of recent requests:
/// last-N ordering, the `?slow_ms=` filter, trace-id adoption from the
/// `x-xmem-trace-id` header, and clean 400s for malformed queries.
#[test]
fn debug_traces_expose_request_span_timelines() {
    let (server, _service) = start_server(ServerConfig::default());
    let mut client = HttpClient::connect(server.local_addr()).expect("connect");

    // A cold estimate (profile + analyze) and a warm repeat (cache hit).
    for _ in 0..2 {
        let response = client
            .post_json("/v1/estimate", &job_json(&small_spec(4)))
            .expect("estimate");
        assert_eq!(response.status, 200);
    }
    // A client-supplied trace id must be adopted verbatim.
    let pinned_id = "00000000000000000000000000abcdef";
    let pinned = client
        .request(
            "POST",
            "/v1/estimate",
            &[
                ("content-type", "application/json"),
                ("x-xmem-trace-id", pinned_id),
            ],
            job_json(&small_spec(4)).as_bytes(),
        )
        .expect("pinned-trace estimate");
    assert_eq!(pinned.status, 200);

    let traces = client.get("/v1/debug/traces?n=10").expect("traces");
    assert_eq!(traces.status, 200);
    let value: serde::Value = serde_json::from_str(&traces.text()).expect("traces JSON");
    let list = value
        .as_object()
        .and_then(|o| serde::obj_get(o, "traces"))
        .and_then(serde::Value::as_array)
        .expect("a `traces` array");
    assert!(list.len() >= 3, "three estimates ran: {}", traces.text());

    // Every trace carries the request envelope and a span timeline; the
    // cold estimate's timeline shows the pipeline stages.
    let span_names = |trace: &serde::Value| -> Vec<String> {
        trace
            .as_object()
            .and_then(|o| serde::obj_get(o, "spans"))
            .and_then(serde::Value::as_array)
            .expect("spans array")
            .iter()
            .map(|span| {
                span.as_object()
                    .and_then(|o| serde::obj_get(o, "name"))
                    .and_then(serde::Value::as_str)
                    .expect("span name")
                    .to_string()
            })
            .collect()
    };
    let estimates: Vec<&serde::Value> = list
        .iter()
        .filter(|trace| {
            trace
                .as_object()
                .and_then(|o| serde::obj_get(o, "path"))
                .and_then(serde::Value::as_str)
                == Some("/v1/estimate")
        })
        .collect();
    assert_eq!(estimates.len(), 3, "{}", traces.text());
    // Same-millisecond traces tie-break on trace id, so identify the
    // cold and warm estimates by their span content, not position.
    let cold_names = estimates
        .iter()
        .map(|trace| span_names(trace))
        .find(|names| names.iter().any(|name| name == "stage.profile"))
        .expect("one estimate ran the full pipeline");
    assert!(cold_names.len() >= 3, "cold trace spans: {cold_names:?}");
    for needle in ["pool.queue", "service.call", "stage.analyze"] {
        assert!(
            cold_names.iter().any(|name| name == needle),
            "cold trace missing `{needle}`: {cold_names:?}"
        );
    }
    // The repeats answered from the stage cache.
    let warm_hits = estimates
        .iter()
        .filter(|trace| {
            trace
                .as_object()
                .and_then(|o| serde::obj_get(o, "spans"))
                .and_then(serde::Value::as_array)
                .expect("spans array")
                .iter()
                .any(|span| {
                    let entries = span.as_object().expect("span object");
                    serde::obj_get(entries, "name").and_then(serde::Value::as_str)
                        == Some("cache.stage")
                        && serde::obj_get(entries, "outcome").and_then(serde::Value::as_str)
                            == Some("hit")
                })
        })
        .count();
    assert_eq!(
        warm_hits,
        2,
        "both repeats must show the stage-cache hit: {}",
        traces.text()
    );
    // The pinned trace id survived ingress.
    assert!(
        list.iter().any(|trace| {
            trace
                .as_object()
                .and_then(|o| serde::obj_get(o, "trace_id"))
                .and_then(serde::Value::as_str)
                == Some(pinned_id)
        }),
        "client-supplied trace id must be adopted: {}",
        traces.text()
    );

    // Nothing here is slower than ten minutes.
    let filtered = client
        .get("/v1/debug/traces?slow_ms=600000")
        .expect("filtered traces");
    assert_eq!(filtered.status, 200);
    assert_eq!(filtered.text(), "{\"traces\":[]}");
    // `?n=` caps the answer.
    let capped = client.get("/v1/debug/traces?n=1").expect("capped traces");
    let capped_value: serde::Value = serde_json::from_str(&capped.text()).expect("capped JSON");
    let capped_list = capped_value
        .as_object()
        .and_then(|o| serde::obj_get(o, "traces"))
        .and_then(serde::Value::as_array)
        .expect("capped array");
    assert_eq!(capped_list.len(), 1);
    // Malformed queries are clean 400s.
    for bad in [
        "/v1/debug/traces?n=chunky",
        "/v1/debug/traces?slow_ms=-3",
        "/v1/debug/traces?nope=1",
    ] {
        let response = client.get(bad).expect("bad-query answer");
        assert_eq!(response.status, 400, "{bad}: {}", response.text());
    }
    // Wrong method on the route is a 405 like every other route.
    let wrong = client
        .post_json("/v1/debug/traces", "{}")
        .expect("405 answer");
    assert_eq!(wrong.status, 405);

    let report = server.shutdown();
    assert!(report.clean);
}

/// Lint-style scrape of `/metrics`: every counter ends in `_total`,
/// every metric family has exactly one TYPE (and one HELP) line, no
/// series repeats, every sample value parses, every sample belongs to a
/// declared family, and label values stay within the escaped charset.
#[test]
fn prometheus_exposition_is_lint_clean() {
    let (server, _service) = start_server(ServerConfig::default());
    let mut client = HttpClient::connect(server.local_addr()).expect("connect");
    // Exercise enough routes that the families render live samples.
    for (path, body) in [
        ("/v1/estimate", job_json(&small_spec(4))),
        (
            "/v1/sweep",
            format!("{{\"job\":{},\"batches\":[2,4]}}", job_json(&small_spec(2))),
        ),
        ("/v1/estimate", "not json".to_string()),
    ] {
        let _ = client.post_json(path, &body).expect("warm-up exchange");
    }
    let _ = client.get("/healthz").expect("health");

    let metrics = client.get("/metrics").expect("metrics");
    assert_eq!(metrics.status, 200);
    let text = metrics.text();

    use std::collections::{HashMap, HashSet};
    let mut types: HashMap<String, String> = HashMap::new();
    let mut helps: HashSet<String> = HashSet::new();
    let mut series: HashSet<String> = HashSet::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().expect("HELP names a metric");
            assert!(
                helps.insert(name.to_string()),
                "duplicate HELP for `{name}`"
            );
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("TYPE names a metric").to_string();
            let kind = parts.next().expect("TYPE has a kind").to_string();
            assert!(
                matches!(kind.as_str(), "counter" | "gauge" | "histogram"),
                "unknown TYPE `{kind}` for `{name}`"
            );
            if kind == "counter" {
                assert!(
                    name.ends_with("_total"),
                    "counter `{name}` must end in `_total`"
                );
            }
            assert!(
                types.insert(name.clone(), kind).is_none(),
                "duplicate TYPE line for `{name}`"
            );
            continue;
        }
        assert!(!line.starts_with('#'), "unknown comment shape: {line}");
        // A sample: `name value` or `name{label="v",...} value`.
        let (key, value) = line.rsplit_once(' ').expect("sample has a value");
        assert!(
            value.parse::<f64>().is_ok(),
            "unparseable sample value in `{line}`"
        );
        assert!(series.insert(key.to_string()), "duplicate series `{key}`");
        let name = key.split('{').next().expect("sample has a name");
        // Histogram samples attach to their family's base name.
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| {
                let base = name.strip_suffix(suffix)?;
                types.get(base).filter(|k| *k == "histogram").map(|_| base)
            })
            .unwrap_or(name);
        assert!(
            types.contains_key(family),
            "sample `{name}` has no TYPE line"
        );
        // Label values: quoted, with `\` only introducing a valid escape
        // and no raw quote/newline inside the value.
        if let Some(labels) = key
            .split_once('{')
            .map(|(_, rest)| rest.strip_suffix('}').expect("balanced label braces"))
        {
            let mut chars = labels.chars().peekable();
            while chars.peek().is_some() {
                let label_name: String = chars.by_ref().take_while(|&c| c != '=').collect();
                assert!(
                    !label_name.is_empty()
                        && label_name
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || c == '_'),
                    "bad label name `{label_name}` in `{key}`"
                );
                assert_eq!(chars.next(), Some('"'), "label value must be quoted: {key}");
                loop {
                    match chars.next() {
                        Some('\\') => {
                            let escaped = chars.next();
                            assert!(
                                matches!(escaped, Some('\\' | '"' | 'n')),
                                "invalid escape `\\{escaped:?}` in `{key}`"
                            );
                        }
                        Some('"') => break,
                        Some(c) => assert!(c != '\n', "raw newline in label value: {key}"),
                        None => panic!("unterminated label value in `{key}`"),
                    }
                }
                match chars.next() {
                    None => break,
                    Some(',') => {}
                    Some(c) => panic!("expected `,` between labels, got `{c}` in `{key}`"),
                }
            }
        }
    }
    // Every family that declared a TYPE also rendered at least one sample
    // under HELP coverage.
    for name in types.keys() {
        assert!(helps.contains(name), "TYPE without HELP for `{name}`");
    }
    assert!(series.len() > 50, "suspiciously small exposition");

    let report = server.shutdown();
    assert!(report.clean);
}

/// A body nested deeper than the JSON parser's recursion limit is a
/// clean `400`, not a stack overflow that aborts the server: a 1 MiB
/// bracket bomb (the largest body the wire accepts) is refused, and the
/// next request on a new connection is answered.
#[test]
fn deeply_nested_json_is_a_400_not_a_crash() {
    let (server, _service) = start_server(ServerConfig::default().with_workers(2));
    let addr = server.local_addr();
    let bomb = "[".repeat(WireLimits::default().max_body_bytes);
    {
        let mut client = HttpClient::connect(addr).expect("connect");
        let response = client.post_json("/v1/estimate", &bomb).expect("400 answer");
        assert_eq!(response.status, 400, "{}", response.text());
        assert!(response.text().contains("recursion limit exceeded"));
    }
    let mut client = HttpClient::connect(addr).expect("connect");
    let response = client
        .post_json("/v1/estimate", &job_json(&small_spec(4)))
        .expect("estimate after the bomb");
    assert_eq!(response.status, 200);
    let report = server.shutdown();
    assert!(report.clean);
}

/// A job asking for more profiled iterations than the cap is the usual
/// `400` grammar error, with the cap in its message; the cap itself is
/// served.
#[test]
fn iterations_past_the_cap_are_a_400_and_the_cap_is_served() {
    use xmem::service::jobspec::MAX_ITERATIONS;
    let (server, _service) = start_server(ServerConfig::default().with_workers(2));
    let mut client = HttpClient::connect(server.local_addr()).expect("connect");
    let over = r#"{"model":"MobeNetV3Small","optimizer":"Adam","batch":2,"iterations":4294967295}"#;
    let response = client.post_json("/v1/estimate", over).expect("400 answer");
    assert_eq!(response.status, 400, "{}", response.text());
    assert!(
        response
            .text()
            .contains(&format!("`iterations` must be <= {MAX_ITERATIONS}")),
        "{}",
        response.text()
    );
    let at_cap = job_json(&small_spec(2).with_iterations(MAX_ITERATIONS));
    let response = client.post_json("/v1/estimate", &at_cap).expect("estimate");
    assert_eq!(response.status, 200, "{}", response.text());
    let report = server.shutdown();
    assert!(report.clean);
}

/// The stage tier's byte gauge prices what the tier holds: after one
/// cold estimate it reads the retained analysis's size.
#[test]
fn stage_bytes_gauge_reads_the_retained_analysis_without_a_budget() {
    let (server, service) = start_server(ServerConfig::default());
    let mut client = HttpClient::connect(server.local_addr()).expect("connect");
    let spec = small_spec(4);
    let estimate = client
        .post_json("/v1/estimate", &job_json(&spec))
        .expect("estimate");
    assert_eq!(estimate.status, 200);
    let text = client.get("/metrics").expect("metrics").text().to_string();
    let gauge = |name: &str| -> u64 {
        text.lines()
            .find_map(|line| line.strip_prefix(&format!("{name}{{cache=\"stage\"}} ")))
            .and_then(|value| value.parse().ok())
            .unwrap_or_else(|| panic!("{name} is exported for the stage tier"))
    };
    let analyzed = xmem::core::Analyzer::new()
        .analyze(&profile_on_cpu(&spec))
        .expect("job analyzes");
    assert!(gauge("xmem_cache_bytes_in_use") > 0);
    assert_eq!(gauge("xmem_cache_bytes_in_use"), analyzed.approx_bytes());
    assert_eq!(
        service.service().stage_tier_stats().bytes_in_use,
        analyzed.approx_bytes()
    );
}

/// The default-device route is a sim cell: a repeated `POST
/// /v1/estimate` records a `cache.sim` `hit` in its trace and moves the
/// sim-cache hit counter on `/metrics` by exactly one.
#[test]
fn repeated_default_estimates_hit_the_sim_cell() {
    let (server, _service) = start_server(ServerConfig::default());
    let mut client = HttpClient::connect(server.local_addr()).expect("connect");
    let sim_hits = |client: &mut HttpClient| -> u64 {
        let metrics = client.get("/metrics").expect("metrics").text().to_string();
        metrics
            .lines()
            .find_map(|line| line.strip_prefix("xmem_sim_cache_events_total{event=\"hit\"} "))
            .and_then(|value| value.parse().ok())
            .expect("the sim-cache hit counter is exported")
    };
    let body = job_json(&small_spec(4));
    let first = client.post_json("/v1/estimate", &body).expect("estimate");
    assert_eq!(first.status, 200);
    let hits_before = sim_hits(&mut client);
    let warm_id = "0000000000000000000000000000beef";
    let second = client
        .request(
            "POST",
            "/v1/estimate",
            &[
                ("content-type", "application/json"),
                ("x-xmem-trace-id", warm_id),
            ],
            body.as_bytes(),
        )
        .expect("warm estimate");
    assert_eq!(second.status, 200);
    assert_eq!(second.text(), first.text());
    assert_eq!(sim_hits(&mut client), hits_before + 1);

    let traces = client.get("/v1/debug/traces?n=20").expect("traces");
    let value: serde::Value = serde_json::from_str(&traces.text()).expect("traces JSON");
    let warm = value
        .as_object()
        .and_then(|o| serde::obj_get(o, "traces"))
        .and_then(serde::Value::as_array)
        .expect("a `traces` array")
        .iter()
        .find(|trace| {
            trace
                .as_object()
                .and_then(|o| serde::obj_get(o, "trace_id"))
                .and_then(serde::Value::as_str)
                == Some(warm_id)
        })
        .expect("the warm estimate's trace is recorded");
    let sim_hit = warm
        .as_object()
        .and_then(|o| serde::obj_get(o, "spans"))
        .and_then(serde::Value::as_array)
        .expect("spans array")
        .iter()
        .any(|span| {
            let entries = span.as_object().expect("span object");
            serde::obj_get(entries, "name").and_then(serde::Value::as_str) == Some("cache.sim")
                && serde::obj_get(entries, "outcome").and_then(serde::Value::as_str) == Some("hit")
        });
    assert!(
        sim_hit,
        "warm trace lacks a cache.sim hit: {}",
        traces.text()
    );
    let report = server.shutdown();
    assert!(report.clean);
}
