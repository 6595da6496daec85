//! `load` — loopback load generator for the HTTP serving front end.
//!
//! Drives a server (an in-process one on an ephemeral port by default, or
//! an external one via `--addr`) with N concurrent keep-alive connections
//! cycling a scheduler-shaped request mix (estimates, a named-device
//! estimate, a placement query, a health probe) and emits a
//! machine-readable `BENCH_server.json` with throughput, latency
//! percentiles, and error counts — so every PR has a measurable
//! trajectory for the network layer, not just the estimator under it.
//!
//! Usage: `load [--addr HOST:PORT] [--connections N] [--requests N]
//! [--quick] [--out PATH] [--shutdown]`
//!
//! * `--addr`        — target an already-running server (e.g. `xmem-cli
//!   listen`); the default spawns an in-process server;
//! * `--connections` — concurrent keep-alive connections (default 32,
//!   quick 8);
//! * `--requests`    — requests per connection (default 200, quick 32);
//! * `--quick`       — CI-sized run;
//! * `--shutdown`    — `POST /v1/shutdown` when done (drains an external
//!   server; the in-process server is always drained);
//! * `--out`         — output path (default `BENCH_server.json`;
//!   `BENCH_cluster.json` in cluster mode).
//!
//! Cluster mode (`--cluster`) drives a consistent-hash ring instead of a
//! single server. By default it boots a 3-node in-process ring, proves
//! the exactly-once economy with cold keys (every distinct `JobKey` sent
//! to *every* node must incur exactly one `profile_runs` increment
//! cluster-wide — asserted in-harness from the ring's own counters),
//! measures a single-node baseline and the ring under the same mix
//! through ring-aware [`ClusterClient`]s, and emits `BENCH_cluster.json`
//! with the scaling ratio. With `--peers a,b,c --auth-token t` it drives
//! an external ring instead (the CI cluster-smoke job, which kills a
//! node mid-load and gates on `failovers >= 1` and zero real 5xx).
//!
//! Backpressure `503`s are counted separately from real server errors:
//! `server_errors_5xx` excludes them, so a zero-5xx CI gate composes with
//! deliberate overload probes.

use serde::Serialize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;
use xmem_runtime::GpuDevice;
use xmem_server::{
    ClusterClient, ClusterConfig, HttpClient, ServerConfig, ServerHandle, AUTH_HEADER,
};
use xmem_service::AsyncEstimationService;

/// The request mix one connection cycles through, spelled as
/// `(method, path, body)` — a scheduler's steady-state traffic shape:
/// mostly admission estimates (cache-hot), some placement, a health
/// probe.
const MIX: [(&str, &str, &str); 5] = [
    (
        "POST",
        "/v1/estimate",
        r#"{"model":"MobeNetV3Small","optimizer":"Adam","batch":8,"iterations":2}"#,
    ),
    (
        "POST",
        "/v1/estimate",
        r#"{"job":{"model":"distilgpt2","optimizer":"AdamW","batch":4,"iterations":2},"device":"rtx4060"}"#,
    ),
    (
        "POST",
        "/v1/estimate",
        r#"{"model":"MobeNetV3Small","optimizer":"Adam","batch":16,"iterations":2}"#,
    ),
    (
        "POST",
        "/v1/best-device",
        r#"{"model":"MobeNetV3Small","optimizer":"Adam","batch":8,"iterations":2}"#,
    ),
    ("GET", "/healthz", ""),
];

#[derive(Debug, Serialize)]
struct Latency {
    p50_ns: u64,
    p90_ns: u64,
    p99_ns: u64,
    max_ns: u64,
    mean_ns: u64,
}

#[derive(Debug, Default, Serialize)]
struct StatusCounts {
    ok_2xx: u64,
    client_errors_4xx: u64,
    /// Deliberate backpressure (`503` + `retry-after`) — not a server
    /// failure.
    backpressure_503: u64,
    /// Real server-side failures: every 5xx except `503`.
    server_errors_5xx: u64,
    /// Socket-level failures (connect/read/write); each is followed by a
    /// reconnect.
    transport_errors: u64,
}

#[derive(Debug, Serialize)]
struct Report {
    schema: &'static str,
    quick: bool,
    generated_unix: u64,
    target: String,
    connections: usize,
    requests_per_connection: usize,
    total_requests: u64,
    wall_ns: u64,
    requests_per_sec: f64,
    latency: Latency,
    status: StatusCounts,
    /// Whether the drained server reported a clean drain (in-process
    /// target only).
    drain_clean: Option<bool>,
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
    #[allow(clippy::cast_sign_loss)]
    let index = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[index.min(sorted.len() - 1)]
}

/// Consecutive socket-level failures before a connection declares the
/// target dead and aborts the whole run (via the shared stop flag).
const MAX_CONSECUTIVE_TRANSPORT_ERRORS: u64 = 5;

/// One connection's worth of load; returns (latencies ns, status counts).
///
/// `stop` aborts every connection early once any of them proves the run
/// is pointless: a real server error (the run fails its zero-5xx assert
/// anyway) or a dead target (consecutive transport failures).
fn run_connection(
    addr: &str,
    requests: usize,
    offset: usize,
    stop: &AtomicBool,
) -> (Vec<u64>, StatusCounts) {
    let mut latencies = Vec::with_capacity(requests);
    let mut status = StatusCounts::default();
    let mut client = None;
    let mut consecutive_transport = 0;
    for i in 0..requests {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let (method, path, body) = MIX[(offset + i) % MIX.len()];
        if client.is_none() {
            match HttpClient::connect(addr) {
                Ok(c) => client = Some(c),
                Err(_) => {
                    status.transport_errors += 1;
                    consecutive_transport += 1;
                    if consecutive_transport >= MAX_CONSECUTIVE_TRANSPORT_ERRORS {
                        stop.store(true, Ordering::Relaxed);
                    }
                    continue;
                }
            }
        }
        let connection = client.as_mut().expect("connected above");
        let started = Instant::now();
        let outcome = if method == "GET" {
            connection.get(path)
        } else {
            connection.post_json(path, body)
        };
        match outcome {
            Ok(response) => {
                latencies.push(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
                consecutive_transport = 0;
                match response.status {
                    200..=299 => status.ok_2xx += 1,
                    503 => status.backpressure_503 += 1,
                    400..=499 => status.client_errors_4xx += 1,
                    500..=599 => {
                        status.server_errors_5xx += 1;
                        stop.store(true, Ordering::Relaxed);
                    }
                    _ => {}
                }
            }
            Err(_) => {
                status.transport_errors += 1;
                consecutive_transport += 1;
                if consecutive_transport >= MAX_CONSECUTIVE_TRANSPORT_ERRORS {
                    stop.store(true, Ordering::Relaxed);
                }
                client = None; // reconnect on the next request
            }
        }
    }
    (latencies, status)
}

/// One ring-aware connection's worth of load; returns
/// (latencies ns, status counts, failovers). Mirrors [`run_connection`]
/// but routes through a [`ClusterClient`], so a dead owner fails over to
/// the next ring node instead of surfacing a transport error.
fn run_cluster_connection(
    nodes: &[String],
    token: &str,
    requests: usize,
    offset: usize,
    stop: &AtomicBool,
) -> (Vec<u64>, StatusCounts, u64) {
    let mut client = ClusterClient::new(nodes, Some(token));
    let mut latencies = Vec::with_capacity(requests);
    let mut status = StatusCounts::default();
    let mut consecutive_transport = 0;
    for i in 0..requests {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let (method, path, body) = MIX[(offset + i) % MIX.len()];
        let started = Instant::now();
        let outcome = if method == "GET" {
            client.get(path)
        } else {
            client.post_json(path, body)
        };
        match outcome {
            Ok(response) => {
                latencies.push(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
                consecutive_transport = 0;
                match response.status {
                    200..=299 => status.ok_2xx += 1,
                    503 => status.backpressure_503 += 1,
                    400..=499 => status.client_errors_4xx += 1,
                    500..=599 => {
                        status.server_errors_5xx += 1;
                        stop.store(true, Ordering::Relaxed);
                    }
                    _ => {}
                }
            }
            Err(_) => {
                // Every ring node failed for this request (the client
                // already exhausted its failover order).
                status.transport_errors += 1;
                consecutive_transport += 1;
                if consecutive_transport >= MAX_CONSECUTIVE_TRANSPORT_ERRORS {
                    stop.store(true, Ordering::Relaxed);
                }
            }
        }
    }
    (latencies, status, client.failovers())
}

/// What a measured phase drives: one plain server, or a ring through
/// [`ClusterClient`]s.
enum LoadTarget<'a> {
    Single(&'a str),
    Ring(&'a [String], &'a str),
}

/// Throughput/latency/status for one measured phase of a cluster run.
#[derive(Debug, Serialize)]
struct PhaseReport {
    total_requests: u64,
    wall_ns: u64,
    requests_per_sec: f64,
    latency: Latency,
    status: StatusCounts,
}

/// The in-harness exactly-once proof: `distinct_keys` cold keys were
/// each sent to every ring node, and the ring's own `profile_runs`
/// counters summed to exactly `distinct_keys`.
#[derive(Debug, Serialize)]
struct ExactlyOnce {
    distinct_keys: u64,
    cluster_profile_runs: u64,
    exactly_once: bool,
}

#[derive(Debug, Serialize)]
struct ClusterReport {
    schema: &'static str,
    quick: bool,
    generated_unix: u64,
    nodes: Vec<String>,
    connections: usize,
    requests_per_connection: usize,
    /// `None` against an external ring (no access to its counters).
    one_profile_per_key: Option<ExactlyOnce>,
    /// Same mix against one plain node — the scaling denominator
    /// (in-process mode only).
    baseline_single_node: Option<PhaseReport>,
    cluster: PhaseReport,
    /// Requests that fell over to another ring node after their first
    /// choice failed (summed over every client).
    failovers: u64,
    /// `cluster.requests_per_sec / baseline.requests_per_sec`.
    scaling_rps_ratio: Option<f64>,
    /// Whether every in-process node drained cleanly.
    drain_clean: Option<bool>,
}

fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Fold per-connection results into a [`PhaseReport`].
fn summarize(results: Vec<(Vec<u64>, StatusCounts)>, wall_ns: u64) -> PhaseReport {
    let mut latencies: Vec<u64> = Vec::new();
    let mut status = StatusCounts::default();
    for (connection_latencies, connection_status) in results {
        latencies.extend(connection_latencies);
        status.ok_2xx += connection_status.ok_2xx;
        status.client_errors_4xx += connection_status.client_errors_4xx;
        status.backpressure_503 += connection_status.backpressure_503;
        status.server_errors_5xx += connection_status.server_errors_5xx;
        status.transport_errors += connection_status.transport_errors;
    }
    latencies.sort_unstable();
    let total_requests = latencies.len() as u64;
    #[allow(clippy::cast_precision_loss)]
    let requests_per_sec = if wall_ns == 0 {
        0.0
    } else {
        total_requests as f64 / (wall_ns as f64 / 1e9)
    };
    let mean_ns = if latencies.is_empty() {
        0
    } else {
        latencies.iter().sum::<u64>() / latencies.len() as u64
    };
    PhaseReport {
        total_requests,
        wall_ns,
        requests_per_sec,
        latency: Latency {
            p50_ns: percentile(&latencies, 0.50),
            p90_ns: percentile(&latencies, 0.90),
            p99_ns: percentile(&latencies, 0.99),
            max_ns: latencies.last().copied().unwrap_or(0),
            mean_ns,
        },
        status,
    }
}

/// Barrier-synced measured phase against `target`; returns the phase
/// report and the summed failover count (0 for a plain target).
fn measure(target: &LoadTarget, connections: usize, requests: usize) -> (PhaseReport, u64) {
    let barrier = Arc::new(Barrier::new(connections));
    let stop = AtomicBool::new(false);
    let started = Instant::now();
    let results: Vec<(Vec<u64>, StatusCounts, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let barrier = Arc::clone(&barrier);
                let stop = &stop;
                scope.spawn(move || {
                    barrier.wait();
                    match target {
                        LoadTarget::Single(addr) => {
                            let (latencies, status) = run_connection(addr, requests, c, stop);
                            (latencies, status, 0)
                        }
                        LoadTarget::Ring(nodes, token) => {
                            run_cluster_connection(nodes, token, requests, c, stop)
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let wall_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let failovers: u64 = results.iter().map(|(_, _, f)| f).sum();
    let results = results
        .into_iter()
        .map(|(latencies, status, _)| (latencies, status))
        .collect();
    (summarize(results, wall_ns), failovers)
}

/// Shared `x-xmem-auth` secret for the in-process bench ring.
const BENCH_TOKEN: &str = "bench-secret";

/// The `--cluster` entry point. `external` carries `(nodes, token)` when
/// `--peers`/`--auth-token` target a running ring; otherwise a 3-node
/// in-process ring is booted and additionally proves the exactly-once
/// profiling economy and a single-node scaling baseline.
fn run_cluster(
    quick: bool,
    out: &str,
    external: Option<(Vec<String>, String)>,
    connections: usize,
    requests: usize,
    shutdown: bool,
) {
    let mut ring: Vec<(ServerHandle, Arc<AsyncEstimationService>)> = Vec::new();
    let (nodes, token) = match external {
        Some((nodes, token)) => (nodes, token),
        None => {
            for _ in 0..3 {
                let service = Arc::new(AsyncEstimationService::for_device(GpuDevice::rtx3060()));
                let server = ServerHandle::bind(
                    "127.0.0.1:0",
                    Arc::clone(&service),
                    ServerConfig::default().with_workers(connections + 4),
                )
                .expect("bind ring node");
                ring.push((server, service));
            }
            let addrs: Vec<String> = ring
                .iter()
                .map(|(server, _)| server.local_addr().to_string())
                .collect();
            for (server, _) in &mut ring {
                let config = ClusterConfig {
                    self_addr: server.local_addr().to_string(),
                    peers: addrs.clone(),
                    auth_token: BENCH_TOKEN.to_string(),
                };
                server.install_cluster(&config).expect("install ring");
            }
            (addrs, BENCH_TOKEN.to_string())
        }
    };
    println!(
        "load --cluster: {} nodes [{}], {connections} connections x {requests} requests ({} mode)",
        nodes.len(),
        nodes.join(", "),
        if quick { "quick" } else { "full" }
    );

    // Exactly-once proof (in-process only): every cold key is shown to
    // every node; ownership must collapse that to one profile run per
    // key cluster-wide, counted from the services themselves.
    let one_profile_per_key = if ring.is_empty() {
        None
    } else {
        let distinct_keys: u64 = if quick { 8 } else { 24 };
        let mut clients: Vec<HttpClient> = nodes
            .iter()
            .map(|node| HttpClient::connect(node.as_str()).expect("connect for exactly-once"))
            .collect();
        for key in 0..distinct_keys {
            let body = format!(
                r#"{{"model":"MobeNetV3Small","optimizer":"Adam","batch":{},"iterations":2}}"#,
                32 + key
            );
            for client in &mut clients {
                let response = client
                    .request(
                        "POST",
                        "/v1/estimate",
                        &[("content-type", "application/json"), (AUTH_HEADER, &token)],
                        body.as_bytes(),
                    )
                    .expect("cold estimate");
                assert_eq!(
                    response.status,
                    200,
                    "cold estimate answered {}: {}",
                    response.status,
                    response.text()
                );
            }
        }
        let cluster_profile_runs: u64 = ring
            .iter()
            .map(|(_, service)| service.service().profile_runs())
            .sum();
        assert_eq!(
            cluster_profile_runs, distinct_keys,
            "one-analysis-per-key violated: {cluster_profile_runs} profile runs \
             for {distinct_keys} distinct keys"
        );
        println!(
            "exactly-once: {distinct_keys} distinct keys x {} sightings each -> \
             {cluster_profile_runs} profile runs cluster-wide",
            nodes.len()
        );
        Some(ExactlyOnce {
            distinct_keys,
            cluster_profile_runs,
            exactly_once: true,
        })
    };

    // Single-node scaling baseline (in-process only): the same mix
    // against one plain (non-clustered) server.
    let mut drain_all_clean: Option<bool> = None;
    let baseline_single_node = if ring.is_empty() {
        None
    } else {
        let service = Arc::new(AsyncEstimationService::for_device(GpuDevice::rtx3060()));
        let server = ServerHandle::bind(
            "127.0.0.1:0",
            service,
            ServerConfig::default().with_workers(connections + 4),
        )
        .expect("bind baseline server");
        let addr = server.local_addr().to_string();
        let mut client = HttpClient::connect(addr.as_str()).expect("connect for baseline prewarm");
        for (method, path, body) in MIX {
            let response = if method == "GET" {
                client.get(path)
            } else {
                client.post_json(path, body)
            };
            assert!(response.expect("baseline prewarm").status < 500);
        }
        drop(client);
        let (report, _) = measure(&LoadTarget::Single(&addr), connections, requests);
        drain_all_clean = Some(server.shutdown().clean);
        Some(report)
    };

    // Prewarm the ring through an owner-routing client so the measured
    // phase hits warm owners, then measure.
    {
        let mut client = ClusterClient::new(&nodes, Some(&token));
        for (method, path, body) in MIX {
            let response = if method == "GET" {
                client.get(path)
            } else {
                client.post_json(path, body)
            };
            let response = response.expect("cluster prewarm request");
            assert!(
                response.status < 500,
                "cluster prewarm hit a server error: {} on {path}",
                response.status
            );
        }
    }
    let (cluster_report, failovers) =
        measure(&LoadTarget::Ring(&nodes, &token), connections, requests);

    if shutdown {
        for node in &nodes {
            if let Ok(mut client) = HttpClient::connect(node.as_str()) {
                let _ = client.request(
                    "POST",
                    "/v1/shutdown",
                    &[("content-type", "application/json"), (AUTH_HEADER, &token)],
                    b"{}",
                );
            }
        }
    }
    for (server, _) in ring {
        let clean = server.shutdown().clean;
        drain_all_clean = Some(drain_all_clean.unwrap_or(true) && clean);
    }

    let scaling_rps_ratio = baseline_single_node.as_ref().and_then(|baseline| {
        (baseline.requests_per_sec > 0.0)
            .then(|| cluster_report.requests_per_sec / baseline.requests_per_sec)
    });
    let report = ClusterReport {
        schema: "xmem-bench-cluster/v1",
        quick,
        generated_unix: unix_now(),
        nodes,
        connections,
        requests_per_connection: requests,
        one_profile_per_key,
        baseline_single_node,
        cluster: cluster_report,
        failovers,
        scaling_rps_ratio,
        drain_clean: drain_all_clean,
    };
    let json = serde_json::to_string(&report).expect("report serializes");
    std::fs::write(out, &json).expect("write report");
    println!(
        "cluster: {} requests in {:.2}s: {:.0} req/s, p50 {:.2}ms, p99 {:.2}ms | \
         2xx {} | 4xx {} | 503 {} | 5xx {} | transport {} | failovers {}",
        report.cluster.total_requests,
        report.cluster.wall_ns as f64 / 1e9,
        report.cluster.requests_per_sec,
        report.cluster.latency.p50_ns as f64 / 1e6,
        report.cluster.latency.p99_ns as f64 / 1e6,
        report.cluster.status.ok_2xx,
        report.cluster.status.client_errors_4xx,
        report.cluster.status.backpressure_503,
        report.cluster.status.server_errors_5xx,
        report.cluster.status.transport_errors,
        report.failovers,
    );
    if let Some(ratio) = report.scaling_rps_ratio {
        println!("scaling: {ratio:.2}x over the single-node baseline");
    }
    println!("wrote {out}");
    assert!(
        report.cluster.status.server_errors_5xx == 0,
        "cluster load run hit real server errors"
    );
    if let Some(baseline) = &report.baseline_single_node {
        assert!(
            baseline.status.server_errors_5xx == 0,
            "baseline load run hit real server errors"
        );
    }
}

fn main() {
    let mut quick = false;
    let mut out: Option<String> = None;
    let mut addr: Option<String> = None;
    let mut connections: Option<usize> = None;
    let mut requests: Option<usize> = None;
    let mut shutdown = false;
    let mut cluster = false;
    let mut peers: Option<String> = None;
    let mut auth_token: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--shutdown" => shutdown = true,
            "--cluster" => cluster = true,
            "--out" => out = Some(args.next().expect("missing value for --out")),
            "--addr" => addr = Some(args.next().expect("missing value for --addr")),
            "--peers" => peers = Some(args.next().expect("missing value for --peers")),
            "--auth-token" => {
                auth_token = Some(args.next().expect("missing value for --auth-token"));
            }
            "--connections" => {
                connections = Some(
                    args.next()
                        .expect("missing value for --connections")
                        .parse()
                        .expect("--connections must be a number"),
                );
            }
            "--requests" => {
                requests = Some(
                    args.next()
                        .expect("missing value for --requests")
                        .parse()
                        .expect("--requests must be a number"),
                );
            }
            other => panic!(
                "unknown flag `{other}` (load [--addr HOST:PORT] [--connections N] \
                 [--requests N] [--quick] [--out PATH] [--shutdown] \
                 [--cluster [--peers A,B,C --auth-token SECRET]])"
            ),
        }
    }
    let connections = connections.unwrap_or(if quick { 8 } else { 32 });
    let requests = requests.unwrap_or(if quick { 32 } else { 200 });

    if cluster || peers.is_some() {
        assert!(
            addr.is_none(),
            "--cluster routes by ring membership; use --peers, not --addr"
        );
        let external = peers.map(|list| {
            let token = auth_token.expect("--peers requires --auth-token");
            let nodes: Vec<String> = list
                .split(',')
                .map(|p| p.trim().to_string())
                .filter(|p| !p.is_empty())
                .collect();
            assert!(nodes.len() >= 2, "--peers needs at least two nodes");
            (nodes, token)
        });
        let out = out.unwrap_or_else(|| String::from("BENCH_cluster.json"));
        run_cluster(quick, &out, external, connections, requests, shutdown);
        return;
    }
    let out = out.unwrap_or_else(|| String::from("BENCH_server.json"));

    // Target: an external server, or an in-process one on an ephemeral
    // port (same code path as `xmem-cli listen`).
    let in_process = if addr.is_none() {
        let service = Arc::new(AsyncEstimationService::for_device(GpuDevice::rtx3060()));
        let server = ServerHandle::bind(
            "127.0.0.1:0",
            service,
            ServerConfig::default().with_workers(connections + 4),
        )
        .expect("bind loopback server");
        addr = Some(server.local_addr().to_string());
        Some(server)
    } else {
        None
    };
    let addr = addr.expect("target address");
    println!(
        "load: {connections} connections x {requests} requests against {addr} ({} mode)",
        if quick { "quick" } else { "full" }
    );

    // Prewarm: run the whole mix once so the timed run measures the
    // serving hot path (cache hits), not one-time profile runs.
    {
        let mut client = HttpClient::connect(addr.as_str()).expect("connect for prewarm");
        for (method, path, body) in MIX {
            let response = if method == "GET" {
                client.get(path)
            } else {
                client.post_json(path, body)
            };
            let response = response.expect("prewarm request");
            assert!(
                response.status < 500,
                "prewarm hit a server error: {} on {path}",
                response.status
            );
        }
    }

    let barrier = Arc::new(Barrier::new(connections));
    let stop = AtomicBool::new(false);
    let started = Instant::now();
    let results: Vec<(Vec<u64>, StatusCounts)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let barrier = Arc::clone(&barrier);
                let addr = addr.as_str();
                let stop = &stop;
                scope.spawn(move || {
                    barrier.wait();
                    run_connection(addr, requests, c, stop)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let wall_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);

    let mut latencies: Vec<u64> = Vec::new();
    let mut status = StatusCounts::default();
    for (connection_latencies, connection_status) in results {
        latencies.extend(connection_latencies);
        status.ok_2xx += connection_status.ok_2xx;
        status.client_errors_4xx += connection_status.client_errors_4xx;
        status.backpressure_503 += connection_status.backpressure_503;
        status.server_errors_5xx += connection_status.server_errors_5xx;
        status.transport_errors += connection_status.transport_errors;
    }
    latencies.sort_unstable();
    let total_requests = latencies.len() as u64;
    #[allow(clippy::cast_precision_loss)]
    let requests_per_sec = if wall_ns == 0 {
        0.0
    } else {
        total_requests as f64 / (wall_ns as f64 / 1e9)
    };
    let mean_ns = if latencies.is_empty() {
        0
    } else {
        latencies.iter().sum::<u64>() / latencies.len() as u64
    };

    if shutdown {
        let mut client = HttpClient::connect(addr.as_str()).expect("connect for shutdown");
        let response = client.post_json("/v1/shutdown", "{}").expect("shutdown");
        assert_eq!(
            response.status, 200,
            "shutdown answered {}",
            response.status
        );
    }
    let drain_clean = in_process.map(|server| server.shutdown().clean);

    let report = Report {
        schema: "xmem-bench-server/v1",
        quick,
        generated_unix: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        target: addr,
        connections,
        requests_per_connection: requests,
        total_requests,
        wall_ns,
        requests_per_sec,
        latency: Latency {
            p50_ns: percentile(&latencies, 0.50),
            p90_ns: percentile(&latencies, 0.90),
            p99_ns: percentile(&latencies, 0.99),
            max_ns: latencies.last().copied().unwrap_or(0),
            mean_ns,
        },
        status,
        drain_clean,
    };
    let json = serde_json::to_string(&report).expect("report serializes");
    std::fs::write(&out, &json).expect("write report");
    println!(
        "{} requests in {:.2}s: {:.0} req/s, p50 {:.2}ms, p99 {:.2}ms | \
         2xx {} | 4xx {} | 503 {} | 5xx {} | transport {}",
        report.total_requests,
        report.wall_ns as f64 / 1e9,
        report.requests_per_sec,
        report.latency.p50_ns as f64 / 1e6,
        report.latency.p99_ns as f64 / 1e6,
        report.status.ok_2xx,
        report.status.client_errors_4xx,
        report.status.backpressure_503,
        report.status.server_errors_5xx,
        report.status.transport_errors,
    );
    println!("wrote {out}");
    assert!(
        report.status.server_errors_5xx == 0,
        "load run hit real server errors"
    );
}
