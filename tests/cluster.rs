//! End-to-end tests of the cluster tier over real loopback sockets: an
//! in-process ring of `xmem-server` instances with consistent-hash
//! routing must compute each profile/analysis exactly once cluster-wide,
//! answer byte-identically from any node (including while a node is
//! down, via [`ClusterClient`] failover and local fallback), honour the
//! `x-xmem-forwarded` hop guard, and enforce the shared-secret
//! `x-xmem-auth` ingress check.

use std::sync::Arc;
use xmem::prelude::*;
use xmem::server::{
    api, ClusterClient, ClusterConfig, HttpClient, ServerConfig, ServerHandle, AUTH_HEADER,
    FORWARDED_HEADER,
};
use xmem::service::jobspec::job_to_value;
use xmem::service::{hash_job, HashRing, JobKey};

const TOKEN: &str = "ring-secret";

fn small_spec(batch: usize) -> TrainJobSpec {
    TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, batch).with_iterations(2)
}

fn job_json(spec: &TrainJobSpec) -> String {
    serde_json::to_string(&job_to_value(spec)).expect("job renders")
}

struct ClusterNode {
    server: ServerHandle,
    service: Arc<AsyncEstimationService>,
    addr: String,
}

/// Binds `n` servers on ephemeral loopback ports, then installs the same
/// ring (every address, shared secret) on each of them.
fn start_ring(n: usize) -> Vec<ClusterNode> {
    let mut bound = Vec::with_capacity(n);
    for _ in 0..n {
        let service = Arc::new(AsyncEstimationService::for_device(GpuDevice::rtx3060()));
        let server =
            ServerHandle::bind("127.0.0.1:0", Arc::clone(&service), ServerConfig::default())
                .expect("bind loopback");
        bound.push((server, service));
    }
    let addrs: Vec<String> = bound
        .iter()
        .map(|(s, _)| s.local_addr().to_string())
        .collect();
    bound
        .into_iter()
        .zip(addrs.iter())
        .map(|((mut server, service), addr)| {
            server
                .install_cluster(&ClusterConfig {
                    self_addr: addr.clone(),
                    peers: addrs.clone(),
                    auth_token: TOKEN.to_string(),
                })
                .expect("install cluster");
            ClusterNode {
                server,
                service,
                addr: addr.clone(),
            }
        })
        .collect()
}

/// One authenticated POST on a keep-alive client.
fn authed_post(client: &mut HttpClient, path: &str, body: &str) -> xmem::server::ClientResponse {
    client
        .request(
            "POST",
            path,
            &[("content-type", "application/json"), (AUTH_HEADER, TOKEN)],
            body.as_bytes(),
        )
        .expect("authenticated exchange")
}

/// The value of an unlabelled Prometheus counter in `metrics`.
fn counter_value(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|line| line.strip_prefix(&format!("{name} "))?.trim().parse().ok())
        .unwrap_or(0)
}

/// A batch size whose estimate key is ring-owned by `owner`.
fn batch_owned_by(ring: &HashRing, owner: usize) -> usize {
    (2..200)
        .find(|&batch| ring.owner_index(hash_job(&JobKey::of(&small_spec(batch)))) == Some(owner))
        .expect("some batch lands on every ring node")
}

/// The tentpole economy: K distinct job keys sent to *every* node of a
/// 3-node ring are each profiled exactly once cluster-wide (non-owners
/// forward), every answer is byte-identical to the direct service call,
/// and a second pass is answered entirely locally — the forwarded
/// response filled each non-owner's sim cell.
#[test]
fn each_distinct_key_is_analyzed_exactly_once_cluster_wide() {
    let untraced = TraceContext::disabled();
    let nodes = start_ring(3);
    let direct = EstimationService::for_device(GpuDevice::rtx3060());
    let batches = [2usize, 3, 5, 6, 7, 9];

    let mut clients: Vec<HttpClient> = nodes
        .iter()
        .map(|node| HttpClient::connect(node.addr.as_str()).expect("connect"))
        .collect();
    let run_pass = |clients: &mut Vec<HttpClient>| {
        for &batch in &batches {
            let spec = small_spec(batch);
            let body = job_json(&spec);
            let want = api::estimate_body(
                &direct
                    .estimate_traced(&spec, None, &untraced)
                    .expect("direct estimate"),
            );
            for client in clients.iter_mut() {
                let response = authed_post(client, "/v1/estimate", &body);
                assert_eq!(response.status, 200, "{}", response.text());
                assert_eq!(
                    response.text(),
                    want.as_str(),
                    "batch {batch} diverged from the direct path"
                );
            }
        }
    };

    run_pass(&mut clients);
    let profiles_after_first: u64 = nodes
        .iter()
        .map(|n| n.service.service().profile_runs())
        .sum();
    assert_eq!(
        profiles_after_first,
        batches.len() as u64,
        "each distinct JobKey must be profiled exactly once across the ring"
    );
    let forwards_after_first: u64 = nodes
        .iter()
        .map(|n| {
            let state = n.server.cluster().expect("cluster installed");
            counter_value(&state.render_prometheus(), "xmem_cluster_forwards_total")
        })
        .sum();
    // Every key has exactly one owner and two non-owners, and each
    // non-owner forwarded its first sighting.
    assert_eq!(forwards_after_first, (batches.len() * 2) as u64);

    // Second pass: owners answer from their caches, non-owners from the
    // sim cells the forwarded responses filled — no new profile, no new
    // forward, still byte-identical.
    run_pass(&mut clients);
    let profiles_after_second: u64 = nodes
        .iter()
        .map(|n| n.service.service().profile_runs())
        .sum();
    assert_eq!(profiles_after_second, profiles_after_first);
    let forwards_after_second: u64 = nodes
        .iter()
        .map(|n| {
            let state = n.server.cluster().expect("cluster installed");
            counter_value(&state.render_prometheus(), "xmem_cluster_forwards_total")
        })
        .sum();
    assert_eq!(
        forwards_after_second, forwards_after_first,
        "warm keys must be served locally"
    );
    let fills: u64 = nodes
        .iter()
        .map(|n| {
            let state = n.server.cluster().expect("cluster installed");
            counter_value(&state.render_prometheus(), "xmem_cluster_cell_fills_total")
        })
        .sum();
    assert_eq!(
        fills,
        (batches.len() * 2) as u64,
        "every forward fills a local cell"
    );

    for node in nodes {
        assert!(node.server.shutdown().clean);
    }
}

/// The acceptance mix: with one ring node shut down, a [`ClusterClient`]
/// completes estimates (including one whose *owner* is the dead node),
/// a placement and a sweep — every body byte-identical to the direct
/// service — while recording at least one failover; the survivors mark
/// the dead peer down and export it on `/metrics`.
#[test]
fn cluster_client_completes_a_request_mix_bit_identically_with_a_node_down() {
    let untraced = TraceContext::disabled();
    let mut nodes = start_ring(3);
    let addrs: Vec<String> = nodes.iter().map(|n| n.addr.clone()).collect();
    let ring = HashRing::new(&addrs);

    // Kill the node that owns a known key, so at least one request is
    // *guaranteed* to first dial a dead address.
    let victim_addr = addrs[2].clone();
    let victim_ring_index = ring
        .index_of(&victim_addr)
        .expect("victim is a ring member");
    let owned_batch = batch_owned_by(&ring, victim_ring_index);
    let victim = nodes.remove(2);
    assert!(victim.server.shutdown().clean);

    let direct = EstimationService::for_device(GpuDevice::rtx3060());
    let mut client = ClusterClient::new(&addrs, Some(TOKEN));

    // Estimates: the victim-owned key plus two others.
    for batch in [owned_batch, 3, 4] {
        let spec = small_spec(batch);
        let response = client
            .post_json("/v1/estimate", &job_json(&spec))
            .expect("estimate completes despite the dead node");
        assert_eq!(response.status, 200, "{}", response.text());
        assert_eq!(
            response.text(),
            api::estimate_body(
                &direct
                    .estimate_traced(&spec, None, &untraced)
                    .expect("direct estimate")
            ),
            "batch {batch} diverged with a node down"
        );
    }
    // Placement.
    let spec = small_spec(4);
    let response = client
        .post_json("/v1/best-device", &job_json(&spec))
        .expect("best-device completes");
    assert_eq!(response.status, 200, "{}", response.text());
    assert_eq!(
        response.text(),
        api::placement_body(
            direct
                .best_device_for_job_traced(&spec, &untraced)
                .expect("places")
                .as_ref()
        )
    );
    // A sweep (family-placed).
    let sweep_request = format!(
        "{{\"job\":{},\"batches\":[1,2,4]}}",
        job_json(&small_spec(1))
    );
    let response = client
        .post_json("/v1/sweep", &sweep_request)
        .expect("sweep completes");
    assert_eq!(response.status, 200, "{}", response.text());
    assert_eq!(
        response.text(),
        api::sweep_body(&direct.sweep_traced(&small_spec(1), &[1, 2, 4], &untraced))
    );

    assert!(
        client.failovers() >= 1,
        "the victim-owned request must have failed over"
    );

    // At least one survivor attempted a forward to the dead owner,
    // marked it down, and answered locally instead.
    let mut saw_down = false;
    let mut fallbacks = 0;
    for node in &nodes {
        let mut probe = HttpClient::connect(node.addr.as_str()).expect("connect survivor");
        let metrics = probe.get("/metrics").expect("metrics stay open");
        assert_eq!(metrics.status, 200);
        let text = metrics.text().into_owned();
        saw_down |= text.contains(&format!("xmem_cluster_peer_up{{peer=\"{victim_addr}\"}} 0"));
        fallbacks += counter_value(&text, "xmem_cluster_local_fallbacks_total");
    }
    assert!(saw_down, "a survivor must export the dead peer as down");
    assert!(
        fallbacks >= 1,
        "owner-down requests must count local fallbacks"
    );

    for node in nodes {
        assert!(node.server.shutdown().clean);
    }
}

/// Ingress auth and the hop guard: `/v1` routes demand the shared secret
/// the moment a cluster is installed (`/healthz` and `/metrics` stay
/// open), and a request bearing `x-xmem-forwarded` is computed locally
/// even when the ring owns it elsewhere — loops are impossible by
/// construction.
#[test]
fn auth_gates_v1_and_the_hop_guard_computes_locally() {
    let nodes = start_ring(2);
    let node_a = &nodes[0];
    let node_b = &nodes[1];
    let ring = HashRing::new(&[node_a.addr.clone(), node_b.addr.clone()]);

    let mut client = HttpClient::connect(node_a.addr.as_str()).expect("connect");
    // Anonymous /v1 traffic: 401 with the stable error body.
    let denied = client
        .post_json("/v1/estimate", &job_json(&small_spec(2)))
        .expect("401 answer");
    assert_eq!(denied.status, 401);
    assert!(denied.text().contains("unauthorized"), "{}", denied.text());
    // A wrong token is just as anonymous.
    let wrong = client
        .request(
            "POST",
            "/v1/estimate",
            &[("content-type", "application/json"), (AUTH_HEADER, "nope")],
            job_json(&small_spec(2)).as_bytes(),
        )
        .expect("401 answer");
    assert_eq!(wrong.status, 401);
    // Probes and scrapers stay open.
    assert_eq!(client.get("/healthz").expect("healthz").status, 200);
    assert_eq!(client.get("/metrics").expect("metrics").status, 200);

    // A key owned by B, sent to A with the hop guard: A computes it
    // locally — no forward, one forwarded-request served.
    let b_ring_index = ring.index_of(&node_b.addr).expect("B is a ring member");
    let hop_batch = batch_owned_by(&ring, b_ring_index);
    let spec = small_spec(hop_batch);
    let response = client
        .request(
            "POST",
            "/v1/estimate",
            &[
                ("content-type", "application/json"),
                (AUTH_HEADER, TOKEN),
                (FORWARDED_HEADER, "test-suite"),
            ],
            job_json(&spec).as_bytes(),
        )
        .expect("forwarded exchange");
    assert_eq!(response.status, 200, "{}", response.text());
    assert_eq!(node_a.service.service().profile_runs(), 1, "A computed it");
    assert_eq!(node_b.service.service().profile_runs(), 0, "B never saw it");
    let state = node_a.server.cluster().expect("cluster installed");
    let metrics = state.render_prometheus();
    assert_eq!(counter_value(&metrics, "xmem_cluster_forwards_total"), 0);
    assert_eq!(
        counter_value(&metrics, "xmem_cluster_forwarded_requests_total"),
        1
    );

    for node in nodes {
        assert!(node.server.shutdown().clean);
    }
}

/// One authenticated GET on a keep-alive client.
fn authed_get(client: &mut HttpClient, path: &str) -> xmem::server::ClientResponse {
    client
        .request("GET", path, &[(AUTH_HEADER, TOKEN)], b"")
        .expect("authenticated exchange")
}

/// The traces array of a node's `/v1/debug/traces` answer.
fn debug_traces(client: &mut HttpClient) -> serde::Value {
    let response = authed_get(client, "/v1/debug/traces?n=32");
    assert_eq!(response.status, 200, "{}", response.text());
    serde_json::from_str(&response.text()).expect("traces JSON")
}

/// The trace with `trace_id` in a `/v1/debug/traces` body, if recorded.
fn trace_with_id<'a>(value: &'a serde::Value, id: &str) -> Option<&'a serde::Value> {
    value
        .as_object()
        .and_then(|o| serde::obj_get(o, "traces"))
        .and_then(serde::Value::as_array)?
        .iter()
        .find(|trace| {
            trace
                .as_object()
                .and_then(|o| serde::obj_get(o, "trace_id"))
                .and_then(serde::Value::as_str)
                == Some(id)
        })
}

/// Span `(name, outcome)` pairs of one trace object.
fn span_outcomes(trace: &serde::Value) -> Vec<(String, String)> {
    trace
        .as_object()
        .and_then(|o| serde::obj_get(o, "spans"))
        .and_then(serde::Value::as_array)
        .expect("spans array")
        .iter()
        .map(|span| {
            let entries = span.as_object().expect("span object");
            (
                serde::obj_get(entries, "name")
                    .and_then(serde::Value::as_str)
                    .expect("span name")
                    .to_string(),
                serde::obj_get(entries, "outcome")
                    .and_then(serde::Value::as_str)
                    .expect("span outcome")
                    .to_string(),
            )
        })
        .collect()
}

/// The acceptance trace: a request whose key is ring-owned elsewhere,
/// sent through a 3-node ring, yields ONE stitched trace — the ingress
/// node records the `cluster.forward` hop and the owner records the
/// remote compute, both under the same client-pinned trace id.
#[test]
fn a_forwarded_request_yields_one_stitched_trace_across_the_ring() {
    let nodes = start_ring(3);
    let addrs: Vec<String> = nodes.iter().map(|n| n.addr.clone()).collect();
    let ring = HashRing::new(&addrs);

    // A key owned by node 1, presented at node 0: node 0 must forward.
    let owner_ring_index = ring.index_of(&nodes[1].addr).expect("ring member");
    let batch = batch_owned_by(&ring, owner_ring_index);
    let pinned_id = "feedfacefeedfacefeedfacefeedface";
    let mut ingress = HttpClient::connect(nodes[0].addr.as_str()).expect("connect ingress");
    let response = ingress
        .request(
            "POST",
            "/v1/estimate",
            &[
                ("content-type", "application/json"),
                (AUTH_HEADER, TOKEN),
                ("x-xmem-trace-id", pinned_id),
            ],
            job_json(&small_spec(batch)).as_bytes(),
        )
        .expect("forwarded estimate");
    assert_eq!(response.status, 200, "{}", response.text());

    // Hop 1, the ingress node: the trace shows the forward and is not
    // itself marked as a forwarded arrival.
    let ingress_traces = debug_traces(&mut ingress);
    let hop1 =
        trace_with_id(&ingress_traces, pinned_id).expect("ingress recorded the pinned trace id");
    let entries = hop1.as_object().expect("trace object");
    assert_eq!(
        serde::obj_get(entries, "forwarded").cloned(),
        Some(serde::Value::Bool(false))
    );
    let hop1_spans = span_outcomes(hop1);
    assert!(
        hop1_spans
            .iter()
            .any(|(name, outcome)| name == "cluster.forward" && outcome == "forwarded"),
        "ingress spans: {hop1_spans:?}"
    );

    // Hop 2, the owner: same trace id, marked forwarded, carrying the
    // remote-compute span timeline (the full cold pipeline ran there).
    let mut owner = HttpClient::connect(nodes[1].addr.as_str()).expect("connect owner");
    let owner_traces = debug_traces(&mut owner);
    let hop2 = trace_with_id(&owner_traces, pinned_id).expect("owner adopted the relayed trace id");
    let entries = hop2.as_object().expect("trace object");
    assert_eq!(
        serde::obj_get(entries, "forwarded").cloned(),
        Some(serde::Value::Bool(true))
    );
    let hop2_spans = span_outcomes(hop2);
    assert!(hop2_spans.len() >= 3, "owner spans: {hop2_spans:?}");
    for needle in ["pool.queue", "service.call", "stage.profile"] {
        assert!(
            hop2_spans.iter().any(|(name, _)| name == needle),
            "owner trace missing `{needle}`: {hop2_spans:?}"
        );
    }
    // The third node never touched the request and must not have the id.
    let mut bystander = HttpClient::connect(nodes[2].addr.as_str()).expect("connect bystander");
    let bystander_traces = debug_traces(&mut bystander);
    assert!(
        trace_with_id(&bystander_traces, pinned_id).is_none(),
        "the bystander must not record the trace"
    );

    for node in nodes {
        assert!(node.server.shutdown().clean);
    }
}

/// `/healthz` reports the cluster role once a ring is installed: peer
/// count and the node's own ring address, alongside version and uptime.
#[test]
fn healthz_reports_the_cluster_role() {
    let nodes = start_ring(3);
    for node in &nodes {
        let mut client = HttpClient::connect(node.addr.as_str()).expect("connect");
        let health = client.get("/healthz").expect("healthz stays open");
        assert_eq!(health.status, 200);
        let value: serde::Value = serde_json::from_str(&health.text()).expect("healthz JSON");
        let entries = value.as_object().expect("healthz object");
        assert_eq!(
            serde::obj_get(entries, "status").and_then(serde::Value::as_str),
            Some("ok")
        );
        let cluster = serde::obj_get(entries, "cluster")
            .and_then(serde::Value::as_object)
            .expect("cluster role object");
        assert_eq!(
            serde::obj_get(cluster, "peers").and_then(serde::Value::as_u64),
            Some(2),
            "a 3-node ring has two peers"
        );
        assert_eq!(
            serde::obj_get(cluster, "self").and_then(serde::Value::as_str),
            Some(node.addr.as_str()),
            "{}",
            health.text()
        );
    }
    for node in nodes {
        assert!(node.server.shutdown().clean);
    }
}
