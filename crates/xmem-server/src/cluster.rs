//! The cluster tier: consistent-hash scale-out over N `xmem-server`
//! instances.
//!
//! Every node carries the same static ring ([`HashRing`] over the sorted
//! peer list), so placement needs no coordinator: each `/v1` request
//! hashes to one owner — per-batch routes (`/v1/estimate`,
//! `/v1/best-device`) by [`JobKey`], grid routes (`/v1/sweep`,
//! `/v1/plan`) by the batchless [`SweepKey`] so a whole job family
//! lands where its incremental-fit cache lives — and each
//! profile/analysis is computed exactly once cluster-wide. A node
//! receiving a request it does not own forwards it to the owner over
//! the ordinary HTTP wire: the peer protocol **is** the `/v1` protocol,
//! plus two headers — [`FORWARDED_HEADER`] (the hop guard: a forwarded
//! request is always computed locally, so routing loops are impossible
//! by construction) and [`AUTH_HEADER`] (the shared-secret ingress
//! check, mandatory the moment a peer list exists, because peer traffic
//! must not be anonymous).
//!
//! Membership is static (`--peers`); *health* is not. A forward that
//! fails transport marks the owner down and the request is answered
//! locally — correctness is unaffected (estimates are deterministic),
//! only the exactly-once economy degrades while the peer is away. A
//! background prober re-checks down peers against `GET /healthz` and
//! flips them back up. Per-peer state is exported as
//! `xmem_cluster_peer_up` on `/metrics`.

use crate::api;
use crate::client::{ClientResponse, HttpClient};
use crate::wire::{Request, Response};
use serde::Value;
use std::fmt::Write as _;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;
use xmem_runtime::TrainJobSpec;
use xmem_service::jobspec::job_from_value_with_batch;
use xmem_service::{hash_family, hash_job, HashRing, JobKey, SweepKey, TraceContext, TRACE_HEADER};

/// Shared-secret ingress header. When a node has a cluster configured,
/// every `/v1` request must carry it; `/healthz` and `/metrics` stay
/// open (probes and scrapers are read-only).
pub const AUTH_HEADER: &str = "x-xmem-auth";

/// Hop-guard header: carries the forwarding node's address. A request
/// bearing it is computed locally, never re-forwarded.
pub const FORWARDED_HEADER: &str = "x-xmem-forwarded";

/// How long a peer probe or forward connect may take.
const PEER_CONNECT_TIMEOUT: Duration = Duration::from_millis(500);

/// Read budget for a forwarded exchange: the owner may be computing a
/// cold estimate, so this bounds a *wedged* peer, not a slow one.
const FORWARD_READ_TIMEOUT: Duration = Duration::from_secs(60);

/// Static cluster membership for one node.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// This node's own ring identity — the address peers reach it at.
    pub self_addr: String,
    /// Peer ring identities (may redundantly include `self_addr`).
    pub peers: Vec<String>,
    /// The shared ingress secret.
    pub auth_token: String,
}

/// One peer's liveness + pooled connection.
#[derive(Debug)]
struct PeerState {
    addr: String,
    up: AtomicBool,
    /// The pooled forwarding connection; dropped on transport failure
    /// and re-established lazily.
    client: Mutex<Option<HttpClient>>,
}

/// A node's view of the cluster: the ring, per-peer health, and the
/// forwarding counters.
#[derive(Debug)]
pub struct ClusterState {
    ring: HashRing,
    self_index: usize,
    /// Indexed like `ring.nodes()`; the self slot's client stays unused.
    peers: Vec<PeerState>,
    auth_token: String,
    forwards_total: AtomicU64,
    forward_failures: AtomicU64,
    forwarded_served: AtomicU64,
    cell_fills: AtomicU64,
    cell_fill_rejections: AtomicU64,
    local_fallbacks: AtomicU64,
}

impl ClusterState {
    /// Builds the node view from a static config. `self_addr` joins the
    /// ring alongside the peers (duplicates collapse).
    ///
    /// # Errors
    /// A human-readable message for an empty or self-only peer list.
    pub fn new(config: &ClusterConfig) -> Result<ClusterState, String> {
        if config.auth_token.is_empty() {
            return Err("cluster mode requires a non-empty auth token".to_string());
        }
        let mut nodes = config.peers.clone();
        nodes.push(config.self_addr.clone());
        let ring = HashRing::new(&nodes);
        if ring.len() < 2 {
            return Err("cluster mode needs at least one peer besides this node".to_string());
        }
        let self_index = ring
            .index_of(&config.self_addr)
            .expect("self_addr was added to the ring");
        let peers = ring
            .nodes()
            .iter()
            .map(|addr| PeerState {
                addr: addr.clone(),
                up: AtomicBool::new(true),
                client: Mutex::new(None),
            })
            .collect();
        Ok(ClusterState {
            ring,
            self_index,
            peers,
            auth_token: config.auth_token.clone(),
            forwards_total: AtomicU64::new(0),
            forward_failures: AtomicU64::new(0),
            forwarded_served: AtomicU64::new(0),
            cell_fills: AtomicU64::new(0),
            cell_fill_rejections: AtomicU64::new(0),
            local_fallbacks: AtomicU64::new(0),
        })
    }

    /// The shared ring.
    #[must_use]
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// This node's index in the ring's sorted node list.
    #[must_use]
    pub fn self_index(&self) -> usize {
        self.self_index
    }

    /// Whether `request` carries the shared secret.
    #[must_use]
    pub fn authorized(&self, request: &Request) -> bool {
        request.header(AUTH_HEADER) == Some(self.auth_token.as_str())
    }

    /// Whether the ring node at `index` is believed up (self always is).
    #[must_use]
    pub fn peer_up(&self, index: usize) -> bool {
        index == self.self_index || self.peers[index].up.load(Ordering::Relaxed)
    }

    /// Counts a request that arrived with the hop-guard header — served
    /// locally on the owner's behalf of the forwarding peer.
    pub fn note_forwarded_request(&self) {
        self.forwarded_served.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts an owner-down (or forward-failed) local computation.
    pub fn note_local_fallback(&self) {
        self.local_fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a local sim cell filled from a forwarded response.
    pub fn note_cell_fill(&self) {
        self.cell_fills.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a forwarded estimate refused as a local sim cell because
    /// it breaks a cell's arithmetic (it is still relayed to the client).
    pub fn note_cell_fill_rejection(&self) {
        self.cell_fill_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// Forwards `request` verbatim to the ring node at `owner` — same
    /// method/path/body, plus the auth secret, the hop guard, the trace
    /// id (so the remote hop records under the same trace), and the
    /// propagated deadline. `None` means the exchange failed transport
    /// and the owner was marked down; the caller answers locally.
    ///
    /// `elapsed` is how long this hop has already held the request: the
    /// forwarded deadline budget is decremented by it, so a relayed
    /// request can never be granted more time than the origin has left.
    #[must_use]
    pub fn forward(
        &self,
        owner: usize,
        request: &Request,
        ctx: &TraceContext,
        elapsed: Duration,
    ) -> Option<ClientResponse> {
        let peer = &self.peers[owner];
        self.forwards_total.fetch_add(1, Ordering::Relaxed);
        let mut span = ctx.span("cluster.forward");
        let mut pooled = peer
            .client
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if pooled.is_none() {
            *pooled = connect_peer(&peer.addr);
        }
        let deadline = request
            .header(api::DEADLINE_HEADER)
            .map(|raw| match raw.parse::<u64>() {
                // Spend this hop's elapsed time before relaying the
                // budget; the remote hop answers 504 when nothing is
                // left, exactly as this hop would have.
                Ok(ms) => ms
                    .saturating_sub(u64::try_from(elapsed.as_millis()).unwrap_or(u64::MAX))
                    .to_string(),
                // Non-numeric budgets relay verbatim: the remote's
                // `deadline_of` owns the 400 shape.
                Err(_) => raw.to_string(),
            });
        let trace_id = ctx.trace_id_hex();
        let outcome = pooled.as_mut().and_then(|client| {
            let mut headers: Vec<(&str, &str)> = vec![
                ("content-type", "application/json"),
                (AUTH_HEADER, &self.auth_token),
                (FORWARDED_HEADER, self.ring.node(self.self_index)),
            ];
            if let Some(ms) = &deadline {
                headers.push((api::DEADLINE_HEADER, ms));
            }
            if let Some(id) = &trace_id {
                headers.push((TRACE_HEADER, id));
            }
            client
                .request(&request.method, request.path(), &headers, &request.body)
                .ok()
        });
        match outcome {
            Some(response) => {
                span.set_outcome("forwarded");
                Some(response)
            }
            None => {
                *pooled = None;
                peer.up.store(false, Ordering::Relaxed);
                self.forward_failures.fetch_add(1, Ordering::Relaxed);
                span.set_outcome("fallback");
                None
            }
        }
    }

    /// Re-probes every down peer with `GET /healthz` on a fresh
    /// short-timeout connection, flipping the ones that answer back up.
    pub fn probe_down_peers(&self) {
        for (index, peer) in self.peers.iter().enumerate() {
            if index == self.self_index || peer.up.load(Ordering::Relaxed) {
                continue;
            }
            if probe_healthz(&peer.addr) {
                peer.up.store(true, Ordering::Relaxed);
            }
        }
    }

    /// The cluster block of the `/metrics` exposition.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(1024);
        let _ = writeln!(out, "# HELP xmem_cluster_peer_up Peer liveness by address");
        let _ = writeln!(out, "# TYPE xmem_cluster_peer_up gauge");
        for (index, peer) in self.peers.iter().enumerate() {
            let _ = writeln!(
                out,
                "xmem_cluster_peer_up{{peer=\"{}\"}} {}",
                peer.addr,
                u64::from(self.peer_up(index))
            );
        }
        let counter = |out: &mut String, name: &str, help: &str, value: &AtomicU64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {}", value.load(Ordering::Relaxed));
        };
        counter(
            &mut out,
            "xmem_cluster_forwards_total",
            "Requests forwarded to their ring owner",
            &self.forwards_total,
        );
        counter(
            &mut out,
            "xmem_cluster_forward_failures_total",
            "Forwards that failed transport (owner marked down)",
            &self.forward_failures,
        );
        counter(
            &mut out,
            "xmem_cluster_forwarded_requests_total",
            "Requests served locally on behalf of a forwarding peer",
            &self.forwarded_served,
        );
        counter(
            &mut out,
            "xmem_cluster_cell_fills_total",
            "Local sim cells filled from forwarded responses",
            &self.cell_fills,
        );
        counter(
            &mut out,
            "xmem_cluster_cell_fill_rejections_total",
            "Forwarded estimates refused as local sim cells (broken cell arithmetic)",
            &self.cell_fill_rejections,
        );
        counter(
            &mut out,
            "xmem_cluster_local_fallbacks_total",
            "Non-owned requests computed locally (owner down)",
            &self.local_fallbacks,
        );
        out
    }
}

/// The `(job, ring hash)` a `/v1` body routes by, when the route is
/// cluster-placed at all: per-batch routes hash the [`JobKey`], grid
/// routes the [`SweepKey`]. `None` for unplaced routes and malformed
/// bodies — malformed requests are answered locally so the error shape
/// stays byte-identical to a single-node server.
#[must_use]
pub fn route_placement(path: &str, body: &Value) -> Option<(TrainJobSpec, u64)> {
    let grid = matches!(path, "/v1/sweep" | "/v1/plan");
    let per_batch = matches!(path, "/v1/estimate" | "/v1/best-device");
    if !grid && !per_batch {
        return None;
    }
    let entries = body.as_object()?;
    let job_value = serde::obj_get(entries, "job").unwrap_or(body);
    // Grid routes may omit `batch` (the grid supplies it); the ring hash
    // ignores the placeholder because [`SweepKey`] is batchless.
    let spec = job_from_value_with_batch(job_value, grid.then_some(1)).ok()?;
    let hash = if grid {
        hash_family(&SweepKey::of(&spec))
    } else {
        hash_job(&JobKey::of(&spec))
    };
    Some((spec, hash))
}

/// Converts a forwarded peer's response into the wire response relayed
/// to the client, preserving the backpressure contract (`Retry-After`).
#[must_use]
pub fn relay_response(response: &ClientResponse) -> Response {
    let mut relayed = Response::json(response.status, response.text().into_owned());
    if let Some(retry) = response.header("retry-after") {
        relayed = relayed.with_header("retry-after", retry);
    }
    relayed
}

fn resolve(addr: &str) -> Option<SocketAddr> {
    addr.to_socket_addrs().ok()?.next()
}

/// Connects to a peer within the probe timeout, returning a client with
/// the forward read budget applied.
fn connect_peer(addr: &str) -> Option<HttpClient> {
    // Establish reachability with a bounded connect first: a black-holed
    // peer must not wedge the forwarding worker for the OS default.
    let resolved = resolve(addr)?;
    let probe = TcpStream::connect_timeout(&resolved, PEER_CONNECT_TIMEOUT).ok()?;
    drop(probe);
    let client = HttpClient::connect(resolved).ok()?;
    client.set_read_timeout(Some(FORWARD_READ_TIMEOUT)).ok()?;
    Some(client)
}

/// One bounded `GET /healthz` exchange on a throwaway connection.
fn probe_healthz(addr: &str) -> bool {
    let Some(resolved) = resolve(addr) else {
        return false;
    };
    let Ok(mut stream) = TcpStream::connect_timeout(&resolved, PEER_CONNECT_TIMEOUT) else {
        return false;
    };
    let _ = stream.set_read_timeout(Some(PEER_CONNECT_TIMEOUT));
    let request = format!("GET /healthz HTTP/1.1\r\nhost: {addr}\r\nconnection: close\r\n\r\n");
    if stream.write_all(request.as_bytes()).is_err() {
        return false;
    }
    let mut head = [0u8; 64];
    match stream.read(&mut head) {
        Ok(n) if n > 0 => head[..n].starts_with(b"HTTP/1.1 200"),
        _ => false,
    }
}

/// A ring-aware client: routes each request to its owner and fails over
/// along the ring when a node is unreachable.
///
/// The retry budget is bounded — each distinct node is tried at most
/// once per request — and a transport failure *after* response bytes
/// arrived is **not** failed over (the dead node may have acted on the
/// request); it surfaces, exactly like [`HttpClient`].
#[derive(Debug)]
pub struct ClusterClient {
    ring: HashRing,
    auth_token: Option<String>,
    /// Pooled per-node connections, indexed like `ring.nodes()`.
    clients: Vec<Option<HttpClient>>,
    failovers: u64,
    /// Rotates `get` traffic (unplaced routes) across nodes.
    next_get: usize,
}

impl ClusterClient {
    /// A client over `nodes` (every ring member), authenticating with
    /// `auth_token` when given.
    #[must_use]
    pub fn new<S: AsRef<str>>(nodes: &[S], auth_token: Option<&str>) -> ClusterClient {
        let ring = HashRing::new(nodes);
        let clients = (0..ring.len()).map(|_| None).collect();
        ClusterClient {
            ring,
            auth_token: auth_token.map(str::to_string),
            clients,
            failovers: 0,
            next_get: 0,
        }
    }

    /// Times a node was skipped for the next ring member after a
    /// transport failure.
    #[must_use]
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// The ring this client routes by.
    #[must_use]
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// POSTs `json` to `path` on the owning node, walking the ring on
    /// transport failure. Unplaced paths (`/v1/matrix`, `/v1/shutdown`)
    /// start at an arbitrary node and still fail over.
    ///
    /// # Errors
    /// The last node's transport error once every ring member failed.
    pub fn post_json(&mut self, path: &str, json: &str) -> std::io::Result<ClientResponse> {
        let body: Option<Value> = serde_json::from_str(json).ok();
        let order = match body.as_ref().and_then(|b| route_placement(path, b)) {
            Some((_, hash)) => self.ring.successors(hash),
            None => (0..self.ring.len()).collect(),
        };
        self.try_nodes(&order, |client, token| {
            let mut headers = vec![("content-type", "application/json")];
            if let Some(token) = token {
                headers.push((AUTH_HEADER, token));
            }
            client.request("POST", path, &headers, json.as_bytes())
        })
    }

    /// GETs `path` from any node, rotating across the ring and failing
    /// over on transport errors.
    ///
    /// # Errors
    /// The last node's transport error once every ring member failed.
    pub fn get(&mut self, path: &str) -> std::io::Result<ClientResponse> {
        let start = self.next_get;
        self.next_get = (self.next_get + 1) % self.ring.len().max(1);
        let order: Vec<usize> = (0..self.ring.len())
            .map(|i| (start + i) % self.ring.len())
            .collect();
        self.try_nodes(&order, |client, token| {
            let mut headers = Vec::new();
            if let Some(token) = token {
                headers.push((AUTH_HEADER, token));
            }
            client.request("GET", path, &headers, b"")
        })
    }

    /// Walks `order`, reconnecting lazily, counting failovers past the
    /// first node, and surfacing the final error when all fail.
    fn try_nodes(
        &mut self,
        order: &[usize],
        mut exchange: impl FnMut(&mut HttpClient, Option<&str>) -> std::io::Result<ClientResponse>,
    ) -> std::io::Result<ClientResponse> {
        let mut last_error = None;
        for (attempt, &index) in order.iter().enumerate() {
            if self.clients[index].is_none() {
                match HttpClient::connect(self.ring.node(index)) {
                    Ok(client) => self.clients[index] = Some(client),
                    Err(error) => {
                        if attempt + 1 < order.len() {
                            self.failovers += 1;
                        }
                        last_error = Some(error);
                        continue;
                    }
                }
            }
            let client = self.clients[index].as_mut().expect("just ensured");
            match exchange(client, self.auth_token.as_deref()) {
                Ok(response) => return Ok(response),
                Err(error) => {
                    self.clients[index] = None;
                    if is_failoverable(&error) && attempt + 1 < order.len() {
                        self.failovers += 1;
                        last_error = Some(error);
                        continue;
                    }
                    return Err(error);
                }
            }
        }
        Err(last_error.unwrap_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::NotConnected, "cluster has no nodes")
        }))
    }
}

/// Whether an exchange error is safe to fail over: pure transport
/// failures where no response bytes arrived. `InvalidData` (a garbled
/// response) means the node *did* answer — surface it.
fn is_failoverable(error: &std::io::Error) -> bool {
    !matches!(error.kind(), std::io::ErrorKind::InvalidData)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ClusterConfig {
        ClusterConfig {
            self_addr: "127.0.0.1:7502".to_string(),
            peers: vec!["127.0.0.1:7501".to_string(), "127.0.0.1:7503".to_string()],
            auth_token: "secret".to_string(),
        }
    }

    #[test]
    fn cluster_state_rejects_degenerate_configs() {
        let mut empty_token = config();
        empty_token.auth_token = String::new();
        assert!(ClusterState::new(&empty_token).is_err());
        let lonely = ClusterConfig {
            self_addr: "127.0.0.1:7501".to_string(),
            peers: vec!["127.0.0.1:7501".to_string()],
            auth_token: "secret".to_string(),
        };
        assert!(ClusterState::new(&lonely).is_err());
    }

    #[test]
    fn self_joins_the_ring_once() {
        let state = ClusterState::new(&config()).expect("valid config");
        assert_eq!(state.ring().len(), 3);
        assert_eq!(state.ring().node(state.self_index()), "127.0.0.1:7502");
    }

    #[test]
    fn route_placement_targets_the_right_key_space() {
        let estimate: Value = serde_json::from_str(
            r#"{"model":"MobeNetV3Small","optimizer":"Adam","batch":4,"iterations":2}"#,
        )
        .expect("json");
        let sweep: Value = serde_json::from_str(
            r#"{"job":{"model":"MobeNetV3Small","optimizer":"Adam","iterations":2},"batches":[2,4]}"#,
        )
        .expect("json");
        let (_, estimate_hash) =
            route_placement("/v1/estimate", &estimate).expect("estimate places");
        let (_, sweep_hash) = route_placement("/v1/sweep", &sweep).expect("sweep places");
        // Grid routes hash the batchless family: a different batch in
        // the estimate body moves the job hash but never the sweep hash.
        let other: Value = serde_json::from_str(
            r#"{"model":"MobeNetV3Small","optimizer":"Adam","batch":32,"iterations":2}"#,
        )
        .expect("json");
        let (_, other_hash) = route_placement("/v1/estimate", &other).expect("estimate places");
        assert_ne!(estimate_hash, other_hash);
        let sweep_other: Value = serde_json::from_str(
            r#"{"job":{"model":"MobeNetV3Small","optimizer":"Adam","batch":32,"iterations":2},"batches":[8]}"#,
        )
        .expect("json");
        let (_, sweep_other_hash) =
            route_placement("/v1/sweep", &sweep_other).expect("sweep places");
        assert_eq!(sweep_hash, sweep_other_hash);
        // Unplaced and malformed bodies stay local.
        assert!(route_placement("/v1/matrix", &estimate).is_none());
        let broken: Value = serde_json::from_str(r#"{"model":"nope"}"#).expect("json");
        assert!(route_placement("/v1/estimate", &broken).is_none());
    }

    #[test]
    fn probe_flips_a_down_peer_back_up_when_healthz_answers() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind probe target");
        let addr = listener.local_addr().expect("local addr").to_string();
        let serve = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept probe");
            let mut buf = [0u8; 512];
            let _ = stream.read(&mut buf);
            let _ = stream
                .write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 0\r\nconnection: close\r\n\r\n");
        });
        let state = ClusterState::new(&ClusterConfig {
            self_addr: "127.0.0.1:1".to_string(),
            peers: vec![addr.clone()],
            auth_token: "secret".to_string(),
        })
        .expect("valid config");
        let peer = state.ring().index_of(&addr).expect("peer in ring");
        state.peers[peer].up.store(false, Ordering::Relaxed);
        assert!(!state.peer_up(peer));
        state.probe_down_peers();
        assert!(state.peer_up(peer), "an answering peer must flip back up");
        serve.join().expect("probe target thread");
    }

    /// Serves `hops` forwarded exchanges on a fresh listener, sending
    /// each captured request head (as text) down the channel.
    fn capture_forwards(
        hops: usize,
    ) -> (
        String,
        std::sync::mpsc::Receiver<String>,
        std::thread::JoinHandle<()>,
    ) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind fake owner");
        let addr = listener.local_addr().expect("local addr").to_string();
        let (tx, rx) = std::sync::mpsc::channel();
        let serve = std::thread::spawn(move || {
            let mut served = 0;
            while served < hops {
                let (mut stream, _) = listener.accept().expect("accept forward");
                let mut seen = Vec::new();
                let mut buf = [0u8; 1024];
                // The forwarded body is tiny; read until the head
                // terminator has arrived (the test only inspects headers).
                while !seen.windows(4).any(|w| w == b"\r\n\r\n") {
                    let n = stream.read(&mut buf).expect("read forward");
                    if n == 0 {
                        break;
                    }
                    seen.extend_from_slice(&buf[..n]);
                }
                if seen.is_empty() {
                    // `connect_peer` reachability probe: a bare connect
                    // that closes without sending a request.
                    continue;
                }
                tx.send(String::from_utf8_lossy(&seen).into_owned())
                    .expect("report head");
                let _ = stream.write_all(
                    b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\n\
                      content-length: 2\r\nconnection: close\r\n\r\n{}",
                );
                served += 1;
            }
        });
        (addr, rx, serve)
    }

    /// The header a captured request head carried, if any.
    fn head_header(head: &str, name: &str) -> Option<String> {
        head.lines().find_map(|line| {
            let (n, v) = line.split_once(':')?;
            (n.eq_ignore_ascii_case(name)).then(|| v.trim().to_string())
        })
    }

    #[test]
    fn forward_decrements_the_deadline_budget_by_time_already_spent() {
        let (addr, rx, serve) = capture_forwards(3);
        let state = ClusterState::new(&ClusterConfig {
            self_addr: "127.0.0.1:1".to_string(),
            peers: vec![addr.clone()],
            auth_token: "secret".to_string(),
        })
        .expect("valid config");
        let owner = state.ring().index_of(&addr).expect("owner in ring");
        let request_with_deadline = |deadline: &str| Request {
            method: "POST".to_string(),
            target: "/v1/estimate".to_string(),
            headers: vec![
                ("content-type".to_string(), "application/json".to_string()),
                (api::DEADLINE_HEADER.to_string(), deadline.to_string()),
            ],
            body: b"{}".to_vec(),
            http11: true,
        };
        let ctx = TraceContext::disabled();

        // 40 of the 50ms budget already burned at this hop: the peer
        // must see only the remaining 10.
        let answer = state.forward(
            owner,
            &request_with_deadline("50"),
            &ctx,
            Duration::from_millis(40),
        );
        assert!(answer.is_some(), "fake owner answered");
        let head = rx.recv().expect("captured head");
        assert_eq!(
            head_header(&head, api::DEADLINE_HEADER).as_deref(),
            Some("10"),
            "head: {head}"
        );

        // A near-expired budget saturates at zero rather than
        // underflowing or vanishing — the remote still sees the header
        // and issues its own 504.
        let _ = state.forward(
            owner,
            &request_with_deadline("50"),
            &ctx,
            Duration::from_millis(75),
        );
        let head = rx.recv().expect("captured head");
        assert_eq!(
            head_header(&head, api::DEADLINE_HEADER).as_deref(),
            Some("0"),
            "head: {head}"
        );

        // A non-numeric value relays verbatim: the remote's own parser
        // owns the 400.
        let _ = state.forward(
            owner,
            &request_with_deadline("soonish"),
            &ctx,
            Duration::from_millis(5),
        );
        let head = rx.recv().expect("captured head");
        assert_eq!(
            head_header(&head, api::DEADLINE_HEADER).as_deref(),
            Some("soonish"),
            "head: {head}"
        );
        serve.join().expect("fake owner thread");
    }

    #[test]
    fn down_peers_fail_fast_and_probe_does_not_resurrect_them() {
        // 127.0.0.1 with a (very likely) unbound port: connect fails.
        let state = ClusterState::new(&config()).expect("valid config");
        let other = (state.self_index() + 1) % state.ring().len();
        assert!(state.peer_up(other), "peers start up");
        state.peers[other].up.store(false, Ordering::Relaxed);
        state.probe_down_peers();
        assert!(!state.peer_up(other), "no listener, stays down");
        let metrics = state.render_prometheus();
        assert!(metrics.contains("xmem_cluster_peer_up"), "{metrics}");
        assert!(
            metrics.contains("} 0"),
            "down peer must render 0: {metrics}"
        );
    }
}
