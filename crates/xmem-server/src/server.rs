//! The serving loop: a `std::net` acceptor thread feeding a bounded pool
//! of connection workers, with keep-alive, per-request deadlines,
//! backpressure, and graceful drain.
//!
//! # Threading model
//!
//! One acceptor thread accepts sockets and hands them to a bounded queue;
//! `ServerConfig::workers` connection workers each own one connection at
//! a time and run its keep-alive loop (parse → route → estimate → write).
//! Estimation itself is submitted to the shared
//! [`AsyncEstimationService`], so the expensive work rides the service's
//! own worker pool and cache layers; connection workers mostly block on
//! futures. When the accept queue is full the acceptor answers `503`
//! directly and closes — load has a hard edge instead of an unbounded
//! backlog.
//!
//! # Graceful shutdown
//!
//! [`ServerHandle::shutdown`] (or `POST /v1/shutdown` on the wire — the
//! SIGTERM-equivalent for environments that deliver signals out of band)
//! flips the drain flag: the acceptor stops accepting, and every worker
//! finishes the request it is serving, answers it with
//! `connection: close`, and exits; a mid-transmission request gets up to
//! [`ServerConfig::drain_timeout`] to finish arriving. In-flight work is
//! never abandoned — the drain deadline bounds *waiting for bytes*, not
//! the completion of accepted requests. The one thing a drain does shed
//! is pipelined requests queued *behind* the one being answered: the
//! `connection: close` on that answer tells the client exactly which
//! requests went unprocessed (standard HTTP semantics — safe to retry
//! elsewhere).

use crate::api;
use crate::cluster::{self, ClusterConfig, ClusterState};
use crate::metrics::{Route, ServerMetrics};
use crate::wire::{self, RequestParser, Response, WireLimits};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use xmem_service::{
    AsyncEstimationService, CellFill, Telemetry, TelemetryConfig, TraceContext, TRACE_HEADER,
};

/// How often blocked reads wake up to re-check the drain flag and idle
/// budget.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// How often the cluster prober re-checks down peers.
const PROBE_INTERVAL: Duration = Duration::from_millis(250);

/// Configuration of an [`ServerHandle`]-managed HTTP server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Connection worker threads — the concurrent-connection ceiling.
    pub workers: usize,
    /// Accepted-but-unclaimed connection queue; past it the acceptor
    /// answers `503` at accept time.
    pub queue_depth: usize,
    /// Wire-level request limits.
    pub limits: WireLimits,
    /// Idle keep-alive connections are closed after this long.
    pub keep_alive_timeout: Duration,
    /// During drain, how long a worker waits for the rest of a
    /// mid-transmission request before giving up on the connection.
    pub drain_timeout: Duration,
    /// The telemetry sink: per-request traces, stage histograms, and the
    /// request log. Enabled by default (ring + histograms; the request
    /// log defaults to [`xmem_service::LogLevel::Off`], so embedded and
    /// test servers stay silent).
    pub telemetry: Telemetry,
}

impl Default for ServerConfig {
    /// 64 connection workers, a 128-deep accept queue, default wire
    /// limits, 30 s keep-alive idle budget, 5 s drain grace, telemetry
    /// on (silent request log).
    fn default() -> Self {
        ServerConfig {
            workers: 64,
            queue_depth: 128,
            limits: WireLimits::default(),
            keep_alive_timeout: Duration::from_secs(30),
            drain_timeout: Duration::from_secs(5),
            telemetry: Telemetry::new(TelemetryConfig::default()),
        }
    }
}

impl ServerConfig {
    /// Overrides the connection-worker count (clamped to at least 1).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Overrides the accept-queue depth (clamped to at least 1).
    #[must_use]
    pub fn with_queue_depth(mut self, queue_depth: usize) -> Self {
        self.queue_depth = queue_depth.max(1);
        self
    }

    /// Overrides the wire limits.
    #[must_use]
    pub fn with_limits(mut self, limits: WireLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Overrides the keep-alive idle budget.
    #[must_use]
    pub fn with_keep_alive_timeout(mut self, timeout: Duration) -> Self {
        self.keep_alive_timeout = timeout;
        self
    }

    /// Overrides the drain grace for mid-transmission requests.
    #[must_use]
    pub fn with_drain_timeout(mut self, timeout: Duration) -> Self {
        self.drain_timeout = timeout;
        self
    }

    /// Overrides the telemetry sink (e.g. a logging one from the CLI, or
    /// [`Telemetry::disabled`] to turn tracing off entirely).
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }
}

/// State shared by the acceptor, the workers, and the handle.
#[derive(Debug)]
struct Shared {
    service: Arc<AsyncEstimationService>,
    config: ServerConfig,
    metrics: ServerMetrics,
    /// The telemetry sink (mirrors `config.telemetry`; kept separate for
    /// direct access on the hot path).
    telemetry: Telemetry,
    addr: SocketAddr,
    /// When the server bound its listener — the uptime epoch `/healthz`
    /// reports.
    started: Instant,
    draining: AtomicBool,
    /// Signals [`ServerHandle::wait`]ers when a drain is triggered.
    drain_signal: (Mutex<bool>, Condvar),
    /// The cluster tier, when installed ([`ServerHandle::install_cluster`]).
    cluster: RwLock<Option<Arc<ClusterState>>>,
}

impl Shared {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// The installed cluster view, if any.
    fn cluster(&self) -> Option<Arc<ClusterState>> {
        self.cluster
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Flips the drain flag (idempotently) and wakes the acceptor with a
    /// loopback connection so a blocked `accept` observes it.
    fn trigger_drain(&self) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        self.metrics.set_draining();
        let (lock, condvar) = &self.drain_signal;
        // Recover from poisoning: a worker that panicked while holding
        // the signal must not wedge shutdown (the flag write is sound
        // regardless of what the panicking holder left behind).
        *lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = true;
        condvar.notify_all();
        // Wake the acceptor out of `accept`. Nothing to do on failure —
        // the listener is gone, which is what we wanted anyway.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
    }
}

/// Outcome of a completed drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Whether every worker exited within the drain deadline. `false`
    /// means stragglers were abandoned (still completing work, e.g. a
    /// very long estimate) when the deadline expired.
    pub clean: bool,
    /// Requests the server answered over its lifetime.
    pub requests_served: u64,
}

/// A running server: the acceptor + worker threads behind one bound
/// address. Dropping the handle triggers a drain but does not wait for
/// it; call [`shutdown`](Self::shutdown) for the bounded, observable
/// version.
#[derive(Debug)]
pub struct ServerHandle {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    /// The down-peer prober, running while a cluster is installed.
    prober: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving `service`.
    ///
    /// # Errors
    /// Propagates bind failures.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: Arc<AsyncEstimationService>,
        config: ServerConfig,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            service,
            telemetry: config.telemetry.clone(),
            config: config.clone(),
            metrics: ServerMetrics::new(),
            addr,
            started: Instant::now(),
            draining: AtomicBool::new(false),
            drain_signal: (Mutex::new(false), Condvar::new()),
            cluster: RwLock::new(None),
        });
        let (sender, receiver) = std::sync::mpsc::sync_channel::<TcpStream>(config.queue_depth);
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                let receiver = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("xmem-http-{i}"))
                    .spawn(move || worker_loop(&shared, &receiver))
                    .expect("spawn connection worker")
            })
            .collect();
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("xmem-http-accept".to_string())
                .spawn(move || accept_loop(&shared, &listener, &sender))
                .expect("spawn acceptor")
        };
        Ok(ServerHandle {
            shared,
            acceptor: Some(acceptor),
            workers,
            prober: None,
        })
    }

    /// Installs the cluster tier on a running server: consistent-hash
    /// routing with owner forwarding on the `/v1` estimation routes,
    /// shared-secret ingress auth, and a background prober that flips
    /// down peers back up when their `/healthz` answers again.
    ///
    /// Installed *after* [`bind`](Self::bind) because ring identities
    /// are listen addresses — an in-process ring on ephemeral ports only
    /// knows them once every member is bound.
    ///
    /// # Errors
    /// A human-readable message for degenerate configs (empty token,
    /// fewer than two ring members).
    pub fn install_cluster(&mut self, config: &ClusterConfig) -> Result<(), String> {
        let state = Arc::new(ClusterState::new(config)?);
        *self
            .shared
            .cluster
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(Arc::clone(&state));
        let shared = Arc::clone(&self.shared);
        self.prober = Some(
            std::thread::Builder::new()
                .name("xmem-cluster-probe".to_string())
                .spawn(move || {
                    while !shared.draining() {
                        state.probe_down_peers();
                        std::thread::sleep(PROBE_INTERVAL);
                    }
                })
                .expect("spawn cluster prober"),
        );
        Ok(())
    }

    /// The installed cluster view, if any.
    #[must_use]
    pub fn cluster(&self) -> Option<Arc<ClusterState>> {
        self.shared.cluster()
    }

    /// The bound address (with the real port when `:0` was requested).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// This server's wire metrics.
    #[must_use]
    pub fn metrics(&self) -> &ServerMetrics {
        &self.shared.metrics
    }

    /// This server's telemetry sink (trace ring + stage histograms).
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.shared.telemetry
    }

    /// The served estimation service.
    #[must_use]
    pub fn service(&self) -> &Arc<AsyncEstimationService> {
        &self.shared.service
    }

    /// Whether a drain has been triggered (locally or over the wire).
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.shared.draining()
    }

    /// Initiates a drain without waiting for it — the programmatic
    /// SIGTERM-equivalent. Idempotent.
    pub fn trigger_drain(&self) {
        self.shared.trigger_drain();
    }

    /// Blocks until a drain is triggered — by
    /// [`trigger_drain`](Self::trigger_drain)
    /// (another thread holding a reference) or by `POST /v1/shutdown`
    /// over the wire — then completes the drain and joins the server
    /// threads. This is what `xmem-cli listen` parks on.
    pub fn wait(mut self) -> DrainReport {
        {
            let (lock, condvar) = &self.shared.drain_signal;
            // Poison recovery mirrors `trigger_drain`: drain must always
            // complete even after a panic under this lock.
            let mut triggered = lock
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            while !*triggered {
                triggered = condvar
                    .wait(triggered)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }
        self.join_threads()
    }

    /// Graceful shutdown: stop accepting, let every in-flight request
    /// complete and be answered, close all connections, join the server
    /// threads. Waiting for stragglers is bounded by the drain timeout
    /// plus the keep-alive poll interval; [`DrainReport::clean`] reports
    /// whether everyone made it.
    pub fn shutdown(mut self) -> DrainReport {
        self.shared.trigger_drain();
        self.join_threads()
    }

    fn join_threads(&mut self) -> DrainReport {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        if let Some(prober) = self.prober.take() {
            // Exits on its next drain-flag check (bounded by one probe
            // sweep of short-timeout connects).
            let _ = prober.join();
        }
        // Workers exit on their own: every blocking operation they
        // perform either has a timeout or is an in-flight estimate that
        // completes. Bound the wait for stragglers rather than joining
        // unconditionally.
        let deadline = Instant::now() + self.shared.config.drain_timeout + POLL_INTERVAL * 4;
        let mut clean = true;
        while let Some(worker) = self.workers.pop() {
            while !worker.is_finished() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            if worker.is_finished() {
                let _ = worker.join();
            } else {
                // Still answering an in-flight request past the deadline:
                // abandon the join (the thread finishes on its own).
                clean = false;
            }
        }
        DrainReport {
            clean,
            requests_served: self.shared.metrics.requests_total(),
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shared.trigger_drain();
    }
}

fn accept_loop(shared: &Shared, listener: &TcpListener, sender: &SyncSender<TcpStream>) {
    for stream in listener.incoming() {
        if shared.draining() {
            break;
        }
        let Ok(stream) = stream else { continue };
        shared.metrics.connection_opened();
        match sender.try_send(stream) {
            Ok(()) => {}
            Err(TrySendError::Full(stream)) | Err(TrySendError::Disconnected(stream)) => {
                // Hard edge: answer 503 inline and close. The inline
                // rendering is the *same* `busy_response` the worker
                // path sends, and it counts toward the byte totals like
                // any other write — a scraper must not be able to tell
                // the two 503 shapes apart.
                shared.metrics.connection_rejected();
                shared.metrics.record_status(503);
                let response = api::busy_response().to_bytes(false);
                shared.metrics.add_bytes_written(response.len() as u64);
                let mut stream = stream;
                let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
                let _ = stream.write_all(&response);
                shared.metrics.connection_closed();
            }
        }
    }
    // Dropping the sender lets idle workers drain the queue and exit.
}

fn worker_loop(shared: &Shared, receiver: &Arc<Mutex<Receiver<TcpStream>>>) {
    loop {
        // A sibling worker panicking mid-`recv` poisons the queue lock;
        // the channel itself is still sound, so keep serving.
        let next = receiver
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .recv();
        match next {
            Ok(stream) => {
                handle_connection(shared, stream);
                shared.metrics.connection_closed();
            }
            Err(_) => break, // acceptor gone and queue drained
        }
    }
}

/// Runs one connection's keep-alive loop to completion.
fn handle_connection(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let mut parser = RequestParser::new(shared.config.limits.clone());
    let mut buf = [0u8; 16 * 1024];
    let mut last_activity = Instant::now();
    // When we first observed the drain while mid-request: bounds how long
    // we wait for the rest of that request.
    let mut drain_observed: Option<Instant> = None;

    loop {
        // Serve every complete request already buffered (pipelining).
        loop {
            match parser.poll() {
                Ok(Some(request)) => {
                    last_activity = Instant::now();
                    let keep_alive = serve_request(shared, &mut stream, &request);
                    if !keep_alive {
                        return;
                    }
                }
                Ok(None) => break,
                Err(error) => {
                    shared.metrics.wire_error();
                    let response = wire::error_response(&error);
                    shared.metrics.record_status(response.status);
                    write_response(shared, &mut stream, &response, false);
                    return;
                }
            }
        }
        // The buffered head announced `Expect: 100-continue` and its body
        // is still in flight: answer the interim response before blocking
        // in `read`, or an expectation-honouring client never sends the
        // body and the exchange deadlocks until the idle timeout.
        if parser.take_continue() {
            let interim = b"HTTP/1.1 100 Continue\r\n\r\n";
            shared.metrics.add_bytes_written(interim.len() as u64);
            if stream.write_all(interim).is_err() || stream.flush().is_err() {
                return;
            }
        }
        if shared.draining() {
            let observed = *drain_observed.get_or_insert_with(Instant::now);
            if parser.mid_request() {
                if observed.elapsed() > shared.config.drain_timeout {
                    // The rest of the request never arrived.
                    return;
                }
            } else if observed.elapsed() > POLL_INTERVAL {
                // Quiet connection during a drain: give a request the
                // client sent before it learned of the drain one poll
                // interval to surface from the socket buffer, then close.
                return;
            }
        } else if last_activity.elapsed() > shared.config.keep_alive_timeout {
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) => return, // peer closed
            Ok(n) => {
                shared.metrics.add_bytes_read(n as u64);
                parser.feed(&buf[..n]);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return,
        }
    }
}

/// Routes and answers one request; returns whether to keep the
/// connection.
fn serve_request(shared: &Shared, stream: &mut TcpStream, request: &wire::Request) -> bool {
    let started = Instant::now();
    // Adopt the trace id a forwarding hop (or tracing-aware client) sent;
    // otherwise this request starts a fresh trace.
    let ctx = shared.telemetry.begin_trace(request.header(TRACE_HEADER));
    let (route, response) = respond(shared, request, &ctx, started);
    shared
        .metrics
        .record_request(route, response.status, started.elapsed());
    let forwarded = request.header(cluster::FORWARDED_HEADER).is_some();
    shared.telemetry.finish(
        &ctx,
        &request.method,
        request.path(),
        response.status,
        forwarded,
    );
    // A drain observed after this request was parsed still answers it —
    // that is the "drain in-flight" contract — but closes afterwards.
    let keep_alive = request.wants_keep_alive() && !shared.draining();
    write_response(shared, stream, &response, keep_alive) && keep_alive
}

fn write_response(
    shared: &Shared,
    stream: &mut TcpStream,
    response: &Response,
    keep_alive: bool,
) -> bool {
    let bytes = response.to_bytes(keep_alive);
    shared.metrics.add_bytes_written(bytes.len() as u64);
    stream.write_all(&bytes).is_ok() && stream.flush().is_ok()
}

/// The metrics route label for a path (any method).
fn route_of(path: &str) -> Route {
    match path {
        "/healthz" => Route::Healthz,
        "/metrics" => Route::Metrics,
        "/v1/estimate" => Route::Estimate,
        "/v1/matrix" => Route::Matrix,
        "/v1/sweep" => Route::Sweep,
        "/v1/plan" => Route::Plan,
        "/v1/best-device" => Route::BestDevice,
        "/v1/shutdown" => Route::Shutdown,
        "/v1/debug/traces" => Route::DebugTraces,
        _ => Route::Unmatched,
    }
}

/// Cluster placement for one unforwarded `/v1` POST. `Some` when the
/// request was answered remotely (or straight from a local sim cell);
/// `None` falls through to the local handlers — the request is owned
/// here, unplaceable (malformed bodies keep their single-node error
/// shapes), or its owner is unreachable (local fallback trades the
/// exactly-once economy for availability; estimates are deterministic,
/// so the answer is still bit-identical).
fn cluster_route(
    shared: &Shared,
    cluster: &ClusterState,
    request: &wire::Request,
    ctx: &TraceContext,
    received: Instant,
) -> Option<Response> {
    let path = request.path();
    let body: serde::Value = std::str::from_utf8(&request.body)
        .ok()
        .and_then(|text| serde_json::from_str(text).ok())?;
    let (spec, hash) = cluster::route_placement(path, &body)?;
    let owner = cluster.ring().owner_index(hash)?;
    if owner == cluster.self_index() {
        return None;
    }
    let device = if path == "/v1/estimate" {
        match body.as_object().and_then(|o| serde::obj_get(o, "device")) {
            Some(serde::Value::Str(name)) => Some(name.clone()),
            Some(serde::Value::Null) | None => None,
            // Malformed device field: the local handler owns the 400.
            Some(_) => return None,
        }
    } else {
        None
    };
    // A cell an earlier forward already filled answers locally — the
    // rendering is byte-identical to the owner's (deterministic values,
    // shared rendering functions).
    if path == "/v1/estimate" {
        if let Some(estimate) = shared
            .service
            .service()
            .cached_cell_estimate(&spec, device.as_deref())
        {
            ctx.event("cache.sim", "cell-hit");
            return Some(Response::json(200, api::estimate_body(&estimate)));
        }
    }
    if !cluster.peer_up(owner) {
        cluster.note_local_fallback();
        ctx.event("cluster.forward", "fallback");
        return None;
    }
    let response = match cluster.forward(owner, request, ctx, received.elapsed()) {
        Some(response) => response,
        None => {
            cluster.note_local_fallback();
            return None;
        }
    };
    // Local fill: the owner's estimate lands in this node's sim cell
    // (journaled like any local insert), so the next query for this key
    // is a local hit instead of another forward.
    if path == "/v1/estimate" && response.status == 200 {
        let parsed: Option<serde::Value> = serde_json::from_str(&response.text()).ok();
        if let Some(estimate) = parsed
            .as_ref()
            .and_then(serde::Value::as_object)
            .and_then(|o| serde::obj_get(o, "estimate"))
            .and_then(api::estimate_from_value)
        {
            match shared
                .service
                .service()
                .fill_sim_cell(&spec, device.as_deref(), estimate)
            {
                CellFill::Filled => cluster.note_cell_fill(),
                CellFill::Rejected => {
                    cluster.note_cell_fill_rejection();
                    ctx.event("cache.sim", "fill-rejected");
                }
                CellFill::Kept => {}
            }
        }
    }
    Some(cluster::relay_response(&response))
}

/// Renders the `/healthz` JSON body: liveness status, crate version,
/// uptime, and the node's cluster role (`null` when single-node).
fn healthz_body(shared: &Shared, cluster_view: Option<&Arc<ClusterState>>) -> String {
    let status = if shared.draining() { "draining" } else { "ok" };
    let uptime = shared.started.elapsed().as_secs();
    let cluster_json = match cluster_view {
        Some(cluster) => format!(
            "{{\"peers\":{},\"self\":{}}}",
            cluster.ring().len() - 1,
            wire::json_string(cluster.ring().node(cluster.self_index())),
        ),
        None => "null".to_string(),
    };
    format!(
        "{{\"status\":\"{status}\",\"version\":\"{}\",\"uptime_seconds\":{uptime},\"cluster\":{cluster_json}}}",
        env!("CARGO_PKG_VERSION"),
    )
}

/// Answers `GET /v1/debug/traces`: the last-N completed traces, newest
/// first, optionally filtered to requests slower than `?slow_ms=`.
fn debug_traces_response(shared: &Shared, request: &wire::Request) -> Response {
    /// Traces returned when `?n=` is absent.
    const DEFAULT_LAST_N: usize = 64;
    let query = request
        .target
        .split_once('?')
        .map_or("", |(_, query)| query);
    let mut last_n = DEFAULT_LAST_N;
    let mut slow_ms = None;
    for pair in query.split('&').filter(|pair| !pair.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        match key {
            "n" => match value.parse() {
                Ok(n) => last_n = n,
                Err(_) => return api::bad_request("`n` must be a non-negative integer"),
            },
            "slow_ms" => match value.parse() {
                Ok(ms) => slow_ms = Some(ms),
                Err(_) => return api::bad_request("`slow_ms` must be a non-negative integer"),
            },
            other => return api::bad_request(&format!("unknown query parameter `{other}`")),
        }
    }
    Response::json(200, shared.telemetry.traces_json(last_n, slow_ms))
}

/// The route table.
fn respond(
    shared: &Shared,
    request: &wire::Request,
    ctx: &TraceContext,
    received: Instant,
) -> (Route, Response) {
    let service = &shared.service;
    let cluster_view = shared.cluster();
    if let Some(cluster) = &cluster_view {
        // Peer traffic must not be anonymous: with a cluster installed,
        // every `/v1` route demands the shared secret. `/healthz` and
        // `/metrics` stay open (probes and scrapers are read-only).
        if request.path().starts_with("/v1/") && !cluster.authorized(request) {
            return (
                route_of(request.path()),
                Response::json(
                    401,
                    api::error_body("unauthorized", "missing or invalid `x-xmem-auth` token"),
                ),
            );
        }
        if request.header(cluster::FORWARDED_HEADER).is_some() {
            // Hop guard: a forwarded request is computed locally, never
            // re-forwarded — loops are impossible by construction.
            cluster.note_forwarded_request();
        } else if request.method == "POST" {
            if let Some(response) = cluster_route(shared, cluster, request, ctx, received) {
                return (route_of(request.path()), response);
            }
        }
    }
    match (request.method.as_str(), request.path()) {
        ("GET", "/healthz") => (
            Route::Healthz,
            Response::json(200, healthz_body(shared, cluster_view.as_ref())),
        ),
        ("GET", "/metrics") => {
            let mut exposition = shared.metrics.render_prometheus(service.service());
            if let Some(cluster) = &cluster_view {
                exposition.push_str(&cluster.render_prometheus());
            }
            shared.telemetry.render_prometheus(&mut exposition);
            (Route::Metrics, Response::text(200, exposition))
        }
        ("GET", "/v1/debug/traces") => (Route::DebugTraces, debug_traces_response(shared, request)),
        ("POST", "/v1/estimate") => (Route::Estimate, api::handle_estimate(service, request, ctx)),
        ("POST", "/v1/matrix") => (Route::Matrix, api::handle_matrix(service, request, ctx)),
        ("POST", "/v1/sweep") => (Route::Sweep, api::handle_sweep(service, request, ctx)),
        ("POST", "/v1/plan") => (Route::Plan, api::handle_plan(service, request, ctx)),
        ("POST", "/v1/best-device") => (
            Route::BestDevice,
            api::handle_best_device(service, request, ctx),
        ),
        ("POST", "/v1/shutdown") => {
            shared.trigger_drain();
            (
                Route::Shutdown,
                Response::json(200, "{\"status\":\"draining\"}".to_string()),
            )
        }
        (
            _,
            "/healthz" | "/metrics" | "/v1/estimate" | "/v1/matrix" | "/v1/sweep" | "/v1/plan"
            | "/v1/best-device" | "/v1/shutdown" | "/v1/debug/traces",
        ) => (
            Route::Unmatched,
            Response::json(405, api::error_body("method_not_allowed", "wrong method")),
        ),
        (_, path) => (
            Route::Unmatched,
            Response::json(
                404,
                api::error_body("not_found", &format!("no route for `{path}`")),
            ),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bind_loopback() -> ServerHandle {
        let service = Arc::new(AsyncEstimationService::for_device(
            xmem_runtime::GpuDevice::rtx3060(),
        ));
        ServerHandle::bind("127.0.0.1:0", service, ServerConfig::default()).expect("bind loopback")
    }

    /// A panic while holding the drain-signal mutex must not wedge
    /// shutdown: `trigger_drain` and `wait` both recover from the
    /// poisoned lock and the drain completes.
    #[test]
    fn drain_completes_even_when_the_signal_mutex_is_poisoned() {
        let server = bind_loopback();
        let shared = Arc::clone(&server.shared);
        let poisoner = std::thread::spawn(move || {
            let _guard = shared.drain_signal.0.lock().expect("first holder");
            panic!("poison the drain signal");
        });
        assert!(poisoner.join().is_err(), "the poisoner must panic");
        assert!(
            server.shared.drain_signal.0.is_poisoned(),
            "the mutex must actually be poisoned for this test to mean anything"
        );
        server.trigger_drain();
        let report = server.wait();
        assert!(report.clean, "drain must complete despite the poison");
    }
}
