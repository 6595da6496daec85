//! Server-level observability: wire counters, per-route latency
//! histograms, and the Prometheus text rendering of everything the
//! process knows — including every counter the underlying estimation
//! service already tracks (cache, single-flight, negative cache,
//! simulation shards, replay-strategy split).

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;
use xmem_service::EstimationService;

/// Histogram bucket upper bounds, in nanoseconds (plus an implicit +Inf).
/// Log-spaced from 100µs to 10s — estimation answers span cache hits
/// (microseconds) to cold large-model profiles (seconds).
const BUCKET_BOUNDS_NS: [u64; 12] = [
    100_000,
    250_000,
    500_000,
    1_000_000,
    2_500_000,
    5_000_000,
    10_000_000,
    25_000_000,
    100_000_000,
    500_000_000,
    2_500_000_000,
    10_000_000_000,
];

/// A fixed-bucket latency histogram (Prometheus `_bucket`/`_sum`/`_count`
/// convention; buckets are cumulative when rendered).
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKET_BOUNDS_NS.len()],
    over: AtomicU64,
    sum_ns: AtomicU64,
    count: AtomicU64,
}

impl LatencyHistogram {
    /// Records one observation.
    pub fn observe(&self, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        match BUCKET_BOUNDS_NS.iter().position(|&bound| ns <= bound) {
            Some(i) => self.buckets[i].fetch_add(1, Ordering::Relaxed),
            None => self.over.fetch_add(1, Ordering::Relaxed),
        };
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    fn render(&self, out: &mut String, name: &str, route: &str) {
        let mut cumulative = 0;
        for (i, &bound) in BUCKET_BOUNDS_NS.iter().enumerate() {
            cumulative += self.buckets[i].load(Ordering::Relaxed);
            #[allow(clippy::cast_precision_loss)]
            let le = bound as f64 / 1e9;
            let _ = writeln!(
                out,
                "{name}_bucket{{route=\"{route}\",le=\"{le}\"}} {cumulative}"
            );
        }
        cumulative += self.over.load(Ordering::Relaxed);
        let _ = writeln!(
            out,
            "{name}_bucket{{route=\"{route}\",le=\"+Inf\"}} {cumulative}"
        );
        #[allow(clippy::cast_precision_loss)]
        let sum = self.sum_ns.load(Ordering::Relaxed) as f64 / 1e9;
        let _ = writeln!(out, "{name}_sum{{route=\"{route}\"}} {sum}");
        let _ = writeln!(
            out,
            "{name}_count{{route=\"{route}\"}} {}",
            self.count.load(Ordering::Relaxed)
        );
    }
}

/// The served routes, used as metric labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `POST /v1/estimate`
    Estimate,
    /// `POST /v1/matrix`
    Matrix,
    /// `POST /v1/sweep`
    Sweep,
    /// `POST /v1/plan`
    Plan,
    /// `POST /v1/best-device`
    BestDevice,
    /// `GET /healthz`
    Healthz,
    /// `GET /metrics`
    Metrics,
    /// `POST /v1/shutdown`
    Shutdown,
    /// `GET /v1/debug/traces`
    DebugTraces,
    /// Anything that matched no route (404/405 answers).
    Unmatched,
}

/// Every route, in rendering order.
pub const ROUTES: [Route; 10] = [
    Route::Estimate,
    Route::Matrix,
    Route::Sweep,
    Route::Plan,
    Route::BestDevice,
    Route::Healthz,
    Route::Metrics,
    Route::Shutdown,
    Route::DebugTraces,
    Route::Unmatched,
];

impl Route {
    /// The metric label for this route.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Route::Estimate => "estimate",
            Route::Matrix => "matrix",
            Route::Sweep => "sweep",
            Route::Plan => "plan",
            Route::BestDevice => "best_device",
            Route::Healthz => "healthz",
            Route::Metrics => "metrics",
            Route::Shutdown => "shutdown",
            Route::DebugTraces => "debug_traces",
            Route::Unmatched => "unmatched",
        }
    }

    fn index(self) -> usize {
        ROUTES
            .iter()
            .position(|&r| r == self)
            .expect("route is in ROUTES")
    }
}

/// Response status codes get exact counters for the codes this server
/// emits; anything else lands in its class bucket.
const TRACKED_STATUS: [u16; 12] = [200, 400, 401, 404, 405, 413, 422, 431, 500, 501, 503, 504];

/// Wire- and route-level counters for one server instance. All methods
/// take `&self`; everything is atomics.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Connections accepted.
    connections_total: AtomicU64,
    /// Connections currently open (gauge).
    connections_active: AtomicU64,
    /// Connections refused because the worker queue was full (answered
    /// `503` at accept time).
    connections_rejected: AtomicU64,
    /// Complete requests parsed.
    requests_total: AtomicU64,
    /// Requests rejected at the wire layer (parse errors, limit trips).
    wire_errors: AtomicU64,
    /// Raw bytes read from / written to sockets.
    bytes_read: AtomicU64,
    /// See [`bytes_read`](Self::bytes_read).
    bytes_written: AtomicU64,
    /// Responses by status code (indexed like [`TRACKED_STATUS`], last
    /// slot = other).
    responses: [AtomicU64; TRACKED_STATUS.len() + 1],
    /// Per-route request counts.
    route_requests: [AtomicU64; ROUTES.len()],
    /// Per-route handling latency.
    route_latency: [LatencyHistogram; ROUTES.len()],
    /// Whether the server is draining (shutdown initiated).
    draining: AtomicBool,
}

impl ServerMetrics {
    /// A zeroed metrics block.
    #[must_use]
    pub fn new() -> Self {
        ServerMetrics::default()
    }

    pub(crate) fn connection_opened(&self) {
        self.connections_total.fetch_add(1, Ordering::Relaxed);
        self.connections_active.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn connection_closed(&self) {
        self.connections_active.fetch_sub(1, Ordering::Relaxed);
    }

    pub(crate) fn connection_rejected(&self) {
        self.connections_rejected.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn wire_error(&self) {
        self.wire_errors.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_bytes_read(&self, n: u64) {
        self.bytes_read.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn add_bytes_written(&self, n: u64) {
        self.bytes_written.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn record_request(&self, route: Route, status: u16, elapsed: Duration) {
        self.requests_total.fetch_add(1, Ordering::Relaxed);
        self.route_requests[route.index()].fetch_add(1, Ordering::Relaxed);
        self.route_latency[route.index()].observe(elapsed);
        self.record_status(status);
    }

    pub(crate) fn record_status(&self, status: u16) {
        let slot = TRACKED_STATUS
            .iter()
            .position(|&s| s == status)
            .unwrap_or(TRACKED_STATUS.len());
        self.responses[slot].fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn set_draining(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has been initiated.
    #[must_use]
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Total complete requests parsed.
    #[must_use]
    pub fn requests_total(&self) -> u64 {
        self.requests_total.load(Ordering::Relaxed)
    }

    /// Responses carrying `status`, when it is one of the tracked codes.
    #[must_use]
    pub fn responses_with_status(&self, status: u16) -> u64 {
        TRACKED_STATUS
            .iter()
            .position(|&s| s == status)
            .map_or(0, |slot| self.responses[slot].load(Ordering::Relaxed))
    }

    /// Connections currently open.
    #[must_use]
    pub fn active_connections(&self) -> u64 {
        self.connections_active.load(Ordering::Relaxed)
    }

    /// Renders the Prometheus text exposition: every server counter above
    /// plus the estimation service's own counters (cache tiers,
    /// single-flight, negative cache, simulation shards, replay-strategy
    /// split, profile runs).
    #[must_use]
    pub fn render_prometheus(&self, service: &EstimationService) -> String {
        let mut out = String::with_capacity(8 * 1024);
        let gauge = |out: &mut String, name: &str, help: &str, value: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        };
        let counter = |out: &mut String, name: &str, help: &str, value: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        };

        counter(
            &mut out,
            "xmem_server_connections_total",
            "Connections accepted",
            self.connections_total.load(Ordering::Relaxed),
        );
        gauge(
            &mut out,
            "xmem_server_connections_active",
            "Connections currently open",
            self.connections_active.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "xmem_server_connections_rejected_total",
            "Connections refused at accept time (worker queue full)",
            self.connections_rejected.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "xmem_server_requests_total",
            "Complete HTTP requests parsed",
            self.requests_total.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "xmem_server_wire_errors_total",
            "Requests rejected at the wire layer",
            self.wire_errors.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "xmem_server_bytes_read_total",
            "Raw bytes read from sockets",
            self.bytes_read.load(Ordering::Relaxed),
        );
        counter(
            &mut out,
            "xmem_server_bytes_written_total",
            "Raw bytes written to sockets",
            self.bytes_written.load(Ordering::Relaxed),
        );
        gauge(
            &mut out,
            "xmem_server_draining",
            "1 while graceful shutdown is draining in-flight work",
            u64::from(self.draining()),
        );

        let _ = writeln!(
            out,
            "# HELP xmem_http_responses_total Responses by status code"
        );
        let _ = writeln!(out, "# TYPE xmem_http_responses_total counter");
        for (i, &status) in TRACKED_STATUS.iter().enumerate() {
            let _ = writeln!(
                out,
                "xmem_http_responses_total{{code=\"{status}\"}} {}",
                self.responses[i].load(Ordering::Relaxed)
            );
        }
        let _ = writeln!(
            out,
            "xmem_http_responses_total{{code=\"other\"}} {}",
            self.responses[TRACKED_STATUS.len()].load(Ordering::Relaxed)
        );

        let _ = writeln!(out, "# HELP xmem_http_requests_total Requests by route");
        let _ = writeln!(out, "# TYPE xmem_http_requests_total counter");
        for route in ROUTES {
            let _ = writeln!(
                out,
                "xmem_http_requests_total{{route=\"{}\"}} {}",
                route.label(),
                self.route_requests[route.index()].load(Ordering::Relaxed)
            );
        }
        let _ = writeln!(
            out,
            "# HELP xmem_http_request_duration_seconds Request handling latency"
        );
        let _ = writeln!(out, "# TYPE xmem_http_request_duration_seconds histogram");
        for route in ROUTES {
            self.route_latency[route.index()].render(
                &mut out,
                "xmem_http_request_duration_seconds",
                route.label(),
            );
        }

        // --- the estimation service's own counters: one row per tier ---
        let tiers = [
            (
                "param",
                service.param_cache_stats(),
                service.param_tier_stats(),
            ),
            ("sim", service.sim_stats().cache, service.sim_tier_stats()),
        ];
        let labeled_gauge = |out: &mut String, name: &str, help: &str| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
        };
        let labeled_counter = |out: &mut String, name: &str, help: &str| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
        };
        labeled_gauge(
            &mut out,
            "xmem_cache_entries",
            "Resident entries per cache tier and SLRU segment",
        );
        for (name, _, tier) in &tiers {
            let _ = writeln!(
                out,
                "xmem_cache_entries{{cache=\"{name}\",segment=\"probation\"}} {}",
                tier.probation_entries
            );
            let _ = writeln!(
                out,
                "xmem_cache_entries{{cache=\"{name}\",segment=\"protected\"}} {}",
                tier.protected_entries
            );
        }
        for (metric, help, pick) in [
            (
                "xmem_cache_capacity",
                "Entry capacity per cache tier",
                (|t| t.capacity) as fn(&xmem_service::TierStats) -> u64,
            ),
            (
                "xmem_cache_protected_capacity",
                "Protected-segment entry cap per cache tier",
                |t| t.protected_cap,
            ),
            (
                "xmem_cache_protected_frac_permille",
                "Protected-segment cap over capacity per cache tier, in permille",
                |t| u64::from(t.protected_frac_permille),
            ),
            (
                "xmem_cache_segmented",
                "1 when the tier runs SLRU admission",
                |t| u64::from(t.segmented),
            ),
        ] {
            labeled_gauge(&mut out, metric, help);
            for (name, _, tier) in &tiers {
                let _ = writeln!(out, "{metric}{{cache=\"{name}\"}} {}", pick(tier));
            }
        }
        for (metric, help, pick) in [
            (
                "xmem_cache_sketch_resets_total",
                "Frequency-sketch halving decays",
                (|s| s.sketch_resets) as fn(&xmem_service::CacheStats) -> u64,
            ),
            (
                "xmem_cache_admission_denied_total",
                "Inserts denied by the TinyLFU admission gate",
                |s| s.admission_denied,
            ),
        ] {
            labeled_counter(&mut out, metric, help);
            for (name, stats, _) in &tiers {
                let _ = writeln!(out, "{metric}{{cache=\"{name}\"}} {}", pick(stats));
            }
        }

        let flights = service.flight_stats();
        counter(
            &mut out,
            "xmem_flight_executions_total",
            "Single-flight leader executions",
            flights.executions,
        );
        counter(
            &mut out,
            "xmem_flight_coalesced_total",
            "Queries coalesced onto another caller's in-flight run",
            flights.coalesced,
        );
        let negative = service.negative_stats();
        let _ = writeln!(
            out,
            "# HELP xmem_negative_cache_events_total Negative-cache counter events"
        );
        let _ = writeln!(out, "# TYPE xmem_negative_cache_events_total counter");
        for (event, value) in [
            ("hit", negative.hits),
            ("insert", negative.insertions),
            ("evict", negative.evictions),
        ] {
            let _ = writeln!(
                out,
                "xmem_negative_cache_events_total{{event=\"{event}\"}} {value}"
            );
        }
        let sims = service.sim_stats();
        let _ = writeln!(
            out,
            "# HELP xmem_sim_cache_events_total Simulation-shard cache counter events"
        );
        let _ = writeln!(out, "# TYPE xmem_sim_cache_events_total counter");
        for (event, value) in [
            ("hit", sims.cache.hits),
            ("miss", sims.cache.misses),
            ("insert", sims.cache.insertions),
            ("evict", sims.cache.evictions),
            ("promote", sims.cache.promoted),
        ] {
            let _ = writeln!(
                out,
                "xmem_sim_cache_events_total{{event=\"{event}\"}} {value}"
            );
        }
        counter(
            &mut out,
            "xmem_sim_runs_total",
            "Allocator simulations executed",
            sims.sim_runs,
        );
        counter(
            &mut out,
            "xmem_sim_fast_path_hits_total",
            "Cells derived from an unbounded replay their request shares",
            sims.fast_path_hits,
        );
        counter(
            &mut out,
            "xmem_sim_full_replays_total",
            "Cells that paid a full stateful replay",
            sims.full_replays,
        );
        counter(
            &mut out,
            "xmem_sim_incremental_cells_total",
            "Cells materialized from a parameterized sweep replay",
            sims.incremental_cells,
        );
        counter(
            &mut out,
            "xmem_sim_param_replays_total",
            "Parameterized-replay fits performed",
            sims.param_replays,
        );
        counter(
            &mut out,
            "xmem_sim_unbounded_replays_total",
            "Unbounded replays executed, at most one per job per request",
            sims.unbounded_replays,
        );
        counter(
            &mut out,
            "xmem_sim_replayed_events_total",
            "Events fed to the allocator by full, unbounded and incremental replays",
            sims.replayed_events,
        );
        gauge(
            &mut out,
            "xmem_sim_device_shards",
            "Live per-device simulation shards",
            sims.device_shards as u64,
        );
        counter(
            &mut out,
            "xmem_sim_invalidated_entries_total",
            "Cached estimates dropped by device reconfiguration",
            sims.invalidated_entries,
        );
        counter(
            &mut out,
            "xmem_profile_runs_total",
            "CPU profile executions",
            service.profile_runs(),
        );
        let persist = service.persist_stats();
        gauge(
            &mut out,
            "xmem_persist_enabled",
            "Whether crash-consistent persistence is active (a state dir is configured)",
            u64::from(persist.enabled),
        );
        counter(
            &mut out,
            "xmem_persist_snapshot_writes_total",
            "Cache-state snapshots written (temp-file + rename completed)",
            persist.snapshot_writes,
        );
        counter(
            &mut out,
            "xmem_persist_journal_records_total",
            "Cache inserts appended to the state journal",
            persist.journal_records,
        );
        counter(
            &mut out,
            "xmem_persist_journal_errors_total",
            "Journal appends that failed to encode or write (entries not durable until the next snapshot)",
            persist.journal_errors,
        );
        counter(
            &mut out,
            "xmem_persist_recovered_entries_total",
            "Cache entries recovered from the state dir at boot",
            persist.recovered_entries,
        );
        counter(
            &mut out,
            "xmem_persist_recovery_truncated_total",
            "Torn or corrupt state-file tails dropped during boot recovery",
            persist.recovery_truncated,
        );
        counter(
            &mut out,
            "xmem_persist_recovery_skipped_total",
            "Recovered sim cells skipped for unmatched device fingerprints",
            persist.recovery_skipped,
        );
        gauge(
            &mut out,
            "xmem_persist_snapshot_bytes",
            "Size of the current snapshot file",
            persist.snapshot_bytes,
        );
        gauge(
            &mut out,
            "xmem_persist_journal_bytes",
            "Size of the current journal file",
            persist.journal_bytes,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_cumulative_in_render() {
        let h = LatencyHistogram::default();
        h.observe(Duration::from_micros(50));
        h.observe(Duration::from_micros(50));
        h.observe(Duration::from_millis(3));
        h.observe(Duration::from_secs(60)); // beyond the last bound
        let mut out = String::new();
        h.render(&mut out, "d", "r");
        assert!(out.contains("d_bucket{route=\"r\",le=\"0.0001\"} 2"));
        assert!(out.contains("d_bucket{route=\"r\",le=\"0.005\"} 3"));
        assert!(out.contains("d_bucket{route=\"r\",le=\"+Inf\"} 4"));
        assert!(out.contains("d_count{route=\"r\"} 4"));
    }

    #[test]
    fn status_tracking_covers_emitted_codes_and_buckets_the_rest() {
        let m = ServerMetrics::new();
        m.record_status(200);
        m.record_status(200);
        m.record_status(504);
        m.record_status(418); // untracked → other
        assert_eq!(m.responses_with_status(200), 2);
        assert_eq!(m.responses_with_status(504), 1);
        assert_eq!(m.responses_with_status(418), 0);
        assert_eq!(m.responses[TRACKED_STATUS.len()].load(Ordering::Relaxed), 1);
    }
}
