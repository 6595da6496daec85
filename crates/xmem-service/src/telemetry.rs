//! Request-scoped tracing and structured logging — the observability
//! subsystem attributing per-request latency to pipeline stages, cache
//! tiers, and cluster hops.
//!
//! The design is dependency-free and cheap enough to leave on in
//! production:
//!
//! * [`TraceContext`] is a request-scoped handle carrying a 128-bit
//!   trace id. It is generated at ingress, or **adopted** from an
//!   [`TRACE_HEADER`] (`x-xmem-trace-id`) header so a request forwarded
//!   across the cluster wire stitches into one trace: both hops record
//!   spans under the same id. A disabled context
//!   ([`TraceContext::disabled`]) makes every recording call a single
//!   branch, so untraced paths (library callers, benchmarks with
//!   telemetry off) pay nothing.
//! * [`Span`] is an RAII guard: [`TraceContext::span`] starts it,
//!   dropping it records `(name, start, duration, outcome)` into the
//!   trace. Zero-duration markers ([`TraceContext::event`]) tag cache
//!   hits and other instantaneous outcomes.
//! * [`Telemetry`] owns the completed-trace ring buffer (bounded,
//!   lock-sharded), per-stage latency histograms (rendered into
//!   `/metrics` as `xmem_stage_duration_seconds{stage=...}`), and the
//!   leveled JSON request log on stderr. [`Telemetry::finish`] closes a
//!   context: the span timeline lands in the ring (served by
//!   `GET /v1/debug/traces`), the histograms absorb each span, and one
//!   structured log line is emitted when the level and the slow-request
//!   threshold say so.
//!
//! Span names come from a fixed registry ([`STAGE_NAMES`]) so the
//! histogram label set is bounded no matter what traffic arrives.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant, SystemTime};

/// The header carrying a trace id across the cluster wire (and in from
/// tracing-aware clients): 32 lowercase hex characters (128 bits).
pub const TRACE_HEADER: &str = "x-xmem-trace-id";

/// Every span name the service records. Fixed so the `stage` label set
/// on the Prometheus histograms is bounded; unknown names (from future
/// callers) collapse into `"other"`.
pub const STAGE_NAMES: [&str; 15] = [
    "pool.queue",
    "service.call",
    "cache.stage",
    "cache.sim",
    "cache.negative",
    "flight.stage",
    "stage.profile",
    "stage.analyze",
    "sim.replay",
    "sim.unbounded",
    "sim.incremental",
    "sweep.param_fit",
    "persist.journal",
    "cluster.forward",
    "other",
];

/// One recorded span: a named slice of a request's timeline with an
/// outcome tag (`hit`, `miss`, `fast-path`, `full-replay`, `forwarded`,
/// `fallback`, ...). Offsets are nanoseconds from the trace's start.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Span id, unique within the trace (1-based, in start order).
    pub id: u64,
    /// Registered span name (see [`STAGE_NAMES`]).
    pub name: &'static str,
    /// Start offset from the trace's first instant, in nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for instantaneous events).
    pub duration_ns: u64,
    /// Outcome tag; empty when the span had nothing to report.
    pub outcome: &'static str,
}

#[derive(Debug)]
struct TraceInner {
    trace_id: u128,
    started: Instant,
    start_unix_ms: u64,
    next_span: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

/// A request-scoped tracing handle: clone-cheap (one `Arc`), `Sync` so
/// one request's context can cross the service's scoped worker threads,
/// and inert when disabled.
#[derive(Debug, Clone)]
pub struct TraceContext {
    inner: Option<Arc<TraceInner>>,
}

impl TraceContext {
    /// A context that records nothing; every operation is one branch.
    #[must_use]
    pub fn disabled() -> Self {
        TraceContext { inner: None }
    }

    /// A fresh recording context with a newly generated trace id.
    #[must_use]
    pub fn new() -> Self {
        TraceContext::with_trace_id(fresh_trace_id())
    }

    /// A recording context under an existing trace id (a forwarded hop
    /// adopting the ingress node's id).
    #[must_use]
    pub fn with_trace_id(trace_id: u128) -> Self {
        TraceContext {
            inner: Some(Arc::new(TraceInner {
                trace_id,
                started: Instant::now(),
                start_unix_ms: unix_ms(),
                next_span: AtomicU64::new(1),
                spans: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Whether this context records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The trace id, or `None` when disabled.
    #[must_use]
    pub fn trace_id(&self) -> Option<u128> {
        self.inner.as_ref().map(|inner| inner.trace_id)
    }

    /// The trace id as the 32-hex-char wire form, or `None` when
    /// disabled.
    #[must_use]
    pub fn trace_id_hex(&self) -> Option<String> {
        self.trace_id().map(trace_id_hex)
    }

    /// Starts a named span; dropping the returned guard records it. On
    /// a disabled context the span reads no clock.
    #[must_use]
    pub fn span(&self, name: &'static str) -> Span {
        let start = self.inner.as_ref().map(|inner| {
            let started = Instant::now();
            let start_ns = started.duration_since(inner.started).as_nanos() as u64;
            (start_ns, started)
        });
        Span {
            ctx: self.clone(),
            name,
            start,
            // A span that never tags itself completed normally.
            outcome: "ok",
        }
    }

    /// Records an instantaneous event (a cache hit, a journal append):
    /// a zero-duration span.
    pub fn event(&self, name: &'static str, outcome: &'static str) {
        if let Some(inner) = &self.inner {
            let start_ns = inner.started.elapsed().as_nanos() as u64;
            inner.record(name, start_ns, 0, outcome);
        }
    }

    /// Elapsed time since the trace began (zero when disabled).
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.inner
            .as_ref()
            .map(|inner| inner.started.elapsed())
            .unwrap_or_default()
    }

    fn snapshot(&self) -> Option<(u128, u64, u64, Vec<SpanRecord>)> {
        let inner = self.inner.as_ref()?;
        let duration_ns = inner.started.elapsed().as_nanos() as u64;
        let spans = std::mem::take(&mut *inner.spans.lock().expect("trace spans poisoned"));
        Some((inner.trace_id, inner.start_unix_ms, duration_ns, spans))
    }
}

impl Default for TraceContext {
    fn default() -> Self {
        TraceContext::disabled()
    }
}

impl TraceInner {
    fn record(&self, name: &'static str, start_ns: u64, duration_ns: u64, outcome: &'static str) {
        let id = self.next_span.fetch_add(1, Ordering::Relaxed);
        let mut spans = self.spans.lock().expect("trace spans poisoned");
        // A runaway caller cannot grow one trace without bound.
        if spans.len() < MAX_SPANS_PER_TRACE {
            spans.push(SpanRecord {
                id,
                name,
                start_ns,
                duration_ns,
                outcome,
            });
        }
    }
}

/// Hard cap on spans per trace — a single pathological request (a huge
/// matrix) cannot balloon the ring buffer's memory.
const MAX_SPANS_PER_TRACE: usize = 256;

/// RAII span guard (see [`TraceContext::span`]): records on drop. Owned
/// (`Send`), so a span can travel into a worker-pool closure and close
/// there — that is exactly how queue-wait time is measured.
#[derive(Debug)]
pub struct Span {
    ctx: TraceContext,
    name: &'static str,
    /// Start offset from the trace's start and the instant it was read;
    /// `None` when the context is disabled or the span was discarded.
    start: Option<(u64, Instant)>,
    outcome: &'static str,
}

impl Span {
    /// Tags the span's outcome (recorded at drop).
    pub fn set_outcome(&mut self, outcome: &'static str) {
        self.outcome = outcome;
    }

    /// Ends the span now (sugar for dropping it).
    pub fn finish(self) {}

    /// Drops the span without recording it: the work it was opened for
    /// turned out to belong to another span.
    pub(crate) fn discard(mut self) {
        self.start = None;
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let (Some(inner), Some((start_ns, started))) = (&self.ctx.inner, self.start) {
            let duration_ns = started.elapsed().as_nanos() as u64;
            inner.record(self.name, start_ns, duration_ns, self.outcome);
        }
    }
}

/// One completed request trace, as served by `GET /v1/debug/traces`.
#[derive(Debug, Clone)]
pub struct CompletedTrace {
    /// The 128-bit trace id (shared across cluster hops).
    pub trace_id: u128,
    /// Request method (`GET`, `POST`).
    pub method: String,
    /// Request path (query string stripped).
    pub path: String,
    /// Response status code.
    pub status: u16,
    /// Wall-clock start, milliseconds since the Unix epoch.
    pub start_unix_ms: u64,
    /// End-to-end duration in nanoseconds.
    pub duration_ns: u64,
    /// Whether this hop served a cluster-forwarded request (the remote
    /// side of a stitched trace).
    pub forwarded: bool,
    /// The span timeline, in recording order.
    pub spans: Vec<SpanRecord>,
}

/// Log verbosity of the per-request JSON log line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// No request logging (traces and histograms still record).
    Off,
    /// Only 5xx responses.
    Error,
    /// 5xx, 4xx, and slow requests (past the slow threshold).
    Warn,
    /// Every request.
    Info,
}

impl LogLevel {
    /// Parses a CLI-style level name.
    ///
    /// # Errors
    /// Returns the unrecognized input.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "off" => Ok(LogLevel::Off),
            "error" => Ok(LogLevel::Error),
            "warn" => Ok(LogLevel::Warn),
            "info" => Ok(LogLevel::Info),
            other => Err(format!(
                "unknown log level `{other}` (expected off|error|warn|info)"
            )),
        }
    }
}

/// Configuration of a [`Telemetry`] instance.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Completed traces retained across the ring's shards.
    pub capacity: usize,
    /// Lock shards in the trace ring.
    pub shards: usize,
    /// Request-log verbosity (stderr). [`LogLevel::Off`] by default:
    /// embedded and test servers stay silent; `xmem-cli listen` turns
    /// it on.
    pub log_level: LogLevel,
    /// Requests slower than this log at `warn` and are marked
    /// `"slow":true`. `0` disables slow marking.
    pub slow_ms: u64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            capacity: 256,
            shards: 8,
            log_level: LogLevel::Off,
            slow_ms: 0,
        }
    }
}

impl TelemetryConfig {
    /// Overrides the retained-trace capacity.
    #[must_use]
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Overrides the request-log level.
    #[must_use]
    pub fn with_log_level(mut self, level: LogLevel) -> Self {
        self.log_level = level;
        self
    }

    /// Overrides the slow-request threshold (milliseconds).
    #[must_use]
    pub fn with_slow_ms(mut self, slow_ms: u64) -> Self {
        self.slow_ms = slow_ms;
        self
    }
}

/// Histogram bounds for per-stage durations: 1µs to 10s. Stage work
/// spans sub-µs cache hits to multi-second cold sweeps, so the grid is
/// finer at the bottom than the HTTP request histogram's.
const STAGE_BUCKET_BOUNDS_NS: [u64; 12] = [
    1_000,
    10_000,
    50_000,
    100_000,
    500_000,
    1_000_000,
    5_000_000,
    10_000_000,
    50_000_000,
    100_000_000,
    500_000_000,
    1_000_000_000,
];

#[derive(Debug)]
struct StageHistogram {
    buckets: [AtomicU64; STAGE_BUCKET_BOUNDS_NS.len()],
    over: AtomicU64,
    sum_ns: AtomicU64,
    count: AtomicU64,
}

impl StageHistogram {
    fn new() -> Self {
        StageHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            over: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    fn observe_ns(&self, ns: u64) {
        match STAGE_BUCKET_BOUNDS_NS.iter().position(|&bound| ns <= bound) {
            Some(i) => self.buckets[i].fetch_add(1, Ordering::Relaxed),
            None => self.over.fetch_add(1, Ordering::Relaxed),
        };
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }
}

#[derive(Debug)]
struct TelemetryInner {
    /// Each ring holds its traces with the sequence number `finish` drew
    /// for them, which orders traces by completion across rings.
    shards: Vec<Mutex<VecDeque<(usize, CompletedTrace)>>>,
    per_shard_cap: usize,
    /// The next trace's sequence number; it also picks the trace's ring.
    next_seq: AtomicUsize,
    histograms: Vec<StageHistogram>,
    log_level: LogLevel,
    slow_ms: u64,
}

/// The telemetry sink: trace ring, stage histograms, request log.
/// Clone-cheap; a disabled instance ([`Telemetry::disabled`]) records
/// nothing and serves empty surfaces.
#[derive(Debug, Clone)]
pub struct Telemetry {
    inner: Option<Arc<TelemetryInner>>,
}

impl Telemetry {
    /// Creates an enabled telemetry sink.
    #[must_use]
    pub fn new(config: TelemetryConfig) -> Self {
        let shards = config.shards.max(1);
        let per_shard_cap = config.capacity.div_ceil(shards).max(1);
        Telemetry {
            inner: Some(Arc::new(TelemetryInner {
                shards: (0..shards).map(|_| Mutex::new(VecDeque::new())).collect(),
                per_shard_cap,
                next_seq: AtomicUsize::new(0),
                histograms: STAGE_NAMES.iter().map(|_| StageHistogram::new()).collect(),
                log_level: config.log_level,
                slow_ms: config.slow_ms,
            })),
        }
    }

    /// A sink that records nothing; [`begin_trace`](Self::begin_trace)
    /// hands out disabled contexts.
    #[must_use]
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// Whether this sink records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a trace for one request: adopts the trace id from a valid
    /// `x-xmem-trace-id` header value (a forwarded hop, or a
    /// tracing-aware client), otherwise generates a fresh one. Disabled
    /// sinks hand out disabled contexts.
    #[must_use]
    pub fn begin_trace(&self, header: Option<&str>) -> TraceContext {
        if self.inner.is_none() {
            return TraceContext::disabled();
        }
        match header.and_then(parse_trace_id) {
            Some(id) => TraceContext::with_trace_id(id),
            None => TraceContext::new(),
        }
    }

    /// Closes a trace: the span timeline lands in the ring buffer, the
    /// per-stage histograms absorb every span, and (level permitting)
    /// one JSON log line goes to stderr. A disabled context is a no-op.
    pub fn finish(
        &self,
        ctx: &TraceContext,
        method: &str,
        path: &str,
        status: u16,
        forwarded: bool,
    ) {
        let Some(inner) = &self.inner else { return };
        let Some((trace_id, start_unix_ms, duration_ns, spans)) = ctx.snapshot() else {
            return;
        };
        for span in &spans {
            let index = STAGE_NAMES
                .iter()
                .position(|&name| name == span.name)
                .unwrap_or(STAGE_NAMES.len() - 1);
            inner.histograms[index].observe_ns(span.duration_ns);
        }
        let trace = CompletedTrace {
            trace_id,
            method: method.to_string(),
            path: path.to_string(),
            status,
            start_unix_ms,
            duration_ns,
            forwarded,
            spans,
        };
        inner.log(&trace);
        let seq = inner.next_seq.fetch_add(1, Ordering::Relaxed);
        let mut ring = inner.shards[seq % inner.shards.len()]
            .lock()
            .expect("trace ring poisoned");
        if ring.len() >= inner.per_shard_cap {
            ring.pop_front();
        }
        ring.push_back((seq, trace));
    }

    /// The most recently finished traces, newest first: at most `n`,
    /// filtered to those slower than `slow_ms` when given.
    #[must_use]
    pub fn recent_traces(&self, n: usize, slow_ms: Option<u64>) -> Vec<CompletedTrace> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut traces: Vec<(usize, CompletedTrace)> = Vec::new();
        for shard in &inner.shards {
            let ring = shard.lock().expect("trace ring poisoned");
            traces.extend(ring.iter().cloned());
        }
        if let Some(slow_ms) = slow_ms {
            traces.retain(|(_, t)| t.duration_ns >= slow_ms.saturating_mul(1_000_000));
        }
        // Newest first by finish order: `start_unix_ms` has millisecond
        // resolution, so it cannot order traces finished in one
        // millisecond.
        traces.sort_unstable_by_key(|&(seq, _)| std::cmp::Reverse(seq));
        traces.truncate(n);
        traces.into_iter().map(|(_, trace)| trace).collect()
    }

    /// Renders [`recent_traces`](Self::recent_traces) as the
    /// `/v1/debug/traces` JSON body.
    #[must_use]
    pub fn traces_json(&self, n: usize, slow_ms: Option<u64>) -> String {
        use serde::Value;
        let traces: Vec<Value> = self
            .recent_traces(n, slow_ms)
            .into_iter()
            .map(|trace| {
                let spans: Vec<Value> = trace
                    .spans
                    .iter()
                    .map(|span| {
                        Value::Object(vec![
                            ("id".to_string(), Value::U64(span.id)),
                            ("name".to_string(), Value::Str(span.name.to_string())),
                            ("start_ns".to_string(), Value::U64(span.start_ns)),
                            ("duration_ns".to_string(), Value::U64(span.duration_ns)),
                            ("outcome".to_string(), Value::Str(span.outcome.to_string())),
                        ])
                    })
                    .collect();
                Value::Object(vec![
                    (
                        "trace_id".to_string(),
                        Value::Str(trace_id_hex(trace.trace_id)),
                    ),
                    ("method".to_string(), Value::Str(trace.method)),
                    ("path".to_string(), Value::Str(trace.path)),
                    ("status".to_string(), Value::U64(u64::from(trace.status))),
                    ("start_unix_ms".to_string(), Value::U64(trace.start_unix_ms)),
                    ("duration_ns".to_string(), Value::U64(trace.duration_ns)),
                    ("forwarded".to_string(), Value::Bool(trace.forwarded)),
                    ("spans".to_string(), Value::Array(spans)),
                ])
            })
            .collect();
        let body = Value::Object(vec![("traces".to_string(), Value::Array(traces))]);
        serde_json::to_string(&body).expect("trace JSON renders")
    }

    /// Appends the `xmem_stage_duration_seconds` histogram family to a
    /// Prometheus exposition. Only stages that have recorded at least
    /// one span emit series; the HELP/TYPE header is emitted once.
    pub fn render_prometheus(&self, out: &mut String) {
        let Some(inner) = &self.inner else { return };
        out.push_str(
            "# HELP xmem_stage_duration_seconds Per-stage span durations from request traces.\n",
        );
        out.push_str("# TYPE xmem_stage_duration_seconds histogram\n");
        for (name, histogram) in STAGE_NAMES.iter().zip(&inner.histograms) {
            let count = histogram.count.load(Ordering::Relaxed);
            if count == 0 {
                continue;
            }
            let mut cumulative = 0u64;
            for (&bound, bucket) in STAGE_BUCKET_BOUNDS_NS.iter().zip(&histogram.buckets) {
                cumulative += bucket.load(Ordering::Relaxed);
                out.push_str(&format!(
                    "xmem_stage_duration_seconds_bucket{{stage=\"{name}\",le=\"{}\"}} {cumulative}\n",
                    bound as f64 / 1e9
                ));
            }
            cumulative += histogram.over.load(Ordering::Relaxed);
            out.push_str(&format!(
                "xmem_stage_duration_seconds_bucket{{stage=\"{name}\",le=\"+Inf\"}} {cumulative}\n"
            ));
            out.push_str(&format!(
                "xmem_stage_duration_seconds_sum{{stage=\"{name}\"}} {}\n",
                histogram.sum_ns.load(Ordering::Relaxed) as f64 / 1e9
            ));
            out.push_str(&format!(
                "xmem_stage_duration_seconds_count{{stage=\"{name}\"}} {count}\n"
            ));
        }
    }
}

impl TelemetryInner {
    /// Emits the per-request JSON log line when the level says so.
    fn log(&self, trace: &CompletedTrace) {
        let duration_ms = trace.duration_ns as f64 / 1e6;
        let slow = self.slow_ms > 0 && trace.duration_ns >= self.slow_ms.saturating_mul(1_000_000);
        let level = if trace.status >= 500 {
            "error"
        } else if slow || trace.status >= 400 {
            "warn"
        } else {
            "info"
        };
        let emit = match self.log_level {
            LogLevel::Off => false,
            LogLevel::Error => level == "error",
            LogLevel::Warn => level != "info",
            LogLevel::Info => true,
        };
        if !emit {
            return;
        }
        use serde::Value;
        let mut entries = vec![
            ("ts_ms".to_string(), Value::U64(unix_ms())),
            ("level".to_string(), Value::Str(level.to_string())),
            (
                "trace_id".to_string(),
                Value::Str(trace_id_hex(trace.trace_id)),
            ),
            ("method".to_string(), Value::Str(trace.method.clone())),
            ("path".to_string(), Value::Str(trace.path.clone())),
            ("status".to_string(), Value::U64(u64::from(trace.status))),
            ("duration_ms".to_string(), Value::F64(duration_ms)),
            ("spans".to_string(), Value::U64(trace.spans.len() as u64)),
            ("forwarded".to_string(), Value::Bool(trace.forwarded)),
        ];
        if slow {
            entries.push(("slow".to_string(), Value::Bool(true)));
        }
        // One write call per line: concurrent workers' lines interleave
        // whole, never mid-record.
        eprintln!(
            "{}",
            serde_json::to_string(&Value::Object(entries)).expect("log line renders")
        );
    }
}

/// The wire form of a trace id: 32 lowercase hex chars.
#[must_use]
pub fn trace_id_hex(id: u128) -> String {
    format!("{id:032x}")
}

/// Parses the wire form back; `None` for anything malformed (wrong
/// length, non-hex, or the reserved all-zero id).
#[must_use]
pub fn parse_trace_id(s: &str) -> Option<u128> {
    if s.len() != 32 {
        return None;
    }
    let id = u128::from_str_radix(s, 16).ok()?;
    (id != 0).then_some(id)
}

fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Generates a process-unique 128-bit trace id without a PRNG
/// dependency: a per-process random seed (`RandomState`) hashed over a
/// monotone counter and the wall clock.
fn fresh_trace_id() -> u128 {
    use std::collections::hash_map::RandomState;
    use std::hash::{BuildHasher, Hasher};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    static SEED: OnceLock<RandomState> = OnceLock::new();
    let seed = SEED.get_or_init(RandomState::new);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let clock = unix_ms();
    let mut high = seed.build_hasher();
    high.write_u64(n);
    high.write_u64(clock);
    high.write_u64(0x9e37_79b9_7f4a_7c15);
    let mut low = seed.build_hasher();
    low.write_u64(!n);
    low.write_u64(clock.rotate_left(17));
    low.write_u64(0xc2b2_ae3d_27d4_eb4f);
    let id = (u128::from(high.finish()) << 64) | u128::from(low.finish());
    if id == 0 {
        // The reserved id; vanishingly unlikely, but stay correct.
        1
    } else {
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_context_records_nothing_and_is_cheap() {
        let ctx = TraceContext::disabled();
        assert!(!ctx.is_enabled());
        assert!(ctx.trace_id().is_none());
        let mut span = ctx.span("stage.profile");
        assert!(span.start.is_none(), "a disabled span holds no instant");
        span.set_outcome("hit");
        drop(span);
        ctx.event("cache.stage", "hit");
        // Nothing to snapshot.
        assert!(ctx.snapshot().is_none());
    }

    #[test]
    fn spans_and_events_land_in_the_completed_trace() {
        let telemetry = Telemetry::new(TelemetryConfig::default());
        let ctx = telemetry.begin_trace(None);
        ctx.event("cache.stage", "miss");
        {
            let mut span = ctx.span("stage.profile");
            std::thread::sleep(Duration::from_millis(2));
            span.set_outcome("ok");
        }
        telemetry.finish(&ctx, "POST", "/v1/estimate", 200, false);

        let traces = telemetry.recent_traces(10, None);
        assert_eq!(traces.len(), 1);
        let trace = &traces[0];
        assert_eq!(trace.method, "POST");
        assert_eq!(trace.path, "/v1/estimate");
        assert_eq!(trace.status, 200);
        assert!(!trace.forwarded);
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.spans[0].name, "cache.stage");
        assert_eq!(trace.spans[0].outcome, "miss");
        assert_eq!(trace.spans[0].duration_ns, 0);
        assert_eq!(trace.spans[1].name, "stage.profile");
        assert!(trace.spans[1].duration_ns >= 2_000_000);
        assert!(trace.duration_ns >= trace.spans[1].duration_ns);
    }

    #[test]
    fn trace_ids_are_adopted_from_the_header_and_round_trip() {
        let telemetry = Telemetry::new(TelemetryConfig::default());
        let fresh = telemetry.begin_trace(None);
        let hex = fresh.trace_id_hex().expect("enabled context has an id");
        assert_eq!(hex.len(), 32);
        let adopted = telemetry.begin_trace(Some(&hex));
        assert_eq!(adopted.trace_id(), fresh.trace_id());
        // Malformed headers fall back to a fresh id.
        for bad in ["", "xyz", "1234", &"g".repeat(32)] {
            let ctx = telemetry.begin_trace(Some(bad));
            assert!(ctx.trace_id().is_some());
            assert_ne!(ctx.trace_id_hex().as_deref(), Some(bad));
        }
        assert_eq!(parse_trace_id(&trace_id_hex(42)), Some(42));
        assert_eq!(parse_trace_id(&"0".repeat(32)), None, "zero id reserved");
    }

    #[test]
    fn fresh_ids_are_distinct() {
        let a = TraceContext::new();
        let b = TraceContext::new();
        assert_ne!(a.trace_id(), b.trace_id());
    }

    #[test]
    fn ring_buffer_is_bounded_and_slow_filter_applies() {
        let telemetry = Telemetry::new(TelemetryConfig::default().with_capacity(8));
        for i in 0..50u16 {
            let ctx = telemetry.begin_trace(None);
            ctx.event("cache.stage", "hit");
            telemetry.finish(&ctx, "GET", "/healthz", 200 + i % 2, false);
        }
        let traces = telemetry.recent_traces(100, None);
        assert!(
            traces.len() <= 8,
            "ring must stay bounded: {}",
            traces.len()
        );
        // Everything here completed in well under a minute.
        assert!(telemetry.recent_traces(100, Some(60_000)).is_empty());
        assert_eq!(telemetry.recent_traces(2, None).len(), 2, "last-N caps");
    }

    #[test]
    fn the_newest_of_two_traces_finished_in_one_millisecond_comes_first() {
        let telemetry = Telemetry::new(TelemetryConfig::default());
        // The older trace gets the larger id, so an order that falls back
        // to the id on a millisecond tie puts it first.
        let (older, newer) = loop {
            let older = TraceContext::with_trace_id(2);
            let newer = TraceContext::with_trace_id(1);
            let start_ms = |ctx: &TraceContext| ctx.inner.as_ref().map(|inner| inner.start_unix_ms);
            if start_ms(&older) == start_ms(&newer) {
                break (older, newer);
            }
        };
        telemetry.finish(&older, "GET", "/older", 200, false);
        telemetry.finish(&newer, "GET", "/newer", 200, false);
        let newest = telemetry.recent_traces(1, None);
        assert_eq!(newest.len(), 1);
        assert_eq!(newest[0].path, "/newer");
        let both: Vec<u128> = telemetry
            .recent_traces(2, None)
            .iter()
            .map(|trace| trace.trace_id)
            .collect();
        assert_eq!(both, [1, 2], "newest first");
    }

    #[test]
    fn traces_json_shape_is_stable() {
        let telemetry = Telemetry::new(TelemetryConfig::default());
        let ctx = telemetry.begin_trace(None);
        ctx.event("cache.sim", "hit");
        telemetry.finish(&ctx, "POST", "/v1/estimate", 200, true);
        let json = telemetry.traces_json(10, None);
        for needle in [
            "\"traces\":[",
            "\"trace_id\":\"",
            "\"method\":\"POST\"",
            "\"path\":\"/v1/estimate\"",
            "\"status\":200",
            "\"forwarded\":true",
            "\"spans\":[",
            "\"name\":\"cache.sim\"",
            "\"outcome\":\"hit\"",
        ] {
            assert!(json.contains(needle), "missing `{needle}` in {json}");
        }
    }

    #[test]
    fn stage_histograms_render_only_recorded_stages() {
        let telemetry = Telemetry::new(TelemetryConfig::default());
        let ctx = telemetry.begin_trace(None);
        ctx.span("stage.profile").finish();
        telemetry.finish(&ctx, "POST", "/v1/estimate", 200, false);
        let mut out = String::new();
        telemetry.render_prometheus(&mut out);
        assert_eq!(
            out.matches("# TYPE xmem_stage_duration_seconds histogram")
                .count(),
            1
        );
        assert!(out.contains("xmem_stage_duration_seconds_count{stage=\"stage.profile\"} 1"));
        assert!(out.contains("le=\"+Inf\"}"));
        assert!(
            !out.contains("stage=\"sim.replay\""),
            "unrecorded stages must not emit series"
        );
    }

    #[test]
    fn span_cap_bounds_a_pathological_trace() {
        let ctx = TraceContext::new();
        for _ in 0..(MAX_SPANS_PER_TRACE + 50) {
            ctx.event("cache.stage", "hit");
        }
        let (_, _, _, spans) = ctx.snapshot().expect("enabled context snapshots");
        assert_eq!(spans.len(), MAX_SPANS_PER_TRACE);
    }

    #[test]
    fn disabled_telemetry_serves_empty_surfaces() {
        let telemetry = Telemetry::disabled();
        let ctx = telemetry.begin_trace(Some(&trace_id_hex(7)));
        assert!(!ctx.is_enabled());
        telemetry.finish(&ctx, "GET", "/healthz", 200, false);
        assert!(telemetry.recent_traces(10, None).is_empty());
        assert_eq!(telemetry.traces_json(10, None), "{\"traces\":[]}");
        let mut out = String::new();
        telemetry.render_prometheus(&mut out);
        assert!(out.is_empty());
    }
}
