//! The traced pass: replays a workload's request sequence in process,
//! calling each layer's public functions from this file and timing them
//! from outside.
//!
//! Per request the spans are `wire.parse` (`RequestParser::feed` +
//! `poll`), `api.decode` (`serde_json::from_str` + `jobspec`),
//! `pool` (a `WorkerPool` hand-off sized like the server's, settled
//! through `PoolFuture::wait`) around `service.call` (the
//! `EstimationService` entry point the route's handler reaches),
//! `api.render` (`api::*_body`) and `wire.write` (`Response::to_bytes`).
//! The default-device estimate is split into `stages` plus
//! `Estimator::estimate_analyzed` so its replay is timed as `sim.replay`.
//! Inside the service, the program's existing telemetry supplies the
//! `stage.profile`, `stage.analyze`, `sim.replay` and `sweep.param_fit`
//! spans; no span is added to the program. Spans stay in memory until the
//! pass ends.
//!
//! Requests run one at a time, in sequence order, on a fresh service, so
//! the service's counters repeat exactly at a fixed seed.

use crate::workload::Workload;
use serde::Value;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use xmem_core::{DeviceMatrix, DevicePlacement, Estimate, EstimateError, Estimator};
use xmem_runtime::{GpuDevice, TrainJobSpec};
use xmem_server::{api, RequestParser, Response, WireLimits};
use xmem_service::jobspec::{job_from_value, job_from_value_with_batch, usize_field};
use xmem_service::telemetry::trace_id_hex;
use xmem_service::{
    promise_pair, CacheStats, DeviceRegistry, EstimationService, LogLevel, ProfiledStages,
    ServiceConfig, SimStats, SpanRecord, Telemetry, TelemetryConfig, TraceContext, WorkerPool,
};

/// Default-device replays whose event count is sampled.
const EVENT_SAMPLE: usize = 32;

/// The submission queue depth `xmem-cli listen` gives its pool.
const POOL_QUEUE_DEPTH: usize = 1024;

/// A decoded request: what the route's handler hands the service.
enum Call {
    Estimate(TrainJobSpec),
    Matrix(Vec<TrainJobSpec>, Vec<String>),
    BestDevice(TrainJobSpec),
    Plan(TrainJobSpec, GpuDevice, usize, usize),
}

#[derive(Clone)]
enum Outcome {
    Estimate(Estimate),
    Matrix(DeviceMatrix),
    Placement(Option<DevicePlacement>),
    Plan(Option<usize>),
}

/// A default-device replay: its start and end, and the stages replayed.
type Replay = (Instant, Instant, Arc<ProfiledStages>);

/// Instants the pool worker records around the service call.
#[derive(Clone)]
struct CallTimes {
    start: Instant,
    end: Instant,
    /// The default-device replay and the stages it replayed, when the
    /// call made one.
    replay: Option<Replay>,
}

/// One replayed request's outside-in timeline, in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct RequestSpans {
    pub route: &'static str,
    pub setup: bool,
    pub parse: u64,
    pub decode: u64,
    pub pool: u64,
    pub call: u64,
    pub render: u64,
    pub write: u64,
    pub body_bytes: usize,
    /// [`fnv1a`] of the rendered body, to compare with the server's.
    pub body_hash: u64,
    /// The default-device replay as (start, duration) from the trace
    /// start.
    pub replay: Option<(u64, u64)>,
    /// The program's own spans under this request's trace id.
    pub inner: Vec<SpanRecord>,
}

impl RequestSpans {
    pub fn total(&self) -> u64 {
        self.parse + self.decode + self.pool + self.render + self.write
    }
}

/// Service counters read around the measured part of the pass.
#[derive(Debug, Clone, Copy)]
pub struct Counters {
    pub stage: CacheStats,
    pub sim: SimStats,
    pub params: CacheStats,
    pub profile_runs: u64,
}

impl Counters {
    fn read(service: &EstimationService) -> Self {
        Counters {
            stage: service.cache_stats(),
            sim: service.sim_stats(),
            params: service.param_cache_stats(),
            profile_runs: service.profile_runs(),
        }
    }
}

/// Everything one pass produced.
pub struct Pass {
    pub requests: Vec<RequestSpans>,
    pub before: Counters,
    pub after: Counters,
    pub wall_s: f64,
    /// Allocator events per replay, over the first distinct analyses the
    /// default-device path replayed.
    pub events_per_replay: Option<f64>,
}

/// Builds the service the way `xmem-cli listen` does at default flags.
fn service_like_listen(registry: &DeviceRegistry, device: GpuDevice) -> Arc<EstimationService> {
    Arc::new(EstimationService::new(
        ServiceConfig::for_device(device).with_registry(registry.clone()),
    ))
}

fn decode(query_path: &str, body: &Value, service: &EstimationService) -> Result<Call, String> {
    let entries = body.as_object().ok_or("body must be an object")?;
    let job = |value: &Value| {
        let inner = serde::obj_get(value.as_object().ok_or("job")?, "job").unwrap_or(value);
        job_from_value(inner)
    };
    Ok(match query_path {
        "/v1/estimate" => Call::Estimate(job(body)?),
        "/v1/best-device" => Call::BestDevice(job(body)?),
        "/v1/matrix" => {
            let jobs = serde::obj_get(entries, "jobs")
                .and_then(Value::as_array)
                .ok_or("jobs")?;
            let specs = jobs.iter().map(job_from_value).collect::<Result<_, _>>()?;
            Call::Matrix(specs, service.registry().names())
        }
        "/v1/plan" => {
            let name = match serde::obj_get(entries, "device") {
                Some(Value::Str(name)) => name.clone(),
                _ => return Err("device".to_string()),
            };
            let device = service.registry().get(&name).ok_or("unknown device")?;
            let lo = usize_field(entries, "min")?.unwrap_or(1);
            let hi = usize_field(entries, "max")?.unwrap_or(1024);
            let job_value = serde::obj_get(entries, "job").unwrap_or(body);
            Call::Plan(
                job_from_value_with_batch(job_value, Some(lo))?,
                device,
                lo,
                hi,
            )
        }
        other => return Err(format!("no route {other}")),
    })
}

fn execute(
    service: &EstimationService,
    estimator: &Estimator,
    call: &Call,
    ctx: &TraceContext,
) -> Result<(Outcome, Option<Replay>), EstimateError> {
    Ok(match call {
        Call::Estimate(spec) => {
            let stages = service.stages_traced(spec, ctx)?;
            let start = Instant::now();
            let estimate = estimator.estimate_analyzed(&stages.analyzed);
            (
                Outcome::Estimate(estimate),
                Some((start, Instant::now(), stages)),
            )
        }
        Call::Matrix(specs, names) => {
            let names: Vec<&str> = names.iter().map(String::as_str).collect();
            let matrix = service.estimate_matrix_traced(specs, &names, ctx)?;
            (Outcome::Matrix(matrix), None)
        }
        Call::BestDevice(spec) => (
            Outcome::Placement(service.best_device_for_job_traced(spec, ctx)?),
            None,
        ),
        Call::Plan(spec, device, lo, hi) => (
            Outcome::Plan(service.max_batch_for_device_traced(spec, *device, *lo, *hi, ctx)?),
            None,
        ),
    })
}

fn render(outcome: &Outcome) -> String {
    match outcome {
        Outcome::Estimate(estimate) => api::estimate_body(estimate),
        Outcome::Matrix(matrix) => api::matrix_body(matrix),
        Outcome::Placement(placement) => api::placement_body(placement.as_ref()),
        Outcome::Plan(batch) => api::plan_body(*batch),
    }
}

/// Replays the workload's setup and its first `trace_requests` measured
/// requests on a fresh service. `traced` turns on the program's span
/// recording; off, the pass is the untraced baseline of the same calls.
pub fn replay(
    workload: &Workload,
    registry: &DeviceRegistry,
    device: GpuDevice,
    traced: bool,
) -> Result<Pass, String> {
    let service = service_like_listen(registry, device);
    let estimator = Arc::new(Estimator::new(service.config().estimator.clone()));
    let workers = std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
    let pool = WorkerPool::new(workers, POOL_QUEUE_DEPTH);
    let measured = &workload.measured[..workload.trace_requests.min(workload.measured.len())];
    let sequence: Vec<(bool, u32)> = workload
        .setup
        .iter()
        .map(|&s| (true, s))
        .chain(measured.iter().map(|&s| (false, s)))
        .collect();
    let telemetry = Telemetry::new(
        TelemetryConfig::default()
            .with_capacity(sequence.len())
            .with_log_level(LogLevel::Off),
    );
    let mut requests = Vec::with_capacity(sequence.len());
    let mut before = Counters::read(&service);
    let mut replayed: Vec<Arc<ProfiledStages>> = Vec::new();
    let mut measuring = false;
    let started = Instant::now();
    for (index, &(setup, slot)) in sequence.iter().enumerate() {
        if !setup && !measuring {
            measuring = true;
            before = Counters::read(&service);
        }
        let entry = &workload.deck[slot as usize];
        let ctx = if traced {
            telemetry.begin_trace(Some(&trace_id_hex(index as u128 + 1)))
        } else {
            TraceContext::disabled()
        };
        let t0 = Instant::now();
        let mut parser = RequestParser::new(WireLimits::default());
        parser.feed(&entry.wire);
        let request = parser
            .poll()
            .map_err(|e| e.to_string())?
            .ok_or("incomplete request")?;
        let t1 = Instant::now();
        let text = std::str::from_utf8(&request.body).map_err(|e| e.to_string())?;
        let body: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let call = decode(request.path(), &body, &service)?;
        let t2 = Instant::now();
        let (promise, future) = promise_pair(None);
        {
            let service = Arc::clone(&service);
            let estimator = Arc::clone(&estimator);
            let ctx = ctx.clone();
            pool.try_execute_settling(promise, move || {
                let start = Instant::now();
                let result = execute(&service, &estimator, &call, &ctx);
                let end = Instant::now();
                result.map(|(outcome, replay)| (outcome, CallTimes { start, end, replay }))
            })
            .map_err(|e| e.to_string())?;
        }
        let (outcome, times) = future.wait().map_err(|e| e.to_string())?;
        let t3 = Instant::now();
        let rendered = render(&outcome);
        let t4 = Instant::now();
        let response = Response::json(200, rendered);
        std::hint::black_box(response.to_bytes(true));
        let t5 = Instant::now();
        let ns = |a: Instant, b: Instant| b.saturating_duration_since(a).as_nanos() as u64;
        if let Some((_, _, stages)) = &times.replay {
            if !setup && replayed.len() < EVENT_SAMPLE {
                replayed.push(Arc::clone(stages));
            }
        }
        requests.push(RequestSpans {
            route: entry.query.path(),
            setup,
            parse: ns(t0, t1),
            decode: ns(t1, t2),
            pool: ns(t2, t3),
            call: ns(times.start, times.end),
            render: ns(t3, t4),
            write: ns(t4, t5),
            body_bytes: response.body.len(),
            body_hash: fnv1a(&response.body),
            replay: times
                .replay
                .as_ref()
                .map(|&(a, b, _)| (ns(t0, a), ns(a, b))),
            inner: Vec::new(),
        });
        if traced {
            telemetry.finish(&ctx, "POST", request.path(), 200, false);
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    let after = Counters::read(&service);
    if traced {
        let mut by_id: HashMap<u128, Vec<SpanRecord>> = telemetry
            .recent_traces(usize::MAX, None)
            .into_iter()
            .map(|t| (t.trace_id, t.spans))
            .collect();
        for (index, request) in requests.iter_mut().enumerate() {
            request.inner = by_id.remove(&(index as u128 + 1)).unwrap_or_default();
        }
    }
    let events_per_replay = (!replayed.is_empty()).then(|| {
        let events: usize = replayed
            .iter()
            .map(|stages| estimator.replay_unbounded(&stages.analyzed).events)
            .sum();
        events as f64 / replayed.len() as f64
    });
    Ok(Pass {
        requests,
        before,
        after,
        wall_s,
        events_per_replay,
    })
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
