//! The HTTP API surface: request-body grammar, response-body rendering,
//! and the handler for each `/v1` route.
//!
//! Request bodies reuse the one job-spec grammar every ingress shares
//! ([`xmem_service::jobspec`]); response bodies are rendered through the
//! functions here, which tests and clients call directly — a loopback
//! response is **byte-identical** to rendering the result of the
//! equivalent direct service call.
//!
//! Every estimation failure maps to a stable JSON error body
//! `{"error":{"kind":"...","message":"..."}}` with a status code per
//! [`EstimateError`] variant (see [`estimate_error_response`]).

use crate::wire::{push_json_string, Request, Response};
use serde::Value;
use std::fmt::Write as _;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xmem_core::{AnalysisStats, DeviceMatrix, DevicePlacement, Estimate, EstimateError};
use xmem_runtime::{Precision, TrainJobSpec, ZeroGradPos};
use xmem_service::jobspec::{
    self, batch_grid, batch_range, job_from_value, usize_field, BATCH_RANGE_ERROR,
};
use xmem_service::{AsyncEstimationService, SubmitError, TraceContext};

/// Renders a stable JSON error body.
#[must_use]
pub fn error_body(kind: &str, message: &str) -> String {
    let mut out = String::with_capacity(32 + kind.len() + message.len());
    out.push_str("{\"error\":");
    push_error(&mut out, kind, message);
    out.push('}');
    out
}

/// A `400` with a `bad_request` error body.
#[must_use]
pub fn bad_request(message: &str) -> Response {
    Response::json(400, error_body("bad_request", message))
}

/// Maps a jobspec validation failure to its wire shape: the batch range
/// violation ([`BATCH_RANGE_ERROR`]) is `422 invalid_job` (the body
/// parsed; the job is
/// semantically out of range), every other message stays the `400`
/// grammar error. Matched by suffix so route-added prefixes
/// (`jobs[3]: ...`) keep the mapping.
#[must_use]
pub fn job_error_response(message: &str) -> Response {
    if message.ends_with(BATCH_RANGE_ERROR) {
        Response::json(422, error_body("invalid_job", message))
    } else {
        bad_request(message)
    }
}

/// The backpressure answer: `503` + `Retry-After`, a stable `busy` body.
#[must_use]
pub fn busy_response() -> Response {
    Response::json(503, error_body("busy", "submission queue is full; retry"))
        .with_header("retry-after", "1")
}

/// Maps an [`EstimateError`] to its status code and stable error kind.
#[must_use]
pub fn estimate_error_status(error: &EstimateError) -> (u16, &'static str) {
    match error {
        EstimateError::EmptyTrace => (422, "empty_trace"),
        EstimateError::MissingIterations => (422, "missing_iterations"),
        EstimateError::Cancelled => (500, "cancelled"),
        EstimateError::DeadlineExceeded => (504, "deadline_exceeded"),
        EstimateError::UnknownDevice(_) => (404, "unknown_device"),
        EstimateError::Internal(_) => (500, "internal"),
    }
}

/// The full error response for an [`EstimateError`].
#[must_use]
pub fn estimate_error_response(error: &EstimateError) -> Response {
    let (status, kind) = estimate_error_status(error);
    Response::json(status, error_body(kind, &error.to_string()))
}

/// Parses the `estimate` object [`estimate_body`] renders back into an
/// [`Estimate`] — the inverse the cluster tier uses to fill a local sim
/// cell from a forwarded node's `200` response. The usage curve is not on
/// the wire (timeline recording is off on every serving path), so it
/// reconstructs empty — exactly what the owner's own cell holds.
#[must_use]
pub fn estimate_from_value(value: &Value) -> Option<Estimate> {
    let entries = value.as_object()?;
    let field_u64 = |field: &str| serde::obj_get(entries, field).and_then(Value::as_u64);
    let oom_predicted = match serde::obj_get(entries, "oom_predicted")? {
        Value::Bool(b) => *b,
        _ => return None,
    };
    let stats_entries = serde::obj_get(entries, "stats")?.as_object()?;
    let stats_usize = |field: &str| {
        serde::obj_get(stats_entries, field)
            .and_then(Value::as_u64)
            .and_then(|n| usize::try_from(n).ok())
    };
    let mut categories = Vec::new();
    for item in serde::obj_get(stats_entries, "categories")?.as_array()? {
        let triple = item.as_array()?;
        if triple.len() != 3 {
            return None;
        }
        let Value::Str(name) = &triple[0] else {
            return None;
        };
        categories.push((
            name.clone(),
            usize::try_from(triple[1].as_u64()?).ok()?,
            triple[2].as_u64()?,
        ));
    }
    Some(Estimate {
        peak_bytes: field_u64("peak_bytes")?,
        job_peak_bytes: field_u64("job_peak_bytes")?,
        tensor_peak_bytes: field_u64("tensor_peak_bytes")?,
        oom_predicted,
        curve: Vec::new(),
        stats: AnalysisStats {
            categories: categories.into(),
            filtered_blocks: stats_usize("filtered_blocks")?,
            adjusted_blocks: stats_usize("adjusted_blocks")?,
            unmatched_frees: stats_usize("unmatched_frees")?,
        },
    })
}

// ---------------------------------------------------------------------------
// Response bodies
//
// Every body is written straight into one pre-sized `String`: no
// intermediate value tree, no per-number allocation. Field order and
// formatting are the wire contract — compact JSON, keys in the order
// written here, strings escaped by `wire::push_json_string`.
// ---------------------------------------------------------------------------

/// Rendered bytes of one estimate body. Served bodies run 450-490 B
/// across the model zoo (the widest, Qwen3-4B, is 487 B); sizing every
/// body's buffer from this lets it render without regrowth.
const ESTIMATE_BYTES: usize = 512;

/// Rendered bytes of one matrix row's job object.
const JOB_BYTES: usize = 128;

fn push_u64(out: &mut String, n: u64) {
    // Writing into a `String` cannot fail.
    let _ = write!(out, "{n}");
}

fn push_usize(out: &mut String, n: usize) {
    push_u64(out, n as u64);
}

/// `{"kind":...,"message":...}` — the error object of an error body, a
/// matrix cell, and a sweep entry.
fn push_error(out: &mut String, kind: &str, message: &str) {
    out.push_str("{\"kind\":");
    push_json_string(out, kind);
    out.push_str(",\"message\":");
    push_json_string(out, message);
    out.push('}');
}

/// The first stats object written into a matrix row, and the range of
/// the body it was written to: a later cell of the row whose stats
/// compare equal copies those bytes.
type RenderedStats<'a> = Option<(&'a AnalysisStats, Range<usize>)>;

/// A matrix cell's or sweep entry's outcome member: `"estimate":{...}`,
/// or `"error":{...}` for a per-cell failure (no leading comma).
fn push_outcome<'a>(
    out: &mut String,
    outcome: &'a Result<Estimate, EstimateError>,
    rendered: &mut RenderedStats<'a>,
) {
    match outcome {
        Ok(estimate) => {
            out.push_str("\"estimate\":");
            push_estimate(out, estimate, rendered);
        }
        Err(error) => {
            let (_, kind) = estimate_error_status(error);
            out.push_str("\"error\":");
            push_error(out, kind, &error.to_string());
        }
    }
}

/// An [`Estimate`] on the wire: the peak numbers, the OOM verdict, and
/// the analysis diagnostics (the usage curve is omitted — timeline
/// recording is off on the serving path). Stats equal to `rendered`'s
/// are copied from the body, not written again; stats written here
/// become `rendered` if it is empty.
fn push_estimate<'a>(out: &mut String, estimate: &'a Estimate, rendered: &mut RenderedStats<'a>) {
    out.push_str("{\"peak_bytes\":");
    push_u64(out, estimate.peak_bytes);
    out.push_str(",\"job_peak_bytes\":");
    push_u64(out, estimate.job_peak_bytes);
    out.push_str(",\"tensor_peak_bytes\":");
    push_u64(out, estimate.tensor_peak_bytes);
    out.push_str(",\"oom_predicted\":");
    out.push_str(if estimate.oom_predicted {
        "true"
    } else {
        "false"
    });
    out.push_str(",\"stats\":");
    match rendered {
        Some((stats, bytes)) if same_stats(stats, &estimate.stats) => {
            out.extend_from_within(bytes.clone());
        }
        _ => {
            let start = out.len();
            push_stats(out, &estimate.stats);
            rendered.get_or_insert((&estimate.stats, start..out.len()));
        }
    }
    out.push('}');
}

/// `a == b`, deciding a shared category list by its pointer: `==` on an
/// `Arc<[_]>` compares element by element even when both sides are one
/// allocation.
fn same_stats(a: &AnalysisStats, b: &AnalysisStats) -> bool {
    (Arc::ptr_eq(&a.categories, &b.categories) || a.categories == b.categories)
        && a.filtered_blocks == b.filtered_blocks
        && a.adjusted_blocks == b.adjusted_blocks
        && a.unmatched_frees == b.unmatched_frees
}

/// An estimate's `"stats"` object.
fn push_stats(out: &mut String, stats: &AnalysisStats) {
    out.push_str("{\"categories\":[");
    for (i, (name, blocks, bytes)) in stats.categories.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        push_json_string(out, name);
        out.push(',');
        push_usize(out, *blocks);
        out.push(',');
        push_u64(out, *bytes);
        out.push(']');
    }
    out.push_str("],\"filtered_blocks\":");
    push_usize(out, stats.filtered_blocks);
    out.push_str(",\"adjusted_blocks\":");
    push_usize(out, stats.adjusted_blocks);
    out.push_str(",\"unmatched_frees\":");
    push_usize(out, stats.unmatched_frees);
    out.push('}');
}

/// A job object, in [`jobspec::job_to_value`]'s field order: optional
/// fields appear only when they differ from the grammar's defaults.
fn push_job(out: &mut String, spec: &TrainJobSpec) {
    out.push_str("{\"model\":");
    push_json_string(out, spec.model.info().name);
    out.push_str(",\"optimizer\":");
    push_json_string(out, spec.optimizer.name());
    out.push_str(",\"batch\":");
    push_usize(out, spec.batch);
    if spec.seq != 0 {
        out.push_str(",\"seq\":");
        push_usize(out, spec.seq);
    }
    out.push_str(",\"iterations\":");
    push_u64(out, u64::from(spec.iterations));
    if spec.zero_grad_pos == ZeroGradPos::IterStart {
        out.push_str(",\"pos1\":true");
    }
    if spec.precision == Precision::F16 {
        out.push_str(",\"fp16\":true");
    }
    out.push('}');
}

/// The `POST /v1/estimate` success body.
#[must_use]
pub fn estimate_body(estimate: &Estimate) -> String {
    let mut out = String::with_capacity(ESTIMATE_BYTES);
    out.push_str("{\"estimate\":");
    push_estimate(&mut out, estimate, &mut None);
    out.push('}');
    out
}

/// The `POST /v1/matrix` success body.
///
/// Every `Ok` cell of a row carries equal stats: they are a function of
/// the job's analysis alone, so the roomy cells of a row share one
/// allocation and its fully replayed cells are equal by value. A row
/// writes its first stats object and copies those bytes into each later
/// cell whose stats compare equal; equality is checked per cell, so a
/// cell whose stats differ (a peer-relayed cell, say) is written in full.
#[must_use]
pub fn matrix_body(matrix: &DeviceMatrix) -> String {
    // A cell is `{"device":<name>,` around an estimate's members.
    let name_bytes = matrix.devices.iter().map(String::len).max().unwrap_or(0);
    let mut out = String::with_capacity(
        64 + matrix.rows.len() * JOB_BYTES + matrix.num_cells() * (ESTIMATE_BYTES + name_bytes),
    );
    out.push_str("{\"devices\":[");
    for (i, device) in matrix.devices.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(&mut out, device);
    }
    out.push_str("],\"rows\":[");
    for (i, row) in matrix.rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"job\":");
        push_job(&mut out, &row.spec);
        out.push_str(",\"cells\":[");
        let mut rendered = None;
        for (j, cell) in row.cells.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str("{\"device\":");
            push_json_string(&mut out, &cell.device);
            out.push(',');
            push_outcome(&mut out, &cell.estimate, &mut rendered);
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// The `POST /v1/sweep` success body.
#[must_use]
pub fn sweep_body(results: &[(usize, Result<Estimate, EstimateError>)]) -> String {
    let mut out = String::with_capacity(16 + results.len() * ESTIMATE_BYTES);
    out.push_str("{\"results\":[");
    for (i, (batch, outcome)) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"batch\":");
        push_usize(&mut out, *batch);
        out.push(',');
        // Each entry is another batch size, so another analysis.
        push_outcome(&mut out, outcome, &mut None);
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// The `POST /v1/plan` success body.
#[must_use]
pub fn plan_body(max_batch: Option<usize>) -> String {
    let mut out = String::with_capacity(32);
    out.push_str("{\"max_batch\":");
    match max_batch {
        Some(batch) => push_usize(&mut out, batch),
        None => out.push_str("null"),
    }
    out.push('}');
    out
}

/// The `POST /v1/best-device` success body.
#[must_use]
pub fn placement_body(placement: Option<&DevicePlacement>) -> String {
    let mut out = String::with_capacity(ESTIMATE_BYTES + 64);
    out.push_str("{\"placement\":");
    match placement {
        Some(p) => {
            out.push_str("{\"device\":");
            push_json_string(&mut out, &p.device);
            out.push_str(",\"estimate\":");
            push_estimate(&mut out, &p.estimate, &mut None);
            out.push('}');
        }
        None => out.push_str("null"),
    }
    out.push('}');
    out
}

/// The header carrying a per-request deadline budget in milliseconds.
pub const DEADLINE_HEADER: &str = "x-xmem-deadline-ms";

/// Parses the request's deadline header into an absolute instant.
///
/// # Errors
/// A ready-to-send `400` for a non-numeric value.
pub fn deadline_of(request: &Request) -> Result<Option<Instant>, Response> {
    match request.header(DEADLINE_HEADER) {
        None => Ok(None),
        Some(raw) => {
            let ms: u64 = raw
                .parse()
                .map_err(|_| bad_request(&format!("`{DEADLINE_HEADER}` must be a number")))?;
            Ok(Some(Instant::now() + Duration::from_millis(ms)))
        }
    }
}

/// Parses a request body as JSON.
fn body_json(request: &Request) -> Result<Value, Response> {
    let text = std::str::from_utf8(&request.body).map_err(|_| bad_request("body is not UTF-8"))?;
    if text.trim().is_empty() {
        return Err(bad_request("body must be a JSON object"));
    }
    serde_json::from_str(text).map_err(|e| bad_request(&format!("body is not JSON: {e}")))
}

/// The request's job: either the whole body is the job object, or it
/// lives under a `"job"` key (the wrapped form used when other fields
/// ride along).
fn job_of(body: &Value) -> Result<TrainJobSpec, Response> {
    job_of_with_batch(body, None)
}

/// [`job_of`] for grid-driven routes (`/v1/sweep`, `/v1/plan`), where the
/// batch size comes from the grid and may be omitted from the job object.
fn job_of_with_batch(body: &Value, default_batch: Option<usize>) -> Result<TrainJobSpec, Response> {
    let entries = body
        .as_object()
        .ok_or_else(|| bad_request("body must be a JSON object"))?;
    let job_value = serde::obj_get(entries, "job").unwrap_or(body);
    jobspec::job_from_value_with_batch(job_value, default_batch).map_err(|e| job_error_response(&e))
}

/// A string field of the body object.
fn string_field(body: &Value, field: &str) -> Result<Option<String>, Response> {
    match body.as_object().and_then(|o| serde::obj_get(o, field)) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(bad_request(&format!("`{field}` must be a string"))),
    }
}

/// Settles a submitted future into a response, mapping `Busy` and
/// estimation errors to their wire shapes.
fn settle<T>(
    submitted: Result<xmem_service::PoolFuture<Result<T, EstimateError>>, SubmitError>,
    render_ok: impl FnOnce(&T) -> String,
) -> Response
where
    T: Clone + Send,
{
    match submitted {
        Err(SubmitError::Busy) => busy_response(),
        Ok(future) => match future.wait() {
            Ok(value) => Response::json(200, render_ok(&value)),
            Err(error) => estimate_error_response(&error),
        },
    }
}

/// `POST /v1/estimate` — body: a job object (or `{"job": ..., "device":
/// "name"}`); answers the estimate on the service's default device, or on
/// the named registered device.
#[must_use]
pub fn handle_estimate(
    service: &AsyncEstimationService,
    request: &Request,
    ctx: &TraceContext,
) -> Response {
    let (deadline, body) = match (deadline_of(request), body_json(request)) {
        (Err(e), _) | (_, Err(e)) => return e,
        (Ok(d), Ok(b)) => (d, b),
    };
    let spec = match job_of(&body) {
        Ok(spec) => spec,
        Err(e) => return e,
    };
    let device = match string_field(&body, "device") {
        Ok(d) => d,
        Err(e) => return e,
    };
    let submitted = service.submit(&spec, device.as_deref(), deadline, ctx);
    settle(submitted, estimate_body)
}

/// `POST /v1/matrix` — body: `{"jobs": [job, ...], "devices": ["name",
/// ...]?}`; devices default to every registered device.
#[must_use]
pub fn handle_matrix(
    service: &AsyncEstimationService,
    request: &Request,
    ctx: &TraceContext,
) -> Response {
    let (deadline, body) = match (deadline_of(request), body_json(request)) {
        (Err(e), _) | (_, Err(e)) => return e,
        (Ok(d), Ok(b)) => (d, b),
    };
    let entries = match body.as_object() {
        Some(entries) => entries,
        None => return bad_request("body must be a JSON object"),
    };
    let jobs_value = match serde::obj_get(entries, "jobs").and_then(Value::as_array) {
        Some(jobs) if !jobs.is_empty() => jobs,
        _ => return bad_request("`jobs` must be a non-empty array of job objects"),
    };
    let mut specs = Vec::with_capacity(jobs_value.len());
    for (i, job) in jobs_value.iter().enumerate() {
        match job_from_value(job) {
            Ok(spec) => specs.push(spec),
            Err(e) => return job_error_response(&format!("jobs[{i}]: {e}")),
        }
    }
    let devices: Vec<String> = match serde::obj_get(entries, "devices") {
        None | Some(Value::Null) => service.service().registry().names(),
        Some(Value::Array(items)) => {
            let mut names = Vec::with_capacity(items.len());
            for item in items {
                match item {
                    Value::Str(name) => names.push(name.clone()),
                    _ => return bad_request("`devices` must be an array of device names"),
                }
            }
            names
        }
        Some(_) => return bad_request("`devices` must be an array of device names"),
    };
    if devices.is_empty() {
        return bad_request("no devices to simulate against");
    }
    let names: Vec<&str> = devices.iter().map(String::as_str).collect();
    let submitted = service.matrix(&specs, &names, deadline, ctx);
    settle(submitted, matrix_body)
}

/// `POST /v1/sweep` — body: `{"job": job, "batches": [n, ...]}`.
#[must_use]
pub fn handle_sweep(
    service: &AsyncEstimationService,
    request: &Request,
    ctx: &TraceContext,
) -> Response {
    let (deadline, body) = match (deadline_of(request), body_json(request)) {
        (Err(e), _) | (_, Err(e)) => return e,
        (Ok(d), Ok(b)) => (d, b),
    };
    let Some(entries) = body.as_object() else {
        return bad_request("body must be a JSON object");
    };
    let batches = match serde::obj_get(entries, "batches").and_then(Value::as_array) {
        Some(items) if !items.is_empty() => batch_grid(items.iter().map(|item| {
            item.as_u64()
                .and_then(|n| usize::try_from(n).ok())
                .ok_or_else(|| "`batches` must be positive integers".to_string())
        })),
        _ => return bad_request("`batches` must be a non-empty array of batch sizes"),
    };
    // A zero point is the jobspec range violation (422); a point that is
    // not a number stays a 400.
    let batches = match batches {
        Ok(batches) => batches,
        Err(e) => return job_error_response(&e),
    };
    // The grid supplies the batch sizes, so the job object may omit
    // `batch` — the first grid point backs the draft.
    let spec = match job_of_with_batch(&body, batches.first().copied()) {
        Ok(spec) => spec,
        Err(e) => return e,
    };
    let submitted = service.sweep(&spec, &batches, deadline, ctx);
    settle(submitted, |results| sweep_body(results))
}

/// `POST /v1/plan` — body: `{"job": job, "device": "name", "min": 1?,
/// "max": 1024?}`; answers admission control
/// ([`max_batch_for_device_traced`](xmem_service::EstimationService::max_batch_for_device_traced)).
#[must_use]
pub fn handle_plan(
    service: &AsyncEstimationService,
    request: &Request,
    ctx: &TraceContext,
) -> Response {
    let (deadline, body) = match (deadline_of(request), body_json(request)) {
        (Err(e), _) | (_, Err(e)) => return e,
        (Ok(d), Ok(b)) => (d, b),
    };
    let Some(entries) = body.as_object() else {
        return bad_request("body must be a JSON object");
    };
    let device_name = match string_field(&body, "device") {
        Ok(Some(name)) => name,
        Ok(None) => return bad_request("`device` is required"),
        Err(e) => return e,
    };
    let Some(device) = service.service().registry().get(&device_name) else {
        return estimate_error_response(&EstimateError::UnknownDevice(device_name));
    };
    let (lo, hi) = match (usize_field(entries, "min"), usize_field(entries, "max")) {
        (Ok(lo), Ok(hi)) => (lo.unwrap_or(1), hi.unwrap_or(1024)),
        (Err(e), _) | (_, Err(e)) => return bad_request(&e),
    };
    if let Err(e) = batch_range(lo, hi) {
        return bad_request(&e);
    }
    // The search range supplies batch sizes, so the job object may omit
    // `batch` — the range floor backs the draft.
    let spec = match job_of_with_batch(&body, Some(lo)) {
        Ok(spec) => spec,
        Err(e) => return e,
    };
    let submitted = service.plan(&spec, device, lo, hi, deadline, ctx);
    settle(submitted, |max_batch| plan_body(*max_batch))
}

/// `POST /v1/best-device` — body: a job object (or `{"job": ...}`);
/// answers best-fit placement across the registered fleet.
#[must_use]
pub fn handle_best_device(
    service: &AsyncEstimationService,
    request: &Request,
    ctx: &TraceContext,
) -> Response {
    let (deadline, body) = match (deadline_of(request), body_json(request)) {
        (Err(e), _) | (_, Err(e)) => return e,
        (Ok(d), Ok(b)) => (d, b),
    };
    let spec = match job_of(&body) {
        Ok(spec) => spec,
        Err(e) => return e,
    };
    let submitted = service.placement(&spec, deadline, ctx);
    settle(submitted, |placement| placement_body(placement.as_ref()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmem_core::{Estimator, EstimatorConfig, MatrixCell, MatrixRow};
    use xmem_models::ModelId;
    use xmem_optim::OptimizerKind;
    use xmem_runtime::GpuDevice;

    #[test]
    fn a_large_jobs_bodies_fit_their_presized_buffers() {
        // The zoo's widest estimate body: every figure has 11 digits.
        let spec = TrainJobSpec::new(ModelId::Qwen3_4B, OptimizerKind::AdamW, 1);
        let estimate = Estimator::new(EstimatorConfig::for_device(GpuDevice::rtx3060()))
            .estimate_job(&spec)
            .expect("the job analyzes");
        let body = estimate_body(&estimate);
        assert!(body.len() > 480, "{} B: {body}", body.len());
        assert!(body.len() <= ESTIMATE_BYTES, "{} B: {body}", body.len());
        assert_eq!(body.capacity(), ESTIMATE_BYTES, "the body never regrew");

        // A 16 x 8 matrix of it, with fleet-style device names.
        let devices: Vec<String> = (0..8).map(|i| format!("fleet-{}g", 16 * (i + 1))).collect();
        let matrix = DeviceMatrix {
            rows: (0..16)
                .map(|_| MatrixRow {
                    spec: spec.clone(),
                    cells: devices
                        .iter()
                        .map(|device| MatrixCell {
                            device: device.clone(),
                            estimate: Ok(estimate.clone()),
                        })
                        .collect(),
                })
                .collect(),
            devices,
        };
        let body = matrix_body(&matrix);
        let presized =
            64 + 16 * JOB_BYTES + matrix.num_cells() * (ESTIMATE_BYTES + "fleet-128g".len());
        assert!(body.len() <= presized, "{} B > {presized} B", body.len());
        assert_eq!(body.capacity(), presized, "the body never regrew");
    }
}
