//! Failure injection: the pipeline must degrade gracefully on damaged
//! traces — the tolerance behaviours the Analyzer documents.

use xmem::core::{Analyzer, EstimateError};
use xmem::prelude::*;
use xmem::trace::{names, EventCategory, Trace, TraceEvent, TraceParseError};

fn healthy_trace() -> Trace {
    let spec =
        TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 4).with_iterations(2);
    profile_on_cpu(&spec)
}

/// A trace under `source`'s label holding `events` of it, names
/// re-interned into the new trace's table.
fn subset<'a>(source: &Trace, events: impl Iterator<Item = &'a TraceEvent>) -> Trace {
    let mut trace = Trace::new(source.name());
    for e in events {
        let name = trace.intern(source.name_of(e));
        trace.push(TraceEvent { name, ..e.clone() });
    }
    trace
}

#[test]
fn truncated_trace_still_estimates() {
    // Keep only the first half of the events (profiler died mid-run but
    // past iteration 1).
    let full = healthy_trace();
    let keep = full.events().len() / 2;
    let mut truncated = subset(&full, full.events().iter().take(keep));
    // Iteration-1 markers may be gone; re-add a synthetic one spanning the
    // kept window so phases remain delimited.
    if truncated.iteration_windows().is_empty() {
        let step = truncated.intern(&names::profiler_step(1));
        truncated.push(TraceEvent::span(
            EventCategory::UserAnnotation,
            step,
            0,
            truncated.end_us() + 1,
        ));
        truncated.sort_by_time();
    }
    let estimator = Estimator::new(EstimatorConfig::for_device(GpuDevice::rtx3060()));
    let est = estimator
        .estimate_trace(&truncated)
        .expect("degraded estimate");
    assert!(est.peak_bytes > 0);
}

#[test]
fn missing_zero_grad_annotations_fall_back_gracefully() {
    // Strip all zero_grad markers: gradient lifecycles fall back to
    // persistent (conservative), estimation still succeeds.
    let full = healthy_trace();
    let stripped = subset(
        &full,
        full.events()
            .iter()
            .filter(|e| !names::is_optimizer_zero_grad(full.name_of(e))),
    );
    let estimator = Estimator::new(EstimatorConfig::for_device(GpuDevice::rtx3060()));
    let with_markers = estimator.estimate_trace(&full).expect("baseline");
    let without = estimator.estimate_trace(&stripped).expect("degraded");
    assert!(
        without.peak_bytes >= with_markers.peak_bytes,
        "persistent-gradient fallback must not underestimate"
    );
}

#[test]
fn unmatched_frees_are_tolerated_and_counted() {
    let mut trace = healthy_trace();
    let memory = trace.intern(names::MEMORY);
    for i in 0..5 {
        trace.push(TraceEvent::mem_free(
            memory,
            10 + i,
            0xdead_0000 + i,
            64,
            -1,
        ));
    }
    trace.sort_by_time();
    let analyzed = Analyzer::new().analyze(&trace).expect("tolerant analysis");
    assert_eq!(analyzed.lifecycle_stats.unmatched_frees, 5);
}

#[test]
fn empty_and_markerless_traces_error_cleanly() {
    let estimator = Estimator::new(EstimatorConfig::for_device(GpuDevice::rtx3060()));
    let empty = Trace::new("empty");
    assert!(matches!(
        estimator.estimate_trace(&empty),
        Err(EstimateError::EmptyTrace)
    ));

    let mut markerless = Trace::new("markerless");
    let memory = markerless.intern(names::MEMORY);
    markerless.push(TraceEvent::mem_alloc(memory, 0, 0x10, 512, -1));
    assert!(matches!(
        estimator.estimate_trace(&markerless),
        Err(EstimateError::MissingIterations)
    ));
}

/// Traces whose values no trace can represent: a span ending past
/// `u64::MAX`, and a free of `i64::MIN` bytes (its size has no positive
/// counterpart). Each used to panic a debug build (an add and a negate
/// overflowing) and to wrap silently in a release build; the reader now
/// rejects the offending event.
#[test]
fn unrepresentable_events_are_typed_parse_errors() {
    for (fixture, json) in [
        (
            "hostile_span_overflow",
            include_str!("fixtures/hostile_span_overflow.trace.json"),
        ),
        (
            "hostile_bytes_min",
            include_str!("fixtures/hostile_bytes_min.trace.json"),
        ),
    ] {
        match Trace::from_json_str(json) {
            Err(TraceParseError::InvalidEvent { index, reason }) => {
                assert_eq!(index, 3, "{fixture}: the fourth event is the bad one");
                assert!(!reason.is_empty());
            }
            other => panic!("{fixture}: expected InvalidEvent, got {other:?}"),
        }
    }
}

/// Spans at the very end of the timestamp range are representable and
/// must analyze without overflowing any `ts + 1`.
#[test]
fn spans_at_the_last_timestamp_analyze_without_overflow() {
    let last = u64::MAX;
    let json = format!(
        r#"{{"schemaVersion":1,"traceName":"edge","traceEvents":[
{{"ph":"X","cat":"user_annotation","name":"ProfilerStep#1","pid":1,"tid":1,"ts":0,"dur":{last}}},
{{"ph":"X","cat":"python_function","name":"nn.Module: m","pid":1,"tid":1,"ts":{last},"dur":0}},
{{"ph":"X","cat":"user_annotation","name":"Optimizer.step#Adam.step","pid":1,"tid":1,"ts":{last},"dur":0}},
{{"ph":"X","cat":"cpu_op","name":"aten::add","pid":1,"tid":1,"ts":{last},"dur":0}},
{{"ph":"i","cat":"cpu_instant_event","name":"[memory]","pid":1,"tid":1,"ts":{last},"args":{{"Addr":4096,"Bytes":512,"Device Id":-1}}}}
]}}"#
    );
    let trace = Trace::from_json_str(&json).expect("representable");
    let estimator = Estimator::new(EstimatorConfig::for_device(GpuDevice::rtx3060()));
    let estimate = estimator.estimate_trace(&trace).expect("estimates");
    assert!(estimate.peak_bytes > 0);
}

#[test]
fn gpu_device_events_are_ignored_by_the_cpu_analyzer() {
    // Mixed-device traces (CUDA memory instants interleaved) must not
    // perturb the CPU-side analysis.
    let base = healthy_trace();
    let mut mixed = base.clone();
    let memory = mixed.intern(names::MEMORY);
    for i in 0..50 {
        mixed.push(TraceEvent::mem_alloc(
            memory,
            i * 3,
            0xccc0_0000 + i,
            1 << 20,
            0,
        ));
    }
    mixed.sort_by_time();
    let estimator = Estimator::new(EstimatorConfig::for_device(GpuDevice::rtx3060()));
    let a = estimator.estimate_trace(&base).expect("baseline");
    let b = estimator.estimate_trace(&mixed).expect("mixed");
    assert_eq!(a.peak_bytes, b.peak_bytes);
}

#[test]
fn a_panicking_estimation_job_settles_its_future_and_spares_the_pool() {
    use xmem::service::{promise_pair, WorkerPool};

    // One worker, so pool survival is observable: if the panic killed the
    // worker thread, none of the follow-up queries could complete.
    let pool = WorkerPool::new(1, 32);
    let (promise, poisoned) = promise_pair::<Result<Estimate, EstimateError>>(None);
    pool.try_execute_settling(promise, || -> Result<Estimate, EstimateError> {
        panic!("injected mid-estimation panic")
    })
    .expect("queue has room");

    // The caller is not stranded: the future resolves to the new
    // internal-error variant carrying the panic payload.
    match poisoned.wait() {
        Err(EstimateError::Internal(message)) => {
            assert!(
                message.contains("injected mid-estimation panic"),
                "{message}"
            );
        }
        other => panic!("expected Internal, got {other:?}"),
    }

    // The pool still serves the next N queries — real estimations, run on
    // the very worker the panic unwound through.
    let spec =
        TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 2).with_iterations(2);
    let expected = Estimator::new(EstimatorConfig::for_device(GpuDevice::rtx3060()))
        .estimate_job(&spec)
        .expect("sequential estimate");
    for round in 0..5 {
        let (promise, future) = promise_pair::<Result<Estimate, EstimateError>>(None);
        let spec = spec.clone();
        pool.try_execute_settling(promise, move || {
            Estimator::new(EstimatorConfig::for_device(GpuDevice::rtx3060())).estimate_job(&spec)
        })
        .expect("queue has room");
        assert_eq!(
            future.wait().expect("round succeeds"),
            expected,
            "round {round}"
        );
    }
    assert_eq!(
        pool.panics(),
        0,
        "settling jobs catch their own panics before the worker loop sees them"
    );
}
