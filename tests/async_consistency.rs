//! The async front end is an exact, better-behaved drop-in for the
//! blocking service: thousands of in-flight futures resolve bit-identical
//! to the sequential `Estimator`, a thundering herd of identical queries
//! coalesces onto one profile run, cancellation and deadlines settle
//! futures without burning profiler time, a bounded queue pushes back
//! with `Busy`, and degenerate jobs are answered from the negative cache.

use std::sync::Arc;
use std::time::{Duration, Instant};
use xmem::prelude::*;
use xmem_core::EstimateError;

/// A spec grid small enough to profile quickly but wide enough to spread
/// queries over several distinct cache keys.
fn spec_grid() -> Vec<TrainJobSpec> {
    let mut specs = Vec::new();
    for &batch in &[1usize, 2, 4, 8] {
        specs.push(
            TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, batch)
                .with_iterations(2),
        );
    }
    for &batch in &[2usize, 4] {
        specs.push(
            TrainJobSpec::new(ModelId::DistilGpt2, OptimizerKind::AdamW, batch).with_iterations(2),
        );
    }
    specs
}

/// A job heavy enough to occupy a worker for a while — used to hold a
/// 1-worker pool busy so queued jobs can be cancelled or expired
/// deterministically.
fn heavy_spec() -> TrainJobSpec {
    TrainJobSpec::new(ModelId::Gpt2, OptimizerKind::AdamW, 16).with_iterations(3)
}

#[test]
fn a_thousand_concurrent_futures_match_the_sequential_estimator() {
    const IN_FLIGHT: usize = 1200;

    let device = GpuDevice::rtx3060();
    let specs = spec_grid();

    let estimator = Estimator::new(EstimatorConfig::for_device(device));
    let expected: Vec<Estimate> = specs
        .iter()
        .map(|s| estimator.estimate_job(s).expect("sequential estimate"))
        .collect();

    let service = AsyncEstimationService::from_service(
        Arc::new(EstimationService::new(ServiceConfig::for_device(device))),
        0,
        IN_FLIGHT,
    );
    // Submit 1200 queries cycling over 6 distinct keys before resolving
    // any of them — all 1200 futures are in flight at once.
    let futures: Vec<_> = (0..IN_FLIGHT)
        .map(|i| {
            service
                .submit(
                    &specs[i % specs.len()],
                    None,
                    None,
                    &TraceContext::disabled(),
                )
                .expect("queue sized for the whole load")
        })
        .collect();
    let outputs = block_on(join_all(futures));

    assert_eq!(outputs.len(), IN_FLIGHT);
    for (i, output) in outputs.iter().enumerate() {
        let estimate = output.as_ref().expect("estimation succeeds");
        assert_eq!(
            estimate,
            &expected[i % specs.len()],
            "future {i} diverged from the sequential path"
        );
    }

    // Single-flight + cache: the 1200 queries cost at most one profile
    // run per distinct key.
    let inner = service.service();
    assert!(
        inner.profile_runs() <= specs.len() as u64,
        "{} profile runs for {} distinct keys",
        inner.profile_runs(),
        specs.len()
    );
    // Every query read its cell once, on the submitting thread.
    let stats = inner.sim_stats().cache;
    assert_eq!(stats.hits + stats.misses, IN_FLIGHT as u64);
}

#[test]
fn a_thundering_herd_of_identical_queries_profiles_exactly_once() {
    const HERD: usize = 64;

    let service = AsyncEstimationService::from_service(
        Arc::new(EstimationService::new(ServiceConfig::for_device(
            GpuDevice::rtx3060(),
        ))),
        0,
        HERD,
    );
    let spec =
        TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 8).with_iterations(2);

    let futures: Vec<_> = (0..HERD)
        .map(|_| {
            service
                .submit(&spec, None, None, &TraceContext::disabled())
                .expect("queue sized for the herd")
        })
        .collect();
    let outputs = block_on(join_all(futures));

    let first = outputs[0].as_ref().expect("estimation succeeds");
    assert!(outputs
        .iter()
        .all(|o| o.as_ref().expect("estimation succeeds") == first));

    let inner = service.service();
    assert_eq!(
        inner.profile_runs(),
        1,
        "one distinct key must cost exactly one profile/analyze execution"
    );
    let cells = inner.sim_stats().cache;
    assert_eq!(cells.insertions, 1);
    assert_eq!(cells.hits + cells.misses, HERD as u64, "one read per query");
    // A query whose cell missed coalesces onto the cell's flight, or
    // leads it and finds the cell its predecessor filled: only the first
    // leader reaches the analysis.
    let flights = inner.flight_stats();
    assert_eq!((flights.executions, flights.coalesced), (1, 0));
}

#[test]
fn cancellation_reports_and_counters_agree() {
    // One worker busy on a heavy job, so the victim usually sits queued
    // where cancellation reaches it first — but whether cancel wins that
    // race is scheduling-dependent (in release the blocker profiles in
    // milliseconds), so assert the *consistency* contract instead of a
    // fixed outcome: the (took_effect, pre_empted_work) report must
    // always agree with how the future resolves and with the profile
    // counter. The deterministic "cancel wins before any claim"
    // semantics are pinned by xmem-service's future unit tests.
    let service = AsyncEstimationService::from_service(
        Arc::new(EstimationService::new(ServiceConfig::for_device(
            GpuDevice::rtx3060(),
        ))),
        1,
        8,
    );
    let blocker = service
        .submit(&heavy_spec(), None, None, &TraceContext::disabled())
        .expect("queue has room");
    let victim_spec =
        TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 2).with_iterations(2);
    let victim = service
        .submit(&victim_spec, None, None, &TraceContext::disabled())
        .expect("queue has room");

    let (took_effect, pre_empted) = victim.cancel();
    let victim_outcome = victim.wait();
    assert!(blocker.wait().is_ok(), "the blocker is never affected");
    // Quiesce the single FIFO worker before reading counters: a sentinel
    // submitted after the victim only completes once the victim's queue
    // slot has been fully processed (run or skipped).
    let sentinel_spec =
        TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 16).with_iterations(2);
    let sentinel = service
        .submit(&sentinel_spec, None, None, &TraceContext::disabled())
        .expect("queue has room");
    assert!(sentinel.wait().is_ok());
    let runs = service.service().profile_runs();

    if took_effect {
        assert_eq!(victim_outcome, Err(EstimateError::Cancelled));
    } else {
        assert!(victim_outcome.is_ok(), "cancel lost: a result had settled");
    }
    // Blocker and sentinel always profile; the victim's run depends on
    // whether the cancellation pre-empted it.
    if pre_empted {
        assert!(took_effect, "pre-empted work implies the cancel settled");
        assert_eq!(
            runs, 2,
            "a pre-empting cancel saved the victim's profile run"
        );
    } else {
        assert_eq!(
            runs, 3,
            "without pre-emption the victim's profile ran to completion"
        );
    }
}

#[test]
fn a_missed_deadline_resolves_without_profiling() {
    let service = AsyncEstimationService::from_service(
        Arc::new(EstimationService::new(ServiceConfig::for_device(
            GpuDevice::rtx3060(),
        ))),
        1,
        8,
    );
    let blocker = service
        .submit(&heavy_spec(), None, None, &TraceContext::disabled())
        .expect("queue has room");

    // Already expired at submission: whichever side touches it first —
    // the polling caller, the timer thread, or the worker claiming it —
    // settles it with DeadlineExceeded and never profiles, under any
    // scheduling. block_on only polls, so resolution comes from a wake,
    // not from wait()'s own timeout path. (The timer-thread wake-up for
    // a deadline that is still in the future is pinned deterministically
    // by xmem-service's timer unit tests, with no worker involved.)
    let victim_spec =
        TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 4).with_iterations(2);
    let expired = service
        .submit(
            &victim_spec,
            None,
            Some(Instant::now() - Duration::from_millis(1)),
            &TraceContext::disabled(),
        )
        .expect("queue has room");
    assert_eq!(block_on(expired), Err(EstimateError::DeadlineExceeded));

    // A generous deadline behaves like no deadline at all.
    let healthy = service
        .submit(
            &victim_spec,
            None,
            Some(Instant::now() + Duration::from_secs(600)),
            &TraceContext::disabled(),
        )
        .expect("queue has room");
    assert!(healthy.wait().is_ok());

    assert!(blocker.wait().is_ok());
    assert_eq!(
        service.service().profile_runs(),
        2,
        "the expired query must not have profiled"
    );
}

#[test]
fn a_full_submission_queue_pushes_back_with_busy() {
    // One worker (held by the heavy job) and a queue of depth 1: the
    // first submission is claimed or queued, the second fills the queue,
    // and further submissions must fail fast with Busy.
    let service = AsyncEstimationService::from_service(
        Arc::new(EstimationService::new(ServiceConfig::for_device(
            GpuDevice::rtx3060(),
        ))),
        1,
        1,
    );
    let blocker = service
        .submit(&heavy_spec(), None, None, &TraceContext::disabled())
        .expect("first submission");

    let spec =
        TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 2).with_iterations(2);
    let mut accepted = Vec::new();
    let mut busy = 0;
    for _ in 0..4 {
        match service.submit(&spec, None, None, &TraceContext::disabled()) {
            Ok(future) => accepted.push(future),
            Err(SubmitError::Busy) => busy += 1,
        }
    }
    assert!(
        busy >= 2,
        "a depth-1 queue behind a busy worker must reject most of 4 submissions"
    );

    // Backpressure is recoverable: resolve the in-flight work, retry.
    assert!(blocker.wait().is_ok());
    for future in accepted {
        assert!(future.wait().is_ok());
    }
    let retried = service
        .submit(&spec, None, None, &TraceContext::disabled())
        .expect("queue drained");
    assert!(retried.wait().is_ok());
}

#[test]
fn a_resident_estimate_is_answered_without_the_pool() {
    // One worker held by the heavy job and a depth-1 queue filled behind
    // it: a cold query now gets Busy, but a query whose sim cell is
    // resident is a cache read answered on the calling thread.
    let device = GpuDevice::rtx3060();
    let service = AsyncEstimationService::from_service(
        Arc::new(EstimationService::new(ServiceConfig::for_device(device))),
        1,
        1,
    );
    let warm =
        TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 4).with_iterations(2);
    let expected = service
        .submit(&warm, None, None, &TraceContext::disabled())
        .expect("idle pool")
        .wait();
    assert_eq!(
        expected,
        Estimator::new(EstimatorConfig::for_device(device)).estimate_job(&warm)
    );

    let blocker = service
        .submit(&heavy_spec(), None, None, &TraceContext::disabled())
        .expect("first submission");
    let cold = |batch| {
        TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, batch).with_iterations(2)
    };
    let mut queued = Vec::new();
    let mut busy = false;
    for batch in [8, 16, 32] {
        match service.submit(&cold(batch), None, None, &TraceContext::disabled()) {
            Ok(future) => queued.push(future),
            Err(SubmitError::Busy) => busy = true,
        }
    }
    assert!(busy, "the pool is saturated");

    let cell_hits = service.service().sim_stats().cache.hits;
    let hit = service
        .submit(&warm, None, None, &TraceContext::disabled())
        .expect("a resident read needs no queue slot");
    assert_eq!(hit.wait(), expected);
    assert_eq!(
        service.service().sim_stats().cache.hits,
        cell_hits + 1,
        "the read counts one cell hit, like a pooled hit"
    );

    // An expired deadline still wins over a resident read.
    let expired = service
        .submit(
            &warm,
            None,
            Some(Instant::now() - Duration::from_millis(1)),
            &TraceContext::disabled(),
        )
        .expect("a resident read needs no queue slot");
    assert_eq!(expired.wait(), Err(EstimateError::DeadlineExceeded));

    assert!(blocker.wait().is_ok());
    for future in queued {
        assert!(future.wait().is_ok());
    }
}

#[test]
fn a_resident_estimate_on_an_idle_service_is_read_on_the_calling_thread() {
    use xmem::service::{Telemetry, TelemetryConfig};
    let device = GpuDevice::rtx3060();
    let service = AsyncEstimationService::for_device(device);
    let warm =
        TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 4).with_iterations(2);
    let expected = service
        .submit(&warm, None, None, &TraceContext::disabled())
        .expect("idle pool")
        .wait();

    // Nothing is computing and the queue has room: the read still never
    // crosses the pool.
    let telemetry = Telemetry::new(TelemetryConfig::default());
    let ctx = telemetry.begin_trace(None);
    let read = service
        .submit(&warm, None, None, &ctx)
        .expect("a read needs no queue slot");
    assert_eq!(read.wait(), expected);
    telemetry.finish(&ctx, "POST", "/v1/estimate", 200, false);
    let traces = telemetry.recent_traces(1, None);
    let names: Vec<&str> = traces[0].spans.iter().map(|s| s.name).collect();
    assert_eq!(names, ["cache.sim", "service.call"]);
}

#[test]
fn degenerate_jobs_are_answered_from_the_negative_cache() {
    let untraced = TraceContext::disabled();
    let service = EstimationService::new(ServiceConfig::for_device(GpuDevice::rtx3060()));
    // Zero profiled iterations: the trace has no ProfilerStep markers and
    // the Analyzer rejects it.
    let degenerate =
        TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 4).with_iterations(0);

    for round in 0..3 {
        assert_eq!(
            service.estimate_traced(&degenerate, None, &untraced),
            Err(EstimateError::MissingIterations),
            "round {round}"
        );
    }

    assert_eq!(
        service.profile_runs(),
        1,
        "repeat queries for a degenerate job must hit the negative cache"
    );
    let negative = service.negative_stats();
    assert_eq!(negative.insertions, 1);
    assert_eq!(negative.hits, 2);
    // Failures never pollute the cells.
    assert_eq!(service.sim_stats().cache.insertions, 0);
}

#[test]
fn async_sweep_and_plan_match_their_blocking_counterparts() {
    let untraced = TraceContext::disabled();
    let device = GpuDevice::rtx3060();
    let base =
        TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 1).with_iterations(2);
    let batches = [1usize, 2, 4, 8, 16];

    let blocking = EstimationService::new(ServiceConfig::for_device(device));
    let expected_sweep = blocking.sweep_traced(&base, &batches, &untraced);
    let expected_plan = blocking
        .max_batch_for_device_traced(&base, device, 1, 16, &untraced)
        .expect("plan succeeds");

    let service = AsyncEstimationService::for_device(device);
    let sweep = service
        .sweep(&base, &batches, None, &TraceContext::disabled())
        .expect("queue has room");
    let plan = service
        .plan(&base, device, 1, 16, None, &TraceContext::disabled())
        .expect("queue has room");

    let swept = block_on(sweep).expect("sweep not cancelled");
    assert_eq!(swept.len(), expected_sweep.len());
    for ((b1, e1), (b2, e2)) in swept.iter().zip(&expected_sweep) {
        assert_eq!(b1, b2);
        assert_eq!(
            e1.as_ref().expect("estimate"),
            e2.as_ref().expect("estimate")
        );
    }
    assert_eq!(block_on(plan).expect("plan succeeds"), expected_plan);
}

#[test]
fn the_executor_drives_interleaved_submissions_on_one_thread() {
    let device = GpuDevice::rtx3060();
    let service = std::sync::Arc::new(AsyncEstimationService::for_device(device));
    let specs = spec_grid();

    let estimator = Estimator::new(EstimatorConfig::for_device(device));
    let expected: Vec<Estimate> = specs
        .iter()
        .map(|s| estimator.estimate_job(s).expect("sequential estimate"))
        .collect();

    let results = std::sync::Arc::new(std::sync::Mutex::new(vec![None; specs.len()]));
    let executor = Executor::new();
    for (i, spec) in specs.iter().enumerate() {
        let future = service
            .submit(spec, None, None, &TraceContext::disabled())
            .expect("queue has room");
        let results = std::sync::Arc::clone(&results);
        executor.spawn(async move {
            let estimate = future.await.expect("estimation succeeds");
            results.lock().expect("results").as_mut_slice()[i] = Some(estimate);
        });
    }
    executor.run();

    let results = results.lock().expect("results");
    for (i, expected) in expected.iter().enumerate() {
        assert_eq!(
            results[i].as_ref().expect("task completed"),
            expected,
            "executor task {i} diverged"
        );
    }
}
