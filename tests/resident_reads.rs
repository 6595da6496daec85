//! One dispatch rule for the estimate, matrix and best-device routes:
//! every cache read happens on the calling thread, and only a query that
//! must compute enters the worker pool. Answers read on the calling
//! thread and answers computed on the pool are bit-identical to the
//! sequential `Estimator` and move every counter by the same amount as
//! the blocking service; a resident query answers while the pool is
//! saturated; an expired deadline still wins; and a resident cell is
//! never re-profiled, whether or not its stage entry is still cached.
//! Both front ends record the same spans for the same query, apart from
//! the async front end's own `service.call` and `pool.queue`.

use std::fmt::Debug;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xmem::core::EstimateError;
use xmem::prelude::*;
use xmem::service::{CellFill, Telemetry, TelemetryConfig, TraceContext};

const DEVICES: [&str; 3] = ["rtx3060", "rtx4060", "a100"];

fn job(model: ModelId, optimizer: OptimizerKind, batch: usize) -> TrainJobSpec {
    TrainJobSpec::new(model, optimizer, batch).with_iterations(2)
}

fn sequential_cell(spec: &TrainJobSpec, device: GpuDevice) -> Estimate {
    Estimator::new(EstimatorConfig::for_device(device))
        .estimate_job(spec)
        .expect("sequential estimate succeeds")
}

fn builtin(name: &str) -> GpuDevice {
    DeviceRegistry::builtin()
        .get(name)
        .expect("a built-in device")
}

/// Every counter the dispatch rule must leave alone: stage-cache and
/// sim-cell reads, profile runs and sim runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counters {
    stage_hits: u64,
    stage_misses: u64,
    sim_hits: u64,
    sim_misses: u64,
    profile_runs: u64,
    sim_runs: u64,
}

impl Counters {
    fn of(service: &EstimationService) -> Self {
        let (stage, sims) = (service.cache_stats(), service.sim_stats());
        Counters {
            stage_hits: stage.hits,
            stage_misses: stage.misses,
            sim_hits: sims.cache.hits,
            sim_misses: sims.cache.misses,
            profile_runs: service.profile_runs(),
            sim_runs: sims.sim_runs,
        }
    }

    fn since(self, before: Counters) -> Counters {
        Counters {
            stage_hits: self.stage_hits - before.stage_hits,
            stage_misses: self.stage_misses - before.stage_misses,
            sim_hits: self.sim_hits - before.sim_hits,
            sim_misses: self.sim_misses - before.sim_misses,
            profile_runs: self.profile_runs - before.profile_runs,
            sim_runs: self.sim_runs - before.sim_runs,
        }
    }
}

/// Which path an async query took, read from its trace.
#[derive(Debug, PartialEq, Eq)]
enum Path {
    /// Answered by the probe on the calling thread.
    Read,
    /// Computed on the pool.
    Pooled,
}

/// Twin services fed the same query stream: a blocking one and an async
/// front end over a service of its own.
struct Twins {
    blocking: EstimationService,
    front: AsyncEstimationService,
    telemetry: Telemetry,
}

impl Twins {
    fn new(workers: usize) -> Self {
        let device = GpuDevice::rtx3060();
        Twins {
            blocking: EstimationService::for_device(device),
            front: AsyncEstimationService::from_service(
                Arc::new(EstimationService::new(ServiceConfig::for_device(device))),
                workers,
                1024,
            ),
            telemetry: Telemetry::new(TelemetryConfig::default()),
        }
    }

    /// Runs one query on both services and asserts equal answers and
    /// equal counter deltas; returns the answer and the async path.
    fn ask<T: PartialEq + Debug>(
        &self,
        blocking: impl Fn(&EstimationService) -> T,
        submit: impl Fn(&AsyncEstimationService, &TraceContext) -> T,
    ) -> (T, Path) {
        let before = Counters::of(&self.blocking);
        let expected = blocking(&self.blocking);
        let blocking_delta = Counters::of(&self.blocking).since(before);

        let before = Counters::of(self.front.service());
        let ctx = self.telemetry.begin_trace(None);
        let answer = submit(&self.front, &ctx);
        self.telemetry.finish(&ctx, "POST", "/test", 200, false);
        let async_delta = Counters::of(self.front.service()).since(before);

        assert_eq!(answer, expected);
        assert_eq!(async_delta, blocking_delta, "counter deltas differ");
        // Found by id: traces finished within one millisecond are not
        // ordered by finish time.
        let traces = self.telemetry.recent_traces(usize::MAX, None);
        let trace = traces
            .iter()
            .find(|trace| Some(trace.trace_id) == ctx.trace_id())
            .expect("the query's trace");
        let count = |name: &str| trace.spans.iter().filter(|s| s.name == name).count();
        assert_eq!(count("service.call"), 1, "{:?}", trace.spans);
        let path = match count("pool.queue") {
            0 => Path::Read,
            1 => Path::Pooled,
            n => panic!("{n} pool.queue spans"),
        };
        (answer, path)
    }
}

#[test]
fn every_route_answers_alike_read_here_or_computed_on_the_pool() {
    let untraced = TraceContext::disabled();
    let twins = Twins::new(2);
    let a = job(ModelId::MobileNetV3Small, OptimizerKind::Adam, 4);
    let b = job(ModelId::DistilGpt2, OptimizerKind::AdamW, 2);
    let c = job(ModelId::MobileNetV3Small, OptimizerKind::Adam, 8);
    let degenerate = a.clone().with_iterations(0);

    let estimate = |spec: &TrainJobSpec, device: Option<&'static str>| {
        let spec = spec.clone();
        let blocking_spec = spec.clone();
        twins.ask(
            move |service| {
                service.estimate_traced(&blocking_spec, device, &TraceContext::disabled())
            },
            move |front, ctx| {
                front
                    .submit(&spec, device, None, ctx)
                    .expect("queue has room")
                    .wait()
            },
        )
    };
    for (device, name) in [(None, "rtx3060"), (Some("a100"), "a100")] {
        let (cold, path) = estimate(&a, device);
        assert_eq!(path, Path::Pooled, "{name}: a missing cell computes");
        assert_eq!(cold, Ok(sequential_cell(&a, builtin(name))));
        let (warm, path) = estimate(&a, device);
        assert_eq!(path, Path::Read, "{name}: a resident cell is read");
        assert_eq!(warm, cold);
    }
    let (unknown, path) = estimate(&a, Some("no-such-device"));
    assert_eq!(
        unknown,
        Err(EstimateError::UnknownDevice("no-such-device".into()))
    );
    assert_eq!(path, Path::Read);
    for (round, path) in [(0, Path::Pooled), (1, Path::Read)] {
        let (failed, taken) = estimate(&degenerate, None);
        assert_eq!(failed, Err(EstimateError::MissingIterations));
        assert_eq!(taken, path, "degenerate round {round}");
    }

    let matrix = |jobs: &[TrainJobSpec]| {
        let jobs = jobs.to_vec();
        let blocking_jobs = jobs.clone();
        twins.ask(
            move |service| {
                service.estimate_matrix_traced(&blocking_jobs, &DEVICES, &TraceContext::disabled())
            },
            move |front, ctx| {
                front
                    .matrix(&jobs, &DEVICES, None, ctx)
                    .expect("queue has room")
                    .wait()
            },
        )
    };
    let rows = [a.clone(), b.clone(), degenerate.clone()];
    // Two of a's cells are resident already; the rest must compute.
    let (cold, path) = matrix(&rows);
    assert_eq!(path, Path::Pooled);
    let (warm, path) = matrix(&rows);
    assert_eq!(path, Path::Read);
    assert_eq!(warm, cold);
    let cold = cold.expect("devices resolve");
    for (row, spec) in cold.rows.iter().zip(&rows[..2]) {
        for device in DEVICES {
            assert_eq!(
                row.cell(device).expect("a cell").estimate,
                Ok(sequential_cell(spec, builtin(device)))
            );
        }
    }
    let (unknown, path) = twins.ask(
        |service| service.estimate_matrix_traced(&rows, &["no-such-device"], &untraced),
        |front, ctx| {
            front
                .matrix(&rows, &["no-such-device"], None, ctx)
                .expect("an unknown device needs no queue slot")
                .wait()
        },
    );
    assert!(matches!(unknown, Err(EstimateError::UnknownDevice(_))));
    assert_eq!(path, Path::Read);

    let place = |spec: &TrainJobSpec| {
        let spec = spec.clone();
        let blocking_spec = spec.clone();
        twins.ask(
            move |service| {
                service.best_device_for_job_traced(&blocking_spec, &TraceContext::disabled())
            },
            move |front, ctx| {
                front
                    .placement(&spec, None, ctx)
                    .expect("queue has room")
                    .wait()
            },
        )
    };
    let (cold, path) = place(&c);
    assert_eq!(path, Path::Pooled);
    let placed = cold.clone().expect("estimates").expect("a device fits");
    assert_eq!(
        placed.estimate,
        sequential_cell(&c, builtin(&placed.device))
    );
    let (warm, path) = place(&c);
    assert_eq!(path, Path::Read);
    assert_eq!(warm, cold);
    // The matrix left every one of b's cells resident.
    let (from_matrix, path) = place(&b);
    assert_eq!(path, Path::Read);
    let placed = from_matrix.expect("estimates").expect("a device fits");
    assert_eq!(
        placed.estimate,
        sequential_cell(&b, builtin(&placed.device))
    );
}

/// A 1 GiB device: roomy for the small CNN jobs below, too small for
/// DistilGPT-2 with AdamW at any batch.
const TIGHT: GpuDevice = GpuDevice {
    name: "tight",
    capacity: 1 << 30,
    framework_bytes: 0,
    init_bytes: 0,
};

/// A one-thread service whose registry adds [`TIGHT`] to the built-in
/// fleet, for [`blocker_matrix`].
fn blocker_service() -> Arc<EstimationService> {
    let registry = DeviceRegistry::builtin();
    registry.register("tight", TIGHT);
    let config = ServiceConfig::for_device(GpuDevice::rtx3060())
        .with_threads(1)
        .with_registry(registry);
    Arc::new(EstimationService::new(config))
}

/// Work that holds a one-worker pool busy for a while and that no fit
/// can shorten: a cold matrix of 48 distinct jobs, profiled one after
/// another. Its cells are read when it is submitted; the pool then only
/// profiles and replays, and reads no stage entry or cell. On [`TIGHT`]
/// every cell is capacity-pressured, so none derives from the fast path.
fn blocker_matrix() -> Vec<TrainJobSpec> {
    (1..=48)
        .map(|batch| job(ModelId::DistilGpt2, OptimizerKind::AdamW, batch))
        .collect()
}

#[test]
fn resident_queries_answer_while_the_pool_is_saturated() {
    let service = blocker_service();
    let front = AsyncEstimationService::from_service(Arc::clone(&service), 1, 1);
    let untraced = TraceContext::disabled();
    let warm = job(ModelId::MobileNetV3Small, OptimizerKind::Adam, 4);
    let submit = |device| front.submit(&warm, Some(device), None, &untraced);
    let estimate = submit("rtx3060").expect("idle pool").wait();
    let on_a100 = submit("a100").expect("idle pool").wait();
    let whole_matrix = || front.matrix(std::slice::from_ref(&warm), &DEVICES, None, &untraced);
    let matrix = whole_matrix().expect("idle pool").wait();
    let placement = front
        .placement(&warm, None, &untraced)
        .expect("idle pool")
        .wait();

    // One worker held by the matrix, the depth-1 queue filled behind it.
    let blocker = front
        .matrix(&blocker_matrix(), &["tight"], None, &untraced)
        .expect("idle pool");
    let cold = |batch| job(ModelId::MobileNetV3Small, OptimizerKind::Adam, batch);
    let mut queued = Vec::new();
    let mut busy = false;
    for batch in [8, 16, 32] {
        match front.submit(&cold(batch), Some("rtx3060"), None, &untraced) {
            Ok(future) => queued.push(future),
            Err(SubmitError::Busy) => busy = true,
        }
    }
    assert!(busy, "the pool is saturated");

    // The blocker computes on the same service meanwhile, so only the
    // counters it never touches are compared: stage hits (its jobs are
    // all new), sim-cell reads (it read its cells when submitted) and
    // fast-path derivations (its device is pressured).
    let reads = || {
        let stage = service.cache_stats();
        let sims = service.sim_stats();
        (
            stage.hits,
            sims.cache.hits,
            sims.cache.misses,
            sims.fast_path_hits,
        )
    };
    let before = reads();
    assert_eq!(submit("rtx3060").expect("a read").wait(), estimate);
    assert_eq!(submit("a100").expect("a read").wait(), on_a100);
    assert_eq!(whole_matrix().expect("a read").wait(), matrix);
    assert_eq!(
        front
            .placement(&warm, None, &untraced)
            .expect("a read")
            .wait(),
        placement
    );
    let (stage_hits, sim_hits, sim_misses, derived) = reads();
    assert_eq!(stage_hits - before.0, 4, "one stage read per query");
    assert_eq!(sim_hits - before.1, 1 + 1 + 3 + 1, "one cell read per cell");
    assert_eq!((sim_misses, derived), (before.2, before.3));

    // An expired deadline wins over a resident read, and reads nothing.
    let past = Instant::now() - Duration::from_millis(1);
    let before = reads();
    let expired = Some(past);
    for device in [None, Some("a100")] {
        assert_eq!(
            front
                .submit(&warm, device, expired, &untraced)
                .expect("settled")
                .wait(),
            Err(EstimateError::DeadlineExceeded)
        );
    }
    assert_eq!(
        front
            .matrix(std::slice::from_ref(&warm), &DEVICES, expired, &untraced)
            .expect("settled")
            .wait(),
        Err(EstimateError::DeadlineExceeded)
    );
    assert_eq!(
        front
            .placement(&warm, expired, &untraced)
            .expect("settled")
            .wait(),
        Err(EstimateError::DeadlineExceeded)
    );
    assert_eq!(reads(), before);

    // The pool was saturated throughout: a query that must compute is
    // still refused.
    assert_eq!(
        front
            .submit(&cold(64), Some("rtx3060"), None, &untraced)
            .err(),
        Some(SubmitError::Busy)
    );

    let blocked = blocker.wait().expect("the matrix completes");
    assert!(
        blocked.rows.iter().all(|row| !row.cells[0].fits()),
        "every blocker cell is pressured"
    );
    for future in queued {
        assert!(future.wait().is_ok());
    }
}

#[test]
fn a_matrix_with_one_evicted_cell_is_pooled_and_replays_only_that_cell() {
    let solo = |gib: u64| GpuDevice {
        name: "solo",
        capacity: gib << 30,
        framework_bytes: 512 << 20,
        init_bytes: 0,
    };
    let registry = DeviceRegistry::builtin();
    registry.register("solo", solo(24));
    let service = Arc::new(EstimationService::new(
        ServiceConfig::for_device(GpuDevice::rtx3060()).with_registry(registry),
    ));
    let front = AsyncEstimationService::from_service(Arc::clone(&service), 2, 16);
    let jobs = [job(ModelId::MobileNetV3Small, OptimizerKind::Adam, 4)];
    let devices = ["rtx3060", "rtx4060", "a100", "solo"];
    front
        .matrix(&jobs, &devices, None, &TraceContext::disabled())
        .expect("queue has room")
        .wait()
        .expect("devices resolve");

    // Reconfiguring `solo` evicts its one cell; the other three stay.
    service.register_device("solo", solo(32));
    let before = Counters::of(&service);
    let telemetry = Telemetry::new(TelemetryConfig::default());
    let ctx = telemetry.begin_trace(None);
    let matrix = front
        .matrix(&jobs, &devices, None, &ctx)
        .expect("queue has room")
        .wait()
        .expect("devices resolve");
    telemetry.finish(&ctx, "POST", "/v1/matrix", 200, false);

    for device in devices {
        let config = service.registry().get(device).expect("registered");
        assert_eq!(
            matrix.cell(0, device).expect("a cell").estimate,
            Ok(sequential_cell(&jobs[0], config))
        );
    }
    let delta = Counters::of(&service).since(before);
    assert_eq!(
        delta,
        Counters {
            stage_hits: 1,
            stage_misses: 0,
            sim_hits: 3,
            sim_misses: 1,
            profile_runs: 0,
            sim_runs: 1,
        },
        "each lookup counted once, one cell replayed"
    );
    let names: Vec<&str> = telemetry.recent_traces(1, None)[0]
        .spans
        .iter()
        .map(|s| s.name)
        .collect();
    let count = |name: &str| names.iter().filter(|&&n| n == name).count();
    assert_eq!(count("pool.queue"), 1, "{names:?}");
    assert_eq!(count("service.call"), 1, "{names:?}");
    assert_eq!(count("sim.replay"), 1, "{names:?}");
}

/// A service that holds `spec`'s cell on every registered device but
/// never loaded its analysis: each cell is the sequential `Estimator`'s
/// answer, relayed the way a cluster peer's forwarded answer fills it.
fn stageless_service(spec: &TrainJobSpec) -> EstimationService {
    let service = EstimationService::for_device(GpuDevice::rtx3060());
    for (name, device) in service.registry().snapshot() {
        let relayed = sequential_cell(spec, device);
        assert_eq!(
            service.fill_sim_cell(spec, Some(&name), relayed),
            CellFill::Filled
        );
    }
    assert_eq!(service.profile_runs(), 0);
    service
}

#[test]
fn a_resident_cell_answers_an_estimate_without_re_profiling() {
    let untraced = TraceContext::disabled();
    let spec = job(ModelId::MobileNetV3Small, OptimizerKind::Adam, 4);
    let service = stageless_service(&spec);
    let cold = service
        .estimate_traced(&spec, None, &untraced)
        .expect("estimates");
    let before = Counters::of(&service);
    assert_eq!(service.estimate_traced(&spec, None, &untraced), Ok(cold));
    let delta = Counters::of(&service).since(before);
    assert_eq!(delta.profile_runs, 0, "the cell answered");
    assert_eq!((delta.stage_misses, delta.sim_hits), (1, 1));
}

#[test]
fn a_resident_cell_answers_estimate_on_without_re_profiling() {
    let untraced = TraceContext::disabled();
    let spec = job(ModelId::MobileNetV3Small, OptimizerKind::Adam, 4);
    let service = stageless_service(&spec);
    let cold = service
        .estimate_traced(&spec, None, &untraced)
        .expect("estimates");
    let before = Counters::of(&service);
    // The primary device's registered name reads the same cell.
    assert_eq!(
        service.estimate_traced(&spec, Some("rtx3060"), &untraced),
        Ok(cold.clone())
    );
    assert_eq!(
        service.estimate_for_device(&spec, GpuDevice::rtx3060()),
        Ok(cold)
    );
    let delta = Counters::of(&service).since(before);
    assert_eq!(delta.profile_runs, 0, "the cell answered");
    assert_eq!((delta.stage_misses, delta.sim_hits), (2, 2));
}

#[test]
fn a_resident_placement_is_not_re_profiled() {
    let untraced = TraceContext::disabled();
    let spec = job(ModelId::MobileNetV3Small, OptimizerKind::Adam, 4);
    let reference = EstimationService::for_device(GpuDevice::rtx3060());
    let cold = reference
        .best_device_for_job_traced(&spec, &untraced)
        .expect("estimates");
    assert_eq!(reference.profile_runs(), 1);
    let service = stageless_service(&spec);
    let before = Counters::of(&service);
    assert_eq!(
        service.best_device_for_job_traced(&spec, &untraced),
        Ok(cold.clone())
    );
    assert_eq!(
        service.best_device_for_job_traced(&spec, &untraced),
        Ok(cold)
    );
    let delta = Counters::of(&service).since(before);
    assert_eq!(delta.profile_runs, 0, "the cells answered");
    assert_eq!(delta.sim_runs, 0);
}

/// One query's spans as `(name, outcome)` pairs, sorted, without the
/// async front end's own `service.call` and `pool.queue` spans.
fn route_spans(telemetry: &Telemetry, ctx: &TraceContext) -> Vec<(&'static str, &'static str)> {
    telemetry.finish(ctx, "POST", "/test", 200, false);
    let trace = telemetry
        .recent_traces(usize::MAX, None)
        .into_iter()
        .find(|trace| Some(trace.trace_id) == ctx.trace_id())
        .expect("the query's trace");
    let mut spans: Vec<_> = trace
        .spans
        .iter()
        .filter(|span| !matches!(span.name, "service.call" | "pool.queue"))
        .map(|span| (span.name, span.outcome))
        .collect();
    spans.sort_unstable();
    spans
}

#[test]
fn both_front_ends_record_the_same_spans_on_every_route() {
    let config = ServiceConfig::for_device(GpuDevice::rtx3060()).with_threads(1);
    let blocking = EstimationService::new(config.clone());
    let front =
        AsyncEstimationService::from_service(Arc::new(EstimationService::new(config)), 1, 16);
    let telemetry = Telemetry::new(TelemetryConfig::default());
    let agree = |route: &str,
                 ask_blocking: &dyn Fn(&EstimationService, &TraceContext),
                 ask_async: &dyn Fn(&AsyncEstimationService, &TraceContext)| {
        for round in ["cold", "warm"] {
            let ctx = telemetry.begin_trace(None);
            ask_blocking(&blocking, &ctx);
            let expected = route_spans(&telemetry, &ctx);
            let ctx = telemetry.begin_trace(None);
            ask_async(&front, &ctx);
            assert_eq!(route_spans(&telemetry, &ctx), expected, "{route}, {round}");
            assert!(!expected.is_empty(), "{route}, {round}: no spans");
        }
    };

    // One job family per route, so each route's first query is cold.
    let estimate = job(ModelId::MobileNetV3Small, OptimizerKind::Adam, 4);
    agree(
        "estimate",
        &|service, ctx| drop(service.estimate_traced(&estimate, None, ctx)),
        &|front, ctx| {
            drop(
                front
                    .submit(&estimate, None, None, ctx)
                    .expect("room")
                    .wait(),
            )
        },
    );
    let sweep = job(ModelId::MobileNetV3Small, OptimizerKind::AdamW, 1);
    let batches = [1, 2, 3, 4];
    agree(
        "sweep",
        &|service, ctx| drop(service.sweep_traced(&sweep, &batches, ctx)),
        &|front, ctx| {
            drop(
                front
                    .sweep(&sweep, &batches, None, ctx)
                    .expect("room")
                    .wait(),
            )
        },
    );
    let plan = job(ModelId::MobileNetV3Small, OptimizerKind::RMSprop, 1);
    let device = builtin("rtx4060");
    agree(
        "plan",
        &|service, ctx| drop(service.max_batch_for_device_traced(&plan, device, 1, 8, ctx)),
        &|front, ctx| {
            drop(
                front
                    .plan(&plan, device, 1, 8, None, ctx)
                    .expect("room")
                    .wait(),
            )
        },
    );
    let matrix = [job(ModelId::MobileNetV3Small, OptimizerKind::Adam, 16)];
    agree(
        "matrix",
        &|service, ctx| drop(service.estimate_matrix_traced(&matrix, &DEVICES, ctx)),
        &|front, ctx| {
            drop(
                front
                    .matrix(&matrix, &DEVICES, None, ctx)
                    .expect("room")
                    .wait(),
            )
        },
    );
    let placement = job(ModelId::MobileNetV3Small, OptimizerKind::Adam, 24);
    agree(
        "placement",
        &|service, ctx| drop(service.best_device_for_job_traced(&placement, ctx)),
        &|front, ctx| drop(front.placement(&placement, None, ctx).expect("room").wait()),
    );
}
