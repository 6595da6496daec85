//! The hit-first matrix path and the warm placement path: a matrix reads
//! each row's stage entry once and each cell once, only missed cells fan
//! out, and a warm query does nothing but read — while every answer stays
//! bit-identical to the sequential `Estimator` and a warm trace keeps its
//! own spans.

use std::sync::Arc;
use xmem::core::EstimateError;
use xmem::prelude::*;
use xmem::service::{CellFill, Telemetry, TelemetryConfig, TraceContext};

const DEVICES: [&str; 3] = ["rtx3060", "rtx4060", "a100"];

fn job_grid() -> Vec<TrainJobSpec> {
    vec![
        TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 4).with_iterations(2),
        TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 8).with_iterations(2),
        TrainJobSpec::new(ModelId::DistilGpt2, OptimizerKind::AdamW, 2).with_iterations(2),
    ]
}

fn sequential_cell(spec: &TrainJobSpec, device: GpuDevice) -> Estimate {
    Estimator::new(EstimatorConfig::for_device(device))
        .estimate_job(spec)
        .expect("sequential estimate succeeds")
}

/// Stage-cache reads so far: `(hits, misses)`.
fn stage_reads(service: &EstimationService) -> (u64, u64) {
    let stats = service.cache_stats();
    (stats.hits, stats.misses)
}

#[test]
fn mixed_hit_miss_matrix_is_bit_identical_to_the_sequential_estimator() {
    let untraced = TraceContext::disabled();
    let jobs = job_grid();
    let service = EstimationService::for_device(GpuDevice::rtx3060());
    // Pre-warm two cells through the single-device route.
    service
        .estimate_traced(&jobs[0], Some("rtx4060"), &untraced)
        .expect("estimates");
    service
        .estimate_traced(&jobs[2], Some("a100"), &untraced)
        .expect("estimates");
    assert_eq!(service.sim_runs(), 2);

    let matrix = service
        .estimate_matrix_traced(&jobs, &DEVICES, &untraced)
        .expect("resolve");
    for (row, spec) in matrix.rows.iter().zip(&jobs) {
        assert_eq!(&row.spec, spec);
        for device in DEVICES {
            let cell = row.cell(device).expect("every device has a cell");
            assert_eq!(
                cell.estimate.as_ref().expect("estimation succeeds"),
                &sequential_cell(spec, DeviceRegistry::builtin().get(device).unwrap()),
                "cell ({}, {device}) diverged from the sequential path",
                spec.label()
            );
        }
    }
    // One analysis per job, one simulation per cell: the two pre-warmed
    // cells were hits, the other seven misses, each counted once.
    assert_eq!(service.profile_runs(), jobs.len() as u64);
    let sims = service.sim_stats();
    assert_eq!(sims.sim_runs, matrix.num_cells() as u64);
    assert_eq!(sims.cache.hits, 2);
    assert_eq!(sims.cache.misses, matrix.num_cells() as u64);
    assert_eq!(sims.cache.insertions, matrix.num_cells() as u64);
}

#[test]
fn all_hit_matrix_only_reads_its_cells() {
    let untraced = TraceContext::disabled();
    let jobs = job_grid();
    let service = EstimationService::for_device(GpuDevice::rtx3060());
    let cold = service
        .estimate_matrix_traced(&jobs, &DEVICES, &untraced)
        .expect("resolve");
    let (profiles, sims, (stage_hits, stage_misses)) = (
        service.profile_runs(),
        service.sim_stats(),
        stage_reads(&service),
    );

    let warm = service
        .estimate_matrix_traced(&jobs, &DEVICES, &untraced)
        .expect("resolve");
    assert_eq!(warm, cold);
    let after = service.sim_stats();
    assert_eq!(after.cache.hits, sims.cache.hits + cold.num_cells() as u64);
    assert_eq!(after.cache.misses, sims.cache.misses);
    assert_eq!(after.sim_runs, sims.sim_runs);
    assert_eq!(service.profile_runs(), profiles);
    assert_eq!(
        stage_reads(&service),
        (stage_hits + jobs.len() as u64, stage_misses),
        "one stage read per row, not one per cell"
    );
}

#[test]
fn resident_cells_answer_rows_whose_stages_were_evicted() {
    let untraced = TraceContext::disabled();
    // Every cell is relayed (the sequential `Estimator`'s answer, filled
    // the way a cluster peer's forwarded answer is), so no analysis was
    // ever loaded — but every cell is resident.
    let service = EstimationService::for_device(GpuDevice::rtx3060());
    let jobs = job_grid();
    for spec in &jobs {
        let relayed = sequential_cell(spec, GpuDevice::rtx3060());
        assert_eq!(
            service.fill_sim_cell(spec, Some("rtx3060"), relayed),
            CellFill::Filled
        );
    }
    let rows = jobs.len() as u64;
    let cold = service
        .estimate_matrix_traced(&jobs, &["rtx3060"], &untraced)
        .expect("resolve");
    // The first read already finds no stage entry: it must answer from the
    // resident cells without profiling or replaying.
    assert_eq!(service.profile_runs(), 0, "no re-profile");
    assert_eq!(service.sim_runs(), 0);
    assert_eq!(stage_reads(&service), (0, rows), "every row's stage absent");
    let warm = service
        .estimate_matrix_traced(&jobs, &["rtx3060"], &untraced)
        .expect("resolve");
    assert_eq!(warm, cold);
    assert_eq!(service.profile_runs(), 0, "no re-profile");
    assert_eq!(service.sim_runs(), 0);
    assert_eq!(stage_reads(&service), (0, 2 * rows));
}

#[test]
fn degenerate_rows_still_fail_per_cell_on_a_warm_matrix() {
    let untraced = TraceContext::disabled();
    let healthy = job_grid().remove(0);
    let degenerate = healthy.clone().with_iterations(0);
    let service = EstimationService::for_device(GpuDevice::rtx3060());
    let jobs = [healthy, degenerate];
    let cold = service
        .estimate_matrix_traced(&jobs, &DEVICES, &untraced)
        .expect("resolve");
    let warm = service
        .estimate_matrix_traced(&jobs, &DEVICES, &untraced)
        .expect("resolve");
    assert_eq!(warm, cold);
    for device in DEVICES {
        assert_eq!(
            warm.cell(1, device).unwrap().estimate,
            Err(EstimateError::MissingIterations)
        );
    }
    assert_eq!(service.profile_runs(), 2);
}

#[test]
fn warm_best_device_gives_the_same_answer_and_counts() {
    let untraced = TraceContext::disabled();
    let service = EstimationService::for_device(GpuDevice::rtx3060());
    // Capacity order: rtx4060 (8 GiB), rtx3060 (12 GiB), a100 (40 GiB).
    let small =
        TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 8).with_iterations(2);
    let heavy = TrainJobSpec::new(ModelId::Pythia1B, OptimizerKind::AdamW, 2).with_iterations(2);
    for (spec, device, probed) in [(&small, "rtx4060", 1), (&heavy, "a100", 3)] {
        let cold = service
            .best_device_for_job_traced(spec, &untraced)
            .expect("estimates")
            .expect("a device fits");
        assert_eq!(cold.device, device);
        assert_eq!(
            cold.estimate,
            sequential_cell(spec, DeviceRegistry::builtin().get(device).unwrap())
        );
        let (profiles, sims, (stage_hits, stage_misses)) = (
            service.profile_runs(),
            service.sim_stats(),
            stage_reads(&service),
        );
        let warm = service
            .best_device_for_job_traced(spec, &untraced)
            .expect("estimates");
        assert_eq!(warm.as_ref(), Some(&cold));
        let after = service.sim_stats();
        assert_eq!(after.cache.hits, sims.cache.hits + probed);
        assert_eq!(after.cache.misses, sims.cache.misses);
        assert_eq!(after.sim_runs, sims.sim_runs);
        assert_eq!(service.profile_runs(), profiles);
        assert_eq!(stage_reads(&service), (stage_hits + 1, stage_misses));
    }

    // A job that fits nowhere re-simulates nothing when warm.
    let tiny = DeviceRegistry::empty();
    tiny.register(
        "tiny",
        GpuDevice {
            name: "test-tiny",
            capacity: 1 << 30,
            framework_bytes: 512 << 20,
            init_bytes: 0,
        },
    );
    let cramped =
        EstimationService::new(ServiceConfig::for_device(GpuDevice::rtx3060()).with_registry(tiny));
    let too_big =
        TrainJobSpec::new(ModelId::DistilGpt2, OptimizerKind::AdamW, 8).with_iterations(2);
    assert_eq!(
        cramped
            .best_device_for_job_traced(&too_big, &untraced)
            .expect("estimates"),
        None
    );
    let sim_runs = cramped.sim_runs();
    assert_eq!(
        cramped
            .best_device_for_job_traced(&too_big, &untraced)
            .expect("estimates"),
        None
    );
    assert_eq!(cramped.sim_runs(), sim_runs);

    // Errors still come from the stage lookup, cold and warm.
    let degenerate = small.clone().with_iterations(0);
    for _ in 0..2 {
        assert_eq!(
            service.best_device_for_job_traced(&degenerate, &untraced),
            Err(EstimateError::MissingIterations)
        );
    }
}

#[test]
fn warm_matrix_trace_keeps_its_service_call_span() {
    // A 16 x 8 matrix: eight devices, sixteen rows over four distinct
    // jobs — 128 cells, enough for per-cell events to exhaust the
    // 256-span trace cap on their own.
    let registry = DeviceRegistry::builtin();
    for gib in [16u64, 24, 32, 48, 80] {
        registry.register(
            format!("fleet-{gib}g"),
            GpuDevice {
                name: "fleet",
                capacity: gib << 30,
                framework_bytes: 512 << 20,
                init_bytes: 0,
            },
        );
    }
    let devices = registry.names();
    assert_eq!(devices.len(), 8);
    let distinct: Vec<TrainJobSpec> = [2, 4, 6, 8]
        .iter()
        .map(|&b| {
            TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, b).with_iterations(2)
        })
        .collect();
    let jobs: Vec<TrainJobSpec> = distinct.iter().cycle().take(16).cloned().collect();
    let names: Vec<&str> = devices.iter().map(String::as_str).collect();
    let service = Arc::new(EstimationService::new(
        ServiceConfig::for_device(GpuDevice::rtx3060()).with_registry(registry),
    ));
    let front = AsyncEstimationService::from_service(Arc::clone(&service), 2, 16);
    let cold = front
        .matrix(&jobs, &names, None, &TraceContext::disabled())
        .expect("queue has room")
        .wait()
        .expect("devices resolve");

    let telemetry = Telemetry::new(TelemetryConfig::default());
    let ctx = telemetry.begin_trace(None);
    let warm = front
        .matrix(&jobs, &names, None, &ctx)
        .expect("queue has room")
        .wait()
        .expect("devices resolve");
    assert_eq!(warm, cold);
    telemetry.finish(&ctx, "POST", "/v1/matrix", 200, false);

    let traces = telemetry.recent_traces(1, None);
    let spans = &traces[0].spans;
    let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
    let count = |name: &str| names.iter().filter(|&&n| n == name).count();
    assert_eq!(count("service.call"), 1, "{} spans: {names:?}", names.len());
    assert_eq!(count("pool.queue"), 0, "a warm matrix is read, not pooled");
    assert_eq!(count("cache.stage"), 1, "one stage hit event per request");
    assert_eq!(count("cache.sim"), 1, "one cell hit event per request");
    assert_eq!(names.len(), 3);
}
