//! The device-matrix differential suite: every cell of an M-jobs ×
//! D-devices matrix must be **bit-identical** to the sequential
//! single-device `Estimator`, the service counters must prove "one
//! analysis per job, one simulation per cell" (including under concurrent
//! async submission), the cache-key split must make matrix cells
//! reachable from later single-device queries, and device
//! reconfiguration must invalidate exactly one device's entries.

use std::sync::Arc;
use xmem::core::EstimateError;
use xmem::prelude::*;

const DEVICES: [&str; 3] = ["rtx3060", "rtx4060", "a100"];

fn device_by_name(name: &str) -> GpuDevice {
    DeviceRegistry::builtin().get(name).expect("builtin device")
}

/// Three distinct jobs, small enough to profile quickly.
fn job_grid() -> Vec<TrainJobSpec> {
    vec![
        TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 4).with_iterations(2),
        TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 8).with_iterations(2),
        TrainJobSpec::new(ModelId::DistilGpt2, OptimizerKind::AdamW, 2).with_iterations(2),
    ]
}

/// The sequential ground truth for one cell: a fresh per-device
/// `Estimator` over a fresh profile run.
fn sequential_cell(spec: &TrainJobSpec, device_name: &str) -> Estimate {
    Estimator::new(EstimatorConfig::for_device(device_by_name(device_name)))
        .estimate_job(spec)
        .expect("sequential estimate succeeds")
}

#[test]
fn matrix_cells_are_bit_identical_to_the_sequential_estimator() {
    let untraced = TraceContext::disabled();
    let jobs = job_grid();
    let service = EstimationService::for_device(GpuDevice::rtx3060());
    let matrix = service
        .estimate_matrix_traced(&jobs, &DEVICES, &untraced)
        .expect("builtin devices resolve");

    assert_eq!(matrix.devices, DEVICES);
    assert_eq!(matrix.rows.len(), jobs.len());
    assert_eq!(matrix.num_cells(), jobs.len() * DEVICES.len());
    for (row, spec) in matrix.rows.iter().zip(&jobs) {
        assert_eq!(&row.spec, spec, "rows keep the query's job order");
        for device in DEVICES {
            let cell = row.cell(device).expect("every device has a cell");
            assert_eq!(
                cell.estimate.as_ref().expect("estimation succeeds"),
                &sequential_cell(spec, device),
                "cell ({}, {device}) diverged from the sequential path",
                spec.label()
            );
        }
    }

    // The batched-replay contract, straight from the counters: one
    // profile/analyze per job, one simulation per cell.
    assert_eq!(service.profile_runs(), jobs.len() as u64);
    let sims = service.sim_stats();
    assert_eq!(sims.sim_runs, matrix.num_cells() as u64);
    assert_eq!(sims.cache.misses, matrix.num_cells() as u64);
    assert_eq!(sims.cache.insertions, matrix.num_cells() as u64);
    assert_eq!(sims.device_shards, DEVICES.len());
}

#[test]
fn repeat_matrix_and_single_device_queries_are_pure_cache_hits() {
    let untraced = TraceContext::disabled();
    let jobs = job_grid();
    let service = EstimationService::for_device(GpuDevice::rtx3060());
    let first = service
        .estimate_matrix_traced(&jobs, &DEVICES, &untraced)
        .expect("devices resolve");
    let analyses = service.profile_runs();
    let sim_runs = service.sim_runs();

    // A repeated matrix re-runs nothing: every cell is a sim-shard hit.
    let second = service
        .estimate_matrix_traced(&jobs, &DEVICES, &untraced)
        .expect("devices resolve");
    assert_eq!(first, second);
    assert_eq!(service.profile_runs(), analyses);
    let sims = service.sim_stats();
    assert_eq!(sims.sim_runs, sim_runs);
    assert_eq!(sims.cache.hits, first.num_cells() as u64);

    // Cache-key split: a later *single-device* query for one cell hits
    // the device's simulation shard — no profile, no simulation.
    let single = service
        .estimate_traced(&jobs[1], Some("rtx4060"), &untraced)
        .expect("estimation succeeds");
    assert_eq!(
        &single,
        first.cell(1, "rtx4060").unwrap().estimate.as_ref().unwrap()
    );
    assert_eq!(service.profile_runs(), analyses);
    let sims = service.sim_stats();
    assert_eq!(sims.sim_runs, sim_runs);
    assert_eq!(sims.cache.hits, first.num_cells() as u64 + 1);
}

#[test]
fn concurrent_matrix_and_single_device_queries_never_disagree() {
    const SINGLE_COPIES: usize = 4;

    let jobs = job_grid();
    let expected: Vec<Vec<Estimate>> = jobs
        .iter()
        .map(|spec| DEVICES.iter().map(|d| sequential_cell(spec, d)).collect())
        .collect();

    let service = AsyncEstimationService::from_service(
        Arc::new(EstimationService::new(ServiceConfig::for_device(
            GpuDevice::rtx3060(),
        ))),
        0,
        256,
    );
    // Two whole-matrix queries and a herd of single-device queries for
    // every cell, all in flight at once.
    let matrix_a = service
        .matrix(&jobs, &DEVICES, None, &TraceContext::disabled())
        .expect("queue room");
    let mut singles: Vec<(usize, usize, xmem::service::EstimateFuture)> = Vec::new();
    for _ in 0..SINGLE_COPIES {
        for (j, spec) in jobs.iter().enumerate() {
            for (d, device) in DEVICES.iter().enumerate() {
                singles.push((
                    j,
                    d,
                    service
                        .submit(spec, Some(device), None, &TraceContext::disabled())
                        .expect("queue room"),
                ));
            }
        }
    }
    // Plain submissions against the service's own configured device must
    // agree with the matrix's rtx3060 column (the service was built with
    // the same paper-default configuration).
    let own_device: Vec<_> = jobs
        .iter()
        .map(|spec| {
            service
                .submit(spec, None, None, &TraceContext::disabled())
                .expect("queue room")
        })
        .collect();
    let matrix_b = service
        .matrix(&jobs, &DEVICES, None, &TraceContext::disabled())
        .expect("queue room");

    let matrix_a = block_on(matrix_a).expect("devices resolve");
    let matrix_b = block_on(matrix_b).expect("devices resolve");
    assert_eq!(matrix_a, matrix_b);
    for (j, row) in matrix_a.rows.iter().enumerate() {
        for (d, device) in DEVICES.iter().enumerate() {
            assert_eq!(
                row.cell(device).unwrap().estimate.as_ref().unwrap(),
                &expected[j][d],
                "concurrent matrix cell ({j}, {device}) diverged"
            );
        }
    }
    for (j, d, future) in singles {
        assert_eq!(
            &block_on(future).expect("estimation succeeds"),
            &expected[j][d],
            "concurrent single-device query ({j}, {d}) diverged"
        );
    }
    for (j, future) in own_device.into_iter().enumerate() {
        assert_eq!(
            &block_on(future).expect("estimation succeeds"),
            &expected[j][0],
            "own-device submission {j} diverged from the rtx3060 column"
        );
    }

    // Under all that concurrency, the single-flight layers still bound
    // the work: one simulation per cell, and at most one analysis per
    // cell computed, at least one per job. No analysis outlives its
    // request, so requests that did not overlap analyzed a job apart.
    let inner = service.service();
    let profiles = inner.profile_runs();
    assert!(
        jobs.len() as u64 <= profiles && profiles <= (jobs.len() * DEVICES.len()) as u64,
        "{profiles} profile runs"
    );
    assert_eq!(
        inner.sim_runs(),
        (jobs.len() * DEVICES.len()) as u64,
        "concurrent replays must coalesce onto one simulation per cell"
    );
}

#[test]
fn shared_service_front_ends_share_the_matrix_caches() {
    let untraced = TraceContext::disabled();
    // One blocking service shared by an async front end: a matrix through
    // the async path leaves the blocking path fully warmed.
    let jobs = job_grid();
    let blocking = Arc::new(EstimationService::for_device(GpuDevice::rtx3060()));
    let service = AsyncEstimationService::from_service(Arc::clone(&blocking), 4, 64);
    let matrix = block_on(
        service
            .matrix(&jobs, &DEVICES, None, &TraceContext::disabled())
            .expect("queue room"),
    )
    .expect("devices resolve");
    let runs = blocking.sim_runs();
    let direct = blocking
        .estimate_traced(&jobs[0], Some("a100"), &untraced)
        .expect("estimation succeeds");
    assert_eq!(
        &direct,
        matrix.cell(0, "a100").unwrap().estimate.as_ref().unwrap()
    );
    assert_eq!(blocking.sim_runs(), runs, "blocking query was a pure hit");
}

#[test]
fn device_reconfiguration_invalidates_only_that_device() {
    let untraced = TraceContext::disabled();
    let registry = DeviceRegistry::empty();
    registry.register(
        "small",
        GpuDevice {
            name: "test-small",
            capacity: 4 << 30,
            framework_bytes: 512 << 20,
            init_bytes: 0,
        },
    );
    registry.register("big", GpuDevice::a100_40g());
    let jobs = job_grid();
    let service = EstimationService::new(
        ServiceConfig::for_device(GpuDevice::rtx3060()).with_registry(registry),
    );
    let matrix = service
        .estimate_matrix_traced(&jobs, &["small", "big"], &untraced)
        .expect("devices resolve");
    let analyses = service.profile_runs();
    let sim_runs = service.sim_runs();

    // Reconfigure `small` (more memory, different framework overhead).
    let replaced = service.register_device(
        "small",
        GpuDevice {
            name: "test-small",
            capacity: 8 << 30,
            framework_bytes: 600 << 20,
            init_bytes: 0,
        },
    );
    assert_eq!(replaced.expect("was registered").capacity, 4 << 30);
    assert_eq!(
        service.sim_stats().invalidated_entries,
        jobs.len() as u64,
        "exactly the replaced device's cells are dropped"
    );

    // `big` keeps its warm entries...
    let hits_before = service.sim_stats().cache.hits;
    let big = service
        .estimate_traced(&jobs[0], Some("big"), &untraced)
        .expect("estimates");
    assert_eq!(
        &big,
        matrix.cell(0, "big").unwrap().estimate.as_ref().unwrap()
    );
    assert_eq!(service.sim_runs(), sim_runs, "no re-simulation for `big`");
    assert_eq!(service.sim_stats().cache.hits, hits_before + 1);

    // ...while `small` re-simulates under its new configuration, which
    // profiles the job once more: no analysis outlives its request.
    let small = service
        .estimate_traced(&jobs[0], Some("small"), &untraced)
        .expect("estimates");
    assert_eq!(service.sim_runs(), sim_runs + 1);
    assert_eq!(service.profile_runs(), analyses + 1, "one new analysis");
    assert_ne!(
        &small,
        matrix.cell(0, "small").unwrap().estimate.as_ref().unwrap(),
        "the new framework overhead must shift the estimate"
    );
    assert_eq!(
        small,
        sequential_cell_for(&jobs[0], service.registry().get("small").unwrap()),
        "the fresh simulation matches the sequential path for the new config"
    );
}

fn sequential_cell_for(spec: &TrainJobSpec, device: GpuDevice) -> Estimate {
    Estimator::new(EstimatorConfig::for_device(device))
        .estimate_job(spec)
        .expect("sequential estimate succeeds")
}

#[test]
fn reconfiguring_one_alias_spares_the_shard_other_names_still_own() {
    let untraced = TraceContext::disabled();
    // Two registry names with an *identical* config share one simulation
    // shard; replacing one name must not evict the other's warm entries.
    let registry = DeviceRegistry::empty();
    registry.register("pool-east", GpuDevice::rtx3060());
    registry.register("pool-west", GpuDevice::rtx3060());
    let service = EstimationService::new(
        ServiceConfig::for_device(GpuDevice::rtx3060()).with_registry(registry),
    );
    let job = &job_grid()[0];
    let warm = service
        .estimate_traced(job, Some("pool-west"), &untraced)
        .expect("estimates");
    let sim_runs = service.sim_runs();

    service.register_device("pool-east", GpuDevice::a100_40g());
    assert_eq!(
        service.sim_stats().invalidated_entries,
        0,
        "pool-west still maps to the old config, so its shard survives"
    );
    let still_warm = service
        .estimate_traced(job, Some("pool-west"), &untraced)
        .expect("estimates");
    assert_eq!(warm, still_warm);
    assert_eq!(service.sim_runs(), sim_runs, "pure cache hit");
}

#[test]
fn registry_and_config_accessors_never_diverge() {
    let service = EstimationService::for_device(GpuDevice::rtx3060());
    service.register_device("lab-h100", GpuDevice::a100_40g());
    assert!(service.registry().get("lab-h100").is_some());
    assert!(
        service.config().registry.get("lab-h100").is_some(),
        "config() must see the same fleet as registry()"
    );
    assert_eq!(
        service.registry().names(),
        service.config().registry.names()
    );
}

#[test]
fn unknown_devices_fail_fast_by_name() {
    let untraced = TraceContext::disabled();
    let service = EstimationService::for_device(GpuDevice::rtx3060());
    let jobs = job_grid();
    assert_eq!(
        service.estimate_matrix_traced(&jobs, &["rtx3060", "nope"], &untraced),
        Err(EstimateError::UnknownDevice("nope".to_string()))
    );
    assert_eq!(
        service.estimate_traced(&jobs[0], Some("phantom"), &untraced),
        Err(EstimateError::UnknownDevice("phantom".to_string()))
    );
    // Failing fast means no partial work happened.
    assert_eq!(service.profile_runs(), 0);
    assert_eq!(service.sim_runs(), 0);
}

#[test]
fn degenerate_rows_fail_per_cell_without_poisoning_the_matrix() {
    let untraced = TraceContext::disabled();
    let healthy =
        TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 4).with_iterations(2);
    // Zero profiled iterations: the Analyzer rejects the trace.
    let degenerate =
        TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 4).with_iterations(0);
    let service = EstimationService::for_device(GpuDevice::rtx3060());
    let matrix = service
        .estimate_matrix_traced(
            &[healthy.clone(), degenerate],
            &["rtx3060", "rtx4060"],
            &untraced,
        )
        .expect("device names resolve; per-job failures stay in cells");
    for device in ["rtx3060", "rtx4060"] {
        assert!(matrix.cell(0, device).unwrap().fits());
        assert_eq!(
            matrix.cell(1, device).unwrap().estimate,
            Err(EstimateError::MissingIterations)
        );
    }
    assert_eq!(matrix.rows[1].fitting_devices(), Vec::<&str>::new());
    // The degenerate job never reached a simulation.
    assert_eq!(service.sim_runs(), 2);
}

// ---------------------------------------------------------------------------
// Golden fixture: one matrix result, pinned byte-for-byte.
// ---------------------------------------------------------------------------

/// The committed fixture (see [`golden_jobs`] for the grid). The pipeline
/// is deterministic in the job key, so these numbers are contract:
/// refactors of the profiler, Analyzer, Orchestrator or allocator
/// simulation must not silently shift them. Regenerate only for a
/// *deliberate* semantic change:
///
/// ```text
/// cargo test --test matrix_consistency regenerate_matrix_golden_fixture -- --ignored
/// ```
const MATRIX_GOLDEN: &str = include_str!("fixtures/matrix_golden.json");
const MATRIX_GOLDEN_PATH: &str = "tests/fixtures/matrix_golden.json";

#[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
struct GoldenMatrix {
    devices: Vec<String>,
    rows: Vec<GoldenRow>,
}

#[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
struct GoldenRow {
    label: String,
    cells: Vec<GoldenCell>,
}

#[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
struct GoldenCell {
    peak_bytes: u64,
    job_peak_bytes: u64,
    tensor_peak_bytes: u64,
    oom: bool,
}

fn golden_jobs() -> Vec<TrainJobSpec> {
    vec![
        TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 4).with_iterations(2),
        TrainJobSpec::new(ModelId::DistilGpt2, OptimizerKind::AdamW, 2).with_iterations(2),
    ]
}

fn compute_golden_matrix() -> GoldenMatrix {
    let untraced = TraceContext::disabled();
    let service = EstimationService::for_device(GpuDevice::rtx3060());
    let matrix = service
        .estimate_matrix_traced(&golden_jobs(), &DEVICES, &untraced)
        .expect("builtin devices resolve");
    GoldenMatrix {
        devices: matrix.devices.clone(),
        rows: matrix
            .rows
            .iter()
            .map(|row| GoldenRow {
                label: row.spec.label(),
                cells: row
                    .cells
                    .iter()
                    .map(|cell| {
                        let e = cell.estimate.as_ref().expect("golden jobs estimate");
                        GoldenCell {
                            peak_bytes: e.peak_bytes,
                            job_peak_bytes: e.job_peak_bytes,
                            tensor_peak_bytes: e.tensor_peak_bytes,
                            oom: e.oom_predicted,
                        }
                    })
                    .collect(),
            })
            .collect(),
    }
}

#[test]
fn matrix_result_matches_the_golden_fixture() {
    let golden: GoldenMatrix = serde_json::from_str(MATRIX_GOLDEN).expect("fixture parses");
    assert_eq!(
        compute_golden_matrix(),
        golden,
        "matrix estimates drifted from the committed fixture; regenerate \
         only for a deliberate semantic change (see MATRIX_GOLDEN docs)"
    );
}

/// Writes the fixture. Ignored: run explicitly to capture a deliberate
/// semantic change.
#[test]
#[ignore = "regenerates the committed fixture"]
fn regenerate_matrix_golden_fixture() {
    let json = serde_json::to_string(&compute_golden_matrix()).expect("serialize");
    std::fs::write(MATRIX_GOLDEN_PATH, json).expect("write fixture");
}

#[test]
fn best_device_is_the_smallest_fitting_one() {
    let untraced = TraceContext::disabled();
    let service = EstimationService::for_device(GpuDevice::rtx3060());
    // A small CNN fits everything; best fit is the 8 GiB card.
    let small =
        TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 8).with_iterations(2);
    let placement = service
        .best_device_for_job_traced(&small, &untraced)
        .expect("estimation succeeds")
        .expect("a device fits");
    assert_eq!(placement.device, "rtx4060");
    assert!(!placement.estimate.oom_predicted);
    assert_eq!(
        placement.estimate,
        sequential_cell(&small, "rtx4060"),
        "the justifying estimate is the device's own cell"
    );

    // Pythia-1B + AdamW needs ~16 GiB for params+grads+state alone: only
    // the A100 can hold it.
    let heavy = TrainJobSpec::new(ModelId::Pythia1B, OptimizerKind::AdamW, 2).with_iterations(2);
    let placement = service
        .best_device_for_job_traced(&heavy, &untraced)
        .expect("estimation succeeds")
        .expect("the A100 fits");
    assert_eq!(placement.device, "a100");

    // A fleet of one tiny device fits nothing.
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
    let heavy_for_tiny =
        TrainJobSpec::new(ModelId::DistilGpt2, OptimizerKind::AdamW, 8).with_iterations(2);
    assert_eq!(
        cramped
            .best_device_for_job_traced(&heavy_for_tiny, &untraced)
            .expect("estimation succeeds"),
        None
    );
}
