//! The pressure-aware fast-path differential suite: every matrix cell,
//! placement and admission answer the service produces must be
//! **bit-identical** to the sequential `Estimator` — across roomy fleets (where every cell is derived from
//! one unbounded replay), pressured fleets (where reclaim/OOM divergence
//! forces full replays), and deterministic pseudo-random fleets with
//! page-unaligned capacities. The counters must prove the replay-strategy
//! split exactly: `fast_path_hits + full_replays == sim_runs`, and an
//! all-roomy fleet performs **zero** full replays after the one unbounded
//! replay per job.

use xmem::prelude::*;
use xmem::service::ServiceConfig;

fn job_grid() -> Vec<TrainJobSpec> {
    vec![
        TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 4).with_iterations(2),
        TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 16).with_iterations(2),
        TrainJobSpec::new(ModelId::DistilGpt2, OptimizerKind::AdamW, 2).with_iterations(2),
    ]
}

/// A service over `fleet`, with the primary device the default rtx3060.
fn service_over(fleet: &[(&str, GpuDevice)]) -> EstimationService {
    let registry = DeviceRegistry::empty();
    for &(name, device) in fleet {
        registry.register(name, device);
    }
    EstimationService::new(ServiceConfig::for_device(GpuDevice::rtx3060()).with_registry(registry))
}

fn sequential(spec: &TrainJobSpec, device: GpuDevice) -> Estimate {
    Estimator::new(EstimatorConfig::for_device(device))
        .estimate_job(spec)
        .expect("sequential estimate succeeds")
}

fn assert_matrices_identical(fleet: &[(&str, GpuDevice)], jobs: &[TrainJobSpec]) {
    let untraced = TraceContext::disabled();
    let fast = service_over(fleet);
    let names: Vec<&str> = fleet.iter().map(|&(name, _)| name).collect();
    let fast_matrix = fast
        .estimate_matrix_traced(jobs, &names, &untraced)
        .expect("names resolve");
    for (row, spec) in fast_matrix.rows.iter().zip(jobs) {
        for (name, device) in fleet {
            let sequential = sequential(spec, *device);
            assert_eq!(
                row.cell(name).expect("cell").estimate.as_ref().unwrap(),
                &sequential,
                "cell ({}, {name}) diverged from the sequential estimator",
                spec.label()
            );
        }
    }

    // The strategy split is exact and exhaustive.
    let stats = fast.sim_stats();
    assert_eq!(stats.fast_path_hits + stats.full_replays, stats.sim_runs);
}

#[test]
fn roomy_fleet_is_identical_with_zero_full_replays() {
    let untraced = TraceContext::disabled();
    // Odd byte capacities (not MiB-aligned) — roomy, but exercising the
    // page-rounding edge of the qualification check.
    let fleet = [
        (
            "roomy-16",
            GpuDevice {
                name: "diff-roomy-16",
                capacity: (16 << 30) + 12_345_678,
                framework_bytes: 537 << 20,
                init_bytes: 0,
            },
        ),
        (
            "roomy-24",
            GpuDevice {
                name: "diff-roomy-24",
                capacity: (24 << 30) + 999,
                framework_bytes: 544 << 20,
                init_bytes: 64 << 20,
            },
        ),
        ("roomy-a100", GpuDevice::a100_40g()),
    ];
    let jobs = job_grid();
    assert_matrices_identical(&fleet, &jobs);

    let fast = service_over(&fleet);
    let names: Vec<&str> = fleet.iter().map(|&(n, _)| n).collect();
    fast.estimate_matrix_traced(&jobs, &names, &untraced)
        .expect("names resolve");
    let stats = fast.sim_stats();
    assert_eq!(
        stats.full_replays, 0,
        "an all-roomy fleet pays no bounded replay at all"
    );
    assert_eq!(stats.unbounded_replays, jobs.len() as u64);
    assert_eq!(stats.fast_path_hits, (jobs.len() * fleet.len()) as u64);
}

#[test]
fn pressured_fleet_splits_strategies_but_never_diverges() {
    let untraced = TraceContext::disabled();
    // Two devices small enough that DistilGpt2 (and at 16, even the CNN's
    // segment peak) pressures them, plus one roomy device: the same
    // matrix must mix derived and fully replayed cells.
    let fleet = [
        (
            "tiny",
            GpuDevice {
                name: "diff-tiny",
                capacity: (1 << 30) + 777_777,
                framework_bytes: 512 << 20,
                init_bytes: 0,
            },
        ),
        (
            "cramped",
            GpuDevice {
                name: "diff-cramped",
                capacity: (2 << 30) + 55_555,
                framework_bytes: 529 << 20,
                init_bytes: 128 << 20,
            },
        ),
        ("roomy", GpuDevice::a100_40g()),
    ];
    let jobs = job_grid();
    assert_matrices_identical(&fleet, &jobs);

    let fast = service_over(&fleet);
    let names: Vec<&str> = fleet.iter().map(|&(n, _)| n).collect();
    fast.estimate_matrix_traced(&jobs, &names, &untraced)
        .expect("names resolve");
    let stats = fast.sim_stats();
    assert!(
        stats.full_replays > 0,
        "pressured devices must pay full replays"
    );
    assert!(
        stats.fast_path_hits > 0,
        "the roomy column must still derive"
    );
    assert_eq!(stats.fast_path_hits + stats.full_replays, stats.sim_runs);
}

#[test]
fn pseudo_random_fleets_are_identical_across_strategies() {
    // Deterministic xorshift over capacities/overheads: many oddly sized
    // fleets, no external RNG dependency in the root test crate.
    const NAMES: [&str; 4] = ["rand-0", "rand-1", "rand-2", "rand-3"];
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let jobs = [
        TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 8).with_iterations(2),
        TrainJobSpec::new(ModelId::DistilGpt2, OptimizerKind::AdamW, 2).with_iterations(2),
    ];
    for _round in 0..4 {
        let fleet: Vec<(&str, GpuDevice)> = NAMES
            .iter()
            .map(|&name| {
                (
                    name,
                    GpuDevice {
                        name: "diff-rand",
                        // 1.4 GB .. ~18 GB, byte-granular.
                        capacity: 1_400_000_000 + next() % 17_000_000_000,
                        framework_bytes: 500_000_000 + next() % 90_000_000,
                        init_bytes: next() % 130_000_000,
                    },
                )
            })
            .collect();
        assert_matrices_identical(&fleet, &jobs);
    }
}

#[test]
fn placement_and_admission_agree_across_strategies() {
    let untraced = TraceContext::disabled();
    let fleet = [
        ("rtx3060", GpuDevice::rtx3060()),
        ("rtx4060", GpuDevice::rtx4060()),
        ("a100", GpuDevice::a100_40g()),
    ];
    let fast = service_over(&fleet);
    // Best fit: the smallest capacity that fits, ties in name order.
    let mut by_capacity = fleet;
    by_capacity.sort_by_key(|&(name, device)| (device.capacity, name));
    for spec in job_grid() {
        let expected = by_capacity.iter().find_map(|&(name, device)| {
            let estimate = sequential(&spec, device);
            (!estimate.oom_predicted).then(|| DevicePlacement {
                device: name.to_string(),
                estimate,
            })
        });
        assert_eq!(
            fast.best_device_for_job_traced(&spec, &untraced)
                .expect("estimates"),
            expected,
            "placement diverged for {}",
            spec.label()
        );
    }
    // The admission answer fits, and one batch more does not.
    let base = TrainJobSpec::new(ModelId::DistilGpt2, OptimizerKind::AdamW, 1).with_iterations(2);
    let device = GpuDevice::rtx4060();
    let max = fast
        .max_batch_for_device_traced(&base, device, 1, 32, &untraced)
        .expect("estimates")
        .expect("batch 1 fits");
    let at = |batch: usize| {
        let mut spec = base.clone();
        spec.batch = batch;
        sequential(&spec, device).oom_predicted
    };
    assert!(!at(max), "the admission answer must fit");
    if max < 32 {
        assert!(at(max + 1), "one batch past the answer must not fit");
    }
}
