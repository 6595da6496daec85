//! The incremental-sweep differential suite: every cell an incremental
//! (parameterized-replay) sweep produces must be **bit-identical** to the
//! sequential per-batch `Estimator` — on roomy and pressured primary
//! devices (each cell a bounded replay of the materialized buffer), and
//! on deterministic pseudo-random devices with page-unaligned
//! capacities. The counters must prove the contract exactly: a B-point
//! sweep performs **one** parameterized fit from three anchor profiles,
//! every cell counts as `incremental_cells`, and
//! `fast_path_hits + full_replays + incremental_cells == sim_runs`.

use xmem::core::{AnalyzedTrace, Analyzer};
use xmem::prelude::*;

/// The swept batch grid: dense enough to clear the incremental
/// eligibility floor, with interior points the anchors never profile.
const BATCHES: [usize; 6] = [1, 2, 3, 4, 6, 8];

fn base_job() -> TrainJobSpec {
    TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 1).with_iterations(2)
}

fn job_at(base: &TrainJobSpec, batch: usize) -> TrainJobSpec {
    let mut spec = base.clone();
    spec.batch = batch;
    spec
}

/// The sequential ground truth for one sweep cell: a fresh per-device
/// `Estimator` over a fresh profile run.
fn sequential_cell(spec: &TrainJobSpec, device: GpuDevice) -> Estimate {
    Estimator::new(EstimatorConfig::for_device(device))
        .estimate_job(spec)
        .expect("sequential estimate succeeds")
}

/// The sequential ground truth for a fleet's sweeps over [`BATCHES`]:
/// each batch profiled and analyzed once, then replayed by a fresh
/// per-device `Estimator` for every cell. Each device's sweep comes from
/// its own service, that device being the primary, which profiles only
/// the three anchors.
fn assert_matches_sequential(
    base: &TrainJobSpec,
    analyses: &[AnalyzedTrace],
    fleet: &[(&str, GpuDevice)],
) {
    let untraced = TraceContext::disabled();
    for &(name, device) in fleet {
        let service = EstimationService::for_device(device);
        let swept = service.sweep_traced(base, &BATCHES, &untraced);
        for (((batch, estimate), &want), analyzed) in swept.iter().zip(&BATCHES).zip(analyses) {
            assert_eq!(*batch, want, "rows keep the swept batch order");
            assert_eq!(
                estimate.as_ref().unwrap(),
                &Estimator::new(EstimatorConfig::for_device(device)).estimate_analyzed(analyzed),
                "cell (batch {batch}, {name}) diverged from the sequential estimator"
            );
        }
        assert_eq!(
            service.profile_runs(),
            3,
            "{name}: a sweep profiles 3 anchors"
        );
        let sims = service.sim_stats();
        assert_eq!(sims.param_replays, 1, "{name}");
        assert_eq!(sims.incremental_cells, BATCHES.len() as u64, "{name}");
        assert_eq!(
            sims.fast_path_hits + sims.full_replays + sims.incremental_cells,
            sims.sim_runs,
            "{name}"
        );
    }
}

fn analyses(base: &TrainJobSpec) -> Vec<AnalyzedTrace> {
    BATCHES
        .iter()
        .map(|&batch| {
            Analyzer::new()
                .analyze(&profile_on_cpu(&job_at(base, batch)))
                .expect("analysis succeeds")
        })
        .collect()
}

#[test]
fn incremental_sweep_is_bit_identical_to_the_sequential_estimator() {
    let untraced = TraceContext::disabled();
    let base = base_job();
    let service = EstimationService::for_device(GpuDevice::rtx3060());
    let cells = service.sweep_traced(&base, &BATCHES, &untraced);

    assert_eq!(cells.len(), BATCHES.len());
    for (batch, estimate) in &cells {
        let estimate = estimate.as_ref().expect("sweep cells estimate");
        assert_eq!(
            estimate,
            &sequential_cell(&job_at(&base, *batch), GpuDevice::rtx3060()),
            "sweep cell at batch {batch} diverged from the sequential path"
        );
    }

    // The incremental contract, straight from the counters: three anchor
    // profiles, one parameterized fit, every cell derived from it.
    assert_eq!(service.profile_runs(), 3, "a sweep profiles 3 anchors");
    let sims = service.sim_stats();
    assert_eq!(sims.param_replays, 1, "one fit per sweep family");
    assert_eq!(sims.incremental_cells, BATCHES.len() as u64);
    assert_eq!(sims.full_replays, 0);
    assert_eq!(
        sims.fast_path_hits + sims.full_replays + sims.incremental_cells,
        sims.sim_runs,
        "the replay-strategy split must be exact and exhaustive"
    );
}

#[test]
fn repeated_sweeps_reuse_one_parameterized_fit() {
    let untraced = TraceContext::disabled();
    let base = base_job();
    let service = EstimationService::for_device(GpuDevice::rtx3060());
    let first = service.sweep_traced(&base, &BATCHES, &untraced);
    let second = service.sweep_traced(&base, &BATCHES, &untraced);
    assert_eq!(first.len(), second.len());
    for ((b1, e1), (b2, e2)) in first.iter().zip(&second) {
        assert_eq!(b1, b2);
        assert_eq!(e1.as_ref().unwrap(), e2.as_ref().unwrap());
    }
    // A narrower re-sweep inside the fitted range reuses the same fit.
    service.sweep_traced(&base, &[2, 3, 4, 6], &untraced);
    assert_eq!(service.profile_runs(), 3, "anchors profile once");
    assert_eq!(service.sim_stats().param_replays, 1, "the fit is cached");
}

#[test]
fn sweep_is_identical_across_roomy_and_pressured_primary_devices() {
    // One roomy device and two pressured ones, byte-granular capacities.
    let fleet = [
        ("roomy", GpuDevice::a100_40g()),
        (
            "tiny",
            GpuDevice {
                name: "sweep-tiny",
                capacity: (1 << 30) + 777_777,
                framework_bytes: 512 << 20,
                init_bytes: 0,
            },
        ),
        (
            "cramped",
            GpuDevice {
                name: "sweep-cramped",
                capacity: (2 << 30) + 55_555,
                framework_bytes: 529 << 20,
                init_bytes: 128 << 20,
            },
        ),
    ];
    let base = base_job();
    assert_matches_sequential(&base, &analyses(&base), &fleet);
}

#[test]
fn pseudo_random_fleets_agree_across_sweep_strategies() {
    // Deterministic xorshift over capacities/overheads: many oddly sized
    // fleets, no external RNG dependency in the root test crate.
    const NAMES: [&str; 3] = ["rand-0", "rand-1", "rand-2"];
    let mut state = 0xA076_1D64_78BD_642Fu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let base = base_job();
    let analyses = analyses(&base);
    for _round in 0..3 {
        let fleet: Vec<(&str, GpuDevice)> = NAMES
            .iter()
            .map(|&name| {
                (
                    name,
                    GpuDevice {
                        name: "sweep-rand",
                        // 1.4 GB .. ~18 GB, byte-granular.
                        capacity: 1_400_000_000 + next() % 17_000_000_000,
                        framework_bytes: 500_000_000 + next() % 90_000_000,
                        init_bytes: next() % 130_000_000,
                    },
                )
            })
            .collect();
        assert_matches_sequential(&base, &analyses, &fleet);
    }
}

#[test]
fn admission_bisection_agrees_across_sweep_strategies() {
    let untraced = TraceContext::disabled();
    // The admission answer must be strategy-independent on a device the
    // model actually pressures (the bisection brackets an interior OOM
    // boundary, so probes mix fitting and OOMing batches).
    let base = TrainJobSpec::new(ModelId::DistilGpt2, OptimizerKind::AdamW, 1).with_iterations(2);
    let incremental = EstimationService::for_device(GpuDevice::rtx3060());
    let device = GpuDevice::rtx4060();
    let answer = incremental
        .max_batch_for_device_traced(&base, device, 1, 32, &untraced)
        .expect("estimates")
        .expect("batch 1 fits");
    // The sequential estimator agrees: the answer fits, one more does not.
    assert!(!sequential_cell(&job_at(&base, answer), device).oom_predicted);
    if answer < 32 {
        assert!(sequential_cell(&job_at(&base, answer + 1), device).oom_predicted);
    }
    assert_eq!(
        incremental.profile_runs(),
        3,
        "incremental admission profiles exactly the 3 anchors, however many batches the bisection probes"
    );
    let sims = incremental.sim_stats();
    assert_eq!(sims.param_replays, 1);
    assert_eq!(sims.full_replays, 0);
    assert_eq!(
        sims.fast_path_hits + sims.full_replays + sims.incremental_cells,
        sims.sim_runs
    );
}
