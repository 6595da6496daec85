//! Differential test for adaptive cache tiering: estimation *results*
//! of a tightly cached adaptive service must be bit-identical to what an
//! uncached computation returns — the sequential `Estimator`, which a
//! plain LRU service reproduces too. The tuner, frequency sketch, ghost
//! lists, and admission gate only decide **what stays resident** —
//! cached stages are pure functions of the job key, so re-deriving an
//! entry the gate refused (or the tuner squeezed out) reproduces the
//! same bytes.

use std::collections::HashMap;
use xmem_core::{AnalyzedTrace, Analyzer, DevicePlacement, Estimate, Estimator, EstimatorConfig};
use xmem_models::ModelId;
use xmem_optim::OptimizerKind;
use xmem_runtime::{profile_on_cpu, GpuDevice, TrainJobSpec};
use xmem_service::{DeviceRegistry, EstimationService, ServiceConfig, TraceContext};

/// Deterministic xorshift64* stream, seeding the pseudo-random fleet and
/// query mix identically for both services.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

const FLEET_NAMES: [&str; 3] = ["diff-dev-0", "diff-dev-1", "diff-dev-2"];

/// A pseudo-random fleet: raw byte sizes off MiB alignment, capacities
/// always clearing the framework + tenant overheads.
fn pseudo_random_fleet(rng: &mut XorShift) -> Vec<GpuDevice> {
    FLEET_NAMES
        .iter()
        .map(|name| GpuDevice {
            name,
            capacity: 1_500_000_000 + rng.below(18_000_000_000),
            framework_bytes: 500_000_000 + rng.below(90_000_000),
            init_bytes: rng.below(120_000_000),
        })
        .collect()
}

fn service_over(fleet: &[GpuDevice]) -> EstimationService {
    let registry = DeviceRegistry::empty();
    for device in fleet {
        registry.register(device.name, *device);
    }
    // A deliberately tight cache so evictions, ghost hits and the
    // admission gate all actually happen: 32 entries over the service's
    // lock shards leave every shard two entries, so each one runs a real
    // probation/protected split rather than a one-entry degenerate one.
    EstimationService::new(
        ServiceConfig::for_device(GpuDevice::rtx3060())
            .with_registry(registry)
            .with_cache_capacity(32),
    )
}

fn spec(batch: usize) -> TrainJobSpec {
    TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, batch).with_iterations(2)
}

/// The sequential reference: each batch profiled and analyzed once,
/// replayed by a fresh `Estimator` per query.
#[derive(Default)]
struct Sequential(HashMap<usize, AnalyzedTrace>);

impl Sequential {
    fn on(&mut self, batch: usize, device: GpuDevice) -> Estimate {
        let analyzed = self.0.entry(batch).or_insert_with(|| {
            Analyzer::new()
                .analyze(&profile_on_cpu(&spec(batch)))
                .expect("analysis succeeds")
        });
        Estimator::new(EstimatorConfig::for_device(device)).estimate_analyzed(analyzed)
    }
}

#[test]
fn adaptive_tiering_is_bit_identical_to_plain_lru_service_results() {
    let untraced = TraceContext::disabled();
    let mut rng = XorShift(0x9e37_79b9_97f4_a7c1);
    let fleet = pseudo_random_fleet(&mut rng);
    let adaptive = service_over(&fleet);
    let mut sequential = Sequential::default();
    let primary = GpuDevice::rtx3060();
    assert!(adaptive.stage_tier_stats().adaptive);

    // A pseudo-random query mix over more distinct jobs than the cache
    // holds: single estimates, per-device estimates, sweeps, matrices,
    // and placement decisions, in one interleaved deterministic order.
    for _ in 0..80 {
        let batch = 1 + rng.below(40) as usize;
        match rng.below(5) {
            0 => {
                let a = adaptive
                    .estimate_traced(&spec(batch), None, &untraced)
                    .unwrap();
                assert_eq!(
                    a,
                    sequential.on(batch, primary),
                    "estimate(batch={batch}) diverged"
                );
            }
            1 => {
                let device = fleet[rng.below(fleet.len() as u64) as usize];
                let a = adaptive.estimate_for_device(&spec(batch), device).unwrap();
                assert_eq!(
                    a,
                    sequential.on(batch, device),
                    "estimate_for_device(batch={batch}) diverged"
                );
            }
            2 => {
                let batches = [batch, batch + 1, batch + 3];
                for (b, e) in adaptive.sweep_traced(&spec(1), &batches, &untraced) {
                    assert_eq!(e.unwrap(), sequential.on(b, primary), "sweep diverged");
                }
            }
            3 => {
                let matrix = adaptive
                    .estimate_matrix_traced(&[spec(batch)], &FLEET_NAMES, &untraced)
                    .unwrap();
                for (name, device) in FLEET_NAMES.iter().zip(&fleet) {
                    assert_eq!(
                        matrix.rows[0]
                            .cell(name)
                            .unwrap()
                            .estimate
                            .as_ref()
                            .unwrap(),
                        &sequential.on(batch, *device),
                        "matrix(batch={batch}) diverged"
                    );
                }
            }
            _ => {
                // Best fit: the smallest capacity that fits, ties in
                // name order.
                let mut by_capacity: Vec<(&str, GpuDevice)> = FLEET_NAMES
                    .iter()
                    .copied()
                    .zip(fleet.iter().copied())
                    .collect();
                by_capacity.sort_by_key(|&(name, device)| (device.capacity, name));
                let expected = by_capacity.into_iter().find_map(|(name, device)| {
                    let estimate = sequential.on(batch, device);
                    (!estimate.oom_predicted).then(|| DevicePlacement {
                        device: name.to_string(),
                        estimate,
                    })
                });
                let a = adaptive
                    .best_device_for_job_traced(&spec(batch), &untraced)
                    .unwrap();
                assert_eq!(a, expected, "placement(batch={batch}) diverged");
            }
        }
    }
    // The equality above must not be vacuous: the adaptive service's
    // tiering machinery actually ran on this mix.
    let stats = adaptive.cache_stats();
    assert!(
        stats.promoted > 0,
        "re-hit stage entries must have been promoted"
    );
    assert!(
        stats.evictions + stats.admission_denied > 0,
        "the tight cache must have come under pressure"
    );
    assert!(
        stats.ghost_hits > 0,
        "evicted keys must have come back through the ghosts"
    );
    let tier = adaptive.stage_tier_stats();
    assert!(tier.segmented && tier.adaptive);
    assert!(tier.entries <= tier.capacity);
}
