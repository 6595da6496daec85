//! The concurrent `EstimationService` is an exact drop-in for the
//! sequential `Estimator`: same inputs, bit-identical estimates — from
//! cold caches, warm caches, and under 8-way concurrent load.

use std::sync::Arc;
use xmem::prelude::*;

const THREADS: usize = 8;

fn specs_under_test() -> Vec<TrainJobSpec> {
    vec![
        // CNN.
        TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 8).with_iterations(2),
        // Transformer.
        TrainJobSpec::new(ModelId::DistilGpt2, OptimizerKind::AdamW, 4).with_iterations(2),
    ]
}

fn sequential_estimates(specs: &[TrainJobSpec], device: GpuDevice) -> Vec<Estimate> {
    let estimator = Estimator::new(EstimatorConfig::for_device(device));
    specs
        .iter()
        .map(|s| estimator.estimate_job(s).expect("sequential estimate"))
        .collect()
}

#[test]
fn concurrent_calls_match_the_sequential_estimator_bit_for_bit() {
    let device = GpuDevice::rtx3060();
    let specs = specs_under_test();
    let expected = sequential_estimates(&specs, device);

    let service = Arc::new(EstimationService::new(ServiceConfig::for_device(device)));
    let results: Vec<Vec<Estimate>> = std::thread::scope(|scope| {
        (0..THREADS)
            .map(|worker| {
                let service = Arc::clone(&service);
                let specs = specs.clone();
                scope.spawn(move || {
                    let untraced = TraceContext::disabled();
                    // Interleave spec order across workers to mix cold and
                    // warm lookups.
                    let mut mine: Vec<(usize, Estimate)> = specs
                        .iter()
                        .enumerate()
                        .cycle()
                        .skip(worker % specs.len())
                        .take(specs.len())
                        .map(|(i, s)| {
                            (
                                i,
                                service
                                    .estimate_traced(s, None, &untraced)
                                    .expect("service estimate"),
                            )
                        })
                        .collect();
                    mine.sort_by_key(|&(i, _)| i);
                    mine.into_iter().map(|(_, e)| e).collect::<Vec<_>>()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    for (worker, estimates) in results.iter().enumerate() {
        for (estimate, expected) in estimates.iter().zip(&expected) {
            assert_eq!(
                estimate, expected,
                "worker {worker} diverged from the sequential path"
            );
        }
    }

    // All 16 queries answered; at most one cold profiling per spec plus
    // possible concurrent-miss duplicates, never more than one per query.
    let stats = service.cache_stats();
    assert_eq!(stats.hits + stats.misses, (THREADS * specs.len()) as u64);
    assert!(stats.hits > 0, "warm lookups must hit the cache");
}

#[test]
fn cache_hit_path_returns_the_same_estimate_as_the_cold_path() {
    let untraced = TraceContext::disabled();
    let device = GpuDevice::rtx3060();
    let service = EstimationService::new(ServiceConfig::for_device(device));
    for spec in specs_under_test() {
        let cold = service
            .estimate_traced(&spec, None, &untraced)
            .expect("cold estimate");
        let warm = service
            .estimate_traced(&spec, None, &untraced)
            .expect("warm estimate");
        assert_eq!(cold, warm, "cache must not perturb {}", spec.label());
    }
    let stats = service.cache_stats();
    assert_eq!(stats.misses, 2);
    assert_eq!(stats.hits, 2);
}

#[test]
fn sweep_matches_a_sequential_estimator_loop() {
    let untraced = TraceContext::disabled();
    let device = GpuDevice::rtx3060();
    let base =
        TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 1).with_iterations(2);
    let batches: Vec<usize> = vec![1, 2, 4, 8, 12, 16, 24, 32];

    let estimator = Estimator::new(EstimatorConfig::for_device(device));
    let expected: Vec<Estimate> = batches
        .iter()
        .map(|&b| {
            let mut spec = base.clone();
            spec.batch = b;
            estimator.estimate_job(&spec).expect("sequential estimate")
        })
        .collect();

    let service = EstimationService::new(ServiceConfig::for_device(device));
    let swept = service.sweep_traced(&base, &batches, &untraced);
    assert_eq!(swept.len(), batches.len());
    for ((batch, estimate), (want_batch, want)) in swept.iter().zip(batches.iter().zip(&expected)) {
        assert_eq!(batch, want_batch);
        assert_eq!(
            estimate.as_ref().expect("sweep estimate"),
            want,
            "sweep diverged at batch {batch}"
        );
    }

    // A repeated sweep is answered entirely from cache: no new profiling.
    let insertions_before = service.cache_stats().insertions;
    let again = service.sweep_traced(&base, &batches, &untraced);
    let stats = service.cache_stats();
    assert_eq!(
        stats.insertions, insertions_before,
        "repeated sweep must not re-profile"
    );
    for ((b1, e1), (b2, e2)) in swept.iter().zip(&again) {
        assert_eq!(b1, b2);
        assert_eq!(e1.as_ref().unwrap(), e2.as_ref().unwrap());
    }
}

/// Under a paper-default estimator the default route *is* the primary
/// device's sim cell: bit-identical to the sequential estimator, a pure
/// cell hit on repeat, and the same cell `estimate_traced` reads under
/// the primary device's registry name — for a roomy job and for one that
/// overflows the card.
#[test]
fn default_estimate_is_served_from_the_primary_device_sim_cell() {
    let untraced = TraceContext::disabled();
    let device = GpuDevice::rtx3060();
    let roomy =
        TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 8).with_iterations(2);
    // DistilGPT-2 + AdamW at batch 128 does not fit in 12 GiB: its cell
    // pays a full bounded replay that predicts the OOM.
    let pressured =
        TrainJobSpec::new(ModelId::DistilGpt2, OptimizerKind::AdamW, 128).with_iterations(2);
    let sequential = Estimator::new(EstimatorConfig::for_device(device));
    let service = EstimationService::new(ServiceConfig::for_device(device));
    for spec in [&roomy, &pressured] {
        let expected = sequential.estimate_job(spec).expect("sequential estimate");
        assert_eq!(
            service
                .estimate_traced(spec, None, &untraced)
                .expect("cold estimate"),
            expected,
            "cold default route diverged for {}",
            spec.label()
        );
        let profiles = service.profile_runs();
        let sims = service.sim_runs();
        let hits = service.sim_stats().cache.hits;

        let warm = service
            .estimate_traced(spec, None, &untraced)
            .expect("warm estimate");
        assert_eq!(warm, expected, "warm default route diverged");
        assert_eq!(
            service.profile_runs(),
            profiles,
            "a repeat must not profile"
        );
        assert_eq!(service.sim_runs(), sims, "a repeat must not replay");
        assert_eq!(service.sim_stats().cache.hits, hits + 1);

        let named = service
            .estimate_traced(spec, Some("rtx3060"), &untraced)
            .expect("named estimate");
        assert_eq!(named, expected);
        assert_eq!(service.sim_runs(), sims, "the named cell is the same cell");
        assert_eq!(service.sim_stats().cache.hits, hits + 2);
    }
    assert!(
        sequential.estimate_job(&pressured).unwrap().oom_predicted,
        "the pressured job must overflow the card"
    );
    let stats = service.sim_stats();
    assert_eq!(stats.sim_runs, 2, "one replay per job");
    assert_eq!(stats.full_replays, 2);
    assert_eq!(
        stats.unbounded_replays, 0,
        "a lone default cell pays no unbounded replay"
    );
}

/// A default estimate is journaled as a sim cell, so after a restart the
/// same request is a cell hit: bit-identical, with zero profile runs and
/// zero sim runs.
#[test]
fn default_estimate_cells_survive_a_restart() {
    let untraced = TraceContext::disabled();
    let dir = std::env::temp_dir().join(format!("xmem-default-cell-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || ServiceConfig::for_device(GpuDevice::rtx3060()).with_state_dir(&dir);
    let spec = &specs_under_test()[0];

    let first = EstimationService::new(config());
    let before = first
        .estimate_traced(spec, None, &untraced)
        .expect("cold estimate");
    assert_eq!(first.sim_runs(), 1);
    drop(first);

    let reopened = EstimationService::new(config());
    let after = reopened
        .estimate_traced(spec, None, &untraced)
        .expect("warm estimate");
    assert_eq!(after, before, "the recovered cell diverged");
    assert_eq!(reopened.profile_runs(), 0);
    assert_eq!(reopened.sim_runs(), 0);
    assert_eq!(reopened.sim_stats().cache.hits, 1);
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}
