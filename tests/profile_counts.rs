//! How often a job is profiled when a scheduler asks about it in more
//! than one way. No tier keeps a job's analysis past the request that
//! computed it: a request's cells share its one analysis, and what is
//! cached is each cell. These tests pin what that costs and saves in
//! profile runs, against the counts a service that kept analyses in a
//! stage tier (gated like the sim cells) recorded for the same queries.

use xmem::prelude::*;
use xmem::service::TraceContext;

fn job(model: ModelId, optimizer: OptimizerKind, batch: usize) -> TrainJobSpec {
    TrainJobSpec::new(model, optimizer, batch).with_iterations(2)
}

/// A new job asked as an estimate, then a best-device query, then an
/// estimate on the chosen device and one on a device the walk did not
/// reach, on a service whose tiers are full of better-known jobs. A stage
/// tier's admission gate refused the newcomer's analysis after each
/// answer, so that service profiled it once per request that filled a
/// cell, as this one does: the placement walk shares one analysis, and
/// the chosen device's estimate reads the cell the walk filled.
#[test]
fn a_new_job_asked_three_ways_profiles_no_more_often_than_a_stage_tier() {
    let untraced = TraceContext::disabled();
    let service = EstimationService::new(
        ServiceConfig::for_device(GpuDevice::rtx3060()).with_cache_capacity(32),
    );
    for batch in 1..=WARM_JOBS {
        let known = job(ModelId::MobileNetV3Small, OptimizerKind::Adam, batch);
        for _ in 0..3 {
            service
                .estimate_traced(&known, None, &untraced)
                .expect("estimates");
        }
    }
    let before = service.profile_runs();

    let newcomer = job(ModelId::MnasNet, OptimizerKind::Adam, 7);
    service
        .estimate_traced(&newcomer, None, &untraced)
        .expect("estimates");
    let placed = service
        .best_device_for_job_traced(&newcomer, &untraced)
        .expect("estimates")
        .expect("a device fits");
    assert_eq!(placed.device, "rtx4060");
    let on_chosen = service
        .estimate_traced(&newcomer, Some(&placed.device), &untraced)
        .expect("estimates");
    assert_eq!(on_chosen, placed.estimate);
    assert_eq!(
        service.profile_runs() - before,
        2,
        "estimate, then the walk"
    );
    service
        .estimate_traced(&newcomer, Some("a100"), &untraced)
        .expect("estimates");
    assert_eq!(
        service.profile_runs() - before,
        3,
        "and the unwalked device"
    );
}

/// Default-device jobs that fill the tight service above, each asked
/// three times, so the admission gate ranks every one above a newcomer.
const WARM_JOBS: usize = 64;

/// The trade-off, stated: a job whose default-device cell is resident,
/// asked on a device it has no cell for, profiles exactly once. A stage
/// tier that still held the analysis answered it with no profile run.
#[test]
fn a_resident_job_asked_on_a_new_device_profiles_exactly_once() {
    let untraced = TraceContext::disabled();
    let service = EstimationService::for_device(GpuDevice::rtx3060());
    let spec = job(ModelId::MobileNetV3Small, OptimizerKind::Adam, 4);
    service
        .estimate_traced(&spec, None, &untraced)
        .expect("estimates");
    assert_eq!(service.profile_runs(), 1);
    service
        .estimate_traced(&spec, Some("a100"), &untraced)
        .expect("estimates");
    assert_eq!(service.profile_runs(), 2, "the new device's cell profiles");
    service
        .estimate_traced(&spec, Some("a100"), &untraced)
        .expect("estimates");
    assert_eq!(service.profile_runs(), 2, "its repeat is a cell hit");
}

/// A transformer plan whose fit is rejected (the CPU backend's clamped
/// linear workspace is not affine in the batch) falls back to one cell
/// per probe. The fit's three anchor analyses are handed to those cells,
/// so no batch is profiled twice, and the plan profiles exactly as often
/// as a service whose stage tier kept the anchors.
#[test]
fn a_plan_whose_fit_is_rejected_profiles_as_often_as_a_stage_tier() {
    let untraced = TraceContext::disabled();
    let service =
        EstimationService::new(ServiceConfig::for_device(GpuDevice::rtx3060()).with_threads(2));
    let base = job(ModelId::DistilGpt2, OptimizerKind::AdamW, 1);
    let device = GpuDevice::rtx4060();
    let planned = service
        .max_batch_for_device_traced(&base, device, 1, 64, &untraced)
        .expect("estimates");
    assert_eq!(service.sim_stats().param_replays, 0, "the fit is rejected");
    assert!(planned.is_some_and(|batch| batch < 64), "{planned:?}");
    assert_eq!(service.profile_runs(), PLAN_PROFILES);
}

/// Profile runs of the rejected-fit plan above on a service that kept
/// analyses in a stage tier: three anchors, then one per probe batch
/// that was not an anchor.
const PLAN_PROFILES: u64 = 8;
