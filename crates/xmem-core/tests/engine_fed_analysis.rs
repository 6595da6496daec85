//! The Analyzer fed straight from the engine, as the estimation service
//! runs it, against the Analyzer over the recorded, time-sorted trace.
//!
//! Both routes must give the same analysis byte for byte: the serialized
//! `AnalyzedTrace` is the persisted stage record, and the stage tier
//! prices an entry by its `approx_bytes`. The engine reports memory
//! instants in time order and each span when it closes, so the two routes
//! differ only in the order spans arrive in.
//!
//! Tier-1 runs a stride sample of the grid. The whole grid is ignored by
//! default; run it in release:
//!
//! ```text
//! cargo test --release -p xmem-core --test engine_fed_analysis -- --include-ignored
//! ```

use xmem_core::{AnalyzedTrace, Analyzer, EstimateError};
use xmem_models::ModelId;
use xmem_optim::OptimizerKind;
use xmem_runtime::{profile_into, profile_on_cpu, Precision, TrainJobSpec, ZeroGradPos};

/// Batch sizes of the grid: a stride over 1..=33.
const BATCHES: [usize; 5] = [1, 9, 17, 25, 33];

/// Every model × optimizer × batch × `zero_grad` placement × precision.
fn grid() -> Vec<TrainJobSpec> {
    let mut optimizers = OptimizerKind::all().to_vec();
    optimizers.push(OptimizerKind::Sgd { momentum: false });
    let mut jobs = Vec::new();
    for model in ModelId::all() {
        for &optimizer in &optimizers {
            for batch in BATCHES {
                for pos in [ZeroGradPos::BeforeBackward, ZeroGradPos::IterStart] {
                    for precision in [Precision::F32, Precision::F16] {
                        jobs.push(
                            TrainJobSpec::new(model, optimizer, batch)
                                .with_iterations(2)
                                .with_zero_grad(pos)
                                .with_precision(precision),
                        );
                    }
                }
            }
        }
    }
    jobs
}

/// The job analyzed both ways: fed from the engine, and over its trace.
fn both_ways(
    spec: &TrainJobSpec,
) -> (
    Result<AnalyzedTrace, EstimateError>,
    Result<AnalyzedTrace, EstimateError>,
) {
    let fed = profile_into(spec, Analyzer::new().sink()).finish();
    let recorded = Analyzer::new().analyze(&profile_on_cpu(spec));
    (fed, recorded)
}

fn assert_identical(spec: &TrainJobSpec) {
    let label = spec.label();
    let (fed, recorded) = both_ways(spec);
    let fed = fed.unwrap_or_else(|e| panic!("{label}: engine-fed analysis failed: {e}"));
    let recorded = recorded.unwrap_or_else(|e| panic!("{label}: trace analysis failed: {e}"));
    assert_eq!(
        fed.lifecycle_stats, recorded.lifecycle_stats,
        "{label}: lifecycle stats"
    );
    assert_eq!(
        fed.approx_bytes(),
        recorded.approx_bytes(),
        "{label}: approx_bytes"
    );
    let fed = serde_json::to_string(&fed).expect("encodes");
    let recorded = serde_json::to_string(&recorded).expect("encodes");
    assert!(fed == recorded, "{label}: serialized analyses differ");
}

/// Every `STRIDE`-th job of the grid. The stride is prime and shares no
/// factor with any dimension of the grid, so the sample varies every
/// dimension from one job to the next.
#[test]
fn a_stride_sample_of_the_zoo_analyzes_identically_both_ways() {
    const STRIDE: usize = 97;
    let jobs = grid();
    let mut models = std::collections::HashSet::new();
    for spec in jobs.iter().step_by(STRIDE) {
        assert_identical(spec);
        models.insert(spec.model);
    }
    assert!(
        models.len() >= 20,
        "the sample covers {} models",
        models.len()
    );
}

#[test]
#[ignore = "3 500 jobs, ~52 s in release on 2 vCPUs; CI runs it"]
fn the_whole_zoo_analyzes_identically_both_ways() {
    for spec in grid() {
        assert_identical(&spec);
    }
}

#[test]
fn a_job_of_no_iterations_fails_the_same_way_both_ways() {
    let spec =
        TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 2).with_iterations(0);
    let (fed, recorded) = both_ways(&spec);
    let fed = fed.expect_err("an engine-fed run of no iterations has no analysis");
    let recorded = recorded.expect_err("a trace of no iterations has no analysis");
    assert_eq!(fed, recorded);
    assert_eq!(fed, EstimateError::MissingIterations);
}
