//! Byte identity of the response bodies: every `api::*_body` writes
//! exactly the bytes that a `serde::Value` tree of the same answer
//! renders through `serde_json`. The tree renderer below is the wire
//! contract's reference shape; it lives only here.

use serde::Value;
use std::sync::Arc;
use xmem::core::{AnalysisStats, EstimateError};
use xmem::prelude::*;
use xmem::runtime::Precision;
use xmem::server::api;
use xmem::service::jobspec::job_to_value;

/// The reference tree renderer: the `Value` shapes the wire contract
/// was defined by.
mod reference {
    use super::*;

    fn render(value: &Value) -> String {
        serde_json::to_string(value).expect("value rendering is infallible")
    }

    fn obj(entries: Vec<(&str, Value)>) -> Value {
        Value::Object(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    fn error_value(error: &EstimateError) -> Value {
        let (_, kind) = api::estimate_error_status(error);
        obj(vec![
            ("kind", Value::Str(kind.to_string())),
            ("message", Value::Str(error.to_string())),
        ])
    }

    pub fn estimate_value(estimate: &Estimate) -> Value {
        let stats = &estimate.stats;
        let categories = stats
            .categories
            .iter()
            .map(|(name, blocks, bytes)| {
                Value::Array(vec![
                    Value::Str(name.clone()),
                    Value::U64(*blocks as u64),
                    Value::U64(*bytes),
                ])
            })
            .collect();
        obj(vec![
            ("peak_bytes", Value::U64(estimate.peak_bytes)),
            ("job_peak_bytes", Value::U64(estimate.job_peak_bytes)),
            ("tensor_peak_bytes", Value::U64(estimate.tensor_peak_bytes)),
            ("oom_predicted", Value::Bool(estimate.oom_predicted)),
            (
                "stats",
                obj(vec![
                    ("categories", Value::Array(categories)),
                    ("filtered_blocks", Value::U64(stats.filtered_blocks as u64)),
                    ("adjusted_blocks", Value::U64(stats.adjusted_blocks as u64)),
                    ("unmatched_frees", Value::U64(stats.unmatched_frees as u64)),
                ]),
            ),
        ])
    }

    fn outcome_entry(first: (&str, Value), outcome: &Result<Estimate, EstimateError>) -> Value {
        let second = match outcome {
            Ok(estimate) => ("estimate", estimate_value(estimate)),
            Err(error) => ("error", error_value(error)),
        };
        obj(vec![first, second])
    }

    pub fn estimate_body(estimate: &Estimate) -> String {
        render(&obj(vec![("estimate", estimate_value(estimate))]))
    }

    pub fn matrix_body(matrix: &DeviceMatrix) -> String {
        let devices = matrix
            .devices
            .iter()
            .map(|d| Value::Str(d.clone()))
            .collect();
        let rows = matrix
            .rows
            .iter()
            .map(|row| {
                let cells = row
                    .cells
                    .iter()
                    .map(|cell| {
                        outcome_entry(("device", Value::Str(cell.device.clone())), &cell.estimate)
                    })
                    .collect();
                obj(vec![
                    ("job", job_to_value(&row.spec)),
                    ("cells", Value::Array(cells)),
                ])
            })
            .collect();
        render(&obj(vec![
            ("devices", Value::Array(devices)),
            ("rows", Value::Array(rows)),
        ]))
    }

    pub fn sweep_body(results: &[(usize, Result<Estimate, EstimateError>)]) -> String {
        let entries = results
            .iter()
            .map(|(batch, outcome)| outcome_entry(("batch", Value::U64(*batch as u64)), outcome))
            .collect();
        render(&obj(vec![("results", Value::Array(entries))]))
    }

    pub fn plan_body(max_batch: Option<usize>) -> String {
        let value = max_batch.map_or(Value::Null, |batch| Value::U64(batch as u64));
        render(&obj(vec![("max_batch", value)]))
    }

    pub fn placement_body(placement: Option<&DevicePlacement>) -> String {
        let value = placement.map_or(Value::Null, |p| {
            obj(vec![
                ("device", Value::Str(p.device.clone())),
                ("estimate", estimate_value(&p.estimate)),
            ])
        });
        render(&obj(vec![("placement", value)]))
    }

    pub fn error_body(kind: &str, message: &str) -> String {
        render(&obj(vec![(
            "error",
            obj(vec![
                ("kind", Value::Str(kind.to_string())),
                ("message", Value::Str(message.to_string())),
            ]),
        )]))
    }
}

/// Names that exercise every escape class: quote, backslash, a named
/// control character, an unnamed one, and non-ASCII.
const AWKWARD: [&str; 4] = ["quo\"te", "back\\slash", "ctl\u{1}\t", "ünï→😀"];

fn synthetic_estimate(peak: u64, oom: bool, categories: &[&str]) -> Estimate {
    Estimate {
        peak_bytes: peak,
        job_peak_bytes: peak / 2,
        tensor_peak_bytes: peak / 3,
        oom_predicted: oom,
        curve: Vec::new(),
        stats: AnalysisStats {
            categories: categories
                .iter()
                .enumerate()
                .map(|(i, name)| (name.to_string(), i, u64::MAX - i as u64))
                .collect(),
            filtered_blocks: usize::MAX,
            adjusted_blocks: 0,
            unmatched_frees: 7,
        },
    }
}

/// Jobs covering every optional job field: plain, `seq`, `pos1`, `fp16`.
fn flagged_jobs() -> Vec<TrainJobSpec> {
    let plain =
        TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 4).with_iterations(2);
    let mut with_seq =
        TrainJobSpec::new(ModelId::DistilGpt2, OptimizerKind::AdamW, 1).with_iterations(2);
    with_seq.seq = 64;
    let pos1 = plain.clone().with_zero_grad(ZeroGradPos::IterStart);
    let fp16 = plain.clone().with_precision(Precision::F16);
    vec![plain, with_seq, pos1, fp16]
}

fn every_error() -> Vec<EstimateError> {
    vec![
        EstimateError::EmptyTrace,
        EstimateError::MissingIterations,
        EstimateError::Cancelled,
        EstimateError::DeadlineExceeded,
        EstimateError::UnknownDevice(AWKWARD.concat()),
        EstimateError::Internal("panic: \"boom\"\n\u{7}".to_string()),
    ]
}

/// Rows that a per-row stats memo could get wrong. Cells share one
/// stats allocation, hold equal stats in separate allocations, or hold
/// stats that differ from their neighbours' in one scalar or in one
/// category's bytes; error cells come first in a row and between
/// estimates.
fn memo_matrix() -> DeviceMatrix {
    let shared = synthetic_estimate(12_345, false, &["weights", "activations", "optimizer"]);
    let separate = |mut estimate: Estimate| {
        estimate.stats.categories = estimate.stats.categories.iter().cloned().collect();
        estimate
    };
    let copied = separate(shared.clone());
    let mut other_head = shared.clone();
    other_head.peak_bytes += 1;
    other_head.oom_predicted = true;
    // The scalar variants keep the shared category list.
    let mut filtered = shared.clone();
    filtered.stats.filtered_blocks -= 1;
    let mut adjusted = shared.clone();
    adjusted.stats.adjusted_blocks += 1;
    let mut unmatched = shared.clone();
    unmatched.stats.unmatched_frees += 1;
    let mut bytes = separate(shared.clone());
    let mut categories = bytes.stats.categories.to_vec();
    categories[1].2 -= 1;
    bytes.stats.categories = categories.into();
    let error = || Err(EstimateError::DeadlineExceeded);

    let rows: Vec<Vec<Result<Estimate, EstimateError>>> = vec![
        vec![
            Ok(shared.clone()),
            Ok(shared.clone()),
            Ok(copied.clone()),
            Ok(shared.clone()),
            Ok(other_head),
            Ok(copied.clone()),
        ],
        vec![
            error(),
            Ok(shared.clone()),
            Ok(filtered.clone()),
            Ok(shared.clone()),
            Ok(adjusted),
            Ok(unmatched),
        ],
        vec![
            Ok(shared.clone()),
            error(),
            Ok(copied.clone()),
            Ok(bytes.clone()),
            Ok(shared.clone()),
            error(),
        ],
        vec![
            Ok(bytes),
            Ok(copied),
            Ok(shared),
            error(),
            error(),
            Ok(filtered),
        ],
        vec![error(), error(), error(), error(), error(), error()],
    ];
    let devices: Vec<String> = (0..6).map(|d| format!("memo-{d}")).collect();
    let jobs = flagged_jobs();
    DeviceMatrix {
        rows: rows
            .into_iter()
            .enumerate()
            .map(|(r, outcomes)| MatrixRow {
                spec: jobs[r % jobs.len()].clone(),
                cells: devices
                    .iter()
                    .zip(outcomes)
                    .map(|(device, estimate)| MatrixCell {
                        device: device.clone(),
                        estimate,
                    })
                    .collect(),
            })
            .collect(),
        devices,
    }
}

#[test]
fn synthetic_bodies_match_the_reference_tree() {
    let estimates = [
        synthetic_estimate(u64::MAX, true, &AWKWARD),
        synthetic_estimate(0, false, &[]),
        synthetic_estimate(12_345, false, &["weights", "activations"]),
    ];
    for estimate in &estimates {
        assert_eq!(
            api::estimate_body(estimate),
            reference::estimate_body(estimate)
        );
    }

    let jobs = flagged_jobs();
    let errors = every_error();
    let devices: Vec<String> = AWKWARD.iter().map(|d| d.to_string()).collect();
    let matrix = DeviceMatrix {
        devices: devices.clone(),
        rows: jobs
            .iter()
            .enumerate()
            .map(|(j, spec)| MatrixRow {
                spec: spec.clone(),
                cells: devices
                    .iter()
                    .enumerate()
                    .map(|(d, device)| MatrixCell {
                        device: device.clone(),
                        estimate: if (j + d) % 2 == 0 {
                            Ok(estimates[(j + d) % estimates.len()].clone())
                        } else {
                            Err(errors[(j + d) % errors.len()].clone())
                        },
                    })
                    .collect(),
            })
            .collect(),
    };
    assert_eq!(api::matrix_body(&matrix), reference::matrix_body(&matrix));
    let memo = memo_matrix();
    assert_eq!(api::matrix_body(&memo), reference::matrix_body(&memo));
    let empty = DeviceMatrix {
        devices: Vec::new(),
        rows: Vec::new(),
    };
    assert_eq!(api::matrix_body(&empty), reference::matrix_body(&empty));

    let mut sweep: Vec<(usize, Result<Estimate, EstimateError>)> = errors
        .iter()
        .enumerate()
        .map(|(i, error)| (i + 1, Err(error.clone())))
        .collect();
    sweep.push((usize::MAX, Ok(estimates[0].clone())));
    assert_eq!(api::sweep_body(&sweep), reference::sweep_body(&sweep));
    assert_eq!(api::sweep_body(&[]), reference::sweep_body(&[]));

    for max_batch in [None, Some(0), Some(1), Some(usize::MAX)] {
        assert_eq!(api::plan_body(max_batch), reference::plan_body(max_batch));
    }

    assert_eq!(api::placement_body(None), reference::placement_body(None));
    for device in AWKWARD {
        let placement = DevicePlacement {
            device: device.to_string(),
            estimate: estimates[2].clone(),
        };
        assert_eq!(
            api::placement_body(Some(&placement)),
            reference::placement_body(Some(&placement))
        );
    }

    for error in &errors {
        let (_, kind) = api::estimate_error_status(error);
        assert_eq!(
            api::error_body(kind, &error.to_string()),
            reference::error_body(kind, &error.to_string())
        );
    }
}

#[test]
fn served_bodies_match_the_reference_tree() {
    let untraced = TraceContext::disabled();
    // A fleet registered from a registry file whose device names need
    // escaping on the wire.
    let fleet = format!(
        "{{\"devices\":[{}]}}",
        AWKWARD
            .iter()
            .enumerate()
            .map(|(i, name)| format!(
                "{{\"name\":{},\"capacity_mib\":{}}}",
                serde_json::to_string(*name).expect("name renders"),
                4096 * (i + 1)
            ))
            .collect::<Vec<_>>()
            .join(",")
    );
    let registry = DeviceRegistry::from_json_str(&fleet).expect("fleet parses");
    let service = EstimationService::new(
        ServiceConfig::for_device(GpuDevice::rtx3060()).with_registry(registry),
    );
    assert_eq!(service.registry().names().len(), AWKWARD.len());

    let mut jobs = flagged_jobs();
    // Zero profiled iterations: a per-cell error in every column.
    jobs.push(
        TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 4).with_iterations(0),
    );
    let matrix = service
        .estimate_matrix_traced(&jobs, &AWKWARD, &untraced)
        .expect("registered names resolve");
    assert!(matrix.rows.last().expect("rows").cells[0].estimate.is_err());
    assert_eq!(api::matrix_body(&matrix), reference::matrix_body(&matrix));

    for job in &jobs {
        let placement = service.best_device_for_job_traced(job, &untraced);
        if let Ok(placement) = placement {
            assert_eq!(
                api::placement_body(placement.as_ref()),
                reference::placement_body(placement.as_ref())
            );
        }
    }
    let estimate = service
        .estimate_traced(&jobs[0], None, &untraced)
        .expect("estimates");
    assert_eq!(
        api::estimate_body(&estimate),
        reference::estimate_body(&estimate)
    );
    let degenerate = jobs.last().expect("degenerate job");
    let sweep = service.sweep_traced(degenerate, &[1, 2], &untraced);
    assert!(sweep.iter().all(|(_, outcome)| outcome.is_err()));
    assert_eq!(api::sweep_body(&sweep), reference::sweep_body(&sweep));

    // A warm 16 x 8 matrix over the serving benchmark's fleet: the three
    // built-ins and five more.
    let registry = DeviceRegistry::builtin();
    registry
        .extend_from_json_str(include_str!("../perfbench/fleet.json"))
        .expect("fleet file parses");
    let devices = registry.names();
    assert_eq!(devices.len(), 8);
    let columns: Vec<&str> = devices.iter().map(String::as_str).collect();
    let service = EstimationService::new(
        ServiceConfig::for_device(GpuDevice::rtx3060()).with_registry(registry),
    );
    let jobs = fleet_jobs();
    let cold = service
        .estimate_matrix_traced(&jobs, &columns, &untraced)
        .expect("resolves");
    let warm = service
        .estimate_matrix_traced(&jobs, &columns, &untraced)
        .expect("resolves");
    assert_eq!(warm, cold);
    // Every row's stats are equal; roomy cells share the allocation of
    // the row's first cell, capacity-pressured ones hold their own.
    let (mut shared, mut separate) = (0, 0);
    for row in &warm.rows {
        let mut stats = row.cells.iter().map(|cell| match &cell.estimate {
            Ok(estimate) => &estimate.stats,
            Err(error) => panic!("{}: {error}", row.spec.label()),
        });
        let first = stats.next().expect("eight cells");
        for other in stats {
            assert_eq!(other, first, "{}", row.spec.label());
            if Arc::ptr_eq(&other.categories, &first.categories) {
                shared += 1;
            } else {
                separate += 1;
            }
        }
    }
    assert!(
        shared > 0 && separate > 0,
        "{shared} cells share their row's stats, {separate} hold a copy"
    );
    assert_eq!(api::matrix_body(&warm), reference::matrix_body(&warm));
}

/// Sixteen jobs: eight small CNN jobs that fit every device, and eight
/// DistilGPT-2 jobs of 16 to 128 samples, the larger of which press the
/// 8, 12 and 16 GiB cards into full replays.
fn fleet_jobs() -> Vec<TrainJobSpec> {
    let mut jobs = Vec::new();
    for optimizer in [OptimizerKind::Adam, OptimizerKind::Sgd { momentum: true }] {
        for batch in [1, 2, 4, 8] {
            jobs.push(
                TrainJobSpec::new(ModelId::MobileNetV3Small, optimizer, batch).with_iterations(2),
            );
        }
    }
    for batch in (1..=8).map(|i| 16 * i) {
        jobs.push(
            TrainJobSpec::new(ModelId::DistilGpt2, OptimizerKind::AdamW, batch).with_iterations(2),
        );
    }
    jobs
}
