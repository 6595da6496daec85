//! Criterion benchmark: the estimation pipeline stage by stage — CPU
//! profiling, trace JSON round-trip, analysis, orchestration + simulation,
//! and the end-to-end estimate (Table 4's cost drivers).

use criterion::{criterion_group, criterion_main, Criterion};
use xmem_core::{Analyzer, Estimator, EstimatorConfig, Orchestrator, Simulator};
use xmem_models::ModelId;
use xmem_optim::OptimizerKind;
use xmem_runtime::{profile_on_cpu, GpuDevice, TrainJobSpec};

fn spec() -> TrainJobSpec {
    TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 32).with_iterations(3)
}

fn bench_stages(c: &mut Criterion) {
    let spec = spec();
    let trace = profile_on_cpu(&spec);
    let json = trace.to_json_string().expect("serialize");
    let analyzed = Analyzer::new().analyze(&trace).expect("analyze");
    let buffer = Orchestrator::default().orchestrate(&analyzed);
    let device = GpuDevice::rtx3060();

    c.bench_function("profile_on_cpu", |b| {
        b.iter(|| std::hint::black_box(profile_on_cpu(&spec)))
    });
    c.bench_function("trace_json_parse", |b| {
        b.iter(|| std::hint::black_box(xmem_trace::Trace::from_json_str(&json).expect("parse")))
    });
    c.bench_function("analyzer", |b| {
        b.iter(|| std::hint::black_box(Analyzer::new().analyze(&trace).expect("analyze")))
    });
    c.bench_function("orchestrate_and_simulate", |b| {
        b.iter(|| {
            let buffer = Orchestrator::default().orchestrate(&analyzed);
            std::hint::black_box(
                Simulator::new(device.capacity, device.framework_bytes).replay(&buffer),
            )
        })
    });
    c.bench_function("simulator_replay", |b| {
        b.iter(|| {
            std::hint::black_box(
                Simulator::new(device.capacity, device.framework_bytes).replay(&buffer),
            )
        })
    });
    c.bench_function("estimate_end_to_end", |b| {
        let estimator = Estimator::new(EstimatorConfig::for_device(device));
        b.iter(|| std::hint::black_box(estimator.estimate_job(&spec).expect("estimate")))
    });
}

criterion_group!(benches, bench_stages);
criterion_main!(benches);
