//! Criterion benchmark: allocator-mechanism ablations — simulator replay
//! cost under each allocator variant (rounding, caching, reclaim).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xmem_alloc::AllocatorConfig;
use xmem_core::{Analyzer, Orchestrator, Simulator};
use xmem_models::ModelId;
use xmem_optim::OptimizerKind;
use xmem_runtime::{profile_on_cpu, GpuDevice, TrainJobSpec};

fn bench_simulator_variants(c: &mut Criterion) {
    let spec = TrainJobSpec::new(ModelId::DistilGpt2, OptimizerKind::AdamW, 8).with_iterations(3);
    let trace = profile_on_cpu(&spec);
    let analyzed = Analyzer::new().analyze(&trace).expect("analyze");
    let buffer = Orchestrator::default().orchestrate(&analyzed);
    let device = GpuDevice::rtx3060();

    let variants: [(&str, AllocatorConfig); 4] = [
        ("pytorch_defaults", AllocatorConfig::pytorch_defaults()),
        ("without_round_up", AllocatorConfig::without_round_up()),
        ("without_caching", AllocatorConfig::without_caching()),
        ("without_reclaim", AllocatorConfig::without_reclaim()),
    ];
    let mut group = c.benchmark_group("simulator_allocator_variants");
    for (name, config) in variants {
        group.bench_with_input(BenchmarkId::from_parameter(name), &config, |b, cfg| {
            b.iter(|| {
                let sim = Simulator {
                    allocator: cfg.clone(),
                    capacity: Some(device.capacity),
                    framework_bytes: device.framework_bytes,
                    record_timeline: false,
                };
                std::hint::black_box(sim.replay(&buffer))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_simulator_variants);
criterion_main!(benches);
