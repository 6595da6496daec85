//! Criterion benchmark: caching-allocator throughput — the inner loop of
//! both the ground-truth runtime and xMem's Simulator.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use xmem_alloc::{AllocatorConfig, BlockHandle, CachingAllocator, DeviceAllocator};

/// A deterministic mixed alloc/free workload of `n` operations.
fn churn(alloc: &mut CachingAllocator, n: usize) {
    let mut live: Vec<BlockHandle> = Vec::with_capacity(64);
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..n {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let size = 512 + (state % (8 << 20)) as usize;
        if i % 3 == 2 && !live.is_empty() {
            let idx = (state >> 32) as usize % live.len();
            alloc.free(live.swap_remove(idx));
        } else if let Ok(handle) = alloc.alloc(size) {
            live.push(handle);
        }
    }
    for handle in live {
        alloc.free(handle);
    }
}

fn bench_allocator(c: &mut Criterion) {
    let mut group = c.benchmark_group("caching_allocator");
    for ops in [1_000usize, 10_000] {
        group.throughput(Throughput::Elements(ops as u64));
        group.bench_with_input(
            BenchmarkId::new("pytorch_defaults", ops),
            &ops,
            |b, &ops| {
                b.iter(|| {
                    let mut alloc = CachingAllocator::new(
                        AllocatorConfig::pytorch_defaults(),
                        DeviceAllocator::unlimited(),
                    );
                    churn(&mut alloc, ops);
                });
            },
        );
        group.bench_with_input(BenchmarkId::new("without_caching", ops), &ops, |b, &ops| {
            b.iter(|| {
                let mut alloc = CachingAllocator::new(
                    AllocatorConfig::without_caching(),
                    DeviceAllocator::unlimited(),
                );
                churn(&mut alloc, ops);
            });
        });
    }
    group.finish();
}

fn bench_snapshot(c: &mut Criterion) {
    let mut alloc = CachingAllocator::new(
        AllocatorConfig::pytorch_defaults(),
        DeviceAllocator::unlimited(),
    );
    churn(&mut alloc, 5_000);
    // Re-populate a non-trivial live state.
    let handles: Vec<BlockHandle> = (0..512)
        .map(|i| alloc.alloc(4096 + i * 512).expect("unbounded"))
        .collect();
    c.bench_function("allocator_snapshot", |b| {
        b.iter(|| std::hint::black_box(alloc.snapshot()))
    });
    for handle in handles {
        alloc.free(handle);
    }
}

criterion_group!(benches, bench_allocator, bench_snapshot);
criterion_main!(benches);
