//! What an analysis costs to keep: `AnalyzedTrace::approx_bytes` against
//! the heap the analysis really retains, counted by this binary's own
//! global allocator.
//!
//! Stage caches price retained analyses with `approx_bytes` (the bytes
//! budget evicts by it, `/metrics` reports it), so it must track the real
//! heap. The binary holds a single test: the allocator counts every
//! thread, and a second test running alongside would show up as retained
//! heap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use xmem_core::{AnalyzedTrace, Analyzer};
use xmem_models::ModelId;
use xmem_optim::OptimizerKind;
use xmem_runtime::{profile_into, profile_on_cpu, TrainJobSpec};

/// The system allocator, keeping a count of live heap bytes.
struct Counting;

static LIVE: AtomicI64 = AtomicI64::new(0);

fn grow(bytes: usize) {
    LIVE.fetch_add(bytes as i64, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as i64, Ordering::Relaxed);
}

// SAFETY: every call is forwarded to `System` with the caller's own
// arguments; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            shrink(layout.size());
            grow(new_size);
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The models the service benchmark draws its jobs from.
const MODELS: [ModelId; 12] = [
    ModelId::MobileNetV2,
    ModelId::MobileNetV3Small,
    ModelId::MobileNetV3Large,
    ModelId::MnasNet,
    ModelId::RegNetX400MF,
    ModelId::ConvNextTiny,
    ModelId::DistilGpt2,
    ModelId::Gpt2,
    ModelId::T5Small,
    ModelId::GptNeo125M,
    ModelId::Opt125M,
    ModelId::CerebrasGpt111M,
];

/// How far `approx_bytes` may stray from the retained heap.
const TOLERANCE: f64 = 0.15;

/// Mean retained heap per analysis over the corpus must stay at or below
/// this (an analysis with 88-byte blocks retained ~268 KiB).
const MEAN_CEILING_BYTES: f64 = 185.0 * 1024.0;

/// The heap one analysis of `spec` retains, measured around `analyze`,
/// and the analysis.
fn retained_by(analyze: impl FnOnce() -> AnalyzedTrace) -> (f64, AnalyzedTrace) {
    let before = LIVE.load(Ordering::Relaxed);
    let analyzed = analyze();
    ((LIVE.load(Ordering::Relaxed) - before) as f64, analyzed)
}

#[test]
fn approx_bytes_tracks_the_heap_an_analysis_retains() {
    let optimizers = [OptimizerKind::Adam, OptimizerKind::Sgd { momentum: true }];
    // Per route: the service's (the engine's events analyzed as they
    // arrive) and the recorded trace's.
    let mut retained_total = [0.0; 2];
    let mut jobs = 0.0;
    for model in MODELS {
        for optimizer in optimizers {
            let spec = TrainJobSpec::new(model, optimizer, 2).with_iterations(2);
            // Profile once first, so any state built on first use is not
            // counted against the analysis.
            drop(profile_on_cpu(&spec));
            let fed = retained_by(|| {
                profile_into(&spec, Analyzer::new().sink())
                    .finish()
                    .expect("job analyzes")
            });
            // The trace is dropped inside the measurement: names the
            // analysis shares with it stay, the rest goes.
            let recorded = retained_by(|| {
                Analyzer::new()
                    .analyze(&profile_on_cpu(&spec))
                    .expect("job analyzes")
            });
            for (route, (retained, analyzed)) in [fed, recorded].into_iter().enumerate() {
                let approx = analyzed.approx_bytes() as f64;
                let error = (approx - retained) / retained;
                eprintln!(
                    "{model:?} {optimizer:?} route {route}: {} blocks, retained {retained:.0} B, approx {approx:.0} B ({:+.1} %)",
                    analyzed.blocks().len(),
                    100.0 * error
                );
                assert!(
                    error.abs() <= TOLERANCE,
                    "{model:?} {optimizer:?} route {route}: approx_bytes {approx} is {:+.1} % off the {retained} bytes retained",
                    100.0 * error
                );
                retained_total[route] += retained;
            }
            jobs += 1.0;
        }
    }
    for (route, total) in retained_total.into_iter().enumerate() {
        let mean = total / jobs;
        eprintln!(
            "route {route}: mean retained heap per analysis: {:.1} KiB",
            mean / 1024.0
        );
        assert!(
            mean <= MEAN_CEILING_BYTES,
            "route {route}: mean retained heap per analysis {:.1} KiB exceeds {:.1} KiB",
            mean / 1024.0,
            MEAN_CEILING_BYTES / 1024.0
        );
    }
}
