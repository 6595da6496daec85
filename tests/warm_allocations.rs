//! What a warm answer allocates: a cached estimate is shared, not
//! copied, so a sim-cell hit costs a refcount and the heap is touched
//! only for what the answer itself owns (device names, row and cell
//! vectors), and rendering the answer allocates only its body. And what
//! a cold analysis allocates: the service analyzes the engine's events
//! as they arrive, so it records no trace.
//!
//! The binary holds a single test: its global allocator counts every
//! thread, and a second test running alongside would show up in the
//! counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use xmem::prelude::*;
use xmem::server::api;

/// The system allocator, keeping a count of allocations made and of the
/// bytes they asked for.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every call is forwarded to `System` with the caller's own
// arguments; the counters only observe that a call happened and its size.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f`, returning its result and the allocations it made. The
/// result is returned, not dropped, so freeing it is not counted either.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let (out, made, _) = counted_bytes(f);
    (out, made)
}

/// [`counted`], with the bytes the allocations asked for (a `realloc`
/// counts its new size).
fn counted_bytes<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (allocations, bytes) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    let out = f();
    (
        out,
        ALLOCATIONS.load(Ordering::Relaxed) - allocations,
        BYTES.load(Ordering::Relaxed) - bytes,
    )
}

/// Sixteen small jobs: every one fits every device, so each row's cells
/// all derive from the row's one unbounded replay.
fn jobs() -> Vec<TrainJobSpec> {
    let mut jobs = Vec::new();
    for model in [ModelId::MobileNetV3Small, ModelId::MnasNet] {
        for optimizer in [OptimizerKind::Adam, OptimizerKind::Sgd { momentum: true }] {
            for batch in [1, 2, 4, 8] {
                jobs.push(TrainJobSpec::new(model, optimizer, batch).with_iterations(2));
            }
        }
    }
    jobs
}

/// The bytes one cold `stages` call may allocate for the golden-trace job
/// (MobileNetV3-Small, Adam, batch 2, 2 iterations). It allocates
/// 981 702: the engine's own state, the blocks and windows the finished
/// analysis holds until the call returns (153 846 bytes) and their growth. Recording the run's trace and
/// analyzing it afterwards allocated 2 040 267.
const COLD_STAGES_BYTES: u64 = 1_100_000;

#[test]
fn warm_answers_share_their_estimates() {
    let untraced = TraceContext::disabled();
    // The serving benchmark's fleet: the three built-ins and five more.
    let registry = DeviceRegistry::builtin();
    registry
        .extend_from_json_str(include_str!("../perfbench/fleet.json"))
        .expect("fleet file parses");
    let devices = registry.names();
    assert_eq!(devices.len(), 8);
    let service = EstimationService::new(
        ServiceConfig::for_device(GpuDevice::rtx3060()).with_registry(registry.clone()),
    );
    let jobs = jobs();
    let columns: Vec<&str> = devices.iter().map(String::as_str).collect();

    let cold = service
        .estimate_matrix_traced(&jobs, &columns, &untraced)
        .expect("resolves");
    let row = &cold.rows[0];
    let first = row.cells[0].estimate.as_ref().expect("estimates");
    let second = row.cells[1].estimate.as_ref().expect("estimates");
    assert!(
        Arc::ptr_eq(&first.stats.categories, &second.stats.categories),
        "the derived cells of one row share one stats allocation"
    );

    let (copy, made) = counted(|| first.clone());
    eprintln!("Estimate::clone: {made} allocations");
    assert_eq!(&copy, first);
    assert_eq!(made, 0, "cloning an estimate allocates nothing");

    let spec = &jobs[0];
    let expected = service
        .estimate_traced(spec, None, &untraced)
        .expect("estimates");
    let (warm, made) = counted(|| {
        service
            .estimate_traced(spec, None, &untraced)
            .expect("estimates")
    });
    eprintln!("warm estimate: {made} allocations");
    assert_eq!(warm, expected);
    assert_eq!(made, 0, "a warm default-device estimate allocates nothing");

    let (warm, made) = counted(|| {
        service
            .estimate_matrix_traced(&jobs, &columns, &untraced)
            .expect("resolves")
    });
    assert_eq!(warm, cold);
    let cells = warm.num_cells() as u64;
    eprintln!("warm {cells}-cell matrix: {made} allocations");
    assert_eq!(cells, 16 * 8);
    assert!(
        made <= 2 * cells,
        "a warm {cells}-cell matrix made {made} allocations"
    );
    let (body, made) = counted(|| api::matrix_body(&warm));
    eprintln!(
        "warm {cells}-cell matrix body: {made} allocations, {} B",
        body.len()
    );
    assert_eq!(
        made, 1,
        "rendering a matrix allocates its pre-sized body and nothing else"
    );

    let expected = service
        .best_device_for_job_traced(spec, &untraced)
        .expect("places");
    let (warm, made) = counted(|| {
        service
            .best_device_for_job_traced(spec, &untraced)
            .expect("places")
    });
    eprintln!("warm placement: {made} allocations");
    assert_eq!(warm, expected);
    assert!(
        made <= 2,
        "a warm placement over {} devices made {made} allocations",
        registry.len()
    );

    // A cold analysis of the golden-trace job on a fresh service (the
    // model's graph is already built, by the matrix above).
    let fresh = EstimationService::new(ServiceConfig::for_device(GpuDevice::rtx3060()));
    let spec =
        TrainJobSpec::new(ModelId::MobileNetV3Small, OptimizerKind::Adam, 2).with_iterations(2);
    let (_stages, made, bytes) =
        counted_bytes(|| fresh.stages_traced(&spec, &untraced).expect("analyzes"));
    eprintln!("cold stages: {made} allocations, {bytes} bytes");
    assert_eq!(fresh.profile_runs(), 1);
    assert!(
        bytes <= COLD_STAGES_BYTES,
        "a cold analysis allocated {bytes} bytes"
    );
}
