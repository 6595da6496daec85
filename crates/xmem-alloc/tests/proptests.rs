//! Property-based tests of the caching-allocator invariants.
//!
//! Every test drives the allocator with a randomized alloc/free interleaving
//! and then asserts structural invariants via `check_invariants()` (blocks
//! tile segments exactly, free sets match free blocks, counters match a
//! recomputation, adjacent free blocks are always coalesced) plus
//! test-specific conservation properties.

use proptest::prelude::*;
use xmem_alloc::{AllocatorConfig, BlockHandle, CachingAllocator, DeviceAllocator};

/// A randomized workload step.
#[derive(Debug, Clone)]
enum Step {
    /// Allocate this many bytes.
    Alloc(usize),
    /// Free the i-th live allocation (modulo live count).
    Free(usize),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        3 => (1usize..64 * 1024 * 1024).prop_map(Step::Alloc),
        2 => any::<usize>().prop_map(Step::Free),
    ]
}

fn run_workload(alloc: &mut CachingAllocator, steps: &[Step]) -> (u64, u64) {
    let mut live: Vec<(BlockHandle, usize)> = Vec::new();
    let mut peak_live_requested: u64 = 0;
    let mut live_requested: u64 = 0;
    for step in steps {
        match step {
            Step::Alloc(size) => {
                if let Ok(handle) = alloc.alloc(*size) {
                    live.push((handle, *size));
                    live_requested += *size as u64;
                    peak_live_requested = peak_live_requested.max(live_requested);
                }
            }
            Step::Free(i) => {
                if !live.is_empty() {
                    let (handle, size) = live.swap_remove(i % live.len());
                    alloc.free(handle);
                    live_requested -= size as u64;
                }
            }
        }
        alloc.check_invariants();
    }
    // Drain the remainder so callers can check the empty end state.
    for (handle, size) in live {
        alloc.free(handle);
        live_requested -= size as u64;
    }
    alloc.check_invariants();
    (peak_live_requested, live_requested)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After freeing everything, no bytes remain allocated, and emptying the
    /// cache returns every segment to the device.
    #[test]
    fn full_roundtrip_conserves_memory(steps in proptest::collection::vec(step_strategy(), 1..120)) {
        let mut a = CachingAllocator::new(
            AllocatorConfig::pytorch_defaults(),
            DeviceAllocator::unlimited(),
        );
        let (_, live_left) = run_workload(&mut a, &steps);
        prop_assert_eq!(live_left, 0);
        prop_assert_eq!(a.counters().allocated, 0);
        prop_assert_eq!(a.counters().active, 0);
        a.empty_cache();
        prop_assert_eq!(a.counters().reserved, 0);
        prop_assert_eq!(a.device().used(), 0);
    }

    /// Reserved memory always dominates active memory, and the reserved peak
    /// dominates the peak of live requested bytes.
    #[test]
    fn reserved_dominates_requested(steps in proptest::collection::vec(step_strategy(), 1..120)) {
        let mut a = CachingAllocator::new(
            AllocatorConfig::pytorch_defaults(),
            DeviceAllocator::unlimited(),
        );
        let (peak_requested, _) = run_workload(&mut a, &steps);
        prop_assert!(a.counters().peak_reserved >= a.counters().peak_active);
        prop_assert!(a.counters().peak_active >= peak_requested);
    }

    /// The allocator is deterministic: identical workloads produce identical
    /// counters and snapshots.
    #[test]
    fn identical_workloads_are_deterministic(steps in proptest::collection::vec(step_strategy(), 1..80)) {
        let mut a = CachingAllocator::new(
            AllocatorConfig::pytorch_defaults(),
            DeviceAllocator::unlimited(),
        );
        let mut b = CachingAllocator::new(
            AllocatorConfig::pytorch_defaults(),
            DeviceAllocator::unlimited(),
        );
        run_workload(&mut a, &steps);
        run_workload(&mut b, &steps);
        prop_assert_eq!(a.counters(), b.counters());
        prop_assert_eq!(a.snapshot().segments, b.snapshot().segments);
    }

    /// Under the default config every accounting quantity stays 512-byte
    /// aligned, and the unrounded variant still dominates requested bytes.
    /// (Note: rounding does NOT always increase `active` — clean 512-byte
    /// reuse can beat the fragmentation of odd-sized blocks, which is why
    /// real allocators round in the first place.)
    #[test]
    fn rounding_keeps_accounting_aligned(steps in proptest::collection::vec(step_strategy(), 1..80)) {
        let mut rounded = CachingAllocator::new(
            AllocatorConfig::pytorch_defaults(),
            DeviceAllocator::unlimited(),
        );
        let mut exact = CachingAllocator::new(
            AllocatorConfig::without_round_up(),
            DeviceAllocator::unlimited(),
        );
        let (peak_requested, _) = run_workload(&mut rounded, &steps);
        prop_assert_eq!(rounded.counters().peak_active % 512, 0);
        prop_assert_eq!(rounded.counters().active % 512, 0);
        prop_assert_eq!(rounded.counters().peak_reserved % 512, 0);
        prop_assert!(rounded.counters().peak_active >= peak_requested);

        let (peak_requested, _) = run_workload(&mut exact, &steps);
        prop_assert!(exact.counters().peak_active >= peak_requested);
    }

    /// On a bounded device, the allocator never reserves more than the
    /// device capacity, even across OOM-reclaim cycles.
    #[test]
    fn capacity_is_never_exceeded(steps in proptest::collection::vec(step_strategy(), 1..120)) {
        let capacity = 256u64 * 1024 * 1024;
        let mut a = CachingAllocator::new(
            AllocatorConfig::pytorch_defaults(),
            DeviceAllocator::new(capacity, 2 << 20, 0),
        );
        let mut live: Vec<BlockHandle> = Vec::new();
        for step in &steps {
            match step {
                Step::Alloc(size) => {
                    if let Ok(handle) = a.alloc(*size) {
                        live.push(handle);
                    }
                }
                Step::Free(i) => {
                    if !live.is_empty() {
                        a.free(live.swap_remove(i % live.len()));
                    }
                }
            }
            prop_assert!(a.counters().reserved <= capacity);
            prop_assert!(a.device().used() <= capacity);
            a.check_invariants();
        }
    }

    /// Snapshots round-trip through serde JSON.
    #[test]
    fn snapshot_serde_roundtrip(steps in proptest::collection::vec(step_strategy(), 1..40)) {
        let mut a = CachingAllocator::new(
            AllocatorConfig::pytorch_defaults(),
            DeviceAllocator::unlimited(),
        );
        let mut live: Vec<BlockHandle> = Vec::new();
        for step in &steps {
            match step {
                Step::Alloc(size) => {
                    if let Ok(handle) = a.alloc(*size) {
                        live.push(handle);
                    }
                }
                Step::Free(i) => {
                    if !live.is_empty() {
                        a.free(live.swap_remove(i % live.len()));
                    }
                }
            }
        }
        let snap = a.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: xmem_alloc::AllocatorSnapshot = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(snap, back);
    }
}
