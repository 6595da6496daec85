//! Figure 3: the impact of deallocation ordering on peak segment memory.
//!
//! Two sequences over identical tensors (118 MiB and 78 MiB): holding the
//! first tensor across the second allocation forces 196 MiB of segments;
//! releasing it first lets the 78 MiB tensor reuse the cached 118 MiB
//! block, peaking at 118 MiB — the paper's 196 MB vs 118 MB example.

use xmem_alloc::{AllocatorConfig, CachingAllocator, DeviceAllocator};

const MIB: usize = 1 << 20;

fn run_sequence(order: &[(usize, bool)], sizes: &[usize]) -> u64 {
    let mut alloc = CachingAllocator::new(
        AllocatorConfig::pytorch_defaults(),
        DeviceAllocator::unlimited(),
    );
    let mut live = vec![None; sizes.len()];
    for &(tensor, is_alloc) in order {
        if is_alloc {
            live[tensor] = Some(alloc.alloc(sizes[tensor]).expect("unbounded"));
        } else if let Some(handle) = live[tensor].take() {
            alloc.free(handle);
        }
    }
    alloc.counters().peak_reserved
}

fn main() {
    let sizes = [118 * MIB, 78 * MIB];
    // Sequence 1: free tensor 0 only after tensor 1 is allocated.
    let seq1 = [(0, true), (1, true), (0, false), (1, false)];
    // Sequence 2: free tensor 0 before allocating tensor 1.
    let seq2 = [(0, true), (0, false), (1, true), (1, false)];
    let peak1 = run_sequence(&seq1, &sizes) / MIB as u64;
    let peak2 = run_sequence(&seq2, &sizes) / MIB as u64;
    println!("Figure 3: identical tensors, different deallocation order");
    println!("  Sequence 1 (hold then free):  peak segment memory {peak1} MiB");
    println!("  Sequence 2 (free then alloc): peak segment memory {peak2} MiB");
    println!("Paper reports 196 MB vs 118 MB.");
    assert_eq!(peak1, 196);
    assert_eq!(peak2, 118);
}
